//! Build-time provenance: the compiler version, the build profile, and a
//! digest of the repository sources the benchmark was built from. The
//! checkout a benchmark runs in need not be a git repository, so the
//! source digest stands in for a commit id when `git` cannot name one.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");

    let mut files = Vec::new();
    for root in ["../crates", "../vendor", "../Cargo.toml", "../Cargo.lock"] {
        println!("cargo:rerun-if-changed={root}");
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = Fnv::default();
    for f in &files {
        h.eat(f.to_string_lossy().as_bytes());
        h.eat(&std::fs::read(f).unwrap_or_default());
    }
    println!("cargo:rustc-env=PERFBENCH_SRC_DIGEST={:016x}", h.0);
}

fn collect(p: &Path, out: &mut Vec<std::path::PathBuf>) {
    if p.is_dir() {
        let Ok(rd) = std::fs::read_dir(p) else { return };
        for e in rd.flatten() {
            let path = e.path();
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&path, out);
        }
    } else if p.is_file() {
        out.push(p.to_path_buf());
    }
}

/// 64-bit FNV-1a: enough to tell two source trees apart, no dependency.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
