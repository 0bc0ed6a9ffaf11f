//! Host-side measurement: process CPU time and context switches from
//! `getrusage`, peak RSS from `/proc/self/status`, steal time from
//! `/proc/stat`, and the provenance stamp. Linux only.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux's 64-bit `struct rusage` and /proc");

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// A snapshot of the whole process's resource use (every thread, live or
/// joined).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user: Duration,
    pub sys: Duration,
    /// Voluntary context switches.
    pub vcsw: u64,
}

fn tv(t: [i64; 2]) -> Duration {
    Duration::from_secs(t[0] as u64) + Duration::from_micros(t[1] as u64)
}

impl Usage {
    pub fn now() -> Usage {
        let mut r = RawRusage::default();
        // SAFETY: `r` is a properly aligned, writable `struct rusage` with
        // the kernel's 64-bit layout; getrusage writes only inside it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        Usage {
            user: tv(r.utime),
            sys: tv(r.stime),
            vcsw: r.nvcsw as u64,
        }
    }

    pub fn cpu(&self) -> Duration {
        self.user + self.sys
    }

    /// The sum of two spans of resource use.
    pub fn plus(&self, o: &Usage) -> Usage {
        Usage {
            user: self.user + o.user,
            sys: self.sys + o.sys,
            vcsw: self.vcsw + o.vcsw,
        }
    }

    /// Resource use between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            vcsw: self.vcsw.saturating_sub(earlier.vcsw),
        }
    }
}

/// High-water resident set size of this process image, in MiB (`VmHWM`).
/// Not `ru_maxrss`: that survives `execve`, so a process started by a
/// large parent (`cargo run`) would report the parent's footprint.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    total: u64,
    steal: u64,
}

impl HostTicks {
    /// Read the host counters; zeros where `/proc/stat` is unreadable.
    pub fn now() -> HostTicks {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
            return HostTicks::default();
        };
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already inside user/nice, so only the first eight
        // fields add up to the total.
        let f: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|x| x.parse().ok())
            .collect();
        HostTicks {
            total: f.iter().take(8).sum(),
            steal: f.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of host CPU time stolen by the hypervisor between `earlier`
    /// and `self` (0 when no time passed or the counters are missing).
    pub fn steal_share_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// The commit the working directory is at, if it is a git checkout.
fn git_rev() -> String {
    // Only ask git inside a checkout's root: in an exported tree, git would
    // walk up and name whatever repository happens to enclose it.
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One JSON line stamping a result with what produced it and how noisy the
/// host was while it ran.
pub fn provenance_line(workload: &str, seed: u64, trace: bool, steal_share: f64) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "{{\"provenance\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \
         \"git_rev\": \"{}\", \"src_digest\": \"{}\", \"nproc\": {nproc}, \"profile\": \"{}\", \
         \"rustc\": \"{}\", \"steal_share\": {steal_share}}}}}",
        git_rev(),
        env!("PERFBENCH_SRC_DIGEST"),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC"),
    )
}
