//! The repository's benchmark: four workloads over the simulator and the
//! live UDP path, end-to-end metrics with tracing off, per-layer metrics
//! from a separate traced run. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <farm|stream|incast|live> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of stdout is the result: `{"correct", "attempted",
//! "failed", "metrics"}`; the line before it stamps provenance and host
//! noise. Failures are logged to stderr and counted, never fatal.

mod layers;
mod live;
mod probes;
mod sim;
mod stats;
mod sys;

use std::time::{Duration, Instant};

use live::{LivePass, SCTP, TCP};
use sim::{Expect, Workload};
use stats::{median, pct, Metrics, Tally};
use sys::{HostTicks, Usage};

/// The seed `pinned.txt` holds the digests of.
pub const PINNED_SEED: u64 = 1;
/// Set-ups per run at the least; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const SETUP_WALL: Duration = Duration::from_secs(1);
/// Passes per run at the least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: PINNED_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\nusage: perfbench --workload <farm|stream|incast|live> --seed <n> --seconds <s> --trace <0|1>");
        std::process::exit(2);
    });
    let sim = match args.workload.as_str() {
        "farm" => Some(Workload::Farm),
        "stream" => Some(Workload::Stream),
        "incast" => Some(Workload::Incast),
        "live" => None,
        w => {
            eprintln!("perfbench: unknown workload {w:?}");
            std::process::exit(2);
        }
    };
    let host0 = HostTicks::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut tally = Tally::default();
    let metrics = match (sim, args.trace) {
        (Some(w), false) => sim_end_to_end(w, args.seed, budget, &mut tally),
        (None, false) => live_end_to_end(args.seed, budget, &mut tally),
        (w, true) => layers::run(w, args.seed, budget, &mut tally),
    };
    let key = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    assert_eq!(
        metrics.names(),
        stats::declared(key),
        "metrics differ from BENCHMARK.json's {key}"
    );
    let steal = HostTicks::now().steal_share_since(&host0);
    println!(
        "{}",
        sys::provenance_line(&args.workload, args.seed, args.trace, steal)
    );
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!("{}", metrics.result_line(&tally, correct));
}

/// Passes of `pass` until `budget` has elapsed (at least `min` of them).
fn repeat<T>(budget: Duration, min: usize, mut pass: impl FnMut() -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || t0.elapsed() < budget {
        out.push(pass());
    }
    out
}

/// Median CPU time of one bring-up of the cell set's worlds, over at
/// least `SETUP_REPS` bring-ups and at least `SETUP_WALL` of them (a
/// bring-up takes 2 ms for incast, 100 ms for the farm grid).
fn sim_setup_s(cells: &[sim::Cell]) -> f64 {
    let mut reps = repeat(SETUP_WALL, SETUP_REPS, || {
        let u0 = Usage::now();
        cells.iter().for_each(sim::setup_cell);
        Usage::now().since(&u0).cpu().as_secs_f64()
    });
    median(&mut reps)
}

fn sim_end_to_end(w: Workload, seed: u64, budget: Duration, tally: &mut Tally) -> Metrics {
    let cells = sim::cells(w, seed);
    let mut expect = Expect::for_seed(w, seed);
    let setup = sim_setup_s(&cells);
    let run = |c: &sim::Cell| sim::run_cell(c, false);
    // Live passes are interleaved with the simulator passes, taking a third
    // of the run, so their samples span the whole run: on a shared host the
    // speed of the machine drifts over seconds.
    let (mut cpu, mut live) = (Vec::new(), Vec::new());
    let (mut sim_time, mut live_time) = (Duration::ZERO, Duration::ZERO);
    let mut n = 0u64;
    while cpu.len() < MIN_PASSES || sim_time < budget {
        let t0 = Instant::now();
        let p = sim::run_pass(w, &cells, &run, &mut expect, tally);
        sim_time += t0.elapsed();
        cpu.push(p.usage.cpu().as_secs_f64());
        eprintln!(
            "[perfbench] {} pass {}: cpu {:.4} s, wall {:.3} s",
            w.name(),
            cpu.len(),
            cpu[cpu.len() - 1],
            t0.elapsed().as_secs_f64()
        );
        while live_time < sim_time / 2 {
            let t0 = Instant::now();
            n += 1;
            live.push(live::run_pass(sim::mix(seed, n), false, tally));
            live_time += t0.elapsed();
        }
    }
    let mut m = Metrics::default();
    m.put("cpu_s", median(&mut cpu), "s");
    m.put("setup_s", setup, "s");
    m.put("peak_rss_mb", sys::peak_rss_mib(), "MiB");
    live_metrics(&mut m, &live);
    m
}

fn live_end_to_end(seed: u64, budget: Duration, tally: &mut Tally) -> Metrics {
    let mut n = 0u64;
    let passes = repeat(budget, 1, || {
        n += 1;
        live::run_pass(sim::mix(seed, n), false, tally)
    });
    // Set-up: one SCTP plus one TCP bring-up, each the median over every
    // session of the run.
    let bring_up = |proto: usize| {
        let v: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.bring_up[proto].iter().copied())
            .collect();
        pct(&v, 50.0)
    };
    // CPU: one SCTP plus one TCP session, p90 over every pair of the run,
    // for the reason `live_metrics` gives.
    let pair_cpu: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.pair_cpu.iter().copied())
        .collect();
    let mut m = Metrics::default();
    m.put("cpu_s", pct(&pair_cpu, 90.0), "s");
    m.put("setup_s", bring_up(SCTP) + bring_up(TCP), "s");
    m.put("peak_rss_mb", sys::peak_rss_mib(), "MiB");
    live_metrics(&mut m, &passes);
    m
}

/// The live end-to-end metrics over every round trip of `passes`: the p90
/// of 64 B round-trip times, and the 64 KB one-way payload rate over the
/// p90 64 KB round trip (MPBench's figure: bytes per round trip), the rate
/// nine round trips in ten reach.
///
/// The p90, not the median or the mean: on a shared VM, execution speed
/// switches between two levels (about 1.6× apart) for tenths of a second
/// at a time, and the share of time spent at the fast level changes from
/// minute to minute. Per-message times are bimodal, so the median jumps
/// between the modes and the mean moves with the share; the p90 stays on
/// the slow level, which every run spends most of its time at.
fn live_metrics(m: &mut Metrics, passes: &[LivePass]) {
    for (proto, name) in [(SCTP, "sctp"), (TCP, "tcp")] {
        let small: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.rtt_small[proto].iter().copied())
            .collect();
        let big: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.rtt_big[proto].iter().copied())
            .collect();
        m.put(&format!("{name}_rtt_p90_us"), pct(&small, 90.0), "us");
        // One-way payload per round trip: bytes per µs is MB/s.
        m.put(
            &format!("{name}_MBps"),
            ratio(live::BIG as f64, pct(&big, 90.0)),
            "MB/s",
        );
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
