//! Parallel, self-metering experiment runner.
//!
//! Every figure/table cell — one (message size × loss rate × transport ×
//! seed) combination — is an independent deterministic simulation, so the
//! harness fans cells across a `std::thread::scope` worker pool. Results
//! are written back by cell index, so output order (and therefore every
//! aggregate computed from it) is identical to a sequential run no matter
//! how threads interleave; only wall-clock changes.
//!
//! A cell returns its own result (whatever its figure's rows are built
//! from) together with a [`Measured`]: the cell's value, simulated
//! seconds, events fired, and the per-cell counters of the [`COUNTERS`]
//! table. The per-figure roll-up is persisted as `results/BENCH_<fig>.json`
//! (schema documented in EXPERIMENTS.md) so harness performance is
//! comparable across PRs.
//!
//! `SIM_CHECK=1` turns on shadow verification: every cell runs twice, first
//! under the reference wakeup discipline (pre-coalescing accounting), then
//! under the fast one, and the harness panics if the value, simulated
//! seconds, events, or any counter the table marks [`Check::Compared`]
//! differs by even a bit. Only the fast run is metered.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::json::{Json, ToJson};
use crate::Scale;

/// Whether `SIM_CHECK` compares a counter between the reference and the
/// fast discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// A semantic output: the two runs must agree bit for bit.
    Compared,
    /// A wall-clock or partition diagnostic the disciplines (or `SHARDS`)
    /// change by design.
    Diagnostic,
}

/// One row of [`COUNTERS`].
#[derive(Debug, Clone, Copy)]
pub struct CounterSpec {
    pub counter: Counter,
    /// Key in `results/BENCH_<fig>.json`; rows sharing a key render as one
    /// array. `None` for a counter that only feeds a derived field.
    pub key: Option<&'static str>,
    pub check: Check,
    /// Value before the cell sets it.
    pub default: u64,
}

/// Declares [`Counter`] and its [`COUNTERS`] table from one list of rows:
/// `Name = "bench_key", Compared|Diagnostic [, default N];`.
macro_rules! counters {
    ($(
        $(#[$doc:meta])*
        $name:ident $(= $key:literal)?, $check:ident $(, default $default:literal)?;
    )+) => {
        /// A per-cell counter, reported by a cell through [`Measured::with`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(#[$doc])* $name,)+
        }

        /// Every per-cell counter, in `Counter` order (which is also the
        /// order of the BENCH JSON keys).
        pub const COUNTERS: &[CounterSpec] = &[$(CounterSpec {
            counter: Counter::$name,
            key: counters!(@key $($key)?),
            check: Check::$check,
            default: 0 $(+ $default)?,
        },)+];
    };
    (@key) => { None };
    (@key $key:literal) => { Some($key) };
}

counters! {
    /// Switches from the runtime driver into a process, i.e. every resume.
    Handoffs = "handoffs_total", Diagnostic;
    /// Wakes coalesced away by the runtime fast path; under the reference
    /// discipline each would have been a handoff.
    WakesCoalesced = "wakes_coalesced", Diagnostic;
    /// Packet trains emitted through the burst path (zero under the
    /// reference discipline by design).
    Bursts = "bursts_total", Diagnostic;
    /// Packets fused inside those trains (each still counts in `events`);
    /// reported as `pkts_per_burst_avg`.
    PktsFused, Diagnostic;
    /// Always 0: the event queue has no timer wheel (see `simcore::Ctx::wheel_hits`).
    WheelHits = "wheel_hits", Diagnostic;
    /// Events pushed onto the event heap, i.e. every schedule (see `simcore::Ctx::heap_falls`).
    HeapFalls = "heap_falls", Diagnostic;
    /// Worker shards the cell's simulation ran on (1 = sequential).
    Shards = "shards", Diagnostic, default 1;
    /// Conservative epochs the sharded engine synchronized through.
    Epochs = "epochs_total", Diagnostic;
    /// Messages that crossed a shard boundary.
    CrossShardPkts = "cross_shard_pkts", Diagnostic;
    /// Conservative lookahead the run executed under, in ns (0 when the
    /// cell did not use the sharded engine).
    LookaheadNs = "lookahead_ns", Diagnostic;
    /// Destination addresses configured per association (1 = singlehomed;
    /// 0 when the cell's transport has no path notion, e.g. TCP).
    Paths = "paths", Compared;
    /// Packets sent per path index — the CMT stripe balance (all zeros for
    /// TCP cells).
    PerPath0 = "per_path_pkts", Compared;
    PerPath1 = "per_path_pkts", Compared;
    PerPath2 = "per_path_pkts", Compared;
    PerPath3 = "per_path_pkts", Compared;
    /// Fast retransmits a later SACK proved unnecessary.
    SpuriousFrtx = "spurious_frtx_total", Compared;
    /// Chunks re-queued by the CMT rescue probe (tail-loss recovery that
    /// bypassed the RTO).
    RescueRtx = "rescue_rtx_total", Compared;
    /// PR-SCTP messages abandoned past their lifetime.
    MsgsAbandoned = "msgs_abandoned", Compared;
    /// FORWARD-TSN chunks sent across the run.
    FwdTsn = "fwd_tsn_total", Compared;
    /// Sender-side HOL blocks observed by the flight recorder (0 when the
    /// cell was not traced).
    SndHolBlocks = "snd_hol_blocks", Compared;
    /// Total sender-side HOL blocked time, ns (ditto).
    SndHolNs = "snd_hol_ns", Diagnostic;
    /// Peak length of the matching layer's unexpected-message queue.
    UnexpectedPeak = "unexpected_peak", Compared;
    /// Tail drops at downlink queues (the incast collapse signal).
    DropsQueue = "drops_queue", Compared;
}

impl Counter {
    /// The per-path packet counters, by path index.
    pub const PER_PATH: [Counter; 4] =
        [Counter::PerPath0, Counter::PerPath1, Counter::PerPath2, Counter::PerPath3];
}

/// What one cell's simulation reports back to the harness.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// The cell's metric (throughput, seconds, MOPS — figure-dependent).
    pub value: f64,
    /// Simulated seconds the run covered.
    pub sim_secs: f64,
    /// Simulator events fired during the run.
    pub events: u64,
    /// Sender-side stream scheduler the cell ran under ("fcfs" when the
    /// cell has no scheduler notion, e.g. TCP or non-interleaved SCTP).
    pub scheduler: &'static str,
    /// Indexed by [`Counter`].
    counters: [u64; COUNTERS.len()],
}

impl Measured {
    pub fn new(value: f64, sim_secs: f64, events: u64) -> Measured {
        Measured {
            value,
            sim_secs,
            events,
            scheduler: "fcfs",
            counters: std::array::from_fn(|i| COUNTERS[i].default),
        }
    }

    /// Sets each listed counter.
    pub fn with(mut self, counters: impl IntoIterator<Item = (Counter, u64)>) -> Measured {
        for (c, n) in counters {
            self.counters[c as usize] = n;
        }
        self
    }

    fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }
}

/// One unit of work: a label for the meter plus the simulation closure,
/// which returns the cell's own result `R` and its [`Measured`].
pub struct Cell<'a, R> {
    pub label: String,
    run: Box<dyn Fn() -> (R, Measured) + Send + Sync + 'a>,
}

impl<'a, R> Cell<'a, R> {
    pub fn new(label: String, run: impl Fn() -> (R, Measured) + Send + Sync + 'a) -> Cell<'a, R> {
        Cell { label, run: Box::new(run) }
    }
}

/// Per-cell self-metering record (one row of `results/BENCH_<fig>.json`).
#[derive(Debug, Clone)]
pub struct CellMeter {
    pub label: String,
    /// Wall-clock seconds of the metered run.
    pub wall_secs: f64,
    /// Heap allocations during the metered run (`ALLOC_METER=1`; 0 when the
    /// counting allocator is off). Process-global, so attributable to this
    /// cell only at `BENCH_THREADS=1`.
    pub allocs_total: u64,
    pub measured: Measured,
}

impl ToJson for CellMeter {
    fn to_json(&self) -> Json {
        let m = &self.measured;
        let per_event = |x: f64| x / m.events.max(1) as f64;
        let mut fields = vec![
            ("label", self.label.to_json()),
            ("wall_secs", self.wall_secs.to_json()),
            ("sim_secs", m.sim_secs.to_json()),
            ("events_fired", m.events.to_json()),
            ("events_per_sec", (m.events as f64 / self.wall_secs.max(1e-9)).to_json()),
            ("us_per_event", per_event(self.wall_secs * 1e6).to_json()),
        ];
        let mut groups: Vec<(&'static str, Vec<u64>)> = Vec::new();
        for (spec, &n) in COUNTERS.iter().zip(&m.counters) {
            let Some(key) = spec.key else { continue };
            match groups.last_mut() {
                Some((k, ns)) if *k == key => ns.push(n),
                _ => groups.push((key, vec![n])),
            }
        }
        fields.extend(groups.into_iter().map(|(k, ns)| {
            (k, if let [n] = ns[..] { n.to_json() } else { ns.to_json() })
        }));
        let bursts = m.get(Counter::Bursts);
        let pkts_per_burst_avg =
            if bursts == 0 { 0.0 } else { m.get(Counter::PktsFused) as f64 / bursts as f64 };
        fields.extend([
            ("pkts_per_burst_avg", pkts_per_burst_avg.to_json()),
            ("scheduler", m.scheduler.to_json()),
            ("allocs_total", self.allocs_total.to_json()),
            ("allocs_per_event", per_event(self.allocs_total as f64).to_json()),
        ]);
        Json::Obj(fields)
    }
}

/// Roll-up of one figure's harness run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    pub fig: String,
    pub scale: &'static str,
    pub threads: usize,
    pub wall_secs_total: f64,
    pub events_total: u64,
    /// The fault plan every cell ran under, as [`netsim::FaultPlan::to_json`]
    /// text — present only for fault experiments. Replaying the report is
    /// `FaultPlan::from_json` on this string plus the cell label's seed.
    /// Adding this field is schema-compatible (see `SCHEMA_VERSION`).
    pub fault_plan: Option<String>,
    pub cells: Vec<CellMeter>,
}

impl ToJson for BenchReport {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema_version", crate::json::SCHEMA_VERSION.to_json()),
            ("fig", self.fig.to_json()),
            ("scale", self.scale.to_json()),
            ("threads", self.threads.to_json()),
            ("wall_secs_total", self.wall_secs_total.to_json()),
            ("events_total", self.events_total.to_json()),
        ];
        if let Some(plan) = &self.fault_plan {
            fields.push(("fault_plan", Json::Raw(plan.clone())));
        }
        fields.push(("cells", self.cells.to_json()));
        Json::Obj(fields)
    }
}

impl BenchReport {
    /// The roll-up of `cells`: `fig` gets the scale's result-file tag, so a
    /// `--quick` run never overwrites the paper-scale record.
    pub fn new(
        fig: &str,
        scale: Scale,
        threads: usize,
        wall_secs_total: f64,
        fault_plan: Option<String>,
        cells: Vec<CellMeter>,
    ) -> BenchReport {
        BenchReport {
            fig: scale.tag(fig),
            scale: match scale {
                Scale::Paper => "paper",
                Scale::Quick => "quick",
            },
            threads,
            wall_secs_total,
            events_total: cells.iter().map(|c| c.measured.events).sum(),
            fault_plan,
            cells,
        }
    }

    /// Writes `results/BENCH_<fig>.json`.
    pub fn save(&self) {
        self.save_to(std::path::Path::new("results"));
    }

    /// [`BenchReport::save`] with an explicit directory (testable). A pre-existing file
    /// with a different `schema_version` is retired to `.bak` first, so a
    /// reader diffing result files across PRs never silently compares
    /// fields whose meaning changed between schemas.
    pub fn save_to(&self, dir: &std::path::Path) {
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let path = dir.join(format!("BENCH_{}.json", self.fig));
        if let Ok(old) = std::fs::read_to_string(&path) {
            if crate::json::sniff_schema_version(&old) != crate::json::SCHEMA_VERSION {
                let _ = std::fs::rename(&path, path.with_extension("json.bak"));
            }
        }
        let _ = std::fs::write(path, self.to_json().render() + "\n");
    }

    /// One-line harness summary for the binaries' stderr.
    pub fn summary(&self) -> String {
        format!(
            "[bench {}] {} cells on {} threads: {:.2}s wall, {} events ({:.0} ev/s)",
            self.fig,
            self.cells.len(),
            self.threads,
            self.wall_secs_total,
            self.events_total,
            self.events_total as f64 / self.wall_secs_total.max(1e-9),
        )
    }
}

/// Worker count: `BENCH_THREADS` env override (1 forces a sequential run),
/// else the machine's available parallelism.
pub fn pool_threads() -> usize {
    threads_from_env(std::env::var("BENCH_THREADS").ok().as_deref())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Parse a `BENCH_THREADS` override. `Some(n)` forces an `n`-worker pool —
/// clamped to at least one worker, so `BENCH_THREADS=0` means "sequential",
/// not "no workers ever run a cell". Unset or unparsable values mean "no
/// override" (fall back to machine parallelism).
fn threads_from_env(var: Option<&str>) -> Option<usize> {
    var.and_then(|v| v.parse::<usize>().ok()).map(|n| n.max(1))
}

/// `SIM_CHECK=1` enables per-cell shadow verification against the reference
/// wakeup discipline.
pub fn sim_check() -> bool {
    std::env::var("SIM_CHECK").map(|v| v == "1").unwrap_or(false)
}

/// Worker shards for the sharded-engine experiments: `SHARDS` env override,
/// default 1 (sequential). Results are bit-identical at any value; only
/// wall-clock changes.
pub fn shards() -> u32 {
    shards_from_env(std::env::var("SHARDS").ok().as_deref())
}

/// Parse a `SHARDS` override; unset, unparsable, or zero means sequential.
fn shards_from_env(var: Option<&str>) -> u32 {
    var.and_then(|v| v.parse::<u32>().ok()).map(|n| n.max(1)).unwrap_or(1)
}

/// Which packet driver `pingpong_live` runs on (see `BACKEND`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The deterministic simulator — the comparison path.
    Sim,
    /// Real UDP sockets over loopback.
    Udp,
}

/// Packet-driver selection for the live binaries: `BACKEND` env override,
/// default the real-socket driver (the binary exists to exercise it);
/// `BACKEND=sim` selects the simulated comparison path.
pub fn backend_kind() -> BackendKind {
    backend_from_env(std::env::var("BACKEND").ok().as_deref())
}

/// Parse a `BACKEND` override. Unset, empty, or unrecognized values fall
/// back to the default (udp) rather than erroring, the same
/// garbage-tolerant posture as `SHARDS`/`BENCH_THREADS`: an env knob must
/// never turn a benchmark run into a parse failure.
fn backend_from_env(var: Option<&str>) -> BackendKind {
    match var.map(|v| v.trim().to_ascii_lowercase()).as_deref() {
        Some("sim") => BackendKind::Sim,
        _ => BackendKind::Udp,
    }
}

/// Panics unless the reference-discipline and fast-discipline runs of one
/// cell agree bit for bit on the value, simulated seconds, events, and
/// every [`Check::Compared`] counter.
fn assert_disciplines_agree(label: &str, reference: &Measured, fast: &Measured) {
    let mut diffs = Vec::new();
    if reference.value.to_bits() != fast.value.to_bits() {
        diffs.push(format!("value {:?} vs {:?}", reference.value, fast.value));
    }
    if reference.sim_secs.to_bits() != fast.sim_secs.to_bits() {
        diffs.push(format!("sim_secs {:?} vs {:?}", reference.sim_secs, fast.sim_secs));
    }
    if reference.events != fast.events {
        diffs.push(format!("events {} vs {}", reference.events, fast.events));
    }
    for (spec, (r, f)) in COUNTERS.iter().zip(reference.counters.iter().zip(&fast.counters)) {
        if spec.check == Check::Compared && r != f {
            diffs.push(format!("{:?} {r} vs {f}", spec.counter));
        }
    }
    assert!(
        diffs.is_empty(),
        "SIM_CHECK divergence in cell `{label}` (reference vs fast): {}",
        diffs.join(", ")
    );
}

/// Runs all cells on the worker pool; returns each cell's result in cell
/// order plus the metering roll-up. `plan` (the serialized
/// [`netsim::FaultPlan`] a fault experiment's cells ran under) is stamped
/// into the report so `results/BENCH_<fig>.json` carries everything needed
/// to replay the run.
pub fn run_cells<R: Send>(
    fig: &str,
    scale: Scale,
    plan: Option<String>,
    cells: Vec<Cell<'_, R>>,
) -> (Vec<R>, BenchReport) {
    let n = cells.len();
    let threads = pool_threads().min(n.max(1));
    let check = sim_check();
    if crate::alloc_meter::env_enabled() {
        crate::alloc_meter::enable(true);
    }
    let metering_allocs = crate::alloc_meter::enabled();
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R, CellMeter)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        let cell = &cells[i];
                        // Name any flight-recorder capture after the cell, so
                        // a `TRACE=1 fig10 --quick` run leaves one
                        // `traces/<fig>_<label>.{pcapng,jsonl}` pair per cell.
                        // The label is thread-local; clearing it keeps later
                        // non-cell runs (e.g. Criterion) on the seed-derived
                        // default name.
                        trace::set_run_label(Some(&format!("{fig} {}", cell.label)));
                        // Shadow run first so the metered (fast) run below is
                        // undisturbed. The discipline flag is thread-local, so
                        // parallel workers shadow-check independently.
                        let reference = check.then(|| {
                            simcore::set_reference_discipline(true);
                            let (_, m) = (cell.run)();
                            simcore::set_reference_discipline(false);
                            m
                        });
                        let a0 = metering_allocs.then(crate::alloc_meter::allocs);
                        let t0 = Instant::now();
                        let (r, m) = (cell.run)();
                        let wall_secs = t0.elapsed().as_secs_f64();
                        let allocs_total =
                            a0.map_or(0, |a| crate::alloc_meter::allocs().saturating_sub(a));
                        trace::set_run_label(None);
                        if let Some(reference) = &reference {
                            assert_disciplines_agree(&cell.label, reference, &m);
                        }
                        let label = cell.label.clone();
                        let meter = CellMeter { label, wall_secs, allocs_total, measured: m };
                        done.push((i, r, meter));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let wall_total = start.elapsed().as_secs_f64();
    done.sort_unstable_by_key(|&(i, ..)| i);
    let (results, meters): (Vec<R>, Vec<CellMeter>) =
        done.into_iter().map(|(_, r, meter)| (r, meter)).unzip();
    let report = BenchReport::new(fig, scale, threads, wall_total, plan, meters);
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_cell_order_regardless_of_runtime() {
        // Cells finish in reverse submission order (later = faster), yet
        // results come back in cell order.
        let cells: Vec<Cell<u64>> = (0..16)
            .map(|i| {
                Cell::new(format!("cell{i}"), move || {
                    std::thread::sleep(std::time::Duration::from_millis(16 - i));
                    (i * 10, Measured::new(i as f64, 0.0, i))
                })
            })
            .collect();
        let (results, report) = run_cells("test", Scale::Quick, None, cells);
        assert_eq!(results, (0..16).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(report.cells.len(), 16);
        assert_eq!(report.cells[3].label, "cell3");
        assert_eq!(report.cells[3].measured.value, 3.0);
        assert_eq!(report.events_total, (0..16).sum::<u64>());
        assert!(report.wall_secs_total > 0.0);
    }

    #[test]
    fn sim_check_compares_all_but_the_diagnostic_counters() {
        // Listed apart from the table on purpose: demoting a compared
        // counter to diagnostic (or the reverse) must fail this test.
        use Counter::*;
        const DIAGNOSTIC: [Counter; 11] = [
            Handoffs,
            WakesCoalesced,
            Bursts,
            PktsFused,
            WheelHits,
            HeapFalls,
            Shards,
            Epochs,
            CrossShardPkts,
            LookaheadNs,
            SndHolNs,
        ];
        let reference = Measured::new(1.5, 2.5, 7);
        let divergence = |fast: Measured| {
            std::panic::catch_unwind(|| assert_disciplines_agree("cell-x", &reference, &fast))
                .err()
                .map(|e| e.downcast_ref::<String>().cloned().unwrap_or_default())
        };
        assert_eq!(divergence(reference), None);
        let mut semantic = vec![
            ("value".to_string(), Measured { value: 1.25, ..reference }),
            ("sim_secs".to_string(), Measured { sim_secs: -2.5, ..reference }),
            ("events".to_string(), Measured { events: 8, ..reference }),
        ];
        for spec in COUNTERS {
            let fast = reference.with([(spec.counter, reference.get(spec.counter) + 1)]);
            if DIAGNOSTIC.contains(&spec.counter) {
                assert_eq!(divergence(fast), None, "{:?} is diagnostic", spec.counter);
            } else {
                semantic.push((format!("{:?}", spec.counter), fast));
            }
        }
        for (what, fast) in semantic {
            let msg = divergence(fast).unwrap_or_else(|| panic!("{what} must be compared"));
            assert!(msg.contains("`cell-x`"), "{what}: panic must name the cell: {msg}");
        }
    }

    #[test]
    fn thread_override_parsing_clamps_to_one_worker() {
        // No env var, or garbage: no override, harness picks parallelism.
        assert_eq!(threads_from_env(None), None);
        assert_eq!(threads_from_env(Some("")), None);
        assert_eq!(threads_from_env(Some("lots")), None);
        assert_eq!(threads_from_env(Some("-3")), None);
        // Explicit values force the pool size...
        assert_eq!(threads_from_env(Some("1")), Some(1));
        assert_eq!(threads_from_env(Some("8")), Some(8));
        // ...and zero clamps to one sequential worker instead of a pool
        // that would never run any cell.
        assert_eq!(threads_from_env(Some("0")), Some(1));
    }

    #[test]
    fn shards_override_parsing_defaults_to_sequential() {
        assert_eq!(shards_from_env(None), 1);
        assert_eq!(shards_from_env(Some("")), 1);
        assert_eq!(shards_from_env(Some("many")), 1);
        assert_eq!(shards_from_env(Some("0")), 1);
        assert_eq!(shards_from_env(Some("4")), 4);
    }

    #[test]
    fn backend_override_parsing_defaults_to_udp_on_bad_values() {
        assert_eq!(backend_from_env(None), BackendKind::Udp);
        assert_eq!(backend_from_env(Some("")), BackendKind::Udp);
        assert_eq!(backend_from_env(Some("tcp")), BackendKind::Udp);
        assert_eq!(backend_from_env(Some("0")), BackendKind::Udp);
        assert_eq!(backend_from_env(Some("udp")), BackendKind::Udp);
        assert_eq!(backend_from_env(Some(" UDP ")), BackendKind::Udp);
        assert_eq!(backend_from_env(Some("sim")), BackendKind::Sim);
        assert_eq!(backend_from_env(Some(" Sim ")), BackendKind::Sim);
    }

    #[test]
    fn bench_report_renders_schema() {
        let measured = Measured::new(2.0, 1.0, 10)
            .with(COUNTERS.iter().enumerate().map(|(i, spec)| (spec.counter, 100 + i as u64)));
        let cell = CellMeter { label: "a".into(), wall_secs: 0.25, allocs_total: 123, measured };
        let r = BenchReport::new("fig0", Scale::Quick, 2, 0.5, None, vec![cell]);
        assert_eq!((r.fig.as_str(), r.events_total), ("fig0_quick", 10));
        let s = r.to_json().render();
        let keys = COUNTERS.iter().filter_map(|spec| spec.key);
        for key in keys.chain([
            "schema_version",
            "fig",
            "threads",
            "cells",
            "label",
            "wall_secs",
            "sim_secs",
            "events_fired",
            "events_per_sec",
            "us_per_event",
            "pkts_per_burst_avg",
            "scheduler",
            "allocs_total",
            "allocs_per_event",
        ]) {
            assert_eq!(s.matches(&format!("\"{key}\"")).count(), 1, "{key} once in {s}");
        }
        let flat: String = s.split_whitespace().collect();
        let per_path = Counter::PER_PATH.map(|c| (100 + c as usize).to_string()).join(",");
        assert!(flat.contains(&format!("\"per_path_pkts\":[{per_path}]")), "{s}");
        assert!(s.contains("\"us_per_event\": 25000.0"), "{s}");
        assert!(s.contains("\"allocs_per_event\": 12.3"), "{s}");
        assert!(
            s.contains(&format!("\"schema_version\": {}", crate::json::SCHEMA_VERSION)),
            "report must stamp the current schema: {s}"
        );
    }

    #[test]
    fn fault_plan_embeds_verbatim_and_replays() {
        let plan = netsim::FaultPlan {
            flaps: vec![netsim::FlapRule {
                scope: netsim::Scope::on_iface(0),
                from_ns: 50_000_000,
                until_ns: 10_000_000_000,
            }],
            ..Default::default()
        };
        let text = plan.to_json();
        let report = BenchReport::new("flap", Scale::Quick, 1, 0.1, Some(text.clone()), vec![]);
        let s = report.to_json().render();
        // Embedded verbatim — what the file carries is exactly what
        // `FaultPlan::from_json` replays.
        assert!(s.contains(&format!("\"fault_plan\": {text}")), "not verbatim: {s}");
        assert_eq!(netsim::FaultPlan::from_json(&text).unwrap(), plan);
    }

    #[test]
    fn save_retires_old_schema_files_to_bak() {
        let dir = std::env::temp_dir()
            .join(format!("bench-schema-test-{}-{:?}", std::process::id(), std::thread::current().id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = BenchReport::new("figtest", Scale::Paper, 1, 0.1, None, vec![]);
        let path = dir.join("BENCH_figtest.json");
        let bak = dir.join("BENCH_figtest.json.bak");

        // Seed a pre-versioned (v1) file, as PR 3 and earlier wrote.
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, "{\n  \"fig\": \"figtest\"\n}\n").unwrap();
        report.save_to(&dir);
        assert!(bak.exists(), "v1 file must be retired, not overwritten");
        let new = std::fs::read_to_string(&path).unwrap();
        assert_eq!(crate::json::sniff_schema_version(&new), crate::json::SCHEMA_VERSION);

        // Same-schema overwrite keeps the old backup untouched.
        std::fs::write(&bak, "sentinel").unwrap();
        report.save_to(&dir);
        assert_eq!(std::fs::read_to_string(&bak).unwrap(), "sentinel");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
