//! Shared experiment-harness machinery: each figure/table of the paper has
//! a row type, a generator, and a text renderer. The `fig*`/`table*`
//! binaries print the full paper-scale results; the Criterion benches in
//! `benches/` run scaled-down versions of the same generators.
//!
//! Every figure cell — one (message size × loss rate × transport × seed)
//! combination — is an independent deterministic simulation, so the
//! `*_metered` generators fan cells across a [`runner`] worker pool and
//! record per-cell self-metering into `results/BENCH_<fig>.json`
//! (schema in EXPERIMENTS.md). Aggregation happens in cell order, so the
//! figures are bit-identical to a sequential run.
//!
//! The `probe` binary (`probe <farm|nas|era|cmt|interleave>`) is a
//! diagnostic tool: one workload, one transport, full transport counters —
//! used with the env-gated traces documented in the `transport` crate.

use mpi_core::{ContextMap, MpiCfg, RaceFix, TransportSel};
use workloads::farm::{self, FarmCfg};
use workloads::nas::{self, Class, Kernel};
use workloads::pingpong::{self, PingPongCfg};
use workloads::scale::{run_scale, ScaleCfg, ScaleResult};

pub mod alloc_meter;
pub mod json;
pub mod live;
pub mod runner;

use json::ToJson;
use runner::{BenchReport, Cell, Counter, Measured};

/// How much of the paper-scale workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full paper-scale runs (the `fig*` binaries' default).
    Paper,
    /// Reduced iteration counts for CI / Criterion.
    Quick,
}

impl Scale {
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Paper
        }
    }

    /// Result-file stem for this scale: quick runs get a `_quick` suffix so
    /// they never overwrite the committed paper-scale `results/*.json`.
    pub fn tag(self, name: &str) -> String {
        match self {
            Scale::Paper => name.to_string(),
            Scale::Quick => format!("{name}_quick"),
        }
    }
}

/// The seed base every figure derives its per-run seeds from.
pub const SEED_BASE: u64 = 0xBA5E;

/// Averages `runs` deterministic runs over distinct seeds (the paper runs
/// each farm configuration six times and reports the mean).
pub fn mean_over_seeds(runs: u64, mut f: impl FnMut(u64) -> f64) -> f64 {
    let total: f64 = (0..runs).map(|s| f(SEED_BASE + s)).sum();
    total / runs as f64
}

/// Mean of `f` over a run of cell results (seeds of one configuration).
fn mean<R>(xs: &[R], f: impl Fn(&R) -> f64) -> f64 {
    xs.iter().map(f).sum::<f64>() / xs.len().max(1) as f64
}

/// The runtime and event-queue counters of an `mpirun`-based workload
/// result (ping-pong, NAS, farm), as [`Measured::with`] input.
macro_rules! mpi_counters {
    ($r:expr) => {
        [
            (Counter::Handoffs, $r.handoffs),
            (Counter::WakesCoalesced, $r.wakes_coalesced),
            (Counter::Bursts, $r.bursts_total),
            (Counter::PktsFused, $r.pkts_fused),
            (Counter::WheelHits, $r.wheel_hits),
            (Counter::HeapFalls, $r.heap_falls),
        ]
    };
}

// ---------------------------------------------------------------------------
// E1 — Figure 8: ping-pong throughput vs message size, no loss
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Fig8Row {
    pub size: usize,
    pub tcp_tput: f64,
    pub sctp_tput: f64,
    /// SCTP throughput normalized to TCP (the paper's y-axis).
    pub normalized: f64,
}

impl_to_json!(Fig8Row { size, tcp_tput, sctp_tput, normalized });

/// The paper sweeps message sizes 1 B .. 128 KB.
pub fn fig8_sizes(scale: Scale) -> Vec<usize> {
    let full = vec![
        1, 16, 64, 256, 1024, 4096, 8192, 16384, 22528, 32768, 49152, 65535, 98302, 131069,
    ];
    match scale {
        Scale::Paper => full,
        Scale::Quick => vec![64, 4096, 22528, 131069],
    }
}

/// The [`Measured`] of one ping-pong/stream result, with its multipath
/// counters: path count from the config (0 when the run wasn't SCTP — TCP
/// has no path notion).
fn pingpong_measured(cfg: &MpiCfg, r: &pingpong::PingPongResult) -> Measured {
    let paths = if matches!(cfg.transport, TransportSel::Sctp { .. }) {
        cfg.sctp.num_paths as u64
    } else {
        0
    };
    Measured::new(r.throughput, r.secs, r.events)
        .with(mpi_counters!(r))
        .with(Counter::PER_PATH.into_iter().zip(r.sctp.per_path_pkts))
        .with([
            (Counter::Paths, paths),
            (Counter::SpuriousFrtx, r.sctp.spurious_frtx),
            (Counter::RescueRtx, r.sctp.rescue_rtx),
        ])
}

fn pingpong_cell(
    label: String,
    cfg: MpiCfg,
    pp: PingPongCfg,
) -> Cell<'static, pingpong::PingPongResult> {
    Cell::new(label, move || {
        let r = pingpong::run(cfg.clone(), pp);
        (r, pingpong_measured(&cfg, &r))
    })
}

pub fn fig8_metered(scale: Scale) -> (Vec<Fig8Row>, BenchReport) {
    let iters = match scale {
        Scale::Paper => 200,
        Scale::Quick => 20,
    };
    let sizes = fig8_sizes(scale);
    let mut cells = Vec::new();
    for &size in &sizes {
        let pp = PingPongCfg { size, iters };
        cells.push(pingpong_cell(format!("size={size} rpi=tcp"), MpiCfg::tcp(2, 0.0), pp));
        cells.push(pingpong_cell(format!("size={size} rpi=sctp"), MpiCfg::sctp(2, 0.0), pp));
    }
    let (results, report) = runner::run_cells("fig8", scale, None, cells);
    let rows = sizes
        .iter()
        .zip(results.chunks_exact(2))
        .map(|(&size, pair)| {
            let (tcp, sctp) = (pair[0].throughput, pair[1].throughput);
            Fig8Row { size, tcp_tput: tcp, sctp_tput: sctp, normalized: sctp / tcp }
        })
        .collect();
    (rows, report)
}

/// The message size at which SCTP first matches TCP (paper: ≈ 22 KB).
pub fn fig8_crossover(rows: &[Fig8Row]) -> Option<usize> {
    rows.iter().find(|r| r.normalized >= 1.0).map(|r| r.size)
}

// ---------------------------------------------------------------------------
// E2 — Table 1: ping-pong under loss
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Table1Row {
    pub size: usize,
    pub loss: f64,
    pub sctp_tput: f64,
    pub tcp_tput: f64,
    /// TCP without scoreboard recovery (the paper-era stack).
    pub tcp_era_tput: f64,
    pub ratio: f64,
    pub ratio_era: f64,
}

impl_to_json!(Table1Row { size, loss, sctp_tput, tcp_tput, tcp_era_tput, ratio, ratio_era });

pub fn table1_metered(scale: Scale) -> (Vec<Table1Row>, BenchReport) {
    let iters = match scale {
        Scale::Paper => 120,
        Scale::Quick => 8,
    };
    let runs = match scale {
        Scale::Paper => 5, // the paper averages six runs; five keeps the
        // era-TCP cells (80+ simulated seconds each) tractable
        Scale::Quick => 1,
    };
    let mut cells = Vec::new();
    let mut keys = Vec::new();
    for &size in &[30 * 1024, 300 * 1024] {
        for &loss in &[0.01, 0.02] {
            keys.push((size, loss));
            let pp = PingPongCfg { size, iters };
            for (rpi, mk) in transports3() {
                for s in 0..runs {
                    let seed = SEED_BASE + s;
                    cells.push(pingpong_cell(
                        format!("size={size} loss={loss} rpi={rpi} seed={seed:#x}"),
                        mk(2, loss).with_seed(seed),
                        pp,
                    ));
                }
            }
        }
    }
    let (results, report) = runner::run_cells("table1", scale, None, cells);
    let rows = keys
        .iter()
        .zip(results.chunks_exact(3 * runs as usize))
        .map(|(&(size, loss), chunk)| {
            let (sctp, rest) = chunk.split_at(runs as usize);
            let (tcp, era) = rest.split_at(runs as usize);
            let tput = |r: &pingpong::PingPongResult| r.throughput;
            let (sctp, tcp, tcp_era) = (mean(sctp, tput), mean(tcp, tput), mean(era, tput));
            Table1Row {
                size,
                loss,
                sctp_tput: sctp,
                tcp_tput: tcp,
                tcp_era_tput: tcp_era,
                ratio: sctp / tcp,
                ratio_era: sctp / tcp_era,
            }
        })
        .collect();
    (rows, report)
}

/// The three transports the loss experiments compare, in output order.
fn transports3() -> [(&'static str, fn(u16, f64) -> MpiCfg); 3] {
    [("sctp", MpiCfg::sctp), ("tcp", MpiCfg::tcp), ("tcp-era", MpiCfg::tcp_era)]
}

// ---------------------------------------------------------------------------
// E3 — Figure 9: NAS kernels, class B (plus the other classes)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Fig9Row {
    pub kernel: &'static str,
    pub class: &'static str,
    pub sctp_mops: f64,
    pub tcp_mops: f64,
    pub ratio: f64,
}

impl_to_json!(Fig9Row { kernel, class, sctp_mops, tcp_mops, ratio });

pub fn fig9_metered(scale: Scale, class: Class) -> (Vec<Fig9Row>, BenchReport) {
    let class = match scale {
        Scale::Paper => class,
        Scale::Quick => Class::S,
    };
    let mut cells = Vec::new();
    for &k in Kernel::ALL.iter() {
        for (rpi, mk) in [("sctp", MpiCfg::sctp as fn(u16, f64) -> MpiCfg), ("tcp", MpiCfg::tcp)] {
            cells.push(Cell::new(format!("kernel={} rpi={rpi}", k.name()), move || {
                let r = nas::run(mk(8, 0.0), k, class);
                (r, Measured::new(r.mops_per_sec, r.secs, r.events).with(mpi_counters!(r)))
            }));
        }
    }
    let (results, report) = runner::run_cells("fig9", scale, None, cells);
    let rows = Kernel::ALL
        .iter()
        .zip(results.chunks_exact(2))
        .map(|(&k, pair)| {
            let (sctp, tcp) = (pair[0].mops_per_sec, pair[1].mops_per_sec);
            Fig9Row {
                kernel: k.name(),
                class: class.name(),
                sctp_mops: sctp,
                tcp_mops: tcp,
                ratio: sctp / tcp,
            }
        })
        .collect();
    (rows, report)
}

// ---------------------------------------------------------------------------
// E4/E5 — Figures 10 & 11: the Bulk Processor Farm
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct FarmRow {
    pub task_bytes: usize,
    pub fanout: u32,
    pub loss: f64,
    pub sctp_secs: f64,
    pub tcp_secs: f64,
    /// TCP without scoreboard recovery (the paper-era stack).
    pub tcp_era_secs: f64,
    pub ratio_tcp_over_sctp: f64,
    pub ratio_era: f64,
    /// Peak unexpected-queue length across all cells of this row — the
    /// matching layer must keep this bounded (independent of task count).
    pub unexpected_peak: u64,
}

impl_to_json!(FarmRow {
    task_bytes,
    fanout,
    loss,
    sctp_secs,
    tcp_secs,
    tcp_era_secs,
    ratio_tcp_over_sctp,
    ratio_era,
    unexpected_peak,
});

pub fn farm_cfg(scale: Scale, task_bytes: usize, fanout: u32) -> FarmCfg {
    match scale {
        // 2 000 of the paper's 10 000 tasks: run times scale ~linearly in
        // task count, so compare the paper's totals divided by 5; the
        // TCP/SCTP *ratios* are task-count invariant. (10 000 tasks of
        // era-TCP at 2 % loss would run for hours of wall time.)
        Scale::Paper => FarmCfg { num_tasks: 2_000, ..FarmCfg::paper(task_bytes, fanout) },
        Scale::Quick => FarmCfg::small(task_bytes, fanout),
    }
}

fn farm_cell(label: String, cfg: MpiCfg, farm: FarmCfg) -> Cell<'static, farm::FarmResult> {
    Cell::new(label, move || {
        let r = farm::run(cfg.clone(), farm);
        let m = Measured::new(r.secs, r.secs, r.events)
            .with(mpi_counters!(r))
            .with([(Counter::UnexpectedPeak, r.unexpected_peak as u64)]);
        (r, m)
    })
}

/// Mean simulated seconds over a run of farm cells.
fn mean_secs(xs: &[farm::FarmResult]) -> f64 {
    mean(xs, |r| r.secs)
}

pub fn farm_figure_metered(scale: Scale, fanout: u32) -> (Vec<FarmRow>, BenchReport) {
    let runs = match scale {
        Scale::Paper => 3,
        Scale::Quick => 1,
    };
    let fig = if fanout == 1 { "fig10" } else { "fig11" };
    let mut cells = Vec::new();
    let mut keys = Vec::new();
    for &task_bytes in &[30 * 1024, 300 * 1024] {
        for &loss in &[0.0, 0.01, 0.02] {
            keys.push((task_bytes, loss));
            let cfg = farm_cfg(scale, task_bytes, fanout);
            for (rpi, mk) in transports3() {
                for s in 0..runs {
                    let seed = SEED_BASE + s;
                    cells.push(farm_cell(
                        format!("task={task_bytes} loss={loss} rpi={rpi} seed={seed:#x}"),
                        mk(8, loss).with_seed(seed),
                        cfg,
                    ));
                }
            }
        }
    }
    let (results, report) = runner::run_cells(fig, scale, None, cells);
    let rows = keys
        .iter()
        .zip(results.chunks_exact(3 * runs as usize))
        .map(|(&(task_bytes, loss), chunk)| {
            let (sctp, rest) = chunk.split_at(runs as usize);
            let (tcp, era) = rest.split_at(runs as usize);
            let peak = chunk.iter().map(|r| r.unexpected_peak as u64).max().unwrap_or(0);
            let (sctp, tcp, tcp_era) = (mean_secs(sctp), mean_secs(tcp), mean_secs(era));
            FarmRow {
                task_bytes,
                fanout,
                loss,
                sctp_secs: sctp,
                tcp_secs: tcp,
                tcp_era_secs: tcp_era,
                ratio_tcp_over_sctp: tcp / sctp,
                ratio_era: tcp_era / sctp,
                unexpected_peak: peak,
            }
        })
        .collect();
    (rows, report)
}

// ---------------------------------------------------------------------------
// E6 — Figure 12: 10 streams vs 1 stream (HOL isolation)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Fig12Row {
    pub task_bytes: usize,
    pub loss: f64,
    pub streams10_secs: f64,
    pub stream1_secs: f64,
    pub ratio_1_over_10: f64,
}

impl_to_json!(Fig12Row { task_bytes, loss, streams10_secs, stream1_secs, ratio_1_over_10 });

pub fn fig12_metered(scale: Scale) -> (Vec<Fig12Row>, BenchReport) {
    let runs = match scale {
        Scale::Paper => 3,
        Scale::Quick => 1,
    };
    let fanout = 10;
    let mut cells = Vec::new();
    let mut keys = Vec::new();
    for &task_bytes in &[30 * 1024, 300 * 1024] {
        for &loss in &[0.0, 0.01, 0.02] {
            keys.push((task_bytes, loss));
            let cfg = farm_cfg(scale, task_bytes, fanout);
            for (label, mk) in [
                ("streams=10", MpiCfg::sctp as fn(u16, f64) -> MpiCfg),
                ("streams=1", MpiCfg::sctp_single_stream),
            ] {
                for s in 0..runs {
                    let seed = SEED_BASE + s;
                    cells.push(farm_cell(
                        format!("task={task_bytes} loss={loss} {label} seed={seed:#x}"),
                        mk(8, loss).with_seed(seed),
                        cfg,
                    ));
                }
            }
        }
    }
    let (results, report) = runner::run_cells("fig12", scale, None, cells);
    let rows = keys
        .iter()
        .zip(results.chunks_exact(2 * runs as usize))
        .map(|(&(task_bytes, loss), chunk)| {
            let (ten, one) = chunk.split_at(runs as usize);
            let (ten, one) = (mean_secs(ten), mean_secs(one));
            Fig12Row {
                task_bytes,
                loss,
                streams10_secs: ten,
                stream1_secs: one,
                ratio_1_over_10: one / ten,
            }
        })
        .collect();
    (rows, report)
}

// ---------------------------------------------------------------------------
// E-interleave — RFC 8260 I-DATA + stream schedulers (mixed-size farm) and
// RFC 3758 PR-SCTP (media deadline workload)
// ---------------------------------------------------------------------------

/// One cell of the mixed-message-size table: a (config × loss) point of the
/// fig12-style sweep, with the per-side HOL accounting that explains it.
#[derive(Debug, Clone)]
pub struct InterleaveRow {
    /// "nointl-fcfs" (pre-8260 multistreaming), `intl-<sched>` (I-DATA
    /// negotiated, named sender scheduler).
    pub config: String,
    pub loss: f64,
    pub secs: f64,
    /// Sender-side HOL blocks and total blocked time — the metric I-DATA
    /// plus a non-FIFO scheduler exists to reduce.
    pub snd_hol_blocks: u64,
    pub snd_hol_ms: f64,
    /// Receiver-side (classic Figure 12) HOL blocked time, for contrast.
    pub rcv_hol_ms: f64,
}

impl_to_json!(InterleaveRow { config, loss, secs, snd_hol_blocks, snd_hol_ms, rcv_hol_ms });

/// One cell of the PR-SCTP deadline sweep (media workload).
#[derive(Debug, Clone)]
pub struct DeadlineRow {
    /// Per-frame lifetime, ms (0 = fully reliable source).
    pub lifetime_ms: u64,
    pub loss: f64,
    pub frames_delivered: u32,
    /// Frames dropped at the source because the send buffer was full.
    pub frames_skipped: u32,
    pub msgs_abandoned: u64,
    pub fwd_tsn_out: u64,
    pub max_staleness_ms: f64,
    pub mean_staleness_ms: f64,
    pub secs: f64,
}

impl_to_json!(DeadlineRow {
    lifetime_ms,
    loss,
    frames_delivered,
    frames_skipped,
    msgs_abandoned,
    fwd_tsn_out,
    max_staleness_ms,
    mean_staleness_ms,
    secs,
});

/// Both E-interleave tables as one harness run (`BENCH_interleave.json`).
#[derive(Debug, Clone)]
pub struct InterleaveResults {
    /// Mixed-size farm: scheduler comparison across loss rates.
    pub mixed: Vec<InterleaveRow>,
    /// Media deadline workload: PR-SCTP abandonment-rate sweep.
    pub deadline: Vec<DeadlineRow>,
}

use transport::sctp::SchedKind;
use workloads::media::{self, MediaCfg};
use workloads::mixed::{self, MixedCfg};

/// The sender-scheduler configurations the mixed table compares, in output
/// order. `None` = interleaving off (the pre-8260 baseline).
fn interleave_configs() -> [(&'static str, Option<SchedKind>); 5] {
    [
        ("nointl-fcfs", None),
        ("intl-fcfs", Some(SchedKind::Fcfs)),
        ("intl-rr", Some(SchedKind::RoundRobin)),
        ("intl-wfq", Some(SchedKind::WeightedFair)),
        ("intl-prio", Some(SchedKind::StrictPriority)),
    ]
}

/// Slack allowed over the configured lifetime before a delivered frame
/// counts as "unboundedly stale": abandonment happens lazily when a
/// (re)transmission comes due, so a frame stuck behind a loss the fast-rtx
/// machinery misses waits out one full T3 round (initial RTO 1 s) before
/// the FORWARD-TSN opens the receiver's ordered-delivery gate.
pub const STALENESS_SLACK: simcore::Dur = simcore::Dur::from_millis(1_500);

/// Runs the mixed-size farm grid and the deadline sweep, asserting the
/// acceptance shape in-process: I-DATA plus a non-FIFO scheduler strictly
/// reduces sender-side HOL blocked time vs non-interleaved multistreaming,
/// and finite lifetimes bound delivered-frame staleness.
pub fn interleave_metered(scale: Scale) -> (InterleaveResults, BenchReport) {
    use workloads::mixed::TracedMixedResult;

    /// What one cell of the run returns: the mixed cells come first.
    enum Run {
        Mixed(TracedMixedResult),
        Media(media::MediaResult),
    }

    let tasks = match scale {
        Scale::Paper => 2_000,
        Scale::Quick => 200,
    };
    let frames = match scale {
        Scale::Paper => 2_000,
        Scale::Quick => 300,
    };
    let losses = [0.0, 0.01, 0.02];
    let mixed_cfg = MixedCfg::default_mix(tasks);
    // Seeds per mixed cell. One RTO-recovery window (initial RTO 1 s)
    // parks the whole association — a stall no scheduler can route
    // around, charged to whichever streams were waiting — so a single
    // seed's HOL total is noisy at paper scale; like the CMT grid, paper
    // scale averages 3 seeds per (config × loss) point and the acceptance
    // assertions compare those means.
    let seed_offsets: &[u64] = match scale {
        Scale::Paper => &[0, 1, 2],
        Scale::Quick => &[0],
    };
    // (lifetime ms, 0 = reliable) × one loss rate for the deadline sweep.
    let deadline_loss = 0.02;
    let lifetimes_ms: [u64; 4] = [0, 200, 50, 20];

    let mut specs: Vec<(&'static str, Option<SchedKind>, f64, u64)> = Vec::new();
    for &loss in &losses {
        for (name, sched) in interleave_configs() {
            for &s in seed_offsets {
                specs.push((name, sched, loss, s));
            }
        }
    }

    let mut cells: Vec<Cell<'_, Run>> = Vec::new();
    for &(name, sched, loss, s) in &specs {
        cells.push(Cell::new(format!("mixed config={name} loss={loss} seed={s}"), move || {
            let mut cfg = MpiCfg::sctp(8, loss).with_seed(SEED_BASE + s);
            if let Some(k) = sched {
                cfg = cfg.with_interleave(true).with_scheduler(k, &[]);
            }
            let r = mixed::run_traced(cfg, mixed_cfg);
            assert_eq!(r.result.tasks_done, mixed_cfg.num_tasks, "tasks lost in {name}");
            let mut m = Measured::new(r.result.secs, r.result.secs, r.result.events).with([
                (Counter::MsgsAbandoned, r.result.msgs_abandoned),
                (Counter::FwdTsn, r.result.fwd_tsn_out),
                (Counter::SndHolBlocks, r.snd_hol_blocks),
                (Counter::SndHolNs, r.snd_hol_ns),
            ]);
            m.scheduler = sched.unwrap_or(SchedKind::Fcfs).name();
            (Run::Mixed(r), m)
        }));
    }
    for &ms in &lifetimes_ms {
        cells.push(Cell::new(
            format!("media lifetime={ms}ms loss={deadline_loss}"),
            move || {
                let lifetime = (ms > 0).then(|| simcore::Dur::from_millis(ms));
                let r = media::run(MediaCfg::new(frames, lifetime, deadline_loss));
                let m = Measured::new(r.frames_delivered as f64, r.secs, r.events).with([
                    (Counter::MsgsAbandoned, r.msgs_abandoned),
                    (Counter::FwdTsn, r.fwd_tsn_out),
                ]);
                (Run::Media(r), m)
            },
        ));
    }

    let (results, report) = runner::run_cells("interleave", scale, None, cells);
    let (mixed_results, media_results) = results.split_at(specs.len());

    // One row per (config × loss), averaged over the seeds that ran it.
    let n_seeds = seed_offsets.len() as f64;
    let mut mixed_rows: Vec<InterleaveRow> = Vec::new();
    for (&(name, _, loss, _), r) in specs.iter().zip(mixed_results) {
        let Run::Mixed(r) = r else { unreachable!("mixed cells come first") };
        if let Some(row) =
            mixed_rows.iter_mut().find(|row| row.config == name && row.loss == loss)
        {
            row.secs += r.result.secs / n_seeds;
            row.snd_hol_blocks += r.snd_hol_blocks;
            row.snd_hol_ms += r.snd_hol_ns as f64 / 1e6 / n_seeds;
            row.rcv_hol_ms += r.rcv_hol_ns as f64 / 1e6 / n_seeds;
        } else {
            mixed_rows.push(InterleaveRow {
                config: name.to_string(),
                loss,
                secs: r.result.secs / n_seeds,
                snd_hol_blocks: r.snd_hol_blocks,
                snd_hol_ms: r.snd_hol_ns as f64 / 1e6 / n_seeds,
                rcv_hol_ms: r.rcv_hol_ns as f64 / 1e6 / n_seeds,
            });
        }
    }
    for row in &mut mixed_rows {
        row.snd_hol_blocks = (row.snd_hol_blocks as f64 / n_seeds).round() as u64;
    }
    let deadline_rows: Vec<DeadlineRow> = lifetimes_ms
        .iter()
        .zip(media_results)
        .map(|(&ms, r)| {
            let Run::Media(r) = r else { unreachable!("media cells come last") };
            DeadlineRow {
                lifetime_ms: ms,
                loss: deadline_loss,
                frames_delivered: r.frames_delivered,
                frames_skipped: r.frames_skipped,
                msgs_abandoned: r.msgs_abandoned,
                fwd_tsn_out: r.fwd_tsn_out,
                max_staleness_ms: r.max_staleness_ns as f64 / 1e6,
                mean_staleness_ms: r.mean_staleness_ns as f64 / 1e6,
                secs: r.secs,
            }
        })
        .collect();

    // Acceptance shape. (1) Interleaving plus a non-FIFO scheduler must
    // strictly reduce sender-side blocked time against the pre-8260
    // baseline, at every loss rate.
    let get = |config: &str, loss: f64| {
        mixed_rows
            .iter()
            .find(|r| r.config == config && r.loss == loss)
            .expect("mixed cell present")
    };
    for &loss in &losses {
        let base = get("nointl-fcfs", loss);
        assert!(
            base.snd_hol_blocks > 0,
            "mixed sizes must produce sender-side HOL at loss={loss}: {base:?}"
        );
        for cfg in ["intl-rr", "intl-wfq"] {
            let intl = get(cfg, loss);
            assert!(
                intl.snd_hol_ms < base.snd_hol_ms,
                "{cfg} must strictly reduce sender-side HOL time at loss={loss}: \
                 {:.2} vs {:.2} ms",
                intl.snd_hol_ms,
                base.snd_hol_ms
            );
        }
    }
    // (2) The deadline sweep: tighter lifetimes abandon more and FORWARD-TSN
    // rides along; delivered frames stay within lifetime + slack of fresh.
    let reliable = &deadline_rows[0];
    for row in &deadline_rows[1..] {
        assert!(
            row.msgs_abandoned == 0 || row.fwd_tsn_out > 0,
            "abandonment must emit FORWARD-TSN: {row:?}"
        );
        let bound_ms = row.lifetime_ms as f64 + STALENESS_SLACK.as_nanos() as f64 / 1e6;
        assert!(
            row.max_staleness_ms <= bound_ms,
            "staleness must stay bounded by lifetime+slack: {row:?} (bound {bound_ms} ms)"
        );
    }
    let tightest = deadline_rows.last().expect("sweep non-empty");
    assert!(
        tightest.msgs_abandoned > 0,
        "the tightest lifetime under loss must abandon frames: {tightest:?}"
    );
    assert!(
        tightest.max_staleness_ms < reliable.max_staleness_ms,
        "deadlines must beat reliable on worst staleness: {:.2} vs {:.2} ms",
        tightest.max_staleness_ms,
        reliable.max_staleness_ms
    );

    (InterleaveResults { mixed: mixed_rows, deadline: deadline_rows }, report)
}

// ---------------------------------------------------------------------------
// E-faults — the farm under *bursty* loss (Gilbert–Elliott), matched to the
// Bernoulli figures' average rates, and the scripted link-flap timeline
// ---------------------------------------------------------------------------

/// One row of the bursty-loss farm figures (fig10burst / fig11burst): same
/// shape as [`FarmRow`] but the loss column is the Gilbert–Elliott chain's
/// long-run average, not a Bernoulli probability.
#[derive(Debug, Clone)]
pub struct FarmBurstRow {
    pub task_bytes: usize,
    pub fanout: u32,
    /// Long-run average loss rate of the chain (matched to the Bernoulli
    /// figures' 1 % / 2 % columns).
    pub avg_loss: f64,
    pub sctp_secs: f64,
    pub tcp_secs: f64,
    pub tcp_era_secs: f64,
    pub ratio_tcp_over_sctp: f64,
    pub ratio_era: f64,
}

impl_to_json!(FarmBurstRow {
    task_bytes,
    fanout,
    avg_loss,
    sctp_secs,
    tcp_secs,
    tcp_era_secs,
    ratio_tcp_over_sctp,
    ratio_era,
});

/// Mean loss-burst length used by the bursty-loss figures (packets). With
/// `loss_bad` = 0.25 a visit to the bad state clips a few packets out of a
/// train rather than sprinkling independent singles.
pub const BURST_MEAN_PKTS: f64 = 8.0;

/// Conditional loss rate inside the bad state for the bursty-loss figures.
pub const BURST_LOSS_BAD: f64 = 0.25;

/// The Gilbert–Elliott plan whose long-run average matches `avg_loss`.
pub fn burst_plan(avg_loss: f64) -> netsim::FaultPlan {
    netsim::FaultPlan {
        burst_loss: vec![netsim::BurstLossRule::matched(
            netsim::Scope::ALL,
            avg_loss,
            BURST_LOSS_BAD,
            BURST_MEAN_PKTS,
        )],
        ..Default::default()
    }
}

/// Figures 10/11 rerun under bursty loss at matched average rates: the
/// Bernoulli pipe is off (`loss = 0`) and a Gilbert–Elliott chain supplies
/// all the damage. Burstiness concentrates loss into fewer, deeper stalls —
/// how SCTP's SACK recovery and TCP's RTO chains each cope is the point.
pub fn farm_burst_figure_metered(scale: Scale, fanout: u32) -> (Vec<FarmBurstRow>, BenchReport) {
    let runs = match scale {
        Scale::Paper => 3,
        Scale::Quick => 1,
    };
    let fig = if fanout == 1 { "fig10burst" } else { "fig11burst" };
    let rates = [0.01, 0.02];
    let mut cells = Vec::new();
    let mut keys = Vec::new();
    for &task_bytes in &[30 * 1024, 300 * 1024] {
        for &avg in &rates {
            keys.push((task_bytes, avg));
            let cfg = farm_cfg(scale, task_bytes, fanout);
            for (rpi, mk) in transports3() {
                for s in 0..runs {
                    let seed = SEED_BASE + s;
                    let mut m = mk(8, 0.0).with_seed(seed);
                    m.fault_plan = burst_plan(avg);
                    cells.push(farm_cell(
                        format!("task={task_bytes} ge_avg={avg} rpi={rpi} seed={seed:#x}"),
                        m,
                        cfg,
                    ));
                }
            }
        }
    }
    // Both rate variants ride in the report as a JSON array, in `rates`
    // order — each element replays through `FaultPlan::from_json`.
    let plans = rates.map(|r| burst_plan(r).to_json()).join(",");
    let (results, report) = runner::run_cells(fig, scale, Some(format!("[{plans}]")), cells);
    let rows = keys
        .iter()
        .zip(results.chunks_exact(3 * runs as usize))
        .map(|(&(task_bytes, avg_loss), chunk)| {
            let (sctp, rest) = chunk.split_at(runs as usize);
            let (tcp, era) = rest.split_at(runs as usize);
            let (sctp, tcp, tcp_era) = (mean_secs(sctp), mean_secs(tcp), mean_secs(era));
            FarmBurstRow {
                task_bytes,
                fanout,
                avg_loss,
                sctp_secs: sctp,
                tcp_secs: tcp,
                tcp_era_secs: tcp_era,
                ratio_tcp_over_sctp: tcp / sctp,
                ratio_era: tcp_era / sctp,
            }
        })
        .collect();
    (rows, report)
}

/// One cell of the failover timeline.
#[derive(Debug, Clone)]
pub struct FlapRow {
    /// Transport / path configuration ("sctp-1path", "sctp-3path", "tcp").
    pub config: String,
    /// Did this cell run under the flap plan?
    pub flap: bool,
    /// Heartbeat interval, ms.
    pub hb_ms: u64,
    /// `path_max_retrans` for the run.
    pub pmr: u32,
    pub secs: f64,
    pub failovers: u64,
    /// First failover minus flap start, ms (0 when no failover happened) —
    /// the fault-detection latency.
    pub detect_ms: f64,
}

impl_to_json!(FlapRow { config, flap, hb_ms, pmr, secs, failovers, detect_ms });

/// Flap window start: late enough that connection setup is done.
pub const FLAP_FROM_NS: u64 = 50_000_000; // 50 ms
/// Flap window end: the primary network is down for just under 10 s.
pub const FLAP_UNTIL_NS: u64 = 10_000_000_000;

/// The failover-timeline plan: every host's interface 0 (the primary path)
/// goes down for the window.
pub fn flap_plan() -> netsim::FaultPlan {
    netsim::FaultPlan {
        flaps: vec![netsim::FlapRule {
            scope: netsim::Scope::on_iface(0),
            from_ns: FLAP_FROM_NS,
            until_ns: FLAP_UNTIL_NS,
        }],
        ..Default::default()
    }
}

/// The failover timeline (§3.5.1 under a *scripted* flap): the primary
/// network drops out for ~10 s mid-job. Multihomed SCTP detects the dead
/// path (`path_max_retrans` consecutive T3 expiries) and switches to an
/// alternate; singlehomed SCTP and TCP stall until the link returns. A
/// heartbeat-interval × path-max-retrans sweep shows the detection-latency
/// trade-off. Asserts the acceptance shape: the 3-path cell fails over at
/// least once and beats the 1-path cell, which cannot finish before the
/// flap ends.
pub fn flap_timeline_metered(scale: Scale) -> (Vec<FlapRow>, BenchReport) {
    let base_hb_ms: u64 = 500;
    let base_pmr: u32 = 2;
    let farm = farm_cfg(scale, 30 * 1024, 10);
    let mk_sctp = |paths: u8, hb_ms: u64, pmr: u32, flap: bool| {
        let mut m = MpiCfg::sctp(8, 0.0).with_seed(SEED_BASE);
        m.sctp.num_paths = paths;
        m.sctp.heartbeat_interval = Some(simcore::Dur::from_millis(hb_ms));
        m.sctp.path_max_retrans = pmr;
        if flap {
            m.fault_plan = flap_plan();
        }
        m
    };
    // (config, hb, pmr, flap, MpiCfg) — base cells first, then the sweep.
    let mut specs: Vec<(String, u64, u32, bool, MpiCfg)> = Vec::new();
    for flap in [false, true] {
        specs.push(("sctp-1path".into(), base_hb_ms, base_pmr, flap, mk_sctp(1, base_hb_ms, base_pmr, flap)));
        specs.push(("sctp-3path".into(), base_hb_ms, base_pmr, flap, mk_sctp(3, base_hb_ms, base_pmr, flap)));
        let mut tcp = MpiCfg::tcp(8, 0.0).with_seed(SEED_BASE);
        if flap {
            tcp.fault_plan = flap_plan();
        }
        specs.push(("tcp".into(), base_hb_ms, base_pmr, flap, tcp));
    }
    for &hb_ms in &[250u64, 1000] {
        specs.push(("sctp-3path".into(), hb_ms, base_pmr, true, mk_sctp(3, hb_ms, base_pmr, true)));
    }
    for &pmr in &[1u32, 4] {
        specs.push(("sctp-3path".into(), base_hb_ms, pmr, true, mk_sctp(3, base_hb_ms, pmr, true)));
    }

    let cells: Vec<Cell<'_, _>> = specs
        .iter()
        .map(|(config, hb_ms, pmr, flap, m)| {
            let (m, farm) = (m.clone(), farm);
            Cell::new(format!("config={config} hb={hb_ms}ms pmr={pmr} flap={flap}"), move || {
                let r = farm::run_with_plan(m.clone(), farm);
                assert_eq!(r.tasks_done, farm.num_tasks, "tasks lost in the flap");
                (r, Measured::new(r.secs, r.secs, r.events))
            })
        })
        .collect();
    let (results, report) = runner::run_cells("flap", scale, Some(flap_plan().to_json()), cells);
    let rows: Vec<FlapRow> = specs
        .iter()
        .zip(&results)
        .map(|((config, hb_ms, pmr, flap, _), r)| {
            let detect_ms = if r.first_failover_ns == 0 {
                0.0
            } else {
                (r.first_failover_ns.saturating_sub(FLAP_FROM_NS)) as f64 / 1e6
            };
            FlapRow {
                config: config.clone(),
                flap: *flap,
                hb_ms: *hb_ms,
                pmr: *pmr,
                secs: r.secs,
                failovers: r.failovers,
                detect_ms,
            }
        })
        .collect();

    // Acceptance shape of the base cells.
    let find = |config: &str, flap: bool| {
        rows.iter()
            .find(|r| r.config == config && r.flap == flap && r.hb_ms == base_hb_ms && r.pmr == base_pmr)
            .expect("base cell present")
    };
    let one = find("sctp-1path", true);
    let three = find("sctp-3path", true);
    assert!(three.failovers >= 1, "3-path run must fail over: {three:?}");
    assert!(
        three.secs < one.secs,
        "failover must beat stalling through the flap: {three:?} vs {one:?}"
    );
    assert!(
        one.secs >= FLAP_UNTIL_NS as f64 / 1e9,
        "a singlehomed run cannot finish while its only path is down: {one:?}"
    );
    (rows, report)
}

// ---------------------------------------------------------------------------
// A5 — Concurrent Multipath Transfer (ROADMAP item 4): stripe one
// association's data across all three of the testbed's networks
// ---------------------------------------------------------------------------

/// One cell of the CMT figure: a (workload × path/CMT config × loss) point
/// with the transport counters that explain it.
#[derive(Debug, Clone)]
pub struct CmtRow {
    /// `"stream"` (one-way bulk, the paper-style CMT metric) or
    /// `"pingpong"` (strict alternation — the latency-bound view).
    pub workload: &'static str,
    pub paths: u8,
    pub cmt: bool,
    pub loss: f64,
    pub mb_per_s: f64,
    /// Packets per path — the stripe balance (SACKs ride the primary).
    pub per_path_pkts: Vec<u64>,
    pub timeouts: u64,
    pub fast_rtx: u64,
    /// Tail losses recovered by the ~2·SRTT rescue probe instead of RTO.
    pub rescue_rtx: u64,
    /// Fast retransmits a later SACK proved unnecessary — SFR keeps this ~0.
    pub spurious_frtx: u64,
}

impl_to_json!(CmtRow {
    workload,
    paths,
    cmt,
    loss,
    mb_per_s,
    per_path_pkts,
    timeouts,
    fast_rtx,
    rescue_rtx,
    spurious_frtx,
});

/// One cell of the send-buffer sweep: 3-path CMT bulk stream at 0 % loss.
#[derive(Debug, Clone)]
pub struct CmtBufRow {
    pub sndbuf_kb: u64,
    pub mb_per_s: f64,
}

impl_to_json!(CmtBufRow { sndbuf_kb, mb_per_s });

/// One cell of the fault-composition table: the bulk stream under
/// [`cmt_fault_plan`] with CMT on or off.
#[derive(Debug, Clone)]
pub struct CmtFaultRow {
    pub cmt: bool,
    pub secs: f64,
    pub mb_per_s: f64,
    pub failovers: u64,
    pub rescue_rtx: u64,
}

impl_to_json!(CmtFaultRow { cmt, secs, mb_per_s, failovers, rescue_rtx });

/// The three path configurations every CMT table compares, in output order.
const CMT_CONFIGS: [(u8, bool); 3] = [(1, false), (3, false), (3, true)];

/// Bulk-stream message size: just under the 64 KB eager threshold, so the
/// MPI layer hands messages straight to the transport and successive sends
/// pipeline. Rendezvous handshakes serialize message starts and cap the
/// 3-path aggregate near 2.5× no matter the buffer size.
pub const CMT_STREAM_MSG: usize = 64 * 1024 - 64;

/// Socket-buffer size for the CMT grid cells: the paper testbed's 220 KB.
/// The buffer sweep in [`cmt_metered`] measures the sensitivity and shows
/// the stripe is *not* window-limited from here up — in-flight data is
/// bounded by the 3-path BDP (~tens of KB), and oversizing the send buffer
/// only deepens the bottleneck queues until they tail-drop.
pub const CMT_BUFS: u64 = 220 * 1024;

/// Acceptance floor for 3-path CMT aggregation over one path at 0 % loss.
pub const CMT_AGG_MIN: f64 = 2.7;

/// The fault-composition plan for the CMT flap cell: Gilbert–Elliott
/// bursty loss at a 1 % long-run average on every link, plus the primary
/// network (interface 0) flapping down for 20–80 ms — early enough to
/// strand in-flight chunks on path 0 mid-stream.
pub const CMT_FLAP_FROM_NS: u64 = 20_000_000;
pub const CMT_FLAP_UNTIL_NS: u64 = 80_000_000;

pub fn cmt_fault_plan() -> netsim::FaultPlan {
    netsim::FaultPlan {
        burst_loss: vec![netsim::BurstLossRule::matched(
            netsim::Scope::ALL,
            0.01,
            BURST_LOSS_BAD,
            BURST_MEAN_PKTS,
        )],
        flaps: vec![netsim::FlapRule {
            scope: netsim::Scope::on_iface(0),
            from_ns: CMT_FLAP_FROM_NS,
            until_ns: CMT_FLAP_UNTIL_NS,
        }],
        ..Default::default()
    }
}

fn cmt_cfg(paths: u8, cmt: bool, loss: f64, seed: u64) -> MpiCfg {
    let mut m = MpiCfg::sctp(2, loss).with_seed(seed).with_sctp_bufs(CMT_BUFS, CMT_BUFS).with_cmt(cmt);
    m.sctp.num_paths = paths;
    m
}

/// All four CMT tables as one harness run (one `BENCH_cmt.json`).
#[derive(Debug, Clone)]
pub struct CmtResults {
    /// Bulk stream, loss sweep × path configs — the headline table.
    pub stream: Vec<CmtRow>,
    /// Strict ping-pong, the latency-bound view of the same configs.
    pub pingpong: Vec<CmtRow>,
    /// Send-buffer sweep (3-path CMT stream at 0 % loss).
    pub bufs: Vec<CmtBufRow>,
    /// Fault composition: bursty loss + a primary-path flap.
    pub fault: Vec<CmtFaultRow>,
}

/// Runs the CMT grids and asserts the acceptance shape on the stream
/// table: ≥ [`CMT_AGG_MIN`]× aggregation at 0 % loss, no inversion against
/// single-path at any loss rate, and SFR keeping spurious marks ~0.
pub fn cmt_metered(scale: Scale) -> (CmtResults, BenchReport) {
    use workloads::pingpong::{PingPongResult, StreamCfg};

    // The stream cells need enough messages that one fast-recovery cycle
    // doesn't dominate the transfer: at 256 messages a lucky single-path
    // run can beat a striped run that absorbed one extra loss burst.
    let (count, iters, runs): (u32, u32, usize) = match scale {
        Scale::Paper => (4096, 200, 3),
        Scale::Quick => (1024, 40, 1),
    };
    let stream_losses = [0.0, 0.005, 0.01, 0.02];
    let pp_losses = [0.0, 0.01];
    let st = StreamCfg { size: CMT_STREAM_MSG, count };
    let pp = PingPongCfg { size: 220 * 1024 - 64, iters };
    let bufs_kb: [u64; 3] = [220, 512, 1024];

    let mut specs: Vec<(&'static str, u8, bool, f64)> = Vec::new();
    for &loss in &stream_losses {
        for (paths, cmt) in CMT_CONFIGS {
            specs.push(("stream", paths, cmt, loss));
        }
    }
    for &loss in &pp_losses {
        for (paths, cmt) in CMT_CONFIGS {
            specs.push(("pingpong", paths, cmt, loss));
        }
    }

    // Cells in table order.
    let mut cells: Vec<Cell<'_, PingPongResult>> = Vec::new();
    let cell = move |label: String, cfg: MpiCfg, workload: &'static str| {
        Cell::new(label, move || {
            let r = if workload == "stream" {
                pingpong::run_stream(cfg.clone(), st)
            } else {
                pingpong::run(cfg.clone(), pp)
            };
            (r, pingpong_measured(&cfg, &r))
        })
    };
    for &(workload, paths, cmt, loss) in &specs {
        for s in 0..runs {
            let seed = SEED_BASE + s as u64;
            cells.push(cell(
                format!("{workload} paths={paths} cmt={cmt} loss={loss} seed={seed:#x}"),
                cmt_cfg(paths, cmt, loss, seed),
                workload,
            ));
        }
    }
    for &kb in &bufs_kb {
        cells.push(cell(
            format!("bufsweep stream paths=3 cmt=true loss=0 sndbuf={kb}K"),
            cmt_cfg(3, true, 0.0, SEED_BASE).with_sctp_bufs(kb * 1024, kb * 1024),
            "stream",
        ));
    }
    for cmt in [false, true] {
        let mut cfg = cmt_cfg(3, cmt, 0.0, SEED_BASE);
        cfg.fault_plan = cmt_fault_plan();
        cells.push(cell(format!("fault flap+ge stream paths=3 cmt={cmt}"), cfg, "stream"));
    }

    let plan = Some(cmt_fault_plan().to_json());
    let (results, report) = runner::run_cells("cmt", scale, plan, cells);

    // Grid rows: mean throughput over seeds, counters from the first seed
    // (each seed is independently replayable from its cell label).
    let mut stream: Vec<CmtRow> = Vec::new();
    let mut pingpong_rows: Vec<CmtRow> = Vec::new();
    for (i, &(workload, paths, cmt, loss)) in specs.iter().enumerate() {
        let base = i * runs;
        let tput = mean(&results[base..base + runs], |r| r.throughput);
        let r = &results[base];
        let row = CmtRow {
            workload,
            paths,
            cmt,
            loss,
            mb_per_s: tput / 1e6,
            per_path_pkts: r.sctp.per_path_pkts[..paths as usize].to_vec(),
            timeouts: r.sctp.timeouts,
            fast_rtx: r.sctp.fast_retransmits,
            rescue_rtx: r.sctp.rescue_rtx,
            spurious_frtx: r.sctp.spurious_frtx,
        };
        if workload == "stream" {
            stream.push(row);
        } else {
            pingpong_rows.push(row);
        }
    }
    let gbase = specs.len() * runs;
    let bufs: Vec<CmtBufRow> = bufs_kb
        .iter()
        .enumerate()
        .map(|(j, &kb)| CmtBufRow { sndbuf_kb: kb, mb_per_s: results[gbase + j].throughput / 1e6 })
        .collect();
    let fbase = gbase + bufs_kb.len();
    let fault: Vec<CmtFaultRow> = [false, true]
        .iter()
        .enumerate()
        .map(|(j, &cmt)| {
            let r = &results[fbase + j];
            CmtFaultRow {
                cmt,
                secs: r.secs,
                mb_per_s: r.throughput / 1e6,
                failovers: r.sctp.failovers,
                rescue_rtx: r.sctp.rescue_rtx,
            }
        })
        .collect();

    // Acceptance shape (A5): CMT must aggregate, and never invert.
    let get = |paths: u8, cmt: bool, loss: f64| {
        stream
            .iter()
            .find(|r| r.paths == paths && r.cmt == cmt && r.loss == loss)
            .expect("stream cell present")
    };
    for &loss in &stream_losses {
        let single = get(1, false, loss);
        let striped = get(3, true, loss);
        assert!(
            striped.mb_per_s >= single.mb_per_s,
            "CMT must never lose to single-path: loss={loss} {:.1} vs {:.1} MB/s",
            striped.mb_per_s,
            single.mb_per_s
        );
    }
    let agg = get(3, true, 0.0).mb_per_s / get(1, false, 0.0).mb_per_s;
    assert!(
        agg >= CMT_AGG_MIN,
        "3-path CMT must aggregate ≥{CMT_AGG_MIN}× at 0% loss, got {agg:.2}×"
    );
    for r in &stream {
        // SFR quality: cross-path reordering must not masquerade as loss.
        assert!(
            r.spurious_frtx <= r.fast_rtx / 4 + 4,
            "spurious fast-rtx out of band: {r:?}"
        );
    }
    for &loss in &pp_losses {
        let (single, striped) = (
            pingpong_rows.iter().find(|r| r.paths == 1 && r.loss == loss).unwrap(),
            pingpong_rows.iter().find(|r| r.cmt && r.loss == loss).unwrap(),
        );
        assert!(
            striped.mb_per_s >= single.mb_per_s,
            "ping-pong CMT inversion at loss={loss}: {:.1} vs {:.1} MB/s",
            striped.mb_per_s,
            single.mb_per_s
        );
    }

    (CmtResults { stream, pingpong: pingpong_rows, bufs, fault }, report)
}

// ---------------------------------------------------------------------------
// E-scale — incast fan-in and many-tenant fabrics on the sharded engine
// ---------------------------------------------------------------------------

/// One row of the incast figure: N synchronized senders into one victim.
#[derive(Debug, Clone)]
pub struct IncastRow {
    pub senders: u32,
    pub block_kb: u64,
    /// Aggregate goodput over the run, Mb/s (1 Gb/s downlink is the ceiling).
    pub goodput_mbps: f64,
    /// Completion instant of the last flow, ms.
    pub last_done_ms: f64,
    /// Tail drops at the victim downlink — the collapse signal.
    pub drops_queue: u64,
    pub timeouts: u64,
    pub retrans: u64,
    pub fast_rtx: u64,
}

impl_to_json!(IncastRow {
    senders,
    block_kb,
    goodput_mbps,
    last_done_ms,
    drops_queue,
    timeouts,
    retrans,
    fast_rtx,
});

/// One row of the many-tenant figure.
#[derive(Debug, Clone)]
pub struct TenantRow {
    pub tenants: u32,
    pub servers: u32,
    pub block_kb: u64,
    pub completion_p50_ms: f64,
    pub completion_p99_ms: f64,
    pub goodput_mbps: f64,
    pub drops_queue: u64,
    pub timeouts: u64,
}

impl_to_json!(TenantRow {
    tenants,
    servers,
    block_kb,
    completion_p50_ms,
    completion_p99_ms,
    goodput_mbps,
    drops_queue,
    timeouts,
});

/// Wrap one `run_scale` invocation as a harness cell. `value` = aggregate
/// goodput and the queue drops are partition-invariant, so `SIM_CHECK=1`
/// (which forces the reference run onto one shard) cross-checks the
/// sharded engine against the sequential discipline bit for bit.
fn scale_cell(
    label: String,
    cfg: ScaleCfg,
    shards: usize,
    payload_bytes: u64,
    expect_flows: u32,
) -> Cell<'static, ScaleResult> {
    Cell::new(label, move || {
        let r = run_scale(cfg.clone(), shards);
        assert_eq!(r.completed, expect_flows, "every flow must complete");
        let m = Measured::new(r.goodput_mbps(payload_bytes), r.end_ns as f64 / 1e9, r.events)
            .with([
                (Counter::WheelHits, r.wheel_hits),
                (Counter::HeapFalls, r.heap_falls),
                (Counter::Shards, r.shards as u64),
                (Counter::Epochs, r.epochs),
                (Counter::CrossShardPkts, r.cross_shard_pkts),
                (Counter::LookaheadNs, r.lookahead_ns),
                (Counter::DropsQueue, r.drops_queue),
            ]);
        (r, m)
    })
}

/// Percentile (nearest-rank) over per-flow completion instants, ms.
fn completion_pct_ms(done_ns: &[u64], pct: f64) -> f64 {
    let mut v: Vec<u64> = done_ns.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0.0;
    }
    let ix = ((pct / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[ix] as f64 / 1e6
}

/// The incast sweep: synchronized N→1 fan-in at 1 Gb/s, N up to 1024.
/// Worker count comes from the `SHARDS` env var (default sequential);
/// results are bit-identical at any value.
pub fn incast_metered(scale: Scale) -> (Vec<IncastRow>, BenchReport) {
    let shards = runner::shards() as usize;
    let (sweep, block): (Vec<u32>, u64) = match scale {
        Scale::Paper => (vec![64, 256, 1024], 256 * 1024),
        Scale::Quick => (vec![64, 256, 1024], 16 * 1024),
    };
    let cells = sweep
        .iter()
        .map(|&n| {
            scale_cell(
                format!("senders={n} block={block} shards={shards}"),
                ScaleCfg::incast(n, block, SEED_BASE),
                shards,
                n as u64 * block,
                n,
            )
        })
        .collect();
    let (results, report) = runner::run_cells("incast", scale, None, cells);
    let rows = sweep
        .iter()
        .zip(results)
        .map(|(&n, r)| IncastRow {
            senders: n,
            block_kb: block / 1024,
            goodput_mbps: r.goodput_mbps(n as u64 * block),
            last_done_ms: r.last_done_ns as f64 / 1e6,
            drops_queue: r.drops_queue,
            timeouts: r.timeouts,
            retrans: r.retrans,
            fast_rtx: r.fast_rtx,
        })
        .collect();
    (rows, report)
}

/// The many-tenant sweep: T staggered flows share S receivers round-robin.
pub fn tenants_metered(scale: Scale) -> (Vec<TenantRow>, BenchReport) {
    let shards = runner::shards() as usize;
    let (sweep, servers, block): (Vec<u32>, u32, u64) = match scale {
        Scale::Paper => (vec![256, 1024], 32, 128 * 1024),
        Scale::Quick => (vec![64, 256], 8, 16 * 1024),
    };
    let stagger = simcore::Dur::from_micros(50);
    let cells = sweep
        .iter()
        .map(|&t| {
            scale_cell(
                format!("tenants={t} servers={servers} block={block} shards={shards}"),
                ScaleCfg::tenants(t, servers, block, stagger, SEED_BASE),
                shards,
                t as u64 * block,
                t,
            )
        })
        .collect();
    let (results, report) = runner::run_cells("tenants", scale, None, cells);
    let rows = sweep
        .iter()
        .zip(results)
        .map(|(&t, r)| TenantRow {
            tenants: t,
            servers,
            block_kb: block / 1024,
            completion_p50_ms: completion_pct_ms(&r.flow_done_ns, 50.0),
            completion_p99_ms: completion_pct_ms(&r.flow_done_ns, 99.0),
            goodput_mbps: r.goodput_mbps(t as u64 * block),
            drops_queue: r.drops_queue,
            timeouts: r.timeouts,
        })
        .collect();
    (rows, report)
}

// ---------------------------------------------------------------------------
// A2 — Option A vs Option B (long-message race fixes, §3.4)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct RaceRow {
    pub loss: f64,
    pub option_a_secs: f64,
    pub option_b_secs: f64,
}

impl_to_json!(RaceRow { loss, option_a_secs, option_b_secs });

pub fn ablate_race_metered(scale: Scale) -> (Vec<RaceRow>, BenchReport) {
    let mut cells = Vec::new();
    let losses = [0.0, 0.01];
    for &loss in &losses {
        let cfg = farm_cfg(scale, 300 * 1024, 10);
        for (name, fix) in [("A", RaceFix::OptionA), ("B", RaceFix::OptionB)] {
            let mut m = MpiCfg::sctp(8, loss).with_seed(SEED_BASE);
            m.transport =
                TransportSel::Sctp { streams: 10, race_fix: fix, ctx_map: ContextMap::StreamHash };
            cells.push(farm_cell(format!("loss={loss} option={name}"), m, cfg));
        }
    }
    let (results, report) = runner::run_cells("ablate_race", scale, None, cells);
    let rows = losses
        .iter()
        .zip(results.chunks_exact(2))
        .map(|(&loss, pair)| RaceRow {
            loss,
            option_a_secs: pair[0].secs,
            option_b_secs: pair[1].secs,
        })
        .collect();
    (rows, report)
}

// ---------------------------------------------------------------------------
// Rendering + result persistence
// ---------------------------------------------------------------------------

/// Render a text table: header + rows of equal arity.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let line = |cells: Vec<String>, widths: &[usize]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        s.trim_end().to_string() + "\n"
    };
    out.push_str(&line(header.iter().map(|s| s.to_string()).collect(), &widths));
    for row in rows {
        out.push_str(&line(row.clone(), &widths));
    }
    out
}

/// Write a JSON record of the experiment next to the binary output.
pub fn save_json<T: ToJson + ?Sized>(name: &str, rows: &T) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        let _ = std::fs::write(path, rows.to_json().render() + "\n");
    }
}

/// Human-readable byte sizes for table cells.
pub fn human_size(n: usize) -> String {
    if n >= 1024 && n.is_multiple_of(1024) {
        format!("{}K", n / 1024)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(
            "T",
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("== T =="));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[1].len(), lines[2].len());
    }

    #[test]
    fn crossover_finder() {
        let rows = vec![
            Fig8Row { size: 1, tcp_tput: 2.0, sctp_tput: 1.0, normalized: 0.5 },
            Fig8Row { size: 1000, tcp_tput: 2.0, sctp_tput: 2.2, normalized: 1.1 },
        ];
        assert_eq!(fig8_crossover(&rows), Some(1000));
        assert_eq!(fig8_crossover(&rows[..1]), None);
    }

    #[test]
    fn human_sizes() {
        assert_eq!(human_size(30 * 1024), "30K");
        assert_eq!(human_size(100), "100");
    }

    #[test]
    fn completion_percentiles() {
        let v = [4_000_000u64, 1_000_000, 3_000_000, 2_000_000];
        assert_eq!(completion_pct_ms(&v, 50.0), 2.0);
        assert_eq!(completion_pct_ms(&v, 99.0), 4.0);
        assert_eq!(completion_pct_ms(&v, 100.0), 4.0);
        assert_eq!(completion_pct_ms(&[], 50.0), 0.0);
    }

    #[test]
    fn row_types_serialize() {
        let row = FarmRow {
            task_bytes: 30720,
            fanout: 10,
            loss: 0.01,
            sctp_secs: 1.0,
            tcp_secs: 2.0,
            tcp_era_secs: 3.0,
            ratio_tcp_over_sctp: 2.0,
            ratio_era: 3.0,
            unexpected_peak: 7,
        };
        let s = vec![row].to_json().render();
        assert!(s.contains("\"unexpected_peak\": 7"));
        assert!(s.contains("\"loss\": 0.01"));
    }
}
