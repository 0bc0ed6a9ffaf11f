//! The Bulk Processor Farm (paper §4.2.1) — a latency-tolerant
//! manager/worker program with the communication pattern of real-world
//! farm codes.
//!
//! * One manager (rank 0), `n-1` workers.
//! * Workers keep a fixed number of outstanding job requests (10 in the
//!   paper) and receive with `MPI_ANY_TAG` — they are willing to do any
//!   task type; all task messages are *expected* (pre-posted).
//! * The manager services requests in arrival order (`MPI_ANY_SOURCE`) and
//!   answers each with `fanout` tasks; each task carries a tag in
//!   `0..max_work_tags` (its *type*), which the SCTP module maps onto
//!   streams — the mechanism behind Figures 10–12.
//! * When the task pool is exhausted, each further request is answered
//!   with a termination message.

use bytes::Bytes;
use mpi_core::{mpirun, Mpi, MpiCfg, ANY_SOURCE, ANY_TAG};
use simcore::Dur;

use crate::zeros;

/// Tag of worker→manager job requests.
const REQ_TAG: i32 = 1_000;
/// Tag of manager→worker termination messages.
const DONE_TAG: i32 = 1_001;
/// Size of a request/result message.
const REQ_BYTES: usize = 64;

/// Farm parameters (paper defaults in [`FarmCfg::paper`]).
#[derive(Debug, Clone, Copy)]
pub struct FarmCfg {
    /// Total number of tasks (paper: 10 000). Must be divisible by fanout.
    pub num_tasks: u32,
    /// Task payload size: 30 KB (short) or 300 KB (long) in the paper.
    pub task_bytes: usize,
    /// Tasks sent per request (paper: 1 and 10).
    pub fanout: u32,
    /// Distinct task types = distinct tags (paper's MaxWorkTags).
    pub max_work_tags: u32,
    /// Outstanding job requests per worker (paper: 10).
    pub outstanding: u32,
    /// Modelled processing time per task.
    pub compute_per_task: Dur,
}

impl FarmCfg {
    /// Paper settings for a given task size and fanout. The per-task
    /// compute time is calibrated against the paper's zero-loss totals
    /// (Figure 10): those imply the farm is mostly manager/wire-bound, so
    /// workers are frequently idle and answer rendezvous ACKs promptly
    /// (see EXPERIMENTS.md E4).
    pub fn paper(task_bytes: usize, fanout: u32) -> FarmCfg {
        let compute = if task_bytes > 64 * 1024 {
            Dur::from_micros(6_000) // long tasks: 6 ms
        } else {
            Dur::from_micros(1_000) // short tasks: 1 ms
        };
        FarmCfg {
            num_tasks: 10_000,
            task_bytes,
            fanout,
            max_work_tags: 10,
            outstanding: 10,
            compute_per_task: compute,
        }
    }

    /// A scaled-down configuration for tests and Criterion benches.
    pub fn small(task_bytes: usize, fanout: u32) -> FarmCfg {
        FarmCfg { num_tasks: 200, ..FarmCfg::paper(task_bytes, fanout) }
    }
}

/// Per-run results.
#[derive(Debug, Clone, Copy)]
pub struct FarmResult {
    pub secs: f64,
    pub tasks_done: u32,
    /// Simulator events fired during the run (self-metering, see
    /// `bench-harness`).
    pub events: u64,
    /// Switches from the runtime driver into a rank: every resume, since
    /// all of them go through the driver (self-metering).
    pub handoffs: u64,
    /// Wakes coalesced away by the runtime fast path (self-metering).
    pub wakes_coalesced: u64,
    /// Packet trains emitted through the burst path (self-metering).
    pub bursts_total: u64,
    /// Packets fused inside those trains (self-metering).
    pub pkts_fused: u64,
    /// Always 0: the event queue has no timer wheel (see `simcore::Ctx::wheel_hits`).
    pub wheel_hits: u64,
    /// Events pushed onto the event heap, i.e. every schedule (see `simcore::Ctx::heap_falls`).
    pub heap_falls: u64,
    /// Peak length of the matching layer's unexpected-message queue across
    /// all ranks — must stay bounded for this latency-tolerant workload.
    pub unexpected_peak: usize,
}

/// Run the farm under `mpi_cfg`; returns total run time (Figures 10–12's
/// metric).
pub fn run(mpi_cfg: MpiCfg, cfg: FarmCfg) -> FarmResult {
    assert!(mpi_cfg.nprocs >= 2, "farm needs a manager and a worker");
    assert_eq!(cfg.num_tasks % cfg.fanout, 0, "tasks must divide evenly into batches");
    let done_count = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
    let peak = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let dc = done_count.clone();
    let pk = peak.clone();
    let report = mpirun(mpi_cfg, move |mpi| {
        if mpi.rank() == 0 {
            manager(mpi, cfg, None);
        } else {
            let n = worker(mpi, cfg);
            dc.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        }
        pk.fetch_max(mpi.unexpected_peak(), std::sync::atomic::Ordering::Relaxed);
    });
    FarmResult {
        secs: report.secs(),
        tasks_done: done_count.load(std::sync::atomic::Ordering::Relaxed),
        events: report.events,
        handoffs: report.handoffs,
        wakes_coalesced: report.wakes_coalesced,
        bursts_total: report.bursts_total,
        pkts_fused: report.pkts_fused,
        wheel_hits: report.wheel_hits,
        heap_falls: report.heap_falls,
        unexpected_peak: peak.load(std::sync::atomic::Ordering::Relaxed),
    }
}

/// Run the farm body inside an existing `mpirun` rank (diagnostics).
pub fn run_inline(mpi: &mut Mpi, cfg: FarmCfg) {
    if mpi.rank() == 0 {
        manager(mpi, cfg, None);
    } else {
        worker(mpi, cfg);
    }
}

/// Farm result including transport-level failover metrics (experiments A3
/// and E-faults).
#[derive(Debug, Clone, Copy)]
pub struct FaultFarmResult {
    /// Total run time in seconds.
    pub secs: f64,
    /// Tasks completed by the workers (sanity: must equal `num_tasks`).
    pub tasks_done: u32,
    /// Primary-path switches performed by SCTP across all associations.
    pub failovers: u64,
    /// Instant of the earliest failover anywhere, ns (0 = none). Against a
    /// scripted flap start this gives the fault-detection latency.
    pub first_failover_ns: u64,
    /// Simulator events fired (self-metering, see `bench-harness`).
    pub events: u64,
}

/// Run the farm, optionally killing network 0 (every host's primary path)
/// after `kill_at_batch` batches have been distributed — the §3.5.1
/// failover experiment. Requires `mpi_cfg.sctp.num_paths > 1` to survive.
pub fn run_with_fault(mpi_cfg: MpiCfg, cfg: FarmCfg, kill_at_batch: Option<u32>) -> FaultFarmResult {
    let done_count = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
    let dc = done_count.clone();
    let report = mpirun(mpi_cfg, move |mpi| {
        if mpi.rank() == 0 {
            manager(mpi, cfg, kill_at_batch);
        } else {
            let n = worker(mpi, cfg);
            dc.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        }
    });
    FaultFarmResult {
        secs: report.secs(),
        tasks_done: done_count.load(std::sync::atomic::Ordering::Relaxed),
        failovers: report.sctp.failovers,
        first_failover_ns: report.sctp.first_failover_ns,
        events: report.events,
    }
}

/// Run the farm under a *scripted* fault plan: the damage (link flaps,
/// bursty loss, jitter, degradation) comes from `mpi_cfg.fault_plan`
/// rather than from the application tearing a network down mid-run, so
/// two runs with the same plan and seed are byte-identical.
pub fn run_with_plan(mpi_cfg: MpiCfg, cfg: FarmCfg) -> FaultFarmResult {
    run_with_fault(mpi_cfg, cfg, None)
}

fn manager(mpi: &mut Mpi, cfg: FarmCfg, kill_at_batch: Option<u32>) {
    let workers = (mpi.size() - 1) as u32;
    let batches = cfg.num_tasks / cfg.fanout;
    let total_requests = batches + cfg.outstanding * workers;
    let mut remaining = cfg.num_tasks;
    let mut task_no: u32 = 0;
    // The manager is latency tolerant: sends stay in flight (nonblocking)
    // so a retransmission stall on one worker's tasks never stops it from
    // servicing the other workers' requests — the overlap §4.2 relies on.
    let mut inflight: Vec<mpi_core::ReqId> = Vec::new();
    for _ in 0..total_requests {
        let (st, _req) = mpi.recv(ANY_SOURCE, Some(REQ_TAG));
        let worker = st.src;
        if remaining > 0 {
            if kill_at_batch == Some((cfg.num_tasks - remaining) / cfg.fanout) {
                // Fault injection (A3): the primary network dies.
                mpi.with_world(|w| w.net.set_network_up(0, false));
            }
            // One batch: `fanout` tasks, each with its own type tag.
            for _ in 0..cfg.fanout {
                let tag = (task_no % cfg.max_work_tags) as i32;
                task_no += 1;
                inflight.push(mpi.isend(worker, tag, zeros(cfg.task_bytes)));
            }
            remaining -= cfg.fanout;
            mpi.reap_sends(&mut inflight);
        } else {
            mpi.send(worker, DONE_TAG, Bytes::new());
        }
    }
    let leftovers: Vec<_> = std::mem::take(&mut inflight);
    mpi.waitall(&leftovers);
}

/// Returns the number of tasks this worker processed.
fn worker(mpi: &mut Mpi, cfg: FarmCfg) -> u32 {
    // Pre-post enough receives to cover everything that can be in flight:
    // `outstanding` batches of `fanout` tasks, plus termination messages.
    let pool = (cfg.outstanding * cfg.fanout + cfg.outstanding) as usize;
    let mut recvs: Vec<_> = (0..pool).map(|_| mpi.irecv(Some(0), ANY_TAG)).collect();

    // Issue the initial outstanding job requests.
    for _ in 0..cfg.outstanding {
        mpi.send(0, REQ_TAG, zeros(REQ_BYTES));
    }
    let mut tasks_in_batch = 0u32;
    let mut tasks_done = 0u32;
    let mut dones = 0u32;

    // Invariant: every request is answered with exactly one batch or one
    // DONE, and every completed batch immediately re-requests — so each
    // worker receives exactly `outstanding` DONEs, regardless of how SCTP
    // streams reorder a DONE around in-flight batches.
    while dones < cfg.outstanding {
        let (idx, st, _msg) = mpi.waitany(&recvs);
        // Re-post the consumed slot so messages stay expected.
        recvs[idx] = mpi.irecv(Some(0), ANY_TAG);
        if st.tag == DONE_TAG {
            dones += 1;
            continue;
        }
        // A task: process it (overlapping with the other posted receives).
        tasks_done += 1;
        tasks_in_batch += 1;
        mpi.compute(cfg.compute_per_task);
        if tasks_in_batch == cfg.fanout {
            tasks_in_batch = 0;
            // Ask for more work (the request doubles as result delivery).
            mpi.send(0, REQ_TAG, zeros(REQ_BYTES));
        }
    }
    debug_assert_eq!(tasks_in_batch, 0, "exited with a partial batch");
    tasks_done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_tasks_processed_no_loss() {
        for cfg in [MpiCfg::tcp(4, 0.0), MpiCfg::sctp(4, 0.0)] {
            let r = run(cfg, FarmCfg::small(30 * 1024, 1));
            assert_eq!(r.tasks_done, 200);
            assert!(r.secs > 0.0);
        }
    }

    #[test]
    fn all_tasks_processed_with_fanout_under_loss() {
        for cfg in [MpiCfg::tcp(4, 0.01).with_seed(3), MpiCfg::sctp(4, 0.01).with_seed(3)] {
            let r = run(cfg, FarmCfg::small(30 * 1024, 10));
            assert_eq!(r.tasks_done, 200);
        }
    }

    #[test]
    fn long_tasks_use_rendezvous_and_complete() {
        let r = run(MpiCfg::sctp(3, 0.0), FarmCfg { num_tasks: 40, ..FarmCfg::small(300 * 1024, 10) });
        assert_eq!(r.tasks_done, 40);
    }

    #[test]
    fn single_stream_sctp_also_completes() {
        let r = run(MpiCfg::sctp_single_stream(4, 0.02).with_seed(9), FarmCfg::small(30 * 1024, 10));
        assert_eq!(r.tasks_done, 200);
    }
}
