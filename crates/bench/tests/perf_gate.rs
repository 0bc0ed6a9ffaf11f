//! Wall-clock regression gate for the simulator hot path.
//!
//! The allocation gate (`alloc_threshold.rs`) catches pools falling out of
//! the packet plane; this gate catches everything else that makes events
//! slower — an event-queue operation turning linear, a SACK scan going quadratic,
//! an accidental per-packet clone. It runs the Figure-10 farm at `--quick`
//! scale on one worker thread and fails if microseconds per simulator
//! event creep past the budget.
//!
//! Lives alone in its own integration-test binary so no sibling test's
//! CPU time pollutes the wall-clock measurement.
//!
//! Budget: with ranks as coroutines this workload measures 1.2–1.4
//! µs/event in release mode on a 2-vCPU Intel Xeon VM (4.2–5.5 with the
//! earlier thread per rank on the same host). The gate sits at 4.0 — wide
//! enough for a loaded CI box and codegen drift, tight enough that
//! regressing to an OS context switch per handoff trips it.

use bench_harness::{farm_figure_metered, Scale};

const MAX_US_PER_EVENT: f64 = 4.0;

#[test]
fn farm_quick_stays_within_time_budget() {
    // Wall-clock budgets are meaningless without optimization; the
    // debug-mode tier-1 run still builds this binary but only the CI
    // `--release` invocation enforces the gate.
    if cfg!(debug_assertions) {
        eprintln!("perf gate skipped: debug build (run with --release to enforce)");
        return;
    }
    // One worker: parallel cells would divide wall-clock by the thread
    // count and hide a per-event regression behind idle cores.
    std::env::set_var("BENCH_THREADS", "1");

    let (_rows, bench) = farm_figure_metered(Scale::Quick, 1);

    assert!(bench.events_total > 0, "farm run fired no events");
    let us_per_event = bench.wall_secs_total * 1e6 / bench.events_total as f64;
    eprintln!(
        "wall={:.3}s events={} us/event={us_per_event:.4}",
        bench.wall_secs_total, bench.events_total
    );
    assert!(
        us_per_event <= MAX_US_PER_EVENT,
        "performance regression: {us_per_event:.3} µs/event exceeds budget \
         {MAX_US_PER_EVENT} (coroutine runtime ~1.3 on a 2-vCPU VM). \
         Profile with `cargo bench -p bench-harness --bench hot_paths` and \
         check the event queue, SACK fast paths, and pool coverage first."
    );
}
