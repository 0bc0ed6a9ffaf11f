//! Discipline-equivalence property tests for the runtime fast path, plus
//! the coroutine runtime's structural guarantees (one thread, deep stacks,
//! guard pages).
//!
//! The coroutine runtime coalesces wakes (suppressing wakes aimed at a
//! process parked in `sleep`, advancing uncontended sleeps inline) and
//! batches CPU charges. All of that is wall-clock optimisation only: under
//! any interleaving of park/wake/charge the observable schedule — world
//! mutations, their order, timestamps, event counts, final sim time — must
//! be bit-identical to the pre-overhaul reference discipline, which issues
//! one full handoff per wake and per sleep. These tests drive both
//! disciplines over random programs and demand exactly that.

use std::hint::black_box;
use std::os::unix::process::ExitStatusExt;
use std::process::Command;
use std::thread::ThreadId;

use proptest::prelude::*;
use simcore::{set_reference_discipline, Dur, ProcEnv, ProcId, Runtime};

/// One step of a process's scripted behaviour.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Park in `sleep` for a duration — the coalescing fast-path target.
    Sleep(u64),
    /// Two back-to-back short charges, like `cost.rs` billing CPU around a
    /// progress pass.
    Charge(u64),
    /// Deposit into `q`'s mailbox and wake it (possibly a self-wake, and
    /// possibly aimed at a process that is running, parked, or sleeping —
    /// the suppression cases).
    Ping(usize),
    /// Record (proc, step, now) in the shared log.
    Log,
}

fn ops(n_procs: usize) -> impl Strategy<Value = Vec<Op>> {
    let one = prop_oneof![
        (1u64..3_000).prop_map(Op::Sleep),
        (1u64..200).prop_map(Op::Charge),
        (0..n_procs).prop_map(Op::Ping),
        Just(Op::Log),
    ];
    prop::collection::vec(one, 0..12)
}

#[derive(Default)]
struct W {
    log: Vec<(usize, usize, u64)>,
    pings: Vec<u32>,
}

/// Runs the scripted program once and returns everything observable:
/// the log, the ping counters, final sim time, and events fired.
fn run_once(scripts: &[Vec<Op>], reference: bool) -> (Vec<(usize, usize, u64)>, Vec<u32>, u64, u64) {
    let n = scripts.len();
    // How many pings each process must eventually see: its block_on target.
    let mut expected = vec![0u32; n];
    for s in scripts {
        for op in s {
            if let Op::Ping(q) = op {
                expected[*q] += 1;
            }
        }
    }
    let mut rt = Runtime::new(W { log: Vec::new(), pings: vec![0; n] }, 12);
    for (p, script) in scripts.iter().enumerate() {
        let script = script.clone();
        let want = expected[p];
        rt.spawn(format!("p{p}"), move |env: ProcEnv<W>| {
            for (i, &op) in script.iter().enumerate() {
                match op {
                    Op::Sleep(d) => env.sleep(Dur::from_nanos(d)),
                    Op::Charge(d) => {
                        env.sleep(Dur::from_nanos(d));
                        env.sleep(Dur::from_nanos(d / 2 + 1));
                    }
                    Op::Ping(q) => env.with(move |w, ctx| {
                        w.pings[q] += 1;
                        ctx.wake(ProcId(q));
                    }),
                    Op::Log => {
                        let t = env.now().as_nanos();
                        env.with(move |w, _| w.log.push((p, i, t)));
                    }
                }
            }
            // Park until every ping aimed at us has landed; the wakes come
            // from the pingers, so this exercises wake-after-park,
            // wake-before-park, and wake-during-sleep orderings.
            env.block_on(move |w, _| (w.pings[p] >= want).then_some(()));
        });
    }
    set_reference_discipline(reference);
    let out = rt.run();
    set_reference_discipline(false);
    (out.world.log, out.world.pings, out.sim_time.as_nanos(), out.events)
}

proptest! {
    /// Fast discipline ≡ reference discipline: same log (order and
    /// timestamps), same counters, same final time, same event count.
    #[test]
    fn fast_discipline_matches_reference(scripts in prop::collection::vec(ops(3), 3..4)) {
        let fast = run_once(&scripts, false);
        let reference = run_once(&scripts, true);
        prop_assert_eq!(fast, reference);
    }

    /// The fast discipline is deterministic against itself (same program,
    /// two runs), so the comparison above can't pass by accident of both
    /// sides being equally scrambled.
    #[test]
    fn fast_discipline_is_self_deterministic(scripts in prop::collection::vec(ops(4), 4..5)) {
        prop_assert_eq!(run_once(&scripts, false), run_once(&scripts, false));
    }
}

/// Every process runs on the thread that called `run`, before and after
/// each park: there is no thread per process.
#[test]
fn every_process_runs_on_the_calling_thread() {
    let mut rt = Runtime::new(Vec::<ThreadId>::new(), 1);
    for p in 0..8 {
        rt.spawn(format!("p{p}"), move |env: ProcEnv<Vec<ThreadId>>| {
            for _ in 0..3 {
                let id = std::thread::current().id();
                env.with(|ids, _| ids.push(id));
                env.yield_now();
            }
        });
    }
    let out = rt.run();
    assert_eq!(out.world.len(), 24);
    let driver = std::thread::current().id();
    assert!(out.world.iter().all(|&id| id == driver), "a process ran off the driver thread");
}

/// `ProcEnv` is `Send` and `Sync`, but only the process's own body may park
/// it: from another thread `park` panics instead of switching stacks.
#[test]
fn parking_from_another_thread_panics() {
    let mut rt = Runtime::new(false, 1);
    rt.spawn("p", |env: ProcEnv<bool>| {
        let refused = std::thread::scope(|s| s.spawn(|| env.park()).join().is_err());
        env.with(|w, _| *w = refused);
    });
    assert!(rt.run().world);
}

/// A token travels twice around a ring of 1024 processes, each waking the
/// next: a thousand live stacks and every resume through the driver.
#[test]
fn a_ring_of_1024_processes_completes() {
    const N: usize = 1024;
    #[derive(Default)]
    struct Ring {
        turn: usize,
        passes: usize,
    }
    let mut rt = Runtime::new(Ring::default(), 1);
    for p in 0..N {
        rt.spawn(format!("r{p}"), move |env: ProcEnv<Ring>| {
            for _ in 0..2 {
                env.block_on(|w, _| (w.turn == p).then_some(()));
                env.with(|w, ctx| {
                    w.turn = (p + 1) % N;
                    w.passes += 1;
                    ctx.wake(ProcId((p + 1) % N));
                });
            }
        });
    }
    let out = rt.run();
    assert_eq!(out.world.passes, 2 * N);
    assert!(out.handoffs >= 2 * N as u64, "every pass resumes a process");
}

/// Bytes of stack used between `top` and this frame, recursing until that
/// reaches `want`. Not a tail call, so every frame stays live.
fn descend(top: usize, want: usize) -> usize {
    let frame = black_box([0u8; 512]);
    let used = top - frame.as_ptr() as usize;
    if used >= want {
        return used;
    }
    descend(top, want).max(frame[0] as usize)
}

/// A process may use a mebibyte of its stack, even in a debug build.
#[test]
fn a_process_can_recurse_through_a_mebibyte_of_stack() {
    let mut rt = Runtime::new(0usize, 1);
    rt.spawn("deep", |env: ProcEnv<usize>| {
        let top = black_box(0u8);
        let used = descend(&top as *const u8 as usize, 1 << 20);
        env.with(|w, _| *w = used);
    });
    assert!(rt.run().world >= 1 << 20);
}

/// Overflowing a process's stack hits its guard page and the OS kills the
/// program, rather than the overflow running into other memory. The test
/// re-runs itself as a child that overflows; the child must die by signal.
#[test]
fn stack_overflow_hits_the_guard_page() {
    const CHILD: &str = "SIMCORE_TEST_OVERFLOW_CHILD";
    if std::env::var_os(CHILD).is_some() {
        let mut rt = Runtime::new(0usize, 1);
        rt.spawn("overflow", |env: ProcEnv<usize>| {
            let top = black_box(0u8);
            let used = descend(&top as *const u8 as usize, usize::MAX);
            env.with(|w, _| *w = used);
        });
        rt.run();
        return;
    }
    let out = Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", "stack_overflow_hits_the_guard_page", "--nocapture", "--test-threads=1"])
        .env(CHILD, "1")
        .output()
        .expect("re-run the test binary");
    const SIGBUS: i32 = 7;
    const SIGSEGV: i32 = 11;
    assert!(
        matches!(out.status.signal(), Some(SIGSEGV | SIGBUS)),
        "child should die by SIGSEGV or SIGBUS, got {:?}; stderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}
