//! Property tests for the simulation core: event ordering, determinism,
//! and runtime scheduling invariants.

use proptest::prelude::*;
use simcore::{Ctx, Dur, ProcEnv, Runtime, SimTime};

proptest! {
    /// Events always fire in (time, insertion) order, regardless of the
    /// insertion order of their deadlines.
    #[test]
    fn event_order_is_total(delays in prop::collection::vec(0u64..1000, 1..50)) {
        #[derive(Default)]
        struct W {
            fired: Vec<(u64, usize)>,
        }
        let mut rt = Runtime::new(W::default(), 9);
        let expect = delays.clone();
        rt.spawn("driver", move |env: ProcEnv<W>| {
            env.with(|_, ctx| {
                for (i, &d) in expect.iter().enumerate() {
                    ctx.schedule_in(Dur::from_nanos(d), move |w: &mut W, ctx| {
                        w.fired.push((ctx.now().as_nanos(), i));
                    });
                }
            });
            // Wait until everything fired.
            let total = expect.len();
            env.block_on(move |w, ctx| {
                if w.fired.len() == total {
                    Some(())
                } else {
                    // Re-arm a wake after the last deadline.
                    ctx.schedule_in(Dur::from_micros(2), {
                        let id = simcore::ProcId(0);
                        move |_w: &mut W, ctx| ctx.wake(id)
                    });
                    None
                }
            });
        });
        let out = rt.run();
        let fired = out.world.fired;
        // Times must be non-decreasing; ties must fire in insertion order.
        for w in fired.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "tie broken against insertion order");
            }
        }
        // Each event fired at its scheduled time.
        for &(at, i) in &fired {
            prop_assert_eq!(at, delays[i]);
        }
    }

    /// Sleeping processes wake exactly at their deadline, and the runtime's
    /// final time is the maximum across processes.
    #[test]
    fn sleep_deadlines_are_exact(durs in prop::collection::vec(1u64..10_000, 1..8)) {
        struct W {
            ends: Vec<(usize, u64)>,
        }
        let mut rt = Runtime::new(W { ends: Vec::new() }, 10);
        for (i, &d) in durs.iter().enumerate() {
            rt.spawn(format!("p{i}"), move |env: ProcEnv<W>| {
                env.sleep(Dur::from_nanos(d));
                let t = env.now().as_nanos();
                env.with(move |w, _| w.ends.push((i, t)));
            });
        }
        let out = rt.run();
        for &(i, t) in &out.world.ends {
            prop_assert_eq!(t, durs[i]);
        }
        prop_assert_eq!(out.sim_time, SimTime::from_nanos(*durs.iter().max().unwrap()));
    }

    /// The runtime is deterministic under arbitrary interleavings of
    /// sleeping and world-mutating processes.
    #[test]
    fn runtime_determinism(steps in prop::collection::vec((0u64..200, 0u8..4), 1..20)) {
        fn once(steps: &[(u64, u8)]) -> Vec<u32> {
            #[derive(Default)]
            struct W {
                log: Vec<u32>,
            }
            let mut rt = Runtime::new(W::default(), 11);
            for p in 0..3usize {
                let steps: Vec<_> = steps.to_vec();
                rt.spawn(format!("p{p}"), move |env: ProcEnv<W>| {
                    for (i, &(d, kind)) in steps.iter().enumerate() {
                        if (i + p) % 2 == 0 {
                            env.sleep(Dur::from_nanos(d * (p as u64 + 1)));
                        }
                        let tag = (p as u32) << 16 | (i as u32) << 2 | kind as u32;
                        env.with(move |w, _| w.log.push(tag));
                    }
                });
            }
            rt.run().world.log
        }
        prop_assert_eq!(once(&steps), once(&steps));
    }
}

/// How one randomized timer in the queue-vs-model test is cancelled, if at
/// all: immediately or from a separate canceller event, with a plain
/// `cancel` or a ghost-counted `cancel_counted`.
#[derive(Debug, Clone, Copy)]
enum Cancel {
    Keep,
    Immediate,
    ImmediateCounted,
    /// Cancel from an event fired at this delay (no-op if the target
    /// already fired, exactly like the real API).
    At(u64),
    CountedAt(u64),
}

/// A delay mix: same-instant ties, then ns, µs, ms and >10 s scales.
fn delay() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u64..6).prop_map(|x| x * 1_000),
        0u64..1_000,
        1_000u64..1_000_000,
        1_000_000u64..1_000_000_000,
        10_000_000_000u64..30_000_000_000,
    ]
}

fn timer_op() -> impl Strategy<Value = (u64, Cancel)> {
    let cancel = prop_oneof![
        Just(Cancel::Keep),
        Just(Cancel::Keep),
        Just(Cancel::Keep),
        Just(Cancel::Immediate),
        Just(Cancel::ImmediateCounted),
        delay().prop_map(Cancel::At),
        delay().prop_map(Cancel::CountedAt),
    ];
    (delay(), cancel)
}

proptest! {
    /// The event queue fires exactly what a plain `BinaryHeap<(time, seq)>`
    /// model says it should, in exactly that order, under random scheduling
    /// and cancellation from a random, unaligned `now`. Cancelled timers
    /// never fire; cancelling an already-fired timer is a no-op; a
    /// ghost-counted cancel still counts as one fired event, and only when
    /// it retired a live timer.
    #[test]
    fn queue_fires_like_a_binary_heap_model(
        base in 0u64..100_000,
        ops in prop::collection::vec(timer_op(), 1..60),
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        // Model: timer i gets seq i; canceller k (in op order) gets seq
        // n + k. A cancel is effective iff the canceller's (time, seq)
        // orders before its target's — with seq_c >= n > i, that reduces to
        // a strictly earlier timestamp. Every canceller fires, and so does
        // every ghost an effective counted cancel leaves behind.
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let mut events = 0u64;
        let mut ghosts = 0u64;
        for (i, &(d, c)) in ops.iter().enumerate() {
            let (dead, counted) = match c {
                Cancel::Keep => (false, false),
                Cancel::Immediate => (true, false),
                Cancel::ImmediateCounted => (true, true),
                Cancel::At(tc) => (tc < d, false),
                Cancel::CountedAt(tc) => (tc < d, true),
            };
            if matches!(c, Cancel::At(_) | Cancel::CountedAt(_)) {
                events += 1;
            }
            if !dead {
                heap.push(Reverse((d, i)));
                events += 1;
            } else if counted {
                ghosts += 1;
                events += 1;
            }
        }
        let mut expected = Vec::new();
        while let Some(Reverse((at, i))) = heap.pop() {
            expected.push((base + at, i));
        }

        let mut ctx: Ctx<Vec<(u64, usize)>> = Ctx::standalone(simcore::derive_rng(11, 0));
        let mut fired = Vec::new();
        // Land on an arbitrary, unaligned `now` first.
        ctx.run_due(&mut fired, SimTime::from_nanos(base));
        // Targets first: seqs 0..n in op order.
        let ids: Vec<_> = ops
            .iter()
            .enumerate()
            .map(|(i, &(d, _))| {
                ctx.schedule_in(Dur::from_nanos(d), move |w: &mut Vec<(u64, usize)>, ctx| {
                    w.push((ctx.now().as_nanos(), i));
                })
            })
            .collect();
        // Then cancellers (seqs n..) and immediate cancels.
        for (&(_, c), &id) in ops.iter().zip(&ids) {
            match c {
                Cancel::Keep => {}
                Cancel::Immediate => ctx.cancel(id),
                Cancel::ImmediateCounted => {
                    prop_assert!(ctx.cancel_counted(id));
                }
                Cancel::At(tc) => {
                    ctx.schedule_in(Dur::from_nanos(tc), move |_: &mut Vec<_>, ctx| ctx.cancel(id));
                }
                Cancel::CountedAt(tc) => {
                    ctx.schedule_in(Dur::from_nanos(tc), move |_: &mut Vec<_>, ctx| {
                        ctx.cancel_counted(id);
                    });
                }
            }
        }
        ctx.run_due(&mut fired, SimTime::MAX);
        prop_assert_eq!(fired, expected);
        prop_assert_eq!(ctx.events_fired(), events);
        prop_assert_eq!(ctx.ghost_fires(), ghosts);
    }
}

// ---------------------------------------------------------------------------
// Batched rearm vs the open-coded cancel + schedule it replaces
// ---------------------------------------------------------------------------

proptest! {
    /// `reschedule_in(Some(id), d, f)` is observably identical to the
    /// two-call `cancel_counted(id); schedule_in(d, f)` pattern it batches:
    /// same live-fire sequence, same `events` total (ghosts included), same
    /// final simulated time — over arbitrary rearm storms, including rearms
    /// that land after the target already fired (stale-id no-ops).
    #[test]
    fn batched_rearm_matches_cancel_then_schedule(
        plan in prop::collection::vec((1u64..5_000, 1u64..5_000), 1..24)
    ) {
        #[derive(Default)]
        struct W {
            fired: Vec<u64>,
            pending: Option<simcore::TimerId>,
        }
        fn target_fire(w: &mut W, ctx: &mut simcore::Ctx<W>) {
            w.fired.push(ctx.now().as_nanos());
            w.pending = None;
        }
        fn run(plan: &[(u64, u64)], batched: bool) -> (Vec<u64>, u64, u64) {
            let plan = plan.to_vec();
            let mut rt = Runtime::new(W::default(), 7);
            rt.spawn("driver", move |env: ProcEnv<W>| {
                env.with(|w, ctx| {
                    w.pending = Some(ctx.schedule_in(Dur::from_nanos(500), target_fire));
                    // Rearm events at cumulative offsets; each retires the
                    // pending target (if still live) and arms a fresh one.
                    let mut t = 0u64;
                    for &(gap, delay) in &plan {
                        t += gap;
                        ctx.schedule_in(Dur::from_nanos(t), move |w: &mut W, ctx| {
                            let prev = w.pending.take();
                            let id = if batched {
                                ctx.reschedule_in(prev, Dur::from_nanos(delay), target_fire)
                            } else {
                                if let Some(p) = prev {
                                    ctx.cancel_counted(p);
                                }
                                ctx.schedule_in(Dur::from_nanos(delay), target_fire)
                            };
                            w.pending = Some(id);
                        });
                    }
                });
                // Outlive the last possible rearm target.
                env.sleep(Dur::from_nanos(plan.iter().map(|&(g, _)| g).sum::<u64>() + 10_000));
            });
            let out = rt.run();
            (out.world.fired, out.events, out.sim_time.as_nanos())
        }
        let a = run(&plan, true);
        let b = run(&plan, false);
        prop_assert_eq!(a, b);
    }
}
