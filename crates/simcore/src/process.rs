//! Virtual-process runtime.
//!
//! Simulated programs (e.g. MPI ranks) are ordinary blocking Rust code. Each
//! runs as a stackful coroutine (the private `coro` module) on the thread
//! that calls [`Runtime::run`], and **exactly one of them runs at a time**:
//! either the driver loop (which fires timed events) or a single resumed
//! process. Control passes driver → process on wakeup and process → driver
//! on park, each a stack-pointer switch of a few instructions. This makes
//! whole simulations deterministic — same seed, same world, same result,
//! bit for bit — while letting workloads be written as straight-line code
//! instead of hand-rolled state machines.
//!
//! Why not an OS thread per process, the earlier design: every park and
//! resume then passed a run token between threads. On the benchmark's
//! traced `farm` workload (2-vCPU Xeon VM) that cost about 140 voluntary
//! context switches per 1000 events, 21 % of CPU time in the kernel and
//! 0.6–7.5 µs per two-process park/wake round trip; coroutines measure 0,
//! about 1 % and about 0.26 µs (EXPERIMENTS.md, "Ranks as coroutines").
//!
//! Why not `async fn` processes: the blocking API — [`ProcEnv::block_on`],
//! [`ProcEnv::park`], and the MPI calls and `mpirun` bodies built on them —
//! is called directly by code outside this workspace (the benchmark), so it
//! must stay blocking. A stackful coroutine keeps it and still removes every
//! thread switch.
//!
//! Wakeup discipline: a parked process is resumed only via
//! [`crate::sched::Ctx::wake`]. Wakeups may be *spurious* from the waiter's
//! perspective, so all waiting code must follow condition-variable style:
//! re-check the condition after every park. [`ProcEnv::block_on`] encodes
//! that pattern. The scheduler additionally *suppresses* the one class of
//! wake it can prove spurious (wakes aimed at a process inside a CPU-charge
//! [`ProcEnv::sleep`]) and satisfies quiescent sleeps with an inline clock
//! advance; `set_reference_discipline` restores the original
//! one-resume-per-wake accounting for `SIM_CHECK` shadow runs. Both
//! disciplines produce bit-identical worlds, simulated times, and event
//! counts — only the number of driver→process resumes differs.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::coro::{Coroutine, Yielder};
use crate::rng::derive_rng;
use crate::sched::Ctx;
use crate::time::{Dur, SimTime};

thread_local! {
    static REFERENCE_DISCIPLINE: Cell<bool> = const { Cell::new(false) };
}

/// Select the wakeup discipline for `Runtime::run` calls made **on this
/// thread**: `true` re-enables the reference (pre-coalescing) accounting —
/// every wake resumes its target and every sleep is a timer + park — which
/// `SIM_CHECK=1` shadow runs compare against. Thread-local so parallel bench
/// workers can shadow-check cells independently.
pub fn set_reference_discipline(on: bool) {
    REFERENCE_DISCIPLINE.with(|c| c.set(on));
}

/// The discipline `Runtime::run` would pick up on this thread.
pub fn reference_discipline() -> bool {
    REFERENCE_DISCIPLINE.with(|c| c.get())
}

/// Identifies a simulated process within one [`Runtime`]. Process ids are
/// assigned densely from zero in spawn order, so MPI ranks map directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub usize);

/// World + scheduler behind one mutex. Only one process or the driver runs
/// at a time, so there is never contention — the mutex keeps `ProcEnv`
/// `Send` and `Sync` without asserting anything unsafe about `W`.
struct Sim<W> {
    world: W,
    ctx: Ctx<W>,
}

struct Shared<W> {
    sim: Mutex<Sim<W>>,
    /// Wakes of the current driver batch not yet resumed. The batch lives in
    /// the driver's private buffer, invisible to the scheduler's wake queue,
    /// so the sleep fast path must consult this count too: a process resumed
    /// mid-batch may not advance the clock while batch peers are still
    /// entitled to run at the current time. Only the driver's thread, on
    /// which every process runs, touches it, so `Relaxed` suffices.
    inflight_wakes: AtomicUsize,
}

/// A handle a simulated process uses to touch the shared world, sleep, and
/// block. Cheap to clone would be possible but each process gets exactly one.
pub struct ProcEnv<W> {
    id: ProcId,
    shared: Arc<Shared<W>>,
    /// Suspends this process's coroutine back to the driver.
    yielder: Yielder,
    /// Completion flag reused by every timed [`sleep`](Self::sleep) this
    /// process performs (at most one is in flight at a time), so a sleep
    /// costs an `Arc` clone instead of an allocation.
    sleep_done: Arc<AtomicBool>,
}

impl<W: Send + 'static> ProcEnv<W> {
    /// This process's id (== its MPI rank in the middleware).
    #[inline]
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.shared.sim.lock().ctx.now()
    }

    /// Run `f` with exclusive access to the world and scheduler.
    ///
    /// Do not call `with` re-entrantly from inside `f` — the lock is not
    /// re-entrant and doing so deadlocks (caught only at runtime).
    pub fn with<R>(&self, f: impl FnOnce(&mut W, &mut Ctx<W>) -> R) -> R {
        let mut g = self.shared.sim.lock();
        let Sim { world, ctx } = &mut *g;
        f(world, ctx)
    }

    /// Yield to the driver until someone calls `ctx.wake(self.id())`.
    ///
    /// May return spuriously (see module docs); re-check your condition.
    /// Panics if called from anywhere but this process's own body.
    pub fn park(&self) {
        self.yielder.suspend();
    }

    /// Block until `poll` returns `Some`. `poll` runs under the world lock
    /// and is responsible for registering this process wherever the eventual
    /// wake will come from (waiter lists, timers, ...).
    pub fn block_on<R>(&self, mut poll: impl FnMut(&mut W, &mut Ctx<W>) -> Option<R>) -> R {
        loop {
            if let Some(r) = self.with(&mut poll) {
                return r;
            }
            self.park();
        }
    }

    /// Advance this process's local time by `d` without doing anything —
    /// models computation or CPU charges. Simulated time continues for the
    /// network and for other processes.
    ///
    /// Consecutive CPU charges batch: when the simulation is quiescent (no
    /// pending wakes, no event due at or before `now + d`, deadline not
    /// crossed) the clock advances inline and control never leaves this
    /// process. Otherwise a real timer is scheduled and the process parks;
    /// while it is parked here, the scheduler suppresses foreign wakes —
    /// they are provably spurious, since this loop re-checks only a private
    /// `done` flag and parks again without touching the world.
    pub fn sleep(&self, d: Dur) {
        if d.is_zero() {
            return;
        }
        if self.shared.inflight_wakes.load(Ordering::Relaxed) == 0
            && self.with(|_, ctx| ctx.try_advance_sleep(d))
        {
            return;
        }
        let done = &self.sleep_done;
        done.store(false, Ordering::Release);
        let done2 = Arc::clone(done);
        let id = self.id;
        self.with(move |_, ctx| {
            ctx.begin_sleep(id);
            ctx.schedule_in(d, move |_, ctx| {
                done2.store(true, Ordering::Release);
                ctx.finish_sleep_and_wake(id);
            });
        });
        while !done.load(Ordering::Acquire) {
            self.park();
        }
    }

    /// Let every other currently-runnable process run before continuing.
    pub fn yield_now(&self) {
        let id = self.id;
        self.with(|_, ctx| ctx.wake(id));
        self.park();
    }
}

/// Outcome of a completed simulation run.
#[derive(Debug)]
pub struct RunOutcome<W> {
    /// Final world state.
    pub world: W,
    /// Simulated time at which the last process finished (or the deadline).
    pub sim_time: SimTime,
    /// Total events fired (diagnostic). Identical under both wakeup
    /// disciplines: inline-advanced sleeps count their skipped timer.
    pub events: u64,
    /// Switches from the driver into a process (diagnostic): every resume
    /// of an unfinished process, the only way control enters one. It differs
    /// between disciplines by design: wake suppression and inline sleeps
    /// avoid resumes the reference discipline performs.
    pub handoffs: u64,
    /// Wakes that never became a handoff: suppressed spurious wakes plus
    /// sleeps satisfied by the inline fast path (diagnostic).
    pub wakes_coalesced: u64,
    /// True if the run was cut short by the deadline.
    pub hit_deadline: bool,
    /// Packet trains emitted through the burst path (diagnostic; zero under
    /// the reference discipline by design).
    pub bursts_total: u64,
    /// Packets carried inside those trains; each still counts in `events`.
    pub pkts_fused: u64,
    /// Always 0: the event queue has no timer wheel (see [`Ctx::wheel_hits`]).
    pub wheel_hits: u64,
    /// Events pushed onto the event heap (see [`Ctx::heap_falls`]).
    pub heap_falls: u64,
}

type ProcMain<W> = Box<dyn FnOnce(ProcEnv<W>) + Send + 'static>;

/// Builds and drives one simulation: a world, a scheduler, and a set of
/// virtual processes.
type PreEvent<W> = (SimTime, Box<dyn FnOnce(&mut W, &mut Ctx<W>) + Send + 'static>);

pub struct Runtime<W> {
    world: Option<W>,
    seed: u64,
    mains: Vec<(String, ProcMain<W>)>,
    deadline: SimTime,
    pre_events: Vec<PreEvent<W>>,
    tracer: Option<trace::Tracer>,
}

impl<W: Send + 'static> Runtime<W> {
    /// Create a runtime over `world`, deriving all randomness from `seed`.
    pub fn new(world: W, seed: u64) -> Self {
        Runtime {
            world: Some(world),
            seed,
            mains: Vec::new(),
            deadline: SimTime::MAX,
            pre_events: Vec::new(),
            tracer: None,
        }
    }

    /// Abort the run (returning `hit_deadline = true`) if simulated time
    /// would pass `deadline`. Guards against runaway simulations in tests.
    pub fn set_deadline(&mut self, deadline: SimTime) {
        self.deadline = deadline;
    }

    /// Install a flight recorder; it is handed to the scheduler context
    /// before the first process runs, so every event of the run is visible
    /// to the hooks. Tracing never perturbs the simulation (see
    /// [`Ctx::trace_emit`]).
    pub fn set_tracer(&mut self, tracer: Option<trace::Tracer>) {
        self.tracer = tracer;
    }

    /// Register a process. Ids are assigned densely in spawn order.
    pub fn spawn(&mut self, name: impl Into<String>, f: impl FnOnce(ProcEnv<W>) + Send + 'static) -> ProcId {
        let id = ProcId(self.mains.len());
        self.mains.push((name.into(), Box::new(f)));
        id
    }

    /// Schedule an event before the run starts (watchdogs, fault injection).
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut W, &mut Ctx<W>) + Send + 'static) {
        self.pre_events.push((at, Box::new(f)));
    }

    /// Drive the simulation to completion: all processes finished, or
    /// deadlock (panics), or deadline.
    pub fn run(mut self) -> RunOutcome<W> {
        let world = self.world.take().expect("run() called twice");
        let ctx = Ctx::new(derive_rng(self.seed, u64::MAX));
        let shared = Arc::new(Shared {
            sim: Mutex::new(Sim { world, ctx }),
            inflight_wakes: AtomicUsize::new(0),
        });

        // Every process gets a coroutine that starts at its first resume.
        let mut procs: Vec<(String, Coroutine)> = self
            .mains
            .drain(..)
            .enumerate()
            .map(|(i, (name, main))| {
                let shared = Arc::clone(&shared);
                let body = move |yielder| {
                    let sleep_done = Arc::new(AtomicBool::new(false));
                    main(ProcEnv { id: ProcId(i), shared, yielder, sleep_done })
                };
                (name, Coroutine::new(Box::new(body)))
            })
            .collect();

        // Seed: every process gets an initial wakeup, in id order. The
        // discipline is whatever this thread selected.
        {
            let mut g = shared.sim.lock();
            g.ctx.set_reference(reference_discipline());
            g.ctx.set_deadline(self.deadline);
            g.ctx.set_tracer(self.tracer.take());
            for (at, f) in self.pre_events.drain(..) {
                g.ctx.schedule_at(at, f);
            }
            for i in 0..procs.len() {
                g.ctx.wake(ProcId(i));
            }
        }

        let mut live = procs.len();
        let mut hit_deadline = false;
        let mut handoffs: u64 = 0;
        let mut wake_buf: Vec<ProcId> = Vec::new();
        loop {
            // Drain wakeups first: same-timestamp readiness beats timers.
            // Batches repeat until no wake is pending; wakes issued during a
            // batch land in the next one (see `take_wakes_into`).
            loop {
                shared.sim.lock().ctx.take_wakes_into(&mut wake_buf);
                if wake_buf.is_empty() {
                    break;
                }
                shared.inflight_wakes.store(wake_buf.len(), Ordering::Relaxed);
                for p in &wake_buf {
                    // The process we are about to resume no longer counts as
                    // in flight; only not-yet-resumed batch peers gate the
                    // sleep fast path.
                    shared.inflight_wakes.fetch_sub(1, Ordering::Relaxed);
                    let (name, co) = &mut procs[p.0];
                    if co.is_finished() {
                        continue;
                    }
                    handoffs += 1;
                    match co.resume() {
                        None => {}
                        Some(Ok(())) => live -= 1,
                        // Peers stay suspended, and their stacks leak
                        // with everything on them (see `Coroutine`'s Drop).
                        Some(Err(payload)) => {
                            let msg = payload
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "non-string panic".into());
                            panic!("simulated process panicked: {name}: {msg}");
                        }
                    }
                }
            }

            if live == 0 {
                break;
            }

            // Fire a run of timed events back to back under one lock
            // acquisition, stopping as soon as an event makes a process
            // runnable — the reference discipline resumes it before firing
            // the next event, and so must we for bit-identical worlds.
            let fired_any = {
                let mut g = shared.sim.lock();
                let mut fired = false;
                loop {
                    if g.ctx.has_wakes() {
                        break;
                    }
                    match g.ctx.pop_event_due() {
                        crate::sched::Popped::Fired(f) => {
                            let Sim { world, ctx } = &mut *g;
                            f.call(world, ctx);
                            fired = true;
                        }
                        crate::sched::Popped::PastBound => {
                            hit_deadline = true;
                            break;
                        }
                        crate::sched::Popped::Empty => break,
                    }
                }
                fired
            };

            if fired_any {
                continue;
            }
            if hit_deadline {
                break;
            }

            // No wakes, no events, processes still alive: deadlock.
            if !shared.sim.lock().ctx.has_wakes() {
                let stuck: Vec<&str> = procs
                    .iter()
                    .filter(|(_, co)| !co.is_finished())
                    .map(|(name, _)| name.as_str())
                    .collect();
                panic!("simulation deadlock: no pending events, processes still blocked: {stuck:?}");
            }
        }

        // Finished coroutines free their stacks; processes stranded by the
        // deadline keep theirs, and with them their `Arc` of the world.
        drop(procs);
        let shared = match Arc::try_unwrap(shared) {
            Ok(s) => s,
            Err(arc) => {
                let (sim_time, events) = {
                    let g = arc.sim.lock();
                    (g.ctx.now(), g.ctx.events_fired())
                };
                panic!(
                    "deadline hit at {sim_time} after {events} events; \
                     world cannot be recovered from a deadline-aborted run"
                );
            }
        };
        let sim = shared.sim.into_inner();
        RunOutcome {
            sim_time: sim.ctx.now(),
            events: sim.ctx.events_fired(),
            handoffs,
            wakes_coalesced: sim.ctx.wakes_coalesced(),
            bursts_total: sim.ctx.bursts(),
            pkts_fused: sim.ctx.fused_pkts(),
            wheel_hits: sim.ctx.wheel_hits(),
            heap_falls: sim.ctx.heap_falls(),
            world: sim.world,
            hit_deadline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct W {
        log: Vec<String>,
    }

    /// `ProcEnv` stays `Send`, `Sync` and unwind-safe although it holds a
    /// raw coroutine handle: callers may rely on all of them.
    #[test]
    fn proc_env_keeps_its_auto_traits() {
        fn assert_traits<T: Send + Sync + Unpin + std::panic::UnwindSafe + std::panic::RefUnwindSafe>() {}
        assert_traits::<ProcEnv<W>>();
    }

    #[test]
    fn single_process_runs_to_completion() {
        let mut rt = Runtime::new(W::default(), 1);
        rt.spawn("p0", |env: ProcEnv<W>| {
            env.with(|w, _| w.log.push("hello".into()));
        });
        let out = rt.run();
        assert_eq!(out.world.log, vec!["hello"]);
        assert_eq!(out.sim_time, SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_time() {
        let mut rt = Runtime::new(W::default(), 1);
        rt.spawn("p0", |env: ProcEnv<W>| {
            env.sleep(Dur::from_millis(250));
            assert_eq!(env.now(), SimTime::ZERO + Dur::from_millis(250));
        });
        let out = rt.run();
        assert_eq!(out.sim_time, SimTime::ZERO + Dur::from_millis(250));
    }

    #[test]
    fn processes_interleave_deterministically() {
        fn run_once() -> Vec<String> {
            let mut rt = Runtime::new(W::default(), 7);
            for p in 0..4 {
                rt.spawn(format!("p{p}"), move |env: ProcEnv<W>| {
                    for step in 0..3 {
                        env.sleep(Dur::from_millis(10 * (p as u64 + 1)));
                        env.with(|w, _| w.log.push(format!("p{p}.{step}")));
                    }
                });
            }
            rt.run().world.log
        }
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "same seed must give identical interleavings");
        assert_eq!(a.len(), 12);
        assert_eq!(a[0], "p0.0", "shortest sleeper logs first");
    }

    #[test]
    fn block_on_wakes_from_event() {
        struct Flag {
            ready: bool,
        }
        let mut rt = Runtime::new(Flag { ready: false }, 1);
        rt.spawn("waiter", |env: ProcEnv<Flag>| {
            let id = env.id();
            // Arrange for an event to set the flag and wake us.
            env.with(move |_, ctx| {
                ctx.schedule_in(Dur::from_secs(1), move |w: &mut Flag, ctx| {
                    w.ready = true;
                    ctx.wake(id);
                });
            });
            env.block_on(|w, _| if w.ready { Some(()) } else { None });
            assert_eq!(env.now(), SimTime::ZERO + Dur::from_secs(1));
        });
        let out = rt.run();
        assert!(out.world.ready);
    }

    #[test]
    fn two_processes_ping_pong_via_world() {
        // p0 waits for a token p1 deposits after 5ms; then p0 responds and
        // p1 waits for the response. Exercises wake() round trips.
        #[derive(Default)]
        struct Mailbox {
            to_p0: Option<u32>,
            to_p1: Option<u32>,
        }
        let mut rt = Runtime::new(Mailbox::default(), 3);
        rt.spawn("p0", |env: ProcEnv<Mailbox>| {
            let v = env.block_on(|w, _| w.to_p0.take());
            env.with(|w, ctx| {
                w.to_p1 = Some(v + 1);
                ctx.wake(ProcId(1));
            });
        });
        rt.spawn("p1", |env: ProcEnv<Mailbox>| {
            env.sleep(Dur::from_millis(5));
            env.with(|w, ctx| {
                w.to_p0 = Some(41);
                ctx.wake(ProcId(0));
            });
            let v = env.block_on(|w, _| w.to_p1.take());
            assert_eq!(v, 42);
        });
        rt.run();
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let mut rt = Runtime::new(W::default(), 1);
        rt.spawn("stuck", |env: ProcEnv<W>| {
            env.park(); // nothing will ever wake us
        });
        rt.run();
    }

    #[test]
    fn process_panic_propagates() {
        fn run_panic_message(rt: Runtime<W>) -> String {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || rt.run()))
                .err()
                .expect("the run must panic");
            payload.downcast_ref::<String>().cloned().unwrap_or_default()
        }

        // The only process panics.
        let mut rt = Runtime::new(W::default(), 1);
        rt.spawn("boom", |_env: ProcEnv<W>| {
            panic!("intentional test panic");
        });
        let msg = run_panic_message(rt);
        assert!(msg.contains("simulated process panicked"), "{msg}");
        assert!(msg.contains("boom: intentional test panic"), "{msg}");

        // A process panics while its peers are parked.
        let mut rt = Runtime::new(W::default(), 1);
        for p in 0..3 {
            rt.spawn(format!("parked{p}"), |env: ProcEnv<W>| env.park());
        }
        rt.spawn("late", |env: ProcEnv<W>| {
            env.sleep(Dur::from_millis(1));
            panic!("intentional peer panic");
        });
        let msg = run_panic_message(rt);
        assert!(msg.contains("simulated process panicked"), "{msg}");
        assert!(msg.contains("late: intentional peer panic"), "{msg}");
    }

    #[test]
    fn yield_now_lets_peers_run() {
        let mut rt = Runtime::new(W::default(), 1);
        rt.spawn("a", |env: ProcEnv<W>| {
            env.with(|w, _| w.log.push("a1".into()));
            env.yield_now();
            env.with(|w, _| w.log.push("a2".into()));
        });
        rt.spawn("b", |env: ProcEnv<W>| {
            env.with(|w, _| w.log.push("b1".into()));
        });
        let out = rt.run();
        assert_eq!(out.world.log, vec!["a1", "b1", "a2"]);
    }

    #[test]
    fn spurious_wake_does_not_break_sleep() {
        // A process sleeping 100ms gets woken at 10ms by an unrelated event;
        // sleep must still take the full 100ms.
        let mut rt = Runtime::new(W::default(), 1);
        rt.spawn("sleeper", |env: ProcEnv<W>| {
            let id = env.id();
            env.with(move |_, ctx| {
                ctx.schedule_in(Dur::from_millis(10), move |_, ctx| ctx.wake(id));
            });
            env.sleep(Dur::from_millis(100));
            assert_eq!(env.now(), SimTime::ZERO + Dur::from_millis(100));
        });
        rt.run();
    }
}
