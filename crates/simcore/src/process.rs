//! Virtual-process runtime.
//!
//! Simulated programs (e.g. MPI ranks) run as ordinary blocking Rust code on
//! their own OS threads, but **exactly one thread is runnable at a time**:
//! either the driver (which fires timed events) or a single resumed process.
//! Control passes driver → process on wakeup and process → driver on park.
//! This makes whole simulations deterministic — same seed, same world, same
//! result, bit for bit — while letting workloads be written as
//! straight-line code instead of hand-rolled state machines.
//!
//! Handoff protocol: each process carries a `ProcCtl` holding a one-byte
//! *run token* (`AtomicU8`). Exactly one thread owns the token at any
//! instant; passing it is a single atomic store plus one `Thread::unpark` of
//! the unique peer — `notify_one` by construction, since each direction has
//! exactly one possible waiter (the registered driver/process thread, which
//! debug assertions enforce). The waiter spins briefly, then falls back to
//! `std::thread::park()`; park/unpark's token semantics make lost wakeups
//! impossible. This replaces the old `Mutex<CtlInner>` + `Condvar` protocol,
//! whose two condvar round trips per block/wake cycle dominated figure wall
//! clock (~5–6 µs/event, see EXPERIMENTS.md).
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
//! counts — only the number of driver↔process handoffs differs.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};

use parking_lot::Mutex;

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

/// Run-token states. A plain `AtomicU8` (not an enum behind a mutex): every
/// transition is a single store/swap by the token's current owner.
const CREATED: u8 = 0; // thread spawned, waiting for its first resume
const RUNNING: u8 = 1; // the one thread currently allowed to run
const PARKED: u8 = 2; // blocked in `park`, waiting for RUNNING
const DONE: u8 = 3; // user closure returned (or panicked)

/// How long a waiter spins before falling back to `thread::park()`. On a
/// single-CPU host spinning is pure waste — the peer cannot be scheduled
/// until we block — so the limit is zero there.
fn spin_limit() -> u32 {
    static LIMIT: OnceLock<u32> = OnceLock::new();
    *LIMIT.get_or_init(|| match std::thread::available_parallelism() {
        Ok(n) if n.get() > 1 => 96,
        _ => 0,
    })
}

/// Driver side: block until some process returns the baton. The driver
/// cannot watch any single process's `state` — direct handoffs pass the
/// token between processes without involving it — so releases are signalled
/// through this explicit flag, set only by `park`/`finish`. `swap` consumes
/// the release; a stale unpark permit merely re-runs the check.
fn wait_baton(baton: &AtomicBool) {
    let mut spins = 0;
    while !baton.swap(false, Ordering::AcqRel) {
        if spins < spin_limit() {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::park();
        }
    }
}

/// Per-process handoff control: the run token plus the two thread handles an
/// ownership transfer can target. `notify_one` semantics are structural —
/// `Thread::unpark` wakes exactly one specific thread, and per direction
/// only one thread can ever be waiting (the driver waits only in
/// `wait_baton`, the process thread only in `wait_token_granted`).
struct ProcCtl {
    name: String,
    state: AtomicU8,
    /// The process thread, registered before its first wait. `resume` may
    /// run before registration; then the process has not parked yet and
    /// will observe RUNNING without needing the unpark.
    proc_thread: OnceLock<Thread>,
    /// The driver thread, registered at the top of `Runtime::run`, strictly
    /// before any process can park or finish.
    driver_thread: OnceLock<Thread>,
}

impl ProcCtl {
    fn new(name: String) -> Self {
        ProcCtl {
            name,
            state: AtomicU8::new(CREATED),
            proc_thread: OnceLock::new(),
            driver_thread: OnceLock::new(),
        }
    }

    /// Process side: give the token back to the driver and wait for it to
    /// be granted again. One store + one unpark in each direction. `baton`
    /// is the explicit returned-to-driver flag the driver waits on — it
    /// cannot watch our `state`, because a direct handoff (see
    /// [`ProcCtl::park_to`]) also leaves it PARKED while another process
    /// runs.
    fn park(&self, baton: &AtomicBool) {
        let prev = self.state.swap(PARKED, Ordering::AcqRel);
        debug_assert_eq!(prev, RUNNING, "park by a thread that does not own the token");
        baton.store(true, Ordering::Release);
        self.driver_thread
            .get()
            .expect("driver registers its handle before any process runs")
            .unpark();
        self.wait_token_granted();
    }

    /// Process side: hand the run token directly to `next`, bypassing the
    /// driver entirely, then wait to be granted again. Two context switches
    /// instead of the four a park → driver → resume round trip costs. The
    /// caller must have checked that `next` is parked (or not yet started)
    /// and must leave the driver's baton untouched — the driver stays
    /// blocked, exactly as if the original process were still running.
    fn park_to(&self, next: &ProcCtl) {
        let prev = self.state.swap(PARKED, Ordering::AcqRel);
        debug_assert_eq!(prev, RUNNING, "handoff by a thread that does not own the token");
        let nprev = next.state.swap(RUNNING, Ordering::AcqRel);
        debug_assert!(
            matches!(nprev, PARKED | CREATED),
            "direct handoff to a process that is not waiting for the token"
        );
        if let Some(t) = next.proc_thread.get() {
            t.unpark();
        }
        self.wait_token_granted();
    }

    /// Process side, first entry: register our handle, then wait for the
    /// initial grant.
    fn wait_first_resume(&self) {
        let _ = self.proc_thread.set(std::thread::current());
        self.wait_token_granted();
    }

    fn wait_token_granted(&self) {
        // Single-waiter invariant: the only thread that ever waits for a
        // grant is the registered process thread itself.
        debug_assert!(
            self.proc_thread.get().is_some_and(|t| t.id() == std::thread::current().id()),
            "single-waiter invariant: only the process thread waits for the token"
        );
        let mut spins = 0;
        while self.state.load(Ordering::Acquire) != RUNNING {
            if spins < spin_limit() {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
    }

    /// Driver side: hand the token to this process and block until the baton
    /// comes back to the driver — possibly after a chain of direct
    /// process→process handoffs starting at this process. Returns whether
    /// control was actually transferred (i.e. the process was not already
    /// done).
    fn resume_and_wait(&self, baton: &AtomicBool) -> bool {
        match self.state.load(Ordering::Acquire) {
            DONE => return false,
            s @ (PARKED | CREATED) => {
                let prev = self.state.swap(RUNNING, Ordering::AcqRel);
                debug_assert_eq!(prev, s, "token moved while the driver held it");
                if let Some(t) = self.proc_thread.get() {
                    t.unpark();
                }
            }
            _ => unreachable!("driver resumed a running process"),
        }
        wait_baton(baton);
        true
    }

    /// Process side: final token release. Any panic flag must be published
    /// (see `Shared::any_panicked`) before this, so the driver's acquire of
    /// the baton orders it.
    fn finish(&self, baton: &AtomicBool) {
        let prev = self.state.swap(DONE, Ordering::AcqRel);
        debug_assert_eq!(prev, RUNNING, "finish by a thread that does not own the token");
        baton.store(true, Ordering::Release);
        self.driver_thread
            .get()
            .expect("driver registers its handle before any process runs")
            .unpark();
    }

    fn is_done(&self) -> bool {
        self.state.load(Ordering::Acquire) == DONE
    }

    fn is_parked_or_created(&self) -> bool {
        matches!(self.state.load(Ordering::Acquire), PARKED | CREATED)
    }
}

/// World + scheduler behind one mutex. Only one thread touches it at a time
/// by construction, so there is never contention — the mutex exists to
/// satisfy the borrow checker across threads.
struct Sim<W> {
    world: W,
    ctx: Ctx<W>,
}

struct Shared<W> {
    sim: Mutex<Sim<W>>,
    ctls: Vec<Arc<ProcCtl>>,
    /// Wakes of the current driver batch not yet resumed. The batch lives in
    /// the driver's private buffer, invisible to the scheduler's wake queue,
    /// so the sleep fast path must consult this count too: a process resumed
    /// mid-batch may not advance the clock while batch peers are still
    /// entitled to run at the current time. Synchronized by the run-token
    /// handoff (the driver only writes it while holding every token).
    inflight_wakes: std::sync::atomic::AtomicUsize,
    /// True while the run token is on its way back to the driver (set by
    /// `park`/`finish`, consumed by `wait_baton`). Direct process→process
    /// handoffs leave it false: the driver sleeps through the whole chain.
    baton: AtomicBool,
    /// Any process panicked. Set (before `finish` releases the baton) by the
    /// panicking thread, so the driver's post-resume check is one flag load
    /// instead of an O(ranks) scan over every `ProcCtl`.
    any_panicked: AtomicBool,
}

/// A handle a simulated process uses to touch the shared world, sleep, and
/// block. Cheap to clone would be possible but each process gets exactly one.
pub struct ProcEnv<W> {
    id: ProcId,
    shared: Arc<Shared<W>>,
    ctl: Arc<ProcCtl>,
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
    pub fn park(&self) {
        if self.drive_until_woken() {
            return;
        }
        self.ctl.park(&self.shared.baton);
    }

    /// Inline-driver fast path: instead of handing the run token back, the
    /// parking process fires due events itself — it still owns the token, the
    /// driver is blocked in `wait_baton`, and the lock serializes world
    /// access — reproducing the driver's exact sequence: fire events in
    /// (time, seq) order until a wake appears. A single-wake batch is then
    /// resolved without the driver: a batch of exactly `[self]` is consumed
    /// and we keep running (zero context switches for the hot blocking-recv
    /// cycle); a sole wake for a parked peer becomes a direct token handoff
    /// to it (two switches instead of four). Anything else — a mixed batch,
    /// deadline, an empty queue, batch peers still in flight — defers to the
    /// real driver by parking normally, with every event fired so far
    /// counted exactly as if the driver had fired it. Disabled under the
    /// reference discipline. Returns true when this process was woken.
    fn drive_until_woken(&self) -> bool {
        // Not-yet-resumed peers of the driver's current wake batch must run
        // before any further event fires; only the driver can resume them.
        if self.shared.inflight_wakes.load(Ordering::Acquire) != 0 {
            return false;
        }
        let next = {
            let mut g = self.shared.sim.lock();
            if g.ctx.is_reference() {
                return false;
            }
            loop {
                if g.ctx.has_wakes() {
                    match g.ctx.sole_wake() {
                        Some(p) if p == self.id => {
                            g.ctx.consume_sole_wake();
                            return true;
                        }
                        Some(p) if self.shared.ctls[p.0].is_parked_or_created() => {
                            g.ctx.consume_sole_wake();
                            break p;
                        }
                        // Mixed batch (or a wake aimed at a finished
                        // process): only the driver can run it correctly.
                        _ => return false,
                    }
                }
                match g.ctx.pop_event_due() {
                    crate::sched::Popped::Fired(f) => {
                        let Sim { world, ctx } = &mut *g;
                        f.call(world, ctx);
                    }
                    // Deadline bookkeeping and deadlock detection belong to
                    // the driver; park and let it look at the same state.
                    _ => return false,
                }
            }
            // Lock dropped here: the peer relocks the sim immediately on
            // resume.
        };
        self.ctl.park_to(&self.shared.ctls[next.0]);
        // The token came back: someone consumed a wake batch of `[self]`.
        true
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
    /// thread. Otherwise a real timer is scheduled and the process parks;
    /// while it is parked here, the scheduler suppresses foreign wakes —
    /// they are provably spurious, since this loop re-checks only a private
    /// `done` flag and parks again without touching the world.
    pub fn sleep(&self, d: Dur) {
        if d.is_zero() {
            return;
        }
        if self.shared.inflight_wakes.load(Ordering::Acquire) == 0
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
    /// Driver→process ownership transfers actually performed (diagnostic).
    /// This is the count the runtime overhaul drives down; it differs
    /// between disciplines by design.
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
        let ctls: Vec<Arc<ProcCtl>> = self
            .mains
            .iter()
            .map(|(name, _)| Arc::new(ProcCtl::new(name.clone())))
            .collect();
        let shared = Arc::new(Shared {
            sim: Mutex::new(Sim { world, ctx }),
            ctls,
            inflight_wakes: std::sync::atomic::AtomicUsize::new(0),
            baton: AtomicBool::new(false),
            any_panicked: AtomicBool::new(false),
        });

        // Spawn process threads; each waits for its first resume.
        let mut joins: Vec<JoinHandle<()>> = Vec::with_capacity(self.mains.len());
        for (i, (name, main)) in self.mains.drain(..).enumerate() {
            let ctl = Arc::clone(&shared.ctls[i]);
            let shared2 = Arc::clone(&shared);
            let env = ProcEnv {
                id: ProcId(i),
                shared: Arc::clone(&shared),
                ctl: Arc::clone(&ctl),
                sleep_done: Arc::new(AtomicBool::new(false)),
            };
            let handle = std::thread::Builder::new()
                .name(format!("sim-{name}"))
                .spawn(move || {
                    ctl.wait_first_resume();
                    let result = catch_unwind(AssertUnwindSafe(move || main(env)));
                    if result.is_err() {
                        shared2.any_panicked.store(true, Ordering::Release);
                    }
                    ctl.finish(&shared2.baton);
                    if let Err(payload) = result {
                        // Preserve the panic message in test output; the
                        // driver aborts the run when it notices.
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic".into());
                        eprintln!("simulated process panicked: {msg}");
                    }
                })
                .expect("failed to spawn process thread");
            joins.push(handle);
        }

        // Register the driver's handle before any process can park or
        // finish, then seed: every process gets an initial wakeup, in id
        // order. The discipline is whatever this thread selected.
        for ctl in &shared.ctls {
            let _ = ctl.driver_thread.set(std::thread::current());
        }
        {
            let mut g = shared.sim.lock();
            g.ctx.set_reference(reference_discipline());
            g.ctx.set_deadline(self.deadline);
            g.ctx.set_tracer(self.tracer.take());
            for (at, f) in self.pre_events.drain(..) {
                g.ctx.schedule_at(at, f);
            }
            for i in 0..shared.ctls.len() {
                g.ctx.wake(ProcId(i));
            }
        }

        let mut hit_deadline = false;
        let mut handoffs: u64 = 0;
        let mut wake_buf: Vec<ProcId> = Vec::new();
        'driver: loop {
            // Drain wakeups first: same-timestamp readiness beats timers.
            // Batches repeat until no wake is pending; wakes issued during a
            // batch land in the next one (see `take_wakes_into`).
            loop {
                shared.sim.lock().ctx.take_wakes_into(&mut wake_buf);
                if wake_buf.is_empty() {
                    break;
                }
                shared.inflight_wakes.store(wake_buf.len(), Ordering::Release);
                for p in &wake_buf {
                    // The process we are about to resume no longer counts as
                    // in flight; only not-yet-resumed batch peers gate the
                    // sleep fast path.
                    shared.inflight_wakes.fetch_sub(1, Ordering::Release);
                    let ctl = &shared.ctls[p.0];
                    if ctl.resume_and_wait(&shared.baton) {
                        handoffs += 1;
                    }
                    // The baton may have hopped through several processes
                    // before returning; any of them could have panicked.
                    if shared.any_panicked.load(Ordering::Acquire) {
                        break 'driver;
                    }
                }
            }

            if shared.ctls.iter().all(|c| c.is_done()) {
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
                let stuck: Vec<&str> = shared
                    .ctls
                    .iter()
                    .filter(|c| c.is_parked_or_created())
                    .map(|c| c.name.as_str())
                    .collect();
                panic!("simulation deadlock: no pending events, processes still blocked: {stuck:?}");
            }
        }

        let panicked = shared.any_panicked.load(Ordering::Acquire);

        // On deadline or panic, stranded threads are parked forever; we must
        // not join them. In the normal path all are done and join cleanly.
        if !hit_deadline && !panicked {
            for j in joins {
                let _ = j.join();
            }
        } else {
            std::mem::forget(joins);
        }

        if panicked {
            panic!("a simulated process panicked; see stderr for details");
        }

        let shared = match Arc::try_unwrap(shared) {
            Ok(s) => s,
            Err(arc) => {
                // Threads stranded by a deadline still hold clones; steal the
                // world by swapping. Safe: they are parked and will never run.
                let g = arc.sim.lock();
                let events = g.ctx.events_fired();
                let sim_time = g.ctx.now();
                // This path only happens on deadline; require W: Default?
                // Avoid that bound: panic with a clear message instead.
                drop(g);
                let _ = arc;
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
    #[should_panic(expected = "simulated process panicked")]
    fn process_panic_propagates() {
        let mut rt = Runtime::new(W::default(), 1);
        rt.spawn("boom", |_env: ProcEnv<W>| {
            panic!("intentional test panic");
        });
        rt.run();
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
