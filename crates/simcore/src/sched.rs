//! The discrete-event scheduler.
//!
//! [`Ctx<W>`] is the handle every event callback and every world-access
//! closure receives alongside `&mut W`. It provides the current simulated
//! time, timer scheduling/cancellation, process wakeups, and the master RNG.
//!
//! Determinism: events at equal timestamps fire in insertion order (a
//! monotonic sequence number breaks ties), and process wakeups drain FIFO.
//!
//! # Queue structure
//!
//! Live events sit in one binary heap of small `Copy` keys ordered by
//! (time, seq), so the earliest event is the heap top and every insert or
//! pop is O(log n). Event payloads live in a slab of reusable slots, with
//! the closure stored *inline* in the slot when it fits (`INLINE_WORDS`
//! words): the dominant short-horizon timers allocate nothing at all, and
//! oversized closures degrade to one boxed allocation. [`TimerId`] is a
//! (slot, generation) pair, so `cancel` is O(1): it drops the closure,
//! frees the slot and bumps the generation. The stale key it leaves in the
//! heap is discarded when it reaches the top, and compaction bounds how
//! many stale keys the heap carries.
//!
//! A second heap holds the ghost keys of [`Ctx::cancel_counted`] timers
//! (see there). It stays separate so that the common short timers never
//! pay log(#ghosts) on their push and pop.
//!
//! There is no timer wheel. A two-level hashed wheel (4096 buckets at
//! 8.2 µs and at 2.1 ms grain) with this heap as a third tier used to sit
//! in front of it. Measured with `perfbench` on a 2-vCPU VM, the heap alone
//! costs the same CPU or less on every simulator workload and less memory
//! on all of them, and the scheduler's traced cost per event fell on each
//! (incast: 101 → 69 ns). EXPERIMENTS.md has the table.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};

use crate::fxhash::FxHashSet;

use rand::rngs::SmallRng;

use crate::process::ProcId;
use crate::time::{Dur, SimTime};

/// Identifies a scheduled timer so it can be cancelled. Packs the slab slot
/// index and its generation; cancelling a fired or already-cancelled timer
/// is a generation mismatch and a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

impl TimerId {
    fn pack(idx: u32, gen: u32) -> TimerId {
        TimerId(((idx as u64) << 32) | gen as u64)
    }

    fn unpack(self) -> (u32, u32) {
        ((self.0 >> 32) as u32, self.0 as u32)
    }
}

// ---------------------------------------------------------------------------
// Inline event storage
// ---------------------------------------------------------------------------

/// Words of inline closure storage per slab slot. Sized so a packet-delivery
/// closure (which captures the packet by value) fits; larger captures fall
/// back to one boxed allocation.
const INLINE_WORDS: usize = 18;

type Buf = [MaybeUninit<usize>; INLINE_WORDS];

type BoxedFn<W> = Box<dyn FnOnce(&mut W, &mut Ctx<W>) + Send>;

/// A type-erased `FnOnce(&mut W, &mut Ctx<W>)` stored inline when it fits.
///
/// Invariant: `buf` holds an initialized value of the closure type the two
/// function pointers were instantiated for. `invoke` consumes it; `Drop`
/// runs its destructor if it was never invoked (cancelled timers).
struct InlineEvent<W> {
    call: unsafe fn(*mut Buf, &mut W, &mut Ctx<W>),
    drop_in_place: unsafe fn(*mut Buf),
    buf: Buf,
}

unsafe fn call_thunk<W, F: FnOnce(&mut W, &mut Ctx<W>)>(buf: *mut Buf, w: &mut W, ctx: &mut Ctx<W>) {
    // Safety: caller guarantees `buf` holds an initialized `F`; the value is
    // moved out here and must not be dropped again.
    let f: F = unsafe { (buf as *mut F).read() };
    f(w, ctx)
}

unsafe fn drop_thunk<F>(buf: *mut Buf) {
    // Safety: caller guarantees `buf` holds an initialized `F`.
    unsafe { std::ptr::drop_in_place(buf as *mut F) }
}

impl<W> InlineEvent<W> {
    fn pack<F: FnOnce(&mut W, &mut Ctx<W>) + Send + 'static>(f: F) -> InlineEvent<W> {
        // Safety: an array of `MaybeUninit` needs no initialization.
        let mut buf: Buf = unsafe { MaybeUninit::uninit().assume_init() };
        if size_of::<F>() <= size_of::<Buf>() && align_of::<F>() <= align_of::<Buf>() {
            // Safety: size/align checked; `buf` owns the value from here on.
            unsafe { (buf.as_mut_ptr() as *mut F).write(f) };
            InlineEvent { call: call_thunk::<W, F>, drop_in_place: drop_thunk::<F>, buf }
        } else {
            let b: BoxedFn<W> = Box::new(f);
            debug_assert!(size_of::<BoxedFn<W>>() <= size_of::<Buf>());
            // Safety: a fat Box pointer always fits the buffer.
            unsafe { (buf.as_mut_ptr() as *mut BoxedFn<W>).write(b) };
            InlineEvent {
                call: call_thunk::<W, BoxedFn<W>>,
                drop_in_place: drop_thunk::<BoxedFn<W>>,
                buf,
            }
        }
    }

    fn invoke(self, w: &mut W, ctx: &mut Ctx<W>) {
        let mut this = ManuallyDrop::new(self);
        // Safety: the invariant says `buf` is initialized for `call`'s type;
        // `ManuallyDrop` prevents the destructor from double-dropping the
        // value `call` moves out.
        unsafe { (this.call)(&mut this.buf, w, ctx) }
    }
}

impl<W> Drop for InlineEvent<W> {
    fn drop(&mut self) {
        // Safety: only reached when `invoke` never ran, so `buf` still holds
        // the initialized closure.
        unsafe { (self.drop_in_place)(&mut self.buf) }
    }
}

/// An event popped from the queue, ready to run exactly once.
pub(crate) struct FiredEvent<W>(InlineEvent<W>);

impl<W> FiredEvent<W> {
    pub(crate) fn call(self, w: &mut W, ctx: &mut Ctx<W>) {
        self.0.invoke(w, ctx)
    }
}

/// Result of a bound-respecting pop: one scan answers all three questions
/// the driver loop asks per event (anything queued? due before the
/// deadline? then pop it).
pub(crate) enum Popped<W> {
    /// The queue minimum, removed; the clock has advanced to it.
    Fired(FiredEvent<W>),
    /// The queue minimum lies past the bound; nothing was removed.
    PastBound,
    /// No live events queued.
    Empty,
}

// ---------------------------------------------------------------------------
// Heap + slab
// ---------------------------------------------------------------------------

/// Ordering key of one queued event. `Copy`, so stale (cancelled) keys cost
/// nothing to carry and nothing to skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    idx: u32,
    gen: u32,
}

/// One slab slot: generation tag plus the (possibly inline) event payload.
struct Slot<W> {
    gen: u32,
    occupied: bool,
    /// The (time, seq) the live key was inserted under, so
    /// [`Ctx::cancel_counted`] can reconstruct the ghost key without
    /// searching the heap. Valid while `occupied`.
    at: SimTime,
    seq: u64,
    ev: MaybeUninit<InlineEvent<W>>,
}

/// Scheduler context: simulated clock, event queue, wake queue, RNG.
pub struct Ctx<W> {
    now: SimTime,
    seq: u64,
    slots: Vec<Slot<W>>,
    free: Vec<u32>,
    /// Keys of every scheduled event, stale (cancelled) keys included.
    heap: BinaryHeap<Reverse<Key>>,
    /// Stale keys currently in the heap; bounded by compaction.
    heap_dead: usize,
    /// Ghost keys of batch-cancelled timers ([`Ctx::cancel_counted`] /
    /// [`Ctx::reschedule_in`]). Under the abandon-and-check discipline each
    /// of these would still be a queued no-op event that fires, counts in
    /// `events_fired`, and gates the inline fast paths; the ghost heap
    /// reproduces all three for the price of a 16-byte key, so figure
    /// outputs and event counts stay bit-identical while the slab slot and
    /// the closure dispatch are reclaimed immediately.
    ghosts: BinaryHeap<Reverse<(SimTime, u64)>>,
    wake_fifo: VecDeque<ProcId>,
    wake_pending: FxHashSet<ProcId>,
    /// `sleeping[p]` is true while process `p` is parked inside
    /// [`crate::ProcEnv::sleep`]. A wake delivered to a sleeping process is
    /// provably spurious — the sleep loop only re-checks a private `done`
    /// flag that nothing but its own timer can set, then parks again without
    /// touching the world — so the fast discipline drops such wakes instead
    /// of paying a resume/park round trip for them.
    sleeping: Vec<bool>,
    /// Reference discipline: disable wake suppression, the sleep fast path,
    /// and packet-train fusion, reproducing the original one-event-per-packet
    /// accounting. Used by `SIM_CHECK=1` shadow runs and the equivalence
    /// proptests.
    reference: bool,
    /// Runtime deadline, mirrored here so the inline fast paths never advance
    /// the clock past the point where the driver would abort the run.
    deadline: SimTime,
    wakes_suppressed: u64,
    sleep_fastpaths: u64,
    heap_falls: u64,
    bursts: u64,
    fused_pkts: u64,
    /// Abandoned-timer fires elided by the ghost heap (each still counted
    /// in `events_fired`).
    ghost_fires: u64,
    /// Master RNG for the simulation. Components that need reproducible
    /// independent streams should use [`crate::rng::derive_rng`] instead and
    /// keep their own generator; this one is for ad-hoc draws (e.g. link loss).
    pub rng: SmallRng,
    events_fired: u64,
    /// Flight recorder, if tracing is enabled for this run. Hooks must be
    /// read-only with respect to simulation state: no RNG draws, no event
    /// scheduling — outputs stay bit-identical with tracing on or off.
    tracer: Option<trace::Tracer>,
}

impl<W> Ctx<W> {
    pub(crate) fn new(rng: SmallRng) -> Self {
        Ctx {
            now: SimTime::ZERO,
            seq: 0,
            slots: Vec::new(),
            free: Vec::new(),
            heap: BinaryHeap::new(),
            heap_dead: 0,
            ghosts: BinaryHeap::new(),
            wake_fifo: VecDeque::new(),
            wake_pending: FxHashSet::default(),
            sleeping: Vec::new(),
            reference: false,
            deadline: SimTime::MAX,
            wakes_suppressed: 0,
            sleep_fastpaths: 0,
            heap_falls: 0,
            bursts: 0,
            fused_pkts: 0,
            ghost_fires: 0,
            rng,
            events_fired: 0,
            tracer: None,
        }
    }

    pub(crate) fn set_tracer(&mut self, tracer: Option<trace::Tracer>) {
        self.tracer = tracer;
    }

    /// Build a standalone context for an external driver — the real-socket
    /// reactor, which owns its own loop instead of a [`crate::Runtime`].
    /// The caller advances virtual time explicitly with [`Ctx::run_due`];
    /// nothing here runs or parks simulated processes.
    pub fn standalone(rng: SmallRng) -> Self {
        Ctx::new(rng)
    }

    /// Install (or remove) the flight recorder on a standalone context.
    /// Drivers built on [`crate::Runtime`] use `Runtime::set_tracer`
    /// instead; this is the seam for external reactors.
    pub fn install_tracer(&mut self, tracer: Option<trace::Tracer>) {
        self.set_tracer(tracer);
    }

    /// Fire every queued event due at or before `bound` (in (time, seq)
    /// order, advancing the clock to each event's timestamp), then advance
    /// the clock to `bound` itself. Returns the number of events fired.
    ///
    /// This is the timer pump of the real-socket reactor: `bound` is the
    /// wall clock translated to virtual nanoseconds, so engine timers (RTO,
    /// delayed SACK, heartbeats) fire when real time passes them, and
    /// everything scheduled afterwards is relative to wall time. Events
    /// fired here may schedule further events; those are honored within the
    /// same call when they fall inside `bound`.
    pub fn run_due(&mut self, w: &mut W, bound: SimTime) -> u64 {
        let mut fired = 0u64;
        loop {
            match self.pop_next(bound) {
                Popped::Fired(ev) => {
                    ev.call(w, self);
                    fired += 1;
                }
                Popped::PastBound | Popped::Empty => break,
            }
        }
        if bound > self.now {
            self.now = bound;
        }
        fired
    }

    /// Is the flight recorder on? Hooks check this before building events
    /// so tracing costs one branch when off.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// The installed flight recorder, for hooks that need more than a plain
    /// emit (frame snaplen, HOL-state tracking).
    #[inline]
    pub fn tracer(&self) -> Option<&trace::Tracer> {
        self.tracer.as_ref()
    }

    /// Record one trace event stamped with the current virtual clock.
    /// No-op when tracing is off.
    #[inline]
    pub fn trace_emit(&self, ev: trace::Event) {
        if let Some(t) = &self.tracer {
            t.emit(self.now.as_nanos(), ev);
        }
    }

    pub(crate) fn set_reference(&mut self, on: bool) {
        self.reference = on;
    }

    pub(crate) fn set_deadline(&mut self, deadline: SimTime) {
        self.deadline = deadline;
    }

    /// Reference discipline active (shadow-verification runs)? The burst
    /// path consults this to degrade to per-packet events.
    #[inline]
    pub fn is_reference(&self) -> bool {
        self.reference
    }

    /// Wakes that never became a driver↔process round trip: suppressed
    /// spurious wakes plus sleeps satisfied by the inline fast path.
    #[inline]
    pub fn wakes_coalesced(&self) -> u64 {
        self.wakes_suppressed + self.sleep_fastpaths
    }

    /// Spurious wakes dropped because the target was in a charge sleep.
    #[inline]
    pub fn wakes_suppressed(&self) -> u64 {
        self.wakes_suppressed
    }

    /// Sleeps satisfied by an inline clock advance, no park at all.
    #[inline]
    pub fn sleep_fastpaths(&self) -> u64 {
        self.sleep_fastpaths
    }

    /// Always 0: the event queue has no timer wheel. Kept, with the
    /// `wheel_hits` report fields, so report consumers keep their shape;
    /// deleting it waits for the shared counter registry (ROADMAP.md,
    /// item 3).
    #[inline]
    pub fn wheel_hits(&self) -> u64 {
        0
    }

    /// Events pushed onto the event heap: every scheduled event, since the
    /// heap is the only live-event queue. Kept under its old name until the
    /// shared counter registry (ROADMAP.md, item 3) replaces it.
    #[inline]
    pub fn heap_falls(&self) -> u64 {
        self.heap_falls
    }

    /// Packet trains emitted through the burst path.
    #[inline]
    pub fn bursts(&self) -> u64 {
        self.bursts
    }

    /// Packets carried inside those trains (each still counts as one fired
    /// event; see [`Ctx::try_advance_to`]).
    #[inline]
    pub fn fused_pkts(&self) -> u64 {
        self.fused_pkts
    }

    /// Record one emitted train of `pkts` fused packets.
    #[inline]
    pub fn note_burst(&mut self, pkts: u64) {
        self.bursts += 1;
        self.fused_pkts += pkts;
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events fired so far (diagnostic).
    #[inline]
    pub fn events_fired(&self) -> u64 {
        self.events_fired
    }

    /// The sequence number the next scheduled event will draw — what
    /// [`Ctx::schedule_train_at`] is about to return, for closures that must
    /// capture their own base seq.
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Store `ev` in a free slab slot under the key (`at`, `seq`).
    fn alloc_slot(&mut self, ev: InlineEvent<W>, at: SimTime, seq: u64) -> (u32, u32) {
        if let Some(idx) = self.free.pop() {
            let s = &mut self.slots[idx as usize];
            debug_assert!(!s.occupied, "freelist slot still occupied");
            s.occupied = true;
            s.at = at;
            s.seq = seq;
            s.ev.write(ev);
            (idx, s.gen)
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot { gen: 0, occupied: true, at, seq, ev: MaybeUninit::new(ev) });
            (idx, 0)
        }
    }

    /// Release a slot whose payload has been moved out or dropped.
    fn free_slot(&mut self, idx: u32) {
        let s = &mut self.slots[idx as usize];
        debug_assert!(s.occupied);
        s.occupied = false;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(idx);
    }

    /// Insert an event at (`at`, `seq`). `at` must already be clamped to
    /// `>= now`.
    fn insert(&mut self, at: SimTime, seq: u64, ev: InlineEvent<W>) -> TimerId {
        debug_assert!(at >= self.now);
        let (idx, gen) = self.alloc_slot(ev, at, seq);
        self.heap.push(Reverse(Key { at, seq, idx, gen }));
        self.heap_falls += 1;
        TimerId::pack(idx, gen)
    }

    /// Schedule `f` to run at absolute time `at` (clamped to be >= now).
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut W, &mut Ctx<W>) + Send + 'static,
    ) -> TimerId {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.insert(at, seq, InlineEvent::pack(f))
    }

    /// Schedule `f` to run after `delay`.
    pub fn schedule_in(
        &mut self,
        delay: Dur,
        f: impl FnOnce(&mut W, &mut Ctx<W>) + Send + 'static,
    ) -> TimerId {
        self.schedule_at(self.now + delay, f)
    }

    /// Schedule the head event of a packet train and reserve `extra`
    /// additional sequence numbers for its follow-on deliveries. Returns the
    /// base sequence number: the train's K surviving packets own seqs
    /// `base..base + K` (K = extra + 1), exactly the seqs K per-packet
    /// `schedule_at` calls would have drawn — so every equal-timestamp tie
    /// against foreign events resolves identically under both disciplines.
    /// Continuations claim their reserved seq via [`Ctx::schedule_at_seq`].
    pub fn schedule_train_at(
        &mut self,
        at: SimTime,
        extra: u64,
        f: impl FnOnce(&mut W, &mut Ctx<W>) + Send + 'static,
    ) -> u64 {
        let at = at.max(self.now);
        let base = self.seq;
        self.seq += 1 + extra;
        self.insert(at, base, InlineEvent::pack(f));
        base
    }

    /// Schedule `f` at `at` with an explicitly reserved sequence number
    /// (from [`Ctx::schedule_train_at`]); used when a train falls back to a
    /// real event mid-delivery, so the continuation keeps the fire-order
    /// position its packet would have had under per-packet scheduling.
    pub fn schedule_at_seq(
        &mut self,
        at: SimTime,
        seq: u64,
        f: impl FnOnce(&mut W, &mut Ctx<W>) + Send + 'static,
    ) -> TimerId {
        debug_assert!(seq < self.seq, "seq {seq} was never reserved");
        debug_assert!(at >= self.now);
        let at = at.max(self.now);
        self.insert(at, seq, InlineEvent::pack(f))
    }

    /// Cancel a previously scheduled timer. Cancelling an already-fired or
    /// already-cancelled timer is a generation mismatch and a no-op. O(1):
    /// the closure is dropped and the slot freed immediately; the stale key
    /// left in the heap is skipped when it reaches the top and bounded by
    /// compaction.
    pub fn cancel(&mut self, id: TimerId) {
        self.retire(id);
    }

    /// Cancel a timer while preserving the event-count and fire-order
    /// accounting an *abandoned* timer would have had.
    ///
    /// The transport engines historically rearmed timers by bumping a
    /// generation counter and letting the stale timer fire as a checked
    /// no-op: the dead event still occupied a slab slot, still gated the
    /// inline fast paths, and still counted in `events_fired` when popped.
    /// `cancel_counted` frees the closure and the slot *now* but pushes the
    /// timer's (time, seq) key onto the ghost heap, where `Ctx::pop_next`
    /// drains it with identical accounting — so a converted call site
    /// changes no simulation output bit, only the work done per event.
    ///
    /// Returns `true` if the timer was live (a ghost was queued); a fired or
    /// already-cancelled id is a generation mismatch and a no-op, exactly
    /// like [`Ctx::cancel`].
    pub fn cancel_counted(&mut self, id: TimerId) -> bool {
        let Some(ghost) = self.retire(id) else { return false };
        self.ghosts.push(Reverse(ghost));
        true
    }

    /// Drop a live timer's closure and free its slot, leaving its heap key
    /// stale. Returns the (time, seq) it was queued under, or `None` if `id`
    /// already fired or was cancelled.
    fn retire(&mut self, id: TimerId) -> Option<(SimTime, u64)> {
        let (idx, gen) = id.unpack();
        let s = self.slots.get_mut(idx as usize)?;
        if !s.occupied || s.gen != gen {
            return None;
        }
        let key = (s.at, s.seq);
        // Safety: occupied ⇒ initialized; dropping in place runs the
        // closure's destructor exactly once, and the slot is freed below.
        unsafe { s.ev.assume_init_drop() };
        self.free_slot(idx);
        self.heap_dead += 1;
        self.maybe_compact_heap();
        Some(key)
    }

    /// Batched cancel + rearm: retire `id` (ghost-counted, see
    /// [`Ctx::cancel_counted`]) and schedule `f` after `delay` in one call.
    /// Draws exactly one fresh sequence number — the same draw the
    /// abandon-and-reschedule pattern made — so every tie against foreign
    /// events resolves identically. This is the per-SACK RTO rearm path.
    pub fn reschedule_in(
        &mut self,
        id: Option<TimerId>,
        delay: Dur,
        f: impl FnOnce(&mut W, &mut Ctx<W>) + Send + 'static,
    ) -> TimerId {
        if let Some(id) = id {
            self.cancel_counted(id);
        }
        self.schedule_in(delay, f)
    }

    /// Abandoned-timer fires elided by the ghost heap so far (diagnostic;
    /// each was still counted in [`Ctx::events_fired`]).
    #[inline]
    pub fn ghost_fires(&self) -> u64 {
        self.ghost_fires
    }

    /// Rebuild the heap without stale keys once they outnumber the live
    /// ones; keeps long timer-churn runs (every SACK re-arms a timer) from
    /// dragging an ever-growing heap through every push/pop.
    fn maybe_compact_heap(&mut self) {
        if self.heap_dead <= 32 || self.heap_dead * 2 <= self.heap.len() {
            return;
        }
        let old = std::mem::take(&mut self.heap);
        let slots = &self.slots;
        // Heapify is O(n); pop order is unchanged because key order is
        // total on (time, seq) regardless of internal heap layout.
        self.heap = old
            .into_iter()
            .filter(|Reverse(k)| slots[k.idx as usize].gen == k.gen)
            .collect();
        self.heap_dead = 0;
    }

    /// Mark a process runnable. Wakeups are drained FIFO by the driver before
    /// the next timed event fires. Duplicate wakes of an already-pending
    /// process coalesce; wakes aimed at a process parked in a charge sleep
    /// are provably spurious (see the `sleeping` bitmap) and are dropped unless
    /// the reference discipline is active.
    pub fn wake(&mut self, p: ProcId) {
        if !self.reference && self.sleeping.get(p.0).copied().unwrap_or(false) {
            self.wakes_suppressed += 1;
            return;
        }
        if self.wake_pending.insert(p) {
            self.wake_fifo.push_back(p);
        }
    }

    /// Wake every process in a slice (convenience for waiter lists).
    pub fn wake_all(&mut self, ps: &[ProcId]) {
        for &p in ps {
            self.wake(p);
        }
    }

    /// Mark `p` as parked inside `ProcEnv::sleep` so incoming wakes can be
    /// suppressed. Must be bracketed by [`Ctx::finish_sleep_and_wake`].
    pub(crate) fn begin_sleep(&mut self, p: ProcId) {
        if self.sleeping.len() <= p.0 {
            self.sleeping.resize(p.0 + 1, false);
        }
        debug_assert!(!self.sleeping[p.0], "nested sleep for one process");
        self.sleeping[p.0] = true;
    }

    /// Clear `p`'s sleeping mark and enqueue its (now genuine) timer wake.
    pub(crate) fn finish_sleep_and_wake(&mut self, p: ProcId) {
        debug_assert!(self.sleeping.get(p.0).copied().unwrap_or(false));
        self.sleeping[p.0] = false;
        self.wake(p);
    }

    /// CPU-charge batching fast path: try to satisfy a `sleep(d)` by
    /// advancing the clock inline, with no timer, no park, and no
    /// driver↔process round trip. Legal only when the advance is invisible:
    /// no process is pending a wake (they would have run first), no queued
    /// event fires at or before the target time (`<=` because an
    /// already-queued event at exactly `now + d` carries a smaller seq than
    /// the sleep timer would get, so the reference discipline fires it
    /// first), and the target does not cross the run deadline. Counts the
    /// skipped sleep timer as one fired event so `events_fired` stays
    /// identical to the reference discipline.
    pub(crate) fn try_advance_sleep(&mut self, d: Dur) -> bool {
        if self.reference || !self.wake_fifo.is_empty() {
            return false;
        }
        let to = self.now + d;
        if to > self.deadline {
            return false;
        }
        if self.queue_min().is_some_and(|(at, _)| at <= to) {
            return false;
        }
        self.now = to;
        self.events_fired += 1;
        self.sleep_fastpaths += 1;
        true
    }

    /// Train-fusion fast path: advance the clock to the next fused packet's
    /// arrival at (`at`, `seq`) — `seq` being the sequence number the
    /// packet's own delivery event holds in reserve — iff firing it now is
    /// exactly what the per-packet discipline would do next: no wake is
    /// pending (a woken process would run first), no queued event (ghosts
    /// included) orders before `(at, seq)`, and the run deadline is not
    /// crossed. Counts the fused delivery as one fired event, keeping
    /// `events_fired` bit-identical to per-packet runs.
    pub fn try_advance_to(&mut self, at: SimTime, seq: u64) -> bool {
        debug_assert!(!self.reference, "burst path must not run under the reference discipline");
        if !self.wake_fifo.is_empty() || at > self.deadline {
            return false;
        }
        if self.queue_min().is_some_and(|key| key < (at, seq)) {
            return false;
        }
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.events_fired += 1;
        true
    }

    /// Drain the pending wake batch into `out` (cleared first). Reuses the
    /// driver's buffer so the per-batch `Vec` allocation of the old
    /// `take_wakes` is gone. Batch semantics are load-bearing: the pending
    /// set is cleared wholesale, so a wake issued *during* the batch — even
    /// to a process earlier in it — lands in the next batch.
    pub(crate) fn take_wakes_into(&mut self, out: &mut Vec<ProcId>) {
        out.clear();
        out.extend(self.wake_fifo.drain(..));
        self.wake_pending.clear();
    }

    #[cfg(test)]
    pub(crate) fn take_wakes(&mut self) -> Vec<ProcId> {
        let mut v = Vec::new();
        self.take_wakes_into(&mut v);
        v
    }

    pub(crate) fn has_wakes(&self) -> bool {
        !self.wake_fifo.is_empty()
    }

    /// Earliest live heap key, popping stale tops.
    fn heap_min_clean(&mut self) -> Option<Key> {
        while let Some(Reverse(k)) = self.heap.peek() {
            if self.slots[k.idx as usize].gen != k.gen {
                self.heap.pop();
                self.heap_dead -= 1;
            } else {
                return Some(*k);
            }
        }
        None
    }

    /// (time, seq) of the earliest queued event, ghosts included, after
    /// popping stale heap tops: what the inline fast paths must not jump.
    fn queue_min(&mut self) -> Option<(SimTime, u64)> {
        let live = self.heap_min_clean().map(|k| (k.at, k.seq));
        let ghost = self.ghosts.peek().map(|&Reverse(g)| g);
        min_key(live, ghost)
    }

    /// Pop the next non-cancelled event no later than `bound`, advancing the
    /// clock to its timestamp. One peek decides emptiness, the deadline
    /// check, and the pop — the driver loop needs no separate
    /// [`Ctx::next_event_time`] peek per event.
    fn pop_next(&mut self, bound: SimTime) -> Popped<W> {
        let live = self.heap_min_clean();
        // Drain every ghost that orders before the live minimum, with the
        // same accounting its no-op event would have had: clock advance and
        // one `events_fired` tick. A ghost past `bound` stays queued and
        // answers `PastBound`, exactly as the no-op would.
        while let Some(&Reverse(g)) = self.ghosts.peek() {
            if live.is_some_and(|k| (k.at, k.seq) < g) {
                break;
            }
            if g.0 > bound {
                return Popped::PastBound;
            }
            self.ghosts.pop();
            debug_assert!(g.0 >= self.now, "ghost predates the clock");
            self.now = self.now.max(g.0);
            self.events_fired += 1;
            self.ghost_fires += 1;
        }
        let Some(key) = live else { return Popped::Empty };
        if key.at > bound {
            return Popped::PastBound;
        }
        self.heap.pop();
        let s = &mut self.slots[key.idx as usize];
        debug_assert!(s.occupied && s.gen == key.gen);
        // Safety: a live key ⇒ its slot payload is initialized; the value is
        // moved out exactly once and the slot freed below.
        let ev = unsafe { s.ev.assume_init_read() };
        self.free_slot(key.idx);
        debug_assert!(key.at >= self.now, "time went backwards");
        self.now = key.at;
        self.events_fired += 1;
        Popped::Fired(FiredEvent(ev))
    }

    /// Driver entry point: pop the next event unless it lies past the run
    /// deadline or the queue is exhausted.
    pub(crate) fn pop_event_due(&mut self) -> Popped<W> {
        self.pop_next(self.deadline)
    }

    /// Pop the next non-cancelled event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is exhausted.
    #[cfg(test)]
    pub(crate) fn pop_event(&mut self) -> Option<FiredEvent<W>> {
        match self.pop_next(SimTime::MAX) {
            Popped::Fired(f) => Some(f),
            _ => None,
        }
    }

    /// Timestamp of the next pending (possibly cancelled) event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.next_event_key().map(|(t, _)| t)
    }

    /// (time, seq) of the next pending event. Conservative: a stale heap
    /// top is included (it orders no later than any live event behind it),
    /// so callers using this to gate inline fast paths only ever decline,
    /// never jump the queue. Ghosts count as queued events, like the
    /// abandoned no-op events they replace.
    pub fn next_event_key(&self) -> Option<(SimTime, u64)> {
        let top = self.heap.peek().map(|&Reverse(k)| (k.at, k.seq));
        min_key(top, self.ghosts.peek().map(|&Reverse(g)| g))
    }
}

/// The smaller of two optional keys (`None` is "nothing queued", not the
/// minimum).
fn min_key(a: Option<(SimTime, u64)>, b: Option<(SimTime, u64)>) -> Option<(SimTime, u64)> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

impl<W> Drop for Ctx<W> {
    fn drop(&mut self) {
        for s in &mut self.slots {
            if s.occupied {
                s.occupied = false;
                // Safety: occupied ⇒ initialized; run the closure's
                // destructor (never-fired timers at end of run).
                unsafe { s.ev.assume_init_drop() };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::derive_rng;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn ctx() -> Ctx<Vec<u32>> {
        Ctx::new(derive_rng(0, 0))
    }

    fn drain(world: &mut Vec<u32>, ctx: &mut Ctx<Vec<u32>>) {
        while let Some(f) = ctx.pop_event() {
            f.call(world, ctx);
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut c = ctx();
        let mut w = Vec::new();
        c.schedule_in(Dur::from_secs(2), |w: &mut Vec<u32>, _| w.push(2));
        c.schedule_in(Dur::from_secs(1), |w: &mut Vec<u32>, _| w.push(1));
        c.schedule_in(Dur::from_secs(3), |w: &mut Vec<u32>, _| w.push(3));
        drain(&mut w, &mut c);
        assert_eq!(w, vec![1, 2, 3]);
        assert_eq!(c.now(), SimTime::ZERO + Dur::from_secs(3));
    }

    #[test]
    fn equal_timestamps_fire_in_insertion_order() {
        let mut c = ctx();
        let mut w = Vec::new();
        for i in 0..10 {
            c.schedule_in(Dur::from_secs(1), move |w: &mut Vec<u32>, _| w.push(i));
        }
        drain(&mut w, &mut c);
        assert_eq!(w, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn near_and_far_timers_interleave_in_order() {
        // Delays from µs to tens of seconds, inserted out of order; the
        // pop order must be globally (time, seq) sorted.
        let mut c = ctx();
        let mut w = Vec::new();
        let delays = [
            (20_000_000_000u64, 5u32),
            (10_000, 0),
            (1_000_000_000, 3),
            (20_000, 1),
            (40_000_000, 2),
            (2_000_000_000, 4),
        ];
        for &(d, tag) in &delays {
            c.schedule_in(Dur::from_nanos(d), move |w: &mut Vec<u32>, _| w.push(tag));
        }
        drain(&mut w, &mut c);
        assert_eq!(w, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn near_horizon_timer_from_unaligned_now_does_not_wrap() {
        // From an odd `now` (100 ns), a ~33.6 ms timer scheduled before a
        // 10 µs one must still fire after it. (A bucketed queue once wrapped
        // exactly this timer into the scan-start bucket and fired it early.)
        let mut c = ctx();
        let mut w = Vec::new();
        c.schedule_at(SimTime::from_nanos(100), |w: &mut Vec<u32>, _| w.push(0));
        drain(&mut w, &mut c);
        assert_eq!(c.now(), SimTime::from_nanos(100));
        c.schedule_in(Dur::from_nanos(33_554_382), |w: &mut Vec<u32>, _| w.push(2));
        c.schedule_in(Dur::from_micros(10), |w: &mut Vec<u32>, _| w.push(1));
        drain(&mut w, &mut c);
        assert_eq!(w, vec![0, 1, 2]);
    }

    #[test]
    fn next_event_key_is_a_lower_bound_near_the_horizon() {
        // Same scenario as above, but through the probe the sharded engine
        // and the live reactor use: the reported key must be the true queue
        // minimum (the 10 µs timer), not the earlier-scheduled far one.
        let mut c = ctx();
        let mut w = Vec::new();
        c.schedule_at(SimTime::from_nanos(100), |w: &mut Vec<u32>, _| w.push(0));
        drain(&mut w, &mut c);
        c.schedule_in(Dur::from_nanos(33_554_382), |_: &mut Vec<u32>, _| {});
        c.schedule_in(Dur::from_micros(10), |_: &mut Vec<u32>, _| {});
        assert_eq!(
            c.next_event_time(),
            Some(SimTime::from_nanos(100) + Dur::from_micros(10))
        );
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        let mut c = ctx();
        let mut w = Vec::new();
        let id = c.schedule_in(Dur::from_secs(1), |w: &mut Vec<u32>, _| w.push(99));
        c.schedule_in(Dur::from_secs(2), |w: &mut Vec<u32>, _| w.push(1));
        c.cancel(id);
        drain(&mut w, &mut c);
        assert_eq!(w, vec![1]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut c = ctx();
        let mut w = Vec::new();
        c.schedule_in(Dur::from_secs(1), |w: &mut Vec<u32>, c: &mut Ctx<Vec<u32>>| {
            w.push(1);
            c.schedule_in(Dur::from_secs(1), |w: &mut Vec<u32>, _| w.push(2));
        });
        drain(&mut w, &mut c);
        assert_eq!(w, vec![1, 2]);
        assert_eq!(c.now(), SimTime::ZERO + Dur::from_secs(2));
    }

    #[test]
    fn schedule_at_past_clamps_to_now() {
        let mut c = ctx();
        let mut w = Vec::new();
        c.schedule_in(Dur::from_secs(5), |w: &mut Vec<u32>, c: &mut Ctx<Vec<u32>>| {
            w.push(1);
            // Try to schedule in the past; must fire at `now`, not panic.
            c.schedule_at(SimTime::ZERO, |w: &mut Vec<u32>, _| w.push(2));
        });
        drain(&mut w, &mut c);
        assert_eq!(w, vec![1, 2]);
    }

    #[test]
    fn cancel_after_fire_is_a_noop() {
        let mut c = ctx();
        let mut w = Vec::new();
        let id = c.schedule_in(Dur::from_secs(1), |w: &mut Vec<u32>, _| w.push(1));
        drain(&mut w, &mut c);
        assert_eq!(w, vec![1]);
        c.cancel(id); // already fired: generation mismatch, no-op
        c.cancel(id);
        // A fresh timer must still schedule and fire normally afterwards.
        c.schedule_in(Dur::from_secs(1), |w: &mut Vec<u32>, _| w.push(2));
        drain(&mut w, &mut c);
        assert_eq!(w, vec![1, 2]);
    }

    #[test]
    fn cancel_runs_the_closure_destructor_immediately() {
        let alive = Arc::new(AtomicUsize::new(0));
        let mut c = ctx();
        let token = Arc::clone(&alive);
        alive.fetch_add(1, Ordering::SeqCst);
        struct Dec(Arc<AtomicUsize>);
        impl Drop for Dec {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let guard = Dec(token);
        let id = c.schedule_in(Dur::from_secs(1), move |_: &mut Vec<u32>, _| {
            let _g = &guard;
        });
        assert_eq!(alive.load(Ordering::SeqCst), 1);
        c.cancel(id);
        assert_eq!(alive.load(Ordering::SeqCst), 0, "cancel must drop the capture eagerly");
    }

    #[test]
    fn oversized_closures_fall_back_to_boxing() {
        // A capture larger than the inline buffer must still schedule, fire,
        // and deliver its payload intact.
        let mut c = ctx();
        let mut w = Vec::new();
        let big = [7u64; 64]; // 512 B > inline capacity
        c.schedule_in(Dur::from_micros(1), move |w: &mut Vec<u32>, _| {
            w.push(big.iter().sum::<u64>() as u32)
        });
        drain(&mut w, &mut c);
        assert_eq!(w, vec![7 * 64]);
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut c = ctx();
        let mut w = Vec::new();
        for round in 0..1000u32 {
            c.schedule_in(Dur::from_micros(1), move |w: &mut Vec<u32>, _| w.push(round));
            drain(&mut w, &mut c);
        }
        assert_eq!(w.len(), 1000);
        assert!(c.slots.len() <= 2, "sequential schedule/fire must reuse one slot");
    }

    #[test]
    fn heap_tombstones_are_bounded_under_churn() {
        // Re-arm/cancel churn, as the SCTP T3 and SACK timers do on every
        // ack: second-scale (RTO) and µs-scale (delayed ACK) delays.
        let scales: [fn(u64) -> Dur; 2] = [Dur::from_secs, Dur::from_micros];
        for delay in scales {
            let mut c = ctx();
            for i in 0..10_000u64 {
                let id = c.schedule_in(delay(1 + i), |_: &mut Vec<u32>, _| {});
                c.cancel(id);
            }
            assert!(
                c.heap_dead <= c.heap.len().max(64),
                "stale heap keys ({}) must not dominate the heap ({})",
                c.heap_dead,
                c.heap.len()
            );
            assert!(c.slots.len() <= 2, "cancel must free slab slots for reuse");
            let mut w = Vec::new();
            drain(&mut w, &mut c);
            assert!(w.is_empty());
        }
    }

    #[test]
    fn compaction_preserves_fire_order() {
        let mut c = ctx();
        let mut w = Vec::new();
        let mut keep = Vec::new();
        for i in 0..200u32 {
            let id = c.schedule_in(Dur::from_secs(i as u64 + 1), move |w: &mut Vec<u32>, _| {
                w.push(i)
            });
            if i % 3 == 0 {
                keep.push(i);
            } else {
                c.cancel(id); // forces at least one heap compaction
            }
        }
        drain(&mut w, &mut c);
        assert_eq!(w, keep, "survivors fire in time order after compaction");
    }

    #[test]
    fn train_seq_reservation_orders_against_foreign_events() {
        // A train reserving seqs 0..3, then a foreign event (seq 3) at the
        // same instant as packet 2: the foreign event was scheduled after
        // the train, so the per-packet discipline fires packet 2 first. The
        // continuation chain (schedule_at_seq with the reserved seq, then an
        // inline advance) must win the tie exactly the same way.
        let mut c = ctx();
        let mut w = Vec::new();
        let base = c.schedule_train_at(SimTime::from_nanos(1000), 2, move |w: &mut Vec<u32>, c| {
            w.push(10); // packet 0, seq 0
            // Fall back immediately: schedule packet 1's continuation with
            // its reserved seq 1.
            c.schedule_at_seq(SimTime::from_nanos(3000), 1, move |w: &mut Vec<u32>, c| {
                w.push(11); // packet 1
                // Packet 2 at the same instant as the foreign (3000, seq 3)
                // event: reserved seq 2 < 3, so the inline advance is legal.
                assert!(c.try_advance_to(SimTime::from_nanos(3000), 2));
                w.push(12);
            });
        });
        assert_eq!(base, 0);
        c.schedule_at(SimTime::from_nanos(3000), |w: &mut Vec<u32>, _| w.push(99));
        drain(&mut w, &mut c);
        assert_eq!(w, vec![10, 11, 12, 99]);
    }

    #[test]
    fn try_advance_to_declines_when_an_earlier_event_is_queued() {
        let mut c = ctx();
        let mut w = Vec::new();
        // Foreign event first (seq 0), then the train (seqs 1..3).
        c.schedule_at(SimTime::from_nanos(2000), |w: &mut Vec<u32>, _| w.push(5));
        let base = c.schedule_train_at(SimTime::from_nanos(1000), 1, move |w: &mut Vec<u32>, c| {
            w.push(0); // packet 0, seq 1
            // Packet 1 would arrive at 2500, but the foreign event at
            // (2000, seq 0) orders first: the inline advance must decline
            // and the packet fall back to a real event with its reserved
            // seq.
            assert!(!c.try_advance_to(SimTime::from_nanos(2500), 2));
            c.schedule_at_seq(SimTime::from_nanos(2500), 2, |w: &mut Vec<u32>, _| w.push(1));
        });
        assert_eq!(base, 1);
        drain(&mut w, &mut c);
        assert_eq!(w, vec![0, 5, 1]);
    }

    #[test]
    fn events_fired_counts_inline_advances() {
        let mut c = ctx();
        let mut w = Vec::new();
        let _ = c.schedule_train_at(SimTime::from_nanos(100), 2, move |w: &mut Vec<u32>, c| {
            w.push(0);
            assert!(c.try_advance_to(SimTime::from_nanos(200), 1));
            w.push(1);
            assert!(c.try_advance_to(SimTime::from_nanos(300), 2));
            w.push(2);
        });
        drain(&mut w, &mut c);
        assert_eq!(w, vec![0, 1, 2]);
        assert_eq!(c.events_fired(), 3, "each fused packet counts as one event");
        assert_eq!(c.now(), SimTime::from_nanos(300));
    }

    #[test]
    fn next_event_key_sees_second_wheel_entries() {
        let mut c = ctx();
        let mut w = Vec::new();
        c.schedule_at(SimTime::from_nanos(100), |w: &mut Vec<u32>, _| w.push(0));
        drain(&mut w, &mut c);
        c.schedule_in(Dur::from_millis(200), |_: &mut Vec<u32>, _| {});
        assert_eq!(
            c.next_event_time(),
            Some(SimTime::from_nanos(100) + Dur::from_millis(200))
        );
        // A µs timer in front of it must win the probe.
        c.schedule_in(Dur::from_micros(5), |_: &mut Vec<u32>, _| {});
        assert_eq!(
            c.next_event_time(),
            Some(SimTime::from_nanos(100) + Dur::from_micros(5))
        );
    }

    #[test]
    fn run_due_fires_due_events_and_advances_to_the_bound() {
        let mut c: Ctx<Vec<u32>> = Ctx::standalone(derive_rng(0, 0));
        let mut w = Vec::new();
        c.schedule_in(Dur::from_micros(10), |w: &mut Vec<u32>, _| w.push(1));
        c.schedule_in(Dur::from_micros(20), |w: &mut Vec<u32>, c: &mut Ctx<Vec<u32>>| {
            w.push(2);
            // A follow-on inside the bound fires in the same pump.
            c.schedule_in(Dur::from_micros(5), |w: &mut Vec<u32>, _| w.push(3));
        });
        c.schedule_in(Dur::from_millis(1), |w: &mut Vec<u32>, _| w.push(9));
        let fired = c.run_due(&mut w, SimTime::from_nanos(100_000));
        assert_eq!(fired, 3);
        assert_eq!(w, vec![1, 2, 3]);
        assert_eq!(c.now(), SimTime::from_nanos(100_000), "clock lands on the bound");
        // The past-bound timer is intact and fires on the next pump.
        let fired = c.run_due(&mut w, SimTime::from_nanos(2_000_000));
        assert_eq!(fired, 1);
        assert_eq!(w, vec![1, 2, 3, 9]);
        assert_eq!(c.now(), SimTime::from_nanos(2_000_000));
        // An empty queue still advances the clock.
        assert_eq!(c.run_due(&mut w, SimTime::from_nanos(3_000_000)), 0);
        assert_eq!(c.now(), SimTime::from_nanos(3_000_000));
    }

    #[test]
    fn queued_ghosts_gate_the_fast_paths_and_the_pump() {
        let mut c: Ctx<Vec<u32>> = Ctx::standalone(derive_rng(0, 0));
        let mut w = Vec::new();
        let id = c.schedule_in(Dur::from_micros(10), |w: &mut Vec<u32>, _| w.push(99));
        assert!(c.cancel_counted(id));
        // The ghost at 10 µs orders before both targets: neither inline
        // advance may jump it.
        assert!(!c.try_advance_to(SimTime::from_nanos(20_000), c.next_seq()));
        assert!(!c.try_advance_sleep(Dur::from_micros(20)));
        assert_eq!(c.now(), SimTime::ZERO);
        // A pump bounded before the ghost leaves it queued and uncounted.
        assert_eq!(c.run_due(&mut w, SimTime::from_nanos(5_000)), 0);
        assert_eq!((c.events_fired(), c.ghost_fires()), (0, 0));
        assert_eq!(c.next_event_key(), Some((SimTime::from_nanos(10_000), 0)));
        // The next pump drains it as one fired event and nothing runs.
        c.run_due(&mut w, SimTime::from_nanos(15_000));
        assert_eq!((c.events_fired(), c.ghost_fires()), (1, 1));
        assert!(w.is_empty());
        // With the ghost gone the sleep fast path is legal again.
        assert!(c.try_advance_sleep(Dur::from_micros(20)));
        assert_eq!(c.now(), SimTime::from_nanos(35_000));
    }

    #[test]
    fn duplicate_wakes_coalesce() {
        let mut c = ctx();
        c.wake(ProcId(3));
        c.wake(ProcId(3));
        c.wake(ProcId(1));
        assert_eq!(c.take_wakes(), vec![ProcId(3), ProcId(1)]);
        assert!(c.take_wakes().is_empty());
    }
}
