//! Sharded parallel DES with conservative lookahead.
//!
//! The per-event machinery (event heap, event slab, coroutine runtime)
//! gets the cost of *one* event down to ~1 µs; this module multiplies it.
//! Nodes are partitioned round-robin across `shards` worker threads
//! (`shard_of(node) = node % shards`), each shard running its own [`Ctx`] —
//! its own event heap, slab, clock, and RNG stream. The minimum cross-node
//! latency `L` (link propagation + switch transit) is the **conservative
//! lookahead bound**: a message sent at time `t` cannot arrive before
//! `t + L`, so a shard may execute everything in the epoch `[k·L, (k+1)·L)`
//! without observing its neighbors at all. At the epoch boundary the shards
//! barrier, exchange staged messages through per-shard mailboxes, and merge
//! each inbox in deterministic `(arrival_time, src_node, src_seq)` order.
//!
//! # Determinism contract
//!
//! Results are bit-identical at any shard count, given the same seed:
//!
//! * **Every** inter-node message — intra-shard or cross-shard — takes the
//!   mailbox path and is merged in `(at, src, sseq)` order. The key is a
//!   property of the traffic, not of the partition.
//! * Node handlers touch only their own node's state plus the mailbox, so
//!   the firing interleave of *different* nodes' equal-time events (which
//!   does depend on the partition) is semantically invisible.
//! * For one node, the relative order of its local timers vs. its merged
//!   arrivals is partition-invariant: in-epoch `schedule_*` calls always
//!   draw sequence numbers before the barrier insertions of that epoch, and
//!   both the firing epoch of the scheduling handler and the sending epoch
//!   of the message are determined by simulated time alone.
//! * Randomness that shapes traffic (loss draws, jitter) must come from
//!   per-node streams ([`crate::derive_rng`]), never from a shard-global
//!   RNG whose consumption order would depend on the partition.
//!
//! Epochs are *adaptive*: each barrier round agrees on the global minimum
//! next-event time `gmin` and executes the window `[gmin, gmin + L)` — a
//! full lookahead anchored at the work, rather than the fixed grid cell
//! `[k·L, (k+1)·L)` that merely contains it (which wastes half of `L` per
//! round on average and spins through empty cells). An idle second costs
//! one barrier round, and a burst spanning `1.5·L` costs two rounds, not
//! three. The window sequence is a pure function of the traffic — `gmin`
//! is agreed at the barrier — so epoch counts, merge batching, and results
//! stay bit-identical at every shard count.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::rng::derive_rng;
use crate::sched::{Ctx, Popped};
use crate::time::{Dur, SimTime};

/// Which shard owns a node. Round-robin keeps hot neighbors (e.g. the
/// incast victim and its senders) spread across workers.
#[inline]
pub fn shard_of(node: u32, shards: u32) -> u32 {
    node % shards
}

/// Index of `node` within its owning shard's local arrays.
#[inline]
pub fn local_ix(node: u32, shards: u32) -> usize {
    (node / shards) as usize
}

/// Shard count the engine should actually run with: `SIM_CHECK=1` shadow
/// runs set the thread-local reference discipline, which forces the
/// sequential (`shards = 1`) engine so the metered sharded run can be
/// compared bit-for-bit against it.
pub fn effective_shards(requested: usize) -> usize {
    if crate::process::reference_discipline() {
        1
    } else {
        requested.max(1)
    }
}

/// One message in flight between nodes. `sseq` is the per-source-node
/// sequence number; `(at, src, sseq)` is the total merge order.
#[derive(Debug, Clone)]
pub struct Inbound<M> {
    /// Arrival instant at the destination (computed by the sender from
    /// sender-owned state, so it is partition-invariant).
    pub at: SimTime,
    /// Sending node (global id).
    pub src: u32,
    /// Per-source monotonic sequence number.
    pub sseq: u32,
    /// Destination node (global id).
    pub dst: u32,
    /// Payload.
    pub msg: M,
}

/// A model that runs under the sharded engine. The world is the per-shard
/// state (the nodes this shard owns); associated functions rather than
/// methods so `deliver` can borrow the whole [`ShardSim`] mutably.
pub trait ShardWorld: Sized + Send + 'static {
    /// Inter-node message payload.
    type Msg: Send + 'static;

    /// Schedule this shard's initial events (runs once, at time zero,
    /// before the first epoch). May send; initial sends are flushed before
    /// any event executes.
    fn init(sim: &mut ShardSim<Self>, ctx: &mut Ctx<ShardSim<Self>>);

    /// One merged message has arrived for `m.dst` (owned by this shard).
    fn deliver(sim: &mut ShardSim<Self>, ctx: &mut Ctx<ShardSim<Self>>, m: Inbound<Self::Msg>);
}

/// Staged outgoing message (not yet routed to its destination shard).
struct Outgoing<M> {
    at: SimTime,
    src: u32,
    sseq: u32,
    dst: u32,
    msg: M,
}

/// The sending half of a shard: outbox, per-node sequence counters, and
/// the lookahead guard. A separate struct from the world so a handler can
/// hold `&mut sim.world` and `&mut sim.mail` at the same time.
pub struct Mailbox<M> {
    shard: u32,
    shards: u32,
    lookahead: Dur,
    /// End of the epoch currently executing; sends must arrive at or after
    /// it (the conservative-lookahead contract).
    epoch_end: SimTime,
    out: Vec<Outgoing<M>>,
    /// Next send sequence per owned node, indexed by `local_ix`.
    sseq: Vec<u32>,
    sends: u64,
}

impl<M> Mailbox<M> {
    /// This shard's index.
    #[inline]
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Total shard count.
    #[inline]
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The conservative lookahead bound `L`.
    #[inline]
    pub fn lookahead(&self) -> Dur {
        self.lookahead
    }

    /// Messages sent by this shard so far.
    #[inline]
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// Does this shard own `node`?
    #[inline]
    pub fn owns(&self, node: u32) -> bool {
        shard_of(node, self.shards) == self.shard
    }

    /// Send `msg` from `src` (owned by this shard) to `dst`, arriving at
    /// `at`. The arrival must respect the lookahead bound: `at` may not
    /// fall inside the epoch currently executing.
    pub fn send(&mut self, src: u32, dst: u32, at: SimTime, msg: M) {
        debug_assert!(self.owns(src), "send from a node this shard does not own");
        assert!(
            at >= self.epoch_end,
            "lookahead violation: send from node {src} arrives at {at:?} inside the current epoch (end {:?}); the \
             model's minimum cross-node latency is smaller than the configured lookahead",
            self.epoch_end,
        );
        let ix = local_ix(src, self.shards);
        if self.sseq.len() <= ix {
            self.sseq.resize(ix + 1, 0);
        }
        let sseq = self.sseq[ix];
        self.sseq[ix] += 1;
        self.sends += 1;
        self.out.push(Outgoing { at, src, sseq, dst, msg });
    }
}

/// Per-shard simulation state handed to every event closure: the user's
/// world plus the mailbox. This is the `W` of the shard's [`Ctx`].
pub struct ShardSim<W: ShardWorld> {
    /// The model's per-shard state.
    pub world: W,
    /// The sending half.
    pub mail: Mailbox<W::Msg>,
}

impl<W: ShardWorld> ShardSim<W> {
    /// This shard's index.
    #[inline]
    pub fn shard(&self) -> u32 {
        self.mail.shard
    }

    /// Total shard count.
    #[inline]
    pub fn shards(&self) -> u32 {
        self.mail.shards
    }

    /// The conservative lookahead bound `L`.
    #[inline]
    pub fn lookahead(&self) -> Dur {
        self.mail.lookahead
    }

    /// Send `msg` from `src` to `dst`, arriving at `at`. See
    /// [`Mailbox::send`].
    #[inline]
    pub fn send(&mut self, src: u32, dst: u32, at: SimTime, msg: W::Msg) {
        self.mail.send(src, dst, at, msg)
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ShardCfg {
    /// Worker count; one [`Ctx`] per shard. Must equal the number of worlds
    /// passed to [`run_sharded`]. Shards with no nodes are fine — they just
    /// ride the barriers.
    pub shards: usize,
    /// Conservative lookahead `L` (minimum cross-node latency). Must be
    /// positive: zero lookahead would mean zero-latency links, for which no
    /// conservative window exists.
    pub lookahead: Dur,
    /// Inclusive stop time; [`SimTime::MAX`] to run until the event queues
    /// drain.
    pub deadline: SimTime,
    /// Master seed; shard `s` gets the RNG stream `derive_rng(seed, s)`.
    /// (Models needing invariant randomness derive per-*node* streams.)
    pub seed: u64,
    /// Per-shard flight recorders (merged by the caller at sink time). When
    /// present, must hold one tracer per shard.
    pub tracers: Option<Vec<trace::Tracer>>,
}

impl ShardCfg {
    /// Config with the given shard count and lookahead, no deadline.
    pub fn new(shards: usize, lookahead: Dur, seed: u64) -> ShardCfg {
        ShardCfg { shards, lookahead, deadline: SimTime::MAX, seed, tracers: None }
    }
}

/// What one finished run looks like. Everything the determinism contract
/// covers (`worlds`, `end_time`, `events`, `sends_total`, `epochs`) is
/// bit-identical across shard counts; `cross_shard_pkts` and the queue
/// meters legitimately depend on the partition.
#[derive(Debug)]
pub struct ShardOutcome<W> {
    /// Per-shard worlds, in shard order.
    pub worlds: Vec<W>,
    /// Shard count the run used.
    pub shards: u32,
    /// The lookahead bound, for reporting.
    pub lookahead: Dur,
    /// Latest shard clock at exit.
    pub end_time: SimTime,
    /// Events fired, summed over shards (partition-invariant).
    pub events: u64,
    /// Messages sent, summed over shards (partition-invariant).
    pub sends_total: u64,
    /// Barrier rounds that executed an epoch.
    pub epochs: u64,
    /// Messages whose source and destination shards differed.
    pub cross_shard_pkts: u64,
    /// Always 0: the event queue has no timer wheel (see [`Ctx::wheel_hits`]).
    pub wheel_hits: u64,
    /// Events pushed onto the event heaps, summed over shards.
    pub heap_falls: u64,
    /// True when the deadline cut the run short of queue exhaustion.
    pub hit_deadline: bool,
}

/// Sense-reversing spin barrier. Epochs are tens of microseconds of work;
/// a mutex/condvar barrier would cost a wakeup round-trip per phase, so
/// waiters spin briefly and then yield.
struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

/// Prefix of the panic a poisoned barrier raises in the *surviving*
/// workers. [`run_sharded`] filters these out so the panic that reaches the
/// caller is the one from the worker that actually failed.
const PEER_PANIC: &str = "peer shard worker panicked";

impl SpinBarrier {
    fn new(n: usize) -> SpinBarrier {
        SpinBarrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Release every current and future waiter with a panic. Called when a
    /// worker dies mid-protocol: without it the surviving shards would spin
    /// at the next barrier forever.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    fn check_poison(&self) {
        if self.poisoned.load(Ordering::Acquire) {
            panic!("{PEER_PANIC}: released from the epoch barrier");
        }
    }

    fn wait(&self) {
        self.check_poison();
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.generation.store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                self.check_poison();
                spins += 1;
                if spins < 4096 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Is this panic payload the barrier's own release panic (as opposed to the
/// root cause from the worker that died first)?
fn is_peer_release(p: &(dyn std::any::Any + Send)) -> bool {
    p.downcast_ref::<String>().is_some_and(|s| s.starts_with(PEER_PANIC))
        || p.downcast_ref::<&str>().is_some_and(|s| s.starts_with(PEER_PANIC))
}

/// Per-worker result, folded into the [`ShardOutcome`].
struct WorkerDone<W> {
    world: W,
    now: SimTime,
    events: u64,
    sends: u64,
    cross: u64,
    wheel_hits: u64,
    heap_falls: u64,
    epochs: u64,
    hit_deadline: bool,
}

/// Run `worlds` (one per shard) to completion under the sharded engine.
///
/// Panics if `cfg.lookahead` is zero or `worlds.len() != cfg.shards`.
/// With `cfg.shards == 1` no thread is spawned and no barrier is taken —
/// that path *is* the sequential reference discipline, yet it still routes
/// every message through the sorted-mailbox merge, so its results equal the
/// parallel engine's by construction.
pub fn run_sharded<W: ShardWorld>(mut cfg: ShardCfg, worlds: Vec<W>) -> ShardOutcome<W> {
    let shards = cfg.shards.max(1);
    assert!(
        cfg.lookahead > Dur::ZERO,
        "sharded DES needs a positive lookahead: a zero-latency cross-node link admits no conservative window"
    );
    assert_eq!(worlds.len(), shards, "need exactly one world per shard");
    if let Some(ts) = &cfg.tracers {
        assert_eq!(ts.len(), shards, "need exactly one tracer per shard");
    }

    let inboxes: Vec<Mutex<Vec<Outgoing<W::Msg>>>> =
        (0..shards).map(|_| Mutex::new(Vec::new())).collect();
    let next_times: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect();
    let barrier = SpinBarrier::new(shards);
    let mut tracers: Vec<Option<trace::Tracer>> = match cfg.tracers.take() {
        Some(ts) => ts.into_iter().map(Some).collect(),
        None => (0..shards).map(|_| None).collect(),
    };

    let mut results: Vec<Option<WorkerDone<W>>> = Vec::with_capacity(shards);
    if shards == 1 {
        let world = worlds.into_iter().next().unwrap();
        results.push(Some(worker(&cfg, 0, world, tracers[0].take(), &inboxes, &next_times, &barrier)));
    } else {
        let mut slots: Vec<Option<WorkerDone<W>>> = (0..shards).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(shards);
            for (me, (world, tracer)) in worlds.into_iter().zip(tracers.iter_mut()).enumerate() {
                let cfg = &cfg;
                let inboxes = &inboxes;
                let next_times = &next_times;
                let barrier = &barrier;
                let tracer = tracer.take();
                handles.push(scope.spawn(move || {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        worker(cfg, me as u32, world, tracer, inboxes, next_times, barrier)
                    }));
                    if r.is_err() {
                        // Release the peers: they would otherwise spin at
                        // the next epoch barrier forever waiting for us.
                        barrier.poison();
                    }
                    r
                }));
            }
            // Join everything first, then re-raise the most informative
            // panic: the root cause from the worker that died, not the
            // barrier-release panics its death triggered in the survivors.
            let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
            for (slot, h) in slots.iter_mut().zip(handles) {
                match h.join().expect("shard worker thread died outside catch_unwind") {
                    Ok(done) => *slot = Some(done),
                    Err(p) => {
                        let replace = match &first_panic {
                            None => true,
                            Some(cur) => is_peer_release(cur.as_ref()) && !is_peer_release(p.as_ref()),
                        };
                        if replace {
                            first_panic = Some(p);
                        }
                    }
                }
            }
            if let Some(p) = first_panic {
                std::panic::resume_unwind(p);
            }
        });
        results = slots;
    }

    let mut out = ShardOutcome {
        worlds: Vec::with_capacity(shards),
        shards: shards as u32,
        lookahead: cfg.lookahead,
        end_time: SimTime::ZERO,
        events: 0,
        sends_total: 0,
        epochs: 0,
        cross_shard_pkts: 0,
        wheel_hits: 0,
        heap_falls: 0,
        hit_deadline: false,
    };
    for r in results.into_iter().map(|r| r.expect("missing worker result")) {
        out.end_time = out.end_time.max(r.now);
        out.events += r.events;
        out.sends_total += r.sends;
        out.cross_shard_pkts += r.cross;
        out.wheel_hits += r.wheel_hits;
        out.heap_falls += r.heap_falls;
        // Every worker computes the same epoch/deadline story.
        out.epochs = r.epochs;
        out.hit_deadline = r.hit_deadline;
        out.worlds.push(r.world);
    }
    out
}

/// One shard's event loop: `publish → barrier → decide epoch → execute →
/// exchange → barrier → merge inbox`, repeated until the global queue
/// drains or the deadline passes.
fn worker<W: ShardWorld>(
    cfg: &ShardCfg,
    me: u32,
    world: W,
    tracer: Option<trace::Tracer>,
    inboxes: &[Mutex<Vec<Outgoing<W::Msg>>>],
    next_times: &[AtomicU64],
    barrier: &SpinBarrier,
) -> WorkerDone<W> {
    let shards = inboxes.len() as u32;
    let l_ns = cfg.lookahead.as_nanos();
    let deadline_ns = cfg.deadline.as_nanos();

    let mut ctx: Ctx<ShardSim<W>> = Ctx::new(derive_rng(cfg.seed, me as u64));
    ctx.set_tracer(tracer);
    let mut sim = ShardSim {
        world,
        mail: Mailbox {
            shard: me,
            shards,
            lookahead: cfg.lookahead,
            epoch_end: SimTime::ZERO,
            out: Vec::new(),
            sseq: Vec::new(),
            sends: 0,
        },
    };

    // Staging bins, one per destination shard, reused across epochs.
    let mut bins: Vec<Vec<Outgoing<W::Msg>>> = (0..shards).map(|_| Vec::new()).collect();
    let mut inbox_buf: Vec<Outgoing<W::Msg>> = Vec::new();
    let mut cross = 0u64;
    let mut epochs = 0u64;
    let mut hit_deadline = false;
    // End of the last executed window. Floors the next window so the end
    // times strictly increase even if a shard publishes a stale (already
    // executed) conservative lower bound.
    let mut prev_end = 0u64;

    // Initial events (and initial sends, flushed before anything runs —
    // nothing has executed yet, so they are exempt from the epoch bound).
    W::init(&mut sim, &mut ctx);
    exchange(&mut sim, &mut bins, inboxes, me, &mut cross);
    barrier.wait();
    merge_inbox::<W>(&mut ctx, &mut inbox_buf, &inboxes[me as usize]);

    loop {
        // Publish my conservative next-event time; the barrier makes every
        // shard's value visible, and each shard derives the same decision.
        let next = ctx.next_event_key().map_or(u64::MAX, |(t, _)| t.as_nanos());
        next_times[me as usize].store(next, Ordering::Release);
        barrier.wait();
        let gmin = next_times.iter().map(|t| t.load(Ordering::Acquire)).min().unwrap();
        if gmin == u64::MAX {
            break; // queues drained everywhere, nothing staged
        }
        if gmin > deadline_ns {
            hit_deadline = true;
            break;
        }

        // Adaptive window: anchor the epoch at the global minimum and run a
        // full lookahead past it, `[gmin, gmin + L)`, instead of snapping to
        // the fixed grid cell `[k·L, (k+1)·L)` that merely *contains* `gmin`
        // (which on average wastes half of `L` per barrier). Safe: every
        // pending event fires at `t ≥ gmin`, so any send it makes arrives at
        // `t + L ≥ gmin + L = e_end`. Deterministic: `gmin` is the global
        // minimum agreed at the barrier — a property of the traffic, not of
        // the partition — so every shard count derives the same window
        // sequence. `prev_end` floors the anchor so a stale conservative
        // bound from an empty shard cannot stall or shrink the window.
        let gmin_eff = gmin.max(prev_end);
        let e_end_ns = gmin_eff.saturating_add(l_ns);
        prev_end = e_end_ns;
        sim.mail.epoch_end = SimTime::from_nanos(e_end_ns);
        ctx.set_deadline(SimTime::from_nanos((e_end_ns - 1).min(deadline_ns)));
        loop {
            match ctx.pop_event_due() {
                Popped::Fired(ev) => ev.call(&mut sim, &mut ctx),
                Popped::PastBound | Popped::Empty => break,
            }
        }
        epochs += 1;

        exchange(&mut sim, &mut bins, inboxes, me, &mut cross);
        barrier.wait();
        merge_inbox::<W>(&mut ctx, &mut inbox_buf, &inboxes[me as usize]);
    }

    WorkerDone {
        now: ctx.now(),
        events: ctx.events_fired(),
        sends: sim.mail.sends,
        cross,
        wheel_hits: ctx.wheel_hits(),
        heap_falls: ctx.heap_falls(),
        epochs,
        hit_deadline,
        world: sim.world,
    }
}

/// Route this epoch's staged sends into the destination shards' inboxes.
fn exchange<W: ShardWorld>(
    sim: &mut ShardSim<W>,
    bins: &mut [Vec<Outgoing<W::Msg>>],
    inboxes: &[Mutex<Vec<Outgoing<W::Msg>>>],
    me: u32,
    cross: &mut u64,
) {
    if sim.mail.out.is_empty() {
        return;
    }
    let shards = bins.len() as u32;
    for o in sim.mail.out.drain(..) {
        let d = shard_of(o.dst, shards);
        if d != me {
            *cross += 1;
        }
        bins[d as usize].push(o);
    }
    for (d, bin) in bins.iter_mut().enumerate() {
        if !bin.is_empty() {
            inboxes[d].lock().unwrap().append(bin);
        }
    }
}

/// Drain and sort this shard's inbox, inserting each arrival as a local
/// event. The `(at, src, sseq)` sort plus the scheduler's FIFO tie-break on
/// equal timestamps makes the delivery order a pure function of the
/// traffic.
fn merge_inbox<W: ShardWorld>(
    ctx: &mut Ctx<ShardSim<W>>,
    buf: &mut Vec<Outgoing<W::Msg>>,
    inbox: &Mutex<Vec<Outgoing<W::Msg>>>,
) {
    debug_assert!(buf.is_empty());
    std::mem::swap(buf, &mut *inbox.lock().unwrap());
    if buf.is_empty() {
        return;
    }
    buf.sort_unstable_by_key(|o| (o.at, o.src, o.sseq));
    for o in buf.drain(..) {
        let m = Inbound { at: o.at, src: o.src, sseq: o.sseq, dst: o.dst, msg: o.msg };
        ctx.schedule_at(m.at, move |sim, ctx| W::deliver(sim, ctx, m));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pong mesh: every node fires a message to its successor; each
    /// arrival bumps a counter and forwards until `hops` runs out.
    struct Ring {
        nodes: u32,
        hops: u32,
        counts: Vec<u64>,
        last_at: Vec<u64>,
    }

    impl Ring {
        fn new(shard: u32, shards: u32, nodes: u32, hops: u32) -> Ring {
            let local = (0..nodes).filter(|n| shard_of(*n, shards) == shard).count();
            Ring { nodes, hops, counts: vec![0; local], last_at: vec![0; local] }
        }
    }

    impl ShardWorld for Ring {
        type Msg = u32; // remaining hops

        fn init(sim: &mut ShardSim<Self>, _ctx: &mut Ctx<ShardSim<Self>>) {
            let (nodes, hops) = (sim.world.nodes, sim.world.hops);
            let (shard, shards) = (sim.shard(), sim.shards());
            for n in (0..nodes).filter(|n| shard_of(*n, shards) == shard) {
                let dst = (n + 1) % nodes;
                sim.send(n, dst, SimTime::ZERO + sim.lookahead(), hops);
            }
        }

        fn deliver(sim: &mut ShardSim<Self>, _ctx: &mut Ctx<ShardSim<Self>>, m: Inbound<u32>) {
            let ix = local_ix(m.dst, sim.shards());
            sim.world.counts[ix] += 1;
            sim.world.last_at[ix] = m.at.as_nanos();
            if m.msg > 1 {
                let dst = (m.dst + 1) % sim.world.nodes;
                sim.send(m.dst, dst, m.at + sim.lookahead(), m.msg - 1);
            }
        }
    }

    fn run_ring(shards: usize, nodes: u32, hops: u32) -> (Vec<u64>, Vec<u64>, ShardOutcome<Ring>) {
        let l = Dur::from_micros(22);
        let worlds: Vec<Ring> =
            (0..shards).map(|s| Ring::new(s as u32, shards as u32, nodes, hops)).collect();
        let out = run_sharded(ShardCfg::new(shards, l, 0x5EED), worlds);
        // Flatten per-shard locals back to global node order.
        let mut counts = vec![0u64; nodes as usize];
        let mut last = vec![0u64; nodes as usize];
        for n in 0..nodes {
            let s = shard_of(n, shards as u32) as usize;
            let ix = local_ix(n, shards as u32);
            counts[n as usize] = out.worlds[s].counts[ix];
            last[n as usize] = out.worlds[s].last_at[ix];
        }
        (counts, last, out)
    }

    #[test]
    fn ring_runs_to_completion() {
        let (counts, _, out) = run_ring(1, 5, 7);
        assert_eq!(counts.iter().sum::<u64>(), 5 * 7);
        assert!(!out.hit_deadline);
        assert_eq!(out.events, out.sends_total, "one delivery event per send");
    }

    #[test]
    fn shard_counts_agree() {
        let base = run_ring(1, 6, 9);
        for shards in [2, 3, 4] {
            let got = run_ring(shards, 6, 9);
            assert_eq!(got.0, base.0, "counts diverge at shards={shards}");
            assert_eq!(got.1, base.1, "arrival times diverge at shards={shards}");
            assert_eq!(got.2.events, base.2.events);
            assert_eq!(got.2.sends_total, base.2.sends_total);
            assert_eq!(got.2.end_time, base.2.end_time);
        }
    }

    #[test]
    fn empty_shards_ride_along() {
        // More shards than nodes: shards 2..7 own nothing.
        let base = run_ring(1, 2, 4);
        let got = run_ring(7, 2, 4);
        assert_eq!(got.0, base.0);
        assert_eq!(got.2.events, base.2.events);
    }

    #[test]
    fn skip_ahead_spares_empty_epochs() {
        // Two messages a full simulated second apart: without skip-ahead
        // that is ~45k empty epochs at L = 22 µs; with it, one per message.
        struct Sparse {
            got: u64,
        }
        impl ShardWorld for Sparse {
            type Msg = ();
            fn init(sim: &mut ShardSim<Self>, _ctx: &mut Ctx<ShardSim<Self>>) {
                if sim.shard() == 0 {
                    sim.send(0, 1, SimTime::ZERO + Dur::from_millis(1), ());
                    sim.send(0, 1, SimTime::ZERO + Dur::from_secs(1), ());
                }
            }
            fn deliver(sim: &mut ShardSim<Self>, _ctx: &mut Ctx<ShardSim<Self>>, _m: Inbound<()>) {
                sim.world.got += 1;
            }
        }
        let out = run_sharded(
            ShardCfg::new(2, Dur::from_micros(22), 1),
            vec![Sparse { got: 0 }, Sparse { got: 0 }],
        );
        assert_eq!(out.worlds[0].got + out.worlds[1].got, 2);
        assert!(out.epochs <= 4, "expected skip-ahead, got {} epochs", out.epochs);
    }

    #[test]
    fn adaptive_window_straddles_the_grid() {
        // Two arrivals 0.2·L apart but straddling a grid boundary (0.9·L
        // and 1.1·L). The fixed grid would spend one epoch per cell; the
        // adaptive window [0.9·L, 1.9·L) executes both in a single round —
        // at every shard count.
        struct Pair {
            got: u64,
        }
        impl ShardWorld for Pair {
            type Msg = ();
            fn init(sim: &mut ShardSim<Self>, _ctx: &mut Ctx<ShardSim<Self>>) {
                if sim.shard() == 0 {
                    // 0.9·L and 1.1·L for L = 22 µs.
                    sim.send(0, 1, SimTime::ZERO + Dur::from_nanos(19_800), ());
                    sim.send(0, 1, SimTime::ZERO + Dur::from_nanos(24_200), ());
                }
            }
            fn deliver(sim: &mut ShardSim<Self>, _ctx: &mut Ctx<ShardSim<Self>>, _m: Inbound<()>) {
                sim.world.got += 1;
            }
        }
        for shards in [1usize, 2] {
            let worlds = (0..shards).map(|_| Pair { got: 0 }).collect();
            let out = run_sharded(ShardCfg::new(shards, Dur::from_micros(22), 3), worlds);
            let got: u64 = out.worlds.iter().map(|w| w.got).sum();
            assert_eq!(got, 2);
            assert_eq!(out.epochs, 1, "adaptive window should cover both arrivals");
        }
    }

    #[test]
    fn deadline_cuts_the_run() {
        let l = Dur::from_micros(22);
        let mut cfg = ShardCfg::new(1, l, 2);
        cfg.deadline = SimTime::ZERO + Dur::from_micros(50); // 2 hops of 22 µs fit
        let worlds = vec![Ring::new(0, 1, 2, 100)];
        let out = run_sharded(cfg, worlds);
        assert!(out.hit_deadline);
        // Two counter-rotating messages, two hop-times (22 µs, 44 µs) below
        // the 50 µs deadline: 2 deliveries per hop-time, 96 hops forgone.
        assert_eq!(out.worlds[0].counts.iter().sum::<u64>(), 4);
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_lookahead_rejected() {
        let _ = run_sharded(ShardCfg::new(1, Dur::ZERO, 0), vec![Ring::new(0, 1, 2, 1)]);
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn undercutting_the_lookahead_is_caught() {
        struct Cheat;
        impl ShardWorld for Cheat {
            type Msg = ();
            fn init(sim: &mut ShardSim<Self>, _ctx: &mut Ctx<ShardSim<Self>>) {
                if sim.shard() == 0 {
                    sim.send(0, 1, SimTime::ZERO + Dur::from_micros(100), ());
                }
            }
            fn deliver(sim: &mut ShardSim<Self>, _ctx: &mut Ctx<ShardSim<Self>>, m: Inbound<()>) {
                // Arrival sooner than the lookahead: must panic.
                sim.send(m.dst, 0, m.at + Dur::from_nanos(1), ());
            }
        }
        let _ = run_sharded(ShardCfg::new(2, Dur::from_micros(22), 0), vec![Cheat, Cheat]);
    }
}
