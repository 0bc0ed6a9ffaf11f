//! Layer probes: timed loops over one layer's public functions, sized from
//! the traced workload's own counts.
//!
//! Each probe reports nanoseconds per operation. Multiplied by the
//! workload's operation count and divided by its CPU time, a probe gives
//! the layer's *estimated* share of that CPU time — an estimate, because a
//! loop over one function runs with warmer caches than the workload does.

use std::hint::black_box;
use std::time::Instant;

use mpi_core::envelope::{EnvKind, Envelope};
use mpi_core::matching::Core;
use netsim::{IfAddr, Net, NetCfg};
use simcore::rng::derive_rng;
use simcore::{Ctx, Dur, ProcEnv, ProcId, Runtime, SimTime};
use transport::{crc32c, wire_bytes};

fn per_op(t0: Instant, ops: u64) -> f64 {
    t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Two processes passing the run token back and forth through
/// `block_on`/`wake`: ns per round trip (two handoffs).
pub fn handoff_ns(round_trips: u64) -> f64 {
    struct Turn(usize);
    let mut rt = Runtime::new(Turn(0), 1);
    for me in 0..2usize {
        rt.spawn(format!("p{me}"), move |env: ProcEnv<Turn>| {
            for i in 0..round_trips {
                env.block_on(|w, _| (w.0 == me).then_some(()));
                // The last pass of the second process has no one to wake.
                let last = me == 1 && i + 1 == round_trips;
                env.with(|w, ctx| {
                    w.0 = 1 - me;
                    if !last {
                        ctx.wake(ProcId(1 - me));
                    }
                });
            }
        });
    }
    let t0 = Instant::now();
    let out = rt.run();
    black_box(out.events);
    per_op(t0, round_trips)
}

/// Scheduler: `events` timers fired through a standalone `Ctx`, each
/// re-arming with the next delay of `delays` (the workload's delay mix) so
/// a steady `DEPTH` timers stay queued. ns per event (insert + pop + call).
pub fn sched_event_ns(events: u64, delays: &[u64]) -> f64 {
    const DEPTH: u64 = 64;
    struct Q {
        fired: u64,
        target: u64,
        next: usize,
        delays: Vec<u64>,
    }
    fn tick(q: &mut Q, ctx: &mut Ctx<Q>) {
        q.fired += 1;
        if q.fired + DEPTH <= q.target {
            let d = q.delays[q.next % q.delays.len()];
            q.next += 1;
            ctx.schedule_in(Dur::from_nanos(d), tick);
        }
    }
    let delays = if delays.is_empty() {
        vec![1_000]
    } else {
        delays.to_vec()
    };
    let events = events.max(DEPTH);
    let mut q = Q {
        fired: 0,
        target: events,
        next: DEPTH as usize,
        delays,
    };
    let mut ctx: Ctx<Q> = Ctx::standalone(derive_rng(1, 0));
    for k in 0..DEPTH as usize {
        ctx.schedule_in(Dur::from_nanos(q.delays[k % q.delays.len()]), tick);
    }
    let t0 = Instant::now();
    let fired = ctx.run_due(&mut q, SimTime::MAX);
    let ns = per_op(t0, fired);
    assert_eq!(fired, events, "every armed timer fires once");
    ns
}

/// Network: `pkts` full-size packets offered in trains of `train` through
/// `Net::transmit_burst_into` at loss rate `loss`, paced so queues never
/// fill. ns per packet.
pub fn netsim_pkt_ns(pkts: u64, train: usize, loss: f64) -> f64 {
    let train = train.max(1);
    let cfg = NetCfg::paper_cluster(loss);
    let hosts = cfg.hosts;
    let mut net = Net::new(cfg);
    let mut rng = derive_rng(1, 0);
    let sizes = vec![1500u32; train];
    let mut out = Vec::with_capacity(train);
    let trains = (pkts / train as u64).max(1);
    // A 1500 B frame serializes in 12 µs at 1 Gb/s; leave each train's
    // sender that long per packet, plus slack, before it sends again.
    let gap = Dur::from_nanos(train as u64 * 12_000 + 10_000);
    let mut now = SimTime::ZERO;
    let t0 = Instant::now();
    for i in 0..trains {
        let src = IfAddr::new((i % hosts as u64) as u16, 0);
        let dst = IfAddr::new(((i + 1) % hosts as u64) as u16, 0);
        out.clear();
        net.transmit_burst_into(now, src, dst, black_box(&sizes), &mut rng, &mut out);
        black_box(&out);
        if src.host + 1 == hosts {
            now += gap;
        }
    }
    per_op(t0, trains * train as u64)
}

/// MPI matching: the farm manager's side of a request flood — wildcard
/// (`ANY_SOURCE`) receives for one tag, envelopes from every worker. A
/// share `unexpected` of envelopes arrive before their receive is posted
/// and park on the unexpected queue. ns per `on_envelope`/`post_recv` call.
pub fn matching_op_ns(envelopes: u64, unexpected: f64) -> f64 {
    const RANKS: u16 = 8;
    const REQ_TAG: i32 = 1_000;
    let mut core = Core::new(0, RANKS, 64 * 1024);
    let mut debt = 0.0;
    let t0 = Instant::now();
    for i in 0..envelopes {
        let src = 1 + (i % (RANKS as u64 - 1)) as u16;
        let env = Envelope {
            kind: EnvKind::Eager,
            src,
            tag: REQ_TAG,
            cxt: 0,
            len: 0,
            seq: i as u32,
        };
        debt += unexpected;
        let req = if debt >= 1.0 {
            debt -= 1.0;
            let o = core.on_envelope(src, env);
            core.body_done(o.sink.expect("eager envelopes carry a body"));
            core.post_recv(None, Some(REQ_TAG), 0).0
        } else {
            let (req, _) = core.post_recv(None, Some(REQ_TAG), 0);
            let o = core.on_envelope(src, env);
            core.body_done(o.sink.expect("eager envelopes carry a body"));
            req
        };
        black_box(core.take_done(req));
    }
    per_op(t0, 2 * envelopes)
}

/// `wire_bytes::decode_packet` on a captured frame: ns per frame.
pub fn decode_ns(frame: &[u8], n: u64) -> f64 {
    wire_bytes::decode_packet(frame).expect("captured frames decode");
    let t0 = Instant::now();
    for _ in 0..n {
        let _ = black_box(wire_bytes::decode_packet(black_box(frame)));
    }
    per_op(t0, n)
}

/// `wire_bytes::encode_packet` on the decoded form of a captured frame:
/// ns per frame.
pub fn encode_ns(frame: &[u8], n: u64) -> f64 {
    let pkt = wire_bytes::decode_packet(frame).expect("captured frames decode");
    let t0 = Instant::now();
    for _ in 0..n {
        black_box(wire_bytes::encode_packet(black_box(&pkt), 0));
    }
    per_op(t0, n)
}

/// `crc32c` over a captured frame: ns per KiB checksummed.
pub fn crc32c_ns_per_kib(frame: &[u8], n: u64) -> f64 {
    let t0 = Instant::now();
    for _ in 0..n {
        black_box(crc32c::crc32c(black_box(frame)));
    }
    per_op(t0, n) * 1024.0 / frame.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_run_and_report_positive_costs() {
        assert!(handoff_ns(50) > 0.0);
        assert!(sched_event_ns(1_000, &[5_000, 200_000_000]) > 0.0);
        assert!(netsim_pkt_ns(1_000, 4, 0.01) > 0.0);
        assert!(matching_op_ns(1_000, 0.25) > 0.0);
    }
}
