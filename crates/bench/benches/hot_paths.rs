//! Microbenchmarks for the two hot paths the indexed rewrites target:
//!
//! * `sack_storm` — SCTP streaming a large window through 2% loss, so every
//!   SACK carries gap blocks and the sender's ack/mark bookkeeping (cum-ack
//!   prefix drop, rtx-queue maintenance, missing-report strikes) dominates.
//! * `matching_churn` — a farm-style flood of unexpected messages from many
//!   sources drained by wildcard receives, plus the farm workload itself,
//!   so the `(cxt, src, tag)`-indexed matcher and its incremental GC are on
//!   the measured path.
//!
//! * `park_wake` — the runtime handoff primitives themselves: a full
//!   process → driver → process round trip (two coroutine switches each
//!   way), and a burst of uncontended CPU charges the sleep fast path folds
//!   into inline clock advances (zero handoffs).
//!
//! * `burst_path` — packet-train fusion: one `transmit_burst` call against
//!   the equivalent per-packet `transmit` loop on the raw network model, and
//!   a fusion-heavy end-to-end transfer whose deliveries ride fused train
//!   events.
//!
//! Run with `cargo bench --offline -p bench-harness --bench hot_paths`.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

use mpi_core::envelope::{EnvKind, Envelope};
use mpi_core::matching::Core;
use mpi_core::MpiCfg;
use simcore::{Dur, ProcEnv, ProcId, Runtime};
use workloads::farm::{self, FarmCfg};
use workloads::pingpong::{self, PingPongCfg};

fn sack_storm(c: &mut Criterion) {
    // 300 KB messages keep tens of chunks outstanding; 2% loss makes every
    // SACK a gap report and triggers fast retransmit + T3 regularly.
    c.bench_function("sack_storm/sctp_300k_loss2", |b| {
        b.iter(|| {
            let r = pingpong::run(
                MpiCfg::sctp(2, 0.02).with_seed(0xBA5E),
                PingPongCfg { size: 300 * 1024, iters: 4 },
            );
            black_box(r.throughput)
        })
    });
    c.bench_function("sack_storm/tcp_300k_loss2", |b| {
        b.iter(|| {
            let r = pingpong::run(
                MpiCfg::tcp(2, 0.02).with_seed(0xBA5E),
                PingPongCfg { size: 300 * 1024, iters: 4 },
            );
            black_box(r.throughput)
        })
    });
}

fn matching_churn(c: &mut Criterion) {
    // Pure matcher churn, farm-shaped: bursts of eager messages from many
    // sources pile up unexpected, then wildcard receives drain them in
    // arrival order. With the naive scan this is quadratic per round.
    c.bench_function("matching_churn/unexpected_flood", |b| {
        b.iter(|| {
            let mut core = Core::new(0, 64, 64 * 1024);
            let mut delivered = 0u64;
            for round in 0..8u32 {
                for src in 0..63u16 {
                    for k in 0..4u32 {
                        let env = Envelope {
                            kind: EnvKind::Eager,
                            src,
                            tag: (k % 3) as i32,
                            cxt: 0,
                            len: 1,
                            seq: round * 4 + k,
                        };
                        let sink = core.on_envelope(src, env).sink.unwrap();
                        core.body_chunk(sink, Bytes::from_static(b"x"));
                        let _ = core.body_done(sink);
                    }
                }
                // Drain with the farm manager's filter: ANY_SOURCE, one tag.
                for tag in 0..3i32 {
                    loop {
                        let (r, _) = core.post_recv(None, Some(tag), 0);
                        if !core.is_done(r) {
                            break;
                        }
                        let _ = core.take_done(r);
                        delivered += 1;
                    }
                }
            }
            black_box(delivered)
        })
    });
    // The real workload the flood models, end to end.
    c.bench_function("matching_churn/farm_small_sctp", |b| {
        b.iter(|| {
            let r = farm::run(MpiCfg::sctp(8, 0.0), FarmCfg::small(30 * 1024, 1));
            black_box((r.secs, r.unexpected_peak))
        })
    });
}

fn park_wake(c: &mut Criterion) {
    // Two processes ping-pong through park/wake 256 times: each exchange is
    // one deposit + wake + block_on, i.e. a park to the driver and a resume
    // of the peer in each direction. Every resume counts as one handoff, so
    // the measured per-iteration cost divided by the reported handoff count
    // is the price of one park + resume.
    c.bench_function("park_wake/round_trip_x256", |b| {
        b.iter(|| {
            #[derive(Default)]
            struct W {
                a: u32,
                b: u32,
            }
            const N: u32 = 256;
            let mut rt = Runtime::new(W::default(), 1);
            rt.spawn("a", |env: ProcEnv<W>| {
                for i in 0..N {
                    env.with(|w, ctx| {
                        w.b += 1;
                        ctx.wake(ProcId(1));
                    });
                    env.block_on(move |w, _| (w.a > i).then_some(()));
                }
            });
            rt.spawn("b", |env: ProcEnv<W>| {
                for i in 0..N {
                    env.block_on(move |w, _| (w.b > i).then_some(()));
                    env.with(|w, ctx| {
                        w.a += 1;
                        ctx.wake(ProcId(0));
                    });
                }
            });
            black_box(rt.run().handoffs)
        })
    });
    // 64 consecutive uncontended CPU charges: under the reference
    // discipline each is a timer park + wake; the fast path advances the
    // clock inline and performs zero handoffs for the whole batch.
    c.bench_function("park_wake/charge_batch_x64", |b| {
        b.iter(|| {
            let mut rt = Runtime::new((), 1);
            rt.spawn("p", |env: ProcEnv<()>| {
                for _ in 0..64 {
                    env.sleep(Dur::from_nanos(100));
                }
            });
            let out = rt.run();
            black_box((out.events, out.wakes_coalesced))
        })
    });
}

fn burst_path(c: &mut Criterion) {
    use netsim::{IfAddr, Net, NetCfg};
    use simcore::derive_rng;
    use simcore::SimTime;

    // The raw network model: one 32-segment train offered in a single
    // burst call versus the 32 sequential transmits it replaces. Same
    // verdicts, same RNG draws — the delta is pure per-call overhead.
    let sizes = [1500u32; 32];
    c.bench_function("burst_path/transmit_burst_x32", |b| {
        b.iter(|| {
            let mut net = Net::new(NetCfg::paper_cluster(0.01));
            let mut rng = derive_rng(0xB0, 0);
            let v = net.transmit_burst(
                SimTime::ZERO,
                IfAddr::new(0, 0),
                IfAddr::new(1, 0),
                black_box(&sizes),
                &mut rng,
            );
            black_box(v.len())
        })
    });
    c.bench_function("burst_path/transmit_seq_x32", |b| {
        b.iter(|| {
            let mut net = Net::new(NetCfg::paper_cluster(0.01));
            let mut rng = derive_rng(0xB0, 0);
            let mut n = 0usize;
            for &sz in black_box(&sizes).iter() {
                let _ = net.transmit(SimTime::ZERO, IfAddr::new(0, 0), IfAddr::new(1, 0), sz, &mut rng);
                n += 1;
            }
            black_box(n)
        })
    });
    // End to end: a lossless 300 KB ping-pong streams congestion-window
    // bursts back to back, so most deliveries ride fused train events.
    c.bench_function("burst_path/pingpong_300k_fused", |b| {
        b.iter(|| {
            let r = pingpong::run(
                MpiCfg::sctp(2, 0.0).with_seed(0xF05E),
                PingPongCfg { size: 300 * 1024, iters: 4 },
            );
            black_box((r.throughput, r.bursts_total, r.pkts_fused))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = sack_storm, matching_churn, park_wake, burst_path
}
criterion_main!(benches);
