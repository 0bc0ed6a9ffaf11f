//! The traced run: per-layer metrics, from rusage, the result structs'
//! counters, the flight recorder, `ALLOC_METER`, spans around the live
//! path's public calls, and the probes in [`crate::probes`].
//!
//! The run makes untraced baseline passes (half of `--seconds`), one
//! untraced pass under the allocation meter, and one traced pass, of the
//! workload's own part (the simulator, or the live path for `live`). Then
//! every workload makes one plain and one traced live pass, since the live
//! path is the only one through `wire_bytes` and the UDP backend.
//!
//! A probe's iteration count is the workload's own count for its layer,
//! clamped: at least a floor, so the timing resolves (also on a workload
//! that never reaches the layer), at most a ceiling, so the run stays short.

use std::time::Duration;

use bench_harness::alloc_meter;

use crate::live::{self, SCTP, TCP};
use crate::sim::{self, Counters, Expect, Kind, Workload};
use crate::stats::{median, pct, Metrics, Tally};
use crate::sys::Usage;
use crate::{probes, ratio, repeat};

/// What the flight recorder saw, reduced to what the layer metrics need.
#[derive(Debug, Default)]
struct Recorded {
    /// Timer delays in ns: packet deliveries and RTO arms.
    delays: Vec<u64>,
    /// Envelopes that matched a posted receive / parked as unexpected.
    posted: u64,
    unexpected: u64,
    /// Smallest and largest whole SCTP DATA frames captured.
    small_frame: Option<Vec<u8>>,
    mtu_frame: Option<Vec<u8>>,
    /// Records the ring overwrote: the counts above are then lower bounds.
    dropped: u64,
}

/// Enough delay samples to carry the mix; more only slows the probe's set-up.
const MAX_DELAY_SAMPLES: usize = 1 << 16;

fn scan(dumps: &[trace::TraceDump]) -> Recorded {
    use trace::{Event, PktKind, PktVerdict, Proto8};
    let mut r = Recorded::default();
    for d in dumps {
        r.dropped += d.dropped;
        for rec in &d.recs {
            match &rec.ev {
                Event::Pkt(p) => {
                    if let PktVerdict::Deliver { at_ns } = p.verdict {
                        if at_ns > rec.t_ns {
                            r.delays.push(at_ns - rec.t_ns);
                        }
                    }
                    let whole = !p.frame.is_empty() && p.frame.len() as u32 == p.frame_orig_len;
                    if p.proto == Proto8::Sctp && p.kind == PktKind::Data && whole {
                        let len = p.frame.len();
                        if r.small_frame.as_ref().is_none_or(|f| len < f.len()) {
                            r.small_frame = Some(p.frame.clone());
                        }
                        if r.mtu_frame.as_ref().is_none_or(|f| len > f.len()) {
                            r.mtu_frame = Some(p.frame.clone());
                        }
                    }
                }
                Event::RtoArm(a) => r.delays.push(a.rto_ns),
                Event::MpiMatch(mm) if mm.posted => r.posted += 1,
                Event::MpiMatch(_) => r.unexpected += 1,
                _ => {}
            }
        }
    }
    if r.delays.len() > MAX_DELAY_SAMPLES {
        let stride = r.delays.len().div_ceil(MAX_DELAY_SAMPLES);
        r.delays = r.delays.iter().step_by(stride).copied().collect();
    }
    r
}

/// The workload's own part, measured three ways.
struct Part {
    /// Resource use summed over the untraced baseline passes.
    base: Usage,
    base_passes: usize,
    /// Median CPU seconds of one baseline pass.
    base_cpu: f64,
    /// CPU seconds of the traced pass.
    traced_cpu: f64,
    counters: Counters,
    /// Allocations counted over the metered pass, and its events.
    allocs: u64,
    alloc_events: u64,
    rec: Recorded,
    /// SHARDS=1 wall time over SHARDS=2 wall time (incast only).
    speedup: f64,
}

/// Run `f` under the allocation meter; its result and the allocations.
fn metered<T>(f: impl FnOnce() -> T) -> (T, u64) {
    alloc_meter::enable(true);
    let a0 = alloc_meter::allocs();
    let out = f();
    let n = alloc_meter::allocs() - a0;
    alloc_meter::enable(false);
    (out, n)
}

fn baseline(usages: &[Usage]) -> (Usage, f64) {
    let mut cpu: Vec<f64> = usages.iter().map(|u| u.cpu().as_secs_f64()).collect();
    let sum = usages.iter().fold(Usage::default(), |a, u| a.plus(u));
    (sum, median(&mut cpu))
}

fn sim_part(w: Workload, seed: u64, half: Duration, tally: &mut Tally) -> Part {
    let cells = sim::cells(w, seed);
    let mut expect = Expect::for_seed(w, seed);
    let plain = |c: &sim::Cell| sim::run_cell(c, false);
    let base = repeat(half, 2, || {
        sim::run_pass(w, &cells, &plain, &mut expect, tally)
    });
    let (metered_pass, allocs) = metered(|| sim::run_pass(w, &cells, &plain, &mut expect, tally));
    let traced = sim::run_pass(w, &cells, &|c| sim::run_cell(c, true), &mut expect, tally);
    let mut rec = scan(&traced.dumps);
    let speedup = if w == Workload::Incast {
        let mut per_pass: Vec<f64> = base
            .iter()
            .map(|p| {
                let wall = |shards: usize| -> f64 {
                    cells
                        .iter()
                        .zip(&p.cell_wall)
                        .filter(|(c, _)| matches!(c.kind, Kind::Incast(_, s) if s == shards))
                        .map(|(_, d)| d.as_secs_f64())
                        .sum()
                };
                ratio(wall(1), wall(2))
            })
            .collect();
        median(&mut per_pass)
    } else {
        0.0
    };
    if w == Workload::Incast {
        // No recorder: every incast delivery waits out one link latency.
        rec.delays = cells
            .iter()
            .filter_map(|c| match &c.kind {
                Kind::Incast(cfg, _) => Some(cfg.net.lookahead().as_nanos()),
                _ => None,
            })
            .collect();
    }
    let (base_usage, base_cpu) = baseline(&base.iter().map(|p| p.usage).collect::<Vec<_>>());
    Part {
        base: base_usage,
        base_passes: base.len(),
        base_cpu,
        traced_cpu: traced.usage.cpu().as_secs_f64(),
        // Incast has no recorder, so its traced pass adds nothing.
        counters: if w == Workload::Incast {
            metered_pass.counters
        } else {
            traced.counters
        },
        allocs,
        alloc_events: metered_pass.counters.events,
        rec,
        speedup,
    }
}

fn live_part(seed: u64, half: Duration, tally: &mut Tally) -> Part {
    let base = repeat(half, 2, || live::run_pass(seed, false, tally));
    let (metered_pass, allocs) = metered(|| live::run_pass(seed, false, tally));
    let traced = live::run_pass(seed, true, tally);
    let (base_usage, base_cpu) = baseline(&base.iter().map(|p| p.usage).collect::<Vec<_>>());
    Part {
        base: base_usage,
        base_passes: base.len(),
        base_cpu,
        traced_cpu: traced.usage.cpu().as_secs_f64(),
        counters: traced.counters,
        allocs,
        alloc_events: metered_pass.counters.events,
        rec: scan(&traced.dumps),
        speedup: 0.0,
    }
}

pub fn run(w: Option<Workload>, seed: u64, budget: Duration, tally: &mut Tally) -> Metrics {
    let part = match w {
        Some(w) => sim_part(w, seed, budget / 2, tally),
        None => live_part(seed, budget / 2, tally),
    };
    let plain = live::run_pass(seed, false, tally);
    let traced = live::run_pass(seed, true, tally);
    let live_rec = scan(&traced.dumps);
    let spans = traced.spans.as_ref().expect("a traced pass records spans");
    let c = &part.counters;
    let rec = &part.rec;
    let mut m = Metrics::default();

    // process: the thread-per-rank runtime.
    let kev = c.events as f64 * part.base_passes as f64 / 1000.0;
    m.put(
        "process.vcsw_per_kev",
        ratio(part.base.vcsw as f64, kev),
        "count",
    );
    m.put(
        "process.sys_share",
        ratio(part.base.sys.as_secs_f64(), part.base.cpu().as_secs_f64()),
        "ratio",
    );
    m.put("process.handoffs", c.handoffs as f64, "count");
    m.put("process.wakes_coalesced", c.wakes_coalesced as f64, "count");
    let handoff_ns = probes::handoff_ns((c.handoffs).clamp(2_000, 50_000));
    m.put("process.handoff_ns", handoff_ns, "ns");

    // sched: the timer wheel and heap.
    let sched_ns = probes::sched_event_ns((c.events).clamp(100_000, 2_000_000), &rec.delays);
    m.put("sched.events", c.events as f64, "count");
    m.put("sched.wheel_hits", c.wheel_hits as f64, "count");
    m.put("sched.heap_falls", c.heap_falls as f64, "count");
    m.put("sched.event_ns", sched_ns, "ns");

    // shard: the sharded engine.
    m.put("shard.epochs", c.epochs as f64, "count");
    m.put(
        "shard.events_per_epoch",
        ratio(c.events as f64, c.epochs as f64),
        "count",
    );
    m.put("shard.cross_pkts", c.cross_pkts as f64, "count");
    m.put("shard.speedup_2v1", part.speedup, "ratio");

    // netsim: the simulated cluster network.
    let ppt = ratio(c.pkts_fused as f64, c.trains as f64);
    let loss = ratio(c.drops as f64, c.net_pkts as f64);
    let n_pkts = (c.net_pkts).clamp(100_000, 2_000_000);
    let pkt_ns = probes::netsim_pkt_ns(n_pkts, ppt.round() as usize, loss);
    m.put("netsim.trains", c.trains as f64, "count");
    m.put("netsim.pkts_per_train", ppt, "count");
    m.put("netsim.drops", c.drops as f64, "count");
    m.put("netsim.pkt_ns", pkt_ns, "ns");

    // The transport engines.
    m.put("sctp.pkts", c.sctp_pkts as f64, "count");
    m.put("sctp.rtx", c.sctp_rtx as f64, "count");
    m.put("sctp.fast_rtx", c.sctp_fast_rtx as f64, "count");
    m.put("sctp.t3_fires", c.sctp_t3 as f64, "count");
    m.put("sctp.spurious_frtx", c.sctp_spurious as f64, "count");
    m.put("sctp.rescue_rtx", c.sctp_rescue as f64, "count");
    for (i, n) in c.sctp_path.iter().enumerate() {
        m.put(&format!("sctp.per_path_pkts.{i}"), *n as f64, "count");
    }
    m.put("tcp.segs", c.tcp_segs as f64, "count");
    m.put("tcp.rtx", c.tcp_rtx as f64, "count");
    m.put("tcp.fast_rtx", c.tcp_fast_rtx as f64, "count");
    m.put("tcp.rto_fires", c.tcp_rto as f64, "count");
    m.put("sctp.sendmsg_ns", pct(&spans.sctp_sendmsg, 50.0), "ns");
    m.put("sctp.recvmsg_ns", pct(&spans.sctp_recvmsg, 50.0), "ns");
    m.put("tcp.send_ns", pct(&spans.tcp_send, 50.0), "ns");
    m.put("tcp.recv_ns", pct(&spans.tcp_recv, 50.0), "ns");

    // pool: the packet-plane memory.
    m.put(
        "pool.allocs_per_event",
        ratio(part.allocs as f64, part.alloc_events as f64),
        "count",
    );

    // wire_bytes, crc32c, the UDP backend and its reactor.
    let n_wire = (traced.udp.tx_frames + traced.udp.rx_frames).clamp(20_000, 500_000);
    let (small, mtu) = match (&live_rec.small_frame, &live_rec.mtu_frame) {
        (Some(s), Some(m)) => (s.as_slice(), m.as_slice()),
        _ => {
            tally.fail("live capture", "no SCTP DATA frame recorded");
            (&[][..], &[][..])
        }
    };
    let probe = |f: fn(&[u8], u64) -> f64, frame: &[u8]| {
        if frame.is_empty() {
            0.0
        } else {
            f(frame, n_wire)
        }
    };
    let (enc64, encmtu) = (
        probe(probes::encode_ns, small),
        probe(probes::encode_ns, mtu),
    );
    let (dec64, decmtu) = (
        probe(probes::decode_ns, small),
        probe(probes::decode_ns, mtu),
    );
    m.put("wire_bytes.encode_64_ns", enc64, "ns");
    m.put("wire_bytes.encode_mtu_ns", encmtu, "ns");
    m.put("wire_bytes.decode_64_ns", dec64, "ns");
    m.put("wire_bytes.decode_mtu_ns", decmtu, "ns");
    m.put(
        "crc32c.ns_per_kib",
        probe(probes::crc32c_ns_per_kib, mtu),
        "ns",
    );
    m.put("udp.tx_frames", traced.udp.tx_frames as f64, "count");
    m.put("udp.rx_frames", traced.udp.rx_frames as f64, "count");
    m.put("backend.poll_ns", pct(&spans.poll, 50.0), "ns");
    let idle = ratio(spans.idle_polls as f64, spans.poll.len() as f64);
    m.put("backend.idle_poll_share", idle, "ratio");
    m.put(
        "live.sctp_rtt_p50_us",
        pct(&plain.rtt_small[SCTP], 50.0),
        "us",
    );
    m.put(
        "live.tcp_rtt_p50_us",
        pct(&plain.rtt_small[TCP], 50.0),
        "us",
    );
    m.put(
        "live.rtt_p99_us",
        pct(&plain.rtt_small.concat(), 99.0),
        "us",
    );

    // matching: MPI envelope matching.
    let envelopes = rec.posted + rec.unexpected;
    let share = ratio(rec.unexpected as f64, envelopes as f64);
    let op_ns = probes::matching_op_ns((envelopes).clamp(20_000, 200_000), share);
    m.put(
        "matching.unexpected_peak",
        c.unexpected_peak as f64,
        "count",
    );
    m.put("matching.op_ns", op_ns, "ns");
    m.put("matching.unexpected_share", share, "ratio");

    // Estimated CPU shares: count × probe cost ÷ the part's CPU time.
    let est = |ops: f64, ns: f64, cpu: f64| ratio(ops * ns / 1e9, cpu);
    m.put(
        "sched.est_share",
        est(c.events as f64, sched_ns, part.base_cpu),
        "ratio",
    );
    m.put(
        "netsim.est_share",
        est(c.net_pkts as f64, pkt_ns, part.base_cpu),
        "ratio",
    );
    m.put(
        "matching.est_share",
        est(2.0 * envelopes as f64, op_ns, part.base_cpu),
        "ratio",
    );
    let live_cpu = plain.usage.cpu().as_secs_f64();
    let wire = est(
        traced.udp.tx_frames as f64,
        (enc64 + encmtu) / 2.0,
        live_cpu,
    ) + est(
        traced.udp.rx_frames as f64,
        (dec64 + decmtu) / 2.0,
        live_cpu,
    );
    m.put("wire_bytes.est_share", wire, "ratio");
    m.put(
        "trace.overhead_share",
        ratio(part.traced_cpu, part.base_cpu) - 1.0,
        "ratio",
    );
    if rec.dropped + live_rec.dropped > 0 {
        eprintln!(
            "[perfbench] the flight recorder overwrote {} records",
            rec.dropped + live_rec.dropped
        );
    }
    m
}
