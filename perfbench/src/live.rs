//! The live path: SCTP and TCP ping-pong between two [`LiveNode`]s over
//! real UDP sockets on loopback, one client thread, closed loop.
//!
//! Every frame is encoded by `wire_bytes`, CRC32c- or checksum-verified and
//! decoded by the receiving `UdpBackend`, and dispatched into the same
//! engines the simulator runs — the only workload that exercises that
//! path. Its cost is per message, so the metrics are round-trip times
//! (64 B) and the one-way payload rate of a 64 KB ping-pong.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use backend::LiveNode;
use bytes::Bytes;
use netsim::{IfAddr, NetCfg};
use transport::backend::udp::{UdpBackend, UdpStats};
use transport::sctp::{self, SctpCfg};
use transport::tcp::{self, TcpCfg};
use transport::World;

use crate::sim::Counters;
use crate::stats::Tally;
use crate::sys::Usage;

/// Engine-side port of both endpoints (the OS-side ports are ephemeral).
const PORT: u16 = 5000;
/// Small message: per-message cost dominates.
pub const SMALL: usize = 64;
/// Large message: the paper's Fig. 8 bulk point.
pub const BIG: usize = 64 * 1024;
/// Sessions per protocol in one pass. Round-trip times settle into one of
/// a few levels per socket pair (about 11 or 17 µs for 64 B SCTP on a
/// Xeon VM) and stay there for the session's life, so a pass samples many
/// short sessions rather than one long one.
const SESSIONS: u32 = 16;
/// Round trips per session.
const SMALL_ITERS: u32 = 250;
const BIG_ITERS: u32 = 20;
/// A healthy loopback round trip takes microseconds; two seconds without
/// progress means the pair is wedged.
const OP_TIMEOUT: Duration = Duration::from_secs(2);

/// Index of each protocol in the per-protocol arrays.
pub const SCTP: usize = 0;
pub const TCP: usize = 1;

/// Spans around the public calls the ping-pong makes (traced runs only),
/// in nanoseconds per call.
#[derive(Debug, Default)]
pub struct Spans {
    pub sctp_sendmsg: Vec<f64>,
    pub sctp_recvmsg: Vec<f64>,
    pub tcp_send: Vec<f64>,
    pub tcp_recv: Vec<f64>,
    pub poll: Vec<f64>,
    /// Polls that neither fired a timer nor received a frame.
    pub idle_polls: u64,
}

/// One pass: `SESSIONS` SCTP and as many TCP sessions, alternating, each
/// a socket bind and handshake, `SMALL_ITERS` 64 B round trips and
/// `BIG_ITERS` 64 KB round trips.
#[derive(Debug, Default)]
pub struct LivePass {
    /// Round-trip times in µs, `[SCTP]` and `[TCP]`.
    pub rtt_small: [Vec<f64>; 2],
    pub rtt_big: [Vec<f64>; 2],
    /// Bring-up (socket bind + handshake) wall times in seconds.
    pub bring_up: [Vec<f64>; 2],
    /// Process CPU seconds of each session pair: one SCTP session and the
    /// TCP session after it.
    pub pair_cpu: Vec<f64>,
    /// Process resource use over the pass.
    pub usage: Usage,
    pub udp: UdpStats,
    /// Reactor work (timers fired plus frames dispatched), timer-queue and
    /// engine counters over both nodes.
    pub counters: Counters,
    pub spans: Option<Spans>,
    pub dumps: Vec<trace::TraceDump>,
}

struct Pair {
    a: LiveNode,
    b: LiveNode,
    spans: Option<Spans>,
}

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().expect("literal address")
}

/// Two worlds joined by real loopback sockets: host 0 lives in world A,
/// host 1 in world B. SCTP verification tags are kept inside the wire's
/// 32-bit fields; everything else is the paper configuration.
fn pair(seed: u64, tracer: Option<&trace::Tracer>) -> Result<Pair, String> {
    let sctp_cfg = SctpCfg {
        wire_safe_ids: true,
        ..SctpCfg::default()
    };
    let mut wa = World::new(
        NetCfg::paper_cluster(0.0),
        TcpCfg::default(),
        sctp_cfg.clone(),
    );
    let mut wb = World::new(NetCfg::paper_cluster(0.0), TcpCfg::default(), sctp_cfg);
    let bind = |what| UdpBackend::bind(loopback()).map_err(|e| format!("bind {what}: {e}"));
    let (mut ua, mut ub) = (bind("a")?, bind("b")?);
    let addr_a = ua.local_addr().map_err(|e| e.to_string())?;
    let addr_b = ub.local_addr().map_err(|e| e.to_string())?;
    ua.add_peer(IfAddr::new(1, 0), addr_b);
    ub.add_peer(IfAddr::new(0, 0), addr_a);
    wa.install_backend(Box::new(ua));
    wb.install_backend(Box::new(ub));
    let mut a = LiveNode::new(wa, seed);
    let mut b = LiveNode::new(wb, seed ^ 1);
    if let Some(t) = tracer {
        t.set_topology(2, 1);
        a.ctx.install_tracer(Some(t.clone()));
        b.ctx.install_tracer(Some(t.clone()));
    }
    Ok(Pair { a, b, spans: None })
}

/// Run `f`, adding its duration in ns to `span` when spans are recorded.
fn timed<R>(span: Option<&mut Vec<f64>>, f: impl FnOnce() -> R) -> R {
    match span {
        None => f(),
        Some(v) => {
            let t0 = Instant::now();
            let r = f();
            v.push(t0.elapsed().as_nanos() as f64);
            r
        }
    }
}

impl Pair {
    fn poll_both(&mut self) -> bool {
        let Some(s) = self.spans.as_mut() else {
            let wa = self.a.poll();
            let wb = self.b.poll();
            return wa || wb;
        };
        let mut any = false;
        for node in [&mut self.a, &mut self.b] {
            let t0 = Instant::now();
            let worked = node.poll();
            s.poll.push(t0.elapsed().as_nanos() as f64);
            s.idle_polls += u64::from(!worked);
            any |= worked;
        }
        any
    }

    /// Poll both reactors until `done` holds; false on timeout.
    fn spin(&mut self, mut done: impl FnMut(&mut Pair) -> bool) -> bool {
        let deadline = Instant::now() + OP_TIMEOUT;
        loop {
            if done(self) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            if !self.poll_both() {
                std::thread::yield_now();
            }
        }
    }

    fn udp(&mut self) -> UdpStats {
        let mut t = UdpStats::default();
        for node in [&mut self.a, &mut self.b] {
            let b = node.world.backend.as_mut().expect("backend installed");
            add_udp(
                &mut t,
                &b.as_any()
                    .downcast_mut::<UdpBackend>()
                    .expect("UDP backend")
                    .stats,
            );
        }
        t
    }
}

/// Does the chunk list spell out `want`?
fn same_bytes(chunks: &[Bytes], want: &[u8]) -> bool {
    let mut off = 0;
    for c in chunks {
        if want.get(off..off + c.len()) != Some(&c[..]) {
            return false;
        }
        off += c.len();
    }
    off == want.len()
}

/// A seeded payload, so an echo that returns the wrong bytes is caught.
fn payload(seed: u64, size: usize) -> Bytes {
    (0..size)
        .map(|i| crate::sim::mix(seed, i as u64) as u8)
        .collect::<Vec<u8>>()
        .into()
}

struct SctpEnds {
    ea: sctp::EpId,
    eb: sctp::EpId,
    aa: sctp::AssocId,
    ab: sctp::AssocId,
}

/// A connected session's endpoints.
enum Ends {
    Sctp(SctpEnds),
    Tcp(tcp::SockId, tcp::SockId),
}

fn sctp_connect(p: &mut Pair) -> Result<SctpEnds, String> {
    let ea = sctp::socket(&mut p.a.world, 0, PORT, false);
    let eb = sctp::socket(&mut p.b.world, 1, PORT, false);
    sctp::listen(&mut p.b.world, eb);
    let aa = sctp::connect(&mut p.a.world, &mut p.a.ctx, ea, 1, PORT);
    let up = p.spin(|p| {
        matches!(
            sctp::assoc_state(&p.a.world, aa),
            sctp::AssocState::Established
        )
    });
    if !up {
        return Err("SCTP handshake timed out".into());
    }
    let ab = sctp::lookup_peer(&p.b.world, eb, 0, PORT).ok_or("no passive-side association")?;
    Ok(SctpEnds { ea, eb, aa, ab })
}

fn tcp_connect(p: &mut Pair) -> Result<(tcp::SockId, tcp::SockId), String> {
    tcp::listen(&mut p.b.world, 1, PORT);
    let sa = tcp::connect(&mut p.a.world, &mut p.a.ctx, 0, 1, PORT);
    let mut sb = None;
    let up = p.spin(|p| {
        if sb.is_none() {
            sb = tcp::accept(&mut p.b.world, 1, PORT);
        }
        sb.is_some() && tcp::is_established(&p.a.world, sa)
    });
    match sb {
        Some(sb) if up => Ok((sa, sb)),
        _ => Err("TCP handshake timed out".into()),
    }
}

/// One SCTP round trip of `msg` on stream 0; returns its time in µs.
fn sctp_round_trip(p: &mut Pair, e: &SctpEnds, msg: &Bytes) -> Result<f64, String> {
    let t0 = Instant::now();
    let sent = timed(p.spans.as_mut().map(|s| &mut s.sctp_sendmsg), || {
        sctp::sendmsg(&mut p.a.world, &mut p.a.ctx, e.aa, 0, 0, msg.clone())
    });
    sent.map_err(|err| format!("ping rejected: {err:?}"))?;
    if !p.spin(|p| sctp::readable(&p.b.world, e.eb)) {
        return Err("ping timed out".into());
    }
    let got = timed(p.spans.as_mut().map(|s| &mut s.sctp_recvmsg), || {
        sctp::recvmsg(&mut p.b.world, &mut p.b.ctx, e.eb)
    })
    .ok_or("readable endpoint had no message")?;
    let echoed = timed(p.spans.as_mut().map(|s| &mut s.sctp_sendmsg), || {
        sctp::sendmsg_v(&mut p.b.world, &mut p.b.ctx, e.ab, 0, 0, &got.data)
    });
    echoed.map_err(|err| format!("echo rejected: {err:?}"))?;
    if !p.spin(|p| sctp::readable(&p.a.world, e.ea)) {
        return Err("echo timed out".into());
    }
    let back = timed(p.spans.as_mut().map(|s| &mut s.sctp_recvmsg), || {
        sctp::recvmsg(&mut p.a.world, &mut p.a.ctx, e.ea)
    })
    .ok_or("readable endpoint had no message")?;
    let rtt = t0.elapsed().as_secs_f64() * 1e6;
    if back.len as usize != msg.len() || !same_bytes(&back.data, msg) {
        return Err(format!(
            "echo of {} B came back as {} B or altered",
            msg.len(),
            back.len
        ));
    }
    Ok(rtt)
}

/// Stream `msg` from `from` to `to` over the byte stream, checking every
/// byte that arrives.
fn tcp_one_way(
    p: &mut Pair,
    a_to_b: bool,
    from: tcp::SockId,
    to: tcp::SockId,
    msg: &Bytes,
) -> Result<(), String> {
    let size = msg.len();
    let (mut sent, mut got, mut intact) = (0usize, 0usize, true);
    let done = p.spin(|p| {
        let (tx, rx) = if a_to_b {
            (&mut p.a, &mut p.b)
        } else {
            (&mut p.b, &mut p.a)
        };
        if sent < size {
            let chunk = msg.slice(sent..size);
            sent += timed(p.spans.as_mut().map(|s| &mut s.tcp_send), || {
                tcp::send(&mut tx.world, &mut tx.ctx, from, std::iter::once(&chunk))
            });
        }
        let chunks = timed(p.spans.as_mut().map(|s| &mut s.tcp_recv), || {
            tcp::recv(&mut rx.world, &mut rx.ctx, to, size - got)
        });
        for c in chunks {
            intact &= msg.get(got..got + c.len()) == Some(&c[..]);
            got += c.len();
        }
        got >= size
    });
    match (done, intact) {
        (true, true) => Ok(()),
        (false, _) => Err(format!("{got} of {size} B arrived before the timeout")),
        (true, false) => Err("bytes altered in flight".into()),
    }
}

fn tcp_round_trip(
    p: &mut Pair,
    sa: tcp::SockId,
    sb: tcp::SockId,
    msg: &Bytes,
) -> Result<f64, String> {
    let t0 = Instant::now();
    tcp_one_way(p, true, sa, sb, msg)?;
    tcp_one_way(p, false, sb, sa, msg)?;
    Ok(t0.elapsed().as_secs_f64() * 1e6)
}

/// One live pass. `traced` records spans around the public calls and the
/// flight recorder's capture (full frames).
pub fn run_pass(seed: u64, traced: bool, tally: &mut Tally) -> LivePass {
    let mut out = LivePass::default();
    let tracer = traced.then(|| trace::Tracer::new(trace::DEFAULT_CAP, 0));
    let msgs = [payload(seed, SMALL), payload(seed ^ 3, BIG)];
    let u0 = Usage::now();
    let mut spans = traced.then(Spans::default);
    for k in 0..SESSIONS as u64 {
        let pair_u0 = Usage::now();
        for proto in [SCTP, TCP] {
            let what = if proto == SCTP {
                "live SCTP"
            } else {
                "live TCP"
            };
            let t0 = Instant::now();
            let mut p = match pair(crate::sim::mix(seed, 2 * k + proto as u64), tracer.as_ref()) {
                Ok(p) => p,
                Err(why) => {
                    tally.fail(what, &why);
                    continue;
                }
            };
            p.spans = spans.take();
            session(&mut p, proto, t0, &msgs, &mut out, tally, what);
            let udp = p.udp();
            if udp.rx_bad_crc + udp.rx_bad_frame > 0 {
                let why = format!(
                    "{} bad-CRC and {} bad frames",
                    udp.rx_bad_crc, udp.rx_bad_frame
                );
                tally.fail(&format!("{what} ingress"), &why);
            }
            add_udp(&mut out.udp, &udp);
            for node in [&p.a, &p.b] {
                for h in &node.world.hosts {
                    out.counters.add(&Counters::transport(
                        &h.sctp.total_stats(),
                        &h.tcp.total_stats(),
                    ));
                }
                // The reactor's units of work: timers fired and frames
                // dispatched (live deliveries are not scheduled events).
                out.counters.events += node.events_fired + node.ingress_delivered;
                out.counters.wheel_hits += node.ctx.wheel_hits();
                out.counters.heap_falls += node.ctx.heap_falls();
            }
            spans = p.spans.take();
        }
        out.pair_cpu
            .push(Usage::now().since(&pair_u0).cpu().as_secs_f64());
    }
    out.usage = Usage::now().since(&u0);
    out.spans = spans;
    if let Some(t) = tracer {
        out.dumps.push(t.dump(0));
    }
    out
}

/// Handshake (timed from `t0`, when the sockets were bound), then the
/// round trips; the first failure ends the session.
fn session(
    p: &mut Pair,
    proto: usize,
    t0: Instant,
    msgs: &[Bytes; 2],
    out: &mut LivePass,
    tally: &mut Tally,
    what: &str,
) {
    let ends = if proto == SCTP {
        sctp_connect(p).map(Ends::Sctp)
    } else {
        tcp_connect(p).map(|(sa, sb)| Ends::Tcp(sa, sb))
    };
    let ends = match ends {
        Ok(e) => {
            tally.ok();
            out.bring_up[proto].push(t0.elapsed().as_secs_f64());
            e
        }
        Err(why) => return tally.fail(what, &why),
    };
    for (msg, iters) in msgs.iter().zip([SMALL_ITERS, BIG_ITERS]) {
        for i in 0..iters {
            let rtt = match &ends {
                Ends::Sctp(e) => sctp_round_trip(p, e, msg),
                Ends::Tcp(sa, sb) => tcp_round_trip(p, *sa, *sb, msg),
            };
            match rtt {
                Ok(us) => {
                    tally.ok();
                    let v = if msg.len() == SMALL {
                        &mut out.rtt_small
                    } else {
                        &mut out.rtt_big
                    };
                    v[proto].push(us);
                }
                // A failed round trip leaves the pair in an unknown state:
                // abandon the session rather than time a wedged one.
                Err(why) => {
                    return tally.fail(&format!("{what} {} B round trip {i}", msg.len()), &why)
                }
            }
        }
    }
}

fn add_udp(t: &mut UdpStats, s: &UdpStats) {
    t.tx_frames += s.tx_frames;
    t.tx_bytes += s.tx_bytes;
    t.tx_no_route += s.tx_no_route;
    t.tx_errors += s.tx_errors;
    t.rx_frames += s.rx_frames;
    t.rx_bytes += s.rx_bytes;
    t.rx_bad_crc += s.rx_bad_crc;
    t.rx_bad_frame += s.rx_bad_frame;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_bytes_checks_content_and_length() {
        let want = b"abcdef";
        let chunks = [Bytes::from_static(b"abc"), Bytes::from_static(b"def")];
        assert!(same_bytes(&chunks, want));
        assert!(!same_bytes(&chunks[..1], want));
        assert!(!same_bytes(
            &[Bytes::from_static(b"abd"), Bytes::from_static(b"def")],
            want
        ));
        assert!(!same_bytes(&[Bytes::from_static(b"abcdefg")], want));
    }
}
