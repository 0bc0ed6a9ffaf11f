//! Tier-2 loopback smoke test (`--features live-tests`).
//!
//! Opens real UDP sockets on 127.0.0.1, so it is feature-gated out of the
//! hermetic tier-1 `cargo test`. CI's `live-smoke` job runs it. Covers the
//! three live-path promises: the quick fig8 sweep completes over real
//! sockets, per-iteration latency is sane for loopback, and the emitted
//! BENCH record round-trips through the schema_version sniffer.

#![cfg(feature = "live-tests")]

use bench_harness::json::{sniff_schema_version, SCHEMA_VERSION};
use bench_harness::live;
use bench_harness::Scale;

#[test]
fn quick_sweep_completes_over_real_sockets() {
    let (rows, report) = live::live_fig8(Scale::Quick);
    assert_eq!(rows.len(), 4, "quick scale sweeps 4 sizes");
    for r in &rows {
        assert!(r.tcp_tput > 0.0 && r.sctp_tput > 0.0, "size {}: zero throughput", r.size);
    }
    // Larger messages must move more bytes per second than tiny ones — the
    // shape every ping-pong curve (sim or live) has.
    assert!(
        rows.last().unwrap().sctp_tput > rows.first().unwrap().sctp_tput,
        "throughput did not grow with message size"
    );
    assert_eq!(report.cells.len(), 2 * rows.len(), "one TCP and one SCTP cell per size");
    // Live deliveries bypass the event queue; they must still be counted.
    assert!(report.events_total > 0, "live cells report no events");

    // The record must survive the schema sniffer: same version the sim
    // harness writes, so `results/` diffing treats live and sim runs alike.
    let dir = std::env::temp_dir().join(format!("live_smoke_{}", std::process::id()));
    report.save_to(&dir);
    assert_eq!(report.fig, "pingpong_live_quick", "quick must not overwrite the paper record");
    let path = dir.join("BENCH_pingpong_live_quick.json");
    let text = std::fs::read_to_string(&path).expect("report written");
    assert_eq!(sniff_schema_version(&text), SCHEMA_VERSION);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loopback_latency_is_sane() {
    // One small-message SCTP cell: the full four-way handshake plus 20
    // echoes of 64 bytes. Loopback RTT through two userspace reactors is
    // tens of microseconds; 50 ms of slack absorbs any CI scheduling noise
    // while still catching a stuck timer pump (which would cost a 200 ms
    // delayed-SACK or a 1 s RTO per iteration).
    let c = live::sctp_cell(64, 20, 0xC0FFEE, None);
    assert!(c.rtt > 0.0, "rtt must be measurable");
    assert!(c.rtt < 0.050, "loopback rtt {:.6}s looks wedged", c.rtt);
    assert_eq!(c.udp.rx_bad_crc, 0);
    assert_eq!(c.udp.rx_bad_frame, 0);
    assert!(c.udp.tx_frames > 0, "frames must actually cross the socket");
}

#[test]
fn live_frames_flow_through_the_pcapng_sink() {
    // Trace parity: packets the UDP backend sends and receives must land in
    // the same flight recorder the sim uses, and the pcapng sink must
    // accept the capture — so `analyze` works on live runs too.
    let tracer = trace::Tracer::new(trace::DEFAULT_CAP, trace::DEFAULT_SNAP);
    let c = live::sctp_cell(4096, 5, 0xBEEF, Some(&tracer));
    let dump = tracer.dump(u64::MAX);
    let pkts = dump
        .recs
        .iter()
        .filter(|r| matches!(r.ev, trace::Event::Pkt(_)))
        .count() as u64;
    // Egress on one node + ingress mirror on the other: every datagram that
    // crossed the socket appears at least twice in the shared recorder.
    assert!(
        pkts >= c.udp.tx_frames + c.udp.rx_frames,
        "expected >= {} pkt records, got {pkts}",
        c.udp.tx_frames + c.udp.rx_frames
    );
    let pcap = dump.write_pcapng();
    assert!(pcap.len() > 1024, "pcapng capture looks empty: {} bytes", pcap.len());
    assert!(!dump.write_jsonl().is_empty());
}
