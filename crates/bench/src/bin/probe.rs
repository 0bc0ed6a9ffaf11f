//! Diagnostic probes: one workload, one configuration, full transport
//! counters — the companions to the figure binaries for dissecting a single
//! cell, used with the env-gated traces documented in the `transport`
//! crate (`SCTP_TRACE=1` prints the per-path timer/recovery edges).
//!
//! ```text
//! probe farm [loss] [fanout] [task_bytes] [--nocompute] [--bigq] [--noburst]
//! probe nas [kernel] [class] [--tcp]
//! probe era [loss] [size] [fanout] [--farm | --burst-sweep]
//! probe cmt [loss] [paths] [count] [seed] [bufs_kb] [--nocmt] [--pingpong] [--flap]
//! probe interleave [loss] [tasks] [--nointl]
//! ```
//!
//! `farm` and `interleave` take their seed from `FARM_SEED` (default 7);
//! `interleave` takes its sender scheduler from `SCTP_SCHED` (`fcfs` | `rr`
//! | `wfq` | `prio`; unknown values fall back to FCFS), so one shell loop
//! compares all four:
//!
//! ```sh
//! for s in fcfs rr wfq prio; do SCTP_SCHED=$s probe interleave 0.01; done
//! ```

use bench_harness::{cmt_fault_plan, CMT_BUFS, CMT_STREAM_MSG, SEED_BASE};
use mpi_core::MpiCfg;
use workloads::farm::{self, FarmCfg};
use workloads::mixed::{self, MixedCfg};
use workloads::nas::{self, Class, Kernel};
use workloads::pingpong::{self, PingPongCfg, StreamCfg};

const USAGE: &str = "usage: probe <farm|nas|era|cmt|interleave> [args…]";

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let args = argv.get(2..).unwrap_or_default();
    match argv.get(1).map(String::as_str) {
        Some("farm") => probe_farm(args),
        Some("nas") => probe_nas(args),
        Some("era") => probe_era(args),
        Some("cmt") => probe_cmt(args),
        Some("interleave") => probe_interleave(args),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Positional argument `i` of the subcommand, if present and parsable.
fn pos<T: std::str::FromStr>(args: &[String], i: usize) -> Option<T> {
    args.get(i).and_then(|s| s.parse().ok())
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn farm_seed() -> u64 {
    std::env::var("FARM_SEED").ok().and_then(|x| x.parse().ok()).unwrap_or(7)
}

/// Farm run with full transport stats, TCP then SCTP.
fn probe_farm(args: &[String]) {
    let loss: f64 = pos(args, 0).unwrap_or(0.0);
    let fanout: u32 = pos(args, 1).unwrap_or(1);
    let task: usize = pos(args, 2).unwrap_or(300 * 1024);
    let mut cfg = FarmCfg::small(task, fanout);
    if flag(args, "--nocompute") {
        cfg.compute_per_task = simcore::Dur::ZERO;
    }
    let big_q = flag(args, "--bigq");
    for (name, mut m) in [("tcp", MpiCfg::tcp(8, loss)), ("sctp", MpiCfg::sctp(8, loss))] {
        if big_q {
            m.net.link.queue_cap_bytes = 4 << 20;
        }
        if flag(args, "--noburst") {
            m.sctp.max_burst = u32::MAX;
        }
        let blocked = std::sync::Arc::new(std::sync::Mutex::new((0.0f64, 0.0f64)));
        let b2 = blocked.clone();
        let rep = mpi_core::mpirun(m.with_seed(farm_seed()), move |mpi| {
            farm::run_inline(mpi, cfg);
            let mut g = b2.lock().unwrap();
            if mpi.rank() == 0 {
                g.0 = mpi.stats.blocked.as_secs_f64();
            } else if mpi.rank() == 1 {
                g.1 = mpi.stats.blocked.as_secs_f64();
            }
        });
        let (mb, wb) = *blocked.lock().unwrap();
        println!("  manager blocked {mb:.3}s; worker1 blocked {wb:.3}s");
        println!(
            "{name}: sim={:.3}s events={} tcp[rtx={} fast={} to={}] sctp[rtx={} fast={} to={}] drops={}",
            rep.secs(),
            rep.events,
            rep.tcp.retransmits,
            rep.tcp.fast_retransmits,
            rep.tcp.timeouts,
            rep.sctp.retransmits,
            rep.sctp.fast_retransmits,
            rep.sctp.timeouts,
            rep.net.drops_loss,
        );
        println!(
            "  queue_drops={} delivered={} offered={}",
            rep.net.drops_queue, rep.net.packets_delivered, rep.net.packets_offered
        );
    }
}

/// One NAS kernel, one transport.
fn probe_nas(args: &[String]) {
    let k = match args.first().map(String::as_str) {
        Some("IS") => Kernel::IS,
        Some("MG") => Kernel::MG,
        Some("BT") => Kernel::BT,
        Some("LU") => Kernel::LU,
        Some("CG") => Kernel::CG,
        Some("SP") => Kernel::SP,
        _ => Kernel::EP,
    };
    let c = match args.get(1).map(String::as_str) {
        Some("S") => Class::S,
        Some("W") => Class::W,
        Some("A") => Class::A,
        _ => Class::B,
    };
    let tcp = flag(args, "--tcp");
    let cfg = if tcp { MpiCfg::tcp(8, 0.0) } else { MpiCfg::sctp(8, 0.0) };
    let r = nas::run(cfg, k, c);
    let rpi = if tcp { "tcp" } else { "sctp" };
    println!("{} {} {rpi}: {:.3}s -> {:.0} Mop/s", k.name(), c.name(), r.secs, r.mops_per_sec);
}

/// Era-TCP ping-pong or farm under loss, or the SCTP max-burst sweep.
fn probe_era(args: &[String]) {
    if flag(args, "--burst-sweep") {
        for burst in [4u32, 8, 12, 16, u32::MAX] {
            let with_burst = |mut m: MpiCfg| {
                m.sctp.max_burst = burst;
                m
            };
            let pp = |m, size| pingpong::run(with_burst(m), PingPongCfg { size, iters: 100 });
            let farm_long = |loss| {
                let m = with_burst(MpiCfg::sctp(8, loss).with_seed(0xBA5E));
                farm::run(m, FarmCfg::small(307200, 10)).secs
            };
            println!(
                "burst={burst:>10}: pp22K={:.1}MB/s pp128K={:.1}MB/s farm-long@1%={:.2}s farm-long@0%={:.2}s",
                pp(MpiCfg::sctp(2, 0.0), 22528).throughput / 1e6,
                pp(MpiCfg::sctp(2, 0.0).with_seed(3), 131069).throughput / 1e6,
                farm_long(0.01),
                farm_long(0.0),
            );
        }
        return;
    }
    let loss: f64 = pos(args, 0).unwrap_or(0.02);
    let size: usize = pos(args, 1).unwrap_or(300 * 1024);
    if flag(args, "--farm") {
        let fanout: u32 = pos(args, 2).unwrap_or(1);
        let cfg = FarmCfg::small(size, fanout);
        let r = farm::run(MpiCfg::tcp_era(8, loss).with_seed(0xBA5E), cfg);
        println!("era farm {size}@{loss} fanout{fanout}: {:.3}s tasks={}", r.secs, r.tasks_done);
        return;
    }
    let r = pingpong::run(
        MpiCfg::tcp_era(2, loss).with_seed(0xBA5E),
        PingPongCfg { size, iters: 20 },
    );
    println!("era pingpong {size}@{loss}: {:.3}s tput={:.0}", r.secs, r.throughput);
}

/// One CMT bulk-stream (or ping-pong) cell — the companion to `cmt` for
/// dissecting a single grid point. Stalls show up as a large gap between
/// `sim` seconds and `bytes/rate`. `--nocmt` runs multihomed without
/// striping, `--pingpong` strict alternation instead of the one-way stream,
/// `--flap` the `cmt` figure's fault-composition plan.
fn probe_cmt(args: &[String]) {
    let loss: f64 = pos(args, 0).unwrap_or(0.0);
    let paths: u8 = pos(args, 1).unwrap_or(3);
    let count: u32 = pos(args, 2).unwrap_or(256);
    let seed: u64 = pos(args, 3).unwrap_or(SEED_BASE);
    let bufs: u64 = pos(args, 4).map_or(CMT_BUFS, |kb: u64| kb * 1024);
    let cmt = !flag(args, "--nocmt") && paths > 1;

    let mut m = MpiCfg::sctp(2, loss).with_seed(seed).with_sctp_bufs(bufs, bufs).with_cmt(cmt);
    m.sctp.num_paths = paths;
    if flag(args, "--flap") {
        m.fault_plan = cmt_fault_plan();
    }
    let r = if flag(args, "--pingpong") {
        pingpong::run(m, PingPongCfg { size: 220 * 1024 - 64, iters: count })
    } else {
        pingpong::run_stream(m, StreamCfg { size: CMT_STREAM_MSG, count })
    };
    println!(
        "loss={loss} paths={paths} cmt={cmt} count={count} seed={seed:#x}: \
         {:.1} MB/s over {:.4}s sim ({} events)",
        r.throughput / 1e6,
        r.secs,
        r.events
    );
    println!(
        "  pkts/path={:?} rtx={} fast={} rescue={} spurious={} to={} failovers={}",
        r.sctp.per_path_pkts,
        r.sctp.retransmits,
        r.sctp.fast_retransmits,
        r.sctp.rescue_rtx,
        r.sctp.spurious_frtx,
        r.sctp.timeouts,
        r.sctp.failovers,
    );
    println!(
        "  dup_tsns_in={} sacks_in={} drops: loss={} queue={} down={}",
        r.sctp.dup_tsns_in,
        r.sctp.sacks_in,
        r.net.drops_loss,
        r.net.drops_queue,
        r.net.drops_down,
    );
}

/// The mixed-size farm once with the flight recorder forced on: per-side
/// HOL accounting plus the PR-SCTP counters.
fn probe_interleave(args: &[String]) {
    let loss: f64 = pos(args, 0).unwrap_or(0.0);
    let tasks: u32 = pos(args, 1).unwrap_or(500);
    let interleave = !flag(args, "--nointl");
    let cfg = MpiCfg::sctp(8, loss)
        .with_seed(farm_seed())
        .with_interleave(interleave)
        .with_sched_from_env();
    let sched = cfg.sctp.sched.name();
    let r = mixed::run_traced(cfg, MixedCfg::default_mix(tasks));

    println!("mixed farm: loss={loss} tasks={tasks} interleave={interleave} sched={sched}");
    println!(
        "  sim={:.3}s events={} tasks_done={}",
        r.result.secs, r.result.events, r.result.tasks_done
    );
    println!(
        "  hol snd: {} blocks {:.3} ms | hol rcv: {} blocks {:.3} ms",
        r.snd_hol_blocks,
        r.snd_hol_ns as f64 / 1e6,
        r.rcv_hol_blocks,
        r.rcv_hol_ns as f64 / 1e6,
    );
    println!(
        "  pr-sctp: abandoned={} fwd_tsn_out={}",
        r.result.msgs_abandoned, r.result.fwd_tsn_out
    );
}
