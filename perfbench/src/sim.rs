//! The three simulator workloads: their generated cell sets, one pass over
//! a cell set, and the checks every cell's output must pass.
//!
//! A cell is one call into a workload entry point (`farm::run`,
//! `pingpong::run_stream`, `scale::run_scale`) with a config generated from
//! the run's seed. Its digest — the bits of its headline value, the bits
//! of its simulated seconds, and its event count — is what "the output is
//! correct" means here: the simulator is deterministic, so a digest that
//! moves is a behaviour change, not noise.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpi_core::{mpirun, mpirun_traced, MpiCfg, MpiReport};
use simcore::SimTime;
use transport::sctp::AssocStats;
use transport::tcp::SockStats;
use workloads::farm::{self, FarmCfg};
use workloads::pingpong::{run_stream, StreamCfg};
use workloads::scale::{run_scale, ScaleCfg};

use crate::stats::Tally;
use crate::sys::Usage;

/// Ranks of every farm cell (the paper's 8-node cluster).
const FARM_RANKS: u16 = 8;
/// Tasks per farm cell: divisible by both fanouts, more than the 70
/// requests the workers keep outstanding, and small enough that a pass over
/// the 36-cell grid takes about three CPU seconds.
const FARM_TASKS: u32 = 80;
/// Stream message size: just under the 64 KB eager limit, so successive
/// messages pipeline instead of serializing on rendezvous handshakes.
const STREAM_MSG: usize = 64 * 1024 - 64;
/// Messages per stream cell.
const STREAM_MSGS: u32 = 300;
/// SCTP send/receive buffers of the CMT cells (the testbed's 220 KB).
const CMT_BUFS: u64 = 220 * 1024;
/// Incast block per sender.
const INCAST_BLOCK: u64 = 256 * 1024;
const LOSSES: [f64; 3] = [0.0, 0.01, 0.02];

/// The simulator workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Farm,
    Stream,
    Incast,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Farm => "farm",
            Workload::Stream => "stream",
            Workload::Incast => "incast",
        }
    }
}

/// What one cell runs.
#[derive(Debug, Clone)]
pub enum Kind {
    Farm(MpiCfg, FarmCfg),
    Stream(MpiCfg, StreamCfg),
    Incast(ScaleCfg, usize),
}

#[derive(Debug, Clone)]
pub struct Cell {
    pub label: String,
    pub kind: Kind,
    /// A cell whose digest this one must equal (incast at SHARDS=2 against
    /// the same cell at SHARDS=1: the sharded engine is partition-invariant).
    pub twin: Option<usize>,
}

/// A cell's output, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub value_bits: u64,
    pub secs_bits: u64,
    pub events: u64,
}

impl Digest {
    fn new(value: f64, secs: f64, events: u64) -> Digest {
        Digest {
            value_bits: value.to_bits(),
            secs_bits: secs.to_bits(),
            events,
        }
    }
}

/// Per-layer counters the workloads' result structs expose, summed over
/// cells (`unexpected_peak` is a maximum).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub events: u64,
    pub handoffs: u64,
    pub wakes_coalesced: u64,
    pub trains: u64,
    pub pkts_fused: u64,
    pub wheel_hits: u64,
    pub heap_falls: u64,
    pub epochs: u64,
    pub cross_pkts: u64,
    pub net_pkts: u64,
    pub drops: u64,
    pub sctp_pkts: u64,
    pub sctp_rtx: u64,
    pub sctp_fast_rtx: u64,
    pub sctp_t3: u64,
    pub sctp_spurious: u64,
    pub sctp_rescue: u64,
    pub sctp_path: [u64; 3],
    pub tcp_segs: u64,
    pub tcp_rtx: u64,
    pub tcp_fast_rtx: u64,
    pub tcp_rto: u64,
    pub unexpected_peak: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.events += o.events;
        self.handoffs += o.handoffs;
        self.wakes_coalesced += o.wakes_coalesced;
        self.trains += o.trains;
        self.pkts_fused += o.pkts_fused;
        self.wheel_hits += o.wheel_hits;
        self.heap_falls += o.heap_falls;
        self.epochs += o.epochs;
        self.cross_pkts += o.cross_pkts;
        self.net_pkts += o.net_pkts;
        self.drops += o.drops;
        self.sctp_pkts += o.sctp_pkts;
        self.sctp_rtx += o.sctp_rtx;
        self.sctp_fast_rtx += o.sctp_fast_rtx;
        self.sctp_t3 += o.sctp_t3;
        self.sctp_spurious += o.sctp_spurious;
        self.sctp_rescue += o.sctp_rescue;
        for (a, b) in self.sctp_path.iter_mut().zip(o.sctp_path) {
            *a += b;
        }
        self.tcp_segs += o.tcp_segs;
        self.tcp_rtx += o.tcp_rtx;
        self.tcp_fast_rtx += o.tcp_fast_rtx;
        self.tcp_rto += o.tcp_rto;
        self.unexpected_peak = self.unexpected_peak.max(o.unexpected_peak);
    }

    /// The transport engines' counters.
    pub fn transport(sctp: &AssocStats, tcp: &SockStats) -> Counters {
        Counters {
            sctp_pkts: sctp.packets_out,
            sctp_rtx: sctp.retransmits,
            sctp_fast_rtx: sctp.fast_retransmits,
            sctp_t3: sctp.timeouts,
            sctp_spurious: sctp.spurious_frtx,
            sctp_rescue: sctp.rescue_rtx,
            sctp_path: [
                sctp.per_path_pkts[0],
                sctp.per_path_pkts[1],
                sctp.per_path_pkts[2],
            ],
            tcp_segs: tcp.segs_out,
            tcp_rtx: tcp.retransmits,
            tcp_fast_rtx: tcp.fast_retransmits,
            tcp_rto: tcp.timeouts,
            ..Counters::default()
        }
    }

    /// Everything an [`MpiReport`] carries (the traced entry point's view).
    fn from_report(r: &MpiReport) -> Counters {
        let net = &r.net;
        Counters {
            events: r.events,
            handoffs: r.handoffs,
            wakes_coalesced: r.wakes_coalesced,
            trains: r.bursts_total,
            pkts_fused: r.pkts_fused,
            wheel_hits: r.wheel_hits,
            heap_falls: r.heap_falls,
            net_pkts: net.packets_offered,
            drops: net.drops_loss + net.drops_queue + net.drops_down,
            ..Counters::transport(&r.sctp, &r.tcp)
        }
    }
}

/// One cell's checked output.
#[derive(Debug, Clone)]
pub struct CellOut {
    pub digest: Digest,
    pub counters: Counters,
    /// The flight recorder's capture (traced farm and stream cells only).
    pub dump: Option<trace::TraceDump>,
}

/// SplitMix64: derives every cell's seed from the run seed, so one seed
/// fixes every input and neighbouring seeds share none.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workload's cell set for `seed`. Everything but the seeds (and, for
/// incast, which node is the victim) is fixed by the workload.
pub fn cells(w: Workload, seed: u64) -> Vec<Cell> {
    let mut out = Vec::new();
    match w {
        Workload::Farm => {
            type Rpi = fn(u16, f64) -> MpiCfg;
            let rpis: [(&str, Rpi); 3] = [
                ("sctp", MpiCfg::sctp),
                ("tcp", MpiCfg::tcp),
                ("tcp-era", MpiCfg::tcp_era),
            ];
            for fanout in [1u32, 10] {
                for task in [30 * 1024usize, 300 * 1024] {
                    for loss in LOSSES {
                        for (rpi, mk) in rpis {
                            let s = mix(seed, out.len() as u64);
                            out.push(Cell {
                                label: format!("task={task} fanout={fanout} loss={loss} rpi={rpi}"),
                                kind: Kind::Farm(
                                    mk(FARM_RANKS, loss).with_seed(s),
                                    FarmCfg {
                                        num_tasks: FARM_TASKS,
                                        ..FarmCfg::paper(task, fanout)
                                    },
                                ),
                                twin: None,
                            });
                        }
                    }
                }
            }
        }
        Workload::Stream => {
            for loss in LOSSES {
                for path in ["sctp-1path", "sctp-3path-cmt", "tcp"] {
                    let s = mix(seed, out.len() as u64);
                    let cfg = match path {
                        "sctp-1path" => MpiCfg::sctp(2, loss),
                        "sctp-3path-cmt" => {
                            let mut c = MpiCfg::sctp(2, loss)
                                .with_sctp_bufs(CMT_BUFS, CMT_BUFS)
                                .with_cmt(true);
                            c.sctp.num_paths = 3;
                            c
                        }
                        _ => MpiCfg::tcp(2, loss),
                    };
                    out.push(Cell {
                        label: format!("msg={STREAM_MSG} loss={loss} path={path}"),
                        kind: Kind::Stream(
                            cfg.with_seed(s),
                            StreamCfg {
                                size: STREAM_MSG,
                                count: STREAM_MSGS,
                            },
                        ),
                        twin: None,
                    });
                }
            }
        }
        Workload::Incast => {
            for (i, n) in [64u32, 256, 1024].into_iter().enumerate() {
                let s = mix(seed, i as u64);
                let mut cfg = ScaleCfg::incast(n, INCAST_BLOCK, s);
                // The seed picks the victim: every node id shifts by the
                // same rotation, so the fan-in keeps its shape while the
                // node-to-shard partition changes.
                let rot = (s % cfg.nodes as u64) as u32;
                for f in &mut cfg.flows {
                    f.src = (f.src + rot) % cfg.nodes;
                    f.dst = (f.dst + rot) % cfg.nodes;
                }
                let first = out.len();
                for shards in [1usize, 2] {
                    out.push(Cell {
                        label: format!("senders={n} block={INCAST_BLOCK} shards={shards}"),
                        kind: Kind::Incast(cfg.clone(), shards),
                        twin: (shards == 2).then_some(first),
                    });
                }
            }
        }
    }
    out
}

/// The stream body of `pingpong::run_stream`, for the traced entry point
/// (`mpirun_traced` takes a rank body, not a workload). The traced digest
/// must equal the untraced one, which pins the two bodies together.
fn stream_body(st: StreamCfg) -> impl Fn(&mut mpi_core::Mpi) + Send + Sync + 'static {
    move |mpi| {
        let data = workloads::zeros(st.size);
        match mpi.rank() {
            0 => {
                for _ in 0..st.count {
                    mpi.send(1, 0, data.clone());
                }
                mpi.recv(Some(1), Some(1));
            }
            1 => {
                for _ in 0..st.count {
                    let (_, msg) = mpi.recv(Some(0), Some(0));
                    assert_eq!(msg.len, st.size, "stream message arrived wrong-sized");
                }
                mpi.send(0, 1, workloads::zeros(0));
            }
            _ => {}
        }
    }
}

/// Run one cell through its workload's public entry point and check that
/// it completed. `traced` runs farm and stream cells under the flight
/// recorder instead (incast has no recorder; it runs as usual).
pub fn run_cell(cell: &Cell, traced: bool) -> Result<CellOut, String> {
    match (&cell.kind, traced) {
        (Kind::Farm(mpi, fc), false) => {
            let r = farm::run(mpi.clone(), *fc);
            if r.tasks_done != fc.num_tasks {
                return Err(format!("{} of {} tasks done", r.tasks_done, fc.num_tasks));
            }
            let counters = Counters {
                events: r.events,
                handoffs: r.handoffs,
                wakes_coalesced: r.wakes_coalesced,
                trains: r.bursts_total,
                pkts_fused: r.pkts_fused,
                wheel_hits: r.wheel_hits,
                heap_falls: r.heap_falls,
                unexpected_peak: r.unexpected_peak as u64,
                ..Counters::default()
            };
            Ok(CellOut {
                digest: Digest::new(r.secs, r.secs, r.events),
                counters,
                dump: None,
            })
        }
        (Kind::Farm(mpi, fc), true) => {
            let fc = *fc;
            let peak = Arc::new(AtomicUsize::new(0));
            let pk = peak.clone();
            let (r, dump) = mpirun_traced(mpi.clone(), move |m| {
                farm::run_inline(m, fc);
                pk.fetch_max(m.unexpected_peak(), Ordering::Relaxed);
            });
            let mut counters = Counters::from_report(&r);
            counters.unexpected_peak = peak.load(Ordering::Relaxed) as u64;
            Ok(CellOut {
                digest: Digest::new(r.secs(), r.secs(), r.events),
                counters,
                dump: Some(dump),
            })
        }
        (Kind::Stream(mpi, st), false) => {
            let r = run_stream(mpi.clone(), *st);
            if r.iters != st.count || !r.secs.is_finite() || r.secs <= 0.0 {
                return Err(format!(
                    "{} of {} messages in {} s",
                    r.iters, st.count, r.secs
                ));
            }
            let counters = Counters {
                events: r.events,
                handoffs: r.handoffs,
                wakes_coalesced: r.wakes_coalesced,
                trains: r.bursts_total,
                pkts_fused: r.pkts_fused,
                wheel_hits: r.wheel_hits,
                heap_falls: r.heap_falls,
                ..Counters::default()
            };
            Ok(CellOut {
                digest: Digest::new(r.throughput, r.secs, r.events),
                counters,
                dump: None,
            })
        }
        (Kind::Stream(mpi, st), true) => {
            let peak = Arc::new(AtomicUsize::new(0));
            let pk = peak.clone();
            let body = stream_body(*st);
            let (r, dump) = mpirun_traced(mpi.clone(), move |m| {
                body(m);
                pk.fetch_max(m.unexpected_peak(), Ordering::Relaxed);
            });
            let secs = r.secs();
            let tput = (st.size as f64 * st.count as f64) / secs;
            let mut counters = Counters::from_report(&r);
            counters.unexpected_peak = peak.load(Ordering::Relaxed) as u64;
            Ok(CellOut {
                digest: Digest::new(tput, secs, r.events),
                counters,
                dump: Some(dump),
            })
        }
        (Kind::Incast(cfg, shards), _) => {
            let r = run_scale(cfg.clone(), *shards);
            let flows = cfg.flows.len() as u32;
            if r.completed != flows || r.hit_deadline {
                return Err(format!("{} of {flows} flows completed", r.completed));
            }
            let payload: u64 = cfg.flows.iter().map(|f| f.bytes).sum();
            let counters = Counters {
                events: r.events,
                wheel_hits: r.wheel_hits,
                heap_falls: r.heap_falls,
                epochs: r.epochs,
                cross_pkts: r.cross_shard_pkts,
                net_pkts: r.sends,
                drops: r.drops_queue + r.drops_loss,
                ..Counters::default()
            };
            let secs = r.end_ns as f64 / 1e9;
            Ok(CellOut {
                digest: Digest::new(r.goodput_mbps(payload), secs, r.events),
                counters,
                dump: None,
            })
        }
    }
}

/// Bring the cell's world up and down with no application work: for the
/// MPI workloads an `mpirun` whose ranks do nothing (rank spawn,
/// association set-up, init barrier, finalize), for incast the topology
/// and engine with no flows.
pub fn setup_cell(cell: &Cell) {
    match &cell.kind {
        Kind::Farm(mpi, _) | Kind::Stream(mpi, _) => {
            let r = mpirun(mpi.clone(), |_| {});
            assert!(r.sim_time > SimTime::ZERO, "set-up ran no simulated time");
        }
        Kind::Incast(cfg, shards) => {
            let empty = ScaleCfg {
                flows: Vec::new(),
                ..cfg.clone()
            };
            run_scale(empty, *shards);
        }
    }
}

/// Digests every cell must reproduce: those pinned for the default seed
/// and those the run's first pass produced.
#[derive(Debug, Default)]
pub struct Expect {
    pub pinned: Vec<(String, Digest)>,
    pub first: Vec<Option<Digest>>,
}

impl Expect {
    /// The pinned digests of `w`, if `seed` is the seed they were taken at.
    pub fn for_seed(w: Workload, seed: u64) -> Expect {
        let pinned = if seed == crate::PINNED_SEED {
            pinned(w)
        } else {
            Vec::new()
        };
        Expect {
            pinned,
            first: Vec::new(),
        }
    }
}

/// Parse `pinned.txt`: `<workload> <value bits> <secs bits> <events> <label…>`.
pub fn pinned(w: Workload) -> Vec<(String, Digest)> {
    include_str!("../pinned.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let mut f = l.splitn(5, ' ');
            if f.next()? != w.name() {
                return None;
            }
            let hex = |s: &str| u64::from_str_radix(s, 16).expect("pinned.txt: hex digest");
            let value_bits = hex(f.next()?);
            let secs_bits = hex(f.next()?);
            let events = f.next()?.parse().expect("pinned.txt: event count");
            Some((
                f.next()?.to_string(),
                Digest {
                    value_bits,
                    secs_bits,
                    events,
                },
            ))
        })
        .collect()
}

/// The digest line `pinned.txt` holds for one cell.
pub fn digest_line(w: Workload, label: &str, d: &Digest) -> String {
    format!(
        "{} {:016x} {:016x} {} {label}",
        w.name(),
        d.value_bits,
        d.secs_bits,
        d.events
    )
}

/// One pass over a cell set.
#[derive(Debug, Default)]
pub struct Pass {
    /// Process resource use over the pass (every rank and shard thread).
    pub usage: Usage,
    /// Wall time per cell (zero for cells that failed).
    pub cell_wall: Vec<Duration>,
    pub counters: Counters,
    pub dumps: Vec<trace::TraceDump>,
}

/// Run every cell once. A cell that panics, finishes incomplete, or whose
/// digest differs from the pinned one, the first pass's, or its twin's is
/// counted failed; the pass goes on either way.
pub fn run_pass(
    w: Workload,
    cells: &[Cell],
    run: &dyn Fn(&Cell) -> Result<CellOut, String>,
    expect: &mut Expect,
    tally: &mut Tally,
) -> Pass {
    let first_pass = expect.first.is_empty();
    let mut pass = Pass::default();
    let u0 = Usage::now();
    for (i, cell) in cells.iter().enumerate() {
        let what = format!("{} cell {}", w.name(), cell.label);
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| run(cell)))
            .unwrap_or_else(|p| Err(format!("panicked: {}", panic_text(&p))));
        let wall = t0.elapsed();
        let checked = out.and_then(|o| {
            if first_pass {
                eprintln!(
                    "[perfbench] digest {}",
                    digest_line(w, &cell.label, &o.digest)
                );
            }
            check(expect, cells, i, first_pass, &o.digest).map(|()| o)
        });
        if first_pass {
            expect.first.push(checked.as_ref().ok().map(|o| o.digest));
        }
        match checked {
            Ok(o) => {
                tally.ok();
                pass.counters.add(&o.counters);
                pass.dumps.extend(o.dump);
                pass.cell_wall.push(wall);
            }
            Err(why) => {
                tally.fail(&what, &why);
                pass.cell_wall.push(Duration::ZERO);
            }
        }
    }
    pass.usage = Usage::now().since(&u0);
    pass
}

fn check(
    expect: &Expect,
    cells: &[Cell],
    i: usize,
    first_pass: bool,
    d: &Digest,
) -> Result<(), String> {
    let label = &cells[i].label;
    if let Some((_, p)) = expect.pinned.iter().find(|(l, _)| l == label) {
        if p != d {
            return Err(format!("digest {d:?} differs from the pinned {p:?}"));
        }
    }
    if !first_pass {
        match expect.first.get(i) {
            Some(Some(f)) if f != d => {
                return Err(format!("digest {d:?} differs from the first pass's {f:?}"))
            }
            _ => {}
        }
    }
    if let Some(t) = cells[i].twin {
        match expect.first.get(t) {
            Some(Some(f)) if f != d => {
                return Err(format!(
                    "digest {d:?} differs from {}'s {f:?}",
                    cells[t].label
                ))
            }
            _ => {}
        }
    }
    Ok(())
}

fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn untraced(c: &Cell) -> Result<CellOut, String> {
        run_cell(c, false)
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in [Workload::Farm, Workload::Stream, Workload::Incast] {
            let show =
                |cs: Vec<Cell>| format!("{:?}", cs.iter().map(|c| &c.kind).collect::<Vec<_>>());
            assert_eq!(show(cells(w, 7)), show(cells(w, 7)), "{w:?}");
            assert_ne!(show(cells(w, 7)), show(cells(w, 8)), "{w:?}");
        }
    }

    /// Every cell at the pinned seed reproduces its pinned digest, and the
    /// traced entry points reproduce the untraced digests.
    #[test]
    fn pinned_seed_reproduces_pinned_digests() {
        for w in [Workload::Farm, Workload::Stream, Workload::Incast] {
            let cs = cells(w, crate::PINNED_SEED);
            let pins = pinned(w);
            assert_eq!(pins.len(), cs.len(), "{w:?}: one pinned digest per cell");
            let mut expect = Expect::for_seed(w, crate::PINNED_SEED);
            let mut tally = Tally::default();
            run_pass(w, &cs, &untraced, &mut expect, &mut tally);
            assert_eq!(
                (tally.attempted, tally.failed),
                (cs.len() as u64, 0),
                "{w:?}"
            );
            if w != Workload::Incast {
                run_pass(w, &cs, &|c| run_cell(c, true), &mut expect, &mut tally);
                assert_eq!(tally.failed, 0, "{w:?}: traced digests");
            }
        }
    }

    #[test]
    fn a_failing_cell_is_counted_not_fatal() {
        let cs = cells(Workload::Incast, 3)[..2].to_vec();
        let mut expect = Expect::default();
        let mut tally = Tally::default();
        let inject = |c: &Cell| -> Result<CellOut, String> {
            if c.twin.is_some() {
                panic!("injected failure");
            }
            run_cell(c, false)
        };
        let pass = run_pass(Workload::Incast, &cs, &inject, &mut expect, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(pass.counters.events > 0, "the healthy cell still ran");
        assert_eq!(expect.first[1], None);
    }

    #[test]
    fn a_diverging_digest_is_a_failure() {
        let cs = cells(Workload::Incast, 3)[..1].to_vec();
        let mut expect = Expect::default();
        let mut tally = Tally::default();
        run_pass(Workload::Incast, &cs, &untraced, &mut expect, &mut tally);
        let skewed = |c: &Cell| {
            run_cell(c, false).map(|mut o| {
                o.digest.events += 1;
                o
            })
        };
        run_pass(Workload::Incast, &cs, &skewed, &mut expect, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }
}
