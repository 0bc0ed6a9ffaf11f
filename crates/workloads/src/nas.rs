//! Synthetic kernels reproducing the *communication patterns* of the seven
//! NAS Parallel Benchmarks the paper runs (NPB 3.2, class B, 8 processes;
//! §4.1.2 / Figure 9).
//!
//! Substitution note (DESIGN.md): the real NPB codes are Fortran numerics;
//! what drives Figure 9 is their communication structure — message sizes,
//! partner topology, collective mix — and the compute/communication ratio.
//! Each kernel here reproduces that structure, with computation modelled
//! as simulated time and a nominal total operation count so results are
//! reported in Mop/s like the paper. The paper's own analysis is encoded
//! here: datasets `S`/`W` are short-message dominated, `A`/`B` shift toward
//! long messages, and **MG and BT keep a greater proportion of short
//! messages even in class B** — which is why TCP keeps a slight edge on
//! exactly those two benchmarks.
//!
//! Operation counts are nominal (order-of-magnitude NPB class B); only the
//! TCP-vs-SCTP *ratio* per kernel is meaningful, exactly as in the paper.

use bytes::Bytes;
use mpi_core::{mpirun, Mpi, MpiCfg, ReduceOp};
use simcore::Dur;

use crate::zeros;

/// The seven benchmarks the paper runs (FT is skipped there too — it did
/// not compile with mpif77).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    LU,
    SP,
    EP,
    CG,
    BT,
    MG,
    IS,
}

impl Kernel {
    pub const ALL: [Kernel; 7] = [
        Kernel::LU,
        Kernel::SP,
        Kernel::EP,
        Kernel::CG,
        Kernel::BT,
        Kernel::MG,
        Kernel::IS,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kernel::LU => "LU",
            Kernel::SP => "SP",
            Kernel::EP => "EP",
            Kernel::CG => "CG",
            Kernel::BT => "BT",
            Kernel::MG => "MG",
            Kernel::IS => "IS",
        }
    }

    /// Nominal total operation count (Mop) for the class, used only to
    /// express results in Mop/s.
    fn mops(self, class: Class) -> f64 {
        let b = match self {
            Kernel::LU => 54_000.0,
            Kernel::SP => 44_000.0,
            Kernel::EP => 2_100.0,
            Kernel::CG => 55_000.0,
            Kernel::BT => 15_000.0,
            Kernel::MG => 7_000.0,
            Kernel::IS => 1_000.0,
        };
        b * class.scale()
    }
}

/// Dataset class. The paper sweeps S, W, A, B; messages grow with class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    S,
    W,
    A,
    B,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::S => "S",
            Class::W => "W",
            Class::A => "A",
            Class::B => "B",
        }
    }

    /// Work scale relative to class B.
    fn scale(self) -> f64 {
        match self {
            Class::S => 0.002,
            Class::W => 0.02,
            Class::A => 0.25,
            Class::B => 1.0,
        }
    }

    /// Message-size scale relative to class B (sizes shrink with the
    /// dataset; S/W are short-message dominated — §4.1.2).
    fn msg_scale(self) -> f64 {
        match self {
            Class::S => 1.0 / 32.0,
            Class::W => 1.0 / 12.0,
            Class::A => 0.5,
            Class::B => 1.0,
        }
    }

    /// Iteration-count scale (sublinear: bigger classes mostly grow
    /// per-iteration work).
    fn iter_scale(self) -> f64 {
        match self {
            Class::S => 0.12,
            Class::W => 0.25,
            Class::A => 0.6,
            Class::B => 1.0,
        }
    }
}

/// One benchmark result, in the paper's metric.
#[derive(Debug, Clone, Copy)]
pub struct NasResult {
    pub kernel: Kernel,
    pub class: Class,
    pub secs: f64,
    pub mops_total: f64,
    pub mops_per_sec: f64,
    /// Simulator events fired during the run (self-metering, see
    /// `bench-harness`).
    pub events: u64,
    /// Switches from the runtime driver into a rank: every resume, since
    /// all of them go through the driver (self-metering).
    pub handoffs: u64,
    /// Wakes coalesced away by the runtime fast path (self-metering).
    pub wakes_coalesced: u64,
    /// Packet trains emitted through the burst path (self-metering).
    pub bursts_total: u64,
    /// Packets fused inside those trains (self-metering).
    pub pkts_fused: u64,
    /// Always 0: the event queue has no timer wheel (see `simcore::Ctx::wheel_hits`).
    pub wheel_hits: u64,
    /// Events pushed onto the event heap, i.e. every schedule (see `simcore::Ctx::heap_falls`).
    pub heap_falls: u64,
}

/// Run one kernel at one class.
pub fn run(mpi_cfg: MpiCfg, kernel: Kernel, class: Class) -> NasResult {
    let report = mpirun(mpi_cfg, move |mpi| {
        dispatch(mpi, kernel, class);
    });
    let secs = report.secs();
    let mops_total = kernel.mops(class);
    NasResult {
        kernel,
        class,
        secs,
        mops_total,
        mops_per_sec: mops_total / secs,
        events: report.events,
        handoffs: report.handoffs,
        wakes_coalesced: report.wakes_coalesced,
        bursts_total: report.bursts_total,
        pkts_fused: report.pkts_fused,
        wheel_hits: report.wheel_hits,
        heap_falls: report.heap_falls,
    }
}

fn dispatch(mpi: &mut Mpi, kernel: Kernel, class: Class) {
    match kernel {
        Kernel::LU => lu(mpi, class),
        Kernel::SP => sp(mpi, class),
        Kernel::EP => ep(mpi, class),
        Kernel::CG => cg(mpi, class),
        Kernel::BT => bt(mpi, class),
        Kernel::MG => mg(mpi, class),
        Kernel::IS => is(mpi, class),
    }
}

fn iters(base: u32, class: Class) -> u32 {
    ((base as f64 * class.iter_scale()).round() as u32).max(2)
}

fn msg(base: usize, class: Class) -> usize {
    ((base as f64 * class.msg_scale()) as usize).max(64)
}

/// Blocking pairwise exchange (sendrecv) used by the grid kernels.
fn exchange(mpi: &mut Mpi, partner: u16, tag: i32, bytes: usize) {
    let s = mpi.isend(partner, tag, zeros(bytes));
    let r = mpi.irecv(Some(partner), Some(tag));
    mpi.waitall(&[s, r]);
}

/// Process-grid helpers: 4×2 for 8 ranks, degrading to a line.
fn grid(rank: u16, n: u16) -> (i32, i32, i32, i32) {
    let cols = if n >= 8 { 4 } else { n as i32 };
    let rows = ((n as i32) / cols).max(1);
    (rank as i32 % cols, rank as i32 / cols, cols, rows)
}

fn at(col: i32, row: i32, cols: i32) -> u16 {
    (row * cols + col) as u16
}

/// **LU** — wavefront (pipelined SSOR): many *small* messages along the
/// 2D process grid, two sweeps per iteration.
fn lu(mpi: &mut Mpi, class: Class) {
    let n = mpi.size();
    let me = mpi.rank();
    let (col, row, cols, rows) = grid(me, n);
    let niter = iters(60, class);
    let m = msg(4096, class);
    // Per-sweep compute per rank; the wavefront pipeline multiplies the
    // critical path ~5x, so this is sized for class B totals ≈ 12 s.
    let sweep_compute = Dur::from_secs_f64(2.4 * class.scale() / (2.0 * niter as f64));
    for it in 0..niter {
        let tag = (it as i32) << 2;
        // Forward sweep: wait on north/west, compute, send south/east.
        if col > 0 {
            let _ = mpi.recv(Some(at(col - 1, row, cols)), Some(tag));
        }
        if row > 0 {
            let _ = mpi.recv(Some(at(col, row - 1, cols)), Some(tag));
        }
        mpi.compute(sweep_compute);
        if col + 1 < cols {
            mpi.send(at(col + 1, row, cols), tag, zeros(m));
        }
        if row + 1 < rows {
            mpi.send(at(col, row + 1, cols), tag, zeros(m));
        }
        // Backward sweep.
        let tag = tag | 1;
        if col + 1 < cols {
            let _ = mpi.recv(Some(at(col + 1, row, cols)), Some(tag));
        }
        if row + 1 < rows {
            let _ = mpi.recv(Some(at(col, row + 1, cols)), Some(tag));
        }
        mpi.compute(sweep_compute);
        if col > 0 {
            mpi.send(at(col - 1, row, cols), tag, zeros(m));
        }
        if row > 0 {
            mpi.send(at(col, row - 1, cols), tag, zeros(m));
        }
    }
    let _ = mpi.allreduce(ReduceOp::Sum, &[1.0; 5]); // residual norms
}

/// **SP** — scalar-pentadiagonal ADI: large face exchanges in three
/// directions per iteration (long messages in class B).
fn sp(mpi: &mut Mpi, class: Class) {
    let n = mpi.size();
    let me = mpi.rank();
    let niter = iters(100, class);
    let m = msg(100 * 1024, class);
    let per_iter = Dur::from_secs_f64(10.0 * class.scale() / niter as f64);
    for it in 0..niter {
        for dir in 0..3u16 {
            let shift = 1 + dir;
            let to = (me + shift) % n;
            let from = (me + n - shift) % n;
            let tag = ((it as i32) << 4) | dir as i32;
            let s = mpi.isend(to, tag, zeros(m));
            let r = mpi.irecv(Some(from), Some(tag));
            mpi.compute(per_iter / 3);
            mpi.waitall(&[s, r]);
        }
    }
    let _ = mpi.allreduce(ReduceOp::Sum, &[1.0; 5]);
}

/// **EP** — embarrassingly parallel: almost pure compute, tiny reductions
/// at the end.
fn ep(mpi: &mut Mpi, class: Class) {
    mpi.compute(Dur::from_secs_f64(10.0 * class.scale()));
    for _ in 0..3 {
        let _ = mpi.allreduce(ReduceOp::Sum, &[1.0; 10]);
    }
}

/// **CG** — conjugate gradient: transpose-partner exchanges of long
/// vectors plus a tiny dot-product allreduce every inner iteration.
fn cg(mpi: &mut Mpi, class: Class) {
    let n = mpi.size();
    let me = mpi.rank();
    let outer = iters(15, class);
    let inner = 25;
    let m = msg(120 * 1024, class);
    let per_inner = Dur::from_secs_f64(40.0 * class.scale() / (outer as f64 * inner as f64));
    // Transpose partner: reflect across half the machine.
    let partner = me ^ (n / 2).max(1);
    for _o in 0..outer {
        for i in 0..inner {
            if partner < n && partner != me {
                exchange(mpi, partner, i, m);
            }
            mpi.compute(per_inner);
            let _ = mpi.allreduce(ReduceOp::Sum, &[1.0]);
        }
    }
}

/// **BT** — block-tridiagonal ADI. The paper notes BT keeps a greater
/// proportion of *short* messages even in class B: faces move as several
/// sub-block messages below the eager limit.
fn bt(mpi: &mut Mpi, class: Class) {
    let n = mpi.size();
    let me = mpi.rank();
    let niter = iters(60, class);
    let m = msg(15 * 1024, class); // short (< 64 KB eager limit) in class B
    let per_iter = Dur::from_secs_f64(4.0 * class.scale() / niter as f64);
    for it in 0..niter {
        for dir in 0..3u16 {
            let shift = 1 + dir;
            let to = (me + shift) % n;
            let from = (me + n - shift) % n;
            let tag = ((it as i32) << 4) | dir as i32;
            // Four sub-block messages per face: short-message heavy (the
            // property the paper credits for TCP's slight edge on BT).
            let sends: Vec<_> = (0..4).map(|_| mpi.isend(to, tag, zeros(m))).collect();
            let recvs: Vec<_> = (0..4).map(|_| mpi.irecv(Some(from), Some(tag))).collect();
            mpi.compute(per_iter / 3);
            mpi.waitall(&sends);
            mpi.waitall(&recvs);
        }
    }
    let _ = mpi.allreduce(ReduceOp::Sum, &[1.0; 5]);
}

/// **MG** — multigrid V-cycles: neighbor exchanges whose size shrinks with
/// every grid level, so traffic is dominated by *short* messages.
fn mg(mpi: &mut Mpi, class: Class) {
    let n = mpi.size();
    let me = mpi.rank();
    let niter = iters(20, class);
    // Faces move as half-planes (64 KB at class B): even MG's largest
    // messages stay under the eager limit — the short-message-heavy
    // profile the paper calls out for MG.
    let top = msg(64 * 1024, class);
    let per_level = Dur::from_secs_f64(2.0 * class.scale() / (niter as f64 * 7.0));
    for it in 0..niter {
        let mut level_bytes = top;
        let mut level = 0i32;
        while level_bytes >= 64 {
            // Exchange with ±1 and ±2 ring neighbors at each level.
            for shift in [1u16, 2] {
                let to = (me + shift) % n;
                let from = (me + n - shift) % n;
                let tag = ((it as i32) << 8) | (level << 2) | shift as i32;
                let s = mpi.isend(to, tag, zeros(level_bytes));
                let r = mpi.irecv(Some(from), Some(tag));
                mpi.waitall(&[s, r]);
            }
            mpi.compute(per_level);
            level_bytes /= 4;
            level += 1;
        }
    }
    let _ = mpi.allreduce(ReduceOp::Max, &[1.0]);
}

/// **IS** — integer sort: a bucket-size reduction then an all-to-all key
/// redistribution (the heavy phase), per iteration.
fn is(mpi: &mut Mpi, class: Class) {
    let n = mpi.size();
    let niter = iters(10, class);
    let keys_per_pair = msg(512 * 1024, class);
    let per_iter = Dur::from_secs_f64(1.2 * class.scale() / niter as f64);
    for _ in 0..niter {
        // Bucket-size exchange (small).
        let _ = mpi.allreduce(ReduceOp::Sum, &[0.0; 64]);
        // Key redistribution (large, all-to-all).
        let data: Vec<Bytes> = (0..n).map(|_| zeros(keys_per_pair)).collect();
        let _ = mpi.alltoall(data);
        mpi.compute(per_iter);
    }
    let _ = mpi.allreduce(ReduceOp::Max, &[1.0]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_complete_class_s_both_transports() {
        for k in Kernel::ALL {
            for cfg in [MpiCfg::tcp(8, 0.0), MpiCfg::sctp(8, 0.0)] {
                let r = run(cfg, k, Class::S);
                assert!(r.secs > 0.0, "{} produced no time", k.name());
                assert!(r.mops_per_sec.is_finite());
            }
        }
    }

    #[test]
    fn class_w_scales_up_from_s() {
        let s = run(MpiCfg::sctp(8, 0.0), Kernel::CG, Class::S);
        let w = run(MpiCfg::sctp(8, 0.0), Kernel::CG, Class::W);
        assert!(w.secs > s.secs, "bigger class must take longer");
    }

    #[test]
    fn kernels_survive_loss() {
        for k in [Kernel::LU, Kernel::IS] {
            let r = run(MpiCfg::sctp(8, 0.01).with_seed(4), k, Class::S);
            assert!(r.secs > 0.0);
        }
    }
}
