//! `simcore` — deterministic discrete-event simulation core.
//!
//! This crate is the foundation of the `sctp-mpi` reproduction of
//! *“SCTP versus TCP for MPI”* (SC 2005). It provides:
//!
//! * [`time`] — nanosecond-resolution simulated time ([`SimTime`], [`Dur`]);
//! * [`sched`] — the event queue and scheduler context ([`Ctx`]), with
//!   deterministic tie-breaking and cancellable timers;
//! * [`process`] — a virtual-process runtime ([`Runtime`], [`ProcEnv`]) that
//!   runs simulated programs as blocking Rust code, each a stackful
//!   coroutine on the calling thread, one at a time, hence fully
//!   deterministic;
//! * [`rng`] — seed-derived independent random streams.
//!
//! Everything above this crate (network, transports, MPI middleware,
//! workloads) is built on these four pieces.

mod coro;
pub mod fxhash;
pub mod process;
pub mod rng;
pub mod sched;
pub mod shard;
pub mod time;

pub use process::{
    reference_discipline, set_reference_discipline, ProcEnv, ProcId, RunOutcome, Runtime,
};
pub use rng::{derive_rng, stream_id};
pub use sched::{Ctx, TimerId};
pub use shard::{
    effective_shards, local_ix, run_sharded, shard_of, Inbound, Mailbox, ShardCfg, ShardOutcome,
    ShardSim, ShardWorld,
};
pub use time::{transmission_time, Dur, SimTime};
