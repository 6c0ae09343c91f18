//! # aethereal-bench — shared pieces of the paper-reproduction benches
//!
//! Each `benches/e1_*.rs` … `e10_*.rs` target (run via `cargo bench`)
//! regenerates one table or figure of the DATE 2004 paper and asserts the
//! claim it reproduces; `e11_scaling` prints the sharded-execution thread
//! sweep. The README's *Build, test, bench* section lists the commands.
//! This library holds what they share: aligned table printing and
//! canonical system builders. Host-time measurement of the simulator
//! itself lives in the stand-alone `benchmark/` package, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenarios;
pub mod shard_scenarios;
pub mod table;

pub use scenarios::{master_slave_system, stream_system, StreamSetup};
pub use shard_scenarios::{
    sharded_received, sharded_stream_mesh, single_received, stream_mesh, CountingSink, MeshTraffic,
};
pub use table::Table;
