//! # aethereal-cfg — design-time instantiation and run-time configuration
//!
//! The paper configures the Æthereal NoC at two time scales:
//!
//! * **Design (instantiation) time** — an XML description generates the
//!   VHDL for NIs and topology. Here, [`NocSpec`] (JSON-serializable, the
//!   XML stand-in) generates a runnable [`NocSystem`]: the `noc-sim`
//!   network plus one `aethereal-ni::Ni` per attachment, with IP-module
//!   bindings.
//! * **Run time** — connections are opened and closed *through the NoC
//!   itself* (Fig. 9). [`RuntimeConfigurator`] reproduces the exact
//!   four-step flow: set up the request channel to a remote CNIP with local
//!   register writes, set up the response channel through the NoC, then
//!   configure the response and request channels of the user connection —
//!   counting every register write and message.
//!
//! Shared GT resources (TDM slots) are allocated by the **centralized**
//! [`SlotAllocator`] (the paper's prototype choice, §3, which lets slot
//! tables be removed from the routers).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![warn(missing_docs)]

pub mod inspect;
pub mod json;
pub mod presets;
pub mod report;
pub mod runtime;
pub mod shard;
pub mod slots;
pub mod snapshot;
pub mod spec;
pub mod system;

pub use report::SystemReport;
pub use runtime::{
    ConfigError, ConnectionHandle, ConnectionRequest, HealOutcome, RuntimeConfigurator, Service,
};
pub use shard::ShardedSystem;
pub use slots::{SlotAllocation, SlotAllocator, SlotStrategy};
pub use snapshot::{SnapshotError, SNAPSHOT_FORMAT};
pub use spec::{fault_plan_from_json, fault_plan_to_json, NocSpec, TopologySpec};
pub use system::NocSystem;
