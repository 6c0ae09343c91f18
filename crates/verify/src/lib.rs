//! Static verification of configured Æthereal NoC instances.
//!
//! The paper's central claim is that guaranteed-throughput (GT) services
//! are *guaranteed by construction*: slot tables plus a fixed per-hop
//! latency make contention-freedom, throughput and worst-case latency
//! statically decidable. This crate turns that claim into code that runs
//! without ticking a single simulation cycle:
//!
//! * [`schedule`] — **certification**. Reads the programmer-visible
//!   register state of every NI kernel (slot tables, `PATH_RQID` /
//!   `PATH_EXT` routes, `Space` credit counters) out of a configured
//!   system and proves, link by link and slot by slot, that the GT
//!   schedule is contention-free — including the whole-slot shifts that
//!   slot-aligned gateway rewrites impose on two-level routes — that every
//!   route is valid and minimal against the [`noc_sim::Topology`], that
//!   per-packet word budgets can carry header + continuations + payload,
//!   that end-to-end credits never exceed the destination queue, and that
//!   the best-effort routes close no cycle of channel dependencies, so BE
//!   worms cannot deadlock. The result is a structured
//!   [`schedule::Certificate`] or a list of precise
//!   [`schedule::Violation`]s naming the links, slot and flows involved.
//! * [`bounds`] — **analytical service bounds**. Closed-form per-connection
//!   GT throughput (payload words per slot-table revolution), worst-case
//!   header-to-last-word latency (slot wait + emission + hops + gateway
//!   rewrites) and jitter, computed from the same certified flow data and
//!   cross-validated against cycle-accurate runs in this crate's tests.
//!
//! The verifier deliberately consumes only state a configuration master
//! could read back over the CNIP (`reg_read`) plus the static NI geometry
//! (`NiKernelSpec`), so a certificate speaks about the *configured
//! hardware*, not about whatever the allocator intended to configure: a
//! system configured by [`aethereal_cfg::RuntimeConfigurator`] or by
//! hand-written register pokes is certified (or rejected) on equal terms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod schedule;

pub use bounds::{gt_bounds, GtBounds};
pub use schedule::{
    certify, certify_system, certify_system_with, Certificate, CertifiedFlow, FlowId, Violation,
};
