//! # aethereal-area — analytical area/frequency models calibrated to the
//! DATE 2004 synthesis results
//!
//! The paper's evaluation (§5) is a synthesis experiment: component areas in
//! a 0.13 µm CMOS technology at 500 MHz. Synthesis is not reproducible in a
//! pure-Rust environment, so this crate substitutes an **analytical area
//! model anchored to the published numbers** (the `e1_area` bench asserts
//! the anchors):
//!
//! | component            | paper (mm²) |
//! |----------------------|-------------|
//! | NI kernel (reference) | 0.110      |
//! | narrowcast shell      | 0.004      |
//! | multi-connection shell| 0.007      |
//! | DTL master shell      | 0.005      |
//! | DTL slave shell       | 0.002      |
//! | config shell          | 0.010      |
//! | example 4-port NI     | **0.143**  |
//!
//! The kernel model decomposes the anchor into FIFO bits, per-channel
//! control, STU slots and per-port logic with plausible 0.13 µm standard-
//! cell cost coefficients, with the remainder assigned to the shared
//! packetizer/depacketizer/scheduler. The decomposition keeps the anchor
//! point **exact** and extrapolates smoothly for parameter sweeps (more
//! channels, deeper queues, bigger slot tables).
//!
//! [`swstack`] models the software-protocol-stack baseline the paper
//! compares against (47 instructions for packetization alone, citing
//! Bhojwani & Mahapatra).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod swstack;

pub use model::{AreaBreakdown, AreaModel, NiInstance, ShellKind};
pub use swstack::{SwStackModel, HW_NI_LATENCY_MAX, HW_NI_LATENCY_MIN};
