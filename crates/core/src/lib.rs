//! # aethereal-ni — the Æthereal network interface (DATE 2004)
//!
//! This crate is the paper's contribution: a network interface that offers a
//! **shared-memory abstraction** (read/write transactions compatible with
//! AXI/OCP/DTL-style protocols), **guaranteed and best-effort services** on
//! connections, **end-to-end flow control**, and **run-time configuration
//! through the network itself** via memory-mapped configuration ports.
//!
//! The design mirrors the paper's split:
//!
//! * [`kernel`] — the NI kernel (Fig. 2): per-channel source/destination
//!   hardware FIFOs ([`fifo::HwFifo`]) that also implement the clock-domain
//!   crossing, `Space`/`Credit` counters for credit-based end-to-end flow
//!   control, data/credit thresholds with flush override, the GT slot table
//!   (STU), BE arbitration ([`kernel::ArbPolicy`]), packetization toward the
//!   `noc-sim` router link, and the memory-mapped register file reachable
//!   through the CNIP.
//! * [`shell`] — the plug-in shells (Figs. 3–6, 8): master/slave protocol
//!   adapters that (de)sequentialize transactions into the in-order
//!   message formats of [`message`] (Fig. 7), and the multi-connection
//!   shell. One master request path serves the direct, narrowcast,
//!   multicast and configuration shells; the last selects by NI and
//!   shares the CNIP's register executor for its own NI.
//! * [`Ni`] — a kernel plus per-port shell stacks, the unit that
//!   `aethereal-cfg` instantiates from a design-time spec.
//!
//! ```
//! use aethereal_ni::kernel::{NiKernel, NiKernelSpec};
//!
//! // The instance synthesized in §5 of the paper: 4 ports with 1/1/2/4
//! // channels, 8-word 32-bit queues, an 8-slot STU.
//! let kernel = NiKernel::new(NiKernelSpec::reference(0));
//! assert_eq!(kernel.channel_count(), 8);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![warn(missing_docs)]

pub mod fifo;
pub mod kernel;
pub mod message;
pub mod ni;
pub mod shell;
pub mod transaction;

pub use kernel::{ArbPolicy, ChannelId, NiKernel, NiKernelSpec, PortSpec};
pub use message::{MessageAssembler, MsgKind};
pub use ni::{Ni, NiSpec, PortStackSpec};
pub use transaction::{Cmd, RespStatus, Transaction, TransactionResponse};
