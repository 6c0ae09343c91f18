//! NI shells (Figs. 3–6 and 8 of the paper): plug-in modules around the NI
//! kernel that implement connection types and protocol adapters.
//!
//! *"Note that these shells add specific functionality, and can be plugged
//! in or left out at design time according to the requirements."* (§4.2)
//!
//! * [`master::MasterStack`] — the one request path (Fig. 5): sequentializes
//!   commands, flags, addresses and write data into request messages and
//!   desequentializes responses back in submission order. Its selector is
//!   the connection shell: direct, narrowcast (Fig. 3), multicast, or the
//!   configuration shell (Fig. 8), which selects by NI — its own NI's
//!   registers are accessed in place, remote NIs are configured through
//!   their CNIPs over run-time bound connections ([`config`] holds its
//!   address map).
//! * [`slave::SlaveStack`] — the slave adapter (Fig. 6), optionally with the
//!   multi-connection shell (Fig. 4) that schedules between connections for
//!   a connectionless slave and keeps the connection-id history needed to
//!   route responses back.

pub mod axi;
pub mod config;
pub mod master;
pub mod slave;

pub use axi::AxiMasterAdapter;
pub use master::{AddrRange, ConnSelect, MasterStack};
pub use slave::SlaveStack;
