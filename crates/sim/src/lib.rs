//! # noc-sim — cycle-level network-on-chip substrate for the Æthereal reproduction
//!
//! This crate implements the network that the Æthereal network interface (NI)
//! of the DATE 2004 paper talks to: routers, links and topologies, at the
//! granularity of one 32-bit word per link per cycle.
//!
//! The router model follows the combined guaranteed-throughput / best-effort
//! (GT/BE) router of Rijpkema et al. (DATE 2003), which is the substrate the
//! paper's NI is designed against:
//!
//! * **GT traffic** travels on pipelined time-division-multiplexed circuits.
//!   Time is divided into *slots* of [`SLOT_WORDS`] words (one flit). A GT
//!   packet injected in slot `s` occupies slot `s + h` on the link after hop
//!   `h`. Routers forward GT words with a fixed one-slot latency and never
//!   buffer them; the slot allocator (see the `aethereal-cfg` crate) must
//!   guarantee contention-freedom, and the router *checks* this invariant at
//!   run time ([`Noc::gt_conflicts`]).
//! * **BE traffic** is wormhole-routed with per-output round-robin
//!   arbitration, link-level credit-based flow control, and strictly lower
//!   priority than GT: a BE worm simply yields any cycle in which a GT word
//!   is due on the same output.
//!
//! Both classes share one physical link; every word is tagged with its class
//! ([`WordClass`]) so that the receiving side can demultiplex the (at most
//! one) in-flight GT worm from the (at most one) in-flight BE worm, exactly
//! like the type bits on the Æthereal link.
//!
//! The crate deliberately contains **no NI logic**: the network interface —
//! the paper's actual contribution — lives in the `aethereal-ni` crate and
//! attaches to [`Noc`] endpoints through [`NiLink`] handles.
//!
//! ## Example
//!
//! ```
//! use noc_sim::{Noc, Topology, LinkWord, WordClass, PacketHeader};
//!
//! // A 2x2 mesh with one NI per router.
//! let topo = Topology::mesh(2, 2, 1);
//! let mut noc = Noc::new(&topo);
//!
//! // Source route from NI 0 (router 0) to NI 3 (router 3): East then South,
//! // then eject to the local port.
//! let path = topo.route(0, 3).expect("route exists");
//! let header = PacketHeader { path, qid: 2, credits: 5, flush: false };
//!
//! // One word per cycle enters the link.
//! noc.ni_link_mut(0).send(LinkWord::header(header.pack(), WordClass::BestEffort));
//! noc.tick();
//! noc.ni_link_mut(0).send(LinkWord::payload(0xDEAD_BEEF, WordClass::BestEffort, true));
//! for _ in 0..20 { noc.tick(); }
//! let got = noc.ni_link_mut(3).recv().expect("header arrives");
//! assert!(got.is_header());
//! assert_eq!(PacketHeader::unpack(got.word()).qid, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
pub mod engine;
pub mod fault;
pub mod ff;
pub mod header;
pub mod link;
pub mod noc;
pub mod path;
pub mod persist;
pub mod ring;
pub mod rng;
pub mod router;
pub mod shard;
pub mod stats;
pub mod sync;
pub mod topology;
pub mod word;

pub use engine::{ClockDomain, Clocked, ClockedWith, Engine};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultReport, FaultState, SuspectLink};
pub use ff::{FfOutcome, FfStats};
pub use header::PacketHeader;
pub use link::{LinkId, LinkState};
pub use noc::{NiLink, Noc, NocConfig};
pub use path::{Path, PortIdx, Route, RouteBuildError, MAX_HOPS, MAX_ROUTE_SEGMENTS};
pub use persist::{PersistError, StateLoader, StateSaver, StateVisit};
// The out-of-tree IP-model boundary keeps its two opt-in walks
// (`RawIp::ff_visit`, `*Ip::persist`), each spelled with the visitor name
// it was written against; both are the one trait.
pub use persist::StateVisit as FfVisit;
pub use persist::StateVisit as PersistVisit;
pub use ring::Ring;
pub use rng::Rng64;
pub use router::Router;
pub use shard::{NocShard, Partition, ShardRegion, ShardRunner};
pub use stats::{LinkStats, NocStats};
pub use sync::{StdSync, SyncFamily};
pub use topology::{
    Endpoint, NiId, RegionError, Regions, RouteError, RouteLink, RouterId, Topology, TopologyKind,
};
pub use word::{LinkWord, Word, WordClass, FLIT_WORDS, SLOT_WORDS};
