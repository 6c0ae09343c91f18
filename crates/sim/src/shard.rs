//! Sharded lockstep execution: cut a NoC at link boundaries and run the
//! pieces as independent [`Clocked`] regions with per-region idle skipping.
//!
//! # Why links are the right cut
//!
//! The Æthereal guarantees come from contention-free GT slot scheduling, so
//! router-to-router links are the **only** coupling between regions of a
//! mesh: a word emitted onto a link in cycle *t* is registered by the far
//! router in the same cycle's absorb phase, and the only state flowing the
//! other way is the link-level BE credit earned when the far input dequeues.
//! Cutting at links therefore decomposes the network exactly — each piece
//! keeps the full two-phase cycle contract, and each cross-shard wire becomes
//! one preallocated ring that the producing region's emit phase writes and
//! the consuming region's absorb phase reads at the same cycle. That keeps
//! the race-free discipline: every emit still reads only previous-cycle
//! state, every absorb registers exactly what a wired link would have
//! carried.
//!
//! # The pieces
//!
//! * [`Partition`] — the router → shard assignment, with validation and the
//!   cut-edge computation over a [`Topology`];
//! * [`Noc::split`](crate::Noc::split) — moves routers, NI handles and
//!   per-link counters of a drained network into per-shard [`Noc`]s whose
//!   cut ports are boundary attachments (see [`NocShard`]);
//! * [`ShardRunner`] — the slack-batched driver over the **exchange
//!   arena**, the only representation of a cut wire: every directed cut
//!   wire owns one preallocated, cache-line-padded SPSC [`WireRing`] in a
//!   [`BoundaryArena`] that the runner attaches to every region when it is
//!   built. A region's emit phase writes boundary words and credits
//!   directly into the ring slot of the emitting cycle, and the consuming
//!   region's absorb phase consumes each slot at **exactly** its due
//!   cycle — zero allocation, zero copying through intermediate queues,
//!   and the cut link's one-cycle latency is never shortened or
//!   stretched. The runner amortizes its *scheduling* work over
//!   [`ShardRunner::set_batch`]-sized epochs: activity-set decisions
//!   (one [`Clocked::dormant_until`] walk per awake region) run once per
//!   epoch instead of once per cycle. [`ShardRunner::run_parallel`] is
//!   **pipelined**: there is no epoch barrier at all — a worker is gated
//!   only by the per-wire published-cycle watermarks of its inbound
//!   rings, so it begins epoch N+1's interior cycles while epoch N's cut
//!   words are still draining on the neighbour's side. A region that
//!   reports itself dormant leaves the activity set and sleeps until
//!   its [`Clocked::dormant_until`] horizon — which includes the next
//!   due cycle of a pending router GT calendar — or until a boundary
//!   word/credit arrives for it, at which point it is caught up with
//!   one exact [`Clocked::skip`].
//!
//! # Why the watermark dependency suffices
//!
//! Consumer cycle `t` needs exactly the producer's emit of cycle `t`
//! (the cut link registers a word in the same cycle's absorb). Each cut
//! edge yields a wire in *both* directions, so two adjacent regions gate
//! each other symmetrically: a region emitting cycle `t` has already
//! waited for every inbound watermark to pass `t − 1`, which bounds the
//! skew between wire-adjacent regions to one cycle — at most the slot of
//! cycle `t − 1` (not yet consumed) and the slot of cycle `t` (being
//! written) are in flight on any wire, which is why the tiny
//! power-of-two ring of [`RING_SLOTS`] slots never overruns (asserted,
//! and model-checked in `testkit`). Non-adjacent regions may drift a
//! whole batch apart; they share no wire, so nothing observes the drift.
//!
//! A sharded run is **bit-identical** to ticking the unsplit fabric — for
//! any batch size, in both execution modes: batching and pipelining
//! amortize scheduling and synchronization, never the data exchange. The
//! per-shard statistics merge back onto the global link numbering via
//! [`merge_noc_stats`], pinned by the parity tests here and in the facade
//! crate.

use crate::engine::{Clocked, Engine};
use crate::ff::FfOutcome;
use crate::link::LinkId;
use crate::noc::Noc;
use crate::path::PortIdx;
use crate::stats::NocStats;
use crate::sync::{AtomicU64Cell, Ordering, StdSync, SyncFamily};
use crate::topology::{NiId, RouterId, Topology};
use crate::word::LinkWord;

/// A router → shard assignment over a topology.
///
/// Shard ids must be dense (`0..shards()`, every shard non-empty). NIs
/// always follow their attachment router, so every cut is an inter-router
/// link — the property that makes the decomposition exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    shard_of: Vec<usize>,
    shards: usize,
}

/// Why a shard assignment is unusable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// The assignment is empty.
    Empty,
    /// A shard id in `0..shards` owns no router.
    EmptyShard {
        /// The unowned shard id.
        shard: usize,
    },
    /// The assignment length does not match the topology's router count.
    WrongLength {
        /// Routers in the assignment.
        got: usize,
        /// Routers in the topology.
        want: usize,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::Empty => write!(f, "empty partition"),
            PartitionError::EmptyShard { shard } => write!(f, "shard {shard} owns no router"),
            PartitionError::WrongLength { got, want } => {
                write!(f, "partition covers {got} routers but topology has {want}")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// One cut inter-router edge: the two half-links the partition separated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutEdge {
    /// Index of the edge in [`Topology::edges`].
    pub edge: usize,
    /// Shard owning side `a`.
    pub a_shard: usize,
    /// Router on side `a` (global id).
    pub a_router: RouterId,
    /// Port on side `a`.
    pub a_port: PortIdx,
    /// Shard owning side `b`.
    pub b_shard: usize,
    /// Router on side `b` (global id).
    pub b_router: RouterId,
    /// Port on side `b`.
    pub b_port: PortIdx,
}

/// One shard's slice of a topology, with local↔global id maps.
#[derive(Debug, Clone)]
pub struct ShardPiece {
    /// The shard's own topology (cut ports left unconnected).
    pub topology: Topology,
    /// Local router id → global router id (ascending).
    pub routers: Vec<RouterId>,
    /// Local NI id → global NI id (ascending).
    pub nis: Vec<NiId>,
    /// Local edge index → global edge index.
    pub edge_map: Vec<usize>,
}

impl Partition {
    /// Creates a partition from a router → shard map.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError`] if the map is empty or shard ids are not
    /// dense.
    pub fn new(shard_of: Vec<usize>) -> Result<Self, PartitionError> {
        if shard_of.is_empty() {
            return Err(PartitionError::Empty);
        }
        let shards = shard_of.iter().copied().max().unwrap_or(0) + 1;
        for s in 0..shards {
            if !shard_of.contains(&s) {
                return Err(PartitionError::EmptyShard { shard: s });
            }
        }
        Ok(Partition { shard_of, shards })
    }

    /// The trivial one-shard partition of `routers` routers.
    pub fn single(routers: usize) -> Self {
        Partition::new(vec![0; routers.max(1)]).expect("single shard is dense")
    }

    /// Cuts a `width × height` mesh into `shards` horizontal row bands —
    /// the canonical mesh cut, crossing only vertical (north/south) links.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds `height`.
    pub fn mesh_rows(width: usize, height: usize, shards: usize) -> Self {
        assert!(shards >= 1 && shards <= height, "need 1..=height row bands");
        let shard_of = (0..width * height)
            .map(|r| (r / width) * shards / height)
            .collect();
        Partition::new(shard_of).expect("row bands are dense")
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning router `r`.
    pub fn shard_of(&self, r: RouterId) -> usize {
        self.shard_of[r]
    }

    /// Checks the partition against a topology: the map must cover every
    /// router, and every cut must be an inter-router link. The latter holds
    /// by construction — NIs attach to exactly one router and follow it —
    /// and is re-asserted while enumerating the cuts.
    ///
    /// # Errors
    ///
    /// See [`PartitionError`].
    pub fn validate(&self, topology: &Topology) -> Result<(), PartitionError> {
        if self.shard_of.len() != topology.router_count() {
            return Err(PartitionError::WrongLength {
                got: self.shard_of.len(),
                want: topology.router_count(),
            });
        }
        Ok(())
    }

    /// The inter-router edges this partition cuts, in global edge order.
    pub fn cut_edges(&self, topology: &Topology) -> Vec<CutEdge> {
        topology
            .edges()
            .iter()
            .enumerate()
            .filter(|(_, e)| self.shard_of[e.a] != self.shard_of[e.b])
            .map(|(k, e)| CutEdge {
                edge: k,
                a_shard: self.shard_of[e.a],
                a_router: e.a,
                a_port: e.port_a,
                b_shard: self.shard_of[e.b],
                b_router: e.b,
                b_port: e.port_b,
            })
            .collect()
    }

    /// Extracts each shard's topology slice with its id maps.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not validate against `topology`.
    pub fn pieces(&self, topology: &Topology) -> Vec<ShardPiece> {
        self.validate(topology).expect("partition fits topology");
        (0..self.shards)
            .map(|s| {
                let routers: Vec<RouterId> = (0..topology.router_count())
                    .filter(|&r| self.shard_of[r] == s)
                    .collect();
                let mut local_of = vec![usize::MAX; topology.router_count()];
                for (lr, &gr) in routers.iter().enumerate() {
                    local_of[gr] = lr;
                }
                let router_ports = routers.iter().map(|&r| topology.ports_of(r)).collect();
                let mut edge_map = Vec::new();
                let mut edges = Vec::new();
                for (k, e) in topology.edges().iter().enumerate() {
                    if self.shard_of[e.a] == s && self.shard_of[e.b] == s {
                        edge_map.push(k);
                        edges.push(crate::topology::RouterEdge {
                            a: local_of[e.a],
                            port_a: e.port_a,
                            b: local_of[e.b],
                            port_b: e.port_b,
                        });
                    }
                }
                let mut nis = Vec::new();
                let mut ni_attach = Vec::new();
                for ni in 0..topology.ni_count() {
                    let (r, p) = topology.ni_attachment(ni).expect("ni in range");
                    if self.shard_of[r] == s {
                        nis.push(ni);
                        ni_attach.push((local_of[r], p));
                    }
                }
                ShardPiece {
                    topology: Topology::custom(router_ports, edges, ni_attach),
                    routers,
                    nis,
                    edge_map,
                }
            })
            .collect()
    }
}

/// One shard produced by [`Noc::split`]: the shard network plus the maps
/// that tie its local numbering back to the global one.
#[derive(Debug, Clone)]
pub struct NocShard {
    /// The shard's network, cut ports opened as boundaries in
    /// [`Partition::cut_edges`] order.
    pub noc: Noc,
    /// Local router id → global router id.
    pub routers: Vec<RouterId>,
    /// Local NI id → global NI id.
    pub nis: Vec<NiId>,
    /// Local link id → global link id.
    pub link_map: Vec<LinkId>,
    /// Boundary id → global id of the directed link whose words this side
    /// ingests.
    pub boundary_links: Vec<LinkId>,
    /// Boundary id → index into [`Partition::cut_edges`].
    pub cuts: Vec<usize>,
}

impl Clocked for NocShard {
    fn now(&self) -> u64 {
        self.noc.now()
    }

    fn emit(&mut self) {
        self.noc.emit();
    }

    fn absorb(&mut self) {
        self.noc.absorb();
    }

    fn dormant_until(&self, now: u64) -> u64 {
        self.noc.dormant_until(now)
    }

    fn skip(&mut self, cycles: u64) {
        self.noc.skip(cycles);
    }
}

impl ShardRegion for NocShard {
    fn adopt_exchange(&mut self, exchange: ExchangeAttachment) {
        self.noc.attach_exchange(exchange);
    }
}

/// One directed cross-shard wire: from a source shard's boundary to the
/// destination shard's boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryWire {
    /// Producing shard.
    pub src_shard: usize,
    /// Boundary id within the producing shard.
    pub src_boundary: usize,
    /// Consuming shard.
    pub dst_shard: usize,
    /// Boundary id within the consuming shard.
    pub dst_boundary: usize,
}

/// Enumerates the directed cross-shard wires of a split, one per boundary
/// (each boundary is the source of exactly one directed cut link).
pub fn wires_of(shards: &[NocShard]) -> Vec<BoundaryWire> {
    let mut wires = Vec::new();
    for (s, shard) in shards.iter().enumerate() {
        for (b, &cut) in shard.cuts.iter().enumerate() {
            let (ds, db) = shards
                .iter()
                .enumerate()
                .find_map(|(s2, sh2)| {
                    if s2 == s {
                        return None;
                    }
                    sh2.cuts.iter().position(|&c| c == cut).map(|b2| (s2, b2))
                })
                .expect("every cut has two sides");
            wires.push(BoundaryWire {
                src_shard: s,
                src_boundary: b,
                dst_shard: ds,
                dst_boundary: db,
            });
        }
    }
    wires
}

/// Reconstructs the global [`NocStats`] from per-shard networks and their
/// link maps, bit-identical to the unsplit network's counters. `parts`
/// yields `(shard network, link_map, boundary_links)` triples.
///
/// # Panics
///
/// Panics if the shards are not at the same cycle.
pub fn merge_noc_stats<'a, I>(parts: I) -> NocStats
where
    I: IntoIterator<Item = (&'a Noc, &'a [LinkId], &'a [LinkId])> + Clone,
{
    let total_links = parts
        .clone()
        .into_iter()
        .flat_map(|(_, lm, bl)| lm.iter().chain(bl.iter()).copied())
        .max()
        .map_or(0, |m| m + 1);
    let mut merged = NocStats::new(total_links);
    let mut first = true;
    for (noc, link_map, boundary_links) in parts {
        let st = noc.stats();
        if first {
            merged.cycles = st.cycles;
            first = false;
        }
        assert_eq!(st.cycles, merged.cycles, "shards out of lockstep");
        merged.gt_conflicts += st.gt_conflicts;
        merged.be_overflows += st.be_overflows;
        merged.delivered[0] += st.delivered[0];
        merged.delivered[1] += st.delivered[1];
        for (l, &g) in link_map.iter().enumerate() {
            merged.links[g] = st.links[l];
        }
        for (b, &g) in boundary_links.iter().enumerate() {
            merged.links[g] = *noc.boundary_stats(b);
        }
    }
    merged
}

/// A [`Clocked`] region whose cut wires live in a shard runner's exchange
/// arena — the shape the shard runner drives. Implemented by [`NocShard`]
/// (pure-network shards) and by `aethereal-cfg`'s `NocSystem` (full-system
/// shards).
///
/// The runner offers a region's [`Clocked::fast_forward`] only while it is
/// the *sole* awake region and every sleeper's wake horizon lies beyond
/// the offered window, so nothing can interact with it. The implementor
/// still owns all eligibility checking — in particular it must decline
/// unless its boundaries are silent and every live circuit stays inside
/// the region, because the probe ticks the region alone, while its
/// neighbours stand still.
pub trait ShardRegion: Clocked + Send {
    /// Takes the region's handle onto the runner's exchange arena — called
    /// once, by [`ShardRunner::new`]. A region with a network hands it to
    /// [`Noc::attach_exchange`]; from then on the region's emit and absorb
    /// phases read and write its cut-wire rings in place.
    fn adopt_exchange(&mut self, exchange: ExchangeAttachment);
}

/// Slots per [`WireRing`]. A power of two (the ring indexes with a mask).
///
/// Two is the proven in-flight maximum — wire pairs bound the skew of
/// adjacent regions to one cycle, so at most the previous cycle's slot
/// (unconsumed) and the current cycle's slot (being written) coexist —
/// four leaves one asserted-empty guard slot on either side.
pub const RING_SLOTS: usize = 4;

/// The packed-word encoding of an empty slot (see
/// [`LinkWord::pack_u64`]).
const EMPTY_WORD: u64 = 0;

/// Pads (and aligns) a value to two cache lines, so neighbouring wires'
/// hot atomics never share a line (128 bytes also defeats adjacent-line
/// prefetching on common cores).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

/// One slot of a [`WireRing`]: the traffic one cut wire carries in one
/// specific cycle, held in place in three atomic cells. `stamp` is the
/// due cycle plus one (`0` = empty); `word` is the packed [`LinkWord`]
/// or [`EMPTY_WORD`]; `credits` counts link-level BE credits earned for
/// the wire's producer.
struct WireSlot<S: SyncFamily> {
    stamp: S::AtomicU64,
    word: S::AtomicU64,
    credits: S::AtomicU64,
}

impl<S: SyncFamily> WireSlot<S> {
    fn new() -> Self {
        WireSlot {
            stamp: S::AtomicU64::new(0),
            word: S::AtomicU64::new(EMPTY_WORD),
            credits: S::AtomicU64::new(0),
        }
    }
}

/// One directed cut wire's preallocated SPSC exchange ring: the producer
/// region's emit phase writes words and credits **in place** into the
/// slot of the emitting cycle, and the consumer region's absorb phase
/// consumes the slot at exactly its due cycle — no allocation, no queue,
/// no copy in between.
///
/// The `published` watermark (first cycle *not* yet final) is the only
/// cross-region gate: once the producer publishes past `t`, no further
/// write stamped ≤ `t` can appear, so the consumer may absorb cycle `t`
/// — and, transitively, start later cycles — without any global barrier.
/// Slot cells are written with release ordering — a plain store on x86,
/// so this costs nothing on the target — making every slot write's
/// visibility self-contained rather than carried solely by the
/// subsequent watermark publish. The release-publish / acquire-wait pair
/// still carries the cross-region happens-before edge (the consumer's
/// slot clears travel back to the producer over the paired reverse
/// wire's watermark the same way), and it also keeps the model checker's
/// exploration tractable: release-class stores commit eagerly, so slot
/// writes add no delayed-store nondeterminism.
///
/// Generic over the [`SyncFamily`] shim so the `testkit::mc` model
/// checker explores this exact protocol on instrumented cells;
/// production uses the zero-cost [`StdSync`] default.
pub struct WireRing<S: SyncFamily = StdSync> {
    /// First cycle whose boundary traffic is not yet final.
    published: S::AtomicU64,
    slots: [WireSlot<S>; RING_SLOTS],
}

impl<S: SyncFamily> std::fmt::Debug for WireRing<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireRing")
            .field("published", &self.published.load(Ordering::Relaxed))
            .finish()
    }
}

impl<S: SyncFamily> WireRing<S> {
    /// Creates a ring whose first unpublished cycle is `start`.
    pub fn new(start: u64) -> Self {
        WireRing {
            published: S::AtomicU64::new(start),
            slots: std::array::from_fn(|_| WireSlot::new()),
        }
    }

    #[inline]
    fn slot(&self, t: u64) -> &WireSlot<S> {
        &self.slots[(t as usize) & (RING_SLOTS - 1)]
    }

    /// Producer: claims cycle `t`'s slot (stamping it on first use).
    ///
    /// # Panics
    ///
    /// Panics if the slot still holds an unconsumed earlier cycle — the
    /// ring overran, i.e. the watermark discipline was violated.
    #[inline]
    fn occupy(&self, t: u64) -> &WireSlot<S> {
        let slot = self.slot(t);
        let stamp = slot.stamp.load(Ordering::Relaxed);
        if stamp != t + 1 {
            assert_eq!(
                stamp,
                0,
                "wire ring overrun: cycle {} still unconsumed while emitting cycle {t}",
                stamp.wrapping_sub(1)
            );
            slot.stamp.store(t + 1, Ordering::Release);
        }
        slot
    }

    /// Producer: places the word cycle `t` carries (at most one per
    /// cycle) into the ring, in place.
    pub fn send_word(&self, t: u64, word: LinkWord) {
        let slot = self.occupy(t);
        debug_assert_eq!(
            slot.word.load(Ordering::Relaxed),
            EMPTY_WORD,
            "one word per wire per cycle"
        );
        slot.word.store(word.pack_u64(), Ordering::Release);
    }

    /// Producer: adds link-level BE credits to cycle `t`'s slot.
    pub fn send_credits(&self, t: u64, credits: u32) {
        let slot = self.occupy(t);
        let cur = slot.credits.load(Ordering::Relaxed);
        slot.credits
            .store(cur + u64::from(credits), Ordering::Release);
    }

    /// Producer: marks cycle `t` final — every write stamped ≤ `t` is in
    /// the ring. The release store pairs with [`WireRing::wait_published`].
    pub fn publish(&self, t: u64) {
        self.published.store(t + 1, Ordering::Release);
    }

    /// Consumer: blocks (spin-then-yield under [`StdSync`]) until cycle
    /// `t` is final.
    pub fn wait_published(&self, t: u64) {
        S::spin_until(|| self.published.load(Ordering::Acquire) > t);
    }

    /// Consumer: whether the wire carries traffic due exactly at `t`
    /// (call only after [`WireRing::wait_published`]).
    pub fn has_due(&self, t: u64) -> bool {
        self.slot(t).stamp.load(Ordering::Relaxed) == t + 1
    }

    /// The earliest pending due cycle at or after `from`, scanning all
    /// slots. Test-only: the runner needs no such probe, its rings are
    /// silent between spans.
    #[cfg(test)]
    fn next_due(&self, from: u64) -> Option<u64> {
        self.slots
            .iter()
            .filter_map(|s| match s.stamp.load(Ordering::Relaxed) {
                0 => None,
                stamp => Some(stamp - 1),
            })
            .filter(|&due| due >= from)
            .min()
    }

    /// Consumer: consumes cycle `t`'s traffic, if the wire carried any
    /// then, clearing the slot for reuse. A slot with a later stamp lives
    /// in a different ring position, so traffic is **never** surfaced
    /// before its due cycle, no matter how far ahead the producer ran.
    ///
    /// # Panics
    ///
    /// Panics if the slot holds an *earlier* stamp: the consumer skipped
    /// a cycle in which the wire carried traffic.
    pub fn take_due(&self, t: u64) -> Option<(Option<LinkWord>, u32)> {
        let slot = self.slot(t);
        let stamp = slot.stamp.load(Ordering::Relaxed);
        if stamp == 0 {
            return None;
        }
        assert_eq!(
            stamp,
            t + 1,
            "wire slot due {} was missed (absorb at {t})",
            stamp.wrapping_sub(1)
        );
        let word = LinkWord::unpack_u64(slot.word.load(Ordering::Relaxed));
        let credits = slot.credits.load(Ordering::Relaxed) as u32;
        slot.word.store(EMPTY_WORD, Ordering::Release);
        slot.credits.store(0, Ordering::Release);
        slot.stamp.store(0, Ordering::Release);
        Some((word, credits))
    }

    /// Whether no slot holds unconsumed traffic (any due cycle).
    pub fn is_silent(&self) -> bool {
        self.slots
            .iter()
            .all(|s| s.stamp.load(Ordering::Relaxed) == 0)
    }

    /// Resets the watermark to first-unpublished = `start` without
    /// touching slots. [`ShardRunner::run_parallel`] rebases every ring at
    /// entry: watermarks are meaningless between parallel spans (the
    /// sequential runner and fast-forward jumps never advance them).
    pub fn rebase(&self, start: u64) {
        self.published.store(start, Ordering::Relaxed);
    }

    /// Persists the ring's traffic through a state visitor, which between
    /// runner spans is always none: a cut word is due in the cycle it is
    /// emitted and absorbed in that same cycle, so every ring is empty at
    /// a snapshot. The walk is one zero length (kept so the stream does
    /// not change), and a snapshot claiming any slot is refused. The
    /// published watermark is not part of the walk either: it is
    /// meaningless between spans and is re-derived from the restored cycle
    /// via [`WireRing::rebase`].
    pub fn persist_slots<V: crate::persist::StateVisit + ?Sized>(&self, p: &mut V) {
        debug_assert!(self.is_silent(), "a ring holds traffic between spans");
        if p.len(0) != 0 {
            p.fail("snapshot carries cut-wire traffic between runner spans");
        }
    }
}

/// The preallocated exchange arena of one split: one cache-line-padded
/// [`WireRing`] per directed cut wire, indexed like the
/// [`wires_of`]-enumerated wire table. Shared (via `Arc`) between the
/// [`ShardRunner`] and every region's network, which reads and writes its
/// rings in place from the engine phases themselves.
pub struct BoundaryArena {
    rings: Vec<CachePadded<WireRing>>,
}

impl std::fmt::Debug for BoundaryArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundaryArena")
            .field("wires", &self.rings.len())
            .finish()
    }
}

impl BoundaryArena {
    /// Creates an arena of `wires` rings starting at cycle `start`.
    pub fn new(wires: usize, start: u64) -> Self {
        BoundaryArena {
            rings: (0..wires)
                .map(|_| CachePadded(WireRing::new(start)))
                .collect(),
        }
    }

    /// The ring of wire `i`.
    #[inline]
    pub fn ring(&self, i: usize) -> &WireRing {
        &self.rings[i].0
    }

    /// Rebases every ring's watermark (see [`WireRing::rebase`]).
    pub fn rebase(&self, start: u64) {
        for r in &self.rings {
            r.0.rebase(start);
        }
    }
}

/// A region's handle onto the shared [`BoundaryArena`]: the arena plus
/// this region's boundary-id → wire-index maps. With the attachment
/// installed (see [`crate::Noc::attach_exchange`]), the network's emit
/// phase writes cut-wire words and credits straight into the arena and
/// its absorb phase consumes due slots straight out of it — the one
/// exchange path, used identically by the sequential and the
/// worker-thread runner.
#[derive(Debug, Clone)]
pub struct ExchangeAttachment {
    arena: std::sync::Arc<BoundaryArena>,
    /// `out_wire[boundary]` = wire this boundary produces onto.
    out_wire: Vec<usize>,
    /// `in_wire[boundary]` = wire this boundary consumes from.
    in_wire: Vec<usize>,
}

impl ExchangeAttachment {
    /// Creates the attachment for one region — only a [`ShardRunner`]
    /// does, so an attachment always names rings its runner drives.
    ///
    /// # Panics
    ///
    /// Panics if a wire index is out of the arena's range.
    fn new(
        arena: std::sync::Arc<BoundaryArena>,
        out_wire: Vec<usize>,
        in_wire: Vec<usize>,
    ) -> Self {
        assert_eq!(
            out_wire.len(),
            in_wire.len(),
            "every boundary has one wire per direction"
        );
        assert!(
            out_wire
                .iter()
                .chain(in_wire.iter())
                .all(|&i| i < arena.rings.len()),
            "wire index out of arena range"
        );
        ExchangeAttachment {
            arena,
            out_wire,
            in_wire,
        }
    }

    /// Number of boundaries the maps cover.
    pub fn boundaries(&self) -> usize {
        self.out_wire.len()
    }

    /// The ring boundary `b` produces onto.
    #[inline]
    pub fn out_ring(&self, b: usize) -> &WireRing {
        self.arena.ring(self.out_wire[b])
    }

    /// The ring boundary `b` consumes from.
    #[inline]
    pub fn in_ring(&self, b: usize) -> &WireRing {
        self.arena.ring(self.in_wire[b])
    }

    /// Whether every wire this region touches is silent in both
    /// directions (the fast-forward boundary gate).
    pub fn silent(&self) -> bool {
        self.out_wire
            .iter()
            .chain(self.in_wire.iter())
            .all(|&i| self.arena.ring(i).is_silent())
    }
}

/// One worker's view of the shared exchange state in
/// [`ShardRunner::run_parallel`]: every wire's ring and this region's
/// inbound/outbound wire lists. There is no barrier — the per-wire
/// published-cycle watermarks are the only cross-worker gate.
///
/// Public (with [`run_worker`]) so the model checker drives the *same*
/// protocol code the production runner executes, not a re-implementation.
pub struct ExchangeSlice<'a, S: SyncFamily = StdSync> {
    /// Per-wire exchange rings, indexed like the wire table.
    pub rings: &'a [CachePadded<WireRing<S>>],
    /// Wire indices this region produces onto.
    pub out_list: &'a [usize],
    /// Wire indices this region consumes from.
    pub in_list: &'a [usize],
}

/// One region's place in the activity set: awake, or asleep until its own
/// horizon `wake_at` — or until input arrives for it, whichever
/// comes first. The three transitions below are the whole region
/// scheduler, shared by the sequential runner and the worker threads. A
/// region is never skipped past its horizon, and never past a cycle in
/// which input arrives for it — the two properties that make per-region
/// skipping exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionSched {
    awake: bool,
    wake_at: u64,
}

impl RegionSched {
    /// In the activity set — how every region starts a run.
    pub const AWAKE: RegionSched = RegionSched {
        awake: true,
        wake_at: 0,
    };

    /// Brings a lagging region to cycle `t` with one exact skip. Never a
    /// `skip(0)`: that would reset a caught-up region's activity sets.
    fn catch_up<R: Clocked>(region: &mut R, t: u64) {
        let now = region.now();
        if now < t {
            region.skip(t - now);
        }
    }

    /// Start of cycle `t`: a sleeper whose horizon has arrived rejoins the
    /// activity set. Returns whether the region runs this cycle.
    fn begin<R: Clocked>(&mut self, region: &mut R, t: u64) -> bool {
        if !self.awake && self.wake_at <= t {
            Self::catch_up(region, t);
            self.awake = true;
        }
        self.awake
    }

    /// Mid-cycle `t`, input is due for a sleeper: catch it up, run the
    /// emit it sat out (a no-op — it is quiescent) so its phase order
    /// holds, and put it back in the activity set.
    fn input<R: Clocked>(&mut self, region: &mut R, t: u64) {
        Self::catch_up(region, t);
        region.emit();
        self.awake = true;
    }

    /// Epoch boundary: a dormant region leaves the activity set until its
    /// horizon.
    fn settle<R: Clocked>(&mut self, region: &mut R) {
        if self.awake {
            let now = region.now();
            let horizon = region.dormant_until(now);
            if horizon > now {
                *self = RegionSched {
                    awake: false,
                    wake_at: horizon,
                };
            }
        }
    }
}

/// One worker thread's body in [`ShardRunner::run_parallel`]: runs `region`
/// from cycle `start` to `end`, its emit phase writing the outbound rings
/// of `slice` and its absorb phase consuming the inbound ones, gated by the
/// rings' published-cycle watermarks. Takes and returns the region's
/// scheduler state.
///
/// There is no epoch barrier: a worker starts cycle `t` the moment every
/// inbound wire has published past `t − 1`, so one region's interior cycles
/// of epoch N+1 overlap another's cut-word drain of epoch N. Sleep
/// decisions are re-evaluated every `batch` cycles, purely locally. The
/// watermark dependency chain bounds wire-adjacent skew to one cycle (see
/// the module docs), which is also what keeps every [`WireRing`] within
/// its [`RING_SLOTS`] capacity.
///
/// The worker never touches a word: it only publishes, waits and decides
/// who sleeps. The region's phases must reach the same rings the slice
/// names (see [`ShardRegion::adopt_exchange`]).
///
/// The caller must invoke this once per region, concurrently, with every
/// worker sharing the same ring slice.
pub fn run_worker<R: Clocked, S: SyncFamily>(
    region: &mut R,
    slice: &ExchangeSlice<'_, S>,
    start: u64,
    end: u64,
    batch: u64,
    mut sched: RegionSched,
) -> RegionSched {
    let rings = slice.rings;
    let mut t = start;
    while t < end {
        let t1 = end.min(t + batch);
        while t < t1 {
            if sched.begin(region, t) {
                region.emit();
            }
            // Publish cycle t on every outbound wire — also while asleep:
            // the watermark is the null message that lets consumers proceed.
            for &i in slice.out_list {
                rings[i].0.publish(t);
            }
            // Wait until every inbound wire is final for t.
            for &i in slice.in_list {
                rings[i].0.wait_published(t);
            }
            if !sched.awake && slice.in_list.iter().any(|&i| rings[i].0.has_due(t)) {
                sched.input(region, t);
            }
            if sched.awake {
                region.absorb();
            }
            t += 1;
        }
        // Epoch boundary: a purely local sleep decision — no re-alignment.
        sched.settle(region);
    }
    RegionSched::catch_up(region, end);
    sched
}

/// The slack-batched shard driver with per-region activity tracking.
///
/// The runner holds the exchange arena and one [`RegionSched`] per region;
/// together with the regions it forms one [`Clocked`] fabric (see
/// [`ShardRunner::run`]), which [`ShardRunner::run_parallel`] instead
/// steps region by region on worker threads. Activity-set maintenance is
/// amortized over [`batch`](ShardRunner::set_batch)-sized epochs: only at
/// an epoch boundary are the awake regions' [`Clocked::dormant_until`]
/// horizons walked and dormant regions let out of the set. Inside an
/// epoch a dormant region just keeps ticking (a no-op by the dormancy
/// contract), so the batch size trades scheduling
/// overhead against how promptly regions fall asleep — it never affects
/// what the simulation computes.
///
/// Input the runner cannot see (words injected directly into a region's NI
/// links between `run` calls) must be announced with
/// [`ShardRunner::wake`] first.
#[derive(Debug)]
pub struct ShardRunner {
    wires: Vec<BoundaryWire>,
    /// The shared exchange arena: one ring per wire, indexed like `wires`.
    arena: std::sync::Arc<BoundaryArena>,
    /// `out_w[shard]` = wire indices the shard produces onto.
    out_w: Vec<Vec<usize>>,
    /// `in_w[shard]` = wire indices the shard consumes from.
    in_w: Vec<Vec<usize>>,
    batch: u64,
    cycle: u64,
    sched: Vec<RegionSched>,
}

impl ShardRunner {
    /// Creates the runner of `regions`, starting at `start_cycle` (the
    /// cycle the regions were split at), with the given cross-shard wires
    /// and a batch size of 1 (scheduling decisions every cycle — see
    /// [`ShardRunner::set_batch`]). Every region adopts its handle onto
    /// the runner's exchange arena here, so a region driven by a runner
    /// always reaches its cut wires.
    ///
    /// # Panics
    ///
    /// Panics if a wire names a shard outside `regions` or does not cross
    /// shards, or if a region's boundaries disagree with the wire table.
    pub fn new<R: ShardRegion>(
        regions: &mut [R],
        wires: Vec<BoundaryWire>,
        start_cycle: u64,
    ) -> Self {
        let n = regions.len();
        let mut out_w: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut in_w: Vec<Vec<usize>> = vec![Vec::new(); n];
        // Per region: boundary id → (outbound, inbound) wire index.
        let mut wire_of: Vec<(Vec<usize>, Vec<usize>)> = vec![Default::default(); n];
        fn set(map: &mut Vec<usize>, boundary: usize, wire: usize) {
            if map.len() <= boundary {
                map.resize(boundary + 1, usize::MAX);
            }
            map[boundary] = wire;
        }
        for (i, w) in wires.iter().enumerate() {
            assert!(w.src_shard < n && w.dst_shard < n, "wire out of range");
            assert_ne!(w.src_shard, w.dst_shard, "wire must cross shards");
            out_w[w.src_shard].push(i);
            in_w[w.dst_shard].push(i);
            set(&mut wire_of[w.src_shard].0, w.src_boundary, i);
            set(&mut wire_of[w.dst_shard].1, w.dst_boundary, i);
        }
        let arena = std::sync::Arc::new(BoundaryArena::new(wires.len(), start_cycle));
        for (region, (out_wire, in_wire)) in regions.iter_mut().zip(wire_of) {
            region.adopt_exchange(ExchangeAttachment::new(arena.clone(), out_wire, in_wire));
        }
        ShardRunner {
            wires,
            arena,
            out_w,
            in_w,
            batch: 1,
            cycle: start_cycle,
            sched: vec![RegionSched::AWAKE; n],
        }
    }

    /// Sets the batch size: how many cycles run between scheduling epochs.
    /// A pure performance knob — execution is bit-identical for every
    /// `B ≥ 1` (see the type-level docs).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn set_batch(&mut self, batch: u64) {
        assert!(batch >= 1, "batch size must be ≥ 1");
        self.batch = batch;
    }

    /// The global cycle (regions lag only while asleep inside a span;
    /// `run` and `run_parallel` return with every region caught up to
    /// this).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// How many regions are in the activity set.
    pub fn awake_count(&self) -> usize {
        self.sched.iter().filter(|s| s.awake).count()
    }

    /// Puts region `r` back in the activity set.
    ///
    /// Required before injecting words **directly** into the region's NI
    /// links between `run` calls: such input bypasses the activity
    /// scheduler, which otherwise only wakes regions for boundary traffic
    /// and their own reported horizons. Redundant (and free) for awake
    /// regions. There is nothing to catch up or replay: every span ends
    /// with every region at the runner's cycle and every ring consumed (a
    /// cut word is absorbed in the cycle it is emitted).
    pub fn wake<R: ShardRegion>(&mut self, regions: &mut [R], r: usize) {
        debug_assert_eq!(regions[r].now(), self.cycle, "regions rest caught up");
        self.sched[r].awake = true;
    }

    /// Runs `cycles` global cycles on the calling thread:
    /// [`Engine::run_ff`] over the runner and its regions as one
    /// [`Clocked`] fabric (the `Ensemble` below), so the all-asleep skip
    /// toward the earliest horizon, the fast-forward offer and its
    /// cool-down are the engine's own, not a copy.
    ///
    /// # Panics
    ///
    /// Panics if `regions` does not match the runner's region count.
    pub fn run<R: ShardRegion>(&mut self, regions: &mut [R], cycles: u64) {
        assert_eq!(regions.len(), self.sched.len(), "region count mismatch");
        let end = self.cycle + cycles;
        let mut ensemble = Ensemble {
            epoch_end: self.cycle,
            end,
            runner: self,
            regions,
        };
        Engine::run_ff(&mut ensemble, cycles);
        // Catch every sleeper up to the end of the span (never past its
        // horizon: a sleeper's horizon is ≥ end, else it would have woken).
        for region in regions.iter_mut() {
            RegionSched::catch_up(region, end);
        }
    }

    /// Runs `cycles` global cycles with one worker thread per region.
    /// Bit-identical to [`Self::run`].
    ///
    /// Cross-shard traffic flows through the arena's [`WireRing`]s, one
    /// per wire, each carrying the producer's published-cycle watermark: a
    /// worker absorbs cycle `t` as soon as every inbound wire's producer
    /// has published past `t` — a per-wire acquire load, spin-then-yield
    /// only when the consumer actually outruns a producer. There is **no
    /// epoch barrier**: workers pipeline freely into the next epoch while
    /// peers still drain the last one, bounded only by the wire-adjacency
    /// skew the watermarks themselves enforce (see the module docs).
    ///
    /// The worker protocol never offers [`Clocked::fast_forward`]: its
    /// sole-awake precondition is a global property the decoupled workers
    /// cannot observe cheaply. A workload periodic enough to fast-forward
    /// is single-region-active by definition — run it through
    /// [`ShardRunner::run`], where the offer is made.
    ///
    /// # Panics
    ///
    /// Panics if `regions` does not match the runner's region count.
    pub fn run_parallel<R: ShardRegion>(&mut self, regions: &mut [R], cycles: u64) {
        assert_eq!(regions.len(), self.sched.len(), "region count mismatch");
        let n = regions.len();
        if n <= 1 || cycles == 0 {
            return self.run(regions, cycles);
        }
        let start = self.cycle;
        let end = start + cycles;
        // Watermarks are meaningless between spans (the sequential runner
        // never advances them); slots carry over untouched — in-flight
        // traffic stays in-flight across the mode switch.
        self.arena.rebase(start);
        let batch = self.batch;
        self.sched = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (r, region) in regions.iter_mut().enumerate() {
                let slice = ExchangeSlice {
                    rings: &self.arena.rings,
                    out_list: &self.out_w[r],
                    in_list: &self.in_w[r],
                };
                let sched = self.sched[r];
                handles.push(
                    scope.spawn(move || run_worker(region, &slice, start, end, batch, sched)),
                );
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        self.cycle = end;
    }
}

/// A [`ShardRunner`] and its regions as one [`Clocked`] fabric, for one
/// span of [`ShardRunner::run`]. Every global cycle has the two engine
/// phases, with a wake scan between them:
///
/// 1. **emit**: sleepers whose own horizon has arrived wake, then every
///    awake region emits (a sleeping region is quiescent by definition,
///    and a quiescent emit is a no-op — so skipping it is exact) —
///    cut-wire words and credits land in the arena rings here;
/// 2. **wake scan**: a sleeping region with a slot due this cycle on one
///    of its inbound rings is woken ([`RegionSched::input`]) — the runner
///    reads ring stamps, it never moves a word;
/// 3. **absorb** on every awake region, each consuming its due slots;
///    then, at an epoch boundary, every awake region settles.
///
/// The fabric is dormant while nobody is awake, until the earliest sleeper
/// horizon, and skipping it only advances the global cycle — sleepers are
/// caught up when they wake.
struct Ensemble<'a, R> {
    runner: &'a mut ShardRunner,
    regions: &'a mut [R],
    /// End of the span — an epoch boundary whatever the batch size.
    end: u64,
    /// End of the current scheduling epoch.
    epoch_end: u64,
}

impl<R: ShardRegion> Clocked for Ensemble<'_, R> {
    fn now(&self) -> u64 {
        self.runner.cycle
    }

    fn emit(&mut self) {
        let run = &mut *self.runner;
        let t = run.cycle;
        if t >= self.epoch_end {
            self.epoch_end = self.end.min(t + run.batch);
        }
        for (s, region) in run.sched.iter_mut().zip(self.regions.iter_mut()) {
            if s.begin(region, t) {
                region.emit();
            }
        }
        for (i, w) in run.wires.iter().enumerate() {
            let ds = w.dst_shard;
            if !run.sched[ds].awake && run.arena.ring(i).has_due(t) {
                run.sched[ds].input(&mut self.regions[ds], t);
            }
        }
    }

    fn absorb(&mut self) {
        let run = &mut *self.runner;
        for (s, region) in run.sched.iter().zip(self.regions.iter_mut()) {
            if s.awake {
                region.absorb();
            }
        }
        run.cycle += 1;
        if run.cycle >= self.epoch_end {
            for (s, region) in run.sched.iter_mut().zip(self.regions.iter_mut()) {
                s.settle(region);
            }
        }
    }

    /// Active while anybody is awake, else dormant until the earliest
    /// wake horizon.
    fn dormant_until(&self, now: u64) -> u64 {
        let mut horizon = u64::MAX;
        for s in &self.runner.sched {
            if s.awake {
                return now;
            }
            horizon = horizon.min(s.wake_at);
        }
        horizon.max(now)
    }

    fn skip(&mut self, cycles: u64) {
        self.runner.cycle += cycles;
    }

    /// With exactly one region in the activity set, nothing can reach it
    /// before the earliest sleeper horizon (sleepers are quiescent — their
    /// first possible action is their own wake) — so that whole gap is
    /// offered to the region. A partial advance (probe ticks without a
    /// certified jump) still moves global time.
    fn fast_forward(&mut self, max: u64) -> FfOutcome {
        let run = &mut *self.runner;
        // A sleeper due now counts as awake: it is about to act.
        for (s, region) in run.sched.iter_mut().zip(self.regions.iter_mut()) {
            s.begin(region, run.cycle);
        }
        let mut awake = (0..run.sched.len()).filter(|&r| run.sched[r].awake);
        let (Some(r), None) = (awake.next(), awake.next()) else {
            return FfOutcome::DECLINED;
        };
        let sleepers = run.sched.iter().filter(|s| !s.awake);
        let horizon = sleepers.map(|s| s.wake_at).min().unwrap_or(u64::MAX);
        let out = self.regions[r].fast_forward(max.min(horizon - run.cycle));
        run.cycle += out.advanced;
        out
    }
}

impl ShardRunner {
    /// The state walk over the runner's dynamic state: the global
    /// cycle, the batch size, then every arena ring, each empty (see
    /// [`WireRing::persist_slots`]).
    ///
    /// Each ring's published watermark is **re-derived** from the restored
    /// cycle rather than carried in the snapshot, because it is a function
    /// of global time, not of history: a stale watermark would let a
    /// parallel consumer absorb cycles the restored producer has not
    /// re-emitted.
    ///
    /// The scheduler bookkeeping — activity-set membership and wake
    /// horizons — is **reset**, not carried: sleep decisions happen at
    /// epoch boundaries, so two bit-identical executions interrupted at
    /// different points legitimately disagree on both (pinned by the
    /// batched parity tests). Every region is caught up to the global
    /// cycle between runs, so waking everyone is exact — quiescent regions
    /// re-sleep at the next epoch boundary. The same class as a FIFO's
    /// visibility cache.
    pub fn walk<V: crate::persist::StateVisit + ?Sized>(&mut self, p: &mut V) {
        p.counter(&mut self.cycle);
        p.item(&mut self.batch);
        for r in &self.arena.rings {
            r.0.persist_slots(p);
        }
        self.sched.fill(RegionSched::AWAKE);
        self.arena.rebase(self.cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::PacketHeader;
    use crate::path::Path;
    use crate::rng::Rng64;
    use crate::word::{LinkWord, WordClass, SLOT_WORDS};

    // ---- Partition ----------------------------------------------------

    #[test]
    fn partition_requires_dense_shards() {
        assert!(Partition::new(vec![0, 2]).is_err());
        assert!(Partition::new(Vec::new()).is_err());
        let p = Partition::new(vec![1, 0, 1]).unwrap();
        assert_eq!(p.shards(), 2);
    }

    #[test]
    fn mesh_rows_cut_only_vertical_links() {
        let topo = Topology::mesh(4, 4, 1);
        let p = Partition::mesh_rows(4, 4, 2);
        assert_eq!(p.shards(), 2);
        for c in p.cut_edges(&topo) {
            let e = topo.edges()[c.edge];
            // A vertical mesh edge connects routers one row apart.
            assert_eq!(e.b - e.a, 4, "cut must be a north/south link");
        }
        assert_eq!(p.cut_edges(&topo).len(), 4, "one cut per column");
    }

    #[test]
    fn partition_validates_length() {
        let topo = Topology::mesh(2, 2, 1);
        let p = Partition::new(vec![0, 1]).unwrap();
        assert!(matches!(
            p.validate(&topo),
            Err(PartitionError::WrongLength { got: 2, want: 4 })
        ));
    }

    #[test]
    fn pieces_preserve_ports_and_order() {
        let topo = Topology::mesh(2, 2, 2);
        let p = Partition::mesh_rows(2, 2, 2);
        let pieces = p.pieces(&topo);
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0].routers, vec![0, 1]);
        assert_eq!(pieces[1].routers, vec![2, 3]);
        assert_eq!(pieces[0].nis, vec![0, 1, 2, 3]);
        assert_eq!(pieces[1].nis, vec![4, 5, 6, 7]);
        // Port counts survive the cut (headers address ports by index).
        for piece in &pieces {
            for (lr, &gr) in piece.routers.iter().enumerate() {
                assert_eq!(piece.topology.ports_of(lr), topo.ports_of(gr));
            }
        }
    }

    // ---- Noc-level split parity --------------------------------------

    fn be_packet(path: Path, qid: u8, payload: &[u32]) -> Vec<LinkWord> {
        let h = PacketHeader {
            path,
            qid,
            credits: 0,
            flush: false,
        };
        let mut words = vec![LinkWord::header(h.pack(), WordClass::BestEffort)];
        for (i, &w) in payload.iter().enumerate() {
            words.push(LinkWord::payload(
                w,
                WordClass::BestEffort,
                i + 1 == payload.len(),
            ));
        }
        words
    }

    fn gt_packet(path: Path, qid: u8, payload: &[u32]) -> Vec<LinkWord> {
        let h = PacketHeader {
            path,
            qid,
            credits: 0,
            flush: false,
        };
        let mut words = vec![LinkWord::header(h.pack(), WordClass::Guaranteed)];
        for (i, &w) in payload.iter().enumerate() {
            words.push(LinkWord::payload(
                w,
                WordClass::Guaranteed,
                i + 1 == payload.len(),
            ));
        }
        words
    }

    /// A split 2x2 mesh: shard 0 owns the top row, shard 1 the bottom.
    fn split_2x2() -> (Topology, Noc, Vec<NocShard>, ShardRunner) {
        let topo = Topology::mesh(2, 2, 1);
        let single = Noc::new(&topo);
        let partition = Partition::mesh_rows(2, 2, 2);
        let mut shards = single.clone().split(&topo, &partition);
        let wires = wires_of(&shards);
        let runner = ShardRunner::new(&mut shards, wires, 0);
        (topo, single, shards, runner)
    }

    fn merged(shards: &[NocShard]) -> NocStats {
        merge_noc_stats(
            shards
                .iter()
                .map(|s| (&s.noc, &s.link_map[..], &s.boundary_links[..])),
        )
    }

    /// Global NI id → (shard, local NI id).
    fn locate(shards: &[NocShard], ni: NiId) -> (usize, usize) {
        for (s, sh) in shards.iter().enumerate() {
            if let Some(l) = sh.nis.iter().position(|&g| g == ni) {
                return (s, l);
            }
        }
        panic!("NI {ni} not found");
    }

    #[test]
    fn split_covers_every_link_exactly_once() {
        let (topo, single, shards, _) = split_2x2();
        let total = single.links().len();
        let mut seen = vec![0usize; total];
        for sh in &shards {
            for &g in sh.link_map.iter().chain(&sh.boundary_links) {
                seen[g] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
        assert_eq!(topo.edges().len() * 2 + topo.ni_count() * 2, total);
    }

    /// Drives the same word schedule into the unsplit network and the
    /// sharded pair, comparing deliveries and merged statistics each cycle.
    fn assert_parity(schedule: &[(u64, NiId, LinkWord)], horizon: u64, drain: NiId) {
        let (_, mut single, mut shards, mut runner) = split_2x2();
        let (ds, dl) = locate(&shards, drain);
        let mut got_single = Vec::new();
        let mut got_sharded = Vec::new();
        for t in 0..horizon {
            for &(at, ni, w) in schedule {
                if at == t {
                    single.ni_link_mut(ni).send(w);
                    let (s, l) = locate(&shards, ni);
                    // Direct NI-link injection bypasses the activity
                    // scheduler: announce it.
                    runner.wake(&mut shards, s);
                    shards[s].noc.ni_link_mut(l).send(w);
                }
            }
            single.tick();
            runner.run(&mut shards, 1);
            while let Some(w) = single.ni_link_mut(drain).recv() {
                got_single.push((t, w));
            }
            while let Some(w) = shards[ds].noc.ni_link_mut(dl).recv() {
                got_sharded.push((t, w));
            }
        }
        assert_eq!(got_single, got_sharded, "delivery trace differs");
        assert_eq!(*single.stats(), merged(&shards), "statistics differ");
    }

    #[test]
    fn be_worm_across_the_cut_is_bit_identical() {
        let topo = Topology::mesh(2, 2, 1);
        let path = topo.route(0, 3).unwrap(); // E, S, eject: crosses the cut
        let words = be_packet(path, 5, &[10, 20, 30, 40]);
        let schedule: Vec<_> = words
            .iter()
            .enumerate()
            .map(|(i, &w)| (i as u64, 0, w))
            .collect();
        assert_parity(&schedule, 40, 3);
    }

    #[test]
    fn gt_slot_alignment_survives_the_cut() {
        let topo = Topology::mesh(2, 2, 1);
        let path = topo.route(0, 3).unwrap();
        let words = gt_packet(path, 1, &[100, 200]);
        let schedule: Vec<_> = words
            .iter()
            .enumerate()
            .map(|(i, &w)| (i as u64, 0, w))
            .collect();
        assert_parity(&schedule, 11 + SLOT_WORDS * 3, 3);
    }

    #[test]
    fn contending_worms_and_boundary_credits_are_bit_identical() {
        // Two senders saturate NI 3 from both sides of the cut: router
        // arbitration, wormhole blocking and the boundary credit return all
        // engage.
        let topo = Topology::mesh(2, 2, 1);
        let p03 = topo.route(0, 3).unwrap();
        let p23 = topo.route(2, 3).unwrap();
        let mut schedule = Vec::new();
        for round in 0..6u64 {
            for (i, &w) in be_packet(p03.clone(), 0, &[1, 2, 3, 4, 5])
                .iter()
                .enumerate()
            {
                schedule.push((round * 6 + i as u64, 0, w));
            }
            for (i, &w) in be_packet(p23.clone(), 1, &[6, 7, 8]).iter().enumerate() {
                schedule.push((round * 6 + i as u64, 2, w));
            }
        }
        assert_parity(&schedule, 140, 3);
    }

    #[test]
    fn randomized_traffic_parity() {
        // Seeded random single-word packets from every NI to every other,
        // random cycles: the strongest Noc-level bit-identity check.
        let topo = Topology::mesh(2, 2, 1);
        let mut rng = Rng64::seed_from_u64(0xA37E);
        let mut schedule = Vec::new();
        let mut busy_until = [0u64; 4];
        for _ in 0..60 {
            let src = rng.below(4) as usize;
            let dst = ((src as u64 + 1 + rng.below(3)) % 4) as usize;
            let at = busy_until[src] + rng.below(4);
            let path = topo.route(src, dst).unwrap();
            let words = be_packet(path, dst as u8, &[rng.below(1 << 20) as u32]);
            for (i, &w) in words.iter().enumerate() {
                schedule.push((at + i as u64, src, w));
            }
            busy_until[src] = at + words.len() as u64;
        }
        // Only NI 3 is drained; the others keep their inboxes — still part
        // of the compared state via delivered counts and link tallies.
        assert_parity(&schedule, 400, 3);
    }

    #[test]
    fn parallel_runner_matches_sequential() {
        let topo = Topology::mesh(2, 2, 1);
        let single = Noc::new(&topo);
        let partition = Partition::mesh_rows(2, 2, 2);
        let mut seq = single.clone().split(&topo, &partition);
        let mut par = single.split(&topo, &partition);
        let path = topo.route(0, 3).unwrap();
        let words = be_packet(path, 2, &[7, 8, 9]);
        for (shards, parallel) in [(&mut seq, false), (&mut par, true)] {
            let wires = wires_of(shards);
            let mut runner = ShardRunner::new(shards, wires, 0);
            for &w in &words {
                let (s, l) = locate(shards, 0);
                runner.wake(shards, s);
                shards[s].noc.ni_link_mut(l).send(w);
                if parallel {
                    runner.run_parallel(shards, 1);
                } else {
                    runner.run(shards, 1);
                }
            }
            if parallel {
                runner.run_parallel(shards, 60);
            } else {
                runner.run(shards, 60);
            }
        }
        assert_eq!(merged(&seq), merged(&par));
        let (s, l) = locate(&seq, 3);
        let mut a = Vec::new();
        while let Some(w) = seq[s].noc.ni_link_mut(l).recv() {
            a.push(w);
        }
        let mut b = Vec::new();
        while let Some(w) = par[s].noc.ni_link_mut(l).recv() {
            b.push(w);
        }
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn wake_replays_in_flight_cut_words_at_exact_cycles() {
        // A cut-crossing GT worm driven in two spans — sequential, then
        // worker threads — with the producer injecting mid-worm across the
        // span boundary, and the consumer shard (asleep since the first
        // epoch) woken between the spans for a direct injection of its own
        // while the worm's head still waits for its slot on the far side
        // of the cut. `wake` only marks the region awake: between spans
        // every region stands at the runner's cycle and every ring is
        // silent (a cut word is absorbed in the cycle it is emitted), so
        // there is never anything to replay — checked here.
        let (topo, mut single, mut shards, mut runner) = split_2x2();
        let worm = gt_packet(topo.route(0, 2).unwrap(), 2, &[11, 22]); // S: crosses the cut
        let back = PacketHeader {
            path: topo.route(3, 1).unwrap(), // N: crosses it the other way
            qid: 1,
            credits: 0,
            flush: false,
        };
        let back = LinkWord::header_only(back.pack(), WordClass::BestEffort);
        let (ps, pl) = locate(&shards, 0);
        let (cs, cl) = locate(&shards, 3);
        assert_eq!((ps, cs), (0, 1), "producer above the cut, consumer below");
        // Span 1, sequential: the worm's first two words, one per cycle.
        for &w in &worm[..2] {
            single.ni_link_mut(0).send(w);
            runner.wake(&mut shards, ps);
            shards[ps].noc.ni_link_mut(pl).send(w);
            single.tick();
            runner.run(&mut shards, 1);
        }
        assert!(runner.awake_count() < 2, "the idle consumer fell asleep");
        assert!(!shards[ps].noc.drained(), "the worm is still on its way");
        for s in &shards {
            assert_eq!(s.now(), runner.cycle(), "regions rest caught up");
            assert!(s.noc.boundaries_silent(), "rings rest silent");
        }
        // Between the spans: the worm's tail, and the consumer's own word.
        single.ni_link_mut(0).send(worm[2]);
        runner.wake(&mut shards, ps);
        shards[ps].noc.ni_link_mut(pl).send(worm[2]);
        single.ni_link_mut(3).send(back);
        runner.wake(&mut shards, cs);
        shards[cs].noc.ni_link_mut(cl).send(back);
        // Span 2, worker threads.
        single.run(60);
        runner.run_parallel(&mut shards, 60);
        for (ni, words) in [(2, worm.len()), (1, 1)] {
            let (ds, dl) = locate(&shards, ni);
            let a: Vec<_> = std::iter::from_fn(|| single.ni_link_mut(ni).recv()).collect();
            let b: Vec<_> = std::iter::from_fn(|| shards[ds].noc.ni_link_mut(dl).recv()).collect();
            assert_eq!(a, b, "delivery at NI {ni} differs");
            assert_eq!(a.len(), words, "everything sent to NI {ni} arrived");
        }
        assert_eq!(*single.stats(), merged(&shards), "statistics differ");
    }

    #[test]
    fn boundary_words_wake_the_idle_routers_they_enter() {
        // 4x2 mesh cut between its rows. Cut-crossing worms (BE and GT)
        // enter the bottom band's routers 4 and 5 in three situations: the
        // band busy elsewhere (a local worm 6 → 7 keeps it ticking, so its
        // activity set is exact and excludes the entered routers), the
        // band long asleep, and the band freshly idle. Arrival cycles and
        // merged statistics must equal the unsplit network's throughout.
        let topo = Topology::mesh(4, 2, 1);
        let mut single = Noc::new(&topo);
        let partition = Partition::mesh_rows(4, 2, 2);
        let mut shards = single.clone().split(&topo, &partition);
        let wires = wires_of(&shards);
        let mut runner = ShardRunner::new(&mut shards, wires, 0);
        let route = |a, b| topo.route(a, b).unwrap();
        let mut schedule: Vec<(u64, NiId, LinkWord)> = Vec::new();
        let mut send = |at: u64, ni: NiId, words: Vec<LinkWord>| {
            for (i, w) in words.into_iter().enumerate() {
                schedule.push((at + i as u64, ni, w));
            }
        };
        for round in 0..12 {
            // Keeps the bottom band awake over [3000, 3120).
            send(3_000 + 10 * round, 6, be_packet(route(6, 7), 1, &[1, 2, 3]));
        }
        send(3_050, 0, be_packet(route(0, 4), 2, &[10, 11]));
        send(3_051, 1, gt_packet(route(1, 5), 3, &[20]));
        // Both bands asleep for thousands of cycles by now.
        send(7_000, 0, gt_packet(route(0, 4), 2, &[30, 31]));
        send(7_004, 1, be_packet(route(1, 5), 3, &[40]));
        // And again shortly after the bottom band drained.
        send(7_040, 0, be_packet(route(0, 4), 2, &[50]));
        let drains = [4, 5, 7];
        let (mut got_single, mut got_sharded) = (Vec::new(), Vec::new());
        for t in 0..7_200 {
            for &(at, ni, w) in &schedule {
                if at == t {
                    single.ni_link_mut(ni).send(w);
                    let (s, l) = locate(&shards, ni);
                    runner.wake(&mut shards, s);
                    shards[s].noc.ni_link_mut(l).send(w);
                }
            }
            single.tick();
            runner.run(&mut shards, 1);
            for ni in drains {
                while let Some(w) = single.ni_link_mut(ni).recv() {
                    got_single.push((t, ni, w));
                }
                let (s, l) = locate(&shards, ni);
                while let Some(w) = shards[s].noc.ni_link_mut(l).recv() {
                    got_sharded.push((t, ni, w));
                }
            }
            if t == 6_999 {
                assert_eq!(runner.awake_count(), 0, "both bands asleep");
            }
        }
        assert_eq!(got_single, got_sharded, "delivery trace differs");
        assert_eq!(got_single.len(), 12 * 4 + 3 + 2 + 3 + 2 + 2);
        assert_eq!(*single.stats(), merged(&shards), "statistics differ");
        assert_eq!(single.gt_conflicts() + single.be_overflows(), 0);
    }

    // ---- Arena wire rings --------------------------------------------

    #[test]
    fn ring_delivers_at_exact_due_cycles() {
        let ring: WireRing = WireRing::new(0);
        let w = LinkWord::header_only(7, WordClass::BestEffort);
        ring.send_word(2, w);
        ring.send_credits(3, 2);
        assert!(!ring.is_silent());
        assert_eq!(ring.next_due(0), Some(2));
        // Early cycles: nothing, and the slots stay occupied.
        assert_eq!(ring.take_due(0), None);
        assert_eq!(ring.take_due(1), None);
        assert!(ring.has_due(2));
        assert!(!ring.has_due(1));
        assert_eq!(ring.take_due(2), Some((Some(w), 0)));
        assert_eq!(ring.take_due(3), Some((None, 2)));
        assert!(ring.is_silent());
        assert_eq!(ring.take_due(4), None);
    }

    #[test]
    fn ring_accumulates_credits_in_place() {
        let ring: WireRing = WireRing::new(0);
        ring.send_credits(2, 1);
        ring.send_credits(2, 1);
        ring.send_credits(2, 3);
        let w = LinkWord::header_only(9, WordClass::Guaranteed);
        ring.send_word(2, w);
        assert_eq!(ring.take_due(2), Some((Some(w), 5)));
        assert!(ring.is_silent());
    }

    #[test]
    #[should_panic(expected = "missed")]
    fn ring_panics_on_missed_due_cycle() {
        let ring: WireRing = WireRing::new(0);
        ring.send_word(3, LinkWord::header_only(7, WordClass::BestEffort));
        let _ = ring.take_due(7); // cycle 3 was skipped (same slot, later t)
    }

    #[test]
    #[should_panic(expected = "overrun")]
    fn ring_panics_on_slot_overrun() {
        let ring: WireRing = WireRing::new(0);
        ring.send_credits(1, 1);
        // RING_SLOTS cycles later the slot recurs while still unconsumed —
        // only reachable if the watermark discipline were broken.
        ring.send_credits(1 + RING_SLOTS as u64, 1);
    }

    #[test]
    fn ring_next_due_scans_all_slots() {
        let ring: WireRing = WireRing::new(0);
        assert_eq!(ring.next_due(0), None);
        ring.send_credits(5, 1);
        ring.send_credits(6, 1);
        assert_eq!(ring.next_due(0), Some(5));
        assert_eq!(ring.next_due(6), Some(6));
        assert_eq!(ring.next_due(7), None);
    }

    #[test]
    fn ring_watermark_publish_and_rebase() {
        let ring: WireRing = WireRing::new(10);
        ring.publish(10);
        ring.publish(11);
        ring.wait_published(11); // returns: 11 is final
        ring.rebase(20);
        ring.publish(20);
        ring.wait_published(20);
    }

    #[test]
    fn ring_persist_slots_round_trips_and_saving_is_a_noop() {
        use crate::persist::{StateLoader, StateSaver};
        // Between spans a ring is empty: its stream is one zero length.
        let ring: WireRing = WireRing::new(0);
        let mut saver = StateSaver::new();
        ring.persist_slots(&mut saver);
        let items = saver.finish().unwrap();
        assert_eq!(items, [0]);
        assert!(ring.is_silent());
        let fresh: WireRing = WireRing::new(0);
        let mut loader = StateLoader::new(items);
        fresh.persist_slots(&mut loader);
        loader.finish().unwrap();
        assert!(fresh.is_silent());
    }

    #[test]
    fn ring_persist_rejects_oversized_and_aliasing_snapshots() {
        use crate::persist::StateLoader;
        // More slots than the ring holds.
        let mut items = vec![0u64; 1 + 3 * (RING_SLOTS + 1)];
        items[0] = (RING_SLOTS + 1) as u64;
        let ring: WireRing = WireRing::new(0);
        let mut loader = StateLoader::new(items);
        ring.persist_slots(&mut loader);
        assert!(loader.finish().is_err());
        // Two entries sharing a home index.
        let items = vec![2, 1, 0, 0, 1 + RING_SLOTS as u64, 0, 0];
        let ring: WireRing = WireRing::new(0);
        let mut loader = StateLoader::new(items);
        ring.persist_slots(&mut loader);
        assert!(loader.finish().is_err());
    }

    #[test]
    fn ring_never_surfaces_before_due_randomized() {
        // Property: a consumer sweeping every cycle right behind the
        // producer receives each entry at exactly its stamp.
        let mut rng = Rng64::seed_from_u64(0xD0E);
        for _ in 0..50 {
            let ring: WireRing = WireRing::new(0);
            let mut expected = Vec::new();
            let mut got = Vec::new();
            for t in 0..100u64 {
                if rng.below(3) == 0 {
                    let credits = 1 + rng.below(4) as u32;
                    ring.send_credits(t, credits);
                    expected.push((t, credits));
                }
                if let Some((word, credits)) = ring.take_due(t) {
                    assert!(word.is_none());
                    got.push((t, credits));
                }
            }
            assert_eq!(got, expected, "each entry surfaced at its stamp");
            assert!(ring.is_silent());
        }
    }

    // ---- Batched execution parity ------------------------------------

    /// The randomized BE schedule of `randomized_traffic_parity`.
    fn random_schedule(seed: u64) -> Vec<(u64, NiId, LinkWord)> {
        let topo = Topology::mesh(2, 2, 1);
        let mut rng = Rng64::seed_from_u64(seed);
        let mut schedule = Vec::new();
        let mut busy_until = [0u64; 4];
        for _ in 0..60 {
            let src = rng.below(4) as usize;
            let dst = ((src as u64 + 1 + rng.below(3)) % 4) as usize;
            let at = busy_until[src] + rng.below(4);
            let path = topo.route(src, dst).unwrap();
            let words = be_packet(path, dst as u8, &[rng.below(1 << 20) as u32]);
            for (i, &w) in words.iter().enumerate() {
                schedule.push((at + i as u64, src, w));
            }
            busy_until[src] = at + words.len() as u64;
        }
        schedule
    }

    /// Drives `schedule` into `fabric` in *chunks* — one run call up to the
    /// next send cycle, so epochs longer than one cycle actually engage —
    /// and returns the drain trace, stamped with the cycle each chunk
    /// ended at. `advance` runs that many cycles and reports the cycle
    /// reached.
    fn chunked_trace<F>(
        fabric: &mut F,
        schedule: &[(u64, NiId, LinkWord)],
        horizon: u64,
        send: impl Fn(&mut F, NiId, LinkWord),
        advance: impl Fn(&mut F, u64) -> u64,
        recv: impl Fn(&mut F) -> Option<LinkWord>,
    ) -> Vec<(u64, LinkWord)> {
        let mut send_cycles: Vec<u64> = schedule.iter().map(|&(at, _, _)| at).collect();
        send_cycles.sort_unstable();
        send_cycles.dedup();
        let mut trace = Vec::new();
        let mut t = 0;
        while t < horizon {
            // Jump in one chunk to the next send cycle (or the horizon).
            let next = send_cycles
                .iter()
                .copied()
                .find(|&c| c >= t)
                .unwrap_or(horizon)
                .min(horizon);
            let cycles = if next > t {
                next - t
            } else {
                for &(at, ni, w) in schedule {
                    if at == t {
                        send(fabric, ni, w);
                    }
                }
                1
            };
            t = advance(fabric, cycles);
            while let Some(w) = recv(fabric) {
                trace.push((t, w));
            }
        }
        trace
    }

    /// Runs the schedule on a split 2x2 with the given batch size and
    /// execution mode and returns the full drain trace of `drain` plus the
    /// merged statistics.
    fn batched_observation(
        schedule: &[(u64, NiId, LinkWord)],
        horizon: u64,
        drain: NiId,
        batch: u64,
        parallel: bool,
    ) -> (Vec<(u64, LinkWord)>, NocStats) {
        let (_, _, shards, runner) = split_2x2();
        let (ds, dl) = locate(&shards, drain);
        let mut split = (shards, runner);
        split.1.set_batch(batch);
        let trace = chunked_trace(
            &mut split,
            schedule,
            horizon,
            |(shards, runner), ni, w| {
                let (s, l) = locate(shards, ni);
                runner.wake(shards, s);
                shards[s].noc.ni_link_mut(l).send(w);
            },
            |(shards, runner), cycles| {
                if parallel {
                    runner.run_parallel(shards, cycles);
                } else {
                    runner.run(shards, cycles);
                }
                runner.cycle()
            },
            |(shards, _)| shards[ds].noc.ni_link_mut(dl).recv(),
        );
        (trace, merged(&split.0))
    }

    /// The same observation of the unsplit network, ticked one cycle at a
    /// time by [`Engine::tick`]: no shards, no rings, no epochs, no skip.
    fn monolithic_observation(
        schedule: &[(u64, NiId, LinkWord)],
        horizon: u64,
        drain: NiId,
    ) -> (Vec<(u64, LinkWord)>, NocStats) {
        let mut noc = Noc::new(&Topology::mesh(2, 2, 1));
        let trace = chunked_trace(
            &mut noc,
            schedule,
            horizon,
            |noc, ni, w| noc.ni_link_mut(ni).send(w),
            |noc, cycles| {
                for _ in 0..cycles {
                    Engine::tick(noc);
                }
                noc.cycle()
            },
            |noc| noc.ni_link_mut(drain).recv(),
        );
        (trace, noc.stats().clone())
    }

    #[test]
    fn batched_runs_are_bit_identical_for_all_batch_sizes() {
        // Randomized traffic; every batch size and both execution modes
        // must produce the drain trace and (merged) statistics of the
        // unsplit network ticked cycle by cycle — the reference is simpler
        // than anything it checks.
        for seed in [0xA37Eu64, 0xBEEF, 0x5EED5] {
            let schedule = random_schedule(seed);
            let reference = monolithic_observation(&schedule, 400, 3);
            for batch in [1u64, 2, 3, 7, 16] {
                let seq = batched_observation(&schedule, 400, 3, batch, false);
                assert_eq!(seq, reference, "sequential batch {batch} diverged");
            }
            for batch in [1u64, 7, 16] {
                let par = batched_observation(&schedule, 400, 3, batch, true);
                assert_eq!(par, reference, "parallel batch {batch} diverged");
            }
        }
    }

    // ---- GT-calendar sleep -------------------------------------------

    #[test]
    fn calendar_only_regions_sleep_to_the_due_cycle() {
        // A GT worm crosses the cut; after the words leave the NI links,
        // the only pending state is router calendars — the regions must
        // report quiescence with the next due cycle as horizon instead of
        // ticking through the wait.
        let topo = Topology::mesh(2, 2, 1);
        let mut noc = Noc::new(&topo);
        assert!(noc.drained());
        let path = topo.route(0, 3).unwrap();
        let h = PacketHeader {
            path,
            qid: 1,
            credits: 0,
            flush: false,
        };
        noc.ni_link_mut(0)
            .send(LinkWord::header_only(h.pack(), WordClass::Guaranteed));
        noc.tick();
        // The header sits in router 0's calendar, due one slot after its
        // cycle-0 absorb.
        assert!(!noc.drained(), "calendar entry pending");
        assert!(Clocked::quiescent(&noc), "calendar-only state is dormant");
        let due = noc.next_event(noc.now());
        assert_eq!(due, SLOT_WORDS, "due one slot after absorb");
        // The engine sleeps to the due cycle and the word still arrives on
        // schedule, bit-identical to per-cycle ticking.
        let mut by_tick = noc.clone();
        noc.run(40);
        for _ in 0..40 {
            by_tick.tick();
        }
        assert_eq!(noc.stats(), by_tick.stats());
        let a: Vec<_> = std::iter::from_fn(|| noc.ni_link_mut(3).recv()).collect();
        let b: Vec<_> = std::iter::from_fn(|| by_tick.ni_link_mut(3).recv()).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert!(noc.drained(), "worm fully delivered");
    }

    #[test]
    fn shard_regions_sleep_on_calendar_horizons() {
        let (_, _, mut shards, mut runner) = split_2x2();
        let topo = Topology::mesh(2, 2, 1);
        let path = topo.route(0, 3).unwrap();
        let h = PacketHeader {
            path,
            qid: 1,
            credits: 0,
            flush: false,
        };
        let (s, l) = locate(&shards, 0);
        runner.wake(&mut shards, s);
        shards[s]
            .noc
            .ni_link_mut(l)
            .send(LinkWord::header_only(h.pack(), WordClass::Guaranteed));
        runner.run(&mut shards, 2);
        // The word is in shard 0's router calendar; with batch 1 the shard
        // falls asleep until the due cycle instead of staying awake.
        assert!(
            runner.awake_count() < 2,
            "calendar-only region left the activity set"
        );
        runner.run(&mut shards, 40);
        let (ds, dl) = locate(&shards, 3);
        let got: Vec<_> = std::iter::from_fn(|| shards[ds].noc.ni_link_mut(dl).recv()).collect();
        assert_eq!(got.len(), 1, "GT word crossed the cut on schedule");
        // With the destination inbox drained, the next epoch puts every
        // region to sleep.
        runner.run(&mut shards, 5);
        assert_eq!(runner.awake_count(), 0, "fully drained: all asleep");
    }

    #[test]
    fn idle_shards_leave_the_activity_set() {
        let (_, _, mut shards, mut runner) = split_2x2();
        runner.run(&mut shards, 10);
        assert_eq!(runner.awake_count(), 0, "an idle mesh fully sleeps");
        assert_eq!(runner.cycle(), 10);
        for s in &shards {
            assert_eq!(s.now(), 10, "sleepers are caught up at span end");
        }
    }

    #[test]
    fn single_shard_partition_degenerates_cleanly() {
        let topo = Topology::mesh(2, 2, 1);
        let single = Noc::new(&topo);
        let shards = single.clone().split(&topo, &Partition::single(4));
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].noc.boundary_count(), 0);
        assert!(wires_of(&shards).is_empty());
    }

    // ---- Activity-set property: never skip past the horizon ----------

    /// A scripted region: quiescent except at its event cycles, asserting
    /// on every skip that it is never advanced past its reported horizon.
    struct Probe {
        cycle: u64,
        events: Vec<u64>,
        ticked_at: Vec<u64>,
    }

    impl Probe {
        fn new(events: Vec<u64>) -> Self {
            Probe {
                cycle: 0,
                events,
                ticked_at: Vec::new(),
            }
        }
    }

    impl Clocked for Probe {
        fn now(&self) -> u64 {
            self.cycle
        }

        fn emit(&mut self) {}

        fn absorb(&mut self) {
            self.ticked_at.push(self.cycle);
            self.cycle += 1;
        }

        fn dormant_until(&self, now: u64) -> u64 {
            let events = self.events.iter().copied();
            events.filter(|&e| e >= now).min().unwrap_or(u64::MAX)
        }

        fn skip(&mut self, cycles: u64) {
            let target = self.cycle + cycles;
            let horizon = self.dormant_until(self.cycle);
            assert!(
                target <= horizon,
                "skipped from {} to {target}, past horizon {horizon}",
                self.cycle
            );
            self.cycle = target;
        }
    }

    impl ShardRegion for Probe {
        fn adopt_exchange(&mut self, exchange: ExchangeAttachment) {
            assert_eq!(exchange.boundaries(), 0, "a probe has no cut wires");
        }
    }

    #[test]
    fn regions_never_skip_past_their_next_event_horizon() {
        // Randomized event schedules across several regions and spans; the
        // Probe asserts the horizon property inside every skip call.
        let mut rng = Rng64::seed_from_u64(0x5EED);
        for _ in 0..50 {
            let n = 1 + rng.below(4) as usize;
            let mut probes: Vec<Probe> = (0..n)
                .map(|_| {
                    let events = (0..rng.below(6)).map(|_| rng.below(200)).collect();
                    Probe::new(events)
                })
                .collect();
            let span = 50 + rng.below(200);
            let mut runner = ShardRunner::new(&mut probes, Vec::new(), 0);
            runner.run(&mut probes, span);
            for p in &probes {
                assert_eq!(p.now(), span, "caught up at span end");
                // Every scripted event within the span was actually ticked,
                // not skipped over.
                for &e in &p.events {
                    if e < span {
                        assert!(
                            p.ticked_at.contains(&e),
                            "event at {e} was skipped (ticks: {:?})",
                            p.ticked_at
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn engine_run_on_a_region_still_works() {
        // The shard runner composes with the engine: a region is still a
        // Clocked fabric for Engine::run.
        let mut p = Probe::new(vec![5]);
        Engine::run(&mut p, 20);
        assert_eq!(p.now(), 20);
        assert!(p.ticked_at.contains(&5));
    }
}
