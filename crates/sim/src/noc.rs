//! The assembled network: routers wired per a [`Topology`], plus the NI
//! attachment handles through which the `aethereal-ni` crate injects and
//! ejects words.
//!
//! [`Noc::tick`] advances one 500 MHz network cycle in two phases:
//!
//! 1. **emit** — every router output and every NI staging register places at
//!    most one word on its outgoing wire, based on state from the previous
//!    cycle;
//! 2. **absorb** — every router input and NI inbox registers the word on its
//!    incoming wire; BE dequeues from phase 1 return link-level credits to
//!    the upstream producers.
//!
//! This two-phase discipline makes every cycle race-free regardless of
//! iteration order, which in turn makes the GT slot alignment arithmetic
//! (slot `s` on hop `h` ⇒ slot `s+h` on hop `h+1`) exact.

use crate::bitset::{pop_lowest, BitSet};
use crate::engine::{Clocked, Engine};
use crate::link::{LinkId, LinkState};
use crate::path::PortIdx;
use crate::ring::Ring;
use crate::router::{EmitResult, Router, DEFAULT_BE_QUEUE_WORDS};
use crate::shard::{NocShard, Partition};
use crate::stats::{LinkStats, NocStats};
use crate::topology::{Endpoint, NiId, RouterId, Topology};
use crate::word::{LinkWord, WordClass, SLOT_WORDS};

/// Capacity of every NI-side inbox, in words: a safety bound on how far an
/// NI may lag in draining, generous because NIs sink at line rate.
const NI_INBOX_WORDS: usize = 4096;

/// Construction parameters for a [`Noc`].
#[derive(Debug, Clone, Copy)]
pub struct NocConfig {
    /// BE input-queue depth per router port, in words. Must be ≥ 2 when
    /// any BE traffic rides multi-segment routes: a gateway rewrite needs
    /// the exhausted header *and* its continuation word queued together,
    /// and a 1-word queue can never admit the continuation (the header's
    /// credit only returns once the rewrite happens).
    pub be_queue_words: usize,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            be_queue_words: DEFAULT_BE_QUEUE_WORDS,
        }
    }
}

/// The NI side of an attachment link: one outgoing staging register (the NI
/// controls the exact cycle each word enters the network — GT slot alignment
/// depends on it) and an incoming inbox.
#[derive(Debug, Clone)]
pub struct NiLink {
    outgoing: Option<LinkWord>,
    incoming: Ring<LinkWord>,
    credits: u32,
}

impl NiLink {
    fn new(initial_credits: u32, inbox_cap: usize) -> Self {
        NiLink {
            outgoing: None,
            incoming: Ring::with_capacity(inbox_cap),
            credits: initial_credits,
        }
    }

    /// Stages `word` for injection this cycle.
    ///
    /// BE words consume one link-level credit (the router's input-queue
    /// space); check [`NiLink::be_credits`] first. GT words need no credits —
    /// routers never buffer them.
    ///
    /// # Panics
    ///
    /// Panics if a word is already staged this cycle (the link carries one
    /// word per cycle) or if a BE word is sent without credits.
    #[inline]
    pub fn send(&mut self, word: LinkWord) {
        assert!(
            self.outgoing.is_none(),
            "NI link already carries a word this cycle"
        );
        if word.class() == WordClass::BestEffort {
            assert!(self.credits > 0, "BE injection without link-level credit");
            self.credits -= 1;
        }
        self.outgoing = Some(word);
    }

    /// Whether a word is already staged this cycle.
    #[inline]
    pub fn is_busy(&self) -> bool {
        self.outgoing.is_some()
    }

    /// Link-level BE credits available toward the router input queue.
    #[inline]
    pub fn be_credits(&self) -> u32 {
        self.credits
    }

    /// Takes the next received word, if any.
    #[inline]
    pub fn recv(&mut self) -> Option<LinkWord> {
        self.incoming.pop_front()
    }

    /// Peeks at the next received word.
    #[inline]
    pub fn peek(&self) -> Option<&LinkWord> {
        self.incoming.front()
    }

    /// Number of received words waiting.
    #[inline]
    pub fn pending(&self) -> usize {
        self.incoming.len()
    }
}

/// The assembled network-on-chip.
#[derive(Debug, Clone)]
pub struct Noc {
    routers: Vec<Router>,
    links: Vec<LinkState>,
    /// The flat wiring table: entry `port_base[router] + port` says where
    /// that router port's output leads and whom a BE dequeue at its input
    /// credits. Structural: built with the network (boundaries are entered
    /// by [`Noc::open_boundary`]), never in the snapshot stream.
    wiring: Vec<PortWiring>,
    /// First [`Noc::wiring`] entry of each router. Structural.
    port_base: Vec<usize>,
    /// `ni_out_link[ni] = LinkId` of the NI → router link.
    ni_out_link: Vec<LinkId>,
    ni_links: Vec<NiLink>,
    /// Shard-boundary attachments: router ports whose physical peer lives
    /// in another shard's `Noc` (see [`crate::shard`]).
    boundaries: Vec<BoundaryPort>,
    /// The handle onto the shard runner's exchange arena (see
    /// [`Noc::attach_exchange`]): boundary emissions and credits go
    /// straight into the arena's cut-wire rings during emit, and absorb
    /// consumes due slots straight out of them. `None` only on a network
    /// without boundaries, or between [`Noc::split`] and the construction
    /// of the [`ShardRunner`](crate::shard::ShardRunner) that drives it.
    exchange: Option<crate::shard::ExchangeAttachment>,
    /// Construction parameters, kept so [`Noc::split`] can rebuild
    /// identically-configured shard networks.
    config: NocConfig,
    cycle: u64,
    stats: NocStats,
    /// Reusable per-tick scratch (cleared every cycle): keeps the
    /// steady-state tick free of allocations.
    scratch: TickScratch,
    /// Armed fault-injection machinery (see [`crate::fault`]): when
    /// present, the emit phase filters each router's emissions and BE
    /// credit returns through the active fault windows. `None` (the
    /// default) keeps the hot path untouched.
    fault: Option<crate::fault::FaultState>,
    /// Activity set: the routers that may hold work. A router joins when
    /// [`Clocked::absorb`] registers a word into it (wired link or cut-wire
    /// ring alike) and leaves once an emit finds it idle, so
    /// every router outside the set is [`Router::idle`] and the
    /// per-cycle walks visit only members, in ascending id order like the
    /// dense loops they replace. Derived state: never serialised, never
    /// part of a fast-forward digest, reset to "everyone" by
    /// [`Noc::wake_all`].
    active: BitSet,
    /// The links whose wire this cycle's emit drove; absorb drains exactly
    /// these, in ascending link order. Derived, like `active`.
    driven: BitSet,
    /// The NI links that may hold a staged word or an undrained inbox word.
    /// A link joins in [`Noc::ni_link_mut`] — the only way to reach
    /// [`NiLink::send`] — and where absorb delivers into its inbox; emit's
    /// staging scan visits members only and retires those it leaves empty.
    /// Every NI link outside the set is empty. Derived, like `active`.
    ni_touched: BitSet,
}

/// Where the output of a router port leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutTarget {
    /// Onto the wire of a directed link of this network.
    Link(LinkId),
    /// Across a shard cut, through the boundary attachment with this id.
    Boundary(usize),
    /// Nowhere: an unwired port swallows the word.
    Unwired,
}

/// Who feeds the input of a router port, and so earns the link-level
/// credit when a BE word is dequeued there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Producer {
    /// The output `port` of `router` (a local index).
    Router { router: usize, port: PortIdx },
    /// The staging side of an NI attachment.
    Ni(NiId),
    /// A router in another shard, reached through this boundary.
    Boundary(usize),
    /// Nobody (an unwired port).
    Nobody,
}

/// One entry of the flat wiring table (see [`Noc::wiring`]).
#[derive(Debug, Clone, Copy)]
struct PortWiring {
    out: OutTarget,
    producer: Producer,
}

/// One shard-boundary attachment: the local half of a cut inter-router
/// link. The port's emissions, and the credits BE dequeues at its input
/// earn for the remote producer, go onto the boundary's outbound ring of
/// the exchange arena; the remote side's words and credits are taken off
/// its inbound ring by the absorb phase, which registers them exactly as
/// a wired link would. The wire itself holds no state here.
#[derive(Debug, Clone)]
struct BoundaryPort {
    router: usize,
    port: PortIdx,
    /// Ingress tally: words absorbed from the remote side. Stands in for
    /// the cut directed link's [`LinkStats`] entry.
    stats: LinkStats,
}

/// Why a boundary emission finds its exchange handle.
const NO_EXCHANGE: &str =
    "a network with boundaries runs under a ShardRunner, which attaches its arena";

/// Reusable buffers for one tick.
#[derive(Debug, Clone, Default)]
struct TickScratch {
    emit: EmitResult,
    /// The local producers ([`Producer::Router`] or [`Producer::Ni`]) owed
    /// one link-level BE credit each this cycle.
    credit_returns: Vec<Producer>,
}

impl Noc {
    /// Builds the network for `topology` with default parameters.
    pub fn new(topology: &Topology) -> Self {
        Self::with_config(topology, NocConfig::default())
    }

    /// Builds the network for `topology` with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `be_queue_words < 2`: a gateway rewrite needs the
    /// exhausted header and its continuation word queued together, so a
    /// 1-word BE queue would deadlock two-level BE traffic silently.
    pub fn with_config(topology: &Topology, config: NocConfig) -> Self {
        assert!(
            config.be_queue_words >= 2,
            "BE queues need at least 2 words (gateway rewrites queue the \
             header and its continuation together)"
        );
        let nr = topology.router_count();
        let mut routers: Vec<Router> = (0..nr)
            .map(|r| Router::new(r, topology.ports_of(r), config.be_queue_words))
            .collect();
        let mut links = Vec::new();
        for e in topology.edges() {
            let a = Endpoint::Router {
                router: e.a,
                port: e.port_a,
            };
            let b = Endpoint::Router {
                router: e.b,
                port: e.port_b,
            };
            links.push(LinkState::new(a, b));
            links.push(LinkState::new(b, a));
        }
        let mut ni_out_link = Vec::new();
        let mut ni_links = Vec::new();
        for ni in 0..topology.ni_count() {
            let (r, p) = topology.ni_attachment(ni).expect("ni in range");
            let nie = Endpoint::Ni { ni };
            let re = Endpoint::Router { router: r, port: p };
            ni_out_link.push(links.len());
            links.push(LinkState::new(nie, re));
            links.push(LinkState::new(re, nie));
            ni_links.push(NiLink::new(config.be_queue_words as u32, NI_INBOX_WORDS));
        }
        // The wiring table follows from the links: a link's source port
        // leads onto it, and dequeues at its destination port credit its
        // source.
        let mut port_base = Vec::with_capacity(nr);
        let mut n_wired = 0;
        for r in 0..nr {
            port_base.push(n_wired);
            n_wired += topology.ports_of(r);
        }
        let unwired = PortWiring {
            out: OutTarget::Unwired,
            producer: Producer::Nobody,
        };
        let mut wiring = vec![unwired; n_wired];
        for (id, l) in links.iter().enumerate() {
            if let Endpoint::Router { router, port } = l.src {
                wiring[port_base[router] + port as usize].out = OutTarget::Link(id);
                // Per-output BE credit budget: the downstream input queue
                // capacity (router inputs), or effectively unbounded for
                // router → NI links (the NI sinks at line rate;
                // destination-buffer space is governed by the NI's
                // end-to-end credits).
                let credits = match l.dst {
                    Endpoint::Router { .. } => config.be_queue_words as u32,
                    Endpoint::Ni { .. } => u32::MAX / 2,
                };
                routers[router].set_out_credits(port, credits);
            }
            if let Endpoint::Router { router, port } = l.dst {
                wiring[port_base[router] + port as usize].producer = match l.src {
                    Endpoint::Router { router, port } => Producer::Router { router, port },
                    Endpoint::Ni { ni } => Producer::Ni(ni),
                };
            }
        }
        let n_links = links.len();
        let n_nis = ni_links.len();
        Noc {
            routers,
            links,
            wiring,
            port_base,
            ni_out_link,
            ni_links,
            boundaries: Vec::new(),
            exchange: None,
            config,
            cycle: 0,
            stats: NocStats::new(n_links),
            scratch: TickScratch::default(),
            fault: None,
            active: BitSet::full(nr),
            driven: BitSet::full(n_links),
            ni_touched: BitSet::full(n_nis),
        }
    }

    /// Resets the derived activity state to "every router may hold work,
    /// every wire and NI link may carry a word" — the one safe value that
    /// needs no knowledge of the rest of the state. Called wherever that
    /// state is rewritten wholesale (restore, a fast-forward apply, arming
    /// or disarming faults); the next cycle re-derives the exact sets.
    /// `skip` keeps the sets: it only moves time across a dormant network,
    /// whose wires and NI links are empty and whose calendar-only routers
    /// stay members.
    fn wake_all(&mut self) {
        self.active.fill();
        self.driven.fill();
        self.ni_touched.fill();
    }

    /// Current cycle (500 MHz network clock).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Current TDM slot index for a table of `stu_slots` slots.
    pub fn slot(&self, stu_slots: u64) -> u64 {
        (self.cycle / SLOT_WORDS) % stu_slots
    }

    /// Whether the current cycle is a slot boundary.
    #[cfg(test)]
    pub(crate) fn at_slot_boundary(&self) -> bool {
        self.cycle.is_multiple_of(SLOT_WORDS)
    }

    /// Number of NIs attached.
    pub fn ni_count(&self) -> usize {
        self.ni_links.len()
    }

    /// The attachment handle of NI `ni`. Marks the link touched: whatever
    /// the caller stages or drains through it, the next emit looks.
    ///
    /// # Panics
    ///
    /// Panics if `ni` is out of range.
    #[inline]
    pub fn ni_link_mut(&mut self, ni: NiId) -> &mut NiLink {
        let link = &mut self.ni_links[ni];
        self.ni_touched.insert(ni);
        link
    }

    /// Immutable access to the attachment handle of NI `ni`.
    pub fn ni_link(&self, ni: NiId) -> &NiLink {
        &self.ni_links[ni]
    }

    /// The NI links that may hold a staged word or an undrained inbox
    /// word; every NI link outside the set is empty. A link joins when
    /// [`Noc::ni_link_mut`] hands it out or a word arrives in its inbox,
    /// and leaves when emit finds it empty.
    pub fn ni_touched(&self) -> &BitSet {
        &self.ni_touched
    }

    /// The routers (for inspection).
    pub fn routers(&self) -> &[Router] {
        &self.routers
    }

    /// All link states (for inspection).
    pub fn links(&self) -> &[LinkState] {
        &self.links
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Total GT contention violations across all routers (invariant: zero).
    pub fn gt_conflicts(&self) -> u64 {
        self.routers.iter().map(Router::gt_conflicts).sum()
    }

    /// Total BE credit-discipline violations across all routers (invariant:
    /// zero).
    pub fn be_overflows(&self) -> u64 {
        self.routers.iter().map(Router::be_overflows).sum()
    }

    // ---- Fault injection (see `crate::fault`) ------------------------

    /// Arms `plan` on this network. From the first cycle of any event
    /// window onward, the emit phase filters emissions and BE credit
    /// returns through the plan; outside the windows the armed hooks cost
    /// one comparison per cycle. Arming (even an empty plan) marks the
    /// network faulted, which conservatively declines all fast-forward
    /// certification until [`Noc::disarm_faults`].
    ///
    /// # Panics
    ///
    /// Panics if a plan is already armed (disarm first — replacing a live
    /// plan silently would break deterministic replay).
    pub fn arm_faults(&mut self, plan: &crate::fault::FaultPlan) {
        assert!(self.fault.is_none(), "a fault plan is already armed");
        self.fault = Some(crate::fault::FaultState::arm(plan));
        self.wake_all();
    }

    /// Drops the armed fault machinery (scheduled windows, generator
    /// state and health counters), returning the network to the unarmed
    /// hot path and re-enabling fast-forward eligibility.
    pub fn disarm_faults(&mut self) {
        self.fault = None;
        self.wake_all();
    }

    /// Whether fault machinery is armed — `true` from [`Noc::arm_faults`]
    /// until [`Noc::disarm_faults`], even when every window has expired
    /// (as long as it is, [`Noc::walk`] rejects every fast-forward).
    pub fn fault_armed(&self) -> bool {
        self.fault.is_some()
    }

    /// Builds the detection report: the armed events' per-link health
    /// counters (links that dropped, corrupted or starved traffic, plus
    /// still-open windows) and the routers' GT watchdog counters.
    /// Credit-loss events are remapped to the upstream producer's directed
    /// link — the link a healer must route around. NI-side drop counts are
    /// folded in by the system layer (`aethereal-cfg`).
    pub fn fault_report(&self) -> crate::fault::FaultReport {
        let mut report = crate::fault::FaultReport {
            gt_conflicts: self.gt_conflicts(),
            gt_orphans: self.routers.iter().map(Router::gt_orphans).sum(),
            ..Default::default()
        };
        if let Some(f) = &self.fault {
            f.report_into(self.cycle, &mut report, |gr, p| {
                let lr = self.routers.iter().position(|r| r.id() == gr)?;
                if usize::from(p) >= self.routers[lr].ports() {
                    return None;
                }
                match self.wiring[self.port_base[lr] + usize::from(p)].producer {
                    // Wiring entries are shard-local; report global ids.
                    Producer::Router { router, port } => Some((self.routers[router].id(), port)),
                    _ => None,
                }
            });
        }
        report
    }

    // ---- Shard boundaries (see `crate::shard`) -----------------------

    /// Declares the unwired `(router, port)` as a shard-boundary
    /// attachment: the local half of an inter-router link that was cut by a
    /// [`Partition`]. Returns the boundary id, the index of the port's
    /// rings in this network's [`ExchangeAttachment`](crate::shard::ExchangeAttachment).
    ///
    /// The port's output is granted the standard inter-router BE credit
    /// budget (the remote input queue's capacity).
    ///
    /// # Panics
    ///
    /// Panics if the port is already wired or already a boundary.
    fn open_boundary(&mut self, router: RouterId, port: PortIdx) -> usize {
        let at = self.port_base[router] + port as usize;
        let PortWiring { out, producer } = self.wiring[at];
        assert!(
            !matches!(out, OutTarget::Boundary(_)),
            "router {router} port {port} is already a boundary"
        );
        assert!(
            out == OutTarget::Unwired && producer == Producer::Nobody,
            "router {router} port {port} is wired inside this shard"
        );
        let id = self.boundaries.len();
        self.boundaries.push(BoundaryPort {
            router,
            port,
            stats: LinkStats::default(),
        });
        self.wiring[at] = PortWiring {
            out: OutTarget::Boundary(id),
            producer: Producer::Boundary(id),
        };
        self.routers[router].set_out_credits(port, self.config.be_queue_words as u32);
        id
    }

    /// Number of boundary attachments.
    #[cfg(test)]
    pub(crate) fn boundary_count(&self) -> usize {
        self.boundaries.len()
    }

    /// Installs the handle onto the shard runner's exchange arena (done by
    /// [`ShardRunner::new`](crate::shard::ShardRunner::new)): boundary
    /// emissions and earned credits are written **in place** into the
    /// arena's cut-wire rings during [`Clocked::emit`], and
    /// [`Clocked::absorb`] consumes each inbound ring's slot at exactly its
    /// due cycle. Cloning an attached network clones the handle, which
    /// **shares** the arena — drive only one of the two.
    ///
    /// # Panics
    ///
    /// Panics if the attachment's boundary maps do not cover exactly this
    /// network's boundaries, or if a handle is already installed.
    pub fn attach_exchange(&mut self, exchange: crate::shard::ExchangeAttachment) {
        assert!(self.exchange.is_none(), "exchange already attached");
        assert_eq!(
            exchange.boundaries(),
            self.boundaries.len(),
            "attachment must map every boundary"
        );
        self.exchange = Some(exchange);
    }

    /// Ingress tally of boundary `b`: the words absorbed from the remote
    /// side, standing in for the cut directed link's per-link counters.
    pub fn boundary_stats(&self, b: usize) -> &LinkStats {
        &self.boundaries[b].stats
    }

    /// Splits a **drained** network into per-shard networks along the cut
    /// computed by `partition`, moving every router, NI handle and per-link
    /// counter into its shard so that lockstep execution of the shards
    /// (with boundary words crossing through the exchange arena of the
    /// [`crate::shard::ShardRunner`] built over them) is bit-identical to
    /// ticking `self`.
    ///
    /// `topology` must be the topology this network was built from.
    ///
    /// # Panics
    ///
    /// Panics if the network still carries state on wires, in router queues
    /// or in NI staging/inboxes (`quiescent` is the precondition that makes
    /// the cut exact), if the topology does not match, or if the partition
    /// is invalid for the topology.
    pub fn split(mut self, topology: &Topology, partition: &Partition) -> Vec<NocShard> {
        assert_eq!(
            topology.router_count(),
            self.routers.len(),
            "topology does not match this network"
        );
        assert_eq!(topology.ni_count(), self.ni_links.len());
        assert!(
            self.boundaries.is_empty(),
            "cannot split an already-sharded network"
        );
        assert!(
            self.drained(),
            "split requires a drained network (wires, routers, GT calendars \
             and NI handles empty)"
        );
        partition
            .validate(topology)
            .expect("partition fits topology");
        let pieces = partition.pieces(topology);
        let cuts = partition.cut_edges(topology);
        let global_edges = topology.edges().len();
        let mut out = Vec::with_capacity(pieces.len());
        for (s, piece) in pieces.into_iter().enumerate() {
            let mut noc = Noc::with_config(&piece.topology, self.config);
            // Open boundaries in global cut order; record for each the
            // global id of its *ingress* directed link (the one whose words
            // this side absorbs) so stats merge back exactly.
            let mut boundary_links = Vec::new();
            let mut cut_ids = Vec::new();
            for (k, c) in cuts.iter().enumerate() {
                if c.a_shard == s {
                    let lr = piece
                        .routers
                        .binary_search(&c.a_router)
                        .expect("router in shard");
                    noc.open_boundary(lr, c.a_port);
                    // Global link ids: edge k' wires a→b as 2k', b→a as
                    // 2k'+1; the a-side ingests the b→a direction.
                    boundary_links.push(2 * c.edge + 1);
                    cut_ids.push(k);
                }
                if c.b_shard == s {
                    let lr = piece
                        .routers
                        .binary_search(&c.b_router)
                        .expect("router in shard");
                    noc.open_boundary(lr, c.b_port);
                    boundary_links.push(2 * c.edge);
                    cut_ids.push(k);
                }
            }
            // Move the live state: routers (with their counters and credit
            // registers) and NI attachment handles.
            for (lr, &gr) in piece.routers.iter().enumerate() {
                noc.routers[lr] = std::mem::replace(&mut self.routers[gr], Router::new(gr, 1, 1));
            }
            for (ln, &gn) in piece.nis.iter().enumerate() {
                noc.ni_links[ln] = std::mem::replace(&mut self.ni_links[gn], NiLink::new(0, 1));
            }
            noc.cycle = self.cycle;
            // Armed fault events move to the shard owning their router
            // (ids are global, so no remapping; dynamic state — generator
            // positions, health counters — travels unchanged). Every shard
            // stays *armed* even with no local events, so every region
            // answers `fault_armed` and walks fault state as the unsplit
            // network does.
            if let Some(f) = self.fault.as_mut() {
                noc.fault = Some(f.extract_owned(&piece.routers));
            }
            // Per-link counters follow their links; scalars stay on shard 0
            // (merging sums shards, so pre-split history must not double).
            let local_edges = piece.topology.edges().len();
            let mut link_map = vec![0; noc.links.len()];
            for (j, &ge) in piece.edge_map.iter().enumerate() {
                link_map[2 * j] = 2 * ge;
                link_map[2 * j + 1] = 2 * ge + 1;
            }
            for (ln, &gn) in piece.nis.iter().enumerate() {
                link_map[2 * local_edges + 2 * ln] = 2 * global_edges + 2 * gn;
                link_map[2 * local_edges + 2 * ln + 1] = 2 * global_edges + 2 * gn + 1;
            }
            for (l, &g) in link_map.iter().enumerate() {
                noc.stats.links[l] = self.stats.links[g];
            }
            for (b, &g) in boundary_links.iter().enumerate() {
                noc.boundaries[b].stats = self.stats.links[g];
            }
            noc.stats.cycles = self.cycle;
            noc.stats.gt_conflicts = noc.gt_conflicts();
            if s == 0 {
                noc.stats.delivered = self.stats.delivered;
                noc.stats.be_overflows = self.stats.be_overflows;
            }
            out.push(NocShard {
                noc,
                routers: piece.routers,
                nis: piece.nis,
                link_map,
                boundary_links,
                cuts: cut_ids,
            });
        }
        out
    }

    /// Whether nothing at all is in flight: all wires idle, all routers
    /// fully drained (GT calendars included), no staged NI word and no
    /// undrained NI inbox. This is the strict precondition of
    /// [`Noc::split`]; dormancy ([`Clocked::dormant_until`]) is weaker — it
    /// also holds while scheduled GT emissions wait for their due cycle.
    pub fn drained(&self) -> bool {
        self.active.iter().all(|r| self.routers[r].idle()) && self.calendar_dormant()
    }

    /// The non-router part of quiescence: wires and NI handles all empty,
    /// routers holding at most scheduled GT emissions. Routers outside the
    /// active set are idle, undriven wires and untouched NI links are
    /// empty, so only members of the three sets are inspected. Cut wires
    /// are the shard runner's to watch: a word due on an inbound ring wakes
    /// the region (see [`crate::shard`]).
    fn calendar_dormant(&self) -> bool {
        self.active.iter().all(|r| self.routers[r].calendar_idle())
            && self.driven.iter().all(|l| self.links[l].wire.is_none())
            && self.ni_touched.iter().all(|ni| {
                let h = &self.ni_links[ni];
                h.outgoing.is_none() && h.incoming.is_empty()
            })
    }

    /// Whether no best-effort traffic is held in the network: no BE word
    /// queued in a router, on a wire or on an NI handle, and no BE worm
    /// claiming a port of an active router. A fast-forward pre-filter (see
    /// [`crate::ff`]), kept for its cost, not for soundness: BE state is
    /// walked and digested like any other, but a network busy with BE
    /// traffic seldom certifies, and the scan is cheaper than the digests
    /// of a declined attempt.
    ///
    /// Only members of the activity sets are inspected. An idle router may
    /// still hold a worm's claim while the worm's remaining words wait
    /// upstream, here or in the sending NI's kernel; the digest sees those.
    pub fn be_quiet(&self) -> bool {
        let be = |w: &LinkWord| w.class() == WordClass::BestEffort;
        self.active.iter().all(|r| self.routers[r].be_quiet())
            && !self
                .driven
                .iter()
                .any(|l| self.links[l].wire.as_ref().is_some_and(be))
            && !self.ni_touched.iter().any(|ni| {
                let h = &self.ni_links[ni];
                h.outgoing.as_ref().is_some_and(be) || h.incoming.iter().any(be)
            })
    }

    /// Walks the network's complete dynamic state through a state visitor
    /// (see [`crate::persist`]): cycle, statistics, wires, NI handles,
    /// boundary ingress tallies, routers, armed fault machinery.
    /// Structural wiring (the topology maps, the config) stays outside: a
    /// snapshot restores onto an identically-built network. So does the
    /// exchange handle — in-flight arena state travels with the shard
    /// runner's walk, not the region's. The per-tick scratch is
    /// transient (cleared at the top of every emit) and carries nothing
    /// between cycles.
    pub fn walk<V: crate::persist::StateVisit + ?Sized>(&mut self, p: &mut V) {
        use crate::persist::{persist_int, persist_opt_word, persist_ring, persist_word};
        p.counter(&mut self.cycle);
        p.counter(&mut self.stats.cycles);
        p.counter(&mut self.stats.gt_conflicts);
        p.counter(&mut self.stats.be_overflows);
        for d in &mut self.stats.delivered {
            p.counter(d);
        }
        for ls in &mut self.stats.links {
            ls.walk(p);
        }
        for l in &mut self.links {
            l.walk(p);
        }
        let empty = LinkWord::header_only(0, WordClass::BestEffort);
        for h in &mut self.ni_links {
            persist_opt_word(&mut h.outgoing, p);
            persist_ring(&mut h.incoming, empty, p, |w, p| persist_word(w, p));
            persist_int(&mut h.credits, p);
        }
        for b in &mut self.boundaries {
            b.stats.walk(p);
        }
        for r in &mut self.routers {
            r.walk(p);
        }
        // Armed fault machinery: dynamic remainder only (generator
        // positions, health counters, activation cache). The schedule is
        // structural — a snapshot of a faulted run restores onto a network
        // armed with the identical plan, exactly as wiring restores onto
        // an identically-built topology; unarmed snapshots carry nothing
        // extra, so pre-fault golden snapshots stay byte-stable. Armed
        // faults also make the future non-extrapolable (drops are not
        // periodic, and flaky links are probabilistic), independent of the
        // system-level eligibility gates.
        if let Some(f) = &mut self.fault {
            p.reject();
            f.walk(p);
        }
        // The activity sets are derived: never visited, and reset so that
        // a restored or jumped network re-derives them from the state it
        // was given.
        self.wake_all();
    }

    /// The earliest due cycle across every router's GT calendar (`u64::MAX`
    /// when all calendars are empty). Idle routers hold no calendar
    /// entries, so only the active set is consulted.
    pub fn next_gt_due(&self) -> u64 {
        self.active
            .iter()
            .map(|r| self.routers[r].next_gt_due())
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Advances the network by one cycle (emit, then absorb — a thin
    /// wrapper over [`Engine::tick`]).
    pub fn tick(&mut self) {
        Engine::tick(self);
    }

    /// Runs `n` cycles through [`Engine::run`] (with its quiescent fast
    /// path).
    pub fn run(&mut self, n: u64) {
        Engine::run(self, n);
    }
}

impl Clocked for Noc {
    fn now(&self) -> u64 {
        self.cycle
    }

    /// Phase 1: every router output and every NI staging register places at
    /// most one word on its outgoing wire, based on previous-cycle state.
    ///
    /// Only routers in the active set are visited (an idle router emits
    /// nothing, dequeues nothing and — an empty result passes the fault
    /// filter untouched — draws no fault randomness), in ascending id
    /// order. A router that [`Router::emit_into`] found idle leaves the
    /// set; one that emits its last word leaves on the next cycle, so
    /// busy routers never pay for an idleness test. Likewise only touched
    /// NI links are scanned for a staged word.
    fn emit(&mut self) {
        let cycle = self.cycle;
        debug_assert!(self.scratch.credit_returns.is_empty());
        debug_assert!(
            self.routers
                .iter()
                .enumerate()
                .all(|(r, router)| self.active.contains(r) || router.idle()),
            "a router outside the active set holds work"
        );
        debug_assert!(
            self.ni_links.iter().enumerate().all(|(ni, h)| {
                self.ni_touched.contains(ni) || (h.outgoing.is_none() && h.incoming.is_empty())
            }),
            "an NI link outside the touched set holds a word"
        );
        // Armed faults: one comparison per cycle decides whether any event
        // window is open; only then does the per-router filter run. The
        // filter acts here — before emissions reach a wire or an arena
        // ring — so a fault on a cut wire is identical monolithic or
        // sharded: the exchange simply never sees the word.
        let fault_active = match &mut self.fault {
            Some(f) => f.begin_cycle(cycle),
            None => false,
        };
        // Boundary traffic goes straight into the arena rings.
        let exchange = self.exchange.as_ref();
        let mut result = std::mem::take(&mut self.scratch.emit);
        for w in 0..self.active.word_count() {
            let mut members = self.active.word(w);
            while let Some(bit) = pop_lowest(&mut members) {
                let r = 64 * w + bit;
                let router = &mut self.routers[r];
                let conflicts = router.gt_conflicts();
                if router.emit_into(cycle, &mut result) {
                    self.active.remove(r);
                    continue;
                }
                self.stats.gt_conflicts += router.gt_conflicts() - conflicts;
                if fault_active {
                    if let Some(f) = &mut self.fault {
                        f.filter(router.id(), cycle, &mut result);
                    }
                }
                let wiring = &self.wiring[self.port_base[r]..];
                for e in &result.emissions {
                    match wiring[e.port as usize].out {
                        OutTarget::Link(l) => {
                            debug_assert!(self.links[l].wire.is_none());
                            self.links[l].wire = Some(e.word);
                            self.driven.insert(l);
                        }
                        OutTarget::Boundary(b) => exchange
                            .expect(NO_EXCHANGE)
                            .out_ring(b)
                            .send_word(cycle, e.word),
                        OutTarget::Unwired => {}
                    }
                }
                for &input in &result.be_dequeues {
                    match wiring[input as usize].producer {
                        // A dequeue at a boundary input earns its credit
                        // for the *remote* producer: export it now so it
                        // is due in the same cycle's absorb, exactly like
                        // the local returns queued below.
                        Producer::Boundary(b) => exchange
                            .expect(NO_EXCHANGE)
                            .out_ring(b)
                            .send_credits(cycle, 1),
                        Producer::Nobody => {}
                        local => self.scratch.credit_returns.push(local),
                    }
                }
            }
        }
        self.scratch.emit = result;
        // NI staging registers: only touched links can hold a word. A link
        // left with an empty inbox leaves the set; the removals of one
        // word of the set are applied together.
        for w in 0..self.ni_touched.word_count() {
            let mut members = self.ni_touched.word(w);
            let mut keep = members;
            while let Some(bit) = pop_lowest(&mut members) {
                let ni = 64 * w + bit;
                let handle = &mut self.ni_links[ni];
                if let Some(word) = handle.outgoing.take() {
                    let l = self.ni_out_link[ni];
                    debug_assert!(self.links[l].wire.is_none());
                    self.links[l].wire = Some(word);
                    self.driven.insert(l);
                }
                if handle.incoming.is_empty() {
                    keep &= !(1 << bit);
                }
            }
            self.ni_touched.set_word(w, keep);
        }
    }

    /// Phase 2: every router input and NI inbox registers the word on its
    /// incoming wire; BE dequeues from phase 1 return link-level credits to
    /// the upstream producers.
    ///
    /// Only the wires phase 1 drove are visited, in ascending link order —
    /// the order of the dense walk this replaces, so every GT-calendar
    /// insertion, conflict and overflow falls exactly as before. Every
    /// router that registers a word joins the active set.
    fn absorb(&mut self) {
        let cycle = self.cycle;
        // Boundary ingress: consume each inbound ring's slot at exactly
        // this cycle, straight out of the arena; words and credits
        // register exactly like wired-link arrivals. Per-output GT
        // calendars make the iteration order across boundaries immaterial,
        // like the wired-link loop below.
        if let Some(x) = &self.exchange {
            for (b, bp) in self.boundaries.iter_mut().enumerate() {
                if let Some((word, credits)) = x.in_ring(b).take_due(cycle) {
                    let (r, p) = (bp.router, bp.port);
                    if let Some(word) = word {
                        bp.stats.record(word.class(), word.is_header());
                        self.routers[r].absorb(p, word, cycle);
                        self.active.insert(r);
                    }
                    for _ in 0..credits {
                        self.routers[r].add_out_credit(p);
                    }
                }
            }
        }
        for w in 0..self.driven.word_count() {
            let mut members = self.driven.take_word(w);
            while let Some(bit) = pop_lowest(&mut members) {
                let l = 64 * w + bit;
                // After `wake_all` the set over-approximates: most members
                // carry nothing.
                let Some(word) = self.links[l].wire.take() else {
                    continue;
                };
                self.stats.links[l].record(word.class(), word.is_header());
                match self.links[l].dst {
                    Endpoint::Router { router, port } => {
                        self.routers[router].absorb(port, word, cycle);
                        self.active.insert(router);
                    }
                    Endpoint::Ni { ni } => {
                        self.ni_touched.insert(ni);
                        let handle = &mut self.ni_links[ni];
                        if handle.incoming.push_back(word).is_ok() {
                            let k = word.class().index();
                            self.stats.delivered[k] = self.stats.delivered[k].wrapping_add(1);
                        } else {
                            // NI failed to drain: account as BE overflow; the
                            // invariant tests require this to stay zero.
                            self.stats.be_overflows = self.stats.be_overflows.wrapping_add(1);
                        }
                    }
                }
            }
        }
        // Return link-level credits earned by this cycle's BE dequeues.
        for producer in self.scratch.credit_returns.drain(..) {
            match producer {
                Producer::Router { router, port } => self.routers[router].add_out_credit(port),
                Producer::Ni(ni) => self.ni_links[ni].credits += 1,
                Producer::Boundary(_) | Producer::Nobody => {}
            }
        }
        self.cycle += 1;
        self.stats.cycles = self.cycle;
    }

    /// The network is dormant while a tick can change only time-derived
    /// counters: all wires idle, no staged NI word, no undrained NI inbox,
    /// and every router either fully drained or holding only *scheduled GT
    /// emissions whose due cycle has not arrived*. Pending calendars do
    /// not make it active — they are pure timetables, untouched by ticks
    /// before their due cycle — but the earliest due cycle is the horizon
    /// (`u64::MAX` when fully drained), so no driver ever skips a due
    /// emission (the calendar-sleep path).
    fn dormant_until(&self, now: u64) -> u64 {
        if self.calendar_dormant() {
            self.next_gt_due().max(now)
        } else {
            now
        }
    }

    fn skip(&mut self, cycles: u64) {
        debug_assert!(
            self.next_gt_due() >= self.cycle.saturating_add(cycles),
            "skip past a scheduled GT emission"
        );
        self.cycle += cycles;
        self.stats.cycles = self.cycle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::PacketHeader;
    use crate::path::Path;
    use crate::topology::Topology;

    fn be_packet(path: Path, qid: u8, payload: &[u32]) -> Vec<LinkWord> {
        let h = PacketHeader {
            path,
            qid,
            credits: 0,
            flush: false,
        };
        let mut words = Vec::new();
        if payload.is_empty() {
            words.push(LinkWord::header_only(h.pack(), WordClass::BestEffort));
        } else {
            words.push(LinkWord::header(h.pack(), WordClass::BestEffort));
            for (i, &w) in payload.iter().enumerate() {
                words.push(LinkWord::payload(
                    w,
                    WordClass::BestEffort,
                    i + 1 == payload.len(),
                ));
            }
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
        let mut words = Vec::new();
        if payload.is_empty() {
            words.push(LinkWord::header_only(h.pack(), WordClass::Guaranteed));
        } else {
            words.push(LinkWord::header(h.pack(), WordClass::Guaranteed));
            for (i, &w) in payload.iter().enumerate() {
                words.push(LinkWord::payload(
                    w,
                    WordClass::Guaranteed,
                    i + 1 == payload.len(),
                ));
            }
        }
        words
    }

    /// Drives a word sequence into an NI link, one word per cycle.
    fn drive(noc: &mut Noc, ni: NiId, words: &[LinkWord]) {
        for w in words {
            noc.ni_link_mut(ni).send(*w);
            noc.tick();
        }
    }

    fn drain(noc: &mut Noc, ni: NiId) -> Vec<LinkWord> {
        let mut out = Vec::new();
        while let Some(w) = noc.ni_link_mut(ni).recv() {
            out.push(w);
        }
        out
    }

    #[test]
    fn be_packet_delivered_across_mesh() {
        let topo = Topology::mesh(2, 2, 1);
        let mut noc = Noc::new(&topo);
        let path = topo.route(0, 3).unwrap();
        drive(&mut noc, 0, &be_packet(path, 5, &[10, 20, 30]));
        noc.run(20);
        let got = drain(&mut noc, 3);
        assert_eq!(got.len(), 4);
        assert!(got[0].is_header());
        assert_eq!(PacketHeader::unpack(got[0].word()).qid, 5);
        // Path fully consumed on arrival.
        assert!(PacketHeader::unpack(got[0].word()).path.is_empty());
        assert_eq!(got[1].word(), 10);
        assert_eq!(got[3].word(), 30);
        assert!(got[3].is_tail());
        assert_eq!(noc.gt_conflicts(), 0);
        assert_eq!(noc.be_overflows(), 0);
    }

    #[test]
    fn gt_packet_latency_is_one_slot_per_hop() {
        let topo = Topology::mesh(2, 2, 1);
        let mut noc = Noc::new(&topo);
        let path = topo.route(0, 3).unwrap(); // 3 hops incl. ejection
        let words = gt_packet(path, 1, &[100, 200]);
        // Inject exactly at a slot boundary (cycle 0).
        assert!(noc.at_slot_boundary());
        let start = noc.cycle();
        drive(&mut noc, 0, &words);
        // Header crosses 3 routers at 3 cycles each: arrives end of cycle
        // start + 3*3 = 9 → visible after tick 9 completes.
        let mut arrival = None;
        for _ in 0..40 {
            noc.tick();
            if noc.ni_link(3).pending() > 0 && arrival.is_none() {
                arrival = Some(noc.cycle() - 1);
            }
        }
        assert_eq!(arrival, Some(start + 3 * SLOT_WORDS));
        let got = drain(&mut noc, 3);
        assert_eq!(got.len(), 3);
        assert_eq!(got[1].word(), 100);
        assert_eq!(noc.gt_conflicts(), 0);
    }

    #[test]
    fn two_gt_flows_on_disjoint_slots_no_conflict() {
        // NI0 → NI3 and NI1 → NI3 share router 1→3 link (south). Offset
        // injections by one slot so their slots never collide.
        let topo = Topology::mesh(2, 2, 1);
        let mut noc = Noc::new(&topo);
        let p03 = topo.route(0, 3).unwrap();
        let p13 = topo.route(1, 3).unwrap();
        // NI0's flit needs one hop to reach router 1, so on the shared
        // router1→router3 link an NI0 flit injected in slot s lands in slot
        // s+2 while an NI1 flit injected in slot s' lands in slot s'+1.
        // Leaving one idle slot between the injections (s' = s+2) keeps the
        // shared link slots disjoint.
        for round in 0..8u64 {
            let w0 = gt_packet(p03.clone(), 0, &[round as u32, 1]);
            drive(&mut noc, 0, &w0);
            noc.run(3); // skip one slot
            let w1 = gt_packet(p13.clone(), 1, &[round as u32, 2]);
            drive(&mut noc, 1, &w1);
        }
        noc.run(40);
        assert_eq!(noc.gt_conflicts(), 0);
        let got = drain(&mut noc, 3);
        // 16 packets × 3 words.
        assert_eq!(got.len(), 48);
    }

    #[test]
    fn gt_conflict_detected_when_slots_collide() {
        // Both NIs inject at the same slot toward the same shared link.
        // NI0→NI3 path: E,S,eject — hits router1 south at slot s+1.
        // NI1→NI3 path: S,eject — hits router1 south at slot s+1 too if
        // NI1 injects at slot s. Guaranteed collision.
        let topo = Topology::mesh(2, 2, 1);
        let mut noc = Noc::new(&topo);
        let p03 = topo.route(0, 3).unwrap();
        let p13 = topo.route(1, 3).unwrap();
        // NI1 must inject one slot later so both headers arrive at router 1
        // in the same cycle window... simpler: inject both at cycle 0; the
        // NI0 header reaches router 1 at cycle 3, the NI1 header at cycle 0.
        // Delay NI1 by one slot to collide at router 1.
        let h0 = gt_packet(p03, 0, &[]);
        let h1 = gt_packet(p13, 1, &[]);
        noc.ni_link_mut(0).send(h0[0]);
        noc.tick();
        noc.run(2); // complete slot 0
        noc.ni_link_mut(1).send(h1[0]);
        noc.tick();
        noc.run(30);
        assert!(
            noc.gt_conflicts() > 0,
            "engineered slot collision must be detected"
        );
        assert_eq!(
            noc.stats().gt_conflicts,
            noc.gt_conflicts(),
            "the incremental tally equals the routers' sum"
        );
    }

    #[test]
    fn be_credits_replenish() {
        let topo = Topology::mesh(2, 2, 1);
        let mut noc = Noc::new(&topo);
        let init = noc.ni_link(0).be_credits();
        let path = topo.route(0, 3).unwrap();
        drive(&mut noc, 0, &be_packet(path, 0, &[1, 2, 3, 4]));
        noc.run(30);
        assert_eq!(
            noc.ni_link(0).be_credits(),
            init,
            "credits return after drain"
        );
    }

    #[test]
    fn be_backpressure_without_loss() {
        // Two senders saturate one destination link; all words must arrive,
        // none dropped, credits enforce bounded queues.
        let topo = Topology::mesh(2, 2, 1);
        let mut noc = Noc::new(&topo);
        let p03 = topo.route(0, 3).unwrap();
        let p13 = topo.route(1, 3).unwrap();
        let pkt0 = be_packet(p03, 0, &[1, 2, 3, 4, 5, 6, 7]);
        let pkt1 = be_packet(p13, 1, &[8, 9, 10, 11, 12, 13, 14]);
        let mut sent0 = 0usize;
        let mut sent1 = 0usize;
        let n_packets = 6;
        let mut received = Vec::new();
        for _ in 0..800 {
            {
                let link = noc.ni_link_mut(0);
                if sent0 < n_packets * pkt0.len() && !link.is_busy() && link.be_credits() > 0 {
                    link.send(pkt0[sent0 % pkt0.len()]);
                    sent0 += 1;
                }
            }
            {
                let link = noc.ni_link_mut(1);
                if sent1 < n_packets * pkt1.len() && !link.is_busy() && link.be_credits() > 0 {
                    link.send(pkt1[sent1 % pkt1.len()]);
                    sent1 += 1;
                }
            }
            noc.tick();
            received.extend(drain(&mut noc, 3));
        }
        assert_eq!(sent0, n_packets * pkt0.len());
        assert_eq!(sent1, n_packets * pkt1.len());
        assert_eq!(received.len(), sent0 + sent1, "no loss");
        assert_eq!(noc.be_overflows(), 0);
        // Worms arrive unfragmented per class: check header/payload framing.
        let mut expect_header = true;
        for w in &received {
            if expect_header {
                assert!(w.is_header());
            }
            expect_header = w.is_tail();
        }
        assert!(expect_header, "last word closes a packet");
    }

    #[test]
    fn gt_and_be_interleave_on_one_link_and_demux_cleanly() {
        let topo = Topology::mesh(2, 1, 1);
        let mut noc = Noc::new(&topo);
        let path = topo.route(0, 1).unwrap();
        // Start a long BE worm, then inject a GT flit mid-worm.
        let be = be_packet(path.clone(), 2, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let gt = gt_packet(path, 3, &[100, 200]);
        let mut bi = 0;
        let mut gi = 0;
        for c in 0..60u64 {
            let send_gt = (6..9).contains(&c) && gi < gt.len();
            let link = noc.ni_link_mut(0);
            if send_gt && !link.is_busy() {
                link.send(gt[gi]);
                gi += 1;
            } else if bi < be.len() && !link.is_busy() && link.be_credits() > 0 {
                link.send(be[bi]);
                bi += 1;
            }
            noc.tick();
        }
        let got = drain(&mut noc, 1);
        let gt_words: Vec<_> = got
            .iter()
            .filter(|w| w.class() == WordClass::Guaranteed)
            .collect();
        let be_words: Vec<_> = got
            .iter()
            .filter(|w| w.class() == WordClass::BestEffort)
            .collect();
        assert_eq!(gt_words.len(), 3);
        assert_eq!(be_words.len(), 9);
        assert_eq!(gt_words[1].word(), 100);
        assert_eq!(be_words[4].word(), 4);
        assert_eq!(noc.gt_conflicts(), 0);
    }

    #[test]
    fn stats_track_delivery() {
        let topo = Topology::mesh(2, 1, 1);
        let mut noc = Noc::new(&topo);
        let path = topo.route(0, 1).unwrap();
        drive(&mut noc, 0, &be_packet(path, 0, &[1]));
        noc.run(10);
        assert_eq!(noc.stats().delivered[WordClass::BestEffort.index()], 2);
        assert!(noc.stats().cycles > 0);
    }

    #[test]
    #[should_panic(expected = "already carries")]
    fn double_send_in_one_cycle_panics() {
        let topo = Topology::mesh(2, 1, 1);
        let mut noc = Noc::new(&topo);
        let w = LinkWord::header_only(0, WordClass::Guaranteed);
        noc.ni_link_mut(0).send(w);
        noc.ni_link_mut(0).send(w);
    }

    /// Builds the wire form of a packet over a (possibly multi-segment)
    /// route: header with the first segment, one continuation word per
    /// further segment, then payload.
    fn routed_packet(
        route: &crate::Route,
        qid: u8,
        class: WordClass,
        payload: &[u32],
    ) -> Vec<LinkWord> {
        let h = PacketHeader {
            path: route.header_segment().clone(),
            qid,
            credits: 0,
            flush: false,
        };
        let conts: Vec<u32> = route.continuation_words().collect();
        let mut words = Vec::new();
        if conts.is_empty() && payload.is_empty() {
            words.push(LinkWord::header_only(h.pack(), class));
            return words;
        }
        words.push(LinkWord::header(h.pack(), class));
        for (i, &c) in conts.iter().enumerate() {
            words.push(LinkWord::payload(
                c,
                class,
                payload.is_empty() && i + 1 == conts.len(),
            ));
        }
        for (i, &w) in payload.iter().enumerate() {
            words.push(LinkWord::payload(w, class, i + 1 == payload.len()));
        }
        words
    }

    #[test]
    fn be_two_level_route_crosses_8x8_mesh() {
        let topo = Topology::mesh(8, 8, 1);
        let mut noc = Noc::new(&topo);
        // Opposite corners: 15 hops, beyond any single header.
        assert!(topo.route(0, 63).is_err());
        let route = topo.route_any(0, 63).unwrap();
        assert_eq!(route.gateway_count(), 2);
        let init_credits = noc.ni_link(0).be_credits();
        drive(
            &mut noc,
            0,
            &routed_packet(&route, 6, WordClass::BestEffort, &[10, 20, 30]),
        );
        noc.run(120);
        let got = drain(&mut noc, 63);
        // Continuation words were consumed at the gateways: only header +
        // payload arrive, path fully consumed, qid intact.
        assert_eq!(got.len(), 4);
        assert!(got[0].is_header());
        let h = PacketHeader::unpack(got[0].word());
        assert_eq!(h.qid, 6);
        assert!(h.path.is_empty());
        assert_eq!(got[1].word(), 10);
        assert!(got[3].is_tail());
        assert_eq!(noc.be_overflows(), 0);
        assert_eq!(noc.gt_conflicts(), 0);
        // All link-level credits returned (incl. the two gateway-freed ones).
        assert_eq!(noc.ni_link(0).be_credits(), init_credits);
        assert!(Clocked::quiescent(&noc), "nothing left in flight");
    }

    #[test]
    fn gt_two_level_route_latency_adds_one_slot_per_gateway() {
        let topo = Topology::mesh(8, 8, 1);
        let mut noc = Noc::new(&topo);
        let route = topo.route_any(0, 63).unwrap();
        let words = routed_packet(&route, 1, WordClass::Guaranteed, &[100]);
        assert!(noc.at_slot_boundary());
        let start = noc.cycle();
        drive(&mut noc, 0, &words);
        let mut arrival = None;
        for _ in 0..200 {
            noc.tick();
            if noc.ni_link(63).pending() > 0 && arrival.is_none() {
                arrival = Some(noc.cycle() - 1);
            }
        }
        // 15 hops at one slot each, plus one whole (slot-aligned) slot per
        // gateway rewrite.
        assert_eq!(
            arrival,
            Some(start + (15 + route.gateway_count() as u64) * SLOT_WORDS)
        );
        let got = drain(&mut noc, 63);
        assert_eq!(got.len(), 2, "continuations consumed en route");
        assert_eq!(got[1].word(), 100);
        assert_eq!(noc.gt_conflicts(), 0);
        assert_eq!(noc.routers().iter().map(Router::gt_orphans).sum::<u64>(), 0);
    }

    #[test]
    fn two_level_routes_all_corner_pairs_16x16() {
        // Every corner-to-corner pair on a 16x16 mesh (31 hops, 5 segments).
        let topo = Topology::mesh(16, 16, 1);
        let mut noc = Noc::new(&topo);
        for (src, dst) in [(0usize, 255usize), (255, 0), (15, 240), (240, 15)] {
            let route = topo.route_any(src, dst).unwrap();
            assert_eq!(route.total_hops(), 31);
            drive(
                &mut noc,
                src,
                &routed_packet(&route, 3, WordClass::BestEffort, &[src as u32]),
            );
            noc.run(300);
            let got = drain(&mut noc, dst);
            assert_eq!(got.len(), 2, "{src}→{dst}");
            assert_eq!(got[1].word(), src as u32);
        }
        assert_eq!(noc.be_overflows(), 0);
    }

    fn members(set: &BitSet) -> Vec<usize> {
        set.iter().collect()
    }

    #[test]
    fn activity_sets_follow_the_words() {
        let topo = Topology::mesh(3, 3, 1);
        let mut noc = Noc::new(&topo);
        assert_eq!(members(&noc.active).len(), 9, "born with everyone awake");
        noc.tick();
        assert!(
            members(&noc.active).is_empty(),
            "one cycle derives the truth"
        );
        assert!(members(&noc.driven).is_empty());
        // NI 0 → NI 8: E, E, S, S, eject — routers 0, 1, 2, 5, 8 in turn.
        let path = topo.route(0, 8).unwrap();
        noc.ni_link_mut(0).send(LinkWord::header_only(
            PacketHeader {
                path,
                qid: 0,
                credits: 0,
                flush: false,
            }
            .pack(),
            WordClass::BestEffort,
        ));
        noc.emit();
        assert_eq!(members(&noc.driven), vec![noc.ni_out_link[0]]);
        noc.absorb();
        assert!(
            members(&noc.driven).is_empty(),
            "absorb drains what emit drove"
        );
        let mut visited = Vec::new();
        while noc.ni_link(8).pending() == 0 {
            assert!(
                members(&noc.active).len() <= 2,
                "a single word never keeps more than its router and the one it left awake"
            );
            visited.extend(members(&noc.active));
            noc.tick();
        }
        visited.dedup();
        assert_eq!(visited, vec![0, 1, 2, 5, 8]);
        noc.tick();
        noc.tick();
        assert!(members(&noc.active).is_empty(), "asleep again once drained");
        assert!(noc.ni_link_mut(8).recv().is_some());
        assert!(noc.drained() && Clocked::quiescent(&noc));
        // Time moving across a dormant network changes nothing the sets
        // describe; a state walk or a fault plan puts them back to
        // "everyone", to be re-derived by the next cycle.
        Clocked::skip(&mut noc, 30);
        assert!(members(&noc.active).is_empty(), "skip keeps the sets");
        assert!(members(&noc.driven).is_empty());
        noc.arm_faults(&crate::fault::FaultPlan::new(1));
        assert_eq!(members(&noc.active).len(), 9);
        noc.tick();
        noc.disarm_faults();
        assert_eq!(members(&noc.active).len(), 9);
        noc.tick();
        let mut saver = crate::persist::StateSaver::new();
        noc.walk(&mut saver);
        assert_eq!(members(&noc.active).len(), 9, "a persistence walk wakes");
    }

    #[test]
    fn the_staging_set_follows_the_words() {
        let topo = Topology::mesh(2, 1, 1);
        let mut noc = Noc::new(&topo);
        assert_eq!(members(&noc.ni_touched), vec![0, 1], "born touched");
        noc.tick();
        assert!(members(&noc.ni_touched).is_empty(), "one emit retires both");
        // Handing out the link is enough to be looked at once.
        let _ = noc.ni_link_mut(1);
        assert_eq!(members(&noc.ni_touched), vec![1]);
        noc.emit();
        assert!(members(&noc.ni_touched).is_empty());
        noc.absorb();
        let path = topo.route(0, 1).unwrap();
        noc.ni_link_mut(0)
            .send(be_packet(path, 0, &[]).pop().unwrap());
        noc.emit();
        assert!(
            members(&noc.ni_touched).is_empty(),
            "a staged word leaves with the emit that takes it"
        );
        noc.absorb();
        while noc.ni_link(1).pending() == 0 {
            assert!(members(&noc.ni_touched).is_empty(), "in flight");
            noc.tick();
        }
        assert_eq!(members(&noc.ni_touched), vec![1], "the arrival joins");
        assert!(
            !Clocked::quiescent(&noc),
            "an undrained inbox keeps it awake"
        );
        noc.tick();
        assert_eq!(members(&noc.ni_touched), vec![1], "undrained: stays");
        assert!(noc.ni_link_mut(1).recv().is_some());
        noc.tick();
        assert!(members(&noc.ni_touched).is_empty(), "drained: retired");
        assert!(Clocked::quiescent(&noc) && noc.be_quiet());
        Clocked::skip(&mut noc, 30);
        assert!(members(&noc.ni_touched).is_empty(), "skip keeps the set");
    }

    #[test]
    fn calendar_only_routers_stay_members_until_they_emit() {
        // A GT word sits in a router's calendar for a slot: the router is
        // not idle (it must be visited at its due cycle) though the network
        // is quiescent in between.
        let topo = Topology::mesh(2, 1, 1);
        let mut noc = Noc::new(&topo);
        noc.tick();
        let path = topo.route(0, 1).unwrap();
        noc.ni_link_mut(0).send(gt_packet(path, 0, &[])[0]);
        noc.tick();
        assert_eq!(members(&noc.active), vec![0]);
        assert!(
            Clocked::quiescent(&noc),
            "only a scheduled emission pending"
        );
        assert_eq!(noc.next_gt_due(), noc.routers()[0].next_gt_due());
        // Skipping up to the due cycle keeps the router a member.
        let gap = noc.next_gt_due() - noc.cycle();
        Clocked::skip(&mut noc, gap);
        assert_eq!(members(&noc.active), vec![0]);
        noc.run(20);
        assert_eq!(noc.ni_link(1).pending(), 1);
        assert_eq!(noc.stats().gt_conflicts, noc.gt_conflicts());
    }

    #[test]
    fn ring_topology_delivers() {
        // Port 0 faces the next router clockwise, port 1 the previous,
        // port 2 the NI; BFS breaks the tie to the opposite router
        // clockwise.
        let edges = (0..4)
            .map(|r| crate::topology::RouterEdge {
                a: r,
                port_a: 0,
                b: (r + 1) % 4,
                port_b: 1,
            })
            .collect();
        let topo = Topology::custom(vec![3; 4], edges, (0..4).map(|r| (r, 2)).collect());
        let mut noc = Noc::new(&topo);
        let path = topo.route(0, 2).unwrap();
        drive(&mut noc, 0, &be_packet(path, 4, &[42]));
        noc.run(30);
        let got = drain(&mut noc, 2);
        assert_eq!(got.len(), 2);
        assert_eq!(PacketHeader::unpack(got[0].word()).qid, 4);
        assert_eq!(got[1].word(), 42);
    }
}
