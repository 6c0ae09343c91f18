//! Centralized TDM slot allocation.
//!
//! §3 of the paper: in the centralized model "the slot information can be
//! stored in the configuration module instead of the routers, which
//! simplifies the design" — this module *is* that slot information. The
//! allocator tracks, per directed link, which of the `S` slots are
//! reserved, honouring the pipelined-circuit rule: a connection injecting
//! in slot `s` occupies slot `(s + h) mod S` on the link after hop `h`
//! ("slots to be reserved consecutively in a sequence of routers", §2).
//!
//! Throughput of a reservation is `n_slots / S` of the link bandwidth; the
//! worst-case waiting latency and the jitter are both governed by the
//! largest gap between reserved slots, so [`SlotStrategy::Spread`] places
//! slots as evenly as possible, while [`SlotStrategy::Consecutive`] favours
//! long multi-flit packets (lower header overhead).
//!
//! **Two-level routes** ([`noc_sim::Route`]): every gateway rewrite is
//! aligned to the slot grid by the router (the rewritten worm leaves one
//! whole slot, not one cycle, later than a plain hop — see
//! [`noc_sim::Router`]), so downstream of `g` rewrites the words of a
//! connection injected in slot `s` occupy exactly slot `s + h + g`.
//! [`SlotAllocator::allocate_route`] therefore reserves one slot per link
//! — the conservative base + spill pair that a fractional-slot rewrite
//! delay used to force is gone, halving the post-gateway footprint of
//! every two-level GT connection while keeping the router-level
//! contention check (`gt_conflicts == 0`) exact.

use noc_sim::{NiId, Path, PortIdx, Route, Topology};
use std::collections::HashMap;

/// A directed link for slot bookkeeping: `(router, output port)`, with the
/// NI-injection link encoded as `(usize::MAX, ni)`.
pub type LinkKey = (usize, PortIdx);

/// How reserved slots are placed in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotStrategy {
    /// Maximize spacing between slots (minimizes latency bound and jitter).
    Spread,
    /// Prefer a consecutive run (maximizes packet length / minimizes header
    /// overhead).
    Consecutive,
}

/// A granted reservation (needed to free it again).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotAllocation {
    /// Injection slots at the source NI, ascending.
    pub injection_slots: Vec<usize>,
    /// Every `(link, slot)` pair reserved.
    reserved: Vec<(LinkKey, usize)>,
}

impl SlotAllocation {
    /// Largest circular gap between consecutive injection slots, in slots —
    /// the §2 jitter bound ("jitter is given by the maximum distance
    /// between two slot reservations").
    pub fn max_gap(&self, stu_slots: usize) -> usize {
        let s = &self.injection_slots;
        if s.is_empty() {
            return stu_slots;
        }
        let mut max = 0;
        for i in 0..s.len() {
            let next = s[(i + 1) % s.len()];
            let gap = (next + stu_slots - s[i] - 1) % stu_slots + 1;
            max = max.max(gap);
        }
        max
    }

    /// Guaranteed fraction of link bandwidth (`n / S`).
    pub fn bandwidth_fraction(&self, stu_slots: usize) -> f64 {
        self.injection_slots.len() as f64 / stu_slots as f64
    }
}

/// Allocation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotError {
    /// Not enough conflict-free slots along the path.
    Insufficient {
        /// Slots requested.
        requested: usize,
        /// Conflict-free injection slots available.
        available: usize,
    },
    /// No consecutive run of the requested length exists.
    NoConsecutiveRun {
        /// Slots requested.
        requested: usize,
    },
}

impl std::fmt::Display for SlotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlotError::Insufficient {
                requested,
                available,
            } => {
                write!(f, "{requested} slots requested, only {available} feasible")
            }
            SlotError::NoConsecutiveRun { requested } => {
                write!(f, "no consecutive run of {requested} slots is feasible")
            }
        }
    }
}

impl std::error::Error for SlotError {}

/// The centralized slot allocator.
///
/// Per-link occupancy is a slot **bitmask**, and feasibility over a whole
/// route is computed with one occupancy lookup and one mask rotation per
/// link (instead of one hash probe per candidate slot per link), so the
/// allocate/free hot path stays in the tens-of-nanoseconds-per-link range
/// — see `cfg.slots.allocate_free_ns` in `benchmark/`.
#[derive(Debug, Clone, Default)]
pub struct SlotAllocator {
    stu_slots: usize,
    occupancy: HashMap<LinkKey, u64>,
    /// Reusable scratch: ascending feasible injection slots of the current
    /// allocation (kept to avoid a per-call allocation).
    feasible_scratch: Vec<usize>,
}

impl SlotAllocator {
    /// Creates an allocator for tables of `stu_slots` slots.
    ///
    /// # Panics
    ///
    /// Panics if `stu_slots` is 0 or above 64 (bitmask representation).
    pub fn new(stu_slots: usize) -> Self {
        assert!((1..=64).contains(&stu_slots), "STU size out of range");
        SlotAllocator {
            stu_slots,
            occupancy: HashMap::new(),
            feasible_scratch: Vec::new(),
        }
    }

    /// Slot-table size.
    pub fn stu_slots(&self) -> usize {
        self.stu_slots
    }

    /// Reserved slots on a link.
    pub fn reserved_on(&self, link: LinkKey) -> usize {
        self.occupancy
            .get(&link)
            .map_or(0, |m| m.count_ones() as usize)
    }

    /// Total reserved slots across every link — zero exactly when every
    /// allocation has been freed (occupancy entries may linger with an
    /// empty mask; they carry no reservation).
    pub fn total_reserved(&self) -> usize {
        self.occupancy
            .values()
            .map(|m| m.count_ones() as usize)
            .sum()
    }

    /// The pipeline shift of the link at hop `h` after `g` gateway
    /// rewrites: one slot per hop plus one whole slot per rewrite (the
    /// router aligns each rewrite to the slot grid, so the shift is always
    /// a whole number of slots).
    #[inline]
    fn link_shift(h: usize, g: u32) -> usize {
        h + g as usize
    }

    /// Rotates an occupancy mask right by `k` within `stu` bits: bit `s` of
    /// the result is bit `(s + k) mod stu` of `mask` — i.e. the occupancy a
    /// word injected in slot `s` meets on a link shifted by `k`.
    #[inline]
    fn rotr(mask: u64, k: usize, stu: usize) -> u64 {
        let k = k % stu;
        if k == 0 {
            mask
        } else {
            ((mask >> k) | (mask << (stu - k))) & (u64::MAX >> (64 - stu))
        }
    }

    /// Reserves `n_slots` slots for a GT connection from NI `from` along
    /// `path`.
    ///
    /// # Errors
    ///
    /// See [`SlotError`]. On error nothing is reserved.
    pub fn allocate(
        &mut self,
        topo: &Topology,
        from: NiId,
        path: &Path,
        n_slots: usize,
        strategy: SlotStrategy,
    ) -> Result<SlotAllocation, SlotError> {
        self.allocate_route(topo, from, &Route::single(path.clone()), n_slots, strategy)
    }

    /// Reserves `n_slots` slots for a GT connection from NI `from` along a
    /// (possibly multi-segment) `route`, absorbing the whole-slot delay of
    /// every slot-aligned gateway rewrite (see the module docs). For
    /// single-segment routes this is exactly [`SlotAllocator::allocate`].
    ///
    /// # Errors
    ///
    /// See [`SlotError`]. On error nothing is reserved.
    pub fn allocate_route(
        &mut self,
        topo: &Topology,
        from: NiId,
        route: &Route,
        n_slots: usize,
        strategy: SlotStrategy,
    ) -> Result<SlotAllocation, SlotError> {
        let links: Vec<(LinkKey, u32)> = topo
            .links_of_route_segmented(from, route)
            .into_iter()
            .map(|l| ((l.router, l.port), l.gateways_before))
            .collect();
        self.allocate_links(&links, n_slots, strategy)
    }

    fn allocate_links(
        &mut self,
        links: &[(LinkKey, u32)],
        n_slots: usize,
        strategy: SlotStrategy,
    ) -> Result<SlotAllocation, SlotError> {
        assert!(n_slots >= 1, "a GT connection needs at least one slot");
        let stu = self.stu_slots;
        // Feasible injection slots as one bitmask: each link contributes
        // its occupancy rotated back by its pipeline shift (one hash
        // lookup and one rotation per link — never per candidate slot).
        let mut feasible = u64::MAX >> (64 - stu);
        for (h, &(link, g)) in links.iter().enumerate() {
            let occ = self.occupancy.get(&link).copied().unwrap_or(0);
            if occ == 0 {
                continue;
            }
            let shift = Self::link_shift(h, g);
            feasible &= !Self::rotr(occ, shift, stu);
        }
        let available = feasible.count_ones() as usize;
        if available < n_slots {
            return Err(SlotError::Insufficient {
                requested: n_slots,
                available,
            });
        }
        let mut chosen: Vec<usize> = Vec::with_capacity(n_slots);
        match strategy {
            SlotStrategy::Spread => {
                // Evenly sample the feasible set (ascending bit order).
                let mut feas = std::mem::take(&mut self.feasible_scratch);
                feas.clear();
                let mut m = feasible;
                while m != 0 {
                    feas.push(m.trailing_zeros() as usize);
                    m &= m - 1;
                }
                chosen.extend((0..n_slots).map(|i| feas[i * feas.len() / n_slots]));
                self.feasible_scratch = feas;
            }
            SlotStrategy::Consecutive => {
                // A run s, s+1, …, s+n-1 of feasible injection slots
                // (wrapping).
                let bit = |s: usize| feasible >> (s % stu) & 1 == 1;
                let start = (0..stu)
                    .find(|&s| (0..n_slots).all(|k| bit(s + k)))
                    .ok_or(SlotError::NoConsecutiveRun { requested: n_slots })?;
                chosen.extend((0..n_slots).map(|k| (start + k) % stu));
                chosen.sort_unstable();
            }
        }
        // Commit: one occupancy entry per link, all chosen slots at once.
        let mut reserved = Vec::with_capacity(chosen.len() * links.len());
        for (h, &(link, g)) in links.iter().enumerate() {
            let shift = Self::link_shift(h, g);
            let occ = self.occupancy.entry(link).or_insert(0);
            for &s in &chosen {
                let base = (s + shift) % stu;
                *occ |= 1 << base;
                reserved.push((link, base));
            }
        }
        Ok(SlotAllocation {
            injection_slots: chosen,
            reserved,
        })
    }

    /// Releases a reservation (one occupancy lookup per run of same-link
    /// entries — `reserved` is grouped by link by construction).
    pub fn free(&mut self, alloc: &SlotAllocation) {
        let mut i = 0;
        while i < alloc.reserved.len() {
            let link = alloc.reserved[i].0;
            let mut mask = 0u64;
            while i < alloc.reserved.len() && alloc.reserved[i].0 == link {
                mask |= 1 << alloc.reserved[i].1;
                i += 1;
            }
            if let Some(m) = self.occupancy.get_mut(&link) {
                *m &= !mask;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::Topology;

    fn setup() -> (Topology, SlotAllocator) {
        (Topology::mesh(2, 2, 1), SlotAllocator::new(8))
    }

    #[test]
    fn simple_allocation_succeeds() {
        let (topo, mut alloc) = setup();
        let path = topo.route(0, 3).unwrap();
        let a = alloc
            .allocate(&topo, 0, &path, 2, SlotStrategy::Spread)
            .unwrap();
        assert_eq!(a.injection_slots.len(), 2);
        assert!((a.bandwidth_fraction(8) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn spread_minimizes_gap() {
        let (topo, mut alloc) = setup();
        let path = topo.route(0, 3).unwrap();
        let a = alloc
            .allocate(&topo, 0, &path, 4, SlotStrategy::Spread)
            .unwrap();
        assert_eq!(a.max_gap(8), 2, "4 of 8 slots evenly spread: gap 2");
    }

    #[test]
    fn consecutive_produces_run() {
        let (topo, mut alloc) = setup();
        let path = topo.route(0, 3).unwrap();
        let a = alloc
            .allocate(&topo, 0, &path, 3, SlotStrategy::Consecutive)
            .unwrap();
        assert_eq!(a.injection_slots, vec![0, 1, 2]);
        assert_eq!(a.max_gap(8), 6);
    }

    #[test]
    fn pipelined_shift_applied_per_hop() {
        let (topo, mut alloc) = setup();
        let path = topo.route(0, 3).unwrap(); // E, S, eject: 4 links incl. injection
        let a = alloc
            .allocate(&topo, 0, &path, 1, SlotStrategy::Spread)
            .unwrap();
        let s = a.injection_slots[0];
        // The shared router1→router3 link (hop index 2) holds slot s+2.
        assert_eq!(alloc.reserved_on((1, 2)), 1);
        let _ = s;
    }

    #[test]
    fn conflicting_flows_get_disjoint_slots() {
        let (topo, mut alloc) = setup();
        let p03 = topo.route(0, 3).unwrap();
        let p13 = topo.route(1, 3).unwrap();
        let a = alloc
            .allocate(&topo, 0, &p03, 4, SlotStrategy::Spread)
            .unwrap();
        let b = alloc
            .allocate(&topo, 1, &p13, 4, SlotStrategy::Spread)
            .unwrap();
        // Shared link router1→south: slots of a at s+2, of b at s'+1 — the
        // allocator must have kept them disjoint.
        let mut used = std::collections::HashSet::new();
        for &s in &a.injection_slots {
            assert!(used.insert((s + 2) % 8));
        }
        for &s in &b.injection_slots {
            assert!(used.insert((s + 1) % 8), "overlap on shared link");
        }
    }

    #[test]
    fn exhaustion_reported() {
        let (topo, mut alloc) = setup();
        let path = topo.route(0, 3).unwrap();
        let _ = alloc
            .allocate(&topo, 0, &path, 8, SlotStrategy::Spread)
            .unwrap();
        let err = alloc
            .allocate(&topo, 0, &path, 1, SlotStrategy::Spread)
            .unwrap_err();
        assert_eq!(
            err,
            SlotError::Insufficient {
                requested: 1,
                available: 0
            }
        );
    }

    #[test]
    fn free_releases_slots() {
        let (topo, mut alloc) = setup();
        let path = topo.route(0, 3).unwrap();
        let a = alloc
            .allocate(&topo, 0, &path, 8, SlotStrategy::Spread)
            .unwrap();
        alloc.free(&a);
        let b = alloc.allocate(&topo, 0, &path, 8, SlotStrategy::Spread);
        assert!(b.is_ok(), "all slots reusable after free");
    }

    #[test]
    fn max_gap_wraps_circularly() {
        let a = SlotAllocation {
            injection_slots: vec![0, 1],
            reserved: vec![],
        };
        assert_eq!(a.max_gap(8), 7, "gap from slot 1 around to slot 0");
        let b = SlotAllocation {
            injection_slots: vec![2],
            reserved: vec![],
        };
        assert_eq!(b.max_gap(8), 8, "single slot: full-period gap");
    }

    #[test]
    fn allocate_route_single_segment_matches_allocate() {
        let (topo, mut a1) = setup();
        let mut a2 = SlotAllocator::new(8);
        let path = topo.route(0, 3).unwrap();
        let route = topo.route_any(0, 3).unwrap();
        let r1 = a1
            .allocate(&topo, 0, &path, 3, SlotStrategy::Spread)
            .unwrap();
        let r2 = a2
            .allocate_route(&topo, 0, &route, 3, SlotStrategy::Spread)
            .unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn allocate_route_shifts_one_whole_slot_per_gateway() {
        let topo = Topology::mesh(8, 8, 1);
        let mut alloc = SlotAllocator::new(8);
        let route = topo.route_any(0, 63).unwrap(); // segments 7 E, 7 S, eject
        let a = alloc
            .allocate_route(&topo, 0, &route, 1, SlotStrategy::Spread)
            .unwrap();
        assert_eq!(a.injection_slots.len(), 1);
        // Before the first gateway (router 7): exactly one slot per link.
        assert_eq!(alloc.reserved_on((0, noc_sim::topology::dir::EAST)), 1);
        // After one slot-aligned gateway rewrite the packet is one whole
        // slot late: still exactly one slot on the first southbound link
        // (the pre-alignment allocator needed a base + spill pair here).
        assert_eq!(alloc.reserved_on((7, noc_sim::topology::dir::SOUTH)), 1);
        let s = a.injection_slots[0];
        assert!(
            a.reserved
                .contains(&((7, noc_sim::topology::dir::SOUTH), (s + 9) % 8)),
            "hop 8 plus one whole gateway slot"
        );
        alloc.free(&a);
        assert_eq!(alloc.reserved_on((7, noc_sim::topology::dir::SOUTH)), 0);
    }

    #[test]
    fn gateway_shifted_connections_stay_disjoint() {
        // Two connections sharing the southbound column-7 links, one of
        // them beyond its gateway: the allocator must keep every (link,
        // slot) pair single-owner, including the spill slots.
        let topo = Topology::mesh(8, 8, 1);
        let mut alloc = SlotAllocator::new(8);
        let long = topo.route_any(0, 63).unwrap();
        let short = topo.route_any(15, 63).unwrap(); // straight down col 7
        let a = alloc
            .allocate_route(&topo, 0, &long, 2, SlotStrategy::Spread)
            .unwrap();
        let b = alloc
            .allocate_route(&topo, 15, &short, 2, SlotStrategy::Spread)
            .unwrap();
        // Across allocations every (link, slot) pair must be single-owner,
        // including the whole-slot gateway shifts.
        for (link, slot) in &a.reserved {
            assert!(
                !b.reserved.contains(&(*link, *slot)),
                "slot {slot} on link {link:?} double-booked"
            );
        }
    }

    #[test]
    fn full_table_consecutive() {
        let (topo, mut alloc) = setup();
        let path = topo.route(0, 1).unwrap();
        let a = alloc
            .allocate(&topo, 0, &path, 8, SlotStrategy::Consecutive)
            .unwrap();
        assert_eq!(a.injection_slots, (0..8).collect::<Vec<_>>());
    }
}
