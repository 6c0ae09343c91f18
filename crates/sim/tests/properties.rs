//! Property-based tests of the substrate's encodings and transport
//! invariants.

use aethereal_testkit::prelude::*;
use noc_sim::engine::ClockDomain;
use noc_sim::topology::dir;
use noc_sim::{
    LinkWord, Noc, PacketHeader, Path, RouteError, Topology, WordClass, MAX_HOPS,
    MAX_ROUTE_SEGMENTS,
};

fn arb_path() -> impl Strategy<Value = Path> {
    prop::collection::vec(0u8..=5, 0..=7).prop_map(|hops| Path::new(&hops).expect("valid hops"))
}

fn arb_header() -> impl Strategy<Value = PacketHeader> {
    (arb_path(), 0u8..32, 0u32..32, any::<bool>()).prop_map(|(path, qid, credits, flush)| {
        PacketHeader {
            path,
            qid,
            credits,
            flush,
        }
    })
}

proptest! {
    #[test]
    fn path_encode_decode_roundtrip(path in arb_path()) {
        prop_assert_eq!(Path::decode(path.encode()), path);
    }

    #[test]
    fn path_shift_consumes_hops_in_order(path in arb_path()) {
        let mut bits = path.encode();
        for hop in path.iter() {
            prop_assert_eq!(Path::peek_encoded(bits), Some(hop));
            bits = Path::shift_encoded(bits);
        }
        prop_assert_eq!(Path::peek_encoded(bits), None);
    }

    #[test]
    fn header_pack_unpack_roundtrip(h in arb_header()) {
        prop_assert_eq!(PacketHeader::unpack(h.pack()), h);
    }

    #[test]
    fn header_shift_preserves_non_path_fields(h in arb_header()) {
        let shifted = PacketHeader::unpack(Path::shift_header(h.pack()));
        prop_assert_eq!(shifted.qid, h.qid);
        prop_assert_eq!(shifted.credits, h.credits);
        prop_assert_eq!(shifted.flush, h.flush);
        let expected: Vec<_> = h.path.iter().skip(1).collect();
        let got: Vec<_> = shifted.path.iter().collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn field_extractors_agree_with_unpack(h in arb_header()) {
        let w = h.pack();
        prop_assert_eq!(u32::from(PacketHeader::qid_of(w)), u32::from(h.qid));
        prop_assert_eq!(PacketHeader::credits_of(w), h.credits);
    }

    #[test]
    fn mesh_routes_always_terminate_at_target(
        w in 1usize..=4,
        h in 1usize..=4,
        from_seed in any::<u32>(),
        to_seed in any::<u32>(),
    ) {
        let topo = Topology::mesh(w, h, 1);
        let n = topo.ni_count();
        let from = from_seed as usize % n;
        let to = to_seed as usize % n;
        let path = topo.route(from, to).expect("mesh routes always exist");
        // Walk the route through the topology; it must end ejecting at the
        // router where `to` attaches.
        let (mut router, _) = topo.ni_attachment(from).expect("from exists");
        let hops: Vec<_> = path.iter().collect();
        for (i, &hop) in hops.iter().enumerate() {
            if i + 1 == hops.len() {
                prop_assert_eq!(topo.ni_at(router, hop), Some(to));
            } else {
                let (next, _) = topo.neighbour(router, hop).expect("interior hop is a link");
                router = next;
            }
        }
    }

    #[test]
    fn xy_routes_are_minimal(
        w in 1usize..=4,
        h in 1usize..=4,
        from_seed in any::<u32>(),
        to_seed in any::<u32>(),
    ) {
        let topo = Topology::mesh(w, h, 1);
        let n = topo.ni_count();
        let from = from_seed as usize % n;
        let to = to_seed as usize % n;
        let path = topo.route(from, to).expect("route exists");
        let (fx, fy) = (from % w, from / w);
        let (tx, ty) = (to % w, to / w);
        let manhattan = fx.abs_diff(tx) + fy.abs_diff(ty);
        prop_assert_eq!(path.hops(), manhattan + 1, "link hops + ejection");
    }

    #[test]
    fn be_transport_is_lossless_ordered_uncorrupted(
        payload in prop::collection::vec(any::<u32>(), 1..24),
        qid in 0u8..8,
    ) {
        let topo = Topology::mesh(2, 2, 1);
        let mut noc = Noc::new(&topo);
        let path = topo.route(0, 3).expect("route exists");
        let header = PacketHeader { path, qid, credits: 0, flush: false };
        let mut words = vec![LinkWord::header(header.pack(), WordClass::BestEffort)];
        for (i, &p) in payload.iter().enumerate() {
            words.push(LinkWord::payload(p, WordClass::BestEffort, i + 1 == payload.len()));
        }
        let mut sent = 0usize;
        let mut got = Vec::new();
        for _ in 0..600 {
            {
                let link = noc.ni_link_mut(0);
                if sent < words.len() && !link.is_busy() && link.be_credits() > 0 {
                    link.send(words[sent]);
                    sent += 1;
                }
            }
            noc.tick();
            while let Some(wd) = noc.ni_link_mut(3).recv() {
                got.push(wd);
            }
        }
        prop_assert_eq!(got.len(), words.len());
        prop_assert!(got[0].is_header());
        prop_assert_eq!(PacketHeader::qid_of(got[0].word()), qid);
        let got_payload: Vec<u32> = got[1..].iter().map(|w| w.word()).collect();
        prop_assert_eq!(got_payload, payload);
        prop_assert!(got.last().expect("non-empty").is_tail());
        prop_assert_eq!(noc.be_overflows(), 0);
    }

    #[test]
    fn gt_pipelined_slots_never_conflict_when_offsets_differ(
        offset_a in 0u64..8,
        offset_delta in 1u64..4,
        rounds in 1u64..6,
    ) {
        // Two GT flows sharing the router1→router3 link of a 2x2 mesh.
        // Flow A (NI0, 2 hops to the shared link) injected at slot s lands
        // in slot s+2; flow B (NI1, 1 hop) at slot s' lands in s'+1.
        // Any s' with s'+1 ≢ s+2 (mod table) is conflict-free; we use
        // distinct per-round slots in a 8-slot frame.
        let topo = Topology::mesh(2, 2, 1);
        let mut noc = Noc::new(&topo);
        let pa = topo.route(0, 3).expect("route");
        let pb = topo.route(1, 3).expect("route");
        let slot_a = offset_a % 8;
        let slot_b = (offset_a + offset_delta) % 8; // s' = s+Δ, Δ∈1..4 ⇒ s'+1 ≠ s+2 unless Δ=1
        prop_assume!((slot_b + 1) % 8 != (slot_a + 2) % 8);
        let ha = PacketHeader { path: pa, qid: 0, credits: 0, flush: false };
        let hb = PacketHeader { path: pb, qid: 1, credits: 0, flush: false };
        for _round in 0..rounds {
            // One 8-slot frame: emit A's flit at slot_a, B's at slot_b.
            for slot in 0..8u64 {
                for c in 0..3u64 {
                    if slot == slot_a && c == 0 {
                        noc.ni_link_mut(0).send(LinkWord::header_only(
                            ha.pack(),
                            WordClass::Guaranteed,
                        ));
                    }
                    if slot == slot_b && c == 0 {
                        noc.ni_link_mut(1).send(LinkWord::header_only(
                            hb.pack(),
                            WordClass::Guaranteed,
                        ));
                    }
                    noc.tick();
                }
            }
        }
        noc.run(60);
        prop_assert_eq!(noc.gt_conflicts(), 0);
        let mut a = 0u64;
        let mut b = 0u64;
        while let Some(w) = noc.ni_link_mut(3).recv() {
            match PacketHeader::qid_of(w.word()) {
                0 => a += 1,
                1 => b += 1,
                _ => prop_assert!(false, "unexpected qid"),
            }
        }
        prop_assert_eq!(a, rounds);
        prop_assert_eq!(b, rounds);
    }
}

proptest! {
    /// `edges_in` agrees with a brute-force count of `ticks_at` edges.
    #[test]
    fn clock_domain_edges_match_brute_force(
        div in 1u32..=17,
        start in 0u64..1000,
        len in 0u64..200,
    ) {
        let d = ClockDomain::new(div);
        let brute = (start..start + len).filter(|&c| d.ticks_at(c)).count() as u64;
        prop_assert_eq!(d.edges_in(start, len), brute);
    }

    /// Edge counting is additive over adjacent windows.
    #[test]
    fn clock_domain_edges_are_additive(
        div in 1u32..=17,
        start in 0u64..1000,
        a in 0u64..200,
        b in 0u64..200,
    ) {
        let d = ClockDomain::new(div);
        prop_assert_eq!(
            d.edges_in(start, a + b),
            d.edges_in(start, a) + d.edges_in(start + a, b)
        );
    }

    /// `next_edge` returns the first edge at or after the query cycle.
    #[test]
    fn clock_domain_next_edge_is_tight(div in 1u32..=17, cycle in 0u64..2000) {
        let d = ClockDomain::new(div);
        let e = d.next_edge(cycle);
        prop_assert!(e >= cycle);
        prop_assert!(d.ticks_at(e));
        prop_assert_eq!(d.edges_in(cycle, e - cycle), 0, "no edge before it");
    }

    /// Local time advances exactly on edges: after `n` base cycles the
    /// domain has seen `edges_in(0, n)` edges, which equals `local_now`
    /// rounded the same way the divider hardware does.
    #[test]
    fn clock_domain_local_time_consistent(div in 1u32..=17, n in 0u64..5000) {
        let d = ClockDomain::new(div);
        prop_assert_eq!(d.edges_in(0, n), n.div_ceil(u64::from(div)));
        prop_assert_eq!(d.local_now(n), n / u64::from(div));
    }
}

/// Replays a (possibly multi-segment) route hop by hop through the
/// topology: every non-final hop must cross a real inter-router edge, the
/// final hop must eject into the destination NI.
fn route_is_walkable(topo: &Topology, from: usize, to: usize, route: &noc_sim::Route) {
    let (mut r, _) = topo.ni_attachment(from).expect("source NI");
    let hops: Vec<_> = route.iter_hops().collect();
    for (i, &hop) in hops.iter().enumerate() {
        if i + 1 == hops.len() {
            assert_eq!(topo.ni_at(r, hop), Some(to), "last hop ejects at dest");
        } else {
            let (nr, _) = topo
                .neighbour(r, hop)
                .expect("non-final hops cross router edges");
            r = nr;
        }
    }
}

proptest! {
    /// Any-pair routes on 4x4–16x16 meshes are walkable, minimal-length
    /// (XY distance + ejection), within the segment encoding limits, and
    /// split only when they exceed one header.
    #[test]
    fn route_any_is_valid_minimal_and_splits_only_when_needed(
        width in 4usize..=16,
        height in 4usize..=16,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let topo = Topology::mesh(width, height, 1);
        let n = width * height;
        let from = (a % n as u64) as usize;
        let to = (b % n as u64) as usize;
        let route = topo.route_any(from, to).expect("any pair routes");
        let (fx, fy) = (from % width, from / width);
        let (tx, ty) = (to % width, to / width);
        let minimal = fx.abs_diff(tx) + fy.abs_diff(ty) + 1;
        prop_assert_eq!(route.total_hops(), minimal, "minimal XY length");
        prop_assert_eq!(
            route.is_single(),
            minimal <= noc_sim::MAX_HOPS,
            "split exactly when one header is not enough"
        );
        prop_assert!(route.segments().len() <= noc_sim::MAX_ROUTE_SEGMENTS);
        for (i, seg) in route.segments().iter().enumerate() {
            prop_assert!(seg.hops() <= noc_sim::MAX_HOPS);
            prop_assert!(!seg.is_empty(), "segment {} empty", i);
        }
        route_is_walkable(&topo, from, to, &route);
    }

    /// Long routes split the one greedy way, on 8x8 and 16x16 meshes with
    /// and without failed links: exactly `ceil(total_hops / MAX_HOPS)`
    /// segments, every one but the last full, over the hops of the unsplit
    /// minimal route — the XY list on a maskless mesh, a shortest walkable
    /// detour around the masked links otherwise.
    #[test]
    fn route_any_splits_greedily_into_the_fewest_segments(
        shape in 0usize..4,
        a in any::<u64>(),
        b in any::<u64>(),
        masks in prop::collection::vec((any::<u64>(), 0u8..4), 1..=8),
    ) {
        let (side, masked) = [(8, false), (16, false), (8, true), (16, true)][shape];
        let n = side * side;
        let mut topo = Topology::mesh(side, side, 1);
        if masked {
            for &(r, port) in &masks {
                topo.mask_link((r % n as u64) as usize, port);
            }
        }
        let from = (a % n as u64) as usize;
        let to = (b % n as u64) as usize;
        let planned = topo.route_any(from, to);
        let Some(distance) = router_distance(&topo, from, to) else {
            prop_assert!(planned.is_err(), "unreachable pairs are refused");
            return Ok(());
        };
        let total = distance + 1;
        if total > MAX_HOPS * MAX_ROUTE_SEGMENTS {
            prop_assert!(matches!(planned, Err(RouteError::Segmenting(_))));
            return Ok(());
        }
        let route = planned.expect("reachable pairs within the segment budget route");
        prop_assert_eq!(route.total_hops(), total, "minimal length");
        prop_assert_eq!(route.segments().len(), total.div_ceil(MAX_HOPS));
        let (last, full) = route.segments().split_last().expect("at least one segment");
        for seg in full {
            prop_assert_eq!(seg.hops(), MAX_HOPS, "greedy: every window is full");
        }
        prop_assert_eq!(last.hops(), total - MAX_HOPS * full.len());
        let hops: Vec<_> = route.iter_hops().collect();
        if masked {
            route_is_walkable(&topo, from, to, &route);
            let (mut r, _) = topo.ni_attachment(from).expect("source NI");
            for &hop in &hops {
                prop_assert!(!topo.is_masked(r, hop), "router {} port {} is masked", r, hop);
                r = topo.neighbour(r, hop).map_or(r, |(nr, _)| nr);
            }
        } else {
            let (fx, fy, tx, ty) = (from % side, from / side, to % side, to / side);
            let mut xy = vec![if tx > fx { dir::EAST } else { dir::WEST }; fx.abs_diff(tx)];
            xy.extend(vec![if ty > fy { dir::SOUTH } else { dir::NORTH }; fy.abs_diff(ty)]);
            xy.push(dir::LOCAL0);
            prop_assert_eq!(hops, xy, "the unsplit XY route");
        }
    }
}

/// Breadth-first router distance over the unmasked links (`None` when
/// unreachable): a minimal route's length before its ejection hop.
fn router_distance(topo: &Topology, from: usize, to: usize) -> Option<usize> {
    let (from, _) = topo.ni_attachment(from)?;
    let (to, _) = topo.ni_attachment(to)?;
    let mut dist = vec![usize::MAX; topo.router_count()];
    dist[from] = 0;
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(r) = queue.pop_front() {
        for p in 0..topo.ports_of(r) as u8 {
            match topo.neighbour(r, p) {
                Some((nr, _)) if !topo.is_masked(r, p) && dist[nr] == usize::MAX => {
                    dist[nr] = dist[r] + 1;
                    queue.push_back(nr);
                }
                _ => {}
            }
        }
    }
    (dist[to] != usize::MAX).then_some(dist[to])
}
