//! Stress tests of the router network: many flows, shared links, mixed
//! classes — checking losslessness, ordering, class isolation and the
//! contention invariants under sustained load.

use noc_sim::topology::RouterEdge;
use noc_sim::{LinkWord, Noc, PacketHeader, Path, Rng64, Topology, WordClass, SLOT_WORDS};

/// A BE packet as link words.
fn be_packet(path: Path, qid: u8, payload: &[u32]) -> Vec<LinkWord> {
    let h = PacketHeader {
        path,
        qid,
        credits: 0,
        flush: false,
    };
    if payload.is_empty() {
        return vec![LinkWord::header_only(h.pack(), WordClass::BestEffort)];
    }
    let mut v = vec![LinkWord::header(h.pack(), WordClass::BestEffort)];
    for (i, &w) in payload.iter().enumerate() {
        v.push(LinkWord::payload(
            w,
            WordClass::BestEffort,
            i + 1 == payload.len(),
        ));
    }
    v
}

#[test]
fn all_to_one_be_hotspot_is_lossless() {
    // Every NI of a 3x3 mesh sends packets to NI 4 (the centre) — a classic
    // hotspot. All packets must arrive whole and unreordered per source.
    let topo = Topology::mesh(3, 3, 1);
    let mut noc = Noc::new(&topo);
    let n = topo.ni_count();
    let target = 4usize;
    let packets_per_src = 12usize;
    let payload_len = 5usize;
    // Per-source word streams, tag = (src << 16) | seq.
    let mut streams: Vec<Vec<LinkWord>> = Vec::new();
    for src in 0..n {
        let mut words = Vec::new();
        if src == target {
            streams.push(words);
            continue;
        }
        for p in 0..packets_per_src {
            let payload: Vec<u32> = (0..payload_len)
                .map(|i| ((src as u32) << 16) | ((p * payload_len + i) as u32))
                .collect();
            words.extend(be_packet(
                topo.route(src, target).expect("route"),
                (src % 32) as u8,
                &payload,
            ));
        }
        streams.push(words);
    }
    let mut sent = vec![0usize; n];
    let mut received: Vec<LinkWord> = Vec::new();
    for _ in 0..60_000 {
        for src in 0..n {
            if sent[src] < streams[src].len() {
                let link = noc.ni_link_mut(src);
                if !link.is_busy() && link.be_credits() > 0 {
                    link.send(streams[src][sent[src]]);
                    sent[src] += 1;
                }
            }
        }
        noc.tick();
        while let Some(w) = noc.ni_link_mut(target).recv() {
            received.push(w);
        }
        if sent.iter().enumerate().all(|(s, &k)| k == streams[s].len())
            && received.len() == (n - 1) * packets_per_src * (payload_len + 1)
        {
            break;
        }
    }
    assert_eq!(
        received.len(),
        (n - 1) * packets_per_src * (payload_len + 1),
        "every word arrives"
    );
    assert_eq!(noc.be_overflows(), 0);
    assert_eq!(noc.gt_conflicts(), 0);
    // Per-source payload order preserved.
    let mut per_src: Vec<Vec<u32>> = vec![Vec::new(); n];
    for w in &received {
        if !w.is_header() {
            let src = (w.word() >> 16) as usize;
            per_src[src].push(w.word() & 0xFFFF);
        }
    }
    for (src, seq) in per_src.iter().enumerate() {
        if src == target {
            continue;
        }
        let expected: Vec<u32> = (0..(packets_per_src * payload_len) as u32).collect();
        assert_eq!(seq, &expected, "source {src} words in order");
    }
}

#[test]
fn random_be_pairs_on_mesh_never_violate_invariants() {
    let topo = Topology::mesh(3, 3, 1);
    let mut noc = Noc::new(&topo);
    let mut rng = Rng64::seed_from_u64(42);
    let n = topo.ni_count();
    // Precompute random single-packet sends with random timing.
    let mut pending: Vec<(usize, Vec<LinkWord>, usize)> = Vec::new(); // (src, words, idx)
    let mut expected_words = 0usize;
    for _ in 0..60 {
        let src = rng.below_usize(n);
        let mut dst = rng.below_usize(n);
        while dst == src {
            dst = rng.below_usize(n);
        }
        let len = rng.below_usize(6);
        let payload: Vec<u32> = (0..len).map(|_| rng.next_u64() as u32).collect();
        let words = be_packet(topo.route(src, dst).expect("route"), 0, &payload);
        expected_words += words.len();
        pending.push((src, words, 0));
    }
    let mut delivered = 0usize;
    for _ in 0..100_000 {
        for (src, words, idx) in &mut pending {
            if *idx < words.len() {
                let link = noc.ni_link_mut(*src);
                if !link.is_busy() && link.be_credits() > 0 {
                    link.send(words[*idx]);
                    *idx += 1;
                }
                // Only one packet per source link per cycle round.
                break;
            }
        }
        noc.tick();
        for ni in 0..n {
            while noc.ni_link_mut(ni).recv().is_some() {
                delivered += 1;
            }
        }
        if delivered == expected_words {
            break;
        }
    }
    assert_eq!(delivered, expected_words);
    assert_eq!(noc.be_overflows(), 0);
    assert_eq!(noc.gt_conflicts(), 0);
}

#[test]
fn gt_circuit_sustains_full_rate_across_four_hops() {
    // A GT circuit over the 4-hop diagonal of a 3x3 mesh, all 8 slots: the
    // circuit must carry one flit per slot indefinitely with zero jitter.
    let topo = Topology::mesh(3, 3, 1);
    let mut noc = Noc::new(&topo);
    let path = topo.route(0, 8).expect("diagonal");
    let hops = path.hops() as u64;
    let h = PacketHeader {
        path,
        qid: 3,
        credits: 0,
        flush: false,
    };
    let frames = 64u64;
    let mut arrivals = Vec::new();
    for f in 0..frames {
        for c in 0..SLOT_WORDS {
            if c == 0 {
                noc.ni_link_mut(0)
                    .send(LinkWord::header(h.pack(), WordClass::Guaranteed));
            } else {
                noc.ni_link_mut(0)
                    .send(LinkWord::payload(f as u32, WordClass::Guaranteed, c == 2));
            }
            noc.tick();
            while let Some(w) = noc.ni_link_mut(8).recv() {
                if w.is_header() {
                    arrivals.push(noc.cycle() - 1);
                }
            }
        }
    }
    // Drain the pipeline cycle by cycle so arrival timestamps stay exact.
    for _ in 0..hops * SLOT_WORDS + 10 {
        noc.tick();
        while let Some(w) = noc.ni_link_mut(8).recv() {
            if w.is_header() {
                arrivals.push(noc.cycle() - 1);
            }
        }
    }
    assert_eq!(arrivals.len() as u64, frames, "one flit per slot sustained");
    for pair in arrivals.windows(2) {
        assert_eq!(
            pair[1] - pair[0],
            SLOT_WORDS,
            "zero jitter on a full circuit"
        );
    }
    assert_eq!(noc.gt_conflicts(), 0);
}

#[test]
fn link_stats_account_every_word() {
    let topo = Topology::mesh(2, 1, 1);
    let mut noc = Noc::new(&topo);
    let path = topo.route(0, 1).expect("route");
    let words = be_packet(path, 2, &[1, 2, 3]);
    for w in &words {
        noc.ni_link_mut(0).send(*w);
        noc.tick();
    }
    noc.run(20);
    let total: u64 = noc.stats().links.iter().map(|l| l.total_words()).sum();
    // Each word crosses 3 links: NI0→r0, r0→r1, r1→NI1... wait: route [E,
    // eject] means r0→r1 then r1→NI1, plus the injection link = 3 links.
    assert_eq!(total, 3 * words.len() as u64);
    let headers: u64 = noc.stats().links.iter().map(|l| l.headers[1]).sum();
    assert_eq!(headers, 3, "one header crossing per link");
    assert_eq!(noc.stats().delivered[1], words.len() as u64);
}

#[test]
fn ring_bidirectional_traffic() {
    // A 6-router ring from explicit parts: port 0 clockwise, port 1
    // counter-clockwise, port 2 local; BFS takes the short way.
    let edges = (0..6)
        .map(|r| RouterEdge {
            a: r,
            port_a: 0,
            b: (r + 1) % 6,
            port_b: 1,
        })
        .collect();
    let topo = Topology::custom(vec![3; 6], edges, (0..6).map(|r| (r, 2)).collect());
    let mut noc = Noc::new(&topo);
    // Every NI sends one packet to its opposite.
    let mut streams: Vec<Vec<LinkWord>> = Vec::new();
    for src in 0..6usize {
        let dst = (src + 3) % 6;
        streams.push(be_packet(
            topo.route(src, dst).expect("route"),
            src as u8,
            &[src as u32],
        ));
    }
    let mut sent = [0usize; 6];
    let mut got = [0usize; 6];
    for _ in 0..2_000 {
        for src in 0..6 {
            if sent[src] < streams[src].len() {
                let link = noc.ni_link_mut(src);
                if !link.is_busy() && link.be_credits() > 0 {
                    link.send(streams[src][sent[src]]);
                    sent[src] += 1;
                }
            }
        }
        noc.tick();
        for (ni, g) in got.iter_mut().enumerate() {
            while noc.ni_link_mut(ni).recv().is_some() {
                *g += 1;
            }
        }
    }
    assert_eq!(got.iter().sum::<usize>(), 12, "6 packets × 2 words each");
    assert_eq!(noc.be_overflows(), 0);
}
