//! Two-level (multi-segment) routing end to end.
//!
//! The 32-bit header encodes at most 7 hops, which used to cap streams at
//! 4x4-mesh distances. These tests pin the lifted limit — any-pair routes
//! on 8x8 meshes, configured both directly and through the NoC itself —
//! and the two invariants that make the feature safe to ship:
//!
//! * **Seed bit-parity**: routes that fit one header produce bit-identical
//!   header words to the seed encoding (golden literals), and the planner
//!   never splits them.
//! * **Shard parity**: an 8x8 run whose regions align with the execution
//!   partition is bit-identical between the unsplit and sharded drivers,
//!   gateway rewrites included.

use aethereal::cfg::runtime::{ChannelEnd, ConfigError, ConnectionRequest, Service};
use aethereal::cfg::{
    presets, NocSpec, NocSystem, RegionsSpec, RuntimeConfigurator, ShardedSystem, SlotStrategy,
    TopologySpec,
};
use aethereal::ni::kernel::regs::CTRL_ENABLE;
use aethereal::ni::kernel::{chan_reg_addr, ext_reg_addr, pack_path_rqid, ChanReg};
use aethereal::proto::{
    MemorySlave, StreamSink, StreamSource, TrafficGenerator, TrafficGeneratorConfig, TrafficMix,
};
use aethereal::sim::shard::Partition;
use aethereal::sim::PacketHeader;
use aethereal::sim::{Engine, Path, Route, Topology, MAX_HOPS};

// ---- Seed bit-parity ----------------------------------------------------

/// Golden header words from the seed wire format (5 credits | 1 flush |
/// 5 qid | 21 path bits, 3-bit hops, all-ones terminator). Any change to
/// these literals is a wire-format break for existing ≤7-hop traffic.
#[test]
fn seed_header_encoding_is_bit_identical() {
    assert_eq!(Path::new(&[1, 2, 4]).unwrap().encode(), 0x1FFF11);
    let h = PacketHeader {
        path: Path::new(&[1, 2, 4]).unwrap(),
        qid: 3,
        credits: 12,
        flush: false,
    };
    assert_eq!(h.pack(), 0x607F_FF11);
    let extremes = PacketHeader {
        path: Path::new(&[1, 1, 1, 2, 2, 2, 4]).unwrap(),
        qid: 31,
        credits: 31,
        flush: true,
    };
    assert_eq!(extremes.pack(), 0xFFF1_2449);
    let empty = PacketHeader {
        path: Path::empty(),
        qid: 0,
        credits: 0,
        flush: false,
    };
    assert_eq!(empty.pack(), 0x001F_FFFF);
    let two_hop = PacketHeader {
        path: Path::new(&[2, 4]).unwrap(),
        qid: 5,
        credits: 0,
        flush: false,
    };
    assert_eq!(two_hop.pack(), 0x00BF_FFE2);
}

/// On meshes where every route fits one header, the any-pair planner is a
/// bit-identical drop-in: single segment, same encoding, no continuation
/// words.
#[test]
fn planner_never_splits_short_routes() {
    let topo = Topology::mesh(4, 4, 1);
    for from in 0..16 {
        for to in 0..16 {
            let single = topo.route(from, to).expect("4x4 routes fit one header");
            let route = topo.route_any(from, to).expect("planner agrees");
            assert!(route.is_single(), "{from}->{to} must not split");
            assert_eq!(route.header_segment().encode(), single.encode());
            assert!(single.hops() <= MAX_HOPS);
        }
    }
}

// ---- Runtime configuration across an 8x8 mesh ---------------------------

fn corner_spec() -> NocSpec {
    let mut nis = vec![presets::cfg_module_ni(0, 8)];
    for id in 1..63 {
        nis.push(presets::master_ni(id));
    }
    nis.push(presets::slave_ni(63));
    NocSpec::new(
        TopologySpec::Mesh {
            width: 8,
            height: 8,
            nis_per_router: 1,
        },
        nis,
    )
}

/// The runtime configurator itself now reaches every NI: its config
/// connections (NI 0 → NI 63 CNIP: 15 hops, two gateway rewrites) and the
/// user connection both run over multi-segment routes, and a master/slave
/// transaction workload completes across the full mesh diagonal.
#[test]
fn runtime_configuration_and_transactions_span_8x8() {
    let spec = corner_spec();
    let mut sys = NocSystem::from_spec(&spec);
    let mut cfg = RuntimeConfigurator::new(spec.build_topology(), 0, 0, 8);
    cfg.open_connection(
        &mut sys,
        &ConnectionRequest::best_effort(
            ChannelEnd { ni: 1, channel: 1 },
            ChannelEnd { ni: 63, channel: 1 },
        ),
    )
    .expect("BE connection across the diagonal opens");
    assert!(
        cfg.stats().remote_writes > 0,
        "CNIP configured over the NoC"
    );
    sys.bind_master(
        1,
        1,
        Box::new(TrafficGenerator::new(TrafficGeneratorConfig {
            seed: 7,
            addr_base: 0,
            addr_range: 0x100,
            mix: TrafficMix::Mixed { read_fraction: 0.5 },
            burst: (1, 4),
            gap_cycles: 3,
            total: Some(20),
            max_outstanding: 4,
        })),
    );
    sys.bind_slave(63, 1, Box::new(MemorySlave::new(2)));
    assert!(
        Engine::run_until(&mut sys, |s| s.all_ips_done(), 60_000),
        "workload must complete"
    );
    // Let the last responses land.
    sys.run(2_000);
    let g = sys.master_ip_as::<TrafficGenerator>(0);
    assert_eq!(g.issued(), 20);
    assert_eq!(g.completed(), 20);
    assert_eq!(g.errors(), 0);
    assert_eq!(sys.noc.gt_conflicts(), 0);
    assert_eq!(sys.noc.be_overflows(), 0);
    for ni in &sys.nis {
        assert_eq!(ni.kernel.stats().rx_drops, 0);
    }
    // The request channel really is two-level.
    assert!(sys.nis[1].kernel.stats().route_ext_words_tx > 0);
}

/// GT service over a multi-segment route: Spread single-slot budgets cannot
/// carry header + 2 continuations + payload, and are rejected up front; a
/// consecutive 2-slot run works and stays contention-free.
#[test]
fn gt_across_8x8_needs_and_gets_a_consecutive_run() {
    let mut nis = vec![presets::master_ni(0)];
    for id in 1..63 {
        if id == 9 {
            nis.push(presets::cfg_module_ni(9, 8));
        } else {
            nis.push(presets::master_ni(id));
        }
    }
    nis.push(presets::slave_ni(63));
    let spec = NocSpec::new(
        TopologySpec::Mesh {
            width: 8,
            height: 8,
            nis_per_router: 1,
        },
        nis,
    );
    let mut sys = NocSystem::from_spec(&spec);
    let mut cfg = RuntimeConfigurator::new(spec.build_topology(), 9, 0, 8);
    // NI 0 → NI 63 is 15 hops = 3 segments: a 3-word Spread packet budget
    // cannot make progress (header + 2 continuations leave no payload).
    let spread = ConnectionRequest {
        fwd: Service::Guaranteed {
            slots: 2,
            strategy: SlotStrategy::Spread,
        },
        rev: Service::BestEffort,
        ..ConnectionRequest::best_effort(
            ChannelEnd { ni: 0, channel: 1 },
            ChannelEnd { ni: 63, channel: 1 },
        )
    };
    match cfg.open_connection(&mut sys, &spread) {
        Err(ConfigError::PacketBudgetTooSmall {
            needed_words: 4,
            budget_words: 3,
        }) => {}
        other => panic!("expected PacketBudgetTooSmall, got {other:?}"),
    }
    let consecutive = ConnectionRequest {
        fwd: Service::Guaranteed {
            slots: 2,
            strategy: SlotStrategy::Consecutive,
        },
        rev: Service::BestEffort,
        ..ConnectionRequest::best_effort(
            ChannelEnd { ni: 0, channel: 1 },
            ChannelEnd { ni: 63, channel: 1 },
        )
    };
    cfg.open_connection(&mut sys, &consecutive)
        .expect("consecutive-run GT connection opens");
    sys.bind_master(
        0,
        1,
        Box::new(TrafficGenerator::new(TrafficGeneratorConfig {
            seed: 11,
            addr_base: 0,
            addr_range: 0x100,
            mix: TrafficMix::WriteOnly,
            burst: (2, 4),
            gap_cycles: 5,
            total: Some(12),
            max_outstanding: 2,
        })),
    );
    sys.bind_slave(63, 1, Box::new(MemorySlave::new(1)));
    assert!(
        Engine::run_until(&mut sys, |s| s.all_ips_done(), 80_000),
        "GT workload must complete"
    );
    sys.run(2_000);
    let g = sys.master_ip_as::<TrafficGenerator>(0);
    assert_eq!(g.completed(), 12);
    assert_eq!(g.errors(), 0);
    assert_eq!(
        sys.noc.gt_conflicts(),
        0,
        "slot table absorbed the rewrites"
    );
}

/// A BE sender whose `max_packet_words` cannot carry header +
/// continuations + payload would silently starve (the kernel skips such
/// channels); the configurator rejects the request up front instead.
#[test]
fn be_budget_too_small_is_rejected_at_open() {
    let mut spec = corner_spec();
    // NI 1 → NI 63 is 14 hops = 2 segments: forward progress needs 3-word
    // packets (header + 1 continuation + payload); allow only 2.
    spec.nis[1].kernel.max_packet_words = 2;
    let mut sys = NocSystem::from_spec(&spec);
    let mut cfg = RuntimeConfigurator::new(spec.build_topology(), 0, 0, 8);
    let result = cfg.open_connection(
        &mut sys,
        &ConnectionRequest::best_effort(
            ChannelEnd { ni: 1, channel: 1 },
            ChannelEnd { ni: 63, channel: 1 },
        ),
    );
    assert!(matches!(
        result,
        Err(ConfigError::PacketBudgetTooSmall {
            needed_words: 3,
            budget_words: 2,
        })
    ));
}

// ---- Configuration-connection bootstrap on 16x16 ------------------------

/// 16x16, configuration module on NI 0, plain masters elsewhere; the CNIP
/// ports' queue depth is a parameter.
fn bootstrap_spec(cnip_queue_words: usize) -> NocSpec {
    let mut nis = vec![presets::cfg_module_ni(0, 8)];
    for id in 1..256 {
        let mut ni = presets::master_ni(id);
        ni.kernel.ports[0].queue_words = cnip_queue_words;
        nis.push(ni);
    }
    NocSpec::new(
        TopologySpec::Mesh {
            width: 16,
            height: 16,
            nis_per_router: 1,
        },
        nis,
    )
}

/// Fig. 9 step 2 sends `3 + g` three-word register writes into the target
/// CNIP before its response channel can return a credit (`g` =
/// continuation segments of the return route). With the preset 16-word
/// queue that fits up to g = 2; beyond, the bootstrap used to burn the
/// whole 200 000-cycle acknowledgment timeout and return `Timeout`. It is
/// now rejected up front, naming needed vs available words, and leaves the
/// configurator able to go on.
#[test]
fn config_bootstrap_beyond_cnip_queue_is_rejected_up_front() {
    let spec = bootstrap_spec(16);
    let topo = spec.build_topology();
    let mut sys = NocSystem::from_spec(&spec);
    let mut cfg = RuntimeConfigurator::new(spec.build_topology(), 0, 0, 8);
    // NI 15: 16 hops; NI 111: 22 hops; NI 255: 31 hops.
    for (target, gateways) in [(15usize, 2usize), (111, 3), (255, 4)] {
        assert_eq!(
            topo.route_any(target, 0).expect("routes").gateway_count(),
            gateways
        );
        let before = sys.cycle();
        let result = cfg.open_config_connection(&mut sys, target);
        if gateways <= 2 {
            result.expect("15 bootstrap words fit the 16-word CNIP queue");
            continue;
        }
        assert_eq!(
            result,
            Err(ConfigError::BootstrapQueueTooSmall {
                needed_words: 3 * (3 + gateways),
                queue_words: 16,
            }),
            "NI {target}"
        );
        assert_eq!(sys.cycle(), before, "rejected before any cycle is spent");
    }
    assert_eq!(cfg.stats().config_connections_opened, 1);
    // The rejections consumed no configuration channel: seven more open.
    for target in 1..8 {
        cfg.open_config_connection(&mut sys, target)
            .expect("free channels remain");
    }
}

/// The same far targets open fine once the CNIP queue holds the bootstrap
/// burst (21 words at four gateways), and the connection works: a user
/// connection across the full diagonal is configured through it.
#[test]
fn config_bootstrap_fits_a_deeper_cnip_queue() {
    let spec = bootstrap_spec(32);
    let mut sys = NocSystem::from_spec(&spec);
    let mut cfg = RuntimeConfigurator::new(spec.build_topology(), 0, 0, 8);
    for target in [111, 255] {
        cfg.open_config_connection(&mut sys, target)
            .expect("bootstrap fits a 32-word CNIP queue");
    }
    assert!(sys.cycle() < 2_000, "no timeout was involved");
    cfg.open_connection(
        &mut sys,
        &ConnectionRequest::best_effort(
            ChannelEnd {
                ni: 255,
                channel: 1,
            },
            ChannelEnd {
                ni: 111,
                channel: 1,
            },
        ),
    )
    .expect("user connection configured over the far config connections");
    assert_eq!(sys.noc.be_overflows(), 0);
}

// ---- Sharded parity with partition-aligned regions ----------------------

/// Streams between opposite corners of an 8x8 mesh, with regions matching
/// the two-shard row-band partition (gateways on the routes' minimal
/// paths: router 7 ends row 0, router 39 is the first region-1 router of
/// column 7).
fn stream_8x8() -> (NocSystem, Topology) {
    let nis: Vec<_> = (0..64).map(|id| presets::raw_ni(id, 2)).collect();
    let spec = NocSpec::new(
        TopologySpec::Mesh {
            width: 8,
            height: 8,
            nis_per_router: 1,
        },
        nis,
    )
    .with_partition((0..64).map(|r| usize::from(r >= 32)).collect())
    .with_regions(RegionsSpec {
        router_regions: (0..64).map(|r| usize::from(r >= 32)).collect(),
        gateways: vec![7, 39],
    });
    spec.validate().expect("spec is consistent");
    let topo = spec.build_topology();
    let mut sys = NocSystem::from_spec(&spec);
    // Two corner-to-corner streams crossing the cut, one per direction.
    for (src, dst) in [(0usize, 63usize), (63, 0)] {
        let fwd = topo.route_any(src, dst).expect("route exists");
        let rev = topo.route_any(dst, src).expect("route exists");
        assert!(!fwd.is_single(), "the stream must exercise gateways");
        for (ni, route, rqid) in [(src, &fwd, 2u8), (dst, &rev, 1u8)] {
            let k = &mut sys.nis[ni].kernel;
            let ch = if ni == src { 1 } else { 2 };
            k.reg_write(chan_reg_addr(ch, ChanReg::Space), 8).unwrap();
            k.reg_write(
                chan_reg_addr(ch, ChanReg::PathRqid),
                pack_path_rqid(route.header_segment(), rqid),
            )
            .unwrap();
            for (i, w) in route.continuation_words().enumerate() {
                k.reg_write(ext_reg_addr(ch, i), w).unwrap();
            }
            k.reg_write(chan_reg_addr(ch, ChanReg::Ctrl), CTRL_ENABLE)
                .unwrap();
        }
        sys.bind_raw(src, 1, vec![1], Box::new(StreamSource::counting(200)));
        sys.bind_raw(dst, 1, vec![2], Box::new(StreamSink::new()));
    }
    (sys, topo)
}

#[test]
fn sharded_8x8_with_partition_aligned_regions_is_bit_identical() {
    const HORIZON: u64 = 8_000;
    // Reference: unsplit run.
    let (mut reference, _) = stream_8x8();
    reference.run(HORIZON);
    let ref_noc = reference.noc.stats().clone();
    let ref_kernels: Vec<_> = reference.nis.iter().map(|ni| *ni.kernel.stats()).collect();
    let ref_rx0: Vec<u32> = reference.raw_ip_at::<StreamSink>(0).received().to_vec();
    let ref_rx63: Vec<u32> = reference.raw_ip_at::<StreamSink>(63).received().to_vec();
    assert_eq!(ref_rx0.len(), 200, "full stream delivered");
    assert_eq!(ref_rx63.len(), 200, "full stream delivered");
    assert!(
        ref_kernels[0].route_ext_words_tx >= 2,
        "streams rode multi-segment routes"
    );
    // Sharded run along the same cut the regions describe.
    let (sys, topo) = stream_8x8();
    let partition = Partition::mesh_rows(8, 8, 2);
    let mut sharded = ShardedSystem::new(sys, &topo, &partition);
    sharded.run(HORIZON);
    assert_eq!(sharded.merged_noc_stats(), ref_noc);
    assert_eq!(sharded.kernel_stats(), ref_kernels);
    assert_eq!(sharded.raw_ip_as::<StreamSink>(0).received(), &ref_rx0[..]);
    assert_eq!(
        sharded.raw_ip_as::<StreamSink>(63).received(),
        &ref_rx63[..]
    );
    assert_eq!(sharded.gt_conflicts(), 0);
    assert_eq!(sharded.be_overflows(), 0);
}

// ---- Spec-level plumbing ------------------------------------------------

/// `NocSpec::build_topology` hands the planner its regions; a 16x16 route
/// stays minimal and within the segment budget.
#[test]
fn spec_regions_reach_the_planner_and_16x16_routes_fit() {
    let topo = Topology::mesh(16, 16, 1);
    let route = topo.route_any(0, 255).expect("16x16 diagonal routes");
    assert_eq!(route.total_hops(), 31);
    assert!(route.segments().len() <= aethereal::sim::MAX_ROUTE_SEGMENTS);
    let _ = Route::single(Path::empty()); // the facade re-exports the API
}
