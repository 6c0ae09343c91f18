//! Certification of really-configured systems.
//!
//! The two directions of the tentpole property:
//!
//! * **soundness of acceptance** — every system the
//!   [`RuntimeConfigurator`] accepts (including two-level routes with
//!   gateway rewrites, and the direct register pokes of the streaming
//!   meshes below) earns a [`Certificate`];
//! * **soundness of rejection** — a corrupted slot table is rejected
//!   *statically* with a precise [`Violation::SlotConflict`], and the
//!   very collision the verifier names then shows up as `gt_conflicts`
//!   in the cycle-accurate simulation.

use aethereal_cfg::runtime::ConnectionRequest;
use aethereal_cfg::shard::ShardedSystem;
use aethereal_cfg::{presets, NocSpec, NocSystem};
use aethereal_ni::kernel::regs::slot_reg_addr;
use aethereal_ni::kernel::{chan_reg_addr, ChanReg};
use aethereal_proto::CountingSink;
use aethereal_verify::{certify, certify_system, FlowId, Violation};
use noc_sim::shard::Partition;
use noc_sim::topology::dir;
use scenario::{
    configurable, configure, diagonal_spec, gt, gt_run, harness_spec, open, perimeter_streams,
    raw_mesh, recording_sink, request, source, stream_mesh, with_cfg, MeshTraffic, BE, ENDLESS,
    STU,
};

#[path = "../../facade/tests/scenario/mod.rs"]
mod scenario;

/// 2x1 mesh, three NIs per router: the guarantees-test harness shape.
fn small_spec() -> NocSpec {
    harness_spec(false)
}

fn gt_request(src: usize, dst: usize, slots: usize) -> ConnectionRequest {
    request((src, 1), (dst, 1), gt(slots), BE)
}

#[test]
fn configurator_accepted_system_certifies() {
    let spec = small_spec();
    let (mut sys, mut cfg) = configurable(&spec, 0);
    open(&mut cfg, &mut sys, (1, 1), (3, 1), gt(2), BE);
    open(&mut cfg, &mut sys, (2, 1), (4, 1), BE, BE);
    let cert = certify_system(&spec, &sys).expect("accepted configuration certifies");
    assert_eq!(cert.stu_slots, STU);
    let gt = cert.flow(1, 1).expect("GT flow certified");
    assert!(gt.gt);
    assert_eq!(gt.injection_slots.len(), 2);
    assert_eq!(gt.dst_ni, 3);
    assert_eq!(gt.gateways, 0);
    let be = cert.flow(2, 1).expect("BE flow certified");
    assert!(!be.gt && be.injection_slots.is_empty());
    assert!(cert.links_checked > 0 && cert.slot_claims >= 2);
}

/// GT across the full 8x8 diagonal: a two-level route whose gateway
/// rewrites shift the downstream slot claims by whole slots. The
/// certifier must model exactly the shift the allocator reserved, or an
/// accepted system would be falsely rejected here.
#[test]
fn two_level_gt_route_certifies_with_gateway_shifts() {
    let mut spec = diagonal_spec(9);
    spec.nis[0] = presets::raw_ni(0, 1);
    let (mut sys, mut cfg) = configurable(&spec, 9);
    // A consecutive-run GT across the diagonal.
    open(&mut cfg, &mut sys, (0, 1), (63, 1), gt_run(2), BE);
    let cert = certify_system(&spec, &sys).expect("two-level GT certifies");
    let gt = cert.flow(0, 1).expect("diagonal flow certified");
    assert_eq!(gt.hops, 15);
    assert_eq!(gt.gateways, 2, "15 hops = 3 segments = 2 rewrites");
    assert_eq!(gt.injection_slots.len(), 2);
    // 15 route links + the injection link, one claim per slot each.
    assert_eq!(cert.slot_claims, 2 * 16);
}

/// The streaming meshes are certified as configured — routes valid and
/// minimal, credits within destination capacity — for every traffic
/// shape.
#[test]
fn bench_stream_meshes_certify() {
    for traffic in [
        MeshTraffic::Uniform,
        MeshTraffic::Hotspot,
        MeshTraffic::BusyBand,
    ] {
        let (sys, topo) = stream_mesh(8, 8, traffic);
        let cert = certify(&topo, sys.nis.iter().map(|ni| &ni.kernel))
            .unwrap_or_else(|v| panic!("{traffic:?} mesh must certify, got {v:?}"));
        assert!(
            cert.flows.iter().all(|f| !f.gt),
            "stream meshes are best-effort"
        );
        assert!(!cert.flows.is_empty());
    }
}

/// The certified busy band runs split into four row bands: its streams
/// flow while the three idle bands stay out of the shard runner's
/// activity set.
#[test]
fn busy_band_leaves_other_regions_asleep() {
    let (sys, topo) = stream_mesh(8, 8, MeshTraffic::BusyBand);
    let mut sharded = ShardedSystem::new(sys, &topo, &Partition::mesh_rows(8, 8, 4));
    sharded.run(300);
    assert_eq!(
        sharded.awake_count(),
        1,
        "only the busy band stays in the activity set"
    );
    let received: u64 = (8..16)
        .map(|ni| sharded.raw_ip_as::<CountingSink>(ni).count())
        .sum();
    assert!(received > 0, "the band's streams flow");
}

/// BE words delivered so far into the [`perimeter_streams`] sinks at
/// `nis`.
fn delivered(sys: &NocSystem, nis: impl IntoIterator<Item = usize>) -> u64 {
    nis.into_iter()
        .map(|ni| sys.raw_ip_at::<CountingSink>(ni).count())
        .sum()
}

/// The perimeter-ring fixtures: BE streams half way round the perimeter of
/// a 2×2 and a 2×3 mesh, with their credits returning clockwise too, close
/// a cycle of channel dependencies. After a short start they stop
/// delivering for good, with a full input queue from the previous router
/// of the ring at every router and nothing overflowed, collided or
/// dropped. It is a wormhole routing deadlock, not lost words.
#[test]
fn perimeter_be_streams_stall_for_good() {
    for (width, height, hops) in [(2usize, 2usize, 2usize), (2, 3, 3)] {
        let mesh = format!("{width}x{height} perimeter");
        let (mut sys, _) = perimeter_streams(width, height, hops, true);
        sys.run(10_000);
        let all = 0..width * height;
        let stalled_at = delivered(&sys, all.clone());
        sys.run(10_000);
        assert_eq!(
            delivered(&sys, all),
            stalled_at,
            "{mesh}: no word is delivered in the second window"
        );
        for r in sys.noc.routers() {
            assert!(
                (0..dir::LOCAL0).any(|port| r.be_queued(port) == r.be_capacity()),
                "{mesh}: router {} has a full input queue from the ring",
                r.id()
            );
        }
        assert_eq!(sys.noc.be_overflows(), 0, "{mesh}");
        assert_eq!(sys.noc.gt_conflicts(), 0, "{mesh}");
        let rx_drops: u64 = sys.nis.iter().map(|ni| ni.kernel.stats().rx_drops).sum();
        assert_eq!(rx_drops, 0, "{mesh}");
    }
}

/// The certifier refuses the 2×2 deadlock fixture, naming the four
/// router-to-router links of the cycle and the eight flows (four streams,
/// four credit returns) that turn along it.
#[test]
fn be_dependency_cycle_refused() {
    let (sys, topo) = perimeter_streams(2, 2, 2, true);
    let violations = certify(&topo, sys.nis.iter().map(|ni| &ni.kernel))
        .expect_err("the deadlocking configuration is refused");
    let [Violation::DependencyCycle { links, flows }] = &violations[..] else {
        panic!("expected one dependency cycle, got {violations:?}");
    };
    // Clockwise: 0 east to 1, south to 3, west to 2, north to 0.
    assert_eq!(
        links,
        &[
            (0, usize::from(dir::EAST)),
            (1, usize::from(dir::SOUTH)),
            (3, usize::from(dir::WEST)),
            (2, usize::from(dir::NORTH)),
        ]
    );
    let expected: Vec<FlowId> = (0..4)
        .flat_map(|ni| [FlowId { ni, channel: 1 }, FlowId { ni, channel: 2 }])
        .collect();
    assert_eq!(flows, &expected);
}

/// The dependency check is conservative: streams two hops clockwise round
/// a 3×3 mesh perimeter, with their credits on XY routes, close a cycle and
/// are refused, yet they keep flowing.
#[test]
fn cyclic_dependencies_that_flow_are_refused_too() {
    let (mut sys, topo) = perimeter_streams(3, 3, 2, false);
    let violations = certify(&topo, sys.nis.iter().map(|ni| &ni.kernel))
        .expect_err("a cyclic configuration is refused");
    assert!(
        matches!(&violations[..], [Violation::DependencyCycle { .. }]),
        "{violations:?}"
    );
    // Every NI but the centre one (NI 4) sinks a stream.
    let perimeter = || (0..9).filter(|&ni| ni != 4);
    sys.run(2_000);
    let warm = delivered(&sys, perimeter());
    sys.run(2_000);
    assert!(
        delivered(&sys, perimeter()) > warm,
        "the perimeter keeps delivering"
    );
}

/// Soundness of rejection, end to end: corrupt one NI's slot table so two
/// GT flows claim the same slot on the shared inter-router link. The
/// verifier must name that exact collision — and the simulator must then
/// observe it as GT calendar conflicts.
#[test]
fn corrupted_slot_table_rejected_statically_and_collides_dynamically() {
    let spec = small_spec();
    let (mut sys, mut cfg) = configurable(&spec, 0);
    open(&mut cfg, &mut sys, (1, 1), (3, 1), gt(1), BE);
    open(&mut cfg, &mut sys, (2, 1), (4, 1), gt(1), BE);
    let clean = certify_system(&spec, &sys).expect("disjoint allocation certifies");
    let s1 = clean.flow(1, 1).expect("flow 1").injection_slots[0];
    let s2 = clean.flow(2, 1).expect("flow 2").injection_slots[0];
    assert_ne!(s1, s2, "allocator spreads the shared link's slots");

    // Corrupt NI 2: abandon its own slot and squat on NI 1's. Channel 1
    // is stored as entry value 2 (0 = free).
    let k = &mut sys.nis[2].kernel;
    k.reg_write(slot_reg_addr(s2), 0).expect("free own slot");
    k.reg_write(slot_reg_addr(s1), 2)
        .expect("claim the colliding slot");

    let violations = certify_system(&spec, &sys).expect_err("corruption must be rejected");
    let conflict = violations
        .iter()
        .find_map(|v| match v {
            Violation::SlotConflict { slot, flows, .. } => Some((slot, flows)),
            _ => None,
        })
        .expect("a SlotConflict names the collision");
    assert_eq!(
        *conflict.0,
        (s1 + 1) % STU,
        "collision is one hop downstream"
    );
    assert_eq!(conflict.1.len(), 2);

    // The same collision is observable in the cycle-accurate run.
    source(&mut sys, 1, 1, ENDLESS);
    source(&mut sys, 2, 1, ENDLESS);
    recording_sink(&mut sys, 3, 1);
    recording_sink(&mut sys, 4, 1);
    sys.run(2_000);
    assert!(
        sys.noc.gt_conflicts() > 0,
        "the statically-predicted collision must occur in simulation"
    );
}

/// Property: whatever batch of connection requests the configurator
/// accepts, the resulting register state certifies — swept over seeded
/// random mixes of GT/BE requests on a 4x4 mesh. Rejected requests must
/// leave no half-configured residue behind, so the certificate is checked
/// after every accepted *and* refused open.
#[test]
fn randomly_accepted_configurations_always_certify() {
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move |bound: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng >> 33) as usize % bound
    };
    for round in 0..8 {
        let n = 16usize;
        let spec = with_cfg(raw_mesh(4, 4, 1, 1), 0, 8);
        let (mut sys, mut cfg) = configurable(&spec, 0);
        let mut used = vec![false; n];
        used[0] = true;
        let mut accepted = 0;
        for _ in 0..6 {
            let (src, dst) = (1 + next(n - 1), 1 + next(n - 1));
            if src == dst || used[src] || used[dst] {
                continue;
            }
            let req = if next(2) == 0 {
                gt_request(src, dst, 1 + next(3))
            } else {
                request((src, 1), (dst, 1), BE, BE)
            };
            if cfg.open_connection(&mut sys, &req).is_ok() {
                used[src] = true;
                used[dst] = true;
                accepted += 1;
            }
            certify_system(&spec, &sys).unwrap_or_else(|v| {
                panic!("round {round}: accepted configuration must certify, got {v:?}")
            });
        }
        assert!(accepted > 0, "round {round}: the sweep must exercise opens");
    }
}

/// Hand-poked misconfigurations the configurator would never emit are
/// still caught: a GT channel with no slots, credits beyond the
/// destination queue, and a dangling destination queue id.
#[test]
fn hand_poked_misconfigurations_are_rejected() {
    let spec = small_spec();
    let mut sys = NocSystem::from_spec(&spec);
    let topo = spec.build_topology();
    // NI 1: a GT flow with a valid destination queue but no slots and
    // more credits than the destination queue holds.
    configure(&mut sys, &topo, (1, 1), (3, 1), Some(&[]), true);
    sys.nis[1]
        .kernel
        .reg_write(chan_reg_addr(1, ChanReg::Space), 63)
        .expect("space");
    // NI 2: a BE flow whose remote queue id names no channel at the
    // destination (the qid violation pre-empts the credit check there).
    configure(&mut sys, &topo, (2, 1), (4, 31), None, true);
    let violations = certify_system(&spec, &sys).expect_err("must be rejected");
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::GtFlowWithoutSlots { .. })),
        "GT without slots: {violations:?}"
    );
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::BadRemoteQid { qid: 31, .. })),
        "dangling qid: {violations:?}"
    );
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::CreditOverrun { space: 63, .. })),
        "credit overrun: {violations:?}"
    );
}
