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

use aethereal_cfg::runtime::{ChannelEnd, ConnectionRequest, Service};
use aethereal_cfg::shard::ShardedSystem;
use aethereal_cfg::{presets, NocSpec, NocSystem, RuntimeConfigurator, SlotStrategy, TopologySpec};
use aethereal_ni::kernel::regs::{slot_reg_addr, CTRL_ENABLE};
use aethereal_ni::kernel::{chan_reg_addr, ext_reg_addr, pack_path_rqid, ChanReg, ChannelId};
use aethereal_proto::{CountingSink, StreamSink, StreamSource};
use aethereal_verify::{certify, certify_system, Violation};
use noc_sim::shard::Partition;
use noc_sim::Topology;

const STU: usize = 8;

/// 2x1 mesh, three NIs per router: the guarantees-test harness shape.
fn small_spec() -> NocSpec {
    NocSpec::new(
        TopologySpec::Mesh {
            width: 2,
            height: 1,
            nis_per_router: 3,
        },
        vec![
            presets::cfg_module_ni(0, 8),
            presets::raw_ni(1, 1),
            presets::raw_ni(2, 1),
            presets::raw_ni(3, 1),
            presets::raw_ni(4, 1),
            presets::slave_ni(5),
        ],
    )
}

fn gt_request(src: usize, dst: usize, slots: usize) -> ConnectionRequest {
    ConnectionRequest {
        fwd: Service::Guaranteed {
            slots,
            strategy: SlotStrategy::Spread,
        },
        rev: Service::BestEffort,
        ..ConnectionRequest::best_effort(
            ChannelEnd {
                ni: src,
                channel: 1,
            },
            ChannelEnd {
                ni: dst,
                channel: 1,
            },
        )
    }
}

#[test]
fn configurator_accepted_system_certifies() {
    let spec = small_spec();
    let mut sys = NocSystem::from_spec(&spec);
    let mut cfg = RuntimeConfigurator::new(spec.topology.build(), 0, 0, STU);
    cfg.open_connection(&mut sys, &gt_request(1, 3, 2))
        .expect("GT opens");
    cfg.open_connection(
        &mut sys,
        &ConnectionRequest::best_effort(
            ChannelEnd { ni: 2, channel: 1 },
            ChannelEnd { ni: 4, channel: 1 },
        ),
    )
    .expect("BE opens");
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
    let mut nis = vec![presets::raw_ni(0, 1)];
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
    let mut cfg = RuntimeConfigurator::new(spec.build_topology(), 9, 0, STU);
    cfg.open_connection(
        &mut sys,
        &ConnectionRequest {
            fwd: Service::Guaranteed {
                slots: 2,
                strategy: SlotStrategy::Consecutive,
            },
            rev: Service::BestEffort,
            ..ConnectionRequest::best_effort(
                ChannelEnd { ni: 0, channel: 1 },
                ChannelEnd { ni: 63, channel: 1 },
            )
        },
    )
    .expect("consecutive-run GT across the diagonal opens");
    let cert = certify_system(&spec, &sys).expect("two-level GT certifies");
    let gt = cert.flow(0, 1).expect("diagonal flow certified");
    assert_eq!(gt.hops, 15);
    assert_eq!(gt.gateways, 2, "15 hops = 3 segments = 2 rewrites");
    assert_eq!(gt.injection_slots.len(), 2);
    // 15 route links + the injection link, one claim per slot each.
    assert_eq!(cert.slot_claims, 2 * 16);
}

/// Traffic shape over the streaming mesh of [`stream_mesh`].
#[derive(Debug, Clone, Copy)]
enum MeshTraffic {
    /// Every NI streams down its column to the NI half the mesh height
    /// away (a permutation: one stream out and one in per NI). Every
    /// stream crosses every horizontal row-band cut.
    Uniform,
    /// A 2x2 block of center sinks, each fed by several senders from all
    /// quadrants: heavy contention around the center.
    Hotspot,
    /// Streams confined to the top two rows; the rest of the mesh is idle.
    BusyBand,
}

/// One configured stream: sender NI (tx channel 1) → receiver NI / rx
/// channel.
struct Stream {
    src: usize,
    dst: usize,
    rx_channel: ChannelId,
}

fn streams_for(width: usize, height: usize, traffic: MeshTraffic) -> Vec<Stream> {
    match traffic {
        MeshTraffic::Uniform => (0..width * height)
            .map(|ni| {
                let (x, y) = (ni % width, ni / width);
                let dst = ((y + height / 2) % height) * width + x;
                Stream {
                    src: ni,
                    dst,
                    rx_channel: 2,
                }
            })
            .collect(),
        MeshTraffic::Hotspot => {
            // Senders: the block around the sinks, round-robined over the
            // sinks' rx channels.
            let (cx, cy) = (width / 2 - 1, height / 2 - 1);
            let sinks = [
                cy * width + cx,
                cy * width + cx + 1,
                (cy + 1) * width + cx,
                (cy + 1) * width + cx + 1,
            ];
            let mut streams = Vec::new();
            for y in cy.saturating_sub(2)..(cy + 4).min(height) {
                for x in cx.saturating_sub(2)..(cx + 4).min(width) {
                    let ni = y * width + x;
                    if sinks.contains(&ni) {
                        continue;
                    }
                    let j = streams.len();
                    streams.push(Stream {
                        src: ni,
                        dst: sinks[j % sinks.len()],
                        rx_channel: 2 + (j / sinks.len()),
                    });
                }
            }
            streams
        }
        MeshTraffic::BusyBand => (0..width)
            .map(|x| Stream {
                src: x,
                dst: width + x, // row 0 → row 1: stays inside the top band
                rx_channel: 2,
            })
            .collect(),
    }
}

/// A `width × height` mesh (one raw NI per router) whose BE streams are
/// configured **directly** through the local register files, with
/// two-level routes (`Topology::route_any`) so any pair routes: an endless
/// source per stream and a [`CountingSink`] per receiving channel.
fn stream_mesh(width: usize, height: usize, traffic: MeshTraffic) -> (NocSystem, Topology) {
    let streams = streams_for(width, height, traffic);
    let n = width * height;
    // Channel needs per NI: ch1 = tx; rx channels 2.. as assigned.
    let mut channels = vec![1usize; n];
    for s in &streams {
        channels[s.dst] = channels[s.dst].max(s.rx_channel);
    }
    let spec = NocSpec::new(
        TopologySpec::Mesh {
            width,
            height,
            nis_per_router: 1,
        },
        (0..n).map(|id| presets::raw_ni(id, channels[id])).collect(),
    );
    let topo = spec.topology.build();
    let mut sys = NocSystem::from_spec(&spec);
    for s in &streams {
        let fwd = topo.route_any(s.src, s.dst).expect("any pair routes");
        let rev = topo.route_any(s.dst, s.src).expect("any pair routes");
        for (ni, ch, route, rqid) in [
            (s.src, 1, &fwd, s.rx_channel),
            (s.dst, s.rx_channel, &rev, 1),
        ] {
            let k = &mut sys.nis[ni].kernel;
            k.reg_write(chan_reg_addr(ch, ChanReg::Space), 8)
                .expect("space");
            k.reg_write(
                chan_reg_addr(ch, ChanReg::PathRqid),
                pack_path_rqid(route.header_segment(), rqid as u8),
            )
            .expect("path");
            for (i, w) in route.continuation_words().enumerate() {
                k.reg_write(ext_reg_addr(ch, i), w).expect("continuation");
            }
            k.reg_write(chan_reg_addr(ch, ChanReg::Ctrl), CTRL_ENABLE)
                .expect("enable BE");
        }
        sys.bind_raw(
            s.src,
            1,
            vec![1],
            Box::new(StreamSource::counting(u64::MAX)),
        );
        sys.bind_raw(s.dst, 1, vec![s.rx_channel], Box::new(CountingSink::new()));
    }
    (sys, topo)
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

/// Soundness of rejection, end to end: corrupt one NI's slot table so two
/// GT flows claim the same slot on the shared inter-router link. The
/// verifier must name that exact collision — and the simulator must then
/// observe it as GT calendar conflicts.
#[test]
fn corrupted_slot_table_rejected_statically_and_collides_dynamically() {
    let spec = small_spec();
    let mut sys = NocSystem::from_spec(&spec);
    let mut cfg = RuntimeConfigurator::new(spec.topology.build(), 0, 0, STU);
    cfg.open_connection(&mut sys, &gt_request(1, 3, 1))
        .expect("first GT opens");
    cfg.open_connection(&mut sys, &gt_request(2, 4, 1))
        .expect("second GT opens");
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
    sys.bind_raw(1, 1, vec![1], Box::new(StreamSource::counting(u64::MAX)));
    sys.bind_raw(2, 1, vec![1], Box::new(StreamSource::counting(u64::MAX)));
    sys.bind_raw(3, 1, vec![1], Box::new(StreamSink::new()));
    sys.bind_raw(4, 1, vec![1], Box::new(StreamSink::new()));
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
        let nis = (0..n)
            .map(|id| {
                if id == 0 {
                    presets::cfg_module_ni(0, 8)
                } else {
                    presets::raw_ni(id, 1)
                }
            })
            .collect();
        let spec = NocSpec::new(
            TopologySpec::Mesh {
                width: 4,
                height: 4,
                nis_per_router: 1,
            },
            nis,
        );
        let mut sys = NocSystem::from_spec(&spec);
        let mut cfg = RuntimeConfigurator::new(spec.topology.build(), 0, 0, STU);
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
                ConnectionRequest::best_effort(
                    ChannelEnd {
                        ni: src,
                        channel: 1,
                    },
                    ChannelEnd {
                        ni: dst,
                        channel: 1,
                    },
                )
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
    use aethereal_ni::kernel::regs::CTRL_GT;
    let spec = small_spec();
    let mut sys = NocSystem::from_spec(&spec);
    let topo = spec.topology.build();
    // NI 1: a GT flow with a valid destination queue but no slots and
    // more credits than the destination queue holds.
    let route = topo.route_any(1, 3).expect("routes");
    let k = &mut sys.nis[1].kernel;
    k.reg_write(
        chan_reg_addr(1, ChanReg::PathRqid),
        pack_path_rqid(route.header_segment(), 1),
    )
    .expect("path");
    for (i, w) in route.continuation_words().enumerate() {
        k.reg_write(ext_reg_addr(1, i), w).expect("ext");
    }
    k.reg_write(chan_reg_addr(1, ChanReg::Space), 63)
        .expect("space");
    k.reg_write(chan_reg_addr(1, ChanReg::Ctrl), CTRL_ENABLE | CTRL_GT)
        .expect("enable GT");
    // NI 2: a BE flow whose remote queue id names no channel at the
    // destination (the qid violation pre-empts the credit check there).
    let route2 = topo.route_any(2, 4).expect("routes");
    let k2 = &mut sys.nis[2].kernel;
    k2.reg_write(
        chan_reg_addr(1, ChanReg::PathRqid),
        pack_path_rqid(route2.header_segment(), 31),
    )
    .expect("path");
    k2.reg_write(chan_reg_addr(1, ChanReg::Space), 8)
        .expect("space");
    k2.reg_write(chan_reg_addr(1, ChanReg::Ctrl), CTRL_ENABLE)
        .expect("enable BE");
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
