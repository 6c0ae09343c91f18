//! Golden-state differential corpus.
//!
//! Four 8x8 scenarios — uniform best-effort traffic with a GT stream,
//! a hotspot hammering one multi-connection slave, a multi-segment
//! gateway stream, and the uniform system under a seeded fault storm —
//! are each run to a fixed cycle and snapshotted; the
//! compact snapshot JSON is compared byte-for-byte against a checked-in
//! golden under `tests/goldens/`. Any change to the persisted state
//! schema, the walk order, or the simulation itself shows up as a golden
//! mismatch and must be either fixed or consciously re-baselined with
//! `cargo run -p xtask -- regen-goldens` (which reruns these tests with
//! `REGEN_GOLDENS=1` to rewrite the files). The corpus is at snapshot
//! format 2: its one re-baseline removed two always-zero list lengths from
//! each file's `noc` stream and changed nothing else (`docs/ARCHITECTURE.md`,
//! *The one state walk*).
//!
//! Each golden is also *restored* into a freshly built system and run
//! forward: the corpus stays loadable, and a restore from disk continues
//! bit-identically to the uninterrupted reference.

use std::path::PathBuf;

use aethereal::cfg::json::{self, Value};
use aethereal::cfg::runtime::{ChannelEnd, ConnectionRequest, Service};
use aethereal::cfg::{
    presets, NocSpec, NocSystem, RegionsSpec, RuntimeConfigurator, SlotStrategy, TopologySpec,
};
use aethereal::ni::kernel::regs::CTRL_ENABLE;
use aethereal::ni::kernel::{chan_reg_addr, ext_reg_addr, pack_path_rqid, ChanReg};
use aethereal::proto::{
    CountingSink, MemorySlave, StreamSink, StreamSource, TrafficGenerator, TrafficGeneratorConfig,
    TrafficMix,
};
use aethereal::sim::topology::dir;
use aethereal::sim::{Engine, FaultPlan};

/// First differing leaf between two JSON values, as a `$.a.b[3]` path.
fn first_diff(a: &Value, b: &Value, path: &str) -> Option<String> {
    match (a, b) {
        (Value::Arr(x), Value::Arr(y)) => {
            if x.len() != y.len() {
                return Some(format!("{path}: lengths {} != {}", x.len(), y.len()));
            }
            x.iter()
                .zip(y)
                .enumerate()
                .find_map(|(i, (xa, ya))| first_diff(xa, ya, &format!("{path}[{i}]")))
        }
        (Value::Obj(x), Value::Obj(y)) => {
            if !x.keys().eq(y.keys()) {
                return Some(format!("{path}: key sets differ"));
            }
            x.iter()
                .find_map(|(k, xv)| first_diff(xv, &y[k], &format!("{path}.{k}")))
        }
        _ if a == b => None,
        _ => Some(format!("{path}: {a:?} != {b:?}")),
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.json"))
}

/// Runs a deterministic builder to `warm` cycles, pins its snapshot
/// against the checked-in golden (or rewrites the golden when
/// `REGEN_GOLDENS` is set), then restores the golden text into a fresh
/// system and demands the continuation stay bit-identical to the
/// uninterrupted run for `extra` more cycles.
fn check_golden(name: &str, build: impl Fn() -> NocSystem, warm: u64, extra: u64) {
    let mut sys = build();
    sys.run(warm);
    let snap = sys.snapshot().expect("snapshot");
    let text = format!("{}\n", json::to_string_compact(&snap));
    let path = golden_path(name);
    if std::env::var_os("REGEN_GOLDENS").is_some() {
        std::fs::write(&path, &text).expect("write golden");
        eprintln!("regenerated {} ({} bytes)", path.display(), text.len());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {}: {e}\nregenerate the corpus with \
             `cargo run -p xtask -- regen-goldens`",
            path.display()
        )
    });
    if text != golden {
        let want = json::parse(&golden).expect("checked-in golden parses");
        let diff = first_diff(&snap, &want, "$")
            .unwrap_or_else(|| "values equal — formatting drift".into());
        panic!(
            "{name}: snapshot diverged from golden at {diff}\n\
             If the persisted-state schema or the simulation changed \
             intentionally, re-baseline with `cargo run -p xtask -- \
             regen-goldens` and review the golden diff."
        );
    }
    // Replay sanity: the golden restores from disk and continues exactly.
    sys.run(extra);
    let want = sys.snapshot().expect("snapshot");
    let mut fresh = build();
    fresh
        .restore(&json::parse(&golden).expect("golden parses"))
        .expect("golden restores");
    fresh.run(extra);
    if let Some(d) = first_diff(&fresh.snapshot().expect("snapshot"), &want, "$") {
        panic!("{name}: restore-from-golden diverged at {d}");
    }
}

/// 64-NI spec skeleton: config module on NI 0, traffic masters on NIs
/// 1–6, raw stream endpoints on NIs 7 and 63, `special` overriding any
/// NI, and plain slaves everywhere else.
fn mesh_nis(
    special: impl Fn(usize) -> Option<aethereal::ni::ni::NiSpec>,
) -> Vec<aethereal::ni::ni::NiSpec> {
    (0..64)
        .map(|id| {
            if let Some(spec) = special(id) {
                return spec;
            }
            match id {
                0 => presets::cfg_module_ni(0, 16),
                1..=6 => presets::master_ni(id),
                7 | 63 => presets::raw_ni(id, 1),
                _ => presets::slave_ni(id),
            }
        })
        .collect()
}

/// Opens the standard workload on an 8x8 system: six BE connections from
/// master `m` to `slave_of(m)`, one GT stream NI 7 → NI 63, settles the
/// configuration traffic, then binds generators, memories and the stream
/// endpoints.
fn build_8x8(
    nis: Vec<aethereal::ni::ni::NiSpec>,
    slave_of: impl Fn(usize) -> ChannelEnd,
) -> NocSystem {
    let spec = NocSpec::new(
        TopologySpec::Mesh {
            width: 8,
            height: 8,
            nis_per_router: 1,
        },
        nis,
    );
    let mut sys = NocSystem::from_spec(&spec);
    let mut cfg = RuntimeConfigurator::new(spec.topology.build(), 0, 0, 8);
    for m in 1..7usize {
        cfg.open_connection(
            &mut sys,
            &ConnectionRequest::best_effort(ChannelEnd { ni: m, channel: 1 }, slave_of(m)),
        )
        .expect("BE connection opens");
    }
    cfg.open_connection(
        &mut sys,
        &ConnectionRequest {
            fwd: Service::Guaranteed {
                slots: 2,
                strategy: SlotStrategy::Spread,
            },
            rev: Service::BestEffort,
            ..ConnectionRequest::best_effort(
                ChannelEnd { ni: 7, channel: 1 },
                ChannelEnd { ni: 63, channel: 1 },
            )
        },
    )
    .expect("GT connection opens");
    assert!(
        Engine::run_until(&mut sys, |s| s.noc.drained(), 8_000),
        "configuration traffic must drain"
    );
    for m in 1..7usize {
        sys.bind_master(
            m,
            1,
            Box::new(TrafficGenerator::new(TrafficGeneratorConfig {
                seed: 11 * m as u64 + 3,
                addr_base: 0,
                addr_range: 0x200,
                mix: TrafficMix::Mixed { read_fraction: 0.5 },
                burst: (1, 4),
                gap_cycles: [0, 7, 23][m % 3],
                total: Some(60),
                max_outstanding: 4,
            })),
        );
    }
    sys.bind_raw(7, 1, vec![1], Box::new(StreamSource::counting(5_000)));
    sys.bind_raw(63, 1, vec![1], Box::new(CountingSink::new()));
    sys
}

/// Uniform: each master targets its own slave diagonally across the mesh
/// (NIs 57–62), the GT stream crosses corner to corner.
fn uniform_8x8() -> NocSystem {
    let mut sys = build_8x8(mesh_nis(|_| None), |m| ChannelEnd {
        ni: 56 + m,
        channel: 1,
    });
    for m in 1..7usize {
        sys.bind_slave(56 + m, 1, Box::new(MemorySlave::new(2 + (m as u64 % 3))));
    }
    sys
}

/// Hotspot: every master hammers one channel of the multi-connection
/// slave at the mesh center (NI 36).
fn hotspot_8x8() -> NocSystem {
    let nis = mesh_nis(|id| (id == 36).then(|| presets::multi_slave_ni(36, 6)));
    let mut sys = build_8x8(nis, |m| ChannelEnd { ni: 36, channel: m });
    sys.bind_slave(36, 1, Box::new(MemorySlave::new(3)));
    sys
}

/// Gateway: a bounded raw stream whose headers are rewritten in flight at
/// the two gateway routers between the mesh's region halves (the
/// multi-segment route shape of `ff_parity`).
fn gateway_8x8() -> NocSystem {
    let nis: Vec<_> = (0..64).map(|id| presets::raw_ni(id, 2)).collect();
    let spec = NocSpec::new(
        TopologySpec::Mesh {
            width: 8,
            height: 8,
            nis_per_router: 1,
        },
        nis,
    )
    .with_regions(RegionsSpec {
        router_regions: (0..64).map(|r| usize::from(r >= 32)).collect(),
        gateways: vec![7, 39],
    });
    let topo = spec.build_topology();
    let mut sys = NocSystem::from_spec(&spec);
    let fwd = topo.route_any(0, 63).expect("route exists");
    let rev = topo.route_any(63, 0).expect("route exists");
    assert!(!fwd.is_single(), "the stream must exercise gateways");
    for (ni, route, rqid, ch) in [(0usize, &fwd, 2u8, 1usize), (63, &rev, 1, 2)] {
        let k = &mut sys.nis[ni].kernel;
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
    sys.bind_raw(0, 1, vec![1], Box::new(StreamSource::counting(200)));
    sys.bind_raw(63, 1, vec![2], Box::new(StreamSink::new()));
    sys
}

/// Faulted: the uniform system with a seeded fault storm armed across the
/// warm period — flaky and stuck links under the BE columns (truncated
/// worms, lost tails), corrupted headers on BE columns and on the GT
/// stream (paths naming other or missing ports or ending early, queue
/// ids no NI has), swallowed link-level credits and a short router stall. The fault-free
/// goldens never reach the routers' discard, stale-worm and GT-conflict
/// paths; this one pins them, together with the armed plan's dynamic
/// state, which rides the same snapshot.
fn faulted_8x8() -> NocSystem {
    let mut sys = uniform_8x8();
    let t = sys.cycle();
    let mut plan = FaultPlan::new(0x5EED_FA17);
    plan.link_flaky(10, dir::SOUTH, t + 20, t + 2_200, 150_000)
        .slot_corrupt(19, dir::SOUTH, t + 40, t + 900, 0x0000_A5A5)
        .slot_corrupt(15, dir::SOUTH, t + 300, t + 314, 0x0000_0005)
        .slot_corrupt(15, dir::SOUTH, t + 400, t + 414, 0x0000_0007)
        .slot_corrupt(52, dir::SOUTH, t + 100, t + 1_500, 0x0380_0000)
        .credit_loss(20, dir::NORTH, t + 60, t + 1_800, 5)
        .link_flaky(45, dir::NORTH, t + 100, t + 2_000, 250_000)
        .link_stuck(14, dir::SOUTH, t + 500, t + 560)
        .router_stall(41, t + 700, t + 730);
    sys.arm_faults(&plan);
    sys
}

#[test]
fn golden_uniform_8x8() {
    check_golden("uniform_8x8", uniform_8x8, 2_500, 500);
}

#[test]
fn golden_hotspot_8x8() {
    check_golden("hotspot_8x8", hotspot_8x8, 2_500, 500);
}

#[test]
fn golden_gateway_8x8() {
    check_golden("gateway_8x8", gateway_8x8, 600, 400);
}

#[test]
fn golden_faulted_8x8() {
    check_golden("faulted_8x8", faulted_8x8, 2_500, 500);
    // The storm must bite: every fault kind left its mark, and the
    // symptoms reached the routers' and NIs' own watchdog counters.
    let mut sys = faulted_8x8();
    sys.run(2_500);
    let report = sys.fault_report();
    let sum =
        |f: fn(&aethereal::sim::SuspectLink) -> u64| report.suspects.iter().map(f).sum::<u64>();
    assert!(sum(|s| s.dropped_words) > 0, "{report:?}");
    assert!(sum(|s| s.corrupted_words) > 0, "{report:?}");
    assert!(sum(|s| s.lost_credits) > 0, "{report:?}");
    assert!(report.gt_orphans + report.ni_rx_drops > 0, "{report:?}");
}
