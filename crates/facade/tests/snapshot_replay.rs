//! Deterministic replay: snapshot/restore is bit-identical.
//!
//! The snapshot layer (`aethereal_cfg::snapshot`) claims that restoring a
//! full-state snapshot into a freshly built system and continuing the run
//! is indistinguishable from never having stopped. These tests pin that
//! claim differentially: an uninterrupted run to `T` versus a run
//! interrupted at checkpoint `k`, serialized to JSON text, restored into a
//! fresh system and continued — compared field-for-field through the
//! snapshot itself (which carries every wire, FIFO word, link counter,
//! shell transaction and RNG seed), and counter-for-counter through the
//! statistics accessors, which also see a field the state walk omits. The
//! matrix covers the single-system
//! engine, sharded execution (1/2/4 shards, batch 1 and 16, sequential
//! and worker-thread), randomized checkpoints, snapshot forking, and the
//! mid-epoch boundary-ring regression.

use aethereal::cfg::json::{self, Value};
use aethereal::cfg::runtime::{ChannelEnd, ConnectionRequest, Service};
use aethereal::cfg::{
    presets, NocSpec, NocSystem, RuntimeConfigurator, ShardedSystem, SlotStrategy, TopologySpec,
};
use aethereal::ni::kernel::{ChannelStats, NiKernelStats};
use aethereal::ni::{Ni, Transaction};
use aethereal::proto::{
    MemorySlave, StreamSink, StreamSource, TrafficGenerator, TrafficGeneratorConfig, TrafficMix,
};
use aethereal::sim::shard::Partition;
use aethereal::sim::{Engine, FfStats, NocStats, Topology};
use aethereal_testkit::prelude::*;

/// First structural difference between two snapshot documents, as a
/// JSON path — keeps assertion failures readable instead of dumping two
/// multi-kilobyte texts.
fn first_diff(a: &Value, b: &Value, path: &str) -> Option<String> {
    match (a, b) {
        (Value::Arr(x), Value::Arr(y)) => {
            if x.len() != y.len() {
                return Some(format!("{path}: length {} vs {}", x.len(), y.len()));
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

fn assert_same_state(got: &Value, want: &Value, ctx: &str) {
    if let Some(d) = first_diff(got, want, "$") {
        panic!("{ctx}: restored run diverged from uninterrupted run at {d}");
    }
}

/// Every counter a user can read, taken off the objects rather than out
/// of the snapshot: two snapshots agree on a counter the state walk never
/// visits (neither carries it), these do not.
type Counters = (NocStats, Vec<NiKernelStats>, Vec<ChannelStats>, FfStats);

fn counters<'a>(noc: NocStats, nis: impl Iterator<Item = &'a Ni>, ff: FfStats) -> Counters {
    let kernels: Vec<_> = nis.map(|ni| &ni.kernel).collect();
    let channels = kernels
        .iter()
        .flat_map(|k| (0..k.channel_count()).map(|c| *k.channel(c).stats()))
        .collect();
    let kernels = kernels.iter().map(|k| *k.stats()).collect();
    (noc, kernels, channels, ff)
}

fn system_counters(sys: &NocSystem) -> Counters {
    counters(sys.noc.stats().clone(), sys.nis.iter(), sys.ff_stats())
}

fn sharded_counters(s: &ShardedSystem) -> Counters {
    let nis = s.regions().iter().map(|r| r.nis.len()).sum();
    let nis = (0..nis).map(|ni| s.ni(ni));
    counters(s.merged_noc_stats(), nis, s.ff_stats())
}

/// A 4x4 mesh mixing every kind of dynamic state: a config module (NI 0),
/// six traffic generators with mixed pacing (NIs 1–6) against memory
/// slaves with latency pipelines (NIs 8–13), and a GT stream NI 7 → NI 15
/// crossing every row cut, long enough to still be flowing at every
/// checkpoint. All connections are opened through the NoC itself, so the
/// config stacks carry runtime bindings in their dynamic state.
fn scenario(seed: u64) -> (NocSystem, Topology) {
    let mut nis = vec![presets::cfg_module_ni(0, 16)];
    for id in 1..7 {
        nis.push(presets::master_ni(id));
    }
    nis.push(presets::raw_ni(7, 1));
    for id in 8..15 {
        nis.push(presets::slave_ni(id));
    }
    nis.push(presets::raw_ni(15, 1));
    let spec = NocSpec::new(
        TopologySpec::Mesh {
            width: 4,
            height: 4,
            nis_per_router: 1,
        },
        nis,
    );
    let topo = spec.topology.build();
    let mut sys = NocSystem::from_spec(&spec);
    let mut cfg = RuntimeConfigurator::new(spec.topology.build(), 0, 0, 8);
    for m in 1..7usize {
        cfg.open_connection(
            &mut sys,
            &ConnectionRequest::best_effort(
                ChannelEnd { ni: m, channel: 1 },
                ChannelEnd {
                    ni: m + 7,
                    channel: 1,
                },
            ),
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
                ChannelEnd { ni: 15, channel: 1 },
            )
        },
    )
    .expect("GT connection opens");
    assert!(
        Engine::run_until(&mut sys, |s| s.noc.drained(), 2_000),
        "configuration traffic must drain"
    );
    for m in 1..7usize {
        sys.bind_master(
            m,
            1,
            Box::new(TrafficGenerator::new(TrafficGeneratorConfig {
                seed: seed * 101 + 11 * m as u64 + 3,
                addr_base: 0,
                addr_range: 0x200,
                mix: TrafficMix::Mixed { read_fraction: 0.5 },
                burst: (1, 4),
                gap_cycles: [0, 7, 23][m % 3],
                total: Some(40),
                max_outstanding: 4,
            })),
        );
        sys.bind_slave(m + 7, 1, Box::new(MemorySlave::new(2 + (m as u64 % 3))));
    }
    sys.bind_raw(7, 1, vec![1], Box::new(StreamSource::counting(3_000)));
    sys.bind_raw(15, 1, vec![1], Box::new(StreamSink::new()));
    (sys, topo)
}

const HORIZON: u64 = 6_000;

#[test]
fn restore_and_continue_is_bit_identical_at_every_checkpoint() {
    let checkpoints = [1u64, 137, 1_024, 2_803, 5_999];
    // Reference: one uninterrupted run, snapshotting (non-destructively)
    // as it passes each checkpoint.
    let (mut reference, _) = scenario(0);
    let start = reference.cycle();
    let mut at = start;
    let mut ref_snaps = Vec::new();
    for &k in &checkpoints {
        reference.run(start + k - at);
        at = start + k;
        ref_snaps.push(reference.snapshot().expect("snapshot"));
    }
    reference.run(start + HORIZON - at);
    let ref_final = reference.snapshot().expect("final snapshot");
    let ref_counters = system_counters(&reference);
    // Each checkpoint: serialize to text, restore into a fresh system,
    // continue to the horizon, demand the identical end state.
    for (&k, snap) in checkpoints.iter().zip(&ref_snaps) {
        let text = json::to_string_pretty(snap);
        let reread = json::parse(&text).expect("snapshot text parses");
        let (mut fresh, _) = scenario(0);
        fresh.restore(&reread).expect("restore");
        assert_eq!(fresh.cycle(), start + k, "restore lands on the checkpoint");
        fresh.run(start + HORIZON - (start + k));
        assert_same_state(
            &fresh.snapshot().expect("snapshot"),
            &ref_final,
            &format!("checkpoint {k}"),
        );
        assert_eq!(system_counters(&fresh), ref_counters, "checkpoint {k}");
    }
    // A restored run must also pass through *later* checkpoints
    // bit-identically, not just reach the same end state.
    let (mut fresh, _) = scenario(0);
    fresh.restore(&ref_snaps[1]).expect("restore");
    for (&k, snap) in checkpoints.iter().zip(&ref_snaps).skip(2) {
        fresh.run(start + k - fresh.cycle());
        assert_same_state(
            &fresh.snapshot().expect("snapshot"),
            snap,
            &format!("intermediate checkpoint {k}"),
        );
    }
}

/// A small fast scenario for the randomized property: config module,
/// one paced generator against a latency-2 memory, 2x1 mesh.
fn small_scenario(seed: u64, gap: u64) -> NocSystem {
    let spec = NocSpec::new(
        TopologySpec::Mesh {
            width: 2,
            height: 1,
            nis_per_router: 2,
        },
        vec![
            presets::cfg_module_ni(0, 4),
            presets::master_ni(1),
            presets::slave_ni(2),
            presets::slave_ni(3),
        ],
    );
    let mut sys = NocSystem::from_spec(&spec);
    let mut cfg = RuntimeConfigurator::new(spec.topology.build(), 0, 0, 8);
    cfg.open_connection(
        &mut sys,
        &ConnectionRequest::best_effort(
            ChannelEnd { ni: 1, channel: 1 },
            ChannelEnd { ni: 2, channel: 1 },
        ),
    )
    .expect("connection opens");
    sys.bind_master(
        1,
        1,
        Box::new(TrafficGenerator::new(TrafficGeneratorConfig {
            seed,
            addr_base: 0,
            addr_range: 0x100,
            mix: TrafficMix::Mixed { read_fraction: 0.5 },
            burst: (1, 3),
            gap_cycles: gap,
            total: Some(25),
            max_outstanding: 2,
        })),
    );
    sys.bind_slave(2, 1, Box::new(MemorySlave::new(2)));
    sys
}

proptest! {
    /// For a random scenario and a random checkpoint `k < T`: run to `T`
    /// uninterrupted; run to `k`, snapshot, restore into a fresh system,
    /// continue to `T`. Every dynamic field must match.
    #[test]
    fn random_checkpoint_replay_is_bit_identical(
        seed in 1u64..500,
        gap in prop_oneof![Just(0u64), Just(9), Just(31)],
        k in 1u64..1_400,
    ) {
        const T: u64 = 1_500;
        let mut reference = small_scenario(seed, gap);
        let start = reference.cycle();
        reference.run(T);
        let ref_final = reference.snapshot().expect("snapshot");
        let mut interrupted = small_scenario(seed, gap);
        interrupted.run(k);
        let snap = interrupted.snapshot().expect("snapshot");
        let mut fresh = small_scenario(seed, gap);
        fresh.restore(&snap).expect("restore");
        prop_assert_eq!(fresh.cycle(), start + k);
        fresh.run(T - k);
        let diff = first_diff(&fresh.snapshot().expect("snapshot"), &ref_final, "$");
        prop_assert!(diff.is_none(), "k={} diverged: {}", k, diff.unwrap_or_default());
        prop_assert_eq!(system_counters(&fresh), system_counters(&reference));
    }
}

// ---- Sharded execution --------------------------------------------------

fn make_sharded(shards: usize, batch: u64) -> ShardedSystem {
    let (sys, topo) = scenario(0);
    let partition = if shards == 1 {
        Partition::single(topo.router_count())
    } else {
        Partition::mesh_rows(4, 4, shards)
    };
    ShardedSystem::new(sys, &topo, &partition).with_batch(batch)
}

fn run_sharded(s: &mut ShardedSystem, cycles: u64, parallel: bool) {
    if parallel {
        s.run_parallel(cycles);
    } else {
        s.run(cycles);
    }
}

/// The full parity matrix: shards × batch × execution mode, interrupted
/// at a checkpoint that is deliberately *not* a multiple of any batch
/// size (mid-epoch for B=16), with the GT stream still crossing the row
/// cuts — so the snapshot carries in-flight boundary-ring state.
#[test]
fn sharded_restore_matrix_is_bit_identical() {
    const K: u64 = 2_003;
    for shards in [1usize, 2, 4] {
        for batch in [1u64, 16] {
            for parallel in [false, true] {
                if parallel && shards == 1 {
                    continue;
                }
                let mut uninterrupted = make_sharded(shards, batch);
                run_sharded(&mut uninterrupted, HORIZON, parallel);
                let want = uninterrupted.snapshot().expect("snapshot");
                let mut interrupted = make_sharded(shards, batch);
                run_sharded(&mut interrupted, K, parallel);
                let text = json::to_string_pretty(&interrupted.snapshot().expect("snapshot"));
                let snap = json::parse(&text).expect("snapshot text parses");
                let mut fresh = make_sharded(shards, batch);
                fresh.restore(&snap).expect("restore");
                run_sharded(&mut fresh, HORIZON - K, parallel);
                assert_same_state(
                    &fresh.snapshot().expect("snapshot"),
                    &want,
                    &format!("shards={shards} batch={batch} parallel={parallel}"),
                );
                assert_eq!(
                    sharded_counters(&fresh),
                    sharded_counters(&uninterrupted),
                    "counters diverged"
                );
            }
        }
    }
}

/// Sequential and parallel execution must agree *through* a snapshot
/// boundary too: snapshot under one mode, restore and continue under the
/// other.
#[test]
fn restore_may_switch_execution_modes() {
    let mut reference = make_sharded(2, 16);
    reference.run(HORIZON);
    let want = reference.snapshot().expect("snapshot");
    let mut seq = make_sharded(2, 16);
    seq.run(2_003);
    let snap = seq.snapshot().expect("snapshot");
    let mut par = make_sharded(2, 16);
    par.restore(&snap).expect("restore");
    par.run_parallel(HORIZON - 2_003);
    assert_same_state(&par.snapshot().expect("snapshot"), &want, "seq→par switch");
    assert_eq!(sharded_counters(&par), sharded_counters(&reference));
}

/// Regression (boundary-ring restore): the exchange rings' published-cycle
/// watermarks are *derived* state — a restore must rebase them to the
/// restored cycle, not leave them where the target happened to be. The
/// sharpest way to catch a stale watermark is a **rewind**: run a system
/// past the snapshot point (watermarks now sit in the future), restore the
/// older snapshot into that same warm system, and continue in parallel
/// mode — a watermark left ahead of the restored cycle would let a
/// consumer worker absorb cut cycles the rewound producer has not yet
/// re-emitted. Also pins the aligned-snapshot invariant that makes slot
/// payloads empty here: cut words are due the cycle they are emitted, so
/// between `run()` calls every ring is drained (the runner stream is
/// cycle, batch, then a zero slot-count per ring; occupied-slot restore
/// is pinned by the `WireRing` unit tests in `noc-sim`).
#[test]
fn rewind_restore_rebases_boundary_rings() {
    for k in [2_001u64, 2_003, 2_005, 2_007] {
        let mut uninterrupted = make_sharded(2, 16);
        uninterrupted.run(HORIZON);
        let want = uninterrupted.snapshot().expect("snapshot");
        let mut sys = make_sharded(2, 16);
        sys.run(k);
        let snap = sys.snapshot().expect("snapshot");
        // The runner stream parses exactly, and every ring is drained at
        // an aligned snapshot point.
        let runner: Vec<u64> = snap
            .get("runner")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap())
            .collect();
        let envelope_cycle = snap
            .get("cycle")
            .expect("envelope cycle")
            .as_u64()
            .expect("cycle is a number");
        assert_eq!(
            runner[0], envelope_cycle,
            "runner stream leads with the envelope cycle"
        );
        let mut pos = 2; // cycle, batch
        while pos < runner.len() {
            assert_eq!(runner[pos], 0, "rings are drained between runs");
            pos += 1;
        }
        assert_eq!(pos, runner.len(), "runner stream parses exactly");
        // Run the same system ahead, then rewind it onto the snapshot and
        // continue with worker threads: only a rebased watermark keeps the
        // producers and consumers in lockstep from cycle `k`.
        sys.run_parallel(HORIZON - k);
        sys.restore(&snap).expect("rewind restore");
        sys.run_parallel(HORIZON - k);
        assert_same_state(
            &sys.snapshot().expect("snapshot"),
            &want,
            &format!("rewind k={k}"),
        );
        assert_eq!(sharded_counters(&sys), sharded_counters(&uninterrupted));
    }
}

// ---- Forking ------------------------------------------------------------

/// One warm snapshot, two futures: restoring the same snapshot into two
/// systems yields fully independent copies — divergent traffic injected
/// into one fork must not perturb the other, and the parent snapshot
/// text stays byte-stable throughout.
#[test]
fn forked_restores_are_isolated() {
    let (mut parent, _) = scenario(0);
    parent.run(2_000);
    let snap = parent.snapshot().expect("snapshot");
    let parent_text = json::to_string_pretty(&snap);
    // Reference: the undisturbed continuation.
    let (mut reference, _) = scenario(0);
    reference.restore(&snap).expect("restore");
    reference.run(2_000);
    let want = reference.snapshot().expect("snapshot");
    // Fork A continues untouched; fork B gets divergent traffic injected
    // directly into a master shell. Interleave their runs to give any
    // accidental shared state every chance to bleed through.
    let (mut fork_a, _) = scenario(0);
    let (mut fork_b, _) = scenario(0);
    fork_a.restore(&snap).expect("restore A");
    fork_b.restore(&snap).expect("restore B");
    fork_b.nis[1]
        .master_mut(1)
        .submit(Transaction::write(0x40, vec![0xDEAD, 0xBEEF], 9));
    for _ in 0..4 {
        fork_a.run(500);
        fork_b.run(500);
    }
    assert_same_state(
        &fork_a.snapshot().expect("snapshot"),
        &want,
        "undisturbed fork",
    );
    assert_eq!(system_counters(&fork_a), system_counters(&reference));
    let diverged = first_diff(&fork_b.snapshot().expect("snapshot"), &want, "$");
    assert!(
        diverged.is_some(),
        "injected traffic must actually diverge fork B"
    );
    // The parent was never perturbed by any of it.
    assert_eq!(
        json::to_string_pretty(&parent.snapshot().expect("snapshot")),
        parent_text,
        "parent snapshot must stay byte-stable after forking"
    );
}
