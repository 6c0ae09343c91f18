//! Bit-identity of sharded execution.
//!
//! The shard refactor cuts a configured `NocSystem` at link boundaries into
//! lockstep regions with boundary-word mailboxes, and generalizes the
//! quiescent fast path into a per-region activity set. These tests pin the
//! non-negotiable: a sharded run — sequential or on worker threads, for any
//! shard count — is **bit-identical** to `Engine::run` on the unsplit
//! system, in every per-link counter, NI kernel counter, IP statistic and
//! delivered word, for both uniform and hotspot traffic.

use aethereal::cfg::{NocSystem, ShardedSystem};
use aethereal::ni::kernel::NiKernelStats;
use aethereal::proto::{
    MemorySlave, StreamSink, TrafficGenerator, TrafficGeneratorConfig, TrafficMix,
};
use aethereal::sim::shard::Partition;
use aethereal::sim::{Clocked, Engine, NocStats};
use scenario::{configure, configured_pair, mixed_4x4, raw_mesh, recording_sink, source, Mixed4x4};

mod scenario;

/// Long enough for every workload to drain and the idle tail to engage the
/// per-region skip machinery.
const HORIZON: u64 = 12_000;

/// Traffic shape over the 4x4 mesh.
#[derive(Clone, Copy)]
enum Pattern {
    /// Every master targets the slave diagonally across the cut.
    Uniform,
    /// Every master hammers channels of one slave NI.
    Hotspot,
}

/// The 4x4 mixed workload ([`mixed_4x4`]) under `pattern`: 30 transactions
/// per generator and a 400-word GT stream NI 7 → NI 15 crossing every row
/// cut.
fn scenario(pattern: Pattern) -> Mixed4x4 {
    mixed_4x4(matches!(pattern, Pattern::Hotspot), 30, 400)
}

/// Global NI of the GT stream sink.
const SINK: usize = 15;

/// Everything compared between the unsplit and sharded executions.
#[derive(Debug, PartialEq)]
struct Observed {
    cycle: u64,
    noc: NocStats,
    kernels: Vec<NiKernelStats>,
    generators: Vec<(u64, u64, u64, u64)>, // issued, completed, errors, Σlatency
    received: Vec<u32>,
    gt_conflicts: u64,
    be_overflows: u64,
}

fn observe_single(s: &Mixed4x4) -> Observed {
    Observed {
        cycle: s.sys.cycle(),
        noc: s.sys.noc.stats().clone(),
        kernels: s.sys.nis.iter().map(|ni| *ni.kernel.stats()).collect(),
        generators: s
            .masters
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let g = s.sys.master_ip_as::<TrafficGenerator>(i);
                (
                    g.issued(),
                    g.completed(),
                    g.errors(),
                    g.latency_samples().iter().sum(),
                )
            })
            .collect(),
        received: s
            .sys
            .raw_ip_as::<StreamSink>(1) // raw handle 1 = the sink
            .received()
            .to_vec(),
        gt_conflicts: s.sys.noc.gt_conflicts(),
        be_overflows: s.sys.noc.be_overflows(),
    }
}

fn observe_sharded(sharded: &ShardedSystem, masters: &[(usize, usize)], sink: usize) -> Observed {
    Observed {
        cycle: sharded.cycle(),
        noc: sharded.merged_noc_stats(),
        kernels: sharded.kernel_stats(),
        generators: masters
            .iter()
            .map(|&(ni, port)| {
                let g = sharded.master_ip_as::<TrafficGenerator>(ni, port);
                (
                    g.issued(),
                    g.completed(),
                    g.errors(),
                    g.latency_samples().iter().sum(),
                )
            })
            .collect(),
        received: sharded.raw_ip_as::<StreamSink>(sink).received().to_vec(),
        gt_conflicts: sharded.gt_conflicts(),
        be_overflows: sharded.be_overflows(),
    }
}

/// The reference: the unsplit system driven by `Engine::run`.
fn reference(pattern: Pattern) -> (Observed, Vec<(usize, usize)>) {
    let mut s = scenario(pattern);
    s.sys.run(HORIZON);
    let masters = s.masters.clone();
    let o = observe_single(&s);
    (o, masters)
}

fn sharded_run_batched(pattern: Pattern, shards: usize, parallel: bool, batch: u64) -> Observed {
    let s = scenario(pattern);
    let partition = if shards == 1 {
        Partition::single(s.topo.router_count())
    } else {
        Partition::mesh_rows(4, 4, shards)
    };
    let mut sharded = ShardedSystem::new(s.sys, &s.topo, &partition);
    sharded.set_batch(batch);
    assert_eq!(sharded.regions().len(), shards);
    if parallel {
        sharded.run_parallel(HORIZON);
    } else {
        sharded.run(HORIZON);
    }
    observe_sharded(&sharded, &s.masters, SINK)
}

fn sharded_run(pattern: Pattern, shards: usize, parallel: bool) -> Observed {
    sharded_run_batched(pattern, shards, parallel, 1)
}

#[test]
fn uniform_traffic_is_bit_identical_across_shard_counts() {
    let (reference, _) = reference(Pattern::Uniform);
    assert_eq!(reference.gt_conflicts, 0, "GT slots are contention-free");
    assert_eq!(reference.be_overflows, 0, "credit discipline holds");
    assert_eq!(reference.received.len(), 400, "GT stream fully delivered");
    for g in &reference.generators {
        assert_eq!(g.0, 30, "every generator met its quota");
        assert_eq!(g.1, 30, "every transaction completed");
    }
    for shards in [1, 2, 4] {
        let sharded = sharded_run(Pattern::Uniform, shards, false);
        assert_eq!(sharded, reference, "{shards}-shard run diverged");
    }
}

#[test]
fn hotspot_traffic_is_bit_identical_across_shard_counts() {
    let (reference, _) = reference(Pattern::Hotspot);
    assert_eq!(reference.gt_conflicts, 0);
    assert_eq!(reference.be_overflows, 0);
    for g in &reference.generators {
        assert_eq!((g.0, g.1), (30, 30));
    }
    for shards in [1, 2, 4] {
        let sharded = sharded_run(Pattern::Hotspot, shards, false);
        assert_eq!(sharded, reference, "{shards}-shard run diverged");
    }
}

#[test]
fn worker_thread_execution_is_bit_identical() {
    let (uniform_ref, _) = reference(Pattern::Uniform);
    let sharded = sharded_run(Pattern::Uniform, 2, true);
    assert_eq!(sharded, uniform_ref, "parallel 2-shard run diverged");
    let sharded = sharded_run(Pattern::Hotspot, 4, true);
    let (hotspot_ref, _) = reference(Pattern::Hotspot);
    assert_eq!(sharded, hotspot_ref, "parallel 4-shard run diverged");
}

/// The batch size is a pure performance knob: for every `B`, in both
/// execution modes, the sharded run is bit-identical to the unsplit
/// reference — including boundary-credit pressure and wormhole blocking
/// (the hotspot pattern saturates one destination NI from both sides of
/// every cut, so worms block mid-flight across shard boundaries and the
/// boundary credit return engages continuously).
#[test]
fn batched_execution_is_bit_identical_for_all_batch_sizes() {
    let (uniform_ref, _) = reference(Pattern::Uniform);
    let (hotspot_ref, _) = reference(Pattern::Hotspot);
    for batch in [2u64, 3, 7, 16] {
        let sharded = sharded_run_batched(Pattern::Uniform, 2, false, batch);
        assert_eq!(sharded, uniform_ref, "uniform seq batch {batch} diverged");
        let sharded = sharded_run_batched(Pattern::Hotspot, 4, false, batch);
        assert_eq!(sharded, hotspot_ref, "hotspot seq batch {batch} diverged");
    }
    for batch in [7u64, 16] {
        let sharded = sharded_run_batched(Pattern::Uniform, 2, true, batch);
        assert_eq!(sharded, uniform_ref, "uniform par batch {batch} diverged");
        let sharded = sharded_run_batched(Pattern::Hotspot, 4, true, batch);
        assert_eq!(sharded, hotspot_ref, "hotspot par batch {batch} diverged");
    }
}

/// The activity-set machinery must actually engage: once every workload is
/// done, all regions leave the activity set, and the remaining span is
/// covered by per-region skips while the global counters stay exact.
#[test]
fn drained_regions_leave_the_activity_set_and_stay_exact() {
    let s = scenario(Pattern::Uniform);
    let partition = Partition::mesh_rows(4, 4, 2);
    let mut sharded = ShardedSystem::new(s.sys, &s.topo, &partition);
    sharded.run(HORIZON);
    assert!(sharded.all_ips_done(), "workloads drain inside the horizon");
    assert_eq!(sharded.awake_count(), 0, "drained regions all sleep");
    let before = sharded.merged_noc_stats();
    sharded.run(5_000);
    let after = sharded.merged_noc_stats();
    assert_eq!(
        after.cycles,
        before.cycles + 5_000,
        "skips stay cycle-exact"
    );
    assert_eq!(after.delivered, before.delivered, "sleep moves no words");
}

/// GT-slot dormancy: queued GT data that can only move at its channel's
/// reserved slots makes the system quiescent *with a bounded horizon* —
/// the next reserved slot — so the engine (and the shard scheduler) sleeps
/// through the slot-table rotation instead of ticking it, bit-identically.
#[test]
fn gt_slot_dormancy_sleeps_between_reserved_slots() {
    let build = || {
        let spec = raw_mesh(2, 1, 1, 1);
        let topo = spec.build_topology();
        let mut sys = NocSystem::from_spec(&spec);
        // One slot of eight: long dormant stretches between sends.
        configure(&mut sys, &topo, (0, 1), (1, 1), Some(&[0]), true);
        configure(&mut sys, &topo, (1, 1), (0, 1), None, true);
        source(&mut sys, 0, 1, 6);
        recording_sink(&mut sys, 1, 1);
        sys
    };
    // The dormancy engages: the system reports quiescence with GT data
    // still queued, and a bounded horizon (the next reserved slot).
    let mut probe = build();
    let met = Engine::run_until(
        &mut probe,
        |s| Clocked::quiescent(s) && s.nis[0].kernel.channel(1).src_level() > 0,
        2_000,
    );
    assert!(met, "system must go dormant with queued GT data");
    let now = probe.cycle();
    let horizon = probe.next_event(now);
    assert!(
        horizon > now && horizon != u64::MAX,
        "queued GT data must bound the horizon (got {horizon} at {now})"
    );
    // And sleeping to that horizon is exact: bit-identical to ticking.
    let mut by_tick = build();
    for _ in 0..2_000 {
        Engine::tick(&mut by_tick);
    }
    let mut by_run = build();
    by_run.run(2_000);
    assert_eq!(by_tick.noc.stats(), by_run.noc.stats());
    assert_eq!(
        by_tick
            .nis
            .iter()
            .map(|n| *n.kernel.stats())
            .collect::<Vec<_>>(),
        by_run
            .nis
            .iter()
            .map(|n| *n.kernel.stats())
            .collect::<Vec<_>>()
    );
    let sink_a = by_tick.raw_ip_as::<StreamSink>(1);
    let sink_b = by_run.raw_ip_as::<StreamSink>(1);
    assert_eq!(sink_a.received(), sink_b.received());
    assert_eq!(sink_a.received().len(), 6, "stream fully delivered");
}

/// The per-IP activity horizon: a paced generator's gap makes the *system*
/// quiescent with a finite next-event horizon, and `Engine::run`'s
/// horizon-bounded skip across those gaps is bit-identical to per-cycle
/// ticking.
#[test]
fn pacing_gaps_are_skipped_exactly_by_the_engine() {
    let build = || {
        let (mut sys, _) = configured_pair();
        sys.bind_master(
            1,
            1,
            Box::new(TrafficGenerator::new(TrafficGeneratorConfig {
                seed: 5,
                addr_base: 0,
                addr_range: 0x100,
                mix: TrafficMix::ReadOnly,
                burst: (1, 2),
                gap_cycles: 120, // long gaps: the whole system drains between bursts
                total: Some(8),
                max_outstanding: 1,
            })),
        );
        sys.bind_slave(2, 1, Box::new(MemorySlave::new(3)));
        sys
    };
    // The horizon engages mid-run: the system goes quiescent inside a gap
    // while the workload is not done, and reports a finite wake-up cycle.
    let mut probe = build();
    let met = Engine::run_until(&mut probe, |s| s.quiescent() && !s.all_ips_done(), 3_000);
    assert!(met, "system must go quiescent inside a pacing gap");
    let now = probe.cycle();
    let horizon = probe.next_event(now);
    assert!(
        horizon > now && horizon != u64::MAX,
        "gap must yield a finite horizon (got {horizon} at {now})"
    );
    // And skipping those gaps is exact: bit-identical to per-cycle ticking.
    let mut by_tick = build();
    for _ in 0..4_000 {
        Engine::tick(&mut by_tick);
    }
    let mut by_run = build();
    by_run.run(4_000);
    assert_eq!(by_tick.cycle(), by_run.cycle());
    assert_eq!(by_tick.noc.stats(), by_run.noc.stats());
    assert_eq!(
        by_tick
            .nis
            .iter()
            .map(|n| *n.kernel.stats())
            .collect::<Vec<_>>(),
        by_run
            .nis
            .iter()
            .map(|n| *n.kernel.stats())
            .collect::<Vec<_>>()
    );
    let ga = by_tick.master_ip_as::<TrafficGenerator>(0);
    let gb = by_run.master_ip_as::<TrafficGenerator>(0);
    assert_eq!(ga.issued(), 8);
    assert_eq!(
        (ga.issued(), ga.completed(), ga.latency_samples()),
        (gb.issued(), gb.completed(), gb.latency_samples())
    );
}
