//! Deterministic fault injection, detection and self-healing.
//!
//! The fault layer (`noc_sim::fault`) injects scheduled link/router faults
//! at the emission site, keyed by *global* router id, with per-event
//! seeded generators — so a fault timeline is a pure function of the
//! armed [`FaultPlan`], independent of shard layout, execution mode or
//! batch size. These tests pin the robustness contract end to end:
//!
//! * a seeded plan yields **bit-identical** runs (every counter, every
//!   delivered word, the merged [`FaultReport`]) monolithic vs sharded,
//!   sequential vs parallel, for every batch size;
//! * a faulted run snapshots and restores **mid-fault** bit-identically,
//!   and a snapshot of an armed network refuses to load onto an unarmed
//!   one (structured error, not silent state loss);
//! * an armed plan — even an *empty* one — makes fast-forward decline,
//!   bit-identically to a cycle-accurate run, and re-engages after
//!   disarming;
//! * [`RuntimeConfigurator::heal`] masks the suspect links from a
//!   [`FaultReport`], re-plans around them, re-opens the affected
//!   connections and the result **re-certifies** cleanly — and when GT
//!   guarantees cannot be re-established on the detour, it fails loudly
//!   with a structured error instead of degrading silently.

use aethereal::cfg::{presets, ConfigError, NocSystem, RuntimeConfigurator, ShardedSystem};
use aethereal::ni::kernel::NiKernelStats;
use aethereal::proto::{CountingSink, StreamSink, TrafficGenerator};
use aethereal::sim::shard::Partition;
use aethereal::sim::topology::dir;
use aethereal::sim::{Clocked, FaultPlan, FaultReport, NocStats, SuspectLink};
use aethereal_verify::certify_system_with;
use scenario::{
    configurable, gt, gt_stream_2x2, mixed_4x4, open, raw_mesh, recording_sink, settle, source,
    with_cfg, Mixed4x4, BE, ENDLESS,
};

mod scenario;

const HORIZON: u64 = 12_000;

// ---- Shared 4x4 scenario (the shard-parity workload, under fault) -------

/// The shard-parity uniform workload ([`mixed_4x4`]): traffic generators on
/// NIs 1–6 talking BE to memories on NIs 8–13 (30 transactions each), and a
/// 400-word GT stream NI 7 → NI 15 crossing every row cut.
fn scenario() -> Mixed4x4 {
    mixed_4x4(false, 30, 400)
}

/// Every fault kind at once, scheduled on links the workload actually
/// crosses: the GT stream (routers 7 → 11 → 15), master 1's BE path
/// (1 → 0 → 4 → 8), master 2's BE path (2 → 1 → 5 → 9) and the slave on
/// router 10. Windows are relative to the settle cycle so the plan hits
/// live traffic regardless of how long configuration took.
fn storm_plan(start: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(0xFA01_7E57);
    plan.link_flaky(7, dir::SOUTH, start + 50, start + 2_000, 200_000)
        .slot_corrupt(11, dir::SOUTH, start + 100, start + 400, 0xA5A5)
        .router_stall(10, start + 300, start + 330)
        .credit_loss(0, dir::EAST, start + 100, start + 1_500, 4)
        .link_stuck(1, dir::SOUTH, start + 200, start + 240);
    plan
}

/// Everything compared between executions, including the fault report.
#[derive(Debug, PartialEq)]
struct Observed {
    cycle: u64,
    noc: NocStats,
    kernels: Vec<NiKernelStats>,
    generators: Vec<(u64, u64, u64, u64)>, // issued, completed, errors, Σlatency
    received: Vec<u32>,
    gt_conflicts: u64,
    be_overflows: u64,
    report: FaultReport,
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
        received: s.sys.raw_ip_as::<StreamSink>(1).received().to_vec(),
        gt_conflicts: s.sys.noc.gt_conflicts(),
        be_overflows: s.sys.noc.be_overflows(),
        report: s.sys.fault_report(),
    }
}

fn observe_sharded(sharded: &ShardedSystem, masters: &[(usize, usize)]) -> Observed {
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
        received: sharded.raw_ip_as::<StreamSink>(15).received().to_vec(),
        gt_conflicts: sharded.gt_conflicts(),
        be_overflows: sharded.be_overflows(),
        report: sharded.fault_report(),
    }
}

fn sharded_faulted(shards: usize, parallel: bool, batch: u64) -> Observed {
    let mut s = scenario();
    s.sys.arm_faults(&storm_plan(s.start));
    let partition = if shards == 1 {
        Partition::single(s.topo.router_count())
    } else {
        Partition::mesh_rows(4, 4, shards)
    };
    let mut sharded = ShardedSystem::new(s.sys, &s.topo, &partition);
    sharded.set_batch(batch);
    assert_eq!(sharded.regions().len(), shards);
    assert!(
        sharded.regions().iter().all(NocSystem::fault_armed),
        "the split carries the armed plan to every region"
    );
    if parallel {
        sharded.run_parallel(HORIZON);
    } else {
        sharded.run(HORIZON);
    }
    observe_sharded(&sharded, &s.masters)
}

// ---- Tentpole: shard-layout-independent fault timelines ------------------

#[test]
fn seeded_fault_storm_is_bit_identical_across_shard_counts() {
    let mut reference = scenario();
    let plan = storm_plan(reference.start);
    reference.sys.arm_faults(&plan);
    assert!(reference.sys.fault_armed());
    reference.sys.run(HORIZON);
    let reference = observe_single(&reference);
    // The storm must actually bite: words dropped, words corrupted, and
    // the NIs must have seen truncated packets.
    let dropped: u64 = reference
        .report
        .suspects
        .iter()
        .map(|s| s.dropped_words)
        .sum();
    let corrupted: u64 = reference
        .report
        .suspects
        .iter()
        .map(|s| s.corrupted_words)
        .sum();
    assert!(dropped > 0, "the storm must drop words");
    assert!(corrupted > 0, "the storm must corrupt words");
    assert!(
        reference.received.len() < 400,
        "the flaky link must cost the GT stream words"
    );
    assert!(!reference.report.is_clean());
    for (shards, parallel, batch) in [
        (1, false, 1),
        (2, false, 1),
        (4, false, 1),
        (2, false, 16),
        (4, false, 16),
        (2, true, 1),
        (4, true, 1),
        (2, true, 16),
        (4, true, 16),
    ] {
        let sharded = sharded_faulted(shards, parallel, batch);
        assert_eq!(
            sharded, reference,
            "{shards}-shard (parallel={parallel}, batch={batch}) faulted run diverged"
        );
    }
}

// ---- Snapshot/restore mid-fault ------------------------------------------

#[test]
fn mid_fault_snapshot_restores_bit_identically() {
    // Reference: armed run straight through.
    let mut a = scenario();
    let plan = storm_plan(a.start);
    a.sys.arm_faults(&plan);
    a.sys.run(600); // inside the flaky and credit-loss windows
    let snap = a.sys.snapshot().expect("mid-fault snapshot");
    a.sys.run(4_000);
    let reference = observe_single(&a);

    // Restore onto a fresh, identically-armed system and continue.
    let mut b = scenario();
    b.sys.arm_faults(&plan);
    b.sys.restore(&snap).expect("mid-fault restore");
    b.sys.run(4_000);
    assert_eq!(observe_single(&b), reference, "restored run diverged");

    // A 2-shard restore of the same mid-fault state continues identically.
    let mut s = scenario();
    s.sys.arm_faults(&plan);
    let partition = Partition::mesh_rows(4, 4, 2);
    let mut sharded = ShardedSystem::new(s.sys, &s.topo, &partition);
    sharded.run(600);
    let shard_snap = sharded.snapshot().expect("sharded mid-fault snapshot");
    let mut s2 = scenario();
    s2.sys.arm_faults(&plan);
    let mut restored = ShardedSystem::new(s2.sys, &s2.topo, &partition);
    restored.restore(&shard_snap).expect("sharded restore");
    restored.run(4_000);
    assert_eq!(
        observe_sharded(&restored, &s2.masters),
        reference,
        "sharded mid-fault restore diverged from the monolithic reference"
    );

    // An armed snapshot must refuse to load onto an unarmed target: the
    // fault state rides the audited persist walk, so the stream shapes
    // differ and the mismatch is a structured error, not silent loss.
    let mut unarmed = scenario();
    let err = unarmed.sys.restore(&snap);
    assert!(
        err.is_err(),
        "armed snapshot must not load onto unarmed system"
    );
}

// ---- Satellite 1: armed plans decline fast-forward -----------------------

/// The canonical fast-forwardable workload: one endless local GT stream
/// (NI 0 → NI 1) on a 2x2 mesh, raw ports at clock div 4.
fn endless_gt_stream() -> NocSystem {
    gt_stream_2x2(1, false).0
}

fn observe_stream(sys: &NocSystem) -> (u64, NocStats, Vec<NiKernelStats>, u64, u32) {
    let sink = sys.raw_ip_at::<CountingSink>(1);
    (
        sys.cycle(),
        sys.noc.stats().clone(),
        sys.nis.iter().map(|ni| *ni.kernel.stats()).collect(),
        sink.count(),
        sink.last(),
    )
}

#[test]
fn armed_plan_declines_fast_forward_and_reengages_after_disarm() {
    // An armed plan — even one that schedules *nothing* — marks the
    // network faulted: extrapolation could skip a scheduled window, so
    // fast-forward must decline while staying bit-identical.
    let mut armed = endless_gt_stream();
    armed.set_fast_forward(true);
    armed.arm_faults(&FaultPlan::new(7));
    let mut reference = endless_gt_stream();
    armed.run(30_000);
    reference.run(30_000);
    assert_eq!(
        armed.ff_stats().jumps,
        0,
        "an armed plan must veto fast-forward"
    );
    assert_eq!(observe_stream(&armed), observe_stream(&reference));
    // Disarming restores eligibility: the same workload now extrapolates,
    // still bit-identically.
    armed.disarm_faults();
    armed.run(30_000);
    reference.run(30_000);
    assert!(
        armed.ff_stats().jumps > 0,
        "fast-forward must re-engage once disarmed"
    );
    assert_eq!(observe_stream(&armed), observe_stream(&reference));
}

// ---- Tentpole: detection and self-healing --------------------------------

/// A 2x2 mesh (two NIs per router) with a GT stream NI 2 (router 1) →
/// NI 4 (router 2) whose XY route crosses (router 1, WEST) then
/// (router 0, SOUTH). Stuck-at faulting (0, SOUTH) leaves exactly one
/// equal-length detour: router 1 → 3 → 2. With `blocker_slots`, a second
/// GT connection NI 6 (router 3) → NI 5 (router 2) owns that many slots
/// of the detour's (router 3, WEST) link — its ejection port (LOCAL1)
/// is disjoint from the stream's, so it can own the link outright.
struct HealBench {
    sys: NocSystem,
    cfg: RuntimeConfigurator,
    handles: Vec<aethereal::cfg::ConnectionHandle>,
}

fn heal_bench(blocker_slots: Option<usize>) -> HealBench {
    let mut spec = with_cfg(raw_mesh(2, 2, 2, 1), 0, 16);
    spec.nis[4] = presets::raw_ni(4, 2);
    let (mut sys, mut cfg) = configurable(&spec, 0);
    let mut handles = vec![open(&mut cfg, &mut sys, (2, 1), (4, 1), gt(2), BE)];
    if let Some(slots) = blocker_slots {
        handles.push(open(
            &mut cfg,
            &mut sys,
            (6, 1),
            (5, 1),
            gt(slots),
            gt(slots),
        ));
    }
    settle(&mut sys, 2_000);
    HealBench { sys, cfg, handles }
}

/// A report fingering (router 0, SOUTH) — mid-route for the [`heal_bench`]
/// stream — as detection leaves it once the outage window has closed.
fn south_link_report() -> FaultReport {
    FaultReport {
        suspects: vec![SuspectLink {
            event: 0,
            router: 0,
            port: dir::SOUTH,
            router_wide: false,
            dropped_words: 12,
            corrupted_words: 0,
            lost_credits: 0,
            active: false,
        }],
        ..FaultReport::default()
    }
}

#[test]
fn heal_reroutes_around_failed_link_and_recertifies() {
    let HealBench {
        mut sys,
        mut cfg,
        handles,
    } = heal_bench(None);
    source(&mut sys, 2, 1, ENDLESS);
    recording_sink(&mut sys, 4, 1);
    // A transient stuck-at window on (router 0, SOUTH) — mid-path on the
    // stream's route — that expires before the heal.
    let start = sys.cycle();
    let mut plan = FaultPlan::new(0xBEEF);
    plan.link_stuck(0, dir::SOUTH, start + 20, start + 220);
    sys.arm_faults(&plan);
    sys.run(400);

    // Detection: the health counters finger the faulted link.
    let report = sys.fault_report();
    assert!(!report.is_clean(), "the outage must be detected");
    assert_eq!(report.suspects.len(), 1);
    let suspect = &report.suspects[0];
    assert_eq!((suspect.router, suspect.port), (0, dir::SOUTH));
    assert!(suspect.dropped_words > 0, "words were lost on the link");
    assert!(!suspect.active, "the window expired before the heal");
    sys.disarm_faults();

    // Recovery: mask the link, re-plan, re-open, re-certify.
    let delivered_before = sys.raw_ip_at::<StreamSink>(4).received().len();
    let gt_conflicts_before = sys.noc.gt_conflicts();
    let outcome = cfg
        .heal(&mut sys, &report, handles)
        .expect("heal plumbing succeeds");
    assert!(
        outcome.failed.is_empty(),
        "the detour must carry the stream"
    );
    assert_eq!(outcome.reopened, 1, "the crossing connection re-opened");
    assert_eq!(outcome.healthy.len(), 1);
    assert!(outcome.masked.contains(&(0, dir::SOUTH)));
    assert!(cfg.topo().is_masked(0, dir::SOUTH));
    let rerouted = &outcome.healthy[0];
    assert!(
        !rerouted.fwd_links().contains(&(0, dir::SOUTH)),
        "the new forward route avoids the masked link"
    );

    // The healed register state re-certifies: contention-free slots,
    // valid minimal routes (against the masked topology), sane credits.
    let cert = certify_system_with(cfg.topo(), &sys).expect("healed system certifies");
    assert!(cert.flows.iter().any(|f| f.gt));

    // And the guarantee is real again: the stream flows on the detour
    // with zero new GT conflicts.
    sys.run(500);
    assert!(
        sys.raw_ip_at::<StreamSink>(4).received().len() > delivered_before,
        "the stream must flow again after the heal"
    );
    assert_eq!(
        sys.noc.gt_conflicts(),
        gt_conflicts_before,
        "no GT contention on the healed schedule"
    );
}

#[test]
fn heal_fails_loudly_when_gt_cannot_be_reestablished() {
    // The second connection owns the entire slot table of (router 3,
    // WEST) — the only detour for the stream once (0, SOUTH) is masked —
    // so re-establishing the stream's GT guarantee is infeasible.
    let HealBench {
        mut sys,
        mut cfg,
        handles,
    } = heal_bench(Some(8));
    let report = south_link_report();
    let outcome = cfg
        .heal(&mut sys, &report, handles)
        .expect("heal plumbing succeeds");
    assert_eq!(
        outcome.failed.len(),
        1,
        "the stream's GT guarantee is infeasible on the detour"
    );
    let (request, err) = &outcome.failed[0];
    assert_eq!(request.master.ni, 2, "the failed connection is the stream");
    assert!(
        matches!(err, ConfigError::Slots(_)),
        "the failure is structured: no feasible slots, got {err}"
    );
    assert_eq!(outcome.reopened, 0);
    assert_eq!(
        outcome.healthy.len(),
        1,
        "the slot-hogging connection is untouched"
    );
    // The survivor still certifies against the masked topology.
    certify_system_with(cfg.topo(), &sys).expect("surviving flows certify");
}

#[test]
fn heal_reopens_a_best_effort_connection_beside_the_gt_stream() {
    let HealBench {
        mut sys,
        mut cfg,
        mut handles,
    } = heal_bench(None);
    // NI 3 shares router 1 with the stream's source, so its XY route to
    // NI 4 crosses (router 0, SOUTH) as well.
    handles.push(open(&mut cfg, &mut sys, (3, 1), (4, 2), BE, BE));
    let report = south_link_report();
    let outcome = cfg
        .heal(&mut sys, &report, handles)
        .expect("heal plumbing succeeds");
    assert!(outcome.failed.is_empty(), "both connections fit the detour");
    assert_eq!(outcome.reopened, 2, "the GT stream and the BE connection");
    for healed in &outcome.healthy {
        assert!(!healed.fwd_links().contains(&(0, dir::SOUTH)));
    }
    certify_system_with(cfg.topo(), &sys).expect("healed system certifies");
}

#[test]
fn lost_acknowledgment_times_out_after_exactly_the_timeout() {
    // The one acked write of a configuration-connection bootstrap reaches
    // NI 6, but both mesh links out of its router are stuck for good, so
    // the acknowledgment never comes back: a structured `Timeout`, with
    // time advanced by exactly the configurator's 200 000-cycle budget.
    // A shell that only awaits its response is idle, so once the ack is
    // dropped the whole wait is one skip, and the system is dormant after.
    let HealBench {
        mut sys, mut cfg, ..
    } = heal_bench(None);
    let mut plan = FaultPlan::new(7);
    plan.link_stuck(3, dir::NORTH, sys.cycle(), u64::MAX)
        .link_stuck(3, dir::WEST, sys.cycle(), u64::MAX);
    sys.arm_faults(&plan);
    let (before, stats) = (sys.cycle(), *cfg.stats());
    let err = cfg
        .open_config_connection(&mut sys, 6)
        .expect_err("no acknowledgment can arrive");
    assert!(matches!(err, ConfigError::Timeout), "{err}");
    assert_eq!(sys.cycle() - before, 200_000);
    assert_eq!(cfg.stats().cycles_waited - stats.cycles_waited, 200_000);
    assert_eq!(cfg.stats().acks, stats.acks);
    assert!(Clocked::quiescent(&sys), "nothing left to tick");
    let dropped: u64 = sys
        .fault_report()
        .suspects
        .iter()
        .map(|s| s.dropped_words)
        .sum();
    assert!(dropped > 0, "the acknowledgment was sent and dropped");
}
