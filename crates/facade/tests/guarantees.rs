//! Integration tests of the §2 service guarantees: throughput lower
//! bounds, latency upper bounds and jitter bounds of GT connections, and
//! their independence from best-effort interference — the paper's central
//! compositionality claim, checked against the analytic formulas.

use aethereal::cfg::NocSystem;
use aethereal::proto::{
    MasterIp, MemorySlave, StreamSink, TrafficGenerator, TrafficGeneratorConfig, TrafficMix,
};
use aethereal::sim::Engine;
use aethereal::sim::SLOT_WORDS;
use scenario::{
    configurable, gt, harness, open, raw_pair_spec, recording_sink, source, BE, ENDLESS, STU,
};

mod scenario;

/// GT stream + optional BE interference on a shared link.
fn gt_with_interference(slots: usize, interference: bool) -> (f64, u64, NocSystem) {
    let mut sys = harness(slots, interference);
    if interference {
        sys.bind_slave(4, 1, Box::new(MemorySlave::new(1)));
        sys.bind_master(
            2,
            1,
            Box::new(TrafficGenerator::new(TrafficGeneratorConfig {
                seed: 3,
                mix: TrafficMix::WriteOnly,
                burst: (6, 8),
                ..Default::default()
            })),
        );
    }
    source(&mut sys, 1, 1, ENDLESS);
    let sink = recording_sink(&mut sys, 3, 1);
    sys.run(2_000);
    let before = sys.raw_ip_as::<StreamSink>(sink).received().len();
    sys.run(24_000);
    let s = sys.raw_ip_as::<StreamSink>(sink);
    let rate = (s.received().len() - before) as f64 / 24_000.0;
    let jitter = s.max_inter_arrival().unwrap_or(0);
    assert_eq!(sys.noc.gt_conflicts(), 0);
    (rate, jitter, sys)
}

#[test]
fn gt_throughput_meets_lower_bound_for_every_reservation() {
    for slots in 1..=4usize {
        let (rate, _, _) = gt_with_interference(slots, false);
        // §2: N slots ⇒ N·B_slot guaranteed. Each spread slot carries one
        // flit = 1 header + 2 payload words per table period of 24 cycles,
        // so the payload lower bound is 2N/24 words/cycle.
        let bound = 2.0 * slots as f64 / (STU as f64 * SLOT_WORDS as f64);
        assert!(
            rate >= bound * 0.999,
            "{slots} slots: measured {rate:.4} < payload bound {bound:.4}"
        );
    }
}

#[test]
fn gt_rate_and_jitter_unchanged_by_interference() {
    let (clean_rate, clean_jitter, _) = gt_with_interference(2, false);
    let (loaded_rate, loaded_jitter, _) = gt_with_interference(2, true);
    assert!(
        (clean_rate - loaded_rate).abs() < 1e-9,
        "GT throughput must be load-independent: {clean_rate} vs {loaded_rate}"
    );
    assert_eq!(
        clean_jitter, loaded_jitter,
        "GT jitter must be load-independent"
    );
}

#[test]
fn gt_jitter_bounded_by_max_slot_gap() {
    for slots in 1..=4usize {
        let (mut sys, mut cfg) = configurable(&raw_pair_spec(), 0);
        let handle = open(&mut cfg, &mut sys, (1, 1), (2, 1), gt(slots), BE);
        let gap = handle.fwd_slots().expect("GT").max_gap(STU);
        source(&mut sys, 1, 1, ENDLESS);
        let sink = recording_sink(&mut sys, 2, 1);
        sys.run(30_000);
        let measured = sys
            .raw_ip_as::<StreamSink>(sink)
            .max_inter_arrival()
            .unwrap_or(0);
        // §2: jitter ≤ max distance between slot reservations (in cycles).
        let bound = gap as u64 * SLOT_WORDS;
        assert!(
            measured <= bound,
            "{slots} slots: jitter {measured} > bound {bound} (gap {gap} slots)"
        );
    }
}

#[test]
fn be_makes_progress_even_under_gt_pressure() {
    // A GT connection holding 6 of 8 slots leaves the BE class only the
    // residual bandwidth — but never starves it (BE uses unreserved and
    // unused slots).
    let mut sys = harness(6, true);
    source(&mut sys, 1, 1, ENDLESS);
    sys.bind_slave(4, 1, Box::new(MemorySlave::new(1)));
    let be = sys.bind_master(
        1 + 1,
        1,
        Box::new(TrafficGenerator::new(TrafficGeneratorConfig {
            seed: 11,
            mix: TrafficMix::AckedWriteOnly,
            burst: (2, 4),
            total: Some(40),
            ..Default::default()
        })),
    );
    assert!(
        Engine::run_until(
            &mut sys,
            |s| s.master_ip_as::<TrafficGenerator>(be).done(),
            600_000,
        ),
        "BE must complete despite heavy GT reservations"
    );
    let g = sys.master_ip_as::<TrafficGenerator>(be);
    assert_eq!(g.completed(), 40);
    assert_eq!(g.errors(), 0);
}

#[test]
fn unused_gt_slots_are_recovered_by_be() {
    // A GT connection that sends nothing: its reserved slots pass unused
    // and BE traffic claims every cycle — the combined router's efficiency
    // argument.
    let mut sys = harness(7, true);
    sys.bind_slave(4, 1, Box::new(MemorySlave::new(1)));
    let be = sys.bind_master(
        2,
        1,
        Box::new(TrafficGenerator::new(TrafficGeneratorConfig {
            seed: 2,
            mix: TrafficMix::WriteOnly,
            burst: (8, 8),
            total: Some(100),
            ..Default::default()
        })),
    );
    assert!(Engine::run_until(
        &mut sys,
        |s| s.master_ip_as::<TrafficGenerator>(be).done(),
        300_000,
    ));
    let g = sys.master_ip_as::<TrafficGenerator>(be);
    assert_eq!(g.issued(), 100);
    // GT channel stats show slots passing unused.
    assert!(sys.nis[1].kernel.stats().gt_slots_unused > 0);
}
