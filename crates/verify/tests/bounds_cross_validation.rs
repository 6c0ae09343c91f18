//! Cross-validation of the analytical bounds against cycle-accurate runs.
//!
//! For every certified GT flow in each scenario:
//!
//! * **throughput is exact** — over any whole number of slot-table
//!   revolutions in steady state, a saturated source delivers exactly
//!   `payload_per_revolution` words per revolution, not merely at least;
//! * **jitter holds** — the measured max inter-arrival gap at the sink
//!   never exceeds the analytical `jitter_cycles`;
//! * **latency holds** — the last word of a finite message lands within
//!   [`worst_case_latency`] cycles of the run starting, at every start
//!   phase of one slot-table revolution.
//!
//! Scenarios sweep uniform (disjoint column streams) and hotspot
//! (converging on the mesh center) traffic on 8x8 and 16x16 meshes, plus
//! a two-level diagonal route whose gateway rewrites tax both the packet
//! budget and the path latency.

use aethereal_cfg::runtime::Service;
use aethereal_cfg::{NocSpec, NocSystem, SlotStrategy};
use aethereal_ni::fifo::DEFAULT_CROSSING_CYCLES;
use aethereal_proto::StreamSink;
use aethereal_verify::bounds::{gt_bounds, worst_case_latency};
use aethereal_verify::certify_system;
use scenario::{
    configurable, gt, harness_spec, open, raw_mesh, recording_sink, source, with_cfg, BE, ENDLESS,
    STU,
};

#[path = "../../facade/tests/scenario/mod.rs"]
mod scenario;

const REVOLUTION: u64 = (STU as u64) * 3; // SLOT_WORDS

/// Mesh of raw streaming NIs with the configuration module at `cfg_ni`,
/// one GT connection per `(src, dst)` pair on channel 1 of both ends.
fn gt_mesh(
    width: usize,
    height: usize,
    cfg_ni: usize,
    pairs: &[(usize, usize)],
    slots: usize,
    strategy: SlotStrategy,
) -> (NocSpec, NocSystem) {
    // The configurator binds one of its config channels per remote NI it
    // ever touches, so size the module for both ends of every pair.
    let spec = with_cfg(raw_mesh(width, height, 1, 1), cfg_ni, 2 * pairs.len() + 2);
    let (mut sys, mut cfg) = configurable(&spec, cfg_ni);
    for &(src, dst) in pairs {
        let fwd = Service::Guaranteed { slots, strategy };
        open(&mut cfg, &mut sys, (src, 1), (dst, 1), fwd, BE);
    }
    (spec, sys)
}

/// The guarantees harness with raw NIs ([`harness_spec`]) whose stream
/// ports cross clock domains in `crossing` cycles, and one GT connection
/// of `slots` spread slots NI 1 → NI 3.
fn small_harness(slots: usize, crossing: u64) -> (NocSpec, NocSystem) {
    let mut spec = harness_spec(false);
    for ni in [1, 3] {
        spec.nis[ni].kernel.ports[1].crossing = crossing;
    }
    let (mut sys, mut cfg) = configurable(&spec, 0);
    open(&mut cfg, &mut sys, (1, 1), (3, 1), gt(slots), BE);
    (spec, sys)
}

/// Certifies the system, saturates every pair, and checks throughput
/// equality and the jitter bound flow by flow.
fn check_saturated(spec: &NocSpec, mut sys: NocSystem, pairs: &[(usize, usize)], window_revs: u64) {
    let cert = certify_system(spec, &sys).expect("configured GT mesh certifies");
    let mut sinks = Vec::new();
    for &(src, dst) in pairs {
        source(&mut sys, src, 1, ENDLESS);
        sinks.push((src, recording_sink(&mut sys, dst, 1)));
    }
    sys.run(100 * REVOLUTION); // steady state
    let before: Vec<usize> = sinks
        .iter()
        .map(|&(_, s)| sys.raw_ip_as::<StreamSink>(s).received().len())
        .collect();
    sys.run(window_revs * REVOLUTION);
    for (i, &(src, sink)) in sinks.iter().enumerate() {
        let flow = cert.flow(src, 1).expect("pair certified");
        let b = gt_bounds(cert.stu_slots, flow);
        let s = sys.raw_ip_as::<StreamSink>(sink);
        let delivered = (s.received().len() - before[i]) as u64;
        assert_eq!(
            delivered,
            window_revs * b.payload_per_revolution,
            "flow {src}: {window_revs} revolutions must deliver exactly the bound"
        );
        let jitter = s.max_inter_arrival().unwrap_or(0);
        assert!(
            jitter <= b.jitter_cycles,
            "flow {src}: measured jitter {jitter} > analytical bound {}",
            b.jitter_cycles
        );
    }
}

#[test]
fn small_harness_throughput_matches_bound_for_every_reservation() {
    // The guarantees-test shape: 2x1 mesh, slots swept 1..=4.
    for slots in 1..=4usize {
        let (spec, sys) = small_harness(slots, DEFAULT_CROSSING_CYCLES);
        check_saturated(&spec, sys, &[(1, 3)], 1000);
    }
}

#[test]
fn uniform_8x8_sweep_matches_bounds() {
    // Disjoint column streams: row 0 down to row 4, columns 1..8.
    let pairs: Vec<(usize, usize)> = (1..8).map(|x| (x, 4 * 8 + x)).collect();
    let (spec, sys) = gt_mesh(8, 8, 0, &pairs, 1, SlotStrategy::Spread);
    check_saturated(&spec, sys, &pairs, 500);
}

#[test]
fn hotspot_8x8_sweep_matches_bounds() {
    // Six senders converging on the mesh-center block: shared links force
    // the allocator to interleave their slot claims.
    let pairs = [(11, 27), (13, 28), (25, 35), (31, 36), (51, 26), (53, 37)];
    let (spec, sys) = gt_mesh(8, 8, 0, &pairs, 1, SlotStrategy::Spread);
    check_saturated(&spec, sys, &pairs, 500);
}

#[test]
fn uniform_16x16_sweep_matches_bounds() {
    let pairs: Vec<(usize, usize)> = (1..11).map(|x| (x, 8 * 16 + x)).collect();
    let (spec, sys) = gt_mesh(16, 16, 0, &pairs, 1, SlotStrategy::Spread);
    check_saturated(&spec, sys, &pairs, 200);
}

#[test]
fn hotspot_16x16_sweep_matches_bounds() {
    // Converge on the 16x16 center block from all four quadrants.
    let c = 7 * 16 + 7;
    let pairs = [
        (3 * 16 + 7, c),
        (11 * 16 + 8, c + 16 + 1),
        (7 * 16 + 3, c + 1),
        (7 * 16 + 12, c + 16),
    ];
    let (spec, sys) = gt_mesh(16, 16, 0, &pairs, 1, SlotStrategy::Spread);
    check_saturated(&spec, sys, &pairs, 200);
}

/// Sends a `message`-word message over the certified GT flow of NI `src`
/// (channel 1) to NI `dst` after idling `phase` cycles, and returns the
/// cycle its last word lands, counted from when the source was bound.
/// `bound + 1` cycles are run, and every word must have landed by then.
fn message_latency(
    mut sys: NocSystem,
    (src, dst): (usize, usize),
    message: usize,
    phase: u64,
    bound: u64,
) -> u64 {
    // Configuration already advanced the clock; the phase sets where in
    // the slot-table revolution the message enters the source queue.
    sys.run(phase);
    source(&mut sys, src, 1, message as u64);
    let sink = recording_sink(&mut sys, dst, 1);
    let t0 = sys.cycle();
    sys.run(bound + 1);
    let s = sys.raw_ip_as::<StreamSink>(sink);
    assert_eq!(
        s.received().len(),
        message,
        "phase {phase}: all {message} words within the bound {bound}"
    );
    *s.arrival_cycles().last().expect("non-empty") - t0
}

/// Latency: the last word of a finite message lands within the analytical
/// worst case, across message sizes, reservations and port crossing
/// latencies, whichever phase of the slot-table revolution the message
/// starts at; on this single-segment route the worst phase reaches it.
#[test]
fn finite_message_latency_within_worst_case_bound() {
    for crossing in [DEFAULT_CROSSING_CYCLES, 4] {
        for (slots, message) in [(1usize, 1usize), (1, 5), (2, 8), (4, 16), (3, 3)] {
            let (spec, sys) = small_harness(slots, crossing);
            let cert = certify_system(&spec, &sys).expect("certifies");
            let flow = cert.flow(1, 1).expect("flow certified");
            let bound = worst_case_latency(cert.stu_slots, flow, message);
            let mut worst = 0;
            for phase in 0..REVOLUTION {
                let sys = small_harness(slots, crossing).1;
                let last = message_latency(sys, (1, 3), message, phase, bound);
                assert!(
                    last <= bound,
                    "crossing {crossing}, {slots} slots / {message} words, phase {phase}: \
                     last word at {last} > bound {bound}"
                );
                worst = worst.max(last);
            }
            assert_eq!(
                worst, bound,
                "crossing {crossing}, {slots} slots / {message} words: the bound is exact"
            );
        }
    }
}

/// Two-level diagonal: gateway continuations shrink the payload per
/// packet and each rewrite adds a whole slot of path latency — both must
/// be reflected in the bounds, which the measured run then meets at every
/// start phase, with the one cycle of slack per gateway that
/// [`worst_case_latency`] documents.
#[test]
fn two_level_route_bounds_hold() {
    let pairs = [(0usize, 63usize)];
    let build = || gt_mesh(8, 8, 9, &pairs, 2, SlotStrategy::Consecutive);
    let (spec, sys) = build();
    let cert = certify_system(&spec, &sys).expect("two-level GT certifies");
    let flow = cert.flow(0, 1).expect("flow certified");
    assert_eq!(flow.gateways, 2);
    let b = gt_bounds(cert.stu_slots, flow);
    // Consecutive pair: one 6-word packet = header + 2 continuations + 3
    // payload words per revolution.
    assert_eq!(b.payload_per_revolution, 3);
    assert_eq!(b.path_cycles, (15 + 2) * 3);
    let message = 6usize;
    let bound = worst_case_latency(cert.stu_slots, flow, message);
    let mut worst = 0;
    for phase in 0..REVOLUTION {
        let last = message_latency(build().1, (0, 63), message, phase, bound);
        assert!(
            last <= bound,
            "phase {phase}: last word at {last} > bound {bound}"
        );
        worst = worst.max(last);
    }
    assert_eq!(worst, bound - flow.gateways as u64);
}
