//! Cycle-accuracy of the unified engine.
//!
//! The `sim::engine` refactor replaced four hand-rolled tick loops with one
//! `Clocked` contract and one `Engine` driver (with a quiescent fast path).
//! These tests pin the refactored engine to the seed semantics:
//!
//! * a fixed mixed GT/BE scenario driven **cycle by cycle** must reproduce
//!   the reference trace (counter values captured from the per-cycle loop,
//!   which preserves the seed's exact statement serialization);
//! * driving the same scenario through `Engine::run` — where the
//!   slot-table-aware quiescent fast path batches the idle tail — must be
//!   bit-identical to the per-cycle loop in every statistic, including the
//!   arithmetically-skipped `gt_slots_unused` events.

use aethereal::cfg::{presets, NocSystem};
use aethereal::ni::kernel::NiKernelStats;
use aethereal::proto::{
    MemorySlave, StreamSink, TrafficGenerator, TrafficGeneratorConfig, TrafficMix,
};
use aethereal::sim::{Engine, NocStats};
use scenario::{configurable, gt, mesh_spec, open, recording_sink, source, BE};

mod scenario;

/// The horizon: long enough that every workload drains and the system goes
/// quiescent well before the end, so `Engine::run` exercises the skip path.
const HORIZON: u64 = 12_000;

struct Scenario {
    sys: NocSystem,
    gen: usize,
    sink: usize,
}

/// A deterministic mixed scenario: a seeded read/write master over a BE
/// connection, and a GT stream (2 of 8 slots) between raw NIs, sharing a
/// 2x2 mesh.
fn mixed_scenario() -> Scenario {
    let spec = mesh_spec(2, 2, 2, |id| match id {
        0 => presets::cfg_module_ni(0, 8),
        1 => presets::master_ni(1),
        3 | 4 => presets::raw_ni(id, 1),
        _ => presets::slave_ni(id),
    });
    let (mut sys, mut cfg) = configurable(&spec, 0);
    open(&mut cfg, &mut sys, (1, 1), (2, 1), BE, BE);
    open(&mut cfg, &mut sys, (3, 1), (4, 1), gt(2), BE);
    let gen = sys.bind_master(
        1,
        1,
        Box::new(TrafficGenerator::new(TrafficGeneratorConfig {
            seed: 7,
            addr_base: 0,
            addr_range: 0x200,
            mix: TrafficMix::Mixed { read_fraction: 0.5 },
            burst: (1, 4),
            gap_cycles: 9,
            total: Some(40),
            max_outstanding: 4,
        })),
    );
    sys.bind_slave(2, 1, Box::new(MemorySlave::new(3)));
    source(&mut sys, 3, 1, 500);
    let sink = recording_sink(&mut sys, 4, 1);
    Scenario { sys, gen, sink }
}

#[derive(Debug, PartialEq)]
struct Observed {
    cycle: u64,
    noc: NocStats,
    kernels: Vec<NiKernelStats>,
    issued: u64,
    completed: u64,
    errors: u64,
    latency_sum: u64,
    received: Vec<u32>,
    gt_conflicts: u64,
    be_overflows: u64,
}

fn observe(s: &Scenario) -> Observed {
    let gen = s.sys.master_ip_as::<TrafficGenerator>(s.gen);
    let sink = s.sys.raw_ip_as::<StreamSink>(s.sink);
    Observed {
        cycle: s.sys.cycle(),
        noc: s.sys.noc.stats().clone(),
        kernels: s.sys.nis.iter().map(|ni| *ni.kernel.stats()).collect(),
        issued: gen.issued(),
        completed: gen.completed(),
        errors: gen.errors(),
        latency_sum: gen.latency_samples().iter().sum(),
        received: sink.received().to_vec(),
        gt_conflicts: s.sys.noc.gt_conflicts(),
        be_overflows: s.sys.noc.be_overflows(),
    }
}

/// The reference trace: key counters of the per-cycle run, pinned so any
/// future change to tick semantics (phase order, arbitration, credits,
/// slot alignment) fails loudly instead of drifting silently.
#[test]
fn per_cycle_run_matches_reference_trace() {
    let mut s = mixed_scenario();
    for _ in 0..HORIZON {
        Engine::tick(&mut s.sys);
    }
    let o = observe(&s);
    assert_eq!(o.cycle, HORIZON + s_setup_cycles());
    assert_eq!(o.gt_conflicts, 0, "GT slot allocation is contention-free");
    assert_eq!(o.be_overflows, 0, "credit discipline holds");
    assert_eq!(o.issued, 40, "traffic generator quota");
    assert_eq!(o.completed, 40, "every transaction completes");
    assert_eq!(o.errors, 0);
    assert_eq!(o.received.len(), 500, "GT stream delivers every word");
    assert!(
        o.received.iter().copied().eq(0..500),
        "in order, uncorrupted"
    );
    // Pinned counters captured from this exact scenario (seed semantics:
    // the per-cycle loop preserves the pre-refactor serialization).
    assert_eq!(o.latency_sum, 1365, "request-to-response latency trace");
    assert_eq!(o.noc.delivered, [750, 843], "per-class delivered words");
    let k1 = &o.kernels[1];
    assert_eq!(
        (k1.packets_tx, k1.header_words_tx, k1.payload_words_tx),
        ([0, 97], 97, 138),
        "master NI packetization trace"
    );
    let k3 = &o.kernels[3];
    assert_eq!(k3.packets_tx[0], 250, "GT packets from the stream source");
    assert_eq!(k3.gt_slots_unused, 752, "reserved slots that passed unused");
}

/// Cycles consumed by the runtime configurator while opening the two
/// connections (before the measured horizon starts).
fn s_setup_cycles() -> u64 {
    let s = mixed_scenario();
    s.sys.cycle()
}

/// `Engine::run` (quiescent fast path engaged on the idle tail) must be
/// bit-identical to the per-cycle loop across every statistic.
#[test]
fn engine_run_fast_path_is_bit_identical_to_per_cycle_loop() {
    let mut by_tick = mixed_scenario();
    for _ in 0..HORIZON {
        Engine::tick(&mut by_tick.sys);
    }
    let mut by_run = mixed_scenario();
    by_run.sys.run(HORIZON);
    assert_eq!(observe(&by_tick), observe(&by_run));
}

/// The fast path must actually engage on the idle tail — otherwise the
/// parity above proves nothing about the skip arithmetic. Quiescence is
/// reached strictly before the horizon, and `run` completes the full span.
#[test]
fn scenario_goes_quiescent_before_horizon() {
    use aethereal::sim::Clocked;
    let mut s = mixed_scenario();
    let start = s.sys.cycle();
    let reached = Engine::run_until(&mut s.sys, |sys| sys.quiescent(), HORIZON / 2);
    assert!(
        reached,
        "scenario must drain well before the horizon (cycle {})",
        s.sys.cycle()
    );
    let active = s.sys.cycle() - start;
    assert!(
        active + 1000 < HORIZON,
        "idle tail too short to exercise the skip path ({active} active cycles)"
    );
}
