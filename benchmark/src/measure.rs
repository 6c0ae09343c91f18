//! The untraced pass: one workload, one process, every end-to-end metric.
//!
//! A run sets the workload up, then lets its measured phases take turns
//! over the whole run: data segments, control-session connections (the
//! workload itself for `control8`, the short probe elsewhere), snapshot /
//! restore round trips of the warm system, and the rebuilds whose median
//! is `setup_s`. Then the checks. Nothing is traced here; the per-layer
//! numbers come from `trace.rs`.

use crate::control::{self, SessionRunner};
use crate::names::{MetricValue, E2E};
use crate::observe::Layout;
use crate::stats::{median, nearest_rank, Summary};
use crate::workloads::{build, Driver, Scale, Sim, Workload};
use aethereal_cfg::{NocSystem, RuntimeConfigurator};
use std::time::Instant;

/// Builds behind `setup_s`. A single build of the quick workloads is a
/// 20 ms sample that doubles when a neighbour wakes; the median of nine,
/// spread over the run, does not.
const REBUILDS: usize = 9;
/// Cycles both systems run after a restore before their snapshots are
/// compared.
const REPLAY_CYCLES: u64 = 64;

/// What the untraced pass of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<MetricValue>,
    /// Ungated companions of the host-time metrics: `<metric>.median`,
    /// `<metric>.tail`, `<metric>.spread`, `<metric>.n`.
    pub companions: Vec<(String, f64)>,
    /// Numbers that must repeat exactly for the same seed and scale.
    pub exact: Vec<(String, f64)>,
    /// Segments, operations and checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
}

/// Attempts and failures, with the reason of each failure kept for the
/// log.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Counts one check; logs `what` to stderr when it does not hold.
    pub fn expect(&mut self, holds: bool, what: &str) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    /// Folds in `n` attempts of which `failed` failed.
    pub fn add(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// (attempted, failed).
    pub fn totals(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }
}

/// A workload built, bound, handed to its driver and warmed up.
pub struct Live {
    /// The system.
    pub sim: Sim,
    /// Where its IPs are.
    pub layout: Layout,
    /// The configurator, for workloads that configure through the NoC.
    pub cfg: Option<RuntimeConfigurator>,
}

/// Spec → system → configuration → bind → warm-up: what `setup_s` times.
pub fn set_up(w: &Workload, seed: u64, driver: Driver, warmup: u64) -> Live {
    let mut built = build(w, seed);
    let layout = Layout::of(&built.ips);
    let cfg = built.cfg.take();
    let mut sim = built.into_sim(driver);
    sim.run(warmup);
    Live { sim, layout, cfg }
}

/// Runs `segments` timed segments, checking after each that the
/// invariant counters are still zero and — unless the segments are too
/// short for the workload's bursts (`progress` false) — that words were
/// delivered. Returns host ns per segment.
pub fn timed_segments(
    sim: &mut Sim,
    seg_cycles: u64,
    segments: usize,
    progress: bool,
    checks: &mut Checks,
) -> Vec<f64> {
    let mut ns = Vec::with_capacity(segments);
    let mut delivered = sim.delivered();
    for _ in 0..segments {
        let t = Instant::now();
        sim.run(seg_cycles);
        ns.push(t.elapsed().as_secs_f64() * 1e9);
        let now = sim.delivered();
        checks.expect(
            sim.health() == [0; 3] && (now > delivered || !progress),
            "segment kept gt_conflicts, be_overflows, rx_drops at 0 and delivered words",
        );
        delivered = now;
    }
    ns
}

/// The workload under its own driver against a simpler twin over the
/// first `cycles` cycles: unsplit for a sharded workload, ticked without
/// fast-forward for a fast-forwarding one.
fn twin_check(w: &Workload, seed: u64, cycles: u64, checks: &mut Checks) {
    let mut own = set_up(w, seed, w.driver, 0);
    let mut twin = set_up(w, seed, Driver::Mono, 0);
    if let Sim::Mono(sys) = &mut twin.sim {
        sys.set_fast_forward(false);
    }
    own.sim.run(cycles);
    twin.sim.run(cycles);
    checks.expect(
        own.sim.end_state(&own.layout) == twin.sim.end_state(&twin.layout),
        "workload's driver and its simpler twin reach the same end state",
    );
}

/// One snapshot → text → parse → restore round trip of `live` into
/// `twin`; afterwards both run [`REPLAY_CYCLES`] and must snapshot
/// identically. Returns (snapshot µs, restore µs, text bytes).
fn round_trip(live: &mut Sim, twin: &mut Sim, checks: &mut Checks) -> (f64, f64, usize) {
    let t = Instant::now();
    let text = live.snapshot_text();
    let save = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let restored = twin.restore_text(&text);
    let load = t.elapsed().as_secs_f64() * 1e6;
    live.run(REPLAY_CYCLES);
    twin.run(REPLAY_CYCLES);
    checks.expect(
        restored.is_ok() && live.snapshot_text() == twin.snapshot_text(),
        "restored twin replays to the uninterrupted run's snapshot",
    );
    (save, load, text.len())
}

/// How many of `n` evenly spread events fall on step `i` of `steps`.
fn due(i: usize, n: usize, steps: usize) -> usize {
    (i + 1) * n / steps - i * n / steps
}

/// A host-time metric: the samples of host time per unit of work, and how
/// a statistic of them becomes the metric — `scale × t`, or `scale / t`
/// for a rate.
struct HostTime {
    name: &'static str,
    per_unit: Summary,
    scale: f64,
    rate: bool,
}

impl HostTime {
    fn value(&self, t: f64) -> f64 {
        if self.rate {
            self.scale / t
        } else {
            self.scale * t
        }
    }

    /// The value the bound applies to.
    fn gated(&self) -> f64 {
        self.value(self.per_unit.gate)
    }
}

/// The system the control session runs on and its configurator: the
/// probe's where there is one, the workload's own for `control8`.
fn control_of<'a>(
    probe: &'a mut Option<(NocSystem, RuntimeConfigurator)>,
    live: &'a mut Sim,
    live_cfg: &'a mut Option<RuntimeConfigurator>,
) -> (&'a mut NocSystem, &'a mut RuntimeConfigurator) {
    match (probe, live, live_cfg) {
        (Some((sys, cfg)), _, _) => (sys, cfg),
        (None, Sim::Mono(sys), Some(cfg)) => (sys, cfg),
        _ => unreachable!("control8 is an unsplit system with a configurator"),
    }
}

/// Runs the untraced pass of `w`.
pub fn run(w: &Workload, seed: u64, scale: Scale) -> Outcome {
    let mut checks = Checks::default();
    let mut exact = Vec::new();
    let routers = w.routers() as f64;
    let mut lap_start = Instant::now();
    let mut lap = |phase: &str| {
        eprintln!(
            "  phase {phase:<8} {:>7.3} s",
            lap_start.elapsed().as_secs_f64()
        );
        lap_start = Instant::now();
    };

    // ---- set-up ------------------------------------------------------
    // The first build is the system the run measures; the other rebuilds
    // behind `setup_s` are spread over the run like everything else.
    let timed_set_up = |setup_s: &mut Vec<f64>| {
        let t = Instant::now();
        let live = set_up(w, seed, w.driver, w.warmup);
        setup_s.push(t.elapsed().as_secs_f64());
        live
    };
    let mut setup_s = Vec::with_capacity(REBUILDS);
    let Live {
        sim: mut live,
        layout,
        cfg,
    } = timed_set_up(&mut setup_s);
    let mut twin = set_up(w, seed, w.driver, 0).sim;
    lap("set-up");

    // ---- the measured phases, interleaved ----------------------------
    // Data segments, control-session connections and snapshot round trips
    // take turns, each spread evenly over the whole run: the host's speed
    // drifts by tens of percent over seconds, and a phase squeezed into
    // one second of the run would inherit that second's luck.
    let mut probe =
        (w.driver != Driver::Control).then(|| control::bind(control::build_control_system()));
    let mut live_cfg = cfg;
    let mut session = {
        let (sys, cfg) = control_of(&mut probe, &mut live, &mut live_cfg);
        SessionRunner::new(sys, cfg, seed)
    };
    if w.twin_cycles > 0 {
        twin_check(w, seed, w.twin_cycles, &mut checks);
    }
    let n_segments = if w.driver == Driver::Control {
        0
    } else {
        scale.of(w.segments, 40)
    };
    let n_trips = scale.of(w.round_trips, 20);
    let n_ops = scale.of(w.control_rounds, 4) * session.ops_per_round();
    let steps = n_segments.max(n_trips).max(n_ops);
    let before = live.end_state(&layout);
    // A snapshot of a system with traffic generators grows with their
    // latency records, so trips are kept per byte of text to stay alike.
    let (mut segment_ns, mut save, mut load, mut bytes) = (Vec::new(), Vec::new(), Vec::new(), 0);
    for i in 0..steps {
        segment_ns.extend(timed_segments(
            &mut live,
            w.seg_cycles,
            due(i, n_segments, steps),
            true,
            &mut checks,
        ));
        for _ in 0..due(i, n_ops, steps) {
            let (sys, cfg) = control_of(&mut probe, &mut live, &mut live_cfg);
            session.step(sys, cfg);
        }
        for _ in 0..due(i, REBUILDS - 1, steps) {
            drop(timed_set_up(&mut setup_s));
        }
        for _ in 0..due(i, n_trips, steps) {
            let (s, l, b) = round_trip(&mut live, &mut twin, &mut checks);
            save.push(s / b as f64);
            load.push(l / b as f64);
            bytes += b;
        }
    }
    let after = live.end_state(&layout);
    let (session, clean) = {
        let (sys, cfg) = control_of(&mut probe, &mut live, &mut live_cfg);
        (session.finish(sys), control::clean_after_session(sys, cfg))
    };
    checks.add(session.ops as u64, session.failed as u64);
    checks.expect(
        clean,
        "session left no reserved slot, open connection or moved invariant counter",
    );
    checks.expect(
        live.health() == [0; 3],
        "invariant counters still 0 at the end",
    );
    lap("measure");

    let (per_router_cycle, words_per_kcycle, latency_p99);
    if w.driver == Driver::Control {
        per_router_cycle = Summary::of(&session.ns_per_router_cycle);
        words_per_kcycle = session.txn_words as f64 * 1000.0 / session.cycles as f64;
        latency_p99 = nearest_rank(&session.txn_latency, 0.99).unwrap_or(0) as f64;
    } else {
        let per_rc: Vec<f64> = segment_ns
            .iter()
            .map(|t| t / (w.seg_cycles as f64 * routers))
            .collect();
        per_router_cycle = Summary::of(&per_rc);
        let cycles = (after.cycle - before.cycle) as f64;
        words_per_kcycle =
            (after.observed.words() - before.observed.words()) as f64 * 1000.0 / cycles;
        latency_p99 = after.observed.latency_p99().unwrap_or(0) as f64;
        checks.expect(
            after.observed.errors() == 0 && after.observed.clipped == 0,
            "no generator saw an error response and no latency left its histogram",
        );
        exact.push(("words".into(), after.observed.words() as f64));
        exact.push((
            "txn_completed".into(),
            after.observed.txn_completed() as f64,
        ));
        exact.push(("ff_jumps".into(), live.ff_stats().jumps as f64));
    }
    exact.push(("digest".into(), after.digest() as f64));

    // ---- the metrics -------------------------------------------------
    let bytes_per_trip = bytes as f64 / n_trips as f64;
    exact.push(("snapshot_bytes".into(), bytes_per_trip));
    let host_time = [
        HostTime {
            name: "router_cycles_per_s",
            per_unit: per_router_cycle,
            scale: 1e9,
            rate: true,
        },
        HostTime {
            name: "conn_open_us",
            per_unit: Summary::of(&session.open_ns_per_cycle),
            scale: session.cycles_per_open() / 1e3,
            rate: false,
        },
        HostTime {
            name: "conn_close_us",
            per_unit: Summary::of(&session.close_ns_per_cycle),
            scale: session.cycles_per_close() / 1e3,
            rate: false,
        },
        HostTime {
            name: "snapshot_us",
            per_unit: Summary::of(&save),
            scale: bytes_per_trip,
            rate: false,
        },
        HostTime {
            name: "restore_us",
            per_unit: Summary::of(&load),
            scale: bytes_per_trip,
            rate: false,
        },
    ];
    let [rate, open, close, save, load] = host_time.each_ref().map(HostTime::gated);
    exact.push(("session_ops".into(), session.ops as f64));
    let values = [
        rate,
        median(&setup_s),
        crate::host::peak_rss_mib(),
        open,
        close,
        save,
        load,
        words_per_kcycle,
        latency_p99,
        session.cycles_per_open(),
    ];
    let metrics: Vec<MetricValue> = E2E
        .iter()
        .zip(values)
        .map(|(m, value)| MetricValue {
            name: m.name,
            unit: m.unit,
            value,
        })
        .collect();
    let mut companions = Vec::new();
    for h in &host_time {
        let s = &h.per_unit;
        for (suffix, v) in [
            ("q1", h.value(s.q1)),
            ("median", h.value(s.median)),
            ("tail", h.value(s.tail)),
            ("spread", s.spread()),
            ("n", s.n as f64),
        ] {
            companions.push((format!("{}.{suffix}", h.name), v));
        }
    }
    for m in metrics
        .iter()
        .filter(|m| E2E.iter().any(|e| e.exact && e.name == m.name))
    {
        exact.push((m.name.into(), m.value));
    }
    let (attempted, failed) = checks.totals();
    Outcome {
        metrics,
        companions,
        exact,
        attempted,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;

    /// The smallest run the floors allow.
    const TINY: Scale = Scale(0.001);

    fn exact_of(name: &str, seed: u64) -> Vec<(String, f64)> {
        let outcome = run(by_name(name).expect("workload exists"), seed, TINY);
        assert_eq!(outcome.failed, 0, "{name} seed {seed} failed a check");
        assert!(
            outcome.metrics.iter().all(|m| m.value > 0.0),
            "{name}: a metric is 0"
        );
        outcome.exact
    }

    #[test]
    fn same_seed_same_simulation_other_seed_other_digest() {
        let a = exact_of("shmem8_mixed", 1);
        let b = exact_of("shmem8_mixed", 1);
        assert_eq!(
            a, b,
            "simulated metrics and counts repeat exactly for one seed"
        );
        let c = exact_of("shmem8_mixed", 2);
        let digest = |e: &[(String, f64)]| e.iter().find(|(k, _)| k == "digest").map(|(_, v)| *v);
        assert_ne!(digest(&a), digest(&c), "the seed reaches the generators");
    }

    #[test]
    fn sharded_and_fast_forward_workloads_pass_their_twin_checks() {
        for name in ["hotspot16_shard4", "gt16_ff"] {
            let exact = exact_of(name, 3);
            assert!(exact.iter().any(|(k, _)| k == "digest"));
        }
    }

    #[test]
    fn events_are_spread_evenly() {
        for (n, steps) in [(0, 7), (3, 7), (7, 7), (5, 600), (600, 600)] {
            let per_step: Vec<usize> = (0..steps).map(|i| due(i, n, steps)).collect();
            assert_eq!(per_step.iter().sum::<usize>(), n);
            assert!(per_step.iter().all(|&d| d <= n.div_ceil(steps)));
        }
    }
}
