//! The metric registry: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — bound. `BENCHMARK.json` at the
//! repository root declares the same lists; a unit test holds the two
//! together.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// As spelled in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct E2eMetric {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's value by which the metric may worsen.
    pub bound: f64,
    /// Simulated time or a count: repeats exactly for one seed, so
    /// `compare` demands equality between runs of the same seed. The bound
    /// then only has to cover how much the value moves from seed to seed,
    /// which is what the driver's spread check looks at.
    pub exact: bool,
}

use Better::{Higher, Lower};

/// The end-to-end metrics, in reporting order. `measure::run` fills them
/// in this order.
pub const E2E: [E2eMetric; 10] = [
    E2eMetric {
        name: "router_cycles_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        exact: false,
    },
    E2eMetric {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        exact: false,
    },
    E2eMetric {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.12,
        exact: false,
    },
    E2eMetric {
        name: "conn_open_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        exact: false,
    },
    E2eMetric {
        name: "conn_close_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        exact: false,
    },
    E2eMetric {
        name: "snapshot_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        exact: false,
    },
    E2eMetric {
        name: "restore_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        exact: false,
    },
    E2eMetric {
        name: "sim_words_per_kcycle",
        unit: "words/kcycle",
        better: Higher,
        bound: 0.03,
        exact: true,
    },
    E2eMetric {
        name: "sim_latency_p99_cycles",
        unit: "cycles",
        better: Lower,
        bound: 0.05,
        exact: true,
    },
    E2eMetric {
        name: "conn_open_cycles",
        unit: "cycles",
        better: Lower,
        bound: 0.05,
        exact: true,
    },
];

/// A per-layer metric. The layer is the module name the metric starts
/// with.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerMetric {
    LayerMetric { name, unit, better }
}

/// The per-layer metrics, in reporting order. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: [LayerMetric; 55] = [
    // Phase spans of the decomposed cycle loop.
    layer("sim.noc.emit.ns_per_cycle", "ns", Lower),
    layer("sim.noc.absorb.ns_per_cycle", "ns", Lower),
    layer("sim.noc.ns_per_router_cycle", "ns", Lower),
    layer("core.ni.ns_per_cycle", "ns", Lower),
    layer("proto.ip.ns_per_cycle", "ns", Lower),
    layer("sim.engine.sched.ns_per_cycle", "ns", Lower),
    layer("sim.engine.driver_gap", "ratio", Lower),
    layer("sim.engine.quiescent_cycle_share", "ratio", Higher),
    layer("sim.engine.quiescent_ns", "ns", Lower),
    layer("sim.engine.next_event_ns", "ns", Lower),
    layer("sim.engine.skip_1k_ns", "ns", Lower),
    layer("trace.span_coverage", "ratio", Higher),
    layer("trace.overhead", "ratio", Higher),
    // The shard runner.
    layer("sim.shard.split_us", "us", Lower),
    layer("sim.shard.seq_rc_per_s.s1", "1/s", Higher),
    layer("sim.shard.seq_rc_per_s.s2", "1/s", Higher),
    layer("sim.shard.seq_rc_per_s.s4", "1/s", Higher),
    layer("sim.shard.one_region_over_mono", "ratio", Higher),
    layer("sim.shard.b1_over_b16", "ratio", Higher),
    layer("sim.shard.awake_regions", "count", Lower),
    layer("sim.shard.par2_rc_per_s", "1/s", Higher),
    // Fast-forward.
    layer("sim.ff.window_us", "us", Lower),
    layer("sim.ff.jumps", "count", Higher),
    layer("sim.ff.jumped_share", "ratio", Higher),
    layer("sim.ff.decline_probe_overhead", "ratio", Lower),
    // Fault hook.
    layer("sim.fault.armed_idle_over_unarmed", "ratio", Lower),
    // Persistence.
    layer("cfg.snapshot.capture_us", "us", Lower),
    layer("cfg.json.render_us", "us", Lower),
    layer("cfg.json.parse_us", "us", Lower),
    layer("cfg.snapshot.restore_us", "us", Lower),
    layer("cfg.snapshot.bytes", "bytes", Lower),
    // Run-time configuration.
    layer("cfg.runtime.open_cycles", "cycles", Lower),
    layer("cfg.runtime.reg_writes_per_open", "count", Lower),
    layer("cfg.runtime.wait_share", "ratio", Lower),
    layer("cfg.runtime.heal_us", "us", Lower),
    layer("cfg.runtime.heal_cycles", "cycles", Lower),
    layer("cfg.slots.allocate_free_ns", "ns", Lower),
    layer("sim.topology.route_any_ns", "ns", Lower),
    // Set-up.
    layer("cfg.spec.from_json_us", "us", Lower),
    layer("cfg.system.from_spec_us", "us", Lower),
    // Certification.
    layer("verify.certify_us", "us", Lower),
    layer("verify.flows", "count", Higher),
    // Counts read from the stats structs at the end of the traced loop.
    layer("sim.noc.link_words", "count", Higher),
    layer("sim.noc.headers", "count", Lower),
    layer("sim.noc.delivered_gt", "count", Higher),
    layer("sim.noc.delivered_be", "count", Higher),
    layer("sim.noc.link_utilisation", "ratio", Higher),
    layer("core.kernel.packets_tx", "count", Lower),
    layer("core.kernel.payload_words_tx", "count", Higher),
    layer("core.kernel.credit_only_tx", "count", Lower),
    layer("core.kernel.gt_slots_unused", "count", Lower),
    layer("core.kernel.payload_share", "ratio", Higher),
    layer("proto.txn_completed", "count", Higher),
    layer("proto.words_delivered", "count", Higher),
    layer("trace.ops_failed", "count", Lower),
];

/// A measured value under its registered name and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// The command the driver appends `--workload … --seed … --seconds …
/// --trace …` to.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Seconds one run is sized for.
pub const RUN_SECONDS: u32 = 10;

/// `BENCHMARK.json`, generated from the registries (`benchmark manifest`
/// prints it; a unit test holds the checked-in file to it).
pub fn manifest() -> crate::json::Json {
    use crate::json::Json;
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::str(*s)).collect());
    Json::obj(vec![
        ("command", strs(&COMMAND)),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                crate::workloads::WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                E2E.iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// Whether `name` is made of the characters the driver accepts,
    /// starts with a letter or digit and is at most 64 long.
    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_whys_fit_the_contract() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.bytes().all(|b| {
                    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')
                })
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in E2E
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(well_formed(name), "bad metric name {name}");
            assert!(unit_ok(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for w in &WORKLOADS {
            assert!(well_formed(w.name), "bad workload name {}", w.name);
            assert!(seen.insert(w.name), "{} is used twice", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        assert!(
            !well_formed("") && !well_formed("a b") && !well_formed(".a") && !well_formed("µs")
        );
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(E2E.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn bounds_fit_the_contract() {
        let setup = E2E
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &E2E {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup.bound, "setup_s has the largest bound");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_registries() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root");
        assert!(text.len() <= 64 * 1024);
        let file = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            file,
            manifest(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
    }
}
