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
//! format 4. Format 2 removed two always-zero list lengths from each
//! file's `noc` stream; format 3 walks the configuration port as the
//! master shell it now is, which changed only the tail of `nis[0]` (the
//! configuration module's NI) in the three goldens that have one — the
//! retired operation counter became the master shell's sequence counter
//! and error count; format 4 drops that sequence counter from every
//! master, slave and configuration shell and the derived expected length
//! from every message assembler, and nothing else
//! (`docs/ARCHITECTURE.md`, *The one state walk*).
//!
//! Each golden is also *restored* into a freshly built system and run
//! forward: the corpus stays loadable, and a restore from disk continues
//! bit-identically to the uninterrupted reference.

use std::path::PathBuf;

use aethereal::cfg::json::{self, Value};
use aethereal::cfg::NocSystem;
use scenario::{faulted_8x8, gateway_8x8, hotspot_8x8, uniform_8x8};

mod scenario;

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
