//! Hostile-input robustness for the configuration data formats.
//!
//! Spec files, fault plans and snapshots cross a trust boundary: they are
//! read from disk, emailed between experiments, checked into corpora and
//! hand-edited. Every decoder in `cfg::json`, `cfg::spec` and
//! `cfg::snapshot` must therefore fail *structurally* — a `JsonError` /
//! `SnapshotError` naming what went wrong — and never panic, hang or
//! overflow the stack, no matter how mangled the input. These tests feed
//! the decoders hand-written pathological documents plus seeded
//! fuzz-style corruptions (byte flips, truncations, hostile numeric
//! leaves) of known-good documents.

use aethereal::cfg::json::{self, Value};
use aethereal::cfg::runtime::{ChannelEnd, ConnectionRequest};
use aethereal::cfg::{
    fault_plan_from_json, fault_plan_to_json, presets, NocSpec, NocSystem, RuntimeConfigurator,
    TopologySpec,
};
use aethereal::sim::topology::dir;
use aethereal::sim::{Engine, FaultPlan};
use aethereal_testkit::{base_seed, Rng64};

/// A 2x2 two-NIs-per-router system with one open connection and a few
/// hundred cycles of configuration traffic behind it: a small but
/// state-rich snapshot subject.
fn spec() -> NocSpec {
    NocSpec::new(
        TopologySpec::Mesh {
            width: 2,
            height: 2,
            nis_per_router: 2,
        },
        vec![
            presets::cfg_module_ni(0, 16),
            presets::raw_ni(1, 1),
            presets::raw_ni(2, 1),
            presets::raw_ni(3, 1),
            presets::raw_ni(4, 1),
            presets::raw_ni(5, 1),
            presets::raw_ni(6, 1),
            presets::raw_ni(7, 1),
        ],
    )
}

fn warm_snapshot() -> (NocSpec, Value) {
    let spec = spec();
    let mut sys = NocSystem::from_spec(&spec);
    let mut cfg = RuntimeConfigurator::new(spec.topology.build(), 0, 0, 8);
    cfg.open_connection(
        &mut sys,
        &ConnectionRequest::best_effort(
            ChannelEnd { ni: 1, channel: 1 },
            ChannelEnd { ni: 6, channel: 1 },
        ),
    )
    .expect("open");
    Engine::run(&mut sys, 300);
    let snap = sys.snapshot().expect("snapshot");
    (spec, snap)
}

// ---- hand-written pathological documents ---------------------------------

#[test]
fn malformed_spec_documents_fail_structurally() {
    let cases: &[&str] = &[
        "",
        "   ",
        "{",
        "[1,2",
        "not json at all",
        "null",
        "{} {}",
        "{\"topology\": 3}",
        "{\"topology\": {\"Hypercube\": {\"dims\": 4}}, \"nis\": [], \"be_queue_words\": 8}",
        "{\"topology\": {\"Mesh\": {}}, \"nis\": [], \"be_queue_words\": 8}",
        "{\"topology\": {\"Mesh\": {\"width\": 2, \"height\": 2, \"nis_per_router\": 1}}}",
        "{\"topology\": {\"Mesh\": {\"width\": 2, \"height\": 2, \"nis_per_router\": 1}}, \
          \"nis\": 7, \"be_queue_words\": 8}",
        "{\"topology\": {\"Mesh\": {\"width\": 2, \"height\": 2, \"nis_per_router\": 1}}, \
          \"nis\": [], \"be_queue_words\": \"many\"}",
        "{\"be_queue_words\": 99999999999999999999999999999}",
        "\"\\q\"",
        "{\"a\": 1e5}",
    ];
    for input in cases {
        let err = NocSpec::from_json(input).expect_err(input);
        assert!(!err.to_string().is_empty());
    }
    // Nesting far beyond the parser's depth bound must be an error, not a
    // stack overflow.
    let deep = "[".repeat(100_000);
    let err = json::parse(&deep).expect_err("deep nesting");
    assert!(err.to_string().contains("nesting"), "{err}");
}

#[test]
fn malformed_fault_plans_fail_structurally() {
    let cases: &[&str] = &[
        "",
        "{}",
        "{\"seed\": 1}",
        "{\"seed\": 1, \"events\": 3}",
        "{\"seed\": true, \"events\": []}",
        "{\"seed\": 1, \"events\": [null]}",
        "{\"seed\": 1, \"events\": [{\"kind\": \"GammaRay\", \"router\": 0, \"port\": 0, \
          \"from\": 0, \"until\": 9}]}",
        // Port beyond u8.
        "{\"seed\": 1, \"events\": [{\"kind\": \"LinkStuck\", \"router\": 0, \"port\": 300, \
          \"from\": 0, \"until\": 9}]}",
        // Inverted activity window.
        "{\"seed\": 1, \"events\": [{\"kind\": \"LinkStuck\", \"router\": 0, \"port\": 1, \
          \"from\": 9, \"until\": 2}]}",
    ];
    for input in cases {
        let err = fault_plan_from_json(input).expect_err(input);
        assert!(!err.to_string().is_empty());
    }
}

type Mutation<'a> = (&'a str, Box<dyn Fn(&mut Value)>);

#[test]
fn snapshot_structural_mutations_are_rejected() {
    let (spec, snap) = warm_snapshot();
    let obj = |v: &mut Value| match v {
        Value::Obj(m) => m.clone(),
        _ => unreachable!("snapshot envelope is an object"),
    };

    let mutations: Vec<Mutation> = vec![
        (
            "future format",
            Box::new(|v| set(v, "format", Value::Num(99))),
        ),
        (
            "retired format 1",
            Box::new(|v| set(v, "format", Value::Num(1))),
        ),
        (
            "wrong kind",
            Box::new(|v| set(v, "kind", Value::Str("noc".into()))),
        ),
        (
            "cycle type swap",
            Box::new(|v| set(v, "cycle", Value::Str("later".into()))),
        ),
        ("missing nis", Box::new(|v| remove(v, "nis"))),
        ("missing noc", Box::new(|v| remove(v, "noc"))),
        (
            "ni count mismatch",
            Box::new(|v| {
                if let Value::Obj(m) = v {
                    if let Some(Value::Arr(nis)) = m.get_mut("nis") {
                        nis.pop();
                    }
                }
            }),
        ),
        (
            "truncated noc stream",
            Box::new(|v| {
                if let Value::Obj(m) = v {
                    if let Some(Value::Arr(words)) = m.get_mut("noc") {
                        words.pop();
                    }
                }
            }),
        ),
        (
            "noc type swap",
            Box::new(|v| set(v, "noc", Value::Bool(true))),
        ),
        (
            "first ni stream emptied",
            Box::new(|v| {
                if let Value::Obj(m) = v {
                    if let Some(Value::Arr(nis)) = m.get_mut("nis") {
                        nis[0] = Value::Arr(Vec::new());
                    }
                }
            }),
        ),
        (
            "ff stats truncated",
            Box::new(|v| set(v, "ff", Value::Arr(vec![Value::Num(0)]))),
        ),
    ];

    for (what, mutate) in mutations {
        let mut bad = snap.clone();
        mutate(&mut bad);
        // Sanity: the mutation actually changed the document.
        assert_ne!(
            obj(&mut bad),
            obj(&mut snap.clone()),
            "{what}: no-op mutation"
        );
        let mut fresh = NocSystem::from_spec(&spec);
        let err = fresh.restore(&bad).expect_err(what);
        assert!(!err.to_string().is_empty(), "{what}");
    }
}

fn set(v: &mut Value, key: &str, to: Value) {
    if let Value::Obj(m) = v {
        m.insert(key.to_string(), to);
    }
}

fn remove(v: &mut Value, key: &str) {
    if let Value::Obj(m) = v {
        m.remove(key);
    }
}

// ---- seeded fuzz ---------------------------------------------------------

/// Flips 1–4 bytes and/or truncates; returns `None` when the corruption
/// breaks UTF-8 (the decoders take `&str`, so such inputs cannot reach
/// them).
fn corrupt(text: &str, rng: &mut Rng64) -> Option<String> {
    let mut bytes = text.as_bytes().to_vec();
    if rng.next_u64().is_multiple_of(4) {
        bytes.truncate((rng.next_u64() as usize) % (bytes.len() + 1));
    }
    let flips = 1 + (rng.next_u64() as usize) % 4;
    for _ in 0..flips {
        if bytes.is_empty() {
            break;
        }
        let at = (rng.next_u64() as usize) % bytes.len();
        bytes[at] = (rng.next_u64() & 0xFF) as u8;
    }
    String::from_utf8(bytes).ok()
}

#[test]
fn spec_byte_fuzz_never_panics() {
    let text = spec().to_json().expect("serialize");
    let mut rng = Rng64::seed_from_u64(base_seed("spec_byte_fuzz_never_panics"));
    for _ in 0..2_000 {
        let Some(mangled) = corrupt(&text, &mut rng) else {
            continue;
        };
        // Ok or Err are both legitimate; panicking or hanging is the bug.
        if let Ok(parsed) = NocSpec::from_json(&mangled) {
            let _ = parsed.to_json();
        }
    }
}

#[test]
fn fault_plan_byte_fuzz_never_panics() {
    let mut plan = FaultPlan::new(0xF00D);
    plan.link_flaky(3, dir::EAST, 10, 500, 250_000)
        .router_stall(1, 40, 60)
        .credit_loss(0, dir::SOUTH, 5, 800, 3)
        .slot_corrupt(2, dir::WEST, 100, 200, 0xFFFF);
    let text = fault_plan_to_json(&plan);
    assert_eq!(
        fault_plan_from_json(&text).expect("round-trip").events(),
        plan.events()
    );
    let mut rng = Rng64::seed_from_u64(base_seed("fault_plan_byte_fuzz_never_panics"));
    for _ in 0..2_000 {
        let Some(mangled) = corrupt(&text, &mut rng) else {
            continue;
        };
        let _ = fault_plan_from_json(&mangled);
    }
}

fn count_nums(v: &Value) -> usize {
    match v {
        Value::Num(_) => 1,
        Value::Arr(items) => items.iter().map(count_nums).sum(),
        Value::Obj(m) => m.values().map(count_nums).sum(),
        _ => 0,
    }
}

fn mutate_nth_num(v: &mut Value, target: usize, with: u64, seen: &mut usize) -> bool {
    match v {
        Value::Num(n) => {
            if *seen == target {
                *n = with;
                return true;
            }
            *seen += 1;
            false
        }
        Value::Arr(items) => items
            .iter_mut()
            .any(|i| mutate_nth_num(i, target, with, seen)),
        Value::Obj(m) => m
            .values_mut()
            .any(|i| mutate_nth_num(i, target, with, seen)),
        _ => false,
    }
}

/// Restores `doc` onto a fresh system and, when the restore is accepted,
/// runs what it accepted: validation that lets through a state the
/// simulator then panics on has not validated anything. Returns whether
/// the restore was accepted.
fn restore_then_run(spec: &NocSpec, doc: &Value) -> bool {
    let mut fresh = NocSystem::from_spec(spec);
    let accepted = fresh.restore(doc).is_ok();
    if accepted {
        Engine::run(&mut fresh, 256);
    }
    accepted
}

/// Every numeric leaf of a snapshot is attacker-controlled: lengths,
/// range-limited register words, indices, counters. Rewriting leaves with
/// hostile values must produce either a structured error or a state the
/// state walk genuinely accepts *and the simulator can run* — never a
/// panic or capacity blow-up. Two hundred seeded random rewrites, then
/// every leaf in turn against a small in-range value, a smaller one, and
/// one beyond every 32-bit field.
#[test]
fn snapshot_hostile_leaves_never_panic() {
    let (spec, snap) = warm_snapshot();
    let leaves = count_nums(&snap);
    assert!(leaves > 100, "snapshot unexpectedly shallow: {leaves} nums");
    let mutated = |target: usize, hostile: u64| {
        let mut bad = snap.clone();
        assert!(mutate_nth_num(&mut bad, target, hostile, &mut 0));
        bad
    };
    let mut rng = Rng64::seed_from_u64(base_seed("snapshot_hostile_leaves_never_panic"));
    for i in 0..200 {
        let hostile = match i % 4 {
            0 => u64::MAX,
            1 => u64::from(u32::MAX),
            2 => rng.next_u64(),
            _ => rng.next_u64() % 97,
        };
        let target = (rng.next_u64() as usize) % leaves;
        restore_then_run(&spec, &mutated(target, hostile));
    }
    let mut accepted = 0;
    for target in 0..leaves {
        for hostile in [97, 7, 1 << 40] {
            accepted += usize::from(restore_then_run(&spec, &mutated(target, hostile)));
        }
    }
    assert!(
        accepted > leaves,
        "the sweep must mostly exercise accepted states ({accepted} of {leaves} x 3)"
    );
}

/// Byte-level corruption of the serialized snapshot: whatever still
/// parses must restore with a structured verdict and, if accepted, run —
/// not panic.
#[test]
fn snapshot_byte_fuzz_never_panics() {
    let (spec, snap) = warm_snapshot();
    let text = json::to_string_compact(&snap);
    let mut rng = Rng64::seed_from_u64(base_seed("snapshot_byte_fuzz_never_panics"));
    for _ in 0..300 {
        let Some(mangled) = corrupt(&text, &mut rng) else {
            continue;
        };
        let Ok(doc) = json::parse(&mangled) else {
            continue;
        };
        restore_then_run(&spec, &doc);
    }
}
