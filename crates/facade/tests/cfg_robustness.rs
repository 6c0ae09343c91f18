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
use aethereal::cfg::{fault_plan_from_json, fault_plan_to_json, presets, NocSpec, NocSystem};
use aethereal::ni::message::encode_request;
use aethereal::ni::Transaction;
use aethereal::proto::CountingSink;
use aethereal::sim::ff::FfDigest;
use aethereal::sim::topology::dir;
use aethereal::sim::{Engine, FaultPlan, StateSaver, StateVisit};
use aethereal_testkit::{base_seed, Rng64};
use scenario::{
    busy_system, busy_warm_system, configurable, counting_sink, gt, mesh, open, raw_mesh, source,
    with_cfg, BE, ENDLESS,
};

mod scenario;

/// A 2x2 two-NIs-per-router system with one open connection and a few
/// hundred cycles of configuration traffic behind it: a small but
/// state-rich snapshot subject.
fn spec() -> NocSpec {
    with_cfg(raw_mesh(2, 2, 2, 1), 0, 16)
}

fn warm_snapshot() -> (NocSpec, Value) {
    let spec = spec();
    let (mut sys, mut cfg) = configurable(&spec, 0);
    open(&mut cfg, &mut sys, (1, 1), (6, 1), BE, BE);
    Engine::run(&mut sys, 300);
    let snap = sys.snapshot().expect("snapshot");
    (spec, snap)
}

/// A snapshot of the busy shells ([`busy_warm_system`]), restored onto
/// [`busy_system`], which carries the same IP bindings.
fn busy_snapshot() -> Value {
    busy_warm_system().snapshot().expect("snapshot")
}

/// [`spec`]'s 2x2 mesh carrying only GT traffic once configured: three
/// GT connections between raw NIs, each fed by an endless stream, warmed
/// until words arrive.
fn warm_gt_mesh() -> NocSystem {
    let (mut sys, mut cfg) = configurable(&spec(), 0);
    let mut sinks = Vec::new();
    for (src, dst) in [(1, 6), (5, 2), (7, 3)] {
        open(&mut cfg, &mut sys, (src, 1), (dst, 1), gt(2), gt(2));
        source(&mut sys, src, 1, ENDLESS);
        sinks.push(counting_sink(&mut sys, dst, 1));
    }
    Engine::run(&mut sys, 2_000);
    for idx in sinks {
        assert!(
            sys.raw_ip_as::<CountingSink>(idx).count() > 0,
            "stream flows"
        );
    }
    sys
}

/// `Noc::walk`, then every `Ni::walk`, with visitor type `V`.
fn walk_network<V: StateVisit + ?Sized>(sys: &mut NocSystem, v: &mut V) {
    sys.noc.walk(v);
    for ni in sys.nis.iter_mut() {
        ni.walk(v);
    }
}

/// Every walk is generic over its visitor: snapshots and fast-forward
/// instantiate it with their concrete visitor, the IP models reach it
/// through `&mut dyn StateVisit`. Both dispatches of one walk must yield
/// one item stream and one digest.
#[test]
fn dyn_and_static_dispatch_of_one_walk_agree() {
    for (what, mut sys) in [
        ("busy shells", busy_warm_system()),
        ("pure-GT mesh", warm_gt_mesh()),
    ] {
        let now = sys.cycle();
        let (mut saver, mut digest) = (StateSaver::new(), FfDigest::new(now));
        walk_network(&mut sys, &mut saver);
        walk_network(&mut sys, &mut digest);
        let (mut dyn_saver, mut dyn_digest) = (StateSaver::new(), FfDigest::new(now));
        walk_network::<dyn StateVisit>(&mut sys, &mut dyn_saver);
        walk_network::<dyn StateVisit>(&mut sys, &mut dyn_digest);
        let items = saver.finish().expect("saves");
        assert!(items.len() > 100, "{what}: a state-rich stream");
        assert_eq!(items, dyn_saver.finish().expect("saves"), "{what}: items");
        assert_eq!(digest, dyn_digest, "{what}: digests");
    }
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

/// Formats 1–3 have no reader: each is refused by name, not half-read.
/// Format 3 differs from 4 only in two items a format-4 walk would
/// misread: each shell's sequence counter and each assembler's expected
/// length.
#[test]
fn retired_snapshot_formats_are_refused() {
    let (spec, snap) = warm_snapshot();
    for format in 1..=3 {
        let mut old = snap.clone();
        set(&mut old, "format", Value::Num(format));
        let err = NocSystem::from_spec(&spec)
            .restore(&old)
            .expect_err("retired format");
        assert!(
            err.msg
                .contains(&format!("unsupported snapshot format {format}")),
            "{err}"
        );
    }
}

/// A port stack that names an `ordering` — unordered delivery in
/// particular — is refused with a structured error: a spec asking for a
/// delivery mode the model does not have must never load as in-order.
#[test]
fn port_stack_ordering_is_refused() {
    let spec = pair_spec();
    let doc = json::parse(&spec.to_json().expect("serializes")).expect("parses");
    let with_stack = |ni: usize, stack: &str| {
        let mut doc = doc.clone();
        let Value::Obj(top) = &mut doc else {
            unreachable!("a spec is an object")
        };
        let Some(Value::Arr(nis)) = top.get_mut("nis") else {
            unreachable!("a spec lists its NIs")
        };
        set(
            &mut nis[ni],
            "stacks",
            Value::Arr(vec![
                Value::Str("Cnip".into()),
                json::parse(stack).expect("stack parses"),
            ]),
        );
        json::to_string_pretty(&doc)
    };
    // The unmodified stacks load: the edit below is the only difference.
    let same = with_stack(1, "\"Slave\"");
    assert_eq!(NocSpec::from_json(&same).expect("loads"), spec);
    for (ni, stack) in [
        (
            0,
            r#"{"Master": {"conn": "Direct", "ordering": "Sequenced"}}"#,
        ),
        (
            0,
            r#"{"Master": {"conn": "Direct", "ordering": "InOrder"}}"#,
        ),
        (1, r#"{"Slave": {"ordering": "Sequenced"}}"#),
        (1, r#"{"Slave": {"ordering": "InOrder"}}"#),
    ] {
        let err = NocSpec::from_json(&with_stack(ni, stack)).expect_err(stack);
        assert!(err.msg.contains("ordering"), "{stack}: {err}");
    }
}

/// The retired `partition` and `regions` keys: a file written before they
/// were retired carries them as `null` and still loads, while a value for
/// either is refused with a structured error naming the key, never
/// silently dropped.
#[test]
fn spec_with_regions_or_partition_is_refused() {
    let spec = pair_spec();
    let doc = json::parse(&spec.to_json().expect("serializes")).expect("parses");
    let with_key = |key: &str, value: &str| {
        let mut doc = doc.clone();
        set(&mut doc, key, json::parse(value).expect("value parses"));
        json::to_string_pretty(&doc)
    };
    let mut old = doc.clone();
    set(&mut old, "partition", Value::Null);
    set(&mut old, "regions", Value::Null);
    let old = json::to_string_pretty(&old);
    assert!(old.contains("\"partition\": null") && old.contains("\"regions\": null"));
    assert_eq!(NocSpec::from_json(&old).expect("old files load"), spec);
    for (key, value) in [
        ("partition", "[0, 1]"),
        ("partition", "[]"),
        (
            "regions",
            r#"{"router_regions": [0, 1], "gateways": [0, 1]}"#,
        ),
        ("regions", "{}"),
    ] {
        let err = NocSpec::from_json(&with_key(key, value)).expect_err(value);
        assert!(err.msg.contains(key), "{key}: {err}");
    }
}

/// A 2x1 mesh with one master NI and one slave NI.
fn pair_spec() -> NocSpec {
    mesh(2, 1, 1, vec![presets::master_ni(0), presets::slave_ni(1)])
}

/// `snap` with the slave shell's request assembler replaced by one
/// holding the partial message `buf` and the waiting messages `ready`.
/// The slave NI's stream ends with its shell: the assembler (error count,
/// partial buffer, waiting messages), then the empty history, request and
/// response queues, no response in flight, and the round-robin pointer.
fn with_slave_assembler(snap: &Value, buf: &[u64], ready: &[Vec<u64>]) -> Value {
    let mut snap = snap.clone();
    let Value::Obj(top) = &mut snap else {
        unreachable!("a snapshot is an object")
    };
    let Some(Value::Arr(nis)) = top.get_mut("nis") else {
        unreachable!("a snapshot lists its NIs")
    };
    let Value::Arr(stream) = &mut nis[1] else {
        unreachable!("an NI stream is an array")
    };
    let tail = stream.split_off(stream.len() - 8);
    assert!(tail.iter().all(|v| *v == Value::Num(0)), "{tail:?}");
    let mut asm = vec![0, buf.len() as u64];
    asm.extend(buf);
    asm.push(ready.len() as u64);
    for m in ready {
        asm.push(m.len() as u64);
        asm.extend(m);
    }
    stream.extend(asm.into_iter().chain([0; 5]).map(Value::Num));
    snap
}

/// An assembler restores only what framing can produce. A waiting
/// message that is not exactly one message would panic when the shell
/// takes it, and a partial buffer as long as its message would swallow
/// every later word without framing again: both are a `SnapshotError`.
#[test]
fn snapshot_assembler_that_cannot_frame_is_refused() {
    let spec = pair_spec();
    let mut sys = NocSystem::from_spec(&spec);
    Engine::run(&mut sys, 20);
    let snap = sys.snapshot().expect("snapshot");
    let read = encode_request(&Transaction::read(0x10, 1, 3));
    let (hdr, addr) = (u64::from(read[0]), u64::from(read[1]));
    let build = || NocSystem::from_spec(&spec);
    // What a live assembler can hold restores, and runs.
    for (buf, ready) in [(vec![hdr], vec![]), (vec![], vec![vec![hdr, addr]])] {
        let doc = with_slave_assembler(&snap, &buf, &ready);
        assert!(restore_then_run(&build, &doc), "{buf:?} {ready:?}");
    }
    let cases = [
        ("empty waiting message", vec![], vec![vec![]]),
        ("short waiting message", vec![], vec![vec![hdr]]),
        (
            "waiting message with bad command",
            vec![],
            vec![vec![0xF000_0000, addr]],
        ),
        ("partial as long as its message", vec![hdr, addr], vec![]),
        (
            "partial longer than its message",
            vec![hdr, addr, 7],
            vec![],
        ),
    ];
    for (what, buf, ready) in cases {
        let doc = with_slave_assembler(&snap, &buf, &ready);
        let err = build().restore(&doc).expect_err(what);
        assert!(err.msg.contains("message"), "{what}: {err}");
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

/// Restores `doc` onto a fresh system from `build` and, when the restore
/// is accepted, runs what it accepted: validation that lets through a
/// state the simulator then panics on has not validated anything. Returns
/// whether the restore was accepted.
fn restore_then_run(build: &dyn Fn() -> NocSystem, doc: &Value) -> bool {
    let mut fresh = build();
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
/// one beyond every 32-bit field. Two subjects: an idle configuration
/// shell among raw NIs, and [`busy_snapshot`]'s shells mid-transaction.
#[test]
fn snapshot_hostile_leaves_never_panic() {
    let (spec, snap) = warm_snapshot();
    hostile_leaf_sweep(&|| NocSystem::from_spec(&spec), &snap);
    hostile_leaf_sweep(&busy_system, &busy_snapshot());
}

fn hostile_leaf_sweep(build: &dyn Fn() -> NocSystem, snap: &Value) {
    let leaves = count_nums(snap);
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
        restore_then_run(build, &mutated(target, hostile));
    }
    let mut accepted = 0;
    for target in 0..leaves {
        for hostile in [97, 7, 1 << 40] {
            accepted += usize::from(restore_then_run(build, &mutated(target, hostile)));
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
        restore_then_run(&|| NocSystem::from_spec(&spec), &doc);
    }
}
