//! Repo-local automation, invoked as `cargo run -p xtask -- <command>`.
//!
//! `lint` runs a hand-rolled source scanner over `crates/*/src` enforcing
//! repo conventions that `clippy` cannot express (the ones it can are
//! compiler lints: `unsafe_code` in the workspace `[lints]` table,
//! `clippy::unwrap_used` in the `sim`, `core` and `cfg` crate roots, and
//! the `std::sync::Barrier` ban in `clippy.toml`):
//!
//! * every crate root must carry `#![forbid(unsafe_code)]`. The workspace
//!   table can only deny the lint (a test target allows it back to count
//!   allocations), and a denied lint can be allowed on any item; a
//!   forbidden one cannot, so library and binary code stays safe.
//! * `Vec::new` / `Box::new` / `vec![` / `.collect` inside `tick` / `emit`
//!   / `absorb` function bodies — and inside the router and NI kernel
//!   functions they reach every cycle (`emit_into`, `build_packets`,
//!   `build_packet_into`, `stage_word`, `depacketize`) — are flagged: the
//!   hot per-cycle paths are allocation-free by design (see
//!   `crates/facade/tests/zero_alloc.rs`).
//! * `.tick()` inside a loop is forbidden in library code outside the one
//!   sanctioned driver (`sim/src/engine.rs`) — a hand-rolled cycle loop
//!   silently bypasses the engine's quiescent skip and the fast-forward
//!   backend; advance time through `Engine::run` / the shard runner (which
//!   is driven by the engine) instead.
//! * every struct that owns snapshot-visible dynamic state is pinned to
//!   the field count its state walk (`fn walk<V: StateVisit +
//!   ?Sized>(&mut self, …)`) was audited against, and there is one walk: a
//!   second, fast-forward-only traversal may not reappear in `sim` or
//!   `core` (the snapshot and the periodicity certificate are derived from
//!   the same declaration, so a field cannot be in one and not the other).
//!   Non-test code of `sim` and `core` never names the visitor as `dyn`:
//!   the walks are generic so the four in-tree visitors inline into them,
//!   and dynamic dispatch is left to the IP-model boundary in `proto`.
//! * there is one idleness question, `dormant_until(now)`: its two older
//!   names (`quiescent`, `next_event`) are derived views defined once in
//!   `sim/src/engine.rs` and may not be implemented anywhere else.
//! * there is one fast-forward offerer, the unsplit system: outside tests
//!   `Engine::run_ff` is called only in `cfg/src/system.rs`, and
//!   `fast_forward` is implemented only there and as the declining trait
//!   default in `sim/src/engine.rs`. A sharded run never offers.
//! * the digest is the proof: the retired hand-written fast-forward gates
//!   of the NI side (a per-NI, per-kernel and per-channel readiness test
//!   and a master-shell drain test) may not come back anywhere under the
//!   `src` of `sim`, `core` or `cfg`. The state walk digests every field
//!   they read, so a state they would refuse fails certification.
//! * no new orphan: a `pub fn` in `sim`, `core`, `cfg`, `proto` or
//!   `verify` whose name no non-test code uses outside its own definition
//!   must be on the [`ORPHAN_ALLOW`] list with a reason, and every entry
//!   of that list must still be an orphan — the list only shrinks.
//!
//! `census` prints the line count of every crate, split into non-test and
//! test lines, and the orphan list the `no-new-orphan` rule checks.
//!
//! The scanner is line-based with a small brace-tracking state machine —
//! deliberately no syn/proc-macro dependency, per the repo's no-new-deps
//! rule. It is conservative: string literals containing the patterns
//! would trip it, so phrase messages accordingly.

#![forbid(unsafe_code)]

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crates whose structs declare their state through the one state walk.
const ONE_WALK_CRATES: &[&str] = &["sim", "core"];

/// The retired second traversal (the fast-forward-only walk of PR 7).
const SECOND_WALK: &str = concat!("fn ff_", "visit");

/// The two derived views of `Clocked::dormant_until`, and the one file
/// that defines them.
const IDLENESS_VIEWS: [&str; 2] = [concat!("fn quie", "scent("), concat!("fn next_", "event(")];
const IDLENESS_FILE: &str = "sim/src/engine.rs";

/// The fast-forward offer and its implementation, and the one file that
/// may hold either outside tests: the unsplit system. The trait default
/// in [`IDLENESS_FILE`] is the other implementation allowed.
const FF_OFFER: &str = concat!("Engine::run", "_ff(");
const FF_IMPL: &str = concat!("fn fast_", "forward(");
const FF_OFFER_FILE: &str = "cfg/src/system.rs";

/// The retired NI-side fast-forward gates, and the crates they may not
/// come back to.
const RETIRED_FF_GATES: [&str; 2] = [concat!("fn ff_", "ready("), concat!("fn is_", "drained(")];
const FF_GATE_CRATES: &[&str] = &["sim", "core", "cfg"];

/// How a file spells the one state walk: the method, generic over its
/// visitor.
const STATE_WALK: [&str; 2] = ["fn walk<V: ", "StateVisit + ?Sized>(&mut self"];

/// The visitor trait and its two re-exported names, none of which `sim`
/// or `core` may take as `dyn` outside tests.
const VISITOR_NAMES: [&str; 3] = ["StateVisit", "FfVisit", "PersistVisit"];

/// Hot per-cycle entry points that must stay allocation-free, plus the
/// router and NI kernel functions reached from them on every cycle.
const HOT_FNS: &[&str] = &[
    "tick",
    "emit",
    "absorb",
    "emit_into",
    "build_packets",
    "build_packet_into",
    "stage_word",
    "depacketize",
];

/// Assembled at compile time so the scanner never matches its own source.
const COLLECT: &str = concat!(".col", "lect");

/// Assembled at compile time so the scanner never matches its own source.
const TICK_CALL: &str = concat!(".tick", "()");

/// The only library file allowed to advance cycles in a loop: the engine
/// (quiescent skip + fast-forward), which also drives the shard runner.
const CYCLE_LOOP_FILES: &[&str] = &["sim/src/engine.rs"];

/// The persistence audit: every struct that owns snapshot-visible dynamic
/// state, with the field count its state walk was written against.
///
/// Snapshot, restore, the fast-forward certificate and the jump are all
/// derived from one audited walk per struct (`fn walk`) that must visit
/// **every** dynamic field — a field silently added to one of these
/// structs would restore as garbage and be extrapolated as frozen. This
/// table pins each struct's field count; adding a field without deciding
/// its story (walked with its class, or derived state reset by the walk)
/// fails `xtask lint`. To clear a finding: extend the struct's `fn walk`
/// (or its enclosing walk) accordingly, then bump the count here.
const PERSIST_AUDIT: &[(&str, &str, usize)] = &[
    ("sim/src/rng.rs", "Rng64", 1),
    ("sim/src/router.rs", "Router", 11),
    ("sim/src/router.rs", "Port", 13),
    ("sim/src/router.rs", "GtEvent", 2),
    ("sim/src/noc.rs", "Noc", 16),
    ("sim/src/noc.rs", "NiLink", 3),
    ("sim/src/noc.rs", "BoundaryPort", 3),
    ("sim/src/link.rs", "LinkState", 3),
    ("sim/src/stats.rs", "NocStats", 5),
    ("sim/src/stats.rs", "LinkStats", 2),
    ("sim/src/fault.rs", "FaultState", 2),
    ("sim/src/fault.rs", "ArmedFault", 6),
    ("sim/src/shard.rs", "ShardRunner", 7),
    ("sim/src/shard.rs", "WireSlot", 3),
    ("core/src/fifo.rs", "HwFifo", 5),
    ("core/src/message.rs", "MessageAssembler", 5),
    ("core/src/kernel/channel.rs", "Channel", 15),
    ("core/src/kernel/channel.rs", "ChannelStats", 6),
    ("core/src/kernel/sched.rs", "ArbState", 2),
    ("core/src/kernel/mod.rs", "NiKernel", 13),
    ("core/src/kernel/mod.rs", "NiKernelStats", 9),
    ("core/src/kernel/mod.rs", "CnipState", 3),
    ("core/src/shell/master.rs", "MasterStack", 10),
    ("core/src/shell/slave.rs", "SlaveStack", 8),
    ("core/src/transaction.rs", "Transaction", 6),
    ("core/src/transaction.rs", "TransactionResponse", 3),
    ("core/src/ni.rs", "Ni", 4),
];

/// Crates whose `pub fn`s the orphan census covers.
const CENSUS_CRATES: &[&str] = &["sim", "core", "cfg", "proto", "verify"];

/// The public functions whose name no non-test code uses outside their own
/// definition, each with why it stays: `(file under crates/, name,
/// reason)`. Non-test code is every crate's `src` and `examples` outside
/// `#[cfg(test)]` modules, plus `benchmark/src`;
/// comments do not count. `xtask lint` refuses an orphan missing here and
/// an entry that is no longer an orphan, so the list can only shrink:
/// delete a function (or make it private) and drop its entry.
#[rustfmt::skip]
const ORPHAN_ALLOW: &[(&str, &str, &str)] = &[
    ("sim/src/router.rs", "be_queued", "router unit tests read BE queue fill through it"),
    ("sim/src/engine.rs", "edges_in", "ClockDomain arithmetic pinned by the sim property tests"),
    ("sim/src/engine.rs", "local_now", "ClockDomain arithmetic pinned by the sim property tests"),
    ("sim/src/header.rs", "pack", "struct form of the header codec for tests; the NI packs with pack_encoded"),
    ("sim/src/header.rs", "unpack", "struct form of the header codec for tests; routers read fields in place"),
    ("sim/src/shard.rs", "wake", "wakes one region by hand in the shard parity and activity tests"),
    ("sim/src/fault.rs", "link_stuck", "FaultPlan method: tests and goldens script fault storms with it"),
    ("sim/src/fault.rs", "link_flaky", "FaultPlan method: tests and goldens script fault storms with it"),
    ("sim/src/fault.rs", "router_stall", "FaultPlan method: tests and goldens script fault storms with it"),
    ("sim/src/fault.rs", "credit_loss", "FaultPlan method: tests and goldens script fault storms with it"),
    ("sim/src/fault.rs", "slot_corrupt", "FaultPlan method: tests and goldens script fault storms with it"),
    ("sim/src/fault.rs", "is_clean", "FaultReport verdict asserted by fault_injection, named in the README"),
    ("core/src/transaction.rs", "with_flush", "Transaction constructor for IP authors; tests use it"),
    ("core/src/transaction.rs", "expected_response_len", "Transaction query for IP authors; its unit test pins it"),
    ("core/src/ni.rs", "port_count", "Ni query; the NI and preset unit tests check layouts with it"),
    ("core/src/kernel/channel.rs", "credits_pending", "channel observation point of the activity tests"),
    ("core/src/shell/slave.rs", "responses_owed", "slave shell observation point of shell and robustness tests"),
    ("cfg/src/runtime.rs", "rev_slots", "ConnectionHandle query; end_to_end checks reverse GT slots"),
    ("cfg/src/presets.rs", "multi_slave_ni", "preset of the multi-connection shell (Fig. 4) used by tests"),
    ("cfg/src/system.rs", "raw_ip_at", "handle-free raw IP lookup of the activity, fault and ff parity tests"),
    ("cfg/src/inspect.rs", "slots_of", "NiDump query; the inspect unit tests read remote slot tables"),
    ("cfg/src/inspect.rs", "enabled_channels", "NiDump query; the inspect unit tests read remote channels"),
    ("cfg/src/inspect.rs", "dump_ni", "reads a remote NI's registers through the NoC; protocol_features"),
    ("cfg/src/shard.rs", "shard_count", "ShardedSystem query; shard parity and fault tests use it"),
    ("proto/src/memory.rs", "poke", "preloads MemorySlave contents in tests"),
    ("verify/src/bounds.rs", "worst_case_latency", "analytical bound cross-validated by the verify tests"),
];

struct Finding {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.detail
        )
    }
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("lint") => lint(),
        Some("census") => census(),
        Some("regen-goldens") => regen_goldens(),
        other => {
            eprintln!(
                "usage: cargo run -p xtask -- lint | census | regen-goldens   (got {:?})",
                other.unwrap_or("<none>")
            );
            ExitCode::FAILURE
        }
    }
}

/// Rewrites both golden sets under `crates/facade/tests/goldens/` — the
/// snapshot corpus (`snapshot_golden`) and the paper's tables
/// (`paper_conformance`, in `paper/`) — by rerunning their tests with
/// `REGEN_GOLDENS=1` (each test then writes its file instead of comparing
/// against it), then immediately reruns them in compare mode so a
/// non-deterministic scenario cannot silently bake in an unstable
/// baseline.
fn regen_goldens() -> ExitCode {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let args = [
        "test",
        "-p",
        "aethereal",
        "--test",
        "snapshot_golden",
        "--test",
        "paper_conformance",
    ];
    for (label, regen) in [("regenerate", true), ("verify", false)] {
        let mut cmd = std::process::Command::new(&cargo);
        cmd.args(args).current_dir(repo_root());
        if regen {
            cmd.env("REGEN_GOLDENS", "1");
        } else {
            cmd.env_remove("REGEN_GOLDENS");
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("regen-goldens: {label} run failed ({status})");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("regen-goldens: cannot spawn cargo: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("regen-goldens: snapshot and paper goldens rewritten and verified");
    ExitCode::SUCCESS
}

fn lint() -> ExitCode {
    let root = repo_root();
    let crates_dir = root.join("crates");
    let mut findings = Vec::new();
    let crates = crate_names(&root);
    for name in &crates {
        let src = crates_dir.join(name).join("src");
        if !src.is_dir() {
            continue;
        }
        check_crate_root(&src, &mut findings);
        let mut files = Vec::new();
        collect_rs(&src, &mut files);
        files.sort();
        for file in files {
            let text = fs::read_to_string(&file).expect("source files are UTF-8");
            scan_file(name, &file, &text, &mut findings);
        }
    }
    persist_audit(&crates_dir, &mut findings);
    orphan_audit(&root, &mut findings);
    if findings.is_empty() {
        println!("xtask lint: clean ({} crates scanned)", crates.len());
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            eprintln!("{f}");
        }
        eprintln!("xtask lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// One scanned source file: its path under `crates/` (under the repo root
/// for `benchmark/`), its text, and per line whether it is test code.
struct Source {
    rel: String,
    text: String,
    test: Vec<bool>,
}

impl Source {
    /// The non-test lines with comments stripped, numbered from 1.
    fn code(&self) -> impl Iterator<Item = (usize, &str)> {
        self.text
            .lines()
            .zip(&self.test)
            .enumerate()
            .filter(|(_, (_, &test))| !test)
            .map(|(i, (raw, _))| (i + 1, strip_comment(raw)))
    }
}

/// Every Rust file under `dir`; in a test directory every line is test
/// code, elsewhere the lines of `#[cfg(test)]` modules.
fn sources_in(root: &Path, dir: &Path, test_dir: bool) -> Vec<Source> {
    if !dir.is_dir() {
        return Vec::new();
    }
    let mut files = Vec::new();
    collect_rs(dir, &mut files);
    files.sort();
    let crates = root.join("crates");
    files
        .iter()
        .map(|path| {
            let text = fs::read_to_string(path).expect("source files are UTF-8");
            let test = if test_dir {
                vec![true; text.lines().count()]
            } else {
                test_lines(&text)
            };
            let rel = path
                .strip_prefix(&crates)
                .or_else(|_| path.strip_prefix(root));
            Source {
                rel: rel.unwrap_or(path).to_string_lossy().into_owned(),
                text,
                test,
            }
        })
        .collect()
}

/// Every Rust file of crate `krate`: `src`, `examples`, `tests`.
fn crate_sources(root: &Path, krate: &str) -> Vec<Source> {
    let dir = root.join("crates").join(krate);
    [("src", false), ("examples", false), ("tests", true)]
        .into_iter()
        .flat_map(|(sub, test_dir)| sources_in(root, &dir.join(sub), test_dir))
        .collect()
}

/// The crates under `crates/`, sorted.
fn crate_names(root: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(root.join("crates"))
        .expect("crates/ directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .filter_map(|p| p.file_name()?.to_str().map(str::to_string))
        .collect();
    names.sort();
    names
}

/// The identifiers of a line of code.
fn idents(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The census's orphans, as `(file under crates/, line, name)`: the
/// `pub fn`s of [`CENSUS_CRATES`] whose name appears in no non-test line
/// but their definition. Name-based, so a call, a path, a function
/// pointer or another item of the same name all count as a use.
fn orphans(root: &Path) -> Vec<(String, usize, String)> {
    // Not xtask itself: its tables name the functions it counts.
    let mut sources: Vec<(String, Source)> = crate_names(root)
        .into_iter()
        .filter(|k| k != "xtask")
        .flat_map(|k| {
            crate_sources(root, &k)
                .into_iter()
                .map(move |s| (k.clone(), s))
        })
        .collect();
    let benchmark = sources_in(root, &root.join("benchmark/src"), false);
    sources.extend(benchmark.into_iter().map(|s| ("benchmark".to_string(), s)));
    let mut uses: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    let mut defs = Vec::new();
    for (krate, s) in &sources {
        let census = CENSUS_CRATES.contains(&krate.as_str()) && s.rel.contains("/src/");
        for (line, code) in s.code() {
            for id in idents(code) {
                *uses.entry(id).or_default() += 1;
            }
            let def = code.trim_start().strip_prefix("pub fn ");
            if let Some(name) = def.filter(|_| census).and_then(|r| idents(r).next()) {
                defs.push((s.rel.clone(), line, name.to_string()));
            }
        }
    }
    defs.retain(|(_, _, name)| uses[name.as_str()] == 1);
    defs
}

/// Why the orphan `name` in `rel` stays, if it is on [`ORPHAN_ALLOW`].
fn allow_reason(rel: &str, name: &str) -> Option<&'static str> {
    ORPHAN_ALLOW
        .iter()
        .find(|&&(f, n, _)| f == rel && n == name)
        .map(|&(_, _, why)| why)
}

/// The `no-new-orphan` rule: the orphan list must equal [`ORPHAN_ALLOW`].
fn orphan_audit(root: &Path, findings: &mut Vec<Finding>) {
    let found = orphans(root);
    for (rel, line, name) in &found {
        if allow_reason(rel, name).is_none() {
            findings.push(Finding {
                file: root.join("crates").join(rel),
                line: *line,
                rule: "no-new-orphan",
                detail: format!(
                    "pub fn `{name}` is used by no non-test code: delete it, make it \
                     private, or add it to ORPHAN_ALLOW in crates/xtask/src/main.rs \
                     with the reason it stays"
                ),
            });
        }
    }
    for &(rel, name, _) in ORPHAN_ALLOW {
        if !found.iter().any(|(f, _, n)| f == rel && n == name) {
            findings.push(Finding {
                file: root.join("crates").join(rel),
                line: 1,
                rule: "no-new-orphan",
                detail: format!(
                    "stale ORPHAN_ALLOW entry `{name}`: it is used or gone, so drop the \
                     entry (the list only shrinks)"
                ),
            });
        }
    }
}

/// Prints line counts per crate (non-test and test lines, comments and
/// blank lines included) and the orphan list with each entry's reason.
fn census() -> ExitCode {
    let root = repo_root();
    println!("{:<10} {:>9} {:>9}", "crate", "non-test", "test");
    let (mut total_code, mut total_test) = (0, 0);
    for krate in crate_names(&root) {
        let (mut code, mut test) = (0, 0);
        for s in crate_sources(&root, &krate) {
            let t = s.test.iter().filter(|&&t| t).count();
            test += t;
            code += s.test.len() - t;
        }
        println!("{krate:<10} {code:>9} {test:>9}");
        total_code += code;
        total_test += test;
    }
    println!("{:<10} {total_code:>9} {total_test:>9}", "total");
    let found = orphans(&root);
    println!(
        "\npub fns in {} used by no non-test code: {}",
        CENSUS_CRATES.join("/"),
        found.len()
    );
    for (rel, line, name) in &found {
        let why = allow_reason(rel, name).unwrap_or("NOT ALLOWED");
        println!("  {rel}:{line} {name} — {why}");
    }
    ExitCode::SUCCESS
}

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = <repo>/crates/xtask at compile time; fall back
    // to the current directory when invoked as a bare binary.
    match option_env!("CARGO_MANIFEST_DIR") {
        Some(dir) => Path::new(dir)
            .ancestors()
            .nth(2)
            .expect("manifest dir has two ancestors")
            .to_path_buf(),
        None => PathBuf::from("."),
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry is readable").path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn check_crate_root(src: &Path, findings: &mut Vec<Finding>) {
    for root in ["lib.rs", "main.rs"] {
        let path = src.join(root);
        if !path.is_file() {
            continue;
        }
        let text = fs::read_to_string(&path).expect("source files are UTF-8");
        if !text.contains("#![forbid(unsafe_code)]") {
            findings.push(Finding {
                file: path,
                line: 1,
                rule: "forbid-unsafe",
                detail: "crate root lacks #![forbid(unsafe_code)]".into(),
            });
        }
    }
}

/// Cross-checks every [`PERSIST_AUDIT`] entry: the struct must still
/// exist, its file must still contain a state walk, and its field count
/// must match the count the walk was audited against.
fn persist_audit(crates_dir: &Path, findings: &mut Vec<Finding>) {
    for &(rel, name, expected) in PERSIST_AUDIT {
        let path = crates_dir.join(rel);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                findings.push(Finding {
                    file: path,
                    line: 1,
                    rule: "persist-audit",
                    detail: format!("cannot read audited file: {e}"),
                });
                continue;
            }
        };
        if !STATE_WALK.iter().all(|part| text.contains(part)) {
            findings.push(Finding {
                file: path.clone(),
                line: 1,
                rule: "persist-audit",
                detail: format!("file holds audited struct {name} but no state walk"),
            });
        }
        match count_struct_fields(&text, name) {
            Some((line, got)) if got != expected => findings.push(Finding {
                file: path,
                line,
                rule: "persist-audit",
                detail: format!(
                    "struct {name} has {got} fields, persist audit expects {expected}: \
                     a changed field set must be reflected in the state walk \
                     (visit it with its class, or reset it as derived state) and in \
                     PERSIST_AUDIT in crates/xtask/src/main.rs"
                ),
            }),
            None => findings.push(Finding {
                file: path,
                line: 1,
                rule: "persist-audit",
                detail: format!("audited struct {name} not found (moved? update PERSIST_AUDIT)"),
            }),
            _ => {}
        }
    }
}

/// Finds `struct <name>` in `text` and counts its fields: lines at body
/// depth whose first token (after visibility) is an identifier followed
/// by a single `:`. Returns `(declaration line, field count)`.
fn count_struct_fields(text: &str, name: &str) -> Option<(usize, usize)> {
    let mut lines = text.lines().enumerate();
    let decl_line = loop {
        let (idx, raw) = lines.next()?;
        let line = strip_comment(raw).trim().to_string();
        let is_decl = ["pub struct ", "pub(crate) struct ", "struct "]
            .iter()
            .filter_map(|p| line.strip_prefix(p))
            .any(|rest| {
                rest.starts_with(name)
                    && !rest[name.len()..]
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
            });
        if is_decl {
            break idx + 1;
        }
    };
    let mut depth: i32 = 0;
    let mut seen_open = false;
    let mut fields = 0usize;
    for raw in text.lines().skip(decl_line - 1) {
        let line = strip_comment(raw);
        if seen_open && depth == 1 && is_field_line(line.trim()) {
            fields += 1;
        }
        for ch in line.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    seen_open = true;
                }
                '}' => {
                    depth -= 1;
                    if seen_open && depth == 0 {
                        return Some((decl_line, fields));
                    }
                }
                _ => {}
            }
        }
        // `struct Foo;` / tuple struct: no brace body before the `;`.
        if !seen_open && line.contains(';') {
            return Some((decl_line, 0));
        }
    }
    None
}

/// Whether a struct-body line declares a field: its first token (after
/// optional visibility) is an identifier followed by exactly one `:`.
fn is_field_line(trimmed: &str) -> bool {
    if trimmed.is_empty() || trimmed.starts_with("#[") {
        return false;
    }
    let mut rest = trimmed;
    for vis in ["pub(crate) ", "pub(super) ", "pub "] {
        if let Some(r) = rest.strip_prefix(vis) {
            rest = r;
            break;
        }
    }
    let ident_len = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .count();
    if ident_len == 0 {
        return false;
    }
    let after = &rest[ident_len..];
    after.starts_with(':') && !after.starts_with("::")
}

/// Line scanner with just enough state to know (a) whether we are inside
/// a `#[cfg(test)]` module and (b) whether we are inside the body of a
/// hot-path function (`tick` / `emit` / `absorb`).
fn scan_file(krate: &str, file: &Path, text: &str, findings: &mut Vec<Finding>) {
    let mut depth: i32 = 0;
    let test = test_lines(text);
    // Brace depth at which the body of a hot-path fn opened, with its
    // name; the body extends until depth drops back to it.
    let mut hot_fn: Option<(i32, &'static str)> = None;
    // Brace depth at which the outermost loop opened, for the cycle-loop
    // rule.
    let mut loop_at: Option<i32> = None;
    let may_cycle_loop = CYCLE_LOOP_FILES
        .iter()
        .any(|allowed| file.ends_with(allowed));
    for ((idx, raw), &in_tests) in text.lines().enumerate().zip(&test) {
        let line = strip_comment(raw);
        let trimmed = line.trim();
        let lineno = idx + 1;
        if ONE_WALK_CRATES.contains(&krate) && line.contains(SECOND_WALK) {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: lineno,
                rule: "one-state-walk",
                detail: "a second state traversal: declare the field in the struct's \
                         `walk` with its class instead (see sim::persist)"
                    .into(),
            });
        }
        if !file.ends_with(IDLENESS_FILE) && IDLENESS_VIEWS.iter().any(|v| line.contains(v)) {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: lineno,
                rule: "one-idleness-question",
                detail: "implement `dormant_until(now)`; the two older names are \
                         views derived from it in sim/src/engine.rs"
                    .into(),
            });
        }
        if FF_GATE_CRATES.contains(&krate) && RETIRED_FF_GATES.iter().any(|g| line.contains(g)) {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: lineno,
                rule: "digest-is-the-proof",
                detail: "a hand-written fast-forward readiness gate: the state walk \
                         digests every field, so certification decides (see \
                         ff_eligible in cfg/src/system.rs for the gates that stay)"
                    .into(),
            });
        }
        if !in_tests {
            let offer = line.contains(FF_OFFER);
            let other_impl = line.contains(FF_IMPL) && !file.ends_with(IDLENESS_FILE);
            if (offer || other_impl) && !file.ends_with(FF_OFFER_FILE) {
                findings.push(Finding {
                    file: file.to_path_buf(),
                    line: lineno,
                    rule: "one-offerer",
                    detail: "fast-forward is offered only by the unsplit system \
                             (cfg/src/system.rs); a sharded run never offers"
                        .into(),
                });
            }
            if ONE_WALK_CRATES.contains(&krate)
                && line.contains("dyn ")
                && VISITOR_NAMES.iter().any(|v| line.contains(v))
            {
                findings.push(Finding {
                    file: file.to_path_buf(),
                    line: lineno,
                    rule: "one-state-walk",
                    detail: "a visitor taken as `dyn`: make the walk or helper generic \
                             (`<V: StateVisit + ?Sized>`) so the in-tree visitors \
                             inline; dynamic dispatch belongs at the IP-model boundary"
                        .into(),
                });
            }
            if hot_fn.is_none() {
                for name in HOT_FNS {
                    if let Some(pos) = line.find(&format!("fn {name}")) {
                        // Exact name match: next char ends the identifier.
                        let after = line[pos + 3 + name.len()..].chars().next();
                        if matches!(after, Some('(') | Some('<')) {
                            hot_fn = Some((depth, name));
                        }
                    }
                }
            }
            if !may_cycle_loop && loop_at.is_some() && line.contains(TICK_CALL) {
                findings.push(Finding {
                    file: file.to_path_buf(),
                    line: lineno,
                    rule: "no-cycle-loop",
                    detail: format!(
                        "{TICK_CALL} inside a loop: advance time through \
                         Engine::run (quiescent skip + fast-forward), not a \
                         hand-rolled cycle loop"
                    ),
                });
            }
            if loop_at.is_none()
                && ((line.contains("for ") && line.contains(" in "))
                    || trimmed.starts_with("while ")
                    || line.contains("while ")
                    || line.contains("loop {"))
            {
                loop_at = Some(depth);
            }
            if let Some((_, name)) = hot_fn {
                for pat in ["Vec::new", "Box::new", "vec![", COLLECT] {
                    if line.contains(pat) {
                        findings.push(Finding {
                            file: file.to_path_buf(),
                            line: lineno,
                            rule: "hot-path-alloc",
                            detail: format!(
                                "{pat} inside fn {name}: per-cycle paths are allocation-free"
                            ),
                        });
                    }
                }
            }
        }
        for ch in line.chars() {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if hot_fn.is_some_and(|(d, _)| d == depth) {
                        hot_fn = None;
                    }
                    if loop_at == Some(depth) {
                        loop_at = None;
                    }
                }
                _ => {}
            }
        }
    }
}

/// Which lines of `text` are test code: the body of a `#[cfg(test)]
/// module, from its `mod` line through its closing brace.
fn test_lines(text: &str) -> Vec<bool> {
    let mut depth: i32 = 0;
    // Brace depth at which a `#[cfg(test)] mod ...` body opened; test
    // code extends until depth drops back to it.
    let mut test_mod_at: Option<i32> = None;
    let mut pending_cfg_test = false;
    text.lines()
        .map(|raw| {
            let line = strip_comment(raw);
            let trimmed = line.trim();
            if trimmed.contains("#[cfg(test)]") {
                pending_cfg_test = true;
            } else if pending_cfg_test && trimmed.starts_with("mod ") {
                test_mod_at = test_mod_at.or(Some(depth));
                pending_cfg_test = false;
            } else if !trimmed.is_empty() && !trimmed.starts_with("#[") {
                pending_cfg_test = false;
            }
            let in_tests = test_mod_at.is_some();
            for ch in line.chars() {
                match ch {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if test_mod_at == Some(depth) {
                            test_mod_at = None;
                        }
                    }
                    _ => {}
                }
            }
            in_tests
        })
        .collect()
}

/// Drops `//` comments so commented-out code never trips a rule. Good
/// enough for this codebase: `//` inside string literals is not handled.
fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}
