//! Repo-local automation, invoked as `cargo run -p xtask -- <command>`.
//!
//! `lint` runs a hand-rolled source scanner over `crates/*/src` enforcing
//! repo conventions that `clippy` cannot express:
//!
//! * `std::sync::Barrier` is forbidden outside test code — shard
//!   synchronization must go through the `sim::sync::SyncFamily` seam so
//!   the model checker in `aethereal-testkit` can substitute its own
//!   primitives.
//! * `.unwrap()` is forbidden in `sim`, `core` and `cfg` library code
//!   (tests are exempt); use `.expect("why this cannot fail")` so every
//!   panic site documents its invariant.
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
//! * every crate root must carry `#![forbid(unsafe_code)]`.
//! * every struct that owns snapshot-visible dynamic state is pinned to
//!   the field count its state walk (`fn walk(&mut self, … &mut dyn
//!   StateVisit)`) was audited against, and there is one walk: a second,
//!   fast-forward-only traversal may not reappear in `sim` or `core`
//!   (the snapshot and the periodicity certificate are derived from the
//!   same declaration, so a field cannot be in one and not the other).
//! * there is one idleness question, `dormant_until(now)`: its two older
//!   names (`quiescent`, `next_event`) are derived views defined once in
//!   `sim/src/engine.rs` and may not be implemented anywhere else.
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

/// Crates whose library code must not call `.unwrap()`.
const NO_UNWRAP_CRATES: &[&str] = &["sim", "core", "cfg"];

/// Assembled at compile time so the scanner never matches its own source.
const BARRIER: &str = concat!("std::sync::", "Barrier");
const UNWRAP: &str = concat!(".unwrap", "()");

/// Crates whose structs declare their state through the one state walk.
const ONE_WALK_CRATES: &[&str] = &["sim", "core"];

/// The retired second traversal (the fast-forward-only walk of PR 7).
const SECOND_WALK: &str = concat!("fn ff_", "visit");

/// The two derived views of `Clocked::dormant_until`, and the one file
/// that defines them.
const IDLENESS_VIEWS: [&str; 2] = [concat!("fn quie", "scent("), concat!("fn next_", "event(")];
const IDLENESS_FILE: &str = "sim/src/engine.rs";

/// How a file spells the one state walk: the method and its visitor.
const STATE_WALK: [&str; 2] = ["fn walk(&mut self", "StateVisit"];

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
    ("sim/src/noc.rs", "Noc", 15),
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
    ("core/src/message.rs", "MessageAssembler", 6),
    ("core/src/kernel/channel.rs", "Channel", 15),
    ("core/src/kernel/channel.rs", "ChannelStats", 6),
    ("core/src/kernel/sched.rs", "ArbState", 2),
    ("core/src/kernel/mod.rs", "NiKernel", 13),
    ("core/src/kernel/mod.rs", "NiKernelStats", 9),
    ("core/src/kernel/mod.rs", "CnipState", 3),
    ("core/src/shell/master.rs", "MasterStack", 12),
    ("core/src/shell/slave.rs", "SlaveStack", 10),
    ("core/src/shell/config.rs", "ConfigStack", 9),
    ("core/src/transaction.rs", "Transaction", 6),
    ("core/src/transaction.rs", "TransactionResponse", 3),
    ("core/src/ni.rs", "Ni", 4),
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
        Some("regen-goldens") => regen_goldens(),
        other => {
            eprintln!(
                "usage: cargo run -p xtask -- lint | regen-goldens   (got {:?})",
                other.unwrap_or("<none>")
            );
            ExitCode::FAILURE
        }
    }
}

/// Rewrites the golden-state snapshot corpus by rerunning the
/// `snapshot_golden` tests with `REGEN_GOLDENS=1` (each test then writes
/// its scenario's snapshot to `crates/facade/tests/goldens/` instead of
/// comparing against it), then immediately reruns them in compare mode so
/// a non-deterministic scenario cannot silently bake in an unstable
/// baseline.
fn regen_goldens() -> ExitCode {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let args = ["test", "-p", "aethereal", "--test", "snapshot_golden"];
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
    println!("regen-goldens: corpus rewritten and verified");
    ExitCode::SUCCESS
}

fn lint() -> ExitCode {
    let root = repo_root();
    let crates_dir = root.join("crates");
    let mut findings = Vec::new();
    let mut crates: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .expect("crates/ directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crates.sort();
    for krate in &crates {
        let name = krate
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let src = krate.join("src");
        if !src.is_dir() {
            continue;
        }
        check_crate_root(&src, &mut findings);
        let mut files = Vec::new();
        collect_rs(&src, &mut files);
        files.sort();
        for file in files {
            let text = fs::read_to_string(&file).expect("source files are UTF-8");
            scan_file(&name, &file, &text, &mut findings);
        }
    }
    persist_audit(&crates_dir, &mut findings);
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
    // Brace depth at which a `#[cfg(test)] mod ...` body opened; test
    // code extends until depth drops back to it.
    let mut test_mod_at: Option<i32> = None;
    let mut pending_cfg_test = false;
    // Ditto for the body of a hot-path fn, with its name.
    let mut hot_fn: Option<(i32, &'static str)> = None;
    // Brace depth at which the outermost loop opened, for the cycle-loop
    // rule.
    let mut loop_at: Option<i32> = None;
    let may_cycle_loop = CYCLE_LOOP_FILES
        .iter()
        .any(|allowed| file.ends_with(allowed));
    for (idx, raw) in text.lines().enumerate() {
        let line = strip_comment(raw);
        let trimmed = line.trim();
        let lineno = idx + 1;
        if trimmed.contains("#[cfg(test)]") {
            pending_cfg_test = true;
        } else if pending_cfg_test && trimmed.starts_with("mod ") {
            test_mod_at = test_mod_at.or(Some(depth));
            pending_cfg_test = false;
        } else if !trimmed.is_empty() && !trimmed.starts_with("#[") {
            pending_cfg_test = false;
        }
        let in_tests = test_mod_at.is_some();
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
        if !in_tests {
            if line.contains(BARRIER) {
                findings.push(Finding {
                    file: file.to_path_buf(),
                    line: lineno,
                    rule: "no-std-barrier",
                    detail: format!("{BARRIER} outside tests; use sim::sync::SyncFamily"),
                });
            }
            if NO_UNWRAP_CRATES.contains(&krate) && line.contains(UNWRAP) {
                findings.push(Finding {
                    file: file.to_path_buf(),
                    line: lineno,
                    rule: "no-unwrap",
                    detail: "use .expect(\"invariant\") in library code".into(),
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
                    if test_mod_at == Some(depth) {
                        test_mod_at = None;
                    }
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

/// Drops `//` comments so commented-out code never trips a rule. Good
/// enough for this codebase: `//` inside string literals is not handled.
fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}
