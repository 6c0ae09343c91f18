//! Printing, result files, and the comparison rule.
//!
//! One process measures one workload (peak memory is a per-process
//! number). `run`, `trace` and `aa` start one child per workload with the
//! same command line the driver uses, collect each child's result into one
//! file under `benchmark/out/`, and print the table. `compare` reads two
//! such files.

use crate::json::{parse, Json};
use crate::names::{Better, MetricValue, E2E};
use crate::workloads::{by_name, Scale, WORKLOADS};
use crate::{host, measure, trace, Options};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Prefix of the line, just above the final result line, that carries
/// what the final line has no room for (companions, exact values).
const DETAIL: &str = "#detail ";

/// `benchmark/out/`, beside the benchmark's sources.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn metrics_json(metrics: &[MetricValue]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

fn pairs_json(pairs: &[(String, f64)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect(),
    )
}

/// The driver's form: measures one workload in this process, prints every
/// metric by name with its unit, then the detail line, then — last — the
/// result line.
pub fn one_workload(name: &str, opts: &Options) -> Result<(), String> {
    let w = by_name(name).ok_or_else(|| {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let scale = Scale::new(opts.seconds, opts.smoke);
    println!(
        "workload {} seed {} seconds {} trace {}{}",
        w.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.smoke {
            " (smoke: not comparable)"
        } else {
            ""
        }
    );
    println!("  why: {}", w.why);
    if matches!(
        w.name,
        "uniform8" | "hotspot16" | "hotspot16_shard4" | "gt16_ff"
    ) {
        println!("  the streams of this workload have no randomness; the seed only feeds the control probe");
    }
    let (metrics, companions, exact, attempted, failed) = if opts.trace {
        let t = trace::run(w, opts.seed, scale)?;
        (t.metrics, Vec::new(), t.exact, t.attempted, t.failed)
    } else {
        let o = measure::run(w, opts.seed, scale);
        (o.metrics, o.companions, o.exact, o.attempted, o.failed)
    };
    for m in &metrics {
        println!("  {:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for (k, v) in companions.iter().chain(&exact) {
        println!("  {k:<36} {v:>18.6}");
    }
    println!("  ops_attempted {attempted}  ops_failed {failed}");
    let detail = Json::obj(vec![
        ("companions", pairs_json(&companions)),
        ("exact", pairs_json(&exact)),
    ]);
    println!("{DETAIL}{}", detail.render());
    let result = Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{}", result.render());
    Ok(())
}

/// Starts one child per workload and gathers their results into one
/// result document, also written under [`out_dir`].
/// `label` goes into the file name.
pub fn whole_set(opts: &Options, traced: bool, label: &str) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let load_at_start = host::load_average();
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if opts.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("cannot start {}: {e}", w.name))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let (Some(last), true) = (lines.pop(), out.status.success()) else {
            return Err(format!("workload {} exited with {}", w.name, out.status));
        };
        let mut result = parse(last).map_err(|e| format!("{}: bad result line: {e}", w.name))?;
        for line in lines {
            match line.strip_prefix(DETAIL) {
                Some(d) => {
                    let detail =
                        parse(d).map_err(|e| format!("{}: bad detail line: {e}", w.name))?;
                    if let (Json::Obj(r), Json::Obj(d)) = (&mut result, detail) {
                        r.extend(d);
                    }
                }
                None => println!("{line}"),
            }
        }
        if traced {
            let from = out_dir().join("trace.json");
            let to = out_dir().join(format!("trace-{}.json", w.name));
            std::fs::rename(&from, &to)
                .map_err(|e| format!("cannot keep {}: {e}", from.display()))?;
        }
        workloads.push((w.name.to_string(), result));
    }
    let doc = Json::obj(vec![
        ("benchmark", Json::str("aethereal-benchmark")),
        ("traced", Json::Bool(traced)),
        ("comparable", Json::Bool(!opts.smoke)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("host", host::describe(load_at_start)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let kind = if traced { "trace" } else { "run" };
    let path = out_dir().join(format!("{kind}-seed{}{label}.json", opts.seed));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, doc.render_pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("result file: {}", path.display());
    let failed: f64 = doc_workloads(&doc)
        .iter()
        .filter_map(|(_, r)| r.get("failed")?.as_f64())
        .sum();
    if failed > 0.0 {
        return Err(format!("{failed} operations failed their checks"));
    }
    Ok(doc)
}

fn doc_workloads(doc: &Json) -> &[(String, Json)] {
    doc.get("workloads").and_then(Json::as_obj).unwrap_or(&[])
}

/// Outcome of one (workload, metric) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound (or equal, for an exact
    /// metric).
    Ok,
    /// B is worse than A by more than the bound (or differs, for an exact
    /// metric).
    Worse,
    /// Within the bound, but a side's own quartiles lie further apart than
    /// the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The rule of `compare` and `aa` for one gated host-time metric.
/// `spread` is the wider of the two sides' within-run quartile spreads.
pub fn judge(better: Better, bound: f64, a: f64, b: f64, spread: f64) -> Verdict {
    let worse_by = match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Compares result document `b` against `a`, printing one row per
/// (workload, end-to-end metric) and every exact value that differs.
/// Returns how many rows were `worse` or unequal.
pub fn compare(a: &Json, b: &Json) -> usize {
    let same_inputs = ["seed", "seconds"]
        .iter()
        .all(|k| a.get(k).and_then(Json::as_f64) == b.get(k).and_then(Json::as_f64));
    println!(
        "{:<18} {:<24} {:>16} {:>16} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut bad = 0;
    for (name, ra) in doc_workloads(a) {
        let Some(rb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<18} missing from B");
            bad += 1;
            continue;
        };
        let value = |r: &Json, metric: &str| r.get("metrics")?.get(metric)?.get("value")?.as_f64();
        let spread = |r: &Json, metric: &str| {
            r.get("companions")?
                .get(&format!("{metric}.spread"))?
                .as_f64()
        };
        for m in &E2E {
            let (Some(va), Some(vb)) = (value(ra, m.name), value(rb, m.name)) else {
                println!("{name:<18} {:<24} missing", m.name);
                bad += 1;
                continue;
            };
            let verdict = if m.exact && same_inputs {
                if va == vb {
                    Verdict::Ok
                } else {
                    Verdict::Worse
                }
            } else {
                let s = spread(ra, m.name)
                    .unwrap_or(0.0)
                    .max(spread(rb, m.name).unwrap_or(0.0));
                judge(m.better, m.bound, va, vb, s)
            };
            bad += usize::from(verdict == Verdict::Worse);
            println!(
                "{name:<18} {:<24} {va:>16.4} {vb:>16.4} {:>9.4} {:>6}  {}",
                m.name,
                vb / va,
                if m.exact && same_inputs {
                    "exact".to_string()
                } else {
                    format!("{:.2}", m.bound)
                },
                verdict.as_str()
            );
        }
        if same_inputs {
            for (key, ea) in ra.get("exact").and_then(Json::as_obj).unwrap_or(&[]) {
                let eb = rb.get("exact").and_then(|e| e.get(key));
                if eb != Some(ea) {
                    println!("{name:<18} exact `{key}` differs: A {ea:?}, B {eb:?}");
                    bad += 1;
                }
            }
        }
    }
    if !same_inputs {
        println!(
            "seed or seconds differ: exact metrics were held to their bounds, counts not compared"
        );
    }
    println!("ratios are B over A; {bad} row(s) worse or unequal");
    bad
}

/// `compare A.json B.json`.
pub fn compare_files(a: &str, b: &str) -> Result<(), String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {p}: {e}"))
            .and_then(|s| parse(&s).map_err(|e| format!("{p}: {e}")))
    };
    let (a, b) = (read(a)?, read(b)?);
    for (side, doc) in [("A", &a), ("B", &b)] {
        if doc.get("comparable").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{side} is a --smoke result: not comparable"));
        }
        if doc.get("traced").and_then(Json::as_bool) != Some(false) {
            return Err(format!("{side} is not an untraced result file"));
        }
    }
    match compare(&a, &b) {
        0 => Ok(()),
        n => Err(format!("{n} row(s) worse or unequal")),
    }
}

/// `aa`: the untraced set twice on the same code, held to the same rule.
pub fn aa(opts: &Options) -> Result<(), String> {
    let first = whole_set(opts, false, "-aa1")?;
    let second = whole_set(opts, false, "-aa2")?;
    if opts.smoke {
        println!("smoke sizes: the comparison below only shows that the tool chain works");
    }
    match compare(&first, &second) {
        0 => Ok(()),
        n => Err(format!(
            "A/A: {n} row(s) worse or unequal on identical code"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_then_spread() {
        // Lower is better: 5% slower is inside an 8% bound, 9% is not.
        assert_eq!(judge(Better::Lower, 0.08, 100.0, 105.0, 0.01), Verdict::Ok);
        assert_eq!(
            judge(Better::Lower, 0.08, 100.0, 109.0, 0.01),
            Verdict::Worse
        );
        // Higher is better: the same numbers the other way round.
        assert_eq!(judge(Better::Higher, 0.08, 100.0, 95.0, 0.01), Verdict::Ok);
        assert_eq!(
            judge(Better::Higher, 0.08, 100.0, 91.0, 0.01),
            Verdict::Worse
        );
        // A gain is never worse, but wide quartiles leave it unresolved.
        assert_eq!(judge(Better::Higher, 0.08, 100.0, 130.0, 0.01), Verdict::Ok);
        assert_eq!(
            judge(Better::Lower, 0.08, 100.0, 101.0, 0.12),
            Verdict::Unresolved
        );
    }

    fn result_doc(rate: f64, words: f64) -> Json {
        let metrics: Vec<MetricValue> = E2E
            .iter()
            .map(|m| MetricValue {
                name: m.name,
                unit: m.unit,
                value: match m.name {
                    "router_cycles_per_s" => rate,
                    "sim_words_per_kcycle" => words,
                    _ => 10.0,
                },
            })
            .collect();
        let result = Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(3.0)),
            ("failed", Json::Num(0.0)),
            ("metrics", metrics_json(&metrics)),
            (
                "companions",
                pairs_json(&[("router_cycles_per_s.spread".into(), 0.03)]),
            ),
            ("exact", pairs_json(&[("digest".into(), 42.0)])),
        ]);
        Json::obj(vec![
            ("traced", Json::Bool(false)),
            ("comparable", Json::Bool(true)),
            ("seed", Json::Num(1.0)),
            ("seconds", Json::Num(10.0)),
            ("workloads", Json::Obj(vec![("uniform8".into(), result)])),
        ])
    }

    #[test]
    fn result_files_round_trip_and_compare() {
        let a = result_doc(7.9e6, 5630.64);
        let text = a.render_pretty();
        let back = parse(&text).expect("emitter output parses");
        assert_eq!(back, a, "reader returns what the emitter wrote");
        assert_eq!(compare(&a, &back), 0);
        // 30% slower breaks the 25% bound, a tenth does not; a changed
        // simulated statistic breaks equality however small the change.
        assert_eq!(compare(&a, &result_doc(5.5e6, 5630.64)), 1);
        assert_eq!(compare(&a, &result_doc(7.1e6, 5630.64)), 0);
        assert_eq!(compare(&a, &result_doc(7.9e6, 5630.65)), 1);
        assert_eq!(compare(&a, &result_doc(8.5e6, 5630.64)), 0);
    }

    #[test]
    fn smoke_results_are_refused() {
        let dir = out_dir().join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let full = dir.join("full.json");
        let smoke = dir.join("smoke.json");
        let doc = result_doc(7.9e6, 5630.64);
        let Json::Obj(mut members) = doc.clone() else {
            unreachable!()
        };
        members[1].1 = Json::Bool(false);
        std::fs::write(&full, doc.render_pretty()).expect("write");
        std::fs::write(&smoke, Json::Obj(members).render_pretty()).expect("write");
        let path = |p: &std::path::Path| p.to_string_lossy().into_owned();
        assert_eq!(compare_files(&path(&full), &path(&full)), Ok(()));
        let refused = compare_files(&path(&full), &path(&smoke));
        assert!(refused.is_err_and(|e| e.contains("not comparable")));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
