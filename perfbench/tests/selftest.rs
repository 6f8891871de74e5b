//! Self-tests on reduced-size runs of every workload: each metric that
//! `BENCHMARK.json` names is reported with its unit, deterministic
//! metrics repeat exactly, and a different seed changes the inputs.
//!
//! The serve half launches a real daemon, so build the CLI first; see
//! `test.sh`.

use std::path::PathBuf;

use kanon_perfbench::workload::{self, Inputs, Workload};
use kanon_perfbench::{run_end_to_end, run_traced, Env, Outcome};

/// `(name, unit)` of every entry in one section of `BENCHMARK.json`
/// (`(name, why)` for workloads), which keeps one object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let second = if section == "workloads" {
        "why"
    } else {
        "unit"
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    let mut current = "";
    let mut out = Vec::new();
    for line in text.lines() {
        for s in ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""] {
            if line.trim_start().starts_with(s) {
                current = s;
            }
        }
        if current.trim_matches('"') == section {
            if let (Some(n), Some(u)) = (field(line, "name"), field(line, second)) {
                out.push((n, u));
            }
        }
    }
    assert!(!out.is_empty(), "nothing declared under {section}");
    out
}

fn env(tag: &str) -> Env {
    let target = std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../target")));
    let kanon_bin = std::env::var_os("PERFBENCH_KANON_BIN")
        .map(PathBuf::from)
        .unwrap_or_else(|| target.join("release/kanon"));
    assert!(
        kanon_bin.exists(),
        "{} is missing: build kanon-cli first (perfbench/test.sh does)",
        kanon_bin.display()
    );
    Env {
        kanon_bin,
        bench_bin: PathBuf::from(env!("CARGO_BIN_EXE_kanon-perfbench")),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}")),
    }
}

fn assert_reports(out: &Outcome, section: &str) {
    assert!(out.correct(), "{section} run failed: {out:?}");
    assert!(out.attempted > 0);
    let declared = declared(section);
    for (name, unit) in &declared {
        let got = out.metrics.0.iter().find(|(n, ..)| n == name);
        let (_, value, u) = got.unwrap_or_else(|| panic!("{section} metric {name} not reported"));
        assert_eq!(u, unit, "unit of {name}");
        assert!(value.is_finite(), "{name} = {value}");
    }
    assert_eq!(
        out.metrics.0.len(),
        declared.len(),
        "undeclared metrics reported"
    );
}

fn reduced(name: &str) -> Workload {
    workload::by_name(name).expect("workload").reduced()
}

fn check_workload(name: &str) {
    let w = reduced(name);
    let e = env(name);
    let a = run_end_to_end(&w, 7, 0.1, &e).expect("end-to-end run");
    assert_reports(&a, "end_to_end");
    let b = run_end_to_end(&w, 7, 0.1, &e).expect("end-to-end run");
    for m in ["oneshot_loss", "serve_loss"] {
        assert_eq!(
            a.metrics.get(m),
            b.metrics.get(m),
            "{m} must repeat exactly"
        );
    }

    let t1 = run_traced(&w, 7, &e, 1).expect("traced run");
    assert_reports(&t1, "per_layer");
    let t2 = run_traced(&w, 7, &e, 1).expect("traced run");
    // Work counters repeat exactly; the pool's runtime counters
    // (`parallel.pool_*`) depend on scheduling and are not compared.
    for (n, _, unit) in &t1.metrics.0 {
        let counted = unit == "count" || unit == "bytes" || n == "serve.absorb_ratio";
        if counted && !n.starts_with("parallel.pool_") {
            assert_eq!(
                t1.metrics.get(n),
                t2.metrics.get(n),
                "{n} must repeat exactly"
            );
        }
    }
}

#[test]
fn art_reduced_run() {
    check_workload("art");
}

#[test]
fn adult_reduced_run() {
    check_workload("adult");
}

#[test]
fn seed_changes_inputs() {
    for w in workload::all() {
        let w = w.reduced();
        let a = Inputs::generate(&w, 1);
        let b = Inputs::generate(&w, 2);
        assert_ne!(a.oneshot_csv, b.oneshot_csv, "{}: one-shot input", w.name);
        assert_ne!(a.base_csv, b.base_csv, "{}: serve base", w.name);
        assert_ne!(a.batches, b.batches, "{}: batches", w.name);
        assert_eq!(a.batches.len(), w.batches);
        let again = Inputs::generate(&w, 1);
        assert_eq!(
            a.oneshot_csv, again.oneshot_csv,
            "{}: same seed, same input",
            w.name
        );
    }
}

#[test]
fn workloads_match_benchmark_json() {
    let names: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = workload::all().iter().map(|w| w.name.to_string()).collect();
    assert_eq!(names, ours);
}
