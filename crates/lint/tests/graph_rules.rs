//! Red/green/allow coverage for the call-graph rules (L008, L010)
//! on seeded mini-workspaces, plus the binary's JSON report, graph dump
//! and `--list-rules` contract, and the workspace-sweep time budget.
//!
//! Each seed goes under `CARGO_TARGET_TMPDIR`, like the gate tests in
//! `workspace.rs`; the deliberate violations live in string literals here,
//! which the masking layer keeps invisible to the real sweep.

#![forbid(unsafe_code)]

use kanon_lint::{find_workspace_root, lint_workspace, Diagnostic, Rule};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above CARGO_MANIFEST_DIR")
}

/// Writes a throwaway workspace and returns its root.
fn seed(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("kanon-lint-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    std::fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .unwrap();
    for (rel, content) in files {
        let p = root.join(rel);
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        std::fs::write(p, content).unwrap();
    }
    // Every workspace needs a counter registry (L005 reports its absence);
    // an empty enum satisfies both directions of the cross-check.
    if !files.iter().any(|(rel, _)| *rel == "crates/obs/src/lib.rs") {
        let obs = root.join("crates/obs/src/lib.rs");
        std::fs::create_dir_all(obs.parent().unwrap()).unwrap();
        std::fs::write(obs, "#![forbid(unsafe_code)]\npub enum Counter {}\n").unwrap();
    }
    root
}

fn of_rule(diags: &[Diagnostic], rule: Rule) -> Vec<&Diagnostic> {
    diags.iter().filter(|d| d.rule == rule).collect()
}

// ---------------------------------------------------------------------
// L008 — fail-point catalogue
// ---------------------------------------------------------------------

#[test]
fn l008_orphan_site_dead_entry_and_unexercised_point_fire() {
    let root = seed(
        "l008-red",
        &[
            (
                "crates/fault/src/lib.rs",
                "#![forbid(unsafe_code)]\n\n\
                 /// Every injectable fail point.\n\
                 pub const CATALOGUE: [&str; 2] = [\"algos/demo/step\", \"dead/point\"];\n",
            ),
            (
                "crates/algos/src/lib.rs",
                "#![forbid(unsafe_code)]\n\n\
                 pub fn demo(step: usize) -> usize {\n\
                 \x20   fail_point!(\"algos/demo/step\");\n\
                 \x20   fail_point!(\"orphan/rogue\");\n\
                 \x20   step\n}\n",
            ),
            (
                "crates/algos/tests/demo_fault.rs",
                "// exercises algos/demo/step under injected faults\n",
            ),
        ],
    );
    let diags = lint_workspace(&root).unwrap();
    let l008 = of_rule(&diags, Rule::L008);
    assert_eq!(l008.len(), 3, "{diags:?}");
    // The site naming a point the catalogue doesn't know.
    assert!(
        l008.iter().any(|d| d.file == "crates/algos/src/lib.rs"
            && d.line == 5
            && d.message.contains("orphan/rogue")),
        "{diags:?}"
    );
    // The catalogue entry with no site, which is also never exercised.
    assert!(
        l008.iter().any(|d| d.file == "crates/fault/src/lib.rs"
            && d.message.contains("dead/point")
            && d.message.contains("no fail_point!")),
        "{diags:?}"
    );
    assert!(
        l008.iter().any(|d| d.file == "crates/fault/src/lib.rs"
            && d.message.contains("dead/point")
            && d.message.contains("never exercised")),
        "{diags:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn l008_catalogued_sited_and_exercised_is_green() {
    let root = seed(
        "l008-green",
        &[
            (
                "crates/fault/src/lib.rs",
                "#![forbid(unsafe_code)]\n\n\
                 /// Every injectable fail point.\n\
                 pub const CATALOGUE: [&str; 1] = [\"algos/demo/step\"];\n",
            ),
            (
                "crates/algos/src/lib.rs",
                "#![forbid(unsafe_code)]\n\n\
                 pub const DEMO_FAIL_POINT: &str = \"algos/demo/step\";\n\n\
                 pub fn demo(step: usize) -> usize {\n\
                 \x20   fail_point!(DEMO_FAIL_POINT);\n\
                 \x20   step\n}\n",
            ),
            (
                "crates/algos/tests/demo_fault.rs",
                "// exercises algos/demo/step under injected faults\n",
            ),
        ],
    );
    let diags = lint_workspace(&root).unwrap();
    assert!(of_rule(&diags, Rule::L008).is_empty(), "{diags:?}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn l008_justified_allow_silences_a_staging_site() {
    let root = seed(
        "l008-allow",
        &[
            (
                "crates/fault/src/lib.rs",
                "#![forbid(unsafe_code)]\n\n\
                 pub const CATALOGUE: [&str; 0] = [];\n",
            ),
            (
                "crates/algos/src/lib.rs",
                "#![forbid(unsafe_code)]\n\n\
                 pub fn demo(step: usize) -> usize {\n\
                 \x20   // kanon-lint: allow(L008) staging point, catalogued when the matrix lands\n\
                 \x20   fail_point!(\"algos/demo/staging\");\n\
                 \x20   step\n}\n",
            ),
        ],
    );
    let diags = lint_workspace(&root).unwrap();
    assert!(of_rule(&diags, Rule::L008).is_empty(), "{diags:?}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn l008_is_inert_without_a_fault_crate() {
    let root = seed(
        "l008-nofault",
        &[(
            "crates/algos/src/lib.rs",
            "#![forbid(unsafe_code)]\n\n\
             pub fn demo(step: usize) -> usize {\n\
             \x20   fail_point!(\"algos/demo/step\");\n\
             \x20   step\n}\n",
        )],
    );
    let diags = lint_workspace(&root).unwrap();
    assert!(of_rule(&diags, Rule::L008).is_empty(), "{diags:?}");
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// L010 — determinism taint
// ---------------------------------------------------------------------

#[test]
fn l010_taint_reaches_deterministic_code_through_the_call_graph() {
    let root = seed(
        "l010-red",
        &[
            (
                "crates/core/src/lib.rs",
                "#![forbid(unsafe_code)]\n\npub mod clock;\n\n\
                 pub fn measure(work: usize) -> u128 {\n\
                 \x20   clock::elapsed_nanos(work)\n}\n",
            ),
            (
                "crates/core/src/clock.rs",
                "pub fn elapsed_nanos(work: usize) -> u128 {\n\
                 \x20   let start = std::time::Instant::now();\n\
                 \x20   let mut acc = 0usize;\n\
                 \x20   for i in 0..work {\n\
                 \x20       acc = acc.wrapping_add(i);\n\
                 \x20   }\n\
                 \x20   let _ = acc;\n\
                 \x20   start.elapsed().as_nanos()\n}\n",
            ),
        ],
    );
    let diags = lint_workspace(&root).unwrap();
    let l010 = of_rule(&diags, Rule::L010);
    // Both the direct reader and its transitive caller are tainted.
    assert_eq!(l010.len(), 2, "{diags:?}");
    assert!(
        l010.iter()
            .any(|d| d.file == "crates/core/src/clock.rs" && d.message.contains("Instant::now")),
        "{diags:?}"
    );
    let caller = l010
        .iter()
        .find(|d| d.file == "crates/core/src/lib.rs")
        .expect("transitive taint on measure");
    assert!(
        caller.message.contains("measure -> elapsed_nanos"),
        "chain should name the route: {}",
        caller.message
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn l010_designated_config_point_cuts_the_taint() {
    // Same shape, but the clock lives in core's config point: the source
    // is absorbed there and `measure` stays clean.
    let root = seed(
        "l010-green",
        &[
            (
                "crates/core/src/lib.rs",
                "#![forbid(unsafe_code)]\n\npub mod config;\n\n\
                 pub fn measure(work: usize) -> u128 {\n\
                 \x20   config::elapsed_nanos(work)\n}\n",
            ),
            (
                "crates/core/src/config.rs",
                "pub fn elapsed_nanos(work: usize) -> u128 {\n\
                 \x20   let _ = work;\n\
                 \x20   std::time::Instant::now().elapsed().as_nanos()\n}\n",
            ),
        ],
    );
    let diags = lint_workspace(&root).unwrap();
    assert!(of_rule(&diags, Rule::L010).is_empty(), "{diags:?}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn l010_justified_allow_cuts_the_taint() {
    let root = seed(
        "l010-allow",
        &[
            (
                "crates/core/src/lib.rs",
                "#![forbid(unsafe_code)]\n\npub mod clock;\n\n\
                 pub fn measure(work: usize) -> u128 {\n\
                 \x20   clock::elapsed_nanos(work)\n}\n",
            ),
            (
                "crates/core/src/clock.rs",
                "// kanon-lint: allow(L010) wall-clock is reported, never branched on\n\
                 pub fn elapsed_nanos(work: usize) -> u128 {\n\
                 \x20   let _ = work;\n\
                 \x20   std::time::Instant::now().elapsed().as_nanos()\n}\n",
            ),
        ],
    );
    let diags = lint_workspace(&root).unwrap();
    assert!(of_rule(&diags, Rule::L010).is_empty(), "{diags:?}");
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// Binary contract: --list-rules, --format json, --graph-dump
// ---------------------------------------------------------------------

#[test]
fn list_rules_output_is_pinned_to_rule_all() {
    let out = Command::new(env!("CARGO_BIN_EXE_kanon-lint"))
        .arg("--list-rules")
        .output()
        .expect("run kanon-lint");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), Rule::ALL.len(), "{stdout}");
    for (line, rule) in lines.iter().zip(Rule::ALL) {
        assert!(line.starts_with(rule.code()), "{line}");
        assert!(line.contains(rule.summary()), "{line}");
    }
}

#[test]
fn module_doc_rules_table_covers_every_rule() {
    // The library docs carry the rules table; a new rule without a row
    // (or a removed rule with a stale row) fails here.
    let lib_doc = include_str!("../src/lib.rs");
    for rule in Rule::ALL {
        let row = format!("//! | {} |", rule.code());
        assert!(
            lib_doc.contains(&row),
            "lib.rs doc table misses {}",
            rule.code()
        );
    }
    assert!(
        !lib_doc.contains("//! | L011 |"),
        "doc table has a row for a rule that does not exist"
    );
}

#[test]
fn json_report_is_well_formed_on_red_and_green() {
    // Red: a seeded violation comes back as a structured entry, exit 1.
    let root = seed(
        "json-red",
        &[(
            "crates/algos/src/lib.rs",
            "#![forbid(unsafe_code)]\n\n\
             pub fn demo() -> usize {\n    std::collections::HashMap::<u8, u8>::new().len()\n}\n",
        )],
    );
    let out = Command::new(env!("CARGO_BIN_EXE_kanon-lint"))
        .args(["--root", root.to_str().unwrap(), "--format", "json"])
        .output()
        .expect("run kanon-lint");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"version\": 1"), "{stdout}");
    assert!(stdout.contains("\"count\": 1"), "{stdout}");
    assert!(stdout.contains("\"rule\": \"L001\""), "{stdout}");
    assert!(
        stdout.contains("\"file\": \"crates/algos/src/lib.rs\""),
        "{stdout}"
    );
    // Every rule is self-described in the report header.
    for rule in Rule::ALL {
        assert!(
            stdout.contains(&format!("\"code\": \"{}\"", rule.code())),
            "{stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);

    // Green: the real workspace reports zero violations, exit 0.
    let out = Command::new(env!("CARGO_BIN_EXE_kanon-lint"))
        .args(["--root", repo_root().to_str().unwrap(), "--format", "json"])
        .output()
        .expect("run kanon-lint");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"count\": 0"), "{stdout}");
}

#[test]
fn graph_dump_census_matches_the_tree() {
    let out = Command::new(env!("CARGO_BIN_EXE_kanon-lint"))
        .args(["--root", repo_root().to_str().unwrap(), "--graph-dump"])
        .output()
        .expect("run kanon-lint");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"functions\""), "{stdout}");
    assert!(stdout.contains("\"failpoints\""), "{stdout}");
    // The fail-point census is part of the CI graph-sanity contract:
    // every catalogue point shows up, sites resolve through constants.
    for point in [
        "algos/agglomerative/merge",
        "algos/mondrian/split",
        "data/csv/row",
        "parallel/worker",
    ] {
        assert!(stdout.contains(point), "census misses {point}");
    }
}

// ---------------------------------------------------------------------
// Single-pass sweep: time budget
// ---------------------------------------------------------------------

#[test]
fn workspace_sweep_fits_the_ci_time_budget() {
    let root = repo_root();
    let start = std::time::Instant::now();
    let diags = lint_workspace(&root).expect("walk workspace");
    let elapsed = start.elapsed();
    assert!(diags.is_empty(), "{diags:?}");
    // Single-pass analysis + call graph over the whole workspace; the
    // budget is generous (debug build, shared CI runners) but a return
    // to per-rule re-scanning blows through it.
    assert!(
        elapsed < std::time::Duration::from_secs(10),
        "workspace sweep took {elapsed:?}, budget is 10s"
    );
}
