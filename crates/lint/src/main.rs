//! `kanon-lint` — walks the workspace and enforces the determinism &
//! safety rules L001–L006 and L008–L010 (see the library docs for the
//! rule list and the `// kanon-lint: allow(<rule>) <reason>` opt-out
//! syntax).
//!
//! ```text
//! usage: kanon-lint [--root DIR] [--format text|json] [--graph-dump] [--list-rules]
//! ```
//!
//! Exits 0 when the workspace lints clean, 1 on violations, 2 on usage or
//! I/O errors. Text diagnostics are machine-readable (`file:line: L00N
//! message`); `--format json` emits a versioned report object instead
//! (`{"version": 1, "rules": […], "violations": […], "count": N}`), and
//! `--graph-dump` prints the workspace call graph and fail-point census
//! as JSON and exits 0 (for debugging and the CI graph-sanity step).

#![forbid(unsafe_code)]

use kanon_lint::{analyze_workspace, find_workspace_root, graph, json_escape, lint_analyses, Rule};
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str =
    "usage: kanon-lint [--root DIR] [--format text|json] [--graph-dump] [--list-rules]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut graph_dump = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list-rules" => {
                for r in Rule::ALL {
                    println!("{}  {}", r.code(), r.summary());
                }
                return;
            }
            "--root" => {
                let Some(dir) = it.next() else {
                    eprintln!("kanon-lint: --root needs a directory");
                    exit(2);
                };
                root = Some(PathBuf::from(dir));
            }
            "--format" => {
                match it.next().map(String::as_str) {
                    Some("json") => json = true,
                    Some("text") => json = false,
                    _ => {
                        eprintln!("kanon-lint: --format needs `text` or `json`");
                        exit(2);
                    }
                };
            }
            "--graph-dump" => graph_dump = true,
            "-h" | "--help" => {
                eprintln!("{USAGE}");
                return;
            }
            other if root.is_none() && !other.starts_with('-') => {
                root = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("kanon-lint: unknown argument {other:?}");
                exit(2);
            }
        }
    }
    let root = root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| find_workspace_root(&cwd))
    });
    let Some(root) = root else {
        eprintln!("kanon-lint: no workspace root found (pass --root DIR)");
        exit(2);
    };
    let analyses = match analyze_workspace(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kanon-lint: {e}");
            exit(2);
        }
    };
    if graph_dump {
        let deps = graph::CrateDeps::load(&root);
        let g = graph::CallGraph::build(&analyses, &deps);
        let ci_text = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).ok();
        let report = graph::check_failpoints(&analyses, ci_text.as_deref());
        print!("{}", graph::dump_json(&analyses, &g, &report));
        return;
    }
    let diags = lint_analyses(&root, &analyses);
    if json {
        let mut out = String::from("{\n  \"version\": 1,\n  \"rules\": [\n");
        for (i, r) in Rule::ALL.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"code\": \"{}\", \"summary\": \"{}\"}}{}\n",
                r.code(),
                json_escape(r.summary()),
                if i + 1 < Rule::ALL.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n  \"violations\": [\n");
        for (i, d) in diags.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}{}\n",
                json_escape(&d.file),
                d.line,
                d.rule.code(),
                json_escape(&d.message),
                if i + 1 < diags.len() { "," } else { "" },
            ));
        }
        out.push_str(&format!("  ],\n  \"count\": {}\n}}\n", diags.len()));
        print!("{out}");
        exit(if diags.is_empty() { 0 } else { 1 });
    }
    if diags.is_empty() {
        eprintln!("kanon-lint: clean ({} rules)", Rule::ALL.len());
    } else {
        for d in &diags {
            println!("{d}");
        }
        eprintln!("kanon-lint: {} violation(s)", diags.len());
        exit(1);
    }
}
