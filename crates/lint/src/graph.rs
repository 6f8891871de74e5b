//! The workspace module/call graph and the two conformance rules that
//! need it: L008 (fail-point catalogue) and L010 (determinism taint).
//!
//! Call resolution is name-based with three conservative narrowings, so
//! an unresolvable call becomes a *missing* edge rather than a wrong one:
//!
//! 1. **test direction** — production callers never resolve into
//!    `#[cfg(test)]`/`tests/` items (test callers may call anything);
//! 2. **crate visibility** — a caller in crate `c` only resolves into
//!    `c` itself or the `kanon-*` crates its `Cargo.toml` declares;
//! 3. **qualifier narrowing** — a qualified call (`Type::f`, `module::f`)
//!    must match the callee's impl type, parent module or file stem;
//!    qualified calls with no in-tree match (e.g. `Vec::new`) are
//!    external and dropped.

use crate::parse::FnItem;
use crate::{
    contains_call, contains_macro, contains_token, Diagnostic, FileAnalysis, Rule,
    DETERMINISTIC_CRATES, ENV_CONFIG_POINTS,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;

// ---------------------------------------------------------------------
// Crate dependency edges
// ---------------------------------------------------------------------

/// `kanon-*` dependency edges between workspace crates, parsed from each
/// crate's `Cargo.toml` (`[dependencies]` and `[dev-dependencies]`
/// alike). A crate absent from the map (no manifest found — seeded test
/// workspaces) is treated as depending on everything: unknown manifests
/// must widen resolution, never silence it.
#[derive(Debug, Default)]
pub struct CrateDeps {
    deps: BTreeMap<String, BTreeSet<String>>,
}

impl CrateDeps {
    /// Reads `crates/*/Cargo.toml` under `root`.
    pub fn load(root: &Path) -> CrateDeps {
        let mut deps = BTreeMap::new();
        let crates = root.join("crates");
        let Ok(entries) = std::fs::read_dir(&crates) else {
            return CrateDeps { deps };
        };
        for entry in entries.flatten() {
            let dir = entry.path();
            let Ok(text) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
                continue;
            };
            let name = entry.file_name().to_string_lossy().to_string();
            let mut set = BTreeSet::new();
            for line in text.lines() {
                // Dependency lines look like `kanon-core.workspace = true`
                // or `kanon-core = { path = … }`; the package's own
                // `name = "kanon-x"` line does not start with `kanon-`.
                let line = line.trim_start();
                if let Some(rest) = line.strip_prefix("kanon-") {
                    let dep: String = rest
                        .chars()
                        .take_while(|&c| c.is_ascii_alphanumeric() || c == '_')
                        .collect();
                    if !dep.is_empty() {
                        set.insert(dep);
                    }
                }
            }
            deps.insert(name, set);
        }
        CrateDeps { deps }
    }

    /// May code in `caller` (a crate dir name, `None` = root package)
    /// call code in `callee`?
    fn visible(&self, caller: Option<&str>, callee: Option<&str>) -> bool {
        match (caller, callee) {
            // The root package sees every crate; no crate depends on it.
            (None, _) => true,
            (Some(_), None) => false,
            (Some(c), Some(t)) => {
                c == t
                    || match self.deps.get(c) {
                        Some(set) => set.contains(t),
                        None => true, // no manifest — widen, don't silence
                    }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Call graph
// ---------------------------------------------------------------------

/// The workspace call graph. Nodes are `fn` items, addressed by a flat
/// index into [`CallGraph::nodes`]; `(file, item)` points back into the
/// analyses slice.
pub struct CallGraph {
    /// Node → (analysis index, item index).
    pub nodes: Vec<(usize, usize)>,
    /// Forward edges: caller node → callee nodes (deduped, ordered).
    pub edges: Vec<Vec<usize>>,
    /// Reverse edges: callee node → caller nodes.
    pub redges: Vec<Vec<usize>>,
}

fn file_stem(rel_path: &str) -> &str {
    let base = rel_path.rsplit('/').next().unwrap_or(rel_path);
    base.strip_suffix(".rs").unwrap_or(base)
}

/// Maps a path qualifier like `kanon_algos` to its crate dir (`algos`).
fn kanon_crate_of(seg: &str) -> Option<&str> {
    seg.strip_prefix("kanon_")
}

impl CallGraph {
    /// Node lookup helper: the item behind a node index.
    pub fn item<'a>(&self, analyses: &'a [FileAnalysis], node: usize) -> &'a FnItem {
        let (f, i) = self.nodes[node];
        &analyses[f].items[i]
    }

    /// Node lookup helper: the file behind a node index.
    pub fn file<'a>(&self, analyses: &'a [FileAnalysis], node: usize) -> &'a FileAnalysis {
        &analyses[self.nodes[node].0]
    }

    /// Builds the graph from the shared per-file analyses.
    pub fn build(analyses: &[FileAnalysis], deps: &CrateDeps) -> CallGraph {
        let mut nodes = Vec::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (f, fa) in analyses.iter().enumerate() {
            for (i, item) in fa.items.iter().enumerate() {
                by_name.entry(&item.name).or_default().push(nodes.len());
                nodes.push((f, i));
            }
        }
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        let mut redges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (caller, &(f, i)) in nodes.iter().enumerate() {
            let fa = &analyses[f];
            let item = &fa.items[i];
            let caller_crate = fa.file.crate_dir.as_deref();
            for call in &item.calls {
                let targets = resolve(
                    analyses,
                    &nodes,
                    &by_name,
                    deps,
                    caller_crate,
                    &fa.file.rel_path,
                    item,
                    call,
                );
                for t in targets {
                    if !edges[caller].contains(&t) {
                        edges[caller].push(t);
                        redges[t].push(caller);
                    }
                }
            }
        }
        CallGraph {
            nodes,
            edges,
            redges,
        }
    }
}

/// Resolves one call site to candidate nodes (possibly several when the
/// name is ambiguous — over-approximating keeps reachability sound).
#[allow(clippy::too_many_arguments)]
fn resolve(
    analyses: &[FileAnalysis],
    nodes: &[(usize, usize)],
    by_name: &BTreeMap<&str, Vec<usize>>,
    deps: &CrateDeps,
    caller_crate: Option<&str>,
    caller_file: &str,
    caller: &FnItem,
    call: &crate::parse::CallSite,
) -> Vec<usize> {
    let Some(name) = call.path.last() else {
        return Vec::new();
    };
    let Some(cands) = by_name.get(name.as_str()) else {
        return Vec::new();
    };

    // Path qualifiers: a leading crate segment fixes the crate; the last
    // remaining segment (a module or type) narrows the item.
    let mut crate_filter: Option<String> = None;
    let mut quals: Vec<&str> = call.path[..call.path.len() - 1]
        .iter()
        .map(String::as_str)
        .collect();
    if let Some(&first) = quals.first() {
        match first {
            "crate" | "self" | "super" => {
                crate_filter = caller_crate.map(str::to_string);
                quals.remove(0);
            }
            "std" | "core" | "alloc" => return Vec::new(), // external
            _ => {
                if let Some(c) = kanon_crate_of(first) {
                    crate_filter = Some(c.to_string());
                    quals.remove(0);
                }
            }
        }
    }
    let mut qual = quals.last().copied();
    if qual == Some("Self") {
        qual = caller.impl_of.as_deref();
    }

    let visible = |node: usize| -> bool {
        let (f, i) = nodes[node];
        let fa = &analyses[f];
        let callee = &fa.items[i];
        // Production code never calls into test items.
        if callee.in_test && !caller.in_test {
            return false;
        }
        let callee_crate = fa.file.crate_dir.as_deref();
        match &crate_filter {
            Some(c) => callee_crate == Some(c.as_str()),
            None => deps.visible(caller_crate, callee_crate),
        }
    };

    let filtered: Vec<usize> = cands.iter().copied().filter(|&n| visible(n)).collect();
    if filtered.is_empty() {
        return Vec::new();
    }

    if call.method {
        // Method call: only impl methods qualify; prefer the caller's own
        // crate when it defines one (receiver types are usually local).
        let methods: Vec<usize> = filtered
            .iter()
            .copied()
            .filter(|&n| {
                let (f, i) = nodes[n];
                analyses[f].items[i].impl_of.is_some()
            })
            .collect();
        let local: Vec<usize> = methods
            .iter()
            .copied()
            .filter(|&n| analyses[nodes[n].0].file.crate_dir.as_deref() == caller_crate)
            .collect();
        return if local.is_empty() { methods } else { local };
    }

    if let Some(q) = qual {
        // Qualified call: the qualifier must match something in-tree, or
        // the whole path is external (`Vec::new`, `BTreeMap::from`, …).
        return filtered
            .into_iter()
            .filter(|&n| {
                let (f, i) = nodes[n];
                let fa = &analyses[f];
                let callee = &fa.items[i];
                callee.impl_of.as_deref() == Some(q)
                    || callee.module_path.last().map(String::as_str) == Some(q)
                    || file_stem(&fa.file.rel_path) == q
            })
            .collect();
    }

    if crate_filter.is_some() {
        // `crate::f` / `kanon_x::f` with no further qualifier.
        return filtered;
    }

    // Bare call: prefer same file, then same crate, then any visible.
    let same_file: Vec<usize> = filtered
        .iter()
        .copied()
        .filter(|&n| analyses[nodes[n].0].file.rel_path == caller_file)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let same_crate: Vec<usize> = filtered
        .iter()
        .copied()
        .filter(|&n| analyses[nodes[n].0].file.crate_dir.as_deref() == caller_crate)
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    filtered
}

// ---------------------------------------------------------------------
// L008 — fail-point catalogue cross-check
// ---------------------------------------------------------------------

/// One catalogue entry: the point name and its line in the fault crate.
#[derive(Debug, Clone)]
pub struct CatalogueEntry {
    /// Fail point name (`"algos/mondrian/split"`).
    pub name: String,
    /// 1-based line in `crates/fault/src/lib.rs`.
    pub line: usize,
}

/// One `fail_point!` / `fires` / `worker_hit` site, with its resolved
/// point name.
#[derive(Debug, Clone)]
pub struct FailpointSite {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Resolved point name.
    pub point: String,
}

/// The L008 analysis result: the parsed catalogue, every resolved site,
/// and the diagnostics. Sites/catalogue also feed `--graph-dump` and the
/// CI graph-sanity step.
#[derive(Debug, Default)]
pub struct FailpointReport {
    /// Catalogue entries in declaration order.
    pub catalogue: Vec<CatalogueEntry>,
    /// Every resolved injection site.
    pub sites: Vec<FailpointSite>,
    /// L008 diagnostics.
    pub diags: Vec<Diagnostic>,
}

const FAULT_LIB: &str = "crates/fault/src/lib.rs";

/// Extracts the string literals of one raw source line.
fn string_literals(raw: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = raw;
    while let Some(open) = rest.find('"') {
        let tail = &rest[open + 1..];
        let Some(close) = tail.find('"') else { break };
        out.push(tail[..close].to_string());
        rest = &tail[close + 1..];
    }
    out
}

/// Parses the `pub const CATALOGUE` array out of the fault crate source.
/// On the declaration line only the initializer (after `=`) is scanned,
/// so the `[&str; N]` type annotation neither contributes a `]` nor ends
/// a single-line array early.
fn parse_catalogue(src: &str) -> Vec<CatalogueEntry> {
    let mut out = Vec::new();
    let mut in_const = false;
    for (idx, raw) in src.lines().enumerate() {
        let scan: &str = if in_const {
            raw
        } else {
            let Some(pos) = raw.find("pub const CATALOGUE") else {
                continue;
            };
            in_const = true;
            match raw[pos..].find('=') {
                Some(eq) => &raw[pos + eq..],
                None => continue,
            }
        };
        for name in string_literals(scan) {
            out.push(CatalogueEntry {
                name,
                line: idx + 1,
            });
        }
        if scan.contains(']') {
            break;
        }
    }
    out
}

/// Cross-checks every fail-point site against the fault crate's
/// catalogue, and every catalogue point against the sites and the fault
/// tests / CI fault-matrix (`ci_text`). Returns an empty report when the
/// workspace has no fault crate (seeded test trees).
pub fn check_failpoints(analyses: &[FileAnalysis], ci_text: Option<&str>) -> FailpointReport {
    let mut report = FailpointReport::default();
    let Some(fault) = analyses.iter().find(|fa| fa.file.rel_path == FAULT_LIB) else {
        return report;
    };
    report.catalogue = parse_catalogue(&fault.file.source);
    let catalogue: BTreeMap<&str, usize> = report
        .catalogue
        .iter()
        .map(|e| (e.name.as_str(), e.line))
        .collect();

    // Index of string constants (`const NAME: &str = "value"`), for
    // sites that name their point through a constant
    // (`fail_point!(MONDRIAN_FAIL_POINT)`, `fail_point!(P::FAIL_POINT)`).
    // `#[cfg(test)]` constants are excluded: test-only policies may point
    // anywhere without cataloguing.
    let mut consts: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for fa in analyses {
        let raw_lines: Vec<&str> = fa.file.source.lines().collect();
        for (idx, code) in fa.masked.code_lines.iter().enumerate() {
            if fa.in_test.get(idx).copied().unwrap_or(false) || !contains_token(code, "const") {
                continue;
            }
            let Some(pos) = code.find("const") else {
                continue;
            };
            let ident: String = code[pos + "const".len()..]
                .chars()
                .skip_while(|c| c.is_whitespace())
                .take_while(|&c| crate::is_ident_char(c))
                .collect();
            if ident.is_empty() {
                continue;
            }
            // The value may sit on the same raw line or the next one
            // (rustfmt wraps long declarations).
            let mut values = string_literals(raw_lines.get(idx).copied().unwrap_or_default());
            if values.is_empty() {
                values = string_literals(raw_lines.get(idx + 1).copied().unwrap_or_default());
            }
            if let Some(v) = values.first() {
                consts.entry(ident).or_default().push(v.clone());
            }
        }
    }

    // Scan for sites. The fault crate itself is excluded: it defines the
    // machinery (and its unit tests probe arbitrary point names).
    for fa in analyses {
        if fa.file.rel_path.starts_with("crates/fault/") {
            continue;
        }
        let raw_lines: Vec<&str> = fa.file.source.lines().collect();
        for (idx, code) in fa.masked.code_lines.iter().enumerate() {
            if fa.in_test.get(idx).copied().unwrap_or(false) {
                continue;
            }
            let line = idx + 1;
            let probes: [(&str, bool); 3] = [
                ("fail_point", true),
                ("fires", false),
                ("worker_hit", false),
            ];
            for (probe, is_macro) in probes {
                let hit = if is_macro {
                    contains_macro(code, probe)
                } else {
                    contains_call(code, probe)
                };
                if !hit {
                    continue;
                }
                let raw = raw_lines.get(idx).copied().unwrap_or_default();
                let arg_src = raw
                    .split_once(&format!("{probe}{}(", if is_macro { "!" } else { "" }))
                    .map(|(_, tail)| tail)
                    .unwrap_or_default();
                // First argument: a string literal or a constant path.
                let first_arg: &str = arg_src.split([',', ')']).next().unwrap_or_default().trim();
                let points: Vec<String> = if first_arg.starts_with('"') {
                    string_literals(arg_src).into_iter().take(1).collect()
                } else {
                    let const_name = first_arg.rsplit("::").next().unwrap_or_default();
                    consts.get(const_name).cloned().unwrap_or_default()
                };
                if points.is_empty() {
                    report.diags.push(Diagnostic {
                        file: fa.file.rel_path.clone(),
                        line,
                        rule: Rule::L008,
                        message: format!(
                            "cannot resolve the fail point named by `{probe}` at this site — \
                             use a string literal or a non-test `const … : &str` the scanner \
                             can follow"
                        ),
                    });
                    continue;
                }
                for point in points {
                    if !catalogue.contains_key(point.as_str())
                        && !fa.allows.allows(line, Rule::L008)
                    {
                        report.diags.push(Diagnostic {
                            file: fa.file.rel_path.clone(),
                            line,
                            rule: Rule::L008,
                            message: format!(
                                "fail point `{point}` is not in the fault crate catalogue \
                                 ({FAULT_LIB}) — add it to `CATALOGUE` so the fault matrix \
                                 can exercise it"
                            ),
                        });
                    }
                    report.sites.push(FailpointSite {
                        file: fa.file.rel_path.clone(),
                        line,
                        point,
                    });
                }
            }
        }
    }

    // Reverse direction: every catalogue point needs a site and coverage.
    let is_test_file = |fa: &FileAnalysis| {
        fa.file.rel_path.contains("/tests/") || fa.file.rel_path.starts_with("tests/")
    };
    for entry in &report.catalogue {
        if fault.allows.allows(entry.line, Rule::L008) {
            continue;
        }
        if !report.sites.iter().any(|s| s.point == entry.name) {
            report.diags.push(Diagnostic {
                file: FAULT_LIB.to_string(),
                line: entry.line,
                rule: Rule::L008,
                message: format!(
                    "catalogue point `{}` has no fail_point!/fires/worker_hit site in the \
                     workspace — remove the dead entry or instrument the code path",
                    entry.name
                ),
            });
        }
        let in_tests = analyses
            .iter()
            .any(|fa| is_test_file(fa) && fa.file.source.contains(&entry.name));
        let in_ci = ci_text.is_some_and(|t| t.contains(&entry.name));
        if !in_tests && !in_ci {
            report.diags.push(Diagnostic {
                file: FAULT_LIB.to_string(),
                line: entry.line,
                rule: Rule::L008,
                message: format!(
                    "catalogue point `{}` is never exercised: no fault test or CI \
                     fault-matrix step names it",
                    entry.name
                ),
            });
        }
    }
    report
}

// ---------------------------------------------------------------------
// L010 — determinism taint
// ---------------------------------------------------------------------

/// How a function becomes a taint source.
fn nondeterminism_source(code: &str) -> Option<&'static str> {
    if code.contains("env::var") {
        return Some("env::var");
    }
    if code.contains("Instant::now") {
        return Some("Instant::now");
    }
    if code.contains("SystemTime::now") {
        return Some("SystemTime::now");
    }
    if contains_token(code, "available_parallelism") {
        return Some("available_parallelism");
    }
    if contains_call(code, "count_runtime") {
        return Some("runtime-counter telemetry");
    }
    None
}

/// Is this file a designated config point (the cut set of the taint
/// propagation)?
fn is_config_point(rel_path: &str) -> bool {
    ENV_CONFIG_POINTS
        .iter()
        .any(|(c, p)| rel_path == format!("crates/{c}/{p}"))
}

/// Checks that no non-test function of a deterministic crate can reach a
/// nondeterminism source through the call graph, except through a
/// designated config point. Propagation runs callee → caller over the
/// reverse edges; config-point functions (and `allow(L010)`-marked ones)
/// absorb the taint.
pub fn check_determinism_taint(analyses: &[FileAnalysis], g: &CallGraph) -> Vec<Diagnostic> {
    let n = g.nodes.len();
    // cut[node]: taint neither starts here nor propagates through.
    let mut cut = vec![false; n];
    // taint[node]: (source description, via-node or usize::MAX for direct)
    let mut taint: Vec<Option<(String, usize)>> = vec![None; n];
    let mut queue = VecDeque::new();

    for (node, &(f, i)) in g.nodes.iter().enumerate() {
        let fa = &analyses[f];
        let item = &fa.items[i];
        if is_config_point(&fa.file.rel_path) || fa.allows.allows(item.line, Rule::L010) {
            cut[node] = true;
            continue;
        }
        if item.in_test {
            continue; // tests may time/configure freely
        }
        // Scan the body lines for a direct source.
        for idx in (item.line - 1)..item.end_line.min(fa.masked.code_lines.len()) {
            if let Some(desc) = nondeterminism_source(&fa.masked.code_lines[idx]) {
                taint[node] = Some((format!("{desc} (line {})", idx + 1), usize::MAX));
                queue.push_back(node);
                break;
            }
        }
    }

    while let Some(node) = queue.pop_front() {
        for &caller in &g.redges[node] {
            if cut[caller] || taint[caller].is_some() {
                continue;
            }
            let (src, _) = taint[node].clone().unwrap_or_default();
            taint[caller] = Some((src, node));
            queue.push_back(caller);
        }
    }

    let mut diags = Vec::new();
    for (node, &(f, i)) in g.nodes.iter().enumerate() {
        let fa = &analyses[f];
        let item = &fa.items[i];
        let deterministic = fa
            .file
            .crate_dir
            .as_deref()
            .is_some_and(|d| DETERMINISTIC_CRATES.contains(&d));
        if !deterministic || item.in_test || cut[node] {
            continue;
        }
        let Some((source, _)) = &taint[node] else {
            continue;
        };
        // Reconstruct the call chain for the message.
        let mut chain = vec![item.name.clone()];
        let mut cur = node;
        for _ in 0..8 {
            match taint[cur] {
                Some((_, via)) if via != usize::MAX => {
                    chain.push(g.item(analyses, via).name.clone());
                    cur = via;
                }
                _ => break,
            }
        }
        diags.push(Diagnostic {
            file: fa.file.rel_path.clone(),
            line: item.line,
            rule: Rule::L010,
            message: format!(
                "deterministic crate `{}`: `{}` can reach nondeterminism source {source} \
                 via {} — route it through a designated config point \
                 ({}) or justify with `// kanon-lint: allow(L010) <reason>`",
                fa.file.crate_dir.as_deref().unwrap_or_default(),
                item.name,
                chain.join(" -> "),
                ENV_CONFIG_POINTS
                    .iter()
                    .map(|(c, p)| format!("crates/{c}/{p}"))
                    .collect::<Vec<_>>()
                    .join(", "),
            ),
        });
    }
    diags
}

// ---------------------------------------------------------------------
// Graph dump (debug output behind `kanon-lint --graph-dump`)
// ---------------------------------------------------------------------

/// Renders the call graph and fail-point census as JSON, for debugging
/// and for the CI graph-sanity step.
pub fn dump_json(analyses: &[FileAnalysis], g: &CallGraph, report: &FailpointReport) -> String {
    use crate::json_escape as esc;
    let mut out = String::from("{\n  \"functions\": [\n");
    for (node, &(f, i)) in g.nodes.iter().enumerate() {
        let fa = &analyses[f];
        let item = &fa.items[i];
        let calls: Vec<String> = g.edges[node].iter().map(usize::to_string).collect();
        out.push_str(&format!(
            "    {{\"id\": {node}, \"name\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"crate\": \"{}\", \"test\": {}, \"calls\": [{}]}}{}\n",
            esc(&item.name),
            esc(&fa.file.rel_path),
            item.line,
            esc(fa.file.crate_dir.as_deref().unwrap_or("")),
            item.in_test,
            calls.join(", "),
            if node + 1 < g.nodes.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"failpoints\": {\n    \"catalogue\": [\n");
    for (k, e) in report.catalogue.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"name\": \"{}\", \"line\": {}}}{}\n",
            esc(&e.name),
            e.line,
            if k + 1 < report.catalogue.len() {
                ","
            } else {
                ""
            },
        ));
    }
    out.push_str("    ],\n    \"sites\": [\n");
    for (k, s) in report.sites.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"file\": \"{}\", \"line\": {}, \"point\": \"{}\"}}{}\n",
            esc(&s.file),
            s.line,
            esc(&s.point),
            if k + 1 < report.sites.len() { "," } else { "" },
        ));
    }
    out.push_str("    ]\n  }\n}\n");
    out
}
