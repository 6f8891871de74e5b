//! # kanon-lint
//!
//! A workspace-native static-analysis pass that turns the repo's
//! determinism and safety *conventions* into machine-checked rules. The
//! determinism promise — byte-identical results and byte-identical work
//! counters at any thread count — is only as strong as the weakest hot
//! path, and the two bug classes that historically broke it (unordered-map
//! iteration reaching output, NaN-unsafe float comparison in comparators)
//! are both detectable at the source level without type information.
//!
//! The scanner is deliberately zero-dependency — no `syn`. Comments and
//! string literals are masked out first, so a doc comment *mentioning*
//! `HashMap` never fires, and rule probes in string literals (such as
//! this crate's own tests) are invisible. On top of the masked text sit
//! two layers, each file analyzed exactly once ([`analyze_file`]):
//!
//! 1. **line rules** (L001–L006, L009) over the masked lines, and
//! 2. **item rules** (L008, L010) over a lightweight item parse
//!    ([`parse`]) and the workspace call graph ([`graph`]) built from it.
//!
//! ## Rules
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | L001 | no `HashMap`/`HashSet` in deterministic crates (`core`, `algos`, `matching`, `measures`, `verify`) — iteration order must never reach results |
//! | L002 | no `partial_cmp` / raw float `==` in comparisons — use `total_cmp` (NaN-safe, total order) |
//! | L003 | `std::env::var("KANON_*")` only in each crate's single designated config point |
//! | L004 | every crate root and binary carries `#![forbid(unsafe_code)]` |
//! | L005 | obs counter registry cross-check: every registered counter is incremented somewhere, every increment uses a registered counter |
//! | L006 | no `.unwrap()` / `.expect(` / `panic!` in non-test code of the panic-free crates (`core`, `algos`, `matching`, `measures`, `data`) — failures must surface as typed errors |
//! | L008 | every `fail_point!`/`fires`/`worker_hit` site names a point in the fault crate's catalogue, every catalogue point has a site, and every point is exercised by a fault test or CI fault-matrix step |
//! | L009 | `unsafe` appears only in the audited allowlist ([`UNSAFE_ALLOWLIST`]), and `unsafe impl Send/Sync` carries an adjacent `SAFETY:` argument |
//! | L010 | no function of a deterministic crate transitively reaches a nondeterminism source (`env::var`, `Instant::now`, `SystemTime::now`, `available_parallelism`, runtime-counter telemetry) except through a designated config point |
//!
//! ## Opt-out
//!
//! A finding can be silenced with an explicit, justified marker on the
//! offending line or on the line directly above it:
//!
//! ```text
//! // kanon-lint: allow(L001) lookup-only map; iteration order never escapes
//! ```
//!
//! A marker without a reason is itself a diagnostic — the justification is
//! the point. For L004 the marker is file-scoped (the attribute is a
//! file-level property).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod graph;
pub mod parse;

/// Crate directories (under `crates/`) whose output feeds published
/// results and must therefore stay iteration-order deterministic.
pub const DETERMINISTIC_CRATES: [&str; 5] = ["core", "algos", "matching", "measures", "verify"];

/// Crate directories whose library code must never panic on bad input:
/// every failure has to surface as a typed error (`CoreError` /
/// `KanonError`) so the fault-tolerant pipeline can report it (L006).
/// Test code (`tests/`, `benches/`, `#[cfg(test)]` modules) is exempt —
/// panicking is how tests fail.
pub const PANIC_FREE_CRATES: [&str; 5] = ["core", "algos", "matching", "measures", "data"];

/// Per-crate designated config points: the only file of each crate allowed
/// to read `KANON_*` environment variables (L003). Paths are relative to
/// the crate directory.
pub const ENV_CONFIG_POINTS: [(&str, &str); 4] = [
    ("core", "src/config.rs"),
    ("fault", "src/lib.rs"),
    ("obs", "src/lib.rs"),
    ("parallel", "src/lib.rs"),
];

/// The only files allowed to contain `unsafe` code (L009). Everything on
/// this list has been audited: the worker pool's `unsafe impl Send/Sync`
/// carries its safety argument next to the impl, which L009 also checks,
/// and the serve signal watcher's four libc calls (`signal`, `pipe`,
/// `read`, `write` for the self-pipe trick) each carry a `SAFETY:`
/// comment.
pub const UNSAFE_ALLOWLIST: [&str; 2] =
    ["crates/parallel/src/pool.rs", "crates/serve/src/signal.rs"];

/// The lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Unordered collections in deterministic crates.
    L001,
    /// NaN-unsafe float comparison.
    L002,
    /// `KANON_*` env read outside the designated config point.
    L003,
    /// Missing `#![forbid(unsafe_code)]` on a crate root or binary.
    L004,
    /// Obs counter registry mismatch.
    L005,
    /// Panicking call in non-test code of a panic-free crate.
    L006,
    /// Fail-point site/catalogue/coverage mismatch.
    L008,
    /// `unsafe` outside the audited allowlist, or unargued Send/Sync.
    L009,
    /// Deterministic crate can reach a nondeterminism source.
    L010,
}

impl Rule {
    /// Every rule, in code order. `L007` (retired) is not reused.
    pub const ALL: [Rule; 9] = [
        Rule::L001,
        Rule::L002,
        Rule::L003,
        Rule::L004,
        Rule::L005,
        Rule::L006,
        Rule::L008,
        Rule::L009,
        Rule::L010,
    ];

    /// The diagnostic code (`L001`…`L010`).
    pub const fn code(self) -> &'static str {
        match self {
            Rule::L001 => "L001",
            Rule::L002 => "L002",
            Rule::L003 => "L003",
            Rule::L004 => "L004",
            Rule::L005 => "L005",
            Rule::L006 => "L006",
            Rule::L008 => "L008",
            Rule::L009 => "L009",
            Rule::L010 => "L010",
        }
    }

    /// One-line description, shown by `kanon-lint --list-rules`.
    pub const fn summary(self) -> &'static str {
        match self {
            Rule::L001 => "no HashMap/HashSet in deterministic crates (iteration order must never reach results)",
            Rule::L002 => "no partial_cmp / raw float == in comparisons; use total_cmp",
            Rule::L003 => "KANON_* env vars are read only in each crate's designated config point",
            Rule::L004 => "every crate root and binary carries #![forbid(unsafe_code)]",
            Rule::L005 => "every registered obs counter is incremented; every increment uses a registered counter",
            Rule::L006 => "no unwrap()/expect()/panic! in non-test code of panic-free crates; return typed errors",
            Rule::L008 => "every fail point site is in the fault crate catalogue, every catalogue point has a site and a fault test or CI step",
            Rule::L009 => "unsafe code only in the audited allowlist; unsafe impl Send/Sync requires an adjacent SAFETY: argument",
            Rule::L010 => "deterministic crates must not reach env/time/telemetry nondeterminism except through designated config points",
        }
    }

    /// Parses a rule code (`"L001"`), case-insensitively.
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL
            .into_iter()
            .find(|r| r.code().eq_ignore_ascii_case(s.trim()))
    }
}

/// One finding, rendered as `file:line: L00N message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file,
            self.line,
            self.rule.code(),
            self.message
        )
    }
}

/// Escapes a string for inclusion in a JSON string literal (used by the
/// binary's `--format json` output and the `--graph-dump` debug dump —
/// hand-rolled because the crate is deliberately dependency-free).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Source masking
// ---------------------------------------------------------------------

/// A source file with comments and string/char literals blanked out.
/// Line structure is preserved, so line numbers in the masked text match
/// the original; comment text is kept separately for marker parsing.
pub struct Masked {
    /// Code with every comment/string/char byte replaced by a space.
    pub code_lines: Vec<String>,
    /// Comment text per line (1-based index − 1), for allow markers.
    pub comment_lines: Vec<String>,
}

/// Masks comments, string literals (plain, raw, byte) and char literals.
/// Lifetimes (`'a`) are left intact. Nested block comments are handled.
pub fn mask_source(src: &str) -> Masked {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
    }
    let mut state = State::Code;
    let mut code = String::with_capacity(src.len());
    let mut comment = String::with_capacity(64);
    let mut code_lines = Vec::new();
    let mut comment_lines = Vec::new();
    let b: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            code_lines.push(std::mem::take(&mut code));
            comment_lines.push(std::mem::take(&mut comment));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && b.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                } else if c == '/' && b.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    code.push_str("  ");
                    i += 2;
                } else if c == 'r' && is_raw_string_start(&b, i) {
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    state = State::RawStr(hashes);
                    for _ in i..=j {
                        code.push(' ');
                    }
                    i = j + 1;
                } else if c == '"' {
                    state = State::Str;
                    code.push(' ');
                    i += 1;
                } else if c == '\'' {
                    // Char literal or lifetime?
                    if b.get(i + 1) == Some(&'\\') {
                        // '\n', '\'', '\u{..}' — consume to closing quote.
                        code.push(' ');
                        i += 2;
                        while i < b.len() && b[i] != '\'' {
                            if b[i] == '\n' {
                                break;
                            }
                            code.push(' ');
                            i += 1;
                        }
                        if b.get(i) == Some(&'\'') {
                            code.push(' ');
                            i += 1;
                        }
                    } else if b.get(i + 2) == Some(&'\'') && b.get(i + 1) != Some(&'\'') {
                        code.push_str("   ");
                        i += 3;
                    } else {
                        // Lifetime — keep as code.
                        code.push(c);
                        i += 1;
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                comment.push(c);
                code.push(' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && b.get(i + 1) == Some(&'/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    code.push_str("  ");
                    i += 2;
                } else if c == '/' && b.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(depth + 1);
                    code.push_str("  ");
                    i += 2;
                } else {
                    comment.push(c);
                    code.push(' ');
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    if b.get(i + 1) == Some(&'\n') {
                        // Escaped-newline continuation: let the top-of-loop
                        // newline handling keep line numbers aligned.
                        code.push(' ');
                        i += 1;
                    } else {
                        code.push_str("  ");
                        i += 2;
                    }
                } else if c == '"' {
                    state = State::Code;
                    code.push(' ');
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && (0..hashes).all(|h| b.get(i + 1 + h as usize) == Some(&'#')) {
                    state = State::Code;
                    for _ in 0..=hashes {
                        code.push(' ');
                    }
                    i += 1 + hashes as usize;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
        }
    }
    code_lines.push(code);
    comment_lines.push(comment);
    Masked {
        code_lines,
        comment_lines,
    }
}

/// Is the `r` at `i` the start of a raw string (`r"`, `r#"`, `br"` is
/// handled by the caller seeing the `b` as plain code first)? Must not be
/// the tail of an identifier (`for`, `var`…).
fn is_raw_string_start(b: &[char], i: usize) -> bool {
    if i > 0 {
        let p = b[i - 1];
        if p.is_alphanumeric() || p == '_' {
            return false;
        }
    }
    let mut j = i + 1;
    while b.get(j) == Some(&'#') {
        j += 1;
    }
    b.get(j) == Some(&'"')
}

// ---------------------------------------------------------------------
// Allow markers
// ---------------------------------------------------------------------

/// Parsed allow markers of a file: line → rules allowed on that line and
/// the next. Malformed markers become diagnostics.
pub struct Allows {
    by_line: BTreeMap<usize, Vec<Rule>>,
    /// File-scoped allows (used by L004).
    pub file_scope: Vec<Rule>,
}

impl Allows {
    /// Is `rule` allowed on `line` (1-based)? Markers cover their own line
    /// and the line directly below, so both trailing comments and
    /// standalone comment lines above the code work.
    pub fn allows(&self, line: usize, rule: Rule) -> bool {
        [line, line.wrapping_sub(1)].iter().any(|l| {
            self.by_line
                .get(l)
                .is_some_and(|rules| rules.contains(&rule))
        })
    }
}

/// Extracts `kanon-lint: allow(<rule>) <reason>` markers from the masked
/// file's comment text. A marker with no reason, or naming an unknown
/// rule, is reported as a diagnostic.
pub fn parse_allows(file: &str, masked: &Masked, diags: &mut Vec<Diagnostic>) -> Allows {
    let mut by_line = BTreeMap::new();
    let mut file_scope = Vec::new();
    for (idx, text) in masked.comment_lines.iter().enumerate() {
        let line = idx + 1;
        // Doc comments (`///…`, `//!…` — their text starts with `/` or
        // `!`) are prose; only plain `//` comments carry markers, so the
        // marker syntax can be *documented* without being parsed.
        if text.starts_with('/') || text.starts_with('!') {
            continue;
        }
        let Some(pos) = text.find("kanon-lint:") else {
            continue;
        };
        let rest = text[pos + "kanon-lint:".len()..].trim_start();
        let Some(inner) = rest.strip_prefix("allow(") else {
            diags.push(Diagnostic {
                file: file.to_string(),
                line,
                rule: Rule::L001,
                message: "malformed kanon-lint marker: expected `allow(<rule>) <reason>`"
                    .to_string(),
            });
            continue;
        };
        let Some(close) = inner.find(')') else {
            diags.push(Diagnostic {
                file: file.to_string(),
                line,
                rule: Rule::L001,
                message: "malformed kanon-lint marker: unclosed allow(...)".to_string(),
            });
            continue;
        };
        let mut rules = Vec::new();
        let mut bad = false;
        for part in inner[..close].split(',') {
            match Rule::parse(part) {
                Some(r) => rules.push(r),
                None => {
                    diags.push(Diagnostic {
                        file: file.to_string(),
                        line,
                        rule: Rule::L001,
                        message: format!("unknown rule `{}` in allow marker", part.trim()),
                    });
                    bad = true;
                }
            }
        }
        let reason = inner[close + 1..].trim();
        if reason.is_empty() && !bad {
            for &r in &rules {
                diags.push(Diagnostic {
                    file: file.to_string(),
                    line,
                    rule: r,
                    message: format!(
                        "allow({}) marker has no reason — justify the opt-out",
                        r.code()
                    ),
                });
            }
            continue; // an unjustified marker does not silence anything
        }
        for &r in &rules {
            if r == Rule::L004 {
                file_scope.push(r);
            }
        }
        by_line.entry(line).or_insert_with(Vec::new).extend(rules);
    }
    Allows {
        by_line,
        file_scope,
    }
}

// ---------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Finds `needle` in `line` as a whole token (not embedded in a longer
/// identifier).
fn contains_token(line: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(line[..at].chars().next_back().unwrap());
        let after = at + needle.len();
        let after_ok = after >= line.len() || !is_ident_char(line[after..].chars().next().unwrap());
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// Finds `name` in `line` as a whole token immediately followed by `(` —
/// a call. `unwrap_err(`, `unwrap_or(` and the like do not match
/// (the `_` extends the identifier past the token boundary).
fn contains_call(line: &str, name: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(name) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(line[..at].chars().next_back().unwrap());
        let after = &line[at + name.len()..];
        if before_ok && after.trim_start().starts_with('(') {
            return true;
        }
        start = at + name.len();
    }
    false
}

/// Finds a macro invocation `name!` in `line` as a whole token.
/// `panic_any(` and `core::panic::` do not match.
fn contains_macro(line: &str, name: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(name) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(line[..at].chars().next_back().unwrap());
        let after = &line[at + name.len()..];
        if before_ok && after.starts_with('!') {
            return true;
        }
        start = at + name.len();
    }
    false
}

/// Marks the lines belonging to `#[cfg(test)]`-gated items (modules,
/// functions): from the attribute through the matching close brace. Works
/// on masked code, so braces inside strings and comments never skew the
/// depth. A `#[cfg(test)]` gating a brace-less item (`use`, `type`) ends
/// at its `;`.
pub fn test_code_lines(masked: &Masked) -> Vec<bool> {
    let mut marks = vec![false; masked.code_lines.len()];
    let mut pending = false; // saw the attribute, waiting for the item body
    let mut depth: u32 = 0; // brace depth inside the gated item
    for (idx, code) in masked.code_lines.iter().enumerate() {
        let mut test_here = depth > 0;
        if depth == 0 && !pending {
            let compact: String = code.chars().filter(|c| !c.is_whitespace()).collect();
            if compact.contains("#[cfg(test)]") {
                pending = true;
            }
        }
        if pending || depth > 0 {
            test_here = true;
            for c in code.chars() {
                if depth > 0 {
                    match c {
                        '{' => depth += 1,
                        '}' => depth = depth.saturating_sub(1),
                        _ => {}
                    }
                } else if pending {
                    match c {
                        '{' => {
                            depth = 1;
                            pending = false;
                        }
                        ';' => pending = false,
                        _ => {}
                    }
                }
            }
        }
        marks[idx] = test_here;
    }
    marks
}

/// Does `s` contain a floating-point literal (`1.0`, `0.5`) or a float
/// type/constant mention (`f64`, `f32`, `NAN`, `INFINITY`)?
fn looks_float(s: &str) -> bool {
    for probe in ["f64", "f32", "NAN", "INFINITY"] {
        if contains_token(s, probe) {
            return true;
        }
    }
    let chars: Vec<char> = s.chars().collect();
    for w in chars.windows(3) {
        if w[0].is_ascii_digit() && w[1] == '.' && w[2].is_ascii_digit() {
            return true;
        }
    }
    false
}

/// Splits the operands around position `op` (an `==`/`!=` occurrence) in
/// `line`, bounded by expression delimiters.
fn operands_around(line: &str, op: usize) -> (String, String) {
    const DELIMS: &[char] = &[',', ';', '(', ')', '{', '}', '[', ']', '&', '|', '<', '>'];
    let left = &line[..op];
    let right = &line[op + 2..];
    let lstart = left.rfind(DELIMS).map(|p| p + 1).unwrap_or(0);
    let rend = right.find(DELIMS).unwrap_or(right.len());
    (
        left[lstart..].trim().to_string(),
        right[..rend].trim().to_string(),
    )
}

// ---------------------------------------------------------------------
// Single-pass file analysis + per-file rules (L001–L004, L006, L009)
// ---------------------------------------------------------------------

/// A fully analyzed workspace file: masked text, `#[cfg(test)]` marks,
/// allow markers, and the item parse with call sites. Built exactly once
/// per file by [`analyze_file`]; every rule — line rules and graph rules
/// alike — reads from this shared analysis, so a workspace sweep scans
/// and parses each file a single time.
pub struct FileAnalysis {
    /// The classified file (path, crate, content).
    pub file: WorkspaceFile,
    /// Masked source (comments/strings blanked).
    pub masked: Masked,
    /// Per-line `#[cfg(test)]` scope marks.
    pub in_test: Vec<bool>,
    /// Parsed `fn` items with their call sites.
    pub items: Vec<parse::FnItem>,
    /// Parsed allow markers.
    pub allows: Allows,
    /// Diagnostics from malformed or unjustified markers.
    pub marker_diags: Vec<Diagnostic>,
}

/// Runs the shared analysis pass over one file.
pub fn analyze_file(file: WorkspaceFile) -> FileAnalysis {
    let masked = mask_source(&file.source);
    let in_test = test_code_lines(&masked);
    let items = parse::parse_items(&file.rel_path, &masked, &in_test);
    let mut marker_diags = Vec::new();
    let allows = parse_allows(&file.rel_path, &masked, &mut marker_diags);
    FileAnalysis {
        file,
        masked,
        in_test,
        items,
        allows,
        marker_diags,
    }
}

/// Lints a single file's source. `rel_path` is workspace-relative (used in
/// diagnostics and for the L003 config-point check); `crate_dir` is the
/// directory name under `crates/` (`None` for root-package files,
/// examples, and workspace-level tests). Convenience wrapper over
/// [`analyze_file`] + [`file_rules`] for tests and fixtures; the
/// workspace sweep analyzes each file once and shares the result.
pub fn lint_source(rel_path: &str, crate_dir: Option<&str>, src: &str) -> Vec<Diagnostic> {
    let fa = analyze_file(WorkspaceFile {
        rel_path: rel_path.to_string(),
        crate_dir: crate_dir.map(str::to_string),
        is_root_target: false,
        source: src.to_string(),
    });
    file_rules(&fa)
}

/// The per-file rules (L001–L003, L006, L009 on every file; L004 on root
/// targets), fed from the shared analysis.
pub fn file_rules(fa: &FileAnalysis) -> Vec<Diagnostic> {
    let rel_path: &str = &fa.file.rel_path;
    let crate_dir = fa.file.crate_dir.as_deref();
    let allows = &fa.allows;
    let masked = &fa.masked;
    let mut diags = fa.marker_diags.clone();

    let deterministic = crate_dir.is_some_and(|d| DETERMINISTIC_CRATES.contains(&d));
    // L006 covers library code only: the crate's `src/` tree, minus
    // `#[cfg(test)]` items. Integration tests and benches may panic.
    let panic_free = crate_dir.is_some_and(|d| {
        PANIC_FREE_CRATES.contains(&d) && rel_path.starts_with(&format!("crates/{d}/src/"))
    });
    // L009: `unsafe` confinement is workspace-wide (tests included — an
    // unsafe block in a test is still unaudited unsafe code).
    let unsafe_allowed = UNSAFE_ALLOWLIST.contains(&rel_path);
    let in_test = &fa.in_test;
    let raw_lines: Vec<&str> = fa.file.source.lines().collect();

    for (idx, code) in masked.code_lines.iter().enumerate() {
        let line = idx + 1;

        // L001 — unordered collections in deterministic crates.
        if deterministic {
            for ty in ["HashMap", "HashSet"] {
                if contains_token(code, ty) && !allows.allows(line, Rule::L001) {
                    diags.push(Diagnostic {
                        file: rel_path.to_string(),
                        line,
                        rule: Rule::L001,
                        message: format!(
                            "`{ty}` in deterministic crate `{}` — iteration order can leak \
                             into results; use BTreeMap/BTreeSet or justify with \
                             `// kanon-lint: allow(L001) <reason>`",
                            crate_dir.unwrap_or_default()
                        ),
                    });
                }
            }
        }

        // L002 — NaN-unsafe comparisons.
        if contains_token(code, "partial_cmp") && !allows.allows(line, Rule::L002) {
            diags.push(Diagnostic {
                file: rel_path.to_string(),
                line,
                rule: Rule::L002,
                message: "`partial_cmp` is NaN-unsafe and non-total — use `total_cmp` \
                          (this bug class has reached output twice already)"
                    .to_string(),
            });
        }
        let mut search = 0;
        while let Some(pos) = code[search..].find("==").map(|p| p + search) {
            search = pos + 2;
            // Skip `!=`? We only look for `==`; also skip `<=`/`>=`-like
            // composites by requiring the char before not to be an operator
            // that merges with `=` (`=`, `!`, `<`, `>`, `+`…) — `==` itself
            // is fine, `===` does not exist in Rust.
            if pos > 0 && matches!(&code[pos - 1..pos], "=" | "!" | "<" | ">") {
                continue;
            }
            let (l, r) = operands_around(code, pos);
            if (looks_float(&l) || looks_float(&r)) && !allows.allows(line, Rule::L002) {
                diags.push(Diagnostic {
                    file: rel_path.to_string(),
                    line,
                    rule: Rule::L002,
                    message: format!(
                        "raw float `==` (`{l} == {r}`) — NaN-unsafe and rounding-brittle; \
                         compare with `total_cmp` or an explicit tolerance"
                    ),
                });
            }
        }

        // L006 — panicking calls in non-test code of panic-free crates.
        if panic_free && !in_test[idx] {
            let probes: [(&str, bool, &str); 3] = [
                ("unwrap", false, "`.unwrap()`"),
                ("expect", false, "`.expect(...)`"),
                ("panic", true, "`panic!`"),
            ];
            for (name, is_macro, label) in probes {
                let hit = if is_macro {
                    contains_macro(code, name)
                } else {
                    contains_call(code, name)
                };
                if hit && !allows.allows(line, Rule::L006) {
                    diags.push(Diagnostic {
                        file: rel_path.to_string(),
                        line,
                        rule: Rule::L006,
                        message: format!(
                            "{label} in panic-free crate `{}` — surface the failure as a \
                             typed error (CoreError/KanonError) or justify with \
                             `// kanon-lint: allow(L006) <reason>`",
                            crate_dir.unwrap_or_default()
                        ),
                    });
                }
            }
        }

        // L003 — KANON_* env reads outside the designated config point.
        let raw = raw_lines.get(idx).copied().unwrap_or_default();
        if code.contains("env::var") && raw.contains("KANON_") && !allows.allows(line, Rule::L003) {
            let designated = crate_dir.and_then(|d| {
                ENV_CONFIG_POINTS
                    .iter()
                    .find(|(c, _)| *c == d)
                    .map(|(_, p)| *p)
            });
            let in_point = match (crate_dir, designated) {
                (Some(d), Some(p)) => rel_path == format!("crates/{d}/{p}"),
                _ => false,
            };
            if !in_point {
                let hint = match designated {
                    Some(p) => format!("this crate's designated config point is `{p}`"),
                    None => "this crate has no designated config point; route the read \
                             through kanon-obs/kanon-parallel/kanon-core config fns"
                        .to_string(),
                };
                diags.push(Diagnostic {
                    file: rel_path.to_string(),
                    line,
                    rule: Rule::L003,
                    message: format!("`KANON_*` environment read outside config point — {hint}"),
                });
            }
        }

        // L009 — unsafe confinement. Outside the allowlist, any `unsafe`
        // token is a violation; inside it, `unsafe impl Send/Sync` must
        // carry a nearby safety argument. (`unsafe_code` in attributes
        // does not match: the `_` extends the token.)
        if contains_token(code, "unsafe") {
            if !unsafe_allowed {
                if !allows.allows(line, Rule::L009) {
                    diags.push(Diagnostic {
                        file: rel_path.to_string(),
                        line,
                        rule: Rule::L009,
                        message: format!(
                            "`unsafe` outside the audited allowlist ({}) — move the code \
                             behind the existing audited boundary or justify with \
                             `// kanon-lint: allow(L009) <reason>`",
                            UNSAFE_ALLOWLIST.join(", ")
                        ),
                    });
                }
            } else if code.contains("impl")
                && (contains_token(code, "Send") || contains_token(code, "Sync"))
            {
                // An audited `unsafe impl Send/Sync` needs its argument
                // in a comment on the impl or within the 6 lines above.
                let lo = idx.saturating_sub(6);
                let argued = masked.comment_lines[lo..=idx]
                    .iter()
                    .any(|c| c.to_ascii_lowercase().contains("safety"));
                if !argued && !allows.allows(line, Rule::L009) {
                    diags.push(Diagnostic {
                        file: rel_path.to_string(),
                        line,
                        rule: Rule::L009,
                        message: "`unsafe impl Send/Sync` without an adjacent safety argument \
                                  — state why the type is thread-safe in a `// SAFETY:` comment"
                            .to_string(),
                    });
                }
            }
        }
    }

    // L004 — root targets must forbid unsafe code at the crate level.
    if fa.file.is_root_target {
        let has = masked
            .code_lines
            .iter()
            .any(|l| l.replace(' ', "").contains("#![forbid(unsafe_code)]"));
        if !has && !allows.file_scope.contains(&Rule::L004) {
            diags.push(Diagnostic {
                file: rel_path.to_string(),
                line: 1,
                rule: Rule::L004,
                message: "crate root / binary lacks `#![forbid(unsafe_code)]`".to_string(),
            });
        }
    }
    diags
}

/// L004 on one root/binary file: the masked source must carry the
/// attribute (masking prevents a doc comment from satisfying the check).
pub fn lint_crate_root(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let masked = mask_source(src);
    let mut diags = Vec::new();
    let allows = parse_allows(rel_path, &masked, &mut diags);
    let has = masked
        .code_lines
        .iter()
        .any(|l| l.replace(' ', "").contains("#![forbid(unsafe_code)]"));
    if !has && !allows.file_scope.contains(&Rule::L004) {
        diags.push(Diagnostic {
            file: rel_path.to_string(),
            line: 1,
            rule: Rule::L004,
            message: "crate root / binary lacks `#![forbid(unsafe_code)]`".to_string(),
        });
    }
    diags
}

// ---------------------------------------------------------------------
// L005 — counter registry cross-check
// ---------------------------------------------------------------------

/// The obs counter registry: canonical variant names with the line each
/// was registered on (the `Counter::X => "name"` match arm).
#[derive(Debug, Default)]
pub struct CounterRegistry {
    /// Variant name → definition line in the registry file.
    pub variants: BTreeMap<String, usize>,
}

/// Parses one registry out of the obs crate source: every match arm of
/// the form `<enum_path>Variant => "snake_name"`. The `enum_path` token
/// is matched with an identifier boundary on its left, so the
/// deterministic `Counter::` scan does not swallow `RuntimeCounter::`
/// arms (and vice versa).
fn parse_registry(src: &str, enum_path: &str) -> CounterRegistry {
    let mut variants = BTreeMap::new();
    for (idx, line) in src.lines().enumerate() {
        let mut search = 0;
        while let Some(pos) = line[search..].find(enum_path).map(|p| p + search) {
            search = pos + enum_path.len();
            let boundary =
                pos == 0 || !is_ident_char(line[..pos].chars().next_back().unwrap_or(' '));
            if !boundary {
                continue;
            }
            let rest = &line[search..];
            let ident: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
            if ident.is_empty() {
                continue;
            }
            let after = &rest[ident.len()..];
            if after.trim_start().starts_with("=>") && after.contains('"') {
                variants.entry(ident).or_insert(idx + 1);
            }
        }
    }
    CounterRegistry { variants }
}

/// Parses the deterministic-counter registry (`Counter::Variant =>
/// "snake_name"` arms). These counters feed the thread-count-invariance
/// gates, so every one must be byte-identical at any `KANON_THREADS`.
pub fn parse_counter_registry(src: &str) -> CounterRegistry {
    parse_registry(src, "Counter::")
}

/// Parses the runtime-counter registry (`RuntimeCounter::Variant =>
/// "snake_name"` arms): scheduling telemetry (pool dispatches, park
/// wake-ups, thread spawns) that is legitimately thread-count-dependent
/// and therefore lives outside the determinism-compared block.
pub fn parse_runtime_counter_registry(src: &str) -> CounterRegistry {
    parse_registry(src, "RuntimeCounter::")
}

/// Shared scanner behind [`find_counter_increments`] and
/// [`find_runtime_counter_increments`]: occurrences of
/// `<call>(…<enum_path>Variant…)` on one line.
fn find_increments(masked: &Masked, call: &str, enum_path: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, code) in masked.code_lines.iter().enumerate() {
        let mut search = 0;
        while let Some(pos) = code[search..].find(call).map(|p| p + search) {
            search = pos + call.len();
            // Token check: `count(`, `kanon_obs::count(` — not `recount(`.
            let before_ok = pos == 0 || !is_ident_char(code[..pos].chars().next_back().unwrap());
            if !before_ok {
                continue;
            }
            let rest = &code[search..];
            if let Some(cpos) = rest.find(enum_path) {
                let boundary =
                    cpos == 0 || !is_ident_char(rest[..cpos].chars().next_back().unwrap_or(' '));
                if !boundary {
                    continue;
                }
                let ident: String = rest[cpos + enum_path.len()..]
                    .chars()
                    .take_while(|&c| is_ident_char(c))
                    .collect();
                if !ident.is_empty() {
                    out.push((idx + 1, ident));
                }
            }
        }
    }
    out
}

/// Extracts deterministic-counter increments from a masked file:
/// occurrences of `count(…Counter::Variant…)` on one line. Returns
/// `(line, variant)`.
pub fn find_counter_increments(masked: &Masked) -> Vec<(usize, String)> {
    find_increments(masked, "count(", "Counter::")
}

/// Extracts runtime-counter increments from a masked file: occurrences
/// of `count_runtime(…RuntimeCounter::Variant…)` on one line. Returns
/// `(line, variant)`.
pub fn find_runtime_counter_increments(masked: &Masked) -> Vec<(usize, String)> {
    find_increments(masked, "count_runtime(", "RuntimeCounter::")
}

// ---------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------

/// A workspace source file, classified for the rules.
pub struct WorkspaceFile {
    /// Workspace-relative path (forward slashes).
    pub rel_path: String,
    /// Crate directory under `crates/`, if any.
    pub crate_dir: Option<String>,
    /// Is this a crate root or binary target (L004 applies)?
    pub is_root_target: bool,
    /// File content.
    pub source: String,
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            // Fixture trees contain deliberate violations.
            if p.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            walk_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Collects every lintable source file of the workspace at `root`:
/// the root package's `src`/`tests`/`examples` and each crate's
/// `src`/`tests`/`benches`, skipping `vendor/` (external stand-ins),
/// `target/` and fixture trees.
pub fn collect_workspace(root: &Path) -> std::io::Result<Vec<WorkspaceFile>> {
    let mut files = Vec::new();
    let push_tree = |base: &Path, crate_dir: Option<&str>, files: &mut Vec<WorkspaceFile>| {
        let mut paths = Vec::new();
        walk_rs(base, &mut paths);
        for p in paths {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            let within = p
                .strip_prefix(base)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            let is_root_target = match crate_dir {
                // Crate layout: lib/main roots, explicit bins, bench targets.
                Some(_) => {
                    within == "src/lib.rs"
                        || within == "src/main.rs"
                        || within.starts_with("src/bin/")
                        || within.starts_with("benches/")
                }
                // Root package: only src/lib.rs (workspace tests/examples
                // are exercised via the library).
                None => within == "src/lib.rs",
            };
            if let Ok(source) = std::fs::read_to_string(&p) {
                files.push(WorkspaceFile {
                    rel_path: rel,
                    crate_dir: crate_dir.map(str::to_string),
                    is_root_target,
                    source,
                });
            }
        }
    };

    for sub in ["src", "tests", "examples"] {
        let base = root.join(sub);
        if base.is_dir() {
            // Classify relative to root so rel paths are right.
            let mut paths = Vec::new();
            walk_rs(&base, &mut paths);
            for p in paths {
                let rel = p
                    .strip_prefix(root)
                    .unwrap_or(&p)
                    .to_string_lossy()
                    .replace('\\', "/");
                if let Ok(source) = std::fs::read_to_string(&p) {
                    files.push(WorkspaceFile {
                        is_root_target: rel == "src/lib.rs",
                        rel_path: rel,
                        crate_dir: None,
                        source,
                    });
                }
            }
        }
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for d in dirs {
            let name = d
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .to_string();
            push_tree(&d, Some(&name), &mut files);
        }
    }
    Ok(files)
}

/// Analyzes every workspace file exactly once. The result feeds all
/// rules ([`lint_analyses`]) and the call-graph dump.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<FileAnalysis>> {
    Ok(collect_workspace(root)?
        .into_iter()
        .map(analyze_file)
        .collect())
}

/// Runs every rule over the workspace at `root` and returns the sorted
/// diagnostics. An empty result means the workspace lints clean.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let analyses = analyze_workspace(root)?;
    Ok(lint_analyses(root, &analyses))
}

/// Runs every rule over a pre-analyzed workspace: per-file rules from
/// each shared analysis, then the workspace cross-checks (L005) and the
/// call-graph rules (L008, L010). No file is scanned twice.
pub fn lint_analyses(root: &Path, analyses: &[FileAnalysis]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    for fa in analyses {
        diags.extend(file_rules(fa));
    }

    // L005: registries from the obs crate vs increments elsewhere. The
    // deterministic (`Counter`/`count`) and runtime
    // (`RuntimeCounter`/`count_runtime`) classes are cross-checked
    // separately: a runtime counter incremented via `count(` would leak
    // thread-scheduling noise into the determinism-compared block, and
    // the parsers' identifier-boundary checks keep the two registries
    // disjoint.
    let registry_path = "crates/obs/src/lib.rs";
    if let Some(obs) = analyses.iter().find(|fa| fa.file.rel_path == registry_path) {
        let classes = [
            ("Counter", parse_counter_registry(&obs.file.source), 0usize),
            (
                "RuntimeCounter",
                parse_runtime_counter_registry(&obs.file.source),
                1usize,
            ),
        ];
        for (enum_name, registry, class) in &classes {
            let mut incremented: BTreeMap<String, (String, usize)> = BTreeMap::new();
            for fa in analyses {
                if fa.file.crate_dir.as_deref() == Some("obs") {
                    continue; // obs's own unit tests are not instrumentation
                }
                let found = if *class == 0 {
                    find_counter_increments(&fa.masked)
                } else {
                    find_runtime_counter_increments(&fa.masked)
                };
                for (line, variant) in found {
                    if !registry.variants.contains_key(&variant) {
                        if !fa.allows.allows(line, Rule::L005) {
                            diags.push(Diagnostic {
                                file: fa.file.rel_path.clone(),
                                line,
                                rule: Rule::L005,
                                message: format!(
                                    "increment of `{enum_name}::{variant}` which is not in the \
                                     canonical registry ({registry_path})"
                                ),
                            });
                        }
                    } else {
                        incremented
                            .entry(variant)
                            .or_insert((fa.file.rel_path.clone(), line));
                    }
                }
            }
            for (variant, def_line) in &registry.variants {
                if !incremented.contains_key(variant) && !obs.allows.allows(*def_line, Rule::L005) {
                    diags.push(Diagnostic {
                        file: registry_path.to_string(),
                        line: *def_line,
                        rule: Rule::L005,
                        message: format!(
                            "counter `{variant}` is registered but never incremented outside \
                             the obs crate — dead registry entries hide missing instrumentation"
                        ),
                    });
                }
            }
        }
    } else {
        diags.push(Diagnostic {
            file: registry_path.to_string(),
            line: 1,
            rule: Rule::L005,
            message: "counter registry file not found".to_string(),
        });
    }

    // Graph rules: L010 walks the call graph; L008 reads the fault
    // catalogue plus the CI workflow text for coverage.
    let deps = graph::CrateDeps::load(root);
    let g = graph::CallGraph::build(analyses, &deps);
    let ci_text = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).ok();
    let report = graph::check_failpoints(analyses, ci_text.as_deref());
    diags.extend(report.diags);
    diags.extend(graph::check_determinism_taint(analyses, &g));

    diags.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    diags.dedup();
    diags
}

/// Ascends from `start` to the first directory whose `Cargo.toml` declares
/// a `[workspace]` — the root the binary lints by default.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_blanks_comments_and_strings() {
        let src = "let a = \"HashMap\"; // HashMap in comment\nlet b = 1;";
        let m = mask_source(src);
        assert!(!m.code_lines[0].contains("HashMap"));
        assert!(m.comment_lines[0].contains("HashMap in comment"));
        assert!(m.code_lines[1].contains("let b = 1;"));
    }

    #[test]
    fn masking_handles_raw_strings_and_chars() {
        let src = "let r = r#\"partial_cmp\"#; let c = '\"'; let l: &'static str = x;";
        let m = mask_source(src);
        assert!(!m.code_lines[0].contains("partial_cmp"));
        // The lifetime survives; the quote char literal does not unbalance
        // string state (code after it is still visible).
        assert!(m.code_lines[0].contains("'static"));
        assert!(m.code_lines[0].contains("str = x;"));
    }

    #[test]
    fn masking_handles_nested_block_comments() {
        let src = "/* outer /* inner HashSet */ still comment */ let x = HashSetLike;";
        let m = mask_source(src);
        assert!(!contains_token(&m.code_lines[0], "HashSet"));
        assert!(m.code_lines[0].contains("HashSetLike"));
    }

    #[test]
    fn token_matching_requires_boundaries() {
        assert!(contains_token("use std::collections::HashMap;", "HashMap"));
        assert!(!contains_token("MyHashMapLike", "HashMap"));
        assert!(contains_token("a.partial_cmp(b)", "partial_cmp"));
    }

    #[test]
    fn l001_fires_only_in_deterministic_crates() {
        let src = "use std::collections::HashMap;\n";
        assert!(lint_source("crates/algos/src/x.rs", Some("algos"), src)
            .iter()
            .any(|d| d.rule == Rule::L001));
        assert!(lint_source("crates/cli/src/main.rs", Some("cli"), src)
            .iter()
            .all(|d| d.rule != Rule::L001));
        assert!(lint_source("examples/demo.rs", None, src)
            .iter()
            .all(|d| d.rule != Rule::L001));
    }

    #[test]
    fn allow_marker_silences_with_reason_only() {
        let with_reason =
            "// kanon-lint: allow(L001) lookup-only, never iterated\nuse std::collections::HashMap;\n";
        assert!(lint_source("crates/core/src/x.rs", Some("core"), with_reason).is_empty());
        let trailing =
            "use std::collections::HashMap; // kanon-lint: allow(L001) lookup-only map\n";
        assert!(lint_source("crates/core/src/x.rs", Some("core"), trailing).is_empty());
        let no_reason = "// kanon-lint: allow(L001)\nuse std::collections::HashMap;\n";
        let diags = lint_source("crates/core/src/x.rs", Some("core"), no_reason);
        assert!(diags.iter().any(|d| d.message.contains("no reason")));
        assert!(
            diags.iter().any(|d| d.line == 2 && d.rule == Rule::L001),
            "unjustified marker must not silence the finding"
        );
    }

    #[test]
    fn l002_flags_partial_cmp_and_float_eq() {
        let src = "let o = a.partial_cmp(&b);\nif w == 0.5 { }\nif n == 5 { }\n";
        let diags = lint_source("crates/data/src/x.rs", Some("data"), src);
        assert_eq!(diags.iter().filter(|d| d.rule == Rule::L002).count(), 2);
        assert!(diags.iter().any(|d| d.line == 1));
        assert!(diags.iter().any(|d| d.line == 2));
    }

    #[test]
    fn l002_ignores_composite_operators_and_macros() {
        let src = "if a <= 0.5 { }\nassert_eq!(loss, 0.0);\nlet c = x.total_cmp(&y);\n";
        let diags = lint_source("crates/algos/src/x.rs", Some("algos"), src);
        assert!(diags.iter().all(|d| d.rule != Rule::L002), "{diags:?}");
    }

    #[test]
    fn l003_env_reads_only_in_config_points() {
        let src = "let t = std::env::var(\"KANON_THREADS\");\n";
        // Designated point: clean.
        assert!(lint_source("crates/parallel/src/lib.rs", Some("parallel"), src).is_empty());
        // Same read elsewhere: violation.
        assert!(lint_source("crates/algos/src/x.rs", Some("algos"), src)
            .iter()
            .any(|d| d.rule == Rule::L003));
        // Non-KANON env reads are out of scope.
        let other = "let p = std::env::var(\"PATH\");\n";
        assert!(lint_source("crates/algos/src/x.rs", Some("algos"), other).is_empty());
    }

    #[test]
    fn l004_requires_forbid_attribute() {
        assert!(lint_crate_root(
            "crates/x/src/lib.rs",
            "#![forbid(unsafe_code)]\nfn a() {}\n"
        )
        .is_empty());
        // A doc comment mentioning it does not count.
        let doc_only = "//! carries #![forbid(unsafe_code)] in prose only\nfn a() {}\n";
        assert!(lint_crate_root("crates/x/src/lib.rs", doc_only)
            .iter()
            .any(|d| d.rule == Rule::L004));
        // File-scoped allow with reason.
        let allowed = "// kanon-lint: allow(L004) generated shim, no unsafe possible\nfn a() {}\n";
        assert!(lint_crate_root("crates/x/src/lib.rs", allowed).is_empty());
    }

    #[test]
    fn l005_registry_roundtrip() {
        let obs = r#"
            pub enum Counter { A, B }
            impl Counter {
                pub const fn name(self) -> &'static str {
                    match self {
                        Counter::Alpha => "alpha",
                        Counter::Beta => "beta",
                    }
                }
            }
        "#;
        let reg = parse_counter_registry(obs);
        assert_eq!(reg.variants.keys().collect::<Vec<_>>(), ["Alpha", "Beta"]);
        let m = mask_source(
            "kanon_obs::count(kanon_obs::Counter::Alpha, 1);\ncount(Counter::Gamma, 2);\n",
        );
        let incs = find_counter_increments(&m);
        assert_eq!(
            incs,
            vec![(1, "Alpha".to_string()), (2, "Gamma".to_string())]
        );
    }

    #[test]
    fn l005_runtime_registry_is_disjoint_from_deterministic() {
        let obs = r#"
            impl Counter {
                pub const fn name(self) -> &'static str {
                    match self { Counter::Alpha => "alpha" }
                }
            }
            impl RuntimeCounter {
                pub const fn name(self) -> &'static str {
                    match self { RuntimeCounter::PoolParkWakes => "pool_park_wakes" }
                }
            }
        "#;
        // The `Counter::` scan must not swallow `RuntimeCounter::` arms.
        let det = parse_counter_registry(obs);
        assert_eq!(det.variants.keys().collect::<Vec<_>>(), ["Alpha"]);
        let rt = parse_runtime_counter_registry(obs);
        assert_eq!(rt.variants.keys().collect::<Vec<_>>(), ["PoolParkWakes"]);
        // Increment scans are class-specific: `count_runtime(` is not a
        // `count(` call, and vice versa.
        let m = mask_source(
            "count(Counter::Alpha, 1);\n\
             count_runtime(RuntimeCounter::PoolParkWakes, 2);\n\
             kanon_obs::count_runtime(kanon_obs::RuntimeCounter::PoolTasksDispatched, 3);\n",
        );
        assert_eq!(find_counter_increments(&m), vec![(1, "Alpha".to_string())]);
        assert_eq!(
            find_runtime_counter_increments(&m),
            vec![
                (2, "PoolParkWakes".to_string()),
                (3, "PoolTasksDispatched".to_string())
            ]
        );
    }

    #[test]
    fn l006_fires_on_panicking_calls_in_panic_free_crates() {
        let src = "let v = o.unwrap();\nlet w = r.expect(\"msg\");\npanic!(\"boom\");\n";
        let diags = lint_source("crates/algos/src/x.rs", Some("algos"), src);
        assert_eq!(diags.iter().filter(|d| d.rule == Rule::L006).count(), 3);
        // Out of scope: non-panic-free crates, tests/, and benches/.
        for (path, dir) in [
            ("crates/cli/src/main.rs", Some("cli")),
            ("crates/verify/src/x.rs", Some("verify")),
            ("crates/algos/tests/t.rs", Some("algos")),
            ("crates/algos/benches/b.rs", Some("algos")),
            ("examples/demo.rs", None),
        ] {
            let diags = lint_source(path, dir, src);
            assert!(diags.iter().all(|d| d.rule != Rule::L006), "{path}");
        }
    }

    #[test]
    fn l006_ignores_non_panicking_lookalikes() {
        let src = "let a = r.unwrap_err();\nlet b = r.expect_err(\"no\");\n\
                   let c = o.unwrap_or(1);\nlet d = o.unwrap_or_else(f);\n\
                   std::panic::panic_any(e);\nassert!(ok);\nlet p = std::panic::catch_unwind(f);\n";
        let diags = lint_source("crates/core/src/x.rs", Some("core"), src);
        assert!(diags.iter().all(|d| d.rule != Rule::L006), "{diags:?}");
    }

    #[test]
    fn l006_exempts_cfg_test_modules() {
        let src = "pub fn lib() -> u32 { 1 }\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                   helper().unwrap();\n        panic!(\"test-only\");\n    }\n}\n\
                   pub fn after() { tail.unwrap(); }\n";
        let diags = lint_source("crates/measures/src/x.rs", Some("measures"), src);
        let l006: Vec<_> = diags.iter().filter(|d| d.rule == Rule::L006).collect();
        // Only the `.unwrap()` after the test module fires.
        assert_eq!(l006.len(), 1, "{diags:?}");
        assert_eq!(l006[0].line, 10);
    }

    #[test]
    fn l006_allow_marker_with_reason_silences() {
        let src = "// kanon-lint: allow(L006) mutex poisoning is unrecoverable here\n\
                   let g = m.lock().unwrap();\n";
        let diags = lint_source("crates/data/src/x.rs", Some("data"), src);
        assert!(diags.is_empty(), "{diags:?}");
        let bare = "let g = m.lock().unwrap(); // kanon-lint: allow(L006)\n";
        let diags = lint_source("crates/data/src/x.rs", Some("data"), bare);
        assert!(diags.iter().any(|d| d.rule == Rule::L006 && d.line == 1));
    }

    #[test]
    fn test_code_lines_tracks_brace_depth() {
        let src = "fn a() { if x { y() } }\n#[cfg(test)]\nfn t() {\n  body();\n}\nfn b() {}\n";
        let marks = test_code_lines(&mask_source(src));
        assert!(!marks[0]);
        assert!(marks[1] && marks[2] && marks[3] && marks[4]);
        assert!(!marks[5]);
        // A brace-less gated item ends at the semicolon.
        let src = "#[cfg(test)]\nuse helpers::probe;\nfn real() { x.unwrap(); }\n";
        let marks = test_code_lines(&mask_source(src));
        assert!(marks[0] && marks[1]);
        assert!(!marks[2]);
    }

    #[test]
    fn diagnostic_format_is_machine_readable() {
        let d = Diagnostic {
            file: "crates/algos/src/forest.rs".into(),
            line: 213,
            rule: Rule::L001,
            message: "msg".into(),
        };
        assert_eq!(d.to_string(), "crates/algos/src/forest.rs:213: L001 msg");
    }
}
