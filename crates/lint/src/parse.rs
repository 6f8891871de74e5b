//! A lightweight, zero-dependency Rust *item* parser: just enough
//! structure — functions, impls, modules, and the calls inside each
//! function body — to build the workspace call graph behind rule L010
//! (determinism taint). No `syn`.
//!
//! The input is masked source ([`crate::mask_source`]), so braces,
//! parens and identifiers inside strings or comments are invisible and
//! can never skew the scope stack. This is deliberately not a grammar:
//! attributes, generics and signatures are skipped structurally;
//! everything else is a brace-balanced scope stack
//! (`mod`/`impl`/`trait`/`fn`/block). The recovered shape — which `fn`
//! contains which call sites — is exactly what the graph rules need.

use crate::{is_ident_char, Masked};

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// 1-based line of the call.
    pub line: usize,
    /// Path segments as written: `["helper"]`, `["crate", "try_x"]`,
    /// `["kanon_algos", "fallible", "catch"]`. Methods have one segment.
    pub path: Vec<String>,
    /// Was this a method call (`recv.name(…)`)?
    pub method: bool,
}

/// A parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based line of the closing brace (or of the `;` for body-less
    /// trait declarations).
    pub end_line: usize,
    /// Enclosing `mod` names, outermost first.
    pub module_path: Vec<String>,
    /// The `impl`'d type (or trait, for default methods) if this is a
    /// method; `None` for free functions.
    pub impl_of: Option<String>,
    /// Declared inside `#[cfg(test)]` scope, or in a `tests/` /
    /// `benches/` / `examples/` tree.
    pub in_test: bool,
    /// Call sites in the body, in source order.
    pub calls: Vec<CallSite>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Punct(char),
    Num,
}

struct Spanned {
    tok: Tok,
    line: usize,
}

/// Flattens masked code lines into a token stream with line numbers.
/// Numeric literals (including the dots of floats) collapse into a
/// single [`Tok::Num`], so `1.0.max(x)` does not read as a field access
/// chain.
fn tokenize(masked: &Masked) -> Vec<Spanned> {
    let mut out = Vec::new();
    for (idx, code) in masked.code_lines.iter().enumerate() {
        let line = idx + 1;
        let chars: Vec<char> = code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_ascii_digit() {
                i += 1;
                while i < chars.len()
                    && (is_ident_char(chars[i])
                        || (chars[i] == '.'
                            && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())))
                {
                    i += 1;
                }
                out.push(Spanned {
                    tok: Tok::Num,
                    line,
                });
            } else if is_ident_char(c) {
                let start = i;
                while i < chars.len() && is_ident_char(chars[i]) {
                    i += 1;
                }
                out.push(Spanned {
                    tok: Tok::Ident(chars[start..i].iter().collect()),
                    line,
                });
            } else {
                out.push(Spanned {
                    tok: Tok::Punct(c),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

enum Scope {
    Mod(String),
    Impl(Option<String>),
    Fn(usize),
    Block,
}

/// Is a `>` at token index `j` the tail of a `->` arrow (and therefore
/// not a closing angle bracket)?
fn is_arrow_tail(toks: &[Spanned], j: usize) -> bool {
    j > 0 && matches!(toks[j - 1].tok, Tok::Punct('-'))
}

/// Parses the `fn` items of one file. `in_test_lines` is the
/// [`crate::test_code_lines`] mark vector for the same masked source;
/// `rel_path` decides whether the whole file is test-scoped.
pub fn parse_items(rel_path: &str, masked: &Masked, in_test_lines: &[bool]) -> Vec<FnItem> {
    let path_is_test = rel_path.contains("/tests/")
        || rel_path.contains("/benches/")
        || rel_path.contains("/examples/")
        || rel_path.starts_with("tests/")
        || rel_path.starts_with("benches/")
        || rel_path.starts_with("examples/");
    let line_in_test =
        |line: usize| -> bool { in_test_lines.get(line - 1).copied().unwrap_or(false) };

    let toks = tokenize(masked);
    let n = toks.len();
    let mut items: Vec<FnItem> = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut i = 0;

    while i < n {
        match &toks[i].tok {
            // Attributes: `#[…]` / `#![…]` — skip balanced brackets so
            // `#[derive(Debug)]` or `#[cfg(test)]` never read as calls.
            Tok::Punct('#') => {
                let mut j = i + 1;
                if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('!'))) {
                    j += 1;
                }
                if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('['))) {
                    let mut depth = 0i32;
                    while j < n {
                        match toks[j].tok {
                            Tok::Punct('[') => depth += 1,
                            Tok::Punct(']') => {
                                depth -= 1;
                                if depth == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    i = j;
                } else {
                    i += 1;
                }
            }
            Tok::Punct('{') => {
                scopes.push(Scope::Block);
                i += 1;
            }
            Tok::Punct('}') => {
                if let Some(Scope::Fn(idx)) = scopes.pop() {
                    items[idx].end_line = toks[i].line;
                }
                i += 1;
            }
            Tok::Punct(_) | Tok::Num => {
                i += 1;
            }
            Tok::Ident(id) => match id.as_str() {
                // `pub(crate)` etc.: skip the restriction so its parens
                // never read as a call.
                "pub" => {
                    if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('('))) {
                        let mut j = i + 1;
                        let mut depth = 0i32;
                        while j < n {
                            match toks[j].tok {
                                Tok::Punct('(') => depth += 1,
                                Tok::Punct(')') => {
                                    depth -= 1;
                                    if depth == 0 {
                                        j += 1;
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            j += 1;
                        }
                        i = j;
                    } else {
                        i += 1;
                    }
                }
                // Function modifiers (`pub const fn`,
                // `pub unsafe extern "C" fn`, …) precede the `fn` item.
                "async" | "unsafe" | "extern" | "default" | "const" => {
                    i += 1;
                }
                "fn" => {
                    // An item needs a name; `fn(u32) -> u32` is a
                    // fn-pointer type, not an item.
                    if let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) {
                        let decl_line = toks[i].line;
                        let module_path: Vec<String> = scopes
                            .iter()
                            .filter_map(|s| match s {
                                Scope::Mod(m) => Some(m.clone()),
                                _ => None,
                            })
                            .collect();
                        let impl_of = scopes
                            .iter()
                            .rev()
                            .find_map(|s| match s {
                                Scope::Impl(t) => Some(t.clone()),
                                _ => None,
                            })
                            .flatten();
                        // Signature scan: to the body `{` or the `;` of a
                        // body-less declaration, ignoring delimiters nested
                        // in parens/brackets/generics (`[u8; 4]`, `-> T`).
                        let mut j = i + 2;
                        let (mut par, mut brk, mut ang) = (0i32, 0i32, 0i32);
                        let mut opened = false;
                        let mut end_line = decl_line;
                        while j < n {
                            match toks[j].tok {
                                Tok::Punct('(') => par += 1,
                                Tok::Punct(')') => par -= 1,
                                Tok::Punct('[') => brk += 1,
                                Tok::Punct(']') => brk -= 1,
                                Tok::Punct('<') if par == 0 && brk == 0 => ang += 1,
                                Tok::Punct('>')
                                    if par == 0
                                        && brk == 0
                                        && ang > 0
                                        && !is_arrow_tail(&toks, j) =>
                                {
                                    ang -= 1;
                                }
                                Tok::Punct('{') if par == 0 && brk == 0 && ang == 0 => {
                                    opened = true;
                                    end_line = toks[j].line;
                                    j += 1;
                                    break;
                                }
                                Tok::Punct(';') if par == 0 && brk == 0 && ang == 0 => {
                                    end_line = toks[j].line;
                                    j += 1;
                                    break;
                                }
                                _ => {}
                            }
                            j += 1;
                        }
                        let item_idx = items.len();
                        items.push(FnItem {
                            name: name.clone(),
                            line: decl_line,
                            end_line,
                            module_path,
                            impl_of,
                            in_test: path_is_test || line_in_test(decl_line),
                            calls: Vec::new(),
                        });
                        if opened {
                            scopes.push(Scope::Fn(item_idx));
                        }
                        i = j;
                    } else {
                        i += 1;
                    }
                }
                "mod" => {
                    if let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) {
                        if matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct('{'))) {
                            scopes.push(Scope::Mod(name.clone()));
                            i += 3;
                        } else {
                            i += 2;
                        }
                    } else {
                        i += 1;
                    }
                }
                "impl" | "trait" => {
                    let is_impl = id == "impl";
                    let mut j = i + 1;
                    let mut ang = 0i32;
                    let mut first: Option<String> = None;
                    let mut after_for: Option<String> = None;
                    let mut saw_for = false;
                    let mut opened = false;
                    while j < n {
                        match &toks[j].tok {
                            Tok::Punct('<') => ang += 1,
                            Tok::Punct('>') if ang > 0 && !is_arrow_tail(&toks, j) => {
                                ang -= 1;
                            }
                            Tok::Punct('{') if ang == 0 => {
                                opened = true;
                                j += 1;
                                break;
                            }
                            Tok::Punct(';') if ang == 0 => {
                                j += 1;
                                break;
                            }
                            Tok::Ident(w) if ang == 0 => {
                                if w == "for" {
                                    saw_for = true;
                                } else if w == "where" {
                                    saw_for = false;
                                } else if saw_for && after_for.is_none() {
                                    after_for = Some(w.clone());
                                } else if first.is_none() {
                                    first = Some(w.clone());
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    // `impl Trait for Type` → Type; `impl Type` → Type;
                    // `trait Name` → Name (default methods count as its
                    // methods).
                    let subject = if is_impl { after_for.or(first) } else { first };
                    if opened {
                        scopes.push(Scope::Impl(subject));
                    }
                    i = j;
                }
                // Consume type declarations to `{` or `;`, so tuple-struct
                // parens (`struct Foo(u32);`) never read as calls.
                "struct" | "enum" | "union" => {
                    let mut j = i + 1;
                    let mut ang = 0i32;
                    while j < n {
                        match toks[j].tok {
                            Tok::Punct('<') => ang += 1,
                            Tok::Punct('>') if ang > 0 && !is_arrow_tail(&toks, j) => {
                                ang -= 1;
                            }
                            Tok::Punct('{') if ang == 0 => {
                                scopes.push(Scope::Block);
                                j += 1;
                                break;
                            }
                            Tok::Punct(';') if ang == 0 => {
                                j += 1;
                                break;
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    i = j;
                }
                "use" => {
                    while i < n && !matches!(toks[i].tok, Tok::Punct(';')) {
                        i += 1;
                    }
                }
                // Keywords that may be followed by `(` without being calls.
                "let" | "if" | "else" | "match" | "while" | "loop" | "return" | "break"
                | "continue" | "in" | "ref" | "move" | "as" | "where" | "dyn" | "mut"
                | "static" | "type" | "await" | "box" | "yield" => {
                    i += 1;
                }
                _ => {
                    // Path gathering: `a::b::c`, optional turbofish, then
                    // `(` = call, `!` = macro (not recorded).
                    let method = i > 0 && matches!(toks[i - 1].tok, Tok::Punct('.'));
                    let mut segs = vec![id.clone()];
                    let mut j = i + 1;
                    loop {
                        let colons = matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct(':')))
                            && matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Punct(':')));
                        if !colons {
                            break;
                        }
                        match toks.get(j + 2).map(|t| &t.tok) {
                            Some(Tok::Ident(next)) => {
                                segs.push(next.clone());
                                j += 3;
                            }
                            Some(Tok::Punct('<')) => {
                                // Turbofish `::<…>` — skip the balanced angles.
                                let mut ang = 0i32;
                                let mut k = j + 2;
                                while k < n {
                                    match toks[k].tok {
                                        Tok::Punct('<') => ang += 1,
                                        Tok::Punct('>') if !is_arrow_tail(&toks, k) => {
                                            ang -= 1;
                                            if ang == 0 {
                                                k += 1;
                                                break;
                                            }
                                        }
                                        _ => {}
                                    }
                                    k += 1;
                                }
                                j = k;
                                break;
                            }
                            _ => {
                                j += 2;
                                break;
                            }
                        }
                    }
                    let next = toks.get(j).map(|t| &t.tok);
                    let is_macro = matches!(next, Some(Tok::Punct('!')));
                    let is_call = matches!(next, Some(Tok::Punct('(')));
                    if is_call && !is_macro {
                        if let Some(Scope::Fn(idx)) =
                            scopes.iter().rev().find(|s| matches!(s, Scope::Fn(_)))
                        {
                            items[*idx].calls.push(CallSite {
                                line: toks[i].line,
                                path: segs,
                                method,
                            });
                        }
                    }
                    i = j;
                }
            },
        }
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mask_source, test_code_lines};

    fn parse(rel: &str, src: &str) -> Vec<FnItem> {
        let masked = mask_source(src);
        let marks = test_code_lines(&masked);
        parse_items(rel, &masked, &marks)
    }

    #[test]
    fn free_fn_with_calls() {
        let src = "pub fn alpha(x: u32) -> u32 {\n    helper(x);\n    crate::fallible::catch(x)\n}\npub(crate) fn beta() {}\nfn gamma() {}\n";
        let items = parse("crates/a/src/x.rs", src);
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].name, "alpha");
        assert_eq!(items[0].line, 1);
        assert_eq!(items[0].end_line, 4);
        assert_eq!(
            items[0].calls,
            vec![
                CallSite {
                    line: 2,
                    path: vec!["helper".into()],
                    method: false
                },
                CallSite {
                    line: 3,
                    path: vec!["crate".into(), "fallible".into(), "catch".into()],
                    method: false
                },
            ]
        );
        assert_eq!(items[1].name, "beta");
        assert_eq!(items[1].calls, vec![]);
        assert_eq!(items[2].name, "gamma");
    }

    #[test]
    fn impl_methods_and_trait_for() {
        let src = "struct S;\nimpl S {\n    pub fn new() -> S { S }\n}\nimpl std::fmt::Display for S {\n    fn fmt(&self) { inner() }\n}\ntrait T {\n    fn required(&self);\n    fn provided(&self) { self.required() }\n}\n";
        let items = parse("crates/a/src/x.rs", src);
        let new = items.iter().find(|f| f.name == "new").unwrap();
        assert_eq!(new.impl_of.as_deref(), Some("S"));
        let fmt = items.iter().find(|f| f.name == "fmt").unwrap();
        assert_eq!(fmt.impl_of.as_deref(), Some("S"));
        let req = items.iter().find(|f| f.name == "required").unwrap();
        assert_eq!(req.impl_of.as_deref(), Some("T"));
        assert_eq!(req.end_line, req.line); // body-less
        let prov = items.iter().find(|f| f.name == "provided").unwrap();
        assert_eq!(
            prov.calls,
            vec![CallSite {
                line: 10,
                path: vec!["required".into()],
                method: true
            }]
        );
    }

    #[test]
    fn generics_and_turbofish() {
        let src = "pub fn gen<T: Iterator<Item = u32>>(x: T) -> Vec<u32> {\n    x.collect::<Vec<u32>>();\n    parse::<u32>(y)\n}\n";
        let items = parse("crates/a/src/x.rs", src);
        assert_eq!(items.len(), 1);
        let calls = &items[0].calls;
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].path, vec!["collect".to_string()]);
        assert!(calls[0].method);
        assert_eq!(calls[1].path, vec!["parse".to_string()]);
        assert!(!calls[1].method);
    }

    #[test]
    fn tuple_structs_and_fn_pointers_are_not_calls() {
        let src = "struct Wrap(u32);\npub enum E { A(u32), B }\ntype F = fn(u32) -> u32;\nfn real() { Wrap(1); }\n";
        let items = parse("crates/a/src/x.rs", src);
        // Only `real` is an item; the constructor call inside it is real.
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "real");
        assert_eq!(items[0].calls.len(), 1);
        assert_eq!(items[0].calls[0].path, vec!["Wrap".to_string()]);
    }

    #[test]
    fn macros_are_not_calls_but_their_args_are() {
        let src = "fn f() {\n    assert_eq!(probe(x), 1);\n    vec![g()];\n}\n";
        let items = parse("crates/a/src/x.rs", src);
        let names: Vec<&str> = items[0]
            .calls
            .iter()
            .map(|c| c.path.last().unwrap().as_str())
            .collect();
        assert_eq!(names, ["probe", "g"]);
    }

    #[test]
    fn module_paths_and_cfg_test_scope() {
        let src = "mod outer {\n    mod inner {\n        pub fn deep() {}\n    }\n}\n#[cfg(test)]\nmod tests {\n    fn probe() { target() }\n}\nfn top() {}\n";
        let items = parse("crates/a/src/x.rs", src);
        let deep = items.iter().find(|f| f.name == "deep").unwrap();
        assert_eq!(deep.module_path, ["outer", "inner"]);
        assert!(!deep.in_test);
        let probe = items.iter().find(|f| f.name == "probe").unwrap();
        assert!(probe.in_test);
        let top = items.iter().find(|f| f.name == "top").unwrap();
        assert!(!top.in_test);
    }

    #[test]
    fn test_tree_paths_mark_everything_test() {
        let src = "pub fn probe() { real_entry() }\n";
        assert!(parse("crates/a/tests/t.rs", src)[0].in_test);
        assert!(parse("tests/cli.rs", src)[0].in_test);
        assert!(parse("crates/a/benches/b.rs", src)[0].in_test);
        assert!(!parse("crates/a/src/lib.rs", src)[0].in_test);
    }

    #[test]
    fn attributes_never_read_as_calls() {
        let src = "#[derive(Debug, Clone)]\n#[cfg_attr(test, allow(dead_code))]\nstruct S;\nfn f() { real() }\n";
        let items = parse("crates/a/src/x.rs", src);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].calls.len(), 1);
        assert_eq!(items[0].calls[0].path, vec!["real".to_string()]);
    }

    #[test]
    fn fn_modifiers_precede_items() {
        let src = "pub const fn c() {}\npub unsafe fn u() {}\npub async fn a() {}\n";
        let items = parse("crates/a/src/x.rs", src);
        let names: Vec<&str> = items.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["c", "u", "a"], "{items:?}");
    }

    #[test]
    fn closures_and_nested_blocks_attribute_to_enclosing_fn() {
        let src = "fn outer() {\n    let c = || { inner_call() };\n    match x {\n        _ => branch_call(),\n    }\n}\n";
        let items = parse("crates/a/src/x.rs", src);
        let names: Vec<&str> = items[0]
            .calls
            .iter()
            .map(|c| c.path.last().unwrap().as_str())
            .collect();
        assert_eq!(names, ["inner_call", "branch_call"]);
    }
}
