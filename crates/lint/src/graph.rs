//! Cross-file symbol table and resolved call graph.
//!
//! [`CallGraph::build`] lifts the per-file structure from [`crate::scan`]
//! into a workspace-level model: every function definition with its
//! enclosing `impl` type, and every call site with its callee candidates
//! resolved by name. The resolver is deliberately
//! *conservative over-approximate* — still no `syn`, no type inference:
//!
//! - `Type::method(..)` resolves to functions of that name inside an
//!   `impl Type` (or `impl Trait for Type`) block.
//! - `module::func(..)` resolves to free functions defined in a file
//!   named `module.rs` (or `module/mod.rs`); unknown lowercase paths
//!   (`std::mem::take`, …) resolve to nothing rather than to a
//!   same-named workspace function.
//! - `self.method(..)` prefers the enclosing impl's own method; other
//!   `recv.method(..)` calls resolve to *every* dep-visible method of
//!   that name. For trait objects (`dyn MemSystem`) this lands on every
//!   implementor — exactly the over-approximation the reachability rule
//!   (D004) wants. Precise trait dispatch is documented out of scope.
//! - Plain `func(..)` resolves to free functions only (same file, then
//!   same crate, then dependency crates) — never to methods, so common
//!   names like `drop` cannot leak across the free/method boundary.
//!
//! Candidates are always filtered by the workspace's crate-dependency
//! relation (`crate_deps`): a call in `engine` can never resolve into
//! `lab`, so tooling-side wall-clock use cannot taint the sim path.

use std::collections::BTreeMap;

use crate::scan::{is_ident_char, match_paren};
use crate::Workspace;

/// One function definition, workspace-wide.
#[derive(Debug, Clone)]
pub struct FnSig {
    /// Index into `Workspace::files`.
    pub file: usize,
    /// Owning crate (same classification as [`crate::FileEntry`]).
    pub krate: String,
    /// Workspace-relative path of the defining file.
    pub rel: String,
    /// Function name.
    pub name: String,
    /// Enclosing `impl` self type, if any.
    pub self_ty: Option<String>,
    /// Byte offset of the `fn` keyword.
    pub start: usize,
    /// Byte offset just past the opening `{`.
    pub body_start: usize,
    /// Byte offset of the closing `}`.
    pub body_end: usize,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
    /// Test/bench/example code, or inside a `#[cfg(test)]` region.
    pub is_test: bool,
}

impl FnSig {
    /// `Type::name` when in an impl, bare `name` otherwise.
    pub fn qual_name(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the calling [`FnSig`].
    pub caller: usize,
    /// Callee name as written.
    pub name: String,
    /// Path segment directly before `::` (with `Self` already resolved
    /// to the caller's impl type), if path-qualified.
    pub qualifier: Option<String>,
    /// `recv.name(..)` form.
    pub is_method: bool,
    /// Method call whose receiver is literally `self`.
    pub recv_self: bool,
    /// Byte offset of the callee name.
    pub name_at: usize,
    /// Resolved candidate definitions (indices into `CallGraph::fns`).
    pub callees: Vec<usize>,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// Every function definition, in file order.
    pub fns: Vec<FnSig>,
    /// Every resolved-or-not call site.
    pub calls: Vec<CallSite>,
    /// Per function: indices into `calls` made from its body.
    pub calls_of: Vec<Vec<usize>>,
    /// Per function: indices of functions with a call site resolving to
    /// it (reverse edges, sorted, deduplicated).
    pub callers_of: Vec<Vec<usize>>,
    /// Function indices by bare name.
    pub by_name: BTreeMap<String, Vec<usize>>,
}

/// Direct dependencies (plus the crate itself) per workspace crate, by
/// the `crates/<name>` directory naming `Workspace` classification uses.
/// `None` means "unknown or depends on everything" — no filtering. Kept
/// in sync with the `Cargo.toml`s by a test in `tests/graph.rs`.
pub fn crate_deps(krate: &str) -> Option<&'static [&'static str]> {
    match krate {
        "engine" => Some(&["engine"]),
        "prof" => Some(&["prof"]),
        "lint" => Some(&["lint"]),
        "obs" => Some(&["obs", "engine"]),
        "mem" => Some(&["mem", "engine"]),
        "workloads" => Some(&["workloads", "engine"]),
        "net" => Some(&["net", "engine", "obs"]),
        "faults" => Some(&["faults", "engine", "obs"]),
        "svc" => Some(&["svc", "engine", "obs", "prof", "workloads"]),
        "proto" => Some(&["proto", "engine", "faults", "mem", "net", "obs", "prof"]),
        "core" => Some(&[
            "core",
            "engine",
            "faults",
            "mem",
            "net",
            "obs",
            "prof",
            "proto",
            "svc",
            "workloads",
        ]),
        // lab and the root harness pull in nearly everything; fixtures
        // and synthetic test crates are unknown. No filtering.
        _ => None,
    }
}

/// Rust keywords (plus `self`/`Self`) that can directly precede a `(`
/// without being a call.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "Self", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while", "yield",
];

impl CallGraph {
    /// Builds the symbol table and resolves every call site.
    pub fn build(ws: &Workspace) -> CallGraph {
        let mut fns: Vec<FnSig> = Vec::new();
        // Per file: indices into `fns`.
        let mut file_fns: Vec<Vec<usize>> = Vec::with_capacity(ws.files.len());

        for (fi, entry) in ws.files.iter().enumerate() {
            let impls = entry.file.impls();
            let mut here = Vec::new();
            for f in entry.file.fns() {
                let self_ty = impls
                    .iter()
                    .filter(|im| im.body_start <= f.start && f.start < im.body_end)
                    .max_by_key(|im| im.body_start)
                    .map(|im| im.ty.clone());
                here.push(fns.len());
                fns.push(FnSig {
                    file: fi,
                    krate: entry.krate.clone(),
                    rel: entry.file.rel.clone(),
                    name: f.name,
                    self_ty,
                    start: f.start,
                    body_start: f.body_start,
                    body_end: f.body_end,
                    line: entry.file.line_of(f.start),
                    is_test: entry.is_test_code || entry.file.in_test_region(f.start),
                });
            }
            file_fns.push(here);
        }

        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }

        // Extract and attribute call sites.
        let mut calls: Vec<CallSite> = Vec::new();
        let mut calls_of: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for (fi, entry) in ws.files.iter().enumerate() {
            for mut raw in extract_calls(&entry.file.masked) {
                // Innermost function whose body contains the name.
                let Some(&caller) = file_fns[fi]
                    .iter()
                    .filter(|&&i| fns[i].body_start <= raw.name_at && raw.name_at < fns[i].body_end)
                    .max_by_key(|&&i| fns[i].body_start)
                else {
                    continue; // macro definition body, const initializer, …
                };
                if raw.qualifier.as_deref() == Some("Self") {
                    raw.qualifier = fns[caller].self_ty.clone();
                }
                raw.caller = caller;
                calls_of[caller].push(calls.len());
                calls.push(raw);
            }
        }

        // Resolve.
        let mut callers_of: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for call in &mut calls {
            call.callees = resolve(&fns, &by_name, call);
            for &callee in &call.callees {
                callers_of[callee].push(call.caller);
            }
        }
        for v in &mut callers_of {
            v.sort_unstable();
            v.dedup();
        }

        CallGraph {
            fns,
            calls,
            calls_of,
            callers_of,
            by_name,
        }
    }
}

/// Scans a masked file for `ident(` call shapes. `caller` and `callees`
/// are filled in by [`CallGraph::build`].
fn extract_calls(masked: &str) -> Vec<CallSite> {
    let b = masked.as_bytes();
    let mut out = Vec::new();
    for p in 0..b.len() {
        if b[p] != b'(' {
            continue;
        }
        let mut s = p;
        while s > 0 && is_ident_char(b[s - 1]) {
            s -= 1;
        }
        if s == p || b[s].is_ascii_digit() {
            continue; // `if (`, `!(`, macro `name!(`, tuple `.0(`, …
        }
        let name = &masked[s..p];
        if KEYWORDS.contains(&name) {
            continue;
        }
        let prev = if s > 0 { b[s - 1] } else { 0 };
        let mut qualifier = None;
        let mut is_method = false;
        let mut recv_self = false;
        if prev == b'.' {
            is_method = true;
            let e2 = s - 1;
            let mut s2 = e2;
            while s2 > 0 && is_ident_char(b[s2 - 1]) {
                s2 -= 1;
            }
            if &masked[s2..e2] == "self" && (s2 == 0 || b[s2 - 1] != b'.') {
                recv_self = true;
            }
        } else if prev == b':' && s >= 2 && b[s - 2] == b':' {
            let e2 = s - 2;
            let mut s2 = e2;
            while s2 > 0 && is_ident_char(b[s2 - 1]) {
                s2 -= 1;
            }
            if s2 < e2 {
                qualifier = Some(masked[s2..e2].to_string());
            } else {
                continue; // turbofish `>::`, qualified path `<T as X>::`
            }
        } else if masked[..s].trim_end().ends_with("fn") {
            continue; // a definition, not a call
        }
        if match_paren(masked, p).is_none() {
            continue;
        }
        out.push(CallSite {
            caller: usize::MAX,
            name: name.to_string(),
            qualifier,
            is_method,
            recv_self,
            name_at: s,
            callees: Vec::new(),
        });
    }
    out
}

/// Resolves one call site to candidate definitions. See the module docs
/// for the (deliberately conservative) strategy.
fn resolve(fns: &[FnSig], by_name: &BTreeMap<String, Vec<usize>>, call: &CallSite) -> Vec<usize> {
    let Some(all) = by_name.get(&call.name) else {
        return Vec::new();
    };
    let caller = &fns[call.caller];
    let deps = crate_deps(&caller.krate);
    let cands: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&i| match deps {
            Some(d) => d.contains(&fns[i].krate.as_str()),
            None => true,
        })
        .collect();

    if let Some(q) = &call.qualifier {
        if q.starts_with(|c: char| c.is_ascii_uppercase()) {
            // `Type::func(..)` — definitions inside `impl Type`.
            return cands
                .into_iter()
                .filter(|&i| fns[i].self_ty.as_deref() == Some(q.as_str()))
                .collect();
        }
        // `module::func(..)` — free functions in a file named after the
        // module.
        let file_rs = format!("/{q}.rs");
        let file_mod = format!("/{q}/mod.rs");
        let in_module: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| {
                fns[i].self_ty.is_none()
                    && (fns[i].rel.ends_with(&file_rs) || fns[i].rel.ends_with(&file_mod))
            })
            .collect();
        if !in_module.is_empty() {
            return in_module;
        }
        // `crate::f` / `super::f` / `pimdsm_x::f` reach free functions
        // through re-exports; unknown lowercase paths (std modules like
        // `mem::`, `cmp::`) resolve to nothing.
        return if q == "crate" || q == "super" {
            cands
                .into_iter()
                .filter(|&i| fns[i].self_ty.is_none() && fns[i].krate == caller.krate)
                .collect()
        } else if q.starts_with("pimdsm") {
            cands
                .into_iter()
                .filter(|&i| fns[i].self_ty.is_none())
                .collect()
        } else {
            Vec::new()
        };
    }

    if call.is_method {
        let methods: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| fns[i].self_ty.is_some())
            .collect();
        if call.recv_self {
            if let Some(ty) = &caller.self_ty {
                let own: Vec<usize> = methods
                    .iter()
                    .copied()
                    .filter(|&i| fns[i].self_ty.as_deref() == Some(ty.as_str()))
                    .collect();
                if !own.is_empty() {
                    return own;
                }
            }
        }
        return methods;
    }

    // Plain call: free functions only — same file, then same crate, then
    // any dependency crate.
    let free: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| fns[i].self_ty.is_none())
        .collect();
    let same_file: Vec<usize> = free
        .iter()
        .copied()
        .filter(|&i| fns[i].file == caller.file)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let same_crate: Vec<usize> = free
        .iter()
        .copied()
        .filter(|&i| fns[i].krate == caller.krate)
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    free
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn ws(sources: &[(&str, &str, &str)]) -> Workspace {
        let mut ws = Workspace::empty(std::path::Path::new("/x"));
        for (rel, krate, src) in sources {
            ws.add_source_as(
                PathBuf::from(format!("/x/{rel}")),
                (*rel).to_string(),
                (*src).to_string(),
                krate,
            );
        }
        ws
    }

    #[test]
    fn cross_module_free_calls_resolve_within_crate() {
        let w = ws(&[
            (
                "crates/proto/src/a.rs",
                "proto",
                "pub fn caller() { helper(1); other::helper(2); }\nfn helper(_x: u32) {}\n",
            ),
            (
                "crates/proto/src/other.rs",
                "proto",
                "pub fn helper(_x: u32) {}\n",
            ),
        ]);
        let g = CallGraph::build(&w);
        let caller = g.by_name["caller"][0];
        let sites: Vec<&CallSite> = g.calls_of[caller].iter().map(|&c| &g.calls[c]).collect();
        assert_eq!(sites.len(), 2);
        // Plain call prefers the same file.
        assert_eq!(sites[0].callees.len(), 1);
        assert_eq!(g.fns[sites[0].callees[0]].rel, "crates/proto/src/a.rs");
        // Module-qualified call resolves cross-module.
        assert_eq!(sites[1].callees.len(), 1);
        assert_eq!(g.fns[sites[1].callees[0]].rel, "crates/proto/src/other.rs");
    }

    #[test]
    fn dependency_filter_blocks_non_dep_crates() {
        let w = ws(&[
            (
                "crates/engine/src/a.rs",
                "engine",
                "pub fn tick() { helper(); }\n",
            ),
            ("crates/lab/src/b.rs", "lab", "pub fn helper() {}\n"),
        ]);
        let g = CallGraph::build(&w);
        let tick = g.by_name["tick"][0];
        let site = &g.calls[g.calls_of[tick][0]];
        assert!(
            site.callees.is_empty(),
            "engine does not depend on lab: {site:?}"
        );
    }

    #[test]
    fn method_calls_over_approximate_and_self_calls_stay_local() {
        let w = ws(&[(
            "crates/proto/src/a.rs",
            "proto",
            "impl A { fn run(&mut self) { self.step(); } fn step(&mut self) {} }\n\
             impl B { fn step(&mut self) {} fn kick(&mut self, a: &mut A) { a.step(); } }\n",
        )]);
        let g = CallGraph::build(&w);
        let run = g.by_name["run"][0];
        let self_call = &g.calls[g.calls_of[run][0]];
        assert_eq!(self_call.callees.len(), 1, "self.step() binds to impl A");
        assert_eq!(g.fns[self_call.callees[0]].self_ty.as_deref(), Some("A"));
        // `a.step()` has no receiver type info: trait-object style
        // over-approximation resolves to every visible `step` method.
        let kick = g.by_name["kick"][0];
        let other = &g.calls[g.calls_of[kick][0]];
        assert_eq!(other.callees.len(), 2, "{other:?}");
    }

    #[test]
    fn recursion_and_mutual_recursion_build_cycles() {
        let w = ws(&[(
            "crates/proto/src/a.rs",
            "proto",
            "fn even(n: u64) -> bool { if n == 0 { true } else { odd(n - 1) } }\n\
             fn odd(n: u64) -> bool { if n == 0 { false } else { even(n - 1) } }\n\
             fn down(n: u64) { if n > 0 { down(n - 1) } }\n",
        )]);
        let g = CallGraph::build(&w);
        let down = g.by_name["down"][0];
        assert_eq!(g.callers_of[down], vec![down], "self-recursion edge");
        let even = g.by_name["even"][0];
        let odd = g.by_name["odd"][0];
        assert_eq!(g.callers_of[even], vec![odd]);
        assert_eq!(g.callers_of[odd], vec![even]);
    }

    #[test]
    fn qualified_std_paths_resolve_to_nothing() {
        let w = ws(&[(
            "crates/mem/src/take.rs",
            "mem",
            "pub fn take(_x: u32) {}\npub fn user() { std::mem::take(&mut 3); }\n",
        )]);
        let g = CallGraph::build(&w);
        let user = g.by_name["user"][0];
        let site = &g.calls[g.calls_of[user][0]];
        // `mem::` is a std module here, not `crates/mem`; the module
        // filter requires a file named `mem.rs`, so no candidates.
        assert!(site.callees.is_empty(), "{site:?}");
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let w = ws(&[(
            "crates/proto/src/a.rs",
            "proto",
            "fn f(v: &[u32]) -> u32 { if (v.len()) > 0 { assert!(true); return v[0]; } 0 }\n",
        )]);
        let g = CallGraph::build(&w);
        let f = g.by_name["f"][0];
        let names: Vec<&str> = g.calls_of[f]
            .iter()
            .map(|&c| g.calls[c].name.as_str())
            .collect();
        assert_eq!(names, vec!["len"], "{names:?}");
    }

    #[test]
    fn calls_in_nested_fns_attribute_to_the_inner_fn() {
        let w = ws(&[(
            "crates/proto/src/a.rs",
            "proto",
            "fn outer() { fn inner() { leaf(); } inner(); }\nfn leaf() {}\n",
        )]);
        let g = CallGraph::build(&w);
        let inner = g.by_name["inner"][0];
        let outer = g.by_name["outer"][0];
        let leaf = g.by_name["leaf"][0];
        assert_eq!(g.callers_of[leaf], vec![inner]);
        assert_eq!(g.callers_of[inner], vec![outer]);
    }
}
