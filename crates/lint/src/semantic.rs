//! The graph-level rule, the one analysis that needs the cross-file call
//! graph: **D004**, determinism-taint propagation. Wall-clock reads,
//! ambient randomness, environment reads, thread identity, `{:p}`
//! formatting and pointer-to-integer casts taint a function; taint
//! propagates to transitive callers over the call graph. Any tainted
//! function in a [`SIM_CRATES`](crate::SIM_CRATES) crate is an error —
//! this is what closes D002's loophole of nondeterminism reached
//! *through* a helper in an exempt crate.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::graph::CallGraph;
use crate::rules::{find_pattern, is_sim};
use crate::scan::{find_keyword, is_ident_char};
use crate::{Diagnostic, Workspace};

/// Patterns whose mere presence in a body taints the function.
const D004_PATTERNS: &[&str] = &[
    "Instant::now",
    "SystemTime",
    "thread_rng",
    "rand::random",
    "RandomState",
    "env::var",
    "env::vars",
    "env::args",
    "thread::current",
    "ThreadId",
];

const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// A pointer-to-integer cast inside one statement: `.. as *const T ..
/// as usize` — addresses vary run to run, so any value derived this way
/// is nondeterministic.
fn ptr_int_cast(body: &str) -> Option<usize> {
    for pat in ["as *const", "as *mut"] {
        for at in find_pattern(body, pat) {
            let stmt_end = body[at..].find(';').map_or(body.len(), |p| at + p);
            let rest = &body[at + pat.len()..stmt_end];
            for a in find_keyword(rest, "as") {
                let after = rest[a + 2..].trim_start();
                let ident: String = after
                    .chars()
                    .take_while(|&c| is_ident_char(c as u8))
                    .collect();
                if INT_TYPES.contains(&ident.as_str()) {
                    return Some(at);
                }
            }
        }
    }
    None
}

/// D004 — determinism-taint propagation. See the module docs.
pub fn d004(ws: &Workspace, g: &CallGraph) -> Vec<Diagnostic> {
    // Direct sources: description of the first pattern hit per function.
    let mut source: BTreeMap<usize, String> = BTreeMap::new();
    for (i, f) in g.fns.iter().enumerate() {
        let file = &ws.files[f.file].file;
        let body = &file.masked[f.body_start..f.body_end];
        if let Some((pat, at)) = D004_PATTERNS
            .iter()
            .filter_map(|pat| find_pattern(body, pat).first().map(|&a| (*pat, a)))
            .min_by_key(|&(_, a)| a)
        {
            source.insert(
                i,
                format!("`{pat}` at {}:{}", f.rel, file.line_of(f.body_start + at)),
            );
            continue;
        }
        if let Some(s) = file
            .strings
            .iter()
            .find(|s| s.offset >= f.body_start && s.offset < f.body_end && s.value.contains(":p}"))
        {
            source.insert(
                i,
                format!(
                    "`{{:p}}` pointer formatting at {}:{}",
                    f.rel,
                    file.line_of(s.offset)
                ),
            );
            continue;
        }
        if let Some(at) = ptr_int_cast(body) {
            source.insert(
                i,
                format!(
                    "pointer-to-integer cast at {}:{}",
                    f.rel,
                    file.line_of(f.body_start + at)
                ),
            );
        }
    }

    // Propagate taint up the reverse call edges (deterministic order).
    let mut tainted: BTreeSet<usize> = source.keys().copied().collect();
    let mut via: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: VecDeque<usize> = tainted.iter().copied().collect();
    while let Some(f) = queue.pop_front() {
        for &caller in &g.callers_of[f] {
            if tainted.insert(caller) {
                via.insert(caller, f);
                queue.push_back(caller);
            }
        }
    }

    let mut out = Vec::new();
    for &i in &tainted {
        let f = &g.fns[i];
        if !is_sim(&f.krate) || f.is_test {
            continue;
        }
        let mut chain = vec![i];
        let mut cur = i;
        while let Some(&next) = via.get(&cur) {
            chain.push(next);
            cur = next;
        }
        let path = chain
            .iter()
            .map(|&j| format!("`{}`", g.fns[j].qual_name()))
            .collect::<Vec<_>>()
            .join(" -> ");
        out.push(Diagnostic {
            rule: "D004",
            rel: f.rel.clone(),
            line: f.line,
            msg: format!(
                "`{}` in simulation crate `{}` is determinism-tainted: {path} reaches {} — thread simulated cycles / pimdsm_engine::rng through instead",
                f.qual_name(),
                f.krate,
                source[&cur]
            ),
        });
    }
    out
}
