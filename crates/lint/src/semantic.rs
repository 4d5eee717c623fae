//! Graph-level rules: the analyses that need the cross-file call graph.
//!
//! - **T002** — interprocedural `Txn` escape analysis. A `Txn` is a
//!   latency walk in flight; the paper's breakdown figures only sum to
//!   the totals if every walk reaches `.finish(..)`. T001 checks one
//!   function body; T002 follows the transaction across calls: by-value
//!   `Txn` parameters must be sunk, every `Txn`-producing call site must
//!   be consumed (finished, forwarded to a finishing callee, or
//!   returned), and no struct may store a `Txn` (a walk is atomic and
//!   belongs to the access that started it; a stored one outlives that
//!   access, so its cycles land in no access's breakdown or in a later,
//!   unrelated one).
//! - **D004** — determinism-taint propagation. Wall-clock reads,
//!   ambient randomness, environment reads, thread identity, `{:p}`
//!   formatting and pointer-to-integer casts taint a function; taint
//!   propagates to transitive callers over the call graph. Any tainted
//!   function in a [`SIM_CRATES`] crate is an error — this is what
//!   closes D002's loophole of nondeterminism reached *through* a
//!   helper in an exempt crate.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::graph::{CallGraph, CallSite, FnSig, SelfKind};
use crate::rules::find_pattern;
use crate::scan::{find_keyword, is_ident_char, match_paren};
use crate::{Diagnostic, Workspace, SIM_CRATES};

fn is_sim(krate: &str) -> bool {
    SIM_CRATES.contains(&krate)
}

/// A by-value `Txn`-carrying type (`Txn`, `Option<Txn>`, …); `&`/`&mut`
/// borrows are explicitly *not* ownership and carry no finish duty.
fn is_txn_ty(ty: &str) -> bool {
    let t = ty.trim();
    !t.starts_with('&') && !find_keyword(t, "Txn").is_empty()
}

fn masked_of<'a>(ws: &'a Workspace, f: &FnSig) -> &'a str {
    &ws.files[f.file].file.masked
}

// ---------------------------------------------------------------- T002

/// Functions that *sink* the by-value `Txn`s handed to them: the
/// designated sink is `Txn::finish`, and the set closes over functions
/// that forward/return their transaction into the set (fixpoint, so
/// recursion cycles that never reach `finish` stay outside).
fn txn_sinks(ws: &Workspace, g: &CallGraph) -> BTreeSet<usize> {
    let mut sinks: BTreeSet<usize> = g
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            f.name == "finish"
                && f.self_ty.as_deref() == Some("Txn")
                && f.self_kind == SelfKind::Value
        })
        .map(|(i, _)| i)
        .collect();
    loop {
        let mut changed = false;
        for (i, f) in g.fns.iter().enumerate() {
            if sinks.contains(&i) {
                continue;
            }
            let txn_params: Vec<&str> = f
                .params
                .iter()
                .filter(|p| is_txn_ty(&p.ty))
                .map(|p| p.name.as_str())
                .collect();
            if txn_params.is_empty() {
                continue;
            }
            if txn_params
                .iter()
                .all(|p| var_is_sunk(ws, g, i, p, f.body_start, &sinks))
            {
                sinks.insert(i);
                changed = true;
            }
        }
        if !changed {
            return sinks;
        }
    }
}

/// Whether `var` (a binding holding a by-value `Txn`) is sunk somewhere
/// in `f`'s body at/after `from`: `var.finish(..)`, forwarded bare to a
/// sinking callee's by-value `Txn` parameter, receiver of a by-value
/// sink method, or returned (function's return type carries `Txn`).
fn var_is_sunk(
    ws: &Workspace,
    g: &CallGraph,
    f_idx: usize,
    var: &str,
    from: usize,
    sinks: &BTreeSet<usize>,
) -> bool {
    let f = &g.fns[f_idx];
    let masked = masked_of(ws, f);
    let body = &masked[from..f.body_end];

    let occurrences = find_keyword(body, var);
    if occurrences.is_empty() {
        return false;
    }
    // `var.finish(` — allowing whitespace around the dot.
    for &at in &occurrences {
        if follows_method_call(body, at + var.len(), "finish") {
            return true;
        }
    }
    // Returned onward: the caller's caller owns the consumption duty
    // (checked at that call site by the produced-Txn analysis).
    if is_txn_ty(&f.ret) {
        for ret in find_keyword(body, "return") {
            let stmt_end = body[ret..].find(';').map_or(body.len(), |p| ret + p);
            if !find_keyword(&body[ret..stmt_end], var).is_empty() {
                return true;
            }
        }
        // Trailing-expression return: `var` in the body's final
        // statement (no `;` between it and the closing brace).
        if let Some(&last) = occurrences.last() {
            if !body[last + var.len()..].contains(';') {
                return true;
            }
        }
    }
    // Forwarded bare into a sinking callee.
    for &ci in &g.calls_of[f_idx] {
        let call = &g.calls[ci];
        if call.name_at < from {
            continue;
        }
        // Receiver of a by-value sink method (`var.seal(..)` style).
        if call.is_method
            && receiver_ident(masked, call) == Some(var)
            && call
                .callees
                .iter()
                .any(|c| sinks.contains(c) && g.fns[*c].self_kind == SelfKind::Value)
        {
            return true;
        }
        for (pos, (_, text)) in g.call_args(masked, call).iter().enumerate() {
            if *text != var {
                continue;
            }
            if call.callees.iter().any(|&c| {
                sinks.contains(&c) && g.fns[c].params.get(pos).is_some_and(|p| is_txn_ty(&p.ty))
            }) {
                return true;
            }
        }
    }
    false
}

/// The identifier receiving a method call (`recv.name(..)`), if plain.
fn receiver_ident<'a>(masked: &'a str, call: &CallSite) -> Option<&'a str> {
    let b = masked.as_bytes();
    if !call.is_method || call.name_at == 0 {
        return None;
    }
    let dot = call.name_at - 1;
    let mut s = dot;
    while s > 0 && is_ident_char(b[s - 1]) {
        s -= 1;
    }
    if s == dot || (s > 0 && b[s - 1] == b'.') {
        return None;
    }
    Some(&masked[s..dot])
}

/// Whether, starting right after a binding/expression at `after`, the
/// next tokens are `.method(` for the given method (whitespace allowed).
fn follows_method_call(text: &str, mut after: usize, method: &str) -> bool {
    let b = text.as_bytes();
    while after < b.len() && (b[after] as char).is_whitespace() {
        after += 1;
    }
    if after >= b.len() || b[after] != b'.' {
        return false;
    }
    after += 1;
    while after < b.len() && (b[after] as char).is_whitespace() {
        after += 1;
    }
    if !text[after..].starts_with(method) {
        return false;
    }
    after += method.len();
    // `(` must follow immediately (modulo whitespace): `.finish_all(`
    // leaves an ident char here and correctly fails to match.
    while after < b.len() && (b[after] as char).is_whitespace() {
        after += 1;
    }
    after < b.len() && b[after] == b'('
}

/// Walks a method chain after a call's closing paren; true if some link
/// is `.finish(..)`.
fn chain_reaches_finish(masked: &str, mut at: usize) -> bool {
    let b = masked.as_bytes();
    loop {
        while at < b.len() && ((b[at] as char).is_whitespace() || b[at] == b'?') {
            at += 1;
        }
        if at >= b.len() || b[at] != b'.' {
            return false;
        }
        at += 1;
        while at < b.len() && (b[at] as char).is_whitespace() {
            at += 1;
        }
        let s = at;
        while at < b.len() && is_ident_char(b[at]) {
            at += 1;
        }
        if s == at {
            return false;
        }
        let name = &masked[s..at];
        while at < b.len() && (b[at] as char).is_whitespace() {
            at += 1;
        }
        if at >= b.len() || b[at] != b'(' {
            continue; // field access link — keep walking the chain
        }
        let Some(close) = match_paren(masked, at) else {
            return false;
        };
        if name == "finish" {
            return true;
        }
        at = close + 1;
    }
}

/// T002 — interprocedural Txn escape analysis. See the module docs.
pub fn t002(ws: &Workspace, g: &CallGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let sinks = txn_sinks(ws, g);
    let txn_returning: BTreeSet<usize> = g
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| is_txn_ty(&f.ret))
        .map(|(i, _)| i)
        .collect();

    // (a) By-value Txn parameters must be sunk.
    for (i, f) in g.fns.iter().enumerate() {
        if !is_sim(&f.krate) || f.is_test {
            continue;
        }
        for p in f.params.iter().filter(|p| is_txn_ty(&p.ty)) {
            if !var_is_sunk(ws, g, i, &p.name, f.body_start, &sinks) {
                out.push(Diagnostic {
                    rule: "T002",
                    rel: f.rel.clone(),
                    line: f.line,
                    msg: format!(
                        "by-value `Txn` parameter `{}` of `{}` never reaches .finish(...) on any call-graph path: the walk's span, statistics and latency breakdown are dropped when it goes out of scope",
                        p.name,
                        f.qual_name()
                    ),
                });
            }
        }
    }

    // (b) Every Txn-producing call site must be consumed.
    for call in &g.calls {
        let caller = &g.fns[call.caller];
        if !is_sim(&caller.krate) || caller.is_test {
            continue;
        }
        let file = &ws.files[caller.file].file;
        if file.in_test_region(call.name_at) {
            continue;
        }
        let produces = call.callees.iter().any(|c| txn_returning.contains(c))
            || (call.qualifier.as_deref() == Some("Txn") && call.name == "start");
        if !produces {
            continue;
        }
        if !call_result_consumed(ws, g, call, &sinks) {
            out.push(Diagnostic {
                rule: "T002",
                rel: caller.rel.clone(),
                line: file.line_of(call.name_at),
                msg: format!(
                    "the `Txn` produced by `{}` in `{}` is dropped without reaching .finish(...): finish it, forward it to a finishing callee, or return it to the caller",
                    call.name,
                    caller.qual_name()
                ),
            });
        }
    }

    // (c) No struct stores a Txn: a walk is atomic and belongs to the
    // access that started it, so a stored one books its cycles late or
    // never.
    for entry in &ws.files {
        if !is_sim(&entry.krate) || entry.is_test_code {
            continue;
        }
        for (name, bs, be) in entry.file.struct_spans() {
            if name == "Txn" || entry.file.in_test_region(bs) {
                continue;
            }
            for at in find_keyword(&entry.file.masked[bs..be], "Txn") {
                out.push(Diagnostic {
                    rule: "T002",
                    rel: entry.file.rel.clone(),
                    line: entry.file.line_of(bs + at),
                    msg: format!(
                        "struct `{name}` stores a `Txn`: latency walks must complete within the event that started them — store the finished `Access` instead"
                    ),
                });
            }
        }
    }
    out
}

/// Consumption analysis for one Txn-producing call site.
fn call_result_consumed(
    ws: &Workspace,
    g: &CallGraph,
    call: &CallSite,
    sinks: &BTreeSet<usize>,
) -> bool {
    let caller = &g.fns[call.caller];
    let masked = masked_of(ws, caller);
    let b = masked.as_bytes();

    // The producing callee may itself be the sink (`x.finish(..)`).
    if call.callees.iter().any(|c| sinks.contains(c)) {
        return true;
    }
    // `Txn::start(..).probe(..).finish(..)` chains.
    if chain_reaches_finish(masked, call.close + 1) {
        return true;
    }

    // Where does the expression start (include receiver / qualifier)?
    let mut expr_start = call.name_at;
    if let Some(q) = &call.qualifier {
        expr_start = expr_start.saturating_sub(q.len() + 2);
    }
    if call.is_method {
        // Walk back over the receiver chain conservatively: treat the
        // method result as the statement's expression.
        let mut s = call.name_at - 1; // the `.`
        while s > 0 && (is_ident_char(b[s - 1]) || b[s - 1] == b'.') {
            s -= 1;
        }
        expr_start = s;
    }

    // Statement head: text from the previous `;`/`{`/`}` to the expr.
    let stmt_start = masked[..expr_start]
        .rfind([';', '{', '}'])
        .map_or(caller.body_start, |p| p + 1);
    let head = masked[stmt_start.max(caller.body_start)..expr_start].trim();

    // `let [mut] v [: T] = <call>` — track the binding onward.
    if let Some(rest) = head.strip_prefix("let").map(str::trim_start) {
        if head.ends_with('=') {
            let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
            let var: String = rest
                .chars()
                .take_while(|&c| is_ident_char(c as u8))
                .collect();
            if !var.is_empty() && var != "_" {
                return var_is_sunk(ws, g, call.caller, &var, call.close, sinks);
            }
            return false; // `let _ = Txn::start(..)` — an explicit drop
        }
    }
    // Reassignment `v = <call>` of a plain local.
    if head.ends_with('=') && !head.ends_with("==") {
        let lhs = head[..head.len() - 1].trim_end();
        if !lhs.is_empty() && lhs.bytes().all(is_ident_char) {
            return var_is_sunk(ws, g, call.caller, lhs, call.close, sinks);
        }
        return false; // `self.field = Txn::start(..)` — an escape
    }
    // `return <call>` — the produced Txn flows to our own caller, whose
    // call site is checked in turn.
    if head.ends_with("return") || head.contains("return ") {
        return true;
    }
    // Argument position: `outer(.., <call>, ..)` — consumed only when
    // the enclosing call sinks a by-value Txn at this position.
    if head.ends_with('(') || head.ends_with(',') {
        // Innermost enclosing call: the candidate with the latest `(`.
        let outer = g.calls_of[call.caller]
            .iter()
            .map(|&ci| &g.calls[ci])
            .filter(|c| c.paren < expr_start && c.close > call.close)
            .max_by_key(|c| c.paren);
        let Some(outer) = outer else {
            return false;
        };
        let args = g.call_args(masked, outer);
        let Some(pos) = args
            .iter()
            .position(|(off, text)| *off <= expr_start && expr_start < *off + text.len())
        else {
            return false;
        };
        return outer.callees.iter().any(|&c| {
            sinks.contains(&c) && g.fns[c].params.get(pos).is_some_and(|p| is_txn_ty(&p.ty))
        });
    }
    // Bare statement `Txn::start(..);` drops the walk.
    let mut after = call.close + 1;
    while after < b.len() && (b[after] as char).is_whitespace() {
        after += 1;
    }
    if after < b.len() && b[after] == b';' && head.is_empty() {
        return false;
    }
    // Trailing expression / match scrutinee / other composite shapes:
    // treat as consumed when the function returns a Txn, otherwise be
    // conservative and accept (T001 still covers the body-level check).
    true
}

// ---------------------------------------------------------------- D004

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
