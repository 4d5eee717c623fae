//! The rule set.
//!
//! Every rule has a stable ID, emits `file:line` diagnostics, and honors
//! the `// pimdsm-lint: allow(<rule>, "<reason>")` escape hatch (applied
//! by the driver in [`crate::run_all`], not here).

use std::collections::BTreeSet;

use crate::scan::{find_keyword, is_ident_char, match_paren, split_args, SourceFile};
use crate::{Diagnostic, Workspace, SIM_CRATES};

/// Rule table: `(id, one-line description)` — the contract DESIGN.md
/// documents and `pimdsm-lint --list` prints.
pub const RULES: &[(&str, &str)] = &[
    (
        "D001",
        "no unordered collections (HashMap/HashSet) in simulation crates; use BTreeMap/BTreeSet/Vec",
    ),
    (
        "D002",
        "no wall-clock or ambient randomness (Instant::now, SystemTime, thread_rng, RandomState) outside tooling and test code",
    ),
    (
        "D003",
        "no BinaryHeap in simulation crates (use the engine's EventQueue); arena `slab` fields must expose iter_deterministic()",
    ),
    (
        "D004",
        "determinism taint: wall-clock/randomness/env/thread-id/pointer-derived values must not reach simulation crates through any call chain",
    ),
    (
        "S001",
        "every pub stats field must appear in both to_json and from_json of its struct",
    ),
    (
        "O001",
        "every trace event name/category emitted must be registered in pimdsm-obs (and vice versa)",
    ),
    (
        "P001",
        "every prof::phase!(...) name must be registered in pimdsm-prof's phase registry (and vice versa)",
    ),
    (
        "L000",
        "pimdsm-lint directives themselves must be well-formed: allow(<RULE>, \"reason\") naming a rule in this table",
    ),
];

/// Crates whose `src/` is simulation path: a nondeterministic collection
/// here can leak into simulated time.
pub(crate) fn is_sim(krate: &str) -> bool {
    SIM_CRATES.contains(&krate)
}

/// Crates allowed to read wall clocks / entropy: the lab orchestrator
/// (including its `bench` timer), the host-side profiler (its wall times
/// live in explicitly non-deterministic fields), the analyzer itself, and
/// the offline proptest shim.
fn d002_exempt(krate: &str) -> bool {
    matches!(krate, "lab" | "prof" | "lint" | "proptest-shim")
}

/// D001 — unordered collections in simulation crates.
pub fn d001(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for entry in &ws.files {
        if !is_sim(&entry.krate) || entry.is_test_code {
            continue;
        }
        for pat in ["HashMap", "HashSet"] {
            for off in find_keyword(&entry.file.masked, pat) {
                if entry.file.in_test_region(off) {
                    continue;
                }
                out.push(Diagnostic {
                    rule: "D001",
                    rel: entry.file.rel.clone(),
                    line: entry.file.line_of(off),
                    msg: format!(
                        "unordered `{pat}` in simulation crate `{}`: iteration order is per-process random and can leak into simulated time; use BTreeMap/BTreeSet/Vec",
                        entry.krate
                    ),
                });
            }
        }
    }
    out
}

/// D002 — wall-clock time and ambient randomness outside tooling.
pub fn d002(ws: &Workspace) -> Vec<Diagnostic> {
    const PATTERNS: &[&str] = &[
        "Instant::now",
        "SystemTime",
        "thread_rng",
        "rand::random",
        "RandomState",
    ];
    let mut out = Vec::new();
    for entry in &ws.files {
        if d002_exempt(&entry.krate) || entry.is_test_code {
            continue;
        }
        for pat in PATTERNS {
            for off in find_pattern(&entry.file.masked, pat) {
                if entry.file.in_test_region(off) {
                    continue;
                }
                out.push(Diagnostic {
                    rule: "D002",
                    rel: entry.file.rel.clone(),
                    line: entry.file.line_of(off),
                    msg: format!(
                        "`{pat}` in crate `{}`: wall-clock time and ambient randomness are nondeterministic; thread simulated cycles / pimdsm_engine::rng through instead",
                        entry.krate
                    ),
                });
            }
        }
    }
    out
}

/// D003 — hot-path data-structure discipline in simulation crates.
///
/// Two checks. (a) No `BinaryHeap`: equal-priority pops come out in
/// heap-shape order (insertion-history dependent), and its per-push node
/// churn allocates on the hottest simulator path —
/// `pimdsm_engine::EventQueue` (a sorted `Vec` with FIFO ties among
/// equal times) is the replacement. (b) A file that declares
/// an arena (a field named `slab`) must expose an `iter_deterministic()`
/// accessor: slab sweeps otherwise tempt callers into ad-hoc orders
/// (free-list order, occupancy order) that leak insertion history into
/// simulated time.
pub fn d003(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for entry in &ws.files {
        if !is_sim(&entry.krate) || entry.is_test_code {
            continue;
        }
        for off in find_keyword(&entry.file.masked, "BinaryHeap") {
            if entry.file.in_test_region(off) {
                continue;
            }
            out.push(Diagnostic {
                rule: "D003",
                rel: entry.file.rel.clone(),
                line: entry.file.line_of(off),
                msg: format!(
                    "`BinaryHeap` in simulation crate `{}`: equal-priority pops depend on heap shape and every push allocates; use pimdsm_engine::EventQueue (deterministic time order, FIFO ties, no allocation once at peak depth)",
                    entry.krate
                ),
            });
        }
        let slab_uses: Vec<usize> = find_keyword(&entry.file.masked, "slab")
            .into_iter()
            .filter(|&off| !entry.file.in_test_region(off))
            .collect();
        if !slab_uses.is_empty() && !entry.file.masked.contains("iter_deterministic(") {
            out.push(Diagnostic {
                rule: "D003",
                rel: entry.file.rel.clone(),
                line: entry.file.line_of(slab_uses[0]),
                msg: format!(
                    "arena `slab` in simulation crate `{}` has no `iter_deterministic()` accessor: without one canonical index order, slab sweeps leak insertion history into simulated time",
                    entry.krate
                ),
            });
        }
    }
    out
}

/// S001 — report-schema sync: every `pub` field of a struct that has both
/// a `to_json` and a `from_json` in its defining file must be mentioned
/// in *both* bodies (as the field identifier or the `"field"` JSON key).
/// Catches the silently-dropped-on-cache-re-render class.
pub fn s001(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for entry in &ws.files {
        if entry.is_test_code {
            continue;
        }
        let file = &entry.file;
        let structs = file.pub_structs();
        if structs.is_empty() {
            continue;
        }
        let impls = file.impls();
        let fns = file.fns();
        for st in &structs {
            let body_of = |fn_name: &str| -> Option<(usize, usize)> {
                fns.iter()
                    .find(|f| {
                        f.name == fn_name
                            && impls.iter().any(|im| {
                                im.ty == st.name
                                    && f.start >= im.body_start
                                    && f.body_end <= im.body_end
                            })
                    })
                    .map(|f| (f.body_start, f.body_end))
            };
            let (Some(to), Some(from)) = (body_of("to_json"), body_of("from_json")) else {
                continue;
            };
            for field in &st.pub_fields {
                for (what, (bs, be)) in [("to_json", to), ("from_json", from)] {
                    let mentioned = !find_keyword(&file.masked[bs..be], field).is_empty()
                        || file
                            .strings
                            .iter()
                            .any(|s| s.offset >= bs && s.offset < be && s.value == *field);
                    if !mentioned {
                        out.push(Diagnostic {
                            rule: "S001",
                            rel: file.rel.clone(),
                            line: file.line_of(bs),
                            msg: format!(
                                "field `{}` of `{}` is not handled in {what}: it would be silently dropped on a report round-trip (cache re-render)",
                                field, st.name
                            ),
                        });
                    }
                }
            }
        }
    }
    out
}

/// O001 — trace-event registry sync.
///
/// Every event name / category a simulation crate passes to
/// `Tracer::span` / `Tracer::instant` must be registered in
/// `pimdsm_obs::trace::registry` (where the consumers — trace filters,
/// suite assertions, Perfetto queries — look them up), and every
/// registered entry must actually be emitted somewhere. A typo'd
/// category would otherwise vanish silently from every filter.
pub fn o001(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Some((categories, names)) = load_registry(ws) else {
        out.push(Diagnostic {
            rule: "O001",
            rel: "crates/obs/src/trace.rs".into(),
            line: 1,
            msg: "trace registry (registry::CATEGORIES / registry::EVENT_NAMES) not found in pimdsm-obs"
                .into(),
        });
        return out;
    };

    let mut emitted_cats: BTreeSet<String> = BTreeSet::new();
    let mut emitted_names: BTreeSet<String> = BTreeSet::new();

    for entry in &ws.files {
        if !is_sim(&entry.krate) || entry.is_test_code {
            continue;
        }
        let file = &entry.file;
        let fns = file.fns();
        for needle in [".span(", ".instant("] {
            let mut search = 0usize;
            while let Some(rel_off) = file.masked[search..].find(needle) {
                let at = search + rel_off;
                let open = at + needle.len() - 1;
                search = open + 1;
                if file.in_test_region(at) {
                    continue;
                }
                let Some(close) = match_paren(&file.masked, open) else {
                    continue;
                };
                let args = split_args(&file.masked[open + 1..close]);
                // span(pid, tid, name, cat, ts, dur, args) /
                // instant(pid, tid, name, cat, ts, args).
                if args.len() < 4 {
                    continue;
                }
                for (idx, registry, kind) in
                    [(2usize, &names, "event name"), (3, &categories, "category")]
                {
                    let (arg_off, arg_text) = args[idx];
                    let abs = open + 1 + arg_off;
                    match literal_in(file, abs, abs + arg_text.len()) {
                        Some(value) => {
                            if registry.contains(&value) {
                                if kind == "category" {
                                    emitted_cats.insert(value);
                                } else {
                                    emitted_names.insert(value);
                                }
                            } else {
                                out.push(Diagnostic {
                                    rule: "O001",
                                    rel: file.rel.clone(),
                                    line: file.line_of(abs),
                                    msg: format!(
                                        "trace {kind} \"{value}\" is not registered in pimdsm_obs::trace::registry — it would silently escape every trace filter"
                                    ),
                                });
                            }
                        }
                        None => {
                            // Non-literal argument (e.g. a `match`-selected
                            // category): fall back to checking every
                            // dotted literal in the enclosing function.
                            let span = fns
                                .iter()
                                .filter(|f| f.body_start <= at && at < f.body_end)
                                .map(|f| (f.body_start, f.body_end))
                                .next_back();
                            if let Some((bs, be)) = span {
                                for s in &file.strings {
                                    if s.offset < bs || s.offset >= be || !is_dotted(&s.value) {
                                        continue;
                                    }
                                    if categories.contains(&s.value) {
                                        emitted_cats.insert(s.value.clone());
                                    } else if names.contains(&s.value) {
                                        emitted_names.insert(s.value.clone());
                                    } else {
                                        out.push(Diagnostic {
                                            rule: "O001",
                                            rel: file.rel.clone(),
                                            line: file.line_of(s.offset),
                                            msg: format!(
                                                "trace literal \"{}\" near a non-literal {kind} argument is not registered in pimdsm_obs::trace::registry",
                                                s.value
                                            ),
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        // Literals emitted anywhere in sim src count toward the converse
        // check even when passed through helpers (e.g. handler_name).
        for s in &file.strings {
            if file.in_test_region(s.offset) {
                continue;
            }
            if categories.contains(&s.value) {
                emitted_cats.insert(s.value.clone());
            }
            if names.contains(&s.value) {
                emitted_names.insert(s.value.clone());
            }
        }
    }

    for (registry, emitted, kind) in [
        (&categories, &emitted_cats, "category"),
        (&names, &emitted_names, "event name"),
    ] {
        for value in registry.iter() {
            if !emitted.contains(value) {
                out.push(Diagnostic {
                    rule: "O001",
                    rel: "crates/obs/src/trace.rs".into(),
                    line: 1,
                    msg: format!(
                        "registered trace {kind} \"{value}\" is never emitted by any simulation crate (stale registry entry)"
                    ),
                });
            }
        }
    }
    out
}

/// P001 — profiling-phase registry sync.
///
/// `pimdsm_prof::phase!` panics at runtime on a name missing from
/// `pimdsm_prof::phase::registry::PHASES` — this rule moves that failure
/// to lint time, and conversely flags registered phases no non-test code
/// ever enters (stale entries that would clutter every bench document).
pub fn p001(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Some(phases) = load_phase_registry(ws) else {
        out.push(Diagnostic {
            rule: "P001",
            rel: "crates/prof/src/phase.rs".into(),
            line: 1,
            msg: "phase registry (registry::PHASES) not found in pimdsm-prof".into(),
        });
        return out;
    };

    let mut entered: BTreeSet<String> = BTreeSet::new();
    const NEEDLE: &str = "phase!(";
    for entry in &ws.files {
        // The prof crate holds the macro definition, the registry itself,
        // and doc examples — not real instrumentation sites.
        if entry.krate == "prof" || entry.is_test_code {
            continue;
        }
        let file = &entry.file;
        let mut search = 0usize;
        while let Some(rel_off) = file.masked[search..].find(NEEDLE) {
            let at = search + rel_off;
            let open = at + NEEDLE.len() - 1;
            search = open + 1;
            // `my_phase!(` is someone else's macro.
            if at > 0 && is_ident_char(file.masked.as_bytes()[at - 1]) {
                continue;
            }
            if file.in_test_region(at) {
                continue;
            }
            let Some(close) = match_paren(&file.masked, open) else {
                continue;
            };
            match literal_in(file, open + 1, close) {
                Some(value) => {
                    if phases.contains(&value) {
                        entered.insert(value);
                    } else {
                        out.push(Diagnostic {
                            rule: "P001",
                            rel: file.rel.clone(),
                            line: file.line_of(at),
                            msg: format!(
                                "profiling phase \"{value}\" is not registered in pimdsm_prof::phase::registry::PHASES — entering it panics at runtime"
                            ),
                        });
                    }
                }
                None => out.push(Diagnostic {
                    rule: "P001",
                    rel: file.rel.clone(),
                    line: file.line_of(at),
                    msg: "phase!(...) takes a string literal so the phase set is statically checkable; found a non-literal argument"
                        .into(),
                }),
            }
        }
    }

    for value in phases.iter() {
        if !entered.contains(value) {
            out.push(Diagnostic {
                rule: "P001",
                rel: "crates/prof/src/phase.rs".into(),
                line: 1,
                msg: format!(
                    "registered profiling phase \"{value}\" is never entered by any phase!(...) outside tests (stale registry entry)"
                ),
            });
        }
    }
    out
}

/// Extracts `registry::PHASES` from the prof phase module.
fn load_phase_registry(ws: &Workspace) -> Option<BTreeSet<String>> {
    let file = ws
        .files
        .iter()
        .map(|e| &e.file)
        .find(|f| f.rel.ends_with("prof/src/phase.rs"))?;
    let at = file.masked.find("pub const PHASES")?;
    // Skip past the `=` so the `[` of the `&[&str]` type annotation is
    // not mistaken for the array itself.
    let eq = at + file.masked[at..].find('=')?;
    let open = eq + file.masked[eq..].find('[')?;
    let close = open + file.masked[open..].find(']')?;
    Some(
        file.strings
            .iter()
            .filter(|s| s.offset > open && s.offset < close)
            .map(|s| s.value.clone())
            .collect(),
    )
}

/// L000 — malformed `pimdsm-lint:` directives anywhere in the workspace,
/// and well-formed ones naming a rule [`RULES`] does not know (a typo or
/// a retired rule would otherwise linger as a suppression of nothing).
pub fn l000(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for entry in &ws.files {
        for bad in &entry.file.bad_allows {
            out.push(Diagnostic {
                rule: "L000",
                rel: entry.file.rel.clone(),
                line: bad.line,
                msg: "malformed pimdsm-lint directive: expected `pimdsm-lint: allow(<RULE>, \"non-empty reason\")`"
                    .into(),
            });
        }
        for d in entry.file.allows.values().flatten() {
            if !RULES.iter().any(|(id, _)| *id == d.rule) {
                out.push(Diagnostic {
                    rule: "L000",
                    rel: entry.file.rel.clone(),
                    line: d.line,
                    msg: format!(
                        "pimdsm-lint directive names unknown rule `{}`: it suppresses nothing (see `pimdsm-lint --list`)",
                        d.rule
                    ),
                });
            }
        }
    }
    out
}

/// Extracts `registry::CATEGORIES` and `registry::EVENT_NAMES` from the
/// obs trace module.
fn load_registry(ws: &Workspace) -> Option<(BTreeSet<String>, BTreeSet<String>)> {
    let file = ws
        .files
        .iter()
        .map(|e| &e.file)
        .find(|f| f.rel.ends_with("obs/src/trace.rs"))?;
    let grab = |marker: &str| -> Option<BTreeSet<String>> {
        let at = file.masked.find(marker)?;
        // Skip past the `=` so the `[` of the `&[&str]` type annotation
        // is not mistaken for the array itself.
        let eq = at + file.masked[at..].find('=')?;
        let open = eq + file.masked[eq..].find('[')?;
        let close = open + file.masked[open..].find(']')?;
        Some(
            file.strings
                .iter()
                .filter(|s| s.offset > open && s.offset < close)
                .map(|s| s.value.clone())
                .collect(),
        )
    };
    Some((
        grab("pub const CATEGORIES")?,
        grab("pub const EVENT_NAMES")?,
    ))
}

/// `proto.handler`-shaped: at least one dot separating identifier chunks.
fn is_dotted(s: &str) -> bool {
    !s.is_empty()
        && s.contains('.')
        && s.split('.')
            .all(|part| !part.is_empty() && part.bytes().all(is_ident_char))
}

/// The string literal spanning exactly the (trimmed) argument text, if
/// the argument is a plain literal.
fn literal_in(file: &SourceFile, start: usize, end: usize) -> Option<String> {
    let trimmed = file.masked[start..end].trim();
    if !trimmed.starts_with('"') {
        return None;
    }
    file.strings
        .iter()
        .find(|s| s.offset >= start && s.offset < end)
        .map(|s| s.value.clone())
}

/// Like [`find_keyword`] but for multi-token patterns such as
/// `Instant::now` — boundaries are checked only at the pattern's ends.
pub(crate) fn find_pattern(text: &str, pat: &str) -> Vec<usize> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut search = 0usize;
    while let Some(rel) = text[search..].find(pat) {
        let at = search + rel;
        let before_ok = at == 0 || !is_ident_char(b[at - 1]);
        let after = at + pat.len();
        let after_ok = after >= b.len() || !is_ident_char(b[after]);
        if before_ok && after_ok {
            out.push(at);
        }
        search = at + pat.len();
    }
    out
}
