//! The rule set.
//!
//! Every rule has a stable ID, emits `file:line` diagnostics, and honors
//! the `// pimdsm-lint: allow(<rule>, "<reason>")` escape hatch (applied
//! by the driver in [`crate::run_all`], not here).

use crate::scan::{find_keyword, is_ident_char};
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
