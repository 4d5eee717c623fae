//! Call-graph integration tests against the real workspace, plus the
//! `crate_deps`-vs-`Cargo.toml` sync check the map in `graph.rs`
//! promises.
//!
//! Scope note: the resolver does *no* trait dispatch. A method call
//! through a trait object (`dyn MemSystem`) resolves to every
//! dep-visible method of that name — deliberate over-approximation, so
//! reachability-based rules (D004) never miss an implementor.
//! Precise per-receiver dispatch is documented out of scope; the
//! `machine_reaches_every_mem_system_implementor` test pins the
//! over-approximate behavior instead.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::{Path, PathBuf};

use pimdsm_lint::graph::{crate_deps, CallGraph};
use pimdsm_lint::Workspace;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

fn real_graph() -> (Workspace, CallGraph) {
    let ws = Workspace::load(&root()).expect("scan workspace");
    let g = CallGraph::build(&ws);
    (ws, g)
}

/// Parses the `[dependencies]` section of one crate manifest into the
/// set of workspace-crate directory names (`pimdsm` → `core`,
/// `pimdsm-x` → `x`; non-pimdsm deps are ignored).
fn declared_deps(manifest: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut in_deps = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let name: String = line
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
            .collect();
        if name == "pimdsm" {
            out.insert("core".to_string());
        } else if let Some(rest) = name.strip_prefix("pimdsm-") {
            out.insert(rest.to_string());
        }
    }
    out
}

#[test]
fn crate_deps_matches_the_cargo_manifests() {
    let root = root();
    let mut declared: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let dir = entry.expect("dir entry").path();
        let manifest = dir.join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        let name = dir.file_name().unwrap().to_string_lossy().to_string();
        let text = std::fs::read_to_string(&manifest).expect("read manifest");
        declared.insert(name, declared_deps(&text));
    }

    // Transitive closure of the declared graph, for the no-stale check.
    let closure = |start: &str| -> BTreeSet<String> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut queue: VecDeque<String> = VecDeque::from([start.to_string()]);
        while let Some(k) = queue.pop_front() {
            if !seen.insert(k.clone()) {
                continue;
            }
            if let Some(ds) = declared.get(&k) {
                queue.extend(ds.iter().cloned());
            }
        }
        seen
    };

    for (krate, deps) in &declared {
        let Some(listed) = crate_deps(krate) else {
            continue; // lab & friends: unfiltered by design
        };
        let listed: BTreeSet<&str> = listed.iter().copied().collect();
        // A crate always sees itself.
        assert!(listed.contains(krate.as_str()), "{krate} missing itself");
        // Soundness: every declared dependency must be visible, or the
        // resolver would silently prune real call edges.
        for d in deps {
            assert!(
                listed.contains(d.as_str()),
                "crates/{krate}/Cargo.toml declares `{d}` but graph.rs::crate_deps(\"{krate}\") omits it — update the map"
            );
        }
        // No stale entries: everything listed must at least be reachable
        // through the declared dependency graph.
        let reach = closure(krate);
        for l in &listed {
            assert!(
                reach.contains(*l),
                "crate_deps(\"{krate}\") lists `{l}` but crates/{krate}/Cargo.toml's dependency closure cannot reach it — stale map entry"
            );
        }
    }
}

#[test]
fn machine_event_handlers_exist_and_call_into_proto() {
    let (_ws, g) = real_graph();
    let step = g
        .fns
        .iter()
        .position(|f| f.self_ty.as_deref() == Some("Machine") && f.name == "step" && !f.is_test)
        .expect("Machine::step in the symbol table");
    assert!(!g.calls_of[step].is_empty(), "Machine::step makes calls");
    // Cross-crate: some call from core's machine.rs resolves into proto.
    let into_proto = g.calls_of[step]
        .iter()
        .flat_map(|&c| &g.calls[c].callees)
        .any(|&callee| g.fns[callee].krate == "proto");
    assert!(into_proto, "core -> proto edges resolve");
}

#[test]
fn machine_reaches_every_mem_system_implementor() {
    // `self.system.sys().read(...)` goes through `dyn MemSystem`: the
    // resolver (no trait dispatch, by design) must land on ALL three
    // system implementations, not zero and not one.
    let (_ws, g) = real_graph();
    let read_impls: BTreeSet<&str> = g
        .fns
        .iter()
        .filter(|f| f.name == "read" && !f.is_test && f.krate == "proto")
        .filter_map(|f| f.self_ty.as_deref())
        .collect();
    for sys in ["AggSystem", "ComaSystem", "NumaSystem"] {
        assert!(read_impls.contains(sys), "{sys}::read in symbol table");
    }
    let reachable_read_tys: BTreeSet<&str> = g
        .calls
        .iter()
        .filter(|c| c.is_method && c.name == "read" && g.fns[c.caller].krate == "core")
        .flat_map(|c| &c.callees)
        .filter_map(|&i| g.fns[i].self_ty.as_deref())
        .collect();
    for sys in ["AggSystem", "ComaSystem", "NumaSystem"] {
        assert!(
            reachable_read_tys.contains(sys),
            "trait-object over-approximation reaches {sys}::read: {reachable_read_tys:?}"
        );
    }
}

#[test]
fn dependency_filter_keeps_lab_out_of_sim_call_edges() {
    let (_ws, g) = real_graph();
    for (i, f) in g.fns.iter().enumerate() {
        if !matches!(f.krate.as_str(), "engine" | "mem" | "proto" | "core") {
            continue;
        }
        for &c in &g.calls_of[i] {
            for &callee in &g.calls[c].callees {
                let k = &g.fns[callee].krate;
                assert!(
                    k != "lab",
                    "{} resolved a call into tooling crate {k}: {:?}",
                    f.qual_name(),
                    g.calls[c]
                );
            }
        }
    }
}
