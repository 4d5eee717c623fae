//! The fixture corpus: every rule must fire on its known-bad snippet
//! with the right rule ID and span, the allow escape hatch must work,
//! and the real workspace must self-scan clean.

use std::path::{Path, PathBuf};

use pimdsm_lint::{run_all, Diagnostic, Workspace};

/// Repo root (two levels above this crate's manifest).
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// Scans the real workspace plus one fixture file classified as `krate`
/// `src/` code, returning only the diagnostics from the fixture.
fn scan_fixture(name: &str, krate: &str) -> Vec<Diagnostic> {
    let root = root();
    let mut ws = Workspace::load(&root).expect("scan workspace");
    let path = fixture_path(name);
    let rel = format!("crates/{krate}/src/{name}");
    let raw = std::fs::read_to_string(&path).expect("read fixture");
    ws.add_source_as(path, rel.clone(), raw, krate);
    run_all(&ws).into_iter().filter(|d| d.rel == rel).collect()
}

/// Line (1-indexed) of the first occurrence of `needle` in the fixture.
fn line_of(name: &str, needle: &str) -> usize {
    let text = std::fs::read_to_string(fixture_path(name)).unwrap();
    let off = text.find(needle).expect("needle present in fixture");
    text[..off].matches('\n').count() + 1
}

#[test]
fn workspace_self_scan_is_clean() {
    let ws = Workspace::load(&root()).expect("scan workspace");
    assert!(ws.files.len() > 50, "workspace walk found the sources");
    let diags = run_all(&ws);
    assert!(
        diags.is_empty(),
        "workspace must have zero unsuppressed violations:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn d001_fires_on_unordered_collections() {
    let diags = scan_fixture("d001_collections.rs", "mem");
    assert!(diags.iter().all(|d| d.rule == "D001"), "{diags:?}");
    // Import line, two field declarations, two constructors.
    assert!(diags.len() >= 5, "one finding per use: {diags:?}");
    let import = line_of("d001_collections.rs", "use std::collections");
    assert!(
        diags.iter().any(|d| d.line == import),
        "span points at the import: {diags:?}"
    );
    assert!(diags[0].msg.contains("BTreeMap"), "suggests the fix");
}

#[test]
fn d001_does_not_fire_outside_simulation_crates() {
    let diags = scan_fixture("d001_collections.rs", "lab");
    assert!(
        diags.iter().all(|d| d.rule != "D001"),
        "lab is orchestration, not sim path: {diags:?}"
    );
}

#[test]
fn d002_fires_on_wall_clock_and_randomness() {
    // D004 also fires here (the same sources taint the functions); this
    // test pins the per-site rule.
    let diags: Vec<Diagnostic> = scan_fixture("d002_wallclock.rs", "engine")
        .into_iter()
        .filter(|d| d.rule == "D002")
        .collect();
    for needle in ["Instant::now", "SystemTime", "thread_rng"] {
        assert!(
            diags.iter().any(|d| d.msg.contains(needle)),
            "missing {needle}: {diags:?}"
        );
    }
    let now_line = line_of("d002_wallclock.rs", "Instant::now()");
    assert!(diags.iter().any(|d| d.line == now_line));
}

#[test]
fn d003_fires_on_binaryheap_and_orderless_arenas() {
    let diags = scan_fixture("d003_binaryheap.rs", "mem");
    assert!(diags.iter().all(|d| d.rule == "D003"), "{diags:?}");
    // Import, field declaration, two constructor/use sites — plus the
    // arena-without-iter_deterministic finding.
    assert!(diags.len() >= 4, "{diags:?}");
    let import = line_of("d003_binaryheap.rs", "use std::collections");
    assert!(
        diags.iter().any(|d| d.line == import),
        "span points at the import: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.msg.contains("EventQueue")),
        "suggests the engine queue: {diags:?}"
    );
    let slab = line_of("d003_binaryheap.rs", "slab: Vec<Option<u64>>");
    assert!(
        diags
            .iter()
            .any(|d| d.line == slab && d.msg.contains("iter_deterministic")),
        "orderless arena reported at its field: {diags:?}"
    );
}

#[test]
fn d003_does_not_fire_outside_simulation_crates() {
    let diags = scan_fixture("d003_binaryheap.rs", "lab");
    assert!(
        diags.iter().all(|d| d.rule != "D003"),
        "lab is orchestration, not sim path: {diags:?}"
    );
}

#[test]
fn d004_propagates_taint_to_transitive_callers() {
    let diags: Vec<Diagnostic> = scan_fixture("d004_taint.rs", "core")
        .into_iter()
        .filter(|d| d.rule == "D004")
        .collect();
    // The direct toucher and its transitive caller; the allow-hatched
    // `debug_stamp` is suppressed.
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert_eq!(
        diags[0].line,
        line_of("d004_taint.rs", "fn host_millis"),
        "{diags:?}"
    );
    assert_eq!(
        diags[1].line,
        line_of("d004_taint.rs", "pub fn jitter_seed"),
        "transitive caller flagged even though it never reads a clock: {diags:?}"
    );
    assert!(
        diags[1].msg.contains("`jitter_seed`") && diags[1].msg.contains("`host_millis`"),
        "message shows the taint chain: {diags:?}"
    );
    assert!(
        diags[1].msg.contains("SystemTime"),
        "message names the root source: {diags:?}"
    );
    assert!(
        !diags
            .iter()
            .any(|d| d.line == line_of("d004_taint.rs", "pub fn debug_stamp")),
        "justified allow suppresses the deliberate taint: {diags:?}"
    );
}

#[test]
fn allow_escape_hatch_suppresses_with_reason() {
    let diags = scan_fixture("allow_ok.rs", "mem");
    assert!(
        diags.is_empty(),
        "justified allows suppress every finding: {diags:?}"
    );
}

#[test]
fn reasonless_allow_is_flagged_and_does_not_suppress() {
    let diags = scan_fixture("allow_bad.rs", "mem");
    assert!(
        diags.iter().any(|d| d.rule == "L000"),
        "malformed directive reported: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.rule == "D001"),
        "the underlying finding still fires: {diags:?}"
    );
}

#[test]
fn unknown_rule_allow_is_flagged_and_does_not_suppress() {
    let diags = scan_fixture("allow_bad.rs", "mem");
    for (needle, id) in [("allow(W001", "`W001`"), ("allow(D01,", "`D01`")] {
        let line = line_of("allow_bad.rs", needle);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "L000" && d.line == line && d.msg.contains(id)),
            "unknown rule {id} reported at its directive: {diags:?}"
        );
    }
    let typo = line_of("allow_bad.rs", "allow(D01,");
    assert!(
        diags.iter().any(|d| d.rule == "D001" && d.line == typo),
        "a typoed rule id suppresses nothing: {diags:?}"
    );
}

#[test]
fn cli_exits_zero_on_clean_workspace_and_lists_rules() {
    let bin = env!("CARGO_BIN_EXE_pimdsm-lint");
    let out = std::process::Command::new(bin)
        .args(["--root"])
        .arg(root())
        .output()
        .expect("run pimdsm-lint");
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));

    let list = std::process::Command::new(bin)
        .arg("--list")
        .output()
        .expect("run pimdsm-lint --list");
    let text = String::from_utf8_lossy(&list.stdout);
    let ids: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        ids,
        ["D001", "D002", "D003", "D004", "L000"],
        "--list names exactly the rule table: {text}"
    );
}

#[test]
fn cli_json_format_emits_the_stable_schema() {
    let bin = env!("CARGO_BIN_EXE_pimdsm-lint");
    let out = std::process::Command::new(bin)
        .args(["--format", "json", "--root"])
        .arg(root())
        .output()
        .expect("run pimdsm-lint --format json");
    assert!(out.status.success(), "clean workspace exits 0");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"schema\": \"pimdsm-lint-diagnostics-v1\""));
    assert!(text.contains("\"diagnostics\": []"), "clean scan: {text}");
    // The workspace carries no suppression: doc comments and string
    // literals that merely quote the directive syntax are not directives.
    assert!(text.contains("\"allows\": []"), "{text}");
    assert!(
        text.contains(r#""rules": ["D001", "D002", "D003", "D004", "L000"]"#),
        "rules array names exactly the rule table: {text}"
    );
}
