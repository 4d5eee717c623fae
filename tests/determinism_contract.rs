//! The determinism contract's source checks.
//!
//! Identical configurations must give bit-identical runs. The compiler
//! holds most of that contract: `crates/clippy.toml` bans the named
//! sources of host nondeterminism (unordered collections, `BinaryHeap`,
//! wall clocks, environment reads, thread identity) in every crate under
//! `crates/` except `lab`, and CI runs clippy with `-D warnings`. These
//! tests guard that mechanism and cover what clippy cannot see:
//!
//! 1. no crate opts out of the config silently;
//! 2. every suppression of it is a reasoned `#[expect]` pinned here;
//! 3. no address-derived value (`{:p}`, a pointer-to-integer cast,
//!    `.addr()`, `.expose_provenance()`) appears in crate sources;
//! 4. sim code names only the write side of `pimdsm_prof`, so the host
//!    time the profiler records never flows back into a simulation.

use std::fs;
use std::path::{Path, PathBuf};

fn crates_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("crates")
}

/// Every file under `crates/` as `(path relative to crates/, contents)`,
/// sorted by path.
fn crate_files() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut stack = vec![crates_dir()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                if path.file_name() != Some("target".as_ref()) {
                    stack.push(path);
                }
            } else {
                let rel = path.strip_prefix(crates_dir()).expect("under crates/");
                let text = fs::read_to_string(&path).unwrap_or_default();
                out.push((rel.to_string_lossy().replace('\\', "/"), text));
            }
        }
    }
    out.sort();
    out
}

/// The Rust sources under `crates/<name>/src` for every crate not in
/// `exempt`.
fn crate_sources(exempt: &[&str]) -> Vec<(String, String)> {
    crate_files()
        .into_iter()
        .filter(|(rel, _)| {
            let mut parts = rel.split('/');
            let krate = parts.next().unwrap_or_default();
            parts.next() == Some("src") && rel.ends_with(".rs") && !exempt.contains(&krate)
        })
        .collect()
}

fn line_of(text: &str, at: usize) -> usize {
    text[..at].matches('\n').count() + 1
}

#[test]
fn only_lab_opts_out_of_the_clippy_config() {
    let configs: Vec<(String, String)> = crate_files()
        .into_iter()
        .filter(|(rel, _)| rel.ends_with("clippy.toml"))
        .collect();
    let names: Vec<&str> = configs.iter().map(|(rel, _)| rel.as_str()).collect();
    assert_eq!(
        names,
        ["clippy.toml", "lab/clippy.toml"],
        "a crate-level clippy.toml shadows crates/clippy.toml for that crate"
    );
    let lab = &configs[1].1;
    assert!(
        lab.lines()
            .all(|l| l.trim().is_empty() || l.trim_start().starts_with('#')),
        "crates/lab/clippy.toml must stay comment-only"
    );
}

/// Every file under `crates/` that names the config's lints, with how
/// many times. Each mention must sit in a reasoned `#[expect]`, so a
/// stale one fails `unfulfilled_lint_expectations` under `-D warnings`.
const SUPPRESSIONS: &[(&str, usize)] = &[
    ("engine/tests/properties.rs", 1),
    ("mem/tests/properties.rs", 1),
    ("obs/src/json.rs", 2),
    ("prof/src/phase.rs", 2),
    ("proto/tests/properties.rs", 1),
    ("workloads/tests/properties.rs", 1),
];

/// The attribute around byte `at` of `src`, if `at` lies inside one.
fn enclosing_attribute(src: &str, at: usize) -> Option<&str> {
    let start = src[..at].rfind('#')?;
    let end = at + src[at..].find(']')?;
    let attr = &src[start..=end];
    let open = attr.starts_with("#[") || attr.starts_with("#![");
    (open && !src[start..at].contains(']')).then_some(attr)
}

#[test]
fn every_suppression_of_the_config_is_pinned() {
    let mut found = Vec::new();
    for (rel, text) in crate_files() {
        if !(rel.ends_with(".rs") || rel.ends_with("Cargo.toml")) {
            continue;
        }
        let mut count = 0;
        for lint in ["disallowed_types", "disallowed_methods"] {
            for (at, _) in text.match_indices(lint) {
                count += 1;
                let attr = enclosing_attribute(&text, at).unwrap_or_default();
                assert!(
                    attr.trim_start_matches(['#', '!', '['])
                        .starts_with("expect(")
                        && attr.contains("reason"),
                    "crates/{rel}:{}: `{lint}` outside a reasoned #[expect]",
                    line_of(&text, at)
                );
            }
        }
        if count > 0 {
            found.push((rel, count));
        }
    }
    let pinned: Vec<(String, usize)> = SUPPRESSIONS
        .iter()
        .map(|&(rel, n)| (rel.to_string(), n))
        .collect();
    assert_eq!(found, pinned, "suppressions of crates/clippy.toml changed");
}

const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// The byte offset of the first address-derived value in `src`: a `{:p}`
/// format spec (any flags or argument), `as *const`/`as *mut` followed by
/// a cast to an integer in the same statement, `.addr()` or
/// `.expose_provenance()`. Addresses vary run to run, and clippy has no
/// lint for any of these.
fn address_derived(src: &str) -> Option<usize> {
    let format_spec = src.match_indices('{').filter(|&(at, _)| {
        let inner = src[at + 1..].split('}').next().unwrap_or_default();
        inner.rsplit_once(':').is_some_and(|(arg, spec)| {
            !arg.ends_with(':')
                && arg.chars().all(|c| c.is_alphanumeric() || c == '_')
                && spec.ends_with('p')
                && !spec.contains(char::is_whitespace)
        })
    });
    let ptr_cast = ["as *const", "as *mut"].into_iter().flat_map(|pat| {
        src.match_indices(pat).filter(move |&(at, _)| {
            let rest = &src[at + pat.len()..];
            let stmt = &rest[..rest.find(';').unwrap_or(rest.len())];
            stmt.match_indices(" as ").any(|(a, _)| {
                let ty: String = stmt[a + 4..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                INT_TYPES.contains(&ty.as_str())
            })
        })
    });
    let methods = [".addr()", ".expose_provenance()"]
        .into_iter()
        .flat_map(|pat| src.match_indices(pat));
    format_spec
        .chain(ptr_cast)
        .chain(methods)
        .map(|(at, _)| at)
        .min()
}

#[test]
fn address_detector_flags_each_source() {
    for bad in [
        r#"let s = format!("{:p}", x);"#,
        r#"println!("{x:p}");"#,
        r#"write!(f, "{:#018p}", self)?;"#,
        "let k = &v as *const u64 as usize;",
        "let k = (p as *mut Node as u64) % n;",
        "let h = ptr.addr() >> 6;",
        "let h = ptr.expose_provenance();",
    ] {
        assert!(address_derived(bad).is_some(), "missed: {bad}");
    }
}

#[test]
fn address_detector_passes_lookalikes() {
    for good in [
        r#"let s = format!("{:?} {x:>8} {:x}", a, b);"#,
        "use pimdsm_engine::{rng::p};",
        "Point { x: p }",
        "let r = &v as *const u64;\nlet n = len as usize;",
        "let n = id as usize;",
        "let a = cfg.address(line);",
    ] {
        assert_eq!(address_derived(good), None, "flagged: {good}");
    }
}

#[test]
fn no_address_derived_value_in_crate_sources() {
    for (rel, text) in crate_sources(&["lab"]) {
        if let Some(at) = address_derived(&text) {
            panic!(
                "crates/{rel}:{}: address-derived value; addresses vary run to run",
                line_of(&text, at)
            );
        }
    }
}

/// The `pimdsm_prof` items sim code may name, each after
/// `pimdsm_prof::`: counters and phase scopes, which write host-side
/// statics, and never a read-back such as `phase::stats()`.
const PROF_ITEMS: &[&str] = &[
    "counters::add",
    "counters::observe_max",
    "counters::ENGINE_EVENTS",
    "counters::ENGINE_QUEUE_PEAK",
    "counters::TXN_STEPS",
    "counters::TXN_WALKS",
    "phase!",
    "Phase::SvcBuild",
];

#[test]
fn sim_crates_name_only_the_write_side_of_the_profiler() {
    for (rel, text) in crate_sources(&["lab", "prof"]) {
        for (at, _) in text.match_indices("pimdsm_prof") {
            let path = text[at + "pimdsm_prof".len()..].strip_prefix("::");
            let allowed = path.is_some_and(|p| {
                PROF_ITEMS.iter().any(|item| {
                    p.strip_prefix(item).is_some_and(|rest| {
                        !rest.starts_with(|c: char| c.is_alphanumeric() || c == '_')
                    })
                })
            });
            let imported = text[..at].trim_end().ends_with("use");
            assert!(
                allowed && !imported,
                "crates/{rel}:{}: sim code names pimdsm_prof only by full path, \
                 and only these items: {PROF_ITEMS:?}",
                line_of(&text, at)
            );
        }
    }
}
