//! `pimdsm-lint` — determinism & protocol-invariant static analysis.
//!
//! The simulator's evaluation rests on cycle-exact, reproducible runs,
//! and the bug class that threatens that most is statically visible in
//! the source: *nondeterminism* (unordered collections and ambient
//! time/randomness on the simulation path). The other invariants are
//! types the compiler checks, so they need no rule:
//! `pimdsm_proto::txn::walk` is the only way to open and finish a
//! transaction walk; profiler phases and trace events are the closed
//! enums `pimdsm_prof::Phase` and `pimdsm_obs::trace::Event`; and every
//! report struct's `to_json` destructures `Self` without `..` while its
//! `from_json` builds a full struct literal, so a field missing from
//! either side of the JSON round-trip fails the build or CI's clippy
//! `-D warnings`. This crate
//! scans the workspace source directly — it is dependency-free by design
//! (the build environment is offline), so instead of a `syn` AST it uses
//! a masking lexer plus just enough structure extraction; see
//! [`scan`].
//!
//! Rules (see [`rules::RULES`]):
//!
//! | ID   | invariant |
//! |------|-----------|
//! | D001 | no `HashMap`/`HashSet` in simulation crates |
//! | D002 | no `Instant::now`/`SystemTime`/`thread_rng` outside tooling and tests |
//! | D003 | no `BinaryHeap` in simulation crates; arena `slab`s expose `iter_deterministic()` |
//! | D004 | no determinism taint reaching simulation crates through any call chain |
//! | L000 | `pimdsm-lint:` directives are well-formed and name a known rule |
//!
//! The per-function rules work straight off [`scan`]'s masked text; the
//! cross-function rule (D004) runs on [`graph`]'s symbol table and
//! resolved call graph, built once per [`run_all`]. [`emit`] renders the
//! `--format json` diagnostics document.
//!
//! Suppression: `// pimdsm-lint: allow(D001, "reason")` on the offending
//! line, or alone on the line directly above it. The reason is mandatory.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod emit;
pub mod graph;
pub mod rules;
pub mod scan;
pub mod semantic;

pub use rules::RULES;
use scan::SourceFile;

/// Crates whose `src/` is simulation path for rule scoping.
pub const SIM_CRATES: &[&str] = &[
    "engine",
    "faults",
    "mem",
    "net",
    "proto",
    "core",
    "svc",
    "workloads",
];

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id (`D001`, …).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub rel: String,
    /// 1-indexed line.
    pub line: usize,
    /// Human explanation.
    pub msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: error[{}]: {}",
            self.rel, self.line, self.rule, self.msg
        )
    }
}

/// A scanned file plus its rule-scoping classification.
#[derive(Debug)]
pub struct FileEntry {
    /// The parsed source.
    pub file: SourceFile,
    /// Owning crate, named by its `crates/<name>` directory (`core` for
    /// the `pimdsm` package); the workspace-root harness is `repro`.
    pub krate: String,
    /// Whether the file is test/bench/example code (every rule but L000
    /// skips those; `#[cfg(test)]` modules inside `src/` are additionally
    /// skipped per-region).
    pub is_test_code: bool,
}

/// The scanned workspace.
#[derive(Debug)]
pub struct Workspace {
    /// Workspace root directory.
    pub root: PathBuf,
    /// Scanned files, in deterministic (sorted-path) order.
    pub files: Vec<FileEntry>,
}

impl Workspace {
    /// Scans every workspace `.rs` file under `crates/*/{src,tests,benches}`,
    /// `src/`, `tests/` and `examples/`. Skips `target/`, hidden
    /// directories and the lint fixture corpus (which is known-bad on
    /// purpose).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the directory walk.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut paths = Vec::new();
        walk(root, &mut paths)?;
        paths.sort();
        let mut ws = Workspace {
            root: root.to_path_buf(),
            files: Vec::new(),
        };
        for path in paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let raw = std::fs::read_to_string(&path)?;
            ws.add_source(path, rel, raw);
        }
        Ok(ws)
    }

    /// An empty workspace (for tests building synthetic inputs).
    pub fn empty(root: &Path) -> Workspace {
        Workspace {
            root: root.to_path_buf(),
            files: Vec::new(),
        }
    }

    /// Adds one source text, classifying it from its relative path.
    pub fn add_source(&mut self, path: PathBuf, rel: String, raw: String) {
        let (krate, is_test_code) = classify(&rel);
        self.files.push(FileEntry {
            file: SourceFile::parse(path, rel, raw),
            krate,
            is_test_code,
        });
    }

    /// Adds a source with an explicit classification — used by the
    /// fixture tests to scan a known-bad snippet *as if* it lived in a
    /// given crate's `src/`.
    pub fn add_source_as(&mut self, path: PathBuf, rel: String, raw: String, krate: &str) {
        self.files.push(FileEntry {
            file: SourceFile::parse(path, rel, raw),
            krate: krate.to_string(),
            is_test_code: false,
        });
    }
}

/// Classifies a workspace-relative path into `(crate, is_test_code)`.
fn classify(rel: &str) -> (String, bool) {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["crates", name, "src", ..] => ((*name).to_string(), false),
        ["crates", name, "tests" | "benches" | "examples", ..] => ((*name).to_string(), true),
        ["src", ..] => ("repro".to_string(), false),
        ["tests" | "examples" | "benches", ..] => ("repro".to_string(), true),
        _ => ("other".to_string(), true),
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name == "results" || name.starts_with('.')
            {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs every rule and filters out findings suppressed by a well-formed
/// allow directive. The result is sorted by `(file, line, rule)`.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let graph = graph::CallGraph::build(ws);
    let mut diags: Vec<Diagnostic> = [
        rules::d001(ws),
        rules::d002(ws),
        rules::d003(ws),
        rules::l000(ws),
        semantic::d004(ws, &graph),
    ]
    .into_iter()
    .flatten()
    .filter(|d| {
        // L000 (a broken directive) cannot be suppressed by a directive.
        d.rule == "L000"
            || !ws
                .files
                .iter()
                .find(|e| e.file.rel == d.rel)
                .is_some_and(|e| e.file.is_allowed(d.rule, d.line))
    })
    .collect();
    diags.sort_by(|a, b| (&a.rel, a.line, a.rule).cmp(&(&b.rel, b.line, b.rule)));
    diags.dedup();
    diags
}

/// Locates the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
