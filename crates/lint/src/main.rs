//! CLI driver: `cargo run -p pimdsm-lint [-- --root <dir>] [--list]`.
//!
//! Exits 0 when the workspace has zero unsuppressed violations, 1
//! otherwise (and 2 on usage/I/O errors). All rules are deny-level; the
//! only way to silence a finding is the inline
//! `// pimdsm-lint: allow(<rule>, "reason")` escape hatch.
//!
//! `--format json` swaps the human report for the stable
//! `pimdsm-lint-diagnostics-v1` document (CI uploads it as an artifact).

use std::path::PathBuf;
use std::process::ExitCode;

use pimdsm_lint::{emit, find_workspace_root, run_all, Workspace, RULES};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut quiet = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                other => {
                    eprintln!(
                        "--format requires `text` or `json` (got {})",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::from(2);
                }
            },
            "--list" => {
                for (id, desc) in RULES {
                    println!("{id}  {desc}");
                }
                return ExitCode::SUCCESS;
            }
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                println!(
                    "pimdsm-lint: determinism & protocol-invariant static analysis\n\n\
                     USAGE: pimdsm-lint [--root <workspace-dir>] [--list] [--quiet]\n\
                            [--format text|json]\n\n\
                     --root    workspace to scan (default: nearest [workspace] above cwd)\n\
                     --list    print the rule table and exit\n\
                     --quiet   suppress the per-finding lines, print only the summary\n\
                     --format  diagnostic output format: text (default) or the stable\n\
                               pimdsm-lint-diagnostics-v1 JSON document"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other} (see --help)");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("could not locate a [workspace] Cargo.toml; pass --root");
            return ExitCode::from(2);
        }
    };

    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let diags = run_all(&ws);
    if json {
        print!("{}", emit::diagnostics_json(&ws, &diags));
        return if diags.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if !quiet {
        for d in &diags {
            println!("{d}");
        }
    }
    if diags.is_empty() {
        println!(
            "pimdsm-lint: clean ({} files, {} rules)",
            ws.files.len(),
            RULES.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("pimdsm-lint: {} violation(s)", diags.len());
        ExitCode::FAILURE
    }
}
