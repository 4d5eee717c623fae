//! Performance guard: the call-graph layer must not make the
//! pre-commit loop painful. A full workspace scan — load, symbol
//! table + call graph and every rule — has to stay well under 5 seconds
//! on the CI container.

use std::path::Path;
use std::time::Instant;

use pimdsm_lint::{run_all, Workspace};

#[test]
fn full_workspace_scan_stays_under_five_seconds() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();

    let t0 = Instant::now();
    let ws = Workspace::load(&root).expect("scan workspace");
    let diags = run_all(&ws);
    let elapsed = t0.elapsed();

    assert!(diags.is_empty(), "clean scan while timing: {diags:?}");
    assert!(
        elapsed.as_secs_f64() < 5.0,
        "full scan + graph + rules took {elapsed:?} (budget: 5s)"
    );
}
