//! Known-bad: escape hatches without a justification, or naming a rule
//! that does not exist (L000), which do not suppress the underlying
//! finding either.

use std::collections::HashMap; // pimdsm-lint: allow(D001)

pub fn table() -> HashMap<u64, u64> {
    // pimdsm-lint: allow(D001, "")
    HashMap::new()
}

// pimdsm-lint: allow(W001, "scratch interner, rebuilt per event; no cross-region writes")
pub fn retired_rule() {}

pub fn typo() -> Vec<u64> {
    let ids: std::collections::HashSet<u64> = Default::default(); // pimdsm-lint: allow(D01, "lookup only")
    ids.into_iter().collect()
}
