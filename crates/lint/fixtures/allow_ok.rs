//! A justified suppression: the escape hatch silences D001 here.

// pimdsm-lint: allow(D001, "interned id set, never iterated; order cannot leak")
use std::collections::HashSet;

pub struct Interner {
    // pimdsm-lint: allow(D001, "membership checks only; see module note")
    seen: HashSet<u64>,
}

impl Interner {
    pub fn insert(&mut self, id: u64) -> bool {
        let fresh = !self.seen.contains(&id); // pimdsm-lint: allow(D001, "lookup only")
        if fresh {
            self.seen.insert(id); // pimdsm-lint: allow(D001, "lookup only")
        }
        fresh
    }
}
