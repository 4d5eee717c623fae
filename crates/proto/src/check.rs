//! The coherence oracle: shadow-state assertions over a whole system.
//!
//! Each protocol gets two entry points:
//!
//! - a *full sweep* (`check_agg`, `check_coma`, `check_numa`) walking
//!   every directory entry — cheap enough for test epilogues and exposed
//!   through [`MemSystem::check_coherence`];
//! - a *per-line* check (`agg_line`, …) run after **every** transaction
//!   when the `coherence-oracle` feature is enabled, so a protocol bug
//!   trips at the first transaction that corrupts state, not at the end
//!   of a run.
//!
//! The oracle only ever *peeks* — it must not touch LRU state or book
//! timing, or enabling it would perturb the simulation it checks.
//!
//! The invariants asserted here are the single-writer/multiple-reader
//! discipline every protocol shares, plus each protocol's own shape:
//! AGG's unique master and cache⊆AM inclusion (Section 2.2.2), COMA's
//! master-copy accounting, and NUMA's directory-vs-cache agreement
//! (stale sharer bits are legal there — silent Shared drops — but a
//! dirty copy unknown to the directory is not).

use pimdsm_mem::{page_of_line, Line};

use crate::agg::AggSystem;
use crate::coma::ComaSystem;
use crate::common::{AmState, CState, CompactNode, NodeList};
use crate::dnode::Master;
use crate::numa::NumaSystem;
use crate::system::MemSystem;

/// Full-sweep oracle for AGG: D-node storage invariants, every directory
/// entry's line-level invariants, and cache/AM inclusion of every
/// resident line (which must have a directory entry at its home).
pub fn check_agg(sys: &AggSystem) {
    for &d in sys.d_nodes() {
        sys.dnode(d).check_invariants();
        let lines: Vec<Line> = sys.dnode(d).iter_deterministic().map(|(l, _)| l).collect();
        for line in lines {
            agg_line(sys, line);
        }
    }
    for &p in sys.p_nodes() {
        for (line, _) in sys.pstore_ref(p).am.iter() {
            let home = sys.fabric().pages.home(page_of_line(line));
            let home = home.unwrap_or_else(|| panic!("AM line {line:#x} at node {p} has no home"));
            assert!(
                sys.dnode(home).entry(line).is_some(),
                "AM line {line:#x} at node {p} has no directory entry at home {home}"
            );
        }
    }
}

/// Line-level AGG oracle: the directory entry at the line's home must
/// agree exactly with the P-node attraction memories and private caches,
/// and an in-memory line's page must be mapped at its home.
pub(crate) fn agg_line(sys: &AggSystem, line: Line) {
    let page = page_of_line(line);
    let Some(home) = sys.fabric().pages.home(page) else {
        return;
    };
    let Some(e) = sys.dnode(home).entry(line) else {
        return;
    };
    // A page holding in-memory lines must stay a page-out candidate.
    assert!(
        !e.in_mem || sys.dnode(home).maps_page(page),
        "in-memory line {line:#x} sits in page {page:#x}, which its home {home} does not map"
    );
    // Who holds the line, at memory and cache level. A stack list: the
    // per-transaction oracle must not allocate.
    let am_state = |p: usize| sys.pstore_ref(p).am.peek(line).copied();
    let mut holders = NodeList::new();
    for &p in sys.p_nodes() {
        let ps = sys.pstore_ref(p);
        let am = am_state(p);
        if am.is_some() {
            holders.push(p);
        }
        if let Some(c) = ps.caches.peek_state(line) {
            assert!(
                am.is_some(),
                "node {p} caches line {line:#x} not present in its AM (inclusion)"
            );
            if c == CState::Dirty {
                assert_eq!(
                    am,
                    Some(AmState::Dirty),
                    "node {p} holds line {line:#x} dirty in cache but not in AM"
                );
            }
        }
    }

    let master = match e.master {
        Master::Node(m) => Some(m.get()),
        Master::Home => None,
    };
    if let Some(k) = e.owner.map(CompactNode::get) {
        assert!(
            holders[..] == [k] && am_state(k) == Some(AmState::Dirty),
            "owned line {line:#x}: owner {k} must be the unique (dirty) holder, \
             held by {:?}",
            &holders[..]
        );
        assert_eq!(
            master,
            Some(k),
            "owned line {line:#x}: mastership must sit with the owner"
        );
        return;
    }
    if e.paged_out {
        assert!(
            holders.is_empty(),
            "paged-out line {line:#x} still held: {:?}",
            &holders[..]
        );
        return;
    }
    // Shared (or home-only) line: holders and sharer bits agree exactly;
    // a single shared-master copy exists iff mastership is outside.
    for &p in holders.iter() {
        let st = am_state(p).expect("holders have an AM copy");
        assert!(
            e.sharers.contains(p),
            "node {p} holds shared line {line:#x} without a sharer bit"
        );
        let expect = if master == Some(p) {
            AmState::SharedMaster
        } else {
            AmState::Shared
        };
        assert_eq!(
            st, expect,
            "node {p} holds line {line:#x} as {st:?}, directory implies {expect:?}"
        );
    }
    for s in e.sharers.iter() {
        assert!(
            holders.contains(&s),
            "sharer bit for node {s} on line {line:#x} but no AM copy"
        );
    }
    if let Some(m) = master {
        assert!(
            e.sharers.contains(m),
            "master {m} of line {line:#x} is not a sharer"
        );
    }
}

/// Full-sweep oracle for flat COMA: every directory entry's line-level
/// invariants (unique dirty holder, master-copy accounting, inclusion).
pub fn check_coma(sys: &ComaSystem) {
    let lines: Vec<Line> = sys.dir_lines();
    for line in lines {
        coma_line(sys, line);
    }
}

/// Line-level COMA oracle.
pub(crate) fn coma_line(sys: &ComaSystem, line: Line) {
    let Some(e) = sys.dir_entry(line) else { return };
    let n = sys.n_nodes();
    // A stack list: the per-transaction oracle must not allocate.
    let am_state = |p: usize| sys.pstore_ref(p).am.peek(line).copied();
    let mut holders = NodeList::new();
    for p in 0..n {
        let ps = sys.pstore_ref(p);
        let am = am_state(p);
        if am.is_some() {
            holders.push(p);
        }
        if let Some(c) = ps.caches.peek_state(line) {
            assert!(
                am.is_some(),
                "node {p} caches line {line:#x} not present in its AM (inclusion)"
            );
            if c == CState::Dirty {
                assert_eq!(
                    am,
                    Some(AmState::Dirty),
                    "node {p} holds line {line:#x} dirty in cache but not in AM"
                );
            }
        }
    }

    let master = e.master.map(CompactNode::get);
    if let Some(k) = e.owner.map(CompactNode::get) {
        assert!(
            holders[..] == [k] && am_state(k) == Some(AmState::Dirty),
            "owned line {line:#x}: owner {k} must be the unique (dirty) holder, \
             held by {:?}",
            &holders[..]
        );
        assert_eq!(
            master,
            Some(k),
            "owned line {line:#x}: mastership must sit with the owner"
        );
        assert!(e.sharers.contains(k), "owner {k} must appear as a sharer");
        assert_eq!(e.sharers.len(), 1, "owned line {line:#x} has extra sharers");
        return;
    }
    if e.on_disk {
        // Forced spill keeps the sharer bits conservative: stale *shared*
        // holders are tolerated, dirty ones never.
        assert!(
            !holders.iter().any(|&p| am_state(p) == Some(AmState::Dirty)),
            "on-disk line {line:#x} has a dirty holder"
        );
        return;
    }
    for &p in holders.iter() {
        let st = am_state(p).expect("holders have an AM copy");
        assert!(
            e.sharers.contains(p),
            "node {p} holds shared line {line:#x} without a sharer bit"
        );
        let expect = if master == Some(p) {
            AmState::SharedMaster
        } else {
            AmState::Shared
        };
        assert_eq!(
            st, expect,
            "node {p} holds line {line:#x} as {st:?}, directory implies {expect:?}"
        );
    }
    for s in e.sharers.iter() {
        assert!(
            holders.contains(&s),
            "sharer bit for node {s} on line {line:#x} but no AM copy"
        );
    }
    if let Some(m) = master {
        assert!(
            e.sharers.contains(m),
            "master {m} of line {line:#x} is not a sharer"
        );
    }
}

/// Full-sweep oracle for CC-NUMA.
pub fn check_numa(sys: &NumaSystem) {
    let lines: Vec<Line> = sys.dir_lines();
    for line in lines {
        numa_line(sys, line);
    }
}

/// Line-level NUMA oracle: caches and directory agree up to silent
/// Shared drops (a cached copy needs a directory record; a stale sharer
/// bit without a copy is legal), and a dirty copy implies sole ownership.
pub(crate) fn numa_line(sys: &NumaSystem, line: Line) {
    let Some(e) = sys.dir_entry(line) else { return };
    let n = sys.n_nodes();
    let owner = e.owner.map(CompactNode::get);
    let mut dirty_holder = None;
    for p in 0..n {
        let Some(c) = sys.cached_state(p, line) else {
            continue;
        };
        assert!(
            e.sharers.contains(p) || owner == Some(p),
            "node {p} caches line {line:#x} unknown to the directory"
        );
        if c == CState::Dirty {
            assert!(
                dirty_holder.is_none(),
                "two dirty copies of line {line:#x}: {dirty_holder:?} and {p}"
            );
            dirty_holder = Some(p);
            assert_eq!(
                owner,
                Some(p),
                "node {p} holds line {line:#x} dirty without directory ownership"
            );
        }
    }
    if let Some(k) = owner {
        for p in 0..n {
            if p != k {
                assert_eq!(
                    sys.cached_state(p, line),
                    None,
                    "line {line:#x} is owned by {k} but node {p} still caches it"
                );
            }
        }
    }
}
