//! The content-addressed result cache.
//!
//! A cache entry is keyed by the FNV-1a-64 hash of the point's
//! [canonical string](crate::spec::PointSpec::canonical) **and** the
//! workspace source fingerprint the binary was built from (embedded by
//! `build.rs` as `PIMDSM_WORKSPACE_FINGERPRINT`). Editing any Rust source
//! or manifest in the workspace changes the fingerprint, so every stale
//! entry silently becomes a miss — the cache can never serve results from
//! an older simulator.
//!
//! Entries store the full canonical string next to the report, and
//! [`ResultCache::load`] verifies it before trusting the entry: a 64-bit
//! hash collision therefore degrades to a miss, never to a wrong result.
//! Loads re-materialize the report through [`RunReport::from_json`], whose
//! round-trip is byte-identical by construction (tested in
//! `pimdsm::report`), so a warm sweep renders exactly the bytes a cold
//! sweep would.

use std::fs;
use std::path::{Path, PathBuf};

use pimdsm::RunReport;
use pimdsm_obs::{json, JsonValue, ToJson};
use pimdsm_prof::Phase;

use crate::spec::PointSpec;

/// The workspace source fingerprint this binary was compiled from.
pub fn workspace_fingerprint() -> &'static str {
    env!("PIMDSM_WORKSPACE_FINGERPRINT")
}

/// 64-bit FNV-1a (the same function `build.rs` uses for the fingerprint).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A directory of cached [`RunReport`]s addressed by experiment content.
pub struct ResultCache {
    dir: PathBuf,
    fingerprint: String,
}

impl ResultCache {
    /// Opens (without creating) a cache rooted at `dir`, bound to this
    /// binary's workspace fingerprint.
    pub fn new(dir: impl Into<PathBuf>) -> ResultCache {
        ResultCache {
            dir: dir.into(),
            fingerprint: workspace_fingerprint().to_string(),
        }
    }

    /// Opens a cache with an explicit fingerprint (tests use this to
    /// simulate a code change without recompiling).
    pub fn with_fingerprint(
        dir: impl Into<PathBuf>,
        fingerprint: impl Into<String>,
    ) -> ResultCache {
        ResultCache {
            dir: dir.into(),
            fingerprint: fingerprint.into(),
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The stable hex key for `spec` under the current fingerprint.
    pub fn key(&self, spec: &PointSpec) -> String {
        let material = format!("{}|fingerprint={}", spec.canonical(), self.fingerprint);
        format!("{:016x}", fnv64(material.as_bytes()))
    }

    fn entry_path(&self, spec: &PointSpec) -> PathBuf {
        self.dir.join(format!("{}.json", self.key(spec)))
    }

    /// Looks up `spec`. Any defect — missing file, unparsable JSON,
    /// canonical/fingerprint mismatch, missing report field — is a miss.
    pub fn load(&self, spec: &PointSpec) -> Option<RunReport> {
        pimdsm_prof::phase!(Phase::CacheLoad);
        let text = fs::read_to_string(self.entry_path(spec)).ok()?;
        let doc = json::parse(&text).ok()?;
        if doc.get("canonical")?.as_str()? != spec.canonical() {
            return None;
        }
        if doc.get("fingerprint")?.as_str()? != self.fingerprint {
            return None;
        }
        RunReport::from_json(doc.get("report")?).ok()
    }

    /// Stores `report` for `spec`, creating the cache directory on first
    /// use. Write errors are reported on stderr and otherwise ignored —
    /// a broken cache only costs re-simulation.
    pub fn store(&self, spec: &PointSpec, report: &RunReport) {
        pimdsm_prof::phase!(Phase::CacheStore);
        if let Err(e) = fs::create_dir_all(&self.dir) {
            eprintln!("[lab] cannot create cache dir {}: {e}", self.dir.display());
            return;
        }
        let doc = JsonValue::obj([
            ("canonical", JsonValue::str(spec.canonical())),
            ("fingerprint", JsonValue::str(self.fingerprint.as_str())),
            ("report", report.to_json()),
        ]);
        let path = self.entry_path(spec);
        let tmp = path.with_extension("json.tmp");
        // Write-then-rename so a sweep killed mid-store never leaves a
        // half-written entry that `load` would have to reject.
        if let Err(e) = fs::write(&tmp, doc.render_pretty()).and_then(|()| fs::rename(&tmp, &path))
        {
            eprintln!("[lab] cache store failed for {}: {e}", path.display());
        }
    }

    /// Deletes every entry. Returns how many files were removed.
    pub fn clean(&self) -> usize {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return 0;
        };
        let mut removed = 0;
        for entry in entries.flatten() {
            let path = entry.path();
            let is_entry = path.extension().is_some_and(|e| e == "json" || e == "tmp");
            if is_entry && fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Config, MachineSpec, WorkloadSpec};
    use pimdsm_workloads::{AppId, Scale};

    fn point(label: &str) -> PointSpec {
        PointSpec {
            workload: WorkloadSpec::App {
                app: AppId::Fft,
                threads: 2,
            },
            machine: MachineSpec::Arch(Config::Agg {
                ratio: 1,
                pressure_pct: 75,
            }),
            scale: Scale::ci(),
            fault: None,
            label: label.to_string(),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pimdsm-lab-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn key_is_stable_and_spec_sensitive() {
        let cache = ResultCache::with_fingerprint(tmp_dir("key"), "f00d");
        let a = cache.key(&point("A"));
        assert_eq!(a, cache.key(&point("A")), "same spec, same key");
        assert_eq!(a.len(), 16);
        assert_ne!(a, cache.key(&point("B")), "label is part of the key");
        let other = ResultCache::with_fingerprint(tmp_dir("key"), "beef");
        assert_ne!(a, other.key(&point("A")), "fingerprint is part of the key");
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = tmp_dir("roundtrip");
        let cache = ResultCache::with_fingerprint(&dir, "f00d");
        let spec = point("1/1AGG75");
        assert!(cache.load(&spec).is_none(), "cold cache misses");
        let report = spec.build_machine().run();
        cache.store(&spec, &report);
        let restored = cache.load(&spec).expect("warm cache hits");
        assert_eq!(
            restored.to_json().render_pretty(),
            report.to_json().render_pretty(),
            "cached report must re-render byte-identically"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_change_invalidates() {
        let dir = tmp_dir("invalidate");
        let spec = point("1/1AGG75");
        let report = spec.build_machine().run();
        ResultCache::with_fingerprint(&dir, "old").store(&spec, &report);
        assert!(
            ResultCache::with_fingerprint(&dir, "new")
                .load(&spec)
                .is_none(),
            "a code change (new fingerprint) must miss"
        );
        assert!(
            ResultCache::with_fingerprint(&dir, "old")
                .load(&spec)
                .is_some(),
            "the old fingerprint still hits its own entry"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_a_miss() {
        let dir = tmp_dir("corrupt");
        let cache = ResultCache::with_fingerprint(&dir, "f00d");
        let spec = point("1/1AGG75");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(format!("{}.json", cache.key(&spec))), "{ not json").unwrap();
        assert!(cache.load(&spec).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Well-formed JSON whose histogram buckets do not sum to its count
    /// must be rejected by the decoder, not panic inside `load` (which
    /// runs outside the executor's `catch_unwind`).
    #[test]
    fn inconsistent_histogram_entry_is_a_miss() {
        let dir = tmp_dir("histogram");
        let cache = ResultCache::with_fingerprint(&dir, "f00d");
        let spec = point("1/1AGG75");
        let mut report = spec.build_machine().run();
        let mut svc = pimdsm_svc::SvcStats::default();
        svc.record(pimdsm_svc::stats::CLASS_GET, 100);
        report.svc = Some(svc);
        cache.store(&spec, &report);
        assert!(cache.load(&spec).is_some(), "the intact entry hits");

        let path = dir.join(format!("{}.json", cache.key(&spec)));
        let mut doc = json::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        let count = ["report", "svc", "latency", "count"]
            .into_iter()
            .fold(&mut doc, |v, key| match v {
                JsonValue::Obj(m) => m.get_mut(key).expect("entry field"),
                _ => panic!("{key}: parent is not an object"),
            });
        *count = JsonValue::u64(count.as_u64().unwrap() + 1);
        fs::write(&path, doc.render_pretty()).unwrap();
        assert!(cache.load(&spec).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_removes_entries() {
        let dir = tmp_dir("clean");
        let cache = ResultCache::with_fingerprint(&dir, "f00d");
        let spec = point("1/1AGG75");
        let report = spec.build_machine().run();
        cache.store(&spec, &report);
        assert_eq!(cache.clean(), 1);
        assert!(cache.load(&spec).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
