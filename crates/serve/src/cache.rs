//! Content-addressed artifact cache.
//!
//! Keyed on [`spam_scenario::spec_fingerprint`] — a streaming FNV-1a
//! over the spec's topology + fault prefix and replication index, the
//! exact inputs that determine the expensive environment artifacts
//! (topology, up*/down* labeling, degraded survivor, storm epoch chain).
//! Two requests that differ only in traffic, seeds downstream of the
//! prefix, routing, or engine knobs share an entry and skip straight to
//! traffic generation.
//!
//! The hit path is allocation-free: fingerprint the borrowed spec, probe
//! the map, verify the stored [`ArtifactPrefix`] field-by-field (a
//! fingerprint collision is a typed [`ServeError::CachePoisoned`], never
//! a silently wrong artifact), bump the LRU tick, clone the `Arc`. The
//! `cache_zero_alloc` guard pins this at exactly zero.
//!
//! Eviction is LRU under two budgets — entry count and charged bytes.
//! An entry is charged [`ScenarioArtifacts::approx_bytes`] once, at
//! insert: the size it would reach with every routing arm attached and
//! every residual-distance row built. Rows fill in while the entry is
//! resident, so what the entries really hold is at most what they were
//! charged for; the byte budget is a hard bound on the heap, and
//! [`CacheStats::bytes`] a ceiling on it, not a reading. The cache
//! persists across restarts as a `SPAMSNAP` manifest of canonical prefix
//! JSON (artifacts themselves are rebuilt deterministically on load, so
//! the manifest stays small and version-tolerant).

use crate::error::ServeError;
use spam_scenario::{spec_fingerprint, ArtifactPrefix, ScenarioArtifacts, ScenarioSpec};
use spam_snapshot::{SnapReader, SnapWriter};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Section tag for the manifest index (entry count).
const TAG_CACHE_INDEX: u32 = 0x5643_0001;
/// Section tag for one cached entry (fingerprint + canonical prefix).
const TAG_CACHE_ENTRY: u32 = 0x5643_0002;

/// Cache sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum resident entries (LRU evicts beyond this).
    pub max_entries: usize,
    /// Budget for the bytes charged across all entries (each entry's
    /// fully built size, see the module header). A single
    /// entry larger than the whole budget is kept (the cache never
    /// evicts down to empty).
    pub max_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_entries: 64,
            max_bytes: 256 << 20,
        }
    }
}

/// Monotonic hit/miss/eviction counters plus current occupancy —
/// embedded in every result line so clients observe cache behavior
/// in-band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from a resident entry.
    pub hits: u64,
    /// Lookups that had to build artifacts.
    pub misses: u64,
    /// Entries evicted by the LRU budgets.
    pub evictions: u64,
    /// Resident entries right now.
    pub entries: usize,
    /// Bytes charged for the resident entries right now: a ceiling on
    /// what they hold (each is charged its fully built size at insert),
    /// not a measurement of it.
    pub bytes: usize,
}

struct Entry {
    arts: Arc<ScenarioArtifacts>,
    bytes: usize,
    last_used: u64,
}

/// The content-addressed artifact store. Single-threaded by design —
/// the daemon owns it behind its state lock, so lookups stay
/// deterministic in request order.
pub struct ArtifactCache {
    cfg: CacheConfig,
    map: HashMap<u64, Entry>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A dropped cache releases its entries oldest first — the order
/// eviction would have released them in — not in the map's hash order,
/// which `RandomState` draws anew in every process. The entries of a
/// large fabric are the biggest blocks a daemon owns; freed in a random
/// order they leave the allocator's free lists in a different state each
/// time, and the next cache built in the same process (a restart, a test,
/// a benchmark set-up) inherits it: the same 640 cold 1024-switch
/// requests took 215 page faults in one process and 31 046 in the next.
impl Drop for ArtifactCache {
    fn drop(&mut self) {
        let mut entries: Vec<Entry> = self.map.drain().map(|(_, e)| e).collect();
        entries.sort_unstable_by_key(|e| e.last_used);
    }
}

impl ArtifactCache {
    /// An empty cache with the given budgets.
    pub fn new(cfg: CacheConfig) -> Self {
        ArtifactCache {
            cfg,
            map: HashMap::new(),
            bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Fetches (or builds and inserts) the artifacts for `spec`'s
    /// replication `rep`. Returns the artifacts and whether this was a
    /// hit. A build failure is the spec's fault ([`ServeError::Spec`]);
    /// a fingerprint collision against a resident entry is
    /// [`ServeError::CachePoisoned`].
    pub fn lookup(
        &mut self,
        spec: &ScenarioSpec,
        rep: u32,
    ) -> Result<(Arc<ScenarioArtifacts>, bool), ServeError> {
        let fp = spec_fingerprint(spec, rep);
        self.tick += 1;
        if let Some(e) = self.map.get_mut(&fp) {
            if !e.arts.prefix.matches(spec, rep) {
                return Err(ServeError::CachePoisoned {
                    detail: format!("fingerprint collision on {fp:#018x}"),
                });
            }
            e.last_used = self.tick;
            self.hits += 1;
            return Ok((Arc::clone(&e.arts), true));
        }
        self.misses += 1;
        let arts = Arc::new(ArtifactPrefix::of(spec, rep).build()?);
        self.insert(fp, arts.clone());
        Ok((arts, false))
    }

    fn insert(&mut self, fp: u64, arts: Arc<ScenarioArtifacts>) {
        let bytes = arts.approx_bytes();
        self.bytes += bytes;
        self.map.insert(
            fp,
            Entry {
                arts,
                bytes,
                last_used: self.tick,
            },
        );
        self.evict_to_budget();
    }

    fn evict_to_budget(&mut self) {
        while self.map.len() > 1
            && (self.map.len() > self.cfg.max_entries || self.bytes > self.cfg.max_bytes)
        {
            // O(n) LRU scan; n is bounded by max_entries and lookups
            // dominate, so a heap buys nothing here.
            let Some((&victim, _)) = self.map.iter().min_by_key(|(_, e)| e.last_used) else {
                return;
            };
            if let Some(e) = self.map.remove(&victim) {
                self.bytes -= e.bytes;
                self.evictions += 1;
            }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            bytes: self.bytes,
        }
    }

    /// Serializes the manifest: one section per resident entry, oldest
    /// first (so a reload replays insertions in LRU order), each holding
    /// the fingerprint plus the canonical prefix JSON it must match. It
    /// carries the snapshot container's format version, so a manifest
    /// saved under another version fails to load with the container's
    /// `VersionSkew` (as [`ServeError::CachePoisoned`]), and the daemon's
    /// `--persist` start answers that, like any load error, by starting
    /// cold.
    pub fn manifest_bytes(&self) -> Vec<u8> {
        let mut order: Vec<(&u64, &Entry)> = self.map.iter().collect();
        order.sort_by_key(|(_, e)| e.last_used);
        let mut w = SnapWriter::new();
        w.begin();
        let patch = w.begin_section(TAG_CACHE_INDEX);
        w.put_len(order.len());
        w.end_section(patch);
        for (fp, e) in order {
            let patch = w.begin_section(TAG_CACHE_ENTRY);
            w.put_u64(*fp);
            w.put_str(&e.arts.prefix.canonical_json());
            w.end_section(patch);
        }
        w.seal().to_vec()
    }

    /// Writes the manifest to `path` ([`ServeError::Io`] on failure).
    pub fn save_manifest(&self, path: &Path) -> Result<(), ServeError> {
        std::fs::write(path, self.manifest_bytes())?;
        Ok(())
    }

    /// Rebuilds a warm cache from manifest bytes. Every entry is
    /// checksum-verified by the container, its stored fingerprint is
    /// recomputed from the decoded prefix, and its artifacts are rebuilt
    /// deterministically. Any mismatch is [`ServeError::CachePoisoned`] —
    /// the caller decides whether to start cold instead.
    pub fn from_manifest_bytes(bytes: &[u8], cfg: CacheConfig) -> Result<Self, ServeError> {
        let mut r = SnapReader::open(bytes)?;
        r.expect_section(TAG_CACHE_INDEX)?;
        let count = r.get_len()?;
        let mut cache = ArtifactCache::new(cfg);
        for _ in 0..count {
            r.expect_section(TAG_CACHE_ENTRY)?;
            let fp = r.get_u64()?;
            let text = r.get_str()?;
            let prefix = ArtifactPrefix::from_canonical_json(text).map_err(|e| {
                ServeError::CachePoisoned {
                    detail: format!("manifest prefix does not decode: {e}"),
                }
            })?;
            if prefix.fingerprint() != fp {
                return Err(ServeError::CachePoisoned {
                    detail: format!(
                        "manifest fingerprint {fp:#018x} does not match its own prefix"
                    ),
                });
            }
            let arts = prefix.build().map_err(|e| ServeError::CachePoisoned {
                detail: format!("manifest prefix does not build: {e}"),
            })?;
            cache.tick += 1;
            cache.insert(fp, Arc::new(arts));
        }
        r.finish()?;
        Ok(cache)
    }

    /// Loads a warm cache from a manifest file. A missing or unreadable
    /// file is [`ServeError::Io`]; a corrupt one is
    /// [`ServeError::CachePoisoned`].
    pub fn load_manifest(path: &Path, cfg: CacheConfig) -> Result<Self, ServeError> {
        let bytes = std::fs::read(path)?;
        Self::from_manifest_bytes(&bytes, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(switches: usize, seed: u64) -> ScenarioSpec {
        let mut spec = ScenarioSpec::example("cache-test");
        spec.topology.switches = switches;
        spec.topology.seed = seed;
        spec.traffic = spam_scenario::TrafficSpec::SingleMulticast { dests: 4, len: 64 };
        spec.replications = 1;
        spec
    }

    #[test]
    fn hit_shares_artifacts_and_counts() {
        let mut cache = ArtifactCache::new(CacheConfig::default());
        let spec = small_spec(16, 3);
        let (a, hit_a) = cache.lookup(&spec, 0).unwrap();
        assert!(!hit_a);
        // Traffic-only change: same prefix, must hit and share the Arc.
        let mut warm = spec.clone();
        warm.seed ^= 0xdead_beef;
        warm.name = "different-name".into();
        let (b, hit_b) = cache.lookup(&warm, 0).unwrap();
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.bytes > 0);
    }

    #[test]
    fn lru_eviction_respects_entry_budget() {
        let mut cache = ArtifactCache::new(CacheConfig {
            max_entries: 2,
            max_bytes: usize::MAX,
        });
        let specs: Vec<_> = (0..3).map(|i| small_spec(16, i)).collect();
        for s in &specs {
            cache.lookup(s, 0).unwrap();
        }
        let st = cache.stats();
        assert_eq!((st.entries, st.evictions), (2, 1));
        // Oldest (seed 0) was evicted; seed 1 and 2 still hit.
        assert!(cache.lookup(&specs[2], 0).unwrap().1);
        assert!(cache.lookup(&specs[1], 0).unwrap().1);
        assert!(!cache.lookup(&specs[0], 0).unwrap().1);
    }

    #[test]
    fn byte_budget_evicts_but_keeps_last_entry() {
        // A budget smaller than any one entry: each insert evicts the
        // previous entry but the newest always survives.
        let mut cache = ArtifactCache::new(CacheConfig {
            max_entries: 8,
            max_bytes: 1,
        });
        for i in 0..3 {
            cache.lookup(&small_spec(16, i), 0).unwrap();
            assert_eq!(cache.stats().entries, 1);
        }
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn manifest_round_trips_a_warm_cache() {
        let mut cache = ArtifactCache::new(CacheConfig::default());
        let specs: Vec<_> = (0..3).map(|i| small_spec(16 + i as usize, 7)).collect();
        for s in &specs {
            cache.lookup(s, 0).unwrap();
        }
        let bytes = cache.manifest_bytes();
        let mut warm = ArtifactCache::from_manifest_bytes(&bytes, CacheConfig::default()).unwrap();
        assert_eq!(warm.stats().entries, 3);
        // Every original spec now hits without a rebuild.
        for s in &specs {
            assert!(warm.lookup(s, 0).unwrap().1);
        }
        assert_eq!(warm.stats().misses, 0);
    }

    #[test]
    fn corrupt_manifest_is_typed_not_a_panic() {
        let mut cache = ArtifactCache::new(CacheConfig::default());
        cache.lookup(&small_spec(16, 1), 0).unwrap();
        let mut bytes = cache.manifest_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let err = ArtifactCache::from_manifest_bytes(&bytes, CacheConfig::default())
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.variant_name(), "CachePoisoned");
    }

    #[test]
    fn manifest_of_another_format_version_is_typed() {
        let mut cache = ArtifactCache::new(CacheConfig::default());
        cache.lookup(&small_spec(16, 1), 0).unwrap();
        let mut bytes = cache.manifest_bytes();
        // The version word follows the 8-byte magic; re-seal around it.
        let older = spam_snapshot::FORMAT_VERSION - 1;
        bytes[8..12].copy_from_slice(&older.to_le_bytes());
        let body = bytes.len() - 8;
        let sum = spam_snapshot::fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        let err = ArtifactCache::from_manifest_bytes(&bytes, CacheConfig::default())
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.variant_name(), "CachePoisoned");
        assert!(
            err.to_string()
                .contains(&format!("format version {older} unsupported")),
            "{err}"
        );
    }
}
