//! Graph corpus registry: keyed, Arc-shared, LRU-evicted graph cache.
//!
//! Requests name graphs by *corpus key*, resolved on first use and kept
//! resident under a byte budget (sized by [`CsrGraph::memory_bytes`],
//! the same CSR footprint the paper reports in §4.1). Eviction is
//! least-recently-used; an in-flight request keeps its graph alive
//! through its `Arc` even after eviction.
//!
//! Supported keys:
//!
//! * any suite graph name from [`db_gen::Suite`] (e.g. `euro_osm`);
//! * `grid:W:H` — undirected W×H lattice;
//! * `path:N` — undirected N-vertex path (worst case for DFS stealing);
//! * `dag:N` — directed acyclic layered chain (`i → i+1`, `i → i+2`);
//! * `ring:N` — directed N-cycle (one SCC);
//! * `store:/path/to/pack.dbsg` — a packed graph mmap-loaded through
//!   `db-store` (everything after the prefix is the filesystem path).
//!
//! All synthetic recipes are deterministic and RNG-free, so a corpus
//! key names the same graph in every process — a requirement for the
//! load generator's cross-run outcome comparison. A `store:` key is as
//! deterministic as the bytes it names: the pack's checksums reject any
//! drift.
//!
//! Every graph is validated once, when it is admitted: the cache keeps
//! a [`ValidStore`], the proof the served kernel needs, so no request
//! re-runs the `O(n + m)` CSR check.
//!
//! Residency accounting charges [`db_graph::GraphStore::charged_bytes`]
//! rather than the raw CSR footprint: an mmap-loaded store's pages are
//! shared and only page-cache resident where touched, so it charges the
//! header plus the hot-section estimate instead of the full file — a
//! 50M-arc pack no longer evicts the whole rest of the corpus on open.

use db_core::ValidCsr;
use db_graph::{builder::from_edge_list, CsrGraph, GraphBuilder, GraphStore};
use db_metrics::{Counter, Gauge, Registry};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Corpus-key prefix selecting the packed-store loader.
pub const STORE_PREFIX: &str = "store:";

/// A resident corpus graph proved valid when it was admitted.
pub type ValidStore = ValidCsr<Arc<dyn GraphStore>>;

/// Keyed graph cache with a byte budget and LRU eviction.
///
/// Hit/miss/eviction counts and residency gauges are registry series
/// (`db_serve_cache_*`, `db_serve_resident_*`), so the cache reports
/// the same numbers through [`CorpusCache::hits`]-style accessors and
/// through a Prometheus scrape of the owning registry.
#[derive(Debug)]
pub struct CorpusCache {
    budget_bytes: usize,
    inner: Mutex<CacheInner>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    resident_graphs: Gauge,
    resident_bytes: Gauge,
    store_loads: Counter,
    store_load_failures: Counter,
    store_corruptions: Counter,
    store_mapped_bytes: Gauge,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<String, Entry>,
    total_bytes: usize,
    mapped_bytes: usize,
    tick: u64,
}

#[derive(Debug)]
struct Entry {
    store: ValidStore,
    bytes: usize,
    mapped: usize,
    last_use: u64,
}

/// Outcome of a [`CorpusCache::resolve`] call, for metrics/tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolveInfo {
    /// Whether the graph was already resident.
    pub hit: bool,
    /// Graphs resident after the call.
    pub resident: usize,
}

impl CorpusCache {
    /// Creates a cache bounded to roughly `budget_bytes` of CSR data.
    /// A single graph larger than the whole budget is still admitted
    /// (alone); the budget bounds the *sum* of resident graphs.
    ///
    /// Registers its series in a private throwaway registry; use
    /// [`CorpusCache::new_in`] to make them scrapeable.
    pub fn new(budget_bytes: usize) -> Self {
        Self::new_in(budget_bytes, &Registry::new())
    }

    /// Like [`CorpusCache::new`], registering the cache's counter and
    /// gauge series in `reg` (the server instance's registry).
    pub fn new_in(budget_bytes: usize, reg: &Registry) -> Self {
        CorpusCache {
            budget_bytes,
            inner: Mutex::new(CacheInner::default()),
            hits: reg.counter("db_serve_cache_hits_total", "Corpus-cache hits", &[]),
            misses: reg.counter(
                "db_serve_cache_misses_total",
                "Corpus-cache misses (graph builds)",
                &[],
            ),
            evictions: reg.counter(
                "db_serve_cache_evictions_total",
                "Graphs evicted from the corpus cache",
                &[],
            ),
            resident_graphs: reg.gauge(
                "db_serve_resident_graphs",
                "Graphs currently resident in the corpus cache",
                &[],
            ),
            resident_bytes: reg.gauge(
                "db_serve_resident_bytes",
                "Charged bytes currently resident in the corpus cache",
                &[],
            ),
            store_loads: reg.counter(
                "db_store_loads_total",
                "Packed-store loads attempted by the corpus cache",
                &[],
            ),
            store_load_failures: reg.counter(
                "db_store_load_failures_total",
                "Packed-store loads rejected with a typed error",
                &[],
            ),
            store_corruptions: reg.counter(
                "db_store_corruptions_detected_total",
                "Injected store corruptions caught by pack checksums",
                &[],
            ),
            store_mapped_bytes: reg.gauge(
                "db_store_resident_mapped_bytes",
                "Zero-copy mmap bytes referenced by resident stores",
                &[],
            ),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Returns the store for `key`, building (or mmap-loading, for
    /// `store:` keys), validating and caching it on a miss.
    pub fn resolve(&self, key: &str) -> Result<(Arc<dyn GraphStore>, ResolveInfo), String> {
        self.resolve_valid(key)
            .map(|(store, info)| (Arc::clone(store.holder()), info))
    }

    /// [`CorpusCache::resolve`] keeping the validity proof.
    ///
    /// The build and the check happen under the cache lock: concurrent
    /// requests for the same key build once and the losers wait, at the
    /// cost of serializing first-touch builds of *different* graphs. For
    /// a serving corpus (few graphs, many requests) the steady state is
    /// all hits, so the simple lock wins over per-key once-cells.
    pub fn resolve_valid(&self, key: &str) -> Result<(ValidStore, ResolveInfo), String> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(e) = inner.map.get_mut(key) {
            e.last_use = tick;
            let g = e.store.clone();
            let resident = inner.map.len();
            drop(inner);
            self.hits.inc();
            return Ok((
                g,
                ResolveInfo {
                    hit: true,
                    resident,
                },
            ));
        }
        let store = validated(key, self.build_store_counted(key)?)?;
        // Charged bytes, not raw footprint: mmap'd sections charge the
        // hot-section estimate so one big pack doesn't flush the cache.
        let bytes = store.holder().charged_bytes();
        let mapped = store.holder().mapped_bytes();
        // Evict LRU entries until the newcomer fits (or nothing is left).
        while inner.total_bytes + bytes > self.budget_bytes && !inner.map.is_empty() {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| k.clone())
                .expect("nonempty map has a minimum");
            let e = inner.map.remove(&victim).expect("victim present");
            inner.total_bytes -= e.bytes;
            inner.mapped_bytes -= e.mapped;
            self.evictions.inc();
        }
        inner.total_bytes += bytes;
        inner.mapped_bytes += mapped;
        inner.map.insert(
            key.to_string(),
            Entry {
                store: store.clone(),
                bytes,
                mapped,
                last_use: tick,
            },
        );
        let resident = inner.map.len();
        self.resident_graphs.set(resident as u64);
        self.resident_bytes.set(inner.total_bytes as u64);
        self.store_mapped_bytes.set(inner.mapped_bytes as u64);
        drop(inner);
        self.misses.inc();
        Ok((
            store,
            ResolveInfo {
                hit: false,
                resident,
            },
        ))
    }

    /// [`build_store`] with the cache's `db_store_*` load counters.
    fn build_store_counted(&self, key: &str) -> Result<Arc<dyn GraphStore>, String> {
        if key.starts_with(STORE_PREFIX) {
            self.store_loads.inc();
            let r = build_store(key);
            if r.is_err() {
                self.store_load_failures.inc();
            }
            r
        } else {
            build_store(key)
        }
    }

    /// Fault-injection probe: attempts a *fresh, uncached* load of a
    /// `store:` key with one deterministic byte flipped in a loaded
    /// section (see `db_fault::Injector::check_store`). The pack
    /// checksums are expected to catch the flip: the result is almost
    /// always a typed error, which the pool turns into a per-request
    /// failure while the cached, intact store keeps serving everyone
    /// else. Counts `db_store_corruptions_detected_total` when the
    /// checksum fires. Non-`store:` keys resolve normally (the
    /// store-load fault site does not apply to built graphs).
    pub fn resolve_corrupted(
        &self,
        key: &str,
        corrupt_seed: u64,
    ) -> Result<(ValidStore, ResolveInfo), String> {
        let Some(path) = key.strip_prefix(STORE_PREFIX) else {
            return self.resolve_valid(key);
        };
        self.store_loads.inc();
        let opts = db_store::LoadOptions {
            corrupt_seed: Some(corrupt_seed),
            ..Default::default()
        };
        match db_store::load_with(path, &opts) {
            Ok(store) => {
                // The flip landed outside any verified payload (e.g. in
                // alignment padding) — the load is intact; serve it
                // without caching the probe.
                let resident = self.lock().map.len();
                Ok((
                    validated(key, Arc::new(store))?,
                    ResolveInfo {
                        hit: false,
                        resident,
                    },
                ))
            }
            Err(e) => {
                self.store_load_failures.inc();
                self.store_corruptions.inc();
                Err(format!("store load corrupted: {e}"))
            }
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Cache misses (= builds) so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Graphs evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// `(resident graph count, resident bytes)`.
    pub fn resident(&self) -> (usize, usize) {
        let inner = self.lock();
        (inner.map.len(), inner.total_bytes)
    }
}

/// Admission check: proves `store` valid or names its defect.
fn validated(key: &str, store: Arc<dyn GraphStore>) -> Result<ValidStore, String> {
    ValidCsr::new(store).map_err(|e| format!("corpus key '{key}': invalid graph: {e}"))
}

/// Resolves a corpus key to a [`GraphStore`]: `store:` keys mmap-load a
/// `.dbsg` pack through `db-store` (typed load errors stringified, the
/// serve path never panics on file bytes); everything else builds an
/// in-RAM graph via [`build_graph`].
pub fn build_store(key: &str) -> Result<Arc<dyn GraphStore>, String> {
    match key.strip_prefix(STORE_PREFIX) {
        Some("") => Err("corpus key 'store:': missing path".to_string()),
        Some(path) => db_store::load(path)
            .map(|s| Arc::new(s) as Arc<dyn GraphStore>)
            .map_err(|e| format!("corpus key '{key}': {e}")),
        None => Ok(Arc::new(build_graph(key)?) as Arc<dyn GraphStore>),
    }
}

/// Builds the graph a corpus key names. Synthetic recipes first, then
/// the benchmark suite registry.
pub fn build_graph(key: &str) -> Result<CsrGraph, String> {
    let mut parts = key.split(':');
    let head = parts.next().unwrap_or_default();
    let dims: Vec<&str> = parts.collect();
    let dim = |i: usize| -> Result<u32, String> {
        dims.get(i)
            .and_then(|s| s.parse::<u32>().ok())
            .filter(|&v| v > 0)
            .ok_or_else(|| format!("corpus key '{key}': bad dimension"))
    };
    match (head, dims.len()) {
        ("grid", 2) => {
            let (w, h) = (dim(0)?, dim(1)?);
            w.checked_mul(h)
                .ok_or_else(|| format!("corpus key '{key}': grid too large"))?;
            let mut edges = Vec::with_capacity((w * h * 2) as usize);
            for y in 0..h {
                for x in 0..w {
                    let v = y * w + x;
                    if x + 1 < w {
                        edges.push((v, v + 1));
                    }
                    if y + 1 < h {
                        edges.push((v, v + w));
                    }
                }
            }
            Ok(GraphBuilder::undirected(w * h).edges(edges).build())
        }
        ("path", 1) => {
            let n = dim(0)?;
            let edges: Vec<(u32, u32)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
            Ok(GraphBuilder::undirected(n).edges(edges).build())
        }
        ("dag", 1) => {
            let n = dim(0)?;
            let mut edges = Vec::with_capacity(2 * n as usize);
            for i in 0..n {
                if i + 1 < n {
                    edges.push((i, i + 1));
                }
                if i + 2 < n {
                    edges.push((i, i + 2));
                }
            }
            Ok(from_edge_list(n, &edges, true))
        }
        ("ring", 1) => {
            let n = dim(0)?;
            let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
            Ok(from_edge_list(n, &edges, true))
        }
        _ => match db_gen::Suite::by_name(key) {
            Some(spec) => Ok(spec.build()),
            None => Err(format!(
                "unknown corpus key '{key}' (expected a suite graph name or \
                 grid:W:H | path:N | dag:N | ring:N)"
            )),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_recipes_build() {
        let g = build_graph("grid:4:3").unwrap();
        assert_eq!(g.num_vertices(), 12);
        assert!(!g.is_directed());
        // 4x3 lattice: 3*3 horizontal + 4*2 vertical edges.
        assert_eq!(g.num_edges(), 17);

        let p = build_graph("path:5").unwrap();
        assert_eq!(p.num_edges(), 4);

        let d = build_graph("dag:6").unwrap();
        assert!(d.is_directed());
        assert_eq!(d.num_arcs(), 5 + 4);

        let r = build_graph("ring:4").unwrap();
        assert!(r.is_directed());
        assert_eq!(r.num_arcs(), 4);
    }

    #[test]
    fn bad_keys_are_errors() {
        for k in ["", "grid:0:4", "grid:4", "path:x", "no_such_graph", "dag"] {
            assert!(build_graph(k).is_err(), "accepted: {k}");
        }
    }

    #[test]
    fn suite_names_resolve() {
        let g = build_graph("euro_osm").unwrap();
        assert!(g.num_vertices() > 0);
    }

    #[test]
    fn cache_hits_after_first_resolve() {
        let c = CorpusCache::new(usize::MAX);
        let (g1, i1) = c.resolve("grid:8:8").unwrap();
        let (g2, i2) = c.resolve("grid:8:8").unwrap();
        assert!(!i1.hit);
        assert!(i2.hit);
        assert!(Arc::ptr_eq(&g1, &g2));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.resident().0, 1);
    }

    #[test]
    fn lru_eviction_respects_budget() {
        // Each path:1000 graph is 1001*8 + ~1998*4 bytes ≈ 16 KB.
        let one = build_graph("path:1000").unwrap().memory_bytes();
        let c = CorpusCache::new(one * 2 + one / 2); // room for two
        c.resolve("path:1000").unwrap();
        c.resolve("path:1001").unwrap();
        c.resolve("path:1000").unwrap(); // refresh: 1001 is now LRU
        c.resolve("path:1002").unwrap(); // evicts 1001
        assert_eq!(c.evictions(), 1);
        let (n, bytes) = c.resident();
        assert_eq!(n, 2);
        assert!(bytes <= one * 2 + one / 2);
        let (_, info) = c.resolve("path:1000").unwrap();
        assert!(info.hit, "recently used survivor must still be resident");
        let (_, info) = c.resolve("path:1001").unwrap();
        assert!(!info.hit, "LRU entry must have been evicted");
    }

    #[test]
    fn cache_series_track_residency_in_the_registry() {
        let reg = Registry::new();
        let c = CorpusCache::new_in(usize::MAX, &reg);
        c.resolve("grid:8:8").unwrap();
        c.resolve("grid:8:8").unwrap();
        let exp = db_metrics::parse_exposition(&reg.render_prometheus()).unwrap();
        let get = |n: &str| exp.samples.iter().find(|s| s.name == n).unwrap().value;
        assert_eq!(get("db_serve_cache_hits_total"), 1.0);
        assert_eq!(get("db_serve_cache_misses_total"), 1.0);
        assert_eq!(get("db_serve_resident_graphs"), 1.0);
        assert!(get("db_serve_resident_bytes") > 0.0);
    }

    #[test]
    fn oversized_graph_still_admitted_alone() {
        let c = CorpusCache::new(1); // everything is over budget
        let (_, i1) = c.resolve("path:100").unwrap();
        assert_eq!(i1.resident, 1);
        let (_, i2) = c.resolve("path:200").unwrap();
        assert_eq!(i2.resident, 1, "previous graph must be evicted");
    }
}
