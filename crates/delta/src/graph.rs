//! Epoch-versioned graph: frozen base CSR + published delta layers.
//!
//! ## Lifecycle
//!
//! ```text
//!          add/del (batch)          publish            compact
//!   pending ───────────────► layer(e+1) ───► current=e+1 ───► new base
//!                                                  ▲               │
//!        pin(e) ◄── readers hold Arc<CsrGraph> ────┘   folds layers ≤ min pin
//! ```
//!
//! Writers stage mutations into a pending delta and publish them with
//! an epoch bump, all under one mutex acquisition per batch. Readers
//! [`DeltaGraph::pin`] the current epoch and receive an [`EpochPin`]
//! guard holding a fully materialized [`CsrGraph`] snapshot behind an
//! `Arc` — the traversal engines (serial, native, lockfree,
//! partitioned) consume it unchanged, and compaction can never
//! invalidate it because the guard owns a strong reference.
//!
//! Compaction folds every layer at or below the lowest pinned epoch
//! into a new base CSR. The merge runs *outside* the lock against
//! snapshot references; the swap re-acquires the lock and verifies no
//! concurrent compaction won the race. [`CompactHook`] points let the
//! fault layer kill the merge mid-flight: an aborted merge makes zero
//! state changes, so no epoch can be lost or reclaimed early.

use crate::layer::{DeltaLayer, PendingDelta};
use db_graph::{CsrGraph, GraphStore};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Errors from mutation batches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// An endpoint is outside the fixed vertex space `0..n`.
    VertexOutOfRange {
        /// The offending vertex id.
        v: u32,
        /// The graph's vertex count.
        n: u32,
    },
    /// An endpoint refers to a vertex tombstoned in an earlier epoch
    /// (tombstones are final: deleted vertices never revive).
    Tombstoned(
        /// The tombstoned vertex id.
        u32,
    ),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::VertexOutOfRange { v, n } => {
                write!(f, "vertex {v} out of range (graph has {n} vertices)")
            }
            DeltaError::Tombstoned(v) => write!(f, "vertex {v} is tombstoned"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// Where a compaction hook fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactPoint {
    /// Before the out-of-lock merge starts. Aborting here models a
    /// worker killed at the start of compaction.
    Merge,
    /// After the merge, immediately before the in-lock swap. Aborting
    /// here models a worker killed with the new base fully built but
    /// not yet installed.
    Swap,
}

/// Hook return: keep going or simulate a crash at this point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactAction {
    /// Proceed normally.
    Continue,
    /// Abandon the compaction with zero state changes.
    Abort,
}

/// Fault hook consulted at each [`CompactPoint`].
pub type CompactHook<'a> = &'a mut dyn FnMut(CompactPoint) -> CompactAction;

/// Result of one compaction attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactOutcome {
    /// Nothing foldable (too few cold layers, or all pinned).
    NotNeeded,
    /// The hook aborted the attempt; state is unchanged.
    Aborted(
        /// The [`CompactPoint`] at which the abort struck.
        CompactPoint,
    ),
    /// A concurrent compaction installed a newer base first; this
    /// attempt discarded its work.
    Raced,
    /// Folded this many layers into a new base.
    Folded(
        /// Number of layers folded.
        usize,
    ),
}

/// Summary of one published mutation batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Publish {
    /// The epoch the batch became visible at.
    pub epoch: u64,
    /// Number of mutations applied (requested batch size).
    pub applied: usize,
    /// What the post-publish compaction attempt did.
    pub compaction: CompactOutcome,
}

/// Point-in-time counters, taken under the lock by
/// [`DeltaGraph::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Current epoch (0 before any publish).
    pub current_epoch: u64,
    /// Epoch the frozen base represents.
    pub base_epoch: u64,
    /// Epochs published over the graph's lifetime.
    pub epochs_published: u64,
    /// Compactions that folded layers into a new base.
    pub compactions: u64,
    /// Compaction attempts aborted by the fault hook.
    pub compactions_aborted: u64,
    /// Live (unfolded) delta layers.
    pub layers: usize,
    /// Approximate heap bytes held by live delta layers.
    pub delta_bytes: usize,
    /// Currently outstanding pins.
    pub pins_active: u64,
    /// High-water mark of simultaneously outstanding pins.
    pub pins_high_water: u64,
    /// Reachability queries answered from an unchanged-epoch cache or
    /// by incremental extension (maintained by
    /// [`IncrementalReach`](crate::IncrementalReach)).
    pub incremental_hits: u64,
}

struct Inner {
    base: Arc<dyn GraphStore>,
    base_epoch: u64,
    /// `layers[i].epoch() == base_epoch + i + 1`; contiguous by
    /// construction.
    layers: Vec<Arc<DeltaLayer>>,
    pending: PendingDelta,
    /// Epoch → outstanding pin count.
    pins: BTreeMap<u64, u64>,
    /// Materialized snapshots, keyed by epoch. An entry is dropped when
    /// its epoch is unpinned and no longer current; pins keep their own
    /// `Arc`, so eviction never invalidates a reader.
    snapshots: HashMap<u64, Arc<CsrGraph>>,
    stats: DeltaStats,
    /// Set while an out-of-lock merge is in flight, so concurrent
    /// publishes skip redundant attempts.
    compacting: bool,
}

/// An epoch-versioned graph: frozen base CSR plus delta overlays.
///
/// See the [module docs](self) for the lifecycle. All methods are
/// thread-safe; `pin` requires `Arc<DeltaGraph>` because the guard
/// keeps the graph alive.
pub struct DeltaGraph {
    inner: Mutex<Inner>,
    n: u32,
    directed: bool,
    /// Fold once this many cold layers accumulate.
    compact_threshold: usize,
}

impl fmt::Debug for DeltaGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        f.debug_struct("DeltaGraph")
            .field("n", &self.n)
            .field("directed", &self.directed)
            .field("epoch", &s.current_epoch)
            .field("base_epoch", &s.base_epoch)
            .field("layers", &s.layers)
            .finish()
    }
}

/// Default number of cold layers that triggers a fold.
pub const DEFAULT_COMPACT_THRESHOLD: usize = 8;

impl DeltaGraph {
    /// Wrap a frozen base store (in-RAM CSR or mmap'd pack) as epoch 0.
    pub fn new(base: Arc<dyn GraphStore>) -> Self {
        Self::with_threshold(base, DEFAULT_COMPACT_THRESHOLD)
    }

    /// Like [`DeltaGraph::new`] with an explicit compaction threshold
    /// (0 compacts after every publish; tests use small values).
    pub fn with_threshold(base: Arc<dyn GraphStore>, compact_threshold: usize) -> Self {
        Self::with_base_epoch(base, compact_threshold, 0)
    }

    /// Wrap a frozen base store that represents an already-advanced
    /// epoch — the recovery path hands a checkpoint pack here so that
    /// replaying the WAL tail republishes exactly the pre-crash epoch
    /// numbers.
    pub fn with_base_epoch(
        base: Arc<dyn GraphStore>,
        compact_threshold: usize,
        base_epoch: u64,
    ) -> Self {
        let g = base.graph();
        let (n, directed) = (g.num_vertices() as u32, g.is_directed());
        DeltaGraph {
            inner: Mutex::new(Inner {
                base,
                base_epoch,
                layers: Vec::new(),
                pending: PendingDelta::default(),
                pins: BTreeMap::new(),
                snapshots: HashMap::new(),
                stats: DeltaStats::default(),
                compacting: false,
            }),
            n,
            directed,
            compact_threshold: compact_threshold.max(1),
        }
    }

    /// Convenience: wrap an owned CSR directly.
    pub fn from_csr(g: CsrGraph) -> Self {
        Self::new(Arc::new(g))
    }

    /// Vertex count (fixed for the graph's lifetime).
    pub fn num_vertices(&self) -> usize {
        self.n as usize
    }

    /// Locks the mutable state. Poisoning means a mutator panicked
    /// mid-batch; there is no torn on-disk state to salvage (layers
    /// publish atomically), so propagating the panic is correct.
    fn state(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap() // io-ok: poison implies a prior panic; nothing durable is torn
    }

    /// Whether the base graph is directed. Undirected mutation batches
    /// stage both arc directions.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// The currently published epoch.
    pub fn current_epoch(&self) -> u64 {
        let inner = self.state();
        inner.base_epoch + inner.layers.len() as u64
    }

    /// Snapshot of the lifecycle counters.
    pub fn stats(&self) -> DeltaStats {
        let inner = self.state();
        let mut s = inner.stats;
        s.current_epoch = inner.base_epoch + inner.layers.len() as u64;
        s.base_epoch = inner.base_epoch;
        s.layers = inner.layers.len();
        s.delta_bytes = inner.layers.iter().map(|l| l.bytes()).sum();
        s
    }

    /// Record an incremental-reach hit (called by
    /// [`IncrementalReach`](crate::IncrementalReach)).
    pub(crate) fn note_incremental_hit(&self) {
        self.state().stats.incremental_hits += 1;
    }

    /// Published layers with epochs in `(from, to]`, oldest first.
    /// Returns `None` when compaction has already folded part of that
    /// range into the base (callers must fall back to a full rebuild).
    pub fn layers_between(&self, from: u64, to: u64) -> Option<Vec<Arc<DeltaLayer>>> {
        let inner = self.state();
        if from < inner.base_epoch || to > inner.base_epoch + inner.layers.len() as u64 {
            return None;
        }
        let lo = (from - inner.base_epoch) as usize;
        let hi = (to - inner.base_epoch) as usize;
        Some(inner.layers[lo..hi].to_vec())
    }

    fn validate(&self, inner: &Inner, endpoints: &[u32]) -> Result<(), DeltaError> {
        for &v in endpoints {
            if v >= self.n {
                return Err(DeltaError::VertexOutOfRange { v, n: self.n });
            }
            if inner.pending.is_tombstoned(v) || inner.layers.iter().any(|l| l.is_tombstoned(v)) {
                return Err(DeltaError::Tombstoned(v));
            }
        }
        Ok(())
    }

    /// Insert a batch of arcs and publish them as one epoch. For
    /// undirected graphs both directions are staged. Re-inserting an
    /// existing arc is idempotent at materialization (CSR rows dedup).
    /// Empty batches publish nothing and return the current epoch.
    pub fn add_edges(&self, edges: &[(u32, u32)]) -> Result<Publish, DeltaError> {
        self.mutate(edges, &[], &[], &mut |_| CompactAction::Continue)
    }

    /// Delete a batch of arcs and publish them as one epoch. Deleting
    /// an absent arc is a no-op at materialization.
    pub fn del_edges(&self, edges: &[(u32, u32)]) -> Result<Publish, DeltaError> {
        self.mutate(&[], edges, &[], &mut |_| CompactAction::Continue)
    }

    /// Tombstone vertices (all incident arcs disappear; tombstones are
    /// final) and publish as one epoch.
    pub fn del_vertices(&self, vs: &[u32]) -> Result<Publish, DeltaError> {
        self.mutate(&[], &[], vs, &mut |_| CompactAction::Continue)
    }

    /// Full-control batch publish: stage `adds`, `dels`, and vertex
    /// tombstones, publish one epoch, then attempt compaction with
    /// `hook` consulted at each [`CompactPoint`].
    pub fn mutate(
        &self,
        adds: &[(u32, u32)],
        dels: &[(u32, u32)],
        tombs: &[u32],
        hook: CompactHook<'_>,
    ) -> Result<Publish, DeltaError> {
        let applied = adds.len() + dels.len() + tombs.len();
        let epoch = {
            let mut inner = self.state();
            let mut endpoints: Vec<u32> = tombs.to_vec();
            for &(u, v) in adds.iter().chain(dels) {
                endpoints.push(u);
                endpoints.push(v);
            }
            self.validate(&inner, &endpoints)?;
            for &(u, v) in adds {
                inner.pending.add_arc(u, v);
                if !self.directed {
                    inner.pending.add_arc(v, u);
                }
            }
            for &(u, v) in dels {
                inner.pending.del_arc(u, v);
                if !self.directed {
                    inner.pending.del_arc(v, u);
                }
            }
            for &v in tombs {
                inner.pending.del_vertex(v);
            }
            if inner.pending.is_empty() {
                return Ok(Publish {
                    epoch: inner.base_epoch + inner.layers.len() as u64,
                    applied,
                    compaction: CompactOutcome::NotNeeded,
                });
            }
            let epoch = inner.base_epoch + inner.layers.len() as u64 + 1;
            let layer = inner.pending.seal(epoch, self.n);
            inner.layers.push(Arc::new(layer));
            inner.stats.epochs_published += 1;
            // Prior current-epoch snapshot stays cached only while
            // pinned; unpinned entries for stale epochs are dropped
            // here to bound the cache.
            let stale: Vec<u64> = inner
                .snapshots
                .keys()
                .filter(|e| **e < epoch && !inner.pins.contains_key(e))
                .copied()
                .collect();
            for e in stale {
                inner.snapshots.remove(&e);
            }
            epoch
        };
        let compaction = self.try_compact(hook);
        Ok(Publish {
            epoch,
            applied,
            compaction,
        })
    }

    /// Pin the current epoch: bumps its pin count and returns a guard
    /// holding a fully materialized snapshot. The snapshot is cached
    /// per epoch, so repeated pins of an unchanged epoch are cheap.
    pub fn pin(self: &Arc<Self>) -> EpochPin {
        let (epoch, snapshot) = {
            let mut inner = self.state();
            let epoch = inner.base_epoch + inner.layers.len() as u64;
            let snapshot = Self::snapshot_locked(self.n, self.directed, &mut inner, epoch);
            *inner.pins.entry(epoch).or_insert(0) += 1;
            inner.stats.pins_active += 1;
            inner.stats.pins_high_water = inner.stats.pins_high_water.max(inner.stats.pins_active);
            (epoch, snapshot)
        };
        EpochPin {
            dg: Arc::clone(self),
            epoch,
            snapshot,
        }
    }

    /// Materialize (and cache) the snapshot for `epoch` without
    /// pinning. `None` if `epoch` is below the current base or above
    /// the current epoch.
    pub fn snapshot_at(&self, epoch: u64) -> Option<Arc<CsrGraph>> {
        let mut inner = self.state();
        if epoch < inner.base_epoch || epoch > inner.base_epoch + inner.layers.len() as u64 {
            return None;
        }
        Some(Self::snapshot_locked(
            self.n,
            self.directed,
            &mut inner,
            epoch,
        ))
    }

    fn snapshot_locked(n: u32, directed: bool, inner: &mut Inner, epoch: u64) -> Arc<CsrGraph> {
        if let Some(s) = inner.snapshots.get(&epoch) {
            return Arc::clone(s);
        }
        let nlayers = (epoch - inner.base_epoch) as usize;
        // index-ok: both callers (pin, snapshot_at) hold the lock and pass
        // base_epoch <= epoch <= base_epoch + layers.len()
        let g = materialize(n, directed, inner.base.graph(), &inner.layers[..nlayers]);
        let arc = Arc::new(g);
        inner.snapshots.insert(epoch, Arc::clone(&arc));
        arc
    }

    fn unpin(&self, epoch: u64) {
        let mut inner = self.state();
        let remove = {
            let count = inner
                .pins
                .get_mut(&epoch)
                // io-ok: pin() inserted this entry and EpochPin::drop is the only caller
                .expect("unpin of an epoch that was never pinned");
            *count -= 1;
            *count == 0
        };
        inner.stats.pins_active -= 1;
        if remove {
            inner.pins.remove(&epoch);
            // Snapshot cache entry is only useful again if this is
            // still the current epoch.
            if epoch != inner.base_epoch + inner.layers.len() as u64 {
                inner.snapshots.remove(&epoch);
            }
        }
    }

    /// Attempt a compaction if enough cold layers accumulated. Public
    /// so the serve layer can force attempts with its fault hook.
    pub fn try_compact(&self, hook: CompactHook<'_>) -> CompactOutcome {
        // Phase 1 (locked): decide the fold limit and snapshot refs.
        let (base, layers, base_epoch, limit) = {
            let mut inner = self.state();
            if inner.compacting {
                return CompactOutcome::NotNeeded;
            }
            let current = inner.base_epoch + inner.layers.len() as u64;
            // Never fold past the lowest pinned epoch: a pinned reader
            // may still need `layers_between` for incremental reach.
            let limit = inner
                .pins
                .keys()
                .next()
                .copied()
                .unwrap_or(current)
                .min(current);
            let foldable = (limit - inner.base_epoch) as usize;
            if foldable < self.compact_threshold {
                return CompactOutcome::NotNeeded;
            }
            inner.compacting = true;
            (
                Arc::clone(&inner.base),
                inner.layers[..foldable].to_vec(),
                inner.base_epoch,
                limit,
            )
        };
        // Phase 2 (unlocked): merge. The hook models crashes; an abort
        // leaves every published layer in place — nothing is lost.
        if hook(CompactPoint::Merge) == CompactAction::Abort {
            let mut inner = self.state();
            inner.compacting = false;
            inner.stats.compactions_aborted += 1;
            return CompactOutcome::Aborted(CompactPoint::Merge);
        }
        let merged = materialize(self.n, self.directed, base.graph(), &layers);
        if hook(CompactPoint::Swap) == CompactAction::Abort {
            let mut inner = self.state();
            inner.compacting = false;
            inner.stats.compactions_aborted += 1;
            return CompactOutcome::Aborted(CompactPoint::Swap);
        }
        // Phase 3 (locked): verify we still descend from the base we
        // merged and swap.
        let mut inner = self.state();
        inner.compacting = false;
        if inner.base_epoch != base_epoch {
            return CompactOutcome::Raced;
        }
        let folded = (limit - base_epoch) as usize;
        inner.base = Arc::new(merged);
        inner.base_epoch = limit;
        inner.layers.drain(..folded);
        inner.stats.compactions += 1;
        CompactOutcome::Folded(folded)
    }
}

/// Guard pinning one epoch. Holds the materialized snapshot, so the
/// graph view stays valid (and bit-identical) for the guard's lifetime
/// regardless of concurrent publishes or compactions.
pub struct EpochPin {
    dg: Arc<DeltaGraph>,
    epoch: u64,
    snapshot: Arc<CsrGraph>,
}

impl fmt::Debug for EpochPin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochPin")
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl EpochPin {
    /// The pinned epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The materialized snapshot, engine-ready.
    pub fn graph(&self) -> &CsrGraph {
        &self.snapshot
    }

    /// A shareable handle to the snapshot.
    pub fn snapshot(&self) -> Arc<CsrGraph> {
        Arc::clone(&self.snapshot)
    }

    /// The owning delta graph.
    pub fn delta(&self) -> &Arc<DeltaGraph> {
        &self.dg
    }
}

impl Drop for EpochPin {
    fn drop(&mut self) {
        self.dg.unpin(self.epoch);
    }
}

/// Merge `base` plus `layers` (oldest first) into a standalone CSR.
fn materialize(n: u32, directed: bool, base: &CsrGraph, layers: &[Arc<DeltaLayer>]) -> CsrGraph {
    // Rows touched by any patch get merged individually; the rest copy
    // straight from the base. Tombstones force a global target filter.
    let mut touched: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut tomb = vec![0u64; (n as usize).div_ceil(64)];
    let mut any_tomb = false;
    for layer in layers {
        for (&u, patch) in layer.patches() {
            let row = touched
                .entry(u)
                .or_insert_with(|| base.neighbors(u).to_vec());
            for &v in &patch.del {
                if let Ok(i) = row.binary_search(&v) {
                    row.remove(i);
                }
            }
            for &v in &patch.add {
                if let Err(i) = row.binary_search(&v) {
                    row.insert(i, v);
                }
            }
        }
        for v in 0..n {
            if layer.is_tombstoned(v) {
                tomb[(v / 64) as usize] |= 1 << (v % 64);
                any_tomb = true;
            }
        }
    }
    let is_tomb = |v: u32| tomb[(v / 64) as usize] >> (v % 64) & 1 == 1;
    let mut row_ptr = Vec::with_capacity(n as usize + 1);
    let mut col_idx = Vec::with_capacity(base.num_arcs());
    row_ptr.push(0u64);
    for u in 0..n {
        if !any_tomb || !is_tomb(u) {
            let row: &[u32] = touched
                .get(&u)
                .map(Vec::as_slice)
                .unwrap_or(base.neighbors(u));
            if any_tomb {
                col_idx.extend(row.iter().copied().filter(|&v| !is_tomb(v)));
            } else {
                col_idx.extend_from_slice(row);
            }
        }
        row_ptr.push(col_idx.len() as u64);
    }
    CsrGraph::from_sorted_parts(n, row_ptr, col_idx, directed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> CsrGraph {
        // 0→1→2→3 directed
        CsrGraph::from_sorted_parts(4, vec![0, 1, 2, 3, 3], vec![1, 2, 3], true)
    }

    #[test]
    fn publish_bumps_epoch_and_materializes() {
        let dg = Arc::new(DeltaGraph::from_csr(path4()));
        assert_eq!(dg.current_epoch(), 0);
        let p = dg.add_edges(&[(3, 0)]).unwrap();
        assert_eq!(p.epoch, 1);
        assert_eq!(dg.current_epoch(), 1);
        let pin = dg.pin();
        assert_eq!(pin.graph().neighbors(3), &[0]);
        assert_eq!(pin.graph().num_arcs(), 4);
    }

    #[test]
    fn base_epoch_offsets_published_epochs() {
        let dg = Arc::new(DeltaGraph::with_base_epoch(
            Arc::new(path4()),
            DEFAULT_COMPACT_THRESHOLD,
            9,
        ));
        assert_eq!(dg.current_epoch(), 9);
        let p = dg.add_edges(&[(3, 0)]).unwrap();
        assert_eq!(p.epoch, 10, "publishes continue from the base epoch");
        assert_eq!(dg.pin().epoch(), 10);
        assert_eq!(dg.stats().base_epoch, 9);
    }

    #[test]
    fn pinned_snapshot_isolated_from_later_publishes() {
        let dg = Arc::new(DeltaGraph::from_csr(path4()));
        let pin0 = dg.pin();
        dg.add_edges(&[(0, 2)]).unwrap();
        dg.del_edges(&[(0, 1)]).unwrap();
        assert_eq!(pin0.graph().neighbors(0), &[1]);
        let pin2 = dg.pin();
        assert_eq!(pin2.graph().neighbors(0), &[2]);
        assert_eq!(pin0.epoch(), 0);
        assert_eq!(pin2.epoch(), 2);
    }

    #[test]
    fn undirected_inserts_both_directions() {
        let g = CsrGraph::from_sorted_parts(3, vec![0, 1, 2, 2], vec![1, 0], false);
        let dg = Arc::new(DeltaGraph::from_csr(g));
        dg.add_edges(&[(1, 2)]).unwrap();
        let pin = dg.pin();
        assert_eq!(pin.graph().neighbors(1), &[0, 2]);
        assert_eq!(pin.graph().neighbors(2), &[1]);
    }

    #[test]
    fn tombstones_are_final() {
        let dg = Arc::new(DeltaGraph::from_csr(path4()));
        dg.del_vertices(&[2]).unwrap();
        let pin = dg.pin();
        assert_eq!(pin.graph().degree(2), 0);
        assert_eq!(pin.graph().neighbors(1), &[] as &[u32]);
        assert_eq!(dg.add_edges(&[(2, 3)]), Err(DeltaError::Tombstoned(2)));
    }

    #[test]
    fn out_of_range_rejected() {
        let dg = Arc::new(DeltaGraph::from_csr(path4()));
        assert_eq!(
            dg.add_edges(&[(0, 9)]),
            Err(DeltaError::VertexOutOfRange { v: 9, n: 4 })
        );
        assert_eq!(dg.current_epoch(), 0);
    }

    #[test]
    fn compaction_folds_cold_layers() {
        let dg = Arc::new(DeltaGraph::with_threshold(Arc::new(path4()), 2));
        dg.add_edges(&[(3, 0)]).unwrap();
        let p = dg.add_edges(&[(3, 1)]).unwrap();
        assert_eq!(p.compaction, CompactOutcome::Folded(2));
        let s = dg.stats();
        assert_eq!(s.base_epoch, 2);
        assert_eq!(s.current_epoch, 2);
        assert_eq!(s.layers, 0);
        assert_eq!(s.compactions, 1);
        let pin = dg.pin();
        assert_eq!(pin.graph().neighbors(3), &[0, 1]);
    }

    #[test]
    fn compaction_respects_pins() {
        let dg = Arc::new(DeltaGraph::with_threshold(Arc::new(path4()), 1));
        let pin0 = dg.pin();
        let p = dg.add_edges(&[(3, 0)]).unwrap();
        // Epoch 0 is pinned, so nothing at or below it is foldable —
        // and epoch 1 itself cannot fold past the pin.
        assert_eq!(p.compaction, CompactOutcome::NotNeeded);
        assert_eq!(dg.stats().base_epoch, 0);
        drop(pin0);
        let out = dg.try_compact(&mut |_| CompactAction::Continue);
        assert_eq!(out, CompactOutcome::Folded(1));
        assert_eq!(dg.stats().base_epoch, 1);
    }

    #[test]
    fn aborted_compaction_changes_nothing() {
        let dg = Arc::new(DeltaGraph::with_threshold(Arc::new(path4()), 1));
        let mut kills = 0u32;
        for point in [CompactPoint::Merge, CompactPoint::Swap] {
            let before = dg.stats();
            let out = dg.mutate(
                &[(3, before.epochs_published as u32 % 4)],
                &[],
                &[],
                &mut |p| {
                    if p == point {
                        kills += 1;
                        CompactAction::Abort
                    } else {
                        CompactAction::Continue
                    }
                },
            );
            let pub_ = out.unwrap();
            assert_eq!(pub_.compaction, CompactOutcome::Aborted(point));
            let after = dg.stats();
            assert_eq!(after.base_epoch, before.base_epoch);
            assert_eq!(after.current_epoch, before.current_epoch + 1);
            assert_eq!(after.compactions, before.compactions);
        }
        assert_eq!(kills, 2);
        assert_eq!(dg.stats().compactions_aborted, 2);
        // After the failed attempts, a clean retry folds everything —
        // no epoch was lost.
        let out = dg.try_compact(&mut |_| CompactAction::Continue);
        assert_eq!(out, CompactOutcome::Folded(2));
        let pin = dg.pin();
        assert_eq!(pin.graph().neighbors(3), &[0, 1]);
    }

    #[test]
    fn pin_counters_track_high_water() {
        let dg = Arc::new(DeltaGraph::from_csr(path4()));
        let a = dg.pin();
        let b = dg.pin();
        assert_eq!(dg.stats().pins_active, 2);
        drop(a);
        drop(b);
        let s = dg.stats();
        assert_eq!(s.pins_active, 0);
        assert_eq!(s.pins_high_water, 2);
    }

    #[test]
    fn layers_between_reports_folded_ranges() {
        let dg = Arc::new(DeltaGraph::with_threshold(Arc::new(path4()), 64));
        dg.add_edges(&[(3, 0)]).unwrap();
        dg.add_edges(&[(3, 1)]).unwrap();
        let ls = dg.layers_between(0, 2).unwrap();
        assert_eq!(ls.len(), 2);
        assert_eq!(ls[0].epoch(), 1);
        let dg2 = Arc::new(DeltaGraph::with_threshold(Arc::new(path4()), 1));
        dg2.add_edges(&[(3, 0)]).unwrap();
        assert!(
            dg2.layers_between(0, 1).is_none(),
            "folded range must report None"
        );
    }
}
