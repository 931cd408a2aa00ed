//! Delta layers: per-epoch edge patches and vertex tombstones.
//!
//! A [`DeltaLayer`] is the immutable, published form of one epoch's
//! mutations: for each touched source vertex a sorted list of inserted
//! and deleted targets, plus a bitmap of vertices deleted wholesale in
//! this epoch. Layers are *non-cumulative* — materializing epoch `e`
//! replays every layer in `(base_epoch, e]` over the frozen base CSR.

use std::collections::BTreeMap;

/// Sorted insert/delete target lists for one source vertex.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VertexPatch {
    /// Targets inserted for this source, sorted ascending, deduped.
    pub add: Vec<u32>,
    /// Targets deleted for this source, sorted ascending, deduped.
    pub del: Vec<u32>,
}

impl VertexPatch {
    fn bytes(&self) -> usize {
        (self.add.len() + self.del.len()) * std::mem::size_of::<u32>()
    }
}

/// One published epoch's worth of mutations.
#[derive(Debug, Clone)]
pub struct DeltaLayer {
    /// The epoch this layer publishes (base_epoch + position + 1).
    epoch: u64,
    /// Per-source patches, keyed by source vertex.
    patches: BTreeMap<u32, VertexPatch>,
    /// Bitmap words (64 vertices per word) of vertices tombstoned in
    /// this epoch. Empty when no vertex was deleted.
    tombstones: Vec<u64>,
}

impl DeltaLayer {
    /// Epoch this layer belongs to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-source patches, keyed by source vertex.
    pub fn patches(&self) -> &BTreeMap<u32, VertexPatch> {
        &self.patches
    }

    /// True when vertex `v` was tombstoned in this epoch.
    pub fn is_tombstoned(&self, v: u32) -> bool {
        let w = (v / 64) as usize;
        self.tombstones
            .get(w)
            .is_some_and(|bits| bits >> (v % 64) & 1 == 1)
    }

    /// The tombstone bitmap's words (vertex `v` is bit `v % 64` of word
    /// `v / 64`): empty when this epoch deleted no vertex.
    pub fn tombstone_words(&self) -> &[u64] {
        &self.tombstones
    }

    /// Approximate heap footprint of this layer, for `delta_bytes`
    /// accounting.
    pub fn bytes(&self) -> usize {
        let patch_bytes: usize = self.patches.values().map(VertexPatch::bytes).sum();
        patch_bytes
            + self.patches.len() * std::mem::size_of::<(u32, VertexPatch)>()
            + self.tombstones.len() * std::mem::size_of::<u64>()
    }
}

/// Mutable staging area for the next epoch's mutations. Sealed into an
/// immutable [`DeltaLayer`] at publish time.
#[derive(Debug, Default)]
pub struct PendingDelta {
    patches: BTreeMap<u32, VertexPatch>,
    tombstoned: Vec<u32>,
}

impl PendingDelta {
    /// True when nothing has been staged (publishing would be a no-op).
    pub fn is_empty(&self) -> bool {
        self.patches.is_empty() && self.tombstoned.is_empty()
    }

    /// Stage an edge insert. An insert cancels a staged delete of the
    /// same arc (last writer wins within a batch).
    pub fn add_arc(&mut self, u: u32, v: u32) {
        let p = self.patches.entry(u).or_default();
        if let Ok(i) = p.del.binary_search(&v) {
            p.del.remove(i);
        }
        if let Err(i) = p.add.binary_search(&v) {
            p.add.insert(i, v);
        }
    }

    /// Stage an edge delete. A delete cancels a staged insert of the
    /// same arc.
    pub fn del_arc(&mut self, u: u32, v: u32) {
        let p = self.patches.entry(u).or_default();
        if let Ok(i) = p.add.binary_search(&v) {
            p.add.remove(i);
        }
        if let Err(i) = p.del.binary_search(&v) {
            p.del.insert(i, v);
        }
    }

    /// Stage a vertex tombstone.
    pub fn del_vertex(&mut self, v: u32) {
        if let Err(i) = self.tombstoned.binary_search(&v) {
            self.tombstoned.insert(i, v);
        }
    }

    /// True when `v` has been tombstoned in this pending batch.
    pub fn is_tombstoned(&self, v: u32) -> bool {
        self.tombstoned.binary_search(&v).is_ok()
    }

    /// Seal into an immutable layer for `epoch`, leaving `self` empty.
    /// `n` sizes the tombstone bitmap.
    pub fn seal(&mut self, epoch: u64, n: u32) -> DeltaLayer {
        let mut tombstones = Vec::new();
        if !self.tombstoned.is_empty() {
            tombstones = vec![0u64; (n as usize).div_ceil(64)];
            for &v in &self.tombstoned {
                tombstones[(v / 64) as usize] |= 1 << (v % 64);
            }
        }
        self.tombstoned.clear();
        DeltaLayer {
            epoch,
            patches: std::mem::take(&mut self.patches),
            tombstones,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_then_del_cancels() {
        let mut p = PendingDelta::default();
        p.add_arc(1, 2);
        p.del_arc(1, 2);
        let layer = p.seal(1, 8);
        let patch = &layer.patches()[&1];
        assert!(patch.add.is_empty());
        assert_eq!(patch.del, vec![2]);
    }

    #[test]
    fn del_then_add_cancels() {
        let mut p = PendingDelta::default();
        p.del_arc(3, 4);
        p.add_arc(3, 4);
        let layer = p.seal(1, 8);
        let patch = &layer.patches()[&3];
        assert_eq!(patch.add, vec![4]);
        assert!(patch.del.is_empty());
    }

    #[test]
    fn seal_sorts_and_dedups() {
        let mut p = PendingDelta::default();
        p.add_arc(0, 5);
        p.add_arc(0, 1);
        p.add_arc(0, 5);
        p.del_vertex(7);
        p.del_vertex(7);
        let layer = p.seal(3, 70);
        assert_eq!(layer.epoch(), 3);
        assert_eq!(layer.patches()[&0].add, vec![1, 5]);
        assert!(layer.is_tombstoned(7));
        assert!(!layer.is_tombstoned(6));
        assert!(layer.bytes() > 0);
        assert!(p.is_empty());
    }
}
