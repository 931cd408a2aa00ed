//! # db-store — the packed on-disk graph layer
//!
//! Everything between a generated/ingested graph and a traversal engine
//! at scale:
//!
//! * [`mod@format`] — the versioned `.dbsg` binary layout: 64-byte header,
//!   checksummed section table, 8-byte-aligned sections (normative spec
//!   in DESIGN.md §8).
//! * [`pack`] — a streaming [`pack::PackWriter`] (rows in, sealed file
//!   out via temp+rename) with a degree-skew-aware layout: the long tail
//!   of small rows is delta+varint compressed, hub rows (degree ≥
//!   threshold) stay raw and decode-free.
//! * [`mod@load`] — mmap-first loading behind typed [`StoreError`]s; the
//!   `row_ptr` array (and raw column sections) become zero-copy
//!   [`db_graph::SectionSlice`] views into the mapping, so a 50M-edge
//!   pack costs no offsets copy at open time, and a compressed pack
//!   releases its column pages once they are decoded.
//! * [`mmapio`] — the `mmap`/`munmap`/`madvise` shim (no `libc`
//!   dependency) with a heap fallback for other platforms and for fault
//!   injection, and the `/proc/self/smaps` residency read.
//! * [`partition`] — contiguous edge-cut partitioning and a
//!   cross-partition DFS driver whose idle workers steal half of a
//!   victim partition's stack, the paper's block-level stealing lifted
//!   to shard granularity (`StealInter` events, partition = block).
//!
//! The crate only depends on `db-graph` (for the CSR + section types)
//! and `db-trace` (for steal events); engines and the serve layer
//! consume packs through the [`db_graph::GraphStore`] trait.

#![warn(missing_docs)]

pub mod error;
pub mod format;
pub mod load;
pub mod mmapio;
pub mod pack;
pub mod partition;

pub use error::StoreError;
pub use load::{load, load_with, LoadOptions, MappedStore};
pub use pack::{pack_graph, PackOptions, PackSummary, PackWriter};
pub use partition::{partition_by_arcs, run_partitioned, PartitionRunStats, PartitionSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use db_graph::{GraphBuilder, GraphStore};

    #[test]
    fn pack_load_round_trip_smoke() {
        let dir = std::env::temp_dir().join(format!("dbstore-lib-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("smoke.dbsg");
        let g = GraphBuilder::undirected(6)
            .edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
            .build();
        let summary = pack_graph(&g, &path, PackOptions::default()).unwrap();
        assert_eq!(summary.n, 6);
        assert_eq!(summary.arcs, g.num_arcs() as u64);

        let store = load(&path).unwrap();
        assert_eq!(store.graph(), &g);
        assert!(store.describe().contains("n=6"));
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }
}
