//! # db-store — the packed on-disk graph layer
//!
//! Everything between a generated/ingested graph and a traversal engine
//! at scale:
//!
//! * [`mod@format`] — the versioned `.dbsg` binary layout: 64-byte header,
//!   checksummed section table, 8-byte-aligned sections (normative spec
//!   in DESIGN.md §8).
//! * [`pack`] — a streaming [`pack::PackWriter`] (rows in, sealed file
//!   out via temp+rename) with one column encoding: every row is
//!   delta+varint compressed into one section.
//! * [`mod@load`] — loading behind typed [`StoreError`]s: the pack is
//!   mapped only while it loads, every section checksum is verified,
//!   and `row_ptr` and the decoded columns land in two heap arrays, so
//!   a loaded graph holds no file pages and costs exactly its CSR.
//! * `mmapio` — the `mmap`/`munmap`/`madvise` shim (no `libc`
//!   dependency) with a heap read where mmap is unavailable.
//! * [`partition`] — [`partition_by_arcs`] and [`run_partitioned`],
//!   kept for the benchmark ledger only: the second is the reference
//!   BFS's reachable set.
//!
//! The crate only depends on `db-graph` (for the CSR and its codec).
//! Engines and the serve layer keep only a load's
//! [`db_graph::CsrGraph`] ([`MappedStore::into_graph`]).

#![warn(missing_docs)]

pub mod error;
pub mod format;
pub mod load;
mod mmapio;
pub mod pack;
pub mod partition;

pub use error::StoreError;
pub use load::{load, load_with, LoadOptions, MappedStore};
pub use pack::{pack_graph, PackOptions, PackSummary, PackWriter};
pub use partition::{partition_by_arcs, run_partitioned, PartitionSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use db_graph::GraphBuilder;

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
