//! Pack/load integrity: property round-trips over adversarial degree
//! distributions, typed errors on every corruption mode (the serve path
//! must never panic on file bytes), and differential pinning of
//! packed-graph DFS against the in-RAM graph on every engine.

use db_core::native::{NativeConfig, NativeEngine};
use db_core::native_lockfree::LockFreeEngine;
use db_core::CancelToken;
use db_gpu_sim::MachineModel;
use db_graph::builder::from_edge_list;
use db_graph::CsrGraph;
use db_store::{
    load, load_with, pack_graph, partition_by_arcs, run_partitioned, LoadOptions, PackOptions,
    StoreError,
};
use db_trace::tracer::NullTracer;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A scratch directory of one test or proptest case, removed when the
/// case ends (also when it fails or is rejected).
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A pack path in a directory of its own, named from the pid plus a
/// process-wide counter so no two cases ever share a path. Keep the
/// guard alive for as long as the path is used.
fn scratch(tag: &str) -> (ScratchDir, PathBuf) {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // relaxed-ok: unique id allocation; only atomicity matters
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dbstore-it-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(format!("{tag}.dbsg"));
    (ScratchDir(dir), path)
}

/// A degree-skewed graph: `hubs` vertices wired to everything plus a
/// sparse random tail.
fn skewed_graph(n: u32, hubs: u32, tail_edges: &[(u32, u32)], directed: bool) -> CsrGraph {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for h in 0..hubs.min(n) {
        for v in 0..n {
            if v != h {
                edges.push((h, v));
            }
        }
    }
    edges.extend(tail_edges.iter().map(|&(u, v)| (u % n, v % n)));
    from_edge_list(n, &edges, directed)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn pack_load_round_trips_arbitrary_graphs(
        n in 1u32..60,
        edges in proptest::collection::vec((0u32..60, 0u32..60), 0..180),
        directed in proptest::prelude::any::<bool>(),
        seed in proptest::prelude::any::<u64>(),
    ) {
        let edges: Vec<(u32, u32)> = edges.iter().map(|&(u, v)| (u % n, v % n)).collect();
        let g = from_edge_list(n, &edges, directed);
        let (_dir, path) = scratch(&format!("prop-{seed:x}"));
        let summary = pack_graph(&g, &path, PackOptions::default()).unwrap();
        prop_assert_eq!(summary.arcs, g.num_arcs() as u64);

        let store = load(&path).unwrap();
        prop_assert_eq!(store.graph(), &g);
        // The load owns exactly its two arrays, allocated to size.
        prop_assert_eq!(store.graph().heap_bytes(), (n as usize + 1) * 8 + g.num_arcs() * 4);
    }

    #[test]
    fn truncated_packs_always_fail_typed(cut_frac in 0.0f64..1.0) {
        let g = skewed_graph(40, 3, &[(7, 21), (9, 33), (12, 13)], false);
        let (_dir, path) = scratch(&format!("trunc-{}", (cut_frac * 1e6) as u64));
        pack_graph(&g, &path, PackOptions::default()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assume!(cut < bytes.len());
        std::fs::write(&path, &bytes[..cut]).unwrap();
        // Either a typed error, or — when only trailing alignment pad
        // was cut — a load of the intact, identical graph. Never a
        // panic, never a wrong graph.
        match load(&path) {
            Ok(store) => {
                prop_assert!(bytes.len() - cut < 8, "payload cut loaded anyway");
                prop_assert_eq!(store.graph(), &g);
            }
            Err(
                StoreError::Truncated { .. }
                | StoreError::SectionBounds { .. }
                | StoreError::BadMagic
                | StoreError::HeaderChecksum { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
    }

    #[test]
    fn flipped_bytes_are_caught_by_checksums(seed in proptest::prelude::any::<u64>()) {
        let g = skewed_graph(50, 4, &[(11, 29), (17, 40), (23, 5), (31, 44)], true);
        let (_dir, path) = scratch(&format!("flip-{seed:x}"));
        pack_graph(&g, &path, PackOptions::default()).unwrap();
        let r = load_with(&path, &LoadOptions { corrupt_seed: Some(seed) });
        match r {
            // The usual catch: a payload checksum mismatch.
            Err(StoreError::SectionChecksum { .. }) => {}
            // Flips landing in the section table perturb offsets/ids.
            Err(StoreError::SectionBounds { .. })
            | Err(StoreError::MissingSection { .. })
            | Err(StoreError::Malformed(_))
            | Err(StoreError::HeaderChecksum { .. }) => {}
            other => prop_assert!(false, "corruption escaped detection: {other:?}"),
        }
    }
}

#[test]
fn header_corruptions_are_typed() {
    let g = skewed_graph(20, 2, &[(3, 9)], false);
    let (_dir, path) = scratch("hdr");
    pack_graph(&g, &path, PackOptions::default()).unwrap();
    let orig = std::fs::read(&path).unwrap();

    // Bad magic.
    let mut bytes = orig.clone();
    bytes[0] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(load(&path), Err(StoreError::BadMagic)));

    // Future version (header checksum fixed up so the version check is
    // what fires — version is checked before the checksum).
    let mut bytes = orig.clone();
    bytes[8] = 99;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        load(&path),
        Err(StoreError::UnsupportedVersion(99))
    ));

    // Flipped count field → header checksum mismatch.
    let mut bytes = orig.clone();
    bytes[16] ^= 0x55;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        load(&path),
        Err(StoreError::HeaderChecksum { .. })
    ));

    // Empty file.
    std::fs::write(&path, []).unwrap();
    assert!(matches!(load(&path), Err(StoreError::Truncated { .. })));
}

#[test]
fn missing_file_is_io_error() {
    assert!(matches!(
        load("/no/such/dir/missing.dbsg"),
        Err(StoreError::Io { op: "open", .. })
    ));
}

/// DFS visited sets from a packed, mmap-loaded graph must be
/// bit-identical to the in-RAM build on every engine, and so must the
/// reachable set of the ledger's `run_partitioned` shim.
#[test]
fn packed_dfs_differential_all_engines() {
    let g = skewed_graph(
        400,
        5,
        &[
            (17, 44),
            (101, 212),
            (250, 399),
            (5, 307),
            (66, 333),
            (199, 200),
        ],
        false,
    );
    let (_dir, path) = scratch("diff");
    pack_graph(&g, &path, PackOptions::default()).unwrap();
    let store = load(&path).unwrap();
    let pg = store.graph();
    assert_eq!(pg, &g);

    let root = 3u32;
    let token = CancelToken::new();
    let model = MachineModel::a100();
    let reference = db_graph::serial_dfs(&g, root).visited;

    let native = NativeEngine::new(NativeConfig::default())
        .run_cancellable(pg, root, &token)
        .visited;
    assert_eq!(native, reference, "native");

    let lockfree = LockFreeEngine::new(NativeConfig::default())
        .run_cancellable(pg, root, &token)
        .visited;
    assert_eq!(lockfree, reference, "lockfree");

    let sim = db_core::run_sim(pg, root, &db_core::DiggerBeesConfig::default(), &model).visited;
    assert_eq!(sim, reference, "sim");

    let serial = db_baselines::serial::run(pg, root, &model).visited;
    assert_eq!(serial, reference, "serial");

    let spec = partition_by_arcs(pg, 4);
    let (part, completed, _) = run_partitioned(pg, &spec, root, &NullTracer, &|| false);
    assert!(completed);
    assert_eq!(part, reference, "partitioned");
}

/// A loaded graph is two heap arrays allocated to size: it owns
/// exactly `(n + 1) * 8` bytes of `row_ptr` and 4 bytes a column.
#[test]
fn loaded_graphs_own_exactly_their_two_arrays() {
    let g = skewed_graph(300, 4, &[(9, 100), (150, 299)], false);
    let (_dir, path) = scratch("resid");
    pack_graph(&g, &path, PackOptions::default()).unwrap();
    let packed = load(&path).unwrap();
    assert_eq!(
        packed.graph().heap_bytes(),
        (g.num_vertices() + 1) * 8 + g.num_arcs() * 4
    );
    assert_eq!(packed.graph().heap_bytes(), g.memory_bytes());
}

/// A pack is mapped only while it loads: once the load returns, no
/// mapping of this process names the pack file, and the graph still
/// reads back every row.
#[cfg(target_os = "linux")]
#[test]
fn a_loaded_graph_keeps_no_mapping_of_its_pack() {
    // 16Ki vertices with scattered arcs (2-byte varint gaps) and two
    // hubs wired to everyone, so the column section spans many pages.
    let n = 16_384u32;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut edges: Vec<(u32, u32)> = (1..n).flat_map(|v| [(0, v), (1, v)]).collect();
    for _ in 0..8 * n {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        edges.push(((x >> 33) as u32 % n, (x >> 13) as u32 % n));
    }
    let g = from_edge_list(n, &edges, false);
    let (_dir, path) = scratch("unmapped");
    let s = pack_graph(&g, &path, PackOptions::default()).unwrap();
    assert!(s.file_bytes > 512 * 1024);
    let name = std::fs::canonicalize(&path).unwrap();
    let name = name.to_str().unwrap();

    let loaded = load(&path).unwrap().into_graph();
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
    let held: Vec<&str> = maps.lines().filter(|l| l.ends_with(name)).collect();
    assert!(held.is_empty(), "the pack is still mapped: {held:?}");
    assert_eq!(loaded, g);
}

/// The varint columns come out smaller than the raw CSR.
#[test]
fn compressed_pack_is_smaller_than_raw_csr() {
    // Locality-heavy tail: deltas are small, varints short.
    let mut edges = Vec::new();
    for v in 0u32..2000 {
        for d in 1..=4 {
            edges.push((v, (v + d) % 2000));
        }
    }
    let g = from_edge_list(2000, &edges, false);
    let (_dir, path) = scratch("ratio");
    let s = pack_graph(&g, &path, PackOptions::default()).unwrap();
    assert!(
        s.file_bytes < s.csr_bytes,
        "packed {} >= raw {}",
        s.file_bytes,
        s.csr_bytes
    );
}

/// The load's CSR check counts far arcs like the build did: the pack
/// of a scattered graph reports its `far_arcs()`.
#[test]
fn packs_report_the_source_far_arc_count() {
    let g = db_gen::social::social(20_000, 7);
    assert!(g.far_arcs() > 0, "a social graph has far arcs");
    let (_dir, path) = scratch("far");
    pack_graph(&g, &path, PackOptions::default()).unwrap();
    let store = load(&path).unwrap();
    assert_eq!(store.graph().far_arcs(), g.far_arcs());
}

/// Columns are checked at load: a pack whose first varint is rewritten
/// past `n`, resealed under a recomputed checksum, fails typed instead
/// of loading a row that names a vertex the graph does not have. (A
/// decoded row cannot descend: each gap is unsigned, and a sum past
/// `u32::MAX` fails the decode.)
#[test]
fn resealed_column_past_n_fails_typed() {
    let g = skewed_graph(40, 3, &[(7, 21), (9, 33)], true);
    let (_dir, path) = scratch("past-n");
    pack_graph(&g, &path, PackOptions::default()).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let (_, entries) = db_store::load::parse_preamble(&bytes).unwrap();
    let (i, cols) = entries
        .iter()
        .enumerate()
        .find(|(_, e)| e.id == db_store::format::SEC_COL_PACKED)
        .unwrap();
    // Row 0's first column is vertex 1, one varint byte: make it 127.
    let at = cols.offset as usize;
    assert_eq!(bytes[at], 1);
    bytes[at] = 0x7f;
    let sum = db_store::format::hash64(&bytes[at..at + cols.len as usize]);
    let entry = db_store::format::HEADER_LEN + i * db_store::format::SECTION_ENTRY_LEN;
    bytes[entry + 24..entry + 32].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        load(&path),
        Err(StoreError::Csr(db_graph::CsrError::ColumnOutOfRange {
            at: 0,
            value: 127,
            n: 40
        }))
    ));
}
