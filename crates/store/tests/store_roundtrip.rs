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
/// sparse random tail — the adversarial shape for hub segregation.
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
        compress in proptest::prelude::any::<bool>(),
        hub_threshold in 0u32..20,
        seed in proptest::prelude::any::<u64>(),
    ) {
        let edges: Vec<(u32, u32)> = edges.iter().map(|&(u, v)| (u % n, v % n)).collect();
        let g = from_edge_list(n, &edges, directed);
        let (_dir, path) = scratch(&format!("prop-{seed:x}"));
        let opts = PackOptions { compress, hub_threshold };
        let summary = pack_graph(&g, &path, opts).unwrap();
        prop_assert_eq!(summary.arcs, g.num_arcs() as u64);

        let store = load(&path).unwrap();
        prop_assert_eq!(store.graph(), &g);
        // Heap fallback decodes to the same graph as the mmap path.
        let heap = load_with(&path, &LoadOptions { force_heap: true, ..Default::default() }).unwrap();
        prop_assert_eq!(heap.graph(), &g);
    }

    #[test]
    fn truncated_packs_always_fail_typed(
        cut_frac in 0.0f64..1.0,
        compress in proptest::prelude::any::<bool>(),
    ) {
        let g = skewed_graph(40, 3, &[(7, 21), (9, 33), (12, 13)], false);
        let (_dir, path) = scratch(&format!("trunc-{}-{compress}", (cut_frac * 1e6) as u64));
        pack_graph(&g, &path, PackOptions { compress, hub_threshold: 8 }).unwrap();
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
        let r = load_with(&path, &LoadOptions { corrupt_seed: Some(seed), ..Default::default() });
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
    for compress in [false, true] {
        pack_graph(
            &g,
            &path,
            PackOptions {
                compress,
                hub_threshold: 32,
            },
        )
        .unwrap();
        let store = load(&path).unwrap();
        let pg = store.graph();
        assert_eq!(pg, &g, "compress={compress}");

        let root = 3u32;
        let token = CancelToken::new();
        let model = MachineModel::a100();
        let reference = db_graph::serial_dfs(&g, root).visited;

        let native = NativeEngine::new(NativeConfig::default())
            .run_cancellable(pg, root, &token)
            .visited;
        assert_eq!(native, reference, "native, compress={compress}");

        let lockfree = LockFreeEngine::new(NativeConfig::default())
            .run_cancellable(pg, root, &token)
            .visited;
        assert_eq!(lockfree, reference, "lockfree, compress={compress}");

        let sim = db_core::run_sim(pg, root, &db_core::DiggerBeesConfig::default(), &model).visited;
        assert_eq!(sim, reference, "sim, compress={compress}");

        let serial = db_baselines::serial::run(pg, root, &model).visited;
        assert_eq!(serial, reference, "serial, compress={compress}");

        let spec = partition_by_arcs(pg, 4);
        let (part, completed, _) = run_partitioned(pg, &spec, root, &NullTracer, &|| false);
        assert!(completed);
        assert_eq!(part, reference, "partitioned, compress={compress}");
    }
}

/// The zero-copy promise: an uncompressed pack's arrays live in the
/// mapping (no private heap), a compressed pack only owns its decoded
/// columns.
#[test]
fn mapped_stores_report_zero_copy_residency() {
    let g = skewed_graph(300, 4, &[(9, 100), (150, 299)], false);
    let (_dir, path) = scratch("resid");

    pack_graph(
        &g,
        &path,
        PackOptions {
            compress: false,
            hub_threshold: 0,
        },
    )
    .unwrap();
    let raw = load(&path).unwrap();
    if raw.is_mmap() {
        assert_eq!(raw.graph().heap_bytes(), 0, "raw pack is fully zero-copy");
        assert_eq!(
            raw.graph().mapped_bytes(),
            (g.num_vertices() + 1) * 8 + g.num_arcs() * 4
        );
        assert!(raw.graph().charged_bytes() < g.memory_bytes());
    }

    pack_graph(&g, &path, PackOptions::default()).unwrap();
    let packed = load(&path).unwrap();
    if packed.is_mmap() {
        assert_eq!(
            packed.graph().mapped_bytes(),
            (g.num_vertices() + 1) * 8,
            "row_ptr stays mapped in compressed packs"
        );
        assert!(packed.graph().heap_bytes() >= g.num_arcs() * 4);
    }
}

/// A compressed pack is resident once: after the load decodes its
/// columns into the heap, only `row_ptr` (plus the header page and the
/// pages shared at section boundaries) stays resident in the mapping.
/// A raw pack serves its columns from the mapping and releases nothing.
#[cfg(target_os = "linux")]
#[test]
fn compressed_pack_keeps_only_row_ptr_resident() {
    // 16Ki vertices with scattered arcs (2-byte varint gaps) and two
    // hubs wired to everyone, so both column sections span many pages.
    let n = 16_384u32;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut edges: Vec<(u32, u32)> = (1..n).flat_map(|v| [(0, v), (1, v)]).collect();
    for _ in 0..8 * n {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        edges.push(((x >> 33) as u32 % n, (x >> 13) as u32 % n));
    }
    let g = from_edge_list(n, &edges, false);
    let rp_bytes = (g.num_vertices() as u64 + 1) * 8;
    let (_dir, path) = scratch("resident");

    let s = pack_graph(&g, &path, PackOptions::default()).unwrap();
    assert!(s.hub_rows > 0 && s.file_bytes > rp_bytes + 512 * 1024);
    let packed = load(&path).unwrap();
    assert!(packed.is_mmap());
    assert_eq!(packed.graph().mapped_bytes() as u64, rp_bytes);
    let resident = packed
        .resident_mapped_bytes()
        .expect("smaps reports the mapping");
    // The load read every row_ptr page, so they are all resident.
    assert!(resident >= rp_bytes, "{resident} < row_ptr {rp_bytes}");
    assert!(
        resident <= rp_bytes + 128 * 1024,
        "{resident} resident bytes for a {rp_bytes}-byte row_ptr in a {}-byte pack",
        s.file_bytes
    );
    for v in 0..n {
        assert_eq!(packed.graph().neighbors(v), g.neighbors(v), "row {v}");
    }

    pack_graph(
        &g,
        &path,
        PackOptions {
            compress: false,
            ..PackOptions::default()
        },
    )
    .unwrap();
    let raw = load(&path).unwrap();
    assert!(raw.is_mmap());
    assert_eq!(raw.graph().heap_bytes(), 0, "raw pack is fully zero-copy");
    let mapped = raw.graph().mapped_bytes() as u64;
    assert_eq!(mapped, rp_bytes + g.num_arcs() as u64 * 4);
    let resident = raw
        .resident_mapped_bytes()
        .expect("smaps reports the mapping");
    assert!(
        resident >= mapped,
        "raw pack released pages: {resident} < {mapped}"
    );
}

/// Compression actually compresses the skewed layout.
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

/// The load's CSR check counts far arcs like the build did: raw and
/// compressed packs of a scattered graph report its `far_arcs()`.
#[test]
fn packs_report_the_source_far_arc_count() {
    let g = db_gen::social::social(20_000, 7);
    assert!(g.far_arcs() > 0, "a social graph has far arcs");
    for compress in [false, true] {
        let (_dir, path) = scratch(&format!("far-{compress}"));
        let opts = PackOptions {
            compress,
            ..PackOptions::default()
        };
        pack_graph(&g, &path, opts).unwrap();
        let store = load(&path).unwrap();
        assert_eq!(
            store.graph().far_arcs(),
            g.far_arcs(),
            "compress {compress}"
        );
    }
}

/// Rows are checked for order at load: a pack whose hub section has two
/// entries of a row swapped, resealed under a recomputed checksum, fails
/// typed instead of loading a row that `has_arc` binary searches wrong.
#[test]
fn resealed_unsorted_hub_row_fails_typed() {
    let g = skewed_graph(40, 3, &[(7, 21), (9, 33)], true);
    let (_dir, path) = scratch("unsorted");
    pack_graph(
        &g,
        &path,
        PackOptions {
            compress: true,
            hub_threshold: 8,
        },
    )
    .unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let (_, entries) = db_store::load::parse_preamble(&bytes).unwrap();
    let (i, hub) = entries
        .iter()
        .enumerate()
        .find(|(_, e)| e.id == db_store::format::SEC_HUB_COLS)
        .unwrap();
    // Row 0 is the first hub row: swap its first two neighbors (1, 2).
    let at = hub.offset as usize;
    let (first, second) = (at..at + 4, at + 4..at + 8);
    let a: [u8; 4] = bytes[first.clone()].try_into().unwrap();
    bytes.copy_within(second.clone(), first.start);
    bytes[second].copy_from_slice(&a);
    let sum = db_store::format::hash64(&bytes[at..at + hub.len as usize]);
    let entry = db_store::format::HEADER_LEN + i * db_store::format::SECTION_ENTRY_LEN;
    bytes[entry + 24..entry + 32].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        load(&path),
        Err(StoreError::Csr(db_graph::CsrError::ColumnDecreasing {
            row: 0,
            at: 1
        }))
    ));
}
