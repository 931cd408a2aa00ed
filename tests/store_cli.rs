//! `diggerbees store pack --out <bare file name>` writes into the
//! working directory. Sealing the pack fsyncs the output's parent
//! directory, and for a bare name that parent is the empty path.
//! `store inspect` reports the format version, the sections and the
//! heap bytes a loaded pack owns. Both packs' bytes are pinned,
//! so a drift in the social generator or the row encoder fails here.
//! Every row, however wide and however far apart its columns, takes
//! the one varint encoding and loads back exactly; a pack of an older
//! format version is refused with a typed error, also when served.

use db_graph::builder::from_edge_list;
use db_serve::{EngineKind, Request, ServeConfig, Server, Status, Workload};
use db_store::format::{hash64, SEC_COL_PACKED, SEC_ROW_PTR};
use db_store::{load, pack_graph, PackOptions, StoreError};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("store-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// FNV-1a over a file's bytes (0 if it cannot be read).
fn fnv1a(path: &Path) -> u64 {
    let bytes = std::fs::read(path).unwrap_or_default();
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn run_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_diggerbees"))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap()
}

#[test]
fn pack_and_verify_a_bare_file_name_in_the_working_directory() {
    let dir = scratch_dir("bare");
    let run = |args: &[&str]| run_in(&dir, args);
    let pack = run(&[
        "store",
        "pack",
        "--graph",
        "social:2000:11",
        "--out",
        "social.dbsg",
    ]);
    let verify = run(&["store", "verify", "social.dbsg"]);
    let packed = dir.join("social.dbsg").is_file();
    let hash = fnv1a(&dir.join("social.dbsg"));
    std::fs::remove_dir_all(&dir).ok();
    let stderr = |o: &Output| String::from_utf8_lossy(&o.stderr).into_owned();
    assert!(pack.status.success(), "pack: {}", stderr(&pack));
    assert!(packed, "the pack lands in the working directory");
    assert!(verify.status.success(), "verify: {}", stderr(&verify));
    assert_eq!(
        hash, 0x90ba_8428_68ff_803c,
        "social:2000:11 pack bytes drifted"
    );
}

/// A loaded pack is resident once, as two heap arrays allocated to
/// size: `store inspect` must report exactly `(n + 1) * 8` bytes of
/// `row_ptr` plus 4 bytes an arc. It also reports format version 2
/// with exactly the two v2 sections.
#[test]
fn inspect_reports_only_row_ptr_resident_for_a_compressed_pack() {
    let dir = scratch_dir("resident");
    let pack = run_in(
        &dir,
        &[
            "store",
            "pack",
            "--graph",
            "social:50000:11",
            "--out",
            "s.dbsg",
        ],
    );
    let inspect = run_in(&dir, &["store", "inspect", "s.dbsg"]);
    let hash = fnv1a(&dir.join("s.dbsg"));
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        pack.status.success(),
        "pack: {}",
        String::from_utf8_lossy(&pack.stderr)
    );
    // Two row chunks on a 2-core host: the chunked encoder's bytes.
    assert_eq!(
        hash, 0x02ff_0db3_8e25_19fd,
        "social:50000:11 pack bytes drifted"
    );
    let out = String::from_utf8_lossy(&inspect.stdout).into_owned();
    assert!(inspect.status.success(), "inspect: {out}");
    assert!(
        out.lines()
            .any(|l| l == "header: version 2 sections row_ptr col_packed"),
        "{out}"
    );
    let field = |key: &str| -> u64 {
        out.split_whitespace()
            .find_map(|w| w.strip_prefix(key)?.parse().ok())
            .unwrap_or_else(|| panic!("no {key} in {out}"))
    };
    let (n, arcs) = (field("n="), field("arcs="));
    assert_eq!(n, 50_000, "{out}");
    let heap = (n + 1) * 8 + arcs * 4;
    let want = format!("residency: {heap} heap bytes, charged in full");
    assert!(out.lines().any(|l| l == want), "want '{want}' in {out}");
}

/// A pack in a scratch directory of its own.
fn scratch_pack(tag: &str) -> (PathBuf, PathBuf) {
    let dir = scratch_dir(tag);
    let path = dir.join("g.dbsg");
    (dir, path)
}

/// A 70,000-wide row and rows whose gaps take 2, 3 and 4 varint bytes
/// round-trip exactly, however the decode is split across cores (2.1M
/// rows split on a multi-core host). A 5-byte gap needs a vertex id of
/// 2^28 or more, so a graph of over 2^28 vertices and a 2 GiB
/// `row_ptr`: db-graph's codec tests and db-store's decode test cover
/// that width without a graph.
#[test]
fn wide_rows_and_long_gaps_round_trip_exactly() {
    let n = 2_100_000u32;
    let mut edges: Vec<(u32, u32)> = (0..70_000).map(|i| (0, i * 30)).collect();
    // Gaps of 2^21 + 6 (4 bytes), 2,840 (2 bytes) and 16,384 (3 bytes).
    edges.extend([(1, 1), (1, (1 << 21) + 7), (1, n - 1)]);
    edges.extend([(2, 0), (2, 16_384), (2, 2_000_000)]);
    edges.extend((3..n).step_by(1000).map(|u| (u, (u * 7 + 3) % n)));
    let g = from_edge_list(n, &edges, true);
    assert_eq!(g.degree(0), 70_000);
    let (dir, path) = scratch_pack("wide");
    let summary = pack_graph(&g, &path, PackOptions::default()).unwrap();
    let store = load(&path);
    std::fs::remove_dir_all(&dir).ok();
    let store = store.unwrap();
    assert_eq!(summary.arcs, g.num_arcs() as u64);
    assert_eq!(store.header().version, 2);
    let ids: Vec<u32> = store.sections().iter().map(|e| e.id).collect();
    assert_eq!(ids, [SEC_ROW_PTR, SEC_COL_PACKED]);
    assert_eq!(store.graph().neighbors(1), &[1, (1 << 21) + 7, n - 1]);
    assert!(store.graph() == &g, "the loaded graph differs");
}

/// A version-1 pack (the format with a raw hub section) is refused:
/// its header, resealed with a fresh checksum, differs from a v2 pack's
/// only in the version, and the load fails typed instead of misreading
/// it. A served `store:` key on it answers `error`.
#[test]
fn a_version_1_pack_is_refused_typed_and_served_as_an_error() {
    let g = from_edge_list(500, &[(0, 1), (1, 2), (2, 499), (499, 0)], true);
    let (dir, path) = scratch_pack("v1");
    pack_graph(&g, &path, PackOptions::default()).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..10].copy_from_slice(&1u16.to_le_bytes());
    let sum = hash64(&bytes[0..56]);
    bytes[56..64].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let loaded = load(&path);

    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let r = server.handle().run(Request {
        id: 1,
        tenant: "store".into(),
        graph: format!("store:{}", path.display()),
        workload: Workload::Dfs { root: 0 },
        engine: EngineKind::Native,
        deadline_ms: None,
    });
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        matches!(loaded, Err(StoreError::UnsupportedVersion(1))),
        "{loaded:?}"
    );
    assert_eq!(r.status, Status::Error, "{r:?}");
    let error = r.error.unwrap_or_default();
    assert!(error.contains("unsupported pack version 1"), "{error}");
}
