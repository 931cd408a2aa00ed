//! `diggerbees store pack --out <bare file name>` writes into the
//! working directory. Sealing the pack fsyncs the output's parent
//! directory, and for a bare name that parent is the empty path.
//! `store inspect` reports how much of a pack's mapping is resident.
//! Both packs' bytes are pinned, so a drift in the social generator or
//! the row encoder fails here.

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
        hash, 0xb0a1_e5f8_86f5_6d3d,
        "social:2000:11 pack bytes drifted"
    );
}

/// A compressed pack keeps only `row_ptr` resident in its mapping once
/// the load has decoded the columns: `store inspect` must report at
/// most the mapped (`row_ptr`) bytes plus 128 KiB for the header page,
/// the pages shared at section boundaries and the kernel's fault-around.
#[cfg(target_os = "linux")]
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
        hash, 0xd699_0a4c_296f_1cc1,
        "social:50000:11 pack bytes drifted"
    );
    let out = String::from_utf8_lossy(&inspect.stdout).into_owned();
    assert!(inspect.status.success(), "inspect: {out}");
    assert!(out.contains("backing=mmap row_ptr + heap columns"), "{out}");
    let line = out
        .lines()
        .find(|l| l.starts_with("residency:"))
        .unwrap_or_else(|| panic!("no residency line in {out}"));
    let count = |suffix: &str| -> u64 {
        line.split(", ")
            .find_map(|part| part.strip_suffix(suffix)?.rsplit(' ').next()?.parse().ok())
            .unwrap_or_else(|| panic!("no '{suffix}' count in {line}"))
    };
    let mapped = count(" mapped bytes");
    let resident = count(" resident in the mapping");
    assert!(resident <= mapped + 128 * 1024, "{line}");
}
