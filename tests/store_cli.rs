//! `diggerbees store pack --out <bare file name>` writes into the
//! working directory. Sealing the pack fsyncs the output's parent
//! directory, and for a bare name that parent is the empty path.

use std::process::{Command, Output};

#[test]
fn pack_and_verify_a_bare_file_name_in_the_working_directory() {
    let dir = std::env::temp_dir().join(format!("store-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |args: &[&str]| -> Output {
        Command::new(env!("CARGO_BIN_EXE_diggerbees"))
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap()
    };
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
    std::fs::remove_dir_all(&dir).ok();
    let stderr = |o: &Output| String::from_utf8_lossy(&o.stderr).into_owned();
    assert!(pack.status.success(), "pack: {}", stderr(&pack));
    assert!(packed, "the pack lands in the working directory");
    assert!(verify.status.success(), "verify: {}", stderr(&verify));
}
