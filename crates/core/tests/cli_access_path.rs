//! The access path is not a user knob: it changes no simulated number,
//! so neither mining front end takes `--access-path`. Each refuses it as
//! an unknown option with a usage error (exit 2), while the same command
//! line without it runs.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("run {bin}: {e}"))
}

fn assert_refuses_access_path(bin: &str, args: &[&str]) {
    let control = run(bin, args);
    assert!(control.status.success(), "{bin} {args:?}: {control:?}");
    for path in ["exact", "fast"] {
        let refused = run(bin, &[args, &["--access-path", path]].concat());
        let stderr = String::from_utf8_lossy(&refused.stderr);
        assert_eq!(refused.status.code(), Some(2), "{bin} {path}: {refused:?}");
        assert!(
            stderr.contains("unknown option: --access-path"),
            "{bin} {path}: {stderr}"
        );
    }
}

#[test]
fn gramer_mine_refuses_access_path() {
    let dir = std::env::temp_dir().join(format!("gramer-cli-access-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let edges = dir.join("triangle.txt");
    std::fs::write(&edges, "0 1\n1 2\n2 0\n").expect("write edge list");
    let edges = edges.to_str().expect("UTF-8 temp path");
    assert_refuses_access_path(env!("CARGO_BIN_EXE_gramer-mine"), &[edges, "--app", "3-cf"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gramer_query_refuses_access_path() {
    assert_refuses_access_path(
        env!("CARGO_BIN_EXE_gramer-query"),
        &["--gen", "golden-ba", "--query", "1,2:0-1"],
    );
}
