//! `gramer-mine` on a 13-byte edge list whose largest ID names a 2^32
//! vertex universe (34 GB of row offsets). Under an address-space limit
//! the allocation fails, and the run must end in the typed error with
//! exit 1, not abort (exit 134) — in whatever profile the test builds.

use std::process::Command;

#[test]
fn huge_vertex_id_is_a_typed_error_under_an_address_space_limit() {
    let dir = std::env::temp_dir().join(format!("gramer-cli-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let edges = dir.join("huge.txt");
    std::fs::write(&edges, "0 4294967294\n").expect("write edge list");

    let run = Command::new("sh")
        .arg("-c")
        .arg("ulimit -v 8388608 && exec \"$0\" \"$1\" --app 3-cf")
        .arg(env!("CARGO_BIN_EXE_gramer-mine"))
        .arg(&edges)
        .output()
        .expect("run gramer-mine under sh");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{run:?}");
    assert!(
        stderr.contains("graph too large: cannot allocate 34359738368 bytes for row offsets"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
