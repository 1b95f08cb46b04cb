//! `gramer-mine` with a multi-application `--app` list: the cells run on
//! the host's threads, and element *i* of the `--json` array must equal
//! the report of a standalone run of application *i*.

use gramer::json::JsonValue;
use std::process::Command;

#[test]
fn multi_app_reports_equal_single_app_reports() {
    let dir = std::env::temp_dir().join(format!("gramer-cli-multi-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    // A 40-vertex ring with chords of length 1..=3: every window of four
    // consecutive vertices is a 4-clique. Small enough for a debug build.
    let edges = dir.join("graph.txt");
    let text: String = (0u32..40)
        .flat_map(|i| (1..=3).map(move |d| format!("{i} {}\n", (i + d) % 40)))
        .collect();
    std::fs::write(&edges, text).expect("write edge list");

    let mine = |app: &str| {
        let out = dir.join(format!("{app}.json"));
        let run = Command::new(env!("CARGO_BIN_EXE_gramer-mine"))
            .arg(&edges)
            .args(["--app", app, "--json"])
            .arg(&out)
            .output()
            .expect("run gramer-mine");
        assert!(run.status.success(), "--app {app}: {run:?}");
        JsonValue::parse(&std::fs::read_to_string(out).expect("report")).expect("JSON")
    };
    let apps = ["3-cf", "3-mc", "4-cf"];
    let multi = mine(&apps.join(","));
    let cells = multi.as_array().expect("a multi-app run writes an array");
    assert_eq!(cells.len(), apps.len());
    for (cell, app) in cells.iter().zip(apps) {
        assert_eq!(*cell, mine(app), "{app} differs from its single-app run");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
