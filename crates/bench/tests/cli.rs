//! The `gramer-bench` command line: the names it dispatches on, the grid
//! each sweep declares at both scales, the sweep flags reaching every
//! simulating point, and a resumed sweep printing and writing what an
//! uninterrupted one does.

use gramer::json::JsonValue;
use std::path::PathBuf;
use std::process::{Command, Output};

fn gramer_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gramer-bench"))
        .args(args)
        .output()
        .expect("gramer-bench starts")
}

/// Every name `gramer-bench` accepts.
const NAMES: [&str; 12] = [
    "fig3", "fig5", "fig8", "table2", "table3", "fig11", "fig12", "table4", "fig13", "fig14",
    "ablation", "perf",
];

#[test]
fn help_lists_every_name_and_an_unknown_name_exits_2() {
    let help = gramer_bench(&["--help"]);
    assert!(help.status.success());
    let text = String::from_utf8(help.stdout).unwrap();
    for name in NAMES {
        assert!(
            text.lines()
                .any(|l| l.split_whitespace().next() == Some(name)),
            "--help does not list {name}:\n{text}"
        );
    }
    for args in [&["nosuch"][..], &[]] {
        let out = gramer_bench(args);
        assert_eq!(out.status.code(), Some(2), "gramer-bench {args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("ablation"), "no name list on stderr:\n{err}");
    }
}

/// Each sweep's point count under `--list`, at full and at quick scale.
#[test]
fn every_sweep_lists_its_grid_at_both_scales() {
    let grids = [
        ("fig3", 15, 15),
        ("fig5", 4, 4),
        ("fig8", 4, 4),
        ("table2", 3, 3),
        ("table3", 39, 36),
        ("fig11", 7, 4),
        ("fig12", 18, 18),
        ("table4", 3, 3),
        ("fig13", 49, 21),
        ("fig14", 44, 34),
        ("ablation", 12, 12),
    ];
    for (name, full, quick) in grids {
        for (flags, expected) in [(&["--list"][..], full), (&["--list", "--quick"], quick)] {
            let out = gramer_bench(&[&[name][..], flags].concat());
            assert!(out.status.success(), "{name} {flags:?}");
            let listed = String::from_utf8(out.stdout).unwrap().lines().count();
            assert_eq!(listed, expected, "{name} {flags:?}");
        }
    }
}

#[test]
fn fig12_rmat_skew_points_honour_memo_and_metrics() {
    let dir = std::env::temp_dir().join(format!("gramer-bench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |file: &str| -> String {
        let p: PathBuf = dir.join(file);
        p.to_str().unwrap().to_string()
    };
    let (json, journal) = (path("fig12.json"), path("fig12.jsonl"));
    let out = gramer_bench(&[
        "fig12",
        "--quick",
        "--filter",
        "rmat-skew",
        "--memo",
        "on",
        "--metrics",
        "--jobs",
        "2",
        "--json",
        &json,
        "--journal",
        &journal,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = JsonValue::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let points = doc.get("points").and_then(JsonValue::as_array).unwrap();
    assert_eq!(points.len(), 3);
    for p in points {
        let config = p.get("config").and_then(JsonValue::as_str).unwrap();
        assert_eq!(
            p.get("dataset").and_then(JsonValue::as_str),
            Some("rmat-skew")
        );
        let memo = p.get("report").and_then(|r| r.get("memo"));
        assert!(
            memo.is_some_and(|m| *m != JsonValue::Null),
            "{config}: no memo stats"
        );
        let telemetry = p.get("metrics").and_then(|m| m.get("telemetry"));
        assert!(telemetry.is_some(), "{config}: no telemetry rollup");
    }
}

/// The sweep document up to its `host` block: everything a run must
/// reproduce byte for byte.
fn document_outside_host(path: &str) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    let (deterministic, _) = text.split_once("\n  \"host\": ").expect("a host block");
    deterministic.to_string()
}

/// `--resume` over a complete journal, and over one cut to its first 5
/// lines, prints the same stdout and writes the same document outside
/// `host` as an uninterrupted run.
#[test]
fn resumed_sweeps_print_and_write_what_a_fresh_run_does() {
    let dir = std::env::temp_dir().join(format!("gramer-bench-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |file: String| -> String { dir.join(file).to_str().unwrap().to_string() };
    for (name, filter) in [("ablation", None), ("fig12", Some("P2P"))] {
        let journal = path(format!("{name}.jsonl"));
        let part = path(format!("{name}-part.jsonl"));
        let run = |tag: &str, journal: &str, resume: bool| {
            let json = path(format!("{name}-{tag}.json"));
            let mut args = vec![name, "--quick", "--jobs", "2", "--json", &json];
            args.extend(["--journal", journal]);
            args.extend(filter.map(|f| ["--filter", f]).into_iter().flatten());
            if resume {
                args.push("--resume");
            }
            let out = gramer_bench(&args);
            let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
            assert!(out.status.success(), "{name} {tag}: {stderr}");
            (out.stdout, document_outside_host(&json), stderr)
        };
        let (stdout, document, _) = run("fresh", &journal, false);
        let lines = std::fs::read_to_string(&journal).unwrap();
        let first_five: String = lines.split_inclusive('\n').take(5).collect();
        std::fs::write(&part, first_five).unwrap();
        let total = lines.lines().count();
        for (tag, journal, k) in [("complete", &journal, total), ("part", &part, 5)] {
            let (resumed_stdout, resumed_document, stderr) = run(tag, journal, true);
            let replayed = format!("resuming: {k}/{total} points");
            assert!(stderr.contains(&replayed), "{name} {tag}: {stderr}");
            assert!(
                resumed_stdout == stdout,
                "{name} {tag}: stdout differs from the fresh run's:\n{}\n---\n{}",
                String::from_utf8_lossy(&resumed_stdout),
                String::from_utf8_lossy(&stdout)
            );
            assert_eq!(resumed_document, document, "{name} {tag}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
