//! `perf` — the pinned end-to-end performance workload behind
//! `scripts/perf.sh`.
//!
//! Runs a fixed, seeded workload through the full GRAMER stack
//! (preprocess + simulate) and writes `results/BENCH_core.json` recording
//! the repo's simulator-throughput trajectory: wall seconds, simulator
//! steps per second, and peak RSS, keyed by git revision. Future PRs are
//! held to these numbers (see EXPERIMENTS.md, "Simulator performance
//! trajectory").
//!
//! The workload is deliberately *host-performance* sensitive and
//! *simulation-deterministic*: the graphs are seeded, the apps fixed, so
//! `cycles`, `steps` and every mining count must be byte-stable across
//! hosts, repeats and PRs (asserted here), while wall seconds measure
//! the simulator implementation itself. Each cell is run `--repeats`
//! times (default 3) and the document records the median and best so a
//! single noisy run cannot bend the trajectory.
//!
//! ```text
//! cargo run --release -p gramer-bench --bin perf [-- --json PATH] [--quick] [--repeats N]
//!                                                [--check] [--baseline PATH] [--threshold PCT]
//! ```
//!
//! `--check` is the perf regression gate: instead of (over)writing the
//! JSON document it measures a fresh one and compares it against the
//! committed baseline (`--baseline`, default `results/BENCH_core.json`).
//! Simulated quantities must be identical; the total median throughput
//! may be at most `--threshold` percent (default 10) below the
//! baseline's. Exits non-zero on any violation.

use gramer::{preprocess, AppSpec, GramerConfig, MemoMode, RunReport};
use gramer_bench::perf;
use gramer_graph::{generate, CsrGraph};
use std::process::ExitCode;
use std::time::Instant;

/// One pinned workload cell.
struct Cell {
    name: &'static str,
    graph: CsrGraph,
    app: AppSpec,
    /// Memo-table mode the cell is pinned to (overridable with
    /// `--memo`). The memo-on cell and its same-graph `--memo off`
    /// control measure the pair-memo's wall-clock and simulated-cycle
    /// win side by side.
    memo: MemoMode,
}

/// The pinned workload: a seeded Barabási–Albert graph under 4-clique
/// finding (hub-heavy closure checks) and a seeded R-MAT graph under
/// 3-motif counting (pattern interning + skewed traffic). Sizes are
/// chosen so one pass takes seconds, not minutes, on a laptop core.
fn cells(quick: bool) -> Vec<Cell> {
    let scale = if quick { 4 } else { 1 };
    let rmat_params = generate::RmatParams {
        a: 0.57,
        b: 0.19,
        c: 0.19,
        d: 0.05,
    };
    vec![
        Cell {
            name: "BA(3000,4)x4-CF",
            graph: generate::barabasi_albert(3000 / scale, 4, 71),
            app: "4-cf".parse().expect("valid spec"),
            memo: MemoMode::Off,
        },
        Cell {
            name: "RMAT(13)x3-MC",
            graph: generate::rmat(13 - (quick as u32) * 2, 40_000 / scale, rmat_params, 7),
            app: "3-mc".parse().expect("valid spec"),
            memo: MemoMode::Off,
        },
        // The same R-MAT x 3-MC workload with the pair memo on: together
        // with the `--memo off` control above, this keeps the memo's
        // wall-clock and simulated-cycle win on the measured trajectory.
        Cell {
            name: "RMAT(13)x3-MC@memo",
            graph: generate::rmat(13 - (quick as u32) * 2, 40_000 / scale, rmat_params, 7),
            app: "3-mc".parse().expect("valid spec"),
            memo: MemoMode::On {
                bytes: gramer_mining::DEFAULT_MEMO_BYTES,
            },
        },
    ]
}

/// Peak resident set size of this process in kB (`VmHWM` from
/// `/proc/self/status`), or 0 where procfs is unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

/// The current git revision, from `GRAMER_GIT_REV` (set by
/// `scripts/perf.sh`) or `git rev-parse`, else `"unknown"`.
fn git_rev() -> String {
    if let Ok(rev) = std::env::var("GRAMER_GIT_REV") {
        if !rev.is_empty() {
            return rev;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path = std::path::PathBuf::from("results/BENCH_core.json");
    let mut quick = false;
    let mut repeats = 3usize;
    let mut check = false;
    let mut baseline_path = std::path::PathBuf::from("results/BENCH_core.json");
    let mut threshold = 10.0f64;
    let mut memo_override: Option<MemoMode> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => match it.next() {
                Some(p) => json_path = p.into(),
                None => {
                    eprintln!("--json requires a path");
                    return ExitCode::from(2);
                }
            },
            "--quick" => quick = true,
            "--repeats" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => repeats = n,
                _ => {
                    eprintln!("--repeats requires a count >= 1");
                    return ExitCode::from(2);
                }
            },
            "--check" => check = true,
            "--baseline" => match it.next() {
                Some(p) => baseline_path = p.into(),
                None => {
                    eprintln!("--baseline requires a path");
                    return ExitCode::from(2);
                }
            },
            "--threshold" => match it.next().and_then(|n| n.parse::<f64>().ok()) {
                Some(p) if p.is_finite() && p >= 0.0 => threshold = p,
                _ => {
                    eprintln!("--threshold requires a non-negative percentage");
                    return ExitCode::from(2);
                }
            },
            "--memo" => match it.next().and_then(|v| v.parse::<MemoMode>().ok()) {
                Some(mode) => memo_override = Some(mode),
                None => {
                    eprintln!("--memo requires \"on\", \"off\" or a byte budget");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "perf — pinned simulator-throughput workload\n\
                     usage: perf [--json PATH] [--quick] [--repeats N]\n\
                     \x20           [--check] [--baseline PATH] [--threshold PCT]\n\
                     \x20           [--memo on|off|BYTES]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown option {other:?}");
                return ExitCode::from(2);
            }
        }
    }

    let mut workloads: Vec<perf::WorkloadRuns> = Vec::new();
    println!(
        "{:<24} {:>10} {:>10} {:>14} {:>14} {:>12}",
        "workload", "median s", "best s", "steps", "steps/sec med", "sim cycles"
    );
    for cell in cells(quick) {
        let cfg = GramerConfig {
            memo: memo_override.unwrap_or(cell.memo),
            ..GramerConfig::default()
        };
        let mut walls = Vec::with_capacity(repeats);
        let mut first: Option<RunReport> = None;
        for _ in 0..repeats {
            let t0 = Instant::now();
            let pre = preprocess(&cell.graph, &cfg).expect("pinned config preprocesses");
            let report = cell
                .app
                .run(&pre, cfg.clone(), None)
                .expect("pinned workload must simulate");
            walls.push(t0.elapsed().as_secs_f64());
            match &first {
                None => first = Some(report),
                Some(f) => {
                    // Every simulated quantity must be byte-stable
                    // across repeats — wall time is the only thing a
                    // repeat is allowed to change.
                    assert_eq!(f.steps, report.steps, "{}: steps drifted", cell.name);
                    assert_eq!(f.cycles, report.cycles, "{}: cycles drifted", cell.name);
                    assert_eq!(f.mem, report.mem, "{}: memory stats drifted", cell.name);
                    assert_eq!(f.steals, report.steals, "{}: steals drifted", cell.name);
                    assert_eq!(f.memo, report.memo, "{}: memo stats drifted", cell.name);
                    assert_eq!(
                        f.pu_steps, report.pu_steps,
                        "{}: pu_steps drifted",
                        cell.name
                    );
                    assert_eq!(
                        f.result.embeddings, report.result.embeddings,
                        "{}: embeddings drifted",
                        cell.name
                    );
                    assert_eq!(
                        f.result.counts.sorted(),
                        report.result.counts.sorted(),
                        "{}: pattern counts drifted",
                        cell.name
                    );
                }
            }
        }
        let report = first.expect("repeats >= 1");
        let runs = perf::WorkloadRuns {
            name: cell.name,
            memo: match cfg.memo {
                MemoMode::Off => "off".to_string(),
                MemoMode::On { bytes } => bytes.to_string(),
            },
            walls,
            report,
        };
        println!(
            "{:<24} {:>10.3} {:>10.3} {:>14} {:>14.0} {:>12}",
            runs.name,
            runs.wall_median(),
            runs.wall_best(),
            runs.report.steps,
            runs.report.steps as f64 / runs.wall_median().max(1e-9),
            runs.report.cycles
        );
        workloads.push(runs);
    }
    let total_steps: u64 = workloads.iter().map(|w| w.report.steps).sum();
    let total_median: f64 = workloads.iter().map(perf::WorkloadRuns::wall_median).sum();
    let total_best: f64 = workloads.iter().map(perf::WorkloadRuns::wall_best).sum();
    let rss = peak_rss_kb();
    println!(
        "{:<24} {:>10.3} {:>10.3} {:>14} {:>14.0}   peak RSS {} kB",
        "TOTAL",
        total_median,
        total_best,
        total_steps,
        total_steps as f64 / total_median.max(1e-9),
        rss
    );

    let doc = perf::perf_document(&git_rev(), quick, repeats, &workloads, rss);

    if check {
        // Regression gate: compare against the committed baseline
        // instead of overwriting it.
        let baseline_text = match std::fs::read_to_string(&baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read baseline {}: {e}", baseline_path.display());
                return ExitCode::FAILURE;
            }
        };
        let (fresh, baseline) = match (
            gramer::json::JsonValue::parse(doc.trim()),
            gramer::json::JsonValue::parse(baseline_text.trim()),
        ) {
            (Ok(f), Ok(b)) => (f, b),
            (f, b) => {
                eprintln!("cannot parse perf documents: fresh {f:?} baseline {b:?}");
                return ExitCode::FAILURE;
            }
        };
        let verdict = perf::check_against_baseline(&fresh, &baseline, threshold);
        for line in &verdict.info {
            println!("{line}");
        }
        return if verdict.ok() {
            println!(
                "perf check PASSED against {} (threshold -{threshold}%)",
                baseline_path.display()
            );
            ExitCode::SUCCESS
        } else {
            for v in &verdict.violations {
                eprintln!("perf check violation: {v}");
            }
            eprintln!("perf check FAILED against {}", baseline_path.display());
            ExitCode::FAILURE
        };
    }

    if let Some(dir) = json_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&json_path, doc) {
        Ok(()) => {
            println!("wrote {}", json_path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("failed to write {}: {e}", json_path.display());
            ExitCode::FAILURE
        }
    }
}
