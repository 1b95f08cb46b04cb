//! The `BENCH_core.json` document written by `gramer-bench perf` — the
//! repo's simulator-throughput trajectory (see EXPERIMENTS.md).
//!
//! Each workload is run several times (default 3); the document records
//! the median and best wall time / throughput so the trajectory is
//! robust to scheduler noise, while the *simulated* quantities are
//! asserted identical across repeats before the document is built.
//!
//! Schema (`schema_version: 6` — v3 added the engine and cell-thread
//! knobs per workload; v4 added the `memo` knob and the `memo_hits`
//! simulated counter; v5 dropped the `epoch` key with the second engine;
//! v6 dropped the cell-thread key with its knob):
//!
//! ```json
//! {
//!   "schema_version": 6,
//!   "bench": "core",
//!   "git_rev": "abc1234",
//!   "quick": false,
//!   "repeats": 3,
//!   "workloads": [
//!     { "name": "BA(3000,4)x4-CF", "memo": "off", "memo_hits": 0,
//!       "wall_seconds_median": 0.0, "wall_seconds_best": 0.0,
//!       "steps_per_sec_median": 0.0, "steps_per_sec_best": 0.0,
//!       "steps": 0, "cycles": 0, "embeddings": 0 }
//!   ],
//!   "total": { "wall_seconds_median": 0.0, "wall_seconds_best": 0.0,
//!              "steps": 0, "steps_per_sec_median": 0.0,
//!              "steps_per_sec_best": 0.0 },
//!   "peak_rss_kb": 0
//! }
//! ```
//!
//! `cycles`, `steps` and `embeddings` are *simulated* quantities and must
//! be identical across hosts, repeats and PRs (they detect semantic
//! drift); the wall/throughput fields and `peak_rss_kb` measure the
//! simulator implementation and are the trajectory being tracked.

use gramer::json::JsonValue;
use gramer::RunReport;

/// The repeated timings of one pinned workload.
pub struct WorkloadRuns {
    /// Workload cell name (e.g. `"BA(3000,4)x4-CF"`).
    pub name: &'static str,
    /// Memo-table mode the cell ran under: `"off"` or the byte budget
    /// in decimal. This is a model knob — cells with different `memo`
    /// values have legitimately different `cycles`, so the drift check
    /// only ever compares same-name cells.
    pub memo: String,
    /// Wall seconds of each repeat (preprocess + simulate), in run order.
    pub walls: Vec<f64>,
    /// The run report. Simulated fields are identical across repeats
    /// (`gramer-bench perf` asserts this before building the document).
    pub report: RunReport,
}

impl WorkloadRuns {
    /// Median wall seconds over the repeats.
    pub fn wall_median(&self) -> f64 {
        median(&self.walls)
    }

    /// Best (minimum) wall seconds over the repeats.
    pub fn wall_best(&self) -> f64 {
        self.walls.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Median of a non-empty slice (midpoint for odd lengths, mean of the
/// two central values for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Builds the `BENCH_core.json` document text (trailing newline
/// included, insertion-ordered keys, byte-stable for fixed inputs).
pub fn perf_document(
    git_rev: &str,
    quick: bool,
    repeats: usize,
    workloads: &[WorkloadRuns],
    peak_rss_kb: u64,
) -> String {
    let total_median: f64 = workloads.iter().map(WorkloadRuns::wall_median).sum();
    let total_best: f64 = workloads.iter().map(WorkloadRuns::wall_best).sum();
    let total_steps: u64 = workloads.iter().map(|w| w.report.steps).sum();
    let cells = workloads.iter().map(|w| {
        let steps = w.report.steps as f64;
        JsonValue::object([
            ("name", JsonValue::from(w.name)),
            ("memo", JsonValue::from(w.memo.as_str())),
            (
                "memo_hits",
                JsonValue::from(w.report.memo.map_or(0, |s| s.hits)),
            ),
            ("wall_seconds_median", JsonValue::from(w.wall_median())),
            ("wall_seconds_best", JsonValue::from(w.wall_best())),
            (
                "steps_per_sec_median",
                JsonValue::from(steps / w.wall_median().max(1e-9)),
            ),
            (
                "steps_per_sec_best",
                JsonValue::from(steps / w.wall_best().max(1e-9)),
            ),
            ("steps", JsonValue::from(w.report.steps)),
            ("cycles", JsonValue::from(w.report.cycles)),
            ("embeddings", JsonValue::from(w.report.result.embeddings)),
        ])
    });
    let doc = JsonValue::object([
        ("schema_version", JsonValue::from(6u64)),
        ("bench", JsonValue::from("core")),
        ("git_rev", JsonValue::from(git_rev)),
        ("quick", JsonValue::from(quick)),
        ("repeats", JsonValue::from(repeats as u64)),
        ("workloads", JsonValue::array(cells)),
        (
            "total",
            JsonValue::object([
                ("wall_seconds_median", JsonValue::from(total_median)),
                ("wall_seconds_best", JsonValue::from(total_best)),
                ("steps", JsonValue::from(total_steps)),
                (
                    "steps_per_sec_median",
                    JsonValue::from(total_steps as f64 / total_median.max(1e-9)),
                ),
                (
                    "steps_per_sec_best",
                    JsonValue::from(total_steps as f64 / total_best.max(1e-9)),
                ),
            ]),
        ),
        ("peak_rss_kb", JsonValue::from(peak_rss_kb)),
    ]);
    let mut text = doc.to_string();
    text.push('\n');
    text
}

/// Result of comparing a freshly measured perf document against a
/// committed baseline (`perf --check`).
#[derive(Debug, Default)]
pub struct BaselineCheck {
    /// Human-readable comparison lines (always produced).
    pub info: Vec<String>,
    /// Violations: drifted simulated fields or a throughput regression
    /// beyond the threshold. Empty means the check passed.
    pub violations: Vec<String>,
}

impl BaselineCheck {
    /// Whether the fresh document is acceptable against the baseline.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

fn workload_name(cell: &JsonValue) -> String {
    match cell.get("name") {
        Some(JsonValue::Str(s)) => s.clone(),
        _ => "<unnamed>".to_string(),
    }
}

/// Compares `fresh` (a just-measured perf document) against `baseline`
/// (the committed `results/BENCH_core.json`).
///
/// Two classes of checks, mirroring the document's two classes of
/// fields:
///
/// * **Simulated** quantities (`steps`, `cycles`, `embeddings` per
///   workload) must be *identical* — any drift means the simulator's
///   semantics changed, which a perf-neutral PR must not do.
/// * **Host throughput** (`total.steps_per_sec_median`) may regress at
///   most `threshold_pct` percent below the baseline; being faster is
///   always fine.
pub fn check_against_baseline(
    fresh: &JsonValue,
    baseline: &JsonValue,
    threshold_pct: f64,
) -> BaselineCheck {
    let mut check = BaselineCheck::default();

    if fresh.get("quick") != baseline.get("quick") {
        check
            .violations
            .push("quick mode differs between the fresh run and the baseline document".to_string());
    }

    let cells = |doc: &JsonValue| -> Vec<JsonValue> {
        match doc.get("workloads") {
            Some(JsonValue::Array(a)) => a.clone(),
            _ => Vec::new(),
        }
    };
    let fresh_cells = cells(fresh);
    let base_cells = cells(baseline);
    if base_cells.is_empty() {
        check
            .violations
            .push("baseline document has no workloads".to_string());
    }
    for base in &base_cells {
        let name = workload_name(base);
        let Some(mine) = fresh_cells
            .iter()
            .find(|c| c.get("name") == base.get("name"))
        else {
            check
                .violations
                .push(format!("workload {name} missing from the fresh run"));
            continue;
        };
        for field in ["steps", "cycles", "embeddings", "memo_hits"] {
            let b = base.get(field).and_then(JsonValue::as_u64);
            let f = mine.get(field).and_then(JsonValue::as_u64);
            if b != f {
                check.violations.push(format!(
                    "{name}: simulated {field} drifted (baseline {b:?}, fresh {f:?})"
                ));
            }
        }
    }

    let tput = |doc: &JsonValue| {
        doc.get("total")
            .and_then(|t| t.get("steps_per_sec_median"))
            .and_then(JsonValue::as_f64)
    };
    match (tput(fresh), tput(baseline)) {
        (Some(f), Some(b)) if b > 0.0 => {
            let floor = b * (1.0 - threshold_pct / 100.0);
            check.info.push(format!(
                "median throughput: fresh {f:.0} steps/s vs baseline {b:.0} ({:+.1}%), floor {floor:.0} (-{threshold_pct}%)",
                100.0 * (f - b) / b
            ));
            if f < floor {
                check.violations.push(format!(
                    "median throughput regressed more than {threshold_pct}%: {f:.0} < {floor:.0} steps/s"
                ));
            }
        }
        _ => check
            .violations
            .push("total.steps_per_sec_median missing from fresh or baseline document".to_string()),
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_is_parseable_and_carries_schema() {
        let text = perf_document("deadbee", false, 3, &[], 1234);
        let doc = JsonValue::parse(text.trim()).unwrap();
        assert_eq!(doc.get("schema_version"), Some(&JsonValue::UInt(6)));
        assert_eq!(doc.get("git_rev"), Some(&JsonValue::Str("deadbee".into())));
        assert_eq!(doc.get("repeats"), Some(&JsonValue::UInt(3)));
        assert_eq!(doc.get("peak_rss_kb"), Some(&JsonValue::UInt(1234)));
        assert!(matches!(doc.get("workloads"), Some(JsonValue::Array(a)) if a.is_empty()));
        let total = doc.get("total").unwrap();
        assert!(total.get("wall_seconds_median").is_some());
        assert!(total.get("steps_per_sec_best").is_some());
    }

    #[test]
    fn document_records_the_memo_knob_per_workload() {
        let g = gramer_graph::generate::cycle(12);
        let cfg = gramer::GramerConfig::default();
        let pre = gramer::preprocess(&g, &cfg).unwrap();
        let app = gramer_mining::apps::CliqueFinding::new(3).unwrap();
        let report = gramer::Simulator::new(&pre, cfg)
            .unwrap()
            .run(&app)
            .unwrap();
        let w = WorkloadRuns {
            name: "W",
            memo: "65536".to_string(),
            walls: vec![0.5],
            report,
        };
        let text = perf_document("rev", false, 1, &[w], 0);
        let doc = JsonValue::parse(text.trim()).unwrap();
        let cells = match doc.get("workloads") {
            Some(JsonValue::Array(a)) => a.clone(),
            other => panic!("workloads missing: {other:?}"),
        };
        assert_eq!(cells[0].get("memo"), Some(&JsonValue::Str("65536".into())));
        // The cell ran with NoMemo, so the pinned counter is zero.
        assert_eq!(cells[0].get("memo_hits"), Some(&JsonValue::UInt(0)));
    }

    fn doc(steps: u64, cycles: u64, tput: f64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"schema_version": 2, "quick": false,
                 "workloads": [{{"name": "W", "steps": {steps}, "cycles": {cycles}, "embeddings": 7}}],
                 "total": {{"steps_per_sec_median": {tput}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn baseline_check_accepts_identical_and_faster_runs() {
        let base = doc(100, 50, 1000.0);
        assert!(check_against_baseline(&doc(100, 50, 1000.0), &base, 10.0).ok());
        let faster = check_against_baseline(&doc(100, 50, 2000.0), &base, 10.0);
        assert!(faster.ok(), "{:?}", faster.violations);
        assert!(!faster.info.is_empty());
        // Within the threshold: 5% below floor of -10%.
        assert!(check_against_baseline(&doc(100, 50, 950.0), &base, 10.0).ok());
    }

    #[test]
    fn baseline_check_flags_regressions_and_drift() {
        let base = doc(100, 50, 1000.0);
        let slow = check_against_baseline(&doc(100, 50, 800.0), &base, 10.0);
        assert!(!slow.ok());
        assert!(slow.violations[0].contains("regressed"));
        let drift = check_against_baseline(&doc(101, 50, 1000.0), &base, 10.0);
        assert!(!drift.ok());
        assert!(drift.violations[0].contains("steps drifted"));
        let missing = check_against_baseline(
            &JsonValue::parse(
                r#"{"quick": false, "workloads": [], "total": {"steps_per_sec_median": 1000.0}}"#,
            )
            .unwrap(),
            &base,
            10.0,
        );
        assert!(!missing.ok());
        assert!(missing.violations[0].contains("missing from the fresh run"));
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }
}
