//! Shared harness for regenerating every table and figure of the GRAMER
//! paper's evaluation (§VI).
//!
//! One binary, `gramer-bench <name> [options]`, runs each experiment.
//! Every sweep is a module of [`experiments`] with two functions: a grid,
//! `sweep(&Harness) -> Sweep`, that declares its `(dataset, app, config)`
//! points, and a table over the finished [`SweepResult`], which reads
//! only the records. One driver, [`experiments::run`], parses the shared
//! options ([`SWEEP_USAGE`]: `--jobs N`, `--json PATH`, `--filter SUBSTR`,
//! `--list`, `--resume`, `--point-timeout SECS`, `--journal PATH`,
//! `--quick`, ...), runs the grid on the parallel, fault-tolerant sweep
//! runner (see [`sweep`]), writes the structured JSON artifact to
//! `results/BENCH_<name>.json` and prints the table. A point holds its
//! report as JSON only, so a sweep resumed from its journal prints and
//! writes what an uninterrupted one does. The points borrow one
//! [`Harness`] built from the options, and every simulating point runs
//! through [`Harness::run_gramer`]. Failing points are quarantined into
//! structured records instead of aborting the sweep; see
//! `EXPERIMENTS.md` for the failure semantics.
//!
//! | name | artifact |
//! |---|---|
//! | `fig3` | pipeline-stall breakdown on the CPU baseline |
//! | `fig5` | extension locality per iteration (top-5% access shares) |
//! | `fig8` | ON_k accuracy vs computation overhead |
//! | `table2` | resource utilisation and clock rate |
//! | `table3` | running time: GRAMER vs Fractal vs RStream |
//! | `fig11` | energy and total time (incl. preprocessing) |
//! | `fig12` | LAMH vs Uniform-LRU vs Static+LRU |
//! | `table4` | clock rate w/o AB, w/ AB, w/ AB + compaction |
//! | `fig13` | pipeline-slot sweep and work-stealing speedup |
//! | `fig14` | τ and λ sensitivity |
//! | `ablation` | design-choice ablations called out in DESIGN.md |
//! | `perf` | the pinned simulator-throughput workload ([`perf`]) |
//!
//! The paper's datasets are generated as scaled power-law analogs (see
//! `gramer_graph::datasets`); divisors below keep each simulated cell in
//! the seconds range on a laptop while preserving the small/medium/large
//! ordering. Pass `--quick` ([`Scale::Quick`]) for a ~4× faster, coarser
//! pass.
//!
//! # Example
//!
//! A minimal two-point sweep (experiments declare real simulation points
//! the same way; [`experiments::run`] runs them with [`Sweep::run_with`]):
//!
//! ```
//! use gramer_bench::{PointOutput, Sweep};
//!
//! let mut sweep = Sweep::new("demo");
//! for k in [3usize, 4] {
//!     sweep.point("toy", &format!("{k}-CF"), "default", move || {
//!         PointOutput::new().metric("k", k)
//!     });
//! }
//! // Two worker threads; results still come back in declaration order.
//! let result = sweep.run(2, None);
//! assert_eq!(result.records.len(), 2);
//! assert_eq!(result.records[0].metric_f64("k"), Some(3.0));
//! // Both points completed, so the failure-aware exit code is 0.
//! assert!(result.records.iter().all(|r| r.is_ok()));
//! assert_eq!(result.exit_code(), 0);
//! ```

#![warn(missing_docs)]

use gramer::json::JsonValue;
use gramer::telemetry::{Telemetry, TelemetryConfig};
use gramer::{preprocess, AppSpec, GramerConfig, MemoMode, PreprocessCache, RunReport, SimError};
use gramer_graph::datasets::Dataset;
use gramer_graph::CsrGraph;
use gramer_mining::apps::{CliqueFinding, FrequentSubgraphMining, MotifCounting};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

pub mod experiments;
pub mod perf;
pub mod sweep;

pub use sweep::{
    PointError, PointOutput, PointRecord, PointStatus, Sweep, SweepOptions, SweepResult,
};

/// The dataset scale a sweep runs at.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Scale {
    /// The full analogs, at the divisors of [`divisor`].
    #[default]
    Full,
    /// `--quick`: every analog 4× smaller, and some sweeps drop their
    /// heaviest datasets; a ~4× faster, coarser pass.
    Quick,
}

/// Scale divisor applied to each dataset so a software simulator can
/// finish the combinatorial workloads (documented in DESIGN.md §1).
pub fn divisor(d: Dataset, scale: Scale) -> usize {
    let base = match d {
        Dataset::Citeseer => 1,
        Dataset::P2p => 2,
        Dataset::Astro => 16,
        Dataset::Mico => 100,
        Dataset::Patents => 1500,
        Dataset::Youtube => 6000,
        Dataset::LiveJournal => 6400,
    };
    match scale {
        Scale::Full => base,
        Scale::Quick => base * 4,
    }
}

/// FSM occurrence threshold for `d`, scaled like the graph (the paper
/// uses 2K for small/medium graphs, 20K for Patents, 250K for YT/LJ).
pub fn fsm_threshold(d: Dataset, scale: Scale) -> u64 {
    let full: u64 = match d {
        Dataset::Patents => 20_000,
        Dataset::Youtube | Dataset::LiveJournal => 250_000,
        _ => 2_000,
    };
    (full / divisor(d, scale) as u64).max(2)
}

/// The application variants of Table III, in presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppVariant {
    /// k-clique finding.
    Cf(usize),
    /// k-motif counting.
    Mc(usize),
    /// FSM with the dataset-scaled threshold.
    Fsm,
}

impl AppVariant {
    /// All Table III variants.
    pub const TABLE3: [AppVariant; 6] = [
        AppVariant::Cf(3),
        AppVariant::Cf(4),
        AppVariant::Cf(5),
        AppVariant::Mc(3),
        AppVariant::Mc(4),
        AppVariant::Fsm,
    ];

    /// Display name, with the FSM threshold resolved per dataset.
    pub fn name(self, d: Dataset, scale: Scale) -> String {
        match self {
            AppVariant::Cf(k) => format!("{k}-CF"),
            AppVariant::Mc(k) => format!("{k}-MC"),
            AppVariant::Fsm => format!("FSM-{}", fsm_threshold(d, scale)),
        }
    }

    /// The application instantiated for `d`, ready for
    /// [`Harness::run_gramer`].
    pub fn spec(self, d: Dataset, scale: Scale) -> AppSpec {
        match self {
            AppVariant::Cf(k) => AppSpec::CliqueFinding(CliqueFinding::new(k).expect("valid k")),
            AppVariant::Mc(k) => AppSpec::MotifCounting(MotifCounting::new(k).expect("valid k")),
            AppVariant::Fsm => AppSpec::Fsm(FrequentSubgraphMining::new(fsm_threshold(d, scale))),
        }
    }
}

/// What every sweep point borrows, built once from [`SweepArgs`]: the
/// dataset scale, the memo override, the metrics switch, the opened
/// artifact cache and the lazily generated dataset analogs.
#[derive(Debug)]
pub struct Harness {
    /// The dataset scale (`--quick`).
    pub scale: Scale,
    /// Memo-table override (`--memo`); `None` keeps each point's mode.
    memo: Option<MemoMode>,
    /// Whether runs record telemetry (`--metrics`).
    metrics: bool,
    /// On-disk preprocessing cache (`--artifact-cache`).
    artifact_cache: Option<PreprocessCache>,
    /// Each dataset's analog, generated by the first point that needs it
    /// and then shared by reference with every other point.
    analogs: [(Dataset, OnceLock<CsrGraph>); Dataset::ALL.len()],
}

/// One finished GRAMER run: its report and, when the harness records
/// metrics, the compact telemetry rollup.
#[derive(Debug)]
pub struct GramerRun {
    /// The simulator report.
    pub report: RunReport,
    /// Telemetry rollup, attached last to the point's metrics under
    /// `"telemetry"`.
    pub telemetry: Option<JsonValue>,
}

impl Harness {
    /// The harness for `args`. An `--artifact-cache` directory that
    /// cannot be created is reported on stderr, and points then
    /// preprocess inline; under `--list`, which runs no point, it is not
    /// opened.
    pub fn new(args: &SweepArgs) -> Harness {
        let dir = args.artifact_cache.as_deref().filter(|_| !args.list);
        let artifact_cache = dir.and_then(|dir| {
            PreprocessCache::new(dir)
                .map_err(|e| {
                    eprintln!("warning: --artifact-cache disabled ({e}); preprocessing inline");
                })
                .ok()
        });
        Harness {
            scale: args.scale,
            memo: args.memo,
            metrics: args.metrics,
            artifact_cache,
            analogs: Dataset::ALL.map(|d| (d, OnceLock::new())),
        }
    }

    /// An empty sweep named `name` at this harness's scale, whose points
    /// may borrow the harness.
    pub fn sweep(&self, name: &str) -> Sweep<'_> {
        let mut sweep = Sweep::new(name);
        sweep.scale = self.scale;
        sweep
    }

    /// The analog of `d` at this harness's scale, generated on first use
    /// and then shared by every point.
    pub fn analog(&self, d: Dataset) -> &CsrGraph {
        let (_, slot) = self
            .analogs
            .iter()
            .find(|(slot_d, _)| *slot_d == d)
            .expect("every dataset has a slot");
        slot.get_or_init(|| d.generate_scaled(divisor(d, self.scale)))
    }

    /// Runs GRAMER end-to-end (preprocess + simulate) with `config`,
    /// surfacing configuration and simulation failures as typed errors the
    /// sweep runner turns into structured failure records.
    ///
    /// The memo override replaces `config.memo`: a *model* change, so
    /// cycles, memory traffic and energy legitimately move, but mining
    /// results stay bit-identical (the memo only skips probes whose
    /// outcome is already known). With an artifact cache, preprocessing
    /// is memoized on disk as a `.gra` artifact; reports are
    /// bit-identical either way. With metrics on, the run also records
    /// cycle-windowed telemetry and hands back its rollup; simulated
    /// results are unaffected.
    pub fn run_gramer(
        &self,
        graph: &CsrGraph,
        app: &AppSpec,
        mut config: GramerConfig,
    ) -> Result<GramerRun, SimError> {
        if let Some(memo) = self.memo {
            config.memo = memo;
        }
        let pre = match &self.artifact_cache {
            Some(cache) => cache.get_or_build(graph, &config)?.0,
            None => preprocess(graph, &config)?,
        };
        let mut tel = self
            .metrics
            .then(|| Telemetry::new(TelemetryConfig::default()));
        let report = app.run(&pre, config, tel.as_mut())?;
        Ok(GramerRun {
            report,
            telemetry: tel.map(|t| t.summary_json()),
        })
    }

    /// One simulating sweep point: `variant` on the analog of `d` under
    /// `config`.
    pub fn point(
        &self,
        d: Dataset,
        variant: AppVariant,
        config: GramerConfig,
    ) -> Result<PointOutput, SimError> {
        self.run_gramer(self.analog(d), &variant.spec(d, self.scale), config)
            .map(PointOutput::from)
    }
}

/// Command-line options shared by every sweep; the flags are listed in
/// [`SWEEP_USAGE`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Worker-thread count for the sweep runner.
    pub jobs: usize,
    /// JSON artifact path override (`None` → `results/BENCH_<name>.json`).
    pub json: Option<PathBuf>,
    /// Substring filter over `dataset/app/config` point ids.
    pub filter: Option<String>,
    /// Print the point ids and exit instead of running.
    pub list: bool,
    /// Replay journaled completions instead of re-running them.
    pub resume: bool,
    /// Per-point wall-clock budget.
    pub point_timeout: Option<Duration>,
    /// Journal path override (`None` → `results/.journal/<name>.jsonl`).
    pub journal: Option<PathBuf>,
    /// Record cycle-windowed telemetry for each point and attach its
    /// rollup to the point's metrics under `"telemetry"`.
    pub metrics: bool,
    /// Directory of the on-disk `.gra` preprocessing cache (see
    /// [`PreprocessCache`]); `None` preprocesses inline per point.
    /// Sweeps revisiting the same `(dataset, τ, budget)` tuple across
    /// points then preprocess each graph once, and reuse entries across
    /// runs.
    pub artifact_cache: Option<PathBuf>,
    /// Force every point's memo-table mode; `None` keeps each point's
    /// declared mode. A model change — timing and energy move — but
    /// mining results are bit-identical.
    pub memo: Option<MemoMode>,
    /// The dataset scale: [`Scale::Quick`] under `--quick`.
    pub scale: Scale,
}

/// Usage text shared by every sweep.
pub const SWEEP_USAGE: &str = "\
Options:
  --jobs N             worker threads (default: available parallelism)
  --json PATH          JSON artifact path (default: results/BENCH_<name>.json)
  --filter SUBSTR      only run points whose dataset/app/config id contains SUBSTR
  --list               print the point ids this sweep would run, then exit
  --resume             replay completed points from the journal, run the rest
  --point-timeout SECS cancel any point exceeding this wall-clock budget
  --journal PATH       journal path (default: results/.journal/<name>.jsonl)
  --metrics            record cycle-windowed telemetry per point (attached
                       to each point's metrics under \"telemetry\")
  --artifact-cache DIR memoize preprocessing in DIR as .gra artifacts
                       (keyed by graph digest + tau/budget knobs; reused
                       across runs; simulated results are unchanged)
  --memo on|off|BYTES  force every point's memo-table mode (a model
                       change: timing/energy move, mining results are
                       bit-identical)
  --quick              coarser, ~4x faster pass: every dataset analog 4x
                       smaller, and some sweeps drop their heaviest datasets
  --help               print this help, then exit

Failure semantics:
  A panicking or erroring point becomes a structured \"failed\" record; a
  point past --point-timeout becomes \"timed_out\". Neither is re-run: a
  point is a pure function of its inputs. The process exits non-zero
  only when every point of some (dataset, app) group failed.";

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            jobs: default_jobs(),
            json: None,
            filter: None,
            list: false,
            resume: false,
            point_timeout: None,
            journal: None,
            metrics: false,
            artifact_cache: None,
            memo: None,
            scale: Scale::Full,
        }
    }
}

impl SweepArgs {
    /// Parses an argument list (`--opt value` and `--opt=value` forms).
    pub fn try_parse<S: AsRef<str>>(args: &[S]) -> Result<SweepArgs, String> {
        let mut parsed = SweepArgs::default();
        let mut it = args.iter().map(AsRef::as_ref);
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f, Some(v.to_string())),
                None => (arg, None),
            };
            let value = |it: &mut dyn Iterator<Item = &str>| -> Result<String, String> {
                inline
                    .clone()
                    .or_else(|| it.next().map(str::to_string))
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match flag {
                "--list" | "--resume" | "--metrics" | "--quick" if inline.is_some() => {
                    return Err(format!("{flag} takes no value"));
                }
                "--jobs" => {
                    let v = value(&mut it)?;
                    parsed.jobs =
                        v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--jobs expects a positive integer, got {v:?}")
                        })?;
                }
                "--json" => parsed.json = Some(PathBuf::from(value(&mut it)?)),
                "--filter" => parsed.filter = Some(value(&mut it)?),
                "--list" => parsed.list = true,
                "--resume" => parsed.resume = true,
                "--point-timeout" => {
                    let v = value(&mut it)?;
                    parsed.point_timeout = Some(
                        v.parse::<f64>()
                            .ok()
                            .and_then(gramer::progress::budget_from_secs)
                            .ok_or_else(|| {
                                format!("--point-timeout expects positive seconds, got {v:?}")
                            })?,
                    );
                }
                "--journal" => parsed.journal = Some(PathBuf::from(value(&mut it)?)),
                "--metrics" => parsed.metrics = true,
                "--artifact-cache" => parsed.artifact_cache = Some(PathBuf::from(value(&mut it)?)),
                "--memo" => parsed.memo = Some(value(&mut it)?.parse()?),
                "--quick" => parsed.scale = Scale::Quick,
                other => return Err(format!("unknown option {other:?}")),
            }
        }
        Ok(parsed)
    }
}

/// Default worker-thread count: the host's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Prints a separator line sized to `width`.
pub(crate) fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats seconds with sensible precision across the table's range.
pub(crate) fn fmt_secs(s: f64) -> String {
    if s < 0.01 {
        format!("{s:.4}")
    } else if s < 1.0 {
        format!("{s:.3}")
    } else {
        format!("{s:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The harness for a sweep command line.
    fn harness(args: &[&str]) -> Harness {
        Harness::new(&SweepArgs::try_parse(args).unwrap())
    }

    #[test]
    fn divisors_preserve_size_ordering() {
        let h = harness(&[]);
        let small = h.analog(Dataset::Citeseer);
        let medium = h.analog(Dataset::Astro);
        assert!(small.num_vertices() > 0);
        assert!(medium.num_vertices() > 0);
    }

    #[test]
    fn variant_names() {
        assert_eq!(AppVariant::Cf(5).name(Dataset::P2p, Scale::Full), "5-CF");
        assert_eq!(AppVariant::Fsm.name(Dataset::Astro, Scale::Full), "FSM-125");
        assert_eq!(AppVariant::Fsm.name(Dataset::Astro, Scale::Quick), "FSM-31");
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(0.0012), "0.0012");
        assert_eq!(fmt_secs(0.123), "0.123");
        assert_eq!(fmt_secs(12.345), "12.35");
    }

    #[test]
    fn sweep_args_parse_both_forms() {
        let a = SweepArgs::try_parse(&["--jobs", "4", "--filter=P2p", "--list"]).unwrap();
        assert_eq!(a.jobs, 4);
        assert_eq!(a.filter.as_deref(), Some("P2p"));
        assert!(a.list);
        assert_eq!(a.json, None);

        let b = SweepArgs::try_parse(&["--jobs=2", "--json", "out.json"]).unwrap();
        assert_eq!(b.jobs, 2);
        assert_eq!(b.json, Some(PathBuf::from("out.json")));

        let m = SweepArgs::try_parse(&["--memo", "on"]).unwrap();
        assert!(matches!(m.memo, Some(MemoMode::On { .. })));
        let m = SweepArgs::try_parse(&["--memo=65536"]).unwrap();
        assert_eq!(m.memo, Some(MemoMode::On { bytes: 65536 }));
        let m = SweepArgs::try_parse(&["--memo", "off"]).unwrap();
        assert_eq!(m.memo, Some(MemoMode::Off));
        assert_eq!(SweepArgs::default().memo, None);
        assert!(SweepArgs::try_parse(&["--memo", "sometimes"]).is_err());
        assert!(SweepArgs::try_parse(&["--memo", "7"]).is_err());

        let q = SweepArgs::try_parse(&["--quick", "--jobs", "2"]).unwrap();
        assert_eq!(q.scale, Scale::Quick);
        assert_eq!(q.jobs, 2);
        assert_eq!(SweepArgs::default().scale, Scale::Full);
    }

    #[test]
    fn memo_override_changes_timing_not_results() {
        let g = gramer_graph::generate::barabasi_albert(120, 3, 8);
        let app = AppVariant::Cf(4).spec(Dataset::Citeseer, Scale::Full);
        let run = |h: &Harness| h.run_gramer(&g, &app, GramerConfig::default()).unwrap();
        let base = run(&harness(&[])).report;
        assert!(base.memo.is_none());
        let memo = run(&harness(&["--memo", "65536"])).report;
        let stats = memo.memo.expect("override forced the memo on");
        assert!(stats.hits > 0, "4-CF on a BA graph must repeat probes");
        assert_eq!(
            base.result.embeddings, memo.result.embeddings,
            "results are invariant"
        );
        assert_eq!(
            base.result.candidates_examined,
            memo.result.candidates_examined
        );
        // `--memo off` keeps the declared (off) mode's timing.
        let off = run(&harness(&["--memo", "off"])).report;
        assert!(off.memo.is_none());
        assert_eq!(off.cycles, base.cycles);
    }

    #[test]
    fn sweep_args_reject_bad_input() {
        assert!(SweepArgs::try_parse(&["--jobs"]).is_err());
        assert!(SweepArgs::try_parse(&["--jobs", "0"]).is_err());
        assert!(SweepArgs::try_parse(&["--jobs", "many"]).is_err());
        assert!(SweepArgs::try_parse(&["--bogus"]).is_err());
        assert!(SweepArgs::try_parse(&["--point-timeout", "-3"]).is_err());
        assert!(SweepArgs::try_parse(&["--point-timeout", "nan"]).is_err());
        assert!(SweepArgs::try_parse(&["--point-timeout", "1e300"]).is_err());
        assert!(SweepArgs::try_parse(&["--quick=0"]).is_err());
        assert!(SweepArgs::try_parse(&["--metrics=no"]).is_err());
    }

    #[test]
    fn sweep_args_parse_fault_tolerance_flags() {
        let a = SweepArgs::try_parse(&["--resume", "--point-timeout=2.5", "--journal", "j.jsonl"])
            .unwrap();
        assert!(a.resume);
        assert_eq!(a.point_timeout, Some(Duration::from_millis(2500)));
        assert_eq!(a.journal, Some(PathBuf::from("j.jsonl")));

        let d = SweepArgs::try_parse::<&str>(&[]).unwrap();
        assert!(!d.resume);
        assert_eq!(d.point_timeout, None);
        assert_eq!(d.journal, None);
    }

    #[test]
    fn metrics_flag_parses_and_records_a_rollup() {
        let a = SweepArgs::try_parse(&["--metrics"]).unwrap();
        assert!(a.metrics);
        let d = SweepArgs::try_parse::<&str>(&[]).unwrap();
        assert!(!d.metrics);

        // With the switch on, the run hands back a telemetry rollup —
        // without changing the simulated report.
        let g = gramer_graph::generate::barabasi_albert(100, 3, 5);
        let app = AppVariant::Cf(3).spec(Dataset::Citeseer, Scale::Full);
        let run = |h: &Harness| h.run_gramer(&g, &app, GramerConfig::default()).unwrap();
        let plain = run(&harness(&[]));
        assert!(plain.telemetry.is_none());
        let recorded = run(&harness(&["--metrics"]));
        let tel = recorded.telemetry.expect("rollup recorded");
        assert!(tel.get("windows").and_then(JsonValue::as_u64).is_some());
        assert_eq!(plain.report.cycles, recorded.report.cycles);
        assert_eq!(plain.report.steps, recorded.report.steps);

        // The sweep runner attaches it last to the point's metrics.
        let metered = harness(&["--metrics"]);
        let mut sweep = Sweep::new("metrics");
        sweep.point("g", "3-CF", "c", || {
            PointOutput::from(run(&metered)).metric("k", 3u64)
        });
        let record = &sweep.run(1, None).records[0];
        let keys: Vec<&str> = record
            .output
            .metrics
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["k", "telemetry"]);
    }

    #[test]
    fn artifact_cache_flag_parses_and_reports_match() {
        let a = SweepArgs::try_parse(&["--artifact-cache", "cachedir"]).unwrap();
        assert_eq!(a.artifact_cache, Some(PathBuf::from("cachedir")));
        let b = SweepArgs::try_parse(&["--artifact-cache=cd2"]).unwrap();
        assert_eq!(b.artifact_cache, Some(PathBuf::from("cd2")));
        let d = SweepArgs::try_parse::<&str>(&[]).unwrap();
        assert_eq!(d.artifact_cache, None);

        // Cached runs produce bit-identical reports to inline ones, both
        // on the cold (store) and warm (load) pass.
        let dir = std::env::temp_dir().join(format!(
            "gramer-bench-artifact-cache-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let g = gramer_graph::generate::barabasi_albert(120, 3, 8);
        let app = AppVariant::Cf(3).spec(Dataset::Citeseer, Scale::Full);
        let run = |h: &Harness| h.run_gramer(&g, &app, GramerConfig::default()).unwrap();
        let inline = run(&harness(&[])).report;
        let cached = harness(&["--artifact-cache", dir.to_str().unwrap()]);
        let cold = run(&cached).report;
        assert!(dir.is_dir(), "the harness opened the cache directory");
        let warm = run(&cached).report;
        let as_json = |r: &RunReport| r.to_json_value().to_string();
        assert_eq!(as_json(&inline), as_json(&cold));
        assert_eq!(as_json(&inline), as_json(&warm));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analog_cache_returns_same_graph() {
        let h = harness(&[]);
        let a = h.analog(Dataset::Citeseer) as *const CsrGraph;
        let b = h.analog(Dataset::Citeseer) as *const CsrGraph;
        assert_eq!(a, b, "second lookup must hit the cached graph");
    }
}
