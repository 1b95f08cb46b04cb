//! The experiment-sweep runner: executes independent simulation points in
//! parallel, survives failing points, and serializes the whole sweep to a
//! stable JSON artifact.
//!
//! Every `gramer-bench` sweep (`fig*`, `table*`, `ablation`) declares its
//! grid of `(dataset, app, config)` points as a [`Sweep`], which
//! [`crate::experiments::run`] hands to [`Sweep::run_with`]. The runner:
//!
//! 1. applies the `--filter` substring to the `dataset/app/config` ids;
//! 2. executes the remaining points through [`gramer::shard::run_cells`]
//!    (`--jobs N` scoped std threads, no external dependencies) —
//!    host-side parallelism only, so simulated results are unaffected;
//! 3. **quarantines failures**: each point runs under
//!    `std::panic::catch_unwind`, so a panicking or erroring point becomes
//!    a structured [`PointStatus::Failed`] record instead of tearing down
//!    the whole sweep. A failed point is not re-run: it is a pure
//!    function of (graph, app, config), so it would fail again;
//! 4. **bounds the clock**: with `--point-timeout SECS` each point runs
//!    under a [`gramer::progress`] token carrying that wall-clock budget.
//!    The simulator checks it at every heartbeat flush (once per 256
//!    events) and unwinds once it is spent, and the point is recorded as
//!    [`PointStatus::TimedOut`]. No other thread watches the clock;
//! 5. **journals completions**: each finished point is one synced line
//!    in `results/.journal/<sweep>.jsonl`, a
//!    [`gramer::supervise::Journal`] as the `gramer-serve` daemon's is,
//!    so `--resume` can replay completed points after a crash or
//!    SIGKILL. A point holds its report as JSON only, so a replayed
//!    record is the record a fresh run makes;
//! 6. re-assembles results in **declaration order** regardless of
//!    completion order, making the JSON point data byte-identical across
//!    `--jobs` settings;
//! 7. logs per-point progress to stderr (stdout stays clean for tables);
//! 8. serializes the deterministic point data, with volatile host-side
//!    timing and peak-RSS metadata quarantined under `"host"`
//!    ([`SweepResult::write_json`]).
//!
//! The schema is hand-rolled on [`gramer::json::JsonValue`] and versioned
//! via `schema_version`; see `EXPERIMENTS.md` for the layout and the
//! failure semantics (statuses, exit codes, journal format).

use crate::{GramerRun, Scale};
use gramer::json::JsonValue;
use gramer::progress::{self, ProgressToken};
use gramer::{shard, supervise, SimError};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// What one sweep point produces: the simulator report as JSON plus
/// named scalar/structured metrics for the sweep's table and the JSON
/// file.
#[derive(Debug, Default)]
pub struct PointOutput {
    /// The simulator report's JSON ([`gramer::RunReport::to_json_value`]),
    /// `null` when the point ran no GRAMER simulation. A fresh point and
    /// one replayed from the journal hold the same value.
    pub report: JsonValue,
    /// Named metrics in insertion order (serialized as a JSON object).
    pub metrics: Vec<(String, JsonValue)>,
    /// The run's telemetry rollup, appended after every other metric
    /// under `"telemetry"` once the point completes.
    telemetry: Option<JsonValue>,
}

/// A GRAMER run's output: its report lands under the point's `"report"`
/// key, its telemetry rollup (if any) last in the point's metrics.
impl From<GramerRun> for PointOutput {
    fn from(run: GramerRun) -> Self {
        PointOutput {
            report: run.report.to_json_value(),
            telemetry: run.telemetry,
            ..PointOutput::default()
        }
    }
}

impl PointOutput {
    /// An empty output, to be filled with [`PointOutput::metric`] calls.
    pub fn new() -> Self {
        PointOutput::default()
    }

    /// Appends a named metric (builder style).
    pub fn metric(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        self.metrics.push((key.to_string(), value.into()));
        self
    }
}

/// Conversion of a point closure's return value into the runner's
/// `Result`. Implemented for plain [`PointOutput`] (infallible points stay
/// ergonomic) and for `Result<PointOutput, E>` for any error convertible
/// into [`SimError`].
pub trait IntoPointResult {
    /// Converts into the canonical point result.
    fn into_point_result(self) -> Result<PointOutput, SimError>;
}

impl IntoPointResult for PointOutput {
    fn into_point_result(self) -> Result<PointOutput, SimError> {
        Ok(self)
    }
}

impl<E: Into<SimError>> IntoPointResult for Result<PointOutput, E> {
    fn into_point_result(self) -> Result<PointOutput, SimError> {
        self.map_err(Into::into)
    }
}

/// How a sweep point ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointStatus {
    /// The point completed and produced its output.
    Ok,
    /// The point errored or panicked.
    Failed,
    /// The point exceeded `--point-timeout` and was cancelled.
    TimedOut,
}

impl PointStatus {
    /// The status tag used in the JSON artifact and journal.
    pub fn as_str(self) -> &'static str {
        match self {
            PointStatus::Ok => "ok",
            PointStatus::Failed => "failed",
            PointStatus::TimedOut => "timed_out",
        }
    }
}

/// A structured description of why a point failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointError {
    /// Machine-readable tag: a [`SimError::kind`] value, `"panic"`, or
    /// `"timeout"`.
    pub kind: String,
    /// Human-readable message.
    pub message: String,
}

impl PointError {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object([
            ("kind", JsonValue::from(self.kind.as_str())),
            ("message", JsonValue::from(self.message.as_str())),
        ])
    }
}

/// One declared `(dataset, app, config)` grid point and its work closure.
pub struct SweepPoint<'a> {
    dataset: String,
    app: String,
    config: String,
    run: Box<dyn Fn() -> Result<PointOutput, SimError> + Send + Sync + 'a>,
}

impl SweepPoint<'_> {
    /// The point's id: `dataset/app/config` (the `--filter` target).
    pub fn id(&self) -> String {
        format!("{}/{}/{}", self.dataset, self.app, self.config)
    }
}

/// A completed point, back in declaration order.
#[derive(Debug)]
pub struct PointRecord {
    /// Dataset label of the point.
    pub dataset: String,
    /// Application label of the point.
    pub app: String,
    /// Configuration label of the point.
    pub config: String,
    /// What the point produced (empty on failure/timeout).
    pub output: PointOutput,
    /// How the point ended.
    pub status: PointStatus,
    /// Failure description when `status` is not [`PointStatus::Ok`].
    pub error: Option<PointError>,
    /// Host wall-clock seconds this point took (volatile; excluded from
    /// the deterministic JSON point data; `0.0` for replayed records).
    pub wall_seconds: f64,
}

impl PointRecord {
    /// The point's `dataset/app/config` id.
    pub fn id(&self) -> String {
        format!("{}/{}/{}", self.dataset, self.app, self.config)
    }

    /// Whether the point completed ([`PointStatus::Ok`]).
    pub fn is_ok(&self) -> bool {
        self.status == PointStatus::Ok
    }

    /// Looks up a named metric.
    pub fn metric(&self, key: &str) -> Option<&JsonValue> {
        self.output
            .metrics
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// A named metric as `f64`.
    pub fn metric_f64(&self, key: &str) -> Option<f64> {
        self.metric(key).and_then(JsonValue::as_f64)
    }

    /// A value of the point's report by dotted path, such as
    /// `"mem.vertex.on_chip_ratio"`; `None` when the point carries no
    /// report or its report lacks the key.
    pub fn report_value(&self, path: &str) -> Option<&JsonValue> {
        path.split('.')
            .try_fold(&self.output.report, |value, key| value.get(key))
    }

    /// Simulated cycles, when the point carries a report.
    pub fn cycles(&self) -> Option<u64> {
        self.report_value("cycles")?.as_u64()
    }

    /// The deterministic JSON fields of this record, in schema order —
    /// shared by the artifact's `points` array and the journal lines so
    /// that a replayed record serializes byte-identically to a fresh one.
    fn record_fields(&self) -> Vec<(String, JsonValue)> {
        vec![
            (
                "dataset".to_string(),
                JsonValue::from(self.dataset.as_str()),
            ),
            ("app".to_string(), JsonValue::from(self.app.as_str())),
            ("config".to_string(), JsonValue::from(self.config.as_str())),
            ("status".to_string(), JsonValue::from(self.status.as_str())),
            (
                "error".to_string(),
                self.error
                    .as_ref()
                    .map_or(JsonValue::Null, PointError::to_json_value),
            ),
            (
                "metrics".to_string(),
                JsonValue::Object(self.output.metrics.to_vec()),
            ),
            ("report".to_string(), self.output.report.clone()),
        ]
    }
}

/// Execution options for [`Sweep::run_with`] — the programmatic form of
/// the shared CLI flags (see [`crate::SweepArgs`]).
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads (clamped to at least 1).
    pub jobs: usize,
    /// Substring filter over point ids.
    pub filter: Option<String>,
    /// Replay completed points from the journal instead of re-running.
    pub resume: bool,
    /// Wall-clock budget per point.
    pub point_timeout: Option<Duration>,
    /// Journal path; `None` disables journaling (and `resume`).
    pub journal: Option<PathBuf>,
}

/// A declarative set of independent simulation points.
pub struct Sweep<'a> {
    name: String,
    /// The scale the points are declared at ([`crate::Harness::sweep`]).
    pub(crate) scale: Scale,
    points: Vec<SweepPoint<'a>>,
}

impl<'a> Sweep<'a> {
    /// An empty sweep named `name` (also names the JSON artifact:
    /// `results/BENCH_<name>.json`) at [`Scale::Full`]; a harness's
    /// sweeps come from [`crate::Harness::sweep`].
    pub fn new(name: &str) -> Self {
        Sweep {
            name: name.to_string(),
            scale: Scale::Full,
            points: Vec::new(),
        }
    }

    /// Declares one point. `run` must be independent of every other
    /// point: it may run on any worker thread, in any order. The closure
    /// may return a plain [`PointOutput`] or a
    /// `Result<PointOutput, E: Into<SimError>>`; errors and panics become
    /// structured failure records instead of aborting the sweep.
    pub fn point<R: IntoPointResult>(
        &mut self,
        dataset: &str,
        app: &str,
        config: &str,
        run: impl Fn() -> R + Send + Sync + 'a,
    ) {
        self.points.push(SweepPoint {
            dataset: dataset.to_string(),
            app: app.to_string(),
            config: config.to_string(),
            run: Box::new(move || run().into_point_result()),
        });
    }

    /// Number of declared points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no points are declared.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The ids of the points `filter` selects, in declaration order
    /// (what `--list` prints).
    pub(crate) fn ids(&self, filter: Option<&str>) -> Vec<String> {
        let ids = self.points.iter().map(SweepPoint::id);
        ids.filter(|id| selects(filter, id)).collect()
    }

    /// Pure execution with default fault-tolerance options (no journal,
    /// no timeout): runs the filtered points on `jobs` workers and
    /// returns records in declaration order.
    pub fn run(self, jobs: usize, filter: Option<&str>) -> SweepResult {
        self.run_with(&SweepOptions {
            jobs,
            filter: filter.map(str::to_string),
            ..SweepOptions::default()
        })
    }

    /// Full execution under explicit [`SweepOptions`] (no JSON artifact).
    pub fn run_with(self, opts: &SweepOptions) -> SweepResult {
        let name = self.name;
        let filter = opts.filter.as_deref();
        let points: Vec<SweepPoint<'a>> = self
            .points
            .into_iter()
            .filter(|p| selects(filter, &p.id()))
            .collect();
        let started = Instant::now();

        // The journal: replay the entries an earlier (possibly killed)
        // run left, keyed by point id. A clean file is appended to as it
        // is; anything else is snapshotted at once, which drops a torn
        // tail before the first append. A journal that exists but cannot
        // be read is left alone, not overwritten.
        let journal = opts.journal.as_deref().and_then(|path| {
            let mut journal = supervise::Journal::new(path);
            let live = match journal.replay(journal_key) {
                Ok((live, _)) => live,
                Err(e) => {
                    eprintln!(
                        "[{name}] warning: cannot read journal {path:?} ({e}); running without it"
                    );
                    return None;
                }
            };
            if let Err(e) = journal.snapshot_if_due(live.values()) {
                eprintln!("[{name}] journal write failed: {e}");
            }
            Some((journal, live))
        });
        // Resuming replays the points whose last entry completed.
        let completed = journal
            .as_ref()
            .filter(|_| opts.resume)
            .map(|(_, live)| live);
        let replayed: Vec<Option<PointRecord>> = points
            .iter()
            .map(|p| {
                let entry = completed?.get(&p.id())?;
                let ok = entry.get("status").and_then(JsonValue::as_str) == Some("ok");
                ok.then(|| replay_record(p, entry))
            })
            .collect();

        // Points still to run (everything not replayed).
        let todo: Vec<&SweepPoint<'a>> = points
            .iter()
            .zip(&replayed)
            .filter(|(_, r)| r.is_none())
            .map(|(p, _)| p)
            .collect();
        let n_total = points.len();
        let n_todo = todo.len();
        let n_replayed = n_total - n_todo;
        if n_replayed > 0 {
            eprintln!("[{name}] resuming: {n_replayed}/{n_total} points replayed from journal");
        }
        let jobs = opts.jobs.max(1).min(n_todo.max(1));

        // Each point logs its progress line and journals its record under
        // one lock, so lines never interleave and the journal has one
        // writer at a time. A failed write makes the next write a
        // snapshot of every live entry; only the first is reported.
        let log = Mutex::new((0usize, journal));
        let cells: Vec<_> = todo
            .into_iter()
            .map(|point| {
                let (log, name) = (&log, &name);
                move || {
                    let record = run_point(point, opts.point_timeout);
                    let mut log = log.lock().unwrap_or_else(PoisonError::into_inner);
                    let (done, journal) = &mut *log;
                    *done += 1;
                    let state = match record.status {
                        PointStatus::Ok => String::new(),
                        other => format!(", {}", other.as_str()),
                    };
                    eprintln!(
                        "[{name}] {done}/{n_todo} {} ({:.2}s, jobs={jobs}{state})",
                        record.id(),
                        record.wall_seconds,
                    );
                    if let Some((journal, live)) = journal {
                        let id = record.id();
                        live.insert(id.clone(), journal_entry(&record));
                        if let Err(e) = journal.write(&live[&id], live.values()) {
                            if journal.stats().errors == 1 {
                                eprintln!("[{name}] journal write failed: {e}");
                            }
                        }
                    }
                    record
                }
            })
            .collect();
        // Fresh records come back in cell order, which is declaration
        // order, so each one fills the next slot the journal left empty.
        let mut fresh = shard::run_cells(jobs, cells).into_iter();
        let records = replayed
            .into_iter()
            .filter_map(|replay| replay.or_else(|| fresh.next()))
            .collect();

        SweepResult {
            name,
            jobs,
            records,
            wall_seconds: started.elapsed().as_secs_f64(),
            scale: self.scale,
        }
    }
}

/// Whether the `--filter` substring `filter` selects point `id`.
fn selects(filter: Option<&str>, id: &str) -> bool {
    filter.is_none_or(|f| id.contains(f))
}

/// The journal line for a freshly completed point: the deterministic
/// record fields plus the point id the replayer keys on.
fn journal_entry(record: &PointRecord) -> JsonValue {
    let mut fields = vec![("id".to_string(), JsonValue::from(record.id()))];
    fields.extend(record.record_fields());
    JsonValue::Object(fields)
}

/// A journal line's point id, when it is a valid entry: a string `id`
/// and a string `status`. Lines from sweeps that still counted
/// `attempts` are valid too; the key is ignored.
fn journal_key(entry: JsonValue) -> Option<(String, JsonValue)> {
    entry.get("status")?.as_str()?;
    let id = entry.get("id")?.as_str()?.to_string();
    Some((id, entry))
}

/// Replays a journaled completion into a [`PointRecord`].
fn replay_record(point: &SweepPoint<'_>, entry: &JsonValue) -> PointRecord {
    let metrics = match entry.get("metrics") {
        Some(JsonValue::Object(pairs)) => pairs.clone(),
        _ => Vec::new(),
    };
    PointRecord {
        dataset: point.dataset.clone(),
        app: point.app.clone(),
        config: point.config.clone(),
        output: PointOutput {
            metrics,
            report: entry.get("report").cloned().unwrap_or_default(),
            ..PointOutput::default()
        },
        status: PointStatus::Ok,
        error: None,
        wall_seconds: 0.0,
    }
}

/// Runs one point to its final record under a [`ProgressToken`]
/// carrying the wall-clock budget and the shared [`gramer::supervise`]
/// panic quarantine (the one the `gramer-serve` daemon uses).
fn run_point(point: &SweepPoint<'_>, timeout: Option<Duration>) -> PointRecord {
    let t0 = Instant::now();
    let guard = progress::install(ProgressToken::with_budget(timeout, None));
    let outcome = supervise::run_quarantined(|| (point.run)());
    drop(guard);
    let failure = |kind: &str, message| {
        let kind = kind.to_string();
        Some(PointError { kind, message })
    };
    let (status, error, output) = match outcome {
        supervise::Outcome::Ok(mut output) => {
            if let Some(tel) = output.telemetry.take() {
                output.metrics.push(("telemetry".to_string(), tel));
            }
            (PointStatus::Ok, None, output)
        }
        supervise::Outcome::Cancelled(_) => {
            let budget = timeout.map_or(0.0, |t| t.as_secs_f64());
            let message = format!("point exceeded its {budget}s wall-clock budget");
            let error = failure("timeout", message);
            (PointStatus::TimedOut, error, PointOutput::new())
        }
        supervise::Outcome::Err(e) => {
            let error = failure(e.kind(), e.to_string());
            (PointStatus::Failed, error, PointOutput::new())
        }
        supervise::Outcome::Panicked(message) => {
            let error = failure("panic", message);
            (PointStatus::Failed, error, PointOutput::new())
        }
    };
    PointRecord {
        dataset: point.dataset.clone(),
        app: point.app.clone(),
        config: point.config.clone(),
        output,
        status,
        error,
        wall_seconds: t0.elapsed().as_secs_f64(),
    }
}

/// A completed sweep: records in declaration order plus run metadata.
#[derive(Debug)]
pub struct SweepResult {
    /// Sweep name (names the JSON artifact).
    pub name: String,
    /// Worker threads actually used.
    pub jobs: usize,
    /// Completed points, in declaration order (never completion order).
    pub records: Vec<PointRecord>,
    /// Host wall-clock seconds for the whole sweep.
    pub wall_seconds: f64,
    /// The scale the points were declared at (reported as
    /// `host.quick_mode`); the tables read it.
    pub scale: Scale,
}

impl SweepResult {
    /// The record with the exact `(dataset, app, config)` labels.
    pub fn find(&self, dataset: &str, app: &str, config: &str) -> Option<&PointRecord> {
        self.records
            .iter()
            .find(|r| r.dataset == dataset && r.app == app && r.config == config)
    }

    /// `(dataset, app)` groups in which **every** point failed or timed
    /// out — the condition that makes the sweep exit non-zero. Partial
    /// failures (a group with at least one completed point) keep exit
    /// code 0 so one bad configuration can't mask an otherwise useful
    /// artifact.
    pub fn failed_groups(&self) -> Vec<(String, String)> {
        let mut groups: Vec<(String, String, bool)> = Vec::new();
        for r in &self.records {
            match groups
                .iter_mut()
                .find(|(d, a, _)| *d == r.dataset && *a == r.app)
            {
                Some((_, _, any_ok)) => *any_ok |= r.is_ok(),
                None => groups.push((r.dataset.clone(), r.app.clone(), r.is_ok())),
            }
        }
        groups
            .into_iter()
            .filter(|(_, _, any_ok)| !any_ok)
            .map(|(d, a, _)| (d, a))
            .collect()
    }

    /// Process exit code implied by the failure semantics: `1` when some
    /// `(dataset, app)` group has no completed point, `0` otherwise.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.failed_groups().is_empty())
    }

    /// Records that did not complete, in declaration order.
    pub fn failures(&self) -> impl Iterator<Item = &PointRecord> {
        self.records.iter().filter(|r| !r.is_ok())
    }

    /// The deterministic per-point JSON array — everything except
    /// host-side timing. Byte-identical across `--jobs` settings and
    /// across `--resume` replays.
    pub fn points_json(&self) -> JsonValue {
        JsonValue::array(
            self.records
                .iter()
                .map(|r| JsonValue::Object(r.record_fields())),
        )
    }

    /// The full JSON document (`schema_version` 4: the points and the
    /// `host` block, and no `summary`).
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::object([
            ("schema_version", JsonValue::from(4u64)),
            ("sweep", JsonValue::from(self.name.as_str())),
            ("points", self.points_json()),
            (
                "host",
                JsonValue::object([
                    ("jobs", JsonValue::from(self.jobs)),
                    ("wall_seconds", JsonValue::from(self.wall_seconds)),
                    (
                        "point_wall_seconds",
                        JsonValue::array(
                            self.records.iter().map(|r| JsonValue::from(r.wall_seconds)),
                        ),
                    ),
                    (
                        "peak_rss_kb",
                        peak_rss_kb().map_or(JsonValue::Null, JsonValue::from),
                    ),
                    ("quick_mode", JsonValue::from(self.scale == Scale::Quick)),
                ]),
            ),
        ])
    }

    /// Writes the pretty-printed document, creating parent directories.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json_value().to_string_pretty())
    }
}

/// Peak resident-set size of this process in kB (`VmHWM`), when the
/// platform exposes it.
pub fn peak_rss_kb() -> Option<u64> {
    if cfg!(target_os = "linux") {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tiny_sweep<'a>(ran: &'a AtomicU64) -> Sweep<'a> {
        let mut s = Sweep::new("test");
        for (d, k) in [("g1", 3u64), ("g1", 4), ("g2", 3), ("g2", 4), ("g2", 5)] {
            s.point(d, &format!("{k}-CF"), "default", move || {
                ran.fetch_add(1, Ordering::Relaxed);
                // Busy-ish work with input-dependent duration so that
                // completion order differs from declaration order.
                let mut acc = 0u64;
                for i in 0..(k * 10_000) {
                    acc = acc.wrapping_mul(31).wrapping_add(i);
                }
                PointOutput::new()
                    .metric("k", k)
                    .metric("acc", acc)
                    .metric("id", format!("{d}/{k}"))
            });
        }
        s
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gramer-sweep-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn results_are_in_declaration_order() {
        let ran = AtomicU64::new(0);
        let r = tiny_sweep(&ran).run(4, None);
        assert_eq!(ran.load(Ordering::Relaxed), 5);
        let ids: Vec<String> = r.records.iter().map(PointRecord::id).collect();
        assert_eq!(
            ids,
            [
                "g1/3-CF/default",
                "g1/4-CF/default",
                "g2/3-CF/default",
                "g2/4-CF/default",
                "g2/5-CF/default"
            ]
        );
        assert!(r.records.iter().all(PointRecord::is_ok));
        assert_eq!(r.exit_code(), 0);
    }

    #[test]
    fn point_data_identical_across_job_counts() {
        let ran = AtomicU64::new(0);
        let serial = tiny_sweep(&ran).run(1, None);
        let parallel = tiny_sweep(&ran).run(4, None);
        assert_eq!(serial.jobs, 1);
        assert!(parallel.jobs > 1);
        assert_eq!(
            serial.points_json().to_string_pretty(),
            parallel.points_json().to_string_pretty(),
            "point data must be byte-identical regardless of --jobs"
        );
    }

    #[test]
    fn filter_selects_by_id_substring() {
        let ran = AtomicU64::new(0);
        let r = tiny_sweep(&ran).run(2, Some("g2"));
        assert_eq!(r.records.len(), 3);
        assert_eq!(
            ran.load(Ordering::Relaxed),
            3,
            "filtered points must not run"
        );
        let r2 = tiny_sweep(&ran).run(2, Some("5-CF"));
        assert_eq!(r2.records.len(), 1);
        assert_eq!(r2.records[0].dataset, "g2");
    }

    #[test]
    fn golden_snapshot_of_tiny_sweep_points() {
        let mut s = Sweep::new("golden");
        s.point("k3", "3-CF", "default", || {
            PointOutput::new()
                .metric("cycles", 123u64)
                .metric("ratio", 0.5)
        });
        let r = s.run(1, None);
        // The exact serialized bytes are the schema contract; update this
        // snapshot deliberately, never incidentally.
        let expected = "\
[
  {
    \"dataset\": \"k3\",
    \"app\": \"3-CF\",
    \"config\": \"default\",
    \"status\": \"ok\",
    \"error\": null,
    \"metrics\": {
      \"cycles\": 123,
      \"ratio\": 0.5
    },
    \"report\": null
  }
]
";
        assert_eq!(r.points_json().to_string_pretty(), expected);
    }

    #[test]
    fn full_document_has_versioned_schema() {
        let mut s = Sweep::new("doc");
        s.point("d", "a", "c", || PointOutput::new().metric("x", 1u64));
        let r = s.run(1, None);
        let doc = r.to_json_value();
        assert_eq!(
            doc.get("schema_version").and_then(JsonValue::as_u64),
            Some(4)
        );
        assert_eq!(doc.get("sweep").and_then(JsonValue::as_str), Some("doc"));
        let JsonValue::Object(pairs) = &doc else {
            panic!("the document is an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["schema_version", "sweep", "points", "host"]);
        assert!(doc.get("host").and_then(|h| h.get("jobs")).is_some());
        // Parse back through the hand-rolled parser.
        let text = doc.to_string_pretty();
        assert!(JsonValue::parse(&text).is_ok());
    }

    #[test]
    fn workers_run_points_concurrently() {
        let mut s = Sweep::new("sleep");
        for i in 0..4u64 {
            s.point("d", &format!("p{i}"), "c", move || {
                std::thread::sleep(std::time::Duration::from_millis(80));
                PointOutput::new().metric("i", i)
            });
        }
        let t0 = Instant::now();
        s.run(4, None);
        let elapsed = t0.elapsed();
        // Four 80 ms points overlapped on four workers (sleeps overlap
        // even on a single core): well under the 320 ms a serial run
        // needs. The generous bound keeps this robust under load.
        assert!(
            elapsed < std::time::Duration::from_millis(240),
            "4 points on 4 workers took {elapsed:?}, expected overlap"
        );
    }

    #[test]
    fn empty_sweep_is_fine() {
        let r = Sweep::new("empty").run(4, None);
        assert!(r.records.is_empty());
        assert_eq!(r.points_json(), JsonValue::Array(Vec::new()));
        assert_eq!(r.exit_code(), 0);
    }

    #[test]
    fn find_and_metric_accessors() {
        let mut s = Sweep::new("acc");
        s.point("d1", "app", "cfg", || PointOutput::new().metric("v", 2.5));
        let r = s.run(1, None);
        let p = r.find("d1", "app", "cfg").expect("present");
        assert_eq!(p.metric_f64("v"), Some(2.5));
        assert_eq!(p.metric_f64("missing"), None);
        assert!(r.find("d1", "app", "other").is_none());
    }

    // -- fault tolerance ---------------------------------------------------

    #[test]
    fn panicking_point_becomes_failed_record() {
        let mut s = Sweep::new("quarantine");
        s.point("d", "good", "c", || PointOutput::new().metric("x", 1u64));
        s.point("d", "bad", "c", || -> PointOutput {
            panic!("injected failure {}", 42);
        });
        s.point("d", "also-good", "c", || {
            PointOutput::new().metric("x", 2u64)
        });
        let r = s.run(2, None);
        assert_eq!(r.records.len(), 3, "sweep must survive the panic");
        let bad = r.find("d", "bad", "c").expect("failed record present");
        assert_eq!(bad.status, PointStatus::Failed);
        let err = bad.error.as_ref().expect("error recorded");
        assert_eq!(err.kind, "panic");
        assert!(
            err.message.contains("injected failure 42"),
            "panic message not captured: {:?}",
            err.message
        );
        // Healthy neighbours are unaffected.
        assert!(r.find("d", "good", "c").unwrap().is_ok());
        assert!(r.find("d", "also-good", "c").unwrap().is_ok());
        // The (d, good) and (d, also-good) groups are fine and (d, bad)
        // is fully failed -> non-zero exit.
        assert_eq!(r.exit_code(), 1);
        assert_eq!(
            r.failed_groups(),
            vec![("d".to_string(), "bad".to_string())]
        );
    }

    #[test]
    fn typed_error_point_records_kind() {
        let mut s = Sweep::new("typed");
        s.point(
            "d",
            "a",
            "bad-config",
            || -> Result<PointOutput, SimError> {
                Err(SimError::App("no such dataset".to_string()))
            },
        );
        s.point("d", "a", "good", || {
            Ok::<_, SimError>(PointOutput::new().metric("x", 1u64))
        });
        let r = s.run(1, None);
        let bad = r.find("d", "a", "bad-config").unwrap();
        assert_eq!(bad.status, PointStatus::Failed);
        assert_eq!(bad.error.as_ref().unwrap().kind, "app-error");
        // The (d, a) group has one completed point -> exit 0.
        assert_eq!(r.exit_code(), 0);
    }

    #[test]
    fn exit_code_nonzero_only_when_whole_group_fails() {
        let mut s = Sweep::new("groups");
        s.point("d1", "a", "c1", || -> PointOutput { panic!("down") });
        s.point("d1", "a", "c2", PointOutput::new);
        let r = s.run(1, None);
        assert_eq!(
            r.exit_code(),
            0,
            "partially failed group must not fail the run"
        );

        let mut s = Sweep::new("groups");
        s.point("d1", "a", "c1", || -> PointOutput { panic!("down") });
        s.point("d1", "a", "c2", || -> PointOutput { panic!("down") });
        s.point("d2", "a", "c1", PointOutput::new);
        let r = s.run(1, None);
        assert_eq!(r.exit_code(), 1, "fully failed group must fail the run");
        assert_eq!(r.failures().count(), 2);
    }

    #[test]
    fn point_timeout_stops_a_stalling_point() {
        // With one job the points run on the calling thread; with two,
        // on scoped worker threads.
        for jobs in [1, 2] {
            let mut s = Sweep::new("timeout");
            s.point("d", "stall", "c", || -> PointOutput {
                // A cooperative stall: ticks (so its budget is checked)
                // but never finishes on its own.
                loop {
                    progress::tick();
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
            s.point("d", "quick", "c", || PointOutput::new().metric("x", 1u64));
            let t0 = Instant::now();
            let r = s.run_with(&SweepOptions {
                jobs,
                point_timeout: Some(Duration::from_millis(200)),
                ..SweepOptions::default()
            });
            // Generous bound (1-CPU CI): the stall must end well before
            // the 60s test timeout, and the sweep must complete.
            assert!(t0.elapsed() < Duration::from_secs(30), "jobs={jobs}");
            assert_eq!(r.jobs, jobs);
            let stalled = r.find("d", "stall", "c").unwrap();
            assert_eq!(stalled.status, PointStatus::TimedOut, "jobs={jobs}");
            let error = stalled.error.as_ref().unwrap();
            assert_eq!(error.kind, "timeout");
            assert_eq!(error.message, "point exceeded its 0.2s wall-clock budget");
            assert!(r.find("d", "quick", "c").unwrap().is_ok());
        }
    }

    #[test]
    fn journal_and_resume_replay_completed_points() {
        let journal = temp_path("resume.jsonl");
        let _ = std::fs::remove_file(&journal);
        // Interrupted first run: only p1 declared (simulates a sweep
        // killed after its first point was journaled).
        let mut s = Sweep::new("resume");
        s.point("d", "p1", "c", || PointOutput::new().metric("v", 11u64));
        let first = s.run_with(&SweepOptions {
            jobs: 1,
            journal: Some(journal.clone()),
            ..SweepOptions::default()
        });
        assert!(first.records[0].is_ok());
        assert!(journal.exists(), "journal file must be written");

        // Full fresh run (no resume) for the byte-identity baseline.
        let mut s = Sweep::new("resume");
        let p2_ran = AtomicU64::new(0);
        s.point("d", "p1", "c", || PointOutput::new().metric("v", 11u64));
        s.point("d", "p2", "c", || {
            p2_ran.fetch_add(1, Ordering::Relaxed);
            PointOutput::new().metric("v", 22u64)
        });
        let fresh = s.run(1, None);

        // Resumed run: p1 must replay from the journal (not re-execute),
        // p2 runs live; the points JSON must be byte-identical.
        let mut s = Sweep::new("resume");
        let p1_reran = AtomicU64::new(0);
        s.point("d", "p1", "c", || {
            p1_reran.fetch_add(1, Ordering::Relaxed);
            PointOutput::new().metric("v", 11u64)
        });
        s.point("d", "p2", "c", || PointOutput::new().metric("v", 22u64));
        let resumed = s.run_with(&SweepOptions {
            jobs: 1,
            resume: true,
            journal: Some(journal.clone()),
            ..SweepOptions::default()
        });
        assert_eq!(p1_reran.load(Ordering::Relaxed), 0, "p1 must be replayed");
        assert_eq!(
            resumed.points_json().to_string_pretty(),
            fresh.points_json().to_string_pretty(),
            "resumed points JSON must be byte-identical to a fresh run"
        );
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn failed_points_are_rerun_on_resume() {
        let journal = temp_path("rerun.jsonl");
        let _ = std::fs::remove_file(&journal);
        // First run: the point fails (and is journaled as failed).
        let mut s = Sweep::new("rerun");
        s.point("d", "p", "c", || -> PointOutput { panic!("first run") });
        let r = s.run_with(&SweepOptions {
            jobs: 1,
            journal: Some(journal.clone()),
            ..SweepOptions::default()
        });
        assert_eq!(r.records[0].status, PointStatus::Failed);

        // Resume: failed entries must NOT be replayed as complete.
        let reran = AtomicU64::new(0);
        let mut s = Sweep::new("rerun");
        s.point("d", "p", "c", || {
            reran.fetch_add(1, Ordering::Relaxed);
            PointOutput::new().metric("fixed", true)
        });
        let r = s.run_with(&SweepOptions {
            jobs: 1,
            resume: true,
            journal: Some(journal.clone()),
            ..SweepOptions::default()
        });
        assert_eq!(reran.load(Ordering::Relaxed), 1, "failed point must re-run");
        assert!(r.records[0].is_ok());
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn journal_survives_torn_trailing_line() {
        let journal = temp_path("torn.jsonl");
        std::fs::write(
            &journal,
            b"{\"id\": \"d/p1/c\", \"status\": \"ok\", \"attempts\": 1, \"metrics\": {\"v\": 1}, \"report\": null}\n\xff\xfe\n{\"id\": \"d/p2/c\", \"status\": \"o",
        )
        .unwrap();
        let reran = AtomicU64::new(0);
        let mut s = Sweep::new("torn");
        s.point("d", "p1", "c", || {
            reran.fetch_add(1, Ordering::Relaxed);
            PointOutput::new().metric("v", 1u64)
        });
        s.point("d", "p2", "c", || {
            reran.fetch_add(1, Ordering::Relaxed);
            PointOutput::new().metric("v", 2u64)
        });
        let r = s.run_with(&SweepOptions {
            jobs: 1,
            resume: true,
            journal: Some(journal.clone()),
            ..SweepOptions::default()
        });
        // p1 replays; the non-UTF-8 line and the torn p2 line are
        // ignored and p2 re-runs.
        assert_eq!(reran.load(Ordering::Relaxed), 1);
        assert!(r.records.iter().all(PointRecord::is_ok));
        assert_eq!(r.records[0].metric_f64("v"), Some(1.0));
        // The snapshot at open dropped both bad lines, so p2's appended
        // line was not glued onto the torn one.
        let text = std::fs::read_to_string(&journal).unwrap();
        let ids: Vec<_> = text
            .lines()
            .map(|line| {
                JsonValue::parse(line)
                    .unwrap()
                    .get("id")
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(ids, ["\"d/p1/c\"", "\"d/p2/c\""]);
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn unreadable_journal_is_left_alone() {
        // A directory squatting on the journal path cannot be read: the
        // sweep runs without a journal instead of replacing it.
        let journal = temp_path("squatted.jsonl");
        std::fs::create_dir_all(journal.join("keep")).unwrap();
        let mut s = Sweep::new("squatted");
        s.point("d", "p", "c", PointOutput::new);
        let opts = SweepOptions {
            resume: true,
            journal: Some(journal.clone()),
            ..SweepOptions::default()
        };
        assert!(s.run_with(&opts).records[0].is_ok());
        assert!(journal.join("keep").is_dir(), "the journal was clobbered");
        let _ = std::fs::remove_dir_all(&journal);
    }

    #[test]
    fn entry_with_attempts_replays_byte_identically() {
        // An entry written when sweeps still counted attempts.
        let journal = temp_path("attempts.jsonl");
        std::fs::write(
            &journal,
            "{\"id\": \"d/p/c\", \"dataset\": \"d\", \"app\": \"p\", \"config\": \"c\", \
             \"status\": \"ok\", \"attempts\": 1, \"error\": null, \"metrics\": {\"v\": 1}, \
             \"report\": null}\n",
        )
        .unwrap();
        let ran = AtomicU64::new(0);
        let sweep = || {
            let mut s = Sweep::new("attempts");
            s.point("d", "p", "c", || {
                ran.fetch_add(1, Ordering::Relaxed);
                PointOutput::new().metric("v", 1u64)
            });
            s
        };
        let fresh = sweep().run(1, None);
        let resumed = sweep().run_with(&SweepOptions {
            jobs: 1,
            resume: true,
            journal: Some(journal.clone()),
            ..SweepOptions::default()
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1, "the journaled point re-ran");
        assert_eq!(
            resumed.points_json().to_string_pretty(),
            fresh.points_json().to_string_pretty()
        );
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn replayed_report_preserves_cycles_lookup() {
        // A fresh record and its journal replay hold the same report
        // JSON, so every reader sees the same values; 0.1 + 0.2 has no
        // short decimal form, so its journal line must round-trip.
        let journal = temp_path("cycles.jsonl");
        let _ = std::fs::remove_file(&journal);
        let vertex = JsonValue::object([("on_chip_ratio", JsonValue::from(0.1 + 0.2))]);
        let report = JsonValue::object([
            ("cycles", JsonValue::from(777u64)),
            ("mem", JsonValue::object([("vertex", vertex)])),
        ]);
        let ran = AtomicU64::new(0);
        let sweep = || {
            let mut s = Sweep::new("cycles");
            s.point("d", "p", "c", || {
                ran.fetch_add(1, Ordering::Relaxed);
                PointOutput {
                    report: report.clone(),
                    ..PointOutput::new()
                }
            });
            s
        };
        let opts = |resume| SweepOptions {
            jobs: 1,
            resume,
            journal: Some(journal.clone()),
            ..SweepOptions::default()
        };
        let fresh = sweep().run_with(&opts(false));
        let replayed = sweep().run_with(&opts(true));
        assert_eq!(ran.load(Ordering::Relaxed), 1, "the journaled point re-ran");
        for r in [&fresh.records[0], &replayed.records[0]] {
            assert_eq!(r.output.report, report);
            assert_eq!(r.cycles(), Some(777));
            let ratio = r.report_value("mem.vertex.on_chip_ratio");
            assert_eq!(ratio.and_then(JsonValue::as_f64), Some(0.1 + 0.2));
            assert_eq!(r.report_value("mem.edge"), None);
        }
        let _ = std::fs::remove_file(&journal);
    }
}
