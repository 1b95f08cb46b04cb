//! Job specifications, lifecycle states, and records.
//!
//! A *job* is one `(graph, app, config)` simulation request. Clients
//! submit a JSON spec; the supervisor admits it, queues it, runs it under
//! quarantine, and keeps a [`JobRecord`] of everything that happened.
//! Records serialize to JSON for the status endpoints and the crash-safe
//! journal, and the journal round-trip is byte-stable: a replayed
//! record's report serializes identically to the live one (the same
//! property the sweep runner's `--resume` relies on).
//!
//! The status machine is deliberately small and every terminal state is
//! typed — `completed`, `failed`, `panicked`, `timed_out`, `rejected` —
//! so a client (or the chaos test harness) can always tell *how* a job
//! ended without parsing error prose.

use gramer::json::JsonValue;
use gramer::telemetry::{Telemetry, TelemetryConfig};
use gramer::{progress, AppSpec, GramerConfig, MemoryBudget, Preprocessed, RunReport, SimError};
use std::path::PathBuf;
use std::time::Duration;

/// Where a job's graph comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphSource {
    /// A named generator spec (see [`gramer_graph::generate::named`]).
    Gen(String),
    /// A SNAP-style edge-list file on the daemon's filesystem.
    EdgeList(PathBuf),
    /// A preprocessed `.gra` artifact on the daemon's filesystem.
    Artifact(PathBuf),
    /// An edge list submitted inline in the request body.
    Inline(String),
}

/// A validated job submission.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The graph to mine.
    pub graph: GraphSource,
    /// Application spec (`3-cf`, `4-mc`, `fsm:<t>`, ...), lowercased;
    /// it parses as an [`AppSpec`].
    pub app: String,
    /// Simulator configuration after applying the spec's knob overrides.
    pub config: GramerConfig,
    /// Per-job wall-clock budget override (`deadline_seconds`).
    pub deadline: Option<Duration>,
    /// Whether to record and keep the telemetry rollup.
    pub metrics: bool,
}

impl JobSpec {
    /// Parses and validates a job spec from its JSON form:
    ///
    /// ```json
    /// {
    ///   "graph": {"gen": "golden-ba"},
    ///   "app": "4-cf",
    ///   "config": {"pus": 8, "tau": 0.02, "memo": "on"},
    ///   "deadline_seconds": 10.0,
    ///   "metrics": true
    /// }
    /// ```
    ///
    /// Exactly one of `gen` / `edge_list` / `artifact` / `inline` selects
    /// the graph. All fields other than `graph` and `app` are optional,
    /// and other top-level keys are ignored.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn from_json(v: &JsonValue) -> Result<JobSpec, String> {
        let graph_obj = v.get("graph").ok_or("missing \"graph\"")?;
        let mut sources = Vec::new();
        if let Some(s) = graph_obj.get("gen").and_then(JsonValue::as_str) {
            sources.push(GraphSource::Gen(s.to_string()));
        }
        if let Some(s) = graph_obj.get("edge_list").and_then(JsonValue::as_str) {
            sources.push(GraphSource::EdgeList(PathBuf::from(s)));
        }
        if let Some(s) = graph_obj.get("artifact").and_then(JsonValue::as_str) {
            sources.push(GraphSource::Artifact(PathBuf::from(s)));
        }
        if let Some(s) = graph_obj.get("inline").and_then(JsonValue::as_str) {
            sources.push(GraphSource::Inline(s.to_string()));
        }
        let graph = match sources.len() {
            1 => sources.remove(0),
            0 => return Err("\"graph\" needs one of gen/edge_list/artifact/inline".to_string()),
            _ => return Err("\"graph\" must select exactly one source".to_string()),
        };

        let app = v
            .get("app")
            .and_then(JsonValue::as_str)
            .ok_or("missing \"app\"")?
            .to_ascii_lowercase();
        // Building the app at admission refuses every spec a worker
        // could not run (a bad size, a degenerate query) with a 400.
        app.parse::<AppSpec>()?;

        let mut config = GramerConfig::default();
        if let Some(c) = v.get("config") {
            apply_config_overrides(&mut config, c)?;
        }
        config.validate().map_err(|e| e.to_string())?;

        let deadline = match v.get("deadline_seconds") {
            None | Some(JsonValue::Null) => None,
            Some(x) => Some(
                x.as_f64()
                    .and_then(progress::budget_from_secs)
                    .ok_or("\"deadline_seconds\" must be a positive number of seconds")?,
            ),
        };
        let metrics = match v.get("metrics") {
            None | Some(JsonValue::Null) => false,
            Some(x) => x.as_bool().ok_or("\"metrics\" must be a boolean")?,
        };

        Ok(JobSpec {
            graph,
            app,
            config,
            deadline,
            metrics,
        })
    }
}

/// Applies the JSON knob overrides a job may carry onto `config`.
fn apply_config_overrides(config: &mut GramerConfig, c: &JsonValue) -> Result<(), String> {
    let pairs = match c {
        JsonValue::Object(pairs) => pairs,
        _ => return Err("\"config\" must be an object".to_string()),
    };
    for (key, value) in pairs {
        match key.as_str() {
            "pus" => {
                config.num_pus = value.as_u64().ok_or("\"pus\" must be an integer")? as usize;
            }
            "slots" => {
                config.slots_per_pu =
                    value.as_u64().ok_or("\"slots\" must be an integer")? as usize;
            }
            "tau" => {
                config.tau = Some(value.as_f64().ok_or("\"tau\" must be a number")?);
            }
            "budget_frac" => {
                config.budget = MemoryBudget::Fraction(
                    value.as_f64().ok_or("\"budget_frac\" must be a number")?,
                );
            }
            "lambda" => {
                config.lambda = value.as_f64().ok_or("\"lambda\" must be a number")?;
            }
            "work_stealing" => {
                config.work_stealing = value
                    .as_bool()
                    .ok_or("\"work_stealing\" must be a boolean")?;
            }
            "memo" => {
                let s = value.as_str().ok_or("\"memo\" must be a string")?;
                config.memo = s.parse()?;
            }
            "adaptive_lambda" => {
                config.adaptive_lambda = value
                    .as_bool()
                    .ok_or("\"adaptive_lambda\" must be a boolean")?;
            }
            "repin" => {
                config.repin = value.as_bool().ok_or("\"repin\" must be a boolean")?;
            }
            other => return Err(format!("unknown config knob {other:?}")),
        }
    }
    Ok(())
}

/// Parses `app_spec` as an [`AppSpec`] and runs it on `pre` under
/// `config`, optionally recording telemetry. `gramer-mine` runs the same
/// [`AppSpec::run`], so served reports are byte-identical to CLI reports.
///
/// # Errors
///
/// [`SimError::App`] for bad app specs; the simulator's errors otherwise.
pub fn run_app_spec(
    app_spec: &str,
    pre: &Preprocessed,
    config: GramerConfig,
    telemetry_window: Option<u64>,
) -> Result<(RunReport, Option<Telemetry>), SimError> {
    let app: AppSpec = app_spec.parse().map_err(SimError::App)?;
    let mut tel = telemetry_window.map(|window_cycles| {
        Telemetry::new(TelemetryConfig {
            window_cycles,
            ..TelemetryConfig::default()
        })
    });
    let report = app.run(pre, config, tel.as_mut())?;
    Ok((report, tel))
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker.
    Queued,
    /// Executing on a worker right now.
    Running,
    /// Finished successfully; the record carries the report.
    Completed,
    /// The run ended in a typed error.
    Failed,
    /// The run panicked (quarantined, daemon unharmed).
    Panicked,
    /// Spent its wall-clock deadline or step budget.
    TimedOut,
    /// Refused at admission (budget or validation), never queued.
    Rejected,
}

impl JobStatus {
    /// The stable JSON tag.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
            JobStatus::Panicked => "panicked",
            JobStatus::TimedOut => "timed_out",
            JobStatus::Rejected => "rejected",
        }
    }

    /// Parses the JSON tag (journal replay).
    pub fn parse(s: &str) -> Option<JobStatus> {
        Some(match s {
            "queued" => JobStatus::Queued,
            "running" => JobStatus::Running,
            "completed" => JobStatus::Completed,
            "failed" => JobStatus::Failed,
            "panicked" => JobStatus::Panicked,
            "timed_out" => JobStatus::TimedOut,
            "rejected" => JobStatus::Rejected,
            _ => return None,
        })
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// A structured description of why a job did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Machine-readable tag (a [`SimError::kind`] value, `"panic"`,
    /// `"timeout"`, `"queue_full"`, `"over_budget"`, ...).
    pub kind: String,
    /// Human-readable message.
    pub message: String,
}

impl JobError {
    /// Builds a typed error.
    pub fn new(kind: &str, message: impl Into<String>) -> JobError {
        JobError {
            kind: kind.to_string(),
            message: message.into(),
        }
    }

    /// JSON form.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::object([
            ("kind", JsonValue::from(self.kind.as_str())),
            ("message", JsonValue::from(self.message.as_str())),
        ])
    }
}

/// Everything the daemon knows about one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Monotonic job id, assigned at admission.
    pub id: u64,
    /// The submitted spec, as JSON (round-trips through the journal).
    pub spec_json: JsonValue,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Why the job is in a non-completed terminal state.
    pub error: Option<JobError>,
    /// The full `RunReport` JSON for completed jobs.
    pub report_json: Option<JsonValue>,
    /// The telemetry rollup, when the spec asked for metrics.
    pub metrics_json: Option<JsonValue>,
    /// Whether the preprocessed graph came from the warm session cache.
    pub cache_hit: bool,
}

impl JobRecord {
    /// A fresh record in `status` (admission writes `Queued` or
    /// `Rejected`).
    pub fn new(id: u64, spec_json: JsonValue, status: JobStatus) -> JobRecord {
        JobRecord {
            id,
            spec_json,
            status,
            error: None,
            report_json: None,
            metrics_json: None,
            cache_hit: false,
        }
    }

    /// The summary JSON the status endpoints return (everything except
    /// the potentially large report/metrics payloads).
    pub fn summary_json(&self) -> JsonValue {
        JsonValue::object([
            ("id", JsonValue::from(self.id)),
            ("status", JsonValue::from(self.status.as_str())),
            (
                "error",
                self.error
                    .as_ref()
                    .map_or(JsonValue::Null, JobError::to_json_value),
            ),
            ("cache_hit", JsonValue::from(self.cache_hit)),
            ("has_report", JsonValue::from(self.report_json.is_some())),
            ("has_metrics", JsonValue::from(self.metrics_json.is_some())),
        ])
    }

    /// The full JSON form, used verbatim as the journal line.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::object([
            ("id", JsonValue::from(self.id)),
            ("status", JsonValue::from(self.status.as_str())),
            (
                "error",
                self.error
                    .as_ref()
                    .map_or(JsonValue::Null, JobError::to_json_value),
            ),
            ("cache_hit", JsonValue::from(self.cache_hit)),
            ("spec", self.spec_json.clone()),
            (
                "report",
                self.report_json.clone().unwrap_or(JsonValue::Null),
            ),
            (
                "metrics",
                self.metrics_json.clone().unwrap_or(JsonValue::Null),
            ),
        ])
    }

    /// Rebuilds a record from a journal line; `None` when the line is
    /// structurally unusable (replay skips it).
    pub fn from_json(v: &JsonValue) -> Option<JobRecord> {
        let id = v.get("id")?.as_u64()?;
        let status = JobStatus::parse(v.get("status")?.as_str()?)?;
        let error = match v.get("error") {
            None | Some(JsonValue::Null) => None,
            Some(e) => Some(JobError {
                kind: e.get("kind")?.as_str()?.to_string(),
                message: e
                    .get("message")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string(),
            }),
        };
        let spec_json = v.get("spec")?.clone();
        let opt = |key: &str| match v.get(key) {
            None | Some(JsonValue::Null) => None,
            Some(x) => Some(x.clone()),
        };
        Some(JobRecord {
            id,
            spec_json,
            status,
            error,
            report_json: opt("report"),
            metrics_json: opt("metrics"),
            cache_hit: matches!(v.get("cache_hit"), Some(JsonValue::Bool(true))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_json(graph: &str) -> JsonValue {
        JsonValue::parse(&format!(
            "{{\"graph\": {graph}, \"app\": \"3-cf\", \"metrics\": true}}"
        ))
        .expect("spec parses")
    }

    #[test]
    fn parses_minimal_spec() {
        let spec = JobSpec::from_json(&spec_json("{\"gen\": \"golden-ba\"}")).expect("valid");
        assert_eq!(spec.graph, GraphSource::Gen("golden-ba".to_string()));
        assert_eq!(spec.app, "3-cf");
        assert!(spec.metrics);
        assert_eq!(spec.deadline, None);
    }

    #[test]
    fn deadlines_a_duration_cannot_hold_are_refused() {
        let with_deadline = |d: &str| {
            JsonValue::parse(&format!(
                "{{\"graph\": {{\"gen\": \"demo\"}}, \"app\": \"3-cf\", \"deadline_seconds\": {d}}}"
            ))
            .expect("json")
        };
        let spec = JobSpec::from_json(&with_deadline("2.5")).expect("valid");
        assert_eq!(spec.deadline, Some(Duration::from_millis(2500)));
        for bad in ["0", "-1", "1e300", "1e-300", "\"10\""] {
            let err = JobSpec::from_json(&with_deadline(bad)).unwrap_err();
            assert!(err.contains("deadline_seconds"), "{bad}: {err}");
        }
    }

    #[test]
    fn rejects_zero_or_two_graph_sources() {
        assert!(JobSpec::from_json(&spec_json("{}")).is_err());
        assert!(
            JobSpec::from_json(&spec_json("{\"gen\": \"demo\", \"inline\": \"0 1\"}")).is_err()
        );
    }

    #[test]
    fn rejects_bad_app_and_unknown_knob() {
        // Sizes outside the supported embedding range are refused at
        // admission, not failed later on a worker.
        for app in ["9-zz", "99-cf", "1-mc", "0-cf", "9-mc"] {
            let v = JsonValue::parse(&format!(
                "{{\"graph\": {{\"gen\": \"demo\"}}, \"app\": \"{app}\"}}"
            ))
            .expect("json");
            assert!(JobSpec::from_json(&v).is_err(), "{app} must be refused");
        }
        // `scheduler` and `epoch` are not knobs: the simulator has one
        // event engine. `sim_threads` is not one either: a job is one
        // simulation, and the host picks its own threads. Nor is
        // `access_path`: every served number is the same on either path.
        for knob in ["warp", "scheduler", "epoch", "sim_threads", "access_path"] {
            let v = JsonValue::parse(&format!(
                "{{\"graph\": {{\"gen\": \"demo\"}}, \"app\": \"3-cf\", \
                 \"config\": {{\"{knob}\": \"off\"}}}}"
            ))
            .expect("json");
            let err = JobSpec::from_json(&v).unwrap_err();
            assert!(err.contains("unknown config knob"), "{knob}: {err}");
            assert!(err.contains(knob), "{knob}: {err}");
        }
    }

    #[test]
    fn query_app_spec_is_validated_at_admission() {
        let v =
            JsonValue::parse("{\"graph\": {\"gen\": \"demo\"}, \"app\": \"query:1,2,1:0-1,1-2\"}")
                .expect("json");
        let spec = JobSpec::from_json(&v).expect("valid query spec admitted");
        assert_eq!(spec.app, "query:1,2,1:0-1,1-2");
        // A structurally bad query (1 vertex) is a typed 400 at admission.
        let v = JsonValue::parse("{\"graph\": {\"gen\": \"demo\"}, \"app\": \"query:1:0-1\"}")
            .expect("json");
        assert!(JobSpec::from_json(&v).unwrap_err().contains("query"));
        // A disconnected query is refused too.
        let v = JsonValue::parse(
            "{\"graph\": {\"gen\": \"demo\"}, \"app\": \"query:1,1,2,2:0-1,2-3\"}",
        )
        .expect("json");
        assert!(JobSpec::from_json(&v).unwrap_err().contains("query"));
    }

    #[test]
    fn config_overrides_apply() {
        let v = JsonValue::parse(
            "{\"graph\": {\"gen\": \"demo\"}, \"app\": \"3-mc\", \
             \"config\": {\"pus\": 4, \"tau\": 0.05, \"work_stealing\": false}}",
        )
        .expect("json");
        let spec = JobSpec::from_json(&v).expect("valid");
        assert_eq!(spec.config.num_pus, 4);
        assert_eq!(spec.config.tau, Some(0.05));
        assert!(!spec.config.work_stealing);
    }

    #[test]
    fn memo_and_adaptive_knobs_apply() {
        let v = JsonValue::parse(
            "{\"graph\": {\"gen\": \"demo\"}, \"app\": \"3-cf\", \
             \"config\": {\"memo\": \"65536\", \"adaptive_lambda\": true, \"repin\": true}}",
        )
        .expect("json");
        let spec = JobSpec::from_json(&v).expect("valid");
        assert_eq!(spec.config.memo, gramer::MemoMode::On { bytes: 65536 });
        assert!(spec.config.adaptive_lambda);
        assert!(spec.config.repin);
        // Defaults stay off when the knobs are absent.
        let spec = JobSpec::from_json(&spec_json("{\"gen\": \"demo\"}")).expect("valid");
        assert_eq!(spec.config.memo, gramer::MemoMode::Off);
        assert!(!spec.config.adaptive_lambda);
        assert!(!spec.config.repin);
    }

    #[test]
    fn bad_knob_values_are_rejected_at_admission() {
        // A malformed memo mode string fails the override parser; a
        // budget below one entry passes parsing as `On` only via "on", so
        // the sub-entry numeric is refused with a typed message. A
        // non-boolean for a boolean knob is refused rather than read as
        // `false`. Either way the job is a 400, never queued.
        for (knob, bad) in [
            ("memo", "\"sometimes\""),
            ("memo", "\"7\""),
            ("memo", "true"),
            ("work_stealing", "\"true\""),
            ("work_stealing", "1"),
            ("adaptive_lambda", "\"true\""),
            ("adaptive_lambda", "1"),
            ("repin", "\"true\""),
            ("repin", "0"),
        ] {
            let v = JsonValue::parse(&format!(
                "{{\"graph\": {{\"gen\": \"demo\"}}, \"app\": \"3-cf\", \
                 \"config\": {{\"{knob}\": {bad}}}}}"
            ))
            .expect("json");
            let err = JobSpec::from_json(&v).unwrap_err();
            assert!(err.contains(knob), "{knob}={bad}: {err}");
        }
        for bad in ["\"true\"", "1"] {
            let v = JsonValue::parse(&format!(
                "{{\"graph\": {{\"gen\": \"demo\"}}, \"app\": \"3-cf\", \"metrics\": {bad}}}"
            ))
            .expect("json");
            let err = JobSpec::from_json(&v).unwrap_err();
            assert!(err.contains("metrics"), "metrics={bad}: {err}");
        }
    }

    #[test]
    fn record_roundtrips_through_json() {
        let mut rec = JobRecord::new(7, spec_json("{\"gen\": \"demo\"}"), JobStatus::Queued);
        rec.status = JobStatus::Panicked;
        rec.error = Some(JobError::new("panic", "kaboom (at x.rs:1)"));
        rec.cache_hit = true;
        let back = JobRecord::from_json(&rec.to_json_value()).expect("roundtrip");
        assert_eq!(back.id, 7);
        assert_eq!(back.status, JobStatus::Panicked);
        assert_eq!(back.error, rec.error);
        assert!(back.cache_hit);
        assert!(back.report_json.is_none());
    }

    #[test]
    fn terminal_states_are_typed() {
        for (s, terminal) in [
            (JobStatus::Queued, false),
            (JobStatus::Running, false),
            (JobStatus::Completed, true),
            (JobStatus::Failed, true),
            (JobStatus::Panicked, true),
            (JobStatus::TimedOut, true),
            (JobStatus::Rejected, true),
        ] {
            assert_eq!(s.is_terminal(), terminal);
            assert_eq!(JobStatus::parse(s.as_str()), Some(s));
        }
    }
}
