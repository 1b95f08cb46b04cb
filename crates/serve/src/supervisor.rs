//! The job supervisor: admission control, a bounded worker pool, panic
//! quarantine, run budgets, and the crash-safe journal.
//!
//! Fault-containment invariants, in decreasing order of importance:
//!
//! 1. **The daemon never dies because of a job.** Every job runs under
//!    [`gramer::supervise::run_quarantined`]; a panicking job ends in a
//!    typed `panicked` record, not an aborted process.
//! 2. **Every admitted job reaches a typed terminal state.** Each job
//!    runs under a [`gramer::progress`] token that carries the
//!    job's wall-clock deadline and the step budget; the worker's own
//!    simulation checks it at every heartbeat flush and unwinds once
//!    either is spent (`timed_out`, with a message naming which). No
//!    other thread watches the job, so a step budget ends a job the same
//!    way whatever the host speed. Simulator errors become `failed` with
//!    the [`gramer::SimError::kind`] tag; over-budget submissions become
//!    `rejected` records. Nothing is silently dropped.
//! 3. **State survives restarts.** Admission and the terminal state are
//!    each one synced append to a [`gramer::supervise::Journal`], whose
//!    snapshots are amortized, so a transition costs O(1) however many
//!    jobs the daemon holds. `running` is set in memory only: replay
//!    re-queues a `queued` job and a `running` one alike. On start the
//!    journal is replayed, terminal results are restored verbatim, and
//!    interrupted jobs are re-queued; a clean journal is appended to as
//!    it is. A journal *write* failure degrades the daemon to in-memory
//!    operation (with a stderr warning) until a later snapshot succeeds,
//!    rather than failing jobs — durability is best-effort, execution is
//!    not.
//! 4. **Back-pressure is explicit.** A full queue rejects new work with
//!    a typed error the HTTP layer maps to 429; it never blocks the
//!    accept loop or grows without bound.
//!
//! Nothing is retried: a job is a pure function of (graph, app, config),
//! so a failed run would fail again. For the same reason a finished
//! run's output is kept in the [`SessionCache`] entry of its graph, and
//! a repeated job is completed from it without simulating.

use crate::chaos::ChaosConfig;
use crate::job::{run_app_spec, GraphSource, JobError, JobRecord, JobSpec, JobStatus};
use crate::journal::JobJournal;
use crate::session::{OutputKey, SessionCache};
use gramer::json::JsonValue;
use gramer::supervise::{self, Journal};
use gramer::telemetry::TelemetryConfig;
use gramer::{progress, Preprocessed, SimError};
use gramer_graph::{artifact, generate, io};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`Supervisor`].
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Worker threads executing jobs (0 = accept and queue only; used
    /// by the restart tests and drained shutdown).
    pub workers: usize,
    /// Maximum queued (admitted, not yet running) jobs before
    /// submissions are rejected with a queue-full error.
    pub queue_capacity: usize,
    /// Wall-clock budget for a job that does not set its own.
    pub default_deadline: Duration,
    /// Admission cap on the job's estimated graph bytes (edge-list /
    /// artifact file size, inline text length; generated graphs are
    /// bounded by their spec instead).
    pub max_graph_bytes: u64,
    /// Step budget per job: a job whose heartbeat passes it ends
    /// `timed_out`. 0 disables it.
    pub max_steps: u64,
    /// Byte budget of the in-memory session cache.
    pub session_cache_bytes: u64,
    /// Fault injection; [`ChaosConfig::default`] injects nothing.
    pub chaos: ChaosConfig,
    /// Journal file; `None` runs without durability.
    pub journal_path: Option<PathBuf>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            workers: 2,
            queue_capacity: 64,
            default_deadline: Duration::from_secs(60),
            max_graph_bytes: 1 << 30,
            max_steps: 0,
            session_cache_bytes: 256 << 20,
            chaos: ChaosConfig::default(),
            journal_path: None,
        }
    }
}

/// Why a submission was not admitted (no record is created for these;
/// over-budget submissions *do* get a `rejected` record instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The spec failed validation (HTTP 400).
    Invalid(String),
    /// The queue is at capacity (HTTP 429).
    QueueFull,
    /// The daemon is draining for shutdown (HTTP 503).
    ShuttingDown,
}

/// Largest per-job deadline a submission may request.
const MAX_DEADLINE: Duration = Duration::from_secs(600);

/// Mutable supervisor state under one lock (records, queue and journal
/// share the lock so admission and journal writes are consistent, and
/// one job's lines land in transition order).
struct Jobs {
    records: BTreeMap<u64, JobRecord>,
    queue: VecDeque<u64>,
    next_id: u64,
    shutting_down: bool,
    /// The journal; `None` runs without durability.
    journal: Option<Journal>,
}

/// What [`Jobs::persist`] journals.
#[derive(Clone, Copy)]
enum Persist {
    /// The change to one record.
    Change(u64),
    /// Start: a snapshot of every record, unless the replay found the
    /// file clean.
    Open,
    /// Drain: a snapshot of every record.
    Drain,
}

impl Jobs {
    /// Journals `what`. A failure is counted by the journal and warned
    /// about once; it never fails a job.
    fn persist(&mut self, what: Persist) {
        let Some(journal) = &mut self.journal else {
            return;
        };
        let live = self.records.values().map(JobRecord::to_json_value);
        let written = match what {
            Persist::Change(id) => match self.records.get(&id) {
                Some(record) => journal.write(&record.to_json_value(), live),
                None => return,
            },
            Persist::Open => journal.snapshot_if_due(live),
            Persist::Drain => journal.snapshot(live),
        };
        if let Err(e) = written {
            if journal.stats().errors == 1 {
                eprintln!(
                    "gramer-serve: journal write failed ({e}); continuing without durability until a snapshot succeeds"
                );
            }
        }
    }
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    panicked: AtomicU64,
    timed_out: AtomicU64,
    rejected: AtomicU64,
    queue_full: AtomicU64,
}

struct Shared {
    cfg: SupervisorConfig,
    jobs: Mutex<Jobs>,
    cvar: Condvar,
    session: SessionCache,
    counters: Counters,
}

/// The supervisor: owns the worker pool and all job state.
///
/// Thread handles sit behind mutexes so [`Supervisor::shutdown_and_join`]
/// works through a shared reference (the server holds the supervisor in
/// an `Arc` shared with its connection handlers).
pub struct Supervisor {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Supervisor {
    /// Starts the worker pool, replaying the journal if one is
    /// configured: terminal records are restored verbatim, interrupted
    /// ones re-queued.
    ///
    /// # Errors
    ///
    /// An I/O error reading an existing journal file (corrupt *content*
    /// is tolerated and skipped, only a failing read aborts startup).
    pub fn start(cfg: SupervisorConfig) -> std::io::Result<Supervisor> {
        let mut jobs = Jobs {
            records: BTreeMap::new(),
            queue: VecDeque::new(),
            next_id: 1,
            shutting_down: false,
            journal: None,
        };
        if let Some(path) = &cfg.journal_path {
            let (replay, journal) = JobJournal::new(path).open()?;
            jobs.journal = Some(journal);
            if replay.skipped_lines > 0 {
                eprintln!(
                    "gramer-serve: journal replay skipped {} corrupt line(s)",
                    replay.skipped_lines
                );
            }
            for rec in replay.records {
                jobs.next_id = jobs.next_id.max(rec.id + 1);
                jobs.records.insert(rec.id, rec);
            }
            jobs.queue.extend(&replay.requeued);
        }
        // A clean journal is appended to as it is. Anything else is
        // snapshotted now: that drops a torn last line left by a crash
        // mid-append, which the first append would otherwise be glued
        // onto. A replayed `running` record needs no rewrite: replay
        // re-queues it again after any later crash.
        jobs.persist(Persist::Open);
        let shared = Arc::new(Shared {
            session: SessionCache::new(cfg.session_cache_bytes),
            jobs: Mutex::new(jobs),
            cvar: Condvar::new(),
            counters: Counters::default(),
            cfg,
        });

        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gramer-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Supervisor {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// Admission control: validates, applies budgets, and either queues
    /// the job or records why not. Returns a snapshot of the new record
    /// (status `queued`, or `rejected` for valid-but-over-budget
    /// submissions).
    ///
    /// # Errors
    ///
    /// [`SubmitError`] for submissions that create no record at all:
    /// malformed specs, a full queue, or a draining daemon.
    pub fn submit(&self, body: &JsonValue) -> Result<JobRecord, SubmitError> {
        let spec = JobSpec::from_json(body).map_err(SubmitError::Invalid)?;
        let rejection = self.admission_error(&spec);
        let mut jobs = self.shared.lock_jobs();
        if jobs.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        if rejection.is_none() && jobs.queue.len() >= self.shared.cfg.queue_capacity {
            self.shared
                .counters
                .queue_full
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull);
        }
        let id = jobs.next_id;
        jobs.next_id += 1;
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        let mut record = JobRecord::new(id, body.clone(), JobStatus::Queued);
        match rejection {
            Some(error) => {
                record.status = JobStatus::Rejected;
                record.error = Some(error);
                self.shared
                    .counters
                    .rejected
                    .fetch_add(1, Ordering::Relaxed);
            }
            None => jobs.queue.push_back(id),
        }
        let snapshot = record.clone();
        jobs.records.insert(id, record);
        jobs.persist(Persist::Change(id));
        drop(jobs);
        self.shared.cvar.notify_one();
        Ok(snapshot)
    }

    /// The admission-time budget checks (everything that yields a typed
    /// `rejected` record rather than an HTTP-level refusal).
    fn admission_error(&self, spec: &JobSpec) -> Option<JobError> {
        let cfg = &self.shared.cfg;
        if let Some(d) = spec.deadline {
            if d > MAX_DEADLINE {
                return Some(JobError::new(
                    "over_budget",
                    format!(
                        "deadline {}s exceeds the {}s cap",
                        d.as_secs_f64(),
                        MAX_DEADLINE.as_secs()
                    ),
                ));
            }
        }
        let estimate = match &spec.graph {
            GraphSource::Gen(_) => 0,
            GraphSource::Inline(text) => text.len() as u64,
            GraphSource::EdgeList(path) | GraphSource::Artifact(path) => {
                match std::fs::metadata(path) {
                    Ok(meta) if meta.is_file() => meta.len(),
                    Ok(_) => {
                        return Some(JobError::new(
                            "io",
                            format!("{} is not a regular file", path.display()),
                        ))
                    }
                    Err(e) => {
                        return Some(JobError::new(
                            "io",
                            format!("cannot stat {}: {e}", path.display()),
                        ))
                    }
                }
            }
        };
        if estimate > cfg.max_graph_bytes {
            return Some(JobError::new(
                "over_budget",
                format!(
                    "graph is ~{estimate} bytes, over the {} byte admission cap",
                    cfg.max_graph_bytes
                ),
            ));
        }
        None
    }

    /// A snapshot of one job's record.
    pub fn job(&self, id: u64) -> Option<JobRecord> {
        self.shared.lock_jobs().records.get(&id).cloned()
    }

    /// Summaries of all jobs, in id order.
    pub fn jobs_json(&self) -> JsonValue {
        let jobs = self.shared.lock_jobs();
        JsonValue::Array(jobs.records.values().map(JobRecord::summary_json).collect())
    }

    /// Blocks until `id` reaches a terminal state or `timeout` passes.
    /// Returns the final record, or `None` on timeout / unknown id.
    pub fn wait_for(&self, id: u64, timeout: Duration) -> Option<JobRecord> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.job(id) {
                Some(rec) if rec.status.is_terminal() => return Some(rec),
                Some(_) => {}
                None => return None,
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The `/stats` document: lifecycle counters, queue state, and
    /// session-cache behaviour.
    pub fn stats_json(&self) -> JsonValue {
        let c = &self.shared.counters;
        let s = self.shared.session.stats();
        let load = |a: &AtomicU64| JsonValue::from(a.load(Ordering::Relaxed));
        let jobs = self.shared.lock_jobs();
        let journal = jobs.journal.as_ref().map(Journal::stats);
        let journal = journal.unwrap_or_default();
        JsonValue::object([
            ("workers", JsonValue::from(self.shared.cfg.workers)),
            (
                "queue_capacity",
                JsonValue::from(self.shared.cfg.queue_capacity),
            ),
            ("queue_depth", JsonValue::from(jobs.queue.len())),
            ("jobs", JsonValue::from(jobs.records.len())),
            ("shutting_down", JsonValue::from(jobs.shutting_down)),
            ("submitted", load(&c.submitted)),
            ("completed", load(&c.completed)),
            ("failed", load(&c.failed)),
            ("panicked", load(&c.panicked)),
            ("timed_out", load(&c.timed_out)),
            ("rejected", load(&c.rejected)),
            ("queue_full_rejections", load(&c.queue_full)),
            ("journal_errors", JsonValue::from(journal.errors)),
            ("journal_appends", JsonValue::from(journal.appends)),
            ("journal_snapshots", JsonValue::from(journal.snapshots)),
            (
                "session_cache",
                JsonValue::object([
                    ("hits", JsonValue::from(s.hits)),
                    ("misses", JsonValue::from(s.misses)),
                    ("evictions", JsonValue::from(s.evictions)),
                    ("resident_bytes", JsonValue::from(s.resident_bytes)),
                    ("entries", JsonValue::from(s.entries)),
                    ("report_hits", JsonValue::from(s.report_hits)),
                    ("reports", JsonValue::from(s.reports)),
                ]),
            ),
        ])
    }

    /// Graceful shutdown: stop accepting and handing out queued work,
    /// let in-flight jobs finish, join the pool, and compact the journal
    /// into a snapshot. Queued jobs stay `queued` in the journal for the
    /// next start.
    pub fn shutdown_and_join(&self) {
        {
            let mut jobs = self.shared.lock_jobs();
            jobs.shutting_down = true;
        }
        self.shared.cvar.notify_all();
        let workers = std::mem::take(
            &mut *self
                .workers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for handle in workers {
            let _ = handle.join();
        }
        self.shared.lock_jobs().persist(Persist::Drain);
    }
}

impl Shared {
    fn lock_jobs(&self) -> MutexGuard<'_, Jobs> {
        // A worker panicking while holding this lock is already a bug
        // contained by the quarantine; the state itself (maps + queue)
        // stays structurally valid, so recover the guard.
        self.jobs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn update_record(&self, id: u64, f: impl FnOnce(&mut JobRecord)) {
        let mut jobs = self.lock_jobs();
        if let Some(rec) = jobs.records.get_mut(&id) {
            f(rec);
        }
        jobs.persist(Persist::Change(id));
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let id = {
            let mut jobs = shared.lock_jobs();
            loop {
                if let Some(id) = jobs.queue.pop_front() {
                    break Some(id);
                }
                if jobs.shutting_down {
                    break None;
                }
                jobs = shared
                    .cvar
                    .wait(jobs)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        match id {
            Some(id) => run_job(shared, id),
            None => return,
        }
    }
}

/// A job's successful payload.
struct JobOutput {
    report_json: JsonValue,
    metrics_json: Option<JsonValue>,
    cache_hit: bool,
    /// Where to store the output once the run has ended `Ok`; `None`
    /// when it came from the store.
    store: Option<(u64, OutputKey)>,
}

fn run_job(shared: &Shared, id: u64) {
    // `running` is set in memory only: replay re-queues a `running`
    // record as it does a `queued` one, so a synced line for it would
    // buy no recovery.
    let Some(spec_json) = shared.lock_jobs().records.get_mut(&id).map(|r| {
        r.status = JobStatus::Running;
        r.spec_json.clone()
    }) else {
        return;
    };
    let spec = match JobSpec::from_json(&spec_json) {
        Ok(spec) => spec,
        Err(msg) => {
            // Unreachable for live submissions (validated at admission);
            // covers hand-edited journals.
            finish(
                shared,
                id,
                JobStatus::Failed,
                Some(JobError::new("invalid", msg)),
            );
            return;
        }
    };
    let cfg = &shared.cfg;
    let deadline = spec.deadline.unwrap_or(cfg.default_deadline);
    let max_steps = (cfg.max_steps > 0).then_some(cfg.max_steps);

    let token = progress::ProgressToken::with_budget(Some(deadline), max_steps);
    let outcome = supervise::run_quarantined(|| {
        let _guard = progress::install(token);
        cfg.chaos.inject(id);
        let (key, pre, cache_hit) = resolve_preprocessed(shared, &spec)?;
        let job = OutputKey {
            app: spec.app.clone(),
            config: spec.config.clone(),
            metrics: spec.metrics,
        };
        if let Some((report_json, metrics_json)) = shared.session.output(key, &job) {
            return Ok(JobOutput {
                report_json,
                metrics_json,
                cache_hit,
                store: None,
            });
        }
        let window = spec
            .metrics
            .then(|| TelemetryConfig::default().window_cycles);
        let (report, tel) = run_app_spec(&spec.app, &pre, spec.config.clone(), window)?;
        Ok(JobOutput {
            report_json: report.to_json_value(),
            metrics_json: tel.map(|t| t.to_json_value()),
            cache_hit,
            store: Some((key, job)),
        })
    });

    let (status, error) = match outcome {
        supervise::Outcome::Ok(out) => {
            if let Some((key, job)) = out.store {
                shared
                    .session
                    .store_output(key, job, &out.report_json, out.metrics_json.as_ref());
            }
            shared.update_record(id, |rec| {
                rec.status = JobStatus::Completed;
                rec.error = None;
                rec.report_json = Some(out.report_json);
                rec.metrics_json = out.metrics_json;
                rec.cache_hit = out.cache_hit;
                shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            });
            return;
        }
        supervise::Outcome::Err(e) => (JobStatus::Failed, JobError::new(e.kind(), e.to_string())),
        supervise::Outcome::Panicked(message) => {
            (JobStatus::Panicked, JobError::new("panic", message))
        }
        supervise::Outcome::Cancelled(spent) => {
            let why = match spent {
                progress::Cancelled::Ticks => {
                    format!("step budget of {} heartbeat ticks exhausted", cfg.max_steps)
                }
                progress::Cancelled::Deadline => {
                    format!("deadline of {:.3}s exceeded", deadline.as_secs_f64())
                }
            };
            (JobStatus::TimedOut, JobError::new("timeout", why))
        }
    };
    finish(shared, id, status, Some(error));
}

/// Ends job `id` in `status`. Like a completion, it is counted under
/// the jobs lock with the record's change, so `/stats` never lags the
/// states a client has seen.
fn finish(shared: &Shared, id: u64, status: JobStatus, error: Option<JobError>) {
    shared.update_record(id, |rec| {
        rec.status = status;
        rec.error = error;
        let counter = match status {
            JobStatus::Failed => &shared.counters.failed,
            JobStatus::Panicked => &shared.counters.panicked,
            JobStatus::TimedOut => &shared.counters.timed_out,
            _ => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    });
}

/// Resolves the job's graph through the shared session cache; returns
/// the entry's key, the graph and whether it was a warm hit. The cache
/// key combines a digest of the *source* (file bytes, inline text, or
/// generator spec string) with the preprocessing-relevant config knobs,
/// mirroring [`gramer::PreprocessCache`].
fn resolve_preprocessed(
    shared: &Shared,
    spec: &JobSpec,
) -> Result<(u64, Arc<Preprocessed>, bool), SimError> {
    let (session, config) = (&shared.session, &spec.config);
    let (key, resolved) = match &spec.graph {
        GraphSource::Gen(gen_spec) => {
            let digest = artifact::fnv1a(format!("gen:{gen_spec}").as_bytes());
            let key = SessionCache::key(digest, config);
            let resolved = session.get_or_build(key, || {
                let graph = generate::named(gen_spec)?;
                Ok(gramer::preprocess(&graph, config)?)
            });
            (key, resolved)
        }
        GraphSource::Inline(text) => {
            let key = SessionCache::key(artifact::fnv1a(text.as_bytes()), config);
            let resolved = session.get_or_build(key, || {
                let graph = io::read_edge_list(text.as_bytes())?;
                Ok(gramer::preprocess(&graph, config)?)
            });
            (key, resolved)
        }
        GraphSource::EdgeList(path) => {
            let bytes = std::fs::read(path)
                .map_err(|e| SimError::App(format!("cannot read {}: {e}", path.display())))?;
            let key = SessionCache::key(artifact::fnv1a(&bytes), config);
            let resolved = session.get_or_build(key, || {
                let graph = io::read_edge_list(&bytes[..])?;
                Ok(gramer::preprocess(&graph, config)?)
            });
            (key, resolved)
        }
        GraphSource::Artifact(path) => {
            let art = gramer_graph::GraphArtifact::open(path)?;
            let key = SessionCache::key(art.payload_digest(), config);
            let resolved = session.get_or_build(key, || Preprocessed::from_artifact(&art, config));
            (key, resolved)
        }
    };
    let (pre, hit) = resolved?;
    Ok((key, pre, hit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gramer::supervise::COMPACT_MIN_APPENDS;

    fn submit_json(supervisor: &Supervisor, text: &str) -> Result<JobRecord, SubmitError> {
        supervisor.submit(&JsonValue::parse(text).expect("valid json"))
    }

    fn small_job(app: &str) -> String {
        format!("{{\"graph\": {{\"gen\": \"ba:120:3:5\"}}, \"app\": \"{app}\"}}")
    }

    fn wait(supervisor: &Supervisor, id: u64) -> JobRecord {
        supervisor
            .wait_for(id, Duration::from_secs(60))
            .expect("job reaches a terminal state")
    }

    #[test]
    fn completes_a_job_and_reuses_the_session_cache() {
        let supervisor = Supervisor::start(SupervisorConfig {
            workers: 1,
            ..SupervisorConfig::default()
        })
        .expect("start");
        let a = submit_json(&supervisor, &small_job("3-cf")).expect("submit");
        let b = submit_json(&supervisor, &small_job("3-mc")).expect("submit");
        let a = wait(&supervisor, a.id);
        let b = wait(&supervisor, b.id);
        assert_eq!(a.status, JobStatus::Completed);
        assert_eq!(b.status, JobStatus::Completed);
        assert!(a.report_json.is_some());
        // Same graph + same preprocessing knobs: the second job hits.
        assert!(!a.cache_hit);
        assert!(b.cache_hit);
        supervisor.shutdown_and_join();
    }

    #[test]
    fn malformed_queue_full_and_over_budget_are_all_typed() {
        let supervisor = Supervisor::start(SupervisorConfig {
            workers: 0,
            queue_capacity: 1,
            ..SupervisorConfig::default()
        })
        .expect("start");
        assert!(matches!(
            submit_json(&supervisor, "{\"app\": \"3-cf\"}"),
            Err(SubmitError::Invalid(_))
        ));
        let first = submit_json(&supervisor, &small_job("3-cf")).expect("fills the queue");
        assert_eq!(first.status, JobStatus::Queued);
        assert!(matches!(
            submit_json(&supervisor, &small_job("3-cf")),
            Err(SubmitError::QueueFull)
        ));
        // Over-budget deadline: typed rejected record, not queued.
        let rejected = submit_json(
            &supervisor,
            "{\"graph\": {\"gen\": \"demo\"}, \"app\": \"3-cf\", \"deadline_seconds\": 1e6}",
        )
        .expect("recorded");
        assert_eq!(rejected.status, JobStatus::Rejected);
        assert_eq!(
            rejected.error.as_ref().map(|e| e.kind.as_str()),
            Some("over_budget")
        );
        let stats = supervisor.stats_json();
        assert_eq!(
            stats
                .get("queue_full_rejections")
                .and_then(JsonValue::as_u64),
            Some(1)
        );
        supervisor.shutdown_and_join();
    }

    #[test]
    fn injected_panic_is_contained_and_typed() {
        let supervisor = Supervisor::start(SupervisorConfig {
            workers: 1,
            chaos: ChaosConfig::parse("panic=1000,seed=1").expect("chaos"),
            ..SupervisorConfig::default()
        })
        .expect("start");
        // A repeated spec panics every time: the injection comes before
        // the output store, and a panicked run stores nothing.
        for _ in 0..2 {
            let rec = submit_json(&supervisor, &small_job("3-cf")).expect("submit");
            let rec = wait(&supervisor, rec.id);
            assert_eq!(rec.status, JobStatus::Panicked);
            let error = rec.error.expect("typed error");
            assert_eq!(error.kind, "panic");
            assert!(
                error.message.contains("injected panic"),
                "{}",
                error.message
            );
        }
        // The daemon survives: the supervisor still answers (panic=1000
        // would fault any further job too, so assert liveness via stats).
        assert_eq!(
            supervisor
                .stats_json()
                .get("panicked")
                .and_then(JsonValue::as_u64),
            Some(2)
        );
        assert_eq!(session_stats(&supervisor), (0, 0));
        supervisor.shutdown_and_join();
    }

    #[test]
    fn deadline_overrun_times_out_at_the_next_tick() {
        // The injected delay ticks every 5 ms; the first tick past the
        // deadline unwinds the job on the worker itself.
        let chaos = ChaosConfig::parse("delay=1000,delay-ms=60000,seed=3").expect("chaos");
        let supervisor = Supervisor::start(SupervisorConfig {
            workers: 1,
            chaos,
            default_deadline: Duration::from_millis(200),
            ..SupervisorConfig::default()
        })
        .expect("start");
        let rec = submit_json(&supervisor, &small_job("3-cf")).expect("submit");
        let rec = wait(&supervisor, rec.id);
        assert_eq!(rec.status, JobStatus::TimedOut);
        let error = rec.error.expect("typed error");
        assert_eq!(error.kind, "timeout");
        assert_eq!(error.message, "deadline of 0.200s exceeded");
        assert_eq!(session_stats(&supervisor), (0, 0), "a timed-out run stored");
        supervisor.shutdown_and_join();
    }

    #[test]
    fn step_budget_ends_a_job_whatever_the_host_speed() {
        // A job this small ends in a few milliseconds, faster than any
        // polling interval: only a budget the worker checks itself can
        // stop it. Its heartbeat is measured by running it here.
        let job = r#"{"graph": {"gen": "ba:30:2:1"}, "app": "3-cf"}"#;
        let spec = JobSpec::from_json(&JsonValue::parse(job).expect("json")).expect("spec");
        let graph = generate::named("ba:30:2:1").expect("graph");
        let pre = gramer::preprocess(&graph, &spec.config).expect("preprocess");
        let token = progress::ProgressToken::new();
        let guard = progress::install(token.clone());
        run_app_spec(&spec.app, &pre, spec.config.clone(), None).expect("run");
        drop(guard);
        let heartbeat = token.heartbeat();
        assert!(heartbeat > 1, "heartbeat {heartbeat}");

        for max_steps in [1, heartbeat - 1, heartbeat] {
            let supervisor = Supervisor::start(SupervisorConfig {
                workers: 1,
                max_steps,
                ..SupervisorConfig::default()
            })
            .expect("start");
            for _ in 0..5 {
                let rec = submit_json(&supervisor, job).expect("submit");
                let rec = wait(&supervisor, rec.id);
                if max_steps == heartbeat {
                    assert_eq!(rec.status, JobStatus::Completed);
                    continue;
                }
                assert_eq!(rec.status, JobStatus::TimedOut, "max_steps {max_steps}");
                let error = rec.error.expect("typed error");
                assert_eq!(error.kind, "timeout");
                assert_eq!(
                    error.message,
                    format!("step budget of {max_steps} heartbeat ticks exhausted")
                );
            }
            // A run the budget ended stores nothing, so each repeat ran
            // again; once one finished, the repeats came from the store.
            let want = if max_steps == heartbeat {
                (4, 1)
            } else {
                (0, 0)
            };
            assert_eq!(session_stats(&supervisor), want, "max_steps {max_steps}");
            supervisor.shutdown_and_join();
        }
    }

    #[test]
    fn journal_restores_completed_results_and_requeues_interrupted_jobs() {
        let dir = journal_dir("journal");
        let journal_path = dir.join("jobs.jsonl");

        // Generation 1: complete one job, leave one queued (workers=0
        // for the second submission is emulated by queueing after
        // shutdown started — simpler: run gen 1 with 1 worker, wait,
        // then append a queued job via a 0-worker supervisor).
        let supervisor = Supervisor::start(SupervisorConfig {
            workers: 1,
            journal_path: Some(journal_path.clone()),
            ..SupervisorConfig::default()
        })
        .expect("start gen1");
        let done = submit_json(&supervisor, &small_job("3-cf")).expect("submit");
        let done = wait(&supervisor, done.id);
        assert_eq!(done.status, JobStatus::Completed);
        let report_before = done.report_json.clone().expect("report").to_string();
        supervisor.shutdown_and_join();

        // Generation 2: 0 workers, queue one job, abandon without
        // shutdown (simulates a crash — the journal already has the
        // queued snapshot).
        let supervisor = Supervisor::start(SupervisorConfig {
            workers: 0,
            journal_path: Some(journal_path.clone()),
            ..SupervisorConfig::default()
        })
        .expect("start gen2");
        let queued = submit_json(&supervisor, &small_job("3-mc")).expect("submit");
        assert_eq!(queued.status, JobStatus::Queued);
        drop(supervisor); // no shutdown: threads are 0, journal has the queued line

        // Generation 3: replay must restore the completed result
        // byte-for-byte and run the interrupted job.
        let supervisor = Supervisor::start(SupervisorConfig {
            workers: 1,
            journal_path: Some(journal_path),
            ..SupervisorConfig::default()
        })
        .expect("start gen3");
        let restored = supervisor.job(done.id).expect("restored record");
        assert_eq!(restored.status, JobStatus::Completed);
        assert_eq!(
            restored.report_json.expect("report").to_string(),
            report_before,
            "completed results must survive restarts byte-for-byte"
        );
        let replayed = wait(&supervisor, queued.id);
        assert_eq!(replayed.status, JobStatus::Completed);
        supervisor.shutdown_and_join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_journaled_deadline_a_duration_cannot_hold_fails_typed() {
        // A hand-edited journal can carry what admission refuses; the
        // worker must fail the job, not die converting the deadline.
        let dir = journal_dir("huge-deadline");
        let journal_path = dir.join("jobs.jsonl");
        let spec = JsonValue::parse(
            "{\"graph\": {\"gen\": \"demo\"}, \"app\": \"3-cf\", \"deadline_seconds\": 1e300}",
        )
        .expect("json");
        JobJournal::new(&journal_path)
            .write_snapshot([&JobRecord::new(1, spec, JobStatus::Queued)])
            .expect("journal");
        let supervisor = Supervisor::start(SupervisorConfig {
            workers: 1,
            journal_path: Some(journal_path),
            ..SupervisorConfig::default()
        })
        .expect("start");
        let rec = wait(&supervisor, 1);
        assert_eq!(rec.status, JobStatus::Failed);
        assert_eq!(rec.error.map(|e| e.kind), Some("invalid".to_string()));
        supervisor.shutdown_and_join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn journal_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gramer-supervisor-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn stat(supervisor: &Supervisor, key: &str) -> u64 {
        supervisor
            .stats_json()
            .get(key)
            .and_then(JsonValue::as_u64)
            .expect("counter")
    }

    #[test]
    fn journal_work_per_transition_is_constant_amortized() {
        const JOBS: usize = 150;
        let dir = journal_dir("amortized");
        let journal_path = dir.join("jobs.jsonl");
        let cfg = SupervisorConfig {
            workers: 2,
            queue_capacity: JOBS,
            journal_path: Some(journal_path.clone()),
            ..SupervisorConfig::default()
        };
        let apps = ["3-cf", "3-mc", "4-cf"];
        let (mut ids, mut reports) = (Vec::new(), Vec::new());
        // Two generations, each crashed with no drain snapshot; the
        // second restarts over the first's clean journal and appends.
        for generation in 0..2 {
            let supervisor = Supervisor::start(cfg.clone()).expect("start");
            if generation > 0 {
                assert_eq!(stat(&supervisor, "journal_snapshots"), 0);
            }
            let fresh: Vec<u64> = (0..JOBS)
                .map(|i| {
                    submit_json(&supervisor, &small_job(apps[i % apps.len()]))
                        .expect("submit")
                        .id
                })
                .collect();
            for &id in &fresh {
                let rec = wait(&supervisor, id);
                assert_eq!(rec.status, JobStatus::Completed);
                reports.push(rec.report_json.expect("report").to_string());
            }
            ids.extend(fresh);
            let appends = stat(&supervisor, "journal_appends");
            let snapshots = stat(&supervisor, "journal_snapshots");
            assert_eq!(stat(&supervisor, "journal_errors"), 0);
            drop(supervisor); // simulated crash: no drain snapshot

            assert!(
                snapshots <= 1 + appends / COMPACT_MIN_APPENDS as u64,
                "{snapshots} snapshots for {appends} appends"
            );
            let text = std::fs::read_to_string(&journal_path).expect("journal");
            let lines = text.lines().count();
            assert!(
                lines <= 2 * ids.len() + COMPACT_MIN_APPENDS,
                "{lines} lines for {} records",
                ids.len()
            );
        }
        let supervisor =
            Supervisor::start(SupervisorConfig { workers: 0, ..cfg }).expect("restart");
        for (&id, report) in ids.iter().zip(&reports) {
            let rec = supervisor.job(id).expect("restored record");
            assert_eq!(rec.status, JobStatus::Completed);
            assert_eq!(
                rec.report_json.map(|r| r.to_string()).as_ref(),
                Some(report)
            );
        }
        supervisor.shutdown_and_join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_vanished_journal_is_rewritten_whole_not_restarted_by_an_append() {
        let dir = journal_dir("vanished");
        let journal_path = dir.join("jobs.jsonl");
        let supervisor = Supervisor::start(SupervisorConfig {
            workers: 0,
            journal_path: Some(journal_path.clone()),
            ..SupervisorConfig::default()
        })
        .expect("start");
        let first = submit_json(&supervisor, &small_job("3-cf")).expect("submit");
        std::fs::remove_file(&journal_path).expect("remove journal");
        let second = submit_json(&supervisor, &small_job("3-mc")).expect("submit");
        let ids: Vec<u64> = JobJournal::new(&journal_path)
            .replay()
            .expect("replay")
            .records
            .iter()
            .map(|rec| rec.id)
            .collect();
        assert_eq!(ids, [first.id, second.id]);
        assert_eq!(stat(&supervisor, "journal_errors"), 0);
        assert_eq!(stat(&supervisor, "journal_snapshots"), 2);
        supervisor.shutdown_and_join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The session cache's `(report_hits, reports)`.
    fn session_stats(supervisor: &Supervisor) -> (u64, u64) {
        let s = supervisor.shared.session.stats();
        (s.report_hits, s.reports)
    }

    /// The journal lines whose record has id `id`.
    fn lines_for(path: &std::path::Path, id: u64) -> usize {
        std::fs::read_to_string(path)
            .expect("journal")
            .lines()
            .filter_map(|line| JsonValue::parse(line).ok())
            .filter(|doc| doc.get("id").and_then(JsonValue::as_u64) == Some(id))
            .count()
    }

    #[test]
    fn a_completed_job_leaves_two_journal_lines() {
        let dir = journal_dir("two-lines");
        let journal_path = dir.join("jobs.jsonl");
        let supervisor = Supervisor::start(SupervisorConfig {
            workers: 1,
            journal_path: Some(journal_path.clone()),
            ..SupervisorConfig::default()
        })
        .expect("start");
        let rec = submit_json(&supervisor, &small_job("3-cf")).expect("submit");
        assert_eq!(wait(&supervisor, rec.id).status, JobStatus::Completed);
        // Read before the drain snapshot compacts the file: admission
        // and completion, and no line for `running`.
        assert_eq!(lines_for(&journal_path, rec.id), 2);
        assert_eq!(stat(&supervisor, "journal_appends"), 2);
        supervisor.shutdown_and_join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_restart_over_a_clean_journal_rewrites_nothing() {
        let dir = journal_dir("clean-restart");
        let journal_path = dir.join("jobs.jsonl");
        let cfg = SupervisorConfig {
            workers: 1,
            journal_path: Some(journal_path.clone()),
            ..SupervisorConfig::default()
        };
        let supervisor = Supervisor::start(cfg.clone()).expect("start");
        let done = submit_json(&supervisor, &small_job("3-cf")).expect("submit");
        assert_eq!(wait(&supervisor, done.id).status, JobStatus::Completed);
        drop(supervisor); // simulated crash: the appended lines stay
        let before = std::fs::read_to_string(&journal_path).expect("journal");

        let supervisor =
            Supervisor::start(SupervisorConfig { workers: 0, ..cfg }).expect("restart");
        assert_eq!(
            std::fs::read_to_string(&journal_path).expect("journal"),
            before
        );
        assert_eq!(stat(&supervisor, "journal_snapshots"), 0);
        // The first state change appends its one line to those bytes.
        let queued = submit_json(&supervisor, &small_job("3-mc")).expect("submit");
        let expected = format!("{before}{}\n", queued.to_json_value());
        assert_eq!(
            std::fs::read_to_string(&journal_path).expect("journal"),
            expected
        );
        assert_eq!(
            (
                stat(&supervisor, "journal_appends"),
                stat(&supervisor, "journal_snapshots")
            ),
            (1, 0)
        );
        supervisor.shutdown_and_join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stored_output_matches_on_app_config_metrics_and_graph_bytes() {
        let dir = journal_dir("store");
        let graph = dir.join("g.txt");
        let edges = |seed: u64| {
            let g = generate::barabasi_albert(80, 3, seed);
            (0..g.num_vertices() as u32)
                .flat_map(|u| {
                    g.neighbors(u)
                        .iter()
                        .filter(move |&&v| u < v)
                        .map(move |&v| format!("{u} {v}\n"))
                })
                .collect::<String>()
        };
        std::fs::write(&graph, edges(1)).expect("graph");
        let supervisor = Supervisor::start(SupervisorConfig {
            workers: 1,
            ..SupervisorConfig::default()
        })
        .expect("start");
        let spec = |extra: &str| {
            format!(
                "{{\"graph\": {{\"edge_list\": \"{}\"}}, \"app\": \"3-cf\"{extra}}}",
                graph.display()
            )
        };
        let base = spec("");
        let slots = spec(", \"config\": {\"slots\": 8}");
        let metrics = spec(", \"metrics\": true");
        // Each step: the spec, and (report_hits, reports) after it.
        let steps = [
            (&base, (0, 1)),
            (&base, (1, 1)),
            (&slots, (1, 2)),
            (&metrics, (1, 3)),
            (&metrics, (2, 3)),
            (&base, (3, 3)),
        ];
        let check = |text: &str, want: (u64, u64)| {
            let rec = submit_json(&supervisor, text).expect("submit");
            let rec = wait(&supervisor, rec.id);
            assert_eq!(rec.status, JobStatus::Completed, "{text}");
            assert_eq!(session_stats(&supervisor), want, "{text}");
            // Every report equals a fresh in-process run of its spec.
            let spec = JobSpec::from_json(&JsonValue::parse(text).expect("json")).expect("spec");
            let bytes = std::fs::read(&graph).expect("graph");
            let g = io::read_edge_list(&bytes[..]).expect("parse");
            let pre = gramer::preprocess(&g, &spec.config).expect("preprocess");
            let window = spec
                .metrics
                .then(|| TelemetryConfig::default().window_cycles);
            let (report, tel) =
                run_app_spec(&spec.app, &pre, spec.config.clone(), window).expect("run");
            assert_eq!(rec.report_json, Some(report.to_json_value()), "{text}");
            assert_eq!(rec.metrics_json, tel.map(|t| t.to_json_value()), "{text}");
        };
        for (text, want) in steps {
            check(text, want);
        }
        // The same path with other bytes is another graph: a miss.
        std::fs::write(&graph, edges(2)).expect("rewrite graph");
        check(&base, (3, 4));
        supervisor.shutdown_and_join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
