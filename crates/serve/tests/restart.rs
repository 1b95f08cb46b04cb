//! Restart-recovery and concurrency acceptance tests: journal replay
//! across a crash restores terminal results byte-for-byte and re-runs
//! interrupted jobs exactly once; many simultaneous submitters get
//! deterministic admission and share one warm session-cache entry.

use gramer::json::JsonValue;
use gramer_serve::http;
use gramer_serve::job::run_app_spec;
use gramer_serve::server::{Server, ServerConfig};
use gramer_serve::supervisor::{Supervisor, SupervisorConfig};
use gramer_serve::{JobJournal, JobRecord, JobStatus};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn spawn(
    cfg: ServerConfig,
) -> (
    String,
    Arc<gramer_serve::server::ServerShutdown>,
    std::thread::JoinHandle<()>,
) {
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run().expect("run"));
    (addr, shutdown, handle)
}

fn wait_terminal(addr: &str, id: u64, timeout: Duration) -> JsonValue {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, body) =
            http::request(addr, "GET", &format!("/jobs/{id}"), None).expect("poll");
        assert_eq!(status, 200);
        let doc = JsonValue::parse(&body).expect("json");
        let s = doc
            .get("status")
            .and_then(JsonValue::as_str)
            .expect("status");
        if s != "queued" && s != "running" {
            return doc;
        }
        assert!(Instant::now() < deadline, "job {id} stuck");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn crash_mid_queue_then_restart_loses_and_duplicates_nothing() {
    let dir = std::env::temp_dir().join(format!("gramer-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal_path = dir.join("jobs.jsonl");
    let spec = "{\"graph\": {\"gen\": \"ba:120:3:5\"}, \"app\": \"3-cf\"}";

    // Generation 1 (HTTP): complete one job, drain cleanly.
    let (addr, _s, handle) = spawn(ServerConfig {
        supervisor: SupervisorConfig {
            workers: 1,
            journal_path: Some(journal_path.clone()),
            ..SupervisorConfig::default()
        },
        ..ServerConfig::default()
    });
    let (status, body) = http::request(&addr, "POST", "/jobs", Some(spec)).expect("submit");
    assert_eq!(status, 202);
    let completed_id = JsonValue::parse(&body)
        .expect("json")
        .get("id")
        .and_then(JsonValue::as_u64)
        .expect("id");
    let done = wait_terminal(&addr, completed_id, Duration::from_secs(60));
    assert_eq!(field(&done, &["status"]), Some("completed"));
    let (code, report_before) =
        http::request(&addr, "GET", &format!("/jobs/{completed_id}/report"), None).expect("report");
    assert_eq!(code, 200);
    let (code, _) = http::request(&addr, "POST", "/shutdown", None).expect("shutdown");
    assert_eq!(code, 200);
    handle.join().expect("drained");

    // Generation 2: queue two jobs with no workers, then *crash* — drop
    // the supervisor without any shutdown. The journal already has the
    // queued snapshots from admission.
    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 0,
        journal_path: Some(journal_path.clone()),
        ..SupervisorConfig::default()
    })
    .expect("start gen2");
    let spec_json = JsonValue::parse(spec).expect("json");
    let queued_a = supervisor.submit(&spec_json).expect("queue a").id;
    let queued_b = supervisor.submit(&spec_json).expect("queue b").id;
    drop(supervisor); // simulated crash: no drain, no final flush

    // Generation 3 (HTTP): replay must restore the completed result
    // byte-for-byte without re-running it, and run each interrupted job
    // exactly once.
    let (addr, shutdown, handle) = spawn(ServerConfig {
        supervisor: SupervisorConfig {
            workers: 1,
            journal_path: Some(journal_path.clone()),
            ..SupervisorConfig::default()
        },
        ..ServerConfig::default()
    });
    let restored = wait_terminal(&addr, completed_id, Duration::from_secs(5));
    assert_eq!(field(&restored, &["status"]), Some("completed"));
    let (code, report_after) =
        http::request(&addr, "GET", &format!("/jobs/{completed_id}/report"), None).expect("report");
    assert_eq!(code, 200);
    assert_eq!(
        report_after, report_before,
        "completed results must survive crash + restart byte-for-byte"
    );
    for id in [queued_a, queued_b] {
        let done = wait_terminal(&addr, id, Duration::from_secs(60));
        assert_eq!(
            field(&done, &["status"]),
            Some("completed"),
            "interrupted job {id} must be re-run to completion: {done}"
        );
    }
    // Two runs in this generation: the restored job did not run again,
    // and each interrupted job ran exactly once.
    assert_eq!(stat(&addr, "completed"), 2);
    // No duplicated or phantom jobs: exactly the three we submitted.
    let (_, jobs) = http::request(&addr, "GET", "/jobs", None).expect("jobs");
    let jobs = JsonValue::parse(&jobs).expect("json");
    let JsonValue::Array(list) = jobs else {
        panic!("expected array")
    };
    let mut listed: Vec<u64> = list
        .iter()
        .map(|j| j.get("id").and_then(JsonValue::as_u64).expect("id"))
        .collect();
    listed.sort_unstable();
    assert_eq!(listed, vec![completed_id, queued_a, queued_b]);

    shutdown.request();
    handle.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeds a fresh journal with `records` followed by the raw bytes
/// `tail`, then starts a one-worker daemon over it. Returns the temp dir
/// too.
fn restart_over(
    tag: &str,
    records: &[&JobRecord],
    tail: &[u8],
) -> (
    std::path::PathBuf,
    String,
    Arc<gramer_serve::server::ServerShutdown>,
    std::thread::JoinHandle<()>,
) {
    let dir = std::env::temp_dir().join(format!("gramer-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal_path = dir.join("jobs.jsonl");
    JobJournal::new(&journal_path)
        .write_snapshot(records.iter().copied())
        .expect("seed journal");
    let mut bytes = std::fs::read(&journal_path).expect("read journal");
    bytes.extend_from_slice(tail);
    std::fs::write(&journal_path, bytes).expect("write journal");
    let (addr, shutdown, handle) = spawn(ServerConfig {
        supervisor: SupervisorConfig {
            workers: 1,
            journal_path: Some(journal_path),
            ..SupervisorConfig::default()
        },
        ..ServerConfig::default()
    });
    (dir, addr, shutdown, handle)
}

fn field<'a>(doc: &'a JsonValue, path: &[&str]) -> Option<&'a str> {
    path.iter()
        .try_fold(doc, |v, key| v.get(key))
        .and_then(JsonValue::as_str)
}

/// Starts a daemon over a journal holding one job with the knob
/// overrides `config` in state `status`, as a daemon that admitted it
/// would have written it. On restart the job must end `failed` with kind
/// `invalid` instead of running; a fresh submission of the same spec is
/// a typed 400; the daemon keeps answering throughout.
fn refused_at_admission_and_on_replay(tag: &str, config: &str, status: JobStatus) {
    let spec = format!(
        "{{\"graph\": {{\"gen\": \"ba:120:3:5\"}}, \"app\": \"3-cf\", \"config\": {config}}}"
    );
    let record = JobRecord::new(1, JsonValue::parse(&spec).expect("json"), status);
    let (dir, addr, shutdown, handle) = restart_over(tag, &[&record], b"");
    let done = wait_terminal(&addr, 1, Duration::from_secs(60));
    assert_eq!(field(&done, &["status"]), Some("failed"), "{done}");
    assert_eq!(field(&done, &["error", "kind"]), Some("invalid"), "{done}");
    let (code, _) = http::request(&addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(code, 200);

    let (code, body) = http::request(&addr, "POST", "/jobs", Some(&spec)).expect("submit");
    assert_eq!(code, 400, "{body}");
    assert!(body.contains("invalid_spec"), "{body}");
    let (code, _) = http::request(&addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(code, 200);

    shutdown.request();
    handle.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A PU x slot product the simulator cannot allocate, journaled as
/// `running`.
#[test]
fn oversized_slot_config_is_refused_at_admission_and_on_replay() {
    refused_at_admission_and_on_replay(
        "slots",
        "{\"pus\": 100000, \"slots\": 100000}",
        JobStatus::Running,
    );
}

/// `sim_threads` is not a knob (no knob sets a thread count), journaled
/// as `queued`.
#[test]
fn sim_threads_knob_is_refused_at_admission_and_on_replay() {
    refused_at_admission_and_on_replay("threads", "{\"sim_threads\": 4}", JobStatus::Queued);
}

/// `access_path` is not a knob (the exact path is the fast lanes' test
/// oracle, not a served choice), journaled as `queued`.
#[test]
fn access_path_knob_is_refused_at_admission_and_on_replay() {
    refused_at_admission_and_on_replay(
        "access-path",
        "{\"access_path\": \"exact\"}",
        JobStatus::Queued,
    );
}

/// A journal line that is not UTF-8 (disk corruption, a hand edit) is
/// skipped on replay: the daemon starts and restores the valid record.
#[test]
fn restart_over_a_non_utf8_journal_line_restores_the_valid_records() {
    let spec = "{\"graph\": {\"gen\": \"ba:120:3:5\"}, \"app\": \"3-cf\"}";
    let record = completed_record(spec);
    let (dir, addr, shutdown, handle) = restart_over("utf8", &[&record], b"\xff\xfe\n");
    let restored = wait_terminal(&addr, 1, Duration::from_secs(5));
    assert_eq!(
        field(&restored, &["status"]),
        Some("completed"),
        "{restored}"
    );
    let (code, report) = http::request(&addr, "GET", "/jobs/1/report", None).expect("report");
    assert_eq!(code, 200);
    assert_eq!(JsonValue::parse(&report).ok(), record.report_json);

    shutdown.request();
    handle.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

fn submit(addr: &str, spec: &str) -> u64 {
    let (status, body) = http::request(addr, "POST", "/jobs", Some(spec)).expect("submit");
    assert_eq!(status, 202, "{body}");
    JsonValue::parse(&body)
        .expect("json")
        .get("id")
        .and_then(JsonValue::as_u64)
        .expect("id")
}

fn stat(addr: &str, key: &str) -> u64 {
    let (_, stats) = http::request(addr, "GET", "/stats", None).expect("stats");
    JsonValue::parse(&stats)
        .expect("json")
        .get(key)
        .and_then(JsonValue::as_u64)
        .expect("counter")
}

fn completed_record(spec: &str) -> JobRecord {
    let mut record = JobRecord::new(
        1,
        JsonValue::parse(spec).expect("json"),
        JobStatus::Completed,
    );
    record.report_json = Some(JsonValue::parse("{\"cycles\": 42}").expect("json"));
    record
}

/// A line written when the daemon still retried jobs carries an
/// `attempts` count and, in its spec, a `max_retries` budget. It replays
/// like any other line, and its report is served byte-identically to a
/// direct run's.
#[test]
fn a_line_with_attempts_and_max_retries_restores_and_serves_its_report() {
    let graph = gramer_graph::generate::named("ba:120:3:5").expect("generator");
    let config = gramer::GramerConfig::default();
    let pre = gramer::preprocess(&graph, &config).expect("preprocess");
    let (report, _) = run_app_spec("3-cf", &pre, config, None).expect("run");
    let line = format!(
        "{{\"id\":1,\"status\":\"completed\",\"attempts\":1,\"error\":null,\
         \"cache_hit\":false,\"spec\":{{\"graph\":{{\"gen\":\"ba:120:3:5\"}},\
         \"app\":\"3-cf\",\"max_retries\":2}},\"report\":{},\"metrics\":null}}\n",
        report.to_json_value()
    );
    let (dir, addr, shutdown, handle) = restart_over("parent-format", &[], line.as_bytes());
    let restored = wait_terminal(&addr, 1, Duration::from_secs(5));
    assert_eq!(
        field(&restored, &["status"]),
        Some("completed"),
        "{restored}"
    );
    let (code, served) = http::request(&addr, "GET", "/jobs/1/report", None).expect("report");
    assert_eq!(code, 200);
    assert_eq!(served, report.to_json_value().to_string_pretty() + "\n");
    assert_eq!(stat(&addr, "completed"), 0, "the restored job ran again");

    shutdown.request();
    handle.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash mid-append leaves a last line without its newline. Appends
/// after the restart must not be glued onto it: the journal as a crash
/// would leave it now (read while the daemon runs, before any drain
/// snapshot) replays to both jobs with no line skipped.
#[test]
fn appends_after_a_torn_tail_stay_readable() {
    let spec = "{\"graph\": {\"gen\": \"ba:120:3:5\"}, \"app\": \"3-cf\"}";
    let (dir, addr, shutdown, handle) = restart_over(
        "torn-tail",
        &[&completed_record(spec)],
        b"{\"id\": 2, \"status\": \"que",
    );
    let id = submit(&addr, spec);
    assert_eq!(id, 2, "the torn line never admitted job 2");
    let done = wait_terminal(&addr, id, Duration::from_secs(60));
    assert_eq!(field(&done, &["status"]), Some("completed"), "{done}");

    let replay = JobJournal::new(dir.join("jobs.jsonl"))
        .replay()
        .expect("replay");
    assert_eq!(replay.skipped_lines, 0);
    let ids: Vec<u64> = replay.records.iter().map(|rec| rec.id).collect();
    assert_eq!(ids, [1, 2]);
    assert_eq!(replay.records[1].status, JobStatus::Completed);

    shutdown.request();
    handle.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal path that turns into a directory makes writes fail: the
/// failures are counted and jobs keep running. Once a file is back at
/// the path, even one ending in a partial line as a failed append
/// leaves it, the next transition writes a snapshot of every record.
#[test]
fn a_failing_journal_degrades_then_recovers_with_a_snapshot() {
    let spec = "{\"graph\": {\"gen\": \"ba:120:3:5\"}, \"app\": \"3-cf\"}";
    let (dir, addr, shutdown, handle) = restart_over("blocked", &[&completed_record(spec)], b"");
    let journal = JobJournal::new(dir.join("jobs.jsonl"));
    std::fs::remove_file(journal.path()).expect("remove journal");
    std::fs::create_dir(journal.path()).expect("directory in its place");

    let during = submit(&addr, spec);
    let done = wait_terminal(&addr, during, Duration::from_secs(60));
    assert_eq!(field(&done, &["status"]), Some("completed"), "{done}");
    assert!(stat(&addr, "journal_errors") >= 1);
    let (code, _) = http::request(&addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(code, 200);

    std::fs::remove_dir(journal.path()).expect("free the path");
    std::fs::write(journal.path(), b"{\"id\": 9").expect("partial line");
    let snapshots = stat(&addr, "journal_snapshots");
    let after = submit(&addr, spec);
    assert_eq!(stat(&addr, "journal_snapshots"), snapshots + 1);
    let replay = journal.replay().expect("replay");
    assert_eq!(replay.skipped_lines, 0);
    let ids: Vec<u64> = replay.records.iter().map(|rec| rec.id).collect();
    assert_eq!(ids, [1, during, after]);
    assert_eq!(replay.records[1].status, JobStatus::Completed);
    let (code, report) =
        http::request(&addr, "GET", &format!("/jobs/{during}/report"), None).expect("report");
    assert_eq!(code, 200);
    assert_eq!(
        JsonValue::parse(&report).ok(),
        replay.records[1].report_json
    );

    shutdown.request();
    handle.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eight_concurrent_submitters_get_deterministic_admission_and_share_the_session_cache() {
    const CLIENTS: usize = 8;
    const JOBS_PER_CLIENT: usize = 3;

    let (addr, shutdown, handle) = spawn(ServerConfig {
        supervisor: SupervisorConfig {
            workers: 4,
            queue_capacity: CLIENTS * JOBS_PER_CLIENT + 4,
            ..SupervisorConfig::default()
        },
        ..ServerConfig::default()
    });

    // All clients submit the same (graph, preprocessing-knob) workload,
    // so the session cache can only ever build it once.
    let spec = "{\"graph\": {\"gen\": \"ba:200:3:11\"}, \"app\": \"3-cf\"}";
    let submitters: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut ids = Vec::new();
                for _ in 0..JOBS_PER_CLIENT {
                    let (status, body) =
                        http::request(&addr, "POST", "/jobs", Some(spec)).expect("submit");
                    assert_eq!(status, 202, "{body}");
                    ids.push(
                        JsonValue::parse(&body)
                            .expect("json")
                            .get("id")
                            .and_then(JsonValue::as_u64)
                            .expect("id"),
                    );
                }
                ids
            })
        })
        .collect();
    let mut all_ids: Vec<u64> = submitters
        .into_iter()
        .flat_map(|t| t.join().expect("submitter"))
        .collect();

    // Deterministic admission: every submission accepted, ids unique
    // and exactly the contiguous range the supervisor allocated.
    all_ids.sort_unstable();
    let expected: Vec<u64> = (1..=(CLIENTS * JOBS_PER_CLIENT) as u64).collect();
    assert_eq!(
        all_ids, expected,
        "admission must assign each job a unique id"
    );

    for id in &all_ids {
        let done = wait_terminal(&addr, *id, Duration::from_secs(120));
        assert_eq!(field(&done, &["status"]), Some("completed"), "{done}");
    }

    // Warm-hit accounting: one build, everyone else hits. Concurrent
    // first-builders may race (each counted as a miss), but evictions
    // are impossible here, so hits + misses == jobs and misses stays
    // far below the job count while at least one miss must exist.
    let (_, stats) = http::request(&addr, "GET", "/stats", None).expect("stats");
    let stats = JsonValue::parse(&stats).expect("json");
    let cache = stats.get("session_cache").expect("session_cache");
    let hits = cache.get("hits").and_then(JsonValue::as_u64).expect("hits");
    let misses = cache
        .get("misses")
        .and_then(JsonValue::as_u64)
        .expect("misses");
    let jobs = (CLIENTS * JOBS_PER_CLIENT) as u64;
    assert_eq!(hits + misses, jobs);
    assert!(misses >= 1);
    assert!(
        misses <= 4, // at most the worker-pool width can race the first build
        "expected nearly every job to reuse the warm entry; misses = {misses}"
    );
    assert!(hits >= jobs - 4, "hits = {hits}");
    assert_eq!(cache.get("evictions").and_then(JsonValue::as_u64), Some(0));

    shutdown.request();
    handle.join().expect("join");
}
