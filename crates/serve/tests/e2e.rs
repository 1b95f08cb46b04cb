//! End-to-end acceptance tests for the daemon: byte-identical served
//! reports, panic containment, hostile request bodies, queue-full
//! back-pressure, and graceful shutdown with an intact journal.

use gramer::json::JsonValue;
use gramer_serve::http;
use gramer_serve::job::run_app_spec;
use gramer_serve::journal::JobJournal;
use gramer_serve::server::{Server, ServerConfig};
use gramer_serve::supervisor::SupervisorConfig;
use gramer_serve::ChaosConfig;
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

fn submit(addr: &str, spec: &str) -> (u16, JsonValue) {
    let (status, body) = http::request(addr, "POST", "/jobs", Some(spec)).expect("submit");
    (status, JsonValue::parse(&body).expect("json response"))
}

fn wait_terminal(addr: &str, id: u64, timeout: Duration) -> JsonValue {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, body) =
            http::request(addr, "GET", &format!("/jobs/{id}"), None).expect("poll");
        assert_eq!(status, 200, "{body}");
        let doc = JsonValue::parse(&body).expect("json");
        let s = doc
            .get("status")
            .and_then(JsonValue::as_str)
            .expect("status");
        if s != "queued" && s != "running" {
            return doc;
        }
        assert!(Instant::now() < deadline, "job {id} stuck in {s}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The exact bytes the CLI (`gramer-mine --json`) would produce for a
/// generated workload: same pipeline, same serializer.
fn direct_report_bytes(gen_spec: &str, app: &str) -> String {
    let graph = gramer_graph::generate::named(gen_spec).expect("generator");
    let config = gramer::GramerConfig::default();
    let pre = gramer::preprocess(&graph, &config).expect("preprocess");
    let (report, _) = run_app_spec(app, &pre, config, None).expect("run");
    report.to_json_value().to_string_pretty() + "\n"
}

#[test]
fn served_reports_are_byte_identical_to_direct_runs() {
    // The two golden workloads of the artifact stage: golden-ba under
    // 4-clique finding, golden-rmat under 3-motif counting; then
    // golden-ba again, answered from its stored output.
    let (addr, shutdown, handle) = spawn(ServerConfig {
        supervisor: SupervisorConfig {
            workers: 2,
            ..SupervisorConfig::default()
        },
        ..ServerConfig::default()
    });
    for (gen_spec, app) in [
        ("golden-ba", "4-cf"),
        ("golden-rmat", "3-mc"),
        ("golden-ba", "4-cf"),
    ] {
        let spec = format!("{{\"graph\": {{\"gen\": \"{gen_spec}\"}}, \"app\": \"{app}\"}}");
        let (status, doc) = submit(&addr, &spec);
        assert_eq!(status, 202);
        let id = doc.get("id").and_then(JsonValue::as_u64).expect("id");
        let done = wait_terminal(&addr, id, Duration::from_secs(120));
        assert_eq!(
            done.get("status").and_then(JsonValue::as_str),
            Some("completed"),
            "{done}"
        );
        let (status, served) =
            http::request(&addr, "GET", &format!("/jobs/{id}/report"), None).expect("report");
        assert_eq!(status, 200);
        assert_eq!(
            served,
            direct_report_bytes(gen_spec, app),
            "served report for {gen_spec}/{app} must be byte-identical to a direct run"
        );
    }
    let (_, stats) = http::request(&addr, "GET", "/stats", None).expect("stats");
    let stats = JsonValue::parse(&stats).expect("json");
    let cache = stats.get("session_cache").expect("session_cache");
    assert_eq!(
        cache.get("report_hits").and_then(JsonValue::as_u64),
        Some(1)
    );
    assert_eq!(cache.get("reports").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(stats.get("completed").and_then(JsonValue::as_u64), Some(3));
    shutdown.request();
    handle.join().expect("join");
}

#[test]
fn injected_panic_is_contained_and_daemon_stays_up() {
    let (addr, shutdown, handle) = spawn(ServerConfig {
        supervisor: SupervisorConfig {
            workers: 1,
            chaos: ChaosConfig::parse("panic=1000,seed=1").expect("chaos"),
            ..SupervisorConfig::default()
        },
        ..ServerConfig::default()
    });
    let (status, doc) = submit(
        &addr,
        "{\"graph\": {\"gen\": \"ba:120:3:5\"}, \"app\": \"3-cf\"}",
    );
    assert_eq!(status, 202);
    let id = doc.get("id").and_then(JsonValue::as_u64).expect("id");
    let done = wait_terminal(&addr, id, Duration::from_secs(60));
    assert_eq!(
        done.get("status").and_then(JsonValue::as_str),
        Some("panicked")
    );
    let error = done.get("error").expect("typed error");
    assert_eq!(error.get("kind").and_then(JsonValue::as_str), Some("panic"));
    // The daemon survived the panic.
    let (status, body) = http::request(&addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\": true"));
    shutdown.request();
    handle.join().expect("join");
}

fn error_kind(doc: &JsonValue) -> Option<&str> {
    doc.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(JsonValue::as_str)
}

/// A spec the simulator cannot run and a body nested past the JSON depth
/// limit (4 MiB of `[`, the whole body budget) are typed 400s, and the
/// daemon keeps answering.
#[test]
fn hostile_submissions_are_typed_400s_and_daemon_stays_up() {
    let (addr, shutdown, handle) = spawn(ServerConfig {
        supervisor: SupervisorConfig {
            workers: 0,
            ..SupervisorConfig::default()
        },
        ..ServerConfig::default()
    });
    let unrunnable = "{\"graph\": {\"gen\": \"ba:120:3:5\"}, \"app\": \"99-cf\"}";
    for (body, kind) in [
        (unrunnable.to_string(), "invalid_spec"),
        ("[".repeat(4 << 20), "malformed"),
    ] {
        let (status, doc) = submit(&addr, &body);
        assert_eq!((status, error_kind(&doc)), (400, Some(kind)), "{doc}");
        let (status, _) = http::request(&addr, "GET", "/healthz", None).expect("healthz");
        assert_eq!(status, 200);
    }
    shutdown.request();
    handle.join().expect("join");
}

#[test]
fn full_queue_answers_typed_429() {
    let (addr, shutdown, handle) = spawn(ServerConfig {
        supervisor: SupervisorConfig {
            workers: 0, // nothing drains the queue
            queue_capacity: 2,
            ..SupervisorConfig::default()
        },
        ..ServerConfig::default()
    });
    let spec = "{\"graph\": {\"gen\": \"ba:120:3:5\"}, \"app\": \"3-cf\"}";
    for _ in 0..2 {
        let (status, _) = submit(&addr, spec);
        assert_eq!(status, 202);
    }
    let (status, doc) = submit(&addr, spec);
    assert_eq!(status, 429);
    assert_eq!(error_kind(&doc), Some("queue_full"));
    // Back-pressure is observable in /stats.
    let (_, stats) = http::request(&addr, "GET", "/stats", None).expect("stats");
    let stats = JsonValue::parse(&stats).expect("json");
    assert_eq!(
        stats
            .get("queue_full_rejections")
            .and_then(JsonValue::as_u64),
        Some(1)
    );
    shutdown.request();
    handle.join().expect("join");
}

#[test]
fn graceful_shutdown_leaves_the_journal_intact() {
    let dir = std::env::temp_dir().join(format!("gramer-e2e-shutdown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal_path = dir.join("jobs.jsonl");

    let (addr, _shutdown, handle) = spawn(ServerConfig {
        supervisor: SupervisorConfig {
            workers: 0, // submissions stay queued across the drain
            journal_path: Some(journal_path.clone()),
            ..SupervisorConfig::default()
        },
        ..ServerConfig::default()
    });
    let mut ids = Vec::new();
    for _ in 0..3 {
        let (status, doc) = submit(
            &addr,
            "{\"graph\": {\"gen\": \"ba:120:3:5\"}, \"app\": \"3-cf\"}",
        );
        assert_eq!(status, 202);
        ids.push(doc.get("id").and_then(JsonValue::as_u64).expect("id"));
    }
    let (status, _) = http::request(&addr, "POST", "/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    handle.join().expect("drained");

    // The journal survives the drain with every job still queued.
    let replay = JobJournal::new(&journal_path).replay().expect("replay");
    assert_eq!(replay.skipped_lines, 0, "journal must not be torn");
    assert_eq!(replay.records.len(), ids.len());
    let replayed: Vec<u64> = replay.records.iter().map(|r| r.id).collect();
    assert_eq!(replayed, ids);
    assert_eq!(replay.requeued, ids);
    let _ = std::fs::remove_dir_all(&dir);
}
