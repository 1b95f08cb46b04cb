//! Fault-injection acceptance suite: a seeded [`ChaosConfig`] across a
//! large batch of jobs must never take the daemon down, every faulted
//! job must end in a typed terminal state, and every successful job's
//! report must be byte-identical to a direct (CLI-equivalent) run.

use gramer::json::JsonValue;
use gramer_serve::http;
use gramer_serve::job::run_app_spec;
use gramer_serve::server::{Server, ServerConfig};
use gramer_serve::supervisor::SupervisorConfig;
use gramer_serve::ChaosConfig;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The workload matrix: small named generator graphs x applications.
const WORKLOADS: [(&str, &str); 3] = [
    ("ba:120:3:5", "3-cf"),
    ("ba:150:2:9", "3-mc"),
    ("rmat:7:500:13", "fsm:40"),
];

#[test]
fn fifty_plus_jobs_under_chaos_all_reach_typed_terminal_states() {
    const JOBS: usize = 54; // 18 per workload, >= 50 total

    let chaos = ChaosConfig::parse("panic=150,delay=150,delay-ms=10,seed=42").expect("chaos spec");
    let server = Server::bind(ServerConfig {
        supervisor: SupervisorConfig {
            workers: 4,
            queue_capacity: JOBS + 8,
            chaos,
            ..SupervisorConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run().expect("run"));

    // Expected bytes for each workload, computed once via the exact
    // pipeline + serializer the CLI uses.
    let expected: HashMap<&str, String> = WORKLOADS
        .iter()
        .map(|(gen_spec, app)| {
            let graph = gramer_graph::generate::named(gen_spec).expect("generator");
            let config = gramer::GramerConfig::default();
            let pre = gramer::preprocess(&graph, &config).expect("preprocess");
            let (report, _) = run_app_spec(app, &pre, config, None).expect("run");
            (*gen_spec, report.to_json_value().to_string_pretty() + "\n")
        })
        .collect();

    let mut ids: Vec<(u64, &str)> = Vec::new();
    for i in 0..JOBS {
        let (gen_spec, app) = WORKLOADS[i % WORKLOADS.len()];
        let spec = format!("{{\"graph\": {{\"gen\": \"{gen_spec}\"}}, \"app\": \"{app}\"}}");
        let (status, body) = http::request(&addr, "POST", "/jobs", Some(&spec)).expect("submit");
        assert_eq!(status, 202, "submission {i} refused: {body}");
        let id = JsonValue::parse(&body)
            .expect("json")
            .get("id")
            .and_then(JsonValue::as_u64)
            .expect("id");
        ids.push((id, gen_spec));
    }

    let deadline = Instant::now() + Duration::from_secs(300);
    let mut tally: HashMap<String, u32> = HashMap::new();
    for (id, gen_spec) in &ids {
        let doc = loop {
            let (status, body) =
                http::request(&addr, "GET", &format!("/jobs/{id}"), None).expect("poll");
            assert_eq!(status, 200);
            let doc = JsonValue::parse(&body).expect("json");
            let s = doc
                .get("status")
                .and_then(JsonValue::as_str)
                .expect("status")
                .to_string();
            if s != "queued" && s != "running" {
                break doc;
            }
            assert!(Instant::now() < deadline, "job {id} never became terminal");
            std::thread::sleep(Duration::from_millis(10));
        };
        let status = doc
            .get("status")
            .and_then(JsonValue::as_str)
            .expect("status");
        *tally.entry(status.to_string()).or_insert(0) += 1;
        match status {
            "completed" => {
                let (code, served) =
                    http::request(&addr, "GET", &format!("/jobs/{id}/report"), None)
                        .expect("report");
                assert_eq!(code, 200);
                assert_eq!(
                    &served, &expected[gen_spec],
                    "job {id} completed under chaos but its report differs from a clean run"
                );
            }
            "failed" | "panicked" | "timed_out" => {
                let error = doc.get("error").expect("typed error");
                let kind = error.get("kind").and_then(JsonValue::as_str).expect("kind");
                assert!(!kind.is_empty());
                if status == "panicked" {
                    assert_eq!(kind, "panic");
                }
            }
            other => panic!("job {id} ended in unexpected state {other:?}"),
        }
    }

    // The seeded rates (15% panic, 15% delay) must produce both
    // successes and failures — otherwise this test proves nothing.
    // Deterministic for seed=42: 14 panicked, 40 completed.
    assert!(
        tally.get("completed").copied().unwrap_or(0) >= 10,
        "tally: {tally:?}"
    );
    assert!(
        tally.get("panicked").copied().unwrap_or(0) >= 1,
        "tally: {tally:?}"
    );

    // The daemon itself never went down.
    let (status, body) = http::request(&addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\": true"));
    let (_, stats) = http::request(&addr, "GET", "/stats", None).expect("stats");
    let stats = JsonValue::parse(&stats).expect("json");
    assert_eq!(
        stats.get("submitted").and_then(JsonValue::as_u64),
        Some(JOBS as u64)
    );

    shutdown.request();
    handle.join().expect("join");
}
