//! The daemon's accept loop and HTTP routing.
//!
//! Endpoints (one request per connection, `Connection: close`):
//!
//! | Method | Path                 | Meaning                                   |
//! |--------|----------------------|-------------------------------------------|
//! | GET    | `/healthz`           | liveness probe                            |
//! | GET    | `/stats`             | supervisor + session-cache counters       |
//! | POST   | `/jobs`              | submit a job (JSON [`crate::job::JobSpec`])|
//! | GET    | `/jobs`              | summaries of every job                    |
//! | GET    | `/jobs/<id>`         | one job's summary                         |
//! | GET    | `/jobs/<id>/report`  | the full `RunReport` JSON                 |
//! | GET    | `/jobs/<id>/metrics` | the telemetry rollup JSON                 |
//! | POST   | `/shutdown`          | begin graceful drain                      |
//!
//! Admission maps to status codes: `202` queued, `422` recorded but
//! rejected (over budget), `400` malformed, `429` queue full, `503`
//! draining. `/jobs/<id>/report` bodies are the exact
//! `RunReport::to_json_value().to_string_pretty()` serialization (plus
//! trailing newline) that `gramer-mine --json` writes, so byte-level
//! comparison between served and CLI-produced reports is meaningful —
//! the tier-1 serve stage diffs them.
//!
//! Connections are taken by a pool of acceptor threads. Each blocks in
//! `accept` and handles the connection it takes itself, so an idle
//! daemon costs nothing, a new connection is taken at once, and a
//! request starts no thread. The acceptor that takes the last idle slot
//! starts one more, so the pool grows to the peak number of concurrent
//! connections plus one (at most `max_connections + 1`) and then stays.
//! A drain request (a signal handler's [`ServerShutdown::request`] or
//! `POST /shutdown`) wakes one acceptor by connecting to the bound
//! address, or to loopback when that address is unspecified; each
//! acceptor that leaves wakes the next the same way.
//!
//! Fault containment at this layer: each connection is handled under
//! the shared panic quarantine (a handler bug returns `500`, and the
//! acceptor keeps serving); a slow or stuck client holds only its own
//! acceptor and is bounded by socket read/write timeouts; concurrent
//! connections are capped (excess get `503`); and request heads and
//! bodies are size-capped by [`crate::http`].

use crate::http::{self, HttpError, Request, Response};
use crate::job::JobStatus;
use crate::supervisor::{SubmitError, Supervisor, SupervisorConfig};
use gramer::json::JsonValue;
use gramer::supervise;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server-layer knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Maximum concurrently handled connections; excess get `503`.
    pub max_connections: usize,
    /// Socket read/write timeout per connection.
    pub io_timeout: Duration,
    /// The supervisor beneath the server.
    pub supervisor: SupervisorConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_body_bytes: 4 << 20,
            max_connections: 32,
            io_timeout: Duration::from_secs(10),
            supervisor: SupervisorConfig::default(),
        }
    }
}

struct ServerShared {
    supervisor: Supervisor,
    shutdown: AtomicBool,
    /// Where a drain request connects to wake an acceptor.
    wake_addr: SocketAddr,
    active: AtomicUsize,
    /// Acceptors blocked in `accept`.
    idle: AtomicUsize,
    /// Acceptors started beyond the one [`Server::run`] runs on.
    acceptors: Mutex<Vec<JoinHandle<()>>>,
    /// The listener failure that ended [`Server::run`], if any.
    failure: Mutex<Option<io::Error>>,
    max_body_bytes: usize,
    max_connections: usize,
    io_timeout: Duration,
}

/// A bound (but not yet running) daemon.
pub struct Server {
    listener: TcpListener,
    shared: Arc<ServerShared>,
}

impl Server {
    /// Binds the listener and starts the supervisor (replaying its
    /// journal if configured).
    ///
    /// # Errors
    ///
    /// Bind failures and journal-read failures.
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let supervisor = Supervisor::start(cfg.supervisor)?;
        Ok(Server {
            listener,
            shared: Arc::new(ServerShared {
                supervisor,
                shutdown: AtomicBool::new(false),
                wake_addr,
                active: AtomicUsize::new(0),
                idle: AtomicUsize::new(0),
                acceptors: Mutex::new(Vec::new()),
                failure: Mutex::new(None),
                max_body_bytes: cfg.max_body_bytes,
                max_connections: cfg.max_connections,
                io_timeout: cfg.io_timeout,
            }),
        })
    }

    /// The bound address (useful with an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle external code (the SIGTERM handler) may use to begin a
    /// graceful drain; it wakes [`Server::run`] at once.
    pub fn shutdown_handle(&self) -> Arc<ServerShutdown> {
        Arc::new(ServerShutdown {
            shared: Arc::clone(&self.shared),
        })
    }

    /// Serves until shutdown is requested (via [`ServerShutdown`] or
    /// `POST /shutdown`), then drains: stops accepting, waits for open
    /// connections, finishes in-flight jobs, flushes the journal.
    ///
    /// # Errors
    ///
    /// Only unrecoverable listener failures; per-connection errors are
    /// contained and answered (or dropped) per connection.
    pub fn run(self) -> io::Result<()> {
        // Shared by the acceptors only, so the port closes once they are
        // done, however long a `ServerShutdown` handle lives.
        let listener = Arc::new(self.listener);
        let shared = self.shared;
        accept_loop(&listener, &shared);
        // Drain: the other acceptors leave as the wake passes along,
        // each after finishing its open connection (bounded by the io
        // timeout); then stop the workers and flush the journal. An
        // acceptor still held by a stuck client is left to its timeout.
        let acceptors = std::mem::take(&mut *lock(&shared.acceptors));
        let drain_deadline = Instant::now() + shared.io_timeout;
        while acceptors.iter().any(|a| !a.is_finished()) && Instant::now() < drain_deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        for acceptor in acceptors.into_iter().filter(JoinHandle::is_finished) {
            let _ = acceptor.join();
        }
        shared.supervisor.shutdown_and_join();
        let failure = lock(&shared.failure).take();
        failure.map_or(Ok(()), Err)
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One acceptor: takes connections and handles each on this thread
/// until a drain request (or a listener failure) reaches it, then wakes
/// the next acceptor.
fn accept_loop(listener: &Arc<TcpListener>, shared: &Arc<ServerShared>) {
    loop {
        shared.idle.fetch_add(1, Ordering::SeqCst);
        let accepted = listener.accept();
        let still_idle = shared.idle.fetch_sub(1, Ordering::SeqCst) - 1;
        let mut stream = match accepted {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                lock(&shared.failure).get_or_insert(e);
                shared.shutdown.store(true, Ordering::SeqCst);
                break;
            }
        };
        // A drain request sets the flag before it connects, so the
        // connection that wakes an acceptor always finds it set.
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Keep an acceptor waiting while this one is busy.
        if still_idle == 0 {
            spawn_acceptor(listener, shared);
        }
        if shared.active.fetch_add(1, Ordering::Relaxed) >= shared.max_connections {
            let _ = Response::error(503, "overloaded", "too many concurrent connections")
                .write_to(&mut stream);
        } else {
            // `route` runs quarantined; this also keeps a bug in the
            // request reading or writing from ending the acceptor.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handle_connection(shared, stream)
            }));
        }
        shared.active.fetch_sub(1, Ordering::Relaxed);
    }
    let _ = TcpStream::connect_timeout(&shared.wake_addr, shared.io_timeout);
}

/// Starts one more acceptor, unless the pool is full or draining.
fn spawn_acceptor(listener: &Arc<TcpListener>, shared: &Arc<ServerShared>) {
    let mut acceptors = lock(&shared.acceptors);
    // The drain takes this lock after setting the flag, so it never
    // misses an acceptor started here.
    if acceptors.len() >= shared.max_connections || shared.shutdown.load(Ordering::SeqCst) {
        return;
    }
    let (listener, shared) = (Arc::clone(listener), Arc::clone(shared));
    if let Ok(acceptor) = std::thread::Builder::new()
        .name("gramer-serve-http".to_string())
        .spawn(move || accept_loop(&listener, &shared))
    {
        acceptors.push(acceptor);
    }
}

/// Cloneable drain trigger for signal handlers and tests.
pub struct ServerShutdown {
    shared: Arc<ServerShared>,
}

impl ServerShutdown {
    /// Requests a graceful drain (idempotent) and wakes the accept loop.
    pub fn request(&self) {
        self.shared.request_shutdown();
    }
}

impl ServerShared {
    /// Sets the drain flag; the first request also connects to the
    /// listener to wake an acceptor, which sees the flag, drops that
    /// connection and wakes the next acceptor the same way.
    fn request_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.wake_addr, self.io_timeout);
        }
    }
}

fn handle_connection(shared: &ServerShared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.io_timeout));

    let request = match http::read_request(&mut stream, shared.max_body_bytes) {
        Ok(Some(request)) => request,
        Ok(None) => return,
        Err(HttpError::TooLarge(what)) => {
            let _ = Response::error(413, "too_large", &what).write_to(&mut stream);
            return;
        }
        Err(HttpError::Malformed(what)) => {
            let _ = Response::error(400, "malformed", &what).write_to(&mut stream);
            return;
        }
        Err(HttpError::Io(_)) => return,
    };

    // Quarantine the handler: a routing bug answers 500 and the daemon
    // keeps serving.
    let response = match supervise::run_quarantined(|| Ok(route(shared, &request))) {
        supervise::Outcome::Ok(response) => response,
        supervise::Outcome::Panicked(message) => Response::error(500, "panic", &message),
        supervise::Outcome::Err(_) | supervise::Outcome::Cancelled(_) => {
            Response::error(500, "internal", "handler aborted")
        }
    };
    let _ = response.write_to(&mut stream);
}

fn route(shared: &ServerShared, request: &Request) -> Response {
    let path = request.route_path();
    let segments: Vec<&str> = path.trim_matches('/').split('/').collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Response::json(
            200,
            &JsonValue::object([
                ("ok", JsonValue::Bool(true)),
                (
                    "shutting_down",
                    JsonValue::from(shared.shutdown.load(Ordering::Relaxed)),
                ),
            ]),
        ),
        ("GET", ["stats"]) => Response::json(200, &shared.supervisor.stats_json()),
        ("GET", ["jobs"]) => Response::json(200, &shared.supervisor.jobs_json()),
        ("POST", ["jobs"]) => submit(shared, request),
        ("GET", ["jobs", id]) => {
            with_job(shared, id, |rec| Response::json(200, &rec.summary_json()))
        }
        ("GET", ["jobs", id, "report"]) => with_job(shared, id, |rec| match &rec.report_json {
            Some(report) => Response::json_raw(200, report.to_string_pretty() + "\n"),
            None => Response::error(
                404,
                "no_report",
                &format!("job is {}, no report available", rec.status.as_str()),
            ),
        }),
        ("GET", ["jobs", id, "metrics"]) => with_job(shared, id, |rec| match &rec.metrics_json {
            Some(metrics) => Response::json_raw(200, metrics.to_string_pretty() + "\n"),
            None => Response::error(
                404,
                "no_metrics",
                "job did not record metrics (submit with \"metrics\": true)",
            ),
        }),
        ("POST", ["shutdown"]) => {
            shared.request_shutdown();
            Response::json(
                200,
                &JsonValue::object([("draining", JsonValue::Bool(true))]),
            )
        }
        ("GET" | "POST", _) => Response::error(404, "not_found", &format!("no route for {path}")),
        _ => Response::error(405, "method_not_allowed", &request.method),
    }
}

fn submit(shared: &ServerShared, request: &Request) -> Response {
    if shared.shutdown.load(Ordering::Relaxed) {
        return Response::error(503, "shutting_down", "daemon is draining");
    }
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Response::error(400, "malformed", "body is not UTF-8"),
    };
    let body = match JsonValue::parse(text) {
        Ok(body) => body,
        Err(e) => return Response::error(400, "malformed", &format!("bad JSON: {e}")),
    };
    match shared.supervisor.submit(&body) {
        Ok(rec) => {
            let status = if rec.status == JobStatus::Rejected {
                422
            } else {
                202
            };
            Response::json(status, &rec.summary_json())
        }
        Err(SubmitError::Invalid(message)) => Response::error(400, "invalid_spec", &message),
        Err(SubmitError::QueueFull) => {
            Response::error(429, "queue_full", "job queue is at capacity; retry later")
        }
        Err(SubmitError::ShuttingDown) => {
            Response::error(503, "shutting_down", "daemon is draining")
        }
    }
}

fn with_job(
    shared: &ServerShared,
    id: &str,
    f: impl FnOnce(&crate::job::JobRecord) -> Response,
) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return Response::error(400, "bad_id", "job id must be an integer");
    };
    match shared.supervisor.job(id) {
        Some(rec) => f(&rec),
        None => Response::error(404, "unknown_job", &format!("no job {id}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spawn_server(
        cfg: ServerConfig,
    ) -> (String, Arc<ServerShutdown>, std::thread::JoinHandle<()>) {
        let server = Server::bind(cfg).expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let shutdown = server.shutdown_handle();
        let handle = std::thread::spawn(move || server.run().expect("run"));
        (addr, shutdown, handle)
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let (addr, shutdown, handle) = spawn_server(ServerConfig {
            supervisor: SupervisorConfig {
                workers: 0,
                ..SupervisorConfig::default()
            },
            ..ServerConfig::default()
        });
        let (status, body) = http::request(&addr, "GET", "/healthz", None).expect("healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\": true"));
        let (status, _) = http::request(&addr, "GET", "/nope", None).expect("404");
        assert_eq!(status, 404);
        let (status, _) = http::request(&addr, "DELETE", "/jobs", None).expect("405");
        assert_eq!(status, 405);
        let (status, _) = http::request(&addr, "POST", "/jobs", Some("not json")).expect("400");
        assert_eq!(status, 400);
        shutdown.request();
        handle.join().expect("join");
    }

    #[test]
    fn submit_poll_report_lifecycle_over_http() {
        let (addr, shutdown, handle) = spawn_server(ServerConfig {
            supervisor: SupervisorConfig {
                workers: 1,
                ..SupervisorConfig::default()
            },
            ..ServerConfig::default()
        });
        let spec = "{\"graph\": {\"gen\": \"ba:120:3:5\"}, \"app\": \"3-cf\", \"metrics\": true}";
        let (status, body) = http::request(&addr, "POST", "/jobs", Some(spec)).expect("submit");
        assert_eq!(status, 202, "{body}");
        let id = JsonValue::parse(&body)
            .expect("json")
            .get("id")
            .and_then(JsonValue::as_u64)
            .expect("id");
        // Poll until terminal.
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        let final_status = loop {
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
                break s;
            }
            assert!(std::time::Instant::now() < deadline, "job stuck");
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(final_status, "completed");
        let (status, report) =
            http::request(&addr, "GET", &format!("/jobs/{id}/report"), None).expect("report");
        assert_eq!(status, 200);
        assert!(
            report.contains("\"schema\"") || report.contains("\"cycles\""),
            "{report}"
        );
        let (status, metrics) =
            http::request(&addr, "GET", &format!("/jobs/{id}/metrics"), None).expect("metrics");
        assert_eq!(status, 200, "{metrics}");
        shutdown.request();
        handle.join().expect("join");
    }

    #[test]
    fn shutdown_request_wakes_an_idle_accept_on_an_unspecified_address() {
        let (addr, shutdown, handle) = spawn_server(ServerConfig {
            addr: "0.0.0.0:0".to_string(),
            supervisor: SupervisorConfig {
                workers: 0,
                ..SupervisorConfig::default()
            },
            ..ServerConfig::default()
        });
        // One answered request proves the loop is up; afterwards no
        // connection is pending and the loop is blocked in `accept`.
        let port = addr.rsplit(':').next().expect("port");
        let (status, _) =
            http::request(&format!("127.0.0.1:{port}"), "GET", "/healthz", None).expect("healthz");
        assert_eq!(status, 200);
        let asked = std::time::Instant::now();
        shutdown.request();
        while !handle.is_finished() {
            assert!(
                asked.elapsed() < Duration::from_secs(2),
                "run() still blocked 2 s after the drain request"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        handle.join().expect("drained");
    }

    #[test]
    fn a_stalled_client_holds_only_its_own_acceptor() {
        let (addr, shutdown, handle) = spawn_server(ServerConfig {
            io_timeout: Duration::from_secs(2),
            supervisor: SupervisorConfig {
                workers: 0,
                ..SupervisorConfig::default()
            },
            ..ServerConfig::default()
        });
        // Connects and sends nothing: its acceptor waits in the read
        // until the io timeout.
        let mut stalled = TcpStream::connect(&addr).expect("connect");
        stalled
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        std::thread::sleep(Duration::from_millis(100));
        let asked = Instant::now();
        let (status, _) = http::request(&addr, "GET", "/healthz", None).expect("healthz");
        assert_eq!(status, 200);
        assert!(
            asked.elapsed() < Duration::from_secs(1),
            "a request waited for the stalled client"
        );
        shutdown.request();
        handle.join().expect("drained");
        // The drain let the stalled read time out, which closed it.
        let mut rest = Vec::new();
        std::io::Read::read_to_end(&mut stalled, &mut rest).expect("closed");
        assert!(rest.is_empty());
    }

    #[test]
    fn connections_over_the_cap_are_refused_by_the_spare_acceptor() {
        let (addr, shutdown, handle) = spawn_server(ServerConfig {
            max_connections: 1,
            io_timeout: Duration::from_secs(2),
            supervisor: SupervisorConfig {
                workers: 0,
                ..SupervisorConfig::default()
            },
            ..ServerConfig::default()
        });
        let stalled = TcpStream::connect(&addr).expect("connect");
        std::thread::sleep(Duration::from_millis(100));
        // The spare acceptor answers 503 without reading the request, so
        // the client may see a reset instead; either way it is not
        // served, and not kept waiting for the stalled client.
        let asked = Instant::now();
        let refused = http::request(&addr, "GET", "/healthz", None);
        assert!(
            matches!(&refused, Ok((503, _)) | Err(_)),
            "served over the cap: {refused:?}"
        );
        assert!(asked.elapsed() < Duration::from_secs(1));
        // Closing the stalled connection frees the slot.
        drop(stalled);
        let freed = Instant::now();
        while !matches!(http::request(&addr, "GET", "/healthz", None), Ok((200, _))) {
            assert!(
                freed.elapsed() < Duration::from_secs(2),
                "the slot was not freed"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        shutdown.request();
        handle.join().expect("drained");
    }

    #[test]
    fn post_shutdown_drains_gracefully() {
        let (addr, _shutdown, handle) = spawn_server(ServerConfig {
            supervisor: SupervisorConfig {
                workers: 0,
                ..SupervisorConfig::default()
            },
            ..ServerConfig::default()
        });
        let (status, _) = http::request(&addr, "POST", "/shutdown", None).expect("shutdown");
        assert_eq!(status, 200);
        handle.join().expect("drained");
        assert!(http::request(&addr, "GET", "/healthz", None).is_err());
    }
}
