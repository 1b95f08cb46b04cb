//! `gramer-serve` — run the GRAMER simulator as a fault-contained
//! HTTP service, or talk to a running daemon.
//!
//! Daemon mode:
//!
//! ```text
//! gramer-serve [--addr HOST:PORT] [--addr-file PATH] [--workers N]
//!              [--queue N] [--journal PATH] [--deadline SECS]
//!              [--max-steps N] [--max-graph-bytes N]
//!              [--session-cache-bytes N] [--chaos SPEC]
//! ```
//!
//! `--addr-file` writes the daemon's actual address (useful with port 0)
//! to PATH once the listener is bound — scripts wait for the file
//! instead of racing the bind. `--chaos` enables deterministic fault
//! injection (`panic=50,delay=200,delay-ms=25,seed=7`, rates per mille)
//! for robustness testing. SIGTERM (and SIGINT) trigger a graceful
//! drain: in-flight jobs finish, the journal is flushed, then the
//! process exits 0.
//!
//! Client mode (used by the tier-1 serve stage; no curl needed):
//!
//! ```text
//! gramer-serve client --addr HOST:PORT submit (--gen SPEC | --artifact PATH | --edge-list PATH)
//!                     --app APP [--config JSON] [--metrics] [--deadline SECS]
//!                     [--wait] [--out PATH]
//! gramer-serve client --addr HOST:PORT (status ID | report ID | metrics ID |
//!                     jobs | stats | healthz | shutdown)
//! ```
//!
//! `submit --wait` polls until the job is terminal, prints the final
//! summary, and exits non-zero unless the job completed. `report --out`
//! writes the body to a file (byte-identical to `gramer-mine --json`).

use gramer::json::JsonValue;
use gramer::progress;
use gramer_graph::artifact;
use gramer_serve::http;
use gramer_serve::server::{Server, ServerConfig};
use gramer_serve::ChaosConfig;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// SIGTERM/SIGINT registration. The only unsafe in the crate, confined
/// to the binary: `libc::signal` without libc, via the C ABI. The
/// handler only stores to a `static` atomic, which is async-signal-safe.
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN_REQUESTED.store(true, Ordering::Relaxed);
    }

    /// Installs the drain-on-SIGTERM/SIGINT handlers.
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  gramer-serve [--addr HOST:PORT] [--addr-file PATH] [--workers N] [--queue N]\n               [--journal PATH] [--deadline SECS] [--max-steps N]\n               [--max-graph-bytes N] [--session-cache-bytes N] [--chaos SPEC]\n  gramer-serve client --addr HOST:PORT <submit|status|report|metrics|jobs|stats|healthz|shutdown> ..."
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("client") {
        return client_main(&args[1..]);
    }
    daemon_main(&args)
}

fn parse_or_usage<T: std::str::FromStr>(value: &str, what: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("bad value for {what}: {value:?}");
        usage()
    })
}

fn daemon_main(args: &[String]) -> ExitCode {
    let mut cfg = ServerConfig::default();
    let mut addr_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--addr-file" => addr_file = Some(value("--addr-file")),
            "--workers" => {
                cfg.supervisor.workers = parse_or_usage(&value("--workers"), "--workers")
            }
            "--queue" => {
                cfg.supervisor.queue_capacity = parse_or_usage(&value("--queue"), "--queue")
            }
            "--journal" => cfg.supervisor.journal_path = Some(value("--journal").into()),
            "--deadline" => {
                let secs: f64 = parse_or_usage(&value("--deadline"), "--deadline");
                cfg.supervisor.default_deadline =
                    progress::budget_from_secs(secs).unwrap_or_else(|| {
                        eprintln!("--deadline expects positive seconds, got {secs}");
                        usage()
                    })
            }
            "--max-steps" => {
                cfg.supervisor.max_steps = parse_or_usage(&value("--max-steps"), "--max-steps")
            }
            "--max-graph-bytes" => {
                cfg.supervisor.max_graph_bytes =
                    parse_or_usage(&value("--max-graph-bytes"), "--max-graph-bytes")
            }
            "--session-cache-bytes" => {
                cfg.supervisor.session_cache_bytes =
                    parse_or_usage(&value("--session-cache-bytes"), "--session-cache-bytes")
            }
            "--chaos" => match ChaosConfig::parse(&value("--chaos")) {
                Ok(chaos) => cfg.supervisor.chaos = chaos,
                Err(e) => {
                    eprintln!("bad --chaos spec: {e}");
                    usage()
                }
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option: {other}");
                usage()
            }
        }
    }

    let server = match Server::bind(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("gramer-serve: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("gramer-serve: cannot read bound address: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &addr_file {
        // Atomic publish: scripts poll for the file, so it must never be
        // observed half-written.
        let write = artifact::replace_file(path.as_ref(), |w| writeln!(w, "{addr}"));
        if let Err(e) = write {
            eprintln!("gramer-serve: cannot write --addr-file {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!("gramer-serve: listening on {addr}");

    signals::install();
    let shutdown = server.shutdown_handle();
    let watcher = std::thread::spawn(move || {
        use std::sync::atomic::Ordering;
        while !signals::SHUTDOWN_REQUESTED.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(20));
        }
        eprintln!("gramer-serve: signal received, draining");
        shutdown.request();
    });

    let result = server.run();
    // The run loop only returns once drained; release the watcher if the
    // drain came from POST /shutdown rather than a signal.
    signals::SHUTDOWN_REQUESTED.store(true, std::sync::atomic::Ordering::Relaxed);
    let _ = watcher.join();
    match result {
        Ok(()) => {
            eprintln!("gramer-serve: drained, journal flushed, exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gramer-serve: server error: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// Client mode
// ---------------------------------------------------------------------

struct ClientArgs {
    addr: String,
    command: String,
    id: Option<u64>,
    gen: Option<String>,
    artifact: Option<String>,
    edge_list: Option<String>,
    app: String,
    config: Option<String>,
    metrics: bool,
    deadline: Option<f64>,
    wait: bool,
    out: Option<String>,
}

fn client_main(args: &[String]) -> ExitCode {
    let mut parsed = ClientArgs {
        addr: String::new(),
        command: String::new(),
        id: None,
        gen: None,
        artifact: None,
        edge_list: None,
        app: "3-cf".to_string(),
        config: None,
        metrics: false,
        deadline: None,
        wait: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => parsed.addr = value("--addr"),
            "--gen" => parsed.gen = Some(value("--gen")),
            "--artifact" => parsed.artifact = Some(value("--artifact")),
            "--edge-list" => parsed.edge_list = Some(value("--edge-list")),
            "--app" => parsed.app = value("--app"),
            "--config" => parsed.config = Some(value("--config")),
            "--metrics" => parsed.metrics = true,
            "--deadline" => {
                parsed.deadline = Some(parse_or_usage(&value("--deadline"), "--deadline"))
            }
            "--wait" => parsed.wait = true,
            "--out" => parsed.out = Some(value("--out")),
            "--help" | "-h" => usage(),
            other if parsed.command.is_empty() => parsed.command = other.to_string(),
            other if parsed.id.is_none() && !other.starts_with('-') => {
                parsed.id = Some(parse_or_usage(other, "job id"))
            }
            other => {
                eprintln!("unknown client option: {other}");
                usage()
            }
        }
    }
    if parsed.addr.is_empty() || parsed.command.is_empty() {
        eprintln!("client mode needs --addr and a command");
        usage()
    }
    match run_client(&parsed) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("gramer-serve client: {e}");
            ExitCode::FAILURE
        }
    }
}

fn require_id(parsed: &ClientArgs) -> Result<u64, String> {
    parsed
        .id
        .ok_or_else(|| format!("{} needs a job id", parsed.command))
}

fn run_client(parsed: &ClientArgs) -> Result<ExitCode, String> {
    let get = |path: &str| -> Result<(u16, String), String> {
        http::request(&parsed.addr, "GET", path, None).map_err(|e| e.to_string())
    };
    match parsed.command.as_str() {
        "submit" => client_submit(parsed),
        "status" => {
            let id = require_id(parsed)?;
            let (status, body) = get(&format!("/jobs/{id}"))?;
            println!("{body}");
            Ok(exit_for(status))
        }
        "report" | "metrics" => {
            let id = require_id(parsed)?;
            let (status, body) = get(&format!("/jobs/{id}/{}", parsed.command))?;
            write_out(parsed, status, &body)?;
            Ok(exit_for(status))
        }
        "jobs" => {
            let (status, body) = get("/jobs")?;
            println!("{body}");
            Ok(exit_for(status))
        }
        "stats" => {
            let (status, body) = get("/stats")?;
            println!("{body}");
            Ok(exit_for(status))
        }
        "healthz" => {
            let (status, body) = get("/healthz")?;
            println!("{body}");
            Ok(exit_for(status))
        }
        "shutdown" => {
            let (status, body) = http::request(&parsed.addr, "POST", "/shutdown", None)
                .map_err(|e| e.to_string())?;
            println!("{body}");
            Ok(exit_for(status))
        }
        other => Err(format!("unknown client command {other:?}")),
    }
}

fn exit_for(status: u16) -> ExitCode {
    if (200..300).contains(&status) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_out(parsed: &ClientArgs, status: u16, body: &str) -> Result<(), String> {
    match (&parsed.out, status) {
        (Some(path), 200) => {
            std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))
        }
        _ => {
            println!("{body}");
            Ok(())
        }
    }
}

fn client_submit(parsed: &ClientArgs) -> Result<ExitCode, String> {
    let graph = match (&parsed.gen, &parsed.artifact, &parsed.edge_list) {
        (Some(spec), None, None) => JsonValue::object([("gen", JsonValue::from(spec.as_str()))]),
        (None, Some(path), None) => {
            JsonValue::object([("artifact", JsonValue::from(path.as_str()))])
        }
        (None, None, Some(path)) => {
            JsonValue::object([("edge_list", JsonValue::from(path.as_str()))])
        }
        _ => return Err("submit needs exactly one of --gen/--artifact/--edge-list".to_string()),
    };
    let mut fields = vec![
        ("graph", graph),
        ("app", JsonValue::from(parsed.app.as_str())),
        ("metrics", JsonValue::from(parsed.metrics)),
    ];
    if let Some(config) = &parsed.config {
        let config = JsonValue::parse(config).map_err(|e| format!("bad --config JSON: {e}"))?;
        fields.push(("config", config));
    }
    if let Some(d) = parsed.deadline {
        fields.push(("deadline_seconds", JsonValue::from(d)));
    }
    let body = JsonValue::object(fields).to_string();
    let (status, response) =
        http::request(&parsed.addr, "POST", "/jobs", Some(&body)).map_err(|e| e.to_string())?;
    if status != 202 {
        println!("{response}");
        return Ok(exit_for(status));
    }
    let id = JsonValue::parse(&response)
        .ok()
        .and_then(|v| v.get("id").and_then(JsonValue::as_u64))
        .ok_or("daemon response had no job id")?;
    if !parsed.wait {
        println!("{response}");
        return Ok(ExitCode::SUCCESS);
    }

    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        let (status, body) = http::request(&parsed.addr, "GET", &format!("/jobs/{id}"), None)
            .map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("poll failed with HTTP {status}: {body}"));
        }
        let doc = JsonValue::parse(&body).map_err(|e| format!("bad poll response: {e}"))?;
        let job_status = doc
            .get("status")
            .and_then(JsonValue::as_str)
            .ok_or("poll response had no status")?;
        if job_status != "queued" && job_status != "running" {
            println!("{body}");
            return Ok(if job_status == "completed" {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            });
        }
        if Instant::now() >= deadline {
            return Err(format!("job {id} still {job_status} after 600s"));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}
