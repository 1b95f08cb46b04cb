//! The `serve-mixed` workload: `gramer-serve` as the README deploys it
//! (2 workers, journal on) on loopback, under a closed loop of 2 clients.
//! Each client submits a job naming an edge-list file, polls it until it
//! ends, fetches the report, and only then submits its next job.

use crate::gen::{self, Rng};
use crate::harness::{median, percentile, Clock, Metric, Tally};
use crate::layers::Layers;
use crate::trace::Tracer;
use crate::{energy_mj, peak_rss_mb, work_dir, Args, Outcome};
use gramer::json::JsonValue;
use gramer::{preprocess, RunReport};
use gramer_graph::{artifact, io};
use gramer_serve::job::run_app_spec;
use gramer_serve::{JobJournal, JobSpec, SessionCache};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

pub const WORKLOAD: &str = "serve-mixed";

const CLIENTS: usize = 2;
const WORKERS: &str = "2";
/// Graphs most jobs name, so they hit the daemon's session cache.
const HOT_GRAPHS: usize = 4;
/// Share of jobs naming a hot graph; the rest name a graph no earlier
/// job used.
const HOT_SHARE: f64 = 0.8;
const APPS: [&str; 3] = ["3-cf", "3-mc", "4-cf"];
/// Size of every job's Barabási–Albert graph.
const BA_VERTICES: usize = 300;
const BA_EDGES_PER_VERTEX: usize = 4;
/// Pause between two polls of one job: the coarsest interval measured
/// whose job p50 and jobs/s match those of 2 ms polls (README.md, "Poll
/// interval"). The bundled client's 25 ms would add idle time to every
/// job.
const POLL_EVERY: Duration = Duration::from_millis(5);
/// Restarts over a journal of [`STATE_JOBS`] jobs that `setup_s` is the
/// median of.
const RESTARTS: usize = 9;
/// Jobs the daemon has finished when `peak_rss_mb` is read, and jobs in
/// the journal `setup_s` restarts over. The daemon keeps every job's
/// report in memory and in its journal, so a fixed count keeps both
/// figures from growing with the number of jobs a run gets through.
const STATE_JOBS: usize = 256;
/// Timed replays and rewrites of the final journal in the traced run.
const JOURNAL_REPS: usize = 5;
/// Longest any single daemon interaction may take before it counts as
/// failed.
const PATIENCE: Duration = Duration::from_secs(60);

// ---------------------------------------------------------------------
// HTTP and the daemon process
// ---------------------------------------------------------------------

/// One HTTP/1.1 request on a fresh connection; returns status and body.
/// The benchmark has its own client so that a change to the daemon's
/// bundled one cannot change how the load is applied.
fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let io_err = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut s = TcpStream::connect(addr).map_err(io_err)?;
    s.set_read_timeout(Some(PATIENCE)).map_err(io_err)?;
    s.set_write_timeout(Some(PATIENCE)).map_err(io_err)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).map_err(io_err)?;
    s.write_all(body.as_bytes()).map_err(io_err)?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).map_err(io_err)?;
    let text = String::from_utf8(raw).map_err(|_| format!("{method} {path}: non-UTF-8 reply"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: reply without a head"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok((status, body.to_string()))
}

/// A running daemon. Dropping it kills the process if it is still up.
struct Daemon {
    child: Option<Child>,
    addr: String,
    pid: u32,
}

impl Daemon {
    /// Starts the daemon over `journal` and waits until `/healthz`
    /// answers; returns it with the seconds that took.
    fn start(bin: &Path, dir: &Path, journal: &Path) -> Result<(Daemon, f64), String> {
        let addr_file = dir.join("addr");
        let _ = std::fs::remove_file(&addr_file);
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("daemon.log"))
            .map_err(|e| format!("daemon log: {e}"))?;
        let t0 = Instant::now();
        let child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--addr-file")
            .arg(&addr_file)
            .arg("--workers")
            .arg(WORKERS)
            .arg("--journal")
            .arg(journal)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let pid = child.id();
        let mut d = Daemon {
            child: Some(child),
            addr: String::new(),
            pid,
        };
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Some(line) = text.lines().next().filter(|l| !l.is_empty()) {
                    d.addr = line.trim().to_string();
                    break;
                }
            }
            d.give_up_if_stuck(t0, "never published its address")?;
            std::thread::sleep(Duration::from_micros(200));
        }
        while !matches!(http(&d.addr, "GET", "/healthz", ""), Ok((200, _))) {
            d.give_up_if_stuck(t0, "never answered /healthz")?;
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok((d, t0.elapsed().as_secs_f64()))
    }

    fn give_up_if_stuck(&mut self, t0: Instant, what: &str) -> Result<(), String> {
        let child = self.child.as_mut().expect("a started daemon has a child");
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!("daemon exited ({status}) and {what}"));
        }
        if t0.elapsed() > PATIENCE {
            return Err(format!("daemon {what} within {PATIENCE:?}"));
        }
        Ok(())
    }

    /// Drains the daemon through `POST /shutdown` and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let asked = http(&self.addr, "POST", "/shutdown", "");
        let mut child = self.child.take().expect("a started daemon has a child");
        let t0 = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() && asked.is_ok() => return Ok(()),
                Ok(Some(status)) => {
                    return Err(format!("daemon stopped badly: {status} {asked:?}"))
                }
                Ok(None) if t0.elapsed() < PATIENCE => std::thread::sleep(Duration::from_millis(1)),
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not drain; killed".to_string());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

// ---------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------

fn spec_json(graph: &Path, app: &str) -> String {
    JsonValue::object([
        (
            "graph",
            JsonValue::object([("edge_list", JsonValue::from(graph.display().to_string()))]),
        ),
        ("app", JsonValue::from(app)),
    ])
    .to_string()
}

/// One job as a client saw it.
struct Job {
    graph: PathBuf,
    app: &'static str,
    spec: String,
    /// Id the daemon gave the job.
    id: Option<u64>,
    /// `POST /jobs` to the last byte of the report; infinite if it failed.
    latency_s: f64,
    polls: u32,
    body: String,
    error: Option<String>,
}

impl Job {
    fn new(graph: &Path, app: &'static str) -> Job {
        Job {
            graph: graph.to_path_buf(),
            app,
            spec: spec_json(graph, app),
            id: None,
            latency_s: f64::INFINITY,
            polls: 0,
            body: String::new(),
            error: None,
        }
    }
}

/// Submits one job, polls it to the end and fetches its report, with a
/// span around each round trip.
fn run_job(addr: &str, graph: &Path, app: &'static str, tr: &mut Tracer, op: u64) -> Job {
    let mut job = Job::new(graph, app);
    let t0 = Instant::now();
    let root = tr.begin("serve.job", op);
    let out = (|| -> Result<String, String> {
        let (status, body) = tr.span("serve.submit", op, || {
            http(addr, "POST", "/jobs", &job.spec)
        })?;
        if status != 202 {
            return Err(format!("submit answered {status}: {body}"));
        }
        let id = JsonValue::parse(&body)
            .ok()
            .and_then(|d| d.get("id").and_then(JsonValue::as_u64))
            .ok_or_else(|| format!("submit reply without an id: {body}"))?;
        job.id = Some(id);
        loop {
            job.polls += 1;
            let (status, body) = tr.span("serve.poll", op, || {
                http(addr, "GET", &format!("/jobs/{id}"), "")
            })?;
            let state = JsonValue::parse(&body).ok().and_then(|d| {
                d.get("status")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
            });
            match (status, state.as_deref()) {
                (200, Some("completed")) => break,
                (200, Some("queued" | "running")) if t0.elapsed() < PATIENCE => {
                    std::thread::sleep(POLL_EVERY)
                }
                _ => return Err(format!("job {id} ended as {status} {body}")),
            }
        }
        let (status, report) = tr.span("serve.report", op, || {
            http(addr, "GET", &format!("/jobs/{id}/report"), "")
        })?;
        if status != 200 {
            return Err(format!("report of job {id} answered {status}"));
        }
        Ok(report)
    })();
    tr.end(root);
    match out {
        Ok(body) => {
            job.latency_s = t0.elapsed().as_secs_f64();
            job.body = body;
        }
        Err(e) => job.error = Some(e),
    }
    job
}

/// The graph files of one pass: the hot ones, and a source of fresh ones.
struct Graphs {
    dir: PathBuf,
    seed: u64,
    hot: Vec<PathBuf>,
}

impl Graphs {
    fn new(dir: &Path, seed: u64) -> Result<Graphs, String> {
        let hot = (0..HOT_GRAPHS as u64)
            .map(|i| Self::write(dir, &format!("hot{i}.txt"), Rng::stream(seed, i).next_u64()))
            .collect::<Result<_, _>>()?;
        Ok(Graphs {
            dir: dir.to_path_buf(),
            seed,
            hot,
        })
    }

    fn write(dir: &Path, name: &str, graph_seed: u64) -> Result<PathBuf, String> {
        let path = dir.join(name);
        std::fs::write(
            &path,
            gen::barabasi_albert(BA_VERTICES, BA_EDGES_PER_VERTEX, graph_seed),
        )
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }

    /// The `k`-th graph of client `c` that no other job names.
    fn cold(&self, c: usize, k: u64) -> Result<PathBuf, String> {
        let seed = Rng::stream(self.seed, 1_000_000 * (c as u64 + 1) + k).next_u64();
        Self::write(&self.dir, &format!("cold-{c}-{k}.txt"), seed)
    }
}

/// What the closed loop hands back.
struct Loop {
    jobs: Vec<Job>,
    /// Seconds until the last job ended.
    secs: f64,
    tracer: Tracer,
    /// The daemon's peak resident memory when its [`STATE_JOBS`]-th job
    /// ended, if it got that far.
    rss_mb: Option<f64>,
}

/// Runs the closed loop of [`CLIENTS`] clients for `seconds` against a
/// daemon that has already finished `done_before` jobs.
fn closed_loop(
    daemon: &Daemon,
    done_before: usize,
    graphs: &Graphs,
    seed: u64,
    seconds: f64,
    trace: bool,
    origin: Instant,
) -> Loop {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (addr, pid) = (daemon.addr.as_str(), daemon.pid);
    let done = AtomicUsize::new(done_before);
    let rss = OnceLock::new();
    let (done, rss) = (&done, &rss);
    let results: Vec<(Vec<Job>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut rng = Rng::stream(seed, 100 + c as u64);
                    let mut tr = Tracer::new(trace, origin);
                    let mut jobs = Vec::new();
                    let mut cold = 0u64;
                    while Instant::now() < deadline {
                        let graph = if rng.unit() < HOT_SHARE {
                            Ok(graphs.hot[rng.below(HOT_GRAPHS)].clone())
                        } else {
                            cold += 1;
                            graphs.cold(c, cold)
                        };
                        let app = APPS[rng.below(APPS.len())];
                        let op = (c as u64 + 1) * 1_000_000 + jobs.len() as u64;
                        let job = match graph {
                            Ok(graph) => run_job(addr, &graph, app, &mut tr, op),
                            Err(e) => Job {
                                error: Some(e),
                                ..Job::new(Path::new(""), app)
                            },
                        };
                        if job.error.is_none()
                            && done.fetch_add(1, Ordering::Relaxed) + 1 == STATE_JOBS
                        {
                            let _ = rss.set(peak_rss_mb(Some(pid)));
                        }
                        jobs.push(job);
                    }
                    (jobs, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let mut all = Vec::new();
    let mut tracer = Tracer::new(trace, origin);
    for (jobs, tr) in results {
        all.extend(jobs);
        tracer.absorb(tr);
    }
    Loop {
        jobs: all,
        secs,
        tracer,
        rss_mb: rss.get().copied(),
    }
}

/// What `/stats` must show after a clean run, and the session-cache
/// hit ratio.
fn check_stats(addr: &str, tally: &mut Tally) -> f64 {
    let doc = match http(addr, "GET", "/stats", "").map(|(_, b)| JsonValue::parse(&b)) {
        Ok(Ok(doc)) => doc,
        other => {
            tally.fail(format!("/stats unreadable: {other:?}"));
            return 0.0;
        }
    };
    for key in [
        "failed",
        "panicked",
        "timed_out",
        "rejected",
        "queue_full_rejections",
    ] {
        let n = doc.get(key).and_then(JsonValue::as_u64);
        tally.check(n == Some(0), || format!("/stats shows {key} = {n:?}"));
    }
    let cache = doc.get("session_cache");
    let get = |k: &str| {
        cache
            .and_then(|c| c.get(k))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    };
    let (hits, misses) = (get("hits"), get("misses"));
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// A job's report and its serialized body, or why there is none.
type Computed = Result<(RunReport, String), String>;

/// The in-process path a daemon worker takes for one job, without the
/// daemon: spec parse, file read, session cache, simulation, report.
fn compute(spec_text: &str, session: &SessionCache, tr: &mut Tracer, op: u64) -> Computed {
    let spec = JsonValue::parse(spec_text)
        .map_err(|e| e.to_string())
        .and_then(|v| JobSpec::from_json(&v))?;
    let gramer_serve::job::GraphSource::EdgeList(path) = &spec.graph else {
        return Err("the benchmark submits edge-list jobs only".to_string());
    };
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let key = SessionCache::key(artifact::fnv1a(&bytes), &spec.config);
    let (pre, _hit) = session.get_or_build(key, || {
        let graph = tr
            .span("graph.parse", op, || io::read_edge_list(&bytes[..]))
            .map_err(|e| e.to_string())?;
        tr.span("preprocess", op, || preprocess(&graph, &spec.config))
            .map_err(|e| e.to_string())
    })?;
    let (report, _) = tr
        .span("sim.run", op, || {
            run_app_spec(&spec.app, &pre, spec.config.clone(), None)
        })
        .map_err(|e| e.to_string())?;
    let body = tr.span("report.serialize", op, || {
        report.to_json_value().to_string_pretty() + "\n"
    });
    Ok((report, body))
}

/// One daemon lifetime: start, warm the session cache with every hot
/// (graph, app) pair, run the closed loop, check `/stats`, stop.
struct Pass {
    warm: Vec<Job>,
    jobs: Vec<Job>,
    loop_s: f64,
    hit_ratio: f64,
    rss_mb: f64,
    /// Jobs the daemon had finished when `rss_mb` was read.
    rss_jobs: usize,
    tracer: Tracer,
    dir: PathBuf,
    journal: PathBuf,
}

fn pass(
    bin: &Path,
    dir: PathBuf,
    seed: u64,
    seconds: f64,
    trace: bool,
    origin: Instant,
    tally: &mut Tally,
) -> Result<Pass, String> {
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let graphs = Graphs::new(&dir, seed)?;
    let journal = dir.join("jobs.jsonl");
    let (daemon, _) = Daemon::start(bin, &dir, &journal)?;
    let mut quiet = Tracer::new(false, origin);
    let warm: Vec<Job> = graphs
        .hot
        .iter()
        .flat_map(|g| APPS.map(|app| (g, app)))
        .enumerate()
        .map(|(i, (g, app))| run_job(&daemon.addr, g, app, &mut quiet, i as u64))
        .collect();
    let warmed = warm.iter().filter(|j| j.error.is_none()).count();
    let l = closed_loop(&daemon, warmed, &graphs, seed, seconds, trace, origin);
    let hit_ratio = check_stats(&daemon.addr, tally);
    // A daemon too slow to reach STATE_JOBS is read at the end instead.
    let (rss_mb, rss_jobs) = match l.rss_mb {
        Some(mb) => (mb, STATE_JOBS),
        None => (
            peak_rss_mb(Some(daemon.pid)),
            warmed + l.jobs.iter().filter(|j| j.error.is_none()).count(),
        ),
    };
    daemon.stop()?;
    Ok(Pass {
        warm,
        jobs: l.jobs,
        loop_s: l.secs,
        hit_ratio,
        rss_mb,
        rss_jobs,
        tracer: l.tracer,
        dir,
        journal,
    })
}

/// Checks every served report against the in-process report for the
/// same spec; returns those reports by (graph, app), in a fixed order so
/// sums over them repeat bit for bit.
fn check_reports(p: &Pass, tally: &mut Tally) -> BTreeMap<(PathBuf, &'static str), RunReport> {
    let session = SessionCache::new(256 << 20);
    let mut quiet = Tracer::new(false, Instant::now());
    let mut expected: BTreeMap<(PathBuf, &'static str), Computed> = BTreeMap::new();
    for job in p.warm.iter().chain(&p.jobs) {
        if let Some(e) = &job.error {
            tally.fail(format!("job {} {}: {e}", job.graph.display(), job.app));
            continue;
        }
        let want = expected
            .entry((job.graph.clone(), job.app))
            .or_insert_with(|| compute(&job.spec, &session, &mut quiet, 0));
        tally.check(matches!(want, Ok((_, body)) if *body == job.body), || {
            format!(
                "served report of {} {} differs from the in-process one",
                job.graph.display(),
                job.app
            )
        });
    }
    expected
        .into_iter()
        .filter_map(|(k, v)| v.ok().map(|(r, _)| (k, r)))
        .collect()
}

fn latencies(jobs: &[Job]) -> Vec<f64> {
    jobs.iter().map(|j| j.latency_s).collect()
}

pub fn run(args: &Args) -> Outcome {
    let mut tally = Tally::default();
    let Some(bin) = args.daemon.clone() else {
        tally.fail("no --daemon binary given");
        return Outcome::failed(tally);
    };
    let origin = Instant::now();
    let root = work_dir().join(format!("serve-{}-{}", args.seed, std::process::id()));
    let outcome = if args.trace {
        traced(&bin, &root, args, origin, &mut tally)
    } else {
        untraced(&bin, &root, args, origin, &mut tally)
    };
    let _ = std::fs::remove_dir_all(&root);
    match outcome {
        Ok((metrics, extra, tracer)) => Outcome {
            tally,
            metrics,
            extra,
            tracer,
        },
        Err(e) => {
            tally.fail(e);
            Outcome::failed(tally)
        }
    }
}

type Measured = (Vec<Metric>, Vec<Metric>, Tracer);

fn latency_metrics(jobs: &[Job]) -> Vec<Metric> {
    let lat = latencies(jobs);
    vec![
        Metric::new("job_p50_ms", "ms", Clock::Host, median(&lat) * 1e3)
            .note(format!("{} jobs", lat.len())),
        match percentile(&lat, 95.0) {
            Some(v) => Metric::new("job_p95_ms", "ms", Clock::Host, v * 1e3),
            None => Metric::new("job_p95_ms", "ms", Clock::Host, f64::NAN)
                .note("withheld: fewer than ten samples beyond p95"),
        },
    ]
}

fn untraced(
    bin: &Path,
    root: &Path,
    args: &Args,
    origin: Instant,
    tally: &mut Tally,
) -> Result<Measured, String> {
    let p = pass(
        bin,
        root.join("run"),
        args.seed,
        args.seconds,
        false,
        origin,
        tally,
    )?;
    let served = check_reports(&p, tally);

    // The documented recovery path: restart over a journal of the run's
    // first STATE_JOBS jobs.
    let replay = JobJournal::new(&p.journal)
        .replay()
        .map_err(|e| format!("journal replay: {e}"))?;
    let kept = &replay.records[..replay.records.len().min(STATE_JOBS)];
    let setup_journal = JobJournal::new(p.dir.join("setup.jsonl"));
    setup_journal
        .write_snapshot(kept)
        .map_err(|e| format!("journal write: {e}"))?;
    let last = kept.last().and_then(|rec| {
        p.warm
            .iter()
            .chain(&p.jobs)
            .find(|j| j.id == Some(rec.id) && j.error.is_none())
    });
    tally.check(last.is_some(), || {
        "the journal's last kept job is not one the clients finished".to_string()
    });
    let mut setups = Vec::with_capacity(RESTARTS);
    for i in 0..RESTARTS {
        let (daemon, secs) = Daemon::start(bin, &p.dir, setup_journal.path())?;
        setups.push(secs);
        if let (0, Some(job)) = (i, last) {
            // Restored results must come back byte for byte.
            let id = job.id.unwrap_or(0);
            let body = http(&daemon.addr, "GET", &format!("/jobs/{id}/report"), "");
            tally.check(matches!(&body, Ok((200, b)) if *b == job.body), || {
                format!("job {id}'s report after a restart differs: {body:?}")
            });
        }
        daemon.stop()?;
    }

    let ok = p.jobs.iter().filter(|j| j.error.is_none()).count();
    let hot = |graph: &PathBuf| p.warm.iter().any(|w| &w.graph == graph);
    let hot_reports: Vec<&RunReport> = served
        .iter()
        .filter(|((g, _), _)| hot(g))
        .map(|(_, r)| r)
        .collect();
    let cycles: u64 = hot_reports.iter().map(|r| r.cycles).sum();
    let energy: f64 = hot_reports.iter().map(|r| energy_mj(r)).sum();
    let lat = latencies(&p.jobs);
    let metrics = vec![
        Metric::new("wall_s", "s", Clock::Host, median(&lat))
            .note(format!("median job, submit to report, of {}", lat.len())),
        Metric::new("jobs_per_s", "1/s", Clock::Host, ok as f64 / p.loop_s)
            .note(format!("{ok} jobs in {:.2} s", p.loop_s)),
        Metric::new("setup_s", "s", Clock::Host, median(&setups)).note(format!(
            "median of {RESTARTS} restarts over a journal of {} jobs",
            kept.len()
        )),
        Metric::new("peak_rss_mb", "MB", Clock::Host, p.rss_mb)
            .note(format!("daemon, after {} jobs", p.rss_jobs)),
        Metric::new("sim_cycles", "cycles", Clock::Modeled, cycles as f64).note(format!(
            "sum over the {} hot (graph, app) pairs",
            hot_reports.len()
        )),
        Metric::new("sim_energy_mj", "mJ", Clock::Modeled, energy),
    ];
    let mut extra = latency_metrics(&p.jobs);
    extra.push(Metric::new(
        "session.hit_ratio",
        "ratio",
        Clock::Count,
        p.hit_ratio,
    ));
    Ok((metrics, extra, p.tracer))
}

fn traced(
    bin: &Path,
    root: &Path,
    args: &Args,
    origin: Instant,
    tally: &mut Tally,
) -> Result<Measured, String> {
    let half = args.seconds / 2.0;
    let a = pass(
        bin,
        root.join("untraced"),
        args.seed,
        half,
        false,
        origin,
        tally,
    )?;
    check_reports(&a, tally);
    let b = pass(
        bin,
        root.join("traced"),
        args.seed,
        half,
        true,
        origin,
        tally,
    )?;
    let mut tr = b.tracer;

    // The same jobs in-process, through a worker's public calls, after
    // the same untimed warm-up jobs the daemon saw.
    let session = SessionCache::new(256 << 20);
    let mut quiet = Tracer::new(false, origin);
    let mut compute_s = Vec::new();
    for (i, job) in b.warm.iter().chain(&b.jobs).enumerate() {
        if let Some(e) = &job.error {
            tally.fail(format!("job {} {}: {e}", job.graph.display(), job.app));
            continue;
        }
        let timed = i >= b.warm.len();
        let op = 2_000_000 + i as u64;
        let t0 = Instant::now();
        let out = if timed {
            let open = tr.begin("serve.compute", op);
            let out = compute(&job.spec, &session, &mut tr, op);
            tr.end(open);
            compute_s.push(t0.elapsed().as_secs_f64());
            out
        } else {
            compute(&job.spec, &session, &mut quiet, op)
        };
        tally.check(matches!(&out, Ok((_, body)) if *body == job.body), || {
            format!(
                "served report of {} {} differs from the in-process one",
                job.graph.display(),
                job.app
            )
        });
    }

    let journal = JobJournal::new(&b.journal);
    let copy = JobJournal::new(b.dir.join("rewritten.jsonl"));
    let mut records = Vec::new();
    for _ in 0..JOURNAL_REPS {
        match tr.span("journal.replay", 0, || journal.replay()) {
            Ok(r) => records = r.records,
            Err(e) => tally.fail(format!("journal replay failed: {e}")),
        }
        let written = tr.span("journal.write", 0, || copy.write_snapshot(records.iter()));
        tally.check(written.is_ok(), || {
            format!("journal write failed: {written:?}")
        });
    }
    tally.check(records.len() == b.warm.len() + b.jobs.len(), || {
        format!(
            "journal holds {} of {} jobs",
            records.len(),
            b.warm.len() + b.jobs.len()
        )
    });
    let journal_bytes = std::fs::metadata(copy.path()).map_or(0, |m| m.len());

    let ms = |name: &str| median(&tr.self_secs(name)) * 1e3;
    let p50_a = median(&latencies(&a.jobs));
    let p50_b = median(&latencies(&b.jobs));
    let compute_ms = median(&compute_s) * 1e3;
    let polls: u32 = b.jobs.iter().map(|j| j.polls).sum();
    let layers = Layers {
        graph_parse_ms: ms("graph.parse"),
        preprocess_ms: ms("preprocess"),
        report_serialize_ms: ms("report.serialize"),
        serve_submit_ms: ms("serve.submit"),
        serve_poll_ms: ms("serve.poll"),
        serve_polls_per_job: polls as f64 / b.jobs.len().max(1) as f64,
        serve_report_ms: ms("serve.report"),
        serve_compute_ms: compute_ms,
        serve_overhead_ms: p50_b * 1e3 - compute_ms,
        session_hit_ratio: b.hit_ratio,
        journal_write_ms: ms("journal.write"),
        journal_bytes: journal_bytes as f64,
        journal_replay_ms: ms("journal.replay"),
        trace_overhead_pct: (p50_b - p50_a) / p50_a * 100.0,
        ..Layers::default()
    };
    let mut extra = latency_metrics(&b.jobs);
    extra.push(Metric::new(
        "untraced.job_p50_ms",
        "ms",
        Clock::Host,
        p50_a * 1e3,
    ));
    Ok((layers.metrics(), extra, tr))
}
