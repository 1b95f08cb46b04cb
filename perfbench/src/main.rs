//! End-to-end and per-layer benchmark of the GRAMER simulator and of
//! `gramer-serve`.
//!
//! ```text
//! gramer-perfbench --workload mine-mc|mine-cf-spill|serve-mixed --seed N
//!                  --seconds S --trace 0|1 [--daemon PATH]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` makes the traced run and reports the per-layer metrics.
//! Either way every output is checked, a table goes to standard error,
//! the recorded spans are written under `work/`, and the last line of
//! standard output is the JSON result. `run.sh` builds this program and
//! the daemon, then runs it. See README.md for the workloads and metrics.

mod gen;
mod harness;
mod layers;
mod mine;
mod replay;
mod serve;
mod speed;
mod trace;

use harness::{Metric, Tally};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// The seed on which every claim made with this benchmark must also hold,
/// besides the seeds it was tuned on.
pub const HOLDOUT_SEED: u64 = 20_201_017;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub daemon: Option<PathBuf>,
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub tally: Tally,
    /// The metrics of the result line (end-to-end, or per-layer when traced).
    pub metrics: Vec<Metric>,
    /// Further figures printed in the table only.
    pub extra: Vec<Metric>,
    pub tracer: Tracer,
}

impl Outcome {
    pub fn failed(tally: Tally) -> Outcome {
        Outcome {
            tally,
            metrics: Vec::new(),
            extra: Vec::new(),
            tracer: Tracer::new(false, std::time::Instant::now()),
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: gramer-perfbench --workload mine-mc|mine-cf-spill|serve-mixed --seed N \
         --seconds S --trace 0|1 [--daemon PATH]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        daemon: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => args.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--daemon" => args.daemon = Some(PathBuf::from(value)),
            _ => return None,
        }
    }
    Some(args)
}

/// Peak resident set of process `pid` (this process for `None`) in MB,
/// from `VmHWM` in `/proc/<pid>/status`; 0 if unavailable.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Modeled energy of a run in mJ: on-chip, memory dynamic and DRAM.
pub fn energy_mj(r: &gramer::RunReport) -> f64 {
    let e = r.energy(&gramer_memsim::EnergyModel::default());
    (e.on_chip_j + e.memory_dynamic_j + e.dram_j) * 1e3
}

/// Working directory for the run's files, inside the benchmark's own
/// directory.
pub fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    let outcome = if let Some(w) = mine::workload(&args.workload, args.seed) {
        mine::run(&w, &args)
    } else if args.workload == serve::WORKLOAD {
        serve::run(&args)
    } else {
        eprintln!("unknown workload {:?}", args.workload);
        return usage();
    };

    let spans = work_dir().join(format!(
        "spans-{}-seed{}-trace{}.jsonl",
        args.workload, args.seed, args.trace as u8
    ));
    if !outcome.tracer.spans().is_empty() {
        if let Err(e) = outcome.tracer.write_jsonl(&spans) {
            eprintln!("warning: cannot write spans to {}: {e}", spans.display());
        }
    }

    let title = format!(
        "{} seed {} ({}; hold-out seed {HOLDOUT_SEED})",
        args.workload,
        args.seed,
        if args.trace {
            "traced, per-layer"
        } else {
            "untraced, end to end"
        }
    );
    let mut shown = outcome.metrics.clone();
    shown.extend(outcome.extra.iter().cloned());
    shown.push(
        Metric::new(
            "fail_ratio",
            "ratio",
            harness::Clock::Count,
            outcome.tally.fail_ratio(),
        )
        .note(format!(
            "{} failed of {} attempted",
            outcome.tally.failed, outcome.tally.attempted
        )),
    );
    eprint!("{}", harness::table(&title, &shown));
    for (name, (n, total, own)) in outcome.tracer.summary() {
        eprintln!("span {name:<24} n={n:<6} total {total:>10.4} s  self {own:>10.4} s");
    }
    for reason in &outcome.tally.reasons {
        eprintln!("FAILED: {reason}");
    }
    println!("{}", harness::result_line(&outcome.tally, &outcome.metrics));
    ExitCode::SUCCESS
}
