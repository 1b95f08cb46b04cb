//! The experiments `gramer-bench` runs by name, and the one driver that
//! runs a sweep from its command line.
//!
//! Each sweep module has two functions: `sweep(&Harness) -> Sweep`, its
//! grid of points, and `table(&SweepResult)`, which prints its stdout
//! table from the finished records alone (their metrics and their
//! reports' JSON) and takes its scale from [`SweepResult::scale`]. A
//! record replayed from the journal is the record a fresh run makes, so
//! a resumed sweep prints what an uninterrupted one does. [`SWEEPS`]
//! lists the sweeps and [`run`] drives one; `perf` is not a sweep and
//! parses its own options ([`perf::run`]).
//!
//! # Example
//!
//! Any grid runs in process; `table2`'s three points are analytic:
//!
//! ```
//! use gramer_bench::experiments::SWEEPS;
//! use gramer_bench::{Harness, SweepArgs};
//!
//! let (_, grid, _) = SWEEPS.iter().find(|(name, ..)| *name == "table2").unwrap();
//! let harness = Harness::new(&SweepArgs::default());
//! let result = grid(&harness).run(1, None);
//! assert_eq!(result.records.len(), 3);
//! assert!(result.records.iter().all(|r| r.metric_f64("clock_mhz").is_some()));
//! ```

mod ablation;
mod fig11;
mod fig12;
mod fig13;
mod fig14;
mod fig3;
mod fig5;
mod fig8;
pub mod perf;
mod table2;
mod table3;
mod table4;

use crate::{Harness, PointRecord, Sweep, SweepArgs, SweepOptions, SweepResult, SWEEP_USAGE};
use std::path::Path;
use std::process::ExitCode;

/// A sweep's grid: its points, which borrow the harness.
pub type Grid = for<'h> fn(&'h Harness) -> Sweep<'h>;

/// A sweep's table, printed to stdout from the finished records.
pub type Table = fn(&SweepResult);

/// Every sweep, in the paper's order: its name, grid and table.
pub const SWEEPS: [(&str, Grid, Table); 11] = [
    ("fig3", fig3::sweep, fig3::table),
    ("fig5", fig5::sweep, fig5::table),
    ("fig8", fig8::sweep, fig8::table),
    ("table2", table2::sweep, table2::table),
    ("table3", table3::sweep, table3::table),
    ("fig11", fig11::sweep, fig11::table),
    ("fig12", fig12::sweep, fig12::table),
    ("table4", table4::sweep, table4::table),
    ("fig13", fig13::sweep, fig13::table),
    ("fig14", fig14::sweep, fig14::table),
    ("ablation", ablation::sweep, ablation::table),
];

/// Runs the sweep called `name` under the options that follow it on the
/// command line. `--help` prints the usage and `--list` the selected
/// point ids. Otherwise the points run, journaled to
/// `results/.journal/<name>.jsonl` (or `--journal`); the document goes
/// to `results/BENCH_<name>.json` (or `--json`), the table to stdout and
/// the points that did not complete to stderr.
///
/// Returns `None` when no sweep is called `name`, else the exit code: 2
/// for a malformed command line, 1 when every point of some
/// `(dataset, app)` group failed, 0 otherwise. A document that cannot
/// be written is reported on stderr; the table is still printed.
pub fn run(name: &str, args: &[String]) -> Option<ExitCode> {
    let &(name, grid, table) = SWEEPS.iter().find(|(n, ..)| *n == name)?;
    let usage = format!("usage: gramer-bench {name} [options]\n\n{SWEEP_USAGE}");
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{usage}");
        return Some(ExitCode::SUCCESS);
    }
    let args = match SweepArgs::try_parse(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{usage}");
            return Some(ExitCode::from(2));
        }
    };
    let harness = Harness::new(&args);
    let sweep = grid(&harness);
    if args.list {
        for id in sweep.ids(args.filter.as_deref()) {
            println!("{id}");
        }
        return Some(ExitCode::SUCCESS);
    }
    let results = Path::new("results");
    let journal = args
        .journal
        .unwrap_or_else(|| results.join(".journal").join(format!("{name}.jsonl")));
    let result = sweep.run_with(&SweepOptions {
        jobs: args.jobs,
        filter: args.filter,
        resume: args.resume,
        point_timeout: args.point_timeout,
        journal: Some(journal),
    });
    let json = args
        .json
        .unwrap_or_else(|| results.join(format!("BENCH_{name}.json")));
    match result.write_json(&json) {
        Ok(()) => eprintln!("[{name}] wrote {}", json.display()),
        Err(e) => eprintln!("[{name}] could not write {}: {e}", json.display()),
    }
    table(&result);
    report_failures(&result);
    Some(ExitCode::from(result.exit_code()))
}

/// Lists the points that failed or timed out, and the `(dataset, app)`
/// groups with no completed point, on stderr.
fn report_failures(result: &SweepResult) {
    let name = &result.name;
    let failures: Vec<&PointRecord> = result.failures().collect();
    if !failures.is_empty() {
        eprintln!("[{name}] {} point(s) did not complete:", failures.len());
    }
    for f in failures {
        let detail = f
            .error
            .as_ref()
            .map(|e| format!("{}: {}", e.kind, e.message))
            .unwrap_or_default();
        eprintln!("[{name}]   {} ({}) {detail}", f.id(), f.status.as_str());
    }
    for (dataset, app) in result.failed_groups() {
        eprintln!("[{name}] group {dataset}/{app} has no completed point");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn each_grid_is_named_as_listed_at_its_harness_scale() {
        let harness = Harness::new(&SweepArgs::try_parse(&["--quick"]).unwrap());
        for (name, grid, _) in SWEEPS {
            let result = grid(&harness).run(1, Some("no point has this id"));
            assert_eq!((result.name.as_str(), result.scale), (name, Scale::Quick));
        }
    }
}
