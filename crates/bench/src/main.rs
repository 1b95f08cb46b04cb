//! `gramer-bench <name> [options]`: regenerates one table or figure of
//! the GRAMER paper's evaluation (§VI), or runs the pinned `perf`
//! workload. Each name is one module of [`gramer_bench::experiments`];
//! this binary only dispatches on the name.

use gramer_bench::experiments::{self, perf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: gramer-bench <name> [options]

Names:
  fig3       pipeline-stall breakdown on the CPU baseline
  fig5       extension locality per iteration (top-5% access shares)
  fig8       ON_k accuracy vs computation overhead
  table2     resource utilisation and clock rate
  table3     running time: GRAMER vs Fractal vs RStream
  fig11      energy and total time (incl. preprocessing)
  fig12      LAMH vs Uniform-LRU vs Static+LRU
  table4     clock rate w/o AB, w/ AB, w/ AB + compaction
  fig13      pipeline-slot sweep and work-stealing speedup
  fig14      tau and lambda sensitivity
  ablation   design-choice ablations called out in DESIGN.md
  perf       pinned simulator-throughput workload (results/BENCH_core.json)

`gramer-bench <name> --help` lists that name's options.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        eprintln!("error: missing experiment name\n\n{USAGE}");
        return ExitCode::from(2);
    };
    match name.as_str() {
        "--help" | "-h" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        "perf" => perf::run(rest),
        name => experiments::run(name, rest).unwrap_or_else(|| {
            eprintln!("error: unknown experiment {name:?}\n\n{USAGE}");
            ExitCode::from(2)
        }),
    }
}
