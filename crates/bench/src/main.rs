//! `gramer-bench <name> [options]`: regenerates one table or figure of
//! the GRAMER paper's evaluation (§VI), or runs the pinned `perf`
//! workload. Each name is one module below with one entry function; the
//! sweeps share the options of [`gramer_bench::SWEEP_USAGE`] and borrow
//! one [`Harness`] built from them.

use gramer_bench::{Harness, SweepArgs};
use std::process::ExitCode;

mod experiments {
    pub mod ablation;
    pub mod fig11;
    pub mod fig12;
    pub mod fig13;
    pub mod fig14;
    pub mod fig3;
    pub mod fig5;
    pub mod fig8;
    pub mod perf;
    pub mod table2;
    pub mod table3;
    pub mod table4;
}

use experiments::*;

/// A sweep's entry function.
type SweepMain = fn(&SweepArgs, &Harness) -> ExitCode;

/// Every sweep, in the paper's order.
const SWEEPS: [(&str, SweepMain); 11] = [
    ("fig3", fig3::run),
    ("fig5", fig5::run),
    ("fig8", fig8::run),
    ("table2", table2::run),
    ("table3", table3::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("table4", table4::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("ablation", ablation::run),
];

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
        name => match SWEEPS.iter().find(|(n, _)| *n == name) {
            Some((name, run)) => {
                let args = SweepArgs::parse(name, rest);
                run(&args, &Harness::new(&args))
            }
            None => {
                eprintln!("error: unknown experiment {name:?}\n\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}
