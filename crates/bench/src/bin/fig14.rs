//! Figure 14: sensitivity of GRAMER to (a) the priority threshold τ and
//! (b) the replacement balancing factor λ, for 5-CF.
//!
//! The paper: τ = 5% already reaches 71.7–91.6% of the all-on-chip ideal
//! (τ = 50%); λ barely matters (0.91–1.07× across 0.5–8), because data
//! that is cold globally but briefly hot contributes little traffic.

use gramer::{GramerConfig, MemoryBudget};
use gramer_bench::{
    rule, run_gramer, AnalogCache, AppVariant, PointOutput, PointRecord, Sweep, SweepArgs,
};
use gramer_graph::datasets::Dataset;

// τ sweep on the small/medium graphs (the paper excludes the large ones
// for BRAM-capacity reasons; we do the same).
const TAU_GRAPHS: [Dataset; 4] = [
    Dataset::Citeseer,
    Dataset::P2p,
    Dataset::Astro,
    Dataset::Mico,
];
const TAUS: [f64; 6] = [0.01, 0.02, 0.05, 0.10, 0.20, 0.50];
const LAMBDAS: [f64; 5] = [0.5, 1.0, 2.0, 4.0, 8.0];

fn tau_label(t: f64) -> String {
    format!("tau-{:.0}%", 100.0 * t)
}

fn lambda_label(l: f64) -> String {
    format!("lambda-{l}")
}

fn lambda_graphs() -> &'static [Dataset] {
    if gramer_bench::quick_mode() {
        &[Dataset::Citeseer, Dataset::P2p]
    } else {
        &TAU_GRAPHS
    }
}

fn main() -> std::process::ExitCode {
    let args = SweepArgs::parse();
    let variant = AppVariant::Cf(5);
    let cache = AnalogCache::new();

    let mut sweep = Sweep::new("fig14");
    for d in TAU_GRAPHS {
        for t in TAUS {
            let cache = &cache;
            sweep.point(d.name(), &variant.name(d), &tau_label(t), move || {
                let cfg = GramerConfig {
                    tau: Some(t),
                    ..GramerConfig::default()
                };
                run_gramer(cache.get(d), &variant.spec(d), cfg).map(PointOutput::from_report)
            });
        }
    }
    for &d in lambda_graphs() {
        for l in LAMBDAS {
            let cache = &cache;
            sweep.point(d.name(), &variant.name(d), &lambda_label(l), move || {
                let cfg = GramerConfig {
                    budget: MemoryBudget::Fraction(0.10),
                    lambda: l,
                    ..GramerConfig::default()
                };
                run_gramer(cache.get(d), &variant.spec(d), cfg).map(PointOutput::from_report)
            });
        }
    }
    let result = sweep.execute(&args);

    println!("Figure 14(a) — performance vs tau, normalised to tau=50% (5-CF)");
    println!("(paper: tau=5% reaches 71.7-91.6% of the ideal)\n");
    print!("{:<10}", "Graph");
    for t in TAUS {
        print!("{:>8}", format!("{:.0}%", 100.0 * t));
    }
    println!();
    rule(58);
    for d in TAU_GRAPHS {
        let cycles = |config: &str| {
            result
                .find(d.name(), &variant.name(d), config)
                .and_then(PointRecord::cycles)
        };
        // Normalise to the ideal: everything on-chip.
        let Some(ideal) = cycles(&tau_label(0.50)) else {
            continue;
        };
        print!("{:<10}", d.name());
        for t in TAUS {
            match cycles(&tau_label(t)) {
                Some(c) => print!("{:>8.3}", ideal as f64 / c as f64),
                None => print!("{:>8}", "-"),
            }
        }
        println!();
    }

    println!("\nFigure 14(b) — performance vs lambda, normalised to lambda=1 (5-CF, 10% on-chip)");
    println!("(paper: 0.91-1.07x across the whole range)\n");
    print!("{:<10}", "Graph");
    for l in LAMBDAS {
        print!("{:>8}", format!("l={l}"));
    }
    println!();
    rule(50);
    for &d in lambda_graphs() {
        let cycles = |config: &str| {
            result
                .find(d.name(), &variant.name(d), config)
                .and_then(PointRecord::cycles)
        };
        let Some(base) = cycles(&lambda_label(1.0)) else {
            continue;
        };
        print!("{:<10}", d.name());
        for l in LAMBDAS {
            match cycles(&lambda_label(l)) {
                Some(c) => print!("{:>8.3}", base as f64 / c as f64),
                None => print!("{:>8}", "-"),
            }
        }
        println!();
    }
    gramer_bench::finish(&result)
}
