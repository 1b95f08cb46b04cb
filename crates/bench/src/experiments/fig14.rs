//! Figure 14: sensitivity of GRAMER to (a) the priority threshold τ and
//! (b) the replacement balancing factor λ, for 5-CF.
//!
//! The paper: τ = 5% already reaches 71.7–91.6% of the all-on-chip ideal
//! (τ = 50%); λ barely matters (0.91–1.07× across 0.5–8), because data
//! that is cold globally but briefly hot contributes little traffic.

use crate::{rule, AppVariant, Harness, PointRecord, Scale, Sweep, SweepResult};
use gramer::{GramerConfig, MemoryBudget};
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
const VARIANT: AppVariant = AppVariant::Cf(5);

fn tau_label(t: f64) -> String {
    format!("tau-{:.0}%", 100.0 * t)
}

fn lambda_label(l: f64) -> String {
    format!("lambda-{l}")
}

fn lambda_graphs(scale: Scale) -> &'static [Dataset] {
    match scale {
        Scale::Full => &TAU_GRAPHS,
        Scale::Quick => &[Dataset::Citeseer, Dataset::P2p],
    }
}

/// The grid: every τ on the small and medium graphs, and every λ at a
/// 10% budget on the scale's λ graphs.
pub fn sweep(h: &Harness) -> Sweep<'_> {
    let app = |d: Dataset| VARIANT.name(d, h.scale);
    let mut sweep = h.sweep("fig14");
    for d in TAU_GRAPHS {
        for t in TAUS {
            sweep.point(d.name(), &app(d), &tau_label(t), move || {
                let cfg = GramerConfig {
                    tau: Some(t),
                    ..GramerConfig::default()
                };
                h.point(d, VARIANT, cfg)
            });
        }
    }
    for &d in lambda_graphs(h.scale) {
        for l in LAMBDAS {
            sweep.point(d.name(), &app(d), &lambda_label(l), move || {
                let cfg = GramerConfig {
                    budget: MemoryBudget::Fraction(0.10),
                    lambda: l,
                    ..GramerConfig::default()
                };
                h.point(d, VARIANT, cfg)
            });
        }
    }
    sweep
}

/// Prints performance against τ and against λ, each normalised.
pub fn table(result: &SweepResult) {
    let scale = result.scale;
    let cycles = |d: Dataset, config: &str| {
        result
            .find(d.name(), &VARIANT.name(d, scale), config)
            .and_then(PointRecord::cycles)
    };
    println!("Figure 14(a) — performance vs tau, normalised to tau=50% (5-CF)");
    println!("(paper: tau=5% reaches 71.7-91.6% of the ideal)\n");
    print!("{:<10}", "Graph");
    for t in TAUS {
        print!("{:>8}", format!("{:.0}%", 100.0 * t));
    }
    println!();
    rule(58);
    for d in TAU_GRAPHS {
        // Normalise to the ideal: everything on-chip.
        let Some(ideal) = cycles(d, &tau_label(0.50)) else {
            continue;
        };
        print!("{:<10}", d.name());
        for t in TAUS {
            match cycles(d, &tau_label(t)) {
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
    for &d in lambda_graphs(scale) {
        let Some(base) = cycles(d, &lambda_label(1.0)) else {
            continue;
        };
        print!("{:<10}", d.name());
        for l in LAMBDAS {
            match cycles(d, &lambda_label(l)) {
                Some(c) => print!("{:>8.3}", base as f64 / c as f64),
                None => print!("{:>8}", "-"),
            }
        }
        println!();
    }
}
