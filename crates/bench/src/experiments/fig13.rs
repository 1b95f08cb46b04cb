//! Figure 13: (a) performance while sweeping the number of pipeline slots
//! 1 → 16, and (b) the speedup from work stealing.
//!
//! The paper sees near-linear scaling up to 8 slots (except on tiny
//! Citeseer), diminishing returns 8 → 16 from memory-partition pressure,
//! and 1.32–1.90× from work stealing with Mico (the most skewed graph)
//! benefiting most.

use crate::{rule, AppVariant, Harness, PointRecord, Scale, Sweep, SweepResult};
use gramer::GramerConfig;
use gramer_graph::datasets::Dataset;

const SLOTS: [usize; 5] = [1, 2, 4, 8, 16];
/// The paper sweeps 5-CF.
const VARIANT: AppVariant = AppVariant::Cf(5);

fn graphs(scale: Scale) -> &'static [Dataset] {
    match scale {
        Scale::Full => &Dataset::ALL,
        Scale::Quick => &[Dataset::Citeseer, Dataset::P2p, Dataset::Patents],
    }
}

/// The grid: every slot count, and stealing off and on, per graph.
pub fn sweep(h: &Harness) -> Sweep<'_> {
    let app = |d: Dataset| VARIANT.name(d, h.scale);
    let mut sweep = h.sweep("fig13");
    for &d in graphs(h.scale) {
        for slots in SLOTS {
            sweep.point(d.name(), &app(d), &format!("slots-{slots}"), move || {
                let cfg = GramerConfig {
                    slots_per_pu: slots,
                    ..GramerConfig::default()
                };
                h.point(d, VARIANT, cfg)
            });
        }
        for (label, stealing) in [("steal-off", false), ("steal-on", true)] {
            sweep.point(d.name(), &app(d), label, move || {
                let cfg = GramerConfig {
                    work_stealing: stealing,
                    ..GramerConfig::default()
                };
                h.point(d, VARIANT, cfg)
            });
        }
    }
    sweep
}

/// Prints the speedup over 1 slot and the work-stealing speedup.
pub fn table(result: &SweepResult) {
    let scale = result.scale;
    let cycles = |d: Dataset, config: &str| {
        result
            .find(d.name(), &VARIANT.name(d, scale), config)
            .and_then(PointRecord::cycles)
    };
    println!("Figure 13(a) — performance vs pipeline slots (normalised to 1 slot, 5-CF)");
    println!("(paper: near-linear to 8 slots except Citeseer, flattening 8->16)\n");
    print!("{:<10}", "Graph");
    for slots in SLOTS {
        print!("{:>9}", format!("{slots} slots"));
    }
    println!();
    rule(55);
    for &d in graphs(scale) {
        let Some(base) = cycles(d, "slots-1") else {
            continue;
        };
        print!("{:<10}", d.name());
        for slots in SLOTS {
            match cycles(d, &format!("slots-{slots}")) {
                Some(c) => print!("{:>8.2}x", base as f64 / c as f64),
                None => print!("{:>9}", "-"),
            }
        }
        println!();
    }

    println!("\nFigure 13(b) — work-stealing speedup (5-CF, 16 slots)");
    println!("(paper: 1.32-1.90x, skewed Mico benefits most)\n");
    println!(
        "{:<10} {:>12} {:>12} {:>9}",
        "Graph", "w/o steal", "w/ steal", "Speedup"
    );
    rule(46);
    for &d in graphs(scale) {
        let (Some(without), Some(with)) = (cycles(d, "steal-off"), cycles(d, "steal-on")) else {
            continue;
        };
        println!(
            "{:<10} {:>12} {:>12} {:>8.2}x",
            d.name(),
            without,
            with,
            without as f64 / with as f64
        );
    }
}
