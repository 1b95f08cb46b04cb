//! Figure 13: (a) performance while sweeping the number of pipeline slots
//! 1 → 16, and (b) the speedup from work stealing.
//!
//! The paper sees near-linear scaling up to 8 slots (except on tiny
//! Citeseer), diminishing returns 8 → 16 from memory-partition pressure,
//! and 1.32–1.90× from work stealing with Mico (the most skewed graph)
//! benefiting most.

use gramer::GramerConfig;
use gramer_bench::{
    rule, run_gramer, AnalogCache, AppVariant, PointOutput, PointRecord, Sweep, SweepArgs,
};
use gramer_graph::datasets::Dataset;

const SLOTS: [usize; 5] = [1, 2, 4, 8, 16];

fn graphs() -> &'static [Dataset] {
    if gramer_bench::quick_mode() {
        &[Dataset::Citeseer, Dataset::P2p, Dataset::Patents]
    } else {
        &Dataset::ALL
    }
}

fn main() -> std::process::ExitCode {
    let args = SweepArgs::parse();
    let variant = AppVariant::Cf(5); // the paper sweeps 5-CF
    let cache = AnalogCache::new();

    let mut sweep = Sweep::new("fig13");
    for &d in graphs() {
        for slots in SLOTS {
            let cache = &cache;
            sweep.point(
                d.name(),
                &variant.name(d),
                &format!("slots-{slots}"),
                move || {
                    let cfg = GramerConfig {
                        slots_per_pu: slots,
                        ..GramerConfig::default()
                    };
                    run_gramer(cache.get(d), &variant.spec(d), cfg).map(PointOutput::from_report)
                },
            );
        }
        for (label, stealing) in [("steal-off", false), ("steal-on", true)] {
            let cache = &cache;
            sweep.point(d.name(), &variant.name(d), label, move || {
                let cfg = GramerConfig {
                    work_stealing: stealing,
                    ..GramerConfig::default()
                };
                run_gramer(cache.get(d), &variant.spec(d), cfg).map(PointOutput::from_report)
            });
        }
    }
    let result = sweep.execute(&args);

    println!("Figure 13(a) — performance vs pipeline slots (normalised to 1 slot, 5-CF)");
    println!("(paper: near-linear to 8 slots except Citeseer, flattening 8->16)\n");
    print!("{:<10}", "Graph");
    for slots in SLOTS {
        print!("{:>9}", format!("{slots} slots"));
    }
    println!();
    rule(55);
    for &d in graphs() {
        let cycles = |config: &str| {
            result
                .find(d.name(), &variant.name(d), config)
                .and_then(PointRecord::cycles)
        };
        let Some(base) = cycles("slots-1") else {
            continue;
        };
        print!("{:<10}", d.name());
        for slots in SLOTS {
            match cycles(&format!("slots-{slots}")) {
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
    for &d in graphs() {
        let cycles = |config: &str| {
            result
                .find(d.name(), &variant.name(d), config)
                .and_then(PointRecord::cycles)
        };
        let (Some(without), Some(with)) = (cycles("steal-off"), cycles("steal-on")) else {
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
    gramer_bench::finish(&result)
}
