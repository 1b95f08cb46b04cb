//! Figure 12: effectiveness of the locality-aware memory hierarchy on
//! P2P, with 10% of the graph data on-chip.
//!
//! Three configurations, as in the paper: a uniform 4-way LRU cache of
//! the same total capacity, the hierarchy with an LRU low-priority memory
//! ("Static + LRU"), and the full LAMH (locality-preserved replacement).
//! The paper reports Static+LRU improving hit ratios by 13-37pp (vertex)
//! / 8-25pp (edge) over uniform LRU, LAMH adding 1-6pp more, and
//! speedups of 1.6-2.95x and a further 1.06-1.39x.

use crate::{rule, AppVariant, Harness, PointOutput, PointRecord, Sweep, SweepResult};
use gramer::json::JsonValue;
use gramer::{GramerConfig, MemoryBudget, MemoryMode};
use gramer_graph::datasets::Dataset;
use gramer_graph::{generate, CsrGraph};
use std::sync::{Arc, OnceLock};

const MODES: [(&str, MemoryMode); 3] = [
    ("Uniform LRU", MemoryMode::UniformLru),
    ("Static+LRU", MemoryMode::StaticLru),
    ("LAMH", MemoryMode::Lamh),
];

const DATASET: Dataset = Dataset::P2p;

/// The paper's Fig. 12 x-axis: 3/4/5-CF, 3/4-MC, FSM-2K, FSM-3K. 4-MC at
/// full P2P scale exceeds a software simulation budget; we keep the
/// remaining variants.
const VARIANTS: [AppVariant; 5] = [
    AppVariant::Cf(3),
    AppVariant::Cf(4),
    AppVariant::Cf(5),
    AppVariant::Mc(3),
    AppVariant::Fsm,
];

fn config(mode: MemoryMode) -> GramerConfig {
    GramerConfig {
        budget: MemoryBudget::Fraction(0.10),
        memory_mode: mode,
        ..GramerConfig::default()
    }
}

/// Heavy-skew regime where the extension-locality premise holds at
/// simulator scale (gini ≈ 0.84).
fn heavy_graph() -> CsrGraph {
    let params = generate::RmatParams {
        a: 0.65,
        b: 0.15,
        c: 0.15,
        d: 0.05,
    };
    generate::rmat(11, 8000, params, 5)
}

/// The grid: every variant under every hierarchy on P2P, then 4-CF under
/// every hierarchy on the heavy-skew graph, generated once.
pub fn sweep(h: &Harness) -> Sweep<'_> {
    let d = DATASET;
    let mut sweep = h.sweep("fig12");
    for variant in VARIANTS {
        for (label, mode) in MODES {
            sweep.point(d.name(), &variant.name(d, h.scale), label, move || {
                h.point(d, variant, config(mode))
            });
        }
    }
    let heavy: Arc<OnceLock<CsrGraph>> = Arc::default();
    for (label, mode) in MODES {
        let heavy = Arc::clone(&heavy);
        sweep.point("rmat-skew", "4-CF", label, move || {
            // Clique finding's spec does not depend on the dataset.
            let app = AppVariant::Cf(4).spec(d, h.scale);
            h.run_gramer(heavy.get_or_init(heavy_graph), &app, config(mode))
                .map(PointOutput::from)
        });
    }
    sweep
}

/// Prints the hit ratios, cycles and speedups of both regimes.
pub fn table(result: &SweepResult) {
    let d = DATASET;
    println!(
        "Figure 12 — LAMH vs baselines on {} (10% of data on-chip)",
        d.name()
    );
    println!("(paper: Static+LRU > Uniform LRU by 13-37pp vertex hit; LAMH adds 1-6pp;");
    println!(" performance 1.6-2.95x then a further 1.06-1.39x)\n");
    println!(
        "{:<10} {:<12} {:>9} {:>9} {:>12} {:>10}",
        "App", "Hierarchy", "V-hit%", "E-hit%", "Cycles", "Speedup"
    );
    rule(68);
    for variant in VARIANTS {
        print_modes(result, d.name(), &variant.name(d, result.scale), true);
    }

    println!("\nSupplementary: heavy-skew regime (R-MAT a=0.65, gini≈0.84, 4-CF)");
    println!(
        "{:<10} {:<12} {:>9} {:>9} {:>12} {:>10}",
        "App", "Hierarchy", "V-hit%", "E-hit%", "Cycles", "Speedup"
    );
    rule(68);
    print_modes(result, "rmat-skew", "4-CF", false);
}

/// Prints one row per memory mode, with speedups against the uniform-LRU
/// baseline of the same `(dataset, app)` pair.
fn print_modes(result: &SweepResult, dataset: &str, app: &str, separator: bool) {
    let record = |label: &str| result.find(dataset, app, label);
    let baseline = record(MODES[0].0).and_then(PointRecord::cycles);
    let mut printed = false;
    for (label, _) in MODES {
        let Some(r) = record(label) else {
            continue;
        };
        let Some(cycles) = r.cycles() else {
            continue;
        };
        printed = true;
        let hit = |kind: &str| {
            let ratio = r.report_value(&format!("mem.{kind}.on_chip_ratio"));
            100.0 * ratio.and_then(JsonValue::as_f64).unwrap_or(0.0)
        };
        let speedup = baseline.map_or_else(
            || format!("{:>10}", "-"),
            |b| format!("{:>9.2}x", b as f64 / cycles as f64),
        );
        println!(
            "{:<10} {:<12} {:>8.2}% {:>8.2}% {:>12} {}",
            app,
            label,
            hit("vertex"),
            hit("edge"),
            cycles,
            speedup
        );
    }
    if separator && printed {
        rule(68);
    }
}
