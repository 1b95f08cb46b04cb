//! Table IV: clock rate with and without ancestor buffers and compaction.
//!
//! Produced by the calibrated critical-path model in `gramer::pipeline`
//! (RTL synthesis substituted; see DESIGN.md). The structural claim —
//! buffering beats flowing state, compaction beats wide buffer words —
//! emerges from the model, not from per-row constants.

use crate::{rule, Harness, PointOutput, Sweep, SweepResult};
use gramer::pipeline::{clock_rate_mhz, AncestorMode};
use gramer::GramerConfig;

const MODES: [(&str, AncestorMode); 3] = [
    ("w/o AB", AncestorMode::Flowing),
    ("w/ AB", AncestorMode::Buffered),
    ("w/ AB + Compaction", AncestorMode::BufferedCompacted),
];

/// The grid: one analytic point per ancestor mode (the points borrow
/// nothing from the harness).
pub fn sweep(h: &Harness) -> Sweep<'_> {
    let mut sweep = h.sweep("table4");
    for (label, mode) in MODES {
        sweep.point("pipeline", "clock-model", label, move || {
            let cfg = GramerConfig::default();
            PointOutput::new()
                .metric("cf_mhz", clock_rate_mhz(&cfg, mode, false))
                .metric("pattern_mhz", clock_rate_mhz(&cfg, mode, true))
        });
    }
    sweep
}

/// Prints the modeled clock rate per ancestor mode.
pub fn table(result: &SweepResult) {
    println!("Table IV — clock rate of GRAMER pipeline variants (modeled)");
    println!("(paper: w/o AB 78-80 MHz, w/ AB 96-97 MHz, w/ AB+Compaction 207-213 MHz)\n");
    println!("{:<22} {:>8} {:>8} {:>8}", "", "CF", "FSM", "MC");
    rule(50);

    let cf = |label: &str| {
        result
            .find("pipeline", "clock-model", label)
            .and_then(|r| r.metric_f64("cf_mhz"))
    };
    for (label, _) in MODES {
        let Some(r) = result.find("pipeline", "clock-model", label) else {
            continue;
        };
        let pat = r.metric_f64("pattern_mhz").unwrap_or(0.0);
        println!(
            "{:<22} {:>5.0}MHz {:>5.0}MHz {:>5.0}MHz",
            label,
            r.metric_f64("cf_mhz").unwrap_or(0.0),
            pat,
            pat
        );
    }

    if let (Some(base), Some(ab), Some(comp)) =
        (cf("w/o AB"), cf("w/ AB"), cf("w/ AB + Compaction"))
    {
        println!(
            "\nAB improves the clock by {:.1}% (paper: 23.1%); compaction adds {:.1}% (paper: 115.6%)",
            100.0 * (ab / base - 1.0),
            100.0 * (comp / ab - 1.0)
        );
    }
}
