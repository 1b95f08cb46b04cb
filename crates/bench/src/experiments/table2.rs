//! Table II: resource utilisation and clock rate.
//!
//! RTL synthesis is unavailable, so this prints the analytic area and
//! clock models of the `gramer` crate (substitution documented in
//! DESIGN.md). The models are calibrated once against the CF column; the
//! FSM/MC differences follow from their pattern-tracking state.

use crate::{rule, Harness, PointOutput, Sweep, SweepResult};
use gramer::pipeline::{clock_rate_mhz, AncestorMode};
use gramer::{area, GramerConfig, MemoryBudget};

const APPS: [(&str, bool); 3] = [("CF", false), ("FSM", true), ("MC", true)];

/// The grid: one analytic point per application (the points borrow
/// nothing from the harness).
pub fn sweep(h: &Harness) -> Sweep<'_> {
    let mut sweep = h.sweep("table2");
    for (app, patterns) in APPS {
        sweep.point("XCU250", app, "analytic", move || {
            let cfg = GramerConfig::default();
            let items = match cfg.budget {
                MemoryBudget::Items(n) => n,
                MemoryBudget::Fraction(_) => unreachable!("default budget is absolute"),
            };
            let a = area::estimate(&cfg, items, patterns);
            PointOutput::new()
                .metric("lut", a.lut)
                .metric("register", a.register)
                .metric("bram", a.bram)
                .metric(
                    "clock_mhz",
                    clock_rate_mhz(&cfg, AncestorMode::BufferedCompacted, patterns),
                )
        });
    }
    sweep
}

/// Prints the modeled resources and clock rate per application.
pub fn table(result: &SweepResult) {
    println!("Table II — resource utilisation and clock rate (modeled XCU250)");
    println!("(paper: LUT ~25.4-25.5%, Register ~13.1%, BRAM ~65.7%, 207-213 MHz)\n");
    println!("{:<12} {:>10} {:>10} {:>10}", "", "CF", "FSM", "MC");
    rule(46);

    let cell = |app: &str, key: &str| {
        result
            .find("XCU250", app, "analytic")
            .and_then(|r| r.metric_f64(key))
    };
    for (label, key) in [("LUT", "lut"), ("Register", "register"), ("BRAM", "bram")] {
        print!("{label:<12}");
        for (app, _) in APPS {
            match cell(app, key) {
                Some(x) => print!(" {:>10}", format!("{:.2}%", 100.0 * x)),
                None => print!(" {:>10}", "-"),
            }
        }
        println!();
    }
    print!("{:<12}", "Clock Rate");
    for (app, _) in APPS {
        match cell(app, "clock_mhz") {
            Some(mhz) => print!(" {:>10}", format!("{mhz:.0}MHz")),
            None => print!(" {:>10}", "-"),
        }
    }
    println!();
}
