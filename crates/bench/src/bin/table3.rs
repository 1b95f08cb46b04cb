//! Table III: running time of GRAMER against Fractal and RStream.
//!
//! GRAMER's time is `simulated cycles / 200 MHz`; the baselines come from
//! the calibrated cost models in `gramer-baselines` driven by a measured
//! CPU profile of the same workload (real enumeration, modeled caches).
//! Datasets are scaled power-law analogs (divisors printed below), so
//! absolute seconds differ from the paper — the comparison targets are
//! the *ratios*: 1.8–24.9× vs Fractal, 1.11–129.95× vs RStream, with
//! RStream collapsing (or running out of disk) when intermediates
//! explode.
//!
//! Heavy cells can exceed a software simulator's budget; set
//! `GRAMER_QUICK=1` to shrink the graphs 4×.

use gramer::GramerConfig;
use gramer_baselines::{FractalModel, RstreamModel, RstreamOutcome};
use gramer_bench::{
    divisor, fmt_secs, rule, run_gramer, AnalogCache, AppVariant, PointOutput, Sweep, SweepArgs,
};
use gramer_graph::datasets::Dataset;

fn main() -> std::process::ExitCode {
    let args = SweepArgs::parse();
    let cache = AnalogCache::new();

    let mut sweep = Sweep::new("table3");
    for variant in AppVariant::TABLE3 {
        for d in Dataset::ALL {
            // The paper itself omits the heaviest cells ('-'); we skip the
            // combinations whose *scaled* analogs still explode.
            if skip(variant, d) {
                continue;
            }
            let cache = &cache;
            sweep.point(d.name(), &variant.name(d), "vs-baselines", move || {
                let g = cache.get(d);
                let app = variant.spec(d);
                let report = run_gramer(g, &app, GramerConfig::default())?;
                let profile = gramer_baselines::profile_on_cpu(g, &app.ecm());
                let fr = FractalModel::default().estimate_seconds(&profile);
                let rs = RstreamModel::default().estimate(&profile);
                let wall = report.wall_seconds();
                let mut out = PointOutput::new()
                    .metric("gramer_seconds", wall)
                    .metric("fractal_seconds", fr)
                    .metric("fractal_over_gramer", fr / wall)
                    .metric("rstream", rs.to_string());
                if let RstreamOutcome::Seconds(s) = rs {
                    out = out.metric("rstream_over_gramer", s / wall);
                }
                out.report = Some(report);
                Ok::<_, gramer::SimError>(out)
            });
        }
    }
    let result = sweep.execute(&args);

    println!("Table III — running time (seconds), scaled analogs");
    println!("(paper ratios: Fractal/GRAMER 1.8-24.9x, RStream/GRAMER 1.11-129.95x)\n");
    println!(
        "{:<10} {:<10} {:>10} {:>10} {:>10} {:>8} {:>9}",
        "App", "Graph", "GRAMER", "Fractal", "RStream", "Fr/Gr", "RS/Gr"
    );
    rule(74);
    for variant in AppVariant::TABLE3 {
        let mut printed = false;
        for d in Dataset::ALL {
            let Some(r) = result.find(d.name(), &variant.name(d), "vs-baselines") else {
                continue;
            };
            printed = true;
            let f = |key: &str| r.metric_f64(key).unwrap_or(0.0);
            let rs_text = r
                .metric("rstream")
                .and_then(gramer::json::JsonValue::as_str)
                .unwrap_or("-");
            let rs_ratio = match r.metric_f64("rstream_over_gramer") {
                Some(x) => format!("{x:>8.2}x"),
                None => format!("{rs_text:>9}"),
            };
            println!(
                "{:<10} {:<10} {:>10} {:>10} {:>10} {:>7.2}x {}",
                variant.name(d),
                d.name(),
                fmt_secs(f("gramer_seconds")),
                fmt_secs(f("fractal_seconds")),
                rs_text,
                f("fractal_over_gramer"),
                rs_ratio
            );
        }
        if printed {
            rule(74);
        }
    }

    println!(
        "\nscale divisors: {:?}",
        Dataset::ALL
            .iter()
            .map(|&d| (d.name(), divisor(d)))
            .collect::<Vec<_>>()
    );
    gramer_bench::finish(&result)
}

/// Cells whose scaled analogs still exceed a software-simulation budget.
/// The paper's own table has '-' (not finished within an hour) and 'N/A'
/// cells for the same structural reason.
fn skip(variant: AppVariant, d: Dataset) -> bool {
    let heavy_graph = matches!(d, Dataset::Astro | Dataset::Mico | Dataset::LiveJournal);
    match variant {
        AppVariant::Cf(5) => heavy_graph && gramer_bench::quick_mode(),
        AppVariant::Mc(4) => heavy_graph,
        _ => false,
    }
}
