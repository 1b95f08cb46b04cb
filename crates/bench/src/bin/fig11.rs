//! Figure 11: (a) energy consumption and (b) total time including
//! preprocessing, both normalised to GRAMER.
//!
//! Energy methodology follows §VI-B: GRAMER uses modeled on-chip power ×
//! time; CPU baselines use TDP × time; DRAM energy excluded on both
//! sides. The paper reports 9.4–129.7× savings vs Fractal and
//! 5.79–678.3× vs RStream, and preprocessing overheads up to 55% of
//! execution on tiny graphs but < 3% on medium ones.

use gramer::GramerConfig;
use gramer_baselines::{FractalModel, RstreamModel, RstreamOutcome};
use gramer_bench::{rule, run_gramer, AnalogCache, AppVariant, PointOutput, Sweep, SweepArgs};
use gramer_graph::datasets::Dataset;
use gramer_memsim::EnergyModel;

fn datasets() -> impl Iterator<Item = Dataset> {
    Dataset::ALL.into_iter().filter(|d| {
        !(matches!(d, Dataset::Astro | Dataset::Mico | Dataset::LiveJournal)
            && gramer_bench::quick_mode())
    })
}

fn main() -> std::process::ExitCode {
    let args = SweepArgs::parse();
    let variant = AppVariant::Cf(5); // the paper's Fig. 11(b) uses 5-CF
    let cache = AnalogCache::new();

    let mut sweep = Sweep::new("fig11");
    for d in datasets() {
        let cache = &cache;
        sweep.point(d.name(), &variant.name(d), "default", move || {
            let energy = EnergyModel::default();
            let g = cache.get(d);
            let app = variant.spec(d);
            let report = run_gramer(g, &app, GramerConfig::default())?;
            let profile = gramer_baselines::profile_on_cpu(g, &app.ecm());
            let gramer_e = energy.accel_power_w * report.wall_seconds();
            let fr_t = FractalModel::default().estimate_seconds(&profile);
            let fr_e = energy.cpu_energy(fr_t);
            let total = report.total_seconds();
            let preproc = 100.0 * report.preprocess_seconds / report.wall_seconds().max(1e-12);
            let mut out = PointOutput::new()
                .metric("fractal_energy_x", fr_e / gramer_e)
                .metric("fractal_time_x", fr_t / total)
                .metric("preprocess_pct", preproc);
            if let RstreamOutcome::Seconds(s) = RstreamModel::default().estimate(&profile) {
                out = out
                    .metric("rstream_energy_x", energy.cpu_energy(s) / gramer_e)
                    .metric("rstream_time_x", s / total);
            }
            out.report = Some(report);
            Ok::<_, gramer::SimError>(out)
        });
    }
    let result = sweep.execute(&args);

    println!("Figure 11 — energy and total time, normalised to GRAMER (5-CF)");
    println!("(paper: energy savings 9.4-129.7x vs Fractal, 5.79-678.3x vs RStream;");
    println!(" preprocessing <=55% of exec on tiny graphs, <3% on medium)\n");
    println!(
        "{:<10} {:>12} {:>12} {:>14} {:>14} {:>12}",
        "Graph", "E(Fractal)x", "E(RStream)x", "T(Fractal)x", "T(RStream)x", "Preproc%"
    );
    rule(80);
    for d in datasets() {
        let Some(r) = result.find(d.name(), &variant.name(d), "default") else {
            continue;
        };
        let norm = |key: &str| match r.metric_f64(key) {
            Some(v) => format!("{v:>11.2}x"),
            None => format!("{:>12}", "N/A"),
        };
        println!(
            "{:<10} {} {} {} {} {:>11.2}%",
            d.name(),
            norm("fractal_energy_x"),
            norm("rstream_energy_x"),
            norm("fractal_time_x"),
            norm("rstream_time_x"),
            r.metric_f64("preprocess_pct").unwrap_or(0.0)
        );
    }
    gramer_bench::finish(&result)
}
