//! Figure 3: pipeline stalls due to random vertex and edge accesses.
//!
//! The paper profiles CF/FSM/MC on five graphs with VTune on a 14-core
//! E5-2680 v4; we substitute the cache model of `gramer-memsim`. Because
//! the datasets are *scaled* analogs, the cache hierarchy is scaled by the
//! same divisor (floored at realistic minima) so the graph-size-to-cache
//! ratio — the variable Fig. 3 actually sweeps — is preserved. The
//! "Others" component is a lean mining loop (~25 cycles per extension
//! candidate), as VTune would see for the C++ engines.
//!
//! Paper's headline: small graphs (Citeseer) stall ~30%, growing to 67.9%
//! (Patents) as graphs outgrow the caches.

use crate::{divisor, rule, AppVariant, Harness, PointOutput, Scale, Sweep, SweepResult};
use gramer_baselines::profile_on_cpu_with;
use gramer_graph::datasets::Dataset;
use gramer_memsim::CpuCacheConfig;

/// Compute cycles per extension candidate of a tight native mining loop.
const COMPUTE_CYCLES_PER_ITEM: f64 = 25.0;

fn scaled_cache(d: Dataset, scale: Scale) -> CpuCacheConfig {
    let div = divisor(d, scale);
    let full = CpuCacheConfig::default();
    CpuCacheConfig {
        l1_bytes: (full.l1_bytes / div).max(1 << 10),
        l2_bytes: (full.l2_bytes / div).max(8 << 10),
        l3_bytes: (full.l3_bytes / div).max(256 << 10),
        ..full
    }
}

fn datasets() -> impl Iterator<Item = Dataset> {
    Dataset::TRACEABLE.iter().copied().chain([Dataset::Patents])
}

const VARIANTS: [AppVariant; 3] = [AppVariant::Cf(4), AppVariant::Fsm, AppVariant::Mc(3)];

/// The grid: every application on every traceable graph and Patents.
pub fn sweep(h: &Harness) -> Sweep<'_> {
    let scale = h.scale;
    let mut sweep = h.sweep("fig3");
    for d in datasets() {
        for variant in VARIANTS {
            sweep.point(
                d.name(),
                &variant.name(d, scale),
                "scaled-cache",
                move || {
                    let app = variant.spec(d, scale);
                    let profile =
                        profile_on_cpu_with(h.analog(d), &app.ecm(), scaled_cache(d, scale));
                    let compute = profile.work_items as f64 * COMPUTE_CYCLES_PER_ITEM;
                    let (v, e, o) = profile.stall_breakdown(compute);
                    PointOutput::new()
                        .metric("vertex_stall", v)
                        .metric("edge_stall", e)
                        .metric("others", o)
                        .metric("stall", v + e)
                        .metric("work_items", profile.work_items)
                },
            );
        }
    }
    sweep
}

/// Prints the stall breakdown of every point.
pub fn table(result: &SweepResult) {
    let scale = result.scale;
    println!("Figure 3 — performance breakdown on the modeled CPU (%)");
    println!("(paper: stalls grow from ~30% on cache-resident Citeseer to 67.9% on Patents)\n");
    println!(
        "{:<10} {:<10} {:>8} {:>12} {:>10} {:>8}",
        "Graph", "App", "Vertex%", "Edge%", "Others%", "Stall%"
    );
    rule(64);
    for d in datasets() {
        let mut printed = false;
        for variant in VARIANTS {
            let Some(r) = result.find(d.name(), &variant.name(d, scale), "scaled-cache") else {
                continue;
            };
            printed = true;
            let pct = |key: &str| 100.0 * r.metric_f64(key).unwrap_or(0.0);
            println!(
                "{:<10} {:<10} {:>7.1}% {:>11.1}% {:>9.1}% {:>7.1}%",
                d.name(),
                variant.name(d, scale),
                pct("vertex_stall"),
                pct("edge_stall"),
                pct("others"),
                pct("stall")
            );
        }
        if printed {
            rule(64);
        }
    }
    println!(
        "\nanalog scale divisors (cache hierarchy scaled alike): {:?}",
        datasets()
            .map(|d| (d.name(), divisor(d, scale)))
            .collect::<Vec<_>>()
    );
}
