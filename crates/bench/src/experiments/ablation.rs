//! Ablations of GRAMER design choices called out in DESIGN.md, measured
//! in simulated cycles / state bytes rather than host time:
//!
//! 1. vertex/edge memory isolation (the paper's §IV-A design point) vs a
//!    shared-port configuration;
//! 2. adaptive round-robin dispatch vs static pre-assignment (§V-C);
//! 3. compacted vs full ancestor records (Fig. 10's storage saving);
//! 4. next-line edge prefetching at constrained capacity;
//! 5. the locality-preserved policy vs plain LRU in the low-priority
//!    memory at constrained capacity;
//! 6. the recurrent-pattern pair memo vs the reference probe path
//!    (DESIGN.md §10);
//! 7. λ autotuning on top of the locality-preserved policy at
//!    constrained capacity;
//! 8. runtime scratchpad re-pinning vs the static ON1 pin set at
//!    constrained capacity.

use crate::{rule, AppVariant, Harness, PointOutput, PointRecord, Sweep, SweepResult};
use gramer::json::JsonValue;
use gramer::pipeline::{clock_rate_mhz, AncestorMode};
use gramer::{GramerConfig, MemoMode, MemoryBudget, MemoryMode};
use gramer_graph::datasets::Dataset;
use gramer_memsim::LatencyConfig;

const DATASET: Dataset = Dataset::P2p;
const VARIANT: AppVariant = AppVariant::Cf(4);

fn constrained(budget: bool) -> GramerConfig {
    if budget {
        GramerConfig {
            budget: MemoryBudget::Fraction(0.10),
            ..GramerConfig::default()
        }
    } else {
        GramerConfig::default()
    }
}

/// One simulated study: its name and the config it runs.
type Study = (&'static str, fn() -> GramerConfig);

/// Every simulated study is one point; the "default" run doubles as the
/// baseline of studies 1 and 2.
const STUDIES: [Study; 11] = [
    ("default", || constrained(false)),
    ("shared-port", || GramerConfig {
        latency: LatencyConfig {
            ports_per_bank: 1,
            ..LatencyConfig::default()
        },
        ..GramerConfig::default()
    }),
    ("static-dispatch", || GramerConfig {
        static_dispatch: true,
        ..GramerConfig::default()
    }),
    ("prefetch-on", || GramerConfig {
        next_line_prefetch: true,
        ..constrained(true)
    }),
    ("prefetch-off", || GramerConfig {
        next_line_prefetch: false,
        ..constrained(true)
    }),
    ("lamh", || GramerConfig {
        memory_mode: MemoryMode::Lamh,
        ..constrained(true)
    }),
    ("static-lru", || GramerConfig {
        memory_mode: MemoryMode::StaticLru,
        ..constrained(true)
    }),
    ("memo-on", || GramerConfig {
        memo: MemoMode::On {
            bytes: gramer_mining::DEFAULT_MEMO_BYTES,
        },
        ..GramerConfig::default()
    }),
    ("adaptive-lambda", || GramerConfig {
        memory_mode: MemoryMode::Lamh,
        adaptive_lambda: true,
        ..constrained(true)
    }),
    ("repin-off", || constrained(true)),
    ("repin-on", || GramerConfig {
        repin: true,
        ..constrained(true)
    }),
];

/// The grid: every study's point on P2P 4-CF, plus the analytic
/// compaction point.
pub fn sweep(h: &Harness) -> Sweep<'_> {
    let d = DATASET;
    let app = VARIANT.name(d, h.scale);
    let mut sweep = h.sweep("ablation");
    for (label, cfg) in STUDIES {
        sweep.point(d.name(), &app, label, move || h.point(d, VARIANT, cfg()));
    }
    sweep.point(d.name(), &app, "compaction", || {
        let cfg = GramerConfig::default();
        // Ancestor-record footprint: all vertices of a max embedding vs
        // the compacted (index, vertex) pair (Fig. 10).
        let full_bytes = cfg.slots_per_pu * cfg.ancestor_depth * 5 * 6;
        let compact_bytes = cfg.slots_per_pu * cfg.ancestor_depth * 6;
        PointOutput::new()
            .metric("full_bytes_per_pu", full_bytes)
            .metric("compact_bytes_per_pu", compact_bytes)
            .metric(
                "buffered_mhz",
                clock_rate_mhz(&cfg, AncestorMode::Buffered, false),
            )
            .metric(
                "compacted_mhz",
                clock_rate_mhz(&cfg, AncestorMode::BufferedCompacted, false),
            )
    });
    sweep
}

/// Prints each study's comparison.
pub fn table(result: &SweepResult) {
    let d = DATASET;
    let app = VARIANT.name(d, result.scale);
    println!("Ablations on {} ({app})\n", d.name());
    let record = |config: &str| result.find(d.name(), &app, config);
    let cycles = |config: &str| record(config).and_then(PointRecord::cycles);
    let report = |config: &str, path: &str| record(config)?.report_value(path);
    let hit = |config: &str| {
        let ratio = report(config, "hit_ratio").and_then(JsonValue::as_f64);
        100.0 * ratio.unwrap_or(0.0)
    };
    let count = |config: &str, path: &str| {
        report(config, path)
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    };

    println!("1. vertex/edge bank isolation (dual ports) vs shared single port");
    rule(66);
    if let (Some(isolated), Some(shared)) = (cycles("default"), cycles("shared-port")) {
        println!(
            "isolated: {:>10} cycles | shared-port: {:>10} cycles | isolation gain {:.2}x\n",
            isolated,
            shared,
            shared as f64 / isolated as f64
        );
    }

    println!("2. adaptive round-robin dispatch vs static pre-assignment");
    rule(66);
    if let (Some(adaptive), Some(static_d)) = (cycles("default"), cycles("static-dispatch")) {
        println!(
            "adaptive: {:>10} cycles | static: {:>10} cycles | gain {:.2}x\n",
            adaptive,
            static_d,
            static_d as f64 / adaptive as f64
        );
    }

    println!("3. ancestor-record compaction (Fig. 10)");
    rule(66);
    if let Some(r) = record("compaction") {
        let f = |key: &str| r.metric_f64(key).unwrap_or(0.0);
        println!(
            "buffer bytes/PU: full {} -> compact {} ({:.1}x smaller); clock {:.0} -> {:.0} MHz\n",
            f("full_bytes_per_pu"),
            f("compact_bytes_per_pu"),
            f("full_bytes_per_pu") / f("compact_bytes_per_pu"),
            f("buffered_mhz"),
            f("compacted_mhz")
        );
    }

    println!("4. next-line edge prefetch (10% on-chip)");
    rule(66);
    if let (Some(with_pf), Some(without_pf)) = (cycles("prefetch-on"), cycles("prefetch-off")) {
        println!(
            "prefetch on: {:>10} cycles (hit {:.2}%) | off: {:>10} cycles (hit {:.2}%) | gain {:.2}x\n",
            with_pf,
            hit("prefetch-on"),
            without_pf,
            hit("prefetch-off"),
            without_pf as f64 / with_pf as f64
        );
    }

    println!("5. locality-preserved replacement vs LRU (10% on-chip)");
    rule(66);
    if let (Some(lamh), Some(static_lru)) = (cycles("lamh"), cycles("static-lru")) {
        println!(
            "LAMH: {:>10} cycles (hit {:.2}%) | Static+LRU: {:>10} cycles (hit {:.2}%) | gain {:.2}x",
            lamh,
            hit("lamh"),
            static_lru,
            hit("static-lru"),
            static_lru as f64 / lamh as f64
        );
    }

    println!("\n6. recurrent-pattern pair memo (DESIGN.md \u{a7}10)");
    rule(66);
    if let (Some(base), Some(memo)) = (cycles("default"), cycles("memo-on")) {
        println!(
            "memo off: {:>10} cycles | on: {:>10} cycles ({} hits) | gain {:.2}x\n",
            base,
            memo,
            count("memo-on", "memo.hits"),
            base as f64 / memo as f64
        );
    }

    println!("7. \u{3bb} autotuning over LAMH (10% on-chip)");
    rule(66);
    if let (Some(fixed), Some(adaptive)) = (cycles("lamh"), cycles("adaptive-lambda")) {
        println!(
            "fixed \u{3bb}: {:>10} cycles (hit {:.2}%) | adaptive: {:>10} cycles (hit {:.2}%, {} retunes) | gain {:.2}x\n",
            fixed,
            hit("lamh"),
            adaptive,
            hit("adaptive-lambda"),
            count("adaptive-lambda", "lambda_retunes"),
            fixed as f64 / adaptive as f64
        );
    }

    println!("8. runtime scratchpad re-pinning (10% on-chip)");
    rule(66);
    if let (Some(pinned), Some(repin)) = (cycles("repin-off"), cycles("repin-on")) {
        println!(
            "static pins: {:>10} cycles (hit {:.2}%) | re-pinned: {:>10} cycles (hit {:.2}%, {} epochs) | gain {:.2}x",
            pinned,
            hit("repin-off"),
            repin,
            hit("repin-on"),
            count("repin-on", "pin_epochs"),
            pinned as f64 / repin as f64
        );
    }
}
