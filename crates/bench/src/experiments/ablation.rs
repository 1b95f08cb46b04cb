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

use gramer::pipeline::{clock_rate_mhz, AncestorMode};
use gramer::{GramerConfig, MemoMode, MemoryBudget, MemoryMode};
use gramer_bench::{rule, AppVariant, Harness, PointOutput, PointRecord, Sweep, SweepArgs};
use gramer_graph::datasets::Dataset;
use gramer_memsim::LatencyConfig;
use std::process::ExitCode;

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

/// Runs the sweep.
pub fn run(args: &SweepArgs, h: &Harness) -> ExitCode {
    let d = Dataset::P2p;
    let variant = AppVariant::Cf(4);
    let app = variant.name(d, h.scale);

    // Every simulated study is one point; the "default" run doubles as
    // the baseline of studies 1 and 2.
    let configs: [(&str, fn() -> GramerConfig); 11] = [
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

    let mut sweep = Sweep::new("ablation");
    for (label, cfg) in configs {
        sweep.point(d.name(), &app, label, move || h.point(d, variant, cfg()));
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
    let result = sweep.execute(args);

    println!("Ablations on {} ({app})\n", d.name());
    let record = |config: &str| result.find(d.name(), &app, config);
    let cycles = |config: &str| record(config).and_then(PointRecord::cycles);

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
    if let (Some(with_pf), Some(without_pf)) = (
        record("prefetch-on").and_then(PointRecord::report),
        record("prefetch-off").and_then(PointRecord::report),
    ) {
        println!(
            "prefetch on: {:>10} cycles (hit {:.2}%) | off: {:>10} cycles (hit {:.2}%) | gain {:.2}x\n",
            with_pf.cycles,
            100.0 * with_pf.hit_ratio(),
            without_pf.cycles,
            100.0 * without_pf.hit_ratio(),
            without_pf.cycles as f64 / with_pf.cycles as f64
        );
    }

    println!("5. locality-preserved replacement vs LRU (10% on-chip)");
    rule(66);
    if let (Some(lamh), Some(static_lru)) = (
        record("lamh").and_then(PointRecord::report),
        record("static-lru").and_then(PointRecord::report),
    ) {
        println!(
            "LAMH: {:>10} cycles (hit {:.2}%) | Static+LRU: {:>10} cycles (hit {:.2}%) | gain {:.2}x",
            lamh.cycles,
            100.0 * lamh.hit_ratio(),
            static_lru.cycles,
            100.0 * static_lru.hit_ratio(),
            static_lru.cycles as f64 / lamh.cycles as f64
        );
    }

    println!("\n6. recurrent-pattern pair memo (DESIGN.md \u{a7}10)");
    rule(66);
    if let (Some(base), Some(memo)) = (
        record("default").and_then(PointRecord::report),
        record("memo-on").and_then(PointRecord::report),
    ) {
        let hits = memo.memo.map_or(0, |s| s.hits);
        println!(
            "memo off: {:>10} cycles | on: {:>10} cycles ({} hits) | gain {:.2}x\n",
            base.cycles,
            memo.cycles,
            hits,
            base.cycles as f64 / memo.cycles as f64
        );
    }

    println!("7. \u{3bb} autotuning over LAMH (10% on-chip)");
    rule(66);
    if let (Some(fixed), Some(adaptive)) = (
        record("lamh").and_then(PointRecord::report),
        record("adaptive-lambda").and_then(PointRecord::report),
    ) {
        println!(
            "fixed \u{3bb}: {:>10} cycles (hit {:.2}%) | adaptive: {:>10} cycles (hit {:.2}%, {} retunes) | gain {:.2}x\n",
            fixed.cycles,
            100.0 * fixed.hit_ratio(),
            adaptive.cycles,
            100.0 * adaptive.hit_ratio(),
            adaptive.lambda_retunes.unwrap_or(0),
            fixed.cycles as f64 / adaptive.cycles as f64
        );
    }

    println!("8. runtime scratchpad re-pinning (10% on-chip)");
    rule(66);
    if let (Some(pinned), Some(repin)) = (
        record("repin-off").and_then(PointRecord::report),
        record("repin-on").and_then(PointRecord::report),
    ) {
        println!(
            "static pins: {:>10} cycles (hit {:.2}%) | re-pinned: {:>10} cycles (hit {:.2}%, {} epochs) | gain {:.2}x",
            pinned.cycles,
            100.0 * pinned.hit_ratio(),
            repin.cycles,
            100.0 * repin.hit_ratio(),
            repin.pin_epochs.unwrap_or(0),
            pinned.cycles as f64 / repin.cycles as f64
        );
    }
    gramer_bench::finish(&result)
}
