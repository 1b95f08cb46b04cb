//! Host-side cost of full simulated runs (preprocess + cycle simulation),
//! i.e. how fast the simulator itself is.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gramer::{preprocess, GramerConfig, MemoMode, MemoryBudget, Simulator};
use gramer_graph::datasets::Dataset;
use gramer_graph::generate;
use gramer_mining::apps::{CliqueFinding, MotifCounting};
use gramer_mining::DEFAULT_MEMO_BYTES;

fn end_to_end(c: &mut Criterion) {
    let g = Dataset::Citeseer.generate_scaled(2);
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("simulate", "3-CF"), |b| {
        let cfg = GramerConfig::default();
        let pre = preprocess(&g, &cfg).expect("valid config");
        let app = CliqueFinding::new(3).expect("valid");
        b.iter(|| {
            let sim = Simulator::new(&pre, cfg.clone()).expect("valid config");
            sim.run(&app).expect("run succeeds").cycles
        })
    });
    group.bench_function(BenchmarkId::new("simulate", "3-MC"), |b| {
        let cfg = GramerConfig::default();
        let pre = preprocess(&g, &cfg).expect("valid config");
        let app = MotifCounting::new(3).expect("valid");
        b.iter(|| {
            let sim = Simulator::new(&pre, cfg.clone()).expect("valid config");
            sim.run(&app).expect("run succeeds").cycles
        })
    });
    // The paper's regime: a graph ten times the on-chip budget, so about
    // a third of accesses go to DRAM, steps wait thousands of cycles in
    // its queues, and the pair memo answers connectivity probes.
    group.bench_function(BenchmarkId::new("simulate", "4-CF@spill"), |b| {
        let spill = generate::barabasi_albert(3_000, 5, 1);
        let cfg = GramerConfig {
            budget: MemoryBudget::Fraction(0.1),
            memo: MemoMode::On {
                bytes: DEFAULT_MEMO_BYTES,
            },
            ..GramerConfig::default()
        };
        let pre = preprocess(&spill, &cfg).expect("valid config");
        let app = CliqueFinding::new(4).expect("valid");
        b.iter(|| {
            let sim = Simulator::new(&pre, cfg.clone()).expect("valid config");
            sim.run(&app).expect("run succeeds").cycles
        })
    });
    group.bench_function("preprocess", |b| {
        let cfg = GramerConfig::default();
        b.iter(|| preprocess(&g, &cfg).expect("valid config").vertex_pin)
    });
    group.finish();
}

criterion_group!(benches, end_to_end);
criterion_main!(benches);
