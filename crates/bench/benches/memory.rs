//! Host-side cost of the memory-hierarchy components: the two replacement
//! policies, hybrid controller, banked subsystem.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gramer_memsim::policy::PolicyKind;
use gramer_memsim::{
    AccessPath, DataKind, DramConfig, HybridConfig, HybridMemory, LatencyConfig, MemorySubsystem,
    SetAssociativeCache, SubsystemConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn zipf_stream(n: u64, len: usize, seed: u64) -> Vec<u64> {
    // Cheap Zipf-ish stream: cube a uniform draw to concentrate mass.
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let r: f64 = rng.gen::<f64>();
            ((r * r * r) * n as f64) as u64
        })
        .collect()
}

fn policies(c: &mut Criterion) {
    let stream = zipf_stream(1 << 16, 1 << 15, 3);
    let mut group = c.benchmark_group("cache_policy");
    for (name, kind) in [
        ("lru", PolicyKind::Lru),
        ("locality", PolicyKind::LocalityPreserved { lambda: 1.0 }),
    ] {
        group.bench_function(BenchmarkId::new("access", name), |b| {
            b.iter(|| {
                let mut cache = SetAssociativeCache::new(256, 4, 0, kind);
                let mut hits = 0u64;
                for &item in &stream {
                    hits += cache.access(item, item as u32) as u64;
                }
                hits
            })
        });
    }
    group.finish();
}

fn hybrid_and_subsystem(c: &mut Criterion) {
    let stream = zipf_stream(1 << 16, 1 << 15, 9);
    let mut group = c.benchmark_group("memory");

    group.bench_function("hybrid_access", |b| {
        b.iter(|| {
            let mut m = HybridMemory::new(
                DataKind::Vertex,
                HybridConfig {
                    pinned: (0..1 << 16).map(|i| i < 3000).collect::<Vec<_>>().into(),
                    sets: 256,
                    ways: 4,
                    block_bits: 0,
                    policy: PolicyKind::default(),
                },
            );
            for &item in &stream {
                m.access(item, item as u32);
            }
            m.stats().total()
        })
    });

    // Every item pinned: isolates the subsystem's fixed per-access
    // overhead (routing, FIFO admission, port arbitration) from cache
    // and DRAM behavior. Real mining workloads resolve the large
    // majority of accesses in the scratchpad, so this path dominates
    // end-to-end simulator throughput.
    group.bench_function("subsystem_pinned_access", |b| {
        // Construction (mask scans, bank allocation) is hoisted out of
        // the measured loop: this bench tracks the per-access cost only.
        let hybrid = HybridConfig {
            pinned: vec![true; 1 << 16].into(),
            sets: 64,
            ways: 4,
            block_bits: 0,
            policy: PolicyKind::default(),
        };
        let mut mem = MemorySubsystem::new(SubsystemConfig {
            partitions: 8,
            vertex: hybrid.clone(),
            edge: hybrid,
            vertex_route_bits: 0,
            edge_route_bits: 2,
            next_line_prefetch: false,
            latency: LatencyConfig::default(),
            dram: DramConfig::default(),
            access_path: AccessPath::default(),
        });
        b.iter(|| {
            mem.reset();
            let mut now = 0;
            for &item in &stream {
                now = mem.access(DataKind::Edge, item, item as u32, now).finish;
            }
            now
        })
    });

    group.bench_function("subsystem_timed_access", |b| {
        b.iter(|| {
            let hybrid = HybridConfig {
                pinned: (0..1 << 16).map(|i| i < 3000).collect::<Vec<_>>().into(),
                sets: 64,
                ways: 4,
                block_bits: 0,
                policy: PolicyKind::default(),
            };
            let mut mem = MemorySubsystem::new(SubsystemConfig {
                partitions: 8,
                vertex: hybrid.clone(),
                edge: hybrid,
                vertex_route_bits: 0,
                edge_route_bits: 2,
                next_line_prefetch: false,
                latency: LatencyConfig::default(),
                dram: DramConfig::default(),
                access_path: AccessPath::default(),
            });
            let mut now = 0;
            for &item in &stream {
                now = mem.access(DataKind::Edge, item, item as u32, now).finish;
            }
            now
        })
    });
    group.finish();
}

criterion_group!(benches, policies, hybrid_and_subsystem);
criterion_main!(benches);
