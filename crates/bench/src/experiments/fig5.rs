//! Figure 5: extension locality — the fraction of memory accesses landing
//! on the top-5% vertices / edges as the embedding size grows (MC).
//!
//! The paper traces all memory requests per iteration on Citeseer, P2P,
//! Astro and Mico: the top-5% vertex share starts near 30% in iteration 1
//! and reaches 94.57% (Mico) by iteration 4; edges start at 5% (each edge
//! touched once for 2-vertex embeddings) and climb to ~88%.

use crate::{rule, Harness, PointOutput, Scale, Sweep, SweepResult};
use gramer::json::JsonValue;
use gramer_graph::datasets::Dataset;
use gramer_graph::VertexId;
use gramer_memsim::trace::IterationTrace;
use gramer_mining::apps::MotifCounting;
use gramer_mining::{AccessObserver, DfsEnumerator};

/// Traces accesses into one counter pair per iteration (the iteration of
/// an access = the size of the embedding being extended).
struct PerIteration {
    traces: Vec<IterationTrace>,
}

impl PerIteration {
    fn new(max: usize, vertices: usize, slots: usize) -> Self {
        PerIteration {
            traces: (0..=max)
                .map(|_| IterationTrace::new(vertices, slots))
                .collect(),
        }
    }
}

impl AccessObserver for PerIteration {
    fn vertex_access(&mut self, v: VertexId, size: usize) {
        self.traces[size].vertex.record(v as usize);
    }

    fn edge_access(&mut self, slot: usize, _src: u32, size: usize) {
        self.traces[size].edge.record(slot);
    }
}

/// Per-dataset iteration cap: the paper excludes iterations beyond 4 and
/// the largest graphs as too expensive to trace; we do the same (and cap
/// Astro/Mico at 3 at quick scale).
fn iteration_cap(d: Dataset, scale: Scale) -> usize {
    if scale == Scale::Quick && !matches!(d, Dataset::Citeseer | Dataset::P2p) {
        3
    } else {
        4
    }
}

/// The grid: one traced MC run per traceable graph.
pub fn sweep(h: &Harness) -> Sweep<'_> {
    let mut sweep = h.sweep("fig5");
    for d in Dataset::TRACEABLE {
        sweep.point(d.name(), "MC", "trace", move || {
            let g = h.analog(d);
            let cap = iteration_cap(d, h.scale);
            let mut obs = PerIteration::new(cap, g.num_vertices(), g.adjacency_len());
            let app = MotifCounting::new(cap).expect("valid size");
            DfsEnumerator::new(g).run_with_observer(&app, &mut obs);
            let iters = JsonValue::array((1..cap).filter_map(|iter| {
                let t = &obs.traces[iter];
                if t.vertex.total() == 0 {
                    return None;
                }
                Some(JsonValue::object([
                    ("iter", JsonValue::from(iter)),
                    ("vertex_top5", JsonValue::from(t.vertex.top_share(0.05))),
                    ("edge_top5", JsonValue::from(t.edge.top_share(0.05))),
                ]))
            }));
            PointOutput::new().metric("iterations", iters)
        });
    }
    sweep
}

/// Prints each graph's top-5% shares per iteration.
pub fn table(result: &SweepResult) {
    println!("Figure 5 — share of accesses to the top-5% data per MC iteration");
    println!("(paper: vertices 29.9% -> 94.6%, edges 5% -> 87.8% as iterations deepen)\n");
    println!(
        "{:<10} {:>5} {:>16} {:>16}",
        "Graph", "iter", "top5% vertices", "top5% edges"
    );
    rule(52);
    for d in Dataset::TRACEABLE {
        let Some(r) = result.find(d.name(), "MC", "trace") else {
            continue;
        };
        let iters = r
            .metric("iterations")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[]);
        for row in iters {
            let f = |key: &str| row.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
            println!(
                "{:<10} {:>5} {:>15.2}% {:>15.2}%",
                d.name(),
                f("iter") as usize,
                100.0 * f("vertex_top5"),
                100.0 * f("edge_top5")
            );
        }
        rule(52);
    }
}
