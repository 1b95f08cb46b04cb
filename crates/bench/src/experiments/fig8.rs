//! Figure 8: accuracy and cost of the ON_k heuristic (MC on P2P).
//!
//! (a) Accuracy = how much of the *ideal* top-5% set (ranked by traced
//! access counts per iteration) the ON_k prediction covers. The paper
//! finds 1-hop ON already exceeds 80% for all iterations.
//! (b) Overheads = ON_k computation time normalised to the mining time;
//! the paper reports k = 3 blowing up by up to 8500× while k = 1 stays
//! cheap.

use crate::{rule, Harness, PointOutput, Sweep, SweepResult};
use gramer_graph::datasets::Dataset;
use gramer_graph::{on1, VertexId};
use gramer_memsim::trace::AccessCounter;
use gramer_mining::apps::MotifCounting;
use gramer_mining::{AccessObserver, DfsEnumerator};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

const MAX_SIZE: usize = 4;
const DATASET: Dataset = Dataset::P2p;

struct VertexTracePerIter {
    counters: Vec<AccessCounter>,
}

impl AccessObserver for VertexTracePerIter {
    fn vertex_access(&mut self, v: VertexId, size: usize) {
        self.counters[size].record(v as usize);
    }

    fn edge_access(&mut self, _slot: usize, _src: u32, _size: usize) {}
}

/// The ideal per-iteration top-5% masks plus the mining wall time, traced
/// once and shared by every k-hop point.
struct Trace {
    ideal: Vec<Vec<bool>>,
    mine_secs: f64,
}

fn trace(g: &gramer_graph::CsrGraph) -> Trace {
    let mut obs = VertexTracePerIter {
        counters: (0..=MAX_SIZE)
            .map(|_| AccessCounter::new(g.num_vertices()))
            .collect(),
    };
    let mine_start = Instant::now();
    DfsEnumerator::new(g)
        .run_with_observer(&MotifCounting::new(MAX_SIZE).expect("valid"), &mut obs);
    Trace {
        ideal: (1..MAX_SIZE)
            .map(|iter| obs.counters[iter].top_fraction_mask(0.05))
            .collect(),
        mine_secs: mine_start.elapsed().as_secs_f64(),
    }
}

/// The grid: one point per ON_k radius, all sharing one trace of P2P.
pub fn sweep(h: &Harness) -> Sweep<'_> {
    let d = DATASET;
    let shared: Arc<OnceLock<Trace>> = Arc::default();
    let mut sweep = h.sweep("fig8");
    for k in 0..=3usize {
        let shared = Arc::clone(&shared);
        sweep.point(d.name(), "MC", &format!("{k}-hop"), move || {
            let g = h.analog(d);
            let t = shared.get_or_init(|| trace(g));
            let t0 = Instant::now();
            let scores = on1::on_k_scores(g, k);
            let secs = t0.elapsed().as_secs_f64();
            let predicted = scores.top_fraction(0.05);
            let mut out = PointOutput::new()
                .metric("k", k)
                .metric("on_seconds", secs)
                .metric("mine_seconds", t.mine_secs)
                .metric("normalised", secs / t.mine_secs.max(1e-12));
            for (i, ideal) in t.ideal.iter().enumerate() {
                out = out.metric(
                    &format!("accuracy_iter{}", i + 1),
                    on1::top_set_accuracy(&predicted, ideal),
                );
            }
            out
        });
    }
    sweep
}

/// Prints each radius's accuracy per iteration and its overhead.
pub fn table(result: &SweepResult) {
    let d = DATASET;
    println!("Figure 8 — ON_k heuristic on {} (MC)", d.name());
    println!("(paper: 1-hop ON is >80% accurate at negligible cost; 3-hop costs up to 8500x)\n");

    println!("(a) accuracy of the predicted top-5% set");
    print!("{:<10}", "k-hop");
    for iter in 1..MAX_SIZE {
        print!("{:>12}", format!("iter {iter}"));
    }
    println!();
    rule(10 + 12 * (MAX_SIZE - 1));
    let record = |k: usize| result.find(d.name(), "MC", &format!("{k}-hop"));
    for k in 0..=3usize {
        let Some(r) = record(k) else { continue };
        print!("{:<10}", format!("{k}-hop ON"));
        for iter in 1..MAX_SIZE {
            let acc = r.metric_f64(&format!("accuracy_iter{iter}")).unwrap_or(0.0);
            print!("{:>11.1}%", 100.0 * acc);
        }
        println!();
    }

    let mine_secs = record(0)
        .and_then(|r| r.metric_f64("mine_seconds"))
        .unwrap_or(0.0);
    println!("\n(b) ON-computation overhead, normalised to mining time ({mine_secs:.3} s)");
    println!("{:<10} {:>12} {:>14}", "k-hop", "seconds", "normalised");
    rule(38);
    for k in 0..=3usize {
        let Some(r) = record(k) else { continue };
        println!(
            "{:<10} {:>12.6} {:>13.4}x",
            format!("{k}-hop"),
            r.metric_f64("on_seconds").unwrap_or(0.0),
            r.metric_f64("normalised").unwrap_or(0.0)
        );
    }
    let secs = |k: usize| record(k).and_then(|r| r.metric_f64("on_seconds"));
    if let (Some(h1), Some(h3)) = (secs(1), secs(3)) {
        println!("\n1-hop vs 3-hop cost ratio: {:.0}x", h3 / h1.max(1e-9));
    }
}
