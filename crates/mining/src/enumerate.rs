use crate::counts::{MiningResult, PatternCounts};
use crate::ecm::EcmApp;
use crate::embedding::Embedding;
use crate::explorer::{Explorer, Step};
use crate::observer::{AccessObserver, NullObserver};
use crate::pattern::PatternInterner;
use gramer_graph::CsrGraph;

/// The depth-first enumerator — the computational model GRAMER adopts
/// (§V-A, following Fractal): each initial embedding is recursively
/// extended to completion before the next one starts; intermediate
/// embeddings live only on the traceback stack.
///
/// # Example
///
/// ```
/// use gramer_graph::generate;
/// use gramer_mining::{apps::CliqueFinding, DfsEnumerator};
///
/// let g = generate::complete(5);
/// let r = DfsEnumerator::new(&g).run(&CliqueFinding::new(3).unwrap());
/// assert_eq!(r.total_at(3), 10);
/// ```
#[derive(Debug)]
pub struct DfsEnumerator<'g> {
    graph: &'g CsrGraph,
}

impl<'g> DfsEnumerator<'g> {
    /// Creates an enumerator over `graph`.
    pub fn new(graph: &'g CsrGraph) -> Self {
        DfsEnumerator { graph }
    }

    /// Mines `app` to completion.
    pub fn run<A: EcmApp>(&self, app: &A) -> MiningResult {
        self.run_with_observer(app, &mut NullObserver)
    }

    /// Mines `app`, reporting every memory access to `observer`.
    pub fn run_with_observer<A: EcmApp, O: AccessObserver>(
        &self,
        app: &A,
        observer: &mut O,
    ) -> MiningResult {
        let mut interner = PatternInterner::new();
        let mut counts = PatternCounts::new();
        let mut embeddings = 0u64;
        let mut candidates = 0u64;
        let max = app.max_vertices();
        let mut accepted_by_size = vec![0u64; max + 1];
        let mut candidates_by_size = vec![0u64; max + 1];

        for root in self.graph.vertices() {
            let mut ex = Explorer::new(self.graph, root);
            loop {
                match ex.step(observer) {
                    Step::Candidate => {
                        candidates += 1;
                        let emb = ex.embedding();
                        candidates_by_size[emb.len()] += 1;
                        if app.filter(self.graph, emb) {
                            embeddings += 1;
                            accepted_by_size[emb.len()] += 1;
                            app.process(self.graph, emb, &mut interner, &mut counts);
                            if emb.len() < max {
                                ex.descend();
                            } else {
                                ex.retract();
                            }
                        } else {
                            ex.retract();
                        }
                    }
                    Step::Rejected => {
                        candidates += 1;
                        // The rejected candidate would have extended the
                        // current embedding by one vertex.
                        candidates_by_size[(ex.embedding().len() + 1).min(max)] += 1;
                    }
                    Step::Traceback => {}
                    Step::Done => break,
                }
            }
        }

        MiningResult {
            counts,
            interner,
            embeddings,
            candidates_examined: candidates,
            accepted_by_size,
            candidates_by_size,
        }
    }
}

/// Per-level statistics of a BFS run — the intermediate-result volume that
/// RStream must spill to disk (§V-A: "storing these intermediate
/// embeddings requires an off-chip memory capacity far beyond what an
/// accelerator can afford").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfsLevelStats {
    /// Embedding size produced at this level.
    pub size: usize,
    /// Number of embeddings materialised.
    pub frontier_len: u64,
    /// Bytes needed to materialise the frontier (4 bytes per vertex ID, as
    /// in a CSR-tuple layout).
    pub bytes: u64,
}

/// The breadth-first (level-synchronous) enumerator of Arabesque and
/// RStream (§V-A): every iteration materialises the full frontier of the
/// next size before proceeding.
///
/// Semantically equivalent to [`DfsEnumerator`] — integration tests assert
/// identical counts — but with the memory-footprint behaviour the paper
/// contrasts against. When the application uses aggregation (FSM), the
/// per-level pattern counts are consulted through
/// [`EcmApp::aggregate_filter`] before extension, mirroring Algorithm 1's
/// line 4.
#[derive(Debug)]
pub struct BfsEnumerator<'g> {
    graph: &'g CsrGraph,
}

impl<'g> BfsEnumerator<'g> {
    /// Creates an enumerator over `graph`.
    pub fn new(graph: &'g CsrGraph) -> Self {
        BfsEnumerator { graph }
    }

    /// Mines `app` to completion, returning the result and the per-level
    /// materialisation statistics.
    pub fn run<A: EcmApp>(&self, app: &A) -> (MiningResult, Vec<BfsLevelStats>) {
        self.run_with_observer(app, &mut NullObserver)
    }

    /// Mines `app` with an access observer.
    pub fn run_with_observer<A: EcmApp, O: AccessObserver>(
        &self,
        app: &A,
        observer: &mut O,
    ) -> (MiningResult, Vec<BfsLevelStats>) {
        let mut interner = PatternInterner::new();
        let mut counts = PatternCounts::new();
        let mut embeddings = 0u64;
        let mut candidates = 0u64;
        let mut levels = Vec::new();
        let max = app.max_vertices();
        let mut accepted_by_size = vec![0u64; max + 1];
        let mut candidates_by_size = vec![0u64; max + 1];

        // Iteration 0 frontier: every vertex (Algorithm 1, line 1).
        let mut frontier: Vec<Embedding> = self.graph.vertices().map(Embedding::single).collect();

        while !frontier.is_empty() && frontier[0].len() < max {
            let mut next = Vec::new();
            for emb in &frontier {
                // Aggregate_filter (Algorithm 1, line 4): embeddings whose
                // pattern has fallen below the viability bar stop extending.
                if app.uses_aggregation() && emb.len() >= 2 {
                    let pid = interner.intern(self.graph, emb);
                    if !app.aggregate_filter(counts.get(emb.len(), pid)) {
                        continue;
                    }
                }
                let mut ex = Explorer::with_embedding(self.graph, *emb);
                loop {
                    match ex.step(observer) {
                        Step::Candidate => {
                            candidates += 1;
                            let child = *ex.embedding();
                            candidates_by_size[child.len()] += 1;
                            if app.filter(self.graph, &child) {
                                embeddings += 1;
                                accepted_by_size[child.len()] += 1;
                                app.process(self.graph, &child, &mut interner, &mut counts);
                                next.push(child);
                            }
                            ex.retract();
                        }
                        Step::Rejected => {
                            candidates += 1;
                            candidates_by_size[(ex.embedding().len() + 1).min(max)] += 1;
                        }
                        Step::Traceback | Step::Done => break,
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            let size = next[0].len();
            levels.push(BfsLevelStats {
                size,
                frontier_len: next.len() as u64,
                bytes: next.len() as u64 * size as u64 * 4,
            });
            frontier = next;
        }

        (
            MiningResult {
                counts,
                interner,
                embeddings,
                candidates_examined: candidates,
                accepted_by_size,
                candidates_by_size,
            },
            levels,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{CliqueFinding, FrequentSubgraphMining, MotifCounting};
    use gramer_graph::generate;

    #[test]
    fn dfs_equals_bfs_counts() {
        let g = generate::rmat(6, 250, generate::RmatParams::default(), 12);
        let app = MotifCounting::new(4).unwrap();
        let dfs = DfsEnumerator::new(&g).run(&app);
        let (bfs, _) = BfsEnumerator::new(&g).run(&app);
        assert_eq!(dfs.embeddings, bfs.embeddings);
        for (size, pid, count) in dfs.counts.sorted() {
            let pattern = dfs.interner.pattern(pid);
            let matched: u64 = bfs
                .counts
                .sorted()
                .into_iter()
                .filter(|&(s, p, _)| s == size && bfs.interner.pattern(p) == pattern)
                .map(|(_, _, c)| c)
                .sum();
            assert_eq!(count, matched, "size {size} pattern {pattern:?}");
        }
    }

    #[test]
    fn dfs_equals_bfs_for_cliques() {
        let g = generate::barabasi_albert(60, 4, 2);
        let app = CliqueFinding::new(4).unwrap();
        let dfs = DfsEnumerator::new(&g).run(&app);
        let (bfs, _) = BfsEnumerator::new(&g).run(&app);
        assert_eq!(dfs.total_at(4), bfs.total_at(4));
    }

    #[test]
    fn bfs_levels_report_explosion() {
        let g = generate::complete(8);
        let (_, levels) = BfsEnumerator::new(&g).run(&MotifCounting::new(4).unwrap());
        assert_eq!(levels.len(), 3);
        // Frontier grows with embedding size in a complete graph.
        assert!(levels[1].frontier_len > levels[0].frontier_len);
        assert_eq!(levels[0].frontier_len, 28); // C(8,2) edges
        assert_eq!(levels[1].frontier_len, 56); // C(8,3) triangles
        assert!(levels[2].bytes > levels[2].frontier_len);
    }

    #[test]
    fn clique_filter_prunes_extension() {
        // In a sparse graph CF examines far fewer candidates than MC.
        let g = generate::barabasi_albert(80, 3, 4);
        let cf = DfsEnumerator::new(&g).run(&CliqueFinding::new(4).unwrap());
        let mc = DfsEnumerator::new(&g).run(&MotifCounting::new(4).unwrap());
        assert!(cf.candidates_examined < mc.candidates_examined);
    }

    #[test]
    fn fsm_aggregation_prunes_bfs_frontier() {
        // Labeled graph where one 2-vertex pattern is rare: with a high
        // threshold, the BFS engine must examine fewer candidates than
        // with threshold 1.
        let g = generate::with_random_labels(&generate::barabasi_albert(50, 3, 7), 4, 7);
        let (lo, _) = BfsEnumerator::new(&g).run(&FrequentSubgraphMining::new(1));
        let (hi, _) = BfsEnumerator::new(&g).run(&FrequentSubgraphMining::new(10_000));
        assert!(hi.candidates_examined < lo.candidates_examined);
    }

    #[test]
    fn observer_access_totals_match_between_runs() {
        let g = generate::barabasi_albert(40, 2, 3);
        let app = MotifCounting::new(3).unwrap();
        let mut a = crate::CountingObserver::default();
        let mut b = crate::CountingObserver::default();
        DfsEnumerator::new(&g).run_with_observer(&app, &mut a);
        DfsEnumerator::new(&g).run_with_observer(&app, &mut b);
        assert_eq!(a.vertex_accesses, b.vertex_accesses);
        assert_eq!(a.edge_accesses, b.edge_accesses);
    }
}
