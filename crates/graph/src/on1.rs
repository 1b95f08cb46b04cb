//! The occurrence-number (ON) heuristic of §IV-B.
//!
//! Equation (1) of the paper estimates how often a vertex will be touched
//! during embedding extension: the product, over distance rings
//! `dist = 0..=k`, of the summed degrees of the vertices at that distance.
//! Exhaustive computation (large `k`) is accurate but expensive — Fig. 8
//! shows the cost exploding by up to 8500× at `k = 3` — while the 1-hop
//! variant preserves most of the accuracy at negligible cost. GRAMER uses
//! `ON1` to decide which data is pinned in the high-priority memory and as
//! the rank term of the locality-preserved replacement policy (Eq. 2).

use crate::csr::{CsrGraph, VertexId};
use std::collections::VecDeque;

/// Per-vertex ON scores produced by [`on_k_scores`] or [`on1_scores`].
///
/// Scores are stored as `f64` because the product in Eq. (1) grows
/// multiplicatively with `k` and overflows integers on skewed graphs.
#[derive(Debug, Clone, PartialEq)]
pub struct OnScores {
    scores: Vec<f64>,
    hops: usize,
}

impl OnScores {
    /// The number of hops `k` these scores were computed with.
    pub fn hops(&self) -> usize {
        self.hops
    }

    /// The raw score of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn score(&self, v: VertexId) -> f64 {
        self.scores[v as usize]
    }

    /// All scores, indexed by vertex ID.
    pub fn as_slice(&self) -> &[f64] {
        &self.scores
    }

    /// Number of scored vertices.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Whether the score vector is empty.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Vertices sorted by descending score (ties broken by ascending ID, so
    /// the order — and hence the reordering of §IV-C — is deterministic).
    pub fn ranking(&self) -> Vec<VertexId> {
        let mut order: Vec<VertexId> = (0..self.scores.len() as VertexId).collect();
        // total_cmp keeps the sort deterministic even for non-finite
        // scores (which a pathological graph could produce) instead of
        // panicking mid-ranking.
        order.sort_by(|&a, &b| {
            self.scores[b as usize]
                .total_cmp(&self.scores[a as usize])
                .then(a.cmp(&b))
        });
        order
    }

    /// `rank[v]` = position of `v` in [`ranking`](Self::ranking)
    /// (0 = highest score). This is the `Rank(ON1(v))` of Eqs. (1)–(2).
    pub fn ranks(&self) -> Vec<u32> {
        let order = self.ranking();
        let mut rank = vec![0u32; order.len()];
        for (pos, &v) in order.iter().enumerate() {
            rank[v as usize] = pos as u32;
        }
        rank
    }

    /// The single highest-scoring vertex.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty.
    pub fn top_vertex(&self) -> VertexId {
        self.ranking()[0]
    }

    /// Membership mask of the top `tau` fraction of vertices
    /// (`{v | Rank(ON1(v)) <= τ·|V|}` in the paper's notation).
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not within `0.0..=1.0`.
    pub fn top_fraction(&self, tau: f64) -> Vec<bool> {
        assert!((0.0..=1.0).contains(&tau), "tau must be in [0, 1]");
        let n = self.scores.len();
        let keep = ((n as f64 * tau).round() as usize).min(n);
        let mut mask = vec![false; n];
        for &v in self.ranking().iter().take(keep) {
            mask[v as usize] = true;
        }
        mask
    }
}

/// Computes exact `ON_k` scores by a distance-limited BFS from every vertex
/// (Eq. 1 with `c = 1`).
///
/// This is the "exhaustive computation is expensive" branch of §IV-B; its
/// cost grows steeply with `k`, which [`crate::on1`]'s 1-hop fast path and
/// Fig. 8 both quantify.
///
/// # Example
///
/// ```
/// use gramer_graph::{generate, on1};
///
/// let g = generate::star(4);
/// let s = on1::on_k_scores(&g, 1);
/// assert_eq!(s.top_vertex(), 0); // the hub
/// ```
pub fn on_k_scores(graph: &CsrGraph, k: usize) -> OnScores {
    let n = graph.num_vertices();
    let mut scores = vec![0.0f64; n];
    let mut dist = vec![u32::MAX; n];
    let mut queue = VecDeque::new();

    for v in 0..n as VertexId {
        // ring_sum[d] = sum of degrees at distance d from v.
        let mut ring_sum = vec![0.0f64; k + 1];
        dist[v as usize] = 0;
        ring_sum[0] = graph.degree(v) as f64;
        queue.push_back(v);
        let mut visited = vec![v];
        while let Some(u) = queue.pop_front() {
            let du = dist[u as usize];
            if du as usize >= k {
                continue;
            }
            for &w in graph.neighbors(u) {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = du + 1;
                    ring_sum[(du + 1) as usize] += graph.degree(w) as f64;
                    visited.push(w);
                    queue.push_back(w);
                }
            }
        }
        scores[v as usize] = if graph.degree(v) == 0 {
            0.0
        } else {
            // An empty ring implies all farther rings are empty too, so
            // truncating at the first zero matches Eq. (1) restricted to
            // the reachable rings.
            ring_sum.iter().take_while(|&&s| s > 0.0).product()
        };
        for w in visited {
            dist[w as usize] = u32::MAX;
        }
        queue.clear();
    }
    OnScores { scores, hops: k }
}

/// The cost-efficient 1-hop heuristic: `ON1(v) = deg(v) · Σ_{u∈N(v)} deg(u)`.
///
/// Identical to [`on_k_scores`]`(graph, 1)` but computed in a single pass
/// over the adjacency array, mirroring the lightweight preprocessing the
/// accelerator performs before reordering (§IV-C reports < 3% of execution
/// time on medium graphs).
///
/// # Example
///
/// ```
/// use gramer_graph::{generate, on1};
///
/// let g = generate::barabasi_albert(100, 2, 1);
/// let fast = on1::on1_scores(&g);
/// let exact = on1::on_k_scores(&g, 1);
/// assert_eq!(fast.as_slice(), exact.as_slice());
/// ```
pub fn on1_scores(graph: &CsrGraph) -> OnScores {
    let n = graph.num_vertices();
    let mut scores = vec![0.0f64; n];
    for v in 0..n as VertexId {
        let nbr_sum: f64 = graph
            .neighbors(v)
            .iter()
            .map(|&u| graph.degree(u) as f64)
            .sum();
        scores[v as usize] = graph.degree(v) as f64 * nbr_sum;
    }
    OnScores { scores, hops: 1 }
}

/// Fraction of `predicted`'s top-τ set that falls inside `ideal`'s top-τ
/// set — the "Accuracy" metric of Fig. 8(a).
///
/// # Panics
///
/// Panics if the two masks have different lengths.
pub fn top_set_accuracy(predicted: &[bool], ideal: &[bool]) -> f64 {
    assert_eq!(predicted.len(), ideal.len());
    let ideal_size = ideal.iter().filter(|&&b| b).count();
    if ideal_size == 0 {
        return 1.0;
    }
    let overlap = predicted
        .iter()
        .zip(ideal)
        .filter(|(&p, &i)| p && i)
        .count();
    overlap as f64 / ideal_size as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn on1_star() {
        // Hub degree 5; each leaf has degree 1 and its only neighbor is the
        // hub. ON1(hub) = 5 * (1*5) = 25, ON1(leaf) = 1 * 5 = 5.
        let g = generate::star(5);
        let s = on1_scores(&g);
        assert_eq!(s.score(0), 25.0);
        assert_eq!(s.score(3), 5.0);
        assert_eq!(s.top_vertex(), 0);
    }

    #[test]
    fn on1_matches_exact_k1() {
        let g = generate::rmat(6, 200, generate::RmatParams::default(), 4);
        assert_eq!(on1_scores(&g).as_slice(), on_k_scores(&g, 1).as_slice());
    }

    #[test]
    fn on_k_zero_matches_degree() {
        let g = generate::barabasi_albert(50, 2, 2);
        let k0 = on_k_scores(&g, 0);
        let degrees: Vec<f64> = g.vertices().map(|v| g.degree(v) as f64).collect();
        assert_eq!(k0.as_slice(), degrees.as_slice());
    }

    #[test]
    fn ranking_is_descending_and_deterministic() {
        let g = generate::barabasi_albert(80, 2, 3);
        let s = on1_scores(&g);
        let r = s.ranking();
        for w in r.windows(2) {
            let (a, b) = (s.score(w[0]), s.score(w[1]));
            assert!(a > b || (a == b && w[0] < w[1]));
        }
    }

    #[test]
    fn ranks_inverse_of_ranking() {
        let g = generate::cycle(10);
        let s = on1_scores(&g);
        let order = s.ranking();
        let ranks = s.ranks();
        for (pos, &v) in order.iter().enumerate() {
            assert_eq!(ranks[v as usize] as usize, pos);
        }
    }

    #[test]
    fn top_fraction_sizes() {
        let g = generate::barabasi_albert(100, 2, 7);
        let s = on1_scores(&g);
        let mask = s.top_fraction(0.05);
        assert_eq!(mask.iter().filter(|&&b| b).count(), 5);
        let all = s.top_fraction(1.0);
        assert!(all.iter().all(|&b| b));
    }

    #[test]
    #[should_panic(expected = "tau")]
    fn top_fraction_rejects_bad_tau() {
        let g = generate::cycle(5);
        let _ = on1_scores(&g).top_fraction(1.5);
    }

    #[test]
    fn accuracy_bounds() {
        let a = vec![true, true, false, false];
        let b = vec![true, false, true, false];
        assert!((top_set_accuracy(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(top_set_accuracy(&a, &a), 1.0);
    }

    #[test]
    fn higher_hops_prefer_hub_adjacent() {
        // A barbell-ish graph: hub 0 with leaves, plus a distant path. The
        // exact 2-hop score of a leaf sees the hub's other leaves.
        let g = generate::star(6);
        let k2 = on_k_scores(&g, 2);
        // leaf: ring0 = 1, ring1 = 6 (hub), ring2 = 5 other leaves => 30
        assert_eq!(k2.score(1), 30.0);
    }
}
