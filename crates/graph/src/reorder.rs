//! Graph reordering (§IV-C).
//!
//! Computing `Rank(ON1(v))` at runtime is too costly for hardware, and
//! storing ranks beside the graph would double memory traffic. The paper's
//! trick: relabel the vertices so that *ID equals rank* — vertex 0 is the
//! highest-ON1 vertex. After reordering, the replacement policy (Eq. 2)
//! reads a datum's rank straight out of the embedding structure it already
//! holds, at zero extra cost.

use crate::csr::{CsrGraph, VertexId};
use crate::on1::{self, OnScores};

/// The two directions of a vertex relabeling, without the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    /// `new_id[old]` — where each original vertex went.
    pub new_id: Vec<VertexId>,
    /// `old_id[new]` — the original identity of each new vertex.
    pub old_id: Vec<VertexId>,
}

/// A reordered graph together with the permutation that produced it.
#[derive(Debug, Clone)]
pub struct Reordered {
    /// The relabeled graph; vertex `0` has the highest ON1 score.
    pub graph: CsrGraph,
    /// `new_id[old]` — where each original vertex went.
    pub new_id: Vec<VertexId>,
    /// `old_id[new]` — the original identity of each new vertex.
    pub old_id: Vec<VertexId>,
}

impl Reordered {
    /// Maps an original vertex ID to its reordered ID (== its ON1 rank).
    ///
    /// # Panics
    ///
    /// Panics if `old` is out of bounds.
    pub fn to_new(&self, old: VertexId) -> VertexId {
        self.new_id[old as usize]
    }

    /// Maps a reordered vertex ID back to the original ID.
    ///
    /// # Panics
    ///
    /// Panics if `new` is out of bounds.
    pub fn to_old(&self, new: VertexId) -> VertexId {
        self.old_id[new as usize]
    }

    /// Splits off the graph, keeping only the permutation beside it.
    pub fn into_parts(self) -> (CsrGraph, Permutation) {
        let permutation = Permutation {
            new_id: self.new_id,
            old_id: self.old_id,
        };
        (self.graph, permutation)
    }
}

/// Relabels `graph` so ascending vertex ID is descending ON1 score.
///
/// This is GRAMER's preprocessing step; its runtime is what Fig. 11(b)
/// reports as "Preproc. Time".
///
/// # Example
///
/// ```
/// use gramer_graph::{generate, reorder};
///
/// let g = generate::star(8);
/// let r = reorder::reorder_by_on1(&g);
/// // The hub (highest ON1) becomes vertex 0.
/// assert_eq!(r.to_new(0), 0);
/// assert_eq!(r.graph.degree(0), 8);
/// ```
pub fn reorder_by_on1(graph: &CsrGraph) -> Reordered {
    reorder_by_scores(graph, &on1::on1_scores(graph))
}

/// Relabels `graph` by descending `scores` (ties by ascending original ID).
///
/// # Panics
///
/// Panics if `scores` was computed for a different vertex count.
pub fn reorder_by_scores(graph: &CsrGraph, scores: &OnScores) -> Reordered {
    assert_eq!(
        scores.len(),
        graph.num_vertices(),
        "scores do not match graph"
    );
    let old_id = scores.ranking();
    apply_permutation(graph, &old_id)
}

/// Relabels `graph` with an explicit permutation: `old_id[new]` is the
/// original vertex placed at the new ID `new`.
///
/// Builds the relabeled CSR straight from the old one in linear time:
/// row `new` takes the old row's degree, and rows are filled by walking
/// the new sources in descending order, each writing itself at the back
/// of its neighbors' rows, so every row comes out sorted with no sort.
///
/// # Panics
///
/// Panics if `old_id` is not a permutation of `0..num_vertices`.
pub fn apply_permutation(graph: &CsrGraph, old_id: &[VertexId]) -> Reordered {
    let n = graph.num_vertices();
    assert_eq!(old_id.len(), n, "permutation length mismatch");
    let mut new_id = vec![VertexId::MAX; n];
    for (new, &old) in old_id.iter().enumerate() {
        assert!(
            (old as usize) < n && new_id[old as usize] == VertexId::MAX,
            "old_id is not a permutation"
        );
        new_id[old as usize] = new as VertexId;
    }

    // `offsets[new]` first holds the end of row `new`; the fill below
    // walks it back to the row's start.
    let mut offsets = Vec::with_capacity(n + 1);
    let mut end = 0;
    for &old in old_id {
        end += graph.degree(old);
        offsets.push(end);
    }
    offsets.push(end);
    let mut adjacency = vec![0 as VertexId; end];
    for (src, &old) in old_id.iter().enumerate().rev() {
        for &w in graph.neighbors(old) {
            let dst = new_id[w as usize] as usize;
            offsets[dst] -= 1;
            adjacency[offsets[dst]] = src as VertexId;
        }
    }
    let labels = old_id.iter().map(|&old| graph.label(old)).collect();
    Reordered {
        graph: CsrGraph::from_parts(offsets, adjacency, labels),
        new_id,
        old_id: old_id.to_vec(),
    }
}

/// The ON1 rank of an *original* vertex after reordering — by construction
/// simply its new ID.
pub fn rank_of(reordered: &Reordered, old: VertexId) -> u32 {
    reordered.to_new(old)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::on1::on1_scores;
    use crate::GraphBuilder;

    #[test]
    fn star_hub_becomes_zero() {
        // Build a star whose hub is NOT vertex 0 to make the reorder visible.
        let mut b = GraphBuilder::new();
        for leaf in [0u32, 1, 2, 4, 5] {
            b.add_edge(3, leaf);
        }
        let g = b.build().unwrap();
        let r = reorder_by_on1(&g);
        assert_eq!(r.to_new(3), 0);
        assert_eq!(r.to_old(0), 3);
        assert_eq!(r.graph.degree(0), 5);
    }

    #[test]
    fn id_equals_rank_invariant() {
        let g = generate::barabasi_albert(120, 3, 11);
        let r = reorder_by_on1(&g);
        let s = on1_scores(&r.graph);
        // After reordering, scores are non-increasing in vertex ID.
        // (Scores are invariant under relabeling, so re-computing on the
        // reordered graph must yield a sorted sequence.)
        let slice = s.as_slice();
        for w in slice.windows(2) {
            assert!(w[0] >= w[1], "scores not sorted after reorder");
        }
    }

    #[test]
    fn permutation_preserves_edges() {
        let g = generate::rmat(5, 80, generate::RmatParams::default(), 6);
        let r = reorder_by_on1(&g);
        assert_eq!(r.graph.num_vertices(), g.num_vertices());
        assert_eq!(r.graph.num_edges(), g.num_edges());
        for v in g.vertices() {
            for &u in g.neighbors(v) {
                assert!(r.graph.has_edge(r.to_new(v), r.to_new(u)));
            }
        }
    }

    #[test]
    fn labels_follow_vertices() {
        let g = generate::with_random_labels(&generate::complete(6), 4, 9);
        let r = reorder_by_on1(&g);
        for v in g.vertices() {
            assert_eq!(g.label(v), r.graph.label(r.to_new(v)));
        }
    }

    #[test]
    fn roundtrip_mapping() {
        let g = generate::cycle(9);
        let r = reorder_by_on1(&g);
        for v in g.vertices() {
            assert_eq!(r.to_old(r.to_new(v)), v);
        }
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_permutation_panics() {
        let g = generate::cycle(4);
        let _ = apply_permutation(&g, &[0, 0, 1, 2]);
    }
}
