//! Brute-force reference counting for validation.
//!
//! Enumerates *every* vertex subset of size `2..=k` of a (small) graph,
//! keeps the connected ones, and tallies canonical patterns. Exponential
//! in `|V|`, so only usable on test graphs — which is exactly its job: an
//! independent oracle the canonical-extension enumerators are checked
//! against.

use crate::embedding::MAX_EMBEDDING;
use crate::pattern::Pattern;
use gramer_graph::CsrGraph;
use std::collections::HashMap;

/// Counts connected induced subgraphs of each size `2..=k` by brute force.
///
/// # Example
///
/// ```
/// use gramer_graph::generate;
/// use gramer_mining::brute::brute_force_counts;
///
/// let g = generate::complete(4);
/// let counts = brute_force_counts(&g, 3);
/// let triangles: u64 = counts
///     .iter()
///     .filter(|((s, p), _)| *s == 3 && p.is_clique())
///     .map(|(_, &c)| c)
///     .sum();
/// assert_eq!(triangles, 4);
/// ```
///
/// # Panics
///
/// Panics if `k` is outside `2..=MAX_EMBEDDING` or the graph has more than
/// 64 vertices (bitmask representation).
pub fn brute_force_counts(graph: &CsrGraph, k: usize) -> HashMap<(usize, Pattern), u64> {
    assert!((2..=MAX_EMBEDDING).contains(&k), "size out of range");
    let n = graph.num_vertices();
    assert!(n <= 64, "brute force is for small test graphs only");

    let mut counts: HashMap<(usize, Pattern), u64> = HashMap::new();
    let mut subset: Vec<u32> = Vec::with_capacity(k);

    fn rec(
        graph: &CsrGraph,
        k: usize,
        start: u32,
        subset: &mut Vec<u32>,
        counts: &mut HashMap<(usize, Pattern), u64>,
    ) {
        for v in start..graph.num_vertices() as u32 {
            subset.push(v);
            if subset.len() >= 2 {
                if let Some(pattern) = induced_connected_pattern(graph, subset) {
                    *counts.entry((subset.len(), pattern)).or_insert(0) += 1;
                }
            }
            if subset.len() < k {
                rec(graph, k, v + 1, subset, counts);
            }
            subset.pop();
        }
    }
    rec(graph, k, 0, &mut subset, &mut counts);
    counts
}

/// Canonical pattern of the subgraph induced by `subset`, or `None` if it
/// is disconnected.
fn induced_connected_pattern(graph: &CsrGraph, subset: &[u32]) -> Option<Pattern> {
    let n = subset.len();
    let mut adj = [0u8; MAX_EMBEDDING];
    for i in 0..n {
        for j in (i + 1)..n {
            if graph.has_edge(subset[i], subset[j]) {
                adj[i] |= 1 << j;
                adj[j] |= 1 << i;
            }
        }
    }
    // Connectivity over the induced bitmasks.
    let mut seen = 1u8;
    let mut frontier = 1u8;
    while frontier != 0 {
        let mut next = 0u8;
        for (i, &row) in adj[..n].iter().enumerate() {
            if frontier & (1 << i) != 0 {
                next |= row;
            }
        }
        frontier = next & !seen;
        seen |= next;
    }
    if (seen.count_ones() as usize) < n {
        return None;
    }
    let labels: Vec<_> = subset.iter().map(|&v| graph.label(v)).collect();
    Some(Pattern::from_parts(n, &labels, &adj[..n]))
}

/// Total connected induced subgraphs of exactly `size` vertices.
pub fn total_connected(counts: &HashMap<(usize, Pattern), u64>, size: usize) -> u64 {
    counts
        .iter()
        .filter(|((s, _), _)| *s == size)
        .map(|(_, &c)| c)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::MotifCounting;
    use crate::DfsEnumerator;
    use gramer_graph::generate;

    #[test]
    fn complete_graph_counts_are_binomials() {
        let g = generate::complete(6);
        let counts = brute_force_counts(&g, 4);
        assert_eq!(total_connected(&counts, 2), 15);
        assert_eq!(total_connected(&counts, 3), 20);
        assert_eq!(total_connected(&counts, 4), 15);
    }

    #[test]
    fn cycle_counts() {
        let g = generate::cycle(7);
        let counts = brute_force_counts(&g, 3);
        assert_eq!(total_connected(&counts, 2), 7);
        assert_eq!(total_connected(&counts, 3), 7); // 7 wedges, no triangles
        assert!(counts.keys().all(|(s, p)| *s != 3 || !p.is_clique()));
    }

    #[test]
    fn enumerator_matches_brute_force_on_random_graphs() {
        for seed in 0..5 {
            let g = generate::erdos_renyi(14, 28, seed);
            let brute = brute_force_counts(&g, 4);
            let mined = DfsEnumerator::new(&g).run(&MotifCounting::new(4).unwrap());
            for size in 3..=4 {
                assert_eq!(
                    mined.total_at(size),
                    total_connected(&brute, size),
                    "seed {seed} size {size}"
                );
            }
            // Per-pattern equality.
            for (size, pid, count) in mined.counts.sorted() {
                let p = mined.interner.pattern(pid);
                assert_eq!(
                    brute.get(&(size, *p)).copied().unwrap_or(0),
                    count,
                    "seed {seed} size {size} {p:?}"
                );
            }
        }
    }

    #[test]
    fn labeled_brute_force_distinguishes() {
        let g = generate::with_random_labels(&generate::complete(5), 2, 3);
        let counts = brute_force_counts(&g, 3);
        // All 3-subsets are triangles; labels split them into classes whose
        // counts sum to C(5,3)=10.
        assert_eq!(total_connected(&counts, 3), 10);
        assert!(counts.iter().filter(|((s, _), _)| *s == 3).count() >= 1);
    }

    #[test]
    #[should_panic(expected = "small test graphs")]
    fn large_graph_rejected() {
        let g = generate::barabasi_albert(100, 2, 1);
        let _ = brute_force_counts(&g, 3);
    }
}
