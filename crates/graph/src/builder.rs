use crate::csr::{CsrGraph, Label, VertexId};
use crate::error::GraphError;

/// Incremental builder for [`CsrGraph`].
///
/// Accepts edges in any order, ignores self-loops, de-duplicates parallel
/// edges, and infers the vertex count from the largest ID seen (isolated
/// trailing vertices can be forced with [`GraphBuilder::ensure_vertex`]).
///
/// # Example
///
/// ```
/// use gramer_graph::GraphBuilder;
///
/// # fn main() -> Result<(), gramer_graph::GraphError> {
/// let mut b = GraphBuilder::new();
/// b.add_edge(0, 1);
/// b.add_edge(1, 0); // duplicate, ignored
/// b.add_edge(1, 1); // self-loop, ignored
/// b.ensure_vertex(3); // isolated vertex
/// let g = b.build()?;
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    edges: Vec<(VertexId, VertexId)>,
    max_vertex: Option<VertexId>,
    labels: Option<Vec<Label>>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-sized for `edges` undirected edges.
    pub fn with_capacity(edges: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(edges),
            max_vertex: None,
            labels: None,
        }
    }

    /// Adds an undirected edge `{u, v}`. Self-loops are silently dropped;
    /// duplicates are removed at [`build`](Self::build) time.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.touch(u);
        self.touch(v);
        if u != v {
            let (a, b) = if u < v { (u, v) } else { (v, u) };
            self.edges.push((a, b));
        }
        self
    }

    /// Adds every edge from an iterator of endpoint pairs.
    pub fn add_edges<I>(&mut self, edges: I) -> &mut Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        for (u, v) in edges {
            self.add_edge(u, v);
        }
        self
    }

    /// Guarantees that vertex `v` exists in the built graph even if no edge
    /// references it.
    pub fn ensure_vertex(&mut self, v: VertexId) -> &mut Self {
        self.touch(v);
        self
    }

    /// Supplies vertex labels; `labels[v]` is the label of vertex `v`.
    ///
    /// The slice length is validated at [`build`](Self::build) time.
    pub fn labels(&mut self, labels: Vec<Label>) -> &mut Self {
        self.labels = Some(labels);
        self
    }

    fn touch(&mut self, v: VertexId) {
        self.max_vertex = Some(self.max_vertex.map_or(v, |m| m.max(v)));
    }

    /// Finalizes the builder into a [`CsrGraph`].
    ///
    /// A few linear passes, no sort: count both directions of every pair
    /// per vertex, bucket them per vertex, then walk the buckets in
    /// ascending source order and append each source to its neighbors'
    /// rows. Every row comes out sorted, and the copies of a repeated
    /// pair land next to each other, where one comparison drops them.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] if no vertex was ever referenced,
    /// [`GraphError::LabelCount`] if labels were supplied but their count
    /// does not match the vertex count, and [`GraphError::TooLarge`] if
    /// a vertex- or slot-sized array cannot be allocated (a huge vertex
    /// ID asks for a huge universe).
    pub fn build(&self) -> Result<CsrGraph, GraphError> {
        let max = self.max_vertex.ok_or(GraphError::Empty)?;
        let n = max as usize + 1;
        if let Some(l) = &self.labels {
            if l.len() != n {
                return Err(GraphError::LabelCount {
                    labels: l.len(),
                    vertices: n,
                });
            }
        }

        // `offsets[v]` counts v's entries (duplicates included), then
        // holds the end of its bucket, then — once the bucketing pass has
        // stepped it back once per entry — the bucket's start.
        let mut offsets = try_filled(n + 1, 0usize, "row offsets")?;
        for &(u, v) in &self.edges {
            offsets[u as usize] += 1;
            offsets[v as usize] += 1;
        }
        let mut end = 0usize;
        for o in &mut offsets {
            end += *o;
            *o = end;
        }
        let mut buckets = try_filled(end, 0 as VertexId, "adjacency")?;
        for &(u, v) in &self.edges {
            offsets[u as usize] -= 1;
            buckets[offsets[u as usize]] = v;
            offsets[v as usize] -= 1;
            buckets[offsets[v as usize]] = u;
        }

        // Row `t` is laid out where bucket `t` is; `fill[t]` is its next
        // free slot.
        let mut adjacency = try_filled(end, 0 as VertexId, "adjacency")?;
        let mut fill = try_copy(&offsets[..n], "row offsets")?;
        for s in 0..n {
            for &t in &buckets[offsets[s]..offsets[s + 1]] {
                let t = t as usize;
                let f = fill[t];
                if f == offsets[t] || adjacency[f - 1] != s as VertexId {
                    adjacency[f] = s as VertexId;
                    fill[t] = f + 1;
                }
            }
        }
        drop(buckets);

        // Close the gaps the dropped duplicates left.
        let mut write = 0usize;
        for v in 0..n {
            let (start, stop) = (offsets[v], fill[v]);
            offsets[v] = write;
            if write != start {
                adjacency.copy_within(start..stop, write);
            }
            write += stop - start;
        }
        offsets[n] = write;
        adjacency.truncate(write);
        adjacency.shrink_to_fit();

        let labels = match &self.labels {
            Some(l) => try_copy(l, "labels")?,
            None => try_filled(n, 0, "labels")?,
        };

        Ok(CsrGraph::from_parts(offsets, adjacency, labels))
    }
}

/// Reserves room for exactly `additional` more items, or names the
/// array that does not fit in a typed error instead of aborting.
fn try_reserve<T>(
    vec: &mut Vec<T>,
    additional: usize,
    what: &'static str,
) -> Result<(), GraphError> {
    vec.try_reserve_exact(additional)
        .map_err(|_| GraphError::TooLarge {
            what,
            bytes: (additional as u64).saturating_mul(std::mem::size_of::<T>() as u64),
        })
}

/// A `len`-item vector of `value`, allocated fallibly.
fn try_filled<T: Clone>(len: usize, value: T, what: &'static str) -> Result<Vec<T>, GraphError> {
    let mut vec = Vec::new();
    try_reserve(&mut vec, len, what)?;
    vec.resize(len, value);
    Ok(vec)
}

/// A copy of `items`, allocated fallibly.
fn try_copy<T: Clone>(items: &[T], what: &'static str) -> Result<Vec<T>, GraphError> {
    let mut vec = Vec::new();
    try_reserve(&mut vec, items.len(), what)?;
    vec.extend_from_slice(items);
    Ok(vec)
}

impl FromIterator<(VertexId, VertexId)> for GraphBuilder {
    fn from_iter<I: IntoIterator<Item = (VertexId, VertexId)>>(iter: I) -> Self {
        let mut b = GraphBuilder::new();
        b.add_edges(iter);
        b
    }
}

impl Extend<(VertexId, VertexId)> for GraphBuilder {
    fn extend<I: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, iter: I) {
        self.add_edges(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_builder_errors() {
        assert!(matches!(
            GraphBuilder::new().build(),
            Err(GraphError::Empty)
        ));
    }

    #[test]
    fn dedup_and_self_loops() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).add_edge(1, 0).add_edge(0, 0);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn isolated_vertices_preserved() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.ensure_vertex(5);
        let g = b.build().unwrap();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.degree(5), 0);
        assert_eq!(g.neighbors(5), &[] as &[u32]);
    }

    #[test]
    fn labels_roundtrip() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).add_edge(1, 2);
        b.labels(vec![7, 8, 9]);
        let g = b.build().unwrap();
        assert_eq!(g.label(0), 7);
        assert_eq!(g.label(2), 9);
        assert!(g.is_labeled());
    }

    #[test]
    fn label_count_mismatch_errors() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.labels(vec![1]);
        assert!(matches!(b.build(), Err(GraphError::LabelCount { .. })));
    }

    #[test]
    fn from_iterator() {
        let g: GraphBuilder = [(0, 1), (1, 2)].into_iter().collect();
        let g = g.build().unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn adjacency_sorted() {
        let mut b = GraphBuilder::new();
        for (u, v) in [(0, 3), (0, 1), (0, 2)] {
            b.add_edge(u, v);
        }
        let g = b.build().unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
    }
}
