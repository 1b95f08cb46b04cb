//! Candidate-filtered subgraph queries.
//!
//! A [`QueryGraph`] is a small user-supplied labeled pattern (2..=8
//! vertices, parsed from a text file or a compact CLI spec). Before
//! enumeration, a three-stage candidate pipeline — in the style of the
//! SIGMOD'20 SubgraphMatching study — computes, per query vertex, the set
//! of data vertices that could possibly play that role:
//!
//! 1. **LDF** (label-and-degree filter): `v ∈ C(u)` requires
//!    `label(v) == label(u)` and `deg(v) >= deg(u)`.
//! 2. **NLF** (neighbor-label frequency): for every label `l`, `v` must
//!    have at least as many `l`-labeled neighbors as `u` does.
//! 3. **GQL refinement** (semi-join fixpoint): `v` stays in `C(u)` only
//!    while every query-neighbor `u'` of `u` has some candidate
//!    `w ∈ C(u')` adjacent to `v`; deletions propagate to a fixpoint.
//!
//! Every stage is *sound*: if a vertex set induces the query pattern,
//! each of its vertices survives every stage for the query vertex it
//! maps to (the standard arc-consistency argument — true images are
//! never deleted). The union of the candidate sets therefore contains
//! every vertex of every embedding, which is what lets the canonical-DFS
//! engine reject non-candidates mid-extension without losing a single
//! match: the DFS path that discovers an embedding only ever holds
//! subsets of that embedding's vertex set, all of which are admitted.
//!
//! [`CandidateFilter`] packages the union set as a plain value: the
//! explorer takes an `Option<&mut CandidateFilter>`, so an unfiltered
//! run pays one never-taken branch per examined slot, while filtered
//! runs charge one modeled filter-SRAM probe per examined candidate.

use crate::apps::SubgraphMatching;
use crate::counts::PatternCounts;
use crate::ecm::EcmApp;
use crate::embedding::{Embedding, MAX_EMBEDDING};
use crate::explorer::{Explorer, Step};
use crate::pattern::{Pattern, PatternInterner};
use gramer_graph::{CsrGraph, Label, VertexId};

/// Smallest query: a single edge.
pub const MIN_QUERY_VERTICES: usize = 2;

/// A labeled query graph: up to [`MAX_EMBEDDING`] vertices with a
/// bitmask adjacency, mirroring [`Pattern`]'s layout but *not*
/// canonicalized — vertex IDs are the user's.
///
/// Label `0` means "unlabeled" and only matches unlabeled data vertices,
/// so structure-only queries work naturally on unlabeled graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryGraph {
    n: u8,
    labels: [Label; MAX_EMBEDDING],
    adj: [u8; MAX_EMBEDDING],
}

impl QueryGraph {
    /// Builds a query from explicit parts. Errors on out-of-range sizes,
    /// self-loops, or a disconnected pattern.
    pub fn from_parts(labels: &[Label], edges: &[(usize, usize)]) -> Result<Self, String> {
        let n = labels.len();
        if !(MIN_QUERY_VERTICES..=MAX_EMBEDDING).contains(&n) {
            return Err(format!(
                "query must have {MIN_QUERY_VERTICES}..={MAX_EMBEDDING} vertices, got {n}"
            ));
        }
        let mut lab = [0 as Label; MAX_EMBEDDING];
        lab[..n].copy_from_slice(labels);
        let mut adj = [0u8; MAX_EMBEDDING];
        for &(u, v) in edges {
            if u >= n || v >= n {
                return Err(format!("edge ({u},{v}) names a vertex >= {n}"));
            }
            if u == v {
                return Err(format!("self-loop on query vertex {u}"));
            }
            adj[u] |= 1 << v;
            adj[v] |= 1 << u;
        }
        let q = QueryGraph {
            n: n as u8,
            labels: lab,
            adj,
        };
        if !q.is_connected() {
            return Err("query graph is disconnected".into());
        }
        Ok(q)
    }

    /// Parses the compact CLI spec `labels:edges`, e.g. `1,2,1:0-1,1-2`
    /// (a labeled path). Labels are decimal `u16`s in vertex-ID order;
    /// edges are `u-v` pairs.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let (labels_part, edges_part) = spec
            .split_once(':')
            .ok_or_else(|| format!("query spec {spec:?} missing ':' (want labels:edges)"))?;
        let labels: Vec<Label> = labels_part
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<Label>()
                    .map_err(|e| format!("bad label {s:?}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let mut edges = Vec::new();
        for tok in edges_part.split(',').filter(|t| !t.trim().is_empty()) {
            let (a, b) = tok
                .trim()
                .split_once('-')
                .ok_or_else(|| format!("bad edge {tok:?} (want u-v)"))?;
            let u: usize = a
                .trim()
                .parse()
                .map_err(|e| format!("bad edge {tok:?}: {e}"))?;
            let v: usize = b
                .trim()
                .parse()
                .map_err(|e| format!("bad edge {tok:?}: {e}"))?;
            edges.push((u, v));
        }
        Self::from_parts(&labels, &edges)
    }

    /// Parses the text format: one directive per line, `#` comments.
    ///
    /// ```text
    /// # a labeled triangle
    /// v 0 1
    /// v 1 2
    /// v 2 1
    /// e 0 1
    /// e 1 2
    /// e 2 0
    /// ```
    ///
    /// Vertices must be declared `0..n` in order before any edge uses
    /// them.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut labels: Vec<Label> = Vec::new();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            let tag = it.next().unwrap_or("");
            let err = |msg: String| format!("query line {}: {msg}", lineno + 1);
            match tag {
                "v" => {
                    let id: usize = it
                        .next()
                        .ok_or_else(|| err("missing vertex id".into()))?
                        .parse()
                        .map_err(|e| err(format!("bad vertex id: {e}")))?;
                    let label: Label = it
                        .next()
                        .ok_or_else(|| err("missing vertex label".into()))?
                        .parse()
                        .map_err(|e| err(format!("bad vertex label: {e}")))?;
                    if id != labels.len() {
                        return Err(err(format!(
                            "vertex ids must be declared in order (expected {}, got {id})",
                            labels.len()
                        )));
                    }
                    labels.push(label);
                }
                "e" => {
                    let u: usize = it
                        .next()
                        .ok_or_else(|| err("missing edge endpoint".into()))?
                        .parse()
                        .map_err(|e| err(format!("bad edge endpoint: {e}")))?;
                    let v: usize = it
                        .next()
                        .ok_or_else(|| err("missing edge endpoint".into()))?
                        .parse()
                        .map_err(|e| err(format!("bad edge endpoint: {e}")))?;
                    edges.push((u, v));
                }
                other => return Err(err(format!("unknown directive {other:?}"))),
            }
            if it.next().is_some() {
                return Err(err("trailing tokens".into()));
            }
        }
        Self::from_parts(&labels, &edges)
    }

    /// Parses either format: specs containing a newline or starting with
    /// `v ` / `#` are text, everything else is the compact spec.
    pub fn parse(input: &str) -> Result<Self, String> {
        let t = input.trim_start();
        if input.contains('\n') || t.starts_with("v ") || t.starts_with('#') {
            Self::from_text(input)
        } else {
            Self::from_spec(input)
        }
    }

    /// Number of query vertices.
    pub fn num_vertices(&self) -> usize {
        self.n as usize
    }

    /// Number of query edges.
    pub fn num_edges(&self) -> usize {
        self.adj[..self.n as usize]
            .iter()
            .map(|r| r.count_ones() as usize)
            .sum::<usize>()
            / 2
    }

    /// Label of query vertex `u`.
    pub fn label(&self, u: usize) -> Label {
        self.labels[u]
    }

    /// Degree of query vertex `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].count_ones() as usize
    }

    /// Whether query vertices `u` and `v` are adjacent.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u] & (1 << v) != 0
    }

    /// Iterator over the neighbors of query vertex `u`.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        let row = self.adj[u];
        (0..self.n as usize).filter(move |&v| row & (1 << v) != 0)
    }

    /// Whether the query is connected (single-vertex queries are, but
    /// [`Self::from_parts`] rejects them anyway).
    pub fn is_connected(&self) -> bool {
        let n = self.n as usize;
        let mut seen = 1u8;
        let mut frontier = 1u8;
        while frontier != 0 {
            let mut next = 0u8;
            for u in 0..n {
                if frontier & (1 << u) != 0 {
                    next |= self.adj[u];
                }
            }
            frontier = next & !seen;
            seen |= next;
        }
        seen.count_ones() as usize >= n
    }

    /// The canonical [`Pattern`] of this query (what the mining engine
    /// matches induced embeddings against).
    pub fn to_pattern(&self) -> Pattern {
        Pattern::from_parts(
            self.n as usize,
            &self.labels[..self.n as usize],
            &self.adj[..self.n as usize],
        )
    }
}

impl std::fmt::Display for QueryGraph {
    /// Renders the compact spec form (`labels:edges`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.n as usize;
        for (i, l) in self.labels[..n].iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ":")?;
        let mut first = true;
        for u in 0..n {
            for v in (u + 1)..n {
                if self.has_edge(u, v) {
                    if !first {
                        write!(f, ",")?;
                    }
                    write!(f, "{u}-{v}")?;
                    first = false;
                }
            }
        }
        Ok(())
    }
}

/// A fixed-size bitset over data-graph vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexBitset {
    words: Vec<u64>,
    len: usize,
}

impl VertexBitset {
    /// An empty set over `len` vertices.
    pub fn new(len: usize) -> Self {
        VertexBitset {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Inserts vertex `v`.
    pub fn insert(&mut self, v: VertexId) {
        self.words[v as usize / 64] |= 1 << (v as usize % 64);
    }

    /// Removes vertex `v`.
    pub fn remove(&mut self, v: VertexId) {
        self.words[v as usize / 64] &= !(1 << (v as usize % 64));
    }

    /// Whether vertex `v` is in the set.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.words[v as usize / 64] & (1 << (v as usize % 64)) != 0
    }

    /// Number of vertices in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Unions `other` into `self`.
    pub fn union_with(&mut self, other: &VertexBitset) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// Iterator over the member vertices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.len as VertexId).filter(move |&v| self.contains(v))
    }
}

/// Per-stage survivor counts of the candidate pipeline, for the
/// filter-ablation report (`gramer-query`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FilterPipelineStats {
    /// Survivors of the label-and-degree filter, per query vertex.
    pub ldf: Vec<usize>,
    /// Survivors after the neighbor-label-frequency filter.
    pub nlf: Vec<usize>,
    /// Survivors after the GQL-style refinement fixpoint.
    pub refined: Vec<usize>,
    /// Semi-join refinement rounds until fixpoint.
    pub refine_rounds: u32,
}

/// Per-query-vertex candidate sets plus their union, with the pipeline's
/// per-stage survivor counts.
#[derive(Debug, Clone)]
pub struct CandidateSets {
    sets: Vec<VertexBitset>,
    union: VertexBitset,
    stats: FilterPipelineStats,
}

impl CandidateSets {
    /// Runs the LDF → NLF → GQL pipeline for `query` against `graph`.
    pub fn build(graph: &CsrGraph, query: &QueryGraph) -> Self {
        let nq = query.num_vertices();
        let nd = graph.num_vertices();
        let mut stats = FilterPipelineStats::default();

        // Stage 1: LDF — exact label match plus degree domination.
        let mut sets: Vec<VertexBitset> = (0..nq)
            .map(|u| {
                let mut s = VertexBitset::new(nd);
                let (ql, qd) = (query.label(u), query.degree(u));
                for v in graph.vertices() {
                    if graph.label(v) == ql && graph.degree(v) >= qd {
                        s.insert(v);
                    }
                }
                s
            })
            .collect();
        stats.ldf = sets.iter().map(VertexBitset::count).collect();

        // Stage 2: NLF — for every label, v needs at least as many
        // neighbors of that label as u has. Query label alphabets are
        // tiny (<= 8 distinct), so a small sorted vec beats a map.
        for (u, set) in sets.iter_mut().enumerate() {
            let mut need: Vec<(Label, usize)> = Vec::new();
            for un in query.neighbors(u) {
                let l = query.label(un);
                match need.iter_mut().find(|(nl, _)| *nl == l) {
                    Some((_, c)) => *c += 1,
                    None => need.push((l, 1)),
                }
            }
            if need.is_empty() {
                continue;
            }
            let survivors: Vec<VertexId> = set
                .iter()
                .filter(|&v| {
                    need.iter().all(|&(l, c)| {
                        graph
                            .neighbors(v)
                            .iter()
                            .filter(|&&w| graph.label(w) == l)
                            .count()
                            >= c
                    })
                })
                .collect();
            let mut next = VertexBitset::new(nd);
            for v in survivors {
                next.insert(v);
            }
            *set = next;
        }
        stats.nlf = sets.iter().map(VertexBitset::count).collect();

        // Stage 3: GQL-style refinement — arc-consistency semi-joins to
        // a fixpoint. v stays in C(u) only while every query-neighbor u'
        // of u still has a candidate adjacent to v.
        let mut changed = true;
        while changed {
            changed = false;
            stats.refine_rounds += 1;
            for u in 0..nq {
                let doomed: Vec<VertexId> = sets[u]
                    .iter()
                    .filter(|&v| {
                        query
                            .neighbors(u)
                            .any(|un| !graph.neighbors(v).iter().any(|&w| sets[un].contains(w)))
                    })
                    .collect();
                if !doomed.is_empty() {
                    changed = true;
                    for v in doomed {
                        sets[u].remove(v);
                    }
                }
            }
        }
        stats.refined = sets.iter().map(VertexBitset::count).collect();

        let mut union = VertexBitset::new(nd);
        for s in &sets {
            union.union_with(s);
        }
        CandidateSets { sets, union, stats }
    }

    /// The candidate set of query vertex `u`.
    pub fn set(&self, u: usize) -> &VertexBitset {
        &self.sets[u]
    }

    /// The union of all candidate sets — the admission set the explorer
    /// prunes against.
    pub fn union(&self) -> &VertexBitset {
        &self.union
    }

    /// Per-stage survivor counts.
    pub fn stats(&self) -> &FilterPipelineStats {
        &self.stats
    }

    /// A candidates-driven matching order: start at the query vertex
    /// with the fewest candidates, then repeatedly pick the unmatched
    /// vertex with minimum candidate count among those connected to the
    /// matched core (ties broken by lower vertex id).
    pub fn matching_order(&self, query: &QueryGraph) -> Vec<usize> {
        let nq = query.num_vertices();
        let mut order = Vec::with_capacity(nq);
        let mut matched = vec![false; nq];
        for step in 0..nq {
            let mut best: Option<usize> = None;
            for u in 0..nq {
                if matched[u] {
                    continue;
                }
                if step > 0 && !query.neighbors(u).any(|v| matched[v]) {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some(b) => self.sets[u].count() < self.sets[b].count(),
                };
                if better {
                    best = Some(u);
                }
            }
            // The query is connected, so a frontier vertex always exists.
            if let Some(u) = best {
                matched[u] = true;
                order.push(u);
            }
        }
        order
    }
}

/// Probe counters of a [`CandidateFilter`].
///
/// Kept separate from the memory subsystem's stats for the same reason
/// [`crate::MemoStats`] is: a filter probe is an access to a dedicated
/// filter SRAM, not to the scratchpad/cache hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterProbeStats {
    /// Candidate-admission probes issued by the explorer.
    pub probes: u64,
    /// Probes that rejected the candidate (subtree never descended).
    pub rejects: u64,
}

/// The live candidate filter: the union bitmap of a [`CandidateSets`]
/// plus probe counters.
#[derive(Debug, Clone)]
pub struct CandidateFilter {
    union: VertexBitset,
    stats: FilterProbeStats,
}

impl CandidateFilter {
    /// Builds the filter from a computed candidate pipeline.
    pub fn new(candidates: &CandidateSets) -> Self {
        CandidateFilter {
            union: candidates.union().clone(),
            stats: FilterProbeStats::default(),
        }
    }

    /// Admission check for an extension candidate; counts one probe.
    #[inline]
    pub fn admits(&mut self, v: VertexId) -> bool {
        self.stats.probes += 1;
        let ok = self.union.contains(v);
        if !ok {
            self.stats.rejects += 1;
        }
        ok
    }

    /// Membership check without charging a probe — used for root
    /// pruning, which happens at setup time, outside the modeled
    /// per-step pipeline.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.union.contains(v)
    }

    /// Number of vertices in the admission set.
    pub fn admitted(&self) -> u64 {
        self.union.count() as u64
    }

    /// Lifetime probe counters.
    pub fn stats(&self) -> FilterProbeStats {
        self.stats
    }
}

/// The query workload as an embedding-centric app: induced matching of
/// the query's canonical pattern, delegating admissibility to
/// [`SubgraphMatching`]'s connected-induced-subpattern tables.
#[derive(Debug)]
pub struct QueryApp {
    query: QueryGraph,
    matcher: SubgraphMatching,
}

impl QueryApp {
    /// Builds the app; errors if the query is degenerate (delegated
    /// pattern checks).
    pub fn new(query: QueryGraph) -> Result<Self, String> {
        let matcher = SubgraphMatching::new(query.to_pattern())?;
        Ok(QueryApp { query, matcher })
    }

    /// The query this app matches.
    pub fn query(&self) -> &QueryGraph {
        &self.query
    }

    /// The canonical target pattern.
    pub fn target(&self) -> &Pattern {
        self.matcher.target()
    }

    /// Number of embeddings matching the query in `result`.
    pub fn matches(&self, result: &crate::MiningResult) -> u64 {
        self.matcher.matches(result)
    }
}

impl EcmApp for QueryApp {
    fn name(&self) -> String {
        format!(
            "query-{}v{}e",
            self.query.num_vertices(),
            self.query.num_edges()
        )
    }

    fn max_vertices(&self) -> usize {
        self.query.num_vertices()
    }

    fn filter(&self, graph: &CsrGraph, emb: &Embedding) -> bool {
        self.matcher.filter(graph, emb)
    }

    fn process(
        &self,
        graph: &CsrGraph,
        emb: &Embedding,
        interner: &mut PatternInterner,
        counts: &mut PatternCounts,
    ) {
        self.matcher.process(graph, emb, interner, counts)
    }
}

/// Enumerates the full-size embeddings accepted by `app`, as sorted
/// vertex sets — the ground truth for "filtered returns exactly the
/// unfiltered embedding set" checks. Runs the same canonical-DFS
/// explorer as the engines, optionally restricted to `filter`'s
/// admission set (with root pruning).
pub fn enumerate_matches<A: EcmApp>(
    graph: &CsrGraph,
    app: &A,
    mut filter: Option<&mut CandidateFilter>,
) -> Vec<Vec<VertexId>> {
    let max = app.max_vertices();
    let mut out = Vec::new();
    let mut observer = crate::observer::NullObserver;
    for root in graph.vertices() {
        if filter.as_ref().is_some_and(|f| !f.contains(root)) {
            continue;
        }
        let mut ex = Explorer::new(graph, root);
        loop {
            match ex.step_with(&mut observer, &mut crate::NoMemo, filter.as_deref_mut()) {
                Step::Candidate => {
                    let emb = *ex.embedding();
                    if app.filter(graph, &emb) {
                        if emb.len() == max {
                            let mut vs = emb.vertices().to_vec();
                            vs.sort_unstable();
                            out.push(vs);
                        }
                        if emb.len() < max {
                            ex.descend();
                        } else {
                            ex.retract();
                        }
                    } else {
                        ex.retract();
                    }
                }
                Step::Rejected | Step::Traceback => {}
                Step::Done => break,
            }
        }
    }
    out.sort_unstable();
    out
}

/// Backtracking candidate-join matcher: enumerates the distinct vertex
/// sets whose induced subgraph is isomorphic to `query`, joining over
/// the per-vertex candidate sets in `candidates`' matching order. A
/// third, independent implementation used to cross-check the DFS
/// engines.
pub fn match_query(
    graph: &CsrGraph,
    query: &QueryGraph,
    candidates: &CandidateSets,
) -> Vec<Vec<VertexId>> {
    let order = candidates.matching_order(query);
    let nq = query.num_vertices();
    let mut assignment = vec![0 as VertexId; nq];
    let mut out: Vec<Vec<VertexId>> = Vec::new();
    join(
        graph,
        query,
        candidates,
        &order,
        0,
        &mut assignment,
        &mut out,
    );
    out.sort_unstable();
    out.dedup();
    out
}

/// Recursive step of [`match_query`]: `assignment[order[i]]` for
/// `i < depth` is fixed; extend with a candidate of `order[depth]`
/// consistent with all matched neighbors and non-neighbors (induced
/// semantics).
#[allow(clippy::too_many_arguments)]
fn join(
    graph: &CsrGraph,
    query: &QueryGraph,
    candidates: &CandidateSets,
    order: &[usize],
    depth: usize,
    assignment: &mut [VertexId],
    out: &mut Vec<Vec<VertexId>>,
) {
    if depth == order.len() {
        let mut vs = assignment.to_vec();
        vs.sort_unstable();
        out.push(vs);
        return;
    }
    let u = order[depth];
    'cand: for v in candidates.set(u).iter() {
        for &prev_u in order.iter().take(depth) {
            let w = assignment[prev_u];
            if w == v {
                continue 'cand;
            }
            // Induced: query adjacency and data adjacency must agree.
            if query.has_edge(u, prev_u) != graph.has_edge(v, w) {
                continue 'cand;
            }
        }
        assignment[u] = v;
        join(graph, query, candidates, order, depth + 1, assignment, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gramer_graph::{generate, GraphBuilder};

    fn labeled_triangle_path() -> CsrGraph {
        // 0-1-2-3 path plus 0-2 edge; labels 1,2,1,3.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.add_edge(0, 2);
        b.labels(vec![1, 2, 1, 3]);
        match b.build() {
            Ok(g) => g,
            Err(e) => panic!("graph build failed: {e:?}"),
        }
    }

    fn must(q: Result<QueryGraph, String>) -> QueryGraph {
        match q {
            Ok(q) => q,
            Err(e) => panic!("query build failed: {e}"),
        }
    }

    #[test]
    fn spec_roundtrip_and_accessors() {
        let q = must(QueryGraph::from_spec("1,2,1:0-1,1-2,2-0"));
        assert_eq!(q.num_vertices(), 3);
        assert_eq!(q.num_edges(), 3);
        assert_eq!(q.label(1), 2);
        assert_eq!(q.degree(0), 2);
        assert!(q.has_edge(0, 2));
        assert_eq!(q.to_string(), "1,2,1:0-1,0-2,1-2");
        assert_eq!(must(QueryGraph::parse(&q.to_string())), q);
    }

    #[test]
    fn text_format_parses_with_comments() {
        let text = "# labeled wedge\nv 0 1\nv 1 2 # center\nv 2 1\ne 0 1\ne 1 2\n";
        let q = must(QueryGraph::from_text(text));
        assert_eq!(q.num_vertices(), 3);
        assert_eq!(q.num_edges(), 2);
        assert_eq!(q.label(1), 2);
        assert_eq!(must(QueryGraph::parse(text)), q);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(QueryGraph::from_spec("1:0-1").is_err(), "too small");
        assert!(QueryGraph::from_spec("1,2").is_err(), "missing colon");
        assert!(QueryGraph::from_spec("1,2:0-0").is_err(), "self loop");
        assert!(QueryGraph::from_spec("1,2,3:0-1").is_err(), "disconnected");
        assert!(QueryGraph::from_spec("1,2:0-5").is_err(), "range");
        assert!(QueryGraph::from_text("v 1 1\n").is_err(), "out-of-order id");
        assert!(QueryGraph::from_text("x 0 0\n").is_err(), "bad directive");
    }

    #[test]
    fn ldf_respects_labels_and_degree() {
        let g = labeled_triangle_path();
        let q = must(QueryGraph::from_spec("1,2:0-1"));
        let c = CandidateSets::build(&g, &q);
        // Query vertex 0 (label 1, deg 1): data vertices 0 and 2.
        assert!(c.set(0).contains(0) && c.set(0).contains(2));
        assert!(!c.set(0).contains(1) && !c.set(0).contains(3));
        // Query vertex 1 (label 2, deg 1): only data vertex 1.
        assert_eq!(c.set(1).count(), 1);
        assert!(c.set(1).contains(1));
    }

    #[test]
    fn nlf_prunes_on_neighbor_label_counts() {
        // Star center with three label-1 leaves vs a query needing two
        // label-1 neighbors and one label-2 neighbor.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(0, 3);
        b.labels(vec![5, 1, 1, 1]);
        let g = match b.build() {
            Ok(g) => g,
            Err(e) => panic!("graph build failed: {e:?}"),
        };
        let q = must(QueryGraph::from_spec("5,1,2:0-1,0-2"));
        let c = CandidateSets::build(&g, &q);
        // LDF admits the center for query vertex 0, NLF rejects it (no
        // label-2 neighbor).
        assert_eq!(c.stats().ldf[0], 1);
        assert_eq!(c.stats().nlf[0], 0);
        assert_eq!(c.union().count(), 0);
    }

    #[test]
    fn refinement_prunes_vertices_whose_neighbors_lost_candidacy() {
        // Two components: a path A(1)-B(2)-C(1) and an edge D(1)-E(2).
        // Query: a label-1/2/1 path whose center needs degree 2, so E is
        // not a candidate for the center. D passes LDF and NLF (it has a
        // label-2 neighbor), but GQL refinement removes it: D's only
        // neighbor E is no longer a candidate for the center role.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(3, 4);
        b.labels(vec![1, 2, 1, 1, 2]);
        let g = match b.build() {
            Ok(g) => g,
            Err(e) => panic!("graph build failed: {e:?}"),
        };
        let q = must(QueryGraph::from_spec("1,2,1:0-1,1-2"));
        let c = CandidateSets::build(&g, &q);
        assert_eq!(c.stats().nlf[0], 3, "A, C, D all pass NLF: {:?}", c.stats());
        assert_eq!(c.stats().refined[0], 2, "GQL must drop D: {:?}", c.stats());
        assert!(!c.set(0).contains(3) && !c.union().contains(3));
        assert!(c.stats().refine_rounds >= 1);
    }

    #[test]
    fn matching_order_starts_at_rarest_and_stays_connected() {
        let g = labeled_triangle_path();
        let q = must(QueryGraph::from_spec("1,2,3:0-1,1-2"));
        let c = CandidateSets::build(&g, &q);
        let order = c.matching_order(&q);
        assert_eq!(order.len(), 3);
        // Every later vertex is connected to an earlier one.
        for (i, &u) in order.iter().enumerate().skip(1) {
            assert!(
                q.neighbors(u).any(|v| order[..i].contains(&v)),
                "order {order:?} breaks connectivity at {u}"
            );
        }
        // The first vertex has the (joint-)minimum candidate count.
        let min = (0..3).map(|u| c.set(u).count()).min().unwrap_or(0);
        assert_eq!(c.set(order[0]).count(), min);
    }

    #[test]
    fn filtered_enumeration_matches_brute_and_join() {
        let g = generate::with_random_labels(&generate::barabasi_albert(60, 3, 11), 3, 5);
        let q = must(QueryGraph::from_spec("1,2,1:0-1,1-2"));
        let app = match QueryApp::new(q) {
            Ok(a) => a,
            Err(e) => panic!("app: {e}"),
        };
        let brute = enumerate_matches(&g, &app, None);
        let c = CandidateSets::build(&g, &q);
        let mut filter = CandidateFilter::new(&c);
        let filtered = enumerate_matches(&g, &app, Some(&mut filter));
        assert_eq!(brute, filtered, "filtered must lose no matches");
        let joined = match_query(&g, &q, &c);
        assert_eq!(brute, joined, "candidate-join matcher must agree");
        assert!(filter.stats().probes > 0, "filtered run must probe");
    }

    #[test]
    fn candidate_sets_are_supersets_of_matched_vertices() {
        let g = generate::with_random_labels(&generate::erdos_renyi(40, 120, 9), 2, 3);
        let q = must(QueryGraph::from_spec("1,1,2:0-1,1-2"));
        let c = CandidateSets::build(&g, &q);
        for m in match_query(&g, &q, &c) {
            for v in m {
                assert!(c.union().contains(v), "match vertex {v} pruned");
            }
        }
    }

    #[test]
    fn filter_counts_probes_and_rejects() {
        let g = labeled_triangle_path();
        let q = must(QueryGraph::from_spec("1,2:0-1"));
        let c = CandidateSets::build(&g, &q);
        let mut f = CandidateFilter::new(&c);
        assert!(f.contains(0), "contains() must not count");
        assert_eq!(f.stats().probes, 0);
        assert!(f.admits(0));
        assert!(!f.admits(3));
        assert_eq!(
            f.stats(),
            FilterProbeStats {
                probes: 2,
                rejects: 1
            }
        );
    }
}
