//! The step-wise DFS extension engine.
//!
//! One [`Explorer`] owns the DFS exploration of a single initial embedding
//! — exactly the unit GRAMER binds to a pipeline slot (§V-B, Fig. 9). Its
//! unit of work, [`Explorer::step`], examines one adjacency slot (or
//! performs one traceback) and reports every memory access it makes, so a
//! cycle-level simulator can interleave many explorers and charge each
//! access to its memory model, while a software enumerator just runs each
//! explorer to completion. Both obtain bit-identical mining results.
//!
//! # Extension semantics
//!
//! Extending embedding `e = (v₁ … vₖ)` follows the paper's extend-check
//! model (§II-B): vertices are extended **in join order** (the compaction
//! invariant of §V-B), each adjacency slot of the extending vertex is
//! read, and each candidate `w` is checked for connectivity against the
//! embedding's earlier vertices. A candidate survives iff
//!
//! 1. `w ∉ e` (no revisits);
//! 2. the extending vertex is `w`'s *first* neighbor in join order
//!    (otherwise the same candidate would be produced several times);
//! 3. the grown embedding stays canonical, which for the greedy-minimum
//!    canonical order reduces to the pure comparisons
//!    `w > v₁ ∧ w > vₘ ∀ m > f` (f = first-neighbor index) — the
//!    automorphism check of Algorithm 1, line 7.
//!
//! Accepted candidates then resolve their connectivity to the remaining
//! vertices (more random edge accesses) so the embedding always carries
//! its full induced adjacency.

use crate::embedding::{Embedding, MAX_EMBEDDING};
use crate::memo::{MemoProbe, NoMemo};
use crate::observer::AccessObserver;
use crate::query::CandidateFilter;
use gramer_graph::{AdjProbe, CsrGraph, VertexId};

/// Result of one [`Explorer::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// An adjacency slot was examined and the candidate was rejected
    /// (duplicate vertex, not the first neighbor, or non-canonical).
    Rejected,
    /// A canonical extension was appended to the embedding. The caller
    /// must now apply its filters and call [`Explorer::descend`] to keep
    /// extending it or [`Explorer::retract`] to drop it.
    Candidate,
    /// The current embedding was exhausted; the explorer popped back to
    /// its parent (the DFS traceback of §V-A).
    Traceback,
    /// The initial embedding is fully explored.
    Done,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Join-order index of the vertex currently being extended.
    j: u8,
    /// Next neighbor index within that vertex's adjacency run.
    idx: u32,
    /// Exclusive upper bound on `j`. Normally the embedding size at frame
    /// creation; work stealing shrinks it when the frame's tail range is
    /// handed to a thief.
    j_end: u8,
    /// Exclusive upper bound on `idx` for the *current* `j`
    /// (`u32::MAX` = the extending vertex's full degree). Work stealing
    /// may hand the tail of a neighbor run to a thief.
    idx_end: u32,
    /// Whether the extending vertex's CSR row has been opened (vertex
    /// access charged).
    opened: bool,
    /// CSR row of the extending vertex, cached when the row is opened so
    /// the per-step hot path re-reads two frame fields instead of the
    /// graph's offset array. Both are a pure function of the (immutable)
    /// graph and `j`'s vertex, so the cache can never go stale while
    /// `opened` holds; `split()` only ever tightens `idx_end`, which is
    /// not cached.
    row_start: usize,
    /// Degree of the extending vertex, valid while `opened`.
    deg: u32,
}

impl Frame {
    fn fresh(j: u8, j_end: u8) -> Self {
        Frame {
            j,
            idx: 0,
            j_end,
            idx_end: u32::MAX,
            opened: false,
            row_start: 0,
            deg: 0,
        }
    }

    /// Placeholder for unused stack entries.
    const EMPTY: Frame = Frame {
        j: 0,
        idx: 0,
        j_end: 0,
        idx_end: 0,
        opened: false,
        row_start: 0,
        deg: 0,
    };
}

/// Step-wise DFS exploration of one initial embedding.
///
/// # Example
///
/// ```
/// use gramer_graph::generate;
/// use gramer_mining::{Explorer, NullObserver, Step};
///
/// let g = generate::complete(3);
/// let mut ex = Explorer::new(&g, 0);
/// let mut obs = NullObserver;
/// let mut emitted = 0;
/// loop {
///     match ex.step(&mut obs) {
///         Step::Candidate => {
///             emitted += 1;
///             if ex.embedding().len() < 3 { ex.descend(); } else { ex.retract(); }
///         }
///         Step::Done => break,
///         _ => {}
///     }
/// }
/// // From vertex 0 of K3: embeddings (0,1), (0,2), (0,1,2).
/// assert_eq!(emitted, 3);
/// ```
#[derive(Debug, Clone)]
pub struct Explorer<'g> {
    graph: &'g CsrGraph,
    /// Optional adjacency probe index for the connectivity checks; when
    /// absent, probes binary-search the CSR rows directly. Results and
    /// charged slots are identical either way (see [`AdjProbe`]).
    probe: Option<&'g AdjProbe>,
    emb: Embedding,
    /// DFS frame stack, stored inline: depth is bounded by
    /// [`MAX_EMBEDDING`], so no Explorer ever heap-allocates — a slot
    /// acquisition or work-steal split costs a fixed-size copy only.
    frames: [Frame; MAX_EMBEDDING],
    depth: u8,
    pending: bool,
    /// Whether this explorer was created by [`Explorer::split`] (it owns a
    /// stolen extension range). Purely observational — telemetry uses it
    /// to attribute steps to stolen vs. originally dispatched work.
    thief: bool,
}

impl<'g> Explorer<'g> {
    /// Starts exploring from the single-vertex initial embedding `root`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of bounds for `graph`.
    pub fn new(graph: &'g CsrGraph, root: VertexId) -> Self {
        assert!((root as usize) < graph.num_vertices(), "root out of bounds");
        let mut frames = [Frame::EMPTY; MAX_EMBEDDING];
        frames[0] = Frame::fresh(0, 1);
        Explorer {
            graph,
            probe: None,
            emb: Embedding::single(root),
            frames,
            depth: 1,
            pending: false,
            thief: false,
        }
    }

    /// Like [`Self::new`], but connectivity checks use the given
    /// [`AdjProbe`] (which must have been built over the same graph).
    pub fn with_probe(graph: &'g CsrGraph, probe: &'g AdjProbe, root: VertexId) -> Self {
        let mut ex = Explorer::new(graph, root);
        ex.probe = Some(probe);
        ex
    }

    /// Starts from an arbitrary existing embedding (used by the BFS
    /// enumerator to extend one frontier level, and by work stealing).
    pub fn with_embedding(graph: &'g CsrGraph, emb: Embedding) -> Self {
        assert!(!emb.is_empty(), "cannot explore an empty embedding");
        let j_end = emb.len() as u8;
        let mut frames = [Frame::EMPTY; MAX_EMBEDDING];
        frames[0] = Frame::fresh(0, j_end);
        Explorer {
            graph,
            probe: None,
            emb,
            frames,
            depth: 1,
            pending: false,
            thief: false,
        }
    }

    /// The embedding as currently grown (after [`Step::Candidate`] it
    /// includes the fresh vertex).
    pub fn embedding(&self) -> &Embedding {
        &self.emb
    }

    /// Current DFS depth (number of active frames).
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// Whether this explorer owns a range stolen via [`Explorer::split`]
    /// (work-stealing balance attribution; see the field note on `thief`).
    pub fn is_thief(&self) -> bool {
        self.thief
    }

    /// Performs one unit of work: examines one adjacency slot or performs
    /// one traceback. See [`Step`] for the outcomes.
    ///
    /// # Panics
    ///
    /// Panics if called while a [`Step::Candidate`] decision is pending
    /// (call [`descend`](Self::descend) or [`retract`](Self::retract)
    /// first).
    pub fn step<O: AccessObserver>(&mut self, observer: &mut O) -> Step {
        self.step_with(observer, &mut NoMemo, None)
    }

    /// [`Self::step`] with a connectivity-probe memo (see
    /// [`crate::PairMemoTable`]): [`Self::step_with`] without a
    /// candidate filter. It stays public for the benchmark harness
    /// (`perfbench/`), which steps its own [`MemoProbe`] through it, and
    /// can fold into `step_with` once a benchmark change ports that
    /// harness.
    ///
    /// # Panics
    ///
    /// Panics if called while a [`Step::Candidate`] decision is pending.
    pub fn step_memo<O: AccessObserver, M: MemoProbe>(
        &mut self,
        observer: &mut O,
        memo: &mut M,
    ) -> Step {
        self.step_with(observer, memo, None)
    }

    /// The one stepper behind [`Self::step`] and [`Self::step_memo`].
    ///
    /// Every pairwise connectivity check first consults `memo`: a hit
    /// skips the probe's three memory accesses and reports
    /// [`AccessObserver::memo_hit`] instead; a miss resolves honestly and
    /// records the outcome. With [`NoMemo`] (what [`Self::step`] passes)
    /// all memo branches constant-fold away. Mined embeddings are
    /// bit-identical either way: connectivity is a pure function of the
    /// immutable graph.
    ///
    /// With a candidate `filter` (see [`CandidateFilter`]), every
    /// examined adjacency slot consults it before any connectivity work:
    /// one [`AccessObserver::filter_probe`] is reported (the modeled
    /// filter-SRAM read) and non-candidates are rejected immediately,
    /// skipping the entire extend-check pipeline and the subtree below.
    /// Without one, the check is a single never-taken branch.
    ///
    /// Rejecting non-candidates is lossless for query workloads: every
    /// vertex of every embedding matching the query survives the sound
    /// candidate pipeline, so the canonical DFS path to each match only
    /// ever extends through admitted vertices.
    ///
    /// # Panics
    ///
    /// Panics if called while a [`Step::Candidate`] decision is pending.
    pub fn step_with<O: AccessObserver, M: MemoProbe>(
        &mut self,
        observer: &mut O,
        memo: &mut M,
        filter: Option<&mut CandidateFilter>,
    ) -> Step {
        assert!(
            !self.pending,
            "previous candidate awaits descend() or retract()"
        );
        let size = self.emb.len();

        // Advance bookkeeping until a billable action is found.
        loop {
            if self.depth == 0 {
                return Step::Done;
            }
            let frame = &mut self.frames[self.depth as usize - 1];
            if frame.j >= frame.j_end {
                // Current embedding exhausted: traceback.
                self.depth -= 1;
                if self.depth == 0 {
                    return Step::Done;
                }
                self.emb.pop();
                return Step::Traceback;
            }
            if !frame.opened {
                // Opening a new extending vertex reads its CSR row; cache
                // its (immutable) row start and degree in the frame so the
                // steady-state path below touches no graph offset arrays.
                let vj = self.emb.vertex(frame.j as usize);
                observer.vertex_access(vj, size);
                frame.row_start = self.graph.first_edge_offset(vj);
                frame.deg = self.graph.degree(vj) as u32;
                frame.opened = true;
            }
            // `idx_end` may shrink under split(), so the limit is
            // recomputed each step from the cached degree.
            let limit = frame.deg.min(frame.idx_end);
            if frame.idx < limit {
                break;
            }
            // Neighbor run exhausted; move to the next join-order vertex.
            frame.j += 1;
            frame.idx = 0;
            frame.idx_end = u32::MAX;
            frame.opened = false;
        }

        // The loop above advances but never pops the last frame.
        let frame = &mut self.frames[self.depth as usize - 1];
        let j = frame.j as usize;
        let vj = self.emb.vertex(j);
        let slot = frame.row_start + frame.idx as usize;
        frame.idx += 1;
        observer.edge_access(slot, vj, size);
        let w = self.graph.adjacency_at(slot);

        if let Some(filter) = filter {
            // Candidate-filter admission: one modeled filter-SRAM read,
            // ahead of every connectivity probe the rejection saves.
            let admitted = filter.admits(w);
            observer.filter_probe(admitted, size);
            if !admitted {
                return Step::Rejected;
            }
        }

        if self.emb.contains(w) {
            return Step::Rejected;
        }

        // First-neighbor rule: `vj` must be w's earliest neighbor in join
        // order. Each probe is a random edge access (the connectivity
        // check of the extend-check model).
        for i in 0..j {
            let u = self.emb.vertex(i);
            if self.connectivity_check_memo(w, u, size, observer, memo) {
                return Step::Rejected;
            }
        }

        // Canonicality (automorphism) check: pure ID comparisons.
        if w <= self.emb.vertex(0) {
            return Step::Rejected;
        }
        for m in (j + 1)..size {
            if w <= self.emb.vertex(m) {
                return Step::Rejected;
            }
        }

        // Accepted: read the candidate's vertex data and resolve its
        // connectivity to the not-yet-checked members.
        observer.vertex_access(w, size);
        let mut adj_row = 1u8 << j;
        for m in (j + 1)..size {
            let u = self.emb.vertex(m);
            if self.connectivity_check_memo(w, u, size, observer, memo) {
                adj_row |= 1 << m;
            }
        }
        debug_assert!(size < MAX_EMBEDDING);
        self.emb.push(w, adj_row);
        self.pending = true;
        Step::Candidate
    }

    /// Keeps the candidate and descends into it (it becomes the embedding
    /// under extension).
    ///
    /// # Panics
    ///
    /// Panics unless the last [`step`](Self::step) returned
    /// [`Step::Candidate`].
    pub fn descend(&mut self) {
        assert!(self.pending, "descend without a pending candidate");
        self.pending = false;
        let j_end = self.emb.len() as u8;
        // depth < emb.len() <= MAX_EMBEDDING always holds here.
        self.frames[self.depth as usize] = Frame::fresh(0, j_end);
        self.depth += 1;
    }

    /// Drops the candidate (filter failed or maximum size reached) and
    /// resumes its parent's extension.
    ///
    /// # Panics
    ///
    /// Panics unless the last [`step`](Self::step) returned
    /// [`Step::Candidate`].
    pub fn retract(&mut self) {
        assert!(self.pending, "retract without a pending candidate");
        self.pending = false;
        self.emb.pop();
    }

    /// Splits off part of this explorer's remaining work for another
    /// worker — the work-stealing mechanism of §V-C, where an idle slot
    /// takes an embedding from a busy slot's ancestor buffer.
    ///
    /// The shallowest frame with divisible remaining work is cut. Two cuts
    /// are possible, tried in order:
    ///
    /// 1. **Join-order cut** — the frame still has unvisited extending
    ///    vertices `[j+1, j_end)`; the thief takes them all.
    /// 2. **Neighbor-run cut** — the frame is on its last extending vertex
    ///    but its remaining neighbor range has ≥ 2 entries; the thief
    ///    takes the upper half. This is what parallelises the huge
    ///    adjacency runs of power-law hubs.
    ///
    /// Either way, the two explorers cover disjoint, jointly-exhaustive
    /// extension ranges of the same ancestor embedding, so mining results
    /// are unchanged by stealing (property-tested).
    ///
    /// Returns `None` if nothing is divisible (the victim is nearly done).
    ///
    /// # Panics
    ///
    /// Panics if a [`Step::Candidate`] decision is pending.
    pub fn split(&mut self) -> Option<Explorer<'g>> {
        assert!(!self.pending, "split while a candidate is pending");

        // frames[i] extends the embedding prefix of size base + i.
        let base = self.emb.len() - self.depth as usize + 1;

        let mut cut: Option<(usize, Frame)> = None;
        for (depth, frame) in self.frames[..self.depth as usize].iter_mut().enumerate() {
            if frame.j >= frame.j_end {
                continue; // exhausted frame awaiting traceback
            }
            if frame.j + 1 < frame.j_end {
                // Join-order cut.
                let thief = Frame::fresh(frame.j + 1, frame.j_end);
                frame.j_end = frame.j + 1;
                cut = Some((depth, thief));
                break;
            }
            // Neighbor-run cut on the frame's last extending vertex. A
            // minimum width of 4 keeps thieves from walking off with
            // single-slot fragments (steal thrash at the drain tail).
            const MIN_RUN_CUT: u32 = 4;
            let prefix_len = base + depth;
            let vj_index = frame.j as usize;
            if vj_index >= prefix_len {
                continue;
            }
            let vj = self.emb.vertex(vj_index);
            let limit = (self.graph.degree(vj) as u32).min(frame.idx_end);
            if frame.idx + MIN_RUN_CUT <= limit {
                let mid = frame.idx + (limit - frame.idx) / 2 + (limit - frame.idx) % 2;
                let thief = Frame {
                    j: frame.j,
                    idx: mid,
                    j_end: frame.j + 1,
                    idx_end: limit,
                    opened: false,
                    row_start: 0,
                    deg: 0,
                };
                frame.idx_end = mid;
                cut = Some((depth, thief));
                break;
            }
        }
        let (depth, thief_frame) = cut?;

        let prefix_len = base + depth;
        let mut emb = self.emb;
        while emb.len() > prefix_len {
            emb.pop();
        }
        let mut frames = [Frame::EMPTY; MAX_EMBEDDING];
        frames[0] = thief_frame;
        Some(Explorer {
            graph: self.graph,
            probe: self.probe,
            emb,
            frames,
            depth: 1,
            pending: false,
            thief: true,
        })
    }

    /// [`Self::connectivity_check`] behind the pair memo: a hit answers
    /// from the table (charging only [`AccessObserver::memo_hit`]); a
    /// miss probes honestly and records the outcome — reporting the
    /// eviction, if the insert displaced a victim, so byte-budget
    /// pressure is observable. With an inactive memo the wrapper
    /// compiles down to the plain probe.
    #[inline]
    fn connectivity_check_memo<O: AccessObserver, M: MemoProbe>(
        &self,
        w: VertexId,
        u: VertexId,
        size: usize,
        observer: &mut O,
        memo: &mut M,
    ) -> bool {
        if M::ACTIVE {
            if let Some(connected) = memo.lookup(w, u) {
                observer.memo_hit(size);
                return connected;
            }
        }
        let found = self.connectivity_check(w, u, size, observer);
        if M::ACTIVE {
            observer.memo_miss(size);
            if memo.record(w, u, found) {
                observer.memo_evict(size);
            }
        }
        found
    }

    /// Whether the undirected edge `{w, u}` exists, with `u` an embedding
    /// member.
    ///
    /// Access charging follows the paper's extend-check model (Fig. 2(b):
    /// checking candidate ④'s connectivity to ② makes "the accesses to
    /// 2→4 and 4→2" random): one random vertex access on `u` (the
    /// embedding structure is re-read to locate its adjacency) and one
    /// random edge probe in *each* endpoint's adjacency run. Because hubs
    /// are members of the most embeddings, this is exactly the traffic
    /// the extension-locality observation (§II-D) concentrates on hot
    /// data.
    fn connectivity_check<O: AccessObserver>(
        &self,
        w: VertexId,
        u: VertexId,
        size: usize,
        observer: &mut O,
    ) -> bool {
        observer.vertex_access(u, size);
        // The indexed and unindexed paths return identical (found, pos)
        // pairs (see AdjProbe), so the charged slot — and thus every
        // simulated cycle count — is probe-index-invariant. The branch on
        // the probe index is hoisted out of the per-probe path: it is
        // fixed for the explorer's whole lifetime.
        let (found, back) = match self.probe {
            Some(ix) => {
                // u→w probe (the embedding member's list, hub-weighted)...
                let (found, pos) = ix.probe(self.graph, u, w);
                observer.edge_access(self.graph.first_edge_offset(u) + pos, u, size);
                // ... and w→u probe (the candidate's list).
                let (back, pos) = ix.probe(self.graph, w, u);
                observer.edge_access(self.graph.first_edge_offset(w) + pos, w, size);
                (found, back)
            }
            None => {
                let (found, pos) = AdjProbe::probe_unindexed(self.graph, u, w);
                observer.edge_access(self.graph.first_edge_offset(u) + pos, u, size);
                let (back, pos) = AdjProbe::probe_unindexed(self.graph, w, u);
                observer.edge_access(self.graph.first_edge_offset(w) + pos, w, size);
                (found, back)
            }
        };
        debug_assert_eq!(found, back, "adjacency must be symmetric");
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{CountingObserver, NullObserver};
    use gramer_graph::generate;
    use std::collections::HashSet;

    /// Runs one explorer to completion, collecting every embedding of size
    /// up to `max` (descending into all of them).
    fn collect(graph: &CsrGraph, root: VertexId, max: usize) -> Vec<Vec<VertexId>> {
        let mut ex = Explorer::new(graph, root);
        let mut obs = NullObserver;
        let mut out = Vec::new();
        loop {
            match ex.step(&mut obs) {
                Step::Candidate => {
                    out.push(ex.embedding().vertices().to_vec());
                    if ex.embedding().len() < max {
                        ex.descend();
                    } else {
                        ex.retract();
                    }
                }
                Step::Done => return out,
                Step::Rejected | Step::Traceback => {}
            }
        }
    }

    use gramer_graph::CsrGraph;

    #[test]
    fn triangle_from_each_root() {
        let g = generate::complete(3);
        // Root 0 generates (0,1), (0,2), (0,1,2).
        let e0 = collect(&g, 0, 3);
        assert_eq!(e0.len(), 3);
        // Roots 1 and 2 generate only embeddings blocked by canonicality.
        assert_eq!(collect(&g, 1, 3), vec![vec![1, 2]]);
        assert!(collect(&g, 2, 3).is_empty());
    }

    #[test]
    fn each_connected_set_enumerated_once() {
        let g = generate::rmat(5, 60, generate::RmatParams::default(), 3);
        let mut seen: HashSet<Vec<VertexId>> = HashSet::new();
        for root in g.vertices() {
            for emb in collect(&g, root, 4) {
                let mut sorted = emb.clone();
                sorted.sort_unstable();
                assert!(seen.insert(sorted), "duplicate embedding {emb:?}");
            }
        }
    }

    #[test]
    fn embeddings_are_connected_and_induced() {
        let g = generate::barabasi_albert(40, 2, 5);
        for root in g.vertices().take(10) {
            let mut ex = Explorer::new(&g, root);
            let mut obs = NullObserver;
            loop {
                match ex.step(&mut obs) {
                    Step::Candidate => {
                        let e = ex.embedding();
                        assert!(e.is_connected());
                        // Induced: adjacency rows must match the graph.
                        for i in 0..e.len() {
                            for j in (i + 1)..e.len() {
                                assert_eq!(
                                    e.adjacency_row(i) & (1 << j) != 0,
                                    g.has_edge(e.vertex(i), e.vertex(j))
                                );
                            }
                        }
                        if e.len() < 4 {
                            ex.descend();
                        } else {
                            ex.retract();
                        }
                    }
                    Step::Done => break,
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn edge_count_matches_two_vertex_embeddings() {
        // Every undirected edge yields exactly one canonical 2-embedding.
        let g = generate::erdos_renyi(30, 60, 9);
        let total: usize = g.vertices().map(|r| collect(&g, r, 2).len()).sum();
        assert_eq!(total, g.num_edges());
    }

    #[test]
    fn observer_sees_accesses() {
        let g = generate::complete(4);
        let mut ex = Explorer::new(&g, 0);
        let mut obs = CountingObserver::default();
        loop {
            match ex.step(&mut obs) {
                Step::Candidate => {
                    if ex.embedding().len() < 3 {
                        ex.descend();
                    } else {
                        ex.retract();
                    }
                }
                Step::Done => break,
                _ => {}
            }
        }
        assert!(obs.vertex_accesses > 0);
        assert!(obs.edge_accesses > obs.vertex_accesses);
    }

    #[test]
    fn retract_allows_siblings() {
        let g = generate::complete(4);
        // Never descend: only 2-vertex embeddings from root 0 -> 3 of them.
        let mut ex = Explorer::new(&g, 0);
        let mut obs = NullObserver;
        let mut count = 0;
        loop {
            match ex.step(&mut obs) {
                Step::Candidate => {
                    count += 1;
                    ex.retract();
                }
                Step::Done => break,
                _ => {}
            }
        }
        assert_eq!(count, 3);
    }

    /// Drives a set of explorers (stealing-style) and counts embeddings.
    fn drain_all(mut pool: Vec<Explorer<'_>>, max: usize) -> Vec<Vec<VertexId>> {
        let mut obs = NullObserver;
        let mut out = Vec::new();
        while let Some(mut ex) = pool.pop() {
            loop {
                match ex.step(&mut obs) {
                    Step::Candidate => {
                        out.push(ex.embedding().vertices().to_vec());
                        if ex.embedding().len() < max {
                            ex.descend();
                        } else {
                            ex.retract();
                        }
                    }
                    Step::Done => break,
                    _ => {}
                }
            }
        }
        out
    }

    #[test]
    fn split_preserves_results() {
        let g = generate::barabasi_albert(50, 3, 13);
        for root in g.vertices().take(20) {
            let baseline = collect(&g, root, 4);

            // Run a few steps, then split repeatedly and drain everything.
            let mut ex = Explorer::new(&g, root);
            let mut obs = NullObserver;
            let mut out = Vec::new();
            let mut splits = Vec::new();
            for i in 0..40 {
                match ex.step(&mut obs) {
                    Step::Candidate => {
                        out.push(ex.embedding().vertices().to_vec());
                        if ex.embedding().len() < 4 {
                            ex.descend();
                        } else {
                            ex.retract();
                        }
                    }
                    Step::Done => break,
                    _ => {}
                }
                if i % 7 == 3 {
                    if let Some(thief) = ex.split() {
                        splits.push(thief);
                    }
                }
            }
            splits.push(ex);
            out.extend(drain_all(splits, 4));

            let norm = |mut v: Vec<Vec<VertexId>>| {
                v.sort();
                v
            };
            assert_eq!(norm(out), norm(baseline), "root {root}");
        }
    }

    #[test]
    fn memoized_step_is_result_identical_and_saves_accesses() {
        use crate::memo::PairMemoTable;
        let g = generate::barabasi_albert(60, 3, 17);
        let mut plain_accesses = 0u64;
        let mut memo_accesses = 0u64;
        let mut total_hits = 0u64;
        for root in g.vertices() {
            let baseline = collect(&g, root, 4);
            let mut ex = Explorer::new(&g, root);
            let mut obs = CountingObserver::default();
            let mut memo = PairMemoTable::with_budget(1 << 16);
            let mut out = Vec::new();
            loop {
                match ex.step_memo(&mut obs, &mut memo) {
                    Step::Candidate => {
                        out.push(ex.embedding().vertices().to_vec());
                        if ex.embedding().len() < 4 {
                            ex.descend();
                        } else {
                            ex.retract();
                        }
                    }
                    Step::Done => break,
                    _ => {}
                }
            }
            assert_eq!(out, baseline, "root {root}");
            memo_accesses += obs.vertex_accesses + obs.edge_accesses;
            total_hits += memo.stats().hits;

            let mut plain = CountingObserver::default();
            let _ = collect_with(&g, root, 4, &mut plain);
            plain_accesses += plain.vertex_accesses + plain.edge_accesses;
        }
        assert!(total_hits > 0, "memo never hit on a BA graph");
        // Every hit skips one vertex access and two edge probes.
        assert_eq!(memo_accesses, plain_accesses - 3 * total_hits);
    }

    /// `collect` with a caller-supplied observer.
    fn collect_with(
        graph: &CsrGraph,
        root: VertexId,
        max: usize,
        obs: &mut CountingObserver,
    ) -> usize {
        let mut ex = Explorer::new(graph, root);
        let mut n = 0;
        loop {
            match ex.step(obs) {
                Step::Candidate => {
                    n += 1;
                    if ex.embedding().len() < max {
                        ex.descend();
                    } else {
                        ex.retract();
                    }
                }
                Step::Done => return n,
                _ => {}
            }
        }
    }

    #[test]
    fn split_returns_none_when_exhausted() {
        let g = generate::path(2);
        let mut ex = Explorer::new(&g, 0);
        // Single frame with j_end = 1: never splittable.
        assert!(ex.split().is_none());
    }

    #[test]
    #[should_panic(expected = "awaits descend")]
    fn step_while_pending_panics() {
        let g = generate::complete(3);
        let mut ex = Explorer::new(&g, 0);
        let mut obs = NullObserver;
        loop {
            if ex.step(&mut obs) == Step::Candidate {
                break;
            }
        }
        let _ = ex.step(&mut obs);
    }

    #[test]
    #[should_panic(expected = "descend")]
    fn descend_without_candidate_panics() {
        let g = generate::complete(3);
        let mut ex = Explorer::new(&g, 0);
        ex.descend();
    }
}
