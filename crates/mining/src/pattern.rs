use crate::embedding::{Embedding, MAX_EMBEDDING};
use gramer_graph::hash::FxHashMap;
use gramer_graph::{CsrGraph, Label};
use std::fmt;

/// Identifier of an interned canonical pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternId(pub u32);

/// A canonical pattern: the isomorphism class of a small labeled graph.
///
/// Two embeddings are isomorphic to the same pattern iff their canonical
/// forms are equal (§II-A). Canonicalisation takes the lexicographically
/// minimal `(labels, adjacency)` over all vertex permutations — exact for
/// the ≤ 8-vertex patterns graph mining works with.
///
/// # Example
///
/// ```
/// use gramer_mining::Pattern;
///
/// // A wedge and its relabeled twin canonicalise identically.
/// let a = Pattern::from_parts(3, &[0, 0, 0], &[0b010, 0b101, 0b010]);
/// let b = Pattern::from_parts(3, &[0, 0, 0], &[0b110, 0b001, 0b001]);
/// assert_eq!(a, b);
/// assert_eq!(a.edge_count(), 2);
/// assert!(!a.is_clique());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pattern {
    n: u8,
    labels: [Label; MAX_EMBEDDING],
    adj: [u8; MAX_EMBEDDING],
}

impl Pattern {
    /// Builds the canonical pattern of a labeled graph given raw
    /// adjacency rows (bit `j` of `adj[i]` ⇔ edge `{i, j}`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n > MAX_EMBEDDING`, slices are shorter than
    /// `n`, or the adjacency is asymmetric / has self-loops.
    pub fn from_parts(n: usize, labels: &[Label], adj: &[u8]) -> Self {
        assert!(
            (1..=MAX_EMBEDDING).contains(&n),
            "pattern size out of range"
        );
        assert!(labels.len() >= n && adj.len() >= n, "short slices");
        for i in 0..n {
            assert_eq!(adj[i] & (1 << i), 0, "self loop in pattern");
            assert_eq!(adj[i] >> n, 0, "adjacency bit beyond n");
            for j in 0..n {
                assert_eq!((adj[i] >> j) & 1, (adj[j] >> i) & 1, "asymmetric adjacency");
            }
        }
        let mut raw_labels = [0 as Label; MAX_EMBEDDING];
        let mut raw_adj = [0u8; MAX_EMBEDDING];
        raw_labels[..n].copy_from_slice(&labels[..n]);
        raw_adj[..n].copy_from_slice(&adj[..n]);
        canonicalize(n, raw_labels, raw_adj)
    }

    /// The canonical pattern of an embedding in `graph` (labels read from
    /// the graph).
    pub fn of_embedding(graph: &CsrGraph, emb: &Embedding) -> Self {
        let n = emb.len();
        let mut labels = [0 as Label; MAX_EMBEDDING];
        let mut adj = [0u8; MAX_EMBEDDING];
        for i in 0..n {
            labels[i] = graph.label(emb.vertex(i));
            adj[i] = emb.adjacency_row(i);
        }
        canonicalize(n, labels, adj)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n as usize
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj[..self.n as usize]
            .iter()
            .map(|r| r.count_ones() as usize)
            .sum::<usize>()
            / 2
    }

    /// Whether the pattern is complete — a `k`-clique.
    pub fn is_clique(&self) -> bool {
        let n = self.n as usize;
        self.adj[..n]
            .iter()
            .all(|r| r.count_ones() as usize == n - 1)
    }

    /// Canonical label sequence.
    pub fn labels(&self) -> &[Label] {
        &self.labels[..self.n as usize]
    }

    /// Whether the canonical vertices `i` and `j` are adjacent.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn has_edge(&self, i: usize, j: usize) -> bool {
        assert!(i < self.n as usize && j < self.n as usize);
        self.adj[i] & (1 << j) != 0
    }

    /// Whether the pattern is connected.
    pub fn is_connected(&self) -> bool {
        let n = self.n as usize;
        let mut seen = 1u8;
        let mut frontier = 1u8;
        while frontier != 0 {
            let mut next = 0u8;
            for i in 0..n {
                if frontier & (1 << i) != 0 {
                    next |= self.adj[i];
                }
            }
            frontier = next & !seen;
            seen |= next;
        }
        seen.count_ones() as usize >= n
    }

    /// Number of automorphisms (label-preserving vertex permutations
    /// mapping the pattern onto itself).
    ///
    /// A pattern with `a` automorphisms has `n!/a` distinct vertex-labeled
    /// orderings per embedding — the redundancy the canonicality check of
    /// Algorithm 1 eliminates.
    ///
    /// # Example
    ///
    /// ```
    /// use gramer_mining::Pattern;
    ///
    /// let triangle = Pattern::from_parts(3, &[0; 3], &[0b110, 0b101, 0b011]);
    /// assert_eq!(triangle.automorphism_count(), 6);
    /// let wedge = Pattern::from_parts(3, &[0; 3], &[0b110, 0b001, 0b001]);
    /// assert_eq!(wedge.automorphism_count(), 2);
    /// ```
    pub fn automorphism_count(&self) -> u64 {
        let n = self.n as usize;
        let mut count = 0u64;
        let mut perm: [usize; MAX_EMBEDDING] = [0, 1, 2, 3, 4, 5, 6, 7];
        permute(&mut perm, n, &mut |p| {
            let mut place = [0usize; MAX_EMBEDDING];
            for (pos, &orig) in p.iter().take(n).enumerate() {
                place[orig] = pos;
            }
            let ok = (0..n).all(|pos| {
                let orig = p[pos];
                if self.labels[orig] != self.labels[pos] {
                    return false;
                }
                let mut row = 0u8;
                let mut bits = self.adj[orig];
                while bits != 0 {
                    let j = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    row |= 1 << place[j];
                }
                row == self.adj[pos]
            });
            if ok {
                count += 1;
            }
        });
        count
    }

    /// A conventional name for well-known small unlabeled shapes
    /// ("triangle", "wedge", "4-path", …), or `None` for everything else.
    ///
    /// # Example
    ///
    /// ```
    /// use gramer_mining::Pattern;
    ///
    /// let tri = Pattern::from_parts(3, &[0; 3], &[0b110, 0b101, 0b011]);
    /// assert_eq!(tri.common_name(), Some("triangle"));
    /// ```
    pub fn common_name(&self) -> Option<&'static str> {
        if self.labels().iter().any(|&l| l != 0) {
            return None;
        }
        let n = self.num_vertices();
        let e = self.edge_count();
        let degs = || {
            let mut d: Vec<u32> = (0..n).map(|i| self.adj[i].count_ones()).collect();
            d.sort_unstable();
            d
        };
        match (n, e) {
            (1, 0) => Some("vertex"),
            (2, 1) => Some("edge"),
            (3, 2) => Some("wedge"),
            (3, 3) => Some("triangle"),
            (4, 3) if degs() == [1, 1, 1, 3] => Some("3-star"),
            (4, 3) => Some("4-path"),
            (4, 4) if degs() == [2, 2, 2, 2] => Some("4-cycle"),
            (4, 4) => Some("tailed-triangle"),
            (4, 5) => Some("diamond"),
            (4, 6) => Some("4-clique"),
            (5, 10) => Some("5-clique"),
            (5, 4) if degs() == [1, 1, 1, 1, 4] => Some("4-star"),
            (5, 4) if degs() == [1, 1, 2, 2, 2] => Some("5-path"),
            (5, 5) if degs() == [2, 2, 2, 2, 2] => Some("5-cycle"),
            _ => None,
        }
    }

    /// Enumerates every canonical connected unlabeled pattern with exactly
    /// `n` vertices, sorted by edge count then canonical order.
    ///
    /// The counts follow the sequence of connected graphs on `n` nodes
    /// (OEIS A001349): 1, 2, 6, 21, 112, …
    ///
    /// # Example
    ///
    /// ```
    /// use gramer_mining::Pattern;
    ///
    /// assert_eq!(Pattern::all_connected(3).len(), 2);  // wedge, triangle
    /// assert_eq!(Pattern::all_connected(4).len(), 6);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside `1..=6` (beyond 6 the subset enumeration
    /// would be slow and the motif literature stops caring).
    pub fn all_connected(n: usize) -> Vec<Pattern> {
        assert!((1..=6).contains(&n), "supported sizes are 1..=6");
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .collect();
        let mut seen = std::collections::HashSet::new();
        for mask in 0u32..(1 << pairs.len()) {
            let mut adj = [0u8; MAX_EMBEDDING];
            for (b, &(i, j)) in pairs.iter().enumerate() {
                if mask & (1 << b) != 0 {
                    adj[i] |= 1 << j;
                    adj[j] |= 1 << i;
                }
            }
            let p = Pattern::from_parts(n, &[0; MAX_EMBEDDING], &adj[..n]);
            if p.is_connected() {
                seen.insert(p);
            }
        }
        let mut all: Vec<Pattern> = seen.into_iter().collect();
        all.sort_by_key(|p| (p.edge_count(), *p));
        all
    }
}

impl fmt::Debug for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.n as usize;
        write!(f, "Pattern(n={n}, edges=[")?;
        let mut first = true;
        for i in 0..n {
            for j in (i + 1)..n {
                if self.adj[i] & (1 << j) != 0 {
                    if !first {
                        write!(f, ", ")?;
                    }
                    write!(f, "{i}-{j}")?;
                    first = false;
                }
            }
        }
        write!(f, "]")?;
        if self.labels[..n].iter().any(|&l| l != 0) {
            write!(f, ", labels={:?}", &self.labels[..n])?;
        }
        write!(f, ")")
    }
}

fn canonicalize(n: usize, labels: [Label; MAX_EMBEDDING], adj: [u8; MAX_EMBEDDING]) -> Pattern {
    let mut best: Option<([Label; MAX_EMBEDDING], [u8; MAX_EMBEDDING])> = None;
    let mut perm: [usize; MAX_EMBEDDING] = [0, 1, 2, 3, 4, 5, 6, 7];
    permute(&mut perm, n, &mut |p| {
        // place[original] = canonical position
        let mut place = [0usize; MAX_EMBEDDING];
        for (pos, &orig) in p.iter().take(n).enumerate() {
            place[orig] = pos;
        }
        let mut cl = [0 as Label; MAX_EMBEDDING];
        let mut ca = [0u8; MAX_EMBEDDING];
        for pos in 0..n {
            let orig = p[pos];
            cl[pos] = labels[orig];
            let mut row = 0u8;
            let mut bits = adj[orig];
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                row |= 1 << place[j];
            }
            ca[pos] = row;
        }
        match &best {
            Some((bl, ba)) if (&cl[..n], &ca[..n]) >= (&bl[..n], &ba[..n]) => {}
            _ => best = Some((cl, ca)),
        }
    });
    let (labels, adj) = match best {
        Some(b) => b,
        // permute() always visits at least the identity permutation.
        None => unreachable!("canonicalization saw no permutation"),
    };
    Pattern {
        n: n as u8,
        labels,
        adj,
    }
}

/// Heap's algorithm over the first `n` entries of `perm`.
fn permute<F: FnMut(&[usize; MAX_EMBEDDING])>(
    perm: &mut [usize; MAX_EMBEDDING],
    n: usize,
    visit: &mut F,
) {
    fn rec<F: FnMut(&[usize; MAX_EMBEDDING])>(
        perm: &mut [usize; MAX_EMBEDDING],
        k: usize,
        visit: &mut F,
    ) {
        if k <= 1 {
            visit(perm);
            return;
        }
        for i in 0..k {
            rec(perm, k - 1, visit);
            if k.is_multiple_of(2) {
                perm.swap(i, k - 1);
            } else {
                perm.swap(0, k - 1);
            }
        }
    }
    rec(perm, n, visit);
}

/// Interner that maps raw (order-of-addition) pattern keys to canonical
/// [`PatternId`]s.
///
/// Canonicalisation enumerates up to `n!` permutations, far too slow to run
/// per embedding; but the number of *distinct raw keys* seen during a mine
/// is tiny (patterns × addition orders), so a memo table absorbs the cost.
///
/// # Example
///
/// ```
/// use gramer_graph::generate;
/// use gramer_mining::{Embedding, PatternInterner};
///
/// let g = generate::complete(3);
/// let mut interner = PatternInterner::new();
/// let mut e = Embedding::single(0);
/// e.push(1, 0b01);
/// e.push(2, 0b11);
/// let id = interner.intern(&g, &e);
/// assert!(interner.pattern(id).is_clique());
/// ```
#[derive(Debug)]
pub struct PatternInterner {
    // Fx-hashed (gramer_graph::hash): intern() runs once per accepted
    // embedding, and the 25-byte keys make SipHash the dominant cost.
    raw: FxHashMap<RawKey, PatternId>,
    canon: FxHashMap<Pattern, PatternId>,
    patterns: Vec<Pattern>,
    // Automorphism counts, parallel to `patterns` and computed once when
    // the canonical pattern is first created: `automorphism_count`
    // enumerates up to n! permutations, far too expensive to redo on
    // every lookup.
    autos: Vec<u64>,
    // Recently interned (key, id) pairs in move-to-front order:
    // consecutive accepted embeddings cycle through a handful of raw keys
    // (MC(3) alternates wedge addition orders with triangles), so a short
    // linear scan absorbs nearly every lookup before the map probe. A
    // single-entry memo thrashes on exactly that alternation. Purely a
    // host-side memo — it returns exactly what the map would. Unused
    // entries hold `n == 0`, which no real embedding produces.
    memo: [(RawKey, PatternId); MEMO_ENTRIES],
}

/// Entries in the [`PatternInterner`] move-to-front memo. Covers the
/// distinct raw keys of a typical small-motif mine with slack.
const MEMO_ENTRIES: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RawKey {
    n: u8,
    labels: [Label; MAX_EMBEDDING],
    adj: [u8; MAX_EMBEDDING],
}

impl RawKey {
    /// Memo filler; `n == 0` never matches a real embedding's key.
    const EMPTY: RawKey = RawKey {
        n: 0,
        labels: [0; MAX_EMBEDDING],
        adj: [0; MAX_EMBEDDING],
    };
}

impl Default for PatternInterner {
    fn default() -> Self {
        PatternInterner {
            raw: FxHashMap::default(),
            canon: FxHashMap::default(),
            patterns: Vec::new(),
            autos: Vec::new(),
            memo: [(RawKey::EMPTY, PatternId(0)); MEMO_ENTRIES],
        }
    }
}

impl PatternInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns the pattern of `emb`, canonicalising only on raw-key misses.
    pub fn intern(&mut self, graph: &CsrGraph, emb: &Embedding) -> PatternId {
        let n = emb.len();
        let mut labels = [0 as Label; MAX_EMBEDDING];
        let mut adj = [0u8; MAX_EMBEDDING];
        for i in 0..n {
            labels[i] = graph.label(emb.vertex(i));
            adj[i] = emb.adjacency_row(i);
        }
        let key = RawKey {
            n: n as u8,
            labels,
            adj,
        };
        for i in 0..MEMO_ENTRIES {
            if self.memo[i].0 == key {
                let hit = self.memo[i];
                self.memo.copy_within(..i, 1);
                self.memo[0] = hit;
                return hit.1;
            }
        }
        let id = match self.raw.get(&key) {
            Some(&id) => id,
            None => {
                let pattern = canonicalize(n, labels, adj);
                let next = PatternId(self.patterns.len() as u32);
                let id = *self.canon.entry(pattern).or_insert_with(|| {
                    self.patterns.push(pattern);
                    self.autos.push(pattern.automorphism_count());
                    next
                });
                self.raw.insert(key, id);
                id
            }
        };
        self.memo.copy_within(..MEMO_ENTRIES - 1, 1);
        self.memo[0] = (key, id);
        id
    }

    /// The canonical pattern behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn pattern(&self, id: PatternId) -> &Pattern {
        &self.patterns[id.0 as usize]
    }

    /// Number of automorphisms of the pattern behind `id`, cached at
    /// intern time (recomputing via [`Pattern::automorphism_count`]
    /// enumerates up to `n!` permutations per call).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn automorphism_count(&self, id: PatternId) -> u64 {
        self.autos[id.0 as usize]
    }

    /// Number of distinct canonical patterns interned.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether no pattern has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Iterates over `(id, pattern)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PatternId, &Pattern)> {
        self.patterns
            .iter()
            .enumerate()
            .map(|(i, p)| (PatternId(i as u32), p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gramer_graph::generate;

    #[test]
    fn relabeled_wedges_equal() {
        // wedge centered at 0 vs centered at 2
        let a = Pattern::from_parts(3, &[0; 3], &[0b110, 0b001, 0b001]);
        let b = Pattern::from_parts(3, &[0; 3], &[0b100, 0b100, 0b011]);
        assert_eq!(a, b);
    }

    #[test]
    fn triangle_differs_from_wedge() {
        let tri = Pattern::from_parts(3, &[0; 3], &[0b110, 0b101, 0b011]);
        let wedge = Pattern::from_parts(3, &[0; 3], &[0b110, 0b001, 0b001]);
        assert_ne!(tri, wedge);
        assert!(tri.is_clique());
        assert_eq!(tri.edge_count(), 3);
        assert_eq!(wedge.edge_count(), 2);
    }

    #[test]
    fn labels_distinguish_patterns() {
        let ab = Pattern::from_parts(2, &[1, 2], &[0b10, 0b01]);
        let ba = Pattern::from_parts(2, &[2, 1], &[0b10, 0b01]);
        let aa = Pattern::from_parts(2, &[1, 1], &[0b10, 0b01]);
        assert_eq!(ab, ba);
        assert_ne!(ab, aa);
    }

    #[test]
    fn four_vertex_path_variants_collapse() {
        // P4 as the path 0-1-2-3 and as the path 2-0-3-1.
        let p1 = Pattern::from_parts(4, &[0; 4], &[0b0010, 0b0101, 0b1010, 0b0100]);
        let p2 = Pattern::from_parts(4, &[0; 4], &[0b1100, 0b1000, 0b0001, 0b0011]);
        assert_eq!(p1.edge_count(), 3);
        assert_eq!(p1, p2);
        // A star S3 also has 3 edges but is not a path.
        let star = Pattern::from_parts(4, &[0; 4], &[0b1110, 0b0001, 0b0001, 0b0001]);
        assert_ne!(p1, star);
    }

    #[test]
    fn canonical_invariant_under_permutation() {
        // K_{2,3}: all 120 permutations must canonicalise identically.
        let adj: [u8; 5] = [0b01110, 0b10001, 0b10001, 0b10001, 0b01110];
        let base = Pattern::from_parts(5, &[0; 5], &adj);
        let mut perm = [0usize, 1, 2, 3, 4, 5, 6, 7];
        permute(&mut perm, 5, &mut |p| {
            let mut place = [0usize; MAX_EMBEDDING];
            for (pos, &orig) in p.iter().take(5).enumerate() {
                place[orig] = pos;
            }
            let mut a2 = [0u8; 5];
            for pos in 0..5 {
                let orig = p[pos];
                let mut row = 0u8;
                let mut bits = adj[orig];
                while bits != 0 {
                    let j = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    row |= 1 << place[j];
                }
                a2[pos] = row;
            }
            assert_eq!(Pattern::from_parts(5, &[0; 5], &a2), base);
        });
    }

    #[test]
    #[should_panic(expected = "asymmetric")]
    fn asymmetric_adjacency_rejected() {
        let _ = Pattern::from_parts(2, &[0; 2], &[0b10, 0b00]);
    }

    #[test]
    #[should_panic(expected = "self loop")]
    fn self_loop_rejected() {
        let _ = Pattern::from_parts(2, &[0; 2], &[0b01, 0b10]);
    }

    #[test]
    fn all_connected_matches_oeis_a001349() {
        assert_eq!(Pattern::all_connected(1).len(), 1);
        assert_eq!(Pattern::all_connected(2).len(), 1);
        assert_eq!(Pattern::all_connected(3).len(), 2);
        assert_eq!(Pattern::all_connected(4).len(), 6);
        assert_eq!(Pattern::all_connected(5).len(), 21);
        assert_eq!(Pattern::all_connected(6).len(), 112);
    }

    #[test]
    fn automorphisms_of_named_patterns() {
        // K4: 4! = 24; P4 path: 2; C4 cycle: 8 (dihedral); star S3: 3! = 6.
        let k4 = Pattern::from_parts(4, &[0; 4], &[0b1110, 0b1101, 0b1011, 0b0111]);
        assert_eq!(k4.automorphism_count(), 24);
        let p4 = Pattern::from_parts(4, &[0; 4], &[0b0010, 0b0101, 0b1010, 0b0100]);
        assert_eq!(p4.automorphism_count(), 2);
        let c4 = Pattern::from_parts(4, &[0; 4], &[0b0110, 0b1001, 0b1001, 0b0110]);
        assert_eq!(c4.automorphism_count(), 8);
        let s3 = Pattern::from_parts(4, &[0; 4], &[0b1110, 0b0001, 0b0001, 0b0001]);
        assert_eq!(s3.automorphism_count(), 6);
    }

    #[test]
    fn labels_break_automorphisms() {
        let tri = Pattern::from_parts(3, &[1, 1, 2], &[0b110, 0b101, 0b011]);
        // Only the two equal-label vertices can swap.
        assert_eq!(tri.automorphism_count(), 2);
    }

    #[test]
    fn common_names_cover_all_small_patterns() {
        // Every connected pattern up to 4 vertices has a name, and names
        // are unique within a size.
        for n in 1..=4 {
            let mut seen = std::collections::HashSet::new();
            for p in Pattern::all_connected(n) {
                let name = p.common_name().unwrap_or_else(|| panic!("unnamed {p:?}"));
                assert!(seen.insert(name), "duplicate name {name}");
            }
        }
        // Labeled patterns are never named.
        let labeled = Pattern::from_parts(3, &[1, 1, 1], &[0b110, 0b101, 0b011]);
        assert_eq!(labeled.common_name(), None);
    }

    #[test]
    fn named_five_vertex_patterns() {
        let all5 = Pattern::all_connected(5);
        let named: Vec<_> = all5.iter().filter_map(|p| p.common_name()).collect();
        assert!(named.contains(&"5-clique"));
        assert!(named.contains(&"5-cycle"));
        assert!(named.contains(&"5-path"));
        assert!(named.contains(&"4-star"));
    }

    #[test]
    fn all_connected_contains_the_clique() {
        for n in 2..=5 {
            let all = Pattern::all_connected(n);
            assert!(all.iter().any(|p| p.is_clique()), "no K{n}");
            assert!(all.iter().all(|p| p.is_connected()));
        }
    }

    #[test]
    fn interner_dedups_across_orders() {
        let g = generate::complete(4);
        let mut interner = PatternInterner::new();
        // Triangle built in two different addition orders.
        let mut e1 = Embedding::single(0);
        e1.push(1, 0b01);
        e1.push(2, 0b11);
        let mut e2 = Embedding::single(2);
        e2.push(3, 0b01);
        e2.push(0, 0b11);
        assert_eq!(interner.intern(&g, &e1), interner.intern(&g, &e2));
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn interner_caches_automorphism_counts() {
        let g = generate::complete(4);
        let mut interner = PatternInterner::new();
        let mut tri = Embedding::single(0);
        tri.push(1, 0b01);
        tri.push(2, 0b11);
        let mut wedge = Embedding::single(0);
        wedge.push(1, 0b01);
        wedge.push(3, 0b01);
        let t = interner.intern(&g, &tri);
        let w = interner.intern(&g, &wedge);
        assert_eq!(interner.automorphism_count(t), 6);
        assert_eq!(interner.automorphism_count(w), 2);
        // The cache agrees with direct recomputation.
        for (id, p) in interner.iter() {
            assert_eq!(interner.automorphism_count(id), p.automorphism_count());
        }
    }

    #[test]
    fn interner_distinguishes_sizes() {
        let g = generate::complete(4);
        let mut interner = PatternInterner::new();
        let e1 = Embedding::single(0);
        let mut e2 = Embedding::single(0);
        e2.push(1, 0b01);
        assert_ne!(interner.intern(&g, &e1), interner.intern(&g, &e2));
        assert_eq!(interner.len(), 2);
    }
}
