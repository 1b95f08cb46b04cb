//! Recurrent-pattern memoization.
//!
//! Canonical DFS enumeration visits every vertex *set* exactly once, so
//! whole-subtree outcomes have zero exact reuse — but the **pairwise
//! connectivity probe** inside the extend-check model recurs massively:
//! every embedding that contains vertices `u` and `w` re-resolves the
//! same `{u, w}` edge query against the immutable graph (the same
//! recurrence "Leveraging Recurrent Patterns in Graph Accelerators" and
//! IntersectX exploit). One probe costs one random vertex access plus two
//! random edge accesses in the memory subsystem; a memo hit replaces all
//! three with a single modeled memo-table lookup.
//!
//! [`PairMemoTable`] is the hardware-shaped memo: a byte-budgeted,
//! LRU-evicting table keyed by the canonical unordered pair
//! `(min(u,w), max(u,w))`. On the host it is one open-addressed array of
//! 16-byte rows — the key, the outcome bit and the links of an exact LRU
//! list — which is the SRAM row [`MEMO_ENTRY_BYTES`] models. Eviction
//! order is a pure function of the access sequence, never of where a row
//! happens to sit, so simulated results are reproducible run-to-run.
//!
//! **Bit-exactness.** Connectivity is a pure function of the immutable
//! graph, so a hit returns exactly what the probe would have; mined
//! embeddings and pattern counts are bit-identical with the memo on or
//! off (property-tested). What legitimately changes under `--memo on` is
//! the *modeled* quantities — cycles, memory statistics, DRAM traffic —
//! because hits skip the three subsystem accesses.
//!
//! [`NoMemo`] is the zero-sized off-switch: with `ACTIVE == false` every
//! memo branch in the explorer constant-folds away, so the default
//! (`--memo off`) path monomorphizes to the exact machine code it had
//! before this module existed.

use gramer_graph::VertexId;

/// Modeled SRAM bytes per memo entry: a 64-bit canonical-pair tag, the
/// 1-bit outcome, and LRU/link metadata, rounded to a power of two the
/// way a hardware CAM/SRAM row would be provisioned.
pub const MEMO_ENTRY_BYTES: u64 = 16;

/// Default byte budget used by `--memo on` (64 Ki entries).
pub const DEFAULT_MEMO_BYTES: u64 = 1 << 20;

/// Counters of a memo table's activity. Separate from the memory
/// subsystem's `MemStats` on purpose: a memo hit is precisely an access
/// that *never reached* the memory subsystem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered by the table (three subsystem accesses skipped).
    pub hits: u64,
    /// Lookups that missed and fell through to the honest probe.
    pub misses: u64,
    /// Entries displaced by the byte-budget LRU.
    pub evictions: u64,
}

impl MemoStats {
    /// Total lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered by the table (`1.0` when idle, like
    /// `KindStats::on_chip_ratio`).
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups() == 0 {
            1.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// The explorer's view of a memo: either the real [`PairMemoTable`] or
/// the free [`NoMemo`].
///
/// `ACTIVE` mirrors `TelemetrySink::ACTIVE` in `gramer-core`: the
/// explorer guards every memo touch with `if M::ACTIVE`, so the inactive
/// implementation costs literally nothing — not even a well-predicted
/// branch — on the reference path.
pub trait MemoProbe {
    /// Whether this implementation can ever answer a lookup. Guards the
    /// memo branches so `NoMemo` monomorphizes them away.
    const ACTIVE: bool;

    /// Looks up the memoized connectivity of the unordered pair
    /// `{a, b}`; `None` on a miss.
    fn lookup(&mut self, a: VertexId, b: VertexId) -> Option<bool>;

    /// Records the honestly-resolved connectivity of `{a, b}`. Returns
    /// `true` when the insert displaced an LRU victim (so the caller can
    /// report the eviction to its observer).
    fn record(&mut self, a: VertexId, b: VertexId, connected: bool) -> bool;

    /// Lifetime counters of this probe (all-zero for an inactive one).
    fn stats(&self) -> MemoStats {
        MemoStats::default()
    }
}

/// The always-off memo: a ZST whose methods fold to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMemo;

impl MemoProbe for NoMemo {
    const ACTIVE: bool = false;

    #[inline]
    fn lookup(&mut self, _a: VertexId, _b: VertexId) -> Option<bool> {
        None
    }

    #[inline]
    fn record(&mut self, _a: VertexId, _b: VertexId, _connected: bool) -> bool {
        false
    }
}

/// Link value of "no row" (the ends of the LRU list).
const NIL: u32 = (1 << 31) - 1;

/// The bit of [`Row::older`] that holds the memoized outcome.
const CONNECTED: u32 = 1 << 31;

/// Key of a free slot: `lo = 1 > hi = 0` is no canonical pair.
const EMPTY: u64 = 1 << 32;

/// Slots allocated by the first record.
const MIN_SLOTS: usize = 16;

/// Most slots the 31-bit links can address (a power of two below
/// [`NIL`]).
const MAX_SLOTS: usize = 1 << 30;

/// One 16-byte row: the canonical pair key and the LRU links (slot
/// indices), with the outcome in the top bit of `older`.
#[derive(Debug, Clone, Copy)]
struct Row {
    key: u64,
    /// The next more recently used row ([`NIL`] at the head).
    newer: u32,
    /// The next less recently used row ([`NIL`] at the tail), plus the
    /// [`CONNECTED`] bit.
    older: u32,
}

impl Row {
    const FREE: Row = Row {
        key: EMPTY,
        newer: NIL,
        older: NIL,
    };

    #[inline]
    fn older(self) -> u32 {
        self.older & !CONNECTED
    }

    #[inline]
    fn set_older(&mut self, slot: u32) {
        self.older = (self.older & CONNECTED) | slot;
    }

    #[inline]
    fn connected(self) -> bool {
        self.older & CONNECTED != 0
    }
}

/// A byte-budgeted, LRU-evicting memo over canonical vertex pairs.
///
/// The rows live in one open-addressed array: linear probing from a
/// multiplicative hash, backward-shift deletion (no tombstones), and a
/// load of at most 1/2. The array starts empty and doubles as rows
/// arrive, so host memory follows the resident rows, not the budget. The
/// 31-bit links address at most 2^30 slots, so at most 2^29 rows are
/// resident whatever the budget: a larger budget keeps
/// `capacity() = budget / 16` but evicts from 2^29 rows on.
///
/// # Example
///
/// ```
/// use gramer_mining::{MemoProbe, PairMemoTable};
///
/// let mut memo = PairMemoTable::with_budget(1024);
/// assert_eq!(memo.lookup(3, 7), None);       // cold miss
/// memo.record(3, 7, true);
/// assert_eq!(memo.lookup(7, 3), Some(true)); // order-insensitive hit
/// assert_eq!(memo.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct PairMemoTable {
    /// Row capacity derived from the byte budget (may be 0, which
    /// disables the table while keeping the code path honest).
    cap: usize,
    /// Resident rows before the LRU row is evicted: `cap`, bounded by
    /// what the links can address.
    max_len: usize,
    /// The open-addressed slots: empty, or a power of two long.
    rows: Vec<Row>,
    len: usize,
    /// `64 - log2(rows.len())`: the hash's top bits pick a row's home.
    shift: u32,
    /// Most-recently-used row.
    head: u32,
    /// Least-recently-used row (the eviction victim).
    tail: u32,
    stats: MemoStats,
}

/// Canonical unordered-pair key: `(min << 32) | max`. Vertex IDs are
/// 32-bit, so the packing is collision-free.
#[inline]
fn pair_key(a: VertexId, b: VertexId) -> u64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    (u64::from(lo) << 32) | u64::from(hi)
}

impl PairMemoTable {
    /// Builds a table bounded to `budget_bytes` of modeled SRAM
    /// ([`MEMO_ENTRY_BYTES`] per entry; a budget below one entry yields a
    /// capacity-0 table that never hits). Allocates nothing until the
    /// first record.
    pub fn with_budget(budget_bytes: u64) -> Self {
        let cap = usize::try_from(budget_bytes / MEMO_ENTRY_BYTES).unwrap_or(usize::MAX);
        PairMemoTable {
            cap,
            max_len: cap.min(MAX_SLOTS / 2),
            rows: Vec::new(),
            len: 0,
            shift: 64,
            head: NIL,
            tail: NIL,
            stats: MemoStats::default(),
        }
    }

    /// Entry capacity implied by the byte budget.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Activity counters.
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// The slot a row with `key` is probed from.
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The slot holding `key` (`true`), or else the free slot that ends
    /// its probe run (`false`). The table must be allocated.
    #[inline]
    fn probe(&self, key: u64) -> (usize, bool) {
        let mask = self.rows.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.rows[i].key {
                k if k == key => return (i, true),
                EMPTY => return (i, false),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Unlinks `slot` from the recency list.
    #[inline]
    fn unlink(&mut self, slot: usize) {
        let row = self.rows[slot];
        match row.newer {
            NIL => self.head = row.older(),
            n => self.rows[n as usize].set_older(row.older()),
        }
        match row.older() {
            NIL => self.tail = row.newer,
            o => self.rows[o as usize].newer = row.newer,
        }
    }

    /// Links `slot` at the MRU head.
    #[inline]
    fn link_front(&mut self, slot: usize) {
        let old = self.head;
        let row = &mut self.rows[slot];
        row.newer = NIL;
        row.set_older(old);
        match old {
            NIL => self.tail = slot as u32,
            o => self.rows[o as usize].newer = slot as u32,
        }
        self.head = slot as u32;
    }

    /// Points the neighbours of the row just moved into `slot` at it.
    fn relink(&mut self, slot: usize) {
        let row = self.rows[slot];
        match row.newer {
            NIL => self.head = slot as u32,
            n => self.rows[n as usize].set_older(slot as u32),
        }
        match row.older() {
            NIL => self.tail = slot as u32,
            o => self.rows[o as usize].newer = slot as u32,
        }
    }

    /// Evicts the LRU row. Backward-shift deletion: each later row of the
    /// probe run whose home does not lie after the hole moves into it,
    /// so no probe run is ever broken by a free slot.
    fn evict_lru(&mut self) {
        let mut hole = self.tail as usize;
        self.unlink(hole);
        let mask = self.rows.len() - 1;
        let mut i = (hole + 1) & mask;
        while self.rows[i].key != EMPTY {
            let home = self.home(self.rows[i].key);
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.rows[hole] = self.rows[i];
                self.relink(hole);
                hole = i;
            }
            i = (i + 1) & mask;
        }
        self.rows[hole] = Row::FREE;
        self.len -= 1;
        self.stats.evictions += 1;
    }

    /// Rebuilds the table with `slots` slots, re-inserting rows LRU-first
    /// so each lands at the MRU head in turn and the recency order comes
    /// through unchanged.
    fn resize(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.rows, vec![Row::FREE; slots]);
        self.shift = 64 - slots.trailing_zeros();
        let mut at = self.tail;
        self.head = NIL;
        self.tail = NIL;
        while at != NIL {
            let row = old[at as usize];
            let slot = self.probe(row.key).0;
            self.rows[slot] = Row {
                key: row.key,
                newer: NIL,
                older: row.older & CONNECTED,
            };
            self.link_front(slot);
            at = row.newer;
        }
    }
}

impl MemoProbe for PairMemoTable {
    const ACTIVE: bool = true;

    fn stats(&self) -> MemoStats {
        self.stats
    }

    #[inline]
    fn lookup(&mut self, a: VertexId, b: VertexId) -> Option<bool> {
        if !self.rows.is_empty() {
            let (slot, found) = self.probe(pair_key(a, b));
            if found {
                self.stats.hits += 1;
                if self.head != slot as u32 {
                    self.unlink(slot);
                    self.link_front(slot);
                }
                return Some(self.rows[slot].connected());
            }
        }
        self.stats.misses += 1;
        None
    }

    fn record(&mut self, a: VertexId, b: VertexId, connected: bool) -> bool {
        if self.cap == 0 {
            return false;
        }
        if self.rows.is_empty() {
            self.resize(MIN_SLOTS);
        }
        let key = pair_key(a, b);
        let (mut slot, found) = self.probe(key);
        let outcome = if connected { CONNECTED } else { 0 };
        if found {
            // Already resident: refresh the outcome and the recency.
            self.rows[slot].older = self.rows[slot].older() | outcome;
            if self.head != slot as u32 {
                self.unlink(slot);
                self.link_front(slot);
            }
            return false;
        }
        let evicted = self.len == self.max_len;
        if evicted {
            // The backward shift may have moved the run: probe again.
            self.evict_lru();
            slot = self.probe(key).0;
        } else if 2 * (self.len + 1) > self.rows.len() {
            self.resize(2 * self.rows.len());
            slot = self.probe(key).0;
        }
        self.rows[slot] = Row {
            key,
            newer: NIL,
            older: outcome,
        };
        self.len += 1;
        self.link_front(slot);
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_memo_is_inert() {
        let mut m = NoMemo;
        const { assert!(!NoMemo::ACTIVE) };
        assert_eq!(m.lookup(1, 2), None);
        assert!(!m.record(1, 2, true));
        assert_eq!(m.lookup(1, 2), None);
    }

    #[test]
    fn pair_key_is_order_insensitive_and_injective() {
        assert_eq!(pair_key(3, 9), pair_key(9, 3));
        assert_ne!(pair_key(1, 2), pair_key(1, 3));
        assert_ne!(pair_key(0, 1), pair_key(1, 2));
    }

    #[test]
    fn hit_after_record_both_orders() {
        let mut t = PairMemoTable::with_budget(1024);
        t.record(4, 2, false);
        assert_eq!(t.lookup(2, 4), Some(false));
        assert_eq!(t.lookup(4, 2), Some(false));
        assert_eq!(t.stats().hits, 2);
        assert_eq!(t.stats().misses, 0);
    }

    #[test]
    fn budget_caps_entries_and_evicts_lru() {
        // 48 bytes = 3 entries.
        let mut t = PairMemoTable::with_budget(3 * MEMO_ENTRY_BYTES);
        assert_eq!(t.capacity(), 3);
        t.record(0, 1, true);
        t.record(0, 2, true);
        t.record(0, 3, true);
        // Touch {0,1} so {0,2} becomes LRU, then overflow.
        assert_eq!(t.lookup(0, 1), Some(true));
        assert!(t.record(0, 4, false), "must report the eviction");
        assert_eq!(t.stats().evictions, 1);
        assert_eq!(t.len(), 3);
        assert_eq!(t.lookup(0, 2), None, "LRU entry must be gone");
        assert_eq!(t.lookup(0, 1), Some(true));
        assert_eq!(t.lookup(0, 3), Some(true));
        assert_eq!(t.lookup(0, 4), Some(false));
    }

    #[test]
    fn zero_budget_never_stores() {
        let mut t = PairMemoTable::with_budget(MEMO_ENTRY_BYTES - 1);
        assert_eq!(t.capacity(), 0);
        assert!(!t.record(1, 2, true));
        assert_eq!(t.lookup(1, 2), None);
        assert_eq!(t.stats().evictions, 0);
        assert!(t.is_empty());
    }

    #[test]
    fn eviction_order_follows_recency_not_insertion() {
        let mut t = PairMemoTable::with_budget(2 * MEMO_ENTRY_BYTES);
        t.record(0, 1, true); // insert order: {0,1} then {0,2}
        t.record(0, 2, true);
        assert_eq!(t.lookup(0, 1), Some(true)); // {0,2} is now LRU
        t.record(0, 3, true);
        assert_eq!(t.lookup(0, 2), None);
        assert_eq!(t.lookup(0, 1), Some(true));
    }

    #[test]
    fn stats_ratio_counts_lookups() {
        let mut t = PairMemoTable::with_budget(1024);
        assert!((t.stats().hit_ratio() - 1.0).abs() < 1e-12, "idle = 1.0");
        t.lookup(5, 6); // miss
        t.record(5, 6, true);
        t.lookup(5, 6); // hit
        let s = t.stats();
        assert_eq!(s.lookups(), 2);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    /// Checks the table's invariants: every resident row is found by
    /// its own probe, and the LRU list visits each of them once, with
    /// consistent back links.
    fn check(t: &PairMemoTable) {
        let resident: Vec<usize> = (0..t.rows.len())
            .filter(|&i| t.rows[i].key != EMPTY)
            .collect();
        assert_eq!(resident.len(), t.len);
        for &i in &resident {
            assert_eq!(t.probe(t.rows[i].key), (i, true));
        }
        let (mut at, mut newer, mut seen) = (t.head, NIL, 0);
        while at != NIL {
            assert_eq!(t.rows[at as usize].newer, newer);
            newer = at;
            at = t.rows[at as usize].older();
            seen += 1;
        }
        assert_eq!((seen, newer), (t.len, t.tail));
    }

    #[test]
    fn churn_keeps_probe_runs_and_links_intact() {
        // A 48-row table over 325 pairs: growth from 16 to 128 slots,
        // then an eviction and its backward shift on most records.
        let mut t = PairMemoTable::with_budget(48 * MEMO_ENTRY_BYTES);
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (a, b) = ((x % 25) as u32, ((x >> 20) % 25) as u32);
            if t.lookup(a, b).is_none() {
                t.record(a, b, (a + b) % 2 == 0);
            }
            check(&t);
        }
        assert_eq!(t.len(), 48);
        assert_eq!(t.rows.len(), 128);
    }

    #[test]
    fn huge_budget_allocates_as_rows_arrive() {
        let mut t = PairMemoTable::with_budget(u64::MAX);
        assert_eq!(t.capacity() as u64, u64::MAX / MEMO_ENTRY_BYTES);
        assert_eq!(t.rows.len(), 0);
        for i in 0..9 {
            t.record(i, u32::MAX, true);
        }
        assert_eq!(t.rows.len(), 32);
        assert_eq!(t.lookup(u32::MAX, 8), Some(true));
    }

    #[test]
    fn rerecording_a_resident_pair_updates_it_in_place() {
        let mut t = PairMemoTable::with_budget(2 * MEMO_ENTRY_BYTES);
        t.record(1, 2, true);
        t.record(3, 4, true);
        assert!(!t.record(2, 1, false), "no eviction for a resident pair");
        assert_eq!(t.len(), 2);
        // {1,2} is now the most recent: the next insert evicts {3,4}.
        assert!(t.record(5, 6, true));
        assert_eq!(t.lookup(1, 2), Some(false));
        assert_eq!(t.lookup(3, 4), None);
        check(&t);
    }

    #[test]
    fn single_entry_table_cycles_correctly() {
        let mut t = PairMemoTable::with_budget(MEMO_ENTRY_BYTES);
        t.record(1, 2, true);
        t.record(3, 4, false); // evicts {1,2}
        assert_eq!(t.lookup(1, 2), None);
        assert_eq!(t.lookup(3, 4), Some(false));
        assert_eq!(t.stats().evictions, 1);
    }
}
