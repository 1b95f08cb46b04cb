use crate::error::MemError;
use crate::policy::PolicyKind;

/// A set-associative cache over abstract item IDs.
///
/// Items are grouped into blocks of `2^block_bits` consecutive IDs (the
/// "cache line"); a block's tag maps to set `tag % sets`. This is the
/// low-priority memory of §IV-C, and doubles as the building block of the
/// CPU cache model (with byte addresses as items).
///
/// # Example
///
/// ```
/// use gramer_memsim::SetAssociativeCache;
/// use gramer_memsim::policy::PolicyKind;
///
/// let mut c = SetAssociativeCache::new(4, 2, 0, PolicyKind::Lru);
/// assert!(!c.access(42, 0)); // cold miss
/// assert!(c.access(42, 0));  // hit
/// assert_eq!(c.capacity_items(), 8);
/// ```
#[derive(Debug)]
pub struct SetAssociativeCache {
    /// Tags, flat at stride `ways` (set `s` occupies
    /// `tags[s*ways..s*ways+set_len[s]]`, in fill order). The hit scan
    /// reads `ways` consecutive u64s — one cache line for a 4-way set.
    tags: Vec<u64>,
    /// Access-counter value of each line's last reference, parallel to
    /// `tags`: the only per-line state a hit writes.
    last_used: Vec<u64>,
    /// Priority ranks, parallel to `tags`; written on fills and read
    /// only by the Eq. 2 victim choice.
    ranks: Vec<u32>,
    set_len: Vec<u16>,
    num_sets: usize,
    ways: usize,
    block_bits: u32,
    /// Lemire "fastmod" constant `⌊2^64 / num_sets⌋ + 1`; gives the exact
    /// `tag % num_sets` for 32-bit tags with two multiplies instead of a
    /// hardware divide (the divide dominated the hit path).
    mod_m: u64,
    clock: u64,
    policy: PolicyKind,
    evictions: u64,
}

impl SetAssociativeCache {
    /// Creates a cache with `sets` sets of `ways` ways, a block of
    /// `2^block_bits` items, and the given replacement policy.
    ///
    /// # Panics
    ///
    /// Panics on geometry or a λ that [`Self::try_new`] rejects.
    pub fn new(sets: usize, ways: usize, block_bits: u32, policy: PolicyKind) -> Self {
        match SetAssociativeCache::try_new(sets, ways, block_bits, policy) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: rejects zero sets or ways, more than
    /// `u16::MAX` ways, a line count that overflows `usize`, an item
    /// capacity (`sets × ways × 2^block_bits`) that overflows `usize`
    /// (which covers `block_bits >= 64`), and a bad λ with a typed
    /// [`MemError`] instead of panicking.
    pub fn try_new(
        sets: usize,
        ways: usize,
        block_bits: u32,
        policy: PolicyKind,
    ) -> Result<Self, MemError> {
        if sets == 0 {
            return Err(MemError::ZeroSets);
        }
        if ways == 0 {
            return Err(MemError::ZeroWays);
        }
        let lines = match sets.checked_mul(ways) {
            Some(lines) if ways <= u16::MAX as usize => lines,
            _ => return Err(MemError::TooManyLines { sets, ways }),
        };
        if block_bits >= usize::BITS || lines > usize::MAX >> block_bits {
            return Err(MemError::BlockTooLarge {
                sets,
                ways,
                block_bits,
            });
        }
        Ok(SetAssociativeCache {
            tags: vec![0u64; lines],
            last_used: vec![0u64; lines],
            ranks: vec![0u32; lines],
            set_len: vec![0u16; sets],
            num_sets: sets,
            ways,
            block_bits,
            mod_m: (u64::MAX / sets as u64).wrapping_add(1),
            clock: 0,
            policy: policy.checked()?,
            evictions: 0,
        })
    }

    /// Sizes a cache to hold (at least) `items` items with the given
    /// associativity and block size, rounding the set count up to 1.
    pub fn with_capacity_items(
        items: usize,
        ways: usize,
        block_bits: u32,
        policy: PolicyKind,
    ) -> Self {
        let blocks = (items >> block_bits).max(1);
        let sets = (blocks / ways).max(1);
        SetAssociativeCache::new(sets, ways, block_bits, policy)
    }

    /// Total item capacity (`sets × ways × block`).
    pub fn capacity_items(&self) -> usize {
        (self.num_sets * self.ways) << self.block_bits
    }

    /// Number of evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The replacement policy, with its current λ.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Retunes the Eq. 2 balancing factor λ (the adaptive autotuner's
    /// hook; a no-op under LRU). A negative, NaN or infinite λ is
    /// rejected with [`MemError::BadLambda`] and leaves the previous one
    /// in place.
    pub fn set_lambda(&mut self, lambda: f64) -> Result<(), MemError> {
        if let PolicyKind::LocalityPreserved { .. } = self.policy {
            self.policy = PolicyKind::LocalityPreserved { lambda }.checked()?;
        }
        Ok(())
    }

    /// Set selection: standard modulo indexing, as in the 4-way
    /// set-associative BRAM cache of §VI-A. Callers that interleave items
    /// over multiple banks must pass bank-local (densified) item IDs, or
    /// the stride aliases whole ID classes onto one set (see
    /// [`crate::MemorySubsystem`]).
    #[inline]
    fn set_index(&self, tag: u64) -> usize {
        if tag <= u32::MAX as u64 {
            // Lemire–Kaser–Kurz fastmod: exact for 32-bit dividends and
            // any divisor below 2^32.
            let low = self.mod_m.wrapping_mul(tag);
            ((low as u128 * self.num_sets as u128) >> 64) as usize
        } else {
            (tag % self.num_sets as u64) as usize
        }
    }

    /// Accesses `item` (whose priority rank is `rank`); returns `true` on
    /// hit. On miss the containing block is filled, evicting a victim when
    /// the set is full.
    pub fn access(&mut self, item: u64, rank: u32) -> bool {
        self.clock += 1;
        let tag = item >> self.block_bits;
        let set_idx = self.set_index(tag);
        let base = set_idx * self.ways;
        let len = self.set_len[set_idx] as usize;

        for (i, t) in self.tags[base..base + len].iter().enumerate() {
            if *t == tag {
                self.last_used[base + i] = self.clock;
                return true;
            }
        }

        let slot = if len < self.ways {
            self.set_len[set_idx] = (len + 1) as u16;
            base + len
        } else {
            let lines = base..base + len;
            let victim = self.policy.victim(
                &self.last_used[lines.clone()],
                &self.ranks[lines],
                self.clock,
            );
            self.evictions += 1;
            base + victim
        };
        self.tags[slot] = tag;
        self.last_used[slot] = self.clock;
        self.ranks[slot] = rank;
        false
    }

    /// Whether `item`'s block is currently resident (no state change).
    pub fn contains(&self, item: u64) -> bool {
        let tag = item >> self.block_bits;
        let set_idx = self.set_index(tag);
        let base = set_idx * self.ways;
        let len = self.set_len[set_idx] as usize;
        self.tags[base..base + len].contains(&tag)
    }

    /// Number of resident lines (≤ `sets × ways`). Also a warm-up gauge
    /// for the telemetry layer: the ramp from 0 to steady state is the
    /// cold-start segment of the hit-rate curve.
    pub fn resident_lines(&self) -> usize {
        self.set_len.iter().map(|&l| l as usize).sum()
    }

    /// Clears all contents and counters, keeping the configuration.
    pub fn reset(&mut self) {
        self.set_len.fill(0);
        self.clock = 0;
        self.evictions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_new_rejects_degenerate_geometry() {
        assert_eq!(
            SetAssociativeCache::try_new(0, 2, 0, PolicyKind::Lru).err(),
            Some(MemError::ZeroSets)
        );
        assert_eq!(
            SetAssociativeCache::try_new(2, 0, 0, PolicyKind::Lru).err(),
            Some(MemError::ZeroWays)
        );
        assert!(SetAssociativeCache::try_new(2, 2, 0, PolicyKind::Lru).is_ok());
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn new_still_panics_on_zero_sets() {
        let _ = SetAssociativeCache::new(0, 2, 0, PolicyKind::Lru);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = SetAssociativeCache::new(2, 2, 0, PolicyKind::Lru);
        assert!(!c.access(5, 0));
        assert!(c.access(5, 0));
        assert!(c.contains(5));
    }

    #[test]
    fn block_grouping_gives_spatial_hits() {
        let mut c = SetAssociativeCache::new(2, 2, 2, PolicyKind::Lru);
        assert!(!c.access(8, 0)); // fills block {8,9,10,11}
        assert!(c.access(9, 0));
        assert!(c.access(11, 0));
        assert!(!c.access(12, 0));
    }

    #[test]
    fn lru_eviction_order() {
        // 1 set, 2 ways, block 1 item.
        let mut c = SetAssociativeCache::new(1, 2, 0, PolicyKind::Lru);
        c.access(1, 0);
        c.access(2, 0);
        c.access(1, 0); // 2 is now LRU
        c.access(3, 0); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn try_new_rejects_geometry_it_cannot_hold() {
        // A u16 set length cannot count 65,536 ways.
        assert_eq!(
            SetAssociativeCache::try_new(1, 70_000, 0, PolicyKind::Lru).err(),
            Some(MemError::TooManyLines {
                sets: 1,
                ways: 70_000
            })
        );
        assert_eq!(
            SetAssociativeCache::try_new(usize::MAX / 2, 4, 0, PolicyKind::Lru).err(),
            Some(MemError::TooManyLines {
                sets: usize::MAX / 2,
                ways: 4
            })
        );
        assert!(SetAssociativeCache::try_new(1, u16::MAX as usize, 0, PolicyKind::Lru).is_ok());
    }

    #[test]
    fn try_new_rejects_a_block_size_it_cannot_hold() {
        // A 2^64-item block cannot be shifted out of an item id.
        assert_eq!(
            SetAssociativeCache::try_new(1, 1, 64, PolicyKind::Lru).err(),
            Some(MemError::BlockTooLarge {
                sets: 1,
                ways: 1,
                block_bits: 64
            })
        );
        // 4 lines of 2^63 items overflow the item capacity.
        assert_eq!(
            SetAssociativeCache::try_new(2, 2, 63, PolicyKind::Lru).err(),
            Some(MemError::BlockTooLarge {
                sets: 2,
                ways: 2,
                block_bits: 63
            })
        );
        // The largest block that fits still indexes the right block.
        let bits = usize::BITS - 1;
        let mut c = SetAssociativeCache::new(1, 1, bits, PolicyKind::Lru);
        assert_eq!(c.capacity_items(), 1 << bits);
        assert!(!c.access(5, 0));
        assert!(c.access(6, 0));
        assert!(!c.access(u64::MAX, 0));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = SetAssociativeCache::new(4, 2, 0, PolicyKind::Lru);
        for i in 0..1000u64 {
            c.access(i, 0);
            assert!(c.resident_lines() <= 8);
        }
    }

    #[test]
    fn with_capacity_items_rounds_sanely() {
        let c = SetAssociativeCache::with_capacity_items(100, 4, 0, PolicyKind::Lru);
        assert!(c.capacity_items() >= 96 && c.capacity_items() <= 128);
        let tiny = SetAssociativeCache::with_capacity_items(1, 4, 0, PolicyKind::Lru);
        assert!(tiny.capacity_items() >= 1);
    }

    #[test]
    fn locality_policy_keeps_hot_ranks() {
        // 1 set, 2 ways. Fill with a hot-rank and a cold-rank item, then
        // stream cold items: the hot (rank 0) line should survive.
        let mut c =
            SetAssociativeCache::new(1, 2, 0, PolicyKind::LocalityPreserved { lambda: 0.0 });
        c.access(0, 0); // hot
        c.access(100, 900); // cold
        for i in 101..120u64 {
            c.access(i, 900 + i as u32);
        }
        assert!(c.contains(0), "hot line was evicted by cold stream");
    }

    /// A one-set cache of `ranks.len()` ways filled with items
    /// `0..ranks.len()` at the given ranks, in order.
    fn filled(lambda: f64, ranks: &[u32]) -> SetAssociativeCache {
        let mut c =
            SetAssociativeCache::new(1, ranks.len(), 0, PolicyKind::LocalityPreserved { lambda });
        for (item, &rank) in ranks.iter().enumerate() {
            assert!(!c.access(item as u64, rank));
        }
        c
    }

    #[test]
    fn locality_lambda_zero_is_pure_rank() {
        // The highest rank number (lowest priority) goes, however recently
        // it was used.
        let mut c = filled(0.0, &[10, 99, 5]);
        assert!(c.access(1, 99));
        c.access(100, 0);
        assert!(c.contains(0) && !c.contains(1) && c.contains(2));
    }

    #[test]
    fn locality_policy_balances_rank_and_recency() {
        // rank 100 + rec 2 beats rank 0 + rec 1: while both are fresh the
        // low-priority line goes.
        let mut c = filled(1.0, &[100, 0]);
        c.access(100, 0);
        assert!(!c.contains(0) && c.contains(1));
        // A hot-rank line gone stale loses to a fresh low-priority one:
        // rank 0 + rec 202 beats rank 100 + rec 1.
        let mut c = filled(1.0, &[0, 100]);
        for _ in 0..200 {
            assert!(c.access(1, 100));
        }
        c.access(100, 0);
        assert!(!c.contains(0) && c.contains(1));
    }

    #[test]
    fn locality_large_lambda_approaches_lru() {
        let mut lru = SetAssociativeCache::new(1, 3, 0, PolicyKind::Lru);
        let mut loc = filled(1e12, &[1000, 0, 500]);
        for (item, rank) in [(0, 1000), (1, 0), (2, 500)] {
            lru.access(item, rank);
        }
        for item in [2, 0, 7] {
            assert_eq!(lru.access(item, 0), loc.access(item, 0));
        }
        // Item 1 was least recently used: both evicted it.
        assert!(!lru.contains(1) && !loc.contains(1));
        assert_eq!(lru.evictions(), 1);
        assert_eq!(loc.evictions(), 1);
    }

    #[test]
    fn bad_lambda_is_rejected() {
        for lambda in [-1.0, -0.5, f64::NAN, f64::INFINITY] {
            assert_eq!(
                SetAssociativeCache::try_new(1, 2, 0, PolicyKind::LocalityPreserved { lambda })
                    .err(),
                Some(MemError::BadLambda)
            );
        }
        assert!(SetAssociativeCache::try_new(
            1,
            2,
            0,
            PolicyKind::LocalityPreserved { lambda: 0.0 }
        )
        .is_ok());
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn new_panics_on_negative_lambda() {
        let _ = SetAssociativeCache::new(1, 2, 0, PolicyKind::LocalityPreserved { lambda: -1.0 });
    }

    #[test]
    fn set_lambda_retunes_locality_policy_and_rejects_bad_values() {
        let mut c = filled(1.0, &[0, 0]);
        assert!(c.set_lambda(4.0).is_ok());
        assert_eq!(c.policy(), PolicyKind::LocalityPreserved { lambda: 4.0 });
        assert_eq!(c.set_lambda(-1.0).err(), Some(MemError::BadLambda));
        // A rejected retune leaves the previous λ in place.
        assert_eq!(c.policy(), PolicyKind::LocalityPreserved { lambda: 4.0 });
        // LRU has no λ: it accepts and ignores the call.
        let mut lru = SetAssociativeCache::new(1, 2, 0, PolicyKind::Lru);
        assert!(lru.set_lambda(123.0).is_ok());
        assert_eq!(lru.policy(), PolicyKind::Lru);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = SetAssociativeCache::new(2, 2, 0, PolicyKind::Lru);
        c.access(1, 0);
        c.reset();
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.access(1, 0));
    }
}
