use crate::cache::SetAssociativeCache;
use crate::error::MemError;
use crate::policy::PolicyKind;
use crate::scratchpad::Scratchpad;
use crate::stats::KindStats;
use crate::subsystem::DataKind;

/// Where a request was served, as reported by [`HybridMemory::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// Served by the high-priority scratchpad.
    HighPriorityHit,
    /// Served by the low-priority cache.
    CacheHit,
    /// Missed on-chip entirely; the block was filled from DRAM.
    Miss,
}

impl AccessOutcome {
    /// Whether the request was served on-chip.
    pub fn is_on_chip(self) -> bool {
        !matches!(self, AccessOutcome::Miss)
    }
}

/// Configuration for one [`HybridMemory`] (a vertex memory or an edge
/// memory of one partition in Fig. 7).
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// High-priority membership mask indexed by item ID; an empty vec
    /// disables the scratchpad (the Uniform-LRU baseline). `Arc`-shared:
    /// every partition bank of a subsystem (and every run over the same
    /// preprocessed dataset) references one mask allocation. Build from a
    /// plain vector with `.into()`.
    pub pinned: std::sync::Arc<Vec<bool>>,
    /// Number of sets in the low-priority cache.
    pub sets: usize,
    /// Associativity of the low-priority cache (the paper uses 4-way).
    pub ways: usize,
    /// log2(items per cache block).
    pub block_bits: u32,
    /// Replacement policy of the low-priority cache.
    pub policy: PolicyKind,
}

impl HybridConfig {
    /// A hierarchy with `pinned` pinned in the scratchpad and a cache
    /// sized to `cache_items` items under `policy` (4-way, 1-item blocks).
    pub fn sized(
        pinned: std::sync::Arc<Vec<bool>>,
        cache_items: usize,
        policy: PolicyKind,
    ) -> Self {
        let blocks = cache_items.max(4);
        HybridConfig {
            pinned,
            sets: (blocks / 4).max(1),
            ways: 4,
            block_bits: 0,
            policy,
        }
    }
}

/// The per-bank memory controller of §IV-A: dispatches a request to the
/// high-priority scratchpad or the low-priority cache according to the
/// datum's priority, and records hit statistics.
///
/// See the crate-level example for usage.
#[derive(Debug)]
pub struct HybridMemory {
    kind: DataKind,
    scratchpad: Scratchpad,
    cache: SetAssociativeCache,
    stats: KindStats,
}

impl HybridMemory {
    /// Creates a hybrid memory for `kind` data.
    ///
    /// # Panics
    ///
    /// Panics on a config [`Self::try_new`] rejects.
    pub fn new(kind: DataKind, config: HybridConfig) -> Self {
        match HybridMemory::try_new(kind, config) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: rejects a cache geometry or λ that
    /// [`SetAssociativeCache::try_new`] rejects with a typed [`MemError`]
    /// instead of panicking.
    pub fn try_new(kind: DataKind, config: HybridConfig) -> Result<Self, MemError> {
        Ok(HybridMemory {
            kind,
            scratchpad: Scratchpad::from_mask(config.pinned),
            cache: SetAssociativeCache::try_new(
                config.sets,
                config.ways,
                config.block_bits,
                config.policy,
            )?,
            stats: KindStats::default(),
        })
    }

    /// Which data kind this memory serves.
    pub fn kind(&self) -> DataKind {
        self.kind
    }

    /// Accesses `item` with priority rank `rank`, updating statistics.
    pub fn access(&mut self, item: u64, rank: u32) -> AccessOutcome {
        self.access_routed(item, item, rank)
    }

    /// Accesses an item whose global ID (for the priority check) differs
    /// from its bank-local ID (for cache indexing). Banked subsystems
    /// densify IDs per bank so modulo set indexing stays uniform.
    #[inline]
    pub fn access_routed(&mut self, global_item: u64, local_item: u64, rank: u32) -> AccessOutcome {
        let outcome = if self.scratchpad.contains(global_item) {
            AccessOutcome::HighPriorityHit
        } else if self.cache.access(local_item, rank) {
            AccessOutcome::CacheHit
        } else {
            AccessOutcome::Miss
        };
        self.stats.record(outcome);
        outcome
    }

    /// Fills `local_item`'s block into the low-priority cache without a
    /// demand access (prefetch): no statistics are recorded and pinned
    /// data is left alone. Returns `true` if a fill actually happened
    /// (the block was absent).
    pub fn prefetch(&mut self, global_item: u64, local_item: u64, rank: u32) -> bool {
        if self.scratchpad.contains(global_item) || self.cache.contains(local_item) {
            return false;
        }
        self.cache.access(local_item, rank);
        true
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &KindStats {
        &self.stats
    }

    /// Number of items pinned in the scratchpad.
    pub fn pinned_items(&self) -> usize {
        self.scratchpad.pinned_items()
    }

    /// Pinned-prefix bound: items `0..n` are exactly the pinned set when
    /// the scratchpad is prefix-shaped, `0` otherwise (which disables any
    /// prefix-compare shortcut — an empty prefix pins nothing). See
    /// [`Scratchpad::prefix_len`].
    pub fn pin_prefix(&self) -> u64 {
        self.scratchpad.prefix_len().unwrap_or(0)
    }

    /// Evictions performed by the low-priority cache.
    pub fn evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// Lines currently resident in the low-priority cache — the warm-up
    /// gauge behind the telemetry layer's per-window cache-occupancy
    /// series (see [`crate::SetAssociativeCache::resident_lines`]).
    pub fn cache_occupied_lines(&self) -> usize {
        self.cache.resident_lines()
    }

    /// Retunes the low-priority cache's replacement-policy λ (no-op
    /// under LRU). The adaptive autotuner in the simulator
    /// calls this on every bank at a window boundary.
    pub fn set_lambda(&mut self, lambda: f64) -> Result<(), MemError> {
        self.cache.set_lambda(lambda)
    }

    /// Replaces the scratchpad's pin membership with `mask` (runtime
    /// re-pinning). The low-priority cache and the statistics are left
    /// untouched: lines already resident for newly-pinned items simply age
    /// out, which mirrors how a hardware re-pin would lazily reclaim BRAM.
    pub fn repin(&mut self, mask: std::sync::Arc<Vec<bool>>) {
        self.scratchpad = Scratchpad::from_mask(mask);
    }

    /// Clears cache contents and statistics (the scratchpad is static and
    /// keeps its membership).
    pub fn reset(&mut self) {
        self.cache.reset();
        self.stats = KindStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hybrid(pinned: Vec<bool>, policy: PolicyKind) -> HybridMemory {
        HybridMemory::new(
            DataKind::Vertex,
            HybridConfig {
                pinned: pinned.into(),
                sets: 2,
                ways: 2,
                block_bits: 0,
                policy,
            },
        )
    }

    #[test]
    fn pinned_items_always_hit() {
        let mut m = hybrid(vec![true, false], PolicyKind::Lru);
        for _ in 0..10 {
            assert_eq!(m.access(0, 0), AccessOutcome::HighPriorityHit);
        }
        assert_eq!(m.stats().high_priority_hits, 10);
    }

    #[test]
    fn unpinned_items_go_through_cache() {
        let mut m = hybrid(vec![true, false], PolicyKind::Lru);
        assert_eq!(m.access(1, 1), AccessOutcome::Miss);
        assert_eq!(m.access(1, 1), AccessOutcome::CacheHit);
        assert_eq!(m.stats().misses, 1);
        assert_eq!(m.stats().cache_hits, 1);
    }

    #[test]
    fn empty_scratchpad_is_uniform_cache() {
        let mut m = hybrid(Vec::new(), PolicyKind::Lru);
        assert_eq!(m.pinned_items(), 0);
        assert_eq!(m.access(0, 0), AccessOutcome::Miss);
        assert_eq!(m.access(0, 0), AccessOutcome::CacheHit);
    }

    #[test]
    fn hit_ratio_accounting() {
        let mut m = hybrid(vec![true], PolicyKind::Lru);
        m.access(0, 0); // hp hit
        m.access(5, 5); // miss
        m.access(5, 5); // cache hit
        let s = m.stats();
        assert_eq!(s.total(), 3);
        assert!((s.on_chip_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reset_keeps_pinning() {
        let mut m = hybrid(vec![true], PolicyKind::Lru);
        m.access(3, 3);
        m.reset();
        assert_eq!(m.stats().total(), 0);
        assert_eq!(m.access(0, 0), AccessOutcome::HighPriorityHit);
        assert_eq!(m.access(3, 3), AccessOutcome::Miss);
    }
}
