use crate::cache::SetAssociativeCache;
use crate::policy::PolicyKind;

/// Geometry and penalties of the baseline CPU's cache hierarchy.
///
/// Defaults model one core of the paper's Intel E5-2680 v4 (32 KB L1,
/// 256 KB L2, 35 MB shared L3 — §II-B) with conventional latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuCacheConfig {
    /// L1 data cache size in bytes.
    pub l1_bytes: usize,
    /// L2 cache size in bytes.
    pub l2_bytes: usize,
    /// L3 cache size in bytes.
    pub l3_bytes: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// Load-to-use latency per level, in CPU cycles (L1, L2, L3, DRAM).
    pub latency_cycles: [u64; 4],
}

impl Default for CpuCacheConfig {
    fn default() -> Self {
        CpuCacheConfig {
            l1_bytes: 32 << 10,
            l2_bytes: 256 << 10,
            l3_bytes: 35 << 20,
            line_bytes: 64,
            latency_cycles: [4, 12, 42, 200],
        }
    }
}

/// The level that served a CPU memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CpuLevel {
    /// Served by the L1 data cache.
    L1,
    /// Served by the L2 cache.
    L2,
    /// Served by the last-level cache.
    L3,
    /// Went to main memory.
    Dram,
}

/// A three-level inclusive LRU cache model over byte addresses.
///
/// Used for the Fig. 3 stall study (classifying how much CPU time graph
/// mining loses to random vertex/edge accesses) and by the Fractal /
/// RStream baseline cost models.
///
/// # Example
///
/// ```
/// use gramer_memsim::{CpuCacheModel, CpuCacheConfig, CpuLevel};
///
/// let mut cpu = CpuCacheModel::new(CpuCacheConfig::default());
/// assert_eq!(cpu.access(0x1000), CpuLevel::Dram); // cold
/// assert_eq!(cpu.access(0x1000), CpuLevel::L1);   // warm
/// ```
#[derive(Debug)]
pub struct CpuCacheModel {
    l1: SetAssociativeCache,
    l2: SetAssociativeCache,
    l3: SetAssociativeCache,
    config: CpuCacheConfig,
    level_counts: [u64; 4],
}

impl CpuCacheModel {
    /// Builds the model.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two or any level is
    /// smaller than one line.
    pub fn new(config: CpuCacheConfig) -> Self {
        assert!(config.line_bytes.is_power_of_two(), "line size must be 2^n");
        let line_bits = config.line_bytes.trailing_zeros();
        let level = |bytes: usize, ways: usize| {
            let lines = bytes / config.line_bytes;
            assert!(lines >= ways, "cache level smaller than associativity");
            SetAssociativeCache::new(lines / ways, ways, line_bits, PolicyKind::Lru)
        };
        CpuCacheModel {
            l1: level(config.l1_bytes, 8),
            l2: level(config.l2_bytes, 8),
            l3: level(config.l3_bytes, 16),
            config,
            level_counts: [0; 4],
        }
    }

    /// Accesses a byte address; returns the serving level and fills all
    /// levels above it (inclusive hierarchy).
    pub fn access(&mut self, addr: u64) -> CpuLevel {
        let level = if self.l1.access(addr, 0) {
            CpuLevel::L1
        } else if self.l2.access(addr, 0) {
            CpuLevel::L2
        } else if self.l3.access(addr, 0) {
            CpuLevel::L3
        } else {
            CpuLevel::Dram
        };
        self.level_counts[level as usize] += 1;
        level
    }

    /// Load-to-use latency of `level` in CPU cycles.
    pub fn penalty_cycles(&self, level: CpuLevel) -> u64 {
        self.config.latency_cycles[level as usize]
    }

    /// Cycles an access at `level` stalls beyond an L1 hit — the quantity
    /// summed into the Fig. 3 stall shares.
    pub fn stall_cycles(&self, level: CpuLevel) -> u64 {
        self.penalty_cycles(level) - self.config.latency_cycles[0]
    }

    /// Accesses served per level `[L1, L2, L3, DRAM]`.
    pub fn level_counts(&self) -> [u64; 4] {
        self.level_counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_line_hits_l1() {
        let mut cpu = CpuCacheModel::new(CpuCacheConfig::default());
        cpu.access(64);
        assert_eq!(cpu.access(64), CpuLevel::L1);
        assert_eq!(cpu.access(65), CpuLevel::L1); // same line
    }

    #[test]
    fn capacity_eviction_falls_to_lower_level() {
        // Tiny hierarchy to provoke L1 evictions quickly.
        let cfg = CpuCacheConfig {
            l1_bytes: 512,
            l2_bytes: 4096,
            l3_bytes: 65536,
            line_bytes: 64,
            latency_cycles: [4, 12, 42, 200],
        };
        let mut cpu = CpuCacheModel::new(cfg);
        for i in 0..64u64 {
            cpu.access(i * 64);
        }
        // Address 0 has been evicted from the 8-line L1 but not from L2.
        let lvl = cpu.access(0);
        assert!(matches!(lvl, CpuLevel::L2 | CpuLevel::L3));
    }

    #[test]
    fn stall_cycles_zero_for_l1() {
        let cpu = CpuCacheModel::new(CpuCacheConfig::default());
        assert_eq!(cpu.stall_cycles(CpuLevel::L1), 0);
        assert_eq!(cpu.stall_cycles(CpuLevel::Dram), 196);
    }

    #[test]
    fn counters_track_levels() {
        let mut cpu = CpuCacheModel::new(CpuCacheConfig::default());
        cpu.access(0);
        cpu.access(0);
        let c = cpu.level_counts();
        assert_eq!(c[CpuLevel::Dram as usize], 1);
        assert_eq!(c[CpuLevel::L1 as usize], 1);
    }
}
