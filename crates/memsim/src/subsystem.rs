use crate::dram::{DramConfig, DramModel};
use crate::error::MemError;
use crate::hybrid::{AccessOutcome, HybridConfig, HybridMemory};
use crate::stats::MemStats;

/// Kind of graph data a memory request targets.
///
/// GRAMER isolates the two in separate banks "to avoid the potential
/// access conflicts and data thrashing between them" (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataKind {
    /// Vertex data (IDs are vertex IDs).
    Vertex,
    /// Edge data (IDs are adjacency-array slots).
    Edge,
}

/// Service latencies of the on-chip structures, in accelerator cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// High-priority scratchpad hit.
    pub scratchpad_cycles: u64,
    /// Low-priority cache hit.
    pub cache_cycles: u64,
    /// Per-request occupancy of a partition port (crossbar + FIFO issue).
    pub port_occupancy_cycles: u64,
    /// Ports per (partition, kind) bank. Xilinx BRAMs are dual-ported, so
    /// the default is 2.
    pub ports_per_bank: usize,
    /// Depth of each bank's request FIFO (Fig. 7's "Request Buffer").
    /// When the FIFO is full, new requests stall until the oldest
    /// outstanding one completes. `0` disables the bound.
    pub request_fifo_depth: usize,
    /// Latency of a hit in the pair-memo table (a small on-chip SRAM
    /// probed before the connectivity-check accesses it can replace).
    /// Only charged when memoization is enabled.
    pub memo_lookup_cycles: u64,
    /// Latency of a candidate-filter admission probe (the query front
    /// end's union-bitmap SRAM, read once per examined extension). Only
    /// charged when a query filter is active.
    pub filter_lookup_cycles: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            scratchpad_cycles: 1,
            cache_cycles: 2,
            port_occupancy_cycles: 1,
            ports_per_bank: 2,
            request_fifo_depth: 8,
            memo_lookup_cycles: 1,
            filter_lookup_cycles: 1,
        }
    }
}

/// Which implementation of the timed access engine serves requests.
///
/// Purely a *host-side* choice: both paths produce identical completions
/// and statistics for every request sequence — the fast path only takes a
/// shortcut when it can prove the exact machinery would be a no-op around
/// a pinned hit. The guarantee is enforced by lockstep property tests and
/// the golden-config equivalence suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessPath {
    /// Two-lane engine: pinned-prefix hits whose partition shows no
    /// possible contention at issue time resolve with straight-line
    /// arithmetic; everything else falls back to the exact machinery.
    #[default]
    Fast,
    /// Always walk the full port-arbitration / request-FIFO machinery
    /// (the reference implementation).
    Exact,
}

/// Configuration of a [`MemorySubsystem`].
#[derive(Debug, Clone)]
pub struct SubsystemConfig {
    /// Number of banked partitions (the paper uses 8).
    pub partitions: usize,
    /// Template for each partition's vertex memory. The pinned mask is
    /// global (membership is checked by global ID); the per-partition
    /// cache receives `sets` sets each.
    pub vertex: HybridConfig,
    /// Template for each partition's edge memory.
    pub edge: HybridConfig,
    /// Partition-routing granularity for vertex items: partition =
    /// `(id >> bits) % partitions`. Usually `0`.
    pub vertex_route_bits: u32,
    /// Partition-routing granularity for edge items. Should match the
    /// edge cache's block size so a cache block never straddles
    /// partitions.
    pub edge_route_bits: u32,
    /// Whether edge misses also prefetch the next block (the Prefetcher
    /// of §III performs next-line prefetches; adjacency runs are walked
    /// sequentially, so the next block is very likely needed). Prefetch
    /// fills are free of port time but count as DRAM requests.
    pub next_line_prefetch: bool,
    /// On-chip latencies.
    pub latency: LatencyConfig,
    /// Off-chip DRAM model.
    pub dram: DramConfig,
    /// Timed-access engine selection (host-side only; see [`AccessPath`]).
    pub access_path: AccessPath,
}

/// Result of a timed memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Cycle at which the requested datum is available.
    pub finish: u64,
    /// Where the request was served.
    pub outcome: AccessOutcome,
}

/// The banked on-chip memory of Fig. 7 plus the off-chip DRAM behind it.
///
/// Requests are routed to partition `id % partitions`; each partition has
/// an isolated vertex memory and edge memory and a single request port, so
/// concurrent requests to the same partition serialize — the contention
/// that caps pipeline scaling in Fig. 13(a).
///
/// # Example
///
/// ```
/// use gramer_memsim::{
///     DataKind, DramConfig, HybridConfig, LatencyConfig, MemorySubsystem, SubsystemConfig,
/// };
/// use gramer_memsim::policy::PolicyKind;
///
/// let hybrid = HybridConfig { pinned: vec![true; 4].into(), sets: 2, ways: 2, block_bits: 0,
///                             policy: PolicyKind::default() };
/// let cfg = SubsystemConfig {
///     partitions: 2,
///     vertex: hybrid.clone(),
///     edge: hybrid,
///     vertex_route_bits: 0,
///     edge_route_bits: 0,
///     next_line_prefetch: false,
///     latency: LatencyConfig::default(),
///     dram: DramConfig::default(),
///     access_path: Default::default(),
/// };
/// let mut mem = MemorySubsystem::new(cfg);
/// let c = mem.access(DataKind::Vertex, 0, 0, 0);
/// assert!(c.outcome.is_on_chip());
/// ```
#[derive(Debug)]
pub struct MemorySubsystem {
    vertex: KindState,
    edge: KindState,
    ports_per_bank: usize,
    partitions: u64,
    /// `Some(log2(partitions))` when the partition count is a power of
    /// two (the paper's 8 is): routing then uses shift/mask instead of
    /// hardware divides, which dominated the per-access cost.
    part_shift: Option<u32>,
    next_line_prefetch: bool,
    prefetches: u64,
    memo_lookups: u64,
    filter_lookups: u64,
    dram: DramModel,
    latency: LatencyConfig,
    /// Whether the pinned-prefix fast lane is armed (see [`AccessPath`]).
    fast_path: bool,
}

/// Per-kind banked state: the vertex/edge isolation of §IV-A means the
/// two never contend, so each kind owns its banks and its per-partition
/// timing state outright — one `match` on the request kind selects
/// everything.
#[derive(Debug)]
struct KindState {
    banks: Vec<HybridMemory>,
    /// Per-partition port + FIFO timing state, one contiguous record per
    /// partition so an access touches one predictable region instead of
    /// chasing parallel arrays.
    hot: Vec<PartHot>,
    /// Spilled port-free times (`partition * ports_per_bank + port`) for
    /// configurations with more ports than [`PORTS_INLINE`]; empty
    /// otherwise.
    ports_spill: Vec<u64>,
    route_bits: u32,
    /// `(1 << route_bits) - 1`, hoisted out of the access path.
    route_mask: u64,
    /// Pinned-prefix bound shared by every bank of this kind: items
    /// `0..pin_prefix` are exactly the pinned set (all banks are built
    /// from one shared mask). `0` when the scratchpad is empty or not
    /// prefix-shaped, which disables the fast lane for this kind.
    pin_prefix: u64,
    /// Pinned hits resolved by the arithmetic ultra lane.
    ultra_hits: u64,
    /// Pinned hits resolved by the middle lane: the exact port/FIFO
    /// machinery with the outcome pre-classified (the ultra lane's
    /// contended fallback). Both lane counters are folded into
    /// [`MemorySubsystem::stats`] (neither lane touches the banks), so
    /// aggregated statistics stay identical to the exact path.
    middle_hits: u64,
}

/// Ports stored inline in [`PartHot`]; real configurations model
/// dual-ported BRAMs (ablations use 1), so 4 covers everything that
/// occurs in practice without touching the spill vector.
const PORTS_INLINE: usize = 4;

/// The per-partition timing state touched by every access: the bank's
/// port free-times and its request FIFO, packed together.
#[derive(Debug, Clone)]
struct PartHot {
    port_free: [u64; PORTS_INLINE],
    fifo: ReqFifo,
}

/// In-struct ring capacity of a [`ReqFifo`]; the default
/// `request_fifo_depth` (8) fits, so the common case never leaves the
/// `Vec<ReqFifo>`'s own cache lines.
const FIFO_INLINE: usize = 8;

/// Fixed-capacity ring of in-flight completion times (Fig. 7's request
/// buffer). The admission loop in [`MemorySubsystem::access`] keeps
/// occupancy at or below the configured depth, so capacity never grows.
/// Depths up to [`FIFO_INLINE`] live in an inline array — the per-access
/// ring touch then stays inside the partition array itself instead of
/// chasing a per-partition heap allocation; deeper configs spill to a
/// boxed slice.
#[derive(Debug, Clone)]
struct ReqFifo {
    head: u32,
    len: u32,
    cap: u32,
    inline: [u64; FIFO_INLINE],
    spill: Option<Box<[u64]>>,
}

/// Result of routing one request to its partition and classifying it
/// against that partition's bank hierarchy.
struct Classified {
    /// Target partition.
    part: usize,
    /// Routing unit (`item >> route_bits`), reused by the prefetcher.
    unit: u64,
    /// Offset within the routing unit, reused by the prefetcher.
    offset: u64,
    /// Where the request was served.
    outcome: AccessOutcome,
}

impl KindState {
    /// Routes `item` to its partition and performs the bank access,
    /// classifying the outcome for the timed path.
    ///
    /// Partition routing divides the routing unit by the partition count
    /// (bank-local densification keeps modulo set indexing uniform):
    /// shift/mask when the partition count is a power of two (the
    /// paper's 8 is), hardware divides otherwise.
    #[inline]
    fn classify(
        &mut self,
        partitions: u64,
        part_shift: Option<u32>,
        item: u64,
        rank: u32,
    ) -> Classified {
        let route_bits = self.route_bits;
        let unit = item >> route_bits;
        let (p, dense_unit) = match part_shift {
            Some(shift) => ((unit & (partitions - 1)) as usize, unit >> shift),
            None => ((unit % partitions) as usize, unit / partitions),
        };
        let offset = item & self.route_mask;
        let local_item = (dense_unit << route_bits) | offset;
        let outcome = self.banks[p].access_routed(item, local_item, rank);
        Classified {
            part: p,
            unit,
            offset,
            outcome,
        }
    }
}

impl ReqFifo {
    fn new(depth: usize) -> Self {
        let cap = depth.max(1);
        ReqFifo {
            head: 0,
            len: 0,
            cap: cap as u32,
            inline: [0; FIFO_INLINE],
            spill: (cap > FIFO_INLINE).then(|| vec![0; cap].into_boxed_slice()),
        }
    }

    fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

impl MemorySubsystem {
    /// Builds the subsystem.
    ///
    /// # Panics
    ///
    /// Panics on a config [`Self::try_new`] rejects.
    pub fn new(config: SubsystemConfig) -> Self {
        match MemorySubsystem::try_new(config) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: rejects zero partitions, degenerate hybrid
    /// geometry or zero DRAM channels with a typed [`MemError`] instead of
    /// panicking.
    pub fn try_new(config: SubsystemConfig) -> Result<Self, MemError> {
        if config.partitions == 0 {
            return Err(MemError::ZeroPartitions);
        }
        let ports_per_bank = config.latency.ports_per_bank.max(1);
        let mk_kind = |kind: DataKind,
                       template: &HybridConfig,
                       route_bits: u32|
         -> Result<KindState, MemError> {
            let banks = (0..config.partitions)
                .map(|_| HybridMemory::try_new(kind, template.clone()))
                .collect::<Result<Vec<_>, _>>()?;
            let pin_prefix = banks.first().map_or(0, HybridMemory::pin_prefix);
            Ok(KindState {
                banks,
                hot: vec![
                    PartHot {
                        port_free: [0; PORTS_INLINE],
                        fifo: ReqFifo::new(config.latency.request_fifo_depth),
                    };
                    config.partitions
                ],
                ports_spill: if ports_per_bank > PORTS_INLINE {
                    vec![0; config.partitions * ports_per_bank]
                } else {
                    Vec::new()
                },
                route_bits,
                route_mask: (1u64 << route_bits) - 1,
                pin_prefix,
                ultra_hits: 0,
                middle_hits: 0,
            })
        };
        let partitions = config.partitions as u64;
        Ok(MemorySubsystem {
            vertex: mk_kind(DataKind::Vertex, &config.vertex, config.vertex_route_bits)?,
            edge: mk_kind(DataKind::Edge, &config.edge, config.edge_route_bits)?,
            ports_per_bank,
            partitions,
            part_shift: partitions
                .is_power_of_two()
                .then_some(partitions.trailing_zeros()),
            next_line_prefetch: config.next_line_prefetch,
            prefetches: 0,
            memo_lookups: 0,
            filter_lookups: 0,
            dram: DramModel::try_new(config.dram)?,
            latency: config.latency,
            fast_path: config.access_path == AccessPath::Fast,
        })
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.vertex.banks.len()
    }

    /// Performs a timed access to `item` of `kind` (priority rank `rank`)
    /// issued at cycle `now`.
    ///
    /// Under [`AccessPath::Fast`] a pinned-prefix hit takes the two-step
    /// fast lane. Step one proves the hit with a single compare (after
    /// rank reordering the pinned set is the ID prefix) — no bank walk.
    /// Step two resolves timing: when the partition provably cannot
    /// contend at `now` (both ports free, request FIFO empty or holding a
    /// single already-drained entry) the completion is pure arithmetic,
    /// `now + scratchpad_cycles`, touching only the partition's timing
    /// registers; under possible contention the request runs the exact
    /// port/FIFO machinery with the outcome pre-classified. Unpinned
    /// data, non-prefix scratchpads and `Exact` mode take the reference
    /// path. All lanes are bit-exact: the state each writes is exactly
    /// what the reference path would leave behind (see DESIGN.md
    /// "Simulator fast paths").
    ///
    /// `#[inline]` lets the observer shims — which pass `kind` as a
    /// literal — constant-fold the kind dispatch away.
    #[inline]
    pub fn access(&mut self, kind: DataKind, item: u64, rank: u32, now: u64) -> Completion {
        if self.fast_path {
            let partitions = self.partitions;
            let part_shift = self.part_shift;
            let dual = self.ports_per_bank == 2;
            let st = match kind {
                DataKind::Vertex => &mut self.vertex,
                DataKind::Edge => &mut self.edge,
            };
            if item < st.pin_prefix {
                if dual {
                    let unit = item >> st.route_bits;
                    let p = match part_shift {
                        Some(_) => (unit & (partitions - 1)) as usize,
                        None => (unit % partitions) as usize,
                    };
                    let hotp = &mut st.hot[p];
                    let pf = &mut hotp.port_free;
                    let i = (pf[1] < pf[0]) as usize;
                    if pf[i] <= now {
                        // Port free. The FIFO must also be quiescent:
                        // empty, or one entry already drained by `now`
                        // (the exact admission loop would pop it without
                        // stalling).
                        let f = &mut hotp.fifo;
                        let head = f.head as usize;
                        let quiescent = f.len == 0
                            || (f.len == 1
                                && match &f.spill {
                                    None => f.inline[head],
                                    Some(b) => b[head],
                                } <= now);
                        if quiescent {
                            pf[i] = now + self.latency.port_occupancy_cycles;
                            let finish = now + self.latency.scratchpad_cycles;
                            if self.latency.request_fifo_depth > 0 {
                                // Canonical single-entry ring. Ring
                                // rotation is unobservable (all FIFO
                                // operations are relative to `head`), so
                                // resetting `head` to 0 is exact.
                                f.head = 0;
                                f.len = 1;
                                match &mut f.spill {
                                    None => f.inline[0] = finish,
                                    Some(b) => b[0] = finish,
                                }
                            }
                            st.ultra_hits += 1;
                            return Completion {
                                finish,
                                outcome: AccessOutcome::HighPriorityHit,
                            };
                        }
                    }
                }
                // Pinned but possibly contended: exact timing machinery,
                // classification already settled by the prefix compare.
                return self.access_timed(kind, item, rank, now, true);
            }
        }
        self.access_timed(kind, item, rank, now, false)
    }

    /// The exact timed path: full request-FIFO admission, port
    /// arbitration and DRAM modelling. Serves every request under
    /// [`AccessPath::Exact`] and the fast lane's fallbacks under
    /// [`AccessPath::Fast`].
    ///
    /// `pinned` is the fast lane's pre-classification: `true` means the
    /// prefix compare already proved a `HighPriorityHit`, so the bank
    /// walk is skipped and the hit is tallied in the middle-lane counter
    /// (both call sites pass a literal, so the branch constant-folds).
    #[inline]
    fn access_timed(
        &mut self,
        kind: DataKind,
        item: u64,
        rank: u32,
        now: u64,
        pinned: bool,
    ) -> Completion {
        let partitions = self.partitions;
        let part_shift = self.part_shift;
        let depth = self.latency.request_fifo_depth;
        let ports_per_bank = self.ports_per_bank;
        let st = match kind {
            DataKind::Vertex => &mut self.vertex,
            DataKind::Edge => &mut self.edge,
        };
        // Route + classify first: the bank access commutes with the
        // timing machinery, as neither reads the other's state.
        let cls = if pinned {
            let unit = item >> st.route_bits;
            let p = match part_shift {
                Some(_) => (unit & (partitions - 1)) as usize,
                None => (unit % partitions) as usize,
            };
            st.middle_hits += 1;
            Classified {
                part: p,
                unit,
                // Only read on a Miss (prefetch), which a pinned hit
                // never is.
                offset: 0,
                outcome: AccessOutcome::HighPriorityHit,
            }
        } else {
            st.classify(partitions, part_shift, item, rank)
        };
        let p = cls.part;
        // Split the kind state into disjoint field borrows so one
        // bounds-checked `hot[p]` lookup serves FIFO admission, the port
        // pick, and the completion push.
        let KindState {
            hot, ports_spill, ..
        } = st;
        let hotp = &mut hot[p];

        // Request-FIFO admission (Fig. 7): a full buffer stalls the
        // request until its oldest outstanding entry drains. The ring is
        // resolved to a raw slice + head/len registers once; the same
        // slice later receives the completion push.
        let mut admit = now;
        let fifo_cap = hotp.fifo.cap;
        let mut fifo_head = hotp.fifo.head;
        let mut fifo_len = hotp.fifo.len;
        let fifo_buf: &mut [u64] = match &mut hotp.fifo.spill {
            None => &mut hotp.fifo.inline,
            Some(b) => b,
        };
        if depth > 0 {
            while fifo_len > 0 {
                let front = fifo_buf[fifo_head as usize];
                if front <= admit {
                    // drained: fall through to the pop below
                } else if fifo_len as usize >= depth {
                    admit = front;
                } else {
                    break;
                }
                fifo_head += 1;
                if fifo_head == fifo_cap {
                    fifo_head = 0;
                }
                fifo_len -= 1;
            }
        }

        // Earliest-free port of the bank. ports_per_bank is clamped to
        // >= 1 at construction; dual-ported BRAMs (the practical case)
        // take a branchless two-way pick, everything else a short scan.
        let occupancy = self.latency.port_occupancy_cycles;
        let start;
        if ports_per_bank == 2 {
            let pf = &mut hotp.port_free;
            let i = (pf[1] < pf[0]) as usize;
            start = admit.max(pf[i]);
            pf[i] = start + occupancy;
        } else {
            let ports: &mut [u64] = if ports_per_bank <= PORTS_INLINE {
                &mut hotp.port_free[..ports_per_bank]
            } else {
                &mut ports_spill[p * ports_per_bank..(p + 1) * ports_per_bank]
            };
            let mut port = 0;
            for i in 1..ports.len() {
                if ports[i] < ports[port] {
                    port = i;
                }
            }
            start = admit.max(ports[port]);
            ports[port] = start + occupancy;
        }

        let finish = match cls.outcome {
            AccessOutcome::HighPriorityHit => start + self.latency.scratchpad_cycles,
            AccessOutcome::CacheHit => start + self.latency.cache_cycles,
            AccessOutcome::Miss => self.dram.service(start),
        };

        // Record the in-flight request in the FIFO and write the ring
        // registers back.
        if depth > 0 {
            let mut i = fifo_head + fifo_len;
            if i >= fifo_cap {
                i -= fifo_cap;
            }
            fifo_buf[i as usize] = finish;
            fifo_len += 1;
        }
        hotp.fifo.head = fifo_head;
        hotp.fifo.len = fifo_len;

        self.maybe_prefetch(kind, cls.unit, cls.offset, rank, start, cls.outcome);
        Completion {
            finish,
            outcome: cls.outcome,
        }
    }

    /// Next-line prefetch: on an edge miss, pull the following block too
    /// (adjacency runs are walked sequentially). The prefetched block may
    /// live in a different partition; it costs a DRAM request but no port
    /// time on the demand path.
    #[inline]
    fn maybe_prefetch(
        &mut self,
        kind: DataKind,
        unit: u64,
        offset: u64,
        rank: u32,
        start: u64,
        outcome: AccessOutcome,
    ) {
        if self.next_line_prefetch && kind == DataKind::Edge && outcome == AccessOutcome::Miss {
            let route_bits = self.edge.route_bits;
            let next_unit = unit + 1;
            let next_item = next_unit << route_bits;
            let (np, next_dense) = match self.part_shift {
                Some(shift) => (
                    (next_unit & (self.partitions - 1)) as usize,
                    next_unit >> shift,
                ),
                None => (
                    (next_unit % self.partitions) as usize,
                    next_unit / self.partitions,
                ),
            };
            let next_local = (next_dense << route_bits) | offset;
            let next_rank = rank.saturating_add(1);
            if self.edge.banks[np].prefetch(next_item, next_local, next_rank) {
                self.prefetches += 1;
                self.dram.service(start);
            }
        }
    }

    /// Number of next-line prefetch fills performed.
    pub fn prefetches(&self) -> u64 {
        self.prefetches
    }

    /// Charges one pair-memo lookup issued at cycle `now` and returns its
    /// completion time (`now + memo_lookup_cycles`). The memo SRAM sits
    /// beside the PUs, not behind the partition crossbar, so a lookup
    /// consumes no port time and cannot contend with demand accesses — it
    /// replaces them.
    pub fn memo_lookup(&mut self, now: u64) -> u64 {
        self.memo_lookups += 1;
        now + self.latency.memo_lookup_cycles
    }

    /// Number of charged pair-memo lookups. Hits and misses are both
    /// charged: the simulator's access observer calls [`memo_lookup`]
    /// for each, so this equals the memo table's own lookup count (the
    /// run debug-asserts it).
    ///
    /// [`memo_lookup`]: MemorySubsystem::memo_lookup
    pub fn memo_lookups(&self) -> u64 {
        self.memo_lookups
    }

    /// Charges one candidate-filter admission probe issued at cycle
    /// `now` and returns its completion time
    /// (`now + filter_lookup_cycles`). Like the pair memo, the filter
    /// bitmap is a dedicated SRAM beside the PUs — no port time, no
    /// contention with demand accesses — but unlike the memo it is
    /// charged on *every* examined extension while a query filter is
    /// active, which is what keeps filtered runs honest: the pruning is
    /// paid for, not free.
    pub fn filter_lookup(&mut self, now: u64) -> u64 {
        self.filter_lookups += 1;
        now + self.latency.filter_lookup_cycles
    }

    /// Number of charged candidate-filter probes (zero unless a query
    /// filter ran).
    pub fn filter_lookups(&self) -> u64 {
        self.filter_lookups
    }

    /// Retunes every bank's replacement-policy λ, both kinds (no-op
    /// under LRU). The adaptive autotuner calls this at
    /// deterministic window boundaries.
    pub fn set_lambda(&mut self, lambda: f64) -> Result<(), MemError> {
        for st in [&mut self.vertex, &mut self.edge] {
            for b in st.banks.iter_mut() {
                b.set_lambda(lambda)?;
            }
        }
        Ok(())
    }

    /// Replaces the vertex scratchpads' pin membership with `mask`
    /// (runtime re-pinning). Edge pinning is left unchanged: edge priority
    /// derives from the source vertex's rank, and re-deriving the edge
    /// mask would require a full adjacency re-scan the hardware cannot
    /// afford mid-run. The pinned-prefix fast lane re-arms only if the
    /// new mask is prefix-shaped; arbitrary masks safely disarm it.
    pub fn repin_vertices(&mut self, mask: std::sync::Arc<Vec<bool>>) {
        for b in self.vertex.banks.iter_mut() {
            b.repin(mask.clone());
        }
        self.vertex.pin_prefix = self
            .vertex
            .banks
            .first()
            .map_or(0, HybridMemory::pin_prefix);
    }

    /// Aggregated statistics over all partitions. Fast-lane hits are
    /// folded in here (the lane bypasses the banks' own counters), so the
    /// totals are access-path-invariant.
    pub fn stats(&self) -> MemStats {
        let mut stats = MemStats::default();
        for b in &self.vertex.banks {
            stats.vertex += *b.stats();
        }
        for b in &self.edge.banks {
            stats.edge += *b.stats();
        }
        stats.vertex.high_priority_hits += self.vertex.ultra_hits + self.vertex.middle_hits;
        stats.edge.high_priority_hits += self.edge.ultra_hits + self.edge.middle_hits;
        stats
    }

    /// Timed accesses resolved by either pinned fast lane — the ultra
    /// lane plus its pre-classified middle-lane fallback (host-side
    /// diagnostic; always `0` under [`AccessPath::Exact`]). Together with
    /// [`Self::stats`]'s total this exposes the fallback rate, which the
    /// differential tests use to prove a config actually exercises the
    /// fast/exact boundary.
    pub fn fast_path_hits(&self) -> u64 {
        self.ultra_lane_hits() + self.vertex.middle_hits + self.edge.middle_hits
    }

    /// Timed accesses resolved by the arithmetic ultra lane alone (a
    /// subset of [`Self::fast_path_hits`]; the rest took the middle
    /// lane's port/FIFO machinery). Host-side diagnostic, always `0`
    /// under [`AccessPath::Exact`].
    pub fn ultra_lane_hits(&self) -> u64 {
        self.vertex.ultra_hits + self.edge.ultra_hits
    }

    /// Total DRAM requests issued.
    pub fn dram_requests(&self) -> u64 {
        self.dram.requests()
    }

    /// Current request-FIFO occupancy summed over `kind`'s partitions —
    /// entries admitted but not yet popped by the lazy drain. This is a
    /// sampling gauge for the telemetry layer; it never perturbs timing
    /// state. Both access paths leave identical occupancy (the fast lane
    /// only fires where the exact admission loop would also leave exactly
    /// one live entry), so sampled values are access-path-invariant.
    pub fn fifo_occupancy(&self, kind: DataKind) -> u64 {
        let st = match kind {
            DataKind::Vertex => &self.vertex,
            DataKind::Edge => &self.edge,
        };
        st.hot.iter().map(|h| h.fifo.len as u64).sum()
    }

    /// Cache evictions summed over `kind`'s banks (monotone counter; the
    /// telemetry layer samples deltas of it per window).
    pub fn evictions(&self, kind: DataKind) -> u64 {
        let st = match kind {
            DataKind::Vertex => &self.vertex,
            DataKind::Edge => &self.edge,
        };
        st.banks.iter().map(HybridMemory::evictions).sum()
    }

    /// Lines currently resident across `kind`'s low-priority caches — the
    /// warm-up gauge of the telemetry layer's cache-occupancy series.
    pub fn cache_occupied_lines(&self, kind: DataKind) -> u64 {
        let st = match kind {
            DataKind::Vertex => &self.vertex,
            DataKind::Edge => &self.edge,
        };
        st.banks
            .iter()
            .map(|b| b.cache_occupied_lines() as u64)
            .sum()
    }

    /// Clears all dynamic state (cache contents, ports, DRAM queues,
    /// statistics). Scratchpad membership is retained.
    pub fn reset(&mut self) {
        for st in [&mut self.vertex, &mut self.edge] {
            for b in st.banks.iter_mut() {
                b.reset();
            }
            for h in st.hot.iter_mut() {
                h.port_free = [0; PORTS_INLINE];
                h.fifo.clear();
            }
            st.ports_spill.fill(0);
            st.ultra_hits = 0;
            st.middle_hits = 0;
        }
        self.prefetches = 0;
        self.memo_lookups = 0;
        self.filter_lookups = 0;
        self.dram.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;

    fn subsystem(partitions: usize) -> MemorySubsystem {
        let hybrid = HybridConfig {
            pinned: vec![true, true, false, false, false, false, false, false].into(),
            sets: 2,
            ways: 2,
            block_bits: 0,
            policy: PolicyKind::Lru,
        };
        MemorySubsystem::new(SubsystemConfig {
            partitions,
            vertex: hybrid.clone(),
            edge: hybrid,
            vertex_route_bits: 0,
            edge_route_bits: 0,
            next_line_prefetch: false,
            latency: LatencyConfig::default(),
            dram: DramConfig {
                channels: 1,
                latency_cycles: 40,
                occupancy_cycles: 4,
            },
            access_path: AccessPath::default(),
        })
    }

    #[test]
    fn try_new_rejects_zero_partitions_and_bad_hybrid() {
        let hybrid = HybridConfig {
            pinned: Vec::new().into(),
            sets: 2,
            ways: 2,
            block_bits: 0,
            policy: PolicyKind::Lru,
        };
        let mk = |partitions, sets| SubsystemConfig {
            partitions,
            vertex: HybridConfig {
                sets,
                ..hybrid.clone()
            },
            edge: hybrid.clone(),
            vertex_route_bits: 0,
            edge_route_bits: 0,
            next_line_prefetch: false,
            latency: LatencyConfig::default(),
            dram: DramConfig::default(),
            access_path: AccessPath::default(),
        };
        assert_eq!(
            MemorySubsystem::try_new(mk(0, 2)).err(),
            Some(MemError::ZeroPartitions)
        );
        assert_eq!(
            MemorySubsystem::try_new(mk(2, 0)).err(),
            Some(MemError::ZeroSets)
        );
        let no_dram = SubsystemConfig {
            dram: DramConfig {
                channels: 0,
                ..DramConfig::default()
            },
            ..mk(2, 2)
        };
        assert_eq!(
            MemorySubsystem::try_new(no_dram).err(),
            Some(MemError::ZeroChannels)
        );
        // An edge block too large to index passes through both layers.
        let huge_block = SubsystemConfig {
            edge: HybridConfig {
                block_bits: 64,
                ..hybrid.clone()
            },
            ..mk(2, 2)
        };
        assert_eq!(
            MemorySubsystem::try_new(huge_block).err(),
            Some(MemError::BlockTooLarge {
                sets: 2,
                ways: 2,
                block_bits: 64
            })
        );
        assert!(MemorySubsystem::try_new(mk(2, 2)).is_ok());
    }

    #[test]
    fn pinned_hits_have_scratchpad_latency() {
        let mut mem = subsystem(2);
        let c = mem.access(DataKind::Vertex, 0, 0, 5);
        assert_eq!(c.outcome, AccessOutcome::HighPriorityHit);
        assert_eq!(c.finish, 6);
    }

    #[test]
    fn same_partition_serializes_beyond_dual_ports() {
        // Pin everything so latency differences don't mask port queueing.
        let hybrid = HybridConfig {
            pinned: vec![true; 8].into(),
            sets: 2,
            ways: 2,
            block_bits: 0,
            policy: PolicyKind::Lru,
        };
        let mut mem = MemorySubsystem::new(SubsystemConfig {
            partitions: 2,
            vertex: hybrid.clone(),
            edge: hybrid,
            vertex_route_bits: 0,
            edge_route_bits: 0,
            next_line_prefetch: false,
            latency: LatencyConfig::default(),
            dram: DramConfig::default(),
            access_path: AccessPath::default(),
        });
        // Items 0, 2, 4 all map to partition 0; its bank has 2 ports, so
        // the first two proceed in parallel and the third queues.
        let a = mem.access(DataKind::Vertex, 0, 0, 0);
        let b = mem.access(DataKind::Vertex, 2, 2, 0);
        let c = mem.access(DataKind::Vertex, 4, 4, 0);
        assert_eq!(a.finish, b.finish, "dual ports should serve two at once");
        assert!(c.finish > b.finish, "port contention not modeled");
    }

    #[test]
    fn different_partitions_parallel() {
        let mut mem = subsystem(2);
        let a = mem.access(DataKind::Vertex, 0, 0, 0);
        let b = mem.access(DataKind::Vertex, 1, 1, 0);
        assert_eq!(a.finish, 1);
        assert_eq!(b.finish, 1);
    }

    #[test]
    fn vertex_and_edge_banks_are_isolated() {
        let mut mem = subsystem(1);
        // Same item id on different kinds must not thrash each other.
        mem.access(DataKind::Vertex, 4, 4, 0);
        mem.access(DataKind::Edge, 4, 4, 0);
        let s = mem.stats();
        assert_eq!(s.vertex.misses, 1);
        assert_eq!(s.edge.misses, 1);
        // Second round: both hit in their own banks.
        assert!(mem.access(DataKind::Vertex, 4, 4, 10).outcome.is_on_chip());
        assert!(mem.access(DataKind::Edge, 4, 4, 10).outcome.is_on_chip());
    }

    #[test]
    fn misses_go_to_dram() {
        let mut mem = subsystem(1);
        let c = mem.access(DataKind::Edge, 7, 7, 0);
        assert_eq!(c.outcome, AccessOutcome::Miss);
        assert!(c.finish >= 40);
        assert_eq!(mem.dram_requests(), 1);
    }

    #[test]
    fn full_request_fifo_stalls_new_requests() {
        let hybrid = HybridConfig {
            pinned: Vec::new().into(),
            sets: 4,
            ways: 4,
            block_bits: 0,
            policy: PolicyKind::Lru,
        };
        let mk = |depth: usize| {
            MemorySubsystem::new(SubsystemConfig {
                partitions: 1,
                vertex: hybrid.clone(),
                edge: hybrid.clone(),
                vertex_route_bits: 0,
                edge_route_bits: 0,
                next_line_prefetch: false,
                latency: LatencyConfig {
                    request_fifo_depth: depth,
                    ..LatencyConfig::default()
                },
                dram: DramConfig {
                    channels: 8,
                    latency_cycles: 100,
                    occupancy_cycles: 1,
                },
                access_path: AccessPath::default(),
            })
        };
        // Two cold misses issued back-to-back at t=0.
        let mut bounded = mk(1);
        let a = bounded.access(DataKind::Vertex, 0, 0, 0);
        let b = bounded.access(DataKind::Vertex, 1, 1, 0);
        // Depth-1 FIFO: the second must wait for the first to complete.
        assert!(b.finish >= a.finish + 100, "{} vs {}", b.finish, a.finish);

        let mut unbounded = mk(0);
        let a = unbounded.access(DataKind::Vertex, 0, 0, 0);
        let b = unbounded.access(DataKind::Vertex, 1, 1, 0);
        assert!(b.finish < a.finish + 100);
    }

    #[test]
    fn next_line_prefetch_serves_sequential_walks() {
        let mk = |prefetch: bool| {
            let hybrid = HybridConfig {
                pinned: Vec::new().into(),
                sets: 16,
                ways: 4,
                block_bits: 2,
                policy: PolicyKind::Lru,
            };
            MemorySubsystem::new(SubsystemConfig {
                partitions: 2,
                vertex: hybrid.clone(),
                edge: hybrid,
                vertex_route_bits: 0,
                edge_route_bits: 2,
                next_line_prefetch: prefetch,
                latency: LatencyConfig::default(),
                dram: DramConfig::default(),
                access_path: AccessPath::default(),
            })
        };
        let walk = |mem: &mut MemorySubsystem| {
            let mut now = 0;
            for slot in 0..64u64 {
                now = mem.access(DataKind::Edge, slot, 0, now).finish;
            }
            now
        };
        let mut plain = mk(false);
        let mut pf = mk(true);
        let t_plain = walk(&mut plain);
        let t_pf = walk(&mut pf);
        assert!(pf.prefetches() > 0);
        assert!(
            pf.stats().edge.misses < plain.stats().edge.misses,
            "prefetch did not reduce demand misses"
        );
        assert!(t_pf < t_plain, "prefetch did not speed up the walk");
    }

    #[test]
    fn reset_clears_stats() {
        let mut mem = subsystem(2);
        mem.access(DataKind::Vertex, 3, 3, 0);
        mem.reset();
        assert_eq!(mem.stats().total(), 0);
        assert_eq!(mem.dram_requests(), 0);
        assert_eq!(mem.fast_path_hits(), 0);
    }

    /// Builds the `subsystem()` fixture with an explicit access path and
    /// pin mask.
    fn subsystem_with(access_path: AccessPath, pinned: Vec<bool>) -> MemorySubsystem {
        let hybrid = HybridConfig {
            pinned: pinned.into(),
            sets: 2,
            ways: 2,
            block_bits: 0,
            policy: PolicyKind::Lru,
        };
        MemorySubsystem::new(SubsystemConfig {
            partitions: 2,
            vertex: hybrid.clone(),
            edge: hybrid,
            vertex_route_bits: 0,
            edge_route_bits: 0,
            next_line_prefetch: false,
            latency: LatencyConfig::default(),
            dram: DramConfig::default(),
            access_path,
        })
    }

    #[test]
    fn fast_lane_tallies_pinned_hits_and_exact_mode_never_does() {
        let prefix = vec![true, true, true, true, false, false, false, false];
        let mut fast = subsystem_with(AccessPath::Fast, prefix.clone());
        let mut exact = subsystem_with(AccessPath::Exact, prefix);
        let mut now = 0;
        for item in [0u64, 1, 2, 3, 0, 1, 6, 7] {
            let a = fast.access(DataKind::Vertex, item, item as u32, now);
            let b = exact.access(DataKind::Vertex, item, item as u32, now);
            assert_eq!(a, b, "item {item}");
            now = a.finish;
        }
        // Six of the eight accesses were pinned-prefix hits; every one
        // went through a fast lane (the ultra lane: each found its port
        // and FIFO idle), none through exact mode's counter.
        assert_eq!(fast.fast_path_hits(), 6);
        assert_eq!(fast.ultra_lane_hits(), 6);
        assert_eq!(exact.fast_path_hits(), 0);
        // Two same-cycle pinned accesses to one partition (items 0 and 2
        // route to partition 0): the first finds the bank idle and takes
        // the ultra lane; the second sees the first's FIFO entry still in
        // flight and takes the middle lane.
        now += 1000;
        for item in [0u64, 2] {
            let a = fast.access(DataKind::Vertex, item, item as u32, now);
            let b = exact.access(DataKind::Vertex, item, item as u32, now);
            assert_eq!(a, b, "same-cycle item {item}");
        }
        assert_eq!(fast.ultra_lane_hits(), 7);
        assert_eq!(fast.fast_path_hits(), 8);
        assert_eq!(exact.ultra_lane_hits(), 0);
        assert_eq!(exact.fast_path_hits(), 0);
        // The folded statistics agree exactly.
        assert_eq!(fast.stats(), exact.stats());
        assert_eq!(fast.stats().vertex.high_priority_hits, 8);
    }

    #[test]
    fn memo_lookup_charges_latency_and_counts() {
        let mut mem = subsystem(2);
        assert_eq!(mem.memo_lookups(), 0);
        let done = mem.memo_lookup(10);
        assert_eq!(done, 11); // default memo_lookup_cycles = 1
        mem.memo_lookup(done);
        assert_eq!(mem.memo_lookups(), 2);
        mem.reset();
        assert_eq!(mem.memo_lookups(), 0);
    }

    #[test]
    fn filter_lookup_charges_latency_and_counts() {
        let mut mem = subsystem(2);
        assert_eq!(mem.filter_lookups(), 0);
        let done = mem.filter_lookup(10);
        assert_eq!(done, 11); // default filter_lookup_cycles = 1
        mem.filter_lookup(done);
        assert_eq!(mem.filter_lookups(), 2);
        assert_eq!(mem.memo_lookups(), 0, "filter probes are not memo probes");
        mem.reset();
        assert_eq!(mem.filter_lookups(), 0);
    }

    #[test]
    fn set_lambda_reaches_every_bank() {
        let hybrid = HybridConfig {
            pinned: Vec::new().into(),
            sets: 2,
            ways: 2,
            block_bits: 0,
            policy: PolicyKind::LocalityPreserved { lambda: 1.0 },
        };
        let mut mem = MemorySubsystem::new(SubsystemConfig {
            partitions: 2,
            vertex: hybrid.clone(),
            edge: hybrid,
            vertex_route_bits: 0,
            edge_route_bits: 0,
            next_line_prefetch: false,
            latency: LatencyConfig::default(),
            dram: DramConfig::default(),
            access_path: AccessPath::default(),
        });
        assert!(mem.set_lambda(8.0).is_ok());
        assert_eq!(mem.set_lambda(f64::NAN).err(), Some(MemError::BadLambda));
        // Lru banks ignore the call rather than erroring.
        let mut lru = subsystem(2);
        assert!(lru.set_lambda(8.0).is_ok());
    }

    #[test]
    fn repin_vertices_swaps_pin_set_and_tracks_prefix() {
        let mut mem = subsystem(2); // pins vertices {0, 1} (a prefix)
        assert_eq!(
            mem.access(DataKind::Vertex, 0, 0, 0).outcome,
            AccessOutcome::HighPriorityHit
        );
        assert_eq!(
            mem.access(DataKind::Vertex, 4, 4, 0).outcome,
            AccessOutcome::Miss
        );
        // Re-pin to the prefix {0..4}: the fast lane re-arms on the new
        // bound and the newly pinned vertex hits the scratchpad.
        mem.repin_vertices(vec![true, true, true, true, false, false, false, false].into());
        assert_eq!(
            mem.access(DataKind::Vertex, 3, 3, 10).outcome,
            AccessOutcome::HighPriorityHit
        );
        let fast_before = mem.fast_path_hits();
        assert!(fast_before > 0, "prefix re-pin should re-arm the fast lane");
        // A scatter mask disarms the fast lane but still pins its members.
        mem.repin_vertices(vec![false, true, false, true, false, true, false, false].into());
        assert_eq!(
            mem.access(DataKind::Vertex, 5, 5, 20).outcome,
            AccessOutcome::HighPriorityHit
        );
        assert_eq!(mem.fast_path_hits(), fast_before);
        // Edge pinning is untouched by design: edge 0 is still pinned.
        assert_eq!(
            mem.access(DataKind::Edge, 0, 0, 30).outcome,
            AccessOutcome::HighPriorityHit
        );
    }

    #[test]
    fn fast_lane_disarmed_by_non_prefix_pin_sets() {
        // A scatter mask pins the same number of items but is not an ID
        // prefix, so the single-compare classification is unsound and
        // the fast lane must stand down — while outcomes stay identical.
        let scatter = vec![true, false, true, false, true, false, true, false];
        let mut mem = subsystem_with(AccessPath::Fast, scatter);
        let c = mem.access(DataKind::Vertex, 2, 2, 0);
        assert_eq!(c.outcome, AccessOutcome::HighPriorityHit);
        assert_eq!(mem.fast_path_hits(), 0);
    }

    #[test]
    fn fast_lane_agrees_with_exact_under_port_pressure() {
        // Same partition hammered at one cycle apart: the FIFO backs up
        // and the ultra lane must repeatedly fall back to the exact
        // machinery mid-run without drifting.
        let all = vec![true; 8];
        let mut fast = subsystem_with(AccessPath::Fast, all.clone());
        let mut exact = subsystem_with(AccessPath::Exact, all);
        for now in 0..64u64 {
            // Partition of item 0 both times (route bits 0, 2 partitions).
            let a = fast.access(DataKind::Vertex, 0, 0, now);
            let b = exact.access(DataKind::Vertex, 0, 0, now);
            assert_eq!(a, b, "now {now}");
        }
        assert_eq!(fast.stats(), exact.stats());
    }
}
