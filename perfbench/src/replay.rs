//! The memory model and the pair memo timed alone.
//!
//! One depth-first pass over the workload records the access stream an
//! `AccessObserver` sees and the lookup/record stream a wrapping
//! `MemoProbe` sees, in chunks. Each chunk is then replayed through a
//! fresh `MemorySubsystem` and a fresh `PairMemoTable` inside its own
//! span, so the replay is timed without the enumeration around it.
//!
//! With one PU, one slot and no stealing the simulator visits roots and
//! steps in exactly this depth-first order, so the replayed memory and
//! memo must end with the simulator's statistics to the last count; the
//! fidelity checks compare them.

use crate::trace::Tracer;
use gramer::{GramerConfig, MemoMode, MemoryMode, Preprocessed};
use gramer_memsim::policy::PolicyKind;
use gramer_memsim::{DataKind, HybridConfig, MemStats, MemorySubsystem, SubsystemConfig};
use gramer_mining::{
    AccessObserver, EcmApp, Explorer, MemoProbe, MemoStats, NoMemo, PairMemoTable, Step,
};
use std::sync::Arc;

/// Records buffered before a chunk is replayed. Large enough that the
/// replay loop dominates each span, small enough to stay in memory.
const CHUNK: usize = 1 << 20;

const TAG_SHIFT: u32 = 62;
const TAG_VERTEX: u64 = 0;
const TAG_EDGE: u64 = 1;
const TAG_MEMO_LOOKUP: u64 = 2;
const LOW_BITS: u32 = 30;
const LOW_MASK: u64 = (1 << LOW_BITS) - 1;

/// Builds a memory subsystem the way `Simulator::build_memory` does for
/// the default memory mode (pinned scratchpad + locality-preserved cache).
pub fn subsystem(pre: &Preprocessed, cfg: &GramerConfig) -> MemorySubsystem {
    assert_eq!(
        cfg.memory_mode,
        MemoryMode::Lamh,
        "the replay mirrors the default memory mode only"
    );
    let policy = PolicyKind::LocalityPreserved { lambda: cfg.lambda };
    let hybrid = |pinned: Arc<Vec<bool>>, cache_items: usize, block_bits: u32| {
        let per_partition = cache_items.div_ceil(cfg.partitions).max(4);
        let lines = per_partition.div_ceil(1 << block_bits);
        HybridConfig {
            pinned,
            sets: lines.div_ceil(4).max(1),
            ways: 4,
            block_bits,
            policy,
        }
    };
    MemorySubsystem::try_new(SubsystemConfig {
        partitions: cfg.partitions,
        vertex: hybrid(pre.vertex_pin_mask.clone(), pre.vertex_pin, 0),
        edge: hybrid(pre.edge_pin_mask.clone(), pre.edge_pin, 2),
        vertex_route_bits: 0,
        edge_route_bits: 2,
        next_line_prefetch: cfg.next_line_prefetch,
        latency: cfg.latency,
        dram: cfg.dram,
        access_path: cfg.access_path,
    })
    .expect("a config the simulator accepts builds a subsystem")
}

/// Access stream of the explorer, packed as `tag | rank << 30 | item`.
#[derive(Default)]
struct AccessLog {
    buf: Vec<u64>,
}

impl AccessLog {
    fn push(&mut self, tag: u64, item: u64, rank: u32) {
        debug_assert!(item <= LOW_MASK);
        self.buf
            .push((tag << TAG_SHIFT) | (u64::from(rank) << LOW_BITS) | item);
    }
}

impl AccessObserver for AccessLog {
    fn vertex_access(&mut self, v: u32, _size: usize) {
        // After reordering a vertex's priority rank is its id.
        self.push(TAG_VERTEX, u64::from(v), v);
    }

    fn edge_access(&mut self, slot: usize, src: u32, _size: usize) {
        self.push(TAG_EDGE, slot as u64, src);
    }

    fn memo_hit(&mut self, _size: usize) {
        self.push(TAG_MEMO_LOOKUP, 0, 0);
    }

    fn memo_miss(&mut self, _size: usize) {
        self.push(TAG_MEMO_LOOKUP, 0, 0);
    }
}

/// A memo probe that answers from `inner` and logs every call as
/// `record? << 63 | connected << 62 | b << 30 | a`.
struct MemoLog<M> {
    inner: M,
    buf: Vec<u64>,
}

impl<M: MemoProbe> MemoProbe for MemoLog<M> {
    const ACTIVE: bool = M::ACTIVE;

    fn lookup(&mut self, a: u32, b: u32) -> Option<bool> {
        self.buf.push((u64::from(b) << LOW_BITS) | u64::from(a));
        self.inner.lookup(a, b)
    }

    fn record(&mut self, a: u32, b: u32, connected: bool) -> bool {
        self.buf.push(
            (1 << 63) | (u64::from(connected) << 62) | (u64::from(b) << LOW_BITS) | u64::from(a),
        );
        self.inner.record(a, b, connected)
    }

    fn stats(&self) -> MemoStats {
        self.inner.stats()
    }
}

/// Replays packed accesses, each issued when the previous one finished.
fn replay_accesses(mem: &mut MemorySubsystem, now: &mut u64, log: &[u64]) {
    for &r in log {
        let item = r & LOW_MASK;
        let rank = ((r >> LOW_BITS) & 0xFFFF_FFFF) as u32;
        *now = match r >> TAG_SHIFT {
            TAG_VERTEX => mem.access(DataKind::Vertex, item, rank, *now).finish,
            TAG_EDGE => mem.access(DataKind::Edge, item, rank, *now).finish,
            _ => mem.memo_lookup(*now),
        };
    }
}

fn replay_memo(table: &mut PairMemoTable, log: &[u64]) {
    for &r in log {
        let a = (r & LOW_MASK) as u32;
        let b = ((r >> LOW_BITS) & LOW_MASK) as u32;
        if r >> 63 == 1 {
            std::hint::black_box(table.record(a, b, (r >> 62) & 1 == 1));
        } else {
            std::hint::black_box(table.lookup(a, b));
        }
    }
}

/// What one recorded-and-replayed pass saw.
#[derive(Debug, Clone, Default)]
pub struct Replayed {
    /// Explorer steps in the depth-first pass.
    pub steps: u64,
    /// Memory-model calls replayed (accesses plus charged memo lookups).
    pub accesses: u64,
    /// Memo lookups and records replayed.
    pub memo_ops: u64,
    /// Statistics of the replayed memory subsystem.
    pub mem: MemStats,
    pub dram_requests: u64,
    /// Statistics of the replayed memo (`None` when the memo is off).
    pub memo: Option<MemoStats>,
    /// Statistics of the memo that answered during recording.
    pub recorded_memo: Option<MemoStats>,
}

/// Runs the depth-first pass over `pre` under `cfg` and replays it in
/// chunks; the replays are the `memsim.replay` and `memo.replay` spans.
pub fn record_and_replay<A: EcmApp>(
    pre: &Preprocessed,
    cfg: &GramerConfig,
    app: &A,
    tr: &mut Tracer,
    op: u64,
) -> Replayed {
    match cfg.memo {
        MemoMode::On { bytes } => {
            let probe = MemoLog {
                inner: PairMemoTable::with_budget(bytes),
                buf: Vec::new(),
            };
            pass(
                pre,
                cfg,
                app,
                probe,
                Some(PairMemoTable::with_budget(bytes)),
                tr,
                op,
            )
        }
        MemoMode::Off => pass(
            pre,
            cfg,
            app,
            MemoLog {
                inner: NoMemo,
                buf: Vec::new(),
            },
            None,
            tr,
            op,
        ),
    }
}

fn pass<A: EcmApp, M: MemoProbe>(
    pre: &Preprocessed,
    cfg: &GramerConfig,
    app: &A,
    mut memo: MemoLog<M>,
    mut memo_replay: Option<PairMemoTable>,
    tr: &mut Tracer,
    op: u64,
) -> Replayed {
    let graph = &pre.graph;
    assert!(
        (graph.num_vertices() as u64) < LOW_MASK && (graph.adjacency_len() as u64) < LOW_MASK,
        "ids must fit the packed trace"
    );
    let mut mem = subsystem(pre, cfg);
    let mut now = 0u64;
    let mut log = AccessLog {
        buf: Vec::with_capacity(CHUNK + 64),
    };
    let mut out = Replayed::default();
    let max = app.max_vertices();

    let mut flush =
        |log: &mut AccessLog, memo: &mut MemoLog<M>, tr: &mut Tracer, out: &mut Replayed| {
            if !log.buf.is_empty() {
                let open = tr.begin("memsim.replay", op);
                replay_accesses(&mut mem, &mut now, &log.buf);
                tr.end(open);
                out.accesses += log.buf.len() as u64;
                log.buf.clear();
            }
            if let Some(table) = memo_replay.as_mut() {
                if !memo.buf.is_empty() {
                    let open = tr.begin("memo.replay", op);
                    replay_memo(table, &memo.buf);
                    tr.end(open);
                    out.memo_ops += memo.buf.len() as u64;
                    memo.buf.clear();
                }
            }
        };

    for root in graph.vertices() {
        let mut ex = Explorer::with_probe(graph, &pre.probe, root);
        loop {
            let step = ex.step_memo(&mut log, &mut memo);
            out.steps += 1;
            match step {
                Step::Candidate => {
                    let emb = ex.embedding();
                    if app.filter(graph, emb) && emb.len() < max {
                        ex.descend();
                    } else {
                        ex.retract();
                    }
                }
                Step::Done => break,
                Step::Rejected | Step::Traceback => {}
            }
            if log.buf.len() >= CHUNK || memo.buf.len() >= CHUNK {
                flush(&mut log, &mut memo, tr, &mut out);
            }
        }
    }
    flush(&mut log, &mut memo, tr, &mut out);
    out.mem = mem.stats();
    out.dram_requests = mem.dram_requests();
    out.memo = memo_replay.map(|t| t.stats());
    out.recorded_memo = M::ACTIVE.then(|| memo.stats());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gramer::{preprocess, MemoryBudget, Simulator};
    use gramer_mining::apps::{CliqueFinding, MotifCounting};

    /// The replays time the memory and memo the simulator models: with one
    /// PU, one slot and no stealing they end with its statistics exactly.
    fn assert_faithful<A: EcmApp>(graph: &str, app: &A, budget: MemoryBudget, memo: MemoMode) {
        let g = gramer_graph::generate::named(graph).unwrap();
        let cfg = GramerConfig {
            num_pus: 1,
            slots_per_pu: 1,
            work_stealing: false,
            budget,
            memo,
            ..GramerConfig::default()
        };
        let pre = preprocess(&g, &cfg).unwrap();
        let sim = Simulator::new(&pre, cfg.clone()).unwrap().run(app).unwrap();
        let mut tr = Tracer::new(true, std::time::Instant::now());
        let rep = record_and_replay(&pre, &cfg, app, &mut tr, 0);
        let case = format!("{graph} {budget:?} {memo:?}");
        assert_eq!(rep.mem, sim.mem, "{case}");
        assert_eq!(rep.dram_requests, sim.dram_requests, "{case}");
        assert_eq!(rep.memo, sim.memo, "{case}");
        assert_eq!(rep.memo, rep.recorded_memo, "{case}");
        assert_eq!(rep.steps, sim.steps, "{case}");
        assert!(!tr.self_secs("memsim.replay").is_empty(), "{case}");
        assert_eq!(
            tr.self_secs("memo.replay").is_empty(),
            !memo.is_on(),
            "{case}"
        );
    }

    #[test]
    fn replays_reproduce_the_one_slot_simulator_exactly() {
        let cf4 = CliqueFinding::new(4).unwrap();
        let mc3 = MotifCounting::new(3).unwrap();
        let memo_on = MemoMode::On {
            bytes: gramer_mining::DEFAULT_MEMO_BYTES,
        };
        // A memo small enough to evict on these graphs.
        let memo_tiny = MemoMode::On { bytes: 4096 };
        for budget in [GramerConfig::default().budget, MemoryBudget::Fraction(0.1)] {
            for memo in [MemoMode::Off, memo_on, memo_tiny] {
                assert_faithful("golden-ba", &cf4, budget, memo);
                assert_faithful("golden-rmat", &mc3, budget, memo);
            }
        }
    }
}
