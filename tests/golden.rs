//! Golden semantics snapshots for the simulator.
//!
//! These tests lock the *simulated* quantities — cycles, steals, steps,
//! embeddings, and the per-size accepted/candidate counts — for two
//! small seeded workloads, and on one of them the memory statistics of
//! the spill path. Engine or probe rewrites in the hot path
//! must not shift any of these numbers: a performance change that moves
//! a golden value is a semantics change, not an optimisation, and must
//! be called out explicitly (by updating the constant and explaining
//! why in the commit).
//!
//! Each test walks the matrix of `tests/common` in one process: both
//! access paths hold every constant bit-for-bit, and a memo-on leg
//! holds the mining results.

mod common;

use common::{legs, path_config, Leg, ACCESS_PATHS};
use gramer::{
    preprocess, AccessPath, GramerConfig, MemoMode, MemoryBudget, MemoryMode, RunReport, Simulator,
};
use gramer_graph::generate::{self, RmatParams};
use gramer_graph::CsrGraph;
use gramer_mining::apps::{CliqueFinding, MotifCounting};
use gramer_mining::EcmApp;

/// Renders every semantics-bearing field of a [`RunReport`] into one
/// comparable line. Wall-clock-derived fields are deliberately absent.
fn golden_summary(r: &RunReport) -> String {
    format!(
        "cycles={} steals={} steps={} dram={} embeddings={} candidates={} \
         accepted_by_size={:?} candidates_by_size={:?} pu_steps={:?}",
        r.cycles,
        r.steals,
        r.steps,
        r.dram_requests,
        r.result.embeddings,
        r.result.candidates_examined,
        r.result.accepted_by_size,
        r.result.candidates_by_size,
        r.pu_steps,
    )
}

fn run<A: EcmApp>(graph: &CsrGraph, app: &A, cfg: &GramerConfig) -> RunReport {
    let pre = preprocess(graph, cfg).unwrap();
    Simulator::new(&pre, cfg.clone()).unwrap().run(app).unwrap()
}

fn ba_graph() -> CsrGraph {
    generate::barabasi_albert(200, 3, 11)
}

fn rmat_graph() -> CsrGraph {
    generate::rmat(
        8,
        2_000,
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
        },
        7,
    )
}

/// BA(200,3) under 4-clique finding, default config.
const GOLDEN_BA_CF4: &str = "cycles=25565 steals=2507 steps=30891 dram=249 \
     embeddings=786 candidates=27416 accepted_by_size=[0, 0, 594, 174, 18] \
     candidates_by_size=[0, 0, 1188, 14330, 11898] \
     pu_steps=[11532, 8470, 2509, 2129, 1809, 1535, 1742, 1165]";

/// R-MAT(2^8, 2000 edges) under 3-motif counting, default config.
const GOLDEN_RMAT_MC3: &str = "cycles=48490 steals=6899 steps=92482 dram=444 \
     embeddings=34016 candidates=84066 accepted_by_size=[0, 0, 1261, 32755] \
     candidates_by_size=[0, 0, 2522, 81544] \
     pu_steps=[22897, 12808, 11697, 10478, 9735, 8921, 8850, 7096]";

/// Collapses runs of whitespace so the line-wrapped golden constants
/// compare as single-space-separated token streams.
fn normalized(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Asserts the mining-result fields of `r` match `golden` verbatim —
/// the memo-on golden check. Timing fields (cycles, steals, dram,
/// pu_steps) are memo-off quantities and deliberately not compared.
fn assert_golden_results(r: &RunReport, golden: &str, what: impl std::fmt::Display) {
    let results = format!(
        "embeddings={} candidates={} accepted_by_size={:?} candidates_by_size={:?}",
        r.result.embeddings,
        r.result.candidates_examined,
        r.result.accepted_by_size,
        r.result.candidates_by_size,
    );
    assert!(
        normalized(golden).contains(&normalized(&results)),
        "{what}: mining results diverged from the golden line:\n  got      {results}\n  expected within {golden}"
    );
}

/// Runs one golden workload on `leg`: with the memo off the full
/// timing-bearing golden line must hold byte-for-byte on either access
/// path; with it on the memo legitimately moves timing, so only the
/// mining results are pinned — and the table must actually get hits.
fn check_golden(report: &RunReport, leg: Leg, golden: &str) {
    if matches!(leg.memo, MemoMode::Off) {
        assert_eq!(golden_summary(report), golden, "{leg}");
    } else {
        assert_golden_results(report, golden, leg);
        assert!(
            report.memo.map_or(0, |s| s.hits) > 0,
            "{leg}: memo was on but never hit"
        );
    }
}

#[test]
fn golden_ba200_cf4() {
    for leg in legs() {
        let report = run(&ba_graph(), &CliqueFinding::new(4).unwrap(), &leg.config());
        check_golden(&report, leg, GOLDEN_BA_CF4);
    }
}

#[test]
fn golden_rmat_mc3() {
    for leg in legs() {
        let report = run(
            &rmat_graph(),
            &MotifCounting::new(3).unwrap(),
            &leg.config(),
        );
        check_golden(&report, leg, GOLDEN_RMAT_MC3);
    }
}

/// BA(200,3) x 4-CF at a 10% on-chip budget: the cache replacement
/// policy, the DRAM model and the pair memo do the work, as in the
/// paper's regime. Every cell sets its memo, so only the access path is
/// free.
fn spill_config(
    access_path: AccessPath,
    memory_mode: MemoryMode,
    memo: MemoMode,
    adaptive_lambda: bool,
) -> GramerConfig {
    GramerConfig {
        budget: MemoryBudget::Fraction(0.1),
        memory_mode,
        memo,
        adaptive_lambda,
        ..path_config(access_path)
    }
}

/// [`golden_summary`] plus the memory statistics, the memo counters and
/// the λ retunes: everything the spill path decides.
fn spill_summary(r: &RunReport) -> String {
    format!(
        "{} mem={:?} memo={:?} lambda_retunes={:?}",
        golden_summary(r),
        r.mem,
        r.memo,
        r.lambda_retunes
    )
}

/// Scratchpad + locality-preserved (Eq. 2) cache, memo off.
const GOLDEN_SPILL_LAMH: &str = "cycles=513704 steals=2347 steps=30731 dram=47417 \
     embeddings=786 candidates=27416 accepted_by_size=[0, 0, 594, 174, 18] \
     candidates_by_size=[0, 0, 1188, 14330, 11898] \
     pu_steps=[11494, 8370, 2507, 2127, 1787, 1544, 1733, 1169] \
     mem=MemStats { vertex: KindStats { high_priority_hits: 13076, cache_hits: 10887, misses: 13289 }, \
     edge: KindStats { high_priority_hits: 10327, cache_hits: 24395, misses: 34128 } } \
     memo=None lambda_retunes=None";

/// Scratchpad + LRU cache, memo off.
const GOLDEN_SPILL_STATIC_LRU: &str = "cycles=579222 steals=2402 steps=30786 dram=51018 \
     embeddings=786 candidates=27416 accepted_by_size=[0, 0, 594, 174, 18] \
     candidates_by_size=[0, 0, 1188, 14330, 11898] \
     pu_steps=[11468, 8435, 2509, 2123, 1806, 1550, 1729, 1166] \
     mem=MemStats { vertex: KindStats { high_priority_hits: 13125, cache_hits: 10293, misses: 13884 }, \
     edge: KindStats { high_priority_hits: 10327, cache_hits: 21389, misses: 37134 } } \
     memo=None lambda_retunes=None";

/// All-cache LRU (no scratchpad), memo off.
const GOLDEN_SPILL_UNIFORM_LRU: &str = "cycles=740338 steals=2504 steps=30888 dram=60399 \
     embeddings=786 candidates=27416 accepted_by_size=[0, 0, 594, 174, 18] \
     candidates_by_size=[0, 0, 1188, 14330, 11898] \
     pu_steps=[11564, 8444, 2498, 2124, 1810, 1547, 1738, 1163] \
     mem=MemStats { vertex: KindStats { high_priority_hits: 0, cache_hits: 20518, misses: 16879 }, \
     edge: KindStats { high_priority_hits: 0, cache_hits: 25330, misses: 43520 } } \
     memo=None lambda_retunes=None";

/// Locality-preserved cache with a 256-row memo and λ autotuning.
const GOLDEN_SPILL_LAMH_MEMO: &str = "cycles=511925 steals=2416 steps=30800 dram=47546 \
     embeddings=786 candidates=27416 accepted_by_size=[0, 0, 594, 174, 18] \
     candidates_by_size=[0, 0, 1188, 14330, 11898] \
     pu_steps=[11502, 8429, 2519, 2116, 1790, 1543, 1730, 1171] \
     mem=MemStats { vertex: KindStats { high_priority_hits: 9903, cache_hits: 9882, misses: 13477 }, \
     edge: KindStats { high_priority_hits: 8900, cache_hits: 17781, misses: 34069 } } \
     memo=Some(MemoStats { hits: 4050, misses: 16667, evictions: 16411 }) lambda_retunes=Some(20)";

#[test]
fn golden_ba200_cf4_spill() {
    let ba = ba_graph();
    let cf = CliqueFinding::new(4).unwrap();
    let cells = [
        (MemoryMode::Lamh, MemoMode::Off, false, GOLDEN_SPILL_LAMH),
        (
            MemoryMode::StaticLru,
            MemoMode::Off,
            false,
            GOLDEN_SPILL_STATIC_LRU,
        ),
        (
            MemoryMode::UniformLru,
            MemoMode::Off,
            false,
            GOLDEN_SPILL_UNIFORM_LRU,
        ),
        (
            MemoryMode::Lamh,
            MemoMode::On { bytes: 4096 },
            true,
            GOLDEN_SPILL_LAMH_MEMO,
        ),
    ];
    for path in ACCESS_PATHS {
        for (mode, memo, adaptive, golden) in cells {
            let report = run(&ba, &cf, &spill_config(path, mode, memo, adaptive));
            assert_eq!(
                spill_summary(&report),
                golden,
                "{path:?} {mode:?} memo={memo:?}"
            );
        }
    }
}

/// A small memo against its memo-off reference, on either access path:
/// memo-on mining results equal the memo-off golden lines, the table
/// gets hits on both workloads, and the memoized run never does more
/// memory work than the reference.
#[test]
fn golden_workloads_with_memo_on() {
    for access_path in ACCESS_PATHS {
        let off = path_config(access_path);
        let on = GramerConfig {
            memo: MemoMode::On { bytes: 1 << 16 },
            ..off.clone()
        };

        let ba = ba_graph();
        let cf = CliqueFinding::new(4).unwrap();
        let base = run(&ba, &cf, &off);
        let memo = run(&ba, &cf, &on);
        let what = format!("{access_path:?} BA x CF4");
        assert_golden_results(&memo, GOLDEN_BA_CF4, &what);
        assert!(memo.memo.map_or(0, |s| s.hits) > 0, "{what}: no hits");
        assert!(memo.mem.total() <= base.mem.total(), "{what}: more work");

        let rmat = rmat_graph();
        let mc = MotifCounting::new(3).unwrap();
        let base = run(&rmat, &mc, &off);
        let memo = run(&rmat, &mc, &on);
        let what = format!("{access_path:?} RMAT x MC3");
        assert_golden_results(&memo, GOLDEN_RMAT_MC3, &what);
        assert!(memo.memo.map_or(0, |s| s.hits) > 0, "{what}: no hits");
        assert!(memo.mem.total() <= base.mem.total(), "{what}: more work");
    }
}

/// Everything simulated in a [`RunReport`], including the memory-side
/// statistics and per-PU finish times that `golden_summary` leaves out.
/// Only wall-clock-derived fields (`preprocess_seconds`) are excluded.
fn full_semantic_view(r: &RunReport) -> String {
    format!(
        "{} pu_finish={:?} mem={:?} counts={:?} transfer_seconds={}",
        golden_summary(r),
        r.pu_finish,
        r.mem,
        r.result.counts,
        r.transfer_seconds,
    )
}

/// Runs `app` starting from a `.gra` artifact round-trip of the
/// preprocessed graph instead of the direct [`preprocess`] result.
fn run_via_artifact<A: EcmApp>(graph: &CsrGraph, app: &A, cfg: &GramerConfig) -> RunReport {
    let pre = preprocess(graph, cfg).unwrap();
    let bytes = gramer_graph::artifact::encode(&pre.artifact_contents(0)).unwrap();
    let art = gramer_graph::GraphArtifact::from_bytes(bytes).unwrap();
    let pre = gramer::Preprocessed::from_artifact(&art, cfg).unwrap();
    Simulator::new(&pre, cfg.clone()).unwrap().run(app).unwrap()
}

/// The `.gra` artifact path must be invisible in the results: a run
/// resumed from an artifact produces a [`RunReport`] whose serialized
/// JSON is byte-identical to the edge-list path's, on both golden
/// workloads and every leg.
#[test]
fn artifact_path_reports_are_bit_identical() {
    for leg in legs() {
        let cfg = leg.config();

        let ba = ba_graph();
        let cf = CliqueFinding::new(4).unwrap();
        assert_eq!(
            run(&ba, &cf, &cfg).to_json_value().to_string(),
            run_via_artifact(&ba, &cf, &cfg).to_json_value().to_string(),
            "{leg} BA(200,3) x CF(4): artifact path diverged from edge-list path"
        );

        let rmat = rmat_graph();
        let mc = MotifCounting::new(3).unwrap();
        assert_eq!(
            run(&rmat, &mc, &cfg).to_json_value().to_string(),
            run_via_artifact(&rmat, &mc, &cfg)
                .to_json_value()
                .to_string(),
            "{leg} R-MAT(2^8) x MC(3): artifact path diverged from edge-list path"
        );
    }
}

/// The event engine must execute the golden workloads exactly as the
/// heap-order reference does ([`Simulator::run_reference`]): identical
/// serialized reports and identical memory-side statistics, on every
/// leg. (The randomized flavour is `epoch_matches_interleaved` in
/// `tests/properties.rs`.)
#[test]
fn epoch_engine_matches_interleaved_on_golden_workloads() {
    fn check<A: EcmApp>(graph: &CsrGraph, app: &A, leg: Leg, workload: &str) {
        let what = format!("{leg} {workload}");
        let cfg = leg.config();
        let pre = preprocess(graph, &cfg).unwrap();
        let sim = Simulator::new(&pre, cfg).unwrap();
        let engine = sim.run(app).unwrap();
        let reference = sim.run_reference(app, None).unwrap();
        assert_eq!(
            engine.to_json_value().to_string(),
            reference.to_json_value().to_string(),
            "{what}: engine diverged from the heap-order reference"
        );
        assert_eq!(
            full_semantic_view(&engine),
            full_semantic_view(&reference),
            "{what}: engine diverged from the heap-order reference"
        );
    }
    for leg in legs() {
        check(
            &ba_graph(),
            &CliqueFinding::new(4).unwrap(),
            leg,
            "BA(200,3) x CF(4)",
        );
        check(
            &rmat_graph(),
            &MotifCounting::new(3).unwrap(),
            leg,
            "R-MAT(2^8) x MC(3)",
        );
    }
}

/// Running the two golden workloads as independent cells on a sharded
/// pool (4 threads) must yield byte-identical serialized reports, in the
/// same order, as the serial 1-thread path — host parallelism across
/// cells never touches a simulated quantity, and result order is cell
/// order by construction (see `gramer::shard`).
#[test]
fn sharded_cells_reports_are_bit_identical_to_serial() {
    let run_matrix = |cfg: &GramerConfig, threads: usize| -> Vec<String> {
        let cells: Vec<Box<dyn FnOnce() -> String + Send>> = vec![
            Box::new({
                let cfg = cfg.clone();
                move || {
                    run(&ba_graph(), &CliqueFinding::new(4).unwrap(), &cfg)
                        .to_json_value()
                        .to_string()
                }
            }),
            Box::new({
                let cfg = cfg.clone();
                move || {
                    run(&rmat_graph(), &MotifCounting::new(3).unwrap(), &cfg)
                        .to_json_value()
                        .to_string()
                }
            }),
        ];
        gramer::shard::run_cells(threads, cells)
    };
    for leg in legs() {
        let serial = run_matrix(&leg.config(), 1);
        let sharded = run_matrix(&leg.config(), 4);
        assert_eq!(
            serial, sharded,
            "{leg}: 4 threads diverged from 1 thread on the golden cells"
        );
        assert_eq!(serial.len(), 2);
    }
}

/// The two-lane fast access engine is the default; `AccessPath::Exact`
/// keeps the reference port/FIFO machinery. On both golden workloads,
/// with the memo off and on, the two must produce *identical* reports
/// down to every memory statistic — the fast lanes are a host-side
/// optimisation, not a model change.
#[test]
fn exact_access_path_matches_fast_on_golden_workloads() {
    assert_eq!(GramerConfig::default().access_path, AccessPath::Fast);
    for leg in legs().filter(|leg| leg.access_path == AccessPath::Fast) {
        let memo = leg.memo;
        let fast_cfg = leg.config();
        let exact_cfg = GramerConfig {
            access_path: AccessPath::Exact,
            ..fast_cfg.clone()
        };

        let ba = ba_graph();
        let cf = CliqueFinding::new(4).unwrap();
        assert_eq!(
            full_semantic_view(&run(&ba, &cf, &fast_cfg)),
            full_semantic_view(&run(&ba, &cf, &exact_cfg)),
            "{memo:?} BA(200,3) x CF(4): fast and exact access paths diverged"
        );

        let rmat = rmat_graph();
        let mc = MotifCounting::new(3).unwrap();
        assert_eq!(
            full_semantic_view(&run(&rmat, &mc, &fast_cfg)),
            full_semantic_view(&run(&rmat, &mc, &exact_cfg)),
            "{memo:?} R-MAT(2^8) x MC(3): fast and exact access paths diverged"
        );
    }
}
