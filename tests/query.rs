//! Query-matrix and filter-soundness tests.
//!
//! Three pinned labeled queries run over the labeled golden BA graph on
//! every leg of the matrix in `tests/common` (access path × memo). On
//! every leg:
//!
//! - the filtered run's full-size match total must equal the brute
//!   run's, and both must equal the pinned golden count;
//! - the filter's probe counters (admitted / probes / rejects) are
//!   pinned too — they count examined extensions, which every matrix
//!   leg produces identically (the same property the golden timing
//!   suite relies on);
//! - at the mining layer the exact embedding vertex-sets are compared,
//!   not just totals, against both the unfiltered enumerator and an
//!   independent candidate-join matcher.
//!
//! The property tests then hammer the same invariants over 64 random
//! labeled graphs × random connected queries each; every failure
//! message carries the case seed.

mod common;

use common::legs;
use gramer_suite::gramer::{preprocess, AppSpec, GramerConfig, Preprocessed, RunReport, Simulator};
use gramer_suite::gramer_graph::{generate, CsrGraph};
use gramer_suite::gramer_mining::query::{enumerate_matches, match_query};
use gramer_suite::gramer_mining::{CandidateFilter, CandidateSets, QueryApp, QueryGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The labeled golden graph: BA(200, 3) seed 11 — the same topology the
/// golden timing suite pins — with labels drawn from `1..=6`, seed 3.
fn labeled_ba() -> CsrGraph {
    generate::with_random_labels(&generate::barabasi_albert(200, 3, 11), 6, 3)
}

/// One pinned query: the compact spec plus the expected full-size match
/// total and filter counters. The counters count examined extensions,
/// which are identical across every matrix leg.
struct PinnedQuery {
    spec: &'static str,
    matches: u64,
    admitted: u64,
    probes: u64,
    rejects: u64,
}

const PINNED: &[PinnedQuery] = &[
    PinnedQuery {
        spec: "1,2,3:0-1,1-2",
        matches: 34,
        admitted: 29,
        probes: 1015,
        rejects: 653,
    },
    PinnedQuery {
        spec: "4,4:0-1",
        matches: 37,
        admitted: 32,
        probes: 237,
        rejects: 163,
    },
    PinnedQuery {
        spec: "1,2,1,3:0-1,1-2,2-3",
        matches: 11,
        admitted: 11,
        probes: 1274,
        rejects: 970,
    },
];

/// The filtered run every front end makes of a `query:` app.
fn run_query(pre: &Preprocessed, cfg: &GramerConfig, query: QueryGraph) -> RunReport {
    let app = AppSpec::Query(QueryApp::new(query).unwrap());
    app.run(pre, cfg.clone(), None).unwrap()
}

/// Sorted full-size embedding vertex-sets, deduplicated — the canonical
/// "what did we find" value for set-equality comparisons.
fn canonical(mut sets: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    sets.sort();
    sets.dedup();
    sets
}

#[test]
fn pinned_queries_hold_across_the_matrix() {
    let graph = labeled_ba();
    for leg in legs() {
        let cfg = leg.config();
        let pre = preprocess(&graph, &cfg).unwrap();
        for pq in PINNED {
            let what = format!("{leg} {}", pq.spec);
            let query = QueryGraph::from_spec(pq.spec).unwrap();
            let k = query.num_vertices();
            let app = QueryApp::new(query).unwrap();
            let sim = Simulator::new(&pre, cfg.clone()).unwrap();
            let brute = sim.run(&app).unwrap();
            let filtered = run_query(&pre, &cfg, query);
            assert_eq!(
                filtered.result.total_at(k),
                brute.result.total_at(k),
                "{what}: filtered diverged from brute"
            );
            // The event engine runs the filtered query exactly as the
            // heap-order reference does, given the same filter: candidates
            // over the reordered graph the simulator mines.
            let filter = CandidateFilter::new(&CandidateSets::build(&pre.graph, &query));
            let reference = sim.run_reference(&app, Some(filter)).unwrap();
            assert_eq!(
                filtered.to_json_value().to_string(),
                reference.to_json_value().to_string(),
                "{what}: filtered engine diverged from the heap-order reference"
            );
            assert_eq!(
                filtered.result.counts.sorted(),
                reference.result.counts.sorted(),
                "{what}: filtered engine diverged from the heap-order reference"
            );
            assert_eq!(
                filtered.result.total_at(k),
                pq.matches,
                "{what}: match total moved off the golden value"
            );
            assert!(brute.query.is_none(), "{what}: brute run grew query stats");
            let q = filtered.query.expect("filtered run must carry query stats");
            assert_eq!(
                (q.admitted, q.probes, q.rejects),
                (pq.admitted, pq.probes, pq.rejects),
                "{what}: filter counters moved off the golden values"
            );
        }
    }
}

#[test]
fn pinned_queries_filtered_embeddings_are_bit_identical() {
    // Mining-layer check on the reordered graph the simulator actually
    // mines: exact vertex-sets, three independent implementations. No
    // simulator runs here, and preprocessing reads neither the access
    // path nor the memo, so there is no leg to walk.
    let graph = labeled_ba();
    let pre = preprocess(&graph, &GramerConfig::default()).unwrap();
    for pq in PINNED {
        let query = QueryGraph::from_spec(pq.spec).unwrap();
        let app = QueryApp::new(query).unwrap();
        let candidates = CandidateSets::build(&pre.graph, &query);
        let mut filter = CandidateFilter::new(&candidates);
        let brute = canonical(enumerate_matches(&pre.graph, &app, None));
        let filtered = canonical(enumerate_matches(&pre.graph, &app, Some(&mut filter)));
        assert_eq!(filtered, brute, "{}: embedding sets differ", pq.spec);
        let joined = canonical(match_query(&pre.graph, &query, &candidates));
        assert_eq!(
            joined, brute,
            "{}: candidate-join reference differs",
            pq.spec
        );
    }
}

/// Cases per property (the suite convention — see `tests/properties.rs`).
const CASES: u64 = 64;

/// A connected random query over `nq` vertices with labels in
/// `1..=alphabet`: a random spanning tree plus a few extra edges.
fn random_connected_query(rng: &mut StdRng, alphabet: u16) -> QueryGraph {
    let nq = rng.gen_range(2usize..6);
    let labels: Vec<u16> = (0..nq).map(|_| rng.gen_range(1..=alphabet)).collect();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for v in 1..nq {
        edges.push((rng.gen_range(0..v), v));
    }
    for _ in 0..rng.gen_range(0usize..3) {
        let a = rng.gen_range(0..nq);
        let b = rng.gen_range(0..nq);
        if a != b && !edges.contains(&(a, b)) && !edges.contains(&(b, a)) {
            edges.push((a, b));
        }
    }
    QueryGraph::from_parts(&labels, &edges).expect("tree + extras is connected and in range")
}

/// A random labeled graph: BA or ER topology, labels from a small
/// alphabet so queries actually match sometimes.
fn random_labeled_graph(rng: &mut StdRng) -> CsrGraph {
    let n = rng.gen_range(20usize..120);
    let seed = rng.gen_range(0u64..1 << 20);
    let base = if rng.gen_bool(0.5) {
        generate::barabasi_albert(n, rng.gen_range(2usize..4), seed)
    } else {
        let m = rng.gen_range(n..4 * n);
        generate::erdos_renyi(n, m, seed)
    };
    let alphabet = rng.gen_range(1u16..5);
    generate::with_random_labels(&base, alphabet, seed ^ 0x9e37)
}

#[test]
fn prop_filtered_enumeration_equals_unfiltered() {
    for case in 0..CASES {
        let seed = 0xc0ffee ^ (case * 7919);
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = random_labeled_graph(&mut rng);
        let query = random_connected_query(&mut rng, 4);
        let app = QueryApp::new(query).expect("valid query");
        let candidates = CandidateSets::build(&graph, &query);
        let mut filter = CandidateFilter::new(&candidates);
        let brute = canonical(enumerate_matches(&graph, &app, None));
        let filtered = canonical(enumerate_matches(&graph, &app, Some(&mut filter)));
        assert_eq!(
            filtered, brute,
            "seed {seed}: filtered enumeration diverged for query {query}"
        );
        // Independent implementation: candidate-join backtracking over
        // the filter's own candidate sets.
        let joined = canonical(match_query(&graph, &query, &candidates));
        assert_eq!(
            joined, brute,
            "seed {seed}: candidate-join reference diverged for query {query}"
        );
    }
}

#[test]
fn prop_candidate_sets_cover_all_matched_vertices() {
    for case in 0..CASES {
        let seed = 0xf117e4 ^ (case * 104729);
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = random_labeled_graph(&mut rng);
        let query = random_connected_query(&mut rng, 4);
        let candidates = CandidateSets::build(&graph, &query);
        // Soundness: every vertex of every real match sits in the union,
        // and per-query-vertex images sit in that vertex's candidate set.
        let matches = match_query(&graph, &query, &candidates);
        for emb in &matches {
            for &v in emb {
                assert!(
                    candidates.union().contains(v),
                    "seed {seed}: match vertex {v} missing from candidate union"
                );
            }
        }
        // The filtered simulator path must agree end-to-end as well.
        let cfg = GramerConfig::default();
        let pre = preprocess(&graph, &cfg).unwrap();
        let app = QueryApp::new(query).expect("valid query");
        let brute = Simulator::new(&pre, cfg.clone())
            .unwrap()
            .run(&app)
            .unwrap();
        let filtered = run_query(&pre, &cfg, query);
        let k = query.num_vertices();
        assert_eq!(
            filtered.result.total_at(k),
            brute.result.total_at(k),
            "seed {seed}: simulator totals diverged for query {query}"
        );
    }
}
