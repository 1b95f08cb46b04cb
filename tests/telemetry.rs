//! Telemetry-layer invariants (PR 5 tentpole).
//!
//! Two guarantees are locked here:
//!
//! 1. **Observation is free of side effects** — running with a recording
//!    [`Telemetry`] sink produces a [`RunReport`] bit-identical to an
//!    unobserved run, on every golden workload.
//! 2. **The telemetry document is simulated data** — for a fixed seeded
//!    workload, the JSON document (minus its explicitly host-side
//!    `"host"` section) is byte-stable across the host-side access-path
//!    choice, exactly like the golden run reports. Every test here walks
//!    both access paths (`tests/common`) in one process.
//!
//! As with `tests/golden.rs`: if a simulator change moves the pinned
//! digest, that is a semantics change and the constant must be updated
//! with an explanation in the commit.

mod common;

use common::{path_config, ACCESS_PATHS};
use gramer::json::JsonValue;
use gramer::telemetry::{Telemetry, TelemetryConfig};
use gramer::{preprocess, AppSpec, GramerConfig, RunReport, Simulator};
use gramer_graph::generate::{self, RmatParams};
use gramer_graph::CsrGraph;
use gramer_memsim::DramConfig;
use gramer_mining::apps::{CliqueFinding, MotifCounting};
use gramer_mining::EcmApp;

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

fn run_both<A: EcmApp>(
    graph: &CsrGraph,
    app: &A,
    cfg: &GramerConfig,
) -> (RunReport, RunReport, Telemetry) {
    let pre = preprocess(graph, cfg).unwrap();
    let sim = Simulator::new(&pre, cfg.clone()).unwrap();
    let plain = sim.run(app).unwrap();
    let mut tel = Telemetry::new(TelemetryConfig::default());
    let observed = sim.run_telemetry(app, &mut tel).unwrap();
    (plain, observed, tel)
}

/// Every simulated quantity of a report, as one comparable string
/// (wall-clock-derived fields excluded — they are host-side).
fn semantic_view(r: &RunReport) -> String {
    format!(
        "cycles={} steals={} steps={} dram={} embeddings={} candidates={} \
         accepted_by_size={:?} candidates_by_size={:?} pu_steps={:?} pu_finish={:?} \
         mem={:?} counts={:?}",
        r.cycles,
        r.steals,
        r.steps,
        r.dram_requests,
        r.result.embeddings,
        r.result.candidates_examined,
        r.result.accepted_by_size,
        r.result.candidates_by_size,
        r.pu_steps,
        r.pu_finish,
        r.mem,
        r.result.counts,
    )
}

/// Recording telemetry must not change any simulated quantity, under
/// either access path.
#[test]
fn telemetry_never_perturbs_the_simulation() {
    for path in ACCESS_PATHS {
        let cfg = path_config(path);

        let (plain, observed, _) = run_both(&ba_graph(), &CliqueFinding::new(4).unwrap(), &cfg);
        assert_eq!(
            semantic_view(&plain),
            semantic_view(&observed),
            "{path:?} BA(200,3) x CF(4): telemetry perturbed the simulation"
        );

        let (plain, observed, _) = run_both(&rmat_graph(), &MotifCounting::new(3).unwrap(), &cfg);
        assert_eq!(
            semantic_view(&plain),
            semantic_view(&observed),
            "{path:?} R-MAT(2^8) x MC(3): telemetry perturbed the simulation"
        );

        // A labeled query runs candidate-filtered; `AppSpec::run` is the
        // one place that pairs its filter with a recording sink.
        let labeled = generate::with_random_labels(&ba_graph(), 6, 3);
        let pre = preprocess(&labeled, &cfg).unwrap();
        let app: AppSpec = "query:1,2,3:0-1,1-2".parse().unwrap();
        let plain = app.run(&pre, cfg.clone(), None).unwrap();
        let mut tel = Telemetry::new(TelemetryConfig::default());
        let observed = app.run(&pre, cfg.clone(), Some(&mut tel)).unwrap();
        assert!(
            plain.query.is_some(),
            "{path:?}: a query run reports its filter"
        );
        let what = format!(
            "{path:?} labeled BA(200,3) x query: telemetry perturbed the filtered simulation"
        );
        assert_eq!(
            plain.to_json_value().to_string(),
            observed.to_json_value().to_string(),
            "{what}"
        );
        assert_eq!(semantic_view(&plain), semantic_view(&observed), "{what}");
    }
}

/// Removes the top-level `"host"` section — the only part of the
/// document that is allowed to depend on host-side choices (fast-lane
/// tallies vary with `--access-path`).
fn strip_host(doc: JsonValue) -> JsonValue {
    match doc {
        JsonValue::Object(pairs) => {
            JsonValue::Object(pairs.into_iter().filter(|(k, _)| k != "host").collect())
        }
        other => other,
    }
}

/// FNV-1a, so the golden constant stays one line instead of a full
/// multi-kilobyte document dump.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Digest of the simulated portion of the telemetry document for
/// BA(200,3) × CF(4) at the default window width. Must hold under both
/// access paths.
///
/// Updated for schema v2 (PR 9): the document gained the memo counters
/// (`memo_hits`/`memo_misses`/`memo_evictions`), the adaptive-policy
/// counters (`lambda_retunes`/`repins`) and the `lambda_last`/
/// `pin_epochs` gauges. This run uses the default config (memo off,
/// autotuning off), so every new field is zero — the simulated
/// quantities themselves are unchanged, as the untouched
/// cycles/steps/dram spot constants below prove.
///
/// Updated for schema v3: every window and the totals gained
/// `filter_probes`/`filter_rejects`, both zero on this unfiltered run;
/// the previous digest, 10654693259273357294, hashed the same document
/// without them and with `schema_version` 2.
const GOLDEN_BA_CF4_TELEMETRY_FNV: u64 = 13022392756654227143;
/// Spot constants guarding the digest against blind updates: they tie
/// the document to the `tests/golden.rs` numbers for the same workload.
const GOLDEN_BA_CF4_CYCLES: u64 = 25565;
const GOLDEN_BA_CF4_STEPS: u64 = 30891;
const GOLDEN_BA_CF4_DRAM: u64 = 249;

#[test]
fn telemetry_document_is_byte_stable_across_host_choices() {
    for path in ACCESS_PATHS {
        let (_, observed, tel) = run_both(
            &ba_graph(),
            &CliqueFinding::new(4).unwrap(),
            &path_config(path),
        );
        let doc = strip_host(tel.to_json_value());
        let text = doc.to_string_pretty();

        // The document and the report agree on the headline quantities.
        assert_eq!(
            doc.get("cycles").and_then(JsonValue::as_u64),
            Some(GOLDEN_BA_CF4_CYCLES),
            "{path:?}"
        );
        assert_eq!(observed.cycles, GOLDEN_BA_CF4_CYCLES, "{path:?}");
        let totals = doc.get("totals").expect("document has totals");
        assert_eq!(
            totals.get("steps").and_then(JsonValue::as_u64),
            Some(GOLDEN_BA_CF4_STEPS),
            "{path:?}"
        );
        assert_eq!(
            totals.get("dram_requests").and_then(JsonValue::as_u64),
            Some(GOLDEN_BA_CF4_DRAM),
            "{path:?}"
        );
        assert_eq!(
            doc.get("schema_version").and_then(JsonValue::as_u64),
            Some(3),
            "{path:?}"
        );
        assert!(
            doc.get("host").is_none(),
            "{path:?}: host section must be stripped before hashing"
        );

        // The serialized document itself round-trips and is byte-stable.
        assert_eq!(JsonValue::parse(&text).unwrap(), doc, "{path:?}");
        assert_eq!(
            fnv1a(text.as_bytes()),
            GOLDEN_BA_CF4_TELEMETRY_FNV,
            "{path:?}: telemetry document drifted; if the simulator semantics \
             legitimately changed, update the digest and say why"
        );
    }
}

/// Sums a per-window counter over a telemetry document's windows.
fn window_sum(windows: &[JsonValue], key: &str) -> u64 {
    windows
        .iter()
        .filter_map(|w| w.get(key).and_then(JsonValue::as_u64))
        .sum()
}

/// Sums a per-PU array counter over a telemetry document's windows.
fn window_pu_sum(windows: &[JsonValue], key: &str) -> u64 {
    windows
        .iter()
        .filter_map(|w| match w.get(key) {
            Some(JsonValue::Array(a)) => Some(a.iter().filter_map(JsonValue::as_u64).sum::<u64>()),
            _ => None,
        })
        .sum()
}

/// The windows of a telemetry document.
fn windows_of(doc: &JsonValue) -> Vec<JsonValue> {
    match doc.get("windows") {
        Some(JsonValue::Array(w)) => w.clone(),
        other => panic!("windows missing: {other:?}"),
    }
}

/// The full document (host section included) must at least be
/// self-consistent: window sums equal the run totals.
#[test]
fn telemetry_windows_sum_to_totals() {
    for path in ACCESS_PATHS {
        let (_, observed, tel) = run_both(
            &ba_graph(),
            &CliqueFinding::new(4).unwrap(),
            &path_config(path),
        );
        let doc = tel.to_json_value();
        let windows = windows_of(&doc);
        let sum = |key: &str| window_sum(&windows, key);
        assert_eq!(
            window_pu_sum(&windows, "pu_steps"),
            observed.steps,
            "{path:?}"
        );
        assert_eq!(sum("steals"), observed.steals, "{path:?}");
        assert_eq!(sum("dram_requests"), observed.dram_requests, "{path:?}");
        assert_eq!(
            sum("candidates") + sum("rejected"),
            observed.result.candidates_examined,
            "{path:?}"
        );
        let totals = doc.get("totals").unwrap();
        assert_eq!(
            totals.get("steps").and_then(JsonValue::as_u64),
            Some(observed.steps),
            "{path:?}"
        );
        assert_eq!(
            totals.get("steals").and_then(JsonValue::as_u64),
            Some(observed.steals),
            "{path:?}"
        );
    }
}

/// A candidate-filtered query run counts every filter probe: the
/// document's totals equal the report's `query` block, and the windows
/// sum to the totals.
#[test]
fn telemetry_counts_every_filter_probe() {
    for path in ACCESS_PATHS {
        let cfg = path_config(path);
        let labeled = generate::with_random_labels(&ba_graph(), 6, 3);
        let pre = preprocess(&labeled, &cfg).unwrap();
        let app: AppSpec = "query:1,2,3:0-1,1-2".parse().unwrap();
        // Narrow windows, so the short run spans several of them.
        let mut tel = Telemetry::new(TelemetryConfig {
            window_cycles: 32,
            ..TelemetryConfig::default()
        });
        let report = app.run(&pre, cfg, Some(&mut tel)).unwrap();
        let query = report.query.expect("a query run reports its filter");
        assert!(query.probes > 0 && query.rejects > 0, "{path:?}: {query:?}");

        let doc = tel.to_json_value();
        let totals = doc.get("totals").expect("document has totals");
        let total = |key: &str| totals.get(key).and_then(JsonValue::as_u64);
        assert_eq!(total("filter_probes"), Some(query.probes), "{path:?}");
        assert_eq!(total("filter_rejects"), Some(query.rejects), "{path:?}");
        let windows = windows_of(&doc);
        assert!(
            windows.len() > 1,
            "{path:?}: the run should span several windows"
        );
        for key in ["filter_probes", "filter_rejects"] {
            let sum: u64 = windows
                .iter()
                .map(|w| w.get(key).and_then(JsonValue::as_u64).expect(key))
                .sum();
            assert_eq!(Some(sum), total(key), "{path:?} {key}");
        }
    }
}

/// The same sums-to-totals invariant under a window configuration small
/// enough to force coalescing mid-run. Regression test: the close-time
/// sampling in `advance_to` used to *assign* the cumulative-counter
/// deltas, silently dropping whatever a coalesce had merged into the
/// open window, so windowed dram/mem/eviction sums undercounted the run
/// totals on any run long enough to coalesce.
#[test]
fn telemetry_windows_sum_to_totals_with_coalescing() {
    for path in ACCESS_PATHS {
        let cfg = path_config(path);
        let pre = preprocess(&ba_graph(), &cfg).unwrap();
        let sim = Simulator::new(&pre, cfg).unwrap();
        let app = CliqueFinding::new(4).unwrap();
        let mut tel = Telemetry::new(TelemetryConfig {
            window_cycles: 64,
            max_windows: 8,
        });
        let observed = sim.run_telemetry(&app, &mut tel).unwrap();
        assert!(
            tel.coalesce_count() > 0,
            "{path:?}: config must force coalescing for this test to bite"
        );

        let doc = tel.to_json_value();
        let windows = windows_of(&doc);
        let sum = |key: &str| window_sum(&windows, key);
        let kind_sum = |kind: &str, field: &str| -> u64 {
            windows
                .iter()
                .filter_map(|w| {
                    w.get(kind)
                        .and_then(|k| k.get(field))
                        .and_then(JsonValue::as_u64)
                })
                .sum()
        };

        assert_eq!(
            window_pu_sum(&windows, "pu_steps"),
            observed.steps,
            "{path:?}"
        );
        assert_eq!(sum("steals"), observed.steals, "{path:?}");
        assert_eq!(sum("dram_requests"), observed.dram_requests, "{path:?}");
        let (vertex, edge) = (observed.mem.vertex, observed.mem.edge);
        for (kind, stats) in [("vertex", vertex), ("edge", edge)] {
            assert_eq!(
                kind_sum(kind, "high_priority_hits"),
                stats.high_priority_hits,
                "{path:?} {kind}"
            );
            assert_eq!(
                kind_sum(kind, "cache_hits"),
                stats.cache_hits,
                "{path:?} {kind}"
            );
            assert_eq!(kind_sum(kind, "misses"), stats.misses, "{path:?} {kind}");
        }

        // The totals section agrees with the report too.
        let totals = doc.get("totals").unwrap();
        assert_eq!(
            totals.get("dram_requests").and_then(JsonValue::as_u64),
            Some(observed.dram_requests),
            "{path:?}"
        );
        assert_eq!(
            totals
                .get("vertex")
                .and_then(|v| v.get("misses"))
                .and_then(JsonValue::as_u64),
            Some(observed.mem.vertex.misses),
            "{path:?}"
        );
    }
}

/// Schema v2: a memoized run's probes land in the telemetry document
/// (per-window counters summing to the totals, totals agreeing with the
/// run report) and never perturb the simulation relative to an
/// unobserved memoized run. The memo is pinned; the access path walks.
#[test]
fn telemetry_records_memo_counters() {
    for path in ACCESS_PATHS {
        let cfg = GramerConfig {
            memo: gramer::MemoMode::On { bytes: 1 << 16 },
            ..path_config(path)
        };
        let (plain, observed, tel) = run_both(&ba_graph(), &CliqueFinding::new(4).unwrap(), &cfg);
        assert_eq!(
            semantic_view(&plain),
            semantic_view(&observed),
            "{path:?}: telemetry perturbed the memoized simulation"
        );
        let stats = observed.memo.expect("memoized run must report memo stats");
        assert!(stats.hits > 0, "{path:?}: workload never hit the memo");

        let doc = tel.to_json_value();
        let totals = doc.get("totals").expect("document has totals");
        let total = |key: &str| totals.get(key).and_then(JsonValue::as_u64);
        assert_eq!(total("memo_hits"), Some(stats.hits), "{path:?}");
        assert_eq!(total("memo_misses"), Some(stats.misses), "{path:?}");
        assert_eq!(total("memo_evictions"), Some(stats.evictions), "{path:?}");
        let windows = windows_of(&doc);
        assert_eq!(window_sum(&windows, "memo_hits"), stats.hits, "{path:?}");
        assert_eq!(
            window_sum(&windows, "memo_misses"),
            stats.misses,
            "{path:?}"
        );
    }
}

/// The host section reports the event calendar's far-heap pushes: none
/// on the golden workload, whose gaps fit the calendar's near window,
/// and some once DRAM round trips on one channel outlast it.
#[test]
fn telemetry_reports_calendar_far_pushes() {
    let far_pushes = |cfg: &GramerConfig| {
        let (_, _, tel) = run_both(&ba_graph(), &CliqueFinding::new(4).unwrap(), cfg);
        tel.to_json_value()
            .get("host")
            .and_then(|h| h.get("calendar_far_pushes"))
            .and_then(JsonValue::as_u64)
            .expect("host.calendar_far_pushes missing")
    };
    for path in ACCESS_PATHS {
        assert_eq!(far_pushes(&path_config(path)), 0, "{path:?}");
        let slow_dram = GramerConfig {
            dram: DramConfig {
                channels: 1,
                latency_cycles: 10_000,
                occupancy_cycles: 4,
            },
            ..path_config(path)
        };
        assert!(far_pushes(&slow_dram) > 0, "{path:?}");
    }
}
