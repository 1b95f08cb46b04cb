use crate::json::JsonValue;
use gramer_memsim::{EnergyBreakdown, EnergyModel, KindStats, MemStats};
use gramer_mining::{MemoStats, MiningResult};

/// Everything a GRAMER simulation produces: the mining result plus the
/// architectural measurements every figure of the evaluation consumes.
#[derive(Debug)]
pub struct RunReport {
    /// Application name (e.g. `"5-CF"`).
    pub app: String,
    /// Total cycles until the last PU drained.
    pub cycles: u64,
    /// Execution time at the configured clock (`cycles / clock_hz`) — the
    /// Table III quantity.
    pub seconds: f64,
    /// Modeled preprocessing time (Fig. 11(b)'s "Preproc. Time").
    pub preprocess_seconds: f64,
    /// Modeled FPGA setup + host-to-card graph transfer time, which Table
    /// III's GRAMER numbers include (§VI-B).
    pub transfer_seconds: f64,
    /// The mining result (bit-identical to the software reference).
    pub result: MiningResult,
    /// On-chip memory statistics (Fig. 12(a)'s hit ratios).
    pub mem: MemStats,
    /// Off-chip requests issued.
    pub dram_requests: u64,
    /// Successful work steals (§V-C).
    pub steals: u64,
    /// Total pipeline steps issued across all PUs.
    pub steps: u64,
    /// Steps issued per PU (load-balance diagnostics).
    pub pu_steps: Vec<u64>,
    /// Cycle at which each PU performed its last work.
    pub pu_finish: Vec<u64>,
    /// Pair-memo counters when memoization was on (`None` under the
    /// bit-exact `--memo off` reference path).
    pub memo: Option<MemoStats>,
    /// λ ratchets performed by `--adaptive-lambda` (`None` when the
    /// autotuner was off).
    pub lambda_retunes: Option<u32>,
    /// Scratchpad re-pins performed by `--repin` (`None` when off).
    pub pin_epochs: Option<u32>,
    /// Candidate-filter counters of a query run (`None` on every
    /// unfiltered path, which must not have probed the filter at all).
    pub query: Option<QueryRunStats>,
}

/// Counters of a candidate-filtered query run (see
/// [`gramer_mining::query`]): the admission set the LDF → NLF → GQL
/// pipeline produced, and the modeled filter probes the run paid for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryRunStats {
    /// Data vertices in the union of the per-query-vertex candidate
    /// sets (what the explorer admits).
    pub admitted: u64,
    /// Filter probes charged (one per examined extension candidate).
    pub probes: u64,
    /// Probes that rejected the candidate, pruning its subtree.
    pub rejects: u64,
}

impl QueryRunStats {
    /// Fraction of probes that rejected their candidate.
    pub fn reject_ratio(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.rejects as f64 / self.probes as f64
        }
    }
}

impl RunReport {
    /// Ratio of the busiest PU's step count to the average — 1.0 is
    /// perfectly balanced.
    pub fn pu_imbalance(&self) -> f64 {
        if self.pu_steps.is_empty() || self.steps == 0 {
            return 1.0;
        }
        let max = self.pu_steps.iter().copied().max().unwrap_or(0) as f64;
        let avg = self.steps as f64 / self.pu_steps.len() as f64;
        max / avg
    }
}

impl RunReport {
    /// The Table III quantity: execution plus FPGA setup/transfer.
    pub fn wall_seconds(&self) -> f64 {
        self.seconds + self.transfer_seconds
    }

    /// Everything including CPU-side preprocessing (Fig. 11(b)'s total).
    pub fn total_seconds(&self) -> f64 {
        self.wall_seconds() + self.preprocess_seconds
    }

    /// Energy of this run under `model` (Fig. 11(a)). Memoized runs are
    /// additionally charged for every pair-memo probe, filtered query
    /// runs for every candidate-filter probe.
    pub fn energy(&self, model: &EnergyModel) -> EnergyBreakdown {
        model.accelerator_energy_full(
            self.seconds,
            &self.mem,
            self.dram_requests,
            self.memo.map_or(0, |s| s.lookups()),
            self.query.map_or(0, |q| q.probes),
        )
    }

    /// Combined on-chip hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        self.mem.on_chip_ratio()
    }

    /// Serializes every field of the report (plus the derived quantities
    /// the figures consume) into a [`JsonValue`] with a stable key order.
    ///
    /// This is the per-point payload of the sweep-runner's
    /// `results/BENCH_*.json` files; downstream tooling may rely on the
    /// key set, so additions are fine but renames are a schema break.
    ///
    /// The `memo`, `lambda_retunes`, `pin_epochs` and `query` keys
    /// appear only when the corresponding feature ran, so reports from
    /// default configurations serialize byte-for-byte as they always
    /// have.
    pub fn to_json_value(&self) -> JsonValue {
        let mut pairs = vec![
            ("app", JsonValue::from(self.app.as_str())),
            ("cycles", JsonValue::from(self.cycles)),
            ("seconds", JsonValue::from(self.seconds)),
            (
                "preprocess_seconds",
                JsonValue::from(self.preprocess_seconds),
            ),
            ("transfer_seconds", JsonValue::from(self.transfer_seconds)),
            ("wall_seconds", JsonValue::from(self.wall_seconds())),
            ("total_seconds", JsonValue::from(self.total_seconds())),
            ("mem", mem_to_json(&self.mem)),
            ("hit_ratio", JsonValue::from(self.hit_ratio())),
            ("dram_requests", JsonValue::from(self.dram_requests)),
            ("steals", JsonValue::from(self.steals)),
            ("steps", JsonValue::from(self.steps)),
            ("pu_imbalance", JsonValue::from(self.pu_imbalance())),
            (
                "pu_steps",
                JsonValue::array(self.pu_steps.iter().map(|&s| JsonValue::from(s))),
            ),
            (
                "pu_finish",
                JsonValue::array(self.pu_finish.iter().map(|&c| JsonValue::from(c))),
            ),
            (
                "result",
                JsonValue::object([
                    ("embeddings", JsonValue::from(self.result.embeddings)),
                    (
                        "candidates_examined",
                        JsonValue::from(self.result.candidates_examined),
                    ),
                    (
                        "accepted_by_size",
                        JsonValue::array(
                            self.result
                                .accepted_by_size
                                .iter()
                                .map(|&n| JsonValue::from(n)),
                        ),
                    ),
                    (
                        "candidates_by_size",
                        JsonValue::array(
                            self.result
                                .candidates_by_size
                                .iter()
                                .map(|&n| JsonValue::from(n)),
                        ),
                    ),
                ]),
            ),
        ];
        if let Some(m) = &self.memo {
            pairs.push((
                "memo",
                JsonValue::object([
                    ("hits", JsonValue::from(m.hits)),
                    ("misses", JsonValue::from(m.misses)),
                    ("evictions", JsonValue::from(m.evictions)),
                    ("hit_ratio", JsonValue::from(m.hit_ratio())),
                ]),
            ));
        }
        if let Some(n) = self.lambda_retunes {
            pairs.push(("lambda_retunes", JsonValue::from(u64::from(n))));
        }
        if let Some(n) = self.pin_epochs {
            pairs.push(("pin_epochs", JsonValue::from(u64::from(n))));
        }
        if let Some(q) = &self.query {
            pairs.push((
                "query",
                JsonValue::object([
                    ("admitted", JsonValue::from(q.admitted)),
                    ("probes", JsonValue::from(q.probes)),
                    ("rejects", JsonValue::from(q.rejects)),
                    ("reject_ratio", JsonValue::from(q.reject_ratio())),
                ]),
            ));
        }
        JsonValue::object(pairs)
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: {:.6} s ({} cycles), hit {:.2}%, {} embeddings, {} steals",
            self.app,
            self.seconds,
            self.cycles,
            100.0 * self.hit_ratio(),
            self.result.embeddings,
            self.steals
        )
    }
}

fn kind_to_json(k: &KindStats) -> JsonValue {
    JsonValue::object([
        ("high_priority_hits", JsonValue::from(k.high_priority_hits)),
        ("cache_hits", JsonValue::from(k.cache_hits)),
        ("misses", JsonValue::from(k.misses)),
        ("on_chip_ratio", JsonValue::from(k.on_chip_ratio())),
    ])
}

fn mem_to_json(mem: &MemStats) -> JsonValue {
    JsonValue::object([
        ("vertex", kind_to_json(&mem.vertex)),
        ("edge", kind_to_json(&mem.edge)),
        ("on_chip_ratio", JsonValue::from(mem.on_chip_ratio())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gramer_mining::{PatternCounts, PatternInterner};

    fn dummy() -> RunReport {
        RunReport {
            app: "3-CF".into(),
            cycles: 2_000_000,
            seconds: 0.01,
            preprocess_seconds: 0.002,
            transfer_seconds: 0.005,
            result: MiningResult {
                counts: PatternCounts::new(),
                interner: PatternInterner::new(),
                embeddings: 42,
                candidates_examined: 100,
                accepted_by_size: vec![0, 0, 30, 12],
                candidates_by_size: vec![0, 0, 45, 20],
            },
            mem: MemStats::default(),
            dram_requests: 7,
            steals: 3,
            steps: 1000,
            pu_steps: vec![300, 700],
            pu_finish: vec![900, 2_000_000],
            memo: None,
            lambda_retunes: None,
            pin_epochs: None,
            query: None,
        }
    }

    #[test]
    fn imbalance_ratio() {
        let r = dummy();
        assert!((r.pu_imbalance() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn totals_and_energy() {
        let r = dummy();
        assert!((r.wall_seconds() - 0.015).abs() < 1e-12);
        assert!((r.total_seconds() - 0.017).abs() < 1e-12);
        let e = r.energy(&EnergyModel::default());
        assert!(e.on_chip_j > 0.0);
    }

    #[test]
    fn summary_contains_key_fields() {
        let s = dummy().summary();
        assert!(s.contains("3-CF"));
        assert!(s.contains("42 embeddings"));
    }

    #[test]
    fn json_serialization_round_trips_key_fields() {
        let r = dummy();
        let v = r.to_json_value();
        let back = JsonValue::parse(&v.to_string()).expect("valid JSON");
        assert_eq!(back.get("app").and_then(JsonValue::as_str), Some("3-CF"));
        assert_eq!(
            back.get("cycles").and_then(JsonValue::as_u64),
            Some(2_000_000)
        );
        assert_eq!(
            back.get("result")
                .and_then(|res| res.get("embeddings"))
                .and_then(JsonValue::as_u64),
            Some(42)
        );
        assert_eq!(
            back.get("pu_steps")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(2)
        );
        // Derived quantities are included for plotting without recompute.
        let wall = back
            .get("wall_seconds")
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert!((wall - 0.015).abs() < 1e-12);
    }

    #[test]
    fn optional_keys_appear_only_when_features_ran() {
        let off = dummy().to_json_value();
        assert!(off.get("memo").is_none());
        assert!(off.get("lambda_retunes").is_none());
        assert!(off.get("pin_epochs").is_none());
        assert!(off.get("query").is_none());
        let mut r = dummy();
        r.memo = Some(MemoStats {
            hits: 9,
            misses: 3,
            evictions: 1,
        });
        r.lambda_retunes = Some(2);
        r.pin_epochs = Some(0);
        r.query = Some(QueryRunStats {
            admitted: 5,
            probes: 40,
            rejects: 30,
        });
        let on = r.to_json_value();
        assert_eq!(
            on.get("memo")
                .and_then(|m| m.get("hits"))
                .and_then(JsonValue::as_u64),
            Some(9)
        );
        assert_eq!(
            on.get("lambda_retunes").and_then(JsonValue::as_u64),
            Some(2)
        );
        assert_eq!(on.get("pin_epochs").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(
            on.get("query")
                .and_then(|q| q.get("probes"))
                .and_then(JsonValue::as_u64),
            Some(40)
        );
        // Memo and filter probes are charged in the energy model.
        let base = dummy().energy(&EnergyModel::default());
        let memo = r.energy(&EnergyModel::default());
        assert!(memo.memory_dynamic_j > base.memory_dynamic_j);
        let mut filtered = dummy();
        filtered.query = Some(QueryRunStats {
            admitted: 5,
            probes: 40,
            rejects: 30,
        });
        let filt = filtered.energy(&EnergyModel::default());
        assert!(filt.memory_dynamic_j > base.memory_dynamic_j);
    }
}
