//! Shared in-memory session cache: preprocessed graphs, and the
//! finished outputs of the jobs run over them.
//!
//! Every job needs a [`Preprocessed`] (CSR + priority permutation +
//! probe table), and preprocessing dominates small-job latency. The
//! daemon therefore keeps recently used preprocessed graphs in memory,
//! shared between workers as `Arc<Preprocessed>` and keyed exactly like
//! the on-disk [`gramer::PreprocessCache`]: a digest of the graph's
//! source bytes combined with the preprocessing-relevant config knobs.
//! Two jobs with the same graph and the same tau/budget share one entry
//! even if their simulator knobs (PU count, latency model) differ.
//!
//! Each entry also stores the outputs of the jobs that finished over its
//! graph, because a report is a pure function of (graph, app, config): a
//! repeated job is answered from its stored output instead of being
//! simulated again. Inside the entry an output matches on an
//! `OutputKey`: the app string, the whole effective [`GramerConfig`]
//! (compared with `==`) and the metrics flag. The deadline is not part
//! of the key: it only decides whether a run times out, and an output
//! is stored only from a run that finished. An output is the compact
//! JSON text of the report, plus the telemetry rollup's when metrics
//! were on; a hit parses it back, which reproduces the served bytes
//! exactly (the journal's restart path relies on the same round trip).
//! Failed, panicked and timed-out runs store nothing.
//!
//! Eviction is LRU by byte footprint: an entry is charged its
//! [`Preprocessed::footprint_bytes`] estimate plus the text length of
//! each stored output, and the least recently used entries are dropped,
//! outputs and all, until the cache fits its budget. A single oversized
//! graph is still admitted (the budget bounds *retained* entries, not
//! one job's working set), but an output that would take its entry past
//! the whole budget is not stored.
//!
//! Fault containment: a build failure is never cached — the lock is
//! released while building, and only successful builds are inserted, so
//! one poisoned graph file cannot wedge the cache for other jobs.

use gramer::json::JsonValue;
use gramer::{GramerConfig, Preprocessed};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Counters exposed on `/stats` (all monotonic except the resident
/// figures).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Lookups served from memory.
    pub hits: u64,
    /// Lookups that had to build (or wait for) the entry.
    pub misses: u64,
    /// Entries dropped to fit the byte budget.
    pub evictions: u64,
    /// Bytes currently retained, stored outputs included.
    pub resident_bytes: u64,
    /// Entries currently retained.
    pub entries: u64,
    /// Jobs answered from a stored output.
    pub report_hits: u64,
    /// Stored outputs currently retained.
    pub reports: u64,
}

/// What a stored output matches on inside its graph's entry.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OutputKey {
    /// The job's application spec, as [`crate::JobSpec::app`] holds it.
    pub(crate) app: String,
    /// The job's whole effective configuration.
    pub(crate) config: GramerConfig,
    /// Whether the job records the telemetry rollup.
    pub(crate) metrics: bool,
}

/// A finished job's output, as compact JSON text.
struct Output {
    key: OutputKey,
    report: String,
    metrics: Option<String>,
}

struct Entry {
    pre: Arc<Preprocessed>,
    /// The graph's footprint plus its outputs' text.
    bytes: u64,
    last_used: u64,
    outputs: Vec<Arc<Output>>,
}

struct Inner {
    entries: HashMap<u64, Entry>,
    clock: u64,
    stats: SessionStats,
}

/// A thread-safe LRU cache of `Arc<Preprocessed>` keyed like
/// [`gramer::PreprocessCache`], each entry with the finished outputs of
/// its graph's jobs.
pub struct SessionCache {
    budget_bytes: u64,
    inner: Mutex<Inner>,
}

impl SessionCache {
    /// A cache retaining at most `budget_bytes` of preprocessed state
    /// and stored outputs.
    pub fn new(budget_bytes: u64) -> SessionCache {
        SessionCache {
            budget_bytes,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                clock: 0,
                stats: SessionStats::default(),
            }),
        }
    }

    /// The cache key for a graph whose source bytes hash to
    /// `source_digest`, preprocessed under `config`.
    pub fn key(source_digest: u64, config: &GramerConfig) -> u64 {
        gramer::PreprocessCache::bytes_key(source_digest, config)
    }

    /// Looks up `key`, or builds the entry with `build` on miss.
    ///
    /// The lock is *not* held while building, so a slow preprocess stalls
    /// only jobs that need the same graph; concurrent builders of the
    /// same key race benignly and the first finished insert wins.
    ///
    /// Returns the shared entry and whether it was a warm hit.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns; nothing is cached on error.
    pub fn get_or_build<E>(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<Preprocessed, E>,
    ) -> Result<(Arc<Preprocessed>, bool), E> {
        {
            let mut inner = self.lock();
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(entry) = inner.entries.get_mut(&key) {
                entry.last_used = clock;
                let pre = Arc::clone(&entry.pre);
                inner.stats.hits += 1;
                return Ok((pre, true));
            }
            inner.stats.misses += 1;
        }
        let built = Arc::new(build()?);
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(entry) = inner.entries.get_mut(&key) {
            // A concurrent builder got here first; adopt its entry and
            // drop ours (both are deterministic, so they are equal).
            entry.last_used = clock;
            return Ok((Arc::clone(&entry.pre), false));
        }
        let bytes = built.footprint_bytes() as u64;
        inner.entries.insert(
            key,
            Entry {
                pre: Arc::clone(&built),
                bytes,
                last_used: clock,
                outputs: Vec::new(),
            },
        );
        inner.stats.resident_bytes += bytes;
        inner.stats.entries += 1;
        self.evict_to_budget(&mut inner, key);
        Ok((built, false))
    }

    /// The stored output matching `job` in entry `key`: the report and,
    /// when metrics were on, the telemetry rollup, parsed back from their
    /// text outside the lock. A hit counts in
    /// [`SessionStats::report_hits`].
    pub(crate) fn output(
        &self,
        key: u64,
        job: &OutputKey,
    ) -> Option<(JsonValue, Option<JsonValue>)> {
        let stored = {
            let inner = self.lock();
            let entry = inner.entries.get(&key)?;
            Arc::clone(entry.outputs.iter().find(|out| out.key == *job)?)
        };
        let report = JsonValue::parse(&stored.report).ok()?;
        let metrics = stored.metrics.as_deref().map(JsonValue::parse);
        let metrics = metrics.transpose().ok()?;
        self.lock().stats.report_hits += 1;
        Some((report, metrics))
    }

    /// Stores the output of a finished run of `job` in entry `key`. The
    /// first insert wins, and nothing is stored when the entry is gone or
    /// the output would take it past the whole budget; older entries are
    /// evicted to make room.
    pub(crate) fn store_output(
        &self,
        key: u64,
        job: OutputKey,
        report: &JsonValue,
        metrics: Option<&JsonValue>,
    ) {
        let output = Output {
            key: job,
            report: report.to_string(),
            metrics: metrics.map(JsonValue::to_string),
        };
        let bytes = (output.report.len() + output.metrics.as_ref().map_or(0, String::len)) as u64;
        let mut inner = self.lock();
        let Some(entry) = inner.entries.get_mut(&key) else {
            return;
        };
        if entry.bytes + bytes > self.budget_bytes
            || entry.outputs.iter().any(|out| out.key == output.key)
        {
            return;
        }
        entry.outputs.push(Arc::new(output));
        entry.bytes += bytes;
        inner.stats.resident_bytes += bytes;
        inner.stats.reports += 1;
        self.evict_to_budget(&mut inner, key);
    }

    /// Drops LRU entries (never `keep`) until the budget is met.
    fn evict_to_budget(&self, inner: &mut Inner, keep: u64) {
        while inner.stats.resident_bytes > self.budget_bytes && inner.entries.len() > 1 {
            let victim = inner
                .entries
                .iter()
                .filter(|(k, _)| **k != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some(entry) = inner.entries.remove(&victim) {
                inner.stats.resident_bytes = inner.stats.resident_bytes.saturating_sub(entry.bytes);
                inner.stats.entries -= 1;
                inner.stats.reports -= entry.outputs.len() as u64;
                inner.stats.evictions += 1;
            }
        }
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> SessionStats {
        self.lock().stats
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding this lock leaves only counters and a
        // plain map — safe to keep using.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gramer::preprocess;
    use gramer_graph::generate;

    fn pre_for(seed: u64) -> Preprocessed {
        let g = generate::barabasi_albert(60, 3, seed);
        preprocess(&g, &GramerConfig::default()).expect("preprocess")
    }

    #[test]
    fn hit_after_miss_shares_the_arc() {
        let cache = SessionCache::new(u64::MAX);
        let (a, warm_a) = cache
            .get_or_build::<()>(1, || Ok(pre_for(1)))
            .expect("build");
        let (b, warm_b) = cache
            .get_or_build::<()>(1, || panic!("must not rebuild"))
            .expect("hit");
        assert!(!warm_a);
        assert!(warm_b);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        let one = pre_for(1);
        let budget = one.footprint_bytes() as u64 * 2 + 16;
        let cache = SessionCache::new(budget);
        for key in 0..4u64 {
            cache
                .get_or_build::<()>(key, || Ok(pre_for(key + 1)))
                .expect("build");
        }
        let stats = cache.stats();
        assert!(stats.resident_bytes <= budget);
        assert!(stats.evictions >= 2, "evictions: {}", stats.evictions);
        // Most recently used key still resident.
        let (_, warm) = cache
            .get_or_build::<()>(3, || panic!("key 3 should be warm"))
            .expect("hit");
        assert!(warm);
    }

    #[test]
    fn build_errors_are_not_cached() {
        let cache = SessionCache::new(u64::MAX);
        let err = cache.get_or_build::<String>(9, || Err("boom".to_string()));
        assert_eq!(err.err(), Some("boom".to_string()));
        let (_, warm) = cache
            .get_or_build::<String>(9, || Ok(pre_for(2)))
            .expect("rebuild");
        assert!(!warm, "failed build must not leave a cache entry");
    }

    #[test]
    fn oversized_entry_is_still_admitted() {
        let cache = SessionCache::new(1);
        let (_, warm) = cache
            .get_or_build::<()>(5, || Ok(pre_for(3)))
            .expect("build");
        assert!(!warm);
        let (_, warm) = cache
            .get_or_build::<()>(5, || panic!("should be resident"))
            .expect("hit");
        assert!(warm);
    }

    fn job(app: &str) -> OutputKey {
        OutputKey {
            app: app.to_string(),
            config: GramerConfig::default(),
            metrics: false,
        }
    }

    #[test]
    fn outputs_are_charged_to_their_entry_and_evicted_with_it() {
        let footprint = pre_for(1).footprint_bytes() as u64;
        let report = JsonValue::parse("{\"cycles\": 123, \"app\": \"3-cf\"}").expect("json");
        let report_bytes = report.to_string().len() as u64;
        // Room for two graphs and their outputs, not three.
        let budget = 2 * footprint + 4 * report_bytes;
        let cache = SessionCache::new(budget);
        cache
            .get_or_build::<()>(1, || Ok(pre_for(1)))
            .expect("build");
        assert_eq!(cache.output(1, &job("3-cf")), None);
        cache.store_output(1, job("3-cf"), &report, None);
        // The first insert wins; a second store of the same key is a no-op.
        cache.store_output(1, job("3-cf"), &report, None);
        let stats = cache.stats();
        assert_eq!((stats.reports, stats.report_hits), (1, 0));
        assert_eq!(stats.resident_bytes, footprint + report_bytes);
        assert_eq!(cache.output(1, &job("3-cf")), Some((report.clone(), None)));
        assert_eq!(cache.output(1, &job("3-mc")), None);
        let slots = OutputKey {
            config: GramerConfig {
                slots_per_pu: 8,
                ..GramerConfig::default()
            },
            ..job("3-cf")
        };
        assert_eq!(cache.output(1, &slots), None);
        let metrics = OutputKey {
            metrics: true,
            ..job("3-cf")
        };
        assert_eq!(cache.output(1, &metrics), None);
        assert_eq!(cache.output(2, &job("3-cf")), None, "no entry 2");
        assert_eq!(cache.stats().report_hits, 1);

        cache
            .get_or_build::<()>(2, || Ok(pre_for(2)))
            .expect("build");
        cache.store_output(2, job("3-cf"), &report, Some(&report));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.reports), (2, 2));
        assert_eq!(stats.resident_bytes, 2 * footprint + 3 * report_bytes);
        assert!(stats.resident_bytes <= budget);
        // A third graph evicts the least recently used, outputs and all.
        cache
            .get_or_build::<()>(3, || Ok(pre_for(3)))
            .expect("build");
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.reports, stats.evictions), (2, 1, 1));
        assert!(stats.resident_bytes <= budget);
        assert_eq!(
            cache.output(1, &job("3-cf")),
            None,
            "evicted with its graph"
        );
        assert_eq!(
            cache.output(2, &job("3-cf")),
            Some((report.clone(), Some(report)))
        );
    }

    #[test]
    fn an_output_past_the_whole_budget_is_not_stored() {
        let footprint = pre_for(1).footprint_bytes() as u64;
        let cache = SessionCache::new(footprint + 8);
        cache
            .get_or_build::<()>(1, || Ok(pre_for(1)))
            .expect("build");
        let report = JsonValue::parse("{\"cycles\": 123456789}").expect("json");
        cache.store_output(1, job("3-cf"), &report, None);
        let stats = cache.stats();
        assert_eq!((stats.reports, stats.resident_bytes), (0, footprint));
        assert_eq!(cache.output(1, &job("3-cf")), None);
    }
}
