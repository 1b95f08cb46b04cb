//! Cycle-windowed telemetry for the simulator.
//!
//! The simulator's end-of-run aggregates ([`crate::RunReport`],
//! [`MemStats`]) say *what* happened but not *when*: whether extension
//! locality degrades as the DFS deepens, where pipeline utilization
//! collapses, when the caches finish warming up. This module samples
//! those quantities as time series over fixed-width cycle windows while
//! a run executes, and serializes them as a schema-versioned JSON
//! document through [`crate::json`].
//!
//! # Architecture
//!
//! The event loop ([`crate::Simulator`]) is generic over a
//! [`TelemetrySink`]. [`NullSink`] implements every hook as an empty
//! inline function with `ACTIVE = false`, so the disabled configuration
//! monomorphizes to exactly the uninstrumented loop — telemetry is
//! zero-cost when off (asserted by the perf gate, `scripts/perf.sh
//! --check`). [`Telemetry`] is the recording sink behind
//! `gramer-mine --metrics-out` and the sweep runner's `--metrics` flag.
//!
//! # Window semantics
//!
//! Simulated time is partitioned into windows of `window_cycles` cycles;
//! window `w` covers cycles `[w·g, (w+1)·g)` at the current granularity
//! `g`. Every per-step quantity is attributed to the window containing
//! the step's *scheduling* time (the popped event time), even if its
//! memory accesses complete past the window edge. Cumulative memory
//! counters (hits, misses, DRAM requests, evictions) are sampled as
//! deltas when a window closes — a window closes when the first event at
//! or beyond its end pops. Gauges (request-FIFO occupancy, cache
//! occupancy) are sampled once at close; the event-queue depth gauge is
//! the maximum observed across the window's events.
//!
//! To bound memory on long runs, the window count is capped: when
//! simulated time would need more than `max_windows` windows, the
//! granularity doubles and adjacent window pairs are merged in place
//! (sums add, gauges take the maximum) — automatic coalescing. The final
//! document always holds at most `max_windows` windows and records both
//! the base and the effective granularity.
//!
//! Every simulated quantity in the document is invariant under the
//! host-side access-path choice, exactly like the golden run reports.
//! Host-side gauges — the fast-lane tallies, which vary with the access
//! path (`fast_path_hits` counts both pinned lanes, `ultra_lane_hits`
//! the arithmetic ultra lane alone), and the event calendar's far-heap
//! push count (`calendar_far_pushes`) — are quarantined under the
//! top-level `"host"` key, which the golden snapshot test strips before
//! comparing bytes.

use crate::json::JsonValue;
use gramer_memsim::{DataKind, MemStats, MemorySubsystem};
use gramer_mining::{Step, MAX_EMBEDDING};

/// Telemetry document schema version. Bump on any change to the JSON
/// layout emitted by [`Telemetry::to_json_value`].
///
/// v2 added the memo counters (`memo_hits`/`memo_misses`/
/// `memo_evictions`), the adaptive-policy counters (`lambda_retunes`/
/// `repins`) per window and in the totals, and the run-level
/// `lambda_last`/`pin_epochs` gauges. v3 added the candidate-filter
/// counters `filter_probes`/`filter_rejects` per window and in the
/// totals.
pub const TELEMETRY_SCHEMA_VERSION: u64 = 3;

/// Configuration for a [`Telemetry`] recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Base window width in cycles (clamped to ≥ 1). Coalescing may
    /// double the effective width during the run.
    pub window_cycles: u64,
    /// Maximum number of windows kept in memory (clamped to ≥ 2); beyond
    /// it, windows coalesce.
    pub max_windows: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            window_cycles: 1024,
            max_windows: 512,
        }
    }
}

/// Receives instrumentation callbacks from the simulator's event loop.
///
/// Implementations other than the built-in two are possible but the
/// design center is exactly those two: [`NullSink`] (disabled, free) and
/// [`Telemetry`] (recording). Every hook has an empty default body, so a
/// sink only overrides what it consumes.
pub trait TelemetrySink {
    /// Whether this sink records anything. The event loop guards the
    /// hooks whose *arguments* cost something to prepare with this
    /// associated constant, so a `false` sink folds away entirely.
    const ACTIVE: bool;

    /// A new run begins on `num_pus` PUs. Always the first callback.
    fn on_begin(&mut self, num_pus: usize) {
        let _ = num_pus;
    }

    /// An event popped at time `now`; `queue_depth` counts the live slot
    /// events including the one being serviced.
    fn on_event(&mut self, now: u64, mem: &MemorySubsystem, queue_depth: usize) {
        let _ = (now, mem, queue_depth);
    }

    /// PU `pu` issued one slot-step: popped at `sched`, issued at
    /// `issue ≥ sched`, memory chain settled at `finish ≥ issue`.
    /// `depth`/`thief` describe the explorer before the step; `step` is
    /// its outcome.
    #[allow(clippy::too_many_arguments)]
    fn on_step(
        &mut self,
        pu: usize,
        sched: u64,
        issue: u64,
        finish: u64,
        depth: usize,
        thief: bool,
        step: Step,
    ) {
        let _ = (pu, sched, issue, finish, depth, thief, step);
    }

    /// An idle slot of PU `pu` found no work and scheduled a retry.
    fn on_idle(&mut self, pu: usize) {
        let _ = pu;
    }

    /// A slot of PU `pu` probed a busy victim slot for stealable work.
    fn on_steal_attempt(&mut self, pu: usize) {
        let _ = pu;
    }

    /// A probe on PU `pu` succeeded (a split range was handed over).
    fn on_steal_success(&mut self, pu: usize) {
        let _ = pu;
    }

    /// Adaptive dispatching moved a pending root from PU `from`'s queue
    /// to PU `to`.
    fn on_donation(&mut self, from: usize, to: usize) {
        let _ = (from, to);
    }

    /// A vertex access by an embedding of `size` vertices.
    fn on_vertex_access(&mut self, size: usize) {
        let _ = size;
    }

    /// An edge access by an embedding of `size` vertices.
    fn on_edge_access(&mut self, size: usize) {
        let _ = size;
    }

    /// A memoized connectivity probe by an embedding of `size` vertices
    /// was answered by the pair-memo table.
    fn on_memo_hit(&mut self, size: usize) {
        let _ = size;
    }

    /// A memoized connectivity probe missed the table (the check was
    /// resolved honestly and recorded).
    fn on_memo_miss(&mut self, size: usize) {
        let _ = size;
    }

    /// Recording a probe outcome displaced an LRU victim from the
    /// byte-budgeted table.
    fn on_memo_evict(&mut self, size: usize) {
        let _ = size;
    }

    /// A query run's candidate filter checked an extension by an
    /// embedding of `size` vertices; `admitted` is false when the filter
    /// pruned it.
    fn on_filter_probe(&mut self, admitted: bool, size: usize) {
        let _ = (admitted, size);
    }

    /// The λ autotuner ratcheted the locality-preserved policy to
    /// `lambda`.
    fn on_lambda_retune(&mut self, lambda: f64) {
        let _ = lambda;
    }

    /// The re-pinning monitor rebuilt the scratchpad pin set (`epoch` is
    /// the new 1-based pin-epoch index).
    fn on_repin(&mut self, epoch: u32) {
        let _ = epoch;
    }

    /// The event loop drained its calendar, having pushed `far_pushes`
    /// events past the calendar's near window into its overflow heap. A
    /// host-side cost gauge that never feeds back into the simulation.
    /// Comes just before [`TelemetrySink::on_finish`].
    fn on_calendar(&mut self, far_pushes: u64) {
        let _ = far_pushes;
    }

    /// The run drained; `cycles` is the final simulated time. Always the
    /// last callback.
    fn on_finish(&mut self, cycles: u64, mem: &MemorySubsystem) {
        let _ = (cycles, mem);
    }
}

/// The disabled sink: every hook is a no-op and `ACTIVE` is `false`, so
/// the monomorphized event loop is bit-identical to an uninstrumented
/// one.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    const ACTIVE: bool = false;
}

/// One cycle window's accumulators. Counter fields add under coalescing;
/// gauge fields take the maximum.
#[derive(Debug, Clone, Default)]
struct Window {
    pu_steps: Vec<u64>,
    pu_stall: Vec<u64>,
    pu_mem: Vec<u64>,
    pu_idle: Vec<u64>,
    stolen_steps: u64,
    depth_sum: u64,
    rejected: u64,
    candidates: u64,
    tracebacks: u64,
    completions: u64,
    steal_attempts: u64,
    steals: u64,
    donations: u64,
    /// Sampled at close as a delta of [`MemorySubsystem::stats`].
    mem: MemStats,
    dram: u64,
    evictions_vertex: u64,
    evictions_edge: u64,
    /// Gauges sampled once at close.
    fifo_vertex: u64,
    fifo_edge: u64,
    cache_lines_vertex: u64,
    cache_lines_edge: u64,
    /// Gauge: maximum live events observed during the window.
    queue_depth_max: u64,
    /// Pair-memo probes answered / missed / displaced this window.
    memo_hits: u64,
    memo_misses: u64,
    memo_evictions: u64,
    /// Candidate-filter probes, and those that pruned their candidate.
    filter_probes: u64,
    filter_rejects: u64,
    /// λ ratchets and pin-set rebuilds that landed in this window.
    lambda_retunes: u64,
    repins: u64,
    /// Host-side (access-path-dependent): fast-lane hits, delta at close.
    fast_hits: u64,
}

impl Window {
    fn new(num_pus: usize) -> Window {
        Window {
            pu_steps: vec![0; num_pus],
            pu_stall: vec![0; num_pus],
            pu_mem: vec![0; num_pus],
            pu_idle: vec![0; num_pus],
            ..Window::default()
        }
    }

    /// Folds `other` (the later window of a coalesced pair) into `self`.
    fn merge(&mut self, other: &Window) {
        for (a, b) in self.pu_steps.iter_mut().zip(&other.pu_steps) {
            *a += b;
        }
        for (a, b) in self.pu_stall.iter_mut().zip(&other.pu_stall) {
            *a += b;
        }
        for (a, b) in self.pu_mem.iter_mut().zip(&other.pu_mem) {
            *a += b;
        }
        for (a, b) in self.pu_idle.iter_mut().zip(&other.pu_idle) {
            *a += b;
        }
        self.stolen_steps += other.stolen_steps;
        self.depth_sum += other.depth_sum;
        self.rejected += other.rejected;
        self.candidates += other.candidates;
        self.tracebacks += other.tracebacks;
        self.completions += other.completions;
        self.steal_attempts += other.steal_attempts;
        self.steals += other.steals;
        self.donations += other.donations;
        self.mem += other.mem;
        self.dram += other.dram;
        self.evictions_vertex += other.evictions_vertex;
        self.evictions_edge += other.evictions_edge;
        self.fifo_vertex = self.fifo_vertex.max(other.fifo_vertex);
        self.fifo_edge = self.fifo_edge.max(other.fifo_edge);
        self.cache_lines_vertex = self.cache_lines_vertex.max(other.cache_lines_vertex);
        self.cache_lines_edge = self.cache_lines_edge.max(other.cache_lines_edge);
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.memo_evictions += other.memo_evictions;
        self.filter_probes += other.filter_probes;
        self.filter_rejects += other.filter_rejects;
        self.lambda_retunes += other.lambda_retunes;
        self.repins += other.repins;
        self.fast_hits += other.fast_hits;
    }

    fn steps(&self) -> u64 {
        self.pu_steps.iter().sum()
    }
}

/// The recording sink: accumulates cycle-windowed time series during one
/// simulator run and renders them as JSON or a human-readable rollup.
///
/// Construct one per run, pass it to [`crate::AppSpec::run`], then read
/// the results:
///
/// ```
/// use gramer::{preprocess, AppSpec, GramerConfig, Telemetry, TelemetryConfig};
/// use gramer_graph::generate;
///
/// let g = generate::barabasi_albert(120, 3, 21);
/// let cfg = GramerConfig::default();
/// let pre = preprocess(&g, &cfg).unwrap();
/// let app: AppSpec = "4-cf".parse().unwrap();
/// let mut tel = Telemetry::new(TelemetryConfig::default());
/// let with_tel = app.run(&pre, cfg.clone(), Some(&mut tel)).unwrap();
/// // Recording never changes a simulated quantity.
/// let plain = app.run(&pre, cfg, None).unwrap();
/// assert_eq!(with_tel.cycles, plain.cycles);
/// let doc = tel.to_json_value();
/// assert_eq!(doc.get("schema_version").and_then(|v| v.as_u64()), Some(3));
/// ```
#[derive(Debug)]
pub struct Telemetry {
    base_window: u64,
    max_windows: usize,
    granularity: u64,
    coalesce_count: u32,
    num_pus: usize,
    windows: Vec<Window>,
    /// Index of the open (current) window; `windows[..cur]` are closed.
    cur: usize,
    cycles: u64,
    // Snapshots taken at the last window close.
    prev_stats: MemStats,
    prev_dram: u64,
    prev_fast: u64,
    prev_evict_v: u64,
    prev_evict_e: u64,
    // Run-level totals not windowed.
    donation_matrix: Vec<u64>,
    vertex_by_size: Vec<u64>,
    edge_by_size: Vec<u64>,
    /// Gauge: last λ the autotuner installed (0.0 until a retune).
    lambda_last: f64,
    /// Host-side: event-calendar pushes past its near window.
    calendar_far_pushes: u64,
    /// Host-side: pinned hits the ultra lane alone served, read at finish.
    ultra_lane_hits: u64,
}

impl Telemetry {
    /// Creates a recorder. Out-of-range configuration values are clamped
    /// (`window_cycles ≥ 1`, `max_windows ≥ 2`) rather than rejected.
    pub fn new(cfg: TelemetryConfig) -> Telemetry {
        let base_window = cfg.window_cycles.max(1);
        Telemetry {
            base_window,
            max_windows: cfg.max_windows.max(2),
            granularity: base_window,
            coalesce_count: 0,
            num_pus: 0,
            windows: Vec::new(),
            cur: 0,
            cycles: 0,
            prev_stats: MemStats::default(),
            prev_dram: 0,
            prev_fast: 0,
            prev_evict_v: 0,
            prev_evict_e: 0,
            donation_matrix: Vec::new(),
            vertex_by_size: Vec::new(),
            edge_by_size: Vec::new(),
            lambda_last: 0.0,
            calendar_far_pushes: 0,
            ultra_lane_hits: 0,
        }
    }

    /// Effective window width after coalescing, in cycles.
    pub fn window_cycles(&self) -> u64 {
        self.granularity
    }

    /// Number of windows recorded so far.
    pub fn num_windows(&self) -> usize {
        self.windows.len()
    }

    /// How many times adjacent windows were merged to stay under the
    /// configured cap.
    pub fn coalesce_count(&self) -> u32 {
        self.coalesce_count
    }

    /// Window index for time `t` under the current granularity, doubling
    /// the granularity (and merging recorded windows) until it fits the
    /// cap.
    fn index_for(&mut self, t: u64) -> usize {
        loop {
            let w = (t / self.granularity) as usize;
            if w < self.max_windows {
                return w;
            }
            self.coalesce();
        }
    }

    fn coalesce(&mut self) {
        self.granularity *= 2;
        self.coalesce_count += 1;
        let merged: Vec<Window> = self
            .windows
            .chunks(2)
            .map(|pair| {
                let mut w = pair[0].clone();
                if let Some(b) = pair.get(1) {
                    w.merge(b);
                }
                w
            })
            .collect();
        self.windows = merged;
        self.cur /= 2;
    }

    /// Closes the open window (sampling the cumulative-counter deltas and
    /// close-time gauges) and opens window `new_w`, padding any skipped
    /// windows with empties.
    fn advance_to(&mut self, new_w: usize, mem: &MemorySubsystem) {
        let stats = mem.stats();
        let dram = mem.dram_requests();
        let fast = mem.fast_path_hits();
        let ev_v = mem.evictions(DataKind::Vertex);
        let ev_e = mem.evictions(DataKind::Edge);
        // Accumulate (not assign): after a coalesce, the open window may
        // already hold deltas merged in from a closed window, and the
        // coalesced gauge maxima must survive the close-time sample.
        let win = &mut self.windows[self.cur];
        win.mem += stats.delta_since(&self.prev_stats);
        win.dram += dram.saturating_sub(self.prev_dram);
        win.fast_hits += fast.saturating_sub(self.prev_fast);
        win.evictions_vertex += ev_v.saturating_sub(self.prev_evict_v);
        win.evictions_edge += ev_e.saturating_sub(self.prev_evict_e);
        win.fifo_vertex = win.fifo_vertex.max(mem.fifo_occupancy(DataKind::Vertex));
        win.fifo_edge = win.fifo_edge.max(mem.fifo_occupancy(DataKind::Edge));
        win.cache_lines_vertex = win
            .cache_lines_vertex
            .max(mem.cache_occupied_lines(DataKind::Vertex));
        win.cache_lines_edge = win
            .cache_lines_edge
            .max(mem.cache_occupied_lines(DataKind::Edge));
        self.prev_stats = stats;
        self.prev_dram = dram;
        self.prev_fast = fast;
        self.prev_evict_v = ev_v;
        self.prev_evict_e = ev_e;
        while self.windows.len() <= new_w {
            self.windows.push(Window::new(self.num_pus));
        }
        self.cur = new_w;
    }
}

impl TelemetrySink for Telemetry {
    const ACTIVE: bool = true;

    fn on_begin(&mut self, num_pus: usize) {
        self.num_pus = num_pus;
        self.granularity = self.base_window;
        self.coalesce_count = 0;
        self.windows.clear();
        self.windows.push(Window::new(num_pus));
        self.cur = 0;
        self.cycles = 0;
        self.prev_stats = MemStats::default();
        self.prev_dram = 0;
        self.prev_fast = 0;
        self.prev_evict_v = 0;
        self.prev_evict_e = 0;
        self.donation_matrix = vec![0; num_pus * num_pus];
        self.vertex_by_size = vec![0; MAX_EMBEDDING + 1];
        self.edge_by_size = vec![0; MAX_EMBEDDING + 1];
        self.lambda_last = 0.0;
        self.calendar_far_pushes = 0;
        self.ultra_lane_hits = 0;
    }

    fn on_event(&mut self, now: u64, mem: &MemorySubsystem, queue_depth: usize) {
        let w = self.index_for(now);
        if w != self.cur {
            self.advance_to(w, mem);
        }
        let win = &mut self.windows[self.cur];
        win.queue_depth_max = win.queue_depth_max.max(queue_depth as u64);
    }

    fn on_step(
        &mut self,
        pu: usize,
        sched: u64,
        issue: u64,
        finish: u64,
        depth: usize,
        thief: bool,
        step: Step,
    ) {
        let win = &mut self.windows[self.cur];
        win.pu_steps[pu] += 1;
        win.pu_stall[pu] += issue - sched;
        win.pu_mem[pu] += finish - issue;
        win.depth_sum += depth as u64;
        win.stolen_steps += thief as u64;
        match step {
            Step::Rejected => win.rejected += 1,
            Step::Candidate => win.candidates += 1,
            Step::Traceback => win.tracebacks += 1,
            Step::Done => win.completions += 1,
        }
    }

    fn on_idle(&mut self, pu: usize) {
        self.windows[self.cur].pu_idle[pu] += 1;
    }

    fn on_steal_attempt(&mut self, pu: usize) {
        self.windows[self.cur].steal_attempts += 1;
        let _ = pu;
    }

    fn on_steal_success(&mut self, pu: usize) {
        self.windows[self.cur].steals += 1;
        let _ = pu;
    }

    fn on_donation(&mut self, from: usize, to: usize) {
        self.windows[self.cur].donations += 1;
        self.donation_matrix[from * self.num_pus + to] += 1;
    }

    fn on_vertex_access(&mut self, size: usize) {
        let i = size.min(self.vertex_by_size.len().saturating_sub(1));
        self.vertex_by_size[i] += 1;
    }

    fn on_edge_access(&mut self, size: usize) {
        let i = size.min(self.edge_by_size.len().saturating_sub(1));
        self.edge_by_size[i] += 1;
    }

    fn on_memo_hit(&mut self, _size: usize) {
        self.windows[self.cur].memo_hits += 1;
    }

    fn on_memo_miss(&mut self, _size: usize) {
        self.windows[self.cur].memo_misses += 1;
    }

    fn on_memo_evict(&mut self, _size: usize) {
        self.windows[self.cur].memo_evictions += 1;
    }

    fn on_filter_probe(&mut self, admitted: bool, _size: usize) {
        let win = &mut self.windows[self.cur];
        win.filter_probes += 1;
        win.filter_rejects += u64::from(!admitted);
    }

    fn on_lambda_retune(&mut self, lambda: f64) {
        self.windows[self.cur].lambda_retunes += 1;
        self.lambda_last = lambda;
    }

    fn on_repin(&mut self, _epoch: u32) {
        self.windows[self.cur].repins += 1;
    }

    fn on_calendar(&mut self, far_pushes: u64) {
        self.calendar_far_pushes = far_pushes;
    }

    fn on_finish(&mut self, cycles: u64, mem: &MemorySubsystem) {
        self.cycles = cycles;
        self.ultra_lane_hits = mem.ultra_lane_hits();
        let cur = self.cur;
        self.advance_to(cur, mem);
    }
}

fn kind_stats_json(s: &gramer_memsim::KindStats) -> JsonValue {
    JsonValue::object([
        ("high_priority_hits", JsonValue::from(s.high_priority_hits)),
        ("cache_hits", JsonValue::from(s.cache_hits)),
        ("misses", JsonValue::from(s.misses)),
    ])
}

fn u64_array(values: impl IntoIterator<Item = u64>) -> JsonValue {
    JsonValue::array(values.into_iter().map(JsonValue::from))
}

impl Telemetry {
    /// Renders the full telemetry document (see the module docs for the
    /// schema). Deterministic: serializing twice yields identical bytes,
    /// and every key outside `"host"` is invariant under the access-path
    /// choice.
    pub fn to_json_value(&self) -> JsonValue {
        let windows = JsonValue::array(self.windows.iter().enumerate().map(|(i, w)| {
            JsonValue::object([
                ("start", JsonValue::from(i as u64 * self.granularity)),
                ("pu_steps", u64_array(w.pu_steps.iter().copied())),
                ("pu_stall_cycles", u64_array(w.pu_stall.iter().copied())),
                ("pu_mem_cycles", u64_array(w.pu_mem.iter().copied())),
                ("pu_idle_retries", u64_array(w.pu_idle.iter().copied())),
                ("depth_sum", JsonValue::from(w.depth_sum)),
                ("stolen_steps", JsonValue::from(w.stolen_steps)),
                ("rejected", JsonValue::from(w.rejected)),
                ("candidates", JsonValue::from(w.candidates)),
                ("tracebacks", JsonValue::from(w.tracebacks)),
                ("completions", JsonValue::from(w.completions)),
                ("steal_attempts", JsonValue::from(w.steal_attempts)),
                ("steals", JsonValue::from(w.steals)),
                ("donations", JsonValue::from(w.donations)),
                ("vertex", kind_stats_json(&w.mem.vertex)),
                ("edge", kind_stats_json(&w.mem.edge)),
                ("dram_requests", JsonValue::from(w.dram)),
                ("evictions_vertex", JsonValue::from(w.evictions_vertex)),
                ("evictions_edge", JsonValue::from(w.evictions_edge)),
                ("fifo_occupancy_vertex", JsonValue::from(w.fifo_vertex)),
                ("fifo_occupancy_edge", JsonValue::from(w.fifo_edge)),
                ("cache_lines_vertex", JsonValue::from(w.cache_lines_vertex)),
                ("cache_lines_edge", JsonValue::from(w.cache_lines_edge)),
                ("queue_depth_max", JsonValue::from(w.queue_depth_max)),
                ("memo_hits", JsonValue::from(w.memo_hits)),
                ("memo_misses", JsonValue::from(w.memo_misses)),
                ("memo_evictions", JsonValue::from(w.memo_evictions)),
                ("filter_probes", JsonValue::from(w.filter_probes)),
                ("filter_rejects", JsonValue::from(w.filter_rejects)),
                ("lambda_retunes", JsonValue::from(w.lambda_retunes)),
                ("repins", JsonValue::from(w.repins)),
            ])
        }));

        let mut totals = Window::new(self.num_pus);
        for w in &self.windows {
            totals.merge(w);
        }
        let matrix = JsonValue::array((0..self.num_pus).map(|from| {
            u64_array(
                self.donation_matrix[from * self.num_pus..(from + 1) * self.num_pus]
                    .iter()
                    .copied(),
            )
        }));
        let totals_json = JsonValue::object([
            ("steps", JsonValue::from(totals.steps())),
            ("stolen_steps", JsonValue::from(totals.stolen_steps)),
            ("rejected", JsonValue::from(totals.rejected)),
            ("candidates", JsonValue::from(totals.candidates)),
            ("tracebacks", JsonValue::from(totals.tracebacks)),
            ("completions", JsonValue::from(totals.completions)),
            ("steal_attempts", JsonValue::from(totals.steal_attempts)),
            ("steals", JsonValue::from(totals.steals)),
            ("donations", JsonValue::from(totals.donations)),
            ("pu_steps", u64_array(totals.pu_steps.iter().copied())),
            (
                "pu_stall_cycles",
                u64_array(totals.pu_stall.iter().copied()),
            ),
            ("pu_mem_cycles", u64_array(totals.pu_mem.iter().copied())),
            ("pu_idle_retries", u64_array(totals.pu_idle.iter().copied())),
            ("donation_matrix", matrix),
            (
                "vertex_accesses_by_size",
                u64_array(self.vertex_by_size.iter().copied()),
            ),
            (
                "edge_accesses_by_size",
                u64_array(self.edge_by_size.iter().copied()),
            ),
            ("vertex", kind_stats_json(&totals.mem.vertex)),
            ("edge", kind_stats_json(&totals.mem.edge)),
            ("dram_requests", JsonValue::from(totals.dram)),
            ("evictions_vertex", JsonValue::from(totals.evictions_vertex)),
            ("evictions_edge", JsonValue::from(totals.evictions_edge)),
            ("queue_depth_max", JsonValue::from(totals.queue_depth_max)),
            ("memo_hits", JsonValue::from(totals.memo_hits)),
            ("memo_misses", JsonValue::from(totals.memo_misses)),
            ("memo_evictions", JsonValue::from(totals.memo_evictions)),
            ("filter_probes", JsonValue::from(totals.filter_probes)),
            ("filter_rejects", JsonValue::from(totals.filter_rejects)),
            ("lambda_retunes", JsonValue::from(totals.lambda_retunes)),
            ("lambda_last", JsonValue::from(self.lambda_last)),
            ("pin_epochs", JsonValue::from(totals.repins)),
        ]);

        let host = JsonValue::object([
            (
                "fast_path_hits",
                JsonValue::from(self.windows.iter().map(|w| w.fast_hits).sum::<u64>()),
            ),
            ("ultra_lane_hits", JsonValue::from(self.ultra_lane_hits)),
            (
                "calendar_far_pushes",
                JsonValue::from(self.calendar_far_pushes),
            ),
            (
                "fast_path_hits_per_window",
                u64_array(self.windows.iter().map(|w| w.fast_hits)),
            ),
        ]);

        JsonValue::object([
            ("schema_version", JsonValue::from(TELEMETRY_SCHEMA_VERSION)),
            ("kind", JsonValue::from("gramer-telemetry")),
            ("base_window_cycles", JsonValue::from(self.base_window)),
            ("window_cycles", JsonValue::from(self.granularity)),
            (
                "coalesce_count",
                JsonValue::from(u64::from(self.coalesce_count)),
            ),
            ("num_pus", JsonValue::from(self.num_pus as u64)),
            ("cycles", JsonValue::from(self.cycles)),
            ("windows", windows),
            ("totals", totals_json),
            ("host", host),
        ])
    }

    /// Per-window on-chip hit ratios (1.0 for request-free windows).
    fn hit_ratio_curve(&self) -> Vec<f64> {
        self.windows.iter().map(|w| w.mem.on_chip_ratio()).collect()
    }

    /// Compact machine-readable rollup — what the sweep runner attaches
    /// to each point under `--metrics`.
    pub fn summary_json(&self) -> JsonValue {
        let (util_mean, util_peak, peak_pu, peak_window) = self.utilization();
        let curve = self.hit_ratio_curve();
        let (min_ratio, min_window) =
            curve
                .iter()
                .enumerate()
                .map(|(i, &r)| (r, i))
                .fold(
                    (1.0f64, 0usize),
                    |acc, (r, i)| {
                        if r < acc.0 {
                            (r, i)
                        } else {
                            acc
                        }
                    },
                );
        let mut totals = Window::new(self.num_pus);
        for w in &self.windows {
            totals.merge(w);
        }
        JsonValue::object([
            ("windows", JsonValue::from(self.windows.len() as u64)),
            ("window_cycles", JsonValue::from(self.granularity)),
            ("pu_util_mean", JsonValue::from(util_mean)),
            ("pu_util_peak", JsonValue::from(util_peak)),
            ("pu_util_peak_pu", JsonValue::from(peak_pu as u64)),
            ("pu_util_peak_window", JsonValue::from(peak_window as u64)),
            ("on_chip_ratio_min", JsonValue::from(min_ratio)),
            (
                "on_chip_ratio_min_window",
                JsonValue::from(min_window as u64),
            ),
            ("steal_attempts", JsonValue::from(totals.steal_attempts)),
            ("steals", JsonValue::from(totals.steals)),
            ("donations", JsonValue::from(totals.donations)),
            ("stolen_steps", JsonValue::from(totals.stolen_steps)),
            ("queue_depth_max", JsonValue::from(totals.queue_depth_max)),
        ])
    }

    /// Mean/peak per-PU utilization over the *closed* portion of the run:
    /// `(mean, peak, peak_pu, peak_window)`. The tail window is partial,
    /// so its utilization is computed against the cycles it actually
    /// covers.
    fn utilization(&self) -> (f64, f64, usize, usize) {
        let mut peak = 0.0f64;
        let (mut peak_pu, mut peak_window) = (0usize, 0usize);
        let mut total_steps = 0u64;
        let mut total_cycles = 0u64;
        for (i, w) in self.windows.iter().enumerate() {
            let start = i as u64 * self.granularity;
            let span = if self.cycles > start {
                (self.cycles - start).min(self.granularity)
            } else {
                self.granularity
            };
            total_cycles += span;
            for (pu, &s) in w.pu_steps.iter().enumerate() {
                total_steps += s;
                let u = crate::pipeline::pu_utilization(s, span);
                if u > peak {
                    peak = u;
                    peak_pu = pu;
                    peak_window = i;
                }
            }
        }
        let denom = total_cycles * self.num_pus as u64;
        let mean = if denom == 0 {
            0.0
        } else {
            total_steps as f64 / denom as f64
        };
        (mean, peak, peak_pu, peak_window)
    }

    /// Human-readable rollup for `gramer-mine --metrics-summary`: peak
    /// and mean utilization per PU, the hit-rate curve's low point and
    /// steepest drop (its inflection points), stall composition, and
    /// work-stealing balance.
    pub fn summary_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let (util_mean, util_peak, peak_pu, peak_window) = self.utilization();
        let _ = writeln!(
            out,
            "telemetry: {} windows x {} cycles (coalesced {}x), {} cycles total",
            self.windows.len(),
            self.granularity,
            self.coalesce_count,
            self.cycles
        );
        let _ = writeln!(
            out,
            "pu utilization: mean {:.3}, peak {:.3} (PU {} in window {})",
            util_mean, util_peak, peak_pu, peak_window
        );
        let mut totals = Window::new(self.num_pus);
        for w in &self.windows {
            totals.merge(w);
        }
        let per_pu: Vec<String> = totals
            .pu_steps
            .iter()
            .map(|&s| {
                format!(
                    "{:.3}",
                    crate::pipeline::pu_utilization(s, self.cycles.max(1))
                )
            })
            .collect();
        let _ = writeln!(out, "  per PU (whole run): [{}]", per_pu.join(", "));

        let curve = self.hit_ratio_curve();
        if let (Some(&first), Some(&last)) = (curve.first(), curve.last()) {
            let (min_ratio, min_window) =
                curve
                    .iter()
                    .enumerate()
                    .fold(
                        (1.0f64, 0usize),
                        |acc, (i, &r)| {
                            if r < acc.0 {
                                (r, i)
                            } else {
                                acc
                            }
                        },
                    );
            let mut drop = 0.0f64;
            let mut drop_window = 0usize;
            for i in 1..curve.len() {
                let d = curve[i - 1] - curve[i];
                if d > drop {
                    drop = d;
                    drop_window = i;
                }
            }
            let _ = writeln!(
                out,
                "on-chip hit ratio: first {:.3} -> min {:.3} (window {}) -> last {:.3}",
                first, min_ratio, min_window, last
            );
            if drop > 0.0 {
                let _ = writeln!(
                    out,
                    "  steepest drop: -{:.3} entering window {} (cycle {})",
                    drop,
                    drop_window,
                    drop_window as u64 * self.granularity
                );
            }
        }

        let issue_cycles: u64 = totals.pu_steps.iter().sum();
        let stall: u64 = totals.pu_stall.iter().sum();
        let memc: u64 = totals.pu_mem.iter().sum();
        let denom = (issue_cycles + stall + memc).max(1) as f64;
        let _ = writeln!(
            out,
            "step-cycle composition: issue {:.1}%, scheduler stall {:.1}%, memory {:.1}%",
            100.0 * issue_cycles as f64 / denom,
            100.0 * stall as f64 / denom,
            100.0 * memc as f64 / denom
        );
        let attempts = totals.steal_attempts.max(1);
        let _ = writeln!(
            out,
            "work stealing: {} steals / {} attempts ({:.1}%), {} root donations, {} stolen steps",
            totals.steals,
            totals.steal_attempts,
            100.0 * totals.steals as f64 / attempts as f64,
            totals.donations,
            totals.stolen_steps
        );
        let _ = writeln!(
            out,
            "gauges: queue depth max {}, fifo peak v/e {}/{}, cache lines peak v/e {}/{}",
            totals.queue_depth_max,
            totals.fifo_vertex,
            totals.fifo_edge,
            totals.cache_lines_vertex,
            totals.cache_lines_edge
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gramer_memsim::policy::PolicyKind;
    use gramer_memsim::{DramConfig, HybridConfig, KindStats, LatencyConfig, SubsystemConfig};

    fn tiny_mem() -> MemorySubsystem {
        let hybrid = HybridConfig {
            pinned: vec![true; 4].into(),
            sets: 2,
            ways: 2,
            block_bits: 0,
            policy: PolicyKind::default(),
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
            access_path: Default::default(),
        })
    }

    #[test]
    fn coalescing_bounds_the_window_count() {
        let mut tel = Telemetry::new(TelemetryConfig {
            window_cycles: 1,
            max_windows: 4,
        });
        tel.on_begin(2);
        let mem = tiny_mem();
        for t in 0..64u64 {
            tel.on_event(t, &mem, 3);
            tel.on_step(0, t, t, t + 1, 1, false, Step::Rejected);
        }
        tel.on_finish(64, &mem);
        assert!(tel.num_windows() <= 4, "windows = {}", tel.num_windows());
        assert!(tel.coalesce_count() >= 4);
        assert_eq!(tel.window_cycles(), 1 << tel.coalesce_count());
        // No step was lost in the merges.
        let doc = tel.to_json_value();
        let steps = doc
            .get("totals")
            .and_then(|t| t.get("steps"))
            .and_then(JsonValue::as_u64);
        assert_eq!(steps, Some(64));
    }

    #[test]
    fn window_merge_adds_counters_and_maxes_gauges() {
        let mut a = Window::new(1);
        let mut b = Window::new(1);
        a.pu_steps[0] = 3;
        b.pu_steps[0] = 4;
        a.queue_depth_max = 7;
        b.queue_depth_max = 5;
        a.fifo_vertex = 1;
        b.fifo_vertex = 9;
        a.mem.vertex = KindStats {
            high_priority_hits: 1,
            cache_hits: 2,
            misses: 3,
        };
        b.mem.vertex = KindStats {
            high_priority_hits: 10,
            cache_hits: 0,
            misses: 0,
        };
        a.merge(&b);
        assert_eq!(a.pu_steps[0], 7);
        assert_eq!(a.queue_depth_max, 7);
        assert_eq!(a.fifo_vertex, 9);
        assert_eq!(a.mem.vertex.total(), 16);
    }

    #[test]
    fn config_clamps_degenerate_values() {
        let tel = Telemetry::new(TelemetryConfig {
            window_cycles: 0,
            max_windows: 0,
        });
        assert_eq!(tel.window_cycles(), 1);
        assert_eq!(tel.max_windows, 2);
    }

    #[test]
    fn document_is_deterministic() {
        let mut tel = Telemetry::new(TelemetryConfig::default());
        tel.on_begin(2);
        let mem = tiny_mem();
        tel.on_event(0, &mem, 2);
        tel.on_step(1, 0, 0, 5, 1, true, Step::Candidate);
        tel.on_donation(0, 1);
        tel.on_vertex_access(2);
        tel.on_edge_access(3);
        tel.on_finish(10, &mem);
        let a = tel.to_json_value().to_string_pretty();
        let b = tel.to_json_value().to_string_pretty();
        assert_eq!(a, b);
        assert!(a.contains("\"schema_version\": 3"));
        assert!(a.contains("\"kind\": \"gramer-telemetry\""));
        let doc = tel.to_json_value();
        assert_eq!(
            doc.get("totals")
                .and_then(|t| t.get("donations"))
                .and_then(JsonValue::as_u64),
            Some(1)
        );
        assert!(doc.get("host").is_some());
    }

    #[test]
    fn null_sink_is_inert() {
        // Compile-and-run proof that the disabled sink accepts every hook.
        let mut s = NullSink;
        const { assert!(!NullSink::ACTIVE) };
        s.on_begin(8);
        let mem = tiny_mem();
        s.on_event(0, &mem, 1);
        s.on_step(0, 0, 0, 0, 0, false, Step::Done);
        s.on_idle(0);
        s.on_steal_attempt(0);
        s.on_steal_success(0);
        s.on_donation(0, 1);
        s.on_vertex_access(1);
        s.on_edge_access(1);
        s.on_memo_hit(1);
        s.on_memo_miss(1);
        s.on_memo_evict(1);
        s.on_filter_probe(false, 1);
        s.on_lambda_retune(2.0);
        s.on_repin(1);
        s.on_calendar(0);
        s.on_finish(0, &mem);
    }

    #[test]
    fn memo_and_adaptive_counters_land_in_totals() {
        let mut tel = Telemetry::new(TelemetryConfig::default());
        tel.on_begin(1);
        let mem = tiny_mem();
        tel.on_event(0, &mem, 1);
        tel.on_memo_hit(2);
        tel.on_memo_hit(2);
        tel.on_memo_miss(3);
        tel.on_memo_evict(3);
        tel.on_filter_probe(true, 2);
        tel.on_filter_probe(false, 2);
        tel.on_lambda_retune(4.0);
        tel.on_repin(1);
        tel.on_finish(5, &mem);
        let doc = tel.to_json_value();
        let totals = doc.get("totals").expect("totals missing");
        let get = |k: &str| totals.get(k).and_then(JsonValue::as_u64);
        assert_eq!(get("memo_hits"), Some(2));
        assert_eq!(get("memo_misses"), Some(1));
        assert_eq!(get("memo_evictions"), Some(1));
        assert_eq!(get("filter_probes"), Some(2));
        assert_eq!(get("filter_rejects"), Some(1));
        assert_eq!(get("lambda_retunes"), Some(1));
        assert_eq!(get("pin_epochs"), Some(1));
        let windows = doc
            .get("windows")
            .and_then(JsonValue::as_array)
            .expect("windows missing");
        let w0 = windows.first().expect("window 0 missing");
        assert_eq!(w0.get("memo_hits").and_then(JsonValue::as_u64), Some(2));
    }
}
