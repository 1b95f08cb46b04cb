//! The per-layer metrics of the traced run. A metric reads 0 on a
//! workload that does not exercise or does not measure its layer; the
//! README lists where each one is measured.

use crate::harness::{Clock, Metric};

#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub graph_parse_ms: f64,
    pub preprocess_ms: f64,
    pub sim_s: f64,
    pub sim_steps: f64,
    pub sim_steps_per_s: f64,
    pub mining_enumerate_ns_per_step: f64,
    pub mining_accept_ratio: f64,
    pub memsim_replay_ns_per_access: f64,
    pub memsim_fast_lane_share: f64,
    pub memsim_onchip_ratio: f64,
    pub memsim_dram_requests: f64,
    pub memo_replay_ns_per_op: f64,
    pub memo_lookups: f64,
    pub memo_hit_ratio: f64,
    pub memo_evictions: f64,
    pub sim_residual_ns_per_step: f64,
    pub sim_interleave_x: f64,
    pub sim_steals: f64,
    pub sim_pu_imbalance: f64,
    pub report_serialize_ms: f64,
    pub serve_submit_ms: f64,
    pub serve_poll_ms: f64,
    pub serve_polls_per_job: f64,
    pub serve_report_ms: f64,
    pub serve_compute_ms: f64,
    pub serve_overhead_ms: f64,
    pub session_hit_ratio: f64,
    pub journal_write_ms: f64,
    pub journal_bytes: f64,
    pub journal_replay_ms: f64,
    pub trace_overhead_pct: f64,
}

impl Layers {
    pub fn metrics(&self) -> Vec<Metric> {
        use Clock::{Count, Host, Modeled};
        let m = Metric::new;
        vec![
            m("graph.parse_ms", "ms", Host, self.graph_parse_ms),
            m("preprocess.ms", "ms", Host, self.preprocess_ms),
            m("sim.s", "s", Host, self.sim_s),
            m("sim.steps", "count", Modeled, self.sim_steps),
            m("sim.steps_per_s", "1/s", Host, self.sim_steps_per_s),
            m(
                "mining.enumerate_ns_per_step",
                "ns",
                Host,
                self.mining_enumerate_ns_per_step,
            ),
            m(
                "mining.accept_ratio",
                "ratio",
                Count,
                self.mining_accept_ratio,
            ),
            m(
                "memsim.replay_ns_per_access",
                "ns",
                Host,
                self.memsim_replay_ns_per_access,
            ),
            m(
                "memsim.fast_lane_share",
                "ratio",
                Count,
                self.memsim_fast_lane_share,
            ),
            m(
                "memsim.onchip_ratio",
                "ratio",
                Modeled,
                self.memsim_onchip_ratio,
            ),
            m(
                "memsim.dram_requests",
                "count",
                Modeled,
                self.memsim_dram_requests,
            ),
            m(
                "memo.replay_ns_per_op",
                "ns",
                Host,
                self.memo_replay_ns_per_op,
            ),
            m("memo.lookups", "count", Modeled, self.memo_lookups),
            m("memo.hit_ratio", "ratio", Modeled, self.memo_hit_ratio),
            m("memo.evictions", "count", Modeled, self.memo_evictions),
            m(
                "sim.residual_ns_per_step",
                "ns",
                Host,
                self.sim_residual_ns_per_step,
            ),
            m("sim.interleave_x", "x", Host, self.sim_interleave_x),
            m("sim.steals", "count", Modeled, self.sim_steals),
            m("sim.pu_imbalance", "x", Modeled, self.sim_pu_imbalance),
            m("report.serialize_ms", "ms", Host, self.report_serialize_ms),
            m("serve.submit_ms", "ms", Host, self.serve_submit_ms),
            m("serve.poll_ms", "ms", Host, self.serve_poll_ms),
            m(
                "serve.polls_per_job",
                "count",
                Count,
                self.serve_polls_per_job,
            ),
            m("serve.report_ms", "ms", Host, self.serve_report_ms),
            m("serve.compute_ms", "ms", Host, self.serve_compute_ms),
            m("serve.overhead_ms", "ms", Host, self.serve_overhead_ms),
            m("session.hit_ratio", "ratio", Count, self.session_hit_ratio),
            m("journal.write_ms", "ms", Host, self.journal_write_ms),
            m("journal.bytes", "bytes", Count, self.journal_bytes),
            m("journal.replay_ms", "ms", Host, self.journal_replay_ms),
            m("trace.overhead_pct", "%", Host, self.trace_overhead_pct),
        ]
    }
}
