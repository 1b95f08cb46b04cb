//! The mining workloads: `gramer-mine <edges> --app ...` done through the
//! library, from edge-list bytes to a serialized report.

use crate::harness::{median, Clock, Metric, Tally};
use crate::layers::Layers;
use crate::speed::{self, HostSpeed};
use crate::trace::Tracer;
use crate::{energy_mj, gen, peak_rss_mb, replay, Args, Outcome};
use gramer::{
    preprocess, GramerConfig, MemoMode, MemoryBudget, RunReport, Simulator, Telemetry,
    TelemetryConfig,
};
use gramer_graph::{io, CsrGraph};
use gramer_mining::apps::{CliqueFinding, MotifCounting};
use gramer_mining::{DfsEnumerator, EcmApp, MiningResult, NullObserver, Pattern};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-up-only repetitions after each timed run, so `setup_s` is a median
/// of many samples even though a run completes few operations.
const SETUPS_PER_RUN: usize = 4;

pub struct MineWorkload {
    edges: String,
    config: GramerConfig,
    app: App,
}

#[derive(Clone, Copy)]
enum App {
    Mc3,
    Cf4,
}

/// The workload named `name` for `seed`, or `None` for another name.
pub fn workload(name: &str, seed: u64) -> Option<MineWorkload> {
    match name {
        // The default path and the committed long-pole cell: the whole
        // graph fits on chip.
        "mine-mc" => Some(MineWorkload {
            edges: gen::rmat(13, 40_000, (0.57, 0.19, 0.19), seed),
            config: GramerConfig::default(),
            app: App::Mc3,
        }),
        // The paper's regime: a graph far larger than on-chip memory, so
        // the cache, DRAM model and pair memo do the work.
        "mine-cf-spill" => Some(MineWorkload {
            edges: gen::barabasi_albert(10_000, 5, seed),
            config: GramerConfig {
                budget: MemoryBudget::Fraction(0.1),
                memo: MemoMode::On {
                    bytes: gramer_mining::DEFAULT_MEMO_BYTES,
                },
                ..GramerConfig::default()
            },
            app: App::Cf4,
        }),
        _ => None,
    }
}

pub fn run(w: &MineWorkload, args: &Args) -> Outcome {
    match w.app {
        App::Mc3 => run_app(w, &MotifCounting::new(3).expect("3 is a valid size"), args),
        App::Cf4 => run_app(w, &CliqueFinding::new(4).expect("4 is a valid size"), args),
    }
}

/// Pattern counts keyed by the pattern itself, so results from differently
/// numbered graphs compare.
type Counts = BTreeMap<(usize, Pattern), u64>;

fn counts(r: &MiningResult) -> Counts {
    r.counts
        .sorted()
        .into_iter()
        .map(|(size, id, n)| ((size, *r.interner.pattern(id)), n))
        .collect()
}

/// The software reference every run must agree with.
struct Reference {
    embeddings: u64,
    counts: Counts,
}

impl Reference {
    fn matches(&self, r: &MiningResult) -> bool {
        r.embeddings == self.embeddings && counts(r) == self.counts
    }
}

struct Op {
    wall: f64,
    setup: f64,
    report: RunReport,
    json: String,
}

/// One `gramer-mine` run: parse, preprocess, build, simulate, serialize.
fn mine_once<A: EcmApp>(w: &MineWorkload, app: &A, tr: &mut Tracer, op: u64) -> Result<Op, String> {
    let t0 = Instant::now();
    let root = tr.begin("mine.op", op);
    let out = (|| {
        let graph = tr
            .span("graph.parse", op, || io::read_edge_list(w.edges.as_bytes()))
            .map_err(|e| e.to_string())?;
        let pre = tr
            .span("preprocess", op, || preprocess(&graph, &w.config))
            .map_err(|e| e.to_string())?;
        let sim = tr
            .span("sim.new", op, || Simulator::new(&pre, w.config.clone()))
            .map_err(|e| e.to_string())?;
        let setup = t0.elapsed().as_secs_f64();
        let report = tr
            .span("sim.run", op, || sim.run(app))
            .map_err(|e| e.to_string())?;
        let json = tr.span("report.serialize", op, || {
            report.to_json_value().to_string()
        });
        Ok((setup, report, json))
    })();
    tr.end(root);
    let wall = t0.elapsed().as_secs_f64();
    out.map(|(setup, report, json)| Op {
        wall,
        setup,
        report,
        json,
    })
}

/// [`mine_once`], with its output checked against the reference and
/// against the first run of this seed.
fn checked_once<A: EcmApp>(
    w: &MineWorkload,
    app: &A,
    reference: &Reference,
    first_json: &mut Option<String>,
    tally: &mut Tally,
    tr: &mut Tracer,
    op: u64,
) -> Option<Op> {
    let op = match mine_once(w, app, tr, op) {
        Ok(op) => op,
        Err(e) => {
            tally.fail(format!("mining run failed: {e}"));
            return None;
        }
    };
    let first = first_json.get_or_insert_with(|| op.json.clone());
    if !reference.matches(&op.report.result) {
        tally.fail("mined embeddings or pattern counts differ from the DFS reference");
    } else if *first != op.json {
        tally.fail("a simulated field differs between runs of one seed");
    } else {
        tally.ok();
    }
    Some(op)
}

fn run_app<A: EcmApp>(w: &MineWorkload, app: &A, args: &Args) -> Outcome {
    let mut tally = Tally::default();
    let origin = Instant::now();
    let graph: CsrGraph = match io::read_edge_list(w.edges.as_bytes()) {
        Ok(g) => g,
        Err(e) => {
            tally.fail(format!("generated edge list does not parse: {e}"));
            return Outcome::failed(tally);
        }
    };
    let reference_result = DfsEnumerator::new(&graph).run(app);
    let reference = Reference {
        embeddings: reference_result.embeddings,
        counts: counts(&reference_result),
    };
    let mut first_json = None;
    let mut quiet = Tracer::new(false, origin);

    // One untimed run warms the host caches and the allocator.
    checked_once(
        w,
        app,
        &reference,
        &mut first_json,
        &mut tally,
        &mut quiet,
        0,
    );

    let budget = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        // Set-ups alone are spread over the whole loop, so their median
        // sees the same host as the runs do. A sample of the host's speed
        // after each run and its set-ups brackets them with the one
        // before, and scales their times to the reference host.
        let host = HostSpeed::new();
        host.sample(); // warms the kernel's code and allocations
        let mut before = host.sample();
        let mut ops = Vec::new();
        let (mut walls, mut scaled_walls, mut setups, mut speeds) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());

        let start = Instant::now();
        let mut n = 0;
        while n < 3 || start.elapsed() < budget {
            n += 1;
            let op = checked_once(
                w,
                app,
                &reference,
                &mut first_json,
                &mut tally,
                &mut quiet,
                n,
            );
            let mut op_setups: Vec<f64> = op.iter().map(|o| o.setup).collect();
            for _ in 0..SETUPS_PER_RUN {
                let t0 = Instant::now();
                let ok = io::read_edge_list(w.edges.as_bytes())
                    .ok()
                    .and_then(|g| preprocess(&g, &w.config).ok())
                    .is_some_and(|pre| {
                        std::hint::black_box(Simulator::new(&pre, w.config.clone()).is_ok())
                    });
                op_setups.push(t0.elapsed().as_secs_f64());
                tally.check(ok, || "set-up failed".to_string());
            }
            let after = host.sample();
            let s = speed::speed(before, after);
            before = after;
            speeds.push(s);
            setups.extend(op_setups.iter().map(|t| t * s));
            if let Some(op) = op {
                walls.push(op.wall);
                scaled_walls.push(op.wall * s);
                ops.push(op);
            }
        }
        let Some(last) = ops.last() else {
            return Outcome::failed(tally);
        };
        let e2e = vec![
            Metric::new("wall_s", "s", Clock::Host, median(&scaled_walls)).note(format!(
                "median of {} runs at host speed 1, {:.3} .. {:.3}",
                scaled_walls.len(),
                scaled_walls.iter().copied().fold(f64::INFINITY, f64::min),
                scaled_walls.iter().copied().fold(0.0, f64::max)
            )),
            Metric::new(
                "jobs_per_s",
                "1/s",
                Clock::Host,
                ops.len() as f64 / scaled_walls.iter().sum::<f64>(),
            )
            .note(format!("{} runs at host speed 1", ops.len())),
            Metric::new("setup_s", "s", Clock::Host, median(&setups)).note(format!(
                "median of {} set-ups at host speed 1",
                setups.len()
            )),
            Metric::new("peak_rss_mb", "MB", Clock::Host, peak_rss_mb(None)),
            Metric::new(
                "sim_cycles",
                "cycles",
                Clock::Modeled,
                last.report.cycles as f64,
            ),
            Metric::new(
                "sim_energy_mj",
                "mJ",
                Clock::Modeled,
                energy_mj(&last.report),
            ),
        ];
        let extra = vec![
            Metric::new("unscaled.wall_s", "s", Clock::Host, median(&walls))
                .note("median run as timed"),
            Metric::new("host.speed", "x", Clock::Host, median(&speeds)).note(format!(
                "median of {} samples; 1 = reference kernel in {} s",
                speeds.len(),
                speed::REFERENCE_SECONDS
            )),
        ];
        return Outcome {
            tally,
            metrics: e2e,
            extra,
            tracer: quiet,
        };
    }

    // Traced run: untraced and traced runs in alternation, so drift in
    // the host cannot pass for tracing overhead, then the layers alone.
    let mut tr = Tracer::new(true, origin);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut n = 0;
    while n < 2 || start.elapsed() < budget / 2 {
        n += 1;
        let (a, b) = (&mut first_json, &mut tally);
        untraced.extend(checked_once(w, app, &reference, a, b, &mut quiet, n));
        traced.extend(checked_once(w, app, &reference, a, b, &mut tr, 100 + n));
    }
    let Some(last) = traced.last() else {
        return Outcome::failed(tally);
    };
    let report = &last.report;
    let probe = 1_000;
    let pre = match preprocess(&graph, &w.config) {
        Ok(pre) => pre,
        Err(e) => {
            tally.fail(format!("preprocess failed: {e}"));
            return Outcome::failed(tally);
        }
    };

    let enumerated = tr.span("mining.enumerate", probe, || {
        DfsEnumerator::new(&pre.graph).run_with_observer(app, &mut NullObserver)
    });
    tally.check(reference.matches(&enumerated), || {
        "DFS on the preprocessed graph differs from the reference".to_string()
    });

    let open = tr.begin("dfs.record", probe);
    let replayed = replay::record_and_replay(&pre, &w.config, app, &mut tr, probe);
    tr.end(open);

    let mut tel = Telemetry::new(TelemetryConfig::default());
    let tel_report = tr.span("sim.run_telemetry", probe, || {
        Simulator::new(&pre, w.config.clone()).map(|s| s.run_telemetry(app, &mut tel))
    });
    let fast_hits = tel
        .to_json_value()
        .get("host")
        .and_then(|h| h.get("fast_path_hits"))
        .and_then(gramer::json::JsonValue::as_u64)
        .unwrap_or(0);
    tally.check(
        matches!(&tel_report, Ok(Ok(r)) if r.to_json_value().to_string() == last.json),
        || "telemetry changed the simulated report".to_string(),
    );

    // One PU, one slot, no stealing: the depth-first order the replays use.
    let serial_cfg = GramerConfig {
        num_pus: 1,
        slots_per_pu: 1,
        work_stealing: false,
        ..w.config.clone()
    };
    let serial = tr.span("sim.run_1x1", probe, || {
        Simulator::new(&pre, serial_cfg).map(|s| s.run(app))
    });
    let serial = match serial {
        Ok(Ok(r)) => r,
        _ => {
            tally.fail("the one-slot simulation failed");
            return Outcome::failed(tally);
        }
    };
    tally.check(
        serial.mem == replayed.mem
            && serial.dram_requests == replayed.dram_requests
            && serial.memo == replayed.memo
            && replayed.memo == replayed.recorded_memo,
        || {
            format!(
                "replay fidelity: simulator {:?} dram {} memo {:?}, replay {:?} dram {} memo {:?}",
                serial.mem,
                serial.dram_requests,
                serial.memo,
                replayed.mem,
                replayed.dram_requests,
                replayed.memo
            )
        },
    );

    let ms = |name: &str| median(&tr.self_secs(name)) * 1e3;
    let sim_s = median(&tr.self_secs("sim.run"));
    let steps = report.steps as f64;
    let enum_s = tr.total_self_secs("mining.enumerate");
    let memsim_s = tr.total_self_secs("memsim.replay");
    let memo_s = tr.total_self_secs("memo.replay");
    let serial_s = tr.total_self_secs("sim.run_1x1");
    let accesses = (report.mem.vertex.total() + report.mem.edge.total()) as f64;
    let memo = report.memo.unwrap_or_default();
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let untraced_wall = median(&untraced.iter().map(|o| o.wall).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|o| o.wall).collect::<Vec<_>>());
    let layers = Layers {
        graph_parse_ms: ms("graph.parse"),
        preprocess_ms: ms("preprocess"),
        sim_s,
        sim_steps: steps,
        sim_steps_per_s: per(steps, sim_s),
        mining_enumerate_ns_per_step: per(enum_s * 1e9, replayed.steps as f64),
        mining_accept_ratio: per(
            enumerated.embeddings as f64,
            enumerated.candidates_examined as f64,
        ),
        memsim_replay_ns_per_access: per(memsim_s * 1e9, replayed.accesses as f64),
        memsim_fast_lane_share: per(fast_hits as f64, accesses),
        memsim_onchip_ratio: report.mem.on_chip_ratio(),
        memsim_dram_requests: report.dram_requests as f64,
        memo_replay_ns_per_op: per(memo_s * 1e9, replayed.memo_ops as f64),
        memo_lookups: memo.lookups() as f64,
        memo_hit_ratio: per(memo.hits as f64, memo.lookups() as f64),
        memo_evictions: memo.evictions as f64,
        sim_residual_ns_per_step: per((sim_s - enum_s - memsim_s - memo_s) * 1e9, steps),
        sim_interleave_x: per(per(sim_s, steps), per(serial_s, serial.steps as f64)),
        sim_steals: report.steals as f64,
        sim_pu_imbalance: report.pu_imbalance(),
        report_serialize_ms: ms("report.serialize"),
        trace_overhead_pct: per(traced_wall - untraced_wall, untraced_wall) * 100.0,
        ..Layers::default()
    };
    let extra = vec![
        Metric::new(
            "fidelity.replay_accesses",
            "count",
            Clock::Modeled,
            replayed.accesses as f64,
        ),
        Metric::new(
            "fidelity.memo_ops",
            "count",
            Clock::Modeled,
            replayed.memo_ops as f64,
        ),
        Metric::new(
            "fidelity.dfs_steps",
            "count",
            Clock::Modeled,
            replayed.steps as f64,
        ),
        Metric::new(
            "fidelity.serial_steps",
            "count",
            Clock::Modeled,
            serial.steps as f64,
        ),
    ];
    Outcome {
        tally,
        metrics: layers.metrics(),
        extra,
        tracer: tr,
    }
}
