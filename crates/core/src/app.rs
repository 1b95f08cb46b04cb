//! The application grammar shared by every front end.
//!
//! Each accelerator invocation runs one ECM application (Table I of the
//! paper). `gramer-mine --app`, a `gramer-serve` job's `"app"` and the
//! `perf` bin's cells all name it with the same spec, and [`AppSpec`] is
//! that spec's only parser. Parsing builds the application, so a size
//! outside the supported embedding range or a degenerate query fails at
//! parse time: the daemon refuses it at admission and the CLI before any
//! graph work.

use crate::telemetry::{NullSink, Telemetry};
use crate::{GramerConfig, Preprocessed, RunReport, SimError, Simulator};
use gramer_mining::apps::{CliqueFinding, FrequentSubgraphMining, MotifCounting};
use gramer_mining::{CandidateFilter, CandidateSets, EcmApp, QueryApp, QueryGraph};

/// A parsed application spec, ready to run.
#[derive(Debug)]
pub enum AppSpec {
    /// `<k>-cf`: k-clique finding.
    CliqueFinding(CliqueFinding),
    /// `<k>-mc`: motif counting up to k vertices.
    MotifCounting(MotifCounting),
    /// `fsm:<t>`: frequent subgraph mining with support threshold t.
    Fsm(FrequentSubgraphMining),
    /// `query:<labels:edges>`: a candidate-filtered labeled subgraph query.
    Query(QueryApp),
}

impl std::str::FromStr for AppSpec {
    type Err = String;

    /// Parses a lowercase spec (callers fold case) and builds its
    /// application.
    fn from_str(spec: &str) -> Result<Self, String> {
        if let Some(q) = spec.strip_prefix("query:") {
            let query = QueryGraph::parse(q).map_err(|e| format!("bad query spec: {e}"))?;
            return QueryApp::new(query)
                .map(AppSpec::Query)
                .map_err(|e| format!("bad query spec: {e}"));
        }
        if let Some(t) = spec.strip_prefix("fsm:") {
            let threshold = t.parse().map_err(|_| format!("bad FSM threshold {t:?}"))?;
            return Ok(AppSpec::Fsm(FrequentSubgraphMining::new(threshold)));
        }
        let (k, kind) = spec
            .split_once('-')
            .ok_or_else(|| format!("bad app spec {spec:?}"))?;
        let k: usize = k.parse().map_err(|_| format!("bad size in {spec:?}"))?;
        match kind {
            "cf" => CliqueFinding::new(k).map(AppSpec::CliqueFinding),
            "mc" => MotifCounting::new(k).map(AppSpec::MotifCounting),
            other => Err(format!("unknown application kind {other:?}")),
        }
    }
}

impl AppSpec {
    /// Simulates the application over `pre` under `config`. This is the
    /// one place that picks a run's hooks: the candidate filter comes
    /// from the application (queries run through the LDF → NLF → GQL
    /// candidate pipeline, see [`gramer_mining::query`]), the telemetry
    /// sink from `tel`, and the pair memo from [`GramerConfig::memo`].
    ///
    /// # Errors
    ///
    /// The simulator's: an invalid `config`, or a run-time failure.
    pub fn run(
        &self,
        pre: &Preprocessed,
        config: GramerConfig,
        tel: Option<&mut Telemetry>,
    ) -> Result<RunReport, SimError> {
        fn simulate<A: EcmApp>(
            sim: &Simulator<'_>,
            app: &A,
            tel: Option<&mut Telemetry>,
            filter: Option<CandidateFilter>,
        ) -> Result<RunReport, SimError> {
            match tel {
                Some(tel) => sim.run_with(app, tel, filter),
                None => sim.run_with(app, &mut NullSink, filter),
            }
        }
        let sim = Simulator::new(pre, config)?;
        match self {
            AppSpec::CliqueFinding(app) => simulate(&sim, app, tel, None),
            AppSpec::MotifCounting(app) => simulate(&sim, app, tel, None),
            AppSpec::Fsm(app) => simulate(&sim, app, tel, None),
            // Candidates are computed over the REORDERED graph — the one
            // the simulator actually mines.
            AppSpec::Query(app) => {
                let candidates = CandidateSets::build(&pre.graph, app.query());
                simulate(&sim, app, tel, Some(CandidateFilter::new(&candidates)))
            }
        }
    }

    /// The application itself, for host-side models that run it
    /// unfiltered outside the simulator (the CPU baseline profile).
    pub fn ecm(&self) -> &dyn EcmApp {
        match self {
            AppSpec::CliqueFinding(app) => app,
            AppSpec::MotifCounting(app) => app,
            AppSpec::Fsm(app) => app,
            AppSpec::Query(app) => app,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess;
    use gramer_graph::generate;

    #[test]
    fn every_kind_parses_and_runs() {
        let pre = preprocess(
            &generate::barabasi_albert(60, 3, 2),
            &GramerConfig::default(),
        )
        .expect("preprocess");
        for (spec, name) in [
            ("2-cf", "2-CF"),
            ("8-cf", "8-CF"),
            ("3-mc", "3-MC"),
            ("fsm:0", "FSM-0"),
            ("query:0,0,0:0-1,1-2,2-0", "query-3v3e"),
        ] {
            let app: AppSpec = spec.parse().unwrap_or_else(|e| panic!("{spec}: {e}"));
            let report = app
                .run(&pre, GramerConfig::default(), None)
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(report.app, name, "{spec}");
        }
    }

    #[test]
    fn specs_the_simulator_cannot_run_are_refused() {
        // Sizes outside 2..=8, unknown kinds, bad thresholds, a one-vertex
        // query and a disconnected one.
        let refused = "99-cf 1-mc 0-cf 9-mc 3-zz 3 -cf x-cf fsm: fsm:-1 \
                       query: query:1:0-1 query:1,1,2,2:0-1,2-3";
        for spec in refused.split_whitespace().chain([""]) {
            assert!(spec.parse::<AppSpec>().is_err(), "{spec:?} must be refused");
        }
    }
}
