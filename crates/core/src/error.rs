//! The typed error taxonomy of the simulator core.
//!
//! Two layers:
//!
//! * [`ConfigError`] — a [`crate::GramerConfig`] (or memory budget) that
//!   violates an invariant. Produced by `GramerConfig::validate`,
//!   `MemoryBudget::resolve`, and the constructors that call them.
//! * [`SimError`] — anything that can stop a simulation run, wrapping the
//!   config, graph, and memory error types plus run-time failures.
//!
//! Every variant carries a stable machine-readable [`kind`](SimError::kind)
//! tag; the sweep runner in `gramer-bench` records these tags in its
//! structured failure records, so downstream tooling can classify failed
//! sweep points without parsing prose.

use gramer_graph::GraphError;
use gramer_memsim::MemError;
use std::fmt;

/// An invalid accelerator configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A [`crate::MemoryBudget::Fraction`] outside `[0, 1]` (or NaN).
    BadFraction(f64),
    /// `num_pus == 0`.
    ZeroPus,
    /// `slots_per_pu == 0`.
    ZeroSlots,
    /// `num_pus × slots_per_pu` exceeds [`crate::config::MAX_TOTAL_SLOTS`]
    /// (or overflows `usize`).
    TooManySlots {
        /// The configured `num_pus`.
        num_pus: usize,
        /// The configured `slots_per_pu`.
        slots_per_pu: usize,
    },
    /// `partitions == 0`.
    ZeroPartitions,
    /// `dram.channels == 0`.
    ZeroDramChannels,
    /// `ancestor_depth < 2`.
    AncestorDepthTooSmall(usize),
    /// Non-positive (or non-finite) clock frequency.
    BadClock(f64),
    /// Negative or non-finite λ.
    BadLambda(f64),
    /// Explicit τ outside `(0, 0.5]` (or NaN).
    BadTau(f64),
    /// A memo budget below one table entry (see
    /// [`gramer_mining::MEMO_ENTRY_BYTES`]).
    BadMemoBudget(u64),
    /// A `.gra` artifact was built with a different τ than the one this
    /// configuration resolves to — its pin classification would not match
    /// what [`crate::preprocess`] computes, so results could silently
    /// diverge from the edge-list path. Rebuild the artifact with the
    /// current knobs (or adjust τ / the memory budget).
    ArtifactTauMismatch {
        /// τ recorded in the artifact at build time.
        artifact: f64,
        /// τ the configuration resolves to for this graph.
        config: f64,
    },
}

impl ConfigError {
    /// Stable machine-readable tag for structured failure records.
    pub fn kind(&self) -> &'static str {
        match self {
            ConfigError::BadFraction(_) => "config-bad-fraction",
            ConfigError::ZeroPus => "config-zero-pus",
            ConfigError::ZeroSlots => "config-zero-slots",
            ConfigError::TooManySlots { .. } => "config-too-many-slots",
            ConfigError::ZeroPartitions => "config-zero-partitions",
            ConfigError::ZeroDramChannels => "config-zero-dram-channels",
            ConfigError::AncestorDepthTooSmall(_) => "config-ancestor-depth",
            ConfigError::BadClock(_) => "config-bad-clock",
            ConfigError::BadLambda(_) => "config-bad-lambda",
            ConfigError::BadTau(_) => "config-bad-tau",
            ConfigError::BadMemoBudget(_) => "config-bad-memo-budget",
            ConfigError::ArtifactTauMismatch { .. } => "config-artifact-tau",
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadFraction(v) => {
                write!(f, "memory budget fraction out of range [0, 1]: {v}")
            }
            ConfigError::ZeroPus => write!(f, "need at least one PU"),
            ConfigError::ZeroSlots => write!(f, "need at least one slot per PU"),
            ConfigError::TooManySlots {
                num_pus,
                slots_per_pu,
            } => write!(
                f,
                "{num_pus} PUs x {slots_per_pu} slots exceeds the limit of {} slots in total",
                crate::config::MAX_TOTAL_SLOTS
            ),
            ConfigError::ZeroPartitions => write!(f, "need at least one memory partition"),
            ConfigError::ZeroDramChannels => write!(f, "need at least one DRAM channel"),
            ConfigError::AncestorDepthTooSmall(d) => {
                write!(f, "ancestor depth too small: {d} (need >= 2)")
            }
            ConfigError::BadClock(v) => write!(f, "clock must be positive, got {v}"),
            ConfigError::BadLambda(v) => {
                write!(f, "lambda must be finite and non-negative, got {v}")
            }
            ConfigError::BadTau(v) => write!(f, "tau must be in (0, 0.5], got {v}"),
            ConfigError::BadMemoBudget(b) => write!(
                f,
                "memo budget must hold at least one entry ({} bytes), got {b}",
                gramer_mining::MEMO_ENTRY_BYTES
            ),
            ConfigError::ArtifactTauMismatch { artifact, config } => write!(
                f,
                "artifact was built with tau = {artifact} but this configuration resolves \
                 tau = {config}; rebuild the artifact with the current knobs"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Any error that can stop a simulation run.
#[derive(Debug)]
pub enum SimError {
    /// The configuration is invalid.
    Config(ConfigError),
    /// The input graph is invalid or failed to load.
    Graph(GraphError),
    /// The memory subsystem could not be built.
    Memory(MemError),
    /// The application's maximum embedding size exceeds the configured
    /// ancestor-buffer depth.
    DepthExceedsAncestors {
        /// The application's maximum embedding size.
        depth: usize,
        /// The configured `ancestor_depth`.
        ancestor_depth: usize,
    },
    /// An application-level failure, described free-form.
    App(String),
}

impl SimError {
    /// Stable machine-readable tag for structured failure records.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Config(e) => e.kind(),
            SimError::Graph(e) => e.kind(),
            SimError::Memory(e) => e.kind(),
            SimError::DepthExceedsAncestors { .. } => "sim-depth-exceeds-ancestors",
            SimError::App(_) => "app-error",
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid configuration: {e}"),
            SimError::Graph(e) => write!(f, "graph error: {e}"),
            SimError::Memory(e) => write!(f, "memory subsystem error: {e}"),
            SimError::DepthExceedsAncestors {
                depth,
                ancestor_depth,
            } => write!(
                f,
                "application depth {depth} exceeds ancestor buffers ({ancestor_depth})"
            ),
            SimError::App(msg) => write!(f, "application error: {msg}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::Graph(e) => Some(e),
            SimError::Memory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<GraphError> for SimError {
    fn from(e: GraphError) -> Self {
        SimError::Graph(e)
    }
}

impl From<MemError> for SimError {
    fn from(e: MemError) -> Self {
        SimError::Memory(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_delegate_to_inner_errors() {
        assert_eq!(
            SimError::from(ConfigError::BadTau(0.9)).kind(),
            "config-bad-tau"
        );
        assert_eq!(SimError::from(GraphError::Empty).kind(), "graph-empty");
        assert_eq!(SimError::from(MemError::ZeroSets).kind(), "mem-zero-sets");
        assert_eq!(
            SimError::DepthExceedsAncestors {
                depth: 5,
                ancestor_depth: 3
            }
            .kind(),
            "sim-depth-exceeds-ancestors"
        );
    }

    #[test]
    fn display_keeps_legacy_panic_phrases() {
        // The panicking compatibility wrappers format these errors, so
        // the text must keep the phrases `#[should_panic]` tests match.
        assert!(ConfigError::BadTau(0.9).to_string().contains("tau"));
        assert!(ConfigError::BadFraction(1.5)
            .to_string()
            .contains("fraction"));
        let depth = SimError::DepthExceedsAncestors {
            depth: 4,
            ancestor_depth: 3,
        };
        assert!(depth.to_string().contains("ancestor buffers"));
    }

    #[test]
    fn source_chain_exposes_inner_error() {
        use std::error::Error;
        let e = SimError::from(GraphError::Empty);
        assert!(e.source().is_some());
        assert!(SimError::App("boom".into()).source().is_none());
    }
}
