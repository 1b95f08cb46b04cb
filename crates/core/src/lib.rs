//! GRAMER — a cycle-approximate simulator of the locality-aware,
//! energy-efficient graph mining accelerator (MICRO 2020).
//!
//! The accelerator (Fig. 6 of the paper) is reproduced as a deterministic
//! discrete-event simulator:
//!
//! * **Preprocessing** ([`preprocess`]) — the ON1 heuristic ranks all
//!   vertices, the graph is reordered so *vertex ID = priority rank*
//!   (§IV-C), and the top-τ vertices/edges are pinned in the high-priority
//!   memory.
//! * **Memory** — the banked vertex/edge hierarchy of `gramer-memsim`
//!   (8 partitions, scratchpad + 4-way cache with the locality-preserved
//!   replacement policy of Eq. 2).
//! * **Processing units** ([`Simulator`]) — 8 PUs × 16 pipeline slots;
//!   each slot owns the DFS exploration of one initial embedding
//!   (a `gramer_mining::Explorer`), the scheduler issues one slot-step per
//!   cycle, memory latencies overlap across slots, and idle slots steal
//!   work from busy ones (§V-C).
//! * **Models** — the Table II area model ([`area`]) and the Table IV
//!   clock-rate model ([`pipeline`]) substitute for RTL synthesis, with
//!   constants calibrated once against the paper (see `DESIGN.md`).
//!
//! The simulator *actually mines*: its pattern counts are bit-identical to
//! the `gramer-mining` reference enumerators (asserted by integration
//! tests), while every memory access is charged to the cycle model.
//!
//! # Example
//!
//! ```
//! use gramer::{preprocess, GramerConfig, Simulator};
//! use gramer_graph::generate;
//! use gramer_mining::{apps::CliqueFinding, DfsEnumerator};
//!
//! let g = generate::barabasi_albert(200, 3, 1);
//! let pre = preprocess(&g, &GramerConfig::default()).unwrap();
//! let app = CliqueFinding::new(3).unwrap();
//! let report = Simulator::new(&pre, GramerConfig::default())
//!     .unwrap()
//!     .run(&app)
//!     .unwrap();
//! assert!(report.cycles > 0);
//! // The accelerator's counts match the software reference exactly.
//! let reference = DfsEnumerator::new(&g).run(&app);
//! assert_eq!(report.result.total_at(3), reference.total_at(3));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod app;
mod cache;
mod config;
mod events;
mod preprocess;
mod report;
mod sim;

pub mod area;
pub mod error;
pub mod json;
pub mod pipeline;
pub mod progress;
pub mod shard;
pub mod supervise;
pub mod telemetry;

pub use app::AppSpec;
pub use cache::PreprocessCache;
pub use config::{GramerConfig, MemoMode, MemoryBudget, MemoryMode, MAX_TOTAL_SLOTS};
pub use error::{ConfigError, SimError};
pub use gramer_memsim::AccessPath;
pub use preprocess::{modeled_preprocess_seconds, preprocess, Preprocessed};
pub use report::{QueryRunStats, RunReport};
pub use sim::Simulator;
pub use telemetry::{NullSink, Telemetry, TelemetryConfig, TelemetrySink};
