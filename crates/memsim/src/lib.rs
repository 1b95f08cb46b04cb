//! Memory-hierarchy simulator for the GRAMER reproduction.
//!
//! Models the locality-aware on-chip memory hierarchy of §IV (Fig. 7):
//!
//! * [`Scratchpad`] — the **high-priority memory** that permanently pins
//!   the data the ON1 heuristic marks as valuable; never evicts.
//! * [`SetAssociativeCache`] — the **low-priority memory**, a standard
//!   set-associative cache under one of the two [`policy::PolicyKind`]s:
//!   the paper's locality-preserved policy (Eq. 2), or classical LRU for
//!   the Fig. 12 baselines and the CPU cache model.
//! * [`HybridMemory`] — the controller that routes a request to the
//!   high- or low-priority memory by data priority.
//! * [`MemorySubsystem`] — eight banked partitions, each split into an
//!   isolated vertex memory and edge memory, with single-port contention
//!   per partition (the crossbar + FIFO request buffers of Fig. 7).
//! * [`DramModel`] — the off-chip DDR4 channels.
//! * [`EnergyModel`] — per-access energy accounting used by Fig. 11(a).
//! * [`CpuCacheModel`] — a three-level cache model of the baseline
//!   Intel E5-2680 v4, used for the Fig. 3 stall study and the CPU
//!   baseline cost models.
//! * [`trace`] — access-frequency tracing and top-share analysis backing
//!   Figs. 5 and 8.
//!
//! # Example
//!
//! ```
//! use gramer_memsim::{HybridMemory, HybridConfig, policy::PolicyKind, DataKind};
//!
//! // Pin items 0 and 1 on-chip, cache the rest in a 2-set × 2-way cache.
//! let cfg = HybridConfig {
//!     pinned: vec![true, true, false, false, false, false].into(),
//!     sets: 2,
//!     ways: 2,
//!     block_bits: 0,
//!     policy: PolicyKind::LocalityPreserved { lambda: 1.0 },
//! };
//! let mut m = HybridMemory::new(DataKind::Vertex, cfg);
//! assert!(m.access(0, 0).is_on_chip());  // pinned: always hits
//! assert!(!m.access(5, 5).is_on_chip()); // first touch: cold miss
//! assert!(m.access(5, 5).is_on_chip());  // now cached
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod cpu;
mod dram;
mod energy;
mod error;
mod hybrid;
mod scratchpad;
mod stats;
mod subsystem;

pub mod policy;
pub mod trace;

pub use cache::SetAssociativeCache;
pub use cpu::{CpuCacheConfig, CpuCacheModel, CpuLevel};
pub use dram::{DramConfig, DramModel};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use error::MemError;
pub use hybrid::{AccessOutcome, HybridConfig, HybridMemory};
pub use scratchpad::Scratchpad;
pub use stats::{KindStats, MemStats};
pub use subsystem::{
    AccessPath, Completion, DataKind, LatencyConfig, MemorySubsystem, SubsystemConfig,
};
