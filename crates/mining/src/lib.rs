//! Embedding-centric graph mining engine for the GRAMER reproduction.
//!
//! Implements the programming model of the paper's §II-A (Algorithm 1):
//! embeddings are connected, vertex-induced subgraphs grown one vertex at a
//! time; automorphic duplicates are rejected by a canonicality check; the
//! three representative applications are provided per Table I:
//!
//! * [`apps::CliqueFinding`] — `k`-CF, `Filter = IsClique`;
//! * [`apps::MotifCounting`] — `k`-MC, no filtering;
//! * [`apps::FrequentSubgraphMining`] — FSM-`k`, 3-vertex labeled patterns
//!   above an occurrence threshold.
//!
//! Two enumerators are provided, mirroring the systems the paper compares:
//!
//! * [`DfsEnumerator`] — the depth-first model GRAMER adopts from
//!   Fractal (§V-A): intermediate embeddings live on a stack and are
//!   discarded after traceback, never materialised.
//! * [`BfsEnumerator`] — the level-synchronous model of Arabesque /
//!   RStream: the whole frontier of each iteration is materialised, which
//!   is what makes RStream collapse under combinatorial explosion
//!   (Table III).
//!
//! The heart of the crate is [`Explorer`], a *step-wise* DFS state machine
//! whose unit of work is a single adjacency-slot examination. The software
//! enumerators simply run it to completion; the accelerator simulator in
//! the `gramer` crate interleaves the same steps across pipeline slots and
//! charges each reported memory access to its cycle model — so by
//! construction the accelerator mines exactly what the reference engine
//! mines.
//!
//! # Example: count triangles
//!
//! ```
//! use gramer_graph::generate;
//! use gramer_mining::{apps::MotifCounting, DfsEnumerator};
//!
//! let g = generate::complete(5);
//! let result = DfsEnumerator::new(&g).run(&MotifCounting::new(3).unwrap());
//! // K5 contains C(5,3) = 10 triangles and no other 3-vertex motif.
//! let triangles = result.count_where(3, |p| p.is_clique());
//! assert_eq!(triangles, 10);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod counts;
mod ecm;
mod embedding;
mod enumerate;
mod explorer;
mod memo;
mod observer;
mod pattern;

pub mod apps;
pub mod brute;
pub mod query;

pub use counts::{MiningResult, PatternCounts};
pub use ecm::EcmApp;
pub use embedding::{Embedding, MAX_EMBEDDING};
pub use enumerate::{BfsEnumerator, BfsLevelStats, DfsEnumerator};
pub use explorer::{Explorer, Step};
pub use memo::{MemoProbe, MemoStats, NoMemo, PairMemoTable, DEFAULT_MEMO_BYTES, MEMO_ENTRY_BYTES};
pub use observer::{AccessObserver, CountingObserver, NullObserver};
pub use pattern::{Pattern, PatternId, PatternInterner};
pub use query::{
    CandidateFilter, CandidateSets, FilterPipelineStats, FilterProbeStats, QueryApp, QueryGraph,
};
