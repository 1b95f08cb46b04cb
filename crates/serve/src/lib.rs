//! `gramer-serve` — a fault-contained simulation-as-a-service daemon
//! over the GRAMER accelerator simulator.
//!
//! The CLI tools (`gramer-mine`, `gramer-bench`) run one workload per
//! process: a crash costs one run. A long-lived daemon has no such
//! luxury — one bad graph, one simulator bug, or one hostile request
//! must never take down the jobs queued behind it. This crate is the
//! robustness layer that makes the simulator servable:
//!
//! * [`http`] — a minimal dependency-free HTTP/1.1 server + client
//!   (the build environment is offline; there is no tokio to reach for);
//! * [`job`] — job specs, the typed lifecycle state machine
//!   (`queued → running → completed | failed | panicked | timed_out`,
//!   plus `rejected` at admission), and JSON round-tripping;
//! * [`supervisor`] — admission control, the bounded worker pool, panic
//!   quarantine and the crash-safe journal (both shared with the sweep
//!   runner via [`gramer::supervise`]), and deadlines and step budgets
//!   carried by [`gramer::progress`] tokens and enforced on the worker
//!   itself; a failed job is never retried, as it would fail again;
//! * [`journal`] — the job records' forgiving replay;
//! * [`session`] — the shared in-memory LRU cache of preprocessed
//!   graphs, keyed like [`gramer::PreprocessCache`], each with the
//!   stored outputs that answer a repeated job without simulating it;
//! * [`chaos`] — deterministic seeded fault injection (panics, delays)
//!   used by the acceptance tests to *prove* the containment properties
//!   instead of asserting them;
//! * [`server`] — the accept loop and routing.
//!
//! Served results are byte-identical to CLI results: the daemon runs
//! the same preprocess → simulate pipeline and serializes reports with
//! the same stable-key-order JSON writer, so
//! `GET /jobs/<id>/report` equals `gramer-mine --json` output for the
//! same (graph, app, config) — the tier-1 serve stage diffs the two.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod http;
pub mod job;
pub mod journal;
pub mod session;
pub mod supervisor;

pub mod server;

pub use chaos::ChaosConfig;
pub use job::{JobRecord, JobSpec, JobStatus};
pub use journal::JobJournal;
pub use server::{Server, ServerConfig};
pub use session::SessionCache;
pub use supervisor::{SubmitError, Supervisor, SupervisorConfig};
