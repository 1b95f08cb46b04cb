//! The golden matrix the golden, query and telemetry suites walk in one
//! process.
//!
//! The access path is a host-side choice: the fast lanes must reproduce
//! every simulated number of the exact port/FIFO path, which stays as
//! their oracle. The pair memo is a model change: mined results hold
//! under it, timing is free to improve. Every assertion names its leg.

// Each suite uses its own part of the matrix.
#![allow(dead_code)]

use gramer::{AccessPath, GramerConfig, MemoMode};
use gramer_mining::DEFAULT_MEMO_BYTES;
use std::fmt;

/// Both access paths, the default first.
pub const ACCESS_PATHS: [AccessPath; 2] = [AccessPath::Fast, AccessPath::Exact];

/// The default configuration on one access path, for tests that walk
/// only that dimension.
pub fn path_config(access_path: AccessPath) -> GramerConfig {
    GramerConfig {
        access_path,
        ..GramerConfig::default()
    }
}

/// One leg of the matrix.
#[derive(Debug, Clone, Copy)]
pub struct Leg {
    pub access_path: AccessPath,
    pub memo: MemoMode,
}

impl Leg {
    /// The default configuration on this leg.
    pub fn config(self) -> GramerConfig {
        GramerConfig {
            memo: self.memo,
            ..path_config(self.access_path)
        }
    }
}

impl fmt::Display for Leg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?}, {:?}]", self.access_path, self.memo)
    }
}

/// {fast, exact} × memo {off, on at [`DEFAULT_MEMO_BYTES`]}: the memo-off
/// legs first, so a timing drift fails before a memo-only one.
pub fn legs() -> impl Iterator<Item = Leg> {
    [
        MemoMode::Off,
        MemoMode::On {
            bytes: DEFAULT_MEMO_BYTES,
        },
    ]
    .into_iter()
    .flat_map(|memo| ACCESS_PATHS.map(|access_path| Leg { access_path, memo }))
}
