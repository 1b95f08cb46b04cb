//! Typed construction errors for the memory simulator.
//!
//! The panicking constructors (`new`) remain for ergonomic use in tests
//! and examples; fault-tolerant callers (the sweep runner's quarantined
//! points, config validation in `gramer-core`) use the `try_new` variants
//! and surface these as structured failures instead of aborting a run.

use std::fmt;

/// Error returned by the fallible (`try_new`) constructors of this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// A cache was configured with zero sets.
    ZeroSets,
    /// A cache was configured with zero ways (associativity).
    ZeroWays,
    /// A cache was configured with more than `u16::MAX` ways, or with
    /// more lines than `usize` can count.
    TooManyLines {
        /// The configured set count.
        sets: usize,
        /// The configured associativity.
        ways: usize,
    },
    /// A cache's item capacity, `sets × ways × 2^block_bits`, does not
    /// fit a `usize` (this includes every `block_bits >= 64`).
    BlockTooLarge {
        /// The configured set count.
        sets: usize,
        /// The configured associativity.
        ways: usize,
        /// The configured log2 of the block size in items.
        block_bits: u32,
    },
    /// A [`crate::MemorySubsystem`] was configured with zero partitions.
    ZeroPartitions,
    /// A [`crate::DramModel`] was configured with zero channels.
    ZeroChannels,
    /// A [`crate::policy::PolicyKind::LocalityPreserved`] policy was given
    /// a λ that is negative, NaN or infinite. Runtime-tuned λ values (the
    /// adaptive autotuner) flow through
    /// [`crate::SetAssociativeCache::set_lambda`], so a bad value is a
    /// typed failure, not a panic.
    BadLambda,
}

impl MemError {
    /// Stable machine-readable tag for structured failure records
    /// (mirrors `GraphError::kind` in `gramer-graph`).
    pub fn kind(&self) -> &'static str {
        match self {
            MemError::ZeroSets => "mem-zero-sets",
            MemError::ZeroWays => "mem-zero-ways",
            MemError::TooManyLines { .. } => "mem-too-many-lines",
            MemError::BlockTooLarge { .. } => "mem-block-too-large",
            MemError::ZeroPartitions => "mem-zero-partitions",
            MemError::ZeroChannels => "mem-zero-channels",
            MemError::BadLambda => "mem-bad-lambda",
        }
    }
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::ZeroSets => write!(f, "cache needs at least one set"),
            MemError::ZeroWays => write!(f, "cache needs at least one way"),
            MemError::TooManyLines { sets, ways } => write!(
                f,
                "cache of {sets} sets x {ways} ways is too large \
                 (at most {} ways, and sets x ways must fit usize)",
                u16::MAX
            ),
            MemError::BlockTooLarge {
                sets,
                ways,
                block_bits,
            } => write!(
                f,
                "cache of {sets} sets x {ways} ways with 2^{block_bits}-item blocks \
                 holds more items than usize can count"
            ),
            MemError::ZeroPartitions => write!(f, "need at least one partition"),
            MemError::ZeroChannels => write!(f, "need at least one DRAM channel"),
            MemError::BadLambda => write!(f, "lambda must be finite and non-negative"),
        }
    }
}

impl std::error::Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct() {
        let all = [
            MemError::ZeroSets,
            MemError::ZeroWays,
            MemError::TooManyLines {
                sets: 1,
                ways: 1 << 16,
            },
            MemError::BlockTooLarge {
                sets: 1,
                ways: 1,
                block_bits: 64,
            },
            MemError::ZeroPartitions,
            MemError::ZeroChannels,
            MemError::BadLambda,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.kind(), b.kind());
            }
        }
    }

    #[test]
    fn display_matches_legacy_panic_messages() {
        // The panicking `new` wrappers format these errors, so the text
        // must keep the phrases existing `#[should_panic]` tests expect.
        assert!(MemError::ZeroSets.to_string().contains("at least one set"));
        assert!(MemError::ZeroPartitions.to_string().contains("partition"));
        assert!(MemError::ZeroChannels
            .to_string()
            .contains("need at least one DRAM channel"));
    }
}
