//! Replacement policies for the low-priority memory (§IV-C).
//!
//! The paper's observation: recency-only policies (LRU and friends) evict
//! data that is "not frequent recently but frequent globally", destroying
//! extension locality. Its locality-preserved policy picks the victim with
//! the largest `Rank(ON1(v)) + λ·Rec(v)` (Eq. 2): a *high* rank number
//! means a *low* priority (rank 0 is the hottest vertex), and `Rec` is the
//! number of accesses since the line was last referenced.
//!
//! These are the only two policies the simulator models: Eq. 2 for the
//! GRAMER hierarchy, and LRU for the Fig. 12 baselines and the CPU cache
//! model.

use crate::error::MemError;

/// The replacement policy of a [`crate::SetAssociativeCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// Classical least-recently-used.
    Lru,
    /// The paper's Eq. (2) policy:
    /// `victim = argmax( Rank(ON1(v)) + λ·Rec(v) )`.
    ///
    /// * `λ = 0` degenerates to a pure priority ordering — the
    ///   low-priority memory behaves like a second high-priority memory
    ///   (no recency).
    /// * `λ → ∞` degenerates to classical LRU.
    LocalityPreserved {
        /// Balancing factor between rank and recency (the paper's
        /// default is `λ = 1`); finite and non-negative.
        lambda: f64,
    },
}

impl PolicyKind {
    /// Rejects a λ that is negative, NaN or infinite with
    /// [`MemError::BadLambda`], so a runtime-tuned value can never poison
    /// victim selection.
    pub(crate) fn checked(self) -> Result<Self, MemError> {
        match self {
            PolicyKind::LocalityPreserved { lambda } if !(lambda.is_finite() && lambda >= 0.0) => {
                Err(MemError::BadLambda)
            }
            _ => Ok(self),
        }
    }

    /// Picks the victim among the lines of one full set, given their
    /// last-use times and ranks in slot order; `now` is the cache's
    /// access counter. LRU takes the first line with the smallest last
    /// use; Eq. 2 takes the first line with the strictly largest score.
    #[inline]
    pub(crate) fn victim(self, last_used: &[u64], ranks: &[u32], now: u64) -> usize {
        let mut best = 0;
        match self {
            PolicyKind::Lru => {
                for (i, &t) in last_used.iter().enumerate().skip(1) {
                    if t < last_used[best] {
                        best = i;
                    }
                }
            }
            PolicyKind::LocalityPreserved { lambda } => {
                let mut best_score = f64::NEG_INFINITY;
                for (i, (&t, &rank)) in last_used.iter().zip(ranks).enumerate() {
                    let score = rank as f64 + lambda * now.saturating_sub(t) as f64;
                    if score > best_score {
                        best_score = score;
                        best = i;
                    }
                }
            }
        }
        best
    }
}

impl Default for PolicyKind {
    fn default() -> Self {
        PolicyKind::LocalityPreserved { lambda: 1.0 }
    }
}
