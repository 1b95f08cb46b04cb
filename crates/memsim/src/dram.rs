use crate::error::MemError;

/// Configuration for the off-chip DRAM model.
///
/// The Alveo U250 card carries four DDR4 channels (§VI-A); at the
/// accelerator's 200 MHz clock a DRAM round-trip of ~200 ns is ~40 cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of independent channels.
    pub channels: usize,
    /// Request latency in accelerator cycles (first word back).
    pub latency_cycles: u64,
    /// Channel occupancy per request in cycles (inverse bandwidth).
    pub occupancy_cycles: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 4,
            latency_cycles: 40,
            occupancy_cycles: 4,
        }
    }
}

/// Off-chip memory with per-channel queuing.
///
/// Requests are dispatched to the earliest-free channel; a saturated
/// channel delays the request start, which is how the model exposes
/// bandwidth pressure (the effect behind the slot-count knee in
/// Fig. 13(a)).
///
/// # Example
///
/// ```
/// use gramer_memsim::{DramModel, DramConfig};
///
/// let mut dram = DramModel::new(DramConfig { channels: 1, latency_cycles: 10, occupancy_cycles: 5, });
/// assert_eq!(dram.service(0), 10);  // starts at 0
/// assert_eq!(dram.service(0), 15);  // queued behind the first request
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    config: DramConfig,
    channel_free: Vec<u64>,
    next_channel: usize,
    requests: u64,
}

impl DramModel {
    /// Creates a DRAM model.
    ///
    /// # Panics
    ///
    /// Panics if `config.channels == 0`; use [`Self::try_new`] to get a
    /// typed error instead.
    pub fn new(config: DramConfig) -> Self {
        match DramModel::try_new(config) {
            Ok(d) => d,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: rejects zero channels with
    /// [`MemError::ZeroChannels`] instead of panicking.
    pub fn try_new(config: DramConfig) -> Result<Self, MemError> {
        if config.channels == 0 {
            return Err(MemError::ZeroChannels);
        }
        Ok(DramModel {
            channel_free: vec![0; config.channels],
            next_channel: 0,
            requests: 0,
            config,
        })
    }

    /// Services a request issued at cycle `now`; returns its completion
    /// cycle. Channels are selected round-robin with earliest-free
    /// preference.
    pub fn service(&mut self, now: u64) -> u64 {
        self.requests += 1;
        // Earliest-free channel, breaking ties round-robin: walk from
        // `next_channel` to the end, then wrap to the start (no divide),
        // and a strict `<` keeps the first channel in walk order among
        // equals.
        let next = self.next_channel;
        let (head, tail) = self.channel_free.split_at(next);
        let (mut best, mut best_free) = (next, tail[0]);
        for (i, &free) in tail.iter().enumerate().skip(1) {
            if free < best_free {
                (best, best_free) = (next + i, free);
            }
        }
        for (i, &free) in head.iter().enumerate() {
            if free < best_free {
                (best, best_free) = (i, free);
            }
        }
        self.next_channel = if best + 1 == self.channel_free.len() {
            0
        } else {
            best + 1
        };
        let start = now.max(self.channel_free[best]);
        self.channel_free[best] = start + self.config.occupancy_cycles;
        start + self.config.latency_cycles
    }

    /// Number of requests serviced.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// The configuration in use.
    pub fn config(&self) -> DramConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_channels_absorb_bursts() {
        let mut dram = DramModel::new(DramConfig {
            channels: 4,
            latency_cycles: 10,
            occupancy_cycles: 10,
        });
        // Four simultaneous requests all finish at cycle 10.
        for _ in 0..4 {
            assert_eq!(dram.service(0), 10);
        }
        // The fifth queues behind a busy channel.
        assert_eq!(dram.service(0), 20);
    }

    #[test]
    fn later_issue_no_earlier_finish() {
        let mut dram = DramModel::new(DramConfig::default());
        let a = dram.service(0);
        let b = dram.service(100);
        assert!(b >= a);
        assert_eq!(b, 140);
    }

    #[test]
    fn zero_channels_is_a_typed_error() {
        let zero = DramConfig {
            channels: 0,
            ..DramConfig::default()
        };
        assert_eq!(DramModel::try_new(zero).err(), Some(MemError::ZeroChannels));
        assert!(DramModel::try_new(DramConfig::default()).is_ok());
    }

    #[test]
    #[should_panic(expected = "need at least one DRAM channel")]
    fn new_still_panics_on_zero_channels() {
        let _ = DramModel::new(DramConfig {
            channels: 0,
            ..DramConfig::default()
        });
    }

    #[test]
    fn channel_pick_matches_the_modulo_walk() {
        // Oracle: the same earliest-free, round-robin-tie pick written
        // with `%`, replayed against the model on a pseudo-random request
        // stream with frequent ties.
        for channels in 1..=6 {
            let mut dram = DramModel::new(DramConfig {
                channels,
                latency_cycles: 7,
                occupancy_cycles: 5,
            });
            let mut free = vec![0u64; channels];
            let mut next = 0usize;
            let (mut now, mut s) = (0u64, channels as u64);
            for _ in 0..2_000 {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                now += s >> 61;
                let mut best = next;
                for i in 0..channels {
                    let c = (next + i) % channels;
                    if free[c] < free[best] {
                        best = c;
                    }
                }
                next = (best + 1) % channels;
                let start = now.max(free[best]);
                free[best] = start + 5;
                assert_eq!(dram.service(now), start + 7);
                assert_eq!(dram.next_channel, next);
            }
        }
    }

    #[test]
    fn request_counter() {
        let mut dram = DramModel::new(DramConfig::default());
        dram.service(0);
        dram.service(1);
        assert_eq!(dram.requests(), 2);
    }
}
