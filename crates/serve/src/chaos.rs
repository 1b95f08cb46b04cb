//! Deterministic seeded fault injection for the job supervisor.
//!
//! Graceful degradation is only trustworthy if it is *tested*, and a
//! fault-injection harness is only debuggable if it is *deterministic*.
//! [`ChaosConfig`] carries two per-mille fault probabilities (panic,
//! delay); whether a given job is hit — and by what — is a pure
//! function of `(seed, job_id)`, so a failing chaos run replays exactly
//! from its seed. Panics exercise the quarantine, delays the run
//! budgets.
//!
//! Faults are mutually exclusive per job: a single hash draw in
//! `0..1000` is partitioned into `[0, panic)` → panic,
//! `[panic, panic+delay)` → delay. Delays sleep in small slices and
//! tick the ambient progress token between slices, so a delayed job
//! still stops at its deadline — a delay fault composes with deadline
//! enforcement instead of defeating it.

use gramer::progress;
use std::time::Duration;

/// Per-mille fault rates plus the seed that makes them deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosConfig {
    /// Probability (per mille) that a job panics mid-run.
    pub panic_per_mille: u16,
    /// Probability (per mille) that a job is delayed by
    /// [`ChaosConfig::delay_ms`] before running.
    pub delay_per_mille: u16,
    /// Length of an injected delay, milliseconds.
    pub delay_ms: u64,
    /// Seed for the per-job fault draw.
    pub seed: u64,
}

/// The fault (if any) drawn for one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fault; run normally.
    None,
    /// Panic with a deterministic message.
    Panic,
    /// Sleep for the configured delay, then run normally.
    Delay,
}

impl ChaosConfig {
    /// Parses the CLI form: comma-separated `key=value` with keys
    /// `panic`, `delay` (per mille), `delay-ms`, and `seed`, e.g.
    /// `panic=50,delay=200,delay-ms=40,seed=7`.
    ///
    /// # Errors
    ///
    /// A description of the first malformed field.
    pub fn parse(spec: &str) -> Result<ChaosConfig, String> {
        let mut cfg = ChaosConfig {
            delay_ms: 25,
            ..ChaosConfig::default()
        };
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad chaos field {part:?} (want key=value)"))?;
            let num: u64 = value
                .parse()
                .map_err(|_| format!("bad chaos value in {part:?}"))?;
            let per_mille = || -> Result<u16, String> {
                if num > 1000 {
                    Err(format!("{key} rate {num} exceeds 1000 per mille"))
                } else {
                    Ok(num as u16)
                }
            };
            match key {
                "panic" => cfg.panic_per_mille = per_mille()?,
                "delay" => cfg.delay_per_mille = per_mille()?,
                "delay-ms" => cfg.delay_ms = num,
                "seed" => cfg.seed = num,
                other => return Err(format!("unknown chaos key {other:?}")),
            }
        }
        if cfg.panic_per_mille + cfg.delay_per_mille > 1000 {
            return Err("chaos rates sum past 1000 per mille".to_string());
        }
        Ok(cfg)
    }

    /// The deterministic fault draw for `job_id`.
    pub fn roll(&self, job_id: u64) -> Fault {
        let r = (draw(self.seed, job_id) % 1000) as u16;
        if r < self.panic_per_mille {
            Fault::Panic
        } else if r < self.panic_per_mille + self.delay_per_mille {
            Fault::Delay
        } else {
            Fault::None
        }
    }

    /// Executes the drawn fault at the worker's injection point.
    ///
    /// Returns for [`Fault::None`] and after a completed
    /// [`Fault::Delay`] (a spent run budget unwinds it mid-delay, as it
    /// would the job).
    ///
    /// # Panics
    ///
    /// Deliberately, for [`Fault::Panic`] — that is the fault.
    pub fn inject(&self, job_id: u64) {
        match self.roll(job_id) {
            Fault::None => {}
            Fault::Panic => panic!("chaos: injected panic (job {job_id})"),
            Fault::Delay => {
                // Sleep in slices, ticking the ambient progress token so
                // a spent budget stops the job mid-delay.
                let mut remaining = self.delay_ms;
                while remaining > 0 {
                    let slice = remaining.min(5);
                    std::thread::sleep(Duration::from_millis(slice));
                    progress::tick();
                    remaining -= slice;
                }
            }
        }
    }
}

/// SplitMix64-style avalanche over `(seed, job_id)`.
fn draw(seed: u64, job_id: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(job_id.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_and_validation() {
        let cfg = ChaosConfig::parse("panic=50,delay=200,delay-ms=40,seed=7").expect("valid spec");
        assert_eq!(cfg.panic_per_mille, 50);
        assert_eq!(cfg.delay_per_mille, 200);
        assert_eq!(cfg.delay_ms, 40);
        assert_eq!(cfg.seed, 7);
        assert!(ChaosConfig::parse("panic=700,delay=700").is_err());
        assert!(ChaosConfig::parse("panic=1001").is_err());
        assert!(ChaosConfig::parse("warp=1").is_err());
        assert!(ChaosConfig::parse("io=100").is_err());
        assert!(ChaosConfig::parse("panic").is_err());
    }

    #[test]
    fn quiet_config_never_faults() {
        let cfg = ChaosConfig::default();
        for id in 0..100 {
            assert_eq!(cfg.roll(id), Fault::None);
        }
    }

    #[test]
    fn rolls_are_deterministic() {
        let cfg = ChaosConfig::parse("panic=300,delay=300,seed=42").expect("valid");
        let again = ChaosConfig::parse("panic=300,delay=300,seed=42").expect("valid");
        for id in 0..200 {
            assert_eq!(cfg.roll(id), again.roll(id));
        }
        // The draws the chaos acceptance suite's tally rests on: 14 of
        // jobs 1..=54 panic under seed 42.
        let suite = ChaosConfig::parse("panic=150,delay=150,seed=42").expect("valid");
        let panics = (1..=54).filter(|&id| suite.roll(id) == Fault::Panic);
        assert_eq!(panics.count(), 14);
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let cfg = ChaosConfig::parse("panic=250,delay=250,seed=9").expect("valid");
        let mut counts = [0u32; 3];
        for id in 0..4000 {
            counts[cfg.roll(id) as usize] += 1;
        }
        for (name, n, expected) in [
            ("none", counts[0], 2000),
            ("panic", counts[1], 1000),
            ("delay", counts[2], 1000),
        ] {
            assert!(
                (expected * 6 / 10..=expected * 14 / 10).contains(&n),
                "{name} drawn {n} times out of 4000; expected near {expected}"
            );
        }
    }
}
