//! Deterministic seeded fault injection for the job supervisor.
//!
//! Graceful degradation is only trustworthy if it is *tested*, and a
//! fault-injection harness is only debuggable if it is *deterministic*.
//! [`ChaosConfig`] carries three per-mille fault probabilities (panic,
//! synthetic I/O error, delay); whether a given `(job, attempt)` is hit
//! — and by what — is a pure function of `(seed, job_id, attempt)`, so
//! a failing chaos run replays exactly from its seed.
//!
//! Faults are mutually exclusive per attempt: a single hash draw in
//! `0..1000` is partitioned into `[0, panic)` → panic,
//! `[panic, panic+io)` → I/O error, `[panic+io, panic+io+delay)` →
//! delay. Delays sleep in small slices and tick the ambient progress
//! token between slices, so a delayed job still stops at its deadline —
//! a delay fault composes with deadline enforcement instead of
//! defeating it.

use gramer::progress;
use gramer::SimError;
use std::time::Duration;

/// Per-mille fault rates plus the seed that makes them deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosConfig {
    /// Probability (per mille) that an attempt panics mid-run.
    pub panic_per_mille: u16,
    /// Probability (per mille) that an attempt fails with a synthetic
    /// (retryable) I/O error.
    pub io_per_mille: u16,
    /// Probability (per mille) that an attempt is delayed by
    /// [`ChaosConfig::delay_ms`] before running.
    pub delay_per_mille: u16,
    /// Length of an injected delay, milliseconds.
    pub delay_ms: u64,
    /// Seed for the per-attempt fault draw.
    pub seed: u64,
}

/// The fault (if any) drawn for one `(job, attempt)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fault; run normally.
    None,
    /// Panic with a deterministic message.
    Panic,
    /// Fail with a synthetic I/O error (retryable).
    IoError,
    /// Sleep for the configured delay, then run normally.
    Delay,
}

impl ChaosConfig {
    /// True when every fault rate is zero (the common production case;
    /// lets the worker skip the injection point entirely).
    pub fn is_quiet(&self) -> bool {
        self.panic_per_mille == 0 && self.io_per_mille == 0 && self.delay_per_mille == 0
    }

    /// Parses the CLI form: comma-separated `key=value` with keys
    /// `panic`, `io`, `delay` (per mille), `delay-ms`, and `seed`, e.g.
    /// `panic=50,io=100,delay=200,delay-ms=40,seed=7`.
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
                "io" => cfg.io_per_mille = per_mille()?,
                "delay" => cfg.delay_per_mille = per_mille()?,
                "delay-ms" => cfg.delay_ms = num,
                "seed" => cfg.seed = num,
                other => return Err(format!("unknown chaos key {other:?}")),
            }
        }
        if u32::from(cfg.panic_per_mille)
            + u32::from(cfg.io_per_mille)
            + u32::from(cfg.delay_per_mille)
            > 1000
        {
            return Err("chaos rates sum past 1000 per mille".to_string());
        }
        Ok(cfg)
    }

    /// The deterministic fault draw for `(job_id, attempt)`.
    pub fn roll(&self, job_id: u64, attempt: u32) -> Fault {
        if self.is_quiet() {
            return Fault::None;
        }
        let r = (draw(self.seed, job_id, attempt) % 1000) as u16;
        if r < self.panic_per_mille {
            Fault::Panic
        } else if r < self.panic_per_mille + self.io_per_mille {
            Fault::IoError
        } else if r < self.panic_per_mille + self.io_per_mille + self.delay_per_mille {
            Fault::Delay
        } else {
            Fault::None
        }
    }

    /// Executes the drawn fault at the worker's injection point.
    ///
    /// Returns `Ok(())` for [`Fault::None`] and after a completed
    /// [`Fault::Delay`]; panics for [`Fault::Panic`]; returns a
    /// synthetic [`SimError`] for [`Fault::IoError`].
    ///
    /// # Errors
    ///
    /// The synthetic I/O fault, as [`SimError::App`] with an
    /// `"injected i/o error"` message the supervisor classifies as
    /// retryable.
    ///
    /// # Panics
    ///
    /// Deliberately, for [`Fault::Panic`] — that is the fault.
    pub fn inject(&self, job_id: u64, attempt: u32) -> Result<(), SimError> {
        match self.roll(job_id, attempt) {
            Fault::None => Ok(()),
            Fault::Panic => panic!("chaos: injected panic (job {job_id} attempt {attempt})"),
            Fault::IoError => Err(SimError::App(format!(
                "chaos: injected i/o error (job {job_id} attempt {attempt})"
            ))),
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
                Ok(())
            }
        }
    }
}

/// True when `message` describes a chaos-injected (retryable) I/O error.
pub fn is_injected_io(message: &str) -> bool {
    message.contains("injected i/o error")
}

/// SplitMix64-style avalanche over `(seed, job_id, attempt)`.
fn draw(seed: u64, job_id: u64, attempt: u32) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(job_id.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(u64::from(attempt).wrapping_mul(0x94d0_49bb_1331_11eb));
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
        let cfg =
            ChaosConfig::parse("panic=50,io=100,delay=200,delay-ms=40,seed=7").expect("valid spec");
        assert_eq!(cfg.panic_per_mille, 50);
        assert_eq!(cfg.io_per_mille, 100);
        assert_eq!(cfg.delay_per_mille, 200);
        assert_eq!(cfg.delay_ms, 40);
        assert_eq!(cfg.seed, 7);
        assert!(ChaosConfig::parse("panic=700,io=700").is_err());
        assert!(ChaosConfig::parse("panic=1001").is_err());
        assert!(ChaosConfig::parse("warp=1").is_err());
        assert!(ChaosConfig::parse("panic").is_err());
    }

    #[test]
    fn quiet_config_never_faults() {
        let cfg = ChaosConfig::default();
        assert!(cfg.is_quiet());
        for id in 0..100 {
            assert_eq!(cfg.roll(id, 0), Fault::None);
        }
    }

    #[test]
    fn rolls_are_deterministic_and_attempt_sensitive() {
        let cfg = ChaosConfig::parse("panic=300,io=300,delay=300,seed=42").expect("valid");
        let again = ChaosConfig::parse("panic=300,io=300,delay=300,seed=42").expect("valid");
        let mut differs_by_attempt = false;
        for id in 0..200 {
            assert_eq!(cfg.roll(id, 0), again.roll(id, 0));
            assert_eq!(cfg.roll(id, 1), again.roll(id, 1));
            if cfg.roll(id, 0) != cfg.roll(id, 1) {
                differs_by_attempt = true;
            }
        }
        assert!(differs_by_attempt, "attempt number should reshuffle faults");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let cfg = ChaosConfig::parse("panic=250,io=250,delay=250,seed=9").expect("valid");
        let mut counts = [0u32; 4];
        for id in 0..4000 {
            let idx = match cfg.roll(id, 0) {
                Fault::None => 0,
                Fault::Panic => 1,
                Fault::IoError => 2,
                Fault::Delay => 3,
            };
            counts[idx] += 1;
        }
        for (name, n) in [
            ("none", counts[0]),
            ("panic", counts[1]),
            ("io", counts[2]),
            ("delay", counts[3]),
        ] {
            assert!(
                (600..=1400).contains(&n),
                "{name} drawn {n} times out of 4000; expected near 1000"
            );
        }
    }

    #[test]
    fn injected_io_error_is_recognizable() {
        let cfg = ChaosConfig::parse("io=1000,seed=1").expect("valid");
        let err = cfg.inject(3, 0).expect_err("io fault");
        assert!(is_injected_io(&err.to_string()));
    }
}
