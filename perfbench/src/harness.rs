//! Sample statistics, failure accounting and the output format.

use std::fmt::Write as _;

/// Median of the samples (mean of the two middle ones for an even count;
/// `NaN` when there are none).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Fewest samples that must lie strictly above a percentile before it is
/// reported; with fewer, the tail estimate rests on too few samples.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in percent), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n.saturating_sub(rank) < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Attempted and failed operations. A failed or refused operation also
/// enters the latency samples as an infinite latency, so it misses every
/// percentile limit instead of vanishing from the sample.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure, printed to standard error.
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, reason: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.reasons.push(reason.into());
    }

    /// Counts one operation as passed or failed on `ok`.
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        if ok {
            self.ok();
        } else {
            self.fail(reason());
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Time or memory of the simulator process on this host.
    Host,
    /// What the simulated accelerator would take; exact and repeatable.
    Modeled,
    /// A count or ratio that is neither.
    Count,
}

impl Clock {
    fn tag(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Modeled => "modeled",
            Clock::Count => "count",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub value: f64,
    /// Free-form note such as the sample count, shown in the table only.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, clock: Clock, value: f64) -> Metric {
        Metric {
            name,
            unit,
            clock,
            value,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// The human-readable table: one metric per line with value, unit and
/// clock.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("== {title} ==\n");
    for m in metrics {
        let _ = writeln!(
            out,
            "{:<32} {:>16} {:<8} [{}]{}{}",
            m.name,
            fmt_value(m.value),
            m.unit,
            m.clock.tag(),
            if m.note.is_empty() { "" } else { "  " },
            m.note
        );
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and each metric's value (all digits) and unit. A value that is not
/// finite is written as `null`.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct(),
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gramer::json::JsonValue;

    #[test]
    fn median_of_odd_even_and_unsorted_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p95 of 199 samples: rank 190, 9 beyond -> withheld.
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), None);
        // p95 of 200 samples: rank 190, 10 beyond -> reported.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), Some(190.0));
        // Ten samples support no percentile above the 0th.
        assert_eq!(percentile(&[1.0; 10], 50.0), None);
        // p90 of 100 unsorted samples: rank 90, 10 beyond.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 91.0), None);
    }

    #[test]
    fn failed_operations_count_against_attempts_and_latency() {
        let mut t = Tally::default();
        assert!(!t.correct(), "nothing attempted is not a pass");
        t.ok();
        t.check(true, || unreachable!());
        t.check(false, || "report differs".to_string());
        assert_eq!((t.attempted, t.failed), (3, 1));
        assert!((t.fail_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert!(!t.correct());
        // A failed job's infinite latency lands in the tail, not the middle.
        let mut lat: Vec<f64> = (1..=220).map(f64::from).collect();
        lat.push(f64::INFINITY);
        assert!(percentile(&lat, 95.0).unwrap().is_finite());
        assert_eq!(percentile(&lat, 99.9), None);
        t.fail("refused");
        assert_eq!((t.attempted, t.failed, t.reasons.len()), (4, 2, 2));
    }

    #[test]
    fn output_labels_every_metric_with_its_unit() {
        let ms = vec![
            Metric::new("wall_s", "s", Clock::Host, 1.25).note("n=7"),
            Metric::new("sim_cycles", "cycles", Clock::Modeled, 1234.0),
            Metric::new("job_p95_ms", "ms", Clock::Host, f64::INFINITY),
        ];
        let text = table("demo", &ms);
        assert!(text.contains("wall_s") && text.contains(" s ") && text.contains("[host]"));
        assert!(text.contains("1234") && text.contains("cycles") && text.contains("[modeled]"));
        let mut t = Tally::default();
        t.ok();
        let line = result_line(&t, &ms);
        let doc = JsonValue::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(JsonValue::as_u64), Some(1));
        let metrics = doc.get("metrics").unwrap();
        let wall = metrics.get("wall_s").unwrap();
        assert_eq!(wall.get("unit").and_then(JsonValue::as_str), Some("s"));
        assert_eq!(wall.get("value").and_then(JsonValue::as_f64), Some(1.25));
        assert_eq!(
            metrics.get("job_p95_ms").unwrap().get("value"),
            Some(&JsonValue::Null)
        );
    }
}
