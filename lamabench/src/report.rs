//! Metric values, the percentile helper and the results writer.
//!
//! The writer is the only place JSON is produced. It prints `null` for a
//! non-finite number (an empty fleet's worst power is `-inf`, a ratio
//! over zero samples is NaN) and refuses metric names outside
//! `[A-Za-z0-9_.-]+`, so every line the benchmark prints parses.

use std::fmt::Write as _;

/// One named measurement with its unit and the samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Observations the value was computed from (ops for a latency
    /// percentile, runs for a setup median, 1 for a single reading).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// Nearest-rank percentile (`p` in percent) of unsorted samples: the
/// smallest sample with at least `p`% of the samples at or below it.
/// NaN for no samples; with fewer than `100 / (100 - p)` samples the
/// rank reaches the maximum, which is the honest answer.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (NaN for none).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `num / den`, or 0 when nothing was measured (a layer the workload
/// never entered did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Whether `name` may appear as a JSON metric key.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// A JSON number, or `null` when the value is NaN or infinite.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest round-tripping form with every
        // significant digit.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal (escapes quotes, backslashes and control
/// characters).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": u[, "samples": n]}, ...}`. Fails on
/// the first name outside `[A-Za-z0-9_.-]+`.
pub fn metrics_object(metrics: &[Metric], with_samples: bool) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}",
            json_string(m.name),
            json_number(m.value),
            json_string(m.unit)
        );
        if with_samples {
            let _ = write!(out, ", \"samples\": {}", m.samples);
        }
        out.push('}');
    }
    out.push('}');
    Ok(out)
}

/// The result line the benchmark ends with.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[Metric],
) -> Result<String, String> {
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        metrics_object(metrics, false)?
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_values_serialize_as_null() {
        let metrics = [
            Metric::new("empty.min_dbm", "dBm", f64::NEG_INFINITY, 0),
            Metric::new("up", "x", f64::INFINITY, 0),
            Metric::new("nan", "ratio", f64::NAN, 0),
            Metric::new("ok", "ms", 1.25, 3),
        ];
        let line = result_line(true, 3, 0, &metrics).expect("valid names");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"empty.min_dbm\": {\"value\": null, \"unit\": \"dBm\"}, \
             \"up\": {\"value\": null, \"unit\": \"x\"}, \
             \"nan\": {\"value\": null, \"unit\": \"ratio\"}, \
             \"ok\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn names_outside_the_alphabet_are_rejected() {
        for bad in ["", "has space", "quote\"", "slash/x", "µs", "a,b"] {
            assert!(!valid_name(bad), "{bad:?} must be rejected");
            let err = metrics_object(&[Metric::new(bad, "s", 1.0, 1)], true);
            assert!(err.is_err(), "{bad:?} must not serialize");
        }
        for good in ["setup_s", "sim.advance_ms", "server.job_ms.maxmin", "p-99"] {
            assert!(valid_name(good), "{good:?} must be accepted");
        }
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn percentile_at_the_sample_count_edge() {
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        // Fewer than 100 samples: p99 is the maximum.
        let few: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&few, 99.0), 99.0);
        // Exactly 100 samples: p99 is the 99th, leaving one above it.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
