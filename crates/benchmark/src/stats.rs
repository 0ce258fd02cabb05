//! Order statistics for the benchmark's samples.

use crate::json::Json;

/// Median of `values` (mean of the two middle elements for even counts).
/// Panics on an empty slice: every caller has taken at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the "exclusive" method), so a spread reported
/// here is the spread the acceptance check computes. Fewer than two
/// samples have no spread: both quartiles are the sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// The `p`-th percentile by nearest rank (the smallest sample with at
/// least `p` of the samples at or below it).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Sample count, extremes, median and interquartile range of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Median.
    pub median: f64,
    /// Largest sample.
    pub max: f64,
    /// Third minus first quartile.
    pub iqr: f64,
}

impl Summary {
    /// Summarize a non-empty sample list.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            n: values.len(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            median: median(values),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            iqr: q3 - q1,
        }
    }

    /// The result-file form, with the metric's unit beside the numbers.
    pub fn to_json(&self, unit: &str) -> Json {
        Json::obj([
            ("unit", Json::Str(unit.to_string())),
            ("n", Json::Num(self.n as f64)),
            ("min", Json::Num(self.min)),
            ("median", Json::Num(self.median)),
            ("max", Json::Num(self.max)),
            ("iqr", Json::Num(self.iqr)),
        ])
    }

    /// Read back what [`Summary::to_json`] wrote.
    pub fn from_json(j: &Json) -> Result<Summary, String> {
        Ok(Summary {
            n: j.num_at("n")? as usize,
            min: j.num_at("min")?,
            median: j.num_at("median")?,
            max: j.num_at("max")?,
            iqr: j.num_at("iqr")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn median_and_percentile_pick_the_expected_ranks() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=240).map(f64::from).collect();
        // 12 samples lie beyond the 95th percentile of 240.
        assert_eq!(percentile(&v, 0.95), 228.0);
        assert_eq!(percentile(&v, 0.50), 120.0);
        let s = Summary::of(&v);
        assert_eq!((s.n, s.min, s.max), (240, 1.0, 240.0));
        assert_eq!(Summary::from_json(&s.to_json("s")).unwrap(), s);
    }
}
