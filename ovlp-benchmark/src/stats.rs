//! Order statistics for timing samples.
//!
//! Quartiles use the same "exclusive" method as Python's
//! `statistics.quantiles(values, n=4)`, so spreads computed here match
//! spreads computed from the printed results with Python.

/// Median of `values` (mean of the middle two for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile, exclusive method (Python's default).
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        // negative for tiny samples: the method extrapolates past the ends
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The highest whole percentile `p` (50..=99) that still has at least
/// ten samples above it, with its nearest-rank value. `None` when even
/// the median lacks ten samples beyond it (fewer than 20 samples).
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let v = sorted(values);
    let n = v.len();
    (50..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100).max(1);
        (n - rank >= 10).then(|| (p, v[rank - 1]))
    })
}

/// Failed operations as a share of attempted ones; a run that attempted
/// nothing has failed outright.
pub fn fail_ratio(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Median, quartiles and count of one sample set, for reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Option<Summary> {
        let median = median(values)?;
        let (q1, q3) = quartiles(values).unwrap_or((median, median));
        Some(Summary {
            n: values.len(),
            median,
            q1,
            q3,
        })
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.6} (q1 {:.6}, q3 {:.6}, n {})",
            self.median, self.q1, self.q3, self.n
        )
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 19]), None);
        // 20 samples: only the median has ten beyond it
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50, 10.0)));
        // 100 samples: p90 is the 90th value, ten lie above it
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90, 90.0)));
        // 120 samples: p91 is the highest with ten beyond it
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        let (p, value) = tail(&v).unwrap();
        assert_eq!(p, 91);
        assert_eq!(value, 110.0);
        assert!(v.iter().filter(|&&x| x > value).count() >= 10);
    }

    #[test]
    fn failed_and_refused_operations_count_against_the_ratio() {
        assert_eq!(fail_ratio(10, 0), 0.0);
        assert_eq!(fail_ratio(10, 2), 0.2);
        assert_eq!(fail_ratio(0, 0), 1.0);
    }

    #[test]
    fn summary_reports_count_and_quartiles() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!((s.n, s.median, s.q1, s.q3), (5, 3.0, 1.5, 4.5));
        assert_eq!(Summary::of(&[]), None);
    }
}
