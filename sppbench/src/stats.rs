//! Order statistics used by every workload.

/// The median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile (0–100) by linear interpolation between closest
/// ranks, the same rule as Python's `statistics.quantiles(..., method=
/// "inclusive")` and NumPy's default. The rank is never rounded, so a
/// small sample does not silently report its maximum as a high
/// percentile. 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if sorted[lo] == sorted[hi] {
        // Also keeps an infinite (lost) sample from turning into NaN.
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// A percentile together with the sample count it was taken over, so a
/// reader can judge how many samples lie beyond it.
#[derive(Clone, Copy, Debug)]
pub struct Pct {
    pub value: f64,
    pub samples: usize,
}

impl Pct {
    pub fn of(values: &[f64], p: f64) -> Pct {
        Pct {
            value: percentile(values, p),
            samples: values.len(),
        }
    }
}

impl std::fmt::Display for Pct {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} (n={})", self.value, self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_without_rounding_the_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        // Rank 0.99 * 3 = 2.97: interpolated, not rounded up to the max.
        assert!((percentile(&v, 99.0) - 3.97).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(
            percentile(&[1.0, f64::INFINITY, f64::INFINITY], 99.0),
            f64::INFINITY
        );
    }
}
