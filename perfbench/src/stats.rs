//! Exact order statistics over raw samples.
//!
//! Every quantile the benchmark reports comes from the full list of samples
//! it recorded, never from histogram buckets, and is printed next to the
//! number of samples it was taken from.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, interpolating linearly
/// between the two closest ranks (the method of Python's
/// `statistics.quantiles(..., method="inclusive")` and of NumPy's default).
/// `None` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_samples() {
        let s: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 0.5), Some(3.0));
        assert_eq!(quantile(&s, 1.0), Some(5.0));
        assert_eq!(quantile(&s, 0.25), Some(2.0));
        // Interpolates between ranks: 1..=4 has its median halfway.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // 1..=100: p99 sits 0.01 of the way from 99 to 100.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p99 = quantile(&hundred, 0.99).unwrap();
        assert!((p99 - 99.01).abs() < 1e-9, "{p99}");
        let p90 = quantile(&hundred, 0.9).unwrap();
        assert!((p90 - 90.1).abs() < 1e-9, "{p90}");
    }

    #[test]
    fn quantiles_ignore_input_order_and_handle_edges() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&[9.0, 1.0, 5.0], 0.5), Some(5.0));
        assert_eq!(median(&[2.0, 2.0, 100.0]), Some(2.0));
    }
}
