//! Order statistics over run samples.

/// Median of `xs` (mean of the middle pair for even counts); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Linear-interpolated percentile `q ∈ [0, 1]` of `xs`; NaN when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || v[lo] == v[hi] {
        return v[lo];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail reported as "p99": the 99th percentile when at least ten
/// samples lie beyond it, else the highest percentile that keeps ten
/// beyond (the median for fewer than 20 samples). Returns the quantile
/// used and its value.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let q = ((n - 10.0) / n).clamp(0.5, 0.99);
    (q, percentile(xs, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 0.99), 9.9);
        assert!(median(&[]).is_nan());
        // failed requests enter latency lists as +inf
        assert_eq!(
            percentile(&[1.0, f64::INFINITY, f64::INFINITY], 1.0),
            f64::INFINITY
        );
        assert_eq!(percentile(&[1.0, 2.0, f64::INFINITY], 0.5), 2.0);
        let many: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(tail(&many).0, 0.99);
        let few: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(tail(&few), (0.75, 29.25));
        assert_eq!(tail(&few[..10]).0, 0.5);
    }
}
