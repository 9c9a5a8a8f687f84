//! The derived quantities the paper reports across runs: loop speedup and
//! its geometric mean (Figure 7's summary statistic).

/// Speedup of `parallel` cycles relative to `sequential` cycles.
#[must_use]
pub fn speedup(sequential_cycles: u64, parallel_cycles: u64) -> f64 {
    if parallel_cycles == 0 {
        return 0.0;
    }
    sequential_cycles as f64 / parallel_cycles as f64
}

/// Geometric mean of a slice of speedups (the paper's summary statistic in
/// Figure 7).
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_and_geomean() {
        assert!((speedup(200, 100) - 2.0).abs() < 1e-12);
        assert_eq!(speedup(100, 0), 0.0);
        let g = geomean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
