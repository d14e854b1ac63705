//! Quantile estimation over fixed-boundary histogram buckets.
//!
//! One shared implementation of the Prometheus-style cumulative-bucket
//! walk with linear interpolation, behind
//! [`crate::HistogramSnapshot::quantile`], plus the bucket lookup that
//! [`crate::Histogram`] records with. They are free functions over plain
//! slices, so a bucketed count kept outside a [`crate::Histogram`] reads
//! the same quantile an exported histogram would.

/// Index of the bucket `v` falls in for strictly increasing upper
/// `boundaries`: the first boundary `>= v`, or the overflow bucket
/// (`boundaries.len()`) when every boundary is below `v` — which is
/// also where NaN goes. Bucket `i` covers `(boundaries[i-1],
/// boundaries[i]]`, bucket 0 covers `(-inf, boundaries[0]]`.
pub fn bucket_index(boundaries: &[f64], v: f64) -> usize {
    if v.is_nan() {
        return boundaries.len();
    }
    boundaries.partition_point(|&b| b < v)
}

/// Estimates the `q`-quantile (`0.0..=1.0`) of the distribution held in
/// histogram buckets: `counts` has one entry per boundary plus the
/// trailing overflow bucket (`counts.len() == boundaries.len() + 1`).
///
/// The estimate walks the cumulative counts to the bucket containing
/// the quantile rank and interpolates linearly inside it (bucket 0
/// interpolates from 0.0; the overflow bucket clamps to the last
/// boundary, as Prometheus' `histogram_quantile` does). Returns `None`
/// when the histogram is empty or the shapes disagree.
pub fn quantile_from_buckets(boundaries: &[f64], counts: &[u64], q: f64) -> Option<f64> {
    if counts.len() != boundaries.len() + 1 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    // 1-based rank of the quantile observation, clamped into [1, total].
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let next = seen + c;
        if rank <= next {
            if i == boundaries.len() {
                // Overflow bucket: no upper bound to interpolate toward.
                return boundaries.last().copied();
            }
            let lower = if i == 0 { 0.0 } else { boundaries[i - 1] };
            let upper = boundaries[i];
            let into = (rank - seen) as f64 / c as f64;
            return Some(lower + (upper - lower) * into);
        }
        seen = next;
    }
    boundaries.last().copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_the_histogram_convention() {
        let b = [1.0, 10.0, 100.0];
        assert_eq!(bucket_index(&b, -5.0), 0);
        assert_eq!(bucket_index(&b, 1.0), 0);
        assert_eq!(bucket_index(&b, 1.0001), 1);
        assert_eq!(bucket_index(&b, 100.0), 2);
        assert_eq!(bucket_index(&b, 1e9), 3);
        assert_eq!(bucket_index(&b, f64::NAN), 3);
    }

    #[test]
    fn empty_and_misshapen_inputs_yield_none() {
        let b = [1.0, 2.0];
        assert_eq!(quantile_from_buckets(&b, &[0, 0, 0], 0.5), None);
        assert_eq!(quantile_from_buckets(&b, &[1, 1], 0.5), None); // wrong shape
        assert_eq!(quantile_from_buckets(&b, &[1, 1, 1], 1.5), None); // bad q
    }

    #[test]
    fn point_mass_lands_in_its_bucket() {
        // All mass in (1, 2]: every quantile interpolates inside it.
        let b = [1.0, 2.0, 3.0];
        let counts = [0, 10, 0, 0];
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = quantile_from_buckets(&b, &counts, q).expect("non-empty");
            assert!((1.0..=2.0).contains(&v), "q={q} -> {v}");
        }
        assert_eq!(quantile_from_buckets(&b, &counts, 1.0), Some(2.0));
    }

    #[test]
    fn uniform_mass_interpolates_linearly() {
        // 100 observations spread evenly over (0, 1]: p50 = 0.5, p99 = 0.99.
        let b = [1.0];
        let counts = [100, 0];
        let p50 = quantile_from_buckets(&b, &counts, 0.5).expect("p50");
        let p99 = quantile_from_buckets(&b, &counts, 0.99).expect("p99");
        assert!((p50 - 0.5).abs() < 1e-9, "p50 = {p50}");
        assert!((p99 - 0.99).abs() < 1e-9, "p99 = {p99}");
    }

    #[test]
    fn two_bucket_median_sits_at_the_shared_boundary() {
        // Half the mass in (0,1], half in (1,2]: the median is the
        // boundary between them.
        let b = [1.0, 2.0];
        let counts = [50, 50, 0];
        let p50 = quantile_from_buckets(&b, &counts, 0.5).expect("p50");
        assert!((p50 - 1.0).abs() < 1e-9, "p50 = {p50}");
        let p75 = quantile_from_buckets(&b, &counts, 0.75).expect("p75");
        assert!((p75 - 1.5).abs() < 1e-9, "p75 = {p75}");
    }

    #[test]
    fn overflow_mass_clamps_to_the_last_boundary() {
        let b = [1.0, 2.0];
        let counts = [10, 0, 90];
        assert_eq!(quantile_from_buckets(&b, &counts, 0.99), Some(2.0));
        // But quantiles inside the finite range still interpolate.
        let p05 = quantile_from_buckets(&b, &counts, 0.05).expect("p05");
        assert!((0.0..=1.0).contains(&p05));
    }

    #[test]
    fn skewed_distribution_matches_hand_computed_p99() {
        // 990 fast (0..=1ms], 10 slow in (10ms, 25ms]: rank 990 of 1000
        // is the last fast observation -> exactly the 1ms boundary.
        let b = [0.001, 0.01, 0.025];
        let counts = [990, 0, 10, 0];
        let p99 = quantile_from_buckets(&b, &counts, 0.99).expect("p99");
        assert!((p99 - 0.001).abs() < 1e-12, "p99 = {p99}");
        // One more rank into the tail bucket interpolates into it.
        let p995 = quantile_from_buckets(&b, &counts, 0.995).expect("p995");
        assert!((0.01..=0.025).contains(&p995), "p995 = {p995}");
    }
}
