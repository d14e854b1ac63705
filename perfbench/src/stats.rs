//! The benchmark's own arithmetic: percentiles, the open-loop send
//! schedule and score-matched recall. Kept free of any SARN type so the
//! unit tests below pin it on hand-made inputs.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it. `None` when empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Whether a run of `n` samples supports percentile `p`: at least ten
/// samples must lie beyond it.
pub fn supports_tail(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p / 100.0) >= 10.0
}

/// Nearest-rank percentile `p` of unsorted samples; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, p).unwrap_or(0.0)
}

/// Median (nearest-rank p50) of unsorted samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Smallest sample; 0 when empty. Set-up times are reported this way:
/// the host only ever slows a set-up down, so the fastest of several is
/// the one least moved by it.
pub fn fastest(samples: &[f64]) -> f64 {
    percentile(samples, 0.0)
}

/// A latency sample set summarised by nearest-rank percentiles, always
/// reported together with its sample count.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn extend(&mut self, other: Samples) {
        self.values.extend(other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The samples in the order they were taken.
    #[cfg(test)]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Percentile `p`, or `None` when the samples cannot support it (a
    /// tail needs ten samples beyond it; the median needs one sample).
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if p > 50.0 && !supports_tail(self.values.len(), p) {
            return None;
        }
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        nearest_rank(&v, p)
    }

    pub fn p50(&self) -> f64 {
        self.percentile(50.0).unwrap_or(0.0)
    }

    /// `p1 .. p10 .. p50 .. p99 <unit> over <n> samples`, with the tail marked
    /// unsupported when fewer than ten samples lie beyond it.
    pub fn describe(&self, unit: &str) -> String {
        let p99 = self
            .percentile(99.0)
            .map_or("n/a (under 10 samples beyond)".to_string(), |v| {
                format!("{v:.4}")
            });
        format!(
            "p1 {:.4} p10 {:.4} p50 {:.4} p99 {p99} {unit} over {} samples",
            self.percentile(1.0).unwrap_or(0.0),
            self.percentile(10.0).unwrap_or(0.0),
            self.p50(),
            self.len()
        )
    }
}

/// Open-loop schedule: request `i` is due `i / rate` seconds after the
/// start, whether or not earlier requests have finished. Latency is
/// timed from the due instant, so a stall also charges the wait it
/// imposes on the requests scheduled behind it.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub start: Instant,
    pub rate_per_s: f64,
    pub duration: Duration,
}

impl Schedule {
    /// Due instant of request `i`.
    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.rate_per_s)
    }

    /// Number of requests due within the duration.
    pub fn total(&self) -> u64 {
        (self.duration.as_secs_f64() * self.rate_per_s).floor() as u64
    }

    /// The requests generator `thread` of `threads` sends: every
    /// `threads`-th index, so the generators jointly cover the schedule
    /// exactly once.
    pub fn indices(&self, thread: usize, threads: usize) -> impl Iterator<Item = u64> {
        (thread as u64..self.total()).step_by(threads.max(1))
    }
}

/// Score-matched recall@k: a returned neighbour is a hit when its true
/// score reaches the k-th best true score, so a neighbour that ties the
/// k-th exactly counts even if the reference picked the other id.
/// `truth` holds the exact top-k scores in descending order; `returned`
/// holds the exact (recomputed) scores of the ids the system returned.
pub fn score_matched_hits(truth: &[f32], returned: &[f32], k: usize) -> usize {
    let Some(&kth) = truth.get(k.saturating_sub(1)).or(truth.last()) else {
        return 0;
    };
    returned.iter().take(k).filter(|&&s| s >= kth).count()
}

/// Share of keys that repeat an earlier key of the same sequence.
pub fn repeated_share(keys: &[usize]) -> f64 {
    if keys.is_empty() {
        return 0.0;
    }
    let mut seen = std::collections::HashSet::with_capacity(keys.len());
    let repeats = keys.iter().filter(|k| !seen.insert(**k)).count();
    repeats as f64 / keys.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_p() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        // Odd count: the middle sample, not an interpolation.
        assert_eq!(nearest_rank(&[1.0, 2.0, 10.0], 50.0), Some(2.0));
    }

    #[test]
    fn tails_need_ten_samples_beyond_them() {
        assert!(!supports_tail(999, 99.0));
        assert!(supports_tail(1000, 99.0));
        let mut s = Samples::default();
        for i in 0..999 {
            s.push(f64::from(i));
        }
        assert_eq!(s.percentile(99.0), None);
        s.push(999.0);
        assert_eq!(s.len(), 1000);
        assert_eq!(s.percentile(99.0), Some(989.0));
        assert_eq!(s.p50(), 499.0);
    }

    #[test]
    fn median_and_fastest_of_unsorted_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn schedule_is_evenly_spaced_and_split_without_overlap() {
        let start = Instant::now();
        let s = Schedule {
            start,
            rate_per_s: 200.0,
            duration: Duration::from_secs(2),
        };
        assert_eq!(s.total(), 400);
        assert_eq!(s.due(0), start);
        assert_eq!(s.due(200) - start, Duration::from_secs(1));
        assert_eq!(s.due(1) - start, Duration::from_millis(5));
        let mut all: Vec<u64> = (0..3).flat_map(|t| s.indices(t, 3)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..400).collect::<Vec<_>>());
        assert_eq!(s.indices(1, 3).take(3).collect::<Vec<_>>(), vec![1, 4, 7]);
    }

    #[test]
    fn recall_counts_exact_ties_with_the_kth_score() {
        // Truth top-2 is {a: 0.9, b: 0.8}; c also scores 0.8.
        let truth = [0.9f32, 0.8];
        assert_eq!(score_matched_hits(&truth, &[0.9, 0.8], 2), 2);
        // Returning the tied c instead of b is still a full hit.
        assert_eq!(score_matched_hits(&truth, &[0.8, 0.9], 2), 2);
        // A neighbour below the k-th score is a miss.
        assert_eq!(score_matched_hits(&truth, &[0.9, 0.7999], 2), 1);
        assert_eq!(score_matched_hits(&truth, &[0.9], 2), 1);
        assert_eq!(score_matched_hits(&[], &[0.9], 2), 0);
    }

    #[test]
    fn repeated_share_counts_later_occurrences() {
        assert_eq!(repeated_share(&[1, 2, 3, 4]), 0.0);
        assert_eq!(repeated_share(&[1, 1, 2, 1]), 0.5);
        assert_eq!(repeated_share(&[]), 0.0);
    }
}
