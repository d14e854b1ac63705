//! Per-request time budgets.

use std::time::{Duration, Instant};

use crate::error::ServeError;

/// A per-request deadline: a start instant plus an optional budget.
///
/// Query paths call [`Deadline::check`] at bounded intervals (every few
/// hundred rows inside the exact k-NN scan), so a request against a huge generation returns a typed
/// [`ServeError::DeadlineExceeded`] within one probe interval of its
/// budget instead of holding its admission slot indefinitely.
///
/// Hot scan loops hoist [`Deadline::expires_at`] once and probe with
/// [`Deadline::check_against`], so each probe is a single clock read and
/// a comparison instead of re-deriving the expiry at every probe. Fan-out paths (the shard router) carve
/// the *remaining* budget into per-shard slices with [`Deadline::split`].
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    start: Instant,
    budget: Option<Duration>,
}

impl Deadline {
    /// A deadline that never expires.
    pub fn unbounded() -> Self {
        Self {
            start: Instant::now(),
            budget: None,
        }
    }

    /// A deadline expiring `budget` from now.
    pub fn within(budget: Duration) -> Self {
        Self {
            start: Instant::now(),
            budget: Some(budget),
        }
    }

    /// A deadline with an optional budget (`None` = unbounded) — the shape
    /// of [`crate::ServeConfig::default_deadline`].
    pub fn from_budget(budget: Option<Duration>) -> Self {
        Self {
            start: Instant::now(),
            budget,
        }
    }

    /// Elapsed time since the request started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// The budget this deadline was created with (`None` = unbounded).
    pub fn budget(&self) -> Option<Duration> {
        self.budget
    }

    /// Budget still unspent (`None` = unbounded, zero once expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.budget.map(|b| b.saturating_sub(self.start.elapsed()))
    }

    /// Splits the *remaining* budget into `n` equal slices and returns a
    /// fresh deadline carrying one of them. The router hands each shard
    /// of a fan-out `deadline.split(live_shards)` so one slow shard can
    /// exhaust only its slice of the request budget, never the whole
    /// request; batched queries hand request `i` of `m` remaining a
    /// `split(m)` so early finishers donate leftover budget to later
    /// requests. Unbounded stays unbounded; `n == 0` is treated as 1.
    pub fn split(&self, n: usize) -> Deadline {
        let n = n.max(1) as u32;
        Deadline {
            start: Instant::now(),
            budget: self.remaining().map(|r| r / n),
        }
    }

    /// The instant this deadline expires, precomputed so scan loops can
    /// probe with one clock read per check ([`Deadline::check_against`]).
    /// `None` means no expiry: either unbounded, or a budget so large the
    /// instant is unrepresentable (practically the same thing).
    pub fn expires_at(&self) -> Option<Instant> {
        self.budget.and_then(|b| self.start.checked_add(b))
    }

    /// `Ok` while inside the budget, typed [`ServeError::DeadlineExceeded`]
    /// once past it.
    pub fn check(&self) -> Result<(), ServeError> {
        self.check_against(self.expires_at())
    }

    /// [`Deadline::check`] against a hoisted [`Deadline::expires_at`]
    /// value: the per-probe cost is one `Instant::now()` and a compare
    /// (nothing at all when unbounded), instead of re-adding the budget to
    /// the start instant on every probe inside a per-row loop.
    pub fn check_against(&self, expires_at: Option<Instant>) -> Result<(), ServeError> {
        match expires_at {
            Some(expiry) if Instant::now() >= expiry => Err(ServeError::DeadlineExceeded {
                elapsed: self.start.elapsed(),
                budget: self.budget.unwrap_or_default(),
            }),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_expires() {
        Deadline::unbounded().check().expect("unbounded deadline");
        Deadline::from_budget(None).check().expect("no budget");
        assert!(Deadline::unbounded().remaining().is_none());
        assert!(Deadline::unbounded().expires_at().is_none());
    }

    #[test]
    fn zero_budget_expires_immediately_and_is_typed() {
        let d = Deadline::within(Duration::ZERO);
        match d.check() {
            Err(ServeError::DeadlineExceeded { budget, .. }) => {
                assert_eq!(budget, Duration::ZERO)
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn generous_budget_passes() {
        Deadline::within(Duration::from_secs(3600))
            .check()
            .expect("hour-long budget");
    }

    #[test]
    fn check_against_matches_check() {
        let d = Deadline::within(Duration::from_secs(3600));
        let expiry = d.expires_at();
        assert!(expiry.is_some());
        d.check_against(expiry).expect("inside the budget");
        let expired = Deadline::within(Duration::ZERO);
        assert!(expired.check_against(expired.expires_at()).is_err());
    }

    #[test]
    fn split_divides_the_remaining_budget() {
        let d = Deadline::within(Duration::from_secs(4));
        let slice = d.split(4);
        let got = slice.budget().expect("bounded slice");
        // Remaining was at most 4 s when split; each of 4 slices gets at
        // most 1 s (and nearly exactly that — the test runs in microseconds).
        assert!(got <= Duration::from_secs(1));
        assert!(got > Duration::from_millis(900), "slice {got:?}");
        // Unbounded splits stay unbounded; n == 0 collapses to 1 slice.
        assert!(Deadline::unbounded().split(8).budget().is_none());
        let whole = d.split(0).budget().expect("one slice");
        assert!(whole > Duration::from_secs(3));
    }

    #[test]
    fn expired_deadline_splits_to_zero_not_panic() {
        let d = Deadline::within(Duration::ZERO);
        let slice = d.split(3);
        assert_eq!(slice.budget(), Some(Duration::ZERO));
        assert!(slice.check().is_err());
    }

    #[test]
    fn huge_budgets_saturate_to_no_expiry_instead_of_overflowing() {
        let d = Deadline::within(Duration::MAX);
        // `start + MAX` is unrepresentable: treated as never-expiring.
        assert!(d.expires_at().is_none());
        d.check().expect("saturated budget never expires");
    }
}
