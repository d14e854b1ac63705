//! Request generators for the read paths: an open loop on a fixed
//! schedule and a closed loop of waiting clients. Requests are numbered,
//! and callers derive each key from the seed and that number, so which
//! thread sends a request never changes its key.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::stats::{Samples, Schedule};

/// How one request ended, as the failure accounting counts it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Answered with complete coverage and a well-formed answer.
    Ok,
    /// Answered, but some shard did not contribute.
    Partial,
    /// Refused by admission control.
    Shed,
    /// Any other error, or an answer that fails the shape check.
    Failed,
}

/// Attempted / succeeded / failed / shed / partial-coverage counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub shed: u64,
    pub partial: u64,
}

impl Tally {
    pub fn record(&mut self, o: Outcome) {
        self.attempted += 1;
        match o {
            Outcome::Ok => self.succeeded += 1,
            Outcome::Partial => self.partial += 1,
            Outcome::Shed => self.shed += 1,
            Outcome::Failed => self.failed += 1,
        }
    }

    pub fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.succeeded += o.succeeded;
        self.failed += o.failed;
        self.shed += o.shed;
        self.partial += o.partial;
    }

    /// Requests that did not succeed: errors, sheds and partial answers.
    pub fn unsuccessful(&self) -> u64 {
        self.failed + self.shed + self.partial
    }

    pub fn describe(&self) -> String {
        format!(
            "attempted={} succeeded={} failed={} shed={} partial={}",
            self.attempted, self.succeeded, self.failed, self.shed, self.partial
        )
    }
}

/// What an open-loop phase measured.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Latency from each request's due instant to its answer, in ms.
    pub latency_ms: Samples,
    /// How late the generator sent each request, in ms.
    pub late_ms: Samples,
    pub tally: Tally,
    pub keys: Vec<usize>,
}

/// Sends `schedule.total()` requests from `threads` generator threads,
/// each sleeping until its next request is due. A generator that falls
/// behind sends at once; its lateness is recorded and the latency still
/// counts from the due instant. `call(i)` performs request `i` and
/// returns how it ended and the key it used.
pub fn open_loop(
    schedule: Schedule,
    threads: usize,
    call: impl Fn(u64) -> (Outcome, usize) + Sync,
) -> OpenLoop {
    let merged = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for t in 0..threads {
            let (merged, call) = (&merged, &call);
            s.spawn(move || {
                let mut part = OpenLoop::default();
                let mut keyed = Vec::new();
                for i in schedule.indices(t, threads) {
                    let due = schedule.due(i);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let (outcome, key) = call(i);
                    let done = Instant::now();
                    part.latency_ms
                        .push(ms(done.saturating_duration_since(due)));
                    part.late_ms.push(ms(sent.saturating_duration_since(due)));
                    part.tally.record(outcome);
                    keyed.push((i, key));
                }
                merged
                    .lock()
                    .expect("a generator thread panicked while merging")
                    .push((part, keyed));
            });
        }
    });
    let mut out = OpenLoop::default();
    let mut keyed = Vec::new();
    for (part, k) in merged
        .into_inner()
        .expect("a generator thread panicked while merging")
    {
        out.latency_ms.extend(part.latency_ms);
        out.late_ms.extend(part.late_ms);
        out.tally.add(part.tally);
        keyed.extend(k);
    }
    keyed.sort_unstable();
    out.keys = keyed.into_iter().map(|(_, k)| k).collect();
    out
}

/// What a closed-loop phase measured.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    pub completed: u64,
    pub seconds: f64,
    pub tally: Tally,
}

impl ClosedLoop {
    pub fn per_second(&self) -> f64 {
        self.completed as f64 / self.seconds.max(1e-9)
    }
}

/// `clients` threads each send their next request as soon as the last
/// one answers, for `duration`; client `c` sends requests `c`, `c +
/// clients`, ... Completions count successes only.
pub fn closed_loop(
    duration: Duration,
    clients: usize,
    call: impl Fn(u64) -> Outcome + Sync,
) -> ClosedLoop {
    let tallies = Mutex::new(Tally::default());
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let (tallies, stop, call) = (&tallies, &stop, &call);
            s.spawn(move || {
                let mut tally = Tally::default();
                let mut i = c as u64;
                while !stop.load(Ordering::Relaxed) {
                    tally.record(call(i));
                    i += clients as u64;
                    if start.elapsed() >= duration {
                        stop.store(true, Ordering::Relaxed);
                    }
                }
                tallies
                    .lock()
                    .expect("a client thread panicked while merging")
                    .add(tally);
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    let tally = tallies
        .into_inner()
        .expect("a client thread panicked while merging");
    ClosedLoop {
        completed: tally.succeeded,
        seconds,
        tally,
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn open_loop_sends_each_request_once_and_times_from_the_due_instant() {
        let schedule = Schedule {
            start: Instant::now(),
            rate_per_s: 1000.0,
            duration: Duration::from_millis(40),
        };
        let calls = AtomicU64::new(0);
        let out = open_loop(schedule, 2, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            // Request 7 stalls, so the ones due behind it on its thread
            // are sent late and their latency includes the wait.
            if i == 7 {
                std::thread::sleep(Duration::from_millis(10));
            }
            let outcome = if i == 3 { Outcome::Shed } else { Outcome::Ok };
            (outcome, i as usize * 10)
        });
        assert_eq!(calls.load(Ordering::Relaxed), 40);
        assert_eq!(out.keys, (0..40).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(out.tally.attempted, 40);
        assert_eq!((out.tally.succeeded, out.tally.shed), (39, 1));
        assert_eq!(out.latency_ms.len(), 40);
        let late = out.late_ms.values().iter().cloned().fold(0.0, f64::max);
        assert!(
            late >= 5.0,
            "the stall must show as generator lateness: {late}"
        );
        let slow = out.latency_ms.values().iter().cloned().fold(0.0, f64::max);
        assert!(slow >= 10.0, "latency counts from the due instant: {slow}");
    }

    #[test]
    fn tally_counts_every_outcome_and_sums() {
        let mut t = Tally::default();
        for o in [
            Outcome::Ok,
            Outcome::Partial,
            Outcome::Shed,
            Outcome::Failed,
            Outcome::Ok,
        ] {
            t.record(o);
        }
        assert_eq!((t.attempted, t.succeeded, t.unsuccessful()), (5, 2, 3));
        let mut u = t;
        u.add(t);
        assert_eq!((u.attempted, u.partial, u.shed, u.failed), (10, 2, 2, 2));
    }
}
