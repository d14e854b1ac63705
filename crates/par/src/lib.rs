//! Deterministic fork-join runtime for the SARN hot path.
//!
//! The registry mirror is unreachable in this build environment, so rayon
//! cannot be pulled in; this crate provides the fork-join subset SARN needs
//! on top of [`std::thread::scope`]. Worker threads are spawned per call
//! rather than pooled — for the millisecond-scale kernels in the training
//! loop the spawn cost is noise, and scoped threads keep every primitive
//! safe (no `unsafe`, no lifetime laundering).
//!
//! Every primitive is **deterministic by construction**: work is split into
//! contiguous blocks, each output element is written by exactly one thread,
//! and within a block the iteration order is identical to the serial loop.
//! Results therefore match the serial path bit-for-bit at any thread count.
//!
//! The thread count is a process-wide knob ([`set_num_threads`]) because it
//! has to reach deep into `sarn-tensor` ops that have no config parameter.
//! `0` defers to `RAYON_NUM_THREADS` (kept for familiarity) and then to the
//! machine; `1` — the default — is the serial path.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Requested thread count; `0` means "resolve automatically".
static REQUESTED: AtomicUsize = AtomicUsize::new(1);

/// The arithmetic the compute kernels use. There is one: every output
/// keeps its serial accumulation chain.
///
/// Kept only for `perfbench/src/train.rs:50` and `:146`, which pin
/// `ReductionOrder::Reference` and pass it to [`set_reduction_order`];
/// delete it once a benchmark change drops that pin.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReductionOrder {
    /// Each output's serial chain, the only arithmetic the kernels have.
    #[default]
    Reference,
}

/// Does nothing: the kernels have one arithmetic.
///
/// Kept only for `perfbench/src/train.rs:50` and `:146`, which pin
/// [`ReductionOrder::Reference`] and pass it here; delete it once a
/// benchmark change drops that pin.
pub fn set_reduction_order(_order: ReductionOrder) {}

/// Sets the process-wide thread count: `0` = automatic (the
/// `RAYON_NUM_THREADS` environment variable, then the machine's available
/// parallelism), `1` = serial, `n` = exactly `n` workers.
pub fn set_num_threads(n: usize) {
    REQUESTED.store(n, Ordering::SeqCst);
}

/// The resolved thread count the primitives will use (always ≥ 1).
pub fn num_threads() -> usize {
    match REQUESTED.load(Ordering::SeqCst) {
        0 => auto_threads(),
        n => n,
    }
}

fn auto_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Runs both closures, concurrently when more than one thread is configured,
/// and returns both results. `a` runs on the calling thread.
pub fn join<RA, RB, A, B>(a: A, b: B) -> (RA, RB)
where
    RA: Send,
    RB: Send,
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
{
    if num_threads() <= 1 {
        let ra = a();
        let rb = b();
        (ra, rb)
    } else {
        std::thread::scope(|s| {
            let hb = s.spawn(b);
            let ra = a();
            (ra, hb.join().expect("sarn-par: joined task panicked"))
        })
    }
}

/// Splits `data` into at most [`num_threads`] contiguous chunks — each a
/// multiple of `align` elements long — and calls `f(offset, chunk)` on every
/// chunk, concurrently. Falls back to one serial `f(0, data)` call when only
/// one thread is configured or `data` is shorter than `min_len`.
///
/// `align` keeps logical rows intact: pass the row width to guarantee no
/// row straddles a chunk boundary. `data.len()` must be a multiple of
/// `align`. Each element is written by exactly one thread, so the result is
/// identical to the serial call for any thread count.
pub fn par_chunks_mut<T, F>(data: &mut [T], align: usize, min_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(align > 0, "sarn-par: align must be positive");
    assert_eq!(
        data.len() % align,
        0,
        "sarn-par: data length {} is not a multiple of align {align}",
        data.len()
    );
    let threads = num_threads();
    if threads <= 1 || data.len() <= min_len.max(align) {
        f(0, data);
        return;
    }
    let groups = data.len() / align;
    let per = groups.div_ceil(threads) * align;
    std::thread::scope(|s| {
        let f = &f;
        let mut offset = 0;
        for chunk in data.chunks_mut(per) {
            let start = offset;
            offset += chunk.len();
            s.spawn(move || f(start, chunk));
        }
    });
}

/// Splits `0..n` into at most [`num_threads`] contiguous ranges and maps
/// each through `f`, returning the per-range results **in range order** so
/// that concatenating them reproduces the serial left-to-right result.
/// Falls back to a single `f(0..n)` call when one thread is configured or
/// `n <= min_per_call`.
pub fn par_ranges<R, F>(n: usize, min_per_call: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let threads = num_threads();
    if threads <= 1 || n <= min_per_call {
        return vec![f(0..n)];
    }
    let per = n.div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..n)
            .step_by(per)
            .map(|start| {
                let end = (start + per).min(n);
                s.spawn(move || f(start..end))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sarn-par: ranged task panicked"))
            .collect()
    })
}

/// [`par_ranges`] for map-producing callers: splits `0..n` into contiguous
/// ranges, maps each through `f` (which returns a `Vec` of items), and
/// concatenates the per-range vectors **in range order** — so the result is
/// element-for-element identical to the serial `f(0..n)` call at any thread
/// count. This is the shape of every deterministic emit-style scan in the
/// workspace (the `A^s` spatial joins emit edges this way).
pub fn par_flat_ranges<T, F>(n: usize, min_per_call: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    let mut parts = par_ranges(n, min_per_call, f);
    if parts.len() == 1 {
        return parts.pop().unwrap_or_default();
    }
    let total = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for part in parts {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The thread-count knob is process-global; tests that touch it must
    /// not interleave.
    static KNOB: Mutex<()> = Mutex::new(());

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _guard = KNOB.lock().unwrap();
        set_num_threads(n);
        let r = f();
        set_num_threads(1);
        r
    }

    #[test]
    fn resolved_count_is_positive() {
        with_threads(0, || assert!(num_threads() >= 1));
        with_threads(3, || assert_eq!(num_threads(), 3));
    }

    #[test]
    fn join_returns_both_results_at_any_count() {
        for n in [1, 4] {
            let (a, b) = with_threads(n, || join(|| 2 + 2, || "ok"));
            assert_eq!((a, b), (4, "ok"));
        }
    }

    #[test]
    fn par_chunks_mut_covers_every_element_once() {
        for threads in [1, 2, 4, 7] {
            let mut data = vec![0u32; 103 * 3];
            with_threads(threads, || {
                par_chunks_mut(&mut data, 3, 0, |offset, chunk| {
                    for (i, x) in chunk.iter_mut().enumerate() {
                        *x += (offset + i) as u32;
                    }
                });
            });
            let expect: Vec<u32> = (0..103 * 3).collect();
            assert_eq!(data, expect, "threads = {threads}");
        }
    }

    #[test]
    fn par_chunks_mut_respects_alignment() {
        let cols = 5;
        for threads in [2, 4] {
            let mut data = vec![0usize; 17 * cols];
            with_threads(threads, || {
                par_chunks_mut(&mut data, cols, 0, |offset, chunk| {
                    assert_eq!(offset % cols, 0);
                    assert_eq!(chunk.len() % cols, 0);
                    chunk.fill(1);
                });
            });
            assert!(data.iter().all(|&x| x == 1));
        }
    }

    #[test]
    fn par_ranges_concatenates_in_serial_order() {
        for threads in [1, 2, 4, 9] {
            let parts = with_threads(threads, || {
                par_ranges(100, 0, |r| r.collect::<Vec<usize>>())
            });
            let flat: Vec<usize> = parts.into_iter().flatten().collect();
            assert_eq!(flat, (0..100).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    #[test]
    fn par_flat_ranges_matches_serial_concatenation() {
        for threads in [1, 2, 4, 9] {
            let flat = with_threads(threads, || {
                par_flat_ranges(100, 0, |r| r.map(|i| i * 3).collect::<Vec<usize>>())
            });
            let expect: Vec<usize> = (0..100).map(|i| i * 3).collect();
            assert_eq!(flat, expect, "threads = {threads}");
        }
        // Empty domain yields an empty vector, not a panic.
        assert_eq!(
            par_flat_ranges(0, 0, |r| r.collect::<Vec<usize>>()),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn small_inputs_stay_serial() {
        with_threads(4, || {
            let parts = par_ranges(10, 100, |r| r.len());
            assert_eq!(parts, vec![10], "expected a single serial call");
        });
    }
}
