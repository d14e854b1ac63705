//! Fast ↔ Reference kernel equivalence properties.
//!
//! `ReductionOrder::Fast` may re-associate sums (lane accumulators, packed
//! panels, removed zero-skips), but *every* accumulation order obeys the
//! standard summation error bound `|computed - exact| <= gamma_k * S`,
//! where `S` is the sum of the term magnitudes and `gamma_k ~= k * EPS`.
//! Two orders therefore differ by at most `~2 gamma_k S`; the assertions
//! below allow `4 k EPS S + 1e-6` (2x slack plus an absolute floor for
//! results near zero). The fused ELU-scatter and `segment_softmax` are not
//! reductions the knob re-associates, so those are held to **bitwise**
//! equality across modes.
//!
//! Shapes deliberately include 1x1, prime dimensions, sizes below / at /
//! above the `LANES` (8) and `PANEL_COLS` (16) boundaries, and the `m == 1`
//! column-vector special case; every comparison runs at 1 and 4 worker
//! threads.
//!
//! Reference `matmul_t` is also held bitwise to the serial chain
//! `((0 + a_0 b_0) + a_1 b_1) + …` per output, over ±0, infinities and NaN.

use std::rc::Rc;
use std::sync::Mutex;

use proptest::prelude::*;
use sarn_par::ReductionOrder;
use sarn_tensor::{kernels, Graph, Tensor};

/// The reduction-order and thread knobs are process globals and the test
/// harness is multithreaded: every knob change in this binary happens under
/// this lock, and Reference / 1 thread is restored before release.
static KNOB: Mutex<()> = Mutex::new(());

const THREADS: [usize; 2] = [1, 4];

/// Runs `f` once in Reference and once in Fast mode at `threads` workers.
fn with_both_orders<R>(threads: usize, f: impl Fn() -> R) -> (R, R) {
    let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    sarn_par::set_num_threads(threads);
    sarn_par::set_reduction_order(ReductionOrder::Reference);
    let reference = f();
    sarn_par::set_reduction_order(ReductionOrder::Fast);
    let fast = f();
    sarn_par::set_reduction_order(ReductionOrder::Reference);
    sarn_par::set_num_threads(1);
    (reference, fast)
}

/// The stated cross-order tolerance for a `k`-term reduction whose term
/// magnitudes sum to `term_sum` (see the module docs).
fn tol(k: usize, term_sum: f32) -> f32 {
    1e-6 + 4.0 * k as f32 * f32::EPSILON * term_sum
}

/// Element-wise `|reference - fast| <= tol(k, bound)` check; `bound` holds
/// `sum_k |a_ik| * |b_kj|` per output element.
fn assert_within_bound(
    reference: &Tensor,
    fast: &Tensor,
    bound: &Tensor,
    k: usize,
    what: &str,
) -> Result<(), String> {
    for ((x, y), s) in reference.data().iter().zip(fast.data()).zip(bound.data()) {
        prop_assert!(
            (x - y).abs() <= tol(k, *s),
            "{what}: reference {x} vs fast {y} exceeds tol {}",
            tol(k, *s)
        );
    }
    Ok(())
}

/// `(n, k, m)` triples: 1x1, primes, below/at/above lane and panel widths,
/// and the `m == 1` dot-product special case.
const SHAPES: [(usize, usize, usize); 7] = [
    (1, 1, 1),
    (2, 3, 1),
    (3, 7, 5),
    (5, 8, 16),
    (4, 9, 17),
    (7, 31, 19),
    (1, 97, 3),
];

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(rows, cols, v))
}

/// `(k, A, B)` with `A: n x k`, `B: shaped by `to_shapes` from `(n, k, m)`.
fn mat_pair(
    to_a: fn((usize, usize, usize)) -> (usize, usize),
    to_b: fn((usize, usize, usize)) -> (usize, usize),
) -> impl Strategy<Value = (usize, Tensor, Tensor)> {
    (0usize..SHAPES.len()).prop_flat_map(move |i| {
        let shape = SHAPES[i];
        let (ar, ac) = to_a(shape);
        let (br, bc) = to_b(shape);
        (
            Just(shape.1),
            tensor_strategy(ar, ac),
            tensor_strategy(br, bc),
        )
    })
}

/// Values drawn to stress a chain: ±0, ±inf and NaN among ordinary ones.
fn special_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    let value = (0u8..24, -10.0f32..10.0).prop_map(|(k, x)| match k {
        0..=3 => 0.0,
        4 | 5 => -0.0,
        6 => f32::INFINITY,
        7 => f32::NEG_INFINITY,
        8 => f32::NAN,
        _ => x,
    });
    proptest::collection::vec(value, rows * cols).prop_map(move |v| Tensor::from_vec(rows, cols, v))
}

/// Bits with every NaN folded to one pattern (Rust leaves NaN payloads
/// unspecified).
fn bits(values: &[f32]) -> Vec<u32> {
    values
        .iter()
        .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
        .collect()
}

proptest! {
    #[test]
    fn reference_matmul_t_keeps_each_serial_chain(
        (a, b) in (1usize..5, 0usize..7, 1usize..6).prop_flat_map(|(n, ki, m)| {
            let k = [1usize, 1, 2, 3, 8, 9, 17][ki];
            (special_tensor(n, k), special_tensor(m, k))
        }),
    ) {
        let mut want = Vec::new();
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut acc = 0.0f32;
                for kk in 0..a.cols() {
                    acc += a.at(i, kk) * b.at(j, kk);
                }
                want.push(acc);
            }
        }
        for &t in &THREADS {
            let (r, _) = with_both_orders(t, || a.matmul_t(&b));
            prop_assert_eq!(bits(r.data()), bits(&want));
        }
    }

    #[test]
    fn fast_matmul_stays_within_the_summation_bound(
        (k, a, b) in mat_pair(|(n, k, _)| (n, k), |(_, k, m)| (k, m)),
    ) {
        for &t in &THREADS {
            let ((r, bound), (f, _)) = with_both_orders(t, || {
                (a.matmul(&b), a.map(f32::abs).matmul(&b.map(f32::abs)))
            });
            assert_within_bound(&r, &f, &bound, k, "matmul")?;
        }
    }

    #[test]
    fn fast_matmul_t_stays_within_the_summation_bound(
        (k, a, b) in mat_pair(|(n, k, _)| (n, k), |(_, k, m)| (m, k)),
    ) {
        for &t in &THREADS {
            let ((r, bound), (f, _)) = with_both_orders(t, || {
                (a.matmul_t(&b), a.map(f32::abs).matmul_t(&b.map(f32::abs)))
            });
            assert_within_bound(&r, &f, &bound, k, "matmul_t")?;
        }
    }

    #[test]
    fn fast_t_matmul_stays_within_the_summation_bound(
        (k, a, b) in mat_pair(|(n, k, _)| (k, n), |(_, k, m)| (k, m)),
    ) {
        for &t in &THREADS {
            let ((r, bound), (f, _)) = with_both_orders(t, || {
                (a.t_matmul(&b), a.map(f32::abs).t_matmul(&b.map(f32::abs)))
            });
            assert_within_bound(&r, &f, &bound, k, "t_matmul")?;
        }
    }

    #[test]
    fn shared_cosine_kernel_stays_within_the_summation_bound(
        (len, a, b) in (0usize..6).prop_flat_map(|i| {
            let len = [1usize, 7, 8, 9, 31, 97][i];
            (
                Just(len),
                proptest::collection::vec(-10.0f32..10.0, len),
                proptest::collection::vec(-10.0f32..10.0, len),
            )
        }),
    ) {
        for &t in &THREADS {
            let (r, f) = with_both_orders(t, || kernels::cosine(&a, &b));
            // |a . b| <= ||a|| ||b|| (Cauchy-Schwarz), so the cosine's
            // cross-order error is bounded by ~3 gamma_k on its own.
            let tol = 1e-7 + 8.0 * len as f32 * f32::EPSILON;
            prop_assert!(
                (r - f).abs() <= tol,
                "cosine: reference {r} vs fast {f} exceeds tol {tol}"
            );
        }
    }

    #[test]
    fn fused_elu_scatter_is_bitwise_identical_to_unfused_in_both_modes(
        (alpha, values, seg, nseg) in (1usize..40, 0usize..3).prop_flat_map(|(e, di)| {
            let d = [1usize, 3, 9][di];
            let nseg = 5usize;
            (
                tensor_strategy(e, 1),
                tensor_strategy(e, d),
                proptest::collection::vec(0usize..nseg, e),
                Just(nseg),
            )
        }),
    ) {
        let seg = Rc::new(seg);
        // (output, d(alpha), d(values)) for the fused / unfused graphs.
        let run = |fused: bool| -> (Tensor, Tensor, Tensor) {
            let g = Graph::new();
            let a = g.leaf_grad(alpha.clone());
            let v = g.leaf_grad(values.clone());
            let y = if fused {
                g.segment_weighted_sum_elu(a, v, Rc::clone(&seg), nseg, 1.0)
            } else {
                let s = g.segment_weighted_sum(a, v, Rc::clone(&seg), nseg);
                g.elu(s, 1.0)
            };
            let loss = g.sum_all(y);
            g.backward(loss);
            (
                g.value(y),
                g.grad(a).expect("alpha grad"),
                g.grad(v).expect("values grad"),
            )
        };
        for &t in &THREADS {
            let ((ref_fused, ref_unfused), (fast_fused, fast_unfused)) =
                with_both_orders(t, || (run(true), run(false)));
            // Fused must match unfused bitwise within each mode — output
            // and both gradients.
            for (f, u) in [(&ref_fused, &ref_unfused), (&fast_fused, &fast_unfused)] {
                prop_assert_eq!(f.0.data(), u.0.data());
                prop_assert_eq!(f.1.data(), u.1.data());
                prop_assert_eq!(f.2.data(), u.2.data());
            }
        }
    }

    #[test]
    fn segment_softmax_is_bitwise_identical_across_modes(
        (scores, seg, nseg) in (1usize..40).prop_flat_map(|e| {
            let nseg = 5usize;
            (
                tensor_strategy(e, 1),
                proptest::collection::vec(0usize..nseg, e),
                Just(nseg),
            )
        }),
    ) {
        let seg = Rc::new(seg);
        for &t in &THREADS {
            let (r, f) = with_both_orders(t, || {
                let g = Graph::new();
                let s = g.input(scores.clone());
                g.value(g.segment_softmax(s, Rc::clone(&seg), nseg))
            });
            // The knob only re-associates dot-shaped reductions; the
            // grouped softmax must not move at all.
            prop_assert_eq!(r.data(), f.data());
        }
    }
}
