//! Kernel equivalence properties.
//!
//! Every matmul-shaped op keeps each output's serial chain, held bitwise
//! over ±0, infinities and NaN:
//! - `matmul_t`: `((0 + a_0 b_0) + a_1 b_1) + …` over ascending `k`;
//! - `matmul` and `t_matmul`: the same chain with every term whose lhs
//!   entry is zero (`±0`) skipped.
//!
//! The fused ELU-scatter is held bitwise to the unfused pair it replaces.
//! Every comparison runs at 1 and 4 worker threads.

use std::rc::Rc;
use std::sync::Mutex;

use proptest::prelude::*;
use sarn_tensor::{Graph, Tensor};

/// The thread knob is a process global and the test harness is
/// multithreaded: every knob change in this binary happens under this
/// lock, and 1 thread is restored before release.
static KNOB: Mutex<()> = Mutex::new(());

const THREADS: [usize; 2] = [1, 4];

/// Runs `f` at `threads` workers.
fn with_threads<R>(threads: usize, f: impl Fn() -> R) -> R {
    let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    sarn_par::set_num_threads(threads);
    let r = f();
    sarn_par::set_num_threads(1);
    r
}

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(rows, cols, v))
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

/// Output `(i, j)` of `A B^T` as its serial chain: `+0`, then
/// `+ a[i][k] * b[j][k]` for ascending `k`, skipping the terms whose
/// `a[i][k]` is zero when `skip_zeros`.
fn serial_chains(a: &Tensor, b: &Tensor, skip_zeros: bool) -> Vec<f32> {
    let mut want = Vec::new();
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut acc = 0.0f32;
            for kk in 0..a.cols() {
                if !(skip_zeros && a.at(i, kk) == 0.0) {
                    acc += a.at(i, kk) * b.at(j, kk);
                }
            }
            want.push(acc);
        }
    }
    want
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
    /// `A B^T` through all three ops: `matmul_t` directly, `matmul` against
    /// `B^T`, and `t_matmul` from `A^T`.
    #[test]
    fn reference_matmul_t_keeps_each_serial_chain(
        (a, b) in (1usize..5, 0usize..7, 1usize..6).prop_flat_map(|(n, ki, m)| {
            let k = [1usize, 1, 2, 3, 8, 9, 17][ki];
            (special_tensor(n, k), special_tensor(m, k))
        }),
    ) {
        let (no_skip, skip) = (serial_chains(&a, &b, false), serial_chains(&a, &b, true));
        let (a_t, b_t) = (a.transpose(), b.transpose());
        for &t in &THREADS {
            let (r, rm, rt) =
                with_threads(t, || (a.matmul_t(&b), a.matmul(&b_t), a_t.t_matmul(&b_t)));
            prop_assert_eq!(bits(r.data()), bits(&no_skip), "matmul_t");
            prop_assert_eq!(bits(rm.data()), bits(&skip), "matmul");
            prop_assert_eq!(bits(rt.data()), bits(&skip), "t_matmul");
        }
    }

    #[test]
    fn fused_elu_scatter_is_bitwise_identical_to_unfused(
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
            let (f, u) = with_threads(t, || (run(true), run(false)));
            // Fused must match unfused bitwise: output and both gradients.
            prop_assert_eq!(f.0.data(), u.0.data());
            prop_assert_eq!(f.1.data(), u.1.data());
            prop_assert_eq!(f.2.data(), u.2.data());
        }
    }
}
