//! Kernel equivalence properties.
//!
//! Every matmul-shaped op keeps each output's serial chain, held bitwise
//! over ±0, infinities and NaN:
//! - `matmul_t`: `((0 + a_0 b_0) + a_1 b_1) + …` over ascending `k`;
//! - `matmul` and `t_matmul`: the same chain with every term whose lhs
//!   entry is zero (`±0`) skipped.
//!
//! Output widths are drawn around every register tile (8, 16 and 32
//! lanes) and its scalar tail, and inner widths up to 70 (up to 700 for
//! the blocks of `rhs` rows), so each tile, each remainder and each block
//! boundary is compared with the chain. Half the draws are finite only:
//! a long chain almost always meets a NaN or an infinity, which hides
//! the rounding of every other term.
//!
//! The segment scatter's `d alpha` is held to `Tensor::dot` per edge (the
//! chain from `−0`), and the segment softmax to its two-pass form. The fused ELU-scatter is held
//! bitwise to the unfused pair it replaces. Every comparison runs at 1 and
//! 4 worker threads.

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
    chain_tensor(rows, cols, true)
}

/// ±0 among ordinary values, plus ±inf and NaN when `nonfinite`. A long
/// chain almost always meets a non-finite term, which hides the rounding
/// of every other term, so the chain properties draw both kinds.
fn chain_tensor(rows: usize, cols: usize, nonfinite: bool) -> impl Strategy<Value = Tensor> {
    let value = (0u8..24, -10.0f32..10.0).prop_map(move |(k, x)| match k {
        0..=3 => 0.0,
        4 | 5 => -0.0,
        6 if nonfinite => f32::INFINITY,
        7 if nonfinite => f32::NEG_INFINITY,
        8 if nonfinite => f32::NAN,
        _ => x,
    });
    proptest::collection::vec(value, rows * cols).prop_map(move |v| Tensor::from_vec(rows, cols, v))
}

/// `A` (`n x k`) and `B` (`WIDTHS[mi] x k`), non-finite values in half of
/// the draws.
fn chain_operands(n: usize, k: usize, mi: usize) -> impl Strategy<Value = (Tensor, Tensor)> {
    (0u8..2).prop_flat_map(move |f| {
        (
            chain_tensor(n, k, f == 0),
            chain_tensor(WIDTHS[mi], k, f == 0),
        )
    })
}

/// Output widths on both sides of every register tile width and its
/// multiples.
const WIDTHS: [usize; 13] = [1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65];

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

/// Holds `matmul_t`, `matmul` against `B^T` and `t_matmul` from `A^T` to
/// the serial chains of `A B^T` at 1 and 4 threads.
fn check_chains(a: &Tensor, b: &Tensor) -> Result<(), String> {
    let (no_skip, skip) = (serial_chains(a, b, false), serial_chains(a, b, true));
    let (a_t, b_t) = (a.transpose(), b.transpose());
    for &t in &THREADS {
        let (r, rm, rt) = with_threads(t, || (a.matmul_t(b), a.matmul(&b_t), a_t.t_matmul(&b_t)));
        prop_assert_eq!(bits(r.data()), bits(&no_skip), "matmul_t");
        prop_assert_eq!(bits(rm.data()), bits(&skip), "matmul");
        prop_assert_eq!(bits(rt.data()), bits(&skip), "t_matmul");
    }
    Ok(())
}

/// The gradient reaching a scatter's output, its `e x d` values and each
/// edge's segment, over `nseg` segments; non-finite values in half of the
/// draws.
fn scatter_case(
    e: usize,
    d: usize,
    nseg: usize,
) -> impl Strategy<Value = (Tensor, Tensor, Vec<usize>)> {
    (0u8..2).prop_flat_map(move |f| {
        (
            chain_tensor(nseg, d, f == 0),
            chain_tensor(e, d, f == 0),
            proptest::collection::vec(0usize..nseg, e),
        )
    })
}

/// The gradient `segment_weighted_sum` sends to its weights when `g`
/// reaches its output (the loss is `sum(y * g)`, whose gradient at `y` is
/// `g` bit for bit).
fn scatter_d_alpha(g: &Tensor, values: &Tensor, seg: &[usize]) -> Tensor {
    let graph = Graph::new();
    let alpha = graph.leaf_grad(Tensor::ones(values.rows(), 1));
    let v = graph.input(values.clone());
    let y = graph.segment_weighted_sum(alpha, v, Rc::new(seg.to_vec()), g.rows());
    let loss = graph.sum_all(graph.mul(y, graph.input(g.clone())));
    graph.backward(loss);
    graph.grad(alpha).expect("alpha grad")
}

/// Holds each edge's `d alpha` to `Tensor::dot(g[seg[e]], values[e])`, the
/// left-to-right chain from `Iterator::sum`'s start, at 1 and 4 threads.
fn check_d_alpha(g: &Tensor, values: &Tensor, seg: &[usize]) -> Result<(), String> {
    let want: Vec<f32> = (0..values.rows())
        .map(|e| Tensor::dot(g.row_slice(seg[e]), values.row_slice(e)))
        .collect();
    for &t in &THREADS {
        let got = with_threads(t, || scatter_d_alpha(g, values, seg));
        prop_assert_eq!(bits(got.data()), bits(&want), "d alpha at {} threads", t);
    }
    Ok(())
}

/// Segment softmax as two passes over the edges: each segment's max and
/// `exp` sum in ascending edge order, then every weight's `exp` again over
/// that sum.
fn two_pass_softmax(scores: &Tensor, seg: &[usize], nseg: usize) -> Vec<f32> {
    let mut maxes = vec![f32::NEG_INFINITY; nseg];
    for (e, &s) in seg.iter().enumerate() {
        maxes[s] = maxes[s].max(scores.at(e, 0));
    }
    let mut sums = vec![0.0f32; nseg];
    for (e, &s) in seg.iter().enumerate() {
        sums[s] += (scores.at(e, 0) - maxes[s]).exp();
    }
    (0..seg.len())
        .map(|e| (scores.at(e, 0) - maxes[seg[e]]).exp() / sums[seg[e]])
        .collect()
}

/// Holds `segment_softmax` to [`two_pass_softmax`] at 1 and 4 threads.
fn check_softmax(scores: &Tensor, seg: &[usize], nseg: usize) -> Result<(), String> {
    let want = two_pass_softmax(scores, seg, nseg);
    for &t in &THREADS {
        let got = with_threads(t, || {
            let g = Graph::new();
            let s = g.input(scores.clone());
            g.value(g.segment_softmax(s, Rc::new(seg.to_vec()), nseg))
        });
        prop_assert_eq!(bits(got.data()), bits(&want), "softmax at {} threads", t);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `A B^T` through all three ops: `matmul_t` directly, `matmul` against
    /// `B^T`, and `t_matmul` from `A^T`.
    #[test]
    fn reference_matmul_t_keeps_each_serial_chain(
        (a, b) in (1usize..5, 0usize..=70, 0usize..WIDTHS.len())
            .prop_flat_map(|(n, k, mi)| chain_operands(n, k, mi)),
    ) {
        check_chains(&a, &b)?;
    }

    #[test]
    fn segment_scatter_d_alpha_keeps_each_dot_chain(
        (g, values, seg) in (1usize..40, 0usize..WIDTHS.len()).prop_flat_map(|(e, di)| {
            scatter_case(e, WIDTHS[di], 5)
        }),
    ) {
        check_d_alpha(&g, &values, &seg)?;
    }

    #[test]
    fn segment_softmax_equals_its_two_pass_form(
        (scores, seg) in (1usize..60).prop_flat_map(|e| {
            (special_tensor(e, 1), proptest::collection::vec(0usize..7, e))
        }),
    ) {
        check_softmax(&scores, &seg, 7)?;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Inner widths up to 700, so that every output width past 6 runs its
    /// chains over more than one block of `rhs` rows.
    #[test]
    fn serial_chains_hold_across_inner_blocks(
        (a, b) in (1usize..4, 64usize..=700, 0usize..WIDTHS.len())
            .prop_flat_map(|(n, k, mi)| chain_operands(n, k, mi)),
    ) {
        check_chains(&a, &b)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Enough rows, lanes and inner width that each op splits its output
    /// rows across 4 threads.
    #[test]
    fn serial_chains_hold_when_rows_split_across_threads(
        (a, b) in (64usize..90, 40usize..=70, 6usize..WIDTHS.len())
            .prop_flat_map(|(n, k, mi)| chain_operands(n, k, mi)),
    ) {
        check_chains(&a, &b)?;
    }

    /// Over 2,048 edges, so `d alpha` and the softmax split their edge and
    /// segment ranges across 4 threads.
    #[test]
    fn edge_chains_hold_when_edges_split_across_threads(
        (g, values, seg, scores) in (2_049usize..2_060, 0usize..WIDTHS.len()).prop_flat_map(|(e, di)| {
            (scatter_case(e, WIDTHS[di], 37), special_tensor(e, 1))
                .prop_map(|((g, v, s), scores)| (g, v, s, scores))
        }),
    ) {
        check_d_alpha(&g, &values, &seg)?;
        check_softmax(&scores, &seg, 37)?;
    }
}

/// Products that are all `−0` (`+0` gradients against negative values):
/// the dot chain from `−0` stays `−0`, where a chain started from `+0`
/// would end at `+0`.
#[test]
fn d_alpha_of_all_negative_zero_products_is_negative_zero() {
    for e in 1..=9 {
        for d in [1, 3, 16, 17] {
            let g = Tensor::zeros(2, d);
            let values = Tensor::full(e, d, -1.5);
            let seg: Vec<usize> = (0..e).map(|i| i % 2).collect();
            for &t in &THREADS {
                let got = with_threads(t, || scatter_d_alpha(&g, &values, &seg));
                assert!(
                    got.data()
                        .iter()
                        .all(|v| v.to_bits() == (-0.0f32).to_bits()),
                    "{e} edges, width {d}, {t} threads: {:?}",
                    got.data()
                );
            }
        }
    }
}

/// Every chain of the matmul family starts at `+0`: with every term
/// skipped (`matmul`, `t_matmul` against a zero lhs) or every product `−0`
/// (`matmul_t` of `−0` against positive values) each output is `+0`, where
/// a chain started from `−0` would end at `−0`. Runs at every output width
/// and across inner blocks.
#[test]
fn chains_of_skipped_or_negative_zero_terms_are_positive_zero() {
    for &m in &WIDTHS {
        for k in [1, 2, 70, 600] {
            let zero = Tensor::full(3, k, -0.0);
            let b = Tensor::full(m, k, 1.5);
            let (zero_t, b_t) = (zero.transpose(), b.transpose());
            for &t in &THREADS {
                let outs = with_threads(t, || {
                    [zero.matmul_t(&b), zero.matmul(&b_t), zero_t.t_matmul(&b_t)]
                });
                for (op, out) in ["matmul_t", "matmul", "t_matmul"].iter().zip(&outs) {
                    assert!(
                        out.data().iter().all(|v| v.to_bits() == 0),
                        "{op}: width {m}, inner {k}, {t} threads"
                    );
                }
            }
        }
    }
}
