//! The fused GAT logit op, `Graph::gat_scores`, against the composition it
//! replaces in the GAT layer, `matmul(concat_cols([gather_rows(wx,
//! center), hn]), a)`, which this file keeps as the oracle. The logits and
//! the gradients of `wx`, `hn` and `a` must match by `to_bits` at 1 and 4
//! threads.
//!
//! The inputs aim at every place a fused kernel could leave the chain the
//! matmul builds:
//! - exact zeros and `-0` in `wx`, `a` and the gradient reaching the
//!   logits (the zero-skip, and the `0 + g·a` terms that turn `-0` into
//!   `+0`);
//! - an infinity in `a` facing zero entries, which only the zero-skip
//!   keeps from turning into NaN, and one in the gradient, facing zero
//!   entries in the `d a` sum;
//! - centers shared by many edges, next to rows whose only in-edge is their
//!   self-loop;
//! - head widths from 1 to 13 and around each register tile of the `d a`
//!   sum (16, 17, 32, 33, 64, 65), edge counts through every remainder of
//!   the four-edge interleave, and the empty edge list.
//!
//! As in the layer, `hn` is gathered from `wx` and also feeds a weighted
//! sum, so both gradients take contributions from elsewhere in the graph.
//! The large cases engage every parallel split of the op at 4 threads.
//!
//! NaN payloads are unspecified in Rust, so a NaN compares equal to any NaN
//! here; every other bit is compared.

use std::rc::Rc;
use std::sync::Mutex;

use proptest::prelude::*;
use sarn_tensor::{Graph, Tensor, Var};

/// The thread knob is a process global: every change happens under this
/// lock, and 1 thread is restored.
static KNOB: Mutex<()> = Mutex::new(());

/// One input set for the op.
#[derive(Debug)]
struct Case {
    /// `n x d`: the projected rows, `W x` in the layer.
    wx: Tensor,
    /// `2d x 1`: the attention vector.
    a: Tensor,
    /// Per edge: the center's row in `wx`.
    center: Rc<Vec<usize>>,
    /// Per edge: the neighbour's row in `wx`.
    neighbor: Vec<usize>,
    /// `E x 1`: the gradient that reaches the logits.
    g_scores: Tensor,
    /// `E x 1`: the weights of the weighted sum that also reads `hn`.
    w_sum: Tensor,
}

/// A value with many exact zeros and `-0`: the entries the zero-skip and
/// the `0 + g·a` terms treat specially.
fn spiky() -> impl Strategy<Value = f32> {
    (0u8..20, -2.0f32..2.0).prop_map(|(k, x)| match k {
        0..=4 => 0.0,
        5 | 6 => -0.0,
        _ => x,
    })
}

/// `rows x 1` spiky values, with an infinity of either sign at a random
/// entry in half of the draws.
fn spiky_col_with_inf(rows: usize) -> impl Strategy<Value = Tensor> {
    (
        proptest::collection::vec(spiky(), rows),
        0..2 * rows.max(1),
        0u8..2,
    )
        .prop_map(move |(mut v, at, sign)| {
            if at < rows {
                v[at] = if sign == 0 {
                    f32::INFINITY
                } else {
                    f32::NEG_INFINITY
                };
            }
            Tensor::from_vec(rows, 1, v)
        })
}

/// A case over `n` rows of width `d`: `pairs` random edges whose centers
/// are drawn from the first `hubs` rows (so they are shared by many edges),
/// then one self-loop per row. The rows past `hubs` have only their
/// self-loop as an in-edge.
fn case(n: usize, d: usize, hubs: usize, pairs: usize) -> impl Strategy<Value = Case> {
    let e = pairs + n;
    (
        proptest::collection::vec((0..hubs, 0..n), pairs),
        proptest::collection::vec(spiky(), n * d),
        spiky_col_with_inf(2 * d),
        spiky_col_with_inf(e),
        proptest::collection::vec(spiky(), e),
    )
        .prop_map(move |(pairs, wx, a, g_scores, w_sum)| {
            let (mut center, mut neighbor): (Vec<usize>, Vec<usize>) = pairs.into_iter().unzip();
            center.extend(0..n);
            neighbor.extend(0..n);
            Case {
                wx: Tensor::from_vec(n, d, wx),
                a,
                center: Rc::new(center),
                neighbor,
                g_scores,
                w_sum: Tensor::from_vec(e, 1, w_sum),
            }
        })
}

/// A head width: 1 to 13, or one on either side of a register tile width.
fn head_width() -> impl Strategy<Value = usize> {
    (0usize..19).prop_map(|i| match i {
        0..=12 => i + 1,
        _ => [16, 17, 32, 33, 64, 65][i - 13],
    })
}

/// The logits, and the gradients of `wx`, `hn` and `a`, as bits with NaN
/// folded to one pattern.
type Bits = [Vec<u32>; 4];

fn bits(t: &Tensor) -> Vec<u32> {
    t.data()
        .iter()
        .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
        .collect()
}

/// Records the layer's use of the logits: `hn` gathered from `wx`, the
/// logits from `score`, and `hn` in a weighted sum too.
fn run(c: &Case, score: impl Fn(&Graph, Var, Var, Var) -> Var) -> Bits {
    let g = Graph::new();
    let wx = g.leaf_grad(c.wx.clone());
    let a = g.leaf_grad(c.a.clone());
    let hn = g.gather_rows(wx, &c.neighbor);
    let scores = score(&g, wx, hn, a);
    let w_sum = g.input(c.w_sum.clone());
    let sum = g.segment_weighted_sum(w_sum, hn, Rc::clone(&c.center), c.wx.rows());
    let g_scores = g.input(c.g_scores.clone());
    let loss = g.add(g.sum_all(g.mul(scores, g_scores)), g.sum_all(sum));
    g.backward(loss);
    let grad = |v: Var| bits(&g.grad(v).expect("gradient reaches every input"));
    [bits(&g.value(scores)), grad(wx), grad(hn), grad(a)]
}

fn fused(c: &Case) -> Bits {
    run(c, |g, wx, hn, a| {
        g.gat_scores(wx, hn, a, Rc::clone(&c.center))
    })
}

/// The oracle: the gather–concat–matmul composition the op replaces.
fn unfused(c: &Case) -> Bits {
    run(c, |g, wx, hn, a| {
        let hc = g.gather_rows(wx, &c.center);
        let cat = g.concat_cols(&[hc, hn]);
        g.matmul(cat, a)
    })
}

/// Compares the op with the oracle at 1 and 4 threads.
fn check(c: &Case) -> Result<(), String> {
    let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let mut outcome = Ok(());
    for threads in [1, 4] {
        sarn_par::set_num_threads(threads);
        let (want, got) = (unfused(c), fused(c));
        if let Some(i) = (0..want.len()).find(|&i| want[i] != got[i]) {
            let what = ["logits", "d wx", "d hn", "d a"][i];
            outcome = Err(format!("{threads} threads: {what} differ"));
            break;
        }
    }
    sarn_par::set_num_threads(1);
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_logits_equal_the_gather_concat_matmul_bit_for_bit(
        c in (1usize..9, head_width(), 0usize..40).prop_flat_map(|(n, d, pairs)| {
            case(n, d, n.min(3), pairs)
        }),
    ) {
        check(&c)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Over 2,048 edges and 32 Ki `hn` gradient entries, so the forward,
    /// `d a`, `d hn` and `d wx` all split across threads.
    #[test]
    fn fused_logits_split_across_threads_bit_for_bit(
        c in (0usize..4).prop_flat_map(|i| case(40, [11, 13, 33, 65][i], 12, 3_000)),
    ) {
        check(&c)?;
    }
}

#[test]
fn empty_edge_list_gives_no_logits_and_zero_gradients() {
    let c = Case {
        wx: Tensor::from_vec(2, 3, vec![1.0, -0.0, 2.0, 0.0, 3.0, -1.0]),
        a: Tensor::col(&[0.5, f32::INFINITY, -1.0, 0.0, -0.0, 2.0]),
        center: Rc::new(Vec::new()),
        neighbor: Vec::new(),
        g_scores: Tensor::zeros(0, 1),
        w_sum: Tensor::zeros(0, 1),
    };
    check(&c).unwrap();
    let [logits, dwx, dhn, da] = fused(&c);
    assert!(logits.is_empty() && dhn.is_empty());
    assert!(dwx.iter().chain(&da).all(|&b| b == 0.0f32.to_bits()));
}

/// Every logit chain starts at `+0`: with `wx` all `−0` every term of every
/// chain is skipped, so each logit is `+0`, and so is each center's half.
/// Row counts run through every remainder of the four-center interleave.
#[test]
fn all_skipped_chains_equal_the_oracle() {
    for n in 1..=9 {
        for d in [1, 5, 16, 17, 33] {
            let e = 2 * n;
            let center: Vec<usize> = (0..n).chain(0..n).collect();
            let c = Case {
                wx: Tensor::full(n, d, -0.0),
                a: Tensor::full(2 * d, 1, 0.5),
                center: Rc::new(center),
                neighbor: (0..n).rev().chain(0..n).collect(),
                g_scores: Tensor::full(e, 1, 1.0),
                w_sum: Tensor::full(e, 1, 1.0),
            };
            check(&c).unwrap();
            let [logits, ..] = fused(&c);
            assert!(logits.iter().all(|&b| b == 0), "{n} rows, width {d}");
        }
    }
}
