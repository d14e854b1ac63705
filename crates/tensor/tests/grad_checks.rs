//! Finite-difference validation of every autograd op.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sarn_tensor::grad_check::assert_grad_close;
use sarn_tensor::{init, Graph, Tensor, Var};

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

fn rng() -> StdRng {
    StdRng::seed_from_u64(42)
}

fn rand_t(rows: usize, cols: usize) -> Tensor {
    init::normal(&mut rng(), rows, cols, 1.0)
}

#[test]
fn grad_matmul_lhs_and_rhs() {
    let b = rand_t(3, 2);
    assert_grad_close(
        &rand_t(4, 3),
        |g, x| {
            let bv = g.input(b.clone());
            g.mean_all(g.matmul(x, bv))
        },
        EPS,
        TOL,
    );
    let a = rand_t(4, 3);
    assert_grad_close(
        &rand_t(3, 2),
        |g, x| {
            let av = g.input(a.clone());
            g.mean_all(g.matmul(av, x))
        },
        EPS,
        TOL,
    );
}

#[test]
fn grad_elementwise_binary() {
    let other = rand_t(3, 3);
    for op in ["add", "sub", "mul"] {
        assert_grad_close(
            &rand_t(3, 3),
            |g, x| {
                let o = g.input(other.clone());
                let y = match op {
                    "add" => g.add(x, o),
                    "sub" => g.sub(x, o),
                    _ => g.mul(x, o),
                };
                g.mean_all(g.sqr(y))
            },
            EPS,
            TOL,
        );
    }
}

#[test]
fn grad_add_row_both_sides() {
    let row = rand_t(1, 4);
    assert_grad_close(
        &rand_t(3, 4),
        |g, x| {
            let r = g.input(row.clone());
            g.mean_all(g.sqr(g.add_row(x, r)))
        },
        EPS,
        TOL,
    );
    let m = rand_t(3, 4);
    assert_grad_close(
        &rand_t(1, 4),
        |g, x| {
            let mv = g.input(m.clone());
            g.mean_all(g.sqr(g.add_row(mv, x)))
        },
        EPS,
        TOL,
    );
}

#[test]
fn grad_mul_col_both_sides() {
    let col = rand_t(3, 1);
    assert_grad_close(
        &rand_t(3, 4),
        |g, x| {
            let c = g.input(col.clone());
            g.mean_all(g.sqr(g.mul_col(x, c)))
        },
        EPS,
        TOL,
    );
    let m = rand_t(3, 4);
    assert_grad_close(
        &rand_t(3, 1),
        |g, x| {
            let mv = g.input(m.clone());
            g.mean_all(g.sqr(g.mul_col(mv, x)))
        },
        EPS,
        TOL,
    );
}

type UnaryOp = fn(&Graph, Var) -> Var;

#[test]
fn grad_unary_smooth_ops() {
    let build: Vec<(&str, UnaryOp)> = vec![
        ("scale", |g, x| g.scale(x, 2.5)),
        ("add_scalar", |g, x| g.add_scalar(x, 1.5)),
        ("neg", |g, x| g.neg(x)),
        ("exp", |g, x| g.exp(x)),
        ("sqr", |g, x| g.sqr(x)),
        ("sigmoid", |g, x| g.sigmoid(x)),
        ("tanh", |g, x| g.tanh(x)),
        ("one_minus", |g, x| g.one_minus(x)),
        ("elu", |g, x| g.elu(x, 1.0)),
    ];
    for (name, f) in build {
        assert_grad_close(&rand_t(3, 3), |g, x| g.mean_all(g.sqr(f(g, x))), EPS, TOL);
        let _ = name;
    }
}

#[test]
fn grad_ln_on_positive_input() {
    let x0 = rand_t(3, 3).map(|v| v.abs() + 1.0);
    assert_grad_close(&x0, |g, x| g.mean_all(g.ln(x)), 1e-3, TOL);
}

#[test]
fn grad_piecewise_ops_away_from_kinks() {
    // Shift values away from 0 so finite differences do not straddle a kink.
    let x0 = rand_t(3, 3).map(|v| if v.abs() < 0.2 { v + 0.5 } else { v });
    assert_grad_close(&x0, |g, x| g.mean_all(g.relu(x)), 1e-3, TOL);
    assert_grad_close(&x0, |g, x| g.mean_all(g.leaky_relu(x, 0.2)), 1e-3, TOL);
    assert_grad_close(&x0, |g, x| g.mean_all(g.abs(x)), 1e-3, TOL);
}

#[test]
fn grad_softmax_rows() {
    assert_grad_close(
        &rand_t(3, 4),
        |g, x| {
            let s = g.softmax_rows(x);
            // weight rows to create asymmetric gradient
            let w = g.input(Tensor::from_vec(
                3,
                4,
                (0..12).map(|i| i as f32 * 0.1).collect(),
            ));
            g.mean_all(g.mul(s, w))
        },
        1e-2,
        TOL,
    );
}

#[test]
fn grad_reductions_and_shape_ops() {
    assert_grad_close(&rand_t(3, 4), |g, x| g.sum_all(x), EPS, TOL);
    assert_grad_close(&rand_t(3, 4), |g, x| g.mean_all(x), EPS, TOL);
    assert_grad_close(
        &rand_t(3, 4),
        |g, x| g.mean_all(g.sqr(g.sum_rows(x))),
        EPS,
        TOL,
    );
    assert_grad_close(
        &rand_t(3, 4),
        |g, x| g.mean_all(g.sqr(g.transpose(x))),
        EPS,
        TOL,
    );
}

#[test]
fn grad_concat_ops() {
    let other = rand_t(3, 2);
    assert_grad_close(
        &rand_t(3, 4),
        |g, x| {
            let o = g.input(other.clone());
            g.mean_all(g.sqr(g.concat_cols(&[x, o])))
        },
        EPS,
        TOL,
    );
    let other2 = rand_t(2, 4);
    assert_grad_close(
        &rand_t(3, 4),
        |g, x| {
            let o = g.input(other2.clone());
            g.mean_all(g.sqr(g.concat_rows(&[x, o])))
        },
        EPS,
        TOL,
    );
}

#[test]
fn grad_gather_and_slice() {
    assert_grad_close(
        &rand_t(4, 3),
        |g, x| {
            let y = g.gather_rows(x, &[0, 2, 2, 3]);
            g.mean_all(g.sqr(y))
        },
        EPS,
        TOL,
    );
    assert_grad_close(
        &rand_t(5, 3),
        |g, x| g.mean_all(g.sqr(g.slice_rows(x, 1, 3))),
        EPS,
        TOL,
    );
}

#[test]
fn grad_segment_softmax() {
    let seg = Rc::new(vec![0usize, 0, 1, 1, 1, 2]);
    assert_grad_close(
        &rand_t(6, 1),
        |g, x| {
            let a = g.segment_softmax(x, Rc::clone(&seg), 3);
            let w = g.input(Tensor::col(&[0.1, 0.5, -0.2, 0.9, 0.3, 0.7]));
            g.sum_all(g.mul(a, w))
        },
        1e-2,
        TOL,
    );
}

#[test]
fn grad_segment_weighted_sum_alpha_and_values() {
    let seg = Rc::new(vec![0usize, 0, 1, 2, 2]);
    let values = rand_t(5, 3);
    assert_grad_close(
        &rand_t(5, 1),
        |g, x| {
            let v = g.input(values.clone());
            let out = g.segment_weighted_sum(x, v, Rc::clone(&seg), 3);
            g.mean_all(g.sqr(out))
        },
        EPS,
        TOL,
    );
    let alpha = rand_t(5, 1);
    assert_grad_close(
        &rand_t(5, 3),
        |g, x| {
            let a = g.input(alpha.clone());
            let out = g.segment_weighted_sum(a, x, Rc::clone(&seg), 3);
            g.mean_all(g.sqr(out))
        },
        EPS,
        TOL,
    );
}

#[test]
fn grad_gat_scores_all_inputs() {
    // Row 0 is a shared center; row 3 has only its self-loop.
    let center = Rc::new(vec![0usize, 0, 1, 0, 2, 1, 3]);
    let (wx, hn, a) = (rand_t(4, 3), rand_t(7, 3), rand_t(6, 1));
    let scores = |g: &Graph, wx: Var, hn: Var, a: Var| {
        g.mean_all(g.sqr(g.gat_scores(wx, hn, a, Rc::clone(&center))))
    };
    assert_grad_close(
        &wx,
        |g, x| scores(g, x, g.input(hn.clone()), g.input(a.clone())),
        EPS,
        TOL,
    );
    assert_grad_close(
        &hn,
        |g, x| scores(g, g.input(wx.clone()), x, g.input(a.clone())),
        EPS,
        TOL,
    );
    assert_grad_close(
        &a,
        |g, x| scores(g, g.input(wx.clone()), g.input(hn.clone()), x),
        EPS,
        TOL,
    );
}

#[test]
fn grad_cross_entropy() {
    assert_grad_close(
        &rand_t(4, 3),
        |g, x| g.cross_entropy(x, &[0, 2, 1, 2]),
        1e-2,
        TOL,
    );
}

#[test]
fn grad_mse() {
    let target = rand_t(3, 3);
    assert_grad_close(&rand_t(3, 3), |g, x| g.mse(x, &target), EPS, TOL);
}

#[test]
fn grad_info_nce() {
    let cands: Vec<Tensor> = (0..3).map(|_| rand_t(5, 4)).collect();
    assert_grad_close(
        &rand_t(3, 4),
        |g, x| g.info_nce(x, cands.clone(), 0.5),
        1e-2,
        TOL,
    );
}

#[test]
fn grad_info_nce_small_temperature_stays_finite() {
    let cands: Vec<Tensor> = (0..2).map(|_| rand_t(8, 4)).collect();
    let g = Graph::new();
    let z = g.leaf_grad(rand_t(2, 4));
    let loss = g.info_nce(z, cands, 0.05);
    assert!(g.value(loss).item().is_finite());
    g.backward(loss);
    assert!(g.grad(z).unwrap().all_finite());
}

#[test]
fn grad_composed_deep_chain() {
    // A deliberately deep composition exercising re-used intermediates.
    let w = rand_t(4, 4);
    assert_grad_close(
        &rand_t(3, 4),
        |g, x| {
            let wv = g.input(w.clone());
            let h1 = g.tanh(g.matmul(x, wv));
            let h2 = g.add(h1, x); // residual
            let h3 = g.sigmoid(g.mul(h2, h2));
            g.mean_all(h3)
        },
        1e-2,
        TOL,
    );
}

/// Gradient checks with the parallel backend engaged.
///
/// The inputs are sized past the backend's serial-fallback thresholds so
/// that, at 4 threads, the parallel kernels (and not the serial fallback)
/// produce both the forward values and the analytic gradients being
/// checked. Running the same checks at 1 thread pins the contract that the
/// two paths are the same function.
mod parallel {
    use super::*;
    use std::sync::Mutex;

    /// The thread-count knob is process-global; tests that flip it hold
    /// this lock and restore the serial default before releasing.
    static KNOB: Mutex<()> = Mutex::new(());

    fn with_threads(n: usize, f: impl FnOnce()) {
        let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
        sarn_par::set_num_threads(n);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        sarn_par::set_num_threads(1);
        if let Err(e) = result {
            std::panic::resume_unwind(e);
        }
    }

    /// A GAT-style aggregation over enough edges to engage the parallel
    /// segment kernels: neighbor features are gathered, attention scores
    /// softmax-normalized per destination, and messages summed per segment.
    fn gat_edges(n_edges: usize, n_nodes: usize) -> (Rc<Vec<usize>>, Vec<usize>) {
        let seg: Vec<usize> = (0..n_edges).map(|e| e * n_nodes / n_edges).collect();
        let idx: Vec<usize> = (0..n_edges).map(|e| (e * 7 + 3) % n_nodes).collect();
        (Rc::new(seg), idx)
    }

    #[test]
    fn grad_matmul_family_under_both_thread_settings() {
        // Shapes clear the 65536-flop matmul gate (out elems > 65536 / k)
        // while keeping the *perturbed* operand small, so the central-
        // difference sweep stays cheap. The backward pass runs the parallel
        // matmul_t and t_matmul kernels on the same shapes.
        let b = init::normal(&mut rng(), 32, 520, 0.3);
        let a = init::normal(&mut rng(), 520, 32, 0.3);
        for threads in [1, 4] {
            with_threads(threads, || {
                // 4x32 @ 32x520: perturb the 128-element lhs.
                assert_grad_close(
                    &init::normal(&mut rng(), 4, 32, 0.3),
                    |g, x| {
                        let bv = g.input(b.clone());
                        g.mean_all(g.sqr(g.matmul(x, bv)))
                    },
                    EPS,
                    TOL,
                );
                // 520x32 @ 32x4: perturb the 128-element rhs.
                assert_grad_close(
                    &init::normal(&mut rng(), 32, 4, 0.3),
                    |g, x| {
                        let av = g.input(a.clone());
                        g.mean_all(g.sqr(g.matmul(av, x)))
                    },
                    EPS,
                    TOL,
                );
            });
        }
    }

    #[test]
    fn grad_gat_aggregation_under_both_thread_settings() {
        // 2100 edges exceed the 2048-edge segment gate; 2100 * 16 gathered
        // elements exceed the 32768-element gather/scatter gate.
        let (seg, idx) = gat_edges(2100, 32);
        let scores = init::normal(&mut rng(), 2100, 1, 0.5);
        for threads in [1, 4] {
            let seg = Rc::clone(&seg);
            let idx = idx.clone();
            let scores = scores.clone();
            with_threads(threads, || {
                // Node features drive the loss through gather + weighted sum.
                assert_grad_close(
                    &init::normal(&mut rng(), 32, 16, 0.5),
                    |g, x| {
                        let s = g.input(scores.clone());
                        let hn = g.gather_rows(x, &idx);
                        let alpha = g.segment_softmax(s, Rc::clone(&seg), 32);
                        let msg = g.segment_weighted_sum(alpha, hn, Rc::clone(&seg), 32);
                        g.mean_all(g.sqr(msg))
                    },
                    EPS,
                    TOL,
                );
            });
        }
    }

    #[test]
    fn grad_attention_scores_under_both_thread_settings() {
        // Same aggregation, differentiated through the softmax scores; the
        // edge values are a plain input so the sweep only pays for the
        // segment kernels under test.
        let (seg, _) = gat_edges(2100, 64);
        let edge_vals = init::normal(&mut rng(), 2100, 2, 0.5);
        for threads in [1, 4] {
            let seg = Rc::clone(&seg);
            let edge_vals = edge_vals.clone();
            with_threads(threads, || {
                assert_grad_close(
                    &init::normal(&mut rng(), 2100, 1, 0.5),
                    |g, x| {
                        let v = g.input(edge_vals.clone());
                        let alpha = g.segment_softmax(x, Rc::clone(&seg), 64);
                        let msg = g.segment_weighted_sum(alpha, v, Rc::clone(&seg), 64);
                        g.mean_all(g.sqr(msg))
                    },
                    1e-2,
                    TOL,
                );
            });
        }
    }

    #[test]
    fn forward_and_backward_are_bitwise_identical_across_thread_counts() {
        // The determinism contract is stronger than the grad-check
        // tolerance: every kernel accumulates in the serial order, so the
        // values and gradients must agree exactly, not just closely.
        let (seg, idx) = gat_edges(2100, 64);
        let w = init::normal(&mut rng(), 16, 16, 0.3);
        let feats = init::normal(&mut rng(), 64, 16, 0.5);
        let scores = init::normal(&mut rng(), 2100, 1, 0.5);
        let run = |threads: usize| {
            let mut out = Vec::new();
            with_threads(threads, || {
                let g = Graph::new();
                let x = g.leaf_grad(feats.clone());
                let s = g.leaf_grad(scores.clone());
                let wv = g.input(w.clone());
                let h = g.matmul(x, wv);
                let hn = g.gather_rows(h, &idx);
                let alpha = g.segment_softmax(s, Rc::clone(&seg), 64);
                let msg = g.segment_weighted_sum(alpha, hn, Rc::clone(&seg), 64);
                let loss = g.mean_all(g.sqr(g.l2_normalize_rows(msg)));
                g.backward(loss);
                out = vec![
                    g.value(loss).clone(),
                    g.grad(x).unwrap().clone(),
                    g.grad(s).unwrap().clone(),
                ];
            });
            out
        };
        let serial = run(1);
        for threads in [2, 4, 7] {
            let par = run(threads);
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.data(), b.data(), "divergence at {threads} threads");
            }
        }
    }
}
