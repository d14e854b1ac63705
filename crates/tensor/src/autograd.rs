//! Reverse-mode automatic differentiation on a tape.
//!
//! A [`Graph`] records every operation applied to [`Var`] handles during a
//! forward pass. [`Graph::backward`] then walks the tape in reverse, routing
//! gradients to each input. Model parameters live outside the graph in a
//! [`ParamStore`]; [`Graph::param`] copies the current value onto the tape and
//! remembers the parameter id so [`Graph::accumulate_grads`] can push the
//! computed gradients back after the backward pass.
//!
//! Gradient bookkeeping is sparse: a node participates in backpropagation
//! only if a parameter is reachable from it, so large constant inputs (for
//! example MoCo negative-sample queues) cost nothing at backward time.

//! Like the raw tensor kernels, the rowwise, segment, and loss ops here run
//! on the [`sarn_par`] thread count above per-op work thresholds. Segment
//! and scatter ops partition **destination rows** into contiguous ranges;
//! each worker scans the full edge list in ascending order and applies only
//! the edges that land in its range, so the per-row accumulation order — and
//! therefore every bit of the result — matches the serial path.

use std::cell::RefCell;
use std::rc::Rc;

use crate::params::{ParamId, ParamStore};
use crate::tensor::{Tensor, PAR_MIN_ELEMS};

/// Parallelize segment/scatter ops only above this many edges.
const PAR_MIN_EDGES: usize = 2048;

/// Parallelize the InfoNCE loss only above this many anchors.
const PAR_MIN_ANCHORS: usize = 32;

/// `min_len`/`min_per_call` value that engages parallelism iff `engage`.
#[inline]
fn par_gate(engage: bool) -> usize {
    if engage {
        0
    } else {
        usize::MAX
    }
}

/// Handle to a node on a [`Graph`] tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var {
    pub(crate) id: usize,
}

enum Op {
    Leaf,
    MatMul(usize, usize),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    /// `(n x m) + (1 x m)` row-broadcast addition (bias).
    AddRow(usize, usize),
    /// `(n x m) * (n x 1)` column-broadcast multiplication.
    MulCol(usize, usize),
    Scale(usize, f32),
    AddScalar(usize),
    Neg(usize),
    Exp(usize),
    Ln(usize),
    Abs(usize),
    Sqr(usize),
    Relu(usize),
    LeakyRelu(usize, f32),
    Elu(usize, f32),
    Sigmoid(usize),
    Tanh(usize),
    OneMinus(usize),
    SoftmaxRows(usize),
    L2NormalizeRows(usize),
    SumAll(usize),
    MeanAll(usize),
    SumRows(usize),
    Transpose(usize),
    ConcatCols(Vec<usize>),
    ConcatRows(Vec<usize>),
    GatherRows {
        src: usize,
        idx: Rc<Vec<usize>>,
    },
    SliceRows {
        src: usize,
        start: usize,
    },
    /// Softmax over groups of rows of an `e x 1` score column; `seg[e]` is the
    /// group id of edge `e` and `nseg` the number of groups.
    SegmentSoftmax {
        scores: usize,
        seg: Rc<Vec<usize>>,
        nseg: usize,
    },
    /// `out[seg[e]] += alpha[e] * values[e]` — the weighted aggregation step
    /// of sparse graph attention.
    SegmentWeightedSum {
        alpha: usize,
        values: usize,
        seg: Rc<Vec<usize>>,
    },
    /// [`Op::SegmentWeightedSum`] with an ELU applied to the aggregated
    /// output in the same pass (`y = elu(sum)`), saving the GAT encoder a
    /// full tape node and an extra sweep over the hidden matrix between
    /// layers.
    SegmentWeightedSumElu {
        alpha: usize,
        values: usize,
        seg: Rc<Vec<usize>>,
        elu_alpha: f32,
    },
    /// GAT attention logits: `out[e] = a^T [wx[center_src[e]] || hn[e]]`.
    GatScores {
        wx: usize,
        hn: usize,
        a: usize,
        center_src: Rc<Vec<usize>>,
    },
    /// Mean cross-entropy of row-logits against integer labels.
    CrossEntropy {
        logits: usize,
        labels: Rc<Vec<usize>>,
    },
    /// Mean squared error against a constant target.
    MseConst {
        pred: usize,
        target: Rc<Tensor>,
    },
    /// Mean InfoNCE loss. For each row `i` of `z`, `cands[i]` is a
    /// `(k_i x d)` candidate matrix whose row 0 is the positive sample; all
    /// candidates are detached constants (MoCo-style), so gradients flow only
    /// into `z`.
    InfoNce {
        z: usize,
        cands: Rc<Vec<Tensor>>,
        tau: f32,
    },
}

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
    needs_grad: bool,
    param: Option<ParamId>,
}

/// An autograd tape. Create one per forward/backward pass.
#[derive(Default)]
pub struct Graph {
    nodes: RefCell<Vec<Node>>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&self, value: Tensor, op: Op, needs_grad: bool, param: Option<ParamId>) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            value,
            grad: None,
            op,
            needs_grad,
            param,
        });
        Var {
            id: nodes.len() - 1,
        }
    }

    fn needs(&self, id: usize) -> bool {
        self.nodes.borrow()[id].needs_grad
    }

    /// Adds a constant input (no gradient is computed for it).
    pub fn input(&self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, false, None)
    }

    /// Adds a leaf that requires a gradient but is not a registered
    /// parameter. Useful in tests and for gradient checking.
    pub fn leaf_grad(&self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, true, None)
    }

    /// Adds the current value of a parameter to the tape.
    pub fn param(&self, store: &ParamStore, id: ParamId) -> Var {
        self.push(store.value(id).clone(), Op::Leaf, true, Some(id))
    }

    /// Shape of a node's value.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes.borrow()[v.id].value.shape()
    }

    /// Clones a node's value off the tape.
    pub fn value(&self, v: Var) -> Tensor {
        self.nodes.borrow()[v.id].value.clone()
    }

    /// Clones a node's gradient, if one was computed.
    pub fn grad(&self, v: Var) -> Option<Tensor> {
        self.nodes.borrow()[v.id].grad.clone()
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    // ---- ops ------------------------------------------------------------

    /// Matrix product.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.id].value.matmul(&nodes[b.id].value)
        };
        let needs = self.needs(a.id) || self.needs(b.id);
        self.push(v, Op::MatMul(a.id, b.id), needs, None)
    }

    /// Elementwise sum of two same-shape tensors.
    pub fn add(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.id].value.zip(&nodes[b.id].value, |x, y| x + y)
        };
        let needs = self.needs(a.id) || self.needs(b.id);
        self.push(v, Op::Add(a.id, b.id), needs, None)
    }

    /// Elementwise difference of two same-shape tensors.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.id].value.zip(&nodes[b.id].value, |x, y| x - y)
        };
        let needs = self.needs(a.id) || self.needs(b.id);
        self.push(v, Op::Sub(a.id, b.id), needs, None)
    }

    /// Elementwise (Hadamard) product of two same-shape tensors.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.id].value.zip(&nodes[b.id].value, |x, y| x * y)
        };
        let needs = self.needs(a.id) || self.needs(b.id);
        self.push(v, Op::Mul(a.id, b.id), needs, None)
    }

    /// `(n x m) + (1 x m)`: broadcasts a row vector over every row (bias add).
    pub fn add_row(&self, a: Var, row: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let (m, r) = (&nodes[a.id].value, &nodes[row.id].value);
            assert_eq!(r.rows(), 1, "add_row rhs must be a row vector");
            assert_eq!(m.cols(), r.cols(), "add_row width mismatch");
            let mut out = m.clone();
            let cols = out.cols().max(1);
            let rr = r.row_slice(0);
            sarn_par::par_chunks_mut(out.data_mut(), cols, PAR_MIN_ELEMS, |_, chunk| {
                for row in chunk.chunks_mut(cols) {
                    for (o, &b) in row.iter_mut().zip(rr.iter()) {
                        *o += b;
                    }
                }
            });
            out
        };
        let needs = self.needs(a.id) || self.needs(row.id);
        self.push(v, Op::AddRow(a.id, row.id), needs, None)
    }

    /// `(n x m) * (n x 1)`: scales each row by a per-row factor.
    pub fn mul_col(&self, a: Var, col: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let (m, c) = (&nodes[a.id].value, &nodes[col.id].value);
            assert_eq!(c.cols(), 1, "mul_col rhs must be a column vector");
            assert_eq!(m.rows(), c.rows(), "mul_col height mismatch");
            let mut out = m.clone();
            let cols = out.cols().max(1);
            sarn_par::par_chunks_mut(out.data_mut(), cols, PAR_MIN_ELEMS, |offset, chunk| {
                let i0 = offset / cols;
                for (di, row) in chunk.chunks_mut(cols).enumerate() {
                    let f = c.at(i0 + di, 0);
                    for o in row {
                        *o *= f;
                    }
                }
            });
            out
        };
        let needs = self.needs(a.id) || self.needs(col.id);
        self.push(v, Op::MulCol(a.id, col.id), needs, None)
    }

    /// Multiplication by a constant.
    pub fn scale(&self, a: Var, c: f32) -> Var {
        let v = self.nodes.borrow()[a.id].value.map(|x| x * c);
        let needs = self.needs(a.id);
        self.push(v, Op::Scale(a.id, c), needs, None)
    }

    /// Addition of a constant to every element.
    pub fn add_scalar(&self, a: Var, c: f32) -> Var {
        let v = self.nodes.borrow()[a.id].value.map(|x| x + c);
        let needs = self.needs(a.id);
        self.push(v, Op::AddScalar(a.id), needs, None)
    }

    /// Elementwise negation.
    pub fn neg(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.id].value.map(|x| -x);
        let needs = self.needs(a.id);
        self.push(v, Op::Neg(a.id), needs, None)
    }

    /// Elementwise exponential.
    pub fn exp(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.id].value.map(f32::exp);
        let needs = self.needs(a.id);
        self.push(v, Op::Exp(a.id), needs, None)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.id].value.map(f32::ln);
        let needs = self.needs(a.id);
        self.push(v, Op::Ln(a.id), needs, None)
    }

    /// Elementwise absolute value (subgradient 0 at the kink).
    pub fn abs(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.id].value.map(f32::abs);
        let needs = self.needs(a.id);
        self.push(v, Op::Abs(a.id), needs, None)
    }

    /// Elementwise square.
    pub fn sqr(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.id].value.map(|x| x * x);
        let needs = self.needs(a.id);
        self.push(v, Op::Sqr(a.id), needs, None)
    }

    /// Rectified linear unit.
    pub fn relu(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.id].value.map(|x| x.max(0.0));
        let needs = self.needs(a.id);
        self.push(v, Op::Relu(a.id), needs, None)
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&self, a: Var, alpha: f32) -> Var {
        let v = self.nodes.borrow()[a.id]
            .value
            .map(|x| if x > 0.0 { x } else { alpha * x });
        let needs = self.needs(a.id);
        self.push(v, Op::LeakyRelu(a.id, alpha), needs, None)
    }

    /// Exponential linear unit: `x` for `x > 0`, `alpha (e^x - 1)` otherwise
    /// (the expression lives in [`crate::kernels::elu`], shared with the
    /// fused scatter so both produce bit-identical values).
    pub fn elu(&self, a: Var, alpha: f32) -> Var {
        let v = self.nodes.borrow()[a.id]
            .value
            .map(|x| crate::kernels::elu(x, alpha));
        let needs = self.needs(a.id);
        self.push(v, Op::Elu(a.id, alpha), needs, None)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.id]
            .value
            .map(|x| 1.0 / (1.0 + (-x).exp()));
        let needs = self.needs(a.id);
        self.push(v, Op::Sigmoid(a.id), needs, None)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.id].value.map(f32::tanh);
        let needs = self.needs(a.id);
        self.push(v, Op::Tanh(a.id), needs, None)
    }

    /// `1 - x`, elementwise (used by GRU gates).
    pub fn one_minus(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.id].value.map(|x| 1.0 - x);
        let needs = self.needs(a.id);
        self.push(v, Op::OneMinus(a.id), needs, None)
    }

    /// Row-wise L2 normalization: `y_i = x_i / max(||x_i||, eps)`.
    pub fn l2_normalize_rows(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let m = &nodes[a.id].value;
            let mut out = m.clone();
            let cols = out.cols().max(1);
            sarn_par::par_chunks_mut(out.data_mut(), cols, PAR_MIN_ELEMS, |_, chunk| {
                for row in chunk.chunks_mut(cols) {
                    let n = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-12);
                    for v in row.iter_mut() {
                        *v /= n;
                    }
                }
            });
            out
        };
        let needs = self.needs(a.id);
        self.push(v, Op::L2NormalizeRows(a.id), needs, None)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            softmax_rows_value(&nodes[a.id].value)
        };
        let needs = self.needs(a.id);
        self.push(v, Op::SoftmaxRows(a.id), needs, None)
    }

    /// Sum of every element, as a `1 x 1` tensor.
    pub fn sum_all(&self, a: Var) -> Var {
        let v = Tensor::scalar(self.nodes.borrow()[a.id].value.sum());
        let needs = self.needs(a.id);
        self.push(v, Op::SumAll(a.id), needs, None)
    }

    /// Mean of every element, as a `1 x 1` tensor.
    pub fn mean_all(&self, a: Var) -> Var {
        let v = Tensor::scalar(self.nodes.borrow()[a.id].value.mean());
        let needs = self.needs(a.id);
        self.push(v, Op::MeanAll(a.id), needs, None)
    }

    /// Per-row sums: `(n x m) -> (n x 1)`.
    pub fn sum_rows(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let m = &nodes[a.id].value;
            let mut out = vec![0.0f32; m.rows()];
            let gate = par_gate(m.len() >= PAR_MIN_ELEMS);
            sarn_par::par_chunks_mut(&mut out, 1, gate, |offset, chunk| {
                for (i, o) in chunk.iter_mut().enumerate() {
                    *o = m.row_slice(offset + i).iter().sum();
                }
            });
            Tensor::from_vec(m.rows(), 1, out)
        };
        let needs = self.needs(a.id);
        self.push(v, Op::SumRows(a.id), needs, None)
    }

    /// Transpose.
    pub fn transpose(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.id].value.transpose();
        let needs = self.needs(a.id);
        self.push(v, Op::Transpose(a.id), needs, None)
    }

    /// Horizontal concatenation of tensors with equal row counts.
    pub fn concat_cols(&self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols of zero vars");
        let v = {
            let nodes = self.nodes.borrow();
            let rows = nodes[parts[0].id].value.rows();
            let total: usize = parts.iter().map(|p| nodes[p.id].value.cols()).sum();
            let mut out = Tensor::zeros(rows, total);
            let mut off = 0;
            for p in parts {
                let t = &nodes[p.id].value;
                assert_eq!(t.rows(), rows, "concat_cols row mismatch");
                for i in 0..rows {
                    let dst = &mut out.row_slice_mut(i)[off..off + t.cols()];
                    dst.copy_from_slice(t.row_slice(i));
                }
                off += t.cols();
            }
            out
        };
        let needs = parts.iter().any(|p| self.needs(p.id));
        self.push(
            v,
            Op::ConcatCols(parts.iter().map(|p| p.id).collect()),
            needs,
            None,
        )
    }

    /// Vertical concatenation of tensors with equal column counts.
    pub fn concat_rows(&self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows of zero vars");
        let v = {
            let nodes = self.nodes.borrow();
            let tensors: Vec<&Tensor> = parts.iter().map(|p| &nodes[p.id].value).collect();
            Tensor::vstack(&tensors)
        };
        let needs = parts.iter().any(|p| self.needs(p.id));
        self.push(
            v,
            Op::ConcatRows(parts.iter().map(|p| p.id).collect()),
            needs,
            None,
        )
    }

    /// Gathers rows of `src` by index (embedding lookup); backward scatters
    /// gradients back with accumulation for repeated indices.
    pub fn gather_rows(&self, src: Var, idx: &[usize]) -> Var {
        let v = self.nodes.borrow()[src.id].value.gather_rows(idx);
        let needs = self.needs(src.id);
        self.push(
            v,
            Op::GatherRows {
                src: src.id,
                idx: Rc::new(idx.to_vec()),
            },
            needs,
            None,
        )
    }

    /// Contiguous row slice `[start, start + len)`.
    pub fn slice_rows(&self, src: Var, start: usize, len: usize) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let m = &nodes[src.id].value;
            assert!(start + len <= m.rows(), "slice_rows out of bounds");
            let mut out = Tensor::zeros(len, m.cols());
            for i in 0..len {
                out.row_slice_mut(i).copy_from_slice(m.row_slice(start + i));
            }
            out
        };
        let needs = self.needs(src.id);
        self.push(v, Op::SliceRows { src: src.id, start }, needs, None)
    }

    /// Softmax of an `e x 1` score column within groups given by `seg`
    /// (values in `0..nseg`). Empty groups are allowed.
    pub fn segment_softmax(&self, scores: Var, seg: Rc<Vec<usize>>, nseg: usize) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let s = &nodes[scores.id].value;
            assert_eq!(s.cols(), 1, "segment_softmax expects a column");
            assert_eq!(s.rows(), seg.len(), "segment id count mismatch");
            segment_softmax_value(s, &seg, nseg)
        };
        let needs = self.needs(scores.id);
        self.push(
            v,
            Op::SegmentSoftmax {
                scores: scores.id,
                seg,
                nseg,
            },
            needs,
            None,
        )
    }

    /// `out[seg[e]] += alpha[e] * values[e]` over all edges `e`; `alpha` is
    /// `e x 1`, `values` is `e x d`, and the output is `nseg x d`.
    pub fn segment_weighted_sum(
        &self,
        alpha: Var,
        values: Var,
        seg: Rc<Vec<usize>>,
        nseg: usize,
    ) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            segment_weighted_sum_value(
                &nodes[alpha.id].value,
                &nodes[values.id].value,
                &seg,
                nseg,
                None,
            )
        };
        let needs = self.needs(alpha.id) || self.needs(values.id);
        self.push(
            v,
            Op::SegmentWeightedSum {
                alpha: alpha.id,
                values: values.id,
                seg,
            },
            needs,
            None,
        )
    }

    /// [`Graph::segment_weighted_sum`] with an ELU (parameter `elu_alpha`)
    /// fused into the output pass: `y = elu(Σ_e alpha[e] * values[e])`.
    ///
    /// The scatter accumulation order and the ELU expression are exactly
    /// those of the unfused `segment_weighted_sum` + [`Graph::elu`] pair, so
    /// the fused op is bit-identical to the two-node form — it only removes
    /// a tape node and a full extra pass over the `nseg x d` output.
    pub fn segment_weighted_sum_elu(
        &self,
        alpha: Var,
        values: Var,
        seg: Rc<Vec<usize>>,
        nseg: usize,
        elu_alpha: f32,
    ) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            segment_weighted_sum_value(
                &nodes[alpha.id].value,
                &nodes[values.id].value,
                &seg,
                nseg,
                Some(elu_alpha),
            )
        };
        let needs = self.needs(alpha.id) || self.needs(values.id);
        self.push(
            v,
            Op::SegmentWeightedSumElu {
                alpha: alpha.id,
                values: values.id,
                seg,
                elu_alpha,
            },
            needs,
            None,
        )
    }

    /// GAT attention logits without materializing per-edge rows: row `e` of
    /// the `E x 1` result is `a^T [wx[center_src[e]] || hn[e]]`, for `wx`
    /// `n x d`, `hn` `E x d` (one row per edge) and `a` `2d x 1`.
    ///
    /// Values and gradients equal, bit for bit, those of
    /// `matmul(concat_cols([gather_rows(wx, center_src), hn]), a)`:
    /// - The forward keeps that matmul's chain per edge (ascending terms,
    ///   zero entries skipped, from `+0`). The chain's center half depends
    ///   only on the center row, so it runs once per center and continues
    ///   per edge over the neighbour half.
    /// - The backward is the matmul's, then the concat's and the gather's:
    ///   `d a` sums over the joined rows in edge order (skipping zero
    ///   entries, as `t_matmul` does), each edge's gradient term
    ///   is `0 + g[e] · a[j]` (the `k = 1` `matmul_t` chain, which turns
    ///   `−0` into `+0`), and `wx` receives the center half scattered by
    ///   `center_src` in edge order.
    pub fn gat_scores(&self, wx: Var, hn: Var, a: Var, center_src: Rc<Vec<usize>>) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            gat_scores_value(
                &nodes[wx.id].value,
                &nodes[hn.id].value,
                &nodes[a.id].value,
                &center_src,
            )
        };
        let needs = self.needs(wx.id) || self.needs(hn.id) || self.needs(a.id);
        self.push(
            v,
            Op::GatScores {
                wx: wx.id,
                hn: hn.id,
                a: a.id,
                center_src,
            },
            needs,
            None,
        )
    }

    /// Mean cross-entropy of logits against integer class labels.
    pub fn cross_entropy(&self, logits: Var, labels: &[usize]) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let l = &nodes[logits.id].value;
            assert_eq!(l.rows(), labels.len(), "label count mismatch");
            let probs = softmax_rows_value(l);
            let mut loss = 0.0;
            for (i, &y) in labels.iter().enumerate() {
                loss -= (probs.at(i, y) + 1e-12).ln();
            }
            Tensor::scalar(loss / labels.len().max(1) as f32)
        };
        let needs = self.needs(logits.id);
        self.push(
            v,
            Op::CrossEntropy {
                logits: logits.id,
                labels: Rc::new(labels.to_vec()),
            },
            needs,
            None,
        )
    }

    /// Mean squared error against a constant target of the same shape.
    pub fn mse(&self, pred: Var, target: &Tensor) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let p = &nodes[pred.id].value;
            assert_eq!(p.shape(), target.shape(), "mse shape mismatch");
            let mut acc = 0.0;
            for (a, b) in p.data().iter().zip(target.data().iter()) {
                let d = a - b;
                acc += d * d;
            }
            Tensor::scalar(acc / p.len().max(1) as f32)
        };
        let needs = self.needs(pred.id);
        self.push(
            v,
            Op::MseConst {
                pred: pred.id,
                target: Rc::new(target.clone()),
            },
            needs,
            None,
        )
    }

    /// Mean InfoNCE loss over the rows of `z`.
    ///
    /// `cands[i]` holds the candidates for anchor `i`: row 0 is the positive
    /// sample, the remaining rows are negatives. Similarity is the dot
    /// product scaled by `1/tau`. Candidates are treated as constants (the
    /// MoCo momentum branch), so gradients flow only into `z`.
    pub fn info_nce(&self, z: Var, cands: Vec<Tensor>, tau: f32) -> Var {
        assert!(tau > 0.0, "temperature must be positive");
        let v = {
            let nodes = self.nodes.borrow();
            let zt = &nodes[z.id].value;
            assert_eq!(zt.rows(), cands.len(), "candidate count mismatch");
            // Per-anchor terms are independent; computing them in parallel
            // and reducing serially in anchor order reproduces the serial
            // `loss -= term` accumulation bit-for-bit.
            let gate = par_gate(cands.len() >= PAR_MIN_ANCHORS);
            let parts = sarn_par::par_ranges(cands.len(), gate, |range| {
                range
                    .map(|i| {
                        let c = &cands[i];
                        assert_eq!(c.cols(), zt.cols(), "candidate width mismatch");
                        assert!(c.rows() >= 1, "anchor {i} has no candidates");
                        let zi = zt.row_slice(i);
                        let mut logits: Vec<f32> = (0..c.rows())
                            .map(|r| Tensor::dot(zi, c.row_slice(r)) / tau)
                            .collect();
                        let m = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                        let mut denom = 0.0;
                        for l in &mut logits {
                            *l = (*l - m).exp();
                            denom += *l;
                        }
                        -(logits[0] / denom + 1e-12).ln()
                    })
                    .collect::<Vec<f32>>()
            });
            let mut loss = 0.0;
            for term in parts.iter().flatten() {
                loss += term;
            }
            Tensor::scalar(loss / cands.len().max(1) as f32)
        };
        let needs = self.needs(z.id);
        self.push(
            v,
            Op::InfoNce {
                z: z.id,
                cands: Rc::new(cands),
                tau,
            },
            needs,
            None,
        )
    }

    // ---- backward --------------------------------------------------------

    /// Runs backpropagation from `root` (which must be `1 x 1`).
    pub fn backward(&self, root: Var) {
        let mut nodes = self.nodes.borrow_mut();
        assert_eq!(
            nodes[root.id].value.shape(),
            (1, 1),
            "backward root must be scalar"
        );
        nodes[root.id].grad = Some(Tensor::scalar(1.0));
        for id in (0..=root.id).rev() {
            if !nodes[id].needs_grad {
                continue;
            }
            let Some(g) = nodes[id].grad.take() else {
                continue;
            };
            // Temporarily move the op out to appease the borrow checker; the
            // per-op code reads values of other nodes and accumulates into
            // their gradients.
            backward_step(&mut nodes, id, &g);
            nodes[id].grad = Some(g);
        }
    }

    /// Adds every parameter gradient on the tape into `store`.
    pub fn accumulate_grads(&self, store: &mut ParamStore) {
        let nodes = self.nodes.borrow();
        for node in nodes.iter() {
            if let (Some(pid), Some(grad)) = (node.param, node.grad.as_ref()) {
                store.grad_mut(pid).axpy(1.0, grad);
            }
        }
    }
}

/// Backward of the segment scatter, shared by the plain and the ELU-fused
/// op (the latter pre-multiplies `g` by the ELU derivative). Both gradients
/// are elementwise over edges (no accumulation).
fn segment_weighted_sum_backward(
    nodes: &mut [Node],
    g: &Tensor,
    alpha: usize,
    values: usize,
    seg: &[usize],
) {
    let (a, v) = (&nodes[alpha].value, &nodes[values].value);
    let gate = par_gate(seg.len() >= PAR_MIN_EDGES);
    let mut da = vec![0.0f32; a.rows()];
    sarn_par::par_chunks_mut(&mut da, 1, gate, |offset, chunk| {
        for (i, o) in chunk.iter_mut().enumerate() {
            let e = offset + i;
            *o = Tensor::dot(g.row_slice(seg[e]), v.row_slice(e));
        }
    });
    let cols = v.cols().max(1);
    let mut dv = vec![0.0f32; v.len()];
    sarn_par::par_chunks_mut(&mut dv, cols, gate, |offset, chunk| {
        let e0 = offset / cols;
        for (de, orow) in chunk.chunks_mut(cols).enumerate() {
            let e = e0 + de;
            let w = a.at(e, 0);
            for (o, &x) in orow.iter_mut().zip(g.row_slice(seg[e])) {
                *o = w * x;
            }
        }
    });
    let da = Tensor::from_vec(a.rows(), 1, da);
    let dv = Tensor::from_vec(v.rows(), v.cols(), dv);
    accumulate(nodes, alpha, da);
    accumulate(nodes, values, dv);
}

fn accumulate(nodes: &mut [Node], id: usize, delta: Tensor) {
    if !nodes[id].needs_grad {
        return;
    }
    match nodes[id].grad.as_mut() {
        Some(g) => g.axpy(1.0, &delta),
        None => nodes[id].grad = Some(delta),
    }
}

/// Row-wise softmax on a raw tensor (shared by the op and the CE loss).
pub(crate) fn softmax_rows_value(m: &Tensor) -> Tensor {
    let mut out = m.clone();
    for i in 0..out.rows() {
        let row = out.row_slice_mut(i);
        let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0;
        for v in row.iter_mut() {
            *v = (*v - mx).exp();
            denom += *v;
        }
        for v in row.iter_mut() {
            *v /= denom;
        }
    }
    out
}

/// Forward pass shared by the plain and the ELU-fused segment scatter:
/// `out[seg[e]] += alpha[e] * values[e]`, then optionally `elu` applied to
/// each output chunk while it is still cache-hot. The scatter partitions
/// destination rows; each owner scans the whole edge list in ascending
/// order, so accumulation matches the serial path bit-for-bit, and the ELU
/// is elementwise on identical sums — fusion never changes a bit.
fn segment_weighted_sum_value(
    a: &Tensor,
    vals: &Tensor,
    seg: &[usize],
    nseg: usize,
    elu_alpha: Option<f32>,
) -> Tensor {
    assert_eq!(a.cols(), 1, "segment_weighted_sum alpha must be a column");
    assert_eq!(a.rows(), vals.rows(), "alpha/value count mismatch");
    assert_eq!(a.rows(), seg.len(), "segment id count mismatch");
    let cols = vals.cols().max(1);
    let mut out = vec![0.0f32; nseg * vals.cols()];
    let gate = par_gate(seg.len() >= PAR_MIN_EDGES);
    sarn_par::par_chunks_mut(&mut out, cols, gate, |offset, chunk| {
        let (s0, s1) = (offset / cols, (offset + chunk.len()) / cols);
        for (e, &s) in seg.iter().enumerate() {
            if s < s0 || s >= s1 {
                continue;
            }
            let w = a.at(e, 0);
            let dst = &mut chunk[(s - s0) * cols..(s - s0 + 1) * cols];
            for (o, &x) in dst.iter_mut().zip(vals.row_slice(e).iter()) {
                *o += w * x;
            }
        }
        if let Some(al) = elu_alpha {
            for o in chunk.iter_mut() {
                *o = crate::kernels::elu(*o, al);
            }
        }
    });
    Tensor::from_vec(nseg, vals.cols(), out)
}

fn segment_softmax_value(scores: &Tensor, seg: &[usize], nseg: usize) -> Tensor {
    // Per-segment max and exp-sum, partitioned by segment id: each range
    // owner scans the whole edge list in ascending order, so the per-segment
    // accumulation order matches the serial pass exactly.
    let gate = par_gate(seg.len() >= PAR_MIN_EDGES);
    let parts = sarn_par::par_ranges(nseg, gate, |r| {
        let mut maxes = vec![f32::NEG_INFINITY; r.len()];
        for (e, &s) in seg.iter().enumerate() {
            if r.contains(&s) {
                maxes[s - r.start] = maxes[s - r.start].max(scores.at(e, 0));
            }
        }
        let mut sums = vec![0.0f32; r.len()];
        for (e, &s) in seg.iter().enumerate() {
            if r.contains(&s) {
                sums[s - r.start] += (scores.at(e, 0) - maxes[s - r.start]).exp();
            }
        }
        (maxes, sums)
    });
    let mut maxes = Vec::with_capacity(nseg);
    let mut sums = Vec::with_capacity(nseg);
    for (m, s) in parts {
        maxes.extend(m);
        sums.extend(s);
    }
    // The normalized weights are then elementwise over edges.
    let mut out = vec![0.0f32; seg.len()];
    sarn_par::par_chunks_mut(&mut out, 1, gate, |offset, chunk| {
        for (i, o) in chunk.iter_mut().enumerate() {
            let e = offset + i;
            let s = seg[e];
            *o = (scores.at(e, 0) - maxes[s]).exp() / sums[s];
        }
    });
    Tensor::from_vec(seg.len(), 1, out)
}

/// Forward of [`Graph::gat_scores`], over edge ranges.
fn gat_scores_value(wx: &Tensor, hn: &Tensor, a: &Tensor, center_src: &[usize]) -> Tensor {
    let d = wx.cols();
    assert_eq!(hn.cols(), d, "gat_scores wx/hn width mismatch");
    assert_eq!(
        hn.rows(),
        center_src.len(),
        "gat_scores hn/edge count mismatch"
    );
    assert_eq!(a.shape(), (2 * d, 1), "gat_scores a must be 2d x 1");
    let (a_c, a_n) = a.data().split_at(d);
    let mut out = vec![0.0f32; center_src.len()];
    let gate = par_gate(center_src.len() >= PAR_MIN_EDGES);
    let mut center_half = vec![0.0f32; wx.rows()];
    let mut done = vec![false; wx.rows()];
    for &c in center_src {
        if !done[c] {
            center_half[c] = crate::kernels::continue_chain(0.0, wx.row_slice(c), a_c);
            done[c] = true;
        }
    }
    sarn_par::par_chunks_mut(&mut out, 1, gate, |offset, chunk| {
        for (i, o) in chunk.iter_mut().enumerate() {
            let e = offset + i;
            let acc = center_half[center_src[e]];
            *o = crate::kernels::continue_chain(acc, hn.row_slice(e), a_n);
        }
    });
    Tensor::from_vec(center_src.len(), 1, out)
}

/// One edge's gradient term for a joined-row entry: `0 + g · a`, the
/// `k = 1` chain of `matmul_t`.
#[inline]
fn score_term(g: f32, a: f32) -> f32 {
    0.0 + g * a
}

/// `out[j] += x[j] * s` for every `j`, skipping zero `x[j]` as `t_matmul`
/// skips zero lhs entries.
#[inline]
fn add_scaled(out: &mut [f32], x: &[f32], s: f32) {
    for (o, &xv) in out.iter_mut().zip(x) {
        if xv != 0.0 {
            *o += xv * s;
        }
    }
}

/// Backward of [`Graph::gat_scores`]: the gradients of `a`, `hn` and `wx`.
/// `d a` is split by output entry and `d wx` by destination row; every
/// owner scans all edges in ascending order.
fn gat_scores_backward(
    g: &Tensor,
    wx: &Tensor,
    hn: &Tensor,
    a: &Tensor,
    center_src: &[usize],
) -> (Tensor, Tensor, Tensor) {
    let (rows, d) = wx.shape();
    let edges = center_src.len();
    let (a_c, a_n) = a.data().split_at(d);
    let mut da = vec![0.0f32; 2 * d];
    let gate = par_gate(edges >= PAR_MIN_EDGES);
    sarn_par::par_chunks_mut(&mut da, 1, gate, |offset, chunk| {
        // Entries below `d` face the center row, the rest the neighbour row.
        let split = d.saturating_sub(offset).min(chunk.len());
        let (dc, dn) = chunk.split_at_mut(split);
        let (c0, n0) = (offset.min(d), (offset + split).saturating_sub(d));
        for (e, &c) in center_src.iter().enumerate() {
            let ge = g.at(e, 0);
            add_scaled(dc, &wx.row_slice(c)[c0..c0 + dc.len()], ge);
            add_scaled(dn, &hn.row_slice(e)[n0..n0 + dn.len()], ge);
        }
    });
    let cols = d.max(1);
    let mut dhn = vec![0.0f32; edges * d];
    sarn_par::par_chunks_mut(&mut dhn, cols, PAR_MIN_ELEMS, |offset, chunk| {
        let e0 = offset / cols;
        for (de, row) in chunk.chunks_mut(cols).enumerate() {
            let ge = g.at(e0 + de, 0);
            for (o, &av) in row.iter_mut().zip(a_n) {
                *o = score_term(ge, av);
            }
        }
    });
    let mut dwx = vec![0.0f32; rows * d];
    let gate = par_gate(edges * d >= PAR_MIN_ELEMS);
    sarn_par::par_chunks_mut(&mut dwx, cols, gate, |offset, chunk| {
        let (r0, r1) = (offset / cols, (offset + chunk.len()) / cols);
        for (e, &c) in center_src.iter().enumerate() {
            if c < r0 || c >= r1 {
                continue;
            }
            let ge = g.at(e, 0);
            let dst = &mut chunk[(c - r0) * cols..(c - r0 + 1) * cols];
            for (o, &av) in dst.iter_mut().zip(a_c) {
                *o += score_term(ge, av);
            }
        }
    });
    (
        Tensor::from_vec(2 * d, 1, da),
        Tensor::from_vec(edges, d, dhn),
        Tensor::from_vec(rows, d, dwx),
    )
}

#[allow(clippy::too_many_lines)]
fn backward_step(nodes: &mut [Node], id: usize, g: &Tensor) {
    // Move the op out so we can mutably borrow the node list while matching.
    let op = std::mem::replace(&mut nodes[id].op, Op::Leaf);
    match &op {
        Op::Leaf => {}
        Op::MatMul(a, b) => {
            let da = g.matmul_t(&nodes[*b].value);
            let db = nodes[*a].value.t_matmul(g);
            accumulate(nodes, *a, da);
            accumulate(nodes, *b, db);
        }
        Op::Add(a, b) => {
            accumulate(nodes, *a, g.clone());
            accumulate(nodes, *b, g.clone());
        }
        Op::Sub(a, b) => {
            accumulate(nodes, *a, g.clone());
            accumulate(nodes, *b, g.map(|x| -x));
        }
        Op::Mul(a, b) => {
            let da = g.zip(&nodes[*b].value, |x, y| x * y);
            let db = g.zip(&nodes[*a].value, |x, y| x * y);
            accumulate(nodes, *a, da);
            accumulate(nodes, *b, db);
        }
        Op::AddRow(a, row) => {
            accumulate(nodes, *a, g.clone());
            // Column sums, partitioned by column: each owner walks the rows
            // in ascending order, matching the serial accumulation.
            let mut dr = vec![0.0f32; g.cols()];
            let gate = par_gate(g.len() >= PAR_MIN_ELEMS);
            sarn_par::par_chunks_mut(&mut dr, 1, gate, |offset, chunk| {
                for i in 0..g.rows() {
                    let grow = &g.row_slice(i)[offset..offset + chunk.len()];
                    for (o, &x) in chunk.iter_mut().zip(grow) {
                        *o += x;
                    }
                }
            });
            accumulate(nodes, *row, Tensor::from_vec(1, g.cols(), dr));
        }
        Op::MulCol(a, col) => {
            let (c, av) = (&nodes[*col].value, &nodes[*a].value);
            let mut da = g.clone();
            let cols = da.cols().max(1);
            sarn_par::par_chunks_mut(da.data_mut(), cols, PAR_MIN_ELEMS, |offset, chunk| {
                let i0 = offset / cols;
                for (di, row) in chunk.chunks_mut(cols).enumerate() {
                    let f = c.at(i0 + di, 0);
                    for v in row {
                        *v *= f;
                    }
                }
            });
            let mut dc = vec![0.0f32; c.rows()];
            let gate = par_gate(g.len() >= PAR_MIN_ELEMS);
            sarn_par::par_chunks_mut(&mut dc, 1, gate, |offset, chunk| {
                for (i, o) in chunk.iter_mut().enumerate() {
                    *o = Tensor::dot(g.row_slice(offset + i), av.row_slice(offset + i));
                }
            });
            let dc = Tensor::from_vec(c.rows(), 1, dc);
            accumulate(nodes, *a, da);
            accumulate(nodes, *col, dc);
        }
        Op::Scale(a, c) => accumulate(nodes, *a, g.map(|x| x * c)),
        Op::AddScalar(a) => accumulate(nodes, *a, g.clone()),
        Op::Neg(a) => accumulate(nodes, *a, g.map(|x| -x)),
        Op::Exp(a) => {
            let d = g.zip(&nodes[id].value, |x, y| x * y);
            accumulate(nodes, *a, d);
        }
        Op::Ln(a) => {
            let d = g.zip(&nodes[*a].value, |x, y| x / y);
            accumulate(nodes, *a, d);
        }
        Op::Abs(a) => {
            let d = g.zip(&nodes[*a].value, |x, y| {
                if y > 0.0 {
                    x
                } else if y < 0.0 {
                    -x
                } else {
                    0.0
                }
            });
            accumulate(nodes, *a, d);
        }
        Op::Sqr(a) => {
            let d = g.zip(&nodes[*a].value, |x, y| 2.0 * x * y);
            accumulate(nodes, *a, d);
        }
        Op::Relu(a) => {
            let d = g.zip(&nodes[*a].value, |x, y| if y > 0.0 { x } else { 0.0 });
            accumulate(nodes, *a, d);
        }
        Op::LeakyRelu(a, alpha) => {
            let al = *alpha;
            let d = g.zip(&nodes[*a].value, |x, y| if y > 0.0 { x } else { al * x });
            accumulate(nodes, *a, d);
        }
        Op::Elu(a, alpha) => {
            let al = *alpha;
            // d/dx elu = 1 for x > 0, alpha * e^x = value + alpha otherwise.
            let d = g.zip(
                &nodes[id].value,
                |x, out| {
                    if out > 0.0 {
                        x
                    } else {
                        x * (out + al)
                    }
                },
            );
            accumulate(nodes, *a, d);
        }
        Op::Sigmoid(a) => {
            let d = g.zip(&nodes[id].value, |x, s| x * s * (1.0 - s));
            accumulate(nodes, *a, d);
        }
        Op::Tanh(a) => {
            let d = g.zip(&nodes[id].value, |x, t| x * (1.0 - t * t));
            accumulate(nodes, *a, d);
        }
        Op::OneMinus(a) => accumulate(nodes, *a, g.map(|x| -x)),
        Op::L2NormalizeRows(a) => {
            // y = x / n with n = ||x||: dx = (g - y (g . y)) / n
            let (x, y) = (&nodes[*a].value, &nodes[id].value);
            let cols = x.cols().max(1);
            let mut d = vec![0.0f32; x.len()];
            sarn_par::par_chunks_mut(&mut d, cols, PAR_MIN_ELEMS, |offset, chunk| {
                let i0 = offset / cols;
                for (di, drow) in chunk.chunks_mut(cols).enumerate() {
                    let i = i0 + di;
                    let n = x
                        .row_slice(i)
                        .iter()
                        .map(|v| v * v)
                        .sum::<f32>()
                        .sqrt()
                        .max(1e-12);
                    let gy = Tensor::dot(g.row_slice(i), y.row_slice(i));
                    for (c, o) in drow.iter_mut().enumerate() {
                        *o = (g.at(i, c) - y.at(i, c) * gy) / n;
                    }
                }
            });
            let d = Tensor::from_vec(x.rows(), x.cols(), d);
            accumulate(nodes, *a, d);
        }
        Op::SoftmaxRows(a) => {
            let s = &nodes[id].value;
            let cols = s.cols().max(1);
            let mut d = vec![0.0f32; s.len()];
            sarn_par::par_chunks_mut(&mut d, cols, PAR_MIN_ELEMS, |offset, chunk| {
                let i0 = offset / cols;
                for (di, drow) in chunk.chunks_mut(cols).enumerate() {
                    let i = i0 + di;
                    let srow = s.row_slice(i);
                    let grow = g.row_slice(i);
                    let dot = Tensor::dot(srow, grow);
                    for (c, o) in drow.iter_mut().enumerate() {
                        *o = srow[c] * (grow[c] - dot);
                    }
                }
            });
            let d = Tensor::from_vec(s.rows(), s.cols(), d);
            accumulate(nodes, *a, d);
        }
        Op::SumAll(a) => {
            let (r, c) = nodes[*a].value.shape();
            accumulate(nodes, *a, Tensor::full(r, c, g.item()));
        }
        Op::MeanAll(a) => {
            let (r, c) = nodes[*a].value.shape();
            let n = (r * c).max(1) as f32;
            accumulate(nodes, *a, Tensor::full(r, c, g.item() / n));
        }
        Op::SumRows(a) => {
            let (r, c) = nodes[*a].value.shape();
            let cols = c.max(1);
            let mut d = vec![0.0f32; r * c];
            sarn_par::par_chunks_mut(&mut d, cols, PAR_MIN_ELEMS, |offset, chunk| {
                let i0 = offset / cols;
                for (di, row) in chunk.chunks_mut(cols).enumerate() {
                    row.fill(g.at(i0 + di, 0));
                }
            });
            accumulate(nodes, *a, Tensor::from_vec(r, c, d));
        }
        Op::Transpose(a) => accumulate(nodes, *a, g.transpose()),
        Op::ConcatCols(parts) => {
            let mut off = 0;
            for &p in parts {
                let (r, c) = nodes[p].value.shape();
                let mut d = Tensor::zeros(r, c);
                for i in 0..r {
                    d.row_slice_mut(i)
                        .copy_from_slice(&g.row_slice(i)[off..off + c]);
                }
                off += c;
                accumulate(nodes, p, d);
            }
        }
        Op::ConcatRows(parts) => {
            let mut off = 0;
            for &p in parts {
                let (r, c) = nodes[p].value.shape();
                let mut d = Tensor::zeros(r, c);
                for i in 0..r {
                    d.row_slice_mut(i).copy_from_slice(g.row_slice(off + i));
                }
                off += r;
                accumulate(nodes, p, d);
            }
        }
        Op::GatherRows { src, idx } => {
            // Scatter-add partitioned by destination row: each owner scans
            // the full index list in ascending order, so repeated indices
            // accumulate in the serial order.
            let (r, c) = nodes[*src].value.shape();
            let cols = c.max(1);
            let mut d = vec![0.0f32; r * c];
            let idx: &[usize] = idx;
            let gate = par_gate(idx.len() * c >= PAR_MIN_ELEMS);
            sarn_par::par_chunks_mut(&mut d, cols, gate, |offset, chunk| {
                let (r0, r1) = (offset / cols, (offset + chunk.len()) / cols);
                for (e, &i) in idx.iter().enumerate() {
                    if i < r0 || i >= r1 {
                        continue;
                    }
                    let dst = &mut chunk[(i - r0) * cols..(i - r0 + 1) * cols];
                    for (o, &x) in dst.iter_mut().zip(g.row_slice(e)) {
                        *o += x;
                    }
                }
            });
            accumulate(nodes, *src, Tensor::from_vec(r, c, d));
        }
        Op::SliceRows { src, start } => {
            let (r, c) = nodes[*src].value.shape();
            let mut d = Tensor::zeros(r, c);
            for i in 0..g.rows() {
                d.row_slice_mut(start + i).copy_from_slice(g.row_slice(i));
            }
            accumulate(nodes, *src, d);
        }
        Op::SegmentSoftmax { scores, seg, nseg } => {
            let alpha = &nodes[id].value;
            // Per-segment dot, partitioned by segment id (serial order per
            // segment), then an elementwise pass over edges.
            let seg: &[usize] = seg;
            let gate = par_gate(seg.len() >= PAR_MIN_EDGES);
            let parts = sarn_par::par_ranges(*nseg, gate, |r| {
                let mut dot = vec![0.0f32; r.len()];
                for (e, &s) in seg.iter().enumerate() {
                    if r.contains(&s) {
                        dot[s - r.start] += alpha.at(e, 0) * g.at(e, 0);
                    }
                }
                dot
            });
            let seg_dot: Vec<f32> = parts.into_iter().flatten().collect();
            let mut d = vec![0.0f32; alpha.rows()];
            sarn_par::par_chunks_mut(&mut d, 1, gate, |offset, chunk| {
                for (i, o) in chunk.iter_mut().enumerate() {
                    let e = offset + i;
                    *o = alpha.at(e, 0) * (g.at(e, 0) - seg_dot[seg[e]]);
                }
            });
            let d = Tensor::from_vec(alpha.rows(), 1, d);
            accumulate(nodes, *scores, d);
        }
        Op::SegmentWeightedSum { alpha, values, seg } => {
            segment_weighted_sum_backward(nodes, g, *alpha, *values, seg);
        }
        Op::SegmentWeightedSumElu {
            alpha,
            values,
            seg,
            elu_alpha,
        } => {
            // Chain through the fused ELU first: ds = g ⊙ elu'(y), the same
            // value-based derivative as Op::Elu (y is the fused output), then
            // the plain scatter backward sees ds in place of g.
            let al = *elu_alpha;
            let ds = g.zip(
                &nodes[id].value,
                |x, out| {
                    if out > 0.0 {
                        x
                    } else {
                        x * (out + al)
                    }
                },
            );
            segment_weighted_sum_backward(nodes, &ds, *alpha, *values, seg);
        }
        Op::GatScores {
            wx,
            hn,
            a,
            center_src,
        } => {
            let (da, dhn, dwx) = gat_scores_backward(
                g,
                &nodes[*wx].value,
                &nodes[*hn].value,
                &nodes[*a].value,
                center_src,
            );
            accumulate(nodes, *a, da);
            accumulate(nodes, *hn, dhn);
            accumulate(nodes, *wx, dwx);
        }
        Op::CrossEntropy { logits, labels } => {
            let mut d = softmax_rows_value(&nodes[*logits].value);
            let n = labels.len().max(1) as f32;
            let scale = g.item() / n;
            let labels: &[usize] = labels;
            let cols = d.cols().max(1);
            sarn_par::par_chunks_mut(d.data_mut(), cols, PAR_MIN_ELEMS, |offset, chunk| {
                let i0 = offset / cols;
                for (di, row) in chunk.chunks_mut(cols).enumerate() {
                    row[labels[i0 + di]] -= 1.0;
                    for v in row.iter_mut() {
                        *v *= scale;
                    }
                }
            });
            accumulate(nodes, *logits, d);
        }
        Op::MseConst { pred, target } => {
            let p = &nodes[*pred].value;
            let n = p.len().max(1) as f32;
            let scale = 2.0 * g.item() / n;
            let d = p.zip(target, |a, b| scale * (a - b));
            accumulate(nodes, *pred, d);
        }
        Op::InfoNce { z, cands, tau } => {
            let zt = &nodes[*z].value;
            let b = cands.len().max(1) as f32;
            let scale = g.item() / (b * tau);
            let cands: &[Tensor] = cands;
            // Each anchor owns exactly one gradient row.
            let cols = zt.cols().max(1);
            let mut d = vec![0.0f32; zt.len()];
            let gate = par_gate(cands.len() >= PAR_MIN_ANCHORS);
            sarn_par::par_chunks_mut(&mut d, cols, gate, |offset, chunk| {
                let i0 = offset / cols;
                for (di, drow) in chunk.chunks_mut(cols).enumerate() {
                    let i = i0 + di;
                    let c = &cands[i];
                    let zi = zt.row_slice(i);
                    let mut logits: Vec<f32> = (0..c.rows())
                        .map(|r| Tensor::dot(zi, c.row_slice(r)) / tau)
                        .collect();
                    let m = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let mut denom = 0.0;
                    for l in &mut logits {
                        *l = (*l - m).exp();
                        denom += *l;
                    }
                    for (r, &e) in logits.iter().enumerate() {
                        let q = e / denom;
                        let coef = if r == 0 { q - 1.0 } else { q };
                        for (o, &cv) in drow.iter_mut().zip(c.row_slice(r)) {
                            *o += scale * coef * cv;
                        }
                    }
                }
            });
            let d = Tensor::from_vec(zt.rows(), zt.cols(), d);
            accumulate(nodes, *z, d);
        }
    }
    nodes[id].op = op;
}
