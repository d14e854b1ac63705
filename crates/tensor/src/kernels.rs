//! Low-level compute kernels behind the [`crate::Tensor`] ops.
//!
//! There is one arithmetic: each output keeps its serial chain —
//! left-to-right accumulation from `+0`, zero lhs entries skipped in
//! `matmul` and `t_matmul` — exactly as the original scalar loops built it.
//! The loop nest around the chains may change: `Tensor::matmul_t`
//! transposes its rhs once so the inner loop runs across outputs and
//! vectorizes, and the fused GAT logits (`Graph::gat_scores`) compute each
//! center's half of the chain once and continue it per edge
//! (`continue_chain`). No chain is re-associated, and parallel work is
//! split by whole output rows through `sarn_par`, so results are
//! bit-identical at every thread count.
//!
//! The chains are pinned by property tests (`tests/kernel_equivalence.rs`)
//! and the integer fixtures by golden-value tests (`tests/kernel_golden.rs`).

/// ELU activation, the exact expression shared by the map-based op and the
/// fused scatter so both produce bit-identical values.
#[inline]
pub fn elu(x: f32, alpha: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        alpha * (x.exp() - 1.0)
    }
}

// ---- dot / norm / cosine -----------------------------------------------

/// Continues one output's `matmul` chain: `acc`, then `+ x[k] * y[k]` for
/// ascending `k`, skipping every term whose lhs entry `x[k]` is zero
/// (`±0`), as the `matmul` loop does.
#[inline]
pub(crate) fn continue_chain(mut acc: f32, x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    for (&xv, &yv) in x.iter().zip(y) {
        if xv != 0.0 {
            acc += xv * yv;
        }
    }
    acc
}

/// Scalar left-to-right dot product.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

/// Scalar left-to-right sum of squares.
#[inline]
pub fn squared_norm(x: &[f32]) -> f32 {
    x.iter().map(|v| v * v).sum()
}

/// Cosine similarity `a·b / (max(‖a‖, eps) max(‖b‖, eps))` with
/// `eps = 1e-12` — the single scorer shared by the training-side InfoNCE
/// helpers and the serve-side k-NN path, built on [`dot`] and
/// [`squared_norm`].
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = squared_norm(a).sqrt().max(1e-12);
    let nb = squared_norm(b).sqrt().max(1e-12);
    dot(a, b) / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_of_identical_vectors_is_one() {
        let x: Vec<f32> = (1..20).map(|i| i as f32 * 0.3).collect();
        assert!((cosine(&x, &x) - 1.0).abs() < 1e-5);
        // Zero vectors hit the eps guard instead of dividing by zero.
        assert_eq!(cosine(&[0.0; 4], &[0.0; 4]), 0.0);
    }
}
