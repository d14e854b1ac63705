//! Low-level compute kernels behind the [`crate::Tensor`] ops.
//!
//! There is one arithmetic: each output keeps its serial chain —
//! left-to-right accumulation from `+0`, zero lhs entries skipped in
//! `matmul` and `t_matmul` — exactly as the original scalar loops built it.
//! The loop nest around the chains may change, and does so to keep running
//! sums in registers: [`chains`] computes matmul-shaped output rows in
//! column tiles of 32, 16 and 8 lanes plus a scalar tail, each tile's sums
//! held across an L1-sized block of the inner loop; [`column_chains`] does
//! the same for a sum over rows; and the fused GAT logits continue four
//! edges' chains at a time ([`continue_chains4`]).
//! No chain is re-associated or re-started, and parallel work is split by
//! whole output rows or edge ranges through `sarn_par`, so results are
//! bit-identical at every thread count.
//!
//! The chains are pinned by property tests (`tests/kernel_equivalence.rs`,
//! `tests/gat_scores.rs`) and the integer fixtures by golden-value tests
//! (`tests/kernel_golden.rs`).

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

/// [`continue_chain`] for four chains at once: lane `l` continues `acc[l]`
/// over `x[l]` against the shared `y`. The lanes are independent, so their
/// adds overlap; each keeps its own order and zero-skips.
#[inline]
pub(crate) fn continue_chains4(acc: [f32; 4], x: [&[f32]; 4], y: &[f32]) -> [f32; 4] {
    let n = y.len();
    let (x0, x1, x2, x3) = (&x[0][..n], &x[1][..n], &x[2][..n], &x[3][..n]);
    let [mut a0, mut a1, mut a2, mut a3] = acc;
    for (j, &yv) in y.iter().enumerate() {
        if x0[j] != 0.0 {
            a0 += x0[j] * yv;
        }
        if x1[j] != 0.0 {
            a1 += x1[j] * yv;
        }
        if x2[j] != 0.0 {
            a2 += x2[j] * yv;
        }
        if x3[j] != 0.0 {
            a3 += x3[j] * yv;
        }
    }
    [a0, a1, a2, a3]
}

/// Floats of `rhs` that one pass of [`chains`] over its output rows reads:
/// a block this size stays in L1 while every row continues its chains over
/// it.
const BLOCK_FLOATS: usize = 4096;

/// The matmul-shaped product behind `Tensor::{matmul, t_matmul, matmul_t}`:
/// output `(i, j)` of `out` (row-major, width `m`) is the chain `+0`, then
/// `+ lhs[i][k] * rhs[k][j]` over ascending `k`, skipping every term whose
/// `lhs[i][k]` is zero (`±0`) when `SKIP`. `lhs` holds `out`'s rows of the
/// left operand, row-major with width `k`; `rhs` is row-major `k x m`; `out`
/// must hold zeros.
///
/// `k` goes in blocks of `rhs` rows small enough to stay in L1. Within a
/// block each output row runs its columns in register tiles of 32, 16 and 8
/// lanes plus a scalar tail, and each tile continues its chains from the
/// sums the previous block stored.
pub(crate) fn chains<const SKIP: bool>(
    out: &mut [f32],
    lhs: &[f32],
    rhs: &[f32],
    k: usize,
    m: usize,
) {
    if m == 0 || k == 0 {
        return;
    }
    debug_assert_eq!(rhs.len(), k * m);
    debug_assert_eq!(lhs.len() / k, out.len() / m);
    let block = (BLOCK_FLOATS / m).max(1);
    for k0 in (0..k).step_by(block) {
        let k1 = (k0 + block).min(k);
        let rhs = &rhs[k0 * m..k1 * m];
        for (orow, arow) in out.chunks_exact_mut(m).zip(lhs.chunks_exact(k)) {
            chain_row::<SKIP>(&arow[k0..k1], rhs, orow);
        }
    }
}

/// Continues one output row's chains over `lhs`: `out[j] += lhs[k] *
/// rhs[k][j]` for ascending `k`, skipping zero `lhs[k]` when `SKIP`, in
/// register tiles.
#[inline]
fn chain_row<const SKIP: bool>(lhs: &[f32], rhs: &[f32], out: &mut [f32]) {
    let m = out.len();
    let mut j = 0;
    while m - j >= 32 {
        row_tile::<SKIP, 32>(lhs, rhs, j, out);
        j += 32;
    }
    if m - j >= 16 {
        row_tile::<SKIP, 16>(lhs, rhs, j, out);
        j += 16;
    }
    if m - j >= 8 {
        row_tile::<SKIP, 8>(lhs, rhs, j, out);
        j += 8;
    }
    // Fewer than 8 columns left: their chains advance together, one term
    // per column per `k`.
    if j < m {
        let tail = &mut out[j..];
        for (b, &a) in rhs.chunks_exact(m).zip(lhs) {
            if SKIP && a == 0.0 {
                continue;
            }
            for (s, &bv) in tail.iter_mut().zip(&b[j..]) {
                *s += a * bv;
            }
        }
    }
}

/// Columns `j0..j0 + W` of [`chain_row`], summed in a register tile.
#[inline(always)]
fn row_tile<const SKIP: bool, const W: usize>(
    lhs: &[f32],
    rhs: &[f32],
    j0: usize,
    out: &mut [f32],
) {
    let m = out.len();
    let mut acc = [0.0f32; W];
    acc.copy_from_slice(&out[j0..j0 + W]);
    for (b, &a) in rhs.chunks_exact(m).zip(lhs) {
        if SKIP && a == 0.0 {
            continue;
        }
        for (s, &bv) in acc.iter_mut().zip(&b[j0..j0 + W]) {
            *s += a * bv;
        }
    }
    out[j0..j0 + W].copy_from_slice(&acc);
}

/// Sums over rows, as `t_matmul` against a column: `out[j]` is the chain
/// `+0`, then `+ row(r)[col0 + j] * scale[r]` for ascending `r`, skipping
/// every term whose row entry is zero (`±0`). Outputs go in register tiles
/// of 32, 16 and 8 lanes, then a scalar tail, each held across every row.
pub(crate) fn column_chains<'a>(
    out: &mut [f32],
    col0: usize,
    row: impl Fn(usize) -> &'a [f32] + Copy,
    scale: &[f32],
) {
    let mut j = 0;
    while out.len() - j >= 32 {
        column_tile::<32>(&mut out[j..j + 32], col0 + j, row, scale);
        j += 32;
    }
    if out.len() - j >= 16 {
        column_tile::<16>(&mut out[j..j + 16], col0 + j, row, scale);
        j += 16;
    }
    if out.len() - j >= 8 {
        column_tile::<8>(&mut out[j..j + 8], col0 + j, row, scale);
        j += 8;
    }
    // Fewer than 8 outputs left: their chains advance together, one term
    // per output per row.
    let tail = &mut out[j..];
    if tail.is_empty() {
        return;
    }
    tail.fill(0.0);
    for (r, &sv) in scale.iter().enumerate() {
        let x = &row(r)[col0 + j..col0 + j + tail.len()];
        for (s, &xv) in tail.iter_mut().zip(x) {
            if xv != 0.0 {
                *s += xv * sv;
            }
        }
    }
}

/// `W` outputs of [`column_chains`], summed in a register tile.
#[inline(always)]
fn column_tile<'a, const W: usize>(
    out: &mut [f32],
    col0: usize,
    row: impl Fn(usize) -> &'a [f32],
    scale: &[f32],
) {
    let mut acc = [0.0f32; W];
    for (r, &sv) in scale.iter().enumerate() {
        let x = &row(r)[col0..col0 + W];
        for (s, &xv) in acc.iter_mut().zip(x) {
            *s = if xv != 0.0 { *s + xv * sv } else { *s };
        }
    }
    out.copy_from_slice(&acc);
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
