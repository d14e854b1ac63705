//! Low-level compute kernels behind the [`crate::Tensor`] ops, in two
//! numerically distinct flavors selected by the process-wide
//! [`sarn_par::ReductionOrder`] knob:
//!
//! - **Reference**: each output keeps its serial chain — left-to-right
//!   accumulation from `+0`, zero lhs entries skipped in `matmul` and
//!   `t_matmul` — exactly as the original scalar loops built it. The loop
//!   nest around the chains may change: `Tensor::matmul_t` transposes its
//!   rhs once so the inner loop runs across outputs and vectorizes, and the
//!   fused GAT logits (`Graph::gat_scores`) compute each center's half of
//!   the chain once and continue it per edge (`chain_reference`). No
//!   chain is re-associated, so results are bit-identical to the pre-SIMD
//!   kernels at every thread count; every bitwise-determinism suite
//!   (resume, parallel equivalence, telemetry invisibility) runs against
//!   this path.
//! - **Fast**: blocked/tiled loops shaped so the compiler autovectorizes
//!   them — [`LANES`]-wide multi-accumulator dot products and a packed-B
//!   panel matmul with [`BLOCK_K`]-deep cache blocking. Sums are
//!   re-associated across lane accumulators (in a *fixed* order), so Fast
//!   is self-deterministic but not bitwise comparable to Reference.
//!
//! Both flavors split parallel work through the same `sarn_par` row
//! partitioning, so thread count never changes results in either mode.
//!
//! The packed-B layout and the block/tile boundary handling are pinned by
//! golden-value tests (`tests/kernel_golden.rs`); the Fast↔Reference
//! numerical contract is pinned by property tests
//! (`tests/kernel_equivalence.rs`).

use crate::tensor::par_min_out;

/// SIMD lane width (in `f32` elements) the Fast reductions block by: a
/// 256-bit vector register. The kernels are written as plain indexed loops
/// over `[f32; LANES]` chunks — correct for any target, merely fastest when
/// the hardware vector width matches.
pub const LANES: usize = 8;

/// Column width of one packed-B panel ([`pack_b_panels`]): two cache lines
/// of `f32`, i.e. two 256-bit vectors in flight per k-step.
pub const PANEL_COLS: usize = 16;

/// Depth of one k-block in the Fast matmul: a `BLOCK_K x PANEL_COLS` panel
/// slab is 32 KiB — it stays L1-resident while every output row of the
/// chunk passes over it.
pub const BLOCK_K: usize = 512;

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

/// Scalar left-to-right dot product (the Reference association).
#[inline]
pub fn dot_reference(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

/// [`LANES`]-accumulator dot product. Partial sums are combined by a fixed
/// pairwise tree plus the scalar tail, so the result is deterministic but
/// associates differently from [`dot_reference`].
#[inline]
pub fn dot_fast(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let chunks_a = a.chunks_exact(LANES);
    let chunks_b = b.chunks_exact(LANES);
    let (tail_a, tail_b) = (chunks_a.remainder(), chunks_b.remainder());
    for (ca, cb) in chunks_a.zip(chunks_b) {
        for l in 0..LANES {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut tail = 0.0f32;
    for (&x, &y) in tail_a.iter().zip(tail_b.iter()) {
        tail += x * y;
    }
    reduce_lanes(&acc) + tail
}

/// Fixed pairwise reduction of the lane accumulators:
/// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`.
#[inline]
fn reduce_lanes(acc: &[f32; LANES]) -> f32 {
    let mut fold = [0.0f32; LANES / 2];
    for l in 0..LANES / 2 {
        fold[l] = acc[l] + acc[l + LANES / 2];
    }
    (fold[0] + fold[2]) + (fold[1] + fold[3])
}

/// [`dot_fast`] of the joined row `lo || hi` with `b`, reading both halves
/// in place: element `i` of the joined row feeds lane `i % LANES`, or the
/// scalar tail past the last full lane chunk, so the result equals
/// `dot_fast` over a copied row bit for bit.
#[inline]
pub(crate) fn dot_fast_concat(lo: &[f32], hi: &[f32], b: &[f32]) -> f32 {
    let n = lo.len() + hi.len();
    debug_assert_eq!(n, b.len());
    let full = n - n % LANES;
    let mut acc = [0.0f32; LANES];
    let mut tail = 0.0f32;
    for (i, (&x, &y)) in lo.iter().chain(hi).zip(b).enumerate() {
        if i < full {
            acc[i % LANES] += x * y;
        } else {
            tail += x * y;
        }
    }
    reduce_lanes(&acc) + tail
}

/// Continues one output's Reference `matmul` chain: `acc`, then
/// `+ x[k] * y[k]` for ascending `k`, skipping every term whose lhs entry
/// `x[k]` is zero (`±0`), as the Reference `matmul` loop does.
#[inline]
pub(crate) fn chain_reference(mut acc: f32, x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    for (&xv, &yv) in x.iter().zip(y) {
        if xv != 0.0 {
            acc += xv * yv;
        }
    }
    acc
}

/// Dot product in the currently selected reduction order.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    match sarn_par::reduction_order() {
        sarn_par::ReductionOrder::Reference => dot_reference(a, b),
        sarn_par::ReductionOrder::Fast => dot_fast(a, b),
    }
}

/// Scalar left-to-right sum of squares.
#[inline]
pub fn squared_norm_reference(x: &[f32]) -> f32 {
    x.iter().map(|v| v * v).sum()
}

/// [`LANES`]-accumulator sum of squares (Fast association).
#[inline]
pub fn squared_norm_fast(x: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let chunks = x.chunks_exact(LANES);
    let tail_c = chunks.remainder();
    for c in chunks {
        for l in 0..LANES {
            acc[l] += c[l] * c[l];
        }
    }
    let mut tail = 0.0f32;
    for &v in tail_c {
        tail += v * v;
    }
    reduce_lanes(&acc) + tail
}

/// Sum of squares in the currently selected reduction order.
#[inline]
pub fn squared_norm(x: &[f32]) -> f32 {
    match sarn_par::reduction_order() {
        sarn_par::ReductionOrder::Reference => squared_norm_reference(x),
        sarn_par::ReductionOrder::Fast => squared_norm_fast(x),
    }
}

/// Cosine similarity `a·b / (max(‖a‖, eps) max(‖b‖, eps))` with
/// `eps = 1e-12` — the single scorer shared by the training-side InfoNCE
/// helpers and the serve-side k-NN path. Dispatches on the reduction-order
/// knob through [`dot`] and [`squared_norm`].
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = squared_norm(a).sqrt().max(1e-12);
    let nb = squared_norm(b).sqrt().max(1e-12);
    dot(a, b) / (na * nb)
}

// ---- packed-B panel matmul ---------------------------------------------

/// Packs a row-major `k x m` matrix into column panels of width
/// `panel_cols`: panel `p` covers columns `[p * panel_cols, …)` (the last
/// panel may be narrower) and stores them row-major and contiguously, so
/// the Fast matmul streams one panel with unit stride instead of striding
/// through full rows of B. Panel `p` starts at flat offset
/// `p * panel_cols * k`; total length is exactly `k * m`.
pub fn pack_b_panels(b: &[f32], k: usize, m: usize, panel_cols: usize) -> Vec<f32> {
    assert!(panel_cols > 0, "panel width must be positive");
    assert_eq!(b.len(), k * m, "pack_b_panels shape mismatch");
    let mut packed = Vec::with_capacity(k * m);
    for j0 in (0..m).step_by(panel_cols) {
        let w = panel_cols.min(m - j0);
        for kk in 0..k {
            packed.extend_from_slice(&b[kk * m + j0..kk * m + j0 + w]);
        }
    }
    packed
}

/// Fast `(n x k) * (k x m)` matmul with the default [`PANEL_COLS`] /
/// [`BLOCK_K`] blocking.
pub fn matmul_fast(a: &[f32], n: usize, k: usize, b: &[f32], m: usize) -> Vec<f32> {
    matmul_fast_blocked(a, n, k, b, m, PANEL_COLS, BLOCK_K)
}

/// Fast matmul with explicit blocking parameters (exposed so the golden
/// tests can pin partial-tile handling with tiny hand-computed fixtures).
///
/// Per output-row chunk the loops run `panel -> k-block -> row -> k`, so a
/// `block_k x panel_cols` slab of packed B stays cache-hot across every row
/// of the chunk. Within one output element the k-blocks are visited in
/// ascending order and accumulated into a per-(row, panel) register tile,
/// so the only re-association relative to Reference is the missing
/// zero-skip and the panel tile — the blocking itself preserves ascending-k
/// accumulation.
///
/// # Panics
/// Panics when `panel_cols` exceeds [`PANEL_COLS`] (the register-tile
/// bound) or the slice lengths disagree with the shapes.
pub fn matmul_fast_blocked(
    a: &[f32],
    n: usize,
    k: usize,
    b: &[f32],
    m: usize,
    panel_cols: usize,
    block_k: usize,
) -> Vec<f32> {
    assert!(
        (1..=PANEL_COLS).contains(&panel_cols),
        "panel_cols must be in 1..={PANEL_COLS}"
    );
    assert!(block_k > 0, "block_k must be positive");
    assert_eq!(a.len(), n * k, "matmul lhs shape mismatch");
    assert_eq!(b.len(), k * m, "matmul rhs shape mismatch");
    let mut out = vec![0.0f32; n * m];
    if n == 0 || m == 0 {
        return out;
    }
    if m == 1 {
        // Column-vector rhs: the panel machinery degenerates to a dot
        // product per output row — use the lane-accumulator kernel directly.
        sarn_par::par_chunks_mut(&mut out, 1, par_min_out(k), |offset, chunk| {
            for (di, o) in chunk.iter_mut().enumerate() {
                let i = offset + di;
                *o = dot_fast(&a[i * k..(i + 1) * k], b);
            }
        });
        return out;
    }
    let packed = pack_b_panels(b, k, m, panel_cols);
    sarn_par::par_chunks_mut(&mut out, m, par_min_out(k), |offset, chunk| {
        let i0 = offset / m;
        let rows = chunk.len() / m;
        for j0 in (0..m).step_by(panel_cols) {
            let w = panel_cols.min(m - j0);
            let panel = &packed[j0 * k..j0 * k + k * w];
            for kb in (0..k).step_by(block_k) {
                let kend = (kb + block_k).min(k);
                for di in 0..rows {
                    let arow = &a[(i0 + di) * k..(i0 + di + 1) * k];
                    let dst = &mut chunk[di * m + j0..di * m + j0 + w];
                    let mut acc = [0.0f32; PANEL_COLS];
                    acc[..w].copy_from_slice(dst);
                    for kk in kb..kend {
                        let av = arow[kk];
                        let brow = &panel[kk * w..(kk + 1) * w];
                        for (o, &bv) in acc[..w].iter_mut().zip(brow.iter()) {
                            *o += av * bv;
                        }
                    }
                    dst.copy_from_slice(&acc[..w]);
                }
            }
        }
    });
    out
}

/// Fast `(n x k) * (m x k)^T`: every output element is a dot of two
/// contiguous rows, computed with the [`dot_fast`] lane accumulators.
pub fn matmul_t_fast(a: &[f32], n: usize, k: usize, b: &[f32], m: usize) -> Vec<f32> {
    assert_eq!(a.len(), n * k, "matmul_t lhs shape mismatch");
    assert_eq!(b.len(), m * k, "matmul_t rhs shape mismatch");
    let mut out = vec![0.0f32; n * m];
    if n == 0 || m == 0 {
        return out;
    }
    sarn_par::par_chunks_mut(&mut out, m, par_min_out(k), |offset, chunk| {
        let i0 = offset / m;
        for (di, orow) in chunk.chunks_mut(m).enumerate() {
            let arow = &a[(i0 + di) * k..(i0 + di + 1) * k];
            for (j, o) in orow.iter_mut().enumerate() {
                *o = dot_fast(arow, &b[j * k..(j + 1) * k]);
            }
        }
    });
    out
}

/// Fast `(k x n)^T * (k x m)`: the Reference kk-outer loop minus its
/// zero-skip branch, so the axpy-shaped inner loop vectorizes cleanly.
/// Per-element accumulation stays in ascending `kk` order.
pub fn t_matmul_fast(a: &[f32], k: usize, n: usize, b: &[f32], m: usize) -> Vec<f32> {
    assert_eq!(a.len(), k * n, "t_matmul lhs shape mismatch");
    assert_eq!(b.len(), k * m, "t_matmul rhs shape mismatch");
    let mut out = vec![0.0f32; n * m];
    if n == 0 || m == 0 {
        return out;
    }
    sarn_par::par_chunks_mut(&mut out, m, par_min_out(k), |offset, chunk| {
        let (i0, i1) = (offset / m, (offset + chunk.len()) / m);
        for kk in 0..k {
            let arow = &a[kk * n + i0..kk * n + i1];
            let brow = &b[kk * m..(kk + 1) * m];
            for (di, &av) in arow.iter().enumerate() {
                let orow = &mut chunk[di * m..(di + 1) * m];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_dot_matches_reference_closely() {
        let a: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32 * 0.71).cos()).collect();
        let r = dot_reference(&a, &b);
        let f = dot_fast(&a, &b);
        assert!((r - f).abs() <= 1e-5 * (1.0 + r.abs()), "{r} vs {f}");
    }

    #[test]
    fn fast_dot_handles_short_and_empty_inputs() {
        assert_eq!(dot_fast(&[], &[]), 0.0);
        assert_eq!(dot_fast(&[2.0], &[3.0]), 6.0);
        let a = [1.0, 2.0, 3.0];
        assert_eq!(dot_fast(&a, &a), 14.0);
    }

    #[test]
    fn squared_norm_flavors_agree() {
        let x: Vec<f32> = (0..21).map(|i| i as f32 - 10.0).collect();
        let r = squared_norm_reference(&x);
        let f = squared_norm_fast(&x);
        assert!((r - f).abs() <= 1e-4 * (1.0 + r.abs()));
    }

    #[test]
    fn cosine_of_identical_vectors_is_one() {
        let x: Vec<f32> = (1..20).map(|i| i as f32 * 0.3).collect();
        assert!((cosine(&x, &x) - 1.0).abs() < 1e-5);
        // Zero vectors hit the eps guard instead of dividing by zero.
        assert_eq!(cosine(&[0.0; 4], &[0.0; 4]), 0.0);
    }

    #[test]
    fn packed_panels_preserve_every_element() {
        let (k, m) = (4, 7);
        let b: Vec<f32> = (0..k * m).map(|v| v as f32).collect();
        let packed = pack_b_panels(&b, k, m, 3);
        assert_eq!(packed.len(), k * m);
        let mut seen = packed.clone();
        let mut orig = b.clone();
        seen.sort_by(f32::total_cmp);
        orig.sort_by(f32::total_cmp);
        assert_eq!(seen, orig);
    }
}
