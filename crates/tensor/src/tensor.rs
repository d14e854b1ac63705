//! Dense, row-major `f32` matrices.
//!
//! Every value in the stack is a 2-D tensor; scalars are `1 x 1` and row
//! vectors are `1 x n`. The representation is a flat `Vec<f32>` plus a shape,
//! which keeps the hot loops (matmul, elementwise kernels) friendly to the
//! optimizer and avoids any dependence on external BLAS.
//!
//! The compute kernels honor the process-wide [`sarn_par`] thread count:
//! above a per-kernel work threshold the output is split into contiguous
//! row blocks computed concurrently. Every output element is written by
//! exactly one thread with the same accumulation order as the serial loop,
//! so results are bit-identical at any thread count. The matmul-shaped ops
//! keep each output's serial accumulation chain; [`crate::kernels`] states
//! the contract.

use std::fmt;

/// Parallelize an elementwise kernel only above this many output elements.
pub(crate) const PAR_MIN_ELEMS: usize = 32 * 1024;

/// Parallelize a matmul only above this many fused multiply-adds.
pub(crate) const PAR_MIN_FLOPS: usize = 64 * 1024;

/// Output-element threshold for a matmul with inner dimension `k`, derived
/// from [`PAR_MIN_FLOPS`].
#[inline]
pub(crate) fn par_min_out(k: usize) -> usize {
    PAR_MIN_FLOPS / k.max(1)
}

/// A dense row-major matrix of `f32` values.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "shape ({rows}, {cols}) does not match buffer length {}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a `rows x cols` tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::from_vec(rows, cols, vec![0.0; rows * cols])
    }

    /// Creates a `rows x cols` tensor filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::from_vec(rows, cols, vec![1.0; rows * cols])
    }

    /// Creates a `rows x cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self::from_vec(rows, cols, vec![value; rows * cols])
    }

    /// Creates a `1 x 1` scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// Creates a `1 x n` row vector from a slice.
    pub fn row(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates an `n x 1` column vector from a slice.
    pub fn col(values: &[f32]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single value of a `1 x 1` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `1 x 1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 tensor");
        self.data[0]
    }

    /// Matrix product `self * rhs`: the `i-k-j` loop, streaming contiguous
    /// rows of both the accumulator and `rhs` and skipping zero entries of
    /// `self`.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: ({}, {}) x ({}, {})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (n, k, m) = (self.rows, self.cols, rhs.cols);
        let mut out = vec![0.0f32; n * m];
        let cols = m.max(1);
        // Row blocks of the output are independent; within a block the
        // i-k-j order is exactly the serial loop.
        sarn_par::par_chunks_mut(&mut out, cols, par_min_out(k), |offset, chunk| {
            let i0 = offset / cols;
            for (di, orow) in chunk.chunks_mut(cols).enumerate() {
                let i = i0 + di;
                let arow = &self.data[i * k..(i + 1) * k];
                for (kk, &a) in arow.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let brow = &rhs.data[kk * m..(kk + 1) * m];
                    for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                        *o += a * b;
                    }
                }
            }
        });
        Tensor::from_vec(n, m, out)
    }

    /// `self^T * rhs` without materializing the transpose.
    pub fn t_matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul shape mismatch: ({}, {})^T x ({}, {})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (k, n, m) = (self.rows, self.cols, rhs.cols);
        let mut out = vec![0.0f32; n * m];
        // Each block owns a contiguous range of output rows and scans the
        // full `kk` axis in ascending order, applying only the entries that
        // land in its range — per-element accumulation order is identical
        // to the serial kk-outer loop.
        sarn_par::par_chunks_mut(&mut out, m.max(1), par_min_out(k), |offset, chunk| {
            let (i0, i1) = (offset / m.max(1), (offset + chunk.len()) / m.max(1));
            for kk in 0..k {
                let arow = &self.data[kk * n + i0..kk * n + i1];
                let brow = &rhs.data[kk * m..(kk + 1) * m];
                for (di, &a) in arow.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let orow = &mut chunk[di * m..(di + 1) * m];
                    for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                        *o += a * b;
                    }
                }
            }
        });
        Tensor::from_vec(n, m, out)
    }

    /// `self * rhs^T`.
    ///
    /// Every output is the serial chain `((0 + a_0 b_0) + a_1 b_1) + …` over
    /// ascending `k`, with no zero-skip.
    /// The loop transposes `rhs` once and runs `i-k-j`, so the inner loop
    /// advances every output of a row by one term and vectorizes while each
    /// chain keeps its order.
    pub fn matmul_t(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t shape mismatch: ({}, {}) x ({}, {})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (n, k, m) = (self.rows, self.cols, rhs.rows);
        let rhs_t = rhs.transpose();
        let mut out = vec![0.0f32; n * m];
        let cols = m.max(1);
        sarn_par::par_chunks_mut(&mut out, cols, par_min_out(k), |offset, chunk| {
            let i0 = offset / cols;
            for (di, orow) in chunk.chunks_mut(cols).enumerate() {
                let arow = &self.data[(i0 + di) * k..(i0 + di + 1) * k];
                for (kk, &a) in arow.iter().enumerate() {
                    let brow = &rhs_t.data[kk * m..(kk + 1) * m];
                    for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                        *o += a * b;
                    }
                }
            }
        });
        Tensor::from_vec(n, m, out)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = vec![0.0f32; self.len()];
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        Tensor::from_vec(self.cols, self.rows, out)
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut out = vec![0.0f32; self.len()];
        sarn_par::par_chunks_mut(&mut out, 1, PAR_MIN_ELEMS, |offset, chunk| {
            for (o, &v) in chunk.iter_mut().zip(&self.data[offset..]) {
                *o = f(v);
            }
        });
        Tensor::from_vec(self.rows, self.cols, out)
    }

    /// Elementwise combine with another tensor of the same shape.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        let mut out = vec![0.0f32; self.len()];
        sarn_par::par_chunks_mut(&mut out, 1, PAR_MIN_ELEMS, |offset, chunk| {
            for ((o, &a), &b) in chunk
                .iter_mut()
                .zip(&self.data[offset..])
                .zip(&other.data[offset..])
            {
                *o = f(a, b);
            }
        });
        Tensor::from_vec(self.rows, self.cols, out)
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// In-place scaling by a constant.
    pub fn scale_mut(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Largest element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Squared Frobenius norm, summed left to right
    /// ([`crate::kernels::squared_norm`]).
    pub fn norm_sq(&self) -> f32 {
        crate::kernels::squared_norm(&self.data)
    }

    /// Dot product of two row slices of equal length, summed left to right
    /// ([`crate::kernels::dot`]).
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        crate::kernels::dot(a, b)
    }

    /// Stacks rows gathered from `self` by index.
    pub fn gather_rows(&self, idx: &[usize]) -> Tensor {
        let cols = self.cols;
        let mut out = vec![0.0f32; idx.len() * cols];
        sarn_par::par_chunks_mut(&mut out, cols.max(1), PAR_MIN_ELEMS, |offset, chunk| {
            let r0 = offset / cols.max(1);
            for (dr, orow) in chunk.chunks_mut(cols.max(1)).enumerate() {
                orow.copy_from_slice(self.row_slice(idx[r0 + dr]));
            }
        });
        Tensor::from_vec(idx.len(), cols, out)
    }

    /// Vertically stacks tensors with matching column counts.
    pub fn vstack(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "vstack of zero tensors");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|t| t.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for t in parts {
            assert_eq!(t.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&t.data);
        }
        Tensor::from_vec(rows, cols, data)
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})[", self.rows, self.cols)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|v| format!("{v:.4}"))
            .collect();
        write!(f, "{}", preview.join(", "))?;
        if self.len() > 8 {
            write!(f, ", ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computed_product() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose_product() {
        let a = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 4, (0..12).map(|v| v as f32).collect());
        let expected = a.transpose().matmul(&b);
        assert_eq!(a.t_matmul(&b), expected);
    }

    #[test]
    fn matmul_t_equals_explicit_transpose_product() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(4, 3, (0..12).map(|v| v as f32).collect());
        let expected = a.matmul(&b.transpose());
        assert_eq!(a.matmul_t(&b), expected);
    }

    #[test]
    fn transpose_is_involutive() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gather_rows_picks_requested_rows() {
        let a = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = Tensor::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Tensor::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let s = Tensor::vstack(&[&a, &b]);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn axpy_accumulates_scaled_values() {
        let mut a = Tensor::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
        let b = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn reductions_and_scalar_access() {
        let a = Tensor::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.max(), 3.0);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
    }

    #[test]
    #[should_panic(expected = "shape (2, 2) does not match")]
    fn from_vec_rejects_bad_shapes() {
        let _ = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_mismatched_inner_dims() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 2);
        let _ = a.matmul(&b);
    }
}
