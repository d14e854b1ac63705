//! Golden-value tests pinning the matmul-shaped ops on integer fixtures,
//! their degenerate shapes, and the ELU expression.
//!
//! Every fixture uses small integers, which f32 represents exactly and —
//! as long as intermediate sums stay below 2^24 — adds exactly in *any*
//! association. Rounding therefore cannot move these results, so the
//! expected values are asserted bitwise: a failure means the indexing or
//! the shape handling changed, not that rounding drifted.

use sarn_tensor::{kernels, Tensor};

/// Row-major 3x5 B used by the matmul fixtures:
/// ```text
///  1  2  3  4  5
///  6  7  8  9 10
/// 11 12 13 14 15
/// ```
fn b_3x5() -> Tensor {
    Tensor::from_vec(3, 5, (1..=15).map(|v| v as f32).collect())
}

/// A (2x3) = [[1,2,3],[4,5,6]].
fn a_2x3() -> Tensor {
    Tensor::from_vec(2, 3, (1..=6).map(|v| v as f32).collect())
}

#[test]
fn matmul_matches_a_hand_computed_fixture() {
    // Hand-computed product of `a_2x3` and `b_3x5`.
    let expected = vec![
        46.0, 52.0, 58.0, 64.0, 70.0, // row 0
        100.0, 115.0, 130.0, 145.0, 160.0, // row 1
    ];
    assert_eq!(a_2x3().matmul(&b_3x5()).data(), &expected[..]);
}

#[test]
fn column_vector_rhs_takes_the_exact_dot_path() {
    // m == 1: each output row is one dot product.
    let b = Tensor::col(&[1.0, 2.0, 3.0]);
    assert_eq!(a_2x3().matmul(&b).data(), &[14.0, 32.0]);
}

#[test]
fn transpose_kernels_match_hand_computed_fixtures() {
    // A times B^T with B (2x3) = [[1,0,2],[3,1,0]].
    let b = Tensor::from_vec(2, 3, vec![1.0, 0.0, 2.0, 3.0, 1.0, 0.0]);
    assert_eq!(a_2x3().matmul_t(&b).data(), &[7.0, 5.0, 16.0, 17.0]);
    // A^T times C (2x2) = [[1,2],[3,4]].
    let c = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
    assert_eq!(
        a_2x3().t_matmul(&c).data(),
        &[13.0, 18.0, 17.0, 24.0, 21.0, 30.0]
    );
}

#[test]
fn matmul_matches_an_integer_model_exactly() {
    // Integer matrices with zero lhs entries (the skipped terms). Integer
    // arithmetic makes the scalar model below exact, so the comparison is
    // bitwise; the transpose ops must land on the same integers.
    let (n, k, m) = (5usize, 11usize, 19usize);
    let a: Vec<f32> = (0..n * k).map(|i| ((i * 7 % 23) as f32) - 11.0).collect();
    let b: Vec<f32> = (0..k * m).map(|i| ((i * 5 % 17) as f32) - 8.0).collect();
    let mut expected = vec![0.0f32; n * m];
    for i in 0..n {
        for j in 0..m {
            let mut acc = 0i64;
            for kk in 0..k {
                acc += (a[i * k + kk] as i64) * (b[kk * m + j] as i64);
            }
            expected[i * m + j] = acc as f32;
        }
    }
    let (a, b) = (Tensor::from_vec(n, k, a), Tensor::from_vec(k, m, b));
    assert_eq!(a.matmul(&b).data(), &expected[..]);
    assert_eq!(a.matmul_t(&b.transpose()).data(), &expected[..]);
    assert_eq!(a.transpose().t_matmul(&b).data(), &expected[..]);
}

#[test]
fn degenerate_shapes_produce_empty_or_zero_outputs() {
    // n = 0: no output rows.
    assert_eq!(Tensor::zeros(0, 3).matmul(&b_3x5()).shape(), (0, 5));
    assert_eq!(
        Tensor::zeros(0, 4).matmul_t(&Tensor::zeros(2, 4)).shape(),
        (0, 2)
    );
    assert_eq!(
        Tensor::zeros(0, 0).t_matmul(&Tensor::zeros(0, 3)).shape(),
        (0, 3)
    );
    // m = 0: no output columns.
    let empty = Tensor::zeros(2, 0);
    assert_eq!(a_2x3().matmul(&Tensor::zeros(3, 0)), empty);
    assert_eq!(a_2x3().matmul_t(&Tensor::zeros(0, 3)), empty);
    assert_eq!(Tensor::zeros(3, 2).t_matmul(&Tensor::zeros(3, 0)), empty);
    // k = 0: well-formed all-zero output.
    let zeros = Tensor::zeros(2, 3);
    assert_eq!(Tensor::zeros(2, 0).matmul(&Tensor::zeros(0, 3)), zeros);
    assert_eq!(Tensor::zeros(2, 0).matmul_t(&Tensor::zeros(3, 0)), zeros);
    assert_eq!(Tensor::zeros(0, 2).t_matmul(&Tensor::zeros(0, 3)), zeros);
}

#[test]
fn elu_expression_is_pinned() {
    // The fused-ELU expression the scatter shares with the map-based op.
    assert_eq!(kernels::elu(2.5, 1.0), 2.5);
    assert_eq!(kernels::elu(0.0, 1.0), 0.0);
    assert!((kernels::elu(-1.0, 1.0) - (1.0f32.exp().recip() - 1.0)).abs() < 1e-7);
}
