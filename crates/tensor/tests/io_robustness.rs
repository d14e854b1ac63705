//! Reload robustness of the tensor persistence layer.
//!
//! The serving store's stale-fallback contract leans entirely on
//! `sarn_tensor::io` failing *typed* on damaged artifacts: a reload that
//! panics would take every concurrent reader down with it, and one that
//! silently returns a short tensor would publish garbage. These tests
//! attack a valid embedding artifact the way a crashed or concurrent
//! writer would — truncation at every chunk boundary of the format, a
//! sweep of interior byte offsets, and validation mismatches — and
//! require a typed [`IoError`] every time.

use proptest::prelude::*;
use sarn_durable::TempDir;
use sarn_tensor::io::IoError;
use sarn_tensor::{Tensor, TensorExpectation};

const ROWS: usize = 17;
const COLS: usize = 9;

/// Header layout of a `.emb` artifact: 4-byte magic, then u32 rows, u32
/// cols, then `rows * cols` little-endian f32s.
const HEADER_LEN: usize = 4 + 4 + 4;

/// Writes a pristine artifact and reads it back.
fn artifact_bytes() -> Vec<u8> {
    let t = Tensor::from_vec(
        ROWS,
        COLS,
        (0..ROWS * COLS).map(|i| (i as f32).sin()).collect(),
    );
    let dir = TempDir::new("io-rob-src").expect("temp dir");
    let p = dir.path().join("pristine.emb");
    t.save(&p).expect("writing the pristine artifact");
    let bytes = std::fs::read(&p).expect("reading the pristine artifact back");
    assert_eq!(bytes.len(), HEADER_LEN + ROWS * COLS * 4);
    bytes
}

/// Loads `bytes` from a file of its own.
fn load_bytes(bytes: &[u8]) -> Result<Tensor, IoError> {
    let dir = TempDir::new("io-rob").expect("temp dir");
    let p = dir.path().join("artifact.emb");
    std::fs::write(&p, bytes).expect("writing the artifact");
    Tensor::load(&p)
}

/// Every chunk boundary of the format — after the magic, after each header
/// field, and after every 4-byte float of the payload — yields a typed
/// truncation error, never a panic and never a partial tensor.
#[test]
fn truncation_at_every_chunk_boundary_is_typed() {
    let full = artifact_bytes();
    let mut cuts: Vec<usize> = vec![0, 4, 8, HEADER_LEN];
    cuts.extend((HEADER_LEN..full.len()).step_by(4).skip(1));
    for cut in cuts {
        assert!(cut < full.len(), "cut {cut} out of range");
        match load_bytes(&full[..cut]) {
            Err(IoError::Truncated { .. }) => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
    // The untruncated file still loads — the sweep attacked real damage,
    // not a broken fixture.
    let t = load_bytes(&full).expect("pristine artifact loads");
    assert_eq!(t.shape(), (ROWS, COLS));
}

proptest! {
    /// Truncation at arbitrary interior byte offsets — including cuts in
    /// the middle of a float — is equally typed: `Truncated` everywhere.
    #[test]
    fn truncation_at_interior_offsets_is_typed(
        cut in 0usize..(HEADER_LEN + ROWS * COLS * 4 - 1),
    ) {
        let full = artifact_bytes();
        match load_bytes(&full[..cut]) {
            Err(IoError::Truncated { .. }) => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }

    /// Flipping the magic to garbage fails as `BadMagic` no matter what
    /// trails it.
    #[test]
    fn corrupt_magic_is_bad_magic(b0 in 0u8..255, b1 in 0u8..255) {
        let mut full = artifact_bytes();
        full[0] = full[0].wrapping_add(b0).wrapping_add(1);
        full[1] ^= b1;
        match load_bytes(&full) {
            Err(IoError::BadMagic { expected: "SRT1" }) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }
}

/// `load_validated` enforces the serving admission contract: shape pins
/// and finiteness, each failing with its own typed variant.
#[test]
fn load_validated_rejects_shape_and_finiteness_violations() {
    let t = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    let dir = TempDir::new("io-rob-valid").expect("temp dir");
    let p = dir.path().join("artifact.emb");
    t.save(&p).expect("saving the artifact");

    // The correct expectation admits it.
    let ok = Tensor::load_validated(&p, &TensorExpectation::embedding(3, 2))
        .expect("matching expectation");
    assert_eq!(ok.shape(), (3, 2));

    // A row-count mismatch (embedding file for a different network) is
    // typed with both sides of the disagreement.
    match Tensor::load_validated(&p, &TensorExpectation::embedding(4, 2)) {
        Err(IoError::ShapeMismatch {
            expected_rows: Some(4),
            rows: 3,
            ..
        }) => {}
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
    // So is a dimension mismatch (model trained with a different d).
    match Tensor::load_validated(&p, &TensorExpectation::embedding(3, 8)) {
        Err(IoError::ShapeMismatch {
            expected_cols: Some(8),
            cols: 2,
            ..
        }) => {}
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }

    // A NaN smuggled into the payload fails finiteness with its position.
    let mut sick = t.clone();
    sick.data_mut()[3] = f32::NAN;
    sick.save(&p).expect("saving the sick artifact");
    match Tensor::load_validated(&p, &TensorExpectation::embedding(3, 2)) {
        Err(IoError::NonFinite { row: 1, col: 1, .. }) => {}
        other => panic!("expected NonFinite at (1, 1), got {other:?}"),
    }
    // Unpinned, non-finite-tolerant expectations still admit it.
    let loose = TensorExpectation::default();
    Tensor::load_validated(&p, &loose).expect("loose expectation admits NaN");
}
