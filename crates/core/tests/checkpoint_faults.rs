//! Fault injection against the checkpoint format.
//!
//! Every damaged artifact must fail with a typed [`CheckpointError`] naming
//! the affected section — never a panic, never silently accepted state.
//! The tests walk the file's own framing (magic + version, then five
//! `tag | len | crc | payload` frames) to find section boundaries, so they
//! exercise truncation at every boundary and a bit flip inside every
//! payload without hard-coding offsets.

use sarn_core::checkpoint;
use sarn_core::checkpoint::{
    tmp_sibling, Checkpoint, CheckpointError, CheckpointMeta, OptimState, ParamStoreSnapshot,
    QueueState, SECTION_NAMES,
};
use sarn_durable::TempDir;
use sarn_tensor::Tensor;

/// A small but fully populated checkpoint: every section has a non-empty
/// payload, so every section is a corruption target.
fn sample() -> Checkpoint {
    Checkpoint {
        meta: CheckpointMeta {
            fingerprint: 0x00C0_FFEE_F00D_BA5E,
            next_epoch: 3,
            train_seconds: 1.25,
            rng_state: [9, 8, 7, 6],
            loss_history: vec![0.9, 0.7, 0.6],
            order: vec![2, 0, 1, 3],
        },
        query: ParamStoreSnapshot {
            params: vec![
                (
                    "enc.w".to_string(),
                    Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]),
                ),
                (
                    "enc.b".to_string(),
                    Tensor::from_vec(1, 3, vec![0.1, 0.2, 0.3]),
                ),
            ],
        },
        momentum: ParamStoreSnapshot {
            params: vec![
                (
                    "enc.w".to_string(),
                    Tensor::from_vec(2, 3, vec![6., 5., 4., 3., 2., 1.]),
                ),
                (
                    "enc.b".to_string(),
                    Tensor::from_vec(1, 3, vec![0.3, 0.2, 0.1]),
                ),
            ],
        },
        optim: OptimState {
            step: 42,
            m: vec![
                Tensor::from_vec(2, 3, vec![0.0; 6]),
                Tensor::from_vec(1, 3, vec![0.0; 3]),
            ],
            v: vec![
                Tensor::from_vec(2, 3, vec![0.5; 6]),
                Tensor::from_vec(1, 3, vec![0.5; 3]),
            ],
        },
        queues: Some(QueueState {
            dim: 2,
            capacity: 4,
            cells: vec![
                vec![(0, vec![0.1, 0.2]), (5, vec![0.3, 0.4])],
                vec![(1, vec![0.5, 0.6])],
            ],
        }),
    }
}

/// `(frame_start, payload_end)` of each of the five sections, recovered by
/// walking the framing exactly as the parser does.
fn section_bounds(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut bounds = Vec::new();
    let mut pos = 12; // magic (8) + version (4)
    for _ in 0..SECTION_NAMES.len() {
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        let payload_end = pos + 16 + len;
        bounds.push((pos, payload_end));
        pos = payload_end;
    }
    assert_eq!(pos, bytes.len(), "framing walk must consume the whole file");
    bounds
}

#[test]
fn truncation_at_every_boundary_names_the_section() {
    let bytes = sample().to_bytes();
    // Inside the 12-byte header.
    for cut in [0, 4, 8, 11] {
        match Checkpoint::from_bytes(&bytes[..cut]) {
            Err(CheckpointError::Truncated { section: "header" }) => {}
            other => panic!("cut at {cut}: expected header truncation, got {other:?}"),
        }
    }
    // At and inside every section: cutting at the frame start, mid-header,
    // just after the header, and mid-payload must all blame that section.
    for (idx, &(start, end)) in section_bounds(&bytes).iter().enumerate() {
        let payload_mid = start + 16 + (end - start - 16) / 2;
        for cut in [start, start + 7, start + 16, payload_mid, end - 1] {
            match Checkpoint::from_bytes(&bytes[..cut]) {
                Err(CheckpointError::Truncated { section }) if section == SECTION_NAMES[idx] => {}
                other => panic!(
                    "cut at {cut} (section {}): expected Truncated there, got {other:?}",
                    SECTION_NAMES[idx]
                ),
            }
        }
    }
}

#[test]
fn one_flipped_byte_per_payload_is_caught_by_the_checksum() {
    let bytes = sample().to_bytes();
    for (idx, &(start, end)) in section_bounds(&bytes).iter().enumerate() {
        let mut damaged = bytes.clone();
        let target = start + 16 + (end - start - 16) / 2;
        damaged[target] ^= 0x40;
        match Checkpoint::from_bytes(&damaged) {
            Err(e @ CheckpointError::Corrupt { .. }) => {
                assert_eq!(
                    e.section(),
                    Some(SECTION_NAMES[idx]),
                    "wrong section blamed"
                );
            }
            other => panic!(
                "flip at {target} (section {}): expected Corrupt, got {other:?}",
                SECTION_NAMES[idx]
            ),
        }
    }
}

#[test]
fn flipped_tag_is_reported_as_corrupt_framing() {
    let bytes = sample().to_bytes();
    let (start, _) = section_bounds(&bytes)[2]; // MOMS
    let mut damaged = bytes.clone();
    damaged[start] ^= 0x20;
    match Checkpoint::from_bytes(&damaged) {
        Err(CheckpointError::Corrupt {
            section: "MOMS",
            detail,
        }) => {
            assert!(
                detail.contains("tag"),
                "detail should mention the tag: {detail}"
            );
        }
        other => panic!("expected corrupt MOMS tag, got {other:?}"),
    }
}

#[test]
fn bad_magic_and_future_version_are_typed_errors() {
    let bytes = sample().to_bytes();
    let mut not_ours = bytes.clone();
    not_ours[0] = b'X';
    assert!(matches!(
        Checkpoint::from_bytes(&not_ours),
        Err(CheckpointError::BadMagic)
    ));

    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        Checkpoint::from_bytes(&future),
        Err(CheckpointError::UnsupportedVersion(99))
    ));
}

#[test]
fn crc_header_flip_is_caught() {
    // Damaging the stored CRC itself (not the payload) must also fail.
    let bytes = sample().to_bytes();
    let (start, _) = section_bounds(&bytes)[0];
    let mut damaged = bytes.clone();
    damaged[start + 12] ^= 0x01;
    match Checkpoint::from_bytes(&damaged) {
        Err(CheckpointError::Corrupt {
            section: "META", ..
        }) => {}
        other => panic!("expected META checksum failure, got {other:?}"),
    }
}

#[test]
fn crash_between_write_and_rename_keeps_the_previous_checkpoint() {
    let dir = TempDir::new("faults-crash").unwrap();
    let ckpt = sample();
    let path = dir
        .path()
        .join(checkpoint::checkpoint_file_name(ckpt.meta.fingerprint, 3));
    ckpt.save(&path).unwrap();

    // Simulate a crash mid-save of the next snapshot: the staging `.tmp`
    // sibling exists (torn, half-written) but the rename never happened.
    let torn = &ckpt.to_bytes()[..40];
    std::fs::write(tmp_sibling(&path), torn).unwrap();

    // The previous artifact is untouched and fully loadable…
    let reloaded = Checkpoint::load(&path).unwrap();
    assert_eq!(reloaded, ckpt);
    // …and directory scans never mistake the staging file for a checkpoint.
    let found = checkpoint::list_checkpoints(dir.path(), None);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].1, path);
    assert_eq!(
        checkpoint::latest_checkpoint(dir.path(), Some(ckpt.meta.fingerprint)),
        Some(path)
    );
}

#[test]
fn loading_a_missing_file_is_an_io_error() {
    let err = Checkpoint::load("/nonexistent/sarn/ckpt.sarnckpt").unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)));
    assert_eq!(err.section(), None);
}
