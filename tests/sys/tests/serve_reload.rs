//! Serving survives reload churn under concurrent readers.
//!
//! A writer thread alternates corrupt and good artifact swaps while
//! reader threads (1, then 4) hammer lookups and k-NN. The embeddings
//! are constructed so every row of generation `g` holds the single value
//! `g * (segment + 1)` in all components — a torn read (components from
//! two generations mixed in one row) or a read from a never-published
//! generation is therefore detectable from the returned values alone.
//!
//! The contract under test, per reader count:
//! - a corrupt reload (garbage or truncated artifact) fails with a typed
//!   error, flips health to `Degraded`, and never changes served results;
//! - a subsequent good reload atomically advances every reader to the
//!   new generation (readers only ever observe whole, published
//!   generations, monotonically non-decreasing);
//! - an overload burst sheds with `Overloaded`, and k-NN answers again
//!   once the burst drains;
//! - no thread panics.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use sarn_durable::TempDir;
use sarn_serve::{Deadline, EmbeddingStore, ServeConfig, ServeError, ServeState};
use sarn_tensor::Tensor;

const N: usize = 64;
const D: usize = 8;
const CHURN_ROUNDS: u64 = 12;

/// Row `i` is `[gen * (i + 1); D]`: constant within a row so torn reads
/// are visible, distinct across rows and generations.
fn artifact(generation: u64) -> Tensor {
    Tensor::from_vec(
        N,
        D,
        (0..N * D)
            .map(|p| generation as f32 * ((p / D) as f32 + 1.0))
            .collect(),
    )
}

/// Decode which generation a returned embedding came from, asserting the
/// row is untorn and the generation is whole.
fn decode_generation(segment: usize, row: &[f32]) -> u64 {
    let first = row[0];
    assert!(
        row.iter().all(|&v| v == first),
        "torn read: segment {segment} row mixes values {row:?}"
    );
    let gen = first / (segment as f32 + 1.0);
    assert!(
        (gen - gen.round()).abs() < 1e-3 && gen >= 1.0,
        "segment {segment} served value {first} from a never-published generation ({gen})"
    );
    gen.round() as u64
}

fn churn_under_readers(n_readers: usize) {
    let cfg = ServeConfig {
        reload_retries: 1,
        reload_backoff: Duration::from_millis(1),
        ..ServeConfig::default()
    };
    let store = EmbeddingStore::new(N, D, cfg).expect("valid store");
    let dir = TempDir::new(&format!("sys-serve-{n_readers}r")).expect("temp dir");
    let path = dir.path().join("embeddings.emb");

    artifact(1).save(&path).expect("saving generation 1");
    // The ceiling readers may observe; advanced by the writer *before*
    // each publish so it is always an upper bound.
    let max_published = AtomicU64::new(1);
    assert_eq!(store.reload(&path).expect("initial reload"), 1);
    let good_bytes = std::fs::read(&path).expect("reading good artifact");

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (store, stop, max_published) = (&store, &stop, &max_published);
        let mut readers = Vec::new();
        for r in 0..n_readers {
            readers.push(scope.spawn(move || {
                let mut last_gen = 0u64;
                let mut reads = 0u64;
                let mut seg = r * 7;
                while !stop.load(Ordering::Relaxed) {
                    seg = (seg + 1) % N;
                    let row = store
                        .embedding(seg, Deadline::unbounded())
                        .expect("lookup during churn");
                    let gen = decode_generation(seg, &row);
                    assert!(
                        gen <= max_published.load(Ordering::SeqCst),
                        "segment {seg} served unpublished generation {gen}"
                    );
                    assert!(
                        gen >= last_gen,
                        "generation went backwards: {last_gen} -> {gen}"
                    );
                    last_gen = gen;
                    if reads.is_multiple_of(16) {
                        let knn = store
                            .knn(seg, 5, Deadline::unbounded())
                            .expect("knn during churn");
                        assert!(knn.generation >= last_gen && !knn.neighbors.is_empty());
                    }
                    reads += 1;
                }
                reads
            }));
        }

        // Writer: alternate corrupt swaps (must fall back) with good
        // swaps (must advance the generation).
        let probe = N / 2;
        for round in 0..CHURN_ROUNDS {
            let current = 1 + round;
            if round % 2 == 0 {
                std::fs::write(&path, b"not an artifact").expect("garbage swap");
            } else {
                let cut = good_bytes.len() / 2 + round as usize;
                std::fs::write(&path, &good_bytes[..cut]).expect("truncated swap");
            }
            match store.reload(&path) {
                Err(ServeError::Load(_)) => {}
                other => panic!("corrupt reload round {round}: expected Load error, got {other:?}"),
            }
            let health = store.health();
            assert!(
                matches!(health.state, ServeState::Degraded { generation, .. } if generation == current),
                "round {round}: expected degraded on generation {current}, got {health}"
            );
            let stale = store
                .embedding(probe, Deadline::unbounded())
                .expect("stale read after corrupt reload");
            assert_eq!(
                decode_generation(probe, &stale),
                current,
                "corrupt reload changed served results"
            );

            let next = current + 1;
            artifact(next).save(&path).expect("good swap");
            max_published.store(next, Ordering::SeqCst);
            assert_eq!(store.reload(&path).expect("good reload"), next);
            assert_eq!(
                store.health().state,
                ServeState::Serving { generation: next }
            );
        }
        stop.store(true, Ordering::Relaxed);

        for reader in readers {
            let reads = reader.join().expect("reader thread panicked");
            assert!(reads > 0, "reader made no progress during churn");
        }
    });

    // Readers observed the final generation after the last flip.
    let final_gen = 1 + CHURN_ROUNDS;
    let row = store
        .embedding(0, Deadline::unbounded())
        .expect("final read");
    assert_eq!(decode_generation(0, &row), final_gen);

    // Overload burst: saturation sheds; once drained, k-NN answers.
    let tickets: Vec<_> = (0..cfg.max_inflight)
        .map(|_| store.try_ticket().expect("filling admission budget"))
        .collect();
    match store.knn(0, 5, Deadline::unbounded()) {
        Err(ServeError::Overloaded { .. }) => {}
        other => panic!("saturated store: expected Overloaded, got {other:?}"),
    }
    assert!(matches!(store.health().state, ServeState::Shedding { .. }));
    drop(tickets);
    let knn = store.knn(0, 5, Deadline::unbounded()).expect("knn at rest");
    assert_eq!(knn.neighbors.len(), 5);
}

#[test]
fn reload_churn_with_one_reader() {
    churn_under_readers(1);
}

#[test]
fn reload_churn_with_four_readers() {
    churn_under_readers(4);
}
