//! The sharded router's two system contracts, under real concurrency:
//!
//! 1. **Bitwise identity** — with every shard healthy and below the ANN
//!    threshold, routed k-NN answers are bit-for-bit those of one
//!    combined [`EmbeddingStore`] over the same rows, at 1 and at 4
//!    reader threads.
//! 2. **Chaos** — kill K of N shards with sticky injected faults in the
//!    middle of per-shard generation churn (admits that swap exactly one
//!    shard, plus corrupt single-shard reloads). Reader threads must
//!    never observe a panic, a torn row, or an unpublished generation;
//!    failures surface only as typed partial coverage or typed sheds;
//!    and once the faults clear, the breakers' probed half-open path
//!    must recover the router to full coverage.
//!
//! Torn-swap detection uses the sentinel-row scheme of
//! `serve_reload.rs`, per shard: every component of global row `r` holds
//! `gen[shard_of(r)] * (r + 1)`, so a single `f32` read pins which
//! generation a shard served and whether the row was whole.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sarn_durable::TempDir;
use sarn_geo::Point;
use sarn_serve::{
    BreakerConfig, BreakerState, Deadline, EmbeddingStore, IndexState, Router, RouterConfig,
    ServeConfig, ServeError, ShardFault, ShardedStore,
};
use sarn_tensor::Tensor;

const N: usize = 64;
const D: usize = 8;
const SHARDS: usize = 4;
const CHURN_ROUNDS: u64 = 12;

fn midpoints() -> Vec<Point> {
    (0..N)
        .map(|i| {
            Point::new(
                30.64 + (i / 8) as f64 * 0.002,
                104.04 + (i % 8) as f64 * 0.002,
            )
        })
        .collect()
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        reload_retries: 0,
        reload_backoff: Duration::from_millis(1),
        ..ServeConfig::default()
    }
}

fn router_cfg() -> RouterConfig {
    RouterConfig {
        num_shards: SHARDS,
        shard_retries: 1,
        shard_backoff: Duration::from_millis(1),
        breaker: BreakerConfig {
            failure_threshold: 2,
            open_cooldown: Duration::from_millis(10),
        },
        ..RouterConfig::default()
    }
}

/// Deterministic, row-distinguishable embeddings for the identity leg.
fn distinguishable() -> Tensor {
    Tensor::from_vec(
        N,
        D,
        (0..N * D)
            .map(|p| ((p / D) as f32 + 1.0) * 0.5 + (p % D) as f32)
            .collect(),
    )
}

fn sharded_store() -> ShardedStore {
    let s = ShardedStore::new(midpoints(), D, serve_cfg(), SHARDS).expect("valid sharded store");
    assert!(s.num_shards() > 1, "test needs a real fan-out");
    s
}

fn identity_under_readers(n_readers: usize) {
    let sharded = sharded_store();
    sharded.admit(&distinguishable()).expect("sharded admit");
    let router = Router::new(sharded, router_cfg());
    let single = EmbeddingStore::new(N, D, serve_cfg()).expect("valid store");
    single.admit(distinguishable()).expect("single admit");

    std::thread::scope(|s| {
        for t in 0..n_readers {
            let (router, single) = (&router, &single);
            s.spawn(move || {
                for segment in (t..N).step_by(n_readers) {
                    for k in [1usize, 5, 16] {
                        let ours = router
                            .knn(segment, k, Deadline::unbounded())
                            .expect("routed knn");
                        assert!(ours.coverage.complete(), "healthy fan-out lost coverage");
                        let theirs = single.knn(segment, k, Deadline::unbounded()).expect("knn");
                        assert_eq!(ours.neighbors.len(), theirs.neighbors.len());
                        for (a, b) in ours.neighbors.iter().zip(&theirs.neighbors) {
                            assert_eq!(a.0, b.0, "segment {segment} k {k}: id order");
                            assert_eq!(
                                a.1.to_bits(),
                                b.1.to_bits(),
                                "segment {segment} k {k}: score bits"
                            );
                        }
                    }
                }
            });
        }
    });
}

#[test]
fn routed_knn_is_bitwise_identical_with_one_reader() {
    identity_under_readers(1);
}

#[test]
fn routed_knn_is_bitwise_identical_with_four_readers() {
    identity_under_readers(4);
}

/// Sentinel tensor: every component of global row `r` is
/// `gens[shard_of(r)] * (r + 1)`.
fn sentinel(sharded: &ShardedStore, gens: &[u64]) -> Tensor {
    let data = (0..N * D)
        .map(|p| {
            let r = p / D;
            let (shard, _) = sharded.locate(r).expect("known segment");
            gens[shard] as f32 * (r as f32 + 1.0)
        })
        .collect();
    Tensor::from_vec(N, D, data)
}

/// Decodes the sentinel generation of `row` (global id `segment`),
/// asserting the row is whole.
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

#[test]
fn chaos_kill_k_of_n_shards_mid_churn_then_recover() {
    let sharded = sharded_store();
    let shards = sharded.num_shards();
    let mut gens = vec![1u64; shards];
    sharded
        .admit(&sentinel(&sharded, &gens))
        .expect("initial sentinel admit");
    let router = Router::new(sharded, router_cfg());
    let sharded = router.sharded();
    let kill: Vec<usize> = (0..(shards / 2).max(1)).collect();

    let dir = TempDir::new("sys-router").expect("temp dir");
    let bad = dir.path().join("corrupt.emb");
    std::fs::write(&bad, b"not an artifact").expect("corrupt artifact");

    // Per-shard ceiling readers may observe; bumped *before* each admit.
    let max_published: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(1)).collect();
    let stop = AtomicBool::new(false);
    let incomplete = AtomicU64::new(0);
    let shed = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let (router, max_published, stop) = (&router, &max_published, &stop);
        let (incomplete, shed) = (&incomplete, &shed);
        let mut readers = Vec::new();
        for t in 0..4usize {
            readers.push(scope.spawn(move || {
                let sharded = router.sharded();
                let mut last_shard_gen = vec![0u64; sharded.num_shards()];
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let segment = (reads as usize * 5 + t) % N;
                    match router.knn(segment, 5, Deadline::unbounded()) {
                        Ok(answer) => {
                            for &(id, score) in &answer.neighbors {
                                assert!(
                                    id < N && score.is_finite(),
                                    "torn or out-of-range neighbor ({id}, {score})"
                                );
                            }
                            assert!(answer.coverage.answered <= answer.coverage.total);
                            if !answer.coverage.complete() {
                                incomplete.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(ServeError::PartialCoverage { .. } | ServeError::Overloaded { .. }) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("untyped failure under chaos: {e}"),
                    }
                    // Direct sentinel probe of one shard: whole rows from
                    // published generations only, monotone per shard.
                    let s = reads as usize % sharded.num_shards();
                    let shard = sharded.shard(s);
                    let local = reads as usize % shard.store.num_segments();
                    let global = shard.globals[local];
                    let row = shard
                        .store
                        .embedding(local, Deadline::unbounded())
                        .expect("shard read during churn");
                    let gen = decode_generation(global, &row);
                    assert!(
                        gen <= max_published[s].load(Ordering::SeqCst),
                        "shard {s} served unpublished sentinel generation {gen}"
                    );
                    assert!(
                        gen >= last_shard_gen[s],
                        "shard {s} generation went backwards: {} -> {gen}",
                        last_shard_gen[s]
                    );
                    last_shard_gen[s] = gen;
                    reads += 1;
                }
                reads
            }));
        }

        // Writer: per-shard generation churn with mid-churn kills.
        for round in 0..CHURN_ROUNDS {
            if round == 3 {
                for &victim in &kill {
                    router.inject_shard_fault(
                        victim,
                        Some(ShardFault {
                            fail_queries: 1,
                            sticky: true,
                            ..ShardFault::default()
                        }),
                    );
                }
            }
            let v = (round as usize) % shards;
            gens[v] += 1;
            max_published[v].store(gens[v], Ordering::SeqCst);
            let swapped = sharded
                .admit_changed(&sentinel(sharded, &gens))
                .expect("churn admit");
            assert_eq!(
                swapped,
                vec![v],
                "round {round}: a single-shard sentinel bump must swap exactly shard {v}"
            );
            // A corrupt single-shard reload fails typed and must leave
            // every generation (including the victim's own) untouched.
            let w = (v + 1) % shards;
            match sharded.reload_shard(w, &bad) {
                Err(ServeError::Load(_)) => {}
                other => panic!("corrupt shard reload: expected Load error, got {other:?}"),
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            let reads = reader.join().expect("reader thread panicked");
            assert!(reads > 0, "reader made no progress during churn");
        }
    });
    assert!(
        incomplete.load(Ordering::Relaxed) + shed.load(Ordering::Relaxed) > 0,
        "killing {} of {shards} shards never degraded a single answer",
        kill.len()
    );

    // Recovery: clear the faults; the breakers must probe half-open and
    // close, restoring full coverage.
    for &victim in &kill {
        router.inject_shard_fault(victim, None);
    }
    let t0 = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(5));
        let answer = router
            .knn(0, 5, Deadline::unbounded())
            .expect("query during recovery");
        if answer.coverage.complete()
            && (0..shards).all(|i| router.breaker_state(i) == BreakerState::Closed)
        {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "router did not recover to full coverage within 10s of faults clearing"
        );
    }
    // Every shard still serves exactly its latest published sentinel.
    for (s, &gen) in gens.iter().enumerate() {
        let shard = sharded.shard(s);
        let global = shard.globals[0];
        let row = shard
            .store
            .embedding(0, Deadline::unbounded())
            .expect("post-recovery read");
        assert_eq!(
            decode_generation(global, &row),
            gen,
            "shard {s} final generation"
        );
    }
}

// ---- ANN index lifecycle (DESIGN.md §16) --------------------------------

/// Serve config with every generation index-eligible.
fn ann_cfg() -> ServeConfig {
    ServeConfig {
        ann_threshold: 1,
        ..serve_cfg()
    }
}

/// Waits for one shard's index to turn `Ready`, panicking past `limit`.
fn wait_ready(sharded: &ShardedStore, shard: usize, limit: Duration) -> u64 {
    let t0 = Instant::now();
    loop {
        match sharded.shard(shard).store.index_state() {
            IndexState::Ready { build_ms } => return build_ms,
            IndexState::FellBack => panic!("shard {shard} index fell back during a clean build"),
            _ => {}
        }
        assert!(
            t0.elapsed() < limit,
            "shard {shard} index not Ready within {limit:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Same seed + same rows must produce bitwise-identical index files, with
/// the build racing 1 reader and racing 4 readers — the background
/// builder inserts rows in one deterministic order, so concurrent query
/// load must not be able to perturb a single byte of the artifact.
#[test]
fn hnsw_build_is_bitwise_deterministic_at_one_and_four_reader_threads() {
    let dir = TempDir::new("sys-ann-det").expect("temp dir");
    let mut per_run: Vec<Vec<Vec<u8>>> = Vec::new();
    for (run, readers) in [1usize, 4].into_iter().enumerate() {
        let sharded = ShardedStore::new(midpoints(), D, ann_cfg(), SHARDS).expect("sharded store");
        sharded.admit(&distinguishable()).expect("admit");
        let stop = AtomicBool::new(false);
        let mut bytes = Vec::new();
        std::thread::scope(|scope| {
            let (sharded, stop) = (&sharded, &stop);
            for t in 0..readers {
                scope.spawn(move || {
                    let mut i = t;
                    while !stop.load(Ordering::Relaxed) {
                        let (s, local) = sharded.locate(i % N).expect("locate");
                        sharded
                            .shard(s)
                            .store
                            .knn(local, 5, Deadline::unbounded())
                            .expect("knn during index build");
                        i += readers;
                    }
                });
            }
            for s in 0..sharded.num_shards() {
                wait_ready(sharded, s, Duration::from_secs(30));
                let path = dir.path().join(format!("run{run}_shard{s}.hnsw"));
                sharded.save_shard_index(s, &path).expect("save index");
                bytes.push(std::fs::read(&path).expect("read index file"));
            }
            stop.store(true, Ordering::Relaxed);
        });
        per_run.push(bytes);
    }
    assert_eq!(
        per_run[0].len(),
        per_run[1].len(),
        "runs saw different shard counts"
    );
    for (s, (a, b)) in per_run[0].iter().zip(&per_run[1]).enumerate() {
        assert!(
            a == b,
            "shard {s}: index built under 1 reader differs from 4 readers"
        );
    }
}

/// A corrupted index sidecar mid-reload must cost only the index: the
/// reload itself succeeds, the shard serves exact-scan answers with
/// `FellBack` health (no panic, no torn generation, readers racing the
/// reload stay correct), and the next successful reload without the
/// corrupt sidecar rebuilds to `Ready`.
#[test]
fn corrupt_index_sidecar_falls_back_to_exact_scan_then_rebuilds() {
    let sharded = ShardedStore::new(midpoints(), D, ann_cfg(), SHARDS).expect("sharded store");
    sharded.admit(&distinguishable()).expect("admit");
    wait_ready(&sharded, 0, Duration::from_secs(30));

    let dir = TempDir::new("sys-ann-chaos").expect("temp dir");
    let artifact = dir.path().join("shard0.emb");
    let sidecar = dir.path().join("shard0.emb.hnsw");
    let rows = distinguishable().gather_rows(sharded.shard_rows(0));
    rows.save(&artifact).expect("save shard artifact");
    sharded.save_shard_index(0, &sidecar).expect("save sidecar");

    // Exact ground truth: the same rows in a store that never indexes.
    let exact =
        EmbeddingStore::new(sharded.shard_rows(0).len(), D, serve_cfg()).expect("exact store");
    exact.admit(rows).expect("exact admit");
    let local_n = sharded.shard(0).store.num_segments();
    let assert_exact_serving = || {
        for local in 0..local_n {
            let ours = sharded
                .shard(0)
                .store
                .knn(local, 5, Deadline::unbounded())
                .expect("shard knn");
            let theirs = exact
                .knn(local, 5, Deadline::unbounded())
                .expect("exact knn");
            let a: Vec<_> = ours
                .neighbors
                .iter()
                .map(|&(i, s)| (i, s.to_bits()))
                .collect();
            let b: Vec<_> = theirs
                .neighbors
                .iter()
                .map(|&(i, s)| (i, s.to_bits()))
                .collect();
            assert_eq!(a, b, "local {local}: shard answers diverged from exact");
        }
    };

    // Leg 1: an intact sidecar is adopted on reload — Ready with no build.
    let gen = sharded.reload_shard(0, &artifact).expect("clean reload");
    assert!(gen >= 2, "reload must publish a new generation");
    assert_eq!(
        sharded.shard(0).store.index_state(),
        IndexState::Ready { build_ms: 0 },
        "intact sidecar must be adopted without a rebuild"
    );

    // Leg 2: corrupt the sidecar payload (CRC breaks), reload under
    // concurrent readers. The reload succeeds; only the index falls back.
    let mut bytes = std::fs::read(&sidecar).expect("read sidecar");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&sidecar, &bytes).expect("corrupt sidecar");
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (sharded, stop) = (&sharded, &stop);
        for t in 0..2usize {
            scope.spawn(move || {
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let knn = sharded
                        .shard(0)
                        .store
                        .knn(i % local_n, 5, Deadline::unbounded())
                        .expect("knn racing a corrupt-sidecar reload");
                    for &(id, score) in &knn.neighbors {
                        assert!(id < local_n && score.is_finite(), "torn neighbor");
                    }
                    i += 2;
                }
            });
        }
        sharded
            .reload_shard(0, &artifact)
            .expect("reload with a corrupt sidecar must still publish the artifact");
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(
        sharded.shard(0).store.index_state(),
        IndexState::FellBack,
        "corrupt sidecar must report FellBack, not break the reload"
    );
    assert_eq!(
        sharded.shard(0).store.health().index,
        IndexState::FellBack,
        "shard health must carry the fallback"
    );
    assert_exact_serving();

    // Leg 3: the aggregate router health is pessimistic about shard 0.
    let shards_total = sharded.num_shards();
    let router = Router::new(
        ShardedStore::new(midpoints(), D, ann_cfg(), SHARDS).expect("fresh sharded"),
        router_cfg(),
    );
    router.sharded().admit(&distinguishable()).expect("admit");
    for s in 0..shards_total {
        wait_ready(router.sharded(), s, Duration::from_secs(30));
    }
    assert!(
        matches!(router.health().index, IndexState::Ready { .. }),
        "all shards Ready must aggregate to Ready"
    );

    // Leg 4: with the corrupt sidecar gone, the next reload rebuilds.
    std::fs::remove_file(&sidecar).expect("remove sidecar");
    sharded
        .reload_shard(0, &artifact)
        .expect("reload after sidecar removal");
    let build_ms = wait_ready(&sharded, 0, Duration::from_secs(30));
    let _ = build_ms; // a background rebuild happened; any duration is fine
                      // 16-row shards with ef_search >= n: the ANN answers are exhaustive,
                      // so even the indexed path must match the exact store bitwise.
    assert_exact_serving();
}
