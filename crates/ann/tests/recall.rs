//! Recall oracle: HNSW answers vs the exact scan, over uniform,
//! clustered, and duplicate-heavy point sets.
//!
//! Contracts checked here (at the documented operating point
//! `m = 16`, `ef_construction = 100`, `ef_search = 64`):
//!
//! - recall@10 ≥ 0.95 averaged over queries, on every generated set;
//! - every returned list is sorted by `(score desc, id asc)`;
//! - ties break identically to the exact scan's ascending-index order
//!   (checked exhaustively on duplicate-heavy sets where every
//!   neighbor score collides).

use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use sarn_ann::{HnswConfig, HnswIndex};

/// The operating point documented in DESIGN.md §16 (`ServeConfig`'s
/// default `ann_ef_search`).
const EF_SEARCH: usize = 64;
const K: usize = 10;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn unit_f32(h: u64) -> f32 {
    ((h >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
}

/// Uniform pseudo-random points in `[-1, 1]^dim`.
fn uniform_points(n: usize, dim: usize, salt: u64) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|d| unit_f32(splitmix64(salt ^ ((i as u64) << 20) ^ d as u64)))
                .collect()
        })
        .collect()
}

/// Points drawn around `clusters` well-separated centers with small
/// per-point jitter — the adversarial case for graph connectivity.
fn clustered_points(n: usize, dim: usize, clusters: usize, salt: u64) -> Vec<Vec<f32>> {
    let centers = uniform_points(clusters, dim, salt ^ 0xC0FFEE);
    (0..n)
        .map(|i| {
            let c = &centers[i % clusters];
            (0..dim)
                .map(|d| {
                    let h = splitmix64(salt ^ ((i as u64) << 24) ^ ((d as u64) << 2) ^ 1);
                    c[d] + unit_f32(h) * 0.05
                })
                .collect()
        })
        .collect()
}

/// A small pool of distinct rows, each repeated many times — every
/// query sees massive score ties.
fn duplicate_points(n: usize, dim: usize, pool: usize, salt: u64) -> Vec<Vec<f32>> {
    let base = uniform_points(pool, dim, salt ^ 0xD00D);
    (0..n).map(|i| base[i % pool].clone()).collect()
}

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
    dot / (na * nb)
}

fn build(pts: &[Vec<f32>]) -> HnswIndex {
    HnswIndex::build(
        HnswConfig::default(),
        pts[0].len(),
        0,
        pts.len(),
        &mut |a, b| cosine(&pts[a], &pts[b]),
    )
}

/// Exact top-k: `(score desc, id asc)`, the serving scan's order.
fn exact_topk(pts: &[Vec<f32>], q: &[f32], k: usize) -> Vec<(usize, f32)> {
    let mut scored: Vec<(usize, f32)> = (0..pts.len()).map(|i| (i, cosine(q, &pts[i]))).collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

fn assert_exact_scan_order(got: &[(usize, f32)]) -> Result<(), String> {
    for w in got.windows(2) {
        let ordered = w[0].1 > w[1].1 || (w[0].1.to_bits() == w[1].1.to_bits() && w[0].0 < w[1].0);
        if !ordered {
            return Err(format!(
                "result list out of (score desc, id asc) order: {w:?}"
            ));
        }
    }
    Ok(())
}

/// Average id-level recall@k over the first `queries` indexed points.
fn id_recall(pts: &[Vec<f32>], idx: &HnswIndex, queries: usize, k: usize) -> f64 {
    let mut total = 0.0;
    for qi in 0..queries.min(pts.len()) {
        let q = &pts[qi];
        let got = idx
            .search_with_deadline(&mut |x| cosine(q, &pts[x]), k, EF_SEARCH, None)
            .expect("unbounded search");
        assert_exact_scan_order(&got).expect("ordering");
        let want = exact_topk(pts, q, k);
        let want_ids: Vec<usize> = want.iter().map(|&(i, _)| i).collect();
        let hits = got.iter().filter(|&&(i, _)| want_ids.contains(&i)).count();
        total += hits as f64 / k as f64;
    }
    total / queries.min(pts.len()) as f64
}

/// Score-level recall@k: a returned neighbor counts as a hit when its
/// score is at least the exact k-th score. This is the right oracle for
/// duplicate-heavy sets, where many ids share the boundary score and
/// any of them is an equally correct answer.
fn score_recall(pts: &[Vec<f32>], idx: &HnswIndex, queries: usize, k: usize) -> f64 {
    let mut total = 0.0;
    for qi in 0..queries.min(pts.len()) {
        let q = &pts[qi];
        let got = idx
            .search_with_deadline(&mut |x| cosine(q, &pts[x]), k, EF_SEARCH, None)
            .expect("unbounded search");
        assert_exact_scan_order(&got).expect("ordering");
        let want = exact_topk(pts, q, k);
        let kth = want.last().expect("k-th exact score").1;
        let hits = got.iter().filter(|&&(_, s)| s >= kth).count();
        total += hits.min(k) as f64 / k as f64;
    }
    total / queries.min(pts.len()) as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn uniform_sets_reach_recall_at_10(n in 200usize..500, dim in 8usize..=16, salt in 0u64..u64::MAX) {
        let pts = uniform_points(n, dim, salt);
        let idx = build(&pts);
        let recall = id_recall(&pts, &idx, 20, K);
        prop_assert!(
            recall >= 0.95,
            "uniform n={n} dim={dim}: recall@10 = {recall:.3} < 0.95"
        );
    }

    #[test]
    fn clustered_sets_reach_recall_at_10(n in 200usize..500, dim in 8usize..=16, clusters in 3usize..8, salt in 0u64..u64::MAX) {
        let pts = clustered_points(n, dim, clusters, salt);
        let idx = build(&pts);
        // Clusters induce near-ties at cluster boundaries; score-level
        // recall is the oracle that does not punish equally-good ids.
        let recall = score_recall(&pts, &idx, 20, K);
        prop_assert!(
            recall >= 0.95,
            "clustered n={n} dim={dim} c={clusters}: recall@10 = {recall:.3} < 0.95"
        );
    }

    #[test]
    fn duplicate_heavy_sets_reach_recall_at_10(n in 150usize..400, dim in 6usize..=12, pool in 5usize..20, salt in 0u64..u64::MAX) {
        let pts = duplicate_points(n, dim, pool, salt);
        let idx = build(&pts);
        let recall = score_recall(&pts, &idx, 20, K);
        prop_assert!(
            recall >= 0.95,
            "duplicates n={n} pool={pool}: recall@10 = {recall:.3} < 0.95"
        );
    }

    #[test]
    fn all_duplicates_tie_break_exactly_like_the_exact_scan(dim in 3usize..10, salt in 0u64..u64::MAX) {
        // Every row identical: all scores tie, so with an ef that covers
        // the whole (fully explorable) graph the answer must be exactly
        // ids 0..10 in ascending order — the exact scan's tie contract.
        let n = 50usize;
        let row: Vec<f32> = (0..dim).map(|d| unit_f32(splitmix64(salt ^ d as u64))).collect();
        let pts: Vec<Vec<f32>> = (0..n).map(|_| row.clone()).collect();
        let idx = build(&pts);
        let got = idx
            .search_with_deadline(&mut |x| cosine(&row, &pts[x]), K, n, None)
            .expect("unbounded search");
        let ids: Vec<usize> = got.iter().map(|&(i, _)| i).collect();
        prop_assert_eq!(ids, (0..K).collect::<Vec<_>>());
    }
}
