//! The training layers: the experiment harness's network and SARN config,
//! and a replay of `try_train` through the public calls it makes, timing
//! each. `edit_churn`'s traced run alternates untraced `try_train` ops with
//! this replay on its network.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use sarn_core::{
    try_train, Augmenter, CellQueues, LossSimilarity, SarnConfig, SarnModel, SpatialSimilarity,
};
use sarn_roadnet::{City, RoadNetwork, SynthConfig};
use sarn_tensor::optim::{Adam, CosineAnnealing, EarlyStopping};
use sarn_tensor::{Graph, Tensor};

use crate::loadgen::ms;
use crate::report::Report;
use crate::stats::median;

/// The synthetic network the experiment harness builds at `scale`
/// (`ExperimentScale::network`): below scale 1 the label fraction is
/// raised so the speed-limit label count stays usable.
pub fn harness_network(city: City, scale: f64) -> RoadNetwork {
    let mut cfg = SynthConfig::city(city).scaled(scale);
    if scale < 1.0 {
        cfg.label_frac = (cfg.label_frac / (scale * scale)).min(0.5);
    }
    let net = cfg.generate();
    let min_frac = (200.0 / net.num_segments() as f64).min(0.5);
    if cfg.label_frac < min_frac {
        cfg.label_frac = min_frac;
        return cfg.generate();
    }
    net
}

/// The harness's default SARN config for `net` (`ExperimentScale::
/// sarn_config_for`: `SarnConfig::small`, one compute thread, Reference
/// reduction order, grid join, `clen` matched to the network's extent),
/// pinned here instead of read from `SARN_*` variables.
pub fn harness_config(net: &RoadNetwork, seed: u64, epochs: usize) -> SarnConfig {
    let mut cfg = SarnConfig::small();
    cfg.max_epochs = epochs;
    cfg.schedule_epochs = 0;
    cfg.patience = (epochs as u32 / 3).max(3);
    cfg.seed = seed;
    cfg.num_threads = 1;
    cfg.reduction_order = sarn_par::ReductionOrder::Reference;
    cfg.similarity.join = sarn_core::SpatialJoin::Grid;
    let extent = net.bbox().width_m().max(net.bbox().height_m());
    cfg.clen_m = (0.105 * extent).max(50.0);
    cfg
}

/// One checked `try_train` op: wall time, loss history, and whether the
/// op passed its checks.
fn op(net: &RoadNetwork, cfg: &SarnConfig, report: &mut Report) -> (Duration, Vec<f32>, bool) {
    let t0 = Instant::now();
    let result = try_train(net, cfg);
    let wall = t0.elapsed();
    match result {
        Ok(trained) => {
            let (n, d) = trained.embeddings.shape();
            let shaped = (n, d) == (net.num_segments(), cfg.d) && trained.embeddings.all_finite();
            report.check(shaped, || format!("embeddings are {n}x{d} or non-finite"));
            let finite = trained.loss_history.iter().all(|l| l.is_finite());
            report.check(finite, || {
                format!("non-finite loss history {:?}", trained.loss_history)
            });
            (wall, trained.loss_history, shaped && finite)
        }
        Err(e) => {
            report.check(false, || format!("try_train failed: {e}"));
            (wall, Vec::new(), false)
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Per-call time accumulated by the replay, in ms.
#[derive(Debug, Default)]
struct Layers {
    join: f64,
    views: f64,
    momentum_fwd: f64,
    query_fwd: f64,
    negatives: f64,
    loss: f64,
    backward: f64,
    adam: f64,
    momentum_update: f64,
    push: f64,
    batches: u64,
    tape_ops: u64,
    view_edges: u64,
    views_built: u64,
    rows_used: u64,
    rows_computed: u64,
}

impl Layers {
    fn attributed(&self) -> f64 {
        self.join
            + self.views
            + self.momentum_fwd
            + self.query_fwd
            + self.negatives
            + self.loss
            + self.backward
            + self.adam
            + self.momentum_update
            + self.push
    }
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += ms(t0.elapsed());
    out
}

/// In-place row L2 normalisation, as `try_train` normalises the momentum
/// branch's projections (the norm goes through the shared kernel).
fn normalize_rows(t: &mut Tensor) {
    for i in 0..t.rows() {
        let row = t.row_slice_mut(i);
        let n = sarn_tensor::kernels::squared_norm(row).sqrt().max(1e-12);
        for v in row.iter_mut() {
            *v /= n;
        }
    }
}

/// Replays one `try_train` call of the full SARN variant through the same
/// public calls, in the same order and with the same seeds, timing each.
/// Checkpointing, the watchdog and telemetry are off in this config, so
/// the replay skips their branches.
fn replay(net: &RoadNetwork, cfg: &SarnConfig, l: &mut Layers) -> Vec<f32> {
    sarn_par::set_num_threads(cfg.num_threads);
    sarn_par::set_reduction_order(cfg.reduction_order);
    let n = net.num_segments();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5A4E);
    let spatial = timed(&mut l.join, || {
        SpatialSimilarity::build(net, &cfg.similarity)
            .edges()
            .to_vec()
    });
    let augmenter = Augmenter::new(n, net.topo_edges().to_vec(), spatial, cfg.augment);
    let full_edges = augmenter.full_view().edge_index();
    let mut model = SarnModel::new(net, cfg);
    let mut queues = CellQueues::with_readout(net, cfg.clen_m, cfg.total_k, cfg.d_z, cfg.readout);
    let mut opt = Adam::new(cfg.lr).with_clip_norm(cfg.clip_norm);
    let schedule = CosineAnnealing::new(cfg.lr, cfg.lr * 0.01, cfg.schedule_horizon() as u64);
    let mut stopper = EarlyStopping::new(cfg.patience);
    let mut history = Vec::new();
    let mut order: Vec<usize> = (0..n).collect();
    let cosine = cfg.loss_similarity == LossSimilarity::Cosine;
    for epoch in 0..cfg.max_epochs {
        opt.set_lr(schedule.lr_at(epoch as u64));
        let (seed1, seed2) = (rng.next_u64(), rng.next_u64());
        let (view1, view2) = timed(&mut l.views, || {
            let v1 = augmenter.corrupt_with_seed(seed1);
            let v2 = augmenter.corrupt_with_seed(seed2);
            (v1, v2)
        });
        l.view_edges += (view1.num_edges() + view2.num_edges()) as u64;
        l.views_built += 2;
        let (view1, view2) = timed(&mut l.views, || (view1.edge_index(), view2.edge_index()));
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        for batch in order.chunks(cfg.batch_size) {
            let z_prime_full = timed(&mut l.momentum_fwd, || {
                let mut z = model.embed_projected_detached(&model.store_momentum, &view2);
                if cosine {
                    normalize_rows(&mut z);
                }
                z
            });
            let z_prime: Vec<&[f32]> = batch.iter().map(|&i| z_prime_full.row_slice(i)).collect();
            model.store.zero_grads();
            let g = Graph::new();
            let z = timed(&mut l.query_fwd, || {
                let h = model.encode(&g, &model.store, &view1);
                let h_batch = g.gather_rows(h, batch);
                let z = model.project(&g, &model.store, h_batch);
                if cosine {
                    g.l2_normalize_rows(z)
                } else {
                    z
                }
            });
            let (local, global) = timed(&mut l.negatives, || {
                let local: Vec<Tensor> = batch
                    .iter()
                    .zip(&z_prime)
                    .map(|(&i, zp)| queues.local_candidates(i, zp))
                    .collect();
                let readouts = queues.all_readouts();
                let global: Vec<Tensor> = batch
                    .iter()
                    .zip(&z_prime)
                    .map(|(&i, zp)| queues.global_candidates_from(&readouts, i, zp))
                    .collect();
                (local, global)
            });
            let (loss, loss_value) = timed(&mut l.loss, || {
                let l_local = g.info_nce(z, local, cfg.tau);
                let l_global = g.info_nce(z, global, cfg.tau);
                let loss = g.add(
                    g.scale(l_local, cfg.lambda),
                    g.scale(l_global, 1.0 - cfg.lambda),
                );
                (loss, g.value(loss).item())
            });
            timed(&mut l.backward, || {
                g.backward(loss);
                g.accumulate_grads(&mut model.store);
            });
            l.tape_ops += g.len() as u64;
            timed(&mut l.adam, || opt.step(&mut model.store));
            timed(&mut l.momentum_update, || {
                model.momentum_update(cfg.momentum)
            });
            timed(&mut l.push, || {
                for (&i, zp) in batch.iter().zip(&z_prime) {
                    queues.push(i, zp);
                }
            });
            epoch_loss += loss_value;
            batches += 1;
            l.batches += 1;
            l.rows_used += batch.len() as u64;
            l.rows_computed += n as u64;
        }
        let mean = epoch_loss / batches.max(1) as f32;
        history.push(mean);
        if stopper.update(mean) {
            break;
        }
    }
    // The final embedding pass is the query encoder's forward.
    timed(&mut l.query_fwd, || {
        std::hint::black_box(model.embed_detached(&model.store, &full_edges))
    });
    history
}

/// Pairs of (untraced `try_train`, traced replay) on `net` until `seconds`
/// are up, adding the training layers to `report` as medians per op. Every
/// op's loss history must equal the first op's bit for bit.
pub fn replay_layers(net: &RoadNetwork, cfg: &SarnConfig, seconds: Duration, report: &mut Report) {
    let start = Instant::now();
    let (mut untraced, mut traced_wall, mut shares) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_op: Vec<Layers> = Vec::new();
    let mut reference: Option<Vec<f32>> = None;
    let (mut matched, mut failed) = (true, 0u64);
    while per_op.is_empty() || start.elapsed() < seconds {
        let (wall, history, ok) = op(net, cfg, report);
        let reference = reference.get_or_insert_with(|| history.clone());
        let repeated = bits(&history) == bits(reference);
        report.check(repeated, || {
            format!("try_train loss history {history:?} differs from {reference:?}")
        });
        failed += u64::from(!(ok && repeated));
        untraced.push(ms(wall));
        let mut l = Layers::default();
        let t0 = Instant::now();
        let replayed = replay(net, cfg, &mut l);
        let wall = ms(t0.elapsed());
        traced_wall.push(wall);
        shares.push(l.attributed() / wall);
        matched &= bits(&replayed) == bits(reference);
        per_op.push(l);
    }
    let m = |f: fn(&Layers) -> f64| median(&per_op.iter().map(f).collect::<Vec<_>>());
    let l0 = &per_op[0];
    let reference = reference.unwrap_or_default();
    report.attempted += per_op.len() as u64;
    report.failed += failed;
    report.note(format!(
        "training layers: {} (untraced try_train, replay) pairs on {} segments, {} epoch(s) \
         each; epoch_s {:.4} s (median untraced try_train / epochs); loss {} nats (final \
         epoch); replay loss match {matched}; replay A^s join {:.4} ms; replay overhead {:.4} \
         ((replay - try_train) / try_train, medians)",
        per_op.len(),
        net.num_segments(),
        cfg.max_epochs,
        median(&untraced) / 1e3 / reference.len().max(1) as f64,
        reference.last().copied().map_or(f64::NAN, f64::from),
        m(|l| l.join),
        (median(&traced_wall) - median(&untraced)) / median(&untraced),
    ));
    let mut layer =
        |name: &str, v: f64, unit: &'static str| crate::layer(report, "edit_churn", name, v, unit);
    layer("core.model.momentum_fwd_ms", m(|l| l.momentum_fwd), "ms");
    layer("core.model.query_fwd_ms", m(|l| l.query_fwd), "ms");
    layer("tensor.autograd.backward_ms", m(|l| l.backward), "ms");
    layer("tensor.autograd.loss_ms", m(|l| l.loss), "ms");
    layer("core.queues.negatives_ms", m(|l| l.negatives), "ms");
    layer("core.queues.push_ms", m(|l| l.push), "ms");
    layer("tensor.optim.adam_ms", m(|l| l.adam), "ms");
    layer(
        "core.model.momentum_update_ms",
        m(|l| l.momentum_update),
        "ms",
    );
    layer("core.augment.views_ms", m(|l| l.views), "ms");
    layer("train.batches", l0.batches as f64, "count");
    layer(
        "tensor.autograd.tape_ops",
        l0.tape_ops as f64 / l0.batches.max(1) as f64,
        "count",
    );
    layer(
        "core.augment.view_edges",
        l0.view_edges as f64 / l0.views_built.max(1) as f64,
        "count",
    );
    layer(
        "core.model.batch_row_share",
        l0.rows_used as f64 / l0.rows_computed.max(1) as f64,
        "fraction",
    );
    layer("train.attributed_share", median(&shares), "fraction");
    layer(
        "train.replay_loss_match",
        f64::from(u8::from(matched)),
        "bool",
    );
}
