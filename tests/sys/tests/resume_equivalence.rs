//! Checkpoint / resume equivalence.
//!
//! The checkpoint subsystem (`sarn_core::checkpoint`) promises that a run
//! interrupted at any epoch and resumed from its checkpoint is
//! *bitwise-identical* to the uninterrupted run: same loss history, same
//! final embeddings, same negative-queue contents, at every thread count.
//! These tests train the same small synthetic city for 8 epochs straight
//! and as 3 epochs + checkpoint + fresh-process resume for 5 more, then
//! compare everything — including the final checkpoints themselves, which
//! capture optimizer moments, RNG state, and the FIFO queues.

use sarn_core::checkpoint::{self, Checkpoint};
use sarn_core::{train, SarnConfig};
use sarn_durable::TempDir;
use sarn_roadnet::{City, RoadNetwork, SynthConfig};

fn tiny_net() -> RoadNetwork {
    SynthConfig::city(City::Chengdu).scaled(0.22).generate()
}

/// Runs the straight-vs-resumed comparison at one thread count.
fn assert_resume_equivalent(threads: usize) {
    let net = tiny_net();
    let mut base = SarnConfig::tiny().with_num_threads(threads);
    base.max_epochs = 8;
    base.patience = 100; // keep early stopping out of this window
    let fp = base.fingerprint();

    // Run A: 8 epochs straight, checkpointing every epoch (keep all so the
    // epoch-8 artifact survives for comparison).
    let dir_a = TempDir::new(&format!("resume-eq-straight-t{threads}")).unwrap();
    let mut cfg_a = base.clone().with_checkpointing(dir_a.path(), 1);
    cfg_a.checkpoint_keep = 0;
    let straight = train(&net, &cfg_a);

    // Run B: 3 epochs (the interrupted leg keeps the full 8-epoch
    // annealing horizon, as a killed job would), then a *fresh* training
    // call resumes from the epoch-3 checkpoint and finishes the rest.
    let dir_b = TempDir::new(&format!("resume-eq-resumed-t{threads}")).unwrap();
    let mut cfg_b1 = base.clone().with_checkpointing(dir_b.path(), 1);
    cfg_b1.checkpoint_keep = 0;
    cfg_b1.max_epochs = 3;
    cfg_b1.schedule_epochs = base.max_epochs;
    let first_leg = train(&net, &cfg_b1);
    assert_eq!(first_leg.epochs_run, 3);

    let ep3 = dir_b.path().join(checkpoint::checkpoint_file_name(fp, 3));
    assert!(ep3.is_file(), "missing epoch-3 checkpoint at {ep3:?}");
    let mut cfg_b2 = base.clone().with_checkpointing(dir_b.path(), 1);
    cfg_b2.checkpoint_keep = 0;
    let resumed = train(&net, &cfg_b2.with_resume_from(&ep3));

    // Same run, epoch for epoch.
    assert_eq!(straight.epochs_run, resumed.epochs_run);
    assert_eq!(
        straight.loss_history, resumed.loss_history,
        "loss histories differ bitwise at {threads} thread(s)"
    );
    assert_eq!(
        straight.embeddings.data(),
        resumed.embeddings.data(),
        "embeddings differ bitwise at {threads} thread(s)"
    );

    // The epoch-8 checkpoints capture the rest of the state — optimizer
    // moments, momentum encoder, RNG, shuffle order, and the negative
    // queues. Everything except wall-clock time must match exactly.
    let a = Checkpoint::load(dir_a.path().join(checkpoint::checkpoint_file_name(fp, 8))).unwrap();
    let b = Checkpoint::load(dir_b.path().join(checkpoint::checkpoint_file_name(fp, 8))).unwrap();
    assert_eq!(a.meta.fingerprint, b.meta.fingerprint);
    assert_eq!(a.meta.next_epoch, b.meta.next_epoch);
    assert_eq!(a.meta.rng_state, b.meta.rng_state, "RNG states diverged");
    assert_eq!(a.meta.order, b.meta.order, "shuffle orders diverged");
    assert_eq!(a.meta.loss_history, b.meta.loss_history);
    assert_eq!(a.query, b.query, "query params diverged");
    assert_eq!(a.momentum, b.momentum, "momentum params diverged");
    assert_eq!(a.optim, b.optim, "optimizer state diverged");
    assert_eq!(a.queues, b.queues, "queue contents diverged");
}

#[test]
fn resume_is_bitwise_identical_serial() {
    assert_resume_equivalent(1);
}

#[test]
fn resume_is_bitwise_identical_parallel() {
    assert_resume_equivalent(4);
}

#[test]
fn auto_resume_picks_up_the_latest_compatible_checkpoint() {
    let net = tiny_net();
    let dir = TempDir::new("resume-eq-auto").unwrap();
    let mut base = SarnConfig::tiny().with_num_threads(1);
    base.max_epochs = 6;
    base.patience = 100;

    // Straight reference run, no checkpointing.
    let straight = train(&net, &base);

    // Interrupted run: 2 epochs (same 6-epoch annealing horizon), then
    // auto-resume from the directory.
    let mut leg1 = base.clone().with_checkpointing(dir.path(), 2);
    leg1.max_epochs = 2;
    leg1.schedule_epochs = base.max_epochs;
    train(&net, &leg1);
    let mut leg2 = base.clone().with_checkpointing(dir.path(), 2);
    leg2.resume_auto = true;
    let resumed = train(&net, &leg2);

    assert_eq!(straight.loss_history, resumed.loss_history);
    assert_eq!(straight.embeddings.data(), resumed.embeddings.data());

    // Rolling retention: default keep = 3, and only same-run checkpoints
    // count. Epochs 2, 4, 6 were saved; all fit.
    let files = checkpoint::list_checkpoints(dir.path(), Some(base.fingerprint()));
    assert_eq!(files.len(), 3, "expected 3 retained checkpoints: {files:?}");

    // A config with different trajectory knobs must NOT pick these up.
    let other = base.clone().with_seed(base.seed + 1);
    assert!(checkpoint::latest_checkpoint(dir.path(), Some(other.fingerprint())).is_none());
}
