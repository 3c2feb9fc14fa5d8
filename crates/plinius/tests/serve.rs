//! Serving-tier guarantees: torn-read-free epoch snapshots under concurrent (and
//! adversarially interleaved) publishes, epoch monotonicity across mid-publish
//! crashes, and bit-identical serving results between the Sync and Overlapped
//! training pipelines.

use plinius::{
    InferenceServer, MirrorModel, PersistenceBackend, PipelineMode, PliniusBuilder, PliniusContext,
    PliniusError, PmDataset, ServeConfig, ServeSession, TrainingSetup,
};
use plinius_crypto::Key;
use plinius_darknet::Network;
use plinius_pmem::CrashMode;
use plinius_romulus::FailPoint;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_clock::Metric;

fn test_key(seed: u64) -> Key {
    let mut rng = StdRng::seed_from_u64(seed);
    Key::generate_128(&mut rng)
}

/// A fresh provisioned context (no dataset — the mirror tests drive the model
/// directly).
fn bare_context(key: &Key) -> PliniusContext {
    let ctx = PliniusContext::small_test(64 * 1024 * 1024);
    ctx.provision_key_directly(key.clone());
    ctx
}

/// A small mirror-every-iteration training setup on the PM-mirror backend.
fn serving_setup(max_iterations: u64) -> TrainingSetup {
    let mut setup = TrainingSetup::small_test();
    setup.model_config = plinius_darknet::mnist_cnn_config_with_momentum(2, 4, 8, 0.0);
    setup.backend = PersistenceBackend::PmMirror;
    setup.trainer.max_iterations = max_iterations;
    setup.trainer.mirror_frequency = 1;
    setup
}

fn deploy(setup: &TrainingSetup, key: &Key) -> PliniusContext {
    let ctx = PliniusContext::create(setup.cost.clone(), setup.pm_bytes).unwrap();
    ctx.provision_key_directly(key.clone());
    PmDataset::load(&ctx, &setup.dataset).unwrap();
    ctx
}

fn weights(net: &Network) -> Vec<Vec<f32>> {
    net.layers()
        .iter()
        .filter(|l| l.is_trainable())
        .flat_map(|l| {
            l.params()
                .iter()
                .map(|p| p.data.to_vec())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// A small network whose weights are a pure function of `seed` (fixed shape).
fn seeded_network(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    plinius_darknet::config::build_network(&plinius_darknet::mnist_cnn_config(2, 4, 8), &mut rng)
        .unwrap()
}

/// The named bugfix, exercised end to end: a reader whose slot read is interleaved
/// with publish flips must retry and come back with a *consistent* epoch — matching
/// iteration, epoch and tensors — never a mix.
///
/// The hook fires in the exact window between the reader's header snapshot and its
/// slot reads. Publishing **twice** in that window is the adversarial schedule: the
/// first publish flips to the other slot, the second republishes the very slot the
/// reader is about to read, so without the seqlock re-check the reader would return
/// epoch-3 tensors tagged with epoch 1's iteration.
#[test]
fn interleaved_publish_flips_force_a_retry_and_a_consistent_snapshot() {
    let key = test_key(7);
    let ctx = bare_context(&key);
    let net1 = seeded_network(1);
    let net2 = seeded_network(2);
    let net3 = seeded_network(3);
    let mirror = MirrorModel::allocate(&ctx, &net1).unwrap();

    // Epoch 1 (slot B): iteration 10, weights of net1.
    let mut published = net1.clone();
    published.set_iteration(10);
    mirror.mirror_out(&ctx, &published).unwrap();

    // The reader gets its own handle; the hook publishes through yet another one
    // (same persistent model, separate scratch — publishing through the reader's
    // own handle would deadlock on its scratch lock).
    let reader = mirror.clone();
    let publisher = mirror.clone();
    let hook_ctx = ctx.clone();
    let mut nets = vec![(net2.clone(), 20u64), (net3.clone(), 30u64)];
    reader.set_torn_read_hook(Some(Box::new(move |attempt| {
        if attempt == 0 {
            // Epoch 2 (slot A) then epoch 3 (slot B): the second publish overwrites
            // the slot the reader's first attempt is reading.
            for (net, iteration) in nets.drain(..) {
                let mut net = net;
                net.set_iteration(iteration);
                publisher.mirror_out(&hook_ctx, &net).unwrap();
            }
        }
    })));

    let mut restored = seeded_network(99);
    let report = reader.mirror_in(&ctx, &mut restored).unwrap();
    reader.set_torn_read_hook(None);

    // The first attempt saw epoch 1's header and epoch 3's bytes — it must have
    // been retried, and the result must be the consistent epoch 3.
    assert!(
        ctx.stats().get(Metric::MirrorTornReadRetries) >= 1,
        "the interleaved publishes must force at least one seqlock retry"
    );
    assert_eq!(report.epoch, 3);
    assert_eq!(report.iteration, 30);
    assert_eq!(restored.iteration(), 30);
    assert_eq!(weights(&restored), weights(&net3));
}

/// Without interleaving, the snapshot read passes on the first attempt and the
/// retry counter stays untouched.
#[test]
fn quiescent_reads_never_retry() {
    let key = test_key(8);
    let ctx = bare_context(&key);
    let net = seeded_network(4);
    let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
    mirror.mirror_out(&ctx, &net).unwrap();
    let mut restored = seeded_network(5);
    for _ in 0..3 {
        mirror.mirror_in(&ctx, &mut restored).unwrap();
    }
    assert_eq!(ctx.stats().get(Metric::MirrorTornReadRetries), 0);
    assert_eq!(weights(&restored), weights(&net));
}

/// Real concurrency: a publisher thread streams epochs while a reader thread
/// restores in a loop. Every restore must return a (iteration → weights) pair that
/// matches what the publisher actually published for that iteration — a torn read
/// would pair one epoch's iteration with another's tensors.
#[test]
fn concurrent_publisher_and_reader_agree_on_every_observed_epoch() {
    const PUBLISHES: u64 = 12;
    let key = test_key(9);
    let ctx = bare_context(&key);
    let template = seeded_network(0);
    let mirror = MirrorModel::allocate(&ctx, &template).unwrap();
    // Expected weights per iteration, computed up front.
    let expected: Vec<Vec<Vec<f32>>> = (0..=PUBLISHES)
        .map(|i| weights(&seeded_network(100 + i)))
        .collect();
    // Epoch 1 / iteration 0 exists before the reader starts.
    let mut first = seeded_network(100);
    first.set_iteration(0);
    mirror.mirror_out(&ctx, &first).unwrap();

    std::thread::scope(|scope| {
        let publisher_ctx = ctx.clone();
        let publisher = mirror.clone();
        let reader_ctx = ctx.clone();
        let reader = mirror.clone();
        let expected = &expected;
        scope.spawn(move || {
            for i in 1..=PUBLISHES {
                let mut net = seeded_network(100 + i);
                net.set_iteration(i);
                publisher.mirror_out(&publisher_ctx, &net).unwrap();
            }
        });
        scope.spawn(move || {
            let mut restored = seeded_network(1000);
            let mut observed = 0u64;
            loop {
                let report = reader.mirror_in(&reader_ctx, &mut restored).unwrap();
                assert!(
                    report.iteration <= PUBLISHES,
                    "observed an iteration that was never published"
                );
                assert_eq!(
                    weights(&restored),
                    expected[report.iteration as usize],
                    "iteration {} came back with another epoch's tensors",
                    report.iteration
                );
                observed += 1;
                if report.iteration == PUBLISHES {
                    break;
                }
            }
            assert!(observed >= 1);
        });
    });
}

/// `MirrorModel::epoch()` never decreases across a mid-publish crash and recovery,
/// wherever the crash lands: between bulk slot writes, inside the epoch-flip
/// transaction, or around the redo-log phases.
#[test]
fn epoch_is_monotonic_across_mid_publish_crash_recovery() {
    for (case, failpoint) in [
        ("between slot publishes", FailPoint::AfterDirectPublishes(1)),
        (
            "after most slot publishes",
            FailPoint::AfterDirectPublishes(3),
        ),
        ("inside the flip transaction", FailPoint::AfterStores(1)),
        ("after mutating main state", FailPoint::AfterMutatingState),
        ("while copying state back", FailPoint::AfterCopyingState),
    ] {
        let setup = serving_setup(6);
        let key = test_key(10);
        let ctx = deploy(&setup, &key);
        let pool = ctx.pool().clone();
        let mut trainer = PliniusBuilder::new(setup.clone())
            .context(ctx)
            .build()
            .unwrap();
        for _ in 0..3 {
            trainer.step().unwrap();
        }
        let mirror = trainer.mirror_handle().unwrap();
        // Sync commits one epoch per clean iteration; the overlapped pipeline lags
        // one behind until the next join.
        let epoch_before = mirror.epoch(trainer.context()).unwrap();
        assert!(
            (2..=3).contains(&epoch_before),
            "{case}: committed epochs track clean iterations (got {epoch_before})"
        );
        trainer.context().romulus().inject_failure(failpoint);
        assert!(trainer.step().is_err(), "{case}: armed crash must fire");
        drop(trainer);
        let mut crash_rng = StdRng::seed_from_u64(77);
        pool.crash(&mut crash_rng, CrashMode::ArbitraryEviction);
        let ctx2 = PliniusContext::open(pool, setup.cost.clone()).unwrap();
        ctx2.provision_key_directly(key.clone());
        let recovered = MirrorModel::open(&ctx2).unwrap();
        let epoch_after = recovered.epoch(&ctx2).unwrap();
        assert!(
            epoch_after >= epoch_before,
            "{case}: epoch decreased across recovery ({epoch_before} -> {epoch_after})"
        );
        // Only 4 iterations ever ran, so recovery can never surface more epochs
        // than were actually published.
        assert!(
            epoch_after <= 4,
            "{case}: recovery invented epochs ({epoch_before} -> {epoch_after})"
        );
        // Resume and finish: the epoch keeps climbing from the recovered point.
        let mut resumed = PliniusBuilder::new(setup.clone())
            .context(ctx2)
            .build()
            .unwrap();
        resumed.run().unwrap();
        let final_epoch = resumed
            .mirror_handle()
            .unwrap()
            .epoch(resumed.context())
            .unwrap();
        assert!(final_epoch > epoch_after, "{case}: training must publish");
    }
}

/// Serve-while-training twin run: the same interleaving of training bursts and
/// serving batches, driven once per pipeline mode, must produce bit-identical
/// serving results — same predictions (order-sensitive hash), same correct count,
/// same served epochs, same hot-swap count. Only simulated timing may differ.
#[test]
fn serving_results_are_bit_identical_between_sync_and_overlapped_training() {
    let run = |mode: PipelineMode| {
        let setup = serving_setup(12);
        let key = test_key(11);
        let ctx = deploy(&setup, &key);
        let mut trainer = PliniusBuilder::new(setup.clone())
            .context(ctx)
            .pipeline_mode(mode)
            .build()
            .unwrap();
        // Commit the first epochs, then attach the server to the live mirror.
        trainer.run_at_most(2).unwrap();
        let template = setup.build_network().unwrap();
        let server = InferenceServer::new(
            trainer.context(),
            trainer.mirror_handle().unwrap(),
            &template,
        )
        .unwrap();
        let batch = server.max_batch().min(4);
        let mut session = ServeSession::new(
            server,
            setup.dataset.clone(),
            ServeConfig {
                batch,
                arrival_ns: 10_000,
                requests: 48,
                seed: 5,
            },
        )
        .unwrap();
        let mut epochs_served = Vec::new();
        // Alternate training bursts with serving batches until both are done.
        // `run_at_most` drains the in-flight publish on exit, so at every pump the
        // committed epoch is identical in both modes.
        while !session.is_done() {
            trainer.run_at_most(2).unwrap();
            for _ in 0..2 {
                if session.pump_one_batch().unwrap() {
                    epochs_served.push(session.server().epoch());
                }
            }
        }
        trainer.run().unwrap();
        let report = session.report();
        (report, epochs_served)
    };
    let (sync_report, sync_epochs) = run(PipelineMode::Sync);
    let (over_report, over_epochs) = run(PipelineMode::Overlapped);
    assert_eq!(sync_report.predictions_hash, over_report.predictions_hash);
    assert_eq!(sync_report.correct, over_report.correct);
    assert_eq!(sync_report.served, over_report.served);
    assert_eq!(sync_report.swaps, over_report.swaps);
    assert_eq!(sync_report.final_epoch, over_report.final_epoch);
    assert_eq!(sync_epochs, over_epochs);
    // The scenario actually exercised the hot-swap path mid-traffic.
    assert!(
        sync_report.swaps >= 1,
        "training must have published epochs the server hot-swapped in"
    );
    assert!(
        sync_epochs.windows(2).all(|w| w[0] <= w[1]),
        "served epochs must be monotonic"
    );
}

/// A server attached before any epoch committed is rejected, and one attached to a
/// live trainer serves each batch from exactly one committed epoch.
#[test]
fn server_rejects_epoch_zero_and_tracks_committed_epochs() {
    let setup = serving_setup(6);
    let key = test_key(12);
    let ctx = deploy(&setup, &key);
    let mut trainer = PliniusBuilder::new(setup.clone())
        .context(ctx)
        .build()
        .unwrap();
    let template = setup.build_network().unwrap();
    let err = InferenceServer::new(
        trainer.context(),
        trainer.mirror_handle().unwrap(),
        &template,
    )
    .unwrap_err();
    assert_eq!(err, PliniusError::NoCommittedEpoch);

    trainer.run_at_most(1).unwrap();
    let mut server = InferenceServer::new(
        trainer.context(),
        trainer.mirror_handle().unwrap(),
        &template,
    )
    .unwrap();
    assert_eq!(server.epoch(), 1);
    let input = setup.dataset.image(0).to_vec();
    let committed_now = |trainer: &plinius::PliniusTrainer| {
        trainer
            .mirror_handle()
            .unwrap()
            .epoch(trainer.context())
            .unwrap()
    };
    for _ in 0..3 {
        trainer.run_at_most(1).unwrap();
        server.classify_batch(&input).unwrap();
        assert_eq!(
            server.epoch(),
            committed_now(&trainer),
            "a batch boundary always picks up the committed epoch"
        );
    }
    assert_eq!(server.swaps(), 3);
}
