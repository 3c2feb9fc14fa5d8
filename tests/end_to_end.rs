//! Cross-crate integration tests: the full secure training pipeline, crash/resume across
//! separate contexts, and the PM-vs-SSD comparison exercised end to end.

use plinius::{
    train_with_crash_schedule, MirrorModel, PersistenceBackend, PliniusBuilder, PliniusContext,
    PmDataset, PmMirrorBackend, TrainerConfig, TrainingSetup,
};
use plinius_crypto::Key;
use plinius_darknet::{mnist_cnn_config, synthetic_mnist};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_clock::CostModel;

fn small_setup(max_iterations: u64) -> TrainingSetup {
    let mut setup = TrainingSetup::small_test();
    setup.trainer.max_iterations = max_iterations;
    setup
}

#[test]
fn full_workflow_produces_a_trained_model() {
    let report = plinius::run_full_workflow(&small_setup(20)).unwrap();
    assert!(report.attestation_ok);
    assert_eq!(report.final_iteration, 20);
    assert!(report.final_loss.is_finite());
}

#[test]
fn training_survives_repeated_crashes_without_losing_progress() {
    let setup = small_setup(16);
    let report = train_with_crash_schedule(&setup, &[2, 5, 9, 13], true).unwrap();
    assert_eq!(report.completed_iteration, 16);
    assert_eq!(
        report.total_iterations_executed, 16,
        "mirrored training must not redo work"
    );
    assert_eq!(report.crashes, 4);
    // The loss curve has no reset: the maximum loss after the first crash should not
    // return to the initial-loss neighbourhood (which a from-scratch restart would).
    let initial = report.losses[0];
    let after_crash_max = report
        .losses
        .iter()
        .skip(6)
        .cloned()
        .fold(f32::MIN, f32::max);
    assert!(after_crash_max <= initial * 1.25 + 0.5);
}

#[test]
fn a_crash_before_the_first_publish_restarts_from_fresh_weights() {
    // The first build allocates the mirror, but a mirror frequency of 5 publishes
    // nothing before the crash at iteration 2. The restart finds a mirror without a
    // committed epoch: it must draw the same fresh weights, reuse that mirror and
    // then train exactly as an uninterrupted run does.
    let mut setup = small_setup(8);
    setup.trainer.mirror_frequency = 5;
    let crashed = train_with_crash_schedule(&setup, &[2], true).unwrap();
    assert_eq!(crashed.crashes, 1);
    assert_eq!(crashed.completed_iteration, 8);
    assert_eq!(
        crashed.total_iterations_executed, 10,
        "the restart begins again at iteration 0"
    );
    let clean = train_with_crash_schedule(&setup, &[], true).unwrap();
    assert_eq!(crashed.losses[..2], clean.losses[..2]);
    assert_eq!(crashed.losses[2..], clean.losses[..]);
}

#[test]
fn hybrid_recovery_falls_through_to_the_ssd_when_the_mirror_never_committed() {
    // The PM module is replaced and the first build on the new one allocates a
    // mirror, then dies before its first publish. The next build must recover from
    // the demoted SSD checkpoint, not fail on the empty mirror.
    let mut setup = small_setup(4);
    setup.backend = PersistenceBackend::HybridTiered {
        ssd_path: "tier.ckpt".into(),
        demote_every: 2,
    };
    let key = Key::generate_128(&mut StdRng::seed_from_u64(21));
    let deploy = || {
        let ctx = PliniusContext::create(setup.cost.clone(), setup.pm_bytes).unwrap();
        ctx.provision_key_directly(key.clone());
        PmDataset::load(&ctx, &setup.dataset).unwrap();
        ctx
    };
    let ctx = deploy();
    let ssd = ctx.ssd().clone();
    let mut trainer = PliniusBuilder::new(setup.clone())
        .context(ctx)
        .build()
        .unwrap();
    trainer.run().unwrap();
    let trained = trainer.network().clone();
    drop(trainer);

    let ctx = deploy().with_ssd(&ssd);
    drop(
        PliniusBuilder::new(setup.clone())
            .context(ctx.clone())
            .backend(PmMirrorBackend::new())
            .build()
            .unwrap(),
    );
    let mirror = MirrorModel::open(&ctx).unwrap();
    assert_eq!(mirror.epoch(&ctx).unwrap(), 0);
    let recovered = PliniusBuilder::new(setup)
        .context(ctx.clone())
        .build()
        .unwrap();
    assert_eq!(recovered.iteration(), 4);
    for (got, want) in recovered.network().layers().iter().zip(trained.layers()) {
        for (g, w) in got.params().iter().zip(want.params()) {
            assert_eq!(g.data, w.data, "{} was not recovered", g.name);
        }
    }
    assert_eq!(
        mirror.epoch(&ctx).unwrap(),
        1,
        "the recovery re-established the PM mirror"
    );
}

#[test]
fn non_resilient_training_repeats_work_after_crashes() {
    let setup = small_setup(8);
    let resilient = train_with_crash_schedule(&setup, &[4], true).unwrap();
    let fragile = train_with_crash_schedule(&setup, &[4], false).unwrap();
    assert!(fragile.total_iterations_executed > resilient.total_iterations_executed);
}

#[test]
fn mirror_and_resume_across_contexts_with_key_reprovisioning() {
    let mut rng = StdRng::seed_from_u64(1);
    let key = Key::generate_128(&mut rng);
    let dataset = synthetic_mnist(64, &mut rng);
    let cost = CostModel::eml_sgx_pm();
    let ctx = PliniusContext::create(cost.clone(), 32 * 1024 * 1024).unwrap();
    ctx.provision_key_directly(key.clone());
    PmDataset::load(&ctx, &dataset).unwrap();
    let setup = TrainingSetup {
        cost: cost.clone(),
        pm_bytes: 32 * 1024 * 1024,
        model_config: mnist_cnn_config(2, 4, 8),
        dataset,
        trainer: TrainerConfig {
            batch: 8,
            max_iterations: 10,
            seed: 5,
            ..TrainerConfig::default()
        },
        backend: PersistenceBackend::PmMirror,
        model_seed: 13,
    };
    let mut trainer = PliniusBuilder::new(setup.clone())
        .context(ctx)
        .build()
        .unwrap();
    trainer.run_at_most(4).unwrap();
    let pool = trainer.context().pool().clone();
    drop(trainer);

    // Simulated power failure between processes.
    let mut crash_rng = StdRng::seed_from_u64(2);
    pool.crash(&mut crash_rng, plinius_pmem::CrashMode::ArbitraryEviction);

    let ctx2 = PliniusContext::open(pool, cost).unwrap();
    ctx2.provision_key_directly(key);
    assert!(MirrorModel::exists(&ctx2));
    let mut resumed = PliniusBuilder::new(setup).context(ctx2).build().unwrap();
    assert_eq!(resumed.iteration(), 4);
    let report = resumed.run().unwrap();
    assert_eq!(report.final_iteration, 10);
}

#[test]
fn every_resilient_backend_resumes_through_the_crash_driver() {
    // The crash driver holds the simulated SSD outside the per-segment contexts, so the
    // checkpoint-on-disk backends survive a process kill exactly like the PM mirror.
    for backend in [
        PersistenceBackend::PmMirror,
        PersistenceBackend::SsdCheckpoint("e2e.ckpt".into()),
        PersistenceBackend::HybridTiered {
            ssd_path: "e2e-tier.ckpt".into(),
            demote_every: 2,
        },
    ] {
        let mut setup = small_setup(10);
        setup.backend = backend.clone();
        let report = train_with_crash_schedule(&setup, &[4, 7], true).unwrap();
        assert_eq!(report.completed_iteration, 10, "{backend:?}");
        assert_eq!(
            report.total_iterations_executed, 10,
            "{backend:?} redid work after a crash"
        );
        assert_eq!(report.crashes, 2, "{backend:?}");
    }
}

#[test]
fn pm_mirroring_beats_ssd_checkpointing_end_to_end() {
    let point = plinius_bench::mirror_point(&CostModel::sgx_eml_pm(), 3).unwrap();
    assert!(point.ssd_save_ms() / point.pm_save_ms() > 1.5);
    assert!(point.ssd_restore_ms() / point.pm_restore_ms() > 1.5);
    let real_pm = plinius_bench::mirror_point(&CostModel::eml_sgx_pm(), 3).unwrap();
    assert!(real_pm.ssd_save_ms() > real_pm.pm_save_ms());
}
