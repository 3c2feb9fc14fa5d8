//! The runtime knobs reach the program through their environment variables.
//!
//! These are the only tests in the workspace that write the process environment.
//! Every test here holds one file-local lock for its whole run and restores each
//! variable it touches, so no test in this binary reads the environment while
//! another writes it, and the CI legs that set a knob for the whole suite see
//! their value again afterwards.

use std::sync::{Mutex, MutexGuard, PoisonError};

use plinius::{
    selected_engine, selected_gemm, EngineKind, EnginePolicy, FleetConfig, GemmKind, GemmPolicy,
    Knobs, MirrorModel, ModelPersistence, PipelineMode, PliniusContext, PmMirrorBackend,
    TrainerConfig, TrainingSetup, CRYPTO_ENV, DEFAULT_RING_DEPTH, DEFAULT_TENANTS, GEMM_ENV, KNOBS,
    RING_ENV, TENANTS_ENV,
};
use plinius_crypto::{AesGcm, Key};
use plinius_darknet::config::build_network;
use plinius_parallel::{max_threads, THREADS_ENV};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

static ENV: Mutex<()> = Mutex::new(());

/// Holds the environment lock and restores every knob variable on drop.
struct Env {
    saved: Vec<(&'static str, Option<String>)>,
    _lock: MutexGuard<'static, ()>,
}

impl Env {
    fn lock() -> Self {
        // A failing test poisons the lock only after its `Env` restored the
        // variables, so the next test can go ahead.
        let _lock = ENV.lock().unwrap_or_else(PoisonError::into_inner);
        let saved = KNOBS.iter().map(|k| (k.env, std::env::var(k.env).ok()));
        Env {
            saved: saved.collect(),
            _lock,
        }
    }

    /// Sets a knob variable (restored on drop).
    fn set(&self, var: &'static str, value: &str) {
        assert!(
            self.saved.iter().any(|(knob, _)| *knob == var),
            "not a knob"
        );
        std::env::set_var(var, value);
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        for (var, value) in &self.saved {
            match value {
                Some(value) => std::env::set_var(var, value),
                None => std::env::remove_var(var),
            }
        }
    }
}

#[test]
fn threads_knob_reaches_the_parallel_kernels() {
    let env = Env::lock();
    env.set(THREADS_ENV, " 3\n");
    assert_eq!((max_threads(), Knobs::from_env().threads), (3, Some(3)));
    env.set(THREADS_ENV, "4096");
    assert_eq!(max_threads(), 64, "the worker count is capped");
    env.set(THREADS_ENV, "0");
    assert_eq!(Knobs::from_env().threads, None);
}

#[test]
fn pipeline_knob_reaches_the_trainer_config() {
    let env = Env::lock();
    for (value, mode) in [
        (" Overlapped\n", PipelineMode::Overlapped),
        ("async", PipelineMode::Sync),
    ] {
        env.set(PipelineMode::ENV, value);
        assert_eq!(TrainerConfig::default().pipeline, mode, "{value:?}");
        assert_eq!(TrainingSetup::small_test().trainer.pipeline, mode);
    }
}

#[test]
fn ring_knob_reaches_configs_and_fresh_mirrors() {
    let env = Env::lock();
    for (value, ring) in [(" 3 ", 3), ("1", DEFAULT_RING_DEPTH)] {
        env.set(RING_ENV, value);
        let setup = TrainingSetup::small_test();
        assert_eq!(setup.trainer.ring_depth, ring, "{value:?}");
        let network = setup.build_network().unwrap();
        let keyed = || {
            let ctx = PliniusContext::small_test(8 << 20);
            ctx.provision_key_directly(Key::new(&[9u8; 16]).unwrap());
            ctx
        };
        let mut backend = PmMirrorBackend::new();
        backend.prepare(&keyed(), &network).unwrap();
        assert_eq!(backend.mirror_model().unwrap().ring_depth(), ring);
        let mirror = MirrorModel::allocate(&keyed(), &network).unwrap();
        assert_eq!(mirror.ring_depth(), ring);
    }
}

#[test]
fn tenants_knob_reaches_the_fleet_config() {
    let env = Env::lock();
    for (value, tenants) in [("\t4", 4), ("0", DEFAULT_TENANTS), ("33", DEFAULT_TENANTS)] {
        env.set(TENANTS_ENV, value);
        assert_eq!(FleetConfig::default().tenants, tenants, "{value:?}");
    }
}

#[test]
fn crypto_knob_reaches_contexts_and_configs() {
    let env = Env::lock();
    env.set(CRYPTO_ENV, " scalar\n");
    assert_eq!(TrainerConfig::default().crypto, EnginePolicy::Scalar);
    let gcm = AesGcm::from_key(&[7u8; 16]);
    assert_eq!(gcm.engine_kind(), EngineKind::Scalar);
    assert_eq!(PliniusContext::small_test(1 << 20).engine_name(), "scalar");
    // `reference` is not an engine: the lenient variable falls back to auto.
    env.set(CRYPTO_ENV, "reference");
    assert_eq!(TrainerConfig::default().crypto, EnginePolicy::Auto);
    assert_eq!(selected_engine(), EnginePolicy::Auto.select());
}

#[test]
fn gemm_knob_reaches_configs_and_fresh_networks() {
    let env = Env::lock();
    env.set(GEMM_ENV, "scalar ");
    assert_eq!(TrainerConfig::default().gemm, GemmPolicy::Scalar);
    let network = TrainingSetup::small_test().build_network().unwrap();
    assert_eq!(network.gemm_engine(), GemmKind::Scalar);
    env.set(GEMM_ENV, "reference");
    assert_eq!(TrainerConfig::default().gemm, GemmPolicy::Auto);
    assert_eq!(selected_gemm(), GemmPolicy::Auto.select());
}

#[test]
fn training_is_bit_identical_across_thread_counts() {
    // A network large enough that conv forward fans out across the batch and the
    // conv GEMMs cross the parallel-dispatch threshold; losses and weights must be
    // bit-identical under PLINIUS_THREADS=1 and a multi-threaded run.
    const CONFIG: &str = "[net]\nheight=28\nwidth=28\nchannels=1\nbatch=2\n\
        learning_rate=0.05\nmomentum=0.9\ndecay=0.0001\nmax_iterations=10\n\n\
        [convolutional]\nfilters=16\nsize=3\nstride=1\npad=1\nactivation=leaky\n\n\
        [convolutional]\nfilters=32\nsize=3\nstride=1\npad=1\nactivation=leaky\n\n\
        [maxpool]\nsize=2\nstride=2\n\n\
        [connected]\noutput=3\nactivation=linear\n\n[softmax]\n";
    let env = Env::lock();
    let run = |threads: &str| -> (Vec<u32>, Vec<u32>) {
        env.set(THREADS_ENV, threads);
        let mut net = build_network(CONFIG, &mut StdRng::seed_from_u64(77)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let images: Vec<f32> = (0..2 * 28 * 28).map(|_| rng.gen_range(0.0..1.0)).collect();
        let labels = [1.0, 0.0, 0.0, 0.0, 0.0, 1.0];
        let losses = (0..2)
            .map(|_| net.train_batch(&images, &labels, 2).unwrap().to_bits())
            .collect();
        let weights = net
            .layers()
            .iter()
            .flat_map(|l| l.params())
            .flat_map(|p| p.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            .collect();
        (losses, weights)
    };
    let serial = run("1");
    let parallel = run("4");
    assert_eq!(serial.0, parallel.0, "losses diverged across thread counts");
    assert_eq!(
        serial.1, parallel.1,
        "weights diverged across thread counts"
    );
}
