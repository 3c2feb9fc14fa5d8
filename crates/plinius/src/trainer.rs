//! The training driver (Algorithm 2): the train-and-mirror loop, crash/resume
//! orchestration (Fig. 9) and spot-instance-driven training (Fig. 10).
//!
//! Trainers are constructed through the fluent [`PliniusBuilder`]; the persistence
//! medium is any [`ModelPersistence`] implementation (see [`crate::persist`]).

use crate::knobs::Knobs;
use crate::mirror::MirrorModel;
use crate::persist::{ModelPersistence, NoOpBackend, PersistStats, PersistenceBackend};
use crate::pmdata::PmDataset;
use crate::{PliniusContext, PliniusError, TenantId};
use plinius_crypto::{EnginePolicy, Key};
use plinius_darknet::config::build_network;
use plinius_darknet::{Dataset, GemmPolicy, Network};
use plinius_pmem::CrashMode;
use plinius_spot::SpotSimulator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_clock::CostModel;

/// How the per-iteration persist is scheduled relative to the training compute.
///
/// Model weights, sealed PM epoch contents and loss curves are **bit-identical**
/// between the two modes (and for every `PLINIUS_THREADS` value); only timing —
/// simulated and wall-clock — differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PipelineMode {
    /// The paper's Algorithm 2: every persist seals and writes the mirror inline, so
    /// an iteration costs `compute + mirror`.
    #[default]
    Sync,
    /// Two-phase pipelined persistence: a cheap snapshot is staged inline and the
    /// seal + PM publish runs on a background worker, overlapping the next
    /// iteration's compute. Steady-state cost approaches `max(compute, mirror)`;
    /// the committed PM state trails by at most one in-flight publish, which is
    /// joined at the end of the run (and before every restore).
    Overlapped,
}

impl PipelineMode {
    /// Environment variable that picks the default pipeline mode
    /// (`sync`/`overlapped`); unset or unrecognised values mean [`PipelineMode::Sync`].
    /// CI uses this to run the whole suite in both modes.
    pub const ENV: &'static str = "PLINIUS_PIPELINE";

    /// Parses a mode name as `PLINIUS_PIPELINE` takes it; surrounding whitespace and
    /// case are ignored.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "sync" => Some(PipelineMode::Sync),
            "overlapped" => Some(PipelineMode::Overlapped),
            _ => None,
        }
    }
}

impl std::fmt::Display for PipelineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineMode::Sync => f.write_str("sync"),
            PipelineMode::Overlapped => f.write_str("overlapped"),
        }
    }
}

/// Numeric knobs of a training run. Persistence policy is *not* part of this struct:
/// the medium is a [`ModelPersistence`] backend chosen on the [`PliniusBuilder`] (or
/// declaratively via [`TrainingSetup::backend`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainerConfig {
    /// Batch size per iteration.
    pub batch: usize,
    /// Train until the model's iteration counter reaches this value (`MAX_ITER`).
    pub max_iterations: u64,
    /// Persist after every `mirror_frequency` iterations (1 in the paper).
    pub mirror_frequency: u64,
    /// Whether training data is read encrypted from PM (true, the Plinius path) or used
    /// unencrypted (the Fig. 8 comparison baseline).
    pub encrypted_data: bool,
    /// RNG seed for batch sampling.
    pub seed: u64,
    /// Whether persists run inline ([`PipelineMode::Sync`]) or overlapped with the
    /// next iteration's compute ([`PipelineMode::Overlapped`]).
    pub pipeline: PipelineMode,
    /// How many committed epochs the PM mirror's ring retains (`>= 2`); only the
    /// mirror-backed persistence specs use it.
    pub ring_depth: usize,
    /// Which AES-GCM engine seals the model (hardware AES-NI + PCLMUL or scalar
    /// tables). Applies when the trainer deploys its own context; a context passed
    /// to [`PliniusBuilder::context`] keeps its enclave's policy. Sealed bytes are
    /// identical on every engine; only speed differs.
    pub crypto: EnginePolicy,
    /// Which GEMM engine the training hot path runs on (AVX-512/AVX2 vector
    /// kernels, the portable scalar kernel, or the opt-in FMA variants; see
    /// [`GemmPolicy`]). Resolved against the host CPU and pinned on every layer
    /// when the trainer builds its network. Every engine except the opt-in `fma`
    /// one trains bit-identically.
    pub gemm: GemmPolicy,
}

impl Default for TrainerConfig {
    /// The paper's numeric defaults, with the pipeline mode, ring depth and engines
    /// taken from the runtime knobs ([`Knobs::from_env`]).
    fn default() -> Self {
        let knobs = Knobs::from_env();
        TrainerConfig {
            batch: 128,
            max_iterations: 500,
            mirror_frequency: 1,
            encrypted_data: true,
            seed: 0xBEEF,
            pipeline: knobs.pipeline,
            ring_depth: knobs.ring,
            crypto: knobs.crypto,
            gemm: knobs.gemm,
        }
    }
}

/// Outcome of a (possibly resumed) training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingReport {
    /// `(iteration, loss)` for every iteration executed by this run.
    pub losses: Vec<(u64, f32)>,
    /// The model's iteration counter at the end of the run.
    pub final_iteration: u64,
    /// Simulated nanoseconds consumed by this run.
    pub simulated_ns: u64,
}

impl TrainingReport {
    /// Loss of the last executed iteration, if any.
    pub fn final_loss(&self) -> Option<f32> {
        self.losses.last().map(|(_, l)| *l)
    }
}

/// The Plinius training driver bound to one context, one enclave model, the PM-resident
/// training data and one persistence backend.
#[derive(Debug)]
pub struct PliniusTrainer {
    ctx: PliniusContext,
    network: Network,
    pm_data: PmDataset,
    plain_data: Option<Dataset>,
    backend: Box<dyn ModelPersistence>,
    config: TrainerConfig,
    last_persist_ns: u64,
}

impl PliniusTrainer {
    /// The enclave model being trained.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The training context.
    pub fn context(&self) -> &PliniusContext {
        &self.ctx
    }

    /// The persistence backend driving model durability.
    pub fn backend(&self) -> &dyn ModelPersistence {
        self.backend.as_ref()
    }

    /// Activity counters of the persistence backend.
    pub fn persist_stats(&self) -> PersistStats {
        self.backend.persist_stats()
    }

    /// A cold clone of the backend's live PM mirror handle — same persistent model,
    /// own scratch buffers — or [`None`] when the backend has no mirror (or has not
    /// bound one yet). This is how an [`InferenceServer`](crate::InferenceServer)
    /// attaches to a trainer: the clone reads committed epochs through the seqlock
    /// snapshot protocol without ever contending on the trainer's staging buffers.
    pub fn mirror_handle(&self) -> Option<MirrorModel> {
        self.backend.mirror_model().cloned()
    }

    /// The model's current iteration counter.
    pub fn iteration(&self) -> u64 {
        self.network.iteration()
    }

    /// Whether the model has reached `max_iterations`.
    pub fn is_done(&self) -> bool {
        self.network.iteration() >= self.config.max_iterations
    }

    /// Executes one training iteration (lines 13–17 of Algorithm 2) and returns its loss.
    ///
    /// # Errors
    ///
    /// Propagates data-decryption, training and persistence errors.
    pub fn step(&mut self) -> Result<f32, PliniusError> {
        let batch = self.config.batch;
        // Batch sampling is a pure function of (seed, iteration counter), so a run
        // resumed from the PM mirror at iteration k draws exactly the batches an
        // uninterrupted run would have drawn from k onwards — crash/resume is
        // bit-for-bit deterministic. The avalanche mix keeps consecutive
        // iterations' seeds unrelated (a plain `seed + i * gamma` stride would
        // collide with SplitMix64's own increment and give overlapping states).
        let mut rng = StdRng::seed_from_u64(batch_seed(self.config.seed, self.network.iteration()));
        // Fetch a batch: decrypt it from PM (Plinius) or read plaintext (baseline).
        let (images, labels) = if self.config.encrypted_data {
            self.pm_data.decrypt_batch(&self.ctx, batch, &mut rng)?
        } else {
            self.pm_data.staging_cost_only(&self.ctx, batch);
            let data = self.plain_data.as_ref().ok_or(PliniusError::NoPmDataset)?;
            Ok::<_, PliniusError>(data.random_batch(batch, &mut rng))?
        };
        // Train for one iteration inside the enclave, charging the modeled compute cost.
        let flops = self.network.flops_per_sample() * batch as u64;
        self.ctx.enclave().charge_compute(flops);
        let loss = self.ctx.enclave().ecall("train_iteration", || {
            self.network.train_batch(&images, &labels, batch)
        })??;
        // Persist according to the configured frequency — the trainer does not know
        // (or care) which medium the backend writes to. In overlapped mode the
        // backend stages a cheap snapshot and publishes it in the background while
        // the next iteration computes; `drain` joins the tail publish.
        let iteration = self.network.iteration();
        if iteration.is_multiple_of(self.config.mirror_frequency) {
            let before = self.ctx.clock().now_ns();
            match self.config.pipeline {
                PipelineMode::Sync => self.backend.persist(&self.ctx, &self.network, iteration)?,
                PipelineMode::Overlapped => {
                    self.backend
                        .persist_async(&self.ctx, &self.network, iteration)?
                }
            }
            self.last_persist_ns = self.ctx.clock().now_ns().saturating_sub(before);
        } else {
            self.last_persist_ns = 0;
        }
        Ok(loss)
    }

    /// Simulated nanoseconds the most recent [`PliniusTrainer::step`] spent in its
    /// persistence call (0 when that step did not persist). The fleet scheduler uses
    /// this to serialize different tenants' publishes on the modeled PM write lane.
    pub fn last_persist_ns(&self) -> u64 {
        self.last_persist_ns
    }

    /// Joins and commits any in-flight background publish of the persistence backend.
    /// [`PliniusTrainer::run`]/[`PliniusTrainer::run_at_most`] call this on every
    /// exit path; it is needed explicitly only when driving [`PliniusTrainer::step`]
    /// by hand in overlapped mode.
    ///
    /// # Errors
    ///
    /// Propagates errors of the joined publish.
    pub fn drain(&mut self) -> Result<(), PliniusError> {
        self.backend.drain(&self.ctx)
    }

    /// Rolls the enclave model back to a retained `epoch` of the PM mirror's ring:
    /// drains any in-flight publish, then restores that epoch's weights and iteration
    /// counter into the live network. Training resumed afterwards re-executes from
    /// there, drawing bit-identical batches to a run that never advanced past it.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::EpochNotRetained`] if the epoch has been evicted from
    /// (or never entered) the ring, or [`PliniusError::MirrorMismatch`] when the
    /// backend has no PM mirror to travel through.
    pub fn rollback_to(&mut self, epoch: u64) -> Result<(), PliniusError> {
        self.drain()?;
        let mirror = self.backend.mirror_model().cloned().ok_or_else(|| {
            PliniusError::MirrorMismatch(
                "the persistence backend has no PM mirror to roll back through".to_owned(),
            )
        })?;
        mirror.restore_epoch(&self.ctx, &mut self.network, epoch)?;
        Ok(())
    }

    /// How many torn snapshot reads the deployment's mirror readers have retried so
    /// far (the `mirror.torn_read_retries` statistic): concurrent serve-vs-train
    /// races that the seqlock protocol detected and resolved.
    pub fn torn_read_retries(&self) -> u64 {
        self.ctx.stats().value("mirror.torn_read_retries")
    }

    /// Runs until `max_iterations` is reached (the full Algorithm 2 loop).
    ///
    /// # Errors
    ///
    /// Propagates the first error of any iteration.
    pub fn run(&mut self) -> Result<TrainingReport, PliniusError> {
        self.run_at_most(u64::MAX)
    }

    /// Runs at most `limit` iterations (used by the crash and spot schedulers).
    ///
    /// # Errors
    ///
    /// Propagates the first error of any iteration.
    pub fn run_at_most(&mut self, limit: u64) -> Result<TrainingReport, PliniusError> {
        let start_ns = self.ctx.clock().now_ns();
        let mut losses = Vec::new();
        let mut executed = 0u64;
        let mut result = Ok(());
        while !self.is_done() && executed < limit {
            match self.step() {
                Ok(loss) => losses.push((self.network.iteration(), loss)),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
            executed += 1;
        }
        // Join the tail publish on every exit path, so the committed PM state is
        // up to date when the run returns (successfully or not).
        let drained = self.backend.drain(&self.ctx);
        result?;
        drained?;
        Ok(TrainingReport {
            losses,
            final_iteration: self.network.iteration(),
            simulated_ns: self.ctx.clock().now_ns() - start_ns,
        })
    }

    /// Classification accuracy of the current enclave model over `dataset` (secure
    /// inference, §VI).
    pub fn accuracy(&mut self, dataset: &Dataset) -> f32 {
        self.network.accuracy(dataset)
    }
}

/// Shared description of a training deployment, used by the crash/spot drivers, the full
/// workflow and the benchmark harnesses.
#[derive(Debug, Clone)]
pub struct TrainingSetup {
    /// Hardware cost model (server profile).
    pub cost: CostModel,
    /// Size of the PM pool in bytes.
    pub pm_bytes: usize,
    /// Darknet configuration text of the model.
    pub model_config: String,
    /// The training dataset (loaded into PM once).
    pub dataset: Dataset,
    /// Trainer configuration (numeric knobs).
    pub trainer: TrainerConfig,
    /// Declarative persistence spec; [`PliniusBuilder::backend`] overrides it with an
    /// arbitrary [`ModelPersistence`] implementation.
    pub backend: PersistenceBackend,
    /// Model/weight initialisation seed.
    pub model_seed: u64,
}

impl TrainingSetup {
    /// A very small setup for tests and doc examples (tiny CNN, tiny synthetic dataset).
    pub fn small_test() -> Self {
        let mut rng = StdRng::seed_from_u64(7);
        TrainingSetup {
            cost: CostModel::sgx_eml_pm(),
            pm_bytes: 32 * 1024 * 1024,
            model_config: plinius_darknet::mnist_cnn_config(2, 4, 8),
            dataset: plinius_darknet::synthetic_mnist(96, &mut rng),
            trainer: TrainerConfig {
                batch: 8,
                max_iterations: 12,
                seed: 1,
                ..TrainerConfig::default()
            },
            backend: PersistenceBackend::PmMirror,
            model_seed: 3,
        }
    }

    /// Builds the enclave model described by this setup.
    ///
    /// # Errors
    ///
    /// Propagates configuration-parsing errors.
    pub fn build_network(&self) -> Result<Network, PliniusError> {
        let mut rng = StdRng::seed_from_u64(self.model_seed);
        build_network(&self.model_config, &mut rng).map_err(PliniusError::from)
    }
}

/// Salt mixed into the seed of the key generated by [`PliniusBuilder::build`] when no
/// context is supplied, so data-sampling and key randomness differ.
const LOCAL_KEY_SALT: u64 = 0x6c6f_6361_6c00;

/// Fluent constructor for [`PliniusTrainer`] (lines 2–12 of Algorithm 2).
///
/// The builder starts from a [`TrainingSetup`], lets individual knobs and the
/// persistence backend be overridden, and wires everything together in `build()`:
/// register the enclave model's memory, open the PM dataset, and either restore the
/// model from the backend (if a persisted copy exists) or let the backend prepare
/// fresh state.
///
/// ```
/// use plinius::{PliniusBuilder, TrainingSetup};
///
/// // Local deployment: fresh PM pool, seed-derived key, dataset loaded into PM.
/// let mut trainer = PliniusBuilder::new(TrainingSetup::small_test())
///     .mirror_frequency(2)
///     .max_iterations(4)
///     .seed(42)
///     .build()?;
/// let report = trainer.run()?;
/// assert_eq!(report.final_iteration, 4);
/// # Ok::<(), plinius::PliniusError>(())
/// ```
#[derive(Debug)]
pub struct PliniusBuilder {
    setup: TrainingSetup,
    ctx: Option<PliniusContext>,
    backend: Option<Box<dyn ModelPersistence>>,
    plain_data: Option<Dataset>,
    tenant: Option<TenantId>,
}

impl PliniusBuilder {
    /// Starts a builder from a deployment description.
    pub fn new(setup: TrainingSetup) -> Self {
        PliniusBuilder {
            setup,
            ctx: None,
            backend: None,
            plain_data: None,
            tenant: None,
        }
    }

    /// Scopes the trainer to `tenant`: its mirror, dataset and key live in the
    /// tenant's own Romulus root pair and enclave key-store slot. A context passed
    /// via [`PliniusBuilder::context`] is re-scoped with
    /// [`PliniusContext::for_tenant`]; a locally deployed one is scoped before the
    /// key is provisioned and the dataset loaded.
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Uses an existing deployment context (pool, enclave, provisioned key) instead of
    /// creating a fresh local one. Crash/resume flows re-open a context over the
    /// surviving pool and pass it here.
    pub fn context(mut self, ctx: PliniusContext) -> Self {
        self.ctx = Some(ctx);
        self
    }

    /// Persists the model through `backend` instead of the declarative
    /// [`TrainingSetup::backend`] spec.
    pub fn backend(self, backend: impl ModelPersistence + 'static) -> Self {
        self.backend_boxed(Box::new(backend))
    }

    /// Like [`PliniusBuilder::backend`], for an already-boxed trait object.
    pub fn backend_boxed(mut self, backend: Box<dyn ModelPersistence>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Overrides the batch size.
    pub fn batch(mut self, batch: usize) -> Self {
        self.setup.trainer.batch = batch;
        self
    }

    /// Overrides the target iteration count (`MAX_ITER`).
    pub fn max_iterations(mut self, max_iterations: u64) -> Self {
        self.setup.trainer.max_iterations = max_iterations;
        self
    }

    /// Overrides how often the model is persisted (every `n` iterations).
    pub fn mirror_frequency(mut self, n: u64) -> Self {
        self.setup.trainer.mirror_frequency = n;
        self
    }

    /// Overrides the batch-sampling seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.setup.trainer.seed = seed;
        self
    }

    /// Selects encrypted PM training data (the Plinius path) or the plaintext baseline.
    pub fn encrypted_data(mut self, encrypted: bool) -> Self {
        self.setup.trainer.encrypted_data = encrypted;
        self
    }

    /// Selects how persists are scheduled: inline ([`PipelineMode::Sync`], the
    /// default) or overlapped with the next iteration's compute
    /// ([`PipelineMode::Overlapped`]). Results are bit-identical either way; only
    /// timing differs.
    pub fn pipeline_mode(mut self, mode: PipelineMode) -> Self {
        self.setup.trainer.pipeline = mode;
        self
    }

    /// Overrides how many committed epochs the PM mirror's ring retains (`>= 2`).
    /// Only applies when this builder instantiates a mirror-backed spec; an explicit
    /// [`PliniusBuilder::backend`] and an already-allocated mirror keep their own
    /// depth.
    pub fn ring_depth(mut self, ring: usize) -> Self {
        self.setup.trainer.ring_depth = ring;
        self
    }

    /// Pins the AES-GCM engine the deployment seals with (hardware or scalar; see
    /// [`EnginePolicy`]). Applies when this builder deploys its own
    /// context; an explicit [`PliniusBuilder::context`] keeps its enclave's policy.
    /// Sealed bytes are engine-independent, so persisted models stay portable.
    pub fn crypto_engine(mut self, policy: EnginePolicy) -> Self {
        self.setup.trainer.crypto = policy;
        self
    }

    /// Pins the GEMM engine the training hot path runs on (vector, scalar or FMA;
    /// see [`GemmPolicy`]). The policy is resolved against the
    /// host CPU in `build()` and pinned on every layer of the enclave model. Every
    /// policy except the opt-in `fma` one trains bit-identically, so persisted
    /// models stay portable across engines.
    pub fn gemm_engine(mut self, policy: GemmPolicy) -> Self {
        self.setup.trainer.gemm = policy;
        self
    }

    /// Plaintext dataset for the unencrypted baseline; defaults to the setup's dataset.
    pub fn plain_data(mut self, data: Dataset) -> Self {
        self.plain_data = Some(data);
        self
    }

    /// Builds the trainer: validates the configuration, deploys a local context if none
    /// was supplied, registers the enclave model's memory, opens the PM dataset, and
    /// restores from the persistence backend when a persisted model exists.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::InvalidConfig`] if `mirror_frequency` is zero,
    /// [`PliniusError::NoPmDataset`] if no dataset was loaded into PM, or any
    /// restore/allocation error from the backend.
    pub fn build(self) -> Result<PliniusTrainer, PliniusError> {
        let PliniusBuilder {
            setup,
            ctx,
            backend,
            plain_data,
            tenant,
        } = self;
        let config = setup.trainer.clone();
        // A zero frequency would silently never persist (`is_multiple_of(0)` is
        // false for every iteration) — reject it loudly instead.
        if config.mirror_frequency == 0 {
            return Err(PliniusError::InvalidConfig(
                "mirror_frequency must be at least 1".to_owned(),
            ));
        }
        // A one-deep "ring" could not distinguish the committing epoch from the last
        // complete one, which is the whole crash-consistency story — refuse early.
        if config.ring_depth < 2 {
            return Err(PliniusError::InvalidConfig(format!(
                "ring_depth must be at least 2, got {}",
                config.ring_depth
            )));
        }
        let ctx = match ctx {
            Some(ctx) => match tenant {
                Some(t) if t != ctx.tenant() => ctx.for_tenant(t),
                _ => ctx,
            },
            None => {
                // Local deployment for tests and examples: fresh pool, seed-derived
                // key provisioned directly (production uses the attested Fig. 5
                // workflow), dataset loaded into PM.
                let ctx = PliniusContext::create_with_crypto(
                    setup.cost.clone(),
                    setup.pm_bytes,
                    config.crypto,
                )?;
                let ctx = match tenant {
                    Some(t) => ctx.for_tenant(t),
                    None => ctx,
                };
                let mut rng = StdRng::seed_from_u64(config.seed ^ LOCAL_KEY_SALT);
                ctx.provision_key_directly(Key::generate_128(&mut rng));
                PmDataset::load(&ctx, &setup.dataset)?;
                ctx
            }
        };
        let pm_data = PmDataset::open(&ctx)?;
        let mut network = setup.build_network()?;
        // Resolve the configured GEMM policy once and pin the engine across the layer
        // stack, so the hot path ignores later env changes.
        network.set_gemm_policy(config.gemm);
        // The enclave model and its training buffers occupy trusted memory; this is what
        // pushes large models past the EPC limit.
        ctx.enclave()
            .alloc_trusted((network.model_bytes() * 2) as u64)
            .map_err(PliniusError::from)?;
        let mut backend =
            backend.unwrap_or_else(|| setup.backend.instantiate(None, config.ring_depth));
        if backend.exists(&ctx) {
            backend.restore(&ctx, &mut network)?;
        } else {
            backend.prepare(&ctx, &network)?;
        }
        let plain_data =
            plain_data.or_else(|| (!config.encrypted_data).then(|| setup.dataset.clone()));
        Ok(PliniusTrainer {
            ctx,
            network,
            pm_data,
            plain_data,
            backend,
            config,
            last_persist_ns: 0,
        })
    }
}

/// Mixes the run seed and the iteration counter into an iteration-local RNG
/// seed (SplitMix64-style finalizer for full avalanche).
fn batch_seed(seed: u64, iteration: u64) -> u64 {
    let mut z = seed ^ iteration.wrapping_mul(0xa076_1d64_78bd_642f);
    z = (z ^ (z >> 32)).wrapping_mul(0xe703_7ed1_a0b4_28db);
    z ^ (z >> 29)
}

/// Result of a crash-interrupted training run (Figs. 9 and 10).
#[derive(Debug, Clone, PartialEq)]
pub struct CrashRunReport {
    /// Loss of every executed iteration, in global execution order (including iterations
    /// wasted by a non-resilient system after restarts).
    pub losses: Vec<f32>,
    /// The model's final iteration counter.
    pub completed_iteration: u64,
    /// Total iterations executed across all restarts.
    pub total_iterations_executed: u64,
    /// Number of crashes injected.
    pub crashes: usize,
}

/// Runs a training job that is killed (crashed) after the given numbers of *executed*
/// iterations and restarted each time, as in the Fig. 9 experiment.
///
/// With `resilient = true` the setup's persistence backend (PM mirror, SSD checkpoint
/// or the hybrid tier) persists and restores the model, so training resumes where it
/// left off; with `resilient = false` nothing is persisted and every restart begins
/// from freshly initialised weights (the paper's non-crash-resilient comparison).
///
/// SSD-backed specs write to one durable simulated SSD that — like a real disk —
/// survives every simulated process kill.
///
/// # Errors
///
/// Propagates errors from any phase of any segment.
pub fn train_with_crash_schedule(
    setup: &TrainingSetup,
    crash_after: &[u64],
    resilient: bool,
) -> Result<CrashRunReport, PliniusError> {
    let mut rng = StdRng::seed_from_u64(setup.trainer.seed);
    let key = Key::generate_128(&mut rng);
    // Initial deployment: create the pool, provision the key, load the data once.
    let ctx = PliniusContext::create(setup.cost.clone(), setup.pm_bytes)?;
    ctx.provision_key_directly(key.clone());
    PmDataset::load(&ctx, &setup.dataset)?;
    let pool = ctx.pool().clone();
    drop(ctx);

    let mut losses = Vec::new();
    let mut executed = 0u64;
    let mut crashes = 0usize;
    let mut crash_points = crash_after.to_vec();
    crash_points.sort_unstable();
    let mut completed_iteration;
    loop {
        // (Re)open the deployment over the surviving PM pool.
        let ctx = PliniusContext::open(pool.clone(), setup.cost.clone())?;
        ctx.provision_key_directly(key.clone());
        // SSD-backed specs bind to the deployment's durable shared SSD, which — like a
        // real disk — outlives every simulated process kill (a crash wipes volatile
        // state and unflushed PM lines, not the disk).
        let backend: Box<dyn ModelPersistence> = if resilient {
            setup.backend.instantiate(None, setup.trainer.ring_depth)
        } else {
            Box::new(NoOpBackend)
        };
        let mut trainer = PliniusBuilder::new(setup.clone())
            .context(ctx)
            .backend_boxed(backend)
            .build()?;
        // Run until the next crash point or completion.
        let next_crash = crash_points.iter().find(|&&p| p > executed).copied();
        let limit = match next_crash {
            Some(p) => p - executed,
            None => u64::MAX,
        };
        let report = trainer.run_at_most(limit)?;
        executed += report.losses.len() as u64;
        losses.extend(report.losses.iter().map(|(_, l)| *l));
        completed_iteration = report.final_iteration;
        if trainer.is_done() {
            break;
        }
        // Kill the process: volatile state (enclave model, caches) is lost; whatever was
        // not flushed to PM is dropped.
        crashes += 1;
        let mut crash_rng = StdRng::seed_from_u64(executed);
        pool.crash(&mut crash_rng, CrashMode::DropUnflushed);
        // Safety valve for the non-resilient run: it can in principle never finish if
        // crashes are too frequent; cap the total work at 20x the target.
        if executed > setup.trainer.max_iterations * 20 {
            break;
        }
    }
    Ok(CrashRunReport {
        losses,
        completed_iteration,
        total_iterations_executed: executed,
        crashes,
    })
}

/// Converts a spot-instance state curve into a crash schedule: training executes
/// `iterations_per_step` iterations during every 5-minute step in which the instance is
/// running, and is killed at every running-to-stopped transition (Fig. 10).
pub fn spot_crash_schedule(sim: &SpotSimulator, iterations_per_step: u64) -> Vec<u64> {
    let mut schedule = Vec::new();
    let mut executed = 0u64;
    let curve = sim.state_curve();
    for window in curve.windows(2) {
        if window[0].running {
            executed += iterations_per_step;
            if !window[1].running {
                schedule.push(executed);
            }
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mirror::MirrorModel;
    use plinius_spot::SpotTrace;

    fn setup() -> TrainingSetup {
        TrainingSetup::small_test()
    }

    fn deploy(setup: &TrainingSetup) -> (PliniusContext, Key) {
        let mut rng = StdRng::seed_from_u64(11);
        let key = Key::generate_128(&mut rng);
        let ctx = PliniusContext::create(setup.cost.clone(), setup.pm_bytes).unwrap();
        ctx.provision_key_directly(key.clone());
        PmDataset::load(&ctx, &setup.dataset).unwrap();
        (ctx, key)
    }

    #[test]
    fn training_loop_runs_and_mirrors_every_iteration() {
        let setup = setup();
        let (ctx, _key) = deploy(&setup);
        let mut trainer = PliniusBuilder::new(setup.clone())
            .context(ctx)
            .build()
            .unwrap();
        let report = trainer.run().unwrap();
        assert_eq!(report.final_iteration, setup.trainer.max_iterations);
        assert_eq!(report.losses.len(), setup.trainer.max_iterations as usize);
        assert!(report.final_loss().unwrap().is_finite());
        assert!(report.simulated_ns > 0);
        assert!(trainer.is_done());
        assert_eq!(trainer.backend().label(), "pm-mirror");
        assert_eq!(
            trainer.persist_stats().persists,
            setup.trainer.max_iterations
        );
        // The mirror in PM carries the final iteration counter.
        let mirror = MirrorModel::open(trainer.context()).unwrap();
        assert_eq!(
            mirror.iteration(trainer.context()).unwrap(),
            setup.trainer.max_iterations
        );
    }

    #[test]
    fn resumed_training_continues_from_mirror() {
        let setup = setup();
        let (ctx, key) = deploy(&setup);
        let mut trainer = PliniusBuilder::new(setup.clone())
            .context(ctx)
            .build()
            .unwrap();
        trainer.run_at_most(5).unwrap();
        assert_eq!(trainer.iteration(), 5);
        let pool = trainer.context().pool().clone();
        drop(trainer);
        // Restart: fresh enclave, fresh model object — training must resume at 5.
        let ctx2 = PliniusContext::open(pool, setup.cost.clone()).unwrap();
        ctx2.provision_key_directly(key);
        let mut resumed = PliniusBuilder::new(setup.clone())
            .context(ctx2)
            .build()
            .unwrap();
        assert_eq!(resumed.iteration(), 5);
        assert_eq!(resumed.persist_stats().restores, 1);
        let report = resumed.run().unwrap();
        assert_eq!(report.final_iteration, setup.trainer.max_iterations);
        assert_eq!(report.losses.len() as u64, setup.trainer.max_iterations - 5);
    }

    #[test]
    fn crash_schedule_resilient_does_not_repeat_iterations() {
        let mut setup = setup();
        setup.trainer.max_iterations = 10;
        let report = train_with_crash_schedule(&setup, &[3, 7], true).unwrap();
        assert_eq!(report.crashes, 2);
        assert_eq!(report.completed_iteration, 10);
        assert_eq!(report.total_iterations_executed, 10);
        assert_eq!(report.losses.len(), 10);
    }

    #[test]
    fn zero_mirror_frequency_is_rejected() {
        let setup = setup();
        let (ctx, _key) = deploy(&setup);
        match PliniusBuilder::new(setup)
            .context(ctx)
            .mirror_frequency(0)
            .build()
        {
            Err(PliniusError::InvalidConfig(msg)) => assert!(msg.contains("mirror_frequency")),
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn crashed_resilient_run_matches_uninterrupted_run_exactly() {
        // With momentum 0 the entire training state lives in the five persisted
        // tensors per layer (the Darknet weight format carries no momentum
        // buffers), so resume from *any* backend must be bit-for-bit
        // deterministic — the loss curve of a crashed run equals the
        // uninterrupted one for the PM mirror, the SSD baseline and the hybrid
        // tier alike.
        for backend in [
            PersistenceBackend::PmMirror,
            PersistenceBackend::SsdCheckpoint("crash.ckpt".into()),
            PersistenceBackend::HybridTiered {
                ssd_path: "crash-demote.ckpt".into(),
                demote_every: 4,
            },
        ] {
            let mut setup = setup();
            setup.model_config = plinius_darknet::mnist_cnn_config_with_momentum(2, 4, 8, 0.0);
            setup.trainer.max_iterations = 12;
            setup.backend = backend.clone();
            let uninterrupted = train_with_crash_schedule(&setup, &[], true).unwrap();
            let crashed = train_with_crash_schedule(&setup, &[3, 8], true).unwrap();
            assert_eq!(uninterrupted.crashes, 0, "{backend:?}");
            assert_eq!(crashed.crashes, 2, "{backend:?}");
            // Resumes at the correct iteration: no iteration is redone or skipped.
            assert_eq!(crashed.completed_iteration, 12, "{backend:?}");
            assert_eq!(crashed.total_iterations_executed, 12, "{backend:?}");
            // The whole loss curve — including the final loss — is identical.
            assert_eq!(crashed.losses, uninterrupted.losses, "{backend:?}");
        }
    }

    #[test]
    fn crashed_resilient_run_converges_like_uninterrupted_run() {
        // With the default momentum the post-crash updates differ slightly (the
        // momentum buffers are volatile, exactly as in Darknet's weight files),
        // but the crashed run must still land at the uninterrupted final loss,
        // not anywhere near a from-scratch restart.
        let mut setup = setup();
        setup.trainer.max_iterations = 60;
        let uninterrupted = train_with_crash_schedule(&setup, &[], true).unwrap();
        let crashed = train_with_crash_schedule(&setup, &[20, 40], true).unwrap();
        assert_eq!(crashed.total_iterations_executed, 60);
        let initial = uninterrupted.losses[0];
        let final_a = *uninterrupted.losses.last().unwrap();
        let final_b = *crashed.losses.last().unwrap();
        let progress = initial - final_a;
        assert!(
            progress > 0.3,
            "run too short to measure convergence ({progress})"
        );
        // Same final loss within 20% of the achieved progress.
        assert!(
            (final_a - final_b).abs() < 0.2 * progress,
            "crashed run diverged: {final_b} vs {final_a} (initial {initial})"
        );
    }

    #[test]
    fn resume_restores_the_exact_mirror_iteration() {
        let setup = setup();
        let (ctx, key) = deploy(&setup);
        let mut trainer = PliniusBuilder::new(setup.clone())
            .context(ctx)
            .build()
            .unwrap();
        trainer.run_at_most(7).unwrap();
        let pool = trainer.context().pool().clone();
        drop(trainer);
        // Power failure with arbitrary cache eviction: only flushed state survives.
        let mut crash_rng = StdRng::seed_from_u64(99);
        pool.crash(&mut crash_rng, CrashMode::ArbitraryEviction);
        let ctx2 = PliniusContext::open(pool, setup.cost.clone()).unwrap();
        ctx2.provision_key_directly(key);
        let mirror = MirrorModel::open(&ctx2).unwrap();
        assert_eq!(mirror.iteration(&ctx2).unwrap(), 7);
        let resumed = PliniusBuilder::new(setup).context(ctx2).build().unwrap();
        assert_eq!(resumed.iteration(), 7);
    }

    #[test]
    fn crash_schedule_non_resilient_wastes_iterations() {
        let mut setup = setup();
        setup.trainer.max_iterations = 6;
        let resilient = train_with_crash_schedule(&setup, &[4], true).unwrap();
        let fragile = train_with_crash_schedule(&setup, &[4], false).unwrap();
        assert_eq!(resilient.total_iterations_executed, 6);
        // The non-resilient run restarts from scratch after the crash: 4 wasted + 6.
        assert_eq!(fragile.total_iterations_executed, 10);
        assert_eq!(fragile.completed_iteration, 6);
        assert_eq!(fragile.crashes, 1);
    }

    #[test]
    fn ssd_backend_also_resumes_across_restarts() {
        // Unlike the PM pool, the simulated SSD lives in the backend's file system:
        // carry it across the restart, exactly as a disk would survive a process kill.
        let mut setup = setup();
        setup.trainer.max_iterations = 8;
        let (ctx, key) = deploy(&setup);
        let fs = crate::persist::shared_ssd(&ctx);
        let mut trainer = PliniusBuilder::new(setup.clone())
            .context(ctx)
            .backend(crate::persist::SsdCheckpointBackend::on_filesystem(
                fs.clone(),
                "ckpt.bin",
            ))
            .build()
            .unwrap();
        trainer.run_at_most(5).unwrap();
        let pool = trainer.context().pool().clone();
        drop(trainer);
        let ctx2 = PliniusContext::open(pool, setup.cost.clone()).unwrap();
        ctx2.provision_key_directly(key);
        let mut resumed = PliniusBuilder::new(setup)
            .context(ctx2)
            .backend(crate::persist::SsdCheckpointBackend::on_filesystem(
                fs, "ckpt.bin",
            ))
            .build()
            .unwrap();
        assert_eq!(resumed.iteration(), 5);
        assert_eq!(resumed.backend().label(), "ssd-checkpoint");
        let report = resumed.run().unwrap();
        assert_eq!(report.final_iteration, 8);
    }

    #[test]
    fn spot_schedule_matches_interruptions() {
        let trace = SpotTrace::new(vec![0.09, 0.09, 0.2, 0.09, 0.09, 0.3, 0.09]).unwrap();
        let sim = SpotSimulator::new(trace, 0.0955);
        let schedule = spot_crash_schedule(&sim, 10);
        assert_eq!(schedule, vec![20, 40]);
    }

    #[test]
    fn plaintext_data_path_requires_dataset_copy() {
        let setup = setup();
        let (ctx, _key) = deploy(&setup);
        let mut trainer = PliniusBuilder::new(setup)
            .context(ctx)
            .encrypted_data(false)
            .max_iterations(2)
            .build()
            .unwrap();
        let report = trainer.run().unwrap();
        assert_eq!(report.final_iteration, 2);
    }
}
