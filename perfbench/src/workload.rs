//! The three workloads and the single-threaded loop that runs them.
//!
//! Every workload runs the same life cycle through the program's public API, in
//! rounds: training steps that persist the encrypted PM mirror every iteration,
//! then open-loop serving batches from the committed epoch, and every few rounds a
//! crash of the PM pool followed by a restart that restores the mirror. The
//! workloads differ in model, batch, pipeline mode and the mix of the three, so each
//! one is dominated by different layers. A run does a fixed amount of work and never
//! stops on a wall-clock deadline, so simulated times and counts repeat exactly for
//! a given seed.

use crate::backend::{PersistTraffic, TracedMirror};
use crate::clock::{Lap, Stopwatch};
use crate::summary::has_tail;
use crate::trace::Tracer;
use plinius::{
    EnginePolicy, GemmPolicy, InferenceServer, PersistenceBackend, PipelineMode, PliniusBuilder,
    PliniusContext, PliniusError, PliniusTrainer, PmDataset, TrainerConfig, TrainingSetup,
};
use plinius_crypto::Key;
use plinius_darknet::{
    build_network, mnist_cnn_config_with_momentum, sized_model_config, synthetic_mnist, Dataset,
    Network,
};
use plinius_pmem::CrashMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_clock::CostModel;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Epochs the PM mirror's ring retains (the program's default, pinned).
pub const RING_DEPTH: usize = 2;
/// Steps the warm-up rounds cover at least.
const WARMUP_STEPS: u64 = 10;
/// Floor on the accuracy served over the second half of a run.
const ACCURACY_FLOOR: f64 = 0.8;
/// Fresh deployments a run times for `setup_s`: its own and fourteen extra ones.
const SETUP_DEPLOYMENTS: usize = 15;
/// Size of every deployment's PM pool: room for the encrypted dataset and the
/// mirror's epoch ring, twice over for Romulus' twin regions.
const PM_BYTES: usize = 64 << 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Train,
    PersistRecover,
    ServeLive,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Train,
        Workload::PersistRecover,
        Workload::ServeLive,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Train => "train",
            Workload::PersistRecover => "persist-recover",
            Workload::ServeLive => "serve-live",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn spec(self) -> Spec {
        match self {
            // A conv net whose step is almost all darknet compute; the mirror is small.
            Workload::Train => Spec {
                model: Model::Cnn {
                    conv: 4,
                    filters: 16,
                    momentum: 0.0,
                },
                batch: 64,
                pipeline: PipelineMode::Sync,
                train_samples: 4096,
                heldout_samples: 1024,
                steps_per_round: 10,
                serve_batches_per_round: 5,
                serve_batch: 64,
                crash_every_rounds: 1,
                restarts_per_crash: 6,
                offered_rps: 200.0,
                p99_limit_ms: 1000.0,
                rounds_per_second: 1.7,
            },
            // A 4 MB fully connected model at a small batch: the save and the
            // restore dominate, and the process is killed every round.
            Workload::PersistRecover => Spec {
                model: Model::Sized { mb: 4 },
                batch: 8,
                pipeline: PipelineMode::Sync,
                train_samples: 1024,
                heldout_samples: 512,
                steps_per_round: 3,
                serve_batches_per_round: 5,
                serve_batch: 16,
                crash_every_rounds: 1,
                restarts_per_crash: 3,
                offered_rps: 400.0,
                p99_limit_ms: 200.0,
                rounds_per_second: 4.3,
            },
            // A small CNN trained under the overlapped pipeline while serving keeps
            // hot-swapping the newest epoch in.
            Workload::ServeLive => Spec {
                model: Model::Cnn {
                    conv: 3,
                    filters: 16,
                    momentum: 0.0,
                },
                batch: 32,
                pipeline: PipelineMode::Overlapped,
                train_samples: 2048,
                heldout_samples: 1024,
                steps_per_round: 1,
                serve_batches_per_round: 8,
                serve_batch: 16,
                crash_every_rounds: 8,
                restarts_per_crash: 6,
                offered_rps: 1000.0,
                p99_limit_ms: 150.0,
                rounds_per_second: 18.0,
            },
        }
    }
}

/// The model a workload trains, as one of the program's model generators.
#[derive(Clone, Copy, Debug)]
pub enum Model {
    /// `mnist_cnn_config_with_momentum`: `conv` 3x3 conv layers of `filters` each.
    Cnn {
        conv: usize,
        filters: usize,
        momentum: f32,
    },
    /// `sized_model_config`: one small conv layer and a wide FC layer of `mb` MB.
    Sized { mb: usize },
}

impl Model {
    pub fn config(self, batch: usize) -> String {
        match self {
            Model::Cnn {
                conv,
                filters,
                momentum,
            } => mnist_cnn_config_with_momentum(conv, filters, batch, momentum),
            Model::Sized { mb } => sized_model_config(mb, batch),
        }
    }
}

/// Everything that defines one workload.
#[derive(Clone, Debug)]
pub struct Spec {
    pub model: Model,
    /// Training batch.
    pub batch: usize,
    pub pipeline: PipelineMode,
    /// Synthetic samples loaded, encrypted, into PM at deployment.
    pub train_samples: usize,
    /// Synthetic held-out samples the serving requests carry.
    pub heldout_samples: usize,
    pub steps_per_round: u64,
    pub serve_batches_per_round: u64,
    pub serve_batch: usize,
    /// The pool is crashed and the process restarted after every this many rounds.
    pub crash_every_rounds: u64,
    /// Crashes and restarts in a row at each crash point: the restarted process is
    /// killed again as soon as it has restored, as in a crash loop, so that a run
    /// times enough recoveries for a p90 without training for minutes.
    pub restarts_per_crash: u64,
    /// Offered request rate of the open-loop stream, per simulated second.
    pub offered_rps: f64,
    /// Limit on the simulated p99 request latency.
    pub p99_limit_ms: f64,
    /// Rounds per `--seconds` second, calibrated so a run measures about that long.
    pub rounds_per_second: f64,
}

/// How much work one run does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    pub warmup_rounds: u64,
    pub rounds: u64,
    pub deployments: usize,
}

impl Spec {
    /// The run size for `seconds`: at least enough timed rounds that every reported
    /// percentile has ten samples beyond it.
    pub fn scale(&self, seconds: u64) -> Scale {
        let warmup_rounds = WARMUP_STEPS.div_ceil(self.steps_per_round);
        let wanted = warmup_rounds + (seconds as f64 * self.rounds_per_second).ceil() as u64;
        let mut rounds = wanted.max(warmup_rounds + 1);
        while !self.sizing_ok(warmup_rounds, rounds) {
            rounds += 1;
        }
        Scale {
            warmup_rounds,
            rounds,
            deployments: SETUP_DEPLOYMENTS,
        }
    }

    /// Whether `rounds` give p90s of steps, serve batches and recoveries and a p99
    /// of requests, each with ten samples beyond it.
    pub fn sizing_ok(&self, warmup_rounds: u64, rounds: u64) -> bool {
        let timed = rounds.saturating_sub(warmup_rounds);
        let steps = (timed * self.steps_per_round) as usize;
        let batches = (timed * self.serve_batches_per_round) as usize;
        let requests = batches * self.serve_batch;
        has_tail(steps, 0.9)
            && has_tail(batches, 0.9)
            && has_tail(requests, 0.99)
            && has_tail(self.recoveries(warmup_rounds, rounds) as usize, 0.9)
    }

    /// Serve batches that follow step `j` of a round: the round's batches spread
    /// evenly over its steps, so a server sees new epochs between its batches.
    fn batches_after_step(&self, j: u64) -> u64 {
        let (steps, batches) = (self.steps_per_round, self.serve_batches_per_round);
        (j + 1) * batches / steps - j * batches / steps
    }

    /// Whether the run crashes after `round` (never after the last one).
    fn crashes_after(&self, round: u64, rounds: u64) -> bool {
        (round + 1).is_multiple_of(self.crash_every_rounds) && round + 1 < rounds
    }

    /// Recoveries that fall in the timed window.
    pub fn recoveries(&self, warmup_rounds: u64, rounds: u64) -> u64 {
        let crashes = (warmup_rounds..rounds)
            .filter(|&r| self.crashes_after(r, rounds))
            .count() as u64;
        crashes * self.restarts_per_crash
    }

    fn setup(&self, inputs: &Inputs, total_steps: u64) -> TrainingSetup {
        TrainingSetup {
            cost: CostModel::sgx_eml_pm(),
            pm_bytes: PM_BYTES,
            model_config: self.model.config(self.batch),
            // A (re)started process finds its training data encrypted in PM; the
            // `PliniusBuilder` never reads the plaintext copy on the encrypted path.
            dataset: Dataset::from_raw(0, 28 * 28, 10, Vec::new(), Vec::new())
                .expect("an empty dataset is well formed"),
            trainer: TrainerConfig {
                batch: self.batch,
                max_iterations: total_steps,
                mirror_frequency: 1,
                encrypted_data: true,
                seed: inputs.batch_seed,
                pipeline: self.pipeline,
                ring_depth: RING_DEPTH,
                crypto: EnginePolicy::Auto,
                gemm: GemmPolicy::Auto,
            },
            backend: PersistenceBackend::PmMirror,
            model_seed: inputs.model_seed,
        }
    }
}

/// Derives an independent stream seed from the workload seed.
fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything generated from the seed. The program sees only these inputs.
pub struct Inputs {
    pub train: Dataset,
    pub heldout: Dataset,
    pub key: Key,
    pub model_seed: u64,
    pub batch_seed: u64,
    pub request_seed: u64,
    pub crash_seed: u64,
    pub probe_seed: u64,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Self {
        let rng = |stream| StdRng::seed_from_u64(derive(seed, stream));
        Inputs {
            train: synthetic_mnist(spec.train_samples, &mut rng(1)),
            heldout: synthetic_mnist(spec.heldout_samples, &mut rng(2)),
            key: Key::generate_128(&mut rng(3)),
            model_seed: derive(seed, 4),
            batch_seed: derive(seed, 5),
            request_seed: derive(seed, 6),
            crash_seed: derive(seed, 7),
            probe_seed: derive(seed, 8),
        }
    }
}

/// One named output check.
#[derive(Debug)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

/// Counts from the statistics registry and the persist wrapper (traced runs).
#[derive(Debug, Default)]
pub struct LayerCounts {
    pub persist: PersistTraffic,
    pub ecalls: u64,
    pub crypto_bytes: u64,
    pub epc_page_swaps: u64,
    pub torn_read_retries: u64,
    pub swaps: u64,
    pub model_bytes: usize,
    pub largest_tensor_bytes: usize,
}

/// The process's peak resident memory over the workload. The kernel's high-water
/// mark (`VmHWM`) is read before each extra set-up deployment and reset after it,
/// so those deployments do not count; when the reset is refused they do.
#[derive(Debug, Default)]
struct PeakRss {
    peak_kib: u64,
    reset_refused: bool,
}

impl PeakRss {
    fn observe(&mut self) -> Result<(), PliniusError> {
        let status = std::fs::read_to_string("/proc/self/status").map_err(|e| {
            PliniusError::InvalidConfig(format!("cannot read /proc/self/status: {e}"))
        })?;
        let kib = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .ok_or_else(|| PliniusError::InvalidConfig("no VmHWM in /proc/self/status".into()))?;
        self.peak_kib = self.peak_kib.max(kib);
        Ok(())
    }

    /// Resets the high-water mark to the current resident size.
    fn reset(&mut self) {
        self.reset_refused |= std::fs::write("/proc/self/clear_refs", "5").is_err();
    }
}

/// Raw samples of one run; timings are from the timed window only. `*_ms` is wall
/// time, `*_cpu_ms` the process CPU clock over the same calls.
#[derive(Debug, Default)]
pub struct RunData {
    pub peak_rss_mb: f64,
    /// Whether the extra set-up deployments were kept out of `peak_rss_mb`.
    pub rss_excludes_extra_setups: bool,
    pub setup_s: Vec<f64>,
    pub iter_ms: Vec<f64>,
    pub iter_cpu_ms: Vec<f64>,
    pub iter_sim_ms: Vec<f64>,
    pub save_sim_ms: Vec<f64>,
    pub recover_ms: Vec<f64>,
    pub recover_cpu_ms: Vec<f64>,
    pub recover_sim_ms: Vec<f64>,
    pub serve_batch_ms: Vec<f64>,
    pub serve_batch_cpu_ms: Vec<f64>,
    pub latency_sim_ms: Vec<f64>,
    pub served_timed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Errors of steps and serve batches, which the run counts and carries on past.
    pub errors: Vec<String>,
    pub checks: Vec<Check>,
    pub layers: LayerCounts,
}

impl RunData {
    fn check(&mut self, name: &'static str, passed: bool, detail: String) {
        self.checks.push(Check {
            name,
            passed,
            detail,
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }
}

/// FNV-1a over the bits of every parameter tensor: equal hashes mean bit-identical
/// weights.
fn params_hash(network: &Network) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for layer in network.layers() {
        for view in layer.params() {
            for v in view.data {
                for byte in v.to_bits().to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    hash
}

/// What every deployment and restart of one run shares.
struct Deployer<'a> {
    setup: TrainingSetup,
    inputs: &'a Inputs,
    pipeline: PipelineMode,
    tracer: &'a Rc<Tracer>,
    traffic: Rc<RefCell<PersistTraffic>>,
}

/// One crash and restart.
struct Restart {
    lap: Lap,
    sim_ms: f64,
    /// Whether training resumed at the iteration committed at the crash, with
    /// bit-identical weights.
    resumed: bool,
}

impl Deployer<'_> {
    /// Deploys from scratch: PM pool, key provisioning, the encrypted dataset in PM
    /// and the trainer with its mirror allocated.
    fn deploy(&self) -> Result<PliniusTrainer, PliniusError> {
        let ctx = {
            let _span = self.tracer.span("pmem.create");
            PliniusContext::create_with_crypto(
                self.setup.cost.clone(),
                self.setup.pm_bytes,
                EnginePolicy::Auto,
            )?
        };
        ctx.provision_key_directly(self.inputs.key.clone());
        {
            let _span = self.tracer.span("pmdata.load");
            PmDataset::load(&ctx, &self.inputs.train)?;
        }
        self.build(ctx)
    }

    /// Builds the trainer over `ctx`, restoring the mirror when one exists.
    fn build(&self, ctx: PliniusContext) -> Result<PliniusTrainer, PliniusError> {
        let _span = self.tracer.span("trainer.build");
        PliniusBuilder::new(self.setup.clone())
            .context(ctx)
            .backend_boxed(Box::new(TracedMirror::new(
                RING_DEPTH,
                Rc::clone(self.tracer),
                Rc::clone(&self.traffic),
            )))
            .pipeline_mode(self.pipeline)
            .ring_depth(RING_DEPTH)
            .crypto_engine(EnginePolicy::Auto)
            .gemm_engine(GemmPolicy::Auto)
            .build()
    }

    /// Kills the process between iterations, with the last publish committed, and
    /// restarts it over the crashed pool.
    fn restart(
        &self,
        mut trainer: PliniusTrainer,
        crash_rng: &mut StdRng,
    ) -> Result<(PliniusTrainer, Restart), PliniusError> {
        trainer.drain()?;
        let iteration = trainer.iteration();
        let committed = trainer
            .mirror_handle()
            .ok_or(PliniusError::NoMirrorModel)?
            .iteration(trainer.context())?;
        let hash = params_hash(trainer.network());
        let pool = trainer.context().pool().clone();
        let clock = pool.clock();
        drop(trainer);

        let sim_start = clock.now_ns();
        let watch = Stopwatch::start();
        let span = self.tracer.span("recover");
        pool.crash(crash_rng, CrashMode::DropUnflushed);
        let ctx = {
            let _span = self.tracer.span("romulus.open");
            PliniusContext::open_with_crypto(pool, self.setup.cost.clone(), EnginePolicy::Auto)?
        };
        ctx.provision_key_directly(self.inputs.key.clone());
        let trainer = self.build(ctx)?;
        drop(span);
        let restart = Restart {
            lap: watch.lap(),
            sim_ms: (clock.now_ns() - sim_start) as f64 / 1e6,
            resumed: trainer.iteration() == iteration
                && committed == iteration
                && params_hash(trainer.network()) == hash,
        };
        Ok((trainer, restart))
    }
}

/// The serving side: one server per deployment over the live mirror, fed by an
/// open-loop request stream on the simulated clock.
struct Serving {
    server: Option<InferenceServer>,
    template: Network,
    rng: StdRng,
    mean_gap_ns: f64,
    next_due_ns: Option<u64>,
    staging: Vec<f32>,
    due_ns: Vec<u64>,
    samples: Vec<usize>,
    issued: u64,
    served: u64,
    /// Swaps of servers dropped at a crash.
    swaps_before: u64,
}

impl Serving {
    fn new(spec: &Spec, inputs: &Inputs) -> Result<Self, PliniusError> {
        // The template sizes the serving networks' buffers for the serve batch.
        let mut template = build_network(
            &spec.model.config(spec.serve_batch),
            &mut StdRng::seed_from_u64(inputs.model_seed),
        )
        .map_err(PliniusError::from)?;
        template.set_gemm_policy(GemmPolicy::Auto);
        Ok(Serving {
            server: None,
            template,
            rng: StdRng::seed_from_u64(inputs.request_seed),
            mean_gap_ns: 1e9 / spec.offered_rps,
            next_due_ns: None,
            staging: vec![0.0; spec.serve_batch * inputs.heldout.inputs()],
            due_ns: vec![0; spec.serve_batch],
            samples: vec![0; spec.serve_batch],
            issued: 0,
            served: 0,
            swaps_before: 0,
        })
    }

    fn detach(&mut self) {
        if let Some(server) = self.server.take() {
            self.swaps_before += server.swaps();
        }
    }

    fn swaps(&self) -> u64 {
        self.swaps_before + self.server.as_ref().map_or(0, InferenceServer::swaps)
    }

    /// The server attached to the trainer's mirror, attaching one if needed.
    fn server(
        &mut self,
        trainer: &mut PliniusTrainer,
        tracer: &Tracer,
    ) -> Result<&mut InferenceServer, PliniusError> {
        if self.server.is_none() {
            let _span = tracer.span("serve.attach");
            let mirror = trainer.mirror_handle().ok_or(PliniusError::NoMirrorModel)?;
            // Under the overlapped pipeline a first publish commits only when joined.
            if mirror.epoch(trainer.context())? == 0 {
                trainer.drain()?;
            }
            self.server = Some(InferenceServer::new(
                trainer.context(),
                mirror,
                &self.template,
            )?);
        }
        Ok(self.server.as_mut().expect("attached above"))
    }

    /// Hot-swaps the newest committed epoch in, if there is one.
    fn refresh(
        &mut self,
        trainer: &mut PliniusTrainer,
        tracer: &Tracer,
    ) -> Result<(), PliniusError> {
        let server = self.server(trainer, tracer)?;
        let mut span = tracer.span("serve.refresh");
        if server.refresh()? {
            span.rename("serve.refresh_swap");
        }
        Ok(())
    }

    /// Serves one batch of requests that arrive on the open-loop schedule and
    /// appends each request's simulated latency from its due time to `latencies`.
    /// Returns the time of the refresh and classification on the host clocks, and
    /// how many requests were classified correctly.
    fn pump(
        &mut self,
        trainer: &mut PliniusTrainer,
        heldout: &Dataset,
        tracer: &Tracer,
        latencies: Option<&mut Vec<f64>>,
    ) -> Result<(Lap, u64), PliniusError> {
        let clock = trainer.context().clock();
        let mut due = *self.next_due_ns.get_or_insert_with(|| clock.now_ns());
        let inputs = heldout.inputs();
        for i in 0..self.due_ns.len() {
            // Exponential gaps by inverse transform; 1 - u keeps ln finite.
            let u: f64 = 1.0 - self.rng.gen_range(0.0f64..1.0);
            due += (-u.ln() * self.mean_gap_ns).round() as u64;
            let sample = self.rng.gen_range(0..heldout.len());
            self.due_ns[i] = due;
            self.samples[i] = sample;
            self.staging[i * inputs..(i + 1) * inputs].copy_from_slice(heldout.image(sample));
        }
        self.next_due_ns = Some(due);
        self.issued += self.due_ns.len() as u64;
        // The batch starts once its last request has arrived. A server attaching
        // now restores an epoch: that is start-up, not serving, and is not timed.
        clock.advance_to(due);
        self.server(trainer, tracer)?;
        let watch = Stopwatch::start();
        self.refresh(trainer, tracer)?;
        let server = self.server.as_mut().expect("attached above");
        let predictions = {
            let _span = tracer.span("serve.classify_batch");
            server.classify_batch(&self.staging)?
        };
        let lap = watch.lap();
        let done = clock.now_ns();
        self.served += predictions.len() as u64;
        let correct = predictions
            .iter()
            .zip(&self.samples)
            .filter(|&(&p, &s)| p == heldout.label_index(s))
            .count() as u64;
        if let Some(latencies) = latencies {
            latencies.extend(
                self.due_ns
                    .iter()
                    .map(|&d| done.saturating_sub(d) as f64 / 1e6),
            );
        }
        Ok((lap, correct))
    }
}

/// Runs one workload at `scale` and checks its outputs.
///
/// # Errors
///
/// An error of a step or a serve batch is counted in `failed` and the run carries
/// on; any other error of the program (a deployment, a restart, the final drain)
/// ends the run.
pub fn run(
    spec: &Spec,
    scale: Scale,
    seed: u64,
    tracer: &Rc<Tracer>,
) -> Result<RunData, PliniusError> {
    let inputs = Inputs::generate(spec, seed);
    let total_steps = scale.rounds * spec.steps_per_round;
    let deployer = Deployer {
        setup: spec.setup(&inputs, total_steps),
        inputs: &inputs,
        pipeline: spec.pipeline,
        tracer,
        traffic: Rc::new(RefCell::new(PersistTraffic::default())),
    };
    let mut data = RunData::default();
    let mut rss = PeakRss::default();

    // Set-up is timed on the run's own deployment and on extra fresh deployments
    // spread evenly over the run. The host's speed shifts every few seconds, and a
    // median over the whole run is steadier than one over deployments made back to
    // back, which all see the same moment.
    let start = Instant::now();
    let mut trainer = deployer.deploy()?;
    data.setup_s.push(start.elapsed().as_secs_f64());
    data.attempted += 1;
    let extra_after: Vec<u64> = (1..scale.deployments as u64)
        .map(|i| i * scale.rounds / scale.deployments as u64)
        .collect();

    let mut serving = Serving::new(spec, &inputs)?;
    let mut crash_rng = StdRng::seed_from_u64(inputs.crash_seed);
    let mut losses = Vec::with_capacity(total_steps as usize);
    let (mut restarts, mut resumed) = (0u64, 0u64);
    let (mut late_served, mut late_correct) = (0u64, 0u64);
    let epc_before = trainer.context().stats().value("sgx.epc_page_swaps");

    for round in 0..scale.rounds {
        let timed = round >= scale.warmup_rounds;
        let late_half = round >= scale.rounds / 2;
        for j in 0..spec.steps_per_round {
            let clock = trainer.context().clock();
            let stats = trainer.context().stats();
            let counted = tracer.enabled() && timed;
            let (ecalls, crypto) = if counted {
                (stats.value("sgx.ecalls"), stats.value("sgx.crypto_bytes"))
            } else {
                (0, 0)
            };
            let sim_start = clock.now_ns();
            let watch = Stopwatch::start();
            let step = {
                let _span = tracer.span("trainer.step");
                trainer.step()
            };
            let lap = watch.lap();
            data.attempted += 1;
            match step {
                Ok(loss) => {
                    if timed {
                        data.iter_ms.push(lap.wall_ms);
                        data.iter_cpu_ms.push(lap.cpu_ms);
                        data.iter_sim_ms
                            .push((clock.now_ns() - sim_start) as f64 / 1e6);
                        data.save_sim_ms
                            .push(trainer.last_persist_ns() as f64 / 1e6);
                    }
                    losses.push(loss);
                }
                Err(e) => {
                    data.failed += 1;
                    data.errors.push(format!("step: {e}"));
                }
            }
            if counted {
                data.layers.ecalls += stats.value("sgx.ecalls") - ecalls;
                data.layers.crypto_bytes += stats.value("sgx.crypto_bytes") - crypto;
            }
            for _ in 0..spec.batches_after_step(j) {
                let latencies = timed.then_some(&mut data.latency_sim_ms);
                data.attempted += spec.serve_batch as u64;
                // A failed batch leaves its requests unserved; they count in
                // `failed` through the served and issued totals below.
                match serving.pump(&mut trainer, &inputs.heldout, tracer, latencies) {
                    Ok((lap, correct)) => {
                        if timed {
                            data.serve_batch_ms.push(lap.wall_ms);
                            data.serve_batch_cpu_ms.push(lap.cpu_ms);
                            data.served_timed += spec.serve_batch as u64;
                        }
                        if late_half {
                            late_served += spec.serve_batch as u64;
                            late_correct += correct;
                        }
                    }
                    Err(e) => data.errors.push(format!("serve batch: {e}")),
                }
            }
        }
        for _ in extra_after.iter().filter(|&&r| r == round) {
            rss.observe()?;
            let start = Instant::now();
            drop(deployer.deploy()?);
            data.setup_s.push(start.elapsed().as_secs_f64());
            data.attempted += 1;
            // The extra deployment is the benchmark's, not the workload's memory.
            rss.reset();
        }
        if spec.crashes_after(round, scale.rounds) {
            serving.detach();
            for _ in 0..spec.restarts_per_crash {
                let restart;
                (trainer, restart) = deployer.restart(trainer, &mut crash_rng)?;
                if timed {
                    data.recover_ms.push(restart.lap.wall_ms);
                    data.recover_cpu_ms.push(restart.lap.cpu_ms);
                    data.recover_sim_ms.push(restart.sim_ms);
                }
                restarts += 1;
                data.attempted += 1;
                if restart.resumed {
                    resumed += 1;
                } else {
                    data.failed += 1;
                }
            }
        }
    }

    // Final state: the last publish committed, the server on the newest epoch.
    trainer.drain()?;
    serving.refresh(&mut trainer, tracer)?;
    let mirror = trainer.mirror_handle().ok_or(PliniusError::NoMirrorModel)?;
    let committed_epoch = mirror.epoch(trainer.context())?;
    let committed_iteration = mirror.iteration(trainer.context())?;
    let served_epoch = serving.server(&mut trainer, tracer)?.epoch();

    let errors = data.errors.len();
    data.check(
        "no_operation_errors",
        errors == 0,
        match data.errors.first() {
            Some(first) => format!("{errors} steps or serve batches failed; the first: {first}"),
            None => "every step and serve batch returned Ok".to_owned(),
        },
    );
    let executed = losses.len() as u64;
    data.check(
        "all_iterations_executed",
        executed == total_steps && trainer.iteration() == total_steps,
        format!(
            "{executed} executed, trainer at {}, target {total_steps}",
            trainer.iteration()
        ),
    );
    data.check(
        "mirror_commits_trainer_iteration",
        committed_iteration == trainer.iteration(),
        format!(
            "mirror at {committed_iteration}, trainer at {}",
            trainer.iteration()
        ),
    );
    data.check(
        "restarts_resume_bit_identical",
        resumed == restarts,
        format!("{resumed} of {restarts} restarts resumed at the committed iteration with identical weights"),
    );
    let window = (losses.len() / 4).max(1);
    let head = losses[..window].iter().sum::<f32>() / window as f32;
    let tail = losses[losses.len() - window..].iter().sum::<f32>() / window as f32;
    data.check(
        "loss_falls",
        losses.iter().all(|l| l.is_finite()) && tail < head,
        format!("mean loss {head:.4} over the first {window} steps, {tail:.4} over the last"),
    );
    let accuracy = late_correct as f64 / late_served.max(1) as f64;
    data.check(
        "heldout_accuracy",
        accuracy >= ACCURACY_FLOOR,
        format!("{accuracy:.4} served correctly over the second half (floor {ACCURACY_FLOOR})"),
    );
    data.check(
        "every_request_served",
        serving.served == serving.issued,
        format!("{} of {} requests served", serving.served, serving.issued),
    );
    data.failed += serving.issued - serving.served;
    let swaps = serving.swaps();
    data.check(
        "hot_swapped",
        swaps >= 1,
        format!("{swaps} epoch hot swaps"),
    );
    data.check(
        "serves_committed_epoch",
        served_epoch == committed_epoch,
        format!("serving epoch {served_epoch}, committed epoch {committed_epoch}"),
    );
    let p99 = crate::summary::percentile(&data.latency_sim_ms, 0.99);
    data.check(
        "sim_p99_within_limit",
        p99 <= spec.p99_limit_ms,
        format!(
            "sim p99 {p99:.3} ms at {} req/s offered (limit {} ms)",
            spec.offered_rps, spec.p99_limit_ms
        ),
    );

    rss.observe()?;
    data.peak_rss_mb = rss.peak_kib as f64 / 1024.0;
    data.rss_excludes_extra_setups = !rss.reset_refused;
    data.layers.epc_page_swaps = trainer.context().stats().value("sgx.epc_page_swaps") - epc_before;
    data.layers.torn_read_retries = trainer.torn_read_retries();
    data.layers.swaps = swaps;
    data.layers.model_bytes = trainer.network().model_bytes();
    data.layers.largest_tensor_bytes = trainer
        .network()
        .layers()
        .iter()
        .flat_map(|l| l.params())
        .map(|v| v.data.len() * 4)
        .max()
        .unwrap_or(0);
    if tracer.enabled() {
        layer_probes(&trainer, spec, &inputs, tracer)?;
    }
    data.layers.persist = std::mem::take(&mut *deployer.traffic.borrow_mut());
    Ok(data)
}

/// Spans `PmDataset::decrypt_batch` and `Network::train_batch` at the workload's
/// batch, on the run's own PM dataset and a copy of its trained network: the
/// trainer's step makes both calls internally, out of the benchmark's reach.
fn layer_probes(
    trainer: &PliniusTrainer,
    spec: &Spec,
    inputs: &Inputs,
    tracer: &Tracer,
) -> Result<(), PliniusError> {
    const CALLS: usize = 20;
    let ctx = trainer.context();
    let dataset = PmDataset::open(ctx)?;
    let mut network = trainer.network().clone();
    let mut rng = StdRng::seed_from_u64(inputs.probe_seed);
    for _ in 0..CALLS {
        let (images, labels) = {
            let _span = tracer.span("pmdata.decrypt_batch");
            dataset.decrypt_batch(ctx, spec.batch, &mut rng)?
        };
        let _span = tracer.span("darknet.train_batch");
        network
            .train_batch(&images, &labels, spec.batch)
            .map_err(PliniusError::from)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_sizing_meets_the_tail_rule() {
        for w in Workload::ALL {
            let spec = w.spec();
            for seconds in [1, 10, 60] {
                let scale = spec.scale(seconds);
                assert!(
                    spec.sizing_ok(scale.warmup_rounds, scale.rounds),
                    "{}",
                    w.name()
                );
                assert!(scale.warmup_rounds * spec.steps_per_round >= WARMUP_STEPS);
            }
        }
    }

    #[test]
    fn seeds_derive_independent_streams() {
        assert_ne!(derive(1, 1), derive(1, 2));
        assert_ne!(derive(1, 1), derive(2, 1));
        assert_eq!(derive(7, 3), derive(7, 3));
    }
}
