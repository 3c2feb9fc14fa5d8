//! The serving tier (§VI of the paper, ROADMAP item 3): batched secure inference
//! against the *committed* epoch of a live PM mirror.
//!
//! The paper's end goal is a usable trained model: Plinius trains inside the enclave
//! and then classifies held-out data. This module serves that model while training
//! may still be running:
//!
//! * [`InferenceServer`] owns a read-only clone of a [`MirrorModel`] handle plus two
//!   in-enclave network instances. Batches are always answered by the *active*
//!   instance; at batch boundaries the server compares the mirror's committed epoch
//!   against the one it serves and, when training published a newer epoch, restores
//!   it into the *spare* instance and swaps the two — a request is never blocked on
//!   an in-progress restore of its own network, and a half-restored model is never
//!   served.
//! * Consistency comes from the mirror itself: restores go through
//!   [`MirrorModel::mirror_in`]'s seqlock snapshot read (see the [`crate::mirror`]
//!   module docs), so every served batch uses tensors from exactly one committed
//!   epoch, even while the trainer keeps flipping slots.
//! * [`ServeSession`] drives a simulated *open-loop* request stream — exponential
//!   inter-arrival gaps at a configurable rate, request payloads drawn by simulated
//!   users from a reference dataset — batching pending requests and recording
//!   per-request latency (batch completion minus arrival, on the sim-clock) into a
//!   [`LatencyHistogram`]. The stream is a pure function of the [`ServeConfig`]
//!   seed, so twin runs are bit-identical.

use crate::mirror::MirrorModel;
use crate::{PliniusContext, PliniusError};
use plinius_darknet::{Dataset, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_clock::{LatencyHistogram, LatencySummary};
use std::collections::VecDeque;

/// Forward-only inference is roughly a third of the forward+backward FLOPs that
/// [`Network::flops_per_sample`] models (one forward pass instead of forward +
/// backward, with backward ≈ 2× forward).
const BACKWARD_TO_FORWARD_RATIO: u64 = 3;

/// FNV-1a offset basis (the prediction-stream hash is order-sensitive on purpose).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one `u64` into an FNV-1a running hash, byte by byte.
fn fnv_fold(mut hash: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A batched secure-inference server over one live PM mirror.
///
/// The server holds its own cold [`MirrorModel`] clone (own working state, same
/// persistent model), so restores never wait on the trainer's handle,
/// and two network instances so an epoch hot-swap never blocks classification on a
/// half-restored model.
#[derive(Debug)]
pub struct InferenceServer {
    ctx: PliniusContext,
    mirror: MirrorModel,
    active: Network,
    spare: Network,
    epoch: u64,
    iteration: u64,
    swaps: u64,
}

impl InferenceServer {
    /// Attaches a server to `mirror`, restoring the committed epoch into a clone of
    /// `template` (which provides the network architecture and the batch sizing of
    /// the layer buffers — the maximum batch the server accepts).
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::NoCommittedEpoch`] when no mirror-out has committed
    /// yet (the active slot holds uninitialised bytes until the first epoch flip),
    /// [`PliniusError::KeyNotProvisioned`] without a model key, and restore errors.
    pub fn new(
        ctx: &PliniusContext,
        mirror: MirrorModel,
        template: &Network,
    ) -> Result<Self, PliniusError> {
        if mirror.epoch(ctx)? == 0 {
            return Err(PliniusError::NoCommittedEpoch);
        }
        let mut active = template.clone();
        let report = mirror.mirror_in(ctx, &mut active)?;
        Ok(InferenceServer {
            ctx: ctx.clone(),
            mirror,
            spare: template.clone(),
            active,
            epoch: report.epoch,
            iteration: report.iteration,
            swaps: 0,
        })
    }

    /// The committed epoch currently being served.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The training iteration of the served epoch.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Number of epoch hot-swaps performed since the server was created.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// The GEMM engine the serving networks classify on (inherited from the
    /// template network at construction, hot-swaps included — both instances are
    /// clones of the template).
    pub fn gemm_engine(&self) -> plinius_darknet::GemmKind {
        self.active.gemm_engine()
    }

    /// Largest batch one [`InferenceServer::classify_batch`] call accepts (the layer
    /// buffers of the serving networks are sized for it).
    pub fn max_batch(&self) -> usize {
        self.active.config().batch
    }

    /// Checks the mirror for a newer committed epoch and hot-swaps it in: the epoch
    /// is restored into the spare network instance (through the seqlock snapshot
    /// read) and the instances are swapped. Returns whether a swap happened. Called
    /// automatically at every batch boundary; exposed for callers that want to
    /// pre-warm before a traffic burst.
    ///
    /// # Errors
    ///
    /// Propagates restore errors; the served model is unchanged on error.
    pub fn refresh(&mut self) -> Result<bool, PliniusError> {
        if self.mirror.epoch(&self.ctx)? == self.epoch {
            return Ok(false);
        }
        // The epoch moved. The restore re-runs the full snapshot protocol, so the
        // epoch it installs is whatever is committed by the time it completes.
        let report = self.mirror.mirror_in(&self.ctx, &mut self.spare)?;
        std::mem::swap(&mut self.active, &mut self.spare);
        self.epoch = report.epoch;
        self.iteration = report.iteration;
        self.swaps += 1;
        Ok(true)
    }

    /// Classifies a batch of `count = input.len() / inputs` samples against the
    /// served epoch, returning the predicted class index per sample. Refreshes the
    /// epoch at the batch boundary first, then answers the whole batch from one
    /// model — a batch never mixes epochs.
    ///
    /// Costs are charged to the sim-clock like training is: one ecall, the input
    /// staging copy, and the forward-pass FLOPs (≈ ⅓ of the modeled
    /// forward+backward cost per sample).
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::InvalidConfig`] for an empty or oversized batch (or
    /// an input length that is not a multiple of the model's input size), plus any
    /// refresh error.
    pub fn classify_batch(&mut self, input: &[f32]) -> Result<Vec<usize>, PliniusError> {
        let inputs = self.active.config().inputs();
        if input.is_empty() || !input.len().is_multiple_of(inputs) {
            return Err(PliniusError::InvalidConfig(format!(
                "batch input length {} is not a positive multiple of the model input size {inputs}",
                input.len()
            )));
        }
        let count = input.len() / inputs;
        if count > self.max_batch() {
            return Err(PliniusError::InvalidConfig(format!(
                "batch of {count} exceeds the server's layer-buffer batch {}",
                self.max_batch()
            )));
        }
        self.refresh()?;
        let flops = self.active.flops_per_sample() / BACKWARD_TO_FORWARD_RATIO;
        let active = &mut self.active;
        let enclave = self.ctx.enclave();
        let predictions = enclave.ecall(|| {
            enclave.charge_data_staging((input.len() * 4) as u64);
            enclave.charge_compute(flops * count as u64);
            active.classify(input, count)
        })?;
        Ok(predictions)
    }
}

/// Knobs of one simulated open-loop serving run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Requests the server batches together (capped by the model's layer-buffer
    /// batch). The session waits until a full batch has *arrived* before serving
    /// it, except for the final partial batch of the run.
    pub batch: usize,
    /// Mean inter-arrival gap between requests in simulated nanoseconds
    /// (exponentially distributed; the arrival rate is `1e9 / arrival_ns`
    /// requests/s). Zero means all requests arrive at once.
    pub arrival_ns: u64,
    /// Total number of simulated requests.
    pub requests: u64,
    /// Seed of the request stream (arrival gaps and payload choice).
    pub seed: u64,
}

/// One pending simulated request: when it arrived and which sample its user sent.
#[derive(Debug, Clone, Copy)]
struct Request {
    arrival_ns: u64,
    sample: usize,
}

/// Result digest of a completed (or in-progress) serving run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeReport {
    /// Requests served.
    pub served: u64,
    /// Requests whose prediction matched the reference label.
    pub correct: u64,
    /// Batches executed.
    pub batches: u64,
    /// Epoch hot-swaps performed while serving.
    pub swaps: u64,
    /// The committed epoch served last.
    pub final_epoch: u64,
    /// Per-request latency digest (batch completion minus arrival, sim-clock).
    pub latency: LatencySummary,
    /// Simulated time between the first arrival and the last batch completion.
    pub wall_ns: u64,
    /// Order-sensitive FNV-1a hash over `(sample, prediction)` of every served
    /// request — two runs served identical results iff the hashes match.
    pub predictions_hash: u64,
}

impl ServeReport {
    /// Served throughput in requests per simulated second.
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.served as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// Fraction of served requests classified correctly.
    pub fn accuracy(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.correct as f64 / self.served as f64
        }
    }
}

/// An incremental open-loop serving run: millions of simulated users send samples
/// drawn from a reference dataset at a configured arrival rate; the session batches
/// them, classifies through an [`InferenceServer`], and accounts per-request
/// latency on the sim-clock.
///
/// The session is *pump-driven* so callers can interleave it with other simulated
/// work — the serve-while-training scenario alternates training steps with
/// [`ServeSession::pump_one_batch`] calls against the same PM pool.
#[derive(Debug)]
pub struct ServeSession {
    server: InferenceServer,
    config: ServeConfig,
    dataset: Dataset,
    rng: StdRng,
    /// Sim-time at which the next generated request arrives.
    next_arrival_ns: u64,
    /// Arrivals generated so far (≤ `config.requests`).
    issued: u64,
    pending: VecDeque<Request>,
    /// Reusable batch staging buffer (`batch × inputs`).
    staging: Vec<f32>,
    hist: LatencyHistogram,
    served: u64,
    correct: u64,
    batches: u64,
    first_arrival_ns: Option<u64>,
    last_completion_ns: u64,
    predictions_hash: u64,
}

impl ServeSession {
    /// Creates a session over `server`, with request payloads drawn uniformly from
    /// `dataset` (its labels are the accuracy reference). Arrivals start at the
    /// sim-clock's *current* time.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::InvalidConfig`] when the dataset is empty, the batch
    /// knob is zero or exceeds [`InferenceServer::max_batch`], or the request count
    /// is zero.
    pub fn new(
        server: InferenceServer,
        dataset: Dataset,
        config: ServeConfig,
    ) -> Result<Self, PliniusError> {
        if dataset.is_empty() {
            return Err(PliniusError::InvalidConfig(
                "serving needs a non-empty reference dataset".into(),
            ));
        }
        if config.batch == 0 || config.batch > server.max_batch() {
            return Err(PliniusError::InvalidConfig(format!(
                "serve batch {} must be in 1..={}",
                config.batch,
                server.max_batch()
            )));
        }
        if config.requests == 0 {
            return Err(PliniusError::InvalidConfig(
                "a serving run needs at least one request".into(),
            ));
        }
        let staging = vec![0.0; config.batch * dataset.inputs()];
        let next_arrival_ns = server.ctx.clock().now_ns();
        Ok(ServeSession {
            server,
            config,
            dataset,
            rng: StdRng::seed_from_u64(config.seed),
            next_arrival_ns,
            issued: 0,
            pending: VecDeque::new(),
            staging,
            hist: LatencyHistogram::new(),
            served: 0,
            correct: 0,
            batches: 0,
            first_arrival_ns: None,
            last_completion_ns: 0,
            predictions_hash: FNV_OFFSET,
        })
    }

    /// Whether every configured request has been served.
    pub fn is_done(&self) -> bool {
        self.served == self.config.requests
    }

    /// The server driven by this session.
    pub fn server(&self) -> &InferenceServer {
        &self.server
    }

    /// Generates the next arrival: an exponential gap after the previous one, with a
    /// uniformly drawn payload sample.
    fn generate_arrival(&mut self) -> Request {
        // Inverse-transform sampling over (0, 1]; the offset keeps ln finite.
        let u: f64 = 1.0 - self.rng.gen_range(0.0f64..1.0);
        let gap = (-u.ln() * self.config.arrival_ns as f64).round() as u64;
        self.next_arrival_ns += gap;
        self.issued += 1;
        Request {
            arrival_ns: self.next_arrival_ns,
            sample: self.rng.gen_range(0..self.dataset.len()),
        }
    }

    /// Serves the next batch: waits (in simulated time) until a full batch has
    /// arrived — or until the final partial batch of the run is complete — then
    /// classifies it and records one latency sample per request. Returns `false`
    /// when all requests were already served.
    ///
    /// # Errors
    ///
    /// Propagates refresh/classification errors; no request is recorded as served
    /// on error.
    pub fn pump_one_batch(&mut self) -> Result<bool, PliniusError> {
        if self.is_done() {
            return Ok(false);
        }
        while self.pending.len() < self.config.batch && self.issued < self.config.requests {
            let req = self.generate_arrival();
            self.first_arrival_ns.get_or_insert(req.arrival_ns);
            self.pending.push_back(req);
        }
        let take = self.pending.len().min(self.config.batch);
        let clock = self.server.ctx.clock();
        // Open loop: the batch can only start once its last request has arrived.
        let batch_ready_ns = self.pending[take - 1].arrival_ns;
        clock.advance_to(batch_ready_ns);
        let inputs = self.dataset.inputs();
        for (i, req) in self.pending.iter().take(take).enumerate() {
            self.staging[i * inputs..(i + 1) * inputs]
                .copy_from_slice(self.dataset.image(req.sample));
        }
        let predictions = self.server.classify_batch(&self.staging[..take * inputs])?;
        let completion_ns = clock.now_ns();
        for (req, prediction) in self.pending.drain(..take).zip(predictions) {
            self.hist
                .record(completion_ns.saturating_sub(req.arrival_ns));
            if prediction == self.dataset.label_index(req.sample) {
                self.correct += 1;
            }
            self.predictions_hash = fnv_fold(self.predictions_hash, req.sample as u64);
            self.predictions_hash = fnv_fold(self.predictions_hash, prediction as u64);
            self.served += 1;
        }
        self.batches += 1;
        self.last_completion_ns = completion_ns;
        Ok(true)
    }

    /// Pumps batches until every configured request has been served.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ServeSession::pump_one_batch`] error.
    pub fn run(&mut self) -> Result<ServeReport, PliniusError> {
        while self.pump_one_batch()? {}
        Ok(self.report())
    }

    /// The digest of everything served so far.
    pub fn report(&self) -> ServeReport {
        ServeReport {
            served: self.served,
            correct: self.correct,
            batches: self.batches,
            swaps: self.server.swaps(),
            final_epoch: self.server.epoch(),
            latency: self.hist.summary(),
            wall_ns: self
                .last_completion_ns
                .saturating_sub(self.first_arrival_ns.unwrap_or(self.last_completion_ns)),
            predictions_hash: self.predictions_hash,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::PersistenceBackend;
    use crate::trainer::{PliniusBuilder, TrainingSetup};

    /// A trained-for-a-few-iterations deployment plus a serving dataset.
    fn trained_deployment() -> (crate::PliniusContext, MirrorModel, Network, Dataset) {
        let mut setup = TrainingSetup::small_test();
        setup.backend = PersistenceBackend::PmMirror;
        setup.trainer.max_iterations = 4;
        setup.trainer.mirror_frequency = 2;
        let template = setup.build_network().expect("template network");
        let dataset = setup.dataset.clone();
        let mut trainer = PliniusBuilder::new(setup).build().expect("trainer");
        trainer.run().expect("training");
        let mirror = trainer.mirror_handle().expect("pm-mirror backend");
        (trainer.context().clone(), mirror, template, dataset)
    }

    #[test]
    fn server_refuses_a_mirror_with_no_committed_epoch() {
        let mut setup = TrainingSetup::small_test();
        setup.backend = PersistenceBackend::PmMirror;
        let template = setup.build_network().expect("template network");
        let trainer = PliniusBuilder::new(setup).build().expect("trainer");
        // build() prepared (allocated) the mirror, but nothing was published yet:
        // the mirror is still at epoch 0 and its active slot holds garbage.
        let mirror = trainer.mirror_handle().expect("mirror allocated");
        let err = InferenceServer::new(trainer.context(), mirror, &template).unwrap_err();
        assert_eq!(err, PliniusError::NoCommittedEpoch);
    }

    #[test]
    fn server_serves_the_committed_epoch_and_matches_trainer_accuracy() {
        let (ctx, mirror, template, dataset) = trained_deployment();
        let mut server = InferenceServer::new(&ctx, mirror, &template).expect("server");
        assert!(server.epoch() > 0);
        assert_eq!(server.iteration(), 4);
        // Classify the whole dataset through the server, batch by batch.
        let inputs = dataset.inputs();
        let batch = server.max_batch();
        let mut correct = 0usize;
        let mut staged = Vec::new();
        let mut members = Vec::new();
        for i in 0..dataset.len() {
            staged.extend_from_slice(dataset.image(i));
            members.push(i);
            if members.len() == batch || i + 1 == dataset.len() {
                let preds = server.classify_batch(&staged).expect("classification");
                assert_eq!(preds.len(), members.len());
                for (m, p) in members.iter().zip(&preds) {
                    if *p == dataset.label_index(*m) {
                        correct += 1;
                    }
                }
                staged.clear();
                members.clear();
            }
            let _ = inputs;
        }
        // The served weights are the committed epoch of the trained model, so the
        // server's accuracy over the training set is the model's own.
        let mut reference = template.clone();
        server
            .mirror
            .mirror_in(&ctx, &mut reference)
            .expect("reference restore");
        assert!(
            (reference.accuracy(&dataset) - correct as f32 / dataset.len() as f32).abs() < 1e-6
        );
        assert_eq!(server.swaps(), 0, "no new epochs were published");
    }

    #[test]
    fn classify_batch_rejects_bad_inputs() {
        let (ctx, mirror, template, dataset) = trained_deployment();
        let mut server = InferenceServer::new(&ctx, mirror, &template).expect("server");
        assert!(matches!(
            server.classify_batch(&[]),
            Err(PliniusError::InvalidConfig(_))
        ));
        let oversized = vec![0.0; (server.max_batch() + 1) * dataset.inputs()];
        assert!(matches!(
            server.classify_batch(&oversized),
            Err(PliniusError::InvalidConfig(_))
        ));
        let ragged = vec![0.0; dataset.inputs() + 1];
        assert!(matches!(
            server.classify_batch(&ragged),
            Err(PliniusError::InvalidConfig(_))
        ));
    }

    #[test]
    fn open_loop_session_reports_latency_and_throughput() {
        let (ctx, mirror, template, dataset) = trained_deployment();
        let server = InferenceServer::new(&ctx, mirror, &template).expect("server");
        let batch = server.max_batch().min(8);
        let mut session = ServeSession::new(
            server,
            dataset,
            ServeConfig {
                batch,
                arrival_ns: 50_000,
                requests: 100,
                seed: 9,
            },
        )
        .expect("session");
        let report = session.run().expect("serving run");
        assert_eq!(report.served, 100);
        assert_eq!(report.batches, 100_u64.div_ceil(batch as u64));
        assert!(report.latency.count == 100);
        assert!(report.latency.p99_ns >= report.latency.p50_ns);
        assert!(report.wall_ns > 0);
        assert!(report.throughput_rps() > 0.0);
        assert!(session.is_done());
        assert!(!session.pump_one_batch().expect("idempotent when done"));
    }

    #[test]
    fn identical_seeds_produce_identical_serving_runs() {
        let mut hashes = Vec::new();
        for _ in 0..2 {
            let (ctx, mirror, template, dataset) = trained_deployment();
            let server = InferenceServer::new(&ctx, mirror, &template).expect("server");
            let batch = server.max_batch().min(4);
            let mut session = ServeSession::new(
                server,
                dataset,
                ServeConfig {
                    batch,
                    arrival_ns: 20_000,
                    requests: 64,
                    seed: 41,
                },
            )
            .expect("session");
            let report = session.run().expect("serving run");
            hashes.push((report.predictions_hash, report.correct, report.final_epoch));
        }
        assert_eq!(hashes[0], hashes[1]);
    }

    #[test]
    fn session_rejects_invalid_configs() {
        let (ctx, mirror, template, dataset) = trained_deployment();
        let server = InferenceServer::new(&ctx, mirror.clone(), &template).expect("server");
        let max = server.max_batch();
        assert!(matches!(
            ServeSession::new(
                server,
                dataset.clone(),
                ServeConfig {
                    batch: max + 1,
                    arrival_ns: 1,
                    requests: 1,
                    seed: 0
                }
            ),
            Err(PliniusError::InvalidConfig(_))
        ));
        let server = InferenceServer::new(&ctx, mirror, &template).expect("server");
        assert!(matches!(
            ServeSession::new(
                server,
                dataset,
                ServeConfig {
                    batch: 1,
                    arrival_ns: 1,
                    requests: 0,
                    seed: 0
                }
            ),
            Err(PliniusError::InvalidConfig(_))
        ));
    }
}
