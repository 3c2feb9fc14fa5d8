//! The full Plinius workflow of Fig. 5: the model/dataset owner ships the application and
//! encrypted data to the untrusted server, attests the enclave, provisions the encryption
//! key over the secure channel, the PM-data module moves the data into byte-addressable
//! PM, and training proceeds with mirroring — followed by secure inference with the
//! trained model.

use crate::persist::PersistStats;
use crate::pmdata::PmDataset;
use crate::trainer::{PipelineMode, PliniusBuilder, TrainingSetup};
use crate::{PliniusContext, PliniusError, TenantId};
use plinius_crypto::Key;
use plinius_sgx::{AttestationService, DataOwner};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Outcome of one end-to-end workflow run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowReport {
    /// The tenant the workflow ran as (tenant 0 for single-tenant deployments;
    /// fleet runs report one tenant per job, see [`crate::FleetReport`]).
    pub tenant: TenantId,
    /// Whether remote attestation succeeded before any key left the owner.
    pub attestation_ok: bool,
    /// Loss after the final training iteration.
    pub final_loss: f32,
    /// The model's final iteration counter.
    pub final_iteration: u64,
    /// Classification accuracy on the held-out test split (secure inference, §VI).
    pub test_accuracy: f32,
    /// Encrypted bytes of training data resident in PM.
    pub pm_dataset_bytes: usize,
    /// Simulated nanoseconds for the whole workflow.
    pub simulated_ns: u64,
    /// Label of the persistence backend that protected the model.
    pub backend: String,
    /// How persists were scheduled (inline or overlapped with compute).
    pub pipeline: PipelineMode,
    /// Activity counters of the persistence backend, including the pipeline's
    /// snapshot/publish counts and the simulated overlap wait.
    pub persist_stats: PersistStats,
    /// Torn snapshot reads retried by mirror readers during the run — the
    /// `mirror.torn_read_retries` statistic. Non-zero values mean concurrent
    /// serve-vs-train races were detected (and resolved) by the seqlock protocol.
    pub torn_read_retries: u64,
    /// Name of the AES-GCM engine the deployment sealed with (`"vaes+vpclmul"`,
    /// `"aesni+pclmul"` or `"scalar"`), as resolved from the enclave's crypto policy.
    pub engine: &'static str,
    /// Name of the GEMM engine the training hot path ran on (`"avx512"`, `"avx2"`,
    /// `"avx512+fma"`, `"avx2+fma"` or `"scalar"`), as resolved from
    /// the trainer's GEMM policy against the host CPU.
    pub gemm_engine: &'static str,
}

impl WorkflowReport {
    /// Simulated milliseconds the training lane spent waiting for pipelined
    /// publishes at their joins (zero in [`PipelineMode::Sync`], or when compute
    /// fully hides the simulated sealing).
    pub fn overlap_wait_ms(&self) -> f64 {
        self.persist_stats.overlap_wait_ns as f64 / 1e6
    }
}

/// Runs the complete Fig. 5 workflow for the given setup:
///
/// 1. the owner generates the model key and encrypts the dataset (owner side);
/// 2. remote attestation of the enclave and key provisioning over the secure channel;
/// 3. the PM-data module loads the encrypted training data into PM;
/// 4. training with per-iteration mirroring until `max_iterations`;
/// 5. secure inference: accuracy on a held-out split.
///
/// # Errors
///
/// Propagates any attestation, data-loading, training or inference error.
pub fn run_full_workflow(setup: &TrainingSetup) -> Result<WorkflowReport, PliniusError> {
    // ➊ The owner prepares the deployment: key + expected enclave measurement.
    let mut owner_rng = StdRng::seed_from_u64(setup.trainer.seed ^ OWNER_SEED_SALT);
    let model_key = Key::generate_128(&mut owner_rng);
    let ctx = PliniusContext::create(setup.cost.clone(), setup.pm_bytes)?;
    let owner = DataOwner::new(model_key, ctx.enclave().measurement());
    let service = AttestationService::new(b"plinius-platform".to_vec());

    // ➋/➌ Remote attestation and key provisioning over the secure channel.
    ctx.provision_key_via_attestation(&owner, &service)?;
    let attestation_ok = ctx.key().is_ok();

    // Hold out a test split for the inference step (as the paper does with MNIST's
    // 10'000 test images).
    let train_count = (setup.dataset.len() * 5) / 6;
    let (train_split, test_split) = setup.dataset.split(train_count.max(1));

    // ➍ The PM-data module turns the encrypted on-disk data into encrypted
    // byte-addressable data in PM.
    PmDataset::load(&ctx, &train_split)?;
    let pm = PmDataset::open(&ctx)?;
    let pm_dataset_bytes = pm.pm_bytes();

    // ➎–➐ Training with the configured persistence backend (mirroring by default).
    let clock = ctx.clock();
    let mut trainer = PliniusBuilder::new(setup.clone())
        .context(ctx)
        .plain_data(train_split)
        .build()?;
    let report = trainer.run()?;

    // Secure inference on the held-out split.
    let test_accuracy = trainer.accuracy(&test_split);

    Ok(WorkflowReport {
        tenant: trainer.context().tenant(),
        attestation_ok,
        final_loss: report.final_loss().unwrap_or(f32::NAN),
        final_iteration: report.final_iteration,
        test_accuracy,
        pm_dataset_bytes,
        simulated_ns: clock.now_ns(),
        backend: trainer.backend().label().to_owned(),
        pipeline: setup.trainer.pipeline,
        persist_stats: trainer.persist_stats(),
        torn_read_retries: trainer.torn_read_retries(),
        engine: trainer.context().engine_name(),
        gemm_engine: trainer.network().gemm_engine().name(),
    })
}

/// Salt mixed into the owner's RNG seed so owner-side and enclave-side randomness differ.
const OWNER_SEED_SALT: u64 = 0x6f77_6e65_7200;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_workflow_trains_and_infers() {
        let mut setup = TrainingSetup::small_test();
        setup.trainer.max_iterations = 15;
        let report = run_full_workflow(&setup).unwrap();
        assert_eq!(report.tenant, TenantId::DEFAULT);
        assert!(report.attestation_ok);
        assert_eq!(report.final_iteration, 15);
        assert!(report.final_loss.is_finite());
        assert!(report.test_accuracy >= 0.0 && report.test_accuracy <= 1.0);
        assert!(report.pm_dataset_bytes > 0);
        assert!(report.simulated_ns > 0);
        assert_eq!(report.backend, "pm-mirror");
        assert_eq!(report.pipeline, setup.trainer.pipeline);
        assert_eq!(report.persist_stats.persists, 15);
        assert!(report.persist_stats.persisted_bytes > 0);
        // In overlapped mode every persist goes through a snapshot; in sync mode
        // none does. Either way the committed publish count matches the persists.
        assert_eq!(report.persist_stats.publishes, 15);
        match report.pipeline {
            PipelineMode::Sync => assert_eq!(report.persist_stats.snapshots, 0),
            PipelineMode::Overlapped => assert_eq!(report.persist_stats.snapshots, 15),
        }
        assert!(report.overlap_wait_ms() >= 0.0);
        // No inference server races this single-lane run, so the seqlock never
        // observes a torn snapshot — the plumbed counter must read zero.
        assert_eq!(report.torn_read_retries, 0);
        // Engine labels come from the resolved policies: the crypto label is the
        // engine the trainer's policy selects on this host.
        assert_eq!(report.engine, setup.trainer.crypto.select().name());
        assert!(
            ["avx512", "avx512+fma", "avx2", "avx2+fma", "scalar"].contains(&report.gemm_engine)
        );
    }

    #[test]
    fn longer_training_improves_the_loss() {
        // Momentum 0 makes this tiny setup converge smoothly and monotonically
        // (with the default momentum=0.9 + lr=0.1 it sits on a stability edge
        // and can overshoot after converging, which made this assertion flaky
        // against any change in the batch stream). A couple of iterations stay
        // at the ~ln(10) random-guess plateau; 150 reach near-zero loss.
        let stable = |iters: u64| {
            let mut s = TrainingSetup::small_test();
            s.model_config = plinius_darknet::mnist_cnn_config_with_momentum(2, 4, 8, 0.0);
            s.trainer.max_iterations = iters;
            s
        };
        let short_report = run_full_workflow(&stable(2)).unwrap();
        let long_report = run_full_workflow(&stable(150)).unwrap();
        assert!(
            long_report.final_loss < short_report.final_loss - 1.0,
            "loss did not improve decisively: {} -> {}",
            short_report.final_loss,
            long_report.final_loss
        );
        assert!(long_report.test_accuracy > 0.9);
    }
}
