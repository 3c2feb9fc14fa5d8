//! # plinius
//!
//! The core contribution of the paper: a secure and persistent machine-learning training
//! framework that combines **Intel SGX enclaves** (for confidentiality and integrity of
//! models and training data) with **persistent memory** (for near-instantaneous failure
//! recovery). The key mechanism is *mirroring*: after every training iteration the
//! enclave model's parameters are encrypted inside the enclave and synchronised with an
//! encrypted mirror copy that lives in PM, managed through Romulus durable transactions;
//! after a crash the mirror (and the encrypted training data, also resident in PM) is
//! decrypted back into the enclave and training resumes where it left off.
//!
//! Module map (matching Fig. 4 of the paper):
//!
//! * [`mirror`] — the mirroring module: `alloc_mirror_model`, `mirror_out`, `mirror_in`
//!   (Algorithm 3), built on `sgx-romulus`;
//! * [`pmdata`] — the PM-data module: encrypted byte-addressable training data in PM;
//! * [`ssd`] — the baseline: encrypted checkpoints on secondary storage through ocalls;
//! * [`persist`] — the open persistence API: the object-safe [`ModelPersistence`] trait
//!   and its built-in backends (PM mirror, SSD checkpoint, hybrid tiered, no-op, plus a
//!   fault-injecting test wrapper);
//! * [`trainer`] — Algorithm 2 (train + persist loop), the fluent [`PliniusBuilder`],
//!   crash/resume orchestration, and the spot-instance training driver;
//! * [`workflow`] — the full Fig. 5 workflow: remote attestation, key provisioning,
//!   data import, training, inference;
//! * [`knobs`] — the six `PLINIUS_*` runtime knobs in one table.
//!
//! # Example
//!
//! ```
//! use plinius::{PliniusBuilder, PliniusContext, TrainingSetup};
//! use sim_clock::CostModel;
//!
//! // A tiny end-to-end run: 2-layer CNN, synthetic MNIST, mirroring every iteration.
//! let setup = TrainingSetup::small_test();
//! let report = plinius::workflow::run_full_workflow(&setup)?;
//! assert!(report.final_loss.is_finite());
//!
//! // Or drive training directly through the builder (local deployment).
//! let mut trainer = PliniusBuilder::new(TrainingSetup::small_test())
//!     .max_iterations(2)
//!     .build()?;
//! trainer.run()?;
//! # let _ = CostModel::default();
//! # let _ = PliniusContext::small_test(64 * 1024);
//! # Ok::<(), plinius::PliniusError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use plinius_crypto::{AesGcm, CryptoError, Key};
use plinius_darknet::DarknetError;
use plinius_pmem::{PmemError, PmemPool};
use plinius_romulus::{Flavor, Romulus, RomulusError};
use plinius_sgx::{AttestationService, DataOwner, Enclave, SgxError};
use plinius_storage::{SimFileSystem, StorageError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_clock::{ClockHandle, CostModel, SimClock, StatsHandle, StatsRegistry};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

pub mod fleet;
pub mod knobs;
pub mod mirror;
pub mod persist;
pub mod pmdata;
mod sealed;
pub mod serve;
pub mod ssd;
pub mod trainer;
pub mod vfs;
pub mod workflow;

pub use fleet::{
    Fleet, FleetConfig, FleetReport, FleetVfs, TenantReport, DEFAULT_TENANTS, TENANTS_ENV,
};
pub use knobs::{Knob, Knobs, KNOBS};

pub use mirror::{
    MirrorInReport, MirrorModel, MirrorOutReport, PublishReport, DEFAULT_RING_DEPTH, RING_ENV,
};
pub use persist::{
    FaultInjectingBackend, HybridTieredBackend, ModelPersistence, NoOpBackend, PersistStats,
    PersistenceBackend, PmMirrorBackend, SsdCheckpointBackend,
};
pub use pmdata::PmDataset;
pub use serve::{InferenceServer, ServeConfig, ServeReport, ServeSession};
pub use ssd::SsdCheckpointer;
pub use trainer::{
    spot_crash_schedule, train_with_crash_schedule, CrashRunReport, PipelineMode, PliniusBuilder,
    PliniusTrainer, TrainerConfig, TrainingReport, TrainingSetup,
};
pub use vfs::{EpochDiff, MirrorVfs, SealedEpoch, TensorDiff, Vfs, VfsEntry, VfsKind};
pub use workflow::{run_full_workflow, WorkflowReport};

// Crypto engine selection (`PLINIUS_CRYPTO={auto,scalar}`), re-exported so
// deployments can pin the sealing engine without depending on `plinius-crypto`.
pub use plinius_crypto::{hw_available, selected_engine, EngineKind, EnginePolicy, CRYPTO_ENV};
pub use plinius_darknet::{
    avx2_available, avx512_available, fma_available, selected_gemm, GemmKind, GemmPolicy, GEMM_ENV,
};

/// Name under which the model encryption key is stored in the enclave's key store
/// (tenant 0; other tenants use [`tenant_key_name`]).
pub const MODEL_KEY_NAME: &str = "plinius-model-key";

/// The enclave key-store name for a tenant's model key. Tenant 0 keeps the historic
/// [`MODEL_KEY_NAME`] so single-tenant deployments are unchanged.
pub fn tenant_key_name(tenant: TenantId) -> String {
    if tenant.raw() == 0 {
        MODEL_KEY_NAME.to_string()
    } else {
        format!("{}-tenant{}", MODEL_KEY_NAME, tenant.raw())
    }
}

/// Identifies one tenant of a deployment. Each tenant owns a disjoint pair of
/// Romulus roots (its mirror model and its PM dataset), a tenant-scoped enclave
/// key-store slot, and — under the fleet layer — an independently derived sealing
/// key, so tenants are isolated both structurally (crash recovery) and
/// cryptographically (sealed epochs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TenantId(u64);

/// The maximum number of tenants one PM module admits: each tenant consumes two of
/// the [`plinius_romulus::NUM_ROOTS`] Romulus root slots.
pub const MAX_TENANTS: usize = plinius_romulus::NUM_ROOTS / 2;

impl TenantId {
    /// The default single-tenant owner (tenant 0), used by every legacy entry point.
    pub const DEFAULT: TenantId = TenantId(0);

    /// Creates a tenant id.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::InvalidConfig`] if `raw >= MAX_TENANTS` (the Romulus
    /// root directory has room for two roots per tenant).
    pub fn new(raw: u64) -> Result<Self, PliniusError> {
        if raw >= MAX_TENANTS as u64 {
            return Err(PliniusError::InvalidConfig(format!(
                "tenant id {raw} out of range (this PM module admits {MAX_TENANTS} tenants)"
            )));
        }
        Ok(TenantId(raw))
    }

    /// The raw tenant number.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The Romulus root slot holding this tenant's mirror model list head.
    pub fn model_root(self) -> usize {
        self.0 as usize * 2
    }

    /// The Romulus root slot holding this tenant's PM dataset.
    pub fn dataset_root(self) -> usize {
        self.0 as usize * 2 + 1
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Errors produced by the Plinius framework.
#[derive(Debug, Clone, PartialEq)]
pub enum PliniusError {
    /// An error from the cryptographic engine.
    Crypto(CryptoError),
    /// An error from the SGX enclave simulator.
    Sgx(SgxError),
    /// An error from the Romulus persistent transactional memory.
    Romulus(RomulusError),
    /// An error from the persistent-memory simulator.
    Pmem(PmemError),
    /// An error from the neural-network framework.
    Darknet(DarknetError),
    /// An error from the secondary-storage substrate.
    Storage(StorageError),
    /// The enclave does not hold the model encryption key (provision it first).
    KeyNotProvisioned,
    /// No mirror model exists in PM (nothing to restore).
    NoMirrorModel,
    /// The mirror exists but no epoch has been committed yet (the active slot holds
    /// uninitialised bytes until the first mirror-out flips to it), so there is
    /// nothing consistent to serve or restore.
    NoCommittedEpoch,
    /// No training dataset has been loaded into PM.
    NoPmDataset,
    /// The persisted mirror is structurally incompatible with the enclave model.
    MirrorMismatch(String),
    /// The requested epoch is not (or no longer) held in the mirror's bounded ring:
    /// only the `ring_depth` newest committed epochs are retained.
    EpochNotRetained(u64),
    /// The path does not name an entry of the mirror's virtual filesystem.
    VfsPath(String),
    /// A trainer/workflow configuration value is out of its valid range.
    InvalidConfig(String),
    /// A deliberately injected persistence fault (testing only, see
    /// [`persist::FaultInjectingBackend`]).
    InjectedFault(String),
    /// A [`plinius_parallel::Pipeline`] worker died or was misused. Nothing in this
    /// library returns it: the mirror seals on the calling thread. It is kept for
    /// callers that drive a pipeline of their own, such as the benchmark's probe.
    Pipeline(String),
}

impl fmt::Display for PliniusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PliniusError::Crypto(e) => write!(f, "crypto error: {e}"),
            PliniusError::Sgx(e) => write!(f, "sgx error: {e}"),
            PliniusError::Romulus(e) => write!(f, "romulus error: {e}"),
            PliniusError::Pmem(e) => write!(f, "persistent memory error: {e}"),
            PliniusError::Darknet(e) => write!(f, "model error: {e}"),
            PliniusError::Storage(e) => write!(f, "storage error: {e}"),
            PliniusError::KeyNotProvisioned => {
                write!(f, "model key has not been provisioned to the enclave")
            }
            PliniusError::NoMirrorModel => {
                write!(f, "no mirror model present in persistent memory")
            }
            PliniusError::NoCommittedEpoch => {
                write!(
                    f,
                    "the mirror has not committed any epoch yet (train first)"
                )
            }
            PliniusError::NoPmDataset => {
                write!(f, "no training dataset present in persistent memory")
            }
            PliniusError::MirrorMismatch(msg) => write!(f, "mirror model mismatch: {msg}"),
            PliniusError::EpochNotRetained(epoch) => {
                write!(
                    f,
                    "epoch {epoch} is not retained in the mirror's epoch ring"
                )
            }
            PliniusError::VfsPath(path) => {
                write!(f, "no such entry in the mirror VFS: {path}")
            }
            PliniusError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PliniusError::InjectedFault(msg) => write!(f, "injected fault: {msg}"),
            PliniusError::Pipeline(msg) => write!(f, "publish pipeline error: {msg}"),
        }
    }
}

impl Error for PliniusError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PliniusError::Crypto(e) => Some(e),
            PliniusError::Sgx(e) => Some(e),
            PliniusError::Romulus(e) => Some(e),
            PliniusError::Pmem(e) => Some(e),
            PliniusError::Darknet(e) => Some(e),
            PliniusError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CryptoError> for PliniusError {
    fn from(e: CryptoError) -> Self {
        PliniusError::Crypto(e)
    }
}
impl From<SgxError> for PliniusError {
    fn from(e: SgxError) -> Self {
        PliniusError::Sgx(e)
    }
}
impl From<RomulusError> for PliniusError {
    fn from(e: RomulusError) -> Self {
        PliniusError::Romulus(e)
    }
}
impl From<PmemError> for PliniusError {
    fn from(e: PmemError) -> Self {
        PliniusError::Pmem(e)
    }
}
impl From<DarknetError> for PliniusError {
    fn from(e: DarknetError) -> Self {
        PliniusError::Darknet(e)
    }
}
impl From<StorageError> for PliniusError {
    fn from(e: StorageError) -> Self {
        PliniusError::Storage(e)
    }
}

/// Everything one Plinius deployment needs: the enclave, the Romulus engine over the PM
/// pool (running in the `sgx-romulus` flavour), the simulated SSD, and the shared
/// clock/statistics.
///
/// Creating a context corresponds to Algorithm 1: the untrusted helper maps the PM file
/// into the address space and the enclave validates and initialises the persistent
/// regions. Re-opening a context over an existing pool runs Romulus recovery, which is
/// how Plinius resumes after a crash.
#[derive(Debug, Clone)]
pub struct PliniusContext {
    enclave: Enclave,
    romulus: Romulus,
    pool: PmemPool,
    ssd: SimFileSystem,
    cost: CostModel,
    tenant: TenantId,
    /// The tenant-scoped enclave key-store name, precomputed once so steady-state
    /// key lookups on the publish path never allocate.
    key_name: Arc<str>,
}

impl PliniusContext {
    /// Creates a fresh context: a new PM pool of `pm_bytes`, a new enclave, a formatted
    /// Romulus instance and a blank SSD, all wired to one simulation clock.
    ///
    /// # Errors
    ///
    /// Propagates pool-creation and Romulus-formatting errors.
    pub fn create(cost: CostModel, pm_bytes: usize) -> Result<Self, PliniusError> {
        Self::create_with_crypto(cost, pm_bytes, EnginePolicy::from_env())
    }

    /// [`PliniusContext::create`] with the AES-GCM engine policy pinned explicitly
    /// instead of read from `PLINIUS_CRYPTO` (see [`EnginePolicy`]).
    ///
    /// # Errors
    ///
    /// Propagates pool-creation and Romulus-formatting errors.
    pub fn create_with_crypto(
        cost: CostModel,
        pm_bytes: usize,
        crypto: EnginePolicy,
    ) -> Result<Self, PliniusError> {
        let clock = SimClock::new();
        let stats = StatsRegistry::new();
        let pool = PmemPool::builder(pm_bytes)
            .cost_model(cost.clone())
            .clock(Arc::clone(&clock))
            .stats(Arc::clone(&stats))
            .build()?;
        Self::open_with_crypto(pool, cost, crypto)
    }

    /// Opens a context over an existing PM pool (Algorithm 1 after a restart): a *new*
    /// enclave instance is created and Romulus recovery runs over the pool contents.
    ///
    /// The context starts with a blank SSD. To keep the checkpoints of the disk that
    /// survived the restart, carry it over with [`PliniusContext::with_ssd`].
    ///
    /// # Errors
    ///
    /// Propagates Romulus recovery errors.
    pub fn open(pool: PmemPool, cost: CostModel) -> Result<Self, PliniusError> {
        Self::open_with_crypto(pool, cost, EnginePolicy::from_env())
    }

    /// [`PliniusContext::open`] with the AES-GCM engine policy pinned explicitly
    /// instead of read from `PLINIUS_CRYPTO`.
    ///
    /// # Errors
    ///
    /// Propagates Romulus recovery errors.
    pub fn open_with_crypto(
        pool: PmemPool,
        cost: CostModel,
        crypto: EnginePolicy,
    ) -> Result<Self, PliniusError> {
        let clock = pool.clock();
        let stats = pool.stats_registry();
        let ssd = SimFileSystem::with_settings(cost.clone(), clock.clone(), stats.clone());
        let enclave = Enclave::builder(b"plinius-enclave-v1".to_vec())
            .cost_model(cost.clone())
            .clock(clock)
            .stats(stats)
            .crypto_policy(crypto)
            .build();
        // The PM regions take up the pool minus the Romulus header; split evenly.
        let region = (pool.len() - 256) / 2;
        let romulus = Romulus::create(pool.clone(), region, Flavor::Sgx(enclave.clone()))?;
        Ok(PliniusContext {
            enclave,
            romulus,
            pool,
            ssd,
            cost,
            tenant: TenantId::DEFAULT,
            key_name: Arc::from(MODEL_KEY_NAME),
        })
    }

    /// Attaches `disk` as this deployment's SSD in place of the one it was created or
    /// opened with: how a restart, or a replaced PM module, keeps a disk that survived.
    /// The returned context shares `disk`'s files and charges their device costs to
    /// its own clock and statistics.
    #[must_use]
    pub fn with_ssd(mut self, disk: &SimFileSystem) -> Self {
        self.ssd = disk.rebound(self.clock(), self.stats());
        self
    }

    /// A view of the same deployment scoped to `tenant`: shares the enclave, the
    /// Romulus engine, the PM pool, the SSD, the clock and the statistics, but reads
    /// and writes only the tenant's own root pair, key-store slot and checkpoint
    /// paths.
    pub fn for_tenant(&self, tenant: TenantId) -> PliniusContext {
        let mut ctx = self.clone();
        ctx.tenant = tenant;
        ctx.key_name = Arc::from(tenant_key_name(tenant).as_str());
        ctx
    }

    /// The tenant this context is scoped to (tenant 0 unless derived with
    /// [`PliniusContext::for_tenant`]).
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The enclave key-store name of this context's model key.
    pub fn key_name(&self) -> &str {
        &self.key_name
    }

    /// The Romulus root slot of this tenant's mirror model.
    pub fn model_root(&self) -> usize {
        self.tenant.model_root()
    }

    /// The Romulus root slot of this tenant's PM dataset.
    pub fn dataset_root(&self) -> usize {
        self.tenant.dataset_root()
    }

    /// A small context suitable for unit tests and doc examples.
    pub fn small_test(pm_bytes: usize) -> Self {
        Self::create(CostModel::sgx_eml_pm(), pm_bytes).expect("test context")
    }

    /// The simulated enclave.
    pub fn enclave(&self) -> &Enclave {
        &self.enclave
    }

    /// The Romulus engine (sgx-romulus flavour).
    pub fn romulus(&self) -> &Romulus {
        &self.romulus
    }

    /// The underlying persistent-memory pool (kept to reopen the context after a crash).
    pub fn pool(&self) -> &PmemPool {
        &self.pool
    }

    /// The deployment's simulated SSD, which the checkpoint backends write to (kept, like
    /// the pool, to carry it across a restart with [`PliniusContext::with_ssd`]). Its
    /// device costs are charged to this context's clock and statistics.
    pub fn ssd(&self) -> &SimFileSystem {
        &self.ssd
    }

    /// The hardware cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The shared simulation clock.
    pub fn clock(&self) -> ClockHandle {
        self.pool.clock()
    }

    /// The shared statistics registry.
    pub fn stats(&self) -> StatsHandle {
        self.pool.stats_registry()
    }

    /// Provisions the model key directly into the enclave key store. Tests and local
    /// runs use this; production deployments use
    /// [`PliniusContext::provision_key_via_attestation`].
    pub fn provision_key_directly(&self, key: Key) {
        self.enclave.store_key(&self.key_name, key);
    }

    /// Runs the Fig. 5 attestation workflow: the data owner verifies the enclave quote
    /// and, on success, sends the model key over the secure channel.
    ///
    /// # Errors
    ///
    /// Propagates attestation failures from the SGX layer.
    pub fn provision_key_via_attestation(
        &self,
        owner: &DataOwner,
        service: &AttestationService,
    ) -> Result<(), PliniusError> {
        owner
            .provision_key(service, &self.enclave, &self.key_name)
            .map_err(PliniusError::from)
    }

    /// The model encryption key held by the enclave.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::KeyNotProvisioned`] if no key has been provisioned.
    pub fn key(&self) -> Result<Key, PliniusError> {
        self.enclave
            .key(&self.key_name)
            .ok_or(PliniusError::KeyNotProvisioned)
    }

    /// A warm AES-GCM context for this tenant's model key, served from the enclave's
    /// per-key cache ([`plinius_sgx::Enclave::gcm_for_key`]): the key schedule, GHASH
    /// tables and engine selection happen once per provisioned key, not per call.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::KeyNotProvisioned`] if no key has been provisioned.
    pub fn gcm(&self) -> Result<Arc<AesGcm>, PliniusError> {
        self.enclave
            .gcm_for_key(&self.key_name)
            .ok_or(PliniusError::KeyNotProvisioned)
    }

    /// The name of the AES-GCM engine sealing runs on for this context
    /// (`"vaes+vpclmul"`, `"aesni+pclmul"` or `"scalar"`), resolved from the
    /// enclave's crypto policy without requiring a provisioned key.
    pub fn engine_name(&self) -> &'static str {
        self.enclave.crypto_policy().select().name()
    }

    /// An RNG seeded from the enclave's `sgx_read_rand`, used to draw AES-GCM IVs.
    pub fn enclave_rng(&self) -> StdRng {
        let mut seed = [0u8; 8];
        self.enclave.read_rand(&mut seed);
        StdRng::seed_from_u64(u64::from_le_bytes(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_creation_and_key_provisioning() {
        let ctx = PliniusContext::small_test(256 * 1024);
        assert!(matches!(
            ctx.key().unwrap_err(),
            PliniusError::KeyNotProvisioned
        ));
        let mut rng = StdRng::seed_from_u64(1);
        let key = Key::generate_128(&mut rng);
        ctx.provision_key_directly(key.clone());
        assert_eq!(ctx.key().unwrap().as_bytes(), key.as_bytes());
        assert_eq!(ctx.cost_model().profile, sim_clock::ServerProfile::SgxEmlPm);
    }

    #[test]
    fn attestation_based_provisioning_checks_measurement() {
        let ctx = PliniusContext::small_test(256 * 1024);
        let service = AttestationService::new(b"platform".to_vec());
        let mut rng = StdRng::seed_from_u64(2);
        let good_owner = DataOwner::new(Key::generate_128(&mut rng), ctx.enclave().measurement());
        ctx.provision_key_via_attestation(&good_owner, &service)
            .unwrap();
        assert!(ctx.key().is_ok());
        let bad_owner = DataOwner::new(Key::generate_128(&mut rng), [0u8; 32]);
        assert!(ctx
            .provision_key_via_attestation(&bad_owner, &service)
            .is_err());
    }

    #[test]
    fn reopening_a_pool_preserves_persistent_state() {
        let ctx = PliniusContext::small_test(256 * 1024);
        ctx.romulus()
            .transaction(|tx| {
                let p = tx.alloc(8)?;
                tx.write_u64(p, 77)?;
                tx.set_root(5, p)?;
                Ok(())
            })
            .unwrap();
        let pool = ctx.pool().clone();
        drop(ctx);
        let reopened = PliniusContext::open(pool, CostModel::sgx_eml_pm()).unwrap();
        let p = reopened.romulus().root(5).unwrap();
        assert_eq!(reopened.romulus().read_u64(p).unwrap(), 77);
    }

    #[test]
    fn error_conversions_and_display() {
        let err: PliniusError = CryptoError::AuthenticationFailed.into();
        assert!(err.to_string().contains("crypto"));
        let err: PliniusError = RomulusError::InjectedCrash.into();
        assert!(err.to_string().contains("romulus"));
        assert!(PliniusError::NoMirrorModel.to_string().contains("mirror"));
        assert!(PliniusError::KeyNotProvisioned.to_string().contains("key"));
    }
}
