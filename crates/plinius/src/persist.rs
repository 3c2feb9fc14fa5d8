//! The open persistence API: an object-safe [`ModelPersistence`] trait that the trainer
//! drives through a `Box<dyn ModelPersistence>`, plus the built-in backends.
//!
//! The paper's core comparison (Fig. 7–10, Table I) is *PM mirroring vs SSD
//! checkpointing vs no persistence*. Instead of hard-coding that three-way choice into
//! the trainer, every persistence medium is an implementation of [`ModelPersistence`]:
//!
//! * [`PmMirrorBackend`] — Plinius' mirroring mechanism (encrypted mirror copies on PM,
//!   Algorithm 3);
//! * [`SsdCheckpointBackend`] — the baseline: encrypted checkpoints on a (simulated)
//!   SSD, written through `fwrite`/`fsync` ocalls;
//! * [`HybridTieredBackend`] — a tiered scheme the paper motivates but never builds:
//!   mirror to PM on every persist, and *demote* an encrypted checkpoint to the SSD
//!   at least every k iterations so the model survives even the loss of the PM module;
//! * [`NoOpBackend`] — no persistence (the "non-crash-resilient system" of Fig. 9b /
//!   Fig. 10c);
//! * [`FaultInjectingBackend`] — a test wrapper that fails the Nth persist/restore of
//!   any inner backend, used to prove that trainer errors propagate cleanly.
//!
//! New backends (async batching, remote replication, …) are one `impl ModelPersistence`
//! plus a [`PliniusBuilder::backend`](crate::PliniusBuilder::backend) call — no trainer
//! changes required.

use crate::mirror::{MirrorModel, PublishReport};
use crate::ssd::SsdCheckpointer;
use crate::{PliniusContext, PliniusError};
use plinius_darknet::Network;

/// Cumulative activity counters of one [`ModelPersistence`] backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Number of committed persist operations (synchronous `persist` calls plus
    /// pipelined publishes committed at a drain point).
    pub persists: u64,
    /// Number of successful `restore` calls.
    pub restores: u64,
    /// Plaintext model bytes written out across all persists.
    pub persisted_bytes: u64,
    /// Plaintext model bytes read back across all restores.
    pub restored_bytes: u64,
    /// Number of snapshot phases staged by [`ModelPersistence::persist_async`]
    /// (zero for backends without a pipelined path).
    pub snapshots: u64,
    /// Number of publish phases committed (every synchronous persist publishes
    /// immediately; a pipelined snapshot publishes at the next join).
    pub publishes: u64,
    /// Simulated nanoseconds the training lane had to *wait* for pipelined
    /// publishes at their join points — the part of the simulated sealing work that
    /// was not hidden behind compute. Zero in synchronous mode and when compute
    /// fully covers the mirror cost.
    pub overlap_wait_ns: u64,
}

impl PersistStats {
    /// Component-wise sum of two counters (used by composite backends).
    pub fn merged(self, other: PersistStats) -> PersistStats {
        PersistStats {
            persists: self.persists + other.persists,
            restores: self.restores + other.restores,
            persisted_bytes: self.persisted_bytes + other.persisted_bytes,
            restored_bytes: self.restored_bytes + other.restored_bytes,
            snapshots: self.snapshots + other.snapshots,
            publishes: self.publishes + other.publishes,
            overlap_wait_ns: self.overlap_wait_ns + other.overlap_wait_ns,
        }
    }
}

/// Where (and how) the enclave model is persisted during training.
///
/// The trait is object-safe: the trainer holds a `Box<dyn ModelPersistence>` and never
/// needs to know which medium it is talking to. A backend's lifecycle under the trainer
/// is:
///
/// 1. at construction, [`exists`](ModelPersistence::exists) is consulted once;
/// 2. if a persisted model exists, [`restore`](ModelPersistence::restore) is called to
///    load it into the enclave model; otherwise [`prepare`](ModelPersistence::prepare)
///    is called so the backend can set up whatever it needs (e.g. allocate the PM
///    mirror);
/// 3. during training, [`persist`](ModelPersistence::persist) is called after every
///    `mirror_frequency`-th iteration.
///
/// # Example: a custom backend
///
/// ```
/// use plinius::persist::{ModelPersistence, PersistStats};
/// use plinius::{PliniusBuilder, PliniusContext, PliniusError, TrainingSetup};
/// use plinius_darknet::Network;
///
/// /// Counts persists but stores nothing (a fancier `NoOpBackend`).
/// #[derive(Debug, Default)]
/// struct Counting {
///     persists: u64,
/// }
///
/// impl ModelPersistence for Counting {
///     fn label(&self) -> &str {
///         "counting"
///     }
///     fn exists(&self, _ctx: &PliniusContext) -> bool {
///         false
///     }
///     fn restore(
///         &mut self,
///         _ctx: &PliniusContext,
///         _network: &mut Network,
///     ) -> Result<u64, PliniusError> {
///         Err(PliniusError::NoMirrorModel)
///     }
///     fn persist(
///         &mut self,
///         _ctx: &PliniusContext,
///         _network: &Network,
///         _iteration: u64,
///     ) -> Result<(), PliniusError> {
///         self.persists += 1;
///         Ok(())
///     }
///     fn persist_stats(&self) -> PersistStats {
///         PersistStats {
///             persists: self.persists,
///             ..PersistStats::default()
///         }
///     }
/// }
///
/// let mut trainer = PliniusBuilder::new(TrainingSetup::small_test())
///     .backend(Counting::default())
///     .max_iterations(3)
///     .build()?;
/// trainer.run()?;
/// assert_eq!(trainer.persist_stats().persists, 3);
/// # Ok::<(), PliniusError>(())
/// ```
pub trait ModelPersistence: std::fmt::Debug {
    /// Short human-readable name of the backend (used in reports and logs).
    fn label(&self) -> &str;

    /// Whether this backend holds a committed model it can restore. A PM mirror allocated
    /// before its first publish answers `true`, and its `restore` then returns
    /// [`PliniusError::NoCommittedEpoch`], which the builder treats as `false`.
    fn exists(&self, ctx: &PliniusContext) -> bool;

    /// One-time setup when training starts from scratch (no persisted model found).
    /// The default does nothing.
    ///
    /// # Errors
    ///
    /// Propagates backend-specific allocation errors.
    fn prepare(&mut self, _ctx: &PliniusContext, _network: &Network) -> Result<(), PliniusError> {
        Ok(())
    }

    /// Restores the persisted model into `network` (including its iteration counter) and
    /// returns the restored iteration. An `Ok` has overwritten every parameter tensor:
    /// the builder restores into a network whose weights are still zero and draws
    /// initial weights only when nothing was restored.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::NoCommittedEpoch`] when nothing was committed yet (the
    /// builder then starts a fresh model), and propagates decryption/authentication,
    /// shape-mismatch and media errors.
    fn restore(&mut self, ctx: &PliniusContext, network: &mut Network)
        -> Result<u64, PliniusError>;

    /// Persists the current state of `network` at `iteration`.
    ///
    /// # Errors
    ///
    /// Propagates encryption and media errors.
    fn persist(
        &mut self,
        ctx: &PliniusContext,
        network: &Network,
        iteration: u64,
    ) -> Result<(), PliniusError>;

    /// Pipelined persist: stage a cheap snapshot of `network` now and defer the
    /// expensive seal and publish to the next `persist_async` or
    /// [`drain`](ModelPersistence::drain) call, which joins and commits it; the
    /// simulated clock credits the overlap with the compute charged in between.
    ///
    /// The default implementation simply falls back to the synchronous
    /// [`persist`](ModelPersistence::persist), so backends without a pipelined path
    /// (SSD checkpoints, no-op, custom backends) keep working unchanged under
    /// [`PipelineMode::Overlapped`](crate::PipelineMode).
    ///
    /// # Errors
    ///
    /// Propagates snapshot errors, plus any error of a previously enqueued publish
    /// that is joined by this call.
    fn persist_async(
        &mut self,
        ctx: &PliniusContext,
        network: &Network,
        iteration: u64,
    ) -> Result<(), PliniusError> {
        self.persist(ctx, network, iteration)
    }

    /// Joins and commits any in-flight publish. Called by the trainer at the end of a
    /// run (and before restores); a no-op for synchronous backends — which is also
    /// the default implementation.
    ///
    /// # Errors
    ///
    /// Propagates errors of the joined publish.
    fn drain(&mut self, _ctx: &PliniusContext) -> Result<(), PliniusError> {
        Ok(())
    }

    /// Cumulative activity counters since this backend was created.
    fn persist_stats(&self) -> PersistStats;

    /// The live PM mirror behind this backend, if it has one (bound by
    /// [`prepare`](ModelPersistence::prepare) or the first persist/restore).
    /// [`None`] for backends without a PM mirror — the default. The serving tier
    /// clones the returned handle to hot-load committed epochs while training
    /// continues.
    fn mirror_model(&self) -> Option<&MirrorModel> {
        None
    }
}

// `ModelPersistence` must stay object-safe: the trainer owns a `Box<dyn ModelPersistence>`.
const _OBJECT_SAFE: fn(&dyn ModelPersistence) = |_| {};

/// Declarative persistence spec: a `Clone`able, comparable description of a
/// [`ModelPersistence`] backend.
///
/// [`TrainingSetup::backend`](crate::TrainingSetup::backend) holds one, so a setup can
/// be cloned for every restart, fleet tenant or benchmark run and still name its
/// medium; the crash drivers and the benchmark harnesses build their setups this way.
/// [`PersistenceBackend::instantiate`] turns the spec into a fresh backend. A backend
/// object passed to [`PliniusBuilder::backend`](crate::PliniusBuilder::backend)
/// replaces the spec.
///
/// SSD-backed variants write to the deployment's SSD ([`PliniusContext::ssd`]). A
/// trainer rebuilt from the same declarative spec over a re-opened context that carries
/// the disk ([`PliniusContext::with_ssd`]) finds the earlier checkpoint and resumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistenceBackend {
    /// Plinius' mirroring mechanism: encrypted mirror copies on PM
    /// ([`PmMirrorBackend`]).
    PmMirror,
    /// The baseline: encrypted checkpoints on the SSD at the given path
    /// ([`SsdCheckpointBackend`]).
    SsdCheckpoint(String),
    /// Mirror to PM every persist and demote an encrypted checkpoint to the SSD once
    /// at least `demote_every` iterations have passed since the last demotion
    /// ([`HybridTieredBackend`]).
    HybridTiered {
        /// Checkpoint path on the simulated SSD.
        ssd_path: String,
        /// Demote to SSD at most every this many iterations (0 disables demotion).
        demote_every: u64,
    },
    /// No persistence (the "non-crash-resilient system" of Fig. 9b / Fig. 10c,
    /// [`NoOpBackend`]).
    None,
}

impl PersistenceBackend {
    /// Maps the spec onto a fresh backend. Mirror-backed variants allocate `ring`-deep
    /// epoch rings (ignored by SSD-only and no-op specs).
    pub fn instantiate(&self, ring: usize) -> Box<dyn ModelPersistence> {
        match self {
            PersistenceBackend::PmMirror => Box::new(PmMirrorBackend::with_ring(ring)),
            PersistenceBackend::SsdCheckpoint(path) => {
                Box::new(SsdCheckpointBackend::new(path.clone()))
            }
            PersistenceBackend::HybridTiered {
                ssd_path,
                demote_every,
            } => {
                Box::new(HybridTieredBackend::new(ssd_path.clone(), *demote_every).with_ring(ring))
            }
            PersistenceBackend::None => Box::new(NoOpBackend),
        }
    }
}

/// Plinius' mirroring mechanism as a [`ModelPersistence`] backend: encrypted mirror
/// copies on PM, synchronised within Romulus durable transactions (Algorithm 3).
#[derive(Debug)]
pub struct PmMirrorBackend {
    mirror: Option<MirrorModel>,
    stats: PersistStats,
    ring_depth: usize,
}

impl Default for PmMirrorBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl PmMirrorBackend {
    /// Creates an unbound backend; the mirror is opened or allocated on first use, with
    /// the epoch-ring depth taken from `PLINIUS_RING` (default 2).
    pub fn new() -> Self {
        Self::with_ring(crate::knobs::Knobs::from_env().ring)
    }

    /// Creates an unbound backend whose freshly allocated mirrors retain the `ring`
    /// newest epochs. When the backend opens an existing mirror instead, the depth
    /// recorded in its PM header wins.
    pub fn with_ring(ring: usize) -> Self {
        PmMirrorBackend {
            mirror: None,
            stats: PersistStats::default(),
            ring_depth: ring,
        }
    }

    /// The mirror handle, opening the existing PM mirror or allocating a fresh one.
    fn mirror(
        &mut self,
        ctx: &PliniusContext,
        network: &Network,
    ) -> Result<&MirrorModel, PliniusError> {
        if self.mirror.is_none() {
            self.mirror = Some(if MirrorModel::exists(ctx) {
                MirrorModel::open(ctx)?
            } else {
                MirrorModel::allocate_with_ring(ctx, network, self.ring_depth)?
            });
        }
        Ok(self.mirror.as_ref().expect("mirror just set"))
    }

    /// Books one committed publish (synchronous or joined from the pipeline).
    fn record_publish(&mut self, report: &PublishReport) {
        self.stats.persists += 1;
        self.stats.publishes += 1;
        self.stats.persisted_bytes += report.model_bytes as u64;
        self.stats.overlap_wait_ns += report.seal_join.nanos();
    }
}

impl ModelPersistence for PmMirrorBackend {
    fn label(&self) -> &str {
        "pm-mirror"
    }

    fn exists(&self, ctx: &PliniusContext) -> bool {
        MirrorModel::exists(ctx)
    }

    fn prepare(&mut self, ctx: &PliniusContext, network: &Network) -> Result<(), PliniusError> {
        self.mirror(ctx, network)?;
        Ok(())
    }

    fn restore(
        &mut self,
        ctx: &PliniusContext,
        network: &mut Network,
    ) -> Result<u64, PliniusError> {
        // A publish still in flight must reach PM before the mirror is read back.
        self.drain(ctx)?;
        if self.mirror.is_none() {
            self.mirror = Some(MirrorModel::open(ctx)?);
        }
        let mirror = self.mirror.as_ref().expect("mirror just set");
        let report = mirror.mirror_in(ctx, network)?;
        self.stats.restores += 1;
        self.stats.restored_bytes += report.model_bytes as u64;
        Ok(report.iteration)
    }

    fn persist(
        &mut self,
        ctx: &PliniusContext,
        network: &Network,
        _iteration: u64,
    ) -> Result<(), PliniusError> {
        // A publish still in flight commits first; book it before the save.
        self.drain(ctx)?;
        let report = self.mirror(ctx, network)?.mirror_out(ctx, network)?;
        self.stats.persists += 1;
        self.stats.publishes += 1;
        self.stats.persisted_bytes += report.model_bytes as u64;
        Ok(())
    }

    fn persist_async(
        &mut self,
        ctx: &PliniusContext,
        network: &Network,
        _iteration: u64,
    ) -> Result<(), PliniusError> {
        let prior = self.mirror(ctx, network)?.snapshot_out(ctx, network)?;
        self.stats.snapshots += 1;
        if let Some(report) = prior {
            self.record_publish(&report);
        }
        Ok(())
    }

    fn drain(&mut self, ctx: &PliniusContext) -> Result<(), PliniusError> {
        if let Some(mirror) = self.mirror.as_ref() {
            if let Some(report) = mirror.drain(ctx)? {
                self.record_publish(&report);
            }
        }
        Ok(())
    }

    fn persist_stats(&self) -> PersistStats {
        self.stats
    }

    fn mirror_model(&self) -> Option<&MirrorModel> {
        self.mirror.as_ref()
    }
}

/// The baseline as a [`ModelPersistence`] backend: encrypted model checkpoints on the
/// deployment's (simulated) SSD, written through `fwrite`/`fsync` ocalls.
#[derive(Debug)]
pub struct SsdCheckpointBackend {
    checkpointer: SsdCheckpointer,
    stats: PersistStats,
}

impl SsdCheckpointBackend {
    /// Creates a backend writing to `path` on the deployment's SSD
    /// ([`PliniusContext::ssd`]); tenants other than 0 write under their own prefix
    /// (see [`SsdCheckpointer`]).
    pub fn new(path: impl Into<String>) -> Self {
        SsdCheckpointBackend {
            checkpointer: SsdCheckpointer::new(path),
            stats: PersistStats::default(),
        }
    }
}

impl ModelPersistence for SsdCheckpointBackend {
    fn label(&self) -> &str {
        "ssd-checkpoint"
    }

    fn exists(&self, ctx: &PliniusContext) -> bool {
        self.checkpointer.exists(ctx)
    }

    fn restore(
        &mut self,
        ctx: &PliniusContext,
        network: &mut Network,
    ) -> Result<u64, PliniusError> {
        let report = self.checkpointer.restore(ctx, network)?;
        self.stats.restores += 1;
        self.stats.restored_bytes += report.model_bytes as u64;
        Ok(report.iteration)
    }

    fn persist(
        &mut self,
        ctx: &PliniusContext,
        network: &Network,
        _iteration: u64,
    ) -> Result<(), PliniusError> {
        let report = self.checkpointer.save(ctx, network)?;
        self.stats.persists += 1;
        self.stats.persisted_bytes += report.model_bytes as u64;
        Ok(())
    }

    fn persist_stats(&self) -> PersistStats {
        self.stats
    }
}

/// Tiered persistence: mirror to PM on every persist, and additionally *demote* an
/// encrypted checkpoint to the SSD once at least `demote_every` iterations have passed
/// since the last demotion.
///
/// Demotion is evaluated on each `persist` call, so it composes with a sparse trainer
/// `mirror_frequency`: with `mirror_frequency: 10` and `demote_every: 5`, every persist
/// (iterations 10, 20, …) also demotes — the SSD recovery point is never more than one
/// persist older than the mirror, rather than silently requiring iterations divisible
/// by both intervals.
///
/// This covers a failure mode the pure mirror cannot: if the PM module itself is lost
/// (device replacement, pool corruption), the model is still recoverable from the last
/// demoted SSD checkpoint. Restores prefer the PM mirror (fast path); falling back to
/// the SSD checkpoint re-allocates and re-populates the mirror so training continues
/// with full PM protection.
#[derive(Debug)]
pub struct HybridTieredBackend {
    mirror: PmMirrorBackend,
    ssd: SsdCheckpointBackend,
    demote_every: u64,
    demotions: u64,
    last_demoted: u64,
}

impl HybridTieredBackend {
    /// Creates a hybrid backend demoting to `ssd_path` on the deployment's SSD
    /// ([`PliniusContext::ssd`]) every `demote_every` iterations (`0` disables
    /// demotion, making this equivalent to [`PmMirrorBackend`]).
    pub fn new(ssd_path: impl Into<String>, demote_every: u64) -> Self {
        HybridTieredBackend {
            mirror: PmMirrorBackend::new(),
            ssd: SsdCheckpointBackend::new(ssd_path),
            demote_every,
            demotions: 0,
            last_demoted: 0,
        }
    }

    /// Sets the epoch-ring depth used when the PM tier allocates a fresh mirror.
    #[must_use]
    pub fn with_ring(mut self, ring: usize) -> Self {
        self.mirror = PmMirrorBackend::with_ring(ring);
        self
    }

    /// Number of checkpoints demoted to the SSD so far.
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Demotes an encrypted checkpoint to the SSD if the demotion interval elapsed.
    fn demote_if_due(
        &mut self,
        ctx: &PliniusContext,
        network: &Network,
        iteration: u64,
    ) -> Result<(), PliniusError> {
        if self.demote_every > 0 && iteration.saturating_sub(self.last_demoted) >= self.demote_every
        {
            self.ssd.persist(ctx, network, iteration)?;
            self.demotions += 1;
            self.last_demoted = iteration;
        }
        Ok(())
    }
}

impl ModelPersistence for HybridTieredBackend {
    fn label(&self) -> &str {
        "hybrid-tiered"
    }

    fn exists(&self, ctx: &PliniusContext) -> bool {
        self.mirror.exists(ctx) || self.ssd.exists(ctx)
    }

    fn prepare(&mut self, ctx: &PliniusContext, network: &Network) -> Result<(), PliniusError> {
        self.mirror.prepare(ctx, network)
    }

    fn restore(
        &mut self,
        ctx: &PliniusContext,
        network: &mut Network,
    ) -> Result<u64, PliniusError> {
        if self.mirror.exists(ctx) {
            match self.mirror.restore(ctx, network) {
                Err(PliniusError::NoCommittedEpoch) if self.ssd.exists(ctx) => {}
                result => return result,
            }
        }
        // PM is gone (or its mirror never committed an epoch) but the demoted
        // checkpoint survived on the SSD: recover from it, then immediately
        // re-establish the PM mirror so the fast tier is valid again even if the very
        // next crash hits before the first post-recovery persist.
        let iteration = self.ssd.restore(ctx, network)?;
        self.mirror.prepare(ctx, network)?;
        self.mirror.persist(ctx, network, iteration)?;
        // The SSD already holds exactly this iteration; start the next demotion
        // interval from here. (After a mirror restore `last_demoted` stays 0, so a
        // possibly-stale SSD copy is refreshed at the first eligible persist.)
        self.last_demoted = iteration;
        Ok(iteration)
    }

    fn persist(
        &mut self,
        ctx: &PliniusContext,
        network: &Network,
        iteration: u64,
    ) -> Result<(), PliniusError> {
        self.mirror.persist(ctx, network, iteration)?;
        self.demote_if_due(ctx, network, iteration)
    }

    fn persist_async(
        &mut self,
        ctx: &PliniusContext,
        network: &Network,
        iteration: u64,
    ) -> Result<(), PliniusError> {
        // The PM tier pipelines; the (much rarer) SSD demotion stays synchronous.
        self.mirror.persist_async(ctx, network, iteration)?;
        self.demote_if_due(ctx, network, iteration)
    }

    fn drain(&mut self, ctx: &PliniusContext) -> Result<(), PliniusError> {
        self.mirror.drain(ctx)
    }

    fn persist_stats(&self) -> PersistStats {
        self.mirror.persist_stats().merged(self.ssd.persist_stats())
    }

    fn mirror_model(&self) -> Option<&MirrorModel> {
        self.mirror.mirror_model()
    }
}

/// No persistence at all: every restart begins from freshly initialised weights (the
/// paper's non-crash-resilient comparison system).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoOpBackend;

impl ModelPersistence for NoOpBackend {
    fn label(&self) -> &str {
        "none"
    }

    fn exists(&self, _ctx: &PliniusContext) -> bool {
        false
    }

    fn restore(
        &mut self,
        _ctx: &PliniusContext,
        _network: &mut Network,
    ) -> Result<u64, PliniusError> {
        Err(PliniusError::NoMirrorModel)
    }

    fn persist(
        &mut self,
        _ctx: &PliniusContext,
        _network: &Network,
        _iteration: u64,
    ) -> Result<(), PliniusError> {
        Ok(())
    }

    fn persist_stats(&self) -> PersistStats {
        PersistStats::default()
    }
}

/// Test wrapper around any [`ModelPersistence`] backend that fails the Nth persist
/// and/or restore call with [`PliniusError::InjectedFault`], leaving the inner backend
/// untouched on the failing call.
///
/// Used to prove that mid-run persistence errors propagate cleanly out of the trainer
/// instead of corrupting the persisted model (see the `persist` module tests).
#[derive(Debug)]
pub struct FaultInjectingBackend {
    inner: Box<dyn ModelPersistence>,
    label: String,
    fail_persist_at: Option<u64>,
    fail_restore_at: Option<u64>,
    persist_calls: u64,
    restore_calls: u64,
}

impl FaultInjectingBackend {
    /// Wraps `inner`; without further configuration the wrapper is transparent.
    pub fn wrap(inner: impl ModelPersistence + 'static) -> Self {
        let label = format!("fault-injecting({})", inner.label());
        FaultInjectingBackend {
            inner: Box::new(inner),
            label,
            fail_persist_at: None,
            fail_restore_at: None,
            persist_calls: 0,
            restore_calls: 0,
        }
    }

    /// Fails the `n`-th (1-based) `persist` call.
    pub fn fail_nth_persist(mut self, n: u64) -> Self {
        self.fail_persist_at = Some(n);
        self
    }

    /// Fails the `n`-th (1-based) `restore` call.
    pub fn fail_nth_restore(mut self, n: u64) -> Self {
        self.fail_restore_at = Some(n);
        self
    }

    /// Books one persist attempt against the shared 1-based fail-nth schedule —
    /// `persist` and `persist_async` count on the same sequence, so a wrapper
    /// behaves identically in both pipeline modes.
    fn check_persist_fault(&mut self, iteration: u64) -> Result<(), PliniusError> {
        self.persist_calls += 1;
        if self.fail_persist_at == Some(self.persist_calls) {
            return Err(PliniusError::InjectedFault(format!(
                "injected persist fault (call {}, iteration {iteration})",
                self.persist_calls
            )));
        }
        Ok(())
    }
}

impl ModelPersistence for FaultInjectingBackend {
    fn label(&self) -> &str {
        &self.label
    }

    fn exists(&self, ctx: &PliniusContext) -> bool {
        self.inner.exists(ctx)
    }

    fn prepare(&mut self, ctx: &PliniusContext, network: &Network) -> Result<(), PliniusError> {
        self.inner.prepare(ctx, network)
    }

    fn restore(
        &mut self,
        ctx: &PliniusContext,
        network: &mut Network,
    ) -> Result<u64, PliniusError> {
        self.restore_calls += 1;
        if self.fail_restore_at == Some(self.restore_calls) {
            return Err(PliniusError::InjectedFault(format!(
                "injected restore fault (call {})",
                self.restore_calls
            )));
        }
        self.inner.restore(ctx, network)
    }

    fn persist(
        &mut self,
        ctx: &PliniusContext,
        network: &Network,
        iteration: u64,
    ) -> Result<(), PliniusError> {
        self.check_persist_fault(iteration)?;
        self.inner.persist(ctx, network, iteration)
    }

    fn persist_async(
        &mut self,
        ctx: &PliniusContext,
        network: &Network,
        iteration: u64,
    ) -> Result<(), PliniusError> {
        self.check_persist_fault(iteration)?;
        self.inner.persist_async(ctx, network, iteration)
    }

    fn drain(&mut self, ctx: &PliniusContext) -> Result<(), PliniusError> {
        self.inner.drain(ctx)
    }

    fn persist_stats(&self) -> PersistStats {
        self.inner.persist_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmdata::PmDataset;
    use crate::trainer::{PliniusBuilder, TrainingSetup};
    use plinius_crypto::Key;
    use plinius_darknet::config::{build_network, mnist_cnn_config};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn context_with_key(key: &Key) -> PliniusContext {
        let ctx = PliniusContext::small_test(16 * 1024 * 1024);
        ctx.provision_key_directly(key.clone());
        ctx
    }

    fn test_key(seed: u64) -> Key {
        let mut rng = StdRng::seed_from_u64(seed);
        Key::generate_128(&mut rng)
    }

    fn small_network(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        build_network(&mnist_cnn_config(2, 4, 4), &mut rng).unwrap()
    }

    fn weights(net: &Network) -> Vec<f32> {
        net.layers()
            .iter()
            .filter(|l| l.is_trainable())
            .flat_map(|l| l.params()[0].data.to_vec())
            .collect()
    }

    /// Deploys a small-test setup: pool created, key provisioned, dataset in PM.
    fn deploy(setup: &TrainingSetup, key: &Key) -> PliniusContext {
        let ctx = PliniusContext::create(setup.cost.clone(), setup.pm_bytes).unwrap();
        ctx.provision_key_directly(key.clone());
        PmDataset::load(&ctx, &setup.dataset).unwrap();
        ctx
    }

    #[test]
    fn enum_shim_maps_onto_trait_objects() {
        let specs: [(PersistenceBackend, &str); 4] = [
            (PersistenceBackend::PmMirror, "pm-mirror"),
            (
                PersistenceBackend::SsdCheckpoint("c.bin".into()),
                "ssd-checkpoint",
            ),
            (
                PersistenceBackend::HybridTiered {
                    ssd_path: "t.bin".into(),
                    demote_every: 4,
                },
                "hybrid-tiered",
            ),
            (PersistenceBackend::None, "none"),
        ];
        for (spec, label) in specs {
            assert_eq!(spec.instantiate(2).label(), label);
        }
    }

    #[test]
    fn hybrid_mirrors_every_persist_and_demotes_every_kth() {
        let key = test_key(1);
        let ctx = context_with_key(&key);
        let mut net = small_network(2);
        let mut backend = HybridTieredBackend::new("tier.ckpt", 2);
        assert!(!backend.exists(&ctx));
        backend.prepare(&ctx, &net).unwrap();
        for i in 1..=5u64 {
            net.set_iteration(i);
            backend.persist(&ctx, &net, i).unwrap();
        }
        // Mirror written 5 times, SSD only at iterations 2 and 4.
        assert_eq!(backend.demotions(), 2);
        assert_eq!(backend.persist_stats().persists, 7);
        assert!(MirrorModel::exists(&ctx));
        assert!(ctx.ssd().exists("tier.ckpt"));
    }

    #[test]
    fn hybrid_demotes_under_a_sparse_mirror_frequency() {
        // With mirror_frequency 10 the backend only sees persists at 10, 20, …; a
        // demote_every of 5 must not require iterations divisible by both (which
        // would double the PM-loss exposure window) — every persist demotes.
        let key = test_key(30);
        let ctx = context_with_key(&key);
        let mut net = small_network(31);
        let mut backend = HybridTieredBackend::new("tier.ckpt", 5);
        backend.prepare(&ctx, &net).unwrap();
        for iteration in [10u64, 20, 30] {
            net.set_iteration(iteration);
            backend.persist(&ctx, &net, iteration).unwrap();
        }
        assert_eq!(backend.demotions(), 3);
    }

    #[test]
    fn hybrid_restore_prefers_the_pm_mirror() {
        let key = test_key(3);
        let ctx = context_with_key(&key);
        let mut net = small_network(4);
        let mut backend = HybridTieredBackend::new("tier.ckpt", 3);
        backend.prepare(&ctx, &net).unwrap();
        // Mirror is at iteration 4; the last demoted checkpoint is at 3.
        for i in 1..=4u64 {
            net.set_iteration(i);
            backend.persist(&ctx, &net, i).unwrap();
        }
        let mut restored = small_network(5);
        let mut backend2 = HybridTieredBackend::new("tier.ckpt", 3);
        assert!(backend2.exists(&ctx));
        let iteration = backend2.restore(&ctx, &mut restored).unwrap();
        assert_eq!(
            iteration, 4,
            "mirror (fast tier) must win over the SSD copy"
        );
        assert_eq!(weights(&restored), weights(&net));
    }

    #[test]
    fn hybrid_recovers_from_ssd_when_pm_is_lost() {
        let key = test_key(6);
        let ctx = context_with_key(&key);
        let mut net = small_network(7);
        let mut backend = HybridTieredBackend::new("tier.ckpt", 2);
        backend.prepare(&ctx, &net).unwrap();
        for i in 1..=4u64 {
            net.set_iteration(i);
            backend.persist(&ctx, &net, i).unwrap();
        }
        // The PM module is replaced: a brand-new pool has no mirror, but the SSD —
        // a separate device, carried over — still holds the iteration-4 checkpoint.
        let ctx2 = context_with_key(&key).with_ssd(ctx.ssd());
        let mut backend2 = HybridTieredBackend::new("tier.ckpt", 2);
        assert!(backend2.exists(&ctx2));
        let mut restored = small_network(8);
        let iteration = backend2.restore(&ctx2, &mut restored).unwrap();
        assert_eq!(iteration, 4);
        assert_eq!(weights(&restored), weights(&net));
        // Recovery re-established the PM mirror (promotion), so the fast tier is
        // immediately valid again on the new module.
        assert!(MirrorModel::exists(&ctx2));
        let mut from_mirror = small_network(9);
        let mirror = MirrorModel::open(&ctx2).unwrap();
        let report = mirror.mirror_in(&ctx2, &mut from_mirror).unwrap();
        assert_eq!(report.iteration, 4);
        assert_eq!(weights(&from_mirror), weights(&net));
    }

    #[test]
    fn declarative_ssd_specs_survive_restarts_through_the_shared_device() {
        // A trainer rebuilt from the same declarative spec after a simulated process
        // restart that carries the deployment's SSD must find the earlier checkpoint
        // and resume.
        for backend in [
            PersistenceBackend::SsdCheckpoint("declarative.ckpt".into()),
            PersistenceBackend::HybridTiered {
                ssd_path: "declarative-tier.ckpt".into(),
                demote_every: 1,
            },
        ] {
            let mut setup = TrainingSetup::small_test();
            setup.trainer.max_iterations = 8;
            setup.backend = backend.clone();
            let key = test_key(41);
            let ctx = deploy(&setup, &key);
            let pool = ctx.pool().clone();
            let ssd = ctx.ssd().clone();
            let mut trainer = PliniusBuilder::new(setup.clone())
                .context(ctx)
                .build()
                .unwrap();
            trainer.run_at_most(5).unwrap();
            let weights_before = weights(trainer.network());
            drop(trainer);
            // Simulated process restart over the surviving pool and disk. The pure SSD
            // spec has no PM mirror at all, so resuming at iteration 5 proves the
            // declarative checkpoint genuinely survived on the shared device.
            let ctx2 = PliniusContext::open(pool, setup.cost.clone())
                .unwrap()
                .with_ssd(&ssd);
            ctx2.provision_key_directly(key);
            let resumed = PliniusBuilder::new(setup.clone())
                .context(ctx2)
                .build()
                .unwrap();
            assert_eq!(
                resumed.iteration(),
                5,
                "{backend:?} lost its checkpoint across the restart"
            );
            assert_eq!(weights(resumed.network()), weights_before, "{backend:?}");
        }
    }

    #[test]
    fn ssd_holds_no_strong_reference_to_dead_deployments() {
        // A disk carried to a new deployment must not keep the old deployment's clock
        // (and with it the old timeline) alive.
        let key = test_key(60);
        let ctx = context_with_key(&key);
        ctx.ssd().write("leak-probe", b"1");
        let next = context_with_key(&key).with_ssd(ctx.ssd());
        let weak_clock = std::sync::Arc::downgrade(&ctx.clock());
        drop(ctx);
        assert_eq!(
            weak_clock.strong_count(),
            0,
            "the carried SSD leaked a strong reference to the dead deployment's clock"
        );
        assert!(next.ssd().exists("leak-probe"));
    }

    #[test]
    fn pipelined_persist_counts_snapshots_and_publishes() {
        let key = test_key(70);
        let ctx = context_with_key(&key);
        let mut net = small_network(71);
        let mut backend = PmMirrorBackend::new();
        backend.prepare(&ctx, &net).unwrap();
        for i in 1..=4u64 {
            net.set_iteration(i);
            backend.persist_async(&ctx, &net, i).unwrap();
        }
        // Three of the four snapshots have been joined by the next persist_async;
        // the fourth is still in flight.
        let mid = backend.persist_stats();
        assert_eq!(mid.snapshots, 4);
        assert_eq!(mid.publishes, 3);
        assert_eq!(mid.persists, 3);
        backend.drain(&ctx).unwrap();
        let done = backend.persist_stats();
        assert_eq!(done.snapshots, 4);
        assert_eq!(done.publishes, 4);
        assert_eq!(done.persists, 4);
        assert_eq!(done.persisted_bytes, 4 * net.model_bytes() as u64);
        // Draining twice is a no-op.
        backend.drain(&ctx).unwrap();
        assert_eq!(backend.persist_stats(), done);
        // The drained state restores the last iteration.
        let mut restored = small_network(72);
        let iteration = backend.restore(&ctx, &mut restored).unwrap();
        assert_eq!(iteration, 4);
        assert_eq!(weights(&restored), weights(&net));
    }

    #[test]
    fn restore_joins_a_pending_publish_first() {
        let key = test_key(73);
        let ctx = context_with_key(&key);
        let mut net = small_network(74);
        let mut backend = PmMirrorBackend::new();
        backend.prepare(&ctx, &net).unwrap();
        net.set_iteration(6);
        backend.persist_async(&ctx, &net, 6).unwrap();
        // No explicit drain: restore must see iteration 6, not the empty mirror.
        let mut restored = small_network(75);
        let iteration = backend.restore(&ctx, &mut restored).unwrap();
        assert_eq!(iteration, 6);
        assert_eq!(weights(&restored), weights(&net));
        assert_eq!(backend.persist_stats().publishes, 1);
    }

    #[test]
    fn synchronous_persists_count_as_publishes_without_snapshots() {
        let key = test_key(76);
        let ctx = context_with_key(&key);
        let mut net = small_network(77);
        let mut backend = PmMirrorBackend::new();
        backend.prepare(&ctx, &net).unwrap();
        net.set_iteration(1);
        backend.persist(&ctx, &net, 1).unwrap();
        let stats = backend.persist_stats();
        assert_eq!(stats.persists, 1);
        assert_eq!(stats.publishes, 1);
        assert_eq!(stats.snapshots, 0);
        assert_eq!(stats.overlap_wait_ns, 0);
    }

    #[test]
    fn persist_async_falls_back_to_sync_for_plain_backends() {
        // Backends that do not override the pipelined path keep working under
        // Overlapped mode via the default sync fallback.
        let key = test_key(78);
        let ctx = context_with_key(&key);
        let mut net = small_network(79);
        let mut backend = SsdCheckpointBackend::new("fallback.ckpt");
        net.set_iteration(3);
        backend.persist_async(&ctx, &net, 3).unwrap();
        backend.drain(&ctx).unwrap();
        let stats = backend.persist_stats();
        assert_eq!(stats.persists, 1);
        assert_eq!(stats.snapshots, 0);
        assert_eq!(stats.publishes, 0);
        assert!(ctx.ssd().exists("fallback.ckpt"));
    }

    #[test]
    fn merged_stats_cover_the_pipeline_counters() {
        let a = PersistStats {
            persists: 1,
            snapshots: 2,
            publishes: 3,
            overlap_wait_ns: 10,
            ..PersistStats::default()
        };
        let b = PersistStats {
            restores: 4,
            snapshots: 1,
            publishes: 1,
            overlap_wait_ns: 5,
            ..PersistStats::default()
        };
        let m = a.merged(b);
        assert_eq!(m.persists, 1);
        assert_eq!(m.restores, 4);
        assert_eq!(m.snapshots, 3);
        assert_eq!(m.publishes, 4);
        assert_eq!(m.overlap_wait_ns, 15);
    }

    #[test]
    fn hybrid_pipelines_the_mirror_and_demotes_synchronously() {
        let key = test_key(80);
        let ctx = context_with_key(&key);
        let mut net = small_network(81);
        let mut backend = HybridTieredBackend::new("tier-async.ckpt", 2);
        backend.prepare(&ctx, &net).unwrap();
        for i in 1..=4u64 {
            net.set_iteration(i);
            backend.persist_async(&ctx, &net, i).unwrap();
        }
        backend.drain(&ctx).unwrap();
        assert_eq!(backend.demotions(), 2);
        let stats = backend.persist_stats();
        assert_eq!(stats.snapshots, 4);
        // 4 pipelined mirror publishes + 2 synchronous SSD demotions.
        assert_eq!(stats.persists, 6);
        assert_eq!(stats.publishes, 4);
        assert!(ctx.ssd().exists("tier-async.ckpt"));
        assert!(MirrorModel::exists(&ctx));
    }

    #[test]
    fn noop_backend_persists_nothing() {
        let key = test_key(10);
        let ctx = context_with_key(&key);
        let mut net = small_network(11);
        let mut backend = NoOpBackend;
        assert!(!backend.exists(&ctx));
        backend.prepare(&ctx, &net).unwrap();
        backend.persist(&ctx, &net, 1).unwrap();
        assert!(!MirrorModel::exists(&ctx));
        assert_eq!(backend.persist_stats(), PersistStats::default());
        assert!(matches!(
            backend.restore(&ctx, &mut net),
            Err(PliniusError::NoMirrorModel)
        ));
    }

    #[test]
    fn injected_persist_fault_propagates_cleanly_mid_run() {
        let setup = TrainingSetup::small_test();
        let key = test_key(20);
        let ctx = deploy(&setup, &key);
        let mut trainer = PliniusBuilder::new(setup.clone())
            .context(ctx)
            .backend(FaultInjectingBackend::wrap(PmMirrorBackend::new()).fail_nth_persist(3))
            .build()
            .unwrap();
        // Iterations 1 and 2 persist fine; the third persist fails and the error
        // surfaces out of `run` instead of being swallowed.
        let err = trainer.run().unwrap_err();
        assert!(matches!(err, PliniusError::InjectedFault(_)), "{err}");
        assert_eq!(trainer.iteration(), 3, "the failing step trained the model");
        assert_eq!(trainer.persist_stats().persists, 2);
        let pool = trainer.context().pool().clone();
        drop(trainer);
        // The persisted model is the last *successful* persist — not a torn or
        // half-written iteration-3 state: a restart resumes at 2 and completes.
        let ctx2 = PliniusContext::open(pool, setup.cost.clone()).unwrap();
        ctx2.provision_key_directly(key);
        let mirror = MirrorModel::open(&ctx2).unwrap();
        assert_eq!(mirror.iteration(&ctx2).unwrap(), 2);
        let mut resumed = PliniusBuilder::new(setup.clone())
            .context(ctx2)
            .build()
            .unwrap();
        assert_eq!(resumed.iteration(), 2);
        let report = resumed.run().unwrap();
        assert_eq!(report.final_iteration, setup.trainer.max_iterations);
    }

    #[test]
    fn injected_restore_fault_fails_the_build_not_the_model() {
        let setup = TrainingSetup::small_test();
        let key = test_key(21);
        let ctx = deploy(&setup, &key);
        let mut trainer = PliniusBuilder::new(setup.clone())
            .context(ctx)
            .build()
            .unwrap();
        trainer.run_at_most(4).unwrap();
        let pool = trainer.context().pool().clone();
        drop(trainer);
        let ctx2 = PliniusContext::open(pool.clone(), setup.cost.clone()).unwrap();
        ctx2.provision_key_directly(key.clone());
        let err = PliniusBuilder::new(setup.clone())
            .context(ctx2)
            .backend(FaultInjectingBackend::wrap(PmMirrorBackend::new()).fail_nth_restore(1))
            .build()
            .unwrap_err();
        assert!(matches!(err, PliniusError::InjectedFault(_)), "{err}");
        // The mirror itself is untouched: a healthy backend still restores.
        let ctx3 = PliniusContext::open(pool, setup.cost.clone()).unwrap();
        ctx3.provision_key_directly(key);
        let resumed = PliniusBuilder::new(setup).context(ctx3).build().unwrap();
        assert_eq!(resumed.iteration(), 4);
    }

    #[test]
    fn unconfigured_fault_wrapper_is_transparent() {
        let setup = TrainingSetup::small_test();
        let key = test_key(22);
        let ctx = deploy(&setup, &key);
        let mut trainer = PliniusBuilder::new(setup.clone())
            .context(ctx)
            .backend(FaultInjectingBackend::wrap(PmMirrorBackend::new()))
            .max_iterations(3)
            .build()
            .unwrap();
        assert_eq!(trainer.backend().label(), "fault-injecting(pm-mirror)");
        let report = trainer.run().unwrap();
        assert_eq!(report.final_iteration, 3);
        assert_eq!(trainer.persist_stats().persists, 3);
    }
}
