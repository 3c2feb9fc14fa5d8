//! The mirroring module (Fig. 4, Algorithm 3): encrypted mirror copies of the enclave
//! model in persistent memory.
//!
//! The mirror model is represented on PM as a linked list of persistent layer nodes (so
//! that layers can later be added or removed without relocating the whole model, as the
//! paper notes). Every trainable layer node carries pointers to `R` encrypted ring
//! buffers for each of its five parameter tensors (`R = 2` — the classic A/B double
//! buffer — by default); every buffer is an AES-GCM sealed blob whose 12-byte IV and
//! 16-byte MAC account for the paper's 140 bytes of PM metadata per layer.
//!
//! # Epoch-committed ring buffering
//!
//! The mirror header carries an *epoch counter*, the index of the *active slot* and
//! the *ring depth* `R`; a small per-slot meta table records which committed epoch
//! each ring slot holds. Every mirror-out writes the sealed model into the slot
//! **after** the active one with unlogged direct twin writes
//! ([`plinius_romulus::Romulus::publish_with`]), then commits `[iteration, epoch+1,
//! advance-active-slot, slot-meta]` in one tiny Romulus durable transaction. A crash
//! at *any* point of the publish — including between tensor writes — therefore
//! recovers the newest **complete** epoch: the header still points at the untouched
//! slot until the advance commits atomically. Epoch `e` always lives in slot
//! `e % R`, so after `c` committed publishes the `min(R, c)` newest epochs remain
//! readable ([`MirrorModel::epochs`], [`MirrorModel::restore_epoch`]); the target
//! slot's meta entry is invalidated *before* its tensors are overwritten, so a
//! mid-publish crash never lists the half-overwritten evictee as readable.
//!
//! Ring depth is fixed at allocation time: [`MirrorModel::allocate`] reads it from
//! the `PLINIUS_RING` environment variable (default 2), and
//! [`MirrorModel::allocate_with_ring`] takes it explicitly. The sealed bytes placed
//! on PM are a pure function of `(key, IV, AAD, plaintext)` — identical for every
//! ring depth.
//!
//! # Pipelined mirror-out
//!
//! A mirror-out splits into two phases:
//!
//! * **snapshot** — cheap: copy the parameters (and draw the per-tensor IVs) into the
//!   handle's staging buffers;
//! * **publish** — expensive: AES-GCM-seal the staged plaintext and commit it to the
//!   inactive PM slot.
//!
//! [`MirrorModel::mirror_out`] runs both phases synchronously, sealing each tensor
//! straight into its PM buffer of the inactive slot. [`MirrorModel::snapshot_out`]
//! runs only the snapshot and hands the sealing, with the staging buffers and the
//! model key's context, to a background worker ([`plinius_parallel::Pipeline`]), which
//! seals into the staging set's own arena; [`MirrorModel::drain`] joins it at the
//! next pipeline point, copies the arena into the slot through the same publish
//! routine, and credits the sealing time that was hidden behind the compute charged
//! in between ([`SimSpan::overlap`]), so the steady-state simulated overhead
//! approaches `max(compute, mirror)` instead of `compute + mirror`. Sealed bytes,
//! committed epochs and restored weights are bit-identical between the two paths; only
//! timing differs.
//!
//! A handle keeps one set of staging buffers for its saves and restores, synchronous
//! or pipelined: the plaintext buffer and the IV batch, plus a sealed arena once the
//! handle pipelines. It takes the model key's context from the enclave's per-key
//! cache ([`PliniusContext::gcm`]) at each save and restore, so a re-provisioned key
//! seals the next save. Every save and restore through a handle first joins (and
//! commits) the handle's in-flight publish, so epochs always commit in snapshot order.
//!
//! A *mirror-in* (model restore) opens each sealed tensor of the active slot straight
//! from PM ([`plinius_romulus::Romulus::read_with`]) into the plaintext staging buffer,
//! and decodes the staged model into the enclave model only once every tensor has
//! authenticated and the model's shape matches, so a failed restore leaves the model
//! as it was.
//!
//! # Consistent snapshot reads
//!
//! A reader concurrent with a publish flip (an inference server hot-loading epochs
//! while the trainer keeps mirroring, or a recovering process racing a surviving
//! writer) must never mix tensors of one epoch with the iteration tag of another.
//! [`MirrorModel::mirror_in`] therefore performs a seqlock-style read: load the full
//! header `[iteration, epoch, active_slot]`, open the active slot's sealed tensors,
//! re-read the header, and retry if anything moved. The epoch counter is strictly
//! monotonic (every commit increments it by exactly one), so an unchanged header
//! brackets an untouched slot — publishes only ever write the *inactive* slot, and
//! reaching the active slot again requires at least one more epoch flip. A blob torn
//! by a concurrent publish fails authentication, so a failed open is a retry when the
//! header moved, and an error only when it did not. Retries are counted in the
//! `mirror.torn_read_retries` statistic.

use crate::knobs::Knobs;
use crate::sealed::{
    build_slots, check_shape, decode, open_tensor, sealed_lens, Staging, TensorSlot,
};
use crate::{PliniusContext, PliniusError};
use parking_lot::Mutex;
use plinius_crypto::{AesGcm, SEAL_OVERHEAD};
use plinius_darknet::Network;
use plinius_parallel::Pipeline;
use plinius_romulus::PmPtr;
use sim_clock::{Metric, SimSpan};
use std::sync::Arc;

/// Root-directory slot holding tenant 0's mirror-model header. Other tenants use
/// their own root pair ([`crate::TenantId::model_root`]); the mirror always reads
/// the slot through [`PliniusContext::model_root`].
pub const ROOT_MODEL: usize = 0;

/// Number of encrypted parameter buffers per mirrored layer.
const TENSORS_PER_LAYER: usize = plinius_darknet::PARAM_TENSORS_PER_LAYER;

/// Byte size of the persistent model header:
/// `[iteration][num_layers][first_layer_ptr][epoch][active_slot][ring_depth][meta_ptr]`.
const HEADER_BYTES: usize = 56;

/// Header offset of the epoch counter.
const HDR_EPOCH: u64 = 24;

/// Header offset of the active ring-slot index (`0..ring_depth`).
const HDR_ACTIVE: u64 = 32;

/// Header offset of the ring depth `R`.
const HDR_RING: u64 = 40;

/// Header offset of the pointer to the per-slot ring-meta table.
const HDR_META: u64 = 48;

/// Byte size of one ring-meta entry: `[epoch][iteration]` of the slot's contents
/// (epoch 0 = slot holds no committed epoch).
const META_ENTRY_BYTES: u64 = 16;

/// An invalidated ring-meta entry, bulk-published over the target slot's entry
/// before its tensors are overwritten.
const META_INVALID: [u8; META_ENTRY_BYTES as usize] = [0u8; META_ENTRY_BYTES as usize];

/// Environment variable selecting the mirror's ring depth (`R >= 2`) for
/// [`MirrorModel::allocate`]; invalid or missing values fall back to
/// [`DEFAULT_RING_DEPTH`] (see [`crate::knobs`]).
pub const RING_ENV: &str = "PLINIUS_RING";

/// Default number of ring slots per tensor: the classic A/B double buffer.
pub const DEFAULT_RING_DEPTH: usize = 2;

/// Byte size of one persistent layer node for ring depth `ring`:
/// `[next_ptr][num_tensors]` + `TENSORS_PER_LAYER x [R slot ptrs][sealed_len]`.
fn node_bytes(ring: usize) -> usize {
    16 + TENSORS_PER_LAYER * (ring * 8 + 8)
}

/// Report of one model save, a mirror-out or an SSD checkpoint
/// ([`crate::SsdCheckpointer::save`]): the Fig. 7 "Save" breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MirrorOutReport {
    /// Simulated time spent encrypting parameters inside the enclave.
    pub encrypt: SimSpan,
    /// Simulated time spent writing the encrypted buffers out: the PM publish and
    /// epoch flip (durable transaction), or the SSD's `fwrite` and `fsync` ocalls.
    pub write: SimSpan,
    /// Plaintext model bytes mirrored.
    pub model_bytes: usize,
    /// Bytes of encryption metadata (IV + MAC trailers) added on PM.
    pub metadata_bytes: usize,
}

impl MirrorOutReport {
    /// Total simulated save latency in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.encrypt.millis() + self.write.millis()
    }
}

/// Report of one model restore, a mirror-in or an SSD checkpoint restore
/// ([`crate::SsdCheckpointer::restore`]): the Fig. 7 "Restore" breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MirrorInReport {
    /// Simulated time spent reading encrypted buffers from PM or the SSD into the
    /// enclave.
    pub read: SimSpan,
    /// Simulated time spent decrypting inside the enclave.
    pub decrypt: SimSpan,
    /// Training iteration recovered from the mirror or checkpoint.
    pub iteration: u64,
    /// Committed epoch the restored tensors belong to. An SSD restore reports the
    /// checkpoint file's epoch field ([`crate::SealedEpoch::epoch`]): 0 for a
    /// checkpoint the SSD checkpointer wrote, the source epoch for an exported
    /// mirror epoch.
    pub epoch: u64,
    /// Plaintext model bytes restored.
    pub model_bytes: usize,
}

impl MirrorInReport {
    /// Total simulated restore latency in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.read.millis() + self.decrypt.millis()
    }
}

/// Report of one committed publish (the expensive half of a pipelined mirror-out,
/// joined by [`MirrorModel::drain`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublishReport {
    /// Training iteration recorded in the committed epoch.
    pub iteration: u64,
    /// The epoch number this publish committed.
    pub epoch: u64,
    /// Join of the background sealing lane: the span's length is the *residual*
    /// simulated sealing time that was **not** hidden behind the work charged to the
    /// clock since the snapshot (see [`SimSpan::overlap`]). Zero when compute fully
    /// covered the sealing.
    pub seal_join: SimSpan,
    /// Simulated time of the bulk slot publish + epoch-flip transaction.
    pub write: SimSpan,
    /// Plaintext model bytes published.
    pub model_bytes: usize,
}

/// The staging buffers of the last dropped mirror handle, for the next handle of that
/// layout: a model restarted in-process then stages into pages that are still mapped.
/// Every use writes a slot before reading it, so the buffers are not cleared.
static SPARE_STAGING: Mutex<Option<Staging>> = Mutex::new(None);

/// Bookkeeping of one enqueued-but-not-yet-committed publish.
struct InflightPublish {
    /// Iteration counter the staged snapshot belongs to.
    iteration: u64,
    /// Simulated time at which the sealing lane forked off the training timeline.
    fork_ns: u64,
    /// Modeled simulated cost of the sealing lane (charged at the overlap join).
    seal_lane_ns: u64,
    /// Plaintext bytes staged.
    model_bytes: usize,
}

/// The background seal worker: each job carries the staging buffers and the model
/// key's context of the snapshot that staged them, and the buffers always come back,
/// with the seal's result, so they are reused even on error.
type SealWorker = Pipeline<(Staging, Arc<AesGcm>), (Staging, Result<(), PliniusError>)>;

/// The working state of one mirror handle: the one staging set that every save and
/// restore through the handle uses, and the seal worker of pipelined saves. Nothing in
/// it depends on the key: each save or restore fetches the model key's context from
/// the enclave's cache ([`PliniusContext::gcm`]), so a re-provisioned key takes effect
/// at the next one. After warm-up a serial save or restore allocates nothing.
#[derive(Default)]
struct WorkingState {
    /// The staging buffers, built on first use; `None` while the seal worker holds
    /// them, or after a dead worker took them along.
    staging: Option<Staging>,
    /// Single background worker sealing staged snapshots, spawned by the first
    /// pipelined save and respawned after it dies.
    worker: Option<SealWorker>,
    /// The publish currently in flight, if any (the pipeline is depth-1).
    inflight: Option<InflightPublish>,
}

impl Drop for WorkingState {
    fn drop(&mut self) {
        if let Some(staging) = self.staging.take() {
            *SPARE_STAGING.lock() = Some(staging);
        }
    }
}

/// Fault-injection hook of the seqlock read: fired with the 0-based attempt index
/// between the header snapshot and the slot reads of [`MirrorModel::mirror_in`].
type TornReadHook = Box<dyn FnMut(u64) + Send>;

/// One atomic-enough view of the mirror header, compared before/after a slot read
/// in the seqlock protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeaderSnapshot {
    iteration: u64,
    epoch: u64,
    active: usize,
}

/// Give up after this many torn-read retries: the header moving this often during
/// one restore means the writer publishes faster than the reader can read, which
/// only fault injection can sustain.
const MAX_TORN_READ_RETRIES: u64 = 64;

/// The seqlock read shared by every PM read of sealed tensors: `read(&fence, attempt)`
/// runs between two loads of `fence`, and runs again while they differ, each retry
/// counted in `mirror.torn_read_retries`. A failed `read` is retried too when the fence
/// moved (a blob torn by a concurrent publish fails authentication), and its error is
/// returned only when the fence held. Returns the fence value that brackets the read;
/// `what` names the fence in the error after [`MAX_TORN_READ_RETRIES`] retries.
fn seqlock_read<F: PartialEq>(
    ctx: &PliniusContext,
    what: std::fmt::Arguments<'_>,
    mut fence: impl FnMut() -> Result<F, PliniusError>,
    mut read: impl FnMut(&F, u64) -> Result<(), PliniusError>,
) -> Result<F, PliniusError> {
    for attempt in 0..=MAX_TORN_READ_RETRIES {
        let before = fence()?;
        let read_result = read(&before, attempt);
        if fence()? == before {
            return read_result.map(|()| before);
        }
        ctx.stats().add(Metric::MirrorTornReadRetries, 1);
    }
    Err(PliniusError::MirrorMismatch(format!(
        "{what} kept moving during {MAX_TORN_READ_RETRIES} snapshot-read retries"
    )))
}

/// Handle to the persistent mirror of one enclave model.
pub struct MirrorModel {
    header: PmPtr,
    /// The per-slot ring-meta table: `ring_depth x [epoch, iteration]`.
    meta: PmPtr,
    /// Number of ring slots per tensor (`>= 2`), fixed at allocation time.
    ring_depth: usize,
    layer_nodes: Vec<PmPtr>,
    /// Flat per-tensor layout (layer-major), fixed at allocate/open time.
    slots: Vec<TensorSlot>,
    /// The `ring_depth` PM buffers of every tensor, in `slots` order.
    tensor_ptrs: Vec<Vec<PmPtr>>,
    /// Working state of this handle; `Mutex` keeps `mirror_out(&self)` callable from
    /// the persistence backends while the buffers are reused in place.
    state: Mutex<WorkingState>,
    /// Torn-read fault injection (tests only); see
    /// [`MirrorModel::set_torn_read_hook`].
    torn_read_hook: Mutex<Option<TornReadHook>>,
}

impl std::fmt::Debug for MirrorModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MirrorModel")
            .field("header", &self.header)
            .field("layers", &self.layer_nodes.len())
            .field("tensors", &self.slots.len())
            .finish()
    }
}

impl Clone for MirrorModel {
    fn clone(&self) -> Self {
        // The working state and fault hook belong to the handle: a clone starts cold.
        MirrorModel {
            header: self.header,
            meta: self.meta,
            ring_depth: self.ring_depth,
            layer_nodes: self.layer_nodes.clone(),
            slots: self.slots.clone(),
            tensor_ptrs: self.tensor_ptrs.clone(),
            state: Mutex::default(),
            torn_read_hook: Mutex::new(None),
        }
    }
}

impl MirrorModel {
    /// Whether a mirror model already exists in the context's PM pool.
    pub fn exists(ctx: &PliniusContext) -> bool {
        matches!(ctx.romulus().root(ctx.model_root()), Ok(p) if !p.is_null())
    }

    /// Allocates the persistent mirror for `network` (Algorithm 3, `alloc_mirror_model`)
    /// with the ring depth selected by the `PLINIUS_RING` environment variable
    /// (default 2, the classic A/B double buffer). See
    /// [`MirrorModel::allocate_with_ring`].
    ///
    /// # Errors
    ///
    /// Propagates Romulus errors (e.g. out of persistent memory).
    pub fn allocate(ctx: &PliniusContext, network: &Network) -> Result<Self, PliniusError> {
        Self::allocate_with_ring(ctx, network, Knobs::from_env().ring)
    }

    /// Allocates the persistent mirror for `network` with an explicit ring depth
    /// `ring >= 2`: one header (with epoch counter, active-slot index and ring
    /// depth), one `ring`-entry meta table, one node per trainable layer, and
    /// `ring` buffers for every encrypted tensor. All allocations happen in a
    /// single durable transaction.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::InvalidConfig`] for `ring < 2` (publishing must never
    /// touch the committed epoch's slot), or Romulus errors (e.g. out of persistent
    /// memory).
    pub fn allocate_with_ring(
        ctx: &PliniusContext,
        network: &Network,
        ring: usize,
    ) -> Result<Self, PliniusError> {
        if ring < 2 {
            return Err(PliniusError::InvalidConfig(format!(
                "mirror ring depth must be at least 2, got {ring}"
            )));
        }
        let layer_tensor_lens = sealed_lens(network);
        let num_layers = layer_tensor_lens.len() as u64;
        let mut header = PmPtr::NULL;
        let mut meta = PmPtr::NULL;
        let mut layer_nodes = Vec::new();
        let mut tensor_ptrs: Vec<Vec<PmPtr>> = Vec::new();
        ctx.romulus().transaction(|tx| {
            header = tx.alloc(HEADER_BYTES)?;
            tx.write_u64(header, 0)?; // iteration
            tx.write_u64(header.add(8), num_layers)?;
            tx.write_u64(header.add(HDR_EPOCH), 0)?;
            tx.write_u64(header.add(HDR_ACTIVE), 0)?;
            tx.write_u64(header.add(HDR_RING), ring as u64)?;
            // The ring-meta table starts all-invalid (epoch 0 = no committed epoch).
            meta = tx.alloc(ring * META_ENTRY_BYTES as usize)?;
            for s in 0..ring as u64 {
                tx.write_u64(meta.add(s * META_ENTRY_BYTES), 0)?;
                tx.write_u64(meta.add(s * META_ENTRY_BYTES + 8), 0)?;
            }
            tx.write_u64(header.add(HDR_META), meta.offset())?;
            // Allocate nodes front to back, linking as we go.
            let stride = (ring * 8 + 8) as u64;
            let mut nodes: Vec<PmPtr> = Vec::with_capacity(layer_tensor_lens.len());
            let mut ptrs: Vec<Vec<PmPtr>> = Vec::new();
            for tensor_lens in &layer_tensor_lens {
                let node = tx.alloc(node_bytes(ring))?;
                tx.write_u64(node, 0)?; // next (patched below)
                tx.write_u64(node.add(8), tensor_lens.len() as u64)?;
                for (j, sealed_len) in tensor_lens.iter().enumerate() {
                    let field = node.add(16 + (j as u64) * stride);
                    let mut ring_ptrs = Vec::with_capacity(ring);
                    for s in 0..ring {
                        let slot = tx.alloc(*sealed_len)?;
                        tx.write_u64(field.add((s * 8) as u64), slot.offset())?;
                        ring_ptrs.push(slot);
                    }
                    tx.write_u64(field.add((ring * 8) as u64), *sealed_len as u64)?;
                    ptrs.push(ring_ptrs);
                }
                if let Some(prev) = nodes.last() {
                    tx.write_u64(*prev, node.offset())?;
                }
                nodes.push(node);
            }
            let first = nodes.first().map(|p| p.offset()).unwrap_or(0);
            tx.write_u64(header.add(16), first)?;
            tx.set_root(ctx.model_root(), header)?;
            layer_nodes = nodes;
            tensor_ptrs = ptrs;
            Ok(())
        })?;
        let slots = build_slots(&layer_tensor_lens)?;
        Ok(MirrorModel {
            header,
            meta,
            ring_depth: ring,
            layer_nodes,
            slots,
            tensor_ptrs,
            state: Mutex::default(),
            torn_read_hook: Mutex::new(None),
        })
    }

    /// Opens an existing mirror (after a restart), walking the persistent linked list.
    ///
    /// The host owns PM, so every count and pointer read here is checked before it
    /// sizes anything: the layer count must fit the region, every node must hold
    /// exactly the five tensors [`MirrorModel::allocate`] gives it, one copy of every
    /// sealed tensor must fit the region, and the walk stops once it passes the
    /// declared layer count (a cycle in the list).
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::NoMirrorModel`] if no mirror exists,
    /// [`PliniusError::MirrorMismatch`] if the header or a node fails a check above,
    /// or Romulus errors for a pointer that leaves the region.
    pub fn open(ctx: &PliniusContext) -> Result<Self, PliniusError> {
        let header = ctx.romulus().root(ctx.model_root())?;
        if header.is_null() {
            return Err(PliniusError::NoMirrorModel);
        }
        let rom = ctx.romulus();
        let num_layers = rom.read_u64(header.add(8))?;
        let ring = rom.read_u64(header.add(HDR_RING))? as usize;
        if !(2..=65_536).contains(&ring) {
            return Err(PliniusError::MirrorMismatch(format!(
                "implausible ring depth {ring} in the mirror header"
            )));
        }
        let max_layers = rom.region_size() / node_bytes(ring);
        if num_layers > max_layers as u64 {
            return Err(PliniusError::MirrorMismatch(format!(
                "mirror header declares {num_layers} layers, more than the region holds"
            )));
        }
        let num_layers = num_layers as usize;
        let meta = PmPtr::from_offset(rom.read_u64(header.add(HDR_META))?);
        if meta.is_null() {
            return Err(PliniusError::MirrorMismatch(
                "mirror header carries no ring-meta table".into(),
            ));
        }
        let stride = (ring * 8 + 8) as u64;
        let mut layer_nodes = Vec::with_capacity(num_layers);
        let mut sealed_lens = Vec::with_capacity(num_layers);
        let mut tensor_ptrs: Vec<Vec<PmPtr>> = Vec::new();
        let mut sealed_total = 0u64;
        let mut cursor = PmPtr::from_offset(rom.read_u64(header.add(16))?);
        while !cursor.is_null() {
            if layer_nodes.len() == num_layers {
                return Err(PliniusError::MirrorMismatch(format!(
                    "the mirror's layer list runs past the header's {num_layers} layers"
                )));
            }
            let num_tensors = rom.read_u64(cursor.add(8))?;
            if num_tensors != TENSORS_PER_LAYER as u64 {
                return Err(PliniusError::MirrorMismatch(format!(
                    "mirror layer {} declares {num_tensors} tensors, not {TENSORS_PER_LAYER}",
                    layer_nodes.len()
                )));
            }
            let mut lens = Vec::with_capacity(TENSORS_PER_LAYER);
            for j in 0..TENSORS_PER_LAYER {
                let field = cursor.add(16 + (j as u64) * stride);
                let mut ring_ptrs = Vec::with_capacity(ring);
                for s in 0..ring {
                    ring_ptrs.push(PmPtr::from_offset(rom.read_u64(field.add((s * 8) as u64))?));
                }
                let len = rom.read_u64(field.add((ring * 8) as u64))?;
                sealed_total = sealed_total.saturating_add(len);
                if sealed_total > rom.region_size() as u64 {
                    return Err(PliniusError::MirrorMismatch(
                        "the mirror's sealed tensors declare more bytes than the region holds"
                            .into(),
                    ));
                }
                lens.push(len as usize);
                tensor_ptrs.push(ring_ptrs);
            }
            layer_nodes.push(cursor);
            sealed_lens.push(lens);
            cursor = PmPtr::from_offset(rom.read_u64(cursor)?);
        }
        if layer_nodes.len() != num_layers {
            return Err(PliniusError::MirrorMismatch(format!(
                "header declares {num_layers} layers but the list holds {}",
                layer_nodes.len()
            )));
        }
        let slots = build_slots(&sealed_lens)?;
        Ok(MirrorModel {
            header,
            meta,
            ring_depth: ring,
            layer_nodes,
            slots,
            tensor_ptrs,
            state: Mutex::default(),
            torn_read_hook: Mutex::new(None),
        })
    }

    /// The start of every save and restore through this handle: joins and commits the
    /// in-flight publish, if any, so epochs always commit in snapshot order; fetches
    /// the model key's context; and returns the handle's staging buffers, built on
    /// first use (or after a dead seal worker took them along).
    fn begin<'a>(
        &self,
        ctx: &PliniusContext,
        state: &'a mut WorkingState,
    ) -> Result<(Option<PublishReport>, Arc<AesGcm>, &'a mut Staging), PliniusError> {
        let prior = self.join_inflight(ctx, state)?;
        let gcm = ctx.gcm()?;
        let staging = state.staging.get_or_insert_with(|| {
            SPARE_STAGING
                .lock()
                .take()
                .filter(|s| s.fits(&self.slots))
                .unwrap_or_else(|| Staging::new(&self.slots))
        });
        Ok((prior, gcm, staging))
    }

    /// Number of mirrored (trainable) layers.
    pub fn num_layers(&self) -> usize {
        self.layer_nodes.len()
    }

    /// Bytes of per-layer encryption metadata stored on PM (28 B per tensor, 140 B per
    /// layer with five tensors), as accounted in §VI of the paper.
    pub fn metadata_bytes(&self) -> usize {
        self.slots.len() * SEAL_OVERHEAD
    }

    /// The iteration counter currently stored in the mirror header.
    ///
    /// # Errors
    ///
    /// Propagates Romulus read errors.
    pub fn iteration(&self, ctx: &PliniusContext) -> Result<u64, PliniusError> {
        Ok(ctx.romulus().read_u64(self.header)?)
    }

    /// The epoch counter of the last committed publish (0 before the first
    /// mirror-out). Each committed mirror-out — synchronous or pipelined — increments
    /// it by exactly one.
    ///
    /// # Errors
    ///
    /// Propagates Romulus read errors.
    pub fn epoch(&self, ctx: &PliniusContext) -> Result<u64, PliniusError> {
        Ok(ctx.romulus().read_u64(self.header.add(HDR_EPOCH))?)
    }

    /// Index of the currently active ring slot (`0..ring_depth`).
    fn active_slot(&self, ctx: &PliniusContext) -> Result<usize, PliniusError> {
        let raw = ctx.romulus().read_u64(self.header.add(HDR_ACTIVE))?;
        if (raw as usize) < self.ring_depth {
            Ok(raw as usize)
        } else {
            Err(PliniusError::MirrorMismatch(format!(
                "invalid active-slot index {raw} in the mirror header (ring depth {})",
                self.ring_depth
            )))
        }
    }

    /// Number of ring slots per tensor (`>= 2`), fixed at allocation time.
    pub fn ring_depth(&self) -> usize {
        self.ring_depth
    }

    /// Pointer to ring slot `s`'s meta entry `[epoch, iteration]`.
    fn meta_entry_ptr(&self, s: usize) -> PmPtr {
        self.meta.add(s as u64 * META_ENTRY_BYTES)
    }

    /// One load of ring slot `s`'s meta entry: `(epoch, iteration)`; epoch 0 means
    /// the slot holds no committed epoch.
    fn meta_entry(&self, ctx: &PliniusContext, s: usize) -> Result<(u64, u64), PliniusError> {
        let ptr = self.meta_entry_ptr(s);
        Ok((
            ctx.romulus().read_u64(ptr)?,
            ctx.romulus().read_u64(ptr.add(8))?,
        ))
    }

    /// The committed epochs currently retained in the ring, oldest first: after `c`
    /// committed publishes these are the `min(ring_depth, c)` newest epoch numbers
    /// (one fewer while a publish is overwriting the oldest slot). Each listed
    /// epoch can be opened with [`MirrorModel::restore_epoch`].
    ///
    /// # Errors
    ///
    /// Propagates Romulus read errors.
    pub fn epochs(&self, ctx: &PliniusContext) -> Result<Vec<u64>, PliniusError> {
        let current = self.epoch(ctx)?;
        let r = self.ring_depth as u64;
        let mut out = Vec::with_capacity(self.ring_depth);
        for s in 0..self.ring_depth {
            let (e, _) = self.meta_entry(ctx, s)?;
            // Invariant: slot s holds epoch e iff e ≡ s (mod R) and e is one of the
            // R newest committed epochs. Anything else is stale or torn — skip it.
            if e != 0 && e <= current && current - e < r && e % r == s as u64 {
                out.push(e);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// The training-iteration counter recorded with retained epoch `epoch`.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::EpochNotRetained`] if the epoch has been evicted
    /// from the ring (or never committed).
    pub fn epoch_iteration(&self, ctx: &PliniusContext, epoch: u64) -> Result<u64, PliniusError> {
        if epoch == 0 {
            return Err(PliniusError::EpochNotRetained(epoch));
        }
        let s = (epoch % self.ring_depth as u64) as usize;
        let (e, iteration) = self.meta_entry(ctx, s)?;
        if e != epoch {
            return Err(PliniusError::EpochNotRetained(epoch));
        }
        Ok(iteration)
    }

    /// One consistent load of the full mirror header, the unit of the seqlock
    /// protocol: two equal snapshots bracketing a slot read prove the slot was not
    /// republished in between (the epoch is strictly monotonic, so an unchanged
    /// header cannot be a different publish that wrapped around).
    fn header_snapshot(&self, ctx: &PliniusContext) -> Result<HeaderSnapshot, PliniusError> {
        Ok(HeaderSnapshot {
            iteration: ctx.romulus().read_u64(self.header)?,
            epoch: ctx.romulus().read_u64(self.header.add(HDR_EPOCH))?,
            active: self.active_slot(ctx)?,
        })
    }

    /// Installs (or clears) a fault-injection hook fired between the header snapshot
    /// and the slot reads of [`MirrorModel::mirror_in`] — the exact window in which
    /// a concurrent publish flip makes the read torn. The hook receives the 0-based
    /// retry attempt index.
    ///
    /// Test scaffolding (like [`plinius_romulus::Romulus::inject_failure`]): a hook
    /// that publishes must do so through a **separate cloned handle** — `mirror_in`
    /// holds this handle's state lock while the hook runs, so publishing through the
    /// same handle would deadlock.
    pub fn set_torn_read_hook(&self, hook: Option<Box<dyn FnMut(u64) + Send>>) {
        *self.torn_read_hook.lock() = hook;
    }

    /// The one publish routine of every save: writes the next epoch into the ring slot
    /// after the active one and commits it. The target slot's meta entry is invalidated
    /// first; then `fill(idx, slot, dst)` writes each tensor's sealed blob straight into
    /// its PM buffer `dst`, in slot order, with direct twin writes
    /// ([`plinius_romulus::Romulus::publish_with`]); then one small Romulus transaction
    /// commits `[iteration, epoch+1, advance, slot-meta]`. A crash or a failed `fill`
    /// anywhere in the publish leaves the newest complete epoch committed, and the
    /// half-overwritten evictee is never listed. Returns the committed epoch number.
    fn publish(
        &self,
        ctx: &PliniusContext,
        iteration: u64,
        mut fill: impl FnMut(usize, &TensorSlot, &mut [u8]) -> Result<(), PliniusError>,
    ) -> Result<u64, PliniusError> {
        let rom = ctx.romulus();
        let active = self.active_slot(ctx)?;
        let epoch = rom.read_u64(self.header.add(HDR_EPOCH))?;
        let target = (active + 1) % self.ring_depth;
        rom.publish_region(self.meta_entry_ptr(target), &META_INVALID)?;
        for (idx, slot) in self.slots.iter().enumerate() {
            let ptr = self.tensor_ptrs[idx][target];
            rom.publish_with(ptr, slot.sealed_len, |dst| fill(idx, slot, dst))??;
        }
        let meta_ptr = self.meta_entry_ptr(target);
        rom.transaction(|tx| {
            tx.write_u64(self.header, iteration)?;
            tx.write_u64(self.header.add(HDR_EPOCH), epoch + 1)?;
            tx.write_u64(self.header.add(HDR_ACTIVE), target as u64)?;
            tx.write_u64(meta_ptr, epoch + 1)?;
            tx.write_u64(meta_ptr.add(8), iteration)
        })?;
        Ok(epoch + 1)
    }

    /// Mirror-out (Algorithm 3, `mirror_out`): encrypts the enclave model's parameters
    /// and synchronises the PM mirror within one durable transaction, recording the
    /// iteration counter.
    ///
    /// Each tensor is sealed straight into its PM buffer of the inactive ring slot, in
    /// slot order, with its CTR keystream split across scoped threads past the crypto
    /// crate's cutoff (worker count from [`plinius_parallel::max_threads`], override
    /// with `PLINIUS_THREADS`); the sealed bytes and the [`MirrorOutReport`] —
    /// including its simulated-time spans — are identical for every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::KeyNotProvisioned`] without a model key,
    /// [`PliniusError::MirrorMismatch`] if the model shape changed, or Romulus errors.
    pub fn mirror_out(
        &self,
        ctx: &PliniusContext,
        network: &Network,
    ) -> Result<MirrorOutReport, PliniusError> {
        self.mirror_out_with_threads(ctx, network, plinius_parallel::max_threads())
    }

    /// [`MirrorModel::mirror_out`] with an explicit sealing-thread count (1 forces the
    /// serial path). Exposed for benchmarks and the determinism tests; the result is
    /// bit-identical for every `threads` value. A publish still in flight through
    /// this handle commits first, so it never lands as the newer epoch.
    ///
    /// # Errors
    ///
    /// Same as [`MirrorModel::mirror_out`].
    pub fn mirror_out_with_threads(
        &self,
        ctx: &PliniusContext,
        network: &Network,
        threads: usize,
    ) -> Result<MirrorOutReport, PliniusError> {
        let clock = ctx.clock();
        check_shape(&self.slots, network)?;
        let mut state = self.state.lock();
        let (_, gcm, staging) = self.begin(ctx, &mut state)?;
        staging.draw_ivs(ctx);
        // Phase 1: the modeled in-enclave encryption of every parameter tensor, and
        // the parameters staged into the reusable plaintext buffer — no heap
        // allocation in the steady state.
        let (model_bytes, encrypt) = SimSpan::record(&clock, || {
            staging.charge_and_stage(ctx, &self.slots, network)
        });
        // Phase 2: seal each staged tensor straight into its PM buffer of the
        // inactive slot and commit the epoch flip durably.
        let staging = &*staging;
        let (write_result, write) = SimSpan::record(&clock, || {
            self.publish(ctx, network.iteration(), |idx, slot, dst| {
                Ok(staging.seal_tensor(idx, slot, &gcm, dst, threads)?)
            })
        });
        write_result?;
        Ok(MirrorOutReport {
            encrypt,
            write,
            model_bytes,
            metadata_bytes: self.metadata_bytes(),
        })
    }

    /// Mirror-in (Algorithm 3, `mirror_in`): reads the encrypted mirror from PM into the
    /// enclave, decrypts it and installs the parameters into the enclave model, restoring
    /// the iteration counter.
    ///
    /// The read is a consistent snapshot (see the module docs): the header
    /// `[iteration, epoch, active_slot]` is loaded before and after the slot's
    /// buffers, and the read retries whenever a concurrent publish moved the header
    /// in between — the restored tensors, iteration and [`MirrorInReport::epoch`]
    /// always belong to exactly one committed epoch.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::NoCommittedEpoch`] (with `network` untouched) before the
    /// first publish, [`PliniusError::KeyNotProvisioned`] without a model key,
    /// authentication failures if the mirror was tampered with, or a mismatch error if
    /// the model shape differs.
    pub fn mirror_in(
        &self,
        ctx: &PliniusContext,
        network: &mut Network,
    ) -> Result<MirrorInReport, PliniusError> {
        self.restore_with(ctx, network, |open_slot| {
            let header = seqlock_read(
                ctx,
                format_args!("mirror header"),
                || self.header_snapshot(ctx),
                |before, attempt| {
                    // Before the first publish the active slot holds no sealed bytes.
                    if before.epoch == 0 {
                        return Err(PliniusError::NoCommittedEpoch);
                    }
                    if let Some(hook) = self.torn_read_hook.lock().as_mut() {
                        hook(attempt);
                    }
                    open_slot(before.active)
                },
            )?;
            Ok((header.iteration, header.epoch))
        })
    }

    /// Restores a specific retained epoch from the ring into `network` (the
    /// time-travel sibling of [`MirrorModel::mirror_in`], which always opens the
    /// newest committed epoch). The read revalidates the slot's ring-meta entry
    /// after opening the slot's tensors — meta entries are invalidated *before* a
    /// publish overwrites a slot, so an unchanged entry brackets untorn bytes even
    /// while a concurrent publisher cycles the ring, and a torn blob fails
    /// authentication. The network's iteration counter is set to the one recorded
    /// with the epoch.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::EpochNotRetained`] if the epoch has been evicted
    /// from the ring (or never committed), plus the error set of
    /// [`MirrorModel::mirror_in`].
    pub fn restore_epoch(
        &self,
        ctx: &PliniusContext,
        network: &mut Network,
        epoch: u64,
    ) -> Result<MirrorInReport, PliniusError> {
        if epoch == 0 {
            return Err(PliniusError::EpochNotRetained(epoch));
        }
        let slot_idx = (epoch % self.ring_depth as u64) as usize;
        self.restore_with(ctx, network, |open_slot| {
            let (_, iteration) = seqlock_read(
                ctx,
                format_args!("ring slot {slot_idx}"),
                || self.meta_entry(ctx, slot_idx),
                |before, _| {
                    if before.0 != epoch {
                        return Err(PliniusError::EpochNotRetained(epoch));
                    }
                    open_slot(slot_idx)
                },
            )?;
            Ok((iteration, epoch))
        })
    }

    /// The two timed phases of a restore, after any in-flight publish through this
    /// handle has committed. Phase 1: `read` opens the sealed tensors of a ring slot,
    /// through the `open_slot(slot)` it is handed, and returns the `(iteration,
    /// epoch)` they belong to; `open_slot` authenticates and decrypts every tensor
    /// straight from PM into the plaintext staging buffer. Phase 2 ([`decode`]): once
    /// the model's shape is checked, every tensor is decoded straight into the enclave
    /// model's parameter slices.
    fn restore_with(
        &self,
        ctx: &PliniusContext,
        network: &mut Network,
        read: impl FnOnce(
            &mut dyn FnMut(usize) -> Result<(), PliniusError>,
        ) -> Result<(u64, u64), PliniusError>,
    ) -> Result<MirrorInReport, PliniusError> {
        let clock = ctx.clock();
        let mut state = self.state.lock();
        let (_, gcm, staging) = self.begin(ctx, &mut state)?;
        let threads = plinius_parallel::max_threads();
        let plain = &mut staging.plain;
        let mut open_slot = |s: usize| self.open_slot(ctx, s, &gcm, plain, threads);
        let (read_out, read) = SimSpan::record(&clock, || read(&mut open_slot));
        let (iteration, epoch) = read_out?;
        let (decrypt_result, decrypt) =
            SimSpan::record(&clock, || decode(ctx, &self.slots, &staging.plain, network));
        let model_bytes = decrypt_result?;
        network.set_iteration(iteration);
        Ok(MirrorInReport {
            read,
            decrypt,
            iteration,
            epoch,
            model_bytes,
        })
    }

    /// Opens every tensor of ring slot `s` straight from its PM buffer into `plain`
    /// ([`plinius_romulus::Romulus::read_with`]), in slot order, on up to `threads`
    /// threads per tensor. The first error stops it; a torn blob fails
    /// authentication.
    fn open_slot(
        &self,
        ctx: &PliniusContext,
        s: usize,
        gcm: &AesGcm,
        plain: &mut [u8],
        threads: usize,
    ) -> Result<(), PliniusError> {
        for (idx, slot) in self.slots.iter().enumerate() {
            ctx.romulus()
                .read_with(self.tensor_ptrs[idx][s], slot.sealed_len, |sealed| {
                    open_tensor(slot, gcm, sealed, plain, threads)
                })??;
        }
        Ok(())
    }

    /// Reads one retained epoch's sealed tensor blob (`flat` indexes the
    /// layer-major tensor layout) straight from PM into `out`, without decrypting
    /// and without heap allocation — the zero-copy read primitive underneath the
    /// VFS. The slot's ring-meta entry is revalidated after the read (see
    /// [`MirrorModel::restore_epoch`] for why that brackets untorn bytes). Returns
    /// the sealed length written.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::EpochNotRetained`] if the epoch is not in the ring,
    /// or [`PliniusError::MirrorMismatch`] if `flat` is out of range or `out` is
    /// shorter than the sealed blob.
    pub fn read_sealed_into(
        &self,
        ctx: &PliniusContext,
        epoch: u64,
        flat: usize,
        out: &mut [u8],
    ) -> Result<usize, PliniusError> {
        if epoch == 0 {
            return Err(PliniusError::EpochNotRetained(epoch));
        }
        let slot = self.slots.get(flat).ok_or_else(|| {
            PliniusError::MirrorMismatch(format!("no tensor at flat index {flat}"))
        })?;
        if out.len() < slot.sealed_len {
            return Err(PliniusError::MirrorMismatch(format!(
                "output buffer of {} bytes cannot hold the {}-byte sealed tensor",
                out.len(),
                slot.sealed_len
            )));
        }
        let slot_idx = (epoch % self.ring_depth as u64) as usize;
        seqlock_read(
            ctx,
            format_args!("ring slot {slot_idx}"),
            || self.meta_entry(ctx, slot_idx),
            |before, _| {
                if before.0 != epoch {
                    return Err(PliniusError::EpochNotRetained(epoch));
                }
                Ok(ctx.romulus().read_bytes_into(
                    self.tensor_ptrs[flat][slot_idx],
                    &mut out[..slot.sealed_len],
                )?)
            },
        )?;
        Ok(slot.sealed_len)
    }

    /// The flat per-tensor layout (layer-major): the VFS's view of what is sealed.
    pub(crate) fn slot_layout(&self) -> &[TensorSlot] {
        &self.slots
    }

    /// Total sealed-arena size in bytes (the sum of every tensor's sealed length).
    pub(crate) fn arena_len(&self) -> usize {
        self.slots.iter().map(|s| s.sealed_len).sum()
    }

    /// Commits a pre-sealed arena (layer-major concatenation of sealed tensor
    /// blobs, exactly [`MirrorModel::arena_len`] bytes) as the next epoch through the
    /// publish routine of every save: the join of a pipelined save, and the import
    /// half of the VFS's sealed export/import path. The caller has already
    /// authenticated the blobs.
    pub(crate) fn commit_sealed_arena(
        &self,
        ctx: &PliniusContext,
        arena: &[u8],
        iteration: u64,
    ) -> Result<u64, PliniusError> {
        if arena.len() != self.arena_len() {
            return Err(PliniusError::MirrorMismatch(format!(
                "sealed arena of {} bytes does not match the mirror's {}-byte layout",
                arena.len(),
                self.arena_len()
            )));
        }
        self.publish(ctx, iteration, |_, slot, dst| {
            dst.copy_from_slice(&arena[slot.sealed()]);
            Ok(())
        })
    }

    // --------------------------------------------------------- pipelined mirror-out

    /// Joins the in-flight publish, if any: waits for the background sealing to
    /// finish, credits the sealing time hidden behind the main lane
    /// ([`SimSpan::overlap`]), and durably commits the sealed snapshot as the next
    /// epoch.
    fn join_inflight(
        &self,
        ctx: &PliniusContext,
        state: &mut WorkingState,
    ) -> Result<Option<PublishReport>, PliniusError> {
        let Some(meta) = state.inflight.take() else {
            return Ok(None);
        };
        let clock = ctx.clock();
        let worker = state
            .worker
            .as_mut()
            .expect("a publish in flight has a worker");
        let (staging, result) = match worker.recv() {
            Ok(done) => done,
            Err(e) => {
                // The worker died with the staging buffers: the next pipelined save
                // respawns it, and the next use of the buffers rebuilds them.
                state.worker = None;
                return Err(PliniusError::Pipeline(format!(
                    "seal worker join failed: {e}"
                )));
            }
        };
        // Always hand the buffers back for reuse, even when the publish fails.
        let arena = &state.staging.insert(staging).arena;
        // The sealing lane forked at snapshot time and ran in parallel with whatever
        // the training loop charged since; only its residual shows up here.
        let seal_join = SimSpan::overlap(&clock, meta.fork_ns, meta.seal_lane_ns);
        result?;
        let (commit_result, write) = SimSpan::record(&clock, || {
            self.commit_sealed_arena(ctx, arena, meta.iteration)
        });
        let epoch = commit_result?;
        Ok(Some(PublishReport {
            iteration: meta.iteration,
            epoch,
            seal_join,
            write,
            model_bytes: meta.model_bytes,
        }))
    }

    /// Snapshot phase of a pipelined mirror-out: joins any previous in-flight publish
    /// (the pipeline is depth-1), stages the model's parameters and per-tensor IVs
    /// into a pre-allocated staging slot, and hands the expensive seal + PM publish
    /// to the background worker. Returns the publish report of the *previous*
    /// snapshot, if one was still in flight.
    ///
    /// The IVs are drawn on the calling thread, at the same position of the enclave's
    /// `sgx_read_rand` stream as a synchronous [`MirrorModel::mirror_out`] would draw
    /// them — so a pipelined run leaves bit-identical sealed bytes on PM.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::KeyNotProvisioned`] without a model key,
    /// [`PliniusError::MirrorMismatch`] if the model shape changed, or any error of
    /// the joined previous publish.
    pub fn snapshot_out(
        &self,
        ctx: &PliniusContext,
        network: &Network,
    ) -> Result<Option<PublishReport>, PliniusError> {
        let clock = ctx.clock();
        check_shape(&self.slots, network)?;
        let mut state = self.state.lock();
        let (prior, gcm, staging) = self.begin(ctx, &mut state)?;
        staging.draw_ivs(ctx);
        let model_bytes = staging.plain.len();
        staging.stage(&self.slots, network);
        // The sealing lane's modeled cost is computed now (stats recorded) but
        // charged at the join, where the overlap with the interleaved compute is
        // known.
        let seal_lane_ns = ctx.enclave().charge_crypto_offline(model_bytes as u64);
        let fork_ns = clock.now_ns();
        let iteration = network.iteration();
        let staging = state.staging.take().expect("staged above");
        // One thread: the worker *is* the parallel lane. The sealed bytes are a pure
        // function of (key, IV, AAD, plaintext), so they match the synchronous path
        // bit for bit.
        let worker = state.worker.get_or_insert_with(|| {
            let slots: Arc<[TensorSlot]> = self.slots.clone().into();
            Pipeline::spawn(
                "plinius-mirror-seal",
                move |(mut staging, gcm): (Staging, Arc<AesGcm>)| {
                    let result = staging.seal(&slots, &gcm, 1);
                    (staging, result)
                },
            )
        });
        if let Err(e) = worker.send((staging, gcm)) {
            state.worker = None;
            return Err(PliniusError::Pipeline(format!(
                "seal worker dispatch failed: {e}"
            )));
        }
        state.inflight = Some(InflightPublish {
            iteration,
            fork_ns,
            seal_lane_ns,
            model_bytes,
        });
        Ok(prior)
    }

    /// Joins and commits the in-flight publish, if any — the pipeline's *drain*
    /// point. Called by the overlapped persistence backend before restores, at the
    /// end of a training run, and on shutdown; a no-op when nothing is in flight.
    ///
    /// # Errors
    ///
    /// Propagates sealing, PM-write and worker errors of the joined publish.
    pub fn drain(&self, ctx: &PliniusContext) -> Result<Option<PublishReport>, PliniusError> {
        self.join_inflight(ctx, &mut self.state.lock())
    }

    /// Whether a snapshot is currently sealing/publishing in the background.
    pub fn has_inflight(&self) -> bool {
        self.state.lock().inflight.is_some()
    }

    /// Test hook: replaces the live seal worker with one that dies on its first job,
    /// so the worker-death recovery path (one surfaced error, then a rebuilt
    /// pipeline) can be exercised without a real sealing bug.
    #[cfg(test)]
    fn kill_seal_worker_for_test(&self) {
        self.state.lock().worker = Some(Pipeline::spawn(
            "plinius-mirror-seal-dying",
            |_job: (Staging, Arc<AesGcm>)| panic!("seal worker killed for test"),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::f32s_to_bytes;
    use plinius_crypto::{seal_into, sealed_len, CryptoError, IvSequence, Key, SealedView};
    use plinius_darknet::config::{build_network, mnist_cnn_config};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn context_with_key(pm_bytes: usize) -> PliniusContext {
        let ctx = PliniusContext::small_test(pm_bytes);
        let mut rng = StdRng::seed_from_u64(99);
        ctx.provision_key_directly(Key::generate_128(&mut rng));
        ctx
    }

    fn small_network(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        build_network(&mnist_cnn_config(2, 4, 4), &mut rng).unwrap()
    }

    fn snapshot(net: &Network) -> Vec<Vec<f32>> {
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

    #[test]
    fn allocate_mirror_out_mirror_in_round_trip() {
        let ctx = context_with_key(8 * 1024 * 1024);
        let mut net = small_network(1);
        net.set_iteration(42);
        assert!(!MirrorModel::exists(&ctx));
        let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
        assert!(MirrorModel::exists(&ctx));
        let out = mirror.mirror_out(&ctx, &net).unwrap();
        assert!(out.model_bytes > 0);
        assert!(out.total_ms() > 0.0);
        // The (possibly thread-parallel) sealing reports exactly the plaintext model
        // size and the fixed 28 B/tensor metadata overhead.
        assert_eq!(out.model_bytes, net.model_bytes());
        assert_eq!(out.metadata_bytes, mirror.metadata_bytes());
        // Restore into a differently initialised network: parameters must match exactly.
        let mut other = small_network(2);
        assert_ne!(snapshot(&net), snapshot(&other));
        let report = mirror.mirror_in(&ctx, &mut other).unwrap();
        assert_eq!(report.iteration, 42);
        assert_eq!(other.iteration(), 42);
        assert_eq!(snapshot(&net), snapshot(&other));
        assert_eq!(report.model_bytes, out.model_bytes);
    }

    /// Reads every sealed tensor blob of the committed (active) slot back out of PM,
    /// in layer/tensor order.
    fn sealed_tensor_bytes(ctx: &PliniusContext, mirror: &MirrorModel) -> Vec<Vec<Vec<u8>>> {
        let active = mirror.active_slot(ctx).unwrap();
        let mut out = vec![Vec::new(); mirror.num_layers()];
        for (flat, slot) in mirror.slots.iter().enumerate() {
            let ptr = mirror.tensor_ptrs[flat][active];
            out[slot.layer].push(ctx.romulus().read_bytes(ptr, slot.sealed_len).unwrap());
        }
        out
    }

    #[test]
    fn parallel_sealing_is_bit_identical_across_thread_counts() {
        // Two identical deployments (same pool size, same enclave RNG seed, same key,
        // same model) sealed with different thread counts must leave byte-identical
        // ciphertext+IV+MAC on PM and report identical simulated-time spans — the
        // SimSpan accounting reduces per-tensor work to the serial path's totals.
        let run = |threads: usize| {
            let ctx = context_with_key(8 * 1024 * 1024);
            let mut net = small_network(12);
            net.set_iteration(5);
            let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
            let report = mirror.mirror_out_with_threads(&ctx, &net, threads).unwrap();
            (sealed_tensor_bytes(&ctx, &mirror), report)
        };
        let (bytes_serial, report_serial) = run(1);
        let (bytes_par, report_par) = run(4);
        assert_eq!(bytes_serial, bytes_par);
        assert_eq!(report_serial, report_par);
        // And the parallel-sealed image restores exactly (round-trip through the
        // parallel decrypt path as well).
        let ctx = context_with_key(8 * 1024 * 1024);
        let mut net = small_network(12);
        net.set_iteration(5);
        let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
        mirror.mirror_out_with_threads(&ctx, &net, 4).unwrap();
        let mut restored = small_network(13);
        let report = mirror.mirror_in(&ctx, &mut restored).unwrap();
        assert_eq!(report.iteration, 5);
        assert_eq!(snapshot(&restored), snapshot(&net));
    }

    /// Pins the on-PM bytes to the seed's per-tensor formula: every sealed tensor must
    /// equal `seal_into(key.gcm(), le_bytes(tensor), "layer{i}-tensor{j}",
    /// IvSequence(batch_seed).iv(flat_index))` — i.e. the staging/arena rewrite
    /// changed no ciphertext, IV or MAC byte.
    #[test]
    fn mirror_out_bytes_match_the_per_tensor_seal_formula() {
        let (ctx, mut net) = (context_with_key(8 * 1024 * 1024), small_network(21));
        net.set_iteration(3);
        let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
        mirror.mirror_out(&ctx, &net).unwrap();
        let got = sealed_tensor_bytes(&ctx, &mirror);
        // Twin deployment: identical pool size, enclave RNG stream and key, so the IV
        // batch seed drawn below is the one the mirror-out above used.
        let (ctx2, net2) = (context_with_key(8 * 1024 * 1024), small_network(21));
        let _twin = MirrorModel::allocate(&ctx2, &net2).unwrap();
        let gcm = ctx2.key().unwrap().gcm();
        let ivs = IvSequence::from_rng(&mut ctx2.enclave_rng());
        let mut flat = 0u64;
        let mut expected: Vec<Vec<Vec<u8>>> = Vec::new();
        for (i, layer) in net2
            .layers()
            .iter()
            .filter(|l| l.is_trainable())
            .enumerate()
        {
            let mut blobs = Vec::new();
            for (j, param) in layer.params().iter().enumerate() {
                let aad = format!("layer{i}-tensor{j}");
                let plaintext = f32s_to_bytes(param.data);
                let mut blob = vec![0u8; sealed_len(plaintext.len())];
                seal_into(&gcm, &plaintext, aad.as_bytes(), &ivs.iv(flat), &mut blob).unwrap();
                blobs.push(blob);
                flat += 1;
            }
            expected.push(blobs);
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn epochs_alternate_slots_and_count_up() {
        let ctx = context_with_key(8 * 1024 * 1024);
        let mut net = small_network(30);
        let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
        let ring = mirror.ring_depth() as u64;
        assert_eq!(mirror.epoch(&ctx).unwrap(), 0);
        assert_eq!(mirror.active_slot(&ctx).unwrap(), 0);
        assert_eq!(mirror.epochs(&ctx).unwrap(), Vec::<u64>::new());
        for i in 1..=4u64 {
            net.set_iteration(i);
            mirror.mirror_out(&ctx, &net).unwrap();
            assert_eq!(mirror.epoch(&ctx).unwrap(), i);
            assert_eq!(mirror.active_slot(&ctx).unwrap(), (i % ring) as usize);
            assert_eq!(mirror.iteration(&ctx).unwrap(), i);
            let expected: Vec<u64> = (i.saturating_sub(ring - 1).max(1)..=i).collect();
            assert_eq!(mirror.epochs(&ctx).unwrap(), expected);
        }
    }

    #[test]
    fn ring_depth_below_two_is_rejected() {
        let ctx = context_with_key(1024 * 1024);
        let net = small_network(31);
        for ring in [0usize, 1] {
            assert!(matches!(
                MirrorModel::allocate_with_ring(&ctx, &net, ring).unwrap_err(),
                PliniusError::InvalidConfig(_)
            ));
        }
    }

    #[test]
    fn deeper_ring_retains_and_restores_old_epochs() {
        let ctx = context_with_key(16 * 1024 * 1024);
        let mut net = small_network(32);
        let mirror = MirrorModel::allocate_with_ring(&ctx, &net, 4).unwrap();
        assert_eq!(mirror.ring_depth(), 4);
        // Commit 6 epochs with distinguishable weights: mutate one parameter per
        // epoch so every epoch's plaintext is unique.
        let mut weight_tags = Vec::new();
        for i in 1..=6u64 {
            net.set_iteration(i);
            let tag = i as f32 * 0.5;
            let layer = net
                .layers_mut()
                .iter_mut()
                .find(|l| l.is_trainable())
                .unwrap();
            let mut tensors: Vec<Vec<f32>> =
                layer.params().iter().map(|p| p.data.to_vec()).collect();
            tensors[0][0] = tag;
            layer.set_params(&tensors);
            weight_tags.push(tag);
            mirror.mirror_out(&ctx, &net).unwrap();
        }
        // The 4 newest epochs are retained; 1 and 2 are evicted.
        assert_eq!(mirror.epochs(&ctx).unwrap(), vec![3, 4, 5, 6]);
        for old in [1u64, 2] {
            assert!(matches!(
                mirror.restore_epoch(&ctx, &mut net, old).unwrap_err(),
                PliniusError::EpochNotRetained(e) if e == old
            ));
            assert!(matches!(
                mirror.epoch_iteration(&ctx, old).unwrap_err(),
                PliniusError::EpochNotRetained(_)
            ));
        }
        // Every retained epoch restores its own weights and iteration.
        for e in 3..=6u64 {
            assert_eq!(mirror.epoch_iteration(&ctx, e).unwrap(), e);
            let mut restored = small_network(33);
            let report = mirror.restore_epoch(&ctx, &mut restored, e).unwrap();
            assert_eq!(report.epoch, e);
            assert_eq!(report.iteration, e);
            assert_eq!(restored.iteration(), e);
            let first = restored
                .layers()
                .iter()
                .find(|l| l.is_trainable())
                .unwrap()
                .params()[0]
                .data[0];
            assert_eq!(first, weight_tags[(e - 1) as usize]);
        }
        // mirror_in still opens the newest epoch.
        let mut newest = small_network(34);
        let report = mirror.mirror_in(&ctx, &mut newest).unwrap();
        assert_eq!(report.epoch, 6);
        assert_eq!(report.iteration, 6);
    }

    #[test]
    fn sealed_bytes_are_identical_for_every_ring_depth() {
        // Twin deployments, same enclave RNG stream, same key, same model — only
        // the ring depth differs. The sealed blobs of the committed epoch must be
        // byte-for-byte identical: ciphertext is a pure function of
        // (key, IV, AAD, plaintext), independent of the PM slot layout.
        let run = |ring: usize| {
            let ctx = context_with_key(16 * 1024 * 1024);
            let mut net = small_network(35);
            net.set_iteration(4);
            let mirror = MirrorModel::allocate_with_ring(&ctx, &net, ring).unwrap();
            mirror.mirror_out(&ctx, &net).unwrap();
            sealed_tensor_bytes(&ctx, &mirror)
        };
        let two = run(2);
        assert_eq!(two, run(4));
        assert_eq!(two, run(8));
    }

    #[test]
    fn pipelined_mirror_out_matches_the_sync_path_bit_for_bit() {
        // Twin deployments, same enclave RNG stream: one saves synchronously, the
        // other through snapshot_out + drain. Committed epoch contents, header state
        // and restored weights must be identical; only timing may differ.
        let run_sync = || {
            let ctx = context_with_key(8 * 1024 * 1024);
            let mut net = small_network(40);
            net.set_iteration(9);
            let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
            mirror.mirror_out(&ctx, &net).unwrap();
            (sealed_tensor_bytes(&ctx, &mirror), ctx, mirror)
        };
        let run_pipelined = || {
            let ctx = context_with_key(8 * 1024 * 1024);
            let mut net = small_network(40);
            net.set_iteration(9);
            let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
            let prior = mirror.snapshot_out(&ctx, &net).unwrap();
            assert!(prior.is_none());
            assert!(mirror.has_inflight());
            let report = mirror.drain(&ctx).unwrap().expect("one publish in flight");
            assert!(!mirror.has_inflight());
            assert_eq!(report.iteration, 9);
            assert_eq!(report.epoch, 1);
            assert_eq!(report.model_bytes, net.model_bytes());
            // Nothing left: drain is idempotent.
            assert!(mirror.drain(&ctx).unwrap().is_none());
            (sealed_tensor_bytes(&ctx, &mirror), ctx, mirror)
        };
        let (sync_bytes, _ctx_a, _mirror_a) = run_sync();
        let (pipe_bytes, ctx_b, mirror_b) = run_pipelined();
        assert_eq!(sync_bytes, pipe_bytes);
        assert_eq!(mirror_b.epoch(&ctx_b).unwrap(), 1);
        // And the pipelined image restores exactly.
        let mut restored = small_network(41);
        let report = mirror_b.mirror_in(&ctx_b, &mut restored).unwrap();
        assert_eq!(report.iteration, 9);
        assert_eq!(snapshot(&restored), snapshot(&small_network(40)));
    }

    #[test]
    fn overlap_join_hides_seal_time_behind_interleaved_charges() {
        let ctx = context_with_key(8 * 1024 * 1024);
        let mut net = small_network(50);
        let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
        // First cycle: nothing charged between snapshot and drain — the whole
        // modeled sealing cost surfaces at the join.
        net.set_iteration(1);
        mirror.snapshot_out(&ctx, &net).unwrap();
        let serial = mirror.drain(&ctx).unwrap().unwrap();
        let seal_ns = ctx
            .cost_model()
            .crypto_ns(net.model_bytes() as u64, ctx.enclave().working_set());
        assert_eq!(serial.seal_join.nanos(), seal_ns);
        // Second cycle: charge more than the sealing lane between snapshot and
        // drain — the join must be free (fully hidden), the write still paid.
        net.set_iteration(2);
        mirror.snapshot_out(&ctx, &net).unwrap();
        ctx.clock().advance_ns(seal_ns * 3);
        let overlapped = mirror.drain(&ctx).unwrap().unwrap();
        assert_eq!(overlapped.seal_join.nanos(), 0);
        assert!(overlapped.write.nanos() > 0);
        assert_eq!(overlapped.epoch, 2);
    }

    #[test]
    fn a_dead_seal_worker_surfaces_an_error_then_the_pipeline_recovers() {
        let ctx = context_with_key(8 * 1024 * 1024);
        let mut net = small_network(70);
        let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
        net.set_iteration(1);
        mirror.snapshot_out(&ctx, &net).unwrap();
        mirror.drain(&ctx).unwrap();
        // Kill the worker while idle: the next snapshot's seal job dies with it
        // (taking the in-flight staging buffers along).
        mirror.kill_seal_worker_for_test();
        net.set_iteration(2);
        mirror.snapshot_out(&ctx, &net).unwrap();
        let err = mirror.drain(&ctx).unwrap_err();
        assert!(matches!(err, PliniusError::Pipeline(_)), "{err}");
        // The failure must be an error, not a poisoned handle: the next snapshot
        // rebuilds the worker and fresh buffers, and publishing resumes.
        net.set_iteration(3);
        mirror.snapshot_out(&ctx, &net).unwrap();
        let report = mirror.drain(&ctx).unwrap().expect("publish in flight");
        assert_eq!(report.iteration, 3);
        assert_eq!(report.epoch, 2, "the lost publish committed nothing");
        assert_eq!(mirror.iteration(&ctx).unwrap(), 3);
    }

    #[test]
    fn a_sync_save_commits_after_the_publish_in_flight() {
        // A synchronous save through a handle whose pipelined publish is still in
        // flight joins that publish first: the older snapshot commits as the older
        // epoch, and a restore opens the newer save.
        let ctx = context_with_key(8 * 1024 * 1024);
        let mut five = small_network(90);
        five.set_iteration(5);
        let mut six = small_network(91);
        six.set_iteration(6);
        let mirror = MirrorModel::allocate(&ctx, &five).unwrap();
        mirror.snapshot_out(&ctx, &five).unwrap();
        mirror.mirror_out(&ctx, &six).unwrap();
        assert!(mirror.drain(&ctx).unwrap().is_none());
        assert_eq!(mirror.epoch(&ctx).unwrap(), 2);
        assert_eq!(mirror.epoch_iteration(&ctx, 1).unwrap(), 5);
        assert_eq!(mirror.epoch_iteration(&ctx, 2).unwrap(), 6);
        let mut restored = small_network(92);
        let report = mirror.mirror_in(&ctx, &mut restored).unwrap();
        assert_eq!((report.epoch, report.iteration), (2, 6));
        assert_eq!(snapshot(&restored), snapshot(&six));
    }

    /// Opens every tensor of the committed epoch under `key`.
    fn open_committed(
        ctx: &PliniusContext,
        mirror: &MirrorModel,
        key: &Key,
    ) -> Result<(), CryptoError> {
        let gcm = key.gcm();
        for (slot, blob) in mirror
            .slots
            .iter()
            .zip(sealed_tensor_bytes(ctx, mirror).concat())
        {
            let mut plain = vec![0u8; slot.plain_len];
            SealedView::parse(&blob)?.open_into(&gcm, &slot.aad, &mut plain)?;
        }
        Ok(())
    }

    #[test]
    fn saves_after_a_key_rotation_seal_under_the_new_key() {
        let ctx = context_with_key(8 * 1024 * 1024);
        let mut net = small_network(80);
        let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
        // Warm both save paths under the first key, then re-provision.
        mirror.mirror_out(&ctx, &net).unwrap();
        mirror.snapshot_out(&ctx, &net).unwrap();
        mirror.drain(&ctx).unwrap();
        let old = ctx.key().unwrap();
        let new = Key::generate_128(&mut StdRng::seed_from_u64(81));
        ctx.provision_key_directly(new.clone());
        for pipelined in [false, true] {
            net = small_network(82 + u64::from(pipelined));
            if pipelined {
                mirror.snapshot_out(&ctx, &net).unwrap();
                mirror.drain(&ctx).unwrap().expect("one publish in flight");
            } else {
                mirror.mirror_out(&ctx, &net).unwrap();
            }
            assert_eq!(open_committed(&ctx, &mirror, &new), Ok(()));
            let old_key = open_committed(&ctx, &mirror, &old);
            assert_eq!(old_key, Err(CryptoError::AuthenticationFailed));
            let mut restored = small_network(90);
            mirror.mirror_in(&ctx, &mut restored).unwrap();
            assert_eq!(snapshot(&restored), snapshot(&net));
        }
    }

    #[test]
    fn crash_mid_publish_recovers_the_previous_complete_epoch() {
        let ctx = context_with_key(8 * 1024 * 1024);
        let mut net = small_network(60);
        net.set_iteration(1);
        let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
        mirror.mirror_out(&ctx, &net).unwrap();
        let epoch1_bytes = sealed_tensor_bytes(&ctx, &mirror);
        // Crash in the middle of the bulk slot publish of the *next* mirror-out
        // (after 3 of the tensor writes, before the epoch flip).
        net.set_iteration(2);
        let err = {
            ctx.romulus()
                .inject_failure(plinius_romulus::FailPoint::AfterDirectPublishes(3));
            mirror.mirror_out(&ctx, &net).unwrap_err()
        };
        assert!(matches!(
            err,
            PliniusError::Romulus(plinius_romulus::RomulusError::InjectedCrash)
        ));
        // Power failure + restart over the surviving pool.
        let key = ctx.key().unwrap();
        let pool = ctx.pool().clone();
        drop((ctx, mirror));
        let mut rng = StdRng::seed_from_u64(7);
        pool.crash(&mut rng, plinius_pmem::CrashMode::ArbitraryEviction);
        let ctx2 = PliniusContext::open(pool, sim_clock::CostModel::sgx_eml_pm()).unwrap();
        ctx2.provision_key_directly(key);
        let mirror2 = MirrorModel::open(&ctx2).unwrap();
        // The previous complete epoch is intact — header, iteration and bytes.
        assert_eq!(mirror2.epoch(&ctx2).unwrap(), 1);
        assert_eq!(mirror2.iteration(&ctx2).unwrap(), 1);
        assert_eq!(sealed_tensor_bytes(&ctx2, &mirror2), epoch1_bytes);
        let mut restored = small_network(61);
        let report = mirror2.mirror_in(&ctx2, &mut restored).unwrap();
        assert_eq!(report.iteration, 1);
        assert_eq!(snapshot(&restored), snapshot(&small_network(60)));
        // And mirroring continues cleanly after recovery.
        restored.set_iteration(2);
        mirror2.mirror_out(&ctx2, &restored).unwrap();
        assert_eq!(mirror2.epoch(&ctx2).unwrap(), 2);
    }

    #[test]
    fn crash_inside_the_epoch_flip_recovers_the_previous_epoch() {
        let ctx = context_with_key(8 * 1024 * 1024);
        let mut net = small_network(62);
        net.set_iteration(1);
        let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
        mirror.mirror_out(&ctx, &net).unwrap();
        let epoch1_bytes = sealed_tensor_bytes(&ctx, &mirror);
        // Crash after the first store of the flip transaction (iteration written,
        // epoch/active not yet): Romulus recovery must roll the header back.
        net.set_iteration(2);
        ctx.romulus()
            .inject_failure(plinius_romulus::FailPoint::AfterStores(1));
        assert!(mirror.mirror_out(&ctx, &net).is_err());
        let key = ctx.key().unwrap();
        let pool = ctx.pool().clone();
        drop((ctx, mirror));
        let mut rng = StdRng::seed_from_u64(8);
        pool.crash(&mut rng, plinius_pmem::CrashMode::DropUnflushed);
        let ctx2 = PliniusContext::open(pool, sim_clock::CostModel::sgx_eml_pm()).unwrap();
        ctx2.provision_key_directly(key);
        let mirror2 = MirrorModel::open(&ctx2).unwrap();
        assert_eq!(mirror2.epoch(&ctx2).unwrap(), 1);
        assert_eq!(mirror2.iteration(&ctx2).unwrap(), 1);
        assert_eq!(sealed_tensor_bytes(&ctx2, &mirror2), epoch1_bytes);
    }

    /// Installs a hook that tears the reader's read: on the first attempt it publishes
    /// `publish`, if given, through a cloned handle, then overwrites the first 16 bytes
    /// of the slot the reader is about to open.
    fn tear_first_read(ctx: &PliniusContext, reader: &MirrorModel, publish: Option<Network>) {
        let (hook_ctx, publisher, mut publish) = (ctx.clone(), reader.clone(), publish);
        let torn = reader.tensor_ptrs[0][reader.active_slot(ctx).unwrap()];
        reader.set_torn_read_hook(Some(Box::new(move |attempt| {
            if attempt == 0 {
                if let Some(net) = publish.take() {
                    publisher.mirror_out(&hook_ctx, &net).unwrap();
                }
                hook_ctx
                    .romulus()
                    .publish_region(torn, &[0xA5; 16])
                    .unwrap();
            }
        })));
    }

    #[test]
    fn a_torn_blob_is_a_retry_when_the_header_moved() {
        let ctx = context_with_key(8 * 1024 * 1024);
        let mut old = small_network(100);
        old.set_iteration(1);
        let mirror = MirrorModel::allocate(&ctx, &old).unwrap();
        mirror.mirror_out(&ctx, &old).unwrap();
        let mut new = small_network(101);
        new.set_iteration(2);
        tear_first_read(&ctx, &mirror, Some(new.clone()));
        let retries = ctx.stats().get(Metric::MirrorTornReadRetries);
        let mut restored = small_network(102);
        let report = mirror.mirror_in(&ctx, &mut restored).unwrap();
        assert_eq!((report.epoch, report.iteration), (2, 2));
        assert_eq!(snapshot(&restored), snapshot(&new));
        assert_eq!(ctx.stats().get(Metric::MirrorTornReadRetries), retries + 1);
    }

    #[test]
    fn a_torn_blob_is_an_error_when_the_header_held() {
        let ctx = context_with_key(8 * 1024 * 1024);
        let mut old = small_network(103);
        old.set_iteration(1);
        let mirror = MirrorModel::allocate(&ctx, &old).unwrap();
        mirror.mirror_out(&ctx, &old).unwrap();
        tear_first_read(&ctx, &mirror, None);
        let retries = ctx.stats().get(Metric::MirrorTornReadRetries);
        let mut restored = small_network(104);
        restored.set_iteration(7);
        let untouched = snapshot(&restored);
        let err = mirror.mirror_in(&ctx, &mut restored).unwrap_err();
        assert!(
            matches!(err, PliniusError::Crypto(CryptoError::AuthenticationFailed)),
            "{err}"
        );
        assert_eq!(snapshot(&restored), untouched);
        assert_eq!(restored.iteration(), 7);
        assert_eq!(ctx.stats().get(Metric::MirrorTornReadRetries), retries);
    }

    #[test]
    fn metadata_overhead_is_140_bytes_per_layer() {
        let ctx = context_with_key(8 * 1024 * 1024);
        let net = small_network(3);
        let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
        assert_eq!(mirror.metadata_bytes(), mirror.num_layers() * 140);
    }

    #[test]
    fn mirror_survives_context_reopen() {
        let ctx = context_with_key(8 * 1024 * 1024);
        let mut net = small_network(4);
        net.set_iteration(7);
        let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
        mirror.mirror_out(&ctx, &net).unwrap();
        let key = ctx.key().unwrap();
        let pool = ctx.pool().clone();
        drop((ctx, mirror));
        // "Restart": new enclave over the same pool, key re-provisioned via attestation
        // (provisioned directly here).
        let ctx2 = PliniusContext::open(pool, sim_clock::CostModel::sgx_eml_pm()).unwrap();
        ctx2.provision_key_directly(key);
        let mirror2 = MirrorModel::open(&ctx2).unwrap();
        let mut restored = small_network(5);
        let report = mirror2.mirror_in(&ctx2, &mut restored).unwrap();
        assert_eq!(report.iteration, 7);
        assert_eq!(snapshot(&restored), snapshot(&small_network(4)));
    }

    #[test]
    fn wrong_key_fails_authentication() {
        let ctx = context_with_key(8 * 1024 * 1024);
        let net = small_network(6);
        let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
        mirror.mirror_out(&ctx, &net).unwrap();
        let mut rng = StdRng::seed_from_u64(1234);
        ctx.provision_key_directly(Key::generate_128(&mut rng));
        let mut other = small_network(7);
        assert!(matches!(
            mirror.mirror_in(&ctx, &mut other).unwrap_err(),
            PliniusError::Crypto(plinius_crypto::CryptoError::AuthenticationFailed)
        ));
    }

    #[test]
    fn mismatched_model_is_rejected() {
        let ctx = context_with_key(8 * 1024 * 1024);
        let net = small_network(8);
        let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
        mirror.mirror_out(&ctx, &net).unwrap();
        // A deeper network does not fit the mirror.
        let mut rng = StdRng::seed_from_u64(9);
        let mut deeper = build_network(&mnist_cnn_config(3, 4, 4), &mut rng).unwrap();
        assert!(matches!(
            mirror.mirror_in(&ctx, &mut deeper).unwrap_err(),
            PliniusError::MirrorMismatch(_)
        ));
        assert!(matches!(
            mirror.mirror_out(&ctx, &deeper).unwrap_err(),
            PliniusError::MirrorMismatch(_)
        ));
    }

    #[test]
    fn open_without_mirror_errors() {
        let ctx = context_with_key(512 * 1024);
        assert!(matches!(
            MirrorModel::open(&ctx).unwrap_err(),
            PliniusError::NoMirrorModel
        ));
    }

    /// Allocates a mirror for a small network, publishes a `u64` over its PM as a host
    /// that owns PM could (`plant` picks the address and the value), and opens it again.
    fn open_planted(plant: impl Fn(&MirrorModel) -> (PmPtr, u64)) -> PliniusError {
        let ctx = context_with_key(8 * 1024 * 1024);
        let mirror = MirrorModel::allocate(&ctx, &small_network(11)).unwrap();
        let (at, value) = plant(&mirror);
        ctx.romulus()
            .publish_region(at, &value.to_le_bytes())
            .unwrap();
        MirrorModel::open(&ctx).unwrap_err()
    }

    #[test]
    fn a_host_layer_count_past_the_region_is_rejected_on_open() {
        for layers in [1 << 62, u64::MAX] {
            let err = open_planted(|m| (m.header.add(8), layers));
            assert!(matches!(err, PliniusError::MirrorMismatch(_)), "{err}");
        }
    }

    #[test]
    fn a_host_tensor_count_is_rejected_on_open() {
        for tensors in [1 << 62, 0, 4, 6] {
            let err = open_planted(|m| (m.layer_nodes[0].add(8), tensors));
            assert!(matches!(err, PliniusError::MirrorMismatch(_)), "{err}");
        }
    }

    #[test]
    fn a_host_node_pointer_that_overflows_is_out_of_region() {
        let err = open_planted(|m| (m.header.add(16), u64::MAX - 4));
        assert!(
            matches!(
                err,
                PliniusError::Romulus(plinius_romulus::RomulusError::OutOfRegion { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn a_host_cycle_in_the_layer_list_is_rejected_on_open() {
        // The first node's next pointer is the node itself.
        let err = open_planted(|m| (m.layer_nodes[0], m.layer_nodes[0].offset()));
        assert!(matches!(err, PliniusError::MirrorMismatch(_)), "{err}");
    }

    #[test]
    fn host_sealed_lengths_past_the_region_are_rejected_on_open() {
        for len in [8 * 1024 * 1024 + 1, 1 << 62] {
            // The first tensor's sealed length follows its ring of slot pointers.
            let err = open_planted(|m| (m.layer_nodes[0].add(16 + 8 * m.ring_depth as u64), len));
            assert!(matches!(err, PliniusError::MirrorMismatch(_)), "{err}");
        }
    }

    #[test]
    fn missing_key_is_reported() {
        let ctx = PliniusContext::small_test(8 * 1024 * 1024);
        let net = small_network(10);
        let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
        assert!(matches!(
            mirror.mirror_out(&ctx, &net).unwrap_err(),
            PliniusError::KeyNotProvisioned
        ));
    }
}
