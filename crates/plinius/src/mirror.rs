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
//! each ring slot holds. Every mirror-out seals the model and bulk-publishes it into
//! the slot **after** the active one with unlogged direct twin writes
//! ([`plinius_romulus::Romulus::publish_region`]), then commits `[iteration, epoch+1,
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
//! * **snapshot** — cheap: copy the parameters (and draw the per-tensor IVs) into one
//!   of two pre-allocated staging slots;
//! * **publish** — expensive: AES-GCM-seal the staged plaintext and commit it to the
//!   inactive PM slot.
//!
//! [`MirrorModel::mirror_out`] runs both phases synchronously.
//! [`MirrorModel::snapshot_out`] runs only the snapshot and hands the publish to a
//! background worker ([`plinius_parallel::Pipeline`]); [`MirrorModel::drain`] joins it
//! at the next pipeline point, crediting the sealing time that was hidden behind the
//! compute charged in between ([`SimSpan::overlap`]), so the steady-state simulated
//! overhead approaches `max(compute, mirror)` instead of `compute + mirror`. Sealed
//! bytes, committed epochs and restored weights are bit-identical between the two
//! paths; only timing differs.
//!
//! A *mirror-in* (model restore) reads the active slot's encrypted buffers from PM
//! into the enclave and decrypts them into the enclave model.
//!
//! # Consistent snapshot reads
//!
//! A reader concurrent with a publish flip (an inference server hot-loading epochs
//! while the trainer keeps mirroring, or a recovering process racing a surviving
//! writer) must never mix tensors of one epoch with the iteration tag of another.
//! [`MirrorModel::mirror_in`] therefore performs a seqlock-style read: load the full
//! header `[iteration, epoch, active_slot]`, read the active slot's sealed buffers,
//! re-read the header, and retry if anything moved. The epoch counter is strictly
//! monotonic (every commit increments it by exactly one), so an unchanged header
//! brackets an untouched slot — publishes only ever write the *inactive* slot, and
//! reaching the active slot again requires at least one more epoch flip. Retries are
//! counted in the `mirror.torn_read_retries` statistic.

use crate::knobs::Knobs;
use crate::{bytes_to_f32s, f32s_to_bytes_into, PliniusContext, PliniusError};
use parking_lot::Mutex;
use plinius_crypto::{
    seal_into_with_threads, AesGcm, CryptoError, IvSequence, SealedView, IV_LEN, SEAL_OVERHEAD,
};
use plinius_darknet::Network;
use plinius_parallel::Pipeline;
use plinius_romulus::PmPtr;
use sim_clock::SimSpan;
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

/// Report of one mirror-out (model save): the Fig. 7 "Save" breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MirrorOutReport {
    /// Simulated time spent encrypting parameters inside the enclave.
    pub encrypt: SimSpan,
    /// Simulated time spent writing the encrypted buffers to PM (durable transaction).
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

/// Report of one mirror-in (model restore): the Fig. 7 "Restore" breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MirrorInReport {
    /// Simulated time spent reading encrypted buffers from PM into the enclave.
    pub read: SimSpan,
    /// Simulated time spent decrypting inside the enclave.
    pub decrypt: SimSpan,
    /// Training iteration recovered from the mirror.
    pub iteration: u64,
    /// Committed epoch the restored tensors belong to (0 before the first
    /// mirror-out).
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

/// Report of the snapshot phase of a pipelined mirror-out: the cheap in-enclave copy
/// that decouples the training loop from the expensive seal + PM publish.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotReport {
    /// Simulated time of the staging copy (parameters → staging slot).
    pub staged: SimSpan,
    /// Plaintext model bytes staged.
    pub model_bytes: usize,
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

impl PublishReport {
    /// Simulated mirroring overhead this publish added to the training timeline, in
    /// milliseconds: the non-overlapped sealing residual plus the durable write.
    pub fn overhead_ms(&self) -> f64 {
        self.seal_join.millis() + self.write.millis()
    }
}

/// Position of one parameter tensor inside the mirror's reusable staging buffers, plus
/// everything that is constant per tensor across iterations (the AAD in particular,
/// which the seed code re-`format!`ted for every tensor of every iteration).
#[derive(Debug, Clone)]
pub(crate) struct TensorSlot {
    /// Trainable-layer index this tensor belongs to.
    pub(crate) layer: usize,
    /// Tensor index within its layer.
    pub(crate) tensor: usize,
    /// Byte offset of the plaintext in the staging buffer.
    pub(crate) plain_off: usize,
    /// Plaintext length in bytes.
    pub(crate) plain_len: usize,
    /// Byte offset of the sealed blob (ciphertext ‖ IV ‖ MAC) in the arena.
    pub(crate) sealed_off: usize,
    /// Sealed length in bytes (`plain_len + SEAL_OVERHEAD`).
    pub(crate) sealed_len: usize,
    /// Precomputed additional authenticated data (`layer{i}-tensor{j}`).
    pub(crate) aad: Vec<u8>,
}

/// Reusable cryptographic scratch of one mirror: everything the steady-state
/// mirror-out/mirror-in loop needs so that the encryption phase performs **no heap
/// allocation after warm-up** (with serial sealing; thread fan-out adds only the
/// O(#tensors) dispatch buffers).
struct MirrorScratch {
    /// Raw bytes of the key the cached GCM context was built for, to detect
    /// re-provisioning.
    key_bytes: Vec<u8>,
    /// Cached AES-GCM context (key schedule + GHASH tables + selected engine), shared
    /// with the enclave's per-key cache (expensive to rebuild per tensor).
    gcm: Arc<AesGcm>,
    /// Plaintext staging buffer: all tensors contiguous in slot order.
    plain: Vec<u8>,
    /// Sealed-blob arena: all sealed tensors contiguous in slot order.
    arena: Vec<u8>,
    /// Per-tensor IVs of the current sealing batch.
    ivs: Vec<[u8; IV_LEN]>,
}

/// One set of pre-allocated staging buffers of the pipelined mirror-out: the snapshot
/// phase fills `plain` + `ivs`, the background worker seals into `arena`. Two sets
/// rotate (one possibly in flight, one spare), so the steady state allocates nothing.
struct SealBuffers {
    plain: Vec<u8>,
    arena: Vec<u8>,
    ivs: Vec<[u8; IV_LEN]>,
}

/// A staged snapshot travelling to the background sealing worker.
struct SealJob {
    bufs: SealBuffers,
}

/// A sealed snapshot travelling back: the buffers are always returned (even on error)
/// so they can be reused as the next spare set.
struct SealDone {
    bufs: SealBuffers,
    result: Result<(), CryptoError>,
}

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

/// The lazily built background-publish machinery of one mirror handle.
struct MirrorPipeline {
    /// Single background worker sealing staged snapshots.
    worker: Pipeline<SealJob, SealDone>,
    /// Raw bytes of the key the worker's GCM context was built for.
    key_bytes: Vec<u8>,
    /// The staging-buffer set not currently in flight.
    spare: Option<SealBuffers>,
    /// The publish currently in flight, if any (the pipeline is depth-1).
    inflight: Option<InflightPublish>,
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

/// Handle to the persistent mirror of one enclave model.
pub struct MirrorModel {
    header: PmPtr,
    /// The per-slot ring-meta table: `ring_depth x [epoch, iteration]`.
    meta: PmPtr,
    /// Number of ring slots per tensor (`>= 2`), fixed at allocation time.
    ring_depth: usize,
    layer_nodes: Vec<PmPtr>,
    /// Sealed length of every tensor of every layer, in layer order.
    sealed_lens: Vec<Vec<usize>>,
    /// Flat per-tensor layout (layer-major), fixed at allocate/open time.
    slots: Vec<TensorSlot>,
    /// The `ring_depth` PM buffers of every tensor, in `slots` order.
    tensor_ptrs: Vec<Vec<PmPtr>>,
    /// Lazily built reusable scratch; `Mutex` keeps `mirror_out(&self)` callable from
    /// the existing persistence backends while the buffers are reused in place.
    scratch: Mutex<Option<MirrorScratch>>,
    /// Lazily built background-publish pipeline (overlapped mode only).
    pipeline: Mutex<Option<MirrorPipeline>>,
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
        // The scratch, pipeline and fault hook are per-handle working state: a clone
        // starts cold.
        MirrorModel {
            header: self.header,
            meta: self.meta,
            ring_depth: self.ring_depth,
            layer_nodes: self.layer_nodes.clone(),
            sealed_lens: self.sealed_lens.clone(),
            slots: self.slots.clone(),
            tensor_ptrs: self.tensor_ptrs.clone(),
            scratch: Mutex::new(None),
            pipeline: Mutex::new(None),
            torn_read_hook: Mutex::new(None),
        }
    }
}

/// Fans a fallible per-slot operation out across threads: `buf` is carved into one
/// disjoint `&mut` slice per slot (sequential, sized by `len_of`) and `f(slot_index,
/// slice)` runs on up to `threads` workers. The first error surfaces in slot order.
/// Shared scaffolding of the seal (arena) and open (staging) phases.
fn par_slot_slices(
    slots: &[TensorSlot],
    buf: &mut [u8],
    len_of: impl Fn(&TensorSlot) -> usize,
    threads: usize,
    f: impl Fn(usize, &mut [u8]) -> Result<(), CryptoError> + Sync,
) -> Result<(), PliniusError> {
    struct SlotTask<'a> {
        idx: usize,
        out: &'a mut [u8],
        result: Result<(), CryptoError>,
    }
    let mut tasks: Vec<SlotTask<'_>> = Vec::with_capacity(slots.len());
    let mut rest: &mut [u8] = buf;
    for (idx, slot) in slots.iter().enumerate() {
        let (head, tail) = rest.split_at_mut(len_of(slot));
        tasks.push(SlotTask {
            idx,
            out: head,
            result: Ok(()),
        });
        rest = tail;
    }
    plinius_parallel::par_for_each_mut(&mut tasks, threads, |_, task| {
        task.result = f(task.idx, task.out);
    });
    for task in tasks {
        task.result?;
    }
    Ok(())
}

/// Builds the flat tensor layout (and precomputes every AAD) from the per-layer sealed
/// lengths.
fn build_slots(sealed_lens: &[Vec<usize>]) -> Result<Vec<TensorSlot>, PliniusError> {
    let mut slots = Vec::new();
    let (mut plain_off, mut sealed_off) = (0usize, 0usize);
    for (i, layer) in sealed_lens.iter().enumerate() {
        for (j, &sealed_len) in layer.iter().enumerate() {
            let plain_len = sealed_len.checked_sub(SEAL_OVERHEAD).ok_or_else(|| {
                PliniusError::MirrorMismatch(format!(
                    "sealed tensor length {sealed_len} is shorter than the {SEAL_OVERHEAD}-byte trailer"
                ))
            })?;
            slots.push(TensorSlot {
                layer: i,
                tensor: j,
                plain_off,
                plain_len,
                sealed_off,
                sealed_len,
                aad: format!("layer{i}-tensor{j}").into_bytes(),
            });
            plain_off += plain_len;
            sealed_off += sealed_len;
        }
    }
    Ok(slots)
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
        let layer_tensor_lens: Vec<Vec<usize>> = network
            .layers()
            .iter()
            .filter(|l| l.is_trainable())
            .map(|l| {
                l.params()
                    .iter()
                    .map(|p| p.data.len() * 4 + SEAL_OVERHEAD)
                    .collect()
            })
            .collect();
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
            sealed_lens: layer_tensor_lens,
            slots,
            tensor_ptrs,
            scratch: Mutex::new(None),
            pipeline: Mutex::new(None),
            torn_read_hook: Mutex::new(None),
        })
    }

    /// Opens an existing mirror (after a restart), walking the persistent linked list.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::NoMirrorModel`] if no mirror exists.
    pub fn open(ctx: &PliniusContext) -> Result<Self, PliniusError> {
        let header = ctx.romulus().root(ctx.model_root())?;
        if header.is_null() {
            return Err(PliniusError::NoMirrorModel);
        }
        let rom = ctx.romulus();
        let num_layers = rom.read_u64(header.add(8))? as usize;
        let ring = rom.read_u64(header.add(HDR_RING))? as usize;
        if !(2..=65_536).contains(&ring) {
            return Err(PliniusError::MirrorMismatch(format!(
                "implausible ring depth {ring} in the mirror header"
            )));
        }
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
        let mut cursor = PmPtr::from_offset(rom.read_u64(header.add(16))?);
        while !cursor.is_null() {
            let num_tensors = rom.read_u64(cursor.add(8))? as usize;
            let mut lens = Vec::with_capacity(num_tensors);
            for j in 0..num_tensors {
                let field = cursor.add(16 + (j as u64) * stride);
                let mut ring_ptrs = Vec::with_capacity(ring);
                for s in 0..ring {
                    ring_ptrs.push(PmPtr::from_offset(rom.read_u64(field.add((s * 8) as u64))?));
                }
                lens.push(rom.read_u64(field.add((ring * 8) as u64))? as usize);
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
            sealed_lens,
            slots,
            tensor_ptrs,
            scratch: Mutex::new(None),
            pipeline: Mutex::new(None),
            torn_read_hook: Mutex::new(None),
        })
    }

    /// Returns the warm scratch, (re)building it if absent or if the enclave's model
    /// key changed since the cached GCM context was derived. The key comparison
    /// borrows the stored key ([`plinius_sgx::Enclave::with_key`]) so the steady-state
    /// path clones nothing.
    fn ensure_scratch<'a>(
        &self,
        ctx: &PliniusContext,
        guard: &'a mut Option<MirrorScratch>,
    ) -> Result<&'a mut MirrorScratch, PliniusError> {
        let stale = match guard.as_ref() {
            Some(s) => !ctx
                .enclave()
                .with_key(ctx.key_name(), |k| k.as_bytes() == s.key_bytes.as_slice())
                .ok_or(PliniusError::KeyNotProvisioned)?,
            None => true,
        };
        if stale {
            let key = ctx.key()?;
            let gcm = ctx.gcm()?;
            match guard.as_mut() {
                Some(s) => {
                    s.gcm = gcm;
                    s.key_bytes.clear();
                    s.key_bytes.extend_from_slice(key.as_bytes());
                }
                None => {
                    let plain_total = self.slots.iter().map(|s| s.plain_len).sum();
                    let sealed_total = self.slots.iter().map(|s| s.sealed_len).sum();
                    *guard = Some(MirrorScratch {
                        key_bytes: key.as_bytes().to_vec(),
                        gcm,
                        plain: vec![0u8; plain_total],
                        arena: vec![0u8; sealed_total],
                        ivs: vec![[0u8; IV_LEN]; self.slots.len()],
                    });
                }
            }
        }
        Ok(guard.as_mut().expect("scratch built above"))
    }

    /// Number of mirrored (trainable) layers.
    pub fn num_layers(&self) -> usize {
        self.layer_nodes.len()
    }

    /// Bytes of per-layer encryption metadata stored on PM (28 B per tensor, 140 B per
    /// layer with five tensors), as accounted in §VI of the paper.
    pub fn metadata_bytes(&self) -> usize {
        self.sealed_lens
            .iter()
            .map(|l| l.len() * SEAL_OVERHEAD)
            .sum()
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
    /// holds this handle's scratch lock while the hook runs, so publishing through
    /// the same handle would deadlock.
    pub fn set_torn_read_hook(&self, hook: Option<Box<dyn FnMut(u64) + Send>>) {
        *self.torn_read_hook.lock() = hook;
    }

    /// Publishes the sealed arena into the ring slot after the active one with
    /// direct twin writes, then atomically commits `[iteration, epoch+1, advance,
    /// slot-meta]` in one small Romulus transaction. The target slot's meta entry
    /// is invalidated *before* its tensors are overwritten, so a crash anywhere in
    /// the publish recovers the newest complete epoch and never lists the
    /// half-overwritten evictee. Returns the committed epoch number.
    fn commit_arena(
        &self,
        ctx: &PliniusContext,
        arena: &[u8],
        iteration: u64,
    ) -> Result<u64, PliniusError> {
        let rom = ctx.romulus();
        let active = self.active_slot(ctx)?;
        let epoch = rom.read_u64(self.header.add(HDR_EPOCH))?;
        let target = (active + 1) % self.ring_depth;
        rom.publish_region(self.meta_entry_ptr(target), &META_INVALID)?;
        for (idx, slot) in self.slots.iter().enumerate() {
            rom.publish_region(
                self.tensor_ptrs[idx][target],
                &arena[slot.sealed_off..slot.sealed_off + slot.sealed_len],
            )?;
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
    /// The per-tensor AES-GCM sealing of independent tensors runs across scoped threads
    /// (worker count from [`plinius_parallel::max_threads`], override with
    /// `PLINIUS_THREADS`); the sealed bytes and the [`MirrorOutReport`] — including its
    /// simulated-time spans — are identical for every thread count.
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
    /// bit-identical for every `threads` value.
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
        self.check_model_shape(network)?;
        let mut guard = self.scratch.lock();
        let scratch = self.ensure_scratch(ctx, &mut guard)?;
        // The IV sequence is seeded from one `sgx_read_rand` draw (exactly as many as
        // the serial path used) and hands every tensor its IV by *slot index*, so the
        // sealed bytes do not depend on the thread schedule.
        let ivs = IvSequence::from_rng(&mut ctx.enclave_rng());
        for (idx, iv) in scratch.ivs.iter_mut().enumerate() {
            *iv = ivs.iv(idx as u64);
        }
        let mut model_bytes = 0usize;
        // Phase 1: in-enclave encryption of every parameter tensor, staged through and
        // sealed into the reusable scratch — no heap allocation in the steady state.
        let (seal_result, encrypt) = SimSpan::record(&clock, || {
            // SimSpan accounting stays deterministic: each tensor's modeled crypto cost
            // is charged serially in slot order (same per-tensor charges, hence the
            // same simulated-time total as the serial path), then the real sealing work
            // fans out across threads.
            for slot in &self.slots {
                model_bytes += slot.plain_len;
                ctx.enclave().charge_crypto(slot.plain_len as u64);
            }
            Self::stage_and_seal(&self.slots, scratch, network, threads)
        });
        seal_result?;
        // Phase 2: bulk-publish the sealed arena into the inactive slot and commit
        // the epoch flip durably.
        let arena = &scratch.arena;
        let (write_result, write) = SimSpan::record(&clock, || {
            self.commit_arena(ctx, arena, network.iteration())
        });
        write_result?;
        Ok(MirrorOutReport {
            encrypt,
            write,
            model_bytes,
            metadata_bytes: self.metadata_bytes(),
        })
    }

    /// Verifies that `network`'s trainable layers and tensor sizes match this mirror's
    /// fixed layout (the staging buffers are sized at allocate/open time).
    fn check_model_shape(&self, network: &Network) -> Result<(), PliniusError> {
        let mut trainable = 0usize;
        let mut slot_iter = self.slots.iter();
        for layer in network.layers().iter() {
            let Some(views) = layer.param_views() else {
                continue;
            };
            trainable += 1;
            for view in views {
                match slot_iter.next() {
                    Some(slot) if slot.plain_len == view.data.len() * 4 => {}
                    Some(slot) => {
                        return Err(PliniusError::MirrorMismatch(format!(
                            "layer {}: tensor of {} bytes does not fit mirror slot of {} bytes",
                            slot.layer,
                            view.data.len() * 4,
                            slot.plain_len
                        )))
                    }
                    None => {
                        return Err(PliniusError::MirrorMismatch(format!(
                            "enclave model has {trainable} or more trainable layers, mirror has {}",
                            self.layer_nodes.len()
                        )))
                    }
                }
            }
        }
        if trainable != self.layer_nodes.len() {
            return Err(PliniusError::MirrorMismatch(format!(
                "enclave model has {trainable} trainable layers, mirror has {}",
                self.layer_nodes.len()
            )));
        }
        Ok(())
    }

    /// Copies every trainable tensor's parameters into the staging buffer, in slot
    /// order. The caller has already verified the model shape.
    fn stage_plaintext(slots: &[TensorSlot], plain: &mut [u8], network: &Network) {
        let mut slot_iter = slots.iter();
        for layer in network.layers().iter() {
            let Some(views) = layer.param_views() else {
                continue;
            };
            for view in views {
                let slot = slot_iter.next().expect("shape checked");
                f32s_to_bytes_into(
                    view.data,
                    &mut plain[slot.plain_off..slot.plain_off + slot.plain_len],
                );
            }
        }
    }

    /// Phase-1 worker: stages every tensor's plaintext into the scratch and seals it
    /// into the arena.
    ///
    /// * `threads <= 1`: fully serial, zero heap allocations after warm-up.
    /// * many tensors: fan out across tensors (each tensor sealed serially on one
    ///   worker) — the layout mirrors the seed's per-tensor parallelism.
    /// * few large tensors: seal serially in slot order but fan the CTR keystream of
    ///   each tensor out across threads (chunked at counter boundaries).
    ///
    /// All three produce bit-identical sealed bytes: the ciphertext of a tensor is a
    /// pure function of `(key, IV, AAD, plaintext)` regardless of chunking.
    fn stage_and_seal(
        slots: &[TensorSlot],
        scratch: &mut MirrorScratch,
        network: &Network,
        threads: usize,
    ) -> Result<(), PliniusError> {
        let MirrorScratch {
            gcm,
            plain,
            arena,
            ivs,
            ..
        } = scratch;
        Self::stage_plaintext(slots, plain, network);
        let threads = threads.max(1);
        if threads > 1 && slots.len() >= 2 * threads {
            // Many tensors: one worker per tensor, disjoint arena slices.
            let plain = &*plain;
            par_slot_slices(
                slots,
                arena,
                |s| s.sealed_len,
                threads,
                |idx, out| {
                    let slot = &slots[idx];
                    seal_into_with_threads(
                        gcm,
                        &plain[slot.plain_off..slot.plain_off + slot.plain_len],
                        &slot.aad,
                        &ivs[idx],
                        out,
                        1,
                    )
                },
            )?;
        } else {
            // Serial over tensors; intra-tensor CTR fan-out when threads are offered.
            for (idx, slot) in slots.iter().enumerate() {
                seal_into_with_threads(
                    gcm,
                    &plain[slot.plain_off..slot.plain_off + slot.plain_len],
                    &slot.aad,
                    &ivs[idx],
                    &mut arena[slot.sealed_off..slot.sealed_off + slot.sealed_len],
                    threads,
                )?;
            }
        }
        Ok(())
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
    /// Returns [`PliniusError::KeyNotProvisioned`] without a model key, authentication
    /// failures if the mirror was tampered with, or a mismatch error if the model shape
    /// differs.
    pub fn mirror_in(
        &self,
        ctx: &PliniusContext,
        network: &mut Network,
    ) -> Result<MirrorInReport, PliniusError> {
        let clock = ctx.clock();
        let rom = ctx.romulus();
        let mut guard = self.scratch.lock();
        let scratch = self.ensure_scratch(ctx, &mut guard)?;
        // Phase 1: seqlock read of the active slot's encrypted buffers from PM
        // straight into the reusable arena — no per-tensor vectors, no blob clones.
        let (read_out, read) =
            SimSpan::record(&clock, || -> Result<HeaderSnapshot, PliniusError> {
                let mut attempt = 0u64;
                loop {
                    let before = self.header_snapshot(ctx)?;
                    if let Some(hook) = self.torn_read_hook.lock().as_mut() {
                        hook(attempt);
                    }
                    for (idx, slot) in self.slots.iter().enumerate() {
                        rom.read_bytes_into(
                            self.tensor_ptrs[idx][before.active],
                            &mut scratch.arena[slot.sealed_off..slot.sealed_off + slot.sealed_len],
                        )?;
                    }
                    if self.header_snapshot(ctx)? == before {
                        return Ok(before);
                    }
                    ctx.stats().counter("mirror.torn_read_retries").incr();
                    attempt += 1;
                    if attempt > MAX_TORN_READ_RETRIES {
                        return Err(PliniusError::MirrorMismatch(format!(
                            "mirror header kept moving during {MAX_TORN_READ_RETRIES} \
                             snapshot-read retries"
                        )));
                    }
                }
            });
        let header = read_out?;
        let iteration = header.iteration;
        // Phase 2: in-enclave decryption (across threads — each tensor is an
        // independent AES-GCM open on a borrowed [`SealedView`]) and serial
        // installation into the enclave model.
        let (decrypt_result, decrypt) = SimSpan::record(&clock, || {
            self.decrypt_arena_into_network(ctx, scratch, network)
        });
        let model_bytes = decrypt_result?;
        network.set_iteration(iteration);
        Ok(MirrorInReport {
            read,
            decrypt,
            iteration,
            epoch: header.epoch,
            model_bytes,
        })
    }

    /// Restores a specific retained epoch from the ring into `network` (the
    /// time-travel sibling of [`MirrorModel::mirror_in`], which always opens the
    /// newest committed epoch). The read revalidates the slot's ring-meta entry
    /// after the bulk tensor read — meta entries are invalidated *before* a publish
    /// overwrites a slot, so an unchanged entry brackets untorn bytes even while a
    /// concurrent publisher cycles the ring (AES-GCM authentication is the second
    /// net). The network's iteration counter is set to the one recorded with the
    /// epoch.
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
        let clock = ctx.clock();
        let rom = ctx.romulus();
        let slot_idx = (epoch % self.ring_depth as u64) as usize;
        let mut guard = self.scratch.lock();
        let scratch = self.ensure_scratch(ctx, &mut guard)?;
        let (read_out, read) = SimSpan::record(&clock, || -> Result<u64, PliniusError> {
            let mut attempt = 0u64;
            loop {
                let before = self.meta_entry(ctx, slot_idx)?;
                if before.0 != epoch {
                    return Err(PliniusError::EpochNotRetained(epoch));
                }
                for (idx, slot) in self.slots.iter().enumerate() {
                    rom.read_bytes_into(
                        self.tensor_ptrs[idx][slot_idx],
                        &mut scratch.arena[slot.sealed_off..slot.sealed_off + slot.sealed_len],
                    )?;
                }
                if self.meta_entry(ctx, slot_idx)? == before {
                    return Ok(before.1);
                }
                ctx.stats().counter("mirror.torn_read_retries").incr();
                attempt += 1;
                if attempt > MAX_TORN_READ_RETRIES {
                    return Err(PliniusError::MirrorMismatch(format!(
                        "ring slot {slot_idx} kept moving during {MAX_TORN_READ_RETRIES} \
                         snapshot-read retries"
                    )));
                }
            }
        });
        let iteration = read_out?;
        let (decrypt_result, decrypt) = SimSpan::record(&clock, || {
            self.decrypt_arena_into_network(ctx, scratch, network)
        });
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
        let rom = ctx.romulus();
        let slot_idx = (epoch % self.ring_depth as u64) as usize;
        let mut attempt = 0u64;
        loop {
            let before = self.meta_entry(ctx, slot_idx)?;
            if before.0 != epoch {
                return Err(PliniusError::EpochNotRetained(epoch));
            }
            rom.read_bytes_into(
                self.tensor_ptrs[flat][slot_idx],
                &mut out[..slot.sealed_len],
            )?;
            if self.meta_entry(ctx, slot_idx)? == before {
                return Ok(slot.sealed_len);
            }
            ctx.stats().counter("mirror.torn_read_retries").incr();
            attempt += 1;
            if attempt > MAX_TORN_READ_RETRIES {
                return Err(PliniusError::MirrorMismatch(format!(
                    "ring slot {slot_idx} kept moving during {MAX_TORN_READ_RETRIES} \
                     snapshot-read retries"
                )));
            }
        }
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
    /// blobs, exactly [`MirrorModel::arena_len`] bytes) as the next epoch — the
    /// import half of the VFS's sealed export/import path. The caller has already
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
        self.commit_arena(ctx, arena, iteration)
    }

    /// Phase 2 of a restore: authenticates and decrypts the staged arena (across
    /// threads) and installs the parameters into the enclave model, charging the
    /// modeled crypto cost serially in slot order so the simulated-time total
    /// matches the serial path for every thread count. Returns the plaintext model
    /// bytes installed.
    fn decrypt_arena_into_network(
        &self,
        ctx: &PliniusContext,
        scratch: &mut MirrorScratch,
        network: &mut Network,
    ) -> Result<usize, PliniusError> {
        for slot in &self.slots {
            ctx.enclave().charge_crypto(slot.sealed_len as u64);
        }
        let threads = plinius_parallel::max_threads();
        Self::open_arena(&self.slots, scratch, threads)?;
        // Install layer by layer in mirror order, surfacing errors exactly as
        // the serial loop would (layer 0's failures before layer 1's).
        let mut slot_iter = self.slots.iter();
        let mut model_bytes = 0usize;
        let mut node_idx = 0usize;
        for layer in network.layers_mut().iter_mut() {
            if !layer.is_trainable() {
                continue;
            }
            if node_idx >= self.layer_nodes.len() {
                return Err(PliniusError::MirrorMismatch(
                    "enclave model has more trainable layers than the mirror".into(),
                ));
            }
            let mut tensors = Vec::with_capacity(TENSORS_PER_LAYER);
            for _ in 0..self.sealed_lens[node_idx].len() {
                let slot = slot_iter.next().expect("one slot per tensor");
                let tensor =
                    bytes_to_f32s(&scratch.plain[slot.plain_off..slot.plain_off + slot.plain_len])?;
                model_bytes += tensor.len() * 4;
                tensors.push(tensor);
            }
            let expected: Vec<usize> = layer.params().iter().map(|p| p.data.len()).collect();
            let got: Vec<usize> = tensors.iter().map(|t| t.len()).collect();
            if expected != got {
                return Err(PliniusError::MirrorMismatch(format!(
                    "layer {node_idx}: expected tensor sizes {expected:?}, mirror holds {got:?}"
                )));
            }
            layer.set_params(&tensors);
            node_idx += 1;
        }
        if node_idx != self.layer_nodes.len() {
            return Err(PliniusError::MirrorMismatch(
                "mirror holds more layers than the enclave model".into(),
            ));
        }
        Ok(model_bytes)
    }

    /// Phase-2 worker of mirror-in: authenticates and decrypts every sealed tensor of
    /// the arena into the plaintext staging buffer, via borrowed [`SealedView`]s (no
    /// blob copies). Errors surface in slot order. Mirrors the thread strategy of
    /// [`MirrorModel::stage_and_seal`]; the plaintext is bit-identical for every
    /// thread count.
    fn open_arena(
        slots: &[TensorSlot],
        scratch: &mut MirrorScratch,
        threads: usize,
    ) -> Result<(), PliniusError> {
        let MirrorScratch {
            gcm, plain, arena, ..
        } = scratch;
        let threads = threads.max(1);
        if threads > 1 && slots.len() >= 2 * threads {
            let arena = &*arena;
            par_slot_slices(
                slots,
                plain,
                |s| s.plain_len,
                threads,
                |idx, out| {
                    let slot = &slots[idx];
                    SealedView::parse(&arena[slot.sealed_off..slot.sealed_off + slot.sealed_len])
                        .and_then(|view| view.open_into(gcm, &slot.aad, out))
                },
            )?;
        } else {
            for slot in slots.iter() {
                SealedView::parse(&arena[slot.sealed_off..slot.sealed_off + slot.sealed_len])?
                    .open_into_with_threads(
                        gcm,
                        &slot.aad,
                        &mut plain[slot.plain_off..slot.plain_off + slot.plain_len],
                        threads,
                    )?;
            }
        }
        Ok(())
    }

    // --------------------------------------------------------- pipelined mirror-out

    /// Returns the warm publish pipeline, (re)building the background worker if
    /// absent, if the enclave's model key changed, or if the previous worker died
    /// (its staging buffers are gone with it — `spare == None` with nothing in
    /// flight is exactly that post-failure state, since every live idle pipeline
    /// holds its spare set). Must only be called with no publish in flight (the
    /// caller joins first), so a rebuild never drops work.
    fn ensure_pipeline<'a>(
        &self,
        ctx: &PliniusContext,
        guard: &'a mut Option<MirrorPipeline>,
    ) -> Result<&'a mut MirrorPipeline, PliniusError> {
        let stale = match guard.as_ref() {
            Some(p) => {
                p.spare.is_none()
                    || !ctx
                        .enclave()
                        .with_key(ctx.key_name(), |k| k.as_bytes() == p.key_bytes.as_slice())
                        .ok_or(PliniusError::KeyNotProvisioned)?
            }
            None => true,
        };
        if stale {
            let key = ctx.key()?;
            let gcm = ctx.gcm()?;
            let slots: Arc<[TensorSlot]> = self.slots.clone().into();
            let worker = Pipeline::spawn("plinius-mirror-seal", move |job: SealJob| {
                let SealJob { mut bufs } = job;
                let mut result = Ok(());
                // Serial in slot order: the worker thread *is* the parallel lane; the
                // sealed bytes are a pure function of (key, IV, AAD, plaintext), so
                // they match the synchronous path bit for bit.
                for (idx, slot) in slots.iter().enumerate() {
                    if let Err(e) = seal_into_with_threads(
                        &gcm,
                        &bufs.plain[slot.plain_off..slot.plain_off + slot.plain_len],
                        &slot.aad,
                        &bufs.ivs[idx],
                        &mut bufs.arena[slot.sealed_off..slot.sealed_off + slot.sealed_len],
                        1,
                    ) {
                        result = Err(e);
                        break;
                    }
                }
                SealDone { bufs, result }
            });
            // Reuse the previous staging buffers across a key rotation; allocate them
            // once on first use.
            let spare = match guard.take().and_then(|old| old.spare) {
                Some(bufs) => bufs,
                None => SealBuffers {
                    plain: vec![0u8; self.slots.iter().map(|s| s.plain_len).sum()],
                    arena: vec![0u8; self.slots.iter().map(|s| s.sealed_len).sum()],
                    ivs: vec![[0u8; IV_LEN]; self.slots.len()],
                },
            };
            *guard = Some(MirrorPipeline {
                worker,
                key_bytes: key.as_bytes().to_vec(),
                spare: Some(spare),
                inflight: None,
            });
        }
        Ok(guard.as_mut().expect("pipeline built above"))
    }

    /// Joins the in-flight publish, if any: waits for the background sealing to
    /// finish, credits the sealing time hidden behind the main lane
    /// ([`SimSpan::overlap`]), and durably commits the sealed snapshot as the next
    /// epoch.
    fn join_inflight(
        &self,
        ctx: &PliniusContext,
        guard: &mut Option<MirrorPipeline>,
    ) -> Result<Option<PublishReport>, PliniusError> {
        let Some(state) = guard.as_mut() else {
            return Ok(None);
        };
        let Some(meta) = state.inflight.take() else {
            return Ok(None);
        };
        let clock = ctx.clock();
        let done = state
            .worker
            .recv()
            .map_err(|e| PliniusError::Pipeline(format!("seal worker join failed: {e}")))?;
        let SealDone { bufs, result } = done;
        // Always hand the buffers back for reuse, even when the publish fails.
        state.spare = Some(bufs);
        // The sealing lane forked at snapshot time and ran in parallel with whatever
        // the training loop charged since; only its residual shows up here.
        let seal_join = SimSpan::overlap(&clock, meta.fork_ns, meta.seal_lane_ns);
        result.map_err(PliniusError::Crypto)?;
        let arena = &state.spare.as_ref().expect("buffers returned above").arena;
        let (commit_result, write) =
            SimSpan::record(&clock, || self.commit_arena(ctx, arena, meta.iteration));
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
    /// to the background worker. Returns the snapshot report together with the
    /// publish report of the *previous* snapshot, if one was still in flight.
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
    ) -> Result<(SnapshotReport, Option<PublishReport>), PliniusError> {
        let clock = ctx.clock();
        self.check_model_shape(network)?;
        let mut guard = self.pipeline.lock();
        let prior = self.join_inflight(ctx, &mut guard)?;
        let state = self.ensure_pipeline(ctx, &mut guard)?;
        let mut bufs = state.spare.take().expect("spare buffers present when idle");
        let ivs = IvSequence::from_rng(&mut ctx.enclave_rng());
        for (idx, iv) in bufs.ivs.iter_mut().enumerate() {
            *iv = ivs.iv(idx as u64);
        }
        let model_bytes = bufs.plain.len();
        let ((), staged) = SimSpan::record(&clock, || {
            Self::stage_plaintext(&self.slots, &mut bufs.plain, network);
        });
        // The sealing lane's modeled cost is computed now (stats recorded) but
        // charged at the join, where the overlap with the interleaved compute is
        // known.
        let seal_lane_ns = ctx.enclave().charge_crypto_offline(model_bytes as u64);
        let fork_ns = clock.now_ns();
        let iteration = network.iteration();
        state
            .worker
            .send(SealJob { bufs })
            .map_err(|e| PliniusError::Pipeline(format!("seal worker dispatch failed: {e}")))?;
        state.inflight = Some(InflightPublish {
            iteration,
            fork_ns,
            seal_lane_ns,
            model_bytes,
        });
        Ok((
            SnapshotReport {
                staged,
                model_bytes,
            },
            prior,
        ))
    }

    /// Joins and commits the in-flight publish, if any — the pipeline's *drain*
    /// point. Called by the overlapped persistence backend before restores, at the
    /// end of a training run, and on shutdown; a no-op when nothing is in flight.
    ///
    /// # Errors
    ///
    /// Propagates sealing, PM-write and worker errors of the joined publish.
    pub fn drain(&self, ctx: &PliniusContext) -> Result<Option<PublishReport>, PliniusError> {
        let mut guard = self.pipeline.lock();
        self.join_inflight(ctx, &mut guard)
    }

    /// Whether a snapshot is currently sealing/publishing in the background.
    pub fn has_inflight(&self) -> bool {
        self.pipeline
            .lock()
            .as_ref()
            .is_some_and(|p| p.inflight.is_some())
    }

    /// Test hook: replaces the live seal worker with one that dies on its first job,
    /// so the worker-death recovery path (one surfaced error, then a rebuilt
    /// pipeline) can be exercised without a real sealing bug.
    #[cfg(test)]
    fn kill_seal_worker_for_test(&self) {
        if let Some(state) = self.pipeline.lock().as_mut() {
            state.worker = Pipeline::spawn("plinius-mirror-seal-dying", |_job: SealJob| {
                panic!("seal worker killed for test");
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::f32s_to_bytes;
    use plinius_crypto::{Key, SealedBuffer};
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
        let rom = ctx.romulus();
        let active = mirror.active_slot(ctx).unwrap();
        let mut out = Vec::new();
        let mut flat = 0usize;
        for lens in &mirror.sealed_lens {
            let mut layer = Vec::new();
            for len in lens {
                layer.push(
                    rom.read_bytes(mirror.tensor_ptrs[flat][active], *len)
                        .unwrap(),
                );
                flat += 1;
            }
            out.push(layer);
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
    /// equal `SealedBuffer::seal_with_aad_and_iv(key, le_bytes(tensor),
    /// "layer{i}-tensor{j}", IvSequence(batch_seed).iv(flat_index))` — i.e. the
    /// scratch/arena rewrite changed no ciphertext, IV or MAC byte.
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
        let key = ctx2.key().unwrap();
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
                blobs.push(
                    SealedBuffer::seal_with_aad_and_iv(
                        &key,
                        &f32s_to_bytes(param.data),
                        aad.as_bytes(),
                        &ivs.iv(flat),
                    )
                    .unwrap()
                    .into_bytes(),
                );
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
            let (snap, prior) = mirror.snapshot_out(&ctx, &net).unwrap();
            assert!(prior.is_none());
            assert_eq!(snap.model_bytes, net.model_bytes());
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
