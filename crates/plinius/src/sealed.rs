//! The sealed-model format every medium shares. A model is sealed as one AES-GCM blob
//! per parameter tensor (`ciphertext ‖ IV ‖ MAC`), laid out layer-major in one arena.
//! This module owns every piece of that format:
//!
//! * the flat tensor layout ([`TensorSlot`], built by [`build_slots`], the only place a
//!   tensor's AAD is formatted) and the layout of a network ([`sealed_lens`]);
//! * the one seal routine ([`seal_tensor`]), which seals each tensor straight from
//!   its `f32`s — the layers' own slices, or a pipelined save's [`Snapshot`] of them —
//!   into wherever the caller points its blob: its PM buffer, or an SSD file image;
//! * the one open routine ([`open_into_model`]), which verifies every sealed blob of a
//!   model wherever it sits and only then decrypts each straight into the layers,
//!   once [`check_shape`] has matched the model against the layout;
//! * the [`SealedEpoch`] wire format, whose header is written by [`write_header`] and
//!   parsed by [`parse_header`] alone.
//!
//! The PM mirror (synchronous and pipelined), the VFS export and import and the SSD
//! checkpoint all seal and open through it, so a sealed model is the same bytes on
//! every medium. Every tensor seals and opens in slot order on the calling thread;
//! the plaintext is each `f32`'s little-endian bytes, so no save or restore copies
//! the model through a byte buffer.

use crate::{PliniusContext, PliniusError};
use plinius_crypto::{
    open_f32s_into, seal_f32s_into, AesGcm, CryptoError, IvSequence, SealedView, IV_LEN,
    SEAL_OVERHEAD,
};
use plinius_darknet::{Layer, Network};
use std::sync::Arc;

/// Position of one parameter tensor in the flat layout, plus everything that is
/// constant per tensor across saves (the AAD in particular).
#[derive(Debug, Clone)]
pub(crate) struct TensorSlot {
    /// Trainable-layer index this tensor belongs to.
    pub(crate) layer: usize,
    /// Tensor index within its layer.
    pub(crate) tensor: usize,
    /// Offset of the tensor's first value in a [`Snapshot`] of the model.
    pub(crate) param_off: usize,
    /// Plaintext length in bytes (four per value).
    pub(crate) plain_len: usize,
    /// Byte offset of the sealed blob (ciphertext ‖ IV ‖ MAC) in the model's arena.
    pub(crate) sealed_off: usize,
    /// Sealed length in bytes (`plain_len + SEAL_OVERHEAD`).
    pub(crate) sealed_len: usize,
    /// Precomputed additional authenticated data (`layer{i}-tensor{j}`).
    pub(crate) aad: Vec<u8>,
}

impl TensorSlot {
    /// This tensor's values in a [`Snapshot`].
    fn params(&self) -> std::ops::Range<usize> {
        self.param_off..self.param_off + self.plain_len / 4
    }

    /// This tensor's sealed blob in the arena.
    pub(crate) fn sealed(&self) -> std::ops::Range<usize> {
        self.sealed_off..self.sealed_off + self.sealed_len
    }
}

/// The sealed length of every tensor of `network`'s trainable layers, per layer: the
/// layout a mirror allocates on PM and an SSD checkpoint must match.
pub(crate) fn sealed_lens(network: &Network) -> Vec<Vec<usize>> {
    network
        .layers()
        .iter()
        .filter_map(Layer::param_views)
        .map(|views| {
            views
                .iter()
                .map(|v| v.data.len() * 4 + SEAL_OVERHEAD)
                .collect()
        })
        .collect()
}

/// Builds the flat tensor layout (and precomputes every AAD) from the per-layer sealed
/// lengths.
pub(crate) fn build_slots(sealed_lens: &[Vec<usize>]) -> Result<Vec<TensorSlot>, PliniusError> {
    let mut slots = Vec::new();
    let (mut param_off, mut sealed_off) = (0usize, 0usize);
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
                param_off,
                plain_len,
                sealed_off,
                sealed_len,
                aad: format!("layer{i}-tensor{j}").into_bytes(),
            });
            param_off += plain_len / 4;
            sealed_off += sealed_len;
        }
    }
    Ok(slots)
}

/// Checks that `network`'s trainable tensors are exactly the tensors of `slots`: the
/// same layers, the same tensor counts and the same sizes. The host owns every medium,
/// so authenticated tensors can still be dropped or come from a model of another
/// shape; that is a [`PliniusError::MirrorMismatch`], found before a save seals or a
/// restore opens anything. Allocates nothing unless it fails.
pub(crate) fn check_shape(slots: &[TensorSlot], network: &Network) -> Result<(), PliniusError> {
    let mut rest = slots.iter();
    for (i, views) in network
        .layers()
        .iter()
        .filter_map(Layer::param_views)
        .enumerate()
    {
        for (j, view) in views.iter().enumerate() {
            let bytes = view.data.len() * 4;
            match rest.next() {
                Some(s) if (s.layer, s.tensor, s.plain_len) == (i, j, bytes) => {}
                Some(s) => {
                    return Err(PliniusError::MirrorMismatch(format!(
                        "layer {i} tensor {j} of {bytes} bytes meets persisted layer {} tensor {} of {} bytes",
                        s.layer, s.tensor, s.plain_len
                    )))
                }
                None => {
                    return Err(PliniusError::MirrorMismatch(format!(
                        "the enclave model has more than the {} persisted tensors",
                        slots.len()
                    )))
                }
            }
        }
    }
    match rest.len() {
        0 => Ok(()),
        extra => Err(PliniusError::MirrorMismatch(format!(
            "the persisted model holds {extra} tensors more than the enclave model"
        ))),
    }
}

/// Every trainable tensor of `network`, in slot order.
pub(crate) fn tensors(network: &Network) -> impl Iterator<Item = &[f32]> {
    network
        .layers()
        .iter()
        .filter_map(Layer::param_views)
        .flatten()
        .map(|view| view.data)
}

/// Every trainable tensor of `network`, mutably, in slot order.
fn tensors_mut(network: &mut Network) -> impl Iterator<Item = &mut [f32]> {
    network
        .layers_mut()
        .iter_mut()
        .filter_map(Layer::params_mut)
        .flatten()
}

/// Draws the IV sequence of the next sealing batch: one `sgx_read_rand` draw, from
/// which every tensor's IV follows by slot index ([`IvSequence::iv`]).
pub(crate) fn draw_ivs(ctx: &PliniusContext) -> IvSequence {
    IvSequence::from_rng(&mut ctx.enclave_rng())
}

/// The encryption charge of a save: each tensor's modeled crypto cost, in slot order.
/// Returns the plaintext bytes sealed.
pub(crate) fn charge_seal(ctx: &PliniusContext, slots: &[TensorSlot]) -> usize {
    for slot in slots {
        ctx.enclave().charge_crypto(slot.plain_len as u64);
    }
    slots.iter().map(|s| s.plain_len).sum()
}

/// The decryption charge of a restore: each tensor's modeled crypto cost, in slot
/// order. Returns the plaintext bytes restored.
pub(crate) fn charge_open(ctx: &PliniusContext, slots: &[TensorSlot]) -> usize {
    for slot in slots {
        ctx.enclave().charge_crypto(slot.sealed_len as u64);
    }
    slots.iter().map(|s| s.plain_len).sum()
}

/// The one seal routine of every save: seals `tensor`'s `f32`s, laid out as `slot`,
/// under `iv` straight into `out` (its `sealed_len` bytes), wherever that sits: its PM
/// buffer or an arena. The sealed bytes are a pure function of `(key, IV, AAD,
/// plaintext)`, whatever the tensor's source.
pub(crate) fn seal_tensor(
    slot: &TensorSlot,
    gcm: &AesGcm,
    iv: &[u8; IV_LEN],
    tensor: &[f32],
    out: &mut [u8],
) -> Result<(), CryptoError> {
    seal_f32s_into(gcm, tensor, &slot.aad, iv, out)
}

/// Seals every tensor of `tensors`, laid out as `slots`, under the IVs of `ivs` into
/// `arena`, the layout's sealed bytes, in slot order: a save that holds the sealed
/// model in enclave memory before it writes it (an SSD checkpoint, into its file
/// image).
pub(crate) fn seal_arena<'a>(
    slots: &[TensorSlot],
    gcm: &AesGcm,
    ivs: &IvSequence,
    tensors: impl Iterator<Item = &'a [f32]>,
    arena: &mut [u8],
) -> Result<(), CryptoError> {
    for ((idx, slot), tensor) in slots.iter().enumerate().zip(tensors) {
        let blob = &mut arena[slot.sealed()];
        seal_tensor(slot, gcm, &ivs.iv(idx as u64), tensor, blob)?;
    }
    Ok(())
}

/// The one open routine of every restore: verifies every sealed blob of `blobs`, one
/// per slot in slot order wherever they sit (PM or an arena), and only once all of them
/// have authenticated decrypts each straight into `network`'s parameter slices
/// ([`open_f32s_into`]). The caller has checked the model against `slots`
/// ([`check_shape`]), so a restore that fails leaves `network` as it was.
pub(crate) fn open_into_model<'a>(
    slots: &'a [TensorSlot],
    gcm: &AesGcm,
    blobs: impl Iterator<Item = &'a [u8]> + Clone,
    network: &mut Network,
) -> Result<(), CryptoError> {
    let aads = slots.iter().map(|s| s.aad.as_slice());
    open_f32s_into(gcm, blobs.zip(aads), tensors_mut(network))
}

/// Authenticates every sealed blob of `arena`, laid out as `slots`, without
/// decrypting any: what an import checks before it adopts sealed bytes.
pub(crate) fn verify_arena(
    slots: &[TensorSlot],
    gcm: &AesGcm,
    arena: &[u8],
) -> Result<(), CryptoError> {
    slots
        .iter()
        .try_for_each(|slot| SealedView::parse(&arena[slot.sealed()])?.verify(gcm, &slot.aad))
}

/// A pipelined save's copy of the model: the parameters of every tensor in slot order,
/// the IVs of their sealing batch and the model key's context in effect when it was
/// taken, with which the join seals it into PM. The handle keeps one and reuses it
/// across saves.
#[derive(Default)]
pub(crate) struct Snapshot {
    /// Every tensor's values, contiguous in slot order.
    params: Vec<f32>,
    /// The IVs of the batch and the key's context it seals under.
    batch: Option<(IvSequence, Arc<AesGcm>)>,
}

impl Snapshot {
    /// Copies every trainable tensor of `network` into the snapshot with the batch's
    /// IVs and the key's context, sizing it on first use. The caller has checked the
    /// model against the layout ([`check_shape`]).
    pub(crate) fn take(&mut self, network: &Network, ivs: IvSequence, gcm: Arc<AesGcm>) {
        self.params.clear();
        for tensor in tensors(network) {
            self.params.extend_from_slice(tensor);
        }
        self.batch = Some((ivs, gcm));
    }

    /// Seals tensor `idx` of the snapshot, laid out as `slot`, into `out`.
    pub(crate) fn seal_tensor(
        &self,
        idx: usize,
        slot: &TensorSlot,
        out: &mut [u8],
    ) -> Result<(), CryptoError> {
        let (ivs, gcm) = self.batch.as_ref().expect("a taken snapshot");
        let tensor = &self.params[slot.params()];
        seal_tensor(slot, gcm, &ivs.iv(idx as u64), tensor, out)
    }
}

/// A sealed model lifted off its medium: the deployment-portable payload of a mirror
/// epoch ([`crate::MirrorVfs::export`]) and the file of an SSD checkpoint
/// ([`crate::SsdCheckpointer`]). The arena is the layer-major concatenation of the
/// model's AES-GCM sealed tensor blobs, byte-exact as they sat on the medium.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedEpoch {
    /// Epoch number in the source deployment: the mirror epoch an export was lifted
    /// from, or 0 in a checkpoint the SSD checkpointer wrote (the SSD keeps no epoch
    /// ring).
    pub epoch: u64,
    /// Training iteration recorded with the epoch.
    pub iteration: u64,
    /// Sealed length of every tensor (layer-major), pinning the model layout.
    pub sealed_lens: Vec<u64>,
    /// Concatenated sealed blobs (layer-major).
    pub arena: Vec<u8>,
}

/// Magic + version prefix of the [`SealedEpoch`] wire format.
const SEALED_EPOCH_MAGIC: &[u8; 8] = b"PLNSEAL1";

/// Consumes `N` bytes from the front of `bytes`, or `None` if fewer remain.
fn take<const N: usize>(bytes: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = bytes.split_first_chunk()?;
    *bytes = rest;
    Some(*head)
}

/// Byte length of the header of a [`SealedEpoch`] payload of `num_tensors` tensors.
pub(crate) fn header_len(num_tensors: usize) -> usize {
    32 + num_tensors * 8
}

/// Appends the header of a [`SealedEpoch`] payload to `out`:
/// `magic ‖ epoch ‖ iteration ‖ num_tensors ‖ sealed_lens...`. The arena follows it.
pub(crate) fn write_header(out: &mut Vec<u8>, epoch: u64, iteration: u64, sealed_lens: &[u64]) {
    out.extend_from_slice(SEALED_EPOCH_MAGIC);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&iteration.to_le_bytes());
    out.extend_from_slice(&(sealed_lens.len() as u64).to_le_bytes());
    for len in sealed_lens {
        out.extend_from_slice(&len.to_le_bytes());
    }
}

/// The header fields of a [`SealedEpoch`] payload, parsed by [`parse_header`].
pub(crate) struct EpochHeader {
    /// The payload's epoch field.
    pub(crate) epoch: u64,
    /// The training iteration recorded with the epoch.
    pub(crate) iteration: u64,
    /// Sealed length of every tensor (layer-major).
    pub(crate) sealed_lens: Vec<u64>,
}

/// The parser of [`SealedEpoch::from_bytes`]: returns the payload's header with the
/// arena that follows it, in place.
pub(crate) fn parse_header(mut bytes: &[u8]) -> Result<(EpochHeader, &[u8]), PliniusError> {
    let malformed =
        |what: &str| PliniusError::MirrorMismatch(format!("{what} sealed-epoch payload"));
    let read_u64 = |bytes: &mut &[u8]| {
        take(bytes)
            .map(u64::from_le_bytes)
            .ok_or_else(|| malformed("truncated"))
    };
    if take(&mut bytes).ok_or_else(|| malformed("truncated"))? != *SEALED_EPOCH_MAGIC {
        return Err(malformed("bad magic: not a"));
    }
    let epoch = read_u64(&mut bytes)?;
    let iteration = read_u64(&mut bytes)?;
    let num_tensors = read_u64(&mut bytes)?;
    // Every declared tensor takes an 8-byte length.
    let capacity = usize::try_from(num_tensors)
        .unwrap_or(usize::MAX)
        .min(bytes.len() / 8);
    let mut sealed_lens = Vec::with_capacity(capacity);
    for _ in 0..num_tensors {
        sealed_lens.push(read_u64(&mut bytes)?);
    }
    let arena_len = sealed_lens
        .iter()
        .try_fold(0u64, |sum, &len| sum.checked_add(len))
        .and_then(|sum| usize::try_from(sum).ok())
        .ok_or_else(|| malformed("overflowing tensor lengths in"))?;
    match bytes.len().cmp(&arena_len) {
        std::cmp::Ordering::Less => Err(malformed("truncated")),
        std::cmp::Ordering::Greater => Err(malformed("trailing bytes after")),
        std::cmp::Ordering::Equal => Ok((
            EpochHeader {
                epoch,
                iteration,
                sealed_lens,
            },
            bytes,
        )),
    }
}

/// Checks that a sealed model of `sealed_lens` in `arena` holds exactly the tensors of
/// `slots`, so that a dropped tensor or a foreign shape is a
/// [`PliniusError::MirrorMismatch`] before anything is opened.
pub(crate) fn check_layout(
    sealed_lens: &[u64],
    arena: &[u8],
    slots: &[TensorSlot],
) -> Result<(), PliniusError> {
    let expected = slots.iter().map(|s| s.sealed_len as u64);
    let arena_len: usize = slots.iter().map(|s| s.sealed_len).sum();
    if sealed_lens.iter().copied().eq(expected.clone()) && arena.len() == arena_len {
        return Ok(());
    }
    Err(PliniusError::MirrorMismatch(format!(
        "sealed-epoch layout {sealed_lens:?} does not match the model's {:?}",
        expected.collect::<Vec<_>>()
    )))
}

impl SealedEpoch {
    /// Serialises the payload:
    /// `magic ‖ epoch ‖ iteration ‖ num_tensors ‖ sealed_lens... ‖ arena`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(header_len(self.sealed_lens.len()) + self.arena.len());
        write_header(&mut out, self.epoch, self.iteration, &self.sealed_lens);
        out.extend_from_slice(&self.arena);
        out
    }

    /// Parses a payload serialised by [`SealedEpoch::to_bytes`]. The bytes may come from
    /// the host, so the counts and lengths they declare reserve no more memory than the
    /// payload can fill, and no declared length can overflow the arena's size.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::MirrorMismatch`] on a malformed or truncated
    /// payload (authenticity is checked later, at import, against the model key).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PliniusError> {
        let (header, arena) = parse_header(bytes)?;
        Ok(SealedEpoch {
            epoch: header.epoch,
            iteration: header.iteration,
            sealed_lens: header.sealed_lens,
            arena: arena.to_vec(),
        })
    }
}
