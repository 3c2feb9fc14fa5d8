//! The sealed-model format every medium shares. A model is sealed as one AES-GCM blob
//! per parameter tensor (`ciphertext ‖ IV ‖ MAC`), laid out layer-major in one arena.
//! This module owns every piece of that format:
//!
//! * the flat tensor layout ([`TensorSlot`], built by [`build_slots`], the only place a
//!   tensor's AAD is formatted) and the layout of a network ([`sealed_lens`]);
//! * the staging buffers a save seals from ([`Staging`]) and the one seal routine
//!   ([`Staging::seal_tensor`]), which writes a tensor's blob wherever the caller points
//!   it: straight into its PM buffer, or into an arena ([`Staging::seal`]);
//! * the one open routine ([`open_tensor`]), which reads a sealed blob wherever it sits,
//!   and decoding the opened model ([`decode`]) once [`check_shape`] has matched it
//!   against the layout;
//! * the [`SealedEpoch`] wire format.
//!
//! The PM mirror (synchronous and pipelined), the VFS export and import and the SSD
//! checkpoint all seal and open through it, so a sealed model is the same bytes on
//! every medium. Every tensor seals and opens in slot order, its CTR keystream
//! chunk-parallel past the crypto crate's cutoff.

use crate::{f32s_from_bytes_into, f32s_to_bytes_into, PliniusContext, PliniusError};
use plinius_crypto::{
    seal_into_with_threads, AesGcm, CryptoError, IvSequence, SealedView, IV_LEN, SEAL_OVERHEAD,
};
use plinius_darknet::{Layer, Network};

/// Position of one parameter tensor inside the staging buffers, plus everything that
/// is constant per tensor across saves (the AAD in particular).
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

impl TensorSlot {
    /// This tensor's plaintext in the staging buffer.
    fn plain(&self) -> std::ops::Range<usize> {
        self.plain_off..self.plain_off + self.plain_len
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

/// Checks that `network`'s trainable tensors are exactly the tensors of `slots`: the
/// same layers, the same tensor counts and the same sizes. The host owns every medium,
/// so authenticated tensors can still be dropped or come from a model of another
/// shape; that is a [`PliniusError::MirrorMismatch`], found before a save stages or a
/// restore decodes anything. Allocates nothing unless it fails.
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

/// The staging buffers of a save or restore: `plain` holds every tensor's plaintext and
/// `ivs` its IV, both in slot order. A save seals each staged tensor straight into its
/// destination ([`Staging::seal_tensor`]), and a restore opens each sealed tensor into
/// `plain` ([`open_tensor`]). `arena` stays empty until [`Staging::seal`] seals the
/// whole model into it, for a save that must hold the sealed model in enclave memory
/// before it writes it: a pipelined mirror-out or an SSD checkpoint.
#[derive(Default)]
pub(crate) struct Staging {
    /// Plaintext staging buffer: all tensors contiguous in slot order.
    pub(crate) plain: Vec<u8>,
    /// Sealed-blob arena: all sealed tensors contiguous in slot order, once sealed.
    pub(crate) arena: Vec<u8>,
    /// Per-tensor IVs of the current sealing batch.
    ivs: Vec<[u8; IV_LEN]>,
}

impl Staging {
    /// Buffers sized for the tensors of `slots`, with an empty arena.
    pub(crate) fn new(slots: &[TensorSlot]) -> Self {
        Staging {
            plain: vec![0u8; slots.iter().map(|s| s.plain_len).sum()],
            arena: Vec::new(),
            ivs: vec![[0u8; IV_LEN]; slots.len()],
        }
    }

    /// Whether `plain` and `ivs` are exactly the size [`Staging::new`] gives `slots`
    /// (the arena is sized when it is sealed into).
    pub(crate) fn fits(&self, slots: &[TensorSlot]) -> bool {
        self.plain.len() == slots.iter().map(|s| s.plain_len).sum() && self.ivs.len() == slots.len()
    }

    /// Draws the IVs of the next sealing batch. The sequence is seeded from one
    /// `sgx_read_rand` draw and hands every tensor its IV by slot index, so the sealed
    /// bytes do not depend on the thread schedule.
    pub(crate) fn draw_ivs(&mut self, ctx: &PliniusContext) {
        let ivs = IvSequence::from_rng(&mut ctx.enclave_rng());
        for (idx, iv) in self.ivs.iter_mut().enumerate() {
            *iv = ivs.iv(idx as u64);
        }
    }

    /// Copies every trainable tensor's parameters into `plain`, in slot order. The
    /// caller has checked the model against `slots` ([`check_shape`]).
    pub(crate) fn stage(&mut self, slots: &[TensorSlot], network: &Network) {
        let mut slot_iter = slots.iter();
        for views in network.layers().iter().filter_map(Layer::param_views) {
            for view in views {
                let slot = slot_iter.next().expect("shape checked");
                f32s_to_bytes_into(view.data, &mut self.plain[slot.plain()]);
            }
        }
    }

    /// The encryption phase of a save: charges each tensor's modeled crypto cost in
    /// slot order (so the simulated time is the same for every thread count) and
    /// stages the model. Returns the plaintext bytes staged.
    pub(crate) fn charge_and_stage(
        &mut self,
        ctx: &PliniusContext,
        slots: &[TensorSlot],
        network: &Network,
    ) -> usize {
        for slot in slots {
            ctx.enclave().charge_crypto(slot.plain_len as u64);
        }
        self.stage(slots, network);
        slots.iter().map(|s| s.plain_len).sum()
    }

    /// Seals staged tensor `idx`, laid out as `slot`, into `out` (its `sealed_len`
    /// bytes): the one seal routine of every save. The CTR keystream runs on up to
    /// `threads` threads past the crypto crate's cutoff; the sealed bytes are a pure
    /// function of `(key, IV, AAD, plaintext)`, whatever the thread count.
    pub(crate) fn seal_tensor(
        &self,
        idx: usize,
        slot: &TensorSlot,
        gcm: &AesGcm,
        out: &mut [u8],
        threads: usize,
    ) -> Result<(), CryptoError> {
        let plain = &self.plain[slot.plain()];
        seal_into_with_threads(gcm, plain, &slot.aad, &self.ivs[idx], out, threads)
    }

    /// Seals every staged tensor into the arena, in slot order, sizing the arena on its
    /// first use.
    pub(crate) fn seal(
        &mut self,
        slots: &[TensorSlot],
        gcm: &AesGcm,
        threads: usize,
    ) -> Result<(), PliniusError> {
        let mut arena = std::mem::take(&mut self.arena);
        arena.resize(slots.iter().map(|s| s.sealed_len).sum(), 0);
        let sealed = slots.iter().enumerate().try_for_each(|(idx, slot)| {
            self.seal_tensor(idx, slot, gcm, &mut arena[slot.sealed()], threads)
        });
        self.arena = arena;
        Ok(sealed?)
    }
}

/// Authenticates and decrypts one sealed tensor, laid out as `slot`, into its bytes of
/// `plain`: the one open routine of every restore. `sealed` may sit anywhere, in PM
/// or in an arena. The CTR keystream runs on up to `threads` threads past the crypto
/// crate's cutoff; the plaintext is the same for every thread count.
pub(crate) fn open_tensor(
    slot: &TensorSlot,
    gcm: &AesGcm,
    sealed: &[u8],
    plain: &mut [u8],
    threads: usize,
) -> Result<(), CryptoError> {
    SealedView::parse(sealed)?.open_into_with_threads(
        gcm,
        &slot.aad,
        &mut plain[slot.plain()],
        threads,
    )
}

/// Opens every sealed tensor of `arena` into `plain`, both laid out as `slots`, in
/// slot order; the first error stops it.
pub(crate) fn open_arena(
    slots: &[TensorSlot],
    gcm: &AesGcm,
    arena: &[u8],
    plain: &mut [u8],
    threads: usize,
) -> Result<(), PliniusError> {
    for slot in slots {
        open_tensor(slot, gcm, &arena[slot.sealed()], plain, threads)?;
    }
    Ok(())
}

/// The decryption phase of every restore, once every tensor is open in `plain`:
/// charges each tensor's modeled crypto cost in slot order, checks the model against
/// `slots` ([`check_shape`]) and only then decodes every tensor straight into
/// `network`'s parameter slices. A restore that fails leaves `network` as it was.
/// Returns the plaintext bytes decoded.
pub(crate) fn decode(
    ctx: &PliniusContext,
    slots: &[TensorSlot],
    plain: &[u8],
    network: &mut Network,
) -> Result<usize, PliniusError> {
    for slot in slots {
        ctx.enclave().charge_crypto(slot.sealed_len as u64);
    }
    check_shape(slots, network)?;
    let mut slot_iter = slots.iter();
    for targets in network
        .layers_mut()
        .iter_mut()
        .filter_map(Layer::params_mut)
    {
        for target in targets {
            let slot = slot_iter.next().expect("shape checked");
            f32s_from_bytes_into(&plain[slot.plain()], target);
        }
    }
    Ok(slots.iter().map(|s| s.plain_len).sum())
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

impl SealedEpoch {
    /// Serialises the payload:
    /// `magic ‖ epoch ‖ iteration ‖ num_tensors ‖ sealed_lens... ‖ arena`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.sealed_lens.len() * 8 + self.arena.len());
        out.extend_from_slice(SEALED_EPOCH_MAGIC);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.iteration.to_le_bytes());
        out.extend_from_slice(&(self.sealed_lens.len() as u64).to_le_bytes());
        for len in &self.sealed_lens {
            out.extend_from_slice(&len.to_le_bytes());
        }
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
    pub fn from_bytes(mut bytes: &[u8]) -> Result<Self, PliniusError> {
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
            std::cmp::Ordering::Equal => Ok(SealedEpoch {
                epoch,
                iteration,
                sealed_lens,
                arena: bytes.to_vec(),
            }),
        }
    }

    /// Checks that the payload holds exactly the tensors of `slots`, so that a dropped
    /// tensor or a foreign shape is a [`PliniusError::MirrorMismatch`] before anything
    /// is opened.
    pub(crate) fn check_layout(&self, slots: &[TensorSlot]) -> Result<(), PliniusError> {
        let expected = slots.iter().map(|s| s.sealed_len as u64);
        let arena_len: usize = slots.iter().map(|s| s.sealed_len).sum();
        if self.sealed_lens.iter().copied().eq(expected.clone()) && self.arena.len() == arena_len {
            return Ok(());
        }
        Err(PliniusError::MirrorMismatch(format!(
            "sealed-epoch layout {:?} does not match the model's {:?}",
            self.sealed_lens,
            expected.collect::<Vec<_>>()
        )))
    }
}
