//! The sealed-model format every medium shares. A model is sealed as one AES-GCM blob
//! per parameter tensor (`ciphertext ‖ IV ‖ MAC`), laid out layer-major in one arena.
//! This module owns every piece of that format:
//!
//! * the flat tensor layout ([`TensorSlot`], built by [`build_slots`], the only place a
//!   tensor's AAD is formatted) and the layout of a network ([`sealed_lens`]);
//! * the staging buffers a save seals through ([`Staging`]) and the one seal routine;
//! * opening an arena and decoding it into a model ([`open_and_decode`]), after
//!   [`check_shape`] has matched the model against the layout;
//! * the [`SealedEpoch`] wire format.
//!
//! The PM mirror (synchronous and pipelined), the VFS export and import and the SSD
//! checkpoint all seal and open through it, so a sealed model is the same bytes on
//! every medium.

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

/// The staging buffers of one save: `plain` holds every tensor's plaintext and `ivs`
/// its IV, both in slot order; [`Staging::seal`] seals them into `arena`. A restore
/// reads sealed tensors into `arena` and opens them into `plain`.
#[derive(Default)]
pub(crate) struct Staging {
    /// Plaintext staging buffer: all tensors contiguous in slot order.
    pub(crate) plain: Vec<u8>,
    /// Sealed-blob arena: all sealed tensors contiguous in slot order.
    pub(crate) arena: Vec<u8>,
    /// Per-tensor IVs of the current sealing batch.
    ivs: Vec<[u8; IV_LEN]>,
}

impl Staging {
    /// Buffers sized for the tensors of `slots`.
    pub(crate) fn new(slots: &[TensorSlot]) -> Self {
        Staging {
            plain: vec![0u8; slots.iter().map(|s| s.plain_len).sum()],
            arena: vec![0u8; slots.iter().map(|s| s.sealed_len).sum()],
            ivs: vec![[0u8; IV_LEN]; slots.len()],
        }
    }

    /// Whether these buffers are exactly the size [`Staging::new`] gives `slots`.
    pub(crate) fn fits(&self, slots: &[TensorSlot]) -> bool {
        self.plain.len() == slots.iter().map(|s| s.plain_len).sum()
            && self.arena.len() == slots.iter().map(|s| s.sealed_len).sum()
            && self.ivs.len() == slots.len()
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

    /// Seals every staged tensor into the arena: the one seal routine of every save.
    ///
    /// * `threads <= 1`: fully serial, zero heap allocations.
    /// * many tensors: fan out across tensors, each sealed serially on one worker.
    /// * few large tensors: seal serially in slot order but fan the CTR keystream of
    ///   each tensor out across threads (chunked at counter boundaries).
    ///
    /// All three produce bit-identical sealed bytes: the ciphertext of a tensor is a
    /// pure function of `(key, IV, AAD, plaintext)` regardless of chunking.
    pub(crate) fn seal(
        &mut self,
        slots: &[TensorSlot],
        gcm: &AesGcm,
        threads: usize,
    ) -> Result<(), PliniusError> {
        let Staging { plain, arena, ivs } = self;
        let threads = threads.max(1);
        if threads > 1 && slots.len() >= 2 * threads {
            let (plain, ivs) = (&*plain, &*ivs);
            par_slot_slices(
                slots,
                arena,
                |s| s.sealed_len,
                threads,
                |idx, out| {
                    let slot = &slots[idx];
                    seal_into_with_threads(gcm, &plain[slot.plain()], &slot.aad, &ivs[idx], out, 1)
                },
            )
        } else {
            for (slot, iv) in slots.iter().zip(ivs.iter()) {
                seal_into_with_threads(
                    gcm,
                    &plain[slot.plain()],
                    &slot.aad,
                    iv,
                    &mut arena[slot.sealed()],
                    threads,
                )?;
            }
            Ok(())
        }
    }

    /// The encryption phase of a synchronous save: charges each tensor's modeled
    /// crypto cost in slot order (so the simulated time is the serial path's for every
    /// thread count), stages the model and seals it. Returns the plaintext bytes
    /// sealed.
    pub(crate) fn stage_and_seal(
        &mut self,
        ctx: &PliniusContext,
        slots: &[TensorSlot],
        gcm: &AesGcm,
        network: &Network,
        threads: usize,
    ) -> Result<usize, PliniusError> {
        for slot in slots {
            ctx.enclave().charge_crypto(slot.plain_len as u64);
        }
        self.stage(slots, network);
        self.seal(slots, gcm, threads)?;
        Ok(slots.iter().map(|s| s.plain_len).sum())
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

/// Authenticates and decrypts every sealed tensor of `arena` into `plain`, both laid
/// out as `slots`, via borrowed [`SealedView`]s (no blob copies). Errors surface in
/// slot order. Mirrors the thread strategy of [`Staging::seal`]; the plaintext is
/// bit-identical for every thread count.
pub(crate) fn open_arena(
    slots: &[TensorSlot],
    gcm: &AesGcm,
    arena: &[u8],
    plain: &mut [u8],
    threads: usize,
) -> Result<(), PliniusError> {
    let threads = threads.max(1);
    if threads > 1 && slots.len() >= 2 * threads {
        par_slot_slices(
            slots,
            plain,
            |s| s.plain_len,
            threads,
            |idx, out| {
                let slot = &slots[idx];
                SealedView::parse(&arena[slot.sealed()])
                    .and_then(|view| view.open_into(gcm, &slot.aad, out))
            },
        )
    } else {
        for slot in slots {
            SealedView::parse(&arena[slot.sealed()])?.open_into_with_threads(
                gcm,
                &slot.aad,
                &mut plain[slot.plain()],
                threads,
            )?;
        }
        Ok(())
    }
}

/// The decryption phase of every restore: charges each tensor's modeled crypto cost
/// in slot order, authenticates and decrypts `arena` into `plain` ([`open_arena`]),
/// checks the model against `slots` ([`check_shape`]) and only then decodes every
/// tensor straight into `network`'s parameter slices. A restore that fails leaves
/// `network` as it was. Returns the plaintext bytes decoded.
pub(crate) fn open_and_decode(
    ctx: &PliniusContext,
    slots: &[TensorSlot],
    gcm: &AesGcm,
    arena: &[u8],
    plain: &mut [u8],
    network: &mut Network,
) -> Result<usize, PliniusError> {
    for slot in slots {
        ctx.enclave().charge_crypto(slot.sealed_len as u64);
    }
    open_arena(slots, gcm, arena, plain, plinius_parallel::max_threads())?;
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
