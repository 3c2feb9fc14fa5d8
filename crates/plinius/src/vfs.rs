//! A zero-copy virtual filesystem view of the PM mirror: epoch time-travel for
//! humans and tools.
//!
//! The mirror's epoch ring (see [`crate::mirror`]) retains the `R` newest committed
//! epochs of the sealed model. This module exposes that ring as a lazily
//! materialised directory tree — the idiom of FUSE layers that mount one big
//! indexed file as a virtual hierarchy — without ever copying the PM-resident
//! sealed bytes into intermediate buffers:
//!
//! ```text
//! /
//! ├── HEAD                        -> epoch/{newest}        (symlink-style entry)
//! └── epoch/
//!     ├── {n}/
//!     │   ├── meta                  committed epoch, iteration, layout summary
//!     │   ├── layer0-tensor0.sealed AES-GCM sealed blob, byte-exact from PM
//!     │   ├── layer0-tensor1.sealed
//!     │   └── ...
//!     └── {m}/ ...
//! ```
//!
//! Directory listings are computed on demand from the mirror's PM headers —
//! nothing is materialised up front. Reads of `*.sealed` files go straight from
//! PM into the caller's buffer through the mirror's seqlock-validated
//! [`MirrorModel::read_sealed_into`] primitive: **no heap allocation on the
//! sealed-bytes read path** (enforced by the counting-allocator test), and no
//! torn bytes even while a live trainer keeps cycling the ring.
//!
//! On top of the tree sit three epoch tools:
//!
//! * [`MirrorVfs::epoch_diff`] — per-tensor changed-byte and L2-delta summary
//!   between two retained epochs;
//! * [`MirrorVfs::export`] / [`MirrorVfs::import`] — move a sealed epoch between
//!   deployments as a [`SealedEpoch`] payload. The sealed bytes are
//!   deployment-portable by construction: each blob is authenticated by
//!   `(key, AAD = "layer{i}-tensor{j}")` alone, independent of PM offsets or ring
//!   depth, so any deployment holding the model key can verify and adopt them.

use crate::mirror::MirrorModel;
pub use crate::sealed::SealedEpoch;
use crate::sealed::{check_layout, verify_arena};
use crate::{PliniusContext, PliniusError};
use plinius_crypto::SealedView;

/// What kind of entry a VFS path names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VfsKind {
    /// A directory (listable).
    Directory,
    /// A regular file (readable with [`Vfs::read_into`]).
    File,
    /// A symlink-style entry (resolvable with [`Vfs::read_link`]).
    Symlink,
}

/// Metadata of one VFS entry, as returned by [`Vfs::list`] and [`Vfs::stat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VfsEntry {
    /// Entry name (final path component; `/` for the root).
    pub name: String,
    /// Entry kind.
    pub kind: VfsKind,
    /// Byte length of a file's contents (or of a symlink's target); 0 for
    /// directories.
    pub len: usize,
}

/// A virtual filesystem over one deployment: list, stat and read entries of a
/// lazily materialised tree. Paths are `/`-separated; a leading slash is
/// optional.
pub trait Vfs {
    /// Lists the entries of the directory at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::VfsPath`] if the path does not name a directory.
    fn list(&self, path: &str) -> Result<Vec<VfsEntry>, PliniusError>;

    /// Metadata of the entry at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::VfsPath`] if the path names nothing.
    fn stat(&self, path: &str) -> Result<VfsEntry, PliniusError>;

    /// Reads the file at `path` into `out`, returning the bytes written.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::VfsPath`] for non-files, or an error if `out` is
    /// too small.
    fn read_into(&self, path: &str, out: &mut [u8]) -> Result<usize, PliniusError>;

    /// Resolves the symlink-style entry at `path` to its target.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::VfsPath`] if the path is not a symlink.
    fn read_link(&self, path: &str) -> Result<String, PliniusError>;
}

/// A parsed VFS path; carries no owned data so resolving allocates nothing.
enum Resolved {
    Root,
    Head,
    EpochDir,
    Epoch(u64),
    Meta(u64),
    Sealed {
        epoch: u64,
        flat: usize,
        sealed_len: usize,
    },
}

/// Per-tensor difference between two epochs of the same mirror.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorDiff {
    /// Trainable-layer index.
    pub layer: usize,
    /// Tensor index within the layer.
    pub tensor: usize,
    /// Number of plaintext bytes that differ between the two epochs.
    pub changed_bytes: usize,
    /// Euclidean (L2) norm of the per-parameter deltas.
    pub l2_delta: f64,
}

/// Summary of [`MirrorVfs::epoch_diff`]: what changed between two retained
/// epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochDiff {
    /// The older epoch compared.
    pub from: u64,
    /// The newer epoch compared.
    pub to: u64,
    /// Per-tensor breakdown, in layer-major order.
    pub tensors: Vec<TensorDiff>,
    /// Total plaintext bytes that differ.
    pub changed_bytes: usize,
    /// L2 norm of the full parameter-vector delta.
    pub l2_delta: f64,
}

/// The [`Vfs`] implementation over one mirror deployment. Holds cheap clones of
/// the context and mirror handle, so it can attach to a live trainer
/// (`trainer.mirror_handle()`) or to a recovered pool ([`MirrorModel::open`])
/// without disturbing either.
#[derive(Debug, Clone)]
pub struct MirrorVfs {
    ctx: PliniusContext,
    mirror: MirrorModel,
}

fn no_such_path(path: &str) -> PliniusError {
    PliniusError::VfsPath(path.to_string())
}

impl MirrorVfs {
    /// Mounts the VFS over `mirror` in `ctx`.
    pub fn new(ctx: &PliniusContext, mirror: &MirrorModel) -> Self {
        MirrorVfs {
            ctx: ctx.clone(),
            mirror: mirror.clone(),
        }
    }

    /// The underlying mirror handle.
    pub fn mirror(&self) -> &MirrorModel {
        &self.mirror
    }

    /// The deployment context the VFS reads from.
    pub fn context(&self) -> &PliniusContext {
        &self.ctx
    }

    /// Resolves a path without allocating: every component is matched by
    /// borrowed-`&str` splitting, so the sealed-file read path stays
    /// allocation-free.
    fn resolve(&self, path: &str) -> Result<Resolved, PliniusError> {
        let p = path.strip_prefix('/').unwrap_or(path);
        let p = p.strip_suffix('/').unwrap_or(p);
        if p.is_empty() {
            return Ok(Resolved::Root);
        }
        if p == "HEAD" {
            return Ok(Resolved::Head);
        }
        if p == "epoch" {
            return Ok(Resolved::EpochDir);
        }
        let rest = p.strip_prefix("epoch/").ok_or_else(|| no_such_path(path))?;
        let (num, tail) = match rest.split_once('/') {
            Some((num, tail)) => (num, Some(tail)),
            None => (rest, None),
        };
        let epoch: u64 = num.parse().map_err(|_| no_such_path(path))?;
        let Some(tail) = tail else {
            return Ok(Resolved::Epoch(epoch));
        };
        if tail == "meta" {
            return Ok(Resolved::Meta(epoch));
        }
        let stem = tail
            .strip_suffix(".sealed")
            .ok_or_else(|| no_such_path(path))?;
        let layer_tensor = stem
            .strip_prefix("layer")
            .ok_or_else(|| no_such_path(path))?;
        let (layer, tensor) = layer_tensor
            .split_once("-tensor")
            .ok_or_else(|| no_such_path(path))?;
        let layer: usize = layer.parse().map_err(|_| no_such_path(path))?;
        let tensor: usize = tensor.parse().map_err(|_| no_such_path(path))?;
        for (flat, slot) in self.mirror.slot_layout().iter().enumerate() {
            if slot.layer == layer && slot.tensor == tensor {
                return Ok(Resolved::Sealed {
                    epoch,
                    flat,
                    sealed_len: slot.sealed_len,
                });
            }
        }
        Err(no_such_path(path))
    }

    /// The newest committed epoch (the `HEAD` target).
    fn head_epoch(&self) -> Result<u64, PliniusError> {
        self.mirror.epoch(&self.ctx)
    }

    /// Errors unless `epoch` is currently retained in the ring; maps eviction to
    /// a path error so directory traversal reads naturally.
    fn check_retained(&self, epoch: u64, path: &str) -> Result<(), PliniusError> {
        match self.mirror.epoch_iteration(&self.ctx, epoch) {
            Ok(_) => Ok(()),
            Err(PliniusError::EpochNotRetained(_)) => Err(no_such_path(path)),
            Err(e) => Err(e),
        }
    }

    /// The contents of an epoch's `meta` file.
    fn meta_text(&self, epoch: u64) -> Result<String, PliniusError> {
        let iteration = self.mirror.epoch_iteration(&self.ctx, epoch)?;
        let layout = self.mirror.slot_layout();
        let sealed_bytes: usize = layout.iter().map(|s| s.sealed_len).sum();
        Ok(format!(
            "epoch: {epoch}\niteration: {iteration}\nring_depth: {}\nlayers: {}\ntensors: {}\nsealed_bytes: {sealed_bytes}\n",
            self.mirror.ring_depth(),
            self.mirror.num_layers(),
            layout.len(),
        ))
    }

    /// Per-tensor changed-byte and L2-delta summary between two retained epochs
    /// (both are decrypted in-enclave; the sealed ring is never modified).
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::EpochNotRetained`] if either epoch left the ring,
    /// [`PliniusError::KeyNotProvisioned`] without the model key, or
    /// authentication failures on tampered blobs.
    pub fn epoch_diff(&self, from: u64, to: u64) -> Result<EpochDiff, PliniusError> {
        let gcm = self.ctx.gcm()?;
        let layout = self.mirror.slot_layout().to_vec();
        let max_sealed = layout.iter().map(|s| s.sealed_len).max().unwrap_or(0);
        let max_plain = layout.iter().map(|s| s.plain_len).max().unwrap_or(0);
        let mut sealed_a = vec![0u8; max_sealed];
        let mut sealed_b = vec![0u8; max_sealed];
        let mut plain_a = vec![0u8; max_plain];
        let mut plain_b = vec![0u8; max_plain];
        let mut tensors = Vec::with_capacity(layout.len());
        let mut total_changed = 0usize;
        let mut total_sq = 0f64;
        for (flat, slot) in layout.iter().enumerate() {
            let len_a = self
                .mirror
                .read_sealed_into(&self.ctx, from, flat, &mut sealed_a)?;
            let len_b = self
                .mirror
                .read_sealed_into(&self.ctx, to, flat, &mut sealed_b)?;
            let pa = &mut plain_a[..slot.plain_len];
            let pb = &mut plain_b[..slot.plain_len];
            SealedView::parse(&sealed_a[..len_a])?.open_into(&gcm, &slot.aad, pa)?;
            SealedView::parse(&sealed_b[..len_b])?.open_into(&gcm, &slot.aad, pb)?;
            let changed_bytes = pa.iter().zip(pb.iter()).filter(|(a, b)| a != b).count();
            let mut sq = 0f64;
            for (ca, cb) in pa.chunks_exact(4).zip(pb.chunks_exact(4)) {
                let fa = f32::from_le_bytes(ca.try_into().expect("4 bytes"));
                let fb = f32::from_le_bytes(cb.try_into().expect("4 bytes"));
                let d = (fb - fa) as f64;
                sq += d * d;
            }
            total_changed += changed_bytes;
            total_sq += sq;
            tensors.push(TensorDiff {
                layer: slot.layer,
                tensor: slot.tensor,
                changed_bytes,
                l2_delta: sq.sqrt(),
            });
        }
        Ok(EpochDiff {
            from,
            to,
            tensors,
            changed_bytes: total_changed,
            l2_delta: total_sq.sqrt(),
        })
    }

    /// Lifts a retained epoch out of the ring as a deployment-portable
    /// [`SealedEpoch`]: the sealed blobs are read byte-exact from PM (seqlock
    /// validated, never decrypted).
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::EpochNotRetained`] if the epoch left the ring
    /// (including mid-export, in which case no torn payload is ever returned).
    pub fn export(&self, epoch: u64) -> Result<SealedEpoch, PliniusError> {
        let iteration = self.mirror.epoch_iteration(&self.ctx, epoch)?;
        let layout = self.mirror.slot_layout();
        let mut arena = vec![0u8; self.mirror.arena_len()];
        let mut sealed_lens = Vec::with_capacity(layout.len());
        for (flat, slot) in layout.iter().enumerate() {
            let out = &mut arena[slot.sealed()];
            self.mirror.read_sealed_into(&self.ctx, epoch, flat, out)?;
            sealed_lens.push(slot.sealed_len as u64);
        }
        Ok(SealedEpoch {
            epoch,
            iteration,
            sealed_lens,
            arena,
        })
    }

    /// Imports a [`SealedEpoch`] exported from another deployment, committing it
    /// as this mirror's **next** epoch (the source epoch number is not reused —
    /// this ring's counter stays strictly monotonic). Every blob is
    /// AES-GCM-authenticated against the local model key before anything touches
    /// PM, so a payload sealed under a different key (or tampered with in
    /// transit) is rejected wholesale. Returns the committed epoch number.
    ///
    /// With a pipelined trainer attached to the same mirror, drain it first: an
    /// import races an in-flight publish like any other writer would.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::MirrorMismatch`] if the payload's layout differs
    /// from this mirror's, [`PliniusError::Crypto`] on authentication failure, or
    /// [`PliniusError::KeyNotProvisioned`] without the model key.
    pub fn import(&self, sealed: &SealedEpoch) -> Result<u64, PliniusError> {
        let layout = self.mirror.slot_layout();
        check_layout(&sealed.sealed_lens, &sealed.arena, layout)?;
        let gcm = self.ctx.gcm()?;
        verify_arena(layout, &gcm, &sealed.arena)?;
        self.mirror
            .commit_sealed_arena(&self.ctx, &sealed.arena, sealed.iteration)
    }
}

impl Vfs for MirrorVfs {
    fn list(&self, path: &str) -> Result<Vec<VfsEntry>, PliniusError> {
        match self.resolve(path)? {
            Resolved::Root => {
                let head = self.head_epoch()?;
                Ok(vec![
                    VfsEntry {
                        name: "HEAD".into(),
                        kind: VfsKind::Symlink,
                        len: format!("epoch/{head}").len(),
                    },
                    VfsEntry {
                        name: "epoch".into(),
                        kind: VfsKind::Directory,
                        len: 0,
                    },
                ])
            }
            Resolved::EpochDir => Ok(self
                .mirror
                .epochs(&self.ctx)?
                .into_iter()
                .map(|e| VfsEntry {
                    name: e.to_string(),
                    kind: VfsKind::Directory,
                    len: 0,
                })
                .collect()),
            Resolved::Epoch(epoch) => {
                self.check_retained(epoch, path)?;
                let mut entries = vec![VfsEntry {
                    name: "meta".into(),
                    kind: VfsKind::File,
                    len: self.meta_text(epoch)?.len(),
                }];
                for slot in self.mirror.slot_layout() {
                    entries.push(VfsEntry {
                        name: format!("layer{}-tensor{}.sealed", slot.layer, slot.tensor),
                        kind: VfsKind::File,
                        len: slot.sealed_len,
                    });
                }
                Ok(entries)
            }
            _ => Err(no_such_path(path)),
        }
    }

    fn stat(&self, path: &str) -> Result<VfsEntry, PliniusError> {
        match self.resolve(path)? {
            Resolved::Root => Ok(VfsEntry {
                name: "/".into(),
                kind: VfsKind::Directory,
                len: 0,
            }),
            Resolved::Head => Ok(VfsEntry {
                name: "HEAD".into(),
                kind: VfsKind::Symlink,
                len: format!("epoch/{}", self.head_epoch()?).len(),
            }),
            Resolved::EpochDir => Ok(VfsEntry {
                name: "epoch".into(),
                kind: VfsKind::Directory,
                len: 0,
            }),
            Resolved::Epoch(epoch) => {
                self.check_retained(epoch, path)?;
                Ok(VfsEntry {
                    name: epoch.to_string(),
                    kind: VfsKind::Directory,
                    len: 0,
                })
            }
            Resolved::Meta(epoch) => {
                self.check_retained(epoch, path)?;
                Ok(VfsEntry {
                    name: "meta".into(),
                    kind: VfsKind::File,
                    len: self.meta_text(epoch)?.len(),
                })
            }
            Resolved::Sealed {
                epoch, sealed_len, ..
            } => {
                self.check_retained(epoch, path)?;
                let name = path.rsplit('/').next().unwrap_or(path).to_string();
                Ok(VfsEntry {
                    name,
                    kind: VfsKind::File,
                    len: sealed_len,
                })
            }
        }
    }

    fn read_into(&self, path: &str, out: &mut [u8]) -> Result<usize, PliniusError> {
        match self.resolve(path)? {
            Resolved::Sealed { epoch, flat, .. } => {
                // The zero-copy lane: PM -> caller buffer, no intermediate heap.
                match self.mirror.read_sealed_into(&self.ctx, epoch, flat, out) {
                    Err(PliniusError::EpochNotRetained(_)) => Err(no_such_path(path)),
                    other => other,
                }
            }
            Resolved::Meta(epoch) => {
                self.check_retained(epoch, path)?;
                let text = self.meta_text(epoch)?;
                let bytes = text.as_bytes();
                if out.len() < bytes.len() {
                    return Err(PliniusError::MirrorMismatch(format!(
                        "output buffer of {} bytes cannot hold the {}-byte meta file",
                        out.len(),
                        bytes.len()
                    )));
                }
                out[..bytes.len()].copy_from_slice(bytes);
                Ok(bytes.len())
            }
            _ => Err(no_such_path(path)),
        }
    }

    fn read_link(&self, path: &str) -> Result<String, PliniusError> {
        match self.resolve(path)? {
            Resolved::Head => Ok(format!("epoch/{}", self.head_epoch()?)),
            _ => Err(no_such_path(path)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plinius_crypto::Key;
    use plinius_darknet::config::{build_network, mnist_cnn_config};
    use plinius_darknet::Network;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn deployment(ring: usize, key_seed: u64) -> (PliniusContext, Network, MirrorModel) {
        let ctx = PliniusContext::small_test(16 * 1024 * 1024);
        let mut rng = StdRng::seed_from_u64(key_seed);
        ctx.provision_key_directly(Key::generate_128(&mut rng));
        let mut rng = StdRng::seed_from_u64(7);
        let net = build_network(&mnist_cnn_config(2, 4, 4), &mut rng).unwrap();
        let mirror = MirrorModel::allocate_with_ring(&ctx, &net, ring).unwrap();
        (ctx, net, mirror)
    }

    fn publish_epochs(ctx: &PliniusContext, net: &mut Network, mirror: &MirrorModel, count: u64) {
        for i in 1..=count {
            net.set_iteration(i);
            mirror.mirror_out(ctx, net).unwrap();
        }
    }

    #[test]
    fn tree_lists_head_epochs_and_sealed_tensors() {
        let (ctx, mut net, mirror) = deployment(3, 11);
        publish_epochs(&ctx, &mut net, &mirror, 4);
        let vfs = MirrorVfs::new(&ctx, &mirror);
        // Root: HEAD symlink + epoch directory.
        let root = vfs.list("/").unwrap();
        assert_eq!(root.len(), 2);
        assert_eq!(root[0].name, "HEAD");
        assert_eq!(root[0].kind, VfsKind::Symlink);
        assert_eq!(root[1].name, "epoch");
        assert_eq!(root[1].kind, VfsKind::Directory);
        assert_eq!(vfs.read_link("/HEAD").unwrap(), "epoch/4");
        // Ring depth 3, 4 commits: epochs 2..=4 retained.
        let epochs: Vec<String> = vfs
            .list("/epoch")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(epochs, ["2", "3", "4"]);
        // An epoch directory: meta + one sealed file per tensor.
        let entries = vfs.list("/epoch/4").unwrap();
        assert_eq!(entries[0].name, "meta");
        assert_eq!(entries.len(), 1 + mirror.slot_layout().len());
        assert_eq!(entries[1].name, "layer0-tensor0.sealed");
        assert!(entries[1].len > 0);
        // Stat agrees with list; trailing slash and missing leading slash are fine.
        let stat = vfs.stat("epoch/4/layer0-tensor0.sealed").unwrap();
        assert_eq!(stat.len, entries[1].len);
        assert_eq!(vfs.stat("/epoch/4/").unwrap().kind, VfsKind::Directory);
        // Evicted and unknown entries are path errors.
        assert!(matches!(
            vfs.list("/epoch/1").unwrap_err(),
            PliniusError::VfsPath(_)
        ));
        assert!(matches!(
            vfs.stat("/epoch/4/layer9-tensor0.sealed").unwrap_err(),
            PliniusError::VfsPath(_)
        ));
        assert!(matches!(
            vfs.read_link("/epoch").unwrap_err(),
            PliniusError::VfsPath(_)
        ));
    }

    #[test]
    fn sealed_reads_are_byte_exact_and_meta_is_parseable() {
        let (ctx, mut net, mirror) = deployment(2, 12);
        publish_epochs(&ctx, &mut net, &mirror, 2);
        let vfs = MirrorVfs::new(&ctx, &mirror);
        let stat = vfs.stat("/epoch/2/layer0-tensor0.sealed").unwrap();
        let mut buf = vec![0u8; stat.len];
        let n = vfs
            .read_into("/epoch/2/layer0-tensor0.sealed", &mut buf)
            .unwrap();
        assert_eq!(n, stat.len);
        // Byte-exact against the mirror's own read primitive.
        let mut direct = vec![0u8; stat.len];
        mirror.read_sealed_into(&ctx, 2, 0, &mut direct).unwrap();
        assert_eq!(buf, direct);
        // The meta file carries the epoch and iteration.
        let meta_len = vfs.stat("/epoch/2/meta").unwrap().len;
        let mut meta = vec![0u8; meta_len];
        let n = vfs.read_into("/epoch/2/meta", &mut meta).unwrap();
        let text = std::str::from_utf8(&meta[..n]).unwrap();
        assert!(text.contains("epoch: 2"), "{text}");
        assert!(text.contains("iteration: 2"), "{text}");
        assert!(text.contains("ring_depth: 2"), "{text}");
    }

    #[test]
    fn epoch_diff_reports_changed_tensors() {
        let (ctx, mut net, mirror) = deployment(3, 13);
        net.set_iteration(1);
        mirror.mirror_out(&ctx, &net).unwrap();
        // Change exactly one parameter of the first trainable layer.
        let layer = net
            .layers_mut()
            .iter_mut()
            .find(|l| l.is_trainable())
            .unwrap();
        let mut tensors: Vec<Vec<f32>> = layer.params().iter().map(|p| p.data.to_vec()).collect();
        let old = tensors[0][0];
        tensors[0][0] = old + 2.0;
        layer.set_params(&tensors);
        net.set_iteration(2);
        mirror.mirror_out(&ctx, &net).unwrap();
        let vfs = MirrorVfs::new(&ctx, &mirror);
        let diff = vfs.epoch_diff(1, 2).unwrap();
        assert_eq!(diff.from, 1);
        assert_eq!(diff.to, 2);
        assert_eq!(diff.tensors.len(), mirror.slot_layout().len());
        // Only the first tensor changed, by exactly 2.0 in one parameter.
        assert!(diff.tensors[0].changed_bytes > 0);
        assert!((diff.tensors[0].l2_delta - 2.0).abs() < 1e-6);
        assert!(diff.tensors[1..].iter().all(|t| t.changed_bytes == 0));
        assert!((diff.l2_delta - 2.0).abs() < 1e-6);
        assert_eq!(diff.changed_bytes, diff.tensors[0].changed_bytes);
        // Identical epochs diff to zero.
        let same = vfs.epoch_diff(2, 2).unwrap();
        assert_eq!(same.changed_bytes, 0);
        assert_eq!(same.l2_delta, 0.0);
    }

    #[test]
    fn sealed_epoch_payload_round_trips() {
        let (ctx, mut net, mirror) = deployment(2, 14);
        publish_epochs(&ctx, &mut net, &mirror, 1);
        let vfs = MirrorVfs::new(&ctx, &mirror);
        let exported = vfs.export(1).unwrap();
        let bytes = exported.to_bytes();
        assert_eq!(SealedEpoch::from_bytes(&bytes).unwrap(), exported);
        // Corruption is caught structurally or cryptographically.
        assert!(SealedEpoch::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(SealedEpoch::from_bytes(&bad_magic).is_err());
        // A payload without tensors round-trips; no bytes at all is no payload.
        let empty = SealedEpoch {
            epoch: 0,
            iteration: 0,
            sealed_lens: Vec::new(),
            arena: Vec::new(),
        };
        assert_eq!(SealedEpoch::from_bytes(&empty.to_bytes()).unwrap(), empty);
        assert!(SealedEpoch::from_bytes(&[]).is_err());
        // Two declared tensors of 2^63 bytes each: their sum overflows a u64.
        let overflowing = SealedEpoch {
            epoch: 1,
            iteration: 1,
            sealed_lens: vec![1 << 63; 2],
            arena: Vec::new(),
        }
        .to_bytes();
        assert_eq!(overflowing.len(), 48);
        assert!(matches!(
            SealedEpoch::from_bytes(&overflowing),
            Err(PliniusError::MirrorMismatch(_))
        ));
    }
}
