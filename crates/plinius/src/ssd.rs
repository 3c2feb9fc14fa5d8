//! The baseline Plinius is compared against in Fig. 7 / Table I: encrypted model
//! checkpoints on secondary storage (SSD), written through `fwrite`/`fsync` ocalls and
//! read back with `fread` ocalls — "the state-of-the-art method for fault tolerance".

use crate::mirror::param_targets;
use crate::{f32s_from_bytes_into, f32s_to_bytes, PliniusContext, PliniusError};
use plinius_crypto::SealedView;
use plinius_darknet::Network;
use plinius_storage::{CheckpointBlob, CheckpointCodec};
use rand::RngCore;
use sim_clock::SimSpan;
use std::borrow::Cow;

/// Report of one SSD checkpoint save (encrypt + write-to-SSD).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdSaveReport {
    /// Time spent encrypting inside the enclave.
    pub encrypt: SimSpan,
    /// Time spent writing to the SSD (ocalls + fwrite + fsync).
    pub write: SimSpan,
    /// Plaintext model bytes checkpointed.
    pub model_bytes: usize,
}

impl SsdSaveReport {
    /// Total simulated save latency in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.encrypt.millis() + self.write.millis()
    }
}

/// Report of one SSD checkpoint restore (read-from-SSD + decrypt).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdRestoreReport {
    /// Time spent reading the checkpoint from the SSD into the enclave.
    pub read: SimSpan,
    /// Time spent decrypting inside the enclave.
    pub decrypt: SimSpan,
    /// Iteration recovered from the checkpoint.
    pub iteration: u64,
    /// Plaintext model bytes restored.
    pub model_bytes: usize,
}

impl SsdRestoreReport {
    /// Total simulated restore latency in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.read.millis() + self.decrypt.millis()
    }
}

/// Encrypted model checkpointing on the deployment's (simulated) SSD,
/// [`PliniusContext::ssd`].
///
/// Tenants share the disk and are kept apart by path: tenant 0 writes the checkpoint
/// at the path itself, and tenant `t` at `tenant{t}/` followed by the path, as
/// [`tenant_key_name`](crate::tenant_key_name) keeps tenant 0's historic key name.
#[derive(Debug, Clone)]
pub struct SsdCheckpointer {
    path: String,
}

impl SsdCheckpointer {
    /// Creates a checkpointer writing to `path` on the SSD of the context it is used
    /// with.
    pub fn new(path: impl Into<String>) -> Self {
        SsdCheckpointer { path: path.into() }
    }

    /// The checkpoint's file on the SSD for `ctx`'s tenant.
    fn file(&self, ctx: &PliniusContext) -> Cow<'_, str> {
        match ctx.tenant().raw() {
            0 => Cow::Borrowed(&self.path),
            t => Cow::Owned(format!("tenant{t}/{}", self.path)),
        }
    }

    /// Whether a checkpoint file exists for `ctx`'s tenant.
    pub fn exists(&self, ctx: &PliniusContext) -> bool {
        ctx.ssd().exists(&self.file(ctx))
    }

    /// Saves an encrypted checkpoint of `network` to the SSD: encrypt every parameter
    /// tensor in the enclave, then `fwrite` the blob through ocalls, flush and `fsync`.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::KeyNotProvisioned`] without a model key, or storage/SGX
    /// errors from the write path.
    pub fn save(
        &self,
        ctx: &PliniusContext,
        network: &Network,
    ) -> Result<SsdSaveReport, PliniusError> {
        // One warm GCM context (key schedule + GHASH tables + engine selection, from
        // the enclave's per-key cache) for the whole checkpoint instead of per tensor.
        let gcm = ctx.gcm()?;
        let clock = ctx.clock();
        let mut rng = ctx.enclave_rng();
        let mut model_bytes = 0usize;
        // Phase 1: in-enclave encryption (identical to the mirror-out encryption phase).
        let (blob, encrypt) =
            SimSpan::record(&clock, || -> Result<CheckpointBlob, PliniusError> {
                let mut layers = Vec::new();
                for (i, layer) in network
                    .layers()
                    .iter()
                    .filter(|l| l.is_trainable())
                    .enumerate()
                {
                    let mut tensors = Vec::new();
                    for (j, param) in layer.params().iter().enumerate() {
                        let plaintext = f32s_to_bytes(param.data);
                        model_bytes += plaintext.len();
                        ctx.enclave().charge_crypto(plaintext.len() as u64);
                        let aad = format!("layer{i}-tensor{j}");
                        // Fresh random IV per tensor, drawn exactly as
                        // `SealedBuffer::seal_with_aad` would.
                        let mut iv = [0u8; plinius_crypto::IV_LEN];
                        rng.fill_bytes(&mut iv);
                        let mut sealed = vec![0u8; plinius_crypto::sealed_len(plaintext.len())];
                        plinius_crypto::seal_into(
                            &gcm,
                            &plaintext,
                            aad.as_bytes(),
                            &iv,
                            &mut sealed,
                        )?;
                        tensors.push(sealed);
                    }
                    layers.push(tensors);
                }
                Ok(CheckpointBlob {
                    iteration: network.iteration(),
                    layers,
                })
            });
        let blob = blob?;
        // Phase 2: serialisation + fwrite ocalls + fsync.
        let (fs, path) = (ctx.ssd(), self.file(ctx));
        let ((), write) = SimSpan::record(&clock, || {
            let encoded = CheckpointCodec::encode(&blob);
            fs.create(&path);
            // The baseline writes layer by layer, each through an ocall, flushing libc
            // buffers and issuing an fsync after the writes (as described in §VI).
            let _ = ctx.enclave().ocall("fwrite_checkpoint", || {
                for chunk in encoded.chunks(1 << 20) {
                    fs.write(&path, chunk);
                }
            });
            let _ = ctx.enclave().ocall("fsync_checkpoint", || {
                let _ = fs.fsync(&path);
            });
        });
        Ok(SsdSaveReport {
            encrypt,
            write,
            model_bytes,
        })
    }

    /// Restores a checkpoint from the SSD into `network`: `fread` the blob through
    /// ocalls into the enclave, then decrypt and install the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::NoMirrorModel`] if no checkpoint exists, authentication
    /// errors if it was tampered with, or a mismatch error if the model differs.
    pub fn restore(
        &self,
        ctx: &PliniusContext,
        network: &mut Network,
    ) -> Result<SsdRestoreReport, PliniusError> {
        let path = self.file(ctx);
        if !ctx.ssd().exists(&path) {
            return Err(PliniusError::NoMirrorModel);
        }
        // One warm GCM context (from the enclave's per-key cache) for the whole restore.
        let gcm = ctx.gcm()?;
        let clock = ctx.clock();
        // Phase 1: read the whole checkpoint from the SSD into enclave memory.
        let (encoded, read) = SimSpan::record(&clock, || -> Result<Vec<u8>, PliniusError> {
            let bytes = ctx
                .enclave()
                .ocall("fread_checkpoint", || ctx.ssd().read_all(&path))??;
            // Copying the checkpoint into the enclave pays the EPC paging penalty when
            // the model does not fit in the EPC (same mechanism as PM reads).
            let penalty = ctx
                .cost_model()
                .epc_paging_penalty_ns(bytes.len() as u64, ctx.enclave().working_set());
            ctx.clock().advance_ns(penalty);
            Ok(bytes)
        });
        let encoded = encoded?;
        // Phase 2: decrypt and install.
        let (out, decrypt) = SimSpan::record(&clock, || -> Result<(u64, usize), PliniusError> {
            let blob = CheckpointCodec::decode(&encoded)?;
            // One staging buffer for every tensor's plaintext, decoded in place.
            let mut plain = Vec::new();
            let mut model_bytes = 0usize;
            let mut node_idx = 0usize;
            for layer in network.layers_mut().iter_mut() {
                if !layer.is_trainable() {
                    continue;
                }
                let Some(tensors_enc) = blob.layers.get(node_idx) else {
                    return Err(PliniusError::MirrorMismatch(
                        "checkpoint has fewer layers than the enclave model".into(),
                    ));
                };
                // Borrowed views: decrypt straight out of the checkpoint blob without
                // cloning the sealed bytes.
                let views = tensors_enc
                    .iter()
                    .map(|enc| SealedView::parse(enc))
                    .collect::<Result<Vec<_>, _>>()?;
                let targets =
                    param_targets(layer, node_idx, views.iter().map(SealedView::plaintext_len))?;
                for (j, (view, target)) in views.iter().zip(targets).enumerate() {
                    ctx.enclave().charge_crypto(tensors_enc[j].len() as u64);
                    let aad = format!("layer{node_idx}-tensor{j}");
                    plain.resize(view.plaintext_len(), 0);
                    view.open_into(&gcm, aad.as_bytes(), &mut plain)?;
                    f32s_from_bytes_into(&plain, target);
                    model_bytes += plain.len();
                }
                node_idx += 1;
            }
            if node_idx != blob.num_layers() {
                return Err(PliniusError::MirrorMismatch(
                    "checkpoint has more layers than the enclave model".into(),
                ));
            }
            Ok((blob.iteration, model_bytes))
        });
        let (iteration, model_bytes) = out?;
        network.set_iteration(iteration);
        Ok(SsdRestoreReport {
            read,
            decrypt,
            iteration,
            model_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mirror::MirrorModel;
    use plinius_crypto::Key;
    use plinius_darknet::config::{build_network, mnist_cnn_config};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx_with_key() -> PliniusContext {
        let ctx = PliniusContext::small_test(16 * 1024 * 1024);
        let mut rng = StdRng::seed_from_u64(17);
        ctx.provision_key_directly(Key::generate_128(&mut rng));
        ctx
    }

    fn network(seed: u64) -> Network {
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

    #[test]
    fn save_restore_round_trip() {
        let ctx = ctx_with_key();
        let ckpt = SsdCheckpointer::new("model.ckpt");
        let mut net = network(1);
        net.set_iteration(99);
        assert!(!ckpt.exists(&ctx));
        let save = ckpt.save(&ctx, &net).unwrap();
        assert!(ckpt.exists(&ctx));
        assert!(save.total_ms() > 0.0);
        let mut restored = network(2);
        let report = ckpt.restore(&ctx, &mut restored).unwrap();
        assert_eq!(report.iteration, 99);
        assert_eq!(weights(&restored), weights(&net));
        assert_eq!(report.model_bytes, save.model_bytes);
        // The baseline path really went through ocalls and an fsync.
        assert!(ctx.stats().value("sgx.ocall.fwrite_checkpoint") >= 1);
        assert_eq!(ctx.stats().value("fs.fsyncs"), 1);
    }

    #[test]
    fn restore_without_checkpoint_errors() {
        let ctx = ctx_with_key();
        let ckpt = SsdCheckpointer::new("missing.ckpt");
        let mut net = network(3);
        assert!(matches!(
            ckpt.restore(&ctx, &mut net).unwrap_err(),
            PliniusError::NoMirrorModel
        ));
    }

    #[test]
    fn ssd_save_is_slower_than_pm_mirror_for_the_same_model() {
        // The headline result: mirroring to PM beats SSD checkpointing.
        let ctx = ctx_with_key();
        let net = network(4);
        let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
        let pm_save = mirror.mirror_out(&ctx, &net).unwrap();
        let ckpt = SsdCheckpointer::new("model.ckpt");
        let ssd_save = ckpt.save(&ctx, &net).unwrap();
        assert!(
            ssd_save.total_ms() > pm_save.total_ms(),
            "ssd {} ms vs pm {} ms",
            ssd_save.total_ms(),
            pm_save.total_ms()
        );
        // Restores too.
        let mut a = network(5);
        let mut b = network(6);
        let pm_restore = mirror.mirror_in(&ctx, &mut a).unwrap();
        let ssd_restore = ckpt.restore(&ctx, &mut b).unwrap();
        assert!(ssd_restore.total_ms() > pm_restore.total_ms());
    }

    #[test]
    fn tampered_checkpoint_is_rejected() {
        let ctx = ctx_with_key();
        let ckpt = SsdCheckpointer::new("model.ckpt");
        let net = network(7);
        ckpt.save(&ctx, &net).unwrap();
        // Corrupt a byte in the middle of the stored file (inside some tensor payload).
        let raw = ctx.ssd().read_all("model.ckpt").unwrap();
        let mut corrupted = raw.clone();
        let idx = raw.len() / 2;
        corrupted[idx] ^= 0x01;
        ctx.ssd().create("model.ckpt");
        ctx.ssd().write("model.ckpt", &corrupted);
        let mut restored = network(8);
        assert!(ckpt.restore(&ctx, &mut restored).is_err());
    }
}
