//! The baseline Plinius is compared against in Fig. 7 / Table I: encrypted model
//! checkpoints on secondary storage (SSD), written through `fwrite`/`fsync` ocalls and
//! read back with `fread` ocalls — "the state-of-the-art method for fault tolerance".
//! A checkpoint is a [`SealedEpoch`] file, sealed and opened by the same code as the
//! PM mirror's epochs; only the medium differs.

use crate::sealed::{build_slots, decode, open_arena, sealed_lens, SealedEpoch, Staging};
use crate::{MirrorInReport, MirrorOutReport, PliniusContext, PliniusError};
use plinius_darknet::Network;
use sim_clock::SimSpan;
use std::borrow::Cow;

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

    /// Saves an encrypted checkpoint of `network` to the SSD: seal every parameter
    /// tensor in the enclave exactly as a mirror-out does, then `fwrite` the
    /// [`SealedEpoch`] file through ocalls, flush and `fsync`. The checkpoint's epoch
    /// field is 0: the SSD keeps no epoch ring.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::KeyNotProvisioned`] without a model key, or storage/SGX
    /// errors from the write path.
    pub fn save(
        &self,
        ctx: &PliniusContext,
        network: &Network,
    ) -> Result<MirrorOutReport, PliniusError> {
        let gcm = ctx.gcm()?;
        let clock = ctx.clock();
        let slots = build_slots(&sealed_lens(network))?;
        let mut staging = Staging::new(&slots);
        staging.draw_ivs(ctx);
        // Phase 1: in-enclave encryption (the mirror-out encryption phase).
        let (sealed, encrypt) = SimSpan::record(&clock, || {
            let model_bytes = staging.charge_and_stage(ctx, &slots, network);
            staging.seal(&slots, &gcm, plinius_parallel::max_threads())?;
            Ok::<_, PliniusError>(model_bytes)
        });
        let model_bytes = sealed?;
        let checkpoint = SealedEpoch {
            epoch: 0,
            iteration: network.iteration(),
            sealed_lens: slots.iter().map(|s| s.sealed_len as u64).collect(),
            arena: staging.arena,
        };
        // Phase 2: serialisation + fwrite ocalls + fsync.
        let (fs, path) = (ctx.ssd(), self.file(ctx));
        let (written, write) = SimSpan::record(&clock, || -> Result<(), PliniusError> {
            let encoded = checkpoint.to_bytes();
            fs.create(&path);
            // The baseline writes through ocalls, flushing libc buffers and issuing an
            // fsync after the writes (as described in §VI): one ocall for the `fwrite`s,
            // one for the `fsync`.
            ctx.enclave().ocall(|| {
                for chunk in encoded.chunks(1 << 20) {
                    fs.write(&path, chunk);
                }
            })?;
            ctx.enclave().ocall(|| fs.fsync(&path))??;
            Ok(())
        });
        written?;
        Ok(MirrorOutReport {
            encrypt,
            write,
            model_bytes,
            metadata_bytes: slots.len() * plinius_crypto::SEAL_OVERHEAD,
        })
    }

    /// Restores a checkpoint from the SSD into `network`: `fread` the file through
    /// ocalls into the enclave, check that it holds exactly the model's tensors, then
    /// open and decode it as a mirror-in does. A restore that fails leaves `network`
    /// as it was.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::NoMirrorModel`] if no checkpoint exists,
    /// [`PliniusError::MirrorMismatch`] if the file is malformed or holds another
    /// model's tensors, or authentication errors if it was tampered with.
    pub fn restore(
        &self,
        ctx: &PliniusContext,
        network: &mut Network,
    ) -> Result<MirrorInReport, PliniusError> {
        let path = self.file(ctx);
        if !ctx.ssd().exists(&path) {
            return Err(PliniusError::NoMirrorModel);
        }
        let gcm = ctx.gcm()?;
        let clock = ctx.clock();
        // Phase 1: read the whole checkpoint from the SSD into enclave memory.
        let (encoded, read) = SimSpan::record(&clock, || -> Result<Vec<u8>, PliniusError> {
            let bytes = ctx.enclave().ocall(|| ctx.ssd().read_all(&path))??;
            // Copying the checkpoint into the enclave pays the EPC paging penalty when
            // the model does not fit in the EPC (same mechanism as PM reads).
            let penalty = ctx
                .cost_model()
                .epc_paging_penalty_ns(bytes.len() as u64, ctx.enclave().working_set());
            ctx.clock().advance_ns(penalty);
            Ok(bytes)
        });
        let encoded = encoded?;
        // Phase 2: parse, check the layout, then open and decode.
        let (out, decrypt) = SimSpan::record(&clock, || {
            let checkpoint = SealedEpoch::from_bytes(&encoded)?;
            let slots = build_slots(&sealed_lens(network))?;
            checkpoint.check_layout(&slots)?;
            let mut plain = vec![0u8; slots.iter().map(|s| s.plain_len).sum()];
            let threads = plinius_parallel::max_threads();
            open_arena(&slots, &gcm, &checkpoint.arena, &mut plain, threads)?;
            let model_bytes = decode(ctx, &slots, &plain, network)?;
            Ok::<_, PliniusError>((checkpoint.iteration, checkpoint.epoch, model_bytes))
        });
        let (iteration, epoch, model_bytes) = out?;
        network.set_iteration(iteration);
        Ok(MirrorInReport {
            read,
            decrypt,
            iteration,
            epoch,
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
    use sim_clock::Metric;

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
        let stats = ctx.stats();
        let ocalls = stats.get(Metric::SgxOcalls);
        let save = ckpt.save(&ctx, &net).unwrap();
        // The save went through two ocalls (`fwrite`, `fsync`) and one fsync.
        assert_eq!(stats.get(Metric::SgxOcalls) - ocalls, 2);
        assert_eq!(stats.get(Metric::FsFsyncs), 1);
        assert!(ckpt.exists(&ctx));
        assert!(save.total_ms() > 0.0);
        let mut restored = network(2);
        let report = ckpt.restore(&ctx, &mut restored).unwrap();
        assert_eq!(report.iteration, 99);
        assert_eq!(weights(&restored), weights(&net));
        assert_eq!(report.model_bytes, save.model_bytes);
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
