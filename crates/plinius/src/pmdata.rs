//! The PM-data module (Fig. 4/5, §V "Initial dataset loading to PM"): encrypted,
//! byte-addressable training data resident in persistent memory.
//!
//! Training data is loaded into PM *once*; afterwards it stays there across crashes and
//! restarts, so recovery never has to re-read the dataset from secondary storage. Every
//! sample (image ‖ one-hot label, as little-endian `f32`s) is stored as an individually
//! sealed AES-GCM blob, bound to its index by the AAD `sample{i}`, so the training loop
//! can decrypt exactly the batch it needs into enclave memory.
//!
//! Sealing and opening go through the model key's context from the enclave's per-key
//! cache ([`PliniusContext::gcm`]), the one the mirror uses, into buffers reused across
//! a load or a batch: [`PmDataset::decrypt_batch`] opens each sample straight from PM
//! ([`plinius_romulus::Romulus::read_with`]), makes the same few heap allocations at
//! every batch size, and decodes each sample straight into the batch.

use crate::{f32s_from_bytes_into, f32s_to_bytes_into, PliniusContext, PliniusError};
use plinius_crypto::{seal_into, SealedView, IV_LEN, SEAL_OVERHEAD};
use plinius_darknet::Dataset;
use plinius_romulus::PmPtr;
use rand::{Rng, RngCore};
use std::io::Write;

/// Root-directory slot holding tenant 0's PM dataset header. Other tenants use
/// their own root pair ([`crate::TenantId::dataset_root`]); the dataset always
/// reads the slot through [`PliniusContext::dataset_root`].
pub const ROOT_DATASET: usize = 1;

/// Persistent header layout: `[samples][inputs][classes][sealed_len][block_ptr]`.
const HEADER_BYTES: usize = 40;

/// Capacity of a sample's AAD: `sample` and the decimal digits of any `usize`.
const AAD_CAP: usize = 6 + 20;

/// Formats sample `index`'s AAD, `sample{index}`, into `buf` without allocating.
fn sample_aad(index: usize, buf: &mut [u8; AAD_CAP]) -> &[u8] {
    let mut rest = &mut buf[..];
    write!(rest, "sample{index}").expect("AAD_CAP holds every usize index");
    let len = AAD_CAP - rest.len();
    &buf[..len]
}

/// Handle to the encrypted training dataset resident in PM.
#[derive(Debug, Clone)]
pub struct PmDataset {
    block: PmPtr,
    samples: usize,
    inputs: usize,
    classes: usize,
    sealed_len: usize,
}

impl PmDataset {
    /// Whether a dataset has already been loaded into the context's PM pool.
    pub fn exists(ctx: &PliniusContext) -> bool {
        matches!(ctx.romulus().root(ctx.dataset_root()), Ok(p) if !p.is_null())
    }

    /// Loads (encrypts and copies) a dataset into PM — the `ocall_load_data_in_pm` +
    /// PM-data-module path of Algorithm 2, executed once per deployment.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::KeyNotProvisioned`] without a model key, or Romulus errors
    /// (e.g. the PM pool is too small for the dataset).
    pub fn load(ctx: &PliniusContext, dataset: &Dataset) -> Result<Self, PliniusError> {
        let gcm = ctx.gcm()?;
        let mut rng = ctx.enclave_rng();
        let (inputs, classes) = (dataset.inputs(), dataset.classes());
        let plain_len = (inputs + classes) * 4;
        let sealed_len = plain_len + SEAL_OVERHEAD;
        // The untrusted helper reads the (already encrypted at rest) data from storage
        // into DRAM and hands its address to the enclave via an ecall; here that step is
        // the ocall/ecall pair bracketing the PM copy.
        ctx.enclave().ocall(|| ())?;
        let samples = dataset.len();
        let mut header = PmPtr::NULL;
        let mut block = PmPtr::NULL;
        ctx.enclave().ecall(|| ())?;
        ctx.romulus().transaction(|tx| {
            header = tx.alloc(HEADER_BYTES)?;
            block = tx.alloc(samples * sealed_len)?;
            tx.write_u64(header, samples as u64)?;
            tx.write_u64(header.add(8), inputs as u64)?;
            tx.write_u64(header.add(16), classes as u64)?;
            tx.write_u64(header.add(24), sealed_len as u64)?;
            tx.write_u64(header.add(32), block.offset())?;
            Ok(())
        })?;
        // Encrypt and persist the samples in chunks of transactions so the volatile log
        // stays bounded (the data block itself was allocated above). One small buffer
        // per sample of a chunk, not one chunk-sized buffer: freeing a buffer that
        // large would raise glibc's mmap threshold and with it the process's peak RSS.
        const CHUNK: usize = 256;
        let mut plain = vec![0u8; plain_len];
        let mut sealed_chunk = vec![vec![0u8; sealed_len]; CHUNK.min(samples)];
        let mut aad = [0u8; AAD_CAP];
        let mut index = 0usize;
        while index < samples {
            let end = (index + CHUNK).min(samples);
            for (i, blob) in (index..end).zip(sealed_chunk.iter_mut()) {
                let (image, label) = plain.split_at_mut(inputs * 4);
                f32s_to_bytes_into(dataset.image(i), image);
                f32s_to_bytes_into(dataset.label(i), label);
                ctx.enclave().charge_crypto(plain_len as u64);
                let mut iv = [0u8; IV_LEN];
                rng.fill_bytes(&mut iv);
                seal_into(&gcm, &plain, sample_aad(i, &mut aad), &iv, blob)?;
            }
            ctx.romulus().transaction(|tx| {
                for (i, blob) in (index..end).zip(&sealed_chunk) {
                    tx.write_bytes(block.add((i * sealed_len) as u64), blob)?;
                }
                Ok(())
            })?;
            index = end;
        }
        // Publish the dataset root only after all samples are durable.
        ctx.romulus()
            .transaction(|tx| tx.set_root(ctx.dataset_root(), header))?;
        Ok(PmDataset {
            block,
            samples,
            inputs,
            classes,
            sealed_len,
        })
    }

    /// Opens the dataset already resident in PM (after a restart).
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::NoPmDataset`] if no dataset was loaded, or
    /// [`PliniusError::MirrorMismatch`] if the header's sample size does not match its
    /// shape or its samples do not fit the region after the data block's start (the
    /// host owns PM).
    pub fn open(ctx: &PliniusContext) -> Result<Self, PliniusError> {
        let header = ctx.romulus().root(ctx.dataset_root())?;
        if header.is_null() {
            return Err(PliniusError::NoPmDataset);
        }
        let rom = ctx.romulus();
        let dataset = PmDataset {
            block: PmPtr::from_offset(rom.read_u64(header.add(32))?),
            samples: rom.read_u64(header)? as usize,
            inputs: rom.read_u64(header.add(8))? as usize,
            classes: rom.read_u64(header.add(16))? as usize,
            sealed_len: rom.read_u64(header.add(24))? as usize,
        };
        let plain_len = dataset
            .inputs
            .checked_add(dataset.classes)
            .and_then(|n| n.checked_mul(4));
        if plain_len.and_then(|n| n.checked_add(SEAL_OVERHEAD)) != Some(dataset.sealed_len) {
            return Err(PliniusError::MirrorMismatch(format!(
                "PM dataset header declares {}-byte sealed samples of {} inputs and {} classes",
                dataset.sealed_len, dataset.inputs, dataset.classes
            )));
        }
        // The data block must fit the region after its start, and one sample the region
        // even when the dataset is empty: that bounds every buffer a batch sizes and
        // every `index * sealed_len` offset.
        let region = rom.region_size();
        let room = region.saturating_sub(dataset.block.offset() as usize);
        let block_len = dataset.samples.checked_mul(dataset.sealed_len);
        if block_len.is_none_or(|len| len > room) || dataset.sealed_len > region {
            return Err(PliniusError::MirrorMismatch(format!(
                "PM dataset header declares {} samples of {} bytes, more than the region holds",
                dataset.samples, dataset.sealed_len
            )));
        }
        Ok(dataset)
    }

    /// Number of samples resident in PM.
    pub fn len(&self) -> usize {
        self.samples
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }

    /// Inputs per sample.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Total encrypted bytes occupied in PM.
    pub fn pm_bytes(&self) -> usize {
        self.samples * self.sealed_len + HEADER_BYTES
    }

    /// Reads and decrypts one sample into enclave memory.
    ///
    /// # Errors
    ///
    /// Returns an authentication error if the PM copy was tampered with, or
    /// [`PliniusError::MirrorMismatch`] for an index out of range.
    pub fn sample(
        &self,
        ctx: &PliniusContext,
        index: usize,
    ) -> Result<(Vec<f32>, Vec<f32>), PliniusError> {
        if index >= self.samples {
            return Err(PliniusError::MirrorMismatch(format!(
                "sample index {index} out of range ({} samples)",
                self.samples
            )));
        }
        let (mut image, mut label) = (vec![0.0; self.inputs], vec![0.0; self.classes]);
        self.open_rows(ctx, [index], &mut image, &mut label)?;
        Ok((image, label))
    }

    /// Decrypts a batch of `batch` random samples into contiguous `(images, labels)`
    /// buffers — the `decrypt_pm_data(batch_size)` step of Algorithm 2.
    ///
    /// # Errors
    ///
    /// Returns [`PliniusError::MirrorMismatch`] without drawing from `rng` if the
    /// dataset holds no samples (its header is host-written PM), and otherwise the
    /// errors of [`PmDataset::sample`].
    pub fn decrypt_batch<R: Rng>(
        &self,
        ctx: &PliniusContext,
        batch: usize,
        rng: &mut R,
    ) -> Result<(Vec<f32>, Vec<f32>), PliniusError> {
        if self.is_empty() {
            return Err(PliniusError::MirrorMismatch(format!(
                "the PM dataset holds no samples to draw a batch of {batch} from"
            )));
        }
        let mut images = vec![0.0; batch * self.inputs];
        let mut labels = vec![0.0; batch * self.classes];
        let indices = (0..batch).map(|_| rng.gen_range(0..self.samples));
        self.open_rows(ctx, indices, &mut images, &mut labels)?;
        Ok((images, labels))
    }

    /// Authenticates and decrypts the samples at `indices`, in order, each straight
    /// from PM into one reused buffer, and decodes each image and one-hot label
    /// straight into the next row of `images` and `labels`.
    fn open_rows(
        &self,
        ctx: &PliniusContext,
        indices: impl IntoIterator<Item = usize>,
        images: &mut [f32],
        labels: &mut [f32],
    ) -> Result<(), PliniusError> {
        let gcm = ctx.gcm()?;
        let mut plain = vec![0u8; self.sealed_len - SEAL_OVERHEAD];
        let mut aad = [0u8; AAD_CAP];
        let (inputs, classes) = (self.inputs, self.classes);
        for (row, index) in indices.into_iter().enumerate() {
            let sample = self.block.add((index * self.sealed_len) as u64);
            ctx.enclave().charge_crypto(self.sealed_len as u64);
            ctx.romulus()
                .read_with(sample, self.sealed_len, |sealed| {
                    SealedView::parse(sealed)?.open_into(
                        &gcm,
                        sample_aad(index, &mut aad),
                        &mut plain,
                    )
                })??;
            ctx.enclave().charge_data_staging(plain.len() as u64);
            let (image, label) = plain.split_at(inputs * 4);
            f32s_from_bytes_into(image, &mut images[row * inputs..(row + 1) * inputs]);
            f32s_from_bytes_into(label, &mut labels[row * classes..(row + 1) * classes]);
        }
        Ok(())
    }

    /// Reads a batch of *plaintext* samples directly (no decryption), used by the Fig. 8
    /// baseline that trains from unencrypted PM data.
    ///
    /// This still charges the PM-read and staging costs, only the AES-GCM work is
    /// skipped; the data stored in PM remains encrypted, so this path is only meaningful
    /// for the performance comparison (it re-reads from the plaintext dataset kept by the
    /// caller).
    pub fn staging_cost_only(&self, ctx: &PliniusContext, batch: usize) {
        let plain_len = (self.inputs + self.classes) * 4;
        ctx.enclave()
            .charge_data_staging((batch * plain_len) as u64);
        ctx.enclave().charge_pm_read((batch * plain_len) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plinius_crypto::Key;
    use plinius_darknet::synthetic_images;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx_with_key() -> PliniusContext {
        let ctx = PliniusContext::small_test(16 * 1024 * 1024);
        let mut rng = StdRng::seed_from_u64(5);
        ctx.provision_key_directly(Key::generate_128(&mut rng));
        ctx
    }

    #[test]
    fn load_and_read_back_samples() {
        let ctx = ctx_with_key();
        let mut rng = StdRng::seed_from_u64(1);
        let data = synthetic_images(40, 8, 8, 3, 0.1, &mut rng);
        assert!(!PmDataset::exists(&ctx));
        let pm = PmDataset::load(&ctx, &data).unwrap();
        assert!(PmDataset::exists(&ctx));
        assert_eq!(pm.len(), 40);
        assert_eq!(pm.inputs(), 64);
        assert_eq!(pm.classes(), 3);
        assert!(pm.pm_bytes() > 40 * 64 * 4);
        for i in [0usize, 13, 39] {
            let (img, lbl) = pm.sample(&ctx, i).unwrap();
            assert_eq!(img, data.image(i));
            assert_eq!(lbl, data.label(i));
        }
        assert!(pm.sample(&ctx, 40).is_err());
    }

    #[test]
    fn batches_have_correct_shape() {
        let ctx = ctx_with_key();
        let mut rng = StdRng::seed_from_u64(2);
        let data = synthetic_images(20, 6, 6, 4, 0.1, &mut rng);
        let pm = PmDataset::load(&ctx, &data).unwrap();
        let (images, labels) = pm.decrypt_batch(&ctx, 8, &mut rng).unwrap();
        assert_eq!(images.len(), 8 * 36);
        assert_eq!(labels.len(), 8 * 4);
        // Every label row is one-hot.
        for row in labels.chunks(4) {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        }
        pm.staging_cost_only(&ctx, 8);
    }

    #[test]
    fn dataset_survives_reopen_and_requires_key() {
        let ctx = ctx_with_key();
        let key = ctx.key().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let data = synthetic_images(10, 5, 5, 2, 0.1, &mut rng);
        PmDataset::load(&ctx, &data).unwrap();
        let pool = ctx.pool().clone();
        drop(ctx);
        let ctx2 = PliniusContext::open(pool, sim_clock::CostModel::sgx_eml_pm()).unwrap();
        // Without the key the data cannot be decrypted.
        let pm2 = PmDataset::open(&ctx2).unwrap();
        assert!(pm2.sample(&ctx2, 0).is_err());
        ctx2.provision_key_directly(key);
        let (img, _) = pm2.sample(&ctx2, 0).unwrap();
        assert_eq!(img, data.image(0));
    }

    #[test]
    fn sealed_samples_match_the_per_sample_seal_formula() {
        // 300 samples: more than one 256-sample load chunk.
        let mut rng = StdRng::seed_from_u64(8);
        let data = synthetic_images(300, 4, 4, 3, 0.1, &mut rng);
        let ctx = ctx_with_key();
        let pm = PmDataset::load(&ctx, &data).unwrap();
        // Twin deployment: identical pool size, enclave RNG stream and key, so the IV
        // stream drawn below is the one the load above used.
        let twin = ctx_with_key();
        let gcm = twin.key().unwrap().gcm();
        let mut ivs = twin.enclave_rng();
        for i in 0..data.len() {
            let plaintext = crate::f32s_to_bytes(&[data.image(i), data.label(i)].concat());
            let mut iv = [0u8; IV_LEN];
            ivs.fill_bytes(&mut iv);
            let mut expected = vec![0u8; plinius_crypto::sealed_len(plaintext.len())];
            let aad = format!("sample{i}");
            seal_into(&gcm, &plaintext, aad.as_bytes(), &iv, &mut expected).unwrap();
            let ptr = pm.block.add((i * pm.sealed_len) as u64);
            let got = ctx.romulus().read_bytes(ptr, pm.sealed_len).unwrap();
            assert_eq!(got, expected, "sample {i}");
        }
    }

    #[test]
    fn corrupt_header_sizes_are_rejected_on_open() {
        let ctx = ctx_with_key();
        let mut rng = StdRng::seed_from_u64(9);
        PmDataset::load(&ctx, &synthetic_images(4, 3, 3, 2, 0.1, &mut rng)).unwrap();
        let sealed_len = ctx.romulus().root(ctx.dataset_root()).unwrap().add(24);
        for bad in [0u64, 27, 28 + 11 * 4 - 1, u64::MAX] {
            let rom = ctx.romulus();
            rom.transaction(|tx| tx.write_u64(sealed_len, bad)).unwrap();
            let err = PmDataset::open(&ctx).unwrap_err();
            assert!(matches!(err, PliniusError::MirrorMismatch(_)), "{err}");
        }
    }

    #[test]
    fn a_host_emptied_dataset_fails_a_batch_instead_of_panicking() {
        let ctx = ctx_with_key();
        let mut rng = StdRng::seed_from_u64(10);
        PmDataset::load(&ctx, &synthetic_images(4, 3, 3, 2, 0.1, &mut rng)).unwrap();
        let samples = ctx.romulus().root(ctx.dataset_root()).unwrap();
        ctx.romulus()
            .transaction(|tx| tx.write_u64(samples, 0))
            .unwrap();
        let pm = PmDataset::open(&ctx).unwrap();
        assert!(pm.is_empty());
        let err = pm.decrypt_batch(&ctx, 8, &mut rng).unwrap_err();
        assert!(
            matches!(&err, PliniusError::MirrorMismatch(m) if m.contains("no samples")),
            "{err}"
        );
    }

    #[test]
    fn a_host_header_whose_samples_overflow_the_region_is_rejected_on_open() {
        let ctx = ctx_with_key();
        let mut rng = StdRng::seed_from_u64(11);
        PmDataset::load(&ctx, &synthetic_images(4, 3, 3, 2, 0.1, &mut rng)).unwrap();
        let inputs = ctx.romulus().root(ctx.dataset_root()).unwrap().add(8);
        // Each shape's sealed length matches it, so only the region bound rejects it.
        for huge in [1u64 << 61, 1 << 40] {
            let header: Vec<u8> = [huge, 0, huge * 4 + SEAL_OVERHEAD as u64]
                .iter()
                .flat_map(|field| field.to_le_bytes())
                .collect();
            ctx.romulus().publish_region(inputs, &header).unwrap();
            let err = PmDataset::open(&ctx)
                .and_then(|pm| pm.decrypt_batch(&ctx, 8, &mut rng))
                .unwrap_err();
            assert!(matches!(err, PliniusError::MirrorMismatch(_)), "{err}");
        }
    }

    #[test]
    fn open_without_dataset_errors() {
        let ctx = ctx_with_key();
        assert!(matches!(
            PmDataset::open(&ctx).unwrap_err(),
            PliniusError::NoPmDataset
        ));
    }
}
