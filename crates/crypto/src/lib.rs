//! # plinius-crypto
//!
//! Authenticated encryption primitives for the Plinius reproduction, implemented from
//! scratch (no third-party crypto crates): the AES block cipher, AES-GCM (the AEAD used
//! by the Intel SGX SDK routines that Plinius' encryption engine calls), SHA-256 and
//! HMAC-SHA256 for enclave measurements and sealing-key derivation.
//!
//! The AEAD engine is built for throughput — Plinius mirrors the whole encrypted model
//! to PM every iteration, so AES-GCM speed bounds the fault-tolerance overhead:
//!
//! * **vector kernels** ([`dispatch`]): VAES CTR and VPCLMULQDQ GHASH, 16 blocks
//!   per pass in 512-bit registers, selected at [`AesGcm`] construction when
//!   the `x86_64` CPU also reports `avx512f`, `avx512bw`, `vaes` and `vpclmulqdq`;
//! * **hardware kernels** ([`dispatch`]): AES-NI CTR and carry-less-multiply GHASH,
//!   selected when the CPU reports the `aes` and `pclmulqdq` features but not the
//!   vector ones (override either with `PLINIUS_CRYPTO={auto,scalar}`, or pin one
//!   engine with [`AesGcm::with_engine`]);
//! * **T-table AES** ([`aes`]): four 256-entry fused SubBytes/ShiftRows/MixColumns
//!   tables, an order of magnitude faster than the byte-wise reference kernel (which is
//!   retained for differential testing) — the always-compiled scalar fallback;
//! * **Shoup 4-bit GHASH** ([`gcm`]): a 16-entry per-key table turns the 128 bit-steps
//!   of the schoolbook GF(2^128) multiply into 32 shift+lookup steps;
//! * **zero-copy sealing** ([`seal_into`], [`SealedView::open_into`]): encrypt/decrypt
//!   straight into caller-provided buffers with no heap allocation on any engine. A
//!   seal is one stitched pass that hashes each ciphertext block before storing it
//!   and never reads its output back; an open verifies the tag before it decrypts.
//! * **tensor sealing** ([`seal_f32s_into`], [`open_f32s_into`]): a model tensor
//!   seals straight from its `f32` slice, to the same bytes as [`seal_into`] of its
//!   little-endian image, and a sealed model opens straight into its slices once
//!   every tensor's tag has verified.
//!
//! The crate also fixes the *sealed-buffer layout* Plinius stores on persistent memory
//! (§IV of the paper): each parameter buffer is encrypted with AES-GCM under a fresh
//! 12-byte IV, and the IV plus the 16-byte MAC are appended to the ciphertext — 28 bytes
//! of metadata per buffer, i.e. 140 bytes per mirrored layer (5 parameter matrices per
//! layer). [`seal_into`] writes that layout into a caller's buffer and [`SealedView`]
//! reads it back in place, both through an [`AesGcm`] context built once per key.
//!
//! # Example
//!
//! ```
//! use plinius_crypto::{seal_into, sealed_len, Key, SealedView, IV_LEN};
//! use rand::{RngCore, SeedableRng};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let gcm = Key::generate_128(&mut rng).gcm(); // once per key, then reused
//! let mut iv = [0u8; IV_LEN];
//! rng.fill_bytes(&mut iv);
//! let mut sealed = vec![0u8; sealed_len(13)];
//! seal_into(&gcm, b"layer weights", b"layer0-tensor0", &iv, &mut sealed)?;
//! let mut opened = [0u8; 13];
//! SealedView::parse(&sealed)?.open_into(&gcm, b"layer0-tensor0", &mut opened)?;
//! assert_eq!(&opened, b"layer weights");
//! # Ok::<(), plinius_crypto::CryptoError>(())
//! ```

// `deny` rather than `forbid`: the three hardware kernel modules (`aesarch`,
// `clmul`, `vaes`) opt back in with a module-level allow — with `plinius-darknet`'s
// `simd`, the only places in the workspace's production crates where `unsafe` is
// permitted (CI's lint job checks it) — and all three confine it to
// `#[target_feature]` intrinsics that are constructed only after runtime
// CPU-feature detection (see their module docs for the safety contract).
// Everything else in the crate still refuses `unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

use rand::RngCore;
use std::error::Error;
use std::fmt;

pub mod aes;
#[cfg(target_arch = "x86_64")]
mod aesarch;
#[cfg(target_arch = "x86_64")]
mod clmul;
pub mod dispatch;
pub mod gcm;
pub mod sha256;
#[cfg(target_arch = "x86_64")]
mod vaes;

pub use aes::Aes;
pub use dispatch::{hw_available, selected_engine, EngineKind, EnginePolicy, CRYPTO_ENV};
pub use gcm::{AesGcm, IV_LEN, TAG_LEN};

use gcm::{Plain, PlainMut};
pub use sha256::{hmac_sha256, Sha256};

/// Metadata overhead (IV + MAC) appended to every sealed buffer, in bytes.
///
/// Matches the paper's accounting of 28 B per encrypted parameter buffer and
/// 140 B of PM metadata per mirrored layer (5 buffers per layer).
pub const SEAL_OVERHEAD: usize = IV_LEN + TAG_LEN;

/// Errors produced by the cryptographic primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// The supplied key had an unsupported length (must be 16, 24 or 32 bytes).
    InvalidKeyLength(usize),
    /// The supplied IV had an unsupported length.
    InvalidIvLength(usize),
    /// GCM tag verification failed: the data was tampered with or the key is wrong.
    AuthenticationFailed,
    /// A sealed buffer was too short to contain the IV and MAC trailer.
    TruncatedSealedBuffer(usize),
    /// A caller-provided output buffer had the wrong size for a zero-copy operation.
    BufferLengthMismatch {
        /// The size the buffer must have.
        expected: usize,
        /// The size the caller supplied.
        got: usize,
    },
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::InvalidKeyLength(n) => {
                write!(
                    f,
                    "invalid AES key length: {n} bytes (expected 16, 24 or 32)"
                )
            }
            CryptoError::InvalidIvLength(n) => write!(f, "invalid GCM IV length: {n} bytes"),
            CryptoError::AuthenticationFailed => {
                write!(f, "authentication tag verification failed")
            }
            CryptoError::TruncatedSealedBuffer(n) => {
                write!(
                    f,
                    "sealed buffer of {n} bytes is shorter than the 28-byte trailer"
                )
            }
            CryptoError::BufferLengthMismatch { expected, got } => {
                write!(
                    f,
                    "output buffer has {got} bytes but the operation needs exactly {expected}"
                )
            }
        }
    }
}

impl Error for CryptoError {}

/// A symmetric AES key (128, 192 or 256 bits). Plinius uses 128-bit keys.
#[derive(Clone, PartialEq, Eq)]
pub struct Key {
    bytes: Vec<u8>,
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key bytes.
        f.debug_struct("Key")
            .field("bits", &(self.bytes.len() * 8))
            .finish()
    }
}

impl Key {
    /// Wraps raw key bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKeyLength`] unless the key is 16, 24 or 32 bytes.
    pub fn new(bytes: &[u8]) -> Result<Self, CryptoError> {
        match bytes.len() {
            16 | 24 | 32 => Ok(Key {
                bytes: bytes.to_vec(),
            }),
            n => Err(CryptoError::InvalidKeyLength(n)),
        }
    }

    /// Generates a random 128-bit key (the key size Plinius uses).
    pub fn generate_128<R: RngCore>(rng: &mut R) -> Self {
        let mut bytes = vec![0u8; 16];
        rng.fill_bytes(&mut bytes);
        Key { bytes }
    }

    /// Generates a random 256-bit key.
    pub fn generate_256<R: RngCore>(rng: &mut R) -> Self {
        let mut bytes = vec![0u8; 32];
        rng.fill_bytes(&mut bytes);
        Key { bytes }
    }

    /// Key length in bits.
    pub fn bits(&self) -> usize {
        self.bytes.len() * 8
    }

    /// Raw key bytes (needed to provision the key over the attested channel).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Builds the AES-GCM context for this key.
    ///
    /// This expands the AES key schedule and derives the per-key GHASH table, which is
    /// not free: hot paths that seal or open many buffers under one key should build
    /// the context once and reuse it (see [`seal_into`] / [`SealedView::open_into`]).
    pub fn gcm(&self) -> AesGcm {
        AesGcm::from_key(&self.bytes)
    }

    /// Builds the AES-GCM context for this key with an explicit engine policy
    /// instead of the `PLINIUS_CRYPTO` environment default — the hook through
    /// which `Enclave`/`PliniusBuilder` pin an engine. Same cost caveats as
    /// [`Key::gcm`].
    pub fn gcm_with_policy(&self, policy: EnginePolicy) -> AesGcm {
        AesGcm::with_policy(Aes::new(&self.bytes), policy)
    }
}

/// Total on-PM size of a sealed buffer holding `plaintext_len` plaintext bytes.
pub const fn sealed_len(plaintext_len: usize) -> usize {
    plaintext_len + SEAL_OVERHEAD
}

/// Zero-copy sealing: encrypts `plaintext` under `gcm` with the caller-supplied IV and
/// AAD, writing the full sealed layout `ciphertext || IV || MAC` into `out`. Performs
/// **no heap allocation**, and never reads `out`: each ciphertext block is hashed
/// before it is stored, so `out` may be memory the host owns.
///
/// The sealed bytes are a pure function of `(key, plaintext, aad, iv)`, the same on
/// every engine. The caller must never reuse an `(key, iv)` pair: [`IvSequence`]
/// guarantees this across one batch when seeded freshly.
///
/// # Errors
///
/// Returns [`CryptoError::BufferLengthMismatch`] unless `out.len()` is exactly
/// [`sealed_len`]`(plaintext.len())`, and propagates GCM errors.
pub fn seal_into(
    gcm: &AesGcm,
    plaintext: &[u8],
    aad: &[u8],
    iv: &[u8; IV_LEN],
    out: &mut [u8],
) -> Result<(), CryptoError> {
    seal(gcm, Plain::Bytes(plaintext), aad, iv, out)
}

/// [`seal_into`] of a tensor, straight from its `f32`s: the plaintext is each value's
/// little-endian bytes, so the sealed bytes equal [`seal_into`] of the tensor's
/// `to_le_bytes` image, on every engine and target.
///
/// # Errors
///
/// Same as [`seal_into`], with the plaintext length `4 * plaintext.len()`.
pub fn seal_f32s_into(
    gcm: &AesGcm,
    plaintext: &[f32],
    aad: &[u8],
    iv: &[u8; IV_LEN],
    out: &mut [u8],
) -> Result<(), CryptoError> {
    seal(gcm, Plain::F32s(plaintext), aad, iv, out)
}

/// The sealed layout of either plaintext.
fn seal(
    gcm: &AesGcm,
    plain: Plain<'_>,
    aad: &[u8],
    iv: &[u8; IV_LEN],
    out: &mut [u8],
) -> Result<(), CryptoError> {
    let expected = sealed_len(plain.len());
    if out.len() != expected {
        return Err(CryptoError::BufferLengthMismatch {
            expected,
            got: out.len(),
        });
    }
    let (ct, trailer) = out.split_at_mut(plain.len());
    let tag = gcm.seal_plain(iv, aad, plain, ct)?;
    trailer[..IV_LEN].copy_from_slice(iv);
    trailer[IV_LEN..].copy_from_slice(&tag);
    Ok(())
}

/// Opens a sealed model into its tensors: verifies the tag of every `(sealed, aad)`
/// pair of `blobs` first, and only once all of them have verified decrypts each blob
/// straight into the next slice of `outputs`, in order. An error in any blob (a
/// truncated blob, a wrong tag, AAD or key) therefore leaves every output untouched.
/// Performs no heap allocation; `blobs` is walked twice, once to verify and once to
/// decrypt.
///
/// Each output must hold exactly its blob's plaintext (`4 * len` bytes): the caller
/// sizes the outputs from the same layout as the blobs. A wrongly sized or missing
/// output is found before it is written, but after the outputs before it.
///
/// # Errors
///
/// Returns [`CryptoError::TruncatedSealedBuffer`] or
/// [`CryptoError::AuthenticationFailed`] from the verify pass, and
/// [`CryptoError::BufferLengthMismatch`] for an output that does not match its blob
/// or a count of outputs that does not match the blobs.
pub fn open_f32s_into<'a, 'b>(
    gcm: &AesGcm,
    blobs: impl IntoIterator<Item = (&'a [u8], &'a [u8]), IntoIter: Clone>,
    outputs: impl IntoIterator<Item = &'b mut [f32]>,
) -> Result<(), CryptoError> {
    let blobs = blobs.into_iter();
    for (sealed, aad) in blobs.clone() {
        SealedView::parse(sealed)?.verify(gcm, aad)?;
    }
    let mut outputs = outputs.into_iter();
    for (sealed, _) in blobs {
        let view = SealedView::parse(sealed)?;
        let Some(output) = outputs.next() else {
            return Err(CryptoError::BufferLengthMismatch {
                expected: view.plaintext_len(),
                got: 0,
            });
        };
        let output = PlainMut::F32s(output);
        gcm::check_open_len(view.ciphertext(), &output)?;
        gcm.decrypt_verified(view.iv(), view.ciphertext(), output)?;
    }
    match outputs.next() {
        Some(extra) => Err(CryptoError::BufferLengthMismatch {
            expected: 0,
            got: std::mem::size_of_val(extra),
        }),
        None => Ok(()),
    }
}

/// A borrowed view over sealed bytes in the on-PM layout `ciphertext || IV || MAC`.
///
/// Parsing a view copies nothing: the mirror-in path reads encrypted tensors from PM
/// into one arena and decrypts each straight out of it ([`SealedView::open_into`])
/// without cloning the blob first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealedView<'a> {
    bytes: &'a [u8],
}

impl<'a> SealedView<'a> {
    /// Interprets `bytes` as a sealed buffer without copying.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::TruncatedSealedBuffer`] if the data cannot even hold the
    /// 28-byte IV+MAC trailer.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CryptoError> {
        if bytes.len() < SEAL_OVERHEAD {
            return Err(CryptoError::TruncatedSealedBuffer(bytes.len()));
        }
        Ok(SealedView { bytes })
    }

    /// The ciphertext portion.
    pub fn ciphertext(&self) -> &'a [u8] {
        &self.bytes[..self.plaintext_len()]
    }

    /// The 12-byte IV.
    pub fn iv(&self) -> &'a [u8] {
        &self.bytes[self.plaintext_len()..self.plaintext_len() + IV_LEN]
    }

    /// The 16-byte authentication tag.
    pub fn tag(&self) -> &'a [u8] {
        &self.bytes[self.plaintext_len() + IV_LEN..]
    }

    /// Length of the plaintext this view decrypts to.
    pub fn plaintext_len(&self) -> usize {
        self.bytes.len() - SEAL_OVERHEAD
    }

    /// Zero-copy decryption: verifies the tag and decrypts into `out` (which must be
    /// exactly [`SealedView::plaintext_len`] bytes) without any heap allocation. On
    /// authentication failure `out` is left untouched.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BufferLengthMismatch`] for a wrongly sized buffer or
    /// [`CryptoError::AuthenticationFailed`].
    pub fn open_into(&self, gcm: &AesGcm, aad: &[u8], out: &mut [u8]) -> Result<(), CryptoError> {
        gcm.decrypt_into(self.iv(), aad, self.ciphertext(), self.tag(), out)
    }

    /// Authenticates the blob under `gcm` and `aad` without decrypting it: what an
    /// import checks before it adopts sealed bytes it never needs in plaintext.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::AuthenticationFailed`] if the tag does not verify.
    pub fn verify(&self, gcm: &AesGcm, aad: &[u8]) -> Result<(), CryptoError> {
        gcm.verify(self.iv(), aad, self.ciphertext(), self.tag())
    }
}

/// A source of per-index IVs for one *sealing batch*: the many independent buffers
/// of one save (e.g. the parameter tensors of a mirrored model).
///
/// The sequence is seeded once from fresh randomness, and `iv(index)` is a pure
/// function (`SHA-256(seed || index)` truncated to 12 bytes). So one RNG draw fixes
/// every IV of the batch: a save can seal later than it drew them (a pipelined
/// mirror-out seals at its join), and the sealed output is **independent of where
/// and when each buffer is sealed**.
///
/// # IV uniqueness
///
/// Distinct indices yield distinct IVs under the same seed. The caller must use a
/// *fresh* sequence (fresh random seed) for every sealing batch, exactly as it would
/// draw a fresh random IV for a single [`seal_into`].
#[derive(Clone)]
pub struct IvSequence {
    seed: [u8; 32],
}

impl fmt::Debug for IvSequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the seed: it determines every IV of the batch.
        f.debug_struct("IvSequence").finish_non_exhaustive()
    }
}

impl IvSequence {
    /// Creates a sequence from an explicit 32-byte seed.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        IvSequence { seed }
    }

    /// Creates a sequence with a fresh random seed drawn from `rng`.
    pub fn from_rng<R: RngCore>(rng: &mut R) -> Self {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        IvSequence { seed }
    }

    /// The IV for the `index`-th buffer of the batch.
    pub fn iv(&self, index: u64) -> [u8; IV_LEN] {
        let mut hasher = Sha256::new();
        hasher.update(&self.seed);
        hasher.update(&index.to_le_bytes());
        let digest = hasher.finalize();
        let mut iv = [0u8; IV_LEN];
        iv.copy_from_slice(&digest[..IV_LEN]);
        iv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn key_length_validation() {
        assert!(Key::new(&[0u8; 16]).is_ok());
        assert!(Key::new(&[0u8; 24]).is_ok());
        assert!(Key::new(&[0u8; 32]).is_ok());
        assert_eq!(
            Key::new(&[0u8; 20]).unwrap_err(),
            CryptoError::InvalidKeyLength(20)
        );
    }

    #[test]
    fn generated_keys_have_expected_sizes_and_differ() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Key::generate_128(&mut rng);
        let b = Key::generate_128(&mut rng);
        assert_eq!(a.bits(), 128);
        assert_ne!(a.as_bytes(), b.as_bytes());
        assert_eq!(Key::generate_256(&mut rng).bits(), 256);
    }

    #[test]
    fn key_debug_hides_bytes() {
        let key = Key::new(&[0xCD; 16]).unwrap();
        let dbg = format!("{key:?}");
        assert!(!dbg.contains("205"));
        assert!(dbg.contains("128"));
    }

    /// Seals `plaintext` into a fresh vector under an IV drawn from `rng`.
    fn seal_vec(gcm: &AesGcm, plaintext: &[u8], aad: &[u8], rng: &mut StdRng) -> Vec<u8> {
        let mut iv = [0u8; IV_LEN];
        rng.fill_bytes(&mut iv);
        let mut sealed = vec![0u8; sealed_len(plaintext.len())];
        seal_into(gcm, plaintext, aad, &iv, &mut sealed).unwrap();
        sealed
    }

    /// Opens `sealed` into a fresh vector.
    fn open_vec(gcm: &AesGcm, sealed: &[u8], aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let view = SealedView::parse(sealed)?;
        let mut out = vec![0u8; view.plaintext_len()];
        view.open_into(gcm, aad, &mut out)?;
        Ok(out)
    }

    #[test]
    fn sealed_buffer_layout_matches_paper_overhead() {
        let mut rng = StdRng::seed_from_u64(2);
        let gcm = Key::generate_128(&mut rng).gcm();
        let sealed = seal_vec(&gcm, &[0u8; 100], b"", &mut rng);
        assert_eq!(sealed.len(), 100 + SEAL_OVERHEAD);
        assert_eq!(SealedView::parse(&sealed).unwrap().plaintext_len(), 100);
        assert_eq!(SEAL_OVERHEAD, 28);
    }

    #[test]
    fn seal_open_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let gcm = Key::generate_128(&mut rng).gcm();
        let data = b"weights and biases".to_vec();
        let sealed = seal_vec(&gcm, &data, b"", &mut rng);
        assert_eq!(open_vec(&gcm, &sealed, b"").unwrap(), data);
    }

    #[test]
    fn open_with_wrong_key_fails() {
        let mut rng = StdRng::seed_from_u64(4);
        let key = Key::generate_128(&mut rng);
        let other = Key::generate_128(&mut rng);
        let sealed = seal_vec(&key.gcm(), b"secret", b"", &mut rng);
        assert_eq!(
            open_vec(&other.gcm(), &sealed, b"").unwrap_err(),
            CryptoError::AuthenticationFailed
        );
    }

    #[test]
    fn aad_binds_context() {
        let mut rng = StdRng::seed_from_u64(5);
        let gcm = Key::generate_128(&mut rng).gcm();
        let sealed = seal_vec(&gcm, b"w", b"layer-3", &mut rng);
        assert_eq!(open_vec(&gcm, &sealed, b"layer-3").unwrap(), b"w");
        assert!(open_vec(&gcm, &sealed, b"layer-4").is_err());
        assert!(open_vec(&gcm, &sealed, b"").is_err());
    }

    #[test]
    fn tampering_with_stored_bytes_is_detected() {
        let mut rng = StdRng::seed_from_u64(6);
        let gcm = Key::generate_128(&mut rng).gcm();
        let mut sealed = seal_vec(&gcm, b"model parameters", b"", &mut rng);
        sealed[3] ^= 0x40;
        assert!(open_vec(&gcm, &sealed, b"").is_err());
    }

    #[test]
    fn parse_rejects_truncated_data() {
        assert_eq!(
            SealedView::parse(&[0u8; 10]).unwrap_err(),
            CryptoError::TruncatedSealedBuffer(10)
        );
        // The bare trailer is the smallest sealed buffer: an empty plaintext.
        assert_eq!(
            SealedView::parse(&[0u8; SEAL_OVERHEAD])
                .unwrap()
                .plaintext_len(),
            0
        );
    }

    #[test]
    fn empty_plaintext_round_trips() {
        let mut rng = StdRng::seed_from_u64(7);
        let gcm = Key::generate_128(&mut rng).gcm();
        let sealed = seal_vec(&gcm, &[], b"", &mut rng);
        assert_eq!(SealedView::parse(&sealed).unwrap().plaintext_len(), 0);
        assert_eq!(open_vec(&gcm, &sealed, b"").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn fresh_iv_per_seal_gives_distinct_ciphertexts() {
        let mut rng = StdRng::seed_from_u64(8);
        let gcm = Key::generate_128(&mut rng).gcm();
        let a = seal_vec(&gcm, b"same plaintext", b"", &mut rng);
        let b = seal_vec(&gcm, b"same plaintext", b"", &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn iv_sequence_is_deterministic_distinct_and_sync() {
        // The sequence is shareable across sealing threads without coordination.
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<IvSequence>();
        let seq = IvSequence::from_seed([7u8; 32]);
        assert_eq!(seq.iv(3), seq.iv(3));
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            assert!(seen.insert(seq.iv(i)), "IV collision at index {i}");
        }
        // A different seed yields a different stream.
        let other = IvSequence::from_seed([8u8; 32]);
        assert_ne!(seq.iv(0), other.iv(0));
        // Debug must not leak the seed.
        assert!(!format!("{seq:?}").contains('7'));
    }

    #[test]
    fn seal_with_explicit_iv_is_deterministic_and_round_trips() {
        let mut rng = StdRng::seed_from_u64(9);
        let gcm = Key::generate_128(&mut rng).gcm();
        let seq = IvSequence::from_rng(&mut rng);
        let seal = |iv: &[u8; IV_LEN]| {
            let mut sealed = vec![0u8; sealed_len(6)];
            seal_into(&gcm, b"tensor", b"layer0", iv, &mut sealed).unwrap();
            sealed
        };
        let (a, b) = (seal(&seq.iv(0)), seal(&seq.iv(0)));
        // Same (key, iv, aad, plaintext) -> bit-identical sealed bytes: this is what
        // makes parallel sealing independent of the thread schedule.
        assert_eq!(a, b);
        assert_eq!(open_vec(&gcm, &a, b"layer0").unwrap(), b"tensor");
        // A different index gives a different IV, hence different bytes.
        assert_ne!(a, seal(&seq.iv(1)));
    }

    #[test]
    fn seal_into_matches_sealed_buffer_bytes() {
        // The sealed layout is exactly `ciphertext || IV || MAC` of the detached AEAD.
        let mut rng = StdRng::seed_from_u64(10);
        let gcm = Key::generate_128(&mut rng).gcm();
        let iv = IvSequence::from_rng(&mut rng).iv(0);
        let plaintext = b"tensor bytes for the arena";
        let (ct, tag) = gcm.encrypt(&iv, b"aad", plaintext).unwrap();
        let mut arena = vec![0u8; sealed_len(plaintext.len())];
        seal_into(&gcm, plaintext, b"aad", &iv, &mut arena).unwrap();
        assert_eq!(arena, [&ct[..], &iv[..], &tag[..]].concat());
        // Wrong-size output buffers are rejected.
        let mut short = vec![0u8; sealed_len(plaintext.len()) - 1];
        assert!(matches!(
            seal_into(&gcm, plaintext, b"aad", &iv, &mut short),
            Err(CryptoError::BufferLengthMismatch { .. })
        ));
    }

    #[test]
    fn sealed_view_parses_and_opens_without_copying() {
        let mut rng = StdRng::seed_from_u64(11);
        let gcm = Key::generate_128(&mut rng).gcm();
        let raw = seal_vec(&gcm, b"mirrored weights", b"layer0", &mut rng);
        let view = SealedView::parse(&raw).unwrap();
        assert_eq!(view.plaintext_len(), 16);
        assert_eq!(view.ciphertext(), &raw[..16]);
        assert_eq!(view.iv(), &raw[16..16 + IV_LEN]);
        assert_eq!(view.tag(), &raw[16 + IV_LEN..]);
        assert_eq!(view.tag().len(), TAG_LEN);
        // Zero-copy open into a caller buffer.
        let mut out = [0u8; 16];
        view.open_into(&gcm, b"layer0", &mut out).unwrap();
        assert_eq!(&out, b"mirrored weights");
        // Wrong AAD is rejected before any plaintext is written.
        let mut untouched = [0xEEu8; 16];
        assert!(view.open_into(&gcm, b"layer1", &mut untouched).is_err());
        assert_eq!(untouched, [0xEEu8; 16]);
        // A wrongly sized output buffer is rejected.
        assert!(matches!(
            view.open_into(&gcm, b"layer0", &mut [0u8; 15]),
            Err(CryptoError::BufferLengthMismatch { .. })
        ));
        // Truncated data cannot be parsed.
        assert!(matches!(
            SealedView::parse(&raw[..SEAL_OVERHEAD - 1]),
            Err(CryptoError::TruncatedSealedBuffer(_))
        ));
    }

    #[test]
    fn error_display_is_lowercase_and_informative() {
        assert_eq!(
            CryptoError::AuthenticationFailed.to_string(),
            "authentication tag verification failed"
        );
        assert!(CryptoError::InvalidKeyLength(7)
            .to_string()
            .contains("7 bytes"));
    }
}
