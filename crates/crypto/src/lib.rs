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
//! * **hardware kernels** ([`dispatch`]): AES-NI CTR and carry-less-multiply GHASH,
//!   selected at [`AesGcm`] construction when the `x86_64` CPU reports the `aes` and
//!   `pclmulqdq` features (override with `PLINIUS_CRYPTO={auto,scalar}`);
//! * **T-table AES** ([`aes`]): four 256-entry fused SubBytes/ShiftRows/MixColumns
//!   tables, an order of magnitude faster than the byte-wise reference kernel (which is
//!   retained for differential testing) — the always-compiled scalar fallback;
//! * **Shoup 4-bit GHASH** ([`gcm`]): a 16-entry per-key table turns the 128 bit-steps
//!   of the schoolbook GF(2^128) multiply into 32 shift+lookup steps;
//! * **zero-copy sealing** ([`seal_into`], [`SealedView::open_into`]): encrypt/decrypt
//!   straight into caller-provided buffers with no heap allocation on any engine, plus
//!   optional chunk-parallel CTR for large buffers (bit-identical for every thread
//!   count and engine).
//!
//! The crate also provides the exact *sealed-buffer layout* Plinius stores on persistent
//! memory (§IV of the paper): for every encrypted parameter buffer a fresh random 12-byte
//! IV is generated, the plaintext is encrypted with AES-GCM, and the IV plus the 16-byte
//! MAC are appended to the ciphertext — 28 bytes of metadata per buffer, i.e. 140 bytes
//! per mirrored layer (5 parameter matrices per layer).
//!
//! # Example
//!
//! ```
//! use plinius_crypto::{Key, SealedBuffer};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let key = Key::generate_128(&mut rng);
//! let sealed = SealedBuffer::seal(&key, b"layer weights", &mut rng)?;
//! assert_eq!(sealed.open(&key)?, b"layer weights");
//! # Ok::<(), plinius_crypto::CryptoError>(())
//! ```

// `deny` rather than `forbid`: the two hardware kernel modules (`aesarch`,
// `clmul`) opt back in with module-level `allow(unsafe_code)` — they are the
// only places in the workspace's production crates where `unsafe` is permitted,
// and both confine it to `#[target_feature]` intrinsics that are constructed
// only after runtime CPU-feature detection (see their module docs for the
// safety contract). Everything else in the crate still refuses `unsafe`.
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

pub use aes::Aes;
pub use dispatch::{hw_available, selected_engine, EngineKind, EnginePolicy, CRYPTO_ENV};
pub use gcm::{AesGcm, IV_LEN, TAG_LEN};
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
/// **no heap allocation**, which makes it the building block of the allocation-free
/// mirror-out path — pair it with a reusable output arena and an [`IvSequence`].
///
/// The sealed bytes are identical to [`SealedBuffer::seal_with_aad_and_iv`] for the
/// same `(key, plaintext, aad, iv)`.
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
    seal_into_with_threads(gcm, plaintext, aad, iv, out, 1)
}

/// [`seal_into`] with the CTR keystream of large buffers fanned out over up to
/// `threads` scoped threads (chunked at 16-byte counter boundaries — the sealed bytes
/// are bit-identical for every `threads` value).
///
/// # Errors
///
/// Same as [`seal_into`].
pub fn seal_into_with_threads(
    gcm: &AesGcm,
    plaintext: &[u8],
    aad: &[u8],
    iv: &[u8; IV_LEN],
    out: &mut [u8],
    threads: usize,
) -> Result<(), CryptoError> {
    let expected = sealed_len(plaintext.len());
    if out.len() != expected {
        return Err(CryptoError::BufferLengthMismatch {
            expected,
            got: out.len(),
        });
    }
    let (ct, trailer) = out.split_at_mut(plaintext.len());
    let tag = gcm.encrypt_into_with_threads(iv, aad, plaintext, ct, threads)?;
    trailer[..IV_LEN].copy_from_slice(iv);
    trailer[IV_LEN..].copy_from_slice(&tag);
    Ok(())
}

/// A borrowed view over sealed bytes in the on-PM layout `ciphertext || IV || MAC`.
///
/// Unlike [`SealedBuffer::from_bytes`], parsing a view copies nothing: the mirror-in
/// path reads encrypted tensors from PM into one arena and decrypts each straight out
/// of it ([`SealedView::open_into`]) without cloning the blob first.
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

    /// Decrypts and authenticates into a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::AuthenticationFailed`] if the data was tampered with or
    /// the wrong key/AAD is supplied.
    pub fn open_with_aad(&self, key: &Key, aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let mut out = vec![0u8; self.plaintext_len()];
        self.open_into(&key.gcm(), aad, &mut out)?;
        Ok(out)
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
        self.open_into_with_threads(gcm, aad, out, 1)
    }

    /// [`SealedView::open_into`] with chunk-parallel CTR for large buffers; the
    /// plaintext is bit-identical for every `threads` value.
    ///
    /// # Errors
    ///
    /// Same as [`SealedView::open_into`].
    pub fn open_into_with_threads(
        &self,
        gcm: &AesGcm,
        aad: &[u8],
        out: &mut [u8],
        threads: usize,
    ) -> Result<(), CryptoError> {
        gcm.decrypt_into_with_threads(self.iv(), aad, self.ciphertext(), self.tag(), out, threads)
    }
}

/// A thread-safe source of per-index IVs for *chunk-parallel sealing*: sealing many
/// independent buffers (e.g. the parameter tensors of a mirrored model) across threads.
///
/// A mutable RNG cannot be shared across sealing threads, and handing each thread its
/// own RNG would make the sealed bytes depend on the thread schedule. An `IvSequence`
/// solves both: it is seeded once from fresh randomness, and `iv(index)` is a pure
/// function (`SHA-256(seed || index)` truncated to 12 bytes), so any number of threads
/// can derive IVs without coordination and the sealed output is **independent of the
/// thread count and schedule**.
///
/// # IV uniqueness
///
/// Distinct indices yield distinct IVs under the same seed. The caller must use a
/// *fresh* sequence (fresh random seed) for every sealing batch, exactly as it would
/// draw a fresh random IV per [`SealedBuffer::seal`].
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

/// An encrypted buffer in the on-PM layout used by Plinius:
/// `ciphertext || IV (12 B) || MAC (16 B)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBuffer {
    bytes: Vec<u8>,
}

impl SealedBuffer {
    /// Encrypts `plaintext` under `key` with a freshly generated random IV and returns
    /// the sealed representation.
    ///
    /// # Errors
    ///
    /// Propagates [`CryptoError`] from the underlying GCM operation.
    pub fn seal<R: RngCore>(key: &Key, plaintext: &[u8], rng: &mut R) -> Result<Self, CryptoError> {
        Self::seal_with_aad(key, plaintext, &[], rng)
    }

    /// Like [`SealedBuffer::seal`] but binds additional authenticated data (e.g. a layer
    /// index) into the MAC.
    ///
    /// # Errors
    ///
    /// Propagates [`CryptoError`] from the underlying GCM operation.
    pub fn seal_with_aad<R: RngCore>(
        key: &Key,
        plaintext: &[u8],
        aad: &[u8],
        rng: &mut R,
    ) -> Result<Self, CryptoError> {
        let mut iv = [0u8; IV_LEN];
        rng.fill_bytes(&mut iv);
        Self::seal_with_aad_and_iv(key, plaintext, aad, &iv)
    }

    /// Like [`SealedBuffer::seal_with_aad`] but with a caller-supplied IV, the building
    /// block of chunk-parallel sealing: pair it with an [`IvSequence`] so concurrent
    /// sealing threads derive disjoint IVs without sharing an RNG.
    ///
    /// The caller is responsible for never reusing an `(key, iv)` pair —
    /// [`IvSequence`] guarantees this across one batch when seeded freshly.
    ///
    /// # Errors
    ///
    /// Propagates [`CryptoError`] from the underlying GCM operation.
    pub fn seal_with_aad_and_iv(
        key: &Key,
        plaintext: &[u8],
        aad: &[u8],
        iv: &[u8; IV_LEN],
    ) -> Result<Self, CryptoError> {
        let mut bytes = vec![0u8; sealed_len(plaintext.len())];
        seal_into(&key.gcm(), plaintext, aad, iv, &mut bytes)?;
        Ok(SealedBuffer { bytes })
    }

    /// Re-interprets raw bytes (e.g. read back from PM) as a sealed buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::TruncatedSealedBuffer`] if the data cannot even hold the
    /// 28-byte IV+MAC trailer.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, CryptoError> {
        if bytes.len() < SEAL_OVERHEAD {
            return Err(CryptoError::TruncatedSealedBuffer(bytes.len()));
        }
        Ok(SealedBuffer { bytes })
    }

    /// Decrypts and authenticates the buffer, returning the plaintext.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::AuthenticationFailed`] if the buffer was tampered with or
    /// the wrong key/AAD is supplied.
    pub fn open(&self, key: &Key) -> Result<Vec<u8>, CryptoError> {
        self.open_with_aad(key, &[])
    }

    /// Decrypts with additional authenticated data.
    ///
    /// # Errors
    ///
    /// Same as [`SealedBuffer::open`].
    pub fn open_with_aad(&self, key: &Key, aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
        self.as_view().open_with_aad(key, aad)
    }

    /// A borrowed [`SealedView`] over this buffer's bytes (never fails: the trailer
    /// invariant is checked at construction).
    pub fn as_view(&self) -> SealedView<'_> {
        SealedView { bytes: &self.bytes }
    }

    /// The full on-PM byte representation (ciphertext + IV + MAC).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the buffer and returns the raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Total size in bytes, including the 28-byte trailer.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the buffer is empty (it never is: the trailer is always present).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Length of the plaintext this buffer decrypts to.
    pub fn plaintext_len(&self) -> usize {
        self.bytes.len() - SEAL_OVERHEAD
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

    #[test]
    fn sealed_buffer_layout_matches_paper_overhead() {
        let mut rng = StdRng::seed_from_u64(2);
        let key = Key::generate_128(&mut rng);
        let sealed = SealedBuffer::seal(&key, &[0u8; 100], &mut rng).unwrap();
        assert_eq!(sealed.len(), 100 + SEAL_OVERHEAD);
        assert_eq!(sealed.plaintext_len(), 100);
        assert_eq!(SEAL_OVERHEAD, 28);
    }

    #[test]
    fn seal_open_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let key = Key::generate_128(&mut rng);
        let data = b"weights and biases".to_vec();
        let sealed = SealedBuffer::seal(&key, &data, &mut rng).unwrap();
        assert_eq!(sealed.open(&key).unwrap(), data);
    }

    #[test]
    fn open_with_wrong_key_fails() {
        let mut rng = StdRng::seed_from_u64(4);
        let key = Key::generate_128(&mut rng);
        let other = Key::generate_128(&mut rng);
        let sealed = SealedBuffer::seal(&key, b"secret", &mut rng).unwrap();
        assert_eq!(
            sealed.open(&other).unwrap_err(),
            CryptoError::AuthenticationFailed
        );
    }

    #[test]
    fn aad_binds_context() {
        let mut rng = StdRng::seed_from_u64(5);
        let key = Key::generate_128(&mut rng);
        let sealed = SealedBuffer::seal_with_aad(&key, b"w", b"layer-3", &mut rng).unwrap();
        assert_eq!(sealed.open_with_aad(&key, b"layer-3").unwrap(), b"w");
        assert!(sealed.open_with_aad(&key, b"layer-4").is_err());
        assert!(sealed.open(&key).is_err());
    }

    #[test]
    fn tampering_with_stored_bytes_is_detected() {
        let mut rng = StdRng::seed_from_u64(6);
        let key = Key::generate_128(&mut rng);
        let sealed = SealedBuffer::seal(&key, b"model parameters", &mut rng).unwrap();
        let mut raw = sealed.into_bytes();
        raw[3] ^= 0x40;
        let tampered = SealedBuffer::from_bytes(raw).unwrap();
        assert!(tampered.open(&key).is_err());
    }

    #[test]
    fn from_bytes_rejects_truncated_data() {
        assert_eq!(
            SealedBuffer::from_bytes(vec![0u8; 10]).unwrap_err(),
            CryptoError::TruncatedSealedBuffer(10)
        );
    }

    #[test]
    fn empty_plaintext_round_trips() {
        let mut rng = StdRng::seed_from_u64(7);
        let key = Key::generate_128(&mut rng);
        let sealed = SealedBuffer::seal(&key, &[], &mut rng).unwrap();
        assert_eq!(sealed.plaintext_len(), 0);
        assert_eq!(sealed.open(&key).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn fresh_iv_per_seal_gives_distinct_ciphertexts() {
        let mut rng = StdRng::seed_from_u64(8);
        let key = Key::generate_128(&mut rng);
        let a = SealedBuffer::seal(&key, b"same plaintext", &mut rng).unwrap();
        let b = SealedBuffer::seal(&key, b"same plaintext", &mut rng).unwrap();
        assert_ne!(a.as_bytes(), b.as_bytes());
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
        let key = Key::generate_128(&mut rng);
        let seq = IvSequence::from_rng(&mut rng);
        let a = SealedBuffer::seal_with_aad_and_iv(&key, b"tensor", b"layer0", &seq.iv(0)).unwrap();
        let b = SealedBuffer::seal_with_aad_and_iv(&key, b"tensor", b"layer0", &seq.iv(0)).unwrap();
        // Same (key, iv, aad, plaintext) -> bit-identical sealed bytes: this is what
        // makes parallel sealing independent of the thread schedule.
        assert_eq!(a.as_bytes(), b.as_bytes());
        assert_eq!(a.open_with_aad(&key, b"layer0").unwrap(), b"tensor");
        // A different index gives a different IV, hence different bytes.
        let c = SealedBuffer::seal_with_aad_and_iv(&key, b"tensor", b"layer0", &seq.iv(1)).unwrap();
        assert_ne!(a.as_bytes(), c.as_bytes());
    }

    #[test]
    fn seal_into_matches_sealed_buffer_bytes() {
        let mut rng = StdRng::seed_from_u64(10);
        let key = Key::generate_128(&mut rng);
        let seq = IvSequence::from_rng(&mut rng);
        let plaintext = b"tensor bytes for the arena";
        let boxed =
            SealedBuffer::seal_with_aad_and_iv(&key, plaintext, b"aad", &seq.iv(0)).unwrap();
        let gcm = key.gcm();
        let mut arena = vec![0u8; sealed_len(plaintext.len())];
        seal_into(&gcm, plaintext, b"aad", &seq.iv(0), &mut arena).unwrap();
        assert_eq!(arena, boxed.as_bytes());
        // Wrong-size output buffers are rejected.
        let mut short = vec![0u8; sealed_len(plaintext.len()) - 1];
        assert!(matches!(
            seal_into(&gcm, plaintext, b"aad", &seq.iv(0), &mut short),
            Err(CryptoError::BufferLengthMismatch { .. })
        ));
    }

    #[test]
    fn sealed_view_parses_and_opens_without_copying() {
        let mut rng = StdRng::seed_from_u64(11);
        let key = Key::generate_128(&mut rng);
        let sealed =
            SealedBuffer::seal_with_aad(&key, b"mirrored weights", b"layer0", &mut rng).unwrap();
        let raw = sealed.as_bytes();
        let view = SealedView::parse(raw).unwrap();
        assert_eq!(view.plaintext_len(), 16);
        assert_eq!(view.ciphertext().len(), 16);
        assert_eq!(view.iv().len(), IV_LEN);
        assert_eq!(view.tag().len(), TAG_LEN);
        assert_eq!(
            view.open_with_aad(&key, b"layer0").unwrap(),
            b"mirrored weights"
        );
        // Zero-copy open into a caller buffer.
        let gcm = key.gcm();
        let mut out = [0u8; 16];
        view.open_into(&gcm, b"layer0", &mut out).unwrap();
        assert_eq!(&out, b"mirrored weights");
        // Wrong AAD is rejected before any plaintext is written.
        let mut untouched = [0xEEu8; 16];
        assert!(view.open_into(&gcm, b"layer1", &mut untouched).is_err());
        assert_eq!(untouched, [0xEEu8; 16]);
        // Truncated data cannot be parsed.
        assert!(matches!(
            SealedView::parse(&raw[..SEAL_OVERHEAD - 1]),
            Err(CryptoError::TruncatedSealedBuffer(_))
        ));
        // The view borrowed from a SealedBuffer matches parsing its bytes.
        assert_eq!(sealed.as_view(), view);
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
