//! Galois/Counter Mode (GCM) on top of the AES block cipher, following
//! NIST SP 800-38D — the same AEAD used by the Intel SGX SDK routines that
//! Plinius' encryption engine relies on.
//!
//! # Fast and reference kernels
//!
//! The production path is a high-throughput software implementation:
//!
//! * **CTR** — multi-block keystream generation through the T-table AES core, XORed
//!   word-wise (`u128` loads/stores); no per-byte `Vec::push`.
//! * **GHASH** — Shoup's 4-bit-table method: a 16-entry per-key table of `H` multiples
//!   turns the 128 bit-steps of the schoolbook multiply into 32 shift+lookup steps.
//!
//! # One pass to seal, verify before decrypt
//!
//! A seal is *stitched* on every engine: each ciphertext block is hashed before it is
//! stored, and the output is never read back — it may be persistent memory the host
//! owns. The vector engine fuses CTR and GHASH in one kernel; the others CTR a small
//! group into a stack block, hash it there and then store it
//! (`seal_through_stack`). An open verifies the tag first and only then
//! CTR-decrypts; the decrypt without a verify stays private to this crate.
//!
//! The plaintext is bytes, or the `f32`s of a model tensor, whose little-endian bytes
//! are the plaintext (`Plain`, `PlainMut`): a tensor seals from and opens into
//! its own slice, to the same sealed bytes as its `to_le_bytes` image.
//!
//! The original kernels (byte-at-a-time CTR, bit-serial `gf_mult`) are retained behind
//! [`AesGcm::encrypt_reference`]; property tests pin the fast path to them byte-for-byte
//! and the release-mode sanity test asserts the speedup.

#[cfg(target_arch = "x86_64")]
use crate::aesarch::AesNi;
#[cfg(target_arch = "x86_64")]
use crate::clmul::ClmulGhash;
#[cfg(target_arch = "x86_64")]
use crate::vaes::VaesGcm;

use crate::aes::{Aes, BLOCK_SIZE};
use crate::dispatch::{EngineKind, EnginePolicy};
use crate::CryptoError;

/// Length of the GCM initialization vector used by Plinius (96 bits).
pub const IV_LEN: usize = 12;
/// Length of the authentication tag (128 bits).
pub const TAG_LEN: usize = 16;

/// Bytes per stack block of [`seal_through_stack`]: sixteen AES blocks, the vector
/// engine's group.
const STACK_BLOCK: usize = 16 * BLOCK_SIZE;

/// A plaintext the AEAD reads: bytes, or `f32`s whose little-endian bytes are the
/// plaintext.
#[derive(Clone, Copy)]
pub(crate) enum Plain<'a> {
    /// Plaintext bytes.
    Bytes(&'a [u8]),
    /// A tensor: the plaintext is `f32::to_le_bytes` of each value in turn.
    F32s(&'a [f32]),
}

impl<'a> Plain<'a> {
    /// Plaintext length in bytes.
    pub(crate) fn len(&self) -> usize {
        match self {
            Plain::Bytes(b) => b.len(),
            Plain::F32s(v) => std::mem::size_of_val(*v),
        }
    }

    /// Copies the plaintext bytes at `offset` into `out`, converting a tensor per
    /// value. A tensor's `offset` and `out.len()` are multiples of 4.
    fn load(&self, offset: usize, out: &mut [u8]) {
        match self {
            Plain::Bytes(b) => out.copy_from_slice(&b[offset..offset + out.len()]),
            Plain::F32s(v) => {
                for (bytes, x) in out.chunks_exact_mut(4).zip(&v[offset / 4..]) {
                    bytes.copy_from_slice(&x.to_le_bytes());
                }
            }
        }
    }

    /// The plaintext bytes in place, for the hardware kernels.
    #[cfg(target_arch = "x86_64")]
    fn bytes(self) -> &'a [u8] {
        match self {
            Plain::Bytes(b) => b,
            Plain::F32s(v) => crate::aesarch::f32_bytes(v),
        }
    }
}

/// Where the AEAD writes a plaintext: bytes, or `f32`s decoded from their
/// little-endian bytes.
pub(crate) enum PlainMut<'a> {
    /// Plaintext bytes.
    Bytes(&'a mut [u8]),
    /// A tensor: each value is `f32::from_le_bytes` of its four plaintext bytes.
    F32s(&'a mut [f32]),
}

impl<'a> PlainMut<'a> {
    /// Plaintext length in bytes.
    pub(crate) fn len(&self) -> usize {
        match self {
            PlainMut::Bytes(b) => b.len(),
            PlainMut::F32s(v) => std::mem::size_of_val(*v),
        }
    }

    /// Writes `bytes` as the plaintext at `offset`, converting a tensor per value.
    /// A tensor's `offset` and `bytes.len()` are multiples of 4.
    fn store(&mut self, offset: usize, bytes: &[u8]) {
        match self {
            PlainMut::Bytes(b) => b[offset..offset + bytes.len()].copy_from_slice(bytes),
            PlainMut::F32s(v) => {
                for (x, b) in v[offset / 4..].iter_mut().zip(bytes.chunks_exact(4)) {
                    *x = f32::from_le_bytes(b.try_into().expect("4 bytes"));
                }
            }
        }
    }

    /// The plaintext bytes in place, for the hardware kernels.
    #[cfg(target_arch = "x86_64")]
    fn bytes(self) -> &'a mut [u8] {
        match self {
            PlainMut::Bytes(b) => b,
            PlainMut::F32s(v) => crate::aesarch::f32_bytes_mut(v),
        }
    }
}

/// The stitched seal of the kernel sets without a fused one: `ctr(counter, offset,
/// block)` writes the ciphertext of the plaintext at byte `offset` into the stack
/// block `block` (`counter` is the one of that offset), which is absorbed into `y` by
/// `ghash` and only then stored into `ct`. Each ciphertext block is hashed before it
/// is stored, and `ct` is never read.
pub(crate) fn seal_through_stack(
    counter: [u8; BLOCK_SIZE],
    ct: &mut [u8],
    y: &mut u128,
    mut ctr: impl FnMut([u8; BLOCK_SIZE], usize, &mut [u8]),
    mut ghash: impl FnMut(&mut u128, &[u8]),
) {
    let mut stack = [0u8; STACK_BLOCK];
    for (i, out) in ct.chunks_mut(STACK_BLOCK).enumerate() {
        let offset = i * STACK_BLOCK;
        let block = &mut stack[..out.len()];
        ctr(
            counter_add(counter, (offset / BLOCK_SIZE) as u32),
            offset,
            block,
        );
        // Every block but the last is whole, so only the last is zero-padded.
        ghash(y, block);
        out.copy_from_slice(block);
    }
}

/// The concrete kernel set a context dispatches to, fixed at construction.
///
/// The hardware variants carry the AES-NI schedule and the PCLMUL subkey powers
/// (the vector one 16 powers and the 128-bit kernels it falls back to); they only
/// exist on `x86_64` and are only ever constructed after runtime feature detection
/// (see [`crate::aesarch`]/[`crate::clmul`]/[`crate::vaes`] for the safety contract).
// The size gap between the hardware variants (expanded key schedule + GHASH subkey
// powers, ~320-580 B) and the table-less one is intentional: one `Engine` lives
// inline in each long-lived `AesGcm` (itself dominated by the scalar Shoup table),
// so boxing the hardware state would buy nothing but a pointer chase per call.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
enum Engine {
    #[cfg(target_arch = "x86_64")]
    Vaes(VaesGcm),
    #[cfg(target_arch = "x86_64")]
    Hw {
        aes: AesNi,
        ghash: ClmulGhash,
    },
    Scalar,
}

impl Engine {
    /// Builds the kernels of `kind`, or `None` when the CPU lacks its features
    /// (construction re-checks them, whatever the caller selected).
    fn build(kind: EngineKind, cipher: &Aes, h_powers: [u128; 4]) -> Option<Self> {
        match kind {
            EngineKind::Scalar => Some(Engine::Scalar),
            #[cfg(target_arch = "x86_64")]
            EngineKind::Vaes => VaesGcm::try_new(cipher, h_powers).map(Engine::Vaes),
            #[cfg(target_arch = "x86_64")]
            EngineKind::Hw => Some(Engine::Hw {
                aes: AesNi::try_new(cipher)?,
                ghash: ClmulGhash::try_new(h_powers)?,
            }),
            #[cfg(not(target_arch = "x86_64"))]
            EngineKind::Vaes | EngineKind::Hw => {
                let _ = (cipher, h_powers);
                None
            }
        }
    }

    fn kind(&self) -> EngineKind {
        match self {
            #[cfg(target_arch = "x86_64")]
            Engine::Vaes(_) => EngineKind::Vaes,
            #[cfg(target_arch = "x86_64")]
            Engine::Hw { .. } => EngineKind::Hw,
            Engine::Scalar => EngineKind::Scalar,
        }
    }
}

/// AES-GCM authenticated encryption context.
#[derive(Clone)]
pub struct AesGcm {
    cipher: Aes,
    /// The hash subkey H = AES_K(0^128), interpreted as a big-endian integer.
    h: u128,
    /// Byte-indexed GHASH tables for H^1..H^4, each expanded from a 16-entry Shoup
    /// table at key-schedule time: `h_tables[p][b]` is `H^(p+1)` multiplied by the
    /// 8-bit polynomial `b` at the x^0..x^7 coefficient positions, so one block costs
    /// 16 shift+lookup steps. The higher powers drive 4-block *aggregated* GHASH
    /// (`Y·H^4 ^ C1·H^3 ^ C2·H^2 ^ C3·H`), which replaces one long serial chain with
    /// four independent ones.
    h_tables: Box<[[u128; 256]; 4]>,
    /// Selected kernel set; all variants are byte-for-byte identical.
    engine: Engine,
}

impl std::fmt::Debug for AesGcm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the hash subkey H (sufficient for tag forgery) or the key-derived
        // GHASH tables; the inner `Aes` already redacts its schedule.
        f.debug_struct("AesGcm")
            .field("cipher", &self.cipher)
            .field("engine", &self.engine_name())
            .finish_non_exhaustive()
    }
}

impl AesGcm {
    /// Creates a GCM context from an already-expanded AES cipher, selecting the
    /// engine from the `PLINIUS_CRYPTO` environment policy (default: hardware
    /// kernels when the CPU supports them, scalar otherwise).
    pub fn new(cipher: Aes) -> Self {
        Self::with_policy(cipher, EnginePolicy::from_env())
    }

    /// Creates a GCM context with an explicit engine policy, bypassing the
    /// environment knob. All policies produce byte-identical ciphertexts and tags.
    pub fn with_policy(cipher: Aes, policy: EnginePolicy) -> Self {
        Self::assemble(cipher, policy.select())
    }

    /// Creates a GCM context on exactly the engine `kind`, or `None` when this host
    /// lacks its CPU features — how tests and throughput gates pin every engine the
    /// host can build. All engines produce byte-identical ciphertexts and tags.
    pub fn with_engine(cipher: Aes, kind: EngineKind) -> Option<Self> {
        let gcm = Self::assemble(cipher, kind);
        (gcm.engine_kind() == kind).then_some(gcm)
    }

    /// Builds the context on `kind`'s kernels, falling back to scalar if they
    /// cannot be built (belt and braces: selection and construction both re-check
    /// the CPUID features).
    fn assemble(cipher: Aes, kind: EngineKind) -> Self {
        let h_block = cipher.encrypt_block_copy(&[0u8; BLOCK_SIZE]);
        let h = u128::from_be_bytes(h_block);
        let mut h_tables = Box::new([[0u128; 256]; 4]);
        let mut h_powers = [0u128; 4];
        let mut power = h;
        for (table, slot) in h_tables.iter_mut().zip(h_powers.iter_mut()) {
            *slot = power;
            *table = *build_h_table8(&build_h_table(power));
            power = gf_mult(power, h);
        }
        let engine = Engine::build(kind, &cipher, h_powers).unwrap_or(Engine::Scalar);
        AesGcm {
            cipher,
            h,
            h_tables,
            engine,
        }
    }

    /// Creates a GCM context directly from key bytes (16, 24 or 32 bytes),
    /// selecting the engine from the `PLINIUS_CRYPTO` environment policy.
    pub fn from_key(key: &[u8]) -> Self {
        Self::new(Aes::new(key))
    }

    /// The concrete engine this context dispatches to.
    pub fn engine_kind(&self) -> EngineKind {
        self.engine.kind()
    }

    /// Short label of the selected engine (`"vaes+vpclmul"`, `"aesni+pclmul"` or
    /// `"scalar"`), for stats and bench reports.
    pub fn engine_name(&self) -> &'static str {
        self.engine.kind().name()
    }

    /// Encrypts `plaintext` with the given 12-byte IV and additional authenticated
    /// data, returning `(ciphertext, tag)`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidIvLength`] if the IV is empty.
    pub fn encrypt(
        &self,
        iv: &[u8],
        aad: &[u8],
        plaintext: &[u8],
    ) -> Result<(Vec<u8>, [u8; TAG_LEN]), CryptoError> {
        let mut ciphertext = vec![0u8; plaintext.len()];
        let tag = self.encrypt_into(iv, aad, plaintext, &mut ciphertext)?;
        Ok((ciphertext, tag))
    }

    /// Zero-copy encryption: writes the ciphertext into `ciphertext` (which must be
    /// exactly `plaintext.len()` bytes) and returns the tag, in one stitched pass that
    /// never reads `ciphertext`. Performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidIvLength`] for a malformed IV and
    /// [`CryptoError::BufferLengthMismatch`] if the output buffer has the wrong size.
    pub fn encrypt_into(
        &self,
        iv: &[u8],
        aad: &[u8],
        plaintext: &[u8],
        ciphertext: &mut [u8],
    ) -> Result<[u8; TAG_LEN], CryptoError> {
        self.seal_plain(iv, aad, Plain::Bytes(plaintext), ciphertext)
    }

    /// The one seal of every engine: CTR-encrypts `plain` into `ciphertext` and
    /// returns the tag, each ciphertext block hashed before it is stored
    /// (see the module docs).
    ///
    /// # Errors
    ///
    /// Same as [`AesGcm::encrypt_into`].
    pub(crate) fn seal_plain(
        &self,
        iv: &[u8],
        aad: &[u8],
        plain: Plain<'_>,
        ciphertext: &mut [u8],
    ) -> Result<[u8; TAG_LEN], CryptoError> {
        if ciphertext.len() != plain.len() {
            return Err(CryptoError::BufferLengthMismatch {
                expected: plain.len(),
                got: ciphertext.len(),
            });
        }
        let (j0, len) = (self.j0(iv)?, ciphertext.len());
        let counter = inc32(j0);
        let encrypt_and_hash = |y: &mut u128| match &self.engine {
            #[cfg(target_arch = "x86_64")]
            Engine::Vaes(vaes) => vaes.seal(counter, plain.bytes(), ciphertext, y),
            #[cfg(target_arch = "x86_64")]
            Engine::Hw { aes, ghash } => {
                let src = plain.bytes();
                seal_through_stack(
                    counter,
                    ciphertext,
                    y,
                    |c, off, block| aes.ctr_xor(c, &src[off..off + block.len()], block),
                    |y, block| ghash.ghash_padded(y, block),
                );
            }
            Engine::Scalar => seal_through_stack(
                counter,
                ciphertext,
                y,
                |c, off, block| {
                    plain.load(off, block);
                    self.ctr_scalar(c, block);
                },
                |y, block| self.ghash_padded_scalar(y, block),
            ),
        };
        Ok(self.tag_with(j0, aad, len, encrypt_and_hash))
    }

    /// Decrypts `ciphertext` and verifies its tag.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidIvLength`] for a malformed IV and
    /// [`CryptoError::AuthenticationFailed`] if the tag does not verify (in which
    /// case no plaintext is released).
    pub fn decrypt(
        &self,
        iv: &[u8],
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let mut plaintext = vec![0u8; ciphertext.len()];
        self.decrypt_into(iv, aad, ciphertext, tag, &mut plaintext)?;
        Ok(plaintext)
    }

    /// Zero-copy decryption: verifies the tag first and only then decrypts into
    /// `plaintext` (which must be exactly `ciphertext.len()` bytes). Performs no heap
    /// allocation. On authentication failure the output buffer is left untouched.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidIvLength`], [`CryptoError::BufferLengthMismatch`]
    /// for a wrongly sized output buffer, or [`CryptoError::AuthenticationFailed`].
    pub fn decrypt_into(
        &self,
        iv: &[u8],
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8],
        plaintext: &mut [u8],
    ) -> Result<(), CryptoError> {
        let plaintext = PlainMut::Bytes(plaintext);
        check_open_len(ciphertext, &plaintext)?;
        self.verify(iv, aad, ciphertext, tag)?;
        self.decrypt_verified(iv, ciphertext, plaintext)
    }

    /// Checks `tag` against `ciphertext` and `aad` without decrypting anything.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidIvLength`] for a malformed IV and
    /// [`CryptoError::AuthenticationFailed`] if the tag does not verify.
    pub(crate) fn verify(
        &self,
        iv: &[u8],
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        let j0 = self.j0(iv)?;
        let expected = self.compute_tag(j0, aad, ciphertext);
        if tag.len() != TAG_LEN || !constant_time_eq(&expected, tag) {
            return Err(CryptoError::AuthenticationFailed);
        }
        Ok(())
    }

    /// The decrypt half of an open, without a tag check: callers have verified the
    /// tag ([`AesGcm::verify`]) and sized `plaintext` to `ciphertext`. This stays
    /// private to the crate, so no plaintext leaves it unverified.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidIvLength`] for a malformed IV.
    pub(crate) fn decrypt_verified(
        &self,
        iv: &[u8],
        ciphertext: &[u8],
        plaintext: PlainMut<'_>,
    ) -> Result<(), CryptoError> {
        debug_assert_eq!(ciphertext.len(), plaintext.len());
        let counter = inc32(self.j0(iv)?);
        match &self.engine {
            #[cfg(target_arch = "x86_64")]
            Engine::Vaes(vaes) => vaes.ctr_xor(counter, ciphertext, plaintext.bytes()),
            #[cfg(target_arch = "x86_64")]
            Engine::Hw { aes, .. } => aes.ctr_xor(counter, ciphertext, plaintext.bytes()),
            Engine::Scalar => {
                let (mut plaintext, mut stack) = (plaintext, [0u8; STACK_BLOCK]);
                for (i, chunk) in ciphertext.chunks(STACK_BLOCK).enumerate() {
                    let offset = i * STACK_BLOCK;
                    let block = &mut stack[..chunk.len()];
                    block.copy_from_slice(chunk);
                    self.ctr_scalar(counter_add(counter, (offset / BLOCK_SIZE) as u32), block);
                    plaintext.store(offset, block);
                }
            }
        }
        Ok(())
    }

    /// Encrypts with the retained reference kernels: byte-at-a-time CTR over the
    /// byte-wise AES core and bit-serial GHASH. Used for differential testing and as
    /// the throughput baseline; production code uses [`AesGcm::encrypt`] /
    /// [`AesGcm::encrypt_into`].
    ///
    /// # Errors
    ///
    /// Same as [`AesGcm::encrypt`].
    pub fn encrypt_reference(
        &self,
        iv: &[u8],
        aad: &[u8],
        plaintext: &[u8],
    ) -> Result<(Vec<u8>, [u8; TAG_LEN]), CryptoError> {
        let j0 = self.j0_reference(iv)?;
        let ciphertext = self.ctr_reference(inc32(j0), plaintext);
        let tag = self.compute_tag_reference(j0, aad, &ciphertext);
        Ok((ciphertext, tag))
    }

    /// Derives the pre-counter block J0 from the IV (fast GHASH for non-96-bit IVs).
    fn j0(&self, iv: &[u8]) -> Result<[u8; BLOCK_SIZE], CryptoError> {
        if iv.len() == IV_LEN {
            let mut j0 = [0u8; BLOCK_SIZE];
            j0[..IV_LEN].copy_from_slice(iv);
            j0[15] = 1;
            Ok(j0)
        } else if iv.is_empty() {
            Err(CryptoError::InvalidIvLength(0))
        } else {
            // GHASH-based derivation for non-96-bit IVs (rarely used by Plinius but
            // included for SP 800-38D completeness).
            let mut y = 0u128;
            self.ghash_padded(&mut y, iv);
            let mut len_block = [0u8; BLOCK_SIZE];
            len_block[8..].copy_from_slice(&((iv.len() as u64) * 8).to_be_bytes());
            self.ghash_block(&mut y, &len_block);
            Ok(y.to_be_bytes())
        }
    }

    /// Reference J0 derivation (bit-serial GHASH for non-96-bit IVs).
    fn j0_reference(&self, iv: &[u8]) -> Result<[u8; BLOCK_SIZE], CryptoError> {
        if iv.len() == IV_LEN || iv.is_empty() {
            return self.j0(iv);
        }
        let mut y = 0u128;
        ghash_padded_reference(self.h, &mut y, iv);
        let mut len_block = [0u8; BLOCK_SIZE];
        len_block[8..].copy_from_slice(&((iv.len() as u64) * 8).to_be_bytes());
        y = gf_mult(y ^ u128::from_be_bytes(len_block), self.h);
        Ok(y.to_be_bytes())
    }

    /// Scalar CTR kernel, in place: keystream blocks are generated in groups of four
    /// ([`Aes::encrypt_blocks`]) so the independent AES dependency chains overlap;
    /// the tail runs block-by-block.
    fn ctr_scalar(&self, mut counter: [u8; BLOCK_SIZE], data: &mut [u8]) {
        const LANES: usize = 4;
        const GROUP: usize = LANES * BLOCK_SIZE;
        let mut groups = data.chunks_exact_mut(GROUP);
        for group in &mut groups {
            let mut counters = [[0u8; BLOCK_SIZE]; LANES];
            for (i, c) in counters.iter_mut().enumerate() {
                *c = counter_add(counter, i as u32);
            }
            let keystream = self.cipher.encrypt_blocks(&counters);
            for (block, ks) in group.chunks_exact_mut(BLOCK_SIZE).zip(&keystream) {
                let x = u128::from_ne_bytes(block.try_into().expect("16 bytes"))
                    ^ u128::from_ne_bytes(*ks);
                block.copy_from_slice(&x.to_ne_bytes());
            }
            counter = counter_add(counter, LANES as u32);
        }
        for block in groups.into_remainder().chunks_mut(BLOCK_SIZE) {
            let keystream = self.cipher.encrypt_block_copy(&counter);
            for (d, k) in block.iter_mut().zip(keystream) {
                *d ^= k;
            }
            counter = inc32(counter);
        }
    }

    /// Block-at-a-time reference CTR over the byte-wise AES core.
    fn ctr_reference(&self, mut counter: [u8; BLOCK_SIZE], data: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; data.len()];
        for (s, d) in data.chunks(BLOCK_SIZE).zip(out.chunks_mut(BLOCK_SIZE)) {
            let mut keystream = counter;
            self.cipher.encrypt_block_reference(&mut keystream);
            for (i, (sb, db)) in s.iter().zip(d.iter_mut()).enumerate() {
                *db = sb ^ keystream[i];
            }
            counter = inc32(counter);
        }
        out
    }

    /// One GHASH block step, engine-dispatched.
    #[inline]
    fn ghash_block(&self, y: &mut u128, block: &[u8; BLOCK_SIZE]) {
        match &self.engine {
            #[cfg(target_arch = "x86_64")]
            Engine::Vaes(vaes) => vaes.ghash().ghash_block(y, block),
            #[cfg(target_arch = "x86_64")]
            Engine::Hw { ghash, .. } => ghash.ghash_block(y, block),
            Engine::Scalar => self.ghash_block_scalar(y, block),
        }
    }

    /// One GHASH block step with the byte-indexed Shoup table.
    #[inline]
    fn ghash_block_scalar(&self, y: &mut u128, block: &[u8; BLOCK_SIZE]) {
        *y = gf_mult_shoup8(&self.h_tables[0], *y ^ u128::from_be_bytes(*block));
    }

    /// Absorbs arbitrary-length data, zero-padding the final partial block;
    /// engine-dispatched. Every engine is bit-identical to the block-by-block
    /// serial chain.
    fn ghash_padded(&self, y: &mut u128, data: &[u8]) {
        match &self.engine {
            #[cfg(target_arch = "x86_64")]
            Engine::Vaes(vaes) => vaes.ghash_padded(y, data),
            #[cfg(target_arch = "x86_64")]
            Engine::Hw { ghash, .. } => ghash.ghash_padded(y, data),
            Engine::Scalar => self.ghash_padded_scalar(y, data),
        }
    }

    /// Scalar GHASH absorption.
    ///
    /// Full 64-byte groups use 4-block aggregation: the identity
    /// `(((Y⊕C0)·H ⊕ C1)·H ⊕ C2)·H ⊕ C3)·H = (Y⊕C0)·H⁴ ⊕ C1·H³ ⊕ C2·H² ⊕ C3·H`
    /// turns the serial multiply chain into four independent multiplies whose table
    /// loads overlap. The result is bit-identical to the block-by-block chain.
    fn ghash_padded_scalar(&self, y: &mut u128, data: &[u8]) {
        let t = &self.h_tables;
        let mut quads = data.chunks_exact(4 * BLOCK_SIZE);
        for quad in &mut quads {
            let b0 = u128::from_be_bytes(quad[0..16].try_into().expect("16 bytes"));
            let b1 = u128::from_be_bytes(quad[16..32].try_into().expect("16 bytes"));
            let b2 = u128::from_be_bytes(quad[32..48].try_into().expect("16 bytes"));
            let b3 = u128::from_be_bytes(quad[48..64].try_into().expect("16 bytes"));
            *y = gf_mult_shoup8(&t[3], *y ^ b0)
                ^ gf_mult_shoup8(&t[2], b1)
                ^ gf_mult_shoup8(&t[1], b2)
                ^ gf_mult_shoup8(&t[0], b3);
        }
        let mut blocks = quads.remainder().chunks_exact(BLOCK_SIZE);
        for chunk in &mut blocks {
            self.ghash_block_scalar(y, &chunk.try_into().expect("16 bytes"));
        }
        let rem = blocks.remainder();
        if !rem.is_empty() {
            let mut block = [0u8; BLOCK_SIZE];
            block[..rem.len()].copy_from_slice(rem);
            self.ghash_block_scalar(y, &block);
        }
    }

    /// GHASH over AAD and ciphertext, encrypted with J0 to form the tag.
    fn compute_tag(&self, j0: [u8; BLOCK_SIZE], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        self.tag_with(j0, aad, ciphertext.len(), |y| {
            self.ghash_padded(y, ciphertext)
        })
    }

    /// The tag over `aad` and a `ct_len`-byte ciphertext that `hash_ciphertext`
    /// absorbs into the running hash it is handed.
    fn tag_with(
        &self,
        j0: [u8; BLOCK_SIZE],
        aad: &[u8],
        ct_len: usize,
        hash_ciphertext: impl FnOnce(&mut u128),
    ) -> [u8; TAG_LEN] {
        let mut y = 0u128;
        self.ghash_padded(&mut y, aad);
        hash_ciphertext(&mut y);
        let mut len_block = [0u8; BLOCK_SIZE];
        len_block[..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
        len_block[8..].copy_from_slice(&((ct_len as u64) * 8).to_be_bytes());
        self.ghash_block(&mut y, &len_block);
        self.finish_tag(j0, y)
    }

    /// Reference tag computation with the bit-serial multiplier.
    fn compute_tag_reference(
        &self,
        j0: [u8; BLOCK_SIZE],
        aad: &[u8],
        ciphertext: &[u8],
    ) -> [u8; TAG_LEN] {
        let mut y = 0u128;
        ghash_padded_reference(self.h, &mut y, aad);
        ghash_padded_reference(self.h, &mut y, ciphertext);
        let mut len_block = [0u8; BLOCK_SIZE];
        len_block[..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
        len_block[8..].copy_from_slice(&((ciphertext.len() as u64) * 8).to_be_bytes());
        y = gf_mult(y ^ u128::from_be_bytes(len_block), self.h);
        self.finish_tag(j0, y)
    }

    fn finish_tag(&self, j0: [u8; BLOCK_SIZE], y: u128) -> [u8; TAG_LEN] {
        let s = y.to_be_bytes();
        let e_j0 = self.cipher.encrypt_block_copy(&j0);
        let mut tag = [0u8; TAG_LEN];
        for i in 0..TAG_LEN {
            tag[i] = s[i] ^ e_j0[i];
        }
        tag
    }
}

/// Checks that an open's output holds exactly the ciphertext's plaintext.
pub(crate) fn check_open_len(
    ciphertext: &[u8],
    plaintext: &PlainMut<'_>,
) -> Result<(), CryptoError> {
    if plaintext.len() != ciphertext.len() {
        return Err(CryptoError::BufferLengthMismatch {
            expected: ciphertext.len(),
            got: plaintext.len(),
        });
    }
    Ok(())
}

/// Increments the last 32 bits of a counter block (the `inc32` function of SP 800-38D).
fn inc32(block: [u8; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
    counter_add(block, 1)
}

/// Adds `n` to the last 32 bits of a counter block (wrapping), i.e. `inc32` applied `n`
/// times — how a kernel derives the counter of a block offset (shared by every engine
/// so all derive per-block counters identically).
pub(crate) fn counter_add(mut block: [u8; BLOCK_SIZE], n: u32) -> [u8; BLOCK_SIZE] {
    let ctr = u32::from_be_bytes([block[12], block[13], block[14], block[15]]).wrapping_add(n);
    block[12..].copy_from_slice(&ctr.to_be_bytes());
    block
}

/// Constant-time comparison of two equally sized byte strings.
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// The reduction constant of the GCM polynomial in the reflected representation.
const R: u128 = 0xe1 << 120;

/// Multiplies by `x` in GF(2^128): one right shift with conditional reduction.
#[inline]
const fn mul_x(v: u128) -> u128 {
    (v >> 1) ^ if v & 1 == 1 { R } else { 0 }
}

/// Multiplies by `x^4`: four applications of [`mul_x`].
const fn mul_x4(v: u128) -> u128 {
    mul_x(mul_x(mul_x(mul_x(v))))
}

/// Reduction table for shifting the GHASH accumulator by one nibble:
/// `R4[n] = n · x^4` for the nibble `n` in the low four bit positions.
const R4: [u128; 16] = build_r4();

const fn build_r4() -> [u128; 16] {
    let mut t = [0u128; 16];
    let mut n = 0usize;
    while n < 16 {
        t[n] = mul_x4(n as u128);
        n += 1;
    }
    t
}

/// Reduction table for shifting the GHASH accumulator by one byte:
/// `R8[n] = n · x^8` for the byte `n` in the low eight bit positions.
const R8: [u128; 256] = build_r8();

const fn build_r8() -> [u128; 256] {
    let mut t = [0u128; 256];
    let mut n = 0usize;
    while n < 256 {
        t[n] = mul_x4(mul_x4(n as u128));
        n += 1;
    }
    t
}

/// Builds the per-key Shoup table: `t[n]` is `H` multiplied by the 4-bit polynomial
/// whose bits sit at the x^0..x^3 coefficient positions (bits 124..127 of the word).
fn build_h_table(h: u128) -> [u128; 16] {
    let mut t = [0u128; 16];
    t[8] = h; // 0b1000 at bits 124..127 sets bit 127 = x^0, so t[8] = H · 1.
    t[4] = mul_x(t[8]);
    t[2] = mul_x(t[4]);
    t[1] = mul_x(t[2]);
    let mut i = 2;
    while i < 16 {
        for j in 1..i {
            t[i + j] = t[i] ^ t[j];
        }
        i *= 2;
    }
    t
}

/// Expands the 16-entry Shoup table into a byte-indexed table: `t8[b]` is `H`
/// multiplied by byte `b` at the x^0..x^7 positions, i.e. the low-nibble entry
/// combined with the high-nibble entry shifted four degrees up. Halves the per-block
/// step count of [`gf_mult_shoup`] at the cost of 4 KiB per key.
fn build_h_table8(t4: &[u128; 16]) -> Box<[u128; 256]> {
    let mut t = Box::new([0u128; 256]);
    for (b, entry) in t.iter_mut().enumerate() {
        // In the reflected representation the high nibble of a byte holds the
        // low-degree coefficients: x^0..x^3 come from `b >> 4`, x^4..x^7 from `b & 0xf`.
        *entry = t4[b >> 4] ^ mul_x4(t4[b & 0xf]);
    }
    t
}

/// Byte-indexed Shoup multiplication: 16 shift+lookup steps per block, processing
/// bytes from the least significant (highest-degree) end with a Horner-style `· x^8`
/// between steps.
#[inline]
fn gf_mult_shoup8(table: &[u128; 256], w: u128) -> u128 {
    let bytes = w.to_le_bytes(); // bytes[0] holds the highest-degree coefficients
    let mut z = table[bytes[0] as usize];
    for &byte in &bytes[1..] {
        z = (z >> 8) ^ R8[(z & 0xff) as usize];
        z ^= table[byte as usize];
    }
    z
}

/// Shoup 4-bit-table multiplication of `w` by the `H` encoded in `table`: 32
/// shift+lookup steps instead of 128 bit-steps, processing nibbles from the least
/// significant (highest-degree) end with a Horner-style `· x^4` between steps.
///
/// The 16-entry table is the per-key seed from which the byte-indexed production
/// table is expanded; this mid-level kernel is retained so the tests can pin
/// bit-serial → 4-bit → 8-bit against each other.
///
/// The operand is decomposed into bytes once so every step indexes with a nibble of a
/// `u8` (no variable-distance `u128` shifts in the loop).
#[cfg_attr(not(test), allow(dead_code))]
#[inline]
fn gf_mult_shoup(table: &[u128; 16], w: u128) -> u128 {
    let bytes = w.to_le_bytes(); // bytes[0] holds nibbles 0 (low) and 1 (high)
    let mut z = table[(bytes[0] & 0xf) as usize];
    z = (z >> 4) ^ R4[(z & 0xf) as usize];
    z ^= table[(bytes[0] >> 4) as usize];
    for &byte in &bytes[1..] {
        z = (z >> 4) ^ R4[(z & 0xf) as usize];
        z ^= table[(byte & 0xf) as usize];
        z = (z >> 4) ^ R4[(z & 0xf) as usize];
        z ^= table[(byte >> 4) as usize];
    }
    z
}

/// Multiplication in GF(2^128) with the GCM polynomial, operating on the
/// big-endian "reflected" representation used by SP 800-38D.
///
/// The retained bit-serial reference kernel (128 iterations); production code uses
/// [`gf_mult_shoup`]. Crate-visible so the PCLMUL kernel's unit tests can pin the
/// hardware multiply against it, and reachable through
/// [`AesGcm::encrypt_reference`] for differential testing.
pub(crate) fn gf_mult(x: u128, y: u128) -> u128 {
    let mut z = 0u128;
    let mut v = x;
    for i in 0..128 {
        if (y >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        if v & 1 == 0 {
            v >>= 1;
        } else {
            v = (v >> 1) ^ R;
        }
    }
    z
}

/// Reference GHASH absorption with zero-padding, on the bit-serial multiplier.
fn ghash_padded_reference(h: u128, y: &mut u128, data: &[u8]) {
    for chunk in data.chunks(BLOCK_SIZE) {
        let mut block = [0u8; BLOCK_SIZE];
        block[..chunk.len()].copy_from_slice(chunk);
        *y = gf_mult(*y ^ u128::from_be_bytes(block), h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// NIST GCM test case 1: empty plaintext, all-zero key and IV.
    #[test]
    fn nist_test_case_1() {
        let gcm = AesGcm::from_key(&[0u8; 16]);
        let (ct, tag) = gcm.encrypt(&[0u8; 12], &[], &[]).unwrap();
        assert!(ct.is_empty());
        assert_eq!(tag.to_vec(), hex("58e2fccefa7e3061367f1d57a4e7455a"));
    }

    /// NIST GCM test case 2: one zero block of plaintext.
    #[test]
    fn nist_test_case_2() {
        let gcm = AesGcm::from_key(&[0u8; 16]);
        let (ct, tag) = gcm.encrypt(&[0u8; 12], &[], &[0u8; 16]).unwrap();
        assert_eq!(ct, hex("0388dace60b6a392f328c2b971b2fe78"));
        assert_eq!(tag.to_vec(), hex("ab6e47d42cec13bdf53a67b21257bddf"));
    }

    /// NIST GCM test case 3: four blocks of plaintext, no AAD.
    #[test]
    fn nist_test_case_3() {
        let key = hex("feffe9928665731c6d6a8f9467308308");
        let iv = hex("cafebabefacedbaddecaf888");
        let pt = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        let gcm = AesGcm::from_key(&key);
        let (ct, tag) = gcm.encrypt(&iv, &[], &pt).unwrap();
        assert_eq!(
            ct,
            hex(
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
            )
        );
        assert_eq!(tag.to_vec(), hex("4d5c2af327cd64a62cf35abd2ba6fab4"));
    }

    /// NIST GCM test case 4: same as case 3 but with truncated plaintext and AAD.
    #[test]
    fn nist_test_case_4_with_aad() {
        let key = hex("feffe9928665731c6d6a8f9467308308");
        let iv = hex("cafebabefacedbaddecaf888");
        let pt = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let aad = hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let gcm = AesGcm::from_key(&key);
        let (ct, tag) = gcm.encrypt(&iv, &aad, &pt).unwrap();
        assert_eq!(
            ct,
            hex(
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
            )
        );
        assert_eq!(tag.to_vec(), hex("5bc94fbc3221a5db94fae95ae7121a47"));
    }

    #[test]
    fn round_trip_and_tamper_detection() {
        let gcm = AesGcm::from_key(&[9u8; 16]);
        let iv = [3u8; 12];
        let aad = b"layer-0-weights";
        let pt = b"confidential model parameters".to_vec();
        let (mut ct, tag) = gcm.encrypt(&iv, aad, &pt).unwrap();
        assert_eq!(gcm.decrypt(&iv, aad, &ct, &tag).unwrap(), pt);
        // Flip one ciphertext bit: decryption must fail and release nothing.
        ct[0] ^= 1;
        assert_eq!(
            gcm.decrypt(&iv, aad, &ct, &tag).unwrap_err(),
            CryptoError::AuthenticationFailed
        );
        ct[0] ^= 1;
        // Wrong AAD also fails.
        assert!(gcm.decrypt(&iv, b"other", &ct, &tag).is_err());
    }

    #[test]
    fn non_96_bit_iv_uses_ghash_derivation() {
        let gcm = AesGcm::from_key(&[1u8; 16]);
        let iv = [7u8; 16]; // 128-bit IV takes the GHASH path.
        let (ct, tag) = gcm.encrypt(&iv, &[], b"hello").unwrap();
        assert_eq!(gcm.decrypt(&iv, &[], &ct, &tag).unwrap(), b"hello");
    }

    #[test]
    fn empty_iv_is_rejected() {
        let gcm = AesGcm::from_key(&[1u8; 16]);
        assert_eq!(
            gcm.encrypt(&[], &[], b"x").unwrap_err(),
            CryptoError::InvalidIvLength(0)
        );
    }

    #[test]
    fn inc32_wraps_only_low_word() {
        let mut block = [0xFFu8; 16];
        block = inc32(block);
        assert_eq!(&block[..12], &[0xFF; 12]);
        assert_eq!(&block[12..], &[0, 0, 0, 0]);
    }

    #[test]
    fn counter_add_matches_repeated_inc32() {
        let mut block = [0u8; 16];
        block[12..].copy_from_slice(&0xffff_fff0u32.to_be_bytes());
        let mut stepped = block;
        for _ in 0..100 {
            stepped = inc32(stepped);
        }
        assert_eq!(counter_add(block, 100), stepped);
        // Wraps exactly like inc32 does.
        assert_eq!(counter_add(block, 16)[12..], [0, 0, 0, 0]);
    }

    #[test]
    fn constant_time_eq_basic() {
        assert!(constant_time_eq(b"abc", b"abc"));
        assert!(!constant_time_eq(b"abc", b"abd"));
        assert!(!constant_time_eq(b"abc", b"ab"));
    }

    /// The Shoup table multipliers (4-bit and byte-indexed) agree with the bit-serial
    /// reference on a spread of deterministic operand pairs.
    #[test]
    fn shoup_ghash_matches_bit_serial_reference() {
        let mut x: u128 = 0x0123_4567_89ab_cdef_0011_2233_4455_6677;
        let mut h: u128 = 0xdead_beef_cafe_f00d_1234_5678_9abc_def0;
        for _ in 0..64 {
            let table = build_h_table(h);
            let table8 = build_h_table8(&table);
            let expected = gf_mult(x, h);
            assert_eq!(gf_mult_shoup(&table, x), expected, "x={x:x} h={h:x}");
            assert_eq!(gf_mult_shoup8(&table8, x), expected, "x={x:x} h={h:x}");
            // Also the edge operands.
            assert_eq!(gf_mult_shoup(&table, 0), 0);
            assert_eq!(gf_mult_shoup8(&table8, 0), 0);
            assert_eq!(gf_mult_shoup(&table, u128::MAX), gf_mult(u128::MAX, h));
            assert_eq!(gf_mult_shoup8(&table8, u128::MAX), gf_mult(u128::MAX, h));
            x = x.rotate_left(11) ^ h;
            h = h.rotate_right(7).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        }
    }

    /// Fast encrypt agrees with the retained reference kernels byte-for-byte,
    /// including tag, across block-boundary sizes and IV shapes.
    #[test]
    fn fast_path_matches_reference_kernels() {
        let gcm = AesGcm::from_key(&hex("feffe9928665731c6d6a8f9467308308"));
        let data: Vec<u8> = (0..200u8).collect();
        let aad = b"reference-pinning";
        for len in [0usize, 1, 15, 16, 17, 64, 100, 200] {
            for iv in [vec![0x42u8; 12], vec![0x42u8; 8], vec![0x42u8; 60]] {
                let fast = gcm.encrypt(&iv, aad, &data[..len]).unwrap();
                let reference = gcm.encrypt_reference(&iv, aad, &data[..len]).unwrap();
                assert_eq!(fast, reference, "len={len} iv_len={}", iv.len());
            }
        }
    }

    /// Every engine this host can build seals the scalar engine's bytes, from
    /// bytes and from `f32`s, at sizes around the vector group (256 B) and its
    /// stack block, opens them back, and leaves the output untouched on a bad tag.
    #[test]
    fn every_engine_matches_scalar_around_group_edges() {
        let key = [0x6bu8; 16];
        let scalar = AesGcm::with_engine(Aes::new(&key), EngineKind::Scalar).unwrap();
        let iv = [4u8; IV_LEN];
        let floats: Vec<f32> = (0..40_000u32)
            .map(|i| f32::from_bits(i.wrapping_mul(2_654_435_761)))
            .collect();
        let pt: Vec<u8> = floats.iter().flat_map(|x| x.to_le_bytes()).collect();
        for len in [
            4usize,
            12,
            252,
            256,
            260,
            512,
            4096 + 20,
            65_536,
            131_072 + 276,
        ] {
            let (want_ct, want_tag) = scalar.encrypt(&iv, b"aad", &pt[..len]).unwrap();
            for kind in EngineKind::ALL {
                let Some(gcm) = AesGcm::with_engine(Aes::new(&key), kind) else {
                    continue;
                };
                let mut ct = vec![0u8; len];
                let tag = gcm.encrypt_into(&iv, b"aad", &pt[..len], &mut ct).unwrap();
                assert_eq!((&ct, tag), (&want_ct, want_tag), "{kind} len={len}");
                let mut from_f32s = vec![0u8; len];
                let tag = gcm
                    .seal_plain(&iv, b"aad", Plain::F32s(&floats[..len / 4]), &mut from_f32s)
                    .unwrap();
                assert_eq!(
                    (&from_f32s, tag),
                    (&want_ct, want_tag),
                    "{kind} f32 len={len}"
                );
                let mut back = vec![0u8; len];
                gcm.decrypt_into(&iv, b"aad", &ct, &tag, &mut back).unwrap();
                assert_eq!(back, &pt[..len], "{kind} len={len}");
                let mut back_f32s = vec![0f32; len / 4];
                gcm.decrypt_verified(&iv, &ct, PlainMut::F32s(&mut back_f32s))
                    .unwrap();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&back_f32s),
                    bits(&floats[..len / 4]),
                    "{kind} len={len}"
                );
                let mut bad = tag;
                bad[3] ^= 0x10;
                let mut untouched = vec![0xA5u8; len];
                assert!(gcm
                    .decrypt_into(&iv, b"aad", &ct, &bad, &mut untouched)
                    .is_err());
                assert!(untouched.iter().all(|&b| b == 0xA5), "{kind} len={len}");
            }
        }
    }

    #[test]
    fn debug_does_not_leak_the_hash_subkey_or_tables() {
        let gcm = AesGcm::from_key(&[0xABu8; 16]);
        let dbg = format!("{gcm:?}");
        assert!(dbg.contains("AesGcm") && dbg.contains("rounds"), "{dbg}");
        assert!(
            dbg.len() < 120,
            "debug output must not dump H or the GHASH tables: {dbg}"
        );
    }

    #[test]
    fn into_apis_reject_wrong_buffer_sizes() {
        let gcm = AesGcm::from_key(&[1u8; 16]);
        let mut short = [0u8; 3];
        assert!(matches!(
            gcm.encrypt_into(&[2u8; 12], &[], b"four", &mut short),
            Err(CryptoError::BufferLengthMismatch {
                expected: 4,
                got: 3
            })
        ));
        let (ct, tag) = gcm.encrypt(&[2u8; 12], &[], b"four").unwrap();
        let mut long = [0u8; 5];
        assert!(matches!(
            gcm.decrypt_into(&[2u8; 12], &[], &ct, &tag, &mut long),
            Err(CryptoError::BufferLengthMismatch {
                expected: 4,
                got: 5
            })
        ));
    }

    #[test]
    fn failed_auth_leaves_output_buffer_untouched() {
        let gcm = AesGcm::from_key(&[8u8; 16]);
        let (ct, mut tag) = gcm.encrypt(&[1u8; 12], &[], b"secret!").unwrap();
        tag[0] ^= 1;
        let mut out = [0xAAu8; 7];
        assert_eq!(
            gcm.decrypt_into(&[1u8; 12], &[], &ct, &tag, &mut out)
                .unwrap_err(),
            CryptoError::AuthenticationFailed
        );
        assert_eq!(out, [0xAAu8; 7], "no plaintext may be released");
    }
}
