//! Galois/Counter Mode (GCM) on top of the AES block cipher, following
//! NIST SP 800-38D — the same AEAD used by the Intel SGX SDK routines that
//! Plinius' encryption engine relies on.
//!
//! # Fast and reference kernels
//!
//! The production path is a high-throughput software implementation:
//!
//! * **CTR** — multi-block keystream generation through the T-table AES core, XORed
//!   word-wise (`u128` loads/stores) into a caller-provided output buffer; no per-byte
//!   `Vec::push`. For large buffers the keystream can additionally be computed across
//!   threads, chunked at 16-byte counter boundaries ([`AesGcm::encrypt_into_with_threads`]).
//!   Because every chunk derives its counter from its block offset, the ciphertext is
//!   **bit-identical for every thread count** by construction.
//! * **GHASH** — Shoup's 4-bit-table method: a 16-entry per-key table of `H` multiples
//!   turns the 128 bit-steps of the schoolbook multiply into 32 shift+lookup steps.
//!
//! The original kernels (byte-at-a-time CTR, bit-serial `gf_mult`) are retained behind
//! [`AesGcm::encrypt_reference`]; property tests pin the fast path to them byte-for-byte
//! and the release-mode sanity test asserts the speedup.

#[cfg(target_arch = "x86_64")]
use crate::aesarch::AesNi;
#[cfg(target_arch = "x86_64")]
use crate::clmul::ClmulGhash;

use crate::aes::{Aes, BLOCK_SIZE};
use crate::dispatch::{EngineKind, EnginePolicy};
use crate::CryptoError;

/// Length of the GCM initialization vector used by Plinius (96 bits).
pub const IV_LEN: usize = 12;
/// Length of the authentication tag (128 bits).
pub const TAG_LEN: usize = 16;

/// Chunk size in bytes for intra-buffer CTR parallelism. A multiple of the AES block
/// size, so every chunk starts on a counter boundary.
const CTR_PAR_CHUNK: usize = 64 * 1024;

/// Buffers smaller than this stay on the serial CTR path even when threads are offered
/// (fork/join overhead would dominate).
const CTR_PAR_MIN: usize = 2 * CTR_PAR_CHUNK;

/// The concrete kernel set a context dispatches to, fixed at construction.
///
/// The hardware variant carries the AES-NI schedule and the PCLMUL subkey powers;
/// it only exists on `x86_64` and is only ever constructed after runtime feature
/// detection (see [`crate::aesarch`]/[`crate::clmul`] for the safety contract).
// The size gap between `Hw` (expanded key schedule + GHASH subkey powers, ~320 B)
// and the table-less variants is intentional: one `Engine` lives inline in each
// long-lived `AesGcm` (itself dominated by the scalar Shoup table), so boxing the
// hardware state would buy nothing but a pointer chase on every sealed block.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
enum Engine {
    #[cfg(target_arch = "x86_64")]
    Hw {
        aes: AesNi,
        ghash: ClmulGhash,
    },
    Scalar,
}

impl Engine {
    fn kind(&self) -> EngineKind {
        match self {
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
        let engine = Self::build_engine(policy, &cipher, h_powers);
        AesGcm {
            cipher,
            h,
            h_tables,
            engine,
        }
    }

    /// Resolves the policy into kernels, falling back to scalar if hardware
    /// construction fails despite a `Hw` selection (belt and braces: selection
    /// and construction both re-check the CPUID features).
    fn build_engine(policy: EnginePolicy, cipher: &Aes, h_powers: [u128; 4]) -> Engine {
        match policy.select() {
            EngineKind::Scalar => Engine::Scalar,
            #[cfg(target_arch = "x86_64")]
            EngineKind::Hw => match (AesNi::try_new(cipher), ClmulGhash::try_new(h_powers)) {
                (Some(aes), Some(ghash)) => Engine::Hw { aes, ghash },
                _ => Engine::Scalar,
            },
            #[cfg(not(target_arch = "x86_64"))]
            EngineKind::Hw => {
                let _ = (cipher, h_powers);
                Engine::Scalar
            }
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

    /// Short label of the selected engine (`"aesni+pclmul"` or `"scalar"`), for
    /// stats and bench reports.
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
    /// exactly `plaintext.len()` bytes) and returns the tag. Performs no heap
    /// allocation.
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
        self.encrypt_into_with_threads(iv, aad, plaintext, ciphertext, 1)
    }

    /// [`AesGcm::encrypt_into`] with the CTR keystream fanned out over up to `threads`
    /// scoped threads for large buffers. Chunks are split at 16-byte counter
    /// boundaries, so the ciphertext is bit-identical for every `threads` value
    /// (GHASH, which is a serial chain, always runs on the calling thread).
    ///
    /// # Errors
    ///
    /// Same as [`AesGcm::encrypt_into`].
    pub fn encrypt_into_with_threads(
        &self,
        iv: &[u8],
        aad: &[u8],
        plaintext: &[u8],
        ciphertext: &mut [u8],
        threads: usize,
    ) -> Result<[u8; TAG_LEN], CryptoError> {
        if ciphertext.len() != plaintext.len() {
            return Err(CryptoError::BufferLengthMismatch {
                expected: plaintext.len(),
                got: ciphertext.len(),
            });
        }
        let j0 = self.j0(iv)?;
        self.ctr_xor_into_threads(inc32(j0), plaintext, ciphertext, threads);
        Ok(self.compute_tag(j0, aad, ciphertext))
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
        self.decrypt_into_with_threads(iv, aad, ciphertext, tag, plaintext, 1)
    }

    /// [`AesGcm::decrypt_into`] with chunk-parallel CTR for large buffers; the
    /// plaintext is bit-identical for every `threads` value.
    ///
    /// # Errors
    ///
    /// Same as [`AesGcm::decrypt_into`].
    pub fn decrypt_into_with_threads(
        &self,
        iv: &[u8],
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8],
        plaintext: &mut [u8],
        threads: usize,
    ) -> Result<(), CryptoError> {
        if plaintext.len() != ciphertext.len() {
            return Err(CryptoError::BufferLengthMismatch {
                expected: ciphertext.len(),
                got: plaintext.len(),
            });
        }
        let j0 = self.j0(iv)?;
        let expected = self.compute_tag(j0, aad, ciphertext);
        if tag.len() != TAG_LEN || !constant_time_eq(&expected, tag) {
            return Err(CryptoError::AuthenticationFailed);
        }
        self.ctr_xor_into_threads(inc32(j0), ciphertext, plaintext, threads);
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

    /// CTR keystream application from `counter` into `dst`, engine-dispatched; no
    /// allocation on any engine. Both kernels produce identical bytes; only the
    /// block-group width differs (8 for AES-NI, 4 for the T-tables), which is
    /// invisible because CTR blocks are independent.
    fn ctr_xor_into(&self, counter: [u8; BLOCK_SIZE], src: &[u8], dst: &mut [u8]) {
        match &self.engine {
            #[cfg(target_arch = "x86_64")]
            Engine::Hw { aes, .. } => aes.ctr_xor(counter, src, dst),
            Engine::Scalar => self.ctr_xor_into_scalar(counter, src, dst),
        }
    }

    /// Scalar CTR kernel: keystream blocks are generated in groups of four
    /// ([`Aes::encrypt_blocks`]) so the independent AES dependency chains overlap;
    /// the tail runs block-by-block.
    fn ctr_xor_into_scalar(&self, mut counter: [u8; BLOCK_SIZE], src: &[u8], dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        const LANES: usize = 4;
        const GROUP: usize = LANES * BLOCK_SIZE;
        let mut src_groups = src.chunks_exact(GROUP);
        let mut dst_groups = dst.chunks_exact_mut(GROUP);
        for (s, d) in (&mut src_groups).zip(&mut dst_groups) {
            let mut counters = [[0u8; BLOCK_SIZE]; LANES];
            for (i, c) in counters.iter_mut().enumerate() {
                *c = counter_add(counter, i as u32);
            }
            let keystream = self.cipher.encrypt_blocks(&counters);
            for (lane, ks) in keystream.iter().enumerate() {
                let off = lane * BLOCK_SIZE;
                let x = u128::from_ne_bytes(s[off..off + BLOCK_SIZE].try_into().expect("16 bytes"))
                    ^ u128::from_ne_bytes(*ks);
                d[off..off + BLOCK_SIZE].copy_from_slice(&x.to_ne_bytes());
            }
            counter = counter_add(counter, LANES as u32);
        }
        let s_tail = src_groups.remainder();
        let d_tail = dst_groups.into_remainder();
        let mut src_blocks = s_tail.chunks_exact(BLOCK_SIZE);
        let mut dst_blocks = d_tail.chunks_exact_mut(BLOCK_SIZE);
        for (s, d) in (&mut src_blocks).zip(&mut dst_blocks) {
            let keystream = self.cipher.encrypt_block_copy(&counter);
            let x = u128::from_ne_bytes(s.try_into().expect("16 bytes"))
                ^ u128::from_ne_bytes(keystream);
            d.copy_from_slice(&x.to_ne_bytes());
            counter = inc32(counter);
        }
        let s_rem = src_blocks.remainder();
        let d_rem = dst_blocks.into_remainder();
        if !s_rem.is_empty() {
            let keystream = self.cipher.encrypt_block_copy(&counter);
            for (i, (s, d)) in s_rem.iter().zip(d_rem.iter_mut()).enumerate() {
                *d = s ^ keystream[i];
            }
        }
    }

    /// Chunk-parallel [`AesGcm::ctr_xor_into`]: `dst` is split at multiples of
    /// [`CTR_PAR_CHUNK`] (a counter boundary), each chunk's counter derived from its
    /// block offset — deterministic for every thread count and schedule.
    fn ctr_xor_into_threads(
        &self,
        counter: [u8; BLOCK_SIZE],
        src: &[u8],
        dst: &mut [u8],
        threads: usize,
    ) {
        if threads <= 1 || dst.len() < CTR_PAR_MIN {
            return self.ctr_xor_into(counter, src, dst);
        }
        plinius_parallel::par_chunks_mut(dst, CTR_PAR_CHUNK, threads, |idx, chunk| {
            let off = idx * CTR_PAR_CHUNK;
            let chunk_counter = counter_add(counter, (off / BLOCK_SIZE) as u32);
            self.ctr_xor_into(chunk_counter, &src[off..off + chunk.len()], chunk);
        });
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
        let mut y = 0u128;
        self.ghash_padded(&mut y, aad);
        self.ghash_padded(&mut y, ciphertext);
        let mut len_block = [0u8; BLOCK_SIZE];
        len_block[..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
        len_block[8..].copy_from_slice(&((ciphertext.len() as u64) * 8).to_be_bytes());
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

/// Increments the last 32 bits of a counter block (the `inc32` function of SP 800-38D).
fn inc32(block: [u8; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
    counter_add(block, 1)
}

/// Adds `n` to the last 32 bits of a counter block (wrapping), i.e. `inc32` applied `n`
/// times — the building block of chunk-parallel CTR (shared with the AES-NI kernel so
/// both engines derive per-block counters identically).
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

    /// Thread-parallel CTR produces bit-identical output for every thread count.
    #[test]
    fn threaded_ctr_is_bit_identical() {
        let gcm = AesGcm::from_key(&[5u8; 16]);
        let iv = [9u8; 12];
        // Large enough to cross several parallel chunks, plus a partial final block.
        let pt: Vec<u8> = (0..3 * CTR_PAR_CHUNK + 7)
            .map(|i| (i * 31 % 251) as u8)
            .collect();
        let mut serial = vec![0u8; pt.len()];
        let tag_serial = gcm
            .encrypt_into_with_threads(&iv, b"aad", &pt, &mut serial, 1)
            .unwrap();
        for threads in [2usize, 3, 8] {
            let mut parallel = vec![0u8; pt.len()];
            let tag = gcm
                .encrypt_into_with_threads(&iv, b"aad", &pt, &mut parallel, threads)
                .unwrap();
            assert_eq!(parallel, serial, "threads={threads}");
            assert_eq!(tag, tag_serial, "threads={threads}");
            // And the threaded decrypt round-trips.
            let mut opened = vec![0u8; pt.len()];
            gcm.decrypt_into_with_threads(&iv, b"aad", &parallel, &tag, &mut opened, threads)
                .unwrap();
            assert_eq!(opened, pt, "threads={threads}");
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
