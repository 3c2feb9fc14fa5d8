//! AES-NI block engine: hardware AES rounds (`AESENC`/`AESENCLAST`) driving an
//! interleaved multi-block CTR keystream.
//!
//! This is one of the three modules in the crate allowed to contain `unsafe` code
//! (the others are [`crate::clmul`] and [`crate::vaes`], which broadcasts this
//! module's key schedule); everything else stays `#![deny(unsafe_code)]`.
//!
//! # Safety contract
//!
//! * [`AesNi::try_new`] returns `Some` only after
//!   [`crate::dispatch::hw_available`] has *runtime-verified* that the CPU
//!   reports the `aes` feature (SSE2 is part of the `x86_64` baseline). Every
//!   `unsafe` block in this module calls a `#[target_feature(enable = "aes")]`
//!   function through a safe wrapper on `self`, so the instructions are provably
//!   supported whenever they execute.
//! * All loads and stores go through unaligned intrinsics
//!   (`_mm_loadu_si128`/`_mm_storeu_si128`) against bounds-checked slice ranges;
//!   no pointer ever escapes the length of its source slice.
//!
//! # Kernel shape
//!
//! The CTR keystream is generated eight blocks at a time: eight counter blocks
//! are derived from the base counter (`inc32` semantics, matching the scalar
//! engine bit-for-bit), the AES rounds run interleaved across the eight lanes so
//! the ~4-cycle `AESENC` latency of one lane hides behind the others, and the
//! keystream is XORed straight into the caller's output buffer. The tail runs
//! block-by-block, then byte-by-byte for a final partial block — the same
//! decomposition as the scalar `ctr_xor_into`, so chunk-parallel callers split at
//! identical counter boundaries on every engine.
//!
//! The key schedule for 128-bit keys (the size Plinius uses) is expanded natively
//! with `AESKEYGENASSIST` and pinned against the FIPS-197 scalar expansion by a
//! unit test (and a debug assertion); 192/256-bit keys load the already-validated
//! scalar schedule directly.
//!
//! # `f32` plaintext
//!
//! The hardware kernels seal model tensors straight from their `f32` slices and
//! open straight into them. [`f32_bytes`] and [`f32_bytes_mut`] are the crate's
//! one view of `f32`s as bytes; the scalar engine, which every target builds,
//! converts per block with `to_le_bytes`/`from_le_bytes` instead.
#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_aeskeygenassist_si128, _mm_loadu_si128,
    _mm_setzero_si128, _mm_shuffle_epi32, _mm_slli_si128, _mm_storeu_si128, _mm_xor_si128,
};

use crate::aes::{Aes, BLOCK_SIZE};
use crate::dispatch::hw_available;
use crate::gcm::counter_add;

/// Maximum number of round keys (AES-256: 14 rounds + the initial whitening key).
pub(crate) const MAX_ROUND_KEYS: usize = 15;

/// How many keystream blocks the wide CTR kernel produces per iteration.
const WIDE_LANES: usize = 8;

/// An AES-NI key schedule plus the hardware CTR kernel.
///
/// Round keys are stored as plain bytes (not `__m128i`) so the struct is ordinary
/// `Copy` data on every platform; the kernels load them with unaligned moves, and
/// the compiler hoists the loads out of the block loop inside the
/// `#[target_feature]` functions.
#[derive(Clone, Copy)]
pub(crate) struct AesNi {
    rk: [[u8; BLOCK_SIZE]; MAX_ROUND_KEYS],
    rounds: usize,
}

impl AesNi {
    /// Builds the hardware engine for an expanded key, or `None` when the CPU
    /// does not support it. This is the *only* constructor, which is what makes
    /// the safe wrappers below sound.
    pub(crate) fn try_new(cipher: &Aes) -> Option<Self> {
        if !hw_available() {
            return None;
        }
        let rounds = cipher.rounds();
        let mut rk = [[0u8; BLOCK_SIZE]; MAX_ROUND_KEYS];
        if rounds == 10 {
            // SAFETY: `hw_available()` verified the `aes` feature above.
            unsafe { expand_key_128(&cipher.round_keys()[0], &mut rk) };
            debug_assert_eq!(
                &rk[..=rounds],
                cipher.round_keys(),
                "AESKEYGENASSIST schedule must match the FIPS-197 expansion"
            );
        } else {
            rk[..=rounds].copy_from_slice(cipher.round_keys());
        }
        Some(AesNi { rk, rounds })
    }

    /// Applies the CTR keystream starting at `counter` to `src`, writing into
    /// `dst`. Bit-identical to the scalar `ctr_xor_into` for every input.
    ///
    /// # Panics
    ///
    /// Debug-asserts `src.len() == dst.len()` (callers guarantee it).
    pub(crate) fn ctr_xor(&self, counter: [u8; BLOCK_SIZE], src: &[u8], dst: &mut [u8]) {
        // SAFETY: `try_new` only constructs `AesNi` after runtime detection of
        // the `aes` feature, so the target-feature function below is supported.
        unsafe { self.ctr_xor_impl(counter, src, dst) }
    }

    /// The expanded schedule: `rounds + 1` round keys, whitening key first.
    pub(crate) fn round_keys(&self) -> &[[u8; BLOCK_SIZE]] {
        &self.rk[..=self.rounds]
    }

    /// Encrypts one block (used by tests to pin the hardware rounds against the
    /// scalar core; the production single-block path stays on the T-tables).
    #[cfg(test)]
    pub(crate) fn encrypt_block(&self, block: &[u8; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
        // SAFETY: as in `ctr_xor`, construction proved feature support.
        unsafe { self.encrypt_block_impl(block) }
    }

    /// # Safety
    ///
    /// The CPU must support the `aes` feature ([`AesNi::try_new`] proves it).
    #[target_feature(enable = "aes")]
    unsafe fn ctr_xor_impl(&self, counter: [u8; BLOCK_SIZE], src: &[u8], dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        let total = src.len();
        let mut off = 0usize;
        let mut block_idx = 0u32;
        // Wide path: 8 interleaved lanes per iteration.
        while total - off >= WIDE_LANES * BLOCK_SIZE {
            let mut lanes = [_mm_setzero_si128(); WIDE_LANES];
            for (lane, slot) in lanes.iter_mut().enumerate() {
                let c = counter_add(counter, block_idx.wrapping_add(lane as u32));
                *slot = _mm_loadu_si128(c.as_ptr().cast());
            }
            self.encrypt_lanes(&mut lanes);
            for (lane, ks) in lanes.iter().enumerate() {
                let p = off + lane * BLOCK_SIZE;
                let data = _mm_loadu_si128(src[p..p + BLOCK_SIZE].as_ptr().cast());
                _mm_storeu_si128(
                    dst[p..p + BLOCK_SIZE].as_mut_ptr().cast(),
                    _mm_xor_si128(data, *ks),
                );
            }
            off += WIDE_LANES * BLOCK_SIZE;
            block_idx = block_idx.wrapping_add(WIDE_LANES as u32);
        }
        // Whole-block tail.
        while total - off >= BLOCK_SIZE {
            let c = counter_add(counter, block_idx);
            let mut lanes = [_mm_loadu_si128(c.as_ptr().cast())];
            self.encrypt_lanes(&mut lanes);
            let data = _mm_loadu_si128(src[off..off + BLOCK_SIZE].as_ptr().cast());
            _mm_storeu_si128(
                dst[off..off + BLOCK_SIZE].as_mut_ptr().cast(),
                _mm_xor_si128(data, lanes[0]),
            );
            off += BLOCK_SIZE;
            block_idx = block_idx.wrapping_add(1);
        }
        // Partial final block.
        if off < total {
            let c = counter_add(counter, block_idx);
            let mut lanes = [_mm_loadu_si128(c.as_ptr().cast())];
            self.encrypt_lanes(&mut lanes);
            let mut ks = [0u8; BLOCK_SIZE];
            _mm_storeu_si128(ks.as_mut_ptr().cast(), lanes[0]);
            for (i, (s, d)) in src[off..].iter().zip(dst[off..].iter_mut()).enumerate() {
                *d = s ^ ks[i];
            }
        }
    }

    /// Runs the AES rounds interleaved over `LANES` independent blocks.
    ///
    /// # Safety
    ///
    /// The CPU must support the `aes` feature ([`AesNi::try_new`] proves it).
    #[inline]
    #[target_feature(enable = "aes")]
    unsafe fn encrypt_lanes<const LANES: usize>(&self, lanes: &mut [__m128i; LANES]) {
        let k0 = _mm_loadu_si128(self.rk[0].as_ptr().cast());
        for lane in lanes.iter_mut() {
            *lane = _mm_xor_si128(*lane, k0);
        }
        for rk in &self.rk[1..self.rounds] {
            let k = _mm_loadu_si128(rk.as_ptr().cast());
            for lane in lanes.iter_mut() {
                *lane = _mm_aesenc_si128(*lane, k);
            }
        }
        let klast = _mm_loadu_si128(self.rk[self.rounds].as_ptr().cast());
        for lane in lanes.iter_mut() {
            *lane = _mm_aesenclast_si128(*lane, klast);
        }
    }

    /// # Safety
    ///
    /// The CPU must support the `aes` feature ([`AesNi::try_new`] proves it).
    #[cfg(test)]
    #[target_feature(enable = "aes")]
    unsafe fn encrypt_block_impl(&self, block: &[u8; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
        let mut lanes = [_mm_loadu_si128(block.as_ptr().cast())];
        self.encrypt_lanes(&mut lanes);
        let mut out = [0u8; BLOCK_SIZE];
        _mm_storeu_si128(out.as_mut_ptr().cast(), lanes[0]);
        out
    }
}

impl std::fmt::Debug for AesNi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the round keys.
        f.debug_struct("AesNi")
            .field("rounds", &self.rounds)
            .finish_non_exhaustive()
    }
}

/// The bytes of `values` in memory. `x86_64` is little-endian, so they are exactly
/// the bytes `f32::to_le_bytes` gives, the plaintext of a sealed tensor.
pub(crate) fn f32_bytes(values: &[f32]) -> &[u8] {
    // SAFETY (this function and `f32_bytes_mut`): the view covers exactly the
    // `4 * len` bytes of the slice and borrows it for its lifetime; `u8` has
    // alignment 1, `f32` has no padding, and every bit pattern is a valid `u8`
    // and a valid `f32` (NaN payloads included), so reads and writes through the
    // view are sound.
    unsafe { std::slice::from_raw_parts(values.as_ptr().cast(), std::mem::size_of_val(values)) }
}

/// The mutable sibling of [`f32_bytes`]: a decrypt writes each `f32`'s
/// little-endian bytes in place.
pub(crate) fn f32_bytes_mut(values: &mut [f32]) -> &mut [u8] {
    let len = std::mem::size_of_val(values);
    // SAFETY: as in `f32_bytes`.
    unsafe { std::slice::from_raw_parts_mut(values.as_mut_ptr().cast(), len) }
}

/// One AES-128 key-schedule round: `AESKEYGENASSIST` produces
/// `SubWord(RotWord(w3))` (with the round constant folded in) in every dword;
/// broadcasting dword 3 and XOR-folding the previous key's prefix sums yields the
/// next round key.
///
/// # Safety
///
/// The CPU must support the `aes` feature.
#[inline]
#[target_feature(enable = "aes")]
unsafe fn ks_round_128<const RCON: i32>(prev: __m128i) -> __m128i {
    let assist = _mm_shuffle_epi32(_mm_aeskeygenassist_si128(prev, RCON), 0xff);
    let mut key = prev;
    key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
    key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
    key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
    _mm_xor_si128(key, assist)
}

/// Expands a 128-bit key natively with `AESKEYGENASSIST`.
///
/// # Safety
///
/// The CPU must support the `aes` feature ([`AesNi::try_new`] proves it).
#[target_feature(enable = "aes")]
unsafe fn expand_key_128(key: &[u8; BLOCK_SIZE], rk: &mut [[u8; BLOCK_SIZE]; MAX_ROUND_KEYS]) {
    let mut k = _mm_loadu_si128(key.as_ptr().cast());
    _mm_storeu_si128(rk[0].as_mut_ptr().cast(), k);
    // The FIPS-197 round constants 0x01..0x36 as immediates (required by the
    // intrinsic), one `AESKEYGENASSIST` per round.
    macro_rules! rounds {
        ($($i:literal => $rcon:literal),+ $(,)?) => {
            $(
                k = ks_round_128::<$rcon>(k);
                _mm_storeu_si128(rk[$i].as_mut_ptr().cast(), k);
            )+
        };
    }
    rounds!(
        1 => 0x01, 2 => 0x02, 3 => 0x04, 4 => 0x08, 5 => 0x10,
        6 => 0x20, 7 => 0x40, 8 => 0x80, 9 => 0x1b, 10 => 0x36,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(key: &[u8]) -> Option<(Aes, AesNi)> {
        let aes = Aes::new(key);
        let ni = AesNi::try_new(&aes)?;
        Some((aes, ni))
    }

    /// The native `AESKEYGENASSIST` schedule for 128-bit keys matches the scalar
    /// FIPS-197 expansion exactly (192/256-bit schedules are copied from it, so
    /// they agree by construction).
    #[test]
    fn aeskeygenassist_schedule_matches_fips197_expansion() {
        for key in [[0u8; 16], [0xFFu8; 16], {
            let mut k = [0u8; 16];
            for (i, b) in k.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(0x1f).wrapping_add(3);
            }
            k
        }] {
            let Some((aes, ni)) = engine(&key) else {
                eprintln!("skipping: no AES-NI on this host");
                return;
            };
            assert_eq!(&ni.rk[..=10], aes.round_keys(), "key={key:02x?}");
        }
    }

    /// The hardware rounds agree with the T-table core on single blocks for all
    /// three key sizes (the FIPS-197 vectors are pinned on the scalar core's own
    /// tests; equality here transfers them to the hardware path).
    #[test]
    fn hardware_rounds_match_the_scalar_core() {
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len as u8)
                .map(|i| i.wrapping_mul(7) ^ 0x5a)
                .collect();
            let Some((aes, ni)) = engine(&key) else {
                eprintln!("skipping: no AES-NI on this host");
                return;
            };
            let mut block = [0u8; BLOCK_SIZE];
            for round in 0..64u8 {
                block[0] = round;
                block[7] = round.wrapping_mul(13);
                assert_eq!(
                    ni.encrypt_block(&block),
                    aes.encrypt_block_copy(&block),
                    "key_len={key_len} round={round}"
                );
                block = ni.encrypt_block(&block);
            }
        }
    }

    /// The wide/tail/partial CTR decomposition is byte-identical to a
    /// block-at-a-time walk for every length around the 8-block group boundary.
    #[test]
    fn ctr_xor_handles_every_tail_shape() {
        let Some((aes, ni)) = engine(&[0x42u8; 16]) else {
            eprintln!("skipping: no AES-NI on this host");
            return;
        };
        let counter = {
            let mut c = [9u8; BLOCK_SIZE];
            c[15] = 0xfe; // exercises inc32 carries mid-buffer
            c
        };
        let src: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect();
        for len in (0..=300).chain([1024 - 1, 1024, 1024 + 17]) {
            let mut out = vec![0u8; len];
            ni.ctr_xor(counter, &src[..len], &mut out);
            // Oracle: scalar single-block CTR.
            let mut expected = vec![0u8; len];
            let mut c = counter;
            for (s, d) in src[..len]
                .chunks(BLOCK_SIZE)
                .zip(expected.chunks_mut(BLOCK_SIZE))
            {
                let ks = aes.encrypt_block_copy(&c);
                for (i, (sb, db)) in s.iter().zip(d.iter_mut()).enumerate() {
                    *db = sb ^ ks[i];
                }
                c = counter_add(c, 1);
            }
            assert_eq!(out, expected, "len={len}");
        }
    }

    /// The byte view of `f32`s is their little-endian image, and writing through
    /// the mutable view sets each value's bits, NaN payloads included.
    #[test]
    fn f32_byte_views_are_the_little_endian_image() {
        let mut values = [0.0f32, -0.0, 1.5, f32::NAN, f32::from_bits(0x7fa0_0001)];
        let image: Vec<u8> = values.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(f32_bytes(&values), &image[..]);
        let payload = 0xffc0_1234u32.to_le_bytes();
        f32_bytes_mut(&mut values)[4..8].copy_from_slice(&payload);
        assert_eq!(values[1].to_bits(), 0xffc0_1234);
    }

    #[test]
    fn debug_does_not_leak_round_keys() {
        let Some((_, ni)) = engine(&[0xABu8; 16]) else {
            return;
        };
        let dbg = format!("{ni:?}");
        assert!(dbg.contains("rounds") && dbg.len() < 60, "{dbg}");
    }
}
