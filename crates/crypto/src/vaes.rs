//! VAES + VPCLMULQDQ AES-GCM: the CTR keystream and GHASH of sixteen blocks per
//! pass over four 512-bit registers of four 128-bit lanes each.
//!
//! This is one of the three modules in the crate allowed to contain `unsafe` code
//! (the others are [`crate::aesarch`] and [`crate::clmul`]); everything else stays
//! `#![deny(unsafe_code)]`.
//!
//! # Safety contract
//!
//! * [`VaesGcm::try_new`] returns `Some` only after
//!   [`crate::dispatch::vaes_available`] has *runtime-verified* the `aes`,
//!   `pclmulqdq`, `avx512f`, `avx512bw`, `vaes` and `vpclmulqdq` features, and it
//!   is the only constructor. Every `unsafe` block calls a `#[target_feature]`
//!   function through a safe wrapper on `self`, so the instructions are supported
//!   whenever they execute.
//! * All loads and stores go through unaligned intrinsics against bounds-checked
//!   64-byte subslices (`chunks_exact`); no pointer escapes its slice.
//!
//! # Kernel shape
//!
//! A *group* is 16 blocks (256 bytes). Each 128-bit lane holds one block, in the
//! same representation as [`crate::clmul`]: a block's big-endian `u128` value, so
//! the GHASH state stays the same `u128` on every engine.
//!
//! * **CTR.** The low dword of each counter is kept byte-swapped, so one 32-bit
//!   lane add steps it. The add wraps inside its dword, which is exactly `inc32`;
//!   a byte shuffle turns the counters back into big-endian blocks.
//! * **GHASH.** The running hash is XORed into a group's first block, block `j`
//!   is multiplied by `H^(16-j)` with four carry-less multiplies per lane (no
//!   Karatsuba), and the products of all sixteen are XOR-accumulated and reduced
//!   once with [`crate::clmul`]'s reduction (Gueron & Kounavis's aggregated
//!   reduction).
//!
//! * **Seal.** One pass, stitched: a group is encrypted, stored, and then the same
//!   four registers are hashed. No ciphertext is read back from the output, which
//!   may be memory the host owns.
//!
//! [`crate::gcm`] opens with a GHASH pass, then a CTR pass once the tag has
//! verified, on this engine as on the others. Inputs shorter than a group, and the
//! tail after the last whole group, run on the 128-bit [`AesNi`] and
//! [`ClmulGhash`] kernels this engine holds; the seal's tail goes through a stack
//! block ([`seal_through_stack`]), like the other engines' seals.
#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, __m512i, _mm256_castsi256_si128, _mm256_extracti128_si256, _mm256_xor_si256,
    _mm512_add_epi32, _mm512_aesenc_epi128, _mm512_aesenclast_epi128, _mm512_broadcast_i32x4,
    _mm512_bslli_epi128, _mm512_bsrli_epi128, _mm512_castsi512_si256, _mm512_clmulepi64_epi128,
    _mm512_extracti64x4_epi64, _mm512_loadu_si512, _mm512_set_epi32, _mm512_setzero_si512,
    _mm512_shuffle_epi8, _mm512_storeu_si512, _mm512_xor_si512, _mm512_zextsi128_si512,
    _mm_loadu_si128, _mm_set_epi8, _mm_xor_si128,
};

use crate::aes::{Aes, BLOCK_SIZE};
use crate::aesarch::{AesNi, MAX_ROUND_KEYS};
use crate::clmul::{load, reduce, store, ClmulGhash};
use crate::dispatch::vaes_available;
use crate::gcm::{counter_add, seal_through_stack};

/// Blocks per group: four registers of four lanes.
const GROUP_BLOCKS: usize = 16;

/// Bytes per group.
const GROUP: usize = GROUP_BLOCKS * BLOCK_SIZE;

/// Bytes per 512-bit register.
const VEC: usize = 4 * BLOCK_SIZE;

/// The vector engine: the 128-bit kernels for short inputs and tails, plus the
/// sixteen hash-subkey powers the group multiply needs.
#[derive(Clone, Copy)]
pub(crate) struct VaesGcm {
    aes: AesNi,
    ghash: ClmulGhash,
    /// `h_powers[i]` holds `H^(16-i)`, so lane `l` of register `r` loads the power
    /// block `4r + l` of a group is multiplied by.
    h_powers: [u128; GROUP_BLOCKS],
}

impl VaesGcm {
    /// Builds the vector engine for an expanded key and `H^1..H^4`, or `None` when
    /// the CPU lacks any of its features. This is the *only* constructor, which is
    /// what makes the safe wrappers below sound.
    pub(crate) fn try_new(cipher: &Aes, h_powers: [u128; 4]) -> Option<Self> {
        if !vaes_available() {
            return None;
        }
        let aes = AesNi::try_new(cipher)?;
        let ghash = ClmulGhash::try_new(h_powers)?;
        let mut powers = [0u128; GROUP_BLOCKS];
        powers[GROUP_BLOCKS - 4..].copy_from_slice(&[
            h_powers[3],
            h_powers[2],
            h_powers[1],
            h_powers[0],
        ]);
        for i in (0..GROUP_BLOCKS - 4).rev() {
            // H^(16-i) = (H^(15-i) ⊕ 0) · H.
            let mut y = powers[i + 1];
            ghash.ghash_block(&mut y, &[0u8; BLOCK_SIZE]);
            powers[i] = y;
        }
        Some(VaesGcm {
            aes,
            ghash,
            h_powers: powers,
        })
    }

    /// The 128-bit PCLMUL GHASH, for single blocks such as the length block.
    pub(crate) fn ghash(&self) -> &ClmulGhash {
        &self.ghash
    }

    /// Applies the CTR keystream starting at `counter` to `src`, writing into
    /// `dst`. Bit-identical to the scalar `ctr_xor_into` for every input.
    ///
    /// # Panics
    ///
    /// If `src.len() != dst.len()` (callers guarantee it).
    pub(crate) fn ctr_xor(&self, counter: [u8; BLOCK_SIZE], src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "CTR buffers must match");
        let wide = src.len() / GROUP * GROUP;
        if wide > 0 {
            // SAFETY: `try_new` only constructs `VaesGcm` after runtime detection
            // of every feature the kernel enables.
            unsafe { self.ctr_groups(counter, &src[..wide], &mut dst[..wide]) };
        }
        let tail_counter = counter_add(counter, (wide / BLOCK_SIZE) as u32);
        self.aes
            .ctr_xor(tail_counter, &src[wide..], &mut dst[wide..]);
    }

    /// Absorbs arbitrary-length data with zero-padding of the final partial
    /// block. Bit-identical to the scalar `ghash_padded`.
    pub(crate) fn ghash_padded(&self, y: &mut u128, data: &[u8]) {
        let wide = data.len() / GROUP * GROUP;
        if wide > 0 {
            // SAFETY: as in `ctr_xor`, construction proved feature support.
            unsafe { self.ghash_groups(y, &data[..wide]) };
        }
        self.ghash.ghash_padded(y, &data[wide..]);
    }

    /// The stitched seal: CTR-encrypts `src` from `counter` into `dst` and absorbs
    /// the ciphertext into `y`, hashing every block before it is stored. The
    /// result equals [`VaesGcm::ctr_xor`] followed by [`VaesGcm::ghash_padded`]
    /// over `dst`, which this never reads.
    ///
    /// # Panics
    ///
    /// If `src.len() != dst.len()` (callers guarantee it).
    pub(crate) fn seal(&self, counter: [u8; BLOCK_SIZE], src: &[u8], dst: &mut [u8], y: &mut u128) {
        assert_eq!(src.len(), dst.len(), "CTR buffers must match");
        let wide = src.len() / GROUP * GROUP;
        if wide > 0 {
            // SAFETY: as in `ctr_xor`, construction proved feature support.
            unsafe { self.seal_groups(counter, &src[..wide], &mut dst[..wide], y) };
        }
        let tail = &src[wide..];
        let tail_counter = counter_add(counter, (wide / BLOCK_SIZE) as u32);
        seal_through_stack(
            tail_counter,
            &mut dst[wide..],
            y,
            |c, off, block| self.aes.ctr_xor(c, &tail[off..off + block.len()], block),
            |y, block| self.ghash.ghash_padded(y, block),
        );
    }

    /// CTR over the whole groups of `src`; [`VaesGcm::ctr_xor`] runs the tail.
    ///
    /// # Safety
    ///
    /// The CPU must support every feature enabled below ([`VaesGcm::try_new`]
    /// proves it).
    #[target_feature(enable = "aes,avx512f,avx512bw,vaes")]
    unsafe fn ctr_groups(&self, counter: [u8; BLOCK_SIZE], src: &[u8], dst: &mut [u8]) {
        let keys = RoundKeys::load(&self.aes);
        let mut counters = Counters::new(counter);
        for (s, d) in src.chunks_exact(GROUP).zip(dst.chunks_exact_mut(GROUP)) {
            let mut blocks = counters.next_group();
            keys.encrypt(&mut blocks);
            for ((sv, dv), ks) in s
                .chunks_exact(VEC)
                .zip(d.chunks_exact_mut(VEC))
                .zip(&blocks)
            {
                let pt = _mm512_xor_si512(_mm512_loadu_si512(sv.as_ptr().cast()), *ks);
                _mm512_storeu_si512(dv.as_mut_ptr().cast(), pt);
            }
        }
    }

    /// GHASH over the whole groups of `data`; [`VaesGcm::ghash_padded`] runs the
    /// tail.
    ///
    /// # Safety
    ///
    /// As [`VaesGcm::ctr_groups`].
    #[target_feature(enable = "pclmulqdq,avx512f,avx512bw,vpclmulqdq")]
    unsafe fn ghash_groups(&self, y: &mut u128, data: &[u8]) {
        let powers = self.power_registers();
        let swap = byte_reverse();
        let mut acc = load(*y);
        for group in data.chunks_exact(GROUP) {
            let mut blocks = [_mm512_setzero_si512(); 4];
            for (v, b) in group.chunks_exact(VEC).zip(&mut blocks) {
                *b = _mm512_loadu_si512(v.as_ptr().cast());
            }
            acc = ghash_group(&powers, swap, acc, blocks);
        }
        *y = store(acc);
    }

    /// The stitched seal over the whole groups of `src`; [`VaesGcm::seal`] runs
    /// the tail. Each group is encrypted and stored, then its four ciphertext
    /// registers are hashed as they are.
    ///
    /// # Safety
    ///
    /// The CPU must support every feature enabled below ([`VaesGcm::try_new`]
    /// proves it).
    #[target_feature(enable = "aes,pclmulqdq,avx512f,avx512bw,vaes,vpclmulqdq")]
    unsafe fn seal_groups(
        &self,
        counter: [u8; BLOCK_SIZE],
        src: &[u8],
        dst: &mut [u8],
        y: &mut u128,
    ) {
        let keys = RoundKeys::load(&self.aes);
        let powers = self.power_registers();
        let swap = byte_reverse();
        let mut counters = Counters::new(counter);
        let mut acc = load(*y);
        for (s, d) in src.chunks_exact(GROUP).zip(dst.chunks_exact_mut(GROUP)) {
            let mut blocks = counters.next_group();
            keys.encrypt(&mut blocks);
            for ((sv, dv), b) in s
                .chunks_exact(VEC)
                .zip(d.chunks_exact_mut(VEC))
                .zip(&mut blocks)
            {
                *b = _mm512_xor_si512(_mm512_loadu_si512(sv.as_ptr().cast()), *b);
                _mm512_storeu_si512(dv.as_mut_ptr().cast(), *b);
            }
            acc = ghash_group(&powers, swap, acc, blocks);
        }
        *y = store(acc);
    }

    /// `H^16..H^1` in four registers, in the lane order of a group's blocks.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx512f`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn power_registers(&self) -> [__m512i; 4] {
        let mut powers = [_mm512_setzero_si512(); 4];
        for (reg, four) in powers.iter_mut().zip(self.h_powers.chunks_exact(4)) {
            *reg = _mm512_loadu_si512(four.as_ptr().cast());
        }
        powers
    }
}

/// Absorbs one group, its sixteen blocks as loaded from memory in `blocks`, into
/// the running hash `acc`: the blocks are byte-swapped to their big-endian values,
/// the hash joins the first one, block `j` is multiplied by `H^(16-j)`, and the
/// products are reduced once.
///
/// # Safety
///
/// The CPU must support `pclmulqdq`, `avx512f`, `avx512bw` and `vpclmulqdq`.
#[inline]
#[target_feature(enable = "pclmulqdq,avx512f,avx512bw,vpclmulqdq")]
unsafe fn ghash_group(
    powers: &[__m512i; 4],
    swap: __m512i,
    acc: __m128i,
    mut blocks: [__m512i; 4],
) -> __m128i {
    for b in &mut blocks {
        *b = _mm512_shuffle_epi8(*b, swap);
    }
    let mut lo = _mm512_setzero_si512();
    let mut mid = _mm512_setzero_si512();
    let mut hi = _mm512_setzero_si512();
    // (Y ⊕ B0)·H^16: the hash joins the group's first block, whose register is
    // multiplied last so only it waits on the previous group.
    blocks[0] = _mm512_xor_si512(blocks[0], _mm512_zextsi128_si512(acc));
    for (&b, p) in blocks.iter().zip(powers).rev() {
        lo = _mm512_xor_si512(lo, _mm512_clmulepi64_epi128(b, *p, 0x00));
        hi = _mm512_xor_si512(hi, _mm512_clmulepi64_epi128(b, *p, 0x11));
        mid = _mm512_xor_si512(
            mid,
            _mm512_xor_si512(
                _mm512_clmulepi64_epi128(b, *p, 0x01),
                _mm512_clmulepi64_epi128(b, *p, 0x10),
            ),
        );
    }
    let lo = fold_lanes(_mm512_xor_si512(lo, _mm512_bslli_epi128(mid, 8)));
    let hi = fold_lanes(_mm512_xor_si512(hi, _mm512_bsrli_epi128(mid, 8)));
    reduce(lo, hi)
}

impl std::fmt::Debug for VaesGcm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the round keys or the subkey powers.
        f.debug_struct("VaesGcm").finish_non_exhaustive()
    }
}

/// The key schedule with every round key broadcast to all four lanes.
struct RoundKeys {
    rk: [__m512i; MAX_ROUND_KEYS],
    rounds: usize,
}

impl RoundKeys {
    /// # Safety
    ///
    /// The CPU must support `avx512f`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load(aes: &AesNi) -> Self {
        let keys = aes.round_keys();
        let mut rk = [_mm512_setzero_si512(); MAX_ROUND_KEYS];
        for (slot, key) in rk.iter_mut().zip(keys) {
            *slot = _mm512_broadcast_i32x4(_mm_loadu_si128(key.as_ptr().cast()));
        }
        RoundKeys {
            rk,
            rounds: keys.len() - 1,
        }
    }

    /// Encrypts the sixteen blocks of `blocks` in place, the rounds interleaved
    /// across the four registers.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx512f` and `vaes`.
    #[inline]
    #[target_feature(enable = "avx512f,vaes")]
    unsafe fn encrypt(&self, blocks: &mut [__m512i; 4]) {
        for b in blocks.iter_mut() {
            *b = _mm512_xor_si512(*b, self.rk[0]);
        }
        for k in &self.rk[1..self.rounds] {
            for b in blocks.iter_mut() {
                *b = _mm512_aesenc_epi128(*b, *k);
            }
        }
        let last = self.rk[self.rounds];
        for b in blocks.iter_mut() {
            *b = _mm512_aesenclast_epi128(*b, last);
        }
    }
}

/// Sixteen consecutive counter blocks per call, `inc32` semantics.
struct Counters {
    /// Lanes hold the next four counters with their low dword byte-swapped.
    next: __m512i,
    /// Swaps the low dword's bytes; its own inverse.
    swap: __m512i,
    /// Adds four to each lane's counter.
    step: __m512i,
}

impl Counters {
    /// # Safety
    ///
    /// The CPU must support `avx512f` and `avx512bw`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn new(counter: [u8; BLOCK_SIZE]) -> Self {
        let swap = _mm512_broadcast_i32x4(_mm_set_epi8(
            12, 13, 14, 15, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0,
        ));
        let base = _mm512_shuffle_epi8(
            _mm512_broadcast_i32x4(_mm_loadu_si128(counter.as_ptr().cast())),
            swap,
        );
        // Lane `l` starts at `counter + l`; dword 3 of each lane is the counter.
        let lanes = _mm512_set_epi32(3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0);
        Counters {
            next: _mm512_add_epi32(base, lanes),
            swap,
            step: _mm512_set_epi32(4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0),
        }
    }

    /// The next sixteen counter blocks, big-endian, in four registers.
    ///
    /// # Safety
    ///
    /// As [`Counters::new`].
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn next_group(&mut self) -> [__m512i; 4] {
        let mut out = [_mm512_setzero_si512(); 4];
        for slot in &mut out {
            *slot = _mm512_shuffle_epi8(self.next, self.swap);
            self.next = _mm512_add_epi32(self.next, self.step);
        }
        out
    }
}

/// The per-lane shuffle that turns a block's bytes into its big-endian value.
///
/// # Safety
///
/// The CPU must support `avx512f`.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn byte_reverse() -> __m512i {
    _mm512_broadcast_i32x4(_mm_set_epi8(
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    ))
}

/// XOR of the four 128-bit lanes of `v`.
///
/// # Safety
///
/// The CPU must support `avx512f`.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn fold_lanes(v: __m512i) -> __m128i {
    let half = _mm256_xor_si256(_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64(v, 1));
    _mm_xor_si128(
        _mm256_castsi256_si128(half),
        _mm256_extracti128_si256(half, 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gcm::gf_mult;

    /// The vector engine with its AES core, or `None` on hosts without it.
    fn engine(key: &[u8]) -> Option<(Aes, VaesGcm)> {
        let aes = Aes::new(key);
        let h = u128::from_be_bytes(aes.encrypt_block_copy(&[0u8; BLOCK_SIZE]));
        let mut powers = [h; 4];
        for i in 1..4 {
            powers[i] = gf_mult(powers[i - 1], h);
        }
        let vaes = VaesGcm::try_new(&aes, powers)?;
        Some((aes, vaes))
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    /// Oracle: block-at-a-time CTR on the scalar T-table core.
    fn scalar_ctr(aes: &Aes, mut counter: [u8; BLOCK_SIZE], src: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; src.len()];
        for (s, d) in src.chunks(BLOCK_SIZE).zip(out.chunks_mut(BLOCK_SIZE)) {
            let ks = aes.encrypt_block_copy(&counter);
            for (i, (sb, db)) in s.iter().zip(d.iter_mut()).enumerate() {
                *db = sb ^ ks[i];
            }
            counter = counter_add(counter, 1);
        }
        out
    }

    /// A counter whose low dword sits at `0xffff_fff0` wraps to zero sixteen
    /// blocks in, inside a group, and the wrap never carries into the IV bytes:
    /// the vector CTR matches the scalar core across every lane and group
    /// boundary around it.
    #[test]
    fn ctr_wraps_inside_the_low_dword_across_lanes_and_groups() {
        let Some((aes, vaes)) = engine(&[0x42u8; 16]) else {
            eprintln!("skipping: no VAES/VPCLMULQDQ on this host");
            return;
        };
        let mut counter = [0xffu8; BLOCK_SIZE];
        counter[12..].copy_from_slice(&0xffff_fff0u32.to_be_bytes());
        let src = pattern(4 * GROUP + 40);
        for len in (0..=src.len())
            .step_by(7)
            .chain([GROUP, 2 * GROUP, 2 * GROUP + 16])
        {
            let mut out = vec![0u8; len];
            vaes.ctr_xor(counter, &src[..len], &mut out);
            assert_eq!(out, scalar_ctr(&aes, counter, &src[..len]), "len={len}");
        }
        // And from a counter that wraps in the middle of a lane register.
        counter[12..].copy_from_slice(&0xffff_fffeu32.to_be_bytes());
        let mut out = vec![0u8; 2 * GROUP];
        vaes.ctr_xor(counter, &src[..2 * GROUP], &mut out);
        assert_eq!(out, scalar_ctr(&aes, counter, &src[..2 * GROUP]));
    }

    /// The wide CTR and GHASH passes, in seal order (CTR, then GHASH over the
    /// ciphertext), equal the 128-bit CTR followed by the 128-bit GHASH (each
    /// pinned to the scalar core by its own module's tests) at every length up to
    /// 1100 bytes and around a 64 KiB chunk.
    #[test]
    fn wide_ctr_then_ghash_matches_the_128_bit_kernels() {
        let Some((_, vaes)) = engine(&[0x17u8; 16]) else {
            eprintln!("skipping: no VAES/VPCLMULQDQ on this host");
            return;
        };
        let mut counter = [0x3cu8; BLOCK_SIZE];
        counter[12..].copy_from_slice(&0xffff_ff80u32.to_be_bytes());
        let src = pattern(64 * 1024 + 17);
        let y0 = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128;
        let lens = (0..=1100).chain([64 * 1024 - 17, 64 * 1024, 64 * 1024 + 17]);
        for len in lens {
            let mut sealed = vec![0u8; len];
            vaes.ctr_xor(counter, &src[..len], &mut sealed);
            let mut y = y0;
            vaes.ghash_padded(&mut y, &sealed);

            let mut expected = vec![0u8; len];
            vaes.aes.ctr_xor(counter, &src[..len], &mut expected);
            let mut y_expected = y0;
            vaes.ghash.ghash_padded(&mut y_expected, &expected);
            assert_eq!(sealed, expected, "ciphertext len={len}");
            assert_eq!(y, y_expected, "hash len={len}");
        }
    }

    /// The stitched seal writes the ciphertext and absorbs the hash of the two-pass
    /// seal (wide CTR, then wide GHASH over the output) at every length up to 1100
    /// bytes and around 64 KiB, from a counter that wraps its low dword, and
    /// never reads its output: the bytes it starts with do not change the hash.
    #[test]
    fn stitched_seal_matches_ctr_then_ghash() {
        let Some((_, vaes)) = engine(&[0x29u8; 16]) else {
            eprintln!("skipping: no VAES/VPCLMULQDQ on this host");
            return;
        };
        let mut counter = [0x71u8; BLOCK_SIZE];
        counter[12..].copy_from_slice(&0xffff_ffa0u32.to_be_bytes());
        let src = pattern(64 * 1024 + 17);
        let y0 = 0x0f1e_2d3c_4b5a_6978_8796_a5b4_c3d2_e1f0u128;
        let lens = (0..=1100).chain([64 * 1024 - 17, 64 * 1024, 64 * 1024 + 17]);
        for len in lens {
            let mut two_pass = vec![0u8; len];
            vaes.ctr_xor(counter, &src[..len], &mut two_pass);
            let mut y_two_pass = y0;
            vaes.ghash_padded(&mut y_two_pass, &two_pass);

            let mut stitched = vec![0x5Au8; len];
            let mut y = y0;
            vaes.seal(counter, &src[..len], &mut stitched, &mut y);
            assert_eq!(stitched, two_pass, "ciphertext len={len}");
            assert_eq!(y, y_two_pass, "hash len={len}");
        }
    }

    /// AES-128, -192 and -256 (10, 12 and 14 rounds) all agree with the scalar
    /// core and the bit-serial GHASH through the vector kernels.
    #[test]
    fn every_key_schedule_matches_the_scalar_core() {
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len as u8)
                .map(|i| i.wrapping_mul(29) ^ 0xa5)
                .collect();
            let Some((aes, vaes)) = engine(&key) else {
                eprintln!("skipping: no VAES/VPCLMULQDQ on this host");
                return;
            };
            assert_eq!(aes.rounds(), [10, 12, 14][key_len / 8 - 2]);
            let counter = [0x5au8; BLOCK_SIZE];
            let src = pattern(3 * GROUP + 17);
            let mut out = vec![0u8; src.len()];
            vaes.ctr_xor(counter, &src, &mut out);
            let mut y = 0u128;
            vaes.ghash_padded(&mut y, &out);
            assert_eq!(out, scalar_ctr(&aes, counter, &src), "key_len={key_len}");
            let (mut sealed, mut y_sealed) = (vec![0u8; src.len()], 0u128);
            vaes.seal(counter, &src, &mut sealed, &mut y_sealed);
            assert_eq!((sealed, y_sealed), (out.clone(), y), "key_len={key_len}");
            let h = u128::from_be_bytes(aes.encrypt_block_copy(&[0u8; BLOCK_SIZE]));
            let mut slow = 0u128;
            for chunk in out.chunks(BLOCK_SIZE) {
                let mut block = [0u8; BLOCK_SIZE];
                block[..chunk.len()].copy_from_slice(chunk);
                slow = gf_mult(slow ^ u128::from_be_bytes(block), h);
            }
            assert_eq!(y, slow, "key_len={key_len}");
        }
    }

    #[test]
    fn debug_does_not_leak_keys_or_powers() {
        let Some((_, vaes)) = engine(&[0xABu8; 16]) else {
            return;
        };
        let dbg = format!("{vaes:?}");
        assert!(dbg.contains("VaesGcm") && dbg.len() < 40, "{dbg}");
    }
}
