//! Carry-less-multiply GHASH: GF(2^128) multiplication on `PCLMULQDQ` with
//! Karatsuba products and a two-phase polynomial reduction, aggregated four
//! blocks at a time exactly like the scalar Shoup engine.
//!
//! This is one of the three modules in the crate allowed to contain `unsafe` code
//! (the others are [`crate::aesarch`] and [`crate::vaes`], which reuses this
//! module's register moves and reduction); everything else stays
//! `#![deny(unsafe_code)]`.
//!
//! # Safety contract
//!
//! * [`ClmulGhash::try_new`] returns `Some` only after
//!   [`crate::dispatch::hw_available`] has *runtime-verified* that the CPU
//!   reports the `pclmulqdq` feature. Every `unsafe` block calls a
//!   `#[target_feature(enable = "pclmulqdq")]` function through a safe wrapper
//!   on `self`, so the instructions are provably supported whenever they run.
//! * The kernels only read from slices through bounds-checked subslices and
//!   write nothing but the caller's `u128` accumulator.
//!
//! # Representation and algorithm
//!
//! Field elements use the same *reflected* convention as the scalar engine: a
//! block's big-endian `u128` value holds the coefficient of `x^i` at bit
//! `127 - i`. For two such values, the raw 255-bit carry-less product (four
//! `PCLMULQDQ` halves, computed here as a 3-multiply Karatsuba) is the
//! *bit-reversed* polynomial product, so shifting the 256-bit result left by one
//! recovers the product in the reflected convention: the high 128 bits are the
//! low-degree half `c_0..c_127` and the low 128 bits the high-degree half
//! `c_128..c_254`. The high half is folded back with `x^128 ≡ x^7+x^2+x+1
//! (mod p)` — two more carry-less multiplies by the reflected reduction
//! polynomial `R = 0xe1 << 120` (degree ≤ 133 after the first fold, < 128 after
//! the second), mirroring the classic two-phase PCLMUL reduction.
//!
//! Four-block aggregation uses the same identity as the Shoup tables
//! (`(Y⊕C0)·H⁴ ⊕ C1·H³ ⊕ C2·H² ⊕ C3·H`): the four raw 256-bit products are
//! XOR-accumulated and reduced **once**, so a 64-byte group costs 12 Karatsuba
//! multiplies plus a single 4-multiply reduction.
#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_clmulepi64_si128, _mm_or_si128, _mm_set_epi64x, _mm_setzero_si128, _mm_slli_epi64,
    _mm_slli_si128, _mm_srli_epi64, _mm_srli_si128, _mm_storeu_si128, _mm_xor_si128,
};

use crate::aes::BLOCK_SIZE;
use crate::dispatch::hw_available;

/// The PCLMUL GHASH engine: the hash subkey powers `H^1..H^4` in the reflected
/// representation, precomputed at key-schedule time (same aggregation depth as
/// the scalar engine's four Shoup tables, 64 bytes instead of 16 KiB).
#[derive(Clone, Copy)]
pub(crate) struct ClmulGhash {
    /// `h_powers[i]` holds `H^(i+1)`.
    h_powers: [u128; 4],
}

impl ClmulGhash {
    /// Builds the hardware GHASH for the given subkey powers, or `None` when the
    /// CPU does not support it. This is the *only* constructor, which is what
    /// makes the safe wrappers below sound.
    pub(crate) fn try_new(h_powers: [u128; 4]) -> Option<Self> {
        if !hw_available() {
            return None;
        }
        Some(ClmulGhash { h_powers })
    }

    /// One GHASH block step: `y = (y ^ block) · H`. Bit-identical to the scalar
    /// and bit-serial kernels.
    pub(crate) fn ghash_block(&self, y: &mut u128, block: &[u8; BLOCK_SIZE]) {
        // SAFETY: `try_new` only constructs `ClmulGhash` after runtime detection
        // of the `pclmulqdq` feature.
        unsafe { self.ghash_block_impl(y, block) }
    }

    /// Absorbs arbitrary-length data with zero-padding of the final partial
    /// block, 4-block aggregated. Bit-identical to the scalar `ghash_padded`.
    pub(crate) fn ghash_padded(&self, y: &mut u128, data: &[u8]) {
        // SAFETY: as in `ghash_block`, construction proved feature support.
        unsafe { self.ghash_padded_impl(y, data) }
    }

    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` ([`ClmulGhash::try_new`] proves it).
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn ghash_block_impl(&self, y: &mut u128, block: &[u8; BLOCK_SIZE]) {
        let x = load(*y ^ u128::from_be_bytes(*block));
        let h = load(self.h_powers[0]);
        let mut lo = _mm_setzero_si128();
        let mut hi = _mm_setzero_si128();
        karatsuba_acc(x, h, &mut lo, &mut hi);
        *y = store(reduce(lo, hi));
    }

    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` ([`ClmulGhash::try_new`] proves it).
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn ghash_padded_impl(&self, y: &mut u128, data: &[u8]) {
        let h1 = load(self.h_powers[0]);
        let h2 = load(self.h_powers[1]);
        let h3 = load(self.h_powers[2]);
        let h4 = load(self.h_powers[3]);
        let mut quads = data.chunks_exact(4 * BLOCK_SIZE);
        for quad in &mut quads {
            let b0 = load(u128::from_be_bytes(quad[0..16].try_into().expect("16 bytes")) ^ *y);
            let b1 = load(u128::from_be_bytes(
                quad[16..32].try_into().expect("16 bytes"),
            ));
            let b2 = load(u128::from_be_bytes(
                quad[32..48].try_into().expect("16 bytes"),
            ));
            let b3 = load(u128::from_be_bytes(
                quad[48..64].try_into().expect("16 bytes"),
            ));
            let mut lo = _mm_setzero_si128();
            let mut hi = _mm_setzero_si128();
            karatsuba_acc(b0, h4, &mut lo, &mut hi);
            karatsuba_acc(b1, h3, &mut lo, &mut hi);
            karatsuba_acc(b2, h2, &mut lo, &mut hi);
            karatsuba_acc(b3, h1, &mut lo, &mut hi);
            *y = store(reduce(lo, hi));
        }
        let mut blocks = quads.remainder().chunks_exact(BLOCK_SIZE);
        for chunk in &mut blocks {
            self.ghash_block_impl(y, &chunk.try_into().expect("16 bytes"));
        }
        let rem = blocks.remainder();
        if !rem.is_empty() {
            let mut block = [0u8; BLOCK_SIZE];
            block[..rem.len()].copy_from_slice(rem);
            self.ghash_block_impl(y, &block);
        }
    }
}

impl std::fmt::Debug for ClmulGhash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the subkey powers (H is sufficient for tag forgery).
        f.debug_struct("ClmulGhash").finish_non_exhaustive()
    }
}

/// Loads a `u128` into a register (low 64 bits in the low lane, i.e. the
/// register *is* the integer).
///
/// # Safety
///
/// The CPU must support `pclmulqdq` (every caller runs behind a constructor that
/// checked it).
#[inline]
#[target_feature(enable = "pclmulqdq")]
pub(crate) unsafe fn load(x: u128) -> __m128i {
    _mm_set_epi64x((x >> 64) as i64, x as i64)
}

/// Inverse of [`load`].
///
/// # Safety
///
/// The CPU must support `pclmulqdq` (every caller runs behind a constructor that
/// checked it).
#[inline]
#[target_feature(enable = "pclmulqdq")]
pub(crate) unsafe fn store(v: __m128i) -> u128 {
    let mut bytes = [0u8; BLOCK_SIZE];
    _mm_storeu_si128(bytes.as_mut_ptr().cast(), v);
    u128::from_le_bytes(bytes)
}

/// 128-bit logical shift left by one across the lane boundary.
#[inline]
#[target_feature(enable = "pclmulqdq")]
unsafe fn shl1(v: __m128i) -> __m128i {
    _mm_or_si128(
        _mm_slli_epi64(v, 1),
        _mm_slli_si128(_mm_srli_epi64(v, 63), 8),
    )
}

/// The most significant bit of `v` moved to bit 0 (`v >> 127`).
#[inline]
#[target_feature(enable = "pclmulqdq")]
unsafe fn msb(v: __m128i) -> __m128i {
    _mm_srli_si128(_mm_srli_epi64(v, 63), 8)
}

/// XOR-accumulates the raw 255-bit carry-less product `a ⊗ b` into the 256-bit
/// accumulator `(acc_hi, acc_lo)`, using the 3-multiply Karatsuba decomposition
/// `(a_hi·b_hi)·2^128 ⊕ ((a_hi⊕a_lo)·(b_hi⊕b_lo) ⊕ a_hi·b_hi ⊕ a_lo·b_lo)·2^64
/// ⊕ a_lo·b_lo`.
#[inline]
#[target_feature(enable = "pclmulqdq")]
unsafe fn karatsuba_acc(a: __m128i, b: __m128i, acc_lo: &mut __m128i, acc_hi: &mut __m128i) {
    let lo = _mm_clmulepi64_si128(a, b, 0x00);
    let hi = _mm_clmulepi64_si128(a, b, 0x11);
    let a_fold = _mm_xor_si128(a, _mm_srli_si128(a, 8));
    let b_fold = _mm_xor_si128(b, _mm_srli_si128(b, 8));
    let mid = _mm_xor_si128(
        _mm_xor_si128(_mm_clmulepi64_si128(a_fold, b_fold, 0x00), lo),
        hi,
    );
    *acc_lo = _mm_xor_si128(*acc_lo, _mm_xor_si128(lo, _mm_slli_si128(mid, 8)));
    *acc_hi = _mm_xor_si128(*acc_hi, _mm_xor_si128(hi, _mm_srli_si128(mid, 8)));
}

/// The reflected reduction polynomial `x^7 + x^2 + x + 1` (the fold image of
/// `x^128`), i.e. the scalar engine's `R = 0xe1 << 120`: only the high qword is
/// nonzero, so each fold costs two `PCLMULQDQ`s against it.
#[inline]
#[target_feature(enable = "pclmulqdq")]
unsafe fn poly_r() -> __m128i {
    _mm_set_epi64x(0xe100_0000_0000_0000u64 as i64, 0)
}

/// Reduces the accumulated raw 256-bit product to a 128-bit field element.
///
/// Shifting `(hi:lo)` left by one turns the raw product into the reflected
/// representation: `L` (the new high half) holds degrees 0..127 and `Hg` (the
/// new low half) degrees 128..254 as an element. `Hg` is folded back twice via
/// `x^128 ≡ x^7+x^2+x+1`, each fold a raw carry-less multiply by [`poly_r`]
/// followed by the same shift-and-split.
///
/// # Safety
///
/// The CPU must support `pclmulqdq` (every caller runs behind a constructor that
/// checked it).
#[inline]
#[target_feature(enable = "pclmulqdq")]
pub(crate) unsafe fn reduce(lo: __m128i, hi: __m128i) -> __m128i {
    let r = poly_r();
    let l = _mm_or_si128(shl1(hi), msb(lo));
    let mut hg = shl1(lo);
    let mut acc = l;
    // Two fold phases: degree ≤ 126 → ≤ 133-128 = 5 → ≤ 12-128 < 0 (done).
    for _ in 0..2 {
        let t_mid = _mm_clmulepi64_si128(hg, r, 0x10);
        let t_hi = _mm_clmulepi64_si128(hg, r, 0x11);
        let p_lo = _mm_slli_si128(t_mid, 8);
        let p_hi = _mm_xor_si128(t_hi, _mm_srli_si128(t_mid, 8));
        acc = _mm_xor_si128(acc, _mm_or_si128(shl1(p_hi), msb(p_lo)));
        hg = shl1(p_lo);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gcm::gf_mult;

    /// Multiplies two elements through the full Karatsuba + reduction pipeline.
    fn hw_mul(g: &ClmulGhash, x: u128) -> u128 {
        let mut y = 0u128;
        g.ghash_block(&mut y, &x.to_be_bytes());
        y
    }

    /// The PCLMUL multiply agrees with the bit-serial reference on structured and
    /// pseudo-random operand pairs, including the boundary elements.
    #[test]
    fn clmul_matches_bit_serial_reference() {
        let mut x: u128 = 0x0123_4567_89ab_cdef_0011_2233_4455_6677;
        let mut h: u128 = 0xdead_beef_cafe_f00d_1234_5678_9abc_def0;
        for round in 0..128 {
            let Some(g) = ClmulGhash::try_new([h, 0, 0, 0]) else {
                eprintln!("skipping: no PCLMULQDQ on this host");
                return;
            };
            assert_eq!(
                hw_mul(&g, x),
                gf_mult(x, h),
                "round={round} x={x:x} h={h:x}"
            );
            assert_eq!(hw_mul(&g, 0), 0, "round={round}");
            assert_eq!(hw_mul(&g, 1), gf_mult(1, h), "round={round}");
            assert_eq!(hw_mul(&g, 1 << 127), gf_mult(1 << 127, h), "round={round}");
            assert_eq!(
                hw_mul(&g, u128::MAX),
                gf_mult(u128::MAX, h),
                "round={round}"
            );
            x = x.rotate_left(13) ^ h;
            h = h.rotate_right(5).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        }
    }

    /// 4-block aggregated absorption is bit-identical to the serial chain for
    /// every length around the 64-byte group boundary.
    #[test]
    fn aggregated_ghash_matches_the_serial_chain() {
        let h: u128 = 0x66e9_4bd4_ef8a_2c3b_884c_fa59_ca34_2b2e;
        let mut powers = [h; 4];
        for i in 1..4 {
            powers[i] = gf_mult(powers[i - 1], h);
        }
        let Some(g) = ClmulGhash::try_new(powers) else {
            eprintln!("skipping: no PCLMULQDQ on this host");
            return;
        };
        let data: Vec<u8> = (0..400u32)
            .map(|i| (i.wrapping_mul(97) >> 2) as u8)
            .collect();
        for len in (0..=160).chain([255, 256, 257, 319, 320, 321, 400]) {
            let mut fast = 0x1111_2222_3333_4444_5555_6666_7777_8888u128;
            let mut slow = fast;
            g.ghash_padded(&mut fast, &data[..len]);
            // Oracle: bit-serial block-by-block absorption with zero padding.
            for chunk in data[..len].chunks(BLOCK_SIZE) {
                let mut block = [0u8; BLOCK_SIZE];
                block[..chunk.len()].copy_from_slice(chunk);
                slow = gf_mult(slow ^ u128::from_be_bytes(block), h);
            }
            assert_eq!(fast, slow, "len={len}");
        }
    }

    #[test]
    fn debug_does_not_leak_subkey_powers() {
        let Some(g) = ClmulGhash::try_new([0xdead_beef, 1, 2, 3]) else {
            return;
        };
        let dbg = format!("{g:?}");
        assert!(dbg.contains("ClmulGhash") && dbg.len() < 40, "{dbg}");
    }
}
