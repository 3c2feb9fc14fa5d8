//! AVX2 / AVX-512 vector kernels for the GEMM hot path and the AXPY/SCAL update
//! helpers.
//!
//! This is the one module in the crate allowed to contain `unsafe` code (the
//! `std::arch` SIMD intrinsics and the bounds-check-free inner loops they feed);
//! everything else stays `#![deny(unsafe_code)]`. The module is only compiled on
//! `x86_64` and is only reachable through the safe wrappers at the bottom, which
//! verify the CPU actually reports the required features before entering a
//! `#[target_feature]` function.
//!
//! # Safety contract
//!
//! * Every `#[target_feature]` kernel is private and reachable only through a safe
//!   wrapper that (a) asserts the matching `is_x86_feature_detected!` result and
//!   (b) asserts the slice-length preconditions that make every index the kernel
//!   computes in-bounds. The kernels themselves never grow an index past what the
//!   wrapper checked.
//! * All vector loads and stores go through the unaligned intrinsics
//!   (`loadu`/`storeu`, and their masked forms); no alignment is assumed anywhere.
//! * A masked load or store (AVX-512 `maskz_loadu`/`mask_storeu`, AVX2
//!   `maskload`/`maskstore`) touches only the memory of its enabled lanes, and the
//!   kernels enable exactly the lanes whose indices the wrapper checked. The
//!   disabled lanes of the last strip of a row may lie past the end of the slice
//!   (or in the `ldc` gutter): the hardware neither reads nor writes them, and
//!   faults on them are suppressed.
//! * A band's last row block may be shorter than the microtile: its missing rows
//!   point at the last live row, so they load only checked memory, and they are
//!   never stored.
//! * No raw pointer escapes the slice it was derived from, and no pointer is held
//!   across a reallocation (the kernels allocate nothing).
//!
//! # Bit-identity contract
//!
//! The `avx2` and `avx512` kernels are lane-parallel transcriptions of their
//! scalar counterparts: each output element sees the exact same sequence of
//! `mul`-then-`add` roundings, in the same ascending-`p` order — lane width only
//! changes how many *elements* are in flight, never the per-element arithmetic —
//! so their results are bit-identical to the scalar kernels by construction
//! (proptests pin this). The `*+fma` kernels fuse every multiply-add, the masked
//! strip at the end of each row included, with a single rounding, which changes
//! last-bit results; they are opt-in via `PLINIUS_GEMM=fma` and covered by
//! ULP-bounded differential tests instead.
#![allow(unsafe_code)]

use core::arch::x86_64::{
    __mmask16, _mm256_add_ps, _mm256_cmpgt_epi32, _mm256_fmadd_ps, _mm256_loadu_ps,
    _mm256_maskload_ps, _mm256_maskstore_ps, _mm256_mul_ps, _mm256_permute2f128_ps,
    _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32, _mm256_setzero_ps, _mm256_shuffle_ps,
    _mm256_storeu_ps, _mm256_unpackhi_ps, _mm256_unpacklo_ps, _mm512_add_ps, _mm512_fmadd_ps,
    _mm512_loadu_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps, _mm512_set1_ps,
    _mm512_setzero_ps, _mm512_storeu_ps,
};

/// Rows of the register-resident C microtile, per register file. Each row holds two
/// accumulator vectors: eight rows fill 16 of the 32 ZMM registers, six rows 12 of
/// the 16 YMM registers, which leaves room for the B strips and the broadcast A
/// element.
const MR_ZMM: usize = 8;
const MR_YMM: usize = 6;

// Width-tagged wrappers over the per-ISA intrinsics, so one `band_kernel!` body
// expands to both the 8-lane (YMM) and 16-lane (ZMM) kernels.
macro_rules! vzero {
    (w8) => {
        _mm256_setzero_ps()
    };
    (w16) => {
        _mm512_setzero_ps()
    };
}
macro_rules! vload {
    (w8, $p:expr) => {
        _mm256_loadu_ps($p)
    };
    (w16, $p:expr) => {
        _mm512_loadu_ps($p)
    };
}
macro_rules! vstore {
    (w8, $p:expr, $v:expr) => {
        _mm256_storeu_ps($p, $v)
    };
    (w16, $p:expr, $v:expr) => {
        _mm512_storeu_ps($p, $v)
    };
}
macro_rules! vset1 {
    (w8, $x:expr) => {
        _mm256_set1_ps($x)
    };
    (w16, $x:expr) => {
        _mm512_set1_ps($x)
    };
}

/// The mask of a strip's first `$n` lanes (`1..=L`). Masked loads and stores touch
/// only those lanes' memory; the others read as zero and are never written.
macro_rules! vmask {
    (w8, $n:expr) => {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32($n as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    };
    (w16, $n:expr) => {
        ((1u32 << $n) - 1) as __mmask16
    };
}
macro_rules! vmaskload {
    (w8, $p:expr, $m:expr) => {
        _mm256_maskload_ps($p, $m)
    };
    (w16, $p:expr, $m:expr) => {
        _mm512_maskz_loadu_ps($m, $p)
    };
}
macro_rules! vmaskstore {
    (w8, $p:expr, $m:expr, $v:expr) => {
        _mm256_maskstore_ps($p, $m, $v)
    };
    (w16, $p:expr, $m:expr, $v:expr) => {
        _mm512_mask_storeu_ps($p, $m, $v)
    };
}

macro_rules! vmul {
    (w8, $a:expr, $b:expr) => {
        _mm256_mul_ps($a, $b)
    };
    (w16, $a:expr, $b:expr) => {
        _mm512_mul_ps($a, $b)
    };
}

/// One multiply-accumulate step, expanded per engine: `mul_add` issues separate
/// `vmulps` + `vaddps` (two roundings — bit-identical to the scalar kernel),
/// `fused` issues `vfmadd` (one rounding — faster, ULP-bounded).
macro_rules! vmadd {
    (w8, mul_add, $a:expr, $b:expr, $acc:expr) => {
        _mm256_add_ps($acc, _mm256_mul_ps($a, $b))
    };
    (w8, fused, $a:expr, $b:expr, $acc:expr) => {
        _mm256_fmadd_ps($a, $b, $acc)
    };
    (w16, mul_add, $a:expr, $b:expr, $acc:expr) => {
        _mm512_add_ps($acc, _mm512_mul_ps($a, $b))
    };
    (w16, fused, $a:expr, $b:expr, $acc:expr) => {
        _mm512_fmadd_ps($a, $b, $acc)
    };
}

/// Generates one band kernel over one k-block. The signature and accumulation order
/// mirror `matrix::gemm_packed_band` exactly: `ap` is the band's `rows x kb` block of
/// op(A) with rows `lda` apart (alpha already folded in), `bp` the `kb x nb` panel of
/// op(B) with rows `ldb` apart, and `c` the band's rows of C from the panel's first
/// column (`ldc` apart, last row `nb` wide). Each C element accumulates its `kb`
/// products in ascending-`p` order — tiling only reorders *which element* is worked
/// on, never the per-element order — which is what makes the `mul_add` expansion
/// bit-identical to the scalar kernel.
///
/// Every row ends with one masked strip, whose masked-off lanes are never loaded or
/// stored, so the `ldc` gutter stays untouched.
macro_rules! band_kernel {
    ($name:ident, $feat:literal, $w:tt, $mode:tt, $lanes:expr, $mr:expr) => {
        #[target_feature(enable = $feat)]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $name(
            ap: &[f32],
            lda: usize,
            bp: &[f32],
            ldb: usize,
            kb: usize,
            nb: usize,
            c: &mut [f32],
            ldc: usize,
        ) {
            const L: usize = $lanes;
            const NR: usize = 2 * $lanes;
            const MR: usize = $mr;

            /// One block of `R` rows of C, from `cr` (rows `ldc` apart) and `ar` (rows
            /// `lda` apart), of which the first `live` exist: the others repeat the
            /// last live row's loads and are never stored.
            ///
            /// # Safety
            ///
            /// The `live` rows at `ar` and `cr` and the panel at `b` must be in bounds
            /// for every index the band kernel checks.
            #[target_feature(enable = $feat)]
            #[allow(clippy::too_many_arguments)]
            unsafe fn block<const R: usize>(
                ar: *const f32,
                lda: usize,
                cr: *mut f32,
                live: usize,
                b: *const f32,
                ldb: usize,
                kb: usize,
                nb: usize,
                ldc: usize,
            ) {
                let a_rows: [*const f32; R] =
                    core::array::from_fn(|i| ar.add(i.min(live - 1) * lda));
                let c_rows: [*mut f32; R] = core::array::from_fn(|i| cr.add(i.min(live - 1) * ldc));
                let mut jt = 0usize;
                while jt + NR <= nb {
                    let mut acc = [[vzero!($w); 2]; R];
                    for (acc, cr) in acc.iter_mut().zip(c_rows) {
                        *acc = [vload!($w, cr.add(jt)), vload!($w, cr.add(jt + L))];
                    }
                    for p in 0..kb {
                        let bptr = b.add(p * ldb + jt);
                        let b0 = vload!($w, bptr);
                        let b1 = vload!($w, bptr.add(L));
                        for (acc, ar) in acc.iter_mut().zip(a_rows) {
                            let av = vset1!($w, *ar.add(p));
                            acc[0] = vmadd!($w, $mode, av, b0, acc[0]);
                            acc[1] = vmadd!($w, $mode, av, b1, acc[1]);
                        }
                    }
                    for (acc, cr) in acc.iter().zip(c_rows).take(live) {
                        vstore!($w, cr.add(jt), acc[0]);
                        vstore!($w, cr.add(jt + L), acc[1]);
                    }
                    jt += NR;
                }
                while jt < nb {
                    let mask = vmask!($w, (nb - jt).min(L));
                    let mut acc = [vzero!($w); R];
                    for (acc, cr) in acc.iter_mut().zip(c_rows) {
                        *acc = vmaskload!($w, cr.add(jt), mask);
                    }
                    for p in 0..kb {
                        let b0 = vmaskload!($w, b.add(p * ldb + jt), mask);
                        for (acc, ar) in acc.iter_mut().zip(a_rows) {
                            *acc = vmadd!($w, $mode, vset1!($w, *ar.add(p)), b0, *acc);
                        }
                    }
                    for (acc, cr) in acc.iter().zip(c_rows).take(live) {
                        vmaskstore!($w, cr.add(jt), mask, *acc);
                    }
                    jt += L;
                }
            }

            let rows = c.len().div_ceil(ldc);
            for r0 in (0..rows).step_by(MR) {
                let live = (rows - r0).min(MR);
                let (ar, cr) = (ap.as_ptr().add(r0 * lda), c.as_mut_ptr().add(r0 * ldc));
                if 2 * live < MR {
                    // A short last block runs a row at a time: one row's two
                    // accumulator chains beat a tile whose idle rows still
                    // compute (about 3x faster on a one-row product).
                    for i in 0..live {
                        block::<1>(
                            ar.add(i * lda),
                            lda,
                            cr.add(i * ldc),
                            1,
                            bp.as_ptr(),
                            ldb,
                            kb,
                            nb,
                            ldc,
                        );
                    }
                } else {
                    block::<MR>(ar, lda, cr, live, bp.as_ptr(), ldb, kb, nb, ldc);
                }
            }
        }
    };
}

band_kernel!(band_avx2, "avx2", w8, mul_add, 8, MR_YMM);
band_kernel!(band_avx2_fma, "avx2,fma", w8, fused, 8, MR_YMM);
band_kernel!(band_avx512, "avx512f", w16, mul_add, 16, MR_ZMM);
band_kernel!(band_avx512_fma, "avx512f", w16, fused, 16, MR_ZMM);

/// Generates an AXPY kernel (`y[i] += alpha * x[i]`): elementwise, so the
/// `mul_add` expansions are exactly the scalar loop per lane.
macro_rules! axpy_kernel {
    ($name:ident, $feat:literal, $w:tt, $mode:tt, $lanes:expr) => {
        #[target_feature(enable = $feat)]
        unsafe fn $name(alpha: f32, x: &[f32], y: &mut [f32]) {
            const L: usize = $lanes;
            let n = x.len();
            let av = vset1!($w, alpha);
            let mut i = 0usize;
            while i + L <= n {
                let xv = vload!($w, x.as_ptr().add(i));
                let yv = vload!($w, y.as_ptr().add(i));
                vstore!($w, y.as_mut_ptr().add(i), vmadd!($w, $mode, av, xv, yv));
                i += L;
            }
            while i < n {
                *y.get_unchecked_mut(i) += alpha * *x.get_unchecked(i);
                i += 1;
            }
        }
    };
}

axpy_kernel!(axpy_kernel_avx2, "avx2", w8, mul_add, 8);
axpy_kernel!(axpy_kernel_avx2_fma, "avx2,fma", w8, fused, 8);
axpy_kernel!(axpy_kernel_avx512, "avx512f", w16, mul_add, 16);
axpy_kernel!(axpy_kernel_avx512_fma, "avx512f", w16, fused, 16);

/// Generates a SCAL kernel (`x[i] *= alpha`): a single rounding per element, so
/// it is exact on every engine — the fused engines share their width's kernel.
macro_rules! scal_kernel {
    ($name:ident, $feat:literal, $w:tt, $lanes:expr) => {
        #[target_feature(enable = $feat)]
        unsafe fn $name(alpha: f32, x: &mut [f32]) {
            const L: usize = $lanes;
            let n = x.len();
            let av = vset1!($w, alpha);
            let mut i = 0usize;
            while i + L <= n {
                let xv = vload!($w, x.as_ptr().add(i));
                vstore!($w, x.as_mut_ptr().add(i), vmul!($w, av, xv));
                i += L;
            }
            while i < n {
                *x.get_unchecked_mut(i) *= alpha;
                i += 1;
            }
        }
    };
}

scal_kernel!(scal_kernel_avx2, "avx2", w8, 8);
scal_kernel!(scal_kernel_avx512, "avx512f", w16, 16);

/// `dst[c * ldd + r] = scale * src[r * lds + c]` for every `r < rows`, `c < cols`,
/// both multiples of 8: each 8x8 tile is transposed in registers (eight row loads,
/// 24 shuffles, eight column stores).
///
/// # Safety
///
/// The CPU must support AVX, and every index `r * lds + c` of `src` and `c * ldd + r`
/// of `dst` must be in bounds.
#[target_feature(enable = "avx")]
unsafe fn transpose_tiles_avx(
    src: &[f32],
    lds: usize,
    rows: usize,
    cols: usize,
    scale: f32,
    dst: &mut [f32],
    ldd: usize,
) {
    let (s, d) = (src.as_ptr(), dst.as_mut_ptr());
    let sv = _mm256_set1_ps(scale);
    // Column tiles outermost: each pass writes eight destination rows front to back.
    for c0 in (0..cols).step_by(8) {
        for r0 in (0..rows).step_by(8) {
            let p = s.add(r0 * lds + c0);
            let mut r = [_mm256_setzero_ps(); 8];
            for (i, row) in r.iter_mut().enumerate() {
                *row = _mm256_loadu_ps(p.add(i * lds));
            }
            // Interleave row pairs, then row quads, then swap the 128-bit halves.
            let t0 = _mm256_unpacklo_ps(r[0], r[1]);
            let t1 = _mm256_unpackhi_ps(r[0], r[1]);
            let t2 = _mm256_unpacklo_ps(r[2], r[3]);
            let t3 = _mm256_unpackhi_ps(r[2], r[3]);
            let t4 = _mm256_unpacklo_ps(r[4], r[5]);
            let t5 = _mm256_unpackhi_ps(r[4], r[5]);
            let t6 = _mm256_unpacklo_ps(r[6], r[7]);
            let t7 = _mm256_unpackhi_ps(r[6], r[7]);
            let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
            let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
            let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
            let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
            let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
            let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
            let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
            let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
            let columns = [
                _mm256_permute2f128_ps::<0x20>(u0, u4),
                _mm256_permute2f128_ps::<0x20>(u1, u5),
                _mm256_permute2f128_ps::<0x20>(u2, u6),
                _mm256_permute2f128_ps::<0x20>(u3, u7),
                _mm256_permute2f128_ps::<0x31>(u0, u4),
                _mm256_permute2f128_ps::<0x31>(u1, u5),
                _mm256_permute2f128_ps::<0x31>(u2, u6),
                _mm256_permute2f128_ps::<0x31>(u3, u7),
            ];
            let q = d.add(c0 * ldd + r0);
            for (c, column) in columns.into_iter().enumerate() {
                _mm256_storeu_ps(q.add(c * ldd), _mm256_mul_ps(sv, column));
            }
        }
    }
}

/// Asserts the slice-length preconditions shared by all band kernels: every
/// index they compute stays inside its source slice, which also bounds every
/// enabled lane of a masked strip.
#[allow(clippy::too_many_arguments)]
fn check_band(
    ap: &[f32],
    lda: usize,
    bp: &[f32],
    ldb: usize,
    kb: usize,
    nb: usize,
    c: &[f32],
    ldc: usize,
) {
    assert!(ldc >= nb, "ldc must cover a panel row of C");
    let rows = c.len().div_ceil(ldc);
    if rows > 0 {
        assert!(
            (rows - 1) * ldc + nb <= c.len(),
            "C band too short for its last row"
        );
        let a_len = (rows - 1)
            .checked_mul(lda)
            .and_then(|len| len.checked_add(kb));
        assert!(
            a_len.is_some_and(|len| len <= ap.len()),
            "A block too short"
        );
    }
    if kb > 0 {
        let b_len = (kb - 1)
            .checked_mul(ldb)
            .and_then(|len| len.checked_add(nb));
        assert!(
            b_len.is_some_and(|len| len <= bp.len()),
            "B panel too short"
        );
    }
}

/// Generates the safe band-kernel entry: availability assert + bounds asserts,
/// then the `#[target_feature]` call.
macro_rules! band_wrapper {
    ($name:ident, $kernel:ident, $avail:ident, $label:literal) => {
        #[doc = concat!("Safe entry to the ", $label, " band kernel; panics if")]
        #[doc = "dispatched on a CPU without the feature."]
        #[allow(clippy::too_many_arguments)]
        pub(crate) fn $name(
            ap: &[f32],
            lda: usize,
            bp: &[f32],
            ldb: usize,
            kb: usize,
            nb: usize,
            c: &mut [f32],
            ldc: usize,
        ) {
            assert!(
                crate::dispatch::$avail(),
                concat!($label, " GEMM kernel dispatched on a CPU without it")
            );
            if c.is_empty() || nb == 0 {
                return;
            }
            check_band(ap, lda, bp, ldb, kb, nb, c, ldc);
            // SAFETY: the assert above proves the CPU supports the kernel's target
            // features; `check_band` proves every index it computes, and so every
            // enabled lane of a masked strip, is in bounds.
            unsafe { $kernel(ap, lda, bp, ldb, kb, nb, c, ldc) }
        }
    };
}

band_wrapper!(gemm_packed_band_avx2, band_avx2, avx2_available, "avx2");
band_wrapper!(
    gemm_packed_band_avx2_fma,
    band_avx2_fma,
    fma_available,
    "avx2+fma"
);
band_wrapper!(
    gemm_packed_band_avx512,
    band_avx512,
    avx512_available,
    "avx512"
);
band_wrapper!(
    gemm_packed_band_avx512_fma,
    band_avx512_fma,
    avx512_available,
    "avx512+fma"
);

/// Generates the safe AXPY entry: availability + length asserts.
macro_rules! axpy_wrapper {
    ($name:ident, $kernel:ident, $avail:ident, $label:literal) => {
        #[doc = concat!("Safe ", $label, " AXPY; panics without the CPU feature.")]
        pub(crate) fn $name(alpha: f32, x: &[f32], y: &mut [f32]) {
            assert!(
                crate::dispatch::$avail(),
                concat!($label, " axpy dispatched on a CPU without it")
            );
            assert_eq!(x.len(), y.len(), "axpy length mismatch");
            // SAFETY: feature asserted; the kernel never indexes past
            // x.len() == y.len().
            unsafe { $kernel(alpha, x, y) }
        }
    };
}

axpy_wrapper!(axpy_avx2, axpy_kernel_avx2, avx2_available, "avx2");
axpy_wrapper!(
    axpy_avx2_fma,
    axpy_kernel_avx2_fma,
    fma_available,
    "avx2+fma"
);
axpy_wrapper!(axpy_avx512, axpy_kernel_avx512, avx512_available, "avx512");
axpy_wrapper!(
    axpy_avx512_fma,
    axpy_kernel_avx512_fma,
    avx512_available,
    "avx512+fma"
);

/// Safe lane-parallel AVX2 SCAL (exact on every engine).
pub(crate) fn scal_avx2(alpha: f32, x: &mut [f32]) {
    assert!(
        crate::dispatch::avx2_available(),
        "avx2 scal dispatched on a CPU without it"
    );
    // SAFETY: feature asserted; the kernel never indexes past x.len().
    unsafe { scal_kernel_avx2(alpha, x) }
}

/// Safe lane-parallel AVX-512 SCAL (exact on every engine).
pub(crate) fn scal_avx512(alpha: f32, x: &mut [f32]) {
    assert!(
        crate::dispatch::avx512_available(),
        "avx512 scal dispatched on a CPU without it"
    );
    // SAFETY: feature asserted; the kernel never indexes past x.len().
    unsafe { scal_kernel_avx512(alpha, x) }
}

/// Safe AVX transpose: `dst[c * ldd + r] = scale * src[r * lds + c]` for every
/// `r < rows`, `c < cols`. Panics without AVX or when either slice is too short.
pub(crate) fn transpose_scaled_avx(
    src: &[f32],
    lds: usize,
    rows: usize,
    cols: usize,
    scale: f32,
    dst: &mut [f32],
    ldd: usize,
) {
    assert!(
        std::arch::is_x86_feature_detected!("avx"),
        "avx transpose dispatched on a CPU without it"
    );
    if rows == 0 || cols == 0 {
        return;
    }
    let end = |count: usize, ld: usize, run: usize| {
        (count - 1)
            .checked_mul(ld)
            .and_then(|len| len.checked_add(run))
    };
    assert!(
        end(rows, lds, cols).is_some_and(|len| len <= src.len()),
        "transpose source too short"
    );
    assert!(
        end(cols, ldd, rows).is_some_and(|len| len <= dst.len()),
        "transpose destination too short"
    );
    let (rows8, cols8) = (rows - rows % 8, cols - cols % 8);
    // SAFETY: the CPU reports AVX; the asserts above bound every index
    // the kernel computes, `r * lds + c` and `c * ldd + r` for `r < rows8 <= rows`,
    // `c < cols8 <= cols`.
    unsafe { transpose_tiles_avx(src, lds, rows8, cols8, scale, dst, ldd) }
    // The ragged edges, element by element.
    for r in 0..rows {
        for c in if r < rows8 { cols8 } else { 0 }..cols {
            dst[c * ldd + r] = scale * src[r * lds + c];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Band kernel over one k-block: `(ap, lda, bp, ldb, kb, nb, c_band, ldc)`.
    type BandFn = fn(&[f32], usize, &[f32], usize, usize, usize, &mut [f32], usize);
    type AxpyFn = fn(f32, &[f32], &mut [f32]);
    type ScalFn = fn(f32, &mut [f32]);

    #[allow(clippy::too_many_arguments)]
    fn scalar_band(
        ap: &[f32],
        lda: usize,
        bp: &[f32],
        ldb: usize,
        k: usize,
        n: usize,
        c: &mut [f32],
        ldc: usize,
    ) {
        let rows = c.len().div_ceil(ldc);
        for r in 0..rows {
            for p in 0..k {
                let a = ap[r * lda + p];
                for j in 0..n {
                    c[r * ldc + j] += a * bp[p * ldb + j];
                }
            }
        }
    }

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let v = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                (v % 97) as f32 / 17.0 - 2.5
            })
            .collect()
    }

    // Ragged shapes exercise the full and masked strips and the short row blocks of
    // every kernel; A and panel rows sit `k + 2` and `n + 3` apart, as when both are
    // read in place.
    const SHAPES: [(usize, usize, usize, usize); 5] = [
        (1, 1, 3, 2),
        (6, 16, 8, 16),
        (7, 19, 11, 23),
        (13, 40, 5, 41),
        (12, 71, 9, 73),
    ];

    fn assert_band_bit_identical(vec_band: BandFn, label: &str) {
        for (rows, n, k, ldc) in SHAPES {
            let (lda, ldb) = (k + 2, n + 3);
            let ap = fill((rows - 1) * lda + k, 1);
            let bp = fill((k - 1) * ldb + n, 2);
            let mut c_ref = fill((rows - 1) * ldc + n, 3);
            let mut c_vec = c_ref.clone();
            scalar_band(&ap, lda, &bp, ldb, k, n, &mut c_ref, ldc);
            vec_band(&ap, lda, &bp, ldb, k, n, &mut c_vec, ldc);
            let same = c_ref
                .iter()
                .zip(&c_vec)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{label}: rows={rows} n={n} k={k} ldc={ldc}");
        }
    }

    #[test]
    fn mul_add_bands_are_bit_identical_to_the_scalar_accumulation_order() {
        if crate::dispatch::avx2_available() {
            assert_band_bit_identical(gemm_packed_band_avx2, "avx2");
        } else {
            eprintln!("skipping avx2: CPU does not report it");
        }
        if crate::dispatch::avx512_available() {
            assert_band_bit_identical(gemm_packed_band_avx512, "avx512");
        } else {
            eprintln!("skipping avx512: CPU does not report it");
        }
    }

    #[test]
    fn fused_bands_stay_close_to_scalar() {
        let mut kernels: Vec<(BandFn, &str)> = Vec::new();
        if crate::dispatch::fma_available() {
            kernels.push((gemm_packed_band_avx2_fma, "avx2+fma"));
        }
        if crate::dispatch::avx512_available() {
            kernels.push((gemm_packed_band_avx512_fma, "avx512+fma"));
        }
        if kernels.is_empty() {
            eprintln!("skipping: CPU reports neither fma nor avx512f");
            return;
        }
        for (band, label) in kernels {
            let (rows, n, k, ldc) = (9, 37, 13, 40);
            let ap = fill(rows * k, 7);
            let bp = fill(k * n, 8);
            let mut c_ref = fill((rows - 1) * ldc + n, 9);
            let mut c_vec = c_ref.clone();
            scalar_band(&ap, k, &bp, n, k, n, &mut c_ref, ldc);
            band(&ap, k, &bp, n, k, n, &mut c_vec, ldc);
            for (a, b) in c_ref.iter().zip(&c_vec) {
                assert!(
                    (a - b).abs() <= 1e-4 * (1.0 + a.abs()),
                    "{label}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn axpy_and_scal_match_the_scalar_loops_bit_for_bit() {
        let mut axpys: Vec<(AxpyFn, ScalFn, &str)> = Vec::new();
        if crate::dispatch::avx2_available() {
            axpys.push((axpy_avx2, scal_avx2, "avx2"));
        }
        if crate::dispatch::avx512_available() {
            axpys.push((axpy_avx512, scal_avx512, "avx512"));
        }
        if axpys.is_empty() {
            eprintln!("skipping: CPU reports neither avx2 nor avx512f");
            return;
        }
        for (axpy_fn, scal_fn, label) in axpys {
            for len in [0, 1, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
                let x = fill(len, 11);
                let mut y_ref = fill(len, 12);
                let mut y_vec = y_ref.clone();
                for (yi, xi) in y_ref.iter_mut().zip(&x) {
                    *yi += 1.25 * xi;
                }
                axpy_fn(1.25, &x, &mut y_vec);
                assert!(
                    y_ref
                        .iter()
                        .zip(&y_vec)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{label} axpy len={len}"
                );

                let mut s_ref = fill(len, 13);
                let mut s_vec = s_ref.clone();
                for v in s_ref.iter_mut() {
                    *v *= 0.75;
                }
                scal_fn(0.75, &mut s_vec);
                assert!(
                    s_ref
                        .iter()
                        .zip(&s_vec)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{label} scal len={len}"
                );
            }
        }
    }
}
