//! The BLAS-like kernels (GEMM, the fused SGD update, im2col/col2im) that the
//! Darknet-style layers are built on. Everything is plain row-major `f32` slices on the
//! heap — the same representation the original C framework uses, which keeps the port
//! to the (simulated) enclave straightforward.

use crate::dispatch::{selected_gemm, GemmKind};
use std::cell::RefCell;
use std::ops::Range;

/// One SGD step over a tensor `x` and its gradient accumulator `dx` on `engine`: per
/// element, `dx += decay * x` when a decay coefficient is given, then `x += rate * dx`,
/// then `dx *= momentum`. This is the layers' whole update in one pass over each
/// tensor, with the roundings of the AXPY, AXPY and SCAL passes it fuses: a `mul` and
/// an `add` per multiply-add, except that the opt-in `fma` engines fuse them in their
/// full vector lanes (not in the last `len % lanes` elements).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub(crate) fn sgd_with_engine(
    engine: GemmKind,
    decay: Option<f32>,
    rate: f32,
    momentum: f32,
    x: &mut [f32],
    dx: &mut [f32],
) {
    assert_eq!(x.len(), dx.len(), "sgd length mismatch");
    #[cfg(target_arch = "x86_64")]
    match engine {
        GemmKind::Avx512 => return crate::simd::sgd_avx512(decay, rate, momentum, x, dx),
        GemmKind::Avx512Fma => return crate::simd::sgd_avx512_fma(decay, rate, momentum, x, dx),
        GemmKind::Avx2 => return crate::simd::sgd_avx2(decay, rate, momentum, x, dx),
        GemmKind::Avx2Fma => return crate::simd::sgd_avx2_fma(decay, rate, momentum, x, dx),
        GemmKind::Scalar => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = engine;
    sgd_portable(decay, rate, momentum, x, dx);
}

/// The scalar engine's SGD loop, and the tail of the vector kernels: `dx += decay * x`
/// only when a decay is given (adding `0 * x` would change the bits of a `-0.0` or NaN
/// `dx`), then `x += rate * dx` and `dx *= momentum`, each rounded on its own.
pub(crate) fn sgd_portable(
    decay: Option<f32>,
    rate: f32,
    momentum: f32,
    x: &mut [f32],
    dx: &mut [f32],
) {
    for (x, dx) in x.iter_mut().zip(dx) {
        if let Some(decay) = decay {
            *dx += decay * *x;
        }
        *x += rate * *dx;
        *dx *= momentum;
    }
}

/// Default k-block size of the blocked GEMM kernel: the depth of one panel of `op(B)`
/// (`KC x` [`GEMM_NC`]), which stays in L2 while every row block of the band streams
/// over it. Tunable through [`gemm_with_engine`]; the block size never changes the result
/// (the per-element accumulation order over `p` is preserved across block boundaries).
pub const GEMM_DEFAULT_KC: usize = 128;

/// Width of one panel of `op(B)`. With the default k-block a panel is 256 KiB, small
/// enough to stay in L2. A property of the kernel, not a knob: like the k-block, it
/// never changes the result.
pub const GEMM_NC: usize = 512;

/// Rows of `alpha * op(A)` packed at a time: a multiple of both vector microtiles' row
/// counts (six and eight), so that only a band's last block can be short, and small
/// enough that a packed block (48 KiB at the default k-block) sits beside the panel in
/// L2.
const GEMM_MC: usize = 96;

thread_local! {
    /// This thread's packed panel of a transposed `B`, reused across calls.
    static B_PANEL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// This thread's packed block of `alpha * op(A)`, reused across calls.
    static A_BLOCK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// General matrix multiply on `engine`: `C = alpha * op(A) * op(B) + beta * C`, where
/// `op` optionally transposes its argument. `A` is `m x k` (after `op`), `B` is `k x n`,
/// `C` is `m x n`, all row-major with the given leading dimensions. The layers pass the
/// engine they captured at construction (or through [`crate::Layer::set_gemm_engine`]),
/// so a mid-training change of `PLINIUS_GEMM` cannot mix kernels within one iteration.
///
/// This is the blocked, cache-aware kernel. It walks `op(B)` in panels of `KC` rows by
/// [`GEMM_NC`] columns: a non-transposed `B` is read in place through its row stride, a
/// transposed one is packed panel by panel with a cache-blocked transpose. `op(A)` is
/// read in place too unless it is transposed or `alpha != 1`, when it is packed as
/// `alpha * op(A)` in small row blocks. Each row block times each panel runs through the
/// engine's band kernel: the register-tiled AVX-512 or AVX2 microkernel when `engine`
/// is one (see [`crate::dispatch`]), whose last strip of
/// every row is one masked vector, or the portable 32-wide-strip kernel. The pack buffers
/// are per thread, sized by the block constants and reused across calls. Large products
/// are dispatched across row bands on scoped threads (worker count from
/// [`plinius_parallel::max_threads`], override with `PLINIUS_THREADS`; the minimum work
/// of one fork is engine-specific, [`GemmKind::par_min_work`]; no more bands than full
/// `GEMM_MC`-row blocks, so a product of a few rows stays on one thread). The
/// result is **bit-identical for every thread count, block size, and every engine except
/// the opt-in `fma` ones** — the vector lanes run the same `mul`-then-`add` roundings in
/// the same ascending-`p` order as the scalar kernel — and matches [`gemm_reference`]
/// exactly for all finite results: every `C[i][j]` accumulates the same terms in the
/// same order with no reassociation (and no FMA contraction outside `fma`). The one
/// reference-comparison caveat: when inputs contain NaN/Inf, which values are NaN is
/// identical but their *payload/sign bits* may differ from the reference, because the
/// two kernels compile to different instruction schedules and the hardware propagates
/// whichever operand's NaN lands first.
///
/// # Panics
///
/// Panics if any buffer is too small for the requested shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    engine: GemmKind,
    ta: bool,
    tb: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    gemm_with_engine(
        engine,
        gemm_threads(engine, tb, m, n, k),
        GEMM_DEFAULT_KC,
        ta,
        tb,
        m,
        n,
        k,
        alpha,
        a,
        lda,
        b,
        ldb,
        beta,
        c,
        ldc,
    );
}

/// The worker-thread count [`gemm`] picks: one below the engine's
/// [`GemmKind::par_min_work`], [`plinius_parallel::max_threads`] from there, but never
/// more than the product has full `GEMM_MC`-row blocks (and at least one). The work
/// counted is what one fork of the row bands covers: the whole product, or one panel of
/// it when `B` is transposed, as the bands then fork once per packed panel.
///
/// Every row band streams each panel of `op(B)` itself, so a band pays only when it
/// reuses each panel over enough rows (Goto & van de Geijn, "Anatomy of
/// High-Performance Matrix Multiplication", 2008): an 8-row product split in two
/// reads all of `B` twice for four rows each.
pub(crate) fn gemm_threads(engine: GemmKind, tb: bool, m: usize, n: usize, k: usize) -> usize {
    let (kb, nb) = if tb {
        (k.min(GEMM_DEFAULT_KC), n.min(GEMM_NC))
    } else {
        (k, n)
    };
    if m.saturating_mul(nb).saturating_mul(kb) < engine.par_min_work() {
        1
    } else {
        plinius_parallel::max_threads().min(m / GEMM_MC).max(1)
    }
}

/// [`gemm`] on the engine of the `PLINIUS_GEMM` policy ([`selected_gemm`]) with an
/// explicit worker-thread count (1 forces the single-threaded blocked kernel). Output is
/// bit-identical for every `threads` value.
///
/// # Panics
///
/// Panics if any buffer is too small for the requested shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_threads(
    threads: usize,
    ta: bool,
    tb: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    gemm_with_engine(
        selected_gemm(),
        threads,
        GEMM_DEFAULT_KC,
        ta,
        tb,
        m,
        n,
        k,
        alpha,
        a,
        lda,
        b,
        ldb,
        beta,
        c,
        ldc,
    );
}

/// The fully explicit GEMM entry: engine, worker-thread count and k-block size all
/// pinned by the caller. [`gemm`] and [`gemm_with_threads`] resolve to it; the conv
/// layer's sample fan-out and the differential tests call it directly.
///
/// Every engine shares one loop over the panels of `op(B)`; only the inner
/// band kernel differs. The naive [`gemm_reference`] they are tested against is called
/// directly. On non-`x86_64` targets the vector engines fall back to the scalar band
/// kernel (the dispatcher never selects them there — this arm is belt and braces for
/// callers pinning an engine explicitly).
///
/// # Panics
///
/// Panics if any buffer is too small for the requested shape, or `kc` is zero (with
/// `k > 0`), or a vector engine is pinned on an `x86_64` CPU that does not report
/// the matching feature.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_engine(
    engine: GemmKind,
    threads: usize,
    kc: usize,
    ta: bool,
    tb: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    // Inner band kernel: (a_block, lda, panel, ld_panel, kb, nb, c_block, ldc), one
    // k-block.
    type BandKernel = fn(&[f32], usize, &[f32], usize, usize, usize, &mut [f32], usize);
    let band: BandKernel = match engine {
        GemmKind::Scalar => gemm_packed_band,
        #[cfg(target_arch = "x86_64")]
        GemmKind::Avx512 => crate::simd::gemm_packed_band_avx512,
        #[cfg(target_arch = "x86_64")]
        GemmKind::Avx512Fma => crate::simd::gemm_packed_band_avx512_fma,
        #[cfg(target_arch = "x86_64")]
        GemmKind::Avx2 => crate::simd::gemm_packed_band_avx2,
        #[cfg(target_arch = "x86_64")]
        GemmKind::Avx2Fma => crate::simd::gemm_packed_band_avx2_fma,
        #[cfg(not(target_arch = "x86_64"))]
        GemmKind::Avx512 | GemmKind::Avx512Fma | GemmKind::Avx2 | GemmKind::Avx2Fma => {
            gemm_packed_band
        }
    };
    // The vector engines pack through the AVX register transpose: through the portable
    // one, a transposed 8x2674x392 product runs about 3x slower.
    let transpose: Transpose = match engine {
        #[cfg(target_arch = "x86_64")]
        GemmKind::Avx512 | GemmKind::Avx512Fma | GemmKind::Avx2 | GemmKind::Avx2Fma => {
            crate::simd::transpose_scaled_avx
        }
        _ => transpose_scaled,
    };
    assert!(
        c.len() >= (m.saturating_sub(1)) * ldc + n,
        "C buffer too small"
    );
    if m == 0 || n == 0 {
        return;
    }
    // The beta pre-pass mirrors the reference kernel exactly (including `0 * NaN = NaN`
    // semantics of `*=`), and runs before the early return so `k == 0` still scales C.
    if beta != 1.0 {
        for row in c.chunks_mut(ldc).take(m) {
            for v in row[..n].iter_mut() {
                *v *= beta;
            }
        }
    }
    if k == 0 {
        return;
    }
    assert!(kc > 0, "k-block size must be non-zero");
    let c_rows = &mut c[..(m - 1) * ldc + n];
    let threads = threads.clamp(1, m);
    let rows_per_band = m.div_ceil(threads);
    // One row band of C times one panel, in blocks of `GEMM_MC` rows through the band
    // kernel. op(A) is read in place when there is nothing to transpose or fold in;
    // otherwise the block packs `alpha * op(A)`, the same `alpha * a[i][p]` product the
    // reference kernel forms.
    let run = |first_row: usize, c_band: &mut [f32], panel: Panel<'_>| {
        let rows = c_band.len().div_ceil(ldc);
        A_BLOCK.with_borrow_mut(|buf| {
            for ic in (0..rows).step_by(GEMM_MC) {
                let (mb, row) = (GEMM_MC.min(rows - ic), first_row + ic);
                let (ap, ld): (&[f32], usize) = if ta || alpha != 1.0 {
                    let ap = grow(buf, mb * panel.kb);
                    pack_a(transpose, ta, alpha, a, lda, row, panel.pc, ap, panel.kb);
                    (ap, panel.kb)
                } else {
                    (&a[row * lda + panel.pc..], lda)
                };
                let c_block = &mut c_band[ic * ldc + panel.jc..][..(mb - 1) * ldc + panel.nb];
                band(
                    ap, ld, panel.data, panel.ld, panel.kb, panel.nb, c_block, ldc,
                );
            }
        });
    };
    if threads == 1 || !tb {
        // Nothing to share: each band walks every panel itself, in one dispatch.
        plinius_parallel::par_chunks_mut(c_rows, rows_per_band * ldc, threads, |i, c_band| {
            for_each_panel(transpose, tb, k, n, kc, b, ldb, |panel| {
                run(i * rows_per_band, c_band, panel)
            });
        });
    } else {
        // A transposed B is packed once per panel, on this thread, and the bands share
        // it: they fork once per panel.
        for_each_panel(transpose, tb, k, n, kc, b, ldb, |panel| {
            plinius_parallel::par_chunks_mut(
                &mut *c_rows,
                rows_per_band * ldc,
                threads,
                |i, c_band| run(i * rows_per_band, c_band, panel),
            );
        });
    }
}

/// One `kb x nb` block of `op(B)` at `(pc, jc)`: `data[p * ld + j]` is
/// `op(B)[pc + p][jc + j]`.
#[derive(Clone, Copy)]
struct Panel<'a> {
    pc: usize,
    kb: usize,
    jc: usize,
    nb: usize,
    data: &'a [f32],
    ld: usize,
}

/// Calls `f` on every panel of `op(B)`: k-blocks of `kc` in ascending order, each in
/// panels of [`GEMM_NC`] columns. A non-transposed `B` is borrowed in place; a transposed
/// one is packed into this thread's panel buffer. Out-of-range reads panic exactly as
/// they would in the reference kernel.
#[allow(clippy::too_many_arguments)]
fn for_each_panel(
    transpose: Transpose,
    tb: bool,
    k: usize,
    n: usize,
    kc: usize,
    b: &[f32],
    ldb: usize,
    mut f: impl FnMut(Panel<'_>),
) {
    let mut walk = |mut buf: Option<&mut Vec<f32>>| {
        for pc in (0..k).step_by(kc) {
            let kb = kc.min(k - pc);
            for jc in (0..n).step_by(GEMM_NC) {
                let nb = GEMM_NC.min(n - jc);
                let (data, ld) = match buf.as_deref_mut() {
                    Some(buf) => {
                        let packed = grow(buf, kb * nb);
                        transpose(&b[jc * ldb + pc..], ldb, nb, kb, 1.0, packed, nb);
                        (&*packed, nb)
                    }
                    None => (&b[pc * ldb + jc..], ldb),
                };
                f(Panel {
                    pc,
                    kb,
                    jc,
                    nb,
                    data,
                    ld,
                });
            }
        }
    };
    if tb {
        B_PANEL.with_borrow_mut(|buf| walk(Some(buf)));
    } else {
        walk(None);
    }
}

/// The first `len` elements of a reused scratch buffer, growing it only when it is short.
pub(crate) fn grow(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Packs `alpha * op(A)` into `out`: `mb` rows from `i0`, `kb` columns from `p0`,
/// row-major and `kb` apart, where `out` holds `mb * kb` values. Out-of-range reads
/// panic exactly as they would in the reference kernel.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    transpose: Transpose,
    ta: bool,
    alpha: f32,
    a: &[f32],
    lda: usize,
    i0: usize,
    p0: usize,
    out: &mut [f32],
    kb: usize,
) {
    let mb = out.len() / kb;
    if ta {
        // A is stored k x m: its rows `p0..` hold the block's columns.
        transpose(&a[p0 * lda + i0..], lda, kb, mb, alpha, out, kb);
    } else {
        for (i, out_row) in out.chunks_exact_mut(kb).enumerate() {
            for (o, &v) in out_row.iter_mut().zip(&a[(i0 + i) * lda + p0..][..kb]) {
                *o = alpha * v;
            }
        }
    }
}

/// A transposing copy, `(src, lds, rows, cols, scale, dst, ldd)`: writes
/// `scale * src[r * lds + c]` to `dst[c * ldd + r]` for every `r < rows`, `c < cols`.
type Transpose = fn(&[f32], usize, usize, usize, f32, &mut [f32], usize);

/// The portable [`Transpose`], through an 8x8 tile buffer: eight short row copies in,
/// eight short row writes out, with the column tiles outermost so that each pass
/// writes eight destination rows front to back.
fn transpose_scaled(
    src: &[f32],
    lds: usize,
    rows: usize,
    cols: usize,
    scale: f32,
    dst: &mut [f32],
    ldd: usize,
) {
    const T: usize = 8;
    for c0 in (0..cols).step_by(T) {
        let cn = T.min(cols - c0);
        for r0 in (0..rows).step_by(T) {
            let rn = T.min(rows - r0);
            let mut tile = [[0.0f32; T]; T];
            for (r, row) in tile.iter_mut().enumerate().take(rn) {
                row[..cn].copy_from_slice(&src[(r0 + r) * lds + c0..][..cn]);
            }
            for c in 0..cn {
                for (r, o) in dst[(c0 + c) * ldd + r0..][..rn].iter_mut().enumerate() {
                    *o = scale * tile[r][c];
                }
            }
        }
    }
}

/// Width of the register-resident C strip of the scalar inner kernel (in `f32` lanes):
/// enough independent accumulator vectors to hide FP-add latency without spilling.
const GEMM_TILE_W: usize = 32;

/// The scalar band kernel: one k-block (`kb` deep) of a band of C rows, whose op(A) rows
/// sit `lda` apart in `ap`, against one panel (`nb` wide, rows `ldb` apart), in
/// `i / j-strip / p` order with a register-resident
/// accumulator strip. Each `GEMM_TILE_W`-wide strip of a C row is loaded once, accumulates
/// every `p` of the block in registers, and is stored once — instead of a C-row
/// load/store per rank-1 update.
///
/// For every `C[i][j]` the terms still accumulate in ascending-`p` order with one `+=`
/// per term — exactly the reference kernel's association, hence bit-identical results
/// (no FMA contraction, no reassociation).
#[allow(clippy::too_many_arguments)]
fn gemm_packed_band(
    ap: &[f32],
    lda: usize,
    bp: &[f32],
    ldb: usize,
    kb: usize,
    nb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    let rows = c.len().div_ceil(ldc);
    for r in 0..rows {
        let a_row = &ap[r * lda..][..kb];
        let c_row = &mut c[r * ldc..r * ldc + nb];
        let mut jt = 0;
        // Full-width strips: fixed-size accumulator array the compiler keeps in
        // vector registers.
        while jt + GEMM_TILE_W <= nb {
            let tile = &mut c_row[jt..jt + GEMM_TILE_W];
            let mut acc: [f32; GEMM_TILE_W] = tile.try_into().expect("full tile");
            for (p, &a_ip) in a_row.iter().enumerate() {
                let b_strip = &bp[p * ldb + jt..][..GEMM_TILE_W];
                for (x, &b_v) in b_strip.iter().enumerate() {
                    acc[x] += a_ip * b_v;
                }
            }
            tile.copy_from_slice(&acc);
            jt += GEMM_TILE_W;
        }
        // Remainder strip narrower than a tile.
        if jt < nb {
            let tile = &mut c_row[jt..];
            for (p, &a_ip) in a_row.iter().enumerate() {
                let b_strip = &bp[p * ldb + jt..][..nb - jt];
                for (cv, &b_v) in tile.iter_mut().zip(b_strip) {
                    *cv += a_ip * b_v;
                }
            }
        }
    }
}

/// The naive triple-loop GEMM, kept as the semantic reference for the blocked/parallel
/// kernel (property tests assert bit-for-bit agreement).
///
/// Note: the kernel deliberately has **no zero-skip** on `alpha * a[i][p]` — skipping
/// zero terms would silently drop NaN/Inf propagation from `B` (IEEE `0 * NaN = NaN`,
/// `0 * Inf = NaN`), masking diverged training runs.
///
/// # Panics
///
/// Panics if any buffer is too small for the requested shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_reference(
    ta: bool,
    tb: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    assert!(
        c.len() >= (m.saturating_sub(1)) * ldc + n,
        "C buffer too small"
    );
    if beta != 1.0 {
        for i in 0..m {
            for j in 0..n {
                c[i * ldc + j] *= beta;
            }
        }
    }
    let a_at = |i: usize, p: usize| -> f32 {
        if ta {
            a[p * lda + i]
        } else {
            a[i * lda + p]
        }
    };
    let b_at = |p: usize, j: usize| -> f32 {
        if tb {
            b[j * ldb + p]
        } else {
            b[p * ldb + j]
        }
    };
    // Bounds are checked implicitly through slice indexing.
    for i in 0..m {
        for p in 0..k {
            let a_ip = alpha * a_at(i, p);
            for j in 0..n {
                c[i * ldc + j] += a_ip * b_at(p, j);
            }
        }
    }
}

/// The output positions `o < out` of one kernel offset whose input coordinate
/// `offset + o * stride - pad` lies inside `0..dim`, and the input coordinate of the first
/// of them (`0` for an empty run, so that slicing at it stays in range).
fn valid_run(
    offset: usize,
    stride: usize,
    pad: usize,
    dim: usize,
    out: usize,
) -> (Range<usize>, usize) {
    let hi = (dim + pad).saturating_sub(offset).div_ceil(stride).min(out);
    let lo = pad.saturating_sub(offset).div_ceil(stride).min(hi);
    let first = if lo < hi {
        offset + lo * stride - pad
    } else {
        0
    };
    (lo..hi, first)
}

/// Rearranges an image (channels x height x width, channel-major as in Darknet) into a
/// column matrix for convolution-as-GEMM. The output has `channels*ksize*ksize` rows and
/// `out_h*out_w` columns.
///
/// The work is done in *row runs*: one output row of one column-matrix row (a channel
/// and kernel cell) is a zero prefix, the valid input cells and a zero suffix. The valid
/// cells are one contiguous copy, or a strided gather when `stride > 1`. The result is
/// bit-identical to Darknet's per-element loop.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    input: &[f32],
    channels: usize,
    height: usize,
    width: usize,
    ksize: usize,
    stride: usize,
    pad: usize,
    output: &mut [f32],
) {
    let out_h = conv_out_dim(height, ksize, stride, pad);
    let out_w = conv_out_dim(width, ksize, stride, pad);
    let n = out_h * out_w;
    assert!(
        output.len() >= channels * ksize * ksize * n,
        "im2col output too small"
    );
    let plane_len = height * width;
    for c_im in 0..channels {
        let plane = &input[c_im * plane_len..][..plane_len];
        for kh in 0..ksize {
            let (ys, y0) = valid_run(kh, stride, pad, height, out_h);
            for kw in 0..ksize {
                let (xs, x0) = valid_run(kw, stride, pad, width, out_w);
                let c = (c_im * ksize + kh) * ksize + kw;
                let (above, rest) = output[c * n..][..n].split_at_mut(ys.start * out_w);
                let (rows, below) = rest.split_at_mut(ys.len() * out_w);
                above.fill(0.0);
                below.fill(0.0);
                for (i, row) in rows.chunks_exact_mut(out_w).enumerate() {
                    let src = &plane[(y0 + i * stride) * width..][..width][x0..];
                    let (prefix, rest) = row.split_at_mut(xs.start);
                    let (run, suffix) = rest.split_at_mut(xs.len());
                    prefix.fill(0.0);
                    suffix.fill(0.0);
                    if stride == 1 {
                        run.copy_from_slice(&src[..run.len()]);
                    } else {
                        for (d, s) in run.iter_mut().zip(src.iter().step_by(stride)) {
                            *d = *s;
                        }
                    }
                }
            }
        }
    }
}

/// The inverse of [`im2col`]: scatters (accumulates) a column matrix back into an image,
/// used to propagate gradients to the convolution input.
///
/// Each row run of the column matrix is added back over its valid range only, walking
/// column rows, then output rows, then output columns in ascending order. Every image
/// element therefore receives its additions in the order of Darknet's per-element loop,
/// and the result is bit-identical to it.
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    column: &[f32],
    channels: usize,
    height: usize,
    width: usize,
    ksize: usize,
    stride: usize,
    pad: usize,
    output: &mut [f32],
) {
    let out_h = conv_out_dim(height, ksize, stride, pad);
    let out_w = conv_out_dim(width, ksize, stride, pad);
    let n = out_h * out_w;
    let plane_len = height * width;
    assert!(
        output.len() >= channels * plane_len,
        "col2im output too small"
    );
    for c_im in 0..channels {
        let plane = &mut output[c_im * plane_len..][..plane_len];
        for kh in 0..ksize {
            let (ys, y0) = valid_run(kh, stride, pad, height, out_h);
            for kw in 0..ksize {
                let (xs, x0) = valid_run(kw, stride, pad, width, out_w);
                let c = (c_im * ksize + kh) * ksize + kw;
                let rows = &column[c * n + ys.start * out_w..][..ys.len() * out_w];
                for (i, row) in rows.chunks_exact(out_w).enumerate() {
                    let dst = &mut plane[(y0 + i * stride) * width..][..width][x0..];
                    let run = &row[xs.clone()];
                    if stride == 1 {
                        add_run(&mut dst[..run.len()], run);
                    } else {
                        for (d, s) in dst.iter_mut().step_by(stride).zip(run) {
                            *d += *s;
                        }
                    }
                }
            }
        }
    }
}

/// `dst[i] += src[i]`, in blocks of four so that even the 7-wide rows of a small layer
/// run as vector adds: a plain zipped loop took about 1.7x as long on a 7x7x16 layer.
fn add_run(dst: &mut [f32], src: &[f32]) {
    let mut dst4 = dst.chunks_exact_mut(4);
    let mut src4 = src.chunks_exact(4);
    for (d, s) in (&mut dst4).zip(&mut src4) {
        for j in 0..4 {
            d[j] += s[j];
        }
    }
    for (d, s) in dst4.into_remainder().iter_mut().zip(src4.remainder()) {
        *d += *s;
    }
}

/// Output spatial dimension of a convolution with the given geometry, or `None` for
/// degenerate geometries: zero kernel/stride, or a kernel larger than the padded input
/// (`ksize > dim + 2 * pad`, which would underflow the Darknet formula — panicking in
/// debug builds and wrapping to an absurd dimension in release).
pub fn try_conv_out_dim(dim: usize, ksize: usize, stride: usize, pad: usize) -> Option<usize> {
    if ksize == 0 || stride == 0 {
        return None;
    }
    let padded = dim.checked_add(2 * pad)?;
    if ksize > padded {
        return None;
    }
    Some((padded - ksize) / stride + 1)
}

/// Output spatial dimension of a convolution with the given geometry.
///
/// # Panics
///
/// Panics with a descriptive message if the kernel does not fit the padded input or the
/// geometry is degenerate (see [`try_conv_out_dim`]). [`crate::config::build_network`]
/// rejects such layer configurations with a proper error before any layer is built.
pub fn conv_out_dim(dim: usize, ksize: usize, stride: usize, pad: usize) -> usize {
    try_conv_out_dim(dim, ksize, stride, pad).unwrap_or_else(|| {
        panic!(
            "invalid convolution geometry: kernel {ksize} (stride {stride}) does not fit \
             the padded input {dim}+2*{pad}"
        )
    })
}

/// Output spatial dimension of a pooling sweep that covers the whole input: windows
/// start at every `stride` offset and the final window may hang over the input edge
/// (a *partial* window), as in Darknet's maxpool. For stride-divisible inputs this
/// matches the floor formula of [`conv_out_dim`] with zero padding.
///
/// # Panics
///
/// Panics if `size` or `stride` is zero.
pub fn pool_out_dim(dim: usize, size: usize, stride: usize) -> usize {
    assert!(size > 0 && stride > 0, "invalid pooling geometry");
    if size >= dim {
        1
    } else {
        (dim - size).div_ceil(stride) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn gemm_nn_matches_hand_computation() {
        // A = [[1,2],[3,4]], B = [[5,6],[7,8]] -> AB = [[19,22],[43,50]]
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![0.0; 4];
        gemm(
            selected_gemm(),
            false,
            false,
            2,
            2,
            2,
            1.0,
            &a,
            2,
            &b,
            2,
            0.0,
            &mut c,
            2,
        );
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gemm_transpose_variants_agree() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = 3;
        let n = 4;
        let k = 5;
        // Row-major, entries uniform in [-1, 1].
        let mut random =
            |len: usize| -> Vec<f32> { (0..len).map(|_| rng.gen_range(-1.0..=1.0)).collect() };
        let a = random(m * k);
        let b = random(k * n);
        // Reference: C = A * B.
        let mut c_ref = vec![0.0; m * n];
        gemm(
            selected_gemm(),
            false,
            false,
            m,
            n,
            k,
            1.0,
            &a,
            k,
            &b,
            n,
            0.0,
            &mut c_ref,
            n,
        );
        // A^T stored transposed (k x m) then used with ta=true.
        let mut a_t = vec![0.0; k * m];
        for i in 0..m {
            for p in 0..k {
                a_t[p * m + i] = a[i * k + p];
            }
        }
        let mut c_ta = vec![0.0; m * n];
        gemm(
            selected_gemm(),
            true,
            false,
            m,
            n,
            k,
            1.0,
            &a_t,
            m,
            &b,
            n,
            0.0,
            &mut c_ta,
            n,
        );
        for (x, y) in c_ref.iter().zip(c_ta.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
        // B^T stored transposed (n x k) then used with tb=true.
        let mut b_t = vec![0.0; n * k];
        for p in 0..k {
            for j in 0..n {
                b_t[j * k + p] = b[p * n + j];
            }
        }
        let mut c_tb = vec![0.0; m * n];
        gemm(
            selected_gemm(),
            false,
            true,
            m,
            n,
            k,
            1.0,
            &a,
            k,
            &b_t,
            k,
            0.0,
            &mut c_tb,
            n,
        );
        for (x, y) in c_ref.iter().zip(c_tb.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn gemm_beta_accumulates() {
        let a = vec![1.0];
        let b = vec![1.0];
        let mut c = vec![10.0];
        gemm(
            selected_gemm(),
            false,
            false,
            1,
            1,
            1,
            2.0,
            &a,
            1,
            &b,
            1,
            1.0,
            &mut c,
            1,
        );
        assert_eq!(c[0], 12.0);
        gemm(
            selected_gemm(),
            false,
            false,
            1,
            1,
            1,
            2.0,
            &a,
            1,
            &b,
            1,
            0.0,
            &mut c,
            1,
        );
        assert_eq!(c[0], 2.0);
    }

    #[test]
    fn gemm_propagates_nan_and_inf_from_b() {
        // Regression: the old kernel skipped `alpha * a[i][p] == 0.0` terms, silently
        // dropping NaN/Inf propagation from B (IEEE: 0 * NaN = NaN, 0 * Inf = NaN).
        let a = vec![0.0f32, 0.0];
        // Column 0 of B carries a NaN, column 1 an Inf.
        let b = vec![f32::NAN, f32::INFINITY, 1.0, 2.0];
        let mut c_ref = vec![0.5f32, 0.5];
        gemm_reference(false, false, 1, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c_ref, 2);
        let mut c_blk = vec![0.5f32, 0.5];
        gemm(
            selected_gemm(),
            false,
            false,
            1,
            2,
            2,
            1.0,
            &a,
            2,
            &b,
            2,
            0.0,
            &mut c_blk,
            2,
        );
        for c in [&c_ref, &c_blk] {
            assert!(c[0].is_nan(), "0 * NaN must poison C, got {}", c[0]);
            assert!(c[1].is_nan(), "0 * Inf must poison C, got {}", c[1]);
        }
        // A zero *alpha* must poison C the same way.
        let mut c = vec![0.0f32, 0.0];
        gemm(
            selected_gemm(),
            false,
            false,
            1,
            2,
            2,
            0.0,
            &[1.0, 1.0],
            2,
            &b,
            2,
            0.0,
            &mut c,
            2,
        );
        assert!(c[0].is_nan());
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn blocked_and_parallel_gemm_are_bit_identical_to_reference() {
        // One fixed ragged shape per transpose variant as a fast `--lib` smoke guard;
        // the exhaustive sweep over shapes/alpha/beta/kc/threads/specials lives in
        // `tests/proptest_gemm.rs`.
        let mut rng = StdRng::seed_from_u64(42);
        let (m, n, k) = (5, 33, 129);
        for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
            let lda = if ta { m + 2 } else { k + 1 };
            let ldb = if tb { k + 3 } else { n };
            let ldc = n + 2;
            let a: Vec<f32> = (0..(if ta { k } else { m }) * lda)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let b: Vec<f32> = (0..(if tb { n } else { k }) * ldb)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let c0: Vec<f32> = (0..m * ldc).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut c_ref = c0.clone();
            gemm_reference(
                ta, tb, m, n, k, 0.75, &a, lda, &b, ldb, 0.5, &mut c_ref, ldc,
            );
            // The engine of the `auto` policy, whatever `PLINIUS_GEMM` selects: the
            // fused engines are only ULP-close to the reference.
            let mut c = c0.clone();
            gemm_with_engine(
                crate::GemmPolicy::Auto.select(),
                3,
                2,
                ta,
                tb,
                m,
                n,
                k,
                0.75,
                &a,
                lda,
                &b,
                ldb,
                0.5,
                &mut c,
                ldc,
            );
            assert_eq!(bits(&c_ref), bits(&c), "ta={ta} tb={tb}");
        }
    }

    #[test]
    fn gemm_forks_no_more_row_bands_than_full_row_blocks() {
        let engines = [
            GemmKind::Scalar,
            GemmKind::Avx2,
            GemmKind::Avx2Fma,
            GemmKind::Avx512,
            GemmKind::Avx512Fma,
        ];
        for engine in engines {
            // The 4 MB FC layer's data gradient at batch 8 taken whole, prev_delta
            // (8 x 392) += delta (8 x 2674) * W (2674 x 392), is past every engine's
            // parallel cutoff but has no full row block.
            assert_eq!(gemm_threads(engine, false, 8, 392, 2674), 1, "{engine}");
            // However large the product, fewer than two full row blocks is one band.
            for m in [1, GEMM_MC, 2 * GEMM_MC - 1] {
                for tb in [false, true] {
                    assert_eq!(gemm_threads(engine, tb, m, 4096, 4096), 1, "{engine} m={m}");
                }
            }
            // Its weight gradient taken whole, Δw (2674 x 392) += deltaᵀ (2674 x 8) *
            // input (8 x 392), has 27 full row blocks and keeps every worker. The layer
            // issues neither product: it walks its weights in blocks of 32 rows, whose
            // products each stay on one thread.
            assert_eq!(
                gemm_threads(engine, false, 2674, 392, 8),
                plinius_parallel::max_threads().min(2674 / GEMM_MC),
                "{engine}"
            );
        }
    }

    #[test]
    fn gemm_handles_degenerate_shapes() {
        // k = 0: only the beta pass runs.
        let mut c = vec![2.0f32, 4.0];
        gemm(
            selected_gemm(),
            false,
            false,
            1,
            2,
            0,
            1.0,
            &[],
            1,
            &[],
            1,
            0.5,
            &mut c,
            2,
        );
        assert_eq!(c, vec![1.0, 2.0]);
        // m = 0 / n = 0: no-ops.
        gemm(
            selected_gemm(),
            false,
            false,
            0,
            2,
            3,
            1.0,
            &[],
            1,
            &[0.0; 6],
            2,
            0.0,
            &mut c,
            2,
        );
        let mut empty: Vec<f32> = vec![];
        gemm(
            selected_gemm(),
            false,
            false,
            1,
            0,
            3,
            1.0,
            &[0.0; 3],
            3,
            &[0.0; 3],
            1,
            0.0,
            &mut empty,
            0,
        );
    }

    #[test]
    fn conv_out_dim_formula() {
        assert_eq!(conv_out_dim(28, 3, 1, 1), 28);
        assert_eq!(conv_out_dim(28, 2, 2, 0), 14);
        assert_eq!(conv_out_dim(5, 3, 1, 0), 3);
    }

    #[test]
    fn try_conv_out_dim_rejects_degenerate_geometry() {
        // Kernel larger than the padded input: the old formula underflowed `usize`.
        assert_eq!(try_conv_out_dim(4, 7, 1, 1), None);
        assert_eq!(try_conv_out_dim(2, 3, 1, 0), None);
        assert_eq!(try_conv_out_dim(4, 0, 1, 0), None);
        assert_eq!(try_conv_out_dim(4, 3, 0, 0), None);
        assert_eq!(try_conv_out_dim(2, 3, 1, 1), Some(2));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn conv_out_dim_panics_clearly_on_underflow() {
        let _ = conv_out_dim(4, 7, 1, 1);
    }

    #[test]
    fn pool_out_dim_covers_the_whole_input() {
        // Stride-divisible inputs match the conv formula.
        assert_eq!(pool_out_dim(28, 2, 2), 14);
        assert_eq!(pool_out_dim(8, 2, 2), 4);
        // Non-divisible input: a partial window covers the trailing edge.
        assert_eq!(pool_out_dim(5, 2, 2), 3);
        assert_eq!(pool_out_dim(7, 2, 2), 4);
        // Window as large as the input: one window.
        assert_eq!(pool_out_dim(3, 3, 1), 1);
        assert_eq!(pool_out_dim(2, 3, 1), 1);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no padding: im2col is the identity reshape.
        let input: Vec<f32> = (0..2 * 3 * 3).map(|v| v as f32).collect();
        let mut out = vec![0.0; 2 * 3 * 3];
        im2col(&input, 2, 3, 3, 1, 1, 0, &mut out);
        assert_eq!(out, input);
    }

    #[test]
    fn im2col_known_small_case() {
        // Single channel 3x3 image, 2x2 kernel, stride 1, no pad: 4 output positions.
        let input = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let mut out = vec![0.0; 4 * 4];
        im2col(&input, 1, 3, 3, 2, 1, 0, &mut out);
        // Row 0 of the column matrix holds the top-left element of each patch.
        assert_eq!(&out[0..4], &[1.0, 2.0, 4.0, 5.0]);
        // Row 3 holds the bottom-right element of each patch.
        assert_eq!(&out[12..16], &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the standard adjoint check.
        let mut rng = StdRng::seed_from_u64(9);
        let (c, h, w, k, s, p) = (2usize, 5usize, 5usize, 3usize, 1usize, 1usize);
        let out_h = conv_out_dim(h, k, s, p);
        let out_w = conv_out_dim(w, k, s, p);
        let x: Vec<f32> = (0..c * h * w).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y: Vec<f32> = (0..c * k * k * out_h * out_w)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let mut x_col = vec![0.0; y.len()];
        im2col(&x, c, h, w, k, s, p, &mut x_col);
        let mut y_im = vec![0.0; x.len()];
        col2im(&y, c, h, w, k, s, p, &mut y_im);
        let dot = |u: &[f32], v: &[f32]| u.iter().zip(v).map(|(a, b)| a * b).sum::<f32>();
        let lhs = dot(&x_col, &y);
        let rhs = dot(&x, &y_im);
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }
}
