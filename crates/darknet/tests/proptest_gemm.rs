//! Property tests pinning the blocked / multi-threaded GEMM to the naive reference
//! kernel **bit-for-bit**, across transpose variants, alpha/beta values, ragged shapes,
//! strided leading dimensions, k-block sizes and thread counts.

use plinius_darknet::matrix::{gemm_reference, gemm_with_engine, GEMM_DEFAULT_KC, GEMM_NC};
use plinius_darknet::{
    avx2_available, avx512_available, fma_available, selected_gemm, GemmKind, GemmPolicy,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The `mul`+`add` engines the host can run: these are required to be **strictly
/// bit-identical** to the scalar kernel — the vector lanes run the same
/// multiply-then-add roundings in the same ascending-`p` order, lane width only
/// changes how many output columns are in flight.
fn mul_add_engines() -> Vec<GemmKind> {
    let mut engines = vec![GemmKind::Scalar];
    if avx2_available() {
        engines.push(GemmKind::Avx2);
    }
    if avx512_available() {
        engines.push(GemmKind::Avx512);
    }
    engines
}

/// The opt-in fused engines the host can run: FMA contracts each
/// multiply-then-add into one rounding, so results are only *close* to scalar.
fn fused_engines() -> Vec<GemmKind> {
    let mut engines = Vec::new();
    if fma_available() {
        engines.push(GemmKind::Avx2Fma);
    }
    if avx512_available() {
        engines.push(GemmKind::Avx512Fma);
    }
    engines
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Bit pattern with NaNs canonicalised. Used only for the *reference vs blocked*
/// comparison: the two kernels compile to different instruction schedules, and LLVM is
/// free to commute `fadd`/`fmul` operands, which changes which operand's NaN
/// *payload/sign bits* propagate — the numeric IEEE semantics (which values are NaN,
/// Inf, or finite, and every finite bit pattern) are still identical. Comparisons
/// *between* blocked-kernel configurations (thread counts, block sizes) stay strictly
/// bit-for-bit, because the same machine code runs in every configuration.
fn canon_bits(values: &[f32]) -> Vec<u32> {
    values
        .iter()
        .map(|v| if v.is_nan() { 0x7FC0_0000 } else { v.to_bits() })
        .collect()
}

/// Fills a buffer with a mix of ordinary values, exact zeros and (optionally) NaN/Inf
/// specials, so the properties also pin IEEE propagation semantics.
fn fill(rng: &mut StdRng, len: usize, specials: bool) -> Vec<f32> {
    (0..len)
        .map(|i| {
            if i % 5 == 3 {
                0.0
            } else if specials && i % 17 == 8 {
                f32::NAN
            } else if specials && i % 23 == 11 {
                f32::INFINITY
            } else {
                rng.gen_range(-2.0..2.0)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_and_parallel_gemm_match_reference_bit_for_bit(
        m in 1usize..12,
        n in 1usize..14,
        k in 0usize..20,
        ta in any::<bool>(),
        tb in any::<bool>(),
        lda_pad in 0usize..3,
        ldb_pad in 0usize..3,
        ldc_pad in 0usize..3,
        specials in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let alpha = *[0.0f32, 1.0, -1.0, rng.gen_range(-2.0..2.0)]
            .get((seed % 4) as usize)
            .unwrap();
        let beta = *[0.0f32, 1.0, rng.gen_range(-1.5..1.5)]
            .get((seed % 3) as usize)
            .unwrap();
        let lda = if ta { m + lda_pad } else { k + lda_pad };
        let ldb = if tb { k + ldb_pad } else { n + ldb_pad };
        let ldc = n + ldc_pad;
        let a = fill(&mut rng, (if ta { k } else { m }) * lda.max(1), specials);
        let b = fill(&mut rng, (if tb { n } else { k }) * ldb.max(1), specials);
        let c0 = fill(&mut rng, m * ldc, false);

        let mut c_ref = c0.clone();
        gemm_reference(ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_ref, ldc);

        // The engine the `auto` policy dispatches to (what `gemm` runs unless
        // `PLINIUS_GEMM` opts into the fused engines) matches the reference bit-for-bit
        // (modulo NaN payload canonicalisation, see `canon_bits`).
        let engine = GemmPolicy::Auto.select();
        let mut c_auto = c0.clone();
        gemm_with_engine(
            engine, 1, GEMM_DEFAULT_KC,
            ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_auto, ldc,
        );
        prop_assert_eq!(canon_bits(&c_ref), canon_bits(&c_auto));

        // Every explicit thread count and block size — including degenerate kc=1 and a
        // block larger than k — matches the reference numerically and the single-thread
        // output *strictly* bit-for-bit (same kernel code for every configuration).
        for threads in [1usize, 2, 5] {
            for kc in [1usize, 3, GEMM_DEFAULT_KC] {
                let mut c = c0.clone();
                gemm_with_engine(
                    engine, threads, kc,
                    ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c, ldc,
                );
                prop_assert_eq!(
                    canon_bits(&c_ref),
                    canon_bits(&c),
                    "vs reference: threads={} kc={} m={} n={} k={} ta={} tb={}",
                    threads, kc, m, n, k, ta, tb
                );
                prop_assert_eq!(
                    bits(&c_auto),
                    bits(&c),
                    "vs single thread: threads={} kc={} m={} n={} k={} ta={} tb={}",
                    threads, kc, m, n, k, ta, tb
                );
            }
        }
    }

    #[test]
    fn every_mul_add_engine_is_bit_identical_to_scalar(
        m in 1usize..12,
        n in 1usize..24,
        k in 0usize..20,
        ta in any::<bool>(),
        tb in any::<bool>(),
        ldc_pad in 0usize..3,
        specials in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // `n` reaches past both vector widths (8 and 16) so full-width bands,
        // partial strips and scalar column tails are all exercised.
        let mut rng = StdRng::seed_from_u64(seed);
        let alpha = rng.gen_range(-2.0..2.0f32);
        let beta = *[0.0f32, 1.0, rng.gen_range(-1.5..1.5)]
            .get((seed % 3) as usize)
            .unwrap();
        let lda = if ta { m } else { k };
        let ldb = if tb { k } else { n };
        let ldc = n + ldc_pad;
        let a = fill(&mut rng, (if ta { k } else { m }) * lda.max(1), specials);
        let b = fill(&mut rng, (if tb { n } else { k }) * ldb.max(1), specials);
        let c0 = fill(&mut rng, m * ldc, false);

        let mut c_scalar = c0.clone();
        gemm_with_engine(
            GemmKind::Scalar, 1, GEMM_DEFAULT_KC,
            ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_scalar, ldc,
        );

        // Every mul+add engine, thread count and k-block size — the engine-specific
        // tile shapes hoisted into the dispatch layer must never change results,
        // only speed. Finite inputs compare strictly; with NaN/Inf specials the
        // engines' different instruction schedules may propagate different NaN
        // payload bits, so those compare canonicalised.
        for engine in mul_add_engines() {
            for threads in [1usize, 2, 5] {
                for kc in [1usize, 3, GEMM_DEFAULT_KC] {
                    let mut c = c0.clone();
                    gemm_with_engine(
                        engine, threads, kc,
                        ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c, ldc,
                    );
                    if specials {
                        prop_assert_eq!(
                            canon_bits(&c_scalar),
                            canon_bits(&c),
                            "engine={} threads={} kc={} m={} n={} k={} ta={} tb={}",
                            engine, threads, kc, m, n, k, ta, tb
                        );
                    } else {
                        prop_assert_eq!(
                            bits(&c_scalar),
                            bits(&c),
                            "engine={} threads={} kc={} m={} n={} k={} ta={} tb={}",
                            engine, threads, kc, m, n, k, ta, tb
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_engines_stay_within_the_documented_error_bound(
        m in 1usize..10,
        n in 1usize..24,
        k in 0usize..20,
        ta in any::<bool>(),
        tb in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // FMA contracts each mul+add into a single rounding, so each of the `k`
        // accumulation steps (plus the alpha/beta applications) can differ from the
        // scalar result by at most one half-ulp of the running magnitude. The
        // documented bound: |fused - scalar| <= (k + 4) * eps * M, where M is the
        // magnitude bound of the element (the same accumulation run on absolute
        // values). Cancellation makes a relative (ulp-of-result) bound meaningless,
        // which is why the bound scales with M, not with the result.
        let mut rng = StdRng::seed_from_u64(seed);
        let alpha = rng.gen_range(-2.0..2.0f32);
        let beta = rng.gen_range(-1.5..1.5f32);
        let lda = if ta { m } else { k };
        let ldb = if tb { k } else { n };
        let a = fill(&mut rng, (if ta { k } else { m }) * lda.max(1), false);
        let b = fill(&mut rng, (if tb { n } else { k }) * ldb.max(1), false);
        let c0 = fill(&mut rng, m * n, false);

        let mut c_scalar = c0.clone();
        gemm_with_engine(
            GemmKind::Scalar, 1, GEMM_DEFAULT_KC,
            ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_scalar, n,
        );
        // Magnitude bound: the same computation over absolute values.
        let abs = |v: &[f32]| v.iter().map(|x| x.abs()).collect::<Vec<f32>>();
        let mut magnitude = abs(&c0);
        gemm_reference(
            ta, tb, m, n, k, alpha.abs(), &abs(&a), lda, &abs(&b), ldb, beta.abs(),
            &mut magnitude, n,
        );
        let tolerance = (k as f32 + 4.0) * f32::EPSILON;

        for engine in fused_engines() {
            let mut c = c0.clone();
            gemm_with_engine(
                engine, 1, GEMM_DEFAULT_KC,
                ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c, n,
            );
            for (i, (&fused, &scalar)) in c.iter().zip(&c_scalar).enumerate() {
                prop_assert!(
                    (fused - scalar).abs() <= tolerance * magnitude[i],
                    "engine={} element {}: fused {} vs scalar {} (bound {})",
                    engine, i, fused, scalar, tolerance * magnitude[i]
                );
            }
            // Fused engines are still deterministic: a second run is bit-identical.
            let mut c2 = c0.clone();
            gemm_with_engine(
                engine, 1, GEMM_DEFAULT_KC,
                ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c2, n,
            );
            prop_assert_eq!(bits(&c), bits(&c2));
        }
    }

    #[test]
    fn gemm_leaves_the_ldc_gutter_untouched(
        m in 1usize..6,
        n in 1usize..8,
        k in 1usize..8,
        seed in any::<u64>(),
    ) {
        // Row padding beyond `n` must never be written, whichever kernel runs.
        let mut rng = StdRng::seed_from_u64(seed);
        let ldc = n + 2;
        let a = fill(&mut rng, m * k, false);
        let b = fill(&mut rng, k * n, false);
        let c0 = fill(&mut rng, m * ldc, false);
        let mut c = c0.clone();
        gemm_with_engine(selected_gemm(), 3, 2, false, false, m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, ldc);
        for row in 0..m {
            prop_assert_eq!(
                bits(&c0[row * ldc + n..(row + 1) * ldc]),
                bits(&c[row * ldc + n..(row + 1) * ldc])
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn panel_edges_match_scalar_and_reference(
        m in 1usize..14,
        full_panels in 0usize..3,
        tail_from_end in any::<bool>(),
        tail in 1usize..24,
        k_past_block in any::<bool>(),
        k_short in 1usize..24,
        ta in any::<bool>(),
        tb in any::<bool>(),
        ldb_pad in 0usize..3,
        specials in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // `n` lands just past or just short of a panel edge, after zero to two full
        // panels, so the last panel is ragged or exactly full; `k` is either short or
        // crosses the default k-block edge (and every edge of the small k-blocks).
        let n = full_panels * GEMM_NC + if tail_from_end { GEMM_NC + 1 - tail } else { tail };
        let k = if k_past_block { GEMM_DEFAULT_KC - 4 + k_short } else { k_short };
        let mut rng = StdRng::seed_from_u64(seed);
        let alpha = rng.gen_range(-2.0..2.0f32);
        let beta = *[0.0f32, 1.0, rng.gen_range(-1.5..1.5)]
            .get((seed % 3) as usize)
            .unwrap();
        let lda = if ta { m } else { k };
        let ldb = if tb { k + ldb_pad } else { n + ldb_pad };
        // One gutter column per row: masked-off lanes must never write it.
        let ldc = n + 1;
        let a = fill(&mut rng, (if ta { k } else { m }) * lda, specials);
        let b = fill(&mut rng, (if tb { n } else { k }) * ldb, specials);
        let c0 = fill(&mut rng, m * ldc, false);

        let mut c_ref = c0.clone();
        gemm_reference(ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_ref, ldc);
        let mut c_scalar = c0.clone();
        gemm_with_engine(
            GemmKind::Scalar, 1, GEMM_DEFAULT_KC,
            ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_scalar, ldc,
        );
        prop_assert_eq!(canon_bits(&c_ref), canon_bits(&c_scalar));

        for engine in mul_add_engines() {
            for threads in [1usize, 2, 5] {
                for kc in [1usize, 3, GEMM_DEFAULT_KC] {
                    let mut c = c0.clone();
                    gemm_with_engine(
                        engine, threads, kc,
                        ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c, ldc,
                    );
                    prop_assert_eq!(
                        canon_bits(&c_ref),
                        canon_bits(&c),
                        "vs reference: engine={} threads={} kc={} m={} n={} k={} ta={} tb={}",
                        engine, threads, kc, m, n, k, ta, tb
                    );
                    // With NaN/Inf specials the engines may propagate different NaN
                    // payload bits; everything else compares strictly.
                    let (want, got) = if specials {
                        (canon_bits(&c_scalar), canon_bits(&c))
                    } else {
                        (bits(&c_scalar), bits(&c))
                    };
                    prop_assert_eq!(
                        want,
                        got,
                        "vs scalar: engine={} threads={} kc={} m={} n={} k={} ta={} tb={}",
                        engine, threads, kc, m, n, k, ta, tb
                    );
                }
            }
        }
    }
}
