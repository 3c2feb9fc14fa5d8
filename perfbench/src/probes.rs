//! Layer probes of the traced run: one layer operation timed in isolation at a shape
//! the workload uses, where no call of the benchmark reaches it directly.

use crate::summary::median;
use plinius::{EnginePolicy, PliniusContext, PliniusError};
use plinius_crypto::Key;
use plinius_darknet::matrix::gemm_with_threads;
use plinius_parallel::{max_threads, par_chunks_mut, Pipeline};
use plinius_pmem::PmemPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_clock::CostModel;
use std::hint::black_box;
use std::time::Instant;

/// Timed samples per probe; each sample repeats the operation `reps` times.
const SAMPLES: usize = 15;

/// Median seconds per operation over [`SAMPLES`] samples of `reps` operations,
/// after one untimed warm-up sample.
fn seconds_per_op(reps: usize, mut op: impl FnMut()) -> f64 {
    for _ in 0..reps {
        op();
    }
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                op();
            }
            start.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    median(&samples)
}

/// Repetitions that make one sample of a `bytes`-sized operation move about 4 MiB.
fn reps_for(bytes: usize) -> usize {
    ((4 << 20) / bytes.max(1)).clamp(1, 4096)
}

pub struct ProbeResults {
    pub gemm_gflops_1t: f64,
    pub gemm_gflops_mt: f64,
    pub dispatch_us: f64,
    pub pipeline_roundtrip_us: f64,
    pub seal_mib_s: f64,
    pub open_mib_s: f64,
    pub pmem_write_mib_s: f64,
    pub romulus_tx_us: f64,
}

/// The largest conv GEMM of the `train` workload's model: 16 filters over a 3x3
/// window of 16 channels on the 14x14 map after the first pooling.
pub const GEMM_SHAPE: (usize, usize, usize) = (16, 14 * 14, 3 * 3 * 16);

pub fn run(tensor_bytes: usize, seed: u64) -> Result<ProbeResults, PliniusError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let threads = max_threads();

    let (m, n, k) = GEMM_SHAPE;
    let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut c = vec![0.0f32; m * n];
    let flops = 2.0 * (m * n * k) as f64;
    let mut gemm = |t: usize| {
        flops
            / seconds_per_op(200, || {
                gemm_with_threads(t, false, false, m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n);
                black_box(&mut c);
            })
            / 1e9
    };
    let gemm_gflops_1t = gemm(1);
    let gemm_gflops_mt = gemm(threads);

    let mut cells = vec![0u64; threads * 64];
    let dispatch_us = seconds_per_op(200, || {
        par_chunks_mut(&mut cells, 64, threads, |i, chunk| chunk[0] = i as u64);
        black_box(&mut cells);
    }) * 1e6;

    let mut pipe: Pipeline<u64, u64> = Pipeline::spawn("perfbench-probe", |x| x + 1);
    let mut roundtrip = || -> Result<(), PliniusError> {
        pipe.send(1)
            .map_err(|e| PliniusError::Pipeline(e.to_string()))?;
        black_box(
            pipe.recv()
                .map_err(|e| PliniusError::Pipeline(e.to_string()))?,
        );
        Ok(())
    };
    let mut failure = Ok(());
    let pipeline_roundtrip_us = seconds_per_op(200, || {
        if let Err(e) = roundtrip() {
            failure = Err(e);
        }
    }) * 1e6;
    failure?;
    drop(pipe);

    let key = Key::generate_128(&mut rng);
    let gcm = key.gcm_with_policy(EnginePolicy::Auto);
    let iv = [7u8; 12];
    let plaintext: Vec<u8> = (0..tensor_bytes)
        .map(|_| rng.gen_range(0..=255u8))
        .collect();
    let mut sealed = vec![0u8; tensor_bytes];
    let mut opened = vec![0u8; tensor_bytes];
    let mib = tensor_bytes as f64 / (1 << 20) as f64;
    let reps = reps_for(tensor_bytes);
    let mut tag = [0u8; 16];
    let mut failure = Ok(());
    let seal_s = seconds_per_op(reps, || {
        match gcm.encrypt_into(&iv, b"probe", &plaintext, &mut sealed) {
            Ok(t) => tag = t,
            Err(e) => failure = Err(e),
        }
    });
    let open_s = seconds_per_op(reps, || {
        if let Err(e) = gcm.decrypt_into(&iv, b"probe", &sealed, &tag, &mut opened) {
            failure = Err(e);
        }
    });
    failure?;
    if opened != plaintext {
        return Err(PliniusError::MirrorMismatch(
            "the crypto probe did not round-trip".to_owned(),
        ));
    }

    let pool = PmemPool::new(tensor_bytes.next_multiple_of(64))?;
    let mut failure = Ok(());
    let write_s = seconds_per_op(reps, || {
        let result = pool
            .write(0, &plaintext)
            .and_then(|()| pool.flush(0, tensor_bytes));
        pool.fence();
        if let Err(e) = result {
            failure = Err(e);
        }
    });
    failure?;

    // A flip-sized transaction: the mirror commits [iteration, epoch, active slot].
    let ctx =
        PliniusContext::create_with_crypto(CostModel::sgx_eml_pm(), 1 << 20, EnginePolicy::Auto)?;
    let cell = ctx.romulus().transaction(|tx| tx.alloc(64))?;
    let mut iteration = 0u64;
    let mut failure = Ok(());
    let romulus_tx_us = seconds_per_op(200, || {
        iteration += 1;
        let result = ctx.romulus().transaction(|tx| {
            tx.write_u64(cell, iteration)?;
            tx.write_u64(cell.add(8), iteration)?;
            tx.write_u64(cell.add(16), iteration % 2)
        });
        if let Err(e) = result {
            failure = Err(e);
        }
    }) * 1e6;
    failure?;

    Ok(ProbeResults {
        gemm_gflops_1t,
        gemm_gflops_mt,
        dispatch_us,
        pipeline_roundtrip_us,
        seal_mib_s: mib / seal_s,
        open_mib_s: mib / open_s,
        pmem_write_mib_s: mib / write_s,
        romulus_tx_us,
    })
}
