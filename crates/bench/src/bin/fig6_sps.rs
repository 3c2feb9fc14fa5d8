//! Regenerates Fig. 6: SPS benchmark (swaps/us vs transaction size) comparing native
//! Romulus, sgx-romulus and scone-romulus for two PWB+fence combinations, followed by a
//! wall-clock thread-count sweep of the blocked GEMM and the mirror-out seal beside it.

use plinius::{MirrorModel, PliniusContext};
use plinius_bench::{cli, RunMode};
use plinius_crypto::Key;
use plinius_darknet::config::{build_network, mnist_cnn_config};
use plinius_darknet::matrix::gemm_with_threads;
use plinius_romulus::sps::figure6_sweep;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_clock::CostModel;
use std::time::Instant;

fn main() {
    let mode = cli::init(0).mode;
    let transactions = match mode {
        RunMode::Smoke => 2,
        RunMode::Quick => 8,
        _ => 24,
    };
    let cost = CostModel::sgx_eml_pm();
    println!(
        "Figure 6 — SPS on {} ({} transactions per point)",
        cost.profile, transactions
    );
    println!(
        "{:<20} {:<16} {:>10} {:>12}",
        "PWB+fence", "system", "swaps/tx", "swaps/us"
    );
    match figure6_sweep(&cost, transactions) {
        Ok(results) => {
            for r in results {
                println!(
                    "{:<20} {:<16} {:>10} {:>12.2}",
                    r.pwb.to_string(),
                    r.flavor,
                    r.swaps_per_tx,
                    r.swaps_per_us
                );
            }
        }
        Err(e) => eprintln!("sweep failed: {e}"),
    }
    parallel_hot_path_sweep(mode);
}

/// Wall-clock throughput of the parallelised GEMM at 1/2/4/auto threads, and of the
/// mirror-out beside it, which seals on the calling thread. On a multi-core host the
/// GEMM column scales with the thread count; results are bit-identical at every point
/// (the determinism tests assert this), so the sweep only reports speed.
fn parallel_hot_path_sweep(mode: RunMode) {
    let (dim, conv_layers, filters, reps) = match mode {
        RunMode::Smoke => (64usize, 2usize, 8usize, 1u32),
        RunMode::Quick => (192, 6, 32, 2),
        _ => (256, 12, 64, 3),
    };
    let auto = plinius_parallel::max_threads();
    let mut threads: Vec<usize> = vec![1, 2, 4, auto];
    threads.sort_unstable();
    threads.dedup();

    let mut rng = StdRng::seed_from_u64(6);
    let a: Vec<f32> = (0..dim * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b: Vec<f32> = (0..dim * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut out = vec![0.0f32; dim * dim];

    let network =
        build_network(&mnist_cnn_config(conv_layers, filters, 1), &mut rng).expect("sweep model");
    let model_bytes = network.model_bytes();
    let ctx = PliniusContext::small_test(model_bytes * 3 + (8 << 20));
    ctx.provision_key_directly(Key::generate_128(&mut rng));
    let mirror = MirrorModel::allocate(&ctx, &network).expect("mirror allocation");

    println!();
    println!(
        "Parallel hot-path sweep (wall-clock; gemm {dim}x{dim}x{dim} on the {} engine, \
         model {:.1} MB, auto = {auto} threads)",
        plinius_darknet::selected_gemm().name(),
        model_bytes as f64 / (1024.0 * 1024.0)
    );
    println!("{:<10} {:>14}", "threads", "gemm GFLOP/s");
    for &t in &threads {
        let start = Instant::now();
        for _ in 0..reps {
            gemm_with_threads(
                t, false, false, dim, dim, dim, 1.0, &a, dim, &b, dim, 0.0, &mut out, dim,
            );
        }
        let gemm_s = start.elapsed().as_secs_f64() / reps as f64;
        let gflops = (2 * dim * dim * dim) as f64 / gemm_s / 1e9;
        let label = if t == auto {
            format!("{t} (auto)")
        } else {
            t.to_string()
        };
        println!("{label:<10} {gflops:>14.2}");
    }

    let start = Instant::now();
    for _ in 0..reps {
        mirror.mirror_out(&ctx, &network).expect("mirror-out");
    }
    let seal_s = start.elapsed().as_secs_f64() / reps as f64;
    let seal_mibs = model_bytes as f64 / seal_s / (1024.0 * 1024.0);
    println!("mirror-out (seal + publish, one thread): {seal_mibs:.1} MiB/s");
}
