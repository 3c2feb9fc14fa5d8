//! Epoch-ring / VFS cost sweep: what a deeper epoch ring costs and retains.
//!
//! For each ring depth `R` the sweep allocates a fresh PM mirror, publishes enough
//! epochs to wrap the ring, and reports
//!
//! * the simulated per-publish cost (seal + PM write + the epoch-flip transaction),
//! * the recovery-scan cost (re-opening the mirror from its PM root and listing the
//!   retained epochs, as a restarted process would), and
//! * how many sealed bytes the ring pins in PM — the capacity price of time-travel —
//!   measured through the VFS the way an external inspector would see it.
//!
//! `--ring N` (or `PLINIUS_RING`) does not apply here: this binary sweeps ring depths
//! itself.

use plinius::{MirrorModel, MirrorVfs, PliniusContext, PliniusError, Vfs};
use plinius_bench::{cli, RunMode};
use plinius_crypto::Key;
use plinius_darknet::config::{build_network, mnist_cnn_config};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_clock::CostModel;

struct RingPoint {
    ring: usize,
    publishes: u64,
    publish_ms: f64,
    scan_ms: f64,
    scan_wall_us: f64,
    epochs_retained: usize,
    bytes_retained: usize,
}

fn ring_point(cost: &CostModel, ring: usize, publishes: u64) -> Result<RingPoint, PliniusError> {
    let mut rng = StdRng::seed_from_u64(ring as u64 ^ 0x5eed);
    let network = build_network(&mnist_cnn_config(2, 8, 4), &mut rng)?;
    let model_bytes = network.model_bytes();
    // Twin Romulus regions, each holding the R ring slots of the sealed model + slack.
    let pool_bytes = model_bytes * (2 * ring + 1) + (4 << 20);
    let ctx = PliniusContext::create(cost.clone(), pool_bytes)?;
    ctx.provision_key_directly(Key::generate_128(&mut rng));
    let mirror = MirrorModel::allocate_with_ring(&ctx, &network, ring)?;
    let mut network = network;
    let clock = ctx.clock();

    // Publish cost: enough epochs to wrap the ring at least once.
    let publish_start = clock.now_ns();
    for i in 1..=publishes {
        network.set_iteration(i);
        mirror.mirror_out(&ctx, &network)?;
    }
    let publish_ns = clock.now_ns() - publish_start;

    // Recovery scan: what a restarted process pays to find its epochs again —
    // re-open the mirror from the PM root and enumerate the ring.
    let wall_start = std::time::Instant::now();
    let scan_start = clock.now_ns();
    let reopened = MirrorModel::open(&ctx)?;
    let epochs = reopened.epochs(&ctx)?;
    let scan_ns = clock.now_ns() - scan_start;
    let scan_wall_us = wall_start.elapsed().as_secs_f64() * 1e6;

    // Bytes retained, measured through the VFS like an external inspector would:
    // every sealed file of every retained epoch directory.
    let vfs = MirrorVfs::new(&ctx, &reopened);
    let mut bytes_retained = 0usize;
    for dir in vfs.list("/epoch")? {
        for entry in vfs.list(&format!("/epoch/{}", dir.name))? {
            if entry.name.ends_with(".sealed") {
                bytes_retained += entry.len;
            }
        }
    }

    Ok(RingPoint {
        ring,
        publishes,
        publish_ms: publish_ns as f64 / publishes as f64 / 1e6,
        scan_ms: scan_ns as f64 / 1e6,
        scan_wall_us,
        epochs_retained: epochs.len(),
        bytes_retained,
    })
}

fn main() {
    let mode = cli::init(0).mode;
    let rings: &[usize] = match mode {
        RunMode::Smoke => &[2, 4],
        RunMode::Quick => &[2, 4, 8],
        _ => &[2, 4, 8, 16, 32],
    };
    for cost in CostModel::both_servers() {
        println!(
            "\nEpoch-ring sweep — {} (simulated costs; scan wall-clock for reference)",
            cost.profile
        );
        println!(
            "{:>5} {:>10} {:>12} {:>10} {:>13} {:>9} {:>14}",
            "R",
            "publishes",
            "publish(ms)",
            "scan(ms)",
            "scan-wall(us)",
            "epochs",
            "bytes-retained"
        );
        for &ring in rings {
            // Wrap every ring at least once so eviction costs are in the numbers.
            let publishes = (2 * ring).max(4) as u64;
            match ring_point(&cost, ring, publishes) {
                Ok(p) => println!(
                    "{:>5} {:>10} {:>12.3} {:>10.3} {:>13.1} {:>9} {:>14}",
                    p.ring,
                    p.publishes,
                    p.publish_ms,
                    p.scan_ms,
                    p.scan_wall_us,
                    p.epochs_retained,
                    p.bytes_retained
                ),
                Err(e) => eprintln!("ring depth {ring} failed: {e}"),
            }
        }
    }
}
