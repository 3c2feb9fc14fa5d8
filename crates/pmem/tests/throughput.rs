//! Release-mode bandwidth gate for the PM pool's write path: a fused `persist` of a
//! mirror-sized buffer must reach at least a quarter of the bandwidth of a plain
//! `copy_from_slice` of the same buffer. Both are timed in the same process, so the
//! host's speed cancels out of the ratio.
//!
//! The test is `#[ignore]`d: wall-clock ratios are only meaningful in release builds,
//! so the CI release job runs it explicitly with
//! `cargo test --release -p plinius-pmem -- --ignored`.

use plinius_pmem::PmemPool;
use std::hint::black_box;
use std::time::Instant;

/// Best-of-N wall-clock seconds for one run of `f`.
fn best_of<F: FnMut()>(n: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

#[test]
#[ignore = "wall-clock throughput gate; run with --release (see CI release job)"]
fn persist_reaches_a_quarter_of_memcpy_bandwidth_on_4mib() {
    const LEN: usize = 4 << 20;
    let data: Vec<u8> = (0..LEN).map(|i| i as u8).collect();
    let mut copy = vec![0u8; LEN];
    let pool = PmemPool::new(LEN).unwrap();
    // Untimed first passes fault in the destination pages of both.
    copy.copy_from_slice(&data);
    pool.persist(0, &data).unwrap();
    assert_eq!(pool.read_vec(0, LEN).unwrap(), data);

    let memcpy_s = best_of(15, || {
        black_box(&mut copy).copy_from_slice(black_box(&data))
    });
    let persist_s = best_of(15, || pool.persist(0, black_box(&data)).unwrap());
    let ratio = memcpy_s / persist_s;
    let mib = (LEN >> 20) as f64;
    println!(
        "PM write path, 4 MiB: copy_from_slice {:.0} MiB/s | persist {:.0} MiB/s \
         ({ratio:.2} of copy_from_slice)",
        mib / memcpy_s,
        mib / persist_s,
    );
    assert!(
        ratio >= 0.25,
        "persist must reach at least 1/4 of copy_from_slice bandwidth on 4 MiB (got {ratio:.2})"
    );
}
