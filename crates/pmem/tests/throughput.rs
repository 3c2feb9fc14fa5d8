//! Release-mode bandwidth gates for the PM pool's data path, on mirror-sized buffers:
//!
//! * a fused `persist` must reach at least a quarter of the bandwidth of a plain
//!   `copy_from_slice` of the same buffer;
//! * a Romulus-style publish through the in-place calls — a `persist_with` filled by a
//!   copy, then the in-pool copy to a second range — must reach at least a quarter of
//!   the bandwidth of two `copy_from_slice` calls;
//! * a `read_with` whose closure reads one byte must take under a tenth of the time of
//!   a `read` of the same range, so that no copy creeps back into the in-place read.
//!
//! Each side of a ratio is timed in the same process, so the host's speed cancels out.
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

#[test]
#[ignore = "wall-clock throughput gate; run with --release (see CI release job)"]
fn in_place_publish_reaches_a_quarter_of_two_memcpys_on_4mib() {
    const LEN: usize = 4 << 20;
    let data: Vec<u8> = (0..LEN).map(|i| i as u8).collect();
    let (mut main, mut back) = (vec![0u8; LEN], vec![0u8; LEN]);
    let pool = PmemPool::new(2 * LEN).unwrap();
    let publish = || {
        pool.persist_with(0, LEN, |dst| dst.copy_from_slice(black_box(&data)))
            .unwrap();
        pool.persist_copy(0, LEN, LEN).unwrap();
    };
    // Untimed first passes fault in the destination pages of both.
    main.copy_from_slice(&data);
    back.copy_from_slice(&main);
    publish();
    assert_eq!(pool.read_vec(LEN, LEN).unwrap(), data);

    let memcpy_s = best_of(15, || {
        black_box(&mut main).copy_from_slice(black_box(&data));
        black_box(&mut back).copy_from_slice(black_box(&main));
    });
    let publish_s = best_of(15, publish);
    let ratio = memcpy_s / publish_s;
    let mib = (2 * (LEN >> 20)) as f64;
    println!(
        "PM in-place publish, 2 x 4 MiB: copy_from_slice {:.0} MiB/s | persist_with + \
         persist_copy {:.0} MiB/s ({ratio:.2} of copy_from_slice)",
        mib / memcpy_s,
        mib / publish_s,
    );
    assert!(
        ratio >= 0.25,
        "persist_with + persist_copy must reach at least 1/4 of two copy_from_slice calls \
         on 4 MiB (got {ratio:.2})"
    );
}

#[test]
#[ignore = "wall-clock throughput gate; run with --release (see CI release job)"]
fn in_place_read_copies_nothing_on_4mib() {
    const LEN: usize = 4 << 20;
    let data: Vec<u8> = (0..LEN).map(|i| i as u8).collect();
    let mut buf = vec![0u8; LEN];
    let pool = PmemPool::new(LEN).unwrap();
    pool.persist(0, &data).unwrap();
    // An untimed first pass faults in the destination pages.
    pool.read(0, &mut buf).unwrap();
    assert_eq!(
        pool.read_with(0, LEN, |bytes| bytes[LEN / 2]).unwrap(),
        data[LEN / 2]
    );

    let read_s = best_of(15, || pool.read(0, black_box(&mut buf)).unwrap());
    let read_with_s = best_of(15, || {
        black_box(pool.read_with(0, LEN, |bytes| bytes[LEN / 2]).unwrap());
    });
    let ratio = read_with_s / read_s;
    println!(
        "PM in-place read, 4 MiB: read {:.1} us | read_with of one byte {:.2} us \
         ({ratio:.4} of read)",
        read_s * 1e6,
        read_with_s * 1e6,
    );
    assert!(
        ratio < 0.1,
        "a read_with that reads one byte must take under 1/10 of a 4 MiB read (got {ratio:.4})"
    );
}
