//! Property tests for the persistent-memory simulator: flushed data always survives a
//! crash, unflushed data never corrupts neighbouring flushed data, reads always
//! observe the most recent stores, and the fused and in-place calls leave a pool
//! exactly as the calls they stand for do.

use plinius_pmem::{CrashMode, PmemPool, CACHE_LINE};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_clock::{CostModel, Metric};

const POOL_SIZE: usize = 64 * 1024;
/// The persist-equivalence twins' size: not a multiple of the line size.
const TWIN_POOL: usize = 8 * 1024 + 40;

#[derive(Debug, Clone)]
struct WriteOp {
    offset: usize,
    data: Vec<u8>,
    flushed: bool,
}

/// A pool with its own clock and counters, charging the emlSGX-PM costs (every store,
/// write-back and fence takes simulated time).
fn twin() -> PmemPool {
    PmemPool::builder(TWIN_POOL)
        .cost_model(CostModel::eml_sgx_pm())
        .build()
        .unwrap()
}

/// Everything a persist may change in a pool: the media, the number of dirty lines,
/// every counter and the clock.
fn persisted_state(pool: &PmemPool) -> (Vec<u8>, usize, Vec<(Metric, u64)>, u64) {
    (
        pool.media_snapshot(),
        pool.dirty_lines(),
        pool.stats_registry().snapshot().to_vec(),
        pool.clock().now_ns(),
    )
}

/// Bare stores for the twins, each clipped to the pool.
fn bare_stores() -> impl Strategy<Value = Vec<(usize, Vec<u8>)>> {
    proptest::collection::vec(
        (
            0usize..TWIN_POOL,
            proptest::collection::vec(any::<u8>(), 0..200),
        ),
        0..8,
    )
    .prop_map(|stores| {
        stores
            .into_iter()
            .map(|(at, mut bytes)| {
                bytes.truncate(TWIN_POOL - at);
                (at, bytes)
            })
            .collect()
    })
}

/// Stores of `head` and `tail` bytes that dirty the head of the first line and the tail
/// of the last line that `[offset, offset + len)` covers (a store of zero bytes dirties
/// nothing).
fn end_line_stores(offset: usize, len: usize, head: usize, tail: usize) -> [(usize, Vec<u8>); 2] {
    let first_line_start = offset / CACHE_LINE * CACHE_LINE;
    let last_line_end = ((offset + len).div_ceil(CACHE_LINE) * CACHE_LINE).min(TWIN_POOL);
    let head = head.min(TWIN_POOL - first_line_start);
    let tail = tail.min(last_line_end);
    [
        (first_line_start, vec![0xF1; head]),
        (last_line_end - tail, vec![0xF2; tail]),
    ]
}

fn write_ops() -> impl Strategy<Value = Vec<WriteOp>> {
    proptest::collection::vec(
        (
            0usize..POOL_SIZE - 256,
            proptest::collection::vec(any::<u8>(), 1..256),
            any::<bool>(),
        )
            .prop_map(|(offset, data, flushed)| WriteOp {
                offset,
                data,
                flushed,
            }),
        1..20,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reads always observe the most recent store, flushed or not.
    #[test]
    fn reads_observe_latest_stores(ops in write_ops()) {
        let pool = PmemPool::new(POOL_SIZE).unwrap();
        let mut shadow = vec![0u8; POOL_SIZE];
        for op in &ops {
            pool.write(op.offset, &op.data).unwrap();
            shadow[op.offset..op.offset + op.data.len()].copy_from_slice(&op.data);
            if op.flushed {
                pool.flush(op.offset, op.data.len()).unwrap();
            }
        }
        for op in &ops {
            let got = pool.read_vec(op.offset, op.data.len()).unwrap();
            prop_assert_eq!(&got[..], &shadow[op.offset..op.offset + op.data.len()]);
        }
    }

    /// After a crash, every byte that was flushed (and not later overwritten) is intact,
    /// regardless of the crash mode.
    #[test]
    fn flushed_data_survives_crashes(ops in write_ops(), seed in any::<u64>(), arbitrary in any::<bool>()) {
        let pool = PmemPool::new(POOL_SIZE).unwrap();
        // Shadow of what *must* be durable: only bytes whose last write was flushed.
        let mut durable: Vec<Option<u8>> = vec![None; POOL_SIZE];
        for op in &ops {
            pool.write(op.offset, &op.data).unwrap();
            if op.flushed {
                pool.flush(op.offset, op.data.len()).unwrap();
                pool.fence();
                for (i, b) in op.data.iter().enumerate() {
                    durable[op.offset + i] = Some(*b);
                }
            } else {
                // An unflushed overwrite invalidates the durability guarantee for these
                // bytes (their final value is undefined after a crash) unless the whole
                // cache line is later flushed again.
                for i in 0..op.data.len() {
                    durable[op.offset + i] = None;
                }
                // Bytes sharing a cache line with the unflushed write may be written back
                // together with it under arbitrary eviction, so drop the guarantee for
                // the touched lines entirely.
                let first = op.offset / CACHE_LINE;
                let last = (op.offset + op.data.len() - 1) / CACHE_LINE;
                for line in first..=last {
                    let end = ((line + 1) * CACHE_LINE).min(POOL_SIZE);
                    durable[line * CACHE_LINE..end].fill(None);
                }
            }
        }
        let mode = if arbitrary { CrashMode::ArbitraryEviction } else { CrashMode::DropUnflushed };
        let mut rng = StdRng::seed_from_u64(seed);
        pool.crash(&mut rng, mode);
        let media = pool.media_snapshot();
        for (addr, expected) in durable.iter().enumerate() {
            if let Some(b) = expected {
                prop_assert_eq!(media[addr], *b, "byte at {} lost after crash", addr);
            }
        }
    }

    /// persist() (write + flush) is equivalent to write() followed by flush(): from the
    /// same unflushed stores, the twins end with the same media, reads, dirty lines,
    /// statistics, `pm.*` counters, clock and crash outcome. The stores may dirty the
    /// persisted range's end lines, whose bytes outside the range must reach the media
    /// too, and the pool's last line is short.
    #[test]
    fn persist_equals_write_plus_flush(
        mut prior in bare_stores(),
        offset in 0usize..=TWIN_POOL,
        mut data in proptest::collection::vec(any::<u8>(), 0..512),
        empty in 0u8..4,
        dirty_first in 0usize..=CACHE_LINE,
        dirty_last in 0usize..=CACHE_LINE,
        seed in any::<u64>(),
    ) {
        // A quarter of the cases persist nothing.
        data.truncate(if empty == 0 { 0 } else { TWIN_POOL - offset });
        // Dirty the head of the range's first line and the tail of its last line.
        prior.extend(end_line_stores(offset, data.len(), dirty_first, dirty_last));

        let twins = [twin(), twin()];
        for pool in &twins {
            for (at, bytes) in &prior {
                pool.write(*at, bytes).unwrap();
            }
        }
        let [fused, split] = twins;
        fused.persist(offset, &data).unwrap();
        split.write(offset, &data).unwrap();
        split.flush(offset, data.len()).unwrap();

        prop_assert_eq!(fused.media_snapshot(), split.media_snapshot());
        prop_assert_eq!(
            fused.read_vec(0, TWIN_POOL).unwrap(),
            split.read_vec(0, TWIN_POOL).unwrap()
        );
        prop_assert_eq!(fused.dirty_lines(), split.dirty_lines());
        prop_assert_eq!(
            fused.stats_registry().snapshot(),
            split.stats_registry().snapshot()
        );
        prop_assert_eq!(fused.clock().now_ns(), split.clock().now_ns());
        // Same dirty lines with the same contents: the same crash leaves the same media.
        fused.crash(&mut StdRng::seed_from_u64(seed), CrashMode::ArbitraryEviction);
        split.crash(&mut StdRng::seed_from_u64(seed), CrashMode::ArbitraryEviction);
        prop_assert_eq!(fused.media_snapshot(), split.media_snapshot());
    }

    /// The in-place calls match the copying ones. From the same unflushed stores,
    /// which dirty the end lines of both ranges, `read_with` sees the bytes `read`
    /// returns and counts the same read. `persist_with` filled by a copy, and the
    /// in-pool copy of the source range, leave the media, dirty lines, counters, clock,
    /// reads and crash outcome exactly as `persist` of those bytes does. The ranges may
    /// overlap and cover lines in part, and the pool's last line is short.
    #[test]
    fn in_place_calls_equal_the_copying_ones(
        mut prior in bare_stores(),
        src in 0usize..=TWIN_POOL,
        dst in 0usize..=TWIN_POOL,
        len in 0usize..512,
        dirty in proptest::collection::vec(0usize..=CACHE_LINE, 4),
        seed in any::<u64>(),
    ) {
        let len = len.min(TWIN_POOL - src).min(TWIN_POOL - dst);
        prior.extend(end_line_stores(src, len, dirty[0], dirty[1]));
        prior.extend(end_line_stores(dst, len, dirty[2], dirty[3]));
        let twins = [twin(), twin(), twin()];
        for pool in &twins {
            for (at, bytes) in &prior {
                pool.write(*at, bytes).unwrap();
            }
        }
        let [copied, filled, in_pool] = twins;
        let bytes = copied.read_vec(src, len).unwrap();
        prop_assert_eq!(filled.read_with(src, len, <[u8]>::to_vec).unwrap(), bytes.clone());
        in_pool.read_with(src, len, |_| ()).unwrap();
        for pool in [&filled, &in_pool] {
            prop_assert_eq!(persisted_state(pool), persisted_state(&copied));
        }

        copied.persist(dst, &bytes).unwrap();
        filled.persist_with(dst, len, |out| out.copy_from_slice(&bytes)).unwrap();
        in_pool.persist_copy(src, dst, len).unwrap();
        let expected = persisted_state(&copied);
        let reads = copied.read_vec(0, TWIN_POOL).unwrap();
        copied.crash(&mut StdRng::seed_from_u64(seed), CrashMode::ArbitraryEviction);
        for pool in [&filled, &in_pool] {
            prop_assert_eq!(persisted_state(pool), expected.clone());
            prop_assert_eq!(pool.read_vec(0, TWIN_POOL).unwrap(), reads.clone());
            pool.crash(&mut StdRng::seed_from_u64(seed), CrashMode::ArbitraryEviction);
            prop_assert_eq!(pool.media_snapshot(), copied.media_snapshot());
        }
    }
}
