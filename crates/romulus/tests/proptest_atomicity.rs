//! Crash-atomicity property tests: no matter where a crash is injected inside a
//! transaction (before, during or after the user's stores, or during the back-region
//! copy), recovery always yields either the complete pre-transaction state or the
//! complete post-transaction state — never a mix. And a read session charges the
//! enclave exactly as the reads it stands for do.

use plinius_pmem::{CrashMode, PmemPool};
use plinius_romulus::{FailPoint, Flavor, PmPtr, Romulus, RomulusError};
use plinius_sgx::Enclave;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_clock::CostModel;

const REGION: usize = 32 * 1024;
const CELLS: usize = 32;

fn setup() -> (Romulus, Vec<PmPtr>) {
    let pool = PmemPool::new(256 + 2 * REGION).unwrap();
    let rom = Romulus::create(pool, REGION, Flavor::Native).unwrap();
    let ptrs = rom
        .transaction(|tx| {
            let mut ptrs = Vec::with_capacity(CELLS);
            for i in 0..CELLS as u64 {
                let p = tx.alloc(8)?;
                tx.write_u64(p, i)?;
                ptrs.push(p);
            }
            tx.set_root(0, ptrs[0])?;
            Ok(ptrs)
        })
        .unwrap();
    (rom, ptrs)
}

fn read_all(rom: &Romulus, ptrs: &[PmPtr]) -> Vec<u64> {
    ptrs.iter().map(|p| rom.read_u64(*p).unwrap()).collect()
}

// Variant names deliberately mirror the `FailPoint::After*` constructors.
#[allow(clippy::enum_variant_names)]
#[derive(Debug, Clone, Copy)]
enum InjectedPoint {
    AfterMutating,
    AfterStores(usize),
    AfterCopying,
    AfterBackCopies(usize),
}

fn failpoint_strategy() -> impl Strategy<Value = InjectedPoint> {
    prop_oneof![
        Just(InjectedPoint::AfterMutating),
        (0usize..CELLS).prop_map(InjectedPoint::AfterStores),
        Just(InjectedPoint::AfterCopying),
        (0usize..CELLS).prop_map(InjectedPoint::AfterBackCopies),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A crash at any injection point, followed by a power-failure with arbitrary cache
    /// eviction and recovery, leaves the cells in either the old or the new state,
    /// atomically.
    #[test]
    fn recovery_is_atomic(
        point in failpoint_strategy(),
        new_values in proptest::collection::vec(any::<u64>(), CELLS),
        crash_seed in any::<u64>(),
        arbitrary_eviction in any::<bool>(),
    ) {
        let (rom, ptrs) = setup();
        let old: Vec<u64> = (0..CELLS as u64).collect();

        let fp = match point {
            InjectedPoint::AfterMutating => FailPoint::AfterMutatingState,
            InjectedPoint::AfterStores(n) => FailPoint::AfterStores(n),
            InjectedPoint::AfterCopying => FailPoint::AfterCopyingState,
            InjectedPoint::AfterBackCopies(n) => FailPoint::AfterBackCopies(n),
        };
        rom.inject_failure(fp);
        let outcome = rom.transaction(|tx| {
            for (p, v) in ptrs.iter().zip(new_values.iter()) {
                tx.write_u64(*p, *v)?;
            }
            Ok(())
        });
        prop_assert_eq!(outcome.unwrap_err(), RomulusError::InjectedCrash);

        // Power failure: unflushed lines are lost or arbitrarily evicted.
        let mode = if arbitrary_eviction { CrashMode::ArbitraryEviction } else { CrashMode::DropUnflushed };
        let mut rng = StdRng::seed_from_u64(crash_seed);
        rom.pool().crash(&mut rng, mode);
        rom.recover().unwrap();

        let after = read_all(&rom, &ptrs);
        let is_old = after == old;
        let is_new = after == new_values;
        prop_assert!(is_old || is_new, "recovered state is a mix: {:?}", after);
    }

    /// Without crashes, a sequence of committed transactions is always fully visible.
    #[test]
    fn committed_transactions_are_durable(updates in proptest::collection::vec(
        (0usize..CELLS, any::<u64>()), 1..40)
    ) {
        let (rom, ptrs) = setup();
        let mut shadow: Vec<u64> = (0..CELLS as u64).collect();
        for (idx, value) in updates {
            rom.transaction(|tx| tx.write_u64(ptrs[idx], value)).unwrap();
            shadow[idx] = value;
            // A clean power failure between transactions must not lose anything.
            let mut rng = StdRng::seed_from_u64(value);
            rom.pool().crash(&mut rng, CrashMode::DropUnflushed);
            rom.recover().unwrap();
            prop_assert_eq!(read_all(&rom, &ptrs), shadow.clone());
        }
    }

    /// A read session charges and counts like per-range reads. On twin sgx-romulus
    /// deployments whose main region holds committed cells and dirty lines of bare
    /// pool stores, `read_ranges_with` hands its closure exactly the bytes `read_with`
    /// returns for each range, and moves the clock, `pm.bytes_read` and the enclave's
    /// PM-read charge exactly as one `read_with` per range does.
    #[test]
    fn a_read_session_charges_like_per_range_reads(
        values in proptest::collection::vec(any::<u64>(), CELLS..=CELLS),
        stores in proptest::collection::vec((0usize..REGION, 1usize..100), 0..6),
        ranges in proptest::collection::vec((0usize..=REGION, 0usize..300), 0..8),
    ) {
        let ranges: Vec<(PmPtr, usize)> = ranges
            .into_iter()
            .map(|(at, len)| (PmPtr::from_offset(at as u64), len.min(REGION - at)))
            .collect();
        let twins = [sgx_deployment(&values, &stores), sgx_deployment(&values, &stores)];
        let [session, per_range] = &twins;
        let expected: Vec<Vec<u8>> = ranges
            .iter()
            .map(|&(ptr, len)| per_range.read_with(ptr, len, <[u8]>::to_vec).unwrap())
            .collect();
        let got = session
            .read_ranges_with(ranges.iter().copied(), |reads| {
                reads.map(<[u8]>::to_vec).collect::<Vec<_>>()
            })
            .unwrap();
        prop_assert_eq!(got, expected);
        let [a, b] = twins.map(|rom| {
            let enclave = rom.flavor().enclave().expect("sgx flavour").clone();
            (enclave.stats().snapshot().to_vec(), enclave.clock().now_ns())
        });
        prop_assert_eq!(a, b);
    }
}

/// An sgx-romulus deployment on one clock and counter table with its enclave, in the
/// emlSGX-PM profile: the cells of `values` committed, then bare stores of
/// `(region offset, len)` left dirty in the main region.
fn sgx_deployment(values: &[u64], stores: &[(usize, usize)]) -> Romulus {
    let cost = CostModel::sgx_eml_pm();
    let enclave = Enclave::builder(b"romulus-read-session".to_vec())
        .cost_model(cost.clone())
        .build();
    let pool = PmemPool::builder(256 + 2 * REGION)
        .clock(enclave.clock())
        .stats(enclave.stats())
        .cost_model(cost)
        .build()
        .unwrap();
    let rom = Romulus::create(pool, REGION, Flavor::Sgx(enclave)).unwrap();
    rom.transaction(|tx| {
        for &v in values {
            let p = tx.alloc(8)?;
            tx.write_u64(p, v)?;
        }
        Ok(())
    })
    .unwrap();
    let main = rom.pool().len() - 2 * REGION;
    for &(at, len) in stores {
        let len = len.min(REGION - at);
        rom.pool().write(main + at, &vec![0xD7; len]).unwrap();
    }
    rom
}
