//! The Romulus persistent transactional memory engine.
//!
//! Romulus [Correia et al., SPAA'18] keeps **twin copies** of the user data in PM: the
//! *main* region, where user code performs in-place modifications, and the *back* region,
//! a snapshot of the last consistent state. A volatile redo log records which ranges of
//! main were modified by the current transaction so that commit only has to copy those
//! ranges into back. The durable commit protocol uses at most four persistence fences
//! regardless of the transaction size:
//!
//! 1. persist `state = MUTATING`, fence;
//! 2. apply the user's stores to main with interposed persistent write-backs, fence;
//! 3. persist `state = COPYING`, fence, copy the logged ranges main → back with
//!    write-backs;
//! 4. fence, persist `state = IDLE`.
//!
//! Recovery inspects the persisted state word: a crash during MUTATING restores main from
//! back (the snapshot), a crash during COPYING re-copies main onto back (main is already
//! consistent), and IDLE needs no work.
//!
//! This reimplementation is what the paper calls **sgx-romulus** when instantiated with
//! [`Flavor::Sgx`]: the engine runs inside the simulated enclave, its volatile log lives
//! in enclave memory, and every PM access pays the enclave-side cost. [`Flavor::Scone`]
//! models the unmodified library running in a SCONE container, whose constrained volatile
//! log degrades large transactions (the effect visible in Fig. 6).

use crate::{Flavor, RomulusError};
use parking_lot::Mutex;
use plinius_pmem::PmemPool;
use sim_clock::Metric;
use std::sync::Arc;

/// Magic number identifying an initialised Romulus pool.
const MAGIC: u64 = 0x524f_4d55_4c55_5321; // "ROMULUS!"

/// Number of persistent object roots kept in the directory. Plinius itself uses a
/// handful (the mirror model list head, the PM data matrix, the iteration
/// counter...), but the multi-tenant fleet layer carves the directory into
/// per-tenant root pairs, so the directory is sized for dozens of tenants.
pub const NUM_ROOTS: usize = 64;

/// Size of the persistent header at the start of the pool.
const HEADER_SIZE: usize = 256;

/// Byte offset of the allocator's bump pointer within the main region.
const ALLOC_META_OFFSET: usize = 0;
/// Byte offset of the root directory within the main region.
const ROOTS_OFFSET: usize = 8;
/// First byte available to user allocations within the main region: the allocator
/// bump word plus the `NUM_ROOTS` root directory (8 + 64 * 8 = 520 bytes), rounded
/// up to the allocation alignment.
pub const DATA_START: usize = 576;

/// Default alignment of persistent allocations (one cache line).
pub const ALLOC_ALIGN: usize = 64;

/// Consistency state persisted in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
enum State {
    Idle = 0,
    Mutating = 1,
    Copying = 2,
}

impl State {
    fn from_u64(v: u64) -> Result<Self, RomulusError> {
        match v {
            0 => Ok(State::Idle),
            1 => Ok(State::Mutating),
            2 => Ok(State::Copying),
            other => Err(RomulusError::Corrupted(format!(
                "invalid persisted state word {other}"
            ))),
        }
    }
}

/// A pointer into the persistent heap: an offset relative to the start of the main
/// region, valid in both twin copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PmPtr {
    offset: u64,
}

impl PmPtr {
    /// The null pointer (offset 0 is never handed out to user data).
    pub const NULL: PmPtr = PmPtr { offset: 0 };

    /// Creates a pointer from a raw main-region offset.
    pub fn from_offset(offset: u64) -> Self {
        PmPtr { offset }
    }

    /// The raw offset within the main region.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Whether this is the null pointer.
    pub fn is_null(&self) -> bool {
        self.offset == 0
    }

    /// Pointer `delta` bytes further into the allocation. Saturates at `u64::MAX`, so
    /// an offset read from host-written PM that would overflow fails every range check
    /// with [`RomulusError::OutOfRegion`] instead of wrapping or panicking.
    pub fn add(&self, delta: u64) -> PmPtr {
        PmPtr {
            offset: self.offset.saturating_add(delta),
        }
    }
}

/// Crash-injection points used by the fault-injection tests and the robustness example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailPoint {
    /// Crash right after the state word was set to MUTATING (no user stores applied).
    AfterMutatingState,
    /// Crash after the first `n` logged store operations of the transaction body.
    AfterStores(usize),
    /// Crash right after the state word was set to COPYING (back not yet updated).
    AfterCopyingState,
    /// Crash after copying the first `n` logged ranges into the back region.
    AfterBackCopies(usize),
    /// Crash after the first `n` [`Romulus::publish_region`] calls (direct twin
    /// writes outside any transaction) — models a power failure in the middle of a
    /// double-buffered bulk publish, before the epoch-flip transaction runs.
    AfterDirectPublishes(usize),
}

/// A volatile redo-log entry: one modified range of the main region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LogEntry {
    offset: u64,
    len: u64,
}

#[derive(Debug, Default)]
struct RedoLog {
    entries: Vec<LogEntry>,
    bytes: u64,
}

impl RedoLog {
    fn record(&mut self, offset: u64, len: u64) {
        self.entries.push(LogEntry { offset, len });
        self.bytes += len;
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
    }
}

#[derive(Debug)]
struct Layout {
    main_start: usize,
    back_start: usize,
    region_size: usize,
}

/// The Romulus engine bound to one persistent-memory pool.
#[derive(Clone)]
pub struct Romulus {
    pool: PmemPool,
    flavor: Flavor,
    layout: Arc<Layout>,
    log: Arc<Mutex<RedoLog>>,
    failpoint: Arc<Mutex<Option<FailPoint>>>,
}

impl std::fmt::Debug for Romulus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Romulus")
            .field("region_size", &self.layout.region_size)
            .field("flavor", &self.flavor.name())
            .finish()
    }
}

impl Romulus {
    /// Formats (or re-opens) a Romulus pool over `pool` with twin regions of
    /// `region_size` bytes each, running under the given [`Flavor`].
    ///
    /// If the pool already contains a valid Romulus header the existing contents are
    /// recovered (running crash recovery if needed); otherwise the pool is initialised
    /// from scratch.
    ///
    /// # Errors
    ///
    /// Returns [`RomulusError::PoolTooSmall`] if the pool cannot hold the header plus two
    /// regions of the requested size, or a [`RomulusError::Pmem`]/[`RomulusError::Corrupted`]
    /// error if the header is unreadable.
    pub fn create(
        pool: PmemPool,
        region_size: usize,
        flavor: Flavor,
    ) -> Result<Self, RomulusError> {
        let needed = HEADER_SIZE + 2 * region_size;
        if pool.len() < needed {
            return Err(RomulusError::PoolTooSmall {
                capacity: pool.len(),
                needed,
            });
        }
        if region_size < DATA_START + ALLOC_ALIGN {
            return Err(RomulusError::PoolTooSmall {
                capacity: region_size,
                needed: DATA_START + ALLOC_ALIGN,
            });
        }
        let layout = Arc::new(Layout {
            main_start: HEADER_SIZE,
            back_start: HEADER_SIZE + region_size,
            region_size,
        });
        let engine = Romulus {
            pool,
            flavor,
            layout,
            log: Arc::new(Mutex::new(RedoLog::default())),
            failpoint: Arc::new(Mutex::new(None)),
        };
        // The volatile log lives in enclave memory for the SGX/SCONE flavours.
        engine.flavor.register_log_memory();
        let magic = engine.read_header_u64(0)?;
        if magic == MAGIC {
            engine.recover()?;
        } else {
            engine.format()?;
        }
        Ok(engine)
    }

    /// The flavour (native / SGX / SCONE) this engine runs under.
    pub fn flavor(&self) -> &Flavor {
        &self.flavor
    }

    /// The underlying persistent-memory pool.
    pub fn pool(&self) -> &PmemPool {
        &self.pool
    }

    /// Size of each twin region in bytes.
    pub fn region_size(&self) -> usize {
        self.layout.region_size
    }

    /// Bytes still available for allocation in the persistent heap.
    pub fn free_bytes(&self) -> Result<u64, RomulusError> {
        let next = self.read_main_u64(ALLOC_META_OFFSET as u64)?;
        Ok(self.layout.region_size as u64 - next)
    }

    /// Arms a crash-injection point: the next transaction will stop at that point and
    /// return [`RomulusError::InjectedCrash`], leaving the pool exactly as a power
    /// failure at that instant would. Used by the fault-injection tests.
    pub fn inject_failure(&self, point: FailPoint) {
        *self.failpoint.lock() = Some(point);
    }

    // ------------------------------------------------------------------ formatting

    fn format(&self) -> Result<(), RomulusError> {
        // Zero the allocator metadata and roots in both regions, then publish the header.
        let zero = vec![0u8; DATA_START];
        self.pool.persist(self.layout.main_start, &zero)?;
        self.pool.persist(self.layout.back_start, &zero)?;
        // Bump pointer starts at DATA_START.
        self.write_main_u64_raw(ALLOC_META_OFFSET as u64, DATA_START as u64)?;
        self.copy_main_to_back(ALLOC_META_OFFSET as u64, 8)?;
        self.write_header_u64(8, State::Idle as u64)?;
        self.write_header_u64(16, self.layout.region_size as u64)?;
        self.write_header_u64(0, MAGIC)?;
        self.pool.fence();
        Ok(())
    }

    // ------------------------------------------------------------------ recovery

    /// Runs the Romulus recovery procedure. Called automatically by [`Romulus::create`];
    /// exposed so that crash tests can re-run it explicitly after injecting a failure.
    ///
    /// # Errors
    ///
    /// Returns [`RomulusError::Corrupted`] if the persisted state word is invalid.
    pub fn recover(&self) -> Result<(), RomulusError> {
        let persisted_size = self.read_header_u64(16)?;
        if persisted_size != self.layout.region_size as u64 {
            return Err(RomulusError::Corrupted(format!(
                "region size mismatch: header says {persisted_size}, caller says {}",
                self.layout.region_size
            )));
        }
        let state = State::from_u64(self.read_header_u64(8)?)?;
        match state {
            State::Idle => {}
            State::Mutating => {
                // main may be partially modified: restore the snapshot from back.
                self.copy_back_to_main_full()?;
            }
            State::Copying => {
                // main is consistent; finish propagating it into back.
                self.copy_main_to_back_full()?;
            }
        }
        self.write_header_u64(8, State::Idle as u64)?;
        self.pool.fence();
        self.log.lock().clear();
        Ok(())
    }

    // ------------------------------------------------------------------ transactions

    /// Runs `body` as one durable transaction.
    ///
    /// All stores performed through the [`Tx`] handle are made durable atomically: either
    /// every store survives a crash or none does.
    ///
    /// # Errors
    ///
    /// Propagates errors from the body; returns [`RomulusError::InjectedCrash`] if a
    /// crash-injection point was armed with [`Romulus::inject_failure`].
    pub fn transaction<R>(
        &self,
        body: impl FnOnce(&mut Tx<'_>) -> Result<R, RomulusError>,
    ) -> Result<R, RomulusError> {
        let failpoint = {
            let mut armed = self.failpoint.lock();
            // Direct-publish crash points belong to `publish_region`, not to
            // transactions: leave them armed for the next publish instead of
            // consuming them here.
            match armed.take() {
                Some(FailPoint::AfterDirectPublishes(n)) => {
                    *armed = Some(FailPoint::AfterDirectPublishes(n));
                    None
                }
                other => other,
            }
        };
        self.log.lock().clear();
        // Fence #1: publish MUTATING before any user store reaches main.
        self.write_header_u64(8, State::Mutating as u64)?;
        self.pool.fence();
        self.flavor.charge_fence();
        if failpoint == Some(FailPoint::AfterMutatingState) {
            return Err(RomulusError::InjectedCrash);
        }
        let mut tx = Tx {
            engine: self,
            stores: 0,
            crash_after_stores: match failpoint {
                Some(FailPoint::AfterStores(n)) => Some(n),
                _ => None,
            },
            crashed: false,
        };
        let result = body(&mut tx);
        let crashed_in_body = tx.crashed;
        match result {
            Ok(value) => {
                if crashed_in_body {
                    return Err(RomulusError::InjectedCrash);
                }
                self.commit(failpoint)?;
                Ok(value)
            }
            Err(err) => {
                if crashed_in_body || matches!(err, RomulusError::InjectedCrash) {
                    // Leave the pool as the crash left it; do not roll back volatile-ly.
                    return Err(RomulusError::InjectedCrash);
                }
                // Logical abort: restore main from back (the snapshot is intact) and
                // return to IDLE.
                self.copy_back_to_main_full()?;
                self.write_header_u64(8, State::Idle as u64)?;
                self.pool.fence();
                self.log.lock().clear();
                Err(err)
            }
        }
    }

    fn commit(&self, failpoint: Option<FailPoint>) -> Result<(), RomulusError> {
        // Fence #2: all user stores are durable in main before we switch to COPYING.
        self.pool.fence();
        self.flavor.charge_fence();
        self.write_header_u64(8, State::Copying as u64)?;
        self.pool.fence();
        self.flavor.charge_fence();
        if failpoint == Some(FailPoint::AfterCopyingState) {
            return Err(RomulusError::InjectedCrash);
        }
        // Copy only the logged ranges into back. The log is iterated under its lock
        // (the copies touch only the pool, never the log) so the commit path does not
        // clone the entry list.
        let crash_after_copies = match failpoint {
            Some(FailPoint::AfterBackCopies(n)) => Some(n),
            _ => None,
        };
        let log = self.log.lock();
        for (i, entry) in log.entries.iter().enumerate() {
            if crash_after_copies == Some(i) {
                return Err(RomulusError::InjectedCrash);
            }
            self.copy_main_to_back(entry.offset, entry.len as usize)?;
        }
        drop(log);
        // Fence #4: back is consistent; return to IDLE.
        self.pool.fence();
        self.flavor.charge_fence();
        self.write_header_u64(8, State::Idle as u64)?;
        self.pool.fence();
        self.log.lock().clear();
        Ok(())
    }

    // ------------------------------------------------------------------ reads (outside tx)

    /// Reads `len` bytes at `ptr` from the consistent main region.
    ///
    /// # Errors
    ///
    /// Returns [`RomulusError::OutOfRegion`] if the range leaves the region.
    pub fn read_bytes(&self, ptr: PmPtr, len: usize) -> Result<Vec<u8>, RomulusError> {
        let mut buf = vec![0u8; len];
        self.read_bytes_into(ptr, &mut buf)?;
        Ok(buf)
    }

    /// Reads `buf.len()` bytes at `ptr` from the consistent main region into a
    /// caller-provided buffer — the allocation-free sibling of [`Romulus::read_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`RomulusError::OutOfRegion`] if the range leaves the region.
    pub fn read_bytes_into(&self, ptr: PmPtr, buf: &mut [u8]) -> Result<(), RomulusError> {
        self.read_with(ptr, buf.len(), |bytes| buf.copy_from_slice(bytes))
    }

    /// The in-place read: runs `f` on the `len` bytes at `ptr` of the consistent main
    /// region ([`PmemPool::read_with`]) and returns its result, with the charges of
    /// [`Romulus::read_bytes_into`]. `f` runs under the pool's lock, so it must not
    /// call back into the pool.
    ///
    /// # Errors
    ///
    /// Returns [`RomulusError::OutOfRegion`] if the range leaves the region.
    pub fn read_with<R>(
        &self,
        ptr: PmPtr,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, RomulusError> {
        self.check_range(ptr.offset(), len as u64)?;
        self.flavor.charge_pm_read(len as u64);
        Ok(self
            .pool
            .read_with(self.layout.main_start + ptr.offset() as usize, len, f)?)
    }

    /// Reads a `u64` stored at `ptr`.
    ///
    /// # Errors
    ///
    /// Returns [`RomulusError::OutOfRegion`] if the read leaves the region.
    pub fn read_u64(&self, ptr: PmPtr) -> Result<u64, RomulusError> {
        let mut bytes = [0u8; 8];
        self.read_bytes_into(ptr, &mut bytes)?;
        Ok(u64::from_le_bytes(bytes))
    }

    // ------------------------------------------------------------- direct publishes

    /// Persists `data` at `ptr` in **both** twin regions, outside any transaction and
    /// without touching the redo log: [`Romulus::publish_with`] with a closure that
    /// copies `data`.
    ///
    /// # Errors
    ///
    /// Same as [`Romulus::publish_with`].
    pub fn publish_region(&self, ptr: PmPtr, data: &[u8]) -> Result<(), RomulusError> {
        self.publish_with(ptr, data.len(), |dst| dst.copy_from_slice(data))
    }

    /// The in-place publish: `f` writes the `len` bytes at `ptr` straight into the main
    /// region ([`PmemPool::persist_with`]), then the pool copies them into the back
    /// twin ([`PmemPool::persist_copy`]), outside any transaction and without touching
    /// the redo log — the bulk-write half of a double-buffered publish protocol.
    /// Returns `f`'s result; the range is published whatever `f` returns. `f` runs
    /// under the pool's lock, so it must not call back into the pool.
    ///
    /// # Consistency contract
    ///
    /// The written range must be *unreachable* from any committed pointer until a
    /// subsequent **transaction** publishes a pointer/epoch referring to it (the
    /// "flip"). Under that discipline every crash is safe:
    ///
    /// * a crash during the publish leaves torn bytes only in a range nothing points
    ///   to — the previously committed state is untouched in both regions;
    /// * because main and back receive identical bytes, the full-region
    ///   back→main/main→back copies of Romulus recovery (and of a logical abort)
    ///   cannot resurrect stale data into a published range.
    ///
    /// Compared to streaming the same bytes through [`Tx::write_bytes`], this skips
    /// the per-store redo-log bookkeeping and the read-back main→back copy at commit
    /// while still paying the twin write (Romulus' inherent 2× write amplification).
    ///
    /// May not be called from inside a transaction body.
    ///
    /// # Errors
    ///
    /// Returns [`RomulusError::OutOfRegion`] if the range leaves the region, and
    /// [`RomulusError::InjectedCrash`] once an armed
    /// [`FailPoint::AfterDirectPublishes`] triggers.
    pub fn publish_with<R>(
        &self,
        ptr: PmPtr,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, RomulusError> {
        {
            let mut armed = self.failpoint.lock();
            if let Some(FailPoint::AfterDirectPublishes(n)) = *armed {
                if n == 0 {
                    armed.take();
                    return Err(RomulusError::InjectedCrash);
                }
                *armed = Some(FailPoint::AfterDirectPublishes(n - 1));
            }
        }
        self.check_range(ptr.offset(), len as u64)?;
        self.flavor.charge_pm_write(len as u64);
        let main = self.layout.main_start + ptr.offset() as usize;
        let out = self.pool.persist_with(main, len, f)?;
        self.pool
            .persist_copy(main, self.layout.back_start + ptr.offset() as usize, len)?;
        Ok(out)
    }

    /// Reads the persistent object root at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`RomulusError::InvalidRoot`] if `index >= NUM_ROOTS`.
    pub fn root(&self, index: usize) -> Result<PmPtr, RomulusError> {
        if index >= NUM_ROOTS {
            return Err(RomulusError::InvalidRoot(index));
        }
        let off = self.read_main_u64((ROOTS_OFFSET + index * 8) as u64)?;
        Ok(PmPtr::from_offset(off))
    }

    // ------------------------------------------------------------------ low-level helpers

    fn check_range(&self, offset: u64, len: u64) -> Result<(), RomulusError> {
        if offset
            .checked_add(len)
            .map(|end| end <= self.layout.region_size as u64)
            != Some(true)
        {
            return Err(RomulusError::OutOfRegion {
                offset,
                len,
                region_size: self.layout.region_size,
            });
        }
        Ok(())
    }

    fn read_header_u64(&self, offset: usize) -> Result<u64, RomulusError> {
        let mut bytes = [0u8; 8];
        self.pool.read(offset, &mut bytes)?;
        Ok(u64::from_le_bytes(bytes))
    }

    fn write_header_u64(&self, offset: usize, value: u64) -> Result<(), RomulusError> {
        self.pool.persist(offset, &value.to_le_bytes())?;
        Ok(())
    }

    fn read_main_u64(&self, offset: u64) -> Result<u64, RomulusError> {
        let mut bytes = [0u8; 8];
        self.pool
            .read(self.layout.main_start + offset as usize, &mut bytes)?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Writes to main with an interposed persistent write-back, without logging
    /// (used during formatting only).
    fn write_main_u64_raw(&self, offset: u64, value: u64) -> Result<(), RomulusError> {
        self.pool.persist(
            self.layout.main_start + offset as usize,
            &value.to_le_bytes(),
        )?;
        Ok(())
    }

    fn copy_main_to_back(&self, offset: u64, len: usize) -> Result<(), RomulusError> {
        self.copy_twin(self.layout.main_start, self.layout.back_start, offset, len)
    }

    fn copy_main_to_back_full(&self) -> Result<(), RomulusError> {
        self.copy_main_to_back(0, self.layout.region_size)
    }

    fn copy_back_to_main_full(&self) -> Result<(), RomulusError> {
        let (back, main) = (self.layout.back_start, self.layout.main_start);
        self.copy_twin(back, main, 0, self.layout.region_size)
    }

    /// Persists the `len` bytes at region offset `offset` of the twin starting at `from`
    /// into the twin starting at `to`, inside the pool ([`PmemPool::persist_copy`]).
    /// `pm.bytes_read` counts the source range: the copy reads one twin to write the
    /// other.
    fn copy_twin(
        &self,
        from: usize,
        to: usize,
        offset: u64,
        len: usize,
    ) -> Result<(), RomulusError> {
        let offset = offset as usize;
        self.pool.persist_copy(from + offset, to + offset, len)?;
        self.pool
            .stats_registry()
            .add(Metric::PmBytesRead, len as u64);
        Ok(())
    }
}

/// Handle passed to a transaction body; every mutation goes through it so the engine can
/// interpose persistent write-backs and record the redo log.
pub struct Tx<'a> {
    engine: &'a Romulus,
    stores: usize,
    crash_after_stores: Option<usize>,
    crashed: bool,
}

impl<'a> Tx<'a> {
    /// Allocates `size` bytes in the persistent heap (the `PMalloc` of Algorithm 3),
    /// returning a pointer valid across crashes. Allocations are cache-line aligned.
    ///
    /// # Errors
    ///
    /// Returns [`RomulusError::OutOfPersistentMemory`] when the heap is exhausted.
    pub fn alloc(&mut self, size: usize) -> Result<PmPtr, RomulusError> {
        let next = self.engine.read_main_u64(ALLOC_META_OFFSET as u64)?;
        let aligned = next.div_ceil(ALLOC_ALIGN as u64) * ALLOC_ALIGN as u64;
        let end = aligned + size as u64;
        if end > self.engine.layout.region_size as u64 {
            return Err(RomulusError::OutOfPersistentMemory {
                requested: size,
                available: self.engine.layout.region_size as u64
                    - aligned.min(self.engine.layout.region_size as u64),
            });
        }
        self.write_u64(PmPtr::from_offset(ALLOC_META_OFFSET as u64), end)?;
        Ok(PmPtr::from_offset(aligned))
    }

    /// Stores `data` at `ptr`, with store interposition (write-back + redo-log entry).
    ///
    /// # Errors
    ///
    /// Returns [`RomulusError::OutOfRegion`] if the store leaves the region, or
    /// [`RomulusError::InjectedCrash`] once an armed crash point triggers.
    pub fn write_bytes(&mut self, ptr: PmPtr, data: &[u8]) -> Result<(), RomulusError> {
        if self.crashed {
            return Err(RomulusError::InjectedCrash);
        }
        self.engine.check_range(ptr.offset(), data.len() as u64)?;
        if let Some(limit) = self.crash_after_stores {
            if self.stores >= limit {
                self.crashed = true;
                return Err(RomulusError::InjectedCrash);
            }
        }
        let abs = self.engine.layout.main_start + ptr.offset() as usize;
        self.engine.pool.persist(abs, data)?;
        self.engine.flavor.charge_pm_write(data.len() as u64);
        let mut log = self.engine.log.lock();
        log.record(ptr.offset(), data.len() as u64);
        self.engine.flavor.charge_log_entry(log.entries.len());
        self.stores += 1;
        Ok(())
    }

    /// Stores a `u64` at `ptr`.
    ///
    /// # Errors
    ///
    /// Same as [`Tx::write_bytes`].
    pub fn write_u64(&mut self, ptr: PmPtr, value: u64) -> Result<(), RomulusError> {
        self.write_bytes(ptr, &value.to_le_bytes())
    }

    /// Reads `len` bytes at `ptr` (observing stores made earlier in this transaction).
    ///
    /// # Errors
    ///
    /// Returns [`RomulusError::OutOfRegion`] if the read leaves the region.
    pub fn read_bytes(&self, ptr: PmPtr, len: usize) -> Result<Vec<u8>, RomulusError> {
        self.engine.check_range(ptr.offset(), len as u64)?;
        self.engine.flavor.charge_pm_read(len as u64);
        Ok(self
            .engine
            .pool
            .read_vec(self.engine.layout.main_start + ptr.offset() as usize, len)?)
    }

    /// Reads a `u64` at `ptr`.
    ///
    /// # Errors
    ///
    /// Same as [`Tx::read_bytes`].
    pub fn read_u64(&self, ptr: PmPtr) -> Result<u64, RomulusError> {
        self.engine.read_u64(ptr)
    }

    /// Publishes `ptr` as persistent object root `index`.
    ///
    /// # Errors
    ///
    /// Returns [`RomulusError::InvalidRoot`] if `index >= NUM_ROOTS`.
    pub fn set_root(&mut self, index: usize, ptr: PmPtr) -> Result<(), RomulusError> {
        if index >= NUM_ROOTS {
            return Err(RomulusError::InvalidRoot(index));
        }
        self.write_u64(
            PmPtr::from_offset((ROOTS_OFFSET + index * 8) as u64),
            ptr.offset(),
        )
    }

    /// Reads persistent object root `index`.
    ///
    /// # Errors
    ///
    /// Returns [`RomulusError::InvalidRoot`] if `index >= NUM_ROOTS`.
    pub fn root(&self, index: usize) -> Result<PmPtr, RomulusError> {
        if index >= NUM_ROOTS {
            return Err(RomulusError::InvalidRoot(index));
        }
        let off = self.read_u64(PmPtr::from_offset((ROOTS_OFFSET + index * 8) as u64))?;
        Ok(PmPtr::from_offset(off))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sim_clock::Metric;

    fn engine(region: usize) -> Romulus {
        let pool = PmemPool::new(HEADER_SIZE + 2 * region).unwrap();
        Romulus::create(pool, region, Flavor::Native).unwrap()
    }

    #[test]
    fn an_overflowing_pointer_saturates_and_is_out_of_region() {
        let rom = engine(4096);
        let ptr = PmPtr::from_offset(u64::MAX - 4).add(8);
        assert_eq!(ptr.offset(), u64::MAX);
        assert!(matches!(
            rom.read_u64(ptr).unwrap_err(),
            RomulusError::OutOfRegion { .. }
        ));
    }

    #[test]
    fn pool_too_small_is_rejected() {
        let pool = PmemPool::new(512).unwrap();
        assert!(matches!(
            Romulus::create(pool, 4096, Flavor::Native).unwrap_err(),
            RomulusError::PoolTooSmall { .. }
        ));
    }

    #[test]
    fn committed_transaction_is_readable() {
        let rom = engine(16 * 1024);
        let ptr = rom
            .transaction(|tx| {
                let p = tx.alloc(64)?;
                tx.write_bytes(p, b"persisted payload")?;
                tx.set_root(0, p)?;
                Ok(p)
            })
            .unwrap();
        assert_eq!(rom.root(0).unwrap(), ptr);
        assert_eq!(rom.read_bytes(ptr, 17).unwrap(), b"persisted payload");
    }

    #[test]
    fn read_bytes_into_matches_read_bytes() {
        let rom = engine(16 * 1024);
        let ptr = rom
            .transaction(|tx| {
                let p = tx.alloc(64)?;
                tx.write_bytes(p, b"zero-copy mirror-in payload")?;
                Ok(p)
            })
            .unwrap();
        let vec_read = rom.read_bytes(ptr, 27).unwrap();
        let mut buf = [0u8; 27];
        rom.read_bytes_into(ptr, &mut buf).unwrap();
        assert_eq!(vec_read, buf);
        assert_eq!(&buf, b"zero-copy mirror-in payload");
        // Out-of-region reads are rejected the same way.
        let mut big = vec![0u8; 32 * 1024];
        assert!(matches!(
            rom.read_bytes_into(ptr, &mut big).unwrap_err(),
            RomulusError::OutOfRegion { .. }
        ));
    }

    #[test]
    fn allocations_are_aligned_and_disjoint() {
        let rom = engine(16 * 1024);
        rom.transaction(|tx| {
            let a = tx.alloc(10)?;
            let b = tx.alloc(100)?;
            let c = tx.alloc(1)?;
            assert_eq!(a.offset() % ALLOC_ALIGN as u64, 0);
            assert_eq!(b.offset() % ALLOC_ALIGN as u64, 0);
            assert_eq!(c.offset() % ALLOC_ALIGN as u64, 0);
            assert!(b.offset() >= a.offset() + 10);
            assert!(c.offset() >= b.offset() + 100);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn out_of_persistent_memory_is_reported() {
        let rom = engine(4096);
        let err = rom
            .transaction(|tx| {
                tx.alloc(1 << 20)?;
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, RomulusError::OutOfPersistentMemory { .. }));
    }

    #[test]
    fn aborted_transaction_rolls_back() {
        let rom = engine(16 * 1024);
        rom.transaction(|tx| {
            let p = tx.alloc(32)?;
            tx.write_bytes(p, b"keep me")?;
            tx.set_root(0, p)?;
            Ok(())
        })
        .unwrap();
        let before = rom.read_bytes(rom.root(0).unwrap(), 7).unwrap();
        let err = rom.transaction(|tx| -> Result<(), RomulusError> {
            let p = tx.root(0)?;
            tx.write_bytes(p, b"discard")?;
            Err(RomulusError::Corrupted("user abort".into()))
        });
        assert!(err.is_err());
        assert_eq!(rom.read_bytes(rom.root(0).unwrap(), 7).unwrap(), before);
    }

    #[test]
    fn reopening_pool_preserves_data() {
        let pool = PmemPool::new(HEADER_SIZE + 2 * 8192).unwrap();
        {
            let rom = Romulus::create(pool.clone(), 8192, Flavor::Native).unwrap();
            rom.transaction(|tx| {
                let p = tx.alloc(16)?;
                tx.write_u64(p, 0xDEADBEEF)?;
                tx.set_root(1, p)?;
                Ok(())
            })
            .unwrap();
        }
        let rom2 = Romulus::create(pool, 8192, Flavor::Native).unwrap();
        let p = rom2.root(1).unwrap();
        assert_eq!(rom2.read_u64(p).unwrap(), 0xDEADBEEF);
    }

    #[test]
    fn region_size_mismatch_detected_on_reopen() {
        let pool = PmemPool::new(HEADER_SIZE + 2 * 16384).unwrap();
        Romulus::create(pool.clone(), 8192, Flavor::Native).unwrap();
        assert!(matches!(
            Romulus::create(pool, 7000, Flavor::Native).unwrap_err(),
            RomulusError::Corrupted(_)
        ));
    }

    #[test]
    fn crash_before_any_store_recovers_to_previous_state() {
        let rom = engine(16 * 1024);
        rom.transaction(|tx| {
            let p = tx.alloc(8)?;
            tx.write_u64(p, 1)?;
            tx.set_root(0, p)?;
            Ok(())
        })
        .unwrap();
        rom.inject_failure(FailPoint::AfterMutatingState);
        let err = rom.transaction(|tx| {
            let p = tx.root(0)?;
            tx.write_u64(p, 2)
        });
        assert_eq!(err.unwrap_err(), RomulusError::InjectedCrash);
        let mut rng = StdRng::seed_from_u64(3);
        rom.pool()
            .crash(&mut rng, plinius_pmem::CrashMode::DropUnflushed);
        rom.recover().unwrap();
        assert_eq!(rom.read_u64(rom.root(0).unwrap()).unwrap(), 1);
    }

    #[test]
    fn crash_mid_stores_recovers_old_values() {
        let rom = engine(16 * 1024);
        let ptrs = rom
            .transaction(|tx| {
                let mut ptrs = Vec::new();
                for i in 0..8u64 {
                    let p = tx.alloc(8)?;
                    tx.write_u64(p, i)?;
                    ptrs.push(p);
                }
                tx.set_root(0, ptrs[0])?;
                Ok(ptrs)
            })
            .unwrap();
        rom.inject_failure(FailPoint::AfterStores(3));
        let err = rom.transaction(|tx| {
            for p in &ptrs {
                tx.write_u64(*p, 999)?;
            }
            Ok(())
        });
        assert_eq!(err.unwrap_err(), RomulusError::InjectedCrash);
        let mut rng = StdRng::seed_from_u64(4);
        rom.pool()
            .crash(&mut rng, plinius_pmem::CrashMode::ArbitraryEviction);
        rom.recover().unwrap();
        for (i, p) in ptrs.iter().enumerate() {
            assert_eq!(rom.read_u64(*p).unwrap(), i as u64, "ptr {i}");
        }
    }

    #[test]
    fn crash_during_back_copy_keeps_new_values() {
        let rom = engine(16 * 1024);
        let p = rom
            .transaction(|tx| {
                let p = tx.alloc(8)?;
                tx.write_u64(p, 7)?;
                tx.set_root(0, p)?;
                Ok(p)
            })
            .unwrap();
        // Crash after the COPYING state was persisted: main already holds the new value,
        // so recovery must finish the copy and keep it.
        rom.inject_failure(FailPoint::AfterCopyingState);
        let err = rom.transaction(|tx| tx.write_u64(p, 8));
        assert_eq!(err.unwrap_err(), RomulusError::InjectedCrash);
        let mut rng = StdRng::seed_from_u64(5);
        rom.pool()
            .crash(&mut rng, plinius_pmem::CrashMode::DropUnflushed);
        rom.recover().unwrap();
        assert_eq!(rom.read_u64(p).unwrap(), 8);
    }

    #[test]
    fn publish_region_survives_every_recovery_path() {
        let rom = engine(16 * 1024);
        // Commit a pointer to an allocation, then publish fresh bytes into a second,
        // not-yet-referenced allocation (the double-buffer pattern).
        let (committed, staged) = rom
            .transaction(|tx| {
                let a = tx.alloc(32)?;
                tx.write_bytes(a, b"epoch-0 payload")?;
                tx.set_root(0, a)?;
                let b = tx.alloc(32)?;
                Ok((a, b))
            })
            .unwrap();
        rom.publish_region(staged, b"epoch-1 payload").unwrap();
        // The direct write is durable and readable in main immediately.
        assert_eq!(rom.read_bytes(staged, 15).unwrap(), b"epoch-1 payload");
        // A later *aborted* transaction restores main from back wholesale; the
        // published range must not revert (main and back hold identical bytes).
        let err = rom.transaction(|tx| -> Result<(), RomulusError> {
            tx.write_bytes(committed, b"discard")?;
            Err(RomulusError::Corrupted("user abort".into()))
        });
        assert!(err.is_err());
        assert_eq!(rom.read_bytes(staged, 15).unwrap(), b"epoch-1 payload");
        assert_eq!(rom.read_bytes(committed, 15).unwrap(), b"epoch-0 payload");
        // A crash in MUTATING (back→main recovery) must not revert it either.
        rom.inject_failure(FailPoint::AfterStores(0));
        let err = rom.transaction(|tx| tx.write_bytes(committed, b"also discarded"));
        assert_eq!(err.unwrap_err(), RomulusError::InjectedCrash);
        let mut rng = StdRng::seed_from_u64(77);
        rom.pool()
            .crash(&mut rng, plinius_pmem::CrashMode::DropUnflushed);
        rom.recover().unwrap();
        assert_eq!(rom.read_bytes(staged, 15).unwrap(), b"epoch-1 payload");
        assert_eq!(rom.read_bytes(committed, 15).unwrap(), b"epoch-0 payload");
    }

    #[test]
    fn publish_region_rejects_out_of_region_ranges() {
        let rom = engine(8192);
        assert!(matches!(
            rom.publish_region(PmPtr::from_offset(8190), &[0u8; 16])
                .unwrap_err(),
            RomulusError::OutOfRegion { .. }
        ));
    }

    #[test]
    fn direct_publish_failpoint_fires_after_n_publishes() {
        let rom = engine(16 * 1024);
        let ptr = rom
            .transaction(|tx| {
                let p = tx.alloc(256)?;
                tx.set_root(0, p)?;
                Ok(p)
            })
            .unwrap();
        rom.inject_failure(FailPoint::AfterDirectPublishes(2));
        // The armed direct-publish crash point must survive an interposed
        // transaction (it belongs to publish_region, not to transactions).
        rom.transaction(|tx| tx.write_u64(ptr, 9)).unwrap();
        assert!(rom.publish_region(ptr.add(64), b"one").is_ok());
        assert!(rom.publish_region(ptr.add(128), b"two").is_ok());
        assert_eq!(
            rom.publish_region(ptr.add(192), b"three").unwrap_err(),
            RomulusError::InjectedCrash
        );
        // Disarmed after firing.
        assert!(rom.publish_region(ptr.add(192), b"three").is_ok());
    }

    #[test]
    fn invalid_root_index_is_rejected() {
        let rom = engine(8192);
        assert!(matches!(
            rom.root(NUM_ROOTS).unwrap_err(),
            RomulusError::InvalidRoot(_)
        ));
        let err = rom.transaction(|tx| tx.set_root(NUM_ROOTS, PmPtr::NULL));
        assert!(matches!(err.unwrap_err(), RomulusError::InvalidRoot(_)));
    }

    #[test]
    fn out_of_region_access_is_rejected() {
        let rom = engine(8192);
        let err = rom.transaction(|tx| tx.write_bytes(PmPtr::from_offset(8190), &[0u8; 16]));
        assert!(matches!(err.unwrap_err(), RomulusError::OutOfRegion { .. }));
        assert!(rom.read_bytes(PmPtr::from_offset(9000), 1).is_err());
    }

    #[test]
    fn pm_ptr_helpers() {
        assert!(PmPtr::NULL.is_null());
        let p = PmPtr::from_offset(100);
        assert!(!p.is_null());
        assert_eq!(p.add(28).offset(), 128);
    }

    #[test]
    fn free_bytes_decreases_with_allocations() {
        let rom = engine(8192);
        let before = rom.free_bytes().unwrap();
        rom.transaction(|tx| {
            tx.alloc(1024)?;
            Ok(())
        })
        .unwrap();
        let after = rom.free_bytes().unwrap();
        assert!(after < before);
        assert!(before - after >= 1024);
    }

    #[test]
    fn transaction_uses_four_fences_or_fewer_overhead() {
        // Romulus' selling point: a bounded number of fences per transaction regardless
        // of transaction size (plus the per-store write-backs).
        let rom = engine(64 * 1024);
        let fences = || rom.pool().stats_registry().get(Metric::PmFences);
        let fences_before = fences();
        rom.transaction(|tx| {
            let p = tx.alloc(8 * 512)?;
            for i in 0..512u64 {
                tx.write_u64(p.add(i * 8), i)?;
            }
            Ok(())
        })
        .unwrap();
        let fences_used = fences() - fences_before;
        assert!(fences_used <= 5, "used {fences_used} fences");
    }
}
