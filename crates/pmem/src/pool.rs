//! The persistent-memory pool simulator.
//!
//! A [`PmemPool`] models one DAX-mapped region of Intel Optane DC persistent memory the
//! way Plinius and Romulus use it: software issues byte-granular `store`s, then makes
//! them durable with cache-line write-backs (CLFLUSH / CLFLUSHOPT / CLWB) ordered by
//! SFENCE persistence fences. The simulator keeps two views of the region:
//!
//! * **media** — what is durably on the DIMM and therefore survives a crash;
//! * **cache** — dirty cache lines that have been stored but not yet written back.
//!
//! Calling [`PmemPool::crash`] models a power failure: every dirty line is, independently,
//! either lost or (because a CPU cache may evict lines at any time) prematurely persisted.
//! This is exactly the failure model a persistent transactional memory such as Romulus
//! must tolerate, and it is what the crash-injection property tests exercise.
//!
//! # Data path
//!
//! Both views are byte arrays the size of the pool, and a bitset with one bit per cache
//! line marks the lines whose newest contents sit in the cache view. Only a bare
//! [`PmemPool::write`] dirties lines. [`PmemPool::persist`] — the fused store +
//! write-back through which Romulus, and so every PM store of Plinius, writes — first
//! writes back the dirty lines in its range and then copies the data straight into the
//! media, like PMDK's `pmem_memcpy_persist`. Reads copy from the media and overlay the
//! dirty lines. The cache view is allocated zeroed and written only by bare writes, so
//! a pool that is only ever persisted to never makes its pages resident.

use crate::{PmemError, PwbKind};
use parking_lot::Mutex;
use rand::Rng;
use sim_clock::{ClockHandle, CostModel, StatsHandle};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Cache-line size in bytes, the granularity of persistence on PM hardware.
pub const CACHE_LINE: usize = 64;

/// Lines per word of the dirty-line bitset.
const WORD_LINES: usize = u64::BITS as usize;

/// How a simulated crash treats dirty (not yet flushed) cache lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Every dirty line is lost: the media keeps only what was explicitly flushed.
    DropUnflushed,
    /// Each dirty line is independently either lost or persisted (a CPU may evict cache
    /// lines at arbitrary times, so unflushed data *can* reach the media early). This is
    /// the adversarial model used by the crash-consistency property tests.
    ArbitraryEviction,
}

/// Statistics snapshot of a pool's activity since creation (or the last reset).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Bytes passed to [`PmemPool::write`] and [`PmemPool::persist`].
    pub bytes_written: u64,
    /// Bytes returned by [`PmemPool::read`]/[`PmemPool::read_vec`].
    pub bytes_read: u64,
    /// Cache-line write-back instructions issued.
    pub flushes: u64,
    /// Persistence fences issued.
    pub fences: u64,
    /// Crashes injected.
    pub crashes: u64,
}

struct Inner {
    /// Durable contents, indexed by pool offset.
    media: Vec<u8>,
    /// Newest contents of the dirty lines, at their pool offsets. The bytes of clean
    /// lines are stale and never read.
    cache: Vec<u8>,
    /// The lines whose newest contents are in `cache` rather than `media`.
    dirty: DirtyLines,
    stats: PoolStats,
    backing: Option<PathBuf>,
}

impl Inner {
    /// The one write-back path, shared by flush, persist, crash and `flush_all`: visits
    /// the dirty lines among `lines` in ascending order, copies each to the media when
    /// `reaches_media()` says so, and leaves every one of them clean. Returns how many
    /// lines were dirty. The ascending order fixes the order in which a crash consumes
    /// its RNG.
    fn write_back(&mut self, lines: Range<usize>, mut reaches_media: impl FnMut() -> bool) -> u64 {
        let mut visited = 0;
        for line in self.dirty.drain(lines) {
            if reaches_media() {
                let span = line_span(line, self.media.len());
                self.media[span.clone()].copy_from_slice(&self.cache[span]);
            }
            visited += 1;
        }
        visited
    }
}

/// A set of line indices: one bit per cache line of the pool.
struct DirtyLines {
    words: Vec<u64>,
    len: usize,
}

impl DirtyLines {
    fn new(lines: usize) -> Self {
        DirtyLines {
            words: vec![0; lines.div_ceil(WORD_LINES)],
            len: 0,
        }
    }

    fn contains(&self, line: usize) -> bool {
        self.words[line / WORD_LINES] >> (line % WORD_LINES) & 1 == 1
    }

    fn insert(&mut self, lines: Range<usize>) {
        for (w, mask) in word_masks(lines) {
            self.len += (mask & !self.words[w]).count_ones() as usize;
            self.words[w] |= mask;
        }
    }

    /// The members among `lines`, ascending.
    fn iter(&self, lines: Range<usize>) -> impl Iterator<Item = usize> + '_ {
        let words = &self.words;
        word_masks(self.unless_empty(lines)).flat_map(move |(w, mask)| set_bits(w, words[w] & mask))
    }

    /// Removes the members among `lines` and yields them, ascending.
    fn drain(&mut self, lines: Range<usize>) -> impl Iterator<Item = usize> + '_ {
        let lines = self.unless_empty(lines);
        let DirtyLines { words, len } = self;
        word_masks(lines).flat_map(move |(w, mask)| {
            let bits = words[w] & mask;
            words[w] &= !bits;
            *len -= bits.count_ones() as usize;
            set_bits(w, bits)
        })
    }

    /// `lines`, or none while the set is empty. Every store of the program is a
    /// `persist`, so this is the common case, and it spares a crash the walk over all
    /// of a large pool's words.
    fn unless_empty(&self, lines: Range<usize>) -> Range<usize> {
        if self.len == 0 {
            0..0
        } else {
            lines
        }
    }
}

/// The bitset words that `lines` covers, each with the mask of its bits inside `lines`
/// (an empty range yields at most one word, with an empty mask).
fn word_masks(lines: Range<usize>) -> impl Iterator<Item = (usize, u64)> {
    (lines.start / WORD_LINES..lines.end.div_ceil(WORD_LINES)).map(move |w| {
        // Every word yielded starts below `lines.end`, so `hi >= 1` and `lo < 64`.
        let base = w * WORD_LINES;
        let lo = lines.start.max(base) - base;
        let hi = lines.end.min(base + WORD_LINES) - base;
        (w, (u64::MAX >> (WORD_LINES - hi)) & (u64::MAX << lo))
    })
}

/// The line indices of the set bits of bitset word `w`, ascending.
fn set_bits(w: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let bit = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            w * WORD_LINES + bit
        })
    })
}

/// The lines that the bytes `[offset, offset + len)` overlap; empty when `len` is 0.
fn line_range(offset: usize, len: usize) -> Range<usize> {
    let first = offset / CACHE_LINE;
    if len == 0 {
        first..first
    } else {
        first..(offset + len - 1) / CACHE_LINE + 1
    }
}

/// The bytes of line `line` in a pool of `pool_len` bytes (the last line may be short).
fn line_span(line: usize, pool_len: usize) -> Range<usize> {
    let start = line * CACHE_LINE;
    start..(start + CACHE_LINE).min(pool_len)
}

/// A simulated byte-addressable persistent-memory region.
///
/// The pool is cheap to clone (it is internally reference-counted); clones observe the
/// same media and cache state, which mirrors how one DAX mapping is shared between the
/// untrusted helper and the enclave runtime in Plinius.
#[derive(Clone)]
pub struct PmemPool {
    inner: Arc<Mutex<Inner>>,
    clock: ClockHandle,
    stats: StatsHandle,
    cost: Arc<CostModel>,
    pwb: PwbKind,
}

impl std::fmt::Debug for PmemPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("PmemPool")
            .field("len", &inner.media.len())
            .field("dirty_lines", &inner.dirty.len)
            .field("pwb", &self.pwb)
            .finish()
    }
}

/// Builder for [`PmemPool`] instances.
#[derive(Debug, Clone)]
pub struct PmemPoolBuilder {
    len: usize,
    clock: Option<ClockHandle>,
    stats: Option<StatsHandle>,
    cost: CostModel,
    pwb: PwbKind,
    backing: Option<PathBuf>,
}

impl PmemPoolBuilder {
    /// Starts building a pool of `len` bytes.
    pub fn new(len: usize) -> Self {
        PmemPoolBuilder {
            len,
            clock: None,
            stats: None,
            cost: CostModel::default(),
            pwb: PwbKind::ClflushOptSfence,
            backing: None,
        }
    }

    /// Uses an existing simulation clock (shared with other substrates).
    pub fn clock(mut self, clock: ClockHandle) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Uses an existing statistics registry.
    pub fn stats(mut self, stats: StatsHandle) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Sets the hardware cost model (server profile).
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Selects the persistent write-back + fence combination.
    pub fn pwb(mut self, pwb: PwbKind) -> Self {
        self.pwb = pwb;
        self
    }

    /// Backs the pool media with a file so that it survives process restarts.
    /// If the file exists its contents initialise the media.
    pub fn file_backing(mut self, path: impl AsRef<Path>) -> Self {
        self.backing = Some(path.as_ref().to_path_buf());
        self
    }

    /// Builds the pool.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::ZeroCapacity`] for an empty pool or [`PmemError::Io`] if the
    /// backing file cannot be read.
    pub fn build(self) -> Result<PmemPool, PmemError> {
        if self.len == 0 {
            return Err(PmemError::ZeroCapacity);
        }
        let mut media = vec![0u8; self.len];
        if let Some(path) = &self.backing {
            if path.exists() {
                let bytes = std::fs::read(path).map_err(|e| PmemError::Io(e.to_string()))?;
                let n = bytes.len().min(self.len);
                media[..n].copy_from_slice(&bytes[..n]);
            }
        }
        Ok(PmemPool {
            inner: Arc::new(Mutex::new(Inner {
                media,
                cache: vec![0u8; self.len],
                dirty: DirtyLines::new(self.len.div_ceil(CACHE_LINE)),
                stats: PoolStats::default(),
                backing: self.backing,
            })),
            clock: self.clock.unwrap_or_default(),
            stats: self.stats.unwrap_or_default(),
            cost: Arc::new(self.cost),
            pwb: self.pwb,
        })
    }
}

impl PmemPool {
    /// Creates an in-memory pool of `len` bytes with default settings.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::ZeroCapacity`] if `len` is zero.
    pub fn new(len: usize) -> Result<Self, PmemError> {
        PmemPoolBuilder::new(len).build()
    }

    /// Returns a builder for fine-grained configuration.
    pub fn builder(len: usize) -> PmemPoolBuilder {
        PmemPoolBuilder::new(len)
    }

    /// Pool capacity in bytes.
    pub fn len(&self) -> usize {
        self.inner.lock().media.len()
    }

    /// Whether the pool has zero capacity (never true for a successfully built pool).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The simulation clock this pool charges costs to.
    pub fn clock(&self) -> ClockHandle {
        Arc::clone(&self.clock)
    }

    /// The statistics registry shared with other substrates.
    pub fn stats_registry(&self) -> StatsHandle {
        Arc::clone(&self.stats)
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The persistent write-back flavour in effect.
    pub fn pwb_kind(&self) -> PwbKind {
        self.pwb
    }

    /// Stores `data` at `offset`. The stores land in the (volatile) cache view and are
    /// not durable until the affected lines are flushed.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range does not fit in the pool.
    pub fn write(&self, offset: usize, data: &[u8]) -> Result<(), PmemError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        check_range(inner.media.len(), offset, data.len())?;
        let lines = line_range(offset, data.len());
        if !lines.is_empty() {
            // Only the end lines can be covered in part; a clean one is loaded from the
            // media first so that its other bytes stay intact.
            for line in [lines.start, lines.end - 1] {
                if !inner.dirty.contains(line) {
                    let span = line_span(line, inner.media.len());
                    inner.cache[span.clone()].copy_from_slice(&inner.media[span]);
                }
            }
            inner.dirty.insert(lines);
            inner.cache[offset..offset + data.len()].copy_from_slice(data);
        }
        inner.stats.bytes_written += data.len() as u64;
        self.charge_write(data.len());
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `offset`. Reads observe the cache view (the
    /// most recent stores), exactly like CPU loads would.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range does not fit in the pool.
    pub fn read(&self, offset: usize, buf: &mut [u8]) -> Result<(), PmemError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        check_range(inner.media.len(), offset, buf.len())?;
        let end = offset + buf.len();
        buf.copy_from_slice(&inner.media[offset..end]);
        for line in inner.dirty.iter(line_range(offset, buf.len())) {
            let span = line_span(line, inner.media.len());
            let (from, to) = (span.start.max(offset), span.end.min(end));
            buf[from - offset..to - offset].copy_from_slice(&inner.cache[from..to]);
        }
        inner.stats.bytes_read += buf.len() as u64;
        self.stats.counter("pm.bytes_read").add(buf.len() as u64);
        Ok(())
    }

    /// Convenience wrapper around [`PmemPool::read`] returning a fresh vector.
    ///
    /// # Errors
    ///
    /// Same as [`PmemPool::read`].
    pub fn read_vec(&self, offset: usize, len: usize) -> Result<Vec<u8>, PmemError> {
        let mut buf = vec![0u8; len];
        self.read(offset, &mut buf)?;
        Ok(buf)
    }

    /// Issues cache-line write-backs for every line overlapping `[offset, offset+len)`,
    /// making those bytes durable on the media.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range does not fit in the pool.
    pub fn flush(&self, offset: usize, len: usize) -> Result<(), PmemError> {
        if len == 0 {
            return Ok(());
        }
        let mut inner = self.inner.lock();
        check_range(inner.media.len(), offset, len)?;
        let flushed = inner.write_back(line_range(offset, len), || true);
        inner.stats.flushes += flushed;
        self.charge_flushes(flushed);
        Ok(())
    }

    /// Store + flush in one call: the persistent write-back (`PWB`) pattern the
    /// `persist<>` annotation of Romulus generates for every store.
    ///
    /// Leaves the media, the cache view, [`PoolStats`], the `pm.*` counters and the clock
    /// exactly as [`PmemPool::write`] followed by [`PmemPool::flush`] of the same range
    /// would, but in one locked pass that copies `data` straight into the media.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range does not fit in the pool.
    pub fn persist(&self, offset: usize, data: &[u8]) -> Result<(), PmemError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        check_range(inner.media.len(), offset, data.len())?;
        let lines = line_range(offset, data.len());
        // A dirty line the range covers only in part takes its other bytes along.
        inner.write_back(lines.clone(), || true);
        inner.media[offset..offset + data.len()].copy_from_slice(data);
        inner.stats.bytes_written += data.len() as u64;
        self.charge_write(data.len());
        // `write` leaves every line of the range dirty and `flush` writes each one
        // back; for empty data, `flush` returns before charging anything.
        if !lines.is_empty() {
            let flushed = lines.len() as u64;
            inner.stats.flushes += flushed;
            self.charge_flushes(flushed);
        }
        Ok(())
    }

    /// Issues a persistence fence (SFENCE), ordering previously issued write-backs.
    pub fn fence(&self) {
        let mut inner = self.inner.lock();
        inner.stats.fences += 1;
        self.stats.counter("pm.fences").incr();
        self.clock.advance_ns(self.effective_fence_ns());
    }

    /// Flushes every dirty line in the pool and fences — used on clean shutdown.
    pub fn flush_all(&self) {
        self.flush(0, self.len())
            .expect("the whole pool is a valid range");
        self.fence();
    }

    /// Simulates a power failure / process kill.
    ///
    /// Dirty cache lines are handled according to `mode`; the cache view is discarded
    /// afterwards, so the next reads observe exactly what survived on the media.
    pub fn crash<R: Rng>(&self, rng: &mut R, mode: CrashMode) {
        let mut inner = self.inner.lock();
        let all = line_range(0, inner.media.len());
        inner.write_back(all, || match mode {
            CrashMode::DropUnflushed => false,
            CrashMode::ArbitraryEviction => rng.gen_bool(0.5),
        });
        inner.stats.crashes += 1;
        self.stats.counter("pm.crashes").incr();
    }

    /// Returns a copy of the durable media contents (what a post-crash reader would see
    /// before any volatile activity).
    pub fn media_snapshot(&self) -> Vec<u8> {
        self.inner.lock().media.clone()
    }

    /// Number of dirty (not yet flushed) cache lines.
    pub fn dirty_lines(&self) -> usize {
        self.inner.lock().dirty.len
    }

    /// Activity statistics since creation.
    pub fn pool_stats(&self) -> PoolStats {
        self.inner.lock().stats
    }

    /// Persists the media to the backing file, if one was configured.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::NoBackingFile`] when the pool has no backing file and
    /// [`PmemError::Io`] if writing fails.
    pub fn sync_backing_file(&self) -> Result<(), PmemError> {
        let inner = self.inner.lock();
        match &inner.backing {
            Some(path) => {
                std::fs::write(path, &inner.media).map_err(|e| PmemError::Io(e.to_string()))
            }
            None => Err(PmemError::NoBackingFile),
        }
    }

    /// Charges a store of `len` bytes: its media write time and the `pm.bytes_written`
    /// counter.
    fn charge_write(&self, len: usize) {
        self.clock.advance_ns(self.cost.pm_write_ns(len as u64));
        self.stats.counter("pm.bytes_written").add(len as u64);
    }

    /// Charges `lines` cache-line write-backs: one per line, as the hardware issues them.
    fn charge_flushes(&self, lines: u64) {
        self.stats.counter("pm.flushes").add(lines);
        self.clock.advance_ns(lines * self.effective_flush_ns());
    }

    fn effective_flush_ns(&self) -> u64 {
        match self.pwb {
            // clflush evicts the line and is the slowest variant.
            PwbKind::ClflushNop => self.cost.pm_flush_ns + self.cost.pm_flush_ns / 2,
            PwbKind::ClflushOptSfence => self.cost.pm_flush_ns,
            // clwb keeps the line in cache: cheapest write-back.
            PwbKind::ClwbSfence => (self.cost.pm_flush_ns * 3) / 4,
        }
    }

    fn effective_fence_ns(&self) -> u64 {
        match self.pwb {
            PwbKind::ClflushNop => 0, // clflush is ordered, the fence is a NOP.
            _ => self.cost.pm_fence_ns,
        }
    }
}

fn check_range(pool_len: usize, offset: usize, len: usize) -> Result<(), PmemError> {
    if offset.checked_add(len).map(|end| end <= pool_len) != Some(true) {
        return Err(PmemError::OutOfBounds {
            offset,
            len,
            capacity: pool_len,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sim_clock::SimClock;

    #[test]
    fn zero_capacity_rejected() {
        assert_eq!(PmemPool::new(0).unwrap_err(), PmemError::ZeroCapacity);
    }

    #[test]
    fn write_then_read_observes_cache_view() {
        let pool = PmemPool::new(4096).unwrap();
        pool.write(10, b"hello").unwrap();
        assert_eq!(pool.read_vec(10, 5).unwrap(), b"hello");
        // Not flushed yet: the durable media still holds zeros.
        assert_eq!(&pool.media_snapshot()[10..15], &[0u8; 5]);
    }

    #[test]
    fn flush_makes_data_durable() {
        let pool = PmemPool::new(4096).unwrap();
        pool.write(100, b"durable").unwrap();
        pool.flush(100, 7).unwrap();
        pool.fence();
        assert_eq!(&pool.media_snapshot()[100..107], b"durable");
        assert_eq!(pool.dirty_lines(), 0);
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let pool = PmemPool::new(128).unwrap();
        let err = pool.write(100, &[0u8; 64]).unwrap_err();
        assert!(matches!(err, PmemError::OutOfBounds { capacity: 128, .. }));
        assert!(pool.read_vec(129, 1).is_err());
        assert!(pool.flush(120, 64).is_err());
        assert!(pool.persist(100, &[0u8; 64]).is_err());
    }

    #[test]
    fn overflowing_range_is_rejected() {
        let pool = PmemPool::new(128).unwrap();
        assert!(pool.write(usize::MAX, b"x").is_err());
    }

    #[test]
    fn crash_drops_unflushed_data() {
        let pool = PmemPool::new(4096).unwrap();
        pool.write(0, b"committed").unwrap();
        pool.flush(0, 9).unwrap();
        pool.write(1000, b"in-flight").unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        pool.crash(&mut rng, CrashMode::DropUnflushed);
        assert_eq!(pool.read_vec(0, 9).unwrap(), b"committed");
        assert_eq!(pool.read_vec(1000, 9).unwrap(), vec![0u8; 9]);
    }

    #[test]
    fn arbitrary_eviction_persists_some_lines() {
        let pool = PmemPool::new(1 << 20).unwrap();
        // Dirty many distinct lines; with p=0.5 per line some must survive and some must drop.
        for i in 0..200 {
            pool.write(i * CACHE_LINE, &[0xAB]).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(42);
        pool.crash(&mut rng, CrashMode::ArbitraryEviction);
        let survived = (0..200)
            .filter(|i| pool.read_vec(i * CACHE_LINE, 1).unwrap()[0] == 0xAB)
            .count();
        assert!(survived > 0 && survived < 200, "survived = {survived}");
    }

    #[test]
    fn partial_line_write_preserves_neighbouring_bytes() {
        let pool = PmemPool::new(256).unwrap();
        pool.write(0, &[1u8; 64]).unwrap();
        pool.flush(0, 64).unwrap();
        // Overwrite only 4 bytes in the middle of the flushed line.
        pool.write(10, &[9u8; 4]).unwrap();
        pool.flush(10, 4).unwrap();
        let line = pool.read_vec(0, 64).unwrap();
        assert_eq!(&line[..10], &[1u8; 10]);
        assert_eq!(&line[10..14], &[9u8; 4]);
        assert_eq!(&line[14..], &[1u8; 50]);
    }

    #[test]
    fn stats_and_counters_track_activity() {
        let pool = PmemPool::new(4096).unwrap();
        pool.write(0, &[1u8; 130]).unwrap();
        pool.flush(0, 130).unwrap();
        pool.fence();
        let stats = pool.pool_stats();
        assert_eq!(stats.bytes_written, 130);
        assert_eq!(stats.flushes, 3); // 130 bytes span 3 cache lines.
        assert_eq!(stats.fences, 1);
        assert_eq!(pool.stats_registry().value("pm.flushes"), 3);
    }

    #[test]
    fn clock_advances_with_activity() {
        let clock = SimClock::new();
        let pool = PmemPool::builder(4096)
            .clock(Arc::clone(&clock))
            .cost_model(CostModel::eml_sgx_pm())
            .build()
            .unwrap();
        assert_eq!(clock.now_ns(), 0);
        pool.persist(0, &[0u8; 1024]).unwrap();
        pool.fence();
        assert!(clock.now_ns() > 0);
    }

    #[test]
    fn pwb_variants_have_distinct_costs() {
        let cost = CostModel::eml_sgx_pm();
        let mk = |pwb| {
            let clock = SimClock::new();
            let pool = PmemPool::builder(4096)
                .clock(Arc::clone(&clock))
                .cost_model(cost.clone())
                .pwb(pwb)
                .build()
                .unwrap();
            pool.persist(0, &[0u8; 512]).unwrap();
            pool.fence();
            clock.now_ns()
        };
        let clflush = mk(PwbKind::ClflushNop);
        let clflushopt = mk(PwbKind::ClflushOptSfence);
        let clwb = mk(PwbKind::ClwbSfence);
        assert!(clflush > clflushopt, "{clflush} vs {clflushopt}");
        assert!(clflushopt > clwb, "{clflushopt} vs {clwb}");
    }

    #[test]
    fn file_backing_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("plinius-pmem-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.pm");
        let _ = std::fs::remove_file(&path);
        {
            let pool = PmemPool::builder(1024).file_backing(&path).build().unwrap();
            pool.persist(64, b"persisted across processes").unwrap();
            pool.sync_backing_file().unwrap();
        }
        let reopened = PmemPool::builder(1024).file_backing(&path).build().unwrap();
        assert_eq!(
            reopened.read_vec(64, 26).unwrap(),
            b"persisted across processes"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sync_without_backing_file_errors() {
        let pool = PmemPool::new(64).unwrap();
        assert_eq!(
            pool.sync_backing_file().unwrap_err(),
            PmemError::NoBackingFile
        );
    }

    #[test]
    fn flush_all_persists_everything() {
        let clock = SimClock::new();
        let pool = PmemPool::builder(8192)
            .clock(Arc::clone(&clock))
            .cost_model(CostModel::eml_sgx_pm())
            .build()
            .unwrap();
        pool.write(0, &[7u8; 300]).unwrap();
        pool.write(4000, &[8u8; 300]).unwrap();
        let before = clock.now_ns();
        pool.flush_all();
        assert_eq!(pool.dirty_lines(), 0);
        let media = pool.media_snapshot();
        assert_eq!(&media[..300], &[7u8; 300]);
        assert_eq!(&media[4000..4300], &[8u8; 300]);
        // The write-backs and the fence are charged like any others: both counter views
        // agree and the clock moves.
        let stats = pool.pool_stats();
        assert_eq!(stats.flushes, pool.stats_registry().value("pm.flushes"));
        assert_eq!(stats.fences, pool.stats_registry().value("pm.fences"));
        assert!(clock.now_ns() > before);
    }

    #[test]
    fn crash_draws_its_rng_over_dirty_lines_in_ascending_order() {
        // 200 lines span four 64-line bitset words; storing them in a scrambled order
        // with gaps must not change which coin flip decides which line.
        const LINES: usize = 200;
        let tag = |line: usize| line as u8 + 1;
        let dirty: Vec<usize> = (0..LINES)
            .map(|i| i * 37 % LINES)
            .filter(|line| line % 5 != 2)
            .collect();
        let pool = PmemPool::new(LINES * CACHE_LINE).unwrap();
        for &line in &dirty {
            pool.write(line * CACHE_LINE, &[tag(line); CACHE_LINE])
                .unwrap();
        }
        pool.crash(&mut StdRng::seed_from_u64(7), CrashMode::ArbitraryEviction);

        let mut reference = StdRng::seed_from_u64(7);
        let mut sorted = dirty.clone();
        sorted.sort_unstable();
        let mut expected = vec![0u8; LINES * CACHE_LINE];
        for line in sorted {
            if reference.gen_bool(0.5) {
                expected[line * CACHE_LINE..(line + 1) * CACHE_LINE].fill(tag(line));
            }
        }
        assert_eq!(pool.media_snapshot(), expected);
        assert_eq!(pool.dirty_lines(), 0);
    }

    #[test]
    fn debug_output_mentions_dirty_lines() {
        let pool = PmemPool::new(256).unwrap();
        pool.write(0, &[1]).unwrap();
        let dbg = format!("{pool:?}");
        assert!(dbg.contains("dirty_lines"));
    }
}
