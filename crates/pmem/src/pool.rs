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
//! media, like PMDK's `pmem_memcpy_persist`. Reads copy from the media; a range that
//! holds dirty lines is first gathered whole into the cache view. The cache view is
//! allocated zeroed and written only by bare writes and by reads of such ranges, so a
//! pool that is only ever persisted to never makes its pages resident.
//!
//! The in-place calls work on the pool's own bytes instead of a copy:
//! [`PmemPool::read_with`] runs a closure on the bytes a read would return,
//! [`PmemPool::persist_with`] has a closure write a range straight into the media, and
//! [`PmemPool::persist_copy`] persists one range's bytes at another inside the pool.
//! Each counts and charges exactly what the copying call it stands for does. The
//! closures run under the pool's lock, so they must not call back into the pool.

use crate::PmemError;
use parking_lot::Mutex;
use rand::Rng;
use sim_clock::{ClockHandle, CostModel, Metric, StatsHandle};
use std::ops::Range;
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

struct Inner {
    /// Durable contents, indexed by pool offset.
    media: Vec<u8>,
    /// Newest contents of the dirty lines, at their pool offsets. The bytes of clean
    /// lines are stale and never read.
    cache: Vec<u8>,
    /// The lines whose newest contents are in `cache` rather than `media`.
    dirty: DirtyLines,
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
}

impl std::fmt::Debug for PmemPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("PmemPool")
            .field("len", &inner.media.len())
            .field("dirty_lines", &inner.dirty.len)
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
}

impl PmemPoolBuilder {
    /// Starts building a pool of `len` bytes.
    pub fn new(len: usize) -> Self {
        PmemPoolBuilder {
            len,
            clock: None,
            stats: None,
            cost: CostModel::default(),
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

    /// Builds the pool.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::ZeroCapacity`] for an empty pool.
    pub fn build(self) -> Result<PmemPool, PmemError> {
        if self.len == 0 {
            return Err(PmemError::ZeroCapacity);
        }
        Ok(PmemPool {
            inner: Arc::new(Mutex::new(Inner {
                media: vec![0u8; self.len],
                cache: vec![0u8; self.len],
                dirty: DirtyLines::new(self.len.div_ceil(CACHE_LINE)),
            })),
            clock: self.clock.unwrap_or_default(),
            stats: self.stats.unwrap_or_default(),
            cost: Arc::new(self.cost),
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
        self.read_with(offset, buf.len(), |bytes| buf.copy_from_slice(bytes))
    }

    /// The in-place read: runs `f` on the `len` bytes at `offset`, the bytes
    /// [`PmemPool::read`] would copy out, and returns its result. Counts the same
    /// `pm.bytes_read`.
    ///
    /// `f` runs under the pool's lock, so it must not call back into the pool.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range does not fit in the pool.
    pub fn read_with<R>(
        &self,
        offset: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, PmemError> {
        let mut guard = self.inner.lock();
        let Inner {
            media,
            cache,
            dirty,
        } = &mut *guard;
        check_range(media.len(), offset, len)?;
        let (end, lines) = (offset + len, line_range(offset, len));
        let bytes = if dirty.iter(lines.clone()).next().is_none() {
            &media[offset..end]
        } else {
            // The dirty lines' newest bytes are in the cache view: bring the clean
            // parts of the range there too (a clean line's cache bytes are never read
            // otherwise) and read the range whole from it.
            let mut from = offset;
            for line in dirty.iter(lines) {
                let span = line_span(line, media.len());
                let start = span.start.max(offset);
                cache[from..start].copy_from_slice(&media[from..start]);
                from = span.end.min(end);
            }
            cache[from..end].copy_from_slice(&media[from..end]);
            &cache[offset..end]
        };
        let out = f(bytes);
        self.stats.add(Metric::PmBytesRead, len as u64);
        Ok(out)
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
        self.charge_flushes(flushed);
        Ok(())
    }

    /// Store + flush in one call: the persistent write-back (`PWB`) pattern the
    /// `persist<>` annotation of Romulus generates for every store.
    ///
    /// Leaves the media, the cache view, the `pm.*` counters and the clock
    /// exactly as [`PmemPool::write`] followed by [`PmemPool::flush`] of the same range
    /// would, but in one locked pass that copies `data` straight into the media.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range does not fit in the pool.
    pub fn persist(&self, offset: usize, data: &[u8]) -> Result<(), PmemError> {
        self.persist_with(offset, data.len(), |dst| dst.copy_from_slice(data))
    }

    /// The in-place persist: `f` writes the `len` bytes at `offset` straight into the
    /// media (they hold the range's current bytes when it starts), and the call leaves
    /// the media, the cache view, the `pm.*` counters and the clock exactly as
    /// [`PmemPool::persist`] of the bytes `f` left there would. Returns `f`'s result;
    /// the range counts as persisted whatever `f` returns.
    ///
    /// `f` runs under the pool's lock, so it must not call back into the pool.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range does not fit in the pool.
    pub fn persist_with<R>(
        &self,
        offset: usize,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, PmemError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        check_range(inner.media.len(), offset, len)?;
        let lines = line_range(offset, len);
        // A dirty line the range covers only in part takes its other bytes along.
        inner.write_back(lines.clone(), || true);
        let out = f(&mut inner.media[offset..offset + len]);
        self.charge_persist(len, lines);
        Ok(out)
    }

    /// The in-pool copy: persists at `dst` the `len` bytes that [`PmemPool::read`] of
    /// `src` returns, without copying them out of the pool. Leaves the media, the cache
    /// view, the `pm.*` counters and the clock exactly as [`PmemPool::persist`] of those
    /// bytes at `dst` would, so no read is counted. The ranges may overlap.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if either range does not fit in the pool.
    pub fn persist_copy(&self, src: usize, dst: usize, len: usize) -> Result<(), PmemError> {
        let mut guard = self.inner.lock();
        check_range(guard.media.len(), src, len)?;
        check_range(guard.media.len(), dst, len)?;
        let lines = line_range(dst, len);
        guard.write_back(lines.clone(), || true);
        let Inner {
            media,
            cache,
            dirty,
        } = &mut *guard;
        media.copy_within(src..src + len, dst);
        // The source's dirty lines hold its newest bytes in the cache view. None of them
        // is a line of the destination, whose lines were just written back.
        for line in dirty.iter(line_range(src, len)) {
            let span = line_span(line, media.len());
            let (from, to) = (span.start.max(src), span.end.min(src + len));
            media[dst + (from - src)..dst + (to - src)].copy_from_slice(&cache[from..to]);
        }
        self.charge_persist(len, lines);
        Ok(())
    }

    /// Issues a persistence fence (SFENCE), ordering previously issued write-backs.
    pub fn fence(&self) {
        self.stats.add(Metric::PmFences, 1);
        self.clock.advance_ns(self.cost.pm_fence_ns);
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
        self.stats.add(Metric::PmCrashes, 1);
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

    /// Charges a store of `len` bytes: its media write time and the `pm.bytes_written`
    /// counter.
    fn charge_write(&self, len: usize) {
        self.clock.advance_ns(self.cost.pm_write_ns(len as u64));
        self.stats.add(Metric::PmBytesWritten, len as u64);
    }

    /// Charges a persist of `len` bytes over `lines`: the store of [`PmemPool::write`]
    /// and the write-back of every line of the range by [`PmemPool::flush`].
    fn charge_persist(&self, len: usize, lines: Range<usize>) {
        self.charge_write(len);
        self.charge_flushes(lines.len() as u64);
    }

    /// Charges `lines` cache-line write-backs: one per line, as the hardware issues them.
    fn charge_flushes(&self, lines: u64) {
        self.stats.add(Metric::PmFlushes, lines);
        self.clock.advance_ns(lines * self.cost.pm_flush_ns);
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
    use crate::PwbKind;
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
        let stats = pool.stats_registry();
        assert_eq!(stats.get(Metric::PmBytesWritten), 130);
        assert_eq!(stats.get(Metric::PmFlushes), 3); // 130 bytes span 3 cache lines.
        assert_eq!(stats.get(Metric::PmFences), 1);
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
        let mk = |pwb: PwbKind| {
            let clock = SimClock::new();
            let pool = PmemPool::builder(4096)
                .clock(Arc::clone(&clock))
                .cost_model(pwb.cost_model(&cost))
                .build()
                .unwrap();
            pool.persist(0, &[0u8; 512]).unwrap();
            pool.fence();
            clock.now_ns()
        };
        let clflush = mk(PwbKind::ClflushNop);
        let clflushopt = mk(PwbKind::ClflushOptSfence);
        assert!(clflush > clflushopt, "{clflush} vs {clflushopt}");
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
        // The write-backs and the fence are charged like any others: one per dirty line
        // (5 + 6), one fence, and the clock moves.
        let stats = pool.stats_registry();
        assert_eq!(stats.get(Metric::PmFlushes), 11);
        assert_eq!(stats.get(Metric::PmFences), 1);
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
