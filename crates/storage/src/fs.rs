//! An in-memory simulated file system with an SSD cost model.
//!
//! The paper's SSD baseline issues `fwrite` calls through ocalls, flushes the libc
//! buffers and calls `fsync` after every write to make sure the checkpoint really is on
//! the device. [`SimFileSystem`] reproduces that interface (create/write/read/fsync),
//! charges the corresponding device costs to the shared simulation clock and counts the
//! traffic in the `fs.*` counters of the shared statistics table.

use crate::StorageError;
use parking_lot::Mutex;
use sim_clock::{ClockHandle, CostModel, Metric, SimClock, StatsHandle, StatsRegistry};
use std::collections::HashMap;
use std::sync::Arc;

/// An in-memory file system with modeled SSD latencies. Cloning yields another handle
/// to the same file system.
#[derive(Clone)]
pub struct SimFileSystem {
    files: Arc<Mutex<HashMap<String, Vec<u8>>>>,
    clock: ClockHandle,
    stats: StatsHandle,
    cost: Arc<CostModel>,
}

impl std::fmt::Debug for SimFileSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimFileSystem")
            .field("files", &self.files.lock().len())
            .finish()
    }
}

impl SimFileSystem {
    /// Creates an empty file system with default settings (fresh clock and statistics).
    pub fn new() -> Self {
        Self::with_settings(CostModel::default(), SimClock::new(), StatsRegistry::new())
    }

    /// Creates a file system with an explicit cost model and shared clock/statistics
    /// handles.
    pub fn with_settings(cost: CostModel, clock: ClockHandle, stats: StatsHandle) -> Self {
        SimFileSystem {
            files: Arc::new(Mutex::new(HashMap::new())),
            clock,
            stats,
            cost: Arc::new(cost),
        }
    }

    /// The simulation clock costs are charged to.
    pub fn clock(&self) -> ClockHandle {
        Arc::clone(&self.clock)
    }

    /// A handle to the *same files* that charges its device costs to a different
    /// clock/statistics pair — how a new deployment (fresh simulation timeline) opens
    /// a disk that survived the previous one.
    pub fn rebound(&self, clock: ClockHandle, stats: StatsHandle) -> SimFileSystem {
        SimFileSystem {
            files: Arc::clone(&self.files),
            clock,
            stats,
            cost: Arc::clone(&self.cost),
        }
    }

    /// Whether `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.lock().contains_key(path)
    }

    /// Size of `path` in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::NotFound`] if the file does not exist.
    pub fn file_size(&self, path: &str) -> Result<usize, StorageError> {
        self.files
            .lock()
            .get(path)
            .map(|f| f.len())
            .ok_or_else(|| StorageError::NotFound(path.to_owned()))
    }

    /// Creates (or truncates) `path`. Truncating keeps the file's capacity, so a file
    /// rewritten at the same size (a checkpoint saved again) does not regrow.
    pub fn create(&self, path: &str) {
        let mut files = self.files.lock();
        match files.get_mut(path) {
            Some(file) => file.clear(),
            None => {
                files.insert(path.to_owned(), Vec::new());
            }
        }
    }

    /// Appends `data` to `path`, creating the file if needed (the `fwrite` of the
    /// baseline). Charges the device's per-byte write cost.
    pub fn write(&self, path: &str, data: &[u8]) {
        self.files
            .lock()
            .entry(path.to_owned())
            .or_default()
            .extend_from_slice(data);
        self.clock
            .advance_ns(self.cost.ssd_write_ns(data.len() as u64));
        self.stats.add(Metric::FsBytesWritten, data.len() as u64);
    }

    /// Reads `len` bytes at `offset` from `path` (the `fread` of the baseline). Charges
    /// the device's per-byte read cost.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::NotFound`] or [`StorageError::ShortRead`].
    pub fn read(&self, path: &str, offset: usize, len: usize) -> Result<Vec<u8>, StorageError> {
        let files = self.files.lock();
        let file = files
            .get(path)
            .ok_or_else(|| StorageError::NotFound(path.to_owned()))?;
        if offset + len > file.len() {
            return Err(StorageError::ShortRead {
                path: path.to_owned(),
                offset,
                len,
                size: file.len(),
            });
        }
        let data = file[offset..offset + len].to_vec();
        drop(files);
        self.clock.advance_ns(self.cost.ssd_read_ns(len as u64, 0));
        self.stats.add(Metric::FsBytesRead, len as u64);
        Ok(data)
    }

    /// Reads the whole file.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::NotFound`] if the file does not exist.
    pub fn read_all(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        let size = self.file_size(path)?;
        self.read(path, 0, size)
    }

    /// Issues an fsync on `path`, charging the device's fsync latency.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::NotFound`] if the file does not exist.
    pub fn fsync(&self, path: &str) -> Result<(), StorageError> {
        if !self.exists(path) {
            return Err(StorageError::NotFound(path.to_owned()));
        }
        self.clock.advance_ns(self.cost.ssd_fsync());
        self.stats.add(Metric::FsFsyncs, 1);
        Ok(())
    }

    /// Deletes `path` if it exists; returns whether it did.
    pub fn delete(&self, path: &str) -> bool {
        self.files.lock().remove(path).is_some()
    }

    /// Names of all files, sorted.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.files.lock().keys().cloned().collect();
        names.sort();
        names
    }
}

impl Default for SimFileSystem {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_round_trip() {
        let fs = SimFileSystem::new();
        fs.write("model.ckpt", b"hello ");
        fs.write("model.ckpt", b"world");
        assert!(fs.exists("model.ckpt"));
        assert_eq!(fs.file_size("model.ckpt").unwrap(), 11);
        assert_eq!(fs.read_all("model.ckpt").unwrap(), b"hello world");
        assert_eq!(fs.read("model.ckpt", 6, 5).unwrap(), b"world");
    }

    #[test]
    fn missing_files_and_short_reads_error() {
        let fs = SimFileSystem::new();
        assert!(matches!(
            fs.read_all("nope").unwrap_err(),
            StorageError::NotFound(_)
        ));
        assert!(fs.fsync("nope").is_err());
        fs.write("f", b"abc");
        assert!(matches!(
            fs.read("f", 2, 5).unwrap_err(),
            StorageError::ShortRead { size: 3, .. }
        ));
    }

    #[test]
    fn create_truncates_and_delete_removes() {
        let fs = SimFileSystem::new();
        fs.write("f", b"old data");
        fs.create("f");
        assert_eq!(fs.file_size("f").unwrap(), 0);
        assert!(fs.delete("f"));
        assert!(!fs.delete("f"));
        assert!(!fs.exists("f"));
    }

    #[test]
    fn costs_are_charged_to_the_clock() {
        let clock = SimClock::new();
        let stats = StatsRegistry::new();
        let fs = SimFileSystem::with_settings(
            CostModel::sgx_eml_pm(),
            Arc::clone(&clock),
            Arc::clone(&stats),
        );
        fs.write("ckpt", &vec![0u8; 1024 * 1024]);
        let after_write = clock.now_ns();
        assert!(after_write > 1_000_000, "1 MB SSD write should cost > 1 ms");
        fs.fsync("ckpt").unwrap();
        assert!(clock.now_ns() >= after_write + CostModel::sgx_eml_pm().ssd_fsync());
        assert_eq!(stats.get(Metric::FsFsyncs), 1);
    }

    #[test]
    fn rebound_shares_files_but_charges_the_new_clock() {
        let fs = SimFileSystem::new();
        fs.write("survivor", b"data");
        let new_clock = SimClock::new();
        let reopened = fs.rebound(Arc::clone(&new_clock), StatsRegistry::new());
        assert_eq!(reopened.read_all("survivor").unwrap(), b"data");
        assert!(new_clock.now_ns() > 0, "read cost must hit the new clock");
        let before = new_clock.now_ns();
        reopened.write("survivor", b"more");
        assert!(new_clock.now_ns() > before);
        // The write is visible through the original handle too.
        assert_eq!(fs.file_size("survivor").unwrap(), 8);
    }

    #[test]
    fn list_is_sorted_and_shared_between_clones() {
        let fs = SimFileSystem::new();
        let clone = fs.clone();
        fs.write("b", b"1");
        clone.write("a", b"2");
        assert_eq!(fs.list(), vec!["a".to_string(), "b".to_string()]);
    }
}
