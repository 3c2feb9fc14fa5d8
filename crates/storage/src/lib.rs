//! # plinius-storage
//!
//! The secondary-storage substrate of the reproduction: a simulated file system backed by
//! an SSD cost model, whose traffic the `fs.*` counters of the shared
//! [`sim_clock::StatsRegistry`] count. The Plinius crate builds the SSD checkpointing
//! baseline of Fig. 7 / Table I ("traditional checkpointing on secondary storage") on
//! top of this: the enclave seals the model in the same format as its PM mirror, then
//! issues `fwrite`/`fsync` ocalls that land here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

pub mod fs;

pub use fs::SimFileSystem;

/// Errors produced by the storage substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The requested file does not exist.
    NotFound(String),
    /// A read went past the end of a file.
    ShortRead {
        /// File being read.
        path: String,
        /// Offset of the read.
        offset: usize,
        /// Bytes requested.
        len: usize,
        /// File size.
        size: usize,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NotFound(path) => write!(f, "file '{path}' not found"),
            StorageError::ShortRead {
                path,
                offset,
                len,
                size,
            } => write!(
                f,
                "read of {len} bytes at offset {offset} past end of '{path}' ({size} bytes)"
            ),
        }
    }
}

impl Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(StorageError::NotFound("model.ckpt".into())
            .to_string()
            .contains("model.ckpt"));
    }
}
