//! Decoding an untrusted checkpoint reserves no more memory than the blob can fill.
//!
//! The SSD is owned by the host, so a checkpoint blob may declare any layer and
//! tensor counts. A 20-byte blob declaring a million layers, the first holding a
//! million tensors, must be rejected without first reserving a vector per declared
//! entry (24 MB each at 24 bytes per `Vec`).
//!
//! The counting allocator lives in this binary of its own because a
//! `#[global_allocator]` applies to every test in a binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use plinius_storage::CheckpointCodec;

struct CountingAlloc;

thread_local! {
    static THREAD_BYTES: Cell<usize> = const { Cell::new(0) };
}

fn thread_bytes() -> usize {
    THREAD_BYTES.with(|c| c.get())
}

// SAFETY: both methods forward to `System` unchanged; counting touches only a
// thread-local `Cell`, which does not allocate. The default `alloc_zeroed` and
// `realloc` go through `alloc`, so they are counted too.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_BYTES.with(|c| c.set(c.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_tiny_blob_declaring_huge_counts_reserves_almost_nothing() {
    let mut blob = Vec::new();
    blob.extend_from_slice(&0x504c_434bu32.to_le_bytes()); // magic
    blob.extend_from_slice(&7u64.to_le_bytes()); // iteration
    blob.extend_from_slice(&1_000_000u32.to_le_bytes()); // layers
    blob.extend_from_slice(&1_000_000u32.to_le_bytes()); // tensors of layer 0
    assert_eq!(blob.len(), 20);

    let before = thread_bytes();
    let result = CheckpointCodec::decode(&blob);
    let reserved = thread_bytes() - before;
    assert!(result.is_err(), "a truncated blob must be rejected");
    assert!(
        reserved < 4096,
        "decoding a 20-byte blob reserved {reserved} bytes"
    );
}
