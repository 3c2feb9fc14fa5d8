//! Parsing an untrusted sealed-epoch payload reserves no more memory than the payload
//! can fill, an SSD restore opens the file's blobs where they lie, and an SSD save
//! rewrites its file without regrowing it.
//!
//! The host owns the SSD, and an imported payload crosses it too, so a payload may
//! declare any tensor count. A 32-byte payload declaring 2^20 tensors must be rejected
//! without first reserving 8 bytes per declared length (8 MiB).
//!
//! The counting allocator lives in this binary of its own because a
//! `#[global_allocator]` applies to every test in a binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use plinius::{PliniusContext, SealedEpoch, SsdCheckpointer};
use plinius_crypto::Key;
use plinius_darknet::config::{build_network, sized_model_config};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
fn a_tiny_payload_declaring_huge_counts_reserves_almost_nothing() {
    let mut payload = Vec::new();
    payload.extend_from_slice(b"PLNSEAL1");
    payload.extend_from_slice(&1u64.to_le_bytes()); // epoch
    payload.extend_from_slice(&7u64.to_le_bytes()); // iteration
    payload.extend_from_slice(&(1u64 << 20).to_le_bytes()); // tensors
    assert_eq!(payload.len(), 32);

    let before = thread_bytes();
    let result = SealedEpoch::from_bytes(&payload);
    let reserved = thread_bytes() - before;
    assert!(result.is_err(), "a truncated payload must be rejected");
    assert!(
        reserved < 4096,
        "parsing a 32-byte payload reserved {reserved} bytes"
    );
}

#[test]
fn a_warm_ssd_restore_allocates_little_more_than_the_file() {
    // A 1 MB model: the file read into the enclave is the one buffer the size of the
    // model; the restore parses its header and opens the blobs in place, so nothing
    // copies the arena a second time.
    let ctx = PliniusContext::small_test(4 * 1024 * 1024);
    ctx.provision_key_directly(Key::generate_128(&mut StdRng::seed_from_u64(3)));
    let config = sized_model_config(1, 8);
    let net = build_network(&config, &mut StdRng::seed_from_u64(4)).unwrap();
    let mut restored = build_network(&config, &mut StdRng::seed_from_u64(5)).unwrap();
    let ckpt = SsdCheckpointer::new("model.ckpt");
    ckpt.save(&ctx, &net).unwrap();
    let file = ctx.ssd().file_size("model.ckpt").unwrap();
    ckpt.restore(&ctx, &mut restored).unwrap();

    let before = thread_bytes();
    ckpt.restore(&ctx, &mut restored).unwrap();
    let allocated = thread_bytes() - before;
    assert!(
        allocated as f64 <= 1.1 * file as f64,
        "a warm restore of a {file}-byte checkpoint allocated {allocated} bytes"
    );
}

#[test]
fn a_warm_ssd_save_allocates_little_more_than_the_file() {
    // The 4 MB model: the save seals into one file image the size of the file, and the
    // simulated SSD truncates the file it rewrites in place, keeping its capacity, so
    // the 1 MiB `fwrite` chunks do not regrow it.
    let ctx = PliniusContext::small_test(4 * 1024 * 1024);
    ctx.provision_key_directly(Key::generate_128(&mut StdRng::seed_from_u64(6)));
    let net = build_network(&sized_model_config(4, 8), &mut StdRng::seed_from_u64(7)).unwrap();
    let ckpt = SsdCheckpointer::new("model.ckpt");
    ckpt.save(&ctx, &net).unwrap();
    let file = ctx.ssd().file_size("model.ckpt").unwrap();

    let before = thread_bytes();
    ckpt.save(&ctx, &net).unwrap();
    let allocated = thread_bytes() - before;
    assert!(
        allocated as f64 <= 1.1 * file as f64,
        "a warm save of a {file}-byte checkpoint allocated {allocated} bytes"
    );
}
