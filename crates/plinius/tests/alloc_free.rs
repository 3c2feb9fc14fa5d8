//! Enforces the allocation-free mirror path: after warm-up, a steady-state
//! `mirror_out` — each tensor sealed straight from its layer into its PM ring slot —
//! performs **zero heap allocations**. The IVs follow from one sequence by slot index,
//! the per-tensor AADs are built with the handle's tensor slots, and the AES-GCM
//! context is a shared handle from the enclave's per-key cache; Romulus copies each
//! published range into its back twin inside the pool, its redo log retains its
//! capacity across iterations, and the PM pool keeps no per-line state on the heap
//! (its dirty lines are a bitset sized with the pool).
//!
//! The restore is held to the same standard: a warm `mirror_in` reads the slot in one
//! read session, verifies every sealed tensor in PM and decrypts each straight into
//! the model's parameter slices, with zero heap allocations.
//!
//! The training step itself is held to the same standard: a warm
//! `Network::train_batch` and a warm `Network::forward` perform zero heap
//! allocations (the GEMM pack buffers are per thread and reused across calls), or on
//! a model whose conv layer fans its batch out across threads, none beyond that
//! fan-out; and a warm `PmDataset::decrypt_batch` allocates its few buffers once per
//! batch, never per sample.
//!
//! The counting allocator is thread-local, so the serial assertions are exact even
//! though the test binary runs tests on multiple threads.

// A counting `GlobalAlloc` wrapper is impossible to write without `unsafe`. The
// production crates stay `forbid(unsafe_code)` except `plinius-crypto` and
// `plinius-darknet`, which are `deny(unsafe_code)` with only their SIMD kernel
// modules exempt (`aesarch`, `clmul` and `vaes`; `simd`), whose intrinsics require
// it. The mirror cases run on whatever engine the dispatcher selects; the AEAD
// case pins every engine the host can build.
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use plinius::{MirrorModel, PliniusContext, PmDataset};
use plinius_crypto::{seal_into, sealed_len, Aes, AesGcm, EngineKind, Key, SealedView, IV_LEN};
use plinius_darknet::config::{build_network, mnist_cnn_config, sized_model_config};
use plinius_pmem::{CrashMode, PmemPool, CACHE_LINE};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn mirror_fixture() -> (PliniusContext, plinius_darknet::Network, MirrorModel) {
    let ctx = PliniusContext::small_test(8 * 1024 * 1024);
    let mut rng = StdRng::seed_from_u64(4242);
    ctx.provision_key_directly(Key::generate_128(&mut rng));
    let mut net = build_network(&mnist_cnn_config(2, 4, 4), &mut rng).unwrap();
    net.set_iteration(1);
    let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
    (ctx, net, mirror)
}

#[test]
fn steady_state_serial_mirror_out_performs_zero_heap_allocations() {
    let (ctx, net, mirror) = mirror_fixture();
    // Warm-up: the first call grows the Romulus redo log to its steady-state
    // capacity; the second catches any one-off growth.
    mirror.mirror_out(&ctx, &net).unwrap();
    mirror.mirror_out(&ctx, &net).unwrap();
    let before = thread_allocs();
    mirror.mirror_out(&ctx, &net).unwrap();
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs, 0,
        "steady-state serial mirror_out must not touch the heap"
    );
}

#[test]
fn steady_state_mirror_out_stays_allocation_free_for_nonzero_tenants() {
    // The tenant-scoped publish path must be as quiet as tenant 0's: the tenant's
    // key-store name is precomputed as an `Arc<str>` when the context is scoped
    // (`for_tenant`), so steady-state `gcm_for_key` lookups never format a string.
    let ctx =
        PliniusContext::small_test(8 * 1024 * 1024).for_tenant(plinius::TenantId::new(5).unwrap());
    let mut rng = StdRng::seed_from_u64(4243);
    ctx.provision_key_directly(Key::generate_128(&mut rng));
    let mut net = build_network(&mnist_cnn_config(2, 4, 4), &mut rng).unwrap();
    net.set_iteration(1);
    let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
    mirror.mirror_out(&ctx, &net).unwrap();
    mirror.mirror_out(&ctx, &net).unwrap();
    let before = thread_allocs();
    mirror.mirror_out(&ctx, &net).unwrap();
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs, 0,
        "steady-state tenant-scoped mirror_out must not touch the heap"
    );
}

#[test]
fn warm_mirror_in_decodes_in_place_without_heap_allocations() {
    // `mirror_in` verifies and decrypts on the calling thread and reads no knob, so at
    // any `PLINIUS_THREADS` it must not touch the heap.
    let (ctx, net, mirror) = mirror_fixture();
    mirror.mirror_out(&ctx, &net).unwrap();
    let mut restored =
        build_network(&mnist_cnn_config(2, 4, 4), &mut StdRng::seed_from_u64(5)).unwrap();
    mirror.mirror_in(&ctx, &mut restored).unwrap();
    mirror.mirror_in(&ctx, &mut restored).unwrap();
    let before = thread_allocs();
    let report = mirror.mirror_in(&ctx, &mut restored).unwrap();
    let allocs = thread_allocs() - before;
    assert_eq!(report.iteration, 1);
    for (got, want) in restored.layers().iter().zip(net.layers()) {
        for (g, w) in got.params().iter().zip(want.params()) {
            assert_eq!(g.data, w.data, "{} was not restored", g.name);
        }
    }
    assert_eq!(allocs, 0, "a warm mirror_in must not touch the heap");
}

#[test]
fn steady_state_snapshot_phase_performs_zero_heap_allocations() {
    // The cheap half of an overlapped mirror-out: copying the parameters into the
    // handle's snapshot, with the IV batch and the model key's context, must not touch
    // the heap once the snapshot and the stats counters are warm.
    let (ctx, net, mirror) = mirror_fixture();
    for _ in 0..3 {
        mirror.snapshot_out(&ctx, &net).unwrap();
        mirror.drain(&ctx).unwrap();
    }
    let before = thread_allocs();
    mirror.snapshot_out(&ctx, &net).unwrap();
    let allocs = thread_allocs() - before;
    mirror.drain(&ctx).unwrap();
    assert_eq!(
        allocs, 0,
        "steady-state snapshot phase must not touch the heap"
    );
}

#[test]
fn steady_state_overlapped_cycle_performs_zero_heap_allocations_on_the_training_thread() {
    // A full overlapped persist cycle — snapshot, then at the join each tensor sealed
    // from the snapshot straight into its PM ring slot, the slot publish and the epoch
    // flip — all on the training thread, which must stay off the heap.
    let (ctx, net, mirror) = mirror_fixture();
    // Warm-up: three cycles cover both A/B slots, the snapshot and the Romulus redo
    // log.
    for _ in 0..3 {
        mirror.snapshot_out(&ctx, &net).unwrap();
        mirror.drain(&ctx).unwrap();
    }
    let before = thread_allocs();
    mirror.snapshot_out(&ctx, &net).unwrap();
    mirror.drain(&ctx).unwrap();
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs, 0,
        "steady-state overlapped mirror_out path must not touch the heap on the training thread"
    );
}

#[test]
fn steady_state_vfs_sealed_reads_perform_zero_heap_allocations() {
    // The VFS's raw-sealed-read lane (`read_into` on a `.sealed` path) is the
    // zero-copy export surface: path resolution works on borrowed slices and the
    // ciphertext is copied straight from PM into the caller's buffer. After the
    // listing warm-up, a steady-state read must not touch the heap.
    let (ctx, net, mirror) = mirror_fixture();
    mirror.mirror_out(&ctx, &net).unwrap();
    let vfs = plinius::MirrorVfs::new(&ctx, &mirror);
    let entry = plinius::Vfs::stat(&vfs, "/epoch/1/layer0-tensor0.sealed").unwrap();
    let mut buf = vec![0u8; entry.len];
    // Warm-up: stats counters and any lazily-built lookup state.
    plinius::Vfs::read_into(&vfs, "/epoch/1/layer0-tensor0.sealed", &mut buf).unwrap();
    plinius::Vfs::read_into(&vfs, "/epoch/1/layer0-tensor0.sealed", &mut buf).unwrap();
    let before = thread_allocs();
    let n = plinius::Vfs::read_into(&vfs, "/epoch/1/layer0-tensor0.sealed", &mut buf).unwrap();
    let allocs = thread_allocs() - before;
    assert_eq!(n, entry.len);
    assert_eq!(
        allocs, 0,
        "steady-state VFS sealed reads must not touch the heap"
    );
}

#[test]
fn pm_pool_persist_and_crash_perform_zero_heap_allocations() {
    // The pool's data path has no per-line heap state: a persist copies straight into
    // the media and a crash walks the dirty-line bitset in place.
    const POOL: usize = 4 << 20;
    let pool = PmemPool::new(POOL).unwrap();
    let data = vec![0x5Au8; 1 << 20];
    let mut rng = StdRng::seed_from_u64(9);
    // Warm-up: one persist and one crash, so no first-call cost is counted.
    pool.persist(0, &data[..1]).unwrap();
    pool.crash(&mut rng, CrashMode::ArbitraryEviction);

    let before = thread_allocs();
    pool.persist(1 << 20, &data).unwrap();
    let allocs = thread_allocs() - before;
    assert_eq!(allocs, 0, "a 1 MiB persist must not touch the heap");

    for i in 0..300 {
        pool.write(i * 7919 * CACHE_LINE % (POOL - 3), &[i as u8; 3])
            .unwrap();
    }
    let before = thread_allocs();
    pool.crash(&mut rng, CrashMode::ArbitraryEviction);
    let allocs = thread_allocs() - before;
    assert_eq!(allocs, 0, "a crash must not touch the heap");
    assert_eq!(pool.dirty_lines(), 0);
}

#[test]
fn enclave_transitions_charges_and_pm_fences_perform_zero_heap_allocations() {
    // Every counter is a slot of one fixed table, so counting an event adds to an
    // atomic in place.
    let ctx = PliniusContext::small_test(1 << 20);
    let (enclave, pool) = (ctx.enclave(), ctx.pool());
    let events = || {
        enclave.ecall(|| ()).unwrap();
        enclave.ocall(|| ()).unwrap();
        enclave.charge_crypto(4096);
        pool.fence();
    };
    events();
    let before = thread_allocs();
    events();
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs, 0,
        "counting enclave and PM events must not touch the heap"
    );
    assert_eq!(enclave.ecall_count(), 2);
    assert_eq!(enclave.ocall_count(), 2);
}

/// A model whose every kernel stays on the calling thread at any `PLINIUS_THREADS`: its
/// conv work (4 filters x 9 taps x 64 pixels) is below the conv forward's fan-out
/// threshold, and every GEMM is far below the parallel cutoff, so nothing spawns and
/// `max_threads()` (which reads the environment) is never reached.
const TINY_CNN: &str = "[net]\nheight=8\nwidth=8\nchannels=1\nbatch=4\n\
    learning_rate=0.1\nmomentum=0.9\ndecay=0.0001\n\n\
    [convolutional]\nfilters=4\nsize=3\nstride=1\npad=1\nactivation=leaky\n\n\
    [maxpool]\nsize=2\nstride=2\n\n\
    [connected]\noutput=10\nactivation=linear\n\n[softmax]\n";

fn tiny_batch() -> (plinius_darknet::Network, Vec<f32>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(77);
    let net = plinius_darknet::config::build_network(TINY_CNN, &mut rng).unwrap();
    let images: Vec<f32> = (0..4 * 64).map(|i| (i % 13) as f32 / 13.0).collect();
    let mut labels = vec![0.0f32; 4 * 10];
    for sample in 0..4 {
        labels[sample * 10 + sample * 3] = 1.0;
    }
    (net, images, labels)
}

#[test]
fn steady_state_train_batch_performs_zero_heap_allocations() {
    // The GEMM pack buffers are per thread and reused across calls, the conv layer
    // builds its columns and its column gradient in one per-thread scratch, and the
    // loss reads the predictions in place: a warm training step never touches the heap.
    let (mut net, images, labels) = tiny_batch();
    net.train_batch(&images, &labels, 4).unwrap();
    net.train_batch(&images, &labels, 4).unwrap();
    let before = thread_allocs();
    let loss = net.train_batch(&images, &labels, 4).unwrap();
    let allocs = thread_allocs() - before;
    assert!(loss.is_finite());
    assert_eq!(allocs, 0, "a warm train_batch must not touch the heap");
}

#[test]
fn steady_state_forward_performs_zero_heap_allocations() {
    let (mut net, images, _) = tiny_batch();
    net.forward(&images, 4);
    net.forward(&images, 4);
    let before = thread_allocs();
    let out_len = net.forward(&images, 4).len();
    let allocs = thread_allocs() - before;
    assert_eq!(out_len, 4 * 10);
    assert_eq!(allocs, 0, "a warm forward pass must not touch the heap");
}

#[test]
fn a_warm_step_of_the_wide_layer_allocates_nothing_beyond_the_conv_fan_out() {
    // The 1 MB model of `sized_model_config(1, 8)`, whose 392→668 connected layer
    // spans 21 blocks of rows. Its conv layer fans the batch of 8 out across threads:
    // past one thread the fork allocates its worker lists and spawns, and at
    // `PLINIUS_THREADS=1` the fan-out still reads the knob, whose value arrives as a
    // `String`. Every other kernel stays on the calling thread without reading the
    // knob, the wide layer's block-by-block products included, so a warm training
    // step and a warm forward pass allocate exactly what the conv forward alone does,
    // at any thread count.
    let mut net = build_network(&sized_model_config(1, 8), &mut StdRng::seed_from_u64(78)).unwrap();
    let images: Vec<f32> = (0..8 * 784).map(|i| (i % 17) as f32 / 17.0).collect();
    let mut labels = vec![0.0f32; 8 * 10];
    for sample in 0..8 {
        labels[sample * 10 + sample] = 1.0;
    }
    let mut conv_forward = || {
        let conv = &mut net.layers_mut()[0];
        conv.forward(&images, 8);
        let before = thread_allocs();
        conv.forward(&images, 8);
        thread_allocs() - before
    };
    let conv = conv_forward();
    net.train_batch(&images, &labels, 8).unwrap();
    net.train_batch(&images, &labels, 8).unwrap();
    let before = thread_allocs();
    let loss = net.train_batch(&images, &labels, 8).unwrap();
    let step = thread_allocs() - before;
    net.forward(&images, 8);
    let before = thread_allocs();
    net.forward(&images, 8);
    let forward = thread_allocs() - before;
    assert!(loss.is_finite());
    assert_eq!(
        (step, forward),
        (conv, conv),
        "a warm step and forward must allocate only what the conv fan-out does"
    );
}

#[test]
fn warm_decrypt_batch_allocates_the_same_at_every_batch_size() {
    // Every sample of a batch opens through one set of buffers under the enclave's
    // cached context and decodes straight into the batch, so a warm `decrypt_batch`
    // makes the same few allocations at any batch size: nothing per sample.
    let ctx = PliniusContext::small_test(8 * 1024 * 1024);
    let mut rng = StdRng::seed_from_u64(4244);
    ctx.provision_key_directly(Key::generate_128(&mut rng));
    let data = plinius_darknet::synthetic_images(100, 8, 8, 10, 0.1, &mut rng);
    let pm = PmDataset::load(&ctx, &data).unwrap();
    let mut allocs_at = |batch: usize| {
        pm.decrypt_batch(&ctx, batch, &mut rng).unwrap();
        let before = thread_allocs();
        let (images, labels) = pm.decrypt_batch(&ctx, batch, &mut rng).unwrap();
        let allocs = thread_allocs() - before;
        assert_eq!((images.len(), labels.len()), (batch * 64, batch * 10));
        allocs
    };
    let (small, large) = (allocs_at(8), allocs_at(64));
    assert_eq!(
        small, large,
        "a warm decrypt_batch must not allocate per sample"
    );
}

#[test]
fn mirror_out_still_round_trips_under_the_counting_allocator() {
    // Sanity: the instrumented binary still produces a restorable mirror.
    let (ctx, net, mirror) = mirror_fixture();
    mirror.mirror_out(&ctx, &net).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let mut other = build_network(&mnist_cnn_config(2, 4, 4), &mut rng).unwrap();
    let report = mirror.mirror_in(&ctx, &mut other).unwrap();
    assert_eq!(report.iteration, 1);
    assert!(report.model_bytes > 0);
}

#[test]
fn warm_aead_calls_allocate_nothing_on_every_engine() {
    // 70,000 bytes: 273 whole 256-byte groups of the vector engine and a 112-byte
    // tail, so the wide kernels and the 128-bit tail kernels both run.
    const LEN: usize = 70_000;
    let data: Vec<u8> = (0..LEN).map(|i| (i * 31 % 251) as u8).collect();
    let iv = [7u8; IV_LEN];
    let aad = b"alloc-free";
    let mut ct = vec![0u8; LEN];
    let mut pt = vec![0u8; LEN];
    let mut sealed = vec![0u8; sealed_len(LEN)];
    for kind in EngineKind::ALL {
        let Some(gcm) = AesGcm::with_engine(Aes::new(&[0x42u8; 16]), kind) else {
            continue;
        };
        let mut round_trip = || {
            let tag = gcm.encrypt_into(&iv, aad, &data, &mut ct).unwrap();
            gcm.decrypt_into(&iv, aad, &ct, &tag, &mut pt).unwrap();
            seal_into(&gcm, &data, aad, &iv, &mut sealed).unwrap();
            SealedView::parse(&sealed)
                .unwrap()
                .open_into(&gcm, aad, &mut pt)
                .unwrap();
        };
        round_trip();
        let before = thread_allocs();
        round_trip();
        let allocs = thread_allocs() - before;
        assert_eq!(
            allocs,
            0,
            "warm AEAD calls on {} must not touch the heap",
            gcm.engine_name()
        );
        assert_eq!(pt, data, "{}", gcm.engine_name());
    }
}
