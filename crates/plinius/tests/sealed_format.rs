//! One sealed-model format across media: an SSD checkpoint is a [`SealedEpoch`] file,
//! sealed and opened by the same code as the PM mirror's epochs, so either medium's
//! bytes restore through the other's path. The host owns both media, so a tampered
//! checkpoint or payload must never panic the enclave and never leave a model half
//! restored.

use std::sync::OnceLock;

use plinius::{MirrorModel, MirrorVfs, PliniusContext, SealedEpoch, SsdCheckpointer};
use plinius_crypto::Key;
use plinius_darknet::config::{build_network, mnist_cnn_config};
use plinius_darknet::Network;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn deployment() -> PliniusContext {
    let ctx = PliniusContext::small_test(4 * 1024 * 1024);
    ctx.provision_key_directly(Key::generate_128(&mut StdRng::seed_from_u64(5)));
    ctx
}

fn network(seed: u64) -> Network {
    build_network(&mnist_cnn_config(2, 4, 4), &mut StdRng::seed_from_u64(seed)).unwrap()
}

fn params(net: &Network) -> Vec<Vec<f32>> {
    let views = net.layers().iter().flat_map(|l| l.params());
    views.map(|p| p.data.to_vec()).collect()
}

#[test]
fn pm_epochs_and_ssd_checkpoints_restore_through_each_others_paths() {
    let ctx = deployment();
    let mut net = network(1);
    net.set_iteration(7);
    let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
    mirror.mirror_out(&ctx, &net).unwrap();
    let vfs = MirrorVfs::new(&ctx, &mirror);

    // A mirror epoch exported onto the SSD restores through the SSD path.
    ctx.ssd().create("exported.ckpt");
    ctx.ssd()
        .write("exported.ckpt", &vfs.export(1).unwrap().to_bytes());
    let mut restored = network(2);
    let report = SsdCheckpointer::new("exported.ckpt")
        .restore(&ctx, &mut restored)
        .unwrap();
    assert_eq!((report.epoch, report.iteration), (1, 7));
    assert_eq!(params(&restored), params(&net));

    // An SSD checkpoint parses as a sealed epoch the mirror commits as its next one.
    let mut other = network(3);
    other.set_iteration(9);
    SsdCheckpointer::new("model.ckpt")
        .save(&ctx, &other)
        .unwrap();
    let file = SealedEpoch::from_bytes(&ctx.ssd().read_all("model.ckpt").unwrap()).unwrap();
    assert_eq!((file.epoch, file.iteration), (0, 9));
    assert_eq!(vfs.import(&file).unwrap(), 2);
    let mut from_pm = network(4);
    let report = mirror.mirror_in(&ctx, &mut from_pm).unwrap();
    assert_eq!((report.epoch, report.iteration), (2, 9));
    assert_eq!(params(&from_pm), params(&other));
}

/// One way the host can tamper with a sealed-model file.
#[derive(Debug, Clone)]
enum Tamper {
    /// Keep only the first `n % len` bytes.
    Truncate(usize),
    /// XOR one byte with a nonzero mask.
    Flip(usize, u8),
    /// Overwrite the tensor count.
    Count(u64),
    /// Overwrite one tensor's declared length.
    Length(usize, u64),
    /// Remove one tensor from the lengths and the arena.
    Drop(usize),
    /// Repeat one tensor right after itself.
    Duplicate(usize),
}

fn huge() -> impl Strategy<Value = u64> {
    prop_oneof![Just(u64::MAX), Just(1 << 63), (1u64 << 20)..u64::MAX]
}

fn tampers() -> impl Strategy<Value = Tamper> {
    prop_oneof![
        any::<usize>().prop_map(Tamper::Truncate),
        (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Tamper::Flip(at, mask)),
        huge().prop_map(Tamper::Count),
        (any::<usize>(), huge()).prop_map(|(k, len)| Tamper::Length(k, len)),
        any::<usize>().prop_map(Tamper::Drop),
        any::<usize>().prop_map(Tamper::Duplicate),
    ]
}

fn tamper(bytes: &[u8], how: &Tamper) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let mut file = SealedEpoch::from_bytes(bytes).unwrap();
    let tensors = file.sealed_lens.len();
    let span = |k: usize| {
        let start = file.sealed_lens[..k].iter().sum::<u64>() as usize;
        start..start + file.sealed_lens[k] as usize
    };
    match *how {
        Tamper::Truncate(n) => out.truncate(n % bytes.len()),
        Tamper::Flip(at, mask) => out[at % bytes.len()] ^= mask,
        Tamper::Count(count) => out[24..32].copy_from_slice(&count.to_le_bytes()),
        Tamper::Length(k, len) => {
            let at = 32 + 8 * (k % tensors);
            out[at..at + 8].copy_from_slice(&len.to_le_bytes());
        }
        Tamper::Drop(k) => {
            let blob = span(k % tensors);
            file.arena.drain(blob);
            file.sealed_lens.remove(k % tensors);
            out = file.to_bytes();
        }
        Tamper::Duplicate(k) => {
            let blob = span(k % tensors);
            let copy = file.arena[blob.clone()].to_vec();
            file.arena.splice(blob.end..blob.end, copy);
            file.sealed_lens
                .insert(k % tensors, file.sealed_lens[k % tensors]);
            out = file.to_bytes();
        }
    }
    out
}

/// A deployment holding one saved model twice: as an SSD checkpoint file and as an
/// exported mirror epoch.
struct Fixture {
    ctx: PliniusContext,
    files: [Vec<u8>; 2],
    saved: Vec<Vec<f32>>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ctx = deployment();
        let mut net = network(11);
        net.set_iteration(3);
        SsdCheckpointer::new("saved.ckpt").save(&ctx, &net).unwrap();
        let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
        mirror.mirror_out(&ctx, &net).unwrap();
        let exported = MirrorVfs::new(&ctx, &mirror).export(1).unwrap();
        Fixture {
            files: [
                ctx.ssd().read_all("saved.ckpt").unwrap(),
                exported.to_bytes(),
            ],
            saved: params(&net),
            ctx,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whatever the host does to a checkpoint file or an exported payload, parsing
    /// and restoring it never panic. A restore that fails leaves every parameter of
    /// the target model unchanged; one that succeeds installs exactly the saved
    /// model. (The iteration counter is not authenticated and is not compared.)
    #[test]
    fn tampered_sealed_files_never_panic_and_never_half_restore(
        source in 0usize..2,
        how in tampers(),
    ) {
        let Fixture { ctx, files, saved } = fixture();
        let bytes = tamper(&files[source], &how);
        let _ = SealedEpoch::from_bytes(&bytes);
        let path = format!("tampered-{source}.ckpt");
        ctx.ssd().create(&path);
        ctx.ssd().write(&path, &bytes);
        let mut target = network(12);
        let before = params(&target);
        match SsdCheckpointer::new(path).restore(ctx, &mut target) {
            Ok(_) => prop_assert_eq!(&params(&target), saved, "{:?} restored", how),
            Err(_) => prop_assert_eq!(params(&target), before, "{:?} half-restored", how),
        }
    }
}
