//! Security-facing integration tests: the guarantees of the threat model (§III) hold in
//! the reproduction — confidentiality and integrity of the model mirror and of the
//! PM-resident training data, and attestation-gated key provisioning.

use plinius::{
    HybridTieredBackend, MirrorModel, MirrorVfs, ModelPersistence, PliniusBuilder, PliniusContext,
    PliniusError, PmDataset, SealedEpoch, SsdCheckpointBackend, TrainingSetup, Vfs,
};
use plinius_crypto::{CryptoError, Key};
use plinius_darknet::{mnist_cnn_config, synthetic_mnist};
use plinius_sgx::{AttestationService, DataOwner};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_clock::CostModel;

fn ctx_with_key(seed: u64) -> (PliniusContext, Key) {
    let ctx = PliniusContext::create(CostModel::sgx_eml_pm(), 32 * 1024 * 1024).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let key = Key::generate_128(&mut rng);
    ctx.provision_key_directly(key.clone());
    (ctx, key)
}

#[test]
fn mirrored_model_is_not_stored_in_plaintext_on_pm() {
    let (ctx, _key) = ctx_with_key(1);
    let mut rng = StdRng::seed_from_u64(2);
    let net = plinius_darknet::build_network(&mnist_cnn_config(2, 4, 4), &mut rng).unwrap();
    let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
    mirror.mirror_out(&ctx, &net).unwrap();
    // Scan the raw PM media for any 64-byte window of the first layer's weights.
    let weights = net
        .layers()
        .iter()
        .find(|l| l.is_trainable())
        .unwrap()
        .params()[0]
        .data
        .to_vec();
    let needle: Vec<u8> = weights[..16.min(weights.len())]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let media = ctx.pool().media_snapshot();
    let found = media.windows(needle.len()).any(|w| w == needle.as_slice());
    assert!(!found, "plaintext weights leaked onto persistent memory");
}

#[test]
fn tampering_with_the_pm_mirror_is_detected_on_restore() {
    let (ctx, _key) = ctx_with_key(3);
    let mut rng = StdRng::seed_from_u64(4);
    let net = plinius_darknet::build_network(&mnist_cnn_config(2, 4, 4), &mut rng).unwrap();
    let mirror = MirrorModel::allocate(&ctx, &net).unwrap();
    mirror.mirror_out(&ctx, &net).unwrap();
    // An attacker with full control of PM flips bits somewhere in the middle of the pool.
    let media = ctx.pool().media_snapshot();
    let target = media.len() / 2;
    let mut corrupted = ctx.pool().read_vec(target, 64).unwrap();
    for b in corrupted.iter_mut() {
        *b ^= 0xA5;
    }
    ctx.pool().persist(target, &corrupted).unwrap();
    let mut restored =
        plinius_darknet::build_network(&mnist_cnn_config(2, 4, 4), &mut rng).unwrap();
    match mirror.mirror_in(&ctx, &mut restored) {
        Err(PliniusError::Crypto(CryptoError::AuthenticationFailed)) => {}
        Err(other) => panic!("unexpected error kind: {other}"),
        // The flipped bytes may fall outside the sealed tensors (allocator slack); in
        // that case restoration legitimately succeeds.
        Ok(_) => {}
    }
}

#[test]
fn a_restart_over_a_tampered_or_foreign_mirror_fails_the_build() {
    // The builder restores into a network whose weights are still zero, so a restore
    // that fails must fail the build: no trainer may run on unrestored weights.
    let setup = TrainingSetup::small_test();
    let (ctx, key) = ctx_with_key(11);
    PmDataset::load(&ctx, &setup.dataset).unwrap();
    let mut trainer = PliniusBuilder::new(setup.clone())
        .context(ctx)
        .max_iterations(3)
        .build()
        .unwrap();
    trainer.run().unwrap();
    let ctx = trainer.context().clone();
    let mirror = trainer.mirror_handle().unwrap();
    drop(trainer);
    let restart = |model_config: String| {
        let ctx = PliniusContext::open(ctx.pool().clone(), setup.cost.clone()).unwrap();
        ctx.provision_key_directly(key.clone());
        let setup = TrainingSetup {
            model_config,
            ..setup.clone()
        };
        PliniusBuilder::new(setup).context(ctx).build().map(|_| ())
    };

    // A mirror of another shape: wider convolutions than the committed model.
    match restart(mnist_cnn_config(2, 8, 8)) {
        Err(PliniusError::MirrorMismatch(_)) => {}
        other => panic!("expected a mirror mismatch, got {other:?}"),
    }

    // The host flips one byte inside the committed epoch's first sealed tensor. Find
    // the tensor's bytes as the VFS reads them; Romulus keeps a twin of every publish,
    // so flip each copy on the media.
    let epoch = mirror.epoch(&ctx).unwrap();
    let vfs = MirrorVfs::new(&ctx, &mirror);
    let path = format!("/epoch/{epoch}/layer0-tensor0.sealed");
    let mut sealed = vec![0u8; vfs.stat(&path).unwrap().len];
    vfs.read_into(&path, &mut sealed).unwrap();
    let media = ctx.pool().media_snapshot();
    let copies: Vec<usize> = media
        .windows(sealed.len())
        .enumerate()
        .filter(|(_, window)| *window == sealed.as_slice())
        .map(|(offset, _)| offset)
        .collect();
    assert!(!copies.is_empty(), "the sealed tensor is not on the media");
    for offset in copies {
        let target = offset + sealed.len() / 2;
        let flipped = [media[target] ^ 0x01];
        ctx.pool().persist(target, &flipped).unwrap();
    }
    match restart(setup.model_config.clone()) {
        Err(PliniusError::Crypto(CryptoError::AuthenticationFailed)) => {}
        other => panic!("expected an authentication failure, got {other:?}"),
    }
}

#[test]
fn pm_training_data_is_encrypted_and_integrity_protected() {
    let (ctx, _key) = ctx_with_key(5);
    let mut rng = StdRng::seed_from_u64(6);
    let data = synthetic_mnist(16, &mut rng);
    let pm = PmDataset::load(&ctx, &data).unwrap();
    // Plaintext pixels must not appear on the PM media.
    let needle: Vec<u8> = data.image(0)[..16]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let media = ctx.pool().media_snapshot();
    assert!(!media.windows(needle.len()).any(|w| w == needle.as_slice()));
    // Without the key (e.g. a rebooted enclave before re-attestation) nothing decrypts.
    ctx.enclave().remove_key(plinius::MODEL_KEY_NAME);
    assert!(matches!(
        pm.sample(&ctx, 0).unwrap_err(),
        PliniusError::KeyNotProvisioned
    ));
}

#[test]
fn demoted_ssd_checkpoints_are_not_stored_in_plaintext() {
    // The hybrid tier demotes checkpoints to the (untrusted) SSD; like the PM mirror,
    // whatever lands on the device must be sealed.
    let setup = TrainingSetup::small_test();
    let mut rng = StdRng::seed_from_u64(8);
    let key = Key::generate_128(&mut rng);
    let ctx = PliniusContext::create(setup.cost.clone(), setup.pm_bytes).unwrap();
    ctx.provision_key_directly(key);
    PmDataset::load(&ctx, &setup.dataset).unwrap();
    let ssd = ctx.ssd().clone();
    let mut trainer = PliniusBuilder::new(setup)
        .context(ctx)
        .backend(HybridTieredBackend::new("tier.ckpt", 2))
        .max_iterations(4)
        .build()
        .unwrap();
    trainer.run().unwrap();
    assert!(ssd.exists("tier.ckpt"), "no checkpoint was demoted");
    // Scan the raw checkpoint for a window of the trained model's first-layer weights.
    let weights = trainer
        .network()
        .layers()
        .iter()
        .find(|l| l.is_trainable())
        .unwrap()
        .params()[0]
        .data
        .to_vec();
    let needle: Vec<u8> = weights[..16.min(weights.len())]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let media = ssd.read_all("tier.ckpt").unwrap();
    let found = media.windows(needle.len()).any(|w| w == needle.as_slice());
    assert!(!found, "plaintext weights leaked onto the SSD checkpoint");
}

#[test]
fn ssd_restore_rejects_dropped_tensors_and_foreign_shapes_without_panicking() {
    // The host owns the SSD. Each sealed tensor's AAD binds only its layer and tensor
    // index, so both checkpoints below still authenticate; the restore itself must
    // refuse to install tensors the enclave model cannot hold.
    let (ctx, _key) = ctx_with_key(9);
    let mut rng = StdRng::seed_from_u64(10);
    let net = plinius_darknet::build_network(&mnist_cnn_config(2, 4, 4), &mut rng).unwrap();
    let mut backend = SsdCheckpointBackend::new("model.ckpt");
    backend.persist(&ctx, &net, 1).unwrap();

    // A checkpoint written for a model of another shape (wider convolutions).
    let mut wider = plinius_darknet::build_network(&mnist_cnn_config(2, 8, 4), &mut rng).unwrap();
    let err = backend.restore(&ctx, &mut wider).unwrap_err();
    assert!(matches!(err, PliniusError::MirrorMismatch(_)), "{err}");

    // The host drops one sealed tensor of the first layer.
    let mut file = SealedEpoch::from_bytes(&ctx.ssd().read_all("model.ckpt").unwrap()).unwrap();
    let last = plinius_darknet::PARAM_TENSORS_PER_LAYER - 1;
    let start = file.sealed_lens[..last].iter().sum::<u64>() as usize;
    let dropped = file.sealed_lens.remove(last) as usize;
    file.arena.drain(start..start + dropped);
    ctx.ssd().create("model.ckpt");
    ctx.ssd().write("model.ckpt", &file.to_bytes());
    let mut same_shape =
        plinius_darknet::build_network(&mnist_cnn_config(2, 4, 4), &mut rng).unwrap();
    let err = backend.restore(&ctx, &mut same_shape).unwrap_err();
    assert!(matches!(err, PliniusError::MirrorMismatch(_)), "{err}");
}

#[test]
fn owner_never_provisions_a_key_to_an_unexpected_enclave() {
    let trusted = PliniusContext::create(CostModel::sgx_eml_pm(), 8 * 1024 * 1024).unwrap();
    let service = AttestationService::new(b"platform".to_vec());
    let mut rng = StdRng::seed_from_u64(7);
    let owner = DataOwner::new(Key::generate_128(&mut rng), trusted.enclave().measurement());
    // A different (rogue) deployment with a different measurement must be rejected.
    let rogue_enclave = plinius_sgx::Enclave::create(b"rogue-binary".to_vec());
    assert!(owner
        .provision_key(&service, &rogue_enclave, plinius::MODEL_KEY_NAME)
        .is_err());
    // The trusted one is accepted.
    trusted
        .provision_key_via_attestation(&owner, &service)
        .unwrap();
    assert!(trusted.key().is_ok());
}
