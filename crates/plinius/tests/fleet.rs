//! Multi-tenant isolation guarantees, end to end: sealed epochs are rejected
//! wholesale across tenant key boundaries, a mid-publish crash of one tenant
//! leaves every bystander tenant's epoch listing and restored weights bit-exact
//! (fail-point sweep over the whole publish), and tenants sharing a deployment's SSD
//! never collide on checkpoint file names.

use plinius::{MirrorModel, MirrorVfs, PersistenceBackend, PliniusContext, PliniusError, TenantId};
use plinius_crypto::Key;
use plinius_darknet::config::{build_network, mnist_cnn_config};
use plinius_darknet::Network;
use plinius_pmem::CrashMode;
use plinius_romulus::FailPoint;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small fixed-shape network; weights are a pure function of `seed`.
fn seeded_network(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    build_network(&mnist_cnn_config(2, 4, 4), &mut rng).unwrap()
}

/// Stamps a recognisable per-epoch tag into the first parameter of the first
/// trainable layer.
fn tag_weights(net: &mut Network, tag: f32) {
    let layer = net
        .layers_mut()
        .iter_mut()
        .find(|l| l.is_trainable())
        .unwrap();
    let mut tensors: Vec<Vec<f32>> = layer.params().iter().map(|p| p.data.to_vec()).collect();
    tensors[0][0] = tag;
    layer.set_params(&tensors);
}

fn weights(net: &Network) -> Vec<Vec<f32>> {
    net.layers()
        .iter()
        .filter(|l| l.is_trainable())
        .flat_map(|l| {
            l.params()
                .iter()
                .map(|p| p.data.to_vec())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// A two-tenant deployment on one pool: each tenant gets its scoped context, its
/// derived sealing key provisioned under its own key-store slot, and a mirror
/// with `committed` tagged epochs on a depth-`ring` ring.
fn two_tenant_deployment(
    ring: usize,
    committed: u64,
) -> (PliniusContext, Vec<(PliniusContext, MirrorModel, Key)>) {
    let ctx = PliniusContext::small_test(48 * 1024 * 1024);
    let mut tenants = Vec::new();
    for raw in 0..2u64 {
        let tctx = ctx.for_tenant(TenantId::new(raw).unwrap());
        let key = tctx.enclave().tenant_sealing_key(raw);
        tctx.provision_key_directly(key.clone());
        // Distinct weight streams per tenant so cross-tenant corruption cannot
        // hide behind identical bytes.
        let mut net = seeded_network(100 + raw);
        let mirror = MirrorModel::allocate_with_ring(&tctx, &net, ring).unwrap();
        for e in 1..=committed {
            tag_weights(&mut net, (raw * 1000 + e) as f32);
            net.set_iteration(e);
            mirror.mirror_out(&tctx, &net).unwrap();
        }
        tenants.push((tctx, mirror, key));
    }
    (ctx, tenants)
}

/// Sealed epochs are cryptographically tenant-scoped: tenant A's export fails
/// AES-GCM authentication wholesale under tenant B's derived key, committing
/// nothing — while re-importing under A's own key in a fresh deployment works.
#[test]
fn sealed_epochs_are_rejected_across_tenant_key_boundaries() {
    let (_ctx, tenants) = two_tenant_deployment(3, 2);
    let (ctx_a, mirror_a, key_a) = &tenants[0];
    let (ctx_b, mirror_b, _) = &tenants[1];

    let payload = MirrorVfs::new(ctx_a, mirror_a).export(2).unwrap();
    assert_eq!(payload.epoch, 2);

    // Tenant B holds a different derived key: the import is rejected outright
    // and B's ring is untouched.
    let before = mirror_b.epochs(ctx_b).unwrap();
    let vfs_b = MirrorVfs::new(ctx_b, mirror_b);
    assert!(matches!(
        vfs_b.import(&payload),
        Err(PliniusError::Crypto(_))
    ));
    assert_eq!(mirror_b.epochs(ctx_b).unwrap(), before);

    // Sanity: the payload itself is fine — a deployment holding tenant A's key
    // accepts it bit-exactly.
    let ctx_c = PliniusContext::small_test(24 * 1024 * 1024);
    ctx_c.provision_key_directly(key_a.clone());
    let mirror_c = MirrorModel::allocate(&ctx_c, &seeded_network(100)).unwrap();
    let committed = MirrorVfs::new(&ctx_c, &mirror_c).import(&payload).unwrap();
    let mut restored = seeded_network(7);
    mirror_c
        .restore_epoch(&ctx_c, &mut restored, committed)
        .unwrap();
    let mut expected = seeded_network(100);
    tag_weights(&mut expected, 2.0);
    assert_eq!(weights(&restored), weights(&expected));
}

/// The structural crash-isolation contract: for *every* direct-publish fail point
/// of tenant A's interrupted publish (plus the flip-transaction points), a power
/// failure and recovery leave tenant B's epoch listing and every restored epoch's
/// weights bit-for-bit identical to their pre-crash state.
#[test]
fn mid_publish_crash_of_one_tenant_leaves_bystanders_bit_exact() {
    // One meta invalidation plus one twin write per tensor (see the ring tests).
    let probe = seeded_network(100);
    let num_tensors: usize = probe
        .layers()
        .iter()
        .filter(|l| l.is_trainable())
        .map(|l| l.params().len())
        .sum();
    let publish_calls = 1 + num_tensors;

    let mut plans: Vec<FailPoint> = (0..publish_calls)
        .map(FailPoint::AfterDirectPublishes)
        .collect();
    plans.push(FailPoint::AfterMutatingState);
    plans.push(FailPoint::AfterStores(2));
    plans.push(FailPoint::AfterCopyingState);

    for (i, fp) in plans.into_iter().enumerate() {
        let ring = 3;
        let committed = 2u64;
        let (ctx, tenants) = two_tenant_deployment(ring, committed);
        let (ctx_a, mirror_a, key_a) = &tenants[0];
        let (ctx_b, mirror_b, key_b) = &tenants[1];

        // Pre-crash ground truth for the bystander (tenant B).
        let b_epochs = mirror_b.epochs(ctx_b).unwrap();
        let b_weights: Vec<_> = b_epochs
            .iter()
            .map(|&e| {
                let mut net = seeded_network(9);
                mirror_b.restore_epoch(ctx_b, &mut net, e).unwrap();
                weights(&net)
            })
            .collect();

        // Tenant A's next publish is interrupted at the armed point.
        let mut net_a = seeded_network(100);
        tag_weights(&mut net_a, (committed + 1) as f32);
        net_a.set_iteration(committed + 1);
        ctx_a.romulus().inject_failure(fp);
        let result = mirror_a.mirror_out(ctx_a, &net_a);
        assert!(result.is_err(), "fail point {fp:?} must fire");

        // Power failure + restart over the surviving pool.
        let pool = ctx.pool().clone();
        let (key_a, key_b) = (key_a.clone(), key_b.clone());
        drop((ctx, tenants));
        let mut rng = StdRng::seed_from_u64(0xb5 ^ i as u64);
        pool.crash(&mut rng, CrashMode::DropUnflushed);
        let ctx2 = PliniusContext::open(pool, sim_clock::CostModel::sgx_eml_pm()).unwrap();

        // Tenant B after recovery: listing and weights bit-exact.
        let ctx_b2 = ctx2.for_tenant(TenantId::new(1).unwrap());
        ctx_b2.provision_key_directly(key_b);
        let mirror_b2 = MirrorModel::open(&ctx_b2).unwrap();
        assert_eq!(
            mirror_b2.epochs(&ctx_b2).unwrap(),
            b_epochs,
            "bystander listing changed under {fp:?}"
        );
        for (&e, expected) in b_epochs.iter().zip(&b_weights) {
            let mut net = seeded_network(10);
            mirror_b2.restore_epoch(&ctx_b2, &mut net, e).unwrap();
            assert_eq!(
                &weights(&net),
                expected,
                "bystander epoch {e} corrupted under {fp:?}"
            );
        }

        // Tenant A itself recovers to a consistent state: the interrupted epoch
        // either rolled back entirely or committed, never half-landed.
        let ctx_a2 = ctx2.for_tenant(TenantId::new(0).unwrap());
        ctx_a2.provision_key_directly(key_a);
        let mirror_a2 = MirrorModel::open(&ctx_a2).unwrap();
        let newest = mirror_a2.epoch(&ctx_a2).unwrap();
        assert!(
            newest == committed || newest == committed + 1,
            "tenant A recovered to epoch {newest} under {fp:?}"
        );
        let mut net = seeded_network(11);
        let report = mirror_a2.mirror_in(&ctx_a2, &mut net).unwrap();
        assert_eq!(report.epoch, newest);
    }
}

/// Tenants share their deployment's SSD and are kept apart by path: two tenants
/// whose specs name the same checkpoint path each resume their own weights after a
/// restart that carries the disk, and another deployment sees neither file.
#[test]
fn tenants_sharing_one_ssd_resume_their_own_checkpoints() {
    let spec = PersistenceBackend::SsdCheckpoint("model.ckpt".into());
    let ctx = PliniusContext::small_test(16 * 1024 * 1024);
    let tenants = [TenantId::new(0).unwrap(), TenantId::new(1).unwrap()];
    let mut saved = Vec::new();
    for &tenant in &tenants {
        let tctx = ctx.for_tenant(tenant);
        tctx.provision_key_directly(tctx.enclave().tenant_sealing_key(tenant.raw()));
        let mut net = seeded_network(100 + tenant.raw());
        net.set_iteration(10 + tenant.raw());
        spec.instantiate(2)
            .persist(&tctx, &net, net.iteration())
            .unwrap();
        saved.push(weights(&net));
    }
    assert_eq!(ctx.ssd().list(), ["model.ckpt", "tenant1/model.ckpt"]);

    // Restart over the surviving pool, carrying the disk.
    let (pool, ssd) = (ctx.pool().clone(), ctx.ssd().clone());
    drop(ctx);
    let ctx2 = PliniusContext::open(pool, sim_clock::CostModel::sgx_eml_pm())
        .unwrap()
        .with_ssd(&ssd);
    let other = PliniusContext::small_test(16 * 1024 * 1024);
    for (&tenant, saved) in tenants.iter().zip(&saved) {
        let tctx = ctx2.for_tenant(tenant);
        tctx.provision_key_directly(tctx.enclave().tenant_sealing_key(tenant.raw()));
        let mut backend = spec.instantiate(2);
        assert!(backend.exists(&tctx), "tenant {tenant} lost its checkpoint");
        let mut net = seeded_network(7);
        assert_eq!(backend.restore(&tctx, &mut net).unwrap(), 10 + tenant.raw());
        assert_eq!(
            &weights(&net),
            saved,
            "tenant {tenant} resumed foreign weights"
        );
        assert!(!backend.exists(&other.for_tenant(tenant)));
    }
    assert!(other.ssd().list().is_empty());
}
