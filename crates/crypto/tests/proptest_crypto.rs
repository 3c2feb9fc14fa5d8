//! Property-based tests for the crypto substrate: AES-GCM round-trips, tamper
//! detection, hash/HMAC determinism, and the byte-for-byte pin of **every engine** —
//! vector (VAES + VPCLMULQDQ) and hardware (AES-NI + PCLMUL), when the host supports
//! them, and scalar (T-table AES + Shoup GHASH) — against the retained reference
//! kernels on ciphertext *and* tag.

use plinius_crypto::{
    seal_into, seal_into_with_threads, sealed_len, Aes, AesGcm, CryptoError, EngineKind,
    EnginePolicy, Key, SealedView, Sha256, IV_LEN, SEAL_OVERHEAD,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// One context per engine this host can build, pinned by value: the vector and
/// the 128-bit hardware engines where the CPU has them, and scalar everywhere.
fn engines(key: &[u8]) -> Vec<AesGcm> {
    EngineKind::ALL
        .into_iter()
        .filter_map(|kind| AesGcm::with_engine(Aes::new(key), kind))
        .collect()
}

/// Seals `data` into a fresh vector under `key`, with an IV drawn from `rng`.
fn seal(key: &Key, data: &[u8], aad: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut iv = [0u8; IV_LEN];
    rng.fill_bytes(&mut iv);
    let mut sealed = vec![0u8; sealed_len(data.len())];
    seal_into(&key.gcm(), data, aad, &iv, &mut sealed).unwrap();
    sealed
}

/// Opens `sealed` under `key` into a fresh vector.
fn open(key: &Key, sealed: &[u8], aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
    let view = SealedView::parse(sealed)?;
    let mut out = vec![0u8; view.plaintext_len()];
    view.open_into(&key.gcm(), aad, &mut out)?;
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any plaintext sealed under any 128-bit key opens back to the same bytes.
    #[test]
    fn seal_open_round_trip(seed in any::<u64>(), data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = Key::generate_128(&mut rng);
        let sealed = seal(&key, &data, b"", &mut rng);
        prop_assert_eq!(sealed.len(), data.len() + SEAL_OVERHEAD);
        prop_assert_eq!(open(&key, &sealed, b"").unwrap(), data);
    }

    /// Flipping any single bit of the sealed representation breaks authentication.
    #[test]
    fn any_single_bitflip_is_detected(
        seed in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 1..512),
        byte_choice in any::<u16>(),
        bit in 0u8..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = Key::generate_128(&mut rng);
        let mut sealed = seal(&key, &data, b"", &mut rng);
        let idx = byte_choice as usize % sealed.len();
        sealed[idx] ^= 1 << bit;
        prop_assert_eq!(open(&key, &sealed, b"").unwrap_err(), CryptoError::AuthenticationFailed);
    }

    /// Decrypting with a different key never succeeds.
    #[test]
    fn wrong_key_never_opens(seed in any::<u64>(), data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = Key::generate_128(&mut rng);
        let wrong = Key::generate_128(&mut rng);
        prop_assume!(key.as_bytes() != wrong.as_bytes());
        let sealed = seal(&key, &data, b"", &mut rng);
        prop_assert!(open(&wrong, &sealed, b"").is_err());
    }

    /// AAD participates in authentication: a mismatched AAD never opens.
    #[test]
    fn aad_mismatch_never_opens(
        seed in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..256),
        aad_a in proptest::collection::vec(any::<u8>(), 0..32),
        aad_b in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        prop_assume!(aad_a != aad_b);
        let mut rng = StdRng::seed_from_u64(seed);
        let key = Key::generate_128(&mut rng);
        let sealed = seal(&key, &data, &aad_a, &mut rng);
        prop_assert_eq!(open(&key, &sealed, &aad_a).unwrap(), data);
        prop_assert!(open(&key, &sealed, &aad_b).is_err());
    }

    /// SHA-256 is deterministic and the incremental API agrees with the one-shot API
    /// regardless of how the input is chunked.
    #[test]
    fn sha256_chunking_invariance(data in proptest::collection::vec(any::<u8>(), 0..4096), chunk in 1usize..97) {
        let one_shot = Sha256::digest(&data);
        let mut h = Sha256::new();
        for c in data.chunks(chunk) {
            h.update(c);
        }
        prop_assert_eq!(h.finalize(), one_shot);
    }

    /// 256-bit keys round-trip just like 128-bit keys.
    #[test]
    fn aes256_round_trip(seed in any::<u64>(), data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = Key::generate_256(&mut rng);
        let sealed = seal(&key, &data, b"", &mut rng);
        prop_assert_eq!(open(&key, &sealed, b"").unwrap(), data);
    }

    /// All constructible engines — vector and hardware (on hosts that have them),
    /// the table-driven scalar engine, and the retained reference kernels — are pinned
    /// byte-for-byte to each other on ciphertext *and* tag, for every key size,
    /// arbitrary AAD, and both 96-bit and GHASH-derived IV shapes.
    #[test]
    fn engines_are_byte_identical(
        seed in any::<u64>(),
        key_choice in 0u8..3,
        iv_len in prop_oneof![Just(12usize), 1usize..64],
        aad in proptest::collection::vec(any::<u8>(), 0..48),
        data in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut key = vec![0u8; [16, 24, 32][key_choice as usize]];
        rng.fill_bytes(&mut key);
        let mut iv = vec![0u8; iv_len];
        rng.fill_bytes(&mut iv);
        let all = engines(&key);
        let baseline = all[0].encrypt_reference(&iv, &aad, &data).unwrap();
        for gcm in &all {
            let out = gcm.encrypt(&iv, &aad, &data).unwrap();
            prop_assert_eq!(&out, &baseline, "engine {} diverges from reference", gcm.engine_name());
            let (ct, tag) = out;
            prop_assert_eq!(gcm.decrypt(&iv, &aad, &ct, &tag).unwrap(), data.clone());
        }
    }

    /// Chunked/threaded `seal_into` on the auto-selected engine (the widest the host
    /// has) is bit-identical to the serial scalar seal at counter-boundary splits:
    /// sizes straddling the 64 KiB parallel chunk boundary, for every thread count
    /// and a handful of offsets around the exact boundary.
    #[test]
    fn threaded_hw_seal_matches_scalar_at_chunk_boundaries(
        boundary_mult in 1usize..4,
        offset in prop_oneof![Just(-17i64), Just(-1), Just(0), Just(1), Just(15), Just(4096)],
        threads in 1usize..6,
        seed in any::<u64>(),
    ) {
        let size = ((boundary_mult * 64 * 1024) as i64 + offset) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut key = [0u8; 16];
        rng.fill_bytes(&mut key);
        let mut data = vec![0u8; size];
        rng.fill_bytes(&mut data);
        let iv = [0x5au8; 12];
        let scalar = AesGcm::with_policy(Aes::new(&key), EnginePolicy::Scalar);
        let mut want = vec![0u8; sealed_len(size)];
        seal_into(&scalar, &data, b"hw", &iv, &mut want).unwrap();
        let auto = AesGcm::with_policy(Aes::new(&key), EnginePolicy::Auto);
        let mut got = vec![0u8; sealed_len(size)];
        seal_into_with_threads(&auto, &data, b"hw", &iv, &mut got, threads).unwrap();
        prop_assert_eq!(got, want, "engine {} with {} threads diverges", auto.engine_name(), threads);
    }

    /// Zero-copy sealing into an arena slice produces exactly the sealed-buffer layout
    /// `ciphertext || IV || MAC` of the detached AEAD, for every thread count, and
    /// opens back through a borrowed view.
    #[test]
    fn seal_into_and_view_match_sealed_buffer(
        seed in any::<u64>(),
        aad in proptest::collection::vec(any::<u8>(), 0..32),
        data in proptest::collection::vec(any::<u8>(), 0..1024),
        threads in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = Key::generate_128(&mut rng);
        let mut iv = [0u8; 12];
        rng.fill_bytes(&mut iv);
        let gcm = key.gcm();
        let (ct, tag) = gcm.encrypt(&iv, &aad, &data).unwrap();
        let mut arena = vec![0u8; sealed_len(data.len())];
        seal_into_with_threads(&gcm, &data, &aad, &iv, &mut arena, threads).unwrap();
        prop_assert_eq!(&arena, &[&ct[..], &iv[..], &tag[..]].concat());
        let view = SealedView::parse(&arena).unwrap();
        let mut opened = vec![0u8; view.plaintext_len()];
        view.open_into(&gcm, &aad, &mut opened).unwrap();
        prop_assert_eq!(opened, data);
    }

    /// `seal_into` (serial) and the threaded variant agree for chunk-crossing sizes.
    #[test]
    fn threaded_seal_is_thread_count_invariant(
        size in prop_oneof![Just(0usize), 1usize..2048, (128usize * 1024)..(192 * 1024)],
        threads in 2usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(size as u64);
        let key = Key::generate_128(&mut rng);
        let gcm = key.gcm();
        let mut data = vec![0u8; size];
        rng.fill_bytes(&mut data);
        let iv = [7u8; 12];
        let mut serial = vec![0u8; sealed_len(size)];
        seal_into(&gcm, &data, b"t", &iv, &mut serial).unwrap();
        let mut parallel = vec![0u8; sealed_len(size)];
        seal_into_with_threads(&gcm, &data, b"t", &iv, &mut parallel, threads).unwrap();
        prop_assert_eq!(serial, parallel);
    }
}
