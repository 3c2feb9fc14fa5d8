//! Property-based tests for the crypto substrate: AES-GCM round-trips, tamper
//! detection, hash/HMAC determinism, and the byte-for-byte pin of **every engine** —
//! vector (VAES + VPCLMULQDQ) and hardware (AES-NI + PCLMUL), when the host supports
//! them, and scalar (T-table AES + Shoup GHASH) — against the retained reference
//! kernels on ciphertext *and* tag, for byte and `f32` plaintext alike.

use plinius_crypto::{
    open_f32s_into, seal_f32s_into, seal_into, sealed_len, Aes, AesGcm, CryptoError, EngineKind,
    Key, SealedView, Sha256, IV_LEN, SEAL_OVERHEAD,
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

    /// Zero-copy sealing into an arena slice produces exactly the sealed-buffer layout
    /// `ciphertext || IV || MAC` of the detached AEAD, and opens back through a
    /// borrowed view.
    #[test]
    fn seal_into_and_view_match_sealed_buffer(
        seed in any::<u64>(),
        aad in proptest::collection::vec(any::<u8>(), 0..32),
        data in proptest::collection::vec(any::<u8>(), 0..1024),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = Key::generate_128(&mut rng);
        let mut iv = [0u8; 12];
        rng.fill_bytes(&mut iv);
        let gcm = key.gcm();
        let (ct, tag) = gcm.encrypt(&iv, &aad, &data).unwrap();
        let mut arena = vec![0u8; sealed_len(data.len())];
        seal_into(&gcm, &data, &aad, &iv, &mut arena).unwrap();
        prop_assert_eq!(&arena, &[&ct[..], &iv[..], &tag[..]].concat());
        let view = SealedView::parse(&arena).unwrap();
        let mut opened = vec![0u8; view.plaintext_len()];
        view.open_into(&gcm, &aad, &mut opened).unwrap();
        prop_assert_eq!(opened, data);
    }

    /// A tensor's `f32` plaintext is byte-exact on every engine: sealing the `f32`s
    /// gives the bytes `seal_into` gives their little-endian image, the
    /// verify-then-decrypt into `f32`s gives back every bit (NaN payloads, signed
    /// zeros, infinities and subnormals included), and a wrong tag, AAD or key in
    /// any blob of a three-tensor model leaves every output untouched.
    #[test]
    fn f32_plaintext_is_byte_exact_on_every_engine(
        seed in any::<u64>(),
        bits in proptest::collection::vec(any::<u32>(), 0..300),
        cuts in (0usize..300, 0usize..300),
        victim in 0usize..3,
        tamper in 0u8..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut key = [0u8; 16];
        rng.fill_bytes(&mut key);
        let mut iv = [0u8; IV_LEN];
        rng.fill_bytes(&mut iv);
        let values = with_specials(&bits, seed);
        for gcm in engines_or_skip(&key) {
            let name = gcm.engine_name();
            let mut from_f32s = vec![0u8; sealed_len(values.len() * 4)];
            seal_f32s_into(&gcm, &values, b"tensor", &iv, &mut from_f32s).unwrap();
            let mut from_bytes = vec![0u8; from_f32s.len()];
            seal_into(&gcm, &le_bytes(&values), b"tensor", &iv, &mut from_bytes).unwrap();
            prop_assert_eq!(&from_f32s, &from_bytes, "engine {}", name);
            let mut opened = vec![0.0f32; values.len()];
            open_f32s_into(&gcm, [(&from_f32s[..], &b"tensor"[..])], [&mut opened[..]]).unwrap();
            prop_assert_eq!(to_bits(&opened), to_bits(&values), "engine {}", name);

            // Three tensors, one of them sealed wrongly.
            let (a, b) = (cuts.0.min(cuts.1).min(values.len()), cuts.0.max(cuts.1).min(values.len()));
            let tensors = [&values[..a], &values[a..b], &values[b..]];
            let aads: [&[u8]; 3] = [b"t0", b"t1", b"t2"];
            let other = Key::generate_128(&mut rng).gcm();
            let blobs: Vec<Vec<u8>> = tensors
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let under = if i == victim && tamper == 2 { &other } else { &gcm };
                    let mut blob = vec![0u8; sealed_len(t.len() * 4)];
                    seal_f32s_into(under, t, aads[i], &iv, &mut blob).unwrap();
                    if i == victim && tamper == 0 {
                        let last = blob.len() - 1;
                        blob[last] ^= 0x80;
                    }
                    blob
                })
                .collect();
            let mut open_aads = aads;
            if tamper == 1 {
                open_aads[victim] = b"tX";
            }
            let mut outputs: Vec<Vec<f32>> =
                tensors.iter().map(|t| vec![f32::from_bits(0x7fc0_5a5a); t.len()]).collect();
            let result = open_f32s_into(
                &gcm,
                blobs.iter().map(Vec::as_slice).zip(open_aads),
                outputs.iter_mut().map(Vec::as_mut_slice),
            );
            prop_assert_eq!(result, Err(CryptoError::AuthenticationFailed), "engine {}", name);
            for out in &outputs {
                prop_assert!(out.iter().all(|x| x.to_bits() == 0x7fc0_5a5a), "engine {} wrote", name);
            }
        }
    }
}

/// One context per engine this host can build; the others are skipped with a message.
fn engines_or_skip(key: &[u8]) -> Vec<AesGcm> {
    EngineKind::ALL
        .into_iter()
        .filter_map(|kind| {
            let gcm = AesGcm::with_engine(Aes::new(key), kind);
            if gcm.is_none() {
                eprintln!("skipping the {kind} engine: this host lacks its CPU features");
            }
            gcm
        })
        .collect()
}

/// `f32` bit patterns that conversions get wrong most easily: NaN payloads of both
/// kinds and signs, signed zeros and infinities, and subnormals.
const SPECIALS: [u32; 10] = [
    0x7fc0_0001,
    0xffa0_1234,
    0x7f80_0001,
    0x7f80_0000,
    0xff80_0000,
    0x0000_0000,
    0x8000_0000,
    0x0000_0001,
    0x807f_ffff,
    0x0040_0000,
];

/// The values of `bits`, every third one replaced by a special pattern.
fn with_specials(bits: &[u32], seed: u64) -> Vec<f32> {
    bits.iter()
        .enumerate()
        .map(|(i, &b)| {
            let special = SPECIALS[(i / 3 + seed as usize) % SPECIALS.len()];
            f32::from_bits(if i % 3 == 0 { special } else { b })
        })
        .collect()
}

fn le_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn to_bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// A 1 Mi-float tensor seals to the bytes of its little-endian image and opens back
/// bit for bit on every engine: the vector engine's wide groups, every tail shape
/// and the stack blocks of the others all run at the size of a model layer.
#[test]
fn a_one_mebifloat_tensor_is_byte_exact_on_every_engine() {
    let bits: Vec<u32> = (0..1u32 << 20)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let values = with_specials(&bits, 7);
    let iv = [0x3cu8; IV_LEN];
    let mut want = vec![0u8; sealed_len(values.len() * 4)];
    let mut got = vec![0u8; want.len()];
    let mut opened = vec![0.0f32; values.len()];
    for gcm in engines_or_skip(&[0x11u8; 16]) {
        seal_into(&gcm, &le_bytes(&values), b"layer0-tensor0", &iv, &mut want).unwrap();
        seal_f32s_into(&gcm, &values, b"layer0-tensor0", &iv, &mut got).unwrap();
        assert!(got == want, "engine {}", gcm.engine_name());
        open_f32s_into(
            &gcm,
            [(&got[..], &b"layer0-tensor0"[..])],
            [&mut opened[..]],
        )
        .unwrap();
        assert!(
            to_bits(&opened) == to_bits(&values),
            "engine {}",
            gcm.engine_name()
        );
    }
}
