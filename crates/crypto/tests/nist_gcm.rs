//! NIST SP 800-38D (GCM spec, Appendix B) multi-block test vectors.
//!
//! The unit tests inside `gcm.rs` cover cases 1-4 (AES-128, 96-bit IV); this suite
//! adds the harder shapes the engines must get right: multi-block messages with
//! AAD and a partial final block, **non-96-bit IVs** (8-byte and 60-byte, which take
//! the GHASH-based J0 derivation), and the AES-192/AES-256 key sizes. Every vector is
//! checked on **every engine** (vector and hardware when the host supports them, and
//! scalar), on
//! the explicit `encrypt_reference` entry point, and through cross-engine decrypt
//! round-trips (sealed on one engine, opened on another).

use plinius_crypto::{Aes, AesGcm, EngineKind};

fn hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// Every engine constructible on this host, pinned by value: the vector and the
/// 128-bit hardware engines where the CPU has them, and scalar everywhere. `check`
/// pins each to the reference kernels.
fn engines(key: &[u8]) -> Vec<AesGcm> {
    EngineKind::ALL
        .into_iter()
        .filter_map(|kind| AesGcm::with_engine(Aes::new(key), kind))
        .collect()
}

/// The 60-byte plaintext shared by cases 4-6, 10 and 16 (3 full blocks + 12 bytes).
const PT_60: &str = "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                     1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39";

/// The 20-byte AAD shared by the AAD-bearing cases.
const AAD_20: &str = "feedfacedeadbeeffeedfacedeadbeefabaddad2";

/// Runs one vector on every engine, the explicit reference entry point, and
/// cross-engine decrypt round-trips.
fn check(key: &str, iv: &str, aad: &str, pt: &str, expect_ct: &str, expect_tag: &str) {
    let (key, iv, aad, pt) = (hex(key), hex(iv), hex(aad), hex(pt));
    let all = engines(&key);
    for gcm in &all {
        let (ct, tag) = gcm.encrypt(&iv, &aad, &pt).unwrap();
        let engine = gcm.engine_name();
        assert_eq!(ct, hex(expect_ct), "ciphertext ({engine})");
        assert_eq!(tag.to_vec(), hex(expect_tag), "tag ({engine})");
        let (ct_ref, tag_ref) = gcm.encrypt_reference(&iv, &aad, &pt).unwrap();
        assert_eq!(ct_ref, ct, "reference kernels must agree ({engine})");
        assert_eq!(tag_ref, tag, "reference tag must agree ({engine})");
        // Sealed-bytes portability across engines: what any engine produced, every
        // engine (including itself) must open.
        for opener in &all {
            assert_eq!(
                opener.decrypt(&iv, &aad, &ct, &tag).unwrap(),
                pt,
                "round trip {} -> {}",
                engine,
                opener.engine_name()
            );
        }
    }
}

/// Case 5: AES-128, 8-byte IV (GHASH-derived J0), AAD, partial final block.
#[test]
fn case_5_aes128_64bit_iv() {
    check(
        "feffe9928665731c6d6a8f9467308308",
        "cafebabefacedbad",
        AAD_20,
        PT_60,
        "61353b4c2806934a777ff51fa22a4755699b2a714fcdc6f83766e5f97b6c7423\
         73806900e49f24b22b097544d4896b424989b5e1ebac0f07c23f4598",
        "3612d2e79e3b0785561be14aaca2fccb",
    );
}

/// Case 6: AES-128, 60-byte IV (GHASH-derived J0 over several blocks), AAD.
#[test]
fn case_6_aes128_480bit_iv() {
    check(
        "feffe9928665731c6d6a8f9467308308",
        "9313225df88406e555909c5aff5269aa6a7a9538534f7da1e4c303d2a318a728\
         c3c0c95156809539fcf0e2429a6b525416aedbf5a0de6a57a637b39b",
        AAD_20,
        PT_60,
        "8ce24998625615b603a033aca13fb894be9112a5c3a211a8ba262a3cca7e2ca7\
         01e4a9a4fba43c90ccdcb281d48c7c6fd62875d2aca417034c34aee5",
        "619cc5aefffe0bfa462af43c1699d050",
    );
}

/// Case 10: AES-192, 96-bit IV, AAD, partial final block.
#[test]
fn case_10_aes192_with_aad() {
    check(
        "feffe9928665731c6d6a8f9467308308feffe9928665731c",
        "cafebabefacedbaddecaf888",
        AAD_20,
        PT_60,
        "3980ca0b3c00e841eb06fac4872a2757859e1ceaa6efd984628593b40ca1e19c\
         7d773d00c144c525ac619d18c84a3f4718e2448b2fe324d9ccda2710",
        "2519498e80f1478f37ba55bd6d27618c",
    );
}

/// Case 15: AES-256, four full blocks of plaintext, no AAD.
#[test]
fn case_15_aes256_four_blocks() {
    check(
        "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
        "cafebabefacedbaddecaf888",
        "",
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
         1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
         8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad",
        "b094dac5d93471bdec1a502270e3cc6c",
    );
}

/// Case 16: AES-256 with AAD and a partial final block.
#[test]
fn case_16_aes256_with_aad() {
    check(
        "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
        "cafebabefacedbaddecaf888",
        AAD_20,
        PT_60,
        "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
         8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
        "76fc6ece0f4e1768cddf8853bb2d551b",
    );
}

/// Tampering with any of the non-96-bit-IV vectors is still caught.
#[test]
fn non_96_bit_iv_tamper_detection() {
    let gcm = AesGcm::from_key(&hex("feffe9928665731c6d6a8f9467308308"));
    let iv = hex("cafebabefacedbad");
    let (ct, mut tag) = gcm.encrypt(&iv, &hex(AAD_20), &hex(PT_60)).unwrap();
    tag[15] ^= 0x80;
    assert!(gcm.decrypt(&iv, &hex(AAD_20), &ct, &tag).is_err());
}
