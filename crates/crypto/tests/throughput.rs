//! Release-mode throughput sanity for the AEAD engines, engine-aware:
//!
//! * the **scalar** (T-table/Shoup) engine must beat the retained byte-wise /
//!   bit-serial reference kernels by a wide margin on a mirror-sized buffer, and
//! * on hosts with AES-NI + PCLMUL, the **hardware** engine must beat the
//!   reference by a much wider margin and the scalar engine by a real one, and
//! * on hosts with VAES + VPCLMULQDQ, the **vector** engine must seal and open
//!   at least 2.5x as fast as the 128-bit hardware engine on one thread.
//!
//! The tests are `#[ignore]`d: wall-clock ratios are only meaningful in release
//! builds, so the CI release job runs them explicitly, one at a time so that no gate
//! times while another spins on a second core:
//! `cargo test --release -p plinius-crypto -- --ignored --test-threads=1`.

use plinius_crypto::{hw_available, Aes, AesGcm, EngineKind, EnginePolicy};
use std::time::Instant;

/// Runs of the byte-wise reference kernels each gate takes the best of: the
/// baseline of every ratio, and the slowest and noisiest measurement of the file.
/// Each reference run alternates with a run of every engine the gate compares, so a
/// change in the host's speed hits them all.
const REFERENCE_RUNS: usize = 9;

/// Best-of-N wall-clock seconds for one run of `f`.
fn best_of<F: FnMut()>(n: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Checks that each of `engines` agrees bit for bit with the reference kernels on
/// `data`, then returns the best seconds per 1 MiB encrypt of the reference kernels
/// and of each engine, over [`REFERENCE_RUNS`] rounds that each run the reference
/// once and every engine `reps` times.
fn reference_and_engines(engines: &[&AesGcm], data: &[u8], reps: usize) -> (f64, Vec<f64>) {
    let iv = [9u8; 12];
    let aad = b"throughput-gate";
    let baseline = engines[0].encrypt_reference(&iv, aad, data).unwrap();
    let mut out = vec![0u8; data.len()];
    for gcm in engines {
        let tag = gcm.encrypt_into(&iv, aad, data, &mut out).unwrap();
        assert_eq!(
            (out.clone(), tag),
            baseline,
            "engine {} must agree bit-for-bit with the reference kernels",
            gcm.engine_name()
        );
    }
    let mut reference_s = f64::INFINITY;
    let mut engine_s = vec![f64::INFINITY; engines.len()];
    for _ in 0..REFERENCE_RUNS {
        reference_s = reference_s.min(best_of(1, || {
            let _ = engines[0].encrypt_reference(&iv, aad, data).unwrap();
        }));
        for (gcm, best) in engines.iter().zip(&mut engine_s) {
            *best = best.min(best_of(reps, || {
                let _ = gcm.encrypt_into(&iv, aad, data, &mut out).unwrap();
            }));
        }
    }
    (reference_s, engine_s)
}

/// The scalar engine keeps its historical floor over the reference kernels on one
/// thread, independent of what hardware the host has.
#[test]
#[ignore = "wall-clock throughput gate; run with --release (see CI release job)"]
fn scalar_gcm_beats_reference_on_1mib() {
    let gcm = AesGcm::with_policy(Aes::new(&[0x42u8; 16]), EnginePolicy::Scalar);
    let data = vec![7u8; 1 << 20];
    let (reference_s, engine_s) = reference_and_engines(&[&gcm], &data, 1);
    let single_s = engine_s[0];
    let single_x = reference_s / single_s;
    println!(
        "AES-GCM 1 MiB: reference {:.1} MiB/s | scalar 1-thread {:.1} MiB/s ({single_x:.1}x)",
        1.0 / reference_s,
        1.0 / single_s,
    );
    assert!(
        single_x >= 3.0,
        "single-thread scalar GCM must be at least 3x the reference (got {single_x:.2}x)"
    );
}

/// On AES-NI + PCLMUL hosts the hardware engine must be at least 15x the
/// reference kernels and at least 3x the scalar engine. Elsewhere the test
/// reports a skip and passes.
#[test]
#[ignore = "wall-clock throughput gate; run with --release (see CI release job)"]
fn hw_gcm_beats_scalar_on_1mib() {
    if !hw_available() {
        eprintln!("skipping: host lacks AES-NI/PCLMUL, no hardware engine to gate");
        return;
    }
    let key = [0x42u8; 16];
    let data = vec![7u8; 1 << 20];

    let hw = AesGcm::with_engine(Aes::new(&key), EngineKind::Hw)
        .expect("AES-NI + PCLMUL detected, so the 128-bit engine builds");
    let widest = EngineKind::ALL
        .into_iter()
        .find(|&kind| AesGcm::with_engine(Aes::new(&key), kind).is_some());
    assert_eq!(
        Some(AesGcm::with_policy(Aes::new(&key), EnginePolicy::Auto).engine_kind()),
        widest,
        "auto policy must pick the widest engine the host supports"
    );
    let scalar = AesGcm::with_policy(Aes::new(&key), EnginePolicy::Scalar);

    let (reference_s, engine_s) = reference_and_engines(&[&scalar, &hw], &data, 1);
    let (scalar_s, hw_s) = (engine_s[0], engine_s[1]);
    let vs_reference = reference_s / hw_s;
    let vs_scalar = scalar_s / hw_s;
    println!(
        "AES-GCM 1 MiB: reference {:.1} MiB/s | scalar {:.1} MiB/s | \
         aesni+pclmul {:.1} MiB/s ({vs_reference:.1}x reference, {vs_scalar:.1}x scalar)",
        1.0 / reference_s,
        1.0 / scalar_s,
        1.0 / hw_s,
    );
    assert!(
        vs_reference >= 15.0,
        "hardware GCM must be at least 15x the reference kernels (got {vs_reference:.2}x)"
    );
    assert!(
        vs_scalar >= 3.0,
        "hardware GCM must be at least 3x the scalar engine (got {vs_scalar:.2}x)"
    );
}

/// On VAES + VPCLMULQDQ hosts the vector engine must seal and open 1 MiB on one
/// thread at least 2.5x as fast as the 128-bit AES-NI + PCLMUL engine. Elsewhere
/// the test reports a skip and passes.
///
/// The two engines run interleaved, best of nine each, so a change in the host's
/// speed hits both.
#[test]
#[ignore = "wall-clock throughput gate; run with --release (see CI release job)"]
fn avx512_vaes_gcm_beats_aesni_on_1mib() {
    let key = [0x42u8; 16];
    let Some(vaes) = AesGcm::with_engine(Aes::new(&key), EngineKind::Vaes) else {
        eprintln!("skipping: host lacks VAES/VPCLMULQDQ/AVX-512, no vector engine to gate");
        return;
    };
    let hw = AesGcm::with_engine(Aes::new(&key), EngineKind::Hw)
        .expect("the vector engine's host also builds the 128-bit engine");
    let data: Vec<u8> = (0..1u32 << 20).map(|i| (i * 31 % 251) as u8).collect();
    let iv = [9u8; 12];
    let aad = b"throughput-gate";
    let (ct, tag) = hw.encrypt(&iv, aad, &data).unwrap();
    assert_eq!(
        vaes.encrypt(&iv, aad, &data).unwrap(),
        (ct.clone(), tag),
        "the vector engine must agree bit-for-bit with the 128-bit engine"
    );

    let mut out = vec![0u8; data.len()];
    let [mut hw_seal, mut vaes_seal, mut hw_open, mut vaes_open] = [f64::INFINITY; 4];
    for _ in 0..9 {
        hw_seal = hw_seal.min(best_of(1, || {
            hw.encrypt_into(&iv, aad, &data, &mut out).unwrap();
        }));
        vaes_seal = vaes_seal.min(best_of(1, || {
            vaes.encrypt_into(&iv, aad, &data, &mut out).unwrap();
        }));
        hw_open = hw_open.min(best_of(1, || {
            hw.decrypt_into(&iv, aad, &ct, &tag, &mut out).unwrap();
        }));
        vaes_open = vaes_open.min(best_of(1, || {
            vaes.decrypt_into(&iv, aad, &ct, &tag, &mut out).unwrap();
        }));
    }
    assert_eq!(out, data, "the vector engine must open what was sealed");
    let seal_x = hw_seal / vaes_seal;
    let open_x = hw_open / vaes_open;
    println!(
        "AES-GCM 1 MiB, 1 thread: seal aesni+pclmul {:.1} MiB/s, vaes+vpclmul {:.1} MiB/s \
         ({seal_x:.1}x) | open aesni+pclmul {:.1} MiB/s, vaes+vpclmul {:.1} MiB/s ({open_x:.1}x)",
        1.0 / hw_seal,
        1.0 / vaes_seal,
        1.0 / hw_open,
        1.0 / vaes_open,
    );
    assert!(
        seal_x >= 2.5,
        "vector GCM must seal at least 2.5x as fast as the 128-bit engine (got {seal_x:.2}x)"
    );
    assert!(
        open_x >= 2.5,
        "vector GCM must open at least 2.5x as fast as the 128-bit engine (got {open_x:.2}x)"
    );
}
