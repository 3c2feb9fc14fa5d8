//! Runtime selection of the GEMM / vector-kernel engine.
//!
//! A family of vector kernels backs [`crate::matrix::gemm`], whose register-tiled
//! microkernels all consume the same op(A) blocks and op(B) panels, and the layers'
//! fused SGD update, one pass over each tensor and its gradient accumulator:
//!
//! * **avx512** ([`GemmKind::Avx512`]) — an 8×32 C tile held in ZMM accumulators,
//!   on `x86_64` hosts whose CPU reports `avx512f` at runtime. The lanes run
//!   `mul` + `add` separately — the same IEEE rounding per element as the scalar
//!   kernel — so its output is **bit-identical** to `scalar` by construction;
//! * **avx2** ([`GemmKind::Avx2`]) — the same microkernel at YMM width (a 6×16 C
//!   tile, as the YMM file is half the size), for CPUs with `avx2` but not
//!   AVX-512; also `mul`+`add` lanes, also bit-identical;
//! * **avx512+fma** / **avx2+fma** ([`GemmKind::Avx512Fma`] / [`GemmKind::Avx2Fma`])
//!   — the same tiles with fused multiply-adds (`vfmadd`), opt-in because the
//!   fused rounding changes last-bit results (differential tests bound the
//!   drift, see `tests/proptest_gemm.rs`); their SGD update fuses its two
//!   multiply-adds in full vector lanes and leaves the last `len % lanes`
//!   elements unfused;
//! * **scalar** ([`GemmKind::Scalar`]) — the blocked, cache-aware portable kernel,
//!   compiled and tested everywhere.
//!
//! The naive triple-loop [`crate::matrix::gemm_reference`] is the ground truth every
//! engine is tested against; it is not a runtime choice.
//!
//! The policy defaults to [`GemmPolicy::Auto`] (AVX-512, then AVX2 when detected,
//! scalar otherwise) and can be overridden with the `PLINIUS_GEMM` environment
//! variable. An unset or unparsable value falls back to `auto`; the bench binaries'
//! `--gemm` flag takes the same values through the same parser and rejects invalid
//! ones.
//!
//! The minimum work product before [`crate::matrix::gemm`] fans out across threads
//! lives here too: it is a property of the *kernel*, not of the call site (the
//! vector kernels chew through small products so fast that forking threads pays off
//! later). The register-tile shapes stay with the kernels that use them, and the cap
//! of one row band per full row block stays with the block size in
//! [`crate::matrix`].

use std::fmt;

/// Environment variable overriding the GEMM-engine policy (`auto` | `scalar` | `fma`).
pub const GEMM_ENV: &str = "PLINIUS_GEMM";

/// Which engine the caller *requests*. Resolved to a [`GemmKind`] against the
/// running CPU via [`GemmPolicy::select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GemmPolicy {
    /// The widest bit-identical vector kernel the CPU supports (AVX-512, then
    /// AVX2), scalar otherwise (the default). Bit-identical to `scalar` either way.
    #[default]
    Auto,
    /// Force the blocked portable kernel even on AVX2-capable hosts.
    Scalar,
    /// Opt into fused multiply-adds at the widest width the CPU has (falling back
    /// through the bit-identical vector kernels to scalar). Fastest, but trades
    /// the last-bit identity contract for ULP-bounded agreement.
    Fma,
}

impl GemmPolicy {
    /// Parses a policy name as `PLINIUS_GEMM` and `--gemm` take it; surrounding
    /// whitespace is ignored, case is not.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "auto" => Some(GemmPolicy::Auto),
            "scalar" => Some(GemmPolicy::Scalar),
            "fma" => Some(GemmPolicy::Fma),
            _ => None,
        }
    }

    /// Reads the policy from `PLINIUS_GEMM`. Unset or unparsable values fall back
    /// to [`GemmPolicy::Auto`].
    pub fn from_env() -> Self {
        std::env::var(GEMM_ENV)
            .ok()
            .and_then(|v| Self::parse(&v))
            .unwrap_or_default()
    }

    /// Resolves the policy against the running CPU. `Auto` picks the widest
    /// bit-identical kernel; `Fma` picks the widest fused kernel and degrades
    /// gracefully on hosts without fused units — through the bit-identical vector
    /// kernels down to scalar — so an opted-in binary still runs everywhere.
    pub fn select(self) -> GemmKind {
        match self {
            GemmPolicy::Scalar => GemmKind::Scalar,
            GemmPolicy::Auto if avx512_available() => GemmKind::Avx512,
            GemmPolicy::Fma if avx512_available() => GemmKind::Avx512Fma,
            GemmPolicy::Fma if fma_available() => GemmKind::Avx2Fma,
            _ if avx2_available() => GemmKind::Avx2,
            _ => GemmKind::Scalar,
        }
    }
}

impl fmt::Display for GemmPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GemmPolicy::Auto => "auto",
            GemmPolicy::Scalar => "scalar",
            GemmPolicy::Fma => "fma",
        })
    }
}

/// Which concrete kernel family a GEMM call (or a [`crate::Network`]) ended up with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemmKind {
    /// Register-tiled AVX-512 microkernel, `mul`+`add` lanes (bit-identical to scalar).
    Avx512,
    /// Register-tiled AVX-512 microkernel with fused multiply-adds (ULP-bounded).
    Avx512Fma,
    /// Register-tiled AVX2 microkernel, `mul`+`add` lanes (bit-identical to scalar).
    Avx2,
    /// Register-tiled AVX2 microkernel with fused multiply-adds (ULP-bounded).
    Avx2Fma,
    /// Blocked, cache-aware portable kernel.
    Scalar,
}

impl GemmKind {
    /// Short label used in stats, bench output and reports.
    pub fn name(self) -> &'static str {
        match self {
            GemmKind::Avx512 => "avx512",
            GemmKind::Avx512Fma => "avx512+fma",
            GemmKind::Avx2 => "avx2",
            GemmKind::Avx2Fma => "avx2+fma",
            GemmKind::Scalar => "scalar",
        }
    }

    /// Minimum `m * n * k` product before [`crate::matrix::gemm`] dispatches across
    /// threads with this engine; below it the scoped-thread fork/join overhead
    /// outweighs the kernel work. The vector kernels finish small products so much
    /// faster that their threshold sits one doubling higher.
    pub const fn par_min_work(self) -> usize {
        match self {
            GemmKind::Avx512 | GemmKind::Avx512Fma | GemmKind::Avx2 | GemmKind::Avx2Fma => 1 << 21,
            GemmKind::Scalar => 1 << 20,
        }
    }
}

impl fmt::Display for GemmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether the AVX2 kernels can run on this host: an `x86_64` CPU reporting the
/// `avx2` feature at runtime.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the AVX-512 kernels can run on this host: an `x86_64` CPU reporting the
/// `avx512f` feature at runtime (which covers both the `mul`+`add` and the fused
/// 512-bit kernels).
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the 256-bit fused-multiply-add kernels can run on this host: an `x86_64`
/// CPU reporting both the `avx2` and `fma` features at runtime.
pub fn fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The engine an env-dispatching GEMM call would select right now (environment
/// policy resolved against the running CPU).
pub fn selected_gemm() -> GemmKind {
    GemmPolicy::from_env().select()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_exactly_the_three_policies() {
        assert_eq!(GemmPolicy::parse("auto"), Some(GemmPolicy::Auto));
        assert_eq!(GemmPolicy::parse("scalar"), Some(GemmPolicy::Scalar));
        assert_eq!(GemmPolicy::parse("fma"), Some(GemmPolicy::Fma));
        assert_eq!(GemmPolicy::parse("\tfma "), Some(GemmPolicy::Fma));
        for bad in ["", "AUTO", "avx2", "simd", "fast", "FMA", "reference"] {
            assert_eq!(GemmPolicy::parse(bad), None, "{bad:?} must not parse");
        }
        for policy in [GemmPolicy::Auto, GemmPolicy::Scalar, GemmPolicy::Fma] {
            assert_eq!(GemmPolicy::parse(&policy.to_string()), Some(policy));
        }
    }

    #[test]
    fn explicit_policies_ignore_hardware_detection() {
        assert_eq!(GemmPolicy::Scalar.select(), GemmKind::Scalar);
        let auto = GemmPolicy::Auto.select();
        if avx512_available() {
            assert_eq!(auto, GemmKind::Avx512);
        } else if avx2_available() {
            assert_eq!(auto, GemmKind::Avx2);
        } else {
            assert_eq!(auto, GemmKind::Scalar);
        }
        let fma = GemmPolicy::Fma.select();
        if avx512_available() {
            assert_eq!(fma, GemmKind::Avx512Fma);
        } else if fma_available() {
            assert_eq!(fma, GemmKind::Avx2Fma);
        } else if avx2_available() {
            assert_eq!(fma, GemmKind::Avx2);
        } else {
            assert_eq!(fma, GemmKind::Scalar);
        }
    }

    #[test]
    fn engine_tuning_constants_are_engine_specific() {
        // The scalar kernel keeps its historical threshold and the register-tiled
        // kernels get their own.
        assert_eq!(GemmKind::Scalar.par_min_work(), 1 << 20);
        assert!(GemmKind::Avx2.par_min_work() > GemmKind::Scalar.par_min_work());
        assert!(GemmKind::Avx512.par_min_work() > GemmKind::Scalar.par_min_work());
    }

    /// `PLINIUS_GEMM=scalar` forces the scalar engine, even when the CPU reports
    /// vector units. (The environment path itself is covered by the workspace's
    /// `knobs_env` tests, which own every write to the process environment.)
    #[test]
    fn env_scalar_forces_the_scalar_engine_even_when_avx2_is_detected() {
        assert_eq!(
            GemmPolicy::parse("scalar").unwrap().select(),
            GemmKind::Scalar
        );
    }

    #[test]
    fn env_fma_reference_and_garbage_behave_as_documented() {
        assert_eq!(
            GemmPolicy::parse("fma").unwrap().select(),
            GemmPolicy::Fma.select()
        );
        // `reference` is not an engine: like any garbage it does not parse, so
        // the lenient environment path falls back to auto.
        for value in ["reference", "not-an-engine"] {
            assert_eq!(
                GemmPolicy::parse(value).unwrap_or_default(),
                GemmPolicy::Auto
            );
        }
    }

    #[test]
    fn names_display_and_hash_are_stable() {
        assert_eq!(GemmKind::Avx512.name(), "avx512");
        assert_eq!(GemmKind::Avx512Fma.name(), "avx512+fma");
        assert_eq!(GemmKind::Avx2.name(), "avx2");
        assert_eq!(GemmKind::Avx2Fma.name(), "avx2+fma");
        assert_eq!(GemmKind::Scalar.to_string(), "scalar");
        assert_eq!(GemmPolicy::Fma.to_string(), "fma");
    }
}
