//! Runtime selection of the AES-GCM engine.
//!
//! Two byte-for-byte identical engines back [`crate::AesGcm`]:
//!
//! * **hardware** ([`EngineKind::Hw`]) — AES-NI CTR + PCLMUL GHASH, available on
//!   `x86_64` hosts whose CPU reports the `aes` and `pclmulqdq` features at runtime;
//! * **scalar** ([`EngineKind::Scalar`]) — the T-table AES + byte-indexed Shoup GHASH
//!   engine, compiled and tested everywhere.
//!
//! The byte-wise AES + bit-serial GHASH kernels behind
//! [`crate::AesGcm::encrypt_reference`] are the ground truth both engines are tested
//! against; they are not a runtime choice.
//!
//! The policy defaults to [`EnginePolicy::Auto`] (hardware when detected, scalar
//! otherwise) and can be overridden with the `PLINIUS_CRYPTO` environment variable.
//! An unset or unparsable value falls back to `auto`; the bench binaries' `--crypto`
//! flag takes the same values through the same parser and rejects invalid ones.

use std::fmt;

/// Environment variable overriding the crypto-engine policy (`auto` | `scalar`).
pub const CRYPTO_ENV: &str = "PLINIUS_CRYPTO";

/// Which engine the caller *requests*. Resolved to an [`EngineKind`] at
/// [`crate::AesGcm`] construction via [`EnginePolicy::select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnginePolicy {
    /// Hardware kernels when the CPU supports them, scalar otherwise (the default).
    #[default]
    Auto,
    /// Force the scalar T-table/Shoup engine even on AES-NI-capable hosts.
    Scalar,
}

impl EnginePolicy {
    /// Parses a policy name as `PLINIUS_CRYPTO` and `--crypto` take it; surrounding
    /// whitespace is ignored, case is not.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "auto" => Some(EnginePolicy::Auto),
            "scalar" => Some(EnginePolicy::Scalar),
            _ => None,
        }
    }

    /// Reads the policy from `PLINIUS_CRYPTO`. Unset or unparsable values fall back
    /// to [`EnginePolicy::Auto`].
    pub fn from_env() -> Self {
        std::env::var(CRYPTO_ENV)
            .ok()
            .and_then(|v| Self::parse(&v))
            .unwrap_or_default()
    }

    /// Resolves the policy against the running CPU.
    pub fn select(self) -> EngineKind {
        match self {
            EnginePolicy::Auto if hw_available() => EngineKind::Hw,
            EnginePolicy::Auto | EnginePolicy::Scalar => EngineKind::Scalar,
        }
    }
}

impl fmt::Display for EnginePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EnginePolicy::Auto => "auto",
            EnginePolicy::Scalar => "scalar",
        })
    }
}

/// Which concrete engine an [`crate::AesGcm`] ended up with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// AES-NI block engine + carry-less-multiply GHASH.
    Hw,
    /// T-table AES + byte-indexed Shoup GHASH.
    Scalar,
}

impl EngineKind {
    /// Short label used in stats, bench output and reports.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Hw => "aesni+pclmul",
            EngineKind::Scalar => "scalar",
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether the hardware kernels can run on this host: an `x86_64` CPU reporting
/// the `aes` and `pclmulqdq` features (SSE2 is implied by `x86_64`).
pub fn hw_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("aes")
            && std::arch::is_x86_feature_detected!("pclmulqdq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The engine a default-constructed [`crate::AesGcm`] would select right now
/// (environment policy resolved against the running CPU).
pub fn selected_engine() -> EngineKind {
    EnginePolicy::from_env().select()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_exactly_the_two_policies() {
        assert_eq!(EnginePolicy::parse("auto"), Some(EnginePolicy::Auto));
        assert_eq!(EnginePolicy::parse("scalar"), Some(EnginePolicy::Scalar));
        assert_eq!(EnginePolicy::parse(" scalar\n"), Some(EnginePolicy::Scalar));
        for bad in ["", "AUTO", "hw", "aesni", "fast", "reference"] {
            assert_eq!(EnginePolicy::parse(bad), None, "{bad:?} must not parse");
        }
        for policy in [EnginePolicy::Auto, EnginePolicy::Scalar] {
            assert_eq!(EnginePolicy::parse(&policy.to_string()), Some(policy));
        }
    }

    #[test]
    fn explicit_policies_ignore_hardware_detection() {
        assert_eq!(EnginePolicy::Scalar.select(), EngineKind::Scalar);
        let auto = EnginePolicy::Auto.select();
        if hw_available() {
            assert_eq!(auto, EngineKind::Hw);
        } else {
            assert_eq!(auto, EngineKind::Scalar);
        }
    }

    /// `PLINIUS_CRYPTO=scalar` forces the scalar engine, even when the CPU reports
    /// hardware support. (The environment path itself is covered by the workspace's
    /// `knobs_env` tests, which own every write to the process environment.)
    #[test]
    fn env_scalar_forces_the_scalar_engine_even_when_hw_is_detected() {
        let policy = EnginePolicy::parse("scalar").unwrap();
        assert_eq!(policy.select(), EngineKind::Scalar);
        let gcm = crate::AesGcm::with_policy(crate::Aes::new(&[0x42u8; 16]), policy);
        assert_eq!(gcm.engine_kind(), EngineKind::Scalar);
        // The override is about *selection*, not behavior: output is unchanged.
        let auto = crate::AesGcm::with_policy(crate::Aes::new(&[0x42u8; 16]), EnginePolicy::Auto);
        assert_eq!(
            gcm.encrypt(&[1u8; 12], b"aad", b"payload").unwrap(),
            auto.encrypt(&[1u8; 12], b"aad", b"payload").unwrap()
        );
    }

    #[test]
    fn env_reference_and_garbage_behave_as_documented() {
        // `reference` is not an engine: like any garbage it does not parse, so
        // the lenient environment path falls back to auto.
        for value in ["reference", "not-an-engine"] {
            assert_eq!(EnginePolicy::parse(value), None);
            assert_eq!(
                EnginePolicy::parse(value).unwrap_or_default(),
                EnginePolicy::Auto
            );
        }
    }
}
