//! The six runtime knobs, in one table.
//!
//! Every knob is an environment variable read through [`Knobs::from_env`]; the
//! bench binaries also accept all but `PLINIUS_PIPELINE` as a flag. Each row of
//! [`KNOBS`] names the variable and the flag and validates values with the one
//! parser the knob's owning type exposes, so the environment and the command line
//! accept exactly the same values. Surrounding whitespace is ignored everywhere.
//!
//! The environment is lenient: an invalid value leaves the knob at its default. The
//! bench command line is strict and exits with usage on the same value.
//!
//! Below this crate, [`plinius_parallel::max_threads`], [`EnginePolicy::from_env`]
//! and [`GemmPolicy::from_env`] read their own variables through the same parsers.

use crate::fleet::TENANTS_ENV;
use crate::mirror::{DEFAULT_RING_DEPTH, RING_ENV};
use crate::trainer::PipelineMode;
use crate::MAX_TENANTS;
use plinius_crypto::{EnginePolicy, CRYPTO_ENV};
use plinius_darknet::{GemmPolicy, GEMM_ENV};
use plinius_parallel::{parse_threads, THREADS_ENV};

/// One runtime knob: an environment variable, optionally mirrored by a bench flag.
#[derive(Debug)]
pub struct Knob {
    /// The environment variable.
    pub env: &'static str,
    /// The bench flag, taking its value as `--flag VALUE` or `--flag=VALUE`.
    pub flag: Option<&'static str>,
    /// What the knob selects, for usage text.
    pub about: &'static str,
    /// The accepted values, for usage text and error messages.
    pub accepts: &'static str,
    /// What applies when the variable is unset or invalid.
    pub default: &'static str,
    /// Parses `value` into its field of the snapshot; `None` if it is invalid.
    set: fn(&mut Knobs, &str) -> Option<()>,
}

impl Knob {
    /// Whether `value` is a valid setting of this knob.
    pub fn is_valid(&self, value: &str) -> bool {
        (self.set)(&mut Knobs::default(), value).is_some()
    }
}

/// The knob table, in the order usage text lists it.
pub static KNOBS: [Knob; 6] = [
    Knob {
        env: THREADS_ENV,
        flag: Some("--threads"),
        about: "worker threads of the parallel kernels",
        accepts: "a positive integer",
        default: "available parallelism, at most 64",
        set: |k, v| parse_threads(v).map(|n| k.threads = Some(n)),
    },
    Knob {
        env: PipelineMode::ENV,
        flag: None,
        about: "how each persist is scheduled against training",
        accepts: "`sync` or `overlapped`",
        default: "sync",
        set: |k, v| PipelineMode::parse(v).map(|m| k.pipeline = m),
    },
    Knob {
        env: RING_ENV,
        flag: Some("--ring"),
        about: "epochs a freshly allocated PM mirror retains",
        accepts: "an integer >= 2",
        default: "2",
        set: |k, v| parse_ring(v).map(|n| k.ring = n),
    },
    Knob {
        env: TENANTS_ENV,
        flag: Some("--tenants"),
        about: "tenants of a fleet deployment",
        accepts: "an integer in 1..=32",
        default: "1",
        set: |k, v| parse_tenants(v).map(|n| k.tenants = Some(n)),
    },
    Knob {
        env: CRYPTO_ENV,
        flag: Some("--crypto"),
        about: "AES-GCM engine",
        accepts: "`auto` (widest hardware kernel) or `scalar`",
        default: "auto",
        set: |k, v| EnginePolicy::parse(v).map(|p| k.crypto = p),
    },
    Knob {
        env: GEMM_ENV,
        flag: Some("--gemm"),
        about: "GEMM engine",
        accepts: "`auto` (widest vector kernel), `scalar` or `fma`",
        default: "auto",
        set: |k, v| GemmPolicy::parse(v).map(|p| k.gemm = p),
    },
];

/// Parses an epoch-ring depth: an integer `>= 2` (a one-deep ring could not
/// separate the committing epoch from the last complete one).
fn parse_ring(value: &str) -> Option<usize> {
    value.trim().parse().ok().filter(|&n| n >= 2)
}

/// Parses a tenant count: an integer in `1..=MAX_TENANTS` (each tenant consumes one
/// Romulus root pair).
fn parse_tenants(value: &str) -> Option<usize> {
    value
        .trim()
        .parse()
        .ok()
        .filter(|n| (1..=MAX_TENANTS).contains(n))
}

/// A snapshot of the knobs. Unset and invalid variables leave their defaults.
///
/// [`TrainerConfig::default`](crate::TrainerConfig), [`FleetConfig::default`](crate::FleetConfig),
/// [`PmMirrorBackend::new`](crate::PmMirrorBackend::new) and
/// [`MirrorModel::allocate`](crate::MirrorModel::allocate) take their defaults from
/// [`Knobs::from_env`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// `PLINIUS_THREADS`, uncapped; `None` means the host's available parallelism.
    pub threads: Option<usize>,
    /// `PLINIUS_PIPELINE`.
    pub pipeline: PipelineMode,
    /// `PLINIUS_RING`.
    pub ring: usize,
    /// `PLINIUS_TENANTS`; `None` means [`DEFAULT_TENANTS`](crate::DEFAULT_TENANTS).
    pub tenants: Option<usize>,
    /// `PLINIUS_CRYPTO`.
    pub crypto: EnginePolicy,
    /// `PLINIUS_GEMM`.
    pub gemm: GemmPolicy,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            threads: None,
            pipeline: PipelineMode::Sync,
            ring: DEFAULT_RING_DEPTH,
            tenants: None,
            crypto: EnginePolicy::Auto,
            gemm: GemmPolicy::Auto,
        }
    }
}

impl Knobs {
    /// The knobs as the process environment sets them now.
    pub fn from_env() -> Self {
        Self::from_lookup(|name| std::env::var(name).ok())
    }

    /// The knobs as `lookup` (variable name to value) sets them.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        let mut knobs = Knobs::default();
        for knob in &KNOBS {
            if let Some(value) = lookup(knob.env) {
                // Lenient: an invalid value leaves the default in place.
                let _ = (knob.set)(&mut knobs, &value);
            }
        }
        knobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knobs(vars: &[(&str, &str)]) -> Knobs {
        Knobs::from_lookup(|name| vars.iter().find(|v| v.0 == name).map(|v| v.1.to_owned()))
    }

    #[test]
    fn every_knob_parses_its_trimmed_value() {
        let set = knobs(&[
            ("PLINIUS_THREADS", " 3"),
            ("PLINIUS_PIPELINE", "overlapped\n"),
            ("PLINIUS_RING", "4 "),
            ("PLINIUS_TENANTS", "\t5"),
            ("PLINIUS_CRYPTO", " scalar "),
            ("PLINIUS_GEMM", "fma\n"),
        ]);
        let want = Knobs {
            threads: Some(3),
            pipeline: PipelineMode::Overlapped,
            ring: 4,
            tenants: Some(5),
            crypto: EnginePolicy::Scalar,
            gemm: GemmPolicy::Fma,
        };
        assert_eq!(set, want);
    }

    #[test]
    fn unset_and_invalid_values_leave_the_defaults() {
        assert_eq!(knobs(&[]), Knobs::default());
        let set = knobs(&[
            ("PLINIUS_THREADS", "0"),
            ("PLINIUS_PIPELINE", "async"),
            ("PLINIUS_RING", "1"),
            ("PLINIUS_TENANTS", "0"),
            ("PLINIUS_CRYPTO", "reference"),
            ("PLINIUS_GEMM", "reference"),
        ]);
        assert_eq!(set, Knobs::default());
    }

    #[test]
    fn rows_name_distinct_variables_and_flags() {
        for (i, a) in KNOBS.iter().enumerate() {
            for b in &KNOBS[i + 1..] {
                assert!(a.env != b.env && (a.flag.is_none() || a.flag != b.flag));
            }
        }
        let flagged = KNOBS.iter().filter(|k| k.flag.is_some()).count();
        assert_eq!(flagged, 5, "every knob but the pipeline mode has a flag");
    }
}
