//! # plinius-repro
//!
//! Umbrella crate of the Plinius (DSN'21) reproduction. It re-exports every substrate so
//! the examples and integration tests can use one dependency:
//!
//! * [`plinius`] — the core framework (mirroring, PM data, trainer, workflow);
//! * [`plinius_crypto`], [`plinius_sgx`], [`plinius_pmem`], [`plinius_romulus`],
//!   [`plinius_darknet`], [`plinius_storage`], [`plinius_spot`] — the substrates;
//! * [`plinius_parallel`] — scoped-thread fork/join helpers for the compute hot path;
//! * [`sim_clock`] — the simulation clock and server cost models.
//!
//! See `README.md` for a guided tour and `examples/` for runnable programs.

#![forbid(unsafe_code)]

pub use plinius;
pub use plinius_crypto;
pub use plinius_darknet;
pub use plinius_parallel;
pub use plinius_pmem;
pub use plinius_romulus;
pub use plinius_sgx;
pub use plinius_spot;
pub use plinius_storage;
pub use sim_clock;
