//! # plinius-darknet
//!
//! A Darknet-style convolutional neural-network framework written from scratch in Rust:
//! the substrate the paper calls **sgx-darknet**. It provides the pieces Plinius needs to
//! train and evaluate CNNs end to end:
//!
//! * dense matrix kernels (GEMM, the fused SGD update, im2col/col2im) and activations
//!   ([`matrix`], [`activation`]);
//! * convolutional, max-pooling, fully connected and softmax layers, each exposing its
//!   five named parameter tensors for mirroring ([`layers`]);
//! * the network container with SGD training, batched classification and accuracy
//!   evaluation ([`network`]);
//! * the Darknet `.cfg` parser plus programmatic model generators for the paper's model
//!   families ([`config`]);
//! * dataset handling: the in-memory data matrix and a synthetic MNIST-like generator
//!   ([`data`]).
//!
//! # Example
//!
//! ```
//! use plinius_darknet::config::{build_network, mnist_cnn_config};
//! use plinius_darknet::data::synthetic_mnist;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut net = build_network(&mnist_cnn_config(2, 4, 8), &mut rng)?;
//! let data = synthetic_mnist(64, &mut rng);
//! let (images, labels) = data.random_batch(8, &mut rng);
//! let loss = net.train_batch(&images, &labels, 8)?;
//! assert!(loss.is_finite());
//! # Ok::<(), plinius_darknet::DarknetError>(())
//! ```

// `deny` rather than `forbid`: the `simd` kernel module is the one place allowed
// to opt back in (module-scoped `allow`, see its safety contract); everything
// else in the crate still refuses `unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

pub mod activation;
pub mod config;
pub mod data;
pub mod dispatch;
pub mod layers;
pub mod matrix;
pub mod network;
#[cfg(target_arch = "x86_64")]
mod simd;

pub use activation::Activation;
pub use config::{
    build_network, build_zeroed_network, mnist_cnn_config, mnist_cnn_config_with_momentum,
    parse_config, sized_model_config,
};
pub use data::{synthetic_images, synthetic_mnist, Dataset};
pub use dispatch::{
    avx2_available, avx512_available, fma_available, selected_gemm, GemmKind, GemmPolicy, GEMM_ENV,
};
pub use layers::{Layer, LayerKind, ParamView, UpdateArgs, PARAM_TENSORS_PER_LAYER};
pub use network::{Network, NetworkConfig};

/// Errors produced by the neural-network framework.
#[derive(Debug, Clone, PartialEq)]
pub enum DarknetError {
    /// A network must have at least one layer.
    EmptyNetwork,
    /// Two consecutive layers disagree about the per-sample tensor size.
    ShapeMismatch {
        /// Index of the offending layer.
        layer: usize,
        /// Inputs the layer expects.
        expected: usize,
        /// Outputs the previous stage produces.
        actual: usize,
    },
    /// Training buffers do not match the declared batch size.
    BatchMismatch {
        /// Declared batch size.
        batch: usize,
        /// Length of the image buffer supplied.
        images: usize,
        /// Length of the label buffer supplied.
        labels: usize,
    },
    /// Dataset construction buffers do not match the declared shape.
    DataShape {
        /// Declared number of samples.
        samples: usize,
        /// Declared inputs per sample.
        inputs: usize,
        /// Declared classes.
        classes: usize,
        /// Length of the image buffer supplied.
        images: usize,
        /// Length of the label buffer supplied.
        labels: usize,
    },
    /// A malformed or unsupported configuration file.
    Config(String),
}

impl fmt::Display for DarknetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DarknetError::EmptyNetwork => write!(f, "network has no layers"),
            DarknetError::ShapeMismatch {
                layer,
                expected,
                actual,
            } => write!(
                f,
                "layer {layer} expects {expected} inputs but receives {actual}"
            ),
            DarknetError::BatchMismatch {
                batch,
                images,
                labels,
            } => write!(
                f,
                "batch of {batch} samples does not match buffers of {images} image and {labels} label values"
            ),
            DarknetError::DataShape {
                samples,
                inputs,
                classes,
                images,
                labels,
            } => write!(
                f,
                "dataset of {samples} samples x {inputs} inputs x {classes} classes does not match buffers of {images}/{labels} values"
            ),
            DarknetError::Config(msg) => write!(f, "configuration error: {msg}"),
        }
    }
}

impl Error for DarknetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_informative() {
        assert_eq!(
            DarknetError::EmptyNetwork.to_string(),
            "network has no layers"
        );
        let shape = DarknetError::ShapeMismatch {
            layer: 2,
            expected: 100,
            actual: 50,
        };
        assert!(shape.to_string().contains("layer 2"));
        assert!(DarknetError::Config("x".into())
            .to_string()
            .contains("configuration"));
    }
}
