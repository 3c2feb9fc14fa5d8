//! Neural-network layers in the style of Darknet: convolutional (with LReLU), max
//! pooling, fully connected and softmax. Every layer owns its output and delta buffers
//! and exposes its learnable parameters as named tensors so that the Plinius mirroring
//! module can encrypt and persist them buffer by buffer.

pub mod connected;
pub mod conv;
pub mod maxpool;
pub mod softmax;

pub use connected::ConnectedLayer;
pub use conv::ConvLayer;
pub use maxpool::MaxPoolLayer;
pub use softmax::SoftmaxLayer;

use crate::dispatch::GemmKind;
use crate::matrix::{gemm_threads, gemm_with_engine, GEMM_DEFAULT_KC};
use std::fmt;

/// [`crate::matrix::gemm`] with the engine pinned instead of re-resolved from the
/// environment: the layer hot paths capture the engine once at construction (or via
/// [`Layer::set_gemm_engine`]) so a mid-training env change cannot mix kernels within
/// one iteration. Threading is `gemm`'s: fan out only past the engine's
/// [`GemmKind::par_min_work`] product per fork.
#[allow(clippy::too_many_arguments)]
pub(crate) fn layer_gemm(
    engine: GemmKind,
    ta: bool,
    tb: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    gemm_with_engine(
        engine,
        gemm_threads(engine, tb, m, n, k),
        GEMM_DEFAULT_KC,
        ta,
        tb,
        m,
        n,
        k,
        alpha,
        a,
        lda,
        b,
        ldb,
        beta,
        c,
        ldc,
    );
}

/// Hyper-parameters used when applying accumulated gradients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateArgs {
    /// Learning rate (0.1 in the paper's experiments).
    pub learning_rate: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Weight decay coefficient.
    pub decay: f32,
    /// Batch size the gradients were accumulated over.
    pub batch: usize,
}

impl Default for UpdateArgs {
    fn default() -> Self {
        UpdateArgs {
            learning_rate: 0.1,
            momentum: 0.9,
            decay: 0.0001,
            batch: 128,
        }
    }
}

/// The kind of a layer, mirroring Darknet's `LAYER_TYPE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// 2-D convolution + activation.
    Convolutional,
    /// Max pooling.
    MaxPool,
    /// Fully connected + activation.
    Connected,
    /// Softmax output.
    Softmax,
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayerKind::Convolutional => write!(f, "convolutional"),
            LayerKind::MaxPool => write!(f, "maxpool"),
            LayerKind::Connected => write!(f, "connected"),
            LayerKind::Softmax => write!(f, "softmax"),
        }
    }
}

/// Number of named parameter tensors every trainable layer exposes (weights, biases,
/// scales, rolling mean, rolling variance) — the "5 parameter matrices per layer" of the
/// paper's PM-metadata accounting (§VI, 140 B per layer).
pub const PARAM_TENSORS_PER_LAYER: usize = 5;

/// The canonical names of the per-layer parameter tensors.
pub const PARAM_TENSOR_NAMES: [&str; PARAM_TENSORS_PER_LAYER] = [
    "weights",
    "biases",
    "scales",
    "rolling_mean",
    "rolling_variance",
];

/// A read-only view of one named parameter tensor of a layer.
#[derive(Debug, Clone, Copy)]
pub struct ParamView<'a> {
    /// Tensor name (one of [`PARAM_TENSOR_NAMES`]).
    pub name: &'static str,
    /// The tensor values.
    pub data: &'a [f32],
}

/// One layer of a [`crate::Network`].
#[derive(Debug, Clone)]
pub enum Layer {
    /// Convolution + activation.
    Convolutional(ConvLayer),
    /// Max pooling.
    MaxPool(MaxPoolLayer),
    /// Fully connected + activation.
    Connected(ConnectedLayer),
    /// Softmax output.
    Softmax(SoftmaxLayer),
}

impl Layer {
    /// The layer's kind.
    pub fn kind(&self) -> LayerKind {
        match self {
            Layer::Convolutional(_) => LayerKind::Convolutional,
            Layer::MaxPool(_) => LayerKind::MaxPool,
            Layer::Connected(_) => LayerKind::Connected,
            Layer::Softmax(_) => LayerKind::Softmax,
        }
    }

    /// Number of output values per sample.
    pub fn outputs(&self) -> usize {
        match self {
            Layer::Convolutional(l) => l.outputs(),
            Layer::MaxPool(l) => l.outputs(),
            Layer::Connected(l) => l.outputs(),
            Layer::Softmax(l) => l.outputs(),
        }
    }

    /// Output spatial shape `(channels, height, width)` per sample.
    pub fn out_shape(&self) -> (usize, usize, usize) {
        match self {
            Layer::Convolutional(l) => l.out_shape(),
            Layer::MaxPool(l) => l.out_shape(),
            Layer::Connected(l) => (l.outputs(), 1, 1),
            Layer::Softmax(l) => (l.outputs(), 1, 1),
        }
    }

    /// Forward pass over a batch (`input` holds `batch * in_size` values).
    pub fn forward(&mut self, input: &[f32], batch: usize) {
        match self {
            Layer::Convolutional(l) => l.forward(input, batch),
            Layer::MaxPool(l) => l.forward(input, batch),
            Layer::Connected(l) => l.forward(input, batch),
            Layer::Softmax(l) => l.forward(input, batch),
        }
    }

    /// Backward pass: consumes this layer's `delta`, accumulates parameter gradients and
    /// (if `prev_delta` is given) adds the gradient with respect to the layer input.
    pub fn backward(&mut self, input: &[f32], prev_delta: Option<&mut [f32]>, batch: usize) {
        match self {
            Layer::Convolutional(l) => l.backward(input, prev_delta, batch),
            Layer::MaxPool(l) => l.backward(input, prev_delta, batch),
            Layer::Connected(l) => l.backward(input, prev_delta, batch),
            Layer::Softmax(l) => l.backward(input, prev_delta, batch),
        }
    }

    /// Applies (and then decays) the accumulated gradients.
    pub fn update(&mut self, args: &UpdateArgs) {
        match self {
            Layer::Convolutional(l) => l.update(args),
            Layer::Connected(l) => l.update(args),
            Layer::MaxPool(_) | Layer::Softmax(_) => {}
        }
    }

    /// The batch-sized output buffer of the most recent forward pass.
    pub fn output(&self) -> &[f32] {
        match self {
            Layer::Convolutional(l) => l.output(),
            Layer::MaxPool(l) => l.output(),
            Layer::Connected(l) => l.output(),
            Layer::Softmax(l) => l.output(),
        }
    }

    /// Mutable access to the layer's delta buffer (gradient w.r.t. its output).
    pub fn delta_mut(&mut self) -> &mut [f32] {
        match self {
            Layer::Convolutional(l) => l.delta_mut(),
            Layer::MaxPool(l) => l.delta_mut(),
            Layer::Connected(l) => l.delta_mut(),
            Layer::Softmax(l) => l.delta_mut(),
        }
    }

    /// Simultaneous borrow of the output (shared) and delta (mutable) buffers, used when
    /// back-propagating into the previous layer.
    pub fn output_and_delta_mut(&mut self) -> (&[f32], &mut [f32]) {
        match self {
            Layer::Convolutional(l) => l.output_and_delta_mut(),
            Layer::MaxPool(l) => l.output_and_delta_mut(),
            Layer::Connected(l) => l.output_and_delta_mut(),
            Layer::Softmax(l) => l.output_and_delta_mut(),
        }
    }

    /// Zeroes the delta buffer (done before each training iteration).
    pub fn zero_delta(&mut self) {
        self.delta_mut().iter_mut().for_each(|d| *d = 0.0);
    }

    /// The layer's learnable parameter tensors (empty for pooling / softmax layers).
    pub fn params(&self) -> Vec<ParamView<'_>> {
        match self {
            Layer::Convolutional(l) => l.params(),
            Layer::Connected(l) => l.params(),
            Layer::MaxPool(_) | Layer::Softmax(_) => Vec::new(),
        }
    }

    /// The parameter tensors as a fixed array, `None` for non-trainable layers — the
    /// allocation-free sibling of [`Layer::params`] used by the mirror's staging loop.
    pub fn param_views(&self) -> Option<[ParamView<'_>; PARAM_TENSORS_PER_LAYER]> {
        match self {
            Layer::Convolutional(l) => Some(l.param_views()),
            Layer::Connected(l) => Some(l.param_views()),
            Layer::MaxPool(_) | Layer::Softmax(_) => None,
        }
    }

    /// Overwrites the layer's parameter tensors with the provided values (used by the
    /// Plinius mirror-in path).
    ///
    /// # Panics
    ///
    /// Panics if the number of tensors or any tensor length does not match the layer.
    pub fn set_params(&mut self, tensors: &[Vec<f32>]) {
        match self {
            Layer::Convolutional(l) => l.set_params(tensors),
            Layer::Connected(l) => l.set_params(tensors),
            Layer::MaxPool(_) | Layer::Softmax(_) => {
                assert!(
                    tensors.is_empty(),
                    "non-trainable layer received parameters"
                );
            }
        }
    }

    /// Pins the GEMM engine for the layer's kernels (no-op for layers without GEMM,
    /// i.e. pooling and softmax).
    pub fn set_gemm_engine(&mut self, engine: GemmKind) {
        match self {
            Layer::Convolutional(l) => l.set_gemm_engine(engine),
            Layer::Connected(l) => l.set_gemm_engine(engine),
            Layer::MaxPool(_) | Layer::Softmax(_) => {}
        }
    }

    /// The GEMM engine the layer's kernels run on, `None` for layers without GEMM.
    pub fn gemm_engine(&self) -> Option<GemmKind> {
        match self {
            Layer::Convolutional(l) => Some(l.gemm_engine()),
            Layer::Connected(l) => Some(l.gemm_engine()),
            Layer::MaxPool(_) | Layer::Softmax(_) => None,
        }
    }

    /// Whether the layer has learnable parameters.
    pub fn is_trainable(&self) -> bool {
        matches!(self, Layer::Convolutional(_) | Layer::Connected(_))
    }

    /// Total number of learnable parameters.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.data.len()).sum()
    }

    /// Size of the learnable parameters in bytes (`f32` elements).
    pub fn param_bytes(&self) -> usize {
        self.param_count() * std::mem::size_of::<f32>()
    }

    /// Approximate floating-point operations per sample for one forward+backward pass.
    pub fn flops_per_sample(&self) -> u64 {
        match self {
            Layer::Convolutional(l) => l.flops_per_sample(),
            Layer::MaxPool(l) => l.flops_per_sample(),
            Layer::Connected(l) => l.flops_per_sample(),
            Layer::Softmax(l) => l.flops_per_sample(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn layer_kind_display() {
        assert_eq!(LayerKind::Convolutional.to_string(), "convolutional");
        assert_eq!(LayerKind::Softmax.to_string(), "softmax");
    }

    #[test]
    fn trainable_layers_expose_five_param_tensors() {
        let mut rng = StdRng::seed_from_u64(1);
        let conv = Layer::Convolutional(ConvLayer::new(
            8,
            8,
            1,
            4,
            3,
            1,
            1,
            Activation::Leaky,
            2,
            &mut rng,
        ));
        let fc = Layer::Connected(ConnectedLayer::new(16, 10, Activation::Linear, 2, &mut rng));
        for layer in [&conv, &fc] {
            let params = layer.params();
            assert_eq!(params.len(), PARAM_TENSORS_PER_LAYER);
            for (p, name) in params.iter().zip(PARAM_TENSOR_NAMES.iter()) {
                assert_eq!(p.name, *name);
            }
            assert!(layer.is_trainable());
            assert!(layer.param_bytes() > 0);
        }
        let pool = Layer::MaxPool(MaxPoolLayer::new(8, 8, 4, 2, 2, 2));
        assert!(pool.params().is_empty());
        assert!(!pool.is_trainable());
    }

    #[test]
    fn set_params_round_trips() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer =
            Layer::Connected(ConnectedLayer::new(4, 3, Activation::Linear, 1, &mut rng));
        let snapshot: Vec<Vec<f32>> = layer.params().iter().map(|p| p.data.to_vec()).collect();
        let modified: Vec<Vec<f32>> = snapshot
            .iter()
            .map(|t| t.iter().map(|v| v + 1.0).collect())
            .collect();
        layer.set_params(&modified);
        let now: Vec<Vec<f32>> = layer.params().iter().map(|p| p.data.to_vec()).collect();
        assert_eq!(now, modified);
        assert_ne!(now, snapshot);
    }

    #[test]
    #[should_panic(expected = "non-trainable layer")]
    fn set_params_on_pool_panics_when_given_tensors() {
        let mut pool = Layer::MaxPool(MaxPoolLayer::new(8, 8, 4, 2, 2, 2));
        pool.set_params(&[vec![1.0]]);
    }
}
