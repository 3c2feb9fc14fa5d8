//! Neural-network layers in the style of Darknet: convolutional (with LReLU), max
//! pooling, fully connected and softmax. Every layer owns its output and delta buffers
//! (one private `Buffers` block), and each trainable layer owns one private `Params`
//! block: its five named parameter tensors, their gradient accumulators, its SGD update
//! and its GEMM engine. [`Layer`] reaches both blocks for every variant, so the Plinius
//! mirroring module can encrypt and persist the tensors buffer by buffer.

pub mod connected;
pub mod conv;
pub mod maxpool;
mod params;
pub mod softmax;

pub use connected::ConnectedLayer;
pub use conv::ConvLayer;
pub use maxpool::MaxPoolLayer;
pub use softmax::SoftmaxLayer;

use crate::dispatch::GemmKind;
use params::{Buffers, Params};
use rand::Rng;
use std::fmt;

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
        if let Some(params) = self.trainable_mut() {
            params.update(args);
        }
    }

    /// [`Layer::backward`] followed by [`Layer::update`], the training step's work on
    /// one layer after the loss, with the same result. A connected layer interleaves
    /// the two, block by block over its weights (see [`connected`]).
    pub(crate) fn backward_and_update(
        &mut self,
        input: &[f32],
        prev_delta: Option<&mut [f32]>,
        batch: usize,
        args: &UpdateArgs,
    ) {
        if let Layer::Connected(l) = self {
            l.backward_and_update(input, prev_delta, batch, args);
        } else {
            self.backward(input, prev_delta, batch);
            self.update(args);
        }
    }

    /// The batch-sized output buffer of the most recent forward pass.
    pub fn output(&self) -> &[f32] {
        &self.buffers().output
    }

    /// Mutable access to the layer's delta buffer (gradient w.r.t. its output).
    pub fn delta_mut(&mut self) -> &mut [f32] {
        &mut self.buffers_mut().delta
    }

    /// Simultaneous borrow of the output (shared) and delta (mutable) buffers, used when
    /// back-propagating into the previous layer.
    pub fn output_and_delta_mut(&mut self) -> (&[f32], &mut [f32]) {
        let Buffers { output, delta } = self.buffers_mut();
        (output, delta)
    }

    /// Zeroes the delta buffer (done before each training iteration).
    pub fn zero_delta(&mut self) {
        self.delta_mut().iter_mut().for_each(|d| *d = 0.0);
    }

    /// The layer's learnable parameter tensors (empty for pooling / softmax layers).
    pub fn params(&self) -> Vec<ParamView<'_>> {
        self.param_views().map_or_else(Vec::new, Vec::from)
    }

    /// The parameter tensors as a fixed array, `None` for non-trainable layers — the
    /// allocation-free sibling of [`Layer::params`] used by the mirror's staging loop.
    pub fn param_views(&self) -> Option<[ParamView<'_>; PARAM_TENSORS_PER_LAYER]> {
        self.trainable().map(Params::views)
    }

    /// The parameter tensors as mutable slices, in [`PARAM_TENSOR_NAMES`] order,
    /// `None` for non-trainable layers — the mutable sibling of
    /// [`Layer::param_views`], which a restore decodes into.
    pub fn params_mut(&mut self) -> Option<[&mut [f32]; PARAM_TENSORS_PER_LAYER]> {
        self.trainable_mut().map(Params::views_mut)
    }

    /// Overwrites the layer's parameter tensors with the provided values.
    ///
    /// # Panics
    ///
    /// Panics if the number of tensors or any tensor length does not match the layer.
    pub fn set_params(&mut self, tensors: &[Vec<f32>]) {
        let kind = self.kind();
        let Some(targets) = self.params_mut() else {
            assert!(
                tensors.is_empty(),
                "non-trainable layer received parameters"
            );
            return;
        };
        assert_eq!(
            tensors.len(),
            PARAM_TENSORS_PER_LAYER,
            "{kind} layer expects {PARAM_TENSORS_PER_LAYER} tensors"
        );
        for (target, source) in targets.into_iter().zip(tensors) {
            assert_eq!(
                target.len(),
                source.len(),
                "parameter tensor length mismatch"
            );
            target.copy_from_slice(source);
        }
    }

    /// Draws a fresh model's initial weights from `rng`, uniform in `[-1, 1)` scaled
    /// by `sqrt(2 / fan_in)` in index order, as Darknet does (no-op for layers without
    /// weights). Layers are built with zero weights; see
    /// [`crate::Network::init_weights`].
    pub fn init_weights<R: Rng>(&mut self, rng: &mut R) {
        if let Some(params) = self.trainable_mut() {
            params.init_weights(rng);
        }
    }

    /// Pins the GEMM engine for the layer's kernels (no-op for layers without GEMM,
    /// i.e. pooling and softmax).
    pub fn set_gemm_engine(&mut self, engine: GemmKind) {
        if let Some(params) = self.trainable_mut() {
            params.engine = engine;
        }
    }

    /// The GEMM engine the layer's kernels run on, `None` for layers without GEMM.
    pub fn gemm_engine(&self) -> Option<GemmKind> {
        self.trainable().map(|params| params.engine)
    }

    /// Whether the layer has learnable parameters.
    pub fn is_trainable(&self) -> bool {
        self.trainable().is_some()
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

    /// The parameter block of a trainable layer.
    fn trainable(&self) -> Option<&Params> {
        match self {
            Layer::Convolutional(l) => Some(&l.params),
            Layer::Connected(l) => Some(&l.params),
            Layer::MaxPool(_) | Layer::Softmax(_) => None,
        }
    }

    /// The parameter block of a trainable layer, mutable.
    fn trainable_mut(&mut self) -> Option<&mut Params> {
        match self {
            Layer::Convolutional(l) => Some(&mut l.params),
            Layer::Connected(l) => Some(&mut l.params),
            Layer::MaxPool(_) | Layer::Softmax(_) => None,
        }
    }

    /// The layer's output and delta buffers.
    fn buffers(&self) -> &Buffers {
        match self {
            Layer::Convolutional(l) => &l.buffers,
            Layer::MaxPool(l) => &l.buffers,
            Layer::Connected(l) => &l.buffers,
            Layer::Softmax(l) => &l.buffers,
        }
    }

    /// The layer's output and delta buffers, mutable.
    fn buffers_mut(&mut self) -> &mut Buffers {
        match self {
            Layer::Convolutional(l) => &mut l.buffers,
            Layer::MaxPool(l) => &mut l.buffers,
            Layer::Connected(l) => &mut l.buffers,
            Layer::Softmax(l) => &mut l.buffers,
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
        let conv = Layer::Convolutional(ConvLayer::new(8, 8, 1, 4, 3, 1, 1, Activation::Leaky, 2));
        let fc = Layer::Connected(ConnectedLayer::new(16, 10, Activation::Linear, 2));
        for mut layer in [conv, fc] {
            let params = layer.params();
            assert_eq!(params.len(), PARAM_TENSORS_PER_LAYER);
            for (p, name) in params.iter().zip(PARAM_TENSOR_NAMES.iter()) {
                assert_eq!(p.name, *name);
            }
            let lens: Vec<usize> = params.iter().map(|p| p.data.len()).collect();
            let mutable = layer.params_mut().expect("trainable");
            assert_eq!(mutable.map(|t| t.len()).to_vec(), lens);
            assert!(layer.is_trainable());
            assert!(layer.param_bytes() > 0);
        }
        let mut pool = Layer::MaxPool(MaxPoolLayer::new(8, 8, 4, 2, 2, 2));
        assert!(pool.params().is_empty());
        assert!(pool.params_mut().is_none());
        assert!(!pool.is_trainable());
    }

    #[test]
    fn layers_are_built_with_zero_weights_and_init_draws_them() {
        let mut layer = Layer::Connected(ConnectedLayer::new(4, 3, Activation::Linear, 1));
        assert!(layer.params()[0].data.iter().all(|&w| w == 0.0));
        layer.init_weights(&mut StdRng::seed_from_u64(2));
        let scale = (2.0f32 / 4.0).sqrt();
        let weights = layer.params()[0].data.to_vec();
        assert!(weights.iter().all(|w| w.abs() <= scale));
        assert!(weights.iter().any(|&w| w != 0.0));
    }

    #[test]
    fn set_params_round_trips() {
        let mut layer = Layer::Connected(ConnectedLayer::new(4, 3, Activation::Linear, 1));
        layer.init_weights(&mut StdRng::seed_from_u64(2));
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
