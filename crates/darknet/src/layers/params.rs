//! The two blocks of state that Darknet's layers share, each written once:
//!
//! * [`Params`], a trainable layer's parameter block: the five mirrored tensors, their
//!   two gradient accumulators, the weight fan-in and the GEMM engine, with the SGD
//!   update, the weight draw and the tensor views;
//! * [`Buffers`], every layer's batch-sized output and delta buffers.

use crate::dispatch::{selected_gemm, GemmKind};
use crate::layers::{ParamView, UpdateArgs, PARAM_TENSORS_PER_LAYER, PARAM_TENSOR_NAMES};
use crate::matrix::{axpy_with_engine, scal_with_engine};
use rand::Rng;

/// A trainable layer's learnable parameters, their gradient accumulators and the
/// engine its kernels run on.
#[derive(Debug, Clone)]
pub(crate) struct Params {
    pub(super) weights: Vec<f32>,
    pub(super) weight_updates: Vec<f32>,
    pub(super) biases: Vec<f32>,
    pub(super) bias_updates: Vec<f32>,
    // Batch-normalisation style statistics. The paper's small CNNs do not enable batch
    // norm, but the tensors are part of every Darknet layer and are mirrored to PM, so
    // they are carried (at their neutral values) to keep the 5-tensors-per-layer layout.
    scales: Vec<f32>,
    rolling_mean: Vec<f32>,
    rolling_variance: Vec<f32>,
    /// Inputs feeding each output, the fan-in of the initial weight draw.
    fan_in: usize,
    /// Resolved GEMM engine for every kernel the layer runs. Set from the
    /// `PLINIUS_GEMM` policy at construction, re-settable through
    /// [`crate::Network::set_gemm_policy`].
    pub(super) engine: GemmKind,
}

impl Params {
    /// Zero weights and biases, unit scales and rolling variances, zero rolling means
    /// and zero accumulators for `outputs` outputs of `fan_in` inputs each: an
    /// `outputs x fan_in` weight matrix and one of each other value per output.
    /// Allocates in field order.
    pub(super) fn new(outputs: usize, fan_in: usize) -> Self {
        Params {
            weights: vec![0.0; outputs * fan_in],
            weight_updates: vec![0.0; outputs * fan_in],
            biases: vec![0.0; outputs],
            bias_updates: vec![0.0; outputs],
            scales: vec![1.0; outputs],
            rolling_mean: vec![0.0; outputs],
            rolling_variance: vec![1.0; outputs],
            fan_in,
            engine: selected_gemm(),
        }
    }

    /// Darknet's initial weight draw, in index order: uniform in `[-1, 1)` scaled by
    /// `sqrt(2 / fan_in)` (Kaiming-style).
    pub(super) fn init_weights<R: Rng>(&mut self, rng: &mut R) {
        let scale = (2.0 / self.fan_in as f32).sqrt();
        for w in &mut self.weights {
            *w = rng.gen_range(-1.0f32..1.0) * scale;
        }
    }

    /// Applies the accumulated gradients with SGD + momentum + weight decay (Darknet's
    /// update rule; the deltas hold the negative gradient, so updates are additive).
    pub(super) fn update(&mut self, args: &UpdateArgs) {
        let batch = args.batch.max(1) as f32;
        let rate = args.learning_rate / batch;
        axpy_with_engine(self.engine, rate, &self.bias_updates, &mut self.biases);
        scal_with_engine(self.engine, args.momentum, &mut self.bias_updates);
        axpy_with_engine(
            self.engine,
            -args.decay * batch,
            &self.weights,
            &mut self.weight_updates,
        );
        axpy_with_engine(self.engine, rate, &self.weight_updates, &mut self.weights);
        scal_with_engine(self.engine, args.momentum, &mut self.weight_updates);
    }

    /// The five mirrored tensors, named, in [`PARAM_TENSOR_NAMES`] order.
    pub(super) fn views(&self) -> [ParamView<'_>; PARAM_TENSORS_PER_LAYER] {
        let data = [
            &self.weights,
            &self.biases,
            &self.scales,
            &self.rolling_mean,
            &self.rolling_variance,
        ];
        std::array::from_fn(|i| ParamView {
            name: PARAM_TENSOR_NAMES[i],
            data: data[i],
        })
    }

    /// The same five tensors as [`Params::views`], mutable.
    pub(super) fn views_mut(&mut self) -> [&mut [f32]; PARAM_TENSORS_PER_LAYER] {
        [
            &mut self.weights,
            &mut self.biases,
            &mut self.scales,
            &mut self.rolling_mean,
            &mut self.rolling_variance,
        ]
    }
}

/// A layer's output buffer and the delta (gradient with respect to the output) that
/// back-propagation fills, both batch-sized.
#[derive(Debug, Clone)]
pub(crate) struct Buffers {
    pub(super) output: Vec<f32>,
    pub(super) delta: Vec<f32>,
}

impl Buffers {
    /// Zeroed buffers of `len` values, the output allocated first.
    pub(super) fn new(len: usize) -> Self {
        Buffers {
            output: vec![0.0; len],
            delta: vec![0.0; len],
        }
    }

    /// Grows both buffers to at least `len` values (a larger batch); never shrinks.
    pub(super) fn ensure(&mut self, len: usize) {
        if self.output.len() < len {
            self.output.resize(len, 0.0);
            self.delta.resize(len, 0.0);
        }
    }
}
