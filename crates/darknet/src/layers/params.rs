//! The two blocks of state that Darknet's layers share, each written once:
//!
//! * [`Params`], a trainable layer's parameter block: the five mirrored tensors, their
//!   two gradient accumulators, the weight fan-in and the GEMM engine, with the SGD
//!   update, the weight draw and the tensor views;
//! * [`Buffers`], every layer's batch-sized output and delta buffers.

use crate::dispatch::{selected_gemm, GemmKind};
use crate::layers::{ParamView, UpdateArgs, PARAM_TENSORS_PER_LAYER, PARAM_TENSOR_NAMES};
use crate::matrix::sgd_with_engine;
use rand::Rng;
use std::ops::Range;

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
    /// update rule; the deltas hold the negative gradient, so updates are additive), in
    /// one pass over each tensor and its accumulator. With `B = max(batch, 1)`, per
    /// element: `b += (lr / B) · Δb`, then `Δb *= momentum`; `Δw += (−decay · B) · w`,
    /// then `w += (lr / B) · Δw`, then `Δw *= momentum`. The biases take no decay step.
    pub(super) fn update(&mut self, args: &UpdateArgs) {
        self.update_biases(args);
        self.update_weights(0..self.weights.len(), args);
    }

    /// The biases' half of [`Params::update`].
    pub(super) fn update_biases(&mut self, args: &UpdateArgs) {
        let batch = args.batch.max(1) as f32;
        sgd_with_engine(
            self.engine,
            None,
            args.learning_rate / batch,
            args.momentum,
            &mut self.biases,
            &mut self.bias_updates,
        );
    }

    /// The weights' half of [`Params::update`], over the elements `range` of the
    /// weights and their accumulators. Every element's step is its own, so updating a
    /// tensor range by range ends on the bits of one call over the whole, provided
    /// every range but the last holds whole vector lanes: the `fma` engines leave the
    /// last `len % lanes` elements of each call unfused.
    pub(super) fn update_weights(&mut self, range: Range<usize>, args: &UpdateArgs) {
        let batch = args.batch.max(1) as f32;
        sgd_with_engine(
            self.engine,
            Some(-args.decay * batch),
            args.learning_rate / batch,
            args.momentum,
            &mut self.weights[range.clone()],
            &mut self.weight_updates[range],
        );
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

#[cfg(test)]
mod tests {
    use crate::activation::Activation;
    use crate::dispatch::{avx2_available, avx512_available, fma_available, GemmKind};
    use crate::layers::{ConnectedLayer, Layer, UpdateArgs};

    /// `y += alpha * x`, the AXPY pass of the update before it was fused: on the `fma`
    /// engines one rounding per element in the full `lanes`-wide vectors, and a `mul`
    /// and an `add` in the tail; on every other engine a `mul` and an `add` throughout.
    fn axpy(lanes: Option<usize>, alpha: f32, x: &[f32], y: &mut [f32]) {
        let fused = lanes.map_or(0, |lanes| x.len() - x.len() % lanes);
        for (i, (y, x)) in y.iter_mut().zip(x).enumerate() {
            *y = if i < fused {
                alpha.mul_add(*x, *y)
            } else {
                *y + alpha * x
            };
        }
    }

    /// `x *= alpha`, the SCAL pass: one rounding on every engine.
    fn scal(alpha: f32, x: &mut [f32]) {
        x.iter_mut().for_each(|x| *x *= alpha);
    }

    /// The oracle: the five passes the fused update replaced, in their order.
    fn five_passes(lanes: Option<usize>, args: &UpdateArgs, tensors: &mut [Vec<f32>; 4]) {
        let [w, dw, b, db] = tensors;
        let batch = args.batch.max(1) as f32;
        let rate = args.learning_rate / batch;
        axpy(lanes, rate, db, b);
        scal(args.momentum, db);
        axpy(lanes, -args.decay * batch, w, dw);
        axpy(lanes, rate, dw, w);
        scal(args.momentum, dw);
    }

    /// Finite values in `[-2, 2]` with NaN, ±Inf, ±0.0 and subnormals mixed in.
    fn values(len: usize, seed: u32) -> Vec<f32> {
        const SPECIAL: [f32; 8] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            1.0e-40,
            -2.5e-39,
            f32::MIN_POSITIVE,
        ];
        (0..len as u32)
            .map(|i| {
                let h = i
                    .wrapping_mul(2654435761)
                    .wrapping_add(seed.wrapping_mul(40503));
                if h % 5 == 0 {
                    SPECIAL[(h / 5) as usize % SPECIAL.len()]
                } else {
                    (h % 2001) as f32 / 500.0 - 2.0
                }
            })
            .collect()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn fused_update_matches_the_five_passes_on_every_engine() {
        let engines = [
            (GemmKind::Scalar, true, None),
            (GemmKind::Avx2, avx2_available(), None),
            (GemmKind::Avx2Fma, fma_available(), Some(8)),
            (GemmKind::Avx512, avx512_available(), None),
            (GemmKind::Avx512Fma, avx512_available(), Some(16)),
        ];
        let args = UpdateArgs {
            learning_rate: 0.05,
            momentum: 0.9,
            decay: 0.01,
            batch: 4,
        };
        for (engine, built, lanes) in engines {
            if !built {
                eprintln!("skipping {engine}: the CPU does not report it");
                continue;
            }
            // Bias lengths just below, at and above multiples of 8 and 16 lanes; the
            // weights are as long, or three times as long.
            for outputs in [
                1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 47, 48, 49, 65,
            ] {
                for inputs in [1, 3] {
                    let mut layer = Layer::Connected(ConnectedLayer::new(
                        inputs,
                        outputs,
                        Activation::Linear,
                        1,
                    ));
                    layer.set_gemm_engine(engine);
                    let params = layer.trainable_mut().expect("a connected layer trains");
                    params.weights = values(outputs * inputs, 1);
                    params.weight_updates = values(outputs * inputs, 2);
                    params.biases = values(outputs, 3);
                    params.bias_updates = values(outputs, 4);
                    let tensors = |params: &super::Params| {
                        [
                            params.weights.clone(),
                            params.weight_updates.clone(),
                            params.biases.clone(),
                            params.bias_updates.clone(),
                        ]
                    };
                    let mut oracle = tensors(params);
                    for round in 0..2 {
                        layer.update(&args);
                        five_passes(lanes, &args, &mut oracle);
                        let got = tensors(layer.trainable().expect("a connected layer trains"));
                        for (name, (got, want)) in
                            ["w", "Δw", "b", "Δb"].iter().zip(got.iter().zip(&oracle))
                        {
                            assert_eq!(
                                bits(got),
                                bits(want),
                                "{engine}: {name} of a {outputs}x{inputs} layer after round {round}"
                            );
                        }
                    }
                }
            }
        }
    }
}
