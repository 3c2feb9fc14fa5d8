//! Fully connected (dense) layer.

use crate::activation::Activation;
use crate::dispatch::{selected_gemm, GemmKind};
use crate::layers::{draw_weights, layer_gemm, ParamView, UpdateArgs, PARAM_TENSOR_NAMES};
use crate::matrix::{axpy_with_engine, scal_with_engine};
use rand::Rng;

/// A fully connected layer: `y = act(W x + b)` with `W` of shape `outputs x inputs`.
#[derive(Debug, Clone)]
pub struct ConnectedLayer {
    inputs: usize,
    outputs: usize,
    activation: Activation,
    weights: Vec<f32>,
    weight_updates: Vec<f32>,
    biases: Vec<f32>,
    bias_updates: Vec<f32>,
    scales: Vec<f32>,
    rolling_mean: Vec<f32>,
    rolling_variance: Vec<f32>,
    output: Vec<f32>,
    delta: Vec<f32>,
    /// Resolved GEMM engine for every kernel this layer runs. Set from the
    /// environment policy at construction; re-settable through
    /// [`crate::Network::set_gemm_policy`].
    engine: GemmKind,
}

impl ConnectedLayer {
    /// Creates a fully connected layer with zero weights
    /// ([`ConnectedLayer::init_weights`] draws a fresh model's).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `outputs` is zero.
    pub fn new(inputs: usize, outputs: usize, activation: Activation, batch: usize) -> Self {
        assert!(
            inputs > 0 && outputs > 0,
            "connected layer needs non-zero dimensions"
        );
        ConnectedLayer {
            inputs,
            outputs,
            activation,
            weights: vec![0.0; inputs * outputs],
            weight_updates: vec![0.0; inputs * outputs],
            biases: vec![0.0; outputs],
            bias_updates: vec![0.0; outputs],
            scales: vec![1.0; outputs],
            rolling_mean: vec![0.0; outputs],
            rolling_variance: vec![1.0; outputs],
            output: vec![0.0; outputs * batch],
            delta: vec![0.0; outputs * batch],
            engine: selected_gemm(),
        }
    }

    /// Draws the initial weights from `rng`, Kaiming-style over the `inputs` fan-in.
    pub fn init_weights<R: Rng>(&mut self, rng: &mut R) {
        draw_weights(&mut self.weights, self.inputs, rng);
    }

    /// The GEMM engine this layer's kernels run on.
    pub fn gemm_engine(&self) -> GemmKind {
        self.engine
    }

    /// Pins the GEMM engine for every kernel this layer runs.
    pub fn set_gemm_engine(&mut self, engine: GemmKind) {
        self.engine = engine;
    }

    /// Number of inputs per sample.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of outputs per sample.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// The activation function applied to the outputs.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    fn ensure_batch(&mut self, batch: usize) {
        let needed = self.outputs * batch;
        if self.output.len() < needed {
            self.output.resize(needed, 0.0);
            self.delta.resize(needed, 0.0);
        }
    }

    /// Forward pass over a batch.
    ///
    /// # Panics
    ///
    /// Panics if `input` is shorter than `batch * inputs()`.
    pub fn forward(&mut self, input: &[f32], batch: usize) {
        assert!(
            input.len() >= batch * self.inputs,
            "connected input too small"
        );
        self.ensure_batch(batch);
        let out = &mut self.output[..batch * self.outputs];
        out.iter_mut().for_each(|o| *o = 0.0);
        // output (batch x outputs) = input (batch x inputs) * W^T (inputs x outputs)
        layer_gemm(
            self.engine,
            false,
            true,
            batch,
            self.outputs,
            self.inputs,
            1.0,
            input,
            self.inputs,
            &self.weights,
            self.inputs,
            0.0,
            out,
            self.outputs,
        );
        for b in 0..batch {
            let row = &mut out[b * self.outputs..(b + 1) * self.outputs];
            for (o, bias) in row.iter_mut().zip(self.biases.iter()) {
                *o += bias;
            }
            self.activation.apply_slice(row);
        }
    }

    /// Backward pass: accumulates gradients and optionally propagates to the input.
    ///
    /// # Panics
    ///
    /// Panics if the buffers are inconsistent with `batch`.
    pub fn backward(&mut self, input: &[f32], prev_delta: Option<&mut [f32]>, batch: usize) {
        assert!(
            input.len() >= batch * self.inputs,
            "connected input too small"
        );
        let out = &self.output[..batch * self.outputs];
        let delta = &mut self.delta[..batch * self.outputs];
        self.activation.gradient_slice(out, delta);
        for b in 0..batch {
            let row = &delta[b * self.outputs..(b + 1) * self.outputs];
            for (bu, d) in self.bias_updates.iter_mut().zip(row.iter()) {
                *bu += d;
            }
        }
        // weight_updates (outputs x inputs) += delta^T (outputs x batch) * input (batch x inputs)
        layer_gemm(
            self.engine,
            true,
            false,
            self.outputs,
            self.inputs,
            batch,
            1.0,
            delta,
            self.outputs,
            input,
            self.inputs,
            1.0,
            &mut self.weight_updates,
            self.inputs,
        );
        if let Some(prev) = prev_delta {
            // prev_delta (batch x inputs) += delta (batch x outputs) * W (outputs x inputs)
            layer_gemm(
                self.engine,
                false,
                false,
                batch,
                self.inputs,
                self.outputs,
                1.0,
                delta,
                self.outputs,
                &self.weights,
                self.inputs,
                1.0,
                prev,
                self.inputs,
            );
        }
    }

    /// Applies accumulated gradients (SGD + momentum + decay, Darknet convention).
    pub fn update(&mut self, args: &UpdateArgs) {
        let batch = args.batch.max(1) as f32;
        axpy_with_engine(
            self.engine,
            args.learning_rate / batch,
            &self.bias_updates,
            &mut self.biases,
        );
        scal_with_engine(self.engine, args.momentum, &mut self.bias_updates);
        axpy_with_engine(
            self.engine,
            -args.decay * batch,
            &self.weights,
            &mut self.weight_updates,
        );
        axpy_with_engine(
            self.engine,
            args.learning_rate / batch,
            &self.weight_updates,
            &mut self.weights,
        );
        scal_with_engine(self.engine, args.momentum, &mut self.weight_updates);
    }

    /// Output buffer of the latest forward pass.
    pub fn output(&self) -> &[f32] {
        &self.output
    }

    /// Mutable delta buffer.
    pub fn delta_mut(&mut self) -> &mut [f32] {
        &mut self.delta
    }

    /// Simultaneous shared-output / mutable-delta borrow.
    pub fn output_and_delta_mut(&mut self) -> (&[f32], &mut [f32]) {
        (&self.output, &mut self.delta)
    }

    /// The five named parameter tensors of this layer.
    pub fn params(&self) -> Vec<ParamView<'_>> {
        self.param_views().to_vec()
    }

    /// The same five tensors as [`Self::params`] in a fixed array — no allocation,
    /// for the mirror's allocation-free staging loop.
    pub fn param_views(&self) -> [ParamView<'_>; crate::PARAM_TENSORS_PER_LAYER] {
        [
            ParamView {
                name: PARAM_TENSOR_NAMES[0],
                data: &self.weights,
            },
            ParamView {
                name: PARAM_TENSOR_NAMES[1],
                data: &self.biases,
            },
            ParamView {
                name: PARAM_TENSOR_NAMES[2],
                data: &self.scales,
            },
            ParamView {
                name: PARAM_TENSOR_NAMES[3],
                data: &self.rolling_mean,
            },
            ParamView {
                name: PARAM_TENSOR_NAMES[4],
                data: &self.rolling_variance,
            },
        ]
    }

    /// The same five tensors as [`Self::param_views`], mutable.
    pub fn params_mut(&mut self) -> [&mut [f32]; crate::PARAM_TENSORS_PER_LAYER] {
        [
            &mut self.weights,
            &mut self.biases,
            &mut self.scales,
            &mut self.rolling_mean,
            &mut self.rolling_variance,
        ]
    }

    /// Approximate FLOPs per sample (forward + backward).
    pub fn flops_per_sample(&self) -> u64 {
        (6 * self.inputs * self.outputs) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_hand_computation() {
        let mut l = ConnectedLayer::new(2, 2, Activation::Linear, 1);
        // W = [[1,2],[3,4]], b = [0.5, -0.5]
        let [weights, biases, ..] = l.params_mut();
        weights.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        biases.copy_from_slice(&[0.5, -0.5]);
        l.forward(&[1.0, 1.0], 1);
        assert_eq!(l.output(), &[3.5, 6.5]);
    }

    #[test]
    fn gradient_check_weights_and_input() {
        let mut layer = ConnectedLayer::new(5, 3, Activation::Logistic, 1);
        layer.init_weights(&mut StdRng::seed_from_u64(2));
        let input: Vec<f32> = (0..5).map(|i| i as f32 * 0.2 - 0.5).collect();
        layer.forward(&input, 1);
        layer.delta_mut().iter_mut().for_each(|d| *d = 1.0);
        let mut prev_delta = vec![0.0f32; 5];
        layer.backward(&input, Some(&mut prev_delta), 1);
        let analytic_w = layer.weight_updates.clone();
        let eps = 1e-3f32;
        for wi in [0usize, 4, 9, 14] {
            let mut plus = layer.clone();
            plus.weights[wi] += eps;
            plus.forward(&input, 1);
            let lp: f32 = plus.output().iter().sum();
            let mut minus = layer.clone();
            minus.weights[wi] -= eps;
            minus.forward(&input, 1);
            let lm: f32 = minus.output().iter().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic_w[wi]).abs() < 1e-2,
                "w{wi}: {numeric} vs {}",
                analytic_w[wi]
            );
        }
        for xi in 0..5 {
            let mut plus = input.clone();
            plus[xi] += eps;
            layer.forward(&plus, 1);
            let lp: f32 = layer.output().iter().sum();
            let mut minus = input.clone();
            minus[xi] -= eps;
            layer.forward(&minus, 1);
            let lm: f32 = layer.output().iter().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - prev_delta[xi]).abs() < 1e-2,
                "x{xi}: {numeric} vs {}",
                prev_delta[xi]
            );
        }
    }

    #[test]
    fn params_and_flops() {
        let l = ConnectedLayer::new(10, 4, Activation::Leaky, 1);
        assert_eq!(l.inputs(), 10);
        assert_eq!(l.outputs(), 4);
        assert_eq!(l.activation(), Activation::Leaky);
        assert_eq!(l.params().len(), 5);
        assert_eq!(l.params()[0].data.len(), 40);
        assert_eq!(l.flops_per_sample(), 240);
    }

    #[test]
    fn update_changes_weights_in_delta_direction() {
        // Zero weights and biases, as built.
        let mut l = ConnectedLayer::new(2, 1, Activation::Linear, 1);
        l.forward(&[1.0, -1.0], 1);
        l.delta_mut()[0] = 1.0; // "increase the output"
        l.backward(&[1.0, -1.0], None, 1);
        l.update(&UpdateArgs {
            learning_rate: 1.0,
            momentum: 0.0,
            decay: 0.0,
            batch: 1,
        });
        // Gradient ascent along delta: weight for +1 input grows, for -1 input shrinks.
        assert!(l.weights[0] > 0.0);
        assert!(l.weights[1] < 0.0);
    }

    #[test]
    #[should_panic(expected = "non-zero dimensions")]
    fn zero_dimension_rejected() {
        let _ = ConnectedLayer::new(0, 3, Activation::Linear, 1);
    }
}
