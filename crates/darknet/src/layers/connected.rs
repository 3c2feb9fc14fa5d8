//! Fully connected (dense) layer.

use crate::activation::Activation;
use crate::layers::layer_gemm;
use crate::layers::params::{Buffers, Params};

/// A fully connected layer: `y = act(W x + b)` with `W` of shape `outputs x inputs`.
#[derive(Debug, Clone)]
pub struct ConnectedLayer {
    inputs: usize,
    outputs: usize,
    activation: Activation,
    pub(super) params: Params,
    pub(super) buffers: Buffers,
}

impl ConnectedLayer {
    /// Creates a fully connected layer with zero weights
    /// ([`crate::Layer::init_weights`] draws a fresh model's, over the `inputs` fan-in).
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
            params: Params::new(outputs, inputs),
            buffers: Buffers::new(outputs * batch),
        }
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
        self.buffers.ensure(self.outputs * batch);
        let out = &mut self.buffers.output[..batch * self.outputs];
        out.iter_mut().for_each(|o| *o = 0.0);
        // output (batch x outputs) = input (batch x inputs) * W^T (inputs x outputs)
        layer_gemm(
            self.params.engine,
            false,
            true,
            batch,
            self.outputs,
            self.inputs,
            1.0,
            input,
            self.inputs,
            &self.params.weights,
            self.inputs,
            0.0,
            out,
            self.outputs,
        );
        for b in 0..batch {
            let row = &mut out[b * self.outputs..(b + 1) * self.outputs];
            for (o, bias) in row.iter_mut().zip(self.params.biases.iter()) {
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
        let out = &self.buffers.output[..batch * self.outputs];
        let delta = &mut self.buffers.delta[..batch * self.outputs];
        self.activation.gradient_slice(out, delta);
        for b in 0..batch {
            let row = &delta[b * self.outputs..(b + 1) * self.outputs];
            for (bu, d) in self.params.bias_updates.iter_mut().zip(row.iter()) {
                *bu += d;
            }
        }
        // weight_updates (outputs x inputs) += delta^T (outputs x batch) * input (batch x inputs)
        layer_gemm(
            self.params.engine,
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
            &mut self.params.weight_updates,
            self.inputs,
        );
        if let Some(prev) = prev_delta {
            // prev_delta (batch x inputs) += delta (batch x outputs) * W (outputs x inputs)
            layer_gemm(
                self.params.engine,
                false,
                false,
                batch,
                self.inputs,
                self.outputs,
                1.0,
                delta,
                self.outputs,
                &self.params.weights,
                self.inputs,
                1.0,
                prev,
                self.inputs,
            );
        }
    }

    /// Approximate FLOPs per sample (forward + backward).
    pub fn flops_per_sample(&self) -> u64 {
        (6 * self.inputs * self.outputs) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::UpdateArgs;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_hand_computation() {
        let mut l = ConnectedLayer::new(2, 2, Activation::Linear, 1);
        // W = [[1,2],[3,4]], b = [0.5, -0.5]
        let [weights, biases, ..] = l.params.views_mut();
        weights.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        biases.copy_from_slice(&[0.5, -0.5]);
        l.forward(&[1.0, 1.0], 1);
        assert_eq!(l.buffers.output, &[3.5, 6.5]);
    }

    #[test]
    fn gradient_check_weights_and_input() {
        let mut layer = ConnectedLayer::new(5, 3, Activation::Logistic, 1);
        layer.params.init_weights(&mut StdRng::seed_from_u64(2));
        let input: Vec<f32> = (0..5).map(|i| i as f32 * 0.2 - 0.5).collect();
        layer.forward(&input, 1);
        layer.buffers.delta.iter_mut().for_each(|d| *d = 1.0);
        let mut prev_delta = vec![0.0f32; 5];
        layer.backward(&input, Some(&mut prev_delta), 1);
        let analytic_w = layer.params.weight_updates.clone();
        let eps = 1e-3f32;
        for wi in [0usize, 4, 9, 14] {
            let mut plus = layer.clone();
            plus.params.weights[wi] += eps;
            plus.forward(&input, 1);
            let lp: f32 = plus.buffers.output.iter().sum();
            let mut minus = layer.clone();
            minus.params.weights[wi] -= eps;
            minus.forward(&input, 1);
            let lm: f32 = minus.buffers.output.iter().sum();
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
            let lp: f32 = layer.buffers.output.iter().sum();
            let mut minus = input.clone();
            minus[xi] -= eps;
            layer.forward(&minus, 1);
            let lm: f32 = layer.buffers.output.iter().sum();
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
        assert_eq!(l.params.views().len(), 5);
        assert_eq!(l.params.views()[0].data.len(), 40);
        assert_eq!(l.flops_per_sample(), 240);
    }

    #[test]
    fn update_changes_weights_in_delta_direction() {
        // Zero weights and biases, as built.
        let mut l = ConnectedLayer::new(2, 1, Activation::Linear, 1);
        l.forward(&[1.0, -1.0], 1);
        l.buffers.delta[0] = 1.0; // "increase the output"
        l.backward(&[1.0, -1.0], None, 1);
        l.params.update(&UpdateArgs {
            learning_rate: 1.0,
            momentum: 0.0,
            decay: 0.0,
            batch: 1,
        });
        // Gradient ascent along delta: weight for +1 input grows, for -1 input shrinks.
        assert!(l.params.weights[0] > 0.0);
        assert!(l.params.weights[1] < 0.0);
    }

    #[test]
    #[should_panic(expected = "non-zero dimensions")]
    fn zero_dimension_rejected() {
        let _ = ConnectedLayer::new(0, 3, Activation::Linear, 1);
    }
}
