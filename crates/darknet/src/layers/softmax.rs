//! Softmax output layer. The paper's models all terminate in a softmax layer trained with
//! cross-entropy loss; the loss/delta computation itself lives in
//! [`crate::network::Network::train_batch`], which sets this layer's delta to
//! `truth - prediction` (the negative gradient convention Darknet uses).

use crate::layers::params::Buffers;

/// A softmax layer normalising each sample's activations into a probability distribution.
#[derive(Debug, Clone)]
pub struct SoftmaxLayer {
    inputs: usize,
    pub(super) buffers: Buffers,
}

impl SoftmaxLayer {
    /// Creates a softmax layer over `inputs` classes.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is zero.
    pub fn new(inputs: usize, batch: usize) -> Self {
        assert!(inputs > 0, "softmax layer needs at least one class");
        SoftmaxLayer {
            inputs,
            buffers: Buffers::new(inputs * batch),
        }
    }

    /// Number of inputs (= outputs = classes) per sample.
    pub fn outputs(&self) -> usize {
        self.inputs
    }

    /// Forward pass: a numerically stable softmax per sample.
    ///
    /// # Panics
    ///
    /// Panics if `input` is shorter than `batch * outputs()`.
    pub fn forward(&mut self, input: &[f32], batch: usize) {
        assert!(
            input.len() >= batch * self.inputs,
            "softmax input too small"
        );
        self.buffers.ensure(self.inputs * batch);
        for b in 0..batch {
            let row = &input[b * self.inputs..(b + 1) * self.inputs];
            let out = &mut self.buffers.output[b * self.inputs..(b + 1) * self.inputs];
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for (o, x) in out.iter_mut().zip(row.iter()) {
                *o = (x - max).exp();
                sum += *o;
            }
            for o in out.iter_mut() {
                *o /= sum;
            }
        }
    }

    /// Backward pass: with the delta already holding `truth - prediction` (set by the
    /// network), the gradient w.r.t. the pre-softmax logits is simply passed through.
    pub fn backward(&mut self, _input: &[f32], prev_delta: Option<&mut [f32]>, batch: usize) {
        let Some(prev) = prev_delta else { return };
        let n = batch * self.inputs;
        for (p, d) in prev[..n].iter_mut().zip(self.buffers.delta[..n].iter()) {
            *p += d;
        }
    }

    /// Approximate FLOPs per sample.
    pub fn flops_per_sample(&self) -> u64 {
        (4 * self.inputs) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_form_probability_distribution() {
        let mut l = SoftmaxLayer::new(4, 2);
        let input = vec![1.0, 2.0, 3.0, 4.0, -1.0, 0.0, 1.0, 100.0];
        l.forward(&input, 2);
        for b in 0..2 {
            let row = &l.buffers.output[b * 4..(b + 1) * 4];
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|p| (0.0..=1.0).contains(p)));
        }
        // Larger logits get larger probabilities.
        assert!(l.buffers.output[3] > l.buffers.output[2]);
        // The huge logit dominates without overflowing.
        assert!(l.buffers.output[7] > 0.99);
    }

    #[test]
    fn uniform_logits_give_uniform_distribution() {
        let mut l = SoftmaxLayer::new(5, 1);
        l.forward(&[3.0; 5], 1);
        for p in &l.buffers.output {
            assert!((p - 0.2).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_passes_delta_through() {
        let mut l = SoftmaxLayer::new(3, 1);
        l.forward(&[0.0, 0.0, 0.0], 1);
        l.buffers.delta.copy_from_slice(&[0.1, -0.2, 0.3]);
        let mut prev = vec![1.0f32; 3];
        l.backward(&[0.0; 3], Some(&mut prev), 1);
        assert_eq!(prev, vec![1.1, 0.8, 1.3]);
        assert_eq!(l.outputs(), 3);
        assert!(l.flops_per_sample() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn zero_classes_rejected() {
        let _ = SoftmaxLayer::new(0, 1);
    }
}
