//! 2-D convolutional layer (convolution as GEMM over an im2col buffer), the workhorse of
//! the paper's CNN models. Every convolutional layer uses a leaky-ReLU activation in the
//! paper's experiments.
//!
//! The forward pass over a batch runs sample-parallel across scoped threads (each
//! sample's im2col + GEMM + bias + activation writes a disjoint output band). The
//! backward pass walks the samples on the calling thread: its per-sample GEMMs would
//! fan out only past the engine's parallel cutoff ([`GemmKind::par_min_work`], `2^20`
//! or `2^21` multiply-adds), which no conv layer of the benchmark models reaches, so in
//! practice it runs on one core. Both produce bit-identical results for every thread
//! count.

use crate::activation::Activation;
use crate::dispatch::{selected_gemm, GemmKind};
use crate::layers::{layer_gemm, ParamView, UpdateArgs, PARAM_TENSOR_NAMES};
use crate::matrix::{
    axpy_with_engine, col2im, conv_out_dim, gemm_with_engine, im2col, scal_with_engine,
    GEMM_DEFAULT_KC,
};
use rand::Rng;
use std::cell::RefCell;

thread_local! {
    /// Per-thread im2col scratch for the sample-parallel forward path.
    static COL_BUFFER: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Minimum per-sample GEMM work (`filters * k * out_pixels`) before the forward pass
/// fans a batch out across threads; tiny layers stay serial.
const FORWARD_PAR_MIN_WORK: usize = 1 << 14;

/// Bias-add + activation over one sample's output band, shared by the serial and
/// sample-parallel forward paths so both compute byte-identical results.
fn forward_epilogue(out: &mut [f32], biases: &[f32], n: usize, activation: Activation) {
    for (f, bias) in biases.iter().enumerate() {
        for o in out[f * n..(f + 1) * n].iter_mut() {
            *o += bias;
        }
    }
    activation.apply_slice(out);
}

/// A 2-D convolutional layer.
#[derive(Debug, Clone)]
pub struct ConvLayer {
    // Geometry.
    in_h: usize,
    in_w: usize,
    in_c: usize,
    filters: usize,
    ksize: usize,
    stride: usize,
    pad: usize,
    out_h: usize,
    out_w: usize,
    activation: Activation,
    // Learnable parameters and their gradient accumulators.
    weights: Vec<f32>,
    weight_updates: Vec<f32>,
    biases: Vec<f32>,
    bias_updates: Vec<f32>,
    // Batch-normalisation style statistics. The paper's small CNNs do not enable batch
    // norm, but the tensors are part of every Darknet layer and are mirrored to PM, so
    // they are carried (at their neutral values) to keep the 5-tensors-per-layer layout.
    scales: Vec<f32>,
    rolling_mean: Vec<f32>,
    rolling_variance: Vec<f32>,
    // Work buffers.
    output: Vec<f32>,
    delta: Vec<f32>,
    col_buffer: Vec<f32>,
    /// Resolved GEMM engine for every kernel this layer runs. Set from the
    /// `PLINIUS_GEMM` policy at construction, re-settable through
    /// [`crate::Network::set_gemm_policy`].
    engine: GemmKind,
}

impl ConvLayer {
    /// Creates a convolutional layer for inputs of shape `(in_c, in_h, in_w)`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry produces an empty output.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng>(
        in_h: usize,
        in_w: usize,
        in_c: usize,
        filters: usize,
        ksize: usize,
        stride: usize,
        pad: usize,
        activation: Activation,
        batch: usize,
        rng: &mut R,
    ) -> Self {
        assert!(
            filters > 0 && ksize > 0 && stride > 0,
            "bad convolution geometry"
        );
        let out_h = conv_out_dim(in_h, ksize, stride, pad);
        let out_w = conv_out_dim(in_w, ksize, stride, pad);
        assert!(out_h > 0 && out_w > 0, "convolution output is empty");
        let weight_count = filters * in_c * ksize * ksize;
        // Kaiming-style initialisation, matching Darknet's scale choice.
        let scale = (2.0 / (in_c * ksize * ksize) as f32).sqrt();
        let weights = (0..weight_count)
            .map(|_| rng.gen_range(-1.0f32..1.0) * scale)
            .collect();
        let outputs = filters * out_h * out_w;
        ConvLayer {
            in_h,
            in_w,
            in_c,
            filters,
            ksize,
            stride,
            pad,
            out_h,
            out_w,
            activation,
            weights,
            weight_updates: vec![0.0; weight_count],
            biases: vec![0.0; filters],
            bias_updates: vec![0.0; filters],
            scales: vec![1.0; filters],
            rolling_mean: vec![0.0; filters],
            rolling_variance: vec![1.0; filters],
            output: vec![0.0; outputs * batch],
            delta: vec![0.0; outputs * batch],
            col_buffer: vec![0.0; in_c * ksize * ksize * out_h * out_w],
            engine: selected_gemm(),
        }
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
        self.in_c * self.in_h * self.in_w
    }

    /// Number of outputs per sample.
    pub fn outputs(&self) -> usize {
        self.filters * self.out_h * self.out_w
    }

    /// Output shape `(channels, height, width)`.
    pub fn out_shape(&self) -> (usize, usize, usize) {
        (self.filters, self.out_h, self.out_w)
    }

    /// Number of filters.
    pub fn filters(&self) -> usize {
        self.filters
    }

    /// Kernel size.
    pub fn ksize(&self) -> usize {
        self.ksize
    }

    /// The activation function applied to the outputs.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    fn ensure_batch(&mut self, batch: usize) {
        let needed = self.outputs() * batch;
        if self.output.len() < needed {
            self.output.resize(needed, 0.0);
            self.delta.resize(needed, 0.0);
        }
    }

    /// Forward pass. Batches fan out sample-parallel across scoped threads (disjoint
    /// output bands, per-thread im2col scratch); the output is bit-identical for every
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics if `input` is shorter than `batch * inputs()`.
    pub fn forward(&mut self, input: &[f32], batch: usize) {
        assert!(
            input.len() >= batch * self.inputs(),
            "convolution input too small"
        );
        self.ensure_batch(batch);
        let m = self.filters;
        let k = self.in_c * self.ksize * self.ksize;
        let n = self.out_h * self.out_w;
        let threads = if batch > 1 && m * k * n >= FORWARD_PAR_MIN_WORK {
            plinius_parallel::max_threads().min(batch)
        } else {
            1
        };
        let in_size = self.inputs();
        if threads > 1 {
            // Each sample writes its own m*n output band; the inner GEMM stays
            // single-threaded (the batch is the parallel axis).
            let weights = &self.weights;
            let biases = &self.biases;
            let activation = self.activation;
            let engine = self.engine;
            let (in_c, in_h, in_w) = (self.in_c, self.in_h, self.in_w);
            let (ksize, stride, pad) = (self.ksize, self.stride, self.pad);
            plinius_parallel::par_chunks_mut(
                &mut self.output[..batch * m * n],
                m * n,
                threads,
                |b, out| {
                    let sample = &input[b * in_size..(b + 1) * in_size];
                    COL_BUFFER.with(|buf| {
                        let mut col = buf.borrow_mut();
                        col.resize(k * n, 0.0);
                        im2col(sample, in_c, in_h, in_w, ksize, stride, pad, &mut col);
                        out.iter_mut().for_each(|o| *o = 0.0);
                        gemm_with_engine(
                            engine,
                            1,
                            GEMM_DEFAULT_KC,
                            false,
                            false,
                            m,
                            n,
                            k,
                            1.0,
                            weights,
                            k,
                            &col,
                            n,
                            0.0,
                            out,
                            n,
                        );
                    });
                    forward_epilogue(out, biases, n, activation);
                },
            );
        } else {
            for b in 0..batch {
                let sample = &input[b * in_size..(b + 1) * in_size];
                im2col(
                    sample,
                    self.in_c,
                    self.in_h,
                    self.in_w,
                    self.ksize,
                    self.stride,
                    self.pad,
                    &mut self.col_buffer,
                );
                let out = &mut self.output[b * m * n..(b + 1) * m * n];
                out.iter_mut().for_each(|o| *o = 0.0);
                // Row-band parallelism inside the GEMM still applies (e.g. single-
                // sample inference on a large layer); results are thread-invariant.
                layer_gemm(
                    self.engine,
                    false,
                    false,
                    m,
                    n,
                    k,
                    1.0,
                    &self.weights,
                    k,
                    &self.col_buffer,
                    n,
                    0.0,
                    out,
                    n,
                );
                forward_epilogue(out, &self.biases, n, self.activation);
            }
        }
    }

    /// Backward pass: accumulates weight/bias gradients and optionally propagates the
    /// gradient to the layer input.
    ///
    /// # Panics
    ///
    /// Panics if the buffers are inconsistent with `batch`.
    pub fn backward(&mut self, input: &[f32], mut prev_delta: Option<&mut [f32]>, batch: usize) {
        assert!(
            input.len() >= batch * self.inputs(),
            "convolution input too small"
        );
        let m = self.filters;
        let k = self.in_c * self.ksize * self.ksize;
        let n = self.out_h * self.out_w;
        let in_size = self.inputs();
        for b in 0..batch {
            let out = &self.output[b * m * n..(b + 1) * m * n];
            let delta = &mut self.delta[b * m * n..(b + 1) * m * n];
            self.activation.gradient_slice(out, delta);
            for f in 0..m {
                self.bias_updates[f] += delta[f * n..(f + 1) * n].iter().sum::<f32>();
            }
            let sample = &input[b * in_size..(b + 1) * in_size];
            im2col(
                sample,
                self.in_c,
                self.in_h,
                self.in_w,
                self.ksize,
                self.stride,
                self.pad,
                &mut self.col_buffer,
            );
            // weight_updates += delta * col^T
            layer_gemm(
                self.engine,
                false,
                true,
                m,
                k,
                n,
                1.0,
                delta,
                n,
                &self.col_buffer,
                n,
                1.0,
                &mut self.weight_updates,
                k,
            );
            if let Some(prev) = prev_delta.as_deref_mut() {
                // col_delta = W^T * delta, then scatter back to image space. It reuses
                // the column buffer, which the weight gradient above has finished with.
                let col_delta = &mut self.col_buffer;
                col_delta.fill(0.0);
                layer_gemm(
                    self.engine,
                    true,
                    false,
                    k,
                    n,
                    m,
                    1.0,
                    &self.weights,
                    k,
                    delta,
                    n,
                    0.0,
                    col_delta,
                    n,
                );
                let prev_sample = &mut prev[b * in_size..(b + 1) * in_size];
                col2im(
                    col_delta,
                    self.in_c,
                    self.in_h,
                    self.in_w,
                    self.ksize,
                    self.stride,
                    self.pad,
                    prev_sample,
                );
            }
        }
    }

    /// Applies accumulated gradients with SGD + momentum + weight decay (Darknet's
    /// update rule; `delta` holds the negative gradient so updates are additive).
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

    /// Overwrites the parameter tensors (mirror-in path).
    ///
    /// # Panics
    ///
    /// Panics if the tensor count or any length differs from this layer's.
    pub fn set_params(&mut self, tensors: &[Vec<f32>]) {
        assert_eq!(tensors.len(), 5, "convolutional layer expects 5 tensors");
        let targets: [&mut Vec<f32>; 5] = [
            &mut self.weights,
            &mut self.biases,
            &mut self.scales,
            &mut self.rolling_mean,
            &mut self.rolling_variance,
        ];
        for (target, source) in targets.into_iter().zip(tensors.iter()) {
            assert_eq!(
                target.len(),
                source.len(),
                "parameter tensor length mismatch"
            );
            target.copy_from_slice(source);
        }
    }

    /// Approximate FLOPs per sample (forward + backward ≈ 3x the forward GEMM).
    pub fn flops_per_sample(&self) -> u64 {
        let fwd = 2 * self.filters * self.in_c * self.ksize * self.ksize * self.out_h * self.out_w;
        (3 * fwd) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_layer(batch: usize) -> ConvLayer {
        let mut rng = StdRng::seed_from_u64(7);
        ConvLayer::new(5, 5, 1, 2, 3, 1, 1, Activation::Leaky, batch, &mut rng)
    }

    #[test]
    fn geometry_is_computed_correctly() {
        let l = small_layer(1);
        assert_eq!(l.out_shape(), (2, 5, 5));
        assert_eq!(l.outputs(), 50);
        assert_eq!(l.inputs(), 25);
        assert_eq!(l.filters(), 2);
        assert_eq!(l.ksize(), 3);
        assert_eq!(l.activation(), Activation::Leaky);
        assert_eq!(
            l.params().iter().map(|p| p.data.len()).sum::<usize>(),
            2 * 9 + 2 + 2 + 2 + 2
        );
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // A single 1x1 filter with weight 1 and linear activation copies the input.
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = ConvLayer::new(4, 4, 1, 1, 1, 1, 0, Activation::Linear, 1, &mut rng);
        l.set_params(&[vec![1.0], vec![0.0], vec![1.0], vec![0.0], vec![1.0]]);
        let input: Vec<f32> = (0..16).map(|v| v as f32).collect();
        l.forward(&input, 1);
        assert_eq!(l.output(), &input[..]);
    }

    #[test]
    fn known_convolution_value() {
        // One 2x2 filter of all ones over a 2x2 image equals the sum of the image.
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = ConvLayer::new(2, 2, 1, 1, 2, 1, 0, Activation::Linear, 1, &mut rng);
        l.set_params(&[vec![1.0; 4], vec![0.5], vec![1.0], vec![0.0], vec![1.0]]);
        l.forward(&[1.0, 2.0, 3.0, 4.0], 1);
        assert_eq!(l.output(), &[10.5]);
    }

    #[test]
    fn gradient_check_weights() {
        // Finite-difference check of dL/dw where L = sum(output) on a tiny layer.
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = ConvLayer::new(4, 4, 1, 2, 3, 1, 0, Activation::Leaky, 1, &mut rng);
        let input: Vec<f32> = (0..16).map(|i| (i as f32) / 7.5 - 1.0).collect();

        // Analytic gradient: delta = dL/dy = 1 everywhere (L = sum of outputs), so the
        // accumulated weight_updates equal the gradient (note: Darknet stores the
        // *negative* gradient in delta, so pass +1 and compare signs accordingly).
        layer.forward(&input, 1);
        layer.delta_mut().iter_mut().for_each(|d| *d = 1.0);
        layer.backward(&input, None, 1);
        let analytic = layer.weight_updates.clone();

        let eps = 1e-3f32;
        for wi in [0usize, 3, 7, 11, 17] {
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
                (numeric - analytic[wi]).abs() < 2e-2,
                "weight {wi}: numeric {numeric} vs analytic {}",
                analytic[wi]
            );
        }
    }

    #[test]
    fn gradient_check_input() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = ConvLayer::new(4, 4, 1, 2, 3, 1, 1, Activation::Linear, 1, &mut rng);
        let input: Vec<f32> = (0..16).map(|i| (i as f32) * 0.1 - 0.8).collect();
        layer.forward(&input, 1);
        layer.delta_mut().iter_mut().for_each(|d| *d = 1.0);
        let mut prev_delta = vec![0.0f32; 16];
        layer.backward(&input, Some(&mut prev_delta), 1);
        let eps = 1e-3f32;
        for xi in [0usize, 5, 10, 15] {
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
                (numeric - prev_delta[xi]).abs() < 2e-2,
                "input {xi}: numeric {numeric} vs analytic {}",
                prev_delta[xi]
            );
        }
    }

    #[test]
    fn update_moves_weights_toward_positive_delta() {
        let mut layer = small_layer(1);
        let before = layer.weights.clone();
        let input = vec![1.0f32; 25];
        layer.forward(&input, 1);
        layer.delta_mut().iter_mut().for_each(|d| *d = 1.0);
        layer.backward(&input, None, 1);
        layer.update(&UpdateArgs {
            learning_rate: 0.1,
            momentum: 0.0,
            decay: 0.0,
            batch: 1,
        });
        assert_ne!(layer.weights, before);
    }

    #[test]
    fn batch_dimension_is_independent() {
        // Feeding the same sample twice in a batch gives identical per-sample outputs.
        let mut layer = small_layer(2);
        let sample: Vec<f32> = (0..25).map(|v| v as f32 * 0.05).collect();
        let mut batch_input = sample.clone();
        batch_input.extend_from_slice(&sample);
        layer.forward(&batch_input, 2);
        let outs = layer.output();
        assert_eq!(&outs[..50], &outs[50..100]);
    }

    #[test]
    fn flops_are_positive_and_scale_with_filters() {
        let small = small_layer(1).flops_per_sample();
        let mut rng = StdRng::seed_from_u64(7);
        let big =
            ConvLayer::new(5, 5, 1, 8, 3, 1, 1, Activation::Leaky, 1, &mut rng).flops_per_sample();
        assert!(small > 0);
        assert_eq!(big, small * 4);
    }

    #[test]
    #[should_panic(expected = "expects 5 tensors")]
    fn set_params_validates_count() {
        let mut layer = small_layer(1);
        layer.set_params(&[vec![0.0]]);
    }
}
