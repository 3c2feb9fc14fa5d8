//! 2-D convolutional layer (convolution as GEMM over an im2col buffer), the workhorse of
//! the paper's CNN models. Every convolutional layer uses a leaky-ReLU activation in the
//! paper's experiments.
//!
//! The forward pass over a batch runs sample-parallel across scoped threads (each
//! sample's im2col + GEMM + bias + activation writes a disjoint output band), or inline
//! on the calling thread when the batch or the layer is small. The backward pass walks
//! the samples on the calling thread: its per-sample GEMMs would fan out only past the
//! engine's parallel cutoff ([`crate::GemmKind::par_min_work`], `2^20` or `2^21`
//! multiply-adds), which no conv layer of the benchmark models reaches, so in practice it
//! runs on one core and does less work per sample instead ([`ConvLayer::backward`]).
//! Both passes build each sample's columns in one per-thread scratch, and both produce
//! bit-identical results for every thread count.

use crate::activation::Activation;
use crate::layers::params::{Buffers, Params};
use crate::matrix::{
    col2im, conv_out_dim, gemm, gemm_threads, gemm_with_engine, grow, im2col, GEMM_DEFAULT_KC,
};
use std::cell::RefCell;

thread_local! {
    /// This thread's im2col scratch, shared by the forward and the backward pass. It
    /// grows to the largest `k x n` columns the thread has needed and each use takes the
    /// slice it needs; it is never shrunk or re-zeroed, since `im2col` writes every value
    /// a pass reads and the backward zeroes its column gradient itself.
    static COL_BUFFER: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// This thread's transposed `k x m` weight gradient, which the backward copies in
    /// and out, grown as [`COL_BUFFER`] is. Kept apart so that the backward never regrows
    /// the columns the forward sized: moving that long-lived block changed the heap's
    /// layout enough to double the page faults of the `persist-recover` benchmark.
    static DWT_BUFFER: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Minimum per-sample GEMM work (`filters * k * out_pixels`) before the forward pass
/// fans a batch out across threads; tiny layers stay serial.
const FORWARD_PAR_MIN_WORK: usize = 1 << 14;

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
    pub(super) params: Params,
    pub(super) buffers: Buffers,
}

impl ConvLayer {
    /// Creates a convolutional layer for inputs of shape `(in_c, in_h, in_w)`, with
    /// zero weights ([`crate::Layer::init_weights`] draws a fresh model's, over the
    /// `in_c * ksize^2` fan-in).
    ///
    /// # Panics
    ///
    /// Panics if the geometry produces an empty output.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_h: usize,
        in_w: usize,
        in_c: usize,
        filters: usize,
        ksize: usize,
        stride: usize,
        pad: usize,
        activation: Activation,
        batch: usize,
    ) -> Self {
        assert!(
            filters > 0 && ksize > 0 && stride > 0,
            "bad convolution geometry"
        );
        let out_h = conv_out_dim(in_h, ksize, stride, pad);
        let out_w = conv_out_dim(in_w, ksize, stride, pad);
        assert!(out_h > 0 && out_w > 0, "convolution output is empty");
        let fan_in = in_c * ksize * ksize;
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
            params: Params::new(filters, fan_in),
            buffers: Buffers::new(outputs * batch),
        }
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
        self.buffers.ensure(self.outputs() * batch);
        let m = self.filters;
        let k = self.in_c * self.ksize * self.ksize;
        let n = self.out_h * self.out_w;
        let threads = if batch > 1 && m * k * n >= FORWARD_PAR_MIN_WORK {
            plinius_parallel::max_threads().min(batch)
        } else {
            1
        };
        // A fanned-out sample's GEMM stays on its worker (the batch is the parallel
        // axis); on one thread it may still split into row bands, as `gemm` would (e.g.
        // single-sample inference on a large layer). Results are thread-invariant.
        let engine = self.params.engine;
        let gemm_workers = match threads {
            1 => gemm_threads(engine, false, m, n, k),
            _ => 1,
        };
        let in_size = self.inputs();
        let (weights, biases) = (&self.params.weights, &self.params.biases);
        let activation = self.activation;
        let (in_c, in_h, in_w) = (self.in_c, self.in_h, self.in_w);
        let (ksize, stride, pad) = (self.ksize, self.stride, self.pad);
        plinius_parallel::par_chunks_mut(
            &mut self.buffers.output[..batch * m * n],
            m * n,
            threads,
            |b, out| {
                let sample = &input[b * in_size..(b + 1) * in_size];
                COL_BUFFER.with_borrow_mut(|buf| {
                    let col = grow(buf, k * n);
                    im2col(sample, in_c, in_h, in_w, ksize, stride, pad, col);
                    // Zeroed, so that the product adds to it with beta = 1: scaling
                    // the last batch's outputs by beta = 0 would keep a NaN.
                    out.fill(0.0);
                    gemm_with_engine(
                        engine,
                        gemm_workers,
                        GEMM_DEFAULT_KC,
                        false,
                        false,
                        m,
                        n,
                        k,
                        1.0,
                        weights,
                        k,
                        col,
                        n,
                        1.0,
                        out,
                        n,
                    );
                });
                for (row, bias) in out.chunks_exact_mut(n).zip(biases) {
                    row.iter_mut().for_each(|o| *o += bias);
                }
                activation.apply_slice(out);
            },
        );
    }

    /// Backward pass: accumulates weight/bias gradients and optionally propagates the
    /// gradient to the layer input.
    ///
    /// The samples run in order on the calling thread. Each adds its filters' delta sums
    /// to the bias gradient, each a left fold over the pixels as `Iterator::sum` is,
    /// and rebuilds its columns, which the forward pass did not keep. The weight
    /// gradient accumulates transposed, `dWᵀ (k x m) += col · deltaᵀ`, in a per-thread
    /// copy of `weight_updates`, so that the GEMM packs each sample's `m x n` delta
    /// rather than its `k x n` columns. Every element still takes the same products in
    /// the same order from its carried value, so the bits are those of
    /// `dW += delta · colᵀ` on every engine. The data gradient `Wᵀ · delta` goes into
    /// the zeroed columns and back through [`col2im`].
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
        let engine = self.params.engine;
        // Taken for the pass and put back after it, beside the borrowed columns.
        let mut dwt_buf = DWT_BUFFER.take();
        let dwt = grow(&mut dwt_buf, k * m);
        transpose(&self.params.weight_updates, m, k, dwt);
        COL_BUFFER.with_borrow_mut(|buf| {
            let col = grow(buf, k * n);
            for b in 0..batch {
                let out = &self.buffers.output[b * m * n..(b + 1) * m * n];
                let delta = &mut self.buffers.delta[b * m * n..(b + 1) * m * n];
                self.activation.gradient_slice(out, delta);
                add_filter_sums(delta, n, &mut self.params.bias_updates);
                let sample = &input[b * in_size..(b + 1) * in_size];
                im2col(
                    sample,
                    self.in_c,
                    self.in_h,
                    self.in_w,
                    self.ksize,
                    self.stride,
                    self.pad,
                    col,
                );
                // weight_updates^T += col * delta^T, on the threads of the untransposed
                // product: banding this one over `k` would fork large layers of few filters.
                gemm_with_engine(
                    engine,
                    gemm_threads(engine, true, m, k, n),
                    GEMM_DEFAULT_KC,
                    false,
                    true,
                    k,
                    m,
                    n,
                    1.0,
                    col,
                    n,
                    delta,
                    n,
                    1.0,
                    dwt,
                    m,
                );
                if let Some(prev) = prev_delta.as_deref_mut() {
                    // col_delta = W^T * delta, then scatter back to image space. It
                    // reuses the columns, which the weight gradient above has finished
                    // with, zeroed first (scaling stale columns by beta = 0 would keep
                    // a NaN), so the GEMM adds to them with beta = 1 and no scaling
                    // pass.
                    let col_delta = &mut *col;
                    col_delta.fill(0.0);
                    gemm(
                        engine,
                        true,
                        false,
                        k,
                        n,
                        m,
                        1.0,
                        &self.params.weights,
                        k,
                        delta,
                        n,
                        1.0,
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
        });
        transpose(dwt, k, m, &mut self.params.weight_updates);
        DWT_BUFFER.set(dwt_buf);
    }

    /// Approximate FLOPs per sample (forward + backward ≈ 3x the forward GEMM).
    pub fn flops_per_sample(&self) -> u64 {
        let fwd = 2 * self.filters * self.in_c * self.ksize * self.ksize * self.out_h * self.out_w;
        (3 * fwd) as u64
    }
}

/// Filters whose delta sums [`add_filter_sums`] takes at once, one accumulator each.
const SUM_LANES: usize = 16;

/// Adds each filter's sum of its row of `n` deltas to the filter's entry of `sums`.
/// Each sum is a left fold from `-0.0` over the pixels in order, as
/// `Iterator::sum::<f32>` is, but the folds of up to [`SUM_LANES`] filters interleave,
/// pixel by pixel, so that no filter's adds wait on one another's latency.
fn add_filter_sums(delta: &[f32], n: usize, sums: &mut [f32]) {
    for (group, sums) in delta.chunks(SUM_LANES * n).zip(sums.chunks_mut(SUM_LANES)) {
        // A short last group repeats its last filter's row; those sums are dropped.
        let last = sums.len() - 1;
        let rows: [&[f32]; SUM_LANES] = std::array::from_fn(|f| &group[f.min(last) * n..][..n]);
        let mut acc = [-0.0f32; SUM_LANES];
        for p in 0..n {
            for (acc, row) in acc.iter_mut().zip(rows) {
                *acc += row[p];
            }
        }
        for (sum, acc) in sums.iter_mut().zip(acc) {
            *sum += acc;
        }
    }
}

/// Writes the `rows x cols` matrix `src` transposed into `dst`, value for value.
fn transpose(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    for (i, row) in src[..rows * cols].chunks_exact(cols).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            dst[j * rows + i] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{selected_gemm, GemmKind};
    use crate::layers::UpdateArgs;
    use crate::matrix::{gemm_reference, try_conv_out_dim};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_layer(batch: usize) -> ConvLayer {
        let mut layer = ConvLayer::new(5, 5, 1, 2, 3, 1, 1, Activation::Leaky, batch);
        layer.params.init_weights(&mut StdRng::seed_from_u64(7));
        layer
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
            l.params.views().iter().map(|p| p.data.len()).sum::<usize>(),
            2 * 9 + 2 + 2 + 2 + 2
        );
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // A single 1x1 filter with weight 1 and linear activation copies the input.
        let mut l = ConvLayer::new(4, 4, 1, 1, 1, 1, 0, Activation::Linear, 1);
        l.params.views_mut()[0].fill(1.0);
        let input: Vec<f32> = (0..16).map(|v| v as f32).collect();
        l.forward(&input, 1);
        assert_eq!(l.buffers.output, &input[..]);
    }

    #[test]
    fn known_convolution_value() {
        // One 2x2 filter of all ones over a 2x2 image equals the sum of the image.
        let mut l = ConvLayer::new(2, 2, 1, 1, 2, 1, 0, Activation::Linear, 1);
        let [weights, biases, ..] = l.params.views_mut();
        weights.fill(1.0);
        biases.fill(0.5);
        l.forward(&[1.0, 2.0, 3.0, 4.0], 1);
        assert_eq!(l.buffers.output, &[10.5]);
    }

    #[test]
    fn gradient_check_weights() {
        // Finite-difference check of dL/dw where L = sum(output) on a tiny layer.
        let mut layer = ConvLayer::new(4, 4, 1, 2, 3, 1, 0, Activation::Leaky, 1);
        layer.params.init_weights(&mut StdRng::seed_from_u64(3));
        let input: Vec<f32> = (0..16).map(|i| (i as f32) / 7.5 - 1.0).collect();

        // Analytic gradient: delta = dL/dy = 1 everywhere (L = sum of outputs), so the
        // accumulated weight_updates equal the gradient (note: Darknet stores the
        // *negative* gradient in delta, so pass +1 and compare signs accordingly).
        layer.forward(&input, 1);
        layer.buffers.delta.iter_mut().for_each(|d| *d = 1.0);
        layer.backward(&input, None, 1);
        let analytic = layer.params.weight_updates.clone();

        let eps = 1e-3f32;
        for wi in [0usize, 3, 7, 11, 17] {
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
                (numeric - analytic[wi]).abs() < 2e-2,
                "weight {wi}: numeric {numeric} vs analytic {}",
                analytic[wi]
            );
        }
    }

    #[test]
    fn gradient_check_input() {
        let mut layer = ConvLayer::new(4, 4, 1, 2, 3, 1, 1, Activation::Linear, 1);
        layer.params.init_weights(&mut StdRng::seed_from_u64(4));
        let input: Vec<f32> = (0..16).map(|i| (i as f32) * 0.1 - 0.8).collect();
        layer.forward(&input, 1);
        layer.buffers.delta.iter_mut().for_each(|d| *d = 1.0);
        let mut prev_delta = vec![0.0f32; 16];
        layer.backward(&input, Some(&mut prev_delta), 1);
        let eps = 1e-3f32;
        for xi in [0usize, 5, 10, 15] {
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
                (numeric - prev_delta[xi]).abs() < 2e-2,
                "input {xi}: numeric {numeric} vs analytic {}",
                prev_delta[xi]
            );
        }
    }

    #[test]
    fn update_moves_weights_toward_positive_delta() {
        let mut layer = small_layer(1);
        let before = layer.params.weights.clone();
        let input = vec![1.0f32; 25];
        layer.forward(&input, 1);
        layer.buffers.delta.iter_mut().for_each(|d| *d = 1.0);
        layer.backward(&input, None, 1);
        layer.params.update(&UpdateArgs {
            learning_rate: 0.1,
            momentum: 0.0,
            decay: 0.0,
            batch: 1,
        });
        assert_ne!(layer.params.weights, before);
    }

    #[test]
    fn batch_dimension_is_independent() {
        // Feeding the same sample twice in a batch gives identical per-sample outputs.
        let mut layer = small_layer(2);
        let sample: Vec<f32> = (0..25).map(|v| v as f32 * 0.05).collect();
        let mut batch_input = sample.clone();
        batch_input.extend_from_slice(&sample);
        layer.forward(&batch_input, 2);
        let outs = &layer.buffers.output;
        assert_eq!(&outs[..50], &outs[50..100]);
    }

    #[test]
    fn a_scratch_a_larger_layer_left_behind_changes_no_bit_of_a_smaller_one() {
        let engine = crate::GemmPolicy::Auto.select();
        // A larger layer (27 x 144 columns) with NaN weights and inputs leaves NaN
        // columns and a NaN column gradient in this thread's scratch.
        let mut large = ConvLayer::new(12, 12, 3, 8, 3, 1, 1, Activation::Leaky, 2);
        large.params.weights.fill(f32::NAN);
        large.params.engine = engine;
        let nan_input = vec![f32::NAN; 2 * large.inputs()];
        // The smaller layer (18 x 64 columns, 16 filters) fans a batch out: its
        // 18,432 multiply-adds per sample pass the forward's threshold.
        let (m, k, n) = (16, 18, 64);
        for batch in [1, 3] {
            large.forward(&nan_input, 2);
            large.buffers.delta.fill(1.0);
            let mut large_prev = vec![0.0; nan_input.len()];
            large.backward(&nan_input, Some(&mut large_prev), 2);

            let mut layer = ConvLayer::new(8, 8, 2, m, 3, 1, 1, Activation::Leaky, batch);
            layer.params.init_weights(&mut StdRng::seed_from_u64(11));
            layer.params.engine = engine;
            let in_size = layer.inputs();
            let mut input: Vec<f32> = (0..batch * in_size)
                .map(|i| (i * 7 % 23) as f32 / 11.0 - 1.0)
                .collect();
            // One infinite pixel per sample puts an Inf in its columns: a column
            // gradient not zeroed before its beta = 0 GEMM would keep 0 * Inf = NaN.
            for sample in input.chunks_exact_mut(in_size) {
                sample[37] = f32::INFINITY;
            }
            let delta: Vec<f32> = (0..batch * m * n)
                .map(|i| (i * 5 % 17) as f32 / 8.0 - 1.0)
                .collect();
            let mut oracle = layer.clone();
            layer.forward(&input, batch);
            layer.buffers.delta.copy_from_slice(&delta);
            let mut prev_delta = vec![0.0f32; input.len()];
            layer.backward(&input, Some(&mut prev_delta), batch);

            // The oracle: each sample through fresh columns and `gemm_reference`.
            let p = &mut oracle.params;
            let mut oracle_prev = vec![0.0f32; input.len()];
            for b in 0..batch {
                let mut col = vec![0.0f32; k * n];
                im2col(&input[b * in_size..][..in_size], 2, 8, 8, 3, 1, 1, &mut col);
                let out = &mut oracle.buffers.output[b * m * n..][..m * n];
                gemm_reference(
                    false, false, m, n, k, 1.0, &p.weights, k, &col, n, 0.0, out, n,
                );
                for (row, bias) in out.chunks_exact_mut(n).zip(&p.biases) {
                    row.iter_mut().for_each(|o| *o += bias);
                }
                Activation::Leaky.apply_slice(out);
                let mut d = delta[b * m * n..][..m * n].to_vec();
                Activation::Leaky.gradient_slice(out, &mut d);
                for (f, bias_update) in p.bias_updates.iter_mut().enumerate() {
                    *bias_update += d[f * n..(f + 1) * n].iter().sum::<f32>();
                }
                let dw = &mut p.weight_updates;
                gemm_reference(false, true, m, k, n, 1.0, &d, n, &col, n, 1.0, dw, k);
                let mut col_delta = vec![0.0f32; k * n];
                let w = &p.weights;
                gemm_reference(
                    true,
                    false,
                    k,
                    n,
                    m,
                    1.0,
                    w,
                    k,
                    &d,
                    n,
                    0.0,
                    &mut col_delta,
                    n,
                );
                let prev = &mut oracle_prev[b * in_size..][..in_size];
                col2im(&col_delta, 2, 8, 8, 3, 1, 1, prev);
            }
            // Which values are NaN must match the reference; their payloads may not.
            let bits = |v: &[f32]| {
                v.iter()
                    .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
                    .collect::<Vec<_>>()
            };
            let (got, want) = (&layer.buffers.output, &oracle.buffers.output);
            assert_eq!(bits(got), bits(want), "output, batch {batch}");
            let (got, want) = (&layer.params, &oracle.params);
            assert_eq!(
                bits(&got.weight_updates),
                bits(&want.weight_updates),
                "weight gradient, batch {batch}"
            );
            assert_eq!(
                bits(&got.bias_updates),
                bits(&want.bias_updates),
                "bias gradient, batch {batch}"
            );
            assert_eq!(
                bits(&prev_delta),
                bits(&oracle_prev),
                "prev_delta, batch {batch}"
            );
        }
    }

    /// The per-sample backward that the layer's replaced, kept as its oracle: per sample,
    /// the activation gradient, one `sum` per filter, fresh columns, the weight gradient
    /// `dW += delta · colᵀ` through the transposed-`B` GEMM, and the data gradient into
    /// zeroed columns with beta = 0, scattered back by `col2im`.
    fn backward_oracle(layer: &mut ConvLayer, input: &[f32], prev: &mut [f32], batch: usize) {
        let (c, h, w) = (layer.in_c, layer.in_h, layer.in_w);
        let (ksize, stride, pad) = (layer.ksize, layer.stride, layer.pad);
        let (m, k, n) = (layer.filters, c * ksize * ksize, layer.out_h * layer.out_w);
        let in_size = layer.inputs();
        let p = &mut layer.params;
        for b in 0..batch {
            let out = &layer.buffers.output[b * m * n..][..m * n];
            let delta = &mut layer.buffers.delta[b * m * n..][..m * n];
            layer.activation.gradient_slice(out, delta);
            for (f, bias_update) in p.bias_updates.iter_mut().enumerate() {
                *bias_update += delta[f * n..(f + 1) * n].iter().sum::<f32>();
            }
            let mut col = vec![0.0f32; k * n];
            im2col(
                &input[b * in_size..][..in_size],
                c,
                h,
                w,
                ksize,
                stride,
                pad,
                &mut col,
            );
            let dw = &mut p.weight_updates;
            gemm(
                p.engine, false, true, m, k, n, 1.0, delta, n, &col, n, 1.0, dw, k,
            );
            let mut col_delta = vec![0.0f32; k * n];
            let wt = &p.weights;
            gemm(
                p.engine,
                true,
                false,
                k,
                n,
                m,
                1.0,
                wt,
                k,
                delta,
                n,
                0.0,
                &mut col_delta,
                n,
            );
            let prev = &mut prev[b * in_size..][..in_size];
            col2im(&col_delta, c, h, w, ksize, stride, pad, prev);
        }
    }

    /// Values in `[-2, 2)`, with about one in 64 replaced by `-0.0`, NaN or an infinity.
    fn with_specials(rng: &mut StdRng, len: usize) -> Vec<f32> {
        const SPECIALS: [f32; 6] = [-0.0, -0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        (0..len)
            .map(|_| match rng.gen_range(0..64usize) {
                0 => SPECIALS[rng.gen_range(0..SPECIALS.len())],
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect()
    }

    /// Bit patterns, with every NaN alike: which values are NaN must match, but their
    /// payloads may not, as a product's operands may come in either order.
    fn nan_alike_bits(values: &[f32]) -> Vec<u32> {
        values
            .iter()
            .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn backward_matches_the_per_sample_oracle(
            filters in 1usize..=20,
            channels in 1usize..=4,
            height in 1usize..=12,
            width in 1usize..=12,
            ksize in 1usize..=5,
            stride in 1usize..=3,
            pad in 0usize..=3,
            batch in 1usize..=5,
            seed in any::<u64>(),
        ) {
            prop_assume!(try_conv_out_dim(height, ksize, stride, pad).is_some());
            prop_assume!(try_conv_out_dim(width, ksize, stride, pad).is_some());
            let mut rng = StdRng::seed_from_u64(seed);
            for engine in [GemmKind::Scalar, selected_gemm()] {
                let mut layer = ConvLayer::new(
                    height, width, channels, filters, ksize, stride, pad, Activation::Leaky, batch,
                );
                layer.params.init_weights(&mut rng);
                layer.params.engine = engine;
                // Momentum carries the accumulators from step to step.
                let p = &mut layer.params;
                p.weight_updates = with_specials(&mut rng, p.weight_updates.len());
                p.bias_updates = with_specials(&mut rng, p.bias_updates.len());
                let input = with_specials(&mut rng, batch * layer.inputs());
                layer.forward(&input, batch);
                let outputs = batch * layer.outputs();
                layer.buffers.delta[..outputs].copy_from_slice(&with_specials(&mut rng, outputs));
                let prev_start = with_specials(&mut rng, input.len());
                let mut oracle = layer.clone();
                let mut oracle_prev = prev_start.clone();
                backward_oracle(&mut oracle, &input, &mut oracle_prev, batch);
                let mut prev = prev_start;
                layer.backward(&input, Some(&mut prev), batch);
                let (got, want) = (&layer.params, &oracle.params);
                let geometry = format!(
                    "{} {filters}x{channels}x{height}x{width} k{ksize} s{stride} p{pad} b{batch}",
                    engine.name()
                );
                prop_assert_eq!(
                    nan_alike_bits(&got.weight_updates),
                    nan_alike_bits(&want.weight_updates),
                    "weight gradient, {}",
                    geometry
                );
                prop_assert_eq!(
                    nan_alike_bits(&got.bias_updates),
                    nan_alike_bits(&want.bias_updates),
                    "bias gradient, {}",
                    geometry
                );
                prop_assert_eq!(
                    nan_alike_bits(&prev),
                    nan_alike_bits(&oracle_prev),
                    "prev_delta, {}",
                    geometry
                );
            }
        }
    }

    #[test]
    fn flops_are_positive_and_scale_with_filters() {
        let small = small_layer(1).flops_per_sample();
        let big = ConvLayer::new(5, 5, 1, 8, 3, 1, 1, Activation::Leaky, 1).flops_per_sample();
        assert!(small > 0);
        assert_eq!(big, small * 4);
    }

    #[test]
    #[should_panic(expected = "expects 5 tensors")]
    fn set_params_validates_count() {
        crate::Layer::Convolutional(small_layer(1)).set_params(&[vec![0.0]]);
    }
}
