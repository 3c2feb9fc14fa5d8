//! Fully connected (dense) layer.
//!
//! Both passes walk the weight matrix `W` in blocks of rows (output units) small
//! enough to stay in L2 while a block is worked on, as Goto & van de Geijn (2008)
//! block GEMM for cache. The forward makes one GEMM per block, `out[:, J] = x · W[J]ᵀ`,
//! so the transposed pack reads each block's rows whole. The training backward takes,
//! per block, the data gradient `prev_delta += delta[:, J] · W[J]`, the weight gradient
//! `ΔW[J] += delta[:, J]ᵀ · x` and the SGD step of `W[J]` and `ΔW[J]`, so it reads `W`
//! and `ΔW` from memory once each instead of once per pass. Each block's products are
//! small enough to stay on the calling thread.
//!
//! The walk ends on the bits of the whole-matrix passes on every engine. A GEMM over a
//! range of `k` continues from `C` exactly as the kernel's own k-blocks do, so every
//! `prev_delta` element still adds its terms in ascending output order, and every
//! `ΔW` and output element sees the same terms in the same order. A block's data
//! gradient reads `W[J]` before its update writes it, and no other layer reads this
//! layer's parameters during the backward. Blocks are whole multiples of 16 rows, so
//! every SGD call but the last covers whole vector lanes and the `fma` engines fuse
//! exactly the elements a whole-tensor call fuses.

use crate::activation::Activation;
use crate::layers::layer_gemm;
use crate::layers::params::{Buffers, Params};
use crate::layers::UpdateArgs;
use std::ops::Range;

/// Bytes of weights one block of rows holds at most (unless a row multiple alone is
/// larger): a block of `W` and its block of `ΔW` stay in L2 beside the batch's inputs
/// and data gradient.
const BLOCK_BYTES: usize = 64 * 1024;

/// Every block but the last is a whole multiple of this many rows: the widest SGD
/// vector (16 lanes), so each block's SGD call covers whole lanes at any row length.
const BLOCK_ROW_MULTIPLE: usize = 16;

/// Rows per block for rows of `inputs` weights: the largest multiple of
/// [`BLOCK_ROW_MULTIPLE`] rows within [`BLOCK_BYTES`], and at least one multiple.
/// 32 rows at 392 inputs; a layer of at most 16 outputs is one block at any width.
fn block_rows(inputs: usize) -> usize {
    let rows = BLOCK_BYTES / (inputs * std::mem::size_of::<f32>());
    (rows / BLOCK_ROW_MULTIPLE * BLOCK_ROW_MULTIPLE).max(BLOCK_ROW_MULTIPLE)
}

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
        let (inputs, outputs) = (self.inputs, self.outputs);
        let blocks = self.blocks();
        let out = &mut self.buffers.output[..batch * outputs];
        out.iter_mut().for_each(|o| *o = 0.0);
        for rows in blocks {
            // output[:, J] (batch x |J|) = input (batch x inputs) * W[J]^T (inputs x |J|)
            layer_gemm(
                self.params.engine,
                false,
                true,
                batch,
                rows.len(),
                inputs,
                1.0,
                input,
                inputs,
                &self.params.weights[rows.start * inputs..rows.end * inputs],
                inputs,
                0.0,
                &mut out[rows.start..],
                outputs,
            );
        }
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
        self.backward_blocks(input, prev_delta, batch, None);
    }

    /// The training backward: [`ConnectedLayer::backward`] with the SGD update of
    /// [`crate::Layer::update`] taken block by block, right after each block's
    /// gradients, and the biases' after the last block. Ends on the bits of
    /// `backward` followed by `update`.
    pub(super) fn backward_and_update(
        &mut self,
        input: &[f32],
        prev_delta: Option<&mut [f32]>,
        batch: usize,
        args: &UpdateArgs,
    ) {
        self.backward_blocks(input, prev_delta, batch, Some(args));
    }

    /// The block walk of both backward passes; `update` switches the SGD step on.
    fn backward_blocks(
        &mut self,
        input: &[f32],
        mut prev_delta: Option<&mut [f32]>,
        batch: usize,
        update: Option<&UpdateArgs>,
    ) {
        assert!(
            input.len() >= batch * self.inputs,
            "connected input too small"
        );
        let (inputs, outputs) = (self.inputs, self.outputs);
        let blocks = self.blocks();
        let params = &mut self.params;
        let out = &self.buffers.output[..batch * outputs];
        let delta = &mut self.buffers.delta[..batch * outputs];
        self.activation.gradient_slice(out, delta);
        for row in delta.chunks_exact(outputs) {
            for (bu, d) in params.bias_updates.iter_mut().zip(row) {
                *bu += d;
            }
        }
        for rows in blocks {
            let weights = rows.start * inputs..rows.end * inputs;
            // delta[:, J] starts at column J.start of the batch x outputs delta.
            let delta = &delta[rows.start..];
            if let Some(prev) = prev_delta.as_deref_mut() {
                // prev_delta (batch x inputs) += delta[:, J] (batch x |J|) * W[J] (|J| x inputs)
                layer_gemm(
                    params.engine,
                    false,
                    false,
                    batch,
                    inputs,
                    rows.len(),
                    1.0,
                    delta,
                    outputs,
                    &params.weights[weights.clone()],
                    inputs,
                    1.0,
                    prev,
                    inputs,
                );
            }
            // ΔW[J] (|J| x inputs) += delta[:, J]^T (|J| x batch) * input (batch x inputs)
            layer_gemm(
                params.engine,
                true,
                false,
                rows.len(),
                inputs,
                batch,
                1.0,
                delta,
                outputs,
                input,
                inputs,
                1.0,
                &mut params.weight_updates[weights.clone()],
                inputs,
            );
            if let Some(args) = update {
                params.update_weights(weights, args);
            }
        }
        if let Some(args) = update {
            params.update_biases(args);
        }
    }

    /// The blocks of rows both passes walk `W` in, in ascending order.
    fn blocks(&self) -> impl Iterator<Item = Range<usize>> {
        let (outputs, rows) = (self.outputs, block_rows(self.inputs));
        (0..outputs)
            .step_by(rows)
            .map(move |start| start..outputs.min(start + rows))
    }

    /// Approximate FLOPs per sample (forward + backward).
    pub fn flops_per_sample(&self) -> u64 {
        (6 * self.inputs * self.outputs) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{
        avx2_available, avx512_available, fma_available, selected_gemm, GemmKind, GemmPolicy,
    };
    use crate::layers::Layer;
    use crate::matrix::{gemm_reference, gemm_with_engine, GEMM_DEFAULT_KC};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::Instant;

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

    /// `C = op(A) · op(B) + beta · C` with `alpha = 1`, as
    /// `(ta, tb, m, n, k, a, lda, b, ldb, beta, c, ldc)`.
    type Gemm<'g> = &'g dyn Fn(
        bool,
        bool,
        usize,
        usize,
        usize,
        &[f32],
        usize,
        &[f32],
        usize,
        f32,
        &mut [f32],
        usize,
    );

    /// The layer's passes before the block walk, each one call over the whole matrix:
    /// the forward into the layer's output, the delta `d` through the activation, the
    /// bias gradient, the weight gradient and the data gradient into `prev`. The
    /// caller takes the update.
    fn whole_matrix_passes(
        layer: &mut ConnectedLayer,
        gemm: Gemm<'_>,
        x: &[f32],
        d: &[f32],
        prev: &mut [f32],
        batch: usize,
    ) {
        let (inputs, outputs) = (layer.inputs, layer.outputs);
        let (p, out) = (
            &mut layer.params,
            &mut layer.buffers.output[..batch * outputs],
        );
        out.fill(0.0);
        gemm(
            false, true, batch, outputs, inputs, x, inputs, &p.weights, inputs, 0.0, out, outputs,
        );
        for row in out.chunks_exact_mut(outputs) {
            for (o, bias) in row.iter_mut().zip(&p.biases) {
                *o += bias;
            }
            layer.activation.apply_slice(row);
        }
        let delta = &mut layer.buffers.delta[..batch * outputs];
        delta.copy_from_slice(d);
        layer.activation.gradient_slice(out, delta);
        for row in delta.chunks_exact(outputs) {
            for (bu, d) in p.bias_updates.iter_mut().zip(row) {
                *bu += d;
            }
        }
        gemm(
            true,
            false,
            outputs,
            inputs,
            batch,
            delta,
            outputs,
            x,
            inputs,
            1.0,
            &mut p.weight_updates,
            inputs,
        );
        gemm(
            false, false, batch, inputs, outputs, delta, outputs, &p.weights, inputs, 1.0, prev,
            inputs,
        );
    }

    /// The five steps of Darknet's update rule, each a plain scalar loop, as
    /// `tests/update_rule.rs` writes them.
    fn five_steps(p: &mut Params, args: &UpdateArgs) {
        let batch = args.batch.max(1) as f32;
        for (b, db) in p.biases.iter_mut().zip(&p.bias_updates) {
            *b += (args.learning_rate / batch) * db;
        }
        for db in &mut p.bias_updates {
            *db *= args.momentum;
        }
        for (dw, w) in p.weight_updates.iter_mut().zip(&p.weights) {
            *dw += (-args.decay * batch) * w;
        }
        for (w, dw) in p.weights.iter_mut().zip(&p.weight_updates) {
            *w += (args.learning_rate / batch) * dw;
        }
        for dw in &mut p.weight_updates {
            *dw *= args.momentum;
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn uniform(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    /// A linear layer of `inputs` inputs spanning three blocks and a ragged fourth,
    /// with drawn weights and biases, pinned to `engine`.
    fn four_block_layer(inputs: usize, batch: usize, engine: GemmKind) -> Layer {
        let outputs = 3 * block_rows(inputs) + 5;
        let mut layer = ConnectedLayer::new(inputs, outputs, Activation::Linear, batch);
        layer
            .params
            .init_weights(&mut StdRng::seed_from_u64(inputs as u64));
        layer.params.biases = uniform(&mut StdRng::seed_from_u64(3), outputs);
        let mut layer = Layer::Connected(layer);
        layer.set_gemm_engine(engine);
        layer
    }

    /// The update's hyper-parameters; each test sets the batch it trains on.
    const ARGS: UpdateArgs = UpdateArgs {
        learning_rate: 0.1,
        momentum: 0.9,
        decay: 0.0005,
        batch: 0,
    };

    #[test]
    fn blocks_are_whole_row_multiples_within_the_byte_budget() {
        assert_eq!(block_rows(392), 32);
        assert_eq!(block_rows(784), 16);
        assert_eq!(block_rows(1), BLOCK_BYTES / 4);
        assert_eq!(block_rows(1 << 20), BLOCK_ROW_MULTIPLE);
        let layer = ConnectedLayer::new(392, 101, Activation::Linear, 1);
        let blocks: Vec<_> = layer.blocks().collect();
        assert_eq!(blocks, [0..32, 32..64, 64..96, 96..101]);
        // The 784→10 layer of the small CNNs is one block.
        let small = ConnectedLayer::new(784, 10, Activation::Linear, 1);
        assert!(small.blocks().eq(std::iter::once(0..10)));
    }

    /// On the `auto` engine the block walk follows the whole-matrix passes of the
    /// reference GEMM and the five-step update rule, bit for bit: the forward output,
    /// the weights, the biases and the data gradient, through three rounds of forward,
    /// delta and training backward.
    #[test]
    fn block_walk_follows_the_reference_passes_and_update_rule() {
        let reference: Gemm<'_> = &|ta, tb, m, n, k, a, lda, b, ldb, beta, c, ldc| {
            gemm_reference(ta, tb, m, n, k, 1.0, a, lda, b, ldb, beta, c, ldc)
        };
        for inputs in [392, 391] {
            for batch in [3, 8] {
                let mut layer = four_block_layer(inputs, batch, GemmPolicy::Auto.select());
                let Layer::Connected(mut oracle) = layer.clone() else {
                    unreachable!("a connected layer")
                };
                let args = UpdateArgs { batch, ..ARGS };
                let mut rng = StdRng::seed_from_u64(batch as u64);
                for round in 0..3 {
                    let x = uniform(&mut rng, batch * inputs);
                    let d = uniform(&mut rng, batch * layer.outputs());
                    let mut prev = uniform(&mut rng, batch * inputs);
                    let mut prev_oracle = prev.clone();
                    layer.forward(&x, batch);
                    let out = layer.output().to_vec();
                    layer.delta_mut().copy_from_slice(&d);
                    layer.backward_and_update(&x, Some(&mut prev), batch, &args);
                    whole_matrix_passes(&mut oracle, reference, &x, &d, &mut prev_oracle, batch);
                    five_steps(&mut oracle.params, &args);
                    let what = format!("{inputs} inputs, batch {batch}, round {round}");
                    assert_eq!(bits(&out), bits(&oracle.buffers.output), "output, {what}");
                    assert_eq!(bits(&prev), bits(&prev_oracle), "prev_delta, {what}");
                    let (got, want) = (layer.trainable().unwrap(), &oracle.params);
                    assert_eq!(bits(&got.weights), bits(&want.weights), "W, {what}");
                    assert_eq!(bits(&got.biases), bits(&want.biases), "b, {what}");
                }
            }
        }
    }

    /// On every engine the host builds, `fma` included, the training backward ends
    /// where `backward` followed by `update` does, bit for bit: every tensor, both
    /// accumulators and the data gradient.
    #[test]
    fn training_backward_matches_backward_then_update_on_every_engine() {
        let engines = [
            (GemmKind::Scalar, true),
            (GemmKind::Avx2, avx2_available()),
            (GemmKind::Avx2Fma, fma_available()),
            (GemmKind::Avx512, avx512_available()),
            (GemmKind::Avx512Fma, avx512_available()),
        ];
        for (engine, built) in engines {
            if !built {
                eprintln!("skipping {engine}: the CPU does not report it");
                continue;
            }
            for inputs in [392, 391] {
                for batch in [3, 8] {
                    let mut walk = four_block_layer(inputs, batch, engine);
                    let mut twin = walk.clone();
                    let args = UpdateArgs { batch, ..ARGS };
                    let mut rng = StdRng::seed_from_u64(batch as u64);
                    for round in 0..3 {
                        let x = uniform(&mut rng, batch * inputs);
                        let d = uniform(&mut rng, batch * walk.outputs());
                        let mut prev = uniform(&mut rng, batch * inputs);
                        let mut prev_twin = prev.clone();
                        for layer in [&mut walk, &mut twin] {
                            layer.forward(&x, batch);
                            layer.delta_mut().copy_from_slice(&d);
                        }
                        walk.backward_and_update(&x, Some(&mut prev), batch, &args);
                        twin.backward(&x, Some(&mut prev_twin), batch);
                        twin.update(&args);
                        let what =
                            format!("{engine}, {inputs} inputs, batch {batch}, round {round}");
                        assert_eq!(bits(&prev), bits(&prev_twin), "prev_delta, {what}");
                        let (got, want) = (walk.trainable().unwrap(), twin.trainable().unwrap());
                        for (name, got, want) in [
                            ("W", &got.weights, &want.weights),
                            ("ΔW", &got.weight_updates, &want.weight_updates),
                            ("b", &got.biases, &want.biases),
                            ("Δb", &got.bias_updates, &want.bias_updates),
                        ] {
                            assert_eq!(bits(got), bits(want), "{name}, {what}");
                        }
                    }
                }
            }
        }
    }

    /// Writes every byte of `sweep`, evicting the caches as the workload's persist and
    /// serving do between training steps.
    fn evict(sweep: &mut [u8]) {
        sweep.iter_mut().for_each(|b| *b = b.wrapping_add(1));
    }

    /// The block walk must pay on the `persist-recover` benchmark's 4 MB FC layer
    /// (2674x392, batch 8) as a training step meets it, after the persist and the
    /// serving have evicted it: on the dispatched engine, one thread, best of 15
    /// interleaved rounds with a 256 MiB sweep (past the last-level cache) before each
    /// run, the forward and training backward run at least 1.15x as fast as the
    /// whole-matrix passes they replaced (the forward GEMM, the two gradient GEMMs on
    /// one thread, then `Layer::update`), kept here as the oracle. Where the engine
    /// rounds each `mul` and `add` apart, both sides must also end on the same bits.
    ///
    /// 43 release runs read 1.19-1.55x (median 1.30x) on a 2-vCPU 2.1 GHz Xeon host
    /// (avx512 engine): the walk cuts the forward from about 1.4 to 0.9 ms and the
    /// update from 0.6 to 0.2 ms, while both gradients stay bound by their first
    /// read of `W` and `ΔW`, at about 0.7 ms each on either side.
    #[test]
    #[ignore = "wall-clock throughput gate; run with --release (see CI release job)"]
    fn block_walk_beats_the_whole_matrix_passes() {
        let engine = selected_gemm();
        let (inputs, outputs, batch) = (392, 2674, 8);
        let mut walk = ConnectedLayer::new(inputs, outputs, Activation::Linear, batch);
        walk.params.init_weights(&mut StdRng::seed_from_u64(1));
        walk.params.engine = engine;
        let mut whole = walk.clone();
        let one_thread: Gemm<'_> = &|ta, tb, m, n, k, a, lda, b, ldb, beta, c, ldc| {
            gemm_with_engine(
                engine,
                1,
                GEMM_DEFAULT_KC,
                ta,
                tb,
                m,
                n,
                k,
                1.0,
                a,
                lda,
                b,
                ldb,
                beta,
                c,
                ldc,
            )
        };
        let mut rng = StdRng::seed_from_u64(2);
        let (x, d) = (
            uniform(&mut rng, batch * inputs),
            uniform(&mut rng, batch * outputs),
        );
        let (mut prev, mut prev_whole) = (vec![0.0; batch * inputs], vec![0.0; batch * inputs]);
        let args = UpdateArgs { batch, ..ARGS };
        let mut sweep = vec![0u8; 256 << 20];
        let (mut walked, mut passes) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..15 {
            evict(&mut sweep);
            let start = Instant::now();
            walk.forward(&x, batch);
            walk.buffers.delta.copy_from_slice(&d);
            walk.backward_and_update(&x, Some(&mut prev), batch, &args);
            walked = walked.min(start.elapsed().as_secs_f64());
            evict(&mut sweep);
            let start = Instant::now();
            whole_matrix_passes(&mut whole, one_thread, &x, &d, &mut prev_whole, batch);
            whole.params.update(&args);
            passes = passes.min(start.elapsed().as_secs_f64());
        }
        let ratio = passes / walked;
        eprintln!(
            "fc {outputs}x{inputs} batch {batch} 1t {}: whole-matrix passes {:.3} ms, \
             block walk {:.3} ms ({ratio:.2}x)",
            engine.name(),
            passes * 1e3,
            walked * 1e3
        );
        if !matches!(engine, GemmKind::Avx2Fma | GemmKind::Avx512Fma) {
            assert_eq!(
                bits(&walk.buffers.output),
                bits(&whole.buffers.output),
                "output"
            );
            assert_eq!(bits(&prev), bits(&prev_whole), "prev_delta");
            assert_eq!(bits(&walk.params.weights), bits(&whole.params.weights), "W");
            assert_eq!(bits(&walk.params.biases), bits(&whole.params.biases), "b");
        }
        assert!(
            ratio >= 1.15,
            "block walk only {ratio:.2}x the whole-matrix passes (floor 1.15x)"
        );
    }
}
