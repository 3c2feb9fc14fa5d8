//! Pins Darknet's SGD update, bit for bit, to a scalar oracle written here. With
//! `B = max(batch, 1)`, one update of a trainable layer is, in this order:
//!
//! 1. `b += (lr / B) · Δb`
//! 2. `Δb *= momentum`
//! 3. `Δw += (−decay · B) · w`
//! 4. `w += (lr / B) · Δw`
//! 5. `Δw *= momentum`
//!
//! The gradient accumulators are private, so the oracle keeps its own copies and the
//! test observes them through the weights and biases of later rounds. The engine is
//! pinned to the `auto` policy's, whose AXPY, SCAL and GEMM are bit-identical to the
//! scalar loops, so the test holds whatever `PLINIUS_GEMM` selects.

use plinius_darknet::layers::{ConnectedLayer, ConvLayer};
use plinius_darknet::matrix::gemm_reference;
use plinius_darknet::{Activation, GemmPolicy, Layer, UpdateArgs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The oracle's copy of a layer's weights, biases and their accumulators.
struct Oracle {
    w: Vec<f32>,
    b: Vec<f32>,
    dw: Vec<f32>,
    db: Vec<f32>,
}

impl Oracle {
    /// Starts from the layer's current weights and biases with zero accumulators.
    fn of(layer: &Layer) -> Self {
        let params = layer.params();
        let (w, b) = (params[0].data.to_vec(), params[1].data.to_vec());
        Oracle {
            dw: vec![0.0; w.len()],
            db: vec![0.0; b.len()],
            w,
            b,
        }
    }

    /// The five steps of the update rule, each a plain scalar loop.
    fn update(&mut self, args: &UpdateArgs) {
        let batch = args.batch.max(1) as f32;
        for (b, db) in self.b.iter_mut().zip(&self.db) {
            *b += (args.learning_rate / batch) * db;
        }
        for db in &mut self.db {
            *db *= args.momentum;
        }
        for (dw, w) in self.dw.iter_mut().zip(&self.w) {
            *dw += (-args.decay * batch) * w;
        }
        for (w, dw) in self.w.iter_mut().zip(&self.dw) {
            *w += (args.learning_rate / batch) * dw;
        }
        for dw in &mut self.dw {
            *dw *= args.momentum;
        }
    }

    /// Asserts the layer's five tensors equal the oracle's bit for bit; the three
    /// statistics tensors keep their neutral values.
    fn assert_matches(&self, layer: &Layer, round: usize) {
        let params = layer.params();
        let neutral = |value: f32| vec![value; self.b.len()];
        let expected = [
            self.w.clone(),
            self.b.clone(),
            neutral(1.0),
            neutral(0.0),
            neutral(1.0),
        ];
        for (view, want) in params.iter().zip(&expected) {
            assert_eq!(
                bits(view.data),
                bits(want),
                "{} after round {round}",
                view.name
            );
        }
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn uniform(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// A trainable layer with drawn weights, on the `auto` policy's engine.
fn pinned(mut layer: Layer, seed: u64) -> Layer {
    layer.init_weights(&mut StdRng::seed_from_u64(seed));
    layer.set_gemm_engine(GemmPolicy::Auto.select());
    layer
}

#[test]
fn connected_update_follows_the_oracle_through_backward_rounds() {
    let (inputs, outputs) = (7, 5);
    let mut layer = pinned(
        Layer::Connected(ConnectedLayer::new(inputs, outputs, Activation::Linear, 1)),
        11,
    );
    let mut oracle = Oracle::of(&layer);
    let args = UpdateArgs {
        learning_rate: 0.1,
        momentum: 0.9,
        decay: 0.0005,
        batch: 1,
    };
    let mut rng = StdRng::seed_from_u64(12);
    for round in 0..3 {
        let x = uniform(&mut rng, inputs);
        let d = uniform(&mut rng, outputs);
        layer.forward(&x, 1);
        layer.delta_mut().copy_from_slice(&d);
        layer.backward(&x, None, 1);
        // A linear activation leaves the delta as set, so `Δb += d` and
        // `Δw += dᵀ · x`, which the layer's GEMM computes as the reference does.
        for (db, d) in oracle.db.iter_mut().zip(&d) {
            *db += d;
        }
        gemm_reference(
            true,
            false,
            outputs,
            inputs,
            1,
            1.0,
            &d,
            outputs,
            &x,
            inputs,
            1.0,
            &mut oracle.dw,
            inputs,
        );
        layer.update(&args);
        oracle.update(&args);
        oracle.assert_matches(&layer, round);
    }
}

#[test]
fn convolutional_update_follows_the_oracle_through_decay_and_momentum() {
    let mut layer = pinned(
        Layer::Convolutional(ConvLayer::new(6, 6, 2, 3, 3, 1, 1, Activation::Leaky, 1)),
        21,
    );
    let mut oracle = Oracle::of(&layer);
    let args = UpdateArgs {
        learning_rate: 0.05,
        momentum: 0.9,
        decay: 0.01,
        batch: 4,
    };
    for round in 0..3 {
        layer.update(&args);
        oracle.update(&args);
        oracle.assert_matches(&layer, round);
    }
}
