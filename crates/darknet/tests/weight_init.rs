//! Pins a fresh model's initial weights, bit for bit, to an in-test oracle that draws
//! them the way the layer constructors used to: layer by layer, every weight
//! `rng.gen_range(-1.0..1.0) * sqrt(2 / fan_in)` in index order, with zero biases and
//! rolling means and unit scales and rolling variances. The layers are now built with
//! zero weights and one `Network::init_weights` pass draws them, so a restore can skip
//! the draw; `build_network` must still produce exactly the old model.

use plinius_darknet::{
    build_network, build_zeroed_network, mnist_cnn_config, sized_model_config, Layer, Network,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every trainable layer's five tensors as the old constructors initialised them,
/// with the geometry taken from the layer stack and the network input, not from the
/// tensors under test.
fn oracle(net: &Network, seed: u64) -> Vec<[Vec<f32>; 5]> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut channels = net.config().channels;
    let mut inputs = net.config().inputs();
    let mut layers = Vec::new();
    for layer in net.layers() {
        let geometry = match layer {
            Layer::Convolutional(l) => {
                let fan_in = channels * l.ksize() * l.ksize();
                Some((fan_in, l.filters() * fan_in, l.filters()))
            }
            Layer::Connected(l) => Some((inputs, inputs * l.outputs(), l.outputs())),
            Layer::MaxPool(_) | Layer::Softmax(_) => None,
        };
        if let Some((fan_in, count, outputs)) = geometry {
            let scale = (2.0 / fan_in as f32).sqrt();
            let weights = (0..count)
                .map(|_| rng.gen_range(-1.0f32..1.0) * scale)
                .collect();
            layers.push([
                weights,
                vec![0.0; outputs],
                vec![1.0; outputs],
                vec![0.0; outputs],
                vec![1.0; outputs],
            ]);
        }
        channels = layer.out_shape().0;
        inputs = layer.outputs();
    }
    layers
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Asserts that `net`'s parameters equal the oracle's draw from `seed`, bit for bit.
fn assert_matches_oracle(net: &Network, seed: u64, what: &str) {
    let expected = oracle(net, seed);
    let trainable: Vec<&Layer> = net.layers().iter().filter(|l| l.is_trainable()).collect();
    assert_eq!(trainable.len(), expected.len(), "{what}: trainable layers");
    for (i, (layer, tensors)) in trainable.iter().zip(&expected).enumerate() {
        let views = layer.param_views().expect("trainable");
        for (view, tensor) in views.iter().zip(tensors) {
            assert!(
                bits(view.data) == bits(tensor),
                "{what}: layer {i} tensor {} differs from the oracle",
                view.name
            );
        }
    }
}

#[test]
fn build_network_draws_the_old_constructors_weights_bit_for_bit() {
    for (what, config) in [
        ("mnist_cnn_config(2, 4, 8)", mnist_cnn_config(2, 4, 8)),
        ("sized_model_config(4, 8)", sized_model_config(4, 8)),
    ] {
        for seed in [1u64, 9001] {
            let net = build_network(&config, &mut StdRng::seed_from_u64(seed)).unwrap();
            assert_matches_oracle(&net, seed, what);
        }
    }
}

#[test]
fn a_zeroed_network_differs_only_in_its_undrawn_weights() {
    let config = mnist_cnn_config(2, 4, 8);
    let mut net = build_zeroed_network(&config).unwrap();
    for layer in net.layers().iter().filter(|l| l.is_trainable()) {
        let weights = layer.param_views().expect("trainable")[0].data;
        assert!(weights.iter().all(|&w| w.to_bits() == 0));
    }
    net.init_weights(&mut StdRng::seed_from_u64(5));
    assert_matches_oracle(&net, 5, "zeroed + init_weights");
}
