//! The network container: an ordered stack of layers plus the training loop state
//! (iteration counter, SGD hyper-parameters), mirroring Darknet's `network` struct.

use crate::data::Dataset;
use crate::dispatch::{GemmKind, GemmPolicy};
use crate::layers::{Layer, UpdateArgs};
use crate::DarknetError;
use rand::Rng;
use std::fmt;

/// Training hyper-parameters and the input geometry, i.e. the `[net]` section of a
/// Darknet configuration file.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Input image height.
    pub height: usize,
    /// Input image width.
    pub width: usize,
    /// Input channels.
    pub channels: usize,
    /// Batch size used for training (128 in the paper unless stated otherwise).
    pub batch: usize,
    /// SGD learning rate (0.1 in the paper).
    pub learning_rate: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Weight decay.
    pub decay: f32,
    /// Maximum number of training iterations (`MAX_ITER` of Algorithm 2).
    pub max_iterations: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            height: 28,
            width: 28,
            channels: 1,
            batch: 128,
            learning_rate: 0.1,
            momentum: 0.9,
            decay: 0.0001,
            max_iterations: 500,
        }
    }
}

impl NetworkConfig {
    /// Number of input values per sample.
    pub fn inputs(&self) -> usize {
        self.height * self.width * self.channels
    }
}

/// A feed-forward neural network (the enclave model of Algorithm 2).
#[derive(Debug, Clone)]
pub struct Network {
    config: NetworkConfig,
    layers: Vec<Layer>,
    /// Number of training iterations (batches) seen so far. This is the value Plinius
    /// persists alongside the mirrored parameters so training can resume where it
    /// stopped.
    iteration: u64,
    /// Loss of the most recent training batch.
    last_loss: f32,
    /// Resolved GEMM engine every layer's kernels run on. Layers capture the engine at
    /// construction from the `PLINIUS_GEMM` policy; [`Network::set_gemm_policy`]
    /// re-resolves and re-pins it across the whole stack.
    gemm: GemmKind,
}

impl Network {
    /// Creates a network from a configuration and an already-built layer stack.
    ///
    /// # Errors
    ///
    /// Returns [`DarknetError::EmptyNetwork`] if `layers` is empty or
    /// [`DarknetError::ShapeMismatch`] if consecutive layer shapes do not line up.
    pub fn new(config: NetworkConfig, layers: Vec<Layer>) -> Result<Self, DarknetError> {
        if layers.is_empty() {
            return Err(DarknetError::EmptyNetwork);
        }
        // Validate the chain of per-sample sizes.
        let mut current = config.inputs();
        for (i, layer) in layers.iter().enumerate() {
            let expected = match layer {
                Layer::Convolutional(l) => l.inputs(),
                Layer::MaxPool(l) => l.inputs(),
                Layer::Connected(l) => l.inputs(),
                Layer::Softmax(l) => l.outputs(),
            };
            if expected != current {
                return Err(DarknetError::ShapeMismatch {
                    layer: i,
                    expected,
                    actual: current,
                });
            }
            current = layer.outputs();
        }
        Ok(Network {
            config,
            layers,
            iteration: 0,
            last_loss: f32::NAN,
            gemm: crate::dispatch::selected_gemm(),
        })
    }

    /// Draws every trainable layer's initial weights from `rng`, in layer order. The
    /// layers are built with zero weights: [`crate::config::build_network`] runs this
    /// pass on a fresh model, and a model about to be restored skips it.
    pub fn init_weights<R: Rng>(&mut self, rng: &mut R) {
        for layer in &mut self.layers {
            layer.init_weights(rng);
        }
    }

    /// The GEMM engine the network's layer kernels run on.
    pub fn gemm_engine(&self) -> GemmKind {
        self.gemm
    }

    /// Resolves `policy` against the host CPU and pins the resulting engine on every
    /// layer, overriding whatever the layers captured from `PLINIUS_GEMM` at
    /// construction. Used by the Plinius trainer so a [`GemmPolicy`] chosen through
    /// configuration (rather than the environment) reaches the hot path.
    pub fn set_gemm_policy(&mut self, policy: GemmPolicy) {
        let engine = policy.select();
        self.gemm = engine;
        for layer in &mut self.layers {
            layer.set_gemm_engine(engine);
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The layers of the network.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers (used by the mirroring module to restore parameters).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of output values (classes) per sample.
    pub fn outputs(&self) -> usize {
        self.layers.last().expect("validated non-empty").outputs()
    }

    /// Training iterations (batches) completed so far.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Sets the iteration counter (used when resuming from a mirrored model).
    pub fn set_iteration(&mut self, iteration: u64) {
        self.iteration = iteration;
    }

    /// Loss of the most recent training batch (`NaN` before the first batch).
    pub fn last_loss(&self) -> f32 {
        self.last_loss
    }

    /// Total number of learnable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Size of the learnable parameters in bytes — the "model size" axis of Fig. 7.
    pub fn model_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.param_bytes()).sum()
    }

    /// Approximate FLOPs per sample for one forward+backward pass.
    pub fn flops_per_sample(&self) -> u64 {
        self.layers.iter().map(|l| l.flops_per_sample()).sum()
    }

    /// Runs a forward pass over `input` (length `batch * inputs`) and returns the final
    /// layer's output.
    ///
    /// # Panics
    ///
    /// Panics if `input` is shorter than `batch * inputs()`.
    pub fn forward(&mut self, input: &[f32], batch: usize) -> &[f32] {
        assert!(
            input.len() >= batch * self.config.inputs(),
            "network input too small"
        );
        for i in 0..self.layers.len() {
            let (before, rest) = self.layers.split_at_mut(i);
            let layer = &mut rest[0];
            if i == 0 {
                layer.forward(input, batch);
            } else {
                let prev_output = before[i - 1].output();
                layer.forward(prev_output, batch);
            }
        }
        self.layers.last().expect("non-empty").output()
    }

    /// Runs one training iteration (forward, loss, backward, update) over a batch and
    /// returns the cross-entropy loss.
    ///
    /// `images` holds `batch * inputs()` values and `labels` holds `batch * outputs()`
    /// one-hot values.
    ///
    /// # Errors
    ///
    /// Returns [`DarknetError::BatchMismatch`] if the buffers do not match the batch.
    pub fn train_batch(
        &mut self,
        images: &[f32],
        labels: &[f32],
        batch: usize,
    ) -> Result<f32, DarknetError> {
        let inputs = self.config.inputs();
        let outputs = self.outputs();
        if images.len() < batch * inputs || labels.len() < batch * outputs {
            return Err(DarknetError::BatchMismatch {
                batch,
                images: images.len(),
                labels: labels.len(),
            });
        }
        for layer in &mut self.layers {
            layer.zero_delta();
        }
        self.forward(images, batch);
        // Cross-entropy loss and its (negative) gradient on the softmax output.
        let mut loss = 0.0f32;
        {
            let last = self.layers.last_mut().expect("non-empty");
            let (predictions, delta) = last.output_and_delta_mut();
            for i in 0..batch * outputs {
                let t = labels[i];
                let p = predictions[i];
                delta[i] = t - p;
                if t > 0.0 {
                    loss += -t * (p.max(1e-9)).ln();
                }
            }
        }
        loss /= batch as f32;
        // Backward pass, each layer's parameter update right after its backward: no
        // layer's backward reads another layer's parameters.
        let args = UpdateArgs {
            learning_rate: self.config.learning_rate,
            momentum: self.config.momentum,
            decay: self.config.decay,
            batch,
        };
        for i in (0..self.layers.len()).rev() {
            let (before, rest) = self.layers.split_at_mut(i);
            let layer = &mut rest[0];
            if i == 0 {
                layer.backward_and_update(images, None, batch, &args);
            } else {
                let (prev_output, prev_delta) = before[i - 1].output_and_delta_mut();
                layer.backward_and_update(prev_output, Some(prev_delta), batch, &args);
            }
        }
        self.iteration += 1;
        self.last_loss = loss;
        Ok(loss)
    }

    /// Classifies `count` samples (`input` holds `count * inputs` values) in one batched
    /// forward pass, returning each sample's predicted class: the index of its row's
    /// largest output, the first one on a tie. Every layer's forward treats each row of
    /// a batch on its own, so a sample gets the same class in any batch as alone.
    ///
    /// # Panics
    ///
    /// Panics if `input` is shorter than `count * inputs()`.
    pub fn classify(&mut self, input: &[f32], count: usize) -> Vec<usize> {
        let classes = self.outputs();
        let out = self.forward(input, count);
        out[..count * classes]
            .chunks_exact(classes)
            .map(|row| {
                let mut best = 0;
                for (i, v) in row.iter().enumerate() {
                    if *v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Classification accuracy over a dataset (fraction in `[0, 1]`), classified in
    /// batches of the network's own batch size.
    ///
    /// # Panics
    ///
    /// Panics if the dataset shapes do not match the network.
    pub fn accuracy(&mut self, dataset: &Dataset) -> f32 {
        let inputs = self.config.inputs();
        assert_eq!(dataset.inputs(), inputs, "dataset input size mismatch");
        let n = dataset.len();
        if n == 0 {
            return 0.0;
        }
        let batch = self.config.batch.max(1);
        let mut correct = 0usize;
        for (first, images) in (0..n)
            .step_by(batch)
            .zip(dataset.images()[..n * inputs].chunks(batch * inputs))
        {
            let predicted = self.classify(images, images.len() / inputs);
            correct += (first..)
                .zip(predicted)
                .filter(|&(i, class)| class == dataset.label_index(i))
                .count();
        }
        correct as f32 / n as f32
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Network: {} layers, {} parameters ({} bytes), iteration {}",
            self.num_layers(),
            self.param_count(),
            self.model_bytes(),
            self.iteration
        )?;
        for (i, layer) in self.layers.iter().enumerate() {
            let (c, h, w) = layer.out_shape();
            writeln!(
                f,
                "  {:>2}: {:<14} -> {}x{}x{}",
                i,
                layer.kind().to_string(),
                c,
                h,
                w
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::data::{synthetic_images, Dataset};
    use crate::layers::{ConnectedLayer, ConvLayer, MaxPoolLayer, SoftmaxLayer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_mlp(inputs: usize, classes: usize, batch: usize, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = NetworkConfig {
            height: inputs,
            width: 1,
            channels: 1,
            batch,
            learning_rate: 0.5,
            momentum: 0.0,
            decay: 0.0,
            max_iterations: 100,
        };
        let layers = vec![
            Layer::Connected(ConnectedLayer::new(inputs, 16, Activation::Leaky, batch)),
            Layer::Connected(ConnectedLayer::new(16, classes, Activation::Linear, batch)),
            Layer::Softmax(SoftmaxLayer::new(classes, batch)),
        ];
        let mut net = Network::new(config, layers).unwrap();
        net.init_weights(&mut rng);
        net
    }

    fn tiny_cnn(batch: usize, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = NetworkConfig {
            height: 8,
            width: 8,
            channels: 1,
            batch,
            learning_rate: 0.2,
            momentum: 0.9,
            decay: 0.0,
            max_iterations: 100,
        };
        let conv = ConvLayer::new(8, 8, 1, 4, 3, 1, 1, Activation::Leaky, batch);
        let pool = MaxPoolLayer::new(8, 8, 4, 2, 2, batch);
        let fc = ConnectedLayer::new(4 * 4 * 4, 3, Activation::Linear, batch);
        let sm = SoftmaxLayer::new(3, batch);
        let layers = vec![
            Layer::Convolutional(conv),
            Layer::MaxPool(pool),
            Layer::Connected(fc),
            Layer::Softmax(sm),
        ];
        let mut net = Network::new(config, layers).unwrap();
        net.init_weights(&mut rng);
        net
    }

    #[test]
    fn empty_network_is_rejected() {
        assert_eq!(
            Network::new(NetworkConfig::default(), vec![]).unwrap_err(),
            DarknetError::EmptyNetwork
        );
    }

    #[test]
    fn shape_mismatch_is_detected() {
        let config = NetworkConfig {
            height: 10,
            width: 1,
            channels: 1,
            ..NetworkConfig::default()
        };
        let layers = vec![Layer::Connected(ConnectedLayer::new(
            7, // does not match the 10 network inputs
            3,
            Activation::Linear,
            1,
        ))];
        assert!(matches!(
            Network::new(config, layers).unwrap_err(),
            DarknetError::ShapeMismatch {
                layer: 0,
                expected: 7,
                actual: 10
            }
        ));
    }

    #[test]
    fn forward_produces_probabilities() {
        let mut net = tiny_mlp(6, 3, 2, 1);
        let input = vec![0.5f32; 12];
        let out = net.forward(&input, 2).to_vec();
        for b in 0..2 {
            let sum: f32 = out[b * 3..(b + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        let mut net = tiny_mlp(4, 2, 8, 42);
        // Class 0: first two features high; class 1: last two features high.
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..8 {
            if i % 2 == 0 {
                images.extend_from_slice(&[1.0, 1.0, 0.0, 0.0]);
                labels.extend_from_slice(&[1.0, 0.0]);
            } else {
                images.extend_from_slice(&[0.0, 0.0, 1.0, 1.0]);
                labels.extend_from_slice(&[0.0, 1.0]);
            }
        }
        let first = net.train_batch(&images, &labels, 8).unwrap();
        let mut last = first;
        for _ in 0..60 {
            last = net.train_batch(&images, &labels, 8).unwrap();
        }
        assert!(
            last < first * 0.5,
            "loss did not decrease: {first} -> {last}"
        );
        assert_eq!(net.iteration(), 61);
        assert!(net.last_loss().is_finite());
    }

    #[test]
    fn cnn_learns_a_simple_pattern() {
        let mut net = tiny_cnn(6, 7);
        // Three classes: bright top rows, bright bottom rows, uniform.
        let make_sample = |class: usize| -> Vec<f32> {
            let mut img = vec![0.1f32; 64];
            match class {
                0 => img[..16].iter_mut().for_each(|v| *v = 1.0),
                1 => img[48..].iter_mut().for_each(|v| *v = 1.0),
                _ => img.iter_mut().for_each(|v| *v = 0.5),
            }
            img
        };
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..6 {
            let class = i % 3;
            images.extend(make_sample(class));
            let mut one_hot = vec![0.0f32; 3];
            one_hot[class] = 1.0;
            labels.extend(one_hot);
        }
        let first = net.train_batch(&images, &labels, 6).unwrap();
        let mut last = first;
        for _ in 0..80 {
            last = net.train_batch(&images, &labels, 6).unwrap();
        }
        assert!(last < first, "CNN loss did not decrease: {first} -> {last}");
        // After training, the network should classify its own training samples.
        let correct = (0..3)
            .filter(|&c| {
                let img = make_sample(c);
                net.classify(&img, 1)[0] == c
            })
            .count();
        assert!(correct >= 2, "only {correct}/3 training samples classified");
    }

    #[test]
    fn batch_mismatch_is_an_error() {
        let mut net = tiny_mlp(4, 2, 4, 3);
        let err = net.train_batch(&[0.0; 4], &[0.0; 2], 4).unwrap_err();
        assert!(matches!(err, DarknetError::BatchMismatch { .. }));
    }

    #[test]
    fn accuracy_on_trivial_dataset() {
        let mut net = tiny_mlp(4, 2, 4, 9);
        let images = vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0];
        let labels = vec![1.0, 0.0, 0.0, 1.0];
        for _ in 0..80 {
            net.train_batch(&images, &labels, 2).unwrap();
        }
        let ds = Dataset::from_raw(2, 4, 2, images.clone(), labels.clone()).unwrap();
        let acc = net.accuracy(&ds);
        assert!(acc >= 0.5, "accuracy {acc}");
    }

    /// A CNN on 8x8 images whose conv layer fans a batch out across threads (32
    /// filters x 9 taps x 64 pixels passes the forward's fan-out threshold), trained a
    /// few steps on `data` so that its classes differ from sample to sample.
    fn trained_wide_cnn(batch: usize, data: &Dataset) -> Network {
        let config = NetworkConfig {
            height: 8,
            width: 8,
            channels: 1,
            batch,
            learning_rate: 0.1,
            momentum: 0.9,
            decay: 0.0,
            max_iterations: 100,
        };
        let conv = ConvLayer::new(8, 8, 1, 32, 3, 1, 1, Activation::Leaky, batch);
        let pool = MaxPoolLayer::new(8, 8, 32, 2, 2, batch);
        let fc = ConnectedLayer::new(32 * 4 * 4, 5, Activation::Linear, batch);
        let layers = vec![
            Layer::Convolutional(conv),
            Layer::MaxPool(pool),
            Layer::Connected(fc),
            Layer::Softmax(SoftmaxLayer::new(5, batch)),
        ];
        let mut net = Network::new(config, layers).unwrap();
        net.init_weights(&mut StdRng::seed_from_u64(21));
        for step in 0..4 {
            let (images, labels) = data.sequential_batch(step, batch);
            net.train_batch(&images, &labels, batch).unwrap();
        }
        net
    }

    /// The per-sample classifier, the oracle of the batched one: one forward pass of
    /// batch 1, then the first index of the row's largest output.
    fn classify_alone(net: &mut Network, image: &[f32]) -> (usize, Vec<u32>) {
        let classes = net.outputs();
        let out = &net.forward(image, 1)[..classes];
        let mut best = 0;
        for (i, v) in out.iter().enumerate() {
            if *v > out[best] {
                best = i;
            }
        }
        (best, out.iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn accuracy_in_batches_equals_the_per_sample_loop() {
        // 10 samples at batch 4: two whole batches and a short one.
        let data = synthetic_images(10, 8, 8, 5, 0.3, &mut StdRng::seed_from_u64(22));
        let mut net = trained_wide_cnn(4, &data);
        let correct = (0..data.len())
            .filter(|&i| classify_alone(&mut net, data.image(i)).0 == data.label_index(i))
            .count();
        assert_eq!(
            net.accuracy(&data),
            correct as f32 / data.len() as f32,
            "{correct} of {} correct alone",
            data.len()
        );
    }

    #[test]
    fn classify_gives_each_sample_of_a_batch_its_class_alone() {
        let data = synthetic_images(7, 8, 8, 5, 0.3, &mut StdRng::seed_from_u64(23));
        let mut net = trained_wide_cnn(4, &data);
        let alone: Vec<(usize, Vec<u32>)> = (0..data.len())
            .map(|i| classify_alone(&mut net, data.image(i)))
            .collect();
        let classes: Vec<usize> = alone.iter().map(|(class, _)| *class).collect();
        assert!(
            classes.iter().any(|&c| c != classes[0]),
            "every sample got class {}: the check would be vacuous",
            classes[0]
        );
        // A batch wider than the network's own, so every layer's buffers grow too.
        assert_eq!(net.classify(data.images(), data.len()), classes);
        let batched = net.forward(data.images(), data.len()).to_vec();
        for (i, (row, (_, bits))) in batched.chunks_exact(5).zip(&alone).enumerate() {
            let row: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
            assert_eq!(&row, bits, "sample {i}'s outputs differ in a batch");
        }
    }

    #[test]
    fn model_size_and_display() {
        let net = tiny_cnn(1, 5);
        assert!(net.model_bytes() > 0);
        assert!(net.param_count() > 0);
        assert!(net.flops_per_sample() > 0);
        let text = net.to_string();
        assert!(text.contains("convolutional"));
        assert!(text.contains("softmax"));
    }

    #[test]
    fn set_gemm_policy_pins_every_layer() {
        let mut net = tiny_cnn(1, 5);
        net.set_gemm_policy(GemmPolicy::Scalar);
        assert_eq!(net.gemm_engine(), GemmKind::Scalar);
        for layer in net.layers() {
            match layer.gemm_engine() {
                Some(engine) => assert_eq!(engine, GemmKind::Scalar),
                None => assert!(!layer.is_trainable()),
            }
        }
        // Training still works on the pinned engine.
        let mut images = vec![0.3f32; 64];
        images[..16].iter_mut().for_each(|v| *v = 1.0);
        let labels = vec![1.0, 0.0, 0.0];
        let loss = net.train_batch(&images, &labels, 1).unwrap();
        assert!(loss.is_finite());
    }

    #[test]
    fn iteration_counter_can_be_restored() {
        let mut net = tiny_mlp(4, 2, 1, 11);
        assert_eq!(net.iteration(), 0);
        net.set_iteration(250);
        assert_eq!(net.iteration(), 250);
    }
}
