//! Darknet `.cfg` configuration parsing and network construction.
//!
//! In Plinius the model architecture and hyper-parameters are defined in a configuration
//! file which is *parsed in the untrusted runtime* (it is public information under the
//! threat model) and then sent to the enclave to build the enclave model. This module
//! provides that parser plus programmatic generators for the model families used in the
//! evaluation (N LReLU-convolutional layers, or a target model size in MB for Fig. 7).

use crate::activation::Activation;
use crate::layers::{ConnectedLayer, ConvLayer, Layer, MaxPoolLayer, SoftmaxLayer};
use crate::network::{Network, NetworkConfig};
use crate::DarknetError;
use rand::Rng;
use std::collections::BTreeMap;

/// One `[section]` of a configuration file with its `key=value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section name without brackets (e.g. `net`, `convolutional`).
    pub name: String,
    /// Options in declaration order (later duplicates overwrite earlier ones).
    pub options: BTreeMap<String, String>,
}

impl Section {
    fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, DarknetError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.trim().parse::<T>().map_err(|_| {
                DarknetError::Config(format!(
                    "invalid value '{raw}' for '{key}' in section [{}]",
                    self.name
                ))
            }),
        }
    }

    /// Like [`Section::parse`] for a count that must be at least 1: a zero-sized layer
    /// or input is a configuration error, not a panic in the layer constructor.
    fn parse_count(&self, key: &str, default: usize) -> Result<usize, DarknetError> {
        match self.parse(key, default)? {
            0 => Err(DarknetError::Config(format!(
                "'{key}' in section [{}] must be at least 1",
                self.name
            ))),
            count => Ok(count),
        }
    }
}

/// Parses the text of a `.cfg` file into sections.
///
/// # Errors
///
/// Returns [`DarknetError::Config`] if an option appears before any section or a line is
/// not of the form `key=value`.
pub fn parse_config(text: &str) -> Result<Vec<Section>, DarknetError> {
    let mut sections: Vec<Section> = Vec::new();
    for (lineno, raw_line) in text.lines().enumerate() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with(';') {
            continue;
        }
        if line.starts_with('[') && line.ends_with(']') {
            sections.push(Section {
                name: line[1..line.len() - 1].trim().to_ascii_lowercase(),
                options: BTreeMap::new(),
            });
        } else if let Some((key, value)) = line.split_once('=') {
            let section = sections.last_mut().ok_or_else(|| {
                DarknetError::Config(format!(
                    "option on line {} appears before any section",
                    lineno + 1
                ))
            })?;
            section
                .options
                .insert(key.trim().to_ascii_lowercase(), value.trim().to_owned());
        } else {
            return Err(DarknetError::Config(format!(
                "cannot parse line {}: '{line}'",
                lineno + 1
            )));
        }
    }
    Ok(sections)
}

/// Parses a configuration file and builds the corresponding [`Network`], initialising
/// weights from `rng` ([`Network::init_weights`] over [`build_zeroed_network`]).
///
/// # Errors
///
/// Returns [`DarknetError::Config`] for malformed or unsupported configurations and the
/// usual network-construction errors for inconsistent shapes.
pub fn build_network<R: Rng>(text: &str, rng: &mut R) -> Result<Network, DarknetError> {
    let mut network = build_zeroed_network(text)?;
    network.init_weights(rng);
    Ok(network)
}

/// Parses a configuration file and builds the corresponding [`Network`] with every
/// weight zero: the shape a restore overwrites, which needs no random draw.
///
/// # Errors
///
/// Same as [`build_network`].
pub fn build_zeroed_network(text: &str) -> Result<Network, DarknetError> {
    let sections = parse_config(text)?;
    let Some((net_section, layer_sections)) = sections.split_first() else {
        return Err(DarknetError::Config("configuration file is empty".into()));
    };
    if net_section.name != "net" && net_section.name != "network" {
        return Err(DarknetError::Config(format!(
            "first section must be [net], found [{}]",
            net_section.name
        )));
    }
    let config = NetworkConfig {
        height: net_section.parse_count("height", 28)?,
        width: net_section.parse_count("width", 28)?,
        channels: net_section.parse_count("channels", 1)?,
        batch: net_section.parse("batch", 128usize)?,
        learning_rate: net_section.parse("learning_rate", 0.1f32)?,
        momentum: net_section.parse("momentum", 0.9f32)?,
        decay: net_section.parse("decay", 0.0001f32)?,
        max_iterations: net_section.parse("max_iterations", 500u64)?,
    };
    let mut layers: Vec<Layer> = Vec::new();
    let mut c = config.channels;
    let mut h = config.height;
    let mut w = config.width;
    let batch = config.batch;
    for section in layer_sections {
        match section.name.as_str() {
            "convolutional" | "conv" => {
                let filters = section.parse_count("filters", 16)?;
                let size = section.parse("size", 3usize)?;
                let stride = section.parse("stride", 1usize)?;
                let pad = section.parse("pad", 1usize)?;
                let activation: Activation = section
                    .get("activation")
                    .unwrap_or("leaky")
                    .parse()
                    .map_err(|e| DarknetError::Config(format!("{e}")))?;
                // Reject degenerate geometry here with a proper error instead of
                // letting `conv_out_dim` panic (the old formula underflowed `usize`
                // when the kernel exceeded the padded input).
                if crate::matrix::try_conv_out_dim(h, size, stride, pad).is_none()
                    || crate::matrix::try_conv_out_dim(w, size, stride, pad).is_none()
                {
                    return Err(DarknetError::Config(format!(
                        "convolutional kernel {size} (stride {stride}, pad {pad}) does not \
                         fit the {h}x{w} input"
                    )));
                }
                let layer = ConvLayer::new(h, w, c, filters, size, stride, pad, activation, batch);
                let (oc, oh, ow) = layer.out_shape();
                layers.push(Layer::Convolutional(layer));
                c = oc;
                h = oh;
                w = ow;
            }
            "maxpool" => {
                let size = section.parse("size", 2usize)?;
                let stride = section.parse("stride", 2usize)?;
                if size == 0 || stride == 0 || size > h || size > w {
                    return Err(DarknetError::Config(format!(
                        "maxpool window {size} (stride {stride}) does not fit the {h}x{w} input"
                    )));
                }
                let layer = MaxPoolLayer::new(h, w, c, size, stride, batch);
                let (oc, oh, ow) = layer.out_shape();
                layers.push(Layer::MaxPool(layer));
                c = oc;
                h = oh;
                w = ow;
            }
            "connected" | "fc" => {
                let outputs = section.parse_count("output", 10)?;
                let activation: Activation = section
                    .get("activation")
                    .unwrap_or("linear")
                    .parse()
                    .map_err(|e| DarknetError::Config(format!("{e}")))?;
                layers.push(Layer::Connected(ConnectedLayer::new(
                    c * h * w,
                    outputs,
                    activation,
                    batch,
                )));
                c = outputs;
                h = 1;
                w = 1;
            }
            "softmax" => {
                layers.push(Layer::Softmax(SoftmaxLayer::new(c * h * w, batch)));
            }
            other => {
                return Err(DarknetError::Config(format!(
                    "unsupported layer type [{other}]"
                )));
            }
        }
    }
    Network::new(config, layers)
}

/// Generates the configuration text of an MNIST-scale CNN with `conv_layers`
/// LReLU-convolutional layers (the model family used in Figs. 8–10 and the inference
/// experiment of the paper).
pub fn mnist_cnn_config(conv_layers: usize, filters: usize, batch: usize) -> String {
    mnist_cnn_config_with_momentum(conv_layers, filters, batch, 0.9)
}

/// Like [`mnist_cnn_config`] but with an explicit SGD momentum.
///
/// Momentum 0 trades convergence speed for stability: the tiny demo models can
/// overshoot after converging under the default `momentum=0.9`, and with zero
/// momentum the whole training state lives in the persisted weight tensors,
/// which makes mirror-based crash/resume bit-for-bit deterministic.
pub fn mnist_cnn_config_with_momentum(
    conv_layers: usize,
    filters: usize,
    batch: usize,
    momentum: f32,
) -> String {
    let mut cfg = format!(
        "[net]\nheight=28\nwidth=28\nchannels=1\nlearning_rate=0.1\nmomentum={momentum}\ndecay=0.0001\n",
    );
    cfg.push_str(&format!("batch={batch}\nmax_iterations=500\n\n"));
    for i in 0..conv_layers {
        cfg.push_str(&format!(
            "[convolutional]\nfilters={filters}\nsize=3\nstride=1\npad=1\nactivation=leaky\n\n"
        ));
        // Down-sample twice early on to keep the fully connected layer reasonable.
        if i == 0 || i == 1 {
            cfg.push_str("[maxpool]\nsize=2\nstride=2\n\n");
        }
    }
    cfg.push_str("[connected]\noutput=10\nactivation=linear\n\n[softmax]\n");
    cfg
}

/// Generates a CNN configuration whose learnable parameters occupy approximately
/// `target_mb` megabytes — used by the Fig. 7 / Table I model-size sweep.
///
/// The size is reached with a wide fully connected layer (the same technique the paper
/// uses of growing the model by adding parameter-heavy layers).
pub fn sized_model_config(target_mb: usize, batch: usize) -> String {
    // Geometry after one conv(8 filters) + two maxpools on 28x28: 8 x 7 x 7 = 392 inputs.
    let fc_inputs = 8 * 7 * 7;
    let bytes_per_unit = fc_inputs * 4;
    let target_bytes = target_mb * 1024 * 1024;
    let hidden = (target_bytes / bytes_per_unit).max(16);
    format!(
        "[net]\nheight=28\nwidth=28\nchannels=1\nbatch={batch}\nlearning_rate=0.1\nmomentum=0.9\ndecay=0.0001\n\n\
         [convolutional]\nfilters=8\nsize=3\nstride=1\npad=1\nactivation=leaky\n\n\
         [maxpool]\nsize=2\nstride=2\n\n\
         [maxpool]\nsize=2\nstride=2\n\n\
         [connected]\noutput={hidden}\nactivation=leaky\n\n\
         [connected]\noutput=10\nactivation=linear\n\n\
         [softmax]\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SAMPLE: &str = "
# a comment
[net]
height=8
width=8
channels=1
batch=4
learning_rate=0.05

[convolutional]
filters=4
size=3
stride=1
pad=1
activation=leaky

[maxpool]
size=2
stride=2

[connected]
output=10
activation=linear

[softmax]
";

    #[test]
    fn parse_config_extracts_sections_and_options() {
        let sections = parse_config(SAMPLE).unwrap();
        assert_eq!(sections.len(), 5);
        assert_eq!(sections[0].name, "net");
        assert_eq!(sections[1].options.get("filters").unwrap(), "4");
        assert_eq!(sections[3].options.get("activation").unwrap(), "linear");
    }

    #[test]
    fn parse_config_rejects_malformed_input() {
        assert!(parse_config("key=value").is_err());
        assert!(parse_config("[net]\nnot a key value").is_err());
    }

    #[test]
    fn build_network_from_config() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = build_network(SAMPLE, &mut rng).unwrap();
        assert_eq!(net.num_layers(), 4);
        assert_eq!(net.config().batch, 4);
        assert!((net.config().learning_rate - 0.05).abs() < 1e-6);
        assert_eq!(net.outputs(), 10);
        assert_eq!(net.config().momentum, 0.9, "default applies when missing");
    }

    #[test]
    fn build_network_rejects_bad_values_and_unknown_layers() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(build_network("[net]\nbatch=abc\n", &mut rng).is_err());
        assert!(build_network("[net]\n\n[rnn]\n", &mut rng).is_err());
        assert!(build_network("", &mut rng).is_err());
        assert!(build_network("[convolutional]\nfilters=2\n", &mut rng).is_err());
        assert!(build_network("[net]\n\n[convolutional]\nactivation=swish\n", &mut rng).is_err());
    }

    #[test]
    fn oversized_kernels_are_rejected_at_construction_not_by_panic() {
        // Regression: a 7x7 kernel on a 4x4 input used to underflow `usize` inside
        // `conv_out_dim` (panic in debug, absurd dimension in release). Construction
        // must reject the config with a proper error.
        let mut rng = StdRng::seed_from_u64(5);
        let conv = "[net]\nheight=4\nwidth=4\n\n[convolutional]\nsize=7\npad=1\n";
        match build_network(conv, &mut rng) {
            Err(DarknetError::Config(msg)) => assert!(msg.contains("does not fit"), "{msg}"),
            other => panic!("expected a config error, got {other:?}"),
        }
        let pool = "[net]\nheight=4\nwidth=4\n\n[maxpool]\nsize=9\nstride=2\n";
        match build_network(pool, &mut rng) {
            Err(DarknetError::Config(msg)) => assert!(msg.contains("does not fit"), "{msg}"),
            other => panic!("expected a config error, got {other:?}"),
        }
        // Zero stride is equally rejected.
        let zero = "[net]\nheight=4\nwidth=4\n\n[convolutional]\nsize=3\nstride=0\n";
        assert!(matches!(
            build_network(zero, &mut rng),
            Err(DarknetError::Config(_))
        ));
        // So are zero-sized layers and inputs, which used to panic in the layer
        // constructors.
        for empty in [
            "[net]\nheight=4\nwidth=4\n\n[convolutional]\nfilters=0\n",
            "[net]\nheight=4\nwidth=4\n\n[connected]\noutput=0\n",
            "[net]\nheight=4\nwidth=4\nchannels=0\n\n[connected]\noutput=2\n",
        ] {
            match build_network(empty, &mut rng) {
                Err(DarknetError::Config(msg)) => assert!(msg.contains("at least 1"), "{msg}"),
                other => panic!("expected a config error for {empty:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn mnist_cnn_config_builds_and_has_requested_depth() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = mnist_cnn_config(5, 8, 16);
        let net = build_network(&cfg, &mut rng).unwrap();
        let conv_count = net
            .layers()
            .iter()
            .filter(|l| matches!(l.kind(), crate::layers::LayerKind::Convolutional))
            .count();
        assert_eq!(conv_count, 5);
        assert_eq!(net.config().batch, 16);
        assert_eq!(net.outputs(), 10);
    }

    #[test]
    fn sized_model_config_hits_target_size() {
        let mut rng = StdRng::seed_from_u64(3);
        for target_mb in [10usize, 44, 100] {
            let cfg = sized_model_config(target_mb, 2);
            let net = build_network(&cfg, &mut rng).unwrap();
            let mb = net.model_bytes() as f64 / (1024.0 * 1024.0);
            assert!(
                (mb - target_mb as f64).abs() / (target_mb as f64) < 0.15,
                "target {target_mb} MB, got {mb:.1} MB"
            );
        }
    }
}
