//! Training/test datasets: the in-memory data matrix Darknet trains from, an IDX parser
//! for the real MNIST files, and a synthetic MNIST-like generator used when the real
//! dataset is not available (the substitution documented in DESIGN.md).

use crate::DarknetError;
use rand::Rng;
use std::path::Path;

/// A labelled dataset held as two row-major matrices: one image per row and one one-hot
/// label row per image (Darknet's `data` type).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    samples: usize,
    inputs: usize,
    classes: usize,
    images: Vec<f32>,
    labels: Vec<f32>,
}

impl Dataset {
    /// Builds a dataset from raw buffers.
    ///
    /// # Errors
    ///
    /// Returns [`DarknetError::DataShape`] if the buffer lengths do not match
    /// `samples * inputs` / `samples * classes`.
    pub fn from_raw(
        samples: usize,
        inputs: usize,
        classes: usize,
        images: Vec<f32>,
        labels: Vec<f32>,
    ) -> Result<Self, DarknetError> {
        if images.len() != samples * inputs || labels.len() != samples * classes {
            return Err(DarknetError::DataShape {
                samples,
                inputs,
                classes,
                images: images.len(),
                labels: labels.len(),
            });
        }
        Ok(Dataset {
            samples,
            inputs,
            classes,
            images,
            labels,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }

    /// Number of input values per sample.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The whole image matrix (row-major, one sample per row).
    pub fn images(&self) -> &[f32] {
        &self.images
    }

    /// The whole one-hot label matrix (row-major).
    pub fn labels(&self) -> &[f32] {
        &self.labels
    }

    /// Image `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn image(&self, i: usize) -> &[f32] {
        assert!(i < self.samples, "sample {i} out of range");
        &self.images[i * self.inputs..(i + 1) * self.inputs]
    }

    /// One-hot label row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn label(&self, i: usize) -> &[f32] {
        assert!(i < self.samples, "sample {i} out of range");
        &self.labels[i * self.classes..(i + 1) * self.classes]
    }

    /// Class index of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn label_index(&self, i: usize) -> usize {
        let row = self.label(i);
        let mut best = 0;
        for (j, v) in row.iter().enumerate() {
            if *v > row[best] {
                best = j;
            }
        }
        best
    }

    /// Copies the samples at `indices` into contiguous `(images, labels)` batch buffers.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather(&self, indices: &[usize]) -> (Vec<f32>, Vec<f32>) {
        let mut images = Vec::with_capacity(indices.len() * self.inputs);
        let mut labels = Vec::with_capacity(indices.len() * self.classes);
        for &i in indices {
            images.extend_from_slice(self.image(i));
            labels.extend_from_slice(self.label(i));
        }
        (images, labels)
    }

    /// Samples a random batch of `batch` samples (with replacement, like Darknet's
    /// `get_random_batch`).
    pub fn random_batch<R: Rng>(&self, batch: usize, rng: &mut R) -> (Vec<f32>, Vec<f32>) {
        let indices: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..self.samples)).collect();
        self.gather(&indices)
    }

    /// Deterministic batch `k` (wrapping around the dataset), used when a reproducible
    /// iteration order is needed.
    pub fn sequential_batch(&self, k: usize, batch: usize) -> (Vec<f32>, Vec<f32>) {
        let indices: Vec<usize> = (0..batch).map(|j| (k * batch + j) % self.samples).collect();
        self.gather(&indices)
    }

    /// Splits the dataset into a training part with `train` samples and a test part with
    /// the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `train > len()`.
    pub fn split(&self, train: usize) -> (Dataset, Dataset) {
        assert!(
            train <= self.samples,
            "cannot take {train} of {} samples",
            self.samples
        );
        let train_ds = Dataset {
            samples: train,
            inputs: self.inputs,
            classes: self.classes,
            images: self.images[..train * self.inputs].to_vec(),
            labels: self.labels[..train * self.classes].to_vec(),
        };
        let test_ds = Dataset {
            samples: self.samples - train,
            inputs: self.inputs,
            classes: self.classes,
            images: self.images[train * self.inputs..].to_vec(),
            labels: self.labels[train * self.classes..].to_vec(),
        };
        (train_ds, test_ds)
    }
}

/// Generates a synthetic MNIST-like dataset: `samples` grayscale 28x28 images in 10
/// classes. Each class has a distinct structured template (class-dependent stripes plus a
/// class-positioned bright square) with additive noise, so the same CNNs the paper trains
/// on MNIST can learn it to high accuracy.
pub fn synthetic_mnist<R: Rng>(samples: usize, rng: &mut R) -> Dataset {
    synthetic_images(samples, 28, 28, 10, 0.15, rng)
}

/// General synthetic image-classification dataset generator (see [`synthetic_mnist`]).
pub fn synthetic_images<R: Rng>(
    samples: usize,
    height: usize,
    width: usize,
    classes: usize,
    noise: f32,
    rng: &mut R,
) -> Dataset {
    let inputs = height * width;
    let mut images = Vec::with_capacity(samples * inputs);
    let mut labels = vec![0.0f32; samples * classes];
    for s in 0..samples {
        let class = rng.gen_range(0..classes);
        labels[s * classes + class] = 1.0;
        let fx = (class % 4 + 1) as f32;
        let fy = (class / 4 + 1) as f32;
        // Class-dependent bright square position.
        let sq_row = (class * height / classes).min(height.saturating_sub(6));
        let sq_col = ((class * 7) % width.saturating_sub(6).max(1)).min(width.saturating_sub(6));
        for y in 0..height {
            for x in 0..width {
                let stripes =
                    0.35 + 0.25 * ((x as f32) * fx * 0.45).sin() * ((y as f32) * fy * 0.45).cos();
                let square = if y >= sq_row && y < sq_row + 6 && x >= sq_col && x < sq_col + 6 {
                    0.45
                } else {
                    0.0
                };
                let n = rng.gen_range(-noise..noise);
                images.push((stripes + square + n).clamp(0.0, 1.0));
            }
        }
    }
    Dataset {
        samples,
        inputs,
        classes,
        images,
        labels,
    }
}

/// Parses an IDX3 image file (the format MNIST is distributed in) into normalised `f32`
/// pixels.
///
/// # Errors
///
/// Returns [`DarknetError::IdxFormat`] if the magic number or lengths are wrong.
pub fn parse_idx_images(bytes: &[u8]) -> Result<(usize, usize, usize, Vec<f32>), DarknetError> {
    if bytes.len() < 16 {
        return Err(DarknetError::IdxFormat(
            "image file shorter than header".into(),
        ));
    }
    let magic = u32::from_be_bytes(bytes[0..4].try_into().expect("4 bytes"));
    if magic != 0x0000_0803 {
        return Err(DarknetError::IdxFormat(format!(
            "bad image magic 0x{magic:08x}"
        )));
    }
    let n = u32::from_be_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
    let rows = u32::from_be_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let cols = u32::from_be_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
    let expected = 16 + n * rows * cols;
    if bytes.len() < expected {
        return Err(DarknetError::IdxFormat(format!(
            "image file truncated: {} < {expected}",
            bytes.len()
        )));
    }
    let pixels = bytes[16..expected]
        .iter()
        .map(|b| *b as f32 / 255.0)
        .collect();
    Ok((n, rows, cols, pixels))
}

/// Parses an IDX1 label file into class indices.
///
/// # Errors
///
/// Returns [`DarknetError::IdxFormat`] if the magic number or lengths are wrong.
pub fn parse_idx_labels(bytes: &[u8]) -> Result<Vec<u8>, DarknetError> {
    if bytes.len() < 8 {
        return Err(DarknetError::IdxFormat(
            "label file shorter than header".into(),
        ));
    }
    let magic = u32::from_be_bytes(bytes[0..4].try_into().expect("4 bytes"));
    if magic != 0x0000_0801 {
        return Err(DarknetError::IdxFormat(format!(
            "bad label magic 0x{magic:08x}"
        )));
    }
    let n = u32::from_be_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
    if bytes.len() < 8 + n {
        return Err(DarknetError::IdxFormat("label file truncated".into()));
    }
    Ok(bytes[8..8 + n].to_vec())
}

/// Loads an MNIST-format dataset from IDX files on disk, if present; falls back to the
/// synthetic generator otherwise. The paper uses MNIST (60'000 training + 10'000 test
/// samples); the synthetic fallback keeps the same geometry.
pub fn load_mnist_or_synthetic<R: Rng>(
    dir: Option<&Path>,
    samples_if_synthetic: usize,
    rng: &mut R,
) -> Dataset {
    if let Some(dir) = dir {
        let images = std::fs::read(dir.join("train-images-idx3-ubyte"));
        let labels = std::fs::read(dir.join("train-labels-idx1-ubyte"));
        if let (Ok(images), Ok(labels)) = (images, labels) {
            if let (Ok((n, rows, cols, pixels)), Ok(label_idx)) =
                (parse_idx_images(&images), parse_idx_labels(&labels))
            {
                let classes = 10;
                let mut one_hot = vec![0.0f32; n * classes];
                for (i, l) in label_idx.iter().enumerate().take(n) {
                    one_hot[i * classes + (*l as usize).min(classes - 1)] = 1.0;
                }
                if let Ok(ds) = Dataset::from_raw(n, rows * cols, classes, pixels, one_hot) {
                    return ds;
                }
            }
        }
    }
    synthetic_mnist(samples_if_synthetic, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_raw_validates_shapes() {
        assert!(Dataset::from_raw(2, 3, 2, vec![0.0; 6], vec![0.0; 4]).is_ok());
        assert!(matches!(
            Dataset::from_raw(2, 3, 2, vec![0.0; 5], vec![0.0; 4]).unwrap_err(),
            DarknetError::DataShape { .. }
        ));
    }

    #[test]
    fn accessors_and_batches() {
        let images = vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let labels = vec![1.0, 0.0, 0.0, 1.0];
        let ds = Dataset::from_raw(2, 3, 2, images, labels).unwrap();
        assert_eq!(ds.len(), 2);
        assert!(!ds.is_empty());
        assert_eq!(ds.image(1), &[3.0, 4.0, 5.0]);
        assert_eq!(ds.label_index(0), 0);
        assert_eq!(ds.label_index(1), 1);
        let (bi, bl) = ds.gather(&[1, 0]);
        assert_eq!(bi, vec![3.0, 4.0, 5.0, 0.0, 1.0, 2.0]);
        assert_eq!(bl, vec![0.0, 1.0, 1.0, 0.0]);
        let (si, _) = ds.sequential_batch(1, 3);
        assert_eq!(si.len(), 9);
        let mut rng = StdRng::seed_from_u64(1);
        let (ri, rl) = ds.random_batch(5, &mut rng);
        assert_eq!(ri.len(), 15);
        assert_eq!(rl.len(), 10);
    }

    #[test]
    fn split_partitions_samples() {
        let mut rng = StdRng::seed_from_u64(2);
        let ds = synthetic_images(20, 6, 6, 3, 0.1, &mut rng);
        let (train, test) = ds.split(15);
        assert_eq!(train.len(), 15);
        assert_eq!(test.len(), 5);
        assert_eq!(train.image(0), ds.image(0));
        assert_eq!(test.image(0), ds.image(15));
    }

    #[test]
    fn synthetic_mnist_has_mnist_geometry() {
        let mut rng = StdRng::seed_from_u64(4);
        let ds = synthetic_mnist(50, &mut rng);
        assert_eq!(ds.inputs(), 784);
        assert_eq!(ds.classes(), 10);
        assert_eq!(ds.len(), 50);
        assert!(ds.images().iter().all(|v| (0.0..=1.0).contains(v)));
        // All ten classes should appear in a reasonably sized sample.
        let mut seen = [false; 10];
        let mut rng = StdRng::seed_from_u64(5);
        let big = synthetic_mnist(400, &mut rng);
        for i in 0..big.len() {
            seen[big.label_index(i)] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn synthetic_classes_are_distinguishable() {
        // The mean image of two different classes should differ substantially more than
        // the noise level, otherwise no model could learn the task.
        let mut rng = StdRng::seed_from_u64(6);
        let ds = synthetic_mnist(600, &mut rng);
        let mean_of = |class: usize| -> Vec<f32> {
            let mut acc = vec![0.0f32; ds.inputs()];
            let mut count = 0;
            for i in 0..ds.len() {
                if ds.label_index(i) == class {
                    for (a, v) in acc.iter_mut().zip(ds.image(i)) {
                        *a += v;
                    }
                    count += 1;
                }
            }
            acc.iter().map(|a| a / count.max(1) as f32).collect()
        };
        let m0 = mean_of(0);
        let m7 = mean_of(7);
        let dist: f32 = m0
            .iter()
            .zip(m7.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / m0.len() as f32;
        assert!(dist > 0.05, "class templates too similar: {dist}");
    }

    #[test]
    fn idx_parsers_accept_valid_and_reject_invalid() {
        // Build a tiny valid IDX pair: 2 images of 2x2, labels [3, 1].
        let mut img = Vec::new();
        img.extend_from_slice(&0x0000_0803u32.to_be_bytes());
        img.extend_from_slice(&2u32.to_be_bytes());
        img.extend_from_slice(&2u32.to_be_bytes());
        img.extend_from_slice(&2u32.to_be_bytes());
        img.extend_from_slice(&[0, 128, 255, 64, 1, 2, 3, 4]);
        let (n, r, c, pixels) = parse_idx_images(&img).unwrap();
        assert_eq!((n, r, c), (2, 2, 2));
        assert!((pixels[2] - 1.0).abs() < 1e-6);
        let mut lbl = Vec::new();
        lbl.extend_from_slice(&0x0000_0801u32.to_be_bytes());
        lbl.extend_from_slice(&2u32.to_be_bytes());
        lbl.extend_from_slice(&[3, 1]);
        assert_eq!(parse_idx_labels(&lbl).unwrap(), vec![3, 1]);
        // Corrupt magic numbers are rejected.
        assert!(parse_idx_images(&lbl).is_err());
        assert!(parse_idx_labels(&img[..8]).is_err());
        assert!(parse_idx_images(&img[..10]).is_err());
    }

    #[test]
    fn load_falls_back_to_synthetic() {
        let mut rng = StdRng::seed_from_u64(7);
        let ds = load_mnist_or_synthetic(Some(Path::new("/nonexistent/mnist")), 30, &mut rng);
        assert_eq!(ds.len(), 30);
        let ds2 = load_mnist_or_synthetic(None, 10, &mut rng);
        assert_eq!(ds2.len(), 10);
    }
}
