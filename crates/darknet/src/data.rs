//! Training/test datasets: the in-memory data matrix Darknet trains from, and a
//! synthetic MNIST-like generator that stands in for the real MNIST files.

use crate::DarknetError;
use rand::Rng;

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
}
