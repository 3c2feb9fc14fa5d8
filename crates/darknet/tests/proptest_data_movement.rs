//! Pins darknet's data-movement kernels — `im2col`, `col2im` and the max-pool forward —
//! **bit for bit** to Darknet's per-element loops, and gates (`#[ignore]`d, release
//! only) that each kernel stays well ahead of its loop in wall-clock time.
//!
//! The per-element loops are the oracles. They exist only in this file.

use plinius_darknet::layers::MaxPoolLayer;
use plinius_darknet::matrix::{col2im, conv_out_dim, im2col, pool_out_dim, try_conv_out_dim};
use plinius_darknet::Layer;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const NO_WINNER: usize = usize::MAX;

/// Oracle: Darknet's per-element `im2col`.
#[allow(clippy::too_many_arguments)]
fn im2col_oracle(
    input: &[f32],
    channels: usize,
    height: usize,
    width: usize,
    ksize: usize,
    stride: usize,
    pad: usize,
    output: &mut [f32],
) {
    let out_h = conv_out_dim(height, ksize, stride, pad);
    let out_w = conv_out_dim(width, ksize, stride, pad);
    let channels_col = channels * ksize * ksize;
    assert!(
        output.len() >= channels_col * out_h * out_w,
        "im2col output too small"
    );
    for c in 0..channels_col {
        let w_offset = c % ksize;
        let h_offset = (c / ksize) % ksize;
        let c_im = c / ksize / ksize;
        for h in 0..out_h {
            for w in 0..out_w {
                let im_row = h_offset as isize + (h * stride) as isize - pad as isize;
                let im_col = w_offset as isize + (w * stride) as isize - pad as isize;
                let col_index = (c * out_h + h) * out_w + w;
                output[col_index] = if im_row < 0
                    || im_col < 0
                    || im_row >= height as isize
                    || im_col >= width as isize
                {
                    0.0
                } else {
                    input[(c_im * height + im_row as usize) * width + im_col as usize]
                };
            }
        }
    }
}

/// Oracle: Darknet's per-element `col2im`.
#[allow(clippy::too_many_arguments)]
fn col2im_oracle(
    column: &[f32],
    channels: usize,
    height: usize,
    width: usize,
    ksize: usize,
    stride: usize,
    pad: usize,
    output: &mut [f32],
) {
    let out_h = conv_out_dim(height, ksize, stride, pad);
    let out_w = conv_out_dim(width, ksize, stride, pad);
    let channels_col = channels * ksize * ksize;
    assert!(
        output.len() >= channels * height * width,
        "col2im output too small"
    );
    for c in 0..channels_col {
        let w_offset = c % ksize;
        let h_offset = (c / ksize) % ksize;
        let c_im = c / ksize / ksize;
        for h in 0..out_h {
            for w in 0..out_w {
                let im_row = h_offset as isize + (h * stride) as isize - pad as isize;
                let im_col = w_offset as isize + (w * stride) as isize - pad as isize;
                if im_row < 0 || im_col < 0 || im_row >= height as isize || im_col >= width as isize
                {
                    continue;
                }
                let col_index = (c * out_h + h) * out_w + w;
                output[(c_im * height + im_row as usize) * width + im_col as usize] +=
                    column[col_index];
            }
        }
    }
}

/// The geometry of one max-pool layer, as `MaxPoolLayer::new` takes it.
#[derive(Debug, Clone, Copy)]
struct Pool {
    in_c: usize,
    in_h: usize,
    in_w: usize,
    size: usize,
    stride: usize,
}

impl Pool {
    fn out_h(&self) -> usize {
        pool_out_dim(self.in_h, self.size, self.stride)
    }

    fn out_w(&self) -> usize {
        pool_out_dim(self.in_w, self.size, self.stride)
    }

    fn inputs(&self) -> usize {
        self.in_c * self.in_h * self.in_w
    }

    fn outputs(&self) -> usize {
        self.in_c * self.out_h() * self.out_w()
    }

    fn layer(&self, batch: usize) -> MaxPoolLayer {
        MaxPoolLayer::new(
            self.in_h,
            self.in_w,
            self.in_c,
            self.size,
            self.stride,
            batch,
        )
    }
}

/// Oracle: Darknet's per-cell max-pool forward, writing the outputs and the winner
/// indexes (`NO_WINNER` for a window with no valid cell).
fn maxpool_oracle(
    pool: &Pool,
    input: &[f32],
    batch: usize,
    output: &mut [f32],
    indexes: &mut [usize],
) {
    let (out_h, out_w) = (pool.out_h(), pool.out_w());
    for b in 0..batch {
        let sample = &input[b * pool.inputs()..(b + 1) * pool.inputs()];
        for c in 0..pool.in_c {
            for oh in 0..out_h {
                for ow in 0..out_w {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = NO_WINNER;
                    for kh in 0..pool.size {
                        for kw in 0..pool.size {
                            let ih = oh * pool.stride + kh;
                            let iw = ow * pool.stride + kw;
                            if ih < pool.in_h && iw < pool.in_w {
                                let idx = (c * pool.in_h + ih) * pool.in_w + iw;
                                if best_idx == NO_WINNER || sample[idx] > best {
                                    best = sample[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                    }
                    let out_idx = b * pool.outputs() + (c * out_h + oh) * out_w + ow;
                    output[out_idx] = if best_idx == NO_WINNER { 0.0 } else { best };
                    indexes[out_idx] = best_idx;
                }
            }
        }
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A value no kernel writes, so a cell the kernel skipped shows in the comparison.
const SENTINEL: f32 = -7.25;

/// Small integers (and both zeros) so pool windows tie often, with about 5 % NaN.
fn tie_prone(rng: &mut StdRng, len: usize) -> Vec<f32> {
    const VALUES: [f32; 6] = [-1.0, -0.0, 0.0, 1.0, 2.0, 3.0];
    (0..len)
        .map(|_| {
            if rng.gen_range(0..20) == 0 {
                f32::NAN
            } else {
                VALUES[rng.gen_range(0..VALUES.len())]
            }
        })
        .collect()
}

fn uniform(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn im2col_matches_the_per_element_loop(
        channels in 1usize..=4,
        height in 1usize..=12,
        width in 1usize..=12,
        ksize in 1usize..=5,
        stride in 1usize..=3,
        pad in 0usize..=3,
        batch in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let out_h = try_conv_out_dim(height, ksize, stride, pad);
        let out_w = try_conv_out_dim(width, ksize, stride, pad);
        prop_assume!(out_h.is_some() && out_w.is_some());
        let cols = channels * ksize * ksize * out_h.unwrap() * out_w.unwrap();
        let in_size = channels * height * width;
        let mut rng = StdRng::seed_from_u64(seed);
        let input = uniform(&mut rng, batch * in_size);
        for sample in input.chunks_exact(in_size) {
            let mut expected = vec![SENTINEL; cols];
            let mut actual = vec![SENTINEL; cols];
            im2col_oracle(sample, channels, height, width, ksize, stride, pad, &mut expected);
            im2col(sample, channels, height, width, ksize, stride, pad, &mut actual);
            prop_assert_eq!(
                bits(&expected),
                bits(&actual),
                "c={} h={} w={} k={} s={} p={}",
                channels, height, width, ksize, stride, pad
            );
        }
    }

    #[test]
    fn col2im_matches_the_per_element_loop(
        channels in 1usize..=4,
        height in 1usize..=12,
        width in 1usize..=12,
        ksize in 1usize..=5,
        stride in 1usize..=3,
        pad in 0usize..=3,
        batch in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let out_h = try_conv_out_dim(height, ksize, stride, pad);
        let out_w = try_conv_out_dim(width, ksize, stride, pad);
        prop_assume!(out_h.is_some() && out_w.is_some());
        let cols = channels * ksize * ksize * out_h.unwrap() * out_w.unwrap();
        let in_size = channels * height * width;
        let mut rng = StdRng::seed_from_u64(seed);
        // A non-zero starting image: the sums then depend on the order in which each
        // element receives its additions, so any reordering shows in the bits.
        let start = uniform(&mut rng, batch * in_size);
        let column = uniform(&mut rng, batch * cols);
        let mut expected = start.clone();
        let mut actual = start;
        for ((col, exp), act) in column
            .chunks_exact(cols)
            .zip(expected.chunks_exact_mut(in_size))
            .zip(actual.chunks_exact_mut(in_size))
        {
            col2im_oracle(col, channels, height, width, ksize, stride, pad, exp);
            col2im(col, channels, height, width, ksize, stride, pad, act);
        }
        prop_assert_eq!(
            bits(&expected),
            bits(&actual),
            "c={} h={} w={} k={} s={} p={}",
            channels, height, width, ksize, stride, pad
        );
    }

    #[test]
    fn maxpool_forward_matches_the_per_cell_loop(
        in_c in 1usize..=4,
        in_h in 1usize..=12,
        in_w in 1usize..=12,
        size in 1usize..=5,
        stride in 1usize..=3,
        batch in 1usize..=3,
        seed in any::<u64>(),
    ) {
        // `MaxPoolLayer::new` rejects windows larger than the input.
        prop_assume!(size <= in_h && size <= in_w);
        let pool = Pool { in_c, in_h, in_w, size, stride };
        let mut rng = StdRng::seed_from_u64(seed);
        let input = tie_prone(&mut rng, batch * pool.inputs());
        let outputs = batch * pool.outputs();
        let mut expected = vec![SENTINEL; outputs];
        let mut winners = vec![0usize; outputs];
        maxpool_oracle(&pool, &input, batch, &mut expected, &mut winners);

        let mut layer = Layer::MaxPool(pool.layer(batch));
        layer.forward(&input, batch);
        prop_assert_eq!(bits(&expected), bits(&layer.output()[..outputs]), "{:?}", pool);

        // Winners are observed through backward: every output routes a distinct delta
        // to its winner, so a different winner changes some input's sum. The oracle's
        // routing adds in the same order, so equal winners give equal bits.
        let deltas: Vec<f32> = (0..outputs).map(|o| (o + 1) as f32).collect();
        layer.delta_mut()[..outputs].copy_from_slice(&deltas);
        let mut routed = vec![0.0f32; batch * pool.inputs()];
        layer.backward(&input, Some(&mut routed), batch);
        let mut oracle_routed = vec![0.0f32; batch * pool.inputs()];
        for (o, (&winner, &delta)) in winners.iter().zip(&deltas).enumerate() {
            if winner != NO_WINNER {
                oracle_routed[(o / pool.outputs()) * pool.inputs() + winner] += delta;
            }
        }
        prop_assert_eq!(bits(&oracle_routed), bits(&routed), "{:?}", pool);
    }
}

/// Best-of-`reps` seconds for each of `runs`, measured round-robin so that clock drift
/// on a shared host hits every run alike and the ratios stay stable.
fn best_of(reps: usize, runs: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; runs.len()];
    for _ in 0..reps {
        for (run, best) in runs.iter_mut().zip(best.iter_mut()) {
            let start = Instant::now();
            run();
            *best = best.min(start.elapsed().as_secs_f64());
        }
    }
    best
}

fn assert_at_least_2x(kernel: &str, times: &[f64]) {
    let (oracle, fast) = (times[0], times[1]);
    let ratio = oracle / fast;
    eprintln!(
        "{kernel}: oracle {:.3} ms, kernel {:.3} ms ({ratio:.2}x)",
        oracle * 1e3,
        fast * 1e3
    );
    assert!(
        ratio >= 2.0,
        "{kernel} only {ratio:.2}x its per-element oracle ({:.3} vs {:.3} ms, floor 2x)",
        fast * 1e3,
        oracle * 1e3
    );
}

/// The data-movement gate at the training benchmark's shapes: `im2col` and `col2im` on
/// its 14x14x16 and 7x7x16 3x3 pad-1 convolutions (conv2, and conv3 and conv4, whose
/// row runs are the shortest) over a 64-sample batch, and the max-pool forward on a
/// 64x16x28x28 batch with 2x2 windows at stride 2. Each kernel must be at least twice as
/// fast as the loop it replaced, best of 15 interleaved runs.
#[test]
#[ignore = "wall-clock throughput gate; run with --release (see CI release job)"]
fn data_movement_kernels_beat_the_per_element_loops() {
    const REPS: usize = 15;
    const BATCH: usize = 64;
    let mut rng = StdRng::seed_from_u64(15);
    for side in [14, 7] {
        // Opaque geometry, as in the network: neither side may specialise on constants.
        let (c, h, w, k, s, p) = black_box((16, side, side, 3, 1, 1));
        let in_size = c * h * w;
        let cols = c * k * k * conv_out_dim(h, k, s, p) * conv_out_dim(w, k, s, p);
        let images = uniform(&mut rng, BATCH * in_size);
        let columns = uniform(&mut rng, BATCH * cols);
        let (mut col_a, mut col_b) = (vec![0.0f32; cols], vec![0.0f32; cols]);
        let (mut img_a, mut img_b) = (vec![0.0f32; in_size], vec![0.0f32; in_size]);

        let times = best_of(
            REPS,
            &mut [
                &mut || {
                    for sample in images.chunks_exact(in_size) {
                        im2col_oracle(sample, c, h, w, k, s, p, &mut col_a);
                    }
                },
                &mut || {
                    for sample in images.chunks_exact(in_size) {
                        im2col(sample, c, h, w, k, s, p, &mut col_b);
                    }
                },
            ],
        );
        assert_at_least_2x(&format!("im2col {h}x{w}x{c} k3 p1 x64"), &times);

        let times = best_of(
            REPS,
            &mut [
                &mut || {
                    for column in columns.chunks_exact(cols) {
                        col2im_oracle(column, c, h, w, k, s, p, &mut img_a);
                    }
                },
                &mut || {
                    for column in columns.chunks_exact(cols) {
                        col2im(column, c, h, w, k, s, p, &mut img_b);
                    }
                },
            ],
        );
        assert_at_least_2x(&format!("col2im {h}x{w}x{c} k3 p1 x64"), &times);
    }

    let pool = black_box(Pool {
        in_c: 16,
        in_h: 28,
        in_w: 28,
        size: 2,
        stride: 2,
    });
    let input = uniform(&mut rng, BATCH * pool.inputs());
    let mut output = vec![0.0f32; BATCH * pool.outputs()];
    let mut indexes = vec![0usize; BATCH * pool.outputs()];
    let mut layer = Layer::MaxPool(pool.layer(BATCH));
    let times = best_of(
        REPS,
        &mut [
            &mut || maxpool_oracle(&pool, &input, BATCH, &mut output, &mut indexes),
            &mut || layer.forward(&input, BATCH),
        ],
    );
    assert_at_least_2x("maxpool forward 64x16x28x28 2x2 s2", &times);
}
