//! Max-pooling layer: spatial down-sampling with winner-take-all gradient routing.
//!
//! Output dimensions use the cover-the-input convention ([`pool_out_dim`]): the final
//! window of a non-stride-divisible input hangs over the edge and pools only its valid
//! cells. A window with *no* valid cell (possible when `stride > size`) outputs `0.0`
//! and records the `NO_WINNER` sentinel so the backward pass routes no gradient —
//! previously such windows kept index 0 and leaked a spurious delta into input cell 0.

use crate::matrix::pool_out_dim;

/// Sentinel stored in `indexes` for pool windows that contain no valid input cell; the
/// backward pass skips gradient routing for them.
const NO_WINNER: usize = usize::MAX;

/// A 2-D max-pooling layer.
#[derive(Debug, Clone)]
pub struct MaxPoolLayer {
    in_h: usize,
    in_w: usize,
    in_c: usize,
    size: usize,
    stride: usize,
    out_h: usize,
    out_w: usize,
    output: Vec<f32>,
    delta: Vec<f32>,
    /// Index (into the per-sample input) of the winning element for every output, used
    /// to route the gradient during the backward pass; `NO_WINNER` marks windows with
    /// no valid input cell.
    indexes: Vec<usize>,
}

impl MaxPoolLayer {
    /// Creates a max-pooling layer over inputs of shape `(in_c, in_h, in_w)`.
    ///
    /// # Panics
    ///
    /// Panics if the pooling window is larger than the input.
    pub fn new(
        in_h: usize,
        in_w: usize,
        in_c: usize,
        size: usize,
        stride: usize,
        batch: usize,
    ) -> Self {
        assert!(size > 0 && stride > 0, "bad pooling geometry");
        assert!(
            size <= in_h && size <= in_w,
            "pooling window larger than input"
        );
        let out_h = pool_out_dim(in_h, size, stride);
        let out_w = pool_out_dim(in_w, size, stride);
        let outputs = in_c * out_h * out_w;
        MaxPoolLayer {
            in_h,
            in_w,
            in_c,
            size,
            stride,
            out_h,
            out_w,
            output: vec![0.0; outputs * batch],
            delta: vec![0.0; outputs * batch],
            indexes: vec![0; outputs * batch],
        }
    }

    /// Number of inputs per sample.
    pub fn inputs(&self) -> usize {
        self.in_c * self.in_h * self.in_w
    }

    /// Number of outputs per sample.
    pub fn outputs(&self) -> usize {
        self.in_c * self.out_h * self.out_w
    }

    /// Output shape `(channels, height, width)`.
    pub fn out_shape(&self) -> (usize, usize, usize) {
        (self.in_c, self.out_h, self.out_w)
    }

    fn ensure_batch(&mut self, batch: usize) {
        let needed = self.outputs() * batch;
        if self.output.len() < needed {
            self.output.resize(needed, 0.0);
            self.delta.resize(needed, 0.0);
            self.indexes.resize(needed, 0);
        }
    }

    /// Forward pass.
    ///
    /// Every window that lies wholly inside the input is pooled with a branch-free
    /// select: its first cell seeds the maximum, and a later cell replaces it only when
    /// strictly greater, so a tie keeps the first cell and a NaN never wins (a NaN first
    /// cell stays). The trailing windows that hang over the edge pool their valid cells
    /// one at a time with the same rule.
    ///
    /// # Panics
    ///
    /// Panics if `input` is shorter than `batch * inputs()`.
    pub fn forward(&mut self, input: &[f32], batch: usize) {
        assert!(
            input.len() >= batch * self.inputs(),
            "maxpool input too small"
        );
        self.ensure_batch(batch);
        let (in_h, in_w, size, stride) = (self.in_h, self.in_w, self.size, self.stride);
        let (out_h, out_w) = (self.out_h, self.out_w);
        // Windows wholly inside the input; `new` guarantees `size <= in_h, in_w`.
        let full_h = (in_h - size) / stride + 1;
        let full_w = (in_w - size) / stride + 1;
        let plane_in = in_h * in_w;
        let plane_out = out_h * out_w;
        let planes = batch * self.in_c;
        let outputs = self.output[..planes * plane_out].chunks_exact_mut(plane_out);
        let indexes = self.indexes[..planes * plane_out].chunks_exact_mut(plane_out);
        for (p, (out, idx)) in outputs.zip(indexes).enumerate() {
            let plane = &input[p * plane_in..][..plane_in];
            // Winner indexes are relative to the sample, so they include the channel.
            let base = (p % self.in_c) * plane_in;
            for oh in 0..out_h {
                let out = &mut out[oh * out_w..][..out_w];
                let idx = &mut idx[oh * out_w..][..out_w];
                let edge_from = if oh < full_h {
                    let top = oh * stride * in_w;
                    let band = &plane[top..][..(size - 1) * in_w + (full_w - 1) * stride + size];
                    let (out, idx) = (&mut out[..full_w], &mut idx[..full_w]);
                    // The literal 2 lets the compiler unroll the common 2x2 window.
                    if size == 2 {
                        pool_inner_row(band, in_w, 2, stride, base + top, out, idx);
                    } else {
                        pool_inner_row(band, in_w, size, stride, base + top, out, idx);
                    }
                    full_w
                } else {
                    0
                };
                for ow in edge_from..out_w {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = NO_WINNER;
                    for kh in 0..size {
                        for kw in 0..size {
                            let ih = oh * stride + kh;
                            let iw = ow * stride + kw;
                            if ih < in_h && iw < in_w {
                                let cell = ih * in_w + iw;
                                if best_idx == NO_WINNER || plane[cell] > best {
                                    best = plane[cell];
                                    best_idx = base + cell;
                                }
                            }
                        }
                    }
                    // An empty window (no valid cell) outputs 0.0, not -inf, and keeps the
                    // sentinel so backward routes nothing.
                    out[ow] = if best_idx == NO_WINNER { 0.0 } else { best };
                    idx[ow] = best_idx;
                }
            }
        }
    }

    /// Backward pass: routes each output delta to the winning input position. Windows
    /// without a winner (the `NO_WINNER` sentinel) route nothing.
    pub fn backward(&mut self, _input: &[f32], prev_delta: Option<&mut [f32]>, batch: usize) {
        let Some(prev) = prev_delta else { return };
        for b in 0..batch {
            for o in 0..self.outputs() {
                let out_idx = b * self.outputs() + o;
                if self.indexes[out_idx] == NO_WINNER {
                    continue;
                }
                let in_idx = b * self.inputs() + self.indexes[out_idx];
                prev[in_idx] += self.delta[out_idx];
            }
        }
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

    /// Approximate FLOPs per sample (comparisons counted as one op each).
    pub fn flops_per_sample(&self) -> u64 {
        (self.outputs() * self.size * self.size) as u64
    }
}

/// Pools one output row of windows that lie wholly inside the input. `band` starts at
/// the window row's first input cell, and `offset` is that cell's index within the
/// sample. Always inlined, so that a call with a literal `size` unrolls the cell loop
/// into selects.
#[inline(always)]
fn pool_inner_row(
    band: &[f32],
    in_w: usize,
    size: usize,
    stride: usize,
    offset: usize,
    out: &mut [f32],
    idx: &mut [usize],
) {
    for (ow, (out, idx)) in out.iter_mut().zip(idx).enumerate() {
        let left = ow * stride;
        let mut best = (band[left], left);
        for kh in 0..size {
            let row = kh * in_w + left;
            for (kw, &value) in band[row..row + size].iter().enumerate() {
                // Strictly greater: a tie keeps the earlier cell, and a NaN neither wins
                // nor is displaced.
                let greater = value > best.0;
                best.0 = if greater { value } else { best.0 };
                best.1 = if greater { row + kw } else { best.1 };
            }
        }
        *out = best.0;
        *idx = offset + best.1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_maxima_of_each_window() {
        let mut l = MaxPoolLayer::new(4, 4, 1, 2, 2, 1);
        assert_eq!(l.out_shape(), (1, 2, 2));
        #[rustfmt::skip]
        let input = vec![
            1.0, 2.0, 5.0, 6.0,
            3.0, 4.0, 7.0, 8.0,
            9.0, 10.0, 13.0, 14.0,
            11.0, 12.0, 15.0, 16.0,
        ];
        l.forward(&input, 1);
        assert_eq!(l.output(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn backward_routes_delta_to_argmax() {
        let mut l = MaxPoolLayer::new(2, 2, 1, 2, 2, 1);
        let input = vec![1.0, 9.0, 3.0, 4.0];
        l.forward(&input, 1);
        l.delta_mut()[0] = 2.5;
        let mut prev = vec![0.0; 4];
        l.backward(&input, Some(&mut prev), 1);
        assert_eq!(prev, vec![0.0, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn multi_channel_and_batch() {
        let mut l = MaxPoolLayer::new(2, 2, 2, 2, 2, 2);
        assert_eq!(l.outputs(), 2);
        // Two samples, two channels of 2x2 each.
        let sample: Vec<f32> = vec![1.0, 2.0, 3.0, 4.0, 8.0, 7.0, 6.0, 5.0];
        let mut input = sample.clone();
        input.extend(sample.iter().map(|v| v * 10.0));
        l.forward(&input, 2);
        assert_eq!(l.output()[..2], [4.0, 8.0]);
        assert_eq!(l.output()[2..4], [40.0, 80.0]);
        assert!(l.flops_per_sample() > 0);
    }

    #[test]
    #[should_panic(expected = "larger than input")]
    fn window_larger_than_input_is_rejected() {
        let _ = MaxPoolLayer::new(2, 2, 1, 3, 1, 1);
    }

    #[test]
    fn partial_edge_windows_pool_their_valid_cells() {
        // 5x5 input, 2x2 window, stride 2: out is 3x3 and the last row/column of
        // windows hangs over the edge, pooling only the valid cells.
        let mut l = MaxPoolLayer::new(5, 5, 1, 2, 2, 1);
        assert_eq!(l.out_shape(), (1, 3, 3));
        let input: Vec<f32> = (0..25).map(|v| v as f32).collect();
        l.forward(&input, 1);
        #[rustfmt::skip]
        let expected = vec![
            6.0, 8.0, 9.0,     // row windows over input rows 0-1 (col 4 partial)
            16.0, 18.0, 19.0,  // rows 2-3
            21.0, 23.0, 24.0,  // row 4 only (partial in both axes)
        ];
        assert_eq!(l.output(), &expected[..]);
        // The corner window contains exactly input[24]; its delta routes there — and
        // nowhere spuriously (in particular not into input index 0).
        l.delta_mut().iter_mut().for_each(|d| *d = 0.0);
        l.delta_mut()[8] = 1.5;
        let mut prev = vec![0.0f32; 25];
        l.backward(&input, Some(&mut prev), 1);
        let mut expected_prev = vec![0.0f32; 25];
        expected_prev[24] = 1.5;
        assert_eq!(prev, expected_prev);
    }

    #[test]
    fn empty_windows_output_zero_and_route_no_gradient() {
        // Regression: with stride > size some windows start beyond the input
        // (6 wide, 1x1 window, stride 4 -> starts at 0, 4 and 8; 8 is out of range).
        // The old code left the output at -inf and `indexes` at 0, so backward leaked
        // a spurious delta into input cell 0.
        let mut l = MaxPoolLayer::new(6, 6, 1, 1, 4, 1);
        assert_eq!(l.out_shape(), (1, 3, 3));
        let input: Vec<f32> = (0..36).map(|v| v as f32 + 1.0).collect();
        l.forward(&input, 1);
        // Window (2,2) starts at input (8,8): empty.
        assert_eq!(l.output()[8], 0.0);
        assert!(l.output().iter().all(|v| v.is_finite()));
        // Route a delta out of every output, including the empty ones.
        l.delta_mut().iter_mut().for_each(|d| *d = 1.0);
        let mut prev = vec![0.0f32; 36];
        l.backward(&input, Some(&mut prev), 1);
        // The four valid windows route 1.0 each to their (single-cell) winners...
        assert_eq!(prev[0], 1.0);
        assert_eq!(prev[4], 1.0);
        assert_eq!(prev[4 * 6], 1.0);
        assert_eq!(prev[4 * 6 + 4], 1.0);
        // ...and nothing else receives anything: no spurious delta into cell 0 beyond
        // its own window's contribution.
        assert_eq!(prev.iter().sum::<f32>(), 4.0);
    }
}
