//! Incremental inference: prefix-activation caching and the suffix pass.
//!
//! DeepSZ's error-bound assessment (Algorithm 1) evaluates the network
//! hundreds of times, each time with exactly *one* fc layer's weights
//! perturbed. Everything upstream of that layer is unchanged between
//! tests, so its activations can be computed once and replayed — the same
//! structure COMET exploits for repeated lossy-compression evaluation.
//! This module provides the two halves:
//!
//! * [`PrefixCache`] — one full forward sweep over an evaluation set that
//!   records, per evaluation batch, the activations entering every
//!   requested layer boundary (plus the final network output, so the
//!   baseline accuracy costs nothing extra).
//! * [`Network::forward_from`] — the suffix pass: resume the forward pass
//!   at a boundary from its cached input, optionally substituting the
//!   boundary layer itself, writing every intermediate activation into
//!   caller-owned [`SuffixScratch`] buffers so steady-state evaluation
//!   allocates nothing.
//!
//! Both halves run the *same* layer arithmetic as [`Network::forward`]
//! (every dense step goes through [`WeightView::matmul_transb`] and the
//! same bias loop), so a suffix pass over a cached prefix is bit-identical
//! to a full pass — the property `dsz_core`'s incremental assessment
//! relies on and pins in its equivalence suite. A substituted boundary
//! layer may bring its weights in CSR form; for finite activations that
//! changes no bit either (`docs/PARALLEL.md`). Ownership rules and the
//! memory model are documented in `docs/ASSESSMENT.md`.

use crate::layers::add_bias;
use crate::{Batch, Dataset, DenseLayer, Layer, Network};
use dsz_tensor::{VolShape, WeightView};

/// Activations recorded for one evaluation batch.
struct CachedBatch {
    /// Samples in this batch.
    n: usize,
    /// Input activations at each cached boundary, in [`PrefixCache`]
    /// boundary order.
    per_boundary: Vec<Vec<f32>>,
    /// The full network's output for this batch.
    output: Vec<f32>,
}

/// Per-batch activations at a fixed set of layer boundaries, recorded by
/// one forward sweep over an evaluation set.
///
/// Memory: every boundary holds `samples × boundary_features × 4` bytes
/// for the whole dataset — for fc heads this is a few activation vectors
/// per sample, far below the weight matrices being assessed. Use
/// [`PrefixCache::cached_bytes`] to audit.
pub struct PrefixCache {
    /// Cached layer indices, ascending.
    boundaries: Vec<usize>,
    /// Activation shape entering each boundary.
    shapes: Vec<VolShape>,
    /// Shape of the network output.
    out_shape: VolShape,
    /// One record per evaluation batch, in dataset order.
    batches: Vec<CachedBatch>,
}

impl PrefixCache {
    /// Runs `net` over `data` in batches of `batch`, recording the input
    /// activations at every layer index in `boundaries` plus the final
    /// output. Boundary indices must be strictly ascending and in range.
    pub fn build(net: &Network, data: &Dataset, batch: usize, boundaries: &[usize]) -> Self {
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "boundaries must be strictly ascending"
        );
        assert!(
            boundaries.iter().all(|&b| b < net.layers.len()),
            "boundary beyond layer count"
        );
        let mut shapes = Vec::with_capacity(boundaries.len());
        {
            let mut shape = net.input_shape;
            let mut bi = 0usize;
            for (li, layer) in net.layers.iter().enumerate() {
                if bi < boundaries.len() && boundaries[bi] == li {
                    shapes.push(shape);
                    bi += 1;
                }
                shape = layer.output_shape(shape);
            }
        }
        let mut batches = Vec::new();
        let mut lo = 0usize;
        while lo < data.len() {
            let hi = (lo + batch.max(1)).min(data.len());
            let mut cur = data.batch(lo, hi);
            assert_eq!(cur.shape, net.input_shape, "input shape mismatch");
            let mut per_boundary = Vec::with_capacity(boundaries.len());
            let mut bi = 0usize;
            for (li, layer) in net.layers.iter().enumerate() {
                if bi < boundaries.len() && boundaries[bi] == li {
                    per_boundary.push(cur.data.clone());
                    bi += 1;
                }
                let (next, _aux) = layer.forward(&cur);
                cur = next;
            }
            batches.push(CachedBatch {
                n: cur.n,
                per_boundary,
                output: cur.data,
            });
            lo = hi;
        }
        Self {
            boundaries: boundaries.to_vec(),
            shapes,
            out_shape: net.output_shape(),
            batches,
        }
    }

    /// The cached layer boundaries, ascending.
    pub fn boundaries(&self) -> &[usize] {
        &self.boundaries
    }

    /// Number of evaluation batches recorded.
    pub fn batch_count(&self) -> usize {
        self.batches.len()
    }

    /// Cached input to layer `layer_index` for evaluation batch `batch`:
    /// `(samples, per-sample shape, activations)`. Panics when the layer
    /// was not requested at build time.
    pub fn batch_input(&self, layer_index: usize, batch: usize) -> (usize, VolShape, &[f32]) {
        let bi = self
            .boundaries
            .iter()
            .position(|&b| b == layer_index)
            .expect("layer boundary not cached");
        let cb = &self.batches[batch];
        (cb.n, self.shapes[bi], &cb.per_boundary[bi])
    }

    /// The full network's output for evaluation batch `batch`:
    /// `(samples, per-sample output features, values)`.
    pub fn batch_output(&self, batch: usize) -> (usize, usize, &[f32]) {
        let cb = &self.batches[batch];
        (cb.n, self.out_shape.len(), &cb.output)
    }

    /// Total bytes held by the cached activations.
    pub fn cached_bytes(&self) -> usize {
        self.batches
            .iter()
            .map(|b| {
                (b.output.len() + b.per_boundary.iter().map(Vec::len).sum::<usize>())
                    * std::mem::size_of::<f32>()
            })
            .sum()
    }
}

/// Caller-owned activation buffers for [`Network::forward_from`]. The two
/// buffers are ping-ponged between consecutive layers; after the first few
/// calls they reach the suffix's widest activation size and no further
/// allocation occurs (capacity is only ever grown, never shrunk).
#[derive(Default)]
pub struct SuffixScratch {
    a: Vec<f32>,
    b: Vec<f32>,
}

/// Which storage currently holds the running activation.
#[derive(Clone, Copy, PartialEq)]
enum Cur {
    /// Still the borrowed cached input (no layer has produced output yet).
    Input,
    /// `SuffixScratch::a`.
    A,
    /// `SuffixScratch::b`.
    B,
}

impl Network {
    /// Resumes the forward pass at layer `from`, given `input` — the
    /// activations entering that layer (`n` samples of `shape`, typically
    /// from a [`PrefixCache`]) — and returns the network output slice.
    ///
    /// `replace_first`, when set, is used *in place of* `self.layers[from]`
    /// (which must be dense): the layer `d` with weights `w` — `d` brings
    /// the name, shape and bias, `w` the weights, dense or sparse (often
    /// `d`'s own). This is how assessment tests a candidate weight
    /// reconstruction without cloning the network — the candidate lives
    /// in the caller's scratch and the original network is never touched.
    ///
    /// All intermediate activations live in `scratch`; aside from buffer
    /// growth (and the conv/pool fallback below) the pass allocates
    /// nothing. Dense, ReLU, and Flatten suffixes — every fc head — are
    /// fully scratch-resident; a Conv/MaxPool layer appearing *after* the
    /// resume point (never the case for DeepSZ's fc suffixes) falls back
    /// to the allocating [`Layer::forward`].
    ///
    /// The output is bit-identical to `self.forward(x)` with the same
    /// candidate layer swapped in, because both paths run the same kernel
    /// per layer.
    pub fn forward_from<'s>(
        &self,
        from: usize,
        replace_first: Option<(&DenseLayer, WeightView<'_>)>,
        n: usize,
        shape: VolShape,
        input: &[f32],
        scratch: &'s mut SuffixScratch,
    ) -> &'s [f32] {
        assert!(from < self.layers.len(), "suffix start beyond layer count");
        assert_eq!(input.len(), n * shape.len(), "suffix input length mismatch");
        if replace_first.is_some() {
            assert!(
                matches!(self.layers[from], Layer::Dense(_)),
                "replace_first requires a dense boundary layer"
            );
        }
        let mut cur = Cur::Input;
        let mut cur_shape = shape;
        for (off, layer) in self.layers[from..].iter().enumerate() {
            // The candidate substitutes the boundary layer by reference —
            // cloning it here would defeat the scratch design.
            if off == 0 {
                if let Some((d, w)) = replace_first {
                    let out_shape = VolShape {
                        c: d.w.rows,
                        h: 1,
                        w: 1,
                    };
                    step_dense(d, w, &mut cur, cur_shape, n, input, scratch);
                    cur_shape = out_shape;
                    continue;
                }
            }
            let out_shape = layer.output_shape(cur_shape);
            step_layer(layer, &mut cur, cur_shape, n, input, scratch);
            cur_shape = out_shape;
        }
        finish(cur, input, scratch)
    }
}

/// Runs one suffix layer, advancing `cur` to whichever scratch buffer the
/// output landed in. Flatten is a pure shape change and leaves the data
/// where it is.
fn step_layer(
    layer: &Layer,
    cur: &mut Cur,
    cur_shape: VolShape,
    n: usize,
    input: &[f32],
    scratch: &mut SuffixScratch,
) {
    match layer {
        Layer::Flatten => {}
        Layer::Dense(d) => step_dense(
            d,
            WeightView::Dense(&d.w.data),
            cur,
            cur_shape,
            n,
            input,
            scratch,
        ),
        Layer::ReLU => {
            let (src, dst, next): (&[f32], &mut Vec<f32>, Cur) = match *cur {
                Cur::Input => (input, &mut scratch.a, Cur::A),
                Cur::A => (&scratch.a, &mut scratch.b, Cur::B),
                Cur::B => (&scratch.b, &mut scratch.a, Cur::A),
            };
            dst.clear();
            dst.extend(src.iter().map(|&v| v.max(0.0)));
            *cur = next;
        }
        Layer::Conv(_) | Layer::MaxPool2 { .. } => {
            // Never part of an fc suffix in practice; correctness fallback
            // through the allocating forward.
            let src = match *cur {
                Cur::Input => input,
                Cur::A => &scratch.a,
                Cur::B => &scratch.b,
            };
            let x = Batch {
                n,
                shape: cur_shape,
                data: src.to_vec(),
            };
            let (y, _aux) = layer.forward(&x);
            let (dst, next) = match *cur {
                Cur::Input | Cur::B => (&mut scratch.a, Cur::A),
                Cur::A => (&mut scratch.b, Cur::B),
            };
            dst.clear();
            dst.extend_from_slice(&y.data);
            *cur = next;
        }
    }
}

/// The dense step, shared by the in-place layer walk and the candidate
/// substitution: layer `d` with weights `w`. The source is one scratch
/// buffer (or the cached input); the destination is always the *other*
/// buffer, so the borrows split.
fn step_dense(
    d: &DenseLayer,
    w: WeightView<'_>,
    cur: &mut Cur,
    cur_shape: VolShape,
    n: usize,
    input: &[f32],
    scratch: &mut SuffixScratch,
) {
    let feats = cur_shape.len();
    assert_eq!(feats, d.w.cols, "dense {}: input features", d.name);
    let (src, dst, next): (&[f32], &mut Vec<f32>, Cur) = match *cur {
        Cur::Input => (input, &mut scratch.a, Cur::A),
        Cur::A => (&scratch.a, &mut scratch.b, Cur::B),
        Cur::B => (&scratch.b, &mut scratch.a, Cur::A),
    };
    w.matmul_transb(src, n, feats, d.w.rows, dst);
    // Identical bias application to `Layer::forward`'s dense arm.
    add_bias(d, dst);
    *cur = next;
}

/// Returns the final activation from scratch storage. An all-Flatten (or
/// empty) suffix never left the borrowed input; copy it into scratch so
/// the return lifetime is uniform.
fn finish<'s>(cur: Cur, input: &[f32], scratch: &'s mut SuffixScratch) -> &'s [f32] {
    match cur {
        Cur::Input => {
            scratch.a.clear();
            scratch.a.extend_from_slice(input);
            &scratch.a
        }
        Cur::A => &scratch.a,
        Cur::B => &scratch.b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{zoo, Arch, Scale};
    use dsz_tensor::VolShape;

    fn digitish_dataset(n: usize, shape: VolShape, seed: u64) -> Dataset {
        let mut s = seed;
        let mut x = Vec::with_capacity(n * shape.len());
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            for _ in 0..shape.len() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                x.push(((s >> 33) as f32 / (1u64 << 31) as f32).abs().min(1.0));
            }
            labels.push((i % 10) as u16);
        }
        Dataset { shape, x, labels }
    }

    /// The cache + suffix pass must reproduce the full forward pass
    /// bit-for-bit at every dense boundary, including past a conv prefix.
    #[test]
    fn suffix_pass_is_bit_identical_to_full_forward() {
        for arch in [Arch::LeNet300, Arch::LeNet5] {
            let net = zoo::build(arch, Scale::Full, 11);
            let data = digitish_dataset(37, net.input_shape, 5);
            let boundaries: Vec<usize> = net.fc_layers().iter().map(|fc| fc.layer_index).collect();
            let cache = PrefixCache::build(&net, &data, 16, &boundaries);
            assert!(cache.cached_bytes() > 0);
            let mut scratch = SuffixScratch::default();
            let mut lo = 0usize;
            for bi in 0..cache.batch_count() {
                let hi = (lo + 16).min(data.len());
                let full = net.forward(&data.batch(lo, hi));
                let (n_out, feats, cached_out) = cache.batch_output(bi);
                assert_eq!((n_out, feats), (full.n, full.features()));
                assert_eq!(cached_out, &full.data[..], "{arch:?} cached output");
                for &b in &boundaries {
                    let (n, shape, input) = cache.batch_input(b, bi);
                    let out = net.forward_from(b, None, n, shape, input, &mut scratch);
                    assert_eq!(out, &full.data[..], "{arch:?} suffix from layer {b}");
                }
                lo = hi;
            }
        }
    }

    /// Substituting a perturbed dense layer through the suffix pass must
    /// equal mutating a cloned network and running it end to end.
    #[test]
    fn candidate_substitution_matches_mutated_network() {
        let net = zoo::build(Arch::LeNet300, Scale::Full, 23);
        let data = digitish_dataset(21, net.input_shape, 9);
        let fcs = net.fc_layers();
        let boundaries: Vec<usize> = fcs.iter().map(|fc| fc.layer_index).collect();
        let cache = PrefixCache::build(&net, &data, 8, &boundaries);
        let mut scratch = SuffixScratch::default();
        for fc in &fcs {
            let mut candidate = net.dense(fc.layer_index).clone();
            for (i, w) in candidate.w.data.iter_mut().enumerate() {
                *w += (i % 7) as f32 * 1e-3;
            }
            let mut mutated = net.clone();
            *mutated.dense_mut(fc.layer_index) = candidate.clone();
            let mut lo = 0usize;
            for bi in 0..cache.batch_count() {
                let hi = (lo + 8).min(data.len());
                let want = mutated.forward(&data.batch(lo, hi));
                let (n, shape, input) = cache.batch_input(fc.layer_index, bi);
                let got = net.forward_from(
                    fc.layer_index,
                    Some((&candidate, WeightView::Dense(&candidate.w.data))),
                    n,
                    shape,
                    input,
                    &mut scratch,
                );
                assert_eq!(got, &want.data[..], "layer {}", fc.name);
                lo = hi;
            }
        }
    }

    /// Steady-state suffix evaluation must not grow the scratch buffers.
    #[test]
    fn scratch_reaches_steady_state() {
        let net = zoo::build(Arch::LeNet300, Scale::Full, 31);
        let data = digitish_dataset(16, net.input_shape, 3);
        let b = net.fc_layers()[0].layer_index;
        let cache = PrefixCache::build(&net, &data, 16, &[b]);
        let mut scratch = SuffixScratch::default();
        let (n, shape, input) = cache.batch_input(b, 0);
        net.forward_from(b, None, n, shape, input, &mut scratch);
        let caps = (scratch.a.capacity(), scratch.b.capacity());
        for _ in 0..3 {
            net.forward_from(b, None, n, shape, input, &mut scratch);
            assert_eq!(
                (scratch.a.capacity(), scratch.b.capacity()),
                caps,
                "steady-state pass must not reallocate"
            );
        }
    }
}
