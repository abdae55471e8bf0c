//! Accuracy evaluation plumbing.
//!
//! Algorithm 1 needs many forward-pass accuracy tests. Because DeepSZ never
//! touches conv layers, the conv features of the test set can be computed
//! once and cached; every subsequent test only runs the fc head. This is the
//! same reason the paper's per-test cost is a forward pass, not a retrain.
//!
//! [`IncrementalEvaluator`] pushes the idea one layer further: *within* the
//! fc head, a test that perturbs layer ℓ leaves every activation upstream
//! of ℓ unchanged, so those are cached too ([`dsz_nn::PrefixCache`]) and a
//! test pays only the suffix from ℓ onward, into caller-owned scratch —
//! the engine behind incremental assessment (see `docs/ASSESSMENT.md`).

use dsz_nn::{accuracy, count_topk_hits, Dataset, DenseLayer, Network, PrefixCache, SuffixScratch};
use dsz_tensor::WeightView;

/// Something that can score a network's top-1 accuracy on the test set.
pub trait AccuracyEvaluator: Sync {
    /// Top-1 accuracy in `[0, 1]`.
    fn evaluate(&self, net: &Network) -> f64;

    /// Top-1 and top-k accuracy (k = 5 by default, like the paper).
    fn evaluate_topk(&self, net: &Network) -> (f64, f64);

    /// The dataset and batch size behind this evaluator, when
    /// [`AccuracyEvaluator::evaluate`] is exactly a batched top-1 sweep of
    /// a dataset (`dsz_nn::accuracy` semantics). Assessment uses this to
    /// build its incremental engine; the `None` default keeps custom
    /// evaluators opaque and routes them through the full-evaluation
    /// reference path. Implementations returning `Some` promise that
    /// `evaluate(net)` equals the batched sweep bit for bit — incremental
    /// and full assessment are interchangeable only under that contract.
    fn dataset(&self) -> Option<(&Dataset, usize)> {
        None
    }
}

/// Evaluates on a held-out [`Dataset`] in fixed-size batches.
#[derive(Debug, Clone)]
pub struct DatasetEvaluator {
    /// Test data (inputs must match the network's input shape).
    pub data: Dataset,
    /// Evaluation batch size.
    pub batch: usize,
    /// k for the top-k metric.
    pub topk: usize,
}

impl DatasetEvaluator {
    /// Standard configuration: batch 256, top-5.
    pub fn new(data: Dataset) -> Self {
        Self {
            data,
            batch: 256,
            topk: 5,
        }
    }
}

impl AccuracyEvaluator for DatasetEvaluator {
    fn evaluate(&self, net: &Network) -> f64 {
        accuracy(net, &self.data, self.batch, self.topk).0
    }

    fn evaluate_topk(&self, net: &Network) -> (f64, f64) {
        accuracy(net, &self.data, self.batch, self.topk)
    }

    fn dataset(&self) -> Option<(&Dataset, usize)> {
        Some((&self.data, self.batch))
    }
}

/// Incremental accuracy evaluation for single-layer perturbations.
///
/// Built once per assessment: one full forward sweep over the evaluation
/// set records the activations entering every fc layer (and the baseline
/// outputs). Scoring a candidate reconstruction of layer ℓ then replays
/// only the suffix from ℓ, with the candidate's weights substituted by
/// reference — no network clone, no per-test allocation beyond the
/// caller's scratch growth. Results are bit-identical to evaluating a
/// mutated clone of the full network, because prefix activations are
/// byte-equal by construction and the suffix runs the same kernels
/// ([`dsz_nn::Network::forward_from`]) — or, for a candidate given in CSR
/// form ([`IncrementalEvaluator::evaluate_weights`]), the sparse kernel
/// that reproduces the dense one's bits for finite activations.
pub struct IncrementalEvaluator<'a> {
    net: &'a Network,
    data: &'a Dataset,
    cache: PrefixCache,
    baseline_top1: f64,
}

impl<'a> IncrementalEvaluator<'a> {
    /// Runs the prefix sweep over `data` in batches of `batch`, caching
    /// activations at every fc-layer input boundary of `net`.
    pub fn new(net: &'a Network, data: &'a Dataset, batch: usize) -> Self {
        let boundaries: Vec<usize> = net.fc_layers().iter().map(|fc| fc.layer_index).collect();
        let cache = PrefixCache::build(net, data, batch, &boundaries);
        let baseline_top1 = if data.is_empty() {
            0.0
        } else {
            let mut hits = 0usize;
            let mut lo = 0usize;
            for bi in 0..cache.batch_count() {
                let (bn, feats, out) = cache.batch_output(bi);
                hits += count_topk_hits(out, feats, data.label_slice(lo, lo + bn), 1);
                lo += bn;
            }
            hits as f64 / data.len() as f64
        };
        Self {
            net,
            data,
            cache,
            baseline_top1,
        }
    }

    /// Baseline top-1 accuracy of the unperturbed network, measured from
    /// the cached outputs (identical to `evaluate(net)` on the dataset).
    pub fn baseline(&self) -> f64 {
        self.baseline_top1
    }

    /// Bytes held by the cached prefix activations.
    pub fn cached_bytes(&self) -> usize {
        self.cache.cached_bytes()
    }

    /// Top-1 accuracy with `candidate` substituted for the dense layer at
    /// `layer_index`. `scratch` is caller-owned so concurrent tests of
    /// different candidates each bring their own buffers.
    pub fn evaluate_candidate(
        &self,
        layer_index: usize,
        candidate: &DenseLayer,
        scratch: &mut SuffixScratch,
    ) -> f64 {
        let weights = WeightView::Dense(&candidate.w.data);
        self.evaluate_with(layer_index, candidate, weights, scratch)
    }

    /// Top-1 accuracy with the dense layer at `layer_index` multiplying
    /// `weights` instead of its own — the candidate reconstruction as
    /// assessment builds it, typically in CSR form. Bias and shape are
    /// the network's.
    pub fn evaluate_weights(
        &self,
        layer_index: usize,
        weights: WeightView<'_>,
        scratch: &mut SuffixScratch,
    ) -> f64 {
        self.evaluate_with(layer_index, self.net.dense(layer_index), weights, scratch)
    }

    /// Top-1 accuracy with `layer` multiplying `weights` at `layer_index`.
    fn evaluate_with(
        &self,
        layer_index: usize,
        layer: &DenseLayer,
        weights: WeightView<'_>,
        scratch: &mut SuffixScratch,
    ) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let mut hits = 0usize;
        let mut lo = 0usize;
        for bi in 0..self.cache.batch_count() {
            let (bn, shape, input) = self.cache.batch_input(layer_index, bi);
            let out = self.net.forward_from(
                layer_index,
                Some((layer, weights)),
                bn,
                shape,
                input,
                scratch,
            );
            let feats = self.cache.batch_output(bi).1;
            hits += count_topk_hits(out, feats, self.data.label_slice(lo, lo + bn), 1);
            lo += bn;
        }
        hits as f64 / self.data.len() as f64
    }
}

/// Splits `net` into conv prefix + fc head, runs the prefix over `data`
/// once, and returns the head network together with the cached feature
/// dataset. Evaluating the head on the features equals evaluating the full
/// network on the images.
pub fn cache_features(net: &Network, data: &Dataset, batch: usize) -> (Network, Dataset) {
    let (prefix, head) = net.split_feature_head();
    if prefix.layers.is_empty() {
        return (head, data.clone());
    }
    let feat_dim = prefix.output_shape();
    let mut x = Vec::with_capacity(data.len() * feat_dim.len());
    let mut lo = 0usize;
    while lo < data.len() {
        let hi = (lo + batch).min(data.len());
        let out = prefix.forward(&data.batch(lo, hi));
        x.extend_from_slice(&out.data);
        lo = hi;
    }
    let features = Dataset {
        shape: feat_dim,
        x,
        labels: data.labels.clone(),
    };
    (head, features)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsz_nn::{zoo, Arch, Scale};

    #[test]
    fn cached_features_reproduce_full_network_accuracy() {
        let net = zoo::build(Arch::LeNet5, Scale::Full, 3);
        let data = dsz_datagen_digits(200);
        let full_eval = DatasetEvaluator::new(data.clone());
        let (a_full, k_full) = full_eval.evaluate_topk(&net);
        let (head, features) = cache_features(&net, &data, 64);
        let head_eval = DatasetEvaluator::new(features);
        let (a_head, k_head) = head_eval.evaluate_topk(&head);
        assert!((a_full - a_head).abs() < 1e-9, "{a_full} vs {a_head}");
        assert!((k_full - k_head).abs() < 1e-9);
    }

    #[test]
    fn incremental_candidate_matches_full_clone_evaluation() {
        let net = zoo::build(Arch::LeNet5, Scale::Full, 7);
        let data = dsz_datagen_digits(120);
        let eval = DatasetEvaluator::new(data.clone());
        let ie = IncrementalEvaluator::new(&net, &data, eval.batch);
        assert_eq!(ie.baseline().to_bits(), eval.evaluate(&net).to_bits());
        let mut scratch = SuffixScratch::default();
        for fc in net.fc_layers() {
            let mut candidate = net.dense(fc.layer_index).clone();
            for (i, w) in candidate.w.data.iter_mut().enumerate() {
                *w += ((i % 5) as f32 - 2.0) * 2e-3;
            }
            let incr = ie.evaluate_candidate(fc.layer_index, &candidate, &mut scratch);
            let mut mutated = net.clone();
            *mutated.dense_mut(fc.layer_index) = candidate;
            assert_eq!(
                incr.to_bits(),
                eval.evaluate(&mutated).to_bits(),
                "layer {}",
                fc.name
            );
        }
    }

    #[test]
    fn mlp_prefix_is_identity() {
        let net = zoo::build(Arch::LeNet300, Scale::Full, 5);
        let data = dsz_datagen_digits(50);
        let (head, features) = cache_features(&net, &data, 32);
        assert_eq!(features.x, data.x);
        assert_eq!(head.layers.len(), net.layers.len() - 1); // Flatten peeled off
    }

    // Tiny local digit generator to avoid a dev-dependency cycle.
    fn dsz_datagen_digits(n: usize) -> Dataset {
        use dsz_tensor::VolShape;
        let mut s = 42u64;
        let mut x = Vec::with_capacity(n * 784);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            for _ in 0..784 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                x.push(((s >> 33) as f32 / (1u64 << 31) as f32).abs().min(1.0));
            }
            labels.push((i % 10) as u16);
        }
        Dataset {
            shape: VolShape { c: 1, h: 28, w: 28 },
            x,
            labels,
        }
    }
}
