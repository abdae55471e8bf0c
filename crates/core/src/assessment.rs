//! Error bound assessment — Algorithm 1 (§3.3).
//!
//! For every fc layer, find the feasible error-bound range and sample
//! `(eb → accuracy degradation Δ, compressed size σ)` points:
//!
//! * The outer scan walks β ∈ {start, 10·start, …} until a bound first
//!   distorts the network (Δ > the 0.1% distortion criterion); the range
//!   then starts at β/10.
//! * `Check` walks the range in steps of the current decade (8e-3, 9e-3,
//!   1e-2, 2e-2, …) and stops at the first bound whose Δ exceeds the user's
//!   expected accuracy loss ε★ — the range's end point.
//!
//! Each test compresses *one* layer's condensed data array with every
//! candidate [`DataCodec`] (SZ, ZFP, … — the smaller stream wins the
//! point, making the paper's Fig. 2 SZ-vs-ZFP comparison per layer and
//! per bound instead of once globally), reconstructs the network with
//! only that layer replaced, and measures inference accuracy — linear in
//! layers instead of exponential in the brute-force combination search.
//!
//! Assessment is the dominant cost of the whole pipeline (it is why the
//! paper reaches for multi-GPU encoding, §5.2), so two engines exist:
//!
//! * **Incremental** (default whenever the evaluator exposes its dataset,
//!   [`AccuracyEvaluator::dataset`]): activations upstream of the mutated
//!   layer never change between tests, so they are cached once
//!   ([`crate::evaluator::IncrementalEvaluator`]) and each point replays
//!   only the suffix — with the decoded values, the candidate layer in
//!   CSR form (built straight from the layer's gap stream, multiplied by
//!   the sparse kernel with the dense kernel's bits), and every
//!   activation living in per-worker scratch arenas that are reused
//!   across all points of a layer. Within a decade walk
//!   the sampled bounds are known before their outcomes, so batches of
//!   points run concurrently on [`dsz_tensor::pool`] (results past a stop
//!   condition are discarded speculation); together with the per-layer
//!   fan-out this parallelizes the whole `(layer × point)` frontier while
//!   keeping each layer's point sequence deterministic.
//! * **Full** ([`assess_network_full`]): the reference path — clone the
//!   network, overwrite one layer, evaluate end to end. Kept for opaque
//!   evaluators, as the equivalence oracle (both engines produce
//!   bit-identical assessments), and as the baseline the
//!   `assessment_incremental_speedup` benchmark measures against.
//!
//! `docs/ASSESSMENT.md` walks the algorithm, the prefix-cache memory
//! model, and the scratch-buffer ownership rules.

use crate::codec::{DataCodec, DataCodecKind};
use crate::evaluator::{AccuracyEvaluator, IncrementalEvaluator};
use crate::DeepSzError;
use dsz_lossless::best_fit;
use dsz_nn::{FcLayerRef, Network, SuffixScratch};
use dsz_sparse::{Csr, PairArray};
use dsz_sz::{ErrorBound, SzConfig};
use dsz_tensor::parallel::{parallel_map, worker_count};
use dsz_tensor::WeightView;
use std::sync::Mutex;

/// Assessment parameters (defaults mirror §3.3/§5.1).
#[derive(Debug, Clone)]
pub struct AssessmentConfig {
    /// First error bound of the outer scan (paper default 10⁻³; push to
    /// 10⁻⁴ for very sensitive nets).
    pub start_eb: f64,
    /// Largest decade scanned (paper stops at 10⁻¹, where accuracy
    /// collapses for weight-scale data).
    pub max_eb: f64,
    /// Distortion criterion: Δ above this marks the range start (0.1%).
    pub distortion_criterion: f64,
    /// ε★ — the user's expected accuracy loss (absolute fraction).
    pub expected_loss: f64,
    /// SZ configuration used by the SZ candidate in every compression
    /// test.
    pub sz: SzConfig,
    /// Candidate data codecs competed at every sampled bound; the
    /// smallest stream wins the point (ties keep the earlier entry).
    /// Restrict to `vec![DataCodecKind::Sz]` to reproduce the paper's
    /// SZ-only pipeline exactly.
    pub candidates: Vec<DataCodecKind>,
}

impl Default for AssessmentConfig {
    fn default() -> Self {
        Self {
            start_eb: 1e-3,
            max_eb: 1e-1,
            distortion_criterion: 0.001,
            expected_loss: 0.004,
            sz: SzConfig::default(),
            candidates: DataCodecKind::ALL.to_vec(),
        }
    }
}

/// One sampled error bound for one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EbPoint {
    /// Absolute error bound tested.
    pub eb: f64,
    /// Accuracy degradation Δ(ℓ; eb) = baseline − accuracy (may be
    /// slightly negative when noise helps).
    pub degradation: f64,
    /// Compressed size of the layer's data array at this bound, under
    /// the winning codec.
    pub data_bytes: usize,
    /// The codec that won this bound's size competition (Δ is measured
    /// on its reconstruction).
    pub codec: DataCodecKind,
}

/// Assessment result for one fc layer.
#[derive(Debug, Clone)]
pub struct LayerAssessment {
    /// Which layer.
    pub fc: FcLayerRef,
    /// The layer's sparse two-array form (shared by later pipeline steps).
    pub pair: PairArray,
    /// Best-fit lossless codec and compressed size of the index array
    /// (independent of the error bound).
    pub index_codec: dsz_lossless::LosslessKind,
    /// Compressed index-array bytes.
    pub index_bytes: usize,
    /// Sampled `(eb, Δ, σ)` points, ascending in eb.
    pub points: Vec<EbPoint>,
}

impl LayerAssessment {
    /// Total compressed layer size at point `i` (data + index streams).
    pub fn total_bytes(&self, i: usize) -> usize {
        self.points[i].data_bytes + self.index_bytes
    }
}

/// Float-tolerant error-bound identity. The decade walk regenerates
/// bounds arithmetically (`eb + base`, `beta / 10`), so two visits to the
/// same nominal bound can differ by a rounding step — every comparison of
/// sampled bounds goes through this one predicate.
fn same_eb(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

/// Tests Δ and σ for `layer` at `eb` through the full-evaluation
/// reference path: every candidate codec compresses the data array and
/// the smallest stream wins; the network is cloned with only this layer
/// reconstructed from the winner and evaluated end to end.
///
/// Only the winner is decoded and evaluated — the losers' blobs are
/// dropped unmeasured, so adding candidates scales the (cheap) compress
/// cost but not the (dominant) inference cost.
fn test_point_full(
    net: &Network,
    baseline: f64,
    fc: &FcLayerRef,
    pair: &PairArray,
    eb: f64,
    codecs: &[Box<dyn DataCodec>],
    eval: &dyn AccuracyEvaluator,
) -> Result<EbPoint, DeepSzError> {
    let (winner, blob) = crate::codec::compete(codecs, &pair.data, ErrorBound::Abs(eb))?;
    let data_bytes = blob.len();
    let restored = codecs[winner].decode(&blob)?;
    let dense = pair.with_data(restored)?.to_dense()?;
    let mut candidate = net.clone();
    candidate.dense_mut(fc.layer_index).w.data = dense;
    let acc = eval.evaluate(&candidate);
    Ok(EbPoint {
        eb,
        degradation: baseline - acc,
        data_bytes,
        codec: codecs[winner].kind(),
    })
}

/// Decade-stepped successor of `eb` (8e-3 → 9e-3 → 1e-2 → 2e-2 → …),
/// matching Algorithm 1's `eb += base; base ×= 10 at decade boundaries`.
fn next_eb(eb: f64, base: f64) -> (f64, f64) {
    let next = eb + base;
    // Floating-point-safe decade check.
    if next >= 10.0 * base * (1.0 - 1e-9) {
        (next, base * 10.0)
    } else {
        (next, base)
    }
}

/// One layer's point-evaluation engine: either the preserved full-clone
/// reference path or the incremental suffix path. The driver hands an
/// engine batches of *untested* bounds; an engine may evaluate a batch
/// concurrently but must return one result per bound, in input order,
/// with every point independent of batch composition. Errors stay
/// per-point so the driver can discard everything past a stop condition
/// — results *and* failures — as wasted speculation; a serial walk would
/// never have evaluated those bounds, so their errors must not surface.
trait PointEngine {
    fn test_points(&self, ebs: &[f64]) -> Vec<Result<EbPoint, DeepSzError>>;
}

/// Reference engine: full clone + end-to-end evaluation per point. Only
/// ever driven with batches of one, so its work matches the pre-engine
/// implementation exactly — it is the baseline that
/// `assessment_incremental_speedup` measures against.
struct FullEngine<'x> {
    net: &'x Network,
    baseline: f64,
    fc: &'x FcLayerRef,
    pair: &'x PairArray,
    codecs: &'x [Box<dyn DataCodec>],
    eval: &'x dyn AccuracyEvaluator,
}

impl PointEngine for FullEngine<'_> {
    fn test_points(&self, ebs: &[f64]) -> Vec<Result<EbPoint, DeepSzError>> {
        ebs.iter()
            .map(|&eb| {
                test_point_full(
                    self.net,
                    self.baseline,
                    self.fc,
                    self.pair,
                    eb,
                    self.codecs,
                    self.eval,
                )
            })
            .collect()
    }
}

/// Per-worker scratch arena for incremental test points, reused across
/// all points of a layer: after the first point of a layer, a test
/// allocates nothing but codec-internal encode buffers (and scratch
/// growth when a bigger layer arrives).
#[derive(Default)]
struct PointCtx {
    /// Decode target — the arena's one decode buffer.
    decoded: Vec<f32>,
    /// The candidate's weights: the layer's gap stream with the decoded
    /// data, in CSR form. The original network is never touched.
    weights: Csr,
    /// Suffix activation ping-pong buffers.
    fwd: SuffixScratch,
}

/// Incremental engine: decode into scratch, build the candidate's CSR
/// from the layer's gap stream and the decoded data, score via the
/// cached-prefix suffix pass. Batches fan out over [`dsz_tensor::pool`]
/// with one scratch context per concurrent job.
struct IncrementalEngine<'x> {
    ie: &'x IncrementalEvaluator<'x>,
    baseline: f64,
    fc: &'x FcLayerRef,
    pair: &'x PairArray,
    codecs: &'x [Box<dyn DataCodec>],
    ctxs: Vec<Mutex<PointCtx>>,
}

impl IncrementalEngine<'_> {
    fn test_one(&self, eb: f64, ctx: &mut PointCtx) -> Result<EbPoint, DeepSzError> {
        let (winner, blob) =
            crate::codec::compete(self.codecs, &self.pair.data, ErrorBound::Abs(eb))?;
        let data_bytes = blob.len();
        self.codecs[winner].decode_into(&blob, &mut ctx.decoded)?;
        self.pair.to_csr_with(&ctx.decoded, &mut ctx.weights)?;
        let acc = self.ie.evaluate_weights(
            self.fc.layer_index,
            WeightView::Sparse(&ctx.weights),
            &mut ctx.fwd,
        );
        Ok(EbPoint {
            eb,
            degradation: self.baseline - acc,
            data_bytes,
            codec: self.codecs[winner].kind(),
        })
    }
}

impl PointEngine for IncrementalEngine<'_> {
    fn test_points(&self, ebs: &[f64]) -> Vec<Result<EbPoint, DeepSzError>> {
        let k = self.ctxs.len().min(ebs.len()).min(worker_count());
        if k <= 1 {
            let ctx = &mut *self.ctxs[0].lock().expect("point ctx");
            return ebs.iter().map(|&eb| self.test_one(eb, ctx)).collect();
        }
        // Contiguous slices, one per scratch context; each mutex is taken
        // by exactly one job, so the locks never contend — they only
        // launder the `&mut PointCtx` across the pool boundary. Every
        // point keeps its own result (no short-circuit): whether an error
        // matters is the driver's walk-order decision.
        let per = ebs.len().div_ceil(k);
        let jobs: Vec<(&[f64], &Mutex<PointCtx>)> = ebs.chunks(per).zip(&self.ctxs).collect();
        let results = parallel_map(&jobs, |&(chunk, ctx)| {
            let ctx = &mut *ctx.lock().expect("point ctx");
            chunk
                .iter()
                .map(|&eb| self.test_one(eb, ctx))
                .collect::<Vec<Result<EbPoint, DeepSzError>>>()
        });
        results.into_iter().flatten().collect()
    }
}

/// Runs Algorithm 1's two walks for one layer through `engine`.
///
/// `max_batch` is the speculation width: how many untested bounds are
/// handed to the engine at once. Bounds within a walk are known before
/// their outcomes, so a batch's points are independent; the walk replays
/// the batch in order and discards everything past the first stop
/// condition, which keeps the returned sequence identical to a strict
/// serial walk (`max_batch = 1` *is* the strict serial walk, and what the
/// reference engine always gets).
fn run_algorithm1(
    cfg: &AssessmentConfig,
    engine: &dyn PointEngine,
    max_batch: usize,
) -> Result<Vec<EbPoint>, DeepSzError> {
    let max_batch = max_batch.max(1);
    let mut points: Vec<EbPoint> = Vec::new();

    // Outer scan: the decade ladder is known upfront; batches of it are
    // evaluated speculatively and everything past the first distorted
    // bound is discarded.
    let mut decades: Vec<f64> = Vec::new();
    let mut beta = cfg.start_eb;
    while beta <= cfg.max_eb * (1.0 + 1e-9) {
        decades.push(beta);
        beta *= 10.0;
    }
    let mut range_start = None;
    let mut di = 0usize;
    'outer: while di < decades.len() {
        let hi = (di + max_batch).min(decades.len());
        for r in engine.test_points(&decades[di..hi]) {
            // An error only surfaces once the walk actually reaches its
            // position — a failure in a speculated point past the stop is
            // discarded along with the result, as serial never ran it.
            let p = r?;
            let distorted = p.degradation > cfg.distortion_criterion;
            let eb = p.eb;
            points.push(p);
            if distorted {
                range_start = Some(eb / 10.0);
                break 'outer;
            }
        }
        di = hi;
    }

    // Check procedure: walk from the range start in decade steps until Δ
    // exceeds ε★ (the range end). Bounds already tested by the outer scan
    // are consulted, not re-evaluated.
    if let Some(start) = range_start {
        let mut cursor = Some((start, start));
        'walk: while let Some((mut eb, mut base)) = cursor {
            // Collect one batch: consecutive walk bounds, at most
            // `max_batch` of them untested, never past max_eb.
            let mut batch: Vec<(f64, Option<bool>)> = Vec::new();
            let mut fresh = 0usize;
            loop {
                let tested = points
                    .iter()
                    .find(|p| same_eb(p.eb, eb))
                    .map(|p| p.degradation > cfg.expected_loss);
                if tested.is_none() {
                    fresh += 1;
                }
                batch.push((eb, tested));
                let (e2, b2) = next_eb(eb, base);
                eb = e2;
                base = b2;
                if eb > cfg.max_eb * (1.0 + 1e-9) {
                    cursor = None;
                    break;
                }
                if fresh >= max_batch {
                    cursor = Some((eb, base));
                    break;
                }
            }
            let fresh_ebs: Vec<f64> = batch
                .iter()
                .filter(|(_, tested)| tested.is_none())
                .map(|&(eb, _)| eb)
                .collect();
            let mut evald = engine.test_points(&fresh_ebs).into_iter();
            // Replay the walk order, applying the stop rule; trailing
            // results past a stop — including failures — are discarded
            // speculation (serial would never have evaluated them).
            for (_, tested) in batch {
                match tested {
                    Some(stops) => {
                        if stops {
                            break 'walk;
                        }
                    }
                    None => {
                        let p = evald.next().expect("one result per fresh bound")?;
                        let stop = p.degradation > cfg.expected_loss;
                        points.push(p);
                        if stop {
                            break 'walk;
                        }
                    }
                }
            }
        }
    }

    points.sort_by(|a, b| a.eb.partial_cmp(&b.eb).expect("finite eb"));
    points.dedup_by(|a, b| same_eb(a.eb, b.eb));
    Ok(points)
}

/// The per-layer work shared by both engines: the sparse two-array form
/// and the (bound-independent) best-fit lossless coding of its index.
fn layer_pair_and_index(
    net: &Network,
    fc: &FcLayerRef,
) -> (PairArray, dsz_lossless::LosslessKind, usize) {
    let dense = &net.dense(fc.layer_index).w;
    let pair = PairArray::from_dense(&dense.data, dense.rows, dense.cols);
    let (index_codec, index_blob) = best_fit(&pair.index);
    (pair, index_codec, index_blob.len())
}

/// Runs Algorithm 1 for one layer through the full-evaluation reference
/// engine (strict serial walk).
fn assess_layer_full(
    net: &Network,
    baseline: f64,
    fc: &FcLayerRef,
    cfg: &AssessmentConfig,
    eval: &dyn AccuracyEvaluator,
) -> Result<LayerAssessment, DeepSzError> {
    let (pair, index_codec, index_bytes) = layer_pair_and_index(net, fc);
    let codecs: Vec<Box<dyn DataCodec>> =
        cfg.candidates.iter().map(|k| k.instance(&cfg.sz)).collect();
    let engine = FullEngine {
        net,
        baseline,
        fc,
        pair: &pair,
        codecs: &codecs,
        eval,
    };
    let points = run_algorithm1(cfg, &engine, 1)?;
    Ok(LayerAssessment {
        fc: fc.clone(),
        pair,
        index_codec,
        index_bytes,
        points,
    })
}

/// Runs Algorithm 1 for one layer through the incremental engine, with
/// one scratch context per worker available at this nesting level.
fn assess_layer_incremental(
    net: &Network,
    ie: &IncrementalEvaluator<'_>,
    baseline: f64,
    fc: &FcLayerRef,
    cfg: &AssessmentConfig,
) -> Result<LayerAssessment, DeepSzError> {
    let (pair, index_codec, index_bytes) = layer_pair_and_index(net, fc);
    let codecs: Vec<Box<dyn DataCodec>> =
        cfg.candidates.iter().map(|k| k.instance(&cfg.sz)).collect();
    let width = worker_count();
    let ctxs: Vec<Mutex<PointCtx>> = (0..width).map(|_| Mutex::default()).collect();
    let engine = IncrementalEngine {
        ie,
        baseline,
        fc,
        pair: &pair,
        codecs: &codecs,
        ctxs,
    };
    let points = run_algorithm1(cfg, &engine, width)?;
    Ok(LayerAssessment {
        fc: fc.clone(),
        pair,
        index_codec,
        index_bytes,
        points,
    })
}

fn validate(cfg: &AssessmentConfig) -> Result<(), DeepSzError> {
    if cfg.candidates.is_empty() {
        return Err(DeepSzError::Infeasible(
            "AssessmentConfig::candidates must name at least one data codec".into(),
        ));
    }
    Ok(())
}

/// Runs Algorithm 1 over every fc layer of `net` (already pruned).
/// Returns per-layer assessments plus the measured baseline accuracy.
///
/// When the evaluator exposes its dataset ([`AccuracyEvaluator::dataset`],
/// which [`crate::DatasetEvaluator`] does), assessment runs on the
/// incremental engine — prefix activations cached once, per-point cost
/// only the suffix from the mutated layer, scratch arenas reused across
/// points. Otherwise it falls back to [`assess_network_full`]. Both paths
/// return bit-identical assessments.
pub fn assess_network(
    net: &Network,
    cfg: &AssessmentConfig,
    eval: &dyn AccuracyEvaluator,
) -> Result<(Vec<LayerAssessment>, f64), DeepSzError> {
    validate(cfg)?;
    let Some((data, batch)) = eval.dataset() else {
        return assess_network_full(net, cfg, eval);
    };
    let ie = IncrementalEvaluator::new(net, data, batch);
    let baseline = ie.baseline();
    let fcs = net.fc_layers();
    let results = parallel_map(&fcs, |fc| {
        assess_layer_incremental(net, &ie, baseline, fc, cfg)
    });
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        out.push(r?);
    }
    Ok((out, baseline))
}

/// [`assess_network`] through the full-evaluation reference path: every
/// point clones the network and evaluates it end to end via
/// [`AccuracyEvaluator::evaluate`]. This is the implementation every
/// evaluator gets when it cannot expose a dataset, the oracle the
/// incremental engine's equivalence suite compares against, and the
/// baseline of the `assessment_incremental_speedup` benchmark.
pub fn assess_network_full(
    net: &Network,
    cfg: &AssessmentConfig,
    eval: &dyn AccuracyEvaluator,
) -> Result<(Vec<LayerAssessment>, f64), DeepSzError> {
    validate(cfg)?;
    let baseline = eval.evaluate(net);
    let fcs = net.fc_layers();
    let results = parallel_map(&fcs, |fc| assess_layer_full(net, baseline, fc, cfg, eval));
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        out.push(r?);
    }
    Ok((out, baseline))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_eb_walks_decades_like_the_paper() {
        // 8e-3 → 9e-3 → 1e-2 → 2e-2 → 3e-2 (the paper's §3.3 example).
        let (e1, b1) = next_eb(8e-3, 1e-3);
        assert!((e1 - 9e-3).abs() < 1e-12 && b1 == 1e-3);
        let (e2, b2) = next_eb(e1, b1);
        assert!((e2 - 1e-2).abs() < 1e-12 && b2 == 1e-2, "{e2} {b2}");
        let (e3, b3) = next_eb(e2, b2);
        assert!((e3 - 2e-2).abs() < 1e-12 && b3 == 1e-2);
    }

    #[test]
    fn next_eb_from_decade_start() {
        // 1e-3 with base 1e-3 → 2e-3 … 9e-3 → 1e-2 (base 1e-2).
        let mut eb = 1e-3;
        let mut base = 1e-3;
        let mut seen = vec![eb];
        for _ in 0..9 {
            let (e, b) = next_eb(eb, base);
            eb = e;
            base = b;
            seen.push(eb);
        }
        assert!((seen[8] - 9e-3).abs() < 1e-12);
        assert!((seen[9] - 1e-2).abs() < 1e-12);
    }

    #[test]
    fn same_eb_tolerates_rounding_but_separates_neighbors() {
        assert!(same_eb(1e-2, 1e-2 + 1e-15));
        assert!(!same_eb(1e-2, 2e-2));
        assert!(!same_eb(1e-3, 2e-3));
    }

    /// A scripted engine that records which bounds were requested and
    /// returns canned degradations (or errors, past `fail_above`); proves
    /// the speculative driver visits and keeps exactly the serial walk's
    /// points, and discards speculated failures with the results.
    struct Scripted {
        /// Δ returned for a bound: distorting decades and the stop bound.
        delta: fn(f64) -> f64,
        /// Bounds for which evaluation errors instead of producing a point.
        fails: fn(f64) -> bool,
        asked: Mutex<Vec<f64>>,
    }

    impl PointEngine for Scripted {
        fn test_points(&self, ebs: &[f64]) -> Vec<Result<EbPoint, DeepSzError>> {
            self.asked.lock().unwrap().extend_from_slice(ebs);
            ebs.iter()
                .map(|&eb| {
                    if (self.fails)(eb) {
                        return Err(DeepSzError::Infeasible(format!("scripted failure at {eb}")));
                    }
                    Ok(EbPoint {
                        eb,
                        degradation: (self.delta)(eb),
                        data_bytes: (eb * 1e6) as usize,
                        codec: DataCodecKind::Sz,
                    })
                })
                .collect()
        }
    }

    fn scripted_delta(eb: f64) -> f64 {
        // One threshold covers both walks: the 1e-2 decade distorts the
        // outer scan (range starts at 1e-3) and 6e-3 stops the check walk.
        if eb >= 6e-3 - 1e-15 {
            0.05
        } else {
            0.0
        }
    }

    #[test]
    fn speculative_batches_keep_the_serial_point_sequence() {
        let cfg = AssessmentConfig {
            expected_loss: 0.004,
            ..Default::default()
        };
        let mut sequences = Vec::new();
        for max_batch in [1usize, 2, 4, 9] {
            let engine = Scripted {
                delta: scripted_delta,
                fails: |_| false,
                asked: Mutex::new(Vec::new()),
            };
            let points = run_algorithm1(&cfg, &engine, max_batch).unwrap();
            sequences.push(points);
        }
        for s in &sequences[1..] {
            assert_eq!(s, &sequences[0], "speculation changed the output");
        }
        // Serial expectation: decades 1e-3 (clean), 1e-2 (distorted) →
        // range starts at 1e-3; walk 2e-3..6e-3 stops at 6e-3.
        let ebs: Vec<f64> = sequences[0].iter().map(|p| p.eb).collect();
        assert_eq!(ebs.len(), 7, "{ebs:?}");
        for (got, want) in ebs.iter().zip([1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3, 1e-2]) {
            assert!(same_eb(*got, want), "{ebs:?}");
        }
    }

    #[test]
    fn serial_driver_never_overfetches() {
        // With max_batch = 1 the engine must be asked exactly the bounds
        // the original serial loop would have tested, in the same order.
        let cfg = AssessmentConfig {
            expected_loss: 0.004,
            ..Default::default()
        };
        let engine = Scripted {
            delta: scripted_delta,
            fails: |_| false,
            asked: Mutex::new(Vec::new()),
        };
        run_algorithm1(&cfg, &engine, 1).unwrap();
        let asked = engine.asked.into_inner().unwrap();
        for (got, want) in asked.iter().zip([1e-3, 1e-2, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3]) {
            assert!(same_eb(*got, want), "{asked:?}");
        }
        assert_eq!(asked.len(), 7, "{asked:?}");
    }

    #[test]
    fn discarded_speculation_errors_do_not_surface() {
        // The walk stops at 6e-3; 7e-3..9e-3 are only ever evaluated as
        // speculation. Failing exactly those bounds must not abort the
        // assessment at any speculation width — serial never runs them —
        // while a failure at a bound the walk *does* reach must surface.
        let cfg = AssessmentConfig {
            expected_loss: 0.004,
            ..Default::default()
        };
        for max_batch in [1usize, 4, 9] {
            let engine = Scripted {
                delta: scripted_delta,
                fails: |eb| eb > 6e-3 + 1e-15 && eb < 1e-2 - 1e-15,
                asked: Mutex::new(Vec::new()),
            };
            let points = run_algorithm1(&cfg, &engine, max_batch)
                .unwrap_or_else(|e| panic!("max_batch={max_batch}: {e}"));
            assert_eq!(points.len(), 7, "max_batch={max_batch}");
        }
        for max_batch in [1usize, 4] {
            let engine = Scripted {
                delta: scripted_delta,
                fails: |eb| same_eb(eb, 5e-3), // before the stop: reachable
                asked: Mutex::new(Vec::new()),
            };
            assert!(
                run_algorithm1(&cfg, &engine, max_batch).is_err(),
                "max_batch={max_batch}: reachable failure must surface"
            );
        }
    }
}
