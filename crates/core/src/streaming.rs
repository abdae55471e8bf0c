//! Memory-bounded inference over a compressed model — the paper's stated
//! future-work direction (§7: "use DeepSZ for improving GPU memory
//! utilization").
//!
//! Instead of decoding every fc layer up front, [`CompressedFcModel`] keeps
//! the container bytes resident and decodes each fc layer during the
//! forward pass into the sparse form DeepSZ stores it in (§3.2): the gap
//! stream and the decoded data become a [`Csr`] directly, the matmul runs
//! on its nonzeros ([`dsz_tensor::matmul_transb_csr`]), and the layer is
//! dropped as soon as that matmul is done. No dense fc matrix is ever
//! built. Peak weight memory becomes `max(layer)` in sparse bytes —
//! 8 bytes per nonzero plus 4 per row — instead of `sum(layers)` in dense
//! bytes: for VGG-16's fc stack at `Arch::Vgg16`'s pruning densities (3%,
//! 4%, 24%) that is about 25 MB (fc6's sparse form) where decoding every
//! layer dense holds 494 MB (411 MB for fc6 alone), and with the
//! compressed container as the only persistent copy, resident model
//! state shrinks by the full compression ratio. For every finite input
//! the outputs are the bits the dense layers would give
//! (`docs/PARALLEL.md`).
//!
//! Construction runs the same full parse as
//! [`verify_container`](crate::verify_container) — framing, every
//! checksum, one record per layer index — and then keeps the container
//! bytes once (an `Arc<[u8]>` shared by clones). Each fc layer is only
//! its record's span plus the layer index, weight-bytes bound and
//! shared-cache key; a decode re-parses the record from that span with
//! the record parser [`decode_model`] uses and runs the same lossless and
//! lossy stages, so no blob is copied and both paths read the same bytes
//! the same way; only the last stage differs (CSR instead of dense).
//!
//! # One forward loop, four weight sources
//!
//! Every forward runs the same loop over the network's layers. Per fc
//! layer it checks the abort probe, probes the [`ForwardHook`], takes the
//! layer's sparse weights from a *weight source*, records
//! [`StreamingStats::peak_weight_bytes`] as the layer's resident bytes
//! plus whatever the source holds resident, runs the matmul, and hands the
//! weights back to the source. The model's configuration picks the source,
//! first match wins:
//!
//! | Source | Chosen when | Weights come from | Peak weight bytes |
//! |---|---|---|---|
//! | shared cache | [`CompressedFcModel::with_shared_cache`] | cache hit, else spill fetch (if attached), else decode | `quota + executing layer` |
//! | spill | [`CompressedFcModel::with_spill_dir`] | spill fetch, else decode; parked back after the matmul | `quota + executing layer` |
//! | inline decode | prefetch depth 0, or a worker budget below 2 | container decode | `max(layer)` |
//! | prefetch | otherwise (the default) | pool-task decode queued ahead of execution | executing + in-flight ≤ bytes budget |
//!
//! # Prefetch
//!
//! By default the forward pass **prefetch-decodes the next fc layer on a
//! pool worker while the current layer's matmul runs**, hiding decode
//! latency behind compute (the same overlap the paper uses across GPUs).
//! Prefetch is budgeted on two axes:
//!
//! * [`CompressedFcModel::with_prefetch_depth`] — how many layers ahead may
//!   be decoding/decoded beyond the executing one (default 1; deep fc
//!   stacks hide more latency at depth ≥ 2). Depth 0 selects the inline
//!   decode source and its strict `max(layer)` bound.
//! * [`CompressedFcModel::with_decoded_bytes_budget`] — a cap on the
//!   weight bytes live at once (executing layer + every in-flight
//!   prefetch). An in-flight decode is counted at its record's bound,
//!   8 bytes per stored entry plus 4 per row, which is exact unless the
//!   gap stream holds padding markers. A prefetch that would exceed the
//!   cap is simply not scheduled; the layer decodes inline when its turn
//!   comes, so the cap is never violated by prefetching (a single layer
//!   larger than the cap still has to materialize alone to execute).
//!
//! Decode tasks run on the persistent worker pool
//! ([`dsz_tensor::pool::scope`]); joining a task that no pool worker picked
//! up steals it inline, so prefetch degrades gracefully to serial order on
//! busy or single-core hosts.

// Streaming decodes untrusted container blobs on pool workers: malformed
// input must come back as an `Err`, never a panic (`docs/ROBUSTNESS.md`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::layer_cache::{CacheHandle, Payload};
use crate::pipeline::{
    decode_model, decode_record, decode_record_sparse, parse_one_record, parse_records,
    CompressedModel, DecodedLayer,
};
use crate::spill::{SpillCache, SpillStats};
use crate::DeepSzError;
use dsz_lossless::Fnv1a;
use dsz_nn::{dense_forward_with_weights, Batch, Layer, Network};
use dsz_tensor::{pool, Csr, WeightView};
use std::collections::VecDeque;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Between-layer abort probe for [`CompressedFcModel::forward_cancellable`]
/// — returns `true` when the pass should stop.
pub type AbortFlag<'a> = &'a (dyn Fn() -> bool + Sync);

/// `Err(Cancelled)` when the abort probe fires.
fn check_abort(abort: Option<AbortFlag<'_>>) -> Result<(), DeepSzError> {
    match abort {
        Some(f) if f() => Err(DeepSzError::Cancelled),
        _ => Ok(()),
    }
}

/// Test/harness instrumentation point on the forward path: the forward
/// loop probes it once per fc layer, in layer order, right before it
/// takes that layer's weights from the weight source — so every source
/// (inline decode, prefetch, spill, shared cache) sees the same probes.
/// An `Err` aborts the pass with that error, exactly as a real decode
/// failure at that layer would — which is the point: a seeded fault plan
/// (`dsz_serve::chaos`) implements this trait to inject decode errors,
/// slow layers, and mid-batch cancellations deterministically, without
/// touching container bytes. Production models simply leave the hook
/// unset ([`CompressedFcModel::with_forward_hook`]); the happy path pays
/// one `Option` check per layer.
pub trait ForwardHook: std::fmt::Debug + Send + Sync {
    /// Called before skeleton layer `layer_index` executes. Returning an
    /// `Err` fails the forward pass with it.
    fn before_layer(&self, layer_index: usize) -> Result<(), DeepSzError>;
}

/// What a forward pass (or [`CompressedFcModel::materialize`]) does when a
/// layer's record fails to decode.
///
/// Inference cannot proceed without the layer either way — the policy
/// controls how much the caller learns from the failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecodePolicy {
    /// Return the first layer's error immediately (default).
    #[default]
    FailFast,
    /// After the first failure, decode every remaining layer too (on the
    /// error path only — the happy path pays nothing) and return
    /// [`DeepSzError::BadLayers`] aggregating *all* failures, so one pass
    /// over a damaged container enumerates every bad layer.
    ReportBadLayers,
}

/// One fc layer's record: its span in the container bytes plus what the
/// forward loop needs without parsing it.
#[derive(Debug, Clone)]
struct CompressedLayer {
    span: Range<usize>,
    layer_index: usize,
    /// Resident bytes of the decoded sparse form, at most: 8 per stored
    /// entry the index stream declares (padding markers included, though
    /// they store nothing) plus 4 per row pointer.
    weight_bytes: usize,
    /// FNV-1a over `layer_index ‖ data_blob ‖ idx_blob` — the
    /// content-addressed part of this layer's shared-cache key, computed
    /// once at construction (`crate::layer_cache`).
    record_fnv: u64,
}

/// A network whose fc weights live in DeepSZ-compressed form; each fc
/// layer's sparse weights are decoded only while that layer executes.
#[derive(Debug, Clone)]
pub struct CompressedFcModel {
    /// The non-fc skeleton (fc layers carry empty weight buffers).
    skeleton: Network,
    /// The container bytes, held once and shared across clones; every
    /// decode parses its record straight out of them.
    container: Arc<[u8]>,
    /// Container format version (selects the record layout).
    version: u8,
    /// The container's records, in container order.
    layers: Vec<CompressedLayer>,
    /// Per skeleton layer, the index into `layers` of the record backing
    /// it; `None` for layers that run as stored.
    slots: Vec<Option<usize>>,
    /// Layers ahead of the executing one that may be decoding/decoded.
    prefetch_depth: usize,
    /// Cap on live weight bytes (executing + in-flight prefetches).
    decoded_bytes_budget: Option<usize>,
    /// What to do when a layer fails to decode.
    decode_policy: DecodePolicy,
    /// Disk-backed cache for decoded layers ([`Self::with_spill_dir`]);
    /// shared across clones so forwards reuse each other's spills.
    spill: Option<Arc<SpillCache>>,
    /// Handle into the process-wide decoded-layer cache
    /// ([`Self::with_shared_cache`]); when set, forwards take weights from
    /// the shared cache and hot layers decode once across all tenants.
    shared: Option<CacheHandle>,
    /// Test/harness fault-injection hook, probed once per fc layer
    /// whatever the weight source ([`Self::with_forward_hook`]).
    hook: Option<Arc<dyn ForwardHook>>,
}

/// Memory accounting from a streaming forward pass, in the bytes the fc
/// weights hold resident in their sparse form ([`Csr::size_bytes`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamingStats {
    /// Peak bytes of fc weights resident at any instant: the executing
    /// layer plus what the weight source holds (in-flight prefetch
    /// decodes at their bound, or the spill/shared cache's parked layers).
    pub peak_weight_bytes: usize,
    /// Sum of every fc layer's weight bytes (what holding all decoded
    /// layers at once would take).
    pub total_weight_bytes: usize,
    /// Persistent compressed bytes: the container the model holds.
    pub compressed_bytes: usize,
}

impl CompressedFcModel {
    /// Builds a streaming model from a network skeleton and its compressed
    /// container. The skeleton's fc weights are discarded (replaced by
    /// empty buffers) — only shapes and non-fc layers are kept. Prefetch
    /// depth defaults to 1 with no decoded-bytes cap.
    pub fn new(net: &Network, model: &CompressedModel) -> Result<Self, DeepSzError> {
        let mut skeleton = net.clone();
        let records = parse_records(&model.bytes)?;
        let mut layers = Vec::with_capacity(records.len());
        let mut slots = vec![None; skeleton.layers.len()];
        // `parse_records` rejects repeated layer indices, so each slot is
        // filled at most once.
        for (span, r) in records {
            if r.layer_index >= skeleton.layers.len() {
                return Err(DeepSzError::BadContainer(format!(
                    "layer index {} out of range",
                    r.layer_index
                )));
            }
            let Layer::Dense(d) = &mut skeleton.layers[r.layer_index] else {
                return Err(DeepSzError::BadContainer(format!(
                    "container layer {} targets a non-dense network layer",
                    r.name
                )));
            };
            if d.name != r.name || d.w.rows != r.rows || d.w.cols != r.cols {
                return Err(DeepSzError::BadContainer(format!(
                    "layer {} does not match network layer {}",
                    r.name, d.name
                )));
            }
            // Release the dense weights; the compressed record is canonical.
            d.w.data = Vec::new();
            slots[r.layer_index] = Some(layers.len());
            let mut fnv = Fnv1a::with_tag(r.layer_index as u64);
            fnv.update(r.data_blob);
            fnv.update(r.idx_blob);
            // An unreadable index header fails the decode before anything
            // is resident.
            let entries = r.codec.codec().declared_len(r.idx_blob).unwrap_or(0);
            layers.push(CompressedLayer {
                span,
                layer_index: r.layer_index,
                weight_bytes: entries
                    .saturating_mul(8)
                    .saturating_add(r.rows.saturating_add(1).saturating_mul(4)),
                record_fnv: fnv.finish(),
            });
        }
        // A dense layer left with neither its weights nor a record could
        // never run; refuse it here rather than fail mid-forward.
        for (i, (layer, slot)) in skeleton.layers.iter().zip(&slots).enumerate() {
            if let (Layer::Dense(d), None) = (layer, slot) {
                if d.w.data.len() != d.w.rows * d.w.cols {
                    return Err(DeepSzError::BadContainer(format!(
                        "no blob for fc layer {i}"
                    )));
                }
            }
        }
        Ok(Self {
            skeleton,
            // parse_records validated the header, so the version byte is
            // present.
            version: model.bytes[4],
            container: Arc::from(model.bytes.as_slice()),
            layers,
            slots,
            prefetch_depth: 1,
            decoded_bytes_budget: None,
            decode_policy: DecodePolicy::default(),
            spill: None,
            shared: None,
            hook: None,
        })
    }

    /// Sets how many fc layers ahead of the executing one may be
    /// decoding/decoded concurrently. Depth 0 decodes inline (strict
    /// `max(layer)` peak); depth `d ≥ 1` holds at most the executing
    /// layer plus `d` prefetches, subject to the decoded-bytes budget.
    pub fn with_prefetch_depth(mut self, depth: usize) -> Self {
        self.prefetch_depth = depth;
        self
    }

    /// Caps the weight bytes live at once (executing layer + in-flight
    /// prefetches, the latter at their bound). `None` removes the cap.
    /// Prefetches that would exceed the cap wait; execution itself is
    /// never blocked.
    pub fn with_decoded_bytes_budget(mut self, bytes: Option<usize>) -> Self {
        self.decoded_bytes_budget = bytes;
        self
    }

    /// Sets the per-layer decode failure policy (see [`DecodePolicy`]).
    pub fn with_decode_policy(mut self, policy: DecodePolicy) -> Self {
        self.decode_policy = policy;
        self
    }

    /// Attaches a disk spill cache: decoded layers are parked in memory up
    /// to `bytes_quota` bytes, evicted layers are written FNV-stamped into
    /// `dir` and re-loaded instead of re-decoded on the next use
    /// ([`crate::spill`]). Forward passes take weights from the cache
    /// instead of prefetching — the cache itself bounds live weight bytes
    /// at `quota + executing layer`, which is the point — and stay
    /// bit-identical to the in-RAM path
    /// (spill files round-trip exact f32 bits). Typically paired with a
    /// quota sized to the hot layers of a model larger than RAM.
    pub fn with_spill_dir(
        mut self,
        dir: impl AsRef<Path>,
        bytes_quota: usize,
    ) -> Result<Self, DeepSzError> {
        self.spill = Some(Arc::new(SpillCache::new(dir, bytes_quota)?));
        Ok(self)
    }

    /// Activity counters of the attached spill cache, if any.
    pub fn spill_stats(&self) -> Option<SpillStats> {
        self.spill.as_deref().map(SpillCache::stats)
    }

    /// Attaches a handle into a process-wide
    /// [`SharedLayerCache`](crate::layer_cache::SharedLayerCache):
    /// forwards take weights from the cache instead of prefetching, and
    /// each fc layer's decoded sparse weights are looked up under
    /// `(model, layer, record_fnv)` — hot layers decode **once across
    /// every model and request** sharing the cache, cold layers fall back
    /// to the spill cache (when attached) and then to a container decode.
    /// Results are bit-identical to the uncached inline-decode path at
    /// every quota, including 0 (the cache hands
    /// back the same decoded bits or nothing). This is the constructor
    /// the serving layer (`dsz_serve`) uses; `docs/SERVING.md` has the
    /// quota semantics.
    pub fn with_shared_cache(mut self, handle: CacheHandle) -> Self {
        self.shared = Some(handle);
        self
    }

    /// The shared-cache handle, if one is attached.
    pub fn shared_cache(&self) -> Option<&CacheHandle> {
        self.shared.as_ref()
    }

    /// Attaches (or with `None`, detaches) a [`ForwardHook`] — the
    /// deterministic fault-injection point the chaos harness uses.
    /// Clones share the hook; a model loaded for production leaves it
    /// unset.
    pub fn with_forward_hook(mut self, hook: Option<Arc<dyn ForwardHook>>) -> Self {
        self.hook = hook;
        self
    }

    /// Probes the attached hook for layer `i`; a hook error fails the
    /// pass exactly as a decode failure at that layer would (it does
    /// *not* route through [`Self::decode_failure`] — the injected error
    /// is the report).
    fn probe_hook(&self, i: usize) -> Result<(), DeepSzError> {
        match &self.hook {
            Some(h) => h.before_layer(i),
            None => Ok(()),
        }
    }

    /// Error path of [`DecodePolicy::ReportBadLayers`]: given the first
    /// failure, decode every *other* layer (results discarded) and fold
    /// every failure into one [`DeepSzError::BadLayers`] report. Under
    /// [`DecodePolicy::FailFast`] the first error passes through as-is.
    fn decode_failure(&self, failed_layer_index: usize, first: DeepSzError) -> DeepSzError {
        if self.decode_policy == DecodePolicy::FailFast {
            return first;
        }
        let mut errs = vec![first];
        for c in &self.layers {
            if c.layer_index == failed_layer_index {
                continue;
            }
            if let Err(e) = self.decode_sparse(c) {
                errs.push(e);
            }
        }
        DeepSzError::BadLayers(errs)
    }

    /// Forward pass, decoding fc layers on demand. Returns the output
    /// batch and the memory accounting.
    pub fn forward(&self, x: &Batch) -> Result<(Batch, StreamingStats), DeepSzError> {
        self.forward_inner(x, None)
    }

    /// [`Self::forward`] with a between-layer abort probe: `abort` is
    /// evaluated before each layer executes, and a `true` stops the pass
    /// with [`DeepSzError::Cancelled`]. The serving layer's micro-batcher
    /// passes "every request in this batch is cancelled" here, so a
    /// batch whose tenants all hung up stops paying for decodes and
    /// matmuls at the next layer boundary.
    pub fn forward_cancellable(
        &self,
        x: &Batch,
        abort: AbortFlag<'_>,
    ) -> Result<(Batch, StreamingStats), DeepSzError> {
        self.forward_inner(x, Some(abort))
    }

    fn forward_inner(
        &self,
        x: &Batch,
        abort: Option<AbortFlag<'_>>,
    ) -> Result<(Batch, StreamingStats), DeepSzError> {
        let spill = self.spill.as_deref();
        if let Some(handle) = &self.shared {
            // Cross-request reuse, not prefetch, hides decode latency here.
            return self.run(x, abort, WeightSource::Shared { handle, spill });
        }
        if let Some(cache) = spill {
            // The cache, not prefetch, is what bounds live weight bytes.
            return self.run(x, abort, WeightSource::Spill(cache));
        }
        let budget = dsz_tensor::parallel::worker_count();
        if self.prefetch_depth == 0 || budget < 2 {
            // Depth 0 asks for the strict bound; a 1-thread budget has no
            // second thread to overlap a decode with.
            return self.run(x, abort, WeightSource::Decode);
        }
        pool::scope(|s| {
            let prefetch = Prefetch::new(s, self, budget);
            self.run(x, abort, WeightSource::Prefetch(prefetch))
        })
    }

    /// The forward loop every source shares: one pass over the skeleton,
    /// fc layers taking their weights from `source`.
    fn run(
        &self,
        x: &Batch,
        abort: Option<AbortFlag<'_>>,
        mut source: WeightSource<'_, '_>,
    ) -> Result<(Batch, StreamingStats), DeepSzError> {
        let mut stats = StreamingStats {
            compressed_bytes: self.container.len(),
            ..Default::default()
        };
        let mut cur = x.clone();
        for (i, (layer, slot)) in self.skeleton.layers.iter().zip(&self.slots).enumerate() {
            check_abort(abort)?;
            cur = match (layer, slot) {
                (Layer::Dense(d), &Some(k)) => {
                    self.probe_hook(i)?;
                    let weights = source.acquire(self, &self.layers[k])?;
                    let bytes = weights.bytes();
                    stats.peak_weight_bytes =
                        stats.peak_weight_bytes.max(bytes + source.resident_bytes());
                    stats.total_weight_bytes += bytes;
                    let next =
                        source.compute(|| dense_forward_with_weights(d, weights.view(), &cur));
                    source.release(i, weights)?;
                    next
                }
                (other, _) => source.compute(|| other.forward(&cur).0),
            };
        }
        Ok((cur, stats))
    }

    /// Parses record `c` out of the container bytes and decodes it
    /// through the eager path's three stages (timing discarded).
    fn decode(&self, c: &CompressedLayer) -> Result<DecodedLayer, DeepSzError> {
        let record = parse_one_record(&self.container[c.span.clone()], &mut 0, self.version)?;
        decode_record(&record).map(|(layer, _)| layer)
    }

    /// Parses record `c` and decodes it into the sparse form the forward
    /// loop multiplies.
    fn decode_sparse(&self, c: &CompressedLayer) -> Result<Csr, DeepSzError> {
        let record = parse_one_record(&self.container[c.span.clone()], &mut 0, self.version)?;
        decode_record_sparse(&record)
    }

    /// Decodes `c`'s sparse form inline, routing a failure through the
    /// decode policy.
    fn decode_inline(&self, c: &CompressedLayer) -> Result<Csr, DeepSzError> {
        self.decode_sparse(c)
            .map_err(|e| self.decode_failure(c.layer_index, e))
    }

    /// Eagerly decodes everything into a plain [`Network`] with dense
    /// weights (the conventional decode path, for comparison).
    pub fn materialize(&self) -> Result<Network, DeepSzError> {
        let mut net = self.skeleton.clone();
        for c in &self.layers {
            let dense = self
                .decode(c)
                .map_err(|e| self.decode_failure(c.layer_index, e))?
                .dense;
            let Layer::Dense(d) = &mut net.layers[c.layer_index] else {
                unreachable!("validated at construction")
            };
            d.w.data = dense;
        }
        Ok(net)
    }
}

/// One executing fc layer's weights: owned by this pass, or a
/// shared-cache entry other requests may be multiplying against too.
enum Weights {
    Owned(Csr),
    Shared(Payload),
}

impl Weights {
    fn view(&self) -> WeightView<'_> {
        match self {
            Weights::Owned(w) => WeightView::Sparse(w),
            Weights::Shared(w) => w.view(),
        }
    }

    /// Bytes the weights hold resident.
    fn bytes(&self) -> usize {
        match self {
            Weights::Owned(w) => w.size_bytes(),
            Weights::Shared(w) => w.bytes(),
        }
    }
}

/// Where the forward loop gets each fc layer's weights, and what else
/// stays resident while that layer executes (the module docs tabulate
/// each source's memory bound).
enum WeightSource<'m, 's> {
    /// Inline container decode; nothing else resident — strict
    /// `max(layer)`.
    Decode,
    /// Per-model spill cache: parked layers + executing layer ≤
    /// `quota + executing layer`.
    Spill(&'m SpillCache),
    /// Process-wide shared cache, falling back to the spill cache (when
    /// attached) and then to a decode: `quota + executing layer`.
    Shared {
        handle: &'m CacheHandle,
        spill: Option<&'m SpillCache>,
    },
    /// Pool-task decodes queued ahead of execution: executing + in-flight
    /// ≤ the decoded-bytes budget.
    Prefetch(Prefetch<'m, 's>),
}

impl WeightSource<'_, '_> {
    /// The weights of the fc layer stored as record `c`.
    fn acquire(
        &mut self,
        model: &CompressedFcModel,
        c: &CompressedLayer,
    ) -> Result<Weights, DeepSzError> {
        let i = c.layer_index;
        match self {
            WeightSource::Decode => model.decode_inline(c).map(Weights::Owned),
            WeightSource::Spill(cache) => {
                // Make room for this layer before it materializes, so
                // cached + executing never exceeds quota + one layer.
                cache.reserve(c.weight_bytes)?;
                match cache.fetch(i)? {
                    Some(parked) => Ok(Weights::Owned(parked)),
                    None => model.decode_inline(c).map(Weights::Owned),
                }
            }
            WeightSource::Shared { handle, spill } => handle
                .get_or_decode(i, c.record_fnv, || {
                    // Cold layer: prefer a (cheap) spill rehydrate over a
                    // container re-decode.
                    if let Some(spill) = spill {
                        if let Some(parked) = spill.fetch(i)? {
                            return Ok(parked);
                        }
                    }
                    model.decode_inline(c)
                })
                .map(Weights::Shared),
            WeightSource::Prefetch(p) => p.acquire(c).map(Weights::Owned),
        }
    }

    /// Weight bytes the source holds besides the executing layer.
    fn resident_bytes(&self) -> usize {
        match self {
            WeightSource::Decode => 0,
            WeightSource::Spill(cache) => cache.live_bytes(),
            WeightSource::Shared { handle, .. } => handle.cache().live_bytes(),
            WeightSource::Prefetch(p) => p.pending_bytes,
        }
    }

    /// Runs one layer's compute. While prefetch decodes are in flight it
    /// is pinned to the compute half of the worker budget (the decode
    /// tasks hold the rest); otherwise it runs at full width.
    fn compute<R>(&self, f: impl FnOnce() -> R) -> R {
        match self {
            WeightSource::Prefetch(p) if !p.pending.is_empty() => {
                dsz_tensor::parallel::with_workers(p.compute_budget, f)
            }
            _ => f(),
        }
    }

    /// Hands layer `i`'s weights back after its matmul: the spill cache
    /// parks them for the next pass; every other source drops them
    /// (shared-cache entries stay resident through the cache's own
    /// reference).
    fn release(&self, i: usize, weights: Weights) -> Result<(), DeepSzError> {
        match (self, weights) {
            (WeightSource::Spill(cache), Weights::Owned(w)) => cache.store(i, w),
            _ => Ok(()),
        }
    }
}

/// In-flight prefetch decode: (skeleton layer index, decode task, bound
/// on the weight bytes it will produce).
type Pending<'s> = (usize, pool::TaskHandle<'s, Result<Csr, DeepSzError>>, usize);

/// The prefetch source's decode queue. Decode tasks run concurrently with
/// the matmul thread, so the caller's worker budget is split between the
/// two sides (each side at least 1).
struct Prefetch<'m, 's> {
    scope: &'s pool::PoolScope<'s, 'm>,
    model: &'m CompressedFcModel,
    /// fc layers not yet scheduled, in execution order.
    unscheduled: VecDeque<&'m CompressedLayer>,
    pending: VecDeque<Pending<'s>>,
    pending_bytes: usize,
    depth: usize,
    bytes_budget: usize,
    /// Worker budget of each decode task (the decode half of the budget
    /// is shared by all in-flight decodes).
    per_decode_budget: usize,
    /// Worker budget of the compute side while a decode is in flight.
    compute_budget: usize,
}

impl<'m, 's> Prefetch<'m, 's> {
    /// A queue over `model`'s fc layers, warmed so leading non-fc layers
    /// (e.g. a conv stack) overlap with the first decodes.
    fn new(
        scope: &'s pool::PoolScope<'s, 'm>,
        model: &'m CompressedFcModel,
        budget: usize,
    ) -> Self {
        let decode_budget = budget / 2;
        let depth = model.prefetch_depth;
        let mut p = Self {
            scope,
            model,
            unscheduled: model
                .slots
                .iter()
                .flatten()
                .map(|&k| &model.layers[k])
                .collect(),
            pending: VecDeque::new(),
            pending_bytes: 0,
            depth,
            bytes_budget: model.decoded_bytes_budget.unwrap_or(usize::MAX),
            per_decode_budget: (decode_budget / depth).max(1),
            compute_budget: budget - decode_budget,
        };
        p.schedule(0);
        p
    }

    /// Schedules decodes while depth and the bytes budget allow, given
    /// the weight bytes currently held by execution.
    fn schedule(&mut self, executing_bytes: usize) {
        while self.pending.len() < self.depth {
            let Some(&c) = self.unscheduled.front() else {
                break;
            };
            let bytes = c.weight_bytes;
            if executing_bytes + self.pending_bytes + bytes > self.bytes_budget {
                break;
            }
            self.unscheduled.pop_front();
            let (model, per_decode) = (self.model, self.per_decode_budget);
            let task = self.scope.spawn(move || {
                dsz_tensor::parallel::with_workers(per_decode, || model.decode_sparse(c))
            });
            self.pending.push_back((c.layer_index, task, bytes));
            self.pending_bytes += bytes;
        }
    }

    /// Record `c`'s weights: the queued decode when one is in flight, an
    /// inline decode when the bytes budget kept it from being scheduled.
    /// Tops the queue back up once the executing layer's size is known.
    fn acquire(&mut self, c: &CompressedLayer) -> Result<Csr, DeepSzError> {
        let queued = match self.pending.front() {
            Some(&(i, _, _)) if i == c.layer_index => self.pending.pop_front(),
            _ => None,
        };
        let weights = match queued {
            Some((_, task, bytes)) => {
                self.pending_bytes -= bytes;
                task.join()
                    .map_err(|e| self.model.decode_failure(c.layer_index, e))?
            }
            None => {
                // Scheduling is in order and never skips, so with nothing
                // queued for `c`, `c` heads the unscheduled list.
                self.unscheduled.pop_front();
                self.model.decode_inline(c)?
            }
        };
        self.schedule(weights.size_bytes());
        Ok(weights)
    }
}

/// Consistency check used by tests: streaming (sparse) and eager (dense)
/// decode give the same outputs, which holds for every finite probe.
pub fn streaming_matches_eager(
    net: &Network,
    model: &CompressedModel,
    probe: &Batch,
) -> Result<bool, DeepSzError> {
    let streaming = CompressedFcModel::new(net, model)?;
    let (out_s, _) = streaming.forward(probe)?;
    let mut eager = net.clone();
    let (decoded, _) = decode_model(model)?;
    crate::pipeline::apply_decoded(&mut eager, decoded)?;
    Ok(out_s == eager.forward(probe))
}
