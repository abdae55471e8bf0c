//! Process-wide decoded-layer cache shared across models — the serving
//! layer's hot-path allocation (`docs/SERVING.md`).
//!
//! Streaming inference's per-model weight sources each bound *one*
//! model's footprint: the prefetch source's bytes budget
//! ([`CompressedFcModel::with_decoded_bytes_budget`](crate::streaming::CompressedFcModel::with_decoded_bytes_budget))
//! and the spill source's quota
//! ([`CompressedFcModel::with_spill_dir`](crate::streaming::CompressedFcModel::with_spill_dir)).
//! A model with a shared-cache handle attached runs the shared-cache
//! source instead (the bytes budget no longer applies; an attached spill
//! cache becomes its second tier). A multi-tenant server holding N
//! models under one RAM budget needs the opposite shape: **one** quota,
//! shared by every tenant, with the globally hottest layers resident and
//! the cold tail re-decoded (or spill-rehydrated) on demand.
//! [`SharedLayerCache`] is that cache:
//!
//! * Entries are keyed by `(model, layer, record_fnv)` — the FNV of the
//!   layer's compressed record is part of the key, so hot-swapping a
//!   model id to new container bytes can never serve the old model's
//!   weights (the stale key simply stops being looked up and ages out;
//!   [`SharedLayerCache::purge_model`] drops it eagerly).
//! * A [`Payload`] is a layer's weights behind an `Arc`: a hit is a
//!   pointer clone, so any number of concurrent requests (micro-batches
//!   included) multiply against one resident copy. Streaming models park
//!   the sparse form they multiply ([`Payload::Sparse`], a [`Csr`]); a
//!   dense `Arc<Vec<f32>>` converts into [`Payload::Dense`]. Eviction
//!   drops the cache's reference; requests mid-flight keep theirs until
//!   their matmul retires.
//! * The global quota is enforced by a [`ByteBudget`] ledger at
//!   *insertion* time, in the bytes the payload holds
//!   ([`Payload::bytes`]): a decoded layer is parked only if its bytes
//!   [`try_charge`](ByteBudget::try_charge) under the cap after LRU
//!   eviction has made room, and a layer larger than the whole quota
//!   bypasses the cache entirely. The ledger therefore **never exceeds
//!   the quota** — not even transiently — and its high-water mark proves
//!   it. (The layer currently executing a matmul is owned by its
//!   request, not the cache; total live weight bytes are bounded by
//!   `quota + one executing layer per in-flight request`.)
//!
//! Lock discipline: one mutex guards the map; decodes never run under
//! it. Two threads that miss the same key concurrently both decode and
//! the later insert wins (its twin's ledger charge is released) — a
//! deliberate thundering-herd trade: decodes are idempotent and
//! bit-identical, so correctness is unaffected and the hot path stays
//! wait-free for hits.

// The cache sits on the serving decode path: malformed input and quota
// pressure must surface as values, never panics (`docs/ROBUSTNESS.md`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use dsz_tensor::budget::ByteBudget;
use dsz_tensor::{Csr, WeightView};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Cache key: which model, which fc layer, and the FNV-1a digest of the
/// layer's compressed record (content-addressing, so swapped bytes can
/// never alias).
pub type LayerKey = (u64, usize, u64);

/// One cached layer's weights, shared by pointer.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Dense row-major weights.
    Dense(Arc<Vec<f32>>),
    /// The pruned layer's nonzeros — what streaming models park.
    Sparse(Arc<Csr>),
}

impl Payload {
    /// Bytes the payload holds resident: what the ledger charges.
    pub fn bytes(&self) -> usize {
        match self {
            Payload::Dense(w) => w.len() * 4,
            Payload::Sparse(w) => w.size_bytes(),
        }
    }

    /// The weights, for a matmul.
    pub fn view(&self) -> WeightView<'_> {
        match self {
            Payload::Dense(w) => WeightView::Dense(w),
            Payload::Sparse(w) => WeightView::Sparse(w),
        }
    }
}

impl From<Arc<Vec<f32>>> for Payload {
    fn from(w: Arc<Vec<f32>>) -> Self {
        Payload::Dense(w)
    }
}

impl From<Csr> for Payload {
    fn from(w: Csr) -> Self {
        Payload::Sparse(Arc::new(w))
    }
}

#[derive(Debug)]
struct Entry {
    payload: Payload,
    bytes: usize,
    /// Logical touch clock; the smallest value is the LRU victim.
    touched: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<LayerKey, Entry>,
    clock: u64,
}

/// Monotonic activity counters plus the ledger's current/peak state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache (a pointer clone).
    pub hits: u64,
    /// Lookups that found nothing (caller decoded).
    pub misses: u64,
    /// Decoded layers parked in the cache.
    pub insertions: u64,
    /// Entries dropped to make room (LRU order).
    pub evictions: u64,
    /// Decoded layers that could not park (larger than the whole quota,
    /// or raced with an insert of the same key) and went straight to the
    /// caller uncached.
    pub bypasses: u64,
    /// Bytes currently resident.
    pub live_bytes: usize,
    /// Peak resident bytes over the cache's lifetime (≤ quota, always).
    pub high_water: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache, in `[0, 1]`; `0.0`
    /// before any lookup. This is the hit-rate definition every bench
    /// records (`BENCH_serve.json`, `BENCH_encode_decode.json`).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The process-wide decoded-layer LRU cache. See the module docs for the
/// quota and keying contract; construct one per serving process (or per
/// test) and hand models a [`CacheHandle`] each via
/// [`SharedLayerCache::handle`].
#[derive(Debug)]
pub struct SharedLayerCache {
    budget: ByteBudget,
    inner: Mutex<Inner>,
    next_model: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    bypasses: AtomicU64,
}

impl SharedLayerCache {
    /// A cache bounded at `bytes_quota` resident decoded bytes. Quota 0
    /// is legal and means "never park anything" — every lookup misses,
    /// which is exactly the uncached serial path.
    pub fn new(bytes_quota: usize) -> Arc<Self> {
        Arc::new(Self {
            budget: ByteBudget::bounded(bytes_quota),
            inner: Mutex::new(Inner::default()),
            next_model: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
        })
    }

    /// Issues a handle with a fresh model id. Ids are never reused, so a
    /// reloaded model can never hit the unloaded generation's entries.
    pub fn handle(self: &Arc<Self>) -> CacheHandle {
        CacheHandle {
            cache: Arc::clone(self),
            model: self.next_model.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The configured byte quota.
    pub fn quota(&self) -> usize {
        self.budget.cap().unwrap_or(usize::MAX)
    }

    /// Bytes of payloads currently resident (≤ quota).
    pub fn live_bytes(&self) -> usize {
        self.budget.current()
    }

    /// Resident bytes as a fraction of the quota, in `[0, 1]`; `0.0`
    /// for a zero quota (nothing can ever park). A cheap load watermark
    /// for serving dashboards and shed heuristics.
    pub fn utilization(&self) -> f64 {
        self.budget.utilization()
    }

    /// Snapshot of the activity counters and ledger state.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            live_bytes: self.budget.current(),
            high_water: self.budget.high_water(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panic under this lock can only be a bug in this module; the
        // map is still structurally sound, so recover rather than poison
        // every future request.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn fetch(&self, key: LayerKey) -> Option<Payload> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(&key) {
            Some(e) => {
                e.touched = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.payload.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Parks a decoded payload under `key`, evicting LRU entries until
    /// its [`Payload::bytes`] fit under the quota. Returns whether it was
    /// cached (`false` = bypass: larger than the whole quota, or an insert
    /// of the same key raced ahead). The ledger is charged *before* the
    /// map holds the entry and never exceeds the quota.
    pub fn insert(&self, key: LayerKey, payload: impl Into<Payload>) -> bool {
        let payload = payload.into();
        let bytes = payload.bytes();
        while !self.budget.try_charge(bytes) {
            // Evict the least-recently-touched entry; if there is
            // nothing left to evict the payload simply cannot fit.
            let evicted = {
                let mut inner = self.lock();
                let victim = inner
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.touched)
                    .map(|(k, _)| *k);
                victim.and_then(|k| inner.map.remove(&k))
            };
            match evicted {
                Some(e) => {
                    self.budget.release(e.bytes);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    self.bypasses.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
        }
        let mut inner = self.lock();
        inner.clock += 1;
        let entry = Entry {
            payload,
            bytes,
            touched: inner.clock,
        };
        if let Some(old) = inner.map.insert(key, entry) {
            // A concurrent decode of the same key got here first; the
            // payloads are bit-identical, keep ours and release its
            // charge so the ledger stays exact.
            self.budget.release(old.bytes);
            self.bypasses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Drops every entry belonging to `model`, releasing their bytes —
    /// the unload/hot-swap path.
    pub fn purge_model(&self, model: u64) {
        let removed: Vec<Entry> = {
            let mut inner = self.lock();
            let keys: Vec<LayerKey> = inner
                .map
                .keys()
                .filter(|(m, _, _)| *m == model)
                .copied()
                .collect();
            keys.into_iter()
                .filter_map(|k| inner.map.remove(&k))
                .collect()
        };
        for e in removed {
            self.budget.release(e.bytes);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of resident entries (diagnostics).
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One model's view of a [`SharedLayerCache`]: the cache pointer plus
/// the model id baked into every key. Clones share the id (a clone of a
/// streaming model keeps hitting the same entries); a *new* generation
/// of the model must take a fresh handle.
#[derive(Debug, Clone)]
pub struct CacheHandle {
    cache: Arc<SharedLayerCache>,
    model: u64,
}

impl CacheHandle {
    /// The shared cache this handle points into.
    pub fn cache(&self) -> &Arc<SharedLayerCache> {
        &self.cache
    }

    /// This handle's model id (unique per [`SharedLayerCache::handle`]).
    pub fn model(&self) -> u64 {
        self.model
    }

    /// Looks up `(self.model, layer, record_fnv)`; on a miss runs
    /// `decode`, parks the result (quota permitting), and returns it.
    /// The decode runs outside every cache lock.
    pub fn get_or_decode<P: Into<Payload>, E>(
        &self,
        layer: usize,
        record_fnv: u64,
        decode: impl FnOnce() -> Result<P, E>,
    ) -> Result<Payload, E> {
        let key = (self.model, layer, record_fnv);
        if let Some(hit) = self.cache.fetch(key) {
            return Ok(hit);
        }
        let payload = decode()?.into();
        self.cache.insert(key, payload.clone());
        Ok(payload)
    }

    /// Drops this model's entries (see [`SharedLayerCache::purge_model`]).
    pub fn purge(&self) {
        self.cache.purge_model(self.model);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize, fill: f32) -> Arc<Vec<f32>> {
        Arc::new(vec![fill; n])
    }

    #[test]
    fn hit_after_insert_is_same_allocation() {
        let cache = SharedLayerCache::new(1 << 16);
        let h = cache.handle();
        let p = payload(8, 1.5);
        assert!(cache.insert((h.model(), 0, 7), Arc::clone(&p)));
        let Some(Payload::Dense(got)) = cache.fetch((h.model(), 0, 7)) else {
            panic!("dense payload expected");
        };
        assert!(Arc::ptr_eq(&got, &p), "hit must share the allocation");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().live_bytes, 32);
    }

    #[test]
    fn lru_eviction_under_quota() {
        // Quota fits exactly two 4-element entries.
        let cache = SharedLayerCache::new(32);
        let h = cache.handle();
        let m = h.model();
        assert!(cache.insert((m, 0, 0), payload(4, 0.0)));
        assert!(cache.insert((m, 1, 1), payload(4, 1.0)));
        // Touch layer 0 so layer 1 is the LRU victim.
        assert!(cache.fetch((m, 0, 0)).is_some());
        assert!(cache.insert((m, 2, 2), payload(4, 2.0)));
        assert!(cache.fetch((m, 0, 0)).is_some(), "recently touched stays");
        assert!(cache.fetch((m, 1, 1)).is_none(), "LRU victim evicted");
        assert!(cache.fetch((m, 2, 2)).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.high_water <= 32, "ledger must never pass the quota");
    }

    #[test]
    fn oversized_payload_bypasses() {
        let cache = SharedLayerCache::new(8);
        let h = cache.handle();
        assert!(!cache.insert((h.model(), 0, 0), payload(100, 0.5)));
        assert_eq!(cache.stats().bypasses, 1);
        assert_eq!(cache.stats().live_bytes, 0);
        assert_eq!(cache.stats().high_water, 0);
    }

    #[test]
    fn zero_quota_never_parks() {
        let cache = SharedLayerCache::new(0);
        let h = cache.handle();
        let out = h
            .get_or_decode(3, 9, || Ok::<_, ()>(Arc::new(vec![1.0f32; 16])))
            .unwrap();
        assert_eq!(out.bytes(), 64);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().high_water, 0);
    }

    #[test]
    fn purge_model_releases_only_that_model() {
        let cache = SharedLayerCache::new(1 << 16);
        let a = cache.handle();
        let b = cache.handle();
        assert_ne!(a.model(), b.model());
        cache.insert((a.model(), 0, 1), payload(4, 0.0));
        cache.insert((b.model(), 0, 1), payload(4, 0.0));
        a.purge();
        assert!(cache.fetch((a.model(), 0, 1)).is_none());
        assert!(cache.fetch((b.model(), 0, 1)).is_some());
        assert_eq!(cache.stats().live_bytes, 16);
    }

    #[test]
    fn get_or_decode_decodes_once_then_hits() {
        let cache = SharedLayerCache::new(1 << 16);
        let h = cache.handle();
        let mut decodes = 0u32;
        for _ in 0..3 {
            let out = h
                .get_or_decode(0, 42, || {
                    decodes += 1;
                    Ok::<_, ()>(Arc::new(vec![2.0f32; 4]))
                })
                .unwrap();
            assert!(matches!(out.view(), WeightView::Dense(w) if w == [2.0f32; 4]));
        }
        assert_eq!(decodes, 1, "hot layer decodes once");
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn sparse_payload_charges_its_resident_bytes() {
        let w = Csr::from_dense(&[0.0, 1.5, 0.0, 0.0, -2.0, 3.0], 2, 3);
        let bytes = w.size_bytes();
        assert_eq!(bytes, 3 * 4 + 3 * 4 + 3 * 4);
        let cache = SharedLayerCache::new(bytes);
        let h = cache.handle();
        assert!(cache.insert((h.model(), 0, 1), w.clone()));
        assert_eq!(cache.stats().live_bytes, bytes);
        let Some(Payload::Sparse(got)) = cache.fetch((h.model(), 0, 1)) else {
            panic!("sparse payload expected");
        };
        assert_eq!(*got, w);
        // A second layer of the same size evicts the first.
        assert!(cache.insert((h.model(), 1, 2), w));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.stats().high_water <= bytes);
    }

    #[test]
    fn hit_rate_definition() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn fresh_cache_reports_zero_hit_rate_and_utilization() {
        // The zero-lookup edge through a *live* cache (not a synthetic
        // stats struct): no division by zero, no NaN leaking into the
        // bench JSON.
        let cache = SharedLayerCache::new(64);
        assert_eq!(cache.stats().hit_rate(), 0.0);
        assert_eq!(cache.utilization(), 0.0);
        assert!(cache.stats().hit_rate().is_finite());
        // Inserts alone (no lookups) still report a 0.0 hit rate.
        let h = cache.handle();
        assert!(cache.insert((h.model(), 0, 1), payload(4, 1.0)));
        assert_eq!(cache.stats().hit_rate(), 0.0);
        assert!((cache.utilization() - 0.25).abs() < 1e-12);
    }
}
