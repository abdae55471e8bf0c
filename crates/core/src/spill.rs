//! Quota-accounted disk spill for decoded sparse layers.
//!
//! Streaming inference ([`crate::streaming`]) re-decodes a layer every
//! forward pass; with a decoded-bytes budget it cannot even keep hot
//! layers around. [`SpillCache`] completes the larger-than-RAM story:
//! decoded layers — in the [`Csr`] form the forward pass multiplies —
//! live in an in-memory map bounded by a bytes quota, and when the quota
//! forces an eviction the payload is written to disk — FNV-stamped —
//! instead of being thrown away. The next access
//! re-loads the spill file (one read + one hash, typically far cheaper
//! than lossless + lossy decompression + reconstruction) rather than
//! re-decoding.
//!
//! # Integrity
//!
//! A spill file is trusted exactly as much as a container record: not at
//! all. Every file carries a header `"DSPL" | key u64 LE | value count
//! u64 LE | body FNV-1a u64 LE` followed by the body `rows u64 LE | cols
//! u64 LE | row_ptr (rows + 1) × u32 LE | col_idx × u32 LE | values × f32
//! LE`, and is verified on read — a stomped, truncated, swapped or
//! malformed file surfaces as [`DeepSzError::Corrupt`] with stage
//! `"spill"`, never as wrong weights (`docs/ROBUSTNESS.md`). Writes go to
//! a temp file and are renamed into place so a crash mid-spill leaves no
//! plausible file.
//!
//! # Accounting
//!
//! The quota bounds the *cached* live bytes — each payload's
//! [`Csr::size_bytes`]. Callers that are about to
//! materialize a layer call [`SpillCache::reserve`] first, so
//! `executing + cached ≤ quota` holds throughout a forward pass (a
//! single layer larger than the whole quota still has to materialize
//! alone to execute — it just never parks in the cache). Eviction is
//! LRU: the layer touched longest ago spills first.

// Spill files are untrusted input: every malformed byte must surface as
// a `DeepSzError`, never a panic (`docs/ROBUSTNESS.md`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::pipeline::{corrupt, read_u64_le};
use crate::DeepSzError;
use dsz_lossless::fnv1a;
use dsz_tensor::Csr;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const SPILL_MAGIC: &[u8; 4] = b"DSPL";
const SPILL_HEADER_LEN: usize = 4 + 8 + 8 + 8;
/// Hard cap on values accepted from a spill-file header, mirroring the
/// container's dims cap: a corrupt length field must not size an
/// allocation.
const MAX_SPILL_ELEMS: usize = 1 << 28;
/// Bytes of the body's `rows | cols` prefix.
const BODY_DIMS_LEN: usize = 16;

/// Counters describing what the cache did (monotonic since creation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Fetches served straight from the in-memory map.
    pub live_hits: u64,
    /// Fetches served by reading + verifying a spill file.
    pub rehydrates: u64,
    /// Evictions written to disk.
    pub spills: u64,
    /// Fetches that found nothing (caller must decode).
    pub misses: u64,
    /// Spill files that failed verification on read. The bad file is
    /// deleted and its key unregistered on the way out, so the *next*
    /// fetch is a clean miss and the caller's retry decodes from the
    /// container — which is what makes a spill-stage
    /// [`DeepSzError::Corrupt`] transient
    /// ([`DeepSzError::transient`](crate::DeepSzError::transient)).
    pub poisoned: u64,
}

#[derive(Debug, Default)]
struct Inner {
    /// Decoded payloads resident in memory, keyed by layer index.
    live: HashMap<usize, Csr>,
    /// Keys in recency order, oldest first (entries may be stale; the
    /// `live` map is authoritative).
    lru: VecDeque<usize>,
    live_bytes: usize,
    /// Keys with a spill file on disk.
    spilled: std::collections::HashSet<usize>,
    stats: SpillStats,
}

/// An LRU cache of decoded sparse layers that evicts to FNV-stamped disk
/// files instead of discarding. See the module docs for the quota
/// contract.
#[derive(Debug)]
pub struct SpillCache {
    dir: PathBuf,
    quota: usize,
    inner: Mutex<Inner>,
}

impl SpillCache {
    /// Creates a cache spilling into `dir` (created if absent) with at
    /// most `bytes_quota` bytes of decoded payloads held in memory.
    pub fn new(dir: impl AsRef<Path>, bytes_quota: usize) -> Result<Self, DeepSzError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| DeepSzError::BadContainer(format!("spill dir {}: {e}", dir.display())))?;
        Ok(Self {
            dir,
            quota: bytes_quota,
            inner: Mutex::new(Inner::default()),
        })
    }

    /// Bytes of decoded payloads currently held in memory (≤ quota).
    pub fn live_bytes(&self) -> usize {
        self.lock().live_bytes
    }

    /// Snapshot of the activity counters.
    pub fn stats(&self) -> SpillStats {
        self.lock().stats
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding the lock can only come from a bug in this
        // module, not from bad input; the data is still consistent enough
        // to read, so recover rather than propagate the poison.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn file_for(&self, key: usize) -> PathBuf {
        self.dir.join(format!("layer-{key}.dspill"))
    }

    /// Removes and returns the cached payload for `key`, if any — from
    /// memory if live, else by reading and verifying its spill file. A
    /// hit transfers ownership (and its bytes) to the caller; re-park it
    /// with [`store`](Self::store) when done. Returns `Ok(None)` when the
    /// layer was never stored (or its spill file was already consumed),
    /// meaning the caller must decode from the container.
    pub fn fetch(&self, key: usize) -> Result<Option<Csr>, DeepSzError> {
        {
            let mut inner = self.lock();
            if let Some(payload) = inner.live.remove(&key) {
                inner.live_bytes -= payload.size_bytes();
                inner.stats.live_hits += 1;
                return Ok(Some(payload));
            }
            if !inner.spilled.contains(&key) {
                inner.stats.misses += 1;
                return Ok(None);
            }
        }
        // Rehydrate outside the lock; the file read dominates.
        let payload = match self.read_spill_file(key) {
            Ok(p) => p,
            Err(e) => {
                // Self-heal: a poisoned file would fail identically on
                // every future read, so delete it and forget the key.
                // The error still surfaces (the caller's current fetch
                // *did* fail), but a retry now misses cleanly and
                // decodes from the verified container instead.
                std::fs::remove_file(self.file_for(key)).ok();
                let mut inner = self.lock();
                inner.spilled.remove(&key);
                inner.stats.poisoned += 1;
                return Err(e);
            }
        };
        let mut inner = self.lock();
        inner.spilled.remove(&key);
        inner.stats.rehydrates += 1;
        std::fs::remove_file(self.file_for(key)).ok();
        Ok(Some(payload))
    }

    /// Evicts live entries (oldest first, spilling each to disk) until
    /// `incoming` more bytes would fit under the quota. Call before
    /// materializing a layer so `executing + cached` stays bounded.
    pub fn reserve(&self, incoming: usize) -> Result<(), DeepSzError> {
        loop {
            let victim = {
                let mut inner = self.lock();
                if inner.live_bytes + incoming <= self.quota || inner.live.is_empty() {
                    return Ok(());
                }
                loop {
                    match inner.lru.pop_front() {
                        Some(k) => {
                            if let Some(payload) = inner.live.remove(&k) {
                                inner.live_bytes -= payload.size_bytes();
                                break Some((k, payload));
                            }
                            // Stale recency entry for a key already taken.
                        }
                        None => break None,
                    }
                }
            };
            match victim {
                Some((key, payload)) => self.spill_to_disk(key, payload)?,
                None => return Ok(()),
            }
        }
    }

    /// Parks a decoded payload in the cache under `key`, evicting (to
    /// disk) as needed to respect the quota. A payload larger than the
    /// whole quota bypasses memory and spills straight to disk.
    pub fn store(&self, key: usize, payload: Csr) -> Result<(), DeepSzError> {
        let bytes = payload.size_bytes();
        if bytes > self.quota {
            // Drop any stale in-memory copy so a later fetch cannot serve
            // bytes that this store superseded.
            let mut inner = self.lock();
            if let Some(old) = inner.live.remove(&key) {
                inner.live_bytes -= old.size_bytes();
            }
            drop(inner);
            return self.spill_to_disk(key, payload);
        }
        self.reserve(bytes)?;
        let mut inner = self.lock();
        inner.spilled.remove(&key); // memory copy supersedes any old file
        if let Some(old) = inner.live.insert(key, payload) {
            inner.live_bytes -= old.size_bytes();
        }
        inner.live_bytes += bytes;
        inner.lru.push_back(key);
        Ok(())
    }

    fn spill_to_disk(&self, key: usize, payload: Csr) -> Result<(), DeepSzError> {
        let mut body = Vec::with_capacity(BODY_DIMS_LEN + payload.size_bytes());
        body.extend_from_slice(&(payload.rows as u64).to_le_bytes());
        body.extend_from_slice(&(payload.cols as u64).to_le_bytes());
        for p in payload.row_ptr.iter().chain(&payload.col_idx) {
            body.extend_from_slice(&p.to_le_bytes());
        }
        for v in &payload.values {
            body.extend_from_slice(&v.to_le_bytes());
        }
        let mut bytes = Vec::with_capacity(SPILL_HEADER_LEN + body.len());
        bytes.extend_from_slice(SPILL_MAGIC);
        bytes.extend_from_slice(&(key as u64).to_le_bytes());
        bytes.extend_from_slice(&(payload.nnz() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a(&body).to_le_bytes());
        bytes.extend_from_slice(&body);

        let path = self.file_for(key);
        let tmp = self.dir.join(format!("layer-{key}.dspill.tmp"));
        std::fs::write(&tmp, &bytes)
            .and_then(|()| std::fs::rename(&tmp, &path))
            .map_err(|e| {
                DeepSzError::BadContainer(format!("spill write {}: {e}", path.display()))
            })?;
        let mut inner = self.lock();
        inner.spilled.insert(key);
        inner.stats.spills += 1;
        Ok(())
    }

    fn read_spill_file(&self, key: usize) -> Result<Csr, DeepSzError> {
        let label = format!("<spill {key}>");
        let bad = |msg: String| corrupt(&label, "spill", msg);
        let path = self.file_for(key);
        let bytes =
            std::fs::read(&path).map_err(|e| bad(format!("read {}: {e}", path.display())))?;
        if bytes.len() < SPILL_HEADER_LEN || &bytes[..4] != SPILL_MAGIC {
            return Err(bad("bad spill file header".into()));
        }
        let file_key = read_u64_le(&bytes, 4).ok_or_else(|| bad("truncated".into()))?;
        if file_key != key as u64 {
            return Err(bad(format!(
                "file stamped for layer {file_key}, expected {key}"
            )));
        }
        let nnz = read_u64_le(&bytes, 12)
            .and_then(|v| usize::try_from(v).ok())
            .filter(|&n| n <= MAX_SPILL_ELEMS)
            .ok_or_else(|| bad("value count out of range".into()))?;
        let want_fnv = read_u64_le(&bytes, 20).ok_or_else(|| bad("truncated".into()))?;
        let body = &bytes[SPILL_HEADER_LEN..];
        if fnv1a(body) != want_fnv {
            return Err(bad("payload fnv mismatch".into()));
        }
        let dim = |at: usize| read_u64_le(body, at).and_then(|v| usize::try_from(v).ok());
        let (rows, cols) = dim(0)
            .zip(dim(8))
            .filter(|&(rows, _)| rows <= MAX_SPILL_ELEMS)
            .ok_or_else(|| bad("dims out of range".into()))?;
        let want_len = BODY_DIMS_LEN + (rows + 1) * 4 + nnz * 8;
        if body.len() != want_len {
            return Err(bad(format!(
                "body is {} bytes, header declares {want_len}",
                body.len()
            )));
        }
        let (ptr_bytes, rest) = body[BODY_DIMS_LEN..].split_at((rows + 1) * 4);
        let (col_bytes, value_bytes) = rest.split_at(nnz * 4);
        let row_ptr = le_words(ptr_bytes).map(u32::from_le_bytes).collect();
        let col_idx = le_words(col_bytes).map(u32::from_le_bytes).collect();
        let values = le_words(value_bytes).map(f32::from_le_bytes).collect();
        let payload = Csr {
            rows,
            cols,
            values,
            col_idx,
            row_ptr,
        };
        if !payload.is_well_formed() {
            return Err(bad("malformed sparse payload".into()));
        }
        Ok(payload)
    }
}

/// The 4-byte little-endian words of `b` (a whole number of them).
fn le_words(b: &[u8]) -> impl Iterator<Item = [u8; 4]> + '_ {
    b.chunks_exact(4).map(|c| [c[0], c[1], c[2], c[3]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A one-row sparse payload of `n` stored values.
    fn payload(values: Vec<f32>) -> Csr {
        let n = values.len();
        Csr {
            rows: 1,
            cols: n,
            values,
            col_idx: (0..n as u32).collect(),
            row_ptr: vec![0, n as u32],
        }
    }

    fn bits(p: &Csr) -> Vec<u32> {
        p.values.iter().map(|v| v.to_bits()).collect()
    }

    fn test_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "dsz-spill-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn store_fetch_roundtrips_in_memory() {
        let dir = test_dir("mem");
        let cache = SpillCache::new(&dir, 1 << 20).unwrap();
        let payload = payload(vec![1.0f32, -2.5, 3.25]);
        cache.store(7, payload.clone()).unwrap();
        assert_eq!(cache.live_bytes(), payload.size_bytes());
        assert_eq!(cache.fetch(7).unwrap().unwrap(), payload);
        assert_eq!(cache.live_bytes(), 0, "fetch transfers ownership");
        assert_eq!(cache.stats().live_hits, 1);
        assert_eq!(cache.stats().spills, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quota_forces_spill_and_rehydrate_is_bit_identical() {
        let dir = test_dir("evict");
        let a = payload(vec![0.1, 0.2, 0.3, 0.4]);
        let b = payload(vec![9.0, 8.0, 7.0, 6.0]);
        // Quota fits exactly one 4-element payload.
        let quota = a.size_bytes();
        let cache = SpillCache::new(&dir, quota).unwrap();
        cache.store(0, a.clone()).unwrap();
        cache.store(1, b.clone()).unwrap(); // evicts 0 to disk
        assert!(cache.live_bytes() <= quota);
        assert_eq!(cache.stats().spills, 1);
        let back = cache.fetch(0).unwrap().unwrap();
        assert_eq!(back, a, "rehydrated payload keeps its structure");
        assert_eq!(
            bits(&back),
            bits(&a),
            "rehydrated payload must be bit-identical"
        );
        assert_eq!(cache.stats().rehydrates, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_payload_spills_straight_to_disk() {
        let dir = test_dir("oversize");
        let cache = SpillCache::new(&dir, 8).unwrap();
        let big = payload((0..64).map(|i| i as f32).collect());
        cache.store(3, big.clone()).unwrap();
        assert_eq!(
            cache.live_bytes(),
            0,
            "oversized payload must not park in memory"
        );
        assert_eq!(cache.fetch(3).unwrap().unwrap(), big);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poisoned_spill_file_is_rejected() {
        let dir = test_dir("poison");
        let cache = SpillCache::new(&dir, 8).unwrap();
        cache
            .store(5, payload((0..32).map(|i| i as f32 * 0.5).collect()))
            .unwrap();
        let path = dir.join("layer-5.dspill");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // stomp a payload byte
        std::fs::write(&path, &bytes).unwrap();
        let err = cache.fetch(5).unwrap_err();
        match err {
            DeepSzError::Corrupt { stage, .. } => assert_eq!(stage, "spill"),
            other => panic!("expected Corrupt at spill stage, got {other}"),
        }
        assert!(err.transient(), "spill corruption is the retryable kind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poisoned_spill_file_self_heals_to_a_clean_miss() {
        let dir = test_dir("heal");
        let cache = SpillCache::new(&dir, 8).unwrap();
        cache
            .store(5, payload((0..32).map(|i| i as f32 * 0.5).collect()))
            .unwrap();
        let path = dir.join("layer-5.dspill");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.fetch(5).is_err(), "first fetch reports the damage");
        assert_eq!(cache.stats().poisoned, 1);
        assert!(!path.exists(), "the bad file must be deleted");
        // The retry is a clean miss: the caller re-decodes from the
        // container rather than re-reading a file that can never verify.
        assert_eq!(cache.fetch(5).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_file_for_wrong_layer_is_rejected() {
        let dir = test_dir("swap");
        let cache = SpillCache::new(&dir, 0).unwrap();
        cache.store(1, payload(vec![1.0f32; 8])).unwrap();
        cache.store(2, payload(vec![2.0f32; 8])).unwrap();
        // Swap the files on disk: each now vouches for the other's key.
        let p1 = dir.join("layer-1.dspill");
        let p2 = dir.join("layer-2.dspill");
        let b1 = std::fs::read(&p1).unwrap();
        let b2 = std::fs::read(&p2).unwrap();
        std::fs::write(&p1, &b2).unwrap();
        std::fs::write(&p2, &b1).unwrap();
        for key in [1usize, 2] {
            match cache.fetch(key).unwrap_err() {
                DeepSzError::Corrupt { stage, .. } => assert_eq!(stage, "spill"),
                other => panic!("expected Corrupt at spill stage, got {other}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reserve_keeps_headroom_under_quota() {
        let dir = test_dir("reserve");
        let each = payload(vec![0.0; 4]).size_bytes();
        let cache = SpillCache::new(&dir, 4 * each).unwrap();
        for k in 0..4 {
            cache.store(k, payload(vec![k as f32; 4])).unwrap();
        }
        assert_eq!(cache.live_bytes(), 4 * each);
        cache.reserve(2 * each).unwrap();
        assert!(
            cache.live_bytes() + 2 * each <= 4 * each,
            "reserve must make room"
        );
        assert!(cache.stats().spills >= 2);
        // Everything evicted is still reachable.
        for k in 0..4 {
            assert_eq!(cache.fetch(k).unwrap().unwrap(), payload(vec![k as f32; 4]));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_quota_spills_everything_and_still_serves() {
        let dir = test_dir("zero");
        let cache = SpillCache::new(&dir, 0).unwrap();
        for k in 0..3 {
            cache.store(k, payload(vec![k as f32 + 0.5; 16])).unwrap();
        }
        assert_eq!(cache.live_bytes(), 0);
        assert_eq!(cache.stats().spills, 3);
        for k in 0..3 {
            assert_eq!(
                cache.fetch(k).unwrap().unwrap(),
                payload(vec![k as f32 + 0.5; 16])
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksummed_but_malformed_payload_is_rejected() {
        // A file whose FNV matches but whose CSR arrays are inconsistent
        // (a column past `cols`) must never reach the kernel.
        let dir = test_dir("malformed");
        let cache = SpillCache::new(&dir, 0).unwrap();
        let mut bad = payload(vec![1.0, 2.0]);
        bad.col_idx[1] = 9;
        cache.store(4, bad).unwrap();
        match cache.fetch(4).unwrap_err() {
            DeepSzError::Corrupt { stage, .. } => assert_eq!(stage, "spill"),
            other => panic!("expected Corrupt at spill stage, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
