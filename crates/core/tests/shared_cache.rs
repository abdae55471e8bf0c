//! Cross-model shared decoded-layer cache through the streaming forward
//! pass (`CompressedFcModel::with_shared_cache`, `docs/SERVING.md`).
//!
//! The contract under test, end to end:
//!
//! * **Bit-identity at every quota** — a shared-cache forward returns
//!   exactly the uncached serial path's bits whether the quota is 0
//!   (nothing ever parks), smaller than one layer, exactly one layer, or
//!   effectively unbounded; and repeat forwards (hits) return the same
//!   bits again.
//! * **Ledger safety** — the cache's `ByteBudget` high-water mark never
//!   exceeds the global quota (the same assertion pattern
//!   `streaming_encode.rs` pins for the encode-side ledger, here without
//!   even a mandatory-floor allowance: insertion is `try_charge`-gated),
//!   including under seeded multi-thread cross-model stress.
//! * **Evict-then-refetch** — layers evicted under quota pressure and
//!   later refetched decode bit-identical to the first decode.
//! * **One loop, every source** — the shared-cache source and every other
//!   weight source (inline decode, prefetch, spill) probe the forward
//!   hook identically, stop at the same layer boundary when cancelled,
//!   and return the same bits.

use dsz_core::optimizer::{ChosenLayer, Plan};
use dsz_core::{
    encode_with_plan_config, CompressedFcModel, CompressedModel, DataCodecKind, DeepSzError,
    ForwardHook, LayerAssessment, SharedLayerCache,
};
use dsz_nn::{Batch, FcLayerRef};
use dsz_sparse::PairArray;
use dsz_sz::SzConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Two chained fc layers (24×32 then 16×24, 35% dense): resident sparse
/// payloads of about 2.3 KB and 1.2 KB ([`weight_bytes`]), small enough to
/// sweep quotas around both sizes.
fn fixture(seed: u64) -> (dsz_nn::Network, CompressedModel) {
    let shapes = [(24usize, 32usize), (16, 24)];
    let ebs = [1e-2f64, 1e-3];
    let mut assessments = Vec::new();
    let mut chosen = Vec::new();
    let mut net = dsz_nn::Network {
        input_shape: dsz_tensor::VolShape { c: 32, h: 1, w: 1 },
        layers: Vec::new(),
    };
    for (li, &(rows, cols)) in shapes.iter().enumerate() {
        let mut dense = dsz_datagen::weights::trained_fc_weights(rows, cols, seed + li as u64);
        dsz_prune::prune_to_density(&mut dense, 0.35);
        let pair = PairArray::from_dense(&dense, rows, cols);
        let (index_codec, index_blob) = dsz_lossless::best_fit(&pair.index);
        let fc = FcLayerRef {
            layer_index: li,
            name: format!("fc{li}"),
            rows,
            cols,
        };
        net.layers.push(dsz_nn::Layer::Dense(dsz_nn::DenseLayer {
            name: fc.name.clone(),
            w: dsz_tensor::Matrix {
                rows,
                cols,
                data: dense,
            },
            b: vec![0.0; rows],
        }));
        chosen.push(ChosenLayer {
            fc: fc.clone(),
            eb: ebs[li],
            degradation: 0.0,
            data_bytes: 0,
            index_bytes: index_blob.len(),
            codec: DataCodecKind::Sz,
            point_index: 0,
        });
        assessments.push(LayerAssessment {
            fc,
            pair,
            index_codec,
            index_bytes: index_blob.len(),
            points: Vec::new(),
        });
    }
    let plan = Plan {
        layers: chosen,
        predicted_loss: 0.0,
        total_bytes: 0,
    };
    let sz = SzConfig {
        chunk_elems: 4096,
        ..SzConfig::default()
    };
    let (model, _) = encode_with_plan_config(&assessments, &plan, &sz).unwrap();
    (net, model)
}

/// Resident bytes of each fc layer's decoded payload, `(larger, smaller)`:
/// the CSR built from the layer's gap stream, which the container stores
/// losslessly, so the original layer's CSR has the decoded one's size.
fn weight_bytes(net: &dsz_nn::Network) -> (usize, usize) {
    let size = |i: usize| {
        let w = &net.dense(i).w;
        let pair = PairArray::from_dense(&w.data, w.rows, w.cols);
        pair.to_csr().unwrap().size_bytes()
    };
    let (fc0, fc1) = (size(0), size(1));
    assert!(fc0 > fc1, "fc0 is the larger layer");
    (fc0, fc1)
}

fn probe(n: usize, seed: u64) -> Batch {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let data = (0..n * 32)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect();
    Batch::from_features(n, 32, data)
}

fn bits(b: &Batch) -> Vec<u32> {
    b.data.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn shared_cache_forward_bit_identical_at_every_quota() {
    let (net, model) = fixture(0x59A);
    let x = probe(3, 0xCAFE);
    let reference = CompressedFcModel::new(&net, &model)
        .unwrap()
        .with_prefetch_depth(0)
        .forward(&x)
        .unwrap()
        .0;
    let (big, small) = weight_bytes(&net);
    // 0 = never parks; below the smaller layer; exactly the smaller or
    // the larger layer; then room for one, both, and everything.
    for quota in [
        0usize,
        small - 1,
        small,
        big,
        big + small - 1,
        big + small,
        1 << 20,
    ] {
        let cache = SharedLayerCache::new(quota);
        let streaming = CompressedFcModel::new(&net, &model)
            .unwrap()
            .with_shared_cache(cache.handle());
        for pass in 0..3 {
            let (out, stats) = streaming.forward(&x).unwrap();
            assert_eq!(
                bits(&out),
                bits(&reference),
                "quota {quota} pass {pass} diverged from the uncached serial path"
            );
            assert!(stats.peak_weight_bytes >= big, "executing layer counted");
        }
        let s = cache.stats();
        assert!(
            s.high_water <= quota,
            "quota {quota}: ledger high-water {} exceeded the quota",
            s.high_water
        );
        assert!(s.live_bytes <= quota);
        if quota == 0 {
            assert_eq!(s.hits, 0, "a zero quota can never hit");
        }
        if quota >= big + small {
            // Both layers fit: passes 2 and 3 are pure hits.
            assert_eq!(s.hits, 4, "quota {quota}: expected 4 hits, got {}", s.hits);
            assert_eq!(s.misses, 2);
        }
    }
}

#[test]
fn evicted_then_refetched_layers_decode_bit_identical() {
    let (net, model) = fixture(0x59A);
    let x = probe(2, 0xBEEF);
    // Quota fits the larger layer alone: every forward parks fc0, then
    // must evict it to park fc1, so the next pass re-decodes fc0 — a
    // continuous evict/refetch churn.
    let (big, _) = weight_bytes(&net);
    let cache = SharedLayerCache::new(big);
    let streaming = CompressedFcModel::new(&net, &model)
        .unwrap()
        .with_shared_cache(cache.handle());
    let (first, _) = streaming.forward(&x).unwrap();
    for _ in 0..4 {
        let (again, _) = streaming.forward(&x).unwrap();
        assert_eq!(bits(&again), bits(&first), "refetched layer changed bits");
    }
    let s = cache.stats();
    assert!(s.evictions > 0, "quota pressure must have evicted");
    assert!(s.high_water <= big);
}

#[test]
fn cancelled_forward_stops_with_cancelled_error() {
    let (net, model) = fixture(0x59A);
    let x = probe(1, 1);
    let cache = SharedLayerCache::new(1 << 20);
    let streaming = CompressedFcModel::new(&net, &model)
        .unwrap()
        .with_shared_cache(cache.handle());
    match streaming.forward_cancellable(&x, &|| true) {
        Err(DeepSzError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // A probe that never fires must not change the result.
    let (out, _) = streaming.forward_cancellable(&x, &|| false).unwrap();
    let reference = CompressedFcModel::new(&net, &model)
        .unwrap()
        .with_prefetch_depth(0)
        .forward(&x)
        .unwrap()
        .0;
    assert_eq!(bits(&out), bits(&reference));
}

/// Seeded multi-thread cross-model stress: 4 threads hammer two models
/// through one tightly-quota'd cache. The ledger must never exceed the
/// quota (checked live from a racing observer thread *and* via the
/// high-water mark afterwards), and every forward must stay bit-identical
/// to its model's uncached reference.
#[test]
fn concurrent_cross_model_stress_respects_quota_and_bits() {
    let (net_a, model_a) = fixture(0x59A);
    let (net_b, model_b) = fixture(0xB0B);
    // Quota just over one large layer: continuous cross-model eviction.
    let (big, small) = weight_bytes(&net_a);
    assert_eq!(weight_bytes(&net_b), (big, small), "same pruned shapes");
    let quota = big + small / 2;
    let cache = SharedLayerCache::new(quota);
    let shared_a = Arc::new(
        CompressedFcModel::new(&net_a, &model_a)
            .unwrap()
            .with_shared_cache(cache.handle()),
    );
    let shared_b = Arc::new(
        CompressedFcModel::new(&net_b, &model_b)
            .unwrap()
            .with_shared_cache(cache.handle()),
    );
    let x = probe(2, 0x7E57);
    let ref_a = bits(
        &CompressedFcModel::new(&net_a, &model_a)
            .unwrap()
            .with_prefetch_depth(0)
            .forward(&x)
            .unwrap()
            .0,
    );
    let ref_b = bits(
        &CompressedFcModel::new(&net_b, &model_b)
            .unwrap()
            .with_prefetch_depth(0)
            .forward(&x)
            .unwrap()
            .0,
    );

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        // Racing observer: samples the live ledger while workers churn.
        let observer = {
            let cache = Arc::clone(&cache);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut peak = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    peak = peak.max(cache.live_bytes());
                    std::thread::yield_now();
                }
                peak
            })
        };
        let workers: Vec<_> = (0..4u64)
            .map(|t| {
                let a = Arc::clone(&shared_a);
                let b = Arc::clone(&shared_b);
                let (x, ref_a, ref_b) = (x.clone(), ref_a.clone(), ref_b.clone());
                s.spawn(move || {
                    // Seeded per-thread model schedule.
                    let mut seed = 0xD1CE ^ (t << 16);
                    for i in 0..24 {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let (m, want) = if seed & 1 == 0 {
                            (&a, &ref_a)
                        } else {
                            (&b, &ref_b)
                        };
                        let (out, _) = m.forward(&x).unwrap();
                        assert_eq!(&bits(&out), want, "thread {t} iter {i} diverged");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let observed_peak = observer.join().unwrap();
        assert!(
            observed_peak <= quota,
            "observer saw live bytes {observed_peak} over quota {quota}"
        );
    });
    let s = cache.stats();
    assert!(
        s.high_water <= quota,
        "ledger high-water {} exceeded global quota {quota}",
        s.high_water
    );
    assert!(s.live_bytes <= quota);
    assert!(s.hits + s.misses >= 4 * 24 * 2, "every layer was looked up");
    // Purging one model leaves the other's entries intact and the ledger
    // consistent.
    shared_a.shared_cache().unwrap().purge();
    assert!(cache.live_bytes() <= quota);
}

/// Records the fc layer indices the forward loop probes, in order.
#[derive(Debug, Default)]
struct Probed(Mutex<Vec<usize>>);

impl ForwardHook for Probed {
    fn before_layer(&self, layer_index: usize) -> Result<(), DeepSzError> {
        self.0.lock().unwrap().push(layer_index);
        Ok(())
    }
}

/// Runs `model` with a fresh recording hook (under a 4-worker budget, so
/// the prefetch sources really overlap) and returns the result plus the
/// probed layer indices.
fn probed_forward(
    model: &CompressedFcModel,
    x: &Batch,
    abort: &(dyn Fn() -> bool + Sync),
) -> (Result<Vec<u32>, DeepSzError>, Vec<usize>) {
    let hook = Arc::new(Probed::default());
    let m = model
        .clone()
        .with_forward_hook(Some(Arc::clone(&hook) as Arc<dyn ForwardHook>));
    let out = dsz_tensor::parallel::with_workers(4, || m.forward_cancellable(x, abort));
    let probed = hook.0.lock().unwrap().clone();
    (out.map(|(y, _)| bits(&y)), probed)
}

/// The forward loop's contract is the same whichever weight source a
/// model runs: the hook sees every fc layer once, in order; an abort
/// between layers stops the pass with `Cancelled` before the next probe;
/// and the outputs are bit-identical across sources.
#[test]
fn forward_loop_contract_holds_on_every_weight_source() {
    let (net, model) = fixture(0x59A);
    let x = probe(3, 0x1F0);
    let dir = std::env::temp_dir().join(format!("dsz-sources-{}", std::process::id()));
    let base = || CompressedFcModel::new(&net, &model).unwrap();
    // Park both layers in the spill files first, so the shared source's
    // cold path (quota 0: every lookup misses) rehydrates from them.
    let spilled = base().with_spill_dir(dir.join("shared"), 0).unwrap();
    spilled.forward(&x).unwrap();
    let sources = [
        ("depth 0", base().with_prefetch_depth(0)),
        ("depth 1", base().with_prefetch_depth(1)),
        ("depth 2", base().with_prefetch_depth(2)),
        (
            "spill at quota 0",
            base().with_spill_dir(dir.join("spill"), 0).unwrap(),
        ),
        (
            "shared",
            base().with_shared_cache(SharedLayerCache::new(1 << 20).handle()),
        ),
        (
            "shared with spill",
            spilled
                .clone()
                .with_shared_cache(SharedLayerCache::new(0).handle()),
        ),
    ];
    let fc_layers = vec![0usize, 1];
    let mut reference: Option<Vec<u32>> = None;
    for (name, m) in &sources {
        // Two passes: the second one runs on warm caches / spill files.
        for pass in 0..2 {
            let (out, probed) = probed_forward(m, &x, &|| false);
            let out = out.unwrap_or_else(|e| panic!("{name} pass {pass}: {e}"));
            assert_eq!(probed, fc_layers, "{name} pass {pass}: hook probes");
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(&out, r, "{name} pass {pass}: output bits"),
            }
        }
        // The probe passes the first layer boundary and fires at the next.
        let boundaries = AtomicUsize::new(0);
        let abort = || boundaries.fetch_add(1, Ordering::Relaxed) >= 1;
        let (out, probed) = probed_forward(m, &x, &abort);
        assert!(
            matches!(out, Err(DeepSzError::Cancelled)),
            "{name}: expected Cancelled, got {out:?}"
        );
        assert_eq!(probed, [0], "{name}: no probe after the abort");
    }
    let rehydrated = spilled.spill_stats().unwrap().rehydrates;
    assert_eq!(
        rehydrated, 2,
        "the shared source fell back to the spill files"
    );
    std::fs::remove_dir_all(&dir).ok();
}
