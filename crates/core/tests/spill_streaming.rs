//! Disk-backed decoded-layer spill through the streaming forward pass
//! (`CompressedFcModel::with_spill_dir`, `docs/ROBUSTNESS.md` "Spill-file
//! integrity").
//!
//! The spill cache trades memory for disk: decoded fc layers are parked
//! up to a byte quota, evicted layers land FNV-stamped on disk, and
//! repeat forwards rehydrate from the file instead of re-decoding the
//! container. This suite checks the trade is *exact* — outputs stay
//! bit-identical to the in-RAM path under every quota, live decoded
//! bytes respect the quota, and damaged spill files are rejected with
//! the `"spill"` corruption stage rather than silently served.

use dsz_core::optimizer::{ChosenLayer, Plan};
use dsz_core::{
    encode_with_plan_config, CompressedFcModel, CompressedModel, DataCodecKind, DeepSzError,
    LayerAssessment,
};
use dsz_nn::FcLayerRef;
use dsz_sparse::PairArray;
use dsz_sz::SzConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn test_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "dsz-spill-stream-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Two chained fc layers (24×32 then 16×24, 35% dense): resident sparse
/// payloads of about 2.3 KB and 1.2 KB ([`weight_bytes`]), small enough to
/// sweep quotas around both sizes.
fn fixture() -> (dsz_nn::Network, CompressedModel) {
    let shapes = [(24usize, 32usize), (16, 24)];
    let ebs = [1e-2f64, 1e-3];
    let mut assessments = Vec::new();
    let mut chosen = Vec::new();
    let mut net = dsz_nn::Network {
        input_shape: dsz_tensor::VolShape { c: 32, h: 1, w: 1 },
        layers: Vec::new(),
    };
    for (li, &(rows, cols)) in shapes.iter().enumerate() {
        let mut dense = dsz_datagen::weights::trained_fc_weights(rows, cols, 0x59A + li as u64);
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

fn probe() -> dsz_nn::Batch {
    dsz_nn::Batch::from_features(
        4,
        32,
        (0..4 * 32).map(|i| (i as f32 * 0.37).sin()).collect(),
    )
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

/// Acceptance property: a spill-quota'd forward pass is bit-identical to
/// the in-RAM streaming pass under every quota regime — everything
/// spills (0), only the big layer spills (between the two layer sizes),
/// LRU eviction churn (room for the big layer, not both), and nothing
/// spills (`usize::MAX`) — on first *and* repeat forwards, while live
/// decoded bytes stay under `quota + executing layer`.
#[test]
fn spill_forward_is_bit_identical_to_in_ram_under_every_quota() {
    let (net, model) = fixture();
    let in_ram = CompressedFcModel::new(&net, &model).unwrap();
    let (want, _) = in_ram.forward(&probe()).unwrap();
    let (big, small) = weight_bytes(&net);

    for quota in [0usize, (big + small) / 2, big + small / 2, usize::MAX] {
        let dir = test_dir("quota");
        let spilling = CompressedFcModel::new(&net, &model)
            .unwrap()
            .with_spill_dir(&dir, quota)
            .unwrap();
        for pass in 0..3 {
            let (got, stats) = spilling.forward(&probe()).unwrap();
            assert!(
                got == want,
                "quota {quota} pass {pass}: spill forward diverged from in-RAM"
            );
            assert!(
                stats.peak_weight_bytes <= quota.saturating_add(big),
                "quota {quota} pass {pass}: peak {} exceeds quota + largest layer",
                stats.peak_weight_bytes
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Repeat forwards under a spilling quota rehydrate from disk instead of
/// re-decoding; under an unlimited quota they hit the live cache and
/// never touch disk at all.
#[test]
fn repeat_forwards_rehydrate_instead_of_redecoding() {
    let (net, model) = fixture();

    // Quota 0: both layers are oversized for memory, so every store goes
    // straight to disk and every repeat fetch is a file rehydrate.
    let dir = test_dir("rehydrate");
    let spilling = CompressedFcModel::new(&net, &model)
        .unwrap()
        .with_spill_dir(&dir, 0)
        .unwrap();
    spilling.forward(&probe()).unwrap();
    let first = spilling.spill_stats().unwrap();
    assert_eq!(first.misses, 2, "first pass must decode both layers");
    assert_eq!(first.spills, 2, "quota 0 must park both layers on disk");
    assert_eq!(first.rehydrates, 0);
    spilling.forward(&probe()).unwrap();
    let second = spilling.spill_stats().unwrap();
    assert_eq!(
        second.rehydrates, 2,
        "second pass must rehydrate both layers from disk, not re-decode"
    );
    assert_eq!(second.misses, 2, "no new container decodes on the repeat");
    std::fs::remove_dir_all(&dir).ok();

    // Unlimited quota: both payloads stay live; repeats are memory hits.
    let dir = test_dir("live");
    let (big, small) = weight_bytes(&net);
    assert!(big + small < usize::MAX);
    let parked = CompressedFcModel::new(&net, &model)
        .unwrap()
        .with_spill_dir(&dir, usize::MAX)
        .unwrap();
    parked.forward(&probe()).unwrap();
    parked.forward(&probe()).unwrap();
    let stats = parked.spill_stats().unwrap();
    assert_eq!(stats.spills, 0, "unlimited quota must never spill");
    assert_eq!(stats.rehydrates, 0);
    assert_eq!(stats.live_hits, 2, "repeat pass must hit the live cache");
    std::fs::remove_dir_all(&dir).ok();
}

/// A spill file damaged between forwards is rejected with the `"spill"`
/// corruption stage — the cache never serves bytes that fail their
/// integrity stamp, even though the container itself is pristine.
#[test]
fn poisoned_spill_file_fails_forward_at_spill_stage() {
    let (net, model) = fixture();
    let dir = test_dir("poison");
    let spilling = CompressedFcModel::new(&net, &model)
        .unwrap()
        .with_spill_dir(&dir, 0)
        .unwrap();
    spilling.forward(&probe()).unwrap();

    let path = dir.join("layer-0.dspill");
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x04;
    std::fs::write(&path, &bytes).unwrap();

    let err = spilling.forward(&probe()).unwrap_err();
    match err {
        DeepSzError::Corrupt { stage, .. } => assert_eq!(stage, "spill"),
        other => panic!("expected spill-stage corruption, got: {other}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
