//! Shared test fixture: a tiny two-fc-layer network encoded into a DSZM
//! container, mirroring `crates/core/tests/spill_streaming.rs`.

use dsz_core::optimizer::{ChosenLayer, Plan};
use dsz_core::{encode_with_plan_config, DataCodecKind, LayerAssessment};
use dsz_nn::FcLayerRef;
use dsz_sparse::PairArray;
use dsz_sz::SzConfig;

/// Input feature count of every fixture model.
pub const FEATURES: usize = 32;

/// Builds a 24×32 → 16×24 fc network (seed-distinct weights) and its
/// encoded container bytes.
pub fn fixture(seed: u64) -> (dsz_nn::Network, Vec<u8>) {
    let shapes = [(24usize, 32usize), (16, 24)];
    let ebs = [1e-2f64, 1e-3];
    let mut assessments = Vec::new();
    let mut chosen = Vec::new();
    let mut net = dsz_nn::Network {
        input_shape: dsz_tensor::VolShape {
            c: FEATURES,
            h: 1,
            w: 1,
        },
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
    (net, model.bytes)
}

/// Deterministic per-sample input vector.
pub fn probe(seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..FEATURES)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

/// Reference output for one sample through the *uncached serial* path —
/// the bit-identity baseline every serving result must match.
pub fn serial_reference(net: &dsz_nn::Network, container: &[u8], input: &[f32]) -> Vec<f32> {
    let model = dsz_core::CompressedModel {
        bytes: container.to_vec(),
    };
    let streaming = dsz_core::CompressedFcModel::new(net, &model)
        .unwrap()
        .with_prefetch_depth(0);
    let x = dsz_nn::Batch::from_features(1, FEATURES, input.to_vec());
    streaming.forward(&x).unwrap().0.data
}

/// f32 slice → bit pattern, for exact comparisons.
pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}
