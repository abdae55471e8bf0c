//! Byte-determinism and budget-enforcement suite for the streaming
//! encode path ([`dsz_core::encode_to_writer`]).
//!
//! The streaming engine must emit **exactly** the materializing
//! encoder's container bytes — for every worker count, chunk geometry,
//! buffer budget, codec mix, and writer kind — and its buffer-ring
//! ledger must never exceed the configured `encode_bytes_budget` by more
//! than the documented mandatory floor (one record's blobs plus one
//! chunk slot). `scripts/tier1.sh` runs this suite under both
//! `DSZ_THREADS` settings.

use dsz_core::optimizer::{ChosenLayer, Plan};
use dsz_core::{
    decode_model, encode_to_writer, encode_to_writer_config, encode_with_plan_config,
    CompressedModel, DataCodecKind, EncodeStreamConfig, LayerAssessment,
};
use dsz_nn::FcLayerRef;
use dsz_sparse::PairArray;
use dsz_sz::{chunk_slot_bytes, SzConfig};
use dsz_tensor::parallel::with_workers;

/// Same fixture the golden-bytes suite pins: two small pruned fc layers.
fn fixture() -> (Vec<LayerAssessment>, Plan) {
    build_fixture(&[(24, 32, 0.30), (16, 10, 0.40)], &[1e-2, 1e-3])
}

/// A fixture whose layers span many SZ chunks, so the bounded ring
/// actually cycles: three layers, the largest ~8k kept weights.
fn wide_fixture() -> (Vec<LayerAssessment>, Plan) {
    build_fixture(
        &[(64, 256, 0.50), (48, 128, 0.35), (16, 10, 0.40)],
        &[1e-2, 5e-3, 1e-3],
    )
}

fn build_fixture(shapes: &[(usize, usize, f64)], ebs: &[f64]) -> (Vec<LayerAssessment>, Plan) {
    let mut assessments = Vec::new();
    let mut chosen = Vec::new();
    for (li, &(rows, cols, density)) in shapes.iter().enumerate() {
        let mut dense = dsz_datagen::weights::trained_fc_weights(rows, cols, 0xD5A + li as u64);
        dsz_prune::prune_to_density(&mut dense, density);
        let pair = PairArray::from_dense(&dense, rows, cols);
        let (index_codec, index_blob) = dsz_lossless::best_fit(&pair.index);
        let fc = FcLayerRef {
            layer_index: li,
            name: format!("fc{li}"),
            rows,
            cols,
        };
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
    (
        assessments,
        Plan {
            layers: chosen,
            predicted_loss: 0.0,
            total_bytes: 0,
        },
    )
}

/// A pinned chunk geometry, alongside the default adaptive one.
fn pinned_sz() -> SzConfig {
    SzConfig {
        chunk_elems: 4096,
        ..SzConfig::default()
    }
}

fn stream_bytes(
    assessments: &[LayerAssessment],
    plan: &Plan,
    sz: &SzConfig,
    budget: Option<usize>,
) -> (Vec<u8>, dsz_core::EncodeReport) {
    let mut buf = Vec::new();
    let cfg = EncodeStreamConfig {
        encode_bytes_budget: budget,
    };
    let report = encode_to_writer_config(assessments, plan, sz, &cfg, &mut buf).unwrap();
    (buf, report)
}

/// Streaming output is bit-identical to the materializing encoder for
/// every worker count and buffer budget — from "one chunk live" to
/// unbounded — and the reports agree on every size field.
#[test]
fn streaming_matches_materializing_across_workers_and_budgets() {
    for (assessments, plan) in [fixture(), wide_fixture()] {
        for sz in [
            pinned_sz(),
            SzConfig::default(),
            SzConfig {
                chunk_elems: 512,
                ..SzConfig::default()
            },
        ] {
            let (reference, ref_report) =
                encode_with_plan_config(&assessments, &plan, &sz).unwrap();
            for workers in [1usize, 2, 4, 8] {
                for budget in [
                    Some(1),
                    Some(chunk_slot_bytes(sz.chunk_elems)),
                    Some(1 << 20),
                    None,
                ] {
                    let (bytes, report) =
                        with_workers(workers, || stream_bytes(&assessments, &plan, &sz, budget));
                    assert_eq!(
                        bytes, reference.bytes,
                        "streaming bytes diverged (workers={workers}, budget={budget:?}, \
                         chunk={})",
                        sz.chunk_elems
                    );
                    assert_eq!(report.total_bytes, ref_report.total_bytes);
                    assert_eq!(report.layers.len(), ref_report.layers.len());
                    for (s, r) in report.layers.iter().zip(&ref_report.layers) {
                        assert_eq!((s.data_bytes, s.index_bytes), (r.data_bytes, r.index_bytes));
                    }
                }
            }
        }
    }
}

/// The default streaming entry point reproduces `encode_with_plan`'s
/// exact golden-fixture container, and the streamed bytes decode to the
/// same pinned weights as the golden suite (`GOLDEN_FNV`).
#[test]
fn streamed_golden_fixture_decodes_to_pinned_weights() {
    let (assessments, plan) = fixture();
    let (reference, _) = encode_with_plan_config(&assessments, &plan, &pinned_sz()).unwrap();
    let (bytes, _) = stream_bytes(&assessments, &plan, &pinned_sz(), None);
    assert_eq!(bytes, reference.bytes, "streamed v4 container drifted");

    let (decoded, _) = decode_model(&CompressedModel { bytes }).unwrap();
    let mut h = 0xcbf29ce484222325u64;
    for l in &decoded {
        for v in &l.dense {
            h ^= u64::from(v.to_bits());
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    assert_eq!(h, 0xbc39f0af75160cbb, "streamed container decode drifted");
}

/// Mixed-codec plans (a ZFP layer between SZ layers) stream identically:
/// the batch-encoded ZFP blob rides the same operator chain.
#[test]
fn mixed_codec_plan_streams_identically() {
    let (assessments, mut plan) = wide_fixture();
    plan.layers[1].codec = DataCodecKind::Zfp;
    let (reference, _) = encode_with_plan_config(&assessments, &plan, &pinned_sz()).unwrap();
    for workers in [1usize, 4] {
        for budget in [Some(1), None] {
            let (bytes, _) = with_workers(workers, || {
                stream_bytes(&assessments, &plan, &pinned_sz(), budget)
            });
            assert_eq!(
                bytes, reference.bytes,
                "mixed-codec streaming diverged (workers={workers}, budget={budget:?})"
            );
        }
    }
}

/// Writing through a real file (BufWriter) produces the same container
/// as writing into a Vec, and `encode_to_writer`'s default configuration
/// matches `encode_with_plan`'s default configuration.
#[test]
fn file_writer_matches_vec_writer() {
    let (assessments, plan) = fixture();
    let (reference, _) =
        encode_with_plan_config(&assessments, &plan, &SzConfig::default()).unwrap();

    let path = std::env::temp_dir().join(format!("dsz_stream_test_{}.dszm", std::process::id()));
    let file = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
    let report = encode_to_writer(&assessments, &plan, file).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    assert_eq!(bytes, reference.bytes, "file-backed container diverged");
    assert_eq!(report.total_bytes, bytes.len());
    assert!(dsz_core::verify_container(&CompressedModel { bytes }).unwrap() == 2);
}

/// The encode buffer ledger never exceeds the configured budget by more
/// than the documented mandatory floor — one record's assembled blobs
/// plus one chunk slot — and a tight budget's peak sits strictly below
/// the unbounded (materializing) peak.
#[test]
fn encode_bytes_budget_high_water_mark_is_enforced() {
    let (assessments, plan) = wide_fixture();
    let sz = SzConfig {
        chunk_elems: 1024,
        ..SzConfig::default()
    };
    let (_, ref_report) = encode_with_plan_config(&assessments, &plan, &sz).unwrap();
    // Mandatory floor: the largest record's data+index blobs (they must
    // live while the record is assembled and written) plus one forced
    // head-of-line chunk slot.
    let floor = ref_report
        .layers
        .iter()
        .map(|l| l.data_bytes + l.index_bytes)
        .max()
        .unwrap()
        + chunk_slot_bytes(sz.chunk_elems);

    let (_, unbounded) = stream_bytes(&assessments, &plan, &sz, None);
    let mut tight_peak = None;
    for budget in [1usize, chunk_slot_bytes(sz.chunk_elems), 1 << 16] {
        for workers in [1usize, 4] {
            let (_, report) = with_workers(workers, || {
                stream_bytes(&assessments, &plan, &sz, Some(budget))
            });
            assert!(
                report.peak_buffered_bytes <= budget + floor,
                "budget {budget} exceeded: peak {} > budget + floor {}",
                report.peak_buffered_bytes,
                budget + floor
            );
            if budget == 1 && workers == 1 {
                tight_peak = Some(report.peak_buffered_bytes);
            }
        }
    }
    let tight_peak = tight_peak.unwrap();
    assert!(
        tight_peak < unbounded.peak_buffered_bytes,
        "tight-budget peak {tight_peak} not below materializing peak {}",
        unbounded.peak_buffered_bytes
    );
}
