//! Regression suite for worker budgets and host-independent container
//! bytes: the process worker budget is clamped to the host's real
//! parallelism, and the adaptive SZ chunk geometry is a pure function of
//! the layer length, so the same model encodes to the same bytes on every
//! host, under every `DSZ_THREADS`, and under every execution pin.
//! `scripts/tier1.sh` runs this suite under both `DSZ_THREADS=1` and
//! `DSZ_THREADS=4`; the golden below must pass under both.

use dsz_core::optimizer::{ChosenLayer, Plan};
use dsz_core::{encode_with_plan_config, DataCodecKind, LayerAssessment};
use dsz_nn::FcLayerRef;
use dsz_sparse::PairArray;
use dsz_sz::{adaptive_chunk_elems, SzConfig};
use dsz_tensor::parallel::{clamp_to_host, host_parallelism, with_workers, worker_count};

/// One fc layer big enough that the adaptive chunk size sits in its
/// size-proportional regime (`n / 8` between the 16Ki floor and the
/// 256Ki ceiling), where a worker-dependent geometry would change the
/// chunk count.
fn fixture() -> (Vec<LayerAssessment>, Plan, usize) {
    let (rows, cols) = (512usize, 800usize);
    let mut dense = dsz_datagen::weights::trained_fc_weights(rows, cols, 0xC1A);
    dsz_prune::prune_to_density(&mut dense, 0.35);
    let pair = PairArray::from_dense(&dense, rows, cols);
    let n = pair.data.len();
    let (index_codec, index_blob) = dsz_lossless::best_fit(&pair.index);
    let fc = FcLayerRef {
        layer_index: 0,
        name: "fc0".to_string(),
        rows,
        cols,
    };
    let plan = Plan {
        layers: vec![ChosenLayer {
            fc: fc.clone(),
            eb: 1e-3,
            degradation: 0.0,
            data_bytes: 0,
            index_bytes: index_blob.len(),
            codec: DataCodecKind::Sz,
            point_index: 0,
        }],
        predicted_loss: 0.0,
        total_bytes: 0,
    };
    let assessments = vec![LayerAssessment {
        fc,
        pair,
        index_codec,
        index_bytes: index_blob.len(),
        points: Vec::new(),
    }];
    (assessments, plan, n)
}

fn encode_bytes(sz: &SzConfig) -> Vec<u8> {
    let (assessments, plan, _) = fixture();
    encode_with_plan_config(&assessments, &plan, sz)
        .unwrap()
        .0
        .bytes
}

/// The process worker budget (no `with_workers` pin) is exactly the
/// clamped request: `DSZ_THREADS` if set (clamped to the host), else the
/// host's own parallelism.
#[test]
fn process_budget_is_the_clamped_request() {
    let requested = std::env::var("DSZ_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok());
    assert_eq!(
        worker_count(),
        clamp_to_host(requested.unwrap_or_else(host_parallelism))
    );
    assert!(worker_count() <= host_parallelism());
}

/// Cross-host golden: the default-config container of the fixture has
/// one fixed length and FNV-1a digest, whatever the host's core count
/// and `DSZ_THREADS`. The layer splits into 8 chunks of
/// `adaptive_chunk_elems(n)` elements; a geometry that followed the
/// worker budget (4 chunks at one worker) would change both pins.
#[test]
fn default_container_bytes_match_cross_host_golden() {
    let (_, _, n) = fixture();
    let chunk = adaptive_chunk_elems(n);
    assert!(
        chunk > 1 << 14 && chunk < 1 << 18,
        "fixture must sit in the size-proportional regime, got {chunk}-element chunks"
    );
    assert_eq!(n.div_ceil(chunk), 8);

    let bytes = encode_bytes(&SzConfig::default());
    assert_eq!(bytes.len(), 168_151, "container length drifted");
    assert_eq!(
        dsz_lossless::fnv1a(&bytes),
        0xfa39_9125_52de_a8a5,
        "container bytes drifted"
    );
}

/// Execution-worker overrides never leak into the bytes: sweeping
/// `with_workers` around a default (adaptive-geometry) encode produces
/// identical containers, because the layout never reads a worker count.
#[test]
fn execution_worker_sweep_never_changes_container_bytes() {
    let reference = with_workers(1, || encode_bytes(&SzConfig::default()));
    for workers in [2usize, 4, 8] {
        assert_eq!(
            with_workers(workers, || encode_bytes(&SzConfig::default())),
            reference,
            "container bytes drifted at {workers} execution workers"
        );
    }
}
