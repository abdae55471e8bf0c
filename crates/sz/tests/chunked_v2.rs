//! Tests for the chunked stream layout (introduced by v2, written today as
//! v4): round-trips across chunk-size × worker-count combinations, v1
//! backward compatibility from checked-in streams, and container
//! determinism regardless of parallelism.

use dsz_sz::{decompress, info, max_abs_error, ErrorBound, SzConfig};
use dsz_tensor::parallel::with_workers;
use proptest::prelude::*;

fn weights(n: usize, seed: u64, scale: f32) -> Vec<f32> {
    let mut s = seed;
    let mut next = || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / (1u64 << 53) as f64) as f32
    };
    (0..n)
        .map(|_| (next() + next() + next() + next() - 2.0) * scale)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn roundtrip_across_chunk_sizes_and_workers(
        data in proptest::collection::vec(-0.4f32..0.4f32, 0..6000),
        chunk_idx in 0usize..5,
        workers in 1usize..5,
    ) {
        // 0 = adaptive; small chunks force many units; large = one unit.
        let chunk_elems = [0usize, 128, 512, 4096, 1 << 16][chunk_idx];
        let cfg = SzConfig { chunk_elems, ..SzConfig::default() };
        let eb = 1e-3;
        let (blob, back) = with_workers(workers, || {
            let blob = cfg.compress(&data, ErrorBound::Abs(eb)).unwrap();
            let back = decompress(&blob).unwrap();
            (blob, back)
        });
        prop_assert_eq!(back.len(), data.len());
        prop_assert!(max_abs_error(&data, &back) <= eb * (1.0 + 1e-9));
        let i = info(&blob).unwrap();
        prop_assert_eq!(i.version, 4);
        prop_assert_eq!(i.n, data.len());
    }

    #[test]
    fn v2_decoder_never_panics_on_garbage(
        data in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Arbitrary bytes, and bytes doctored to carry the v2 version.
        let _ = decompress(&data);
        let _ = info(&data);
        let mut doctored = b"SZ1D\x02".to_vec();
        doctored.extend_from_slice(&data);
        let _ = decompress(&doctored);
        let _ = info(&doctored);
    }
}

/// The byte layout must not depend on how many workers encoded it, and the
/// decoded values must not depend on how many workers decoded it.
#[test]
fn container_bytes_deterministic_across_worker_counts() {
    let data = weights(200_000, 7, 0.1);
    let cfg = SzConfig {
        chunk_elems: 8192,
        ..SzConfig::default()
    };
    let reference = with_workers(1, || cfg.compress(&data, ErrorBound::Abs(1e-3)).unwrap());
    for workers in [2usize, 3, 4, 8] {
        let blob = with_workers(workers, || {
            cfg.compress(&data, ErrorBound::Abs(1e-3)).unwrap()
        });
        assert_eq!(blob, reference, "encode bytes differ at {workers} workers");
    }
    let decoded_1 = with_workers(1, || decompress(&reference).unwrap());
    for workers in [2usize, 4, 8] {
        let decoded_n = with_workers(workers, || decompress(&reference).unwrap());
        // Bit-exact, not just within-bound: same chunks, same arithmetic.
        assert_eq!(
            decoded_1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            decoded_n.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "decode differs at {workers} workers"
        );
    }
}

/// v1 streams still decode, and the header survives the version
/// dispatch. `fixtures/v1_50k.bin` is the v1 stream the retired v1
/// encoder wrote for `weights(50_000, 13, 0.08)` at eb = 2e-3.
#[test]
fn v1_streams_still_decode() {
    let data = weights(50_000, 13, 0.08);
    let blob: &[u8] = include_bytes!("fixtures/v1_50k.bin");
    assert_eq!(&blob[..4], b"SZ1D");
    assert_eq!(blob[4], 1, "fixture must be a v1 stream");

    let i = info(blob).unwrap();
    assert_eq!(i.version, 1);
    assert_eq!(i.n, data.len());
    assert!((i.abs_eb - 2e-3).abs() < 1e-12);
    assert_eq!(i.chunks, 1);

    // Decode through the same entry point as v4, at several worker counts.
    let back = decompress(blob).unwrap();
    assert!(max_abs_error(&data, &back) <= 2e-3 * (1.0 + 1e-9));
    let back_mt = with_workers(4, || decompress(blob).unwrap());
    assert_eq!(
        back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        back_mt.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}

/// A fixed v1 container captured from the retired v1 encoder (8 values at
/// eb = 1e-2, default configuration): hardcoded bytes, so *any* drift in
/// the v1 decode arithmetic fails here.
#[test]
fn v1_golden_stream_decodes() {
    let original: [f32; 8] = [0.5, 0.25, -0.125, 0.0, 1.0, -1.0, 0.75, -0.5];
    const GOLDEN: &[u8] = include_bytes!("fixtures/v1_8.bin");
    // The captured bytes must decode to the captured reconstruction.
    let back = decompress(GOLDEN).unwrap();
    let expected: [f32; 8] = [0.5, 0.25, -0.13, -0.009999995, 0.99, -1.01, 0.75, -0.51];
    assert_eq!(
        back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "v1 decode drifted"
    );
    assert!(max_abs_error(&original, &back) <= 1e-2 * (1.0 + 1e-9));
}

/// Ragged tails: element counts straddling chunk and block boundaries.
#[test]
fn chunk_boundary_edge_cases() {
    let cfg = SzConfig {
        chunk_elems: 1024,
        ..SzConfig::default()
    };
    for n in [0usize, 1, 127, 128, 1023, 1024, 1025, 2048, 2049, 5000] {
        let data = weights(n, n as u64 + 1, 0.2);
        let blob = cfg.compress(&data, ErrorBound::Abs(1e-3)).unwrap();
        let back = decompress(&blob).unwrap();
        assert_eq!(back.len(), n, "n={n}");
        assert!(max_abs_error(&data, &back) <= 1e-3 * (1.0 + 1e-9), "n={n}");
        let i = info(&blob).unwrap();
        if n > 0 {
            assert_eq!(i.chunks, n.div_ceil(i.chunk_elems), "n={n}");
        }
    }
}

/// Every predictor mode roundtrips through a chunk size that is not a
/// whole number of prediction blocks (rounded up to 2048).
#[test]
fn all_predictors_roundtrip_in_v2() {
    use dsz_sz::PredictorMode;
    let data = weights(20_000, 17, 0.08);
    for mode in [
        PredictorMode::Adaptive,
        PredictorMode::LorenzoOnly,
        PredictorMode::RegressionOnly,
    ] {
        let cfg = SzConfig {
            predictor: mode,
            chunk_elems: 2000,
            ..SzConfig::default()
        };
        let blob = cfg.compress(&data, ErrorBound::Abs(1e-3)).unwrap();
        assert_eq!(info(&blob).unwrap().chunk_elems, 2048);
        let back = with_workers(4, || decompress(&blob).unwrap());
        assert!(
            max_abs_error(&data, &back) <= 1e-3 * (1.0 + 1e-9),
            "{mode:?}"
        );
    }
}
