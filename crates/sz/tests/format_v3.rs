//! Tests pinning the shared-Huffman-table stream formats: checked-in v2,
//! v3 and v4 goldens (the encoder writes only v4 and must reproduce its
//! golden; v2/v3 are decode-only), proptest roundtrips across layer sizes
//! × worker counts × error bounds, byte determinism, adaptive chunk
//! sizing, the v4 table flag, and cross-format decode equality.

use dsz_lossless::bits::read_varint;
use dsz_lossless::LosslessKind;
use dsz_sz::{
    adaptive_chunk_elems, decompress, info, max_abs_error, EntropyStage, ErrorBound, SzConfig,
};
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

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// FNV-1a over decoded bit patterns — the decode pin every SZ golden
/// carries.
fn fnv_bits(v: &[f32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for x in v {
        h ^= u64::from(x.to_bits());
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The v2, v3 and v4 goldens are all captured from `weights(300, 42, 0.1)`
/// at chunk_elems = 128 (3 chunks) and eb = 1e-2, so they reconstruct
/// bit-identically and share one decode pin.
const GOLDEN_300_FNV: u64 = 0x318430bb03f22fd4;

/// The v4 golden: the stream today's encoder writes for the golden input.
const GOLDEN_V4: &[u8] = include_bytes!("fixtures/v4_300.bin");

/// The v1 golden of `chunked_v2.rs`: the retired v1 encoder's stream for
/// eight fixed values at eb = 1e-2.
const V1_GOLDEN: &[u8] = include_bytes!("fixtures/v1_8.bin");

/// The v4 table flag byte (`0xff` = raw table, else a lossless backend id)
/// of a Huffman-stage stream: walks the header fields that precede it.
fn table_flag(blob: &[u8]) -> u8 {
    assert_eq!((&blob[..4], blob[4]), (&b"SZ1D"[..], 4), "not a v4 stream");
    let mut pos = 5;
    read_varint(blob, &mut pos).unwrap(); // n
    pos += 8 + 1; // abs_eb, predictor
    for _ in 0..4 {
        read_varint(blob, &mut pos).unwrap(); // block, radius, chunk_elems, n_chunks
    }
    assert_eq!(blob[pos], 0, "entropy stage must be Huffman");
    blob[pos + 1]
}

/// The retired v2 encoder's stream of the golden input.
const GOLDEN_V2: [u8; 322] = [
    0x53, 0x5a, 0x31, 0x44, 0x02, 0xac, 0x02, 0x7b, 0x14, 0xae, 0x47, 0xe1, 0x7a, 0x84, 0x3f, 0x00,
    0x80, 0x01, 0x80, 0x80, 0x02, 0x80, 0x01, 0x03, 0xff, 0x72, 0x03, 0x01, 0x01, 0x00, 0x00, 0x00,
    0x80, 0x01, 0x13, 0xf8, 0xff, 0x01, 0x06, 0x01, 0x07, 0x01, 0x05, 0x01, 0x05, 0x01, 0x04, 0x01,
    0x04, 0x01, 0x04, 0x01, 0x03, 0x01, 0x03, 0x01, 0x03, 0x01, 0x04, 0x01, 0x04, 0x01, 0x04, 0x01,
    0x04, 0x01, 0x04, 0x02, 0x06, 0x01, 0x07, 0x01, 0x07, 0x01, 0x07, 0x3f, 0xb4, 0x5e, 0xa0, 0xda,
    0x6b, 0x0e, 0x94, 0xdd, 0x88, 0xd2, 0xe4, 0xb3, 0x64, 0xe5, 0x5c, 0xa9, 0xce, 0xac, 0x63, 0x83,
    0x5c, 0x08, 0x4d, 0xf0, 0x45, 0x28, 0xb0, 0x35, 0x3e, 0x36, 0x57, 0x5c, 0x43, 0xfb, 0x17, 0x49,
    0xc7, 0xdf, 0x54, 0x54, 0x87, 0xbd, 0xe8, 0xcf, 0xa4, 0x32, 0x3a, 0xaf, 0x7e, 0x87, 0xd3, 0xf1,
    0xcc, 0x7a, 0x4d, 0x50, 0xac, 0x39, 0x28, 0xad, 0xa7, 0xfa, 0x00, 0x00, 0xff, 0x74, 0x03, 0x01,
    0x01, 0x00, 0x00, 0x00, 0x80, 0x01, 0x14, 0xf6, 0xff, 0x01, 0x07, 0x01, 0x07, 0x01, 0x07, 0x01,
    0x06, 0x01, 0x05, 0x01, 0x07, 0x01, 0x05, 0x01, 0x04, 0x01, 0x04, 0x01, 0x04, 0x01, 0x04, 0x01,
    0x03, 0x01, 0x03, 0x01, 0x03, 0x01, 0x04, 0x01, 0x03, 0x01, 0x05, 0x01, 0x05, 0x02, 0x07, 0x02,
    0x07, 0x3f, 0x13, 0xa1, 0xf6, 0xac, 0x71, 0x67, 0x69, 0x36, 0xfc, 0xbd, 0xe8, 0x12, 0xaa, 0x2f,
    0x98, 0x3d, 0x40, 0x92, 0xcf, 0xb4, 0x7b, 0x52, 0x9a, 0x87, 0x25, 0xb6, 0x90, 0x3e, 0xbb, 0x18,
    0x9e, 0x52, 0x10, 0x7b, 0xba, 0x70, 0xc3, 0x45, 0xa6, 0xe0, 0xd8, 0xce, 0xbc, 0xd2, 0xeb, 0xff,
    0xb6, 0x1c, 0x5e, 0xbf, 0xcf, 0x69, 0xaa, 0x38, 0x25, 0x74, 0x05, 0x2e, 0x33, 0x3a, 0xef, 0x59,
    0x07, 0x00, 0xff, 0x3e, 0x03, 0x01, 0x01, 0x00, 0x00, 0x00, 0x2c, 0x0f, 0xf9, 0xff, 0x01, 0x05,
    0x01, 0x05, 0x01, 0x05, 0x01, 0x05, 0x01, 0x04, 0x01, 0x05, 0x01, 0x03, 0x01, 0x03, 0x01, 0x03,
    0x01, 0x04, 0x01, 0x04, 0x01, 0x04, 0x01, 0x04, 0x01, 0x03, 0x03, 0x05, 0x14, 0x61, 0xcc, 0xb2,
    0xc4, 0x8e, 0x92, 0x8c, 0xd3, 0x48, 0x49, 0x6f, 0x98, 0x30, 0x79, 0xdb, 0xfb, 0x93, 0x87, 0xb0,
    0x0a, 0x00,
];

/// A fixed v2 container captured from the retired v2 encoder (300
/// lcg-seed-42 weights, chunk_elems = 128 → 3 chunks, eb = 1e-2, default
/// predictor): the checked-in bytes must decode identically forever.
#[test]
fn v2_golden_stream_roundtrips() {
    let data = weights(300, 42, 0.1);
    // The captured bytes must decode to the captured reconstruction
    // (FNV-1a over the decoded bit patterns, captured with the bytes).
    let back = decompress(&GOLDEN_V2).unwrap();
    assert_eq!(back.len(), 300);
    assert!(max_abs_error(&data, &back) <= 1e-2 * (1.0 + 1e-9));
    assert_eq!(fnv_bits(&back), GOLDEN_300_FNV, "v2 decode drifted");
    let i = info(&GOLDEN_V2).unwrap();
    assert_eq!(i.version, 2);
    assert_eq!(i.chunks, 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random layer sizes (empty, singleton, sub-chunk, straddling chunk
    /// boundaries) × worker counts × error bounds: v4 must roundtrip
    /// within the bound and produce identical bytes at every worker count.
    #[test]
    fn v3_roundtrip_sizes_workers_bounds(
        size_pick in prop_oneof![
            Just(0usize),
            Just(1usize),
            2usize..700,          // far below any chunk size
            4000usize..6000,
            Just(4096usize),      // exactly on a 4Ki chunk boundary
            Just(4097usize),
            Just(8192usize),
        ],
        chunk_idx in 0usize..3,
        workers in 1usize..5,
        eb_idx in 0usize..3,
    ) {
        // 0 = adaptive sizing; the explicit sizes force multi-chunk layers.
        let chunk_elems = [0usize, 512, 4096][chunk_idx];
        let eb = [1e-2f64, 1e-3, 1e-4][eb_idx];
        let data = weights(size_pick, size_pick as u64 + 7, 0.1);
        let cfg = SzConfig { chunk_elems, ..SzConfig::default() };

        let reference = with_workers(1, || cfg.compress(&data, ErrorBound::Abs(eb)).unwrap());
        let (blob, back) = with_workers(workers, || {
            let blob = cfg.compress(&data, ErrorBound::Abs(eb)).unwrap();
            let back = decompress(&blob).unwrap();
            (blob, back)
        });
        prop_assert_eq!(&blob, &reference, "encode bytes differ at {} workers", workers);
        prop_assert_eq!(back.len(), data.len());
        prop_assert!(max_abs_error(&data, &back) <= eb * (1.0 + 1e-9));

        let i = info(&blob).unwrap();
        prop_assert_eq!(i.version, 4);
        prop_assert_eq!(i.n, data.len());
        if !data.is_empty() {
            prop_assert_eq!(i.chunks, data.len().div_ceil(i.chunk_elems));
        }
    }

    /// Arbitrary bytes, and bytes doctored to carry the v3 or v4 version,
    /// must never panic the decoder.
    #[test]
    fn v3_decoder_never_panics_on_garbage(
        data in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = decompress(&data);
        let _ = info(&data);
        for version in [3u8, 4] {
            let mut doctored = b"SZ1D".to_vec();
            doctored.push(version);
            doctored.extend_from_slice(&data);
            let _ = decompress(&doctored);
            let _ = info(&doctored);
        }
    }
}

/// Every truncation of a valid v3 or v4 stream errors cleanly (no panic,
/// no wrong-but-Ok decode). `fixtures/v3_2000.bin` is the v3 stream the
/// retired v3 encoder wrote for the same input and geometry as the fresh
/// v4 stream here.
#[test]
fn v3_truncations_error() {
    let data = weights(2000, 3, 0.1);
    let cfg = SzConfig {
        chunk_elems: 512,
        ..SzConfig::default()
    };
    let v4 = cfg.compress(&data, ErrorBound::Abs(1e-3)).unwrap();
    let v3 = include_bytes!("fixtures/v3_2000.bin").to_vec();
    for (version, blob) in [(3u8, v3), (4, v4)] {
        assert_eq!(blob[4], version);
        for len in 0..blob.len() {
            assert!(
                decompress(&blob[..len]).is_err(),
                "v{version} truncation at {len} decoded"
            );
        }
        assert!(max_abs_error(&data, &decompress(&blob).unwrap()) <= 1e-3 * (1.0 + 1e-9));
    }
}

/// All-constant input → every chunk quantizes to one symbol → a
/// degenerate single-entry shared Huffman table. Must roundtrip exactly
/// (constant data reconstructs within any bound) across chunk counts.
#[test]
fn v3_degenerate_single_symbol_table() {
    for n in [1usize, 4096, 20_000] {
        let data = vec![0.3125f32; n];
        let cfg = SzConfig {
            chunk_elems: 4096,
            ..SzConfig::default()
        };
        let blob = cfg.compress(&data, ErrorBound::Abs(1e-3)).unwrap();
        let back = decompress(&blob).unwrap();
        assert_eq!(back.len(), n);
        assert!(max_abs_error(&data, &back) <= 1e-3, "n={n}");
        // One shared 2-entry-max table plus ~1 bit/element, then the
        // backend squeezes the constant bit stream: far below raw size.
        assert!(
            blob.len() < n / 4 + 200,
            "constant n={n} gave {} bytes",
            blob.len()
        );
    }
}

/// The ROADMAP case the shared table exists for: adaptive sizing collapses
/// a small fc layer to a single chunk, without growing the stream over a
/// 2-chunk layout of the same data.
#[test]
fn adaptive_8ki_layer_is_one_chunk() {
    let n = 8192;
    let data = weights(n, 99, 0.1);
    let eb = ErrorBound::Abs(1e-3);
    let fixed = SzConfig {
        chunk_elems: 4096,
        ..SzConfig::default()
    }
    .compress(&data, eb)
    .unwrap();
    let adaptive = SzConfig::default().compress(&data, eb).unwrap();
    assert!(
        adaptive.len() <= fixed.len(),
        "single-chunk adaptive layout must not exceed the 2-chunk one: {} vs {}",
        adaptive.len(),
        fixed.len()
    );
    let i = info(&adaptive).unwrap();
    assert_eq!(
        i.chunks, 1,
        "an 8Ki layer must collapse to one adaptive chunk"
    );
    assert!(max_abs_error(&data, &decompress(&adaptive).unwrap()) <= 1e-3 * (1.0 + 1e-9));
}

/// Acceptance sweep: decode output is bit-identical across stream
/// versions and across worker counts 1/2/4/8. Chunk boundaries reset
/// predictor state, so bit-identity across *versions* holds exactly when
/// the chunk geometry matches: the checked-in v1 golden against a
/// single-chunk v4 encode of its input, the v2 and v3 goldens against the
/// 3-chunk v4 golden, and large single- and multi-chunk v4 layers against
/// themselves.
#[test]
fn decode_bit_identical_across_formats_and_workers() {
    let tiny: [f32; 8] = [0.5, 0.25, -0.125, 0.0, 1.0, -1.0, 0.75, -0.5];
    let tiny_v4 = SzConfig::default()
        .compress(&tiny, ErrorBound::Abs(1e-2))
        .unwrap();
    let data = weights(150_000, 11, 0.08);
    let eb = ErrorBound::Abs(1e-3);
    let v4 = |chunk_elems| {
        SzConfig {
            chunk_elems,
            ..SzConfig::default()
        }
        .compress(&data, eb)
        .unwrap()
    };
    let (v4_one, v4_many) = (v4(data.len()), v4(1 << 14));
    assert_eq!(info(&v4_one).unwrap().chunks, 1);
    assert_eq!(info(&v4_many).unwrap().chunks, 10);

    let groups: [&[&[u8]]; 4] = [
        &[V1_GOLDEN, &tiny_v4],
        &[&GOLDEN_V2, &GOLDEN_V3, GOLDEN_V4],
        &[&v4_one],
        &[&v4_many],
    ];
    for (gi, group) in groups.iter().enumerate() {
        let want = with_workers(1, || decompress(group[0]).unwrap());
        for (si, blob) in group.iter().enumerate() {
            for workers in [1usize, 2, 4, 8] {
                let got = with_workers(workers, || decompress(blob).unwrap());
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "group {gi} stream {si} decode differs at {workers} workers"
                );
            }
        }
    }
    let one = decompress(&v4_one).unwrap();
    let many = decompress(&v4_many).unwrap();
    assert!(max_abs_error(&data, &one) <= 1e-3 * (1.0 + 1e-9));
    assert!(max_abs_error(&data, &many) <= 1e-3 * (1.0 + 1e-9));
}

/// v3 containers are byte-deterministic across worker counts even for
/// layers big enough that the adaptive size formula is in its
/// size-proportional regime (layout uses the process budget, not the
/// execution pinning).
#[test]
fn v3_adaptive_bytes_deterministic_across_workers() {
    let data = weights(400_000, 5, 0.1);
    let cfg = SzConfig::default();
    let reference = with_workers(1, || cfg.compress(&data, ErrorBound::Abs(1e-3)).unwrap());
    for workers in [2usize, 3, 4, 8] {
        let blob = with_workers(workers, || {
            cfg.compress(&data, ErrorBound::Abs(1e-3)).unwrap()
        });
        assert_eq!(blob, reference, "encode bytes differ at {workers} workers");
    }
    let i = info(&reference).unwrap();
    assert_eq!(i.version, 4);
    assert_eq!(i.chunks, 400_000usize.div_ceil(i.chunk_elems));
}

/// The adaptive formula itself, a pure function of the layer length:
/// floor for small layers, ceiling for huge ones, eight chunks in between.
#[test]
fn adaptive_chunk_formula() {
    assert_eq!(adaptive_chunk_elems(0), 1 << 14);
    assert_eq!(adaptive_chunk_elems(8192), 1 << 14);
    assert_eq!(adaptive_chunk_elems(1 << 17), 1 << 14);
    assert_eq!(adaptive_chunk_elems(200_000), 25_000);
    assert_eq!(adaptive_chunk_elems(1 << 20), 1 << 17);
    assert_eq!(adaptive_chunk_elems(1 << 21), 1 << 18);
    assert_eq!(adaptive_chunk_elems(usize::MAX / 2), 1 << 18);
}

/// The raw entropy stage (ablation path) works through the v3 layout too:
/// entropy id in the layer header, bare varint codes per chunk.
#[test]
fn v3_raw_entropy_roundtrips() {
    let data = weights(10_000, 21, 0.1);
    let cfg = SzConfig {
        entropy: EntropyStage::Raw,
        chunk_elems: 2048,
        ..SzConfig::default()
    };
    let blob = cfg.compress(&data, ErrorBound::Abs(1e-3)).unwrap();
    assert_eq!(info(&blob).unwrap().version, 4);
    let back = with_workers(4, || decompress(&blob).unwrap());
    assert!(max_abs_error(&data, &back) <= 1e-3 * (1.0 + 1e-9));
    // And the Huffman default is smaller than raw codes on the same data.
    let huff = SzConfig {
        chunk_elems: 2048,
        ..SzConfig::default()
    }
    .compress(&data, ErrorBound::Abs(1e-3))
    .unwrap();
    assert!(huff.len() < blob.len());
}

/// Every predictor mode roundtrips through the shared-table layout.
#[test]
fn all_predictors_roundtrip_in_v3() {
    use dsz_sz::PredictorMode;
    let data = weights(20_000, 17, 0.08);
    for mode in [
        PredictorMode::Adaptive,
        PredictorMode::LorenzoOnly,
        PredictorMode::RegressionOnly,
    ] {
        let cfg = SzConfig {
            predictor: mode,
            chunk_elems: 2048,
            ..SzConfig::default()
        };
        let blob = cfg.compress(&data, ErrorBound::Abs(1e-3)).unwrap();
        let back = with_workers(4, || decompress(&blob).unwrap());
        assert!(
            max_abs_error(&data, &back) <= 1e-3 * (1.0 + 1e-9),
            "{mode:?}"
        );
    }
}

/// The retired v3 encoder's stream of the golden input.
const GOLDEN_V3: [u8; 248] = [
    0x53, 0x5a, 0x31, 0x44, 0x03, 0xac, 0x02, 0x7b, 0x14, 0xae, 0x47, 0xe1, 0x7a, 0x84, 0x3f, 0x00,
    0x80, 0x01, 0x80, 0x80, 0x02, 0x80, 0x01, 0x03, 0x00, 0x16, 0xf6, 0xff, 0x01, 0x08, 0x01, 0x08,
    0x01, 0x06, 0x01, 0x06, 0x01, 0x05, 0x01, 0x06, 0x01, 0x05, 0x01, 0x04, 0x01, 0x04, 0x01, 0x03,
    0x01, 0x03, 0x01, 0x03, 0x01, 0x04, 0x01, 0x04, 0x01, 0x04, 0x01, 0x04, 0x01, 0x04, 0x01, 0x05,
    0x01, 0x07, 0x01, 0x06, 0x01, 0x07, 0x01, 0x07, 0xff, 0x47, 0x03, 0x01, 0x01, 0x00, 0x00, 0x40,
    0xdc, 0x35, 0x40, 0x96, 0x65, 0x2f, 0x28, 0xaa, 0xe0, 0xa9, 0x8e, 0x6b, 0xc8, 0x8c, 0x7e, 0xa4,
    0x5c, 0x3d, 0x86, 0x71, 0x72, 0x20, 0x14, 0xc1, 0x0f, 0x5c, 0x8e, 0xc9, 0xb6, 0xde, 0xfd, 0x88,
    0xb3, 0x51, 0xf6, 0x22, 0x68, 0xf8, 0x6d, 0x25, 0x55, 0xbe, 0x3f, 0xa8, 0xbb, 0x43, 0xe1, 0x15,
    0x8f, 0xbe, 0x8b, 0x5d, 0x7e, 0xf5, 0x58, 0xb6, 0x53, 0xcc, 0x5e, 0x48, 0x8d, 0x85, 0x6a, 0x01,
    0x00, 0xff, 0x47, 0x03, 0x01, 0x01, 0x00, 0x00, 0x40, 0x65, 0x96, 0xec, 0x5a, 0xd5, 0x74, 0x64,
    0x6d, 0xf5, 0x73, 0x44, 0xa4, 0xc0, 0xa3, 0x70, 0x96, 0xe4, 0x11, 0x77, 0xb1, 0x59, 0x9e, 0x59,
    0x77, 0x20, 0x83, 0x29, 0xef, 0xd9, 0x08, 0xeb, 0x42, 0x5a, 0x68, 0x17, 0xa1, 0x63, 0x8d, 0x08,
    0x4f, 0xb5, 0xed, 0x76, 0x3f, 0x99, 0x7f, 0xbf, 0xff, 0xce, 0xb6, 0x5e, 0xef, 0x35, 0x8c, 0x44,
    0x14, 0x52, 0x84, 0xe9, 0x84, 0x1b, 0xfd, 0xcc, 0x1a, 0x00, 0xff, 0x1c, 0x03, 0x01, 0x01, 0x00,
    0x00, 0x15, 0x36, 0xe8, 0x7b, 0x24, 0x96, 0xa5, 0x34, 0x78, 0x0a, 0x21, 0xc9, 0x9b, 0x81, 0x21,
    0x77, 0xcd, 0x7a, 0xc9, 0x87, 0x18, 0x25, 0x00,
];

/// A fixed v3 stream captured from the retired v3 encoder (300
/// lcg-seed-42 weights, chunk_elems = 128 → 3 chunks, eb = 1e-2): the
/// checked-in bytes must decode identically forever.
#[test]
fn v3_golden_stream_roundtrips() {
    let data = weights(300, 42, 0.1);
    let back = decompress(&GOLDEN_V3).unwrap();
    assert_eq!(back.len(), 300);
    assert!(max_abs_error(&data, &back) <= 1e-2 * (1.0 + 1e-9));
    assert_eq!(fnv_bits(&back), GOLDEN_300_FNV, "v3 decode drifted");
    let i = info(&GOLDEN_V3).unwrap();
    assert_eq!(i.version, 3);
    assert_eq!(i.chunks, 3);
}

/// The encoder's one output format, pinned: a re-encode of the golden
/// input must reproduce the checked-in v4 bytes byte-for-byte, and those
/// bytes must decode to the same reconstruction as the v2/v3 goldens.
#[test]
fn v4_golden_stream_roundtrips() {
    let data = weights(300, 42, 0.1);
    let cfg = SzConfig {
        chunk_elems: 128,
        ..SzConfig::default()
    };
    let encoded = cfg.compress(&data, ErrorBound::Abs(1e-2)).unwrap();
    assert_eq!(encoded.as_slice(), GOLDEN_V4, "v4 encoder output drifted");
    let back = decompress(GOLDEN_V4).unwrap();
    assert!(max_abs_error(&data, &back) <= 1e-2 * (1.0 + 1e-9));
    assert_eq!(fnv_bits(&back), GOLDEN_300_FNV, "v4 decode drifted");
    let i = info(GOLDEN_V4).unwrap();
    assert_eq!(i.version, 4);
    assert_eq!(i.chunks, 3);
}

/// The point of v4 (ROADMAP "backend-compress the v3 shared table"): on a
/// wide-alphabet table — a tight bound over noisy data spreads the
/// quantization codes across thousands of symbols — running the code book
/// through `best_fit` wins, so the table flag names a lossless backend
/// instead of `0xff` (raw, the v3 serialization), and the stream still
/// roundtrips.
#[test]
fn v4_wide_alphabet_table_is_backed() {
    let data = weights(60_000, 13, 0.4);
    let cfg = SzConfig {
        chunk_elems: 1 << 14,
        ..SzConfig::default()
    };
    let blob = cfg.compress(&data, ErrorBound::Abs(1e-6)).unwrap();
    let flag = table_flag(&blob);
    assert_ne!(flag, 0xff, "wide-alphabet table must be stored backed");
    assert!(LosslessKind::from_id(flag).is_ok(), "flag {flag:#x}");
    let back = decompress(&blob).unwrap();
    assert!(max_abs_error(&data, &back) <= 1e-6 * (1.0 + 1e-9));
}

/// `backend: None` must disable the table competition too: the v4
/// stream of a backend-free config contains no backend id anywhere —
/// every chunk record *and* the table flag say "raw" — and still
/// roundtrips.
#[test]
fn v4_backend_none_keeps_table_raw() {
    // Wide alphabet (tight bound over noise): with the backend enabled
    // this table compresses (see the test above), so a raw table here
    // proves the knob — not the size rule — kept it raw.
    let data = weights(60_000, 13, 0.4);
    let cfg = SzConfig {
        chunk_elems: 1 << 14,
        backend: None,
        ..SzConfig::default()
    };
    let blob = cfg.compress(&data, ErrorBound::Abs(1e-6)).unwrap();
    let i = info(&blob).unwrap();
    assert_eq!(i.version, 4);
    assert_eq!(i.backend, None, "chunk records must be raw");
    assert_eq!(table_flag(&blob), 0xff, "table must be raw");
    let back = decompress(&blob).unwrap();
    assert!(max_abs_error(&data, &back) <= 1e-6 * (1.0 + 1e-9));
    // Same stream with the backend enabled is strictly smaller (both the
    // table and the chunk payloads compress on this data).
    let backed = SzConfig {
        chunk_elems: 1 << 14,
        ..SzConfig::default()
    }
    .compress(&data, ErrorBound::Abs(1e-6))
    .unwrap();
    assert!(backed.len() < blob.len());
    assert_eq!(bits(&back), bits(&decompress(&backed).unwrap()));
}

/// Small tables must stay raw behind the 0xff flag: on an easy layer the
/// backed table would not pay for its framing. The stream still
/// roundtrips.
#[test]
fn v4_small_table_stays_raw() {
    let data = weights(4096, 7, 0.05);
    let cfg = SzConfig {
        chunk_elems: 4096,
        ..SzConfig::default()
    };
    let blob = cfg.compress(&data, ErrorBound::Abs(1e-2)).unwrap();
    assert_eq!(table_flag(&blob), 0xff, "flag byte must mark a raw table");
    let back = decompress(&blob).unwrap();
    assert!(max_abs_error(&data, &back) <= 1e-2 * (1.0 + 1e-9));
}

/// A crafted v4 stream whose backed table declares a multi-gigabyte
/// decompressed size must be rejected by the declared-length guard
/// before the backend's decode loop commits any memory to it.
#[test]
fn v4_backed_table_size_bomb_rejected() {
    use dsz_lossless::bits::write_varint;
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"SZ1D");
    bytes.push(4); // version
    write_varint(&mut bytes, 128); // n
    bytes.extend_from_slice(&1e-3f64.to_le_bytes());
    bytes.push(0); // predictor: adaptive
    write_varint(&mut bytes, 128); // block
    write_varint(&mut bytes, 1 << 15); // radius
    write_varint(&mut bytes, 128); // chunk_elems
    write_varint(&mut bytes, 1); // n_chunks
    bytes.push(0); // entropy: huffman
    bytes.push(1); // table flag: zstd-backed
                   // Backed blob: a zstd-like stream whose header claims 2^40 raw bytes.
    let mut bomb = Vec::new();
    write_varint(&mut bomb, 1u64 << 40);
    bomb.extend_from_slice(&[4, 0, 0, 0, 0]); // junk past the claim
    write_varint(&mut bytes, bomb.len() as u64);
    bytes.extend_from_slice(&bomb);
    let err = decompress(&bytes).unwrap_err();
    assert!(
        format!("{err}").contains("table too large"),
        "expected the size guard, got: {err}"
    );
}
