//! Deterministic fault-injection campaign over every serialized format
//! generation (`docs/ROBUSTNESS.md`).
//!
//! For each generation — SZ streams v1–v4, DSZM containers v1–v4 — the
//! harness takes a valid artifact, applies ≥ 1000 seeded mutations
//! (bit-flips, byte stomps, truncations, splices, varint/length-field
//! rewrites via [`dsz_datagen::corrupt::Corruptor`]), and decodes each
//! mutant. The invariants:
//!
//! * **No panics, ever.** Decoders return `Err` on malformed input; a
//!   panic anywhere in the campaign fails the test.
//! * **No silent success on v3/v4.** The checksummed DSZM containers must
//!   reject *every* mutant whose bytes differ from the original — a
//!   corrupted artifact never decodes to plausible-but-wrong weights.
//!   (v1/v2 and the SZ streams carry no integrity data, so a mutant that
//!   happens to parse may legally decode there; they only promise not to
//!   panic or over-allocate.)
//!
//! The *lazy* per-layer verification path (`SeekableContainer`) runs its
//! own agreement campaign in `tests/seekable.rs`.
//!
//! Every mutation is a pure function of its seed, so a failure replays
//! exactly from the seed in the panic message.
//!
//! The v4 artifacts are written fresh by today's encoder. The v1–v3
//! artifacts come from `tests/fixtures/`: the exact bytes the retired
//! v1–v3 writers produced for the fixtures below (same inputs, same
//! `pinned_sz` geometry), so every campaign mutates byte-identical
//! inputs to the ones it ran on when those writers existed.

use dsz_core::optimizer::{ChosenLayer, Plan};
use dsz_core::{
    decode_model, encode_with_plan_config, verify_container, CompressedFcModel, CompressedModel,
    DataCodecKind, DecodePolicy, DeepSzError, LayerAssessment,
};
use dsz_datagen::corrupt::Corruptor;
use dsz_nn::FcLayerRef;
use dsz_sparse::PairArray;
use dsz_sz::{ErrorBound, SzConfig};

/// SZ v1/v2/v3 streams of `trained_fc_weights(48, 40, 0x5EED)` at
/// eb = 1e-3 under [`pinned_sz`].
const SZ_V1: &[u8] = include_bytes!("fixtures/sz_v1_48x40.bin");
const SZ_V2: &[u8] = include_bytes!("fixtures/sz_v2_48x40.bin");
const SZ_V3: &[u8] = include_bytes!("fixtures/sz_v3_48x40.bin");
/// DSZM v1/v2/v3 containers of [`fixture`] under [`pinned_sz`] (the v1
/// container embeds SZ v3 streams, v2 and v3 embed SZ v4 streams).
const DSZM_V1: &[u8] = include_bytes!("fixtures/dszm_v1.bin");
const DSZM_V2: &[u8] = include_bytes!("fixtures/dszm_v2.bin");
const DSZM_V3: &[u8] = include_bytes!("fixtures/dszm_v3.bin");

fn model(bytes: &[u8]) -> CompressedModel {
    CompressedModel {
        bytes: bytes.to_vec(),
    }
}

/// Seeded mutations per format generation (the acceptance floor is 1000).
const CAMPAIGN: u64 = 1200;

/// Two-layer deterministic fixture; shapes chain (32 → 24 → 16) so the
/// layers also work as a real network for the streaming-policy tests.
fn fixture() -> (Vec<LayerAssessment>, Plan) {
    let shapes = [(24usize, 32usize), (16, 24)];
    let ebs = [1e-2f64, 1e-3];
    let mut assessments = Vec::new();
    let mut chosen = Vec::new();
    for (li, &(rows, cols)) in shapes.iter().enumerate() {
        let mut dense = dsz_datagen::weights::trained_fc_weights(rows, cols, 0xFA1 + li as u64);
        dsz_prune::prune_to_density(&mut dense, 0.35);
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

fn pinned_sz() -> SzConfig {
    SzConfig {
        chunk_elems: 4096,
        ..SzConfig::default()
    }
}

/// Runs the seeded campaign over one artifact. `decode` returns whether
/// the mutant decoded successfully; when `checksummed`, any changed-bytes
/// mutant that decodes is a silent-success failure.
fn campaign(generation: &str, base: &[u8], checksummed: bool, decode: impl Fn(&[u8]) -> bool) {
    let mut skipped = 0u64;
    for seed in 0..CAMPAIGN {
        let mut c = Corruptor::new(seed);
        let mut mutant = base.to_vec();
        let mutation = c.mutate(&mut mutant);
        if mutant == base {
            // e.g. a splice whose source equals its destination.
            skipped += 1;
            continue;
        }
        let ok = decode(&mutant);
        if checksummed {
            assert!(
                !ok,
                "{generation}: seed {seed} ({mutation:?}) decoded a corrupted artifact"
            );
        }
    }
    assert!(
        skipped < CAMPAIGN / 10,
        "{generation}: {skipped} no-op mutations — campaign too weak"
    );
}

/// SZ stream generations v1–v4: every mutant errors or decodes, never
/// panics, and allocations stay behind the declared-len caps.
#[test]
fn sz_stream_generations_never_panic() {
    let data = dsz_datagen::weights::trained_fc_weights(48, 40, 0x5EED);
    let v4 = pinned_sz().compress(&data, ErrorBound::Abs(1e-3)).unwrap();
    for (version, stream) in [(1u8, SZ_V1), (2, SZ_V2), (3, SZ_V3), (4, &v4)] {
        assert_eq!(stream[4], version);
        let intact = dsz_sz::decompress(stream).unwrap();
        assert!(dsz_sz::max_abs_error(&data, &intact) <= 1e-3 * (1.0 + 1e-9));
        campaign(&format!("SZ v{version}"), stream, false, |mutant| {
            dsz_sz::decompress(mutant).is_ok()
        });
    }
}

/// DSZM v1 and v2 containers (no integrity data): mutants must never
/// panic; decoding is allowed to succeed.
#[test]
fn dszm_v1_v2_containers_never_panic() {
    for (bytes, name) in [(DSZM_V1, "DSZM v1"), (DSZM_V2, "DSZM v2")] {
        assert_eq!(decode_model(&model(bytes)).unwrap().0.len(), 2);
        campaign(name, bytes, false, |mutant| {
            decode_model(&model(mutant)).is_ok()
        });
    }
}

/// DSZM v3 and v4: *every* changed-bytes mutant is rejected — the
/// whole-container checksum leaves no silent-success path — and
/// verification agrees with decode on each mutant.
#[test]
fn dszm_v3_and_v4_reject_every_corruption() {
    let (assessments, plan) = fixture();
    let v3 = model(DSZM_V3);
    let (v4, _) = encode_with_plan_config(&assessments, &plan, &pinned_sz()).unwrap();
    assert_eq!(v4.bytes[4], 4, "default container must be v4");
    for (model, name) in [(v3, "DSZM v3"), (v4, "DSZM v4")] {
        assert_eq!(
            verify_container(&model).unwrap(),
            2,
            "intact {name} must verify"
        );
        campaign(name, &model.bytes, true, |mutant| {
            let model = CompressedModel {
                bytes: mutant.to_vec(),
            };
            let verified = verify_container(&model).is_ok();
            let decoded = decode_model(&model).is_ok();
            assert_eq!(
                verified, decoded,
                "verify_container and decode_model disagree on a mutant"
            );
            decoded
        });
    }
}

/// Satellite hardening: footer varints rewritten to adversarial values —
/// a 10-byte `u64::MAX` offset and an 11-byte varint that overflows u64
/// entirely — must come back as clean errors from both the sequential
/// parser and the seekable open, never a panic or a wrapping `as` cast.
#[test]
fn overflowing_footer_varints_are_rejected() {
    let (assessments, plan) = fixture();
    let (v4, _) = encode_with_plan_config(&assessments, &plan, &pinned_sz()).unwrap();
    let len = v4.bytes.len();
    let footer_start =
        u64::from_le_bytes(v4.bytes[len - 20..len - 12].try_into().unwrap()) as usize;

    // Generation 1: the first footer varint (record 0's offset) rewritten
    // to u64::MAX — an offset no span check can accept.
    let mut huge = v4.bytes.clone();
    dsz_datagen::corrupt::rewrite_varint(&mut huge, footer_start, u64::MAX);
    // Generation 2: an 11-byte varint (shift ≥ 64) spliced over the same
    // field — `read_varint` itself must reject it.
    let mut overlong = v4.bytes.clone();
    overlong.splice(
        footer_start..footer_start + 1,
        std::iter::repeat_n(0xffu8, 10).chain([0x01]),
    );
    // Generation 3: seeded sweep rewriting each footer entry's varints.
    let mut seeded = Vec::new();
    for seed in 0..64u64 {
        let mut c = Corruptor::new(seed);
        let mut m = v4.bytes.clone();
        let off = footer_start + c.below(len - 20 - footer_start);
        dsz_datagen::corrupt::rewrite_varint(&mut m, off, c.next_u64() | (1 << 63));
        seeded.push(m);
    }

    for (i, mutant) in [huge, overlong].into_iter().chain(seeded).enumerate() {
        let model = CompressedModel {
            bytes: mutant.clone(),
        };
        assert!(
            decode_model(&model).is_err(),
            "mutant {i}: sequential decode accepted an overflowed footer varint"
        );
        // The seekable path trusts the footer *structurally* at open; it
        // must reject these at open or on every layer access.
        if let Ok(seek) = dsz_core::SeekableContainer::open_slice(&mutant) {
            for li in 0..seek.layer_count() {
                let authentic = dsz_core::SeekableContainer::open_slice(&v4.bytes)
                    .unwrap()
                    .layer(li)
                    .unwrap();
                if let Ok(l) = seek.layer(li) {
                    assert_eq!(
                        l.dense, authentic.dense,
                        "mutant {i}: seekable served different weights for layer {li}"
                    );
                }
            }
        }
    }
}

/// A stomped layer count is bounded before it sizes any reservation: by
/// the record region on v1/v2 (no checksum stops the stomp there), and by
/// the footer on the lazy v4 open (which does not hash the container).
/// The error names the layer count instead of surfacing as a truncation
/// somewhere down the walk.
#[test]
fn stomped_layer_count_is_bounded_before_reserving() {
    let names_count = |what: &str, r: Result<usize, DeepSzError>| match r {
        Err(DeepSzError::BadContainer(msg)) => {
            assert!(msg.contains("layer count"), "{what}: {msg}")
        }
        other => panic!("{what}: expected BadContainer, got {other:?}"),
    };
    for bytes in [DSZM_V1, DSZM_V2] {
        let mut stomped = bytes.to_vec();
        dsz_datagen::corrupt::rewrite_varint(&mut stomped, 5, bytes.len() as u64 / 2);
        let stomped = model(&stomped);
        names_count("verify_container", verify_container(&stomped));
        names_count("decode_model", decode_model(&stomped).map(|(l, _)| l.len()));
    }

    let (assessments, plan) = fixture();
    let (v4, _) = encode_with_plan_config(&assessments, &plan, &pinned_sz()).unwrap();
    let mut stomped = v4.bytes.clone();
    dsz_datagen::corrupt::rewrite_varint(&mut stomped, 5, 127);
    names_count(
        "SeekableContainer::open_slice",
        dsz_core::SeekableContainer::open_slice(&stomped).map(|s| s.layer_count()),
    );
}

/// An intact default-version container round-trips bit-identically
/// regardless of the worker count (the tier-1 gate also runs this whole
/// suite under `DSZ_THREADS=1` and `=4`).
#[test]
fn dszm_intact_roundtrip_is_bit_identical_across_workers() {
    let (assessments, plan) = fixture();
    let (v3, _) = encode_with_plan_config(&assessments, &plan, &pinned_sz()).unwrap();
    let decode_bits = |workers: usize| {
        dsz_tensor::parallel::with_workers(workers, || {
            decode_model(&v3)
                .unwrap()
                .0
                .into_iter()
                .flat_map(|l| l.dense.into_iter().map(f32::to_bits))
                .collect::<Vec<u32>>()
        })
    };
    let want = decode_bits(1);
    assert_eq!(decode_bits(4), want, "decode differs at 4 workers");
    // And against the source weights: the decoded values obey each bound.
    let mut off = 0usize;
    for (a, c) in assessments.iter().zip(&plan.layers) {
        let orig = a.pair.to_dense().unwrap();
        let got: Vec<f32> = want[off..off + orig.len()]
            .iter()
            .map(|&b| f32::from_bits(b))
            .collect();
        assert!(dsz_sz::max_abs_error(&orig, &got) <= c.eb * (1.0 + 1e-9));
        off += orig.len();
    }
}

/// Stomps the version byte of every embedded SZ stream whose magic starts
/// at or after `from`, returning how many were hit. Framing (lengths,
/// offsets) is untouched, so the container still parses and the failure
/// surfaces in the per-layer decode stage.
fn break_sz_streams(bytes: &mut [u8], from: usize) -> usize {
    let mut hit = 0;
    for i in from..bytes.len().saturating_sub(5) {
        if &bytes[i..i + 4] == b"SZ1D" {
            bytes[i + 4] = 0x7f; // unsupported stream version
            hit += 1;
        }
    }
    hit
}

/// Streaming decode-failure policy: `FailFast` surfaces the first bad
/// layer; `ReportBadLayers` enumerates every bad layer in one pass. The
/// prefetch worker path must route errors back as `Err` too.
#[test]
fn decode_policy_routes_streaming_errors() {
    // Build a network whose fc layers match the fixture exactly.
    let (assessments, _) = fixture();
    let mut net = dsz_nn::Network {
        input_shape: dsz_tensor::VolShape { c: 32, h: 1, w: 1 },
        layers: Vec::new(),
    };
    for a in &assessments {
        net.layers.push(dsz_nn::Layer::Dense(dsz_nn::DenseLayer {
            name: a.fc.name.clone(),
            w: dsz_tensor::Matrix {
                rows: a.fc.rows,
                cols: a.fc.cols,
                data: a.pair.to_dense().unwrap(),
            },
            b: vec![0.0; a.fc.rows],
        }));
    }
    // A v2 container (no container checksum, so parsing succeeds) with
    // every layer's SZ stream version byte stomped.
    let mut v2 = model(DSZM_V2);
    assert_eq!(break_sz_streams(&mut v2.bytes, 0), 2);

    let probe = dsz_nn::Batch::from_features(4, 32, vec![0.1; 4 * 32]);

    for depth in [0usize, 1] {
        let fail_fast = CompressedFcModel::new(&net, &v2)
            .unwrap()
            .with_prefetch_depth(depth);
        let err = fail_fast.forward(&probe).unwrap_err();
        assert!(
            matches!(err, DeepSzError::Corrupt { .. }),
            "depth {depth}: FailFast should surface the first Corrupt error, got: {err}"
        );

        let report_all = CompressedFcModel::new(&net, &v2)
            .unwrap()
            .with_prefetch_depth(depth)
            .with_decode_policy(DecodePolicy::ReportBadLayers);
        let err = report_all.forward(&probe).unwrap_err();
        let DeepSzError::BadLayers(errs) = err else {
            panic!("depth {depth}: expected BadLayers, got: {err}");
        };
        assert_eq!(errs.len(), 2, "both damaged layers should be reported");
        assert!(errs
            .iter()
            .all(|e| matches!(e, DeepSzError::Corrupt { .. })));
    }

    // materialize() obeys the policy too.
    let err = CompressedFcModel::new(&net, &v2)
        .unwrap()
        .with_decode_policy(DecodePolicy::ReportBadLayers)
        .materialize()
        .unwrap_err();
    assert!(matches!(err, DeepSzError::BadLayers(e) if e.len() == 2));
}

/// The structured error names the failing layer and stage.
#[test]
fn corrupt_errors_name_layer_and_stage() {
    let mut v2 = model(DSZM_V2);
    // Damage only the second layer's stream.
    let second = v2
        .bytes
        .windows(4)
        .enumerate()
        .filter(|(_, w)| w == b"SZ1D")
        .map(|(i, _)| i)
        .nth(1)
        .unwrap();
    assert_eq!(break_sz_streams(&mut v2.bytes, second), 1);
    let err = decode_model(&v2).unwrap_err();
    let DeepSzError::Corrupt { layer, stage, .. } = err else {
        panic!("expected Corrupt, got: {err}");
    };
    assert_eq!(layer, "fc1");
    assert_eq!(stage, "cross-check"); // bad version fails the header peek
}

/// A container holding two records for the same fc layer is rejected by
/// every reader, in every container generation: readers that picked
/// different records as the winner would run one artifact as two
/// different models.
#[test]
fn repeated_layer_index_is_rejected_by_every_reader() {
    let (mut assessments, mut plan) = fixture();
    // A second record for fc0, with different weights.
    let mut dense = dsz_datagen::weights::trained_fc_weights(24, 32, 0xD0B);
    dsz_prune::prune_to_density(&mut dense, 0.35);
    let pair = PairArray::from_dense(&dense, 24, 32);
    let (index_codec, index_blob) = dsz_lossless::best_fit(&pair.index);
    let mut twin = plan.layers[0].clone();
    twin.index_bytes = index_blob.len();
    plan.layers.push(twin);
    assessments.push(LayerAssessment {
        fc: assessments[0].fc.clone(),
        pair,
        index_codec,
        index_bytes: index_blob.len(),
        points: Vec::new(),
    });

    let mut net = dsz_nn::Network {
        input_shape: dsz_tensor::VolShape { c: 32, h: 1, w: 1 },
        layers: Vec::new(),
    };
    for a in &assessments[..2] {
        net.layers.push(dsz_nn::Layer::Dense(dsz_nn::DenseLayer {
            name: a.fc.name.clone(),
            w: dsz_tensor::Matrix {
                rows: a.fc.rows,
                cols: a.fc.cols,
                data: a.pair.to_dense().unwrap(),
            },
            b: vec![0.0; a.fc.rows],
        }));
    }

    // v1–v3: the retired writers' containers for this same plan.
    let (v4, _) = encode_with_plan_config(&assessments, &plan, &pinned_sz()).unwrap();
    let v3 = model(include_bytes!("fixtures/dszm_v3_repeated_layer.bin"));
    let v2 = model(include_bytes!("fixtures/dszm_v2_repeated_layer.bin"));
    let v1 = model(include_bytes!("fixtures/dszm_v1_repeated_layer.bin"));
    for (generation, model) in [("v4", &v4), ("v3", &v3), ("v2", &v2), ("v1", &v1)] {
        let bad = |what: &str, r: Result<(), DeepSzError>| match r {
            Err(DeepSzError::BadContainer(msg)) => {
                assert!(msg.contains("layer index 0"), "{generation} {what}: {msg}")
            }
            other => panic!("{generation} {what}: expected BadContainer, got {other:?}"),
        };
        bad("verify_container", verify_container(model).map(drop));
        bad("decode_model", decode_model(model).map(drop));
        bad(
            "CompressedFcModel::new",
            CompressedFcModel::new(&net, model).map(drop),
        );
    }
}

/// A skeleton dense layer stripped of its weights, with no container
/// record to restore them, is refused at construction instead of
/// failing (or panicking) in the middle of a forward pass.
#[test]
fn unbacked_stripped_layer_is_rejected_at_construction() {
    let (mut assessments, mut plan) = fixture();
    assessments.truncate(1);
    plan.layers.truncate(1);
    let (only_fc0, _) = encode_with_plan_config(&assessments, &plan, &pinned_sz()).unwrap();
    let mut net = dsz_nn::Network {
        input_shape: dsz_tensor::VolShape { c: 32, h: 1, w: 1 },
        layers: Vec::new(),
    };
    for (name, rows, cols) in [("fc0", 24usize, 32usize), ("fc1", 16, 24)] {
        net.layers.push(dsz_nn::Layer::Dense(dsz_nn::DenseLayer {
            name: name.into(),
            w: dsz_tensor::Matrix {
                rows,
                cols,
                data: vec![0.0; rows * cols],
            },
            b: vec![0.0; rows],
        }));
    }
    // With fc1's weights present the model runs: fc1 is simply not
    // compressed.
    let probe = dsz_nn::Batch::from_features(1, 32, vec![0.1; 32]);
    let model = CompressedFcModel::new(&net, &only_fc0).unwrap();
    model.forward(&probe).unwrap();
    // Strip them and nothing can back fc1.
    let dsz_nn::Layer::Dense(fc1) = &mut net.layers[1] else {
        unreachable!()
    };
    fc1.w.data.clear();
    match CompressedFcModel::new(&net, &only_fc0) {
        Err(DeepSzError::BadContainer(msg)) => assert!(msg.contains("fc layer 1"), "{msg}"),
        other => panic!("expected BadContainer, got {other:?}"),
    }
}
