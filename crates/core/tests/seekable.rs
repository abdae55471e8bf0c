//! Lazy per-layer verification vs whole-container verification
//! (`docs/ROBUSTNESS.md`, "Lazy per-layer verification").
//!
//! [`SeekableContainer::layer`] verifies only the record it touches, so
//! its guarantee is necessarily narrower than `verify_container`'s
//! whole-container pass. This suite pins down the exact relationship on
//! the v4 format over the full seeded mutation campaign:
//!
//! * **Soundness (v4):** no mutant serves *different bytes* through the
//!   lazy path. For every mutant that whole-container verification
//!   rejects, each `layer(i)` call either errors or returns a layer
//!   bit-identical (name, index, dims, dense weights) to the authentic
//!   one — a lazy reader may legitimately not notice corruption outside
//!   the records it reads, but it must never *decode* corruption.
//! * **Per-layer completeness:** corruption *inside* record `i`'s span
//!   makes `layer(i)` fail, while every other layer still decodes
//!   bit-identically — the property that makes per-layer verification
//!   useful (one damaged layer does not take down the container).
//! * **Open-time structure:** truncations, bad trailers, and misaligned
//!   or overlapping footer spans are rejected at `open`.
//!
//! The v3 and v2 containers are `tests/fixtures/dszm_v{3,2}.bin`: the
//! exact bytes the retired writers produced for [`fixture`] under
//! [`pinned_sz`].

use dsz_core::optimizer::{ChosenLayer, Plan};
use dsz_core::{
    encode_with_plan_config, verify_container, CompressedModel, DataCodecKind, DecodedLayer,
    DeepSzError, LayerAssessment, SeekableContainer,
};
use dsz_datagen::corrupt::Corruptor;
use dsz_nn::FcLayerRef;
use dsz_sparse::PairArray;
use dsz_sz::SzConfig;

/// Seeded mutants for the agreement campaign (matches the fault-injection
/// acceptance floor).
const CAMPAIGN: u64 = 1200;

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

const DSZM_V3: &[u8] = include_bytes!("fixtures/dszm_v3.bin");
const DSZM_V2: &[u8] = include_bytes!("fixtures/dszm_v2.bin");

fn encode_v4() -> CompressedModel {
    let (assessments, plan) = fixture();
    encode_with_plan_config(&assessments, &plan, &pinned_sz())
        .unwrap()
        .0
}

fn layers_equal(a: &DecodedLayer, b: &DecodedLayer) -> bool {
    a.name == b.name
        && a.layer_index == b.layer_index
        && a.rows == b.rows
        && a.cols == b.cols
        && a.dense.len() == b.dense.len()
        && a.dense
            .iter()
            .zip(&b.dense)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Reads `(offset, len)` record spans out of a v4 footer — test-side
/// reimplementation so span targeting does not depend on the code under
/// test beyond the wire format.
fn footer_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let len = bytes.len();
    assert_eq!(&bytes[len - 4..], b"DSZ4");
    let footer_start = u64::from_le_bytes(bytes[len - 20..len - 12].try_into().unwrap()) as usize;
    let footer = &bytes[footer_start..len - 20];
    let mut pos = 0usize;
    let mut spans = Vec::new();
    while pos < footer.len() {
        let off = dsz_lossless::bits::read_varint(footer, &mut pos).unwrap() as usize;
        let rec_len = dsz_lossless::bits::read_varint(footer, &mut pos).unwrap() as usize;
        pos += 24; // rec_fnv + data_fnv + idx_fnv
        spans.push((off, rec_len));
    }
    spans
}

/// Inserts `n` zero bytes at `at` (at or before the footer) into a v4
/// container, then re-serializes footer and trailer so every offset moves
/// with its bytes and the whole-container FNV matches: the result is
/// authentically framed and checksummed, and its only fault is the gap.
fn insert_gap(bytes: &[u8], at: usize, n: usize) -> Vec<u8> {
    let len = bytes.len();
    let footer_start = u64::from_le_bytes(bytes[len - 20..len - 12].try_into().unwrap()) as usize;
    let footer = &bytes[footer_start..len - 20];
    let mut out = bytes[..at].to_vec();
    out.resize(at + n, 0);
    out.extend_from_slice(&bytes[at..footer_start]);
    let new_footer_start = out.len() as u64;
    let mut pos = 0usize;
    while pos < footer.len() {
        let off = dsz_lossless::bits::read_varint(footer, &mut pos).unwrap();
        let rec_len = dsz_lossless::bits::read_varint(footer, &mut pos).unwrap();
        let moved = if off as usize >= at {
            off + n as u64
        } else {
            off
        };
        dsz_lossless::bits::write_varint(&mut out, moved);
        dsz_lossless::bits::write_varint(&mut out, rec_len);
        out.extend_from_slice(&footer[pos..pos + 24]); // rec/data/idx fnv
        pos += 24;
    }
    out.extend_from_slice(&new_footer_start.to_le_bytes());
    let fnv = dsz_lossless::fnv1a(&out);
    out.extend_from_slice(&fnv.to_le_bytes());
    out.extend_from_slice(b"DSZ4");
    out
}

/// The core agreement property over the full seeded campaign: whenever
/// whole-container verification rejects a mutant, no `layer(i)` access
/// may serve anything but the authentic layer — it errors or it returns
/// bit-identical content, never silently different weights or metadata.
#[test]
fn lazy_verify_agrees_with_whole_container_verify_on_all_mutants() {
    let v4 = encode_v4();
    let authentic: Vec<DecodedLayer> = {
        let seek = SeekableContainer::open_slice(&v4.bytes).unwrap();
        (0..seek.layer_count())
            .map(|i| seek.layer(i).unwrap())
            .collect()
    };

    let mut lazy_accepts_of_rejected_mutants = 0u64;
    for seed in 0..CAMPAIGN {
        let mut c = Corruptor::new(seed);
        let mut mutant = v4.bytes.clone();
        let mutation = c.mutate(&mut mutant);
        if mutant == v4.bytes {
            continue;
        }
        let whole_ok = verify_container(&CompressedModel {
            bytes: mutant.clone(),
        })
        .is_ok();
        assert!(
            !whole_ok,
            "seed {seed} ({mutation:?}): v4 whole-container verify accepted a changed mutant"
        );
        let Ok(seek) = SeekableContainer::open_slice(&mutant) else {
            continue; // rejected at open — trivially sound
        };
        for (i, want) in authentic.iter().enumerate().take(seek.layer_count()) {
            match seek.layer(i) {
                Err(_) => {}
                Ok(l) => {
                    assert!(
                        layers_equal(&l, want),
                        "seed {seed} ({mutation:?}): layer {i} decoded lazily but differs \
                         from the authentic layer"
                    );
                    lazy_accepts_of_rejected_mutants += 1;
                }
            }
        }
    }
    // Sanity: the campaign must actually exercise the interesting case
    // (mutation outside a record's span, lazy access still succeeds).
    assert!(
        lazy_accepts_of_rejected_mutants > 0,
        "campaign never hit the lazy-accept case; property is vacuous"
    );
}

/// Vice-versa direction on targeted single-record corruptions: a flip
/// anywhere inside record i makes `layer(i)` fail, and every other layer
/// still decodes bit-identically.
#[test]
fn single_record_corruption_is_contained_to_that_layer() {
    let v4 = encode_v4();
    let spans = footer_spans(&v4.bytes);
    assert_eq!(spans.len(), 2);
    let seek_authentic = SeekableContainer::open_slice(&v4.bytes).unwrap();
    let authentic: Vec<DecodedLayer> = (0..spans.len())
        .map(|i| seek_authentic.layer(i).unwrap())
        .collect();

    for (target, &(off, len)) in spans.iter().enumerate() {
        // Sweep bit flips across the whole record span (every byte for
        // these small fixtures), not just the blobs — v4's per-record
        // digest must catch header-field damage (name, dims, eb, codec
        // ids) that v3's blob checksums never covered.
        for rel in 0..len {
            let mut mutant = v4.bytes.clone();
            mutant[off + rel] ^= 1 << (rel % 8);
            if mutant == v4.bytes {
                continue;
            }
            let seek = match SeekableContainer::open_slice(&mutant) {
                Ok(s) => s,
                Err(_) => continue, // structural damage caught even earlier
            };
            assert!(
                seek.layer(target).is_err(),
                "flip at record {target}+{rel} was not detected by layer({target})"
            );
            for (other, want) in authentic.iter().enumerate().take(spans.len()) {
                if other == target {
                    continue;
                }
                let l = seek.layer(other).unwrap_or_else(|e| {
                    panic!("flip inside record {target} broke layer({other}): {e}")
                });
                assert!(
                    layers_equal(&l, want),
                    "flip inside record {target} changed layer({other})"
                );
            }
        }
    }
}

/// The v3 lazy path still catches all blob corruption (its footer hashes
/// the blobs), even though header fields outside the blobs are only
/// guarded by parse-time cross-checks on that generation.
#[test]
fn v3_lazy_verify_catches_blob_corruption() {
    let seek = SeekableContainer::open_slice(DSZM_V3).unwrap();
    let authentic: Vec<DecodedLayer> = (0..seek.layer_count())
        .map(|i| seek.layer(i).unwrap())
        .collect();

    // Stomp bytes inside each SZ stream (the data blob) and check the
    // owning layer rejects while the other still matches.
    let stream_starts: Vec<usize> = DSZM_V3
        .windows(4)
        .enumerate()
        .filter(|(_, w)| w == b"SZ1D")
        .map(|(i, _)| i)
        .collect();
    assert_eq!(stream_starts.len(), 2);
    for (target, &start) in stream_starts.iter().enumerate() {
        let mut mutant = DSZM_V3.to_vec();
        mutant[start + 8] ^= 0x10;
        let seek = SeekableContainer::open_slice(&mutant).unwrap();
        assert!(
            seek.layer(target).is_err(),
            "v3 blob corruption in layer {target} not detected lazily"
        );
        let other = 1 - target;
        assert!(layers_equal(&seek.layer(other).unwrap(), &authentic[other]));
    }
}

/// Open validates structure: truncation anywhere in the trailer/footer,
/// a stomped trailer magic, de-aligned footer spans, and records that are
/// not contiguous from the header to the footer are all rejected before
/// any layer access — the same framing the full parse rejects.
#[test]
fn open_rejects_structural_damage() {
    let v4 = encode_v4();
    let len = v4.bytes.len();

    for cut in [len - 1, len - 10, len - 20, 70, 5, 0] {
        assert!(
            SeekableContainer::open_slice(&v4.bytes[..cut]).is_err(),
            "truncation to {cut} bytes accepted"
        );
    }

    let mut bad_magic = v4.bytes.clone();
    bad_magic[len - 1] = b'X';
    assert!(SeekableContainer::open_slice(&bad_magic).is_err());

    // Rewrite record 1's footer offset to a de-aligned value: open must
    // reject it even though nothing else changed.
    let spans = footer_spans(&v4.bytes);
    let footer_start =
        u64::from_le_bytes(v4.bytes[len - 20..len - 12].try_into().unwrap()) as usize;
    // Walk to the second entry's offset varint.
    let mut pos = footer_start;
    {
        let mut p = pos - footer_start;
        let footer = &v4.bytes[footer_start..len - 20];
        dsz_lossless::bits::read_varint(footer, &mut p).unwrap();
        dsz_lossless::bits::read_varint(footer, &mut p).unwrap();
        p += 24;
        pos = footer_start + p;
    }
    let mut misaligned = v4.bytes.clone();
    dsz_datagen::corrupt::rewrite_varint(&mut misaligned, pos, spans[1].0 as u64 + 1);
    assert!(
        SeekableContainer::open_slice(&misaligned).is_err(),
        "de-aligned v4 footer span accepted at open"
    );

    // Correctly checksummed containers with one alignment unit of zeros
    // where the writer never puts any: between the last record and the
    // footer, and between the header and the first record (which then
    // starts one unit late). Open and the full parse must both reject.
    let first_record = spans[0].0;
    assert_eq!(first_record, 64);
    for (what, at) in [
        ("slack before the footer", footer_start),
        ("first record one unit late", first_record),
    ] {
        let gapped = insert_gap(&v4.bytes, at, 64);
        assert!(
            verify_container(&CompressedModel {
                bytes: gapped.clone()
            })
            .is_err(),
            "{what}: whole-container verify accepted"
        );
        assert!(
            SeekableContainer::open_slice(&gapped).is_err(),
            "{what}: accepted at open"
        );
    }
    // Control: a zero-length gap reproduces the container exactly.
    assert_eq!(insert_gap(&v4.bytes, footer_start, 0), v4.bytes);
}

/// Plain functionality: random access decodes out of order and matches
/// the sequential decoder on both checksummed generations, v1/v2 are
/// refused, and the file-backed source agrees with the slice source.
#[test]
fn seekable_roundtrip_matches_sequential_decode() {
    let v4 = encode_v4();
    let (seq, _) = dsz_core::decode_model(&v4).unwrap();

    for (bytes, version) in [(v4.bytes.as_slice(), 4u8), (DSZM_V3, 3)] {
        let seek = SeekableContainer::open_slice(bytes).unwrap();
        assert_eq!(seek.version(), version);
        assert_eq!(seek.layer_count(), seq.len());
        for i in (0..seq.len()).rev() {
            assert!(
                layers_equal(&seek.layer(i).unwrap(), &seq[i]),
                "v{version} layer {i} differs from sequential decode"
            );
        }
    }

    let err = SeekableContainer::open_slice(DSZM_V2).unwrap_err();
    assert!(matches!(err, DeepSzError::BadContainer(_)));

    let path = std::env::temp_dir().join(format!("dszm-seekable-{}.dszm", std::process::id()));
    std::fs::write(&path, &v4.bytes).unwrap();
    let from_file = SeekableContainer::open_file(&path).unwrap();
    for (i, want) in seq.iter().enumerate() {
        assert!(layers_equal(&from_file.layer(i).unwrap(), want));
    }
    std::fs::remove_file(&path).ok();
}
