//! Why `zfp_win_layers` is 0 — the audit of the ZFP tolerance mapping
//! (and the documentation, with teeth, of why SZ legitimately wins the
//! per-layer size competition on fc weights).
//!
//! The suspicion was an off-by-scale bug in [`dsz_zfp`]'s
//! fixed-accuracy cut: if `min_plane` sat several planes too low, every
//! block would spend bits overachieving the tolerance by orders of
//! magnitude and ZFP could never win a size competition. The audit
//! (derivation on `GUARD_PLANES` in `crates/zfp/src/lib.rs`) shows the
//! cut is worst-case-tight: truncation error `< 2^pmin` units per
//! coefficient, inverse-lift amplification ≤ ~6.75×, rounding ≤ 1/2
//! unit, so the chosen `pmin` bounds the error by `tol · 2^-1.2` —
//! safe with under one plane to spare. The observed ~8–16× slack is the
//! gap between worst-case and typical inputs, not a scale error (a true
//! off-by-scale bug would shift it by ≥ 256×).
//!
//! With the mapping exonerated, SZ's win is legitimate and expected:
//! * SZ's linear-predict-and-quantize spends the *entire* error bound
//!   (reconstruction errors sit just under `eb`), while a sound
//!   fixed-accuracy ZFP must reserve worst-case margin per block;
//! * pruned fc weights have no spatial smoothness for ZFP's
//!   decorrelating transform to exploit, while SZ's Huffman+zstd stage
//!   squeezes the heavily peaked quantization-code distribution;
//! * the paper itself measured SZ producing better compression than ZFP
//!   on the fully-connected layers it targets (Fig. 2) — `zfp_win_layers:
//!   0` in `BENCH_encode_decode.json` reproduces that finding.

use dsz_sz::{max_abs_error, ErrorBound, SzConfig};

fn smooth_sine(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * 0.01).sin()).collect()
}

fn multi_scale(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let t = i as f32 * 0.004;
            (t.sin() + 0.3 * (7.0 * t).sin() + 0.05 * (31.0 * t).sin()) * 0.5
        })
        .collect()
}

fn fc_weights(n: usize) -> Vec<f32> {
    let mut dense = dsz_datagen::weights::trained_fc_weights(n / 64, 64, 0x2F9);
    dsz_prune::prune_to_density(&mut dense, 0.35);
    dense
}

fn sz_bytes(data: &[f32], tol: f64) -> usize {
    SzConfig {
        chunk_elems: 4096,
        ..SzConfig::default()
    }
    .compress(data, ErrorBound::Abs(tol))
    .unwrap()
    .len()
}

/// Both sides of the tolerance mapping: every reconstruction honors the
/// bound (the safety direction), and none overachieves it by more than
/// a few guard planes (the no-off-by-scale direction). An off-by-scale
/// bug in `min_plane` — the hypothesis behind `zfp_win_layers: 0` —
/// would push the slack past 256× and fail the lower clamp.
#[test]
fn zfp_tolerance_mapping_is_tight_in_both_directions() {
    for (name, data) in [
        ("smooth-sine", smooth_sine(4096)),
        ("multi-scale", multi_scale(4096)),
        ("fc-weights", fc_weights(4096)),
    ] {
        for tol in [1e-2f64, 1e-3, 1e-4] {
            let blob = dsz_zfp::compress(&data, tol).unwrap();
            let dec = dsz_zfp::decompress(&blob).unwrap();
            let err = max_abs_error(&data, &dec);
            assert!(
                err <= tol,
                "{name} tol {tol}: ZFP violated its bound (err {err:.3e})"
            );
            assert!(
                err * 256.0 > tol,
                "{name} tol {tol}: ZFP overachieves by {:.0}× — the \
                 tolerance cut is off by whole scales, not guard planes",
                tol / err
            );
        }
    }
}

/// The documented competition outcome: SZ emits the smaller stream on fc
/// weights at every assessed bound — and in this implementation even on
/// the smooth signals that favor ZFP's transform — so a plan whose
/// layers all chose SZ (`zfp_win_layers: 0`) is the correct result of
/// the size competition, matching the paper's Fig. 2 measurement for
/// fully-connected layers.
#[test]
fn sz_legitimately_wins_the_size_competition_on_fc_weights() {
    for tol in [1e-2f64, 1e-3, 1e-4] {
        let fc = fc_weights(4096);
        let zfp = dsz_zfp::compress(&fc, tol).unwrap().len();
        let sz = sz_bytes(&fc, tol);
        assert!(
            sz < zfp,
            "tol {tol}: SZ ({sz} B) no longer beats ZFP ({zfp} B) on fc \
             weights — revisit the per-layer competition documentation"
        );
    }
    // Context for the losing margin: ZFP trails even on its best-case
    // smooth input here, so losing on rough fc weights follows a
    // fortiori.
    let smooth = smooth_sine(4096);
    assert!(sz_bytes(&smooth, 1e-3) < dsz_zfp::compress(&smooth, 1e-3).unwrap().len());
}
