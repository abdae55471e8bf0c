//! SZ-style error-bounded lossy compression for 1-D `f32` arrays.
//!
//! This reimplements the SZ 2.x pipeline the paper builds on (§2.2, §3.3):
//!
//! 1. **Prediction** — per-block adaptive choice between a Lorenzo predictor
//!    (previous reconstructed value) and a linear-regression predictor
//!    (least-squares line over the block), mirroring SZ 2.0's
//!    Lorenzo/regression selection.
//! 2. **Error-controlled linear-scaling quantization** — the prediction
//!    residual is quantized to `round(residual / 2eb)`; any value whose
//!    reconstruction would violate the bound is stored verbatim as
//!    "unpredictable", making the `|x − x'| ≤ eb` guarantee unconditional
//!    (including NaN/Inf, which always take the verbatim path).
//! 3. **Entropy coding** — canonical Huffman over the quantization codes
//!    (decoded through a table-driven canonical decoder).
//! 4. **Lossless backend** — a byte codec (default [`LosslessKind::Zstd`])
//!    over the Huffman payload and the verbatim-value stream.
//!
//! The encoder writes one format, the **chunked v4 stream**: the array is
//! split into independently compressed chunks (sized from the layer
//! length alone, `clamp(n / 8, 16Ki, 256Ki)` elements — see
//! [`adaptive_chunk_elems`]) that encode and decode in parallel across
//! [`dsz_tensor::parallel`] workers while producing bytes that are
//! identical for any worker count and any host, with all chunks
//! entropy-coded against one shared Huffman table built from a
//! layer-global histogram (itself backend-compressed when that wins).
//! Legacy v1 (monolithic), v2 (per-chunk tables), and v3 (raw shared
//! table) streams still decode; see the codec module docs and
//! `docs/FORMAT.md` for the wire layouts.
//!
//! Error bounds can be expressed as absolute, value-range-relative, or PSNR
//! targets ([`ErrorBound`]), like the SZ library's `ABS` / `REL` / `PSNR`
//! modes.

// Decode takes untrusted bytes: every failure must surface as an
// `SzError`, never a panic (`docs/ROBUSTNESS.md`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod codec;
mod stream;

pub use codec::{
    adaptive_chunk_elems, CompressStats, EntropyStage, PredictorMode, SzConfig, SzInfo,
};
pub use stream::{chunk_slot_bytes, ChunkSink};

use dsz_lossless::CodecError;
pub use dsz_lossless::LosslessKind;
use std::fmt;

/// How the user expresses the error tolerance (SZ's ABS / REL / PSNR modes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Absolute bound: `|x − x'| ≤ eb`.
    Abs(f64),
    /// Relative to the value range: `|x − x'| ≤ rel · (max − min)`.
    Rel(f64),
    /// Peak signal-to-noise ratio target in dB (converted to an absolute
    /// bound assuming uniform quantization noise).
    Psnr(f64),
}

impl ErrorBound {
    /// Resolves to an absolute bound for `data`. Non-finite values are
    /// ignored when computing the range.
    pub fn resolve(self, data: &[f32]) -> f64 {
        match self {
            ErrorBound::Abs(eb) => eb,
            ErrorBound::Rel(rel) => rel * value_range(data).max(f64::MIN_POSITIVE),
            ErrorBound::Psnr(db) => {
                // For uniform error in [-eb, eb]: mse = eb²/3, so
                // PSNR = 10·log10(range²·3/eb²)  ⇒  eb = range·√3·10^(−db/20).
                let range = value_range(data).max(f64::MIN_POSITIVE);
                range * 3f64.sqrt() * 10f64.powf(-db / 20.0)
            }
        }
    }
}

/// Width of the finite value range of `data` (0 when empty/non-finite).
pub fn value_range(data: &[f32]) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in data {
        if x.is_finite() {
            lo = lo.min(x as f64);
            hi = hi.max(x as f64);
        }
    }
    if hi >= lo {
        hi - lo
    } else {
        0.0
    }
}

/// Errors from the SZ codec.
#[derive(Debug, Clone, PartialEq)]
pub enum SzError {
    /// The requested error bound is not a positive finite number.
    BadErrorBound(f64),
    /// The compressed stream is invalid.
    Codec(CodecError),
}

impl fmt::Display for SzError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SzError::BadErrorBound(eb) => {
                write!(f, "error bound must be positive and finite, got {eb}")
            }
            SzError::Codec(e) => write!(f, "sz stream error: {e}"),
        }
    }
}

impl std::error::Error for SzError {}

impl From<CodecError> for SzError {
    fn from(e: CodecError) -> Self {
        SzError::Codec(e)
    }
}

/// Compresses `data` under `bound` with the default configuration.
pub fn compress(data: &[f32], bound: ErrorBound) -> Result<Vec<u8>, SzError> {
    SzConfig::default().compress(data, bound)
}

/// Decompresses a stream produced by [`compress`] / [`SzConfig::compress`].
pub fn decompress(bytes: &[u8]) -> Result<Vec<f32>, SzError> {
    codec::decompress(bytes)
}

/// [`decompress`] into a caller-owned buffer (resized, capacity reused) —
/// the scratch entry point for repeated-decode loops such as incremental
/// assessment. Output bytes equal the allocating twin's.
pub fn decompress_into(bytes: &[u8], out: &mut Vec<f32>) -> Result<(), SzError> {
    codec::decompress_into(bytes, out)
}

/// Reads the self-describing header of a compressed stream.
pub fn info(bytes: &[u8]) -> Result<SzInfo, SzError> {
    codec::info(bytes)
}

/// Maximum pointwise absolute error between two equal-length slices
/// (∞ if lengths differ, or a non-finite value is not reproduced bit-for-bit).
pub fn max_abs_error(a: &[f32], b: &[f32]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    let mut m = 0f64;
    for (&x, &y) in a.iter().zip(b) {
        let d = if x.is_finite() && y.is_finite() {
            (x as f64 - y as f64).abs()
        } else if x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()) {
            0.0
        } else {
            f64::INFINITY
        };
        m = m.max(d);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_weights(n: usize, seed: u64, scale: f32) -> Vec<f32> {
        // Roughly Gaussian weight-like values via sum of uniforms.
        let mut s = seed;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) as f32
        };
        (0..n)
            .map(|_| {
                let u = next() + next() + next() + next() - 2.0;
                u * scale
            })
            .collect()
    }

    #[test]
    fn abs_bound_is_respected() {
        let data = lcg_weights(10_000, 7, 0.1);
        for eb in [1e-1f64, 1e-2, 1e-3, 1e-4] {
            let blob = compress(&data, ErrorBound::Abs(eb)).unwrap();
            let back = decompress(&blob).unwrap();
            assert_eq!(back.len(), data.len());
            let err = max_abs_error(&data, &back);
            assert!(err <= eb * (1.0 + 1e-9), "eb={eb} err={err}");
        }
    }

    #[test]
    fn rel_bound_resolves_to_range_fraction() {
        let data = lcg_weights(5_000, 13, 0.25);
        let blob = compress(&data, ErrorBound::Rel(1e-3)).unwrap();
        let back = decompress(&blob).unwrap();
        let range = value_range(&data);
        assert!(max_abs_error(&data, &back) <= 1e-3 * range * (1.0 + 1e-9));
    }

    #[test]
    fn psnr_bound_achieves_target() {
        let data = lcg_weights(20_000, 21, 0.1);
        let target_db = 60.0;
        let blob = compress(&data, ErrorBound::Psnr(target_db)).unwrap();
        let back = decompress(&blob).unwrap();
        let range = value_range(&data);
        let mse: f64 = data
            .iter()
            .zip(&back)
            .map(|(&x, &y)| {
                let d = x as f64 - y as f64;
                d * d
            })
            .sum::<f64>()
            / data.len() as f64;
        let psnr = 10.0 * (range * range / mse.max(1e-300)).log10();
        assert!(psnr >= target_db - 0.5, "psnr {psnr} < target {target_db}");
    }

    #[test]
    fn tighter_bounds_cost_more_bytes() {
        let data = lcg_weights(50_000, 3, 0.05);
        let loose = compress(&data, ErrorBound::Abs(1e-2)).unwrap();
        let tight = compress(&data, ErrorBound::Abs(1e-4)).unwrap();
        assert!(loose.len() < tight.len());
        // And the loose bound beats raw f32 storage by a wide margin.
        assert!(loose.len() * 4 < data.len() * 4, "loose={}", loose.len());
    }

    #[test]
    fn empty_and_singleton() {
        for data in [vec![], vec![0.5f32]] {
            let blob = compress(&data, ErrorBound::Abs(1e-3)).unwrap();
            assert_eq!(decompress(&blob).unwrap(), data);
        }
    }

    #[test]
    fn constant_data_is_tiny() {
        let data = vec![0.125f32; 100_000];
        // Pin a single chunk: this test asserts an absolute size, and the
        // adaptive geometry splits a 100K-element layer into 7 chunks.
        let cfg = SzConfig {
            chunk_elems: data.len(),
            ..SzConfig::default()
        };
        let blob = cfg.compress(&data, ErrorBound::Abs(1e-3)).unwrap();
        assert!(
            blob.len() < 2_000,
            "constant data should collapse, got {}",
            blob.len()
        );
        let back = decompress(&blob).unwrap();
        assert!(max_abs_error(&data, &back) <= 1e-3);

        // The adaptive default still collapses ~400 KB to a few KB (each
        // chunk pays its own small framing).
        let adaptive = compress(&data, ErrorBound::Abs(1e-3)).unwrap();
        assert!(
            adaptive.len() < 8_000,
            "adaptive geometry should still collapse, got {}",
            adaptive.len()
        );
        assert!(max_abs_error(&data, &decompress(&adaptive).unwrap()) <= 1e-3);
    }

    #[test]
    fn nan_and_inf_survive_verbatim() {
        let mut data = lcg_weights(1000, 5, 0.1);
        data[10] = f32::NAN;
        data[500] = f32::INFINITY;
        data[900] = f32::NEG_INFINITY;
        let blob = compress(&data, ErrorBound::Abs(1e-3)).unwrap();
        let back = decompress(&blob).unwrap();
        assert!(back[10].is_nan());
        assert_eq!(back[500], f32::INFINITY);
        assert_eq!(back[900], f32::NEG_INFINITY);
        assert!(max_abs_error(&data, &back) <= 1e-3);
    }

    #[test]
    fn bad_error_bound_rejected() {
        let data = [1.0f32, 2.0];
        assert!(compress(&data, ErrorBound::Abs(0.0)).is_err());
        assert!(compress(&data, ErrorBound::Abs(-1.0)).is_err());
        assert!(compress(&data, ErrorBound::Abs(f64::NAN)).is_err());
    }

    #[test]
    fn info_reports_header() {
        let data = lcg_weights(1234, 9, 0.1);
        let blob = compress(&data, ErrorBound::Abs(2e-3)).unwrap();
        let info = info(&blob).unwrap();
        assert_eq!(info.n, 1234);
        assert!((info.abs_eb - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn smooth_data_compresses_much_better_than_noise() {
        let smooth: Vec<f32> = (0..50_000).map(|i| (i as f32 * 1e-3).sin()).collect();
        let noise = lcg_weights(50_000, 11, 0.5);
        let bs = compress(&smooth, ErrorBound::Abs(1e-3)).unwrap();
        let bn = compress(&noise, ErrorBound::Abs(1e-3)).unwrap();
        assert!(
            bs.len() * 3 < bn.len(),
            "smooth {} vs noise {}",
            bs.len(),
            bn.len()
        );
    }

    #[test]
    fn predictor_modes_all_respect_bound() {
        let data = lcg_weights(8_000, 17, 0.08);
        for mode in [
            PredictorMode::Adaptive,
            PredictorMode::LorenzoOnly,
            PredictorMode::RegressionOnly,
        ] {
            let cfg = SzConfig {
                predictor: mode,
                ..SzConfig::default()
            };
            let blob = cfg.compress(&data, ErrorBound::Abs(1e-3)).unwrap();
            let back = decompress(&blob).unwrap();
            assert!(
                max_abs_error(&data, &back) <= 1e-3 * (1.0 + 1e-9),
                "{mode:?}"
            );
        }
    }
}
