//! The codec-agnostic lossy data path: [`DataCodec`] and its registry.
//!
//! The paper picks SZ over ZFP after a head-to-head per-layer comparison
//! (§4, Fig. 2) — but that comparison is made *once, globally*. This
//! module turns the data-array compressor into the same pluggable shape
//! the lossless index path already has ([`dsz_lossless::best_fit`]):
//! every error-bounded compressor of condensed `f32` arrays implements
//! [`DataCodec`], streams are self-describing, and a stable one-byte
//! [`DataCodecKind`] id recorded per layer in the DSZM container (v2+) lets
//! *each layer* keep whichever codec wins its own comparison
//! (Weightless-style encodings differ enough per layer that the global
//! winner is not always the local one).
//!
//! * [`SzCodec`] wraps [`dsz_sz`] — encode writes the v4 stream under
//!   one `SzConfig`, decode dispatches on the stream's own version byte
//!   (v1–v4).
//! * [`ZfpCodec`] wraps [`dsz_zfp`] — the paper's competing
//!   fixed-accuracy compressor.
//!
//! Encode-side callers ([`crate::assessment`], [`crate::pipeline`])
//! instantiate codecs via [`DataCodecKind::instance`] so the SZ candidate
//! inherits the caller's [`SzConfig`]; decode-side callers
//! ([`crate::pipeline`], [`crate::streaming`]) dispatch through
//! [`DataCodecKind::codec`], which needs no configuration because every
//! stream is self-describing.

// Decode dispatches on untrusted stream bytes: malformed input must
// surface as an error, never a panic (`docs/ROBUSTNESS.md`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::DeepSzError;
use dsz_sz::{ErrorBound, SzConfig};
use std::sync::OnceLock;

/// An error-bounded lossy compressor for condensed 1-D `f32` arrays.
///
/// Implementations must be self-describing on the wire (decode takes only
/// bytes) and must honour the resolved absolute bound pointwise:
/// `|x − x'| ≤ eb` for every finite element.
pub trait DataCodec: Sync + Send {
    /// Which registry entry this codec is (its stable wire id).
    fn kind(&self) -> DataCodecKind;
    /// Compresses `data` under `bound`.
    fn encode(&self, data: &[f32], bound: ErrorBound) -> Result<Vec<u8>, DeepSzError>;
    /// Decompresses a stream produced by [`DataCodec::encode`].
    fn decode(&self, bytes: &[u8]) -> Result<Vec<f32>, DeepSzError>;
    /// [`DataCodec::decode`] into a caller-owned buffer (cleared and
    /// refilled, capacity reused) so repeated-decode loops — the
    /// incremental assessment engine decodes one stream per sampled
    /// `(layer, eb)` point — allocate only on buffer growth. Output must
    /// be byte-identical to [`DataCodec::decode`]; the default
    /// implementation guarantees that by delegating to it, at the cost of
    /// the allocation.
    fn decode_into(&self, bytes: &[u8], out: &mut Vec<f32>) -> Result<(), DeepSzError> {
        *out = self.decode(bytes)?;
        Ok(())
    }
    /// Element count the stream's header *declares* it decodes to, read
    /// without decompressing anything. Untrusted-container validation
    /// cross-checks this against the record's dims before any decode work
    /// is scheduled, so a mutated length field is rejected instead of
    /// sizing an allocation (`docs/ROBUSTNESS.md`).
    fn declared_elems(&self, bytes: &[u8]) -> Result<usize, DeepSzError>;
}

/// Identifies a lossy data codec inside serialized containers — the data
/// path's analogue of [`dsz_lossless::LosslessKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataCodecKind {
    /// [`SzCodec`]
    Sz,
    /// [`ZfpCodec`]
    Zfp,
}

impl DataCodecKind {
    /// All kinds, in assessment's default candidate order (ties on
    /// compressed size keep the earlier entry, so SZ — the paper's
    /// global winner — is the tie-break).
    pub const ALL: [DataCodecKind; 2] = [DataCodecKind::Sz, DataCodecKind::Zfp];

    /// Stable one-byte wire id (the DSZM v2+ per-layer `data_codec` field).
    pub fn id(self) -> u8 {
        match self {
            DataCodecKind::Sz => 0,
            DataCodecKind::Zfp => 1,
        }
    }

    /// Inverse of [`DataCodecKind::id`].
    pub fn from_id(id: u8) -> Result<Self, DeepSzError> {
        match id {
            0 => Ok(DataCodecKind::Sz),
            1 => Ok(DataCodecKind::Zfp),
            _ => Err(DeepSzError::BadContainer(format!(
                "unknown data codec id {id}"
            ))),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DataCodecKind::Sz => "sz",
            DataCodecKind::Zfp => "zfp",
        }
    }

    /// The default-configuration codec — the decode-side registry.
    /// Streams are self-describing, so decoding never needs more than
    /// this.
    pub fn codec(self) -> &'static dyn DataCodec {
        static SZ: OnceLock<SzCodec> = OnceLock::new();
        static ZFP: ZfpCodec = ZfpCodec;
        match self {
            DataCodecKind::Sz => SZ.get_or_init(|| SzCodec {
                config: SzConfig::default(),
            }),
            DataCodecKind::Zfp => &ZFP,
        }
    }

    /// An encode-side instance carrying the caller's SZ configuration
    /// (ZFP has no tunables beyond the bound).
    pub fn instance(self, sz: &SzConfig) -> Box<dyn DataCodec> {
        match self {
            DataCodecKind::Sz => Box::new(SzCodec { config: *sz }),
            DataCodecKind::Zfp => Box::new(ZfpCodec),
        }
    }
}

/// Runs the per-layer codec competition: every candidate encodes `data`
/// under `bound`, and the smallest stream wins — ties keep the earliest
/// candidate, so with the default ordering SZ (the paper's global
/// winner) is the tie-break. Returns the winner's index in `codecs` and
/// its encoded stream. This is the single definition of the competition
/// rule, shared by [`crate::assessment`] and the bench harness.
/// A candidate whose encode errors is skipped — a codec that cannot
/// represent some input (future Bloomier-style implementations may
/// legitimately refuse) should lose the competition, not abort it. The
/// first error is surfaced only when *every* candidate fails.
pub fn compete(
    codecs: &[Box<dyn DataCodec>],
    data: &[f32],
    bound: ErrorBound,
) -> Result<(usize, Vec<u8>), DeepSzError> {
    let mut best: Option<(usize, Vec<u8>)> = None;
    let mut first_err: Option<DeepSzError> = None;
    for (ci, codec) in codecs.iter().enumerate() {
        match codec.encode(data, bound) {
            Ok(blob) => {
                if best.as_ref().is_none_or(|(_, b)| blob.len() < b.len()) {
                    best = Some((ci, blob));
                }
            }
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    match (best, first_err) {
        (Some(win), _) => Ok(win),
        (None, Some(e)) => Err(e),
        (None, None) => Err(DeepSzError::Infeasible(
            "codec competition needs at least one candidate".into(),
        )),
    }
}

/// [`DataCodec`] over the SZ pipeline ([`dsz_sz`]): encodes SZ v4 streams
/// with the tuning `config` selects. Decode accepts every SZ stream
/// version via the version-byte dispatch.
#[derive(Debug, Clone, Copy)]
pub struct SzCodec {
    /// Full SZ tuning, including chunk geometry.
    pub config: SzConfig,
}

impl DataCodec for SzCodec {
    fn kind(&self) -> DataCodecKind {
        DataCodecKind::Sz
    }

    fn encode(&self, data: &[f32], bound: ErrorBound) -> Result<Vec<u8>, DeepSzError> {
        Ok(self.config.compress(data, bound)?)
    }

    fn decode(&self, bytes: &[u8]) -> Result<Vec<f32>, DeepSzError> {
        Ok(dsz_sz::decompress(bytes)?)
    }

    fn decode_into(&self, bytes: &[u8], out: &mut Vec<f32>) -> Result<(), DeepSzError> {
        Ok(dsz_sz::decompress_into(bytes, out)?)
    }

    fn declared_elems(&self, bytes: &[u8]) -> Result<usize, DeepSzError> {
        Ok(dsz_sz::info(bytes)?.n)
    }
}

/// [`DataCodec`] over the ZFP-style fixed-accuracy compressor
/// ([`dsz_zfp`]). The bound resolves to ZFP's absolute tolerance.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZfpCodec;

impl DataCodec for ZfpCodec {
    fn kind(&self) -> DataCodecKind {
        DataCodecKind::Zfp
    }

    fn encode(&self, data: &[f32], bound: ErrorBound) -> Result<Vec<u8>, DeepSzError> {
        Ok(dsz_zfp::compress(data, bound.resolve(data))?)
    }

    fn decode(&self, bytes: &[u8]) -> Result<Vec<f32>, DeepSzError> {
        Ok(dsz_zfp::decompress(bytes)?)
    }

    fn decode_into(&self, bytes: &[u8], out: &mut Vec<f32>) -> Result<(), DeepSzError> {
        Ok(dsz_zfp::decompress_into(bytes, out)?)
    }

    fn declared_elems(&self, bytes: &[u8]) -> Result<usize, DeepSzError> {
        Ok(dsz_zfp::info(bytes)?.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (((s >> 11) as f64 / (1u64 << 53) as f64) as f32 - 0.5) * 0.2
            })
            .collect()
    }

    #[test]
    fn ids_roundtrip_and_are_stable() {
        assert_eq!(DataCodecKind::Sz.id(), 0);
        assert_eq!(DataCodecKind::Zfp.id(), 1);
        for kind in DataCodecKind::ALL {
            assert_eq!(DataCodecKind::from_id(kind.id()).unwrap(), kind);
            assert_eq!(kind.codec().kind(), kind);
        }
        assert!(DataCodecKind::from_id(7).is_err());
    }

    #[test]
    fn both_codecs_roundtrip_within_bound() {
        let data = weights(5000, 3);
        for kind in DataCodecKind::ALL {
            let codec = kind.codec();
            let blob = codec.encode(&data, ErrorBound::Abs(1e-3)).unwrap();
            let back = codec.decode(&blob).unwrap();
            assert_eq!(back.len(), data.len(), "{}", kind.name());
            let err = dsz_sz::max_abs_error(&data, &back);
            assert!(err <= 1e-3 * (1.0 + 1e-9), "{}: err {err}", kind.name());
        }
    }

    #[test]
    fn decode_into_matches_decode_byte_for_byte() {
        let data = weights(3000, 17);
        let mut out = vec![5.0f32; 7]; // dirty, wrongly sized
        for kind in DataCodecKind::ALL {
            let codec = kind.codec();
            let blob = codec.encode(&data, ErrorBound::Abs(1e-3)).unwrap();
            let want = codec.decode(&blob).unwrap();
            codec.decode_into(&blob, &mut out).unwrap();
            assert_eq!(out.len(), want.len(), "{}", kind.name());
            assert!(
                out.iter()
                    .zip(&want)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{}: decode_into diverged from decode",
                kind.name()
            );
            let cap = out.capacity();
            codec.decode_into(&blob, &mut out).unwrap();
            assert_eq!(out.capacity(), cap, "{}: steady-state realloc", kind.name());
        }
    }

    #[test]
    fn streams_are_self_describing_not_cross_decodable() {
        // Each codec's magic rejects the other's stream: the per-layer id
        // in the container is authoritative, but a mixed-up dispatch
        // errors instead of producing garbage.
        let data = weights(256, 9);
        let sz = DataCodecKind::Sz
            .codec()
            .encode(&data, ErrorBound::Abs(1e-3))
            .unwrap();
        let zfp = DataCodecKind::Zfp
            .codec()
            .encode(&data, ErrorBound::Abs(1e-3))
            .unwrap();
        assert!(DataCodecKind::Sz.codec().decode(&zfp).is_err());
        assert!(DataCodecKind::Zfp.codec().decode(&sz).is_err());
    }

    #[test]
    fn zfp_rejects_bad_bounds_like_sz() {
        let data = weights(64, 1);
        for kind in DataCodecKind::ALL {
            assert!(kind.codec().encode(&data, ErrorBound::Abs(0.0)).is_err());
            assert!(kind
                .codec()
                .encode(&data, ErrorBound::Abs(f64::NAN))
                .is_err());
        }
    }
}
