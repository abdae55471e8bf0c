//! DeepSZ — the paper's primary contribution.
//!
//! An *accuracy-loss expected* DNN compression framework (§3) with four
//! steps:
//!
//! 1. **Network pruning** (delegated to [`dsz_prune`]).
//! 2. **Error bound assessment** ([`assessment`], Algorithm 1): per fc
//!    layer, find the feasible error-bound range by testing inference
//!    accuracy with only that layer reconstructed from a lossy
//!    compression, and collect `(error bound → accuracy degradation,
//!    compressed size)` samples — at each bound the candidate
//!    [`codec::DataCodec`]s (SZ, ZFP) compete and the smaller stream
//!    wins the point, making the paper's Fig. 2 comparison per layer.
//!    The default engine is *incremental* (prefix-activation caching +
//!    scratch-arena suffix evaluation, bit-identical to the preserved
//!    full path — `docs/ASSESSMENT.md`), since assessment is the
//!    pipeline's dominant cost.
//! 3. **Optimization of the error-bound configuration** ([`optimizer`],
//!    Algorithm 2): a knapsack-style dynamic program picks per-layer error
//!    bounds minimizing total size under the user's expected accuracy loss
//!    (or maximizing accuracy under a size budget — the expected-ratio
//!    mode), justified by the approximate additivity of per-layer
//!    degradations (Eq. 1, [`linearity`]).
//! 4. **Compressed model generation** ([`pipeline`]): each layer's
//!    `data` array compressed with its chosen codec at its chosen bound,
//!    best-fit lossless coding of the `index` array, packed into a
//!    self-describing container (DSZM v4: checksummed footer index over
//!    64-byte-aligned records) that records the per-layer codec id.
//!    Decoding reverses the three stages with per-stage timing
//!    (Fig. 7b); [`seek::SeekableContainer`] random-accesses single
//!    layers, and [`streaming::CompressedFcModel`] runs inference
//!    straight off each layer's decoded sparse form and can spill those
//!    layers to disk under a memory quota ([`spill`]).

pub mod assessment;
pub mod codec;
pub mod encode_stream;
pub mod evaluator;
pub mod layer_cache;
pub mod linearity;
pub mod optimizer;
pub mod pipeline;
pub mod seek;
pub mod spill;
pub mod streaming;

pub use assessment::{
    assess_network, assess_network_full, AssessmentConfig, EbPoint, LayerAssessment,
};
pub use codec::{compete, DataCodec, DataCodecKind, SzCodec, ZfpCodec};
pub use encode_stream::{encode_to_writer, encode_to_writer_config, EncodeStreamConfig};
pub use evaluator::{cache_features, AccuracyEvaluator, DatasetEvaluator, IncrementalEvaluator};
pub use layer_cache::{CacheHandle, CacheStats, Payload, SharedLayerCache};
pub use linearity::{linearity_experiment, LinearityPoint};
pub use optimizer::{optimize_for_accuracy, optimize_for_size, ChosenLayer, Plan};
pub use pipeline::{
    apply_decoded, decode_model, encode_with_plan, encode_with_plan_config, rewrite_layer_data,
    verify_container, CompressedModel, DecodeTiming, DecodedLayer, EncodeReport,
};
pub use seek::{ByteSource, FileSource, SeekableContainer};
pub use spill::{SpillCache, SpillStats};
pub use streaming::{CompressedFcModel, DecodePolicy, ForwardHook, StreamingStats};

use std::fmt;

/// Errors surfaced by the framework.
#[derive(Debug)]
pub enum DeepSzError {
    /// Underlying SZ codec failure.
    Sz(dsz_sz::SzError),
    /// Underlying lossless codec failure.
    Codec(dsz_lossless::CodecError),
    /// Underlying sparse-format failure.
    Sparse(dsz_sparse::SparseError),
    /// Invalid container bytes.
    BadContainer(String),
    /// A layer's record failed validation or decoding at a specific stage
    /// of the decode pipeline, so callers of untrusted containers learn
    /// *which* layer and *where* it broke (`docs/ROBUSTNESS.md` lists the
    /// stage vocabulary).
    Corrupt {
        /// Name of the layer whose record failed.
        layer: String,
        /// Decode stage that rejected it: `"validate"`, `"checksum"`,
        /// `"cross-check"`, `"lossless-index"`, `"lossy-data"`,
        /// `"reconstruct"`, or `"spill"` (a damaged on-disk spill file,
        /// [`spill::SpillCache`]).
        stage: &'static str,
        /// Underlying cause.
        detail: String,
    },
    /// Several layers failed to decode — the aggregate report produced by
    /// [`streaming::DecodePolicy::ReportBadLayers`]. Each element is the
    /// per-layer failure (usually [`DeepSzError::Corrupt`]).
    BadLayers(Vec<DeepSzError>),
    /// No feasible configuration under the requested constraint.
    Infeasible(String),
    /// A cancellable forward pass observed its abort flag between layers
    /// and stopped ([`streaming::CompressedFcModel::forward_cancellable`]);
    /// no output was produced. The serving layer maps this to its own
    /// cancellation error.
    Cancelled,
    /// The output writer failed while a container was being streamed to
    /// it ([`encode_stream::encode_to_writer`]); the container is
    /// incomplete and must be discarded.
    Io(std::io::Error),
}

impl fmt::Display for DeepSzError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeepSzError::Sz(e) => write!(f, "sz: {e}"),
            DeepSzError::Codec(e) => write!(f, "lossless: {e}"),
            DeepSzError::Sparse(e) => write!(f, "sparse: {e}"),
            DeepSzError::BadContainer(m) => write!(f, "container: {m}"),
            DeepSzError::Corrupt {
                layer,
                stage,
                detail,
            } => {
                write!(f, "layer {layer}: corrupt at {stage} stage: {detail}")
            }
            DeepSzError::BadLayers(errs) => {
                write!(f, "{} layer(s) failed to decode: ", errs.len())?;
                for (i, e) in errs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            DeepSzError::Infeasible(m) => write!(f, "infeasible: {m}"),
            DeepSzError::Cancelled => write!(f, "forward pass cancelled"),
            DeepSzError::Io(e) => write!(f, "container write: {e}"),
        }
    }
}

impl DeepSzError {
    /// Whether retrying the failed operation could plausibly succeed
    /// without any external repair — the serving layer's retry gate
    /// (`docs/ROBUSTNESS.md` has the full classification table).
    ///
    /// Transient today:
    /// * [`DeepSzError::Corrupt`] at stage `"spill"` — a damaged on-disk
    ///   spill file. [`spill::SpillCache::fetch`] deletes the poisoned
    ///   file on the way out, so the retry decodes from the (verified)
    ///   container instead of re-reading the bad file.
    /// * [`DeepSzError::Cancelled`] — a cooperative abort, not a fault;
    ///   a live request caught in a batch whose *other* members all hung
    ///   up may legitimately re-run.
    ///
    /// Everything else (container corruption, codec failures, shape
    /// mismatches, I/O) is deterministic against the same bytes and
    /// retrying cannot help.
    pub fn transient(&self) -> bool {
        matches!(
            self,
            DeepSzError::Corrupt { stage: "spill", .. } | DeepSzError::Cancelled
        )
    }

    /// `!self.transient()` — retrying is pointless; the input itself is
    /// bad.
    pub fn permanent(&self) -> bool {
        !self.transient()
    }
}

impl std::error::Error for DeepSzError {}

impl From<std::io::Error> for DeepSzError {
    fn from(e: std::io::Error) -> Self {
        DeepSzError::Io(e)
    }
}

impl From<dsz_sz::SzError> for DeepSzError {
    fn from(e: dsz_sz::SzError) -> Self {
        DeepSzError::Sz(e)
    }
}

impl From<dsz_lossless::CodecError> for DeepSzError {
    fn from(e: dsz_lossless::CodecError) -> Self {
        DeepSzError::Codec(e)
    }
}

impl From<dsz_sparse::SparseError> for DeepSzError {
    fn from(e: dsz_sparse::SparseError) -> Self {
        DeepSzError::Sparse(e)
    }
}
