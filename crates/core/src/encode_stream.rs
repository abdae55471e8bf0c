//! Streaming operator-pipeline encode — bounded-memory compressed model
//! generation with IO-overlapped container writes.
//!
//! Encoding is a graph of composable streaming **operators**, so peak
//! memory does not grow with the whole model:
//!
//! ```text
//! read_block ─ condense ─ quantize/entropy-code ─ block-align ─ container-write
//!  (PairArray)  (SZ chunk pipeline, dsz_sz::compress_stream)   (ContainerWriter)
//! ```
//!
//! Fixed-size chunks flow through the `dsz_tensor::pool` work queue and
//! finished chunks stream into the container while later chunks (and
//! later layers) are still compressing. Every buffer that outlives the
//! operator that produced it is accounted in a shared
//! [`ByteBudget`] ledger; the caller caps it with
//! [`EncodeStreamConfig::encode_bytes_budget`] (the encode-side analogue
//! of decode's `with_decoded_bytes_budget`) and the ledger's high-water
//! mark is reported as [`EncodeReport::peak_buffered_bytes`].
//!
//! This is the only container encoder, and it writes DSZM v4 only.
//! Container bytes are **bit-identical** for every worker count and
//! budget — pinned by the golden-bytes tests and
//! `tests/streaming_encode.rs`. Buffer-ring
//! ownership and the budget's mandatory-floor rule are documented in
//! `docs/STREAMING_ENCODE.md`.

// The encode path handles caller data, not untrusted containers, but it
// shares the pipeline module's no-panic discipline.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::assessment::LayerAssessment;
use crate::codec::DataCodecKind;
use crate::optimizer::Plan;
use crate::pipeline::{ContainerWriter, EncodeReport, EncodedLayerReport, RecordMeta};
use crate::DeepSzError;
use dsz_lossless::{fnv1a, Fnv1a};
use dsz_sz::{ChunkSink, ErrorBound};
use dsz_tensor::budget::{default_window, ordered_pipeline, ByteBudget};
use std::io::Write;
use std::time::Instant;

/// Tuning for the streaming encode path.
#[derive(Debug, Clone, Copy, Default)]
pub struct EncodeStreamConfig {
    /// High-water cap, in bytes, on finished-but-unwritten encode buffers
    /// (chunk slots, retained quantized units, assembled record blobs) —
    /// the buffer-ring ledger. `None` is unbounded: layers fan out across
    /// the worker pool and the ledger merely *measures* the materialized
    /// peak.
    ///
    /// A bound is enforced exactly for every *optional* buffer: chunk
    /// slots and unit retention are admitted by compare-and-swap charges
    /// that never push the ledger above the cap. Buffers the format
    /// *requires* live (the head-of-line chunk slot, one record's
    /// data/index blobs while it is assembled and written) are charged
    /// unconditionally — the documented **mandatory floor** — so the
    /// ledger's high-water mark is at most `cap + floor` where floor is
    /// one record's blobs plus one chunk slot. Bounding the budget also
    /// serializes layer fan-out (window = 1): IO overlap is traded for
    /// the cap, mirroring the decode-side budget precedent.
    pub encode_bytes_budget: Option<usize>,
}

/// A stage in the encode operator graph. Operators receive finished byte
/// spans from the stage upstream; composition is by value (each operator
/// owns its downstream), so a layer's chain is built on the worker that
/// compresses it and torn down into its products when the span ends.
pub trait EncodeOperator {
    /// Accepts the next finished span.
    fn push(&mut self, bytes: &[u8]);
}

/// Adapter that lets an operator chain terminate an SZ chunk stream
/// ([`dsz_sz::SzConfig::compress_stream`] emits into a
/// [`dsz_sz::ChunkSink`]).
struct OperatorSink<'a, O: EncodeOperator>(&'a mut O);

impl<O: EncodeOperator> ChunkSink for OperatorSink<'_, O> {
    fn emit(&mut self, bytes: &[u8]) {
        self.0.push(bytes);
    }
}

/// Operator that folds every span through an incremental FNV-1a digest
/// and forwards it downstream — the container's per-blob checksums are
/// computed while the blob streams past, never by re-walking it.
struct FnvTap<O: EncodeOperator> {
    fnv: Fnv1a,
    inner: O,
}

impl<O: EncodeOperator> FnvTap<O> {
    fn new(inner: O) -> Self {
        Self {
            fnv: Fnv1a::new(),
            inner,
        }
    }

    fn into_parts(self) -> (u64, O) {
        (self.fnv.finish(), self.inner)
    }
}

impl<O: EncodeOperator> EncodeOperator for FnvTap<O> {
    fn push(&mut self, bytes: &[u8]) {
        self.fnv.update(bytes);
        self.inner.push(bytes);
    }
}

/// Terminal operator: collects spans into the record blob, charging the
/// ledger for each as it lands. The charge is unconditional — an
/// assembled record's bytes *must* live until the container writer
/// consumes them, so they are part of the budget's mandatory floor; their
/// arrival throttles the optional (try-charged) buffers upstream instead.
struct ChargedVec<'a> {
    buf: Vec<u8>,
    budget: &'a ByteBudget,
    charged: usize,
}

impl<'a> ChargedVec<'a> {
    fn new(budget: &'a ByteBudget) -> Self {
        Self {
            buf: Vec::new(),
            budget,
            charged: 0,
        }
    }

    /// Returns the collected bytes and how much the ledger was charged
    /// for them (released by the consumer once they are written out).
    fn into_parts(self) -> (Vec<u8>, usize) {
        (self.buf, self.charged)
    }
}

impl EncodeOperator for ChargedVec<'_> {
    fn push(&mut self, bytes: &[u8]) {
        self.budget.charge(bytes.len());
        self.charged += bytes.len();
        self.buf.extend_from_slice(bytes);
    }
}

/// One layer's finished products, handed from the compression workers to
/// the in-order container-write stage.
struct LayerArtifact {
    data_blob: Vec<u8>,
    data_fnv: u64,
    idx_blob: Vec<u8>,
    idx_fnv: u64,
    /// Ledger bytes to release once the record is written.
    charged: usize,
}

/// Streams a DSZM v4 container for `plan` straight into `w` with default
/// SZ configuration and an unbounded buffer budget. The bytes written
/// are exactly [`crate::pipeline::encode_with_plan`]'s container — that
/// function is a thin wrapper that points this path at a `Vec`.
pub fn encode_to_writer<W: Write>(
    assessments: &[LayerAssessment],
    plan: &Plan,
    w: W,
) -> Result<EncodeReport, DeepSzError> {
    encode_to_writer_config(
        assessments,
        plan,
        &dsz_sz::SzConfig::default(),
        &EncodeStreamConfig::default(),
        w,
    )
}

/// [`encode_to_writer`] with explicit SZ and streaming configuration —
/// pin a chunk size, or cap the encode buffer ledger
/// with [`EncodeStreamConfig::encode_bytes_budget`].
pub fn encode_to_writer_config<W: Write>(
    assessments: &[LayerAssessment],
    plan: &Plan,
    sz: &dsz_sz::SzConfig,
    cfg: &EncodeStreamConfig,
    w: W,
) -> Result<EncodeReport, DeepSzError> {
    let (_, report) = encode_container_stream(assessments, plan, sz, cfg, w)?;
    Ok(report)
}

/// The streaming encode engine, generic over the output writer. Layer compression fans out across the worker pool
/// (unbounded budget) or proceeds one layer at a time (bounded budget);
/// the container-write stage consumes artifacts in strict layer order on
/// the calling thread, so the byte stream is deterministic for any
/// worker count.
pub(crate) fn encode_container_stream<W: Write>(
    assessments: &[LayerAssessment],
    plan: &Plan,
    sz: &dsz_sz::SzConfig,
    cfg: &EncodeStreamConfig,
    w: W,
) -> Result<(W, EncodeReport), DeepSzError> {
    assert_eq!(
        assessments.len(),
        plan.layers.len(),
        "plan/assessment mismatch"
    );
    let t0 = Instant::now();
    let n = plan.layers.len();
    let budget = ByteBudget::new(cfg.encode_bytes_budget);
    // A bounded ledger serializes layer fan-out: with several layers in
    // flight, each would force-charge its record blobs (mandatory floor)
    // and the combined floor could dwarf the cap. One layer at a time
    // keeps the floor at a single record.
    let window = if cfg.encode_bytes_budget.is_some() {
        1
    } else {
        default_window()
    };

    let mut writer = ContainerWriter::new(w, n)?;
    let mut reports: Vec<EncodedLayerReport> = Vec::with_capacity(n);
    let mut total_dense = 0usize;

    let produce = |i: usize| -> Result<LayerArtifact, DeepSzError> {
        let a = &assessments[i];
        let c = &plan.layers[i];
        let mut tap = FnvTap::new(ChargedVec::new(&budget));
        match c.codec {
            DataCodecKind::Sz => {
                sz.compress_stream(
                    &a.pair.data,
                    ErrorBound::Abs(c.eb),
                    &budget,
                    &mut OperatorSink(&mut tap),
                )?;
            }
            // Non-chunked codecs (ZFP) encode as one block; route the
            // finished blob through the same tap so checksumming and
            // ledger accounting stay uniform.
            kind => {
                let blob = kind
                    .instance(sz)
                    .encode(&a.pair.data, ErrorBound::Abs(c.eb))?;
                tap.push(&blob);
            }
        }
        let (data_fnv, charged) = tap.into_parts();
        let (data_blob, data_charged) = charged.into_parts();
        let idx_blob = a.index_codec.codec().compress(&a.pair.index);
        // The index blob must also live until the record is written:
        // mandatory floor, forced charge.
        budget.charge(idx_blob.len());
        let idx_fnv = fnv1a(&idx_blob);
        Ok(LayerArtifact {
            charged: data_charged + idx_blob.len(),
            data_fnv,
            idx_fnv,
            data_blob,
            idx_blob,
        })
    };

    let stats = ordered_pipeline(
        n,
        &budget,
        window,
        |_| 0,
        produce,
        |i, art: LayerArtifact| {
            let a = &assessments[i];
            let c = &plan.layers[i];
            writer.write_record(
                &RecordMeta {
                    name: &a.fc.name,
                    layer_index: a.fc.layer_index,
                    rows: a.pair.rows,
                    cols: a.pair.cols,
                    eb: c.eb,
                    data_codec: c.codec,
                    index_codec: a.index_codec,
                },
                &art.data_blob,
                art.data_fnv,
                &art.idx_blob,
                art.idx_fnv,
            )?;
            budget.release(art.charged);
            total_dense += a.pair.dense_bytes();
            reports.push(EncodedLayerReport {
                name: a.fc.name.clone(),
                eb: c.eb,
                data_codec: c.codec,
                index_codec: a.index_codec,
                data_bytes: art.data_blob.len(),
                index_bytes: art.idx_blob.len(),
                dense_bytes: a.pair.dense_bytes(),
                pair_bytes: a.pair.size_bytes(),
            });
            Ok(())
        },
    )?;

    let (w, total_bytes) = writer.finish()?;
    Ok((
        w,
        EncodeReport {
            layers: reports,
            total_bytes,
            total_dense_bytes: total_dense,
            compress_ms: t0.elapsed().as_secs_f64() * 1e3,
            peak_buffered_bytes: budget.high_water(),
            io_overlap_ratio: stats.overlap_ratio(),
        },
    ))
}
