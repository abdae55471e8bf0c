//! Compressed model generation and decoding — step 4 (§3.5).
//!
//! Encoding takes the assessment + plan and emits a self-describing
//! **DSZM v4** container: per fc layer, the `data` array compressed with
//! the plan's chosen [`crate::codec::DataCodec`] at the chosen error bound (the
//! one-byte codec id is recorded in the layer record), and the
//! best-fit-lossless-compressed `index` array — each record starting on
//! a 64-byte boundary, indexed and digested by a checksummed footer
//! (`docs/FORMAT.md`) so [`crate::seek::SeekableContainer`] can
//! random-access single layers. Decoding reverses the stages — lossless
//! decompression, lossy data decompression through the codec registry,
//! sparse-matrix reconstruction — and reports the time spent in each,
//! which is exactly the breakdown of the paper's Figure 7b.
//!
//! v4 is the only container the encoder writes. Older DSZM generations
//! (v3: checksummed but unaligned; v2: no integrity data; v1: no codec id,
//! data always an SZ stream) keep decoding via the version-byte dispatch,
//! mirroring the SZ v1/v2/v3/v4 stream precedent.
//!
//! # Threading model
//!
//! Both directions parallelize at two levels — the paper's per-layer
//! multi-GPU encoding mapped onto the persistent worker pool
//! (`dsz_tensor::pool`; execution model in `docs/PARALLEL.md`), so no
//! thread is spawned on the encode or decode hot path:
//!
//! * **Across layers** — [`encode_with_plan`] compresses every layer's
//!   data/index streams through [`dsz_tensor::parallel::parallel_map`]
//!   (container serialization stays sequential, so the byte layout is
//!   deterministic for any worker count); [`decode_model`] first parses
//!   the container into zero-copy per-layer records, then decodes layers
//!   through the same work queue.
//! * **Within a layer** — the chunked SZ stream formats fan a single
//!   layer's (de)compression out across workers too (see
//!   `dsz_sz`'s codec docs), at the divided nested budget, so even
//!   single-layer workloads scale.
//!
//! [`DecodeTiming`] accumulates per-stage times *summed over layers* (they
//! overlap in wall-clock when layers decode concurrently); `wall_ms` is
//! the end-to-end elapsed time, so `wall_ms < lossless + sz + reconstruct`
//! is the signature of parallel decode.

// Containers are untrusted input: every malformed byte must surface as a
// `DeepSzError`, never a panic (`docs/ROBUSTNESS.md`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::assessment::LayerAssessment;
use crate::codec::DataCodecKind;
use crate::optimizer::Plan;
use crate::seek::ByteSource;
use crate::DeepSzError;
use dsz_lossless::bits::{read_varint, write_varint};
use dsz_lossless::{fnv1a, CodecError, Fnv1a, LosslessKind};
use dsz_nn::Network;
use dsz_sparse::{Csr, PairArray};
use dsz_tensor::parallel::parallel_map;
use std::ops::Range;
use std::time::Instant;

pub(crate) const MAGIC: &[u8; 4] = b"DSZM";
pub(crate) const VERSION_V1: u8 = 1;
pub(crate) const VERSION_V2: u8 = 2;
pub(crate) const VERSION_V3: u8 = 3;
pub(crate) const VERSION_V4: u8 = 4;
/// Closing magic of the v3/v4 trailer; its presence distinguishes "a
/// container with a damaged tail" from "not a checksummed container at
/// all" in error messages only — every integrity decision rests on the
/// checksums.
pub(crate) const TRAILER_MAGIC_V3: &[u8; 4] = b"DSZ3";
pub(crate) const TRAILER_MAGIC_V4: &[u8; 4] = b"DSZ4";
/// Fixed v3/v4 trailer: `footer_start u64 LE | container_fnv u64 LE |
/// closing magic`.
pub(crate) const TRAILER_LEN: usize = 20;
/// v4 records start on this boundary (zero padding before each record) so
/// a seekable reader's per-layer slices are kernel-page friendly.
pub(crate) const RECORD_ALIGN: usize = 64;
/// Upper bound on `rows × cols` accepted from a container record — a
/// corrupt dim field must not size an allocation. 2^28 f32 elements is a
/// 1 GiB dense layer, ~2.6× the largest real fc layer (VGG-16 fc6).
const MAX_LAYER_ELEMS: usize = 1 << 28;

/// Bounds-checked little-endian `u64` read at byte offset `off`.
#[inline]
pub(crate) fn read_u64_le(bytes: &[u8], off: usize) -> Option<u64> {
    let b: [u8; 8] = bytes.get(off..off.checked_add(8)?)?.try_into().ok()?;
    Some(u64::from_le_bytes(b))
}

/// Reads a varint that will be used as a length/offset/count, rejecting
/// values that do not fit `usize` instead of truncating them with `as`
/// (on 32-bit hosts an unchecked cast would let a 2^32+k length alias a
/// small one and slip past the span cross-checks).
pub(crate) fn read_varint_len(
    region: &[u8],
    pos: &mut usize,
    what: &'static str,
) -> Result<usize, DeepSzError> {
    let v = read_varint(region, pos)?;
    usize::try_from(v)
        .map_err(|_| DeepSzError::BadContainer(format!("{what} {v} overflows this host's usize")))
}

/// FNV-1a over `tag` (little-endian) followed by `bytes` — the v4
/// per-record digest. Folding the record's footer ordinal into the hash
/// means a footer entry copied from another position cannot vouch for a
/// record it was not computed over.
pub(crate) fn fnv1a_tagged(tag: u64, bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in tag.to_le_bytes().iter().chain(bytes) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Shorthand for a [`DeepSzError::Corrupt`] at a named decode stage.
pub(crate) fn corrupt(
    layer: &str,
    stage: &'static str,
    detail: impl std::fmt::Display,
) -> DeepSzError {
    DeepSzError::Corrupt {
        layer: layer.to_string(),
        stage,
        detail: detail.to_string(),
    }
}

/// A serialized compressed model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedModel {
    /// Container bytes.
    pub bytes: Vec<u8>,
}

/// Per-layer record of an encode run.
#[derive(Debug, Clone)]
pub struct EncodedLayerReport {
    /// Layer name.
    pub name: String,
    /// Chosen error bound.
    pub eb: f64,
    /// Lossy codec the data array was compressed with.
    pub data_codec: DataCodecKind,
    /// Lossless codec picked for the index array.
    pub index_codec: LosslessKind,
    /// Compressed data-stream bytes.
    pub data_bytes: usize,
    /// Lossless index-stream bytes.
    pub index_bytes: usize,
    /// Dense (uncompressed f32) bytes of this layer.
    pub dense_bytes: usize,
    /// Two-array (40-bit/entry) bytes after pruning.
    pub pair_bytes: usize,
}

impl EncodedLayerReport {
    /// Compression ratio vs the dense layer.
    pub fn ratio(&self) -> f64 {
        self.dense_bytes as f64 / (self.data_bytes + self.index_bytes).max(1) as f64
    }
}

/// Summary of an encode run.
#[derive(Debug, Clone)]
pub struct EncodeReport {
    /// Per-layer records, in fc order.
    pub layers: Vec<EncodedLayerReport>,
    /// Container size in bytes.
    pub total_bytes: usize,
    /// Sum of dense fc bytes.
    pub total_dense_bytes: usize,
    /// Wall-clock time of final SZ compression (ms); layers compress in
    /// parallel, so this is less than the summed per-layer cost.
    pub compress_ms: f64,
    /// Peak bytes the encode pipeline held in finished-but-unwritten
    /// buffers (chunk slots, retained quantized units, assembled records),
    /// by buffer-ring ledger accounting — the high-water mark of the
    /// [`crate::encode_stream::EncodeStreamConfig::encode_bytes_budget`]
    /// ledger (conservative reservations, so an upper bound on real heap
    /// use by those buffers).
    pub peak_buffered_bytes: usize,
    /// Fraction of container-write time that overlapped layer compression
    /// still in flight, in `[0, 1]`. Zero under serial execution or a
    /// bounded budget (which serializes layers by design).
    pub io_overlap_ratio: f64,
}

impl EncodeReport {
    /// Overall fc compression ratio.
    pub fn ratio(&self) -> f64 {
        self.total_dense_bytes as f64 / self.total_bytes.max(1) as f64
    }
}

/// Encodes the assessed layers according to `plan` into a DSZM v4
/// container, compressing each layer's data array with the plan's chosen
/// codec (SZ layers use the default configuration: the chunked v4 stream
/// format with one shared Huffman table per layer and adaptive chunk
/// sizing).
///
/// Per-layer compression (lossy data stream + lossless index stream)
/// runs in parallel across a work queue; serialization of the finished
/// blobs is sequential, so container bytes are deterministic regardless
/// of worker count.
pub fn encode_with_plan(
    assessments: &[LayerAssessment],
    plan: &Plan,
) -> Result<(CompressedModel, EncodeReport), DeepSzError> {
    encode_with_plan_config(assessments, plan, &dsz_sz::SzConfig::default())
}

/// [`encode_with_plan`] with an explicit SZ configuration, so callers can
/// pin SZ tuning (e.g. a fixed chunk size) for the layers whose chosen
/// codec is SZ. The decode path needs no matching knob — every data
/// stream is self-describing, and the container's per-layer codec id
/// picks the decoder.
///
/// This is the streaming engine ([`crate::encode_stream`]) with an
/// unbounded buffer budget, writing into a `Vec`.
pub fn encode_with_plan_config(
    assessments: &[LayerAssessment],
    plan: &Plan,
    sz: &dsz_sz::SzConfig,
) -> Result<(CompressedModel, EncodeReport), DeepSzError> {
    let (bytes, report) = crate::encode_stream::encode_container_stream(
        assessments,
        plan,
        sz,
        &crate::encode_stream::EncodeStreamConfig::default(),
        Vec::new(),
    )?;
    Ok((CompressedModel { bytes }, report))
}

/// Zero padding source for v4 record alignment.
const ZERO_PAD: [u8; RECORD_ALIGN] = [0; RECORD_ALIGN];

/// Metadata of one layer record — everything except the two blobs.
pub(crate) struct RecordMeta<'a> {
    pub(crate) name: &'a str,
    pub(crate) layer_index: usize,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) eb: f64,
    pub(crate) data_codec: DataCodecKind,
    pub(crate) index_codec: LosslessKind,
}

/// Streams a DSZM v4 container to a `std::io::Write`, with the
/// footer/trailer checksums accumulated incrementally as bytes are
/// emitted — no record `Vec` concatenation and no second pass over a
/// materialized buffer. The byte sequence is: header, 64-byte-aligned
/// records, footer index with per-record ordinal-tagged digests, fixed
/// trailer. Memory held per record is only its two compressed blobs; the
/// footer bookkeeping is O(layers).
pub(crate) struct ContainerWriter<W: std::io::Write> {
    w: W,
    /// Bytes emitted so far — record offsets and the footer offset.
    written: usize,
    /// Running whole-container digest (trailer).
    container_fnv: Fnv1a,
    /// Running ordinal-tagged digest of the record being written.
    rec_fnv: Option<Fnv1a>,
    /// Per-record footer entries: offset, len, record/data/index digests.
    footer: Vec<(usize, usize, u64, u64, u64)>,
    /// Reused buffer for record header fields and the footer.
    scratch: Vec<u8>,
}

impl<W: std::io::Write> ContainerWriter<W> {
    /// Writes the container header and returns the writer.
    pub(crate) fn new(w: W, n_layers: usize) -> Result<Self, DeepSzError> {
        let mut cw = Self {
            w,
            written: 0,
            container_fnv: Fnv1a::new(),
            rec_fnv: None,
            footer: Vec::with_capacity(n_layers),
            scratch: Vec::with_capacity(64),
        };
        let mut head = Vec::with_capacity(16);
        head.extend_from_slice(MAGIC);
        head.push(VERSION_V4);
        write_varint(&mut head, n_layers as u64);
        cw.emit(&head)?;
        Ok(cw)
    }

    /// Emits bytes, folding them into the running digests.
    fn emit(&mut self, bytes: &[u8]) -> Result<(), DeepSzError> {
        self.container_fnv.update(bytes);
        if let Some(h) = &mut self.rec_fnv {
            h.update(bytes);
        }
        self.written += bytes.len();
        self.w.write_all(bytes)?;
        Ok(())
    }

    /// Writes one layer record (alignment padding included) and files its
    /// footer entry. `data_fnv`/`idx_fnv` are the blob digests — computed
    /// upstream (by the encode pipeline's FNV tap while the blob was
    /// assembled) so the writer never re-walks blob bytes.
    pub(crate) fn write_record(
        &mut self,
        meta: &RecordMeta<'_>,
        data_blob: &[u8],
        data_fnv: u64,
        idx_blob: &[u8],
        idx_fnv: u64,
    ) -> Result<(), DeepSzError> {
        // Zero-pad so the record starts on a 64-byte boundary: the
        // seekable reader's footer-driven slices become page-friendly and
        // never split a record across an alignment unit head.
        let pad = self.written.div_ceil(RECORD_ALIGN) * RECORD_ALIGN - self.written;
        self.emit(&ZERO_PAD[..pad])?;
        // The per-record digest spans the record bytes (not the padding),
        // tagged with the record's footer ordinal.
        self.rec_fnv = Some(Fnv1a::with_tag(self.footer.len() as u64));
        let record_start = self.written;
        let mut head = std::mem::take(&mut self.scratch);
        head.clear();
        write_varint(&mut head, meta.name.len() as u64);
        head.extend_from_slice(meta.name.as_bytes());
        write_varint(&mut head, meta.layer_index as u64);
        write_varint(&mut head, meta.rows as u64);
        write_varint(&mut head, meta.cols as u64);
        head.extend_from_slice(&meta.eb.to_le_bytes());
        head.push(meta.data_codec.id());
        head.push(meta.index_codec.id());
        write_varint(&mut head, data_blob.len() as u64);
        self.emit(&head)?;
        self.emit(data_blob)?;
        head.clear();
        write_varint(&mut head, idx_blob.len() as u64);
        self.emit(&head)?;
        self.emit(idx_blob)?;
        self.scratch = head;
        let rec_fnv = self.rec_fnv.take().map_or(0, |h| h.finish());
        self.footer.push((
            record_start,
            self.written - record_start,
            rec_fnv,
            data_fnv,
            idx_fnv,
        ));
        Ok(())
    }

    /// Writes the footer + trailer and returns the inner writer and the
    /// total container length.
    pub(crate) fn finish(mut self) -> Result<(W, usize), DeepSzError> {
        // Footer index (per-layer spans + checksums), then the fixed
        // trailer: footer offset, whole-container FNV over every byte that
        // precedes the checksum field, closing magic. Each entry carries
        // the per-record digest accumulated in `write_record` so a
        // seekable reader can verify one layer without touching the rest.
        // See `docs/FORMAT.md`.
        let footer_start = self.written as u64;
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        for &(off, len, rec_fnv, data_fnv, idx_fnv) in &self.footer {
            write_varint(&mut buf, off as u64);
            write_varint(&mut buf, len as u64);
            buf.extend_from_slice(&rec_fnv.to_le_bytes());
            buf.extend_from_slice(&data_fnv.to_le_bytes());
            buf.extend_from_slice(&idx_fnv.to_le_bytes());
        }
        buf.extend_from_slice(&footer_start.to_le_bytes());
        self.emit(&buf)?;
        // The container digest covers everything before its own field.
        let mut tail = [0u8; TRAILER_LEN - 8];
        tail[..8].copy_from_slice(&self.container_fnv.finish().to_le_bytes());
        tail[8..].copy_from_slice(TRAILER_MAGIC_V4);
        self.emit(&tail)?;
        self.w.flush()?;
        Ok((self.w, self.written))
    }
}

/// One decoded fc layer.
#[derive(Debug, Clone)]
pub struct DecodedLayer {
    /// Layer name.
    pub name: String,
    /// Index into `Network::layers`.
    pub layer_index: usize,
    /// Reconstructed dense row-major weights.
    pub dense: Vec<f32>,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix cols.
    pub cols: usize,
}

/// Wall-clock breakdown of a decode run (the paper's Fig. 7b stages).
///
/// Stage fields are summed across layers; layers decode concurrently, so
/// the per-stage sums can exceed `wall_ms` (they are CPU-time-like).
#[derive(Debug, Clone, Copy, Default)]
pub struct DecodeTiming {
    /// Lossless index-array decompression (ms, summed over layers).
    pub lossless_ms: f64,
    /// Lossy data-array decompression (ms, summed over layers) — the SZ
    /// or ZFP stage, per the layer's codec id.
    pub lossy_ms: f64,
    /// Sparse → dense matrix reconstruction (ms, summed over layers).
    pub reconstruct_ms: f64,
    /// End-to-end elapsed decode time (ms).
    pub wall_ms: f64,
}

impl DecodeTiming {
    /// Total per-stage decode time (ms, summed over layers).
    pub fn total_ms(&self) -> f64 {
        self.lossless_ms + self.lossy_ms + self.reconstruct_ms
    }
}

/// A zero-copy view of one layer's record inside a container.
pub(crate) struct RawLayerRecord<'a> {
    pub(crate) name: &'a str,
    pub(crate) layer_index: usize,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    /// Error bound the layer was encoded at. Metadata only — decode
    /// never consults it — but a re-serialization ([`rewrite_layer_data`])
    /// must carry it through unchanged.
    pub(crate) eb: f64,
    pub(crate) data_codec: DataCodecKind,
    pub(crate) codec: LosslessKind,
    pub(crate) data_blob: &'a [u8],
    pub(crate) idx_blob: &'a [u8],
}

/// A parsed record and its byte span in the container.
pub(crate) type SpannedRecord<'a> = (Range<usize>, RawLayerRecord<'a>);

/// Parses one layer record starting at `*pos` in `region`, advancing
/// `*pos` past it. Shared by the sequential container walk below and the
/// seekable reader (`crate::seek`), which hands in a single footer-sliced
/// span — both paths must accept exactly the same bytes.
pub(crate) fn parse_one_record<'a>(
    region: &'a [u8],
    pos: &mut usize,
    version: u8,
) -> Result<RawLayerRecord<'a>, DeepSzError> {
    let name_len = read_varint_len(region, pos, "name length")?;
    let name_end = pos.checked_add(name_len).ok_or(CodecError::Truncated)?;
    let name = std::str::from_utf8(region.get(*pos..name_end).ok_or(CodecError::Truncated)?)
        .map_err(|_| DeepSzError::BadContainer("bad layer name".into()))?;
    *pos = name_end;
    let layer_index = read_varint_len(region, pos, "layer index")?;
    let rows = read_varint_len(region, pos, "row count")?;
    let cols = read_varint_len(region, pos, "column count")?;
    match rows.checked_mul(cols) {
        Some(elems) if elems <= MAX_LAYER_ELEMS => {}
        _ => {
            return Err(corrupt(
                name,
                "validate",
                format!("dims {rows}x{cols} overflow or exceed the {MAX_LAYER_ELEMS}-element cap"),
            ))
        }
    }
    let eb_end = pos.checked_add(8).ok_or(CodecError::Truncated)?;
    let eb_bytes: [u8; 8] = region
        .get(*pos..eb_end)
        .ok_or(CodecError::Truncated)?
        .try_into()
        .map_err(|_| CodecError::Truncated)?;
    let eb = f64::from_le_bytes(eb_bytes);
    *pos = eb_end;
    let data_codec = if version >= VERSION_V2 {
        let id = *region.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        DataCodecKind::from_id(id)?
    } else {
        DataCodecKind::Sz
    };
    let codec = LosslessKind::from_id(*region.get(*pos).ok_or(CodecError::Truncated)?)?;
    *pos += 1;
    let data_len = read_varint_len(region, pos, "data blob length")?;
    let data_end = pos.checked_add(data_len).ok_or(CodecError::Truncated)?;
    let data_blob = region.get(*pos..data_end).ok_or(CodecError::Truncated)?;
    *pos = data_end;
    let idx_len = read_varint_len(region, pos, "index blob length")?;
    let idx_end = pos.checked_add(idx_len).ok_or(CodecError::Truncated)?;
    let idx_blob = region.get(*pos..idx_end).ok_or(CodecError::Truncated)?;
    *pos = idx_end;
    Ok(RawLayerRecord {
        name,
        layer_index,
        rows,
        cols,
        eb,
        data_codec,
        codec,
        data_blob,
        idx_blob,
    })
}

/// One v3/v4 footer entry: where a record sits and what its bytes hash to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecordEntry {
    pub(crate) off: usize,
    pub(crate) len: usize,
    /// v4 only: ordinal-tagged FNV over the record's full span.
    pub(crate) rec_fnv: Option<u64>,
    pub(crate) data_fnv: u64,
    pub(crate) idx_fnv: u64,
}

/// A v3/v4 container's framing: everything but the record bytes.
pub(crate) struct Framing {
    pub(crate) version: u8,
    /// First byte after the layer-count varint.
    pub(crate) records_start: usize,
    pub(crate) entries: Vec<RecordEntry>,
}

/// Checks the `"DSZM"` magic and returns the version byte.
fn read_version<S: ByteSource>(src: &S) -> Result<u8, DeepSzError> {
    let bad_magic = || DeepSzError::BadContainer("bad magic".into());
    if src.len() < 5 {
        return Err(bad_magic());
    }
    let header = src.read_at(0, 5)?;
    if &header[..4] != MAGIC {
        return Err(bad_magic());
    }
    let version = header[4];
    if !(VERSION_V1..=VERSION_V4).contains(&version) {
        return Err(DeepSzError::BadContainer("unsupported version".into()));
    }
    Ok(version)
}

/// Reads a v3/v4 container's header, layer count, trailer and footer into
/// [`RecordEntry`]s — O(layers), no record is read — and applies every
/// span rule, so every reader accepts the same framing:
///
/// * the layer count is bounded by what the footer can hold before
///   anything is reserved;
/// * records are contiguous from the header: each starts where the
///   previous one (or the layer count) ends — for v4, at the next
///   [`RECORD_ALIGN`] boundary after it;
/// * the last record ends at `footer_start`, and the footer is consumed
///   exactly.
///
/// With `authenticate`, the whole-container FNV is checked right after
/// the trailer magic, before any other field is trusted.
pub(crate) fn read_framing<S: ByteSource>(
    src: &S,
    authenticate: bool,
) -> Result<Framing, DeepSzError> {
    let bad = |msg: &str| DeepSzError::BadContainer(msg.into());
    let version = read_version(src)?;
    if version < VERSION_V3 {
        return Err(bad(
            "container version has no footer index (only v3/v4 are seekable)",
        ));
    }
    let v4 = version >= VERSION_V4;
    let len = src.len();
    if len < 6 + TRAILER_LEN {
        return Err(bad("checksummed container shorter than its trailer"));
    }
    let trailer = src.read_at(len - TRAILER_LEN, TRAILER_LEN)?;
    let want_magic = if v4 {
        TRAILER_MAGIC_V4
    } else {
        TRAILER_MAGIC_V3
    };
    if &trailer[TRAILER_LEN - 4..] != want_magic {
        return Err(bad("trailer magic missing"));
    }
    if authenticate {
        let stored_fnv = read_u64_le(&trailer, 8).ok_or(CodecError::Truncated)?;
        let actual_fnv = fnv1a(&src.read_at(0, len - 12)?);
        if stored_fnv != actual_fnv {
            return Err(corrupt(
                "<container>",
                "checksum",
                format!("container fnv mismatch: stored {stored_fnv:#018x}, computed {actual_fnv:#018x}"),
            ));
        }
    }
    let footer_start = read_u64_le(&trailer, 0)
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| bad("footer offset overflows"))?;
    if footer_start < 6 || footer_start > len - TRAILER_LEN {
        return Err(bad("footer offset out of bounds"));
    }

    // The layer count is the varint straight after the header: at most
    // 10 bytes, clipped to the records region.
    let count = src.read_at(5, (footer_start - 5).min(10))?;
    let mut cpos = 0usize;
    let n_layers = read_varint_len(&count, &mut cpos, "layer count")?;
    let records_start = 5 + cpos;
    let footer = src.read_at(footer_start, len - TRAILER_LEN - footer_start)?;
    // Smallest entry: one-byte offset and length varints plus two (v3)
    // or three (v4) u64 digests.
    let fits = footer.len() / if v4 { 26 } else { 18 };
    if n_layers > fits {
        return Err(DeepSzError::BadContainer(format!(
            "layer count {n_layers} exceeds the {fits} entries a {}-byte footer can hold",
            footer.len()
        )));
    }

    let digest = |fpos: &mut usize| {
        let v = read_u64_le(&footer, *fpos).ok_or_else(|| bad("footer truncated"))?;
        *fpos += 8;
        Ok::<u64, DeepSzError>(v)
    };
    let mut fpos = 0usize;
    let mut end = records_start;
    let mut entries = Vec::with_capacity(n_layers);
    for i in 0..n_layers {
        let off = read_varint_len(&footer, &mut fpos, "footer record offset")?;
        let rec_len = read_varint_len(&footer, &mut fpos, "footer record length")?;
        let rec_fnv = if v4 { Some(digest(&mut fpos)?) } else { None };
        let data_fnv = digest(&mut fpos)?;
        let idx_fnv = digest(&mut fpos)?;
        let want_off = if v4 {
            end.div_ceil(RECORD_ALIGN) * RECORD_ALIGN
        } else {
            end
        };
        if off != want_off {
            return Err(DeepSzError::BadContainer(format!(
                "record {i} starts at {off}, not at {want_off} where the records before it end"
            )));
        }
        end = off
            .checked_add(rec_len)
            .filter(|&e| rec_len > 0 && e <= footer_start)
            .ok_or_else(|| {
                DeepSzError::BadContainer(format!(
                    "record {i} span {off}+{rec_len} is empty or runs into the footer"
                ))
            })?;
        entries.push(RecordEntry {
            off,
            len: rec_len,
            rec_fnv,
            data_fnv,
            idx_fnv,
        });
    }
    if fpos != footer.len() {
        return Err(bad("footer has trailing bytes"));
    }
    if end != footer_start {
        return Err(bad("records do not end at the footer"));
    }
    Ok(Framing {
        version,
        records_start,
        entries,
    })
}

/// Checks record `ordinal`'s bytes against its footer entry — the v4
/// ordinal-tagged span digest first (it covers every header field), then
/// a parse that must fill the span exactly, then the blob digests — and
/// returns the parsed record. No payload is decompressed.
pub(crate) fn verify_record<'a>(
    record: &'a [u8],
    ordinal: usize,
    entry: &RecordEntry,
    version: u8,
) -> Result<RawLayerRecord<'a>, DeepSzError> {
    if let Some(want) = entry.rec_fnv {
        if fnv1a_tagged(ordinal as u64, record) != want {
            let label = format!("<record {ordinal}>");
            return Err(corrupt(&label, "checksum", "record span fnv mismatch"));
        }
    }
    let mut pos = 0usize;
    let r = parse_one_record(record, &mut pos, version)?;
    if pos != record.len() {
        return Err(corrupt(
            r.name,
            "checksum",
            "record does not fill its footer span",
        ));
    }
    if fnv1a(r.data_blob) != entry.data_fnv {
        return Err(corrupt(r.name, "checksum", "data blob fnv mismatch"));
    }
    if fnv1a(r.idx_blob) != entry.idx_fnv {
        return Err(corrupt(r.name, "checksum", "index blob fnv mismatch"));
    }
    Ok(r)
}

/// Parses a container into per-layer records — each with its byte span
/// in `bytes` — without decoding any payload (shared by [`decode_model`]
/// and the streaming loader). v3/v4 go through [`read_framing`] with the
/// whole-container FNV checked first, then every v4 alignment gap must be
/// zero and every record must pass [`verify_record`] — all *before* any
/// payload reaches a decompressor. v1/v2 carry no footer: their records
/// are walked back to back from the header (v1 records have no data codec
/// id; SZ is implied). Every version rejects a container with two records
/// for the same layer index (`docs/FORMAT.md`).
pub(crate) fn parse_records(bytes: &[u8]) -> Result<Vec<SpannedRecord<'_>>, DeepSzError> {
    let version = read_version(&bytes)?;
    let records = if version >= VERSION_V3 {
        let framing = read_framing(&bytes, true)?;
        let mut records = Vec::with_capacity(framing.entries.len());
        let mut end = framing.records_start;
        // `read_framing` bounded every span inside the records region.
        for (ordinal, e) in framing.entries.iter().enumerate() {
            if bytes[end..e.off].iter().any(|&b| b != 0) {
                return Err(DeepSzError::BadContainer(
                    "nonzero bytes in record alignment padding".into(),
                ));
            }
            end = e.off + e.len;
            let record = verify_record(&bytes[e.off..end], ordinal, e, version)?;
            records.push((e.off..end, record));
        }
        records
    } else {
        let mut pos = 5usize;
        let n_layers = read_varint_len(bytes, &mut pos, "layer count")?;
        // No checksum guards a v1/v2 count: bound it by what the record
        // region can hold before it sizes the allocation below. Smallest
        // v1 record: six one-byte varints, the f64 error bound and the
        // index codec id; v2 adds the data codec id.
        let region = bytes.len() - pos;
        let fits = region / if version >= VERSION_V2 { 16 } else { 15 };
        if n_layers > fits {
            return Err(DeepSzError::BadContainer(format!(
                "layer count {n_layers} exceeds the {fits} records a {region}-byte region can hold"
            )));
        }
        let mut records = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            let start = pos;
            let record = parse_one_record(bytes, &mut pos, version)?;
            records.push((start..pos, record));
        }
        records
    };
    // Two records for one layer would leave readers to disagree on which
    // one wins; no encoder writes that, so no reader accepts it.
    let mut seen = std::collections::HashSet::with_capacity(records.len());
    if let Some((_, dup)) = records.iter().find(|(_, r)| !seen.insert(r.layer_index)) {
        return Err(DeepSzError::BadContainer(format!(
            "layer index {} has more than one record",
            dup.layer_index
        )));
    }
    Ok(records)
}

/// Verifies a container's structural integrity without decompressing any
/// payload: framing, version dispatch, and — for v3/v4 — the whole-container
/// FNV-1a, footer spans, and per-record checksums. Returns the layer count.
/// For v1/v2 containers (no integrity information on the wire) this only
/// proves the framing parses. Cost is one linear hash pass over the
/// bytes; the bench reports it as `checksum_verify_ms`.
pub fn verify_container(model: &CompressedModel) -> Result<usize, DeepSzError> {
    parse_records(&model.bytes).map(|r| r.len())
}

/// Re-serializes `container` with record `ordinal`'s **data blob**
/// replaced by `mutate`'s output, recomputing every checksum (per-blob
/// FNVs, v4 record-span digests, the whole-container trailer FNV) so the
/// result is *authentically* corrupt: its framing and checksums verify,
/// but the stomped blob fails to decode. This is the fixture generator
/// for degraded-mode and chaos tests — naive byte-stomping of a v3/v4
/// container trips the trailer FNV in [`parse_records`] and never reaches
/// the decoder, which is exactly the wrong failure to exercise.
///
/// The input must be a v4 container (the only version the writer emits);
/// anything older is refused with [`DeepSzError::BadContainer`]. The
/// rewritten container keeps the record order; every other record is
/// carried through bit-identically.
pub fn rewrite_layer_data(
    container: &[u8],
    ordinal: usize,
    mutate: impl FnOnce(&mut Vec<u8>),
) -> Result<Vec<u8>, DeepSzError> {
    let records = parse_records(container)?;
    // parse_records validated the header, so the version byte is present.
    if container[4] != VERSION_V4 {
        return Err(DeepSzError::BadContainer(format!(
            "rewrite needs a v{VERSION_V4} container, got v{}",
            container[4]
        )));
    }
    if ordinal >= records.len() {
        return Err(DeepSzError::BadContainer(format!(
            "rewrite target ordinal {ordinal} out of range ({} records)",
            records.len()
        )));
    }
    let mut w = ContainerWriter::new(Vec::new(), records.len())?;
    let mut mutate = Some(mutate);
    for (i, (_, r)) in records.iter().enumerate() {
        let mut data = r.data_blob.to_vec();
        if i == ordinal {
            if let Some(m) = mutate.take() {
                m(&mut data);
            }
        }
        let meta = RecordMeta {
            name: r.name,
            layer_index: r.layer_index,
            rows: r.rows,
            cols: r.cols,
            eb: r.eb,
            data_codec: r.data_codec,
            index_codec: r.codec,
        };
        w.write_record(&meta, &data, fnv1a(&data), r.idx_blob, fnv1a(r.idx_blob))?;
    }
    let (bytes, _) = w.finish()?;
    Ok(bytes)
}

/// Decodes one parsed record through the three stages, returning the layer
/// plus `(lossless, lossy, reconstruct)` stage times in ms. The first two
/// stages are [`decode_pair`]; the third rebuilds the dense matrix.
pub(crate) fn decode_record(
    r: &RawLayerRecord<'_>,
) -> Result<(DecodedLayer, [f64; 3]), DeepSzError> {
    let (pair, [lossless_ms, lossy_ms]) = decode_pair(r)?;
    let t = Instant::now();
    let dense = pair
        .to_dense()
        .map_err(|e| corrupt(r.name, "reconstruct", e))?;
    let reconstruct_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok((
        DecodedLayer {
            name: r.name.to_string(),
            layer_index: r.layer_index,
            dense,
            rows: r.rows,
            cols: r.cols,
        },
        [lossless_ms, lossy_ms, reconstruct_ms],
    ))
}

/// Decodes one parsed record into its sparse form: the record's own gap
/// stream and freshly decoded data, as [`Csr`] — what a streaming forward
/// multiplies. Stages and errors are [`decode_record`]'s: a gap stream
/// that cannot be placed fails at stage `"reconstruct"` here too.
pub(crate) fn decode_record_sparse(r: &RawLayerRecord<'_>) -> Result<Csr, DeepSzError> {
    let (pair, _) = decode_pair(r)?;
    pair.to_csr().map_err(|e| corrupt(r.name, "reconstruct", e))
}

/// The lossless index and lossy data stages of a record: its two-array
/// sparse form plus `(lossless, lossy)` stage times in ms. The data
/// stage dispatches through the [`crate::codec::DataCodec`] registry on
/// the record's codec id, so it is uniform across SZ and ZFP layers.
///
/// Every failure is a [`DeepSzError::Corrupt`] naming the layer and the
/// stage that rejected it. Declared stream sizes are cross-checked
/// against the record's dims *before* any decompression runs, so a
/// mutated length field cannot size an allocation or burn decode time.
fn decode_pair(r: &RawLayerRecord<'_>) -> Result<(PairArray, [f64; 2]), DeepSzError> {
    let elems = match r.rows.checked_mul(r.cols) {
        Some(e) if e <= MAX_LAYER_ELEMS => e,
        _ => {
            return Err(corrupt(
                r.name,
                "validate",
                format!(
                    "dims {}x{} overflow or exceed the {MAX_LAYER_ELEMS}-element cap",
                    r.rows, r.cols
                ),
            ))
        }
    };
    // Condensed entries = nonzeros + zero-run pads (at most one pad per
    // 255-element gap), so a valid record never declares more than this.
    let max_entries = elems + elems / 255 + 1;
    let data_elems = r
        .data_codec
        .codec()
        .declared_elems(r.data_blob)
        .map_err(|e| corrupt(r.name, "cross-check", format!("data stream header: {e}")))?;
    let idx_elems = r
        .codec
        .codec()
        .declared_len(r.idx_blob)
        .map_err(|e| corrupt(r.name, "cross-check", format!("index stream header: {e}")))?;
    if data_elems != idx_elems {
        return Err(corrupt(
            r.name,
            "cross-check",
            format!("data stream declares {data_elems} elements, index stream {idx_elems}"),
        ));
    }
    if data_elems > max_entries {
        return Err(corrupt(
            r.name,
            "cross-check",
            format!(
                "{data_elems} declared entries exceed the {max_entries}-entry cap of a {}x{} layer",
                r.rows, r.cols
            ),
        ));
    }

    let t = Instant::now();
    let index = r
        .codec
        .codec()
        .decompress(r.idx_blob)
        .map_err(|e| corrupt(r.name, "lossless-index", e))?;
    let lossless_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let data = r
        .data_codec
        .codec()
        .decode(r.data_blob)
        .map_err(|e| corrupt(r.name, "lossy-data", e))?;
    let lossy_ms = t.elapsed().as_secs_f64() * 1e3;

    if data.len() != index.len() {
        return Err(corrupt(
            r.name,
            "cross-check",
            format!(
                "decoded {} data elements but {} index entries",
                data.len(),
                index.len()
            ),
        ));
    }
    let pair = PairArray {
        rows: r.rows,
        cols: r.cols,
        data,
        index,
    };
    Ok((pair, [lossless_ms, lossy_ms]))
}

/// Decodes a container produced by [`encode_with_plan`].
///
/// The container is parsed into zero-copy records first; layers then
/// decode in parallel through a work queue (and the chunked SZ streams
/// parallelize internally as well). Results keep container order.
pub fn decode_model(
    model: &CompressedModel,
) -> Result<(Vec<DecodedLayer>, DecodeTiming), DeepSzError> {
    let t0 = Instant::now();
    let records = parse_records(&model.bytes)?;
    let results = parallel_map(&records, |(_, r)| decode_record(r));
    let mut layers = Vec::with_capacity(records.len());
    let mut timing = DecodeTiming::default();
    for r in results {
        let (layer, [lossless, lossy, reconstruct]) = r?;
        timing.lossless_ms += lossless;
        timing.lossy_ms += lossy;
        timing.reconstruct_ms += reconstruct;
        layers.push(layer);
    }
    timing.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok((layers, timing))
}

/// Installs decoded fc layers into `net` (matched by layer index, with the
/// name and shape cross-checked). Takes the layers by value so each dense
/// buffer moves into the network instead of being copied.
pub fn apply_decoded(net: &mut Network, layers: Vec<DecodedLayer>) -> Result<(), DeepSzError> {
    // Validate everything first so a mismatch can't leave `net` half-updated.
    for l in &layers {
        if l.layer_index >= net.layers.len() {
            return Err(DeepSzError::BadContainer(format!(
                "layer index {} out of range",
                l.layer_index
            )));
        }
        let dsz_nn::Layer::Dense(d) = &net.layers[l.layer_index] else {
            return Err(DeepSzError::BadContainer(format!(
                "network layer {} is not fully connected",
                l.layer_index
            )));
        };
        if d.name != l.name || d.w.rows != l.rows || d.w.cols != l.cols {
            return Err(DeepSzError::BadContainer(format!(
                "layer {} does not match network layer {} ({}×{})",
                l.name, d.name, d.w.rows, d.w.cols
            )));
        }
    }
    for l in layers {
        let dsz_nn::Layer::Dense(d) = &mut net.layers[l.layer_index] else {
            unreachable!("validated above");
        };
        d.w.data = l.dense;
    }
    Ok(())
}
