//! The SZ compression pipeline: prediction, quantization, entropy stage,
//! lossless backend, and the self-describing stream format.
//!
//! # Stream versions and the chunked layout
//!
//! The encoder writes exactly one layout, **v4**; the decoder reads every
//! version that ever shipped. All four share the `SZ1D` magic and differ in
//! the version byte (see `docs/FORMAT.md` for the byte-level reference):
//!
//! * **v1** (read only) — one monolithic payload for the whole array.
//!   Decoding is inherently serial because the Lorenzo predictor chains
//!   every value to the previous reconstruction.
//! * **v2** (read only) — the array is split into fixed-size **chunks** (a
//!   multiple of the prediction block size, last chunk ragged). Every
//!   chunk is a fully independent compression unit: its predictor state
//!   starts fresh, and it carries its own selector RLE, regression
//!   parameters, Huffman table, verbatim values, and lossless-backend
//!   decision, as a `[backend_id u8][len varint][bytes]` record after the
//!   shared header:
//!
//!   ```text
//!   "SZ1D" | 0x02 | n | abs_eb f64 | predictor | block | radius
//!          | chunk_elems | n_chunks | chunk record * n_chunks
//!   ```
//!
//! * **v3** (read only) — chunked like v2, but the quantization codes of
//!   *all* chunks are entropy-coded against **one shared canonical
//!   Huffman table** carried raw in the layer header. Per-chunk payloads
//!   drop the code book *and* the symbol count (implied by the chunk's
//!   element count):
//!
//!   ```text
//!   "SZ1D" | 0x03 | n | abs_eb f64 | predictor | block | radius
//!          | chunk_elems | n_chunks | entropy_id
//!          | shared huffman table (entropy_id 0 only)
//!          | chunk record * n_chunks
//!   ```
//!
//! * **v4** (written) — identical to v3 except the shared Huffman table
//!   itself goes through the lossless backend competition
//!   ([`dsz_lossless::best_fit`]; disabled together with
//!   [`SzConfig::backend`], so `backend: None` streams stay backend-free
//!   end to end): a flag byte precedes the table, `0xff` meaning the
//!   table is stored raw (small tables stay raw because compression would
//!   not pay for its framing) and any [`LosslessKind`] id meaning
//!   `[len varint][compressed table bytes]` follows.
//!
//!   ```text
//!   "SZ1D" | 0x04 | n | abs_eb f64 | predictor | block | radius
//!          | chunk_elems | n_chunks | entropy_id
//!          | table_flag u8                       (entropy_id 0 only)
//!          |   0xff: raw table | else: len varint + backed table bytes
//!          | chunk record * n_chunks
//!   ```
//!
//!   Encoding is two-pass (COMET-style, in `stream.rs`): pass one
//!   quantizes chunks in parallel and pools a global code histogram; pass
//!   two encodes each chunk's payload in parallel against the shared
//!   table. Decode stays chunk-parallel — every chunk only needs the
//!   (read-only) shared decode LUT.
//!
//!   With `chunk_elems = 0` (the default) the chunk size is a pure
//!   function of the layer length, [`adaptive_chunk_elems`]:
//!   `clamp(n / 8, 16Ki, 256Ki)` elements. Small layers become a single
//!   chunk (no table or framing duplication at all) while large layers
//!   expose at least ~8 work items. The resolved size is recorded in the
//!   header, so decode never depends on the encoder's host, and encode
//!   bytes are the same on every host and under every worker count.
//!
//! Independence is what buys parallelism: both [`SzConfig::compress`] and
//! [`decompress`] fan chunks out over [`dsz_tensor::parallel`] workers
//! (encode through a bounded ordered pipeline, decode via
//! `parallel_chunks` straight into disjoint slices of the output buffer —
//! no per-chunk allocation or concatenation), which dispatch onto the
//! persistent worker pool (`dsz_tensor::pool`, see `docs/PARALLEL.md`).
//! Chunk payloads are byte-identical regardless of worker count or pool
//! occupancy, so containers stay deterministic. Each worker thread reuses
//! a thread-local scratch ([`huffman::decode_stream_into`],
//! [`rle::decompress_into`], `Codec::decompress_into`) to keep the decode
//! hot loop allocation-light.

use crate::{ErrorBound, SzError};
use dsz_lossless::bits::{read_varint, write_varint};
use dsz_lossless::huffman;
use dsz_lossless::huffman::{HuffmanCode, HuffmanDecoder, HuffmanEncoder};
use dsz_lossless::{best_fit, rle, CodecError, LosslessKind};
use dsz_tensor::budget::ByteBudget;
use dsz_tensor::parallel::parallel_chunks;
use std::cell::RefCell;

const MAGIC: &[u8; 4] = b"SZ1D";
const VERSION_V1: u8 = 1;
const VERSION_V2: u8 = 2;
const VERSION_V3: u8 = 3;
const VERSION_V4: u8 = 4;

/// Decode-side cap on elements per compressed byte, checked before the
/// output buffer is allocated so a crafted header cannot demand absurd
/// memory. Default-chunk streams top out around ~1.3 K elements/byte, but
/// constant data in a single user-configured giant chunk (Huffman 1 bit
/// per element, then the backend squeezing the bit stream further) can
/// legitimately reach several K elements/byte — 2^16 keeps clear margin
/// over every encodable stream while still bounding amplification.
const MAX_ELEMS_PER_BYTE: usize = 1 << 16;

/// Escape code marking a verbatim ("unpredictable") value.
const ESCAPE: u32 = 0;

/// Which predictors the encoder may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorMode {
    /// Per-block best of Lorenzo and regression (SZ 2.x behaviour).
    Adaptive,
    /// Lorenzo (previous reconstructed value) everywhere — SZ 1.x style.
    LorenzoOnly,
    /// Least-squares line per block everywhere.
    RegressionOnly,
}

impl PredictorMode {
    fn id(self) -> u8 {
        match self {
            PredictorMode::Adaptive => 0,
            PredictorMode::LorenzoOnly => 1,
            PredictorMode::RegressionOnly => 2,
        }
    }

    fn from_id(id: u8) -> Result<Self, CodecError> {
        match id {
            0 => Ok(PredictorMode::Adaptive),
            1 => Ok(PredictorMode::LorenzoOnly),
            2 => Ok(PredictorMode::RegressionOnly),
            _ => Err(CodecError::corrupt("unknown predictor mode")),
        }
    }
}

/// Entropy stage for the quantization codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntropyStage {
    /// Canonical Huffman (default; SZ's choice).
    Huffman,
    /// Raw varints — only useful for the entropy-stage ablation bench.
    Raw,
}

impl EntropyStage {
    pub(crate) fn id(self) -> u8 {
        match self {
            EntropyStage::Huffman => 0,
            EntropyStage::Raw => 1,
        }
    }

    fn from_id(id: u8) -> Result<Self, CodecError> {
        match id {
            0 => Ok(EntropyStage::Huffman),
            1 => Ok(EntropyStage::Raw),
            _ => Err(CodecError::corrupt("bad entropy stage id")),
        }
    }
}

/// Tunable compressor configuration. The defaults mirror SZ 2.x plus the
/// chunk-parallel v4 layout.
#[derive(Debug, Clone, Copy)]
pub struct SzConfig {
    /// Predictor selection policy.
    pub predictor: PredictorMode,
    /// Samples per prediction block.
    pub block_size: usize,
    /// Quantization radius: codes cover `[-radius, radius-1]`; residuals
    /// outside become verbatim values. SZ's default is 2^15.
    pub radius: u32,
    /// Entropy stage for quantization codes.
    pub entropy: EntropyStage,
    /// Byte codec applied per compression unit (`None` disables).
    pub backend: Option<LosslessKind>,
    /// Elements per independently compressed chunk (rounded up to a
    /// multiple of `block_size`). `0` (the default) picks the size from
    /// the layer length alone — [`adaptive_chunk_elems`] — so small layers
    /// collapse to a single chunk and large layers expose parallelism.
    pub chunk_elems: usize,
}

impl Default for SzConfig {
    fn default() -> Self {
        Self {
            predictor: PredictorMode::Adaptive,
            block_size: 128,
            radius: 1 << 15,
            entropy: EntropyStage::Huffman,
            backend: Some(LosslessKind::Zstd),
            chunk_elems: 0,
        }
    }
}

/// Header information of a compressed stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SzInfo {
    /// Stream format version (1 = monolithic, 2 = chunked with per-chunk
    /// tables, 3 = chunked with a shared table, 4 = shared table behind
    /// the lossless backend competition).
    pub version: u8,
    /// Element count.
    pub n: usize,
    /// Resolved absolute error bound.
    pub abs_eb: f64,
    /// Predictor policy used.
    pub predictor: PredictorMode,
    /// Block size used.
    pub block_size: usize,
    /// Quantization radius used.
    pub radius: u32,
    /// Lossless backend used (if any). For v2 this is per chunk; the
    /// header reports the first chunk's choice (`None` when empty).
    pub backend: Option<LosslessKind>,
    /// Elements per chunk (v2; equals `n` for v1 streams).
    pub chunk_elems: usize,
    /// Number of chunks (v2; 1 for non-empty v1 streams).
    pub chunks: usize,
}

/// Encoder-side statistics, for benches and ablations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompressStats {
    /// Element count.
    pub n: usize,
    /// Values stored verbatim because quantization would break the bound.
    pub unpredictable: usize,
    /// Blocks that chose the regression predictor.
    pub regression_blocks: usize,
    /// Total block count.
    pub blocks: usize,
    /// Final compressed size in bytes.
    pub compressed_bytes: usize,
}

impl CompressStats {
    /// Compression ratio vs raw f32 storage.
    pub fn ratio(&self) -> f64 {
        (self.n * 4) as f64 / self.compressed_bytes.max(1) as f64
    }
}

#[derive(Clone, Copy)]
enum Sel {
    Lorenzo,
    Regression { a: f32, b: f32 },
}

/// Least-squares line over `block` with x = 0..m-1.
fn fit_line(block: &[f32]) -> (f32, f32) {
    let m = block.len();
    if m == 1 {
        let b = if block[0].is_finite() { block[0] } else { 0.0 };
        return (0.0, b);
    }
    let mf = m as f64;
    let mean_x = (mf - 1.0) / 2.0;
    let mut mean_y = 0f64;
    let mut finite = 0usize;
    for &v in block {
        if v.is_finite() {
            mean_y += v as f64;
            finite += 1;
        }
    }
    if finite == 0 {
        return (0.0, 0.0);
    }
    mean_y /= finite as f64;
    let mut cov = 0f64;
    let mut var = 0f64;
    for (i, &v) in block.iter().enumerate() {
        if v.is_finite() {
            let dx = i as f64 - mean_x;
            cov += dx * (v as f64 - mean_y);
            var += dx * dx;
        }
    }
    let a = if var > 0.0 { cov / var } else { 0.0 };
    let b = mean_y - a * mean_x;
    let (a, b) = (a as f32, b as f32);
    if a.is_finite() && b.is_finite() {
        (a, b)
    } else {
        (0.0, 0.0)
    }
}

/// Simulates quantizing `chunk` with the given predictor (0 = Lorenzo with
/// true reconstruction feedback, starting at `last`; otherwise the supplied
/// regression line) and returns the estimated encoded bits: empirical code
/// entropy + escape payloads. This mirrors SZ 2.x, which picks the per-block
/// predictor by sampled encoding cost rather than a closed-form proxy.
fn simulate_block_cost(
    chunk: &[f32],
    reg: Option<(f32, f32)>,
    two_eb: f64,
    abs_eb: f64,
    radius: u32,
    last: f32,
) -> f64 {
    let mut counts: std::collections::HashMap<i64, u32> =
        std::collections::HashMap::with_capacity(chunk.len().min(64));
    let mut escapes = 0u32;
    let mut prev = last;
    for (i, &x) in chunk.iter().enumerate() {
        let pred = match reg {
            None => prev,
            Some((a, b)) => a * (i as f32) + b,
        };
        let mut escaped = true;
        if pred.is_finite() {
            let q = ((x as f64 - pred as f64) / two_eb).round();
            if q.is_finite() && q.abs() < f64::from(radius) {
                let qi = q as i64;
                let recon = (pred as f64 + two_eb * qi as f64) as f32;
                if recon.is_finite() && (recon as f64 - x as f64).abs() <= abs_eb {
                    *counts.entry(qi).or_insert(0) += 1;
                    prev = recon;
                    escaped = false;
                }
            }
        }
        if escaped {
            escapes += 1;
            prev = if x.is_finite() { x } else { 0.0 };
        }
    }
    let coded: u32 = counts.values().sum();
    let n = f64::from(coded.max(1));
    // Sum in sorted-key order: HashMap iteration order varies per
    // instance, and a different float summation order could flip a
    // near-tie predictor choice, breaking container byte-determinism.
    let mut sorted: Vec<(i64, u32)> = counts.into_iter().collect();
    sorted.sort_unstable_by_key(|&(k, _)| k);
    let entropy_bits: f64 = sorted
        .iter()
        .map(|&(_, c)| {
            let c = f64::from(c);
            c * (n / c).log2()
        })
        .sum();
    entropy_bits + f64::from(escapes) * 34.0
}

/// Resolved per-stream quantization parameters shared by every chunk.
#[derive(Clone, Copy)]
pub(crate) struct QuantParams {
    pub(crate) abs_eb: f64,
    pub(crate) two_eb: f64,
    pub(crate) radius: u32,
    pub(crate) block: usize,
}

impl SzConfig {
    /// Compresses `data`; see [`crate::compress`].
    pub fn compress(&self, data: &[f32], bound: ErrorBound) -> Result<Vec<u8>, SzError> {
        self.compress_with_stats(data, bound).map(|(b, _)| b)
    }

    /// Compresses `data` and also returns encoder statistics: the
    /// streaming encoder ([`SzConfig::compress_stream`]) writing into a
    /// `Vec` under an unbounded budget. Chunks compress in parallel with
    /// stream bytes independent of the worker count.
    pub fn compress_with_stats(
        &self,
        data: &[f32],
        bound: ErrorBound,
    ) -> Result<(Vec<u8>, CompressStats), SzError> {
        let mut out = Vec::new();
        let stats = self.compress_stream(data, bound, &ByteBudget::unbounded(), &mut out)?;
        Ok((out, stats))
    }

    /// Validates `bound` against `data` and resolves the per-stream
    /// quantization parameters.
    pub(crate) fn resolved_params(
        &self,
        data: &[f32],
        bound: ErrorBound,
    ) -> Result<QuantParams, SzError> {
        let abs_eb = bound.resolve(data);
        if !(abs_eb.is_finite() && abs_eb > 0.0) {
            return Err(SzError::BadErrorBound(abs_eb));
        }
        Ok(QuantParams {
            abs_eb,
            two_eb: 2.0 * abs_eb,
            radius: self.radius.max(2),
            // Clamped on both ends: ≥ 4 for the predictor, and small
            // enough that chunk rounding arithmetic can never overflow.
            block: self.block_size.clamp(4, 1 << 24),
        })
    }

    /// Resolves the effective chunk length: explicit `chunk_elems`, or the
    /// adaptive size for `0`.
    pub(crate) fn resolve_chunk_len(&self, n: usize, block: usize) -> usize {
        if self.chunk_elems == 0 {
            chunk_len(adaptive_chunk_elems(n), block)
        } else {
            chunk_len(self.chunk_elems, block)
        }
    }

    /// Serializes the v4 header fields that precede the chunk geometry.
    pub(crate) fn write_common_header(&self, out: &mut Vec<u8>, n: usize, q: QuantParams) {
        out.extend_from_slice(MAGIC);
        out.push(VERSION_V4);
        write_varint(out, n as u64);
        out.extend_from_slice(&q.abs_eb.to_le_bytes());
        out.push(self.predictor.id());
        write_varint(out, q.block as u64);
        write_varint(out, u64::from(q.radius));
    }

    /// Appends `[backend_id u8][len varint][bytes]`, keeping whichever of
    /// the raw/compressed payload is smaller (0xff = stored raw).
    pub(crate) fn append_backed_payload(&self, out: &mut Vec<u8>, payload: &[u8]) {
        let backed = self.backend.and_then(|kind| {
            let comp = kind.codec().compress(payload);
            (comp.len() < payload.len()).then(|| (kind.id(), comp))
        });
        match backed {
            Some((id, comp)) => {
                out.push(id);
                write_varint(out, comp.len() as u64);
                out.extend_from_slice(&comp);
            }
            None => {
                out.push(0xff);
                write_varint(out, payload.len() as u64);
                out.extend_from_slice(payload);
            }
        }
    }

    /// Quantizes one compression unit: per-block predictor selection plus
    /// error-bounded quantization, producing the code/verbatim/selector
    /// streams but no bytes yet. Predictor state starts fresh (`last = 0`),
    /// which is what makes units independent — and what lets the v4
    /// encoder pool the codes of all units into one histogram before any
    /// entropy coding happens.
    pub(crate) fn quantize_unit(&self, data: &[f32], q: QuantParams) -> QuantizedUnit {
        let n = data.len();
        let mut codes: Vec<u32> = Vec::with_capacity(n);
        let mut verbatim: Vec<f32> = Vec::new();
        let mut selectors: Vec<u8> = Vec::with_capacity(n / q.block + 1);
        let mut reg_params: Vec<(f32, f32)> = Vec::new();

        let mut last = 0f32; // last reconstructed value (decoder-synchronized)
        let mut start = 0usize;
        while start < n {
            let end = (start + q.block).min(n);
            let chunk = &data[start..end];
            let sel = match self.predictor {
                PredictorMode::LorenzoOnly => Sel::Lorenzo,
                PredictorMode::RegressionOnly => {
                    let (a, b) = fit_line(chunk);
                    Sel::Regression { a, b }
                }
                PredictorMode::Adaptive => {
                    let (a, b) = fit_line(chunk);
                    let cost_l =
                        simulate_block_cost(chunk, None, q.two_eb, q.abs_eb, q.radius, last);
                    let cost_r = simulate_block_cost(
                        chunk,
                        Some((a, b)),
                        q.two_eb,
                        q.abs_eb,
                        q.radius,
                        last,
                    );
                    // Regression pays 64 bits of parameters per block.
                    if cost_r + 64.0 < cost_l {
                        Sel::Regression { a, b }
                    } else {
                        Sel::Lorenzo
                    }
                }
            };
            match sel {
                Sel::Lorenzo => selectors.push(0),
                Sel::Regression { a, b } => {
                    selectors.push(1);
                    reg_params.push((a, b));
                }
            }
            for (i, &x) in chunk.iter().enumerate() {
                let pred = match sel {
                    Sel::Lorenzo => last,
                    Sel::Regression { a, b } => a * (i as f32) + b,
                };
                let mut escaped = true;
                if pred.is_finite() {
                    let diff = x as f64 - pred as f64;
                    let qv = (diff / q.two_eb).round();
                    if qv.is_finite() && qv.abs() < f64::from(q.radius) {
                        let qi = qv as i64;
                        let recon = (pred as f64 + q.two_eb * qi as f64) as f32;
                        if recon.is_finite() && (recon as f64 - x as f64).abs() <= q.abs_eb {
                            codes.push((qi + i64::from(q.radius)) as u32 + 1);
                            last = recon;
                            escaped = false;
                        }
                    }
                }
                if escaped {
                    codes.push(ESCAPE);
                    verbatim.push(x);
                    last = if x.is_finite() { x } else { 0.0 };
                }
            }
            start = end;
        }

        QuantizedUnit {
            codes,
            verbatim,
            selectors,
            reg_params,
        }
    }

    /// Serializes the selector RLE and regression parameters — the payload
    /// prefix.
    fn serialize_unit_prefix(&self, unit: &QuantizedUnit, payload: &mut Vec<u8>) {
        let sel_rle = rle::compress(&unit.selectors);
        write_varint(payload, sel_rle.len() as u64);
        payload.extend_from_slice(&sel_rle);
        write_varint(payload, unit.reg_params.len() as u64);
        for &(a, b) in &unit.reg_params {
            payload.extend_from_slice(&a.to_le_bytes());
            payload.extend_from_slice(&b.to_le_bytes());
        }
    }

    /// Serializes the verbatim-value stream — the payload suffix.
    fn serialize_unit_verbatim(&self, unit: &QuantizedUnit, payload: &mut Vec<u8>) {
        write_varint(payload, unit.verbatim.len() as u64);
        for &v in &unit.verbatim {
            payload.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// v4 unit payload: the entropy stage and code book live in the layer
    /// header, so the unit carries only the table-free bit payload (or raw
    /// varints), with the symbol count implied by the unit's element count.
    /// `enc` is `Some` exactly when the stage is Huffman.
    pub(crate) fn serialize_unit_shared(
        &self,
        unit: &QuantizedUnit,
        enc: Option<&HuffmanEncoder>,
    ) -> Vec<u8> {
        let mut payload = Vec::with_capacity(unit.codes.len() / 2 + 64);
        self.serialize_unit_prefix(unit, &mut payload);
        match enc {
            Some(enc) => huffman::encode_payload(enc, &unit.codes, &mut payload),
            None => {
                for &c in &unit.codes {
                    write_varint(&mut payload, u64::from(c));
                }
            }
        }
        self.serialize_unit_verbatim(unit, &mut payload);
        payload
    }
}

/// Serializes the v4 shared-table field: the raw code book competes
/// *all* lossless backends ([`best_fit`] — the table is written once per
/// layer, so unlike per-chunk payloads the three trial compressions are
/// affordable) and the compressed form is kept only when it beats the
/// raw bytes *including* its length framing — so small tables stay raw
/// behind the `0xff` flag. With the backend disabled (`backend: None`)
/// the table is always stored raw, keeping such streams backend-free
/// end to end.
pub(crate) fn write_backed_table(out: &mut Vec<u8>, code: &HuffmanCode, backend_enabled: bool) {
    let mut raw = Vec::new();
    code.serialize(&mut raw);
    if backend_enabled {
        let (kind, comp) = best_fit(&raw);
        let mut framed = Vec::with_capacity(comp.len() + 6);
        write_varint(&mut framed, comp.len() as u64);
        framed.extend_from_slice(&comp);
        if framed.len() < raw.len() {
            out.push(kind.id());
            out.extend_from_slice(&framed);
            return;
        }
    }
    out.push(0xff);
    out.extend_from_slice(&raw);
}

/// Decode-side cap on a backed shared table's decompressed size. A
/// serialized table costs ≤ 6 bytes per coded symbol, and the canonical
/// code's 24-bit length limit bounds real alphabets far below this —
/// 16 MiB covers every encodable table with orders-of-magnitude margin
/// while stopping a crafted stream from demanding gigabytes.
const MAX_TABLE_BYTES: usize = 1 << 24;

/// Parses the v4 shared-table field written by [`write_backed_table`].
fn read_backed_table(bytes: &[u8], pos: &mut usize) -> Result<HuffmanCode, SzError> {
    let flag = *bytes.get(*pos).ok_or(CodecError::Truncated)?;
    *pos += 1;
    match read_backend_id(flag)? {
        None => HuffmanCode::deserialize(bytes, pos).map_err(SzError::Codec),
        Some(kind) => {
            let len = read_varint(bytes, pos)? as usize;
            let end = pos.checked_add(len).ok_or(CodecError::Truncated)?;
            let comp = bytes.get(*pos..end).ok_or(CodecError::Truncated)?;
            *pos = end;
            // Reject an absurd declared size before the backend's decode
            // loop commits memory to it (the real length is still
            // verified during decompression).
            if kind.codec().declared_len(comp)? > MAX_TABLE_BYTES {
                return Err(SzError::Codec(CodecError::corrupt(
                    "backed huffman table too large",
                )));
            }
            let raw = kind.codec().decompress(comp)?;
            let mut table_pos = 0usize;
            let code = HuffmanCode::deserialize(&raw, &mut table_pos).map_err(SzError::Codec)?;
            if table_pos != raw.len() {
                return Err(SzError::Codec(CodecError::corrupt(
                    "trailing bytes after backed huffman table",
                )));
            }
            Ok(code)
        }
    }
}

/// One compression unit's quantized-but-not-yet-entropy-coded streams.
pub(crate) struct QuantizedUnit {
    /// Quantization codes, one per element ([`ESCAPE`] marks verbatim).
    pub(crate) codes: Vec<u32>,
    /// Values stored verbatim, in element order.
    pub(crate) verbatim: Vec<f32>,
    /// Per-block predictor selectors (0 = Lorenzo, 1 = regression).
    pub(crate) selectors: Vec<u8>,
    /// Regression (a, b) per selector-1 block, in block order.
    pub(crate) reg_params: Vec<(f32, f32)>,
}

impl QuantizedUnit {
    /// Heap bytes held by the unit's streams — what the streaming
    /// encoder's retention ledger charges to keep a quantized chunk alive
    /// between the two shared-table passes.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.codes.len() * 4
            + self.verbatim.len() * 4
            + self.selectors.len()
            + self.reg_params.len() * 8
    }
}

/// Bounds for the adaptive chunk size (elements).
const MIN_ADAPTIVE_CHUNK: usize = 1 << 14;
const MAX_ADAPTIVE_CHUNK: usize = 1 << 18;

/// Adaptive chunk size for a layer of `n` elements:
/// `clamp(n / 8, 16Ki, 256Ki)`. A pure function of the layer length, so
/// the same layer encodes to the same bytes on every host. Eight chunks
/// keep a 2–4-worker decode queue balanced even when chunk costs are
/// skewed; the floor stops small layers from paying per-chunk framing (an
/// 8Ki fc layer becomes a single chunk), and the ceiling keeps per-chunk
/// scratch cache-friendly on huge layers.
pub fn adaptive_chunk_elems(n: usize) -> usize {
    (n / 8).clamp(MIN_ADAPTIVE_CHUNK, MAX_ADAPTIVE_CHUNK)
}

/// Upper clamp on configured chunk sizes: keeps the rounding arithmetic in
/// [`chunk_len`] overflow-free for any `SzConfig::chunk_elems` value while
/// being far beyond any useful chunk (2^30 elements = 4 GiB of f32).
const MAX_CHUNK_ELEMS: usize = 1 << 30;

/// Effective chunk length: `chunk_elems` (clamped) rounded up to a whole
/// number of prediction blocks so selector blocks never straddle a chunk
/// boundary.
fn chunk_len(chunk_elems: usize, block: usize) -> usize {
    chunk_elems.clamp(block, MAX_CHUNK_ELEMS).div_ceil(block) * block
}

struct Header {
    version: u8,
    n: usize,
    abs_eb: f64,
    predictor: PredictorMode,
    block: usize,
    radius: u32,
    /// v1 only: whole-payload backend.
    backend: Option<LosslessKind>,
    /// v2+: elements per chunk (equals `n` for v1).
    chunk_elems: usize,
    /// v2+: chunk count (1 for non-empty v1 streams).
    n_chunks: usize,
    /// v3/v4 only: entropy stage shared by every chunk.
    entropy: EntropyStage,
    /// v3/v4 + Huffman only: the shared code book from the layer header.
    shared_code: Option<HuffmanCode>,
    payload_at: usize,
}

fn parse_header(bytes: &[u8]) -> Result<Header, SzError> {
    if bytes.len() < 5 || &bytes[..4] != MAGIC {
        return Err(SzError::Codec(CodecError::corrupt("bad SZ magic")));
    }
    let version = bytes[4];
    if !(VERSION_V1..=VERSION_V4).contains(&version) {
        return Err(SzError::Codec(CodecError::corrupt(
            "unsupported SZ version",
        )));
    }
    let mut pos = 5usize;
    let n = read_varint(bytes, &mut pos)? as usize;
    if n > bytes.len().saturating_mul(MAX_ELEMS_PER_BYTE) {
        return Err(SzError::Codec(CodecError::corrupt(
            "element count exceeds stream capacity",
        )));
    }
    let eb_bytes: [u8; 8] = bytes
        .get(pos..pos + 8)
        .ok_or(CodecError::Truncated)?
        .try_into()
        .map_err(|_| CodecError::Truncated)?;
    let abs_eb = f64::from_le_bytes(eb_bytes);
    pos += 8;
    let predictor = PredictorMode::from_id(*bytes.get(pos).ok_or(CodecError::Truncated)?)
        .map_err(SzError::Codec)?;
    pos += 1;
    let block = read_varint(bytes, &mut pos)? as usize;
    let radius = read_varint(bytes, &mut pos)? as u32;
    if block < 4 || !(abs_eb.is_finite() && abs_eb > 0.0) {
        return Err(SzError::Codec(CodecError::corrupt("bad SZ header fields")));
    }
    let mut entropy = EntropyStage::Huffman;
    let mut shared_code = None;
    let (backend, chunk_elems, n_chunks) = match version {
        VERSION_V1 => {
            let backend_id = *bytes.get(pos).ok_or(CodecError::Truncated)?;
            pos += 1;
            (read_backend_id(backend_id)?, n, usize::from(n > 0))
        }
        _ => {
            let chunk_elems = read_varint(bytes, &mut pos)? as usize;
            let n_chunks = read_varint(bytes, &mut pos)? as usize;
            if chunk_elems == 0 || !chunk_elems.is_multiple_of(block) {
                return Err(SzError::Codec(CodecError::corrupt("bad SZ chunk size")));
            }
            if n_chunks != n.div_ceil(chunk_elems) {
                return Err(SzError::Codec(CodecError::corrupt("bad SZ chunk count")));
            }
            if version >= VERSION_V3 {
                // The shared entropy stage and (for Huffman) the layer-wide
                // code book sit between the chunk geometry and the records;
                // v4 additionally backend-compresses the code book behind a
                // flag byte.
                entropy = EntropyStage::from_id(*bytes.get(pos).ok_or(CodecError::Truncated)?)
                    .map_err(SzError::Codec)?;
                pos += 1;
                if entropy == EntropyStage::Huffman {
                    shared_code = Some(if version == VERSION_V3 {
                        HuffmanCode::deserialize(bytes, &mut pos).map_err(SzError::Codec)?
                    } else {
                        read_backed_table(bytes, &mut pos)?
                    });
                }
            }
            // Every chunk record needs at least 2 bytes (backend id + len),
            // so a count beyond that bounds check is corrupt — checked
            // before any n_chunks-sized allocation happens.
            if n_chunks > bytes.len().saturating_sub(pos) / 2 {
                return Err(SzError::Codec(CodecError::corrupt(
                    "chunk count exceeds stream",
                )));
            }
            (None, chunk_elems, n_chunks)
        }
    };
    Ok(Header {
        version,
        n,
        abs_eb,
        predictor,
        block,
        radius,
        backend,
        chunk_elems,
        n_chunks,
        entropy,
        shared_code,
        payload_at: pos,
    })
}

/// Reads the stream header; see [`crate::info`].
pub fn info(bytes: &[u8]) -> Result<SzInfo, SzError> {
    let h = parse_header(bytes)?;
    let backend = match h.version {
        VERSION_V1 => h.backend,
        _ => {
            // Report the first chunk's backend decision, if any.
            if h.n_chunks > 0 {
                read_backend_id(*bytes.get(h.payload_at).ok_or(CodecError::Truncated)?)?
            } else {
                None
            }
        }
    };
    Ok(SzInfo {
        version: h.version,
        n: h.n,
        abs_eb: h.abs_eb,
        predictor: h.predictor,
        block_size: h.block,
        radius: h.radius,
        backend,
        chunk_elems: h.chunk_elems,
        chunks: h.n_chunks,
    })
}

/// Reusable per-thread decode scratch: backend payload, entropy codes, and
/// selector bytes all land in buffers that survive across chunks/streams.
#[derive(Default)]
struct Scratch {
    payload: Vec<u8>,
    codes: Vec<u32>,
    selectors: Vec<u8>,
}

/// Bytes of capacity a scratch buffer may keep between decodes. Default
/// chunks stay well under this (64 Ki codes = 256 KiB); only oversized
/// one-off units (e.g. a giant legacy v1 stream decoded on a long-lived
/// thread) get released, so the thread-local cannot pin a full layer's
/// worth of memory after decoding finishes.
const MAX_RETAINED_SCRATCH: usize = 4 << 20;

impl Scratch {
    /// Drops buffers that grew past the retention cap (they still hold the
    /// just-decoded unit's contents, so shrinking in place cannot release
    /// anything — every consumer clears them before reuse anyway).
    fn trim(&mut self) {
        if self.payload.capacity() > MAX_RETAINED_SCRATCH {
            self.payload = Vec::new();
        }
        if self.codes.capacity() > MAX_RETAINED_SCRATCH / 4 {
            self.codes = Vec::new();
        }
        if self.selectors.capacity() > MAX_RETAINED_SCRATCH {
            self.selectors = Vec::new();
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Decodes the one-byte backend field used by both stream versions
/// (0xff = stored raw, otherwise a [`LosslessKind`] id).
fn read_backend_id(byte: u8) -> Result<Option<LosslessKind>, SzError> {
    if byte == 0xff {
        Ok(None)
    } else {
        Ok(Some(LosslessKind::from_id(byte).map_err(SzError::Codec)?))
    }
}

/// Where a unit's entropy-coded quantization codes come from.
#[derive(Clone, Copy)]
enum UnitEntropy<'a> {
    /// v1/v2: an entropy-stage byte plus (for Huffman) the unit's own code
    /// book are embedded in each payload.
    Embedded,
    /// v3/v4 Huffman: the shared decoder built once from the layer header;
    /// the code count equals the unit's element count.
    Shared(&'a HuffmanDecoder),
    /// v3/v4 raw stage: bare varints, count equal to the unit's element
    /// count.
    SharedRaw,
}

/// Decompresses a stream; see [`crate::decompress`]. Dispatches on the
/// version byte: v1 decodes serially, v2/v3/v4 fan chunks out across
/// workers (v3/v4 additionally build their shared Huffman decoder exactly
/// once).
pub fn decompress(bytes: &[u8]) -> Result<Vec<f32>, SzError> {
    let mut out = Vec::new();
    decompress_into(bytes, &mut out)?;
    Ok(out)
}

/// [`decompress`] into a caller-owned buffer: `out` is resized (reusing
/// its capacity) to the stream's element count and filled. The scratch
/// entry point for loops decoding many streams — steady state allocates
/// only when the buffer grows. Output bytes equal the allocating twin's.
pub fn decompress_into(bytes: &[u8], out: &mut Vec<f32>) -> Result<(), SzError> {
    let h = parse_header(bytes)?;
    out.clear();
    out.resize(h.n, 0.0);
    match h.version {
        VERSION_V1 => decode_v1(bytes, &h, out),
        VERSION_V2 => decompress_chunked(bytes, &h, UnitEntropy::Embedded, out),
        _ => match h.entropy {
            EntropyStage::Huffman => {
                let Some(code) = h.shared_code.as_ref() else {
                    // parse_header always installs the table for v3/v4
                    // Huffman streams; defensive rather than unreachable.
                    return Err(SzError::Codec(CodecError::corrupt(
                        "v3/v4 huffman stream without a shared code book",
                    )));
                };
                let dec = code.decoder();
                decompress_chunked(bytes, &h, UnitEntropy::Shared(&dec), out)
            }
            EntropyStage::Raw => decompress_chunked(bytes, &h, UnitEntropy::SharedRaw, out),
        },
    }
}

/// Decodes one backend-wrapped unit into `out` using the calling thread's
/// scratch: the single decode path shared by v1 (whole stream) and v2/v3
/// (each chunk), so backend fallback and scratch handling cannot diverge.
fn decode_backed_unit(
    kind: Option<LosslessKind>,
    record: &[u8],
    block: usize,
    radius: u32,
    abs_eb: f64,
    entropy: UnitEntropy<'_>,
    out: &mut [f32],
) -> Result<(), SzError> {
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        let r = match kind {
            Some(k) => {
                // Declared-len gate (the PR 4 pattern, extended to every
                // backend): a legitimate unit payload for `out.len()`
                // elements is far under 32 bytes/element (codes ≤ 5-byte
                // varints, verbatim 4 bytes, selectors/params amortized),
                // so reject absurd declared lengths before the backend
                // decode commits memory or time to them.
                let declared = k.codec().declared_len(record)?;
                if declared > out.len().saturating_mul(32).saturating_add(1024) {
                    return Err(SzError::Codec(CodecError::corrupt(
                        "unit payload length exceeds element capacity",
                    )));
                }
                // Move the payload scratch out so the unit decoder can
                // borrow the scratch struct for its own buffers.
                let mut payload = std::mem::take(&mut scratch.payload);
                k.codec().decompress_into(record, &mut payload)?;
                let r = decode_unit_into(&payload, block, radius, abs_eb, entropy, out, scratch);
                scratch.payload = payload;
                r
            }
            None => decode_unit_into(record, block, radius, abs_eb, entropy, out, scratch),
        };
        scratch.trim();
        r
    })
}

fn decode_v1(bytes: &[u8], h: &Header, out: &mut [f32]) -> Result<(), SzError> {
    let raw_payload = &bytes[h.payload_at..];
    decode_backed_unit(
        h.backend,
        raw_payload,
        h.block,
        h.radius,
        h.abs_eb,
        UnitEntropy::Embedded,
        out,
    )
}

/// Chunk-parallel decode shared by v2 and v3; only the entropy source
/// differs between the two.
fn decompress_chunked(
    bytes: &[u8],
    h: &Header,
    entropy: UnitEntropy<'_>,
    out: &mut [f32],
) -> Result<(), SzError> {
    // Zero-copy chunk table: slice out every record before decoding.
    let mut pos = h.payload_at;
    let mut records: Vec<(Option<LosslessKind>, &[u8])> = Vec::with_capacity(h.n_chunks);
    let mut sizes: Vec<usize> = Vec::with_capacity(h.n_chunks);
    for c in 0..h.n_chunks {
        let id = *bytes.get(pos).ok_or(CodecError::Truncated)?;
        pos += 1;
        let kind = read_backend_id(id)?;
        let len = read_varint(bytes, &mut pos)? as usize;
        let end = pos.checked_add(len).ok_or(CodecError::Truncated)?;
        records.push((kind, bytes.get(pos..end).ok_or(CodecError::Truncated)?));
        pos = end;
        // `c * chunk_elems < n` is guaranteed by the header validation, but
        // `(c + 1) * chunk_elems` may overflow for near-usize::MAX `n`.
        let start = c * h.chunk_elems;
        let end_elem = start
            .checked_add(h.chunk_elems)
            .ok_or(CodecError::Truncated)?
            .min(h.n);
        sizes.push(end_elem - start);
    }
    let (block, radius, abs_eb) = (h.block, h.radius, h.abs_eb);
    parallel_chunks(out, &sizes, |ci, slice| {
        let (kind, record) = records[ci];
        decode_backed_unit(kind, record, block, radius, abs_eb, entropy, slice)
    })
}

/// Bounds-checked little-endian `f32` read at byte offset `off`.
#[inline]
fn read_f32_le(bytes: &[u8], off: usize) -> Result<f32, SzError> {
    let b: [u8; 4] = bytes
        .get(off..off.checked_add(4).ok_or(CodecError::Truncated)?)
        .ok_or(CodecError::Truncated)?
        .try_into()
        .map_err(|_| CodecError::Truncated)?;
    Ok(f32::from_le_bytes(b))
}

/// Decodes one compression unit's payload into `out` (whose length is the
/// unit's element count). Scratch buffers hold the intermediate selector
/// and code streams; verbatim values are read straight from the payload.
fn decode_unit_into(
    payload: &[u8],
    block: usize,
    radius: u32,
    abs_eb: f64,
    entropy: UnitEntropy<'_>,
    out: &mut [f32],
    scratch: &mut Scratch,
) -> Result<(), SzError> {
    let n = out.len();
    let mut pos = 0usize;
    let sel_len = read_varint(payload, &mut pos)? as usize;
    let sel_end = pos.checked_add(sel_len).ok_or(CodecError::Truncated)?;
    // The selector count is fixed by the unit's element count, so cap the
    // RLE decode at it — a hostile declared length errors before any
    // memory is committed (the exact-count check below still applies).
    rle::decompress_into_capped(
        payload.get(pos..sel_end).ok_or(CodecError::Truncated)?,
        &mut scratch.selectors,
        n.div_ceil(block),
    )?;
    pos = sel_end;
    let n_reg = read_varint(payload, &mut pos)? as usize;
    if n_reg > scratch.selectors.len() {
        return Err(SzError::Codec(CodecError::corrupt(
            "regression param overflow",
        )));
    }
    let reg_end = pos
        .checked_add(n_reg.checked_mul(8).ok_or(CodecError::Truncated)?)
        .ok_or(CodecError::Truncated)?;
    let reg_bytes = payload.get(pos..reg_end).ok_or(CodecError::Truncated)?;
    pos = reg_end;
    match entropy {
        UnitEntropy::Embedded => {
            let entropy_id = *payload.get(pos).ok_or(CodecError::Truncated)?;
            pos += 1;
            match EntropyStage::from_id(entropy_id).map_err(SzError::Codec)? {
                EntropyStage::Huffman => {
                    huffman::decode_stream_into(payload, &mut pos, &mut scratch.codes)?
                }
                EntropyStage::Raw => {
                    let m = read_varint(payload, &mut pos)? as usize;
                    if m > n {
                        return Err(SzError::Codec(CodecError::corrupt("code count mismatch")));
                    }
                    scratch.codes.clear();
                    scratch.codes.reserve(m);
                    for _ in 0..m {
                        scratch.codes.push(read_varint(payload, &mut pos)? as u32);
                    }
                }
            }
        }
        UnitEntropy::Shared(dec) => {
            huffman::decode_payload_into(dec, payload, &mut pos, n, &mut scratch.codes)?
        }
        UnitEntropy::SharedRaw => {
            scratch.codes.clear();
            scratch.codes.reserve(n);
            for _ in 0..n {
                scratch.codes.push(read_varint(payload, &mut pos)? as u32);
            }
        }
    };
    if scratch.codes.len() != n {
        return Err(SzError::Codec(CodecError::corrupt("code count mismatch")));
    }
    let n_verb = read_varint(payload, &mut pos)? as usize;
    let verb_end = pos
        .checked_add(n_verb.checked_mul(4).ok_or(CodecError::Truncated)?)
        .ok_or(CodecError::Truncated)?;
    let verb_bytes = payload.get(pos..verb_end).ok_or(CodecError::Truncated)?;

    let expected_blocks = n.div_ceil(block);
    if scratch.selectors.len() != expected_blocks {
        return Err(SzError::Codec(CodecError::corrupt(
            "selector count mismatch",
        )));
    }

    let two_eb = 2.0 * abs_eb;
    let mut last = 0f32;
    let mut vi = 0usize;
    let mut ri = 0usize;
    for (bi, &sel) in scratch.selectors.iter().enumerate() {
        let start = bi * block;
        let end = (start + block).min(n);
        let reg = match sel {
            0 => None,
            1 => {
                if ri >= n_reg {
                    return Err(SzError::Codec(CodecError::Truncated));
                }
                let a = read_f32_le(reg_bytes, ri * 8)?;
                let b = read_f32_le(reg_bytes, ri * 8 + 4)?;
                ri += 1;
                Some((a, b))
            }
            _ => return Err(SzError::Codec(CodecError::corrupt("bad selector"))),
        };
        for i in 0..end - start {
            let pred = match reg {
                None => last,
                Some((a, b)) => a * (i as f32) + b,
            };
            let code = scratch.codes[start + i];
            let value = if code == ESCAPE {
                if vi >= n_verb {
                    return Err(SzError::Codec(CodecError::Truncated));
                }
                let x = read_f32_le(verb_bytes, vi * 4)?;
                vi += 1;
                last = if x.is_finite() { x } else { 0.0 };
                x
            } else {
                let qi = i64::from(code) - 1 - i64::from(radius);
                let recon = (pred as f64 + two_eb * qi as f64) as f32;
                last = recon;
                recon
            };
            out[start + i] = value;
        }
    }
    Ok(())
}
