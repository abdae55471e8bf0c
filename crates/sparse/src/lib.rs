//! Sparse weight-matrix formats used by the DeepSZ pipeline.
//!
//! After magnitude pruning an fc-layer becomes sparse. The paper (§3.2)
//! stores it in *two* 1-D arrays instead of classic three-array CSR:
//!
//! * a `data` array of f32 nonzero weights, and
//! * an `index` array of 8-bit gaps between consecutive nonzeros; when a gap
//!   is too large for 8 bits, a padding pair (index `255`, data `0.0`) is
//!   inserted, so every stored entry costs exactly 40 bits.
//!
//! The `data` array is what SZ compresses lossily; the `index` array is what
//! the lossless codec compresses. A decoded layer is multiplied as classic
//! three-array [`Csr`] ([`PairArray::to_csr_with`] builds it straight from
//! the gap stream); [`PairArray::to_dense`] rebuilds the dense matrix for
//! the paths that install weights into a network.

// Reconstruction runs on container-supplied (untrusted) dims and streams:
// failures must surface as `SparseError`, never a panic
// (`docs/ROBUSTNESS.md`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use dsz_tensor::parallel::{parallel_map, worker_count};
pub use dsz_tensor::Csr;
use std::fmt;

/// Gap value reserved as the "advance 255 positions, no weight" marker.
pub const PAD_MARKER: u8 = 255;
/// Bits per stored entry in the two-array format (8 index + 32 data).
pub const BITS_PER_ENTRY: usize = 40;

/// Entry count below which [`PairArray::to_dense`] stays serial: the gap
/// walk is one add + one store per entry, so even pooled dispatch (an
/// enqueue + condvar wakeup per call since PR 3) only pays for itself on
/// decode-path-sized layers.
const MIN_PARALLEL_ENTRIES: usize = 1 << 15;

/// Walks a gap-stream segment from running cursor `start`, invoking
/// `write(position, value)` for every real (non-padding) entry. Positions
/// are bounds-checked against `len` exactly like the serial
/// reconstruction always did; padding markers advance the cursor without
/// writing (even past `len`, which is legal for trailing pads).
#[inline]
fn walk_entries(
    index: &[u8],
    data: &[f32],
    start: i64,
    len: usize,
    mut write: impl FnMut(usize, f32),
) -> Result<(), SparseError> {
    let mut pos = start;
    for (&g, &v) in index.iter().zip(data) {
        if g == PAD_MARKER {
            pos += i64::from(PAD_MARKER);
            continue;
        }
        pos += i64::from(g);
        let p = usize::try_from(pos).map_err(|_| SparseError::PositionOverflow)?;
        if p >= len {
            return Err(SparseError::PositionOverflow);
        }
        write(p, v);
    }
    Ok(())
}

/// Shared pointer to the dense output buffer. Safety: the segmented walk
/// in [`PairArray::to_dense`] gives every segment a disjoint span of
/// positions, so each slot has at most one writer, and the scope join in
/// `parallel_map` publishes the writes before the buffer is read.
struct DenseOut(*mut f32);

unsafe impl Sync for DenseOut {}

/// Errors from sparse-format operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// data/index arrays have different lengths.
    LengthMismatch,
    /// Decoded position falls outside `rows × cols`.
    PositionOverflow,
    /// `rows × cols` overflows `usize`, or (for [`PairArray::to_csr_with`])
    /// the rows, columns or entries exceed the CSR form's `u32` range —
    /// only reachable from corrupt container dims, never from a matrix
    /// that fit in memory.
    DimsOverflow,
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::LengthMismatch => write!(f, "data and index arrays differ in length"),
            SparseError::PositionOverflow => write!(f, "sparse entry beyond matrix bounds"),
            SparseError::DimsOverflow => write!(f, "rows x cols overflows"),
        }
    }
}

impl std::error::Error for SparseError {}

/// The paper's two-array sparse format (§3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct PairArray {
    /// Matrix rows (output neurons).
    pub rows: usize,
    /// Matrix columns (input neurons).
    pub cols: usize,
    /// Stored weights, including `0.0` entries for padding markers.
    pub data: Vec<f32>,
    /// 8-bit gaps; [`PAD_MARKER`] advances the cursor without a weight.
    pub index: Vec<u8>,
}

impl PairArray {
    /// Encodes the nonzero entries of a dense row-major `rows × cols` matrix.
    pub fn from_dense(weights: &[f32], rows: usize, cols: usize) -> Self {
        assert_eq!(weights.len(), rows * cols, "dense shape mismatch");
        let mut data = Vec::new();
        let mut index = Vec::new();
        let mut prev: i64 = -1;
        for (p, &w) in weights.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let mut gap = p as i64 - prev;
            while gap >= i64::from(PAD_MARKER) {
                index.push(PAD_MARKER);
                data.push(0.0);
                gap -= i64::from(PAD_MARKER);
            }
            index.push(gap as u8);
            data.push(w);
            prev = p as i64;
        }
        Self {
            rows,
            cols,
            data,
            index,
        }
    }

    /// Reconstructs the dense row-major matrix.
    ///
    /// The index array is a gap stream, so entry positions are a prefix
    /// sum; large layers reconstruct in parallel by splitting the entry
    /// list into segments, prefix-scanning each segment's total gap
    /// advance (cheap: one add per entry), and then filling every
    /// segment's disjoint span of the output concurrently. Small layers
    /// and single-worker budgets take the serial path; both paths produce
    /// identical output (and the same error on corrupt streams).
    pub fn to_dense(&self) -> Result<Vec<f32>, SparseError> {
        let mut out = Vec::new();
        self.to_dense_into(&mut out)?;
        Ok(out)
    }

    /// [`PairArray::to_dense`] into a caller-owned buffer: `out` is
    /// resized (reusing capacity) to `rows × cols`, zeroed, and filled.
    /// The scratch-arena entry point for loops that reconstruct many
    /// candidates — steady state allocates only when the buffer grows.
    /// Output bytes are identical to the allocating twin's.
    pub fn to_dense_into(&self, out: &mut Vec<f32>) -> Result<(), SparseError> {
        self.to_dense_with(&self.data, out)
    }

    /// Like [`PairArray::to_dense_into`] but reconstructing from a
    /// *replacement* data array (e.g. freshly decompressed values) without
    /// materializing a new `PairArray`. Equivalent to
    /// `self.with_data(data.to_vec())?.to_dense()` — values at padding
    /// positions are ignored either way, because the gap walk never writes
    /// a padding entry — minus both allocations.
    pub fn to_dense_with(&self, data: &[f32], out: &mut Vec<f32>) -> Result<(), SparseError> {
        if data.len() != self.index.len() {
            return Err(SparseError::LengthMismatch);
        }
        let elems = self
            .rows
            .checked_mul(self.cols)
            .ok_or(SparseError::DimsOverflow)?;
        out.clear();
        out.resize(elems, 0.0);
        let workers = worker_count();
        if workers <= 1 || self.index.len() < MIN_PARALLEL_ENTRIES {
            self.fill_dense_serial(data, out)?;
        } else {
            self.fill_dense_parallel(data, out, workers)?;
        }
        Ok(())
    }

    /// The layer in [`Csr`] form, built from its gap stream and data
    /// (see [`PairArray::to_csr_with`]).
    pub fn to_csr(&self) -> Result<Csr, SparseError> {
        let mut out = Csr::default();
        self.to_csr_with(&self.data, &mut out)?;
        Ok(out)
    }

    /// The sparse twin of [`PairArray::to_dense_with`]: builds the layer
    /// as [`Csr`] into `out` (reusing its capacity) from this gap stream
    /// and a replacement data array, without a dense matrix in between.
    ///
    /// It walks the same entries as the dense reconstruction, so
    /// `out.to_dense()` equals `to_dense_with`'s output bit for bit and
    /// every error is the same one — except that rows, columns or entries
    /// beyond the `u32` range, which no layer held in memory reaches, are
    /// a [`SparseError::DimsOverflow`] here. Every real entry is stored, zero
    /// values included; padding markers store nothing; a gap-0 entry
    /// right after a real entry overwrites that entry's value, as the
    /// dense write does.
    pub fn to_csr_with(&self, data: &[f32], out: &mut Csr) -> Result<(), SparseError> {
        if data.len() != self.index.len() {
            return Err(SparseError::LengthMismatch);
        }
        let len = self
            .rows
            .checked_mul(self.cols)
            .ok_or(SparseError::DimsOverflow)?;
        // Row pointers and columns are u32; checking the row count too
        // keeps `rows + 1` below from overflowing on hostile dims.
        let fits = |n: usize| u32::try_from(n).is_ok();
        if !(fits(self.rows) && fits(self.cols) && fits(self.index.len())) {
            return Err(SparseError::DimsOverflow);
        }
        let cols = self.cols;
        out.rows = self.rows;
        out.cols = cols;
        out.values.clear();
        out.col_idx.clear();
        out.row_ptr.clear();
        out.values.reserve(self.index.len());
        out.col_idx.reserve(self.index.len());
        out.row_ptr.reserve(self.rows + 1);
        out.row_ptr.push(0);
        // Positions never decrease along the walk, so a repeated position
        // can only be the entry stored last.
        let mut last = None;
        walk_entries(&self.index, data, -1, len, |p, v| {
            if last == Some(p) {
                if let Some(slot) = out.values.last_mut() {
                    *slot = v;
                }
                return;
            }
            last = Some(p);
            // Both casts fit: checked against u32 above.
            let stored = out.values.len() as u32;
            while out.row_ptr.len() <= p / cols {
                out.row_ptr.push(stored);
            }
            out.values.push(v);
            out.col_idx.push((p % cols) as u32);
        })?;
        let stored = out.values.len() as u32;
        out.row_ptr.resize(self.rows + 1, stored);
        Ok(())
    }

    /// Serial gap walk (the reference implementation).
    fn fill_dense_serial(&self, data: &[f32], out: &mut [f32]) -> Result<(), SparseError> {
        let len = out.len();
        walk_entries(&self.index, data, -1, len, |p, v| out[p] = v)
    }

    /// Segmented parallel reconstruction; see [`PairArray::to_dense`].
    fn fill_dense_parallel(
        &self,
        data: &[f32],
        out: &mut [f32],
        workers: usize,
    ) -> Result<(), SparseError> {
        let entries = self.index.len();
        // Segment boundaries, adjusted so no segment starts with a gap-0
        // entry: a gap-0 entry re-writes the running cursor's position
        // (legal directly after a padding marker, and reachable after a
        // real entry in corrupt streams), and keeping it in its
        // predecessor's segment is what makes the written position ranges
        // strictly disjoint across segments.
        let per_seg = entries.div_ceil(workers * 4).max(MIN_PARALLEL_ENTRIES / 4);
        let mut bounds: Vec<usize> = vec![0];
        let mut s = per_seg;
        while s < entries {
            while s < entries && self.index[s] == 0 {
                s += 1;
            }
            if s >= entries {
                break;
            }
            bounds.push(s);
            s += per_seg;
        }
        bounds.push(entries);
        let segs: Vec<(usize, usize)> = bounds.windows(2).map(|w| (w[0], w[1])).collect();

        // Pass 1 (parallel): each segment's total position advance. A
        // padding marker advances exactly its own gap value (255), so the
        // advance is simply the sum of gap bytes.
        let advances: Vec<i64> = parallel_map(&segs, |&(lo, hi)| {
            self.index[lo..hi].iter().map(|&g| i64::from(g)).sum()
        });

        // Serial prefix over the few segment sums → the running cursor
        // each segment's walk starts from (what the serial walk would
        // hold when reaching that entry).
        let mut jobs: Vec<(usize, usize, i64)> = Vec::with_capacity(segs.len());
        let mut cursor: i64 = -1;
        for (&(lo, hi), &adv) in segs.iter().zip(&advances) {
            jobs.push((lo, hi, cursor));
            cursor += adv;
        }

        // Pass 2 (parallel): walk each segment, writing into its disjoint
        // position span of the output.
        let len = out.len();
        let shared = DenseOut(out.as_mut_ptr());
        let results: Vec<Result<(), SparseError>> = parallel_map(&jobs, |&(lo, hi, start)| {
            let shared = &shared;
            walk_entries(&self.index[lo..hi], &data[lo..hi], start, len, |p, v| {
                // SAFETY: positions are non-decreasing along the gap
                // stream and every segment starts with a nonzero advance
                // (boundary rule above), so this segment's writes all land
                // strictly after the previous segment's last write — each
                // slot has at most one writing thread, `p < len` is
                // checked by the walk, and the scope join inside
                // `parallel_map` publishes the writes.
                unsafe { *shared.0.add(p) = v };
            })
        });
        results.into_iter().collect()
    }

    /// Number of stored entries (real weights + padding pairs).
    pub fn stored_entries(&self) -> usize {
        self.data.len()
    }

    /// Number of real (non-padding) weights.
    pub fn nnz(&self) -> usize {
        self.index.iter().filter(|&&g| g != PAD_MARKER).count()
    }

    /// Storage footprint of this format: 40 bits per stored entry.
    pub fn size_bytes(&self) -> usize {
        self.stored_entries() * BITS_PER_ENTRY / 8
    }

    /// Size of the dense f32 matrix this came from.
    pub fn dense_bytes(&self) -> usize {
        self.rows * self.cols * 4
    }

    /// Replaces the data array (e.g. with SZ-decompressed values), keeping
    /// the index structure. Padding entries' values are irrelevant on decode
    /// but are normalized back to `0.0` for cleanliness.
    pub fn with_data(&self, mut new_data: Vec<f32>) -> Result<Self, SparseError> {
        if new_data.len() != self.index.len() {
            return Err(SparseError::LengthMismatch);
        }
        for (v, &g) in new_data.iter_mut().zip(&self.index) {
            if g == PAD_MARKER {
                *v = 0.0;
            }
        }
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data: new_data,
            index: self.index.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sparse(rows: usize, cols: usize, density: f64, seed: u64) -> Vec<f32> {
        let mut s = seed;
        (0..rows * cols)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let u = (s >> 11) as f64 / (1u64 << 53) as f64;
                if u < density {
                    ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
                } else {
                    0.0
                }
            })
            .collect()
    }

    #[test]
    fn pair_roundtrip_typical_density() {
        let dense = sample_sparse(64, 100, 0.1, 3);
        let pa = PairArray::from_dense(&dense, 64, 100);
        assert_eq!(pa.to_dense().unwrap(), dense);
        assert_eq!(pa.nnz(), dense.iter().filter(|&&w| w != 0.0).count());
    }

    #[test]
    fn pair_roundtrip_long_gaps_need_padding() {
        let mut dense = vec![0f32; 4000];
        dense[0] = 1.0;
        dense[300] = 2.0; // gap 300 > 255 → one padding pair
        dense[3999] = 3.0;
        let pa = PairArray::from_dense(&dense, 40, 100);
        assert!(pa.index.contains(&PAD_MARKER));
        assert!(pa.stored_entries() > pa.nnz());
        assert_eq!(pa.to_dense().unwrap(), dense);
    }

    #[test]
    fn pair_roundtrip_gap_boundaries() {
        // Exercise gaps of exactly 254, 255, 256, 510, 511.
        for gap in [254usize, 255, 256, 510, 511] {
            let mut dense = vec![0f32; gap + 2];
            dense[0] = 1.0;
            dense[gap + 1] = 2.0;
            let pa = PairArray::from_dense(&dense, 1, gap + 2);
            assert_eq!(pa.to_dense().unwrap(), dense, "gap {gap}");
        }
    }

    #[test]
    fn pair_first_element_and_leading_gap() {
        let mut dense = vec![0f32; 1000];
        dense[999] = 5.0; // all leading positions empty
        let pa = PairArray::from_dense(&dense, 10, 100);
        assert_eq!(pa.to_dense().unwrap(), dense);
        let mut dense2 = vec![0f32; 10];
        dense2[0] = 1.0;
        let pa2 = PairArray::from_dense(&dense2, 2, 5);
        assert_eq!(pa2.index[0], 1); // gap from virtual position −1
        assert_eq!(pa2.to_dense().unwrap(), dense2);
    }

    #[test]
    fn empty_matrix() {
        let dense = vec![0f32; 100];
        let pa = PairArray::from_dense(&dense, 10, 10);
        assert_eq!(pa.stored_entries(), 0);
        assert_eq!(pa.size_bytes(), 0);
        assert_eq!(pa.to_dense().unwrap(), dense);
    }

    #[test]
    fn fully_dense_matrix() {
        let dense: Vec<f32> = (1..=100).map(|i| i as f32).collect();
        let pa = PairArray::from_dense(&dense, 10, 10);
        assert_eq!(pa.nnz(), 100);
        assert_eq!(pa.stored_entries(), 100); // every gap is 1
        assert_eq!(pa.to_dense().unwrap(), dense);
    }

    #[test]
    fn forty_bits_per_entry_accounting() {
        let dense = sample_sparse(100, 100, 0.08, 7);
        let pa = PairArray::from_dense(&dense, 100, 100);
        assert_eq!(pa.size_bytes(), pa.stored_entries() * 5);
        // Pruned storage beats dense storage at 8% density.
        assert!(pa.size_bytes() < pa.dense_bytes() / 5);
    }

    #[test]
    fn with_data_preserves_structure() {
        let dense = sample_sparse(50, 80, 0.1, 11);
        let pa = PairArray::from_dense(&dense, 50, 80);
        let perturbed: Vec<f32> = pa.data.iter().map(|v| v + 0.001).collect();
        let pb = pa.with_data(perturbed).unwrap();
        let back = pb.to_dense().unwrap();
        for (i, (&a, &b)) in dense.iter().zip(&back).enumerate() {
            if a != 0.0 {
                assert!((a - b).abs() < 0.0011, "entry {i}");
            } else {
                assert_eq!(b, 0.0, "zero entry {i} must stay zero");
            }
        }
        assert!(pa.with_data(vec![0.0; pa.data.len() + 1]).is_err());
    }

    #[test]
    fn csr_roundtrip_and_sizes() {
        let dense = sample_sparse(64, 128, 0.09, 5);
        let csr = Csr::from_dense(&dense, 64, 128);
        assert_eq!(csr.to_dense(), dense);
        let pa = PairArray::from_dense(&dense, 64, 128);
        // Two-array format (5 B/entry) beats classic CSR (8 B/nnz + rows).
        assert!(pa.size_bytes() < csr.size_bytes());
    }

    #[test]
    fn pair_matvec_matches_dense() {
        // y = W·x straight off the pair arrays: CSR built from the gap
        // stream, multiplied by the sparse kernel.
        let dense = sample_sparse(32, 48, 0.15, 13);
        let pa = PairArray::from_dense(&dense, 32, 48);
        let x: Vec<f32> = (0..48).map(|i| (i as f32 * 0.1).sin()).collect();
        let mut y = Vec::new();
        dsz_tensor::matmul_transb_csr(&x, 1, 48, &pa.to_csr().unwrap(), &mut y);
        for r in 0..32 {
            let want: f32 = (0..48).map(|c| dense[r * 48 + c] * x[c]).sum();
            assert!((y[r] - want).abs() < 1e-4, "row {r}: {} vs {}", y[r], want);
        }
    }

    #[test]
    fn corrupt_pair_array_errors() {
        let pa = PairArray {
            rows: 2,
            cols: 2,
            data: vec![1.0, 2.0, 3.0],
            index: vec![1, 1, 3], // walks past 2×2
        };
        assert_eq!(pa.to_dense(), Err(SparseError::PositionOverflow));
        let bad = PairArray {
            rows: 2,
            cols: 2,
            data: vec![1.0],
            index: vec![],
        };
        assert_eq!(bad.to_dense(), Err(SparseError::LengthMismatch));
    }
}
