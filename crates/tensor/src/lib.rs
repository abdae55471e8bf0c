//! Minimal dense-tensor compute substrate for the DNN layers.
//!
//! The paper runs on Caffe + cuDNN; the framework itself only needs forward
//! passes (and SGD retraining for the pruning step), so this crate provides
//! exactly that foundation: a row-major [`Matrix`], cache-blocked matrix
//! multiplication parallelized over the persistent worker pool, the
//! [`Csr`] form and kernel that multiply a pruned layer straight off its
//! nonzeros, and the im2col transform used to lower convolutions to
//! matmul.
//!
//! Execution model: the [`parallel`] helpers enqueue work onto the
//! lazily-initialized long-lived pool in [`pool`] (the caller always
//! participates, so nothing ever waits on pool availability); worker
//! budgets nest by division so parallelism composes without multiplying
//! threads. `docs/PARALLEL.md` documents the model end to end.

pub mod budget;
pub mod parallel;
pub mod pool;

use parallel::parallel_for_rows;

/// Row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage, `rows * cols` long.
    pub data: Vec<f32>,
}

impl Matrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wraps existing storage (must be `rows * cols` long).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        Self { rows, cols, data }
    }

    /// Immutable row slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor (debug-checked).
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }
}

/// Tile width along `k` for the blocked kernels; sized so that a tile of B
/// rows stays in L1/L2.
const K_BLOCK: usize = 256;

/// `C = A·B` where A is `m×k`, B is `k×n`. Parallel over rows of A.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols, b.rows, "matmul inner dimension mismatch");
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let mut c = Matrix::zeros(m, n);
    let bdata = &b.data;
    let adata = &a.data;
    parallel_for_rows(m, &mut c.data, n, |r0, rows_chunk| {
        // i-k-j order with k blocking: streams rows of B through cache.
        for (ri, crow) in rows_chunk.chunks_exact_mut(n).enumerate() {
            let r = r0 + ri;
            let arow = &adata[r * k..(r + 1) * k];
            let mut k0 = 0;
            while k0 < k {
                let k1 = (k0 + K_BLOCK).min(k);
                for kk in k0..k1 {
                    let av = arow[kk];
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &bdata[kk * n..kk * n + n];
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += av * bv;
                    }
                }
                k0 = k1;
            }
        }
    });
    c
}

/// `C = A·Bᵀ` where A is `m×k`, B is `n×k` (dense-layer forward with
/// weight rows as output neurons).
pub fn matmul_transb(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols, b.cols, "matmul_transb inner dimension mismatch");
    let mut c = Vec::new();
    matmul_transb_into(&a.data, a.rows, a.cols, b, &mut c);
    Matrix::from_vec(a.rows, b.rows, c)
}

/// `C = A·Bᵀ` into a caller-owned buffer: `a` is an `m×k` row-major slice,
/// `b` is `n×k`, and `out` is resized to `m·n` (reusing its capacity).
/// This is the allocation-free kernel behind [`matmul_transb`], for
/// callers that reuse one output buffer across calls. Both entry points
/// share one loop, so their outputs are bit-identical.
pub fn matmul_transb_into(a: &[f32], m: usize, k: usize, b: &Matrix, out: &mut Vec<f32>) {
    assert_eq!(b.cols, k, "matmul_transb_into inner dimension mismatch");
    matmul_transb_raw(a, m, k, &b.data, b.rows, out);
}

/// `C = A·Bᵀ` with both operands as raw row-major slices: `a` is `m×k`,
/// `bdata` is `n×k`, and `out` is resized to `m·n`. This is the innermost
/// kernel behind [`matmul_transb`] and [`matmul_transb_into`], and the
/// dense arm of [`WeightView::matmul_transb`], through which every dense
/// layer's forward runs. All entry points share this one loop, so outputs
/// are bit-identical across them — and each output element is one
/// sequential dot product, so results are also bit-identical across batch
/// widths and worker counts (rows split across workers; the per-row loop
/// never does). [`matmul_transb_csr`] reproduces these bits from the
/// nonzeros alone for every finite `a`.
pub fn matmul_transb_raw(
    a: &[f32],
    m: usize,
    k: usize,
    bdata: &[f32],
    n: usize,
    out: &mut Vec<f32>,
) {
    assert_eq!(a.len(), m * k, "matmul_transb lhs shape mismatch");
    assert_eq!(bdata.len(), n * k, "matmul_transb rhs shape mismatch");
    out.clear();
    out.resize(m * n, 0.0);
    parallel_for_rows(m, out, n, |r0, rows_chunk| {
        for (ri, crow) in rows_chunk.chunks_exact_mut(n).enumerate() {
            let r = r0 + ri;
            let arow = &a[r * k..(r + 1) * k];
            for (j, cv) in crow.iter_mut().enumerate() {
                let brow = &bdata[j * k..(j + 1) * k];
                let mut acc = 0f32;
                for (x, y) in arow.iter().zip(brow) {
                    acc += x * y;
                }
                *cv = acc;
            }
        }
    });
}

/// Compressed-sparse-row matrix: the nonzeros of a pruned weight matrix
/// with a `u32` column per value and a row pointer per row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Csr {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Nonzero values, row-major order.
    pub values: Vec<f32>,
    /// Column index per value, ascending within each row.
    pub col_idx: Vec<u32>,
    /// `row_ptr[r]..row_ptr[r+1]` spans row `r`'s values.
    pub row_ptr: Vec<u32>,
}

impl Csr {
    /// Builds CSR from a dense row-major matrix, keeping every entry that
    /// is not `±0.0`.
    pub fn from_dense(weights: &[f32], rows: usize, cols: usize) -> Self {
        assert_eq!(weights.len(), rows * cols, "dense shape mismatch");
        let mut values = Vec::new();
        let mut col_idx = Vec::new();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0u32);
        for r in 0..rows {
            for c in 0..cols {
                let w = weights[r * cols + c];
                if w != 0.0 {
                    values.push(w);
                    col_idx.push(c as u32);
                }
            }
            row_ptr.push(values.len() as u32);
        }
        Self {
            rows,
            cols,
            values,
            col_idx,
            row_ptr,
        }
    }

    /// Reconstructs the dense matrix.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0f32; self.rows * self.cols];
        for r in 0..self.rows {
            let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            for k in lo..hi {
                out[r * self.cols + self.col_idx[k] as usize] = self.values[k];
            }
        }
        out
    }

    /// Whether the arrays form a valid `rows × cols` CSR matrix: one row
    /// pointer per row plus one, starting at 0, never decreasing and
    /// ending at the value count, and strictly ascending in-range columns
    /// within each row — everything [`matmul_transb_csr`] relies on.
    pub fn is_well_formed(&self) -> bool {
        self.row_ptr.len() == self.rows + 1
            && self.row_ptr.first() == Some(&0)
            && self.row_ptr.last().map(|&e| e as usize) == Some(self.values.len())
            && self.col_idx.len() == self.values.len()
            && self.row_ptr.windows(2).all(|w| {
                w[0] <= w[1]
                    && self.col_idx[w[0] as usize..w[1] as usize]
                        .windows(2)
                        .all(|c| c[0] < c[1])
                    && self.col_idx[w[0] as usize..w[1] as usize]
                        .last()
                        .is_none_or(|&c| (c as usize) < self.cols)
            })
    }

    /// Number of stored values.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Storage footprint (4 B value + 4 B column + row pointers) — the
    /// bytes a resident sparse layer holds.
    pub fn size_bytes(&self) -> usize {
        self.values.len() * 4 + self.col_idx.len() * 4 + self.row_ptr.len() * 4
    }
}

/// `C = A·Wᵀ` with `W` in CSR form: `a` is `m×k` row-major, `w` is `n×k`,
/// and `out` is resized to `m·n`.
///
/// Each output adds its row's stored values in column order, starting
/// from `+0.0`, four batch rows at a time (rows split across workers as
/// in [`matmul_transb_raw`]). For every finite `a` the bits equal the
/// dense kernel's over `w.to_dense()`: the dense loop adds the same
/// products in the same order plus `x·0 = ±0` for every pruned column,
/// and adding `±0` to an accumulator that starts at `+0.0` changes
/// nothing — the accumulator is never `-0.0`, since a round-to-nearest
/// sum is `-0.0` only when both addends are. Stored `±0.0` values are
/// covered by the same argument. A non-finite `a[c]` at a pruned column
/// is where the two diverge: dense adds `inf·0 = NaN`, CSR never reads it.
pub fn matmul_transb_csr(a: &[f32], m: usize, k: usize, w: &Csr, out: &mut Vec<f32>) {
    assert_eq!(a.len(), m * k, "matmul_transb_csr lhs shape mismatch");
    assert_eq!(w.cols, k, "matmul_transb_csr inner dimension mismatch");
    assert_eq!(w.row_ptr.len(), w.rows + 1, "csr row pointer length");
    let n = w.rows;
    out.clear();
    out.resize(m * n, 0.0);
    parallel_for_rows(m, out, n, |r0, rows_chunk| {
        let mut blocks = rows_chunk.chunks_exact_mut(4 * n);
        let mut r = r0;
        for block in &mut blocks {
            let x = &a[r * k..(r + 4) * k];
            let (x0, x1, x2, x3) = (&x[..k], &x[k..2 * k], &x[2 * k..3 * k], &x[3 * k..]);
            for j in 0..n {
                let span = w.row_ptr[j] as usize..w.row_ptr[j + 1] as usize;
                let (mut s0, mut s1, mut s2, mut s3) = (0f32, 0f32, 0f32, 0f32);
                for (&c, &v) in w.col_idx[span.clone()].iter().zip(&w.values[span]) {
                    let c = c as usize;
                    s0 += x0[c] * v;
                    s1 += x1[c] * v;
                    s2 += x2[c] * v;
                    s3 += x3[c] * v;
                }
                block[j] = s0;
                block[n + j] = s1;
                block[2 * n + j] = s2;
                block[3 * n + j] = s3;
            }
            r += 4;
        }
        for crow in blocks.into_remainder().chunks_exact_mut(n) {
            let x = &a[r * k..(r + 1) * k];
            for (j, cv) in crow.iter_mut().enumerate() {
                let span = w.row_ptr[j] as usize..w.row_ptr[j + 1] as usize;
                let mut acc = 0f32;
                for (&c, &v) in w.col_idx[span.clone()].iter().zip(&w.values[span]) {
                    acc += x[c as usize] * v;
                }
                *cv = acc;
            }
            r += 1;
        }
    });
}

/// A dense layer's weights (`n×k`) in either resident form.
#[derive(Debug, Clone, Copy)]
pub enum WeightView<'a> {
    /// Row-major dense matrix.
    Dense(&'a [f32]),
    /// The pruned layer's nonzeros.
    Sparse(&'a Csr),
}

impl WeightView<'_> {
    /// `C = A·Wᵀ` through the kernel matching the form:
    /// [`matmul_transb_raw`] or [`matmul_transb_csr`], which give the same
    /// bits for finite `a`. `n` is the weight rows.
    pub fn matmul_transb(self, a: &[f32], m: usize, k: usize, n: usize, out: &mut Vec<f32>) {
        match self {
            WeightView::Dense(w) => matmul_transb_raw(a, m, k, w, n, out),
            WeightView::Sparse(w) => {
                assert_eq!(w.rows, n, "matmul_transb_csr weight rows");
                matmul_transb_csr(a, m, k, w, out)
            }
        }
    }
}

/// `C = Aᵀ·B` where A is `k×m`, B is `k×n` (gradient wrt weights).
pub fn matmul_transa(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows, b.rows, "matmul_transa inner dimension mismatch");
    let (k, m, n) = (a.rows, a.cols, b.cols);
    let mut c = Matrix::zeros(m, n);
    let adata = &a.data;
    let bdata = &b.data;
    parallel_for_rows(m, &mut c.data, n, |r0, rows_chunk| {
        for (ri, crow) in rows_chunk.chunks_exact_mut(n).enumerate() {
            let r = r0 + ri;
            for kk in 0..k {
                let av = adata[kk * m + r];
                if av == 0.0 {
                    continue;
                }
                let brow = &bdata[kk * n..kk * n + n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
    });
    c
}

/// Shape of an image volume (channels, height, width).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VolShape {
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
}

impl VolShape {
    /// Element count.
    pub fn len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// True when any dimension is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Output spatial size of a convolution/pool window.
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    (input + 2 * pad - kernel) / stride + 1
}

/// Lowers one CHW image into the im2col matrix with `c·kh·kw` rows and
/// `oh·ow` columns, so that convolution becomes `W · col`.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    img: &[f32],
    shape: VolShape,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    out: &mut Matrix,
) {
    let oh = conv_out_dim(shape.h, kh, stride, pad);
    let ow = conv_out_dim(shape.w, kw, stride, pad);
    debug_assert_eq!(out.rows, shape.c * kh * kw);
    debug_assert_eq!(out.cols, oh * ow);
    for ci in 0..shape.c {
        let plane = &img[ci * shape.h * shape.w..(ci + 1) * shape.h * shape.w];
        for ky in 0..kh {
            for kx in 0..kw {
                let orow = (ci * kh * kw + ky * kw + kx) * out.cols;
                for oy in 0..oh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    for ox in 0..ow {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        let v = if iy >= 0
                            && (iy as usize) < shape.h
                            && ix >= 0
                            && (ix as usize) < shape.w
                        {
                            plane[iy as usize * shape.w + ix as usize]
                        } else {
                            0.0
                        };
                        out.data[orow + oy * ow + ox] = v;
                    }
                }
            }
        }
    }
}

/// Inverse of [`im2col`]: scatters column-matrix gradients back into an
/// image-shaped gradient (accumulating where windows overlap).
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    cols: &Matrix,
    shape: VolShape,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    img: &mut [f32],
) {
    let oh = conv_out_dim(shape.h, kh, stride, pad);
    let ow = conv_out_dim(shape.w, kw, stride, pad);
    img.fill(0.0);
    for ci in 0..shape.c {
        for ky in 0..kh {
            for kx in 0..kw {
                let crow = (ci * kh * kw + ky * kw + kx) * cols.cols;
                for oy in 0..oh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy as usize >= shape.h {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if ix < 0 || ix as usize >= shape.w {
                            continue;
                        }
                        img[ci * shape.h * shape.w + iy as usize * shape.w + ix as usize] +=
                            cols.data[crow + oy * ow + ox];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for j in 0..b.cols {
                let mut acc = 0f32;
                for k in 0..a.cols {
                    acc += a.at(i, k) * b.at(k, j);
                }
                c.data[i * b.cols + j] = acc;
            }
        }
        c
    }

    fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut s = seed;
        let data = (0..rows * cols)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!((a.rows, a.cols), (b.rows, b.cols));
        for (x, y) in a.data.iter().zip(&b.data) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (17, 33, 9), (64, 100, 50)] {
            let a = rand_matrix(m, k, 1);
            let b = rand_matrix(k, n, 2);
            assert_close(&matmul(&a, &b), &naive_matmul(&a, &b), 1e-3);
        }
    }

    #[test]
    fn matmul_transb_matches_naive() {
        let a = rand_matrix(13, 21, 3);
        let b = rand_matrix(17, 21, 4);
        let want = naive_matmul(&a, &b.transpose());
        assert_close(&matmul_transb(&a, &b), &want, 1e-3);
    }

    #[test]
    fn matmul_transb_into_reuses_buffer_bit_identically() {
        let a = rand_matrix(9, 31, 21);
        let b = rand_matrix(5, 31, 22);
        let want = matmul_transb(&a, &b);
        // A dirty, differently-sized scratch buffer must come out identical.
        let mut out = vec![7.0f32; 3];
        matmul_transb_into(&a.data, a.rows, a.cols, &b, &mut out);
        assert_eq!(out, want.data);
        let cap = out.capacity();
        matmul_transb_into(&a.data, a.rows, a.cols, &b, &mut out);
        assert_eq!(out, want.data);
        assert_eq!(out.capacity(), cap, "steady-state call must not realloc");
    }

    #[test]
    fn matmul_transa_matches_naive() {
        let a = rand_matrix(21, 13, 5);
        let b = rand_matrix(21, 17, 6);
        let want = naive_matmul(&a.transpose(), &b);
        assert_close(&matmul_transa(&a, &b), &want, 1e-3);
    }

    #[test]
    fn matmul_large_k_blocking() {
        let a = rand_matrix(4, 1000, 7);
        let b = rand_matrix(1000, 3, 8);
        assert_close(&matmul(&a, &b), &naive_matmul(&a, &b), 1e-2);
    }

    #[test]
    fn transpose_involution() {
        let a = rand_matrix(7, 11, 9);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn conv_out_dims() {
        assert_eq!(conv_out_dim(28, 5, 1, 0), 24);
        assert_eq!(conv_out_dim(24, 2, 2, 0), 12);
        assert_eq!(conv_out_dim(4, 3, 1, 1), 4);
        assert_eq!(conv_out_dim(227, 11, 4, 0), 55);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1×1 kernel, stride 1, no pad: im2col is the identity layout.
        let shape = VolShape { c: 2, h: 3, w: 3 };
        let img: Vec<f32> = (0..18).map(|i| i as f32).collect();
        let mut cols = Matrix::zeros(2, 9);
        im2col(&img, shape, 1, 1, 1, 0, &mut cols);
        assert_eq!(cols.data, img);
    }

    #[test]
    fn im2col_known_small_case() {
        // 1 channel 3×3, 2×2 kernel stride 1 → 4 windows.
        let shape = VolShape { c: 1, h: 3, w: 3 };
        let img = vec![1., 2., 3., 4., 5., 6., 7., 8., 9.];
        let mut cols = Matrix::zeros(4, 4);
        im2col(&img, shape, 2, 2, 1, 0, &mut cols);
        // Row layout: k=(0,0),(0,1),(1,0),(1,1); windows TL,TR,BL,BR.
        assert_eq!(cols.row(0), &[1., 2., 4., 5.]);
        assert_eq!(cols.row(1), &[2., 3., 5., 6.]);
        assert_eq!(cols.row(2), &[4., 5., 7., 8.]);
        assert_eq!(cols.row(3), &[5., 6., 8., 9.]);
    }

    #[test]
    fn im2col_padding_zeroes_border() {
        let shape = VolShape { c: 1, h: 2, w: 2 };
        let img = vec![1., 2., 3., 4.];
        let oh = conv_out_dim(2, 3, 1, 1);
        let mut cols = Matrix::zeros(9, oh * oh);
        im2col(&img, shape, 3, 3, 1, 1, &mut cols);
        // Center kernel tap over window (0,0) is img[0]; corner taps are 0.
        assert_eq!(cols.at(4, 0), 1.0);
        assert_eq!(cols.at(0, 0), 0.0);
    }

    #[test]
    fn col2im_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the transforms are adjoint,
        // which is exactly the property backprop relies on.
        let shape = VolShape { c: 2, h: 5, w: 4 };
        let x: Vec<f32> = (0..shape.len()).map(|i| (i as f32 * 0.37).sin()).collect();
        let (kh, kw, stride, pad) = (3, 2, 1, 1);
        let oh = conv_out_dim(shape.h, kh, stride, pad);
        let ow = conv_out_dim(shape.w, kw, stride, pad);
        let mut cx = Matrix::zeros(shape.c * kh * kw, oh * ow);
        im2col(&x, shape, kh, kw, stride, pad, &mut cx);
        let y = rand_matrix(cx.rows, cx.cols, 11);
        let mut back = vec![0f32; shape.len()];
        col2im(&y, shape, kh, kw, stride, pad, &mut back);
        let lhs: f32 = cx.data.iter().zip(&y.data).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&back).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }
}
