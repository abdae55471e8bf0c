//! Batch-width bit-identity of the matmul kernels — the micro-batcher's
//! correctness anchor (`docs/SERVING.md`) — and bit-identity of the sparse
//! kernel with the dense one (`docs/PARALLEL.md`, "Sparse matmul").
//!
//! The serving layer coalesces N single-sample requests into one matmul
//! per layer with `m = N`. That is only legal because each kernel
//! computes every output as an independent, *sequential* sum: batching
//! changes how rows are grouped and parallelized, never the per-output
//! arithmetic. This suite pins that property — the batched output must
//! equal the per-sample outputs bit for bit, at every batch width and
//! under every worker budget (tier1 sweeps `DSZ_THREADS=1/4`) — for the
//! dense kernel and for the CSR kernel served layers actually run, and
//! pins that the CSR kernel reproduces the dense kernel's bits.

use dsz_tensor::parallel::with_workers;
use dsz_tensor::{matmul_transb_into, matmul_transb_raw, Matrix};

fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

/// Batched `m×k · (n×k)ᵀ` must be a row-for-row bit-identical stack of
/// the `1×k` per-sample products, for every width and worker budget.
#[test]
fn batched_matmul_bit_identical_to_per_sample_loops() {
    let (k, n) = (37, 23);
    let weights = Matrix::from_vec(n, k, rand_vec(n * k, 0xB17));
    for width in [1usize, 2, 3, 4, 5, 7, 8, 13] {
        let a = rand_vec(width * k, 0xA11CE ^ (width as u64) << 8);
        for workers in [1usize, 4] {
            let mut batched = Vec::new();
            with_workers(workers, || {
                matmul_transb_into(&a, width, k, &weights, &mut batched)
            });
            assert_eq!(batched.len(), width * n);
            for s in 0..width {
                // The per-sample "loop": one m=1 call per request, exactly
                // what an unbatched server would execute.
                let mut single = Vec::new();
                matmul_transb_into(&a[s * k..(s + 1) * k], 1, k, &weights, &mut single);
                let got: Vec<u32> = batched[s * n..(s + 1) * n]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let want: Vec<u32> = single.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    got, want,
                    "width {width} sample {s} diverged at {workers} workers"
                );
            }
        }
    }
}

/// The raw-slice kernel and the `Matrix`-typed entry point are one code
/// path: identical bits for identical operands.
#[test]
fn raw_kernel_matches_matrix_entry_point() {
    let (m, k, n) = (6, 41, 17);
    let a = rand_vec(m * k, 1);
    let b = Matrix::from_vec(n, k, rand_vec(n * k, 2));
    let mut via_matrix = Vec::new();
    matmul_transb_into(&a, m, k, &b, &mut via_matrix);
    let mut via_raw = vec![9.0f32; 3]; // dirty, wrongly-sized scratch
    matmul_transb_raw(&a, m, k, &b.data, n, &mut via_raw);
    assert_eq!(
        via_matrix.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        via_raw.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}

// ---- CSR kernel: the same bits from the nonzeros alone ----------------
//
// Container-backed layers multiply straight off their sparse form
// (`matmul_transb_csr`). Serving and assessment are only allowed to do
// that because, for every finite input, it reproduces the dense kernel's
// bits over the same weights: see `docs/PARALLEL.md`.

use dsz_tensor::{matmul_transb_csr, Csr};

/// A pruned `n×k` matrix whose rows exercise every shape the proof has
/// to cover: ordinary nonzeros at `density`, stored `+0.0` and `-0.0`
/// weights, subnormal weights, and rows with no nonzeros at all.
fn pruned_weights(n: usize, k: usize, density: f32, seed: u64) -> (Vec<f32>, Csr) {
    let u = rand_vec(n * k, seed);
    let v = rand_vec(n * k, seed ^ 0x5EED);
    let mut dense = vec![0f32; n * k];
    // (position, value) of weights the CSR stores although `from_dense`
    // would drop them: ±0.0 entries a lossy decode can produce.
    let mut stored_zeros = Vec::new();
    for r in 0..n {
        if r % 5 == 3 {
            continue; // an empty row
        }
        for c in 0..k {
            let p = r * k + c;
            if u[p] + 0.5 >= density {
                continue;
            }
            dense[p] = match p % 11 {
                0 => f32::from_bits(0x0000_0400 + p as u32), // subnormal
                1 => -f32::from_bits(0x0000_0007),           // tiny subnormal
                2 | 3 => {
                    stored_zeros.push((p, if p % 11 == 2 { 0.0 } else { -0.0 }));
                    continue;
                }
                _ => v[p] * 2.0,
            };
        }
    }
    let mut csr = Csr::from_dense(&dense, n, k);
    // Splice the stored zeros into their rows in column order.
    for (p, z) in stored_zeros {
        let (r, c) = (p / k, (p % k) as u32);
        let span = csr.row_ptr[r] as usize..csr.row_ptr[r + 1] as usize;
        let at = span.start + csr.col_idx[span].partition_point(|&x| x < c);
        csr.col_idx.insert(at, c);
        csr.values.insert(at, z);
        for rp in &mut csr.row_ptr[r + 1..] {
            *rp += 1;
        }
        dense[p] = z;
    }
    (dense, csr)
}

/// Inputs with a share of `-0.0`, `+0.0` and subnormal activations.
fn activations(len: usize, seed: u64) -> Vec<f32> {
    rand_vec(len, seed)
        .into_iter()
        .enumerate()
        .map(|(i, x)| match i % 9 {
            0 => -0.0,
            1 => 0.0,
            2 => f32::from_bits(0x0000_1234 + i as u32),
            3 => -f32::from_bits(0x0003_0000),
            _ => x * 8.0,
        })
        .collect()
}

fn to_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn csr_kernel_bit_identical_to_dense_for_finite_inputs() {
    for (n, k, density) in [(23usize, 37usize, 0.3f32), (40, 129, 0.08), (9, 5, 0.9)] {
        let (dense, csr) = pruned_weights(n, k, density, 0xC5A ^ k as u64);
        assert_eq!(
            to_bits(&csr.to_dense()),
            to_bits(&dense),
            "fixture: CSR and dense hold the same weights"
        );
        assert!(csr.values.iter().any(|v| v.to_bits() == 0x8000_0000));
        assert!(csr.values.iter().any(|v| v.is_subnormal()));
        for width in 1usize..=9 {
            let a = activations(width * k, 0xF1 ^ (width as u64) << 12 ^ k as u64);
            for workers in [1usize, 2, 4] {
                let (mut via_dense, mut via_csr) = (Vec::new(), vec![7.0f32; 3]);
                with_workers(workers, || {
                    matmul_transb_raw(&a, width, k, &dense, n, &mut via_dense);
                    matmul_transb_csr(&a, width, k, &csr, &mut via_csr);
                });
                assert_eq!(
                    to_bits(&via_csr),
                    to_bits(&via_dense),
                    "{n}x{k} width {width} workers {workers}"
                );
            }
        }
    }
}

/// Batched CSR output is a row-for-row stack of per-sample CSR calls
/// (the micro-batcher's rule, on the sparse kernel), including the rows
/// past the last full block of four.
#[test]
fn csr_kernel_batched_bit_identical_to_per_sample() {
    let (k, n) = (61, 19);
    let (_, csr) = pruned_weights(n, k, 0.2, 0xB10C);
    for width in 1usize..=9 {
        let a = activations(width * k, 0xAB ^ width as u64);
        for workers in [1usize, 2, 4] {
            let mut batched = Vec::new();
            with_workers(workers, || {
                matmul_transb_csr(&a, width, k, &csr, &mut batched)
            });
            for s in 0..width {
                let mut single = Vec::new();
                matmul_transb_csr(&a[s * k..(s + 1) * k], 1, k, &csr, &mut single);
                assert_eq!(
                    to_bits(&batched[s * n..(s + 1) * n]),
                    to_bits(&single),
                    "width {width} sample {s} workers {workers}"
                );
            }
        }
    }
}

/// The documented divergence: a non-finite activation at a pruned column
/// makes the dense kernel add `inf·0 = NaN`, which the CSR kernel never
/// reads. Outputs whose rows store that column agree (both non-finite);
/// the others are NaN on the dense side only.
#[test]
fn non_finite_input_diverges_at_pruned_columns() {
    let (k, n) = (6, 3);
    // Row 0 stores column 2, rows 1 and 2 do not.
    let mut dense = vec![0f32; n * k];
    dense[2] = 1.5;
    dense[k + 4] = -2.0;
    let csr = Csr::from_dense(&dense, n, k);
    for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
        let mut a = vec![0.25f32; k];
        a[2] = bad;
        let (mut via_dense, mut via_csr) = (Vec::new(), Vec::new());
        matmul_transb_raw(&a, 1, k, &dense, n, &mut via_dense);
        matmul_transb_csr(&a, 1, k, &csr, &mut via_csr);
        assert!(!via_dense[0].is_finite() && !via_csr[0].is_finite());
        assert_eq!(
            via_csr[0].to_bits(),
            via_dense[0].to_bits(),
            "row 0 stores the column: same non-finite result"
        );
        assert!(
            via_dense[1].is_nan() && via_dense[2].is_nan(),
            "dense: {via_dense:?}"
        );
        assert_eq!(via_csr[1], 0.25 * -2.0, "row 1 never reads it");
        assert_eq!(via_csr[2].to_bits(), 0, "row 2 is empty: +0.0");
    }
}
