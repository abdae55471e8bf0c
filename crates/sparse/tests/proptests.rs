//! Property-based tests for the sparse formats: the two-array encoding and
//! CSR must reconstruct arbitrary sparse matrices exactly, including
//! pathological gap structures.

use dsz_sparse::{Csr, PairArray, PAD_MARKER};
use proptest::prelude::*;

/// Strategy: a sparse dense matrix with arbitrary density and values.
fn sparse_matrix() -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (1usize..24, 1usize..400).prop_flat_map(|(rows, cols)| {
        let n = rows * cols;
        proptest::collection::vec(
            prop_oneof![
                6 => Just(0f32),
                1 => (-1f32..1f32).prop_filter("nonzero", |v| *v != 0.0),
            ],
            n..=n,
        )
        .prop_map(move |dense| (rows, cols, dense))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pair_array_roundtrips((rows, cols, dense) in sparse_matrix()) {
        let pa = PairArray::from_dense(&dense, rows, cols);
        prop_assert_eq!(pa.to_dense().unwrap(), dense.clone());
        // Size accounting invariants.
        prop_assert_eq!(pa.data.len(), pa.index.len());
        prop_assert!(pa.nnz() <= pa.stored_entries());
        prop_assert_eq!(pa.nnz(), dense.iter().filter(|&&w| w != 0.0).count());
    }

    #[test]
    fn to_dense_into_matches_allocating_twin((rows, cols, dense) in sparse_matrix()) {
        let pa = PairArray::from_dense(&dense, rows, cols);
        let want = pa.to_dense().unwrap();
        // A dirty, wrongly-sized scratch buffer must come out byte-equal.
        let mut out = vec![9.0f32; 3];
        pa.to_dense_into(&mut out).unwrap();
        prop_assert_eq!(
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn to_dense_with_matches_with_data_then_to_dense(
        (rows, cols, dense) in sparse_matrix(),
        delta in -0.5f32..0.5,
    ) {
        let pa = PairArray::from_dense(&dense, rows, cols);
        // Replacement values, deliberately nonzero at padding slots too.
        let replacement: Vec<f32> = pa.data.iter().map(|v| v + delta).collect();
        let want = pa.with_data(replacement.clone()).unwrap().to_dense().unwrap();
        let mut out = Vec::new();
        pa.to_dense_with(&replacement, &mut out).unwrap();
        prop_assert_eq!(
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // Length mismatch errors exactly like the allocating path.
        let mut short = replacement;
        short.pop();
        if !short.is_empty() || !pa.index.is_empty() {
            prop_assert!(pa.to_dense_with(&short, &mut out).is_err());
        }
    }

    #[test]
    fn csr_roundtrips((rows, cols, dense) in sparse_matrix()) {
        let csr = Csr::from_dense(&dense, rows, cols);
        prop_assert_eq!(csr.to_dense(), dense.clone());
        prop_assert_eq!(csr.nnz(), dense.iter().filter(|&&w| w != 0.0).count());
    }

    #[test]
    fn padding_only_on_long_gaps((rows, cols, dense) in sparse_matrix()) {
        let pa = PairArray::from_dense(&dense, rows, cols);
        // Every padding marker advances exactly PAD_MARKER positions and
        // carries a zero weight.
        for (&g, &v) in pa.index.iter().zip(&pa.data) {
            if g == PAD_MARKER {
                prop_assert_eq!(v, 0.0);
            }
        }
    }

    #[test]
    fn matvec_matches_dense((rows, cols, dense) in sparse_matrix(),
                            seed in 0u64..1000) {
        let pa = PairArray::from_dense(&dense, rows, cols);
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let x: Vec<f32> = (0..cols).map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        }).collect();
        // y = W·x straight off the pair arrays: the CSR builder feeding
        // the sparse kernel.
        let mut y = Vec::new();
        dsz_tensor::matmul_transb_csr(&x, 1, cols, &pa.to_csr().unwrap(), &mut y);
        prop_assert_eq!(y.len(), rows);
        for r in 0..rows {
            let want: f32 = (0..cols).map(|c| dense[r * cols + c] * x[c]).sum();
            prop_assert!((y[r] - want).abs() <= 1e-3 * (1.0 + want.abs()),
                         "row {}: {} vs {}", r, y[r], want);
        }
        // And bit for bit what the dense kernel computes over `dense`.
        let mut y_dense = Vec::new();
        dsz_tensor::matmul_transb_raw(&x, 1, cols, &dense, rows, &mut y_dense);
        prop_assert_eq!(
            y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y_dense.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn lossy_data_replacement_preserves_structure((rows, cols, dense) in sparse_matrix(),
                                                  eps in 0f32..0.01) {
        let pa = PairArray::from_dense(&dense, rows, cols);
        let perturbed: Vec<f32> = pa.data.iter().map(|v| v + eps).collect();
        let pb = pa.with_data(perturbed).unwrap();
        let back = pb.to_dense().unwrap();
        for (&orig, &rec) in dense.iter().zip(&back) {
            if orig == 0.0 {
                prop_assert_eq!(rec, 0.0);
            } else {
                prop_assert!((orig - rec).abs() <= eps + 1e-6);
            }
        }
    }
}
