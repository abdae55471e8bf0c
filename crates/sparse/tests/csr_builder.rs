//! Parity of the CSR builder (`PairArray::to_csr_with`) with the dense
//! reconstruction it replaces on the forward path: for every gap stream —
//! well-formed, padded, gap-0 overwrites, or corrupt — the CSR holds
//! exactly the entries `to_dense_with` writes, or fails with the same
//! error.

use dsz_sparse::{Csr, PairArray, SparseError, PAD_MARKER};
use proptest::prelude::*;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The builder's outcome must equal `to_dense_with`'s: the same error, or
/// a CSR whose dense image is the same bits, with ascending columns in
/// every row. The builder writes into a dirty, reused `Csr`.
fn assert_parity(pa: &PairArray, data: &[f32]) {
    let mut dense = Vec::new();
    let want = pa.to_dense_with(data, &mut dense);
    let mut csr = Csr::from_dense(&[1.0, -2.0, 0.0, 3.0], 2, 2);
    let got = pa.to_csr_with(data, &mut csr);
    assert_eq!(got, want, "builder and dense reconstruction disagree");
    if want.is_err() {
        return;
    }
    assert_eq!((csr.rows, csr.cols), (pa.rows, pa.cols));
    assert_eq!(csr.row_ptr.len(), pa.rows + 1);
    for r in 0..pa.rows {
        let span = csr.row_ptr[r] as usize..csr.row_ptr[r + 1] as usize;
        assert!(
            csr.col_idx[span].windows(2).all(|w| w[0] < w[1]),
            "row {r}: columns must ascend"
        );
    }
    assert_eq!(bits(&csr.to_dense()), bits(&dense));
}

#[test]
fn gap_zero_after_a_real_entry_overwrites_it() {
    // Entries at positions 1, 1 (overwrite), 3: dense keeps the second
    // value at position 1, and so must the CSR — one stored value, not two.
    let pa = PairArray {
        rows: 2,
        cols: 2,
        data: vec![1.0, 2.0, 3.0],
        index: vec![2, 0, 2],
    };
    assert_parity(&pa, &pa.data);
    let csr = pa.to_csr().unwrap();
    assert_eq!(csr.values, vec![2.0, 3.0]);
    assert_eq!(csr.col_idx, vec![1, 1]);
    assert_eq!(csr.row_ptr, vec![0, 1, 2]);
}

#[test]
fn gap_zero_after_padding_is_a_fresh_entry() {
    // A pad advances to position 254 without writing; the gap-0 entry
    // then lands there.
    let pa = PairArray {
        rows: 1,
        cols: 300,
        data: vec![5.0, 0.0, 7.0],
        index: vec![1, PAD_MARKER, 0],
    };
    assert_parity(&pa, &pa.data);
    let csr = pa.to_csr().unwrap();
    assert_eq!(csr.values, vec![5.0, 7.0]);
    assert_eq!(csr.col_idx, vec![0, 255]);
}

#[test]
fn padding_runs_store_nothing_and_skip_empty_rows() {
    // Long runs of pads cross several empty rows; pad data values are
    // ignored (here deliberately nonzero), and a trailing pad may walk
    // past the end.
    let mut index = vec![3u8];
    index.extend(std::iter::repeat_n(PAD_MARKER, 7));
    index.extend([10, PAD_MARKER]);
    let mut data = vec![0.5f32];
    data.extend(std::iter::repeat_n(9.0, 7));
    data.extend([-0.25, 4.0]);
    let pa = PairArray {
        rows: 40,
        cols: 50,
        data,
        index,
    };
    assert_parity(&pa, &pa.data);
    let csr = pa.to_csr().unwrap();
    assert_eq!(csr.nnz(), 2);
    let (p0, p1) = (2usize, 2 + 7 * 255 + 10);
    assert_eq!(csr.col_idx, vec![(p0 % 50) as u32, (p1 % 50) as u32]);
    assert_eq!(
        csr.row_ptr[p1 / 50],
        1,
        "empty rows point at the next entry"
    );
}

#[test]
fn stored_zeros_are_kept() {
    // A lossy decode can return ±0.0 for a real entry: the entry stays
    // in the CSR (its product is ±0, which never changes a sum).
    let pa = PairArray {
        rows: 1,
        cols: 4,
        data: vec![0.0, -0.0, 1.0],
        index: vec![1, 1, 1],
    };
    assert_parity(&pa, &pa.data);
    assert_eq!(pa.to_csr().unwrap().nnz(), 3);
}

#[test]
fn every_corrupt_stream_fails_like_the_dense_walk() {
    let cases = [
        // Walks past rows × cols.
        PairArray {
            rows: 2,
            cols: 2,
            data: vec![1.0, 2.0, 3.0],
            index: vec![1, 1, 3],
        },
        // A gap-0 first entry sits before position 0.
        PairArray {
            rows: 2,
            cols: 2,
            data: vec![1.0],
            index: vec![0],
        },
        // data and index lengths differ.
        PairArray {
            rows: 2,
            cols: 2,
            data: vec![1.0],
            index: vec![],
        },
        // rows × cols overflows.
        PairArray {
            rows: usize::MAX,
            cols: 2,
            data: vec![1.0],
            index: vec![1],
        },
        // More rows than the u32 row pointers can address.
        PairArray {
            rows: 1 << 33,
            cols: 0,
            data: vec![],
            index: vec![],
        },
        // Empty matrix with an entry.
        PairArray {
            rows: 0,
            cols: 0,
            data: vec![1.0],
            index: vec![1],
        },
    ];
    let want = [
        SparseError::PositionOverflow,
        SparseError::PositionOverflow,
        SparseError::LengthMismatch,
        SparseError::DimsOverflow,
        SparseError::DimsOverflow,
        SparseError::PositionOverflow,
    ];
    for (pa, want) in cases.iter().zip(want) {
        if pa.rows <= u32::MAX as usize {
            assert_parity(pa, &pa.data);
        }
        assert_eq!(pa.to_csr(), Err(want));
    }
}

/// Strategy: an arbitrary gap stream (pads and gap-0 entries included)
/// over a small matrix, with values that include signed zeros.
fn gap_stream() -> impl Strategy<Value = PairArray> {
    (1usize..12, 1usize..40, 0usize..80).prop_flat_map(|(rows, cols, n)| {
        (
            proptest::collection::vec(
                prop_oneof![
                    4 => 1u8..4,
                    1 => Just(0u8),
                    1 => Just(PAD_MARKER),
                    1 => any::<u8>(),
                ],
                n..=n,
            ),
            proptest::collection::vec(
                prop_oneof![
                    4 => -1f32..1f32,
                    1 => Just(0f32),
                    1 => Just(-0f32),
                ],
                n..=n,
            ),
        )
            .prop_map(move |(index, data)| PairArray {
                rows,
                cols,
                data,
                index,
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn builder_matches_dense_reconstruction(pa in gap_stream()) {
        assert_parity(&pa, &pa.data);
        // A short replacement array is a length mismatch on both paths.
        if !pa.data.is_empty() {
            assert_parity(&pa, &pa.data[1..]);
        }
    }
}
