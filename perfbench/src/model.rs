//! The compressed models the workloads operate on, built from seeded
//! inputs through the repository's public API, and the output checks
//! every workload shares.

use dsz_core::{
    encode_with_plan, ChosenLayer, CompressedModel, DataCodecKind, DeepSzError, LayerAssessment,
    Plan,
};
use dsz_nn::{Batch, Dataset, FcLayerRef, Network};
use dsz_sparse::PairArray;

/// A network with its dense fc weights, the sparse form the pipeline
/// compresses, a plan, and the container that plan produced.
pub struct Model {
    /// Network with the original (uncompressed) pruned fc weights.
    pub net: Network,
    /// One assessment per fc layer (sparse pair + index codec; sampled
    /// points only where an assessment ran).
    pub assessments: Vec<LayerAssessment>,
    /// Error bound and codec per fc layer.
    pub plan: Plan,
    /// Container bytes `plan` produced.
    pub container: CompressedModel,
}

impl Model {
    /// Encodes `net`'s fc layers at fixed error bounds with fixed codecs
    /// — the plan a deployment would reuse once assessment is done.
    pub fn with_fixed_plan(
        net: Network,
        ebs: &[f64],
        codec: DataCodecKind,
    ) -> Result<Self, DeepSzError> {
        let assessments = sparse_layers(&net);
        let plan = Plan {
            layers: assessments
                .iter()
                .zip(ebs)
                .map(|(a, &eb)| ChosenLayer {
                    fc: a.fc.clone(),
                    eb,
                    degradation: 0.0,
                    data_bytes: 0,
                    index_bytes: a.index_bytes,
                    codec,
                    point_index: 0,
                })
                .collect(),
            predicted_loss: 0.0,
            total_bytes: 0,
        };
        let (container, _) = encode_with_plan(&assessments, &plan)?;
        Ok(Self {
            net,
            assessments,
            plan,
            container,
        })
    }

    /// fc layer references, in fc order.
    pub fn fcs(&self) -> Vec<FcLayerRef> {
        self.net.fc_layers()
    }

    /// Dense bytes of every fc layer together (the decoded-cache
    /// footprint of one model).
    pub fn dense_bytes(&self) -> usize {
        self.fcs().iter().map(FcLayerRef::dense_bytes).sum()
    }
}

/// The sparse form and best-fit index codec of each fc layer — the
/// pipeline's per-layer preparation, with no error bounds sampled.
fn sparse_layers(net: &Network) -> Vec<LayerAssessment> {
    net.fc_layers()
        .into_iter()
        .map(|fc| {
            let w = &net.dense(fc.layer_index).w;
            let pair = PairArray::from_dense(&w.data, w.rows, w.cols);
            let (index_codec, index_blob) = dsz_lossless::best_fit(&pair.index);
            LayerAssessment {
                fc,
                pair,
                index_codec,
                index_bytes: index_blob.len(),
                points: Vec::new(),
            }
        })
        .collect()
}

/// Checks decoded fc weights, given as `(layer index, weights)` in fc
/// order, against the original weights of `net` under the bound `plan`
/// chose for each layer.
pub fn check_bounds<'a>(
    net: &Network,
    plan: &Plan,
    decoded: impl IntoIterator<Item = (usize, &'a [f32])>,
) -> Result<(), String> {
    let mut n = 0;
    for ((index, dense), c) in decoded.into_iter().zip(&plan.layers) {
        n += 1;
        let orig = &net.dense(index).w.data;
        if index != c.fc.layer_index || orig.len() != dense.len() {
            return Err(format!(
                "decoded layer {index} does not match {}",
                c.fc.name
            ));
        }
        let err = dsz_sz::max_abs_error(orig, dense);
        if err > c.eb * (1.0 + 1e-9) {
            return Err(format!(
                "layer {} error {err:e} exceeds bound {:e}",
                c.fc.name, c.eb
            ));
        }
    }
    if n != plan.layers.len() {
        return Err(format!(
            "decoded {n} layers, plan has {}",
            plan.layers.len()
        ));
    }
    Ok(())
}

/// The samples of `data` as separate request inputs.
pub fn samples(data: &Dataset) -> Vec<Vec<f32>> {
    (0..data.len()).map(|i| data.batch(i, i + 1).data).collect()
}

/// A batch of the first `n` of `inputs` shaped for `net`.
pub fn batch_of(net: &Network, inputs: &[Vec<f32>], n: usize) -> Batch {
    Batch {
        n,
        shape: net.input_shape,
        data: inputs[..n].concat(),
    }
}

/// Bitwise equality of two output vectors.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
