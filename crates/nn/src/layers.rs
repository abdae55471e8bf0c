//! Layer definitions with forward and backward implementations.

use crate::Batch;
use dsz_tensor::{
    col2im, conv_out_dim, im2col, matmul, matmul_transa, matmul_transb, Matrix, VolShape,
    WeightView,
};

/// Forward pass of a dense layer with its weights supplied as a
/// [`WeightView`] (`d.w.rows × d.w.cols`) instead of `d.w.data`.
///
/// A container-backed layer multiplies straight off its sparse form
/// (`WeightView::Sparse`) without a dense matrix ever being built; a
/// dense layer's [`Layer::forward`] routes through this same function with
/// `WeightView::Dense(&d.w.data)`. The two kernels give the same bits for
/// finite inputs (`docs/PARALLEL.md`), and `add_bias` applies the bias
/// either way.
pub fn dense_forward_with_weights(d: &DenseLayer, weights: WeightView<'_>, x: &Batch) -> Batch {
    assert_eq!(x.features(), d.w.cols, "dense {}: input features", d.name);
    let mut out = Vec::new();
    weights.matmul_transb(&x.data, x.n, x.features(), d.w.rows, &mut out);
    add_bias(d, &mut out);
    Batch::from_features(x.n, d.w.rows, out)
}

/// Adds `d`'s bias to every row of its matmul output.
pub(crate) fn add_bias(d: &DenseLayer, out: &mut [f32]) {
    for row in out.chunks_exact_mut(d.w.rows) {
        for (v, &bias) in row.iter_mut().zip(&d.b) {
            *v += bias;
        }
    }
}

/// A fully-connected layer: `y = W·x + b` with `W` as `out × in`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLayer {
    /// Layer name, used to match the paper's tables (`ip1`, `fc6`, …).
    pub name: String,
    /// Weights, `out × in` row-major.
    pub w: Matrix,
    /// Per-output bias.
    pub b: Vec<f32>,
}

/// A 2-D convolution layer; weights are stored im2col-ready as an
/// `out_c × (in_c·kh·kw)` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvLayer {
    /// Layer name (`conv1`, …).
    pub name: String,
    /// Filter bank, `out_c × (in_c·kh·kw)`.
    pub w: Matrix,
    /// Per-filter bias.
    pub b: Vec<f32>,
    /// Input channels.
    pub in_c: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same in both dimensions).
    pub pad: usize,
}

/// Parameter gradients of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGrad {
    /// Gradient wrt weights, same shape as the layer's `w`.
    pub dw: Matrix,
    /// Gradient wrt biases.
    pub db: Vec<f32>,
}

/// Pooling argmax cache: for each pooled output, the flat input offset the
/// maximum came from.
#[derive(Debug, Clone)]
pub struct PoolAux {
    /// One entry per pooled output value, batch-major.
    pub argmax: Vec<u32>,
}

/// One network layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// Fully-connected layer.
    Dense(DenseLayer),
    /// Convolution layer.
    Conv(ConvLayer),
    /// Elementwise `max(0, x)`.
    ReLU,
    /// Non-overlapping max pooling with window = stride = `size`.
    MaxPool2 {
        /// Window/stride size.
        size: usize,
    },
    /// Reshapes `c×h×w` to `(c·h·w)×1×1`.
    Flatten,
}

impl Layer {
    /// Output volume shape for a given input shape.
    pub fn output_shape(&self, s: VolShape) -> VolShape {
        match self {
            Layer::Dense(d) => VolShape {
                c: d.w.rows,
                h: 1,
                w: 1,
            },
            Layer::Conv(c) => VolShape {
                c: c.w.rows,
                h: conv_out_dim(s.h, c.kh, c.stride, c.pad),
                w: conv_out_dim(s.w, c.kw, c.stride, c.pad),
            },
            Layer::ReLU => s,
            Layer::MaxPool2 { size } => VolShape {
                c: s.c,
                h: s.h / size,
                w: s.w / size,
            },
            Layer::Flatten => VolShape {
                c: s.len(),
                h: 1,
                w: 1,
            },
        }
    }

    /// Forward pass over a batch; returns output and optional aux state.
    pub fn forward(&self, x: &Batch) -> (Batch, Option<PoolAux>) {
        match self {
            Layer::Dense(d) => (
                dense_forward_with_weights(d, WeightView::Dense(&d.w.data), x),
                None,
            ),
            Layer::Conv(c) => {
                let s = x.shape;
                assert_eq!(s.c, c.in_c, "conv {}: input channels", c.name);
                let out_shape = self.output_shape(s);
                let (oh, ow) = (out_shape.h, out_shape.w);
                let mut out = vec![0f32; x.n * out_shape.len()];
                let mut cols = Matrix::zeros(c.in_c * c.kh * c.kw, oh * ow);
                for i in 0..x.n {
                    im2col(x.sample(i), s, c.kh, c.kw, c.stride, c.pad, &mut cols);
                    let y = matmul(&c.w, &cols); // out_c × (oh·ow)
                    let dst = &mut out[i * out_shape.len()..(i + 1) * out_shape.len()];
                    for (ci, drow) in dst.chunks_exact_mut(oh * ow).enumerate() {
                        let bias = c.b[ci];
                        for (v, &yv) in drow.iter_mut().zip(y.row(ci)) {
                            *v = yv + bias;
                        }
                    }
                }
                (
                    Batch {
                        n: x.n,
                        shape: out_shape,
                        data: out,
                    },
                    None,
                )
            }
            Layer::ReLU => {
                let data = x.data.iter().map(|&v| v.max(0.0)).collect();
                (
                    Batch {
                        n: x.n,
                        shape: x.shape,
                        data,
                    },
                    None,
                )
            }
            Layer::MaxPool2 { size } => {
                let s = x.shape;
                let out_shape = self.output_shape(s);
                let (oh, ow) = (out_shape.h, out_shape.w);
                let mut out = vec![0f32; x.n * out_shape.len()];
                let mut argmax = vec![0u32; out.len()];
                for i in 0..x.n {
                    let img = x.sample(i);
                    for ci in 0..s.c {
                        let plane = &img[ci * s.h * s.w..(ci + 1) * s.h * s.w];
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let mut best = f32::NEG_INFINITY;
                                let mut bidx = 0usize;
                                for dy in 0..*size {
                                    for dx in 0..*size {
                                        let iy = oy * size + dy;
                                        let ix = ox * size + dx;
                                        let v = plane[iy * s.w + ix];
                                        if v > best {
                                            best = v;
                                            bidx = iy * s.w + ix;
                                        }
                                    }
                                }
                                let o = i * out_shape.len() + ci * oh * ow + oy * ow + ox;
                                out[o] = best;
                                argmax[o] = (ci * s.h * s.w + bidx) as u32;
                            }
                        }
                    }
                }
                (
                    Batch {
                        n: x.n,
                        shape: out_shape,
                        data: out,
                    },
                    Some(PoolAux { argmax }),
                )
            }
            Layer::Flatten => (
                Batch {
                    n: x.n,
                    shape: self.output_shape(x.shape),
                    data: x.data.clone(),
                },
                None,
            ),
        }
    }

    /// Backward pass: given the layer's forward input, aux state, and the
    /// gradient wrt its output, returns the gradient wrt its input and the
    /// parameter gradients (if any).
    pub fn backward(
        &self,
        input: &Batch,
        aux: &Option<PoolAux>,
        gout: &Batch,
    ) -> (Batch, Option<LayerGrad>) {
        match self {
            Layer::Dense(d) => {
                let gm = Matrix::from_vec(gout.n, d.w.rows, gout.data.clone());
                let xm = Matrix::from_vec(input.n, d.w.cols, input.data.clone());
                // dX = dY · W ; dW = dYᵀ · X ; db = column sums of dY.
                let gin = matmul(&gm, &d.w);
                let dw = matmul_transa(&gm, &xm);
                let mut db = vec![0f32; d.w.rows];
                for row in gm.data.chunks_exact(d.w.rows) {
                    for (s, &g) in db.iter_mut().zip(row) {
                        *s += g;
                    }
                }
                (
                    Batch {
                        n: input.n,
                        shape: input.shape,
                        data: gin.data,
                    },
                    Some(LayerGrad { dw, db }),
                )
            }
            Layer::Conv(c) => {
                let s = input.shape;
                let out_shape = self.output_shape(s);
                let (oh, ow) = (out_shape.h, out_shape.w);
                let k = c.in_c * c.kh * c.kw;
                let mut dw = Matrix::zeros(c.w.rows, k);
                let mut db = vec![0f32; c.w.rows];
                let mut gin = vec![0f32; input.data.len()];
                let mut cols = Matrix::zeros(k, oh * ow);
                let mut dimg = vec![0f32; s.len()];
                for i in 0..input.n {
                    im2col(input.sample(i), s, c.kh, c.kw, c.stride, c.pad, &mut cols);
                    let gslice = &gout.data[i * out_shape.len()..(i + 1) * out_shape.len()];
                    let gy = Matrix::from_vec(c.w.rows, oh * ow, gslice.to_vec());
                    // dW += gY · colsᵀ  (gY: oc×L, cols: K×L → oc×K)
                    let d = matmul_transb(&gy, &cols);
                    for (a, &g) in dw.data.iter_mut().zip(&d.data) {
                        *a += g;
                    }
                    for (ci, grow) in gslice.chunks_exact(oh * ow).enumerate() {
                        db[ci] += grow.iter().sum::<f32>();
                    }
                    // dcols = Wᵀ · gY, then scatter back to image space.
                    let dcols = matmul_transa(&c.w, &gy);
                    col2im(&dcols, s, c.kh, c.kw, c.stride, c.pad, &mut dimg);
                    gin[i * s.len()..(i + 1) * s.len()].copy_from_slice(&dimg);
                }
                (
                    Batch {
                        n: input.n,
                        shape: s,
                        data: gin,
                    },
                    Some(LayerGrad { dw, db }),
                )
            }
            Layer::ReLU => {
                let data = input
                    .data
                    .iter()
                    .zip(&gout.data)
                    .map(|(&x, &g)| if x > 0.0 { g } else { 0.0 })
                    .collect();
                (
                    Batch {
                        n: input.n,
                        shape: input.shape,
                        data,
                    },
                    None,
                )
            }
            Layer::MaxPool2 { .. } => {
                let aux = aux.as_ref().expect("pool backward requires aux");
                let mut gin = vec![0f32; input.data.len()];
                let per_out = gout.shape.len();
                let per_in = input.shape.len();
                for i in 0..input.n {
                    for j in 0..per_out {
                        let o = i * per_out + j;
                        gin[i * per_in + aux.argmax[o] as usize] += gout.data[o];
                    }
                }
                (
                    Batch {
                        n: input.n,
                        shape: input.shape,
                        data: gin,
                    },
                    None,
                )
            }
            Layer::Flatten => (
                Batch {
                    n: input.n,
                    shape: input.shape,
                    data: gout.data.clone(),
                },
                None,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_vec(n: usize, seed: u64, scale: f32) -> Vec<f32> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5) * 2.0 * scale
            })
            .collect()
    }

    /// Central-difference check of input and weight gradients for `layer`.
    fn check_gradients(layer: Layer, in_shape: VolShape, n: usize) {
        let x = Batch {
            n,
            shape: in_shape,
            data: rand_vec(n * in_shape.len(), 3, 0.8),
        };
        let (y, aux) = layer.forward(&x);
        // Loss = Σ cᵢ·yᵢ with fixed random c, so dL/dy = c.
        let c = rand_vec(y.data.len(), 5, 1.0);
        let gout = Batch {
            n: y.n,
            shape: y.shape,
            data: c.clone(),
        };
        let (gin, lg) = layer.backward(&x, &aux, &gout);

        let loss = |layer: &Layer, x: &Batch| -> f64 {
            let (y, _) = layer.forward(x);
            y.data
                .iter()
                .zip(&c)
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum()
        };

        let eps = 1e-2f32;
        // Input gradient spot-check.
        for probe in [0usize, x.data.len() / 2, x.data.len() - 1] {
            let mut xp = x.clone();
            xp.data[probe] += eps;
            let mut xm = x.clone();
            xm.data[probe] -= eps;
            let num = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps as f64);
            let ana = gin.data[probe] as f64;
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                "input grad at {probe}: num {num} vs ana {ana}"
            );
        }
        // Weight gradient spot-check.
        if let Some(lg) = lg {
            let probes = [0usize, lg.dw.data.len() / 2, lg.dw.data.len() - 1];
            for probe in probes {
                let perturb = |delta: f32| -> Layer {
                    let mut l2 = layer.clone();
                    match &mut l2 {
                        Layer::Dense(d) => d.w.data[probe] += delta,
                        Layer::Conv(c) => c.w.data[probe] += delta,
                        _ => unreachable!(),
                    }
                    l2
                };
                let num = (loss(&perturb(eps), &x) - loss(&perturb(-eps), &x)) / (2.0 * eps as f64);
                let ana = lg.dw.data[probe] as f64;
                assert!(
                    (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                    "weight grad at {probe}: num {num} vs ana {ana}"
                );
            }
        }
    }

    #[test]
    fn dense_gradients() {
        let layer = Layer::Dense(DenseLayer {
            name: "d".into(),
            w: Matrix::from_vec(3, 5, rand_vec(15, 7, 0.5)),
            b: rand_vec(3, 9, 0.1),
        });
        check_gradients(layer, VolShape { c: 5, h: 1, w: 1 }, 4);
    }

    #[test]
    fn conv_gradients() {
        let layer = Layer::Conv(ConvLayer {
            name: "c".into(),
            w: Matrix::from_vec(2, 2 * 3 * 3, rand_vec(36, 11, 0.4)),
            b: rand_vec(2, 13, 0.1),
            in_c: 2,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        });
        check_gradients(layer, VolShape { c: 2, h: 5, w: 5 }, 2);
    }

    #[test]
    fn relu_gradients() {
        check_gradients(Layer::ReLU, VolShape { c: 9, h: 1, w: 1 }, 3);
    }

    #[test]
    fn maxpool_forward_and_routing() {
        let x = Batch {
            n: 1,
            shape: VolShape { c: 1, h: 4, w: 4 },
            data: vec![
                1., 2., 3., 4., //
                5., 6., 7., 8., //
                9., 10., 11., 12., //
                13., 14., 15., 16.,
            ],
        };
        let layer = Layer::MaxPool2 { size: 2 };
        let (y, aux) = layer.forward(&x);
        assert_eq!(y.data, vec![6., 8., 14., 16.]);
        let gout = Batch {
            n: 1,
            shape: y.shape,
            data: vec![1., 2., 3., 4.],
        };
        let (gin, _) = layer.backward(&x, &aux, &gout);
        assert_eq!(gin.data[5], 1.0); // value 6
        assert_eq!(gin.data[7], 2.0); // value 8
        assert_eq!(gin.data[13], 3.0); // value 14
        assert_eq!(gin.data[15], 4.0); // value 16
        assert_eq!(gin.data.iter().filter(|&&g| g != 0.0).count(), 4);
    }

    #[test]
    fn conv_known_values() {
        // Single 2×2 averaging-ish filter over a 3×3 image.
        let layer = Layer::Conv(ConvLayer {
            name: "c".into(),
            w: Matrix::from_vec(1, 4, vec![1., 1., 1., 1.]),
            b: vec![0.5],
            in_c: 1,
            kh: 2,
            kw: 2,
            stride: 1,
            pad: 0,
        });
        let x = Batch {
            n: 1,
            shape: VolShape { c: 1, h: 3, w: 3 },
            data: vec![1., 2., 3., 4., 5., 6., 7., 8., 9.],
        };
        let (y, _) = layer.forward(&x);
        assert_eq!(y.data, vec![12.5, 16.5, 24.5, 28.5]);
    }

    #[test]
    fn flatten_roundtrip() {
        let layer = Layer::Flatten;
        let x = Batch {
            n: 2,
            shape: VolShape { c: 2, h: 2, w: 2 },
            data: rand_vec(16, 17, 1.0),
        };
        let (y, _) = layer.forward(&x);
        assert_eq!(y.shape, VolShape { c: 8, h: 1, w: 1 });
        assert_eq!(y.data, x.data);
    }
}
