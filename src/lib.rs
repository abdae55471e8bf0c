//! # DeepSZ — error-bounded lossy compression for deep neural networks
//!
//! A from-scratch Rust reproduction of *DeepSZ: A Novel Framework to
//! Compress Deep Neural Networks by Using Error-Bounded Lossy Compression*
//! (Jin et al., HPDC '19), including every substrate the paper relies on:
//! the SZ compressor, a ZFP baseline, gzip/Zstandard/Blosc-class lossless
//! codecs, sparse weight formats, a trainable DNN library, magnitude
//! pruning, and the two comparison systems (Deep Compression, Weightless).
//!
//! ## Quickstart
//!
//! ```
//! use deepsz::prelude::*;
//!
//! // 1. Train (or load) a network, then prune + retrain.
//! let mut net = zoo::build(Arch::LeNet300, Scale::Full, 42);
//! let data = digits::dataset(512, 7);
//! nn::train(&mut net, &data, &TrainConfig { epochs: 1, ..Default::default() }, None);
//! let (masks, _) = prune::prune_network(&mut net, Arch::LeNet300.pruning_densities());
//! prune::retrain(&mut net, &data, &TrainConfig { epochs: 1, ..Default::default() }, &masks);
//!
//! // 2. Assess per-layer error bounds (Algorithm 1) and optimize the
//! //    configuration (Algorithm 2) under an expected accuracy loss.
//! let eval = DatasetEvaluator::new(data.take(256));
//! let cfg = AssessmentConfig { expected_loss: 0.01, ..Default::default() };
//! let (assessments, _base) = assess_network(&net, &cfg, &eval).unwrap();
//! let plan = optimize_for_accuracy(&assessments, cfg.expected_loss).unwrap();
//!
//! // 3. Generate, ship, and decode the compressed model.
//! let (model, report) = encode_with_plan(&assessments, &plan).unwrap();
//! assert!(report.ratio() > 5.0);
//! let (decoded, _timing) = decode_model(&model).unwrap();
//! apply_decoded(&mut net, decoded).unwrap();
//! ```

pub use dsz_baselines as baselines;
pub use dsz_core as framework;
pub use dsz_datagen as datagen;
pub use dsz_lossless as lossless;
pub use dsz_nn as nn;
pub use dsz_prune as prune;
pub use dsz_serve as serve;
pub use dsz_sparse as sparse;
pub use dsz_sz as sz;
pub use dsz_tensor as tensor;
pub use dsz_zfp as zfp;

/// One-stop imports for the common pipeline.
pub mod prelude {
    pub use crate::datagen::{digits, features, weights};
    pub use crate::framework::{
        apply_decoded, assess_network, assess_network_full, cache_features, decode_model,
        encode_to_writer, encode_to_writer_config, encode_with_plan, linearity_experiment,
        optimize_for_accuracy, optimize_for_size, AccuracyEvaluator, AssessmentConfig, DataCodec,
        DataCodecKind, DatasetEvaluator, EncodeStreamConfig, IncrementalEvaluator, Plan, SzCodec,
        ZfpCodec,
    };
    pub use crate::nn::{self, accuracy, zoo, Arch, Dataset, Network, Scale, TrainConfig};
    pub use crate::prune;
    pub use crate::serve::{
        BatchConfig, ModelRegistry, ServeError, Server, ServerConfig, SubmitOptions,
    };
    pub use crate::sparse::{Csr, PairArray};
    pub use crate::sz::{ErrorBound, SzConfig};
}
