//! Per-layer probes: each layer of the system timed from outside, by
//! calling its public functions on the workload's own model. Every
//! workload runs the same probes in its traced run, so every per-layer
//! metric exists on every workload; which workload's figure a layer's
//! optimisation should move is recorded in `perfbench/README.md`.

use crate::model::{batch_of, Model};
use crate::report::Outcome;
use crate::schedule::Rng;
use crate::stats::median;
use dsz_core::{
    assess_network, decode_model, encode_with_plan, optimize_for_accuracy, verify_container,
    AssessmentConfig, CompressedFcModel, DataCodecKind, DatasetEvaluator, IncrementalEvaluator,
    SeekableContainer, SharedLayerCache,
};
use dsz_nn::{Dataset, SuffixScratch};
use dsz_sz::{ErrorBound, SzConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Labels of the fc layers in per-layer metric names: the ordinal of the
/// layer among the model's fc layers (LeNet-300-100 ip1..ip3 and the VGG
/// surrogate fc6..fc8 both map to fc0..fc2).
pub const FC_LABELS: [&str; 3] = ["fc0", "fc1", "fc2"];

/// Expected accuracy loss every assessment in the benchmark plans for.
pub const EXPECTED_LOSS: f64 = 0.005;

/// Median time of `f` in milliseconds over at least `MIN_REPS` calls,
/// repeating until `BUDGET_MS` of measurement or `MAX_REPS` calls.
fn probe_ms(mut f: impl FnMut()) -> f64 {
    const MIN_REPS: usize = 5;
    const MAX_REPS: usize = 400;
    const BUDGET_MS: f64 = 40.0;
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_REPS
        || (times.len() < MAX_REPS && start.elapsed().as_secs_f64() * 1e3 < BUDGET_MS)
    {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&times).expect("at least one repetition")
}

/// Runs every probe on `m`, recording each per-layer metric the workload
/// has not already measured itself. `probe_set` feeds the assessment
/// probes; `inputs` (at least 8) feed the forward and matmul probes.
pub fn run(m: &Model, probe_set: &Dataset, inputs: &[Vec<f32>], out: &mut Outcome) {
    let fcs = m.fcs();
    assert_eq!(fcs.len(), FC_LABELS.len(), "probes expect three fc layers");
    assert!(inputs.len() >= 8, "forward probes need eight inputs");
    let sz = SzConfig::default();
    let seek = SeekableContainer::open_slice(&m.container.bytes).expect("container opens");
    let ie = IncrementalEvaluator::new(&m.net, probe_set, 256);
    let mut scratch = SuffixScratch::default();
    let mut rng = Rng::new(0x9_0BE5, 0);

    for (i, (fc, label)) in fcs.iter().zip(FC_LABELS).enumerate() {
        let a = &m.assessments[i];
        let choice = &m.plan.layers[i];
        let bound = ErrorBound::Abs(choice.eb);

        let candidate = m.net.dense(fc.layer_index).clone();
        let eval = probe_ms(|| {
            black_box(ie.evaluate_candidate(fc.layer_index, &candidate, &mut scratch));
        });
        out.layer_default(&format!("assess.{label}.eval_ms"), eval, "ms");

        let every_codec: Vec<_> = DataCodecKind::ALL.iter().map(|k| k.instance(&sz)).collect();
        let trial = probe_ms(|| {
            black_box(dsz_core::compete(&every_codec, &a.pair.data, bound).expect("trial encode"));
        });
        out.layer_default(&format!("assess.{label}.trial_encode_ms"), trial, "ms");

        let codec = choice.codec.instance(&sz);
        let data_blob = codec.encode(&a.pair.data, bound).expect("lossy encode");
        let lossy = probe_ms(|| {
            black_box(codec.encode(&a.pair.data, bound).expect("lossy encode"));
        });
        out.layer_default(&format!("encode.{label}.lossy_ms"), lossy, "ms");

        let (index_kind, index_blob) = dsz_lossless::best_fit(&a.pair.index);
        let index = probe_ms(|| {
            black_box(dsz_lossless::best_fit(&a.pair.index));
        });
        out.layer_default(&format!("encode.{label}.index_ms"), index, "ms");
        out.layer_default(
            &format!("encode.{label}.bytes"),
            (data_blob.len() + index_blob.len()) as f64,
            "bytes",
        );

        let layer = probe_ms(|| {
            black_box(seek.layer(i).expect("seek decode"));
        });
        out.layer_default(&format!("decode.{label}.ms"), layer, "ms");

        let index_decode = probe_ms(|| {
            black_box(
                index_kind
                    .codec()
                    .decompress(&index_blob)
                    .expect("index decode"),
            );
        });
        out.layer_default(&format!("index.{label}.decode_ms"), index_decode, "ms");

        let decoder = choice.codec.codec();
        let lossy_decode = probe_ms(|| {
            black_box(decoder.decode(&data_blob).expect("lossy decode"));
        });
        out.layer_default(&format!("lossy.{label}.decode_ms"), lossy_decode, "ms");

        let restored = a
            .pair
            .with_data(decoder.decode(&data_blob).expect("lossy decode"))
            .expect("pair shape");
        let reconstruct = probe_ms(|| {
            black_box(restored.to_dense().expect("reconstruct"));
        });
        out.layer_default(&format!("reconstruct.{label}.ms"), reconstruct, "ms");

        let w = &m.net.dense(fc.layer_index).w;
        for (width, key) in [(1usize, "b1_us"), (8, "b8_us")] {
            let x: Vec<f32> = (0..width * w.cols)
                .map(|_| rng.next_f64() as f32 - 0.5)
                .collect();
            let mut y = Vec::new();
            let us = probe_ms(|| {
                dsz_tensor::matmul_transb_into(&x, width, w.cols, w, &mut y);
                black_box(&y);
            }) * 1e3;
            out.layer_default(&format!("matmul.{label}.{key}"), us, "us");
        }
    }

    let encode = probe_ms(|| {
        black_box(encode_with_plan(&m.assessments, &m.plan).expect("encode"));
    });
    out.layer_default("encode.ms", encode, "ms");
    let verify = probe_ms(|| {
        black_box(verify_container(&m.container).expect("verify"));
    });
    out.layer_default("verify.ms", verify, "ms");
    let open_us = probe_ms(|| {
        black_box(SeekableContainer::open_slice(&m.container.bytes).expect("open"));
    }) * 1e3;
    out.layer_default("seek.open_us", open_us, "us");

    let mut stages: [Vec<f64>; 3] = Default::default();
    probe_ms(|| {
        let (_, t) = decode_model(&m.container).expect("decode");
        stages[0].push(t.lossless_ms);
        stages[1].push(t.lossy_ms);
        stages[2].push(t.reconstruct_ms);
    });
    for (name, v) in ["lossless", "lossy", "reconstruct"].iter().zip(&stages) {
        let ms = median(v).expect("decode ran");
        out.layer_default(&format!("decode.{name}_ms"), ms, "ms");
    }

    let cache = SharedLayerCache::new(2 * m.dense_bytes());
    let streaming = CompressedFcModel::new(&m.net, &m.container)
        .expect("streaming model")
        .with_shared_cache(cache.handle());
    for (n, key) in [(1usize, "forward.b1_ms"), (8, "forward.b8_ms")] {
        let x = batch_of(&m.net, inputs, n);
        streaming.forward(&x).expect("warm forward");
        let ms = probe_ms(|| {
            black_box(streaming.forward(&x).expect("forward"));
        });
        out.layer_default(key, ms, "ms");
    }
    let stats = cache.stats();
    out.layer_default("cache.hit_rate", stats.hit_rate(), "fraction");
    out.layer_default("cache.insertions", stats.insertions as f64, "count");
    out.layer_default("cache.evictions", stats.evictions as f64, "count");

    let lookups = SharedLayerCache::new(2 * m.dense_bytes());
    let payload = Arc::new(m.net.dense(fcs[0].layer_index).w.data.clone());
    lookups.insert((1, 0, 0), payload);
    const FETCHES: usize = 256;
    let hit_us = probe_ms(|| {
        for _ in 0..FETCHES {
            black_box(lookups.fetch((1, 0, 0)).expect("resident"));
        }
    }) * 1e3
        / FETCHES as f64;
    out.layer_default("cache.hit_us", hit_us, "us");

    if !out.has_layer("assess.ms") {
        let eval = DatasetEvaluator::new(probe_set.clone());
        let cfg = AssessmentConfig {
            expected_loss: EXPECTED_LOSS,
            ..Default::default()
        };
        let t = Instant::now();
        let (assessments, _) = assess_network(&m.net, &cfg, &eval).expect("assessment");
        out.layer("assess.ms", t.elapsed().as_secs_f64() * 1e3, "ms");
        let points: usize = assessments.iter().map(|a| a.points.len()).sum();
        out.layer("assess.points", points as f64, "count");
        let t = Instant::now();
        // Only the time matters here: a degenerate probe set may leave
        // no feasible plan.
        let _ = black_box(optimize_for_accuracy(&assessments, EXPECTED_LOSS));
        out.layer("optimize.ms", t.elapsed().as_secs_f64() * 1e3, "ms");
    }
}
