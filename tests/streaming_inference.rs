//! Integration tests for memory-bounded streaming inference over a
//! compressed model (the paper's §7 future-work direction).

use deepsz::framework::streaming::{streaming_matches_eager, CompressedFcModel};
use deepsz::prelude::*;

fn compressed_lenet() -> (Network, deepsz::framework::CompressedModel, Dataset) {
    let train_data = digits::dataset(1000, 71);
    let test_data = digits::dataset(300, 72);
    let mut net = zoo::build(Arch::LeNet300, Scale::Full, 23);
    nn::train(
        &mut net,
        &train_data,
        &TrainConfig {
            epochs: 2,
            ..Default::default()
        },
        None,
    );
    let (masks, _) = prune::prune_network(&mut net, Arch::LeNet300.pruning_densities());
    prune::retrain(
        &mut net,
        &train_data,
        &TrainConfig {
            epochs: 1,
            lr: 0.02,
            ..Default::default()
        },
        &masks,
    );
    let eval = DatasetEvaluator::new(test_data.clone());
    let cfg = AssessmentConfig {
        expected_loss: 0.01,
        ..Default::default()
    };
    let (assessments, _) = assess_network(&net, &cfg, &eval).unwrap();
    let plan = optimize_for_accuracy(&assessments, cfg.expected_loss).unwrap();
    let (model, _) = encode_with_plan(&assessments, &plan).unwrap();
    (net, model, test_data)
}

/// Resident bytes of each fc layer's decoded sparse form, in fc order.
/// The index stream is lossless, so the decoded layer has the original
/// pruned layer's structure: its CSR, built from the original gap stream,
/// has the same size. The budget assertions below are exact only while
/// no gap stream holds padding markers (an in-flight decode is counted
/// at 8 bytes per stored entry, pads included), so that is checked too.
fn weight_bytes(net: &Network) -> Vec<usize> {
    net.fc_layers()
        .iter()
        .map(|f| {
            let w = &net.dense(f.layer_index).w;
            let pair = PairArray::from_dense(&w.data, w.rows, w.cols);
            assert_eq!(pair.nnz(), pair.stored_entries(), "{}: padding", f.name);
            pair.to_csr().unwrap().size_bytes()
        })
        .collect()
}

#[test]
fn streaming_forward_matches_eager_decode() {
    let (net, model, test) = compressed_lenet();
    let probe = test.batch(0, 32);
    assert!(streaming_matches_eager(&net, &model, &probe).unwrap());
}

#[test]
fn peak_memory_is_bounded_by_largest_layer() {
    let (net, model, test) = compressed_lenet();
    // Prefetch off: the strict memory bound of one resident layer.
    let streaming = CompressedFcModel::new(&net, &model)
        .unwrap()
        .with_prefetch_depth(0);
    let probe = test.batch(0, 16);
    let (_, stats) = streaming.forward(&probe).unwrap();
    // Peak = largest single fc layer (ip1: 300×784), not the sum.
    let sizes = weight_bytes(&net);
    let largest = *sizes.iter().max().unwrap();
    let total: usize = sizes.iter().sum();
    assert_eq!(stats.peak_weight_bytes, largest);
    assert_eq!(stats.total_weight_bytes, total);
    assert!(stats.peak_weight_bytes < total);
    // And the persistent copy is the compressed container (≫ smaller
    // than the dense layers).
    let dense_total: usize = net.fc_layers().iter().map(|f| f.dense_bytes()).sum();
    assert!(stats.compressed_bytes * 10 < dense_total);
}

#[test]
fn prefetch_holds_at_most_two_layers_and_matches_serial() {
    let (net, model, test) = compressed_lenet();
    let probe = test.batch(0, 16);
    let streaming = CompressedFcModel::new(&net, &model).unwrap();
    // Pin a multi-thread budget so the overlapped path runs even on
    // single-core hosts (budget < 2 falls back to the serial path).
    let (out_pre, stats_pre) =
        deepsz::tensor::parallel::with_workers(4, || streaming.forward(&probe)).unwrap();
    let serial = CompressedFcModel::new(&net, &model)
        .unwrap()
        .with_prefetch_depth(0);
    let (out_ser, stats_ser) = serial.forward(&probe).unwrap();
    // Overlapped decode must not change the numerics.
    assert_eq!(out_pre, out_ser);
    assert_eq!(stats_pre.total_weight_bytes, stats_ser.total_weight_bytes);
    // Prefetch keeps the executing layer plus one in-flight decode.
    let sizes = weight_bytes(&net);
    let max_pair = sizes
        .windows(2)
        .map(|w| w[0] + w[1])
        .max()
        .unwrap_or(sizes[0]);
    assert!(stats_pre.peak_weight_bytes <= max_pair);
    assert!(stats_pre.peak_weight_bytes >= stats_ser.peak_weight_bytes);
    let total: usize = sizes.iter().sum();
    assert!(stats_pre.peak_weight_bytes < total);
}

#[test]
fn prefetch_depths_zero_one_two_are_equivalent() {
    let (net, model, test) = compressed_lenet();
    let probe = test.batch(0, 16);
    let serial = CompressedFcModel::new(&net, &model)
        .unwrap()
        .with_prefetch_depth(0);
    let (out0, stats0) = serial.forward(&probe).unwrap();
    for depth in [1usize, 2, 3] {
        let m = CompressedFcModel::new(&net, &model)
            .unwrap()
            .with_prefetch_depth(depth);
        // Pin a multi-thread budget so the overlapped path runs even on
        // single-core hosts.
        let (out, stats) = deepsz::tensor::parallel::with_workers(4, || m.forward(&probe)).unwrap();
        assert_eq!(out, out0, "depth {depth} must not change the numerics");
        assert_eq!(stats.total_weight_bytes, stats0.total_weight_bytes);
        // Deeper pipelines may hold more weight bytes, never fewer layers'
        // worth than the serial bound.
        assert!(stats.peak_weight_bytes >= stats0.peak_weight_bytes);
    }
}

#[test]
fn deep_prefetch_pins_high_water_mark_to_decoded_bytes_budget() {
    let (net, model, test) = compressed_lenet();
    let probe = test.batch(0, 16);
    let sizes = weight_bytes(&net);
    assert_eq!(sizes.len(), 3, "LeNet-300 fc stack");
    let total: usize = sizes.iter().sum();

    // Depth 2 with no bytes budget: while the first (largest) layer
    // executes, both remaining layers are in flight — the whole stack is
    // the high-water mark.
    let unbounded = CompressedFcModel::new(&net, &model)
        .unwrap()
        .with_prefetch_depth(2);
    let (out_u, stats_u) =
        deepsz::tensor::parallel::with_workers(4, || unbounded.forward(&probe)).unwrap();
    assert_eq!(stats_u.peak_weight_bytes, total);

    // An explicit budget of the two largest layers blocks the third
    // prefetch exactly: the high-water mark lands on the budget.
    let budget = sizes[0] + sizes[1];
    assert!(budget < total);
    let bounded = CompressedFcModel::new(&net, &model)
        .unwrap()
        .with_prefetch_depth(2)
        .with_decoded_bytes_budget(Some(budget));
    let (out_b, stats_b) =
        deepsz::tensor::parallel::with_workers(4, || bounded.forward(&probe)).unwrap();
    assert_eq!(stats_b.peak_weight_bytes, budget);
    assert_eq!(out_b, out_u, "bytes budget must not change the numerics");

    // A budget smaller than any single layer suppresses prefetch entirely,
    // restoring the serial max(layer) bound (execution is never blocked).
    let strict = CompressedFcModel::new(&net, &model)
        .unwrap()
        .with_prefetch_depth(2)
        .with_decoded_bytes_budget(Some(1));
    let (out_s, stats_s) =
        deepsz::tensor::parallel::with_workers(4, || strict.forward(&probe)).unwrap();
    assert_eq!(stats_s.peak_weight_bytes, *sizes.iter().max().unwrap());
    assert_eq!(out_s, out_u);
}

#[test]
fn materialize_round_trips_to_a_working_network() {
    let (net, model, test) = compressed_lenet();
    let (baseline, _) = nn::accuracy(&net, &test, 100, 5);
    let streaming = CompressedFcModel::new(&net, &model).unwrap();
    let full = streaming.materialize().unwrap();
    let (top1, _) = nn::accuracy(&full, &test, 100, 5);
    // Must stay near the (possibly modestly trained) baseline: the loss
    // budget was 1% plus small-test-set noise.
    assert!(
        top1 >= baseline - 0.03,
        "materialized accuracy {top1} vs baseline {baseline}"
    );
}

#[test]
fn mismatched_skeleton_rejected() {
    let (_, model, _) = compressed_lenet();
    let other = zoo::build(Arch::LeNet5, Scale::Full, 9);
    assert!(CompressedFcModel::new(&other, &model).is_err());
}
