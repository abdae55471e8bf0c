//! Encode/decode scaling bench: 1-thread vs N-thread wall time for the
//! full container pipeline on a VGG-16-surrogate fc stack, plus the
//! chunk-parallel SZ stream on the largest layer alone, plus the
//! error-bound assessment (Algorithm 1) — the pipeline's dominant cost —
//! through both its engines (incremental vs. the preserved full-clone
//! baseline; see `docs/ASSESSMENT.md`).
//!
//! Emits a human-readable table and a machine-readable
//! `BENCH_encode_decode.json` in the working directory so the perf
//! trajectory is tracked across PRs.

use dsz_bench::tables::print_table;
use dsz_bench::workloads::{paper_error_bounds, reduced_pruning_densities};
use dsz_core::optimizer::{ChosenLayer, Plan};
use dsz_core::{
    assess_network, assess_network_full, decode_model, encode_to_writer, encode_to_writer_config,
    encode_with_plan, verify_container, AssessmentConfig, DataCodecKind, DatasetEvaluator,
    EncodeStreamConfig, LayerAssessment, SeekableContainer, SharedLayerCache, SpillCache,
};
use dsz_datagen::features;
use dsz_nn::{zoo, Arch, DenseLayer, Layer, Network, Scale};
use dsz_sparse::PairArray;
use dsz_sz::{ErrorBound, SzConfig};
use dsz_tensor::parallel::{clamp_to_host, parallel_map, with_workers, worker_count};
use dsz_tensor::{Csr, Matrix, VolShape};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Median wall time (ms) of `runs` calls to `f`.
fn median_ms<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

/// Median per-call wall time (µs) over `runs` samples of `iters`
/// back-to-back calls — for operations too fast to time one call at a
/// time (a single sub-microsecond call rounds to zero in ms).
fn median_us_per_call<F: FnMut()>(runs: usize, iters: usize, mut f: F) -> f64 {
    median_ms(runs, || {
        for _ in 0..iters {
            f();
        }
    }) * 1e3
        / iters as f64
}

/// The pre-pool per-call `std::thread::scope` parallel map, preserved here
/// as the fresh-spawn baseline that `pool_reuse_speedup` compares the
/// persistent pool against. Work distribution matches `parallel_map` (an
/// atomic claim queue); only the execution substrate differs.
fn scoped_spawn_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.min(n.max(1));
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock().expect("slot") = Some(f(&items[i]));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot").expect("job completed"))
        .collect()
}

/// Measures pool-vs-fresh-spawn wall time on a small-layer workload, where
/// per-call thread-spawn overhead dominates the actual compression work.
/// Returns `(pooled_ms, scoped_ms)`.
fn pool_reuse_times(workers: usize) -> (f64, f64) {
    // A dozen tiny layers of 64 weights each: well under the 16 Ki
    // adaptive chunk floor, so each job is a single-chunk compress with no
    // nested fan-out — the parallel-map dispatch itself is a large share
    // of the measured cost.
    let jobs: Vec<Vec<f32>> = (0..12)
        .map(|i| dsz_datagen::weights::trained_fc_weights(8, 8, 0xF00D ^ (i as u64) << 4))
        .collect();
    let cfg = SzConfig::default();
    let compress = |d: &Vec<f32>| cfg.compress(d, ErrorBound::Abs(1e-3)).expect("compress");
    let pooled_ms = with_workers(workers, || {
        median_ms(15, || {
            let _ = parallel_map(&jobs, compress);
        })
    });
    let scoped_ms = median_ms(15, || {
        let _ = scoped_spawn_map(&jobs, workers, compress);
    });
    (pooled_ms, scoped_ms)
}

fn main() {
    // VGG-16 surrogate: the reduced fc head's shapes with trained-like
    // pruned weights (no training loop needed for a throughput bench).
    let arch = Arch::Vgg16;
    let net = zoo::build(arch, Scale::Reduced, 0xBE7C);
    let densities = reduced_pruning_densities(arch);
    let ebs = paper_error_bounds(arch);

    let mut assessments: Vec<LayerAssessment> = Vec::new();
    let mut chosen: Vec<ChosenLayer> = Vec::new();
    let mut head_layers: Vec<Layer> = Vec::new();
    for (li, fc) in net.fc_layers().into_iter().enumerate() {
        let mut dense =
            dsz_datagen::weights::trained_fc_weights(fc.rows, fc.cols, 0x5EED ^ (li as u64) << 8);
        dsz_prune::prune_to_density(&mut dense, densities[li % densities.len()]);
        let pair = PairArray::from_dense(&dense, fc.rows, fc.cols);
        // The same pruned stack as a runnable fc head, for the assessment
        // bench below.
        if li > 0 {
            head_layers.push(Layer::ReLU);
        }
        head_layers.push(Layer::Dense(DenseLayer {
            name: fc.name.clone(),
            w: Matrix::from_vec(fc.rows, fc.cols, dense.clone()),
            b: vec![0.0; fc.rows],
        }));
        let (index_codec, index_blob) = dsz_lossless::best_fit(&pair.index);
        let eb = ebs[li % ebs.len()];
        // Per-layer codec competition through the same rule the
        // assessment applies (smallest stream wins, SZ tie-break).
        let candidates: Vec<_> = DataCodecKind::ALL
            .iter()
            .map(|k| k.instance(&SzConfig::default()))
            .collect();
        let (winner, _) = dsz_core::codec::compete(&candidates, &pair.data, ErrorBound::Abs(eb))
            .expect("codec competition");
        let codec = candidates[winner].kind();
        chosen.push(ChosenLayer {
            fc: fc.clone(),
            eb,
            degradation: 0.0,
            data_bytes: 0,
            index_bytes: index_blob.len(),
            codec,
            point_index: 0,
        });
        assessments.push(LayerAssessment {
            fc,
            pair,
            index_codec,
            index_bytes: index_blob.len(),
            points: Vec::new(),
        });
    }
    let plan = Plan {
        layers: chosen,
        predicted_loss: 0.0,
        total_bytes: 0,
    };

    let n_weights: usize = assessments.iter().map(|a| a.pair.rows * a.pair.cols).sum();
    let host = worker_count();
    // Always measure 1/2/4 so single-core hosts still show (absence of)
    // oversubscription overhead; add the full host width when larger.
    let mut thread_counts: Vec<usize> = vec![1, 2, 4, host];
    thread_counts.sort_unstable();
    thread_counts.dedup();

    println!(
        "VGG-16 surrogate fc stack: {} layers, {:.1}M dense weights, host parallelism {}",
        assessments.len(),
        n_weights as f64 / 1e6,
        host
    );

    // Container pipeline at each worker count.
    struct Row {
        workers: usize,
        encode_ms: f64,
        decode_ms: f64,
        lossy_decode_ms: f64,
    }
    let mut rows: Vec<Row> = Vec::new();
    let (model, report) = encode_with_plan(&assessments, &plan).expect("encode");
    // The cost of the full integrity pass (`verify_container`: trailer +
    // whole-container FNV + footer cross-checks, no decompression).
    let checksum_verify_ms = median_ms(9, || {
        let _ = verify_container(&model).expect("intact container verifies");
    });
    println!(
        "container integrity: verify_container {:.3} ms over {} bytes",
        checksum_verify_ms,
        model.bytes.len()
    );
    // Largest layer's SZ stream alone (chunk-level parallelism, no
    // container framing or sparse reconstruction).
    let biggest = assessments
        .iter()
        .max_by_key(|a| a.pair.data.len())
        .expect("nonempty");
    let sz_blob = SzConfig::default()
        .compress(&biggest.pair.data, ErrorBound::Abs(1e-2))
        .expect("sz compress");

    for &w in &thread_counts {
        let encode_ms = with_workers(w, || {
            median_ms(3, || {
                let _ = encode_with_plan(&assessments, &plan).expect("encode");
            })
        });
        let decode_ms = with_workers(w, || {
            median_ms(5, || {
                let _ = decode_model(&model).expect("decode");
            })
        });
        let lossy_decode_ms = with_workers(w, || {
            median_ms(5, || {
                let _ = dsz_sz::decompress(&sz_blob).expect("sz decode");
            })
        });
        rows.push(Row {
            workers: w,
            encode_ms,
            decode_ms,
            lossy_decode_ms,
        });
    }

    // Streaming operator-pipeline encode (docs/STREAMING_ENCODE.md):
    // wall time of the direct-to-writer path, the buffer-ring ledger's
    // peak for the materializing configuration (unbounded budget — what
    // `encode_with_plan` holds) vs the tightest budget (one mandatory
    // floor), and how much container-write time overlapped in-flight
    // layer compression when streaming to a real file.
    let streaming_encode_ms = median_ms(3, || {
        let mut sink = Vec::with_capacity(model.bytes.len());
        let _ = encode_to_writer(&assessments, &plan, &mut sink).expect("streaming encode");
    });
    let stream_path =
        std::env::temp_dir().join(format!("dsz-bench-stream-{}.dszm", std::process::id()));
    let stream_file =
        std::io::BufWriter::new(std::fs::File::create(&stream_path).expect("bench stream file"));
    let unbounded_report =
        encode_to_writer(&assessments, &plan, stream_file).expect("streaming encode");
    std::fs::remove_file(&stream_path).ok();
    let tight_cfg = EncodeStreamConfig {
        encode_bytes_budget: Some(1),
    };
    let tight_report = encode_to_writer_config(
        &assessments,
        &plan,
        &SzConfig::default(),
        &tight_cfg,
        std::io::sink(),
    )
    .expect("bounded streaming encode");
    let encode_peak_bytes_materializing = unbounded_report.peak_buffered_bytes;
    let encode_peak_bytes_streaming = tight_report.peak_buffered_bytes;
    let encode_io_overlap_ratio = unbounded_report.io_overlap_ratio;
    println!(
        "streaming encode: {:.1} ms to writer; peak buffered bytes {} materializing vs {} at the tightest budget ({:.2}x less); io overlap {:.2}",
        streaming_encode_ms,
        encode_peak_bytes_materializing,
        encode_peak_bytes_streaming,
        encode_peak_bytes_materializing as f64 / (encode_peak_bytes_streaming.max(1)) as f64,
        encode_io_overlap_ratio
    );

    // Random access through the seekable reader: open cost (trailer +
    // footer only, no payload work) and a single mid-stack layer decode,
    // vs the full sequential decode above. The half-decode acceptance
    // bound is deliberately loose — on this 3-layer stack one layer is
    // roughly a third of the work.
    let seek_open_us = median_us_per_call(9, 1000, || {
        std::hint::black_box(SeekableContainer::open_slice(&model.bytes).expect("seek open"));
    });
    let seek = SeekableContainer::open_slice(&model.bytes).expect("seek open");
    let mid = seek.layer_count() / 2;
    let random_access_layer_ms = median_ms(5, || {
        let _ = seek.layer(mid).expect("random access layer");
    });
    // Spill rehydration: quota 0 parks the decoded sparse payload on
    // disk, so every fetch is a read + FNV verify + CSR reassembly — the
    // cost a repeat forward pays instead of a container re-decode.
    let mid_layer = seek.layer(mid).expect("mid layer");
    let spill_payload = Csr::from_dense(&mid_layer.dense, mid_layer.rows, mid_layer.cols);
    let spill_dir = std::env::temp_dir().join(format!("dsz-bench-spill-{}", std::process::id()));
    let spill = SpillCache::new(&spill_dir, 0).expect("spill cache");
    let mut spill_times: Vec<f64> = (0..9)
        .map(|_| {
            spill
                .store(mid, spill_payload.clone())
                .expect("spill store");
            let t0 = Instant::now();
            let got = spill.fetch(mid).expect("spill fetch").expect("parked");
            assert_eq!(got, spill_payload);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    spill_times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let spill_rehydrate_ms = spill_times[spill_times.len() / 2];
    std::fs::remove_dir_all(&spill_dir).ok();
    // Shared decoded-layer cache (the serving layer's hot-path allocation,
    // `docs/SERVING.md`): park the whole stack once, then a hot pass per
    // layer — a hit is a pointer clone instead of a container decode. The
    // hit rate comes from the same `CacheStats::hit_rate` plumbing
    // `BENCH_serve.json` records, so the two benches track one metric.
    let shared_cache = SharedLayerCache::new(n_weights * 4);
    let cache_handle = shared_cache.handle();
    let layer_fetch = |i: usize| {
        cache_handle
            .get_or_decode(i, i as u64, || seek.layer(i).map(|d| Arc::new(d.dense)))
            .expect("layer decode")
    };
    let t0 = Instant::now();
    for i in 0..seek.layer_count() {
        let _ = layer_fetch(i);
    }
    let shared_cache_cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let shared_cache_hot_us = median_us_per_call(9, 1000, || {
        for i in 0..seek.layer_count() {
            std::hint::black_box(layer_fetch(i));
        }
    });
    let cache_hit_rate = shared_cache.stats().hit_rate();
    println!(
        "random access: seek open {:.3} µs, layer {}/{} decode {:.3} ms (full decode {:.1} ms); spill rehydrate {:.3} ms for {} nonzeros",
        seek_open_us,
        mid,
        seek.layer_count(),
        random_access_layer_ms,
        rows[0].decode_ms,
        spill_rehydrate_ms,
        spill_payload.nnz()
    );
    println!(
        "shared layer cache: cold stack pass {:.3} ms, hot pass {:.3} µs, hit rate {:.3}",
        shared_cache_cold_ms, shared_cache_hot_us, cache_hit_rate
    );

    let base = &rows[0];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workers.to_string(),
                format!(
                    "{:.1} ms ({:.2}x)",
                    r.encode_ms,
                    base.encode_ms / r.encode_ms
                ),
                format!(
                    "{:.1} ms ({:.2}x)",
                    r.decode_ms,
                    base.decode_ms / r.decode_ms
                ),
                format!(
                    "{:.1} ms ({:.2}x)",
                    r.lossy_decode_ms,
                    base.lossy_decode_ms / r.lossy_decode_ms
                ),
            ]
        })
        .collect();
    print_table(
        "Encode/decode scaling (speedup vs 1 thread)",
        &[
            "threads",
            "container encode",
            "container decode",
            "SZ stream decode",
        ],
        &table,
    );
    let zfp_win_layers = report
        .layers
        .iter()
        .filter(|l| l.data_codec == DataCodecKind::Zfp)
        .count();
    println!(
        "container: {} bytes (SZ v4 in DSZM v4), fc compression ratio {:.1}x",
        report.total_bytes,
        report.ratio()
    );
    println!(
        "per-layer codec competition: {} of {} layers chose ZFP ({})",
        zfp_win_layers,
        report.layers.len(),
        report
            .layers
            .iter()
            .map(|l| format!("{}={}", l.name, l.data_codec.name()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if host == 1 {
        println!("note: single-core host — speedups are expected to be ~1.0x here");
    }

    // Pool-reuse benefit on spawn-overhead-dominated work. Request 4
    // workers, clamped to the host's parallelism: oversubscribing a
    // smaller host would measure scheduler churn, not pool reuse (the
    // same clamp rule as the scaling rows above).
    let pool_bench_workers = clamp_to_host(4);
    let (pooled_ms, scoped_ms) = pool_reuse_times(pool_bench_workers);
    let pool_reuse_speedup = scoped_ms / pooled_ms.max(1e-9);
    println!(
        "pool reuse ({} workers, 12 × 64-weight layers): pooled {:.3} ms vs fresh-spawn {:.3} ms ({:.2}x)",
        pool_bench_workers, pooled_ms, scoped_ms, pool_reuse_speedup
    );

    // Error-bound assessment (Algorithm 1) — the paper's dominant cost —
    // on the same pruned stack as a runnable fc head: incremental engine
    // (prefix cache + suffix pass + scratch arenas) vs. the preserved
    // full-clone path. Both walk identical points; the wall-clock ratio is
    // the trajectory metric.
    let head = Network {
        input_shape: VolShape {
            c: net.fc_layers()[0].cols,
            h: 1,
            w: 1,
        },
        layers: head_layers,
    };
    let (_, eval_data) =
        features::train_test(&features::FeatureSpec::vgg16_reduced(), 0, 256, 0xA55E55);
    let eval = DatasetEvaluator::new(eval_data);
    let assess_cfg = AssessmentConfig::default();
    let t0 = Instant::now();
    let (full_assess, full_base) = assess_network_full(&head, &assess_cfg, &eval).expect("full");
    let assessment_full_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let (incr_assess, incr_base) = assess_network(&head, &assess_cfg, &eval).expect("incremental");
    let assessment_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        full_base.to_bits(),
        incr_base.to_bits(),
        "baseline diverged"
    );
    for (a, b) in full_assess.iter().zip(&incr_assess) {
        assert_eq!(a.points, b.points, "{}: engines diverged", a.fc.name);
    }
    let assessment_points: usize = incr_assess.iter().map(|a| a.points.len()).sum();
    let assessment_incremental_speedup = assessment_full_ms / assessment_ms.max(1e-9);
    println!(
        "assessment ({} points over {} layers, {} eval samples): incremental {:.1} ms vs full-clone {:.1} ms ({:.2}x)",
        assessment_points,
        incr_assess.len(),
        256,
        assessment_ms,
        assessment_full_ms,
        assessment_incremental_speedup
    );

    // Machine-readable trajectory record.
    let mut json = String::from("{\n");
    json.push_str("  \"workload\": \"vgg16_reduced_fc_surrogate\",\n");
    json.push_str(&format!("  \"layers\": {},\n", assessments.len()));
    json.push_str(&format!("  \"dense_weights\": {},\n", n_weights));
    json.push_str(&format!("  \"container_bytes\": {},\n", report.total_bytes));
    json.push_str(&format!(
        "  \"checksum_verify_ms\": {:.3},\n",
        checksum_verify_ms
    ));
    json.push_str(&format!("  \"seek_open_us\": {:.3},\n", seek_open_us));
    json.push_str(&format!(
        "  \"random_access_layer_ms\": {:.3},\n",
        random_access_layer_ms
    ));
    json.push_str(&format!(
        "  \"spill_rehydrate_ms\": {:.3},\n",
        spill_rehydrate_ms
    ));
    json.push_str(&format!(
        "  \"shared_cache_cold_ms\": {:.3},\n",
        shared_cache_cold_ms
    ));
    json.push_str(&format!(
        "  \"shared_cache_hot_us\": {:.3},\n",
        shared_cache_hot_us
    ));
    json.push_str(&format!("  \"cache_hit_rate\": {:.4},\n", cache_hit_rate));
    json.push_str(&format!(
        "  \"streaming_encode_ms\": {:.3},\n",
        streaming_encode_ms
    ));
    json.push_str(&format!(
        "  \"encode_peak_bytes_materializing\": {},\n",
        encode_peak_bytes_materializing
    ));
    json.push_str(&format!(
        "  \"encode_peak_bytes_streaming\": {},\n",
        encode_peak_bytes_streaming
    ));
    json.push_str(&format!(
        "  \"encode_io_overlap_ratio\": {:.3},\n",
        encode_io_overlap_ratio
    ));
    json.push_str(&format!(
        "  \"codec_choice\": [{}],\n",
        report
            .layers
            .iter()
            .map(|l| format!(
                "{{\"layer\": \"{}\", \"codec\": \"{}\"}}",
                l.name,
                l.data_codec.name()
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!("  \"zfp_win_layers\": {},\n", zfp_win_layers));
    json.push_str(&format!(
        "  \"compression_ratio\": {:.3},\n",
        report.ratio()
    ));
    json.push_str(&format!("  \"host_parallelism\": {},\n", host));
    json.push_str(&format!(
        "  \"pool_bench_workers\": {},\n",
        pool_bench_workers
    ));
    json.push_str(&format!("  \"pool_reuse_pooled_ms\": {:.3},\n", pooled_ms));
    json.push_str(&format!("  \"pool_reuse_scoped_ms\": {:.3},\n", scoped_ms));
    json.push_str(&format!(
        "  \"pool_reuse_speedup\": {:.3},\n",
        pool_reuse_speedup
    ));
    json.push_str(&format!(
        "  \"assessment_points\": {},\n",
        assessment_points
    ));
    json.push_str(&format!("  \"assessment_ms\": {:.3},\n", assessment_ms));
    json.push_str(&format!(
        "  \"assessment_full_ms\": {:.3},\n",
        assessment_full_ms
    ));
    json.push_str(&format!(
        "  \"assessment_incremental_speedup\": {:.3},\n",
        assessment_incremental_speedup
    ));
    json.push_str("  \"runs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {}, \"encode_ms\": {:.3}, \"decode_ms\": {:.3}, \"lossy_decode_ms\": {:.3}}}{}\n",
            r.workers,
            r.encode_ms,
            r.decode_ms,
            r.lossy_decode_ms,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"decode_ms\": {:.3},\n", base.decode_ms));
    // Speedup at "max threads" means max *effective* threads: requests
    // above the host's parallelism are clamped, so oversubscribed rows
    // are re-runs of the widest real configuration and comparing against
    // them only measures noise. On a 1-core host every row collapses to
    // the base row and both speedups are exactly 1.0 by construction —
    // that IS the fix (the pre-clamp code oversubscribed and landed
    // below 1.0).
    let max_effective = rows
        .iter()
        .map(|r| clamp_to_host(r.workers))
        .max()
        .expect("at least one run");
    let widest = rows
        .iter()
        .find(|r| clamp_to_host(r.workers) == max_effective)
        .expect("at least one run");
    let (decode_speedup, encode_speedup) = if widest.workers == base.workers {
        (1.0, 1.0)
    } else {
        (
            base.decode_ms / widest.decode_ms,
            base.encode_ms / widest.encode_ms,
        )
    };
    json.push_str(&format!(
        "  \"effective_max_threads\": {},\n",
        max_effective
    ));
    json.push_str(&format!(
        "  \"decode_speedup_max_threads\": {:.3},\n  \"encode_speedup_max_threads\": {:.3}\n",
        decode_speedup, encode_speedup
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_encode_decode.json", &json).expect("write BENCH_encode_decode.json");
    println!("wrote BENCH_encode_decode.json");
}
