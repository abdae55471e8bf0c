//! `codec_vgg16`: repeated container encode and decode of the VGG-16
//! reduced fc surrogate (the paper's Fig. 7 measurement). Its fc6 data
//! stream is large enough to span many SZ chunks, so chunk-parallel SZ
//! and large-layer index decode and reconstruction are measured here.

use crate::model::{check_bounds, samples, Model};
use crate::probes;
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::trace::{now_ns, Trace};
use crate::{closed_loop_metrics, Run};
use dsz_core::{decode_model, encode_with_plan, DataCodecKind};
use dsz_nn::{zoo, Arch, Network, Scale};

/// The paper's chosen VGG-16 error bounds (fc6, fc7, fc8), §5.2.2.
const ERROR_BOUNDS: [f64; 3] = [1e-2, 9e-3, 5e-3];
/// Pruning densities of the reduced VGG-16 head (the accuracy workloads'
/// choice for the 1/8-width surrogate).
const DENSITIES: [f64; 3] = [0.09, 0.09, 0.25];
/// Latency limit of one encode + decode round trip.
const SLO_MS: f64 = 150.0;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;

/// The VGG-16 reduced fc head (3136 → 512 → 512 → 100) with trained-like
/// pruned weights drawn from `seed`.
fn surrogate(seed: u64) -> Network {
    let mut net = zoo::build(Arch::Vgg16, Scale::Reduced, seed);
    for (li, fc) in net.fc_layers().into_iter().enumerate() {
        let mut dense =
            dsz_datagen::weights::trained_fc_weights(fc.rows, fc.cols, seed ^ (li as u64) << 8);
        dsz_prune::prune_to_density(&mut dense, DENSITIES[li]);
        net.dense_mut(fc.layer_index).w.data = dense;
    }
    net
}

/// Per-round-trip stage times, in milliseconds.
struct RoundTrip {
    encode: f64,
    decode: f64,
}

/// Encode + decode round trips for `seconds` (at least one), each
/// checked: identical container bytes, every layer within its bound.
/// Returns the successful round trips and the delay before each started.
fn phase(
    model: &Model,
    seconds: f64,
    mut trace: Option<&mut Trace>,
    out: &mut Outcome,
) -> (Vec<RoundTrip>, Vec<f64>) {
    let start = now_ns();
    let mut trips = Vec::new();
    let mut lags = Vec::new();
    let mut due = start;
    while trips.is_empty() || (now_ns() - start) as f64 / 1e9 < seconds {
        let t0 = now_ns();
        lags.push((t0 - due) as f64 / 1e6);
        let encoded = encode_with_plan(&model.assessments, &model.plan);
        let t1 = now_ns();
        let decoded = encoded
            .as_ref()
            .map_err(|e| e.to_string())
            .and_then(|(c, _)| decode_model(c).map_err(|e| e.to_string()));
        let t2 = now_ns();
        if let Some(tr) = trace.as_deref_mut() {
            let root = tr.add("round_trip", None, t0, t2);
            tr.add("encode", Some(root), t0, t1);
            tr.add("decode", Some(root), t1, t2);
        }
        let verdict = decoded.and_then(|(layers, _)| {
            let (container, _) = encoded.as_ref().expect("decoded implies encoded");
            if *container != model.container {
                return Err("container bytes differ between repetitions".into());
            }
            let dense = layers.iter().map(|d| (d.layer_index, d.dense.as_slice()));
            check_bounds(&model.net, &model.plan, dense)
        });
        let ok = verdict.is_ok();
        out.op(ok, || verdict.err().unwrap_or_default());
        if ok {
            trips.push(RoundTrip {
                encode: (t1 - t0) as f64 / 1e6,
                decode: (t2 - t1) as f64 / 1e6,
            });
        }
        due = now_ns();
    }
    (trips, lags)
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let net = surrogate(run.seed_for(2));

    // Set-up: the pipeline's per-layer preparation (sparse pair arrays
    // and best-fit index codecs) plus one warm round trip.
    let mut setups = Vec::new();
    let mut model = None;
    for _ in 0..SETUP_REPS {
        let t = now_ns();
        let m = Model::with_fixed_plan(net.clone(), &ERROR_BOUNDS, DataCodecKind::Sz)
            .expect("surrogate encodes");
        std::hint::black_box(decode_model(&m.container).expect("warm decode"));
        setups.push((now_ns() - t) as f64 / 1e9);
        model = Some(m);
    }
    let model = model.expect("set-up ran");

    // The measured phase is untraced; a traced run adds a second phase
    // with spans, and the difference of their medians is the tracing
    // overhead.
    let seconds = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let before = out.attempted;
    let (trips, lags) = phase(&model, seconds, None, &mut out);
    let attempted = out.attempted - before;
    assert!(!trips.is_empty(), "no round trip succeeded");
    let round_trip = |ts: &[RoundTrip]| ts.iter().map(|t| t.encode + t.decode).collect::<Vec<_>>();
    let totals = round_trip(&trips);
    if run.trace {
        let mut trace = Trace::default();
        let (traced, _) = phase(&model, seconds, Some(&mut trace), &mut out);
        if let (Some(a), Some(b)) = (median(&totals), median(&round_trip(&traced))) {
            out.layer("trace.overhead_ms", b - a, "ms");
        }
        out.spans = crate::trace::summarize(trace.spans());
    }

    out.e2e("setup_s", median(&setups).expect("set-up ran"), "s");
    closed_loop_metrics(&mut out, &totals, attempted, &lags, SLO_MS);
    out.e2e(
        "compression_ratio",
        model.dense_bytes() as f64 / model.container.bytes.len() as f64,
        "x",
    );
    let encodes: Vec<f64> = trips.iter().map(|t| t.encode).collect();
    let decodes: Vec<f64> = trips.iter().map(|t| t.decode).collect();
    out.e2e("encode_ms", median(&encodes).expect("trips"), "ms");
    out.e2e("decode_ms", median(&decodes).expect("trips"), "ms");
    out.extra(
        "p99_round_trip_ms",
        percentile(&totals, 0.99).expect("trips"),
        "ms",
    );
    out.extra("round_trips", trips.len() as f64, "count");
    if run.trace {
        // A small seeded feature set stands in for evaluation data: the
        // surrogate is not trained, so only the probes' costs matter.
        let spec = dsz_datagen::features::FeatureSpec::vgg16_reduced();
        let (probe_set, _) = dsz_datagen::features::train_test(&spec, 128, 8, run.seed_for(3));
        let inputs = samples(&probe_set.take(8));
        probes::run(&model, &probe_set, &inputs, &mut out);
    }
    out
}
