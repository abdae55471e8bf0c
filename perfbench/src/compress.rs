//! `compress_lenet300`: the whole DeepSZ offline path on a trained,
//! pruned LeNet-300-100 — assess, optimize, encode, decode, apply — then
//! the decompressed network's accuracy on held-out digits.

use crate::model::{check_bounds, Model};
use crate::probes::{self, EXPECTED_LOSS};
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::trace::{now_ns, Trace};
use crate::{closed_loop_metrics, Run};
use dsz_core::{
    apply_decoded, assess_network, decode_model, encode_with_plan, optimize_for_accuracy,
    AccuracyEvaluator, AssessmentConfig, CompressedModel, DatasetEvaluator, IncrementalEvaluator,
    LayerAssessment, Plan,
};
use dsz_nn::{zoo, Arch, Dataset, Network, Scale, TrainConfig};

/// Accuracy-loss tolerance on top of the expected loss, as in the
/// repository's quickstart example.
const ACCURACY_TOLERANCE: f64 = 0.02;
/// Latency limit of one compress job (assess → apply).
const SLO_MS: f64 = 6000.0;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Extra encodes and decodes of each job's chosen plan.
const CODEC_REPEATS: usize = 9;

/// The network being compressed and the calibration digits the
/// assessment measures accuracy on. Both are fixed by this workload
/// (training seed, data seeds, recipe): the assessment walk, and with it
/// the job's cost, depends on the exact network, so only a fixed model
/// gives a compress time that is comparable between runs. The recipe is
/// the repository's standard LeNet-300-100 one (3000 digits, 3 epochs,
/// prune to the paper's densities, 1 masked retraining epoch).
fn fixed_inputs() -> (Network, Dataset) {
    let train = dsz_datagen::digits::dataset(3000, 101);
    let calib = dsz_datagen::digits::dataset(1000, 102);
    let mut net = zoo::build(Arch::LeNet300, Scale::Full, 0xD5_2019);
    let cfg = TrainConfig {
        epochs: 3,
        lr: 0.08,
        ..Default::default()
    };
    dsz_nn::train(&mut net, &train, &cfg, None);
    let (masks, _) = dsz_prune::prune_network(&mut net, Arch::LeNet300.pruning_densities());
    let retrain = TrainConfig {
        epochs: 1,
        lr: cfg.lr * 0.25,
        ..cfg
    };
    dsz_prune::retrain(&mut net, &train, &retrain, &masks);
    (net, calib)
}

/// Stage times of one job, in milliseconds.
#[derive(Debug, Clone, Copy)]
struct JobTimes {
    assess: f64,
    optimize: f64,
    encode: f64,
    decode: f64,
    total: f64,
}

struct JobOutput {
    times: JobTimes,
    assessments: Vec<LayerAssessment>,
    plan: Plan,
    container: CompressedModel,
}

const STAGES: [&str; 5] = ["assess", "optimize", "encode", "decode", "apply"];

/// One compress job: assess → optimize → encode → decode → apply, with a
/// span per stage when `trace` is given. Checks every decoded layer
/// against its bound and the restored network's held-out accuracy
/// against the budget; the checks lie outside the job's latency.
fn job(
    net: &Network,
    eval: &DatasetEvaluator,
    held_out: (&DatasetEvaluator, f64),
    trace: Option<&mut Trace>,
    out: &mut Outcome,
) -> Option<JobOutput> {
    let cfg = AssessmentConfig {
        expected_loss: EXPECTED_LOSS,
        ..Default::default()
    };
    let mut restored = net.clone();
    let mut t = [now_ns(); STAGES.len() + 1];
    let result = (|| {
        let (assessments, _) = assess_network(net, &cfg, eval)?;
        t[1] = now_ns();
        let plan = optimize_for_accuracy(&assessments, cfg.expected_loss)?;
        t[2] = now_ns();
        let (container, _) = encode_with_plan(&assessments, &plan)?;
        t[3] = now_ns();
        let (decoded, _) = decode_model(&container)?;
        t[4] = now_ns();
        apply_decoded(&mut restored, decoded)?;
        t[5] = now_ns();
        Ok::<_, dsz_core::DeepSzError>((assessments, plan, container))
    })();
    let (assessments, plan, container) = match result {
        Ok(r) => r,
        Err(e) => {
            out.op(false, || format!("compress job failed: {e}"));
            return None;
        }
    };
    if let Some(tr) = trace {
        let root = tr.add("job", None, t[0], t[5]);
        for (k, name) in STAGES.iter().enumerate() {
            tr.add(name, Some(root), t[k], t[k + 1]);
        }
    }
    let bounds = check_bounds(
        net,
        &plan,
        plan.layers.iter().map(|c| {
            let i = c.fc.layer_index;
            (i, restored.dense(i).w.data.as_slice())
        }),
    );
    let (held_out, before) = held_out;
    let loss = before - held_out.evaluate(&restored);
    let within_budget = loss <= EXPECTED_LOSS + ACCURACY_TOLERANCE;
    out.op(bounds.is_ok() && within_budget, || match bounds {
        Err(e) => e,
        Ok(()) => format!("accuracy loss {loss} exceeds budget"),
    });
    out.extra("accuracy_loss", loss, "fraction");
    let ms = |a: u64, b: u64| (b - a) as f64 / 1e6;
    Some(JobOutput {
        times: JobTimes {
            assess: ms(t[0], t[1]),
            optimize: ms(t[1], t[2]),
            encode: ms(t[2], t[3]),
            decode: ms(t[3], t[4]),
            total: ms(t[0], t[5]),
        },
        assessments,
        plan,
        container,
    })
}

/// What a phase of back-to-back jobs produced.
struct Phase {
    jobs: Vec<JobOutput>,
    /// Jobs attempted, failed ones included.
    attempted: u64,
    /// Delay between each job falling due and starting, ms.
    lags: Vec<f64>,
    /// Every encode and decode of a chosen plan: each job's own plus
    /// `CODEC_REPEATS` more, ms.
    encodes: Vec<f64>,
    decodes: Vec<f64>,
}

/// Jobs back to back for `seconds` (at least one). After each job its
/// chosen plan is encoded and decoded `CODEC_REPEATS` more times, which
/// must reproduce the container, so `encode_ms` and `decode_ms` rest on
/// more samples than there are jobs.
fn phase(
    net: &Network,
    eval: &DatasetEvaluator,
    held_out: (&DatasetEvaluator, f64),
    seconds: f64,
    mut trace: Option<&mut Trace>,
    out: &mut Outcome,
) -> Phase {
    let start = now_ns();
    let mut p = Phase {
        jobs: Vec::new(),
        attempted: 0,
        lags: Vec::new(),
        encodes: Vec::new(),
        decodes: Vec::new(),
    };
    let mut due = start;
    while p.jobs.is_empty() || (now_ns() - start) as f64 / 1e9 < seconds {
        p.lags.push((now_ns() - due) as f64 / 1e6);
        p.attempted += 1;
        let Some(j) = job(net, eval, held_out, trace.as_deref_mut(), out) else {
            due = now_ns();
            continue;
        };
        if p.jobs
            .first()
            .is_some_and(|first| first.container != j.container)
        {
            out.fail("container bytes differ between repetitions".into());
        }
        p.encodes.push(j.times.encode);
        p.decodes.push(j.times.decode);
        for _ in 0..CODEC_REPEATS {
            let t0 = now_ns();
            let encoded = encode_with_plan(&j.assessments, &j.plan);
            let t1 = now_ns();
            let decoded = decode_model(&j.container);
            let t2 = now_ns();
            let same = matches!(&encoded, Ok((c, _)) if *c == j.container);
            out.op(same && decoded.is_ok(), || {
                "re-encoding the chosen plan changed the container or failed".into()
            });
            p.encodes.push((t1 - t0) as f64 / 1e6);
            p.decodes.push((t2 - t1) as f64 / 1e6);
        }
        p.jobs.push(j);
        due = now_ns();
    }
    p
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let (net, calib) = fixed_inputs();
    let held_out = DatasetEvaluator::new(dsz_datagen::digits::dataset(1000, run.seed_for(1)));
    let before = held_out.evaluate(&net);
    out.extra("accuracy_before", before, "fraction");

    // Set-up: the evaluator and its prefix-activation sweep over the
    // calibration set (the baseline every assessment starts from).
    let mut setups = Vec::new();
    let mut eval = None;
    for _ in 0..SETUP_REPS {
        let t = now_ns();
        let e = DatasetEvaluator::new(calib.clone());
        let ie = IncrementalEvaluator::new(&net, &calib, e.batch);
        std::hint::black_box(ie.baseline());
        setups.push((now_ns() - t) as f64 / 1e9);
        eval = Some(e);
    }
    let eval = eval.expect("set-up ran");
    let held = (&held_out, before);

    // The measured phase is untraced; a traced run adds a second phase
    // with spans, and the difference of their medians is the tracing
    // overhead.
    let seconds = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let main = phase(&net, &eval, held, seconds, None, &mut out);
    let totals_of = |p: &Phase| p.jobs.iter().map(|j| j.times.total).collect::<Vec<f64>>();
    let totals = totals_of(&main);
    if run.trace {
        let mut trace = Trace::default();
        let traced = phase(&net, &eval, held, seconds, Some(&mut trace), &mut out);
        if let (Some(a), Some(b)) = (median(&totals), median(&totals_of(&traced))) {
            out.layer("trace.overhead_ms", b - a, "ms");
        }
        out.spans = crate::trace::summarize(trace.spans());
    }

    let jobs = &main.jobs;
    let col = |f: fn(&JobTimes) -> f64| jobs.iter().map(|j| f(&j.times)).collect::<Vec<f64>>();
    out.e2e("setup_s", median(&setups).expect("set-up ran"), "s");
    closed_loop_metrics(&mut out, &totals, main.attempted, &main.lags, SLO_MS);
    let last = jobs.last().expect("at least one job");
    let model = Model {
        net,
        assessments: last.assessments.clone(),
        plan: last.plan.clone(),
        container: last.container.clone(),
    };
    out.e2e(
        "compression_ratio",
        model.dense_bytes() as f64 / model.container.bytes.len() as f64,
        "x",
    );
    out.e2e("encode_ms", median(&main.encodes).expect("jobs"), "ms");
    out.e2e("decode_ms", median(&main.decodes).expect("jobs"), "ms");
    out.layer("assess.ms", median(&col(|t| t.assess)).expect("jobs"), "ms");
    let points: usize = last.assessments.iter().map(|a| a.points.len()).sum();
    out.layer("assess.points", points as f64, "count");
    out.layer(
        "optimize.ms",
        median(&col(|t| t.optimize)).expect("jobs"),
        "ms",
    );
    out.extra("p99_job_ms", percentile(&totals, 0.99).expect("jobs"), "ms");
    if run.trace {
        let inputs = crate::model::samples(&calib.take(8));
        probes::run(&model, &calib, &inputs, &mut out);
    }
    out
}
