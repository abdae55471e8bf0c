//! `serve_warm` and `serve_churn`: LeNet-300-100 tenants served through
//! `dsz_serve` — registry, shared decoded-layer cache, micro-batching.
//!
//! Each run has two seeded phases after set-up:
//!
//! * **Fixed rate** — an open loop. Poisson arrivals at the workload's
//!   fixed rate; each request is timed from when it was due, so a stall
//!   also charges the requests queued behind it.
//! * **Saturation** — the generator keeps a bounded backlog full, so the
//!   offered load stays far above capacity and the server never idles.
//!
//! Load comes from one thread of this process that both submits and
//! waits. Serving in `dsz_serve` is driven by waiters (`Ticket::wait`
//! elects the batch leader and runs the batch), so the load thread runs every
//! batch and leaves the other cores to the program's worker pool; a
//! request counts as delivered when its wait returns.

use crate::model::{batch_of, check_bounds, same_bits, samples, Model};
use crate::probes::{self, FC_LABELS};
use crate::report::Outcome;
use crate::schedule::{poisson_schedule, uniform_sequence, Arrival};
use crate::stats::{median, percentile};
use crate::trace::{now_ns, Trace};
use crate::Run;
use dsz_core::{
    decode_model, encode_with_plan, CompressedFcModel, DataCodecKind, DeepSzError, ForwardHook,
};
use dsz_nn::{zoo, Arch, Network, Scale};
use dsz_serve::{BatchConfig, ModelRegistry, ServeError, Server, Ticket};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// One serving workload's definition. The rate and the latency limit are
/// fixed here, never derived from a run.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Tenants loaded into one registry.
    pub tenants: usize,
    /// How many tenants' decoded layers the cache quota holds.
    pub cached: usize,
    /// Arrival rate of the fixed-rate phase, requests per second.
    pub rate_rps: f64,
    /// Latency limit for `slo_attainment`, milliseconds from due time.
    pub slo_ms: f64,
}

/// Two tenants and a quota that holds both: after set-up every layer
/// lookup hits, so queueing, batching and matmul do all the work.
pub const WARM: Spec = Spec {
    tenants: 2,
    cached: 2,
    rate_rps: 600.0,
    slo_ms: 10.0,
};

/// Six tenants, uniformly chosen, and a quota that holds two: most
/// requests decode their layers, insert them and evict others.
pub const CHURN: Spec = Spec {
    tenants: 6,
    cached: 2,
    rate_rps: 200.0,
    slo_ms: 10.0,
};

/// The paper's chosen LeNet-300-100 error bounds (ip1, ip2, ip3).
const ERROR_BOUNDS: [f64; 3] = [2e-2, 3e-2, 4e-2];
/// Micro-batch width limit.
const MAX_BATCH: usize = 8;
/// Distinct request inputs (seeded digits).
const INPUTS: usize = 64;
/// Requests in flight during saturation.
const BACKLOG: usize = 32;
/// Share of the run given to the fixed-rate phase.
const FIXED_SHARE: f64 = 0.7;
/// Width of the windows whose median is reported: the completion rate
/// for `sat_rps`, the latency figures for `p50_ms`, `p90_ms` and
/// `slo_attainment`.
const WINDOW_S: f64 = 0.5;
/// Encode and decode repetitions per tenant in each of the three codec
/// bursts behind `encode_ms` and `decode_ms`.
const CODEC_REPS: usize = 10;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 11;
/// Requests per tenant in the set-up's warm pass (one batch).
const WARM_REQUESTS: usize = MAX_BATCH;

struct Tenant {
    id: String,
    model: Model,
    /// Uncached per-sample output for every input, bit for bit.
    reference: Vec<Vec<f32>>,
}

/// Tenant `k`: a LeNet-300-100 with trained-like weights pruned to the
/// paper's densities, encoded at the paper's error bounds.
fn tenant(seed: u64, k: usize, inputs: &[Vec<f32>]) -> Tenant {
    let s = seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut net: Network = zoo::build(Arch::LeNet300, Scale::Full, s);
    let densities = Arch::LeNet300.pruning_densities();
    for (li, fc) in net.fc_layers().into_iter().enumerate() {
        let mut dense =
            dsz_datagen::weights::trained_fc_weights(fc.rows, fc.cols, s ^ (li as u64) << 8);
        dsz_prune::prune_to_density(&mut dense, densities[li]);
        net.dense_mut(fc.layer_index).w.data = dense;
    }
    let model =
        Model::with_fixed_plan(net, &ERROR_BOUNDS, DataCodecKind::Sz).expect("tenant encodes");
    let uncached = CompressedFcModel::new(&model.net, &model.container).expect("tenant loads");
    let reference = inputs
        .chunks(1)
        .map(|x| {
            let batch = batch_of(&model.net, x, 1);
            uncached.forward(&batch).expect("reference forward").0.data
        })
        .collect();
    Tenant {
        id: format!("m{k}"),
        model,
        reference,
    }
}

/// Forward hook that stamps each fc layer boundary, attached only in
/// the traced phase.
#[derive(Debug, Default)]
struct LayerClock {
    events: Mutex<Vec<(u64, usize)>>,
}

impl LayerClock {
    fn log(&self) -> std::sync::MutexGuard<'_, Vec<(u64, usize)>> {
        self.events.lock().expect("layer clock poisoned")
    }
}

impl ForwardHook for LayerClock {
    fn before_layer(&self, layer_index: usize) -> Result<(), DeepSzError> {
        self.log().push((now_ns(), layer_index));
        Ok(())
    }
}

/// A registry with every tenant loaded, a server over it, and a warm
/// pass of `WARM_REQUESTS` requests per tenant, which fills the cache and
/// wakes the worker pool.
fn start(
    spec: &Spec,
    tenants: &[Tenant],
    inputs: &[Vec<f32>],
    hook: Option<Arc<LayerClock>>,
) -> Result<Server, String> {
    let quota = spec.cached * tenants[0].model.dense_bytes();
    let registry = Arc::new(ModelRegistry::new(quota));
    if let Some(h) = hook {
        registry.set_forward_hook(Some(h as Arc<dyn ForwardHook>));
    }
    for t in tenants {
        registry
            .load(t.id.clone(), &t.model.net, &t.model.container.bytes)
            .map_err(|e| e.to_string())?;
    }
    let server = Server::new(
        registry,
        BatchConfig {
            max_batch: MAX_BATCH,
        },
    );
    for t in tenants {
        let tickets = (0..WARM_REQUESTS)
            .map(|i| server.submit(&t.id, inputs[i].clone()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        for (i, ticket) in tickets.into_iter().enumerate() {
            let y = ticket.wait().map_err(|e| e.to_string())?;
            if !same_bits(&y, &t.reference[i]) {
                return Err(format!("warm request to {} returned a wrong output", t.id));
            }
        }
    }
    Ok(server)
}

/// Spins until `due`. The load thread only waits here when nothing is
/// outstanding, so the spin takes no core from serving; a sleep would add
/// the host's wake-up delay (tens of microseconds or more) to every
/// latency.
fn wait_until(due: u64) {
    while now_ns() < due {
        std::hint::spin_loop();
    }
}

/// What the load thread saw of one request.
struct Delivery {
    arrival: Arrival,
    due_ns: u64,
    submitted_ns: u64,
    done_ns: u64,
    ok: bool,
    /// Layer-clock events recorded while this request's wait ran a batch.
    events: Range<usize>,
}

/// A submitted request the load thread has not waited on yet.
struct InFlight {
    arrival: Arrival,
    due_ns: u64,
    submitted_ns: u64,
    ticket: Result<Ticket, ServeError>,
}

impl InFlight {
    fn submit(
        server: &Server,
        tenants: &[Tenant],
        inputs: &[Vec<f32>],
        a: Arrival,
        due_ns: u64,
    ) -> Self {
        let submitted_ns = now_ns();
        let ticket = server.submit(&tenants[a.tenant].id, inputs[a.input].clone());
        Self {
            arrival: a,
            due_ns,
            submitted_ns,
            ticket,
        }
    }

    /// Waits for the request (running its batch if no earlier wait did)
    /// and checks its output bit for bit.
    fn settle(self, tenants: &[Tenant], clock: Option<&LayerClock>, out: &mut Outcome) -> Delivery {
        let a = self.arrival;
        let ev0 = clock.map_or(0, |c| c.log().len());
        let res = self.ticket.and_then(Ticket::wait);
        let done_ns = now_ns();
        let ev1 = clock.map_or(0, |c| c.log().len());
        let expected = &tenants[a.tenant].reference[a.input];
        let ok = matches!(&res, Ok(y) if same_bits(y, expected));
        out.op(ok, || match &res {
            Ok(_) => format!(
                "{} returned an output that differs from the reference",
                tenants[a.tenant].id
            ),
            Err(e) => format!("{} failed: {e}", tenants[a.tenant].id),
        });
        Delivery {
            arrival: a,
            due_ns: self.due_ns,
            submitted_ns: self.submitted_ns,
            done_ns,
            ok,
            events: ev0..ev1,
        }
    }
}

/// The fixed-rate phase. One load thread submits every request that
/// has fallen due, then waits on the oldest outstanding one; with
/// nothing outstanding it waits for the next due time. Serving runs
/// only inside waits, so a request that falls due during a batch is
/// submitted when that batch ends and joins the next one, as it would
/// have had it been submitted on time; the delay counts in its latency
/// and in the generator lag.
fn open_loop(
    server: &Server,
    tenants: &[Tenant],
    inputs: &[Vec<f32>],
    schedule: &[Arrival],
    clock: Option<&LayerClock>,
    out: &mut Outcome,
) -> Vec<Delivery> {
    let t0 = now_ns() + 1_000_000;
    let mut pending: VecDeque<InFlight> = VecDeque::new();
    let mut delivered = Vec::with_capacity(schedule.len());
    let mut next = 0;
    loop {
        let now = now_ns();
        while next < schedule.len() && t0 + schedule[next].due_ns <= now {
            let a = schedule[next];
            pending.push_back(InFlight::submit(server, tenants, inputs, a, t0 + a.due_ns));
            next += 1;
        }
        if let Some(r) = pending.pop_front() {
            delivered.push(r.settle(tenants, clock, out));
        } else if next < schedule.len() {
            wait_until(t0 + schedule[next].due_ns);
        } else {
            return delivered;
        }
    }
}

/// The saturation phase: `BACKLOG` requests stay in flight for
/// `seconds`, the load thread topping the backlog up after every wait.
/// Returns the completion rate of each full window.
fn saturate(
    server: &Server,
    tenants: &[Tenant],
    inputs: &[Vec<f32>],
    sequence: &[Arrival],
    seconds: f64,
    out: &mut Outcome,
) -> Vec<f64> {
    let start = now_ns();
    let end = start + (seconds * 1e9) as u64;
    let mut pending: VecDeque<InFlight> = VecDeque::new();
    let mut done_in_time = Vec::new();
    let mut k = 0;
    loop {
        let now = now_ns();
        while now < end && pending.len() < BACKLOG {
            let a = sequence[k % sequence.len()];
            pending.push_back(InFlight::submit(server, tenants, inputs, a, now));
            k += 1;
        }
        let Some(r) = pending.pop_front() else { break };
        let d = r.settle(tenants, None, out);
        if d.ok && d.done_ns < end {
            done_in_time.push(d.done_ns);
        }
    }
    let windows = ((seconds / WINDOW_S) as usize).max(1);
    let mut counts = vec![0u64; windows];
    for d in done_in_time {
        let w = ((d - start) as f64 / 1e9 / WINDOW_S) as usize;
        if w < windows {
            counts[w] += 1;
        }
    }
    counts.iter().map(|&c| c as f64 / WINDOW_S).collect()
}

/// Every admitted request resolved exactly once.
fn check_quiescent(server: &Server, phase: &str, out: &mut Outcome) {
    let s = server.stats();
    let resolved = s.completed + s.cancelled + s.failed + s.deadline_misses + s.shed;
    if s.submitted != resolved {
        out.fail(format!(
            "after the {phase} phase {} requests were submitted but {resolved} resolved",
            s.submitted
        ));
    }
}

fn latencies_ms(deliveries: &[Delivery]) -> Vec<f64> {
    deliveries
        .iter()
        .filter(|d| d.ok)
        .map(|d| (d.done_ns - d.due_ns) as f64 / 1e6)
        .collect()
}

/// Latency figures of one fixed-rate window.
#[derive(Debug, Clone, Copy)]
struct Window {
    p50_ms: f64,
    p90_ms: f64,
    attainment: f64,
}

/// Splits the fixed-rate phase into `WINDOW_S` windows by due time and
/// measures each: p50 and p90 of its delivered requests, and the share
/// of its requests delivered within `slo_ms` (a failure is a miss). The
/// workload reports the median window, so a host stall that spoils one
/// window does not move the result.
fn windows(deliveries: &[Delivery], slo_ms: f64) -> Vec<Window> {
    let mut by_window: Vec<Vec<&Delivery>> = Vec::new();
    for d in deliveries {
        let w = (d.arrival.due_ns as f64 / 1e9 / WINDOW_S) as usize;
        if by_window.len() <= w {
            by_window.resize(w + 1, Vec::new());
        }
        by_window[w].push(d);
    }
    by_window
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| {
            let lat: Vec<f64> = w
                .iter()
                .filter(|d| d.ok)
                .map(|d| (d.done_ns - d.due_ns) as f64 / 1e6)
                .collect();
            let within = lat.iter().filter(|&&l| l <= slo_ms).count();
            Window {
                p50_ms: percentile(&lat, 0.5).unwrap_or(f64::INFINITY),
                p90_ms: percentile(&lat, 0.9).unwrap_or(f64::INFINITY),
                attainment: within as f64 / w.len() as f64,
            }
        })
        .collect()
}

/// Request spans of a traced fixed-rate phase: `request` (due →
/// delivered) with children `queue` (due → its batch's first layer) and
/// `forward` (the batch), and `layer.<fc>` under `forward`. A batch is
/// recognised by the layer events its leader's wait recorded; the
/// requests of the same tenant that follow the leader and were submitted
/// before the batch began ride in it, up to the batch width.
fn request_spans(deliveries: &[Delivery], events: &[(u64, usize)], fc_index: &[usize]) -> Trace {
    struct Batch {
        start: u64,
        end: u64,
        events: Range<usize>,
    }
    let mut trace = Trace::default();
    let mut batches: Vec<Batch> = Vec::new();
    let mut open: Vec<Option<(usize, usize)>> = Vec::new();
    for d in deliveries {
        let t = d.arrival.tenant;
        if open.len() <= t {
            open.resize(t + 1, None);
        }
        let batch = if !d.events.is_empty() {
            batches.push(Batch {
                start: events[d.events.start].0,
                end: d.done_ns,
                events: d.events.clone(),
            });
            open[t] = Some((batches.len() - 1, MAX_BATCH - 1));
            Some(batches.len() - 1)
        } else {
            match open[t] {
                Some((b, room)) if room > 0 && d.submitted_ns < batches[b].start => {
                    open[t] = Some((b, room - 1));
                    Some(b)
                }
                _ => None,
            }
        };
        let req = trace.add("request", None, d.due_ns, d.done_ns);
        let Some(b) = batch.map(|b| &batches[b]) else {
            continue;
        };
        trace.add("queue", Some(req), d.due_ns, b.start);
        let fwd = trace.add("forward", Some(req), b.start, b.end);
        for j in b.events.clone() {
            let (at, layer) = events[j];
            let until = if j + 1 < b.events.end {
                events[j + 1].0
            } else {
                b.end
            };
            let label = fc_index
                .iter()
                .position(|&li| li == layer)
                .map_or("other", |p| FC_LABELS[p]);
            trace.add(&format!("layer.{label}"), Some(fwd), at, until);
        }
    }
    trace
}

/// Each tenant's container encoded again from its plan and decoded,
/// `CODEC_REPS` times: identical bytes every time, every layer within its
/// bound. Runs before, between and after the serving phases, so the
/// medians sample the host at three points of the run.
fn codec_burst(
    tenants: &[Tenant],
    encodes: &mut Vec<f64>,
    decodes: &mut Vec<f64>,
    out: &mut Outcome,
) {
    for t in tenants {
        let m = &t.model;
        for _ in 0..CODEC_REPS {
            let t0 = now_ns();
            let encoded = encode_with_plan(&m.assessments, &m.plan);
            let t1 = now_ns();
            let decoded = decode_model(&m.container);
            let t2 = now_ns();
            let verdict = match (&encoded, &decoded) {
                (Ok((c, _)), Ok((layers, _))) if *c == m.container => check_bounds(
                    &m.net,
                    &m.plan,
                    layers.iter().map(|d| (d.layer_index, d.dense.as_slice())),
                ),
                (Ok(_), Ok(_)) => Err("container bytes differ between repetitions".into()),
                (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
            };
            out.op(verdict.is_ok(), || verdict.clone().unwrap_err());
            encodes.push((t1 - t0) as f64 / 1e6);
            decodes.push((t2 - t1) as f64 / 1e6);
        }
    }
}

pub fn run(spec: &Spec, run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let digits = dsz_datagen::digits::dataset(INPUTS, run.seed_for(4));
    let inputs = samples(&digits);
    let tenants: Vec<Tenant> = (0..spec.tenants)
        .map(|k| tenant(run.seed_for(5), k, &inputs))
        .collect();

    let mut encodes = Vec::new();
    let mut decodes = Vec::new();
    codec_burst(&tenants, &mut encodes, &mut decodes, &mut out);
    let ratios: Vec<f64> = tenants
        .iter()
        .map(|t| t.model.dense_bytes() as f64 / t.model.container.bytes.len() as f64)
        .collect();

    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        let t = now_ns();
        let s = start(spec, &tenants, &inputs, None).expect("set-up");
        setups.push((now_ns() - t) as f64 / 1e9);
        server = Some(s);
    }
    let server = server.expect("set-up ran");
    let cache0 = server.registry().cache_stats();
    let serve0 = server.stats();

    // Trace mode splits the run three ways: untraced fixed rate,
    // saturation, then the traced fixed-rate phase on its own server.
    let (fixed_s, sat_s) = if run.trace {
        (run.seconds / 3.0, run.seconds / 3.0)
    } else {
        (run.seconds * FIXED_SHARE, run.seconds * (1.0 - FIXED_SHARE))
    };
    let schedule = poisson_schedule(
        run.seed_for(6),
        spec.rate_rps,
        fixed_s,
        spec.tenants,
        INPUTS,
    );
    let fixed = open_loop(&server, &tenants, &inputs, &schedule, None, &mut out);
    check_quiescent(&server, "fixed-rate", &mut out);
    codec_burst(&tenants, &mut encodes, &mut decodes, &mut out);
    let sequence = uniform_sequence(run.seed_for(7), 1 << 16, spec.tenants, INPUTS);
    let sat_rates = saturate(&server, &tenants, &inputs, &sequence, sat_s, &mut out);
    check_quiescent(&server, "saturation", &mut out);
    codec_burst(&tenants, &mut encodes, &mut decodes, &mut out);

    let lat = latencies_ms(&fixed);
    let fixed_windows = windows(&fixed, spec.slo_ms);
    let mid = |f: fn(&Window) -> f64| {
        median(&fixed_windows.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    out.e2e("setup_s", median(&setups).expect("set-up ran"), "s");
    out.e2e("sat_rps", median(&sat_rates).expect("windows"), "req/s");
    out.e2e("p50_ms", mid(|w| w.p50_ms), "ms");
    out.e2e("slo_attainment", mid(|w| w.attainment), "fraction");
    out.e2e("compression_ratio", median(&ratios).expect("tenants"), "x");
    out.e2e("encode_ms", median(&encodes).expect("reps"), "ms");
    out.e2e("decode_ms", median(&decodes).expect("reps"), "ms");

    out.layer("p90_ms", mid(|w| w.p90_ms), "ms");
    let p99 = percentile(&lat, 0.99).unwrap_or(f64::NAN);
    out.layer("p99_ms", p99, "ms");
    let lags: Vec<f64> = fixed
        .iter()
        .map(|d| d.submitted_ns.saturating_sub(d.due_ns) as f64 / 1e6)
        .collect();
    out.layer(
        "gen.lag_p99_ms",
        percentile(&lags, 0.99).expect("requests"),
        "ms",
    );
    let serve1 = server.stats();
    let batches = serve1.batches - serve0.batches;
    let samples_served = serve1.batched_samples - serve0.batched_samples;
    out.layer("batch.count", batches as f64, "count");
    out.layer(
        "batch.avg_width",
        samples_served as f64 / batches.max(1) as f64,
        "req",
    );
    let high_water = tenants
        .iter()
        .filter_map(|t| server.queue_stats(&t.id))
        .map(|q| q.depth_high_water)
        .max()
        .unwrap_or(0);
    out.layer("queue.high_water", high_water as f64, "req");
    let cache1 = server.registry().cache_stats();
    let (hits, misses) = (cache1.hits - cache0.hits, cache1.misses - cache0.misses);
    out.layer(
        "cache.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "fraction",
    );
    out.layer(
        "cache.insertions",
        (cache1.insertions - cache0.insertions) as f64,
        "count",
    );
    out.layer(
        "cache.evictions",
        (cache1.evictions - cache0.evictions) as f64,
        "count",
    );
    out.extra("fixed_requests", fixed.len() as f64, "count");
    out.extra("p99_ms", p99, "ms");
    out.extra(
        "cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "fraction",
    );

    if run.trace {
        let clock = Arc::new(LayerClock::default());
        let traced_server =
            start(spec, &tenants, &inputs, Some(Arc::clone(&clock))).expect("traced set-up");
        clock.log().clear();
        let traced = open_loop(
            &traced_server,
            &tenants,
            &inputs,
            &schedule,
            Some(&clock),
            &mut out,
        );
        check_quiescent(&traced_server, "traced fixed-rate", &mut out);
        let traced_windows = windows(&traced, spec.slo_ms);
        let traced_p50 = median(&traced_windows.iter().map(|w| w.p50_ms).collect::<Vec<_>>());
        out.layer(
            "trace.overhead_ms",
            traced_p50.unwrap_or(f64::NAN) - mid(|w| w.p50_ms),
            "ms",
        );
        let fc_index: Vec<usize> = tenants[0]
            .model
            .fcs()
            .iter()
            .map(|f| f.layer_index)
            .collect();
        let events = clock.log().clone();
        let trace = request_spans(&traced, &events, &fc_index);
        out.spans = crate::trace::summarize(trace.spans());
        probes::run(&tenants[0].model, &digits, &inputs, &mut out);
    }
    out
}
