//! Deterministic chaos campaign over the request path
//! (`docs/ROBUSTNESS.md`, "Serving resilience" — replay instructions).
//!
//! Hundreds of seeded schedules drive the full resilience surface at
//! once — injected permanent/transient decode faults, slow layers,
//! mid-batch cancellations, per-request deadlines, retry budgets,
//! bounded queues under both shed policies, and varying cache quotas —
//! and assert only the invariants that hold under *any* thread
//! interleaving:
//!
//! * no panics anywhere on the request path,
//! * every admitted ticket resolves **exactly once** (the quiescence
//!   identity over the serve counters),
//! * every successful output is **bit-identical** to the fault-free
//!   uncached serial reference,
//! * every deadline miss reports `elapsed ≥ budget` (the overshoot
//!   upper bound — at most one layer of forward progress — is
//!   structural: the abort probe runs between layers),
//! * the shared-cache ledger never exceeds its quota.
//!
//! To replay a failing schedule, re-run this test with the same
//! `DSZ_THREADS`; the per-schedule seed is in the panic message.

mod util;

use dsz_serve::chaos::splitmix64;
use dsz_serve::{
    BatchConfig, ChaosConfig, FaultCounts, FaultPlan, ModelRegistry, RetryPolicy, ServeError,
    ServeStats, Server, ServerConfig, ShedConfig, ShedPolicy, SubmitOptions,
};
use std::sync::Arc;
use std::time::Duration;
use util::{bits, fixture, probe, serial_reference};

const SEEDS_PER_CONFIG: u64 = 120;
const SUBMITTERS: usize = 3;
const REQUESTS_PER_SUBMITTER: usize = 4;

/// Two fault climates: gentle (every band represented, mostly clean)
/// and hostile (roughly a third of layer probes inject something).
fn chaos_configs() -> [ChaosConfig; 2] {
    [
        ChaosConfig {
            permanent_decode_per_mille: 15,
            transient_decode_per_mille: 60,
            slow_layer_per_mille: 40,
            slow_layer_ms: 1,
            cancel_per_mille: 40,
        },
        ChaosConfig {
            permanent_decode_per_mille: 60,
            transient_decode_per_mille: 180,
            slow_layer_per_mille: 80,
            slow_layer_ms: 1,
            cancel_per_mille: 100,
        },
    ]
}

/// One request's script, drawn deterministically from the schedule seed.
struct Req {
    input_idx: usize,
    deadline: Option<Duration>,
    retries: u32,
    register_cancel: bool,
}

#[allow(clippy::too_many_arguments)]
fn run_schedule(
    net: &dsz_nn::Network,
    container: &[u8],
    inputs: &[Vec<f32>],
    refs: &[Vec<u32>],
    cfg: ChaosConfig,
    seed: u64,
) -> (FaultCounts, ServeStats) {
    let mut rng = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(cfg.transient_decode_per_mille));
    // Seeded server shape: quota, batch width, queue bound, policies.
    let quota = [0usize, 3000, 1 << 20][(splitmix64(&mut rng) % 3) as usize];
    let max_batch = [1usize, 2, 4, 8][(splitmix64(&mut rng) % 4) as usize];
    let depth = [2usize, 8, usize::MAX][(splitmix64(&mut rng) % 3) as usize];
    let policy = if splitmix64(&mut rng).is_multiple_of(2) {
        ShedPolicy::RejectNew
    } else {
        ShedPolicy::DropOldest
    };
    let quarantine_after = [0u32, 3][(splitmix64(&mut rng) % 2) as usize];
    let reg = Arc::new(ModelRegistry::new(quota));
    let plan = FaultPlan::new(seed ^ 0xC0A5, cfg);
    reg.set_forward_hook(Some(Arc::clone(&plan) as Arc<dyn dsz_core::ForwardHook>));
    reg.load("m", net, container).unwrap();
    let srv = Arc::new(Server::with_config(
        Arc::clone(&reg),
        ServerConfig {
            batch: BatchConfig { max_batch },
            shed: ShedConfig {
                max_queue_depth: depth,
                policy,
            },
            // Zero backoff: retries re-drain immediately, so schedules
            // stay fast and wall-clock never enters the fault logic.
            retry: RetryPolicy {
                base: Duration::ZERO,
                ..RetryPolicy::default()
            },
            quarantine_after,
        },
    ));
    let scripts: Vec<Vec<Req>> = (0..SUBMITTERS)
        .map(|_| {
            (0..REQUESTS_PER_SUBMITTER)
                .map(|_| Req {
                    input_idx: (splitmix64(&mut rng) as usize) % inputs.len(),
                    deadline: match splitmix64(&mut rng) % 4 {
                        0 => None,
                        1 => Some(Duration::ZERO),
                        2 => Some(Duration::from_millis(1)),
                        _ => Some(Duration::from_secs(5)),
                    },
                    retries: (splitmix64(&mut rng) % 4) as u32,
                    register_cancel: splitmix64(&mut rng).is_multiple_of(3),
                })
                .collect()
        })
        .collect();
    std::thread::scope(|s| {
        for script in scripts {
            let srv = Arc::clone(&srv);
            let plan = Arc::clone(&plan);
            s.spawn(move || {
                // Submit the whole script first (building real queue
                // depth so shedding and batching both engage), then
                // wait everything.
                let mut waits = Vec::new();
                for req in script {
                    match srv.submit_with(
                        "m",
                        inputs[req.input_idx].clone(),
                        SubmitOptions {
                            deadline: req.deadline,
                            retries: req.retries,
                        },
                    ) {
                        Ok(ticket) => {
                            if req.register_cancel {
                                plan.register(ticket.cancel_token());
                            }
                            waits.push((req, ticket));
                        }
                        Err(ServeError::Overloaded { .. } | ServeError::Quarantined { .. }) => {}
                        Err(other) => {
                            panic!("chaos seed {seed}: unexpected submit error {other:?}")
                        }
                    }
                }
                for (req, ticket) in waits {
                    match ticket.wait() {
                        Ok(out) => assert_eq!(
                            bits(&out),
                            refs[req.input_idx],
                            "chaos seed {seed}: success diverged from serial reference"
                        ),
                        Err(ServeError::DeadlineExceeded { elapsed, budget }) => {
                            assert!(
                                elapsed >= budget,
                                "chaos seed {seed}: miss under budget ({elapsed:?} < {budget:?})"
                            )
                        }
                        Err(
                            ServeError::Cancelled
                            | ServeError::Model { .. }
                            | ServeError::Overloaded { .. },
                        ) => {}
                        Err(other) => {
                            panic!("chaos seed {seed}: unexpected wait error {other:?}")
                        }
                    }
                }
            });
        }
    });
    let stats = srv.stats();
    assert_eq!(
        stats.submitted,
        stats.completed + stats.cancelled + stats.failed + stats.deadline_misses + stats.shed,
        "chaos seed {seed}: a ticket resolved zero or two times ({stats:?})"
    );
    let cache = reg.cache_stats();
    assert!(
        cache.high_water <= quota,
        "chaos seed {seed}: cache ledger {0} over quota {quota}",
        cache.high_water
    );
    (plan.counts(), stats)
}

#[test]
fn chaos_campaign_holds_invariants_across_seeded_schedules() {
    let (net, container) = fixture(1);
    let inputs: Vec<Vec<f32>> = (0..4).map(|i| probe(0x7000 + i)).collect();
    let refs: Vec<Vec<u32>> = inputs
        .iter()
        .map(|x| bits(&serial_reference(&net, &container, x)))
        .collect();
    let mut faults = FaultCounts::default();
    let mut total = ServeStats::default();
    for cfg in chaos_configs() {
        for seed in 0..SEEDS_PER_CONFIG {
            let (c, s) = run_schedule(&net, &container, &inputs, &refs, cfg, seed);
            faults.permanent_decode += c.permanent_decode;
            faults.transient_decode += c.transient_decode;
            faults.slow_layers += c.slow_layers;
            faults.cancels += c.cancels;
            faults.clean += c.clean;
            total.submitted += s.submitted;
            total.completed += s.completed;
            total.cancelled += s.cancelled;
            total.failed += s.failed;
            total.deadline_misses += s.deadline_misses;
            total.shed += s.shed;
            total.rejected += s.rejected;
            total.retries += s.retries;
            total.retry_successes += s.retry_successes;
        }
    }
    // Coverage proof: the campaign genuinely exercised every fault band
    // and every resolution bucket — a quiet pass is not a pass.
    assert!(faults.permanent_decode > 0, "no permanent faults fired");
    assert!(faults.transient_decode > 0, "no transient faults fired");
    assert!(faults.slow_layers > 0, "no slow layers fired");
    assert!(faults.cancels > 0, "no mid-batch cancels fired");
    assert!(faults.clean > 0, "no clean layer probes at all");
    assert!(total.completed > 0, "campaign never succeeded a request");
    assert!(total.failed > 0, "campaign never failed a request");
    assert!(
        total.deadline_misses > 0,
        "campaign never missed a deadline"
    );
    assert!(total.retries > 0, "campaign never retried");
    assert!(
        total.retry_successes > 0,
        "campaign never recovered via retry"
    );
    assert!(total.shed + total.rejected > 0, "campaign never shed load");
}

/// Hot-swap under live traffic: corrupt replacement containers are
/// rejected by the checked load over and over while two threads hammer
/// the id — and every single response comes from the original
/// generation, bit-identical.
#[test]
fn checked_hot_swap_rejection_under_traffic_keeps_serving() {
    let (net, container) = fixture(1);
    let bad = dsz_core::rewrite_layer_data(&container, 0, |data| {
        data.truncate(data.len() / 2);
    })
    .unwrap();
    let reg = Arc::new(ModelRegistry::new(1 << 20));
    let v1 = reg.load_checked("m", &net, &container).unwrap();
    let srv = Arc::new(Server::new(Arc::clone(&reg), BatchConfig { max_batch: 4 }));
    let input = probe(0xD00D);
    let want = bits(&serial_reference(&net, &container, &input));
    std::thread::scope(|s| {
        for _ in 0..2 {
            let srv = Arc::clone(&srv);
            let input = input.clone();
            let want = want.clone();
            s.spawn(move || {
                for _ in 0..40 {
                    assert_eq!(
                        bits(&srv.infer("m", input.clone()).unwrap()),
                        want,
                        "request served by a generation that should not exist"
                    );
                }
            });
        }
        for _ in 0..5 {
            match reg.load_checked("m", &net, &bad) {
                Err(ServeError::Degraded { .. }) => {}
                other => panic!("corrupt swap accepted: {other:?}"),
            }
        }
    });
    assert!(
        Arc::ptr_eq(&reg.get("m").unwrap(), &v1),
        "rejected swaps must leave the original generation installed"
    );
    assert_eq!(bits(&srv.infer("m", input.clone()).unwrap()), want);
}
