//! Registry lifecycle, cross-model cache sharing, cancellation, and
//! bit-identity of served results against the uncached serial path
//! (`docs/SERVING.md`).

mod util;

use dsz_core::{DeepSzError, ForwardHook};
use dsz_serve::{
    BatchConfig, ModelRegistry, RetryPolicy, ServeError, ServeStats, Server, ServerConfig,
    ShedConfig, ShedPolicy, SubmitOptions,
};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;
use util::{bits, fixture, probe, serial_reference, FEATURES};

/// Resident bytes of the fixture's decoded fc payloads, `(larger,
/// smaller)`: the CSR built from each layer's gap stream, which the
/// container stores losslessly, so the original layer's CSR has the
/// decoded one's size.
fn weight_bytes(net: &dsz_nn::Network) -> (usize, usize) {
    let size = |i: usize| {
        let w = &net.dense(i).w;
        let pair = dsz_sparse::PairArray::from_dense(&w.data, w.rows, w.cols);
        pair.to_csr().unwrap().size_bytes()
    };
    let (fc0, fc1) = (size(0), size(1));
    assert!(fc0 > fc1, "fc0 is the larger layer");
    (fc0, fc1)
}

fn server(quota: usize, max_batch: usize) -> Server {
    Server::new(
        Arc::new(ModelRegistry::new(quota)),
        BatchConfig { max_batch },
    )
}

#[test]
fn registry_load_get_unload_lifecycle() {
    let (net, container) = fixture(1);
    let reg = ModelRegistry::new(1 << 20);
    assert!(reg.get("m").is_none());
    let entry = reg.load("m", &net, &container).unwrap();
    assert_eq!(entry.id(), "m");
    assert_eq!(entry.layer_count(), 2);
    assert_eq!(entry.input_features(), FEATURES);
    assert_eq!(entry.container_bytes(), container.len());
    assert_eq!(reg.models(), vec!["m".to_string()]);
    assert!(reg.unload("m"));
    assert!(!reg.unload("m"), "second unload is a no-op");
    assert!(reg.get("m").is_none());
    assert_eq!(reg.cache_stats().live_bytes, 0, "unload released the cache");
}

#[test]
fn load_rejects_garbage_container() {
    let (net, _) = fixture(1);
    let reg = ModelRegistry::new(0);
    match reg.load("bad", &net, b"not a container") {
        Err(ServeError::Load(_)) => {}
        other => panic!("expected Load error, got {other:?}"),
    }
    assert!(reg.get("bad").is_none(), "failed load must not register");
}

#[test]
fn served_results_bit_identical_at_every_quota() {
    let (net, container) = fixture(1);
    let input = probe(0xCAFE);
    let want = bits(&serial_reference(&net, &container, &input));
    let (big, small) = weight_bytes(&net);
    // Including quota 0: the shared cache must be invisible to results.
    // Then below the smaller layer, exactly the larger one, and both.
    for quota in [0usize, small - 1, big, 1 << 20] {
        let srv = server(quota, 4);
        srv.registry().load("m", &net, &container).unwrap();
        for pass in 0..3 {
            let out = srv.infer("m", input.clone()).unwrap();
            assert_eq!(
                bits(&out),
                want,
                "quota {quota} pass {pass} diverged from the uncached serial path"
            );
        }
        let hwm = srv.registry().cache_stats().high_water;
        assert!(hwm <= quota, "quota {quota}: cache high-water {hwm} over");
    }
}

#[test]
fn unknown_model_and_shape_mismatch_are_values() {
    let (net, container) = fixture(1);
    let srv = server(1 << 20, 4);
    srv.registry().load("m", &net, &container).unwrap();
    assert_eq!(
        srv.infer("ghost", probe(1)),
        Err(ServeError::UnknownModel("ghost".to_string()))
    );
    assert_eq!(
        srv.infer("m", vec![0.0; FEATURES + 1]),
        Err(ServeError::ShapeMismatch {
            expected: FEATURES,
            got: FEATURES + 1
        })
    );
}

#[test]
fn hot_swap_serves_new_weights_and_purges_old_entries() {
    let (net, container_v1) = fixture(1);
    let (_, container_v2) = fixture(2); // same shapes, different weights
    let input = probe(0xABCD);
    let want_v1 = bits(&serial_reference(&net, &container_v1, &input));
    let want_v2 = bits(&serial_reference(&net, &container_v2, &input));
    assert_ne!(want_v1, want_v2, "fixture seeds must differ");

    let srv = server(1 << 20, 4);
    srv.registry().load("m", &net, &container_v1).unwrap();
    // Warm the cache on generation 1.
    for _ in 0..2 {
        assert_eq!(bits(&srv.infer("m", input.clone()).unwrap()), want_v1);
    }
    srv.registry().load("m", &net, &container_v2).unwrap();
    // Every request after the swap sees generation 2 — a stale cache hit
    // would reproduce want_v1.
    for _ in 0..3 {
        assert_eq!(
            bits(&srv.infer("m", input.clone()).unwrap()),
            want_v2,
            "hot-swapped id served stale weights"
        );
    }
}

#[test]
fn cross_model_cache_sharing_hits_after_warmup() {
    let (net_a, container_a) = fixture(1);
    let (net_b, container_b) = fixture(7);
    let srv = server(1 << 20, 4); // ample: both models fit
    srv.registry().load("a", &net_a, &container_a).unwrap();
    srv.registry().load("b", &net_b, &container_b).unwrap();
    let input = probe(3);
    for _ in 0..4 {
        srv.infer("a", input.clone()).unwrap();
        srv.infer("b", input.clone()).unwrap();
    }
    let s = srv.registry().cache_stats();
    // Pass 1 decodes both models' 2 layers (4 misses); passes 2–4 are
    // pure hits (12) for both tenants out of one cache.
    assert_eq!(s.misses, 4);
    assert_eq!(s.hits, 12);
    assert!(s.hit_rate() > 0.7, "hit rate {} too low", s.hit_rate());
}

#[test]
fn cancel_before_wait_resolves_cancelled_without_executing() {
    let (net, container) = fixture(1);
    let srv = server(1 << 20, 4);
    srv.registry().load("m", &net, &container).unwrap();
    let ticket = srv.submit("m", probe(5)).unwrap();
    ticket.cancel();
    assert_eq!(ticket.wait(), Err(ServeError::Cancelled));
    let stats = srv.stats();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.batches, 0, "a lone cancelled request costs no batch");
    // The server still serves afterwards.
    let out = srv.infer("m", probe(5)).unwrap();
    assert_eq!(
        bits(&out),
        bits(&serial_reference(&net, &container, &probe(5)))
    );
}

#[test]
fn cancel_token_fires_from_another_thread() {
    let (net, container) = fixture(1);
    let srv = server(1 << 20, 4);
    srv.registry().load("m", &net, &container).unwrap();
    let ticket = srv.submit("m", probe(9)).unwrap();
    let token = ticket.cancel_token();
    std::thread::scope(|s| {
        s.spawn(move || token.cancel());
    });
    // The token fired before wait drained (the scope joins first), so the
    // request resolves Cancelled.
    assert_eq!(ticket.wait(), Err(ServeError::Cancelled));
}

#[test]
fn concurrent_streams_match_serial_reference() {
    let (net_a, container_a) = fixture(1);
    let (net_b, container_b) = fixture(7);
    // Tight quota (one large layer + slack): constant cross-model churn.
    let (big, small) = weight_bytes(&net_a);
    let quota = big + small / 2;
    let srv = Arc::new(server(quota, 4));
    srv.registry().load("a", &net_a, &container_a).unwrap();
    srv.registry().load("b", &net_b, &container_b).unwrap();
    let inputs: Vec<Vec<f32>> = (0..4).map(|i| probe(0x1000 + i)).collect();
    let want_a: Vec<Vec<u32>> = inputs
        .iter()
        .map(|x| bits(&serial_reference(&net_a, &container_a, x)))
        .collect();
    let want_b: Vec<Vec<u32>> = inputs
        .iter()
        .map(|x| bits(&serial_reference(&net_b, &container_b, x)))
        .collect();
    std::thread::scope(|s| {
        for t in 0..4usize {
            let srv = Arc::clone(&srv);
            let (inputs, want_a, want_b) = (inputs.clone(), want_a.clone(), want_b.clone());
            s.spawn(move || {
                for i in 0..20 {
                    let which = (t + i) % inputs.len();
                    let (id, want) = if (t + i) % 2 == 0 {
                        ("a", &want_a[which])
                    } else {
                        ("b", &want_b[which])
                    };
                    let out = srv.infer(id, inputs[which].clone()).unwrap();
                    assert_eq!(&bits(&out), want, "stream {t} request {i} diverged");
                }
            });
        }
    });
    let stats = srv.stats();
    assert_eq!(stats.completed, 80);
    assert_eq!(stats.failed, 0);
    let cache = srv.registry().cache_stats();
    assert!(cache.high_water <= quota, "cache ledger exceeded quota");
}

/// Test hook: fails the first `remaining` layer probes with a
/// *transient* fault (the poisoned-spill shape), then passes forever.
#[derive(Debug)]
struct FailFirst {
    remaining: AtomicU32,
}

impl FailFirst {
    fn new(n: u32) -> Arc<Self> {
        Arc::new(Self {
            remaining: AtomicU32::new(n),
        })
    }
}

impl ForwardHook for FailFirst {
    fn before_layer(&self, layer_index: usize) -> Result<(), DeepSzError> {
        let mut cur = self.remaining.load(Ordering::Relaxed);
        while cur > 0 {
            match self.remaining.compare_exchange(
                cur,
                cur - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Err(DeepSzError::Corrupt {
                        layer: format!("fc{layer_index}"),
                        stage: "spill",
                        detail: "injected transient fault".into(),
                    })
                }
                Err(observed) => cur = observed,
            }
        }
        Ok(())
    }
}

#[test]
fn zero_deadline_resolves_deadline_exceeded_without_executing() {
    let (net, container) = fixture(1);
    let srv = server(1 << 20, 4);
    srv.registry().load("m", &net, &container).unwrap();
    let ticket = srv
        .submit_with(
            "m",
            probe(1),
            SubmitOptions {
                deadline: Some(Duration::ZERO),
                retries: 0,
            },
        )
        .unwrap();
    match ticket.wait() {
        Err(ServeError::DeadlineExceeded { elapsed, budget }) => {
            assert_eq!(budget, Duration::ZERO);
            assert!(elapsed >= budget);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let stats = srv.stats();
    assert_eq!(stats.deadline_misses, 1);
    assert_eq!(stats.submitted, 1, "a miss is still an admitted request");
    assert_eq!(stats.batches, 0, "dead-on-arrival never costs a forward");
    // The server still serves afterwards.
    assert!(srv.infer("m", probe(2)).is_ok());
}

#[test]
fn reject_new_sheds_arrivals_at_the_depth_limit() {
    let (net, container) = fixture(1);
    let srv = Server::with_config(
        Arc::new(ModelRegistry::new(1 << 20)),
        ServerConfig {
            batch: BatchConfig { max_batch: 4 },
            shed: ShedConfig {
                max_queue_depth: 2,
                policy: ShedPolicy::RejectNew,
            },
            ..ServerConfig::default()
        },
    );
    srv.registry().load("m", &net, &container).unwrap();
    let t1 = srv.submit("m", probe(1)).unwrap();
    let t2 = srv.submit("m", probe(2)).unwrap();
    match srv.submit("m", probe(3)) {
        Err(e @ ServeError::Overloaded { depth, limit }) => {
            assert_eq!((depth, limit), (2, 2));
            assert!(e.transient(), "overload is retryable by nature");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert!(t1.wait().is_ok());
    assert!(t2.wait().is_ok());
    let stats = srv.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.submitted, 2, "a rejected submit never got a ticket");
    assert_eq!(stats.completed, 2);
    let q = srv.queue_stats("m").unwrap();
    assert_eq!(q.depth, 0, "queue drained");
    assert_eq!(q.depth_high_water, 2);
}

#[test]
fn drop_oldest_evicts_the_stalest_request() {
    let (net, container) = fixture(1);
    let srv = Server::with_config(
        Arc::new(ModelRegistry::new(1 << 20)),
        ServerConfig {
            batch: BatchConfig { max_batch: 1 },
            shed: ShedConfig {
                max_queue_depth: 1,
                policy: ShedPolicy::DropOldest,
            },
            ..ServerConfig::default()
        },
    );
    srv.registry().load("m", &net, &container).unwrap();
    let t1 = srv.submit("m", probe(1)).unwrap();
    let t2 = srv.submit("m", probe(2)).unwrap(); // evicts t1
    assert_eq!(
        t1.wait(),
        Err(ServeError::Overloaded { depth: 1, limit: 1 }),
        "the oldest queued request eats the overload"
    );
    assert!(t2.wait().is_ok(), "the fresh request takes the slot");
    let stats = srv.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.submitted, 2, "both requests were admitted");
    assert_eq!(stats.completed, 1);
}

#[test]
fn transient_faults_retry_to_success_with_zero_backoff() {
    let (net, container) = fixture(1);
    let srv = Server::with_config(
        Arc::new(ModelRegistry::new(1 << 20)),
        ServerConfig {
            batch: BatchConfig { max_batch: 2 },
            retry: RetryPolicy {
                base: Duration::ZERO,
                ..RetryPolicy::default()
            },
            ..ServerConfig::default()
        },
    );
    srv.registry().set_forward_hook(Some(FailFirst::new(2)));
    srv.registry().load("m", &net, &container).unwrap();
    let input = probe(0xFEED);
    let want = bits(&serial_reference(&net, &container, &input));
    let out = srv
        .infer_with(
            "m",
            input.clone(),
            SubmitOptions {
                deadline: None,
                retries: 3,
            },
        )
        .unwrap();
    assert_eq!(bits(&out), want, "retried result must stay bit-identical");
    let stats = srv.stats();
    assert_eq!(stats.retries, 2, "two failed attempts re-enqueued");
    assert_eq!(stats.retried, 1);
    assert_eq!(stats.retry_successes, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
}

#[test]
fn transient_failure_without_budget_reports_transient_model_error() {
    let (net, container) = fixture(1);
    let srv = server(1 << 20, 4);
    srv.registry()
        .set_forward_hook(Some(FailFirst::new(u32::MAX)));
    srv.registry().load("m", &net, &container).unwrap();
    match srv.infer("m", probe(1)) {
        Err(
            e @ ServeError::Model {
                transient: true, ..
            },
        ) => assert!(e.transient()),
        other => panic!("expected transient Model error, got {other:?}"),
    }
    let stats = srv.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.retries, 0, "no budget, no server-side retry");
}

fn counters_leq(a: &ServeStats, b: &ServeStats) -> bool {
    a.submitted <= b.submitted
        && a.completed <= b.completed
        && a.cancelled <= b.cancelled
        && a.failed <= b.failed
        && a.deadline_misses <= b.deadline_misses
        && a.shed <= b.shed
        && a.rejected <= b.rejected
        && a.fast_failed <= b.fast_failed
        && a.retries <= b.retries
        && a.retried <= b.retried
        && a.retry_successes <= b.retry_successes
        && a.batches <= b.batches
        && a.batched_samples <= b.batched_samples
        && a.max_batch_seen <= b.max_batch_seen
}

#[test]
fn serve_stats_are_monotonic_under_concurrent_submitters() {
    let (net, container) = fixture(1);
    let srv = Arc::new(server(1 << 20, 4));
    srv.registry().load("m", &net, &container).unwrap();
    let done = AtomicBool::new(false);
    std::thread::scope(|outer| {
        // Observer: every snapshot must dominate the previous one.
        let srv_obs = Arc::clone(&srv);
        let done = &done;
        outer.spawn(move || {
            let mut prev = ServeStats::default();
            while !done.load(Ordering::Relaxed) {
                let cur = srv_obs.stats();
                assert!(
                    counters_leq(&prev, &cur),
                    "counters went backwards: {prev:?} -> {cur:?}"
                );
                prev = cur;
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        // Submitters run (and join) in an inner scope; only then does
        // the observer stand down.
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let srv = Arc::clone(&srv);
                s.spawn(move || {
                    for i in 0..30u64 {
                        let input = probe(t * 100 + i);
                        if i % 7 == 0 {
                            // Guaranteed deadline miss.
                            let _ = srv.infer_with(
                                "m",
                                input,
                                SubmitOptions {
                                    deadline: Some(Duration::ZERO),
                                    retries: 0,
                                },
                            );
                        } else if i % 5 == 0 {
                            // Cancel racing the drain: either outcome is fine.
                            if let Ok(ticket) = srv.submit("m", input) {
                                ticket.cancel();
                                let _ = ticket.wait();
                            }
                        } else {
                            assert!(srv.infer("m", input).is_ok());
                        }
                    }
                });
            }
        });
        done.store(true, Ordering::Relaxed);
    });
    let stats = srv.stats();
    assert_eq!(
        stats.submitted,
        stats.completed + stats.cancelled + stats.failed + stats.deadline_misses + stats.shed,
        "quiescence invariant: every admitted ticket resolves exactly once"
    );
    assert_eq!(stats.deadline_misses, 15, "3 threads x 5 forced misses");
}
