//! Count-bounded, caller-driven micro-batching with deadlines,
//! admission control, and transient-failure retry (`docs/SERVING.md`).
//!
//! Single-sample requests for the same model coalesce into one batched
//! forward pass — one sparse matmul (`dsz_tensor::matmul_transb_csr`)
//! per fc layer with `m = batch width` instead of `width` separate
//! `m = 1` calls. Two design rules keep this deterministic:
//!
//! * **Batches are bounded by COUNT, never wall-clock.** A batch is
//!   whatever is queued when a leader drains, capped at
//!   [`BatchConfig::max_batch`]. No timers, no sleeps — tests construct
//!   an exact batch by submitting k tickets and then waiting.
//! * **Batch execution is caller-driven** (group commit): [`Ticket::wait`]
//!   elects the first waiter as *leader*; the leader drains the queue,
//!   runs the batched forward, delivers every member's slice, then steps
//!   down and wakes the others. No background threads; a process with no
//!   waiter blocked runs no serving code.
//!
//! Coalescing is *legal* because the kernel computes each output as an
//! independent sequential sum over its row's stored weights in column
//! order — batched output is bit-identical to per-sample calls at every
//! width and worker count, and for finite inputs to the dense kernel's
//! output too (pinned by `crates/tensor/tests/batch_equivalence.rs`;
//! `docs/PARALLEL.md`, "Sparse matmul").
//!
//! # Resilience (`docs/ROBUSTNESS.md`, "Serving resilience")
//!
//! * **Deadlines** — [`SubmitOptions::deadline`] is a per-request budget
//!   measured from submit. It is checked at enqueue (a dead-on-arrival
//!   request resolves instantly), at batch drain (expired entries are
//!   dropped without costing a slot), between layers (via
//!   [`dsz_core::CompressedFcModel::forward_cancellable`]'s abort probe,
//!   which fires when every member is cancelled *or expired* — so
//!   overshoot is bounded by one layer), and at delivery (a computed
//!   output is never delivered past its deadline). Misses resolve
//!   [`ServeError::DeadlineExceeded`] carrying `elapsed ≥ budget`.
//! * **Admission control** — the per-model queue is bounded by
//!   [`ShedConfig`]; at the limit the [`ShedPolicy`] either refuses the
//!   arriving request or sacrifices the oldest queued one, both as a
//!   fast [`ServeError::Overloaded`].
//! * **Retry** — a batch that fails with a *transient* error (see
//!   [`dsz_core::DeepSzError::transient`]) re-enqueues each member that
//!   still has [`SubmitOptions::retries`] budget, delayed by the seeded
//!   deterministic backoff of [`RetryPolicy`]; everyone else gets
//!   [`ServeError::Model`] with its `transient` flag set honestly.
//! * **Quarantine** — permanent integrity failures (corrupt records)
//!   count against the model generation; at
//!   [`ServerConfig::quarantine_after`] consecutive failures the
//!   generation is quarantined and subsequent submits fail fast with
//!   [`ServeError::Quarantined`] until an operator reloads it. A
//!   successful batch resets the count.
//!
//! Every request carries a [`CancelToken`]. Cancelled requests are
//! dropped at drain time (their tickets resolve [`ServeError::Cancelled`]
//! without costing a batch slot); a batch whose members *all* cancel
//! (or expire) mid-flight aborts its forward pass between layers.

use crate::registry::{ModelEntry, ModelHealth, ModelRegistry};
use crate::retry::RetryPolicy;
use crate::shed::{QueueStats, ShedConfig, ShedPolicy};
use dsz_core::DeepSzError;
use dsz_nn::Batch;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Serving-layer failures, all values (never panics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No model loaded under that id.
    UnknownModel(String),
    /// Request input length does not match the model's input shape.
    ShapeMismatch {
        /// Flat input length the model expects.
        expected: usize,
        /// Flat input length the request supplied.
        got: usize,
    },
    /// The request's [`CancelToken`] fired before results were produced.
    Cancelled,
    /// Container bytes failed validation at [`ModelRegistry::load`].
    Load(String),
    /// The model's forward pass failed (e.g. a corrupt layer record);
    /// every non-expired, non-cancelled member of the affected batch
    /// that is out of retry budget receives the same report.
    Model {
        /// Rendered underlying failure.
        detail: String,
        /// Whether the failure class is retryable
        /// ([`dsz_core::DeepSzError::transient`]); when `true` the
        /// server already spent the request's retry budget getting here.
        transient: bool,
    },
    /// The request's deadline elapsed before an output could be
    /// delivered. `elapsed ≥ budget` always holds; the gap is bounded
    /// by one layer of forward progress (the abort probe granularity).
    DeadlineExceeded {
        /// Time from submit to the miss being detected.
        elapsed: Duration,
        /// The deadline the request asked for.
        budget: Duration,
    },
    /// Admission control refused (or evicted) the request because the
    /// model's queue is at its depth limit ([`ShedConfig`]).
    Overloaded {
        /// Queue depth observed at the shed decision.
        depth: usize,
        /// The configured depth limit.
        limit: usize,
    },
    /// The model was loaded in degraded state
    /// ([`ModelRegistry::load_degraded`]): the named layers' records are
    /// corrupt, so every request fails fast with the attribution instead
    /// of burning a forward pass to rediscover it.
    Degraded {
        /// Model id.
        model: String,
        /// Names of the layers whose records failed to decode.
        bad_layers: Vec<String>,
    },
    /// The model generation accumulated
    /// [`ServerConfig::quarantine_after`] consecutive permanent
    /// integrity failures and was quarantined; reload it to serve again.
    Quarantined {
        /// Model id.
        model: String,
    },
}

impl ServeError {
    /// Whether a *caller-side* retry (new submit, after backoff) could
    /// plausibly succeed: transient model faults whose server-side
    /// budget ran out, and overload, which by nature passes. Everything
    /// else is deterministic against the same request.
    pub fn transient(&self) -> bool {
        matches!(
            self,
            ServeError::Model {
                transient: true,
                ..
            } | ServeError::Overloaded { .. }
        )
    }

    /// `!self.transient()`.
    pub fn permanent(&self) -> bool {
        !self.transient()
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownModel(id) => write!(f, "no model loaded under id {id:?}"),
            ServeError::ShapeMismatch { expected, got } => {
                write!(
                    f,
                    "input length {got} does not match model input {expected}"
                )
            }
            ServeError::Cancelled => write!(f, "request cancelled"),
            ServeError::Load(m) => write!(f, "load: {m}"),
            ServeError::Model { detail, transient } => {
                let class = if *transient { "transient" } else { "permanent" };
                write!(f, "model ({class}): {detail}")
            }
            ServeError::DeadlineExceeded { elapsed, budget } => write!(
                f,
                "deadline exceeded: {:.3} ms elapsed against a {:.3} ms budget",
                elapsed.as_secs_f64() * 1e3,
                budget.as_secs_f64() * 1e3
            ),
            ServeError::Overloaded { depth, limit } => {
                write!(f, "overloaded: queue depth {depth} at limit {limit}")
            }
            ServeError::Degraded { model, bad_layers } => {
                write!(f, "model {model:?} degraded, bad layers: ")?;
                for (i, l) in bad_layers.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{l}")?;
                }
                Ok(())
            }
            ServeError::Quarantined { model } => {
                write!(
                    f,
                    "model {model:?} quarantined after repeated integrity failures"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Shared cancellation flag for one request. Cloning shares the flag;
/// cancel from any clone, observe from any clone.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fires the flag. Idempotent. A request cancelled before its batch
    /// drains resolves [`ServeError::Cancelled`] without executing; after
    /// drain its slice is computed but discarded (and a fully-cancelled
    /// batch aborts between layers).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether [`CancelToken::cancel`] has fired.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Micro-batching knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Most requests one batched forward may serve. 1 disables
    /// coalescing (every request runs alone — the unbatched baseline the
    /// bench compares against).
    pub max_batch: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self { max_batch: 8 }
    }
}

/// Everything a [`Server`] can be configured with. [`Server::new`]
/// takes just the batching knobs and defaults the rest; use
/// [`Server::with_config`] for the full surface.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerConfig {
    /// Micro-batching knobs.
    pub batch: BatchConfig,
    /// Admission control (default: unbounded queue, reject-new).
    pub shed: ShedConfig,
    /// Backoff schedule for server-side transient retries.
    pub retry: RetryPolicy,
    /// Consecutive permanent integrity failures before a model
    /// generation is quarantined; `0` disables quarantine. The counter
    /// resets on any successful batch.
    pub quarantine_after: u32,
}

/// Per-request options for [`Server::submit_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Latency budget measured from submit; `None` waits forever (the
    /// PR-9 behavior). `Some(Duration::ZERO)` is legal and resolves
    /// [`ServeError::DeadlineExceeded`] immediately — useful for
    /// testing the miss path.
    pub deadline: Option<Duration>,
    /// How many times the *server* may re-run this request after a
    /// transient failure before reporting [`ServeError::Model`].
    pub retries: u32,
}

/// Monotonic serving counters ([`Server::stats`]). Cache hit rates live
/// with the cache: [`ModelRegistry::cache_stats`].
///
/// Quiescence invariant (no request in flight): `submitted == completed
/// + cancelled + failed + deadline_misses + shed` — every admitted
/// ticket resolves into exactly one of those five buckets. `rejected`
/// and `fast_failed` count submits that never produced a ticket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Tickets accepted by [`Server::submit`].
    pub submitted: u64,
    /// Requests resolved with an output slice.
    pub completed: u64,
    /// Requests resolved [`ServeError::Cancelled`].
    pub cancelled: u64,
    /// Requests resolved with a model error.
    pub failed: u64,
    /// Requests resolved [`ServeError::DeadlineExceeded`].
    pub deadline_misses: u64,
    /// Admitted requests later evicted [`ServeError::Overloaded`]
    /// (the [`ShedPolicy::DropOldest`] victims).
    pub shed: u64,
    /// Submits refused [`ServeError::Overloaded`] at admission (no
    /// ticket was created; not counted in `submitted`).
    pub rejected: u64,
    /// Submits refused [`ServeError::Degraded`] or
    /// [`ServeError::Quarantined`] at admission (no ticket; not counted
    /// in `submitted`).
    pub fast_failed: u64,
    /// Re-enqueue events after transient failures (one per attempt).
    pub retries: u64,
    /// Requests that resolved (any outcome) after ≥ 1 retry.
    pub retried: u64,
    /// Requests that resolved `Ok` after ≥ 1 retry.
    pub retry_successes: u64,
    /// Batched forward passes executed.
    pub batches: u64,
    /// Requests those batches served (∑ batch widths).
    pub batched_samples: u64,
    /// Widest batch executed.
    pub max_batch_seen: u64,
}

impl ServeStats {
    /// Mean batch width; 0.0 before any batch ran.
    pub fn avg_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_samples as f64 / self.batches as f64
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    failed: AtomicU64,
    deadline_misses: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    fast_failed: AtomicU64,
    retries: AtomicU64,
    retried: AtomicU64,
    retry_successes: AtomicU64,
    batches: AtomicU64,
    batched_samples: AtomicU64,
    max_batch_seen: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            fast_failed: self.fast_failed.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            retry_successes: self.retry_successes.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_samples: self.batched_samples.load(Ordering::Relaxed),
            max_batch_seen: self.max_batch_seen.load(Ordering::Relaxed),
        }
    }
}

/// Cross-ticket server state: the counters plus the retry/quarantine
/// policy the batch leader needs while executing.
#[derive(Debug)]
struct Shared {
    counters: Counters,
    retry: RetryPolicy,
    quarantine_after: u32,
}

/// A request's result mailbox: written exactly once by whoever resolves
/// the request, taken by its [`Ticket::wait`]. Wakeups ride the owning
/// queue's condvar (the leader always notifies it after delivering).
type Slot = Mutex<Option<Result<Vec<f32>, ServeError>>>;

#[derive(Debug)]
struct Pending {
    /// Server-unique request id — the retry jitter key.
    id: u64,
    input: Vec<f32>,
    cancel: CancelToken,
    slot: Arc<Slot>,
    /// When [`Server::submit`] accepted the request; deadlines and
    /// queue-age watermarks measure from here (retries keep the
    /// original instant — the caller's clock never resets).
    submitted_at: Instant,
    /// Latency budget, if any.
    deadline: Option<Duration>,
    /// Transient-failure retries still available.
    retries_left: u32,
    /// How many times this request has been re-enqueued (0 = first run).
    attempt: u32,
    /// Earliest instant a drain may batch this entry (retry backoff).
    not_before: Option<Instant>,
}

impl Pending {
    fn expired(&self, now: Instant) -> bool {
        self.deadline
            .is_some_and(|d| now.duration_since(self.submitted_at) >= d)
    }

    fn deadline_error(&self, now: Instant) -> ServeError {
        ServeError::DeadlineExceeded {
            elapsed: now.duration_since(self.submitted_at),
            budget: self.deadline.unwrap_or_default(),
        }
    }
}

#[derive(Debug, Default)]
struct QState {
    queue: VecDeque<Pending>,
    /// Whether some waiter is currently executing a drained batch. At
    /// most one leader per queue: batches for one model serialize (they
    /// contend for the same layers anyway); distinct models batch
    /// concurrently on their own queues.
    leader_active: bool,
    /// Deepest the queue has ever been ([`QueueStats`]).
    depth_high_water: usize,
}

/// Per-model-generation request queue. Hot-swapping a model id installs
/// a fresh queue, so every pending of one queue targets one generation.
#[derive(Debug)]
struct ModelQueue {
    entry: Arc<ModelEntry>,
    state: Mutex<QState>,
    cv: Condvar,
}

impl ModelQueue {
    fn lock(&self) -> MutexGuard<'_, QState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// The micro-batching server: a [`ModelRegistry`] plus per-model request
/// queues. Shareable across threads behind an `Arc`.
#[derive(Debug)]
pub struct Server {
    registry: Arc<ModelRegistry>,
    config: ServerConfig,
    queues: Mutex<HashMap<String, Arc<ModelQueue>>>,
    shared: Arc<Shared>,
    next_request: AtomicU64,
}

impl Server {
    /// A server over `registry` with the given batching knobs and
    /// default resilience config (unbounded queue, no quarantine).
    /// `max_batch` is clamped to at least 1.
    pub fn new(registry: Arc<ModelRegistry>, config: BatchConfig) -> Self {
        Self::with_config(
            registry,
            ServerConfig {
                batch: config,
                ..ServerConfig::default()
            },
        )
    }

    /// A server with the full resilience surface: batching, admission
    /// control, retry backoff, and quarantine threshold.
    pub fn with_config(registry: Arc<ModelRegistry>, config: ServerConfig) -> Self {
        let config = ServerConfig {
            batch: BatchConfig {
                max_batch: config.batch.max_batch.max(1),
            },
            ..config
        };
        Self {
            registry,
            shared: Arc::new(Shared {
                counters: Counters::default(),
                retry: config.retry,
                quarantine_after: config.quarantine_after,
            }),
            config,
            queues: Mutex::new(HashMap::new()),
            next_request: AtomicU64::new(0),
        }
    }

    /// The registry this server serves from.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.counters.snapshot()
    }

    /// Point-in-time watermarks of `model_id`'s queue; `None` until the
    /// first submit for the id created one.
    pub fn queue_stats(&self, model_id: &str) -> Option<QueueStats> {
        let q = {
            let queues = self.queues.lock().unwrap_or_else(|p| p.into_inner());
            queues.get(model_id).cloned()?
        };
        let st = q.lock();
        let now = Instant::now();
        Some(QueueStats {
            depth: st.queue.len(),
            depth_high_water: st.depth_high_water,
            oldest_age: st.queue.front().map(|p| now.duration_since(p.submitted_at)),
        })
    }

    /// The queue for `entry`'s generation, installing a fresh one if the
    /// id is new or was hot-swapped. Old generations' queues live on via
    /// their tickets' `Arc`s and drain against the old entry.
    fn queue_for(&self, id: &str, entry: &Arc<ModelEntry>) -> Arc<ModelQueue> {
        let mut queues = self.queues.lock().unwrap_or_else(|p| p.into_inner());
        match queues.get(id) {
            Some(q) if Arc::ptr_eq(&q.entry, entry) => Arc::clone(q),
            _ => {
                let q = Arc::new(ModelQueue {
                    entry: Arc::clone(entry),
                    state: Mutex::new(QState::default()),
                    cv: Condvar::new(),
                });
                queues.insert(id.to_string(), Arc::clone(&q));
                q
            }
        }
    }

    /// [`Self::submit_with`] with default options (no deadline, no
    /// retries) — the PR-9 entry point, unchanged.
    pub fn submit(&self, model_id: &str, input: Vec<f32>) -> Result<Ticket, ServeError> {
        self.submit_with(model_id, input, SubmitOptions::default())
    }

    /// Enqueues a single-sample request for `model_id`. The request does
    /// not execute until some ticket for this model calls
    /// [`Ticket::wait`] — submission never blocks and never batches by
    /// time. Shape is validated here so a malformed request fails before
    /// it can poison a batch; quarantined and degraded generations fail
    /// fast here too, and admission control may refuse the request (or
    /// evict the oldest queued one) per the [`ShedConfig`].
    pub fn submit_with(
        &self,
        model_id: &str,
        input: Vec<f32>,
        opts: SubmitOptions,
    ) -> Result<Ticket, ServeError> {
        let counters = &self.shared.counters;
        let entry = self
            .registry
            .get(model_id)
            .ok_or_else(|| ServeError::UnknownModel(model_id.to_string()))?;
        if entry.is_quarantined() {
            counters.fast_failed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Quarantined {
                model: model_id.to_string(),
            });
        }
        if let ModelHealth::Degraded { bad_layers } = entry.health() {
            counters.fast_failed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Degraded {
                model: model_id.to_string(),
                bad_layers: bad_layers.clone(),
            });
        }
        let expected = entry.input_features();
        if input.len() != expected {
            return Err(ServeError::ShapeMismatch {
                expected,
                got: input.len(),
            });
        }
        let queue = self.queue_for(model_id, &entry);
        let cancel = CancelToken::new();
        let slot: Arc<Slot> = Arc::new(Mutex::new(None));
        let pending = Pending {
            id: self.next_request.fetch_add(1, Ordering::Relaxed),
            input,
            cancel: cancel.clone(),
            slot: Arc::clone(&slot),
            submitted_at: Instant::now(),
            deadline: opts.deadline,
            retries_left: opts.retries,
            attempt: 0,
            not_before: None,
        };
        let ticket = Ticket {
            queue: Arc::clone(&queue),
            slot,
            cancel,
            shared: Arc::clone(&self.shared),
            max_batch: self.config.batch.max_batch,
        };
        // Dead on arrival (a zero deadline): resolve without queueing —
        // it must not occupy a slot someone live could use.
        let now = Instant::now();
        if pending.expired(now) {
            counters.submitted.fetch_add(1, Ordering::Relaxed);
            let err = pending.deadline_error(now);
            deliver_final(&pending, Err(err), &self.shared);
            return Ok(ticket);
        }
        // Admission under the queue lock: the depth decision and the
        // enqueue are atomic, so the bound is exact.
        let shed = self.config.shed;
        let victim = {
            let mut st = queue.lock();
            if st.queue.len() >= shed.max_queue_depth {
                match shed.policy {
                    ShedPolicy::RejectNew => {
                        let depth = st.queue.len();
                        drop(st);
                        counters.rejected.fetch_add(1, Ordering::Relaxed);
                        return Err(ServeError::Overloaded {
                            depth,
                            limit: shed.max_queue_depth,
                        });
                    }
                    ShedPolicy::DropOldest => st.queue.pop_front(),
                }
            } else {
                None
            }
        };
        if let Some(v) = &victim {
            deliver_final(
                v,
                Err(ServeError::Overloaded {
                    depth: shed.max_queue_depth,
                    limit: shed.max_queue_depth,
                }),
                &self.shared,
            );
            // The victim's waiter may be parked on the condvar.
            queue.cv.notify_all();
        }
        let mut st = queue.lock();
        st.queue.push_back(pending);
        st.depth_high_water = st.depth_high_water.max(st.queue.len());
        drop(st);
        counters.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(ticket)
    }

    /// Submit + wait: the synchronous single-request entry point. The
    /// calling thread drives (or joins) batch execution.
    pub fn infer(&self, model_id: &str, input: Vec<f32>) -> Result<Vec<f32>, ServeError> {
        self.submit(model_id, input)?.wait()
    }

    /// [`Self::infer`] with per-request deadline/retry options.
    pub fn infer_with(
        &self,
        model_id: &str,
        input: Vec<f32>,
        opts: SubmitOptions,
    ) -> Result<Vec<f32>, ServeError> {
        self.submit_with(model_id, input, opts)?.wait()
    }
}

/// A pending request. [`Ticket::wait`] blocks until resolution —
/// electing the caller as batch leader when no one else is executing —
/// and consumes the ticket. Cancel via [`Ticket::cancel`] or a cloned
/// [`Ticket::cancel_token`] from another thread.
#[derive(Debug)]
pub struct Ticket {
    queue: Arc<ModelQueue>,
    slot: Arc<Slot>,
    cancel: CancelToken,
    shared: Arc<Shared>,
    max_batch: usize,
}

impl Ticket {
    /// A clone of this request's cancellation flag (hand it to another
    /// thread; the ticket itself stays waitable).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Fires this request's [`CancelToken`].
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    fn take_slot(&self) -> Option<Result<Vec<f32>, ServeError>> {
        self.slot.lock().unwrap_or_else(|p| p.into_inner()).take()
    }

    /// Blocks until this request resolves. Group-commit loop: if the
    /// queue has drainable work and no leader, become leader — drain up
    /// to `max_batch` live requests (dropping cancelled/expired entries,
    /// deferring retries still in backoff), run the batched forward,
    /// deliver every slice, re-enqueue transient-failure retries, step
    /// down, notify; otherwise sleep on the queue condvar (the leader's
    /// epilogue always notifies it).
    pub fn wait(self) -> Result<Vec<f32>, ServeError> {
        loop {
            if let Some(result) = self.take_slot() {
                return result;
            }
            let mut st = self.queue.lock();
            if !st.leader_active && !st.queue.is_empty() {
                let now = Instant::now();
                let drained = drain(&mut st.queue, self.max_batch, now);
                if drained.batch.is_empty() && drained.dropped.is_empty() {
                    // Everything drainable is a retry still backing off:
                    // nap until the earliest becomes ready (or a deliver
                    // notifies us) and re-check.
                    let nap = drained
                        .next_ready
                        .map(|t| t.saturating_duration_since(now))
                        .unwrap_or(Duration::from_millis(1))
                        .max(Duration::from_micros(50));
                    let (st, _timeout) = self
                        .queue
                        .cv
                        .wait_timeout(st, nap)
                        .unwrap_or_else(|p| p.into_inner());
                    drop(st);
                    continue;
                }
                st.leader_active = true;
                drop(st);
                // Cancelled/expired-before-drain requests resolve without
                // costing a batch slot or a flop.
                for (p, err) in drained.dropped {
                    deliver_final(&p, Err(err), &self.shared);
                }
                let requeue = if drained.batch.is_empty() {
                    Vec::new()
                } else {
                    execute(&self.queue.entry, drained.batch, &self.shared)
                };
                let mut st = self.queue.lock();
                // Transient-failure retries go back to the *front*: they
                // are the oldest work and FIFO order is preserved.
                for p in requeue.into_iter().rev() {
                    st.queue.push_front(p);
                }
                st.leader_active = false;
                self.queue.cv.notify_all();
                drop(st);
                continue;
            }
            if st.leader_active {
                // The leader's epilogue notifies after delivering.
                let _st = self.queue.cv.wait(st).unwrap_or_else(|p| p.into_inner());
                continue;
            }
            // Queue empty, no leader: our slot is delivered (or the
            // deliverer is between writing it and notifying) — re-check.
            drop(st);
            std::thread::yield_now();
        }
    }
}

/// What one drain pass produced.
struct Drained {
    /// Live, ready requests to execute (≤ `max_batch`).
    batch: Vec<Pending>,
    /// Cancelled/expired entries passed over, with the error each
    /// resolves to. They do not count toward `max_batch`.
    dropped: Vec<(Pending, ServeError)>,
    /// Earliest `not_before` among deferred retries, if any were seen.
    next_ready: Option<Instant>,
}

/// Splits the front of `queue` into a batch of live ready requests plus
/// the cancelled/expired entries passed over. Retries whose backoff has
/// not elapsed are deferred — pushed back to the front in their original
/// order. Arrival order is preserved throughout.
fn drain(queue: &mut VecDeque<Pending>, max_batch: usize, now: Instant) -> Drained {
    let mut batch = Vec::new();
    let mut dropped = Vec::new();
    let mut deferred = Vec::new();
    let mut next_ready = None;
    while batch.len() < max_batch {
        let Some(p) = queue.pop_front() else { break };
        if p.cancel.is_cancelled() {
            dropped.push((p, ServeError::Cancelled));
        } else if p.expired(now) {
            let err = p.deadline_error(now);
            dropped.push((p, err));
        } else if let Some(nb) = p.not_before.filter(|&nb| nb > now) {
            next_ready = Some(next_ready.map_or(nb, |c: Instant| c.min(nb)));
            deferred.push(p);
        } else {
            batch.push(p);
        }
    }
    for p in deferred.into_iter().rev() {
        queue.push_front(p);
    }
    Drained {
        batch,
        dropped,
        next_ready,
    }
}

fn deliver(slot: &Slot, result: Result<Vec<f32>, ServeError>, counters: &Counters) {
    let ctr = match &result {
        Ok(_) => &counters.completed,
        Err(ServeError::Cancelled) => &counters.cancelled,
        Err(ServeError::DeadlineExceeded { .. }) => &counters.deadline_misses,
        Err(ServeError::Overloaded { .. }) => &counters.shed,
        Err(_) => &counters.failed,
    };
    ctr.fetch_add(1, Ordering::Relaxed);
    *slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(result);
}

/// [`deliver`] plus retry bookkeeping: a request resolving after ≥ 1
/// retry counts `retried` (and `retry_successes` when it made it).
fn deliver_final(p: &Pending, result: Result<Vec<f32>, ServeError>, shared: &Shared) {
    if p.attempt > 0 {
        shared.counters.retried.fetch_add(1, Ordering::Relaxed);
        if result.is_ok() {
            shared
                .counters
                .retry_successes
                .fetch_add(1, Ordering::Relaxed);
        }
    }
    deliver(&p.slot, result, &shared.counters);
}

/// One batched forward for `batch` (all same model generation): inputs
/// concatenate sample-major, the kernel computes every sample's rows in
/// one call per layer, outputs split back per request. Bit-identical to
/// per-sample execution by the kernel's row-independence (see module
/// docs). Returns the members to re-enqueue (transient failure, retry
/// budget remaining); everyone else is delivered here.
fn execute(entry: &Arc<ModelEntry>, batch: Vec<Pending>, shared: &Shared) -> Vec<Pending> {
    let counters = &shared.counters;
    let k = batch.len();
    counters.batches.fetch_add(1, Ordering::Relaxed);
    counters
        .batched_samples
        .fetch_add(k as u64, Ordering::Relaxed);
    counters
        .max_batch_seen
        .fetch_max(k as u64, Ordering::Relaxed);
    let feats = entry.input_features();
    let mut data = Vec::with_capacity(k * feats);
    for p in &batch {
        data.extend_from_slice(&p.input);
    }
    let x = Batch {
        n: k,
        shape: entry.input_shape(),
        data,
    };
    // Abort only when *every* member has cancelled or expired: one live
    // request keeps the batch running (its answer is still owed). This
    // probe runs between layers, so a deadline miss overshoots by at
    // most one layer of forward progress.
    let all_dead = || {
        let now = Instant::now();
        batch
            .iter()
            .all(|p| p.cancel.is_cancelled() || p.expired(now))
    };
    match entry.model().forward_cancellable(&x, &all_dead) {
        Ok((out, _)) => {
            entry.note_success();
            let now = Instant::now();
            for (i, p) in batch.into_iter().enumerate() {
                let result = if p.cancel.is_cancelled() {
                    Err(ServeError::Cancelled)
                } else if p.expired(now) {
                    // The output exists but the budget is blown: a
                    // response is never delivered past its deadline.
                    Err(p.deadline_error(now))
                } else {
                    Ok(out.sample(i).to_vec())
                };
                deliver_final(&p, result, shared);
            }
            Vec::new()
        }
        Err(e) => {
            let transient = e.transient();
            if !transient {
                note_integrity_failure(entry, &e, shared.quarantine_after);
            }
            let aborted = matches!(e, DeepSzError::Cancelled);
            let msg = e.to_string();
            let now = Instant::now();
            let mut requeue = Vec::new();
            for mut p in batch {
                if p.cancel.is_cancelled() {
                    deliver_final(&p, Err(ServeError::Cancelled), shared);
                } else if p.expired(now) {
                    let err = p.deadline_error(now);
                    deliver_final(&p, Err(err), shared);
                } else if transient && p.retries_left > 0 {
                    // Re-enqueue with seeded backoff; the caller's
                    // deadline keeps ticking against the original
                    // submit instant.
                    p.retries_left -= 1;
                    p.attempt += 1;
                    p.not_before = Some(now + shared.retry.delay(p.id, p.attempt));
                    counters.retries.fetch_add(1, Ordering::Relaxed);
                    requeue.push(p);
                } else if aborted {
                    // A fully-dead batch aborted between layers; by the
                    // probe's definition this member is cancelled or
                    // expired, but classify conservatively if a race
                    // got here.
                    deliver_final(&p, Err(ServeError::Cancelled), shared);
                } else {
                    deliver_final(
                        &p,
                        Err(ServeError::Model {
                            detail: msg.clone(),
                            transient,
                        }),
                        shared,
                    );
                }
            }
            requeue
        }
    }
}

/// Counts a permanent integrity failure against the generation and
/// quarantines it at the threshold (0 disables). Only container/record
/// integrity classes count — a transient spill fault or a cancellation
/// is not evidence the generation is bad.
fn note_integrity_failure(entry: &Arc<ModelEntry>, e: &DeepSzError, quarantine_after: u32) {
    let integrity = matches!(
        e,
        DeepSzError::Corrupt { .. } | DeepSzError::BadLayers(_) | DeepSzError::BadContainer(_)
    );
    if !integrity {
        return;
    }
    let failures = entry.record_integrity_failure();
    if quarantine_after > 0 && failures >= quarantine_after {
        entry.quarantine();
    }
}
