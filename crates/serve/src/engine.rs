//! Batched, multi-threaded serving engine.
//!
//! [`Engine::start`] plans the model as a list of stages, each a
//! contiguous op range run by one serving loop that takes a batch from
//! its source, runs its ops and hands the result to its sink. The first
//! stage's source is a bounded request queue; the last stage's sink is
//! the requesters' replies; in between, stages pass micro-batches over
//! bounded single-producer single-consumer links. An unsharded engine
//! (the default) is the single stage queue → whole program → reply,
//! run by [`EngineConfig::workers`] threads; [`EngineConfig::stages`]
//! shards the program into a pipeline with one thread per stage.
//!
//! Batching is work-conserving: a queue stage that frees up takes
//! whatever is queued — up to [`EngineConfig::max_batch_size`] rows —
//! and executes it at once outside the lock, then answers each request
//! through its own channel. No request is held back to wait for
//! company: a lone request runs alone, and under load the backlog that
//! builds while one kernel call runs becomes the next batch, so batch
//! size grows with the offered rate on its own. Each thread's
//! [`BatchRunner`] arena persists across batches, so steady-state
//! serving performs no per-sample heap allocation in the op loop.
//!
//! A non-zero [`EngineConfig::max_wait`] opts into a straggler window:
//! the queue stage then holds a partial batch until it fills, shutdown
//! begins, or `max_wait` has passed since the first request was popped
//! — never longer, even when the queue has gone idle.
//!
//! Backpressure is explicit: [`Engine::try_submit`] returns
//! [`ServeError::QueueFull`] instead of buffering without bound, while
//! [`Engine::submit`] blocks until space frees up. Shutdown drains the
//! queue and then every link before the threads exit, so every accepted
//! request is answered. A panic inside inference is caught and returned
//! to the affected requesters as [`ServeError::WorkerPanic`]; the stage
//! itself keeps serving.

use crate::artifact::CompiledModel;
use crate::error::{ArtifactError, Result, ServeError};
use crate::kernels::{pad_rows, BatchRunner, FlowData, FlowState};
use crate::metrics::{Metrics, ServerStats};
use crate::pipeline::{self, PipelineStats, StagePlan, StageStats};
use rapidnn_pool::spsc;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Micro-batches each inter-stage link buffers: enough for adjacent
/// stages to overlap, small enough that backpressure reaches the
/// request queue after a couple of batches rather than after a pile.
const STAGE_CHANNEL_CAP: usize = 2;

/// Tuning knobs for [`Engine::start`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Threads serving an unsharded model, each running the whole
    /// program; `0` means one per available core. Ignored when
    /// [`stages`](Self::stages) shards the model: its links are
    /// single-producer single-consumer, so each stage runs on one
    /// thread.
    pub workers: usize,
    /// Maximum queued (accepted but unserved) requests.
    pub queue_capacity: usize,
    /// Most *rows* one batch gathers from the queue. A single
    /// [`Engine::submit_batch`] request carrying more rows than this
    /// still runs (alone, in one kernel call).
    pub max_batch_size: usize,
    /// Longest a queue stage holds a partial batch waiting for more
    /// work. The default, [`Duration::ZERO`], is work-conserving: a
    /// thread runs whatever is queued the moment it frees up. A non-zero value
    /// trades that much added latency for fuller batches.
    pub max_wait: Duration,
    /// Pipeline stages to shard the op program into: `0` or `1` runs
    /// it as one stage; `2+` splits it into that many contiguous op
    /// ranges (clamped to the number of legal cut points), each with
    /// its own thread and scratch arena, connected by bounded links.
    /// Outputs are bit-identical at any stage count.
    pub stages: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            queue_capacity: 1024,
            max_batch_size: 32,
            max_wait: Duration::ZERO,
            stages: 0,
        }
    }
}

impl EngineConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    }
}

/// One batch's outputs, shared by every reply from that batch: the
/// worker pays one allocation per *batch* instead of one `Vec` per
/// request, and the requester copies its row out on its own thread.
#[derive(Debug, Clone)]
struct ReplySlice {
    data: Arc<[f32]>,
    start: usize,
    len: usize,
}

impl ReplySlice {
    fn to_vec(&self) -> Vec<f32> {
        self.data[self.start..self.start + self.len].to_vec()
    }
}

/// One queued request: `rows` feature rows flattened into `input`
/// (`rows == 1` for plain [`Engine::submit`]; [`Engine::submit_batch`]
/// carries a whole pre-batched block in one job).
struct Job {
    input: Vec<f32>,
    rows: usize,
    reply: mpsc::Sender<Result<ReplySlice>>,
    enqueued: Instant,
}

/// Queue state guarded by the mutex.
struct QueueState {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signalled when work arrives or shutdown begins.
    work_ready: Condvar,
    /// Signalled when queue space frees up.
    space_ready: Condvar,
}

/// Handle to one in-flight request; redeem it with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    reply: mpsc::Receiver<Result<ReplySlice>>,
}

impl Ticket {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// Propagates the inference error, or [`ServeError::ShuttingDown`] if
    /// the engine died before answering.
    pub fn wait(self) -> Result<Vec<f32>> {
        match self.reply.recv() {
            Ok(result) => result.map(|slice| slice.to_vec()),
            Err(_) => Err(ServeError::ShuttingDown),
        }
    }

    /// Blocks until the response arrives or `timeout` elapses; `None` on
    /// timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Vec<f32>>> {
        match self.reply.recv_timeout(timeout) {
            Ok(result) => Some(result.map(|slice| slice.to_vec())),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::ShuttingDown)),
        }
    }
}

/// Outcome of [`Engine::drain`]: the final stats plus whether every
/// worker finished inside the deadline.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Metrics snapshot taken when the drain returned.
    pub stats: ServerStats,
    /// `true` when all workers drained the queue and exited before the
    /// deadline. `false` means the workers were detached still running;
    /// they hold their own `Arc`s to the queue and metrics, keep
    /// answering the remaining accepted requests, and exit once the
    /// queue empties — the engine just stopped waiting for them.
    pub joined: bool,
    /// Requests accepted but not yet answered when the drain returned:
    /// `0` after a clean join, and the actual stranded-work count when
    /// the deadline fired first. Before this field a deadline expiry
    /// with a full queue was indistinguishable from a clean drain that
    /// merely joined slowly.
    pub in_flight_at_deadline: u64,
}

/// Counts live worker threads so [`Engine::drain`] can wait for them
/// to exit on a condition variable instead of polling.
#[derive(Default)]
struct ExitLatch {
    live: Mutex<usize>,
    exited: Condvar,
}

impl ExitLatch {
    /// Spawns a worker counted by the latch. The count rises before the
    /// thread starts and falls when its guard drops — on return or
    /// during a panic unwind alike.
    fn spawn(self: &Arc<Self>, work: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
        *lock_latch(self) += 1;
        let guard = LiveGuard(Arc::clone(self));
        std::thread::spawn(move || {
            let _guard = guard;
            work();
        })
    }

    /// Waits until every counted worker has exited or `timeout` has
    /// passed; `true` when none is left.
    fn wait(&self, timeout: Duration) -> bool {
        let end = Instant::now().checked_add(timeout);
        let mut live = lock_latch(self);
        while *live > 0 {
            live = match end {
                // A deadline past the clock's range waits unbounded.
                None => self
                    .exited
                    .wait(live)
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
                Some(end) => {
                    let now = Instant::now();
                    if now >= end {
                        return false;
                    }
                    self.exited
                        .wait_timeout(live, end - now)
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .0
                }
            };
        }
        true
    }
}

fn lock_latch(latch: &ExitLatch) -> std::sync::MutexGuard<'_, usize> {
    latch
        .live
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One worker's share of an [`ExitLatch`].
struct LiveGuard(Arc<ExitLatch>);

impl Drop for LiveGuard {
    fn drop(&mut self) {
        let mut live = lock_latch(&self.0);
        *live -= 1;
        if *live == 0 {
            self.0.exited.notify_all();
        }
    }
}

/// A running inference server over one [`CompiledModel`].
pub struct Engine {
    shared: Arc<Shared>,
    metrics: Arc<Metrics>,
    model: Arc<CompiledModel>,
    /// Worker handles, taken by the first [`drain`](Self::drain).
    workers: Mutex<Vec<JoinHandle<()>>>,
    exits: Arc<ExitLatch>,
    queue_capacity: usize,
    /// The op ranges the stages run, in flow order.
    plan: StagePlan,
    /// Occupancy of each inter-stage link (stage `s` to `s + 1`).
    gauges: Vec<spsc::Gauge>,
}

impl Engine {
    /// Starts the serving threads and returns the serving handle.
    ///
    /// With [`EngineConfig::stages`] ≥ 2 (and a model with at least one
    /// legal cut point) the op program is sharded into balanced
    /// contiguous ranges: stage 0 gathers batches from the request
    /// queue, every stage runs its range on its own thread and scratch
    /// arena, and micro-batches stream stage-to-stage through bounded
    /// FIFO links. Otherwise the program is one stage, from the queue
    /// to the replies, on [`EngineConfig::workers`] threads. Outputs
    /// are bit-identical at any stage count.
    pub fn start(model: CompiledModel, config: EngineConfig) -> Engine {
        let queue_capacity = config.queue_capacity.max(1);
        let max_batch = config.max_batch_size.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutting_down: false,
            }),
            work_ready: Condvar::new(),
            space_ready: Condvar::new(),
        });
        let metrics = Arc::new(Metrics::new());
        let model = Arc::new(model);
        let exits = Arc::new(ExitLatch::default());
        let plan = pipeline::plan_stages(&model, config.stages);
        let n = plan.ranges.len();
        let queue = || Source::Queue {
            shared: Arc::clone(&shared),
            max_rows: max_batch,
            max_wait: config.max_wait,
        };
        // Link s connects stage s to stage s+1; each buffers a couple of
        // micro-batches so adjacent stages overlap without letting a slow
        // stage hoard unbounded work — backpressure runs from the last
        // stage back to the queue.
        let mut gauges = Vec::with_capacity(n - 1);
        let mut upstream = None;
        let mut stages = Vec::with_capacity(n);
        for (s, (ops, &entry)) in plan.ranges.iter().zip(&plan.entries).enumerate() {
            let source = match upstream.take() {
                Some(rx) => Source::Link(rx, entry),
                None => queue(),
            };
            let sink = if s + 1 == n {
                Sink::Reply
            } else {
                let (tx, rx, gauge) = spsc::channel::<Micro>(STAGE_CHANNEL_CAP);
                upstream = Some(rx);
                gauges.push(gauge);
                Sink::Link(tx)
            };
            stages.push(Stage {
                ops: ops.clone(),
                source,
                sink,
            });
        }
        // Links are single-producer single-consumer, so a sharded engine
        // runs one thread per stage; the lone queue-to-reply stage of an
        // unsharded engine runs on every worker.
        if n == 1 {
            stages.extend((1..config.resolved_workers()).map(|_| Stage {
                ops: plan.ranges[0].clone(),
                source: queue(),
                sink: Sink::Reply,
            }));
        }
        let workers = stages
            .into_iter()
            .map(|stage| {
                let metrics = Arc::clone(&metrics);
                let model = Arc::clone(&model);
                exits.spawn(move || stage_loop(&metrics, &model, stage))
            })
            .collect();
        Engine {
            shared,
            metrics,
            model,
            workers: Mutex::new(workers),
            exits,
            queue_capacity,
            plan,
            gauges,
        }
    }

    /// The model being served.
    pub fn model(&self) -> &CompiledModel {
        &self.model
    }

    /// Serving threads: the configured workers when unsharded, one per
    /// stage when sharded (`0` once [`drain`](Self::drain) has run).
    pub fn worker_count(&self) -> usize {
        lock_workers(&self.workers).len()
    }

    /// Submits a request without blocking.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidInput`] for a width mismatch (checked before
    /// enqueueing), [`ServeError::QueueFull`] when the bounded queue is at
    /// capacity, [`ServeError::ShuttingDown`] after shutdown began.
    pub fn try_submit(&self, input: Vec<f32>) -> Result<Ticket> {
        self.check_width(&input)?;
        let mut state = lock_state(&self.shared);
        if state.shutting_down {
            return Err(ServeError::ShuttingDown);
        }
        if state.jobs.len() >= self.queue_capacity {
            self.metrics.record_rejected();
            return Err(ServeError::QueueFull);
        }
        Ok(self.enqueue(&mut state, input, 1))
    }

    /// Submits a request, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidInput`] for a width mismatch,
    /// [`ServeError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, input: Vec<f32>) -> Result<Ticket> {
        self.check_width(&input)?;
        let mut state = lock_state(&self.shared);
        loop {
            if state.shutting_down {
                return Err(ServeError::ShuttingDown);
            }
            if state.jobs.len() < self.queue_capacity {
                return Ok(self.enqueue(&mut state, input, 1));
            }
            state = self
                .shared
                .space_ready
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Submits a pre-batched request — `rows × input_features` values
    /// flattened row-major — without blocking. The whole block runs as
    /// one unit and the ticket resolves to `rows × output_features`
    /// values. Because the block is already flat, a worker serving it
    /// alone skips the gather copy entirely and runs the kernel
    /// straight off the request buffer.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidInput`] when `input` is empty or not a whole
    /// number of feature rows; [`ServeError::QueueFull`] /
    /// [`ServeError::ShuttingDown`] as for [`try_submit`](Self::try_submit).
    pub fn try_submit_batch(&self, input: Vec<f32>) -> Result<Ticket> {
        let rows = self.check_batch_width(&input)?;
        let mut state = lock_state(&self.shared);
        if state.shutting_down {
            return Err(ServeError::ShuttingDown);
        }
        if state.jobs.len() >= self.queue_capacity {
            self.metrics.record_rejected();
            return Err(ServeError::QueueFull);
        }
        Ok(self.enqueue(&mut state, input, rows))
    }

    /// Blocking variant of [`try_submit_batch`](Self::try_submit_batch):
    /// waits for queue space instead of returning
    /// [`ServeError::QueueFull`].
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidInput`] for a shape mismatch,
    /// [`ServeError::ShuttingDown`] after shutdown began.
    pub fn submit_batch(&self, input: Vec<f32>) -> Result<Ticket> {
        let rows = self.check_batch_width(&input)?;
        let mut state = lock_state(&self.shared);
        loop {
            if state.shutting_down {
                return Err(ServeError::ShuttingDown);
            }
            if state.jobs.len() < self.queue_capacity {
                return Ok(self.enqueue(&mut state, input, rows));
            }
            state = self
                .shared
                .space_ready
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn check_width(&self, input: &[f32]) -> Result<()> {
        if input.len() != self.model.input_features() {
            return Err(ServeError::InvalidInput(format!(
                "request has {} features, model expects {}",
                input.len(),
                self.model.input_features()
            )));
        }
        Ok(())
    }

    fn check_batch_width(&self, input: &[f32]) -> Result<usize> {
        let features = self.model.input_features();
        if input.is_empty() || !input.len().is_multiple_of(features) {
            return Err(ServeError::InvalidInput(format!(
                "batch of {} values is not a non-empty whole number of {features}-feature rows",
                input.len()
            )));
        }
        Ok(input.len() / features)
    }

    fn enqueue(&self, state: &mut QueueState, input: Vec<f32>, rows: usize) -> Ticket {
        let (tx, rx) = mpsc::channel();
        state.jobs.push_back(Job {
            input,
            rows,
            reply: tx,
            enqueued: Instant::now(),
        });
        self.metrics.record_submit(state.jobs.len());
        self.shared.work_ready.notify_one();
        Ticket { reply: rx }
    }

    /// Current metrics snapshot.
    pub fn stats(&self) -> ServerStats {
        self.metrics.snapshot()
    }

    /// Shared handle to the engine's metrics sink, so a caller in front
    /// of the engine (e.g. a gateway's admission control) can record
    /// into the same per-model [`ServerStats`] the engine reports.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Stops accepting requests, drains the queue, joins the workers, and
    /// returns the final stats. Every request accepted before the call is
    /// still answered.
    pub fn shutdown(self) -> ServerStats {
        self.drain(Duration::MAX).stats
    }

    /// Gracefully drains the engine with a deadline: stops accepting new
    /// requests, lets the workers finish every accepted request, and
    /// waits up to `deadline` for them to exit.
    ///
    /// Unlike [`shutdown`](Self::shutdown), which joins unconditionally,
    /// `drain` never blocks past the deadline: workers still running
    /// when it expires are detached ([`DrainReport::joined`] is `false`)
    /// and keep answering the queue's remaining requests on their own —
    /// every accepted ticket is still redeemable either way. This is the
    /// primitive a hot-swap builds on: cut traffic to the new engine,
    /// then `drain` the old one without risking an unbounded stall.
    ///
    /// It takes `&self`, so a caller can drain an engine other threads
    /// still hold: their queued requests are answered before the
    /// workers exit, and their later submissions get
    /// [`ServeError::ShuttingDown`]. The wait is on the workers' exit
    /// latch, so it ends the moment the last one exits — no polling.
    pub fn drain(&self, deadline: Duration) -> DrainReport {
        self.begin_shutdown();
        let joined = self.exits.wait(deadline);
        let workers = std::mem::take(&mut *lock_workers(&self.workers));
        if joined {
            // Every worker is past its loop; the joins return at once.
            for worker in workers {
                let _ = worker.join();
            }
        }
        // Otherwise dropping the handles detaches the stragglers; they
        // own Arcs to everything they touch, so this is safe.
        Self::drain_report(&self.metrics, joined)
    }

    fn drain_report(metrics: &Metrics, joined: bool) -> DrainReport {
        let stats = metrics.snapshot();
        // Accepted minus answered (either way) is exactly the work the
        // detached workers still hold; counters only ever grow, so a
        // torn read can only momentarily overstate it — saturate.
        let in_flight_at_deadline = stats
            .submitted
            .saturating_sub(stats.completed)
            .saturating_sub(stats.failed);
        DrainReport {
            stats,
            joined,
            in_flight_at_deadline,
        }
    }

    /// Stage topology and queue occupancy when this engine serves a
    /// sharded pipeline; `None` when it runs the model as one stage.
    pub fn pipeline_stats(&self) -> Option<PipelineStats> {
        if self.stage_count() < 2 {
            return None;
        }
        let stages = self
            .plan
            .ranges
            .iter()
            .zip(&self.plan.costs)
            .enumerate()
            .map(|(s, (range, &cost_units))| {
                let (queue_depth, queue_capacity) = if s == 0 {
                    (lock_state(&self.shared).jobs.len(), self.queue_capacity)
                } else {
                    let gauge = &self.gauges[s - 1];
                    (gauge.len(), gauge.capacity())
                };
                StageStats {
                    ops: range.clone(),
                    cost_units,
                    queue_depth,
                    queue_capacity,
                }
            })
            .collect();
        Some(PipelineStats { stages })
    }

    /// Pipeline stages this engine runs (`1` when serving unsharded).
    pub fn stage_count(&self) -> usize {
        self.plan.ranges.len()
    }

    fn begin_shutdown(&self) {
        let mut state = lock_state(&self.shared);
        state.shutting_down = true;
        drop(state);
        self.shared.work_ready.notify_all();
        self.shared.space_ready.notify_all();
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Joins the workers unless a drain already took them.
        if self.worker_count() > 0 {
            self.drain(Duration::MAX);
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.worker_count())
            .field("queue_capacity", &self.queue_capacity)
            .field("input_features", &self.model.input_features())
            .finish()
    }
}

fn lock_workers(
    workers: &Mutex<Vec<JoinHandle<()>>>,
) -> std::sync::MutexGuard<'_, Vec<JoinHandle<()>>> {
    workers
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn lock_state(shared: &Shared) -> std::sync::MutexGuard<'_, QueueState> {
    // A worker can only panic between batches with the lock released, so
    // a poisoned mutex still guards consistent state.
    shared
        .state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Gathers a dynamic batch from the request queue into `batch`,
/// row-aware: jobs join until their summed rows would exceed
/// `max_rows` (a single job bigger than `max_rows` still runs, alone).
/// With a zero `max_wait` this takes what is queued and returns: one
/// lock, no clock read, no timed wait. A non-zero `max_wait` keeps
/// waiting for stragglers from the first pop until the earliest of:
/// batch full, shutdown, or `max_wait` elapsed — a partial batch is
/// never held past the deadline.
///
/// Returns `false` only when the engine is shutting down and the queue
/// has drained (the caller should exit); on `true` the batch is
/// non-empty and its row count is recorded.
fn gather_batch(
    shared: &Shared,
    metrics: &Metrics,
    batch: &mut Vec<Job>,
    max_rows: usize,
    max_wait: Duration,
) -> bool {
    batch.clear();
    let mut rows = 0usize;
    let mut state = lock_state(shared);
    // Sleep until there is work; exit only once the queue has drained
    // after shutdown.
    loop {
        if !state.jobs.is_empty() {
            break;
        }
        if state.shutting_down {
            return false;
        }
        state = shared
            .work_ready
            .wait(state)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
    let mut deadline = None;
    loop {
        // `full` means the *next* queued job no longer fits by rows —
        // stop waiting for stragglers, there is no room for them.
        let mut full = false;
        while let Some(front) = state.jobs.front() {
            if !batch.is_empty() && rows + front.rows > max_rows {
                full = true;
                break;
            }
            let job = state
                .jobs
                .pop_front()
                .expect("front existed under the lock");
            rows += job.rows;
            batch.push(job);
        }
        if max_wait.is_zero() || full || rows >= max_rows || state.shutting_down {
            break;
        }
        let now = Instant::now();
        let deadline = *deadline.get_or_insert(now + max_wait);
        if now >= deadline {
            break;
        }
        let (next, timeout) = shared
            .work_ready
            .wait_timeout(state, deadline - now)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state = next;
        if timeout.timed_out() && state.jobs.is_empty() {
            break;
        }
    }
    metrics.set_queue_depth(state.jobs.len());
    drop(state);
    metrics.record_batch(rows);
    // Queue space was freed by the pops above; wake blocked submitters
    // only now that there is actually room.
    shared.space_ready.notify_all();
    true
}

/// The batch's flat inputs: a lone pre-batched job is already flat, so
/// serve the kernel straight off its buffer and skip the gather copy.
fn flatten<'a>(batch: &'a [Job], flat: &'a mut Vec<f32>) -> &'a [f32] {
    if let [only] = batch {
        return &only.input;
    }
    flat.clear();
    for job in batch {
        flat.extend_from_slice(&job.input);
    }
    flat
}

/// Answers every job in `batch` out of one shared output allocation;
/// each requester copies its rows out on its own thread when it
/// redeems the ticket.
fn answer_ok(metrics: &Metrics, batch: &[Job], data: &Arc<[f32]>, width: usize) {
    let mut start = 0;
    for job in batch {
        metrics.record_completion(job.enqueued.elapsed(), true);
        let len = job.rows * width;
        // The requester may have dropped its ticket; fine.
        let _ = job.reply.send(Ok(ReplySlice {
            data: Arc::clone(data),
            start,
            len,
        }));
        start += len;
    }
}

/// Fails every job in `batch` with (a replica of) `err`.
fn answer_err(metrics: &Metrics, batch: &[Job], err: &ServeError) {
    for job in batch {
        metrics.record_completion(job.enqueued.elapsed(), false);
        let _ = job.reply.send(Err(replicate(err)));
    }
}

/// One micro-batch in flight between pipeline stages: the jobs it will
/// answer and the flow buffer being transformed. The
/// buffer *moves* stage to stage — rows are never copied or reordered,
/// which is half of the bit-identity argument (the other half is that
/// links are FIFO and stages run disjoint op ranges in order).
struct Micro {
    jobs: Vec<Job>,
    data: FlowData,
}

/// Where a stage takes its batches from.
enum Source {
    /// The request queue: gather a dynamic batch (see [`gather_batch`])
    /// and encode it.
    Queue {
        shared: Arc<Shared>,
        max_rows: usize,
        max_wait: Duration,
    },
    /// The upstream stage's link: install the moved-in flow, which
    /// resumes from the given state.
    Link(spsc::Receiver<Micro>, FlowState),
}

/// Where a stage hands its batches to.
enum Sink {
    /// The downstream stage's link.
    Link(spsc::Sender<Micro>),
    /// The requesters: answer every job from the arena's output rows.
    Reply,
}

/// One serving thread's share of the op program.
struct Stage {
    ops: std::ops::Range<usize>,
    source: Source,
    sink: Sink,
}

/// The engine's one serving loop: take a batch from the stage's source,
/// run its op range, hand the result to its sink. An unsharded engine
/// runs `Queue → 0..op_count → Reply` on every worker; a sharded one
/// chains stages through links. A queue stage exits once shutdown has
/// begun and the queue has drained, dropping its link; a link stage
/// exits once its upstream has dropped the link and it has drained —
/// shutdown cascades from the queue.
///
/// A panic while executing one batch fails exactly that batch's jobs as
/// [`ServeError::WorkerPanic`] and the stage keeps serving: a dead
/// thread would stall every ticket behind it. The runner resets its
/// scratch on every call, so reuse after a panic is safe.
fn stage_loop(metrics: &Metrics, model: &CompiledModel, stage: Stage) {
    let Stage { ops, source, sink } = stage;
    // Per-thread scratch, reused across batches. A queue stage reserves
    // its arena for a full batch up front, so steady-state serving
    // allocates nothing per sample; a link stage's arena grows to the
    // first micro-batch instead of reserving the whole model's widest
    // flow at full batch in every stage.
    let reserve_rows = match source {
        Source::Queue { max_rows, .. } => max_rows,
        Source::Link(..) => 1,
    };
    let mut runner = BatchRunner::for_model(model, reserve_rows);
    let mut flat: Vec<f32> = Vec::new();
    let mut batch: Vec<Job> = Vec::new();
    loop {
        let handoff = match &source {
            Source::Queue {
                shared,
                max_rows,
                max_wait,
            } => {
                if !gather_batch(shared, metrics, &mut batch, *max_rows, *max_wait) {
                    return;
                }
                None
            }
            Source::Link(rx, entry) => {
                let Some(micro) = rx.recv() else { return };
                batch = micro.jobs;
                Some((*entry, micro.data))
            }
        };
        let rows: usize = batch.iter().map(|job| job.rows).sum();
        let padded = pad_rows(rows);
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let entry = match handoff {
                None => runner.encode_batch(model, flatten(&batch, &mut flat), padded),
                Some((entry, data)) => {
                    runner.install(entry, data)?;
                    entry
                }
            };
            runner.exec_ops(model, ops.clone(), entry, padded)
        }))
        .unwrap_or_else(|payload| Err(ServeError::WorkerPanic(panic_message(&payload))));
        match (run, &sink) {
            (Ok(exit), Sink::Link(tx)) => {
                let micro = Micro {
                    jobs: std::mem::take(&mut batch),
                    data: runner.take_flow(exit.domain),
                };
                // Blocks while downstream is busy — this is the
                // backpressure path. `Err` means the next stage is gone,
                // which only happens when the engine is tearing down.
                if let Err(micro) = tx.send(micro) {
                    answer_err(metrics, &micro.jobs, &ServeError::ShuttingDown);
                    return;
                }
            }
            (Ok(exit), Sink::Reply) => match runner.output(exit, rows) {
                Ok(out) => answer_ok(metrics, &batch, &Arc::from(out), exit.width),
                Err(err) => answer_err(metrics, &batch, &err),
            },
            (Err(err), _) => answer_err(metrics, &batch, &err),
        }
    }
}

/// Fans one batch-level error out to every affected job. [`ServeError`]
/// is not `Clone` (it can wrap `io::Error`), so replicate the variants
/// the batch kernel can actually produce.
fn replicate(err: &ServeError) -> ServeError {
    match err {
        ServeError::InvalidInput(msg) => ServeError::InvalidInput(msg.clone()),
        ServeError::Artifact(ArtifactError::Malformed(msg)) => {
            ServeError::Artifact(ArtifactError::Malformed(msg.clone()))
        }
        ServeError::WorkerPanic(msg) => ServeError::WorkerPanic(msg.clone()),
        other => ServeError::InvalidInput(other.to_string()),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::CompiledModel;

    /// A panicking `infer` must fail only that request: the worker stays
    /// alive, later requests are still answered, and shutdown drains.
    #[test]
    fn worker_survives_inference_panic() {
        let engine = Engine::start(
            CompiledModel::broken_for_tests(),
            EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        );
        for _ in 0..2 {
            let ticket = engine.try_submit(vec![0.5]).unwrap();
            assert!(matches!(ticket.wait(), Err(ServeError::WorkerPanic(_))));
        }
        let stats = engine.shutdown();
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.completed, 0);
    }

    /// A panic in a *late* pipeline stage (mid-stream, after stage 0
    /// already encoded and forwarded the micro-batch) must fail exactly
    /// the affected requests with a typed [`ServeError::WorkerPanic`]
    /// while every stage keeps serving later traffic, and shutdown must
    /// still drain cleanly.
    #[test]
    fn late_stage_panic_fails_typed_while_pipeline_keeps_serving() {
        let model = CompiledModel::deep_broken_tail_for_tests(4);
        // One op per stage: the healthy dense prefix spreads over the
        // early stages and the broken pool op lands alone in the last.
        let stages = model.op_count();
        let engine = Engine::start(
            model,
            EngineConfig {
                stages,
                max_batch_size: 2,
                max_wait: Duration::ZERO,
                ..EngineConfig::default()
            },
        );
        assert_eq!(engine.stage_count(), stages);
        assert!(engine.pipeline_stats().is_some());
        for round in 0..3 {
            let tickets: Vec<Ticket> = (0..4)
                .map(|_| engine.try_submit(vec![0.1, 0.2, 0.3, 0.4]).unwrap())
                .collect();
            for ticket in tickets {
                assert!(
                    matches!(ticket.wait(), Err(ServeError::WorkerPanic(_))),
                    "round {round}: expected a typed panic failure"
                );
            }
        }
        // The pre-batched path crosses the same broken stage.
        let ticket = engine.try_submit_batch(vec![0.0; 8]).unwrap();
        assert!(matches!(ticket.wait(), Err(ServeError::WorkerPanic(_))));
        let stats = engine.shutdown();
        assert_eq!(stats.failed, 13);
        assert_eq!(stats.completed, 0);
    }
}
