//! Deterministic block-parallel execution driver.
//!
//! Every packed consumer in the workspace (the ATPG random phase, the
//! minimum-leakage Monte-Carlo, the sampled observability forward pass)
//! works in *independent* blocks of at most [`BLOCK_LANES`]
//! (= [`PackedWord::LANES`](crate::PackedWord)) circuit states. Each block
//! is one packed pass through a [`SimKernel`], and nothing a block computes
//! depends on any other block. [`BlockDriver`]
//! exploits that shape: it splits a job list (or a flat pattern/candidate
//! list) into blocks, runs each block on a worker thread with its own
//! per-thread context (typically a [`SimKernel`] clone), and hands the
//! results back **in block order**, so every reduction the caller performs
//! is performed in exactly the order the sequential loop would have used —
//! the output is bit-identical regardless of the thread count.
//!
//! Execution paths:
//!
//! * thread count `1` (or a single job) — the zero-thread fallback: the
//!   closures run inline on the caller's thread, no worker is spawned;
//! * otherwise — sharding over [`std::thread::scope`] workers pulling jobs
//!   from an atomic counter.
//!
//! # Failure handling
//!
//! Worker jobs are isolated with [`std::panic::catch_unwind`]: a panicking
//! job never unwinds the scope, so its siblings always run to completion
//! and the merge stays deterministic. The plain entry points ([`map`] and
//! friends) then re-raise the **lowest-index** failed job's original panic
//! payload — whatever thread count or scheduling produced it.
//!
//! [`BlockDriver::map_supervised`] keeps the failure instead of re-raising
//! it: each job runs under a [`JobPolicy`] (bounded retry budget for
//! transient panics, optional deadline surfaced through a cooperative
//! [`CancelFlag`]) and comes back as `Result<R, JobError<E>>` in its
//! deterministic job slot, so one bad job degrades one row, not the
//! process.
//!
//! [`map`]: BlockDriver::map
//! [`SimKernel`]: crate::SimKernel

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::failpoint;
use crate::kernel::LogicWord;

/// What one worker job produced: its result, or the payload of the panic
/// [`catch_unwind`] isolated.
type JobOutcome<R> = Result<R, Box<dyn Any + Send>>;

/// Number of circuit states per block: the lane count of
/// [`PackedWord`](crate::PackedWord).
pub const BLOCK_LANES: usize = <crate::PackedWord as LogicWord>::LANES;

/// Resolves a configured worker thread count to a concrete count.
///
/// This is the single thread-count policy of the workspace — every
/// `threads` knob (`AtpgConfig::threads`, `InputVectorControl::threads`,
/// `ExperimentOptions::threads`, [`BlockDriver::new`]) routes through it:
///
/// * `0` — automatic: one worker per available hardware thread,
///   overridable with the `SCANPOWER_THREADS` environment variable (a
///   positive integer; other values are ignored);
/// * any other value is used as-is (`1` = the sequential fallback).
#[must_use]
pub fn resolve_worker_threads(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    if let Some(threads) = std::env::var("SCANPOWER_THREADS")
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&threads| threads > 0)
    {
        return threads;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Marker error: a job observed its [`CancelFlag`] tripped (explicitly, or
/// because its deadline passed) and stopped at a block boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Canceled;

impl fmt::Display for Canceled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("job canceled (cancellation flag tripped or deadline exceeded)")
    }
}

impl std::error::Error for Canceled {}

/// Cooperative cancellation: a shared flag plus an optional deadline.
///
/// Cancellation is *polled*, never preemptive — a job checks
/// [`CancelFlag::checkpoint`] at its natural block boundaries (the packed
/// replay polls once per ≤64-pattern block) and winds down cleanly
/// with [`Canceled`]. Determinism note: a deadline makes *whether* a job
/// completes timing-dependent by design; everything a surviving job
/// returns is still bit-identical. Tests that need a deterministic
/// cancellation use an already-tripped flag or a zero deadline.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag {
    tripped: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelFlag {
    /// A fresh, untripped flag with no deadline.
    #[must_use]
    pub fn new() -> CancelFlag {
        CancelFlag::default()
    }

    /// A flag that auto-trips once `budget` has elapsed (a per-job
    /// deadline). A zero budget is already expired — the deterministic way
    /// to exercise cancellation paths.
    #[must_use]
    pub fn with_deadline(budget: Duration) -> CancelFlag {
        CancelFlag {
            tripped: Arc::new(AtomicBool::new(false)),
            deadline: Some(Instant::now() + budget),
        }
    }

    /// Trips the flag: every clone observes the cancellation at its next
    /// checkpoint.
    pub fn cancel(&self) {
        self.tripped.store(true, Ordering::Release);
    }

    /// Whether the flag has been tripped or the deadline has passed.
    #[must_use]
    pub fn is_canceled(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
            || self
                .deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// The polling entry point: `Err(Canceled)` once the flag is tripped.
    ///
    /// # Errors
    ///
    /// Returns [`Canceled`] when [`CancelFlag::is_canceled`] is true.
    pub fn checkpoint(&self) -> Result<(), Canceled> {
        if self.is_canceled() {
            Err(Canceled)
        } else {
            Ok(())
        }
    }

    /// A child flag that **shares** this flag's tripped state — cancelling
    /// the parent cancels every child at its next checkpoint — while
    /// carrying its own optional deadline `budget` on top. When both the
    /// parent and the child have deadlines, the child observes the earlier
    /// of the two.
    ///
    /// This is the seam an external supervisor (a job service handling a
    /// `CancelJob` request, say) uses to cancel work that is already deep
    /// inside a per-attempt replay: the attempt polls the child, the
    /// supervisor trips the parent.
    ///
    /// Note that the sharing is symmetric: [`CancelFlag::cancel`] on a
    /// child also trips the parent (and every sibling). Deadlines are not
    /// shared — a child's expired deadline cancels only that child.
    #[must_use]
    pub fn child(&self, budget: Option<Duration>) -> CancelFlag {
        let own_deadline = budget.map(|budget| Instant::now() + budget);
        CancelFlag {
            tripped: Arc::clone(&self.tripped),
            deadline: match (self.deadline, own_deadline) {
                (Some(parent), Some(own)) => Some(parent.min(own)),
                (parent, own) => parent.or(own),
            },
        }
    }
}

/// Supervision policy for [`BlockDriver::map_supervised`]: how often a job
/// may be retried and how long one attempt may run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobPolicy {
    /// Extra attempts after the first, granted when an attempt **panics**
    /// (the transient-failure model; a typed `Err` is treated as
    /// deterministic and not retried unless [`JobPolicy::retry_errors`] is
    /// set).
    pub retries: u32,
    /// Per-attempt deadline: each attempt gets a fresh [`CancelFlag`] with
    /// this budget, delivered through [`JobContext::cancel_flag`]. `None`
    /// (the default) never cancels.
    pub deadline: Option<Duration>,
    /// Extend the retry budget to typed `Err` returns as well. Off by
    /// default: a deterministic pipeline returns the same error on every
    /// attempt, so retrying it only burns time.
    pub retry_errors: bool,
}

impl JobPolicy {
    /// Grant `retries` extra attempts after a panicking attempt.
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> JobPolicy {
        self.retries = retries;
        self
    }

    /// Give every attempt a deadline of `budget`.
    #[must_use]
    pub fn with_deadline(mut self, budget: Duration) -> JobPolicy {
        self.deadline = Some(budget);
        self
    }

    /// Also retry attempts that returned a typed `Err`.
    #[must_use]
    pub fn retrying_errors(mut self) -> JobPolicy {
        self.retry_errors = true;
        self
    }
}

/// What a supervised job closure sees about its own execution: which job it
/// is, which attempt this is, and the cancellation flag to poll.
#[derive(Debug, Clone)]
pub struct JobContext {
    job: usize,
    attempt: u32,
    cancel: CancelFlag,
}

impl JobContext {
    /// The job index (also the slot index of the result).
    #[must_use]
    pub fn job(&self) -> usize {
        self.job
    }

    /// The attempt number, starting at 1 for the first attempt.
    #[must_use]
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The attempt's cancellation flag (carries the policy deadline). Pass
    /// it to cancellable callees; clones share the tripped state.
    #[must_use]
    pub fn cancel_flag(&self) -> &CancelFlag {
        &self.cancel
    }

    /// Shorthand for `self.cancel_flag().checkpoint()`.
    ///
    /// # Errors
    ///
    /// Returns [`Canceled`] once the attempt's flag is tripped.
    pub fn checkpoint(&self) -> Result<(), Canceled> {
        self.cancel.checkpoint()
    }
}

/// Why a supervised job's final attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFailure<E> {
    /// The job closure returned a typed error.
    Error(E),
    /// The attempt panicked (or hit an injected `sim::driver::job` fault);
    /// the payload was caught and rendered to its message. The process —
    /// and every sibling job — survived.
    Panicked {
        /// The panic message (`"non-string panic payload"` when the
        /// payload was not a string).
        message: String,
    },
}

/// A supervised job's terminal failure: which job, after how many
/// attempts, and why (see [`JobFailure`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError<E> {
    /// The failed job's index (its slot in the result vector).
    pub job: usize,
    /// Attempts consumed, counting the first (so `retries + 1` when the
    /// whole budget was spent).
    pub attempts: u32,
    /// The final attempt's failure.
    pub failure: JobFailure<E>,
}

impl<E: fmt::Display> fmt::Display for JobError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {} failed after {} attempt(s): ",
            self.job, self.attempts
        )?;
        match &self.failure {
            JobFailure::Error(error) => write!(f, "{error}"),
            JobFailure::Panicked { message } => write!(f, "panicked: {message}"),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for JobError<E> {}

/// Renders a caught panic payload to the human-readable message. Panics in
/// this codebase carry `&str` or `String` payloads; anything else (a rogue
/// `panic_any`) degrades to a fixed marker rather than being lost.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&'static str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one supervised job to completion: fresh [`JobContext`] per attempt,
/// [`catch_unwind`] isolation, retry budget from the policy. The
/// `sim::driver::job` failpoint fires inside the isolation, once per
/// attempt, keyed by the job index.
fn supervise<R, E, F>(policy: JobPolicy, job: usize, run: &F) -> Result<R, JobError<E>>
where
    F: Fn(&JobContext) -> Result<R, E> + Sync,
{
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let context = JobContext {
            job,
            attempt,
            cancel: policy
                .deadline
                .map_or_else(CancelFlag::new, CancelFlag::with_deadline),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            failpoint::hit("sim::driver::job", job as u64).map_err(|fault| {
                JobFailure::Panicked {
                    message: fault.to_string(),
                }
            })?;
            run(&context).map_err(JobFailure::Error)
        }));
        let failure = match outcome {
            Ok(Ok(result)) => return Ok(result),
            Ok(Err(failure)) => failure,
            Err(payload) => JobFailure::Panicked {
                message: panic_message(payload.as_ref()),
            },
        };
        let retriable = match &failure {
            JobFailure::Panicked { .. } => true,
            JobFailure::Error(_) => policy.retry_errors,
        };
        if !retriable || attempt > policy.retries {
            return Err(JobError {
                job,
                attempts: attempt,
                failure,
            });
        }
    }
}

/// Splits independent ≤[`BLOCK_LANES`]-lane blocks across threads and
/// merges the results deterministically (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockDriver {
    threads: usize,
}

impl Default for BlockDriver {
    /// The automatic driver: one worker per available hardware thread.
    fn default() -> Self {
        BlockDriver::auto()
    }
}

impl BlockDriver {
    /// Builds a driver with an explicit thread count; `0` selects the
    /// automatic count (see [`BlockDriver::auto`]), `1` the sequential
    /// fallback. The resolution policy is the shared
    /// [`resolve_worker_threads`].
    #[must_use]
    pub fn new(threads: usize) -> BlockDriver {
        BlockDriver {
            threads: resolve_worker_threads(threads),
        }
    }

    /// The sequential fallback: every block runs inline on the caller's
    /// thread, in order. Parallel runs produce bit-identical results to
    /// this driver.
    #[must_use]
    pub fn sequential() -> BlockDriver {
        BlockDriver { threads: 1 }
    }

    /// One worker per available hardware thread, overridable with the
    /// `SCANPOWER_THREADS` environment variable (a positive integer; other
    /// values are ignored) — see [`resolve_worker_threads`].
    #[must_use]
    pub fn auto() -> BlockDriver {
        BlockDriver {
            threads: resolve_worker_threads(0),
        }
    }

    /// The configured worker count (at least 1).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of ≤[`BLOCK_LANES`]-lane blocks a list of `items` splits
    /// into.
    #[must_use]
    pub fn block_count(items: usize) -> usize {
        items.div_ceil(BLOCK_LANES)
    }

    /// Runs `jobs` independent jobs and returns their results indexed by
    /// job — `out[j] == run(j)` — whatever thread ran which job.
    ///
    /// # Panics
    ///
    /// If jobs panic, the panic of the **lowest-index** failed job is
    /// re-raised with its original payload after every sibling has run to
    /// completion (per-job isolation — see the [module docs](self)). Use
    /// [`BlockDriver::map_supervised`] to receive failures as values
    /// instead.
    pub fn map<R, F>(&self, jobs: usize, run: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.map_with(jobs, || (), |(): &mut (), job| run(job))
    }

    /// The supervised sibling of [`BlockDriver::map`]: runs `jobs` fallible
    /// jobs under `policy` and returns per-job outcomes in job order — a
    /// failed job occupies its own deterministic slot as a [`JobError`]
    /// instead of tearing down its siblings.
    ///
    /// Supervision, per job:
    ///
    /// * every attempt is isolated with [`std::panic::catch_unwind`]; a
    ///   panic becomes [`JobFailure::Panicked`] with the panic message;
    /// * panicking attempts are retried up to `policy.retries` extra
    ///   times (typed `Err`s too, if [`JobPolicy::retry_errors`] is set);
    /// * each attempt receives a fresh [`JobContext`] whose
    ///   [`CancelFlag`] carries the policy deadline — the job polls
    ///   [`JobContext::checkpoint`] at its block boundaries and returns
    ///   its own cancellation error (the packed replay surfaces
    ///   [`Canceled`]).
    ///
    /// Results are merged in job order like every other entry point:
    /// surviving jobs are bit-identical to a fault-free run at any thread
    /// count, and a deterministic failure lands in the same slot with the
    /// same message every run.
    pub fn map_supervised<R, E, F>(
        &self,
        jobs: usize,
        policy: JobPolicy,
        run: F,
    ) -> Vec<Result<R, JobError<E>>>
    where
        R: Send,
        E: Send,
        F: Fn(&JobContext) -> Result<R, E> + Sync,
    {
        self.map(jobs, |job| supervise(policy, job, &run))
    }

    /// Like [`BlockDriver::map`], but every worker thread first builds one
    /// context with `init` (a per-thread [`SimKernel`] clone, a scratch
    /// buffer, …) and reuses it across all jobs it runs. Results must not
    /// depend on the context's history — job assignment to workers is
    /// scheduling-dependent.
    ///
    /// [`SimKernel`]: crate::SimKernel
    pub fn map_with<C, R, I, F>(&self, jobs: usize, init: I, run: F) -> Vec<R>
    where
        R: Send,
        I: Fn() -> C + Sync,
        F: Fn(&mut C, usize) -> R + Sync,
    {
        if jobs == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(jobs);
        let slots = if workers <= 1 {
            sequential_map(jobs, &init, &run)
        } else {
            parallel_map(jobs, workers, &init, &run)
        };
        // Deterministic merge: results in job order. Per-job isolation in
        // the backends means a panicking job cannot unwind the scope, so
        // every slot is filled; the lowest-index failure re-raises its
        // original payload — whichever thread hit it, in whatever order.
        // An empty slot would mean a worker died outside a job (an `init`
        // panic escapes via the scope join before we get here), so it is
        // reported as a structured worker failure, not an `expect` on an
        // invariant that faults can break.
        let mut results = Vec::with_capacity(jobs);
        for (job, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(Ok(result)) => results.push(result),
                Some(Err(payload)) => resume_unwind(payload),
                None => panic!("worker failure: job {job} produced no result"),
            }
        }
        results
    }

    /// Splits `items` into ≤[`BLOCK_LANES`]-item blocks and maps each block
    /// with `run(context, block_index, block)`, using a per-thread context
    /// built by `init` (see [`BlockDriver::map_with`]); results come back in
    /// block order. The final block may be shorter than [`BLOCK_LANES`].
    pub fn map_blocks_with<C, T, R, I, F>(&self, items: &[T], init: I, run: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> C + Sync,
        F: Fn(&mut C, usize, &[T]) -> R + Sync,
    {
        self.map_with(Self::block_count(items.len()), init, |context, block| {
            let start = block * BLOCK_LANES;
            let end = (start + BLOCK_LANES).min(items.len());
            run(context, block, &items[start..end])
        })
    }
}

/// The zero-thread fallback: every job runs inline on the caller's thread,
/// in order, under the same per-job [`catch_unwind`] isolation as the
/// parallel backends — a panicking job still lets every sibling run before
/// the merge re-raises it, so thread count `1` is behaviorally identical
/// to `N`.
fn sequential_map<C, R, I, F>(jobs: usize, init: &I, run: &F) -> Vec<Option<JobOutcome<R>>>
where
    R: Send,
    I: Fn() -> C + Sync,
    F: Fn(&mut C, usize) -> R + Sync,
{
    let mut context = init();
    (0..jobs)
        .map(|job| {
            let outcome = catch_unwind(AssertUnwindSafe(|| run(&mut context, job)));
            if outcome.is_err() {
                context = init();
            }
            Some(outcome)
        })
        .collect()
}

/// The parallel backend: scoped worker threads pulling job indices from a
/// shared atomic counter. Each worker stashes `(job, outcome)` pairs locally; the
/// caller scatters them back into job order, so scheduling never leaks into
/// the output. Jobs run under [`catch_unwind`]: a panicking job yields its
/// payload as that job's outcome and the worker keeps draining the queue —
/// with a fresh context, since the panic may have left the old one
/// half-updated.
fn parallel_map<C, R, I, F>(
    jobs: usize,
    workers: usize,
    init: &I,
    run: &F,
) -> Vec<Option<JobOutcome<R>>>
where
    R: Send,
    I: Fn() -> C + Sync,
    F: Fn(&mut C, usize) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, JobOutcome<R>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut context = init();
                    let mut part = Vec::new();
                    loop {
                        let job = next.fetch_add(1, Ordering::Relaxed);
                        if job >= jobs {
                            break;
                        }
                        let outcome = catch_unwind(AssertUnwindSafe(|| run(&mut context, job)));
                        let failed = outcome.is_err();
                        part.push((job, outcome));
                        if failed {
                            context = init();
                        }
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| match handle.join() {
                Ok(part) => part,
                // Only `init` runs outside the per-job isolation; a panic
                // there is a caller bug, re-raised as before.
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    });
    let mut slots: Vec<Option<JobOutcome<R>>> = (0..jobs).map(|_| None).collect();
    for part in parts {
        for (job, outcome) in part {
            slots[job] = Some(outcome);
        }
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{pack_logic_patterns, PackedWord, SimKernel};
    use crate::{Evaluator, Logic};
    use scanpower_netlist::bench;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn drivers() -> [BlockDriver; 4] {
        [
            BlockDriver::sequential(),
            BlockDriver::new(2),
            BlockDriver::new(3),
            BlockDriver::new(16),
        ]
    }

    /// Children share the parent's tripped state (in both directions) but
    /// keep their own deadlines: an expired child budget cancels only that
    /// child.
    #[test]
    fn cancel_flag_children_share_trips_but_not_deadlines() {
        let parent = CancelFlag::new();
        let child = parent.child(None);
        assert!(child.checkpoint().is_ok());
        parent.cancel();
        assert_eq!(child.checkpoint(), Err(Canceled));

        let parent = CancelFlag::new();
        let expired = parent.child(Some(Duration::ZERO));
        let sibling = parent.child(None);
        assert_eq!(expired.checkpoint(), Err(Canceled));
        assert!(
            sibling.checkpoint().is_ok(),
            "a child's deadline must not leak to the parent or siblings"
        );
        assert!(parent.checkpoint().is_ok());

        // Symmetric sharing: cancelling a child trips the parent too.
        sibling.cancel();
        assert_eq!(parent.checkpoint(), Err(Canceled));

        // A child inherits the parent's (earlier) deadline.
        let parent = CancelFlag::with_deadline(Duration::ZERO);
        let child = parent.child(Some(Duration::from_secs(3600)));
        assert_eq!(child.checkpoint(), Err(Canceled));
    }

    #[test]
    fn zero_threads_resolves_to_auto() {
        assert!(BlockDriver::new(0).threads() >= 1);
        assert_eq!(BlockDriver::new(5).threads(), 5);
        assert_eq!(BlockDriver::sequential().threads(), 1);
    }

    #[test]
    fn resolve_worker_threads_is_the_shared_policy() {
        // Explicit counts pass through untouched; `0` resolves to the same
        // automatic count the driver uses.
        assert_eq!(resolve_worker_threads(1), 1);
        assert_eq!(resolve_worker_threads(7), 7);
        assert!(resolve_worker_threads(0) >= 1);
        assert_eq!(resolve_worker_threads(0), BlockDriver::auto().threads());
        assert_eq!(resolve_worker_threads(0), BlockDriver::new(0).threads());
    }

    #[test]
    fn block_count_rounds_up() {
        assert_eq!(BlockDriver::block_count(0), 0);
        assert_eq!(BlockDriver::block_count(1), 1);
        assert_eq!(BlockDriver::block_count(64), 1);
        assert_eq!(BlockDriver::block_count(65), 2);
        assert_eq!(BlockDriver::block_count(150), 3);
    }

    #[test]
    fn map_preserves_job_order_for_every_thread_count() {
        let reference: Vec<usize> = (0..97).map(|job| job * job).collect();
        for driver in drivers() {
            assert_eq!(driver.map(97, |job| job * job), reference);
        }
        assert!(BlockDriver::new(8).map(0, |job| job).is_empty());
    }

    #[test]
    fn map_blocks_splits_into_64_lane_blocks_with_partial_tail() {
        let items: Vec<u32> = (0..150).collect();
        for driver in drivers() {
            let sizes = driver.map_blocks_with(
                &items,
                || (),
                |(), block, chunk| {
                    // Every block sees the right contiguous slice.
                    assert_eq!(chunk[0], (block * BLOCK_LANES) as u32);
                    chunk.len()
                },
            );
            assert_eq!(sizes, vec![64, 64, 22]);
        }
    }

    #[test]
    fn map_with_builds_one_context_per_worker_and_reuses_it() {
        // The context records how many jobs it served; the total over all
        // contexts must be the job count, and under the sequential driver a
        // single context serves everything. The locks tolerate poisoning: a
        // failing assertion inside a worker must not cascade into poisoned
        // `unwrap` noise from this test.
        let served = std::sync::Mutex::new(Vec::new());
        BlockDriver::sequential().map_with(
            10,
            || 0usize,
            |count, _job| {
                *count += 1;
                served
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(*count);
            },
        );
        assert_eq!(
            served
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
            (1..=10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn map_with_reuses_contexts_under_parallel_drivers() {
        // Contexts are per worker — never per job: far fewer inits than
        // jobs, and every job runs exactly once whatever the scheduling.
        for threads in [2, 3, 8] {
            let inits = AtomicUsize::new(0);
            let jobs = 64usize;
            let result = BlockDriver::new(threads).map_with(
                jobs,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                },
                |(), job| job,
            );
            assert_eq!(result, (0..jobs).collect::<Vec<_>>());
            let inits = inits.into_inner();
            assert!(inits >= 1, "threads {threads}: no context built");
            assert!(
                inits <= 2 * threads,
                "threads {threads}: {inits} contexts for {jobs} jobs — init ran per job?"
            );
        }
    }

    /// A panicking job is isolated per job: siblings all run to
    /// completion and the merge re-raises the **lowest-index** failure's
    /// original payload, for every thread count and scheduling.
    #[test]
    fn map_reraises_the_lowest_index_panic_deterministically() {
        for driver in drivers() {
            let completed = AtomicUsize::new(0);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                driver.map(10, |job| {
                    // Jobs 3 and 7 both panic; job 3 must win the merge.
                    assert!(job != 3, "job three failed");
                    assert!(job != 7, "job seven failed");
                    completed.fetch_add(1, Ordering::Relaxed);
                    job
                })
            }));
            let payload = caught.expect_err("a panicking job must surface");
            let message = super::panic_message(payload.as_ref());
            assert!(
                message.contains("job three failed"),
                "threads {}: expected job 3's payload, got {message:?}",
                driver.threads()
            );
            assert_eq!(
                completed.load(Ordering::Relaxed),
                8,
                "threads {}: siblings must run to completion",
                driver.threads()
            );
        }
    }

    /// `map_supervised` keeps failures as values: the panicking job lands
    /// in its own slot as `JobFailure::Panicked`, every sibling row is
    /// bit-identical to the sequential fault-free run.
    #[test]
    fn map_supervised_isolates_failures_into_their_slots() {
        let clean: Vec<usize> = (0..10).map(|job| job * 31).collect();
        for driver in drivers() {
            let outcomes = driver.map_supervised(
                10,
                JobPolicy::default(),
                |context| -> Result<usize, Canceled> {
                    assert!(context.job() != 4, "job four failed");
                    assert_eq!(context.attempt(), 1);
                    Ok(context.job() * 31)
                },
            );
            for (job, outcome) in outcomes.iter().enumerate() {
                if job == 4 {
                    let error = outcome.as_ref().expect_err("job 4 panicked");
                    assert_eq!(error.job, 4);
                    assert_eq!(error.attempts, 1);
                    let JobFailure::Panicked { message } = &error.failure else {
                        panic!("expected a panic failure, got {error:?}");
                    };
                    assert!(message.contains("job four failed"), "got {message:?}");
                    assert_eq!(
                        error.to_string(),
                        format!("job 4 failed after 1 attempt(s): panicked: {message}"),
                    );
                } else {
                    assert_eq!(
                        outcome.as_ref().expect("sibling survived"),
                        &clean[job],
                        "threads {} job {job}",
                        driver.threads()
                    );
                }
            }
        }
    }

    /// The retry budget: a job that panics on its first attempt succeeds
    /// on the second when the policy grants a retry, and fails with the
    /// attempt count when it doesn't. Per-job attempt counters make this
    /// deterministic under any scheduling.
    #[test]
    fn map_supervised_retries_panicking_attempts_within_budget() {
        for driver in drivers() {
            for retries in [0u32, 1, 2] {
                let first_attempts: Vec<AtomicUsize> =
                    (0..6).map(|_| AtomicUsize::new(0)).collect();
                let outcomes = driver.map_supervised(
                    6,
                    JobPolicy::default().with_retries(retries),
                    |context| -> Result<usize, Canceled> {
                        if context.job() == 2
                            && first_attempts[context.job()].fetch_add(1, Ordering::Relaxed) == 0
                        {
                            panic!("transient failure");
                        }
                        Ok(context.job())
                    },
                );
                for (job, outcome) in outcomes.iter().enumerate() {
                    if job == 2 && retries == 0 {
                        let error = outcome.as_ref().expect_err("budget exhausted");
                        assert_eq!((error.job, error.attempts), (2, 1));
                    } else {
                        assert_eq!(
                            outcome.as_ref().expect("job survived"),
                            &job,
                            "threads {} retries {retries}",
                            driver.threads()
                        );
                    }
                }
                if retries > 0 {
                    assert_eq!(first_attempts[2].load(Ordering::Relaxed), 2);
                }
            }
        }
    }

    /// Typed errors are deterministic failures: not retried by default,
    /// retried under `retrying_errors`.
    #[test]
    fn map_supervised_retries_errors_only_when_asked() {
        let attempts = AtomicUsize::new(0);
        let outcomes = BlockDriver::sequential().map_supervised(
            1,
            JobPolicy::default().with_retries(3),
            |_context| -> Result<(), &'static str> {
                attempts.fetch_add(1, Ordering::Relaxed);
                Err("deterministic failure")
            },
        );
        let error = outcomes[0].as_ref().expect_err("job failed");
        assert_eq!(error.attempts, 1, "typed errors are not retried by default");
        assert_eq!(error.failure, JobFailure::Error("deterministic failure"));
        assert_eq!(attempts.load(Ordering::Relaxed), 1);

        let attempts = AtomicUsize::new(0);
        let outcomes = BlockDriver::sequential().map_supervised(
            1,
            JobPolicy::default().with_retries(2).retrying_errors(),
            |context| -> Result<u32, &'static str> {
                attempts.fetch_add(1, Ordering::Relaxed);
                if context.attempt() < 3 {
                    Err("still warming up")
                } else {
                    Ok(context.attempt())
                }
            },
        );
        assert_eq!(outcomes[0], Ok(3));
        assert_eq!(attempts.load(Ordering::Relaxed), 3);
    }

    /// Deadlines surface through the context's `CancelFlag`: a zero budget
    /// is already expired at the first checkpoint — the deterministic way
    /// to drive the cancellation path.
    #[test]
    fn map_supervised_zero_deadline_cancels_at_the_first_checkpoint() {
        for driver in drivers() {
            let outcomes = driver.map_supervised(
                4,
                JobPolicy::default().with_deadline(Duration::ZERO),
                |context| -> Result<usize, Canceled> {
                    context.checkpoint()?;
                    Ok(context.job())
                },
            );
            for (job, outcome) in outcomes.iter().enumerate() {
                let error = outcome.as_ref().expect_err("deadline already expired");
                assert_eq!(
                    (error.job, error.attempts, &error.failure),
                    (job, 1, &JobFailure::Error(Canceled)),
                    "threads {}",
                    driver.threads()
                );
            }
        }
    }

    #[test]
    fn cancel_flag_trips_for_every_clone() {
        let flag = CancelFlag::new();
        let clone = flag.clone();
        assert!(!flag.is_canceled());
        assert_eq!(clone.checkpoint(), Ok(()));
        flag.cancel();
        assert!(clone.is_canceled());
        assert_eq!(clone.checkpoint(), Err(Canceled));
        assert_eq!(
            Canceled.to_string(),
            "job canceled (cancellation flag tripped or deadline exceeded)"
        );
    }

    /// Full agreement of the parallel kernel path with scalar evaluation:
    /// ternary patterns (X propagation included) split into blocks with a
    /// partial tail, one kernel clone per worker.
    #[test]
    fn kernel_blocks_match_scalar_across_thread_counts() {
        let netlist = bench::parse(bench::S27_BENCH, "s27").unwrap();
        let scalar = Evaluator::new(&netlist);
        let prototype = SimKernel::<PackedWord>::new(&netlist);
        let width = prototype.inputs().len();

        // 150 patterns -> blocks of 64, 64, 22; a third of positions X.
        let patterns: Vec<Vec<Logic>> = (0..150usize)
            .map(|index| {
                (0..width)
                    .map(|bit| match (index + 3 * bit) % 3 {
                        0 => Logic::Zero,
                        1 => Logic::One,
                        _ => Logic::X,
                    })
                    .collect()
            })
            .collect();

        let reference: Vec<Vec<Logic>> = patterns
            .iter()
            .map(|pattern| scalar.evaluate(&netlist, pattern).to_vec())
            .collect();

        for driver in drivers() {
            let blocks = driver.map_blocks_with(
                &patterns,
                || prototype.clone(),
                |kernel, _block, chunk| {
                    kernel
                        .evaluate(&netlist, &pack_logic_patterns(chunk))
                        .to_vec()
                },
            );
            for (block, values) in blocks.iter().enumerate() {
                for lane in 0..patterns[block * BLOCK_LANES..].len().min(BLOCK_LANES) {
                    let pattern = block * BLOCK_LANES + lane;
                    for net in netlist.net_ids() {
                        assert_eq!(
                            values[net.index()].lane(lane),
                            reference[pattern][net.index()],
                            "threads {} pattern {pattern} net {}",
                            driver.threads(),
                            netlist.net(net).name
                        );
                    }
                }
            }
        }
    }
}
