//! `spice-farm`: a parallel job engine for simulation sweeps.
//!
//! The bench binaries run hundreds of independent simulations (one per
//! workload × size × thread count × seed). This crate turns that sweep into
//! jobs on a pool of `std::thread` workers while keeping the one property a
//! benchmark artifact cannot lose: **output is a pure function of the job
//! list, never of completion order**.
//!
//! Two pieces provide that:
//!
//! * [`Job`] / [`JobResult`] — every job carries a caller-assigned
//!   deterministic id. Results are delivered to the caller's sink strictly
//!   in ascending id order, whatever order workers finish in, so a
//!   streaming writer produces byte-identical artifacts at `--jobs 1` and
//!   `--jobs N`.
//! * one shared queue, claimed in ascending id order — the job set is closed
//!   before the first worker starts and a job runs for milliseconds to
//!   seconds, so a worker that finishes simply takes the smallest id not yet
//!   started: load balances itself, and jobs *start* in the order the sink
//!   delivers them, so no result waits on a job that has not begun (at one
//!   worker, on no job at all). No external crates.
//!
//! The engine is deliberately generic: it does not know what a simulation
//! is. `spice-bench` supplies the domain model (job specs, manifests,
//! artifact writers) on top.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

/// One schedulable unit of a sweep.
///
/// The `id` is assigned by the caller and must be unique within one
/// [`run_jobs`] call; it fixes the delivery order of results. Use a
/// deterministic enumeration of the sweep (manifest order) so artifacts
/// never depend on scheduling.
pub struct Job<T> {
    /// Caller-assigned unique id; results are sunk in ascending id order.
    pub id: u64,
    /// Human-readable tag carried into the [`JobResult`] (e.g.
    /// `"fig7/ks/t4"`).
    pub label: String,
    /// The work. Runs on some worker thread exactly once; a panic is caught
    /// and reported as an `Err` outcome instead of tearing the sweep down.
    pub work: Box<dyn FnOnce() -> Result<T, String> + Send>,
}

impl<T> Job<T> {
    /// Convenience constructor boxing the work closure.
    pub fn new(
        id: u64,
        label: impl Into<String>,
        work: impl FnOnce() -> Result<T, String> + Send + 'static,
    ) -> Self {
        Job {
            id,
            label: label.into(),
            work: Box::new(work),
        }
    }
}

/// Outcome of one [`Job`], delivered to the sink in id order.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult<T> {
    /// The id the job was submitted with.
    pub id: u64,
    /// The label the job was submitted with.
    pub label: String,
    /// Wall nanoseconds the job's work closure ran for on its worker.
    pub host_nanos: u128,
    /// The job's value, or its error / panic message.
    pub outcome: Result<T, String>,
}

/// Per-job accounting row of a [`FarmStats`]: engine-measured compute time
/// plus domain counters (trace events observed, chunks squashed) the caller
/// fills in after the run — the engine itself does not know what a job
/// computes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobMetric {
    /// The job's caller-assigned id.
    pub id: u64,
    /// The job's label.
    pub label: String,
    /// Wall nanoseconds the job's work closure ran for.
    pub host_nanos: u128,
    /// Whether the job's outcome was `Ok`.
    pub ok: bool,
    /// Trace events the job's backend emitted (0 when tracing was off or
    /// the caller does not track events).
    pub events: u64,
    /// Speculative chunks the job observed being squashed (0 when not
    /// applicable).
    pub squashes: u64,
}

/// Aggregate accounting for one [`run_jobs`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FarmStats {
    /// Jobs submitted (and delivered — every job yields exactly one result).
    pub jobs: usize,
    /// Worker threads the pool ran with.
    pub workers: usize,
    /// Jobs whose outcome was `Err` (including caught panics).
    pub failures: usize,
    /// Sum of per-job `host_nanos` — total compute, independent of overlap.
    pub total_job_nanos: u128,
    /// Wall nanoseconds from first spawn to last delivery.
    pub wall_nanos: u128,
    /// One row per job, in delivery (id) order. `events` / `squashes` are
    /// zero until the caller annotates them ([`FarmStats::annotate`]).
    pub details: Vec<JobMetric>,
}

impl FarmStats {
    /// Fills a job's domain counters by id (no-op for unknown ids).
    pub fn annotate(&mut self, id: u64, events: u64, squashes: u64) {
        if let Some(row) = self.details.iter_mut().find(|r| r.id == id) {
            row.events = events;
            row.squashes = squashes;
        }
    }
}

/// Resolves a requested worker count: `0` means "size to the host".
#[must_use]
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `jobs` on `workers` threads (0 = host parallelism), streaming each
/// [`JobResult`] into `sink` **strictly in ascending job id order** as jobs
/// retire. Workers claim jobs in the same ascending id order from one shared
/// queue. The sink runs on the calling thread; a result that finishes out
/// of order is buffered until every smaller id has been delivered.
///
/// Worker panics inside a job are caught and surfaced as `Err` outcomes;
/// the sweep always delivers exactly one result per job.
///
/// # Panics
///
/// Panics if two jobs share an id — delivery order would be ambiguous.
pub fn run_jobs<T: Send + 'static>(
    mut jobs: Vec<Job<T>>,
    workers: usize,
    mut sink: impl FnMut(JobResult<T>),
) -> FarmStats {
    let started = Instant::now();
    let total = jobs.len();
    let workers = resolve_workers(workers).min(total.max(1));

    // The claim and delivery schedule: ascending ids, fixed before anything
    // runs.
    jobs.sort_by_key(|j| j.id);
    let order: Vec<u64> = jobs.iter().map(|j| j.id).collect();
    assert!(
        order.windows(2).all(|w| w[0] != w[1]),
        "duplicate job id in farm submission"
    );
    let queue = Mutex::new(jobs.into_iter());

    let (tx, rx) = mpsc::channel::<JobResult<T>>();
    let mut failures = 0usize;
    let mut total_job_nanos = 0u128;
    let mut details: Vec<JobMetric> = Vec::with_capacity(total);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (queue, tx) = (&queue, tx.clone());
            scope.spawn(move || loop {
                // Jobs run outside the lock and their panics are caught, so
                // nothing can poison it.
                let claimed = queue.lock().expect("farm queue poisoned").next();
                let Some(Job { id, label, work }) = claimed else {
                    break;
                };
                let job_started = Instant::now();
                let outcome = match catch_unwind(AssertUnwindSafe(work)) {
                    Ok(result) => result,
                    Err(payload) => Err(panic_message(payload.as_ref())),
                };
                let result = JobResult {
                    id,
                    label,
                    host_nanos: job_started.elapsed().as_nanos(),
                    outcome,
                };
                // The receiver outlives the pool; a send failure means the
                // caller thread died, and unwinding here is the right answer.
                tx.send(result).expect("farm result channel closed");
            });
        }
        drop(tx);

        // Reorder on the caller thread: buffer out-of-order arrivals, flush
        // the sink whenever the next expected id is available.
        let mut pending: HashMap<u64, JobResult<T>> = HashMap::new();
        let mut next = 0usize;
        for result in rx {
            total_job_nanos += result.host_nanos;
            if result.outcome.is_err() {
                failures += 1;
            }
            pending.insert(result.id, result);
            while next < order.len() {
                let Some(ready) = pending.remove(&order[next]) else {
                    break;
                };
                details.push(JobMetric {
                    id: ready.id,
                    label: ready.label.clone(),
                    host_nanos: ready.host_nanos,
                    ok: ready.outcome.is_ok(),
                    events: 0,
                    squashes: 0,
                });
                sink(ready);
                next += 1;
            }
        }
        assert!(pending.is_empty(), "farm lost a job result");
    });

    FarmStats {
        jobs: total,
        workers,
        failures,
        total_job_nanos,
        wall_nanos: started.elapsed().as_nanos(),
        details,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("job panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("job panicked: {s}")
    } else {
        "job panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sweep(n: u64) -> Vec<Job<u64>> {
        (0..n)
            .map(|i| Job::new(i, format!("job{i}"), move || Ok(i * i)))
            .collect()
    }

    #[test]
    fn results_arrive_in_id_order_regardless_of_worker_count() {
        for workers in [1, 2, 4, 7] {
            let mut seen = Vec::new();
            let stats = run_jobs(sweep(23), workers, |r| {
                seen.push((r.id, r.outcome.unwrap()));
            });
            let expect: Vec<(u64, u64)> = (0..23).map(|i| (i, i * i)).collect();
            assert_eq!(seen, expect, "workers={workers}");
            assert_eq!(stats.jobs, 23);
            assert_eq!(stats.failures, 0);
            assert!(stats.workers <= 23);
        }
    }

    #[test]
    fn one_worker_executes_in_ascending_id_order() {
        // Submitted shuffled: at one worker the jobs must *run* — not merely
        // be delivered — smallest id first, so no result waits in the
        // reorder buffer and an early failure surfaces early.
        let executed = Arc::new(Mutex::new(Vec::new()));
        let jobs: Vec<Job<()>> = [3u64, 0, 5, 1, 4, 2]
            .into_iter()
            .map(|id| {
                let executed = Arc::clone(&executed);
                Job::new(id, id.to_string(), move || {
                    executed.lock().unwrap().push(id);
                    Ok(())
                })
            })
            .collect();
        run_jobs(jobs, 1, |_| {});
        assert_eq!(*executed.lock().unwrap(), [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn id_order_holds_even_when_early_ids_finish_last() {
        // Job 0 sleeps; its result must still be sunk first.
        let jobs: Vec<Job<&'static str>> = vec![
            Job::new(0, "slow", || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                Ok("slow")
            }),
            Job::new(1, "fast", || Ok("fast")),
            Job::new(2, "faster", || Ok("faster")),
        ];
        let mut labels = Vec::new();
        run_jobs(jobs, 3, |r| labels.push(r.label));
        assert_eq!(labels, ["slow", "fast", "faster"]);
    }

    #[test]
    fn sparse_and_unsorted_ids_deliver_ascending() {
        let jobs: Vec<Job<u64>> = [40u64, 7, 19]
            .into_iter()
            .map(|id| Job::new(id, id.to_string(), move || Ok(id)))
            .collect();
        let mut ids = Vec::new();
        run_jobs(jobs, 2, |r| ids.push(r.id));
        assert_eq!(ids, [7, 19, 40]);
    }

    #[test]
    fn a_panicking_job_becomes_an_err_and_the_sweep_survives() {
        let jobs: Vec<Job<u32>> = vec![
            Job::new(0, "ok", || Ok(1)),
            Job::new(1, "boom", || panic!("deliberate test panic")),
            Job::new(2, "err", || Err("plain error".to_string())),
            Job::new(3, "ok2", || Ok(4)),
        ];
        let mut outcomes = Vec::new();
        let stats = run_jobs(jobs, 2, |r| outcomes.push(r.outcome));
        assert_eq!(stats.failures, 2);
        assert_eq!(outcomes[0], Ok(1));
        assert_eq!(
            outcomes[1],
            Err("job panicked: deliberate test panic".to_string())
        );
        assert_eq!(outcomes[2], Err("plain error".to_string()));
        assert_eq!(outcomes[3], Ok(4));
    }

    #[test]
    fn all_workers_participate_under_load() {
        // 64 jobs that each record their thread; with 4 workers and jobs
        // long enough to overlap, more than one distinct thread must run.
        let distinct = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let jobs: Vec<Job<()>> = (0..64)
            .map(|i| {
                let distinct = Arc::clone(&distinct);
                Job::new(i, format!("j{i}"), move || {
                    distinct.lock().unwrap().insert(std::thread::current().id());
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    Ok(())
                })
            })
            .collect();
        let stats = run_jobs(jobs, 4, |_| {});
        assert_eq!(stats.workers, 4);
        // On a single-core host the scheduler may still serialize onto one
        // thread; only assert when the host can actually overlap.
        if std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) >= 2 {
            assert!(distinct.lock().unwrap().len() >= 2);
        }
        assert!(stats.total_job_nanos > 0);
        assert!(stats.wall_nanos > 0);
    }

    #[test]
    #[should_panic(expected = "duplicate job id")]
    fn duplicate_ids_are_rejected() {
        let jobs: Vec<Job<u32>> = vec![Job::new(3, "a", || Ok(0)), Job::new(3, "b", || Ok(0))];
        run_jobs(jobs, 1, |_| {});
    }

    #[test]
    fn resolve_workers_contract() {
        assert_eq!(resolve_workers(5), 5);
        assert!(resolve_workers(0) >= 1);
    }
}
