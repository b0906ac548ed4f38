//! Many-fleet serving: one controller process, many fleets.
//!
//! The paper's controller drives *one* optimization at a time; ROADMAP's
//! city-block item asks for the next scaling lever — a controller that
//! multiplexes many fleets (each its own device population behind its
//! own panel array) concurrently. [`FleetServer`] is that engine,
//! built from the same primitives as the rest of the workspace:
//!
//! * **one job cursor** (no external channel or async runtime): every
//!   job is staged in its own slot before any worker starts, and workers
//!   claim slots in submission order with one atomic `fetch_add`. Each
//!   slot is claimed exactly once, so its lock is never contended, and a
//!   cursor past the end means the run is drained — no condvars, no
//!   close protocol;
//! * **the calling thread is worker 0**: a run with `workers` workers
//!   spawns `workers − 1` `std::thread::scope` threads (like
//!   `rfmath::par`) and drains alongside them, so one code path serves
//!   every worker count and a one-worker run spawns nothing. The
//!   caller-supplied handler is where a typed front (e.g. `llama_core`'s
//!   scheduler) plugs in a per-fleet optimization;
//! * **one thread budget**: the submitting thread's
//!   [`rfmath::par::budget`] is split across the workers, and each job
//!   runs under its share (`max(1, budget / workers)`), so the batch
//!   kernels a job calls never fan out on top of busy siblings — with
//!   one worker per core they run serially;
//! * **corrupt-report rejection inherited from [`Controller`]**: report
//!   ingest funnels through [`Objective::score_report`], the exact
//!   admission rule [`Controller::step_fleet`] applies, so a server-side
//!   consumer can never score a report the event-stepped controller
//!   would have rejected.
//!
//! Results come back in submission order and are bit-identical to
//! running the handler serially — workers share nothing but the cursor
//! and the slots, so concurrency is purely an elapsed-time optimization.
//! Which worker ran a job never leaks into the result.
//!
//! ```
//! use control::server::FleetServer;
//!
//! let server = FleetServer::new(4);
//! let squares = server.serve((0..16u64).collect(), |_, n| n * n);
//! assert_eq!(squares[5], 25);
//! ```

use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use rfmath::telemetry::{RecorderHandle, TelemetryEvent};
use rfmath::units::Seconds;

use crate::controller::{FleetReport, Objective};

#[allow(unused_imports)] // rustdoc link target
use crate::controller::Controller;

/// One job's slot: filled before the workers start or when its job
/// finishes, emptied once.
type Slot<T> = Mutex<Option<T>>;

/// Why one job of a [`FleetServer::try_serve_with_stats`] run failed.
#[derive(Clone, Debug, PartialEq)]
pub enum JobError {
    /// The handler panicked; the worker caught the unwind, kept
    /// claiming jobs, and recorded the panic payload here.
    Panicked(String),
    /// The handler returned, but only after the server's per-job
    /// deadline had passed — its result is discarded as stale (a fleet
    /// optimization that outlives its tick serves nobody). This is a
    /// post-hoc staleness check: it is judged when the handler returns,
    /// so it never interrupts a slow job.
    DeadlineExceeded {
        /// The configured per-job wall-clock limit.
        limit: Seconds,
        /// What the job actually took.
        took: Seconds,
    },
    /// The job never ran (defensive: with all jobs staged up front and
    /// panics caught per job, every slot is filled in practice).
    Abandoned,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "handler panicked: {msg}"),
            JobError::DeadlineExceeded { limit, took } => write!(
                f,
                "deadline exceeded: {:.1} ms against a {:.1} ms budget",
                took.0 * 1e3,
                limit.0 * 1e3
            ),
            JobError::Abandoned => write!(f, "job never ran"),
        }
    }
}

impl std::error::Error for JobError {}

/// Telemetry of one [`FleetServer::serve`] run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeStats {
    /// Jobs completed (always the submission count — the server never
    /// drops work).
    pub completed: usize,
    /// Jobs that came back as a [`JobError`] (panicked handler or a
    /// blown deadline).
    pub failed: usize,
    /// Always 0. Workers claim jobs from one shared cursor, so no job is
    /// ever taken from another worker's queue; the field stays so
    /// existing readers of the stats keep compiling.
    pub steals: usize,
    /// Mean stage-to-claim latency per job, in **seconds** (the
    /// `Seconds` newtype carries the unit): how long a staged job waited
    /// before a worker claimed it.
    pub mean_queue_wait: Seconds,
    /// Median stage-to-claim latency, in seconds — exact (computed from
    /// the per-job waits, not a histogram estimate). The mean alone
    /// hides a starved tail; p50/p95 together expose it.
    pub queue_wait_p50: Seconds,
    /// 95th-percentile stage-to-claim latency, in seconds (exact).
    pub queue_wait_p95: Seconds,
    /// Workers that ran at least one job.
    pub workers_used: usize,
}

/// The many-fleet controller front: a fixed worker pool, the calling
/// thread among them, claiming per-fleet jobs from one cursor.
///
/// `FleetServer` is deliberately generic over the job type — the control
/// crate sits *below* the fleet model, so the typed integration
/// (`Fleet` in, `FleetOutcome` out) lives with the fleet types and plugs
/// in through the handler closure. What the server owns is the
/// scheduling contract: per-job panic isolation, deterministic
/// submission-order results, and the shared report-admission rule.
#[derive(Clone, Debug)]
pub struct FleetServer {
    /// Workers claiming jobs (≥ 1), the calling thread included.
    pub workers: usize,
    /// Optional per-job wall-clock limit, checked after the fact: when
    /// a handler returns later than this, its result comes back as
    /// [`JobError::DeadlineExceeded`] from
    /// [`FleetServer::try_serve_with_stats`] instead of being served.
    /// Nothing interrupts a running handler, so a hung handler keeps
    /// its worker (and the serve call) until it returns. `None` (the
    /// default) disables the check.
    pub deadline: Option<Seconds>,
    /// Telemetry sink. Defaults to the null recorder (zero overhead);
    /// with a ring attached the server emits `job_enqueued` /
    /// `job_completed` events and queue-wait / job-wall duration
    /// histograms. Event *order* across workers is only
    /// deterministic with `workers == 1` (the `--trace` configuration);
    /// results are deterministic regardless.
    pub recorder: RecorderHandle,
}

impl FleetServer {
    /// A server with `workers` workers (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            deadline: None,
            recorder: RecorderHandle::null(),
        }
    }

    /// Sets the per-job deadline: a post-hoc staleness check that fails
    /// a job whose handler returned late, without stopping it early
    /// (see [`FleetServer::deadline`]).
    pub fn with_deadline(mut self, deadline: Seconds) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a telemetry recorder.
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }

    /// The fault-isolating serve: every job comes back as a
    /// `Result<R, JobError>` in submission order. A panicking handler is
    /// caught *inside* its worker — the worker records the failure for
    /// that one job and keeps claiming jobs, so one poisoned fleet
    /// cannot take down its siblings. With a
    /// [`deadline`](FleetServer::deadline) set, a job whose handler
    /// returns after the deadline is failed as stale.
    ///
    /// The run uses `workers` workers (never more than the job count):
    /// the calling thread is worker 0 and the other `workers − 1` are
    /// scoped threads, so a one-worker run spawns no thread. Each job
    /// runs under `max(1, budget / workers)` of the calling thread's
    /// [`rfmath::par::budget`]; the caller's budget is restored when the
    /// run returns.
    pub fn try_serve_with_stats<J, R>(
        &self,
        jobs: Vec<J>,
        handler: impl Fn(usize, J) -> R + Sync,
    ) -> (Vec<Result<R, JobError>>, ServeStats)
    where
        J: Send,
        R: Send,
    {
        let n = jobs.len();
        let workers = self.workers.max(1).min(n.max(1));
        let deadline = self.deadline;
        let job_budget = (rfmath::par::budget() / workers).max(1);
        let recorder = &self.recorder;
        let traced = recorder.enabled();
        // Stage everything before any worker starts: results land in
        // indexed slots, so claim order cannot perturb the output.
        // Enqueue events fire here, in submission order, before any
        // worker runs — the deterministic prefix of the event stream.
        let staged: Vec<Slot<(Instant, J)>> = jobs
            .into_iter()
            .enumerate()
            .map(|(idx, job)| {
                if traced {
                    recorder.emit(TelemetryEvent::JobEnqueued { job: idx });
                }
                Mutex::new(Some((Instant::now(), job)))
            })
            .collect();
        if traced {
            recorder.add("server.jobs", n as u64);
        }
        // Each slot holds the job's stage-to-claim wait (ns) next to its
        // result, for exact p50/p95 after the join.
        let results: Vec<Slot<(u64, Result<R, JobError>)>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let used = AtomicUsize::new(0);

        let work = || {
            let mut ran_any = false;
            // `fetch_add` hands every index out exactly once, so each
            // slot's lock is taken by one worker only. `Relaxed` suffices:
            // the cursor publishes no data, the slot's mutex does.
            loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = staged.get(idx) else {
                    break;
                };
                let (staged_at, job) = slot
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    .expect("each index is claimed once");
                ran_any = true;
                let waited_ns = staged_at.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                if traced {
                    recorder.duration_ns("server.queue_wait_ns", waited_ns);
                }
                let started = Instant::now();
                let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    rfmath::par::with_budget(job_budget, || handler(idx, job))
                }));
                let took = Seconds(started.elapsed().as_secs_f64());
                let entry = match out {
                    Ok(result) => match deadline {
                        Some(limit) if took.0 > limit.0 => {
                            Err(JobError::DeadlineExceeded { limit, took })
                        }
                        _ => Ok(result),
                    },
                    Err(payload) => Err(JobError::Panicked(panic_message(&*payload))),
                };
                if traced {
                    recorder.duration_ns("server.job_wall_ns", (took.0 * 1e9).max(0.0) as u64);
                    recorder.emit(TelemetryEvent::JobCompleted {
                        job: idx,
                        ok: entry.is_ok(),
                    });
                }
                *results[idx].lock().unwrap_or_else(PoisonError::into_inner) =
                    Some((waited_ns, entry));
            }
            if ran_any {
                used.fetch_add(1, Ordering::Relaxed);
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });

        let mut out = Vec::with_capacity(n);
        let mut waits_ns = Vec::with_capacity(n);
        for slot in results {
            let (waited_ns, entry) = slot
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or((0, Err(JobError::Abandoned)));
            waits_ns.push(waited_ns);
            out.push(entry);
        }
        let wait_secs: Vec<f64> = waits_ns.iter().map(|&w| w as f64 * 1e-9).collect();
        let over_jobs = |value: f64| Seconds(if n == 0 { 0.0 } else { value });
        let stats = ServeStats {
            completed: n,
            failed: out.iter().filter(|r| r.is_err()).count(),
            steals: 0,
            mean_queue_wait: over_jobs(waits_ns.iter().sum::<u64>() as f64 * 1e-9 / n as f64),
            queue_wait_p50: over_jobs(rfmath::stats::percentile(&wait_secs, 50.0)),
            queue_wait_p95: over_jobs(rfmath::stats::percentile(&wait_secs, 95.0)),
            workers_used: used.load(Ordering::Relaxed),
        };
        (out, stats)
    }

    /// Runs every job through `handler` on the worker pool and returns
    /// the results in submission order, plus run telemetry. The handler
    /// receives `(submission index, job)` and must be pure per job —
    /// jobs run concurrently in unspecified order.
    ///
    /// This is the legacy all-or-nothing front over
    /// [`FleetServer::try_serve_with_stats`]: a failed job (panicked
    /// handler, blown deadline) re-raises as a panic on the submitting
    /// thread *after* the pool has drained — it still propagates, but it
    /// can no longer strand sibling jobs.
    pub fn serve_with_stats<J, R>(
        &self,
        jobs: Vec<J>,
        handler: impl Fn(usize, J) -> R + Sync,
    ) -> (Vec<R>, ServeStats)
    where
        J: Send,
        R: Send,
    {
        let (results, stats) = self.try_serve_with_stats(jobs, handler);
        let out = results
            .into_iter()
            .map(|r| match r {
                Ok(v) => v,
                Err(e) => panic!("fleet server job failed: {e}"),
            })
            .collect();
        (out, stats)
    }

    /// [`FleetServer::serve_with_stats`] without the telemetry.
    pub fn serve<J, R>(&self, jobs: Vec<J>, handler: impl Fn(usize, J) -> R + Sync) -> Vec<R>
    where
        J: Send,
        R: Send,
    {
        self.serve_with_stats(jobs, handler).0
    }

    /// Splits a batch of incoming per-fleet reports into scored
    /// admissions and rejections, applying [`Controller`]'s exact
    /// corrupt-report rule ([`Objective::score_report`]): empty or
    /// non-finite readings and wrong-arity vectors are rejected, never
    /// scored. Returns `(scored, rejected)` with submission indices
    /// preserved, so a server-side consumer can retry rejects the same
    /// way the event-stepped controller retries a lost probe.
    pub fn admit_reports(
        objective: &Objective,
        expected_devices: Option<usize>,
        reports: &[FleetReport],
    ) -> (Vec<(usize, f64)>, Vec<usize>) {
        let mut scored = Vec::new();
        let mut rejected = Vec::new();
        for (i, report) in reports.iter().enumerate() {
            match objective.score_report(expected_devices, report) {
                Some(score) => scored.push((i, score)),
                None => rejected.push(i),
            }
        }
        (scored, rejected)
    }
}

/// Extracts a human-readable message from a caught panic payload.
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

    #[test]
    fn results_come_back_in_submission_order() {
        let server = FleetServer::new(3);
        let jobs: Vec<u64> = (0..40).collect();
        let (out, stats) = server.serve_with_stats(jobs, |idx, n| {
            // Stagger completion so out-of-order finishes are likely.
            std::thread::sleep(std::time::Duration::from_micros(((n * 7) % 11) * 50));
            (idx, n * n)
        });
        assert_eq!(out.len(), 40);
        for (i, (idx, sq)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*sq, (i as u64) * (i as u64));
        }
        assert_eq!(stats.completed, 40);
    }

    #[test]
    fn concurrent_results_match_serial_execution() {
        let work = |_: usize, seed: u64| {
            // A deterministic "optimization": xorshift walk.
            let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            for _ in 0..1000 {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
            }
            s
        };
        let jobs: Vec<u64> = (0..16).collect();
        let serial: Vec<u64> = jobs.iter().map(|&j| work(0, j)).collect();
        let parallel = FleetServer::new(4).serve(jobs, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn more_jobs_than_workers_all_complete() {
        let server = FleetServer::new(2);
        let (out, stats) = server.serve_with_stats((0..100u64).collect(), |_, n| n + 1);
        assert_eq!(out, (1..=100).collect::<Vec<u64>>());
        assert!(stats.workers_used >= 1 && stats.workers_used <= 2);
    }

    #[test]
    fn one_worker_runs_every_job_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let (ran_on, stats) = FleetServer::new(1)
            .serve_with_stats((0..6u64).collect(), |_, _| std::thread::current().id());
        assert!(ran_on.iter().all(|&id| id == caller), "{ran_on:?}");
        assert_eq!(stats.workers_used, 1);
    }

    #[test]
    fn panicking_handler_propagates_instead_of_hanging() {
        // The all-or-nothing front re-raises a handler panic on the
        // submitting thread after the pool drains; sibling jobs are
        // never stranded mid-queue.
        let server = FleetServer::new(1);
        let result = std::panic::catch_unwind(|| {
            server.serve((0..10u64).collect(), |_, n| {
                if n == 1 {
                    panic!("handler died");
                }
                n
            })
        });
        assert!(result.is_err(), "the worker panic must propagate");
    }

    #[test]
    fn try_serve_isolates_a_panicking_job() {
        // The graceful-degradation contract: one poisoned job fails
        // alone. Every sibling still completes — even with a single
        // worker, which before panic isolation would have died on job 3
        // and stranded jobs 4..9.
        let server = FleetServer::new(1);
        let (out, stats) = server.try_serve_with_stats((0..10u64).collect(), |_, n| {
            if n == 3 {
                panic!("fleet {n} is poisoned");
            }
            n * 10
        });
        assert_eq!(out.len(), 10);
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                match r {
                    Err(JobError::Panicked(msg)) => {
                        assert!(msg.contains("poisoned"), "{msg}")
                    }
                    other => panic!("job 3 must fail as Panicked, got {other:?}"),
                }
            } else {
                assert_eq!(*r, Ok(i as u64 * 10), "sibling job {i} must complete");
            }
        }
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 10);
    }

    #[test]
    fn deadline_exceeded_jobs_fail_without_stalling_siblings() {
        let server = FleetServer::new(2).with_deadline(Seconds(0.01));
        let (out, stats) = server.try_serve_with_stats((0..6u64).collect(), |_, n| {
            if n == 2 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            n
        });
        match &out[2] {
            Err(JobError::DeadlineExceeded { limit, took }) => {
                assert_eq!(*limit, Seconds(0.01));
                assert!(took.0 >= 0.01, "took {took:?}");
            }
            other => panic!("job 2 must blow the deadline, got {other:?}"),
        }
        for (i, r) in out.iter().enumerate() {
            if i != 2 {
                assert_eq!(*r, Ok(i as u64));
            }
        }
        assert_eq!(stats.failed, 1);
        // Error text carries both numbers for the logs.
        let msg = out[2].as_ref().unwrap_err().to_string();
        assert!(msg.contains("deadline exceeded"), "{msg}");
        assert!(msg.contains("10.0 ms budget"), "{msg}");
    }

    #[test]
    fn jobs_run_under_an_even_share_of_the_callers_budget() {
        use rfmath::par::{budget, with_budget};
        for outer in [1, 2, 4] {
            for workers in [1, 2, 8] {
                let server = FleetServer::new(workers);
                let seen = with_budget(outer, || {
                    let seen = server.serve((0..16u64).collect(), |_, _| budget());
                    assert_eq!(budget(), outer, "caller's budget after the serve");
                    seen
                });
                let share = (outer / workers).max(1);
                assert!(
                    seen.iter().all(|&b| b == share),
                    "budget {outer} over {workers} workers: jobs saw {seen:?}, want {share}"
                );
            }
        }
    }

    #[test]
    fn a_panicking_job_leaves_the_next_job_its_budget() {
        // One worker runs every job in order on one thread: job 1 panics
        // inside a budget scope of its own, and job 2 must still see the
        // server's share, not the leaked inner value.
        let server = FleetServer::new(1);
        let (out, _) = rfmath::par::with_budget(4, || {
            server.try_serve_with_stats((0..3u64).collect(), |_, n| {
                if n == 1 {
                    rfmath::par::with_budget(9, || panic!("fleet {n} is poisoned"));
                }
                rfmath::par::budget()
            })
        });
        assert!(matches!(out[1], Err(JobError::Panicked(_))));
        assert_eq!(out[0], Ok(4));
        assert_eq!(out[2], Ok(4));
    }

    #[test]
    fn empty_job_list_is_a_clean_no_op() {
        let server = FleetServer::new(4);
        let (out, stats) = server.serve_with_stats(Vec::<u64>::new(), |_, n| n);
        assert!(out.is_empty());
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.mean_queue_wait, Seconds(0.0));
    }

    #[test]
    fn queue_wait_is_in_seconds_with_exact_percentiles() {
        // The unit contract: `mean_queue_wait` / `queue_wait_p50` /
        // `queue_wait_p95` are Seconds of stage-to-pop latency. Jobs
        // that sleep ~1 ms serially behind one worker accumulate waits
        // well under a second but well over a microsecond, and the
        // percentiles must be exact order statistics of the per-job
        // waits: p50 <= p95 <= ~max plausible wall time of the run.
        let server = FleetServer::new(1);
        let n = 8u64;
        let (_, stats) = server.serve_with_stats((0..n).collect(), |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(stats.mean_queue_wait.0 > 0.0);
        assert!(stats.mean_queue_wait.0 < 10.0, "seconds, not nanoseconds");
        assert!(stats.queue_wait_p50.0 <= stats.queue_wait_p95.0);
        // One worker drains serially: the last job waited at least the
        // summed sleep of its predecessors (n-1 ms), so p95 must exceed
        // the one-job sleep — a value only consistent with seconds.
        assert!(stats.queue_wait_p95.0 >= 0.001, "p95 = {stats:?}");
        assert!(stats.queue_wait_p95.0 < 10.0);
    }

    #[test]
    fn ring_recorder_sees_enqueue_and_complete_events() {
        use rfmath::telemetry::{RecorderHandle, RingRecorder, TelemetryEvent};
        use std::sync::Arc;

        let ring = Arc::new(RingRecorder::new(1024));
        let server = FleetServer::new(1).with_recorder(RecorderHandle::new(ring.clone()));
        let out = server.serve((0..8u64).collect(), |_, n| n * 2);
        assert_eq!(out, (0..8u64).map(|n| n * 2).collect::<Vec<_>>());
        assert_eq!(ring.counter("server.jobs"), 8);
        let events = ring.events();
        let enqueued = events
            .iter()
            .filter(|(_, _, e)| matches!(e, TelemetryEvent::JobEnqueued { .. }))
            .count();
        let completed = events
            .iter()
            .filter(|(_, _, e)| matches!(e, TelemetryEvent::JobCompleted { ok: true, .. }))
            .count();
        assert_eq!(enqueued, 8);
        assert_eq!(completed, 8);
    }

    #[test]
    fn report_admission_matches_the_controller_rule() {
        let reports = vec![
            FleetReport {
                at: Seconds(0.0),
                powers_dbm: vec![-40.0, -52.0],
            },
            FleetReport {
                at: Seconds(0.1),
                powers_dbm: vec![f64::NAN, -50.0],
            },
            FleetReport {
                at: Seconds(0.2),
                powers_dbm: vec![-45.0],
            },
            FleetReport {
                at: Seconds(0.3),
                powers_dbm: vec![],
            },
        ];
        let (scored, rejected) =
            FleetServer::admit_reports(&Objective::WorstLink, Some(2), &reports);
        // Only the first report is finite *and* full-arity.
        assert_eq!(scored, vec![(0, -52.0)]);
        assert_eq!(rejected, vec![1, 2, 3]);
        // Without an expected arity, the truncated report is scoreable —
        // same as the controller with `expected_devices: None`.
        let (scored, rejected) = FleetServer::admit_reports(&Objective::WorstLink, None, &reports);
        assert_eq!(scored, vec![(0, -52.0), (2, -45.0)]);
        assert_eq!(rejected, vec![1, 3]);
    }
}
