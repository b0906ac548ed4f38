//! Property tests for the job-cursor [`FleetServer`]: for any job list
//! and worker count, every job reaches the handler exactly once and the
//! results are *bit-identical* to a serial in-order run of the same
//! handler — concurrent workers may reorder execution, but never the
//! output — and the run telemetry must stay self-consistent.

use std::sync::atomic::{AtomicUsize, Ordering};

use control::server::{FleetServer, JobError};
use proptest::prelude::*;

/// A float-heavy pure handler: transcendental enough that any change in
/// evaluation order or double rounding shows up in the result bits.
fn churn(idx: usize, x: f64) -> f64 {
    let mut acc = x;
    for k in 0..8 {
        acc = (acc + idx as f64 * 0.37).sin() * 1.618 + (acc * 0.25 + k as f64).cos();
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Served execution is bit-identical to the serial loop at every
    /// worker count, including more workers than jobs.
    #[test]
    fn sharded_matches_serial_bitwise(
        jobs in prop::collection::vec(-100.0f64..100.0, 0..48),
        workers in 1usize..5,
    ) {
        let serial: Vec<u64> = jobs
            .iter()
            .enumerate()
            .map(|(idx, &x)| churn(idx, x).to_bits())
            .collect();
        let n = jobs.len();
        let server = FleetServer::new(workers);
        let (results, stats) = server.try_serve_with_stats(jobs, churn);
        prop_assert_eq!(results.len(), n);
        for (idx, result) in results.iter().enumerate() {
            match result {
                Ok(value) => prop_assert!(
                    value.to_bits() == serial[idx],
                    "job {} diverged under {} workers",
                    idx,
                    workers
                ),
                Err(err) => prop_assert!(false, "job {} failed: {}", idx, err),
            }
        }
        prop_assert_eq!(stats.completed, n);
        prop_assert_eq!(stats.failed, 0);
        prop_assert!(stats.mean_queue_wait.0 >= 0.0);
        prop_assert!(stats.workers_used <= workers);
        if n > 0 {
            prop_assert!(stats.workers_used >= 1);
        }
    }

    /// Every submission index reaches the handler exactly once, at every
    /// worker count (including more workers than jobs).
    #[test]
    fn every_job_runs_exactly_once(
        n in 0usize..48,
        workers in 1usize..5,
    ) {
        let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let out = FleetServer::new(workers).serve((0..n).collect(), |idx, job| {
            calls[idx].fetch_add(1, Ordering::Relaxed);
            job
        });
        prop_assert_eq!(out, (0..n).collect::<Vec<_>>());
        for (idx, count) in calls.iter().enumerate() {
            let count = count.load(Ordering::Relaxed);
            prop_assert!(count == 1, "job {} reached the handler {} times", idx, count);
        }
    }

    /// A panicking job fails alone: every sibling still returns its
    /// serial-identical result, in submission order.
    #[test]
    fn poisoned_job_cannot_strand_siblings(
        jobs in prop::collection::vec(-50.0f64..50.0, 1..24),
        poison in 0usize..24,
        workers in 1usize..4,
    ) {
        let poison = poison % jobs.len();
        let server = FleetServer::new(workers);
        let (results, stats) = server.try_serve_with_stats(jobs.clone(), |idx, x| {
            assert!(idx != poison, "poisoned fleet");
            churn(idx, x)
        });
        for (idx, result) in results.iter().enumerate() {
            if idx == poison {
                prop_assert!(matches!(result, Err(JobError::Panicked(_))));
            } else {
                let expect = churn(idx, jobs[idx]).to_bits();
                match result {
                    Ok(value) => prop_assert_eq!(value.to_bits(), expect),
                    Err(err) => prop_assert!(false, "job {} failed: {}", idx, err),
                }
            }
        }
        prop_assert_eq!(stats.failed, 1);
        prop_assert_eq!(stats.completed, jobs.len());
    }
}
