//! `fleet-serve`: many fleets through one `FleetServer`. Each pass stages
//! 64 jobs; each job is a cold `PanelScheduler::run_with_caches` over a
//! four-panel array, drawing plans from one `SharedPlanCache` as
//! `serve_panel_fleets` does. One op is one fleet job.
//!
//! Fleet sizes cycle 8/16/32 devices and policies mix three max-min jobs
//! to one time-division job. The input cycle is a fixed set of passes
//! derived from the run seed; the first pass over it is the reference
//! the guards, digest and counts come from.

use std::sync::Arc;
use std::time::Instant;

use control::{FleetServer, JobError, ServeStats};
use llama_core::{Fleet, PanelArray, PanelOutcome, PanelScheduler, Policy};
use metasurface::{designs, Design, SharedPlanCache, StackEvaluator};
use rfmath::rng::SeedSplitter;

use crate::common::{
    carriers, cold_probe_budget, digest_of, mean, ms_since, powers_finite, replay_time_division,
    Digest, EndToEnd, RunConfig, Timeline, WorkloadRun,
};
use crate::host::{logical_cores, HostProbe};
use crate::recorder::ExactRecorder;
use crate::report::{median, ratio, Metric};

const JOBS_PER_PASS: usize = 64;
/// Distinct passes in the input cycle.
const PASSES: usize = 8;
const FLEET_SIZES: [usize; 3] = [8, 16, 32];
const PANELS: usize = 4;

struct Job {
    fleet: Fleet,
    time_division: bool,
}

/// Everything built before the first timed op.
struct Setup {
    passes: Vec<Vec<Job>>,
    design: Design,
    /// The one panel array every job schedules over: a controller
    /// serving many fleets through one set of panels.
    array: PanelArray,
    shared: Arc<SharedPlanCache>,
    server: FleetServer,
}

fn setup(seed: u64) -> Setup {
    let split = SeedSplitter::new(seed).child("fleet-serve");
    let design = designs::fr4_optimized();
    let passes: Vec<Vec<Job>> = (0..PASSES)
        .map(|p| {
            (0..JOBS_PER_PASS)
                .map(|j| {
                    let i = p * JOBS_PER_PASS + j;
                    Job {
                        fleet: Fleet::mixed_wifi_ble(
                            FLEET_SIZES[i % FLEET_SIZES.len()],
                            split.derive("fleet", i as u64),
                        ),
                        time_division: i % 4 == 3,
                    }
                })
                .collect()
        })
        .collect();
    // The shared store compiles every carrier the jobs use up front, so
    // no timed pass pays a first compilation.
    let shared = Arc::new(SharedPlanCache::new(&design.stack));
    let warm = shared.handle();
    for job in passes.iter().flatten() {
        for device in job.fleet.devices() {
            warm.plan(device.scenario.frequency);
        }
    }
    Setup {
        passes,
        array: PanelArray::uniform(design.clone(), PANELS),
        design,
        shared,
        server: FleetServer::new(logical_cores()),
    }
}

/// One job's result as the benchmark's handler saw it.
struct Served {
    outcome: PanelOutcome,
    /// From pass staging to the job's result, ms.
    latency_ms: f64,
    /// Handler service time, ms.
    service_ms: f64,
}

struct Pass {
    results: Vec<Result<Served, JobError>>,
    stats: ServeStats,
    wall_ms: f64,
}

fn serve_pass(
    server: &FleetServer,
    schedulers: &[PanelScheduler; 2],
    s: &Setup,
    jobs: &[Job],
) -> Pass {
    let name = s.design.name;
    let shared = &s.shared;
    let staged = Instant::now();
    let (results, stats) = server.try_serve_with_stats(jobs.iter().collect(), |_, job: &Job| {
        let started = Instant::now();
        let caches = [(name, shared.handle())];
        let outcome = schedulers[usize::from(job.time_division)]
            .run_with_caches(&job.fleet, &s.array, &caches);
        Served {
            outcome,
            latency_ms: ms_since(staged),
            service_ms: ms_since(started),
        }
    });
    Pass {
        results,
        stats,
        wall_ms: ms_since(staged),
    }
}

/// Powers finite and probes within every panel's search budget.
fn job_ok(job: &Job, outcome: &PanelOutcome) -> bool {
    let policy = if job.time_division {
        Policy::TimeDivision
    } else {
        Policy::MaxMin
    };
    let sweep = control::SweepConfig::paper_default();
    let budget: usize = outcome
        .per_panel
        .iter()
        .map(|a| cold_probe_budget(&sweep, policy, a.devices.len()))
        .sum();
    outcome.per_panel.iter().all(|a| powers_finite(&a.outcome))
        && outcome.per_device.len() == job.fleet.len()
        && outcome.probes <= budget
}

/// Counts a pass's ops and failures; also checks one sampled job against
/// a serial `PanelScheduler::run`, bit for bit.
fn check_pass(run: &mut WorkloadRun, array: &PanelArray, jobs: &[Job], pass: &Pass, sample: usize) {
    for (job, result) in jobs.iter().zip(&pass.results) {
        run.attempted += 1;
        let ok = matches!(result, Ok(served) if job_ok(job, &served.outcome));
        run.failed += usize::from(!ok);
    }
    let job = &jobs[sample];
    if let Ok(served) = &pass.results[sample] {
        let serial = schedulers()[usize::from(job.time_division)].run(&job.fleet, array);
        if digest_of(|d| d.panel_outcome(&serial))
            != digest_of(|d| d.panel_outcome(&served.outcome))
        {
            run.failed += 1;
        }
    }
}

fn schedulers() -> [PanelScheduler; 2] {
    [PanelScheduler::max_min(), PanelScheduler::time_division()]
}

/// What the reference pass keeps of its outcomes: the guards, the
/// probe counts and the digest, not the outcomes themselves.
#[derive(Default)]
struct Reference {
    min_power_dbm: Vec<f64>,
    duty: Vec<f64>,
    probes: Vec<f64>,
    digest: Digest,
    workers_used: Option<usize>,
}

impl Reference {
    fn add(&mut self, outcome: &PanelOutcome) {
        self.min_power_dbm.push(outcome.min_power_dbm());
        self.duty
            .extend(outcome.per_device.iter().map(|service| service.duty));
        self.probes.push(outcome.probes as f64);
        self.digest.panel_outcome(outcome);
    }
}

pub fn run(cfg: &RunConfig) -> WorkloadRun {
    // Made first, so its buffer is resident for every peak (see
    // `Timeline::start`).
    let probe = HostProbe::new();
    let mut s = setup(cfg.seed);
    let split = SeedSplitter::new(cfg.seed).child("fleet-serve-check");
    let sample =
        |pass_no: usize| (split.derive("sample", pass_no as u64) % JOBS_PER_PASS as u64) as usize;

    // Reference pass over the cycle (untimed; traced through a counting
    // recorder in the per-layer run).
    let counting = cfg.trace.then(ExactRecorder::attach);
    let (ref_server, ref_schedulers) = match &counting {
        Some((_, h)) => (
            s.server.clone().with_recorder(h.clone()),
            schedulers().map(|sch| sch.with_recorder(h.clone())),
        ),
        None => (s.server.clone(), schedulers()),
    };
    let mut run = WorkloadRun::default();
    let mut reference = Reference::default();
    for (p, jobs) in s.passes.iter().enumerate() {
        let pass = serve_pass(&ref_server, &ref_schedulers, &s, jobs);
        check_pass(&mut run, &s.array, jobs, &pass, sample(p));
        let used = reference
            .workers_used
            .map_or(pass.stats.workers_used, |w| w.min(pass.stats.workers_used));
        reference.workers_used = Some(used);
        for served in pass.results.iter().flatten() {
            reference.add(&served.outcome);
        }
    }
    run.digest = reference.digest.finish();

    if cfg.trace {
        let (counts, _) = counting.expect("traced run has a counting recorder");
        let cold = counts.sweeps("cold");
        let mut layers = traced_loop(cfg, &s, &mut run, &sample);
        layers.extend([
            Metric::new(
                "sweep.probes_per_sweep",
                "count",
                ratio(cold.probes as f64, cold.count as f64),
                cold.count as usize,
            ),
            Metric::new(
                "panels.probes_per_job",
                "count",
                mean(&reference.probes),
                reference.probes.len(),
            ),
            Metric::new(
                "server.workers_used",
                "count",
                reference.workers_used.unwrap_or(0) as f64,
                PASSES,
            ),
            Metric::new(
                "metasurface.plans_compiled",
                "count",
                s.shared.compiled_count() as f64,
                1,
            ),
        ]);
        run.per_layer = layers;
        return run;
    }

    let mut timeline = Timeline::start(cfg, probe);
    let mut p = 0usize;
    while timeline.running() {
        if timeline.enter_window() {
            // The live set-up is released before its rebuild is timed,
            // so only one copy is ever resident.
            drop(s);
            s = timeline.time_setup(|| setup(cfg.seed));
        }
        let jobs = &s.passes[p % PASSES];
        let pass = serve_pass(&s.server, &schedulers(), &s, jobs);
        timeline.record(
            pass.wall_ms / 1e3,
            pass.results.iter().flatten().map(|r| r.latency_ms),
        );
        check_pass(&mut run, &s.array, jobs, &pass, sample(PASSES + p));
        p += 1;
    }
    run.host_load = Some(timeline.host_load());
    run.end_to_end = EndToEnd {
        timeline: &timeline,
        served_min_power_dbm: mean(&reference.min_power_dbm),
        serving_duty: mean(&reference.duty),
        reference_ops: PASSES * JOBS_PER_PASS,
    }
    .metrics();
    run
}

/// Replays a job's time-division panels in isolation (see
/// [`replay_time_division`]). Returns `(powers_matrix ms, eval_batch ms,
/// schedules replayed)`.
fn replay_job(
    array: &PanelArray,
    job: &Job,
    outcome: &PanelOutcome,
    shared: &Arc<SharedPlanCache>,
    grid: usize,
) -> (f64, f64, usize) {
    let (mut matrix_ms, mut batch_ms, mut schedules) = (0.0, 0.0, 0usize);
    let subfleets = array.subfleets(&job.fleet, &outcome.assignment);
    for ((sub, _), allocation) in subfleets.iter().zip(&outcome.per_panel) {
        if sub.is_empty() {
            continue;
        }
        let (m, b) = replay_time_division(sub, &allocation.outcome, &shared.handle(), grid);
        matrix_ms += m;
        batch_ms += b;
        schedules += 1;
    }
    (matrix_ms, batch_ms, schedules)
}

/// Wall of compiling one plan for each carrier the jobs use, and how
/// many plans that was.
fn compile_ms(design: &Design, jobs: &[Job]) -> (f64, usize) {
    let carriers = carriers(jobs.iter().flat_map(|j| j.fleet.devices()));
    let started = Instant::now();
    for &f in &carriers {
        std::hint::black_box(StackEvaluator::new(&design.stack, f));
    }
    (ms_since(started), carriers.len())
}

/// The per-layer run: every pass runs twice over the same jobs, once
/// plain and once with the benchmark recorder on the server and both
/// schedulers (alternating which goes first).
fn traced_loop(
    cfg: &RunConfig,
    s: &Setup,
    run: &mut WorkloadRun,
    sample: &dyn Fn(usize) -> usize,
) -> Vec<Metric> {
    let (timing, handle) = ExactRecorder::attach();
    let traced_server = s.server.clone().with_recorder(handle.clone());
    let traced_schedulers = schedulers().map(|sch| sch.with_recorder(handle.clone()));
    let grid = control::SweepConfig::paper_default().steps_per_axis.pow(2);
    let (mut traced_wall, mut plain_wall) = (0.0f64, 0.0f64);
    let (mut waits_p50, mut waits_p95) = (Vec::new(), Vec::new());
    let mut service = [(0.0f64, 0usize); 2];
    let (mut latency_sum, mut busy_capacity_ms) = (0.0f64, 0.0f64);
    let (mut steals, mut jobs_traced) = (0usize, 0usize);
    let (mut matrix_ms, mut batch_ms, mut td_schedules) = (0.0, 0.0, 0usize);
    let (mut compile_total, mut compiles) = (0.0, 0usize);
    let deadline = cfg.deadline();
    let mut p = 0usize;
    while Instant::now() < deadline || jobs_traced == 0 {
        let jobs = &s.passes[p % PASSES];
        for arm in 0..2 {
            let traced = (arm + p) % 2 == 0;
            let pass = if traced {
                serve_pass(&traced_server, &traced_schedulers, s, jobs)
            } else {
                serve_pass(&s.server, &schedulers(), s, jobs)
            };
            check_pass(run, &s.array, jobs, &pass, sample(PASSES + p));
            if !traced {
                plain_wall += pass.wall_ms;
                continue;
            }
            traced_wall += pass.wall_ms;
            waits_p50.push(pass.stats.queue_wait_p50.0 * 1e3);
            waits_p95.push(pass.stats.queue_wait_p95.0 * 1e3);
            steals += pass.stats.steals;
            jobs_traced += jobs.len();
            busy_capacity_ms += pass.wall_ms * s.server.workers.min(jobs.len()) as f64;
            for (job, result) in jobs.iter().zip(&pass.results) {
                let Ok(served) = result else { continue };
                let slot = &mut service[usize::from(job.time_division)];
                slot.0 += served.service_ms;
                slot.1 += 1;
                latency_sum += served.latency_ms;
            }
            // Isolated replays, outside every timed pass: the first
            // time-division job's probe matrices, and plan compilation.
            if let Some((job, Ok(served))) = jobs
                .iter()
                .zip(&pass.results)
                .find(|(job, _)| job.time_division)
            {
                let (m, b, n) = replay_job(&s.array, job, &served.outcome, &s.shared, grid);
                matrix_ms += m;
                batch_ms += b;
                td_schedules += n;
            }
            let (ms, n) = compile_ms(&s.design, jobs);
            compile_total += ms;
            compiles += n;
        }
        p += 1;
    }

    let service_total = service[0].0 + service[1].0;
    let queue_wait_ms = timing.duration("server.queue_wait_ns").sum_ms();
    let cold = timing.sweeps("cold");
    vec![
        Metric::new(
            "server.queue_wait_p50_ms",
            "ms",
            median(&waits_p50),
            waits_p50.len(),
        ),
        Metric::new(
            "server.queue_wait_p95_ms",
            "ms",
            median(&waits_p95),
            waits_p95.len(),
        ),
        Metric::new(
            "server.job_ms.maxmin",
            "ms",
            ratio(service[0].0, service[0].1 as f64),
            service[0].1,
        ),
        Metric::new(
            "server.job_ms.timedivision",
            "ms",
            ratio(service[1].0, service[1].1 as f64),
            service[1].1,
        ),
        Metric::new(
            "server.busy_share",
            "ratio",
            ratio(service_total, busy_capacity_ms),
            jobs_traced,
        ),
        Metric::new(
            "server.steal_share",
            "ratio",
            ratio(steals as f64, jobs_traced as f64),
            jobs_traced,
        ),
        Metric::new(
            "sweep.cold_ms",
            "ms",
            ratio(cold.interval_ns as f64 / 1e6, cold.timed as f64),
            cold.timed as usize,
        ),
        Metric::new(
            "metasurface.plan_compile_ms",
            "ms",
            ratio(compile_total, compiles as f64),
            compiles,
        ),
        Metric::new(
            "fleet.powers_matrix_ms",
            "ms",
            ratio(matrix_ms, td_schedules as f64),
            td_schedules,
        ),
        Metric::new(
            "metasurface.eval_batch_ms",
            "ms",
            ratio(batch_ms, td_schedules as f64),
            td_schedules,
        ),
        Metric::new(
            "trace.coverage",
            "ratio",
            ratio(queue_wait_ms + service_total, latency_sum),
            jobs_traced,
        ),
        Metric::new(
            "trace.overhead",
            "ratio",
            ratio(traced_wall, plain_wall),
            2 * p,
        ),
    ]
}
