//! Self-contained timing harness behind `expts --bench-json`: measures
//! the batched surface-response engine against the naive per-point path
//! and emits a machine-readable summary (`BENCH_PR2.json`) so the
//! repository's perf trajectory accumulates run over run.
//!
//! The harness is deliberately dependency-free (wall-clock means over a
//! fixed warm-up + sample budget, like the Criterion shim) and doubles
//! as a CI smoke: [`PerfReport::passes`] fails loudly when the batched
//! engine stops beating the naive path by a healthy margin.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use control::server::FleetServer;
use llama_core::fleet::{Fleet, Scheduler};
use llama_core::panels::{serve_fleets, PanelArray, PanelScheduler};
use llama_core::scenario::Scenario;
use llama_core::sim::{DynamicFleet, HandoffPolicy, MobilitySim, SimConfig};
use llama_core::system::LlamaSystem;
use metasurface::designs::fr4_optimized;
use metasurface::evaluator::StackEvaluator;
use metasurface::response::SurfaceResponse;
use metasurface::stack::BiasState;
use propagation::link::PreparedLink;
use rfmath::stats::median;
use rfmath::telemetry::{RecorderHandle, RingRecorder};
use rfmath::units::Hertz;
use rfmath::units::Seconds;

use crate::alloc_counter;
use crate::report::{Field, Report, Row, Value};

/// Band-center frequency every workload runs at.
const F: Hertz = Hertz(2.44e9);

/// Minimum naive-vs-batched speedup on the 31×31 heatmap before the
/// smoke fails (the PR acceptance bar is 5×; the floor leaves headroom
/// for noisy shared CI machines).
const SPEEDUP_FLOOR: f64 = 3.0;

/// Warm-up ticks before the steady-state allocation count starts, and
/// measured ticks it averages over.
const ALLOC_WARMUP_TICKS: usize = 2;
const ALLOC_MEASURED_TICKS: usize = 8;
/// Devices the allocation kernel probes per simulated tick.
const ALLOC_KERNEL_DEVICES: usize = 8;

/// Steady-state heap allocations per simulated tick of the per-device
/// mobility hot kernel: one cached [`PreparedLink`] power probe plus a
/// memoized bias sweep through the compiled plan for each of
/// `ALLOC_KERNEL_DEVICES` devices — the per-tick work that runs on
/// arena rebinds, cached probes and plan memos. Measured after
/// `ALLOC_WARMUP_TICKS` warm-up ticks (buffers grown, memos
/// populated), averaged over `ALLOC_MEASURED_TICKS` ticks, and cached
/// for the process. `None` when the counting allocator is compiled out
/// (release builds — artifacts then stamp `null` instead of a number
/// measured without counting).
pub fn allocs_per_tick() -> Option<f64> {
    static CACHE: OnceLock<Option<f64>> = OnceLock::new();
    *CACHE.get_or_init(measure_allocs_per_tick)
}

fn measure_allocs_per_tick() -> Option<f64> {
    if !alloc_counter::enabled() {
        return None;
    }
    let design = fr4_optimized();
    let plan = StackEvaluator::new(&design.stack, F);
    let response = SurfaceResponse::new(F, plan.response(BiasState::new(6.0, 6.0)));
    let link = PreparedLink::new(Scenario::transmissive_default().link());
    let biases: Vec<BiasState> = (0..9)
        .map(|i| BiasState::new(3.0 * (i % 3) as f64, 3.0 * (i / 3) as f64))
        .collect();
    let tick = || {
        for _ in 0..ALLOC_KERNEL_DEVICES {
            std::hint::black_box(link.received_dbm_with(Some(&response)));
            for &bias in &biases {
                std::hint::black_box(plan.response(bias));
            }
        }
    };
    for _ in 0..ALLOC_WARMUP_TICKS {
        tick();
    }
    let (_, allocs) = alloc_counter::allocs_during(|| {
        for _ in 0..ALLOC_MEASURED_TICKS {
            tick();
        }
    });
    Some(allocs as f64 / ALLOC_MEASURED_TICKS as f64)
}

/// One timed workload.
#[derive(Clone, Debug)]
pub struct BenchSample {
    /// Workload name.
    pub name: &'static str,
    /// Mean wall-clock per iteration, milliseconds.
    pub mean_ms: f64,
    /// Iterations measured.
    pub iters: u64,
}

/// The full timing summary.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Whether the run used the reduced quick-mode sample budget.
    pub quick: bool,
    /// Individual workload timings.
    pub samples: Vec<BenchSample>,
    /// Naive / batched best-of-N time ratio on the 31×31 heatmap (min
    /// over samples on both sides, so one preempted sample cannot fail
    /// the gate).
    pub heatmap_31x31_speedup: f64,
    /// Naive / batched best-of-N time ratio on single-point evaluation.
    pub single_point_speedup: f64,
}

impl Row for BenchSample {
    fn row(&self) -> Vec<Field> {
        vec![
            ("name", self.name.into()),
            ("mean_ms", self.mean_ms.into()),
            ("iters", self.iters.into()),
        ]
    }
}

impl Report for PerfReport {
    fn title(&self) -> String {
        "Batched-engine perf summary".to_string()
    }

    fn identity(&self) -> Field {
        ("pr", 2u64.into())
    }

    fn fields(&self) -> Vec<Field> {
        vec![
            ("quick", self.quick.into()),
            ("benches", Value::rows(&self.samples)),
            ("single_point_speedup", self.single_point_speedup.into()),
            ("heatmap_31x31_speedup", self.heatmap_31x31_speedup.into()),
            ("speedup_floor", SPEEDUP_FLOOR.into()),
        ]
    }

    /// True when the batched engine clears the regression floor.
    fn passes(&self) -> bool {
        self.heatmap_31x31_speedup >= SPEEDUP_FLOOR
    }
}

/// Times `routine` over `iters` iterations after one warm-up call and
/// returns `(mean_ms, min_ms)`. The minimum is what the regression gate
/// compares: on shared CI runners a single scheduler preemption can
/// inflate one sample several-fold, and the min is immune to that.
pub(crate) fn time_ms<O>(iters: u64, mut routine: impl FnMut() -> O) -> (f64, f64) {
    std::hint::black_box(routine());
    let mut total = 0.0f64;
    let mut min = f64::INFINITY;
    for _ in 0..iters {
        let started = Instant::now();
        std::hint::black_box(routine());
        let ms = started.elapsed().as_secs_f64() * 1e3;
        total += ms;
        min = min.min(ms);
    }
    (total / iters as f64, min)
}

/// Runs every workload and assembles the report. `quick` trims the
/// sample budget for CI smoke use.
pub fn run(quick: bool) -> PerfReport {
    let design = fr4_optimized();
    let volts: Vec<f64> = (0..31).map(|i| i as f64).collect();
    let (single_iters, grid_iters, heatmap_iters) =
        if quick { (1000, 6, 2) } else { (5000, 12, 4) };
    let mut samples = Vec::new();

    let (naive_single, naive_single_min) = time_ms(single_iters, || {
        design.stack.response(F, BiasState::new(7.0, 13.0))
    });
    samples.push(BenchSample {
        name: "stack_response_single_naive",
        mean_ms: naive_single,
        iters: single_iters,
    });
    let evaluator = StackEvaluator::new(&design.stack, F);
    let (batched_single, batched_single_min) = time_ms(single_iters, || {
        evaluator.response(BiasState::new(7.0, 13.0))
    });
    samples.push(BenchSample {
        name: "stack_response_single_batched",
        mean_ms: batched_single,
        iters: single_iters,
    });

    let (naive_grid, naive_grid_min) = time_ms(grid_iters, || {
        let mut out = Vec::with_capacity(volts.len() * volts.len());
        for &vy in &volts {
            for &vx in &volts {
                out.push(design.stack.response(F, BiasState::new(vx, vy)));
            }
        }
        out
    });
    samples.push(BenchSample {
        name: "heatmap_31x31_naive",
        mean_ms: naive_grid,
        iters: grid_iters,
    });
    let (batched_grid, batched_grid_min) = time_ms(grid_iters, || {
        StackEvaluator::new(&design.stack, F).eval_grid(&volts, &volts)
    });
    samples.push(BenchSample {
        name: "heatmap_31x31_batched",
        mean_ms: batched_grid,
        iters: grid_iters,
    });

    // End-to-end: the Figure 15 per-panel workload on the migrated
    // system path (surface grid + prebuilt link).
    let (system_heatmap, _) = time_ms(heatmap_iters, || {
        let mut sys = LlamaSystem::new(Scenario::transmissive_default().with_distance_cm(36.0));
        sys.power_heatmap(13)
    });
    samples.push(BenchSample {
        name: "system_power_heatmap_13x13",
        mean_ms: system_heatmap,
        iters: heatmap_iters,
    });

    PerfReport {
        quick,
        samples,
        heatmap_31x31_speedup: naive_grid_min / batched_grid_min.max(1e-12),
        single_point_speedup: naive_single_min / batched_single_min.max(1e-12),
    }
}

/// Size of the reference fleet workload (the acceptance gate's mixed
/// Wi-Fi/BLE population).
const FLEET_SIZE: usize = 32;

/// Panels in the reference array.
const PANEL_COUNT: usize = 4;

/// Concurrent fleets the server workload multiplexes.
const SERVER_FLEETS: usize = 8;

// The capacity probe must be at least as wide as the widest pool timed.
const _: () = assert!(SERVER_FLEETS <= rfmath::par::CAPACITY_PROBE_THREADS);

/// The parallelism a pool of `workers` can use on this host:
/// `min(workers, capacity)`, at least 1, with `capacity` the measured
/// [`rfmath::par::parallel_capacity`]. A full-capacity reading (one
/// core's throughput per core) gives the core-count bound
/// `min(workers, cores)`; a host that delivers less divides by less.
fn effective_parallelism(workers: usize, capacity: f64) -> f64 {
    (workers as f64).min(capacity).max(1.0)
}

/// Timing summary of the panel-array engine and the many-fleet server
/// (`BENCH_PR4.json`).
#[derive(Clone, Debug)]
pub struct PanelPerfReport {
    /// Whether the run used the reduced quick-mode sample budget.
    pub quick: bool,
    /// Individual workload timings.
    pub samples: Vec<BenchSample>,
    /// Min-device power gain of the 4-panel scheduler over single-panel
    /// `MaxMin` on the 32-device mixed fleet, dB (the acceptance gate:
    /// must be strictly positive).
    pub panel_min_power_gain_db: f64,
    /// Serial / concurrent wall-clock ratio serving `SERVER_FLEETS`
    /// fleets through the [`FleetServer`] worker pool (informational —
    /// single-core CI runners cannot beat 1×).
    pub server_concurrency_speedup: f64,
    /// Worker threads the server bench ran with.
    pub server_workers: usize,
    /// Per-thread scaling efficiency: concurrency speedup divided by
    /// the effective parallelism (`min(workers, parallel_capacity)`), so
    /// a 2-worker run on a 1-core host reports ~1.0, not ~0.5.
    pub server_scaling_efficiency: f64,
    /// Mean stage-to-claim latency per job in the server, ms.
    pub server_mean_queue_wait_ms: f64,
    /// Median stage-to-claim latency, ms (the mean alone hides a starved
    /// tail; p50/p95 together expose it).
    pub server_queue_wait_p50_ms: f64,
    /// 95th-percentile stage-to-claim latency, ms.
    pub server_queue_wait_p95_ms: f64,
    /// Aggregated telemetry block captured from the instrumented server
    /// stats pass (single-line JSON object).
    pub telemetry: String,
}

impl Report for PanelPerfReport {
    fn title(&self) -> String {
        "Panel-array / many-fleet server perf summary".to_string()
    }

    fn identity(&self) -> Field {
        ("pr", 4u64.into())
    }

    fn telemetry(&self) -> String {
        self.telemetry.clone()
    }

    fn fields(&self) -> Vec<Field> {
        vec![
            ("quick", self.quick.into()),
            ("panels", PANEL_COUNT.into()),
            ("fleet_devices", FLEET_SIZE.into()),
            ("server_fleets", SERVER_FLEETS.into()),
            ("benches", Value::rows(&self.samples)),
            (
                "panel_min_power_gain_db",
                self.panel_min_power_gain_db.into(),
            ),
            (
                "server_concurrency_speedup",
                self.server_concurrency_speedup.into(),
            ),
            ("server_workers", self.server_workers.into()),
            (
                "server_scaling_efficiency",
                self.server_scaling_efficiency.into(),
            ),
            (
                "server_mean_queue_wait_ms",
                self.server_mean_queue_wait_ms.into(),
            ),
            (
                "server_queue_wait_p50_ms",
                self.server_queue_wait_p50_ms.into(),
            ),
            (
                "server_queue_wait_p95_ms",
                self.server_queue_wait_p95_ms.into(),
            ),
        ]
    }

    /// True when the panel array still strictly lifts the shared-bias
    /// min power.
    fn passes(&self) -> bool {
        self.panel_min_power_gain_db > 0.0
    }
}

/// Times the 4-panel, 32-device workloads: per-panel probe grids on the
/// shared-plan batch path (one [`metasurface::PlanCache`] across the
/// array), the end-to-end panel scheduler against single-panel `MaxMin`
/// (recording the min-power gain the panels buy), and the
/// [`FleetServer`] multiplexing `SERVER_FLEETS` fleets against serial
/// execution.
pub fn run_panels(quick: bool) -> PanelPerfReport {
    let fleet = Fleet::mixed_wifi_ble(FLEET_SIZE, 2021);
    let array = PanelArray::uniform(fleet.design.clone(), PANEL_COUNT);
    let assignment = array.assign(&fleet, &llama_core::panels::Assignment::ByOrientation);
    // The probe load of one Algorithm-1 scheduler run: 2 × 5×5 grids.
    let biases: Vec<BiasState> = {
        let mut b = Vec::new();
        for round in 0..2 {
            for ix in 0..5 {
                for iy in 0..5 {
                    let span = if round == 0 { 30.0 } else { 12.0 };
                    let base = if round == 0 { 0.0 } else { 9.0 };
                    b.push(BiasState::new(
                        base + span * ix as f64 / 4.0,
                        base + span * iy as f64 / 4.0,
                    ));
                }
            }
        }
        b
    };
    let (grid_iters, sched_iters, serve_iters) = if quick { (4, 2, 2) } else { (10, 4, 4) };
    let mut samples = Vec::new();

    let (batched_mean, _) = time_ms(grid_iters, || {
        // Cold cost included: plan caches compile inside the timed
        // region, exactly as the scheduler pays them.
        array.batched_panel_matrices(&fleet, &assignment, &biases)
    });
    samples.push(BenchSample {
        name: "panel_4x32_probe_grid_shared_plan",
        mean_ms: batched_mean,
        iters: grid_iters,
    });

    let (panel_sched_ms, _) = time_ms(sched_iters, || {
        PanelScheduler::max_min().run(&fleet, &array)
    });
    samples.push(BenchSample {
        name: "panel_4x32_scheduler_max_min",
        mean_ms: panel_sched_ms,
        iters: sched_iters,
    });
    let panel_outcome = PanelScheduler::max_min().run(&fleet, &array);
    let shared_outcome = Scheduler::max_min().run(&fleet);
    let panel_min_power_gain_db = panel_outcome.min_power_dbm() - shared_outcome.min_power_dbm();

    // Many-fleet serving: SERVER_FLEETS independent fleets through the
    // worker pool vs a serial loop.
    let fleets: Vec<Fleet> = (0..SERVER_FLEETS as u64)
        .map(|s| Fleet::mixed_wifi_ble(8, 3000 + s))
        .collect();
    let scheduler = Scheduler::max_min();
    let (serial_mean, serial_min) = time_ms(serve_iters, || {
        fleets.iter().map(|f| scheduler.run(f)).collect::<Vec<_>>()
    });
    samples.push(BenchSample {
        name: "server_8_fleets_serial",
        mean_ms: serial_mean,
        iters: serve_iters,
    });
    let workers = rfmath::par::budget().min(SERVER_FLEETS);
    let server = FleetServer::new(workers);
    let (served_mean, served_min) =
        time_ms(serve_iters, || serve_fleets(&server, &scheduler, &fleets));
    samples.push(BenchSample {
        name: "server_8_fleets_concurrent",
        mean_ms: served_mean,
        iters: serve_iters,
    });
    // One instrumented pass for the queue telemetry (wait time):
    // the timed loops above stay stats-free so the measurement is pure.
    // The ring recorder rides along here — same pass, zero cost to the
    // timed regions — and its aggregate is stamped into the artifact.
    let ring = Arc::new(RingRecorder::default());
    let recorder = RecorderHandle::new(ring);
    let server = server.with_recorder(recorder.clone());
    let (_, stats) = server.try_serve_with_stats(fleets.iter().collect(), |_, fleet: &Fleet| {
        scheduler.run(fleet)
    });
    let speedup = serial_min / served_min.max(1e-12);

    PanelPerfReport {
        quick,
        samples,
        panel_min_power_gain_db,
        server_concurrency_speedup: speedup,
        server_workers: workers,
        server_scaling_efficiency: speedup
            / effective_parallelism(workers, rfmath::par::parallel_capacity()),
        server_mean_queue_wait_ms: stats.mean_queue_wait.0 * 1e3,
        server_queue_wait_p50_ms: stats.queue_wait_p50.0 * 1e3,
        server_queue_wait_p95_ms: stats.queue_wait_p95.0 * 1e3,
        telemetry: recorder.aggregate_json(),
    }
}

/// Minimum warm-vs-cold per-tick speedup before
/// [`MobilityPerfReport::passes`] fails on a full run (the PR-5
/// acceptance bar at 32 devices / 64 ticks).
const MOBILITY_SPEEDUP_FLOOR: f64 = 3.0;

/// The quick-mode wall-clock floor (8 devices / 8 ticks: the cold-start
/// tick is a full eighth of the warm run, so the amortized ratio is
/// structurally ~2.4×, and shared CI runners add timing noise on a
/// sub-5 ms measurement). The deterministic probe-ratio gate in
/// [`MobilityPerfReport::passes`] carries the real regression check in
/// quick mode.
const MOBILITY_SPEEDUP_FLOOR_QUICK: f64 = 1.5;

/// One point of the hysteresis sweep: how a handoff policy trades
/// migration churn against served power.
#[derive(Clone, Copy, Debug)]
pub struct HysteresisPoint {
    /// Margin threshold, dB.
    pub hysteresis_db: f64,
    /// Dwell requirement, ticks.
    pub dwell_ticks: usize,
    /// Total handoffs over the run.
    pub handoffs: usize,
    /// Mean worst-device served power, dBm.
    pub mean_min_power_dbm: f64,
    /// Mean serving duty (device-weighted).
    pub mean_duty: f64,
}

/// Timing summary of the mobility simulator (`BENCH_PR5.json`).
#[derive(Clone, Debug)]
pub struct MobilityPerfReport {
    /// Whether the run used the reduced quick-mode workload.
    pub quick: bool,
    /// Devices in the roaming workload.
    pub devices: usize,
    /// Simulated ticks.
    pub ticks: usize,
    /// Panels in the distributed array.
    pub panels: usize,
    /// Total controller wall-clock of the cold (memoryless full
    /// re-search) run, ms: the median over 5 (quick) or 3 (full)
    /// repetitions, alternated with the warm ones.
    pub cold_wall_ms: f64,
    /// Total controller wall-clock of the warm (incremental) run, ms,
    /// as the median over the same alternating repetitions.
    pub warm_wall_ms: f64,
    /// Cold / warm wall-clock ratio — the headline.
    pub warm_speedup: f64,
    /// Probes spent by each mode (airtime side of the same story).
    pub cold_probes: usize,
    /// Probes spent by the warm run.
    pub warm_probes: usize,
    /// Mean serving duty of each mode (reconfiguration honesty).
    pub cold_mean_duty: f64,
    /// Mean serving duty of the warm run.
    pub warm_mean_duty: f64,
    /// Handoffs the warm run's hysteresis policy performed.
    pub warm_handoffs: usize,
    /// Whether a zero-motion fleet produced bit-identical allocations
    /// through the warm and cold engines on every tick (the exactness
    /// gate; the proptest pins the same contract against the static
    /// scheduler).
    pub zero_motion_equivalent: bool,
    /// The min-power-vs-handoff-rate sweep across hysteresis settings.
    pub hysteresis_curve: Vec<HysteresisPoint>,
    /// Aggregated telemetry block captured from the instrumented
    /// zero-motion run (single-line JSON object). The timed headline
    /// runs stay recorder-free so the speedup gate measures the engine,
    /// not the ring.
    pub telemetry: String,
}

impl MobilityPerfReport {
    /// The speedup floor this run is gated on.
    pub fn floor(&self) -> f64 {
        if self.quick {
            MOBILITY_SPEEDUP_FLOOR_QUICK
        } else {
            MOBILITY_SPEEDUP_FLOOR
        }
    }
}

impl Row for HysteresisPoint {
    fn row(&self) -> Vec<Field> {
        vec![
            ("hysteresis_db", self.hysteresis_db.into()),
            ("dwell_ticks", self.dwell_ticks.into()),
            ("handoffs", self.handoffs.into()),
            ("mean_min_power_dbm", self.mean_min_power_dbm.into()),
            ("mean_duty", self.mean_duty.into()),
        ]
    }
}

impl Report for MobilityPerfReport {
    fn title(&self) -> String {
        "Mobility simulator perf summary".to_string()
    }

    fn identity(&self) -> Field {
        ("pr", 5u64.into())
    }

    fn telemetry(&self) -> String {
        self.telemetry.clone()
    }

    fn fields(&self) -> Vec<Field> {
        vec![
            ("quick", self.quick.into()),
            ("fleet_devices", self.devices.into()),
            ("ticks", self.ticks.into()),
            ("panels", self.panels.into()),
            ("cold_wall_ms", self.cold_wall_ms.into()),
            ("warm_wall_ms", self.warm_wall_ms.into()),
            ("warm_speedup", self.warm_speedup.into()),
            ("cold_probes", self.cold_probes.into()),
            ("warm_probes", self.warm_probes.into()),
            ("cold_mean_duty", self.cold_mean_duty.into()),
            ("warm_mean_duty", self.warm_mean_duty.into()),
            ("warm_handoffs", self.warm_handoffs.into()),
            ("zero_motion_equivalent", self.zero_motion_equivalent.into()),
            ("hysteresis_curve", Value::rows(&self.hysteresis_curve)),
            ("speedup_floor", self.floor().into()),
        ]
    }

    /// True when the warm engine clears the wall-clock speedup floor,
    /// spends at most half the cold probe bill (a deterministic,
    /// noise-free gate on the same regression), and the zero-motion
    /// equivalence held exactly.
    fn passes(&self) -> bool {
        self.warm_speedup >= self.floor()
            && self.warm_probes * 2 <= self.cold_probes
            && self.zero_motion_equivalent
    }
}

/// Times the event-stepped mobility simulator: the roaming mixed fleet
/// over a distributed panel array, warm (incremental re-optimization,
/// hysteresis handoff) against cold (memoryless full re-search per
/// tick), plus the zero-motion exactness check and a hysteresis sweep.
/// Full mode runs the 32-device / 64-tick acceptance workload; quick
/// mode the 8-device / 8-tick CI smoke.
pub fn run_mobility(quick: bool) -> MobilityPerfReport {
    let (devices, ticks, panels) = if quick { (8, 8, 2) } else { (32, 64, 4) };
    let seed = 2021u64;
    let duration = Seconds(ticks as f64);
    let design = Fleet::mixed_wifi_ble(1, seed).design.clone();
    let array = PanelArray::distributed(design.clone(), panels);
    let scheduler = PanelScheduler::max_min();

    // Identical trajectories for both modes: fresh fleets, same seed.
    // Each run is a few milliseconds in quick mode, so one cold and one
    // warm run are at the mercy of a single scheduler hiccup: the gate
    // reads the median wall clock of alternating cold/warm repetitions.
    // The runs are deterministic, so every repetition must spend the
    // same probes; the first repetition supplies the non-timing fields.
    let reps = if quick { 5 } else { 3 };
    let run = |config: SimConfig| {
        let mut roaming = DynamicFleet::roaming_mixed(devices, seed, duration);
        MobilitySim::new(scheduler.clone(), config).run(&mut roaming, &array, ticks)
    };
    let runs: Vec<_> = (0..reps)
        .map(|_| (run(SimConfig::cold()), run(SimConfig::default())))
        .collect();
    let (cold, warm) = &runs[0];
    for (c, w) in &runs {
        assert_eq!(
            (c.total_probes(), w.total_probes()),
            (cold.total_probes(), warm.total_probes()),
            "mobility repetitions must be deterministic"
        );
    }
    let cold_wall_ms = median(&runs.iter().map(|(c, _)| c.wall_ms).collect::<Vec<_>>());
    let warm_wall_ms = median(&runs.iter().map(|(_, w)| w.wall_ms).collect::<Vec<_>>());

    // Zero-motion exactness: a parked fleet through both engines, every
    // tick's allocation compared bit for bit.
    let still = Fleet::mixed_wifi_ble(devices.min(8), seed);
    let still_array = PanelArray::uniform(still.design.clone(), panels.min(2));
    let still_ticks = ticks.min(8);
    // The zero-motion arm doubles as the telemetry capture: a ring
    // recorder rides the warm engine here (events never change the
    // computation, so the bitwise gate below still holds) while the
    // timed headline runs above stay recorder-free.
    let ring_recorder = RecorderHandle::new(Arc::new(RingRecorder::default()));
    let warm_still = MobilitySim::new(scheduler.clone(), SimConfig::default())
        .with_recorder(ring_recorder.clone())
        .run(
            &mut DynamicFleet::new(still.clone()),
            &still_array,
            still_ticks,
        );
    let cold_still = MobilitySim::new(scheduler, SimConfig::cold()).run(
        &mut DynamicFleet::new(still),
        &still_array,
        still_ticks,
    );
    let zero_motion_equivalent = warm_still
        .ticks
        .iter()
        .zip(&cold_still.ticks)
        .all(|(w, c)| w.outcome.same_allocation(&c.outcome));

    // Min-power-vs-handoff-rate across hysteresis settings. The default
    // policy's point reuses the headline warm run — same config, same
    // seed, bit-identical results (the determinism contract) — instead
    // of re-simulating the most expensive workload.
    let default_handoff = SimConfig::default().handoff;
    let settings: &[(f64, usize)] = if quick {
        &[(0.0, 1), (4.0, 2)]
    } else {
        &[(0.0, 1), (0.5, 1), (1.0, 1), (2.0, 1), (2.0, 2)]
    };
    let hysteresis_curve = settings
        .iter()
        .map(|&(hysteresis_db, dwell_ticks)| {
            let handoff = HandoffPolicy {
                hysteresis_db,
                dwell_ticks,
                ..HandoffPolicy::default()
            };
            let report = if handoff == default_handoff {
                warm.clone()
            } else {
                let mut fleet = DynamicFleet::roaming_mixed(devices, seed, duration);
                MobilitySim::new(
                    PanelScheduler::max_min(),
                    SimConfig::default().with_handoff(handoff),
                )
                .run(&mut fleet, &array, ticks)
            };
            HysteresisPoint {
                hysteresis_db,
                dwell_ticks,
                handoffs: report.handoffs,
                mean_min_power_dbm: report.mean_served_min_power_dbm(),
                mean_duty: report.mean_duty(),
            }
        })
        .collect();

    MobilityPerfReport {
        quick,
        devices,
        ticks,
        panels,
        cold_wall_ms,
        warm_wall_ms,
        warm_speedup: cold_wall_ms / warm_wall_ms.max(1e-9),
        cold_probes: cold.total_probes(),
        warm_probes: warm.total_probes(),
        cold_mean_duty: cold.mean_duty(),
        warm_mean_duty: warm.mean_duty(),
        warm_handoffs: warm.handoffs,
        zero_motion_equivalent,
        hysteresis_curve,
        telemetry: ring_recorder.aggregate_json(),
    }
}

/// Minimum per-thread scaling efficiency at the largest measured worker
/// count, against the host's measured parallel capacity (near-linear:
/// ≥ 60% of ideal).
const SCALING_EFFICIENCY_FLOOR: f64 = 0.6;

/// Measured parallel capacity below which thread scaling is not
/// measurable: the host gives less than one and a half cores of
/// parallel throughput, so a worker pool cannot show scaling. The
/// scaling smoke is then skipped, and the skip is stamped.
const MIN_SCALING_CAPACITY: f64 = 1.5;

/// One point of the fleet-throughput thread-scaling sweep.
#[derive(Clone, Copy, Debug)]
pub struct ThreadScalingPoint {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Best-of-N wall-clock for the serve, ms.
    pub min_ms: f64,
    /// Serial / concurrent best-of-N ratio at this worker count.
    pub speedup: f64,
    /// Speedup divided by the effective parallelism
    /// (`min(workers, parallel_capacity)`).
    pub efficiency: f64,
    /// Mean stage-to-claim queue wait per job, ms.
    pub mean_queue_wait_ms: f64,
}

/// Timing summary of the `--sharded` gate (`BENCH_PR8.json`): the
/// SoA batch kernel, warm mobility ticks, steady-state allocations, and
/// fleet throughput across worker counts.
#[derive(Clone, Debug)]
pub struct ShardedPerfReport {
    /// Whether the run used the reduced quick-mode sample budget.
    pub quick: bool,
    /// The host's measured parallel capacity
    /// ([`rfmath::par::parallel_capacity`]).
    pub parallel_capacity: f64,
    /// Individual workload timings.
    pub samples: Vec<BenchSample>,
    /// Whether the thread-scaling smoke was skipped (capacity below
    /// `MIN_SCALING_CAPACITY`: a worker pool cannot beat serial
    /// without a second core's worth of throughput).
    pub thread_scaling_skipped: bool,
    /// Fleet-throughput scaling across worker counts (empty when
    /// skipped).
    pub thread_scaling: Vec<ThreadScalingPoint>,
    /// Aggregated telemetry block captured from the instrumented
    /// thread-scaling stats passes (single-line JSON object; an empty
    /// ring where scaling is skipped).
    pub telemetry: String,
}

impl Row for ThreadScalingPoint {
    fn row(&self) -> Vec<Field> {
        vec![
            ("workers", self.workers.into()),
            ("min_ms", self.min_ms.into()),
            ("speedup", self.speedup.into()),
            ("efficiency", self.efficiency.into()),
            ("mean_queue_wait_ms", self.mean_queue_wait_ms.into()),
        ]
    }
}

impl Report for ShardedPerfReport {
    fn title(&self) -> String {
        "Sharded serving / hot-loop perf summary".to_string()
    }

    fn identity(&self) -> Field {
        ("pr", 8u64.into())
    }

    fn telemetry(&self) -> String {
        self.telemetry.clone()
    }

    fn fields(&self) -> Vec<Field> {
        vec![
            ("quick", self.quick.into()),
            ("benches", Value::rows(&self.samples)),
            ("parallel_capacity", self.parallel_capacity.into()),
            ("thread_scaling_skipped", self.thread_scaling_skipped.into()),
            ("thread_scaling", Value::rows(&self.thread_scaling)),
            ("scaling_efficiency_floor", SCALING_EFFICIENCY_FLOOR.into()),
        ]
    }

    /// True when fleet throughput scaled near-linearly against the
    /// host's measured parallel capacity, or when the host has too
    /// little capacity to measure scaling at all.
    fn passes(&self) -> bool {
        self.thread_scaling_skipped
            || self
                .thread_scaling
                .last()
                .is_some_and(|p| p.efficiency >= SCALING_EFFICIENCY_FLOOR)
    }

    fn notes(&self) -> Vec<String> {
        if self.thread_scaling_skipped {
            vec![format!(
                        "thread scaling: not measurable on this host (parallel capacity {:.2} < {MIN_SCALING_CAPACITY})",
                self.parallel_capacity
            )]
        } else {
            Vec::new()
        }
    }
}

/// Times the serving stack for the `--sharded` gate:
///
/// * **probe grid** — [`StackEvaluator::eval_batch`] (the SoA slab
///   kernel) on one compiled plan and a large distinct-bias batch;
/// * **mobility tick** — the warm engine's per-tick controller cost,
///   best of N seeded runs;
/// * **thread scaling** — [`serve_fleets`] throughput across worker
///   counts through the [`FleetServer`], with an instrumented pass
///   recording queue wait (skipped-but-stamped where
///   the measured parallel capacity is below `MIN_SCALING_CAPACITY`).
pub fn run_sharded(quick: bool) -> ShardedPerfReport {
    let mut samples = Vec::new();
    let logical_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // The 24×24 distinct grid mirrors the dedup shape of a real probe
    // sweep.
    let design = fr4_optimized();
    let plan = StackEvaluator::new(&design.stack, F);
    let grid = 24usize;
    let biases: Vec<BiasState> = (0..grid * grid)
        .map(|i| {
            BiasState::new(
                30.0 * (i % grid) as f64 / (grid - 1) as f64,
                30.0 * (i / grid) as f64 / (grid - 1) as f64,
            )
        })
        .collect();
    let batch_iters = if quick { 20 } else { 60 };
    let (soa_mean, _) = time_ms(batch_iters, || plan.eval_batch(&biases));
    samples.push(BenchSample {
        name: "probe_grid_576_batch_soa",
        mean_ms: soa_mean,
        iters: batch_iters,
    });

    // Warm mobility ticks, best of N wall clocks (the runs are
    // deterministic apart from timing; a single quick run is only ~2 ms
    // and flakes on loaded hosts).
    let (devices, ticks, panels) = if quick { (12, 16, 3) } else { (24, 32, 3) };
    let seed = 2021u64;
    let duration = Seconds(ticks as f64);
    let sim_design = Fleet::mixed_wifi_ble(1, seed).design.clone();
    let array = PanelArray::distributed(sim_design, panels);
    let scheduler = PanelScheduler::max_min();
    let sim_reps = if quick { 5 } else { 3 };
    let warm_wall_ms = (0..sim_reps)
        .map(|_| {
            let mut roaming = DynamicFleet::roaming_mixed(devices, seed, duration);
            MobilitySim::new(scheduler.clone(), SimConfig::default())
                .run(&mut roaming, &array, ticks)
                .wall_ms
        })
        .fold(f64::INFINITY, f64::min);
    samples.push(BenchSample {
        name: "mobility_tick_warm",
        mean_ms: warm_wall_ms / ticks as f64,
        iters: ticks as u64,
    });

    // Fleet-throughput thread scaling through the server. One ring
    // recorder rides every instrumented stats pass (never the timed
    // loops); its aggregate lands in the artifact's telemetry block.
    let ring_recorder = RecorderHandle::new(Arc::new(RingRecorder::default()));
    // Probed once per process: here on a lone `--sharded`, by the panel
    // bench earlier in a `--bench-all`.
    let parallel_capacity = rfmath::par::parallel_capacity();
    let thread_scaling_skipped = parallel_capacity < MIN_SCALING_CAPACITY;
    let mut thread_scaling = Vec::new();
    if !thread_scaling_skipped {
        let fleets: Vec<Fleet> = (0..SERVER_FLEETS as u64)
            .map(|s| Fleet::mixed_wifi_ble(8, 3000 + s))
            .collect();
        let sched = Scheduler::max_min();
        let serve_iters = if quick { 3 } else { 6 };
        let (_, serial_min) = time_ms(serve_iters, || {
            fleets.iter().map(|f| sched.run(f)).collect::<Vec<_>>()
        });
        let mut worker_counts = vec![1usize, 2];
        worker_counts.push(logical_cores.min(SERVER_FLEETS));
        worker_counts.sort_unstable();
        worker_counts.dedup();
        for &workers in &worker_counts {
            let server = FleetServer::new(workers);
            let (_, min_ms) = time_ms(serve_iters, || serve_fleets(&server, &sched, &fleets));
            let server = server.with_recorder(ring_recorder.clone());
            let (_, stats) = server
                .try_serve_with_stats(fleets.iter().collect(), |_, fleet: &Fleet| sched.run(fleet));
            let speedup = serial_min / min_ms.max(1e-12);
            thread_scaling.push(ThreadScalingPoint {
                workers,
                min_ms,
                speedup,
                efficiency: speedup / effective_parallelism(workers, parallel_capacity),
                mean_queue_wait_ms: stats.mean_queue_wait.0 * 1e3,
            });
        }
    }

    ShardedPerfReport {
        quick,
        parallel_capacity,
        samples,
        thread_scaling_skipped,
        thread_scaling,
        telemetry: ring_recorder.aggregate_json(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{render, Format};
    use rfmath::telemetry::null_block_json;

    #[test]
    fn a_full_capacity_reading_gives_the_core_count_divisor() {
        for cores in 1..=SERVER_FLEETS {
            for workers in 1..=SERVER_FLEETS {
                assert_eq!(
                    effective_parallelism(workers, cores as f64),
                    workers.min(cores) as f64
                );
            }
        }
        // A host delivering less divides by what it delivers, never
        // below one worker's worth.
        assert_eq!(effective_parallelism(4, 1.8), 1.8);
        assert_eq!(effective_parallelism(2, 0.7), 1.0);
    }

    #[test]
    fn panel_report_serializes_and_gates_on_both_axes() {
        let report = PanelPerfReport {
            quick: true,
            samples: vec![BenchSample {
                name: "z",
                mean_ms: 1.0,
                iters: 2,
            }],
            panel_min_power_gain_db: 2.5,
            server_concurrency_speedup: 1.8,
            server_workers: 2,
            server_scaling_efficiency: 0.9,
            server_mean_queue_wait_ms: 0.05,
            server_queue_wait_p50_ms: 0.04,
            server_queue_wait_p95_ms: 0.09,
            telemetry: null_block_json(),
        };
        let json = render(&report, Format::Json);
        assert!(json.contains("\"pr\": 4"));
        assert!(json.contains("\"telemetry\""));
        assert!(json.contains("\"mode\": \"null\""));
        // Every artifact records the machine it was measured on, and
        // the steady-state allocation stamp sits right next to it.
        assert!(json.contains("\"machine\""));
        assert!(json.contains("\"logical_cores\""));
        assert!(json.contains("\"threads_used\""));
        assert!(json.contains("\"allocs_per_tick\""));
        assert!(json.contains("\"server_scaling_efficiency\": 0.9,"));
        assert!(json.contains("\"server_mean_queue_wait_ms\": 0.05,"));
        assert!(json.contains("\"server_queue_wait_p50_ms\": 0.04,"));
        assert!(json.contains("\"server_queue_wait_p95_ms\": 0.09,"));
        assert!(json.contains("\"panel_min_power_gain_db\": 2.5,"));
        assert!(json.contains("\"pass\": true"));
        assert!(report.passes());
        // A panel array that no longer lifts the min power fails.
        let worse = PanelPerfReport {
            panel_min_power_gain_db: -0.3,
            ..report
        };
        assert!(!worse.passes());
    }

    #[test]
    fn mobility_report_serializes_and_gates_on_both_axes() {
        let report = MobilityPerfReport {
            quick: false,
            devices: 32,
            ticks: 64,
            panels: 4,
            cold_wall_ms: 900.0,
            warm_wall_ms: 200.0,
            warm_speedup: 4.5,
            cold_probes: 6400,
            warm_probes: 900,
            cold_mean_duty: 0.0,
            warm_mean_duty: 0.8,
            warm_handoffs: 3,
            zero_motion_equivalent: true,
            hysteresis_curve: vec![HysteresisPoint {
                hysteresis_db: 2.0,
                dwell_ticks: 2,
                handoffs: 3,
                mean_min_power_dbm: -61.5,
                mean_duty: 0.8,
            }],
            telemetry: null_block_json(),
        };
        let json = render(&report, Format::Json);
        assert!(json.contains("\"pr\": 5"));
        assert!(json.contains("\"warm_speedup\": 4.5,"));
        assert!(json.contains("\"zero_motion_equivalent\": true"));
        assert!(json.contains("\"hysteresis_db\": 2.0"));
        assert!(json.contains("\"pass\": true"));
        assert!(report.passes());
        // Either axis failing fails the smoke.
        let slow = MobilityPerfReport {
            warm_speedup: 1.5,
            ..report.clone()
        };
        assert!(!slow.passes());
        let drifted = MobilityPerfReport {
            zero_motion_equivalent: false,
            ..report
        };
        assert!(!drifted.passes());
    }

    #[test]
    fn mobility_quick_floor_is_lower() {
        let report = MobilityPerfReport {
            quick: true,
            devices: 8,
            ticks: 8,
            panels: 2,
            cold_wall_ms: 100.0,
            warm_wall_ms: 40.0,
            warm_speedup: 2.5,
            cold_probes: 800,
            warm_probes: 200,
            cold_mean_duty: 0.0,
            warm_mean_duty: 0.8,
            warm_handoffs: 0,
            zero_motion_equivalent: true,
            hysteresis_curve: Vec::new(),
            telemetry: null_block_json(),
        };
        assert_eq!(report.floor(), 1.5);
        assert!(report.passes());
    }

    #[test]
    fn sharded_report_serializes_and_gates_on_every_axis() {
        let report = ShardedPerfReport {
            quick: true,
            parallel_capacity: 3.9,
            samples: vec![BenchSample {
                name: "s",
                mean_ms: 1.0,
                iters: 2,
            }],
            thread_scaling_skipped: false,
            thread_scaling: vec![ThreadScalingPoint {
                workers: 4,
                min_ms: 2.0,
                speedup: 3.2,
                efficiency: 0.8,
                mean_queue_wait_ms: 0.01,
            }],
            telemetry: null_block_json(),
        };
        let json = render(&report, Format::Json);
        assert!(json.contains("\"pr\": 8"));
        assert!(json.contains("\"parallel_capacity\": 3.9,"));
        assert!(json.contains("\"thread_scaling_skipped\": false"));
        assert!(json.contains("\"workers\": 4"));
        assert!(json.contains("\"pass\": true"));
        assert!(report.passes());
        let sublinear = ShardedPerfReport {
            thread_scaling: vec![ThreadScalingPoint {
                efficiency: 0.3,
                ..report.thread_scaling[0]
            }],
            ..report.clone()
        };
        assert!(!sublinear.passes());
        // A host without a second core's worth of throughput skips the
        // scaling gate but stamps the skip and says so.
        let single_core = ShardedPerfReport {
            parallel_capacity: 1.02,
            thread_scaling_skipped: true,
            thread_scaling: Vec::new(),
            ..report
        };
        assert!(single_core.passes());
        assert!(render(&single_core, Format::Json).contains("\"thread_scaling_skipped\": true"));
        assert!(render(&single_core, Format::Summary).contains("not measurable on this host"));
    }

    /// The CI zero-alloc assertion: after warm-up, the per-tick hot
    /// kernel (cached probes + memoized plan sweeps) must not touch the
    /// heap at all in debug-assert builds. The counter is per thread, so
    /// sibling tests allocating concurrently do not disturb it.
    #[test]
    fn steady_state_tick_is_allocation_free() {
        match allocs_per_tick() {
            Some(allocs) => assert_eq!(
                allocs, 0.0,
                "steady-state mobility tick kernel allocated {allocs} times per tick"
            ),
            None => assert!(!alloc_counter::enabled()),
        }
    }

    /// Heap allocations per warm tick of the real simulator: each zoo
    /// room (seed 7) runs its tick budget, then again with 32 extra
    /// ticks, serially (`with_budget(1)`), and the difference is charged
    /// to those ticks. The ceilings are the measured counts (85.88,
    /// 52.91 and 109.12) rounded up: the warm path's batches reuse their
    /// buffers, so a new allocation per tick shows here.
    #[test]
    fn warm_room_tick_allocations_stay_under_the_ceiling() {
        const EXTRA_TICKS: usize = 32;
        const CEILINGS: [(&str, f64); 3] = [
            ("office-floor", 86.0),
            ("warehouse-aisle", 53.0),
            ("conference-room", 109.2),
        ];
        if !alloc_counter::enabled() {
            return;
        }
        for (room, ceiling) in CEILINGS {
            let allocs = |extra: usize| {
                let mut scenario = llama_core::rooms::build(room, 7).expect("catalog room");
                let ticks = scenario.ticks + extra;
                let sim = MobilitySim::new(PanelScheduler::max_min(), scenario.config);
                let fleet = &mut scenario.fleet;
                rfmath::par::with_budget(1, || {
                    alloc_counter::allocs_during(|| sim.run(fleet, &scenario.array, ticks)).1
                })
            };
            let per_tick = (allocs(EXTRA_TICKS) - allocs(0)) as f64 / EXTRA_TICKS as f64;
            eprintln!("{room}: {per_tick:.2} heap allocations per extra tick");
            assert!(
                per_tick <= ceiling,
                "{room}: {per_tick:.2} heap allocations per warm tick, ceiling {ceiling}"
            );
        }
    }

    #[test]
    fn report_serializes_and_summarizes() {
        let report = PerfReport {
            quick: true,
            samples: vec![BenchSample {
                name: "x",
                mean_ms: 1.5,
                iters: 3,
            }],
            heatmap_31x31_speedup: 6.0,
            single_point_speedup: 2.0,
        };
        let json = render(&report, Format::Json);
        assert!(json.contains("\"heatmap_31x31_speedup\": 6.0,"));
        assert!(json.contains("\"pass\": true"));
        assert!(report.passes());
        assert!(render(&report, Format::Summary).contains("heatmap_31x31_speedup"));
    }
}
