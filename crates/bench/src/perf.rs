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
use llama_core::fleet::{Fleet, FleetEvaluator, Scheduler};
use llama_core::panels::{serve_fleets, PanelArray, PanelScheduler};
use llama_core::scenario::Scenario;
use llama_core::sim::{DynamicFleet, HandoffPolicy, MobilitySim, SimConfig};
use llama_core::system::LlamaSystem;
use metasurface::designs::fr4_optimized;
use metasurface::evaluator::StackEvaluator;
use metasurface::response::SurfaceResponse;
use metasurface::stack::BiasState;
use propagation::link::PreparedLink;
use rfmath::telemetry::{null_block_json, RecorderHandle, RingRecorder};
use rfmath::units::Hertz;
use rfmath::units::Seconds;

use crate::alloc_counter;

/// Band-center frequency every workload runs at.
const F: Hertz = Hertz(2.44e9);

/// Minimum naive-vs-batched speedup on the 31×31 heatmap before the
/// smoke fails (the PR acceptance bar is 5×; the floor leaves headroom
/// for noisy shared CI machines).
const SPEEDUP_FLOOR: f64 = 3.0;

/// Machine topology stamped into every bench artifact: how many
/// logical cores the host exposes and how many worker threads the
/// parallel runtime actually uses. Single-core artifacts (like a 0.99×
/// parallel "speedup" measured on a one-core runner) are then visible
/// in the JSON instead of being silently committed.
pub fn machine_json() -> String {
    format!(
        "  \"machine\": {{\"logical_cores\": {}, \"threads_used\": {}}},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        rfmath::par::available_threads()
    )
}

/// The active fault configuration stamped into every bench and scenario
/// artifact: seed, stochastic rates, scripted-fault counts and the
/// retry budget. Fault-free artifacts carry the all-zero stamp, so a
/// number measured under injected faults can never be mistaken for a
/// healthy-hardware baseline (or vice versa).
pub fn faults_json(plan: &llama_core::faults::FaultPlan) -> String {
    format!(
        "  \"faults\": {{\"seed\": {}, \"panel_outage_rate\": {:.4}, \
         \"report_loss_rate\": {:.4}, \"psu_glitch_rate\": {:.4}, \
         \"scripted_outages\": {}, \"dead_columns\": {}, \
         \"max_report_attempts\": {}}},\n",
        plan.seed,
        plan.panel_outage_rate,
        plan.report_loss_rate,
        plan.psu_glitch_rate,
        plan.outages.len(),
        plan.dead_columns.len(),
        plan.retry.max_attempts,
    )
}

/// Warm-up ticks before the steady-state allocation count starts, and
/// measured ticks it averages over.
const ALLOC_WARMUP_TICKS: usize = 2;
const ALLOC_MEASURED_TICKS: usize = 8;
/// Devices the allocation kernel probes per simulated tick.
const ALLOC_KERNEL_DEVICES: usize = 8;

/// Steady-state heap allocations per simulated tick of the per-device
/// mobility hot kernel: one cached [`PreparedLink`] power probe plus a
/// memoized bias sweep through the compiled plan for each of
/// [`ALLOC_KERNEL_DEVICES`] devices — the per-tick work that runs on
/// arena rebinds, cached probes and plan memos. Measured after
/// [`ALLOC_WARMUP_TICKS`] warm-up ticks (buffers grown, memos
/// populated), averaged over [`ALLOC_MEASURED_TICKS`] ticks, and cached
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

/// The `allocs_per_tick` stamp every bench/scenario artifact carries
/// next to the machine stamp: the steady-state hot-kernel allocation
/// count in debug-assert builds, `null` in release builds (where the
/// counting hook is compiled out).
pub fn allocs_json() -> String {
    match allocs_per_tick() {
        Some(v) => format!("  \"allocs_per_tick\": {v:.2},\n"),
        None => String::from("  \"allocs_per_tick\": null,\n"),
    }
}

/// The shared stamp block every committed BENCH/scenario/chaos/matrix
/// artifact carries right after its identity line: machine topology,
/// steady-state allocation count, the active fault configuration, and
/// the aggregated telemetry block (`{"mode": "null"}` for an
/// uninstrumented run, the full counter/histogram summary when a
/// recorder was attached). One helper, one format — a writer cannot
/// drift from the others. `telemetry` must be a single-line JSON object
/// (see [`rfmath::telemetry::Recorder::aggregate_json`]).
pub fn stamp_report(out: &mut String, plan: &llama_core::faults::FaultPlan, telemetry: &str) {
    out.push_str(&machine_json());
    out.push_str(&allocs_json());
    out.push_str(&faults_json(plan));
    out.push_str(&format!("  \"telemetry\": {telemetry},\n"));
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
    /// Aggregated telemetry block (single-line JSON object; the null
    /// block when no recorder was attached to the workloads).
    pub telemetry: String,
}

impl PerfReport {
    /// True when the batched engine clears the regression floor.
    pub fn passes(&self) -> bool {
        self.heatmap_31x31_speedup >= SPEEDUP_FLOOR
    }

    /// Renders the report as a JSON document (no external dependencies,
    /// so the format is assembled by hand).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"pr\": 2,\n");
        stamp_report(
            &mut out,
            &llama_core::faults::FaultPlan::none(),
            &self.telemetry,
        );
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str("  \"benches\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            let comma = if i + 1 < self.samples.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"mean_ms\": {:.6}, \"iters\": {}}}{comma}\n",
                s.name, s.mean_ms, s.iters
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"single_point_speedup\": {:.2},\n",
            self.single_point_speedup
        ));
        out.push_str(&format!(
            "  \"heatmap_31x31_speedup\": {:.2},\n",
            self.heatmap_31x31_speedup
        ));
        out.push_str(&format!(
            "  \"speedup_floor\": {SPEEDUP_FLOOR:.1},\n  \"pass\": {}\n}}\n",
            self.passes()
        ));
        out
    }

    /// One-line console summary.
    pub fn summary(&self) -> String {
        let mut out = String::from("== Batched-engine perf summary\n");
        for s in &self.samples {
            out.push_str(&format!("{:>38}: {:>10.3} ms/iter\n", s.name, s.mean_ms));
        }
        out.push_str(&format!(
            "{:>38}: {:>10.1} x\n{:>38}: {:>10.1} x (floor {SPEEDUP_FLOOR:.1}, pass: {})\n",
            "single-point speedup",
            self.single_point_speedup,
            "heatmap 31x31 speedup",
            self.heatmap_31x31_speedup,
            self.passes()
        ));
        out
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
        telemetry: null_block_json(),
    }
}

/// Minimum shared-plan-vs-naive speedup on the 32-device fleet grid
/// before [`FleetPerfReport::passes`] fails (the PR-3 acceptance bar).
const FLEET_SPEEDUP_FLOOR: f64 = 3.0;

/// Size of the reference fleet workload (the acceptance gate's mixed
/// Wi-Fi/BLE population).
const FLEET_SIZE: usize = 32;

/// Timing summary of the fleet-serving engine (`BENCH_PR3.json`).
#[derive(Clone, Debug)]
pub struct FleetPerfReport {
    /// Whether the run used the reduced quick-mode sample budget.
    pub quick: bool,
    /// Individual workload timings.
    pub samples: Vec<BenchSample>,
    /// Naive / shared-plan best-of-N time ratio on the 32-device fleet
    /// probe grid.
    pub fleet_32_speedup: f64,
    /// Aggregated telemetry block (single-line JSON object; the null
    /// block when no recorder was attached to the workloads).
    pub telemetry: String,
}

impl FleetPerfReport {
    /// True when the shared-plan engine clears the regression floor.
    pub fn passes(&self) -> bool {
        self.fleet_32_speedup >= FLEET_SPEEDUP_FLOOR
    }

    /// Renders the report as a JSON document (hand-assembled; no
    /// external dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"pr\": 3,\n");
        stamp_report(
            &mut out,
            &llama_core::faults::FaultPlan::none(),
            &self.telemetry,
        );
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!("  \"fleet_devices\": {FLEET_SIZE},\n"));
        out.push_str("  \"benches\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            let comma = if i + 1 < self.samples.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"mean_ms\": {:.6}, \"iters\": {}}}{comma}\n",
                s.name, s.mean_ms, s.iters
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"fleet_32_speedup\": {:.2},\n",
            self.fleet_32_speedup
        ));
        out.push_str(&format!(
            "  \"speedup_floor\": {FLEET_SPEEDUP_FLOOR:.1},\n  \"pass\": {}\n}}\n",
            self.passes()
        ));
        out
    }

    /// One-line console summary.
    pub fn summary(&self) -> String {
        let mut out = String::from("== Fleet-serving engine perf summary\n");
        for s in &self.samples {
            out.push_str(&format!("{:>38}: {:>10.3} ms/iter\n", s.name, s.mean_ms));
        }
        out.push_str(&format!(
            "{:>38}: {:>10.1} x (floor {FLEET_SPEEDUP_FLOOR:.1}, pass: {})\n",
            "fleet 32-device speedup",
            self.fleet_32_speedup,
            self.passes()
        ));
        out
    }
}

/// Times the 32-device mixed Wi-Fi/BLE fleet workloads: the shared-plan
/// batch path (one compiled plan per carrier, one cascade per probe,
/// precomputed scatter, threaded rows) against the naive per-device loop
/// (per-device surface, per-probe link rebuild), plus end-to-end
/// scheduler runs for all three policies.
pub fn run_fleet(quick: bool) -> FleetPerfReport {
    let fleet = Fleet::mixed_wifi_ble(FLEET_SIZE, 2021);
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
    let (grid_iters, sched_iters) = if quick { (4, 2) } else { (10, 4) };
    let mut samples = Vec::new();

    let (naive_mean, naive_min) = time_ms(grid_iters, || fleet.naive_powers_matrix(&biases));
    samples.push(BenchSample {
        name: "fleet_32_probe_grid_naive",
        mean_ms: naive_mean,
        iters: grid_iters,
    });
    let (batched_mean, batched_min) = time_ms(grid_iters, || {
        // Cold cost included: the scheduler compiles the plans once per
        // run, so the timed region does too.
        FleetEvaluator::new(&fleet).powers_matrix(&biases)
    });
    samples.push(BenchSample {
        name: "fleet_32_probe_grid_shared_plan",
        mean_ms: batched_mean,
        iters: grid_iters,
    });

    let (max_min_ms, _) = time_ms(sched_iters, || Scheduler::max_min().run(&fleet));
    samples.push(BenchSample {
        name: "fleet_32_scheduler_max_min",
        mean_ms: max_min_ms,
        iters: sched_iters,
    });
    let (favor_ms, _) = time_ms(sched_iters, || Scheduler::favor(0).run(&fleet));
    samples.push(BenchSample {
        name: "fleet_32_scheduler_favor",
        mean_ms: favor_ms,
        iters: sched_iters,
    });
    let (tdm_ms, _) = time_ms(sched_iters, || Scheduler::time_division().run(&fleet));
    samples.push(BenchSample {
        name: "fleet_32_scheduler_time_division",
        mean_ms: tdm_ms,
        iters: sched_iters,
    });

    FleetPerfReport {
        quick,
        samples,
        fleet_32_speedup: naive_min / batched_min.max(1e-12),
        telemetry: null_block_json(),
    }
}

/// Minimum batched-vs-naive speedup on the 4-panel probe grids before
/// [`PanelPerfReport::passes`] fails (the PR-4 CI bar).
const PANEL_SPEEDUP_FLOOR: f64 = 2.0;

/// Panels in the reference array.
const PANEL_COUNT: usize = 4;

/// Concurrent fleets the server workload multiplexes.
const SERVER_FLEETS: usize = 8;

/// Timing summary of the panel-array engine and the many-fleet server
/// (`BENCH_PR4.json`).
#[derive(Clone, Debug)]
pub struct PanelPerfReport {
    /// Whether the run used the reduced quick-mode sample budget.
    pub quick: bool,
    /// Individual workload timings.
    pub samples: Vec<BenchSample>,
    /// Naive / batched best-of-N time ratio on the 4-panel probe grids
    /// (shared plan caches + per-panel batch path vs per-device loops).
    pub panel_grid_speedup: f64,
    /// Min-device power gain of the 4-panel scheduler over single-panel
    /// `MaxMin` on the 32-device mixed fleet, dB (the acceptance gate:
    /// must be strictly positive).
    pub panel_min_power_gain_db: f64,
    /// Serial / concurrent wall-clock ratio serving [`SERVER_FLEETS`]
    /// fleets through the [`FleetServer`] worker pool (informational —
    /// single-core CI runners cannot beat 1×).
    pub server_concurrency_speedup: f64,
    /// Worker threads the server bench ran with.
    pub server_workers: usize,
    /// Per-thread scaling efficiency: concurrency speedup divided by
    /// the effective parallelism (`min(workers, logical_cores)`), so a
    /// 2-worker run on a 1-core host reports ~1.0, not ~0.5.
    pub server_scaling_efficiency: f64,
    /// Mean stage-to-pop latency per job on the sharded queue, ms.
    pub server_mean_queue_wait_ms: f64,
    /// Median stage-to-pop latency, ms (the mean alone hides a starved
    /// tail; p50/p95 together expose it).
    pub server_queue_wait_p50_ms: f64,
    /// 95th-percentile stage-to-pop latency, ms.
    pub server_queue_wait_p95_ms: f64,
    /// Cross-shard steals during the stats run (load-imbalance signal).
    pub server_steals: usize,
    /// Aggregated telemetry block captured from the instrumented server
    /// stats pass (single-line JSON object).
    pub telemetry: String,
}

impl PanelPerfReport {
    /// True when the panel engine clears the regression floor *and* the
    /// panel array still strictly lifts the shared-bias min power.
    pub fn passes(&self) -> bool {
        self.panel_grid_speedup >= PANEL_SPEEDUP_FLOOR && self.panel_min_power_gain_db > 0.0
    }

    /// Renders the report as a JSON document (hand-assembled; no
    /// external dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"pr\": 4,\n");
        stamp_report(
            &mut out,
            &llama_core::faults::FaultPlan::none(),
            &self.telemetry,
        );
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!("  \"panels\": {PANEL_COUNT},\n"));
        out.push_str(&format!("  \"fleet_devices\": {FLEET_SIZE},\n"));
        out.push_str(&format!("  \"server_fleets\": {SERVER_FLEETS},\n"));
        out.push_str("  \"benches\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            let comma = if i + 1 < self.samples.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"mean_ms\": {:.6}, \"iters\": {}}}{comma}\n",
                s.name, s.mean_ms, s.iters
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"panel_grid_speedup\": {:.2},\n",
            self.panel_grid_speedup
        ));
        out.push_str(&format!(
            "  \"panel_min_power_gain_db\": {:.3},\n",
            self.panel_min_power_gain_db
        ));
        out.push_str(&format!(
            "  \"server_concurrency_speedup\": {:.2},\n",
            self.server_concurrency_speedup
        ));
        out.push_str(&format!("  \"server_workers\": {},\n", self.server_workers));
        out.push_str(&format!(
            "  \"server_scaling_efficiency\": {:.2},\n",
            self.server_scaling_efficiency
        ));
        out.push_str(&format!(
            "  \"server_mean_queue_wait_ms\": {:.4},\n",
            self.server_mean_queue_wait_ms
        ));
        out.push_str(&format!(
            "  \"server_queue_wait_p50_ms\": {:.4},\n",
            self.server_queue_wait_p50_ms
        ));
        out.push_str(&format!(
            "  \"server_queue_wait_p95_ms\": {:.4},\n",
            self.server_queue_wait_p95_ms
        ));
        out.push_str(&format!("  \"server_steals\": {},\n", self.server_steals));
        out.push_str(&format!(
            "  \"speedup_floor\": {PANEL_SPEEDUP_FLOOR:.1},\n  \"pass\": {}\n}}\n",
            self.passes()
        ));
        out
    }

    /// One-line console summary.
    pub fn summary(&self) -> String {
        let mut out = String::from("== Panel-array / many-fleet server perf summary\n");
        for s in &self.samples {
            out.push_str(&format!("{:>38}: {:>10.3} ms/iter\n", s.name, s.mean_ms));
        }
        out.push_str(&format!(
            "{:>38}: {:>10.1} x (floor {PANEL_SPEEDUP_FLOOR:.1})\n",
            "4-panel grid speedup", self.panel_grid_speedup
        ));
        out.push_str(&format!(
            "{:>38}: {:>10.2} dB (must be > 0)\n",
            "panel min-power gain vs shared", self.panel_min_power_gain_db
        ));
        out.push_str(&format!(
            "{:>38}: {:>10.1} x over {} workers (efficiency {:.2})\n",
            "8-fleet server concurrency",
            self.server_concurrency_speedup,
            self.server_workers,
            self.server_scaling_efficiency
        ));
        out.push_str(&format!(
            "{:>38}: {:>10.4} ms (p50 {:.4}, p95 {:.4}, {} steals, pass: {})\n",
            "mean queue wait",
            self.server_mean_queue_wait_ms,
            self.server_queue_wait_p50_ms,
            self.server_queue_wait_p95_ms,
            self.server_steals,
            self.passes()
        ));
        out
    }
}

/// Times the 4-panel, 32-device workloads: per-panel probe grids on the
/// shared-plan batch path (one [`metasurface::PlanCache`] across the
/// array) against the naive per-device loops, the end-to-end panel
/// scheduler against single-panel `MaxMin` (recording the min-power
/// gain the panels buy), and the [`FleetServer`] multiplexing
/// [`SERVER_FLEETS`] fleets against serial execution.
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

    let (naive_mean, naive_min) = time_ms(grid_iters, || {
        array.naive_panel_matrices(&fleet, &assignment, &biases)
    });
    samples.push(BenchSample {
        name: "panel_4x32_probe_grid_naive",
        mean_ms: naive_mean,
        iters: grid_iters,
    });
    let (batched_mean, batched_min) = time_ms(grid_iters, || {
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
    // bounded-queue worker pool vs a serial loop.
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
    let workers = rfmath::par::available_threads().min(SERVER_FLEETS);
    let server = FleetServer::new(workers);
    let (served_mean, served_min) =
        time_ms(serve_iters, || serve_fleets(&server, &scheduler, &fleets));
    samples.push(BenchSample {
        name: "server_8_fleets_concurrent",
        mean_ms: served_mean,
        iters: serve_iters,
    });
    // One instrumented pass for the queue telemetry (wait time, steals):
    // the timed loops above stay stats-free so the measurement is pure.
    // The ring recorder rides along here — same pass, zero cost to the
    // timed regions — and its aggregate is stamped into the artifact.
    let ring = Arc::new(RingRecorder::default());
    let recorder = RecorderHandle::new(ring);
    let server = server.with_recorder(recorder.clone());
    let (_, stats) = server.try_serve_with_stats(fleets.iter().collect(), |_, fleet: &Fleet| {
        scheduler.run(fleet)
    });
    let logical_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let speedup = serial_min / served_min.max(1e-12);

    PanelPerfReport {
        quick,
        samples,
        panel_grid_speedup: naive_min / batched_min.max(1e-12),
        panel_min_power_gain_db,
        server_concurrency_speedup: speedup,
        server_workers: workers,
        server_scaling_efficiency: speedup / workers.min(logical_cores).max(1) as f64,
        server_mean_queue_wait_ms: stats.mean_queue_wait.0 * 1e3,
        server_queue_wait_p50_ms: stats.queue_wait_p50.0 * 1e3,
        server_queue_wait_p95_ms: stats.queue_wait_p95.0 * 1e3,
        server_steals: stats.steals,
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
    /// re-search) run, ms.
    pub cold_wall_ms: f64,
    /// Total controller wall-clock of the warm (incremental) run, ms.
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

    /// True when the warm engine clears the wall-clock speedup floor,
    /// spends at most half the cold probe bill (a deterministic,
    /// noise-free gate on the same regression), and the zero-motion
    /// equivalence held exactly.
    pub fn passes(&self) -> bool {
        self.warm_speedup >= self.floor()
            && self.warm_probes * 2 <= self.cold_probes
            && self.zero_motion_equivalent
    }

    /// Renders the report as a JSON document (hand-assembled; no
    /// external dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"pr\": 5,\n");
        stamp_report(
            &mut out,
            &llama_core::faults::FaultPlan::none(),
            &self.telemetry,
        );
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!("  \"fleet_devices\": {},\n", self.devices));
        out.push_str(&format!("  \"ticks\": {},\n", self.ticks));
        out.push_str(&format!("  \"panels\": {},\n", self.panels));
        out.push_str(&format!("  \"cold_wall_ms\": {:.3},\n", self.cold_wall_ms));
        out.push_str(&format!("  \"warm_wall_ms\": {:.3},\n", self.warm_wall_ms));
        out.push_str(&format!("  \"warm_speedup\": {:.2},\n", self.warm_speedup));
        out.push_str(&format!("  \"cold_probes\": {},\n", self.cold_probes));
        out.push_str(&format!("  \"warm_probes\": {},\n", self.warm_probes));
        out.push_str(&format!(
            "  \"cold_mean_duty\": {:.4},\n",
            self.cold_mean_duty
        ));
        out.push_str(&format!(
            "  \"warm_mean_duty\": {:.4},\n",
            self.warm_mean_duty
        ));
        out.push_str(&format!("  \"warm_handoffs\": {},\n", self.warm_handoffs));
        out.push_str(&format!(
            "  \"zero_motion_equivalent\": {},\n",
            self.zero_motion_equivalent
        ));
        out.push_str("  \"hysteresis_curve\": [\n");
        for (i, p) in self.hysteresis_curve.iter().enumerate() {
            let comma = if i + 1 < self.hysteresis_curve.len() {
                ","
            } else {
                ""
            };
            out.push_str(&format!(
                "    {{\"hysteresis_db\": {:.1}, \"dwell_ticks\": {}, \"handoffs\": {}, \
                 \"mean_min_power_dbm\": {:.3}, \"mean_duty\": {:.4}}}{comma}\n",
                p.hysteresis_db, p.dwell_ticks, p.handoffs, p.mean_min_power_dbm, p.mean_duty
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"speedup_floor\": {:.1},\n  \"pass\": {}\n}}\n",
            self.floor(),
            self.passes()
        ));
        out
    }

    /// Console summary.
    pub fn summary(&self) -> String {
        let mut out = String::from("== Mobility simulator perf summary\n");
        out.push_str(&format!(
            "{:>38}: {} devices x {} ticks on {} panels\n",
            "workload", self.devices, self.ticks, self.panels
        ));
        out.push_str(&format!(
            "{:>38}: {:>10.3} ms total ({:.3} ms/tick)\n",
            "cold per-tick re-search",
            self.cold_wall_ms,
            self.cold_wall_ms / self.ticks as f64
        ));
        out.push_str(&format!(
            "{:>38}: {:>10.3} ms total ({:.3} ms/tick)\n",
            "warm incremental engine",
            self.warm_wall_ms,
            self.warm_wall_ms / self.ticks as f64
        ));
        out.push_str(&format!(
            "{:>38}: {:>10.1} x (floor {:.1})\n",
            "warm-start speedup",
            self.warm_speedup,
            self.floor()
        ));
        out.push_str(&format!(
            "{:>38}: {} vs {} (duty {:.2} vs {:.2})\n",
            "warm vs cold probes",
            self.warm_probes,
            self.cold_probes,
            self.warm_mean_duty,
            self.cold_mean_duty
        ));
        out.push_str(&format!(
            "{:>38}: {}\n",
            "zero-motion equivalence", self.zero_motion_equivalent
        ));
        for p in &self.hysteresis_curve {
            out.push_str(&format!(
                "{:>38}: {:>3} handoffs, min power {:.2} dBm, duty {:.2}\n",
                format!(
                    "hysteresis {:.0} dB / dwell {}",
                    p.hysteresis_db, p.dwell_ticks
                ),
                p.handoffs,
                p.mean_min_power_dbm,
                p.mean_duty
            ));
        }
        out.push_str(&format!("{:>38}: {}\n", "pass", self.passes()));
        out
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
    let mut roaming = DynamicFleet::roaming_mixed(devices, seed, duration);
    let cold =
        MobilitySim::new(scheduler.clone(), SimConfig::cold()).run(&mut roaming, &array, ticks);
    let mut roaming = DynamicFleet::roaming_mixed(devices, seed, duration);
    let warm =
        MobilitySim::new(scheduler.clone(), SimConfig::default()).run(&mut roaming, &array, ticks);

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
        cold_wall_ms: cold.wall_ms,
        warm_wall_ms: warm.wall_ms,
        warm_speedup: cold.wall_ms / warm.wall_ms.max(1e-9),
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

/// Minimum SoA-vs-reference speedup on the single-thread probe-grid
/// batch before [`ShardedPerfReport::passes`] fails (the PR-8 bar).
const SOA_PROBE_GRID_FLOOR: f64 = 1.5;

/// Minimum optimized-vs-churn-baseline speedup on the single-thread
/// warm mobility tick (arena rebinds + SoA batch vs allocating rebinds
/// + reference AoS batch).
const MOBILITY_TICK_FLOOR: f64 = 1.3;

/// Minimum per-thread scaling efficiency at the largest measured worker
/// count on multi-core hosts (near-linear: ≥ 60% of ideal). Single-core
/// hosts skip the scaling smoke but stamp the skip into the artifact.
const SCALING_EFFICIENCY_FLOOR: f64 = 0.6;

/// One point of the fleet-throughput thread-scaling sweep.
#[derive(Clone, Copy, Debug)]
pub struct ThreadScalingPoint {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Shard deques jobs were hashed across.
    pub shards: usize,
    /// Best-of-N wall-clock for the serve, ms.
    pub min_ms: f64,
    /// Serial / concurrent best-of-N ratio at this worker count.
    pub speedup: f64,
    /// Speedup divided by the effective parallelism
    /// (`min(workers, logical_cores)`).
    pub efficiency: f64,
    /// Cross-shard steals during the instrumented pass.
    pub steals: usize,
    /// Mean stage-to-pop queue wait per job, ms.
    pub mean_queue_wait_ms: f64,
}

/// Timing summary of the PR-8 sharded serving stack
/// (`BENCH_PR8.json`): SoA batch kernel vs the reference AoS path,
/// allocation-free warm ticks vs the churn baseline, and fleet
/// throughput across worker/shard counts.
#[derive(Clone, Debug)]
pub struct ShardedPerfReport {
    /// Whether the run used the reduced quick-mode sample budget.
    pub quick: bool,
    /// Logical cores the host exposed (scaling context).
    pub logical_cores: usize,
    /// Individual workload timings.
    pub samples: Vec<BenchSample>,
    /// Reference / SoA best-of-N time ratio on the probe-grid batch
    /// (identical inputs, bit-identical outputs).
    pub probe_grid_speedup: f64,
    /// Churn-baseline / optimized best-of-N wall-clock ratio on the
    /// warm mobility run (per-tick controller cost).
    pub mobility_tick_speedup: f64,
    /// Whether the optimized and churn-baseline runs produced
    /// bit-identical allocations on every tick (they must: the fast
    /// paths are value-preserving).
    pub churn_bit_identical: bool,
    /// Whether the thread-scaling smoke was skipped (single-core host:
    /// a worker pool cannot beat serial with one core).
    pub thread_scaling_skipped: bool,
    /// Fleet-throughput scaling across worker counts (empty when
    /// skipped).
    pub thread_scaling: Vec<ThreadScalingPoint>,
    /// Steady-state hot-kernel allocations per tick (debug-assert
    /// builds; `None` in release).
    pub allocs_per_tick: Option<f64>,
    /// Aggregated telemetry block captured from the instrumented
    /// thread-scaling stats passes (single-line JSON object; an empty
    /// ring on single-core hosts where scaling is skipped).
    pub telemetry: String,
}

impl ShardedPerfReport {
    /// True when the SoA kernel and the de-churned tick clear their
    /// floors, the A/B runs stayed bit-identical, and (on multi-core
    /// hosts) fleet throughput scaled near-linearly.
    pub fn passes(&self) -> bool {
        let scaling_ok = self.thread_scaling_skipped
            || self
                .thread_scaling
                .last()
                .is_some_and(|p| p.efficiency >= SCALING_EFFICIENCY_FLOOR);
        self.probe_grid_speedup >= SOA_PROBE_GRID_FLOOR
            && self.mobility_tick_speedup >= MOBILITY_TICK_FLOOR
            && self.churn_bit_identical
            && scaling_ok
    }

    /// Renders the report as a JSON document (hand-assembled; no
    /// external dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"pr\": 8,\n");
        stamp_report(
            &mut out,
            &llama_core::faults::FaultPlan::none(),
            &self.telemetry,
        );
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str("  \"benches\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            let comma = if i + 1 < self.samples.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"mean_ms\": {:.6}, \"iters\": {}}}{comma}\n",
                s.name, s.mean_ms, s.iters
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"probe_grid_speedup\": {:.2},\n",
            self.probe_grid_speedup
        ));
        out.push_str(&format!(
            "  \"mobility_tick_speedup\": {:.2},\n",
            self.mobility_tick_speedup
        ));
        out.push_str(&format!(
            "  \"churn_bit_identical\": {},\n",
            self.churn_bit_identical
        ));
        out.push_str(&format!(
            "  \"thread_scaling_skipped\": {},\n",
            self.thread_scaling_skipped
        ));
        out.push_str("  \"thread_scaling\": [\n");
        for (i, p) in self.thread_scaling.iter().enumerate() {
            let comma = if i + 1 < self.thread_scaling.len() {
                ","
            } else {
                ""
            };
            out.push_str(&format!(
                "    {{\"workers\": {}, \"shards\": {}, \"min_ms\": {:.4}, \
                 \"speedup\": {:.2}, \"efficiency\": {:.2}, \"steals\": {}, \
                 \"mean_queue_wait_ms\": {:.4}}}{comma}\n",
                p.workers,
                p.shards,
                p.min_ms,
                p.speedup,
                p.efficiency,
                p.steals,
                p.mean_queue_wait_ms
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"probe_grid_floor\": {SOA_PROBE_GRID_FLOOR:.1},\n\
             \x20 \"mobility_tick_floor\": {MOBILITY_TICK_FLOOR:.1},\n\
             \x20 \"scaling_efficiency_floor\": {SCALING_EFFICIENCY_FLOOR:.1},\n\
             \x20 \"pass\": {}\n}}\n",
            self.passes()
        ));
        out
    }

    /// Console summary.
    pub fn summary(&self) -> String {
        let mut out = String::from("== Sharded serving / hot-loop perf summary\n");
        for s in &self.samples {
            out.push_str(&format!("{:>38}: {:>10.3} ms/iter\n", s.name, s.mean_ms));
        }
        out.push_str(&format!(
            "{:>38}: {:>10.1} x (floor {SOA_PROBE_GRID_FLOOR:.1})\n",
            "SoA probe-grid speedup", self.probe_grid_speedup
        ));
        out.push_str(&format!(
            "{:>38}: {:>10.1} x (floor {MOBILITY_TICK_FLOOR:.1}, bit-identical: {})\n",
            "mobility-tick de-churn speedup", self.mobility_tick_speedup, self.churn_bit_identical
        ));
        if self.thread_scaling_skipped {
            out.push_str(&format!(
                "{:>38}: skipped ({} logical core)\n",
                "thread scaling", self.logical_cores
            ));
        } else {
            for p in &self.thread_scaling {
                out.push_str(&format!(
                    "{:>38}: {:>10.1} x (efficiency {:.2}, {} steals, wait {:.4} ms)\n",
                    format!("{} workers / {} shards", p.workers, p.shards),
                    p.speedup,
                    p.efficiency,
                    p.steals,
                    p.mean_queue_wait_ms
                ));
            }
        }
        match self.allocs_per_tick {
            Some(v) => out.push_str(&format!("{:>38}: {:>10.2}\n", "allocs per tick", v)),
            None => out.push_str(&format!(
                "{:>38}: {:>10}\n",
                "allocs per tick", "n/a (release)"
            )),
        }
        out.push_str(&format!("{:>38}: {}\n", "pass", self.passes()));
        out
    }
}

/// Times the PR-8 fast paths against their honest baselines, all on
/// identical inputs:
///
/// * **probe grid** — [`StackEvaluator::eval_batch`] (the SoA slab
///   kernel) vs [`StackEvaluator::eval_batch_reference`] (the per-cell
///   AoS fold) on one compiled plan and a large distinct-bias batch;
/// * **mobility tick** — the warm engine with arena rebinds + SoA
///   batches vs the same engine under
///   [`SimConfig::with_churn_baseline`] (allocating rebinds, reference
///   batch kernel), same seed, bit-identical outcomes;
/// * **thread scaling** — [`serve_fleets`] throughput across worker
///   counts on the sharded work-stealing queue, with an instrumented
///   pass recording steals and queue wait (skipped-but-stamped on
///   single-core hosts).
pub fn run_sharded(quick: bool) -> ShardedPerfReport {
    let mut samples = Vec::new();
    let logical_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // SoA vs reference batch on one compiled plan. The 24×24 distinct
    // grid mirrors the dedup shape of a real probe sweep; both paths
    // share the per-axis memos, so the comparison isolates the kernel.
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
    let (ref_mean, ref_min) = time_ms(batch_iters, || plan.eval_batch_reference(&biases));
    samples.push(BenchSample {
        name: "probe_grid_576_batch_reference",
        mean_ms: ref_mean,
        iters: batch_iters,
    });
    let (soa_mean, soa_min) = time_ms(batch_iters, || plan.eval_batch(&biases));
    samples.push(BenchSample {
        name: "probe_grid_576_batch_soa",
        mean_ms: soa_mean,
        iters: batch_iters,
    });

    // Warm mobility: optimized hot loops vs the churn baseline, same
    // seeded trajectory, outcomes compared bit for bit.
    let (devices, ticks, panels) = if quick { (12, 16, 3) } else { (24, 32, 3) };
    let seed = 2021u64;
    let duration = Seconds(ticks as f64);
    let sim_design = Fleet::mixed_wifi_ble(1, seed).design.clone();
    let array = PanelArray::distributed(sim_design, panels);
    let scheduler = PanelScheduler::max_min();
    // Best-of-N wall clock per arm (the runs are deterministic apart
    // from timing, so the min is the honest noise-free comparison —
    // a single quick run is only ~2 ms and flakes on loaded hosts).
    let sim_reps = if quick { 5 } else { 3 };
    let run_arm = |churn_baseline: bool| {
        let mut best: Option<llama_core::sim::SimReport> = None;
        for _ in 0..sim_reps {
            let mut roaming = DynamicFleet::roaming_mixed(devices, seed, duration);
            let report = MobilitySim::new(
                scheduler.clone(),
                SimConfig::default().with_churn_baseline(churn_baseline),
            )
            .run(&mut roaming, &array, ticks);
            best = Some(match best {
                Some(prev) if prev.wall_ms <= report.wall_ms => prev,
                _ => report,
            });
        }
        best.expect("at least one rep")
    };
    let churn = run_arm(true);
    let optimized = run_arm(false);
    let churn_bit_identical = churn
        .ticks
        .iter()
        .zip(&optimized.ticks)
        .all(|(a, b)| a.outcome.same_allocation(&b.outcome));
    samples.push(BenchSample {
        name: "mobility_tick_churn_baseline",
        mean_ms: churn.wall_ms / ticks as f64,
        iters: ticks as u64,
    });
    samples.push(BenchSample {
        name: "mobility_tick_optimized",
        mean_ms: optimized.wall_ms / ticks as f64,
        iters: ticks as u64,
    });

    // Fleet-throughput thread scaling over the sharded queue. One ring
    // recorder rides every instrumented stats pass (never the timed
    // loops); its aggregate lands in the artifact's telemetry block.
    let ring_recorder = RecorderHandle::new(Arc::new(RingRecorder::default()));
    let thread_scaling_skipped = logical_cores <= 1;
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
                shards: server.shards,
                min_ms,
                speedup,
                efficiency: speedup / workers.min(logical_cores).max(1) as f64,
                steals: stats.steals,
                mean_queue_wait_ms: stats.mean_queue_wait.0 * 1e3,
            });
        }
    }

    ShardedPerfReport {
        quick,
        logical_cores,
        samples,
        probe_grid_speedup: ref_min / soa_min.max(1e-12),
        mobility_tick_speedup: churn.wall_ms / optimized.wall_ms.max(1e-9),
        churn_bit_identical,
        thread_scaling_skipped,
        thread_scaling,
        allocs_per_tick: allocs_per_tick(),
        telemetry: ring_recorder.aggregate_json(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_report_serializes_and_gates_on_both_axes() {
        let report = PanelPerfReport {
            quick: true,
            samples: vec![BenchSample {
                name: "z",
                mean_ms: 1.0,
                iters: 2,
            }],
            panel_grid_speedup: 3.0,
            panel_min_power_gain_db: 2.5,
            server_concurrency_speedup: 1.8,
            server_workers: 2,
            server_scaling_efficiency: 0.9,
            server_mean_queue_wait_ms: 0.05,
            server_queue_wait_p50_ms: 0.04,
            server_queue_wait_p95_ms: 0.09,
            server_steals: 1,
            telemetry: null_block_json(),
        };
        let json = report.to_json();
        assert!(json.contains("\"pr\": 4"));
        assert!(json.contains("\"telemetry\""));
        assert!(json.contains("\"mode\": \"null\""));
        // Every artifact records the machine it was measured on, and
        // the steady-state allocation stamp sits right next to it.
        assert!(json.contains("\"machine\""));
        assert!(json.contains("\"logical_cores\""));
        assert!(json.contains("\"threads_used\""));
        assert!(json.contains("\"allocs_per_tick\""));
        assert!(json.contains("\"server_scaling_efficiency\": 0.90"));
        assert!(json.contains("\"server_mean_queue_wait_ms\": 0.0500"));
        assert!(json.contains("\"server_queue_wait_p50_ms\": 0.0400"));
        assert!(json.contains("\"server_queue_wait_p95_ms\": 0.0900"));
        assert!(json.contains("\"server_steals\": 1"));
        assert!(json.contains("\"panel_grid_speedup\": 3.00"));
        assert!(json.contains("\"panel_min_power_gain_db\": 2.500"));
        assert!(json.contains("\"pass\": true"));
        assert!(report.passes());
        // Either axis failing fails the smoke: a fast-but-worse panel
        // path is as much a regression as a slow one.
        let slow = PanelPerfReport {
            panel_grid_speedup: 1.5,
            ..report.clone()
        };
        assert!(!slow.passes());
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
        let json = report.to_json();
        assert!(json.contains("\"pr\": 5"));
        assert!(json.contains("\"warm_speedup\": 4.50"));
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
    fn fleet_report_serializes_and_summarizes() {
        let report = FleetPerfReport {
            quick: true,
            samples: vec![BenchSample {
                name: "y",
                mean_ms: 2.5,
                iters: 2,
            }],
            fleet_32_speedup: 4.5,
            telemetry: null_block_json(),
        };
        let json = report.to_json();
        assert!(json.contains("\"pr\": 3"));
        assert!(json.contains("\"fleet_32_speedup\": 4.50"));
        assert!(json.contains("\"pass\": true"));
        assert!(report.passes());
        assert!(report.summary().contains("fleet 32-device speedup"));
        let failing = FleetPerfReport {
            fleet_32_speedup: 2.0,
            ..report
        };
        assert!(!failing.passes());
    }

    #[test]
    fn sharded_report_serializes_and_gates_on_every_axis() {
        let report = ShardedPerfReport {
            quick: true,
            logical_cores: 4,
            samples: vec![BenchSample {
                name: "s",
                mean_ms: 1.0,
                iters: 2,
            }],
            probe_grid_speedup: 2.1,
            mobility_tick_speedup: 1.6,
            churn_bit_identical: true,
            thread_scaling_skipped: false,
            thread_scaling: vec![ThreadScalingPoint {
                workers: 4,
                shards: 4,
                min_ms: 2.0,
                speedup: 3.2,
                efficiency: 0.8,
                steals: 2,
                mean_queue_wait_ms: 0.01,
            }],
            allocs_per_tick: Some(0.0),
            telemetry: null_block_json(),
        };
        let json = report.to_json();
        assert!(json.contains("\"pr\": 8"));
        assert!(json.contains("\"probe_grid_speedup\": 2.10"));
        assert!(json.contains("\"mobility_tick_speedup\": 1.60"));
        assert!(json.contains("\"thread_scaling_skipped\": false"));
        assert!(json.contains("\"workers\": 4"));
        assert!(json.contains("\"pass\": true"));
        assert!(report.passes());
        // Each gate fails the smoke on its own.
        let slow_soa = ShardedPerfReport {
            probe_grid_speedup: 1.2,
            ..report.clone()
        };
        assert!(!slow_soa.passes());
        let slow_tick = ShardedPerfReport {
            mobility_tick_speedup: 1.1,
            ..report.clone()
        };
        assert!(!slow_tick.passes());
        let drifted = ShardedPerfReport {
            churn_bit_identical: false,
            ..report.clone()
        };
        assert!(!drifted.passes());
        let sublinear = ShardedPerfReport {
            thread_scaling: vec![ThreadScalingPoint {
                efficiency: 0.3,
                ..report.thread_scaling[0]
            }],
            ..report.clone()
        };
        assert!(!sublinear.passes());
        // A single-core host skips the scaling gate but stamps the skip.
        let single_core = ShardedPerfReport {
            thread_scaling_skipped: true,
            thread_scaling: Vec::new(),
            ..report
        };
        assert!(single_core.passes());
        assert!(single_core
            .to_json()
            .contains("\"thread_scaling_skipped\": true"));
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
            telemetry: null_block_json(),
        };
        let json = report.to_json();
        assert!(json.contains("\"heatmap_31x31_speedup\": 6.00"));
        assert!(json.contains("\"pass\": true"));
        assert!(report.passes());
        assert!(report.summary().contains("heatmap 31x31 speedup"));
    }
}
