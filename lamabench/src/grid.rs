//! `bias-grid`: standalone batch kernels from a single caller. One op is
//! one grid cycle: a 31×31 `LlamaSystem::power_heatmap` on the
//! transmissive default scenario, the same on the reflective default
//! (the Figure 15/21 workload), and a time-division schedule of a
//! 64-device mixed fleet. Seeds vary per cycle over a fixed input cycle
//! derived from the run seed.

use std::time::Instant;

use llama_core::{Fleet, FleetEvaluator, FleetOutcome, LlamaSystem, Policy, Scenario, Scheduler};
use metasurface::{PlanCache, StackEvaluator, SurfaceResponse};
use rfmath::rng::SeedSplitter;

use crate::common::{
    cold_probe_budget, digest_of, mean, ms_since, powers_finite, replay_time_division, Digest,
    EndToEnd, RunConfig, Timeline, WorkloadRun,
};
use crate::host::HostProbe;
use crate::report::{ratio, Metric};

/// Distinct cycle inputs.
const INPUTS: usize = 16;
const STEPS: usize = 31;
const TD_DEVICES: usize = 64;

struct Input {
    heatmaps: [LlamaSystem; 2],
    fleet: Fleet,
}

fn setup(seed: u64) -> Vec<Input> {
    let split = SeedSplitter::new(seed).child("bias-grid");
    (0..INPUTS as u64)
        .map(|c| {
            let s = split.derive("cycle", c);
            Input {
                heatmaps: [
                    LlamaSystem::new(Scenario::transmissive_default().with_seed(s)),
                    LlamaSystem::new(Scenario::reflective_default().with_seed(s)),
                ],
                fleet: Fleet::mixed_wifi_ble(TD_DEVICES, s),
            }
        })
        .collect()
}

/// One cycle's outputs.
struct Cycle {
    heatmaps: [Vec<f64>; 2],
    schedule: FleetOutcome,
}

fn plain_cycle(input: &mut Input) -> Cycle {
    let [a, b] = &mut input.heatmaps;
    Cycle {
        heatmaps: [a.power_heatmap(STEPS).1, b.power_heatmap(STEPS).1],
        schedule: Scheduler::time_division().run(&input.fleet),
    }
}

fn cycle_ok(cycle: &Cycle) -> bool {
    let budget = cold_probe_budget(
        &Scheduler::time_division().sweep,
        Policy::TimeDivision,
        TD_DEVICES,
    );
    cycle.heatmaps.iter().flatten().all(|p| p.is_finite())
        && powers_finite(&cycle.schedule)
        && cycle.schedule.per_device.len() == TD_DEVICES
        && cycle.schedule.probes <= budget
}

fn digest_cycle(d: &mut Digest, cycle: &Cycle) {
    for &p in cycle.heatmaps.iter().flatten() {
        d.f64(p);
    }
    d.fleet_outcome(&cycle.schedule);
}

pub fn run(cfg: &RunConfig) -> WorkloadRun {
    // Made first, so its buffer is resident for every peak (see
    // `Timeline::start`).
    let probe = HostProbe::new();
    let mut inputs = setup(cfg.seed);
    let mut run = WorkloadRun::default();

    // Reference pass (untimed): guards, digest and counts. Only those
    // are kept, not the cycles.
    let mut digest = Digest::default();
    let (mut min_power_dbm, mut duty) = (Vec::new(), Vec::new());
    for input in &mut inputs {
        let cycle = plain_cycle(input);
        run.attempted += 1;
        run.failed += usize::from(!cycle_ok(&cycle));
        digest_cycle(&mut digest, &cycle);
        min_power_dbm.push(cycle.schedule.min_power_dbm());
        duty.extend(cycle.schedule.per_device.iter().map(|d| d.duty));
    }
    run.digest = digest.finish();

    if cfg.trace {
        // The heatmap's nominal voltage axis, as `power_heatmap` returns it.
        let axis = inputs[0].heatmaps[0].power_heatmap(STEPS).0;
        run.per_layer = traced_loop(cfg, &axis, &mut inputs, &mut run);
        return run;
    }

    let mut timeline = Timeline::start(cfg, probe);
    let mut j = 0usize;
    while timeline.running() {
        if timeline.enter_window() {
            // Released before its rebuild is timed: one copy resident.
            drop(inputs);
            inputs = timeline.time_setup(|| setup(cfg.seed));
        }
        let started = Instant::now();
        let cycle = plain_cycle(&mut inputs[j % INPUTS]);
        let wall_ms = ms_since(started);
        timeline.record(wall_ms / 1e3, [wall_ms]);
        run.attempted += 1;
        run.failed += usize::from(!cycle_ok(&cycle));
        j += 1;
    }
    run.host_load = Some(timeline.host_load());
    run.end_to_end = EndToEnd {
        timeline: &timeline,
        served_min_power_dbm: mean(&min_power_dbm),
        serving_duty: mean(&duty),
        reference_ops: INPUTS,
    }
    .metrics();
    run
}

/// Wall per layer of one traced cycle, ms.
#[derive(Default)]
struct Layers {
    compile: f64,
    compiles: usize,
    eval_grid: f64,
    projection: f64,
    evaluator_build: f64,
    td_schedule: f64,
}

/// `LlamaSystem::power_heatmap`, made of the same public calls with each
/// layer timed: plan compilation, the separable grid kernel, and the
/// per-cell link projection. `axis` is the heatmap's nominal voltage
/// axis; like `power_heatmap`, it is evaluated clamped to the supply.
fn traced_heatmap(system: &LlamaSystem, axis: &[f64], layers: &mut Layers) -> Vec<f64> {
    let applied: Vec<f64> = axis
        .iter()
        .map(|v| v.clamp(0.0, system.surface.v_max.0))
        .collect();
    let f = system.scenario.frequency;
    let started = Instant::now();
    let evaluator = StackEvaluator::new(&system.surface.design().stack, f);
    layers.compile += ms_since(started);
    layers.compiles += 1;
    let started = Instant::now();
    let cells = evaluator.eval_grid(&applied, &applied);
    layers.eval_grid += ms_since(started);
    let started = Instant::now();
    let link = system.scenario.link();
    let powers = cells
        .into_iter()
        .map(|r| link.received_dbm_with(Some(&SurfaceResponse::new(f, r))).0)
        .collect();
    layers.projection += ms_since(started);
    powers
}

fn traced_cycle(input: &Input, axis: &[f64], layers: &mut Layers) -> Cycle {
    let heatmaps = [
        traced_heatmap(&input.heatmaps[0], axis, layers),
        traced_heatmap(&input.heatmaps[1], axis, layers),
    ];
    let started = Instant::now();
    let evaluator = FleetEvaluator::new(&input.fleet);
    layers.evaluator_build += ms_since(started);
    layers.compiles += evaluator.plan_count();
    let started = Instant::now();
    let schedule = Scheduler::time_division().run_with_evaluator(&input.fleet, &evaluator);
    layers.td_schedule += ms_since(started);
    Cycle { heatmaps, schedule }
}

/// The per-layer run: every input runs twice, once through the public
/// entry points and once decomposed into timed layer calls (alternating
/// which goes first). The decomposed cycle must reproduce the plain one
/// bit for bit; the batch kernels inside the schedule are replayed in
/// isolation afterwards.
fn traced_loop(
    cfg: &RunConfig,
    axis: &[f64],
    inputs: &mut [Input],
    run: &mut WorkloadRun,
) -> Vec<Metric> {
    let grid = Scheduler::time_division().sweep.steps_per_axis.pow(2);
    let mut layers = Layers::default();
    let (mut traced_ms, mut plain_ms) = (0.0f64, 0.0f64);
    let (mut matrix_ms, mut batch_ms) = (0.0f64, 0.0f64);
    let mut cycles = 0usize;
    let deadline = cfg.deadline();
    let mut j = 0usize;
    while Instant::now() < deadline || cycles == 0 {
        let input = &mut inputs[j % INPUTS];
        let mut digests = [0u64; 2];
        for arm in 0..2 {
            let traced = (arm + j) % 2 == 0;
            let started = Instant::now();
            let cycle = if traced {
                traced_cycle(input, axis, &mut layers)
            } else {
                plain_cycle(input)
            };
            let wall = ms_since(started);
            run.attempted += 1;
            run.failed += usize::from(!cycle_ok(&cycle));
            digests[usize::from(traced)] = digest_of(|d| digest_cycle(d, &cycle));
            if traced {
                traced_ms += wall;
                cycles += 1;
                let cache = PlanCache::new(&input.fleet.design.stack);
                let (m, b) = replay_time_division(&input.fleet, &cycle.schedule, &cache, grid);
                matrix_ms += m;
                batch_ms += b;
            } else {
                plain_ms += wall;
            }
        }
        // The decomposition must not change a bit of the output.
        run.failed += usize::from(digests[0] != digests[1]);
        j += 1;
    }

    let per_cycle = |ms: f64| ms / cycles as f64;
    let top = layers.compile
        + layers.eval_grid
        + layers.projection
        + layers.evaluator_build
        + layers.td_schedule;
    vec![
        Metric::new(
            "metasurface.plans_compiled",
            "count",
            per_cycle(layers.compiles as f64),
            cycles,
        ),
        Metric::new(
            "metasurface.plan_compile_ms",
            "ms",
            ratio(layers.compile, (2 * cycles) as f64),
            2 * cycles,
        ),
        Metric::new(
            "metasurface.eval_grid_ms",
            "ms",
            per_cycle(layers.eval_grid),
            cycles,
        ),
        Metric::new(
            "propagation.projection_ms",
            "ms",
            per_cycle(layers.projection),
            cycles,
        ),
        Metric::new(
            "fleet.evaluator_build_ms",
            "ms",
            per_cycle(layers.evaluator_build),
            cycles,
        ),
        Metric::new(
            "fleet.td_schedule_ms",
            "ms",
            per_cycle(layers.td_schedule),
            cycles,
        ),
        Metric::new("fleet.powers_matrix_ms", "ms", per_cycle(matrix_ms), cycles),
        Metric::new(
            "metasurface.eval_batch_ms",
            "ms",
            per_cycle(batch_ms),
            cycles,
        ),
        Metric::new("trace.coverage", "ratio", top / traced_ms, cycles),
        Metric::new("trace.overhead", "ratio", traced_ms / plain_ms, 2 * cycles),
    ]
}
