//! Hot-loop benches under the Criterion harness: the SoA batch kernel
//! on a 24×24 probe grid, the warm mobility tick, the 64-device
//! time-division probe matrix and the 31×31 Figure 15 power heatmap.
//! These are the numbers
//! `scripts/bench-criterion` tracks across branches (save a baseline on
//! `main`, compare on the branch, fail on a >10% regression) — keep the
//! group/function IDs stable.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use llama_core::fleet::{Fleet, FleetEvaluator, Scheduler};
use llama_core::panels::{PanelArray, PanelScheduler};
use llama_core::sim::{DynamicFleet, MobilitySim, SimConfig};
use llama_core::{LlamaSystem, Scenario};
use metasurface::designs::fr4_optimized;
use metasurface::evaluator::StackEvaluator;
use metasurface::stack::BiasState;
use rfmath::units::{Hertz, Seconds};
use std::time::Duration;

const F: Hertz = Hertz(2.44e9);

/// The 24×24 distinct-bias grid from `perf::run_sharded`, mirroring the
/// dedup shape of a real probe sweep.
fn probe_biases() -> Vec<BiasState> {
    let grid = 24usize;
    (0..grid * grid)
        .map(|i| {
            BiasState::new(
                30.0 * (i % grid) as f64 / (grid - 1) as f64,
                30.0 * (i / grid) as f64 / (grid - 1) as f64,
            )
        })
        .collect()
}

fn probe_grid(c: &mut Criterion) {
    let design = fr4_optimized();
    let plan = StackEvaluator::new(&design.stack, F);
    let biases = probe_biases();
    let mut g = c.benchmark_group("probe_grid");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(6));
    g.sample_size(30);
    g.bench_function("soa", |b| b.iter(|| plan.eval_batch(black_box(&biases))));
    g.finish();
}

fn mobility_tick(c: &mut Criterion) {
    let (devices, ticks, panels) = (8usize, 10usize, 2usize);
    let seed = 2021u64;
    let duration = Seconds(ticks as f64);
    let sim_design = Fleet::mixed_wifi_ble(1, seed).design.clone();
    let array = PanelArray::distributed(sim_design, panels);
    let scheduler = PanelScheduler::max_min();
    let mut g = c.benchmark_group("mobility_tick");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(8));
    g.sample_size(10);
    g.bench_function("warm", |b| {
        b.iter(|| {
            let mut roaming = DynamicFleet::roaming_mixed(devices, seed, duration);
            MobilitySim::new(scheduler.clone(), SimConfig::default()).run(
                black_box(&mut roaming),
                &array,
                ticks,
            )
        })
    });
    g.finish();
}

/// The 64-device time-division matrix: one `powers_matrix` over every
/// bias a time-division schedule probes (144 biases × 64 devices), at a
/// budget of 1, with the evaluator built outside the timed region. Nearly
/// all of it is the factored link-probe, so a cross-crate call per Jones
/// apply or a per-device shadow `powf` shows up here.
fn fleet_64_time_division(c: &mut Criterion) {
    let fleet = Fleet::mixed_wifi_ble(64, 2021);
    let biases: Vec<BiasState> = Scheduler::time_division()
        .run(&fleet)
        .history
        .into_iter()
        .map(|(bias, _)| bias)
        .collect();
    let evaluator = FleetEvaluator::new(&fleet);
    let mut g = c.benchmark_group("fleet_64_time_division");
    g.warm_up_time(Duration::from_millis(500));
    // Thousands of sub-millisecond calls, so the mean is stable enough
    // for the baseline compare's 10% gate.
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(4000);
    g.bench_function("powers_matrix", |b| {
        b.iter(|| rfmath::par::with_budget(1, || evaluator.powers_matrix(black_box(&biases))))
    });
    g.finish();
}

/// The Figure 15 heatmap as `LlamaSystem::power_heatmap` serves it: a
/// 31×31 bias grid through the SoA kernel, each cell projected onto the
/// prepared link inside the grid pass. Timed at a budget of 1, like the
/// time-division matrix, so the compare does not ride on how much
/// parallel capacity the host has spare.
fn heatmap_31x31(c: &mut Criterion) {
    let mut sys = LlamaSystem::new(Scenario::transmissive_default());
    let mut g = c.benchmark_group("heatmap_31x31");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(4000);
    g.bench_function("power_heatmap", |b| {
        b.iter(|| rfmath::par::with_budget(1, || sys.power_heatmap(black_box(31))))
    });
    g.finish();
}

criterion_group!(
    benches,
    probe_grid,
    mobility_tick,
    fleet_64_time_division,
    heatmap_31x31
);
criterion_main!(benches);
