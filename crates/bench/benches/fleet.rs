//! Fleet-serving engine benches: the 32-device mixed Wi-Fi/BLE probe
//! grid on the shared-plan batch path and end-to-end scheduler runs
//! for every policy.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use llama_core::fleet::{Fleet, FleetEvaluator, Scheduler};
use metasurface::stack::BiasState;
use std::time::Duration;

fn probe_grid() -> Vec<BiasState> {
    let mut biases = Vec::new();
    for ix in 0..7 {
        for iy in 0..7 {
            biases.push(BiasState::new(
                30.0 * ix as f64 / 6.0,
                30.0 * iy as f64 / 6.0,
            ));
        }
    }
    biases
}

fn fleet_32_probe_grid(c: &mut Criterion) {
    let fleet = Fleet::mixed_wifi_ble(32, 2021);
    let biases = probe_grid();
    let mut g = c.benchmark_group("fleet_32_probe_grid");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(10));
    g.sample_size(10);
    g.bench_function("shared_plan", |b| {
        // Cold cost included: the scheduler compiles the plans once per
        // run, so the timed region does too.
        b.iter(|| FleetEvaluator::new(&fleet).powers_matrix(black_box(&biases)))
    });
    g.finish();
}

fn fleet_32_scheduler_policies(c: &mut Criterion) {
    let fleet = Fleet::mixed_wifi_ble(32, 2021);
    let mut g = c.benchmark_group("fleet_32_scheduler");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(8));
    g.sample_size(10);
    g.bench_function("max_min", |b| b.iter(|| Scheduler::max_min().run(&fleet)));
    g.bench_function("favor_0", |b| b.iter(|| Scheduler::favor(0).run(&fleet)));
    g.bench_function("time_division", |b| {
        b.iter(|| Scheduler::time_division().run(&fleet))
    });
    g.finish();
}

criterion_group!(benches, fleet_32_probe_grid, fleet_32_scheduler_policies);
criterion_main!(benches);
