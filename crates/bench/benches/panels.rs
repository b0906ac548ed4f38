//! Panel-array benches: the 4-panel, 32-device probe grids on shared
//! plan caches, the end-to-end panel scheduler against single-panel
//! `MaxMin`, one served job over a warm shared plan store, and the
//! many-fleet server against serial execution.

use control::server::FleetServer;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use llama_core::fleet::{Fleet, Scheduler};
use llama_core::panels::{serve_fleets, Assignment, PanelArray, PanelScheduler};
use metasurface::stack::BiasState;
use metasurface::SharedPlanCache;
use std::sync::Arc;
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

fn panel_4x32_probe_grid(c: &mut Criterion) {
    let fleet = Fleet::mixed_wifi_ble(32, 2021);
    let array = PanelArray::uniform(fleet.design.clone(), 4);
    let assignment = array.assign(&fleet, &Assignment::ByOrientation);
    let biases = probe_grid();
    let mut g = c.benchmark_group("panel_4x32_probe_grid");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(10));
    g.sample_size(10);
    g.bench_function("shared_plan_cache", |b| {
        // Cold cost included: the panel scheduler compiles the shared
        // caches once per run, so the timed region does too.
        b.iter(|| array.batched_panel_matrices(&fleet, &assignment, black_box(&biases)))
    });
    g.finish();
}

fn panel_4x32_scheduler(c: &mut Criterion) {
    let fleet = Fleet::mixed_wifi_ble(32, 2021);
    let array = PanelArray::uniform(fleet.design.clone(), 4);
    let mut g = c.benchmark_group("panel_4x32_scheduler");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(8));
    g.sample_size(10);
    // Timed at a budget of 1, like `fleet_64_time_division/powers_matrix`,
    // so the 10% baseline compare judges the lockstep schedule and not
    // the host's spare capacity.
    g.bench_function("panel_max_min", |b| {
        b.iter(|| rfmath::par::with_budget(1, || PanelScheduler::max_min().run(&fleet, &array)))
    });
    g.bench_function("single_panel_max_min", |b| {
        b.iter(|| Scheduler::max_min().run(&fleet))
    });
    g.finish();
}

/// One served job, as lamabench's fleet-serve handler runs it: a
/// 16-device fleet on a 4-panel `fr4_optimized` array, scheduled by
/// `PanelScheduler::run_with_caches` over a fresh handle on a shared plan
/// store that an earlier run of the same job has warmed (every plan
/// compiled, every branch solved, every cell's probe factors in the
/// memo). So the timed region is the served job's own cost: the split,
/// the evaluators, the link probes and the searches. Timed at a budget
/// of 1.
fn panel_served_job(c: &mut Criterion) {
    let fleet = Fleet::mixed_wifi_ble(16, 2021);
    let array = PanelArray::uniform(fleet.design.clone(), 4);
    let shared = Arc::new(SharedPlanCache::new(&fleet.design.stack));
    let mut g = c.benchmark_group("panel_served_job");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(1000);
    for (name, scheduler) in [
        ("maxmin", PanelScheduler::max_min()),
        ("timedivision", PanelScheduler::time_division()),
    ] {
        let job = || {
            let caches = [(fleet.design.name, shared.handle())];
            rfmath::par::with_budget(1, || scheduler.run_with_caches(&fleet, &array, &caches))
        };
        job();
        g.bench_function(name, |b| b.iter(job));
    }
    g.finish();
}

fn server_8_fleets(c: &mut Criterion) {
    let fleets: Vec<Fleet> = (0..8u64)
        .map(|s| Fleet::mixed_wifi_ble(8, 3000 + s))
        .collect();
    let scheduler = Scheduler::max_min();
    let workers = rfmath::par::budget().min(8);
    let server = FleetServer::new(workers);
    let mut g = c.benchmark_group("server_8_fleets");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(8));
    g.sample_size(10);
    g.bench_function("serial", |b| {
        b.iter(|| fleets.iter().map(|f| scheduler.run(f)).collect::<Vec<_>>())
    });
    g.bench_function("concurrent", |b| {
        b.iter(|| serve_fleets(&server, &scheduler, black_box(&fleets)))
    });
    g.finish();

    // Per-thread scaling report: efficiency is wall-clock speedup over
    // the serial loop divided by the worker count; queue wait comes from
    // the server's instrumented pass.
    let time_min = |iters: u32, routine: &mut dyn FnMut()| {
        let mut best = f64::INFINITY;
        routine();
        for _ in 0..iters {
            let t = std::time::Instant::now();
            routine();
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        best
    };
    let serial_ms = time_min(5, &mut || {
        black_box(fleets.iter().map(|f| scheduler.run(f)).collect::<Vec<_>>());
    });
    let concurrent_ms = time_min(5, &mut || {
        black_box(serve_fleets(&server, &scheduler, &fleets));
    });
    let (_, stats) = server.try_serve_with_stats(fleets.iter().collect(), |_, fleet: &Fleet| {
        scheduler.run(fleet)
    });
    let speedup = serial_ms / concurrent_ms.max(1e-12);
    eprintln!(
        "server_8_fleets/concurrent: {workers} workers, speedup {speedup:.2}x, \
         efficiency {:.2}, mean queue wait {:.4} ms",
        speedup / workers.max(1) as f64,
        stats.mean_queue_wait.0 * 1e3,
    );
}

criterion_group!(
    benches,
    panel_4x32_probe_grid,
    panel_4x32_scheduler,
    panel_served_job,
    server_8_fleets
);
criterion_main!(benches);
