//! Layered benchmark for the LLAMA reproduction.
//!
//! ```text
//! cargo run --release --manifest-path lamabench/Cargo.toml -- \
//!     --workload <zoo-mobility|fleet-serve|bias-grid|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no recorder attached;
//! `--trace 1` is the per-layer run. A table with every metric, its unit
//! and its sample count goes to standard error; standard output gets a
//! full record (host stamp, digest, sample counts) and, as its last
//! line, the result object. See `README.md` in this directory.

mod common;
mod grid;
mod host;
mod recorder;
mod report;
mod serve;
mod zoo;

use std::process::ExitCode;

use common::{RunConfig, WorkloadRun};
use host::HostStamp;
use report::{json_number, json_string, metrics_object, result_line, Metric};

const WORKLOADS: [&str; 3] = ["zoo-mobility", "fleet-serve", "bias-grid"];

/// Every per-layer metric a traced run reports, with its unit. A
/// workload that never enters a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 32] = [
    ("sim.advance_ms", "ms"),
    ("sim.reopt_ms", "ms"),
    ("sim.settle_ms", "ms"),
    ("sim.serve_ms", "ms"),
    ("sim.unattributed_ms", "ms"),
    ("sim.links_reprepared_per_tick", "count"),
    ("sim.links_rebound_per_tick", "count"),
    ("sim.panels_cold_share", "ratio"),
    ("sim.panels_reused_share", "ratio"),
    ("sim.handoffs_per_run", "count"),
    ("sim.probes_per_tick", "count"),
    ("sweep.warm_ms", "ms"),
    ("sweep.cold_ms", "ms"),
    ("sweep.probes_per_sweep", "count"),
    ("server.queue_wait_p50_ms", "ms"),
    ("server.queue_wait_p95_ms", "ms"),
    ("server.job_ms.maxmin", "ms"),
    ("server.job_ms.timedivision", "ms"),
    ("server.busy_share", "ratio"),
    ("server.workers_used", "count"),
    ("server.steal_share", "ratio"),
    ("panels.probes_per_job", "count"),
    ("metasurface.plans_compiled", "count"),
    ("metasurface.plan_compile_ms", "ms"),
    ("metasurface.eval_grid_ms", "ms"),
    ("propagation.projection_ms", "ms"),
    ("fleet.evaluator_build_ms", "ms"),
    ("fleet.td_schedule_ms", "ms"),
    ("fleet.powers_matrix_ms", "ms"),
    ("metasurface.eval_batch_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

struct Args {
    workload: String,
    config: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut config = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => config.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                config.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(config.seconds > 0.0 && config.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; choose one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args { workload, config })
}

/// Runs each workload in its own process (so `peak_rss_mb` stays per
/// workload), passing the remaining flags through.
fn run_all(config: &RunConfig) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args([
                "--workload",
                workload,
                "--seed",
                &config.seed.to_string(),
                "--seconds",
                &config.seconds.to_string(),
                "--trace",
                if config.trace { "1" } else { "0" },
            ])
            .status()
            .map_err(|e| format!("{workload}: {e}"))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

/// The metrics this run reports, in `BENCHMARK.json` order: end-to-end
/// for the plain run, every per-layer name for the traced run. A layer
/// the workload never entered reads 0; a name the workload reports that
/// [`PER_LAYER`] lacks is an error, so a misspelt layer cannot pass as 0.
fn reported_metrics(result: &WorkloadRun, trace: bool) -> Result<Vec<Metric>, String> {
    if !trace {
        return Ok(result.end_to_end.clone());
    }
    if let Some(stray) = result
        .per_layer
        .iter()
        .find(|m| !PER_LAYER.iter().any(|&(name, _)| name == m.name))
    {
        return Err(format!(
            "per-layer metric {:?} is not in PER_LAYER",
            stray.name
        ));
    }
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            result
                .per_layer
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, unit, 0.0, 0))
        })
        .collect())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lamabench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args.config) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("lamabench: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let host = HostStamp::measure(args.config.seed);
    let result = match args.workload.as_str() {
        "zoo-mobility" => zoo::run(&args.config),
        "fleet-serve" => serve::run(&args.config),
        _ => grid::run(&args.config),
    };
    let metrics = match reported_metrics(&result, args.config.trace) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("lamabench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let failed_share = result.failed as f64 / result.attempted.max(1) as f64;

    eprintln!(
        "lamabench {} (trace {}) seed {} | cores {} capacity {:.2} | {} | rev {}",
        args.workload,
        u8::from(args.config.trace),
        host.seed,
        host.logical_cores,
        host.parallel_capacity,
        host.profile,
        host.git_revision
    );
    eprintln!(
        "{:<34} {:>14} {:<6} {:>9}",
        "metric", "value", "unit", "samples"
    );
    for m in &metrics {
        eprintln!(
            "{:<34} {:>14.6} {:<6} {:>9}",
            m.name, m.value, m.unit, m.samples
        );
    }
    eprintln!(
        "{:<34} {:>14.6} {:<6} {:>9}",
        "failed_share", failed_share, "ratio", result.attempted
    );
    eprintln!("{:<34} {:>14}", "digest", format!("{:016x}", result.digest));
    if let Some(load) = result.host_load {
        eprintln!(
            "host probe {:.4} ms over the timed windows, {:.4} ms over all; {:.1}% of windows stolen from",
            load.quiet_probe_ms,
            load.probe_ms,
            100.0 * load.stolen_share
        );
    }

    let record = metrics_object(&metrics, true).map(|object| {
        format!(
            "{{\"workload\": {}, \"trace\": {}, \"host\": {}, \"digest\": \"{:016x}\", \
             \"attempted\": {}, \"failed\": {}, \"failed_share\": {}, \"metrics\": {}}}",
            json_string(&args.workload),
            args.config.trace,
            host.json(result.host_load),
            result.digest,
            result.attempted,
            result.failed,
            json_number(failed_share),
            object
        )
    });
    let line = result_line(
        result.failed == 0,
        result.attempted,
        result.failed,
        &metrics,
    );
    match (record, line) {
        (Ok(record), Ok(line)) => {
            println!("{record}");
            println!("{line}");
            ExitCode::SUCCESS
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("lamabench: {e}");
            ExitCode::FAILURE
        }
    }
}
