//! `expts` — regenerate the paper's tables and figures from the command
//! line, and time the batched surface-response engine.
//!
//! ```text
//! expts                               # list experiments
//! expts all                           # run everything (slow; fig15/21 sweep full grids)
//! expts fig16 alg1                    # run a selection
//! expts --bench-json [path] [--quick] # time the engine, write a JSON summary
//! expts --panels [path] [--quick]     # time the panel array + many-fleet server (BENCH_PR4)
//! expts --mobility [path] [--quick]   # time the mobility simulator, warm vs cold (BENCH_PR5)
//! expts --bench-all [dir] [--quick]   # regenerate every BENCH_PR*.json in one run
//! expts --calibrate-fig20 [samples]   # sweep link calibration knobs vs the paper's 10 dB gap
//! expts --scenario <name> [path]      # simulate a room from the scenario zoo, write JSON
//! expts --chaos [room] [path]         # sweep fault rates over a room, write the degradation curve
//! expts --sharded [path] [--quick]    # time the sharded hot loops: SoA grid, warm ticks, scaling (BENCH_PR8)
//! expts --joint [path] [--quick]      # joint vs independent multi-surface serving on the zoo (BENCH_PR9)
//! expts --matrix [base] [--quick] [--rooms a,b] [--policy a,b] [--fleets a,b]
//!                [--devices a,b] [--threads a,b] [--shards a,b]
//!                                     # run the serving cross product, write <base>.{md,csv,json}
//! expts --trace <room> [path]         # capture a deterministic JSONL event log of a room
//! expts --trace-overhead [room] [path] # gate ring-recorder overhead vs the null recorder
//! ```
//!
//! `--bench-json` writes a timing summary (default
//! `target/bench-report.json`, untracked; the committed reference is
//! `BENCH_PR2.json`) comparing naive and batched evaluation and exits
//! non-zero when the batched engine falls below the regression floor —
//! the CI perf smoke. `--quick` trims the sample budget for fast smoke
//! runs.

use std::env;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!(
            "usage: expts <id>... | all | --bench-json [path] [--quick] \
             | --panels [path] [--quick] \
             | --mobility [path] [--quick] | --bench-all [dir] [--quick] \
             | --calibrate-fig20 [samples] | --scenario <name> [path] \
             | --chaos [room] [path] [--joint] | --sharded [path] [--quick] \
             | --joint [path] [--quick] | --trace <room> [path] \
             | --trace-overhead [room] [path] \
             | --matrix [base] [--quick] [--rooms a,b] [--policy a,b] \
             [--fleets a,b] [--devices a,b] [--threads a,b] [--shards a,b]"
        );
        eprintln!("experiments: {}", llama_bench::ALL_IDS.join(", "));
        eprintln!("scenarios: {}", llama_core::rooms::SCENARIOS.join(", "));
        return ExitCode::SUCCESS;
    }

    if args.iter().any(|a| a == "--trace-overhead") {
        let extras: Vec<&String> = args.iter().filter(|a| *a != "--trace-overhead").collect();
        if extras.len() > 2 || extras.iter().any(|a| a.starts_with("--")) {
            eprintln!(
                "error: --trace-overhead takes an optional room name and an optional \
                 output path; known rooms: {}",
                llama_core::rooms::SCENARIOS.join(", ")
            );
            return ExitCode::FAILURE;
        }
        let room = extras.first().map(|s| s.as_str()).unwrap_or("office-floor");
        let path = extras
            .get(1)
            .map(|s| s.to_string())
            .unwrap_or_else(|| format!("target/trace-overhead-{room}.json"));
        let report = match llama_bench::trace::OverheadReport::run(room, llama_bench::SEED, 3) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("{}", report.summary());
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
        return if report.passes() {
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "error: ring recorder overhead exceeded {:.0}% over the null recorder",
                (llama_bench::trace::OVERHEAD_CEILING - 1.0) * 100.0
            );
            ExitCode::FAILURE
        };
    }

    if args.iter().any(|a| a == "--trace") {
        let extras: Vec<&String> = args.iter().filter(|a| *a != "--trace").collect();
        if extras.is_empty() || extras.len() > 2 || extras.iter().any(|a| a.starts_with("--")) {
            eprintln!(
                "error: --trace takes a room name and at most one output path; \
                 known rooms: {}",
                llama_core::rooms::SCENARIOS.join(", ")
            );
            return ExitCode::FAILURE;
        }
        let room = extras[0].as_str();
        let path = extras
            .get(1)
            .map(|s| s.to_string())
            .unwrap_or_else(|| format!("target/trace-{room}.jsonl"));
        let report = match llama_bench::trace::TraceReport::run(room, llama_bench::SEED) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("{}", report.summary());
        if let Err(e) = std::fs::write(&path, &report.jsonl) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
        let header = format!("{}.json", path.trim_end_matches(".jsonl"));
        if let Err(e) = std::fs::write(&header, report.to_json()) {
            eprintln!("error: cannot write {header}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {header}");
        return if report.passes() {
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "error: trace gate failed — the two same-seed captures diverged or an \
                 event family is missing from the log"
            );
            ExitCode::FAILURE
        };
    }

    if args.iter().any(|a| a == "--scenario") {
        let extras: Vec<&String> = args.iter().filter(|a| *a != "--scenario").collect();
        if extras.is_empty() || extras.len() > 2 || extras.iter().any(|a| a.starts_with("--")) {
            eprintln!(
                "error: --scenario takes a scenario name and at most one output path; \
                 known scenarios: {}",
                llama_core::rooms::SCENARIOS.join(", ")
            );
            return ExitCode::FAILURE;
        }
        let name = extras[0].as_str();
        let path = extras
            .get(1)
            .map(|s| s.to_string())
            .unwrap_or_else(|| format!("target/scenario-{name}.json"));
        let report = match llama_bench::scenario::ScenarioReport::run(name, llama_bench::SEED) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("{}", report.summary());
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
        return if report.passes() {
            ExitCode::SUCCESS
        } else {
            eprintln!("error: the room never served (zero duty or non-finite power)");
            ExitCode::FAILURE
        };
    }

    if args.iter().any(|a| a == "--chaos") {
        let joint = args.iter().any(|a| a == "--joint");
        let extras: Vec<&String> = args
            .iter()
            .filter(|a| *a != "--chaos" && *a != "--joint")
            .collect();
        if extras.len() > 2 || extras.iter().any(|a| a.starts_with("--")) {
            eprintln!(
                "error: --chaos takes an optional room name, an optional output path \
                 and the --joint smoke flag; known rooms: {}",
                llama_core::rooms::SCENARIOS.join(", ")
            );
            return ExitCode::FAILURE;
        }
        let room = extras.first().map(|s| s.as_str()).unwrap_or("office-floor");
        let path = extras
            .get(1)
            .map(|s| s.to_string())
            .unwrap_or_else(|| format!("target/chaos-{room}.json"));
        if joint {
            match llama_bench::chaos::joint_smoke(room, llama_bench::SEED) {
                Ok(line) => println!("{line}"),
                Err(e) => {
                    eprintln!("error: joint smoke failed — {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let report = match llama_bench::chaos::ChaosReport::run(room, llama_bench::SEED) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("{}", report.summary());
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
        return if report.passes() {
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "error: chaos gate failed — zero-fault run not bitwise identical, \
                 or the room starved below the duty floor at <= 10% faults"
            );
            ExitCode::FAILURE
        };
    }

    if args.iter().any(|a| a == "--matrix") {
        let quick = args.iter().any(|a| a == "--quick");
        let mut axes = llama_bench::matrix::MatrixAxes::default_axes();
        let mut base: Option<String> = None;
        let mut i = 0;
        while i < args.len() {
            let arg = args[i].as_str();
            match arg {
                "--matrix" | "--quick" => {}
                "--fleets" | "--devices" | "--threads" | "--shards" => {
                    i += 1;
                    let Some(raw) = args.get(i) else {
                        eprintln!("error: {arg} needs a comma-separated list");
                        return ExitCode::FAILURE;
                    };
                    let list = match llama_bench::matrix::MatrixAxes::parse_list(arg, raw) {
                        Ok(list) => list,
                        Err(e) => {
                            eprintln!("error: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    match arg {
                        "--fleets" => axes.fleets = list,
                        "--devices" => axes.devices = list,
                        "--threads" => axes.threads = list,
                        _ => axes.shards = list,
                    }
                }
                "--rooms" | "--policy" => {
                    i += 1;
                    let Some(raw) = args.get(i) else {
                        eprintln!("error: {arg} needs a comma-separated name list");
                        return ExitCode::FAILURE;
                    };
                    let known = llama_bench::matrix::MatrixAxes::known_rooms();
                    let allowed: &[&str] = if arg == "--rooms" {
                        &known
                    } else {
                        &llama_bench::matrix::POLICIES
                    };
                    let list = match llama_bench::matrix::MatrixAxes::parse_names(arg, raw, allowed)
                    {
                        Ok(list) => list,
                        Err(e) => {
                            eprintln!("error: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    if arg == "--rooms" {
                        axes.rooms = list;
                    } else {
                        axes.policies = list;
                    }
                }
                _ if arg.starts_with("--") => {
                    eprintln!("error: unknown flag {arg} in --matrix mode");
                    return ExitCode::FAILURE;
                }
                _ => {
                    if base.replace(arg.to_string()).is_some() {
                        eprintln!("error: --matrix takes at most one output base path");
                        return ExitCode::FAILURE;
                    }
                }
            }
            i += 1;
        }
        let base = base.unwrap_or_else(|| "target/matrix".to_string());
        println!(
            "serving matrix: {} cells ({} rooms x {} policies x {} fleets x {} devices \
             x {} threads x {} shards)",
            axes.cells(),
            axes.rooms.len(),
            axes.policies.len(),
            axes.fleets.len(),
            axes.devices.len(),
            axes.threads.len(),
            axes.shards.len()
        );
        let report = llama_bench::matrix::MatrixReport::run(axes, quick);
        print!("{}", report.to_markdown());
        for (ext, body) in [
            ("md", report.to_markdown()),
            ("csv", report.to_csv()),
            ("json", report.to_json()),
        ] {
            let path = format!("{base}.{ext}");
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }
        return if report.passes() {
            ExitCode::SUCCESS
        } else {
            eprintln!("error: a matrix cell produced a non-finite wall-clock");
            ExitCode::FAILURE
        };
    }

    if args.iter().any(|a| a == "--sharded") {
        let quick = args.iter().any(|a| a == "--quick");
        let extras: Vec<&String> = args
            .iter()
            .filter(|a| *a != "--sharded" && *a != "--quick")
            .collect();
        if extras.len() > 1 || extras.iter().any(|a| a.starts_with("--")) {
            eprintln!(
                "error: --sharded takes at most one output path; got: {}",
                extras
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            return ExitCode::FAILURE;
        }
        let path = extras
            .first()
            .map(|s| s.to_string())
            .unwrap_or_else(|| "target/sharded-report.json".to_string());
        let report = llama_bench::perf::run_sharded(quick);
        print!("{}", report.summary());
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
        return if report.passes() {
            ExitCode::SUCCESS
        } else {
            eprintln!("error: thread scaling under the efficiency floor");
            ExitCode::FAILURE
        };
    }

    if args.iter().any(|a| a == "--joint") {
        let quick = args.iter().any(|a| a == "--quick");
        let extras: Vec<&String> = args
            .iter()
            .filter(|a| *a != "--joint" && *a != "--quick")
            .collect();
        if extras.len() > 1 || extras.iter().any(|a| a.starts_with("--")) {
            eprintln!(
                "error: --joint takes at most one output path; got: {}",
                extras
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            return ExitCode::FAILURE;
        }
        let path = extras
            .first()
            .map(|s| s.to_string())
            .unwrap_or_else(|| "target/joint-report.json".to_string());
        let report = llama_bench::joint::run_joint(quick);
        print!("{}", report.summary());
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
        return if report.passes() {
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "error: joint search regressed below its independent start, lifted no \
                 zoo room, or the coupled evaluation exceeded its slowdown ceiling"
            );
            ExitCode::FAILURE
        };
    }

    if args.iter().any(|a| a == "--bench-all") {
        let quick = args.iter().any(|a| a == "--quick");
        let extras: Vec<&String> = args
            .iter()
            .filter(|a| *a != "--bench-all" && *a != "--quick")
            .collect();
        if extras.len() > 1 || extras.iter().any(|a| a.starts_with("--")) {
            eprintln!("error: --bench-all takes at most one output directory");
            return ExitCode::FAILURE;
        }
        let dir = extras.first().map(|s| s.as_str()).unwrap_or(".");
        let mut all_pass = true;
        let mut write = |name: &str, body: String, pass: bool| -> bool {
            let path = format!("{dir}/{name}");
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("error: cannot write {path}: {e}");
                return false;
            }
            println!("wrote {path}");
            all_pass &= pass;
            true
        };
        let engine = llama_bench::perf::run(quick);
        print!("{}", engine.summary());
        if !write("BENCH_PR2.json", engine.to_json(), engine.passes()) {
            return ExitCode::FAILURE;
        }
        let panels = llama_bench::perf::run_panels(quick);
        print!("{}", panels.summary());
        if !write("BENCH_PR4.json", panels.to_json(), panels.passes()) {
            return ExitCode::FAILURE;
        }
        let mobility = llama_bench::perf::run_mobility(quick);
        print!("{}", mobility.summary());
        if !write("BENCH_PR5.json", mobility.to_json(), mobility.passes()) {
            return ExitCode::FAILURE;
        }
        let sharded = llama_bench::perf::run_sharded(quick);
        print!("{}", sharded.summary());
        if !write("BENCH_PR8.json", sharded.to_json(), sharded.passes()) {
            return ExitCode::FAILURE;
        }
        let joint = llama_bench::joint::run_joint(quick);
        print!("{}", joint.summary());
        if !write("BENCH_PR9.json", joint.to_json(), joint.passes()) {
            return ExitCode::FAILURE;
        }
        return if all_pass {
            ExitCode::SUCCESS
        } else {
            eprintln!("error: at least one bench fell below its regression floor");
            ExitCode::FAILURE
        };
    }

    if args.iter().any(|a| a == "--mobility") {
        let quick = args.iter().any(|a| a == "--quick");
        let extras: Vec<&String> = args
            .iter()
            .filter(|a| *a != "--mobility" && *a != "--quick")
            .collect();
        if extras.len() > 1 || extras.iter().any(|a| a.starts_with("--")) {
            eprintln!(
                "error: --mobility takes at most one output path; got: {}",
                extras
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            return ExitCode::FAILURE;
        }
        let path = extras
            .first()
            .map(|s| s.to_string())
            .unwrap_or_else(|| "target/mobility-report.json".to_string());
        let report = llama_bench::perf::run_mobility(quick);
        print!("{}", report.summary());
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
        return if report.passes() {
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "error: warm-start below the speedup floor or zero-motion \
                 equivalence broken — regression"
            );
            ExitCode::FAILURE
        };
    }

    if args.iter().any(|a| a == "--calibrate-fig20") {
        let extras: Vec<&String> = args.iter().filter(|a| *a != "--calibrate-fig20").collect();
        let samples = match extras.as_slice() {
            [] => 480,
            [n] => match n.parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => {
                    eprintln!("error: --calibrate-fig20 takes an optional positive sample count");
                    return ExitCode::FAILURE;
                }
            },
            _ => {
                eprintln!("error: --calibrate-fig20 takes at most one sample count");
                return ExitCode::FAILURE;
            }
        };
        print!(
            "{}",
            llama_bench::calibrate::report(llama_bench::SEED, samples)
        );
        return ExitCode::SUCCESS;
    }

    if args.iter().any(|a| a == "--panels") {
        let quick = args.iter().any(|a| a == "--quick");
        let extras: Vec<&String> = args
            .iter()
            .filter(|a| *a != "--panels" && *a != "--quick")
            .collect();
        if extras.len() > 1 || extras.iter().any(|a| a.starts_with("--")) {
            eprintln!(
                "error: --panels takes at most one output path; got: {}",
                extras
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            return ExitCode::FAILURE;
        }
        let path = extras
            .first()
            .map(|s| s.to_string())
            .unwrap_or_else(|| "target/panel-report.json".to_string());
        let report = llama_bench::perf::run_panels(quick);
        print!("{}", report.summary());
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
        return if report.passes() {
            ExitCode::SUCCESS
        } else {
            eprintln!("error: panel array no longer lifts the min power — regression");
            ExitCode::FAILURE
        };
    }

    if args.iter().any(|a| a == "--bench-json") {
        let quick = args.iter().any(|a| a == "--quick");
        // Bench mode accepts only its own flags plus one optional output
        // path (any position); anything else is a usage error rather
        // than a silently dropped experiment id.
        let extras: Vec<&String> = args
            .iter()
            .filter(|a| *a != "--bench-json" && *a != "--quick")
            .collect();
        let looks_like_id = |a: &str| llama_bench::ALL_IDS.contains(&a) || a == "all";
        if extras.len() > 1
            || extras.iter().any(|a| a.starts_with("--"))
            || extras.iter().any(|a| looks_like_id(a))
        {
            eprintln!(
                "error: --bench-json takes at most one output path (experiment ids \
                 cannot be combined with bench mode); got: {}",
                extras
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            return ExitCode::FAILURE;
        }
        let path = extras
            .first()
            .map(|s| s.to_string())
            .unwrap_or_else(|| "target/bench-report.json".to_string());
        let report = llama_bench::perf::run(quick);
        print!("{}", report.summary());
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
        return if report.passes() {
            ExitCode::SUCCESS
        } else {
            eprintln!("error: batched engine below the speedup floor — perf regression");
            ExitCode::FAILURE
        };
    }

    let ids: Vec<&str> = if args.len() == 1 && args[0] == "all" {
        llama_bench::ALL_IDS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    let mut failed = false;
    for id in ids {
        match llama_bench::run(id) {
            Ok(report) => {
                println!("{report}");
            }
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
