//! The `expts` command line: one table of modes, one parser, one
//! emitter.
//!
//! Each [`Mode`] row names its flag, its positional arguments with
//! their defaults, its own flags, the function that runs it and the
//! artifacts it writes. [`parse`] turns a command line into a
//! [`Command`]; [`execute`] runs a mode and hands its report to
//! [`emit`], which prints the summary, writes the artifacts and returns
//! the gate's verdict. `--bench-all` loops over the rows that name a
//! committed `BENCH_PR*.json`.

use crate::report::{render, Format, Report};
use crate::{calibrate, chaos, joint, matrix, perf, scenario, trace, SEED};

/// Runs a mode from its parsed command line: its report, or `None`
/// for a mode that only prints and gates nothing.
pub type Run = fn(&Invocation) -> Result<Option<Box<dyn Report>>, String>;

/// A gated run's result.
fn gate(report: impl Report + 'static) -> Result<Option<Box<dyn Report>>, String> {
    Ok(Some(Box::new(report)))
}

/// One `expts` mode.
pub struct Mode {
    /// The flag that selects the mode.
    pub flag: &'static str,
    /// Positional arguments: name and default (`None`: required). A
    /// default may name the first positional as `{0}`.
    pub args: &'static [(&'static str, Option<&'static str>)],
    /// The mode's own flags; `"--rooms a,b"` takes a value.
    pub flags: &'static [&'static str],
    /// Runs the mode; `None` for `--bench-all`, which runs the rows
    /// that have a [`bench_file`](Mode::bench_file).
    pub run: Option<Run>,
    /// Artifacts written from the last positional: the format, and the
    /// extension appended to it (`None`: the path as given). A row whose
    /// first artifact is a JSONL log names the others after the log
    /// without its `.jsonl`.
    pub artifacts: &'static [(Format, Option<&'static str>)],
    /// The committed reference `--bench-all` regenerates.
    pub bench_file: Option<&'static str>,
    /// One line on what the mode does.
    pub about: &'static str,
    /// Printed when the gate fails.
    pub failure: &'static str,
}

const JSON: &[(Format, Option<&str>)] = &[(Format::Json, None)];
const QUICK: &[&str] = &["--quick"];

/// Every mode. When a command line names several mode flags, the first
/// row wins and rejects the others as unknown flags, so `--chaos` comes
/// before `--joint`, which it also takes as its own flag.
pub static MODES: &[Mode] = &[
    Mode {
        flag: "--trace-overhead",
        args: &[
            ("room", Some("office-floor")),
            ("path", Some("target/trace-overhead-{0}.json")),
        ],
        flags: &[],
        run: Some(|inv| gate(trace::OverheadReport::run(&inv.args[0], SEED, 3)?)),
        artifacts: JSON,
        bench_file: None,
        about: "gate ring-recorder overhead against the null recorder",
        failure: "ring recorder overhead exceeded its ceiling over the null recorder",
    },
    Mode {
        flag: "--trace",
        args: &[("room", None), ("path", Some("target/trace-{0}.jsonl"))],
        flags: &[],
        run: Some(|inv| gate(trace::TraceReport::run(&inv.args[0], SEED)?)),
        artifacts: &[(Format::Jsonl, None), (Format::Json, Some("json"))],
        bench_file: None,
        about: "capture a deterministic JSONL event log of a room, plus a JSON header",
        failure: "trace gate failed — the two same-seed captures diverged or an event \
                  family is missing from the log",
    },
    Mode {
        flag: "--scenario",
        args: &[("name", None), ("path", Some("target/scenario-{0}.json"))],
        flags: &[],
        run: Some(|inv| gate(scenario::ScenarioReport::run(&inv.args[0], SEED)?)),
        artifacts: JSON,
        bench_file: None,
        about: "simulate a room from the scenario zoo",
        failure: "the room never served (zero duty or non-finite power)",
    },
    Mode {
        flag: "--chaos",
        args: &[
            ("room", Some("office-floor")),
            ("path", Some("target/chaos-{0}.json")),
        ],
        flags: &["--joint"],
        run: Some(|inv| {
            if inv.has("--joint") {
                let line = chaos::joint_smoke(&inv.args[0], SEED)
                    .map_err(|e| format!("joint smoke failed — {e}"))?;
                println!("{line}");
            }
            gate(chaos::ChaosReport::run(&inv.args[0], SEED)?)
        }),
        artifacts: JSON,
        bench_file: None,
        about: "sweep fault rates over a room; --joint adds the joint determinism smoke",
        failure: "chaos gate failed — zero-fault run not bitwise identical, or the room \
                  starved below the duty floor at <= 10% faults",
    },
    Mode {
        flag: "--matrix",
        args: &[("base", Some("target/matrix"))],
        flags: &[
            "--quick",
            "--rooms a,b",
            "--policy a,b",
            "--fleets a,b",
            "--devices a,b",
            "--threads a,b",
        ],
        run: Some(|inv| {
            gate(matrix::MatrixReport::run(
                matrix_axes(inv)?,
                inv.has("--quick"),
            ))
        }),
        artifacts: &[
            (Format::Markdown, Some("md")),
            (Format::Csv, Some("csv")),
            (Format::Json, Some("json")),
        ],
        bench_file: None,
        about: "run the serving cross product, write <base>.{md,csv,json}",
        failure: "a matrix cell produced a non-finite wall-clock",
    },
    Mode {
        flag: "--sharded",
        args: &[("path", Some("target/sharded-report.json"))],
        flags: QUICK,
        run: Some(|inv| gate(perf::run_sharded(inv.has("--quick")))),
        artifacts: JSON,
        bench_file: Some("BENCH_PR8.json"),
        about: "time the SoA grid and warm ticks, gate thread scaling",
        failure: "thread scaling under the efficiency floor",
    },
    Mode {
        flag: "--joint",
        args: &[("path", Some("target/joint-report.json"))],
        flags: QUICK,
        run: Some(|inv| gate(joint::run_joint(inv.has("--quick")))),
        artifacts: JSON,
        bench_file: Some("BENCH_PR9.json"),
        about: "joint vs independent multi-surface serving on the zoo",
        failure: "joint search regressed below its independent start, lifted no zoo \
                  room, or the coupled evaluation exceeded its slowdown ceiling",
    },
    Mode {
        flag: "--bench-all",
        args: &[("dir", Some("."))],
        flags: QUICK,
        run: None,
        artifacts: &[],
        bench_file: None,
        about: "regenerate every BENCH_PR*.json in one run",
        failure: "at least one bench fell below its regression floor",
    },
    Mode {
        flag: "--mobility",
        args: &[("path", Some("target/mobility-report.json"))],
        flags: QUICK,
        run: Some(|inv| gate(perf::run_mobility(inv.has("--quick")))),
        artifacts: JSON,
        bench_file: Some("BENCH_PR5.json"),
        about: "time the mobility simulator, warm vs cold",
        failure: "warm-start below the speedup floor or zero-motion equivalence broken \
                  — regression",
    },
    Mode {
        flag: "--calibrate-fig20",
        args: &[("samples", Some("480"))],
        flags: &[],
        run: Some(|inv| match inv.args[0].parse::<usize>() {
            Ok(n) if n > 0 => {
                print!("{}", calibrate::report(SEED, n));
                Ok(None)
            }
            _ => Err("--calibrate-fig20 takes an optional positive sample count".to_string()),
        }),
        artifacts: &[],
        bench_file: None,
        about: "sweep link calibration knobs against the paper's 10 dB gap (prints only)",
        failure: "the calibration sweep gates nothing",
    },
    Mode {
        flag: "--panels",
        args: &[("path", Some("target/panel-report.json"))],
        flags: QUICK,
        run: Some(|inv| gate(perf::run_panels(inv.has("--quick")))),
        artifacts: JSON,
        bench_file: Some("BENCH_PR4.json"),
        about: "time the panel array and the many-fleet server",
        failure: "panel array no longer lifts the min power — regression",
    },
    Mode {
        flag: "--bench-json",
        args: &[("path", Some("target/bench-report.json"))],
        flags: QUICK,
        run: Some(|inv| gate(perf::run(inv.has("--quick")))),
        artifacts: JSON,
        bench_file: Some("BENCH_PR2.json"),
        about: "time the batched engine against the naive path",
        failure: "batched engine below the speedup floor — perf regression",
    },
];

/// A parsed `expts` command line.
pub enum Command {
    /// No arguments: print the usage text.
    Usage,
    /// Experiment ids to print (`all` expanded).
    Experiments(Vec<String>),
    /// One mode.
    Mode(Invocation),
}

/// A mode with its arguments resolved.
pub struct Invocation {
    /// The selected mode.
    pub mode: &'static Mode,
    /// Positional arguments, defaults filled in.
    pub args: Vec<String>,
    /// The mode's flags given, each with its value (empty for a switch).
    pub flags: Vec<(&'static str, String)>,
}

impl Invocation {
    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The artifact files this invocation writes, with their formats.
    pub fn files(&self) -> Vec<(String, Format)> {
        let out = self.args.last().map_or("", String::as_str);
        let stem = match self.mode.artifacts.first() {
            Some((Format::Jsonl, _)) => out.trim_end_matches(".jsonl"),
            _ => out,
        };
        self.mode
            .artifacts
            .iter()
            .map(|&(format, ext)| match ext {
                None => (out.to_string(), format),
                Some(ext) => (format!("{stem}.{ext}"), format),
            })
            .collect()
    }
}

impl Mode {
    /// The mode's usage line.
    pub fn usage(&self) -> String {
        let mut line = format!("expts {}", self.flag);
        for (name, default) in self.args {
            line.push_str(&match default {
                None => format!(" <{name}>"),
                Some(_) => format!(" [{name}]"),
            });
        }
        for flag in self.flags {
            line.push_str(&format!(" [{flag}]"));
        }
        line
    }
}

/// The usage text, one line per mode.
pub fn usage() -> String {
    let mut out = String::from("usage: expts <id>... | all\n");
    for mode in MODES {
        out.push_str(&format!(
            "       {}\n         {}\n",
            mode.usage(),
            mode.about
        ));
    }
    out.push_str(&format!(
        "experiments: {}\nscenarios: {}\n",
        crate::ALL_IDS.join(", "),
        llama_core::rooms::SCENARIOS.join(", ")
    ));
    out
}

/// Parses an `expts` command line (program name excluded).
pub fn parse(args: &[String]) -> Result<Command, String> {
    if args.is_empty() {
        return Ok(Command::Usage);
    }
    let Some(mode) = MODES.iter().find(|m| args.iter().any(|a| a == m.flag)) else {
        return Ok(Command::Experiments(if args == ["all"] {
            crate::ALL_IDS.iter().map(|id| id.to_string()).collect()
        } else {
            args.to_vec()
        }));
    };
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut rest = args.iter().filter(|a| *a != mode.flag);
    while let Some(arg) = rest.next() {
        if arg.starts_with("--") {
            let Some((name, takes_value)) = mode
                .flags
                .iter()
                .map(|spec| {
                    spec.split_once(' ')
                        .map_or((*spec, false), |(n, _)| (n, true))
                })
                .find(|(name, _)| name == arg)
            else {
                return Err(format!("unknown flag {arg} for {}", mode.flag));
            };
            let value = if takes_value {
                rest.next()
                    .ok_or_else(|| format!("{arg} needs a comma-separated list"))?
                    .clone()
            } else {
                String::new()
            };
            flags.push((name, value));
        } else if crate::ALL_IDS.contains(&arg.as_str()) || arg == "all" {
            return Err(format!(
                "experiment ids cannot be combined with {}; got {arg}",
                mode.flag
            ));
        } else {
            positional.push(arg.clone());
        }
    }
    if positional.len() > mode.args.len() {
        return Err(format!(
            "{} takes at most {} argument(s); got: {}",
            mode.flag,
            mode.args.len(),
            positional.join(" ")
        ));
    }
    for (name, default) in &mode.args[positional.len()..] {
        let Some(default) = default else {
            return Err(format!("{} needs a <{name}> argument", mode.flag));
        };
        let filled = default.replace("{0}", positional.first().map_or("", String::as_str));
        positional.push(filled);
    }
    Ok(Command::Mode(Invocation {
        mode,
        args: positional,
        flags,
    }))
}

/// The matrix axes an invocation asks for: the defaults, with each
/// given axis flag's comma list in place.
pub fn matrix_axes(inv: &Invocation) -> Result<matrix::MatrixAxes, String> {
    let mut axes = matrix::MatrixAxes::default_axes();
    let rooms = matrix::MatrixAxes::known_rooms();
    for (flag, raw) in &inv.flags {
        let list = || matrix::MatrixAxes::parse_list(flag, raw);
        match *flag {
            "--rooms" => axes.rooms = matrix::MatrixAxes::parse_names(flag, raw, &rooms)?,
            "--policy" => {
                axes.policies = matrix::MatrixAxes::parse_names(flag, raw, &matrix::POLICIES)?
            }
            "--fleets" => axes.fleets = list()?,
            "--devices" => axes.devices = list()?,
            "--threads" => axes.threads = list()?,
            _ => {}
        }
    }
    Ok(axes)
}

/// Prints `report`'s summary, writes its artifacts, and returns whether
/// its gate held (printing the mode's failure line when not). `Err`
/// when an artifact cannot be written.
pub fn emit(mode: &Mode, report: &dyn Report, files: &[(String, Format)]) -> Result<bool, String> {
    print!("{}", render(report, Format::Summary));
    for (path, format) in files {
        std::fs::write(path, render(report, *format))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    let pass = report.passes();
    if !pass {
        eprintln!("error: {}", mode.failure);
    }
    Ok(pass)
}

/// Runs a parsed mode; `--bench-all` runs every row with a
/// [`bench_file`](Mode::bench_file), in file order, into its directory.
pub fn execute(inv: &Invocation) -> Result<bool, String> {
    if let Some(run) = inv.mode.run {
        return match run(inv)? {
            Some(report) => emit(inv.mode, &*report, &inv.files()),
            None => Ok(true),
        };
    }
    let mut benches: Vec<_> = MODES
        .iter()
        .filter_map(|m| Some((m.bench_file?, m, m.run?)))
        .collect();
    benches.sort_by_key(|&(file, _, _)| file);
    let mut all_pass = true;
    for (file, mode, run) in benches {
        let sub = Invocation {
            mode,
            args: Vec::new(),
            flags: inv.flags.clone(),
        };
        let path = format!("{}/{file}", inv.args[0]);
        let report = run(&sub)?.ok_or_else(|| format!("{} writes no report", mode.flag))?;
        all_pass &= emit(mode, &*report, &[(path, Format::Json)])?;
    }
    if !all_pass {
        eprintln!("error: {}", inv.mode.failure);
    }
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    fn invocation(line: &str) -> Invocation {
        match parse_line(line) {
            Ok(Command::Mode(inv)) => inv,
            Ok(_) => panic!("{line}: not a mode"),
            Err(e) => panic!("{line}: {e}"),
        }
    }

    fn files(inv: &Invocation) -> Vec<String> {
        inv.files().into_iter().map(|(path, _)| path).collect()
    }

    #[test]
    fn every_ci_command_line_maps_to_its_mode_and_files() {
        let cases: [(&str, &str, &[&str], bool); 11] = [
            (
                "--bench-json target/bench-report.json --quick",
                "--bench-json",
                &["target/bench-report.json"],
                true,
            ),
            (
                "--panels target/panel-report.json --quick",
                "--panels",
                &["target/panel-report.json"],
                true,
            ),
            (
                "--mobility target/mobility-report.json --quick",
                "--mobility",
                &["target/mobility-report.json"],
                true,
            ),
            (
                "--sharded target/sharded-report.json --quick",
                "--sharded",
                &["target/sharded-report.json"],
                true,
            ),
            (
                "--joint target/joint-report.json --quick",
                "--joint",
                &["target/joint-report.json"],
                true,
            ),
            (
                "--matrix target/matrix --quick --rooms synthetic,conference-room \
                 --policy maxmin,favor,timedivision --fleets 2 --devices 4 \
                 --threads 1,2",
                "--matrix",
                &[
                    "target/matrix.md",
                    "target/matrix.csv",
                    "target/matrix.json",
                ],
                true,
            ),
            (
                "--trace-overhead office-floor target/trace-overhead.json",
                "--trace-overhead",
                &["target/trace-overhead.json"],
                false,
            ),
            (
                "--scenario office-floor target/scenario-office-floor.json",
                "--scenario",
                &["target/scenario-office-floor.json"],
                false,
            ),
            (
                "--scenario warehouse-aisle target/scenario-warehouse-aisle.json",
                "--scenario",
                &["target/scenario-warehouse-aisle.json"],
                false,
            ),
            (
                "--trace warehouse-aisle target/trace-warehouse-aisle.jsonl",
                "--trace",
                &[
                    "target/trace-warehouse-aisle.jsonl",
                    "target/trace-warehouse-aisle.json",
                ],
                false,
            ),
            (
                "--chaos office-floor target/chaos-office-floor.json --joint",
                "--chaos",
                &["target/chaos-office-floor.json"],
                false,
            ),
        ];
        for (line, flag, expected, quick) in cases {
            let inv = invocation(line);
            assert_eq!(inv.mode.flag, flag, "{line}");
            assert_eq!(files(&inv), expected, "{line}");
            assert_eq!(inv.has("--quick"), quick, "{line}");
        }
        let room = invocation("--scenario conference-room target/scenario-conference-room.json");
        assert_eq!(
            room.args,
            ["conference-room", "target/scenario-conference-room.json"]
        );
    }

    #[test]
    fn matrix_flags_fill_the_axes() {
        let inv = invocation(
            "--matrix target/matrix --quick --rooms synthetic,conference-room \
             --policy maxmin,favor,timedivision --fleets 2 --devices 4 --threads 1,2",
        );
        let axes = matrix_axes(&inv).unwrap();
        assert_eq!(axes.rooms, ["synthetic", "conference-room"]);
        assert_eq!(axes.policies, ["maxmin", "favor", "timedivision"]);
        assert_eq!(axes.fleets, [2]);
        assert_eq!(axes.devices, [4]);
        assert_eq!(axes.threads, [1, 2]);
        assert!(matrix_axes(&invocation("--matrix --fleets 0")).is_err());
        assert!(matrix_axes(&invocation("--matrix --policy fairness")).is_err());
        assert!(parse_line("--matrix --rooms").is_err());
    }

    #[test]
    fn chaos_takes_joint_as_its_smoke_flag() {
        let inv = invocation("--chaos office-floor p --joint");
        assert_eq!(inv.mode.flag, "--chaos");
        assert!(inv.has("--joint"));
        assert_eq!(inv.args, ["office-floor", "p"]);
        assert_eq!(files(&inv), ["p"]);
        // Alone, --joint is its own mode.
        assert_eq!(invocation("--joint --quick").mode.flag, "--joint");
    }

    #[test]
    fn defaults_fill_from_the_first_positional() {
        assert_eq!(
            files(&invocation("--chaos warehouse-aisle")),
            ["target/chaos-warehouse-aisle.json"]
        );
        assert_eq!(
            files(&invocation("--trace-overhead")),
            ["target/trace-overhead-office-floor.json"]
        );
        assert_eq!(
            files(&invocation("--trace office-floor")),
            [
                "target/trace-office-floor.jsonl",
                "target/trace-office-floor.json"
            ]
        );
        assert_eq!(
            files(&invocation("--bench-json")),
            ["target/bench-report.json"]
        );
        // Only a log's companions drop the `.jsonl`; any other base keeps it.
        assert_eq!(
            files(&invocation("--trace office-floor t.jsonl")),
            ["t.jsonl", "t.json"]
        );
        assert_eq!(
            files(&invocation("--trace office-floor t.log")),
            ["t.log", "t.log.json"]
        );
        assert_eq!(
            files(&invocation("--matrix m.jsonl")),
            ["m.jsonl.md", "m.jsonl.csv", "m.jsonl.json"]
        );
        assert_eq!(invocation("--bench-all --quick").args, ["."]);
        assert_eq!(invocation("--calibrate-fig20").args, ["480"]);
        assert!(files(&invocation("--calibrate-fig20 12")).is_empty());
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        assert!(parse_line("--bench-json fig16").is_err());
        assert!(parse_line("--bench-json all").is_err());
        assert!(parse_line("--bench-json --fast").is_err());
        assert!(parse_line("--sharded a.json b.json").is_err());
        assert!(parse_line("--sharded --joint").is_err());
        assert!(parse_line("--scenario").is_err());
        assert!(parse_line("--trace").is_err());
        assert!(parse_line("--calibrate-fig20 --quick").is_err());
    }

    #[test]
    fn ids_and_all_are_experiments() {
        assert!(matches!(parse_line(""), Ok(Command::Usage)));
        let ids = |line| match parse_line(line) {
            Ok(Command::Experiments(ids)) => ids,
            _ => panic!("{line}: not experiments"),
        };
        assert_eq!(ids("fig16 alg1"), ["fig16", "alg1"]);
        assert_eq!(ids("all").len(), crate::ALL_IDS.len());
        assert_eq!(ids("fig99"), ["fig99"]);
    }

    #[test]
    fn bench_all_covers_every_committed_reference() {
        let mut files: Vec<&str> = MODES.iter().filter_map(|m| m.bench_file).collect();
        files.sort_unstable();
        assert_eq!(
            files,
            [
                "BENCH_PR2.json",
                "BENCH_PR4.json",
                "BENCH_PR5.json",
                "BENCH_PR8.json",
                "BENCH_PR9.json"
            ]
        );
        let flags: Vec<&str> = MODES.iter().map(|m| m.flag).collect();
        let usage = usage();
        assert!(flags.iter().all(|f| usage.contains(f)));
    }
}
