//! `expts` — regenerate the paper's tables and figures from the command
//! line, and run the gates that time and check the serving stack.
//!
//! ```text
//! expts                 # usage: every mode, experiment and scenario
//! expts all             # run every experiment (slow; fig15/21 sweep full grids)
//! expts fig16 alg1      # run a selection
//! expts --<mode> ...    # one gate: prints a summary, writes its artifacts,
//!                       # exits non-zero when the gate fails
//! ```
//!
//! The modes, their arguments and their artifacts live in one table,
//! `llama_bench::cli::MODES`.

use std::env;
use std::process::ExitCode;

use llama_bench::cli::{self, Command};

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", cli::usage());
            return ExitCode::FAILURE;
        }
    };
    let ok = match command {
        Command::Usage => {
            eprint!("{}", cli::usage());
            true
        }
        Command::Experiments(ids) => ids.iter().fold(true, |ok, id| match llama_bench::run(id) {
            Ok(report) => {
                println!("{report}");
                ok
            }
            Err(e) => {
                eprintln!("error: {e}");
                false
            }
        }),
        Command::Mode(inv) => cli::execute(&inv).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            false
        }),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
