//! `fastbar <experiment> [flags]`: regenerate one table, figure or JSON
//! document of the evaluation (see [`bench_suite::experiments`]).
//!
//! Prints the experiment's report on stdout. Exits 1 when the experiment
//! fails, 2 on a usage error; with no arguments or `--help` it lists the
//! experiments.

use std::process::ExitCode;

use bench_suite::cli::Parse;
use bench_suite::experiments::{find, listing};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => {
            print!("{}", listing());
            return ExitCode::SUCCESS;
        }
        Some(name) => name,
    };
    let Some(experiment) = find(name) else {
        eprintln!("fastbar: unknown experiment {name:?}\n\n{}", listing());
        return ExitCode::from(2);
    };
    match experiment.cli.parse_from(&args[1..]) {
        Ok(Parse::Help) => print!("{}", experiment.cli.usage()),
        Ok(Parse::Run(parsed)) => match (experiment.run)(&parsed) {
            Ok(report) => print!("{report}"),
            Err(e) => {
                eprintln!("fastbar {name}: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("fastbar {name}: {e}\n\n{}", experiment.cli.usage());
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
