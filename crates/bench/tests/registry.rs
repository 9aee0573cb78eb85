//! The `fastbar` experiment registry: unique names, a parsable `--help`
//! for every entry, reports that do not depend on the host job count, and
//! the binary's exit-code contract.

use std::process::Command;

use bench_suite::cli::Parse;
use bench_suite::experiments::{find, EXPERIMENTS};

fn parse(name: &str, args: &[&str]) -> Result<Parse, String> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    find(name).expect("registered").cli.parse_from(&args)
}

fn run(name: &str, args: &[&str]) -> String {
    let Ok(Parse::Run(parsed)) = parse(name, args) else {
        panic!("{name} {args:?} does not parse to a run")
    };
    (find(name).expect("registered").run)(&parsed).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn names_are_unique_and_every_help_parses() {
    let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.cli.name()).collect();
    assert_eq!(names.len(), 14);
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
    for e in &EXPERIMENTS {
        let name = e.cli.name();
        assert!(
            matches!(parse(name, &["--help"]), Ok(Parse::Help)),
            "{name}"
        );
        let usage = e.cli.usage();
        assert!(
            usage.starts_with(&format!("Usage: fastbar {name} ")),
            "{usage}"
        );
        assert!(usage.contains(e.cli.about()), "{usage}");
        assert!(std::ptr::eq(find(name).expect("found by name"), e));
    }
    assert!(
        find("fig4_latency").is_none(),
        "names are the artifact stems"
    );
}

/// The reports promise byte-identical output across `--jobs` values: the
/// host job count must never reach stdout.
#[test]
fn reports_are_identical_across_job_counts() {
    for name in ["fig4", "fig7"] {
        let one = run(name, &["--quick", "--jobs", "1"]);
        let two = run(name, &["--quick", "--jobs", "2"]);
        assert_eq!(one, two, "{name}: report depends on --jobs");
        assert!(one.contains("\n----"), "{name}: report has a table\n{one}");
    }
}

#[test]
fn binary_lists_experiments_and_reports_usage_errors() {
    let fastbar = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_fastbar"))
            .args(args)
            .output()
            .expect("fastbar runs")
    };
    for args in [&[][..], &["--help"]] {
        let out = fastbar(args);
        assert!(out.status.success(), "{args:?}");
        let listing = String::from_utf8(out.stdout).expect("utf-8");
        for e in &EXPERIMENTS {
            assert!(
                listing.contains(&format!("  {} ", e.cli.name())),
                "{listing}"
            );
        }
    }
    let help = fastbar(&["verify", "--help"]);
    assert!(help.status.success());
    assert!(String::from_utf8_lossy(&help.stdout).contains("--mc"));
    for args in [
        &["fig99"][..],
        &["fig7", "--quick=false"],
        &["fig7", "--frobnicate"],
        &["verify", "--quick", "--mc=no"],
    ] {
        let out = fastbar(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
    }
}
