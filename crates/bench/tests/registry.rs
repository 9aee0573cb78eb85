//! The `fastbar` experiment registry: unique names, a parsable `--help`
//! for every entry, reports and documents that do not depend on the host
//! job count, and the binary's exit-code contract.

use std::process::Command;

use bench_suite::cli::Parse;
use bench_suite::experiments::{find, EXPERIMENTS, RUNS_SCHEMA};
use cmp_sim::{fnv64, Json};

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

/// A result document is one list of run records whose only host-dependent
/// field is `jobs`, and every record's `spec_digest` is the content
/// address of its own `spec`.
#[test]
fn documents_are_run_records_identical_across_job_counts() {
    let doc = |jobs: &str| {
        let path = std::env::temp_dir().join(format!(
            "fastbar_registry_scale_{}_{jobs}.json",
            std::process::id()
        ));
        let path = path.to_str().expect("utf-8 temp path").to_string();
        run("fig_scale", &["--quick", "--jobs", jobs, "--out", &path]);
        let text = std::fs::read_to_string(&path).expect("document written");
        std::fs::remove_file(&path).ok();
        Json::parse(&text).unwrap_or_else(|e| panic!("--jobs {jobs}: {e}"))
    };
    let (one, two) = (doc("1"), doc("2"));
    for (jobs, doc) in [(1, &one), (2, &two)] {
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(RUNS_SCHEMA));
        assert_eq!(
            doc.get("experiment").and_then(Json::as_str),
            Some("fig_scale")
        );
        assert_eq!(doc.get("jobs").and_then(Json::as_u64), Some(jobs));
    }
    let without_jobs = |doc: &Json| match doc {
        Json::Obj(fields) => fields
            .iter()
            .filter(|(k, _)| k != "jobs")
            .cloned()
            .collect(),
        _ => panic!("a document is an object"),
    };
    let (a, b): (Vec<_>, Vec<_>) = (without_jobs(&one), without_jobs(&two));
    assert_eq!(a, b, "the documents differ beyond `jobs`");
    let runs = one.get("runs").expect("runs").items();
    assert_eq!(runs.len(), 2, "the quick grid has two points");
    for record in runs {
        let spec = record.get("spec").expect("spec");
        assert_eq!(
            record.get("spec_digest").and_then(Json::as_u64),
            Some(fnv64(spec.dump().as_bytes())),
            "{}",
            record.dump()
        );
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
        // `throughput --check` is the one pinned-digest gate.
        &["verify", "--check"],
        &["fig_scale", "--check"],
        &["chaos", "--check"],
    ] {
        let out = fastbar(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
    }
}
