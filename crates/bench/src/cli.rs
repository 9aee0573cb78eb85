//! One argument parser for every experiment.
//!
//! Each experiment of the [`experiments`](crate::experiments) registry
//! declares its flags as a [`Cli`] value: every experiment gets
//! `--quick`, `--jobs N` and `--help` for free, and opts into the flags
//! it actually supports (`--check`, `--trace`, `--out` and the
//! fault-plan `--seed`).
//! Unrecognized flags are rejected — an experiment never silently ignores
//! a flag it does not implement.
//!
//! ```
//! use bench_suite::cli::{Cli, Parse};
//!
//! let cli = Cli::new("fig5", "Figure 5 — Autocorrelation speedup");
//! let args = ["--quick".to_string(), "--jobs=2".to_string()];
//! let Ok(Parse::Run(args)) = cli.parse_from(&args) else { panic!("parses") };
//! assert!(args.quick);
//! assert_eq!(args.runner.jobs(), 2);
//! ```

use cmp_sim::parse_u64_flex;

use crate::sweep::SweepRunner;

/// Default fault-plan seed for `--seed` (an arbitrary committed constant:
/// the point is that every run without an explicit seed replays the same
/// chaos schedule).
pub const DEFAULT_SEED: u64 = 0x5eed_ba44_1e4a_0001;

/// Flag declaration for one experiment: the universal flags plus
/// whichever optional ones the experiment supports. The builders are
/// `const`, so the registry is a static table.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    name: &'static str,
    about: &'static str,
    check: bool,
    trace: bool,
    out: Option<&'static str>,
    seed: bool,
}

/// Parsed command line, with defaults filled in for every flag the
/// experiment did not receive (and [`DEFAULT_SEED`] when the experiment
/// does not even declare `--seed`, so downstream code can read it
/// unconditionally).
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// `--quick`: shrink problem sizes/rep counts for a smoke run.
    pub quick: bool,
    /// `--check`: assert committed digests, exit non-zero on mismatch.
    pub check: bool,
    /// Worker pool sized by `--jobs N` (default: all host threads).
    pub runner: SweepRunner,
    /// `--trace PREFIX`, if given.
    pub trace: Option<String>,
    /// `--out PATH`, defaulted to the experiment's declared output path.
    pub out: Option<String>,
    /// `--seed S`: fault-plan seed, decimal or `0x` hex.
    pub seed: u64,
}

/// Outcome of [`Cli::parse_from`]: either a parsed argument set or a
/// request for the usage text.
#[derive(Debug, Clone)]
pub enum Parse {
    /// Flags parsed; run the experiment.
    Run(BenchArgs),
    /// `--help`/`-h` was present; print [`Cli::usage`] and exit 0.
    Help,
}

impl Cli {
    /// A parser accepting the universal flags (`--quick`, `--jobs N`,
    /// `--help`) for the experiment `name`, described by `about` in the
    /// help text.
    pub const fn new(name: &'static str, about: &'static str) -> Cli {
        Cli {
            name,
            about,
            check: false,
            trace: false,
            out: None,
            seed: false,
        }
    }

    /// Accept `--check` (digest assertion mode).
    #[must_use]
    pub const fn with_check(mut self) -> Cli {
        self.check = true;
        self
    }

    /// Accept `--trace PREFIX`.
    #[must_use]
    pub const fn with_trace(mut self) -> Cli {
        self.trace = true;
        self
    }

    /// Accept `--out PATH`, defaulting to `default_path` when absent.
    #[must_use]
    pub const fn with_out(mut self, default_path: &'static str) -> Cli {
        self.out = Some(default_path);
        self
    }

    /// Accept the fault-plan seed `--seed S`.
    #[must_use]
    pub const fn with_seed(mut self) -> Cli {
        self.seed = true;
        self
    }

    /// The experiment name this parser was declared for.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The one-line description shown in the help text.
    pub fn about(&self) -> &'static str {
        self.about
    }

    /// The full help text for this experiment's declared flags.
    pub fn usage(&self) -> String {
        let mut flags = String::from("[--quick] [--jobs N]");
        if self.check {
            flags.push_str(" [--check]");
        }
        if self.trace {
            flags.push_str(" [--trace PREFIX]");
        }
        if self.out.is_some() {
            flags.push_str(" [--out PATH]");
        }
        if self.seed {
            flags.push_str(" [--seed S]");
        }
        let mut text = format!(
            "Usage: fastbar {} {flags} [--help]\n\n{}\n\nOptions:\n      \
             --quick        shrink problem sizes for a fast smoke run\n      \
             --jobs N       worker threads for the sweep (default: all host threads)\n",
            self.name, self.about
        );
        if self.check {
            text.push_str(
                "      --check        assert the committed stats digests; exit non-zero on mismatch\n",
            );
        }
        if self.trace {
            text.push_str(
                "      --trace PREFIX stream Chrome traces to PREFIX.<mechanism>.trace.json\n",
            );
        }
        if let Some(default) = self.out {
            text.push_str(&format!(
                "      --out PATH     write the JSON document to PATH (default: {default})\n"
            ));
        }
        if self.seed {
            text.push_str(&format!(
                "      --seed S       fault-plan seed, decimal or 0x hex (default: {DEFAULT_SEED:#x})\n"
            ));
        }
        text.push_str("  -h, --help         print this help\n");
        text
    }

    /// Parse an argument list (the words after the experiment name).
    ///
    /// # Errors
    ///
    /// Returns a one-line message for an unrecognized flag, a missing or
    /// malformed value, an inline value on a boolean flag
    /// (`--quick=false`), or a positional argument (no experiment takes
    /// any).
    pub fn parse_from(&self, args: &[String]) -> Result<Parse, String> {
        let mut parsed = BenchArgs {
            quick: false,
            check: false,
            runner: SweepRunner::available(),
            trace: None,
            out: self.out.map(String::from),
            seed: DEFAULT_SEED,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f, Some(v.to_string())),
                None => (arg.as_str(), None),
            };
            let mut value = |flag: &str| {
                inline
                    .clone()
                    .or_else(|| it.next().cloned())
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            let boolean = |flag: &str| match &inline {
                Some(v) => Err(format!("{flag} takes no value, got {v:?}")),
                None => Ok(true),
            };
            match flag {
                "--help" | "-h" => {
                    boolean(flag)?;
                    return Ok(Parse::Help);
                }
                "--quick" => parsed.quick = boolean(flag)?,
                "--check" if self.check => parsed.check = boolean(flag)?,
                "--jobs" => {
                    let v = value("--jobs")?;
                    let jobs: usize =
                        v.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                            format!("--jobs: expected a positive integer, got {v:?}")
                        })?;
                    parsed.runner = SweepRunner::new(jobs);
                }
                "--trace" if self.trace => parsed.trace = Some(value("--trace")?),
                "--out" if self.out.is_some() => parsed.out = Some(value("--out")?),
                "--seed" if self.seed => {
                    let v = value("--seed")?;
                    parsed.seed = parse_u64_flex(&v)
                        .ok_or_else(|| format!("--seed: expected decimal or 0x hex, got {v:?}"))?;
                }
                _ => return Err(format!("unrecognized argument {arg:?} (try --help)")),
            }
        }
        Ok(Parse::Run(parsed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn run(cli: &Cli, args: &[&str]) -> Result<BenchArgs, String> {
        match cli.parse_from(&strings(args))? {
            Parse::Run(a) => Ok(a),
            Parse::Help => Err("help requested".into()),
        }
    }

    #[test]
    fn universal_flags_parse() {
        let cli = Cli::new("t", "test binary");
        let a = run(&cli, &["--quick", "--jobs", "3"]).unwrap();
        assert!(a.quick);
        assert!(!a.check);
        assert_eq!(a.runner.jobs(), 3);
        assert_eq!(a.seed, DEFAULT_SEED);
        let b = run(&cli, &["--jobs=2"]).unwrap();
        assert_eq!(b.runner.jobs(), 2);
        assert!(!b.quick);
    }

    #[test]
    fn undeclared_flags_are_rejected() {
        let cli = Cli::new("t", "test binary");
        for flags in [
            &["--check"][..],
            &["--trace", "x"],
            &["--out", "x"],
            &["--faults", "3"],
            &["--seed", "1"],
            &["--frobnicate"],
            &["positional"],
        ] {
            let err = run(&cli, flags).unwrap_err();
            assert!(err.contains("unrecognized"), "{flags:?}: {err}");
        }
    }

    #[test]
    fn declared_flags_parse_with_defaults() {
        let cli = Cli::new("t", "test binary")
            .with_check()
            .with_trace()
            .with_out("OUT.json")
            .with_seed();
        let a = run(&cli, &[]).unwrap();
        assert!(!a.check);
        assert_eq!(a.trace, None);
        assert_eq!(a.out.as_deref(), Some("OUT.json"));
        let b = run(
            &cli,
            &[
                "--check", "--trace", "t.json", "--out", "o.json", "--seed", "0x2a",
            ],
        )
        .unwrap();
        assert!(b.check);
        assert_eq!(b.trace.as_deref(), Some("t.json"));
        assert_eq!(b.out.as_deref(), Some("o.json"));
        assert_eq!(b.seed, 0x2a);
        let c = run(&cli, &["--seed", "42"]).unwrap();
        assert_eq!(c.seed, 42);
    }

    #[test]
    fn bad_values_report_the_flag() {
        let cli = Cli::new("t", "test binary").with_seed().with_check();
        for (flags, needle) in [
            (&["--jobs"][..], "--jobs"),
            (&["--jobs", "0"], "--jobs"),
            (&["--jobs", "many"], "--jobs"),
            (&["--seed", "0xZZ"], "--seed"),
            (&["--seed", "0x+1f"], "--seed"),
            (&["--seed", "+7"], "--seed"),
            (&["--seed"], "--seed"),
            // Boolean flags take no inline value: `--quick=false` must not
            // quietly mean `--quick`.
            (&["--quick=false"], "--quick"),
            (&["--check=no"], "--check"),
            (&["--help=yes"], "--help"),
        ] {
            let err = run(&cli, flags).unwrap_err();
            assert!(err.contains(needle), "{flags:?}: {err}");
        }
    }

    #[test]
    fn help_short_circuits_and_usage_lists_declared_flags() {
        let cli = Cli::new("t", "test binary").with_seed();
        assert!(matches!(
            cli.parse_from(&strings(&["--quick", "--help"])).unwrap(),
            Parse::Help
        ));
        assert!(matches!(
            cli.parse_from(&strings(&["-h"])).unwrap(),
            Parse::Help
        ));
        let usage = cli.usage();
        assert!(usage.contains("test binary"));
        assert!(usage.contains("--seed"));
        assert!(!usage.contains("--check"));
        assert!(!usage.contains("--trace"));
        let full = Cli::new("t", "x").with_check().with_trace().with_out("O");
        let usage = full.usage();
        assert!(usage.contains("--check"));
        assert!(usage.contains("--trace"));
        assert!(usage.contains("default: O"));
    }
}
