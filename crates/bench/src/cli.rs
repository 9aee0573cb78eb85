//! One argument parser for every experiment.
//!
//! Each experiment of the [`experiments`](crate::experiments) registry
//! declares its flags as a [`Cli`] value: every experiment gets
//! `--quick`, `--jobs N` and `--help` for free, and opts into the flags
//! it actually supports (`--check`, `--trace`, `--out`, the
//! fault-injection pair `--faults`/`--seed`, and named switches).
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

use crate::sweep::SweepRunner;

/// Default fault-plan seed for `--seed` (an arbitrary committed constant:
/// the point is that every run without an explicit seed replays the same
/// chaos schedule).
pub const DEFAULT_SEED: u64 = 0x5eed_ba44_1e4a_0001;

/// Most boolean switches one experiment can declare via
/// [`Cli::with_switch`].
const MAX_SWITCHES: usize = 4;

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
    faults: bool,
    switches: [Option<(&'static str, &'static str)>; MAX_SWITCHES],
}

/// Parsed command line, with defaults filled in for every flag the
/// experiment did not receive (and `0`/[`DEFAULT_SEED`] for fault flags
/// the experiment does not even declare, so downstream code can read them
/// unconditionally).
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// `--quick`: shrink problem sizes/rep counts for a smoke run.
    pub quick: bool,
    /// `--check`: assert committed digests, exit non-zero on mismatch.
    pub check: bool,
    /// Worker pool sized by `--jobs N` (default: all host threads).
    pub runner: SweepRunner,
    /// `--trace PATH` (or prefix), if given.
    pub trace: Option<String>,
    /// `--out PATH`, defaulted to the experiment's declared output path.
    pub out: Option<String>,
    /// `--faults N`: scheduled fault events per run (default 0).
    pub faults: usize,
    /// `--seed S`: fault-plan seed, decimal or `0x` hex.
    pub seed: u64,
    /// Declared boolean switches that were present, by flag spelling.
    switches: Vec<&'static str>,
}

impl BenchArgs {
    /// Whether the declared boolean switch `flag` (e.g. `"--mc"`) was
    /// present on the command line.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }
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
            faults: false,
            switches: [None; MAX_SWITCHES],
        }
    }

    /// Accept `--check` (digest assertion mode).
    #[must_use]
    pub const fn with_check(mut self) -> Cli {
        self.check = true;
        self
    }

    /// Accept `--trace PATH`.
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

    /// Accept the fault-injection pair `--faults N` and `--seed S`.
    #[must_use]
    pub const fn with_faults(mut self) -> Cli {
        self.faults = true;
        self
    }

    /// Accept an experiment-specific boolean switch (e.g. `--mc`), read
    /// back via [`BenchArgs::switch`]. `flag` must include the `--`
    /// prefix.
    ///
    /// # Panics
    ///
    /// A flag without the `--` prefix or more than four declared switches
    /// (declaration-time bugs, caught at compile time in a `const`).
    #[must_use]
    pub const fn with_switch(mut self, flag: &'static str, help: &'static str) -> Cli {
        let bytes = flag.as_bytes();
        assert!(
            bytes.len() > 2 && bytes[0] == b'-' && bytes[1] == b'-',
            "a switch must start with --"
        );
        let mut slot = 0;
        while self.switches[slot].is_some() {
            slot += 1;
            assert!(slot < MAX_SWITCHES, "too many declared switches");
        }
        self.switches[slot] = Some((flag, help));
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
            flags.push_str(" [--trace PATH]");
        }
        if self.out.is_some() {
            flags.push_str(" [--out PATH]");
        }
        if self.faults {
            flags.push_str(" [--faults N] [--seed S]");
        }
        for (flag, _) in self.switches.iter().flatten() {
            flags.push_str(&format!(" [{flag}]"));
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
            text.push_str("      --trace PATH   stream a Chrome trace to PATH\n");
        }
        if let Some(default) = self.out {
            text.push_str(&format!(
                "      --out PATH     write the JSON document to PATH (default: {default})\n"
            ));
        }
        if self.faults {
            text.push_str(&format!(
                "      --faults N     scheduled fault events per run (default: 0)\n      \
                 --seed S       fault-plan seed, decimal or 0x hex (default: {DEFAULT_SEED:#x})\n"
            ));
        }
        for (flag, help) in self.switches.iter().flatten() {
            text.push_str(&format!("      {flag:<14} {help}\n"));
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
            faults: 0,
            seed: DEFAULT_SEED,
            switches: Vec::new(),
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
                "--faults" if self.faults => {
                    let v = value("--faults")?;
                    parsed.faults = v
                        .parse()
                        .map_err(|_| format!("--faults: expected a count, got {v:?}"))?;
                }
                "--seed" if self.faults => {
                    let v = value("--seed")?;
                    parsed.seed = parse_seed(&v)
                        .ok_or_else(|| format!("--seed: expected decimal or 0x hex, got {v:?}"))?;
                }
                _ => {
                    let Some((declared, _)) = self
                        .switches
                        .iter()
                        .flatten()
                        .find(|(declared, _)| *declared == flag)
                    else {
                        return Err(format!("unrecognized argument {arg:?} (try --help)"));
                    };
                    boolean(flag)?;
                    parsed.switches.push(declared);
                }
            }
        }
        Ok(Parse::Run(parsed))
    }
}

/// Parse a seed as decimal or `0x`-prefixed hex.
fn parse_seed(v: &str) -> Option<u64> {
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
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
        assert_eq!(a.faults, 0);
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
            .with_faults();
        let a = run(&cli, &[]).unwrap();
        assert!(!a.check);
        assert_eq!(a.trace, None);
        assert_eq!(a.out.as_deref(), Some("OUT.json"));
        let b = run(
            &cli,
            &[
                "--check", "--trace", "t.json", "--out", "o.json", "--faults", "7", "--seed",
                "0x2a",
            ],
        )
        .unwrap();
        assert!(b.check);
        assert_eq!(b.trace.as_deref(), Some("t.json"));
        assert_eq!(b.out.as_deref(), Some("o.json"));
        assert_eq!(b.faults, 7);
        assert_eq!(b.seed, 0x2a);
        let c = run(&cli, &["--seed", "42"]).unwrap();
        assert_eq!(c.seed, 42);
    }

    #[test]
    fn declared_switches_parse_and_undeclared_ones_are_rejected() {
        let cli = Cli::new("t", "test binary")
            .with_switch("--mc", "run the model-checker layer")
            .with_switch("--json", "stream findings as JSON lines");
        let a = run(&cli, &["--mc", "--quick"]).unwrap();
        assert!(a.switch("--mc"));
        assert!(!a.switch("--json"));
        let b = run(&cli, &["--json", "--mc"]).unwrap();
        assert!(b.switch("--mc") && b.switch("--json"));
        let err = run(&cli, &["--verbose"]).unwrap_err();
        assert!(err.contains("unrecognized"));
        // A switch declared by one experiment stays rejected by another.
        let plain = Cli::new("t", "test binary");
        assert!(run(&plain, &["--mc"]).unwrap_err().contains("unrecognized"));
        let usage = cli.usage();
        assert!(usage.contains("[--mc]"));
        assert!(usage.contains("stream findings as JSON lines"));
    }

    #[test]
    fn bad_values_report_the_flag() {
        let cli = Cli::new("t", "test binary")
            .with_faults()
            .with_check()
            .with_switch("--mc", "run the model-checker layer");
        for (flags, needle) in [
            (&["--jobs"][..], "--jobs"),
            (&["--jobs", "0"], "--jobs"),
            (&["--jobs", "many"], "--jobs"),
            (&["--faults", "-1"], "--faults"),
            (&["--seed", "0xZZ"], "--seed"),
            (&["--seed"], "--seed"),
            // Boolean flags take no inline value: `--quick=false` must not
            // quietly mean `--quick`.
            (&["--quick=false"], "--quick"),
            (&["--check=no"], "--check"),
            (&["--quick", "--mc=no"], "--mc"),
            (&["--help=yes"], "--help"),
        ] {
            let err = run(&cli, flags).unwrap_err();
            assert!(err.contains(needle), "{flags:?}: {err}");
        }
    }

    #[test]
    fn help_short_circuits_and_usage_lists_declared_flags() {
        let cli = Cli::new("t", "test binary").with_faults();
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
        assert!(usage.contains("--faults"));
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
