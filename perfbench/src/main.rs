//! Run one workload of the fastbar benchmark and print its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run first makes one untimed warm-up pass in the workload's own
//! operation order, after which it reads the peak resident memory: the
//! seed's orders would make the allocator's peak vary. It then makes
//! timed passes, each in an order drawn from the seed, until `--seconds`
//! have passed since the start and each kind of pass ran at least three
//! times. A timing is each operation's fastest time over the passes,
//! summed over the operations ([`Timing`]). With `--trace 0` every timed
//! pass is untraced and the last line of standard output is a JSON
//! object with the end-to-end metrics. With `--trace 1` untraced and
//! traced passes alternate, the JSON carries the per-layer metrics, and
//! the spans are written to `perfbench/out/` when the run ends. The
//! lines before the JSON are the human-readable report.

use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cmp_sim::Lcg;
use fastbar_perfbench::counters::{ratio, Metric, CLASSES};
use fastbar_perfbench::host::peak_rss_mib;
use fastbar_perfbench::pass::{run_pass, Pass};
use fastbar_perfbench::report::{per_layer, result_json, write_spans, Timing};
use fastbar_perfbench::spans::Recorder;
use fastbar_perfbench::workload::{shuffled, Recorded, Workload, NAMES};

/// Fewest passes of each kind a run makes, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// The parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::named(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or_else(|| "--workload is required".to_string())?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    let recorded = Recorded::load();
    let mut rng = Lcg::new(args.seed);
    let mut rec = Recorder::new(args.trace);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let in_order: Vec<usize> = (0..w.ops.len()).collect();
    let warm_up = run_pass(w, &in_order, &recorded, false, &mut Recorder::new(false));
    let peak_rss = peak_rss_mib();
    while plain.len() < MIN_PASSES || start.elapsed() < budget {
        let order = shuffled(w.ops.len(), &mut rng);
        plain.push(run_pass(
            w,
            &order,
            &recorded,
            false,
            &mut Recorder::new(false),
        ));
        if args.trace {
            let order = shuffled(w.ops.len(), &mut rng);
            traced.push(run_pass(w, &order, &recorded, true, &mut rec));
        }
    }

    let passes: Vec<&Pass> = std::iter::once(&warm_up)
        .chain(&plain)
        .chain(&traced)
        .collect();
    let attempted: usize = passes.iter().map(|p| p.attempted).sum();
    let failed: usize = passes.iter().map(|p| p.failed).sum();
    let wall = Timing::of(&plain, |t| t.wall_s);
    let cpu = Timing::of(&plain, |t| t.cpu_s);
    let setup = Timing::of(&plain, |t| t.setup_s);
    println!(
        "perfbench {}: seed {}, 1 warm-up, {} untraced and {} traced passes of {} operations; \
         closed loop of 1 process and 1 thread on {} host CPUs",
        w.name,
        args.seed,
        plain.len(),
        traced.len(),
        w.ops.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!("  wall_s       {wall} s");
    println!("  cpu_s        {cpu} s");
    println!("  setup_s      {setup} s");
    println!("  peak_rss_mb  {peak_rss:.3} MiB");
    println!("  sim_cycles   {} cycles", warm_up.counters.cycles);
    println!(
        "  fail_share   {} ({failed} of {attempted} operations failed)",
        ratio(failed as f64, attempted as f64)
    );
    let failures: BTreeSet<&String> = passes.iter().flat_map(|p| &p.failures).collect();
    for failure in failures {
        println!("  FAILED {failure}");
    }
    if let (Some(chain), Some(c)) = (warm_up.chain, &w.chain) {
        println!("  digest chain {chain:#018x} (pinned {:#018x})", c.pinned);
    }
    for (op, digest) in w.ops.iter().zip(&warm_up.digests) {
        if let Some(pinned) = op.pinned {
            println!(
                "  {} digest {digest:#018x} (pinned {pinned:#018x})",
                op.label
            );
        }
    }
    let shares: Vec<String> = CLASSES
        .iter()
        .zip(warm_up.counters.class_shares())
        .map(|(class, share)| format!("{class} {share:.4}"))
        .collect();
    println!(
        "  simulated instructions by barrier class: {}",
        shares.join(", ")
    );

    let metrics = if args.trace {
        write_spans(&w.name, args.seed, rec.spans());
        per_layer(&plain, &traced, rec.spans())
    } else {
        vec![
            Metric::new("wall_s", wall.best, "s"),
            Metric::new("cpu_s", cpu.best, "s"),
            Metric::new("setup_s", setup.best, "s"),
            Metric::new("peak_rss_mb", peak_rss, "MiB"),
            Metric::new("sim_cycles", warm_up.counters.cycles as f64, "cycles"),
        ]
    };
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
