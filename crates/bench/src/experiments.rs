//! The experiment registry: every table, figure and JSON document of the
//! evaluation behind one `fastbar <name>` command.
//!
//! [`EXPERIMENTS`] is a static table. Each [`Experiment`] is the [`Cli`]
//! declaration of the flags it accepts (its name is the experiment's
//! name) plus a `run` function that returns the stdout report; files
//! named by `--out`/`--trace` are written as a side effect. Names are the
//! stems of the committed artifacts, so `fastbar <name> >
//! results/<name>.txt` regenerates each `results/` file.
//!
//! The kernel figures are data: `(label, WorkloadSpec)` rows handed to
//! [`sweep_grid`], which runs each row's sequential baseline and its
//! parallel version under every mechanism as [`RunSpec`]s. Figures 7, 8
//! and 10 share one vector-length sweep and Figures 5 and 6 one
//! speedup-by-mechanism table; only their workloads, sizes and footers
//! differ.
//!
//! Every report except `throughput` and `hotpath` (whose subject is host
//! time) is byte-identical across `--jobs` values: the sweeps are
//! deterministic and the host job count never reaches stdout (the JSON
//! documents record it in their `jobs` field).
//!
//! The four JSON documents (`fig_scale`, `throughput`, `chaos`, `verify`)
//! share one schema, [`RUNS_SCHEMA`]: a header, the experiment's own
//! fields, then one [`RunOutput::record`] per simulated run.

use std::fmt::Write as _;
use std::time::Instant;

use barrier_filter::{Barrier, BarrierMechanism, BarrierSystem};
use cmp_sim::{AddressSpace, ChromeTraceSink, Json, MachineBuilder, SimConfig, TraceSink};
use kernels::{OceanProxy, RunAttachments, RunOutput, RunSpec, WorkloadSpec};
use sim_isa::{Asm, Reg};

use crate::chaos::run_chaos;
use crate::cli::{BenchArgs, Cli};
use crate::kernel_runs::{speedup_table, sweep_grid, viterbi, SpeedupRow};
use crate::report::{f1, f2, table};
use crate::scale::run_scale;
use crate::throughput::{suite_digests, suite_specs, PINNED};
use crate::verify::{run_verify, stream_findings, VerifyKernel};

/// Append one formatted line to a report (`writeln!` into a `String`,
/// which cannot fail).
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($fmt:tt)*) => {{
        let _ = writeln!($out, $($fmt)*);
    }};
}

/// One registered experiment.
#[derive(Debug)]
pub struct Experiment {
    /// Name, help text and the flags the experiment accepts.
    pub cli: Cli,
    /// Run the experiment and return its stdout report.
    pub run: fn(&BenchArgs) -> Result<String, String>,
}

/// Every experiment, in the order `fastbar` lists them.
pub static EXPERIMENTS: [Experiment; 14] = [
    Experiment {
        cli: Cli::new(
            "table1",
            "Table 1 — best software-barrier speedups on 16 cores",
        ),
        run: table1,
    },
    Experiment {
        cli: Cli::new("fig4", "Figure 4 — average barrier latency vs core count").with_trace(),
        run: fig4,
    },
    Experiment {
        cli: Cli::new(
            "fig5",
            "Figure 5 — Autocorrelation speedup by barrier mechanism (16 cores)",
        ),
        run: fig5,
    },
    Experiment {
        cli: Cli::new(
            "fig6",
            "Figure 6 — Viterbi decoder speedup by barrier mechanism (16 cores)",
        ),
        run: fig6,
    },
    Experiment {
        cli: Cli::new(
            "fig7",
            "Figure 7 — Livermore Loop 2 cycles vs vector length",
        ),
        run: fig7,
    },
    Experiment {
        cli: Cli::new(
            "fig8",
            "Figure 8 — Livermore Loop 3 cycles vs vector length",
        ),
        run: fig8,
    },
    Experiment {
        cli: Cli::new(
            "fig10",
            "Figure 10 — Livermore Loop 6 cycles vs vector length",
        ),
        run: fig10,
    },
    Experiment {
        cli: Cli::new(
            "ocean",
            "§4.1 — coarse-grained (Ocean-like) barrier overhead",
        ),
        run: ocean,
    },
    Experiment {
        cli: Cli::new("ablations", "Design ablations called out in DESIGN.md"),
        run: ablations,
    },
    Experiment {
        cli: Cli::new(
            "fig_scale",
            "Scaling sweep 16 -> 1024 cores -> BENCH_scale.json",
        )
        .with_out("BENCH_scale.json"),
        run: fig_scale,
    },
    Experiment {
        cli: Cli::new(
            "hotpath",
            "Engine per-stage host cost profile -> results/hotpath.txt (serial, fixed sizes)",
        ),
        run: hotpath,
    },
    Experiment {
        cli: Cli::new(
            "throughput",
            "Pinned stats digests on both engines → BENCH_throughput.json",
        )
        .with_check()
        .with_trace()
        .with_out("BENCH_throughput.json"),
        run: throughput,
    },
    Experiment {
        cli: Cli::new(
            "chaos",
            "Fault-injection sweep — barrier recovery under OS interference (§3.3.3)",
        )
        .with_out("BENCH_chaos.json")
        .with_faults(),
        run: chaos,
    },
    Experiment {
        cli: Cli::new(
            "verify",
            "Static verifier + race detector + model checker over every kernel × mechanism \
             → BENCH_verify.json",
        )
        .with_out("BENCH_verify.json")
        .with_switch(
            "--mc",
            "explore every mechanism with the bounded model checker",
        )
        .with_switch("--json", "stream findings as one JSON object per line"),
        run: verify,
    },
];

/// The experiment registered as `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.cli.name() == name)
}

/// The experiment index `fastbar` prints with no arguments or `--help`.
pub fn listing() -> String {
    let mut out = String::from(
        "Usage: fastbar <experiment> [flags]\n\n\
         Regenerates the barrier-filter paper's tables and figures on the simulator.\n\
         `fastbar <experiment> --help` lists an experiment's flags.\n\nExperiments:\n",
    );
    for e in &EXPERIMENTS {
        outln!(out, "  {:<11} {}", e.cli.name(), e.cli.about());
    }
    out
}

/// Threads (= cores) of every kernel figure: the paper's 16-core CMP.
const THREADS: usize = 16;

/// Autocorrelation at `n` samples with the paper's 32 lags.
fn autocorr(n: usize) -> WorkloadSpec {
    WorkloadSpec::Autocorr { n, lags: 32 }
}

/// `"yes"`, or a loud marker when a paper claim fails to reproduce.
fn yes_or_mismatch(holds: bool) -> &'static str {
    if holds {
        "yes"
    } else {
        "NO (shape mismatch!)"
    }
}

/// Schema tag of every JSON document an experiment writes.
pub const RUNS_SCHEMA: &str = "fastbar-runs/v2";

/// The [`RUNS_SCHEMA`] document of experiment `name`: the header
/// (`schema`, `experiment`, `jobs`, `quick`), the experiment's own
/// `fields`, then `runs`, one record per simulated run.
fn runs_document<'a>(
    name: &'a str,
    args: &BenchArgs,
    fields: impl IntoIterator<Item = (&'a str, Json)>,
    runs: Vec<Json>,
) -> Json {
    Json::obj(
        [
            ("schema", RUNS_SCHEMA.into()),
            ("experiment", name.into()),
            ("jobs", args.runner.jobs().into()),
            ("quick", args.quick.into()),
        ]
        .into_iter()
        .chain(fields)
        .chain([("runs", Json::Arr(runs))]),
    )
}

/// The [`RunOutput::record`]s of `runs`.
fn records(runs: &[(RunSpec, RunOutput)]) -> Vec<Json> {
    runs.iter().map(|(spec, out)| out.record(spec)).collect()
}

/// Write a JSON document to `path`.
fn write_doc(path: &str, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.document()).map_err(|e| format!("writing {path}: {e}"))
}

/// The barrier mechanism a spec runs under, or `sequential`.
fn mechanism_name(spec: &RunSpec) -> String {
    spec.exec
        .mechanism
        .map_or("sequential".to_string(), |m| m.to_string())
}

// --- Table 1 and the kernel figures -------------------------------------

/// Table 1: speedups on a 16-core CMP with the *best software barrier*,
/// relative to sequential execution on one core. Paper: Livermore 2 →
/// 0.42, 3 → 1.52, 6 → 2.08, Autocorrelation → 3.86, Viterbi → 0.76
/// (Livermore at vector length 256). "Numbers less than 1 are
/// slowdowns."
fn table1(args: &BenchArgs) -> Result<String, String> {
    let (n_liv, n_ac, n_vit) = if args.quick {
        (64, 256, 64)
    } else {
        (256, 1024, 256)
    };
    let rows = sweep_grid(
        &args.runner,
        &[
            (
                format!("Livermore loop 2 (N={n_liv})"),
                WorkloadSpec::Loop2 { n: n_liv },
            ),
            (
                format!("Livermore loop 3 (N={n_liv})"),
                WorkloadSpec::Loop3 { n: n_liv },
            ),
            (
                format!("Livermore loop 6 (N={n_liv})"),
                WorkloadSpec::Loop6 { n: n_liv },
            ),
            (format!("EEMBC Autocorrelation (N={n_ac})"), autocorr(n_ac)),
            (format!("EEMBC Viterbi (bits={n_vit})"), viterbi(n_vit)),
        ],
        THREADS,
    )?;
    let mut out = String::new();
    outln!(
        out,
        "Table 1: best software-barrier speedup on 16 cores \
         (paper: 0.42 / 1.52 / 2.08 / 3.86 / 0.76)"
    );
    outln!(out);
    let header = [
        "kernel",
        "best sw barrier",
        "best filter",
        "paper (best sw)",
    ]
    .map(String::from);
    let paper = ["0.42", "1.52", "2.08", "3.86", "0.76"];
    let body: Vec<Vec<String>> = rows
        .iter()
        .zip(paper)
        .map(|(r, p)| {
            vec![
                r.label.clone(),
                f2(r.best_software_speedup()),
                f2(r.best_filter_speedup()),
                p.to_string(),
            ]
        })
        .collect();
    out.push_str(&table(&header, &body));
    outln!(out);
    outln!(out, "Full speedup matrix (all seven mechanisms):");
    outln!(out);
    out.push_str(&speedup_table(&rows));
    // The paper's headline claim: "the approach we will describe always
    // provides a speedup for the parallelized code for all of the
    // benchmarks."
    outln!(out);
    outln!(
        out,
        "filter barriers provide a speedup on every kernel: {}",
        yes_or_mismatch(rows.iter().all(|r| r.best_filter_speedup() > 1.0))
    );
    Ok(out)
}

/// One kernel's speedup over sequential under every mechanism (Figures 5
/// and 6): `title`, the mechanism table, then `footer`'s summary lines.
fn speedup_by_mechanism(
    args: &BenchArgs,
    title: String,
    row: (String, WorkloadSpec),
    footer: fn(&SpeedupRow) -> String,
) -> Result<String, String> {
    let rows = sweep_grid(&args.runner, &[row], THREADS)?;
    let row = &rows[0];
    let header = ["mechanism", "speedup"].map(String::from);
    let body: Vec<Vec<String>> = BarrierMechanism::ALL
        .iter()
        .map(|&m| vec![m.to_string(), f2(row.speedup(m))])
        .collect();
    Ok(format!(
        "{title}\n\n{}\n{}",
        table(&header, &body),
        footer(row)
    ))
}

/// Figure 5: Autocorrelation "parallelizes readily" — paper: 3.86× with
/// software combining barriers, 7.31× with the best filter, 7.98× with
/// the dedicated network.
fn fig5(args: &BenchArgs) -> Result<String, String> {
    let n = if args.quick { 512 } else { 2048 };
    speedup_by_mechanism(
        args,
        format!("Figure 5: Autocorrelation speedup over sequential, 16 cores (N={n}, lag=32)"),
        (format!("autocorr N={n} lag=32"), autocorr(n)),
        |row| {
            format!(
                "best software {:.2}x | best filter {:.2}x | dedicated network {:.2}x\n\
                 (paper: 3.86x software, 7.31x best filter, 7.98x dedicated network)\n",
                row.best_software_speedup(),
                row.best_filter_speedup(),
                row.speedup(BarrierMechanism::HwDedicated),
            )
        },
    )
}

/// Figure 6: the Viterbi decoder "shows more limited improvements" —
/// software barriers are slower than sequential; only lower-overhead
/// barriers give a speedup.
fn fig6(args: &BenchArgs) -> Result<String, String> {
    let bits = if args.quick { 128 } else { 512 };
    speedup_by_mechanism(
        args,
        format!(
            "Figure 6: Viterbi decoder speedup over sequential, 16 cores (K=5, {} states, \
             {bits} data bits)",
            kernels::Viterbi::new(bits).states()
        ),
        (format!("viterbi K=5 bits={bits}"), viterbi(bits)),
        |row| {
            let sw = row.best_software_speedup();
            let filt = row.best_filter_speedup();
            format!(
                "best software {sw:.2}x | best filter {filt:.2}x | dedicated {:.2}x\n\
                 software barriers are {} than sequential (paper: slower, 0.76x)\n\
                 filter barriers give a speedup: {} (paper: yes)\n",
                row.speedup(BarrierMechanism::HwDedicated),
                if sw < 1.0 {
                    "slower"
                } else {
                    "FASTER (shape mismatch!)"
                },
                yes_or_mismatch(filt > 1.0),
            )
        },
    )
}

/// Cycles per invocation of one Livermore loop on 16 cores versus vector
/// length (Figures 7, 8 and 10): `title`, the cycle table (sequential plus
/// every mechanism), then `footer`'s crossover lines over
/// `(N, row)` pairs.
fn vector_sweep(
    args: &BenchArgs,
    title: &str,
    workload: fn(usize) -> WorkloadSpec,
    (quick_sizes, full_sizes): (&[usize], &[usize]),
    footer: fn(&[(usize, SpeedupRow)]) -> String,
) -> Result<String, String> {
    let sizes = if args.quick { quick_sizes } else { full_sizes };
    let rows: Vec<(String, WorkloadSpec)> = sizes
        .iter()
        .map(|&n| {
            let w = workload(n);
            (format!("{} N={n}", w.kind()), w)
        })
        .collect();
    let grid: Vec<(usize, SpeedupRow)> = sizes
        .iter()
        .copied()
        .zip(sweep_grid(&args.runner, &rows, THREADS)?)
        .collect();
    let mut header = ["N", "sequential"].map(String::from).to_vec();
    header.extend(BarrierMechanism::ALL.iter().map(|m| m.to_string()));
    let body: Vec<Vec<String>> = grid
        .iter()
        .map(|(n, row)| {
            let mut cells = vec![n.to_string(), f1(row.sequential)];
            cells.extend(row.parallel.iter().map(|&(_, cycles)| f1(cycles)));
            cells
        })
        .collect();
    Ok(format!(
        "{title} on {THREADS} cores — cycles per invocation vs vector length\n\n{}\n{}",
        table(&header, &body),
        footer(&grid)
    ))
}

/// The first vector length at which `speedup` beats sequential.
fn crossover(grid: &[(usize, SpeedupRow)], speedup: fn(&SpeedupRow) -> f64) -> Option<usize> {
    grid.iter()
        .find(|(_, row)| speedup(row) > 1.0)
        .map(|&(n, _)| n)
}

/// A crossover length, or `none` when the sweep never crosses.
fn length_or_none(n: Option<usize>) -> String {
    n.map_or("none".into(), |n| n.to_string())
}

/// The full vector-length sweep of Figures 7 and 8.
const FULL_SIZES: &[usize] = &[16, 32, 64, 128, 256, 512, 1024];

/// Figure 7: Livermore Loop 2 — filter barriers do not beat sequential
/// "until vector lengths of 256 elements are reached", and the halving
/// parallelism per `do-while` stage gives "a qualitatively different
/// curvature" from loops 3 and 6.
fn fig7(args: &BenchArgs) -> Result<String, String> {
    vector_sweep(
        args,
        "Figure 7: Livermore Loop 2",
        |n| WorkloadSpec::Loop2 { n },
        (&[32, 64, 256], FULL_SIZES),
        |grid| match crossover(grid, SpeedupRow::best_filter_speedup) {
            Some(n) => format!("filter-barrier crossover at N = {n} (paper: 256)\n"),
            None => "no filter-barrier crossover in the sweep (paper: 256)\n".into(),
        },
    )
}

/// Figure 8: Livermore Loop 3 (inner product) — filter barriers beat
/// sequential at vector lengths "as short as 64 elements"; software
/// barriers need "vector lengths longer by a factor of two to four".
fn fig8(args: &BenchArgs) -> Result<String, String> {
    vector_sweep(
        args,
        "Figure 8: Livermore Loop 3",
        |n| WorkloadSpec::Loop3 { n },
        (&[32, 64, 256], FULL_SIZES),
        |grid| {
            format!(
                "filter crossover at N = {} (paper: 64); software crossover at N = {} \
                 (paper: 2-4x longer)\n",
                length_or_none(crossover(grid, SpeedupRow::best_filter_speedup)),
                length_or_none(crossover(grid, SpeedupRow::best_software_speedup)),
            )
        },
    )
}

/// Figure 10: Livermore Loop 6 (general linear recurrence) — filter
/// barriers beat sequential "at vector lengths as small as 64 elements"
/// and are "more than a factor of 3 faster" at 256.
fn fig10(args: &BenchArgs) -> Result<String, String> {
    vector_sweep(
        args,
        "Figure 10: Livermore Loop 6",
        |n| WorkloadSpec::Loop6 { n },
        (&[32, 64, 128], &[16, 32, 64, 128, 256]),
        |grid| {
            let mut out = format!(
                "filter crossover at N = {} (paper: 64)\n",
                length_or_none(crossover(grid, SpeedupRow::best_filter_speedup))
            );
            if let Some((_, row)) = grid.iter().find(|(n, _)| *n == 256) {
                outln!(
                    out,
                    "filter speedup at N = 256: {:.2}x (paper: more than 3x)",
                    row.best_filter_speedup()
                );
            }
            out
        },
    )
}

/// §4.1 contrast: coarse-grained barrier parallelism. SPLASH-2 Ocean
/// "executes only hundreds of dynamic barriers versus tens of millions of
/// instructions per thread", so a filter barrier improves the whole run by
/// only ~3.5%. The Ocean-like proxy (red-black relaxation, two barriers
/// per sweep) reports the same comparison.
fn ocean(args: &BenchArgs) -> Result<String, String> {
    // SPLASH-2 Ocean's default input is a 258x258 grid; at that size the
    // per-sweep stencil work dwarfs any barrier, which is the paper's point.
    let (g, sweeps) = if args.quick { (130, 8) } else { (258, 24) };
    let rows = sweep_grid(
        &args.runner,
        &[(
            format!("ocean {g}x{g}"),
            WorkloadSpec::Ocean { grid: g, sweeps },
        )],
        THREADS,
    )?;
    let row = &rows[0];
    let mut out = String::new();
    outln!(
        out,
        "Coarse-grained contrast (Ocean-like proxy): {g}x{g} grid, {sweeps} sweeps, \
         {} dynamic barriers",
        OceanProxy::new(g, sweeps).dynamic_barriers()
    );
    outln!(out);
    let body: Vec<Vec<String>> = row
        .parallel
        .iter()
        .map(|&(m, cycles)| vec![m.to_string(), f1(cycles), f2(row.sequential / cycles)])
        .collect();
    let header = ["mechanism", "cycles", "speedup vs seq"].map(String::from);
    out.push_str(&table(&header, &body));
    outln!(out);
    let sw = row.cycles(BarrierMechanism::SwCentral);
    let filt = BarrierMechanism::ALL
        .into_iter()
        .filter(|m| m.is_filter())
        .map(|m| row.cycles(m))
        .fold(f64::INFINITY, f64::min);
    let improvement = (sw - filt) / sw * 100.0;
    outln!(
        out,
        "whole-program improvement from replacing the centralized software barrier \
         with the best filter barrier: {improvement:.1}% (paper: ~3.5%)"
    );
    outln!(
        out,
        "=> at coarse granularity the barrier mechanism barely matters; the fine-grained \
         kernels of Figures 5-10 are where fast barriers pay off"
    );
    Ok(out)
}

/// Attachments that stream a parallel run's trace events to a Chrome
/// trace file at `path`, created (or truncated) now.
fn chrome_traced(path: &str) -> Result<RunAttachments<'static>, String> {
    let sink = ChromeTraceSink::create(path)
        .map_err(|e| format!("cannot create trace file {path:?}: {e}"))?;
    Ok(RunAttachments::observed(move |_: &Barrier| {
        Some(Box::new(sink) as Box<dyn TraceSink>)
    }))
}

// --- Figure 4, ablations and the scaling sweep --------------------------

/// The core count whose Figure 4 points are traced under `--trace`: a
/// full-sweep trace would be tens of megabytes per point, and 16 cores is
/// the configuration the paper's Figure 4 table centres on.
const TRACED_CORES: usize = 16;

/// Figure 4: average time per barrier versus core count (4–64 cores, one
/// thread per core), measured as the paper does — a loop of 64
/// consecutive barriers executed 64 times with no work between them.
/// `--trace PREFIX` streams a Chrome trace of each mechanism's 16-core
/// point to `PREFIX.<mechanism>.trace.json`; tracing never changes the
/// measured numbers.
fn fig4(args: &BenchArgs) -> Result<String, String> {
    let prefix = args.trace.as_deref();
    if let Some(prefix) = prefix {
        // Fail before the sweep, not mid-build inside a worker: trace
        // files land next to the prefix, so the prefix must be writable.
        let probe = format!("{prefix}.probe");
        std::fs::write(&probe, b"")
            .map_err(|e| format!("cannot write trace files at prefix {prefix:?}: {e}"))?;
        let _ = std::fs::remove_file(&probe);
    }
    let (inner, outer) = if args.quick { (16, 4) } else { (64, 64) };
    let core_counts = [4usize, 8, 16, 32, 64];
    let trace_path = |m: BarrierMechanism| prefix.map(|p| format!("{p}.{m}.trace.json"));
    let grid: Vec<(BarrierMechanism, usize)> = BarrierMechanism::ALL
        .into_iter()
        .flat_map(|m| core_counts.iter().map(move |&cores| (m, cores)))
        .collect();
    let points = args
        .runner
        .run_all(&grid, |_, &(mechanism, cores)| {
            let att = match trace_path(mechanism) {
                Some(path) if cores == TRACED_CORES => chrome_traced(&path)?,
                _ => RunAttachments::default(),
            };
            let spec = RunSpec::fig4(mechanism, cores, inner, outer);
            kernels::run_with(&spec, att)
                .map(|out| out.outcome)
                .map_err(|e| format!("{mechanism} @ {cores} cores: {e}"))
        })?
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;

    let mut header = vec!["mechanism".to_string()];
    header.extend(core_counts.iter().map(|c| format!("{c} cores")));
    let (mut rows, mut waits, mut spreads) = (Vec::new(), Vec::new(), Vec::new());
    for (mechanism, chunk) in BarrierMechanism::ALL
        .into_iter()
        .zip(points.chunks(core_counts.len()))
    {
        let mut row = vec![mechanism.to_string()];
        let mut wait_row = row.clone();
        let mut spread_row = row.clone();
        for p in chunk {
            row.push(f1(p.cycles_per_rep));
            wait_row.push(f1(p.bus_mean_wait));
            spread_row.push(format!(
                "{}/{}",
                f1(p.sim.episodes.mean_arrival_spread()),
                f1(p.sim.episodes.mean_release_fanout())
            ));
        }
        rows.push(row);
        waits.push(wait_row);
        spreads.push(spread_row);
    }
    let mut out = format!(
        "Figure 4: average cycles per barrier (loop of {inner} barriers x {outer} reps)\n\n{}\n\
         Bus saturation signal: mean bus queueing delay per transaction (cycles)\n\n{}\n\
         Episode decomposition: mean arrival spread / release fan-out per barrier (cycles)\n\n{}",
        table(&header, &rows),
        table(&header, &waits),
        table(&header, &spreads),
    );
    if prefix.is_some() {
        outln!(out);
        outln!(out, "Chrome traces written ({TRACED_CORES}-core points):");
        for m in BarrierMechanism::ALL {
            outln!(out, "  {}", trace_path(m).expect("prefix given"));
        }
    }
    Ok(out)
}

/// Average barrier latency of `mechanism` under a custom machine
/// configuration (the ablations vary latencies and bandwidths that no
/// [`RunSpec`] topology preset exposes).
fn latency_with(config: SimConfig, mechanism: BarrierMechanism, inner: u64, outer: u64) -> f64 {
    let cores = config.num_cores;
    let mut space = AddressSpace::new(&config);
    let mut asm = Asm::new();
    let mut sys = BarrierSystem::new(&config, cores, &mut space).expect("barrier system");
    let barrier = sys
        .create_barrier(&mut asm, &mut space, mechanism, cores)
        .expect("barrier");
    asm.label("entry").expect("fresh assembler");
    asm.li(Reg::S0, outer as i64);
    asm.label("outer").expect("unique");
    asm.li(Reg::S1, inner as i64);
    asm.label("inner").expect("unique");
    barrier.emit_call(&mut asm);
    asm.addi(Reg::S1, Reg::S1, -1);
    asm.bne(Reg::S1, Reg::ZERO, "inner");
    asm.addi(Reg::S0, Reg::S0, -1);
    asm.bne(Reg::S0, Reg::ZERO, "outer");
    asm.halt();
    let program = asm.assemble().expect("assemble");
    let entry = program
        .require_symbol("entry")
        .expect("entry label defined above");
    let mut mb = MachineBuilder::new(config, program).expect("builder");
    for _ in 0..cores {
        mb.add_thread(entry);
    }
    sys.install(&mut mb).expect("install");
    let mut m = mb.build().expect("build");
    let cycles = m.run().expect("run").cycles;
    cycles as f64 / (inner * outer) as f64
}

/// Design ablations called out in DESIGN.md:
///
/// 1. invalidations per invocation: entry/exit vs ping-pong (bus bandwidth);
/// 2. filter placement: latency of the shared level hosting the filter;
/// 3. bus bandwidth sweep: where Figure 4's saturation bend comes from;
/// 4. minimum-chunk partitioning for Livermore Loop 2's coherence
///    traffic (§4.4 motivation).
fn ablations(args: &BenchArgs) -> Result<String, String> {
    let runner = &args.runner;
    let (inner, outer) = if args.quick { (16, 4) } else { (64, 16) };
    let mut out = String::new();

    // --- 1. invalidations per invocation -------------------------------
    out.push_str("Ablation 1: invalidations per invocation (entry/exit = 2, ping-pong = 1)\n\n");
    let core_counts = [16usize, 32, 64];
    let grid: Vec<(usize, BarrierMechanism)> = core_counts
        .iter()
        .flat_map(|&c| {
            [BarrierMechanism::FilterD, BarrierMechanism::FilterDPingPong]
                .into_iter()
                .map(move |m| (c, m))
        })
        .collect();
    let points = runner
        .run_all(&grid, |_, &(cores, m)| {
            kernels::run(&RunSpec::fig4(m, cores, inner, outer))
                .map(|out| out.outcome.cycles_per_rep)
                .map_err(|e| format!("{m} @ {cores}: {e}"))
        })?
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    let rows: Vec<Vec<String>> = core_counts
        .iter()
        .zip(points.chunks(2))
        .map(|(cores, pair)| {
            let (d, pp) = (pair[0], pair[1]);
            vec![
                cores.to_string(),
                f1(d),
                f1(pp),
                format!("{:.1}%", (1.0 - pp / d) * 100.0),
            ]
        })
        .collect();
    let header = ["cores", "filter-d", "filter-d-pp", "saving"].map(String::from);
    out.push_str(&table(&header, &rows));
    outln!(out);

    // --- 2. filter placement --------------------------------------------
    out.push_str(
        "Ablation 2: filter placement — latency of the hosting controller\n\
         (the paper places the filter at the first shared level; deeper placement\n \
         adds its latency to every barrier episode)\n\n",
    );
    let placements = [
        ("L2 (14 cy, paper)", 14u64),
        ("L3-like (38 cy)", 38),
        ("memory-side (138 cy)", 138),
    ];
    let lats = runner.run_all(&placements, |_, &(_, l2_latency)| {
        let mut config = SimConfig::with_cores(16);
        config.l2.latency = l2_latency;
        latency_with(config, BarrierMechanism::FilterD, inner, outer)
    })?;
    let rows: Vec<Vec<String>> = placements
        .iter()
        .zip(&lats)
        .map(|(&(name, _), &lat)| vec![name.to_string(), f1(lat)])
        .collect();
    out.push_str(&table(
        &["filter placement", "cycles/barrier"].map(String::from),
        &rows,
    ));
    outln!(out);

    // --- 3. bus bandwidth ------------------------------------------------
    out.push_str("Ablation 3: shared-bus bandwidth and the Figure 4 saturation bend\n\n");
    let bandwidths = [
        ("64B/2cy (default)", 2u64),
        ("64B/4cy (half bw)", 4),
        ("64B/8cy (quarter bw)", 8),
    ];
    let bw_cores = [16usize, 64];
    let bw_grid: Vec<(u64, usize)> = bandwidths
        .iter()
        .flat_map(|&(_, d)| bw_cores.iter().map(move |&c| (d, c)))
        .collect();
    let bw_lats = runner.run_all(&bw_grid, |_, &(data_cycles, cores)| {
        let mut config = SimConfig::with_cores(cores);
        config.bus.data_cycles = data_cycles;
        latency_with(config, BarrierMechanism::FilterD, inner, outer)
    })?;
    let rows: Vec<Vec<String>> = bandwidths
        .iter()
        .zip(bw_lats.chunks(bw_cores.len()))
        .map(|(&(name, _), lats)| {
            let mut row = vec![name.to_string()];
            row.extend(lats.iter().map(|&lat| f1(lat)));
            row
        })
        .collect();
    out.push_str(&table(
        &["bus data bandwidth", "16 cores", "64 cores"].map(String::from),
        &rows,
    ));
    outln!(out);

    // --- 4. chunked vs fine partitioning --------------------------------
    out.push_str(
        "Ablation 4: Loop-2 partitioning — the paper partitions 'in chunks of at\n\
         least 8 doubles' so lines transfer between cores at most once (§4.4).\n\
         Upgrade invalidations per invocation measure the coherence ping-pong a\n\
         finer distribution would cause:\n\n",
    );
    let n = if args.quick { 64 } else { 256 };
    let chunked = kernels::run(&RunSpec::parallel(
        WorkloadSpec::Loop2 { n },
        16,
        BarrierMechanism::FilterI,
    ))
    .map_err(|e| format!("loop2: {e}"))?;
    outln!(
        out,
        "  chunked (paper) parallel cycles/invocation: {:.1}",
        chunked.outcome.cycles_per_rep
    );
    out.push_str(
        "  (a sub-cache-line distribution is rejected by construction: the kernel\n   \
         floors its chunk size at one cache line of doubles)\n",
    );
    Ok(out)
}

/// The scaling sweep: Figure 4's loop from the paper's 16-core bus to
/// clustered 256- and 1024-core machines, written as `BENCH_scale.json`.
fn fig_scale(args: &BenchArgs) -> Result<String, String> {
    let out_path = args.out.as_deref().expect("--out has a default");
    let runs = run_scale(&args.runner, args.quick)?;
    let mut out = String::new();
    outln!(
        out,
        "Barrier latency vs machine scale ({} points{})",
        runs.len(),
        if args.quick { ", quick grid" } else { "" }
    );
    outln!(out);
    let header = [
        "cores",
        "clusters",
        "mechanism",
        "cyc/barrier",
        "bus wait",
        "episodes",
        "stats digest",
    ]
    .map(String::from);
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(spec, run)| {
            let o = &run.outcome;
            vec![
                spec.exec.threads.to_string(),
                spec.exec.clusters.to_string(),
                mechanism_name(spec),
                f1(o.cycles_per_rep),
                f2(o.bus_mean_wait),
                o.sim.episodes.episodes.to_string(),
                format!("{:#018x}", o.sim.stats_digest),
            ]
        })
        .collect();
    out.push_str(&table(&header, &rows));
    write_doc(
        out_path,
        &runs_document("fig_scale", args, [], records(&runs)),
    )?;
    outln!(out);
    outln!(out, "wrote {out_path}");
    Ok(out)
}

// --- The engine profile and the pinned-digest gate ----------------------

/// Per-stage engine cost profile (see [`crate::hotpath`]); committed as
/// `results/hotpath.txt` so perf work starts from a current profile. The
/// microbenches are timed one at a time at fixed sizes, so `--jobs` has
/// nothing to spread and `--quick` nothing to shrink.
fn hotpath(args: &BenchArgs) -> Result<String, String> {
    if args.quick {
        return Err("the profile runs at fixed sizes; drop --quick".into());
    }
    Ok(crate::hotpath::profile().render())
}

/// The pinned-digest gate: the two committed workloads (the Figure 4
/// loop under every mechanism at 16 cores, and the Viterbi kernel) as
/// eight runs on the worker pool, written as `BENCH_throughput.json` with
/// both digests and each run's host seconds. The seconds are
/// informational; perfbench is the gated timing. `--check` requires both
/// digests to equal the pinned constants on the production engine and,
/// re-running the suite, on the reference engine (full sizes only).
/// `--trace PATH` re-runs the Viterbi workload with a Chrome trace and
/// checks that tracing left its digest bit-identical.
fn throughput(args: &BenchArgs) -> Result<String, String> {
    let (quick, check, runner) = (args.quick, args.check, &args.runner);
    let out_path = args.out.as_deref().expect("--out has a default");
    if quick && check {
        return Err("--check asserts the full-workload digests; drop --quick".into());
    }
    if let Some(path) = args.trace.as_deref() {
        // Fail before the suite runs, not after: the traced re-run is the
        // very last step, and an unwritable path would waste the whole run.
        std::fs::write(path, b"").map_err(|e| format!("cannot write trace file {path:?}: {e}"))?;
    }

    let specs = suite_specs(quick);
    let failed =
        |spec: &RunSpec, e: kernels::KernelError| format!("{}: {e}", spec.canonical_json());
    let runs: Vec<(RunOutput, f64)> = runner
        .run_all(&specs, |_, spec| {
            let t0 = Instant::now();
            let out = kernels::run(spec).map_err(|e| failed(spec, e))?;
            Ok((out, t0.elapsed().as_secs_f64()))
        })?
        .into_iter()
        .collect::<Result<_, String>>()?;
    let stats_digests: Vec<u64> = runs
        .iter()
        .map(|(o, _)| o.outcome.sim.stats_digest)
        .collect();
    let digests = suite_digests(&stats_digests);

    let mut out = String::new();
    if check {
        let reference: Vec<u64> = runner
            .run_all(&specs, |_, spec| {
                kernels::run_with(spec, RunAttachments::reference())
                    .map(|o| o.outcome.sim.stats_digest)
                    .map_err(|e| failed(spec, e))
            })?
            .into_iter()
            .collect::<Result<_, String>>()?;
        for (engine, got) in [
            ("production", digests),
            ("reference", suite_digests(&reference)),
        ] {
            for ((workload, expected), got) in PINNED.into_iter().zip(got) {
                if got != expected {
                    return Err(format!(
                        "{workload} [{engine} engine]: digest {got:#018x} != pinned \
                         {expected:#018x} — simulated behaviour changed"
                    ));
                }
            }
        }
        outln!(
            out,
            "check passed: both pinned digests reproduced by the production and the \
             reference engine"
        );
        outln!(out);
    }

    outln!(
        out,
        "Pinned-digest workloads (host seconds are informational; perfbench is the \
         gated timing)"
    );
    outln!(out);
    let header = [
        "workload",
        "mechanism",
        "sim cycles",
        "sim instr",
        "stats digest",
        "host s",
    ]
    .map(String::from);
    let rows: Vec<Vec<String>> = specs
        .iter()
        .zip(&runs)
        .map(|(spec, (run, wall))| {
            let sim = &run.outcome.sim;
            vec![
                spec.workload.kind().to_string(),
                mechanism_name(spec),
                sim.cycles.to_string(),
                sim.instructions.to_string(),
                format!("{:#018x}", sim.stats_digest),
                format!("{wall:.3}"),
            ]
        })
        .collect();
    out.push_str(&table(&header, &rows));
    outln!(out);
    for ((workload, _), digest) in PINNED.into_iter().zip(digests) {
        outln!(out, "{workload}: {digest:#018x}");
    }

    let records = specs
        .iter()
        .zip(&runs)
        .map(|(spec, (run, wall))| run.record(spec).with("wall_s", *wall))
        .collect();
    let folds = Json::obj(
        PINNED
            .into_iter()
            .zip(digests)
            .map(|((workload, _), digest)| (workload, Json::hex(digest))),
    );
    write_doc(
        out_path,
        &runs_document("throughput", args, [("digests", folds)], records),
    )?;
    outln!(out, "wrote {out_path}");

    if let Some(path) = args.trace.as_deref() {
        let viterbi = specs.last().expect("the suite ends with the viterbi run");
        let untraced = &runs.last().expect("one run per spec").0;
        let traced = kernels::run_with(viterbi, chrome_traced(path)?)
            .map_err(|e| failed(viterbi, e))?
            .outcome;
        if traced.sim != untraced.outcome.sim {
            return Err(
                "tracing changed simulated behaviour — sinks must be pure observers".into(),
            );
        }
        outln!(out);
        outln!(
            out,
            "wrote Chrome trace to {path} ({} barrier episodes; digest unchanged)",
            traced.sim.episodes.episodes
        );
    }
    Ok(out)
}

// --- Fault injection and verification -----------------------------------

/// The chaos sweep: fault injection × barrier mechanism over the Viterbi
/// and Livermore Loop 2 kernels (§3.3.3 recovery claims, measured). Every
/// point must produce validated kernel output, quiescent filter tables and
/// a bit-identical replay from the same seed — the experiment fails
/// otherwise. `--faults N` sweeps `{0, N}` events per run instead of the
/// default ladder; `--seed S` replays a specific schedule.
fn chaos(args: &BenchArgs) -> Result<String, String> {
    let levels: Vec<usize> = if args.faults > 0 {
        vec![0, args.faults]
    } else if args.quick {
        vec![0, 2, 6]
    } else {
        vec![0, 8, 32]
    };
    let runs = run_chaos(&args.runner, args.quick, &levels, args.seed)?;

    let mut out = String::new();
    outln!(
        out,
        "Chaos sweep: faults {levels:?} x mechanisms x {{viterbi, loop2}} (seed {:#x})",
        args.seed
    );
    outln!(out);
    let header = [
        "workload",
        "mechanism",
        "faults",
        "injected",
        "skipped",
        "violations",
        "resumed",
        "cancels",
        "reparks",
        "stats digest",
    ]
    .map(String::from);
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(spec, run)| {
            let (r, sim) = (&run.faults, &run.outcome.sim);
            vec![
                spec.workload.kind().to_string(),
                mechanism_name(spec),
                spec.exec.faults.map_or(0, |f| f.count).to_string(),
                r.injected.to_string(),
                r.skipped.to_string(),
                r.violations.to_string(),
                r.resumed.to_string(),
                sim.episodes.cancellations.to_string(),
                sim.episodes.reparks.to_string(),
                format!("{:#018x}", sim.stats_digest),
            ]
        })
        .collect();
    out.push_str(&table(&header, &rows));
    outln!(out);
    let injected: usize = runs.iter().map(|(_, run)| run.faults.injected).sum();
    let violations: usize = runs.iter().map(|(_, run)| run.faults.violations).sum();
    outln!(
        out,
        "{} points, {injected} faults injected, {violations} recoverable violations; \
         every run validated, quiescent, and replay-identical",
        runs.len()
    );

    let path = args.out.as_deref().expect("--out has a default");
    let doc = runs_document(
        "chaos",
        args,
        [("seed", Json::hex(args.seed))],
        records(&runs),
    );
    write_doc(path, &doc)?;
    outln!(out, "wrote {path}");
    Ok(out)
}

/// Program verifier + race detector + model checker over the kernel ×
/// mechanism grid, written as `BENCH_verify.json`. Every cell must come
/// back clean — no static `Error`, no dynamic race and (with `--mc`) no
/// model-checker counterexample — or the experiment fails with each dirty
/// cell's findings. `--json` reports every finding as one JSON object per
/// line instead of the tables.
fn verify(args: &BenchArgs) -> Result<String, String> {
    let out_path = args.out.as_deref().expect("--out has a default");
    let json_mode = args.switch("--json");
    let with_mc = args.switch("--mc");
    let threads = 4;
    let mut out = String::new();

    let doc = run_verify(&args.runner, threads, args.quick, with_mc)
        .map_err(|e| format!("sweep failed: {e}"))?;

    if json_mode {
        out.push_str(&stream_findings(&doc));
    } else {
        let header = [
            "kernel",
            "mechanism",
            "cores",
            "errors",
            "warnings",
            "races",
            "reads",
            "writes",
            "verdict",
        ]
        .map(String::from);
        let rows: Vec<Vec<String>> = doc
            .cases
            .iter()
            .map(|c| {
                let exec = &c.spec.exec;
                vec![
                    c.spec.workload.kind().to_string(),
                    c.mechanism().to_string(),
                    if exec.clusters > 1 {
                        format!("{}/{}cl", exec.threads, exec.clusters)
                    } else {
                        exec.threads.to_string()
                    },
                    c.errors().to_string(),
                    c.warnings().to_string(),
                    c.races.total_races.to_string(),
                    c.races.reads_checked.to_string(),
                    c.races.writes_checked.to_string(),
                    if c.clean() { "clean" } else { "DIRTY" }.to_string(),
                ]
            })
            .collect();
        outln!(
            out,
            "Verifying {} kernels × {} mechanisms at {threads} threads{}",
            VerifyKernel::ALL.len(),
            BarrierMechanism::EXTENDED.len(),
            if doc.quick { " (quick sizes)" } else { "" },
        );
        outln!(out);
        out.push_str(&table(&header, &rows));

        if with_mc {
            let header = [
                "mechanism",
                "cores",
                "fault",
                "states",
                "transitions",
                "verdict",
            ]
            .map(String::from);
            let rows: Vec<Vec<String>> = doc
                .mc
                .iter()
                .map(|c| {
                    vec![
                        c.mechanism.to_string(),
                        c.cores.to_string(),
                        if c.fault { "on" } else { "off" }.to_string(),
                        c.states.to_string(),
                        c.transitions.to_string(),
                        if c.skipped.is_some() {
                            "skip"
                        } else if c.clean() {
                            "clean"
                        } else {
                            "DIRTY"
                        }
                        .to_string(),
                    ]
                })
                .collect();
            outln!(out);
            outln!(out, "Model checker (episodes ×2, fault off/on):");
            outln!(out);
            out.push_str(&table(&header, &rows));
        }
    }

    let json = runs_document(
        "verify",
        args,
        [
            ("threads", threads.into()),
            ("passed", doc.passed().into()),
            (
                "mc",
                Json::Arr(doc.mc.iter().map(|c| c.to_json()).collect()),
            ),
        ],
        doc.cases.iter().map(|c| c.record()).collect(),
    );
    write_doc(out_path, &json)?;
    if !json_mode {
        outln!(out);
        outln!(out, "wrote {out_path}");
    }

    if !doc.passed() {
        let mut findings = String::new();
        for c in doc.cases.iter().filter(|c| !c.clean()) {
            outln!(
                findings,
                "{} × {} ({}t/{}c):",
                c.spec.workload.kind(),
                c.mechanism(),
                c.spec.exec.threads,
                c.spec.exec.clusters
            );
            for d in c
                .diagnostics
                .iter()
                .filter(|d| d.severity == analyze::Severity::Error)
            {
                outln!(findings, "  {d}");
            }
            for r in &c.races.races {
                outln!(
                    findings,
                    "  race: {} at {:#x} (cores {} and {}, cycle {})",
                    r.kind.name(),
                    r.addr,
                    r.prev_core,
                    r.core,
                    r.cycle
                );
            }
        }
        for c in doc.mc.iter().filter(|c| !c.clean()) {
            outln!(
                findings,
                "mc {} ×{} fault={}:",
                c.mechanism,
                c.cores,
                c.fault
            );
            if c.truncated {
                outln!(findings, "  exploration truncated at {} states", c.states);
            }
            for d in &c.findings {
                outln!(findings, "  {d}");
            }
        }
        return Err(format!(
            "FAILED — some cells are not clean\n\n{out}\n{findings}"
        ));
    }
    if !json_mode {
        let mc_note = if with_mc {
            format!(" + {} mc cells", doc.mc.len())
        } else {
            String::new()
        };
        outln!(out, "verify: all {} cells clean{mc_note}", doc.cases.len());
    }
    Ok(out)
}
