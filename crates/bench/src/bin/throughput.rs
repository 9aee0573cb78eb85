//! Simulator wall-clock throughput benchmark.
//!
//! Runs the fixed throughput workloads (the Figure 4 barrier sweep at 16
//! cores and the Viterbi kernel) twice — once with one worker, once on the
//! requested job count — and reports simulated instructions per host
//! second plus both whole-suite wall times, writing the machine-readable
//! trajectory file `BENCH_throughput.json` in the current directory.
//!
//! Usage: `throughput [--quick] [--jobs N] [--check] [--out PATH] [--trace PATH]`
//!
//! `--jobs N` sizes the worker pool of the parallel pass (default: all
//! host threads); simulated numbers and digests are bit-identical across
//! job counts, only wall time moves. `--check` re-times each tracked
//! workload to a median-of-[`CHECK_REPS`] wall (single-shot walls on a
//! shared host swing ±20%, the median is what lands in the JSON), asserts
//! the committed full-workload digests
//! ([`EXPECTED_FIG4_16CORE_DIGEST`]/[`EXPECTED_VITERBI_K5_16T_DIGEST`]),
//! and then runs both workloads once more on the reference engine and
//! requires the same digests at full workload size — the CI gate that the
//! production engine's fast paths stay execution strategies, never model
//! changes (it forces the full rep counts; `--quick` would change the
//! digests). `--quick` shrinks rep counts for smoke runs (and marks the
//! workloads accordingly, so quick numbers are never confused with the
//! tracked ones); `--out` overrides the JSON path. `--trace PATH`
//! additionally re-runs the Viterbi workload with a Chrome trace streamed
//! to PATH (load it in `chrome://tracing` or <https://ui.perfetto.dev>)
//! and checks that tracing left the stats digest bit-identical; the
//! traced re-run is not written to the JSON file (its wall time includes
//! trace I/O).

use barrier_filter::BarrierMechanism;
use bench_suite::cli::Cli;
use bench_suite::throughput::{
    fig4_sample, fig4_sample_with, run_suite, to_json, viterbi_sample, viterbi_sample_traced,
    ThroughputDoc, ThroughputSample, EXPECTED_FIG4_16CORE_DIGEST, EXPECTED_VITERBI_K5_16T_DIGEST,
};
use bench_suite::{report, SweepRunner};
use kernels::viterbi::Viterbi;
use kernels::{ExecSpec, RunAttachments};

/// Wall-time repetitions per workload under `--check`. The reported wall
/// is the median of this many serial runs.
const CHECK_REPS: usize = 3;

fn median(mut walls: Vec<f64>) -> f64 {
    walls.sort_by(f64::total_cmp);
    walls[walls.len() / 2]
}

/// `--check`: re-time each tracked workload to a median-of-[`CHECK_REPS`]
/// wall (updating the sample in place so the table and JSON report the
/// median), assert the committed digests, then run both workloads at full
/// size on the reference engine and require it to reproduce the same
/// committed digests bit-for-bit.
fn run_check(samples: &mut [ThroughputSample], inner: u64, outer: u64, vit_bits: usize) {
    for s in samples.iter_mut() {
        let expected = match s.workload.as_str() {
            "fig4_16core" => EXPECTED_FIG4_16CORE_DIGEST,
            "viterbi_k5_16t" => EXPECTED_VITERBI_K5_16T_DIGEST,
            other => panic!("unexpected workload {other:?} under --check"),
        };
        let got = s.sim.stats_digest;
        assert_eq!(
            got, expected,
            "{}: digest {got:#018x} != committed {expected:#018x} — \
             simulated behaviour changed",
            s.workload
        );
        let mut walls = vec![s.wall_seconds];
        while walls.len() < CHECK_REPS {
            let rerun = if s.workload == "fig4_16core" {
                fig4_sample(16, inner, outer)
            } else {
                viterbi_sample(vit_bits, 16)
            };
            assert_eq!(
                rerun.sim.stats_digest, got,
                "{}: wall-time rep diverged from the first run",
                s.workload
            );
            walls.push(rerun.wall_seconds);
        }
        s.wall_seconds = median(walls);
        s.instr_per_sec = s.sim.instructions as f64 / s.wall_seconds.max(1e-9);
    }
    let fig4 = fig4_sample_with(16, inner, outer, true, |_| None);
    assert_eq!(
        fig4.sim.stats_digest, EXPECTED_FIG4_16CORE_DIGEST,
        "fig4_16core [reference engine]: digest {:#018x} != committed \
         {EXPECTED_FIG4_16CORE_DIGEST:#018x} — the engines disagree",
        fig4.sim.stats_digest
    );
    let vit = Viterbi::new(vit_bits)
        .run_with(
            &ExecSpec::parallel(16, BarrierMechanism::FilterD),
            RunAttachments::reference(),
        )
        .expect("viterbi check workload")
        .outcome;
    assert_eq!(
        vit.sim.stats_digest, EXPECTED_VITERBI_K5_16T_DIGEST,
        "viterbi_k5_16t [reference engine]: digest {:#018x} != committed \
         {EXPECTED_VITERBI_K5_16T_DIGEST:#018x} — the engines disagree",
        vit.sim.stats_digest
    );
    println!(
        "check passed: median-of-{CHECK_REPS} walls recorded; both committed \
         digests reproduced by the production and the reference engine"
    );
    println!();
}

fn main() {
    let args = Cli::new(
        "throughput",
        "Host-side simulator throughput → BENCH_throughput.json",
    )
    .with_check()
    .with_trace()
    .with_out("BENCH_throughput.json")
    .parse();
    let (quick, check, runner) = (args.quick, args.check, args.runner);
    let out_path = args.out.as_deref().expect("--out has a default");
    let trace_path = args.trace.as_deref();
    if quick && check {
        eprintln!("throughput: --check asserts the full-workload digests; drop --quick");
        std::process::exit(2);
    }
    if let Some(path) = trace_path {
        // Fail before the suite runs, not after: the traced re-run is the
        // very last step, and an unwritable path would waste the whole run.
        if let Err(e) = std::fs::write(path, b"") {
            eprintln!("throughput: cannot write trace file {path:?}: {e}");
            std::process::exit(2);
        }
    }

    let (inner, outer, vit_bits) = if quick { (8, 2, 24) } else { (64, 64, 96) };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Serial pass: the reference numbers (per-workload walls comparable
    // with the v1 trajectory), then the parallel pass on the requested
    // worker count. Simulated numbers must agree bit-for-bit.
    let serial = run_suite(&SweepRunner::new(1), 16, inner, outer, vit_bits, 16);
    let parallel = run_suite(&runner, 16, inner, outer, vit_bits, 16);
    for (s, p) in serial.samples.iter().zip(&parallel.samples) {
        assert_eq!(
            (s.sim.cycles, s.sim.stats_digest),
            (p.sim.cycles, p.sim.stats_digest),
            "{}: parallel pass diverged from serial — sweep jobs must be independent",
            s.workload
        );
    }

    let mut samples = serial.samples;
    if quick {
        for s in &mut samples {
            s.workload.push_str("_quick");
        }
    }
    if check {
        run_check(&mut samples, inner, outer, vit_bits);
    }

    println!(
        "Simulator throughput (simulated instructions per host second; \
         parallel pass: {} jobs on {host_threads} host threads)",
        runner.jobs()
    );
    println!();
    let header: Vec<String> = [
        "workload",
        "sim Mcycles",
        "sim Minstr",
        "host s",
        "Minstr/s",
        "stats digest",
        "episodes",
        "spread/fanout",
    ]
    .map(String::from)
    .to_vec();
    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            vec![
                s.workload.clone(),
                report::f1(s.sim.cycles as f64 / 1e6),
                report::f1(s.sim.instructions as f64 / 1e6),
                format!("{:.3}", s.wall_seconds),
                report::f2(s.instr_per_sec / 1e6),
                format!("{:#018x}", s.sim.stats_digest),
                s.sim.episodes.episodes.to_string(),
                format!(
                    "{}/{}",
                    report::f1(s.sim.episodes.mean_arrival_spread()),
                    report::f1(s.sim.episodes.mean_release_fanout())
                ),
            ]
        })
        .collect();
    print!("{}", report::table(&header, &rows));
    println!();
    println!(
        "whole suite: {:.3}s serial, {:.3}s at {} jobs ({:.2}x)",
        serial.suite_wall_seconds,
        parallel.suite_wall_seconds,
        runner.jobs(),
        serial.suite_wall_seconds / parallel.suite_wall_seconds.max(1e-9),
    );

    let doc = ThroughputDoc {
        jobs: runner.jobs(),
        host_threads,
        serial_wall_seconds: serial.suite_wall_seconds,
        parallel_wall_seconds: parallel.suite_wall_seconds,
        samples,
    };
    let json = to_json(&doc);
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("throughput: writing {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");

    if let Some(path) = trace_path {
        let traced = viterbi_sample_traced(vit_bits, 16, path);
        let untraced = doc
            .samples
            .iter()
            .find(|s| s.workload.starts_with("viterbi"))
            .expect("viterbi sample present");
        assert_eq!(
            (traced.sim.cycles, traced.sim.stats_digest),
            (untraced.sim.cycles, untraced.sim.stats_digest),
            "tracing changed simulated behaviour — sinks must be pure observers"
        );
        println!();
        println!(
            "wrote Chrome trace to {path} ({} barrier episodes; digest unchanged)",
            traced.sim.episodes.episodes
        );
    }
}
