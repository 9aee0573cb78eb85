//! Determinism regression tests for the simulation engine.
//!
//! The engine's correctness contract is bit-level reproducibility: the same
//! `SimConfig` and program must produce the same cycle counts, instruction
//! counts and full `MachineStats` on every run, in every process — and on
//! the production engine exactly what the reference engine produces. The
//! hot-path machinery this guards — the calendar event queue's
//! same-cycle FIFO order and the deterministic `FxHashMap` line tables —
//! has no randomized fallback, so any divergence here is a real engine bug,
//! not flakiness.

use analyze::RaceDetectorSink;
use barrier_filter::BarrierMechanism;
use bench_suite::latency::fig4_machine_with;
use bench_suite::scale::scale_clusters;
use bench_suite::throughput::{
    fig4_specs, fold_fig4_digests, EXPECTED_FIG4_16CORE_DIGEST, EXPECTED_VITERBI_K5_16T_DIGEST,
};
use bench_suite::verify::{CLUSTERED_CORES, CLUSTERS};
use bench_suite::SweepRunner;
use cmp_sim::{ChromeTraceSink, Machine, MachineStats, RingSink, RunSummary, TraceSink};
use kernels::viterbi::Viterbi;
use kernels::{ExecSpec, RunAttachments, RunSpec, WorkloadSpec};

/// The unrun Figure 4 machine: `inner` × `outer` barriers of `mechanism`
/// across `cores` cores.
fn fig4_machine(mechanism: BarrierMechanism, cores: usize, inner: u64, outer: u64) -> Machine {
    let spec = RunSpec::fig4(mechanism, cores, inner, outer);
    fig4_machine_with(&spec, &mut RunAttachments::default()).expect("fig4 machine")
}

/// Run the Figure 4 micro-benchmark twice from scratch and require the
/// whole observable outcome — `RunSummary` and the full `MachineStats`
/// snapshot (caches, directory, buses, per-core counters) — to match.
fn assert_repeatable(mechanism: BarrierMechanism) {
    let (cores, inner, outer) = (8, 8, 2);
    let mut a = fig4_machine(mechanism, cores, inner, outer);
    let mut b = fig4_machine(mechanism, cores, inner, outer);
    let sa = a.run().expect("first run");
    let sb = b.run().expect("second run");
    assert_eq!(sa, sb, "{mechanism}: RunSummary must be identical");
    assert!(sa.cycles > 0 && sa.instructions > 0);
    assert_eq!(
        a.stats(),
        b.stats(),
        "{mechanism}: full MachineStats must be identical"
    );
    assert_eq!(a.stats().digest(), b.stats().digest());
}

#[test]
fn software_central_barrier_is_deterministic() {
    assert_repeatable(BarrierMechanism::SwCentral);
}

#[test]
fn software_tree_barrier_is_deterministic() {
    assert_repeatable(BarrierMechanism::SwTree);
}

#[test]
fn filter_d_barrier_is_deterministic() {
    assert_repeatable(BarrierMechanism::FilterD);
}

#[test]
fn filter_i_barrier_is_deterministic() {
    assert_repeatable(BarrierMechanism::FilterI);
}

/// Run-twice determinism beyond the old 64-core ceiling: a 256-core
/// clustered machine (16 clusters x 16 cores) under both tree-combining
/// variants must reproduce its whole `Measurement` from scratch.
#[test]
fn clustered_256_core_tree_barriers_are_deterministic() {
    for mechanism in [BarrierMechanism::SwHier, BarrierMechanism::FilterDHier] {
        let spec = RunSpec::fig4(mechanism, 256, 4, 2).clustered(scale_clusters(256));
        let run = || kernels::run(&spec).expect("256-core run").outcome;
        let (a, b) = (run(), run());
        assert_eq!(
            a.sim, b.sim,
            "{mechanism}: 256-core measurement must be reproducible"
        );
        assert_eq!(a.cycles_per_rep, b.cycles_per_rep);
        assert!(a.sim.cycles > 0);
    }
}

#[test]
fn viterbi_kernel_is_deterministic_end_to_end() {
    // A data-bearing kernel (not just the barrier loop): coherence traffic,
    // store buffers and parked fills all in play.
    let spec = RunSpec::parallel(
        WorkloadSpec::Viterbi {
            constraint: 5,
            data_bits: 32,
            noise_per_mille: 10,
        },
        4,
        BarrierMechanism::FilterD,
    );
    let run = || kernels::run(&spec).expect("viterbi run").outcome;
    let (a, b) = (run(), run());
    assert_eq!(a.sim, b.sim);
    assert!(a.sim.cycles > 0);
    assert!(
        a.sim.episodes.episodes > 0,
        "FilterD runs have barrier episodes"
    );
}

/// The sink-invariance contract: attaching ANY trace sink must leave
/// `MachineStats::digest()` and cycle counts bit-identical to the
/// untraced run. Sinks are observers; if one ever acquires a simulated
/// resource or perturbs event order, this fails.
#[test]
fn trace_sinks_never_change_simulated_behaviour() {
    let (cores, inner, outer) = (8, 8, 2);
    let tmp = std::env::temp_dir().join("fastbar_determinism_sink.trace.json");
    let path = tmp.to_str().expect("utf-8 temp path");
    for mechanism in [
        BarrierMechanism::FilterD,
        BarrierMechanism::SwCentral,
        BarrierMechanism::HwDedicated,
    ] {
        let mut base = fig4_machine(mechanism, cores, inner, outer);
        let sum_base = base.run().expect("untraced run");
        let stats_base = base.stats();
        let sinks: [(&str, Box<dyn TraceSink>); 2] = [
            ("ring", Box::new(RingSink::new(1 << 16))),
            (
                "chrome",
                Box::new(ChromeTraceSink::create(path).expect("trace file")),
            ),
        ];
        for (kind, sink) in sinks {
            let label = format!("{mechanism} with the {kind} sink");
            let spec = RunSpec::fig4(mechanism, cores, inner, outer);
            let mut att = RunAttachments::observed(move |_| Some(sink));
            let mut m = fig4_machine_with(&spec, &mut att).expect("traced machine");
            let sum = m.run().expect("traced run");
            assert_eq!(sum, sum_base, "{label}: RunSummary diverged");
            let stats = m.stats();
            assert_eq!(
                stats.digest(),
                stats_base.digest(),
                "{label}: stats digest diverged"
            );
            assert_eq!(stats, stats_base, "{label}: full MachineStats diverged");
        }
    }
    std::fs::remove_file(&tmp).ok();
}

/// The strongest form of the observer contract: attaching the
/// happens-before race detector to the two committed throughput
/// workloads must reproduce their *pinned* digests bit-for-bit — not
/// merely match an unobserved re-run, but land on the exact constants
/// every past trajectory committed to. A detector that acquires a
/// simulated resource, reorders an event, or even perturbs trace
/// emission timing fails here. And the observation is not vacuous: the
/// detector must actually have processed events and found both
/// workloads race-free.
#[test]
fn race_detector_leaves_pinned_digests_bit_identical() {
    // fig4_16core: all seven mechanisms at 16 cores, 64 × 64 barriers,
    // one detector per mechanism run.
    let mut handles = Vec::new();
    let digests: Vec<u64> = fig4_specs(16, 64, 64)
        .iter()
        .map(|spec| {
            let observe = RunAttachments::observed(|bar| {
                let sink = RaceDetectorSink::new([bar.protocol()]);
                handles.push(sink.handle());
                Some(Box::new(sink) as Box<dyn TraceSink>)
            });
            let out = kernels::run_with(spec, observe).expect("observed fig4 run");
            out.outcome.sim.stats_digest
        })
        .collect();
    let fig4 = fold_fig4_digests(digests);
    assert_eq!(
        fig4, EXPECTED_FIG4_16CORE_DIGEST,
        "fig4_16core digest moved under observation: {fig4:#018x} != committed \
         {EXPECTED_FIG4_16CORE_DIGEST:#018x}"
    );
    assert_eq!(handles.len(), BarrierMechanism::ALL.len());
    let mut observed_traffic = 0;
    for handle in &handles {
        let report = handle.report();
        assert!(!report.racy(), "barrier loop raced: {:?}", report.races);
        // The dedicated-network loop legitimately touches no memory at
        // all; the software and filter loops must show sync traffic.
        observed_traffic += report.sync_accesses + report.writes_checked;
    }
    assert!(observed_traffic > 0, "no detector saw any event — vacuous");

    // viterbi_k5_16t: the committed kernel workload (K=5, 96 data bits,
    // 16 threads, FilterD), observed end to end.
    let mut handle = None;
    let outcome = Viterbi::new(96)
        .run_with(
            &ExecSpec::parallel(16, BarrierMechanism::FilterD),
            RunAttachments::observed(|bar| {
                let sink = RaceDetectorSink::new([bar.protocol()]);
                handle = Some(sink.handle());
                Some(Box::new(sink))
            }),
        )
        .expect("observed viterbi workload")
        .outcome;
    assert_eq!(
        outcome.sim.stats_digest, EXPECTED_VITERBI_K5_16T_DIGEST,
        "viterbi_k5_16t digest moved under observation: {:#018x} != committed {:#018x}",
        outcome.sim.stats_digest, EXPECTED_VITERBI_K5_16T_DIGEST
    );
    let report = handle.expect("observe hook ran").report();
    assert!(!report.racy(), "viterbi raced: {:?}", report.races);
    assert!(report.reads_checked > 0 && report.writes_checked > 0);
}

/// Per-episode accounting on a FilterD barrier loop at N threads: each of
/// the `inner * outer` barriers runs exactly one episode, and every
/// thread's arrival fill is either parked (it got there early) or serviced
/// directly (it was the episode's own releaser — its dcbi opened the
/// barrier before its read reached the hook). So across the run
/// `parks + serviced == N * episodes` exactly, and every parked fill is
/// released with data (`releases == parks`). Note serviced is *at least*
/// one per episode, not exactly one: when release fan-out overlaps the
/// next barrier's arrivals, a fast re-arriver can also be serviced
/// directly rather than parked.
#[test]
fn filter_d_episode_accounting_is_exact() {
    let (cores, inner, outer) = (8u64, 8u64, 2u64);
    let mut m = fig4_machine(BarrierMechanism::FilterD, cores as usize, inner, outer);
    m.run().expect("FilterD loop");
    let e = m.stats().episodes;
    let episodes = inner * outer;
    assert_eq!(e.episodes, episodes, "one episode per barrier");
    assert_eq!(
        e.parks + e.serviced,
        cores * episodes,
        "every thread's arrival fill is either parked or serviced"
    );
    assert_eq!(e.releases, e.parks, "every parked fill is released");
    assert_eq!(e.errors, 0, "no timeouts in a clean run");
    assert!(
        e.serviced >= episodes,
        "at least the releasing arriver of each episode is serviced directly \
         ({} serviced < {episodes} episodes)",
        e.serviced
    );
    assert!(e.arrival_spread_total > 0, "arrivals are not simultaneous");
    assert!(e.release_fanout_total > 0, "release fan-out takes cycles");
    // The digest must NOT cover episode stats (historical digests predate
    // them); fills_parked, which it does cover, must agree with the
    // episode layer.
    assert_eq!(m.stats().fills_parked(), e.parks);
}

/// The host-parallelism contract: running the Figure 4 grid on a
/// `SweepRunner` with any worker count yields the same results, in the
/// same order, as the serial sweep — bit-identical `RunSummary`, full
/// `MachineStats`, and digests per grid point. The sweep points share no
/// simulated state, so the only way this can fail is a runner bug
/// (result-slot mixup, lost job) or a hidden global in the engine.
#[test]
fn parallel_sweep_matches_serial_sweep() {
    let (inner, outer) = (8u64, 2);
    let grid: Vec<(BarrierMechanism, usize)> = BarrierMechanism::ALL
        .into_iter()
        .flat_map(|m| [4usize, 8].into_iter().map(move |c| (m, c)))
        .collect();
    let sweep = |jobs: usize| {
        SweepRunner::new(jobs)
            .run_all(&grid, |_, &(mechanism, cores)| {
                let mut m = fig4_machine(mechanism, cores, inner, outer);
                let summary = m.run().expect("grid point");
                (summary, m.stats().clone())
            })
            .expect("no panics in the grid")
    };
    let serial = sweep(1);
    let parallel = sweep(4);
    assert_eq!(serial.len(), grid.len());
    for (i, ((ser_sum, ser_stats), (par_sum, par_stats))) in
        serial.iter().zip(&parallel).enumerate()
    {
        let (mechanism, cores) = grid[i];
        let label = format!("{mechanism} @ {cores} cores (grid slot {i})");
        assert_eq!(ser_sum, par_sum, "{label}: RunSummary diverged");
        assert_eq!(ser_stats, par_stats, "{label}: full MachineStats diverged");
        assert_eq!(
            ser_stats.digest(),
            par_stats.digest(),
            "{label}: digest diverged"
        );
    }
}

/// Everything one fig4 run leaves behind: the simulated outcome and the
/// engine's host-side burst counter.
struct EngineRun {
    summary: RunSummary,
    stats: MachineStats,
    bursts: u64,
}

fn run_engine(spec: &RunSpec, reference_engine: bool) -> EngineRun {
    let mut att = RunAttachments {
        reference_engine,
        ..RunAttachments::default()
    };
    let mut m = fig4_machine_with(spec, &mut att).expect("fig4 machine");
    let summary = m.run().expect("barrier loop");
    EngineRun {
        summary,
        stats: m.stats(),
        bursts: m.burst_retired(),
    }
}

/// Run `spec` on both engines, require identical `RunSummary`, full
/// `MachineStats` and digest, and hold both sides non-vacuous through the
/// burst counter: the reference engine never bursts, the production
/// engine does.
fn assert_engines_agree(label: &str, spec: &RunSpec) {
    let oracle = run_engine(spec, true);
    let fast = run_engine(spec, false);
    assert_eq!(fast.summary, oracle.summary, "{label}: RunSummary diverged");
    assert_eq!(
        fast.stats, oracle.stats,
        "{label}: full MachineStats diverged"
    );
    assert_eq!(
        fast.stats.digest(),
        oracle.stats.digest(),
        "{label}: digest diverged"
    );
    assert_eq!(
        oracle.bursts, 0,
        "{label}: the reference engine never bursts"
    );
    assert!(
        fast.bursts > 0,
        "{label}: burst path never engaged — vacuous"
    );
}

/// The engine contract over every barrier mechanism: the production
/// engine's core-step bursts (consuming a core's own ready events in
/// place while every queued event is strictly later) are an execution
/// strategy, not a model change. All nine mechanisms of
/// [`BarrierMechanism::EXTENDED`] must reproduce the reference engine bit
/// for bit: the flat seven at 8 cores, the hierarchical pair on the
/// verify grid's 64-core / 4-cluster shape, where their combining trees
/// actually span clusters.
#[test]
fn production_engine_matches_the_reference_engine() {
    let (inner, outer) = (8, 2);
    for mechanism in BarrierMechanism::EXTENDED {
        let spec = if mechanism.is_hierarchical() {
            RunSpec::fig4(mechanism, CLUSTERED_CORES, inner, outer).clustered(CLUSTERS)
        } else {
            RunSpec::fig4(mechanism, 8, inner, outer)
        };
        let label = format!("{mechanism} @ {} cores", spec.exec.threads);
        assert_engines_agree(&label, &spec);
    }
}

/// The engine contract beyond the verify grid's shapes: one 256-core
/// clustered point (16 clusters × 16 cores, tree-combining software
/// barrier) must produce the identical outcome on both engines.
#[test]
fn clustered_256_core_point_matches_the_reference_engine() {
    let spec = RunSpec::fig4(BarrierMechanism::SwHier, 256, 4, 2).clustered(scale_clusters(256));
    assert_engines_agree("sw-hier @ 256 cores", &spec);
}

/// Both engines must reproduce the *pinned* digests of the two committed
/// throughput workloads at full 16-core scale — not merely match each
/// other. The committed constants were minted on the reference path
/// (no bursts), so hitting them from both engines proves the production
/// engine's bursts are invisible to the simulated machine on the real
/// workloads. Non-vacuousness is pinned through the burst counter on both
/// sides: reference runs never burst, production runs do.
#[test]
fn both_engines_reproduce_the_pinned_digests() {
    for reference_engine in [true, false] {
        let engine = if reference_engine {
            "reference"
        } else {
            "production"
        };
        let engine_att = || RunAttachments {
            reference_engine,
            ..RunAttachments::default()
        };
        let fig4_runs: Vec<_> = fig4_specs(16, 64, 64)
            .iter()
            .map(|spec| kernels::run_with(spec, engine_att()).expect("fig4 workload"))
            .collect();
        let fig4 = fold_fig4_digests(fig4_runs.iter().map(|out| out.outcome.sim.stats_digest));
        assert_eq!(
            fig4, EXPECTED_FIG4_16CORE_DIGEST,
            "fig4_16core digest moved on the {engine} engine: {fig4:#018x} != committed \
             {EXPECTED_FIG4_16CORE_DIGEST:#018x}"
        );
        let att = engine_att();
        let outcome = Viterbi::new(96)
            .run_with(&ExecSpec::parallel(16, BarrierMechanism::FilterD), att)
            .expect("viterbi workload")
            .outcome;
        assert_eq!(
            outcome.sim.stats_digest, EXPECTED_VITERBI_K5_16T_DIGEST,
            "viterbi_k5_16t digest moved on the {engine} engine: {:#018x} != committed {:#018x}",
            outcome.sim.stats_digest, EXPECTED_VITERBI_K5_16T_DIGEST
        );
        let mut fig4_bursts = fig4_runs.iter().map(|out| out.outcome.bursts);
        if reference_engine {
            assert!(fig4_bursts.all(|b| b == 0));
            assert_eq!(outcome.bursts, 0);
        } else {
            assert!(
                fig4_bursts.all(|b| b > 0),
                "a fig4 run never burst — vacuous"
            );
            assert!(outcome.bursts > 0, "viterbi never burst");
        }
    }
}
