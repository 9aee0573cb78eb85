//! The RunSpec plumbing grid: every kernel must honour every field of a
//! [`RunSpec`] and every [`RunAttachments`] — no workload may silently
//! ignore the reference-engine switch, seeded faults or observer
//! attachments. Before the spec unification each of these capabilities
//! existed only on the kernels whose legacy variant happened to plumb it
//! (`run_parallel_faulted` on loop2/viterbi, `run_parallel_observed` on
//! most but not all); this grid is the regression fence that keeps the
//! unified surface uniform.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use barrier_filter::BarrierMechanism;
use cmp_sim::{TraceEvent, TraceSink};
use kernels::{run, run_with, RunAttachments, RunSpec, WorkloadSpec};

/// One spec per parallel-capable workload, small enough to run the whole
/// grid three times (baseline / reference engine / faulted) in one test
/// binary.
fn parallel_grid() -> Vec<RunSpec> {
    vec![
        RunSpec::fig4(BarrierMechanism::FilterD, 4, 8, 2),
        RunSpec::parallel(WorkloadSpec::Loop1 { n: 128 }, 4, BarrierMechanism::FilterI),
        RunSpec::parallel(
            WorkloadSpec::Loop2 { n: 64 },
            4,
            BarrierMechanism::FilterDPingPong,
        ),
        RunSpec::parallel(
            WorkloadSpec::Loop3 { n: 128 },
            4,
            BarrierMechanism::SwCentral,
        ),
        RunSpec::parallel(WorkloadSpec::Loop4 { n: 64 }, 4, BarrierMechanism::SwTree),
        RunSpec::parallel(
            WorkloadSpec::Loop6 { n: 32 },
            4,
            BarrierMechanism::FilterIPingPong,
        ),
        RunSpec::parallel(
            WorkloadSpec::Autocorr { n: 128, lags: 4 },
            4,
            BarrierMechanism::HwDedicated,
        ),
        RunSpec::parallel(
            WorkloadSpec::Viterbi {
                constraint: 5,
                data_bits: 48,
                noise_per_mille: 10,
            },
            4,
            BarrierMechanism::FilterD,
        ),
        RunSpec::parallel(
            WorkloadSpec::Ocean {
                grid: 12,
                sweeps: 2,
            },
            4,
            BarrierMechanism::FilterI,
        ),
    ]
}

/// A sink that only counts events — enough to prove the observer hook was
/// both invoked and attached to the built machine.
struct CountingSink(Arc<AtomicU64>);

impl TraceSink for CountingSink {
    fn record(&mut self, _cycle: u64, _ev: &TraceEvent) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn every_kernel_reaches_the_reference_engine_and_keeps_its_digest() {
    for spec in parallel_grid() {
        let kind = spec.workload.kind();
        let base = run(&spec).unwrap();
        assert!(base.outcome.bursts > 0, "{kind}: baseline run should burst");
        let oracle = run_with(&spec, RunAttachments::reference()).unwrap();
        assert_eq!(
            oracle.outcome.bursts, 0,
            "{kind}: the reference-engine attachment was silently ignored"
        );
        assert_eq!(
            base.outcome.sim, oracle.outcome.sim,
            "{kind}: the engines must agree on the measurement"
        );
    }
}

#[test]
fn every_kernel_feeds_its_fault_spec_to_the_injector() {
    for spec in parallel_grid() {
        let kind = spec.workload.kind();
        let faulted = spec.with_faults(0x9e37_79b9 ^ spec.digest(), 4, 2_000_000);
        let out = run(&faulted).unwrap();
        assert_eq!(
            out.faults.injected + out.faults.skipped,
            4,
            "{kind}: fault spec was silently ignored ({:?})",
            out.faults
        );
    }
    // The serial contrast case takes the same spec surface.
    let loop5 =
        RunSpec::sequential(WorkloadSpec::Loop5 { n: 64 }).with_faults(0x5e5e, 4, 2_000_000);
    let out = run(&loop5).unwrap();
    assert_eq!(out.faults.injected + out.faults.skipped, 4);
}

#[test]
fn observers_fire_on_every_kernel_without_perturbing_the_digest() {
    for spec in parallel_grid() {
        let kind = spec.workload.kind();
        let base = run(&spec).unwrap();
        let events = Arc::new(AtomicU64::new(0));
        let hooked = Arc::new(AtomicU64::new(0));
        let (ev, hk) = (Arc::clone(&events), Arc::clone(&hooked));
        let out = run_with(
            &spec,
            RunAttachments::observed(move |_barrier| {
                hk.fetch_add(1, Ordering::Relaxed);
                Some(Box::new(CountingSink(ev)))
            }),
        )
        .unwrap();
        assert_eq!(
            hooked.load(Ordering::Relaxed),
            1,
            "{kind}: hook not invoked"
        );
        assert!(
            events.load(Ordering::Relaxed) > 0,
            "{kind}: sink saw no events"
        );
        assert_eq!(
            base.outcome.sim.stats_digest, out.outcome.sim.stats_digest,
            "{kind}: observing a run must not change it"
        );
    }
}

#[test]
fn sequential_runs_reach_the_reference_engine_too() {
    let spec = RunSpec::sequential(WorkloadSpec::Loop5 { n: 64 });
    let base = run(&spec).unwrap();
    let oracle = run_with(&spec, RunAttachments::reference()).unwrap();
    assert!(base.outcome.bursts > 0);
    assert_eq!(oracle.outcome.bursts, 0);
    assert_eq!(base.outcome.sim, oracle.outcome.sim);
}

#[test]
fn clustered_topology_is_part_of_the_spec_surface() {
    // The 64-core/4-cluster point from the scale sweep; only the
    // hierarchical mechanisms fit a clustered bank granule at this size.
    let spec = RunSpec::fig4(BarrierMechanism::FilterDHier, 64, 8, 2).clustered(4);
    let flat = RunSpec::fig4(BarrierMechanism::FilterDHier, 64, 8, 2);
    assert_ne!(
        spec.digest(),
        flat.digest(),
        "clusters must be cache-relevant"
    );
    let out = run(&spec).unwrap();
    assert!(out.outcome.cycles_per_rep > 0.0);
}
