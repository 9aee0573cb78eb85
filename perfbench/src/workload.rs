//! The benchmark's two workloads and their operations.
//!
//! Each workload is a closed loop: one process and one thread run its
//! operations back to back, in an order the seed permutes
//! ([`shuffled`]). An operation is one independent simulation or
//! model-checker exploration; `pass.rs` runs and checks it.
//!
//! `fig4_loop` runs the Figure 4 loop on machines the benchmark builds
//! itself: the committed 16-core points, where spinning software
//! barriers make fetch/decode and execute do the work, and points on
//! 1024 cores in 16 clusters, where machine set-up and host memory are
//! large. `kernels_verify` runs kernels through their own `run_with`:
//! the paper's kernels at 16 threads under the filters and the dedicated
//! network, where the miss path, stores, directory, bus and bank hook do
//! the work, and the verify grid's flat 4-thread cells and model-checker
//! cells, the only operations that run the analyzers and the trace path.
//! Two workloads rather than one per kind of point let each run last
//! long enough for the shared host's slow stretches to pass.

use std::ops::Range;

use barrier_filter::BarrierMechanism;
use bench_suite::verify::MC_CORE_COUNTS;
use bench_suite::{VerifyKernel, EXPECTED_FIG4_16CORE_DIGEST, EXPECTED_VITERBI_K5_16T_DIGEST};
use cmp_sim::{parse_u64_flex, Json, Lcg};
use kernels::{RunSpec, WorkloadSpec};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 2] = ["fig4_loop", "kernels_verify"];

/// The kernel of the pinned `viterbi_k5_16t` cell (K=5, 96 data bits, 1%
/// noise), which `kernels_verify` runs under filter-d at 16 threads.
const VITERBI_K5: WorkloadSpec = WorkloadSpec::Viterbi {
    constraint: 5,
    data_bits: 96,
    noise_per_mille: 10,
};

/// Kernels `kernels_verify` runs at 16 threads: Livermore loops 2, 3 and
/// 6, Autocorrelation and Viterbi.
const FILTER_KERNELS: [WorkloadSpec; 5] = [
    WorkloadSpec::Loop2 { n: 256 },
    WorkloadSpec::Loop3 { n: 256 },
    WorkloadSpec::Loop6 { n: 64 },
    WorkloadSpec::Autocorr { n: 256, lags: 32 },
    VITERBI_K5,
];

/// Mechanisms of the 16-thread kernel runs: the four filters and the
/// dedicated network, so no core spins on a software barrier.
const FILTER_MECHANISMS: [BarrierMechanism; 5] = [
    BarrierMechanism::FilterD,
    BarrierMechanism::FilterI,
    BarrierMechanism::FilterDPingPong,
    BarrierMechanism::FilterIPingPong,
    BarrierMechanism::HwDedicated,
];

/// 1024-core points of `fig4_loop`, as (mechanism, inner, outer) of the
/// Figure 4 loop on 16 clusters of 64 cores. The filter-d-hier and
/// hw-dedicated points cost more to build than to simulate; the software
/// points spin.
const SCALE_POINTS: [(BarrierMechanism, u64, u64); 6] = [
    (BarrierMechanism::FilterDHier, 1, 1),
    (BarrierMechanism::FilterDHier, 4, 2),
    (BarrierMechanism::HwDedicated, 1, 1),
    (BarrierMechanism::HwDedicated, 4, 2),
    (BarrierMechanism::SwTree, 1, 1),
    (BarrierMechanism::SwHier, 1, 1),
];

/// What one operation does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpKind {
    /// A Figure 4 loop machine the benchmark builds
    /// (`fig4_machine_with`) and runs (`Machine::run`).
    Fig4(RunSpec),
    /// A kernel's constructor, then its `run_with`: machine build,
    /// simulation and host-reference validation in one call.
    Kernel(RunSpec),
    /// A verify cell: a kernel run with the race detector attached, then
    /// `analyze_program` over the program that ran.
    Verify(RunSpec),
    /// A model-checker cell: a mechanism's emitted routine explored at
    /// `cores` flat cores, with or without one injected fault.
    Mc {
        /// Mechanism whose routine is explored.
        mechanism: BarrierMechanism,
        /// Cores of the explored instance.
        cores: usize,
        /// Whether one fault is injected.
        fault: bool,
    },
}

/// One operation of a workload.
#[derive(Debug, Clone)]
pub struct Op {
    /// Stable name: the key of the operation's recorded digest.
    pub label: String,
    /// What the operation does.
    pub kind: OpKind,
    /// A digest the repository pins for this operation, if any.
    pub pinned: Option<u64>,
}

impl Op {
    /// An unpinned operation, labelled from its kind.
    pub fn new(kind: OpKind) -> Op {
        let label = match kind {
            OpKind::Fig4(spec) | OpKind::Kernel(spec) => spec_label(&spec),
            OpKind::Verify(spec) => format!("verify:{}", spec_label(&spec)),
            OpKind::Mc {
                mechanism,
                cores,
                fault,
            } => format!(
                "mc:{mechanism}/{cores}c{}",
                if fault { "/fault" } else { "" }
            ),
        };
        Op {
            label,
            kind,
            pinned: None,
        }
    }
}

fn spec_label(spec: &RunSpec) -> String {
    let kind = spec.workload.kind();
    let workload = match spec.workload {
        WorkloadSpec::Fig4 { inner, outer } => format!("{kind}-{inner}x{outer}"),
        WorkloadSpec::Autocorr { n, lags } => format!("{kind}-n{n}-lags{lags}"),
        WorkloadSpec::Viterbi {
            constraint,
            data_bits,
            noise_per_mille,
        } => format!("{kind}-k{constraint}-{data_bits}b-noise{noise_per_mille}"),
        WorkloadSpec::Ocean { grid, sweeps } => format!("{kind}-{grid}x{grid}-{sweeps}sweeps"),
        WorkloadSpec::Loop1 { n }
        | WorkloadSpec::Loop2 { n }
        | WorkloadSpec::Loop3 { n }
        | WorkloadSpec::Loop4 { n }
        | WorkloadSpec::Loop5 { n }
        | WorkloadSpec::Loop6 { n } => format!("{kind}-n{n}"),
    };
    let e = &spec.exec;
    match e.mechanism {
        None => format!("{workload}/seq"),
        Some(m) if e.clusters > 1 => format!("{workload}/{}t-{}cl/{m}", e.threads, e.clusters),
        Some(m) => format!("{workload}/{}t/{m}", e.threads),
    }
}

/// A pinned fold of some operations' digests: the Figure 4 chain.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    /// The operations it folds, in fold order.
    pub ops: Range<usize>,
    /// The value the repository pins.
    pub pinned: u64,
}

/// A workload: its operations and the check that spans them.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Operations, in the order digests chain and reports list them.
    pub ops: Vec<Op>,
    /// The pinned chain over some of the operations, if any.
    pub chain: Option<Chain>,
}

impl Workload {
    /// The workload called `name`, if there is one.
    pub fn named(name: &str) -> Option<Workload> {
        let mut chain = None;
        let ops: Vec<Op> = match name {
            "fig4_loop" => {
                // The 16-core points come first, in `BarrierMechanism::ALL`
                // order, which is the order the pinned chain folds them.
                chain = Some(Chain {
                    ops: 0..BarrierMechanism::ALL.len(),
                    pinned: EXPECTED_FIG4_16CORE_DIGEST,
                });
                let flat = BarrierMechanism::ALL
                    .into_iter()
                    .map(|m| RunSpec::fig4(m, 16, 64, 64));
                let clustered = SCALE_POINTS
                    .into_iter()
                    .map(|(m, inner, outer)| RunSpec::fig4(m, 1024, inner, outer).clustered(16));
                flat.chain(clustered)
                    .map(|spec| Op::new(OpKind::Fig4(spec)))
                    .collect()
            }
            "kernels_verify" => {
                let kernels = FILTER_KERNELS
                    .into_iter()
                    .flat_map(|w| {
                        std::iter::once(RunSpec::sequential(w)).chain(
                            FILTER_MECHANISMS
                                .into_iter()
                                .map(move |m| RunSpec::parallel(w, 16, m)),
                        )
                    })
                    .map(|spec| {
                        let mut op = Op::new(OpKind::Kernel(spec));
                        if spec == RunSpec::parallel(VITERBI_K5, 16, BarrierMechanism::FilterD) {
                            op.pinned = Some(EXPECTED_VITERBI_K5_16T_DIGEST);
                        }
                        op
                    });
                let cells = VerifyKernel::ALL.into_iter().flat_map(|k| {
                    BarrierMechanism::EXTENDED
                        .into_iter()
                        .map(move |m| OpKind::Verify(RunSpec::parallel(k.workload(false), 4, m)))
                });
                let mc = BarrierMechanism::EXTENDED
                    .into_iter()
                    .flat_map(|mechanism| {
                        MC_CORE_COUNTS.into_iter().flat_map(move |cores| {
                            [false, true].map(move |fault| OpKind::Mc {
                                mechanism,
                                cores,
                                fault,
                            })
                        })
                    });
                kernels.chain(cells.chain(mc).map(Op::new)).collect()
            }
            _ => return None,
        };
        Some(Workload {
            name: name.to_string(),
            ops,
            chain,
        })
    }
}

/// Per-operation digests recorded in `workloads.json` when the benchmark
/// was created; every pass checks each operation against them.
#[derive(Debug, Clone)]
pub struct Recorded(Json);

impl Recorded {
    /// The table the benchmark ships with.
    ///
    /// # Panics
    ///
    /// Panics if `workloads.json`, compiled into the binary, does not
    /// parse.
    pub fn load() -> Recorded {
        Recorded::parse(include_str!("../workloads.json")).expect("workloads.json parses")
    }

    /// A table from JSON text shaped like `workloads.json`.
    ///
    /// # Errors
    ///
    /// The JSON parse error.
    pub fn parse(text: &str) -> Result<Recorded, String> {
        Json::parse(text).map(Recorded).map_err(|e| e.to_string())
    }

    /// The digest recorded for operation `label` of `workload`.
    pub fn digest(&self, workload: &str, label: &str) -> Option<u64> {
        let d = self
            .0
            .get("workloads")?
            .get(workload)?
            .get("digests")?
            .get(label)?;
        parse_u64_flex(d.as_str()?)
    }
}

/// A pass's operation order: `0..n`, Fisher–Yates shuffled by `rng`.
pub fn shuffled(n: usize, rng: &mut Lcg) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_within_every_workload() {
        for name in NAMES {
            let w = Workload::named(name).expect("a listed workload");
            let mut labels: Vec<&str> = w.ops.iter().map(|op| op.label.as_str()).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), w.ops.len(), "{name}");
        }
        assert!(Workload::named("nope").is_none());
    }
}
