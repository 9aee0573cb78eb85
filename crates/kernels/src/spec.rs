//! `RunSpec`: one serializable description of a kernel run.
//!
//! Every orthogonal run option (fault plans, clustered topologies) is a
//! field of one value rather than its own run-function variant, so a run
//! configuration is *data* and a figure is a grid of runs:
//!
//! * [`WorkloadSpec`] — which kernel, at what size (the paper's eight
//!   workloads plus the Figure 4 barrier micro-benchmark);
//! * [`ExecSpec`] — threads, barrier mechanism, topology preset and an
//!   optional seeded [`FaultSpec`];
//! * [`RunSpec`] — the pair, as a [`Json`] value ([`RunSpec::to_json`])
//!   whose canonical single-line form ([`RunSpec::canonical_json`]) has
//!   an FNV-1a hash ([`RunSpec::digest`]) that is the run's content
//!   address.
//!
//! A figure's grid cell, a verify verdict's `spec_digest` and an
//! in-process call are now the same value: [`run`] consumes a spec, and
//! [`run_with`] additionally takes the non-serializable
//! [`RunAttachments`] (an observer hook that may attach a trace sink, the
//! reference-engine switch) that only make sense in-process. A finished
//! run's one result body is [`RunOutput::record`].
//!
//! A spec holds only what changes the simulated run. Host-side choices
//! live in the attachments and must leave the run's
//! [`Measurement`](cmp_sim::Measurement) digest bit-identical, so they
//! never reach a spec digest. The determinism suite pins the committed
//! Figure 4 and Viterbi digests through this path.

use barrier_filter::{Barrier, BarrierMechanism, BarrierSystem};
use cmp_sim::{
    fnv64, AddressSpace, FaultPlan, FaultReport, Json, SimConfig, TraceSink, BARRIER_BASE,
    DATA_BASE,
};
use sim_isa::{Asm, Program};

use crate::fig4::Fig4;
use crate::harness::{KernelBuild, KernelOutcome};
use crate::livermore::{Loop1, Loop2, Loop3, Loop4, Loop5, Loop6};
use crate::{Autocorr, KernelError, OceanProxy, Viterbi};

/// Which kernel to run, at what size. Serializable; sizes are validated
/// by [`RunSpec::validate`] before any kernel constructor (which would
/// panic on bad sizes) is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// The Figure 4 micro-benchmark: `inner` consecutive barriers with no
    /// work between them, repeated `outer` times.
    Fig4 {
        /// Consecutive barriers per outer repetition.
        inner: u64,
        /// Outer repetitions.
        outer: u64,
    },
    /// Livermore Loop 1 (hydro fragment) over `n` elements.
    Loop1 {
        /// Element count.
        n: usize,
    },
    /// Livermore Loop 2 (ICCG) over `n` elements (power of two, ≥ 4).
    Loop2 {
        /// Element count.
        n: usize,
    },
    /// Livermore Loop 3 (inner product) over `n` elements.
    Loop3 {
        /// Element count.
        n: usize,
    },
    /// Livermore Loop 4 (banded linear equations) over `n` elements (≥ 9).
    Loop4 {
        /// Element count.
        n: usize,
    },
    /// Livermore Loop 5 (tri-diagonal elimination) over `n` elements —
    /// a true recurrence, sequential-only.
    Loop5 {
        /// Element count.
        n: usize,
    },
    /// Livermore Loop 6 (general linear recurrence) over `n` elements (≥ 2).
    Loop6 {
        /// Element count.
        n: usize,
    },
    /// EEMBC-like autocorrelation over `n` samples with `lags` lags.
    Autocorr {
        /// Sample count.
        n: usize,
        /// Lag count (0 < lags ≤ n).
        lags: usize,
    },
    /// EEMBC-like Viterbi decode: constraint length 5 or 7, `data_bits`
    /// payload bits, `noise_per_mille` soft-symbol perturbation rate.
    Viterbi {
        /// Constraint length (5 or 7).
        constraint: u32,
        /// Payload bits to decode.
        data_bits: usize,
        /// Per-mille rate of perturbed soft symbols.
        noise_per_mille: u32,
    },
    /// The SPLASH-2-inspired red-black Gauss-Seidel proxy on a
    /// `grid`×`grid` field for `sweeps` sweeps.
    Ocean {
        /// Grid edge length (≥ 4).
        grid: usize,
        /// Red-black sweeps.
        sweeps: usize,
    },
}

impl WorkloadSpec {
    /// Stable serialized name of this workload kind.
    pub fn kind(&self) -> &'static str {
        match self {
            WorkloadSpec::Fig4 { .. } => "fig4",
            WorkloadSpec::Loop1 { .. } => "loop1",
            WorkloadSpec::Loop2 { .. } => "loop2",
            WorkloadSpec::Loop3 { .. } => "loop3",
            WorkloadSpec::Loop4 { .. } => "loop4",
            WorkloadSpec::Loop5 { .. } => "loop5",
            WorkloadSpec::Loop6 { .. } => "loop6",
            WorkloadSpec::Autocorr { .. } => "autocorr",
            WorkloadSpec::Viterbi { .. } => "viterbi",
            WorkloadSpec::Ocean { .. } => "ocean",
        }
    }

    /// Whether this workload can run under a barrier mechanism at all
    /// (Loop 5 is a true recurrence and cannot).
    pub fn is_parallelizable(&self) -> bool {
        !matches!(self, WorkloadSpec::Loop5 { .. })
    }

    fn check(&self) -> Result<(), KernelError> {
        let bad = |why: String| Err(KernelError::Spec(why));
        match *self {
            WorkloadSpec::Fig4 { inner, outer } => {
                if inner == 0 || outer == 0 {
                    return bad(format!("fig4 needs inner/outer >= 1, got {inner}x{outer}"));
                }
                if inner.checked_mul(outer).is_none() {
                    return bad(format!("fig4 {inner}x{outer} barriers overflow a u64"));
                }
            }
            WorkloadSpec::Loop1 { n } | WorkloadSpec::Loop3 { n } => {
                if n == 0 {
                    return bad(format!("{} needs n >= 1", self.kind()));
                }
            }
            WorkloadSpec::Loop2 { n } => {
                if !n.is_power_of_two() || n < 4 {
                    return bad(format!("loop2 needs a power-of-two n >= 4, got {n}"));
                }
            }
            WorkloadSpec::Loop4 { n } => {
                if n < 9 {
                    return bad(format!("loop4 needs n >= 9, got {n}"));
                }
            }
            WorkloadSpec::Loop5 { n } | WorkloadSpec::Loop6 { n } => {
                if n < 2 {
                    return bad(format!("{} needs n >= 2, got {n}", self.kind()));
                }
            }
            WorkloadSpec::Autocorr { n, lags } => {
                if lags == 0 || lags > n {
                    return bad(format!(
                        "autocorr needs 0 < lags <= n, got n={n} lags={lags}"
                    ));
                }
            }
            WorkloadSpec::Viterbi {
                constraint,
                data_bits,
                noise_per_mille,
            } => {
                if constraint != 5 && constraint != 7 {
                    return bad(format!(
                        "viterbi constraint must be 5 or 7, got {constraint}"
                    ));
                }
                if data_bits == 0 {
                    return bad("viterbi needs data_bits >= 1".into());
                }
                if noise_per_mille > 1000 {
                    return bad(format!(
                        "viterbi noise_per_mille must be <= 1000, got {noise_per_mille}"
                    ));
                }
            }
            WorkloadSpec::Ocean { grid, sweeps } => {
                if grid < 4 {
                    return bad(format!("ocean needs grid >= 4, got {grid}"));
                }
                if sweeps == 0 {
                    return bad("ocean needs sweeps >= 1".into());
                }
            }
        }
        // The kernels' arrays hold 8-byte elements in the simulated data
        // region; a larger size would overflow the host-side inputs first.
        let max_elements = (BARRIER_BASE - DATA_BASE) / 8;
        let elements = match *self {
            WorkloadSpec::Fig4 { .. } => Some(0), // no arrays
            WorkloadSpec::Loop1 { n }
            | WorkloadSpec::Loop2 { n }
            | WorkloadSpec::Loop3 { n }
            | WorkloadSpec::Loop4 { n }
            | WorkloadSpec::Loop5 { n }
            | WorkloadSpec::Loop6 { n }
            | WorkloadSpec::Autocorr { n, .. } => Some(n),
            WorkloadSpec::Viterbi { data_bits, .. } => Some(data_bits),
            WorkloadSpec::Ocean { grid, .. } => grid.checked_mul(grid),
        };
        if !elements.is_some_and(|e| u64::try_from(e).is_ok_and(|e| e <= max_elements)) {
            return bad(format!(
                "{} is too large for the {} MiB simulated data region",
                self.kind(),
                (BARRIER_BASE - DATA_BASE) >> 20
            ));
        }
        Ok(())
    }

    /// This workload as a JSON object: `kind`, then its sizes in
    /// declaration order.
    fn to_json(self) -> Json {
        let sizes: Vec<(&str, Json)> = match self {
            WorkloadSpec::Fig4 { inner, outer } => {
                vec![("inner", inner.into()), ("outer", outer.into())]
            }
            WorkloadSpec::Loop1 { n }
            | WorkloadSpec::Loop2 { n }
            | WorkloadSpec::Loop3 { n }
            | WorkloadSpec::Loop4 { n }
            | WorkloadSpec::Loop5 { n }
            | WorkloadSpec::Loop6 { n } => vec![("n", n.into())],
            WorkloadSpec::Autocorr { n, lags } => vec![("n", n.into()), ("lags", lags.into())],
            WorkloadSpec::Viterbi {
                constraint,
                data_bits,
                noise_per_mille,
            } => vec![
                ("constraint", u64::from(constraint).into()),
                ("data_bits", data_bits.into()),
                ("noise_per_mille", u64::from(noise_per_mille).into()),
            ],
            WorkloadSpec::Ocean { grid, sweeps } => {
                vec![("grid", grid.into()), ("sweeps", sweeps.into())]
            }
        };
        Json::obj(std::iter::once(("kind", self.kind().into())).chain(sizes))
    }
}

/// A seeded fault plan, expressed as data: expands to
/// [`FaultPlan::generate`]`(seed, count, horizon)` at run time. Carrying
/// the horizon explicitly (instead of deriving it from a baseline run)
/// keeps the spec self-contained, so the same serialized value always
/// produces the same plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Generator seed.
    pub seed: u64,
    /// Number of fault events to schedule.
    pub count: usize,
    /// Cycle horizon the events are spread over.
    pub horizon: u64,
}

/// How to execute a workload: parallelism, machine shape, faults.
/// Everything here is serializable; see [`RunAttachments`] for the
/// in-process-only extras.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecSpec {
    /// Thread count (= core count; one thread per core). Must be 1 when
    /// `mechanism` is `None`.
    pub threads: usize,
    /// Barrier mechanism, or `None` for the sequential baseline.
    pub mechanism: Option<BarrierMechanism>,
    /// Topology preset: 1 = the paper's flat Table-2 bus
    /// ([`SimConfig::with_cores`]), k > 1 = `k` clusters
    /// ([`SimConfig::clustered`]).
    pub clusters: usize,
    /// Optional seeded fault plan (§3.3.3 graceful degradation).
    pub faults: Option<FaultSpec>,
}

impl ExecSpec {
    /// The sequential baseline: one thread, no barrier, flat machine.
    pub fn sequential() -> ExecSpec {
        ExecSpec {
            threads: 1,
            mechanism: None,
            clusters: 1,
            faults: None,
        }
    }

    /// `threads` threads under `mechanism` on the flat Table-2 machine.
    pub fn parallel(threads: usize, mechanism: BarrierMechanism) -> ExecSpec {
        ExecSpec {
            threads,
            mechanism: Some(mechanism),
            clusters: 1,
            faults: None,
        }
    }

    /// The [`SimConfig`] this spec's topology preset selects.
    pub fn config(&self) -> SimConfig {
        SimConfig::clustered(self.threads, self.clusters)
    }

    /// The fault plan this spec describes (the empty plan when `faults`
    /// is `None` — bit-identical to an unfaulted run).
    pub fn fault_plan(&self) -> FaultPlan {
        match self.faults {
            Some(FaultSpec {
                seed,
                count,
                horizon,
            }) => FaultPlan::generate(seed, count, horizon),
            None => FaultPlan::none(),
        }
    }

    fn check(&self) -> Result<(), KernelError> {
        if self.threads == 0 {
            return Err(KernelError::Spec("threads must be >= 1".into()));
        }
        if self.threads > cmp_sim::MAX_CORES {
            return Err(KernelError::Spec(format!(
                "threads {} exceeds MAX_CORES {}",
                self.threads,
                cmp_sim::MAX_CORES
            )));
        }
        if self.mechanism.is_none() && self.threads != 1 {
            return Err(KernelError::Spec(format!(
                "sequential specs run one thread, got {}",
                self.threads
            )));
        }
        if self.clusters == 0 {
            return Err(KernelError::Spec("clusters must be >= 1".into()));
        }
        if self.clusters > 1 {
            let cpc = self.threads / self.clusters;
            if !self.clusters.is_power_of_two()
                || cpc == 0
                || cpc * self.clusters != self.threads
                || !cpc.is_power_of_two()
            {
                return Err(KernelError::Spec(format!(
                    "clusters {} must be a power of two that evenly splits threads {} \
                     into power-of-two slices",
                    self.clusters, self.threads
                )));
            }
        }
        Ok(())
    }
}

/// One serializable description of a kernel run: workload + execution.
/// The same value serves as the grid cell, the content address and the
/// in-process call — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Which kernel, at what size.
    pub workload: WorkloadSpec,
    /// How to execute it.
    pub exec: ExecSpec,
}

/// Wire schema tag of the canonical spec encoding.
pub const SPEC_SCHEMA: &str = "fastbar-spec/v2";

impl RunSpec {
    /// `workload` under `mechanism` across `threads` threads on the flat
    /// machine, no faults.
    pub fn parallel(
        workload: WorkloadSpec,
        threads: usize,
        mechanism: BarrierMechanism,
    ) -> RunSpec {
        RunSpec {
            workload,
            exec: ExecSpec::parallel(threads, mechanism),
        }
    }

    /// The sequential baseline of `workload`.
    pub fn sequential(workload: WorkloadSpec) -> RunSpec {
        RunSpec {
            workload,
            exec: ExecSpec::sequential(),
        }
    }

    /// The Figure 4 micro-benchmark: `inner`×`outer` barriers of
    /// `mechanism` across `cores` cores (the paper uses 64 × 64 at 16).
    pub fn fig4(mechanism: BarrierMechanism, cores: usize, inner: u64, outer: u64) -> RunSpec {
        RunSpec::parallel(WorkloadSpec::Fig4 { inner, outer }, cores, mechanism)
    }

    /// This spec on a `clusters`-cluster machine (builder style).
    #[must_use]
    pub fn clustered(mut self, clusters: usize) -> RunSpec {
        self.exec.clusters = clusters;
        self
    }

    /// This spec driven through a seeded fault plan (builder style).
    #[must_use]
    pub fn with_faults(mut self, seed: u64, count: usize, horizon: u64) -> RunSpec {
        self.exec.faults = Some(FaultSpec {
            seed,
            count,
            horizon,
        });
        self
    }

    /// Validate without running: workload sizes, thread/topology shape,
    /// and that a sequential-only workload is not asked to parallelize.
    ///
    /// # Errors
    ///
    /// [`KernelError::Spec`] describing the first problem found.
    pub fn validate(&self) -> Result<(), KernelError> {
        self.workload.check()?;
        self.exec.check()?;
        if self.exec.mechanism.is_some() && !self.workload.is_parallelizable() {
            return Err(KernelError::Spec(format!(
                "{} is a true recurrence and cannot run in parallel",
                self.workload.kind()
            )));
        }
        if self.exec.mechanism.is_none() && matches!(self.workload, WorkloadSpec::Fig4 { .. }) {
            return Err(KernelError::Spec(
                "fig4 measures a barrier; it has no sequential form".into(),
            ));
        }
        Ok(())
    }

    /// This spec as a JSON object: fixed field order, every field
    /// explicit (`null` for unset options), the fault seed as a `0x` hex
    /// string.
    pub fn to_json(&self) -> Json {
        let faults = match self.exec.faults {
            Some(f) => Json::obj([
                ("seed", Json::hex(f.seed)),
                ("count", f.count.into()),
                ("horizon", f.horizon.into()),
            ]),
            None => Json::Null,
        };
        Json::obj([
            ("schema", SPEC_SCHEMA.into()),
            ("workload", self.workload.to_json()),
            ("threads", self.exec.threads.into()),
            (
                "mechanism",
                self.exec.mechanism.map_or(Json::Null, |m| m.name().into()),
            ),
            ("clusters", self.exec.clusters.into()),
            ("faults", faults),
        ])
    }

    /// The canonical single-line JSON encoding: [`to_json`](RunSpec::to_json)
    /// dumped compactly. Two equal specs always produce identical bytes,
    /// so [`RunSpec::digest`] is a content address.
    pub fn canonical_json(&self) -> String {
        self.to_json().dump()
    }

    /// The spec's content address: the 64-bit FNV-1a hash of
    /// [`canonical_json`](RunSpec::canonical_json). Determinism makes it a
    /// complete key for the run's outcome.
    pub fn digest(&self) -> u64 {
        fnv64(self.canonical_json().as_bytes())
    }
}

/// The in-process-only side channel of a run: an observer hook and the
/// engine choice. Neither belongs in the serializable [`RunSpec`] — the
/// hook is a host closure whose sink may hold a file handle, and the
/// engine choice picks how the host computes an identical result — and
/// attaching them never changes the run's measurement digest.
#[derive(Default)]
pub struct RunAttachments<'a> {
    /// A hook invoked once the barrier is registered; may return the
    /// trace sink to attach (e.g. the race detector or a
    /// [`ChromeTraceSink`](cmp_sim::ChromeTraceSink)). Not invoked for
    /// sequential runs (there is no barrier to observe), so a sequential
    /// run is never traced.
    #[allow(clippy::type_complexity)]
    pub observe: Option<Box<dyn FnOnce(&Barrier) -> Option<Box<dyn TraceSink>> + 'a>>,
    /// Run on the reference engine
    /// ([`SimConfig::reference_engine`]), the test oracle the production
    /// engine is diffed against.
    pub reference_engine: bool,
}

impl<'a> RunAttachments<'a> {
    /// Attachments carrying only an observer hook.
    pub fn observed(
        observe: impl FnOnce(&Barrier) -> Option<Box<dyn TraceSink>> + 'a,
    ) -> RunAttachments<'a> {
        RunAttachments {
            observe: Some(Box::new(observe)),
            ..RunAttachments::default()
        }
    }

    /// Attachments selecting only the reference engine.
    pub fn reference() -> RunAttachments<'a> {
        RunAttachments {
            reference_engine: true,
            ..RunAttachments::default()
        }
    }
}

/// Everything a finished run produces: the validated outcome, the fault
/// report (all-zero for unfaulted runs), and the assembled program (for
/// post-run static analysis, e.g. the verify harness's race detector).
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The validated measurement.
    pub outcome: KernelOutcome,
    /// What the fault driver actually did.
    pub faults: FaultReport,
    /// The program the machine executed.
    pub program: Program,
}

impl RunOutput {
    /// The one JSON body of a run of `spec`, shared by every result
    /// document: the spec and its digest, the simulated totals and stats
    /// digest, every [`EpisodeStats`](cmp_sim::EpisodeStats) counter by
    /// name, the per-repetition figures, the fault report and the
    /// host-side burst counter.
    pub fn record(&self, spec: &RunSpec) -> Json {
        let spec_json = spec.to_json();
        let spec_digest = fnv64(spec_json.dump().as_bytes());
        let (sim, e) = (&self.outcome.sim, &self.outcome.sim.episodes);
        let f = &self.faults;
        Json::obj([
            ("spec", spec_json),
            ("spec_digest", Json::hex(spec_digest)),
            ("sim_cycles", sim.cycles.into()),
            ("sim_instructions", sim.instructions.into()),
            ("stats_digest", Json::hex(sim.stats_digest)),
            (
                "episodes",
                Json::obj([
                    ("episodes", e.episodes.into()),
                    ("parks", e.parks.into()),
                    ("releases", e.releases.into()),
                    ("errors", e.errors.into()),
                    ("serviced", e.serviced.into()),
                    ("invalidations", e.invalidations.into()),
                    ("arrival_spread_total", e.arrival_spread_total.into()),
                    ("arrival_spread_max", e.arrival_spread_max.into()),
                    ("release_fanout_total", e.release_fanout_total.into()),
                    ("release_fanout_max", e.release_fanout_max.into()),
                    ("cancellations", e.cancellations.into()),
                    ("reparks", e.reparks.into()),
                    ("resumes_after_release", e.resumes_after_release.into()),
                ]),
            ),
            ("cycles_per_rep", self.outcome.cycles_per_rep.into()),
            ("bus_mean_wait", self.outcome.bus_mean_wait.into()),
            (
                "faults",
                Json::obj([
                    ("injected", f.injected.into()),
                    ("skipped", f.skipped.into()),
                    ("violations", f.violations.into()),
                    ("resumed", f.resumed.into()),
                ]),
            ),
            ("bursts", self.outcome.bursts.into()),
        ])
    }
}

/// Run `spec` with no attachments: the single entry point every sweep
/// grid runs its cells through.
///
/// # Errors
///
/// Spec validation, build, simulation or output-validation failures.
pub fn run(spec: &RunSpec) -> Result<RunOutput, KernelError> {
    run_with(spec, RunAttachments::default())
}

/// Run `spec` with in-process attachments (an observer hook, the
/// reference engine). The attachments are observers: the outcome is
/// bit-identical to [`run`]`(spec)`.
///
/// # Errors
///
/// Spec validation, build, simulation or output-validation failures.
pub fn run_with(spec: &RunSpec, att: RunAttachments<'_>) -> Result<RunOutput, KernelError> {
    spec.validate()?;
    let exec = &spec.exec;
    match spec.workload {
        WorkloadSpec::Fig4 { inner, outer } => Fig4::new(inner, outer).run_with(exec, att),
        WorkloadSpec::Loop1 { n } => Loop1::new(n).run_with(exec, att),
        WorkloadSpec::Loop2 { n } => Loop2::new(n).run_with(exec, att),
        WorkloadSpec::Loop3 { n } => Loop3::new(n).run_with(exec, att),
        WorkloadSpec::Loop4 { n } => Loop4::new(n).run_with(exec, att),
        WorkloadSpec::Loop5 { n } => Loop5::new(n).run_with(exec, att),
        WorkloadSpec::Loop6 { n } => Loop6::new(n).run_with(exec, att),
        WorkloadSpec::Autocorr { n, lags } => Autocorr::with_lags(n, lags).run_with(exec, att),
        WorkloadSpec::Viterbi {
            constraint,
            data_bits,
            noise_per_mille,
        } => Viterbi::with_params(constraint, data_bits, noise_per_mille).run_with(exec, att),
        WorkloadSpec::Ocean { grid, sweeps } => OceanProxy::new(grid, sweeps).run_with(exec, att),
    }
}

/// Run `machine` for a spec-described kernel of `reps` repetitions
/// through the spec's fault plan. The empty plan is bit-identical to a
/// plain `Machine::run`.
pub(crate) fn run_spec_reps(
    machine: &mut cmp_sim::Machine,
    reps: u64,
    exec: &ExecSpec,
) -> Result<(KernelOutcome, FaultReport), KernelError> {
    crate::harness::run_reps_faulted(machine, reps, &exec.fault_plan())
}

impl KernelBuild {
    /// Build state for `exec` on its topology preset's machine
    /// ([`ExecSpec::config`]).
    pub(crate) fn from_exec(
        exec: &ExecSpec,
        att: &mut RunAttachments<'_>,
    ) -> Result<(KernelBuild, Option<Barrier>), KernelError> {
        KernelBuild::on(exec.config(), exec, att)
    }

    /// Build state for `exec` on `config`: the barrier (when a mechanism
    /// is set) and the engine and observer wiring.
    pub(crate) fn on(
        mut config: SimConfig,
        exec: &ExecSpec,
        att: &mut RunAttachments<'_>,
    ) -> Result<(KernelBuild, Option<Barrier>), KernelError> {
        exec.check()?;
        config.reference_engine = att.reference_engine;
        let mut space = AddressSpace::new(&config);
        let mut asm = Asm::new();
        let (sys, barrier, sink) = match exec.mechanism {
            None => (None, None, None),
            Some(mechanism) => {
                let mut sys = BarrierSystem::new(&config, exec.threads, &mut space)?;
                let barrier = sys.create_barrier(&mut asm, &mut space, mechanism, exec.threads)?;
                let sink = att.observe.take().and_then(|observe| observe(&barrier));
                (Some(sys), Some(barrier), sink)
            }
        };
        let b = KernelBuild {
            config,
            space,
            asm,
            sys,
            sink,
            threads: exec.threads,
        };
        Ok((b, barrier))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical bytes of one spec per workload kind plus a clustered
    /// and a faulted spec, as the hand-written encoder produced them
    /// before specs became [`Json`] values. Any change here moves every
    /// spec digest.
    #[test]
    fn canonical_json_bytes_are_pinned() {
        let pinned = [
            (
                RunSpec::fig4(BarrierMechanism::FilterD, 16, 64, 64),
                r#"{"schema":"fastbar-spec/v2","workload":{"kind":"fig4","inner":64,"outer":64},"threads":16,"mechanism":"filter-d","clusters":1,"faults":null}"#,
            ),
            (
                RunSpec::parallel(
                    WorkloadSpec::Loop1 { n: 128 },
                    4,
                    BarrierMechanism::SwCentral,
                ),
                r#"{"schema":"fastbar-spec/v2","workload":{"kind":"loop1","n":128},"threads":4,"mechanism":"sw-central","clusters":1,"faults":null}"#,
            ),
            (
                RunSpec::parallel(WorkloadSpec::Loop2 { n: 64 }, 8, BarrierMechanism::SwTree),
                r#"{"schema":"fastbar-spec/v2","workload":{"kind":"loop2","n":64},"threads":8,"mechanism":"sw-tree","clusters":1,"faults":null}"#,
            ),
            (
                RunSpec::parallel(
                    WorkloadSpec::Loop3 { n: 256 },
                    16,
                    BarrierMechanism::FilterI,
                ),
                r#"{"schema":"fastbar-spec/v2","workload":{"kind":"loop3","n":256},"threads":16,"mechanism":"filter-i","clusters":1,"faults":null}"#,
            ),
            (
                RunSpec::parallel(
                    WorkloadSpec::Loop4 { n: 64 },
                    4,
                    BarrierMechanism::FilterDPingPong,
                ),
                r#"{"schema":"fastbar-spec/v2","workload":{"kind":"loop4","n":64},"threads":4,"mechanism":"filter-d-pp","clusters":1,"faults":null}"#,
            ),
            (
                RunSpec::sequential(WorkloadSpec::Loop5 { n: 64 }),
                r#"{"schema":"fastbar-spec/v2","workload":{"kind":"loop5","n":64},"threads":1,"mechanism":null,"clusters":1,"faults":null}"#,
            ),
            (
                RunSpec::parallel(
                    WorkloadSpec::Loop6 { n: 40 },
                    4,
                    BarrierMechanism::HwDedicated,
                ),
                r#"{"schema":"fastbar-spec/v2","workload":{"kind":"loop6","n":40},"threads":4,"mechanism":"hw-dedicated","clusters":1,"faults":null}"#,
            ),
            (
                RunSpec::parallel(
                    WorkloadSpec::Autocorr { n: 128, lags: 8 },
                    4,
                    BarrierMechanism::FilterIPingPong,
                ),
                r#"{"schema":"fastbar-spec/v2","workload":{"kind":"autocorr","n":128,"lags":8},"threads":4,"mechanism":"filter-i-pp","clusters":1,"faults":null}"#,
            ),
            (
                RunSpec::parallel(
                    WorkloadSpec::Viterbi {
                        constraint: 7,
                        data_bits: 96,
                        noise_per_mille: 10,
                    },
                    16,
                    BarrierMechanism::FilterD,
                ),
                r#"{"schema":"fastbar-spec/v2","workload":{"kind":"viterbi","constraint":7,"data_bits":96,"noise_per_mille":10},"threads":16,"mechanism":"filter-d","clusters":1,"faults":null}"#,
            ),
            (
                RunSpec::parallel(
                    WorkloadSpec::Ocean {
                        grid: 16,
                        sweeps: 2,
                    },
                    8,
                    BarrierMechanism::HwDedicated,
                ),
                r#"{"schema":"fastbar-spec/v2","workload":{"kind":"ocean","grid":16,"sweeps":2},"threads":8,"mechanism":"hw-dedicated","clusters":1,"faults":null}"#,
            ),
            (
                RunSpec::fig4(BarrierMechanism::SwHier, 256, 4, 2).clustered(16),
                r#"{"schema":"fastbar-spec/v2","workload":{"kind":"fig4","inner":4,"outer":2},"threads":256,"mechanism":"sw-hier","clusters":16,"faults":null}"#,
            ),
            (
                RunSpec::fig4(BarrierMechanism::FilterD, 16, 64, 64).with_faults(
                    u64::MAX,
                    16,
                    1 << 40,
                ),
                r#"{"schema":"fastbar-spec/v2","workload":{"kind":"fig4","inner":64,"outer":64},"threads":16,"mechanism":"filter-d","clusters":1,"faults":{"seed":"0xffffffffffffffff","count":16,"horizon":1099511627776}}"#,
            ),
        ];
        for (spec, bytes) in pinned {
            assert_eq!(spec.canonical_json(), bytes, "{spec:?}");
            assert_eq!(spec.digest(), fnv64(bytes.as_bytes()));
            assert_eq!(Json::parse(bytes).expect("valid JSON").dump(), bytes);
        }
    }

    #[test]
    fn the_record_carries_the_spec_and_every_counter() {
        let spec = RunSpec::fig4(BarrierMechanism::FilterD, 4, 2, 1).with_faults(7, 0, 1000);
        let out = run(&spec).expect("fig4 runs");
        let record = out.record(&spec);
        assert_eq!(record.get("spec"), Some(&spec.to_json()));
        assert_eq!(
            record.get("spec_digest").and_then(Json::as_u64),
            Some(spec.digest())
        );
        assert_eq!(
            record.get("stats_digest").and_then(Json::as_u64),
            Some(out.outcome.sim.stats_digest)
        );
        assert_eq!(
            record.get("sim_cycles").and_then(Json::as_u64),
            Some(out.outcome.sim.cycles)
        );
        let episodes = record.get("episodes").expect("episodes");
        assert_eq!(episodes.get("episodes").and_then(Json::as_u64), Some(2));
        let Json::Obj(fields) = episodes else {
            panic!("episodes is an object")
        };
        assert_eq!(fields.len(), 13, "every EpisodeStats field, no means");
        assert_eq!(
            record.get("cycles_per_rep").and_then(Json::as_f64),
            Some(out.outcome.cycles_per_rep)
        );
        for key in ["bus_mean_wait", "faults"] {
            assert!(record.get(key).is_some(), "{key}");
        }
        assert_eq!(
            record.get("bursts").and_then(Json::as_u64),
            Some(out.outcome.bursts)
        );
        assert!(out.outcome.bursts > 0, "the production engine bursts");
        assert_eq!(Json::parse(&record.dump()).expect("re-parses"), record);
    }

    #[test]
    fn digest_is_field_sensitive() {
        let base = RunSpec::fig4(BarrierMechanism::FilterD, 16, 64, 64);
        let mut seen = vec![base.digest()];
        for other in [
            RunSpec::fig4(BarrierMechanism::FilterI, 16, 64, 64),
            RunSpec::fig4(BarrierMechanism::FilterD, 8, 64, 64),
            RunSpec::fig4(BarrierMechanism::FilterD, 16, 32, 64),
            base.with_faults(1, 1, 1000),
            RunSpec::fig4(BarrierMechanism::SwHier, 256, 4, 2).clustered(16),
        ] {
            let d = other.digest();
            assert!(!seen.contains(&d), "digest collision for {other:?}");
            seen.push(d);
        }
    }

    #[test]
    fn validation_rejects_inconsistent_specs() {
        for (spec, why) in [
            (
                RunSpec::parallel(WorkloadSpec::Loop5 { n: 64 }, 4, BarrierMechanism::FilterD),
                "recurrence",
            ),
            (
                RunSpec::sequential(WorkloadSpec::Fig4 { inner: 8, outer: 2 }),
                "sequential",
            ),
            (
                RunSpec::parallel(WorkloadSpec::Loop2 { n: 63 }, 4, BarrierMechanism::FilterD),
                "power-of-two",
            ),
            (
                RunSpec::fig4(BarrierMechanism::SwHier, 24, 8, 2).clustered(5),
                "split",
            ),
            (
                RunSpec::fig4(BarrierMechanism::SwHier, 12, 2, 1).clustered(3),
                "three clusters of four",
            ),
            (
                RunSpec::fig4(BarrierMechanism::SwHier, 6, 2, 1).clustered(3),
                "three clusters of two",
            ),
            (
                RunSpec::parallel(
                    WorkloadSpec::Autocorr { n: 8, lags: 9 },
                    4,
                    BarrierMechanism::FilterD,
                ),
                "lags",
            ),
            (
                RunSpec::fig4(BarrierMechanism::FilterD, 2, 1 << 32, 1 << 32),
                "episode count overflows",
            ),
            (
                RunSpec::sequential(WorkloadSpec::Loop3 { n: usize::MAX / 4 }),
                "loop3 larger than the data region",
            ),
            (
                RunSpec::sequential(WorkloadSpec::Loop1 { n: usize::MAX }),
                "loop1 larger than the data region",
            ),
            (
                RunSpec::sequential(WorkloadSpec::Ocean {
                    grid: 1 << 40,
                    sweeps: 1,
                }),
                "ocean grid larger than the data region",
            ),
        ] {
            let err = spec.validate().expect_err(why);
            assert!(matches!(err, KernelError::Spec(_)), "{why}: {err}");
        }
        let largest = ((BARRIER_BASE - DATA_BASE) / 8) as usize;
        assert_eq!(
            RunSpec::sequential(WorkloadSpec::Loop1 { n: largest }).validate(),
            Ok(()),
            "the largest size that fits the data region validates"
        );
        let mut seq = RunSpec::sequential(WorkloadSpec::Loop5 { n: 64 });
        seq.exec.threads = 4;
        assert!(seq.validate().is_err(), "sequential with 4 threads");
    }

    /// Every clustered shape `validate` accepts must build: its preset
    /// passes [`SimConfig::validate`] instead of panicking in
    /// [`SimConfig::clustered`].
    #[test]
    fn every_accepted_topology_has_a_valid_config() {
        let mut accepted = 0;
        for threads in 1..=cmp_sim::MAX_CORES {
            for clusters in 1..=64 {
                let spec =
                    RunSpec::fig4(BarrierMechanism::SwHier, threads, 2, 1).clustered(clusters);
                if spec.validate().is_ok() {
                    accepted += 1;
                    let config = spec.exec.config();
                    assert_eq!(
                        config.validate(),
                        Ok(()),
                        "{threads} threads, {clusters} clusters"
                    );
                }
            }
        }
        assert!(accepted > 1024, "the grid covers clustered shapes");
    }

    #[test]
    fn fault_spec_expands_to_the_seeded_plan() {
        let spec = RunSpec::parallel(
            WorkloadSpec::Viterbi {
                constraint: 5,
                data_bits: 24,
                noise_per_mille: 10,
            },
            8,
            BarrierMechanism::FilterD,
        )
        .with_faults(0x1e7b, 16, 500_000);
        let plan = spec.exec.fault_plan();
        assert_eq!(plan.events.len(), 16);
        assert_eq!(
            plan.events,
            FaultPlan::generate(0x1e7b, 16, 500_000).events,
            "same spec, same plan"
        );
        assert!(RunSpec::fig4(BarrierMechanism::FilterD, 4, 2, 1)
            .exec
            .fault_plan()
            .events
            .is_empty());
    }
}
