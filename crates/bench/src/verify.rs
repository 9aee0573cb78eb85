//! Kernel × mechanism verification sweep: all three layers of the
//! `analyze` crate driven over every shipped parallel kernel.
//!
//! Each grid cell runs one kernel under one barrier mechanism with a
//! [`RaceDetectorSink`] attached, then feeds the assembled program and
//! its registered [`ProtocolSpec`](barrier_filter::ProtocolSpec) through
//! the static verifier. A cell is *clean* when the static pass reports no
//! `Error` and the dynamic pass observed no race — the shipped kernels
//! must be clean under every mechanism, and `fastbar verify` exits
//! non-zero otherwise.
//!
//! The grid covers every [`BarrierMechanism::EXTENDED`] member on the
//! flat Table-2 machine, plus 64-core / 4-cluster topology points for the
//! two hierarchical mechanisms (whose interesting code paths — the
//! `tid >> k` leader addressing of the global phase — a flat machine
//! never executes).
//!
//! The third layer is the bounded model checker ([`analyze::mc`]): every
//! mechanism's emitted routine is explored exhaustively at 2–4 cores,
//! with and without an injected fault, against the `R-MC-*` properties.
//!
//! The sweep rides the same [`SweepRunner`] as every experiment: cells
//! are independent simulations, so host parallelism cannot change a
//! single verdict.

use analyze::{
    analyze_program, model_check, Diagnostic, McConfig, RaceDetectorSink, RaceReport, Severity,
};
use barrier_filter::{BarrierMechanism, BarrierSystem};
use cmp_sim::{AddressSpace, Json, SimConfig};
use kernels::{RunAttachments, RunOutput, RunSpec, WorkloadSpec};
use sim_isa::Asm;

use crate::sweep::SweepRunner;

/// Core counts the model-checker layer explores per mechanism.
pub const MC_CORE_COUNTS: [usize; 3] = [2, 3, 4];

/// Core count of the clustered topology points.
pub const CLUSTERED_CORES: usize = 64;

/// Cluster count of the clustered topology points.
pub const CLUSTERS: usize = 4;

/// One verifiable workload: a parallel kernel at the sweep's fixed size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyKernel {
    /// Livermore Loop 1 (hydro fragment).
    Loop1,
    /// Livermore Loop 2 (ICCG).
    Loop2,
    /// Livermore Loop 3 (inner product).
    Loop3,
    /// Livermore Loop 4 (banded linear equations).
    Loop4,
    /// Livermore Loop 6 (general linear recurrence).
    Loop6,
    /// EEMBC-like Autocorrelation.
    Autocorr,
    /// EEMBC-like Viterbi decoder.
    Viterbi,
    /// SPLASH-2 Ocean-like stencil (coarse-grained contrast case).
    Ocean,
}

impl VerifyKernel {
    /// Every parallel kernel in the suite (Loop 5 is inherently serial
    /// and has no parallel version to verify).
    pub const ALL: [VerifyKernel; 8] = [
        VerifyKernel::Loop1,
        VerifyKernel::Loop2,
        VerifyKernel::Loop3,
        VerifyKernel::Loop4,
        VerifyKernel::Loop6,
        VerifyKernel::Autocorr,
        VerifyKernel::Viterbi,
        VerifyKernel::Ocean,
    ];

    /// Workload label.
    pub fn name(self) -> &'static str {
        match self {
            VerifyKernel::Loop1 => "loop1",
            VerifyKernel::Loop2 => "loop2",
            VerifyKernel::Loop3 => "loop3",
            VerifyKernel::Loop4 => "loop4",
            VerifyKernel::Loop6 => "loop6",
            VerifyKernel::Autocorr => "autocorr",
            VerifyKernel::Viterbi => "viterbi",
            VerifyKernel::Ocean => "ocean",
        }
    }

    /// This kernel at the sweep's fixed size (`quick` shrinks it for the
    /// CI smoke run; verdicts are size-independent for the shipped
    /// kernels, only cycle counts move).
    pub fn workload(self, quick: bool) -> WorkloadSpec {
        match self {
            VerifyKernel::Loop1 => WorkloadSpec::Loop1 {
                n: if quick { 64 } else { 128 },
            },
            VerifyKernel::Loop2 => WorkloadSpec::Loop2 {
                n: if quick { 64 } else { 128 },
            },
            VerifyKernel::Loop3 => WorkloadSpec::Loop3 {
                n: if quick { 64 } else { 128 },
            },
            VerifyKernel::Loop4 => WorkloadSpec::Loop4 {
                n: if quick { 64 } else { 128 },
            },
            VerifyKernel::Loop6 => WorkloadSpec::Loop6 {
                n: if quick { 24 } else { 40 },
            },
            VerifyKernel::Autocorr => WorkloadSpec::Autocorr {
                n: if quick { 64 } else { 96 },
                lags: 32,
            },
            VerifyKernel::Viterbi => WorkloadSpec::Viterbi {
                constraint: 5,
                data_bits: if quick { 24 } else { 48 },
                noise_per_mille: 10,
            },
            VerifyKernel::Ocean => WorkloadSpec::Ocean {
                grid: 16,
                sweeps: if quick { 2 } else { 3 },
            },
        }
    }
}

/// The verdict for one kernel × mechanism cell.
#[derive(Debug, Clone)]
pub struct VerifyCase {
    /// The exact run this cell executed (kernel, mechanism, threads,
    /// topology preset).
    pub spec: RunSpec,
    /// The observed run (its stats digest must equal the unobserved
    /// one's).
    pub out: RunOutput,
    /// Every static finding, sorted by program counter.
    pub diagnostics: Vec<Diagnostic>,
    /// The dynamic pass's happens-before report.
    pub races: RaceReport,
}

impl VerifyCase {
    /// The barrier mechanism the kernel ran under.
    pub fn mechanism(&self) -> BarrierMechanism {
        self.spec
            .exec
            .mechanism
            .expect("verify cells are parallel runs")
    }

    /// Static findings at `Error` severity.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Static findings at `Warning` severity.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// No static `Error` and no dynamic race.
    pub fn clean(&self) -> bool {
        self.errors() == 0 && !self.races.racy()
    }

    /// The run's [`RunOutput::record`] plus this cell's verdict: finding
    /// counts, the race detector's counters and every static finding.
    pub fn record(&self) -> Json {
        self.out
            .record(&self.spec)
            .with("errors", self.errors())
            .with("warnings", self.warnings())
            .with("races", self.races.total_races)
            .with("reads_checked", self.races.reads_checked)
            .with("writes_checked", self.races.writes_checked)
            .with("sync_accesses", self.races.sync_accesses)
            .with("findings", findings_json(&self.diagnostics))
    }
}

/// One model-checker cell: a mechanism's emitted routine explored at a
/// small core count, with or without fault injection.
#[derive(Debug, Clone)]
pub struct McCase {
    /// Mechanism whose routine was explored.
    pub mechanism: BarrierMechanism,
    /// Cores of the explored instance.
    pub cores: usize,
    /// Whether one `SwitchOut`/`Migrate` fault was injected.
    pub fault: bool,
    /// Why the cell could not run, when it could not (e.g. the flat
    /// topology cannot host a hierarchical mechanism at this core
    /// count). A skipped cell counts as clean.
    pub skipped: Option<String>,
    /// Distinct states explored.
    pub states: u64,
    /// Transitions executed.
    pub transitions: u64,
    /// Whether exploration hit its state bound.
    pub truncated: bool,
    /// Property counterexamples (each carries its schedule).
    pub findings: Vec<Diagnostic>,
}

impl McCase {
    /// Fully explored with no counterexample (or legitimately skipped).
    pub fn clean(&self) -> bool {
        self.skipped.is_some() || (!self.truncated && self.findings.is_empty())
    }

    /// This cell as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("mechanism", self.mechanism.name().into()),
            ("cores", self.cores.into()),
            ("fault", self.fault.into()),
            (
                "skipped",
                self.skipped.clone().map_or(Json::Null, Json::from),
            ),
            ("states", self.states.into()),
            ("transitions", self.transitions.into()),
            ("truncated", self.truncated.into()),
            ("clean", self.clean().into()),
            ("findings", findings_json(&self.findings)),
        ])
    }
}

/// The whole sweep: one [`VerifyCase`] per kernel × mechanism cell, plus
/// the model-checker grid.
#[derive(Debug, Clone)]
pub struct VerifyDoc {
    /// Core/thread count the flat cells ran at.
    pub threads: usize,
    /// Whether `--quick` shrank the workloads.
    pub quick: bool,
    /// Flat cells in kernel-major [`BarrierMechanism::EXTENDED`]-column
    /// order, then the clustered topology points.
    pub cases: Vec<VerifyCase>,
    /// Model-checker cells in [`BarrierMechanism::EXTENDED`] ×
    /// [`MC_CORE_COUNTS`] × fault order.
    pub mc: Vec<McCase>,
}

impl VerifyDoc {
    /// Whether every cell (simulation and model-checker) verified clean.
    pub fn passed(&self) -> bool {
        self.cases.iter().all(VerifyCase::clean) && self.mc.iter().all(McCase::clean)
    }
}

/// Verify one kernel under one mechanism: run the [`RunSpec`] with the
/// race detector attached, then statically analyze the very program that
/// ran.
///
/// # Errors
///
/// Labels and propagates kernel failures (which include the harness's own
/// output validation — a cell that computes wrong answers never reaches
/// the verifier).
pub fn verify_case(
    kernel: VerifyKernel,
    mechanism: BarrierMechanism,
    threads: usize,
    clusters: usize,
    quick: bool,
) -> Result<VerifyCase, String> {
    let spec = RunSpec::parallel(kernel.workload(quick), threads, mechanism).clustered(clusters);
    let mut handle = None;
    let mut protocol = None;
    let observe = |bar: &barrier_filter::Barrier| {
        protocol = Some(bar.protocol().clone());
        let sink = RaceDetectorSink::new([bar.protocol()]);
        handle = Some(sink.handle());
        Some(Box::new(sink) as Box<dyn cmp_sim::TraceSink>)
    };
    let out = kernels::run_with(&spec, RunAttachments::observed(observe)).map_err(|e| {
        format!(
            "{} × {mechanism} ({threads}t/{clusters}c): {e}",
            kernel.name()
        )
    })?;
    let protocol = protocol.expect("parallel kernels always register a barrier");
    let handle = handle.expect("observe hook always installs the detector");
    let diagnostics = analyze_program(&out.program, std::slice::from_ref(&protocol));
    Ok(VerifyCase {
        spec,
        out,
        diagnostics,
        races: handle.report(),
    })
}

/// Run one model-checker cell: emit `mechanism` for `cores` through the
/// real registration path on a flat machine and explore it exhaustively.
/// Registration failures and fallbacks (a topology that cannot host the
/// mechanism) come back as skipped cells, not errors.
pub fn mc_case(mechanism: BarrierMechanism, cores: usize, fault: bool) -> McCase {
    let mut cell = McCase {
        mechanism,
        cores,
        fault,
        skipped: None,
        states: 0,
        transitions: 0,
        truncated: false,
        findings: Vec::new(),
    };
    let config = SimConfig::with_cores(cores);
    let mut space = AddressSpace::new(&config);
    let mut asm = Asm::new();
    let mut sys = match BarrierSystem::new(&config, cores, &mut space) {
        Ok(sys) => sys,
        Err(e) => {
            cell.skipped = Some(format!("topology: {e}"));
            return cell;
        }
    };
    let barrier = match sys.create_barrier(&mut asm, &mut space, mechanism, cores) {
        Ok(b) if !b.is_fallback() => b,
        Ok(_) => {
            cell.skipped = Some(format!("topology: {cores} flat cores fall back"));
            return cell;
        }
        Err(e) => {
            cell.skipped = Some(format!("topology: {e}"));
            return cell;
        }
    };
    asm.label("entry").unwrap();
    barrier.emit_call(&mut asm);
    asm.halt();
    let protocol = barrier.protocol().clone();
    let program = match asm.assemble() {
        Ok(p) => p,
        Err(e) => {
            cell.skipped = Some(format!("assembly: {e}"));
            return cell;
        }
    };
    let cfg = McConfig {
        fault,
        ..McConfig::default()
    };
    let report = model_check(&program, &protocol, &cfg);
    cell.states = report.states;
    cell.transitions = report.transitions;
    cell.truncated = report.truncated;
    cell.findings = report.diagnostics;
    cell
}

/// Run the full verification grid on `runner`: every kernel ×
/// [`BarrierMechanism::EXTENDED`] on the flat `threads`-core machine, the
/// clustered topology points for the hierarchical pair, and the
/// model-checker sweep.
///
/// # Errors
///
/// Collects every failed cell (kernel error or captured panic) into one
/// report; any failure fails the sweep.
pub fn run_verify(runner: &SweepRunner, threads: usize, quick: bool) -> Result<VerifyDoc, String> {
    let mut grid: Vec<(VerifyKernel, BarrierMechanism, usize, usize)> = VerifyKernel::ALL
        .into_iter()
        .flat_map(|k| {
            BarrierMechanism::EXTENDED
                .into_iter()
                .map(move |m| (k, m, threads, 1))
        })
        .collect();
    for kernel in VerifyKernel::ALL {
        for mechanism in [BarrierMechanism::SwHier, BarrierMechanism::FilterDHier] {
            grid.push((kernel, mechanism, CLUSTERED_CORES, CLUSTERS));
        }
    }
    let cases = runner.run_all(&grid, |_, &(kernel, mechanism, threads, clusters)| {
        verify_case(kernel, mechanism, threads, clusters, quick)
    })?;
    let cases: Result<Vec<VerifyCase>, String> = cases.into_iter().collect();

    let mc_grid: Vec<(BarrierMechanism, usize, bool)> = BarrierMechanism::EXTENDED
        .into_iter()
        .flat_map(|m| {
            MC_CORE_COUNTS
                .into_iter()
                .flat_map(move |c| [false, true].map(move |f| (m, c, f)))
        })
        .collect();
    let mc = runner.run_all(&mc_grid, |_, &(mechanism, cores, fault)| {
        mc_case(mechanism, cores, fault)
    })?;

    Ok(VerifyDoc {
        threads,
        quick,
        cases: cases?,
        mc,
    })
}

/// Static or model-checker findings as a JSON array of objects:
/// `severity`, `rule`, `pc` (when the finding has one) and `message`.
fn findings_json(diags: &[Diagnostic]) -> Json {
    Json::Arr(
        diags
            .iter()
            .map(|d| {
                let obj = Json::obj([
                    ("severity", d.severity.to_string().into()),
                    ("rule", d.rule.into()),
                ]);
                let obj = match d.pc {
                    Some(pc) => obj.with("pc", format!("{pc:#x}")),
                    None => obj,
                };
                obj.with("message", d.message.as_str())
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cell_verifies_clean() {
        let case = verify_case(VerifyKernel::Loop3, BarrierMechanism::FilterD, 4, 1, true)
            .expect("cell runs");
        assert!(case.clean(), "shipped kernel must be clean: {case:#?}");
        assert!(case.races.reads_checked > 0);
        assert!(case.races.writes_checked > 0);
        assert_ne!(case.spec.digest(), 0);
    }

    #[test]
    fn one_clustered_cell_verifies_clean() {
        let case = verify_case(
            VerifyKernel::Loop3,
            BarrierMechanism::SwHier,
            CLUSTERED_CORES,
            CLUSTERS,
            true,
        )
        .expect("clustered cell runs");
        assert!(case.clean(), "clustered cell must be clean: {case:#?}");
        assert_eq!(case.spec.exec.clusters, CLUSTERS);
    }

    #[test]
    fn mc_cells_run_and_skip_correctly() {
        let cell = mc_case(BarrierMechanism::SwCentral, 2, false);
        assert!(cell.skipped.is_none());
        assert!(cell.clean(), "{:#?}", cell.findings);
        assert!(cell.states > 1);
        // A hierarchical mechanism cannot register on 3 flat cores: the
        // cell is skipped, not failed.
        let cell = mc_case(BarrierMechanism::SwHier, 3, false);
        assert!(cell.skipped.is_some());
        assert!(cell.clean());
    }

    #[test]
    fn records_carry_the_run_and_the_verdict() {
        let case = verify_case(
            VerifyKernel::Autocorr,
            BarrierMechanism::HwDedicated,
            4,
            1,
            true,
        )
        .expect("cell runs");
        let record = Json::parse(&case.record().dump()).expect("record re-parses");
        let field = |key: &str| record.get(key).and_then(Json::as_u64);
        assert_eq!(field("spec_digest"), Some(case.spec.digest()));
        assert_eq!(
            field("stats_digest"),
            Some(case.out.outcome.sim.stats_digest)
        );
        assert_eq!(field("errors"), Some(0));
        assert_eq!(field("races"), Some(0));
        assert_eq!(field("reads_checked"), Some(case.races.reads_checked));
        assert_eq!(
            record.get("findings").map(|f| f.items().len()),
            Some(case.diagnostics.len())
        );
        let mc = mc_case(BarrierMechanism::HwDedicated, 2, true).to_json();
        assert_eq!(mc.get("clean"), Some(&Json::Bool(true)));
        assert!(mc
            .get("states")
            .and_then(Json::as_u64)
            .is_some_and(|n| n > 0));
    }

    #[test]
    fn mc_findings_serialize_severity_rule_and_message() {
        // A dirty mc cell: one synthetic counterexample without a pc.
        let mut cell = mc_case(BarrierMechanism::SwCentral, 2, false);
        cell.findings.push(Diagnostic::global(
            Severity::Error,
            analyze::rules::MC_DEADLOCK,
            "synthetic",
        ));
        let json = Json::parse(&cell.to_json().dump()).expect("cell re-parses");
        assert_eq!(json.get("clean"), Some(&Json::Bool(false)));
        let findings = json.get("findings").expect("findings").items();
        assert_eq!(findings.len(), 1);
        let finding = &findings[0];
        let field = |key: &str| finding.get(key).and_then(Json::as_str);
        assert_eq!(
            field("severity"),
            Some(Severity::Error.to_string().as_str())
        );
        assert_eq!(field("rule"), Some(analyze::rules::MC_DEADLOCK));
        assert_eq!(field("message"), Some("synthetic"));
        assert_eq!(finding.get("pc"), None);
    }
}
