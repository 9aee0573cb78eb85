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
use cmp_sim::{json_escape, AddressSpace, SimConfig};
use kernels::{RunAttachments, RunSpec, WorkloadSpec};
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
    /// Workload label ([`VerifyKernel::name`]).
    pub kernel: &'static str,
    /// Barrier mechanism the kernel ran under.
    pub mechanism: BarrierMechanism,
    /// Core/thread count of the run.
    pub threads: usize,
    /// Topology preset the run used (1 = flat Table-2 machine).
    pub clusters: usize,
    /// Content address of the exact [`RunSpec`] this cell executed.
    pub spec_digest: u64,
    /// Every static finding, sorted by program counter.
    pub diagnostics: Vec<Diagnostic>,
    /// The dynamic pass's happens-before report.
    pub races: RaceReport,
    /// Simulated cycles of the observed run.
    pub cycles: u64,
    /// Stats digest of the observed run (must equal the unobserved one).
    pub stats_digest: u64,
}

impl VerifyCase {
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
}

/// The whole sweep: one [`VerifyCase`] per kernel × mechanism cell, plus
/// the model-checker grid when it was requested.
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
    /// [`MC_CORE_COUNTS`] × fault order (empty when the layer was off).
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
        kernel: kernel.name(),
        mechanism,
        threads,
        clusters,
        spec_digest: spec.digest(),
        diagnostics,
        races: handle.report(),
        cycles: out.outcome.sim.cycles,
        stats_digest: out.outcome.sim.stats_digest,
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
/// clustered topology points for the hierarchical pair, and (when
/// `with_mc`) the model-checker sweep.
///
/// # Errors
///
/// Collects every failed cell (kernel error or captured panic) into one
/// report; any failure fails the sweep.
pub fn run_verify(
    runner: &SweepRunner,
    threads: usize,
    quick: bool,
    with_mc: bool,
) -> Result<VerifyDoc, String> {
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

    let mc = if with_mc {
        let mc_grid: Vec<(BarrierMechanism, usize, bool)> = BarrierMechanism::EXTENDED
            .into_iter()
            .flat_map(|m| {
                MC_CORE_COUNTS
                    .into_iter()
                    .flat_map(move |c| [false, true].map(move |f| (m, c, f)))
            })
            .collect();
        runner.run_all(&mc_grid, |_, &(mechanism, cores, fault)| {
            mc_case(mechanism, cores, fault)
        })?
    } else {
        Vec::new()
    };

    Ok(VerifyDoc {
        threads,
        quick,
        cases: cases?,
        mc,
    })
}

fn findings_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (j, d) in diags.iter().enumerate() {
        out.push_str(&format!(
            "{{\"severity\": \"{}\", \"rule\": \"{}\", \"message\": \"{}\"",
            d.severity,
            json_escape(d.rule),
            json_escape(&d.message)
        ));
        if let Some(pc) = d.pc {
            out.push_str(&format!(", \"pc\": \"{pc:#x}\""));
        }
        out.push('}');
        if j + 1 < diags.len() {
            out.push_str(", ");
        }
    }
    out.push(']');
    out
}

/// Render the sweep as the machine-readable `BENCH_verify.json` document.
pub fn to_json(doc: &VerifyDoc) -> String {
    let mut out = String::from("{\n  \"schema\": \"fastbar-verify/v2\",\n");
    out.push_str(&format!("  \"threads\": {},\n", doc.threads));
    out.push_str(&format!("  \"quick\": {},\n", doc.quick));
    out.push_str(&format!("  \"passed\": {},\n", doc.passed()));
    out.push_str("  \"cases\": [\n");
    for (i, c) in doc.cases.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"kernel\": \"{}\", ", json_escape(c.kernel)));
        out.push_str(&format!(
            "\"mechanism\": \"{}\", ",
            json_escape(&c.mechanism.to_string())
        ));
        out.push_str(&format!("\"threads\": {}, ", c.threads));
        out.push_str(&format!("\"clusters\": {}, ", c.clusters));
        out.push_str(&format!("\"spec_digest\": \"{:#018x}\", ", c.spec_digest));
        out.push_str(&format!("\"errors\": {}, ", c.errors()));
        out.push_str(&format!("\"warnings\": {}, ", c.warnings()));
        out.push_str(&format!("\"races\": {}, ", c.races.total_races));
        out.push_str(&format!("\"reads_checked\": {}, ", c.races.reads_checked));
        out.push_str(&format!("\"writes_checked\": {}, ", c.races.writes_checked));
        out.push_str(&format!("\"sync_accesses\": {}, ", c.races.sync_accesses));
        out.push_str(&format!("\"cycles\": {}, ", c.cycles));
        out.push_str(&format!("\"stats_digest\": \"{:#018x}\", ", c.stats_digest));
        out.push_str(&format!(
            "\"findings\": {}}}",
            findings_json(&c.diagnostics)
        ));
        if i + 1 < doc.cases.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n  \"mc\": [\n");
    for (i, c) in doc.mc.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!(
            "\"mechanism\": \"{}\", ",
            json_escape(&c.mechanism.to_string())
        ));
        out.push_str(&format!("\"cores\": {}, ", c.cores));
        out.push_str(&format!("\"fault\": {}, ", c.fault));
        match &c.skipped {
            Some(why) => out.push_str(&format!("\"skipped\": \"{}\", ", json_escape(why))),
            None => out.push_str("\"skipped\": null, "),
        }
        out.push_str(&format!("\"states\": {}, ", c.states));
        out.push_str(&format!("\"transitions\": {}, ", c.transitions));
        out.push_str(&format!("\"truncated\": {}, ", c.truncated));
        out.push_str(&format!("\"clean\": {}, ", c.clean()));
        out.push_str(&format!("\"findings\": {}}}", findings_json(&c.findings)));
        if i + 1 < doc.mc.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

fn finding_line(prefix: &str, d: &Diagnostic) -> String {
    let mut line = format!(
        "{prefix}\"severity\": \"{}\", \"rule\": \"{}\"",
        d.severity,
        json_escape(d.rule)
    );
    if let Some(pc) = d.pc {
        line.push_str(&format!(", \"pc\": \"{pc:#x}\""));
    }
    line.push_str(&format!(", \"message\": \"{}\"}}", json_escape(&d.message)));
    line
}

/// Render every finding of the sweep as one JSON object per line
/// (`--json` mode): static diagnostics and races cell by cell in grid
/// order, then model-checker counterexamples. Deterministic: the grid
/// order is fixed and each cell's findings are already sorted.
pub fn stream_findings(doc: &VerifyDoc) -> String {
    let mut out = String::new();
    for c in &doc.cases {
        let prefix = format!(
            "{{\"layer\": \"static\", \"kernel\": \"{}\", \"mechanism\": \"{}\", \
             \"threads\": {}, \"clusters\": {}, ",
            json_escape(c.kernel),
            json_escape(&c.mechanism.to_string()),
            c.threads,
            c.clusters
        );
        for d in &c.diagnostics {
            out.push_str(&finding_line(&prefix, d));
            out.push('\n');
        }
        for r in &c.races.races {
            out.push_str(&format!(
                "{{\"layer\": \"race\", \"kernel\": \"{}\", \"mechanism\": \"{}\", \
                 \"threads\": {}, \"clusters\": {}, \"kind\": \"{}\", \"addr\": \"{:#x}\", \
                 \"cores\": [{}, {}], \"cycle\": {}}}\n",
                json_escape(c.kernel),
                json_escape(&c.mechanism.to_string()),
                c.threads,
                c.clusters,
                json_escape(r.kind.name()),
                r.addr,
                r.prev_core,
                r.core,
                r.cycle
            ));
        }
    }
    for c in &doc.mc {
        let prefix = format!(
            "{{\"layer\": \"mc\", \"mechanism\": \"{}\", \"cores\": {}, \"fault\": {}, ",
            json_escape(&c.mechanism.to_string()),
            c.cores,
            c.fault
        );
        for d in &c.findings {
            out.push_str(&finding_line(&prefix, d));
            out.push('\n');
        }
    }
    out
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
        assert_ne!(case.spec_digest, 0);
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
        assert_eq!(case.clusters, CLUSTERS);
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
    fn json_document_is_well_formed_enough() {
        let case = verify_case(
            VerifyKernel::Autocorr,
            BarrierMechanism::HwDedicated,
            4,
            1,
            true,
        )
        .expect("cell runs");
        let doc = VerifyDoc {
            threads: 4,
            quick: true,
            cases: vec![case],
            mc: vec![mc_case(BarrierMechanism::HwDedicated, 2, true)],
        };
        let json = to_json(&doc);
        assert!(json.contains("\"schema\": \"fastbar-verify/v2\""));
        assert!(json.contains("\"kernel\": \"autocorr\""));
        assert!(json.contains("\"passed\": true"));
        assert!(json.contains("\"mc\": ["));
        assert!(json.contains("\"states\": "));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces:\n{json}"
        );
    }

    #[test]
    fn findings_stream_is_one_object_per_line() {
        // A dirty mc cell guarantees at least one finding to stream.
        let mut cell = mc_case(BarrierMechanism::SwCentral, 2, false);
        cell.findings.push(Diagnostic::global(
            Severity::Error,
            analyze::rules::MC_DEADLOCK,
            "synthetic",
        ));
        let doc = VerifyDoc {
            threads: 4,
            quick: true,
            cases: Vec::new(),
            mc: vec![cell],
        };
        let stream = stream_findings(&doc);
        assert!(!stream.is_empty());
        for line in stream.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert_eq!(line.matches('{').count(), line.matches('}').count());
            assert!(line.contains("\"rule\": "));
        }
    }
}
