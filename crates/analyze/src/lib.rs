//! Static verifier and dynamic race detector for MiniRISC barrier
//! programs.
//!
//! Two independent layers share this crate:
//!
//! * **Static** — [`analyze_program`] builds a control-flow graph over a
//!   [`Program`] image ([`cfg::Cfg`]), reports structural defects (bad
//!   branch targets, fall-off-the-end, unreachable code), runs register
//!   def-use dataflow (possibly-uninitialized reads, dead stores), and
//!   checks each installed barrier's routine against its mechanism's
//!   protocol contract ([`ProtocolSpec`], from
//!   [`barrier_filter::Barrier::protocol`]). Findings come back as
//!   [`Diagnostic`]s carrying stable rule ids (the [`rules`] module) so
//!   tests and CI gate on identity, not message text.
//! * **Dynamic** — [`RaceDetectorSink`] attaches to a machine as a
//!   [`TraceSink`](cmp_sim::TraceSink) and reconstructs a
//!   happens-before order from the synchronization that actually
//!   happened (invalidate/fill-release pairs, software flag and counter
//!   traffic, the dedicated network), flagging any pair of conflicting
//!   data accesses the order does not cover. It is an observer only:
//!   attaching it cannot change cycle counts or run digests.
//!
//! The `fastbar verify` experiment drives both layers over every shipped
//! kernel × mechanism combination.

mod cfg;
mod dataflow;
mod diag;
mod lint;
pub mod mc;
mod props;
mod race;

use barrier_filter::{ProtocolSpec, RegionKind};
use sim_isa::{Instr, Program};

pub use cfg::{idx_of, pc_of, Block, Cfg};
pub use dataflow::Root;
pub use diag::{rules, Diagnostic, Severity};
pub use lint::mechanism_rules;
pub use mc::{model_check, McConfig, McReport};
pub use race::{Race, RaceDetectorSink, RaceHandle, RaceKind, RaceReport};

/// Entry points of `program` for reachability and dataflow: every symbol
/// that names an instruction, plus the per-thread arrival stub lines of
/// any I-cache filter (reached only through an indirect call the CFG
/// cannot see; their registers come from the caller, so they start
/// all-defined).
fn roots(program: &Program, specs: &[ProtocolSpec]) -> Vec<Root> {
    let n = program.len();
    let mut out = Vec::new();
    if n > 0 {
        // The image start is always executable (emitters lay a jump over
        // their routines there), whether or not a symbol names it.
        out.push(Root {
            idx: 0,
            all_defined: false,
        });
    }
    for (_, pc) in program.symbols() {
        if let Some(idx) = idx_of(pc, n) {
            out.push(Root {
                idx,
                all_defined: false,
            });
        }
    }
    for spec in specs {
        for region in &spec.regions {
            if !matches!(region.kind, RegionKind::Arrival | RegionKind::ArrivalAlt) {
                continue;
            }
            for t in 0..spec.threads as u64 {
                if let Some(idx) = idx_of(region.base + t * 64, n) {
                    out.push(Root {
                        idx,
                        all_defined: true,
                    });
                }
            }
        }
    }
    out
}

/// Report non-padding instructions no entry point can reach
/// ([`rules::CFG_UNREACHABLE`]), one diagnostic per contiguous run.
fn check_unreachable(program: &Program, reachable: &[bool], diags: &mut Vec<Diagnostic>) {
    let n = program.len();
    let mut i = 0;
    while i < n {
        if reachable[i] {
            i += 1;
            continue;
        }
        let start = i;
        while i < n && !reachable[i] {
            i += 1;
        }
        // `nop` runs are alignment padding (arrival stub lines), not code.
        let real: Vec<usize> = (start..i)
            .filter(|&j| program.fetch(pc_of(j)).expect("idx in range") != Instr::Nop)
            .collect();
        if let (Some(&first), count) = (real.first(), real.len()) {
            diags.push(Diagnostic::at(
                Severity::Warning,
                pc_of(first),
                rules::CFG_UNREACHABLE,
                format!("{count} instruction(s) unreachable from every entry point"),
            ));
        }
    }
}

/// Run the full static verifier: CFG structure, unreachable code,
/// register dataflow, and one barrier-protocol lint per spec.
///
/// Diagnostics come back sorted by program counter (program-wide findings
/// first), each carrying a stable [`rules`] id.
pub fn analyze_program(program: &Program, specs: &[ProtocolSpec]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let cfg = Cfg::build(program, &mut diags);
    let roots = roots(program, specs);
    let reachable = cfg.reachable_from(roots.iter().map(|r| r.idx));
    check_unreachable(program, &reachable, &mut diags);
    dataflow::check(program, &cfg, &roots, &mut diags);
    for spec in specs {
        lint::check(program, &cfg, spec, &mut diags);
    }
    diags.sort_by_key(|d| (d.pc.is_some(), d.pc, d.rule));
    diags
}

/// The highest severity present, if any finding exists.
pub fn max_severity(diags: &[Diagnostic]) -> Option<Severity> {
    diags.iter().map(|d| d.severity).max()
}

/// Whether any finding is an [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    max_severity(diags) >= Some(Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::{Asm, Reg, CODE_BASE, INSTR_BYTES};

    #[test]
    fn unreachable_code_is_flagged_but_nop_padding_is_not() {
        let mut a = Asm::new();
        a.label("entry").unwrap();
        a.j("end");
        a.li(Reg::T0, 1); // dead
        a.li(Reg::T0, 2); // dead
        a.nop(); // padding
        a.label("end").unwrap();
        a.halt();
        let p = a.assemble().unwrap();
        let diags = analyze_program(&p, &[]);
        let unreachable: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == rules::CFG_UNREACHABLE)
            .collect();
        assert_eq!(unreachable.len(), 1);
        assert!(unreachable[0].message.starts_with("2 instruction(s)"));
        assert_eq!(unreachable[0].pc, Some(CODE_BASE + INSTR_BYTES));
    }

    #[test]
    fn severity_helpers() {
        let mut a = Asm::new();
        a.halt();
        let p = a.assemble().unwrap();
        let diags = analyze_program(&p, &[]);
        assert!(!has_errors(&diags));
        assert!(has_errors(&[Diagnostic::global(
            Severity::Error,
            rules::CFG_TARGET,
            "x"
        )]));
    }
}
