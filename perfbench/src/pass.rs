//! One pass over a workload's operations: run each operation, time its
//! phases, add its work to the pass counters and check its output.
//!
//! An operation's set-up (kernel constructors, machine builds, barrier
//! emission) is its `setup_s`; its run (`Machine::run`, a kernel run with
//! its host-reference validation, the static verifier, the model checker)
//! is its `wall_s` and `cpu_s`. A failed check is recorded and the pass
//! goes on.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::rc::Rc;
use std::time::Instant;

use analyze::{analyze_program, model_check, McConfig, RaceDetectorSink, Severity};
use barrier_filter::{Barrier, BarrierMechanism};
use bench_suite::{fig4_machine_with, fold_fig4_digests};
use cmp_sim::{fnv64, DecodeCacheStats, FusedMemStats, Measurement, TraceSink};
use kernels::{RunAttachments, RunSpec};

use crate::counters::Counters;
use crate::host::cpu_seconds;
use crate::kernel::{emit_mc_routine, Kernel};
use crate::sink::{CountingSink, EventCounts};
use crate::spans::Recorder;
use crate::workload::{Op, OpKind, Recorded, Workload};

/// Host times of one operation in one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Times {
    /// Set-up wall seconds.
    pub setup_s: f64,
    /// Run-phase wall seconds.
    pub wall_s: f64,
    /// Run-phase CPU seconds of the process (user + system).
    pub cpu_s: f64,
}

/// One pass over every operation of a workload.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Each operation's host times, in `ops` order.
    pub times: Vec<Times>,
    /// Exact work counters.
    pub counters: Counters,
    /// Each operation's digest, in `ops` order (0 if it produced none).
    pub digests: Vec<u64>,
    /// The chain's fold of `digests`, for a workload with a pinned chain.
    pub chain: Option<u64>,
    /// Operations run.
    pub attempted: usize,
    /// Operations that failed a check.
    pub failed: usize,
    /// What failed, one line per failure.
    pub failures: Vec<String>,
    /// Indices of the spans this pass recorded.
    pub spans: Range<usize>,
}

impl Pass {
    /// One host time summed over the pass's operations.
    pub fn total(&self, time: impl Fn(&Times) -> f64) -> f64 {
        self.times.iter().map(time).sum()
    }

    /// Failed operations over attempted ones.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }
}

/// Run every operation of `w` once, in `order`, checking each against
/// `recorded`. A traced pass attaches the counting sink to every machine
/// that has a barrier to hook it to, and records spans into `rec`.
pub fn run_pass(
    w: &Workload,
    order: &[usize],
    recorded: &Recorded,
    traced: bool,
    rec: &mut Recorder,
) -> Pass {
    let first_span = rec.spans().len();
    let mut counters = Counters::default();
    let mut digests = vec![0; w.ops.len()];
    let mut failed = vec![false; w.ops.len()];
    let mut failures = Vec::new();
    let mut times = vec![Times::default(); w.ops.len()];
    for &i in order {
        let op = &w.ops[i];
        let mut cx = Cx::new(i, traced, rec, &mut counters);
        let result = cx.run(op.kind);
        times[i] = cx.watch.times;
        let verdict = result.and_then(|digest| {
            digests[i] = digest;
            check(&w.name, op, digest, recorded)
        });
        if let Err(why) = verdict {
            failed[i] = true;
            failures.push(format!("{}: {why}", op.label));
        }
    }
    let chain = w.chain.as_ref().map(|c| {
        let chain = fold_fig4_digests(digests[c.ops.clone()].iter().copied());
        if chain != c.pinned {
            failed[c.ops.clone()].iter_mut().for_each(|f| *f = true);
            failures.push(format!(
                "{} chain {chain:#018x} != pinned {:#018x}",
                w.name, c.pinned
            ));
        }
        chain
    });
    Pass {
        times,
        counters,
        digests,
        chain,
        attempted: order.len(),
        failed: failed.iter().filter(|&&f| f).count(),
        failures,
        spans: first_span..rec.spans().len(),
    }
}

/// Check an operation's digest against its pinned and recorded values.
fn check(workload: &str, op: &Op, digest: u64, recorded: &Recorded) -> Result<(), String> {
    if let Some(pinned) = op.pinned.filter(|&p| p != digest) {
        return Err(format!("digest {digest:#018x} != pinned {pinned:#018x}"));
    }
    match recorded.digest(workload, &op.label) {
        Some(r) if r == digest => Ok(()),
        Some(r) => Err(format!("digest {digest:#018x} != recorded {r:#018x}")),
        None => Err(format!("digest {digest:#018x} is not recorded")),
    }
}

/// Host timing of one operation: its set-up phase, then its run phase.
#[derive(Debug, Clone, Copy)]
struct Watch {
    mark: Instant,
    cpu_mark: f64,
    times: Times,
}

impl Watch {
    fn start() -> Watch {
        Watch {
            mark: Instant::now(),
            cpu_mark: 0.0,
            times: Times::default(),
        }
    }

    /// End the set-up phase and start the run phase.
    fn setup_done(&mut self) {
        self.times.setup_s = self.mark.elapsed().as_secs_f64();
        self.cpu_mark = cpu_seconds();
        self.mark = Instant::now();
    }

    /// End the run phase.
    fn run_done(&mut self) {
        self.times.wall_s = self.mark.elapsed().as_secs_f64();
        self.times.cpu_s = cpu_seconds() - self.cpu_mark;
    }
}

/// What one operation runs with: its spans, the pass counters, its timing
/// and, in a traced pass, the counting sink's shared counts.
struct Cx<'a> {
    op: usize,
    traced: bool,
    rec: &'a mut Recorder,
    counters: &'a mut Counters,
    watch: Watch,
    events: Rc<RefCell<EventCounts>>,
    /// Whether a counting sink was attached: a sequential kernel run has
    /// no barrier to hook one to.
    observed: Rc<Cell<bool>>,
}

impl<'a> Cx<'a> {
    fn new(op: usize, traced: bool, rec: &'a mut Recorder, counters: &'a mut Counters) -> Cx<'a> {
        Cx {
            op,
            traced,
            rec,
            counters,
            watch: Watch::start(),
            events: Rc::default(),
            observed: Rc::default(),
        }
    }

    fn run(&mut self, kind: OpKind) -> Result<u64, String> {
        let root = self.rec.enter("op", self.op);
        let result = match kind {
            OpKind::Fig4(spec) => self.fig4(&spec),
            OpKind::Kernel(spec) => self.kernel(&spec),
            OpKind::Verify(spec) => self.verify(&spec),
            OpKind::Mc {
                mechanism,
                cores,
                fault,
            } => self.mc(mechanism, cores, fault),
        };
        self.rec.exit(root);
        result
    }

    /// Run `f` inside a span named `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.rec.enter(name, self.op);
        let out = f();
        self.rec.exit(span);
        out
    }

    /// Attachments that install the counting sink in a traced pass.
    fn counting(&self) -> RunAttachments<'static> {
        if !self.traced {
            return RunAttachments::default();
        }
        let (events, observed) = (Rc::clone(&self.events), Rc::clone(&self.observed));
        RunAttachments::observed(move |_: &Barrier| {
            observed.set(true);
            Some(Box::new(CountingSink::new(events, None)) as Box<dyn TraceSink>)
        })
    }

    /// Add a finished simulation to the pass counters.
    fn credit(
        &mut self,
        mechanism: Option<BarrierMechanism>,
        sim: &Measurement,
        decode: &DecodeCacheStats,
        fused: &FusedMemStats,
    ) {
        self.counters.add_run(mechanism, sim, decode, fused);
        if self.observed.get() {
            self.counters.observed_instructions += sim.instructions;
            self.counters.events.add(&self.events.borrow());
        }
    }

    fn fig4(&mut self, spec: &RunSpec) -> Result<u64, String> {
        let mut att = self.counting();
        let built = self.span("setup.build", || fig4_machine_with(spec, &mut att));
        let mut machine = built.map_err(|e| format!("build: {e}"))?;
        self.watch.setup_done();
        let summary = self.span("machine.run", || machine.run());
        self.watch.run_done();
        let summary = summary.map_err(|e| format!("run: {e}"))?;
        let stats = machine.stats();
        self.counters.machine.add(&stats, machine.burst_retired());
        let sim = Measurement::new(&summary, &stats);
        self.credit(
            spec.exec.mechanism,
            &sim,
            &machine.decode_stats(),
            &machine.fused_stats(),
        );
        Ok(stats.digest())
    }

    fn kernel(&mut self, spec: &RunSpec) -> Result<u64, String> {
        let kernel = self.span("setup.input", || Kernel::new(spec.workload));
        self.watch.setup_done();
        let att = self.counting();
        let out = self.span("kernels.run", || kernel.run_with(&spec.exec, att));
        self.watch.run_done();
        let out = out.map_err(|e| e.to_string())?;
        let o = &out.outcome;
        self.counters.kernel_instructions += o.sim.instructions;
        self.credit(spec.exec.mechanism, &o.sim, &o.decode, &o.fused);
        Ok(o.sim.stats_digest)
    }

    fn verify(&mut self, spec: &RunSpec) -> Result<u64, String> {
        let kernel = self.span("setup.input", || Kernel::new(spec.workload));
        self.watch.setup_done();
        let counting = self
            .traced
            .then(|| (Rc::clone(&self.events), Rc::clone(&self.observed)));
        let (mut protocol, mut race) = (None, None);
        let observe = |bar: &Barrier| {
            protocol = Some(bar.protocol().clone());
            let detector = RaceDetectorSink::new([bar.protocol()]);
            race = Some(detector.handle());
            let detector: Box<dyn TraceSink> = Box::new(detector);
            Some(match counting {
                Some((events, observed)) => {
                    observed.set(true);
                    Box::new(CountingSink::new(events, Some(detector))) as Box<dyn TraceSink>
                }
                None => detector,
            })
        };
        let out = self.span("race.run", || {
            kernel.run_with(&spec.exec, RunAttachments::observed(observe))
        });
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                self.watch.run_done();
                return Err(e.to_string());
            }
        };
        let protocol = protocol.expect("a parallel kernel registers its barrier");
        let diagnostics = self.span("lint", || {
            analyze_program(&out.program, std::slice::from_ref(&protocol))
        });
        self.watch.run_done();
        let report = race
            .expect("the observe hook installs the detector")
            .report();
        self.counters.race_sync_accesses += report.sync_accesses;
        self.counters.race_reads_checked += report.reads_checked;
        self.counters.race_writes_checked += report.writes_checked;
        let o = &out.outcome;
        self.credit(spec.exec.mechanism, &o.sim, &o.decode, &o.fused);
        let errors: Vec<_> = diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        if let Some(d) = errors.first() {
            return Err(format!(
                "{} static error(s), first {}: {}",
                errors.len(),
                d.rule,
                d.message
            ));
        }
        if report.racy() {
            return Err(format!("{} race(s)", report.total_races));
        }
        Ok(o.sim.stats_digest)
    }

    fn mc(
        &mut self,
        mechanism: BarrierMechanism,
        cores: usize,
        fault: bool,
    ) -> Result<u64, String> {
        let emitted = self.span("setup.build", || emit_mc_routine(mechanism, cores));
        self.watch.setup_done();
        let (program, protocol) = match emitted {
            Ok(routine) => routine,
            Err(skip) => {
                self.watch.run_done();
                return Ok(fnv64(skip.as_bytes()));
            }
        };
        let config = McConfig {
            fault,
            ..McConfig::default()
        };
        let report = self.span("mc", || model_check(&program, &protocol, &config));
        self.watch.run_done();
        self.counters.mc_states += report.states;
        self.counters.mc_transitions += report.transitions;
        if let Some(d) = report.diagnostics.first() {
            return Err(format!("counterexample {}: {}", d.rule, d.message));
        }
        if report.truncated {
            return Err(format!("exploration truncated at {} states", report.states));
        }
        let outcome = format!(
            "{} states, {} transitions",
            report.states, report.transitions
        );
        Ok(fnv64(outcome.as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_planted_digest_mismatch_fails_one_operation() {
        let ops = [BarrierMechanism::FilterD, BarrierMechanism::HwDedicated]
            .map(|m| Op::new(OpKind::Fig4(RunSpec::fig4(m, 4, 2, 1))))
            .to_vec();
        let w = Workload {
            name: "planted".into(),
            ops,
            chain: None,
        };
        let mut rec = Recorder::new(false);
        let blank = Recorded::parse("{}").expect("empty table");
        let unrecorded = run_pass(&w, &[0, 1], &blank, false, &mut rec);
        assert_eq!((unrecorded.attempted, unrecorded.failed), (2, 2));
        // Record op 0's digest as it is and op 1's with one bit flipped.
        let [a, b] = [0, 1].map(|i| {
            let digest = unrecorded.digests[i] ^ i as u64;
            format!("\"{}\": \"{digest:#x}\"", w.ops[i].label)
        });
        let table = format!("{{\"workloads\": {{\"planted\": {{\"digests\": {{{a}, {b}}}}}}}}}");
        let recorded = Recorded::parse(&table).expect("planted table");
        let pass = run_pass(&w, &[1, 0], &recorded, false, &mut rec);
        assert_eq!(
            (pass.attempted, pass.failed, pass.fail_share()),
            (2, 1, 0.5)
        );
        assert_eq!(pass.failures.len(), 1);
        assert!(
            pass.failures[0].starts_with(&w.ops[1].label),
            "{:?}",
            pass.failures
        );
    }
}
