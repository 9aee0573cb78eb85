//! The event-driven cycle-level machine.
//!
//! A single global event queue, ordered by `(cycle, sequence)`, drives every
//! core; shared resources (address and data buses, bank ports, hook ports,
//! L3 port) are
//! FIFO next-free-cycle arbiters ([`Resource`]). The engine is fully
//! deterministic: two runs of the same machine produce identical cycle
//! counts and identical memory images.
//!
//! ## Ordering guarantees relied on by the barrier filter
//!
//! Invalidation messages (`icbi`/`dcbi`) and fill requests travel the same
//! bus in grant order, and an invalidation reaches its L2 bank hook strictly
//! before any fill request the same core issues afterwards. This is the
//! property §3.4 of the paper depends on: the filter must see a thread's
//! arrival invalidate before that thread's (to-be-starved) fill request.
//!
//! ## Event-ordering audit
//!
//! Events are totally ordered by `(cycle, sequence)`: the sequence number
//! is unique per scheduled event, so ties at equal `(cycle, seq)` cannot
//! exist and no comparison in the engine is order-unstable. The calendar
//! queue ([`crate::event_queue`]) preserves this exact drain order (it was
//! verified by a bit-identical stats digest on the Figure 4 workload when
//! it replaced the original `BinaryHeap<Reverse<Scheduled>>`). The
//! deadlock detector below fires only when the queue is *empty*, so it has
//! no ordering dependence at all: its report iterates cores by index.

use sim_isa::{line_of, Instr, MemWidth, Program, Reg};

use crate::bus::{Interconnect, Resource};
use crate::cache::{Caches, LineState};
use crate::coherence::{Directory, ReadOutcome};
use crate::core::{Continuation, Core, LoadDest, Waiting};
use crate::error::SimError;
use crate::event_queue::CalendarQueue;
use crate::fastmap::FxHashMap;
use crate::hook::{
    BankHook, FillDecision, HookOutcome, HookViolation, ParkToken, FILL_ERROR_SENTINEL,
};
use crate::hwnet::{DedicatedNetwork, HwBarResult};
use crate::mem::Memory;
use crate::stats::{DecodeCacheStats, FusedMemStats, MachineStats, RunSummary};
use crate::trace::{EpisodeTracker, TraceEvent, TraceSink};
use crate::SimConfig;

/// Outcome of `Machine::run_until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// Every core has halted.
    Finished(RunSummary),
    /// The pause cycle was reached with work still pending.
    Paused,
}

/// An engine event. Core and bank indices are `u32` so the whole enum
/// packs into 16 bytes — the queue moves one of these per simulated
/// instruction, so entry size is host-bandwidth that matters.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    /// Execute the next instruction on a core.
    CoreReady(u32),
    /// The head of a core's store buffer finished draining.
    StoreRetire(u32),
    /// A fill's data became available at its source (L2/L3/memory, a
    /// remote owner, or the bank hook): acquire the response bus and
    /// deliver it.
    FillReady {
        core: u32,
        line: u64,
        kind: AccessKind,
        purpose: FillPurpose,
    },
    /// An outstanding fill completed (delivered, or released/errored by a
    /// bank hook).
    FillDone { core: u32, line: u64, error: bool },
    /// An invalidation message reached an L2 bank's hook.
    HookInvalidate { bank: u32, line: u64 },
    /// A hook-requested deadline arrived.
    HookDeadline { bank: u32 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessKind {
    DRead,
    DWrite,
    IFetch,
}

/// Who is waiting on a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FillPurpose {
    /// The core is blocked; completion goes through `FillDone` and the
    /// core's continuation.
    Resume,
    /// A store-buffer drain; completion retires the buffer head.
    StoreDrain,
}

/// Outcome of the store path.
#[derive(Debug, Clone, Copy)]
enum StoreOutcome {
    /// Globally performed at the given cycle.
    Done(u64),
    /// A write-allocate fill is in flight (`FillReady` chain).
    Pending,
}

#[derive(Debug, Clone, Copy)]
struct ParkedFill {
    core: usize,
    line: u64,
}

/// Fills parked at bank hooks, indexed both ways in O(1): the engine's one
/// record of which blocked cores are parked.
///
/// At most one fill is parked per core (a parked core is blocked), so the
/// core side is a dense per-core slot array; the hook side resolves its
/// [`ParkToken`]s through a map. The `Vec` scan this replaces was O(n) per
/// release — quadratic across a barrier episode at 1024 cores. The map is
/// only ever probed by exact key (never iterated), so hash order cannot
/// leak into simulated behaviour.
///
/// A core leaves the set when the hook releases (or errors) its fill, so
/// between the release and the response's `FillDone` the core is still
/// blocked on the fill but no longer parked.
#[derive(Debug, Default)]
struct ParkedSet {
    /// `slot[core] = (token, line)` while that core's fill is parked.
    slot: Vec<Option<(ParkToken, u64)>>,
    /// Token → core, for hook-side release/err resolution.
    by_token: FxHashMap<u64, usize>,
}

impl ParkedSet {
    fn new(cores: usize) -> ParkedSet {
        ParkedSet {
            slot: vec![None; cores],
            by_token: FxHashMap::default(),
        }
    }

    fn insert(&mut self, token: ParkToken, core: usize, line: u64) {
        debug_assert!(self.slot[core].is_none(), "one parked fill per core");
        self.slot[core] = Some((token, line));
        self.by_token.insert(token.0, core);
    }

    /// Remove the parked fill of `core`, if any, returning its token.
    fn remove_by_core(&mut self, core: usize) -> Option<ParkToken> {
        let (token, _) = self.slot[core].take()?;
        self.by_token.remove(&token.0);
        Some(token)
    }

    /// Resolve and remove a hook-released token.
    fn remove_by_token(&mut self, token: ParkToken) -> Option<ParkedFill> {
        let core = self.by_token.remove(&token.0)?;
        let (_, line) = self.slot[core].take().expect("slot tracks by_token");
        Some(ParkedFill { core, line })
    }

    fn contains_core(&self, core: usize) -> bool {
        self.slot[core].is_some()
    }

    fn is_empty(&self) -> bool {
        self.by_token.is_empty()
    }
}

/// The interpreter's cost table: per-instruction-class issue costs,
/// pre-scaled to twelfths of a cycle (`cost * 12 / width`, the quantity
/// `finish_units` accumulates). Computed once at build time so the retire
/// path performs no division.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScaledCosts {
    int_op: u64,
    mul: u64,
    div: u64,
    fp_op: u64,
    fp_div: u64,
    /// Load hit cost (`max(load, L1D latency)`) over the memory ports.
    load: u64,
    /// Store issue cost over the memory ports.
    store_issue: u64,
}

impl ScaledCosts {
    fn new(config: &SimConfig) -> ScaledCosts {
        let t = config.timing;
        let issue = |cost: u64| cost * 12 / t.issue_width.max(1);
        let mem = |cost: u64| cost * 12 / t.mem_ports.max(1);
        ScaledCosts {
            int_op: issue(t.int_op),
            mul: issue(t.mul),
            div: issue(t.div),
            fp_op: issue(t.fp_op),
            fp_div: issue(t.fp_div),
            load: mem(t.load.max(config.l1d.latency)),
            store_issue: mem(t.store_issue),
        }
    }

    /// The pre-scaled issue cost the retire path charges for `instr` (its
    /// `finish_units` argument). Instructions whose cost is decided
    /// elsewhere — control flow, fences, barriers, `sc`, `halt`, `nop` —
    /// retire through whole-cycle paths and map to 0 here.
    fn units_of(&self, instr: &Instr) -> u64 {
        use Instr::*;
        match instr {
            Add(..) | Sub(..) | And(..) | Or(..) | Xor(..) | Sll(..) | Srl(..) | Sra(..)
            | Slt(..) | Sltu(..) | Min(..) | Max(..) | Addi(..) | Andi(..) | Ori(..) | Xori(..)
            | Slli(..) | Srli(..) | Srai(..) | Slti(..) | Li(..) | Fmov(..) | Fli(..) => {
                self.int_op
            }
            Mul(..) => self.mul,
            Div(..) | Rem(..) => self.div,
            Fadd(..) | Fsub(..) | Fmul(..) | Fmadd(..) | Fneg(..) | Fcvtif(..) | Fcvtfi(..)
            | Feq(..) | Flt(..) | Fle(..) => self.fp_op,
            Fdiv(..) => self.fp_div,
            Ld(..) | Ll(..) | Fld(..) => self.load,
            St(..) | Fst(..) => self.store_issue,
            _ => 0,
        }
    }
}

/// Most instructions one core retires in place per burst (see
/// `Machine::core_ready_burst`) before its ready event goes back through
/// the queue. Simulated behaviour is identical at any budget.
const BURST_BUDGET: u32 = 64;

/// The simulated chip multiprocessor.
///
/// Build one with [`MachineBuilder`](crate::MachineBuilder), run it with
/// [`run`](Machine::run), then inspect results through the memory accessors
/// and [`stats`](Machine::stats).
pub struct Machine {
    config: SimConfig,
    program: Program,
    mem: Memory,
    cores: Vec<Core>,
    /// Every L1D, L1I, L2 bank and the L3, over one way arena.
    caches: Caches,
    dir: Directory,
    /// The interconnect: per-cluster address/data bus pairs plus a global
    /// segment, carrying requests, invalidations, upgrades and line
    /// transfers. On the flat (one-cluster) topology it degenerates to the
    /// original single shared bus pair.
    net: Interconnect,
    bank_ports: Vec<Resource>,
    hook_ports: Vec<Resource>,
    l3_port: Resource,
    hooks: Vec<Option<Box<dyn BankHook>>>,
    hwnet: DedicatedNetwork,
    /// The event queue, drained in `(cycle, seq)` order.
    events: CalendarQueue<Ev>,
    now: u64,
    /// Fills parked at bank hooks (O(1) by core and by token; see
    /// [`ParkedSet`]).
    parked: ParkedSet,
    next_token: u64,
    /// Per-line coherence-serialization point: successive ownership
    /// transfers (dirty cache-to-cache reads, upgrades, exclusive fetches)
    /// of the same line queue here, modelling the directory's pending-
    /// transaction serialization. This is what makes a contended LL/SC
    /// line cost a round trip per successful read-modify-write.
    line_busy: FxHashMap<u64, u64>,
    scheduled_deadlines: Vec<Option<u64>>,
    /// Streaming trace consumer attached by
    /// [`MachineBuilder::with_trace_sink`](crate::MachineBuilder::with_trace_sink),
    /// if any; without one the hot path pays one branch per event site.
    /// Sinks are pure observers: they never acquire a simulated resource,
    /// so attaching one cannot change cycle counts or the stats digest.
    sink: Option<Box<dyn TraceSink>>,
    /// Always-on per-barrier-episode accounting (events on the barrier
    /// path are rare next to instruction retirement).
    tracker: EpisodeTracker,
    scaled: ScaledCosts,
    /// Cores not yet halted (so the run loop's are-we-done check is O(1)).
    live_cores: usize,
    /// Core currently executing a burst ([`usize::MAX`] = none). While set,
    /// [`finish`](Machine::finish) records that core's next ready cycle in
    /// `burst_ready` instead of enqueueing a `CoreReady` event — the burst
    /// loop in [`run_until`](Machine::run_until) either consumes it in
    /// place or flushes it to the queue.
    burst_core: usize,
    /// The bursting core's deferred ready cycle, if its last instruction
    /// retired through the deferring path.
    burst_ready: Option<u64>,
    /// Instructions retired via the burst fast path (host-side metric:
    /// deliberately not part of [`MachineStats`], which fingerprints
    /// simulated behaviour only).
    burst_retired: u64,
    /// Cached [`SimConfig::reference_engine`]: dispatches every
    /// `CoreReady` through the queue, with no bursts.
    reference: bool,
    /// Cores currently holding a LL reservation; lets the per-store
    /// [`clear_links`](Machine::clear_links) broadcast skip its all-cores
    /// scan in the (overwhelmingly common) no-reservation case.
    live_links: u32,
    /// Self-modifying-code patches staged by [`Machine::patch_code`],
    /// deduplicated by pc. A patch lands in the program image only when an
    /// `icbi` broadcast covers its line — until then every fetch
    /// (windowed or cold) architecturally sees the old word, so
    /// the stale-fetch window is deterministic and identical on the
    /// production and reference engines.
    pending_patches: Vec<(u64, Instr)>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cycle", &self.now)
            .field("cores", &self.cores.len())
            .field("pending_events", &self.events.len())
            .field("parked_fills", &self.parked.by_token.len())
            .field("clusters", &self.config.topology.clusters)
            .finish_non_exhaustive()
    }
}

impl Machine {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_builder(
        config: SimConfig,
        program: Program,
        mem: Memory,
        cores: Vec<Core>,
        hooks: Vec<Option<Box<dyn BankHook>>>,
        hwnet: DedicatedNetwork,
        sink: Option<Box<dyn TraceSink>>,
    ) -> Machine {
        let n = config.num_cores;
        let banks = config.l2_banks;
        let mut m = Machine {
            caches: Caches::new(&config),
            dir: Directory::new(),
            net: Interconnect::new(config.topology.clusters, config.topology.hop, config.bus),
            bank_ports: (0..banks).map(|_| Resource::new()).collect(),
            hook_ports: (0..banks).map(|_| Resource::new()).collect(),
            l3_port: Resource::new(),
            hooks,
            hwnet,
            events: CalendarQueue::new(),
            now: 0,
            parked: ParkedSet::new(n),
            next_token: 0,
            line_busy: FxHashMap::default(),
            scheduled_deadlines: vec![None; banks],
            sink,
            tracker: EpisodeTracker::new(banks),
            scaled: ScaledCosts::new(&config),
            live_cores: cores.iter().filter(|c| !c.halted).count(),
            burst_core: usize::MAX,
            burst_ready: None,
            burst_retired: 0,
            reference: config.reference_engine,
            live_links: 0,
            pending_patches: Vec::new(),
            config,
            program,
            mem,
            cores,
        };
        for c in 0..m.cores.len() {
            if !m.cores[c].halted {
                m.schedule(0, Ev::CoreReady(c as u32));
            }
        }
        m
    }

    /// Enqueue an event after everything already scheduled for `cycle`.
    fn schedule(&mut self, cycle: u64, ev: Ev) {
        self.events.push(cycle, ev);
    }

    fn trace(&mut self, ev: TraceEvent) {
        if let Some(sink) = &mut self.sink {
            sink.record(self.now, &ev);
        }
    }

    // ------------------------------------------------------------------
    // Public API
    // ------------------------------------------------------------------

    /// Run until every core halts.
    ///
    /// # Errors
    ///
    /// Any [`SimError`], including [`SimError::Deadlock`] if cores remain
    /// blocked with no pending events, and
    /// [`SimError::CycleLimitExceeded`] past
    /// [`SimConfig::cycle_limit`](crate::SimConfig::cycle_limit).
    pub fn run(&mut self) -> Result<RunSummary, SimError> {
        match self.run_until(u64::MAX)? {
            RunState::Finished(s) => Ok(s),
            RunState::Paused => unreachable!("run_until(u64::MAX) cannot pause"),
        }
    }

    /// Run until every core halts or the simulation clock reaches
    /// `pause_at`, whichever comes first. Used by tests that intervene
    /// mid-run (e.g. the context-switch model of §3.3.3).
    ///
    /// # Errors
    ///
    /// Same as [`run`](Machine::run).
    pub fn run_until(&mut self, pause_at: u64) -> Result<RunState, SimError> {
        loop {
            if self.live_cores == 0 {
                return Ok(RunState::Finished(self.summary()));
            }
            let Some(head_cycle) = self.events.next_cycle() else {
                // With no events pending, a machine is quiescent — not
                // deadlocked — if only the OS (the caller) can make
                // progress: every unfinished thread is context-switched
                // out, or parked behind a bank hook waiting on a barrier
                // that a switched-out thread still has to arrive at.
                // Without a switched-out thread to resume, parked-only is
                // a true deadlock (nothing can ever release the fills).
                let any_switched_out = self
                    .cores
                    .iter()
                    .any(|c| matches!(c.waiting, Waiting::SwitchedOut { .. }));
                let os_resumable = self.cores.iter().enumerate().all(|(i, c)| {
                    c.halted
                        || matches!(c.waiting, Waiting::SwitchedOut { .. })
                        || self.parked.contains_core(i)
                });
                if any_switched_out && os_resumable {
                    // The machine idles until the OS's next intervention:
                    // advance the clock to the requested pause point so a
                    // resume scheduled for cycle T happens at cycle T,
                    // not at whatever cycle the machine went quiescent.
                    if pause_at != u64::MAX {
                        self.now = self.now.max(pause_at);
                    }
                    return Ok(RunState::Paused);
                }
                return Err(self.deadlock());
            };
            if head_cycle >= pause_at {
                self.now = self.now.max(pause_at);
                return Ok(RunState::Paused);
            }
            if head_cycle > self.config.cycle_limit {
                return Err(SimError::CycleLimitExceeded {
                    limit: self.config.cycle_limit,
                });
            }
            // Same-cycle cohort drain. Every event in the cohort shares
            // `head_cycle`, so the pause and cycle-limit gates above hold
            // for all of them and are checked once instead of per event;
            // only what an event can actually change — core liveness, and
            // the queue head via pushes — is re-checked inside. Events
            // pushed *at* `head_cycle` mid-cohort (store retires chaining
            // at `now`, hw-barrier releases) join the cohort in `seq`
            // order, exactly as a pop-one-reconsider loop would drain
            // them.
            self.now = self.now.max(head_cycle);
            while let Some(ev) = self.events.pop_at(head_cycle) {
                match ev {
                    Ev::CoreReady(c) if !self.reference && self.events.all_later_than(self.now) => {
                        self.core_ready_burst(c as usize, pause_at)?;
                    }
                    // With another event pending at `now`, the burst gate
                    // would fail after one step no matter what the step
                    // does (its deferred ready lies at `>= now`), so skip
                    // the defer/flush frame: `finish` is every deferring
                    // path's last event push, so pushing the `CoreReady`
                    // there directly assigns the identical `seq` the
                    // flush would have. The reference engine never bursts.
                    Ev::CoreReady(c) => self.step_core(c as usize)?,
                    ev => self.dispatch(ev)?,
                }
                if self.live_cores == 0 {
                    return Ok(RunState::Finished(self.summary()));
                }
            }
        }
    }

    /// Dispatch a popped `CoreReady` with the core-step burst fast path.
    ///
    /// After an instruction retires through [`finish`](Machine::finish),
    /// the engine's only pending obligation for this core is a `CoreReady`
    /// at the instruction's completion cycle `at`. If every queued event
    /// lies *strictly* after `at` (and `at` clears the pause/cycle-limit
    /// gates the run loop would apply), that event would be pushed and
    /// immediately popped as the unique queue minimum — so the next
    /// instruction executes in place instead, skipping the round trip.
    ///
    /// Bit-identity argument: the loop advances `now` exactly as the pop
    /// would (`at >= now` always), every other side effect (cache, bus,
    /// directory, memory, event pushes from store/miss paths) happens in
    /// the same order at the same cycles, and the skipped `CoreReady` can
    /// never tie with another event — events already queued are strictly
    /// later by the precondition, and events pushed afterwards would have
    /// carried larger sequence numbers (thus drained after it) anyway.
    /// The burst drains back to the queue the moment the core blocks or
    /// halts (no deferred ready), an instruction retires through a
    /// non-deferring path (`finish_at`, hw-barrier release), the strictly-
    /// later precondition fails, or [`BURST_BUDGET`] steps have retired.
    fn core_ready_burst(&mut self, c: usize, pause_at: u64) -> Result<(), SimError> {
        self.burst_core = c;
        let mut left = BURST_BUDGET;
        let result = loop {
            debug_assert!(self.burst_ready.is_none());
            if let Err(e) = self.step_core(c) {
                break Err(e);
            }
            let Some(at) = self.burst_ready.take() else {
                // Blocked, halted, or scheduled through a non-deferring
                // path: the queue already holds whatever comes next.
                break Ok(());
            };
            left -= 1;
            let burst_on = left > 0
                && at < pause_at
                && at <= self.config.cycle_limit
                && self.events.all_later_than(at);
            if !burst_on {
                self.schedule(at, Ev::CoreReady(c as u32));
                break Ok(());
            }
            self.burst_retired += 1;
            self.now = at;
        };
        self.burst_core = usize::MAX;
        result
    }

    fn summary(&self) -> RunSummary {
        // Monotone with `Machine::now()`: trailing events that drain after
        // the last core halts (bank-hook timers, delayed fault resumes,
        // quiescent-advance pauses) still advance `now`, and the reported
        // cycle count must not roll backwards past them to the halt cycle.
        RunSummary {
            cycles: self
                .cores
                .iter()
                .filter_map(|c| c.stats.halt_cycle)
                .max()
                .map_or(self.now, |h| h.max(self.now)),
            instructions: self.cores.iter().map(|c| c.stats.instructions).sum(),
        }
    }

    fn deadlock(&self) -> SimError {
        SimError::Deadlock {
            cycle: self.now,
            blocked: self
                .cores
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.halted)
                .map(|(i, c)| (i, c.blocked_reason(self.parked.contains_core(i))))
                .collect(),
        }
    }

    /// Current simulation cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The program this machine executes (for post-run static analysis).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Instructions retired via the core-step burst fast path so far.
    ///
    /// A host-side engine metric: it is zero on the reference engine
    /// ([`SimConfig::reference_engine`]) while every simulated number
    /// stays bit-identical, so it is deliberately not part of
    /// [`MachineStats`]. Tests use it to prove the fast path actually
    /// engaged.
    pub fn burst_retired(&self) -> u64 {
        self.burst_retired
    }

    /// Always zero: the engine has no decode cache. Kept only so that the
    /// repository benchmark (`perfbench/`), which reads it, builds.
    pub fn decode_stats(&self) -> DecodeCacheStats {
        DecodeCacheStats::default()
    }

    /// Always zero: the engine has no fused memory executor. Kept only so
    /// that the repository benchmark (`perfbench/`), which reads it,
    /// builds.
    pub fn fused_stats(&self) -> FusedMemStats {
        FusedMemStats::default()
    }

    /// Stage a self-modifying-code patch: replace the instruction at `pc`
    /// with `instr`, effective at the next `icbi` broadcast covering that
    /// line. Until a running core executes `icbi` for the patched line,
    /// every fetch architecturally sees the old word (matching the stale
    /// window real weakly-ordered ISAs permit between a code store and the
    /// `icbi`/`isync` sequence), so runs are deterministic — and identical
    /// on the production and reference engines — even when a core races
    /// the patch.
    /// Restaging the same pc before the `icbi` lands replaces the staged
    /// word.
    ///
    /// # Errors
    ///
    /// [`SimError::PatchOutsideCode`] if `pc` is outside the program image
    /// or misaligned.
    pub fn patch_code(&mut self, pc: u64, instr: Instr) -> Result<(), SimError> {
        if self.program.fetch(pc).is_none() {
            return Err(SimError::PatchOutsideCode { pc });
        }
        if let Some(slot) = self.pending_patches.iter_mut().find(|(p, _)| *p == pc) {
            slot.1 = instr;
        } else {
            self.pending_patches.push((pc, instr));
        }
        Ok(())
    }

    /// The machine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Read a u64 from simulated memory (host-side, no timing effect).
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.mem.read_u64(addr)
    }

    /// Read an f64 from simulated memory (host-side, no timing effect).
    pub fn read_f64(&self, addr: u64) -> f64 {
        self.mem.read_f64(addr)
    }

    /// Read `n` consecutive f64 values (host-side).
    pub fn read_f64_slice(&self, addr: u64, n: usize) -> Vec<f64> {
        self.mem.read_f64_slice(addr, n)
    }

    /// Read `n` consecutive u64 values (host-side).
    pub fn read_u64_slice(&self, addr: u64, n: usize) -> Vec<u64> {
        self.mem.read_u64_slice(addr, n)
    }

    /// Write a u64 to simulated memory (host-side, no timing effect).
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.mem.write_u64(addr, v);
    }

    /// An integer register of a core (debug/validation).
    pub fn core_reg(&self, core: usize, r: Reg) -> u64 {
        self.cores[core].reg(r)
    }

    /// Counter snapshot across the whole machine.
    pub fn stats(&self) -> MachineStats {
        let ([l1d, l1i, l2], l3) = self.caches.stats();
        MachineStats {
            cycles: self.now,
            cores: self.cores.iter().map(|c| c.stats).collect(),
            l1d,
            l1i,
            l2,
            l3,
            addr_bus: self.net.addr_stats(),
            data_bus: self.net.data_stats(),
            hook_ports: self.hook_ports.iter().map(Resource::stats).collect(),
            directory: self.dir.stats(),
            hw_network: self.hwnet.stats(),
            episodes: self.tracker.stats(),
        }
    }

    /// Events retained by the attached sink as `(cycle, event)` pairs,
    /// oldest first (empty unless a storing sink such as
    /// [`RingSink`](crate::RingSink) is attached). Borrows the sink's
    /// storage.
    pub fn trace_snapshot(&mut self) -> &[(u64, TraceEvent)] {
        match &mut self.sink {
            Some(sink) => sink.snapshot(),
            None => &[],
        }
    }

    /// Borrow a bank hook for inspection (tests).
    pub fn hook(&self, bank: usize) -> Option<&dyn BankHook> {
        self.hooks[bank].as_deref()
    }

    /// Model the OS context-switching out a thread whose fill is parked at a
    /// bank hook (§3.3.3): the parked request is cancelled (its MSHR is
    /// released) and the core is marked switched-out. Returns `false` if the
    /// core was not parked.
    pub fn context_switch_out(&mut self, core: usize) -> bool {
        let Waiting::Fill { line, cont } = self.cores[core].waiting else {
            return false;
        };
        let Some(token) = self.parked.remove_by_core(core) else {
            return false;
        };
        let bank = self.config.bank_of(line);
        if let Some(hook) = self.hooks[bank].as_mut() {
            hook.on_cancel(token);
        }
        self.tracker.note_cancel();
        self.cores[core].mshr_used -= 1;
        self.set_waiting(core, Waiting::SwitchedOut { cont, line });
        true
    }

    /// Model the OS rescheduling a switched-out thread: the blocked access
    /// re-issues its fill request. If the barrier opened while the thread
    /// was switched out, the filter services the request and the thread
    /// resumes; otherwise it parks again (§3.3.3).
    ///
    /// # Errors
    ///
    /// [`SimError::NotSwitchedOut`] if the core is not switched out
    /// (recoverable — fault injectors probe cores without panicking), and
    /// any [`SimError`] from the re-issued access.
    pub fn resume_thread(&mut self, core: usize) -> Result<(), SimError> {
        let Waiting::SwitchedOut { cont, line } = self.cores[core].waiting else {
            return Err(SimError::NotSwitchedOut { core });
        };
        let kind = match cont {
            Continuation::IFetch => AccessKind::IFetch,
            _ => AccessKind::DRead,
        };
        let now = self.now;
        self.miss_path(core, line, kind, now, FillPurpose::Resume)?;
        if self.parked.contains_core(core) {
            self.tracker.note_repark();
        } else {
            self.tracker.note_resume_after_release();
        }
        self.set_waiting(core, Waiting::Fill { line, cont });
        Ok(())
    }

    /// Cores currently parked at a bank hook — the §3.3.3 fault surface:
    /// these are the threads a context switch or migration can disturb.
    /// A core whose release is already in flight (the hook let it go but
    /// the response has not yet delivered) is no longer cancelable and is
    /// not listed — [`context_switch_out`](Machine::context_switch_out) is
    /// guaranteed to succeed for every returned core.
    pub fn parked_cores(&self) -> Vec<usize> {
        (0..self.cores.len())
            .filter(|&i| self.parked.contains_core(i))
            .collect()
    }

    /// Model the OS migrating two switched-out threads across cores
    /// (§3.3.3): their architectural state — registers, program counter and
    /// the blocked arrival access — swaps between the physical cores, so
    /// each thread re-arrives at the barrier from the other core when
    /// resumed. LL/SC reservations and fetch windows do not survive a
    /// migration; in-flight posted stores stay with the physical core (the
    /// store buffer is a timing structure whose architectural effect has
    /// already happened).
    ///
    /// # Errors
    ///
    /// [`SimError::NotSwitchedOut`] if either core is not switched out.
    pub fn migrate_thread(&mut self, a: usize, b: usize) -> Result<(), SimError> {
        for core in [a, b] {
            if !matches!(self.cores[core].waiting, Waiting::SwitchedOut { .. }) {
                return Err(SimError::NotSwitchedOut { core });
            }
        }
        if a == b {
            return Ok(());
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let (left, right) = self.cores.split_at_mut(hi);
        let (ca, cb) = (&mut left[lo], &mut right[0]);
        std::mem::swap(&mut ca.regs, &mut cb.regs);
        std::mem::swap(&mut ca.fregs, &mut cb.fregs);
        std::mem::swap(&mut ca.pc, &mut cb.pc);
        let (wa, wb) = (self.cores[a].waiting, self.cores[b].waiting);
        self.set_waiting(a, wb);
        self.set_waiting(b, wa);
        for c in [a, b] {
            if self.cores[c].link.take().is_some() {
                self.live_links -= 1;
            }
            self.cores[c].clear_ifetch_window();
        }
        Ok(())
    }

    /// Run bank `bank`'s hook through its OS reprogram path (§3.3.3 filter
    /// re-arm). Returns `None` if the bank has no hook; `Some(Err(_))` is
    /// the recoverable misprogramming case — the OS attempted a
    /// save/restore while the filter held parked fills.
    pub fn reprogram_bank(&mut self, bank: usize) -> Option<Result<(), HookViolation>> {
        self.hooks[bank].as_mut().map(|h| h.reprogram())
    }

    /// Whether every bank hook is quiescent: no fill parked in the engine
    /// and no park pending inside any hook. Chaos runs assert this after
    /// completion — a fault must never strand state in a filter table.
    pub fn hooks_quiescent(&self) -> bool {
        self.parked.is_empty() && self.hooks.iter().flatten().all(|h| h.pending_parks() == 0)
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self, ev: Ev) -> Result<(), SimError> {
        match ev {
            Ev::CoreReady(c) => self.step_core(c as usize),
            Ev::StoreRetire(c) => self.store_retire(c as usize),
            Ev::FillReady {
                core,
                line,
                kind,
                purpose,
            } => self.fill_ready(core as usize, line, kind, purpose),
            Ev::FillDone { core, line, error } => self.fill_done(core as usize, line, error),
            Ev::HookInvalidate { bank, line } => self.hook_invalidate(bank as usize, line),
            Ev::HookDeadline { bank } => self.hook_deadline(bank as usize),
        }
    }

    fn store_retire(&mut self, c: usize) -> Result<(), SimError> {
        let now = self.now;
        self.cores[c].store_buffer.pop_front();
        if let Some(&line) = self.cores[c].store_buffer.front() {
            match self.store_path(c, line, now, FillPurpose::StoreDrain)? {
                StoreOutcome::Done(t) => self.schedule(t, Ev::StoreRetire(c as u32)),
                StoreOutcome::Pending => {}
            }
        } else if let Waiting::Fence { residual } = self.cores[c].waiting {
            self.wake(c, now + residual);
        }
        if matches!(self.cores[c].waiting, Waiting::StoreSlot) {
            self.wake(c, now);
        }
        Ok(())
    }

    /// The data for a pending fill is ready at its source: move it across
    /// the bus now (response phase) and deliver.
    fn fill_ready(
        &mut self,
        c: usize,
        line: u64,
        kind: AccessKind,
        purpose: FillPurpose,
    ) -> Result<(), SimError> {
        let from = self.config.cluster_of_bank(self.config.bank_of(line));
        let to = self.config.cluster_of_core(c);
        let done = self.net.data(from, to, self.now) + 1;
        match purpose {
            FillPurpose::Resume => {
                self.schedule(
                    done,
                    Ev::FillDone {
                        core: c as u32,
                        line,
                        error: false,
                    },
                );
            }
            FillPurpose::StoreDrain => {
                self.fill_l1(c, line, kind, done);
                self.cores[c].mshr_used = self.cores[c].mshr_used.saturating_sub(1);
                self.schedule(done, Ev::StoreRetire(c as u32));
            }
        }
        Ok(())
    }

    fn fill_done(&mut self, c: usize, line: u64, error: bool) -> Result<(), SimError> {
        let now = self.now;
        self.cores[c].mshr_used = self.cores[c].mshr_used.saturating_sub(1);
        let Waiting::Fill { cont, .. } = self.cores[c].waiting else {
            debug_assert!(false, "FillDone for a core that is not waiting on a fill");
            return Ok(());
        };
        self.complete_continuation(c, cont, line, error, now)?;
        self.wake(c, now);
        Ok(())
    }

    /// Finish the instruction a fill blocked: install the line and write
    /// the result (or, for an error reply, the sentinel).
    fn complete_continuation(
        &mut self,
        c: usize,
        cont: Continuation,
        line: u64,
        error: bool,
        at: u64,
    ) -> Result<(), SimError> {
        match cont {
            Continuation::IFetch => {
                if error {
                    return Err(SimError::IFetchErrorReply { core: c, line });
                }
                self.fill_l1(c, line, AccessKind::IFetch, at);
            }
            Continuation::Load {
                dest,
                addr,
                width,
                set_link,
            } => {
                // An error reply carries no data: nothing is installed, so
                // a §3.3.4 retry re-issues a real fill request.
                if !error {
                    self.fill_l1(c, line, AccessKind::DRead, at);
                }
                let value = if error {
                    FILL_ERROR_SENTINEL & mask_for(width)
                } else {
                    self.trace(TraceEvent::DataRead {
                        core: c,
                        addr,
                        bytes: width.bytes(),
                    });
                    self.mem.read_le(addr, width.bytes() as usize)
                };
                self.cores[c].write_load(dest, value);
                if set_link {
                    self.set_link(c, line);
                }
            }
            Continuation::Sc { rd, src, addr } => {
                // The success of a store-conditional is decided when the
                // exclusive-ownership round trip completes: another core's
                // commit in the meantime has cleared our reservation.
                let ok = self.cores[c].link == Some(line) && !error;
                if ok {
                    self.fill_l1(c, line, AccessKind::DWrite, at);
                    self.mem.write_u64(addr, src);
                    self.clear_links(line);
                    self.cores[c].stats.stores += 1;
                    self.trace(TraceEvent::DataWrite {
                        core: c,
                        addr,
                        bytes: 8,
                    });
                }
                self.cores[c].set_reg(rd, ok as u64);
            }
        }
        Ok(())
    }

    fn hook_invalidate(&mut self, bank: usize, line: u64) -> Result<(), SimError> {
        if self.hooks[bank].is_none() {
            return Ok(());
        }
        self.tracker.note_invalidate(bank);
        let now = self.now;
        let th = self.hook_ports[bank].acquire(now, self.config.hook_cycles_per_request);
        let mut out = HookOutcome::default();
        let result = self.hooks[bank]
            .as_mut()
            .expect("checked above")
            .on_invalidate(line, th, &mut out);
        if let Err(v) = result {
            return Err(SimError::Hook {
                cycle: now,
                line,
                violation: v,
            });
        }
        self.process_outcome(bank, th, out)?;
        self.refresh_deadline(bank);
        Ok(())
    }

    fn hook_deadline(&mut self, bank: usize) -> Result<(), SimError> {
        let Some(hook) = self.hooks[bank].as_mut() else {
            return Ok(());
        };
        let now = self.now;
        self.scheduled_deadlines[bank] = None;
        if hook.deadline().is_none_or(|d| d > now) {
            // Deadline was pushed back or satisfied; re-arm if needed.
            self.refresh_deadline(bank);
            return Ok(());
        }
        let mut out = HookOutcome::default();
        self.hooks[bank]
            .as_mut()
            .expect("checked above")
            .on_deadline(now, &mut out);
        self.process_outcome(bank, now, out)?;
        self.refresh_deadline(bank);
        Ok(())
    }

    fn refresh_deadline(&mut self, bank: usize) {
        let Some(hook) = self.hooks[bank].as_ref() else {
            return;
        };
        let Some(d) = hook.deadline() else {
            return;
        };
        let d = d.max(self.now);
        if self.scheduled_deadlines[bank].is_none_or(|s| s > d) {
            self.scheduled_deadlines[bank] = Some(d);
            self.schedule(d, Ev::HookDeadline { bank: bank as u32 });
        }
    }

    /// Service (or error) parked fills released by a hook. Responses leave
    /// the hook at one per [`hook_cycles_per_request`] (Table 2), then cross
    /// the bus.
    fn process_outcome(
        &mut self,
        bank: usize,
        base: u64,
        out: HookOutcome,
    ) -> Result<(), SimError> {
        let hc = self.config.hook_cycles_per_request;
        let bank_cluster = self.config.cluster_of_bank(bank);
        let mut slot = 0u64;
        let mut released = 0u32;
        let mut errored = 0u32;
        let mut last_delivery = base;
        for (tokens, error) in [(&out.released, false), (&out.errored, true)] {
            for &token in tokens.iter() {
                let Some(p) = self.parked.remove_by_token(token) else {
                    return Err(SimError::Hook {
                        cycle: self.now,
                        line: 0,
                        violation: crate::hook::HookViolation::new(format!(
                            "hook released unknown park token {token:?}"
                        )),
                    });
                };
                slot += 1;
                let t2 = base + slot * hc;
                let to = self.config.cluster_of_core(p.core);
                let done = self.net.data(bank_cluster, to, t2) + 1;
                last_delivery = last_delivery.max(done);
                if error {
                    errored += 1;
                    self.trace(TraceEvent::Errored {
                        core: p.core,
                        line: p.line,
                    });
                } else {
                    released += 1;
                    self.trace(TraceEvent::Released {
                        core: p.core,
                        line: p.line,
                    });
                }
                self.schedule(
                    done,
                    Ev::FillDone {
                        core: p.core as u32,
                        line: p.line,
                        error,
                    },
                );
            }
        }
        if released + errored > 0 {
            // A non-empty burst closes the bank's barrier episode: the
            // hook observed its last arrival and opened the barrier.
            let ev = self
                .tracker
                .close_bank(bank, base, released, errored, last_delivery);
            self.trace(ev);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Memory-system paths
    // ------------------------------------------------------------------

    /// Fill `line` into the requester's L1, handling eviction bookkeeping.
    ///
    /// If the directory no longer registers the core for this line — a
    /// remote writer invalidated it while the fill was in flight — the data
    /// is delivered to the pipeline but no (stale) tag is installed, as in
    /// real protocols where an in-flight fill loses a race with an
    /// invalidation.
    fn fill_l1(&mut self, c: usize, line: u64, kind: AccessKind, t: u64) {
        match kind {
            AccessKind::IFetch => {
                self.caches.l1i(c).insert(line, LineState::Shared);
            }
            AccessKind::DRead | AccessKind::DWrite => {
                let still_mine = match kind {
                    AccessKind::DWrite => self.dir.owner_of(line) == Some(c as u16),
                    _ => self.dir.is_sharer(c as u16, line),
                };
                if !still_mine {
                    return;
                }
                let state = match kind {
                    AccessKind::DWrite => LineState::Modified,
                    _ => LineState::Shared,
                };
                if let Some((victim, _)) = self.caches.l1d(c).insert(line, state) {
                    let dirty = self.dir.evict(c as u16, victim);
                    if dirty {
                        // Writeback occupies the bus but is off the critical
                        // path of the fill: core's cluster to the victim's
                        // home bank.
                        let from = self.config.cluster_of_core(c);
                        let to = self.config.cluster_of_bank(self.config.bank_of(victim));
                        self.net.data(from, to, t);
                    }
                }
            }
        }
    }

    /// The request phase of the miss path for `line`, starting at cycle
    /// `start` (which already includes the L1 lookup that missed). The
    /// response phase runs in the `FillReady` event this schedules. Misses
    /// are two-phase so that a slow fill (e.g. a full memory-latency round
    /// trip) does not reserve the shared bus ahead of time and
    /// head-of-line-block every intervening request. A fill the bank hook
    /// parks schedules nothing: it joins the parked set, and its `FillDone`
    /// comes when the hook releases it.
    fn miss_path(
        &mut self,
        c: usize,
        line: u64,
        kind: AccessKind,
        start: u64,
        purpose: FillPurpose,
    ) -> Result<(), SimError> {
        let l2_lat = self.config.l2.latency;
        let hook_cy = self.config.hook_cycles_per_request;
        let l3_lat = self.config.l3.latency;
        let mem_lat = self.config.mem_latency;

        self.cores[c].mshr_used += 1;
        self.cores[c].note_mshr();
        if self.cores[c].mshr_used > self.config.mshrs_per_core {
            return Err(SimError::MshrOverflow { core: c });
        }

        let mut t = start;

        // Directory interaction (data side only).
        match kind {
            AccessKind::DRead => {
                self.trace(TraceEvent::DMiss { core: c, line });
                if let ReadOutcome::FromOwner(owner) = self.dir.read(c as u16, line) {
                    // Cache-to-cache transfer through the shared controller,
                    // serialized against other transfers of this line.
                    self.trace(TraceEvent::CacheToCache {
                        core: c,
                        owner: owner as usize,
                        line,
                    });
                    self.caches
                        .l1d(owner as usize)
                        .set_state(line, LineState::Shared);
                    let from = self.config.cluster_of_core(c);
                    let to = self.config.cluster_of_core(owner as usize);
                    let arrive = self.net.cmd(from, to, t);
                    let g = self.line_acquire(line, arrive, l2_lat);
                    let ready = g + l2_lat;
                    self.schedule(
                        ready,
                        Ev::FillReady {
                            core: c as u32,
                            line,
                            kind,
                            purpose,
                        },
                    );
                    return Ok(());
                }
            }
            AccessKind::DWrite => {
                self.trace(TraceEvent::DMiss { core: c, line });
                let w = self.dir.write(c as u16, line);
                if !w.invalidate.is_empty() {
                    for &s in &w.invalidate {
                        self.caches.l1d(s as usize).invalidate(line);
                    }
                    self.trace(TraceEvent::Upgrade {
                        core: c,
                        line,
                        copies: w.invalidate.len() as u32,
                    });
                    // One broadcast invalidation command.
                    let cc = self.config.cluster_of_core(c);
                    t = self.net.broadcast_cmd(cc, t) + 1;
                }
                if let Some(owner) = w.dirty_owner {
                    self.caches.l1d(owner as usize).invalidate(line);
                    let from = self.config.cluster_of_core(c);
                    let to = self.config.cluster_of_core(owner as usize);
                    let arrive = self.net.cmd(from, to, t);
                    let g = self.line_acquire(line, arrive, l2_lat);
                    let ready = g + l2_lat;
                    self.schedule(
                        ready,
                        Ev::FillReady {
                            core: c as u32,
                            line,
                            kind,
                            purpose,
                        },
                    );
                    return Ok(());
                }
            }
            AccessKind::IFetch => {
                self.trace(TraceEvent::IMiss { core: c, line });
            }
        }

        // Request crosses the interconnect to the home bank.
        let bank = self.config.bank_of(line);
        let from = self.config.cluster_of_core(c);
        let to = self.config.cluster_of_bank(bank);
        t = self.net.cmd(from, to, t);
        t = self.bank_ports[bank].acquire(t, 1) + 1;

        // Bank hook (barrier filter): its lookup runs in parallel with the
        // L2 access (§3.2), so a NotMine verdict adds no latency.
        if self.hooks[bank].is_some() {
            self.next_token += 1;
            let token = ParkToken(self.next_token);
            let mut out = HookOutcome::default();
            let decision = self.hooks[bank]
                .as_mut()
                .expect("checked above")
                .on_fill_request(line, token, t, &mut out);
            let decision = match decision {
                Ok(d) => d,
                Err(v) => {
                    return Err(SimError::Hook {
                        cycle: self.now,
                        line,
                        violation: v,
                    });
                }
            };
            self.process_outcome(bank, t, out)?;
            self.refresh_deadline(bank);
            match decision {
                FillDecision::NotMine => {}
                FillDecision::Service => {
                    // A barrier fill the hook answered without parking —
                    // the thread found its barrier already open (typically
                    // the episode's last arriver, released by its own
                    // invalidate an event earlier).
                    self.tracker.note_serviced();
                    self.trace(TraceEvent::Serviced { core: c, line });
                    let th = self.hook_ports[bank].acquire(t, hook_cy);
                    let ready = th + hook_cy + l2_lat;
                    self.schedule(
                        ready,
                        Ev::FillReady {
                            core: c as u32,
                            line,
                            kind,
                            purpose,
                        },
                    );
                    return Ok(());
                }
                FillDecision::Park => {
                    if matches!(kind, AccessKind::DWrite) {
                        return Err(SimError::Hook {
                            cycle: self.now,
                            line,
                            violation: crate::hook::HookViolation::new(
                                "a write-allocate fill was parked: stores must never target \
                                 barrier arrival addresses",
                            ),
                        });
                    }
                    self.hook_ports[bank].acquire(t, hook_cy);
                    self.parked.insert(token, c, line);
                    self.cores[c].stats.fills_parked += 1;
                    self.tracker.note_park(bank, t);
                    self.trace(TraceEvent::Parked { core: c, line });
                    return Ok(());
                }
            }
        }

        // L2 bank.
        let l2_hit = self.caches.l2(bank).lookup(line).is_some();
        t += l2_lat;
        if !l2_hit {
            // L3.
            t = self.l3_port.acquire(t, 1) + 1;
            let l3_hit = self.caches.l3().lookup(line).is_some();
            t += l3_lat;
            if !l3_hit {
                t += mem_lat;
                self.caches.l3().insert(line, LineState::Shared);
            }
            self.caches.l2(bank).insert(line, LineState::Shared);
        }
        self.schedule(
            t,
            Ev::FillReady {
                core: c as u32,
                line,
                kind,
                purpose,
            },
        );
        Ok(())
    }

    /// Perform a store to `line` (a drain from the store buffer, or a
    /// blocking store-conditional when `purpose` is `Resume`).
    fn store_path(
        &mut self,
        c: usize,
        line: u64,
        now: u64,
        purpose: FillPurpose,
    ) -> Result<StoreOutcome, SimError> {
        match self.caches.l1d(c).lookup(line) {
            Some(LineState::Modified) => Ok(StoreOutcome::Done(now + self.config.l1d.latency)),
            Some(LineState::Shared) => Ok(StoreOutcome::Done(self.upgrade(
                c,
                line,
                now + self.config.l1d.latency,
            ))),
            None => {
                let start = now + self.config.l1d.latency;
                self.miss_path(c, line, AccessKind::DWrite, start, purpose)?;
                Ok(StoreOutcome::Pending)
            }
        }
    }

    /// Upgrade core `c`'s Shared copy of `line` to Modified: invalidate
    /// every other copy through one broadcast command issued at cycle `at`.
    /// Returns the cycle the core holds the line exclusively.
    fn upgrade(&mut self, c: usize, line: u64, at: u64) -> u64 {
        let w = self.dir.write(c as u16, line);
        for &s in &w.invalidate {
            self.caches.l1d(s as usize).invalidate(line);
        }
        if let Some(owner) = w.dirty_owner {
            // Our Shared tag was stale (an in-flight-fill race): displace
            // the true owner as well.
            self.caches.l1d(owner as usize).invalidate(line);
        }
        if !w.invalidate.is_empty() {
            self.trace(TraceEvent::Upgrade {
                core: c,
                line,
                copies: w.invalidate.len() as u32,
            });
        }
        self.caches.l1d(c).set_state(line, LineState::Modified);
        let cc = self.config.cluster_of_core(c);
        let arrive = self.net.broadcast_cmd(cc, at);
        // The invalidation round trip serializes against other transfers
        // of this line at the directory.
        let busy = self.config.upgrade_busy;
        let g = self.line_acquire(line, arrive, busy);
        g + busy
    }

    /// FIFO-acquire the per-line coherence serialization point.
    fn line_acquire(&mut self, line: u64, t: u64, occupancy: u64) -> u64 {
        let cursor = self.line_busy.entry(line).or_insert(0);
        let grant = t.max(*cursor);
        *cursor = grant + occupancy;
        grant
    }

    fn clear_links(&mut self, line: u64) {
        if self.live_links == 0 {
            return;
        }
        for core in &mut self.cores {
            if core.link == Some(line) {
                core.link = None;
                self.live_links -= 1;
            }
        }
    }

    /// Establish core `c`'s LL reservation, keeping the live-link count in
    /// step (every `link` transition in the engine goes through this, the
    /// clear paths, or migration).
    #[inline]
    fn set_link(&mut self, c: usize, line: u64) {
        if self.cores[c].link.is_none() {
            self.live_links += 1;
        }
        self.cores[c].link = Some(line);
    }

    // ------------------------------------------------------------------
    // Instruction execution
    // ------------------------------------------------------------------

    #[inline]
    fn finish(&mut self, c: usize, cost: u64, next_pc: u64) {
        let core = &mut self.cores[c];
        core.pc = next_pc;
        core.stats.instructions += 1;
        let at = self.now + cost;
        if c == self.burst_core {
            // Burst fast path: defer the CoreReady — the burst loop either
            // executes the next instruction in place or flushes this to
            // the queue untouched.
            self.burst_ready = Some(at);
        } else {
            self.schedule(at, Ev::CoreReady(c as u32));
        }
    }

    /// Retire an instruction whose cost is divided by an issue width
    /// (superscalar approximation): costs accumulate in twelfths of a
    /// cycle ([`ScaledCosts`], precomputed at build), advancing the clock
    /// only when a whole cycle accrues.
    #[inline]
    fn finish_units(&mut self, c: usize, scaled_cost: u64, next_pc: u64) {
        let core = &mut self.cores[c];
        let units = core.issue_frac + scaled_cost;
        core.issue_frac = units % 12;
        core.pc = next_pc;
        core.stats.instructions += 1;
        let at = self.now + units / 12;
        if c == self.burst_core {
            self.burst_ready = Some(at);
        } else {
            self.schedule(at, Ev::CoreReady(c as u32));
        }
    }

    fn finish_at(&mut self, c: usize, at: u64, next_pc: u64) {
        self.cores[c].pc = next_pc;
        self.cores[c].stats.instructions += 1;
        self.schedule(at, Ev::CoreReady(c as u32));
    }

    /// The one transition point of a core's run state: every write of
    /// `Core::waiting` goes through here.
    #[inline]
    fn set_waiting(&mut self, c: usize, w: Waiting) {
        self.cores[c].waiting = w;
    }

    /// Make blocked core `c` runnable at cycle `at`: the only way back to
    /// `Waiting::None`, and with it the push of the core's one `CoreReady`.
    #[inline]
    fn wake(&mut self, c: usize, at: u64) {
        self.set_waiting(c, Waiting::None);
        self.schedule(at, Ev::CoreReady(c as u32));
    }

    /// Retire the instruction at core `c`'s pc, moving it to `next_pc`,
    /// and block the core in `w` until a [`wake`](Machine::wake).
    #[inline]
    fn block(&mut self, c: usize, next_pc: u64, w: Waiting) {
        let core = &mut self.cores[c];
        core.pc = next_pc;
        core.stats.instructions += 1;
        self.set_waiting(c, w);
    }

    /// I-fetch front end: ensure the ifetch window covers `pc`, going
    /// through the L1I (and on a miss, the fill machinery). Returns `false`
    /// when the core blocked on an instruction fill.
    fn ifetch_window(&mut self, c: usize, pc: u64) -> Result<bool, SimError> {
        if pc < self.cores[c].ifetch_lo || pc >= self.cores[c].ifetch_hi {
            let fetch_line = line_of(pc);
            if self.caches.l1i(c).lookup(fetch_line).is_some() {
                self.cores[c].ifetch_lo = fetch_line;
                self.cores[c].ifetch_hi = fetch_line + sim_isa::LINE_BYTES;
            } else {
                let start = self.now + self.config.l1i.latency;
                self.miss_path(
                    c,
                    fetch_line,
                    AccessKind::IFetch,
                    start,
                    FillPurpose::Resume,
                )?;
                self.set_waiting(
                    c,
                    Waiting::Fill {
                        line: fetch_line,
                        cont: Continuation::IFetch,
                    },
                );
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Execute the next instruction on core `c`: fetch it from the program
    /// image through the I-fetch window, then execute it.
    fn step_core(&mut self, c: usize) -> Result<(), SimError> {
        let core = &self.cores[c];
        // A blocked or halted core has no `CoreReady` queued: blocking and
        // halting push none, and `wake`, the only way out of a wait state,
        // pushes the core's one.
        debug_assert!(
            !core.halted && matches!(core.waiting, Waiting::None),
            "CoreReady for a halted or blocked core {c}"
        );
        let pc = core.pc;
        if !self.ifetch_window(c, pc)? {
            return Ok(());
        }
        let Some(instr) = self.program.fetch(pc) else {
            return Err(SimError::IllegalPc { core: c, pc });
        };
        self.exec_instr(c, pc, instr)
    }

    /// Execute one already-fetched instruction at `pc` on core `c`.
    fn exec_instr(&mut self, c: usize, pc: u64, instr: Instr) -> Result<(), SimError> {
        let now = self.now;
        let units = self.scaled.units_of(&instr);
        let t = &self.config.timing;
        let next = pc + sim_isa::INSTR_BYTES;

        macro_rules! alu {
            ($rd:expr, $val:expr) => {{
                let v = $val;
                self.cores[c].set_reg($rd, v);
                self.finish_units(c, units, next);
            }};
        }
        macro_rules! falu {
            ($fd:expr, $val:expr) => {{
                let v = $val;
                self.cores[c].set_freg($fd, v);
                self.finish_units(c, units, next);
            }};
        }

        let r = |r: Reg| self.cores[c].reg(r);
        let fr = |f| self.cores[c].freg(f);

        match instr {
            Instr::Add(d, a, b) => alu!(d, r(a).wrapping_add(r(b))),
            Instr::Sub(d, a, b) => alu!(d, r(a).wrapping_sub(r(b))),
            Instr::Mul(d, a, b) => alu!(d, r(a).wrapping_mul(r(b))),
            Instr::Div(d, a, b) => {
                if r(b) == 0 {
                    return Err(SimError::DivisionByZero { core: c, pc });
                }
                alu!(d, (r(a) as i64).wrapping_div(r(b) as i64) as u64)
            }
            Instr::Rem(d, a, b) => {
                if r(b) == 0 {
                    return Err(SimError::DivisionByZero { core: c, pc });
                }
                alu!(d, (r(a) as i64).wrapping_rem(r(b) as i64) as u64)
            }
            Instr::And(d, a, b) => alu!(d, r(a) & r(b)),
            Instr::Or(d, a, b) => alu!(d, r(a) | r(b)),
            Instr::Xor(d, a, b) => alu!(d, r(a) ^ r(b)),
            Instr::Sll(d, a, b) => alu!(d, r(a) << (r(b) & 63)),
            Instr::Srl(d, a, b) => alu!(d, r(a) >> (r(b) & 63)),
            Instr::Sra(d, a, b) => alu!(d, ((r(a) as i64) >> (r(b) & 63)) as u64),
            Instr::Slt(d, a, b) => alu!(d, ((r(a) as i64) < (r(b) as i64)) as u64),
            Instr::Sltu(d, a, b) => alu!(d, (r(a) < r(b)) as u64),
            Instr::Min(d, a, b) => alu!(d, (r(a) as i64).min(r(b) as i64) as u64),
            Instr::Max(d, a, b) => alu!(d, (r(a) as i64).max(r(b) as i64) as u64),
            Instr::Addi(d, a, i) => alu!(d, r(a).wrapping_add(i as u64)),
            Instr::Andi(d, a, i) => alu!(d, r(a) & i as u64),
            Instr::Ori(d, a, i) => alu!(d, r(a) | i as u64),
            Instr::Xori(d, a, i) => alu!(d, r(a) ^ i as u64),
            Instr::Slli(d, a, s) => alu!(d, r(a) << (s & 63)),
            Instr::Srli(d, a, s) => alu!(d, r(a) >> (s & 63)),
            Instr::Srai(d, a, s) => alu!(d, ((r(a) as i64) >> (s & 63)) as u64),
            Instr::Slti(d, a, i) => alu!(d, ((r(a) as i64) < i) as u64),
            Instr::Li(d, i) => alu!(d, i as u64),

            Instr::Fadd(d, a, b) => falu!(d, fr(a) + fr(b)),
            Instr::Fsub(d, a, b) => falu!(d, fr(a) - fr(b)),
            Instr::Fmul(d, a, b) => falu!(d, fr(a) * fr(b)),
            Instr::Fdiv(d, a, b) => falu!(d, fr(a) / fr(b)),
            Instr::Fmadd(d, a, b, e) => falu!(d, fr(a).mul_add(fr(b), fr(e))),
            Instr::Fneg(d, a) => falu!(d, -fr(a)),
            Instr::Fmov(d, a) => falu!(d, fr(a)),
            Instr::Fli(d, v) => falu!(d, v),
            Instr::Fcvtif(d, a) => falu!(d, r(a) as i64 as f64),
            Instr::Fcvtfi(d, a) => alu!(d, fr(a) as i64 as u64),
            Instr::Feq(d, a, b) => alu!(d, (fr(a) == fr(b)) as u64),
            Instr::Flt(d, a, b) => alu!(d, (fr(a) < fr(b)) as u64),
            Instr::Fle(d, a, b) => alu!(d, (fr(a) <= fr(b)) as u64),

            Instr::Ld(rd, base, off, width) => {
                let dest = LoadDest::Int(rd);
                self.exec_load(c, pc, dest, base, off, width, false, units, next)?;
            }
            Instr::Ll(rd, base, off) => {
                let dest = LoadDest::Int(rd);
                self.exec_load(c, pc, dest, base, off, MemWidth::D, true, units, next)?;
            }
            Instr::Fld(fd, base, off) => {
                let dest = LoadDest::Fp(fd);
                self.exec_load(c, pc, dest, base, off, MemWidth::D, false, units, next)?;
            }
            Instr::St(src, base, off, width) => {
                let addr = r(base).wrapping_add(off as u64);
                self.exec_store(c, pc, addr, width, r(src), units, next)?;
            }
            Instr::Fst(fs, base, off) => {
                let addr = r(base).wrapping_add(off as u64);
                let bits = fr(fs).to_bits();
                self.exec_store(c, pc, addr, MemWidth::D, bits, units, next)?;
            }
            Instr::Sc(rd, src, base, off) => {
                let addr = r(base).wrapping_add(off as u64);
                self.check_aligned(c, pc, addr, 8)?;
                if self.program.overlaps_code(addr, 8) {
                    return Err(SimError::CodeRegionWrite { core: c, pc, addr });
                }
                let line = line_of(addr);
                if self.cores[c].link != Some(line) {
                    // Fast fail: the reservation is already gone.
                    self.cores[c].set_reg(rd, 0);
                    self.finish(c, t.int_op, next);
                } else {
                    // The store-conditional blocks until it holds the line
                    // exclusively; success is decided then (see the `Sc`
                    // continuation).
                    let cont = Continuation::Sc {
                        rd,
                        src: r(src),
                        addr,
                    };
                    let start = now + t.store_issue;
                    // A line already held (Modified, or Shared and upgraded)
                    // completes through a `FillDone`; a miss goes through
                    // the `FillReady` chain.
                    let owned_at = match self.caches.l1d(c).lookup(line) {
                        Some(LineState::Modified) => Some(start + self.config.l1d.latency),
                        Some(LineState::Shared) => Some(self.upgrade(c, line, start)),
                        None => {
                            let kind = AccessKind::DWrite;
                            self.miss_path(c, line, kind, start, FillPurpose::Resume)?;
                            None
                        }
                    };
                    if let Some(at) = owned_at {
                        self.cores[c].mshr_used += 1;
                        self.cores[c].note_mshr();
                        self.schedule(
                            at,
                            Ev::FillDone {
                                core: c as u32,
                                line,
                                error: false,
                            },
                        );
                    }
                    self.block(c, next, Waiting::Fill { line, cont });
                }
            }

            Instr::Beq(a, b, tg) => self.branch(c, r(a) == r(b), tg.0, next),
            Instr::Bne(a, b, tg) => self.branch(c, r(a) != r(b), tg.0, next),
            Instr::Blt(a, b, tg) => self.branch(c, (r(a) as i64) < (r(b) as i64), tg.0, next),
            Instr::Bge(a, b, tg) => self.branch(c, (r(a) as i64) >= (r(b) as i64), tg.0, next),
            Instr::Bltu(a, b, tg) => self.branch(c, r(a) < r(b), tg.0, next),
            Instr::Bgeu(a, b, tg) => self.branch(c, r(a) >= r(b), tg.0, next),
            Instr::Jal(rd, tg) => {
                self.cores[c].set_reg(rd, next);
                self.finish(c, t.branch + t.branch_taken_penalty, tg.0);
            }
            Instr::Jalr(rd, base, off) => {
                let target = r(base).wrapping_add(off as u64);
                self.cores[c].set_reg(rd, next);
                self.finish(c, t.branch + t.branch_taken_penalty, target);
            }

            Instr::Sync => {
                if self.cores[c].store_buffer.is_empty() {
                    self.finish(c, t.fence, next);
                } else {
                    let residual = t.fence;
                    self.block(c, next, Waiting::Fence { residual });
                }
            }
            Instr::Isync => {
                self.cores[c].clear_ifetch_window();
                self.finish(c, t.isync, next);
            }
            Instr::Icbi(base, off) => {
                let addr = r(base).wrapping_add(off as u64);
                self.exec_invalidate(c, addr, true, next);
            }
            Instr::Dcbi(base, off) => {
                let addr = r(base).wrapping_add(off as u64);
                self.exec_invalidate(c, addr, false, next);
            }
            Instr::HwBar(id) => {
                if !self.hwnet.has_group(id) {
                    return Err(SimError::UnknownHwBarrier { core: c, id });
                }
                if !self.hwnet.is_member(id, c) {
                    return Err(SimError::HwBarrierWrongCore { core: c, id });
                }
                // Every arriver stalls; the last one's arrival releases the
                // whole group, itself included.
                self.block(c, next, Waiting::HwBar);
                self.tracker.note_hw_arrival(id, now);
                self.trace(TraceEvent::HwBarArrive { core: c, id });
                if let HwBarResult::Release(list) = self.hwnet.arrive(id, c, now) {
                    let resume = list.iter().map(|&(_, at)| at).max().unwrap_or(now);
                    for (core, at) in list {
                        self.trace(TraceEvent::HwBarRelease { core, id });
                        self.wake(core, at);
                    }
                    let ev = self.tracker.close_hw(id, now, resume);
                    self.trace(ev);
                }
            }

            Instr::Halt => {
                self.cores[c].halted = true;
                self.live_cores -= 1;
                self.cores[c].stats.instructions += 1;
                self.cores[c].stats.halt_cycle = Some(now);
            }
            Instr::Nop => self.finish(c, t.int_op, next),
        }
        Ok(())
    }

    #[inline]
    fn branch(&mut self, c: usize, taken: bool, target: u64, next: u64) {
        let t = &self.config.timing;
        if taken {
            self.finish(c, t.branch + t.branch_taken_penalty, target);
        } else {
            self.finish(c, t.branch, next);
        }
    }

    fn check_aligned(&self, c: usize, pc: u64, addr: u64, width: u64) -> Result<(), SimError> {
        if !addr.is_multiple_of(width) {
            return Err(SimError::UnalignedAccess {
                core: c,
                pc,
                addr,
                width,
            });
        }
        Ok(())
    }

    /// `ld`, `ll` and `fld`. Forced inline: its L1D hit is the spin loops'
    /// hot path, and with three call sites in `exec_instr` the compiler
    /// otherwise outlines it behind a call.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn exec_load(
        &mut self,
        c: usize,
        pc: u64,
        dest: LoadDest,
        base: Reg,
        off: i64,
        width: MemWidth,
        set_link: bool,
        units: u64,
        next: u64,
    ) -> Result<(), SimError> {
        let now = self.now;
        let addr = self.cores[c].reg(base).wrapping_add(off as u64);
        self.check_aligned(c, pc, addr, width.bytes())?;
        let line = line_of(addr);
        self.cores[c].stats.loads += 1;
        if self.caches.l1d(c).lookup(line).is_some() {
            let v = self.mem.read_le(addr, width.bytes() as usize);
            self.cores[c].write_load(dest, v);
            if set_link {
                self.set_link(c, line);
            }
            self.trace(TraceEvent::DataRead {
                core: c,
                addr,
                bytes: width.bytes(),
            });
            self.finish_units(c, units, next);
            return Ok(());
        }
        self.miss_path(
            c,
            line,
            AccessKind::DRead,
            now + self.config.timing.load,
            FillPurpose::Resume,
        )?;
        let cont = Continuation::Load {
            dest,
            addr,
            width,
            set_link,
        };
        self.block(c, next, Waiting::Fill { line, cont });
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_store(
        &mut self,
        c: usize,
        pc: u64,
        addr: u64,
        width: MemWidth,
        value: u64,
        units: u64,
        next: u64,
    ) -> Result<(), SimError> {
        let now = self.now;
        self.check_aligned(c, pc, addr, width.bytes())?;
        if self.program.overlaps_code(addr, width.bytes()) {
            return Err(SimError::CodeRegionWrite { core: c, pc, addr });
        }
        if self.cores[c].store_buffer.len() >= self.config.store_buffer_entries {
            // Re-execute once a slot frees.
            self.set_waiting(c, Waiting::StoreSlot);
            return Ok(());
        }
        let line = line_of(addr);
        self.mem.write_le(addr, width.bytes() as usize, value);
        self.clear_links(line);
        self.cores[c].stats.stores += 1;
        self.trace(TraceEvent::DataWrite {
            core: c,
            addr,
            bytes: width.bytes(),
        });
        self.cores[c].store_buffer.push_back(line);
        if self.cores[c].store_buffer.len() == 1 {
            // The buffer was empty, so no drain is in flight: start one.
            let issue_at = now + self.config.timing.store_issue;
            match self.store_path(c, line, issue_at, FillPurpose::StoreDrain)? {
                StoreOutcome::Done(at) => self.schedule(at, Ev::StoreRetire(c as u32)),
                StoreOutcome::Pending => {}
            }
        }
        self.finish_units(c, units, next);
        Ok(())
    }

    fn exec_invalidate(&mut self, c: usize, addr: u64, icache: bool, next: u64) {
        let now = self.now;
        let line = line_of(addr);
        self.cores[c].stats.invalidates += 1;
        self.trace(TraceEvent::Invalidate {
            core: c,
            line,
            icache,
        });
        if icache {
            for i in 0..self.cores.len() {
                self.caches.l1i(i).invalidate(line);
                if self.cores[i].ifetch_lo == line {
                    self.cores[i].clear_ifetch_window();
                }
            }
            if self.program.overlaps_code(line, sim_isa::LINE_BYTES) {
                // The icbi broadcast is the architectural point where new
                // code becomes fetchable: land any staged patches for this
                // line. Gated on the code region so data-line icbis (the
                // barrier-filter arrival protocol) stay off this path.
                self.apply_patches(line);
            }
        }
        let bank = self.config.bank_of(line);
        if !icache {
            let (holders, dirty) = self.dir.invalidate_all(line);
            for h in holders {
                self.caches.l1d(h as usize).invalidate(line);
            }
            if dirty {
                // Writeback of the dirty copy toward the home bank (bus
                // occupancy only).
                let from = self.config.cluster_of_core(c);
                let to = self.config.cluster_of_bank(bank);
                self.net.data(from, to, now);
            }
            self.clear_links(line);
        }
        self.caches.l2(bank).invalidate(line);
        self.caches.l3().invalidate(line);
        let cc = self.config.cluster_of_core(c);
        let done = self
            .net
            .broadcast_cmd(cc, now + self.config.timing.invalidate_issue);
        // The invalidation message reaches the bank controller one cycle
        // after leaving the bus — the same pipe fills traverse, preserving
        // invalidate-before-fill ordering per issuing core.
        self.schedule(
            done + 1,
            Ev::HookInvalidate {
                bank: bank as u32,
                line,
            },
        );
        self.finish_at(c, done, next);
    }

    /// Land every staged [`patch_code`](Machine::patch_code) patch on
    /// `line` in the program image. Called only from an `icbi` broadcast
    /// covering `line`, which has already reset the ifetch window of every
    /// core fetching from it.
    fn apply_patches(&mut self, line: u64) {
        let mut i = 0;
        while i < self.pending_patches.len() {
            let (pc, instr) = self.pending_patches[i];
            if line_of(pc) == line {
                self.pending_patches.swap_remove(i);
                let old = self.program.patch(pc, instr);
                debug_assert!(old.is_some(), "patch_code validated the pc");
            } else {
                i += 1;
            }
        }
    }
}

fn mask_for(width: MemWidth) -> u64 {
    match width {
        MemWidth::B => 0xff,
        MemWidth::H => 0xffff,
        MemWidth::W => 0xffff_ffff,
        MemWidth::D => u64::MAX,
    }
}
