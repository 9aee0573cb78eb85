//! Bounded model checker for barrier protocols: exhaustive interleaving
//! exploration of the *actual emitted* MiniRISC barrier routine.
//!
//! The checker runs a small instance (2–4 cores, 2 consecutive episodes)
//! of one barrier on an abstract sync-memory machine. Only the state the
//! protocol can observe is tracked: the 64-bit words of the registered
//! [`ProtocolSpec::regions`], the per-core TLS sense slots, LL/SC
//! reservations, the per-slot filter FSM of Figure 3 (with parked fills —
//! the sleep/wake transitions of §3.2), and the dedicated-network arrival
//! set. Everything else a routine does is core-local and deterministic,
//! so cores only interleave at *visible* operations: sync-region
//! accesses, arrival-line invalidates and fills, and `hwbar`.
//!
//! That local-determinism collapse is the partial-order reduction: a
//! core's straight-line segment between two visible operations touches no
//! location another core can observe (per the `SyncRegion` metadata), so
//! it forms a singleton persistent set and is executed atomically with
//! the preceding visible operation. The remaining interleavings are
//! deduplicated by hashing visited states, which merges schedules that
//! commute to the same abstract state. Exploration is breadth-first, so
//! the first counterexample per rule is depth-minimal.
//!
//! Two sources of nondeterminism beyond scheduling are modeled:
//!
//! * **Stale prefetch**: after a core invalidates its own arrival line,
//!   a fetch of that line *may* be satisfied by a stale prefetched copy
//!   unless an `isync` intervenes — exactly the hazard `R-BARRIER-ISYNC`
//!   lints for, but explored semantically here.
//! * **Faults** ([`McConfig::fault`]): one nondeterministic
//!   `SwitchOut`/`Migrate` transition, mirroring the runtime `FaultKind`s:
//!   the victim loses its LL reservation and prefetched state, and a
//!   parked fill is cancelled and re-issued when it runs again (§3.3.3).
//!
//! Checked properties (see [`rules`]): `R-MC-DEADLOCK`,
//! `R-MC-LOST-WAKEUP`, `R-MC-EPISODE-ATOMIC`, `R-MC-SENSE` and
//! `R-MC-HW-PAIRING`. Counterexamples carry the full minimized schedule;
//! the `props` module holds how each property is evaluated.
//!
//! What this does *not* prove: anything about data memory (fence
//! placement for kernel data is `R-BARRIER-SYNC`'s job), real-time
//! behavior, or instances larger than the explored bound.

use std::collections::{BTreeMap, HashMap, VecDeque};

use barrier_filter::{fsm, FsmAction, FsmEvent, ProtocolSpec, RegionKind, ThreadState};
use sim_isa::{Instr, Program, Reg, INSTR_BYTES, LINE_BYTES};

use crate::diag::{rules, Diagnostic, Severity};
use crate::props::{self, Act, ActTag, PropSink, Viol};

/// Return address installed by the driver: a pc outside any code image,
/// so reaching it means the routine returned (one episode completed).
const SENTINEL: u64 = 0xdead_0000;

/// Synthetic per-core TLS base (the checker, not the loader, places TLS).
const TLS_BASE: u64 = 0x7f00_0000;

/// Modeled TLS bytes per core (the sense slots live at small offsets).
const TLS_BYTES: u64 = 64;

/// Per-core TLS block stride (matches the runtime's 4-line blocks).
const TLS_STRIDE: u64 = 256;

/// Straight-line instructions a core may execute between two visible
/// operations before the checker calls it a non-synchronizing loop.
const LOCAL_CAP: usize = 2048;

/// Registers the abstract machine tracks: everything the barrier
/// runtime's register convention lets a routine read or clobber.
const TRACKED: [Reg; 10] = [
    Reg::RA,
    Reg::TLS,
    Reg::T6,
    Reg::T7,
    Reg::T8,
    Reg::T9,
    Reg::K0,
    Reg::K1,
    Reg::TID,
    Reg::NTID,
];

/// Exploration bounds and the fault dimension.
#[derive(Debug, Clone, Copy)]
pub struct McConfig {
    /// Consecutive episodes each core runs (2 exercises episode reuse:
    /// sense reversal, counter reset, filter exit).
    pub episodes: u32,
    /// Inject one nondeterministic `SwitchOut`/`Migrate` transition.
    pub fault: bool,
    /// Abort (marking the report truncated) past this many states.
    pub max_states: usize,
}

impl Default for McConfig {
    fn default() -> McConfig {
        McConfig {
            episodes: 2,
            fault: false,
            max_states: 200_000,
        }
    }
}

/// The result of one bounded exploration.
#[derive(Debug, Clone)]
pub struct McReport {
    /// Distinct abstract states reached.
    pub states: u64,
    /// Transitions executed (including edges into already-visited states).
    pub transitions: u64,
    /// Whether exploration hit [`McConfig::max_states`] (verdicts below
    /// only cover the explored prefix).
    pub truncated: bool,
    /// Counterexamples, at most one per `R-MC-*` rule, each carrying its
    /// minimized schedule.
    pub diagnostics: Vec<Diagnostic>,
}

impl McReport {
    /// Whether the explored space satisfied every property.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Where a core stands between transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Status {
    /// Stopped at its next visible operation (or mid-init).
    Running,
    /// Fill parked in filter table `table`, slot `slot` (asleep).
    Parked { table: u8, slot: u8 },
    /// Arrived at the dedicated-network barrier, awaiting fire.
    HwWait,
    /// All episodes completed (or the routine halted).
    Done,
}

/// One core of the abstract machine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Core {
    pc: u64,
    regs: [u64; TRACKED.len()],
    tls: [u64; (TLS_BYTES / 8) as usize],
    status: Status,
    /// Episodes begun (1 at init: every core starts inside episode 1).
    entered: u32,
    /// Episodes completed (returns from the routine).
    completed: u32,
    /// Arrival line whose pre-invalidate contents may still satisfy a
    /// fetch (set by the core's own invalidate, cleared by `isync`).
    stale: Option<u64>,
    /// LL reservation (line address).
    link: Option<u64>,
}

/// Per-slot FSM states and parked-fill masks of one filter table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Table {
    slots: Vec<ThreadState>,
    /// Bitmask of cores whose fill is parked on each slot.
    parked: Vec<u8>,
}

/// One abstract machine state: everything the protocol can observe.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct McState {
    cores: Vec<Core>,
    /// Sync-region words (8-byte aligned; absent means 0).
    mem: BTreeMap<u64, u64>,
    tables: Vec<Table>,
    /// Cores arrived at the dedicated-network barrier.
    hw_arrived: u8,
    /// Remaining fault injections.
    faults_left: u8,
}

/// Static description of one filter table, derived from the spec's
/// region list exactly as the runtime derives its `FilterTableConfig`s:
/// each `Arrival` region pairs with the following `Exit` region, and a
/// ping-pong `Arrival`/`ArrivalAlt` pair yields two cross-linked tables
/// (each range is the other table's exit) with the alternate table
/// starting in `Servicing`.
struct TableCfg {
    arrival: (u64, u64),
    exit: Option<(u64, u64)>,
    init: ThreadState,
}

impl TableCfg {
    fn lines(&self) -> usize {
        ((self.arrival.1 - self.arrival.0) / LINE_BYTES) as usize
    }
}

fn span(r: &barrier_filter::SyncRegion) -> (u64, u64) {
    (r.base, r.base + r.bytes)
}

fn derive_tables(spec: &ProtocolSpec) -> Vec<TableCfg> {
    let regs = &spec.regions;
    let mut tables = Vec::new();
    let mut i = 0;
    while i < regs.len() {
        if regs[i].kind == RegionKind::Arrival {
            if i + 1 < regs.len() && regs[i + 1].kind == RegionKind::ArrivalAlt {
                tables.push(TableCfg {
                    arrival: span(&regs[i]),
                    exit: Some(span(&regs[i + 1])),
                    init: ThreadState::Waiting,
                });
                tables.push(TableCfg {
                    arrival: span(&regs[i + 1]),
                    exit: Some(span(&regs[i])),
                    init: ThreadState::Servicing,
                });
                i += 2;
                continue;
            }
            if i + 1 < regs.len() && regs[i + 1].kind == RegionKind::Exit {
                tables.push(TableCfg {
                    arrival: span(&regs[i]),
                    exit: Some(span(&regs[i + 1])),
                    init: ThreadState::Waiting,
                });
                i += 2;
                continue;
            }
            tables.push(TableCfg {
                arrival: span(&regs[i]),
                exit: None,
                init: ThreadState::Waiting,
            });
        }
        i += 1;
    }
    tables
}

/// A visible operation a core is stopped at.
enum Visible {
    /// Fetch of an arrival line (instruction fetch when the pc itself is
    /// in the range, data load otherwise).
    Fill { line: u64 },
    /// Plain read of a sync word (`ll` also takes a reservation).
    Read { addr: u64, rd: Reg, ll: bool },
    /// Plain write of a sync word.
    Write { addr: u64, src: Reg },
    /// Store-conditional to a sync word.
    Sc { addr: u64, rd: Reg, src: Reg },
    /// `dcbi`/`icbi` of a line inside a sync region.
    Inval { line: u64 },
    /// Dedicated-network barrier.
    Hw { id: u16 },
}

fn line_of(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}

fn word_of(addr: u64) -> u64 {
    addr & !7
}

fn slot_of(r: Reg) -> Option<usize> {
    TRACKED.iter().position(|&t| t == r)
}

fn get(core: &Core, r: Reg) -> u64 {
    slot_of(r).map_or(0, |s| core.regs[s])
}

fn set(core: &mut Core, r: Reg, v: u64) {
    if let Some(s) = slot_of(r) {
        core.regs[s] = v;
    }
}

/// The immutable context of one exploration.
struct Machine<'a> {
    program: &'a Program,
    spec: &'a ProtocolSpec,
    entry: u64,
    episodes: u32,
    ncores: usize,
    tables: Vec<TableCfg>,
}

impl<'a> Machine<'a> {
    fn initial_state(&self) -> McState {
        let cores = (0..self.ncores)
            .map(|c| {
                let mut core = Core {
                    pc: self.entry,
                    regs: [0; TRACKED.len()],
                    tls: [0; (TLS_BYTES / 8) as usize],
                    status: Status::Running,
                    entered: 1,
                    completed: 0,
                    stale: None,
                    link: None,
                };
                set(&mut core, Reg::RA, SENTINEL);
                set(&mut core, Reg::TLS, TLS_BASE + c as u64 * TLS_STRIDE);
                set(&mut core, Reg::TID, c as u64);
                set(&mut core, Reg::NTID, self.ncores as u64);
                core
            })
            .collect();
        McState {
            cores,
            mem: BTreeMap::new(),
            tables: self
                .tables
                .iter()
                .map(|t| Table {
                    slots: vec![t.init; t.lines()],
                    parked: vec![0; t.lines()],
                })
                .collect(),
            hw_arrived: 0,
            faults_left: 0,
        }
    }

    fn is_tls(&self, c: usize, ea: u64) -> bool {
        let base = TLS_BASE + c as u64 * TLS_STRIDE;
        ea >= base && ea < base + TLS_STRIDE
    }

    fn tls_slot(&self, c: usize, ea: u64) -> Option<usize> {
        let base = TLS_BASE + c as u64 * TLS_STRIDE;
        if ea >= base && ea < base + TLS_BYTES {
            Some(((ea - base) / 8) as usize)
        } else {
            None
        }
    }

    /// The table whose arrival range contains `addr`, with the slot index.
    fn arrival_at(&self, addr: u64) -> Option<(usize, usize)> {
        self.tables.iter().enumerate().find_map(|(t, cfg)| {
            (addr >= cfg.arrival.0 && addr < cfg.arrival.1)
                .then(|| (t, ((addr - cfg.arrival.0) / LINE_BYTES) as usize))
        })
    }

    /// Classify the operation core `c` is stopped at; `None` means the
    /// current instruction is core-local.
    fn visible_at(&self, st: &McState, c: usize) -> Result<Option<Visible>, Viol> {
        let core = &st.cores[c];
        let pc = core.pc;
        if self.arrival_at(pc).is_some() {
            return Ok(Some(Visible::Fill { line: line_of(pc) }));
        }
        let Some(i) = self.program.fetch(pc) else {
            return Err(Viol::new(
                rules::MC_DEADLOCK,
                Some(pc),
                format!("t{c}: pc {pc:#x} is outside the code image"),
            ));
        };
        let ea = |base: Reg, off: i64| get(core, base).wrapping_add(off as u64);
        Ok(match i {
            Instr::Ld(rd, base, off, _) => {
                let ea = ea(base, off);
                if self.is_tls(c, ea) {
                    None
                } else if self.arrival_at(ea).is_some() {
                    Some(Visible::Fill { line: line_of(ea) })
                } else if self.spec.is_sync_addr(ea) {
                    Some(Visible::Read {
                        addr: word_of(ea),
                        rd,
                        ll: false,
                    })
                } else {
                    None
                }
            }
            Instr::Ll(rd, base, off) => {
                let ea = ea(base, off);
                (!self.is_tls(c, ea) && self.spec.is_sync_addr(ea)).then_some(Visible::Read {
                    addr: word_of(ea),
                    rd,
                    ll: true,
                })
            }
            Instr::St(src, base, off, _) => {
                let ea = ea(base, off);
                (!self.is_tls(c, ea) && self.spec.is_sync_addr(ea)).then_some(Visible::Write {
                    addr: word_of(ea),
                    src,
                })
            }
            Instr::Sc(rd, src, base, off) => {
                let ea = ea(base, off);
                (!self.is_tls(c, ea) && self.spec.is_sync_addr(ea)).then_some(Visible::Sc {
                    addr: word_of(ea),
                    rd,
                    src,
                })
            }
            Instr::Dcbi(base, off) | Instr::Icbi(base, off) => {
                let line = line_of(ea(base, off));
                self.spec
                    .is_sync_addr(line)
                    .then_some(Visible::Inval { line })
            }
            Instr::HwBar(id) => Some(Visible::Hw { id }),
            _ => None,
        })
    }

    /// Execute the (core-local) instruction at `c`'s pc.
    fn exec_local(&self, st: &mut McState, c: usize) -> Result<(), Viol> {
        let pc = st.cores[c].pc;
        let Some(i) = self.program.fetch(pc) else {
            return Err(Viol::new(
                rules::MC_DEADLOCK,
                Some(pc),
                format!("t{c}: pc {pc:#x} is outside the code image"),
            ));
        };
        let core = &mut st.cores[c];
        let mut next = pc + INSTR_BYTES;
        let sdiv = |a: u64, b: u64, rem: bool| -> u64 {
            let (a, b) = (a as i64, b as i64);
            if b == 0 {
                0
            } else if rem {
                a.wrapping_rem(b) as u64
            } else {
                a.wrapping_div(b) as u64
            }
        };
        match i {
            Instr::Add(rd, a, b) => set(core, rd, get(core, a).wrapping_add(get(core, b))),
            Instr::Sub(rd, a, b) => set(core, rd, get(core, a).wrapping_sub(get(core, b))),
            Instr::Mul(rd, a, b) => set(core, rd, get(core, a).wrapping_mul(get(core, b))),
            Instr::Div(rd, a, b) => set(core, rd, sdiv(get(core, a), get(core, b), false)),
            Instr::Rem(rd, a, b) => set(core, rd, sdiv(get(core, a), get(core, b), true)),
            Instr::And(rd, a, b) => set(core, rd, get(core, a) & get(core, b)),
            Instr::Or(rd, a, b) => set(core, rd, get(core, a) | get(core, b)),
            Instr::Xor(rd, a, b) => set(core, rd, get(core, a) ^ get(core, b)),
            Instr::Sll(rd, a, b) => set(core, rd, get(core, a) << (get(core, b) & 63)),
            Instr::Srl(rd, a, b) => set(core, rd, get(core, a) >> (get(core, b) & 63)),
            Instr::Sra(rd, a, b) => {
                set(
                    core,
                    rd,
                    ((get(core, a) as i64) >> (get(core, b) & 63)) as u64,
                );
            }
            Instr::Slt(rd, a, b) => {
                set(
                    core,
                    rd,
                    u64::from((get(core, a) as i64) < get(core, b) as i64),
                );
            }
            Instr::Sltu(rd, a, b) => set(core, rd, u64::from(get(core, a) < get(core, b))),
            Instr::Min(rd, a, b) => {
                set(
                    core,
                    rd,
                    (get(core, a) as i64).min(get(core, b) as i64) as u64,
                );
            }
            Instr::Max(rd, a, b) => {
                set(
                    core,
                    rd,
                    (get(core, a) as i64).max(get(core, b) as i64) as u64,
                );
            }
            Instr::Addi(rd, a, imm) => set(core, rd, get(core, a).wrapping_add(imm as u64)),
            Instr::Andi(rd, a, imm) => set(core, rd, get(core, a) & imm as u64),
            Instr::Ori(rd, a, imm) => set(core, rd, get(core, a) | imm as u64),
            Instr::Xori(rd, a, imm) => set(core, rd, get(core, a) ^ imm as u64),
            Instr::Slli(rd, a, sh) => set(core, rd, get(core, a) << (sh & 63)),
            Instr::Srli(rd, a, sh) => set(core, rd, get(core, a) >> (sh & 63)),
            Instr::Srai(rd, a, sh) => set(core, rd, ((get(core, a) as i64) >> (sh & 63)) as u64),
            Instr::Slti(rd, a, imm) => set(core, rd, u64::from((get(core, a) as i64) < imm)),
            Instr::Li(rd, imm) => set(core, rd, imm as u64),
            Instr::Ld(rd, base, off, _) => {
                let ea = get(core, base).wrapping_add(off as u64);
                let v = self.tls_slot(c, ea).map_or(0, |s| st.cores[c].tls[s]);
                set(&mut st.cores[c], rd, v);
            }
            Instr::St(src, base, off, _) => {
                let ea = get(core, base).wrapping_add(off as u64);
                let v = get(core, src);
                if let Some(s) = self.tls_slot(c, ea) {
                    st.cores[c].tls[s] = v;
                }
            }
            Instr::Ll(rd, base, off) => {
                let ea = get(core, base).wrapping_add(off as u64);
                core.link = Some(line_of(ea));
                set(&mut st.cores[c], rd, 0);
            }
            Instr::Sc(rd, _, base, off) => {
                let ea = get(core, base).wrapping_add(off as u64);
                let ok = core.link == Some(line_of(ea));
                core.link = None;
                set(core, rd, u64::from(ok));
            }
            Instr::Beq(a, b, t) if get(core, a) == get(core, b) => {
                next = t.0;
            }
            Instr::Bne(a, b, t) if get(core, a) != get(core, b) => {
                next = t.0;
            }
            Instr::Blt(a, b, t) if (get(core, a) as i64) < get(core, b) as i64 => {
                next = t.0;
            }
            Instr::Bge(a, b, t) if (get(core, a) as i64) >= get(core, b) as i64 => {
                next = t.0;
            }
            Instr::Bltu(a, b, t) if get(core, a) < get(core, b) => {
                next = t.0;
            }
            Instr::Bgeu(a, b, t) if get(core, a) >= get(core, b) => {
                next = t.0;
            }
            Instr::Jal(rd, t) => {
                set(core, rd, pc + INSTR_BYTES);
                next = t.0;
            }
            Instr::Jalr(rd, base, off) => {
                next = get(core, base).wrapping_add(off as u64);
                set(core, rd, pc + INSTR_BYTES);
            }
            Instr::Isync => st.cores[c].stale = None,
            Instr::Halt => st.cores[c].status = Status::Done,
            // Floating point never carries protocol state; fences order
            // data memory, which is not modeled; non-sync invalidates are
            // no-ops on the abstract machine.
            _ => {}
        }
        if st.cores[c].status == Status::Running {
            st.cores[c].pc = next;
        }
        Ok(())
    }

    /// Complete a (serviced or bypassed) fill: a data fill delivers the
    /// line's word, an instruction fill executes the arrival stub until
    /// control leaves the arrival range.
    fn complete_fill(&self, st: &mut McState, c: usize) -> Result<(), Viol> {
        let pc = st.cores[c].pc;
        if self.arrival_at(pc).is_none() {
            if let Some(Instr::Ld(rd, ..)) = self.program.fetch(pc) {
                set(&mut st.cores[c], rd, 0);
            }
            st.cores[c].pc = pc + INSTR_BYTES;
            return Ok(());
        }
        let mut steps = 0;
        while st.cores[c].status == Status::Running && self.arrival_at(st.cores[c].pc).is_some() {
            steps += 1;
            if steps > 2 * (LINE_BYTES / INSTR_BYTES) {
                return Err(Viol::new(
                    rules::MC_LOST_WAKEUP,
                    Some(st.cores[c].pc),
                    format!("t{c}: arrival stub never leaves its line"),
                ));
            }
            self.exec_local(st, c)?;
        }
        Ok(())
    }

    /// One episode completed: run the return-time property checks, then
    /// re-enter the routine or retire the core.
    fn episode_return(&self, st: &mut McState, c: usize) -> Result<(), Viol> {
        let completed = st.cores[c].completed + 1;
        st.cores[c].completed = completed;
        let sense = self
            .spec
            .tls_offset
            .and_then(|off| st.cores[c].tls.get(off as usize / 8).copied());
        let entered: Vec<(usize, u32)> = st
            .cores
            .iter()
            .enumerate()
            .map(|(i, co)| (i, co.entered))
            .collect();
        if let Some(v) = props::check_return(self.spec, c, completed, sense, entered.into_iter()) {
            return Err(v);
        }
        if completed == self.episodes {
            st.cores[c].status = Status::Done;
        } else {
            st.cores[c].entered += 1;
            st.cores[c].pc = self.entry;
            set(&mut st.cores[c], Reg::RA, SENTINEL);
        }
        Ok(())
    }

    /// Advance core `c` through its core-local segment until it stops at
    /// the next visible operation, returns, or retires.
    fn run_local(&self, st: &mut McState, c: usize) -> Result<(), Viol> {
        let mut steps = 0;
        loop {
            if st.cores[c].status != Status::Running {
                return Ok(());
            }
            if st.cores[c].pc == SENTINEL {
                self.episode_return(st, c)?;
                continue;
            }
            if self.visible_at(st, c)?.is_some() {
                return Ok(());
            }
            steps += 1;
            if steps > LOCAL_CAP {
                return Err(Viol::new(
                    rules::MC_LOST_WAKEUP,
                    Some(st.cores[c].pc),
                    format!(
                        "t{c}: executed {LOCAL_CAP} straight-line instructions without reaching \
                         a synchronization operation — the routine loops without synchronizing"
                    ),
                ));
            }
            self.exec_local(st, c)?;
        }
    }

    /// Write `val` to a sync word, normalizing zeros away (so states
    /// compare equal regardless of write history) and breaking other
    /// cores' LL reservations on the line.
    fn write_word(&self, st: &mut McState, c: usize, addr: u64, val: u64) {
        if val == 0 {
            st.mem.remove(&addr);
        } else {
            st.mem.insert(addr, val);
        }
        let line = line_of(addr);
        for (j, core) in st.cores.iter_mut().enumerate() {
            if j != c && core.link == Some(line) {
                core.link = None;
            }
        }
    }

    /// Open table `t`: the last thread arrived, so every slot moves
    /// Blocking → Servicing and every parked fill is serviced (wake).
    fn open_table(&self, st: &mut McState, t: usize) -> Result<(), Viol> {
        for s in 0..st.tables[t].slots.len() {
            st.tables[t].slots[s] = ThreadState::Servicing;
        }
        let masks: Vec<u8> = st.tables[t].parked.clone();
        for s in 0..masks.len() {
            st.tables[t].parked[s] = 0;
        }
        for mask in masks.iter() {
            for c in 0..self.ncores {
                if mask & (1 << c) != 0 {
                    st.cores[c].status = Status::Running;
                    self.complete_fill(st, c)?;
                    self.run_local(st, c)?;
                }
            }
        }
        Ok(())
    }

    /// Dispatch an invalidate of `line` to every table it belongs to (a
    /// ping-pong line is one table's arrival and the other's exit).
    fn dispatch_inval(&self, st: &mut McState, c: usize, line: u64, pc: u64) -> Result<(), Viol> {
        for (t, cfg) in self.tables.iter().enumerate() {
            if line >= cfg.arrival.0 && line < cfg.arrival.1 {
                let s = ((line - cfg.arrival.0) / LINE_BYTES) as usize;
                match fsm::step(st.tables[t].slots[s], FsmEvent::ArrivalInvalidate) {
                    Ok(FsmAction::Transition(ns)) => {
                        st.tables[t].slots[s] = ns;
                        if st.tables[t]
                            .slots
                            .iter()
                            .all(|&x| x == ThreadState::Blocking)
                        {
                            self.open_table(st, t)?;
                        }
                    }
                    Ok(_) => {}
                    Err(v) => return Err(props::fsm_violation(&v, c, pc)),
                }
            }
            if let Some((lo, hi)) = cfg.exit {
                if line >= lo && line < hi {
                    let s = ((line - lo) / LINE_BYTES) as usize;
                    match fsm::step(st.tables[t].slots[s], FsmEvent::ExitInvalidate) {
                        Ok(FsmAction::Transition(ns)) => st.tables[t].slots[s] = ns,
                        Ok(_) => {}
                        Err(v) => return Err(props::fsm_violation(&v, c, pc)),
                    }
                }
            }
        }
        Ok(())
    }

    /// Execute core `c`'s visible operation, yielding one successor per
    /// nondeterministic resolution (two when a stale prefetched copy may
    /// satisfy the fetch).
    fn successors(&self, st: &McState, c: usize) -> Vec<(Act, Result<McState, Viol>)> {
        let pc = st.cores[c].pc;
        let act = |tag| Act {
            core: c as u8,
            pc,
            tag,
        };
        let op = match self.visible_at(st, c) {
            Ok(Some(op)) => op,
            Ok(None) => {
                // Defensive: re-settle the core (cannot happen while the
                // every-running-core-is-at-a-visible-op invariant holds).
                let mut s2 = st.clone();
                let r = self.run_local(&mut s2, c).map(|()| s2);
                return vec![(act(ActTag::Op), r)];
            }
            Err(v) => return vec![(act(ActTag::Op), Err(v))],
        };
        let mut out = Vec::new();
        match op {
            Visible::Fill { line } => {
                if st.cores[c].stale == Some(line) {
                    // The prefetched copy from before the invalidate may
                    // satisfy the fetch: the core sails through without the
                    // filter ever seeing the fill.
                    let mut s2 = st.clone();
                    s2.cores[c].stale = None;
                    let r = self
                        .complete_fill(&mut s2, c)
                        .and_then(|()| self.run_local(&mut s2, c))
                        .map(|()| s2);
                    out.push((act(ActTag::StaleBypass), r));
                }
                let mut s2 = st.clone();
                s2.cores[c].stale = None;
                let r = match self.arrival_at(line) {
                    Some((t, s)) => match fsm::step(s2.tables[t].slots[s], FsmEvent::ArrivalFill) {
                        Ok(FsmAction::Park) => {
                            s2.tables[t].parked[s] |= 1 << c;
                            s2.cores[c].status = Status::Parked {
                                table: t as u8,
                                slot: s as u8,
                            };
                            Ok(s2)
                        }
                        Ok(_) => self
                            .complete_fill(&mut s2, c)
                            .and_then(|()| self.run_local(&mut s2, c))
                            .map(|()| s2),
                        Err(v) => Err(props::fsm_violation(&v, c, pc)),
                    },
                    None => self
                        .complete_fill(&mut s2, c)
                        .and_then(|()| self.run_local(&mut s2, c))
                        .map(|()| s2),
                };
                out.push((act(ActTag::Op), r));
            }
            Visible::Read { addr, rd, ll } => {
                let mut s2 = st.clone();
                let v = s2.mem.get(&addr).copied().unwrap_or(0);
                set(&mut s2.cores[c], rd, v);
                if ll {
                    s2.cores[c].link = Some(line_of(addr));
                }
                s2.cores[c].pc = pc + INSTR_BYTES;
                let r = self.run_local(&mut s2, c).map(|()| s2);
                out.push((act(ActTag::Op), r));
            }
            Visible::Write { addr, src } => {
                let mut s2 = st.clone();
                let v = get(&s2.cores[c], src);
                self.write_word(&mut s2, c, addr, v);
                s2.cores[c].pc = pc + INSTR_BYTES;
                let r = self.run_local(&mut s2, c).map(|()| s2);
                out.push((act(ActTag::Op), r));
            }
            Visible::Sc { addr, rd, src } => {
                let mut s2 = st.clone();
                let ok = s2.cores[c].link == Some(line_of(addr));
                s2.cores[c].link = None;
                if ok {
                    let v = get(&s2.cores[c], src);
                    self.write_word(&mut s2, c, addr, v);
                }
                set(&mut s2.cores[c], rd, u64::from(ok));
                s2.cores[c].pc = pc + INSTR_BYTES;
                let r = self.run_local(&mut s2, c).map(|()| s2);
                out.push((act(ActTag::Op), r));
            }
            Visible::Inval { line } => {
                let mut s2 = st.clone();
                if self.arrival_at(line).is_some() {
                    s2.cores[c].stale = Some(line);
                }
                // An invalidate writes back and drops the line everywhere,
                // breaking reservations on it.
                for core in s2.cores.iter_mut() {
                    if core.link == Some(line) {
                        core.link = None;
                    }
                }
                let r = self.dispatch_inval(&mut s2, c, line, pc).and_then(|()| {
                    s2.cores[c].pc = pc + INSTR_BYTES;
                    self.run_local(&mut s2, c)
                });
                out.push((act(ActTag::Op), r.map(|()| s2)));
            }
            Visible::Hw { id } => {
                if self.spec.hw_id != Some(id) {
                    let msg = match self.spec.hw_id {
                        Some(armed) => format!(
                            "t{c}: hwbar {id} fired but the barrier armed dedicated group {armed}"
                        ),
                        None => {
                            format!("t{c}: hwbar {id} fired but the barrier has no dedicated group")
                        }
                    };
                    out.push((
                        act(ActTag::Op),
                        Err(Viol::new(rules::MC_HW_PAIRING, Some(pc), msg)),
                    ));
                    return out;
                }
                let mut s2 = st.clone();
                s2.hw_arrived |= 1 << c;
                let all = (0..self.ncores).fold(0u8, |m, i| m | (1 << i));
                let r = if s2.hw_arrived == all {
                    // Fire: release every waiter (and the last arriver)
                    // simultaneously.
                    s2.hw_arrived = 0;
                    let mut r = Ok(());
                    for j in 0..self.ncores {
                        let release = j == c || s2.cores[j].status == Status::HwWait;
                        if release {
                            s2.cores[j].status = Status::Running;
                            s2.cores[j].pc += INSTR_BYTES;
                            r = r.and_then(|()| self.run_local(&mut s2, j));
                            if r.is_err() {
                                break;
                            }
                        }
                    }
                    r
                } else {
                    s2.cores[c].status = Status::HwWait;
                    Ok(())
                };
                out.push((act(ActTag::Op), r.map(|()| s2)));
            }
        }
        out
    }

    /// Inject the `SwitchOut`/`Migrate` fault on core `c`: reservations
    /// and prefetched state are lost, and a parked fill is cancelled —
    /// the core re-issues it when next scheduled (§3.3.3).
    fn apply_fault(&self, st: &McState, c: usize) -> McState {
        let mut s2 = st.clone();
        s2.faults_left -= 1;
        s2.cores[c].link = None;
        s2.cores[c].stale = None;
        if let Status::Parked { table, slot } = s2.cores[c].status {
            s2.tables[table as usize].parked[slot as usize] &= !(1 << c);
            s2.cores[c].status = Status::Running;
        }
        s2
    }

    /// Describe a stuck state: which cores are unfinished and what the
    /// protocol's counter and release words hold (via the spec's
    /// `episode_counter`/`wake_addrs` metadata).
    fn stuck_msg(&self, st: &McState, what: &str) -> String {
        let mut parts = Vec::new();
        for (c, core) in st.cores.iter().enumerate() {
            if core.completed < self.episodes {
                let how = match core.status {
                    Status::Running => "spinning",
                    Status::Parked { .. } => "parked on a fill",
                    Status::HwWait => "waiting on hwbar",
                    Status::Done => "halted",
                };
                parts.push(format!(
                    "t{c} {how} at {:#x} in episode {}",
                    core.pc, core.entered
                ));
            }
        }
        let mut msg = format!("{what}: {}", parts.join(", "));
        if let Some(addr) = self.spec.episode_counter {
            let v = st.mem.get(&addr).copied().unwrap_or(0);
            msg.push_str(&format!("; arrival counter @{addr:#x} = {v}"));
        }
        for &w in self.spec.wake_addrs.iter().take(4) {
            let v = st.mem.get(&w).copied().unwrap_or(0);
            msg.push_str(&format!("; release word @{w:#x} = {v}"));
        }
        msg
    }
}

/// One explored node: enough to reconstruct the schedule that reached it.
struct Node {
    parent: u32,
    act: Act,
    depth: u32,
}

fn path_to(nodes: &[Node], mut u: u32) -> Vec<Act> {
    let mut p = Vec::new();
    while u != 0 {
        p.push(nodes[u as usize].act);
        u = nodes[u as usize].parent;
    }
    p.reverse();
    p
}

/// Exhaustively explore every schedule of `spec.threads` cores running
/// the routine at `spec.entry` in `program` for [`McConfig::episodes`]
/// consecutive episodes, and report the counterexamples found.
///
/// # Panics
///
/// Panics if `spec.threads` is 0 or above 8 (the abstract machine packs
/// core sets into byte masks; the checker is built for small instances).
pub fn model_check(program: &Program, spec: &ProtocolSpec, cfg: &McConfig) -> McReport {
    assert!(
        (1..=8).contains(&spec.threads),
        "model checker instances are bounded to 1-8 cores"
    );
    let mut report = McReport {
        states: 0,
        transitions: 0,
        truncated: false,
        diagnostics: Vec::new(),
    };
    let Some(entry) = program.symbol(&spec.entry) else {
        report.diagnostics.push(Diagnostic::global(
            Severity::Error,
            rules::BARRIER_ENTRY,
            format!("barrier entry label `{}` is not in the program", spec.entry),
        ));
        return report;
    };
    let machine = Machine {
        program,
        spec,
        entry,
        episodes: cfg.episodes.max(1),
        ncores: spec.threads,
        tables: derive_tables(spec),
    };
    let mut sink = PropSink::default();
    let mut init = machine.initial_state();
    init.faults_left = u8::from(cfg.fault);
    for c in 0..machine.ncores {
        if let Err(v) = machine.run_local(&mut init, c) {
            sink.report(program, v, &[]);
        }
    }
    if sink.any() {
        report.states = 1;
        report.diagnostics = sink.into_diags();
        return report;
    }

    let mut nodes = vec![Node {
        parent: u32::MAX,
        act: Act {
            core: 0,
            pc: 0,
            tag: ActTag::Op,
        },
        depth: 0,
    }];
    let mut visited: HashMap<McState, u32> = HashMap::new();
    visited.insert(init.clone(), 0);
    let mut queue: VecDeque<(McState, u32)> = VecDeque::new();
    queue.push_back((init, 0));
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut complete: Vec<u32> = Vec::new();

    'explore: while let Some((st, u)) = queue.pop_front() {
        if st.cores.iter().all(|co| co.completed >= machine.episodes) {
            complete.push(u);
            continue;
        }
        let mut moves = Vec::new();
        for (c, core) in st.cores.iter().enumerate() {
            if core.status == Status::Running {
                moves.push(Act {
                    core: c as u8,
                    pc: core.pc,
                    tag: ActTag::Op,
                });
            }
        }
        if st.faults_left > 0 {
            for (c, core) in st.cores.iter().enumerate() {
                if matches!(core.status, Status::Running | Status::Parked { .. }) {
                    moves.push(Act {
                        core: c as u8,
                        pc: core.pc,
                        tag: ActTag::Fault,
                    });
                }
            }
        }
        if moves.is_empty() {
            let v = Viol::new(
                rules::MC_DEADLOCK,
                None,
                machine.stuck_msg(&st, "no thread can take a step"),
            );
            sink.report(program, v, &path_to(&nodes, u));
            continue;
        }
        for act in moves {
            let succs = match act.tag {
                ActTag::Fault => vec![(act, Ok(machine.apply_fault(&st, act.core as usize)))],
                _ => machine.successors(&st, act.core as usize),
            };
            for (act2, res) in succs {
                report.transitions += 1;
                match res {
                    Err(v) => {
                        let mut p = path_to(&nodes, u);
                        p.push(act2);
                        sink.report(program, v, &p);
                    }
                    Ok(s2) => {
                        if let Some(&v) = visited.get(&s2) {
                            edges.push((u, v));
                        } else {
                            if nodes.len() >= cfg.max_states {
                                report.truncated = true;
                                break 'explore;
                            }
                            let v = nodes.len() as u32;
                            nodes.push(Node {
                                parent: u,
                                act: act2,
                                depth: nodes[u as usize].depth + 1,
                            });
                            visited.insert(s2.clone(), v);
                            edges.push((u, v));
                            queue.push_back((s2, v));
                        }
                    }
                }
            }
        }
    }
    report.states = nodes.len() as u64;

    // Lost-wakeup pass: over the fully explored graph, find states from
    // which no completion state is reachable. Only meaningful when the
    // graph is complete (not truncated) and no earlier violation pruned
    // branches.
    if !report.truncated && !sink.any() {
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); nodes.len()];
        for &(a, b) in &edges {
            rev[b as usize].push(a);
        }
        let mut can = vec![false; nodes.len()];
        let mut bfs: VecDeque<u32> = complete.iter().copied().collect();
        for &u in &complete {
            can[u as usize] = true;
        }
        while let Some(u) = bfs.pop_front() {
            for &p in &rev[u as usize] {
                if !can[p as usize] {
                    can[p as usize] = true;
                    bfs.push_back(p);
                }
            }
        }
        let stuck = (0..nodes.len())
            .filter(|&u| !can[u])
            .min_by_key(|&u| nodes[u].depth);
        if let Some(u) = stuck {
            let state = visited
                .iter()
                .find(|&(_, &v)| v == u as u32)
                .map(|(s, _)| s.clone())
                .expect("every node has a stored state");
            let v = Viol::new(
                rules::MC_LOST_WAKEUP,
                None,
                machine.stuck_msg(&state, "no schedule from this state completes the barrier"),
            );
            sink.report(program, v, &path_to(&nodes, u as u32));
        }
    }
    report.diagnostics = sink.into_diags();
    report
}
