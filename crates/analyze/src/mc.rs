//! Bounded model checker for barrier protocols: exhaustive interleaving
//! exploration of the *actual emitted* MiniRISC barrier routine.
//!
//! The checker runs a small instance (2–4 cores, 2 consecutive episodes)
//! of one barrier on an abstract sync-memory machine. Only the state the
//! protocol can observe is tracked: the 64-bit words of the registered
//! [`ProtocolSpec::regions`], the per-core TLS sense slots, LL/SC
//! reservations (broken, as in the engine, by any store or `dcbi` to the
//! line, and by nothing else), the barrier's own filter tables
//! ([`ProtocolSpec::tables`], each a [`barrier_filter::FilterTable`] whose
//! parked fills are the sleep/wake transitions of §3.2), and the
//! dedicated-network arrival set. Everything else a routine does is
//! core-local and deterministic, so cores only interleave at *visible*
//! operations: sync-region accesses, arrival-line invalidates and fills,
//! and `hwbar`.
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
//! Each visited state is stored once, as a canonical packed key (fields
//! in a fixed order, words as varints, sync words in address order, two
//! bytes per filter-table entry) in a node-indexed `StateStore` behind an
//! Fx-hashed open-addressing index. Two keys are equal exactly when their
//! states are, so packing changes no node number, schedule or count. The
//! breadth-first frontier is the range of node ids not yet expanded, and
//! a node's state is decoded from its key when it is expanded.
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

use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};

use barrier_filter::{FilterTable, ProtocolSpec, TableFill, ThreadState};
use cmp_sim::{FxHasher, ParkToken};
use sim_isa::{line_of, Instr, Program, Reg, INSTR_BYTES, LINE_BYTES};

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
    /// Fill parked in filter table `table` (asleep).
    Parked { table: u8 },
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

/// One filter table of the abstract machine. Its state is its entries:
/// the table's counters stay out of state identity, as episode counters
/// stay out of `MachineStats::digest`.
#[derive(Debug, Clone)]
struct Filter(FilterTable);

impl PartialEq for Filter {
    fn eq(&self, other: &Filter) -> bool {
        self.0.entries().eq(other.0.entries())
    }
}

impl Eq for Filter {}

impl Hash for Filter {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.0.entries().for_each(|e| e.hash(h));
    }
}

/// One abstract machine state: everything the protocol can observe.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct McState {
    cores: Vec<Core>,
    /// Sync-region words (8-byte aligned; absent means 0).
    mem: BTreeMap<u64, u64>,
    /// One table per [`ProtocolSpec::tables`] entry, in that order.
    tables: Vec<Filter>,
    /// Cores arrived at the dedicated-network barrier.
    hw_arrived: u8,
    /// Remaining fault injections.
    faults_left: u8,
}

impl McState {
    /// The table whose arrival range holds `addr`.
    fn arrival_table(&self, addr: u64) -> Option<usize> {
        let line = line_of(addr);
        self.tables
            .iter()
            .position(|t| t.0.arrival_thread(line).is_some())
    }

    /// Break every LL reservation on `line`, as any store to it does.
    fn clear_links(&mut self, line: u64) {
        for core in &mut self.cores {
            if core.link == Some(line) {
                core.link = None;
            }
        }
    }

    /// Write `val` to a sync word, normalizing zeros away (so states
    /// compare equal regardless of write history) and breaking every LL
    /// reservation on the line, the writer's own included.
    fn write_word(&mut self, addr: u64, val: u64) {
        if val == 0 {
            self.mem.remove(&addr);
        } else {
            self.mem.insert(addr, val);
        }
        self.clear_links(line_of(addr));
    }

    /// The moves enabled here: each running core's visible operation,
    /// then, while a fault is left, a fault on each running or parked
    /// core.
    fn moves(&self) -> Vec<Act> {
        let mut moves = Vec::new();
        for (c, core) in self.cores.iter().enumerate() {
            if core.status == Status::Running {
                moves.push(Act {
                    core: c as u8,
                    pc: core.pc,
                    tag: ActTag::Op,
                });
            }
        }
        if self.faults_left > 0 {
            for (c, core) in self.cores.iter().enumerate() {
                if matches!(core.status, Status::Running | Status::Parked { .. }) {
                    moves.push(Act {
                        core: c as u8,
                        pc: core.pc,
                        tag: ActTag::Fault,
                    });
                }
            }
        }
        moves
    }

    /// Write this state's canonical packed key into `out` (cleared
    /// first): per core its pc, tracked registers, TLS words, stale and
    /// link lines and episode counts as varints, then its status and
    /// option flags; then the sync-word count and words in address order;
    /// then each table entry's state byte and parked-core byte (`0xff` for
    /// none); then the arrival and fault bytes. Within one exploration the
    /// core count and table sizes are fixed, so [`Machine::decode`]
    /// inverts this exactly.
    fn encode(&self, out: &mut Vec<u8>) {
        out.clear();
        for core in &self.cores {
            put_varint(out, core.pc);
            for &w in core.regs.iter().chain(&core.tls) {
                put_varint(out, w);
            }
            put_varint(out, core.stale.unwrap_or(0));
            put_varint(out, core.link.unwrap_or(0));
            put_varint(out, u64::from(core.entered));
            put_varint(out, u64::from(core.completed));
            let (tag, table) = match core.status {
                Status::Running => (0, 0),
                Status::Parked { table } => (1, table),
                Status::HwWait => (2, 0),
                Status::Done => (3, 0),
            };
            let some = u8::from(core.stale.is_some()) | u8::from(core.link.is_some()) << 1;
            out.extend_from_slice(&[tag, table, some]);
        }
        put_varint(out, self.mem.len() as u64);
        for (&addr, &val) in &self.mem {
            put_varint(out, addr);
            put_varint(out, val);
        }
        for (state, token) in self.tables.iter().flat_map(|t| t.0.entries()) {
            let state = match state {
                ThreadState::Waiting => 0,
                ThreadState::Blocking => 1,
                ThreadState::Servicing => 2,
            };
            out.extend_from_slice(&[state, token.map_or(0xff, |ParkToken(c)| c as u8)]);
        }
        out.extend_from_slice(&[self.hw_arrived, self.faults_left]);
    }
}

/// Append `v` as a LEB128 varint: seven bits a byte, low bits first, in
/// as few bytes as it takes, so each value has exactly one encoding.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads a packed key front to back.
struct KeyReader<'k>(&'k [u8]);

impl KeyReader<'_> {
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let (head, rest) = self.0.split_at(N);
        self.0 = rest;
        head.try_into().expect("split at N")
    }

    fn u8(&mut self) -> u8 {
        self.take::<1>()[0]
    }

    fn varint(&mut self) -> u64 {
        let mut v = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                break;
            }
        }
        v
    }
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
    /// `dcbi` (`icache` false) or `icbi` of a line inside a sync region.
    Inval { line: u64, icache: bool },
    /// Dedicated-network barrier.
    Hw { id: u16 },
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
}

impl<'a> Machine<'a> {
    /// The state whose packed key is `key` ([`McState::encode`]'s
    /// inverse for this exploration's core count and tables).
    fn decode(&self, key: &[u8]) -> McState {
        let mut r = KeyReader(key);
        let cores = (0..self.ncores)
            .map(|_| {
                let pc = r.varint();
                let mut regs = [0; TRACKED.len()];
                regs.iter_mut().for_each(|w| *w = r.varint());
                let mut tls = [0; (TLS_BYTES / 8) as usize];
                tls.iter_mut().for_each(|w| *w = r.varint());
                let (stale, link) = (r.varint(), r.varint());
                let (entered, completed) = (r.varint() as u32, r.varint() as u32);
                let [tag, table, some] = r.take();
                Core {
                    pc,
                    regs,
                    tls,
                    status: match tag {
                        0 => Status::Running,
                        1 => Status::Parked { table },
                        2 => Status::HwWait,
                        _ => Status::Done,
                    },
                    entered,
                    completed,
                    stale: (some & 1 != 0).then_some(stale),
                    link: (some & 2 != 0).then_some(link),
                }
            })
            .collect();
        let words = r.varint();
        let mem = (0..words).map(|_| (r.varint(), r.varint())).collect();
        let tables = self
            .spec
            .tables
            .iter()
            .map(|cfg| {
                let entries = (0..cfg.num_threads).map(|_| {
                    let [state, core] = r.take();
                    let state = match state {
                        0 => ThreadState::Waiting,
                        1 => ThreadState::Blocking,
                        _ => ThreadState::Servicing,
                    };
                    (state, (core != 0xff).then_some(ParkToken(u64::from(core))))
                });
                Filter(FilterTable::with_entries(cfg.clone(), entries))
            })
            .collect();
        let [hw_arrived, faults_left] = r.take();
        debug_assert!(r.0.is_empty(), "a key decodes to its end");
        McState {
            cores,
            mem,
            tables,
            hw_arrived,
            faults_left,
        }
    }

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
                .spec
                .tables
                .iter()
                .map(|cfg| Filter(FilterTable::new(cfg.clone())))
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

    /// Classify the operation core `c` is stopped at; `None` means the
    /// current instruction is core-local.
    fn visible_at(&self, st: &McState, c: usize) -> Result<Option<Visible>, Viol> {
        let core = &st.cores[c];
        let pc = core.pc;
        if st.arrival_table(pc).is_some() {
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
                } else if st.arrival_table(ea).is_some() {
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
                let icache = matches!(i, Instr::Icbi(..));
                self.spec
                    .is_sync_addr(line)
                    .then_some(Visible::Inval { line, icache })
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
                st.clear_links(line_of(ea));
            }
            Instr::Ll(rd, base, off) => {
                let ea = get(core, base).wrapping_add(off as u64);
                core.link = Some(line_of(ea));
                set(&mut st.cores[c], rd, 0);
            }
            Instr::Sc(rd, _, base, off) => {
                let line = line_of(get(core, base).wrapping_add(off as u64));
                let ok = core.link == Some(line);
                set(core, rd, u64::from(ok));
                if ok {
                    st.clear_links(line);
                }
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
        if st.arrival_table(pc).is_none() {
            if let Some(Instr::Ld(rd, ..)) = self.program.fetch(pc) {
                set(&mut st.cores[c], rd, 0);
            }
            st.cores[c].pc = pc + INSTR_BYTES;
            return Ok(());
        }
        let mut steps = 0;
        while st.cores[c].status == Status::Running && st.arrival_table(st.cores[c].pc).is_some() {
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

    /// Deliver an invalidate of `line` to every table in order, as the bank
    /// does (a ping-pong line is one table's arrival and the other's exit),
    /// and wake the fills each table releases, in its order.
    fn dispatch_inval(&self, st: &mut McState, c: usize, line: u64, pc: u64) -> Result<(), Viol> {
        for t in 0..st.tables.len() {
            let opened = st.tables[t]
                .0
                .on_invalidate(line)
                .map_err(|v| props::fsm_violation(&v, c, pc))?;
            for ParkToken(w) in opened.released {
                let w = w as usize;
                st.cores[w].status = Status::Running;
                self.complete_fill(st, w)?;
                self.run_local(st, w)?;
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
                let table = s2.arrival_table(line).expect("fills are of arrival lines");
                let r = match s2.tables[table].0.on_fill(line, ParkToken(c as u64), 0) {
                    Ok(TableFill::Park) => {
                        s2.cores[c].status = Status::Parked { table: table as u8 };
                        Ok(s2)
                    }
                    Ok(_) => self
                        .complete_fill(&mut s2, c)
                        .and_then(|()| self.run_local(&mut s2, c))
                        .map(|()| s2),
                    Err(v) => Err(props::fsm_violation(&v, c, pc)),
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
                s2.write_word(addr, v);
                s2.cores[c].pc = pc + INSTR_BYTES;
                let r = self.run_local(&mut s2, c).map(|()| s2);
                out.push((act(ActTag::Op), r));
            }
            Visible::Sc { addr, rd, src } => {
                // A failed `sc` leaves the reservation as it was.
                let mut s2 = st.clone();
                let ok = s2.cores[c].link == Some(line_of(addr));
                if ok {
                    let v = get(&s2.cores[c], src);
                    s2.write_word(addr, v);
                }
                set(&mut s2.cores[c], rd, u64::from(ok));
                s2.cores[c].pc = pc + INSTR_BYTES;
                let r = self.run_local(&mut s2, c).map(|()| s2);
                out.push((act(ActTag::Op), r));
            }
            Visible::Inval { line, icache } => {
                let mut s2 = st.clone();
                if s2.arrival_table(line).is_some() {
                    s2.cores[c].stale = Some(line);
                }
                // A `dcbi` drops the line's data copies everywhere, breaking
                // reservations on it; an `icbi` drops no data copy.
                if !icache {
                    s2.clear_links(line);
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

    /// Take move `act` (from [`McState::moves`]) in `st`, yielding its
    /// successors.
    fn take(&self, st: &McState, act: Act) -> Vec<(Act, Result<McState, Viol>)> {
        match act.tag {
            ActTag::Fault => vec![(act, Ok(self.apply_fault(st, act.core as usize)))],
            _ => self.successors(st, act.core as usize),
        }
    }

    /// Inject the `SwitchOut`/`Migrate` fault on core `c`: reservations
    /// and prefetched state are lost, and a parked fill is cancelled —
    /// the core re-issues it when next scheduled (§3.3.3).
    fn apply_fault(&self, st: &McState, c: usize) -> McState {
        let mut s2 = st.clone();
        s2.faults_left -= 1;
        s2.cores[c].link = None;
        s2.cores[c].stale = None;
        if let Status::Parked { table } = s2.cores[c].status {
            s2.tables[table as usize].0.cancel(ParkToken(c as u64));
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

/// Every explored state's packed key, numbered by node: node `u`'s key
/// is `bytes[ends[u - 1]..ends[u]]` (from 0 for node 0). An
/// open-addressing index over the keys' [`FxHasher`] hashes finds a
/// key's node.
struct StateStore {
    bytes: Vec<u8>,
    ends: Vec<usize>,
    hashes: Vec<u64>,
    /// Node ids by hash slot ([`StateStore::FREE`] when free): a power of
    /// two long and at most half full, probed linearly from the slot the
    /// hash's top bits pick.
    slots: Vec<u32>,
}

/// Where a key stands in a [`StateStore`].
enum Probe {
    /// Stored as this node.
    Seen(u32),
    /// Not stored; [`StateStore::insert`] it at `slot`.
    New { slot: usize, hash: u64 },
}

impl StateStore {
    const FREE: u32 = u32::MAX;

    fn new() -> StateStore {
        StateStore {
            bytes: Vec::new(),
            ends: Vec::new(),
            hashes: Vec::new(),
            slots: vec![Self::FREE; 1 << 10],
        }
    }

    fn key(&self, u: u32) -> &[u8] {
        let u = u as usize;
        let start = if u == 0 { 0 } else { self.ends[u - 1] };
        &self.bytes[start..self.ends[u]]
    }

    /// The slot `hash` starts probing from in a table of `len` slots.
    fn home(hash: u64, len: usize) -> usize {
        (hash >> (64 - len.trailing_zeros())) as usize
    }

    fn probe(&self, key: &[u8]) -> Probe {
        let mut h = FxHasher::default();
        h.write(key);
        let hash = h.finish();
        let mask = self.slots.len() - 1;
        let mut i = Self::home(hash, self.slots.len());
        loop {
            match self.slots[i] {
                Self::FREE => return Probe::New { slot: i, hash },
                u if self.hashes[u as usize] == hash && self.key(u) == key => {
                    return Probe::Seen(u)
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Store `key` as the next node, at the free `slot` [`Self::probe`]
    /// found for it.
    fn insert(&mut self, key: &[u8], slot: usize, hash: u64) -> u32 {
        let u = self.ends.len() as u32;
        self.bytes.extend_from_slice(key);
        self.ends.push(self.bytes.len());
        self.hashes.push(hash);
        self.slots[slot] = u;
        if 2 * self.ends.len() > self.slots.len() {
            let mut slots = vec![Self::FREE; 2 * self.slots.len()];
            let mask = slots.len() - 1;
            for (v, &h) in self.hashes.iter().enumerate() {
                let mut i = Self::home(h, slots.len());
                while slots[i] != Self::FREE {
                    i = (i + 1) & mask;
                }
                slots[i] = v as u32;
            }
            self.slots = slots;
        }
        u
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
/// the dedicated-network arrival set into a byte mask and core indices
/// into bytes; the checker is built for small instances).
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
    let mut store = StateStore::new();
    let mut key = Vec::new();
    init.encode(&mut key);
    if let Probe::New { slot, hash } = store.probe(&key) {
        store.insert(&key, slot, hash);
    }
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut complete: Vec<u32> = Vec::new();

    // Nodes are numbered in discovery order, so the breadth-first queue
    // is the range of node ids from `next` on.
    let mut next = 0;
    'explore: while next < nodes.len() {
        let u = next as u32;
        next += 1;
        let st = machine.decode(store.key(u));
        if st.cores.iter().all(|co| co.completed >= machine.episodes) {
            complete.push(u);
            continue;
        }
        let moves = st.moves();
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
            for (act2, res) in machine.take(&st, act) {
                report.transitions += 1;
                match res {
                    Err(v) => {
                        let mut p = path_to(&nodes, u);
                        p.push(act2);
                        sink.report(program, v, &p);
                    }
                    Ok(s2) => {
                        s2.encode(&mut key);
                        match store.probe(&key) {
                            Probe::Seen(v) => edges.push((u, v)),
                            Probe::New { slot, hash } => {
                                if nodes.len() >= cfg.max_states {
                                    report.truncated = true;
                                    break 'explore;
                                }
                                let v = store.insert(&key, slot, hash);
                                nodes.push(Node {
                                    parent: u,
                                    act: act2,
                                    depth: nodes[u as usize].depth + 1,
                                });
                                edges.push((u, v));
                            }
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
            let state = machine.decode(store.key(u as u32));
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

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use barrier_filter::{BarrierMechanism, BarrierSystem};
    use cmp_sim::{AddressSpace, SimConfig};
    use sim_isa::Asm;

    use super::*;

    /// `mechanism`'s routine at `cores` cores, emitted as the verify grid
    /// emits it.
    fn emitted(mechanism: BarrierMechanism, cores: usize) -> (Program, ProtocolSpec) {
        let config = SimConfig::with_cores(cores);
        let mut space = AddressSpace::new(&config);
        let mut asm = Asm::new();
        let mut sys = BarrierSystem::new(&config, cores, &mut space).unwrap();
        let barrier = sys
            .create_barrier(&mut asm, &mut space, mechanism, cores)
            .unwrap();
        asm.label("entry").unwrap();
        barrier.emit_call(&mut asm);
        asm.halt();
        (asm.assemble().unwrap(), barrier.protocol().clone())
    }

    #[test]
    fn packed_keys_round_trip_and_separate_every_reached_state() {
        // Filter tables and parked fills, sync words and reservations, the
        // dedicated network: one faulted 3-core cell each.
        for mechanism in [
            BarrierMechanism::FilterD,
            BarrierMechanism::SwCentral,
            BarrierMechanism::HwDedicated,
        ] {
            let (program, spec) = emitted(mechanism, 3);
            let cfg = McConfig {
                fault: true,
                ..McConfig::default()
            };
            let machine = Machine {
                program: &program,
                spec: &spec,
                entry: program.symbol(&spec.entry).unwrap(),
                episodes: cfg.episodes,
                ncores: spec.threads,
            };
            let mut init = machine.initial_state();
            init.faults_left = 1;
            for c in 0..machine.ncores {
                assert!(machine.run_local(&mut init, c).is_ok());
            }

            // Every reachable state, deduplicated by whole-state equality.
            let mut reached = HashSet::from([init.clone()]);
            let mut todo = vec![init];
            let mut transitions = 0;
            while let Some(st) = todo.pop() {
                if st.cores.iter().all(|co| co.completed >= machine.episodes) {
                    continue;
                }
                for act in st.moves() {
                    for (_, res) in machine.take(&st, act) {
                        transitions += 1;
                        let s2 = res.unwrap_or_else(|v| panic!("{}: {}", v.rule, v.msg));
                        if reached.insert(s2.clone()) {
                            todo.push(s2);
                        }
                    }
                }
            }
            let report = model_check(&program, &spec, &cfg);
            assert!(report.clean() && !report.truncated, "{mechanism}");
            assert_eq!(
                (reached.len() as u64, transitions),
                (report.states, report.transitions),
                "{mechanism}"
            );

            let mut keys = HashSet::new();
            let mut key = Vec::new();
            for st in &reached {
                st.encode(&mut key);
                assert_eq!(machine.decode(&key), *st, "{mechanism}");
                keys.insert(key.clone());
            }
            assert_eq!(keys.len(), reached.len(), "{mechanism}: distinct keys");
        }
    }
}
