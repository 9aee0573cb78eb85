//! Architectural and microarchitectural state of one core.

use std::collections::VecDeque;

use sim_isa::{FReg, MemWidth, Reg};

/// What a blocked core will do when its outstanding fill completes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Continuation {
    /// An integer load: write the loaded value (or the error sentinel) to
    /// `rd`, optionally setting the LL link register.
    Load {
        rd: Reg,
        addr: u64,
        width: MemWidth,
        set_link: bool,
    },
    /// A floating-point load.
    FLoad { fd: FReg, addr: u64 },
    /// An instruction fetch: retry execution at the same pc (the line is in
    /// the L1I once the fill completes).
    IFetch,
    /// A store-conditional awaiting its exclusive-ownership round trip.
    /// Success is decided at completion: if the link survived until then,
    /// the store commits and `rd` receives 1, else `rd` receives 0.
    Sc { rd: Reg, src: u64, addr: u64 },
}

/// Why a core is not executing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Waiting {
    /// Runnable (a `CoreReady` event is pending or the core is halted).
    None,
    /// Blocked on an outstanding fill (possibly parked at a barrier filter).
    Fill {
        line: u64,
        cont: Continuation,
        /// True while the fill is parked at a bank hook.
        parked: bool,
    },
    /// `sync` waiting for the store buffer to drain; `residual` cycles of
    /// fence cost remain after the last store retires.
    Fence { residual: u64 },
    /// Stalled at the dedicated barrier network.
    HwBar,
    /// A store found the store buffer full; the instruction re-executes when
    /// a slot frees.
    StoreSlot,
    /// The OS context-switched this thread out while its barrier fill was
    /// parked (§3.3.3 model). `Machine::resume_thread` re-issues the fill.
    SwitchedOut { cont: Continuation, line: u64 },
}

/// Per-core retirement counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Data loads executed (including `ll`).
    pub loads: u64,
    /// Stores executed (including successful `sc`).
    pub stores: u64,
    /// `icbi`/`dcbi` instructions executed.
    pub invalidates: u64,
    /// Fills that were parked at a bank hook.
    pub fills_parked: u64,
    /// Parked fills later released with data (not errored). Not part of
    /// [`MachineStats::digest`](crate::MachineStats::digest).
    pub fills_released: u64,
    /// Cycle at which the core executed `halt`, if it has.
    pub halt_cycle: Option<u64>,
    /// Peak simultaneous MSHR occupancy observed.
    pub mshr_peak: usize,
}

/// One core: architectural registers plus the blocking state the engine
/// tracks for it.
///
/// `repr(C)` with the per-step scalars (`pc`, flags, fetch window, issue
/// accumulator) declared first: every instruction the
/// engine steps touches exactly these, and clustering them keeps a step to
/// a couple of host cache lines instead of scattering hot fields between
/// the 512-byte register arrays. Purely a host-side layout choice.
#[derive(Debug)]
#[repr(C)]
pub(crate) struct Core {
    pub pc: u64,
    pub halted: bool,
    /// Whether a `StoreRetire` event is in flight for the buffer head.
    pub draining: bool,
    /// Fetch fast path: pcs in `ifetch_lo..ifetch_hi` (the bounds of the
    /// I-cache line the previous instruction decoded from) skip the L1I
    /// lookup. `(1, 0)` — an empty window — means no line is cached;
    /// `isync` and `icbi` broadcasts reset to it. When valid, `ifetch_lo`
    /// is the (64-byte-aligned) line address itself.
    pub ifetch_lo: u64,
    pub ifetch_hi: u64,
    /// Fractional-cycle accumulator (twelfths) for superscalar issue.
    pub issue_frac: u64,
    pub waiting: Waiting,
    pub stats: CoreStats,
    pub regs: [u64; Reg::COUNT],
    pub fregs: [f64; FReg::COUNT],
    /// LL reservation: the line address of a valid load-linked, if any.
    pub link: Option<u64>,
    /// Lines of committed-but-undrained stores, oldest first.
    pub store_buffer: VecDeque<u64>,
    /// Outstanding misses (loads, store drains, parked fills).
    pub mshr_used: usize,
}

impl Core {
    pub fn new() -> Core {
        Core {
            regs: [0; Reg::COUNT],
            fregs: [0.0; FReg::COUNT],
            pc: 0,
            halted: true,
            link: None,
            store_buffer: VecDeque::new(),
            draining: false,
            waiting: Waiting::None,
            ifetch_lo: 1,
            ifetch_hi: 0,
            mshr_used: 0,
            issue_frac: 0,
            stats: CoreStats::default(),
        }
    }

    /// Read an integer register (x0 reads zero).
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Write an integer register (writes to x0 are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Read a floating-point register.
    #[inline]
    pub fn freg(&self, r: FReg) -> f64 {
        self.fregs[r.index()]
    }

    /// Write a floating-point register.
    #[inline]
    pub fn set_freg(&mut self, r: FReg, v: f64) {
        self.fregs[r.index()] = v;
    }

    /// Human-readable description of why the core is blocked, for deadlock
    /// reports.
    pub fn blocked_reason(&self) -> String {
        match self.waiting {
            Waiting::None => "runnable (no pending event)".to_owned(),
            Waiting::Fill { line, parked, .. } => {
                if parked {
                    format!("parked at a bank hook on fill of line {line:#x}")
                } else {
                    format!("waiting on fill of line {line:#x}")
                }
            }
            Waiting::Fence { .. } => "draining store buffer for a fence".to_owned(),
            Waiting::HwBar => "stalled at the dedicated barrier network".to_owned(),
            Waiting::StoreSlot => "waiting for a store-buffer slot".to_owned(),
            Waiting::SwitchedOut { line, .. } => {
                format!("context-switched out while parked on line {line:#x}")
            }
        }
    }

    pub fn note_mshr(&mut self) {
        self.stats.mshr_peak = self.stats.mshr_peak.max(self.mshr_used);
    }

    /// Invalidate the instruction-fetch fast-path window.
    pub fn clear_ifetch_window(&mut self) {
        self.ifetch_lo = 1;
        self.ifetch_hi = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x0_is_hardwired_zero() {
        let mut c = Core::new();
        c.set_reg(Reg::ZERO, 42);
        assert_eq!(c.reg(Reg::ZERO), 0);
        c.set_reg(Reg::T0, 42);
        assert_eq!(c.reg(Reg::T0), 42);
    }

    #[test]
    fn fregs_read_back() {
        let mut c = Core::new();
        c.set_freg(FReg::F3, 2.5);
        assert_eq!(c.freg(FReg::F3), 2.5);
    }

    #[test]
    fn blocked_reason_mentions_parked_line() {
        let mut c = Core::new();
        c.waiting = Waiting::Fill {
            line: 0x2000_0040,
            cont: Continuation::IFetch,
            parked: true,
        };
        assert!(c.blocked_reason().contains("0x20000040"));
        assert!(c.blocked_reason().contains("parked"));
    }
}
