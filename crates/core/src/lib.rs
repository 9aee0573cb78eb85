//! `barrier-filter`: fast barrier synchronization for chip multiprocessors
//! by starving cache fill requests.
//!
//! This crate is the primary contribution of *"Exploiting Fine-Grained Data
//! Parallelism with Chip Multiprocessors and Fast Barriers"* (MICRO 2006):
//! the **barrier filter**, a state table placed in the shared L2 cache
//! controller that
//!
//! 1. observes `icbi`/`dcbi` invalidation messages for per-thread *arrival
//!    addresses* (the signal that a thread reached the barrier),
//! 2. **starves** the fill request each thread then issues for its arrival
//!    line — the thread stalls on an ordinary cache miss, with no busy
//!    waiting, no locks and no spurious coherence traffic — and
//! 3. services all the starved fills at once when the last thread arrives.
//!
//! The crate provides:
//!
//! * the per-thread FSM of Figure 3 ([`fsm`]), the filter state table of
//!   Figure 2 ([`FilterTable`]), and the per-bank replicated filter
//!   ([`FilterBank`]) that plugs into the simulator's L2 controllers via
//!   [`cmp_sim::BankHook`];
//! * the OS layer of §3.3 ([`BarrierSystem`]): barrier registration,
//!   bank-homed address allocation, software fallback, context-switch and
//!   swap-out support, and optional hardware timeouts (§3.3.4);
//! * runtime code ([`emit`]) for all seven mechanisms of §4: the I-cache
//!   and D-cache filter barriers (each in entry/exit and ping-pong form),
//!   the centralized and combining-tree software barriers, and the
//!   dedicated-network hardware baseline.
//!
//! # Example
//!
//! ```
//! use barrier_filter::{BarrierMechanism, BarrierSystem};
//! use cmp_sim::{AddressSpace, MachineBuilder, SimConfig};
//! use sim_isa::Asm;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = SimConfig::with_cores(4);
//! let mut space = AddressSpace::new(&config);
//! let mut asm = Asm::new();
//! let mut sys = BarrierSystem::new(&config, 4, &mut space)?;
//! let barrier = sys.create_barrier(&mut asm, &mut space, BarrierMechanism::FilterD, 4)?;
//!
//! // a kernel that crosses the barrier 8 times and halts
//! asm.label("entry")?;
//! asm.li(sim_isa::Reg::S0, 8);
//! asm.label("loop")?;
//! barrier.emit_call(&mut asm);
//! asm.addi(sim_isa::Reg::S0, sim_isa::Reg::S0, -1);
//! asm.bne(sim_isa::Reg::S0, sim_isa::Reg::ZERO, "loop");
//! asm.halt();
//!
//! let program = asm.assemble()?;
//! let entry = program.require_symbol("entry").unwrap();
//! let mut mb = MachineBuilder::new(config, program)?;
//! for _ in 0..4 {
//!     mb.add_thread(entry);
//! }
//! sys.install(&mut mb)?;
//! let mut machine = mb.build()?;
//! let summary = machine.run()?;
//! assert!(summary.cycles > 0);
//! # Ok(())
//! # }
//! ```

mod bank;
pub mod emit;
pub mod fsm;
mod mechanism;
mod protocol;
mod system;
mod table;

pub use bank::FilterBank;
pub use fsm::{FsmAction, FsmEvent, FsmViolation, ThreadState};
pub use mechanism::{BarrierMechanism, ParseMechanismError};
pub use protocol::{ProtocolSpec, RegionKind, SyncRegion};
pub use system::{Barrier, BarrierError, BarrierSystem, FilterCapacity};
pub use table::{
    FilterTable, FilterTableConfig, FilterTableStats, SavedFilter, TableFill, TableInvalidate,
};
