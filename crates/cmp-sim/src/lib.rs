//! `cmp-sim`: an event-driven, cycle-level chip-multiprocessor simulator.
//!
//! This is the evaluation substrate for the barrier-filter paper
//! reproduction (see the repository's DESIGN.md): the equivalent of the
//! modified SMTSim the authors used. It models:
//!
//! * N identical in-order cores executing [MiniRISC](sim_isa) programs, one
//!   thread per core;
//! * private L1 instruction and data caches, a shared banked L2, a shared
//!   L3, and main memory, with Table 2 latencies by default
//!   ([`SimConfig::default`]);
//! * an MSI directory over the L1 data caches (invalidations, upgrades and
//!   cache-to-cache transfers — the coherence traffic software barriers pay
//!   for);
//! * a single shared bus between the L1s and the L2 banks whose saturation
//!   reproduces the paper's Figure 4 behaviour beyond 16 cores;
//! * per-core store buffers, MSHR accounting (§3.2.1), `sync`/`isync`
//!   fences, `ll`/`sc`, and the user-mode `icbi`/`dcbi` cache-block
//!   invalidate instructions;
//! * [`BankHook`]: the extension point in each L2 bank controller where the
//!   `barrier-filter` crate attaches the paper's contribution; and
//! * a [dedicated barrier network](DedicatedNetwork) baseline
//!   (`hwbar`), the aggressive hardware model the paper compares against.
//!
//! # Example
//!
//! Assemble a two-thread program in which each thread writes its id, then
//! run it:
//!
//! ```
//! use cmp_sim::{MachineBuilder, SimConfig, AddressSpace};
//! use sim_isa::{Asm, Reg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = SimConfig::with_cores(2);
//! let mut space = AddressSpace::new(&config);
//! let out = space.alloc_u64(2)?;
//!
//! let mut a = Asm::new();
//! a.label("entry")?;
//! a.li(Reg::T0, out as i64);
//! a.slli(Reg::T1, Reg::TID, 3);
//! a.add(Reg::T0, Reg::T0, Reg::T1);
//! a.std(Reg::TID, Reg::T0, 0);
//! a.halt();
//! let program = a.assemble()?;
//!
//! let entry = program.require_symbol("entry").unwrap();
//! let mut b = MachineBuilder::new(config, program)?;
//! b.add_thread(entry);
//! b.add_thread(entry);
//! let mut machine = b.build()?;
//! machine.run()?;
//! assert_eq!(machine.read_u64_slice(out, 2), vec![0, 1]);
//! # Ok(())
//! # }
//! ```

mod builder;
mod bus;
mod cache;
mod coherence;
mod config;
mod core;
mod error;
mod event_queue;
mod fastmap;
mod faults;
mod hook;
mod hwnet;
pub mod json;
mod layout;
mod machine;
mod mem;
mod stats;
mod trace;

pub use builder::{BuildError, MachineBuilder};
pub use bus::{Interconnect, Resource, ResourceStats};
pub use cache::{Cache, CacheStats, LineState};
pub use coherence::{DirEntry, Directory, DirectoryStats, ReadOutcome, SharerSet, WriteOutcome};
pub use config::{
    BusConfig, CacheConfig, CoreTiming, HopLatency, HwBarrierConfig, SimConfig, Topology, MAX_CORES,
};
pub use core::CoreStats;
pub use error::SimError;
pub use faults::{run_with_faults, FaultEvent, FaultKind, FaultPlan, FaultReport, Lcg};
pub use hook::{
    BankHook, FillDecision, HookOutcome, HookViolation, ParkToken, FILL_ERROR_SENTINEL,
};
pub use hwnet::{DedicatedNetwork, HwBarResult, HwNetStats};
pub use json::{fnv64, json_escape, parse_u64_flex, Json, JsonError};
pub use layout::{AddressSpace, LayoutError, BARRIER_BASE, BARRIER_END, DATA_BASE};
pub use machine::{Machine, RunState};
pub use mem::Memory;
pub use stats::{DecodeCacheStats, FusedMemStats, MachineStats, Measurement, RunSummary};
pub use trace::{
    ChromeTraceSink, EpisodeStats, NullSink, RingSink, TraceConfig, TraceEvent, TraceSink,
};
