//! MiniRISC: the instruction set executed by the `cmp-sim` chip-multiprocessor
//! simulator.
//!
//! The paper this repository reproduces ("Exploiting Fine-Grained Data
//! Parallelism with Chip Multiprocessors and Fast Barriers", MICRO 2006)
//! evaluated barrier filters on SMTSim executing Alpha code extended with the
//! PowerPC `ICBI`, `DCBI` and `ISYNC` instructions. We do not have SMTSim or
//! an Alpha toolchain, so this crate defines the closest synthetic
//! equivalent: a 64-bit RISC ISA with
//!
//! * 32 integer registers (`x0` hardwired to zero) and 32 `f64` registers,
//! * load-linked / store-conditional (the Alpha `ldq_l`/`stq_c` pair used by
//!   the paper's software barriers),
//! * `sync` (full memory fence, Alpha `mb` / PowerPC `sync`),
//! * `isync` (discard prefetched instructions, PowerPC `ISYNC`),
//! * `icbi` / `dcbi` (user-mode single-line instruction/data cache block
//!   invalidate, PowerPC `ICBI`/`DCBI`), and
//! * `hwbar`, a dedicated-network barrier instruction modelling the
//!   aggressive Beckmann & Polychronopoulos hardware baseline.
//!
//! Programs are written with the [`Asm`] builder and produce a [`Program`]
//! image that the simulator fetches through its modeled instruction cache
//! (each instruction occupies four bytes of the code region, sixteen per
//! 64-byte line).
//!
//! # Example
//!
//! ```
//! use sim_isa::{Asm, Reg, Program};
//!
//! # fn main() -> Result<(), sim_isa::AsmError> {
//! let mut a = Asm::new();
//! a.li(Reg::T0, 10).li(Reg::T1, 0);
//! a.label("loop")?;
//! a.add(Reg::T1, Reg::T1, Reg::T0);
//! a.addi(Reg::T0, Reg::T0, -1);
//! a.bne(Reg::T0, Reg::ZERO, "loop");
//! a.halt();
//! let program: Program = a.assemble()?;
//! assert_eq!(program.len(), 6);
//! # Ok(())
//! # }
//! ```

mod asm;
mod disasm;
mod instr;
mod program;
mod reg;

pub use asm::{Asm, AsmError, Label};
pub use instr::{Instr, MemRef, MemRefKind, MemWidth, Target};
pub use program::{MissingSymbol, Program, CODE_BASE, INSTR_BYTES};
pub use reg::{FReg, Reg};

/// Size in bytes of a cache line; fixed across the whole machine model.
///
/// The paper distributes Livermore arrays in chunks of at least eight
/// doubles because "that is the size of a cache line" (§4.4), i.e. 64 bytes.
pub const LINE_BYTES: u64 = 64;

/// Number of instructions that fit in one instruction-cache line.
pub const INSTRS_PER_LINE: u64 = LINE_BYTES / INSTR_BYTES;

/// Round an address down to the start of its cache line.
#[inline]
pub const fn line_of(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}
