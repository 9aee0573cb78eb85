//! Assembled program images.

use std::collections::BTreeMap;
use std::fmt;

use crate::Instr;

/// Base physical address of the code region.
///
/// Data allocations made by the machine builder start well above this, so
/// code and data never overlap.
pub const CODE_BASE: u64 = 0x1_0000;

/// Bytes occupied by one instruction in the code region.
pub const INSTR_BYTES: u64 = 4;

/// A required symbol was not defined in the program image.
///
/// Returned by [`Program::require_symbol`] so loaders and the static
/// analyzer can report a malformed program instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingSymbol {
    /// The symbol name that was looked up.
    pub name: String,
}

impl fmt::Display for MissingSymbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "program has no symbol named `{}`", self.name)
    }
}

impl std::error::Error for MissingSymbol {}

/// An assembled MiniRISC program: a code image plus its symbol table.
///
/// All threads of a simulation share a single `Program` (the loader points
/// each thread at its entry and sets `tid`/`ntid`), mirroring how the paper's
/// kernels run one binary across all cores.
#[derive(Debug, Clone)]
pub struct Program {
    code: Vec<Instr>,
    symbols: BTreeMap<String, u64>,
}

impl Default for Program {
    fn default() -> Program {
        Program::from_parts(Vec::new(), BTreeMap::new())
    }
}

impl Program {
    pub(crate) fn from_parts(code: Vec<Instr>, symbols: BTreeMap<String, u64>) -> Program {
        Program { code, symbols }
    }

    /// Number of instructions in the image.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the image contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// The instruction at program counter `pc`, or `None` if `pc` is outside
    /// the code region or misaligned.
    pub fn fetch(&self, pc: u64) -> Option<Instr> {
        if pc < CODE_BASE || !(pc - CODE_BASE).is_multiple_of(INSTR_BYTES) {
            return None;
        }
        let idx = ((pc - CODE_BASE) / INSTR_BYTES) as usize;
        self.code.get(idx).copied()
    }

    /// Replace the instruction at program counter `pc`, returning the old
    /// instruction, or `None` (leaving the image untouched) if `pc` is
    /// outside the code region or misaligned.
    ///
    /// This is the self-modifying-code primitive: the simulator stages
    /// patches and applies them here when the owning cache line is
    /// invalidated (`icbi`), the point at which the architecture makes a
    /// code write visible to instruction fetch.
    pub fn patch(&mut self, pc: u64, instr: Instr) -> Option<Instr> {
        if pc < CODE_BASE || !(pc - CODE_BASE).is_multiple_of(INSTR_BYTES) {
            return None;
        }
        let idx = ((pc - CODE_BASE) / INSTR_BYTES) as usize;
        let slot = self.code.get_mut(idx)?;
        Some(std::mem::replace(slot, instr))
    }

    /// The program counter of a label defined during assembly.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// The program counter of a label, as a typed error if it does not
    /// exist. Intended for loaders resolving required entry points and for
    /// the static analyzer, which reports the error as a diagnostic.
    ///
    /// # Errors
    ///
    /// Returns [`MissingSymbol`] if `name` was never defined.
    pub fn require_symbol(&self, name: &str) -> Result<u64, MissingSymbol> {
        self.symbol(name).ok_or_else(|| MissingSymbol {
            name: name.to_owned(),
        })
    }

    /// Iterate over `(pc, instruction)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Instr)> + '_ {
        self.code
            .iter()
            .enumerate()
            .map(|(i, &ins)| (CODE_BASE + i as u64 * INSTR_BYTES, ins))
    }

    /// All symbols in name order.
    pub fn symbols(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.symbols.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// First address past the end of the code image.
    pub fn code_end(&self) -> u64 {
        CODE_BASE + self.code.len() as u64 * INSTR_BYTES
    }

    /// Whether the single byte at `addr` falls inside the code region of
    /// this program. `code_end()` itself is outside (the range is
    /// half-open), and an empty program contains no code at all. For
    /// multi-byte accesses use [`overlaps_code`](Program::overlaps_code),
    /// which catches accesses that merely straddle the boundary.
    pub fn contains_code(&self, addr: u64) -> bool {
        (CODE_BASE..self.code_end()).contains(&addr)
    }

    /// Whether the `bytes`-byte access starting at `addr` overlaps the code
    /// region anywhere. Unlike [`contains_code`](Program::contains_code)
    /// (which inspects only the first byte), this flags stores that start
    /// below `CODE_BASE` or just under `code_end()` and spill into code.
    /// A zero-length access overlaps nothing.
    pub fn overlaps_code(&self, addr: u64, bytes: u64) -> bool {
        let end = addr.saturating_add(bytes);
        addr < self.code_end() && end > CODE_BASE
    }
}

impl fmt::Display for Program {
    /// Full disassembly listing with symbolized labels.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let by_pc: BTreeMap<u64, &str> = self
            .symbols
            .iter()
            .map(|(name, &pc)| (pc, name.as_str()))
            .collect();
        for (pc, instr) in self.iter() {
            if let Some(name) = by_pc.get(&pc) {
                writeln!(f, "{name}:")?;
            }
            writeln!(f, "  {pc:#08x}:  {instr}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Asm, Reg};

    fn small() -> Program {
        let mut a = Asm::new();
        a.label("entry").unwrap();
        a.li(Reg::T0, 5);
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn fetch_in_and_out_of_range() {
        let p = small();
        assert!(p.fetch(CODE_BASE).is_some());
        assert!(p.fetch(CODE_BASE + INSTR_BYTES).is_some());
        assert!(p.fetch(CODE_BASE + 2 * INSTR_BYTES).is_none());
        assert!(p.fetch(CODE_BASE - INSTR_BYTES).is_none());
        assert!(p.fetch(CODE_BASE + 1).is_none(), "misaligned pc");
    }

    #[test]
    fn symbols_resolve() {
        let p = small();
        assert_eq!(p.symbol("entry"), Some(CODE_BASE));
        assert_eq!(p.require_symbol("entry"), Ok(CODE_BASE));
        assert_eq!(p.symbol("nope"), None);
    }

    #[test]
    fn require_missing_symbol_is_a_typed_error() {
        let err = small().require_symbol("missing").unwrap_err();
        assert_eq!(err.name, "missing");
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn code_extent() {
        let p = small();
        assert_eq!(p.code_end(), CODE_BASE + 2 * INSTR_BYTES);
        assert!(p.contains_code(CODE_BASE));
        assert!(!p.contains_code(p.code_end()));
        assert!(p.contains_code(p.code_end() - 1));
    }

    #[test]
    fn zero_length_program_edges() {
        let p = Asm::new().assemble().unwrap();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.code_end(), CODE_BASE);
        assert_eq!(p.fetch(CODE_BASE), None);
        assert!(!p.contains_code(CODE_BASE));
        assert!(!p.overlaps_code(CODE_BASE, 8));
        assert_eq!(p.require_symbol("entry").unwrap_err().name, "entry");
    }

    #[test]
    fn overlaps_code_is_width_aware() {
        let p = small(); // two instructions: [CODE_BASE, CODE_BASE + 8)
                         // a store whose first byte is below CODE_BASE but spills into code
        assert!(p.overlaps_code(CODE_BASE - 4, 8));
        assert!(!p.contains_code(CODE_BASE - 4));
        // a store starting just under code_end still overlaps
        assert!(p.overlaps_code(p.code_end() - 1, 8));
        // at or past code_end: clear
        assert!(!p.overlaps_code(p.code_end(), 8));
        // entirely below
        assert!(!p.overlaps_code(CODE_BASE - 8, 8));
        // zero-length access overlaps nothing, even inside the region
        assert!(!p.overlaps_code(CODE_BASE, 0));
        // wrapping access is saturated, not wrapped around
        assert!(!p.overlaps_code(u64::MAX - 2, 8));
    }

    #[test]
    fn patch_replaces_instruction() {
        let mut p = small();
        let before: Vec<_> = p.iter().collect();
        let old = p.patch(CODE_BASE, Instr::Nop).unwrap();
        assert_eq!(old, Instr::Li(Reg::T0, 5));
        assert_eq!(p.fetch(CODE_BASE), Some(Instr::Nop));

        // Patching back restores the original image.
        p.patch(CODE_BASE, old).unwrap();
        assert_eq!(p.iter().collect::<Vec<_>>(), before);
    }

    #[test]
    fn patch_rejects_out_of_range_and_misaligned_pcs() {
        let mut p = small();
        let before: Vec<_> = p.iter().collect();
        assert_eq!(p.patch(CODE_BASE - INSTR_BYTES, Instr::Nop), None);
        assert_eq!(p.patch(CODE_BASE + 1, Instr::Nop), None);
        assert_eq!(p.patch(p.code_end(), Instr::Nop), None);
        assert_eq!(
            p.iter().collect::<Vec<_>>(),
            before,
            "failed patches leave the image"
        );
    }

    #[test]
    fn display_lists_all_instructions() {
        let p = small();
        let listing = p.to_string();
        assert!(listing.contains("entry:"));
        assert!(listing.contains("halt"));
    }
}
