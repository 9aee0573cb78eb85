//! The MiniRISC instruction set.

use crate::{FReg, Reg};

/// Width of an integer memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 1 byte.
    B,
    /// 2 bytes.
    H,
    /// 4 bytes.
    W,
    /// 8 bytes.
    D,
}

impl MemWidth {
    /// Access size in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
            MemWidth::D => 8,
        }
    }
}

/// A resolved control-flow target: an absolute program counter value.
///
/// The assembler resolves symbolic [`Label`](crate::Label)s to `Target`s when
/// [`Asm::assemble`](crate::Asm::assemble) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Target(pub u64);

/// A single MiniRISC instruction.
///
/// Register operands are ordered destination-first, matching the assembler
/// methods. Every instruction occupies [`INSTR_BYTES`](crate::INSTR_BYTES)
/// bytes of the code region and is fetched through the simulated instruction
/// cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    // ---- integer ALU, register-register ----
    /// `rd = rs1 + rs2` (wrapping).
    Add(Reg, Reg, Reg),
    /// `rd = rs1 - rs2` (wrapping).
    Sub(Reg, Reg, Reg),
    /// `rd = rs1 * rs2` (wrapping).
    Mul(Reg, Reg, Reg),
    /// `rd = rs1 / rs2` (signed; division by zero traps).
    Div(Reg, Reg, Reg),
    /// `rd = rs1 % rs2` (signed; division by zero traps).
    Rem(Reg, Reg, Reg),
    /// `rd = rs1 & rs2`.
    And(Reg, Reg, Reg),
    /// `rd = rs1 | rs2`.
    Or(Reg, Reg, Reg),
    /// `rd = rs1 ^ rs2`.
    Xor(Reg, Reg, Reg),
    /// `rd = rs1 << (rs2 & 63)`.
    Sll(Reg, Reg, Reg),
    /// `rd = rs1 >> (rs2 & 63)` (logical).
    Srl(Reg, Reg, Reg),
    /// `rd = rs1 >> (rs2 & 63)` (arithmetic).
    Sra(Reg, Reg, Reg),
    /// `rd = (rs1 < rs2) as i64` (signed).
    Slt(Reg, Reg, Reg),
    /// `rd = (rs1 < rs2) as u64` (unsigned).
    Sltu(Reg, Reg, Reg),
    /// `rd = min(rs1, rs2)` (signed). Convenience for Viterbi ACS.
    Min(Reg, Reg, Reg),
    /// `rd = max(rs1, rs2)` (signed).
    Max(Reg, Reg, Reg),

    // ---- integer ALU, register-immediate ----
    /// `rd = rs1 + imm` (wrapping).
    Addi(Reg, Reg, i64),
    /// `rd = rs1 & imm`.
    Andi(Reg, Reg, i64),
    /// `rd = rs1 | imm`.
    Ori(Reg, Reg, i64),
    /// `rd = rs1 ^ imm`.
    Xori(Reg, Reg, i64),
    /// `rd = rs1 << shamt`.
    Slli(Reg, Reg, u8),
    /// `rd = rs1 >> shamt` (logical).
    Srli(Reg, Reg, u8),
    /// `rd = rs1 >> shamt` (arithmetic).
    Srai(Reg, Reg, u8),
    /// `rd = (rs1 < imm) as i64` (signed).
    Slti(Reg, Reg, i64),
    /// `rd = imm`. (Interpreted ISA: full 64-bit immediates are allowed.)
    Li(Reg, i64),

    // ---- floating point (f64) ----
    /// `fd = fs1 + fs2`.
    Fadd(FReg, FReg, FReg),
    /// `fd = fs1 - fs2`.
    Fsub(FReg, FReg, FReg),
    /// `fd = fs1 * fs2`.
    Fmul(FReg, FReg, FReg),
    /// `fd = fs1 / fs2`.
    Fdiv(FReg, FReg, FReg),
    /// Fused multiply-add: `fd = fs1 * fs2 + fs3`.
    Fmadd(FReg, FReg, FReg, FReg),
    /// `fd = -fs1`.
    Fneg(FReg, FReg),
    /// `fd = fs1`.
    Fmov(FReg, FReg),
    /// `fd = imm`.
    Fli(FReg, f64),
    /// Convert signed integer to f64: `fd = rs1 as f64`.
    Fcvtif(FReg, Reg),
    /// Convert f64 to signed integer (truncating): `rd = fs1 as i64`.
    Fcvtfi(Reg, FReg),
    /// `rd = (fs1 == fs2) as i64`.
    Feq(Reg, FReg, FReg),
    /// `rd = (fs1 < fs2) as i64`.
    Flt(Reg, FReg, FReg),
    /// `rd = (fs1 <= fs2) as i64`.
    Fle(Reg, FReg, FReg),

    // ---- memory ----
    /// `rd = zero_extend(mem[rs1 + offset])`.
    Ld(Reg, Reg, i64, MemWidth),
    /// `mem[rs1 + offset] = truncate(rs2)`. Operand order: (src, base, offset).
    St(Reg, Reg, i64, MemWidth),
    /// `fd = mem[rs1 + offset]` as f64.
    Fld(FReg, Reg, i64),
    /// `mem[rs1 + offset] = fs` bit pattern. Operand order: (src, base, offset).
    Fst(FReg, Reg, i64),
    /// Load-linked 8 bytes: `rd = mem[rs1 + offset]`, setting the link
    /// register to the accessed line (Alpha `ldq_l`).
    Ll(Reg, Reg, i64),
    /// Store-conditional 8 bytes: if the link is still valid, performs
    /// `mem[rs1 + offset] = rs2` and sets `rd = 1`; otherwise `rd = 0`
    /// (Alpha `stq_c`). Operand order: (rd, src, base, offset).
    Sc(Reg, Reg, Reg, i64),

    // ---- control flow ----
    /// Branch if `rs1 == rs2`.
    Beq(Reg, Reg, Target),
    /// Branch if `rs1 != rs2`.
    Bne(Reg, Reg, Target),
    /// Branch if `rs1 < rs2` (signed).
    Blt(Reg, Reg, Target),
    /// Branch if `rs1 >= rs2` (signed).
    Bge(Reg, Reg, Target),
    /// Branch if `rs1 < rs2` (unsigned).
    Bltu(Reg, Reg, Target),
    /// Branch if `rs1 >= rs2` (unsigned).
    Bgeu(Reg, Reg, Target),
    /// Jump and link: `rd = pc + 4; pc = target`.
    Jal(Reg, Target),
    /// Jump and link register: `rd = pc + 4; pc = rs1 + offset`.
    Jalr(Reg, Reg, i64),

    // ---- synchronization & cache management ----
    /// Full memory fence (Alpha `mb` / PowerPC `sync`): stalls until the
    /// store buffer has drained and all outstanding memory operations have
    /// completed.
    Sync,
    /// Discard prefetched instructions and flush the pipeline
    /// (PowerPC `ISYNC`).
    Isync,
    /// Invalidate the instruction-cache line containing `rs1 + offset`
    /// throughout the hierarchy above the barrier filter (PowerPC `ICBI`).
    /// User-mode; permission-checked like any memory reference.
    Icbi(Reg, i64),
    /// Invalidate the data-cache line containing `rs1 + offset` throughout
    /// the hierarchy above the barrier filter, writing back first if dirty
    /// (PowerPC `DCBI`).
    Dcbi(Reg, i64),
    /// Dedicated-network barrier (baseline): signal the global combining
    /// logic for barrier `id` and stall until it fires. Models the
    /// Beckmann & Polychronopoulos hardware with 2-cycle each-way latency.
    HwBar(u16),

    // ---- misc ----
    /// Stop this thread; the core becomes idle.
    Halt,
    /// No operation (also used as alignment padding).
    Nop,
}

/// How a [`MemRef`] touches the referenced location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemRefKind {
    /// Plain data load.
    Read,
    /// Plain data store.
    Write,
    /// Load-linked read (establishes a reservation).
    LoadLinked,
    /// Store-conditional write (may fail without writing).
    StoreConditional,
    /// D-cache line invalidate (`dcbi`): no data transfer.
    InvalidateData,
    /// I-cache line invalidate (`icbi`): no data transfer.
    InvalidateInstr,
}

impl MemRefKind {
    /// Whether this reference can modify memory contents.
    pub fn is_write(self) -> bool {
        matches!(self, MemRefKind::Write | MemRefKind::StoreConditional)
    }
}

/// A memory (or cache-management) reference made by one instruction: the
/// effective address is `base + offset`, covering `bytes` bytes. Extracted
/// by [`Instr::mem_ref`] for the static analyzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Base address register.
    pub base: Reg,
    /// Signed displacement added to `base`.
    pub offset: i64,
    /// Bytes covered (a whole line for the invalidate kinds).
    pub bytes: u64,
    /// Access flavor.
    pub kind: MemRefKind,
}

impl Instr {
    /// Whether this instruction reads or writes data memory (used by fence
    /// drain logic and by the MSHR accounting tests).
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Instr::Ld(..)
                | Instr::St(..)
                | Instr::Fld(..)
                | Instr::Fst(..)
                | Instr::Ll(..)
                | Instr::Sc(..)
        )
    }

    /// Whether this instruction is a control-flow instruction.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instr::Beq(..)
                | Instr::Bne(..)
                | Instr::Blt(..)
                | Instr::Bge(..)
                | Instr::Bltu(..)
                | Instr::Bgeu(..)
                | Instr::Jal(..)
                | Instr::Jalr(..)
        )
    }

    /// The integer register this instruction writes, if any.
    ///
    /// Writes to [`Reg::ZERO`](crate::Reg::ZERO) are still reported (the
    /// hardware discards them); dataflow passes that want architectural
    /// effect should filter with [`Reg::is_zero`](crate::Reg::is_zero).
    pub fn def(&self) -> Option<Reg> {
        match *self {
            Instr::Add(d, ..)
            | Instr::Sub(d, ..)
            | Instr::Mul(d, ..)
            | Instr::Div(d, ..)
            | Instr::Rem(d, ..)
            | Instr::And(d, ..)
            | Instr::Or(d, ..)
            | Instr::Xor(d, ..)
            | Instr::Sll(d, ..)
            | Instr::Srl(d, ..)
            | Instr::Sra(d, ..)
            | Instr::Slt(d, ..)
            | Instr::Sltu(d, ..)
            | Instr::Min(d, ..)
            | Instr::Max(d, ..)
            | Instr::Addi(d, ..)
            | Instr::Andi(d, ..)
            | Instr::Ori(d, ..)
            | Instr::Xori(d, ..)
            | Instr::Slli(d, ..)
            | Instr::Srli(d, ..)
            | Instr::Srai(d, ..)
            | Instr::Slti(d, ..)
            | Instr::Li(d, ..)
            | Instr::Fcvtfi(d, ..)
            | Instr::Feq(d, ..)
            | Instr::Flt(d, ..)
            | Instr::Fle(d, ..)
            | Instr::Ld(d, ..)
            | Instr::Ll(d, ..)
            | Instr::Sc(d, ..)
            | Instr::Jal(d, ..)
            | Instr::Jalr(d, ..) => Some(d),
            _ => None,
        }
    }

    /// The floating-point register this instruction writes, if any.
    pub fn fdef(&self) -> Option<FReg> {
        match *self {
            Instr::Fadd(d, ..)
            | Instr::Fsub(d, ..)
            | Instr::Fmul(d, ..)
            | Instr::Fdiv(d, ..)
            | Instr::Fmadd(d, ..)
            | Instr::Fneg(d, ..)
            | Instr::Fmov(d, ..)
            | Instr::Fli(d, ..)
            | Instr::Fcvtif(d, ..)
            | Instr::Fld(d, ..) => Some(d),
            _ => None,
        }
    }

    /// Integer registers this instruction reads (up to three), in operand
    /// order. Unused slots are `None`.
    pub fn int_uses(&self) -> [Option<Reg>; 3] {
        match *self {
            Instr::Add(_, a, b)
            | Instr::Sub(_, a, b)
            | Instr::Mul(_, a, b)
            | Instr::Div(_, a, b)
            | Instr::Rem(_, a, b)
            | Instr::And(_, a, b)
            | Instr::Or(_, a, b)
            | Instr::Xor(_, a, b)
            | Instr::Sll(_, a, b)
            | Instr::Srl(_, a, b)
            | Instr::Sra(_, a, b)
            | Instr::Slt(_, a, b)
            | Instr::Sltu(_, a, b)
            | Instr::Min(_, a, b)
            | Instr::Max(_, a, b) => [Some(a), Some(b), None],
            Instr::Addi(_, a, _)
            | Instr::Andi(_, a, _)
            | Instr::Ori(_, a, _)
            | Instr::Xori(_, a, _)
            | Instr::Slli(_, a, _)
            | Instr::Srli(_, a, _)
            | Instr::Srai(_, a, _)
            | Instr::Slti(_, a, _) => [Some(a), None, None],
            Instr::Fcvtif(_, a) => [Some(a), None, None],
            Instr::Ld(_, base, ..) | Instr::Fld(_, base, _) | Instr::Ll(_, base, _) => {
                [Some(base), None, None]
            }
            Instr::St(src, base, ..) => [Some(src), Some(base), None],
            Instr::Fst(_, base, _) => [Some(base), None, None],
            Instr::Sc(_, src, base, _) => [Some(src), Some(base), None],
            Instr::Beq(a, b, _)
            | Instr::Bne(a, b, _)
            | Instr::Blt(a, b, _)
            | Instr::Bge(a, b, _)
            | Instr::Bltu(a, b, _)
            | Instr::Bgeu(a, b, _) => [Some(a), Some(b), None],
            Instr::Jalr(_, base, _) => [Some(base), None, None],
            Instr::Icbi(base, _) | Instr::Dcbi(base, _) => [Some(base), None, None],
            _ => [None, None, None],
        }
    }

    /// Floating-point registers this instruction reads (up to three), in
    /// operand order. Unused slots are `None`.
    pub fn fp_uses(&self) -> [Option<FReg>; 3] {
        match *self {
            Instr::Fadd(_, a, b)
            | Instr::Fsub(_, a, b)
            | Instr::Fmul(_, a, b)
            | Instr::Fdiv(_, a, b) => [Some(a), Some(b), None],
            Instr::Fmadd(_, a, b, c) => [Some(a), Some(b), Some(c)],
            Instr::Fneg(_, a) | Instr::Fmov(_, a) => [Some(a), None, None],
            Instr::Fcvtfi(_, a) => [Some(a), None, None],
            Instr::Feq(_, a, b) | Instr::Flt(_, a, b) | Instr::Fle(_, a, b) => {
                [Some(a), Some(b), None]
            }
            Instr::Fst(src, ..) => [Some(src), None, None],
            _ => [None, None, None],
        }
    }

    /// The memory or cache-line reference this instruction makes, if any.
    /// Covers loads, stores, LL/SC and the `dcbi`/`icbi` invalidates (whose
    /// `bytes` span a whole cache line).
    pub fn mem_ref(&self) -> Option<MemRef> {
        let r = |base, offset, bytes, kind| MemRef {
            base,
            offset,
            bytes,
            kind,
        };
        match *self {
            Instr::Ld(_, base, off, w) => Some(r(base, off, w.bytes(), MemRefKind::Read)),
            Instr::St(_, base, off, w) => Some(r(base, off, w.bytes(), MemRefKind::Write)),
            Instr::Fld(_, base, off) => Some(r(base, off, 8, MemRefKind::Read)),
            Instr::Fst(_, base, off) => Some(r(base, off, 8, MemRefKind::Write)),
            Instr::Ll(_, base, off) => Some(r(base, off, 8, MemRefKind::LoadLinked)),
            Instr::Sc(_, _, base, off) => Some(r(base, off, 8, MemRefKind::StoreConditional)),
            Instr::Dcbi(base, off) => Some(r(base, off, 64, MemRefKind::InvalidateData)),
            Instr::Icbi(base, off) => Some(r(base, off, 64, MemRefKind::InvalidateInstr)),
            _ => None,
        }
    }

    /// The statically-known control-flow target of this instruction:
    /// conditional branches and `jal`. `jalr` is indirect and returns `None`.
    pub fn branch_target(&self) -> Option<u64> {
        match *self {
            Instr::Beq(_, _, t)
            | Instr::Bne(_, _, t)
            | Instr::Blt(_, _, t)
            | Instr::Bge(_, _, t)
            | Instr::Bltu(_, _, t)
            | Instr::Bgeu(_, _, t)
            | Instr::Jal(_, t) => Some(t.0),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::B.bytes(), 1);
        assert_eq!(MemWidth::H.bytes(), 2);
        assert_eq!(MemWidth::W.bytes(), 4);
        assert_eq!(MemWidth::D.bytes(), 8);
    }

    #[test]
    fn classification() {
        assert!(Instr::Ld(Reg::T0, Reg::T1, 0, MemWidth::D).is_memory());
        assert!(Instr::Sc(Reg::T0, Reg::T1, Reg::T2, 0).is_memory());
        assert!(!Instr::Sync.is_memory());
        assert!(Instr::Jal(Reg::RA, Target(0)).is_control());
        assert!(!Instr::Nop.is_control());
    }

    #[test]
    fn def_use_accessors() {
        let add = Instr::Add(Reg::T0, Reg::T1, Reg::T2);
        assert_eq!(add.def(), Some(Reg::T0));
        assert_eq!(add.fdef(), None);
        assert_eq!(add.int_uses(), [Some(Reg::T1), Some(Reg::T2), None]);

        let st = Instr::St(Reg::A0, Reg::SP, -8, MemWidth::W);
        assert_eq!(st.def(), None);
        assert_eq!(st.int_uses(), [Some(Reg::A0), Some(Reg::SP), None]);

        let sc = Instr::Sc(Reg::K1, Reg::T9, Reg::K0, 0);
        assert_eq!(sc.def(), Some(Reg::K1));
        assert_eq!(sc.int_uses(), [Some(Reg::T9), Some(Reg::K0), None]);

        let fmadd = Instr::Fmadd(FReg::F0, FReg::F1, FReg::F2, FReg::F3);
        assert_eq!(fmadd.fdef(), Some(FReg::F0));
        assert_eq!(
            fmadd.fp_uses(),
            [Some(FReg::F1), Some(FReg::F2), Some(FReg::F3)]
        );

        let fst = Instr::Fst(FReg::F4, Reg::A1, 16);
        assert_eq!(fst.fp_uses(), [Some(FReg::F4), None, None]);
        assert_eq!(fst.int_uses(), [Some(Reg::A1), None, None]);
    }

    #[test]
    fn mem_ref_extraction() {
        let ld = Instr::Ld(Reg::T0, Reg::T1, 24, MemWidth::H);
        let r = ld.mem_ref().unwrap();
        assert_eq!(
            (r.base, r.offset, r.bytes, r.kind),
            (Reg::T1, 24, 2, MemRefKind::Read)
        );
        assert!(!r.kind.is_write());

        let dcbi = Instr::Dcbi(Reg::K0, 0).mem_ref().unwrap();
        assert_eq!(dcbi.bytes, 64);
        assert_eq!(dcbi.kind, MemRefKind::InvalidateData);

        let sc = Instr::Sc(Reg::K1, Reg::T9, Reg::K0, 8).mem_ref().unwrap();
        assert!(sc.kind.is_write());
        assert_eq!(sc.bytes, 8);
        assert!(Instr::Sync.mem_ref().is_none());
    }

    #[test]
    fn branch_targets() {
        assert_eq!(
            Instr::Beq(Reg::T0, Reg::T1, Target(0x1_0040)).branch_target(),
            Some(0x1_0040)
        );
        assert_eq!(
            Instr::Jal(Reg::RA, Target(0x1_0080)).branch_target(),
            Some(0x1_0080)
        );
        assert_eq!(Instr::Jalr(Reg::ZERO, Reg::RA, 0).branch_target(), None);
        assert_eq!(Instr::Nop.branch_target(), None);
    }
}
