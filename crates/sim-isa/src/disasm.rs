//! Textual form of instructions (`Display`), used by `Program`'s listing and
//! by simulator error reports.

use std::fmt;

use crate::{Instr, MemWidth};

fn width_suffix(w: MemWidth) -> &'static str {
    match w {
        MemWidth::B => "b",
        MemWidth::H => "h",
        MemWidth::W => "w",
        MemWidth::D => "d",
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instr::*;
        match *self {
            Add(d, a, b) => write!(f, "add {d}, {a}, {b}"),
            Sub(d, a, b) => write!(f, "sub {d}, {a}, {b}"),
            Mul(d, a, b) => write!(f, "mul {d}, {a}, {b}"),
            Div(d, a, b) => write!(f, "div {d}, {a}, {b}"),
            Rem(d, a, b) => write!(f, "rem {d}, {a}, {b}"),
            And(d, a, b) => write!(f, "and {d}, {a}, {b}"),
            Or(d, a, b) => write!(f, "or {d}, {a}, {b}"),
            Xor(d, a, b) => write!(f, "xor {d}, {a}, {b}"),
            Sll(d, a, b) => write!(f, "sll {d}, {a}, {b}"),
            Srl(d, a, b) => write!(f, "srl {d}, {a}, {b}"),
            Sra(d, a, b) => write!(f, "sra {d}, {a}, {b}"),
            Slt(d, a, b) => write!(f, "slt {d}, {a}, {b}"),
            Sltu(d, a, b) => write!(f, "sltu {d}, {a}, {b}"),
            Min(d, a, b) => write!(f, "min {d}, {a}, {b}"),
            Max(d, a, b) => write!(f, "max {d}, {a}, {b}"),
            Addi(d, a, i) => write!(f, "addi {d}, {a}, {i}"),
            Andi(d, a, i) => write!(f, "andi {d}, {a}, {i}"),
            Ori(d, a, i) => write!(f, "ori {d}, {a}, {i}"),
            Xori(d, a, i) => write!(f, "xori {d}, {a}, {i}"),
            Slli(d, a, s) => write!(f, "slli {d}, {a}, {s}"),
            Srli(d, a, s) => write!(f, "srli {d}, {a}, {s}"),
            Srai(d, a, s) => write!(f, "srai {d}, {a}, {s}"),
            Slti(d, a, i) => write!(f, "slti {d}, {a}, {i}"),
            Li(d, i) => write!(f, "li {d}, {i}"),
            Fadd(d, a, b) => write!(f, "fadd {d}, {a}, {b}"),
            Fsub(d, a, b) => write!(f, "fsub {d}, {a}, {b}"),
            Fmul(d, a, b) => write!(f, "fmul {d}, {a}, {b}"),
            Fdiv(d, a, b) => write!(f, "fdiv {d}, {a}, {b}"),
            Fmadd(d, a, b, c) => write!(f, "fmadd {d}, {a}, {b}, {c}"),
            Fneg(d, a) => write!(f, "fneg {d}, {a}"),
            Fmov(d, a) => write!(f, "fmov {d}, {a}"),
            Fli(d, v) => write!(f, "fli {d}, {v}"),
            Fcvtif(d, a) => write!(f, "fcvt.d.l {d}, {a}"),
            Fcvtfi(d, a) => write!(f, "fcvt.l.d {d}, {a}"),
            Feq(d, a, b) => write!(f, "feq {d}, {a}, {b}"),
            Flt(d, a, b) => write!(f, "flt {d}, {a}, {b}"),
            Fle(d, a, b) => write!(f, "fle {d}, {a}, {b}"),
            Ld(d, b, o, w) => write!(f, "ld{} {d}, {o}({b})", width_suffix(w)),
            St(s, b, o, w) => write!(f, "st{} {s}, {o}({b})", width_suffix(w)),
            Fld(d, b, o) => write!(f, "fld {d}, {o}({b})"),
            Fst(s, b, o) => write!(f, "fst {s}, {o}({b})"),
            Ll(d, b, o) => write!(f, "ll {d}, {o}({b})"),
            Sc(d, s, b, o) => write!(f, "sc {d}, {s}, {o}({b})"),
            Beq(a, b, t) => write!(f, "beq {a}, {b}, {:#x}", t.0),
            Bne(a, b, t) => write!(f, "bne {a}, {b}, {:#x}", t.0),
            Blt(a, b, t) => write!(f, "blt {a}, {b}, {:#x}", t.0),
            Bge(a, b, t) => write!(f, "bge {a}, {b}, {:#x}", t.0),
            Bltu(a, b, t) => write!(f, "bltu {a}, {b}, {:#x}", t.0),
            Bgeu(a, b, t) => write!(f, "bgeu {a}, {b}, {:#x}", t.0),
            Jal(d, t) => write!(f, "jal {d}, {:#x}", t.0),
            Jalr(d, b, o) => write!(f, "jalr {d}, {o}({b})"),
            Sync => f.write_str("sync"),
            Isync => f.write_str("isync"),
            Icbi(b, o) => write!(f, "icbi {o}({b})"),
            Dcbi(b, o) => write!(f, "dcbi {o}({b})"),
            HwBar(id) => write!(f, "hwbar {id}"),
            Halt => f.write_str("halt"),
            Nop => f.write_str("nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{FReg, Instr, MemWidth, Reg, Target};

    #[test]
    fn representative_formats() {
        assert_eq!(
            Instr::Add(Reg::T0, Reg::T1, Reg::T2).to_string(),
            "add t0, t1, t2"
        );
        assert_eq!(
            Instr::Ld(Reg::A0, Reg::SP, -8, MemWidth::D).to_string(),
            "ldd a0, -8(sp)"
        );
        assert_eq!(
            Instr::St(Reg::A0, Reg::SP, 16, MemWidth::W).to_string(),
            "stw a0, 16(sp)"
        );
        assert_eq!(
            Instr::Fmadd(FReg::F0, FReg::F1, FReg::F2, FReg::F0).to_string(),
            "fmadd f0, f1, f2, f0"
        );
        assert_eq!(
            Instr::Beq(Reg::T0, Reg::ZERO, Target(0x10040)).to_string(),
            "beq t0, zero, 0x10040"
        );
        assert_eq!(Instr::Icbi(Reg::K0, 0).to_string(), "icbi 0(k0)");
        assert_eq!(Instr::HwBar(3).to_string(), "hwbar 3");
        assert_eq!(Instr::Sync.to_string(), "sync");
    }

    /// Every [`Instr`] variant, with boundary operands, prints a listing
    /// line of its own: no two of these instructions disassemble alike.
    #[test]
    fn every_instruction_has_a_distinct_listing() {
        use Instr as I;
        use MemWidth as W;
        let (z, ra, sp, tls) = (Reg::ZERO, Reg::RA, Reg::SP, Reg::TLS);
        let (t0, t9, k0, k1) = (Reg::T0, Reg::T9, Reg::K0, Reg::K1);
        let (tid, ntid) = (Reg::TID, Reg::NTID);
        let (f0, f1, f2, f31) = (FReg::F0, FReg::F1, FReg::F2, FReg::new(31));
        let code = [
            // integer register-register (all 15)
            I::Add(t0, z, ntid),
            I::Sub(Reg::A0, t9, t0),
            I::Mul(k0, k1, tid),
            I::Div(t0, t0, t0),
            I::Rem(Reg::S5, Reg::S0, Reg::A7),
            I::And(t0, t9, z),
            I::Or(Reg::A1, Reg::A2, Reg::A3),
            I::Xor(t9, t9, t9),
            I::Sll(t0, t9, k0),
            I::Srl(t0, t9, k0),
            I::Sra(t0, t9, k0),
            I::Slt(t0, tid, ntid),
            I::Sltu(t0, tid, ntid),
            I::Min(t0, t9, k0),
            I::Max(t0, t9, k0),
            // integer register-immediate, boundary immediates
            I::Addi(t0, t9, i64::MIN),
            I::Andi(t0, t9, -1),
            I::Ori(t0, t9, i64::MAX),
            I::Xori(t0, t9, 0),
            I::Slli(t0, t9, 0),
            I::Srli(t0, t9, 63),
            I::Srai(t0, t9, 63),
            I::Slti(t0, t9, -1),
            I::Li(t0, i64::MIN),
            I::Li(t9, i64::MAX),
            // floating point, boundary values
            I::Fadd(f0, f1, f2),
            I::Fsub(f0, f1, f2),
            I::Fmul(f0, f1, f2),
            I::Fdiv(f0, f1, f2),
            I::Fmadd(f0, f1, f2, f31),
            I::Fneg(f0, f31),
            I::Fmov(f31, f0),
            I::Fli(f0, 0.0),
            I::Fli(f1, -2.5),
            I::Fli(f2, f64::MAX),
            I::Fli(f2, f64::MIN_POSITIVE),
            I::Fli(f31, f64::INFINITY),
            I::Fli(f31, f64::NEG_INFINITY),
            I::Fcvtif(f0, t0),
            I::Fcvtfi(t0, f0),
            I::Feq(t0, f0, f1),
            I::Flt(t0, f0, f1),
            I::Fle(t0, f0, f1),
            // memory, every width, boundary offsets
            I::Ld(t0, sp, i64::MIN, W::B),
            I::Ld(t0, sp, -1, W::H),
            I::Ld(t0, sp, 0, W::W),
            I::Ld(t0, sp, i64::MAX, W::D),
            I::St(t0, sp, i64::MIN, W::B),
            I::St(t0, sp, 1, W::H),
            I::St(t0, sp, -8, W::W),
            I::St(t0, sp, i64::MAX, W::D),
            I::Fld(f0, tls, -16),
            I::Fst(f31, tls, i64::MAX),
            I::Ll(t9, k0, 0),
            I::Sc(k1, t9, k0, -64),
            // control flow, boundary targets
            I::Beq(t0, z, Target(0)),
            I::Bne(t0, z, Target(u64::MAX)),
            I::Blt(t0, z, Target(crate::CODE_BASE)),
            I::Bge(t0, z, Target(crate::CODE_BASE + 4)),
            I::Bltu(t0, z, Target(1)),
            I::Bgeu(t0, z, Target(0x1_0040)),
            I::Jal(ra, Target(u64::MAX)),
            I::Jal(z, Target(0)),
            I::Jalr(z, ra, 0),
            I::Jalr(t0, k1, i64::MIN),
            // synchronization & cache management
            I::Sync,
            I::Isync,
            I::Icbi(k0, 0),
            I::Dcbi(k0, i64::MIN),
            I::HwBar(0),
            I::HwBar(u16::MAX),
            // misc
            I::Halt,
            I::Nop,
        ];
        let mut seen = std::collections::BTreeMap::new();
        for (idx, instr) in code.iter().enumerate() {
            let text = instr.to_string();
            if let Some(prev) = seen.insert(text.clone(), idx) {
                panic!("instructions {prev} and {idx} both disassemble as `{text}`");
            }
        }
        assert_eq!(seen.len(), 73);
    }

    #[test]
    fn debug_is_never_empty() {
        assert!(!format!("{:?}", Instr::Nop).is_empty());
    }
}
