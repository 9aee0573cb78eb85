//! Decoded-superblock cache: the direct-threaded execution layer.
//!
//! The interpreter's hot path used to pay a [`Program::fetch`] (bounds
//! check, alignment check, index) plus a cost-table lookup for every retired
//! instruction. This module caches *superblocks* — straight-line runs of
//! pre-decoded instructions with their issue costs pre-scaled — so the
//! engine's burst loop retires instructions directly out of a flat decoded
//! array and touches neither the program image nor the timing tables.
//!
//! ## Keying and invalidation
//!
//! The cache is keyed by `(pc, code digest)`: a per-pc block table maps an
//! entry pc to a `(start, end)` run in the op arena, and the whole cache is
//! flushed (generation bump) whenever [`Program::code_digest`] no longer
//! matches the digest the blocks were built against. Blocks end at control
//! flow, barrier/sync instructions (`sync`, `isync`, `icbi`, `dcbi`,
//! `hwbar`, `sc`, `halt` — see [`Instr::ends_decode_block`]), code-line
//! boundaries, and the end of the image, so a block never spans two
//! instruction-cache lines. An `icbi` broadcast that overlaps the code
//! region drops exactly the blocks of that line (the same event applies any
//! staged self-modifying-code patches and resets each core's
//! `ifetch_lo`/`ifetch_hi` window, which also resets its decoded-block
//! cursor), and core migration or an `isync` clears the cursor through the
//! same window reset.
//!
//! ## Digest neutrality
//!
//! Everything here is host-side bookkeeping: serving an instruction from a
//! decoded block performs exactly the simulated actions (cache lookups, bus
//! acquisitions, event pushes) the interpreter would, in the same order at
//! the same cycles, so [`MachineStats::digest`](crate::MachineStats::digest)
//! is bit-identical to the reference interpreter's
//! ([`SimConfig::reference_engine`](crate::SimConfig::reference_engine)).
//! The hit/build/invalidation counters are therefore *excluded* from the
//! digest, like `burst_retired`.

use sim_isa::{line_of, FReg, Instr, MemWidth, Program, Reg, CODE_BASE, INSTR_BYTES};

use crate::machine::ScaledCosts;

/// Pre-resolved memory-op descriptor, baked into the op arena at decode
/// time (the memory-op-fused executor). The decoded loop dispatches on this small tag instead of re-matching the
/// full [`Instr`], and runs the cache-hit path fused (per-core line memo);
/// the class's operand fields are exactly the instruction's, so the fused
/// executor computes the same address, performs the same alignment check,
/// and falls into the same miss machinery the interpreter would.
/// Classification is static, so invalidation needs nothing new: a block
/// drop or arena flush discards the descriptors with their ops. `Sc` stays
/// [`MemClass::Other`] — its retire path is event-driven either way.
/// Displacements are stored as `i32` to keep [`DecodedOp`] at 32 bytes
/// (two ops per cache line); an instruction whose immediate does not fit
/// (unreachable from the assembler, possible only for hand-built images)
/// simply classifies as [`MemClass::Other`] and retires through the
/// interpreter arm — identical simulated behaviour, just unfused.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum MemClass {
    /// Not a fuseable memory op.
    Other,
    /// `Ld`/`Ll`: integer load, `link` for the load-linked variant.
    Load {
        rd: Reg,
        base: Reg,
        off: i32,
        width: MemWidth,
        link: bool,
    },
    /// `Fld`.
    FLoad { fd: FReg, base: Reg, off: i32 },
    /// `St`.
    Store {
        src: Reg,
        base: Reg,
        off: i32,
        width: MemWidth,
    },
    /// `Fst`.
    FStore { fs: FReg, base: Reg, off: i32 },
}

impl MemClass {
    /// Classify `instr`.
    fn of(instr: &Instr) -> MemClass {
        let narrow = |off: i64| i32::try_from(off).ok();
        match *instr {
            Instr::Ld(rd, base, off, width) => match narrow(off) {
                Some(off) => MemClass::Load {
                    rd,
                    base,
                    off,
                    width,
                    link: false,
                },
                None => MemClass::Other,
            },
            Instr::Ll(rd, base, off) => match narrow(off) {
                Some(off) => MemClass::Load {
                    rd,
                    base,
                    off,
                    width: MemWidth::D,
                    link: true,
                },
                None => MemClass::Other,
            },
            Instr::Fld(fd, base, off) => match narrow(off) {
                Some(off) => MemClass::FLoad { fd, base, off },
                None => MemClass::Other,
            },
            Instr::St(src, base, off, width) => match narrow(off) {
                Some(off) => MemClass::Store {
                    src,
                    base,
                    off,
                    width,
                },
                None => MemClass::Other,
            },
            Instr::Fst(fs, base, off) => match narrow(off) {
                Some(off) => MemClass::FStore { fs, base, off },
                None => MemClass::Other,
            },
            _ => MemClass::Other,
        }
    }
}

/// Host-side counters for the memory-op-fused decoded executor.
///
/// Engine metrics in the same family as [`DecodeCacheStats`]: they are
/// zero on the reference engine while every simulated number stays
/// bit-identical, so they are deliberately not part of
/// [`MachineStats`](crate::MachineStats) or its digest. Tests use them to
/// prove the fused paths actually engaged.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FusedMemStats {
    /// Loads retired through the fused path (hit or miss).
    pub loads: u64,
    /// Stores retired through the fused path.
    pub stores: u64,
    /// Fused load hits served off the per-core L1D line memo — no set
    /// walk, just the identical LRU/hit-counter mutations.
    pub memo_hits: u64,
}

/// Op-arena size (in decoded ops) at which the cache is flushed wholesale.
/// Invalidating a line only unlinks its blocks from the table (the arena
/// entries leak until the next flush); the cap bounds that leak for
/// pathological self-modifying workloads. Real kernels decode a few hundred
/// ops, so the cap is never reached in practice.
const ARENA_CAP: usize = 1 << 18;

/// Sentinel for an empty block-table slot.
const EMPTY: (u32, u32) = (u32::MAX, u32::MAX);

/// One pre-decoded instruction: the fetched [`Instr`] plus its issue cost
/// pre-scaled to twelfths of a cycle (the quantity the engine's
/// fractional-cycle retire path accumulates), so executing it performs no
/// fetch and no cost-table lookup.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedOp {
    /// The decoded instruction.
    pub instr: Instr,
    /// Pre-scaled issue cost in twelfths for ALU-class instructions and
    /// cache-hit memory operations; unused by classes that retire through
    /// whole-cycle or event-driven paths. `u32` keeps the op at 32 bytes;
    /// per-instruction costs are table entries far below the range limit.
    pub units: u32,
    /// Pre-resolved memory class.
    pub mem: MemClass,
}

/// Host-side counters for the decoded-superblock cache.
///
/// Like [`Machine::burst_retired`](crate::Machine::burst_retired), these are
/// engine metrics, not simulated behaviour: they are zero on the reference
/// engine while every simulated number stays bit-identical, so they are
/// deliberately not part of [`MachineStats`](crate::MachineStats) or its
/// digest.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Block-table lookups that found an already-decoded block.
    pub hits: u64,
    /// Blocks decoded and installed in the table.
    pub builds: u64,
    /// Invalidation events: `icbi` broadcasts overlapping the code region
    /// (per-line block drops) plus wholesale flushes (code-digest change or
    /// arena-cap overflow).
    pub invalidations: u64,
}

/// The per-machine decoded-superblock cache (see the module docs).
#[derive(Debug)]
pub(crate) struct DecodeCache {
    /// Flat op arena; blocks are contiguous runs.
    ops: Vec<DecodedOp>,
    /// Block table indexed by instruction slot (`(pc - CODE_BASE) / 4`):
    /// the `(start, end)` arena run of the block *starting* at that pc, or
    /// [`EMPTY`].
    blocks: Vec<(u32, u32)>,
    /// Bumped on every wholesale flush; cores stamp their block cursor with
    /// it so a flush invalidates every cursor at once.
    pub gen: u64,
    /// The [`Program::code_digest`] the current contents were built
    /// against.
    built_digest: u64,
    stats: DecodeCacheStats,
}

impl DecodeCache {
    pub fn new(program: &Program) -> DecodeCache {
        DecodeCache {
            ops: Vec::new(),
            blocks: vec![EMPTY; program.len()],
            gen: 0,
            built_digest: program.code_digest(),
            stats: DecodeCacheStats::default(),
        }
    }

    pub fn stats(&self) -> DecodeCacheStats {
        self.stats
    }

    /// Read the decoded op at arena position `pos`.
    #[inline]
    pub fn op(&self, pos: u32) -> DecodedOp {
        self.ops[pos as usize]
    }

    /// The `(start, end)` arena run of the block starting at `pc`, decoding
    /// it first if necessary. Returns `None` exactly when
    /// [`Program::fetch`] would (pc outside the code region or misaligned),
    /// so the caller reports the same illegal-pc error the interpreter
    /// does.
    pub fn block_at(
        &mut self,
        pc: u64,
        program: &Program,
        costs: &ScaledCosts,
    ) -> Option<(u32, u32)> {
        if program.code_digest() != self.built_digest || self.ops.len() >= ARENA_CAP {
            self.flush(program);
        }
        if pc < CODE_BASE || !(pc - CODE_BASE).is_multiple_of(INSTR_BYTES) {
            return None;
        }
        let idx = ((pc - CODE_BASE) / INSTR_BYTES) as usize;
        let slot = *self.blocks.get(idx)?;
        if slot != EMPTY {
            self.stats.hits += 1;
            return Some(slot);
        }
        let start = self.ops.len() as u32;
        let mut p = pc;
        loop {
            let instr = program.fetch(p)?;
            let units = costs.units_of(&instr);
            self.ops.push(DecodedOp {
                instr,
                units: u32::try_from(units).expect("issue cost fits u32"),
                mem: MemClass::of(&instr),
            });
            let next = p + INSTR_BYTES;
            // Stop after block enders, at line boundaries (a block never
            // spans two I-cache lines, which is what makes one fetch-window
            // check per block entry exact), and at the end of the image.
            if instr.ends_decode_block()
                || line_of(next) != line_of(pc)
                || program.fetch(next).is_none()
            {
                break;
            }
            p = next;
        }
        let end = self.ops.len() as u32;
        self.blocks[idx] = (start, end);
        self.stats.builds += 1;
        Some((start, end))
    }

    /// Drop every block starting on `line` (a line-aligned byte address).
    /// Called for `icbi` broadcasts that overlap the code region — the same
    /// event that applies staged code patches, so no block can survive with
    /// pre-patch instruction values.
    pub fn invalidate_line(&mut self, line: u64) {
        self.stats.invalidations += 1;
        let first = (line.saturating_sub(CODE_BASE) / INSTR_BYTES) as usize;
        let count = (sim_isa::LINE_BYTES / INSTR_BYTES) as usize;
        let hi = self.blocks.len().min(first + count);
        if line >= CODE_BASE {
            for slot in &mut self.blocks[first.min(hi)..hi] {
                *slot = EMPTY;
            }
        }
    }

    /// Record that `line`'s code just changed under an `icbi` broadcast:
    /// drop its blocks and adopt the program's new digest. Sound at line
    /// granularity because the caller patches only pcs on `line` — every
    /// other block still decodes identically from the new image.
    pub fn note_patched_line(&mut self, line: u64, program: &Program) {
        self.invalidate_line(line);
        self.built_digest = program.code_digest();
    }

    fn flush(&mut self, program: &Program) {
        self.ops.clear();
        self.blocks.fill(EMPTY);
        self.gen += 1;
        self.built_digest = program.code_digest();
        self.stats.invalidations += 1;
    }
}
