//! Machine construction.

use std::fmt;

use sim_isa::{Program, Reg};

use crate::core::Core;
use crate::hook::BankHook;
use crate::hwnet::DedicatedNetwork;
use crate::machine::Machine;
use crate::mem::Memory;
use crate::trace::TraceSink;
use crate::SimConfig;

/// Errors detected while assembling a machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The configuration failed validation.
    InvalidConfig(String),
    /// More threads were added than the machine has cores.
    TooManyThreads {
        /// Threads requested.
        threads: usize,
        /// Cores available.
        cores: usize,
    },
    /// A hook was installed twice on the same bank.
    HookAlreadyInstalled {
        /// The contested bank.
        bank: usize,
    },
    /// A bank index was out of range.
    NoSuchBank {
        /// The offending index.
        bank: usize,
    },
    /// A thread entry point is outside the program image.
    BadEntry {
        /// The offending entry address.
        entry: u64,
    },
    /// A dedicated-network barrier group that could never fire: it has no
    /// members, or names a core twice or a core the machine lacks.
    BadHwGroup {
        /// The group's barrier id.
        id: u16,
        /// The members as configured.
        members: Vec<usize>,
        /// Cores the machine has.
        cores: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            BuildError::TooManyThreads { threads, cores } => {
                write!(
                    f,
                    "{threads} threads requested but only {cores} cores exist"
                )
            }
            BuildError::HookAlreadyInstalled { bank } => {
                write!(f, "bank {bank} already has a hook installed")
            }
            BuildError::NoSuchBank { bank } => write!(f, "bank {bank} does not exist"),
            BuildError::BadEntry { entry } => {
                write!(f, "thread entry {entry:#x} is outside the program image")
            }
            BuildError::BadHwGroup { id, members, cores } => write!(
                f,
                "hardware barrier group {id} over cores {members:?} can never fire: \
                 its members must be distinct cores of the {cores}-core machine"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

#[derive(Debug, Default)]
struct ThreadSpec {
    entry: u64,
    regs: Vec<(Reg, u64)>,
}

/// Builder for a [`Machine`]: program, initial memory image, threads, bank
/// hooks and hardware barrier groups.
///
/// The paper's setup maps one thread to each core, thread `t` on core `t`;
/// the builder automatically sets each thread's `tid` and `ntid` registers
/// at build time.
pub struct MachineBuilder {
    config: SimConfig,
    program: Program,
    mem: Memory,
    threads: Vec<ThreadSpec>,
    hooks: Vec<Option<Box<dyn BankHook>>>,
    hw_groups: Vec<(u16, Vec<usize>)>,
    sink: Option<Box<dyn TraceSink>>,
}

impl fmt::Debug for MachineBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MachineBuilder")
            .field("threads", &self.threads.len())
            .field("cores", &self.config.num_cores)
            .finish_non_exhaustive()
    }
}

impl MachineBuilder {
    /// Start building a machine for `program` under `config`.
    ///
    /// # Errors
    ///
    /// [`BuildError::InvalidConfig`] if the configuration is inconsistent.
    pub fn new(config: SimConfig, program: Program) -> Result<MachineBuilder, BuildError> {
        config.validate().map_err(BuildError::InvalidConfig)?;
        let banks = config.l2_banks;
        Ok(MachineBuilder {
            config,
            program,
            mem: Memory::new(),
            threads: Vec::new(),
            hooks: (0..banks).map(|_| None).collect(),
            hw_groups: Vec::new(),
            sink: None,
        })
    }

    /// The configuration this machine is being built with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Number of threads added so far.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Add a thread starting at `entry` (a label resolved through
    /// [`Program::require_symbol`] or a raw pc). Returns the thread id,
    /// which is also the core it runs on.
    pub fn add_thread(&mut self, entry: u64) -> usize {
        self.threads.push(ThreadSpec {
            entry,
            ..ThreadSpec::default()
        });
        self.threads.len() - 1
    }

    /// Preset an integer register of thread `tid`.
    ///
    /// # Panics
    ///
    /// Panics if `tid` has not been added.
    pub fn set_thread_reg(&mut self, tid: usize, r: Reg, v: u64) -> &mut MachineBuilder {
        self.threads[tid].regs.push((r, v));
        self
    }

    /// Write a u64 into the initial memory image.
    pub fn write_u64(&mut self, addr: u64, v: u64) -> &mut MachineBuilder {
        self.mem.write_u64(addr, v);
        self
    }

    /// Write an f64 into the initial memory image.
    pub fn write_f64(&mut self, addr: u64, v: f64) -> &mut MachineBuilder {
        self.mem.write_f64(addr, v);
        self
    }

    /// Write consecutive f64 values into the initial memory image.
    pub fn write_f64_slice(&mut self, addr: u64, values: &[f64]) -> &mut MachineBuilder {
        self.mem.write_f64_slice(addr, values);
        self
    }

    /// Write consecutive u64 values into the initial memory image.
    pub fn write_u64_slice(&mut self, addr: u64, values: &[u64]) -> &mut MachineBuilder {
        self.mem.write_u64_slice(addr, values);
        self
    }

    /// Attach a hook (a barrier filter bank) to L2 bank `bank`.
    ///
    /// # Errors
    ///
    /// [`BuildError::NoSuchBank`] or [`BuildError::HookAlreadyInstalled`].
    pub fn install_hook(&mut self, bank: usize, hook: Box<dyn BankHook>) -> Result<(), BuildError> {
        let slot = self
            .hooks
            .get_mut(bank)
            .ok_or(BuildError::NoSuchBank { bank })?;
        if slot.is_some() {
            return Err(BuildError::HookAlreadyInstalled { bank });
        }
        *slot = Some(hook);
        Ok(())
    }

    /// Configure dedicated-network barrier `id` over the given member cores.
    pub fn configure_hw_barrier(&mut self, id: u16, members: Vec<usize>) -> &mut MachineBuilder {
        self.hw_groups.push((id, members));
        self
    }

    /// Attach a trace sink; the machine streams every trace event to it.
    /// Sinks are pure observers; attaching one never changes simulated
    /// behaviour.
    pub fn with_trace_sink(&mut self, sink: Box<dyn TraceSink>) -> &mut MachineBuilder {
        self.sink = Some(sink);
        self
    }

    /// Finalize the machine.
    ///
    /// # Errors
    ///
    /// [`BuildError::TooManyThreads`], [`BuildError::BadEntry`] or
    /// [`BuildError::BadHwGroup`].
    pub fn build(self) -> Result<Machine, BuildError> {
        if self.threads.len() > self.config.num_cores {
            return Err(BuildError::TooManyThreads {
                threads: self.threads.len(),
                cores: self.config.num_cores,
            });
        }
        let ntid = self.threads.len() as u64;
        let mut cores: Vec<Core> = (0..self.config.num_cores).map(|_| Core::new()).collect();
        for (tid, spec) in self.threads.iter().enumerate() {
            if self.program.fetch(spec.entry).is_none() {
                return Err(BuildError::BadEntry { entry: spec.entry });
            }
            let core = &mut cores[tid];
            core.halted = false;
            core.pc = spec.entry;
            core.set_reg(Reg::TID, tid as u64);
            core.set_reg(Reg::NTID, ntid);
            for &(r, v) in &spec.regs {
                core.set_reg(r, v);
            }
        }
        for (id, members) in &self.hw_groups {
            let mut seen = vec![false; cores.len()];
            let fires = !members.is_empty()
                && members
                    .iter()
                    .all(|&m| m < seen.len() && !std::mem::replace(&mut seen[m], true));
            if !fires {
                return Err(BuildError::BadHwGroup {
                    id: *id,
                    members: members.clone(),
                    cores: cores.len(),
                });
            }
        }
        let mut hwnet = DedicatedNetwork::new(self.config.hw_barrier);
        for (id, members) in self.hw_groups {
            hwnet.configure_group(id, members);
        }
        Ok(Machine::from_builder(
            self.config,
            self.program,
            self.mem,
            cores,
            self.hooks,
            hwnet,
            self.sink,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::Asm;

    fn halt_program() -> Program {
        let mut a = Asm::new();
        a.label("entry").unwrap();
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn rejects_invalid_config() {
        let cfg = SimConfig {
            num_cores: 0,
            ..SimConfig::default()
        };
        assert!(matches!(
            MachineBuilder::new(cfg, halt_program()),
            Err(BuildError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rejects_too_many_threads() {
        let cfg = SimConfig::with_cores(1);
        let p = halt_program();
        let entry = p.require_symbol("entry").unwrap();
        let mut b = MachineBuilder::new(cfg, p).unwrap();
        b.add_thread(entry);
        b.add_thread(entry);
        assert!(matches!(
            b.build(),
            Err(BuildError::TooManyThreads {
                threads: 2,
                cores: 1
            })
        ));
    }

    #[test]
    fn rejects_bad_entry() {
        let cfg = SimConfig::with_cores(1);
        let mut b = MachineBuilder::new(cfg, halt_program()).unwrap();
        b.add_thread(0xdead_0000);
        assert!(matches!(b.build(), Err(BuildError::BadEntry { .. })));
    }

    #[test]
    fn duplicate_hook_rejected() {
        struct NullHook;
        impl crate::hook::BankHook for NullHook {
            fn on_invalidate(
                &mut self,
                _: u64,
                _: u64,
                _: &mut crate::hook::HookOutcome,
            ) -> Result<(), crate::hook::HookViolation> {
                Ok(())
            }
            fn on_fill_request(
                &mut self,
                _: u64,
                _: crate::hook::ParkToken,
                _: u64,
                _: &mut crate::hook::HookOutcome,
            ) -> Result<crate::hook::FillDecision, crate::hook::HookViolation> {
                Ok(crate::hook::FillDecision::NotMine)
            }
            fn on_cancel(&mut self, _: crate::hook::ParkToken) {}
        }
        let cfg = SimConfig::with_cores(1);
        let mut b = MachineBuilder::new(cfg, halt_program()).unwrap();
        b.install_hook(0, Box::new(NullHook)).unwrap();
        assert!(matches!(
            b.install_hook(0, Box::new(NullHook)),
            Err(BuildError::HookAlreadyInstalled { bank: 0 })
        ));
        assert!(matches!(
            b.install_hook(99, Box::new(NullHook)),
            Err(BuildError::NoSuchBank { bank: 99 })
        ));
    }

    #[test]
    fn tid_and_ntid_are_set() {
        let cfg = SimConfig::with_cores(4);
        let p = halt_program();
        let entry = p.require_symbol("entry").unwrap();
        let mut b = MachineBuilder::new(cfg, p).unwrap();
        for _ in 0..3 {
            b.add_thread(entry);
        }
        let m = b.build().unwrap();
        for t in 0..3 {
            assert_eq!(m.core_reg(t, Reg::TID), t as u64);
            assert_eq!(m.core_reg(t, Reg::NTID), 3);
        }
    }
}
