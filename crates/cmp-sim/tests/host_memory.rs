//! Host memory of a machine build: a machine's cache ways cost resident
//! memory only once a run touches them, so building a large machine is
//! cheap however big its caches are.

use cmp_sim::{MachineBuilder, SimConfig};
use sim_isa::Asm;

/// A 1024-core, 16-cluster machine has about 6.5 M cache ways (2,048 L1s,
/// 64 L2 banks and a 256 MiB L3). Writing every one of them at build time
/// made a build add about 157 MiB of RSS; an untouched zeroed arena adds
/// none of it.
#[cfg(target_os = "linux")]
#[test]
fn building_a_1024_core_machine_leaves_its_cache_ways_non_resident() {
    /// This process's resident set size in KiB (`VmRSS`).
    fn rss_kib() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|v| v.trim().parse().ok())
            .expect("a VmRSS line in /proc/self/status")
    }

    let mut a = Asm::new();
    a.label("entry").unwrap();
    a.halt();
    let program = a.assemble().unwrap();
    let config = SimConfig::clustered(1024, 16);

    let before = rss_kib();
    let machine = MachineBuilder::new(config, program)
        .unwrap()
        .build()
        .unwrap();
    let added = rss_kib().saturating_sub(before);
    std::hint::black_box(&machine);
    assert!(
        added < 16 * 1024,
        "building an empty 1024-core machine added {added} KiB of RSS (limit 16 MiB)"
    );
}
