//! The simulator's pinned-digest workloads, run by `fastbar throughput`.
//!
//! The paper's figures are about *simulated* cycles; this module fixes the
//! two workloads whose stats digests every engine change must reproduce
//! bit for bit:
//!
//! 1. `fig4_16core` — the Figure 4 barrier loop under every mechanism at
//!    16 cores, 64 × 64 barriers, the per-mechanism digests folded in
//!    [`BarrierMechanism::ALL`] order;
//! 2. `viterbi_k5_16t` — the Viterbi kernel (K=5, 96 data bits, 16
//!    threads, FilterD).
//!
//! `fastbar throughput --check` is the gate: both digests on the
//! production and on the reference engine. It does not time its runs, so
//! its `BENCH_throughput.json` is byte-identical run to run; the gated
//! timing is perfbench.

use barrier_filter::BarrierMechanism;
use cmp_sim::fnv64;
use kernels::RunSpec;

use crate::kernel_runs::viterbi;

/// Committed digest of the full `fig4_16core` workload (16 cores, 64 × 64
/// barriers, all mechanisms chained in [`BarrierMechanism::ALL`] order).
/// Every engine optimization must reproduce it bit-for-bit.
pub const EXPECTED_FIG4_16CORE_DIGEST: u64 = 0x0546_812c_cc90_cd5e;

/// Committed digest of the full `viterbi_k5_16t` workload (96 data bits,
/// 16 threads, FilterD).
pub const EXPECTED_VITERBI_K5_16T_DIGEST: u64 = 0x6694_92d6_5199_a9fb;

/// The two workloads with their committed digests, in [`suite_digests`]
/// order.
pub(crate) const PINNED: [(&str, u64); 2] = [
    ("fig4_16core", EXPECTED_FIG4_16CORE_DIGEST),
    ("viterbi_k5_16t", EXPECTED_VITERBI_K5_16T_DIGEST),
];

/// The per-mechanism [`RunSpec`]s of the fig4 workload: every mechanism
/// in [`BarrierMechanism::ALL`] at `cores` cores, `inner` × `outer`
/// barriers each.
pub fn fig4_specs(cores: usize, inner: u64, outer: u64) -> Vec<RunSpec> {
    BarrierMechanism::ALL
        .into_iter()
        .map(|mechanism| RunSpec::fig4(mechanism, cores, inner, outer))
        .collect()
}

/// Chain per-mechanism stats digests — which must be in
/// [`BarrierMechanism::ALL`] order — into the combined fig4 workload
/// digest (the value pinned by [`EXPECTED_FIG4_16CORE_DIGEST`]). Public
/// so a harness that runs the per-mechanism specs itself can check them
/// against the committed value.
pub fn fold_fig4_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = digests.into_iter().flat_map(u64::to_le_bytes).collect();
    fnv64(&bytes)
}

/// The suite's runs: the seven fig4 specs at 16 cores, then the Viterbi
/// spec. `quick` shrinks both for a smoke run, whose digests are not the
/// pinned ones.
pub(crate) fn suite_specs(quick: bool) -> Vec<RunSpec> {
    let (inner, outer, data_bits) = if quick { (8, 2, 24) } else { (64, 64, 96) };
    let mut specs = fig4_specs(16, inner, outer);
    specs.push(RunSpec::parallel(
        viterbi(data_bits),
        16,
        BarrierMechanism::FilterD,
    ));
    specs
}

/// The suite's two digests, in [`PINNED`] order, from the stats digests
/// of its runs in [`suite_specs`] order: the fig4 fold and the Viterbi
/// run's own digest.
///
/// # Panics
///
/// If `stats_digests` is empty.
pub(crate) fn suite_digests(stats_digests: &[u64]) -> [u64; 2] {
    let (&viterbi, fig4) = stats_digests
        .split_last()
        .expect("the suite has a viterbi run");
    [fold_fig4_digests(fig4.iter().copied()), viterbi]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fold_is_fnv64_over_little_endian_digests() {
        let (a, b) = (0x0123_4567_89ab_cdef_u64, 0xfedc_ba98_7654_3210_u64);
        let bytes = [a.to_le_bytes(), b.to_le_bytes()].concat();
        assert_eq!(fold_fig4_digests([a, b]), fnv64(&bytes));
    }

    #[test]
    fn the_suite_is_the_fig4_specs_then_viterbi() {
        let specs = suite_specs(false);
        assert_eq!(specs[..7], fig4_specs(16, 64, 64)[..]);
        assert_eq!(specs[7].workload.kind(), "viterbi");
        assert_eq!(suite_specs(true).len(), specs.len());
        let digests = [1, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(
            suite_digests(&digests),
            [fold_fig4_digests(1..=7), 8],
            "fold the fig4 runs, keep the viterbi run's digest"
        );
    }
}
