//! Host-side measurement: process CPU time, peak resident memory read
//! from `/proc`, and the median/tail-percentile rule every timing's
//! report uses.

use std::os::raw::{c_int, c_long};

/// The C library's `struct timespec` on Linux, where `time_t` is a
/// `long`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// Linux's clock of the calling process's CPU time: user + system, over
/// all its threads.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// Peak resident set size (`VmHWM`) in KiB from the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// This process's user + system CPU seconds so far, to the nanosecond.
///
/// `/proc/self/stat` counts CPU time in 10 ms ticks, too coarse for an
/// operation's run phase of a few milliseconds; the process CPU clock is
/// exact.
///
/// # Panics
///
/// Panics if the clock cannot be read: the benchmark cannot report
/// `cpu_s` without it.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call, and the clock id is one Linux defines; `clock_gettime` writes
    // only `*tp`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// This process's peak resident memory so far, in MiB.
///
/// # Panics
///
/// Panics if `/proc/self/status` is missing or has no `VmHWM` line.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("parse VmHWM from /proc/self/status") as f64 / 1024.0
}

/// A timing reported the way every benchmark timing is: the median, the
/// highest percentile with at least ten samples beyond it (if any), and
/// the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the samples (mean of the middle pair for even counts).
    pub median: f64,
    /// `(p, value)`: the highest whole percentile above the median that
    /// leaves at least ten samples beyond it, by the nearest-rank rule.
    pub tail: Option<(u32, f64)>,
    /// Number of samples.
    pub n: usize,
}

/// Summarise `samples` (which must not be empty).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summary of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    let tail = (51..100).rev().find_map(|p: u32| {
        let rank = (p as usize * n).div_ceil(100);
        (n - rank >= 10).then(|| (p, sorted[rank - 1]))
    });
    Summary { median, tail, n }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "median {:.6}", self.median)?;
        match self.tail {
            Some((p, v)) => write!(f, ", p{p} {v:.6}")?,
            None => write!(f, ", no tail percentile")?,
        }
        write!(f, " (n={})", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_advance_with_work_finer_than_a_tick() {
        let before = cpu_seconds();
        let mut x = 1u64;
        while cpu_seconds() - before < 0.002 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let spent = cpu_seconds() - before;
        // A 10 ms tick clock could only read 0 or at least 0.01 here.
        assert!((0.002..0.009).contains(&spent), "{spent}");
    }

    #[test]
    fn vm_hwm_is_parsed_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t    8123 kB\nVmRSS:\t 8000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(8123));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 8000 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.n, s.tail), (2.0, 3, None));
        assert_eq!(summarize(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond_it() {
        // Fewer than 20 samples: no percentile above the median has ten
        // samples beyond it.
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(summarize(&nineteen).tail, None);
        // 25 samples: p60 is rank 15, with ten samples beyond.
        let twenty_five: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(summarize(&twenty_five).tail, Some((60, 15.0)));
        // 100 samples: p90 is rank 90.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = summarize(&hundred);
        assert_eq!((s.median, s.tail, s.n), (50.5, Some((90, 90.0)), 100));
    }
}
