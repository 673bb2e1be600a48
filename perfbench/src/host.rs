//! Measuring the host: the process's CPU time, and a reference loop that
//! tells how fast the host runs.
//!
//! The benchmark runs on virtual machines that share their physical cores.
//! There, a check's wall time moves with the host's load: the hypervisor
//! withholds CPU time from the VM, which stalls a check that keeps two
//! threads busy, and other tenants on the same cores slow every
//! instruction. Counting CPU time instead of wall time removes the first
//! effect. Dividing by the CPU time of a fixed reference loop, run between
//! the checks, removes most of the second: the result is a check's cost in
//! units of the host's speed during the run.

use std::collections::BTreeMap;
use std::hint::black_box;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// Seconds of CPU the process has used so far, on all its threads,
/// including threads that have exited. Time the hypervisor steals from the
/// virtual CPUs is not counted.
pub fn process_cpu_s() -> f64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable `timespec`, and the clock id is
    // one Linux always provides.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9
}

/// Keys the reference loop sorts and maps.
const REFERENCE_KEYS: u64 = 4096;

/// CPU seconds one pass of the reference loop takes: about 0.4 ms on a
/// 2.1 GHz Xeon core. The loop does a fixed amount of what the checker
/// does most (allocate, sort, build and probe an ordered map) and uses only
/// the standard library, so no change to the program can change it.
pub fn reference_cpu_s() -> f64 {
    let started = process_cpu_s();
    let mut keys: Vec<u64> = (0..REFERENCE_KEYS)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44)
        .collect();
    keys.sort_unstable();
    let table: BTreeMap<u64, usize> = keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    let found = keys
        .iter()
        .filter(|&&k| table.contains_key(&(k ^ 1)))
        .count();
    black_box(found);
    process_cpu_s() - started
}
