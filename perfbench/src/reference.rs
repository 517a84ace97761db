//! The machine-speed reference.
//!
//! On a small shared machine the CPU runs faster in some minutes than in
//! others. On the 2-core VM this benchmark was sized on, a single-threaded
//! 10k-TDS S_Agg query took ~160 ms in some runs and ~250 ms in others,
//! and a pure CPU loop slowed down in step. Ten runs of the same code
//! spread by 24% (interquartile range over median) in p50. Journaled
//! loopback queries, mostly fsync, spread by 13%: fsync on a VM costs
//! hypervisor CPU, and their per-run p50 divided by this kernel's time
//! varied as little as it did divided by an fsync probe's (5% either way,
//! against 10% raw, over five runs).
//!
//! To cancel the machine's phases, every timing the benchmark takes
//! itself (each query, each set-up) is bracketed by passes of a fixed
//! kernel that lives here, outside the program, and reported as
//! `wall × NOMINAL_MS / kernel`, with `kernel` the mean of the passes just
//! before and just after it: the time the work would take on a machine
//! where the kernel takes [`NOMINAL_MS`]. Per query, not per run: the
//! machine's phases change within seconds, and one factor for a whole run
//! left ten runs of `crowd_sagg` 16% apart, against 3% per query. Only
//! code in this file decides the kernel's speed, so a change to the
//! program moves the normalised time exactly as it moves the wall time.
//! The traced run reports the raw wall-time p50 (`wall.query_ms_p50`) and
//! the median kernel time (`ref.kernel_ms`) beside it.

use std::time::Instant;

/// Kernel time this box shows in a typical minute; the unit the
/// normalised timings are expressed in.
pub const NOMINAL_MS: f64 = 4.5;

/// One kernel pass: a pseudo-random read-modify-write walk over a fresh
/// 2 MiB buffer — integer work, cache misses and page faults, the mix a
/// collection step has. Returns its wall time in ms.
pub fn kernel_ms() -> f64 {
    let start = Instant::now();
    let mut buf = vec![0u64; 1 << 18];
    let mask = buf.len() - 1;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for _ in 0..4 {
        for i in 0..buf.len() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) & mask;
            buf[j] = buf[j].wrapping_add(x ^ i as u64);
            acc = acc.wrapping_add(buf[i]);
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// `wall` (any unit) as normalised time, given the mean kernel time
/// measured around it.
pub fn normalise(wall: f64, kernel_ms: f64) -> f64 {
    wall * NOMINAL_MS / kernel_ms
}
