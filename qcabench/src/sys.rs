//! Process CPU time and peak resident memory from `getrusage(2)`.

use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

const _: () = assert!(
    std::mem::size_of::<Rusage>() == 144,
    "64-bit Linux struct rusage"
);

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn usage() -> Rusage {
    let mut u = Rusage::default();
    // SAFETY: `u` is a properly sized and aligned `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage failed");
    u
}

/// User plus system CPU time this process has used so far.
pub fn cpu_time() -> Duration {
    let u = usage();
    let us = (u.utime.sec + u.stime.sec) * 1_000_000 + u.utime.usec + u.stime.usec;
    Duration::from_micros(us as u64)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    usage().maxrss_kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_and_rss_is_plausible() {
        // Busy work the optimiser cannot fold away, until the kernel's CPU
        // accounting (tick-granular on some kernels) has moved.
        let t0 = cpu_time();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while cpu_time() == t0 && start.elapsed() < Duration::from_secs(5) {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i * i));
            }
        }
        assert!(cpu_time() > t0);
        let rss = peak_rss_mib();
        assert!(rss > 0.5 && rss < 100_000.0, "{rss}");
    }
}
