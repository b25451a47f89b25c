//! The clock job times are read from: this process's CPU time.
//!
//! The benchmark runs on a few virtual CPUs of a shared host. Wall
//! time there also counts the time the host gives the virtual CPU to
//! someone else, and the time other threads of the guest hold it. The
//! kernel's per-process CPU clock counts neither: with paravirtual
//! steal accounting it advances only while one of this process's
//! threads runs. With one worker it reads the job's wall time on a
//! quiet host; with several it reads their summed busy time.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time this process has used so far, in seconds.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`; the clock id is a
    // constant every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}
