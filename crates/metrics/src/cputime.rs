//! The calling thread's CPU-time clock without `libc`: raw
//! `clock_gettime(2)`.
//!
//! The profiler needs one reading the standard library does not expose:
//! the calling thread's own CPU time (`CLOCK_THREAD_CPUTIME_ID`). The
//! offline workspace has no crates.io access, so — exactly like the mmap
//! shim in `vlite-store` — this module issues the raw syscall itself on
//! Linux x86_64/aarch64 and degrades to "no reading" everywhere else.
//! Callers treat a zero reading as "CPU time unavailable", never as an
//! error.
//!
//! CPU-time clocks are *real* even when the serving runtime runs on a
//! `VirtualClock`: virtual time pins wall-clock determinism while the CPU
//! clock keeps counting actual cycles burned, which is exactly the
//! wall-vs-CPU split the per-stage profile reports.

/// The calling thread's consumed CPU time in nanoseconds, or `0` when the
/// platform offers no thread CPU clock (non-Linux targets, or a failed
/// syscall). Monotone non-decreasing within one thread.
pub fn self_cpu_nanos() -> u64 {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        sys::self_cpu_nanos().unwrap_or(0)
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    {
        0
    }
}

/// Whether this platform reports thread CPU time at all.
pub fn supported() -> bool {
    cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
}

/// The raw Linux syscall — this crate's entire unsafe surface.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[allow(unsafe_code)]
mod sys {
    #[cfg(target_arch = "x86_64")]
    const SYS_CLOCK_GETTIME: usize = 228;
    #[cfg(target_arch = "aarch64")]
    const SYS_CLOCK_GETTIME: usize = 113;

    /// The calling thread's own CPU-time clock (`<time.h>`'s
    /// `CLOCK_THREAD_CPUTIME_ID`).
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    /// `struct timespec` as `clock_gettime(2)` fills it on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    pub fn self_cpu_nanos() -> Option<u64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: clock_gettime(2) writes exactly one Timespec through the
        // second argument, which points at a live stack value of that exact
        // layout; the clockid is data, not memory.
        let ret = unsafe {
            syscall2(
                SYS_CLOCK_GETTIME,
                CLOCK_THREAD_CPUTIME_ID as isize as usize,
                std::ptr::addr_of_mut!(ts) as usize,
            )
        };
        let signed = ret as isize;
        // The kernel reports errors as -errno in [-4095, -1].
        if (-4095..0).contains(&signed) {
            return None;
        }
        #[allow(clippy::cast_sign_loss)]
        Some(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    }

    /// One two-argument Linux syscall.
    ///
    /// # Safety
    ///
    /// The caller must pass a valid syscall number and arguments satisfying
    /// that syscall's contract.
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall2(n: usize, a: usize, b: usize) -> usize {
        let ret;
        // SAFETY: the x86_64 Linux syscall ABI — number in rax, args in
        // rdi/rsi, rcx/r11 clobbered, result in rax.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") n => ret,
                in("rdi") a,
                in("rsi") b,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// One two-argument Linux syscall.
    ///
    /// # Safety
    ///
    /// The caller must pass a valid syscall number and arguments satisfying
    /// that syscall's contract.
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall2(n: usize, a: usize, b: usize) -> usize {
        let ret;
        // SAFETY: the aarch64 Linux syscall ABI — number in x8, args in
        // x0/x1, result in x0.
        unsafe {
            std::arch::asm!(
                "svc 0",
                in("x8") n,
                inlateout("x0") a => ret,
                in("x1") b,
                options(nostack),
            );
        }
        ret
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Burns CPU until the return value depends on real work (prevents the
    /// loop being optimised out).
    fn burn(iterations: u64) -> u64 {
        let mut acc = 0x9e37_79b9u64;
        for i in 0..iterations {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        acc
    }

    #[test]
    fn self_cpu_time_is_monotone_and_advances_with_work() {
        if !supported() {
            assert_eq!(self_cpu_nanos(), 0);
            return;
        }
        let before = self_cpu_nanos();
        let sink = burn(2_000_000);
        let after = self_cpu_nanos();
        assert!(sink != 0, "burn must not be optimised away");
        assert!(after >= before, "thread CPU time must be monotone");
        assert!(
            after > before,
            "2M multiply-adds must consume measurable CPU time ({before} -> {after})"
        );
    }
}
