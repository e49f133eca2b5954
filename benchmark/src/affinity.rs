//! Pinning a workload to one CPU.
//!
//! On a virtual machine an idle core halts, and waking it costs an exit to
//! the hypervisor: on the calibration host a loopback round trip between
//! two threads took 43 µs across two cores and 4 µs on one, and the 43
//! moved with whatever else the host was running (run-to-run spread of
//! `net_mixed` up to 0.27). What a client thread and its connection
//! handler cost when they share a CPU is the program's; what a wake-up
//! across cores costs is the host's.

/// 1024 CPUs, the size of glibc's `cpu_set_t`.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on; `None` where that cannot be
/// asked.
fn allowed() -> Option<CpuSet> {
    #[cfg(target_os = "linux")]
    {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live buffer of the size passed; pid 0 is the
        // calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

fn allow(set: &CpuSet) -> bool {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `set` is a live buffer of the size passed.
        (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) }) == 0
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = set;
        false
    }
}

/// While alive, the calling thread — and every thread spawned after the
/// call — runs on one CPU only. Dropping it gives the calling thread its
/// CPUs back.
pub struct OneCpu {
    before: Option<CpuSet>,
}

impl OneCpu {
    /// Pin to the lowest CPU the calling thread may run on. Where the
    /// platform has no such call, nothing happens.
    pub fn pin() -> OneCpu {
        let before = allowed();
        let pinned = before.and_then(|set| {
            let word = set.iter().position(|&w| w != 0)?;
            let mut one: CpuSet = [0; 16];
            one[word] = 1 << set[word].trailing_zeros();
            allow(&one).then_some(())
        });
        OneCpu {
            before: pinned.and(before),
        }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if let Some(set) = &self.before {
            allow(set);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn pins_spawned_threads_and_restores() {
        let before = allowed().expect("linux answers");
        let cpus = |s: &CpuSet| s.iter().map(|w| w.count_ones()).sum::<u32>();
        {
            let _pin = OneCpu::pin();
            assert_eq!(cpus(&allowed().unwrap()), 1);
            let child = std::thread::spawn(allowed).join().unwrap().unwrap();
            assert_eq!(child, allowed().unwrap());
        }
        assert_eq!(allowed().unwrap(), before);
    }
}
