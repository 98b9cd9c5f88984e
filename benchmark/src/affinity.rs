//! CPU placement. On a two-core host the scheduler's choice of where the
//! server worker, the WAL commit thread, the device threads and the client
//! land moves throughput by more than 10 % from run to run, so the harness
//! fixes it: the system under test (server worker, acceptor, WAL commit
//! thread, and the session that loads the store) runs on [`SUT_CPU`]; the
//! load generator and the simulated hardware (the `MemDevice` I/O pools and
//! deadline timers, which spin to model 20 µs) run on [`HARNESS_CPU`].
//! Threads inherit the mask of the thread that spawns them, so pinning the
//! main thread before it constructs each part is all it takes.

pub const SUT_CPU: usize = 0;
pub const HARNESS_CPU: usize = 1;

/// Room for 1024 CPUs, the size glibc's `cpu_set_t` has.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, or `None` if the kernel refuses
/// to say.
pub fn current() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

/// Restricts the calling thread (and every thread it spawns from now on) to
/// `set`. Returns whether the kernel accepted it.
pub fn restrict(set: &CpuSet) -> bool {
    // SAFETY: `set` is a live buffer of exactly the size passed; pid 0 names
    // the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

/// Pins the calling thread to `cpu`. Fails (returning false, changing
/// nothing) on a host that lacks the CPU or forbids the call; the run then
/// proceeds unpinned and says so.
pub fn pin(cpu: usize) -> bool {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    restrict(&set)
}
