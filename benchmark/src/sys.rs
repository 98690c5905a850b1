//! What the benchmark asks of the operating system: CPU clocks, peak
//! resident memory, and confinement to one CPU (Linux only).

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the
    // duration of the call, and the clock ids are constants the kernel
    // defines; `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User + system CPU seconds consumed by every thread of this process
/// so far, live and exited — the scheduler's nanosecond accounting,
/// not the 10 ms ticks of `/proc/self/stat`.
pub fn process_cpu_seconds() -> f64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID) as f64 / 1e9
}

/// CPU nanoseconds consumed by the calling thread so far.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Confine the calling thread, and every thread it starts from now on,
/// to the highest-numbered CPU it may run on. Returns that CPU, or
/// `None` (and changes nothing) when the kernel refuses.
///
/// On the 2-vCPU nested VM this benchmark is built for, waking a
/// thread on the *other* vCPU costs 40–50 µs and whether that happens
/// is decided by scheduler placement that sticks for a whole process:
/// the same code measured 185 µs or 450 µs median latency from one run
/// to the next. On one CPU every wake-up is a local context switch.
pub fn confine_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is writable and `bytes` is its exact size; pid 0
    // is the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is readable and `bytes` is its exact size; pid 0 is
    // the calling thread.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work_and_rss_is_positive() {
        let (process, thread) = (process_cpu_seconds(), thread_cpu_ns());
        let mut x = 0u64;
        while thread_cpu_ns() - thread < 5_000_000 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_seconds() - process >= 0.004);
        assert!(peak_rss_mib() > 0.5);
    }

    #[test]
    fn confinement_is_inherited_by_new_threads() {
        // In a thread of its own: the test harness's other threads keep
        // their CPUs.
        std::thread::spawn(|| {
            let Some(cpu) = confine_to_one_cpu() else {
                return;
            };
            let child = std::thread::spawn(confine_to_one_cpu);
            assert_eq!(child.join().unwrap(), Some(cpu));
        })
        .join()
        .unwrap();
    }
}
