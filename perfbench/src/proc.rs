//! What the benchmark reads about its own process: CPU time (summed
//! over every thread, exited ones included), peak resident set, and
//! per-thread CPU time and context switches from `/proc/self/task`,
//! plus the host's steal share from `/proc/stat`; and the CPUs its
//! threads may run on.
//!
//! CPU time is the benchmark's clock because a hypervisor that steals
//! the vCPU stops it: stolen time inflates wall-clock figures but is
//! not charged to the process.

use std::fs;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1024 CPUs.
type CpuMask = [u64; 16];

/// The CPUs this process may run on, in increasing order: those of its
/// main thread, which the benchmark never pins.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    let main_thread = std::process::id() as i32;
    // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes into
    // the valid buffer `mask`.
    let rc =
        unsafe { sched_getaffinity(main_thread, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread to `cpu`; threads it starts afterwards
/// inherit the pin. Returns whether the kernel accepted it.
pub fn pin_current_thread(cpu: usize) -> bool {
    let mut mask: CpuMask = [0; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: pid 0 is the calling thread; the kernel reads
    // `size_of_val(&mask)` bytes from the valid buffer `mask`.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `long`s
    // on the 64-bit Linux targets this benchmark builds for), and both
    // clock ids are always supported, so the call only writes `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// User plus system CPU time of the whole process since it started:
/// every thread, including threads that have already exited.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

fn status_kib(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
}

/// Peak resident set (`VmHWM`) of the process, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:") as f64 / 1024.0
}

/// Clock ticks per second of `/proc/*/stat` times (`USER_HZ`, 100 on
/// every Linux ABI this benchmark builds for).
const USER_HZ: u64 = 100;

/// CPU time and context switches summed over the live threads of the
/// process whose name passes `pick`.
pub fn thread_totals(pick: impl Fn(&str) -> bool) -> (Duration, u64) {
    let (mut ticks, mut ctxsw) = (0u64, 0u64);
    for entry in fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
    {
        let base = entry.path();
        // A thread may exit between listing and reading: skip it.
        let (Ok(stat), Ok(status)) = (
            fs::read_to_string(base.join("stat")),
            fs::read_to_string(base.join("status")),
        ) else {
            continue;
        };
        // `comm` sits in parentheses and may hold spaces: parse after
        // the last ')'. utime and stime are fields 14 and 15.
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
            continue;
        };
        if !pick(&stat[open + 1..close]) {
            continue;
        }
        let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
        let field = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0)
        };
        ticks += field(11) + field(12);
        ctxsw += status
            .lines()
            .filter(|l| {
                l.starts_with("voluntary_ctxt_switches:")
                    || l.starts_with("nonvoluntary_ctxt_switches:")
            })
            .filter_map(|l| l.split(':').nth(1)?.trim().parse::<u64>().ok())
            .sum::<u64>();
    }
    (Duration::from_millis(ticks * 1000 / USER_HZ), ctxsw)
}

/// Host-wide `(steal, total)` jiffies from the aggregate `cpu` line of
/// `/proc/stat`; the share of a span is the ratio of two deltas.
pub fn steal_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    let total = v.iter().take(8).sum();
    (v.get(7).copied().unwrap_or(0), total)
}

/// Steal share between two [`steal_jiffies`] readings.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    let total = to.1.saturating_sub(from.1);
    if total == 0 {
        0.0
    } else {
        to.0.saturating_sub(from.0) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_a_thread_leaves_the_process_cpus_alone() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        let last = *cpus.last().unwrap();
        let pinned = std::thread::spawn(move || pin_current_thread(last))
            .join()
            .unwrap();
        assert!(pinned, "could not pin a thread to CPU {last}");
        assert_eq!(allowed_cpus(), cpus);
        assert!(!pin_current_thread(1 << 20));
    }
}
