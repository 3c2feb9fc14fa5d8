//! The host clocks a run reads besides the simulated one: wall time, and the
//! process CPU clock.
//!
//! The CPU clock counts the time every thread of the process spends running, in
//! user and kernel mode. On a virtual machine whose kernel accounts steal time
//! (`CONFIG_PARAVIRT_TIME_ACCOUNTING`), the time the hypervisor gives to other
//! machines is left out, so on a shared host it is far steadier than wall time.

use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux's process CPU clock through a 64-bit timespec");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time every thread of the process has used so far, exited threads included.
fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes only the timespec it is given, and `ts` is one.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Both host clocks, started together.
pub struct Stopwatch {
    cpu_ns: u64,
    wall: Instant,
}

/// Milliseconds on each host clock since a [`Stopwatch`] started.
#[derive(Clone, Copy, Debug, Default)]
pub struct Lap {
    pub wall_ms: f64,
    pub cpu_ms: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            cpu_ns: process_cpu_ns(),
            wall: Instant::now(),
        }
    }

    pub fn lap(&self) -> Lap {
        let wall_ms = self.wall.elapsed().as_secs_f64() * 1e3;
        Lap {
            wall_ms,
            cpu_ms: (process_cpu_ns() - self.cpu_ns) as f64 / 1e6,
        }
    }
}

/// The machine's steal and total CPU ticks so far, from `/proc/stat`; `None` where
/// the kernel does not report steal.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal ...: guest time is already in user.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The clock is process-wide, and tests run on parallel threads, so this checks
    /// only that it counts this thread's work and does not run backwards.
    #[test]
    fn the_cpu_clock_counts_work() {
        let watch = Stopwatch::start();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let busy = watch.lap();
        let later = watch.lap();
        assert!(busy.cpu_ms > 1.0, "{busy:?}");
        assert!(later.cpu_ms >= busy.cpu_ms && later.wall_ms >= busy.wall_ms);
    }
}
