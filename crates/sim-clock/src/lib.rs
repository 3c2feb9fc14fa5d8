//! Simulation clock and hardware cost models shared by every substrate of the
//! Plinius reproduction.
//!
//! The original Plinius evaluation (DSN'21) ran on two physical servers:
//!
//! * **sgx-emlPM** — real Intel SGX, persistent memory *emulated* with a Ramdisk
//!   (quad-core Xeon E3-1270 @ 3.80 GHz);
//! * **emlSGX-PM** — real Intel Optane DC persistent memory, SGX run in
//!   *simulation mode* (dual-socket Xeon Gold 5215 @ 2.50 GHz).
//!
//! Neither SGX hardware nor Optane DIMMs are available to this reproduction, so all
//! latency-relevant hardware effects are *modeled*: every component (enclave runtime,
//! persistent-memory device, SSD, crypto engine, training loop) charges a modeled cost
//! to a shared [`SimClock`], parameterised by a [`CostModel`] that encodes one of the two
//! server profiles. Functional behaviour (which bytes land where, what survives a crash,
//! what the loss curve looks like) is always real; only *time* is simulated.
//!
//! # Example
//!
//! ```
//! use sim_clock::{CostModel, SimClock};
//!
//! let clock = SimClock::new();
//! let model = CostModel::sgx_eml_pm();
//! // Charge the cost of one enclave transition (ecall or ocall).
//! clock.advance_ns(model.enclave_transition_ns());
//! assert!(clock.now_ns() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub mod cost;
pub mod latency;
pub mod stats;

pub use cost::{CostModel, DeviceKind, ServerProfile};
pub use latency::{LatencyHistogram, LatencySummary};
pub use stats::{Metric, StatsHandle, StatsRegistry};

/// A monotonically increasing simulated nanosecond counter.
///
/// The clock is cheap to clone through [`ClockHandle`] (an `Arc`); all substrates of a
/// simulation share one instance so that modeled latencies compose additively.
#[derive(Debug, Default)]
pub struct SimClock {
    ns: AtomicU64,
}

/// Shared handle to a [`SimClock`].
pub type ClockHandle = Arc<SimClock>;

impl SimClock {
    /// Creates a new clock starting at zero, wrapped in an [`Arc`] for sharing.
    pub fn new() -> ClockHandle {
        Arc::new(SimClock {
            ns: AtomicU64::new(0),
        })
    }

    /// Advances the clock by `ns` simulated nanoseconds and returns the new time.
    pub fn advance_ns(&self, ns: u64) -> u64 {
        self.ns.fetch_add(ns, Ordering::Relaxed) + ns
    }

    /// Advances the clock by a [`Duration`].
    pub fn advance(&self, d: Duration) -> u64 {
        self.advance_ns(d.as_nanos() as u64)
    }

    /// Returns the current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Advances the clock to `target_ns` if it is still behind that instant, and
    /// returns the (possibly unchanged) current time. The clock never moves backwards:
    /// a target in the past is a no-op.
    ///
    /// This is the building block of parallel-lane accounting (see
    /// [`SimSpan::overlap`]): a lane that forked at `f` and consumed `d` simulated
    /// nanoseconds joins with `advance_to(f + d)`, charging only the part of the lane
    /// that was *not* hidden behind work already charged to the clock.
    pub fn advance_to(&self, target_ns: u64) -> u64 {
        let mut current = self.ns.load(Ordering::Relaxed);
        while current < target_ns {
            match self.ns.compare_exchange_weak(
                current,
                target_ns,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return target_ns,
                Err(observed) => current = observed,
            }
        }
        current
    }

    /// Returns the current simulated time as a [`Duration`].
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.now_ns())
    }

    /// Resets the clock back to zero.
    ///
    /// Useful between benchmark repetitions so that each measurement starts from a
    /// clean baseline.
    pub fn reset(&self) {
        self.ns.store(0, Ordering::Relaxed);
    }

    /// Runs `f` and returns the simulated nanoseconds it charged to this clock,
    /// together with its return value.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> (T, u64) {
        let start = self.now_ns();
        let out = f();
        (out, self.now_ns() - start)
    }
}

impl fmt::Display for SimClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6} s (simulated)", self.now_ns() as f64 / 1e9)
    }
}

/// A span measured on a [`SimClock`]: start time, end time and helper accessors.
///
/// Harness binaries use spans to report per-phase breakdowns (e.g. "encrypt" vs
/// "write to PM" inside a mirror-out).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimSpan {
    /// Simulated start time in nanoseconds.
    pub start_ns: u64,
    /// Simulated end time in nanoseconds.
    pub end_ns: u64,
}

impl SimSpan {
    /// Measures the simulated time consumed by `f` on `clock`.
    pub fn record<T>(clock: &SimClock, f: impl FnOnce() -> T) -> (T, SimSpan) {
        let start_ns = clock.now_ns();
        let out = f();
        let end_ns = clock.now_ns();
        (out, SimSpan { start_ns, end_ns })
    }

    /// Parallel-lane accounting: joins a lane that forked from the main timeline at
    /// `fork_ns` and consumed `lane_ns` of simulated time *in parallel* with whatever
    /// has been charged to `clock` since the fork.
    ///
    /// The clock is advanced to `fork_ns + lane_ns` only if it is still behind that
    /// instant — i.e. the join charges `max(main lane, parallel lane)` rather than
    /// their sum, which is exactly the overlap model of a pipelined save: work hidden
    /// behind compute costs nothing, and only the *residual* (the part of the lane
    /// that outlived the main-lane work) shows up as simulated time.
    ///
    /// The returned span covers the join itself; its [`SimSpan::nanos`] is the
    /// residual charge (zero when the lane was fully hidden). The accounting is
    /// deterministic: it depends only on `fork_ns`, `lane_ns` and the charges made to
    /// the clock between fork and join, never on wall-clock thread scheduling.
    pub fn overlap(clock: &SimClock, fork_ns: u64, lane_ns: u64) -> SimSpan {
        let start_ns = clock.now_ns();
        let end_ns = clock.advance_to(fork_ns.saturating_add(lane_ns));
        SimSpan { start_ns, end_ns }
    }

    /// Span length in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Span length in (fractional) milliseconds.
    pub fn millis(&self) -> f64 {
        self.nanos() as f64 / 1e6
    }

    /// Span length as a [`Duration`].
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.nanos())
    }
}

impl fmt::Display for SimSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ms", self.millis())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero() {
        let clock = SimClock::new();
        assert_eq!(clock.now_ns(), 0);
        assert_eq!(clock.now(), Duration::ZERO);
    }

    #[test]
    fn advance_accumulates() {
        let clock = SimClock::new();
        clock.advance_ns(10);
        clock.advance_ns(32);
        assert_eq!(clock.now_ns(), 42);
    }

    #[test]
    fn advance_duration() {
        let clock = SimClock::new();
        clock.advance(Duration::from_micros(3));
        assert_eq!(clock.now_ns(), 3_000);
    }

    #[test]
    fn reset_zeroes_clock() {
        let clock = SimClock::new();
        clock.advance_ns(1_000);
        clock.reset();
        assert_eq!(clock.now_ns(), 0);
    }

    #[test]
    fn measure_reports_charged_time() {
        let clock = SimClock::new();
        let (value, spent) = clock.measure(|| {
            clock.advance_ns(500);
            7
        });
        assert_eq!(value, 7);
        assert_eq!(spent, 500);
    }

    #[test]
    fn span_records_interval() {
        let clock = SimClock::new();
        clock.advance_ns(100);
        let ((), span) = SimSpan::record(&clock, || {
            clock.advance_ns(250);
        });
        assert_eq!(span.start_ns, 100);
        assert_eq!(span.end_ns, 350);
        assert_eq!(span.nanos(), 250);
        assert!((span.millis() - 0.00025).abs() < 1e-12);
    }

    #[test]
    fn advance_to_is_monotonic() {
        let clock = SimClock::new();
        clock.advance_ns(100);
        // Target in the future: the clock jumps to it.
        assert_eq!(clock.advance_to(250), 250);
        assert_eq!(clock.now_ns(), 250);
        // Target in the past: no-op, never rewinds.
        assert_eq!(clock.advance_to(50), 250);
        assert_eq!(clock.now_ns(), 250);
        // Target at the present: no-op.
        assert_eq!(clock.advance_to(250), 250);
    }

    #[test]
    fn overlap_charges_only_the_residual_lane_time() {
        // Lane forks at 100 with 300 ns of work; the main lane charges 200 ns before
        // the join. The join must add only the 100 ns the lane was NOT hidden.
        let clock = SimClock::new();
        clock.advance_ns(100);
        let fork = clock.now_ns();
        clock.advance_ns(200); // main-lane work between fork and join
        let span = SimSpan::overlap(&clock, fork, 300);
        assert_eq!(span.nanos(), 100);
        assert_eq!(clock.now_ns(), 400); // fork + max(200, 300)
    }

    #[test]
    fn overlap_is_free_when_the_lane_is_fully_hidden() {
        let clock = SimClock::new();
        let fork = clock.now_ns();
        clock.advance_ns(500); // main lane dominates
        let span = SimSpan::overlap(&clock, fork, 300);
        assert_eq!(span.nanos(), 0);
        assert_eq!(clock.now_ns(), 500); // max(500, 300), not 800
    }

    #[test]
    fn overlap_with_no_main_lane_work_charges_the_whole_lane() {
        let clock = SimClock::new();
        clock.advance_ns(42);
        let fork = clock.now_ns();
        let span = SimSpan::overlap(&clock, fork, 1_000);
        assert_eq!(span.nanos(), 1_000);
        assert_eq!(clock.now_ns(), 1_042);
    }

    #[test]
    fn clock_is_shared_across_threads() {
        let clock = SimClock::new();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&clock);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.advance_ns(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(clock.now_ns(), 4_000);
    }

    #[test]
    fn display_formats_seconds() {
        let clock = SimClock::new();
        clock.advance_ns(1_500_000_000);
        assert_eq!(format!("{clock}"), "1.500000 s (simulated)");
    }
}
