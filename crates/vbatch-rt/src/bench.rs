//! A minimal wall-clock micro-benchmark harness, used by
//! the `harness = false` bench targets. Each measurement warms up once,
//! then doubles the iteration count until the timed window exceeds a
//! floor, reporting ns/iter — enough to compare kernel variants without
//! an external benchmarking dependency.
//!
//! The harness reads time through [`monotonic_ns`], the process-wide
//! monotonic-clamped clock that `vbatch-trace` owns (it timestamps the
//! event rings); this module re-exports it together with [`MonoTimer`]
//! and [`RawClock`], so callers keep one import path for wall time.

use std::hint::black_box;
use std::time::Duration;
pub use vbatch_trace::clock::{monotonic_ns, MonoTimer, RawClock, StdClock};

/// Minimum measured window per benchmark; short enough for CI, long
/// enough to dominate timer noise on the block sizes we test.
const WINDOW: Duration = Duration::from_millis(200);

/// Hard cap on iterations so trivially cheap closures still terminate.
const MAX_ITERS: u64 = 1 << 22;

/// Time `f`, printing `label` and ns/iter.
pub fn bench<R>(label: &str, mut f: impl FnMut() -> R) {
    black_box(f());
    let mut iters = 1u64;
    loop {
        let start = monotonic_ns();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = Duration::from_nanos(monotonic_ns().saturating_sub(start));
        if elapsed >= WINDOW || iters >= MAX_ITERS {
            let per = elapsed.as_nanos() as f64 / iters as f64;
            println!("{label:<56} {per:>14.1} ns/iter  ({iters} iters)");
            return;
        }
        iters = iters.saturating_mul(2);
    }
}

/// Print a section header separating benchmark groups.
pub fn group(name: &str) {
    println!("\n== {name} ==");
}
