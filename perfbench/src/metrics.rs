//! The benchmark's metric names, units and directions — the one list
//! `BENCHMARK.json` mirrors (a test keeps the two in step).

/// (name, unit, better)
pub type Metric = (&'static str, &'static str, &'static str);

/// Reported by every workload in the untraced run. Where a metric's
/// meaning differs by workload, `perfbench/README.md` defines it.
pub const END_TO_END: [Metric; 10] = [
    ("setup_s", "s", "lower"),
    ("tts_s", "s", "lower"),
    ("iters", "count", "lower"),
    ("factor_gflops", "GFLOP/s", "higher"),
    ("apply_gflops", "GFLOP/s", "higher"),
    ("p50_us.light", "us", "lower"),
    ("p99_us.light", "us", "lower"),
    ("p50_us.heavy", "us", "lower"),
    ("p99_us.heavy", "us", "lower"),
    ("max_rps", "req/s", "higher"),
];

/// Reported by every workload in the traced run (0 where the workload
/// does not reach the layer). Times are per pass unless named otherwise.
pub const PER_LAYER: [Metric; 51] = [
    ("sparse.blocking_s", "s", "lower"),
    ("sparse.extract_s", "s", "lower"),
    ("sparse.self_s", "s", "lower"),
    ("exec.plan_s", "s", "lower"),
    ("exec.prepare_s", "s", "lower"),
    ("exec.factorize_s", "s", "lower"),
    ("exec.apply_s", "s", "lower"),
    ("exec.reduce_s", "s", "lower"),
    ("exec.blocks.small-lu", "count", "higher"),
    ("exec.blocks.packed-lu", "count", "higher"),
    ("exec.blocks.gauss-huard", "count", "higher"),
    ("exec.fallbacks", "count", "lower"),
    ("exec.self_s", "s", "lower"),
    ("exec.flops", "flop", "lower"),
    ("exec.bytes", "byte", "lower"),
    ("exec.flops_per_byte", "flop/byte", "higher"),
    ("exec.pct_floor", "%", "higher"),
    ("precond.setup_s.bj", "s", "lower"),
    ("precond.setup_s.bilu", "s", "lower"),
    ("precond.setup_s.spike", "s", "lower"),
    ("precond.apply_s", "s", "lower"),
    ("precond.applies", "count", "lower"),
    ("precond.apply_us_per_call", "us", "lower"),
    ("precond.sweep_s", "s", "lower"),
    ("precond.self_s", "s", "lower"),
    ("precond.flops", "flop", "lower"),
    ("precond.bytes", "byte", "lower"),
    ("precond.flops_per_byte", "flop/byte", "higher"),
    ("precond.pct_floor", "%", "higher"),
    ("solver.idr_s", "s", "lower"),
    ("solver.krylov_self_s", "s", "lower"),
    ("solver.iters.bj", "count", "lower"),
    ("solver.iters.bilu", "count", "lower"),
    ("solver.iters.spike", "count", "lower"),
    ("solver.self_s", "s", "lower"),
    ("serve.submit_us.p50", "us", "lower"),
    ("serve.submit_us.p99", "us", "lower"),
    ("serve.queue_depth_max", "count", "lower"),
    ("serve.solved", "count", "higher"),
    ("serve.degraded", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.expired", "count", "lower"),
    ("serve.gen_lag_us.max", "us", "lower"),
    ("serve.self_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("host.copy_gbs", "GB/s", "higher"),
    ("host.fma_gflops", "GFLOP/s", "higher"),
    ("host.copy_array_bytes", "byte", "higher"),
    ("host.llc_bytes", "byte", "higher"),
    ("unattributed_frac", "ratio", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
];

pub const WORKLOADS: [&str; 4] = ["suite_bj", "batch_lu", "banded_precond", "serve_open_loop"];

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory")
    }

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        all.extend(WORKLOADS);
        assert!(all.iter().all(|n| valid_name(n)));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate metric or workload name");
        for (_, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(unit.len() <= 16);
            assert!(*better == "lower" || *better == "higher");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let json = manifest();
        for (name, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
        let listed = json.matches("\"better\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        assert_eq!(json.matches("\"why\"").count(), WORKLOADS.len());
    }

    #[test]
    fn setup_s_is_a_lower_is_better_seconds_metric() {
        assert!(END_TO_END.contains(&("setup_s", "s", "lower")));
    }
}
