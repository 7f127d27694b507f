//! Seeded benchmark of the vbatch-lu workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <suite_bj|batch_lu|banded_precond|serve_open_loop> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It generates the workload's inputs from the seed, drives the public
//! API of the sparse, exec, precond, solver and serve crates from
//! outside, checks every answer, and prints one JSON object as the last
//! line of standard output. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the workload untraced and then traced (half the
//! time each) and reports the per-layer metrics, writing a chrome trace,
//! a per-layer table and a run manifest under
//! `$CARGO_TARGET_DIR/perfbench/` (default `target/perfbench/`).

mod batch_lu;
mod host;
mod krylov;
mod metrics;
mod oracle;
mod serve;
mod span;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use span::{unattributed_frac, Tracer};

/// What a workload runs with.
#[derive(Clone, Debug)]
pub struct Cfg {
    pub seed: u64,
    /// Measuring time; set-up (input generation, warm-up) comes on top.
    pub seconds: f64,
    /// Shrink inputs to smoke-test size.
    pub tiny: bool,
}

/// Computed work of one layer per pass: paper flop counts, bytes from
/// array sizes (cache misses ignored), and the seconds it took.
#[derive(Clone, Debug, Default)]
pub struct Work {
    pub flops: f64,
    pub bytes: f64,
    pub secs: f64,
}

#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    /// Operations that did not produce a checked answer: wrong answers,
    /// and for the service also refused and degraded requests.
    pub failed: u64,
    /// Answers the checks found wrong (a subset of `failed`).
    pub wrong: u64,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    pub work: BTreeMap<&'static str, Work>,
    /// The workload's headline time, for the trace-overhead ratio.
    pub primary_s: f64,
    pub notes: BTreeMap<String, String>,
}

pub fn run_workload(name: &str, cfg: &Cfg, tr: &mut Tracer) -> RunResult {
    match name {
        "suite_bj" => krylov::suite_bj(cfg, tr),
        "batch_lu" => batch_lu::run(cfg, tr),
        "banded_precond" => krylov::banded_precond(cfg, tr),
        "serve_open_loop" => serve::run(cfg, tr),
        _ => unreachable!("workload names are validated at parse time"),
    }
}

/// Why each workload exists, for the run manifest: its `why` line in
/// `BENCHMARK.json`.
fn rationale(name: &str) -> &'static str {
    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
    let key = format!("\"name\": \"{name}\", \"why\": \"");
    BENCHMARK
        .split_once(key.as_str())
        .and_then(|(_, rest)| rest.split_once('"'))
        .map_or("", |(why, _)| why)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}; 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("perfbench")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    list: &[metrics::Metric],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let mut m = String::new();
    for (i, (name, unit, _)) in list.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(f64::NAN);
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        );
    }
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}")
}

fn print_table(title: &str, list: &[metrics::Metric], values: &BTreeMap<&'static str, f64>) {
    println!("{title}");
    for (name, unit, better) in list {
        let v = values.get(name).copied().unwrap_or(f64::NAN);
        println!("  {name:<28} {v:>16.6} {unit:<9} ({better} is better)");
    }
}

/// Fold the computed work and the floor into the per-layer metrics.
fn score_work(res: &mut RunResult, floor: &host::Floor) {
    let keys = [
        (
            "exec",
            [
                "exec.flops",
                "exec.bytes",
                "exec.flops_per_byte",
                "exec.pct_floor",
            ],
        ),
        (
            "precond",
            [
                "precond.flops",
                "precond.bytes",
                "precond.flops_per_byte",
                "precond.pct_floor",
            ],
        ),
    ];
    for (layer, [k_flops, k_bytes, k_intensity, k_pct]) in keys {
        let w = res.work.get(layer).cloned().unwrap_or_default();
        if w.flops <= 0.0 || w.bytes <= 0.0 || w.secs <= 0.0 {
            continue;
        }
        let intensity = w.flops / w.bytes;
        let achieved = w.flops / w.secs / 1e9;
        res.layers.insert(k_flops, w.flops);
        res.layers.insert(k_bytes, w.bytes);
        res.layers.insert(k_intensity, intensity);
        res.layers
            .insert(k_pct, 100.0 * achieved / floor.roof_gflops(intensity));
    }
}

fn manifest(
    args: &Args,
    info: &host::HostInfo,
    res: &RunResult,
    extra: &[(String, String)],
) -> String {
    let mut fields: Vec<(String, String)> = vec![
        ("workload".into(), args.workload.clone()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), (args.trace as u8).to_string()),
        ("git_commit".into(), host::git_commit()),
        ("rustc".into(), host::RUSTC.into()),
        ("nproc".into(), info.nproc.to_string()),
        ("cpu".into(), info.cpu.clone()),
        ("caches".into(), info.caches_compact()),
        ("rationale".into(), rationale(&args.workload).into()),
    ];
    fields.extend(res.notes.iter().map(|(k, v)| (k.clone(), v.clone())));
    fields.extend(extra.iter().cloned());
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  {}: {}", json_string(k), json_string(v)))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let info = host::HostInfo::detect();
    let cfg = Cfg {
        seed: args.seed,
        seconds: args.seconds,
        tiny: false,
    };
    println!(
        "perfbench {} seed={} seconds={} trace={} | {} | nproc={} | {} | {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        info.cpu,
        info.nproc,
        info.caches_compact(),
        host::RUSTC
    );

    let (res, values, list, extra) = if !args.trace {
        let mut off = Tracer::new(false);
        let res = run_workload(&args.workload, &cfg, &mut off);
        let values = res.e2e.clone();
        (res, values, &END_TO_END[..], Vec::new())
    } else {
        // floor probe first, while no workload data is resident
        let llc = info.llc_bytes().unwrap_or(32 << 20);
        let floor = host::probe_floor(4 * llc, info.nproc);
        let half = Cfg {
            seconds: args.seconds / 2.0,
            ..cfg.clone()
        };
        let mut off = Tracer::new(false);
        let plain = run_workload(&args.workload, &half, &mut off);
        let mut tr = Tracer::new(true);
        let t0 = Instant::now();
        let mut res = run_workload(&args.workload, &half, &mut tr);
        let wall_s = t0.elapsed().as_secs_f64();
        res.attempted += plain.attempted;
        res.failed += plain.failed;
        res.wrong += plain.wrong;
        score_work(&mut res, &floor);
        // per pass, like the other per-layer times
        let passes = tr.spans().iter().map(|s| s.pass + 1).max().unwrap_or(1) as f64;
        for (layer, s) in tr.layer_self_s() {
            let key = match layer {
                "sparse" => "sparse.self_s",
                "exec" => "exec.self_s",
                "precond" => "precond.self_s",
                "solver" => "solver.self_s",
                "serve" => "serve.self_s",
                _ => "bench.self_s",
            };
            res.layers.insert(key, s / passes);
        }
        res.layers.insert("host.copy_gbs", floor.copy_gbs);
        res.layers.insert("host.fma_gflops", floor.fma_gflops);
        res.layers
            .insert("host.copy_array_bytes", floor.array_bytes as f64);
        res.layers.insert("host.llc_bytes", llc as f64);
        res.layers
            .insert("unattributed_frac", unattributed_frac(&tr, wall_s));
        res.layers
            .insert("trace_overhead_frac", res.primary_s / plain.primary_s - 1.0);
        let mut values: BTreeMap<&'static str, f64> =
            PER_LAYER.iter().map(|m| (m.0, 0.0)).collect();
        values.extend(res.layers.iter().map(|(k, v)| (*k, *v)));

        let dir = out_dir();
        let stem = format!("{}-seed{}", args.workload, args.seed);
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            std::fs::write(
                dir.join(format!("{stem}.trace.json")),
                tr.chrome_trace(200_000),
            )?;
            std::fs::write(dir.join(format!("{stem}.layers.txt")), tr.layer_table())
        });
        match written {
            Ok(()) => println!("trace and layer table in {}", dir.display()),
            Err(e) => eprintln!("perfbench: could not write trace files: {e}"),
        }
        println!("{}", tr.layer_table());
        let extra = vec![
            ("floor.threads".into(), floor.threads.to_string()),
            ("untraced.primary_s".into(), plain.primary_s.to_string()),
            ("traced.primary_s".into(), res.primary_s.to_string()),
        ];
        (res, values, &PER_LAYER[..], extra)
    };

    let text = manifest(&args, &info, &res, &extra);
    let dir = out_dir();
    let path = dir.join(format!(
        "{}-seed{}-trace{}.manifest.json",
        args.workload, args.seed, args.trace as u8
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &text)) {
        eprintln!("perfbench: could not write manifest: {e}");
    }
    print!("manifest {}:\n{text}", path.display());
    print_table(
        &format!(
            "{}: attempted {} failed {}",
            args.workload, res.attempted, res.failed
        ),
        list,
        &values,
    );
    let all_finite = list
        .iter()
        .all(|m| values.get(m.0).is_some_and(|v| v.is_finite()));
    let correct = res.wrong == 0 && all_finite;
    println!(
        "{}",
        result_line(correct, res.attempted.max(1), res.failed, list, &values)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke runs time things; running them one at a time keeps
    /// them from starving each other.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn tiny(name: &str) -> RunResult {
        let _one = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let cfg = Cfg {
            seed: 7,
            seconds: 0.05,
            tiny: true,
        };
        let mut tr = Tracer::new(true);
        let t0 = Instant::now();
        let res = run_workload(name, &cfg, &mut tr);
        let wall_s = t0.elapsed().as_secs_f64();
        assert!(res.attempted > 0, "{name}: nothing attempted");
        assert_eq!(res.wrong, 0, "{name}: wrong answers");
        for (m, _, _) in END_TO_END {
            let v = res.e2e.get(m).copied().unwrap_or(f64::NAN);
            assert!(v.is_finite() && v > 0.0, "{name}: {m} = {v}");
        }
        for k in res.layers.keys() {
            assert!(
                PER_LAYER.iter().any(|m| m.0 == *k),
                "{name}: unlisted layer metric {k}"
            );
        }
        let frac = unattributed_frac(&tr, wall_s);
        assert!((-0.01..0.5).contains(&frac), "{name}: unattributed {frac}");
        res
    }

    #[test]
    fn smoke_suite_bj() {
        let r = tiny("suite_bj");
        assert!(r.layers["precond.applies"] > 0.0);
    }

    #[test]
    fn smoke_batch_lu() {
        let r = tiny("batch_lu");
        assert!(r.layers["exec.factorize_s"] > 0.0);
    }

    #[test]
    fn smoke_banded_precond() {
        let r = tiny("banded_precond");
        assert!(r.layers["solver.iters.spike"] > 0.0);
        assert!(r.layers["precond.sweep_s"] > 0.0);
    }

    #[test]
    fn smoke_serve_open_loop() {
        let r = tiny("serve_open_loop");
        assert!(r.layers["serve.solved"] > 0.0);
    }

    #[test]
    fn every_workload_has_a_rationale() {
        for w in WORKLOADS {
            assert!(rationale(w).len() > 40, "{w}");
        }
        assert!(rationale("banded_precond").contains("circuit"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let values: BTreeMap<&'static str, f64> = END_TO_END.iter().map(|m| (m.0, 1.5)).collect();
        let line = result_line(true, 3, 0, &END_TO_END, &values);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        for (name, unit, _) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
    }
}
