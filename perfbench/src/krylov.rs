//! The two IDR(4) time-to-solution workloads.
//!
//! * `suite_bj` — block-Jacobi on all 48 synthetic Table-I problems,
//!   the paper's own protocol (supervariable bound 32, small-size LU,
//!   full double precision, b = 1, relative residual 1e-6).
//! * `banded_precond` — block-Jacobi, block-ILU(0) and SPIKE on one
//!   seeded band with uniform 32-row partitions: the setup-heavy mirror
//!   of `suite_bj`, and the only workload that runs the BILU sweep and
//!   the SPIKE reduce.
//!
//! The benchmark makes the layer calls itself — blocking (`sparse`),
//! preconditioner setup (`precond`, which reaches `exec`), and IDR
//! (`solver`) with every preconditioner apply timed through a wrapper —
//! so each shows as its own span.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vbatch_core::Exec;
use vbatch_exec::{backend_for_exec, Backend, Phase, PrecisionPolicy};
use vbatch_precond::{
    BjMethod, BlockIlu0, BlockJacobi, BlockPreconditioner, PrecondKind, PrecondOptions,
    Preconditioner,
};
use vbatch_rt::rng::SmallRng;
use vbatch_solver::{idr, SolveParams, SpikeSolver};
use vbatch_sparse::{supervariable_blocking, BlockPartition, CooMatrix, CsrMatrix};

use crate::oracle::{krylov_ok, true_relres};
use crate::span::Tracer;
use crate::stats::{median, tail};
use crate::{Cfg, RunResult, Work};

/// Supervariable bound of the Table-I protocol.
const BOUND: usize = 32;
/// IDR shadow-space dimension.
const IDR_S: usize = 4;
/// The banded system: order, half-bandwidth, dominance, matrix seed.
const BAND: (usize, usize, f64, u64) = (65_536, 4, 1.2, 42);
const BAND_TINY: usize = 4_096;
/// Rows per partition of the banded workload.
const BAND_PART: usize = 32;

/// A preconditioner whose applies are timed (always) and traced (when
/// the recorder is on) as `precond.apply` spans.
struct Timed<'a, M: ?Sized> {
    inner: &'a M,
    log: Mutex<(&'a mut Tracer, Vec<f64>)>,
}

impl<'a, M: Preconditioner<f64> + ?Sized> Timed<'a, M> {
    fn new(inner: &'a M, tracer: &'a mut Tracer) -> Self {
        Timed {
            inner,
            log: Mutex::new((tracer, Vec::new())),
        }
    }

    /// Per-apply latencies in seconds.
    fn latencies(self) -> Vec<f64> {
        self.log.into_inner().expect("apply log poisoned").1
    }
}

impl<M: Preconditioner<f64> + ?Sized> Preconditioner<f64> for Timed<'_, M> {
    fn apply_inplace(&self, v: &mut [f64]) {
        let mut log = self.log.lock().expect("apply log poisoned");
        let span = log.0.begin("precond.apply");
        let t0 = Instant::now();
        self.inner.apply_inplace(v);
        let dt = t0.elapsed().as_secs_f64();
        log.0.end(span);
        log.1.push(dt);
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// One problem of a pass: the matrix, its right-hand side, and how the
/// partition is made.
struct Problem {
    a: CsrMatrix<f64>,
    b: Vec<f64>,
    /// `None`: supervariable blocking at [`BOUND`]; `Some(p)`: fixed.
    part: Option<BlockPartition>,
    kind: PrecondKind,
}

/// Per-pass sums.
#[derive(Default)]
struct Pass {
    setup_s: f64,
    tts_s: f64,
    iters: usize,
    blocking_s: f64,
    idr_s: f64,
    apply_s: f64,
    applies: usize,
    factor_flops: f64,
    factor_s: f64,
    apply_flops: f64,
    apply_bytes: f64,
    factor_bytes: f64,
    setup_by_kind: BTreeMap<&'static str, f64>,
    iters_by_kind: BTreeMap<&'static str, f64>,
    reported: BTreeMap<&'static str, f64>,
}

fn setup(
    kind: PrecondKind,
    a: &CsrMatrix<f64>,
    part: &BlockPartition,
    backend: &Arc<dyn Backend<f64>>,
) -> Result<Box<dyn Setup>, vbatch_core::FactorError> {
    let opts = PrecondOptions::default()
        .with_method(BjMethod::SmallLu)
        .with_precision(PrecisionPolicy::FullDp);
    let be = Arc::clone(backend);
    Ok(match kind {
        PrecondKind::BlockJacobi => Box::new(BlockJacobi::setup_opts(a, part, be, opts)?),
        PrecondKind::BlockIlu0 => Box::new(BlockIlu0::setup_opts(a, part, be, opts)?),
        PrecondKind::Spike => Box::new(SpikeSolver::setup_opts(a, part, be, opts)?),
    })
}

/// Object-safe view of a set-up block preconditioner.
trait Setup: Preconditioner<f64> {
    fn report(&self) -> vbatch_precond::SetupReport;
    fn applied(&self) -> vbatch_exec::ExecStats;
}

impl<M: BlockPreconditioner<f64>> Setup for M {
    fn report(&self) -> vbatch_precond::SetupReport {
        self.setup_report()
    }
    fn applied(&self) -> vbatch_exec::ExecStats {
        self.apply_stats()
    }
}

/// Solve every problem once, checking each answer.
fn run_pass(
    problems: &[Problem],
    backend: &Arc<dyn Backend<f64>>,
    tr: &mut Tracer,
    res: &mut RunResult,
    setup_lat: &mut Vec<f64>,
    solve_lat: &mut Vec<f64>,
) -> Pass {
    let mut p = Pass::default();
    let params = SolveParams::default();
    for prob in problems {
        res.attempted += 1;
        let label = prob.kind.label();
        let t0 = Instant::now();
        let part = match &prob.part {
            Some(part) => part.clone(),
            None => tr.scope("sparse.blocking", || supervariable_blocking(&prob.a, BOUND)),
        };
        let t_block = t0.elapsed().as_secs_f64();
        let setup_name = match prob.kind {
            PrecondKind::BlockJacobi => "precond.setup.bj",
            PrecondKind::BlockIlu0 => "precond.setup.bilu",
            PrecondKind::Spike => "precond.setup.spike",
        };
        let t1 = Instant::now();
        let m = tr.scope(setup_name, || setup(prob.kind, &prob.a, &part, backend));
        let t_setup = t1.elapsed().as_secs_f64();
        let m = match m {
            Ok(m) => m,
            Err(_) => {
                res.failed += 1;
                res.wrong += 1;
                continue;
            }
        };
        let span = tr.begin("solver.idr");
        let t2 = Instant::now();
        let timed = Timed::new(m.as_ref(), tr);
        let r = idr(&prob.a, &prob.b, IDR_S, &timed, &params);
        let t_idr = t2.elapsed().as_secs_f64();
        let lat = timed.latencies();
        tr.end(span);

        let ok = tr.scope("bench.check", || {
            krylov_ok(r.converged(), true_relres(&prob.a, &r.x, &prob.b))
        });
        if !ok {
            res.failed += 1;
            res.wrong += 1;
        }

        let rep = m.report();
        let applied = m.applied();
        let sizes = part.sizes();
        let sq: f64 = sizes.iter().map(|&n| (n * n) as f64).sum();
        let cube: f64 = sizes.iter().map(|&n| (n * n * n) as f64).sum();
        let apply_sum: f64 = lat.iter().sum();

        p.setup_s += t_block + t_setup;
        p.tts_s += t_block + t_setup + t_idr;
        p.iters += r.iterations;
        p.blocking_s += t_block;
        p.idr_s += t_idr;
        p.apply_s += apply_sum;
        p.applies += lat.len();
        p.factor_flops += 2.0 / 3.0 * cube;
        p.factor_s += rep.stats.phase_time(Phase::Factorize).as_secs_f64();
        p.factor_bytes += 2.0 * 8.0 * sq;
        p.apply_flops += 2.0 * sq * lat.len() as f64;
        p.apply_bytes += 8.0 * (sq + 2.0 * part.total() as f64) * lat.len() as f64;
        *p.setup_by_kind.entry(label).or_default() += t_setup;
        *p.iters_by_kind.entry(label).or_default() += r.iterations as f64;
        let mut add = |k: &'static str, v: f64| *p.reported.entry(k).or_default() += v;
        add(
            "sparse.extract_s",
            rep.stats.phase_time(Phase::Extract).as_secs_f64(),
        );
        add(
            "exec.factorize_s",
            rep.stats.phase_time(Phase::Factorize).as_secs_f64(),
        );
        add(
            "exec.reduce_s",
            rep.stats.phase_time(Phase::Reduce).as_secs_f64()
                + applied.phase_time(Phase::Reduce).as_secs_f64(),
        );
        add(
            "exec.apply_s",
            applied.phase_time(Phase::Apply).as_secs_f64(),
        );
        add(
            "precond.sweep_s",
            applied.phase_time(Phase::Sweep).as_secs_f64(),
        );
        add("exec.fallbacks", rep.fallback_blocks as f64);
        for (k, v) in rep.stats.kernel_histogram() {
            if let Some(name) = kernel_metric(k) {
                add(name, *v as f64);
            }
        }
        res.notes
            .entry(format!("histogram.{label}"))
            .or_insert_with(|| rep.stats.histogram_compact());
        res.notes
            .entry(format!("layout.{label}"))
            .or_insert_with(|| rep.stats.layout_compact());
        setup_lat.push(t_block + t_setup);
        solve_lat.push(t_block + t_setup + t_idr);
    }
    p
}

pub fn kernel_metric(label: &str) -> Option<&'static str> {
    match label {
        "small-lu" => Some("exec.blocks.small-lu"),
        "packed-lu" => Some("exec.blocks.packed-lu"),
        "gauss-huard" => Some("exec.blocks.gauss-huard"),
        _ => None,
    }
}

fn banded(n: usize, seed: u64) -> CsrMatrix<f64> {
    let (_, bw, dom, _) = BAND;
    let mut coo = CooMatrix::new(n, n);
    for (i, j, v) in vbatch_rt::testgen::banded_system_triplets(n, bw, dom, seed) {
        coo.push(i, j, v);
    }
    coo.to_csr()
}

fn suite_problems(cfg: &Cfg) -> Vec<Problem> {
    let mut suite = vbatch_sparse::table1_suite();
    if cfg.tiny {
        suite.sort_by_key(|p| p.size_hint());
        suite.truncate(3);
    }
    // The seed fixes the order the problems run in; the problems are
    // the suite's own.
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    for i in (1..suite.len()).rev() {
        suite.swap(i, rng.gen_range(0..i + 1));
    }
    suite
        .iter()
        .map(|p| {
            let a = p.build();
            Problem {
                b: vec![1.0; a.nrows()],
                a,
                part: None,
                kind: PrecondKind::BlockJacobi,
            }
        })
        .collect()
}

fn banded_problems(cfg: &Cfg) -> Vec<Problem> {
    let n = if cfg.tiny { BAND_TINY } else { BAND.0 };
    let a = banded(n, BAND.3);
    // The seed draws the right-hand side.
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let b: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..1.5)).collect();
    let part = BlockPartition::uniform(n, BAND_PART);
    PrecondKind::ALL
        .iter()
        .map(|&kind| Problem {
            a: a.clone(),
            b: b.clone(),
            part: Some(part.clone()),
            kind,
        })
        .collect()
}

pub fn suite_bj(cfg: &Cfg, tr: &mut Tracer) -> RunResult {
    let problems = tr.scope("bench.generate", || suite_problems(cfg));
    run(cfg, tr, &problems)
}

pub fn banded_precond(cfg: &Cfg, tr: &mut Tracer) -> RunResult {
    let problems = tr.scope("bench.generate", || banded_problems(cfg));
    run(cfg, tr, &problems)
}

fn run(cfg: &Cfg, tr: &mut Tracer, problems: &[Problem]) -> RunResult {
    let backend: Arc<dyn Backend<f64>> = backend_for_exec(Exec::Parallel);
    let mut res = RunResult::default();
    res.notes
        .insert("backend".into(), backend.name().to_string());
    // warm-up pass, checked but not measured: pages in the matrices and
    // the thread pool
    let warm = tr.begin("bench.warmup");
    {
        let mut off = Tracer::new(false);
        run_pass(
            problems,
            &backend,
            &mut off,
            &mut res,
            &mut Vec::new(),
            &mut Vec::new(),
        );
    }
    tr.end(warm);
    let mut passes = Vec::new();
    // Latencies per problem: the spread over problem sizes dominates
    // them, so their percentiles stay put under host noise that swamps
    // the tail of sub-millisecond applies.
    let mut setup_lat = Vec::new();
    let mut solve_lat = Vec::new();
    let t0 = Instant::now();
    while passes.len() < 3 || t0.elapsed().as_secs_f64() < cfg.seconds {
        tr.set_pass(passes.len() as u32);
        passes.push(run_pass(
            problems,
            &backend,
            tr,
            &mut res,
            &mut setup_lat,
            &mut solve_lat,
        ));
    }
    let np = passes.len() as f64;
    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let total = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).sum::<f64>();

    let tts = med(&|p| p.tts_s);
    res.primary_s = tts;
    let e = &mut res.e2e;
    e.insert("setup_s", med(&|p| p.setup_s));
    e.insert("tts_s", tts);
    e.insert("iters", med(&|p| p.iters as f64));
    e.insert("factor_gflops", med(&|p| p.factor_flops / p.factor_s / 1e9));
    e.insert("apply_gflops", med(&|p| p.apply_flops / p.apply_s / 1e9));
    let (q_light, tail_light) = tail(&setup_lat);
    let (q_heavy, tail_heavy) = tail(&solve_lat);
    e.insert("p50_us.light", median(&setup_lat) * 1e6);
    e.insert("p99_us.light", tail_light * 1e6);
    e.insert("p50_us.heavy", median(&solve_lat) * 1e6);
    e.insert("p99_us.heavy", tail_heavy * 1e6);
    e.insert("max_rps", med(&|p| problems.len() as f64 / p.tts_s));

    let l = &mut res.layers;
    l.insert("sparse.blocking_s", total(&|p| p.blocking_s) / np);
    l.insert("precond.apply_s", total(&|p| p.apply_s) / np);
    l.insert("precond.applies", total(&|p| p.applies as f64) / np);
    l.insert(
        "precond.apply_us_per_call",
        total(&|p| p.apply_s) / total(&|p| p.applies as f64) * 1e6,
    );
    l.insert("solver.idr_s", total(&|p| p.idr_s) / np);
    l.insert("solver.krylov_self_s", total(&|p| p.idr_s - p.apply_s) / np);
    for kind in PrecondKind::ALL {
        let k = kind.label();
        let setup = total(&|p| p.setup_by_kind.get(k).copied().unwrap_or(0.0)) / np;
        let iters = total(&|p| p.iters_by_kind.get(k).copied().unwrap_or(0.0)) / np;
        l.insert(setup_metric(kind), setup);
        l.insert(iters_metric(kind), iters);
    }
    let mut reported: BTreeMap<&'static str, f64> = BTreeMap::new();
    for p in &passes {
        for (k, v) in &p.reported {
            *reported.entry(k).or_default() += v / np;
        }
    }
    l.extend(reported);
    res.work.insert(
        "exec",
        Work {
            flops: total(&|p| p.factor_flops) / np,
            bytes: total(&|p| p.factor_bytes) / np,
            secs: total(&|p| p.factor_s) / np,
        },
    );
    res.work.insert(
        "precond",
        Work {
            flops: total(&|p| p.apply_flops) / np,
            bytes: total(&|p| p.apply_bytes) / np,
            secs: total(&|p| p.apply_s) / np,
        },
    );
    res.notes.insert("passes".into(), passes.len().to_string());
    res.notes
        .insert("samples.light".into(), setup_lat.len().to_string());
    res.notes
        .insert("samples.heavy".into(), solve_lat.len().to_string());
    res.notes
        .insert("tail_q.light".into(), format!("{q_light:.4}"));
    res.notes
        .insert("tail_q.heavy".into(), format!("{q_heavy:.4}"));
    res
}

fn setup_metric(kind: PrecondKind) -> &'static str {
    match kind {
        PrecondKind::BlockJacobi => "precond.setup_s.bj",
        PrecondKind::BlockIlu0 => "precond.setup_s.bilu",
        PrecondKind::Spike => "precond.setup_s.spike",
    }
}

fn iters_metric(kind: PrecondKind) -> &'static str {
    match kind {
        PrecondKind::BlockJacobi => "solver.iters.bj",
        PrecondKind::BlockIlu0 => "solver.iters.bilu",
        PrecondKind::Spike => "solver.iters.spike",
    }
}
