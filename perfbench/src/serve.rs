//! `serve_open_loop`: an open-loop request stream into `vbatch-serve`
//! from one generator thread, at a fixed light rate, a fixed heavy
//! rate, and up a fixed geometric ladder to find the highest rate that
//! meets the latency limit without a growing backlog.
//!
//! The stream matches the repository's `serve_load` experiment: orders
//! 4–7, 64 tenants, 2 s deadlines. The service runs `nproc − 1` shards
//! (at least one), so generator plus shards fit the host's cores.
//!
//! Latency runs from a request's *due* time (its slot in the schedule)
//! to the moment the generator sees its ticket resolved. The generator
//! polls outstanding tickets with `try_wait` while it waits for the
//! next due time, so each outcome is stamped when it arrives, not when
//! a FIFO drain happens to reach it (draining in submission order
//! charges a request for every slower request ahead of it).

use std::time::{Duration, Instant};

use vbatch_rt::bench::monotonic_ns;
use vbatch_rt::rng::SmallRng;
use vbatch_rt::testgen::hashed_dense;
use vbatch_serve::{Outcome, RejectReason, ServeConfig, Service, SolveRequest, TenantId, Ticket};

use crate::host::nproc;
use crate::oracle::dense_ok;
use crate::span::Tracer;
use crate::stats::{median, percentile};
use crate::{Cfg, RunResult};

/// Light rate (req/s).
pub const LIGHT_RPS: f64 = 20_000.0;
/// Heavy rate (req/s). This benchmark's `max_rps` on the code it was
/// written against read about 220k req/s on a quiet 2-vCPU Xeon host
/// (one shard) but fell well below that while the host was contended;
/// 60k keeps the heavy segment clear of shedding in both states.
pub const HEAVY_RPS: f64 = 60_000.0;
/// The `max_rps` ladder: `LADDER_BASE · LADDER_RATIO^k`, k < LADDER_RUNGS
/// (20 000 to about 350 000 req/s).
pub const LADDER_BASE: f64 = 20_000.0;
pub const LADDER_RATIO: f64 = 1.05;
pub const LADDER_RUNGS: usize = 60;
/// A rung passes only with p99 at or under this limit,
pub const P99_LIMIT_US: f64 = 20_000.0;
/// the generator's median lateness at or under this (a generator that
/// cannot sustain the rate falls ever further behind),
pub const LAG_LIMIT_US: f64 = 100.0;
/// and completions keeping up with this share of the offered rate (a
/// growing backlog falls behind it).
pub const KEEP_UP: f64 = 0.98;
/// Latency percentiles are taken per window of this length; each window
/// holds at least 1000 requests at the light rate, so its p99 has ten
/// samples beyond it.
const WINDOW: Duration = Duration::from_millis(50);
/// Length of one ladder rung.
const RUNG_S: f64 = 0.2;
/// Requests per burst of the `tts_s` measurement.
const BURST: usize = 256;
const TENANTS: u64 = 64;
const DEADLINE: Duration = Duration::from_secs(2);
/// Tickets polled per generator spin.
const POLL_BUDGET: usize = 32;

pub fn config() -> ServeConfig {
    ServeConfig {
        shards: nproc().saturating_sub(1).max(1),
        // deep enough to ride out a few milliseconds of host jitter at
        // the top of the ladder, so shedding marks capacity, not noise
        queue_capacity: 4096,
        max_order: 16,
        class_capacity: 16,
        flush_watermark: Duration::from_micros(200),
        idle_tick: Duration::from_micros(500),
    }
}

/// Request `idx` of stream `stream`: (tenant, order, matrix, rhs).
pub fn request(stream: u64, idx: usize) -> (u64, usize, Vec<f64>, Vec<f64>) {
    let key = stream ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = SmallRng::seed_from_u64(key);
    let tenant = rng.gen_range(0u64..TENANTS);
    let n = 4 + rng.gen_range(0usize..4);
    let matrix = hashed_dense(n, key);
    let rhs = (0..n).map(|k| 1.0 + (k % 3) as f64).collect();
    (tenant, n, matrix, rhs)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fate {
    Solved,
    Wrong,
    Degraded,
    Shed,
    Expired,
    Other,
}

/// Classify an outcome, checking a `Solved` answer against its request.
pub fn judge(stream: u64, idx: usize, outcome: &Outcome<f64>) -> Fate {
    match outcome {
        Outcome::Solved { solution, .. } => {
            let (_, n, a, b) = request(stream, idx);
            if solution.len() == n && dense_ok(n, &a, solution, &b) {
                Fate::Solved
            } else {
                Fate::Wrong
            }
        }
        Outcome::Degraded { .. } => Fate::Degraded,
        Outcome::Rejected(RejectReason::QueueFull { .. }) => Fate::Shed,
        Outcome::Rejected(RejectReason::DeadlineExpired) => Fate::Expired,
        Outcome::Rejected(_) => Fate::Other,
    }
}

/// What one open-loop segment measured.
#[derive(Default)]
struct Segment {
    /// Per request: due time and latency in µs (∞ for a failed request).
    due_ns: Vec<u64>,
    lat_us: Vec<f64>,
    fates: Vec<Fate>,
    lag_us: Vec<f64>,
    submit_us: Vec<f64>,
    queue_max: usize,
    /// Completed (Solved) requests per second over the segment.
    achieved_rps: f64,
    flops_factor: f64,
    flops_apply: f64,
    span_s: f64,
}

impl Segment {
    fn count(&self, f: Fate) -> usize {
        self.fates.iter().filter(|x| **x == f).count()
    }

    fn failed(&self) -> usize {
        self.fates.iter().filter(|x| **x != Fate::Solved).count()
    }

    /// Median over [`WINDOW`]-long slices (by due time) of each slice's
    /// p50 and p99 latency, so a host stall moves one slice, not the
    /// result.
    fn windowed(&self) -> (f64, f64) {
        let (Some(&first), Some(&last)) = (self.due_ns.first(), self.due_ns.last()) else {
            return (f64::NAN, f64::NAN);
        };
        let width = WINDOW.as_nanos() as u64;
        let windows = ((last - first) / width).max(1) as usize;
        let mut slices = vec![Vec::new(); windows];
        for (d, l) in self.due_ns.iter().zip(&self.lat_us) {
            let w = (((d - first) / width) as usize).min(windows - 1);
            slices[w].push(*l);
        }
        let p50: Vec<f64> = slices.iter().map(|s| percentile(s, 0.50)).collect();
        let p99: Vec<f64> = slices.iter().map(|s| percentile(s, 0.99)).collect();
        (median(&p50), median(&p99))
    }

    fn passes_ladder(&self, rate: f64) -> bool {
        let p99 = percentile(&self.lat_us, 0.99);
        self.failed() == 0
            && p99 <= P99_LIMIT_US
            && self.achieved_rps >= KEEP_UP * rate
            && median(&self.lag_us) <= LAG_LIMIT_US
    }
}

/// Drive `count` requests of `stream` at `rate` req/s (`rate == 0`:
/// all at once) and collect every outcome.
fn segment(
    service: &Service<f64>,
    stream: u64,
    rate: f64,
    count: usize,
    tr: &mut Tracer,
) -> Segment {
    let span = tr.begin("bench.segment");
    let shards = config().shards;
    let mut seg = Segment {
        due_ns: vec![0; count],
        lat_us: vec![f64::INFINITY; count],
        fates: Vec::with_capacity(count),
        lag_us: Vec::with_capacity(count),
        submit_us: Vec::with_capacity(count),
        ..Segment::default()
    };
    let mut slots: Vec<Option<Ticket<f64>>> = (0..count).map(|_| None).collect();
    let mut outcomes: Vec<Option<Outcome<f64>>> = (0..count).map(|_| None).collect();
    let mut lo = 0usize;
    let mut cursor = 0usize;

    // Poll up to `budget` outstanding tickets among the first `sent`.
    let mut poll = |slots: &mut [Option<Ticket<f64>>],
                    outcomes: &mut [Option<Outcome<f64>>],
                    seg: &mut Segment,
                    sent: usize,
                    budget: usize| {
        while lo < sent && slots[lo].is_none() {
            lo += 1;
        }
        if cursor < lo || cursor >= sent {
            cursor = lo;
        }
        let mut polled = 0;
        let mut steps = 0;
        while polled < budget && steps < sent - lo {
            steps += 1;
            if let Some(t) = slots[cursor].take() {
                polled += 1;
                match t.try_wait() {
                    Ok(o) => {
                        let now = monotonic_ns();
                        seg.lat_us[cursor] = now.saturating_sub(seg.due_ns[cursor]) as f64 / 1e3;
                        outcomes[cursor] = Some(o);
                    }
                    Err(t) => slots[cursor] = Some(t),
                }
            }
            cursor += 1;
            if cursor >= sent {
                cursor = lo;
            }
        }
    };

    let gap_ns = if rate > 0.0 { 1e9 / rate } else { 0.0 };
    let start = monotonic_ns() + 200_000;
    while monotonic_ns() < start {
        std::hint::spin_loop();
    }
    for i in 0..count {
        // built ahead of its due time, so generation is off the clock
        let (tenant, n, matrix, rhs) = request(stream, i);
        let mut req = SolveRequest {
            tenant: TenantId(tenant),
            n,
            matrix,
            rhs,
            deadline_ns: 0,
        };
        let due = start + (i as f64 * gap_ns) as u64;
        seg.due_ns[i] = due;
        loop {
            if monotonic_ns() >= due {
                break;
            }
            poll(&mut slots, &mut outcomes, &mut seg, i, POLL_BUDGET);
        }
        req.deadline_ns = service.deadline_in(DEADLINE);
        let s = tr.begin("serve.submit");
        let t0 = monotonic_ns();
        let ticket = service.submit(req);
        let t1 = monotonic_ns();
        tr.end(s);
        seg.lag_us.push(t0.saturating_sub(due) as f64 / 1e3);
        seg.submit_us.push((t1 - t0) as f64 / 1e3);
        slots[i] = Some(ticket);
        if i % 64 == 0 {
            for sh in 0..shards {
                seg.queue_max = seg.queue_max.max(service.queue_depth(sh));
            }
        }
    }
    let give_up = Instant::now() + DEADLINE + Duration::from_secs(1);
    while slots.iter().any(Option::is_some) && Instant::now() < give_up {
        poll(&mut slots, &mut outcomes, &mut seg, count, POLL_BUDGET);
    }
    let last_done = seg
        .due_ns
        .iter()
        .zip(&seg.lat_us)
        .filter(|(_, l)| l.is_finite())
        .map(|(d, l)| *d + (*l * 1e3) as u64)
        .max()
        .unwrap_or(start);
    tr.end(span);

    tr.scope("bench.check", || {
        for (i, o) in outcomes.iter().enumerate() {
            let fate = o.as_ref().map_or(Fate::Other, |o| judge(stream, i, o));
            seg.fates.push(fate);
            if fate == Fate::Solved {
                let n = request(stream, i).1 as f64;
                seg.flops_factor += 2.0 / 3.0 * n * n * n;
                seg.flops_apply += 2.0 * n * n;
            } else {
                seg.lat_us[i] = f64::INFINITY;
            }
        }
    });
    seg.span_s = (last_done - start) as f64 / 1e9;
    seg.achieved_rps = seg.count(Fate::Solved) as f64 / seg.span_s.max(1e-9);
    seg
}

/// Fate counts of every segment run, kept after the segment is dropped.
#[derive(Default)]
struct Tally {
    counts: [usize; 6],
    queue_max: usize,
}

impl Tally {
    fn add(&mut self, seg: &Segment) {
        for f in &seg.fates {
            self.counts[*f as usize] += 1;
        }
        self.queue_max = self.queue_max.max(seg.queue_max);
    }

    fn get(&self, f: Fate) -> f64 {
        self.counts[f as usize] as f64
    }
}

/// Seeded supply of request-stream ids, one per segment.
struct Streams(u64);

impl Streams {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.0
    }
}

/// Count a finished segment into the run's totals.
fn tally_segment(seg: Segment, res: &mut RunResult, tally: &mut Tally) -> Segment {
    if seg.failed() > 0 {
        println!(
            "  segment of {}: wrong {} degraded {} shed {} expired {} other {}",
            seg.fates.len(),
            seg.count(Fate::Wrong),
            seg.count(Fate::Degraded),
            seg.count(Fate::Shed),
            seg.count(Fate::Expired),
            seg.count(Fate::Other)
        );
    }
    res.attempted += seg.fates.len() as u64;
    res.failed += seg.failed() as u64;
    res.wrong += seg.count(Fate::Wrong) as u64;
    tally.add(&seg);
    seg
}

/// One climb of the ladder from rung `first`: a rung passes if either
/// of two tries meets every limit; the climb stops after two failed
/// rungs in a row (once some rung passed) and returns the completion
/// rate of the highest passing rung, so one stall does not end the
/// search. Refused or late requests on a rung decide `max_rps`; only
/// wrong answers count as failed operations there.
fn climb(
    service: &Service<f64>,
    streams: &mut Streams,
    first: usize,
    res: &mut RunResult,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> f64 {
    let mut max_rps = f64::NAN;
    let mut failed_rungs = 0;
    'ladder: for k in first..LADDER_RUNGS {
        let rate = LADDER_BASE * LADDER_RATIO.powi(k as i32);
        for _try in 0..2 {
            let seg = segment(service, streams.next(), rate, (rate * RUNG_S) as usize, tr);
            res.attempted += seg.fates.len() as u64;
            res.failed += seg.count(Fate::Wrong) as u64;
            res.wrong += seg.count(Fate::Wrong) as u64;
            tally.add(&seg);
            let ok = seg.passes_ladder(rate);
            println!(
                "  rung {rate:>7.0} req/s: done {:>7.0}/s, p99 {:>8.1} us, lag p50 {:>6.1} us, not solved {:>5} -> {}",
                seg.achieved_rps,
                percentile(&seg.lat_us, 0.99),
                median(&seg.lag_us),
                seg.failed(),
                if ok { "pass" } else { "fail" }
            );
            if ok {
                max_rps = seg.achieved_rps;
                failed_rungs = 0;
                continue 'ladder;
            }
        }
        failed_rungs += 1;
        if failed_rungs == 2 && max_rps.is_finite() {
            break;
        }
    }
    max_rps
}

/// Set-up and burst samples, taken in four rounds spread over the run
/// so that one stretch of host noise cannot set them all.
#[derive(Default)]
struct Probes {
    /// `Service::start` until it accepts requests, seconds.
    starts: Vec<f64>,
    /// Back-to-back bursts of [`BURST`] requests.
    bursts: Vec<Segment>,
}

impl Probes {
    fn round(
        &mut self,
        service: &Service<f64>,
        streams: &mut Streams,
        res: &mut RunResult,
        tally: &mut Tally,
        tr: &mut Tracer,
    ) {
        for _ in 0..26 {
            let t = Instant::now();
            let svc = tr.scope("serve.start", || Service::<f64>::start(config()));
            self.starts.push(t.elapsed().as_secs_f64());
            let svc = svc.expect("valid service config");
            tr.scope("serve.shutdown", || svc.shutdown());
        }
        for _ in 0..8 {
            let seg = segment(service, streams.next(), 0.0, BURST, tr);
            self.bursts.push(tally_segment(seg, res, tally));
        }
    }
}

pub fn run(cfg: &Cfg, tr: &mut Tracer) -> RunResult {
    let mut res = RunResult::default();
    // The measured time goes 15% each to the light and heavy segments
    // and the rest to repeated ladder climbs.
    let seg_s = 0.15 * cfg.seconds;
    let ladder_s = 0.6 * cfg.seconds;
    res.notes
        .insert("shards".into(), config().shards.to_string());
    res.notes.insert("generator_threads".into(), "1".into());

    let service = tr
        .scope("serve.start", || Service::<f64>::start(config()))
        .expect("valid service config");
    let mut streams = Streams(cfg.seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
    let mut tally = Tally::default();
    let mut probes = Probes::default();

    // warm-up, unmeasured but checked
    let n_warm = (LIGHT_RPS * 0.1 * seg_s.min(1.0)) as usize;
    let warm = segment(&service, streams.next(), LIGHT_RPS, n_warm, tr);
    tally_segment(warm, &mut res, &mut tally);

    probes.round(&service, &mut streams, &mut res, &mut tally, tr);
    let n_light = (LIGHT_RPS * seg_s) as usize;
    let light = segment(&service, streams.next(), LIGHT_RPS, n_light, tr);
    let light = tally_segment(light, &mut res, &mut tally);
    probes.round(&service, &mut streams, &mut res, &mut tally, tr);
    let n_heavy = (HEAVY_RPS * seg_s) as usize;
    let heavy = segment(&service, streams.next(), HEAVY_RPS, n_heavy, tr);
    let heavy = tally_segment(heavy, &mut res, &mut tally);
    let (l50, l99) = light.windowed();
    let (h50, h99) = heavy.windowed();
    let submit: Vec<f64> = light
        .submit_us
        .iter()
        .chain(&heavy.submit_us)
        .copied()
        .collect();
    let lag_max = light
        .lag_us
        .iter()
        .chain(&heavy.lag_us)
        .fold(0.0f64, |m, v| m.max(*v));
    // A heavy segment that met every limit shows the rungs below it
    // pass; climbs start at the highest rung not above it.
    let first = if heavy.passes_ladder(HEAVY_RPS) {
        ((HEAVY_RPS / LADDER_BASE).ln() / LADDER_RATIO.ln()).floor() as usize
    } else {
        0
    };
    drop((light, heavy));
    probes.round(&service, &mut streams, &mut res, &mut tally, tr);

    // repeat climbs while a whole one still fits the ladder's share
    let mut climbs = Vec::new();
    let t_ladder = Instant::now();
    loop {
        let t = Instant::now();
        climbs.push(climb(
            &service,
            &mut streams,
            first,
            &mut res,
            &mut tally,
            tr,
        ));
        let spent = t_ladder.elapsed().as_secs_f64();
        if spent + t.elapsed().as_secs_f64() > ladder_s {
            break;
        }
    }
    probes.round(&service, &mut streams, &mut res, &mut tally, tr);
    tr.scope("serve.shutdown", || service.shutdown());

    res.primary_s = l50 * 1e-6;
    let bursts = &probes.bursts;
    let burst_s: Vec<f64> = bursts.iter().map(|b| b.span_s).collect();
    let burst_ff: Vec<f64> = bursts
        .iter()
        .map(|b| b.flops_factor / b.span_s / 1e9)
        .collect();
    let burst_fa: Vec<f64> = bursts
        .iter()
        .map(|b| b.flops_apply / b.span_s / 1e9)
        .collect();
    let passed: Vec<f64> = climbs.iter().copied().filter(|r| r.is_finite()).collect();

    let e = &mut res.e2e;
    e.insert("setup_s", median(&probes.starts));
    e.insert("tts_s", median(&burst_s));
    e.insert("iters", BURST as f64);
    e.insert("factor_gflops", median(&burst_ff));
    e.insert("apply_gflops", median(&burst_fa));
    e.insert("p50_us.light", l50);
    e.insert("p99_us.light", l99);
    e.insert("p50_us.heavy", h50);
    e.insert("p99_us.heavy", h99);
    e.insert("max_rps", median(&passed));

    let l = &mut res.layers;
    l.insert("serve.submit_us.p50", percentile(&submit, 0.50));
    l.insert("serve.submit_us.p99", percentile(&submit, 0.99));
    l.insert("serve.queue_depth_max", tally.queue_max as f64);
    l.insert("serve.solved", tally.get(Fate::Solved));
    l.insert("serve.degraded", tally.get(Fate::Degraded));
    l.insert("serve.shed", tally.get(Fate::Shed));
    l.insert("serve.expired", tally.get(Fate::Expired));
    l.insert("serve.gen_lag_us.max", lag_max);
    res.notes
        .insert("max_rps.climbs".into(), format!("{climbs:.0?}"));
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbatch_core::DenseMat;
    use vbatch_exec::{BlockHealth, BlockStatus, KernelChoice};

    #[test]
    fn judge_fails_corrupted_degraded_and_refused_answers() {
        let (stream, idx) = (9, 3);
        let (_, n, a, b) = request(stream, idx);
        let x =
            vbatch_core::solve_system(&DenseMat::from_col_major(n, n, &a), &b).expect("solvable");
        let status = BlockStatus::factorized(KernelChoice::SmallLu);
        let solved = |solution: Vec<f64>| Outcome::Solved {
            solution,
            status: status.clone(),
        };
        assert_eq!(judge(stream, idx, &solved(x.clone())), Fate::Solved);
        let mut bad = x.clone();
        bad[n - 1] += 1e-6;
        assert_eq!(judge(stream, idx, &solved(bad)), Fate::Wrong);
        assert_eq!(
            judge(stream, idx, &solved(x[..n - 1].to_vec())),
            Fate::Wrong
        );
        let degraded = Outcome::Degraded {
            solution: x,
            reason: BlockHealth::Singular,
            status: status.clone(),
        };
        assert_eq!(judge(stream, idx, &degraded), Fate::Degraded);
        let shed = Outcome::Rejected(RejectReason::QueueFull {
            retry_after: Duration::from_millis(1),
        });
        assert_eq!(judge(stream, idx, &shed), Fate::Shed);
    }

    #[test]
    fn requests_are_a_function_of_stream_and_index() {
        assert_eq!(request(5, 17), request(5, 17));
        assert_ne!(request(5, 17).2, request(6, 17).2);
        let (_, n, a, b) = request(5, 17);
        assert!((4..=7).contains(&n) && a.len() == n * n && b.len() == n);
    }
}
