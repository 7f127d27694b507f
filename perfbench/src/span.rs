//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a library layer in a
//! span (`<layer>.<what>`). Spans nest through an explicit stack, stay
//! in memory while the workload runs, and are folded into per-layer
//! self times and written out as a chrome trace when it ends. A
//! disabled recorder does nothing, so the untraced run pays one branch
//! per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layers a span name may start with. `bench` is the harness's own
/// work (input generation, answer checks, client-side waiting).
pub const LAYERS: [&str; 6] = ["sparse", "exec", "precond", "solver", "serve", "bench"];

/// Parent index of a top-level span.
const ROOT: u32 = u32::MAX;

/// One closed (or still open) interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub pass: u32,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(u32);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    pass: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }

    /// Label the spans opened from now on with pass `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(ROOT);
        }
        debug_assert!(
            LAYERS.iter().any(|l| name.split('.').next() == Some(l)),
            "span {name} names no layer"
        );
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            pass: self.pass,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn end(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let top = self.stack.pop().expect("span stack underflow");
        assert_eq!(top, open.0, "spans must close in the order they opened");
        let now = self.now_ns();
        self.spans[top as usize].end_ns = now;
    }

    /// Time `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name);
        let r = f();
        self.end(s);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part its direct
    /// children cover (children lie inside their parent by construction).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
            .collect()
    }

    /// Summed self seconds per layer.
    pub fn layer_self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            let layer = layer_of(s.name);
            *out.entry(layer).or_insert(0.0) += ns as f64 * 1e-9;
        }
        out
    }

    /// Chrome-trace JSON (complete `X` events, one thread), at most
    /// `limit` events; the rest still count in the per-layer table.
    pub fn chrome_trace(&self, limit: usize) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"pass\":{},\"parent\":{}}}}}",
                s.name,
                layer_of(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.pass,
                if s.parent == ROOT { -1 } else { s.parent as i64 }
            );
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"spans\":{},\"exported\":{}}}}}",
            self.spans.len(),
            self.spans.len().min(limit)
        );
        out
    }

    /// Per-layer text table: span count, inclusive and self seconds.
    pub fn layer_table(&self) -> String {
        let self_ns = self.self_ns();
        let mut rows: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self_ns) {
            let r = rows.entry(s.name).or_insert((0, 0.0, 0.0));
            r.0 += 1;
            r.1 += (s.end_ns - s.start_ns) as f64 * 1e-9;
            r.2 += ns as f64 * 1e-9;
        }
        let mut out = format!(
            "{:<28} {:>9} {:>12} {:>12}\n",
            "span", "count", "total_s", "self_s"
        );
        for (name, (n, tot, own)) in rows {
            let _ = writeln!(out, "{name:<28} {n:>9} {tot:>12.6} {own:>12.6}");
        }
        out
    }
}

pub fn layer_of(name: &str) -> &'static str {
    let head = name.split('.').next().unwrap_or("");
    LAYERS
        .iter()
        .find(|l| **l == head)
        .copied()
        .unwrap_or("bench")
}

/// Share of `wall_s` that no span covers: wall time minus the summed
/// self time of every layer, over wall time.
pub fn unattributed_frac(tracer: &Tracer, wall_s: f64) -> f64 {
    let covered: f64 = tracer.layer_self_s().values().sum();
    (wall_s - covered) / wall_s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("precond.setup");
        spin(200_000);
        let inner = tr.begin("exec.factorize");
        spin(300_000);
        tr.end(inner);
        tr.end(outer);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let own = tr.self_ns();
        let outer_total = spans[0].end_ns - spans[0].start_ns;
        let inner_total = spans[1].end_ns - spans[1].start_ns;
        assert_eq!(own[0], outer_total - inner_total);
        assert_eq!(own[1], inner_total);
        let by_layer = tr.layer_self_s();
        assert!(by_layer["exec"] >= 300e-6 && by_layer["precond"] >= 200e-6);
    }

    #[test]
    fn unattributed_is_measured_gap_not_assumed() {
        let mut tr = Tracer::new(true);
        let t0 = Instant::now();
        tr.scope("solver.idr", || spin(500_000));
        spin(500_000); // not inside any span
        let wall = t0.elapsed().as_secs_f64();
        let frac = unattributed_frac(&tr, wall);
        assert!(frac > 0.3 && frac < 0.7, "gap share {frac}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.begin("exec.apply");
        tr.end(s);
        assert!(tr.spans().is_empty());
    }

    #[test]
    #[should_panic(expected = "close in the order")]
    fn crossed_spans_are_rejected() {
        let mut tr = Tracer::new(true);
        let a = tr.begin("exec.plan");
        let _b = tr.begin("exec.prepare");
        tr.end(a);
    }
}
