//! The drained, owned view of the trace state and its exporters. These
//! types are compiled unconditionally (with the `trace` feature off a
//! snapshot is simply empty), so reporting code in the bench bins never
//! needs a cfg-gate.
//!
//! Three output formats, per the phase-breakdown methodology of the
//! batched-kernel literature:
//!
//! * [`TraceSnapshot::chrome_trace_json`] — a `chrome://tracing` /
//!   Perfetto-loadable JSON timeline of span begin/end and counter
//!   events, one track per recorded thread;
//! * [`TraceSnapshot::metrics_csv`] / [`TraceSnapshot::events_csv`] —
//!   flat CSV, schema-stable, appendable next to the fig4/fig5 CSVs
//!   under `target/experiments/`;
//! * [`TraceSnapshot`]'s `Display` — a human summary (counters, span
//!   histograms with mean/p50/p99, drop accounting).

use std::fmt;

/// What one ring event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`span!`).
    Begin,
    /// A span closed (guard drop).
    End,
    /// A counter bump (`counter!`), value in `payload`.
    Counter,
}

impl EventKind {
    /// Stable label used by the CSV exporter.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Begin => "begin",
            EventKind::End => "end",
            EventKind::Counter => "counter",
        }
    }

    /// Chrome-trace phase letter (`B`/`E`/`C`).
    pub fn chrome_phase(self) -> char {
        match self {
            EventKind::Begin => 'B',
            EventKind::End => 'E',
            EventKind::Counter => 'C',
        }
    }
}

/// One drained ring event.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Ring (thread) id the event was recorded on.
    pub tid: u64,
    /// Begin/end/counter.
    pub kind: EventKind,
    /// Site name (the literal passed to `span!`/`counter!`).
    pub name: &'static str,
    /// Monotonic timestamp, nanoseconds ([`crate::clock::monotonic_ns`]).
    pub t_ns: u64,
    /// Span payload or counter increment.
    pub payload: u64,
}

/// One named counter's accumulated value.
#[derive(Clone, Copy, Debug)]
pub struct CounterSample {
    /// Counter site name.
    pub name: &'static str,
    /// Accumulated value.
    pub value: u64,
}

/// One labeled counter (`group` × `label`), the registry backing for
/// the `ExecStats` histograms (kernel/layout/health/recovery tallies).
#[derive(Clone, Copy, Debug)]
pub struct LabeledSample {
    /// Counter group, e.g. `"exec.kernel"`.
    pub group: &'static str,
    /// Label within the group, e.g. `"gauss-huard"`.
    pub label: &'static str,
    /// Accumulated value.
    pub value: u64,
}

/// One high-water gauge's maximum observed value (`gauge_max!`) —
/// e.g. the deepest a service admission queue ever got.
#[derive(Clone, Copy, Debug)]
pub struct GaugeSample {
    /// Gauge site name.
    pub name: &'static str,
    /// Largest value ever recorded.
    pub value: u64,
}

/// Number of log₂ latency buckets per histogram: bucket `b` counts
/// durations in `[2^b, 2^(b+1))` nanoseconds.
pub const HIST_BUCKETS: usize = 64;

/// One span site's latency histogram.
#[derive(Clone, Debug)]
pub struct HistogramSample {
    /// Span site name.
    pub name: &'static str,
    /// Number of recorded durations.
    pub count: u64,
    /// Sum of recorded durations, nanoseconds.
    pub sum_ns: u64,
    /// Log₂ buckets (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistogramSample {
    /// Mean recorded duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`, resolved to the geometric
    /// midpoint of the log₂ bucket containing it.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (1u64 << b) as f64 * 1.5;
            }
        }
        (1u64 << (HIST_BUCKETS - 1)) as f64 * 1.5
    }
}

/// A drained, owned copy of everything the trace layer recorded:
/// per-thread ring events plus the metrics registry. Obtained from
/// [`crate::snapshot`]; empty when the `trace` feature is off.
#[derive(Clone, Debug, Default)]
pub struct TraceSnapshot {
    /// Ring events, sorted by timestamp.
    pub events: Vec<TraceEvent>,
    /// Named counters, registration order.
    pub counters: Vec<CounterSample>,
    /// Labeled counters (`ExecStats` view backing), registration order.
    pub labeled: Vec<LabeledSample>,
    /// High-water gauges (`gauge_max!`), registration order.
    pub gauges: Vec<GaugeSample>,
    /// Span latency histograms, registration order.
    pub histograms: Vec<HistogramSample>,
    /// Events discarded because a ring wrapped or a thread had no ring.
    pub dropped_events: u64,
}

fn json_escape(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl TraceSnapshot {
    /// Serialize the event timeline as chrome-trace JSON (the "Trace
    /// Event Format" object form), loadable in `chrome://tracing` and
    /// Perfetto. Span events map to `B`/`E` phase pairs on one track
    /// per recorded thread; counters map to `C` events.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        for ev in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":\"");
            json_escape(ev.name, &mut out);
            out.push_str("\",\"ph\":\"");
            out.push(ev.kind.chrome_phase());
            // chrome trace timestamps are microseconds (float)
            out.push_str(&format!(
                "\",\"ts\":{:.3},\"pid\":1,\"tid\":{}",
                ev.t_ns as f64 / 1e3,
                ev.tid
            ));
            match ev.kind {
                EventKind::Counter => {
                    out.push_str(&format!(",\"args\":{{\"value\":{}}}", ev.payload));
                }
                EventKind::Begin if ev.payload != 0 => {
                    out.push_str(&format!(",\"args\":{{\"payload\":{}}}", ev.payload));
                }
                _ => {}
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Flat CSV of the event timeline:
    /// `kind,name,tid,t_ns,payload` — one row per ring event.
    pub fn events_csv(&self) -> String {
        let mut out = String::from("kind,name,tid,t_ns,payload\n");
        for ev in &self.events {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                ev.kind.label(),
                ev.name,
                ev.tid,
                ev.t_ns,
                ev.payload
            ));
        }
        out
    }

    /// Flat CSV of the metrics registry:
    /// `metric,kind,value,count,sum_ns,mean_ns,p50_ns,p99_ns` — one row
    /// per counter, labeled counter (`group/label`), and span
    /// histogram. Schema-stable so rows can sit next to the fig4/fig5
    /// CSVs under `target/experiments/`.
    pub fn metrics_csv(&self) -> String {
        let mut out = String::from("metric,kind,value,count,sum_ns,mean_ns,p50_ns,p99_ns\n");
        for c in &self.counters {
            out.push_str(&format!("{},counter,{},,,,,\n", c.name, c.value));
        }
        for l in &self.labeled {
            out.push_str(&format!(
                "{}/{},labeled,{},,,,,\n",
                l.group, l.label, l.value
            ));
        }
        for g in &self.gauges {
            out.push_str(&format!("{},gauge,{},,,,,\n", g.name, g.value));
        }
        for h in &self.histograms {
            out.push_str(&format!(
                "{},span,,{},{},{:.1},{:.1},{:.1}\n",
                h.name,
                h.count,
                h.sum_ns,
                h.mean_ns(),
                h.quantile_ns(0.5),
                h.quantile_ns(0.99)
            ));
        }
        out
    }

    /// Compact `name=value;...` string of the named and labeled
    /// counters — the same convention as the `ExecStats::*_compact`
    /// histogram columns in the fig4/fig5 CSV schemas.
    pub fn compact_counters(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for c in &self.counters {
            parts.push(format!("{}={}", c.name, c.value));
        }
        for l in &self.labeled {
            parts.push(format!("{}/{}={}", l.group, l.label, l.value));
        }
        parts.join(";")
    }

    /// High-water value of the gauge `name`. Each `gauge_max!`
    /// callsite interns its own site, so same-named gauges fold with
    /// `max` — the high-water across every callsite.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .filter(|g| g.name == name)
            .map(|g| g.value)
            .max()
    }

    /// Total time recorded by the span site `name`, in nanoseconds.
    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.histograms
            .iter()
            .filter(|h| h.name == name)
            .map(|h| h.sum_ns)
            .sum()
    }

    /// Number of recorded entries for span site `name`.
    pub fn span_count(&self, name: &str) -> u64 {
        self.histograms
            .iter()
            .filter(|h| h.name == name)
            .map(|h| h.count)
            .sum()
    }
}

impl fmt::Display for TraceSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace summary: {} events, {} spans, {} counters, {} dropped",
            self.events.len(),
            self.histograms.iter().map(|h| h.count).sum::<u64>(),
            self.counters.len() + self.labeled.len(),
            self.dropped_events
        )?;
        let mut spans: Vec<&HistogramSample> =
            self.histograms.iter().filter(|h| h.count > 0).collect();
        spans.sort_by_key(|s| std::cmp::Reverse(s.sum_ns));
        if !spans.is_empty() {
            writeln!(
                f,
                "  {:<28} {:>10} {:>12} {:>12} {:>12} {:>12}",
                "span", "count", "total [us]", "mean [ns]", "p50 [ns]", "p99 [ns]"
            )?;
            for h in spans {
                writeln!(
                    f,
                    "  {:<28} {:>10} {:>12.1} {:>12.1} {:>12.0} {:>12.0}",
                    h.name,
                    h.count,
                    h.sum_ns as f64 / 1e3,
                    h.mean_ns(),
                    h.quantile_ns(0.5),
                    h.quantile_ns(0.99)
                )?;
            }
        }
        for c in self.counters.iter().filter(|c| c.value > 0) {
            writeln!(f, "  counter {:<32} {:>12}", c.name, c.value)?;
        }
        for l in self.labeled.iter().filter(|l| l.value > 0) {
            writeln!(
                f,
                "  counter {:<32} {:>12}",
                format!("{}/{}", l.group, l.label),
                l.value
            )?;
        }
        for g in &self.gauges {
            writeln!(f, "  gauge   {:<32} {:>12}", g.name, g.value)?;
        }
        Ok(())
    }
}
