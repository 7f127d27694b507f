//! The compiled-out implementation (default, `trace` feature off).
//! Every entry point is an empty inline function over zero-sized or
//! data-free types, so the `span!`/`counter!` macros expand to code the
//! optimizer deletes entirely — callers carry no cfg-gates and pay no
//! cost. Signatures mirror `on.rs` exactly.

use crate::export::TraceSnapshot;

/// Interned callsite (inert: the feature is off).
pub struct Site {
    _name: &'static str,
}

impl Site {
    /// Const constructor for the macro-generated statics.
    pub const fn new(name: &'static str) -> Self {
        Site { _name: name }
    }

    /// No-op counter bump.
    #[inline(always)]
    pub fn add(_site: &Site, _n: u64) {}
}

/// Inert span handle: zero-sized, no drop glue.
#[must_use = "a span guard records its close on drop; binding it to _ closes immediately"]
pub struct SpanGuard {
    _priv: (),
}

impl SpanGuard {
    /// No-op span open.
    #[inline(always)]
    pub fn enter(_site: &Site, _payload: u64) -> SpanGuard {
        SpanGuard { _priv: () }
    }
}

/// Always `false`: the feature is compiled out.
#[inline(always)]
pub fn enabled() -> bool {
    false
}

/// No-op: there is no runtime gate to open.
#[inline(always)]
pub fn set_enabled(_on: bool) {}

/// No-op: there are no rings to reserve.
#[inline(always)]
pub fn reserve_thread_ring(_cap_events: usize) {}

/// No-op duration record.
#[inline(always)]
pub fn record_duration(_site: &Site, _ns: u64) {}

/// No-op gauge raise.
#[inline(always)]
pub fn gauge_max(_site: &Site, _value: u64) {}

/// No-op labeled-counter bump.
#[inline(always)]
pub fn labeled_add(_group: &'static str, _label: &'static str, _n: u64) {}

/// Always zero.
#[inline(always)]
pub fn thread_events_written() -> u64 {
    0
}

/// Always zero.
#[inline(always)]
pub fn dropped() -> u64 {
    0
}

/// Always zero.
#[inline(always)]
pub fn ring_count() -> usize {
    0
}

/// Always empty.
#[inline(always)]
pub fn snapshot() -> TraceSnapshot {
    TraceSnapshot::default()
}

/// No-op.
#[inline(always)]
pub fn reset() {}
