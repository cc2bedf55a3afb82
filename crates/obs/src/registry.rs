//! The metric registry and its deterministic merge discipline.

use crate::histogram::Histogram;
use crate::span::Span;
use faultstudy_sim::time::{Duration, SimTime};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// Composes the registry key for a metric `name` and `label`.
///
/// Labels distinguish instances of one metric (per-strategy, per-stage);
/// the composed form is `name{label}`, or just `name` when unlabeled.
fn key(name: &str, label: &str) -> String {
    let mut k = String::new();
    compose_key(&mut k, name, label);
    k
}

/// Writes the composed key into `out` (cleared first), so hot paths can
/// reuse one scratch buffer instead of allocating per record.
fn compose_key(out: &mut String, name: &str, label: &str) {
    out.clear();
    out.push_str(name);
    if !label.is_empty() {
        out.push('{');
        out.push_str(label);
        out.push('}');
    }
}

/// A registry of counters, gauges, and fixed-bucket histograms.
///
/// All keys are ordered (`BTreeMap`) and all values merge exactly, so a
/// registry is a pure function of the samples recorded into it: per-sample
/// registries produced by `faultstudy-exec::run_indexed` workers, merged
/// in index order, are byte-identical at any thread count.
///
/// # Example
///
/// ```
/// use faultstudy_obs::MetricsRegistry;
///
/// let mut reg = MetricsRegistry::new();
/// reg.incr("requests", "restart", 2);
/// reg.record("retries", "restart", 3);
/// assert_eq!(reg.counter("requests", "restart"), 2);
/// assert_eq!(reg.histogram("retries", "restart").unwrap().count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `by` to the counter `name{label}`.
    pub fn incr(&mut self, name: &'static str, label: &str, by: u64) {
        self.incr_key(&key(name, label), by);
    }

    fn incr_key(&mut self, k: &str, by: u64) {
        match self.counters.get_mut(k) {
            Some(v) => *v += by,
            None => {
                self.counters.insert(k.to_owned(), by);
            }
        }
    }

    /// Sets the gauge `name{label}` to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &'static str, label: &str, value: i64) {
        self.set_gauge_key(&key(name, label), value);
    }

    fn set_gauge_key(&mut self, k: &str, value: i64) {
        match self.gauges.get_mut(k) {
            Some(v) => *v = value,
            None => {
                self.gauges.insert(k.to_owned(), value);
            }
        }
    }

    /// Records `value` into the histogram `name{label}`.
    pub fn record(&mut self, name: &'static str, label: &str, value: u64) {
        self.record_key(&key(name, label), value);
    }

    fn record_key(&mut self, k: &str, value: u64) {
        match self.histograms.get_mut(k) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::new();
                h.record(value);
                self.histograms.insert(k.to_owned(), h);
            }
        }
    }

    /// Merges a whole histogram into `name{label}` (used to re-key a
    /// distribution under an aggregate label, e.g. per-class). Takes the
    /// histogram by value so a fresh key adopts it without copying.
    pub fn merge_histogram(&mut self, name: &'static str, label: &str, hist: Histogram) {
        if hist.count() == 0 {
            return;
        }
        let k = key(name, label);
        match self.histograms.get_mut(k.as_str()) {
            Some(mine) => mine.merge_from(&hist),
            None => {
                self.histograms.insert(k, hist);
            }
        }
    }

    /// Current value of the counter `name{label}` (zero if never touched).
    pub fn counter(&self, name: &str, label: &str) -> u64 {
        self.counters.get(key(name, label).as_str()).copied().unwrap_or(0)
    }

    /// Current value of the gauge `name{label}`.
    pub fn gauge(&self, name: &str, label: &str) -> Option<i64> {
        self.gauges.get(key(name, label).as_str()).copied()
    }

    /// The histogram `name{label}`, if anything was recorded into it.
    pub fn histogram(&self, name: &str, label: &str) -> Option<&Histogram> {
        self.histograms.get(key(name, label).as_str())
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds every metric of `other` into `self`: counters add, gauges
    /// take `other`'s value (last write wins), histograms merge bucket-wise.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        // Keys are cloned only when first seen; repeated merges of the same
        // metric shape (the per-sample campaign case) allocate nothing.
        for (k, &v) in &other.counters {
            self.incr_key(k, v);
        }
        for (k, &v) in &other.gauges {
            self.set_gauge_key(k, v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k.as_str()) {
                Some(mine) => mine.merge_from(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// Merges per-worker registries **in index order** into one.
    ///
    /// This is the one sanctioned way to aggregate registries produced by
    /// `run_indexed` workers: the iterator order is the index order, so the
    /// merged registry is identical for every thread count (and, because
    /// counter addition and histogram merging are commutative, identical
    /// to any other order as well — the discipline makes that a theorem
    /// rather than an assumption).
    pub fn merged_in_index_order(parts: impl IntoIterator<Item = MetricsRegistry>) -> Self {
        let mut merged = MetricsRegistry::new();
        for part in parts {
            merged.merge_from(&part);
        }
        merged
    }
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "(empty registry)");
        }
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (k, v) in &self.counters {
                writeln!(f, "  {k:<44} {v}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges:")?;
            for (k, v) in &self.gauges {
                writeln!(f, "  {k:<44} {v}")?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(f, "histograms:")?;
            for (k, h) in &self.histograms {
                writeln!(f, "  {k:<44} {h}")?;
            }
        }
        Ok(())
    }
}

/// The optional recording slot carried by an `Environment`.
///
/// Disabled by default: the uninstrumented hot path pays one pointer-null
/// check per would-be record and allocates nothing. When enabled, calls
/// forward to the boxed [`MetricsRegistry`] through a reusable scratch
/// buffer, so recording into an existing metric allocates nothing either.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Option<Box<Sink>>);

/// The enabled sink: the registry plus a scratch buffer for key
/// composition, so the per-record hot path stays allocation-free.
#[derive(Debug, Clone, Default)]
struct Sink {
    registry: MetricsRegistry,
    scratch: String,
}

impl PartialEq for Metrics {
    fn eq(&self, other: &Metrics) -> bool {
        // The scratch buffer is transient working storage, not state.
        self.registry() == other.registry()
    }
}

impl Metrics {
    /// A disabled sink: every record is a no-op.
    pub fn disabled() -> Metrics {
        Metrics(None)
    }

    /// An enabled sink backed by a fresh registry.
    pub fn enabled() -> Metrics {
        Metrics(Some(Box::default()))
    }

    /// Whether records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds `by` to a counter, if enabled.
    pub fn incr(&mut self, name: &'static str, label: &str, by: u64) {
        if let Some(sink) = &mut self.0 {
            let Sink { registry, scratch } = &mut **sink;
            compose_key(scratch, name, label);
            registry.incr_key(scratch, by);
        }
    }

    /// Sets a gauge, if enabled.
    pub fn set_gauge(&mut self, name: &'static str, label: &str, value: i64) {
        if let Some(sink) = &mut self.0 {
            let Sink { registry, scratch } = &mut **sink;
            compose_key(scratch, name, label);
            registry.set_gauge_key(scratch, value);
        }
    }

    /// Records a histogram sample, if enabled.
    pub fn record(&mut self, name: &'static str, label: &str, value: u64) {
        if let Some(sink) = &mut self.0 {
            let Sink { registry, scratch } = &mut **sink;
            compose_key(scratch, name, label);
            registry.record_key(scratch, value);
        }
    }

    /// Records a simulated duration, if enabled.
    pub fn record_duration(&mut self, name: &'static str, label: &str, d: Duration) {
        self.record(name, label, d.as_nanos());
    }

    /// Closes a span at `now` into a histogram, if enabled.
    pub fn record_span(&mut self, name: &'static str, label: &str, span: Span, now: SimTime) {
        self.record(name, label, span.elapsed(now).as_nanos());
    }

    /// The backing registry, if enabled.
    pub(crate) fn registry(&self) -> Option<&MetricsRegistry> {
        self.0.as_deref().map(|sink| &sink.registry)
    }

    /// Takes the backing registry out, leaving the sink disabled.
    pub fn take(&mut self) -> Option<MetricsRegistry> {
        self.0.take().map(|sink| sink.registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_read_back() {
        let mut r = MetricsRegistry::new();
        r.incr("a", "", 1);
        r.incr("a", "", 2);
        r.incr("a", "x", 5);
        assert_eq!(r.counter("a", ""), 3);
        assert_eq!(r.counter("a", "x"), 5);
        assert_eq!(r.counter("missing", ""), 0);
    }

    #[test]
    fn gauges_last_write_wins_across_merge() {
        let mut a = MetricsRegistry::new();
        a.set_gauge("g", "", 1);
        let mut b = MetricsRegistry::new();
        b.set_gauge("g", "", 7);
        a.merge_from(&b);
        assert_eq!(a.gauge("g", ""), Some(7));
    }

    #[test]
    fn spans_record_simulated_durations() {
        let mut m = Metrics::enabled();
        let span = Span::begin(SimTime::from_millis(100));
        m.record_span("ttr", "restart", span, SimTime::from_millis(1100));
        let r = m.take().unwrap();
        let h = r.histogram("ttr", "restart").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Some(Duration::from_secs(1).as_nanos()));
    }

    #[test]
    fn merged_in_index_order_equals_single_registry() {
        let mut whole = MetricsRegistry::new();
        let mut parts = Vec::new();
        for i in 0..10u64 {
            let mut part = MetricsRegistry::new();
            whole.incr("n", "", i);
            part.incr("n", "", i);
            whole.record("h", "lbl", i * i);
            part.record("h", "lbl", i * i);
            parts.push(part);
        }
        assert_eq!(MetricsRegistry::merged_in_index_order(parts), whole);
    }

    #[test]
    fn empty_registry_renders_as_empty() {
        assert_eq!(MetricsRegistry::new().to_string(), "(empty registry)\n");
    }

    #[test]
    fn display_lists_sections_in_key_order() {
        let mut r = MetricsRegistry::new();
        r.incr("zeta", "", 1);
        r.incr("alpha", "", 1);
        r.set_gauge("rate", "stage", 42);
        r.record("lat", "s", 3);
        let text = r.to_string();
        let alpha = text.find("alpha").unwrap();
        let zeta = text.find("zeta").unwrap();
        assert!(alpha < zeta, "counters sorted by key");
        assert!(text.contains("rate{stage}"));
        assert!(text.contains("lat{s}"));
        assert!(text.contains("n=1"));
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut m = Metrics::disabled();
        m.incr("a", "", 1);
        m.record("h", "", 9);
        assert!(!m.is_enabled());
        assert_eq!(m.take(), None);

        let mut m = Metrics::enabled();
        m.incr("a", "", 1);
        let reg = m.take().unwrap();
        assert_eq!(reg.counter("a", ""), 1);
        assert!(!m.is_enabled(), "take() disables the sink");
    }
}
