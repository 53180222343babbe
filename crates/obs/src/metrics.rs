//! Global metrics registry: atomic counters, gauges, and fixed-bucket
//! latency histograms with quantile extraction, rendered in the
//! Prometheus text exposition format.
//!
//! Handles are `Arc`s interned by `(name, sorted labels)`; call sites
//! fetch a handle once (the lookup takes a mutex) and then record
//! through lock-free atomics. The registry itself is always live —
//! the `enabled` feature only gates the recording shims in the rest
//! of the crate, so a build without instrumentation still renders an
//! (empty) exposition page.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn inc_by(&self, n: u64) {
        if n > 0 {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Settable signed gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Replaces the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Default latency bucket upper bounds in seconds: 10µs → 10s in a
/// 1/2.5/5 decade ladder, plus the implicit `+Inf` overflow bucket.
pub const LATENCY_BUCKETS: [f64; 19] = [
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
];

/// A histogram exemplar: the trace that produced an observation, so a
/// latency bucket links back to a recorded span tree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exemplar {
    /// Raw trace ID (rendered as 16 hex chars in the exposition).
    pub trace_id: u64,
    /// The observed value.
    pub value: f64,
}

/// Per-bucket exemplars: the most recent traced observation (rendered
/// on `/metrics` — fresh traces are the ones still in the flight
/// recorder) and the largest seen (kept for diagnostics/tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct BucketExemplars {
    /// Most recent traced observation landing in this bucket.
    pub recent: Option<Exemplar>,
    /// Largest traced observation landing in this bucket.
    pub max: Option<Exemplar>,
}

/// Fixed-bucket histogram with atomic bucket counts.
///
/// Bucket edges are `le`-inclusive, matching Prometheus: a value equal
/// to a bound lands in that bound's bucket. Quantiles come from the
/// nearest-rank over the cumulative bucket counts and report the
/// upper bound of the bucket holding that rank (`+Inf` bucket reports
/// the largest finite bound — the histogram's saturation point).
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>, // bounds.len() + 1; last is the +Inf bucket
    count: AtomicU64,
    sum_bits: AtomicU64, // f64 bit pattern, CAS-accumulated
    // Lazily sized to buckets.len() on the first traced observation;
    // untraced histograms never touch (or allocate) this.
    exemplars: Mutex<Vec<BucketExemplars>>,
}

impl Histogram {
    /// Builds a histogram over ascending finite upper bounds.
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            exemplars: Mutex::new(Vec::new()),
        }
    }

    /// Histogram over the default latency ladder.
    pub fn latency() -> Histogram {
        Histogram::new(&LATENCY_BUCKETS)
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        // First bound >= v; values above every bound hit the +Inf slot.
        let idx = self.bounds.partition_point(|b| *b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Records one observation and, when a trace ID is supplied,
    /// remembers it as the landing bucket's exemplar.
    pub fn observe_traced(&self, v: f64, trace_id: Option<u64>) {
        self.observe(v);
        let Some(trace_id) = trace_id else {
            return;
        };
        let idx = self.bounds.partition_point(|b| *b < v);
        let mut exemplars = self.exemplars.lock().unwrap_or_else(|p| p.into_inner());
        if exemplars.len() < self.buckets.len() {
            exemplars.resize(self.buckets.len(), BucketExemplars::default());
        }
        let slot = &mut exemplars[idx];
        slot.recent = Some(Exemplar { trace_id, value: v });
        if slot.max.is_none_or(|m| v >= m.value) {
            slot.max = Some(Exemplar { trace_id, value: v });
        }
    }

    /// Per-bucket exemplars, index-aligned with the bucket list
    /// (`bounds` then `+Inf`). Buckets with no traced observation
    /// report empty slots.
    pub fn bucket_exemplars(&self) -> Vec<BucketExemplars> {
        let mut out = self
            .exemplars
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        out.resize(self.buckets.len(), BucketExemplars::default());
        out
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Nearest-rank quantile (`0.0 < q <= 1.0`), reported as the upper
    /// bound of the bucket containing that rank. Returns 0.0 for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                return if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    // Overflow bucket: saturate at the largest bound.
                    *self.bounds.last().expect("non-empty bounds")
                };
            }
        }
        *self.bounds.last().expect("non-empty bounds")
    }

    /// Cumulative per-bucket counts paired with their upper bounds
    /// (`None` = `+Inf`), for rendering.
    fn cumulative_buckets(&self) -> Vec<(Option<f64>, u64)> {
        let mut cumulative = 0u64;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            out.push((self.bounds.get(i).copied(), cumulative));
        }
        out
    }
}

type Key = (String, Vec<(String, String)>);

fn key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut ls: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    ls.sort();
    (name.to_string(), ls)
}

/// Interning registry for all metric kinds. `Registry::global()` is
/// the process-wide instance the convenience functions in the crate
/// root use; tests can build private registries for deterministic
/// assertions.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<Key, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<Key, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<Key, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry (for tests; production code uses `global`).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Counter handle for `name` with no labels.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Counter handle for `name` + labels, interning on first use.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(map.entry(key(name, labels)).or_default())
    }

    /// Gauge handle for `name` with no labels.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// Gauge handle for `name` + labels, interning on first use.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(map.entry(key(name, labels)).or_default())
    }

    /// Latency histogram handle for `name` with no labels.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// Latency histogram handle for `name` + labels.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(
            map.entry(key(name, labels))
                .or_insert_with(|| Arc::new(Histogram::latency())),
        )
    }

    /// Renders every registered metric in the Prometheus text
    /// exposition format (sorted by name, then label set).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();

        let counters = self.counters.lock().unwrap_or_else(|p| p.into_inner());
        let mut last_name = None::<&str>;
        for ((name, labels), counter) in counters.iter() {
            if last_name != Some(name.as_str()) {
                let _ = writeln!(out, "# TYPE {name} counter");
                last_name = Some(name.as_str());
            }
            let _ = writeln!(
                out,
                "{name}{} {}",
                render_labels(labels, None),
                counter.get()
            );
        }
        drop(counters);

        let gauges = self.gauges.lock().unwrap_or_else(|p| p.into_inner());
        let mut last_name = None::<&str>;
        for ((name, labels), gauge) in gauges.iter() {
            if last_name != Some(name.as_str()) {
                let _ = writeln!(out, "# TYPE {name} gauge");
                last_name = Some(name.as_str());
            }
            let _ = writeln!(out, "{name}{} {}", render_labels(labels, None), gauge.get());
        }
        drop(gauges);

        let histograms = self.histograms.lock().unwrap_or_else(|p| p.into_inner());
        let mut last_name = None::<&str>;
        for ((name, labels), histogram) in histograms.iter() {
            if last_name != Some(name.as_str()) {
                let _ = writeln!(out, "# TYPE {name} histogram");
                last_name = Some(name.as_str());
            }
            let exemplars = histogram.bucket_exemplars();
            for (i, (bound, cumulative)) in histogram.cumulative_buckets().into_iter().enumerate() {
                let le = match bound {
                    Some(b) => format_bound(b),
                    None => "+Inf".to_string(),
                };
                let _ = write!(
                    out,
                    "{name}_bucket{} {cumulative}",
                    render_labels(labels, Some(&le))
                );
                // OpenMetrics exemplar syntax: the per-bucket trace that
                // most recently landed here (fresh traces are the ones
                // still in the flight recorder).
                if let Some(e) = exemplars[i].recent {
                    let _ = write!(out, " # {{trace_id=\"{:016x}\"}} {}", e.trace_id, e.value);
                }
                out.push('\n');
            }
            let _ = writeln!(
                out,
                "{name}_sum{} {}",
                render_labels(labels, None),
                histogram.sum()
            );
            let _ = writeln!(
                out,
                "{name}_count{} {}",
                render_labels(labels, None),
                histogram.count()
            );
        }
        out
    }
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline must be backslash-escaped.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Formats a bucket bound the way Prometheus clients expect
/// (decimal, no exponent, no trailing zeros).
fn format_bound(b: f64) -> String {
    if b == b.trunc() && b.abs() < 1e15 {
        return format!("{}", b as i64);
    }
    let mut s = format!("{b:.9}");
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.pop();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::default();
        c.inc();
        c.inc_by(41);
        c.inc_by(0);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_sets_and_adds() {
        let g = Gauge::default();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_bucket_edges_are_le_inclusive() {
        let h = Histogram::new(&[1.0, 2.0, 5.0]);
        // Exactly on an edge lands in that edge's bucket.
        h.observe(1.0);
        h.observe(2.0);
        h.observe(5.0);
        // Strictly above the last bound overflows to +Inf.
        h.observe(5.000001);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets[0], (Some(1.0), 1));
        assert_eq!(buckets[1], (Some(2.0), 2));
        assert_eq!(buckets[2], (Some(5.0), 3));
        assert_eq!(buckets[3], (None, 4));
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn histogram_below_first_bound_lands_in_first_bucket() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.0);
        h.observe(0.5);
        assert_eq!(h.cumulative_buckets()[0], (Some(1.0), 2));
    }

    #[test]
    fn quantiles_of_known_distribution() {
        // 100 observations: 90 in (0,1], 9 in (1,2], 1 in (2,5].
        let h = Histogram::new(&[1.0, 2.0, 5.0]);
        for _ in 0..90 {
            h.observe(0.5);
        }
        for _ in 0..9 {
            h.observe(1.5);
        }
        h.observe(3.0);
        assert_eq!(h.quantile(0.50), 1.0); // rank 50 of 100 → first bucket
        assert_eq!(h.quantile(0.90), 1.0); // rank 90 is the last of the 90
        assert_eq!(h.quantile(0.95), 2.0); // rank 95 → second bucket
        assert_eq!(h.quantile(0.99), 2.0); // rank 99 is the last of the 9
        assert_eq!(h.quantile(1.0), 5.0); // rank 100 → third bucket
    }

    #[test]
    fn quantile_saturates_at_largest_bound_for_overflow() {
        let h = Histogram::new(&[1.0]);
        h.observe(100.0);
        assert_eq!(h.quantile(0.5), 1.0);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = Histogram::latency();
        assert_eq!(h.quantile(0.99), 0.0);
    }

    #[test]
    fn histogram_sum_accumulates() {
        let h = Histogram::new(&[1.0]);
        h.observe(0.25);
        h.observe(0.75);
        assert!((h.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn registry_interns_handles() {
        let r = Registry::new();
        let a = r.counter_with("hits", &[("route", "/x")]);
        let b = r.counter_with("hits", &[("route", "/x")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert!(Arc::ptr_eq(&a, &b));
        // Different labels are distinct series.
        let c = r.counter_with("hits", &[("route", "/y")]);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn prometheus_render_shape() {
        let r = Registry::new();
        r.counter_with("req_total", &[("route", "/a")]).inc_by(3);
        r.counter_with("req_total", &[("route", "/b")]).inc();
        r.gauge("docs").set(7);
        r.histogram("lat_seconds").observe(0.003);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE req_total counter\n"));
        assert!(text.contains("req_total{route=\"/a\"} 3\n"));
        assert!(text.contains("req_total{route=\"/b\"} 1\n"));
        assert!(text.contains("# TYPE docs gauge\ndocs 7\n"));
        assert!(text.contains("# TYPE lat_seconds histogram\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.00001\"} 0\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.005\"} 1\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("lat_seconds_count 1\n"));
        assert!(text.ends_with('\n'));
        // TYPE line appears once per metric name, not per series.
        assert_eq!(text.matches("# TYPE req_total").count(), 1);
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value(r#"a\b"#), r#"a\\b"#);
        assert_eq!(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label_value("line\nbreak"), "line\\nbreak");
        let r = Registry::new();
        r.counter_with("odd", &[("q", "a\"b\\c\nd")]).inc();
        let text = r.render_prometheus();
        assert!(text.contains(r#"odd{q="a\"b\\c\nd"} 1"#));
    }

    #[test]
    fn exemplars_track_recent_and_max_per_bucket() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe_traced(0.5, Some(0xaa));
        h.observe_traced(0.9, Some(0xbb));
        h.observe_traced(0.1, Some(0xcc));
        h.observe_traced(10.0, None); // untraced: counted, no exemplar
        let ex = h.bucket_exemplars();
        assert_eq!(ex.len(), 3, "aligned with bounds + the +Inf bucket");
        assert_eq!(
            ex[0].recent,
            Some(Exemplar {
                trace_id: 0xcc,
                value: 0.1
            })
        );
        assert_eq!(
            ex[0].max,
            Some(Exemplar {
                trace_id: 0xbb,
                value: 0.9
            })
        );
        assert_eq!(ex[1].recent, None);
        assert_eq!(
            ex[2].recent, None,
            "untraced observation leaves no exemplar"
        );
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn render_appends_exemplars_to_bucket_lines() {
        let r = Registry::new();
        let h = r.histogram("ex_seconds");
        h.observe_traced(0.003, Some(0xdead_beef));
        h.observe(0.004); // untraced observation in the same bucket
        let text = r.render_prometheus();
        assert!(
            text.contains(
                "ex_seconds_bucket{le=\"0.005\"} 2 # {trace_id=\"00000000deadbeef\"} 0.003\n"
            ),
            "bucket line carries the exemplar: {text}"
        );
        assert!(
            text.contains("ex_seconds_bucket{le=\"0.00001\"} 0\n"),
            "buckets without exemplars render bare: {text}"
        );
        // Every bucket line still ends in a parseable f64 (scrape
        // compatibility for the pre-exemplar assertions).
        for line in text.lines().filter(|l| l.contains("_bucket")) {
            let last = line.rsplit(' ').next().unwrap();
            assert!(last.parse::<f64>().is_ok(), "unparseable tail in {line}");
        }
    }

    #[test]
    fn bound_formatting_is_decimal() {
        assert_eq!(format_bound(1e-5), "0.00001");
        assert_eq!(format_bound(2.5e-5), "0.000025");
        assert_eq!(format_bound(0.25), "0.25");
        assert_eq!(format_bound(1.0), "1");
        assert_eq!(format_bound(10.0), "10");
    }
}
