//! Metrics registry: named counters, gauges, and fixed-bucket latency
//! histograms with lock-free hot-path increments.
//!
//! Counters are striped across cache-line-padded atomic shards indexed by
//! the caller's thread id, so concurrent `add`s never contend; stripes are
//! merged at scrape time. The registry lock is only taken on lookup —
//! hot paths cache the `Arc<Counter>` handle.
//!
//! **Determinism contract:** plain counter totals depend only on the work
//! performed, never on scheduling, so [`Metrics::counter_digest`] must be
//! byte-identical across `--prune-threads` settings (a contract of the
//! facade's mode matrix). Runtime-dependent quantities (wall times) live in
//! `runtime.*` counters, gauges, or histograms, all excluded from the
//! digest.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::JsonWriter;
use crate::span::current_tid;

const STRIPES: usize = 16;

#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Monotonic counter with per-thread striping.
pub struct Counter {
    stripes: [PaddedU64; STRIPES],
}

impl Counter {
    fn new() -> Self {
        Counter { stripes: Default::default() }
    }

    #[inline]
    pub fn add(&self, n: u64) {
        let idx = current_tid() as usize % STRIPES;
        self.stripes[idx].0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn total(&self) -> u64 {
        self.stripes.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// Last-write-wins gauge (u64).
pub struct Gauge(AtomicU64);

impl Gauge {
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Keep the maximum of the current value and `v` (peak tracking).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket histogram over `u64` samples (canonically microseconds).
///
/// `bounds[i]` is the inclusive upper edge of bucket `i`; samples above the
/// last bound land in an overflow bucket. Quantiles report the upper edge of
/// the bucket containing the requested rank (the overflow bucket reports the
/// observed max), so they are resolution-limited but never under-estimate
/// by more than one bucket width.
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>, // bounds.len() + 1 (overflow)
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Histogram with explicit bucket upper edges (must be sorted ascending).
    pub fn with_bounds(bounds: Vec<u64>) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be sorted");
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Default latency buckets: a 1–2–5 series from 1 µs to 50 s.
    pub fn latency_us() -> Self {
        let mut bounds = Vec::new();
        let mut decade: u64 = 1;
        while decade <= 10_000_000 {
            for m in [1, 2, 5] {
                bounds.push(m * decade);
            }
            decade *= 10;
        }
        Histogram::with_bounds(bounds)
    }

    #[inline]
    pub fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_micros() as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Value at quantile `q` in `[0, 1]`: the upper edge of the bucket
    /// holding that rank (observed max for the overflow bucket). 0 if empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((count as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen > rank {
                return match self.bounds.get(i) {
                    Some(&bound) => bound.min(self.max()),
                    None => self.max(),
                };
            }
        }
        self.max()
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// Handle to a metrics registry; cheap to clone and share across threads.
#[derive(Clone)]
pub struct Metrics {
    inner: Arc<Registry>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics { inner: Arc::new(Registry::default()) }
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics").finish_non_exhaustive()
    }
}

impl Metrics {
    /// Get or create a counter. Hot paths should cache the returned handle.
    /// Names starting with `runtime.` are excluded from [`counter_digest`]
    /// (reserved for scheduling-dependent totals).
    ///
    /// [`counter_digest`]: Metrics::counter_digest
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.inner.counters.lock().unwrap();
        Arc::clone(map.entry(name.to_string()).or_insert_with(|| Arc::new(Counter::new())))
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.inner.gauges.lock().unwrap();
        Arc::clone(
            map.entry(name.to_string()).or_insert_with(|| Arc::new(Gauge(AtomicU64::new(0)))),
        )
    }

    /// Get or create a latency histogram (microsecond 1–2–5 buckets).
    pub fn histogram_us(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.inner.histograms.lock().unwrap();
        Arc::clone(map.entry(name.to_string()).or_insert_with(|| Arc::new(Histogram::latency_us())))
    }

    /// Point-in-time snapshot of every registered metric, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = {
            let map = self.inner.counters.lock().unwrap();
            map.iter().map(|(name, c)| (name.clone(), c.total())).collect()
        };
        let gauges = {
            let map = self.inner.gauges.lock().unwrap();
            map.iter().map(|(name, g)| (name.clone(), g.get())).collect()
        };
        let histograms = {
            let map = self.inner.histograms.lock().unwrap();
            map.iter()
                .map(|(name, h)| HistogramSnapshot {
                    name: name.clone(),
                    count: h.count(),
                    sum: h.sum(),
                    min: h.min(),
                    max: h.max(),
                    p50: h.quantile(0.50),
                    p90: h.quantile(0.90),
                    p99: h.quantile(0.99),
                })
                .collect()
        };
        MetricsSnapshot { counters, gauges, histograms }
    }

    /// FNV-1a digest over the sorted `(name, total)` pairs of all
    /// *deterministic* counters (names not starting with `runtime.`).
    /// Byte-identical across thread-count settings by construction.
    pub fn counter_digest(&self) -> u64 {
        let map = self.inner.counters.lock().unwrap();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (name, counter) in map.iter() {
            if name.starts_with("runtime.") {
                continue;
            }
            fold(name.as_bytes());
            fold(b"=");
            fold(&counter.total().to_le_bytes());
            fold(b"\n");
        }
        hash
    }
}

/// Snapshot of a histogram's aggregates and quantiles (microseconds).
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

/// Scraped view of a registry: sorted, merged, ready to print or serialize.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, u64)>,
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Aligned text table, one metric per line.
    pub fn to_table(&self) -> String {
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.gauges.iter().map(|(n, _)| n.len()))
            .chain(self.histograms.iter().map(|h| h.name.len()))
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for (name, total) in &self.counters {
            let _ = writeln!(out, "{name:width$}  counter    {total}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "{name:width$}  gauge      {value}");
        }
        for h in &self.histograms {
            let _ = writeln!(
                out,
                "{:width$}  histogram  count={} p50={}us p90={}us p99={}us max={}us",
                h.name, h.count, h.p50, h.p90, h.p99, h.max
            );
        }
        out
    }

    /// Write the snapshot as a JSON object under the current writer position.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("counters").begin_object();
        for (name, total) in &self.counters {
            w.field_u64(name, *total);
        }
        w.end_object();
        w.key("gauges").begin_object();
        for (name, value) in &self.gauges {
            w.field_u64(name, *value);
        }
        w.end_object();
        w.key("histograms").begin_array();
        for h in &self.histograms {
            w.begin_object()
                .field_str("name", &h.name)
                .field_u64("count", h.count)
                .field_u64("sum_us", h.sum)
                .field_u64("min_us", h.min)
                .field_u64("max_us", h.max)
                .field_u64("p50_us", h.p50)
                .field_u64("p90_us", h.p90)
                .field_u64("p99_us", h.p99)
                .end_object();
        }
        w.end_array();
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_across_threads() {
        let m = Metrics::default();
        let c = m.counter("test.adds");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.total(), 8000);
        assert_eq!(m.counter("test.adds").total(), 8000, "same handle on re-lookup");
    }

    #[test]
    fn digest_depends_on_totals_not_timing() {
        let a = Metrics::default();
        let b = Metrics::default();
        a.counter("x").add(3);
        a.counter("y").add(7);
        b.counter("y").add(7);
        b.counter("x").add(1);
        b.counter("x").add(2);
        // Gauges, histograms, and runtime.* counters don't affect the digest.
        a.gauge("g").set(123);
        a.histogram_us("h").observe(55);
        a.counter("runtime.solver.conflicts").add(999);
        assert_eq!(a.counter_digest(), b.counter_digest());
        b.counter("x").inc();
        assert_ne!(a.counter_digest(), b.counter_digest());
    }

    #[test]
    fn histogram_quantiles_hit_bucket_edges() {
        let h = Histogram::latency_us();
        for v in 1..=100u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert_eq!(h.sum(), 5050);
        // Rank 49 (q=0.49) is value 50, in the (20, 50] bucket; rank 50
        // (q=0.50) is value 51, which spills into the (50, 100] bucket.
        assert_eq!(h.quantile(0.49), 50);
        assert_eq!(h.quantile(0.50), 100);
        assert_eq!(h.quantile(0.99), 100);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 100);
    }

    #[test]
    fn histogram_overflow_reports_observed_max() {
        let h = Histogram::with_bounds(vec![10, 100]);
        h.observe(5);
        h.observe(50_000);
        assert_eq!(h.quantile(1.0), 50_000);
        assert_eq!(h.quantile(0.0), 10);
        let empty = Histogram::latency_us();
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.min(), 0);
    }

    #[test]
    fn snapshot_serializes_and_parses() {
        let m = Metrics::default();
        m.counter("a.b").add(2);
        m.gauge("g").set(9);
        m.histogram_us("lat").observe(123);
        let snap = m.snapshot();
        assert!(snap.to_table().contains("a.b"));
        let mut w = JsonWriter::new();
        snap.write_json(&mut w);
        let text = w.finish();
        let v = crate::json::parse(&text).expect("valid json");
        assert_eq!(v.get("counters").unwrap().get("a.b").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("gauges").unwrap().get("g").unwrap().as_u64(), Some(9));
        let hists = v.get("histograms").unwrap().as_array().unwrap();
        assert_eq!(hists[0].get("name").unwrap().as_str(), Some("lat"));
        assert_eq!(hists[0].get("count").unwrap().as_u64(), Some(1));
    }
}
