//! The metrics registry: counters, gauges and fixed-bucket histograms.
//!
//! Everything is keyed by name and kept sorted, so snapshots and exports
//! are deterministic. Names and bucket layouts are the `&'static` constants
//! `metric_names!` and the `*_BUCKETS` slices declare, held as borrowed
//! [`Cow`]s: recording under a known name is a look-up and an add, never an
//! allocation. Only a registry imported from JSON owns its keys and bounds.
//! Histograms use **fixed bucket boundaries** supplied at first observation
//! (checked at every later one in debug builds, and asserted equal on
//! merge): merging two registries is then pure element-wise addition,
//! independent of the order individual observations arrived in — the
//! property the request-order merge in the executor relies on.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::json::{optional, require, required, shape, JsonReader, JsonSink, Number, Read, Slot};

/// Standard duration buckets (simulated seconds) for epoch/trial timings.
pub const DURATION_BUCKETS_SECS: &[f64] =
    &[1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0];

/// Standard energy buckets (joules) for per-epoch energy.
pub const ENERGY_BUCKETS_J: &[f64] = &[1e3, 5e3, 1e4, 5e4, 1e5, 5e5, 1e6, 5e6, 1e7];

/// Standard small-count buckets (batch sizes, queue depths, retries).
pub const COUNT_BUCKETS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Standard ratio buckets for occupancy / hit-rate style observations in
/// `[0, 1]` (and slightly above, for oversubscription).
pub const RATIO_BUCKETS: &[f64] = &[0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.5, 2.0];

/// A histogram with fixed bucket boundaries.
///
/// `counts[i]` counts observations `<= bounds[i]`; the implicit final
/// bucket (`counts[bounds.len()]`) catches everything larger. `sum` and
/// `count` track the exact total, so means are available without bucket
/// error.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Cow<'static, [f64]>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates an empty histogram over `bounds` (must be sorted ascending).
    fn with_bounds(bounds: &'static [f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram {
            bounds: Cow::Borrowed(bounds),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds another histogram's observations into this one. Both must have
    /// been created over the same bounds.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds mismatch on merge");
        self.add(other);
    }

    /// [`Histogram::merge`] once the caller has checked the bounds.
    fn add(&mut self, other: &Histogram) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The bucket boundaries.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` entries; last is overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Upper bound of the bucket containing the `q`-quantile (bucket-level
    /// resolution; returns `max` for the overflow bucket, 0 when empty).
    pub(crate) fn quantile_bound(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return self.bounds.get(i).copied().unwrap_or(self.max);
            }
        }
        self.max
    }

    /// Writes the histogram as a JSON object, keys in sorted order; an
    /// empty histogram has no `min` / `max`.
    fn write_json<'a>(&'a self, w: &mut impl JsonSink<'a>) {
        w.begin_object();
        w.key("bounds");
        w.begin_array();
        for &bound in self.bounds.iter() {
            w.element();
            w.f64(bound);
        }
        w.end_array();
        w.key("count");
        w.u64(self.count);
        w.key("counts");
        w.begin_array();
        for &count in &self.counts {
            w.element();
            w.u64(count);
        }
        w.end_array();
        if self.count > 0 {
            w.key("max");
            w.f64(self.max);
            w.key("min");
            w.f64(self.min);
        }
        w.key("sum");
        w.f64(self.sum);
        w.end_object();
    }

    /// Inverse of [`Histogram::write_json`]. Complaints come without the
    /// `histogram <name>: ` prefix, which the caller adds.
    fn read_json(r: &mut JsonReader) -> Read<Self> {
        fn numbers<T>(
            r: &mut JsonReader,
            missing: &str,
            element: impl Fn(Number) -> Option<T>,
            mismatch: &str,
        ) -> Read<Vec<T>> {
            let mut values = Vec::new();
            let is_array = r.array(|r| {
                values.push(require(r.number()?.and_then(&element), mismatch)?);
                Ok(())
            })?;
            require(is_array.then_some(values), missing)
        }
        let (mut bounds, mut counts): (Slot<Vec<f64>>, Slot<Vec<u64>>) = (None, None);
        // For these a value of another type reads as an absent member.
        let (mut sum, mut count, mut min, mut max) = (None, None, None, None);
        r.object(|r, key| {
            match key {
                "bounds" => {
                    bounds = Some(r.member(|r| {
                        numbers(r, "missing bounds", |n| Some(n.as_f64()), "non-numeric bound")
                    })?);
                }
                "counts" => {
                    counts = Some(r.member(|r| {
                        numbers(r, "missing counts", Number::as_u64, "non-integer count")
                    })?);
                }
                "sum" => sum = r.lenient(JsonReader::number)?,
                "count" => count = r.lenient(JsonReader::number)?,
                "min" => min = r.lenient(JsonReader::number)?,
                "max" => max = r.lenient(JsonReader::number)?,
                _ => r.skip_value()?,
            }
            Ok(())
        })?;
        let bounds = required(bounds, "missing bounds")?;
        let counts = required(counts, "missing counts")?;
        let sum = require(sum, "missing sum")?.as_f64();
        let count = require(count.and_then(Number::as_u64), "missing count")?;
        if counts.len() != bounds.len() + 1 {
            return shape("counts do not match bounds");
        }
        // `min` / `max` are omitted for empty histograms; restore the
        // empty-state sentinels so re-export is byte-identical.
        let min = min.map_or(f64::INFINITY, Number::as_f64);
        let max = max.map_or(f64::NEG_INFINITY, Number::as_f64);
        Ok(Histogram { bounds: Cow::Owned(bounds), counts, sum, count, min, max })
    }
}

/// One metric family: name → `T`, a vector sorted by name. A registry on
/// the recording path holds a handful of names, is emptied after every
/// merge and refilled under the same ones, so a look-up is a short
/// bisection of contiguous memory and [`Named::clear`] keeps the storage.
#[derive(Debug, Clone, PartialEq)]
struct Named<T>(Vec<(Cow<'static, str>, T)>);

impl<T> Default for Named<T> {
    fn default() -> Self {
        Named(Vec::new())
    }
}

impl<T> Named<T> {
    /// Where `name` is, or where it would go. A small family — a trial's
    /// buffer — is first scanned for the name's address: a metric is
    /// recorded through one `&'static` constant, so the same metric is the
    /// same pointer and no bytes need comparing. (A family the size of a
    /// run's sink goes straight to bisection, as does any miss.)
    fn position(&self, name: &str) -> Result<usize, usize> {
        const SMALL: usize = 8;
        if self.0.len() <= SMALL {
            if let Some(at) = self.0.iter().position(|(known, _)| std::ptr::eq(&**known, name)) {
                return Ok(at);
            }
        }
        self.0.binary_search_by(|(known, _)| (**known).cmp(name))
    }

    fn get(&self, name: &str) -> Option<&T> {
        self.position(name).ok().map(|at| &self.0[at].1)
    }

    /// The entry under `name`, created by `new` on first use. A hit is a
    /// look-up; `name` is stored only on a miss.
    fn entry(&mut self, name: Cow<'static, str>, new: impl FnOnce() -> T) -> (&str, &mut T) {
        let at = self.position(&name).unwrap_or_else(|at| {
            self.0.insert(at, (name, new()));
            at
        });
        let (name, value) = &mut self.0[at];
        (name, value)
    }

    fn iter(&self) -> impl Iterator<Item = (&str, &T)> {
        self.0.iter().map(|(name, value)| (&**name, value))
    }

    /// An imported family: every name owned.
    fn imported(entries: BTreeMap<String, T>) -> Self {
        Named(entries.into_iter().map(|(name, value)| (Cow::Owned(name), value)).collect())
    }
}

/// Counters, gauges and histograms keyed by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: Named<u64>,
    gauges: Named<f64>,
    histograms: Named<Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (created at 0).
    pub fn counter_add(&mut self, name: impl Into<Cow<'static, str>>, delta: u64) {
        *self.counters.entry(name.into(), || 0).1 += delta;
    }

    /// Sets the named gauge (last write wins — merges apply the other
    /// registry's writes after this one's, so the executor's request-order
    /// merge makes "last" deterministic).
    pub fn gauge_set(&mut self, name: impl Into<Cow<'static, str>>, value: f64) {
        *self.gauges.entry(name.into(), || value).1 = value;
    }

    /// Records one observation in the named histogram, creating it over
    /// `bounds` on first use. Every later observation must name the same
    /// layout: a site that declares another one fails here, where it
    /// records (debug builds), not on the thread that later merges it.
    pub fn observe(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        bounds: &'static [f64],
        value: f64,
    ) {
        let (name, hist) = self.histograms.entry(name.into(), || Histogram::with_bounds(bounds));
        debug_assert!(
            std::ptr::eq(&*hist.bounds, bounds) || *hist.bounds == *bounds,
            "histogram {name} observed over {bounds:?} but created over {:?}",
            hist.bounds,
        );
        hist.observe(value);
    }

    /// Folds `other` into `self`: counters and histograms add, gauges take
    /// `other`'s value. Callers must merge in a deterministic order (the
    /// executor uses scheduler request order) to keep float sums and gauge
    /// winners reproducible.
    ///
    /// # Panics
    ///
    /// Panics when a histogram exists on both sides over different bounds.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, delta) in &other.counters.0 {
            self.counter_add(name.clone(), *delta);
        }
        for (name, value) in &other.gauges.0 {
            self.gauge_set(name.clone(), *value);
        }
        for (name, hist) in &other.histograms.0 {
            match self.histograms.position(name) {
                Ok(at) => {
                    let known = &mut self.histograms.0[at].1;
                    assert!(
                        known.bounds == hist.bounds,
                        "histogram {name}: bounds mismatch on merge, {:?} here and {:?} incoming",
                        known.bounds,
                        hist.bounds,
                    );
                    known.add(hist);
                }
                Err(at) => self.histograms.0.insert(at, (name.clone(), hist.clone())),
            }
        }
    }

    /// Forgets everything recorded; the families keep their storage.
    pub(crate) fn clear(&mut self) {
        self.counters.0.clear();
        self.gauges.0.clear();
        self.histograms.0.clear();
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.0.is_empty() && self.gauges.0.is_empty() && self.histograms.0.is_empty()
    }

    /// The named counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if ever observed.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(name, v)| (name, *v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(name, v)| (name, *v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter()
    }

    /// Writes the registry as a JSON object, keys in sorted order
    /// throughout.
    pub(crate) fn write_json<'a>(&'a self, w: &mut impl JsonSink<'a>) {
        w.begin_object();
        w.key("counters");
        w.begin_object();
        for (name, value) in self.counters.iter() {
            w.key(name);
            w.u64(*value);
        }
        w.end_object();
        w.key("gauges");
        w.begin_object();
        for (name, value) in self.gauges.iter() {
            w.key(name);
            w.f64(*value);
        }
        w.end_object();
        w.key("histograms");
        w.begin_object();
        for (name, hist) in self.histograms.iter() {
            w.key(name);
            hist.write_json(w);
        }
        w.end_object();
        w.end_object();
    }

    /// Inverse of [`MetricsRegistry::write_json`]; each family may be
    /// absent.
    pub(crate) fn read_json(r: &mut JsonReader) -> Read<Self> {
        let (mut counters, mut gauges, mut histograms): (Slot<_>, Slot<_>, Slot<_>) =
            (None, None, None);
        let is_object = r.object(|r, key| {
            match key {
                "counters" => {
                    counters = Some(r.member(|r| {
                        r.map("counters must be an object", |r, name| {
                            match r.number()?.and_then(Number::as_u64) {
                                Some(v) => Ok(v),
                                None => shape(format!("counter {name} must be a u64")),
                            }
                        })
                    })?);
                }
                "gauges" => {
                    gauges = Some(r.member(|r| {
                        r.map("gauges must be an object", |r, name| {
                            // A NaN gauge exports as null; re-import it as NaN.
                            if r.null() {
                                return Ok(f64::NAN);
                            }
                            match r.number()? {
                                Some(v) => Ok(v.as_f64()),
                                None => shape(format!("gauge {name} must be a number")),
                            }
                        })
                    })?);
                }
                "histograms" => {
                    histograms = Some(r.member(|r| {
                        r.map("histograms must be an object", |r, name| {
                            Histogram::read_json(r)
                                .map_err(|e| e.within(format_args!("histogram {name}")))
                        })
                    })?);
                }
                _ => r.skip_value()?,
            }
            Ok(())
        })?;
        if !is_object {
            return shape("metrics must be an object");
        }
        Ok(MetricsRegistry {
            counters: Named::imported(optional(counters)?.unwrap_or_default()),
            gauges: Named::imported(optional(gauges)?.unwrap_or_default()),
            histograms: Named::imported(optional(histograms)?.unwrap_or_default()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_observations_at_boundaries() {
        let mut h = Histogram::with_bounds(&[1.0, 5.0, 10.0]);
        // A boundary value lands in its own bucket (`<= bound`).
        h.observe(1.0);
        h.observe(0.2);
        h.observe(5.0);
        h.observe(5.1);
        h.observe(100.0);
        assert_eq!(h.counts(), &[2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 111.3).abs() < 1e-9);
        assert_eq!(h.min(), 0.2);
        assert_eq!(h.max(), 100.0);
    }

    #[test]
    fn histogram_merge_is_elementwise_and_order_free() {
        let mut a = Histogram::with_bounds(&[2.0, 4.0]);
        let mut b = Histogram::with_bounds(&[2.0, 4.0]);
        a.observe(1.0);
        a.observe(3.0);
        b.observe(9.0);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.counts(), ba.counts());
        assert_eq!(ab.count(), 3);
        assert_eq!(ab.counts(), &[1, 1, 1]);
        assert_eq!(ab.min(), 1.0);
        assert_eq!(ab.max(), 9.0);
    }

    #[test]
    #[should_panic(expected = "bounds mismatch")]
    fn histogram_merge_rejects_different_bounds() {
        let mut a = Histogram::with_bounds(&[1.0]);
        let b = Histogram::with_bounds(&[2.0]);
        a.merge(&b);
    }

    /// A site that declares another layout for a known metric fails where
    /// it records (debug builds; the check is compiled out of release ones).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "histogram h observed over [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0] \
                               but created over [0.1, 0.25")]
    fn observing_under_a_second_layout_fails_at_the_call_site() {
        let mut r = MetricsRegistry::new();
        r.observe("h", RATIO_BUCKETS, 0.5);
        r.observe("h", COUNT_BUCKETS, 3.0);
    }

    /// Two registries that disagree can only meet in `merge`; its message
    /// names the metric and both layouts.
    #[test]
    #[should_panic(
        expected = "histogram h: bounds mismatch on merge, [0.1, 0.25, 0.5, 0.75, 0.9, \
                               1.0, 1.5, 2.0] here and [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0] \
                               incoming"
    )]
    fn merging_two_layouts_names_the_metric_and_both() {
        let (mut a, mut b) = (MetricsRegistry::new(), MetricsRegistry::new());
        a.observe("h", RATIO_BUCKETS, 0.5);
        b.observe("h", COUNT_BUCKETS, 3.0);
        a.merge(&b);
    }

    /// Equal layouts at different addresses — a literal repeated at two
    /// sites, an imported histogram — are the same layout.
    #[test]
    fn equal_layouts_at_different_addresses_are_one_layout() {
        static ELSEWHERE: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
        let mut r = MetricsRegistry::new();
        r.observe("h", COUNT_BUCKETS, 3.0);
        r.observe("h", &ELSEWHERE, 5.0);
        assert_eq!(r.histogram("h").unwrap().count(), 2);
    }

    /// A name is found whether it arrives as the constant it was recorded
    /// through, as an equal string elsewhere in memory, or owned.
    #[test]
    fn names_match_by_content_not_by_address() {
        let mut r = MetricsRegistry::new();
        r.counter_add("epochs.total", 1);
        r.counter_add(String::from("epochs.total"), 2);
        r.counter_add(["epochs", "total"].join("."), 4);
        assert_eq!(r.counter("epochs.total"), 7);
        assert_eq!(r.counters().count(), 1);
    }

    #[test]
    fn quantile_bound_walks_buckets() {
        let mut h = Histogram::with_bounds(&[1.0, 2.0, 3.0]);
        for v in [0.5, 1.5, 1.6, 2.5] {
            h.observe(v);
        }
        assert_eq!(h.quantile_bound(0.25), 1.0);
        assert_eq!(h.quantile_bound(0.5), 2.0);
        assert_eq!(h.quantile_bound(1.0), 3.0);
        assert_eq!(Histogram::with_bounds(&[1.0]).quantile_bound(0.5), 0.0);
    }

    #[test]
    fn registry_merge_adds_counters_and_overwrites_gauges() {
        let mut a = MetricsRegistry::new();
        a.counter_add("c", 2);
        a.gauge_set("g", 1.0);
        a.observe("h", COUNT_BUCKETS, 3.0);
        let mut b = MetricsRegistry::new();
        b.counter_add("c", 3);
        b.gauge_set("g", 9.0);
        b.observe("h", COUNT_BUCKETS, 5.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.gauge("g"), Some(9.0));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn registry_json_is_sorted_and_complete() {
        let mut r = MetricsRegistry::new();
        r.counter_add("z", 1);
        r.counter_add("a", 1);
        r.gauge_set("m", 0.5);
        r.observe("d", &[1.0], 0.5);
        let mut w = crate::json::JsonWriter::new(false, 0);
        r.write_json(&mut w);
        let json = w.finish();
        let a = json.find("\"a\"").unwrap();
        let z = json.find("\"z\"").unwrap();
        assert!(a < z, "counters must serialise in sorted order");
        assert!(json.contains("\"histograms\""));
        assert!(json.contains("\"gauges\""));
    }
}
