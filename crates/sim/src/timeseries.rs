//! Deterministic time-series metrics: counters, event-driven sampled
//! gauges, streaming histograms and heavy-hitter sketches, with
//! Prometheus text-exposition, CSV, and windowed JSONL snapshot export.
//!
//! [`MetricsRegistry`] follows the same opt-in discipline as the flight
//! recorder ([`crate::trace::Tracer`]): a disabled registry is a single
//! `Option` check per call site, and an *enabled* registry only ever
//! observes engine state — it never draws from the RNG and never touches
//! the event queue — so enabling it leaves run metrics bit-identical to a
//! same-seed run without it.
//!
//! Counters are monotone `u64` totals (requests, squashes, fault
//! injections, ...). Gauges are event-driven samples: the engine pushes
//! `(sim-time, value)` pairs at its own control-flow points (launches,
//! completions, teardowns), and consecutive duplicate values are collapsed
//! so a long steady state costs one sample. Histograms
//! ([`MetricsRegistry::observe`]) are constant-memory
//! [`LogHistogram`]s for distributions (latencies, squash depths);
//! top-K sketches ([`MetricsRegistry::topk_add`]) are
//! [`SpaceSaving`] heavy-hitter trackers for per-key weight
//! (requests or wasted core-time per function). All values are integers,
//! which keeps every export format byte-stable across platforms.
//!
//! # Example
//!
//! ```
//! use specfaas_sim::timeseries::MetricsRegistry;
//! use specfaas_sim::SimTime;
//!
//! let mut reg = MetricsRegistry::recording();
//! reg.inc("specfaas_requests_submitted_total");
//! reg.sample(SimTime::from_millis(2), "specfaas_warm_pool_size", 5);
//! reg.sample_labeled(SimTime::from_millis(3), "specfaas_busy_cores", "node", "0", 12);
//!
//! let prom = reg.export_prometheus();
//! assert!(prom.contains("specfaas_requests_submitted_total 1"));
//! assert!(prom.contains("specfaas_busy_cores{node=\"0\"} 12"));
//!
//! let csv = reg.export_csv();
//! assert!(csv.starts_with("time_us,metric,label,value\n"));
//!
//! // A disabled registry records nothing and costs one branch per call.
//! let mut off = MetricsRegistry::disabled();
//! off.inc("specfaas_requests_submitted_total");
//! assert!(!off.enabled());
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::hash::FxHashMap;
use crate::hist::LogHistogram;
use crate::time::{SimDuration, SimTime};
use crate::topk::SpaceSaving;
use crate::trace::push_u64;

/// Keys a top-K sketch tracks per instrument.
const TOPK_CAPACITY: usize = 16;

/// Process-wide registry generation counter: each recording registry gets
/// a distinct generation so stale [`GaugeHandle`]s cached across a
/// registry swap are detected and re-interned instead of indexing into
/// the wrong arena. Never exported, so it cannot perturb determinism.
static REGISTRY_GEN: AtomicU64 = AtomicU64::new(1);

/// An interned gauge instrument: an O(1) ticket into the registry's
/// series arena, minted by [`MetricsRegistry::sample_interned`]. Only
/// valid for the registry instance that minted it (enforced via the
/// embedded generation).
#[derive(Debug, Clone, Copy)]
pub struct GaugeHandle {
    gen: u64,
    idx: usize,
}

/// One kind of instrument (counters, gauges or histograms), interned: a
/// dense arena of values plus the identity index that maps
/// `name{label_key="label_value"}` to a slot in it.
///
/// The index nests the label value (the only non-static key component)
/// inside a `(name, label_key)` outer map, so a lookup borrows the label
/// instead of allocating a key, and iterating outer-then-inner visits
/// instruments in `(name, label_key, label_value)` order — the export
/// order. Unlabeled instruments, the per-event `inc`/`observe` path, are
/// also reachable by name alone through a hash map.
struct Family<T> {
    index: BTreeMap<(&'static str, &'static str), BTreeMap<String, usize>>,
    unlabeled: FxHashMap<&'static str, usize>,
    values: Vec<T>,
}

impl<T: Default> Family<T> {
    fn new() -> Self {
        Family {
            index: BTreeMap::new(),
            unlabeled: FxHashMap::default(),
            values: Vec::new(),
        }
    }

    /// Slot of `name{label_key="label_value"}`, interning a default value
    /// on first use. Borrow-first: the steady-state path never allocates.
    fn slot(&mut self, name: &'static str, label_key: &'static str, label_value: &str) -> usize {
        if label_key.is_empty() && label_value.is_empty() {
            return self.unlabeled_slot(name);
        }
        self.indexed_slot(name, label_key, label_value)
    }

    /// Slot of the unlabeled instrument `name`: one hash probe once
    /// interned.
    fn unlabeled_slot(&mut self, name: &'static str) -> usize {
        if let Some(&idx) = self.unlabeled.get(name) {
            return idx;
        }
        let idx = self.indexed_slot(name, "", "");
        self.unlabeled.insert(name, idx);
        idx
    }

    fn indexed_slot(
        &mut self,
        name: &'static str,
        label_key: &'static str,
        label_value: &str,
    ) -> usize {
        let by_label = self.index.entry((name, label_key)).or_default();
        if let Some(&idx) = by_label.get(label_value) {
            return idx;
        }
        let idx = self.values.len();
        self.values.push(T::default());
        by_label.insert(label_value.to_string(), idx);
        idx
    }

    /// The value of an interned instrument, if any.
    fn get(&self, name: &str, label_key: &str, label_value: &str) -> Option<&T> {
        self.index
            .iter()
            .find(|((n, lk), _)| *n == name && *lk == label_key)
            .and_then(|(_, by_label)| by_label.get(label_value))
            .map(|&idx| &self.values[idx])
    }

    /// Every instrument as `(name, label_key, label_value, value)`, in
    /// export order.
    fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, &str, &T)> + '_ {
        self.index.iter().flat_map(move |(&(name, lk), by_label)| {
            by_label
                .iter()
                .map(move |(lv, &idx)| (name, lk, lv.as_str(), &self.values[idx]))
        })
    }
}

/// One gauge: its event-driven sample series plus the last value sampled,
/// held inline in the dense arena.
///
/// A series' last value is always the last value sampled: a same-instant
/// sample overwrites it, an unchanged one collapses into it, any other
/// is appended. So a sample equal to `last` changes nothing, whatever its
/// instant, and costs one compare.
#[derive(Default)]
struct Gauge {
    last: Option<u64>,
    series: Vec<(SimTime, u64)>,
}

impl Gauge {
    /// Records one event-driven sample: same-instant samples overwrite,
    /// consecutive duplicate values collapse.
    #[inline]
    fn sample(&mut self, now: SimTime, value: u64) {
        if self.last == Some(value) {
            return;
        }
        self.last = Some(value);
        match self.series.last_mut() {
            Some((t, v)) if *t == now => *v = value,
            _ => self.series.push((now, value)),
        }
    }
}

struct RegistryInner {
    /// Generation stamp minted at construction (see [`REGISTRY_GEN`]).
    gen: u64,
    counters: Family<u64>,
    /// Gauges, indexed by name and by [`GaugeHandle`]s.
    gauges: Family<Gauge>,
    histograms: Family<LogHistogram>,
    topks: BTreeMap<&'static str, SpaceSaving<String>>,
}

impl RegistryInner {
    fn new() -> Self {
        RegistryInner {
            gen: REGISTRY_GEN.fetch_add(1, Ordering::Relaxed),
            counters: Family::new(),
            gauges: Family::new(),
            histograms: Family::new(),
            topks: BTreeMap::new(),
        }
    }
}

/// A deterministic metrics registry: counters plus event-driven sampled
/// gauges, exportable as Prometheus text exposition or CSV.
///
/// Counters, gauges and histograms are interned into dense arenas on first
/// use, so updating one that exists allocates nothing: an unlabeled one
/// costs a hash probe, a gauge behind a cached handle
/// ([`MetricsRegistry::sample_interned`]) an index, and a labeled one a
/// walk of the ordered identity index that borrows its label.
///
/// See the [module documentation](self) for the determinism contract and a
/// usage example.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Option<Box<RegistryInner>>,
}

impl MetricsRegistry {
    /// A registry that records nothing; every operation is a no-op behind
    /// a single branch.
    pub fn disabled() -> Self {
        MetricsRegistry { inner: None }
    }

    /// A registry that records counters and gauge samples.
    pub fn recording() -> Self {
        MetricsRegistry {
            inner: Some(Box::new(RegistryInner::new())),
        }
    }

    /// Whether this registry records anything. Engines consult this before
    /// doing any sampling work.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// This registry's generation: distinct for every recording registry
    /// built in the process, 0 when disabled. A caller that remembers
    /// what it last handed a gauge compares generations to learn that
    /// the registry was swapped and its memory is stale.
    pub fn generation(&self) -> u64 {
        self.inner.as_deref().map_or(0, |i| i.gen)
    }

    /// Increments the unlabeled counter `name` by one.
    pub fn inc(&mut self, name: &'static str) {
        self.inc_by(name, 1);
    }

    /// Increments the unlabeled counter `name` by `by`. An increment by
    /// zero still creates the counter, so it exports as 0.
    pub fn inc_by(&mut self, name: &'static str, by: u64) {
        if let Some(inner) = self.inner.as_deref_mut() {
            let idx = inner.counters.unlabeled_slot(name);
            inner.counters.values[idx] += by;
        }
    }

    /// Increments the counter `name{label_key="label_value"}` by one.
    pub fn inc_labeled(&mut self, name: &'static str, label_key: &'static str, label_value: &str) {
        if let Some(inner) = self.inner.as_deref_mut() {
            let idx = inner.counters.slot(name, label_key, label_value);
            inner.counters.values[idx] += 1;
        }
    }

    /// Records a sample of the unlabeled gauge `name` at sim-time `now`.
    ///
    /// Samples at the same instant overwrite each other (the last write at
    /// a timestamp wins) and consecutive duplicate values are collapsed.
    pub fn sample(&mut self, now: SimTime, name: &'static str, value: u64) {
        self.sample_labeled(now, name, "", "", value);
    }

    /// Records a sample of the gauge `name{label_key="label_value"}`.
    pub fn sample_labeled(
        &mut self,
        now: SimTime,
        name: &'static str,
        label_key: &'static str,
        label_value: &str,
        value: u64,
    ) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let idx = inner.gauges.slot(name, label_key, label_value);
        inner.gauges.values[idx].sample(now, value);
    }

    /// [`MetricsRegistry::sample_labeled`] through a cached instrument
    /// handle — the per-event hot path. The first call (or the first
    /// after a registry swap — detected via the handle's generation)
    /// interns the gauge and fills `handle`; every later call is an O(1)
    /// arena index with no map walk and no allocation, and an unchanged
    /// value costs one compare. Semantically identical to re-looking the
    /// gauge up by name each time.
    pub fn sample_interned(
        &mut self,
        handle: &mut Option<GaugeHandle>,
        now: SimTime,
        name: &'static str,
        label_key: &'static str,
        label_value: &str,
        value: u64,
    ) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let idx = match handle {
            Some(h) if h.gen == inner.gen => h.idx,
            _ => {
                let idx = inner.gauges.slot(name, label_key, label_value);
                *handle = Some(GaugeHandle {
                    gen: inner.gen,
                    idx,
                });
                idx
            }
        };
        inner.gauges.values[idx].sample(now, value);
    }

    /// Records `value` into the unlabeled histogram `name`. O(1) and
    /// constant-memory: the backing [`LogHistogram`] allocates at most
    /// [`LogHistogram::MAX_BUCKETS`] counters however many values arrive.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.observe_labeled(name, "", "", value);
    }

    /// Records `value` into the histogram `name{label_key="label_value"}`.
    pub fn observe_labeled(
        &mut self,
        name: &'static str,
        label_key: &'static str,
        label_value: &str,
        value: u64,
    ) {
        if let Some(inner) = self.inner.as_deref_mut() {
            let idx = inner.histograms.slot(name, label_key, label_value);
            inner.histograms.values[idx].record(value);
        }
    }

    /// Adds `weight` for `key` to the heavy-hitter sketch `name`
    /// (capacity 16, created on first use). Keys are free-form strings —
    /// the engines use `"<app>/<function>"`.
    pub fn topk_add(&mut self, name: &'static str, key: &str, weight: u64) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner
                .topks
                .entry(name)
                .or_insert_with(|| SpaceSaving::new(TOPK_CAPACITY))
                .add_weight_str(key, weight);
        }
    }

    /// The histogram recorded under `name` with the given label pair, if
    /// any values were observed.
    pub fn histogram(
        &self,
        name: &str,
        label_key: &str,
        label_value: &str,
    ) -> Option<&LogHistogram> {
        self.inner
            .as_deref()
            .and_then(|i| i.histograms.get(name, label_key, label_value))
    }

    /// The heavy-hitter sketch recorded under `name`, if any weight was
    /// added.
    pub fn topk(&self, name: &str) -> Option<&SpaceSaving<String>> {
        self.inner
            .as_deref()
            .and_then(|i| i.topks.iter().find(|(n, _)| **n == name).map(|(_, s)| s))
    }

    /// Current value of a counter (0 if never incremented). Unlabeled
    /// counters use empty strings for both label fields.
    pub fn counter(&self, name: &str, label_key: &str, label_value: &str) -> u64 {
        self.inner
            .as_deref()
            .and_then(|i| i.counters.get(name, label_key, label_value))
            .copied()
            .unwrap_or(0)
    }

    /// The recorded sample series of a gauge (empty if never sampled).
    pub fn gauge_series(
        &self,
        name: &str,
        label_key: &str,
        label_value: &str,
    ) -> &[(SimTime, u64)] {
        self.inner
            .as_deref()
            .and_then(|i| i.gauges.get(name, label_key, label_value))
            .map_or(&[], |g| g.series.as_slice())
    }

    /// Renders the registry in Prometheus text exposition format (version
    /// 0.0.4): `# HELP` / `# TYPE` headers per metric, counters as their
    /// running totals, gauges as their most recent sampled value.
    ///
    /// Output is byte-deterministic: metrics sort by `(name, label)` and
    /// all values are integers.
    pub fn export_prometheus(&self) -> String {
        let Some(inner) = self.inner.as_deref() else {
            return String::new();
        };
        let mut out = String::new();
        let mut last_name = "";
        for (name, lk, lv, value) in inner.counters.iter() {
            if name != last_name {
                header(&mut out, name, "counter");
                last_name = name;
            }
            line(&mut out, name, lk, lv, *value);
        }
        last_name = "";
        for (name, lk, lv, gauge) in inner.gauges.iter() {
            if name != last_name {
                header(&mut out, name, "gauge");
                last_name = name;
            }
            if let Some(v) = gauge.last {
                line(&mut out, name, lk, lv, v);
            }
        }
        last_name = "";
        for (name, lk, lv, hist) in inner.histograms.iter() {
            if name != last_name {
                header(&mut out, name, "histogram");
                last_name = name;
            }
            // Cumulative `le` buckets at the histogram's own (data-driven)
            // bucket boundaries: bucket [lo, hi) holds values ≤ hi-1, so
            // the inclusive boundary is hi-1. Exact in the linear region.
            let mut cumulative = 0u64;
            for (_, hi, count) in hist.nonzero_buckets() {
                cumulative += count;
                bucket_line(&mut out, name, lk, lv, &(hi - 1).to_string(), cumulative);
            }
            bucket_line(&mut out, name, lk, lv, "+Inf", hist.count());
            let labels = label_block(lk, lv);
            let _ = writeln!(out, "{name}_sum{labels} {}", hist.sum());
            let _ = writeln!(out, "{name}_count{labels} {}", hist.count());
        }
        for (name, sketch) in &inner.topks {
            header(&mut out, name, "counter");
            for (key, entry) in sketch.top() {
                let _ = writeln!(out, "{name}{{key=\"{key}\"}} {}", entry.count);
            }
        }
        out
    }

    /// Renders every histogram bucket as CSV with header
    /// `metric,label,bucket_lo,bucket_hi,count,cumulative` — `bucket_hi`
    /// exclusive, rows sorted by `(metric, label, bucket_lo)`.
    pub fn export_histograms_csv(&self) -> String {
        let Some(inner) = self.inner.as_deref() else {
            return String::new();
        };
        let mut out = String::from("metric,label,bucket_lo,bucket_hi,count,cumulative\n");
        for (name, lk, lv, hist) in inner.histograms.iter() {
            let label = if lk.is_empty() {
                String::new()
            } else {
                format!("{lk}={lv}")
            };
            let mut cumulative = 0u64;
            for (lo, hi, count) in hist.nonzero_buckets() {
                cumulative += count;
                let _ = writeln!(out, "{name},{label},{lo},{hi},{count},{cumulative}");
            }
        }
        out
    }

    /// A deterministic one-line JSON summary of the registry's cumulative
    /// state: every counter total plus per-histogram count/p50/p99/p99.9/max.
    /// Used by [`SnapshotLog`] for windowed JSONL emission; `t_us` is the
    /// sim-time the snapshot describes.
    ///
    /// Written straight into one `String`, reading each histogram's
    /// three quantiles from a single bucket scan
    /// ([`LogHistogram::quantiles`]).
    pub fn snapshot_json(&self, t: SimTime) -> String {
        let mut out = String::with_capacity(self.inner.as_deref().map_or(32, |i| {
            64 + 64 * i.counters.values.len() + 160 * i.histograms.values.len()
        }));
        out.push_str("{\"t_us\": ");
        push_u64(&mut out, t.as_micros());
        if let Some(inner) = self.inner.as_deref() {
            out.push_str(", \"counters\": {");
            for (i, (name, lk, lv, value)) in inner.counters.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                snapshot_key(&mut out, name, lk, lv);
                push_u64(&mut out, *value);
            }
            out.push_str("}, \"histograms\": {");
            for (i, (name, lk, lv, hist)) in inner.histograms.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                snapshot_key(&mut out, name, lk, lv);
                let [p50, p99, p999] = hist.quantiles([0.50, 0.99, 0.999]);
                out.push_str("{\"count\": ");
                push_u64(&mut out, hist.count());
                out.push_str(", \"p50\": ");
                push_u64(&mut out, p50);
                out.push_str(", \"p99\": ");
                push_u64(&mut out, p99);
                out.push_str(", \"p999\": ");
                push_u64(&mut out, p999);
                out.push_str(", \"max\": ");
                push_u64(&mut out, hist.max().unwrap_or(0));
                out.push('}');
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Renders every gauge sample as CSV with header
    /// `time_us,metric,label,value`, rows sorted by `(time, metric,
    /// label)`. Counters are totals, not series, and are exported via
    /// [`MetricsRegistry::export_prometheus`] instead.
    pub fn export_csv(&self) -> String {
        let Some(inner) = self.inner.as_deref() else {
            return String::new();
        };
        let mut rows: Vec<(SimTime, &str, &str, &str, u64)> = Vec::new();
        for (name, lk, lv, gauge) in inner.gauges.iter() {
            for (t, v) in &gauge.series {
                rows.push((*t, name, lk, lv, *v));
            }
        }
        rows.sort();
        let mut out = String::from("time_us,metric,label,value\n");
        for (t, name, lk, lv, v) in rows {
            if lk.is_empty() {
                let _ = writeln!(out, "{},{},,{}", t.as_micros(), name, v);
            } else {
                let _ = writeln!(out, "{},{},{}={},{}", t.as_micros(), name, lk, lv, v);
            }
        }
        out
    }
}

/// Writes a snapshot object key, `"name": ` or `"name{key=value}": `.
fn snapshot_key(out: &mut String, name: &str, lk: &str, lv: &str) {
    out.push('"');
    out.push_str(name);
    if !lk.is_empty() {
        out.push('{');
        out.push_str(lk);
        out.push('=');
        out.push_str(lv);
        out.push('}');
    }
    out.push_str("\": ");
}

/// Windowed JSONL snapshot emitter for long runs.
///
/// The harness ticks this from its dispatch loop; whenever sim-time
/// crosses a window boundary the registry's cumulative state is rendered
/// (via [`MetricsRegistry::snapshot_json`]) as one JSON line stamped with
/// the boundary time. Boundaries are fixed multiples of the window, so
/// the emitted timeline is independent of event spacing — a run that goes
/// quiet for three windows emits its next snapshot at the first boundary
/// after activity resumes, stamped with the boundary it crossed.
///
/// Like the registry itself, the log only *reads* engine state: arming it
/// leaves run output bit-identical.
#[derive(Debug)]
pub struct SnapshotLog {
    window: SimDuration,
    next_due: SimTime,
    lines: Vec<String>,
}

impl SnapshotLog {
    /// Creates a log that snapshots every `window` of sim-time.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(window.as_micros() > 0, "snapshot window must be positive");
        SnapshotLog {
            window,
            next_due: SimTime::ZERO + window,
            lines: Vec::new(),
        }
    }

    /// Re-bases the window schedule so the first snapshot is due one
    /// window after `now`. Harnesses call this at install time so a log
    /// armed mid-run (e.g. after training) does not backfill a burst of
    /// snapshots for boundaries that predate it.
    pub fn start_at(&mut self, now: SimTime) {
        self.next_due = now + self.window;
    }

    /// Emits a snapshot if `now` has reached the next window boundary.
    /// O(1) when no boundary was crossed.
    pub fn tick(&mut self, now: SimTime, registry: &MetricsRegistry) {
        while now >= self.next_due {
            let stamp = self.next_due;
            self.lines.push(registry.snapshot_json(stamp));
            self.next_due += self.window;
        }
    }

    /// Emits one final snapshot stamped `now` (end of run), regardless of
    /// window alignment.
    pub fn finish(&mut self, now: SimTime, registry: &MetricsRegistry) {
        self.lines.push(registry.snapshot_json(now));
    }

    /// The snapshot lines emitted so far.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Renders the snapshots as a JSONL document (one JSON object per
    /// line, trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }
}

fn header(out: &mut String, name: &str, kind: &str) {
    let help = help_text(name);
    if !help.is_empty() {
        let _ = writeln!(out, "# HELP {name} {help}");
    }
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn line(out: &mut String, name: &str, lk: &str, lv: &str, value: u64) {
    if lk.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{lk}=\"{lv}\"}} {value}");
    }
}

/// Renders the label block for non-bucket histogram series (`_sum`,
/// `_count`): empty for unlabeled metrics.
fn label_block(lk: &str, lv: &str) -> String {
    if lk.is_empty() {
        String::new()
    } else {
        format!("{{{lk}=\"{lv}\"}}")
    }
}

/// Renders one cumulative histogram bucket line with its `le` boundary
/// (merged with the metric's own label pair when present).
fn bucket_line(out: &mut String, name: &str, lk: &str, lv: &str, le: &str, cumulative: u64) {
    if lk.is_empty() {
        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
    } else {
        let _ = writeln!(
            out,
            "{name}_bucket{{{lk}=\"{lv}\",le=\"{le}\"}} {cumulative}"
        );
    }
}

/// `# HELP` strings for the metric names the engines emit. Unknown names
/// export without a HELP line.
fn help_text(name: &str) -> &'static str {
    match name {
        "specfaas_requests_submitted_total" => "Requests submitted to the engine.",
        "specfaas_requests_completed_total" => "Requests that reached a successful terminal.",
        "specfaas_requests_failed_total" => "Requests aborted after exhausting retries.",
        "specfaas_functions_started_total" => "Function instances launched.",
        "specfaas_commits_total" => "Pipeline slots committed in program order.",
        "specfaas_squashes_total" => "Squash events by cause.",
        "specfaas_memo_hits_total" => "Speculative launches satisfied from the memo table.",
        "specfaas_branch_predictions_total" => "Branch predictions by outcome.",
        "specfaas_faults_injected_total" => "Injected faults by site.",
        "specfaas_cold_starts_total" => "Container acquisitions that paid a cold start.",
        "specfaas_warm_starts_total" => "Container acquisitions served from the warm pool.",
        "specfaas_kv_reads_total" => "Key-value store reads issued.",
        "specfaas_kv_writes_total" => "Key-value store writes issued.",
        "specfaas_squashed_core_us_total" => "Core-time wasted on squashed work, microseconds.",
        "specfaas_warm_pool_size" => "Idle warm containers across the cluster.",
        "specfaas_controller_queue_depth" => "Jobs queued or in service at each node controller.",
        "specfaas_busy_cores" => "Occupied execution slots per node.",
        "specfaas_inflight_spec_slots" => "Live function instances launched speculatively.",
        "specfaas_memo_entries" => "Entries resident across all memo tables.",
        "specfaas_outstanding_kv_ops" => "Key-value operations issued but not yet completed.",
        "specfaas_response_latency_us" => {
            "End-to-end response latency of measured requests, microseconds."
        }
        "specfaas_request_squashed_functions" => {
            "Squashed-function count per measured request (squash depth)."
        }
        "specfaas_wasted_core_us_by_function" => {
            "Squashed core-time heavy hitters by app/function, microseconds."
        }
        "specfaas_requests_by_function" => "Request-start heavy hitters by app/function.",
        _ => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_inert() {
        let mut r = MetricsRegistry::disabled();
        r.inc("x");
        r.sample(SimTime::ZERO, "g", 1);
        assert!(!r.enabled());
        assert_eq!(r.counter("x", "", ""), 0);
        assert!(r.export_prometheus().is_empty());
        assert!(r.export_csv().is_empty());
    }

    #[test]
    fn counters_accumulate_and_export() {
        let mut r = MetricsRegistry::recording();
        r.inc("specfaas_requests_submitted_total");
        r.inc_by("specfaas_requests_submitted_total", 2);
        r.inc_labeled("specfaas_squashes_total", "cause", "wrong_path");
        assert_eq!(r.counter("specfaas_requests_submitted_total", "", ""), 3);
        let prom = r.export_prometheus();
        assert!(prom.contains("# TYPE specfaas_requests_submitted_total counter"));
        assert!(prom.contains("specfaas_requests_submitted_total 3"));
        assert!(prom.contains("specfaas_squashes_total{cause=\"wrong_path\"} 1"));
    }

    #[test]
    fn gauge_dedupes_consecutive_values_and_overwrites_same_instant() {
        let mut r = MetricsRegistry::recording();
        let t = SimTime::from_millis;
        r.sample(t(1), "g", 5);
        r.sample(t(2), "g", 5); // duplicate value: collapsed
        r.sample(t(3), "g", 7);
        r.sample(t(3), "g", 8); // same instant: last write wins
        assert_eq!(r.gauge_series("g", "", ""), &[(t(1), 5), (t(3), 8)]);
    }

    #[test]
    fn csv_rows_sorted_by_time_then_metric() {
        let mut r = MetricsRegistry::recording();
        let t = SimTime::from_millis;
        r.sample(t(2), "b", 1);
        r.sample(t(1), "z", 9);
        r.sample_labeled(t(2), "a", "node", "0", 4);
        let csv = r.export_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines,
            vec![
                "time_us,metric,label,value",
                "1000,z,,9",
                "2000,a,node=0,4",
                "2000,b,,1",
            ]
        );
    }

    #[test]
    fn histogram_exports_cumulative_le_buckets() {
        let mut r = MetricsRegistry::recording();
        for v in [5u64, 5, 9, 40] {
            r.observe("specfaas_response_latency_us", v);
        }
        let prom = r.export_prometheus();
        assert!(prom.contains("# TYPE specfaas_response_latency_us histogram"));
        assert!(prom.contains("specfaas_response_latency_us_bucket{le=\"5\"} 2"));
        assert!(prom.contains("specfaas_response_latency_us_bucket{le=\"9\"} 3"));
        assert!(prom.contains("specfaas_response_latency_us_bucket{le=\"40\"} 4"));
        assert!(prom.contains("specfaas_response_latency_us_bucket{le=\"+Inf\"} 4"));
        assert!(prom.contains("specfaas_response_latency_us_sum 59"));
        assert!(prom.contains("specfaas_response_latency_us_count 4"));
        let h = r.histogram("specfaas_response_latency_us", "", "").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile(1.0), 40);
    }

    #[test]
    fn histogram_csv_lists_nonzero_buckets() {
        let mut r = MetricsRegistry::recording();
        r.observe("d", 3);
        r.observe("d", 3);
        r.observe_labeled("d", "app", "x", 7);
        let csv = r.export_histograms_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines,
            vec![
                "metric,label,bucket_lo,bucket_hi,count,cumulative",
                "d,,3,4,2,2",
                "d,app=x,7,8,1,1",
            ]
        );
    }

    #[test]
    fn topk_exports_in_descending_count_order() {
        let mut r = MetricsRegistry::recording();
        r.topk_add("specfaas_wasted_core_us_by_function", "app/b", 10);
        r.topk_add("specfaas_wasted_core_us_by_function", "app/a", 30);
        let prom = r.export_prometheus();
        let b_pos = prom.find("key=\"app/b\"").unwrap();
        let a_pos = prom.find("key=\"app/a\"").unwrap();
        assert!(a_pos < b_pos, "heavier key must render first");
        let sketch = r.topk("specfaas_wasted_core_us_by_function").unwrap();
        assert_eq!(sketch.total(), 40);
    }

    #[test]
    fn snapshot_log_emits_on_window_boundaries() {
        let mut r = MetricsRegistry::recording();
        let mut log = SnapshotLog::new(SimDuration::from_millis(10));
        r.inc("specfaas_requests_completed_total");
        r.observe("specfaas_response_latency_us", 5_000);
        log.tick(SimTime::from_millis(3), &r); // before first boundary
        assert!(log.lines().is_empty());
        log.tick(SimTime::from_millis(25), &r); // crosses 10ms and 20ms
        assert_eq!(log.lines().len(), 2);
        assert!(log.lines()[0].starts_with("{\"t_us\": 10000"));
        assert!(log.lines()[1].starts_with("{\"t_us\": 20000"));
        assert!(log.lines()[0].contains("\"specfaas_requests_completed_total\": 1"));
        assert!(log.lines()[0].contains("\"p50\": 5000"));
        log.finish(SimTime::from_millis(26), &r);
        let jsonl = log.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.ends_with('\n'));
    }

    /// Unlabeled and labeled counters (one incremented by zero), gauges,
    /// two histograms (one labeled) and a top-K sketch.
    fn pinned_registry() -> MetricsRegistry {
        let t = SimTime::from_millis;
        let mut r = MetricsRegistry::recording();
        r.inc("specfaas_requests_submitted_total");
        r.inc_by("specfaas_requests_submitted_total", 4);
        r.inc_by("specfaas_kv_reads_total", 0);
        r.inc_labeled("specfaas_squashes_total", "cause", "wrong_path");
        r.inc_labeled("specfaas_squashes_total", "cause", "fault");
        r.inc_labeled("specfaas_squashes_total", "cause", "wrong_path");
        r.inc("a_counter_without_help");
        r.sample(t(1), "specfaas_warm_pool_size", 7);
        r.sample_labeled(t(2), "specfaas_busy_cores", "node", "1", 3);
        r.sample_labeled(t(2), "specfaas_busy_cores", "node", "0", 9);
        for v in [3u64, 3, 70, 1_000, 1_000, 12_345, 98_765] {
            r.observe("specfaas_response_latency_us", v);
        }
        for (v, n) in [(0u64, 50), (2, 45), (9, 4), (11, 1)] {
            for _ in 0..n {
                r.observe_labeled("specfaas_request_squashed_functions", "app", "x", v);
            }
        }
        r.topk_add("specfaas_requests_by_function", "app/f", 5);
        r
    }

    #[test]
    fn prometheus_export_renders_exactly() {
        assert_eq!(
            pinned_registry().export_prometheus(),
            concat!(
                "# TYPE a_counter_without_help counter\n",
                "a_counter_without_help 1\n",
                "# HELP specfaas_kv_reads_total Key-value store reads issued.\n",
                "# TYPE specfaas_kv_reads_total counter\n",
                "specfaas_kv_reads_total 0\n",
                "# HELP specfaas_requests_submitted_total Requests submitted to the engine.\n",
                "# TYPE specfaas_requests_submitted_total counter\n",
                "specfaas_requests_submitted_total 5\n",
                "# HELP specfaas_squashes_total Squash events by cause.\n",
                "# TYPE specfaas_squashes_total counter\n",
                "specfaas_squashes_total{cause=\"fault\"} 1\n",
                "specfaas_squashes_total{cause=\"wrong_path\"} 2\n",
                "# HELP specfaas_busy_cores Occupied execution slots per node.\n",
                "# TYPE specfaas_busy_cores gauge\n",
                "specfaas_busy_cores{node=\"0\"} 9\n",
                "specfaas_busy_cores{node=\"1\"} 3\n",
                "# HELP specfaas_warm_pool_size Idle warm containers across the cluster.\n",
                "# TYPE specfaas_warm_pool_size gauge\n",
                "specfaas_warm_pool_size 7\n",
                "# HELP specfaas_request_squashed_functions Squashed-function count per measured \
                 request (squash depth).\n",
                "# TYPE specfaas_request_squashed_functions histogram\n",
                "specfaas_request_squashed_functions_bucket{app=\"x\",le=\"0\"} 50\n",
                "specfaas_request_squashed_functions_bucket{app=\"x\",le=\"2\"} 95\n",
                "specfaas_request_squashed_functions_bucket{app=\"x\",le=\"9\"} 99\n",
                "specfaas_request_squashed_functions_bucket{app=\"x\",le=\"11\"} 100\n",
                "specfaas_request_squashed_functions_bucket{app=\"x\",le=\"+Inf\"} 100\n",
                "specfaas_request_squashed_functions_sum{app=\"x\"} 137\n",
                "specfaas_request_squashed_functions_count{app=\"x\"} 100\n",
                "# HELP specfaas_response_latency_us End-to-end response latency of measured \
                 requests, microseconds.\n",
                "# TYPE specfaas_response_latency_us histogram\n",
                "specfaas_response_latency_us_bucket{le=\"3\"} 2\n",
                "specfaas_response_latency_us_bucket{le=\"70\"} 3\n",
                "specfaas_response_latency_us_bucket{le=\"1007\"} 5\n",
                "specfaas_response_latency_us_bucket{le=\"12415\"} 6\n",
                "specfaas_response_latency_us_bucket{le=\"99327\"} 7\n",
                "specfaas_response_latency_us_bucket{le=\"+Inf\"} 7\n",
                "specfaas_response_latency_us_sum 113186\n",
                "specfaas_response_latency_us_count 7\n",
                "# HELP specfaas_requests_by_function Request-start heavy hitters by \
                 app/function.\n",
                "# TYPE specfaas_requests_by_function counter\n",
                "specfaas_requests_by_function{key=\"app/f\"} 5\n",
            )
        );
    }

    #[test]
    fn csv_exports_render_exactly() {
        let r = pinned_registry();
        assert_eq!(
            r.export_csv(),
            concat!(
                "time_us,metric,label,value\n",
                "1000,specfaas_warm_pool_size,,7\n",
                "2000,specfaas_busy_cores,node=0,9\n",
                "2000,specfaas_busy_cores,node=1,3\n",
            )
        );
        assert_eq!(
            r.export_histograms_csv(),
            concat!(
                "metric,label,bucket_lo,bucket_hi,count,cumulative\n",
                "specfaas_request_squashed_functions,app=x,0,1,50,50\n",
                "specfaas_request_squashed_functions,app=x,2,3,45,95\n",
                "specfaas_request_squashed_functions,app=x,9,10,4,99\n",
                "specfaas_request_squashed_functions,app=x,11,12,1,100\n",
                "specfaas_response_latency_us,,3,4,2,2\n",
                "specfaas_response_latency_us,,70,71,1,3\n",
                "specfaas_response_latency_us,,1000,1008,2,5\n",
                "specfaas_response_latency_us,,12288,12416,1,6\n",
                "specfaas_response_latency_us,,98304,99328,1,7\n",
            )
        );
    }

    #[test]
    fn snapshot_json_renders_exactly() {
        let r = pinned_registry();
        assert_eq!(
            r.snapshot_json(SimTime::from_millis(20)),
            concat!(
                "{\"t_us\": 20000, \"counters\": {",
                "\"a_counter_without_help\": 1, ",
                "\"specfaas_kv_reads_total\": 0, ",
                "\"specfaas_requests_submitted_total\": 5, ",
                "\"specfaas_squashes_total{cause=fault}\": 1, ",
                "\"specfaas_squashes_total{cause=wrong_path}\": 2}, ",
                "\"histograms\": {",
                "\"specfaas_request_squashed_functions{app=x}\": ",
                "{\"count\": 100, \"p50\": 0, \"p99\": 9, \"p999\": 11, \"max\": 11}, ",
                "\"specfaas_response_latency_us\": ",
                "{\"count\": 7, \"p50\": 1004, \"p99\": 98765, \"p999\": 98765, \"max\": 98765}",
                "}}",
            )
        );
        assert_eq!(
            MetricsRegistry::recording().snapshot_json(SimTime::ZERO),
            "{\"t_us\": 0, \"counters\": {}, \"histograms\": {}}"
        );
        assert_eq!(
            MetricsRegistry::disabled().snapshot_json(SimTime::from_micros(7)),
            "{\"t_us\": 7}"
        );
    }

    #[test]
    fn prometheus_gauge_reports_last_sample() {
        let mut r = MetricsRegistry::recording();
        r.sample(SimTime::from_millis(1), "specfaas_warm_pool_size", 3);
        r.sample(SimTime::from_millis(9), "specfaas_warm_pool_size", 11);
        let prom = r.export_prometheus();
        assert!(prom.contains("# TYPE specfaas_warm_pool_size gauge"));
        assert!(prom.contains("specfaas_warm_pool_size 11"));
        assert!(!prom.contains("specfaas_warm_pool_size 3"));
    }
}
