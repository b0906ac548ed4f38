//! Unified telemetry plane: counters, gauges, log-binned histograms,
//! RAII span timing and a bounded structured event log.
//!
//! The serving stack (fleet server, sweep controller, panel scheduler,
//! mobility simulator, fault engine) reports into a single [`Recorder`]
//! so a run can answer "where did this tick's budget go" and "which
//! layer regressed" without growing one-off report fields.
//! Two implementations ship:
//!
//! * [`NullRecorder`] — the default. Every method is a no-op and
//!   [`Recorder::enabled`] is `false`, so instrumented hot paths skip
//!   event construction entirely; a `NullRecorder` run must be
//!   bit-identical to a build with telemetry absent (proptested in
//!   `llama-core`).
//! * [`RingRecorder`] — a bounded in-memory sink. Metrics (counters,
//!   gauges, log-binned duration/value histograms) aggregate under a
//!   mutex; typed [`TelemetryEvent`]s land in a bounded ring stamped
//!   with a *logical* clock — `(sequence, tick)` — never wall time, so
//!   the serialized event log of a seeded run is bitwise reproducible.
//!
//! The determinism contract is deliberate: wall-clock durations flow
//! only into the aggregated histograms (exported as the `telemetry`
//! block of bench artifacts), while the event ring carries only values
//! that are a pure function of the seed. `expts --trace <room>`
//! serializes the ring as JSONL and byte-compares two full runs.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One structured event in the serving stack's taxonomy.
///
/// Every payload field is deterministic for a fixed seed: job/panel
/// indices, logical tick numbers, probe counts, and objective values
/// computed by the (deterministic) numeric pipeline. Wall-clock
/// durations are *not* representable here by design — they belong in
/// the duration histograms.
#[derive(Clone, Debug, PartialEq)]
pub enum TelemetryEvent {
    /// A job was staged before the workers started.
    JobEnqueued {
        /// Job index within the submitted batch.
        job: usize,
    },
    /// A job finished (successfully or not).
    JobCompleted {
        /// Job index within the submitted batch.
        job: usize,
        /// Whether the handler returned a value (vs deadline/panic).
        ok: bool,
    },
    /// One bias sweep over a panel completed.
    SweepSpan {
        /// Panel index that was swept.
        panel: usize,
        /// Search kind: `"cold"`, `"warm"` or `"reused"`.
        kind: &'static str,
        /// Probes spent by the sweep (0 for a reused plan).
        probes: usize,
    },
    /// One round of the joint multi-surface descent completed.
    JointRound {
        /// Round number, starting at 1.
        round: usize,
        /// Min-power lift this round contributed, in dB.
        lift_db: f64,
        /// Coupled-field probes charged to this round so far.
        coupled_probes: usize,
    },
    /// A device was handed off between panels.
    Handoff {
        /// Device index.
        device: usize,
        /// Panel the device left.
        from_panel: usize,
        /// Panel the device now homes on.
        to_panel: usize,
    },
    /// A fault was injected (a panel went dark this tick).
    FaultInjected {
        /// Panel index that failed.
        panel: usize,
        /// Fault kind: `"outage"`, `"psu_glitch"`, ….
        kind: &'static str,
    },
    /// A previously-dark panel healed this tick.
    FaultRecovered {
        /// Panel index that recovered.
        panel: usize,
    },
    /// A revived panel was re-admitted by the revival policy.
    Revival {
        /// Panel index that was re-admitted.
        panel: usize,
    },
    /// A lost report consumed one retry attempt.
    Retry {
        /// Panel whose report was retried.
        panel: usize,
        /// 1-based attempt number that was lost.
        attempt: usize,
        /// Whether the retry budget is now exhausted.
        exhausted: bool,
    },
    /// The PSU settling window billed (or deferred) a bias apply.
    PsuSettle {
        /// Panel whose supply settled.
        panel: usize,
        /// True when the apply was deferred to the next tick.
        deferred: bool,
    },
    /// One phase of a simulator tick, with its deterministic work count.
    TickPhase {
        /// Phase name: `"advance"`, `"reopt"`, `"settle"`, `"serve"`.
        phase: &'static str,
        /// Items processed (dirty devices, rebinds, panels, …).
        items: usize,
    },
}

impl TelemetryEvent {
    /// Snake-case type tag used in the JSONL serialization.
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryEvent::JobEnqueued { .. } => "job_enqueued",
            TelemetryEvent::JobCompleted { .. } => "job_completed",
            TelemetryEvent::SweepSpan { .. } => "sweep_span",
            TelemetryEvent::JointRound { .. } => "joint_round",
            TelemetryEvent::Handoff { .. } => "handoff",
            TelemetryEvent::FaultInjected { .. } => "fault_injected",
            TelemetryEvent::FaultRecovered { .. } => "fault_recovered",
            TelemetryEvent::Revival { .. } => "revival",
            TelemetryEvent::Retry { .. } => "retry",
            TelemetryEvent::PsuSettle { .. } => "psu_settle",
            TelemetryEvent::TickPhase { .. } => "tick_phase",
        }
    }

    /// The payload rendered as JSON object fields (no braces), e.g.
    /// `"job": 5, "ok": true`. Deterministic: integer fields print
    /// exactly and the single f64 field (`lift_db`) prints with a fixed
    /// precision, so identical bits yield identical text.
    pub fn fields_json(&self) -> String {
        match self {
            TelemetryEvent::JobEnqueued { job } => format!("\"job\": {job}"),
            TelemetryEvent::JobCompleted { job, ok } => {
                format!("\"job\": {job}, \"ok\": {ok}")
            }
            TelemetryEvent::SweepSpan {
                panel,
                kind,
                probes,
            } => {
                format!("\"panel\": {panel}, \"kind\": \"{kind}\", \"probes\": {probes}")
            }
            TelemetryEvent::JointRound {
                round,
                lift_db,
                coupled_probes,
            } => format!(
                "\"round\": {round}, \"lift_db\": {lift_db:.6}, \
                 \"coupled_probes\": {coupled_probes}"
            ),
            TelemetryEvent::Handoff {
                device,
                from_panel,
                to_panel,
            } => format!(
                "\"device\": {device}, \"from_panel\": {from_panel}, \
                 \"to_panel\": {to_panel}"
            ),
            TelemetryEvent::FaultInjected { panel, kind } => {
                format!("\"panel\": {panel}, \"kind\": \"{kind}\"")
            }
            TelemetryEvent::FaultRecovered { panel } => format!("\"panel\": {panel}"),
            TelemetryEvent::Revival { panel } => format!("\"panel\": {panel}"),
            TelemetryEvent::Retry {
                panel,
                attempt,
                exhausted,
            } => format!("\"panel\": {panel}, \"attempt\": {attempt}, \"exhausted\": {exhausted}"),
            TelemetryEvent::PsuSettle { panel, deferred } => {
                format!("\"panel\": {panel}, \"deferred\": {deferred}")
            }
            TelemetryEvent::TickPhase { phase, items } => {
                format!("\"phase\": \"{phase}\", \"items\": {items}")
            }
        }
    }
}

/// The sink every instrumented layer reports into.
///
/// Implementations must be cheap when disabled: callers are expected to
/// guard event *construction* behind [`Recorder::enabled`], but the
/// methods themselves must also tolerate being called on the null path.
pub trait Recorder: Send + Sync + fmt::Debug {
    /// Whether this recorder keeps anything. Hot paths skip payload
    /// construction when this is `false`.
    fn enabled(&self) -> bool;
    /// Adds `delta` to the named monotonic counter.
    fn add(&self, name: &'static str, delta: u64);
    /// Sets the named gauge to its latest observed value.
    fn gauge(&self, name: &'static str, value: f64);
    /// Records one wall-clock duration, in nanoseconds, into the named
    /// log-binned histogram. Durations never enter the event ring.
    fn duration_ns(&self, name: &'static str, nanos: u64);
    /// Records one dimensionless value (queue depth, probe count, …)
    /// into the named log-binned histogram.
    fn record_value(&self, name: &'static str, value: u64);
    /// Appends a structured event to the bounded ring.
    fn emit(&self, event: TelemetryEvent);
    /// Advances the logical clock; subsequent events stamp this tick.
    fn set_tick(&self, tick: u64);
    /// The aggregated metrics as a single-line JSON object — the
    /// `"telemetry"` block stamped into bench artifacts.
    fn aggregate_json(&self) -> String;
}

/// The default recorder: keeps nothing, reports `enabled() == false`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn add(&self, _name: &'static str, _delta: u64) {}
    fn gauge(&self, _name: &'static str, _value: f64) {}
    fn duration_ns(&self, _name: &'static str, _nanos: u64) {}
    fn record_value(&self, _name: &'static str, _value: u64) {}
    fn emit(&self, _event: TelemetryEvent) {}
    fn set_tick(&self, _tick: u64) {}
    fn aggregate_json(&self) -> String {
        String::from("{\"mode\": \"null\"}")
    }
}

/// A log-binned (base-2) histogram over `u64` samples with count, sum
/// and exact min/max. Bin `b` holds values whose bit length is `b`
/// (bin 0 holds only zero), so 64 fixed bins cover the full range with
/// ≤ 2× relative quantile error — plenty for "where did the time go"
/// and far cheaper than storing samples.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    bins: [u64; 65],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            bins: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// Index of the bin holding `v`: its bit length.
    fn bin_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Adds one sample.
    pub fn record(&mut self, v: u64) {
        self.bins[Self::bin_of(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bin-based quantile estimate (`q ∈ [0, 1]`): the geometric
    /// midpoint of the bin containing the q-th sample, clamped to the
    /// observed min/max. NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (b, &c) in self.bins.iter().enumerate() {
            seen += c;
            if c > 0 && seen > rank {
                let mid = if b == 0 {
                    0.0
                } else {
                    // Geometric midpoint of [2^(b-1), 2^b).
                    2f64.powi(b as i32 - 1) * std::f64::consts::SQRT_2
                };
                return mid.clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }

    /// Renders the summary as a single-line JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"count\": {}, \"mean\": {:.1}, \"p50\": {:.1}, \"p95\": {:.1}, \
             \"min\": {}, \"max\": {}}}",
            self.count,
            self.mean(),
            if self.count == 0 {
                0.0
            } else {
                self.quantile(0.50)
            },
            if self.count == 0 {
                0.0
            } else {
                self.quantile(0.95)
            },
            if self.count == 0 { 0 } else { self.min },
            self.max,
        )
    }
}

/// Everything the ring recorder accumulates, behind one mutex.
#[derive(Debug, Default)]
struct RingInner {
    seq: u64,
    tick: u64,
    dropped: u64,
    events: VecDeque<(u64, u64, TelemetryEvent)>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    durations: BTreeMap<&'static str, LogHistogram>,
    values: BTreeMap<&'static str, LogHistogram>,
}

/// A bounded in-memory recorder: metrics aggregate, events ring.
///
/// Events are stamped with `(seq, tick)` — a process-order sequence
/// number and the logical simulation tick set via [`Recorder::set_tick`]
/// — never wall time, so [`RingRecorder::events_jsonl`] of a seeded
/// single-worker run is bitwise reproducible. When the ring is full the
/// *oldest* events are dropped (and counted), keeping the tail of a
/// long run, which is where a post-mortem usually looks.
#[derive(Debug)]
pub struct RingRecorder {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl RingRecorder {
    /// Default event-ring capacity.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// Creates a recorder whose ring keeps at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(RingInner::default()),
        }
    }

    /// Serializes the event ring as JSONL, one event per line:
    /// `{"seq": 0, "tick": 0, "type": "job_enqueued", ...}`.
    pub fn events_jsonl(&self) -> String {
        let inner = self.inner.lock().expect("telemetry lock");
        let mut out = String::new();
        for (seq, tick, ev) in &inner.events {
            out.push_str(&format!(
                "{{\"seq\": {seq}, \"tick\": {tick}, \"type\": \"{}\", {}}}\n",
                ev.kind(),
                ev.fields_json()
            ));
        }
        out
    }

    /// Number of events currently in the ring.
    pub fn event_count(&self) -> usize {
        self.inner.lock().expect("telemetry lock").events.len()
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("telemetry lock").dropped
    }

    /// Value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("telemetry lock");
        inner.counters.get(name).copied().unwrap_or(0)
    }

    /// Clones the events out of the ring, oldest first.
    pub fn events(&self) -> Vec<(u64, u64, TelemetryEvent)> {
        let inner = self.inner.lock().expect("telemetry lock");
        inner.events.iter().cloned().collect()
    }
}

impl Default for RingRecorder {
    /// A ring at [`RingRecorder::DEFAULT_CAPACITY`].
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl Recorder for RingRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, name: &'static str, delta: u64) {
        let mut inner = self.inner.lock().expect("telemetry lock");
        *inner.counters.entry(name).or_insert(0) += delta;
    }

    fn gauge(&self, name: &'static str, value: f64) {
        let mut inner = self.inner.lock().expect("telemetry lock");
        inner.gauges.insert(name, value);
    }

    fn duration_ns(&self, name: &'static str, nanos: u64) {
        let mut inner = self.inner.lock().expect("telemetry lock");
        inner.durations.entry(name).or_default().record(nanos);
    }

    fn record_value(&self, name: &'static str, value: u64) {
        let mut inner = self.inner.lock().expect("telemetry lock");
        inner.values.entry(name).or_default().record(value);
    }

    fn emit(&self, event: TelemetryEvent) {
        let mut inner = self.inner.lock().expect("telemetry lock");
        let seq = inner.seq;
        inner.seq += 1;
        let tick = inner.tick;
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back((seq, tick, event));
    }

    fn set_tick(&self, tick: u64) {
        self.inner.lock().expect("telemetry lock").tick = tick;
    }

    fn aggregate_json(&self) -> String {
        let inner = self.inner.lock().expect("telemetry lock");
        let mut out = String::from("{\"mode\": \"ring\"");
        out.push_str(&format!(
            ", \"events\": {}, \"dropped\": {}",
            inner.events.len(),
            inner.dropped
        ));
        out.push_str(", \"counters\": {");
        for (i, (k, v)) in inner.counters.iter().enumerate() {
            let comma = if i == 0 { "" } else { ", " };
            out.push_str(&format!("{comma}\"{k}\": {v}"));
        }
        out.push_str("}, \"gauges\": {");
        for (i, (k, v)) in inner.gauges.iter().enumerate() {
            let comma = if i == 0 { "" } else { ", " };
            out.push_str(&format!("{comma}\"{k}\": {v:.4}"));
        }
        out.push_str("}, \"durations_ns\": {");
        for (i, (k, h)) in inner.durations.iter().enumerate() {
            let comma = if i == 0 { "" } else { ", " };
            out.push_str(&format!("{comma}\"{k}\": {}", h.json()));
        }
        out.push_str("}, \"values\": {");
        for (i, (k, h)) in inner.values.iter().enumerate() {
            let comma = if i == 0 { "" } else { ", " };
            out.push_str(&format!("{comma}\"{k}\": {}", h.json()));
        }
        out.push_str("}}");
        out
    }
}

/// A cheaply clonable, shareable handle to a recorder — the type every
/// instrumented struct actually holds. `Default` is the null recorder,
/// so adding a handle field never changes behavior until someone opts
/// in with a ring.
#[derive(Clone)]
pub struct RecorderHandle(Arc<dyn Recorder>);

impl Default for RecorderHandle {
    fn default() -> Self {
        Self::null()
    }
}

// A handle is unwind-safe: the null recorder has no state at all, and
// the ring recorder keeps everything behind a poisoning `Mutex` whose
// accessors recover the inner value — observing a recorder after a
// caller panic can never expose a broken invariant. (Without these,
// every struct carrying a handle would stop being catch_unwind-able,
// which the fleet server's panic-isolation tests rely on.)
impl std::panic::UnwindSafe for RecorderHandle {}
impl std::panic::RefUnwindSafe for RecorderHandle {}

impl fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RecorderHandle({})",
            if self.enabled() { "ring" } else { "null" }
        )
    }
}

impl RecorderHandle {
    /// The no-op handle (the default everywhere). Every call shares one
    /// process-wide recorder, so a null handle never allocates.
    pub fn null() -> Self {
        static NULL: OnceLock<RecorderHandle> = OnceLock::new();
        NULL.get_or_init(|| Self(Arc::new(NullRecorder))).clone()
    }

    /// Wraps any recorder implementation.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        Self(recorder)
    }

    /// Whether the underlying recorder keeps anything. Guard event
    /// *construction* (formatting, lookups) behind this in hot paths.
    pub fn enabled(&self) -> bool {
        self.0.enabled()
    }

    /// Adds `delta` to the named counter.
    pub fn add(&self, name: &'static str, delta: u64) {
        self.0.add(name, delta);
    }

    /// Sets the named gauge.
    pub fn gauge(&self, name: &'static str, value: f64) {
        self.0.gauge(name, value);
    }

    /// Records a wall-clock duration (nanoseconds) into a histogram.
    pub fn duration_ns(&self, name: &'static str, nanos: u64) {
        self.0.duration_ns(name, nanos);
    }

    /// Records a dimensionless value into a histogram.
    pub fn record_value(&self, name: &'static str, value: u64) {
        self.0.record_value(name, value);
    }

    /// Emits a structured event.
    pub fn emit(&self, event: TelemetryEvent) {
        self.0.emit(event);
    }

    /// Advances the logical tick clock.
    pub fn set_tick(&self, tick: u64) {
        self.0.set_tick(tick);
    }

    /// Opens an RAII span: the wall-clock between now and drop lands in
    /// the named duration histogram. On the null path no clock is read.
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            name,
            start: if self.enabled() {
                Some((Instant::now(), self.clone()))
            } else {
                None
            },
        }
    }

    /// The aggregated `"telemetry"` block for bench artifacts.
    pub fn aggregate_json(&self) -> String {
        self.0.aggregate_json()
    }
}

/// The null-mode `"telemetry"` block stamped into artifacts produced
/// without a live recorder.
pub fn null_block_json() -> String {
    NullRecorder.aggregate_json()
}

/// An RAII timing guard from [`RecorderHandle::span`]: drop records the
/// elapsed wall time into the recorder's duration histogram. Against a
/// null recorder the span holds nothing and drop is a no-op.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<(Instant, RecorderHandle)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((start, handle)) = self.start.take() {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            handle.duration_ns(self.name, nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_and_silent() {
        let h = RecorderHandle::null();
        assert!(!h.enabled());
        h.add("x", 3);
        h.emit(TelemetryEvent::Revival { panel: 0 });
        h.set_tick(7);
        {
            let _s = h.span("quiet");
        }
        assert_eq!(h.aggregate_json(), "{\"mode\": \"null\"}");
        assert_eq!(format!("{h:?}"), "RecorderHandle(null)");
    }

    #[test]
    fn ring_counts_and_events_accumulate() {
        let ring = Arc::new(RingRecorder::new(8));
        let h = RecorderHandle::new(ring.clone());
        assert!(h.enabled());
        h.add("jobs", 2);
        h.add("jobs", 1);
        h.set_tick(4);
        h.emit(TelemetryEvent::JobEnqueued { job: 0 });
        assert_eq!(ring.counter("jobs"), 3);
        let events = ring.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].0, 0, "first seq is 0");
        assert_eq!(events[0].1, 4, "tick stamp follows set_tick");
        let jsonl = ring.events_jsonl();
        assert_eq!(
            jsonl,
            "{\"seq\": 0, \"tick\": 4, \"type\": \"job_enqueued\", \"job\": 0}\n"
        );
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let ring = Arc::new(RingRecorder::new(2));
        let h = RecorderHandle::new(ring.clone());
        for panel in 0..5 {
            h.emit(TelemetryEvent::Revival { panel });
        }
        assert_eq!(ring.event_count(), 2);
        assert_eq!(ring.dropped(), 3);
        let events = ring.events();
        // Oldest dropped: seqs 3 and 4 survive, in order.
        assert_eq!(events[0].0, 3);
        assert_eq!(events[1].0, 4);
    }

    #[test]
    fn log_histogram_binning_and_quantiles() {
        let mut h = LogHistogram::default();
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert!((h.mean() - 1110.0 / 6.0).abs() < 1e-9);
        // p50 lands in the bin of 3..4; the estimate must stay within
        // 2x of the exact median (3.5).
        let p50 = h.quantile(0.5);
        assert!((2.0..=8.0).contains(&p50), "p50 = {p50}");
        // p95 lands near the max and is clamped to it.
        let p95 = h.quantile(0.95);
        assert!((500.0..=1000.0).contains(&p95), "p95 = {p95}");
        // Zero has its own bin and an empty histogram yields NaN.
        let mut z = LogHistogram::default();
        assert!(z.quantile(0.5).is_nan());
        z.record(0);
        assert_eq!(z.quantile(0.5), 0.0);
    }

    #[test]
    fn span_lands_in_duration_histogram() {
        let ring = Arc::new(RingRecorder::new(8));
        let h = RecorderHandle::new(ring.clone());
        {
            let _s = h.span("work");
        }
        let json = ring.aggregate_json();
        assert!(json.contains("\"durations_ns\": {\"work\": {\"count\": 1"));
    }

    #[test]
    fn aggregate_json_is_one_object() {
        let ring = Arc::new(RingRecorder::new(8));
        let h = RecorderHandle::new(ring.clone());
        h.add("a", 1);
        h.gauge("g", 2.5);
        h.record_value("depth", 7);
        let json = ring.aggregate_json();
        assert!(json.starts_with("{\"mode\": \"ring\""));
        assert!(json.ends_with("}}"));
        assert!(json.contains("\"counters\": {\"a\": 1}"));
        assert!(json.contains("\"gauges\": {\"g\": 2.5000}"));
        assert!(json.contains("\"values\": {\"depth\": {\"count\": 1"));
    }
}
