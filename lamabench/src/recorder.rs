//! A benchmark-side telemetry sink that keeps exact totals.
//!
//! The program's `RingRecorder` bins durations into base-2 histograms,
//! which is right for "where did the time go" but cannot give the exact
//! sums that self-time attribution subtracts. `ExactRecorder` keeps a
//! nanosecond total and a count per span name, and one thing the ring
//! cannot: the program emits a `SweepSpan` event when a panel's search
//! finishes but opens no span around the search, so the recorder stamps
//! every call it receives per thread (value records excepted) and
//! charges the time since the thread's previous call to the sweep that
//! the event closes.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rfmath::telemetry::{Recorder, RecorderHandle, TelemetryEvent};

thread_local! {
    /// When this thread last called into any `ExactRecorder`.
    static LAST_CALL: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Nanoseconds since this thread's previous recorder call (`None` on
/// its first), restarting the interval.
fn since_last_call() -> Option<u64> {
    let now = Instant::now();
    LAST_CALL
        .with(|last| last.replace(Some(now)))
        .map(|then| u64::try_from(now.duration_since(then).as_nanos()).unwrap_or(u64::MAX))
}

/// A count and an exact sum.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Total {
    pub count: u64,
    pub sum: u128,
}

impl Total {
    fn add(&mut self, v: u64) {
        self.count += 1;
        self.sum += u128::from(v);
    }

    /// Sum in milliseconds, reading the sum as nanoseconds.
    pub fn sum_ms(&self) -> f64 {
        self.sum as f64 / 1e6
    }
}

/// Completed searches of one kind (`"cold"` or `"warm"`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sweeps {
    pub count: u64,
    pub probes: u64,
    /// Searches whose interval could be measured (the thread had called
    /// the recorder before).
    pub timed: u64,
    pub interval_ns: u128,
}

#[derive(Debug, Default)]
struct Inner {
    durations: BTreeMap<&'static str, Total>,
    sweeps: BTreeMap<&'static str, Sweeps>,
}

/// Exact totals per name; see the module docs.
#[derive(Debug, Default)]
pub struct ExactRecorder {
    inner: Mutex<Inner>,
}

impl ExactRecorder {
    /// A fresh recorder and a handle to attach through `with_recorder`.
    pub fn attach() -> (Arc<Self>, RecorderHandle) {
        let recorder = Arc::new(Self::default());
        let handle = RecorderHandle::new(recorder.clone());
        (recorder, handle)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("a recorder caller panicked")
    }

    /// Exact total of a span or duration name.
    pub fn duration(&self, name: &str) -> Total {
        self.lock().durations.get(name).copied().unwrap_or_default()
    }

    /// Searches of `kind` closed by a `SweepSpan` event.
    pub fn sweeps(&self, kind: &str) -> Sweeps {
        self.lock().sweeps.get(kind).copied().unwrap_or_default()
    }
}

impl Recorder for ExactRecorder {
    fn enabled(&self) -> bool {
        // Span creation asks this first, so it marks a layer boundary.
        since_last_call();
        true
    }

    fn add(&self, _name: &'static str, _delta: u64) {
        since_last_call();
    }

    fn gauge(&self, _name: &'static str, _value: f64) {
        since_last_call();
    }

    fn duration_ns(&self, name: &'static str, nanos: u64) {
        since_last_call();
        self.lock().durations.entry(name).or_default().add(nanos);
    }

    fn record_value(&self, _name: &'static str, _value: u64) {
        // Not a boundary: the panel scheduler records a panel's probe
        // count just before the event that closes its search.
    }

    fn emit(&self, event: TelemetryEvent) {
        let interval = since_last_call();
        if let TelemetryEvent::SweepSpan { kind, probes, .. } = event {
            let mut inner = self.lock();
            let sweeps = inner.sweeps.entry(kind).or_default();
            sweeps.count += 1;
            sweeps.probes += probes as u64;
            if let Some(ns) = interval {
                sweeps.timed += 1;
                sweeps.interval_ns += u128::from(ns);
            }
        }
    }

    fn set_tick(&self, _tick: u64) {
        since_last_call();
    }

    fn aggregate_json(&self) -> String {
        String::from("{\"mode\": \"exact\"}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_are_exact_not_binned() {
        let (rec, handle) = ExactRecorder::attach();
        for ns in [1u64, 3, 1_000_003] {
            handle.duration_ns("phase", ns);
        }
        assert_eq!(
            rec.duration("phase"),
            Total {
                count: 3,
                sum: 1_000_007
            }
        );
        assert_eq!(rec.duration("never"), Total::default());
    }

    #[test]
    fn spans_land_as_exact_durations() {
        let (rec, handle) = ExactRecorder::attach();
        {
            let _span = handle.span("work");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let total = rec.duration("work");
        assert_eq!(total.count, 1);
        assert!(total.sum >= 2_000_000, "slept 2 ms, saw {} ns", total.sum);
    }

    #[test]
    fn sweep_events_are_charged_the_interval_since_the_last_call() {
        let (rec, handle) = ExactRecorder::attach();
        // Runs on a fresh thread so no earlier call on this test thread
        // can open the interval.
        std::thread::scope(|s| {
            s.spawn(|| {
                handle.emit(TelemetryEvent::SweepSpan {
                    panel: 0,
                    kind: "cold",
                    probes: 50,
                });
                std::thread::sleep(std::time::Duration::from_millis(2));
                handle.emit(TelemetryEvent::SweepSpan {
                    panel: 1,
                    kind: "cold",
                    probes: 40,
                });
            });
        });
        let cold = rec.sweeps("cold");
        assert_eq!((cold.count, cold.probes, cold.timed), (2, 90, 1));
        assert!(cold.interval_ns >= 2_000_000);
        assert_eq!(rec.sweeps("warm"), Sweeps::default());
    }
}
