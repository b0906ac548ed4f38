//! Trace harness behind `expts --trace` and `expts --trace-overhead`:
//! the JSONL face of the telemetry plane, plus the CI gate that keeps
//! the plane cheap enough to leave compiled in.
//!
//! `--trace <room>` runs a zoo room start to finish with a
//! [`RingRecorder`] attached to every layer — the mobility engine
//! (tick-phase spans, fault and handoff edges), the panel scheduler
//! (per-panel sweep spans), and a single-worker [`FleetServer`] pass
//! over the room's fleet (job enqueue/complete events) — then runs the
//! whole thing *again* under the same seed and demands the two event
//! logs be **byte-identical**. Events carry only logical `(seq, tick)`
//! stamps and seed-deterministic payloads (wall-clock lands in the
//! aggregated histograms only), so any diff means nondeterminism crept
//! into the serving stack, and the trace doubles as a regression gate.
//!
//! `--trace-overhead` times the same room with a null recorder and with
//! a live ring and gates the ratio at [`OVERHEAD_CEILING`]. On a
//! single-core runner the timing is too noisy to gate hard, so the
//! report soft-passes there (recorded, not enforced).

use std::sync::Arc;

use control::server::FleetServer;
use llama_core::faults::FaultPlan;
use llama_core::panels::PanelScheduler;
use llama_core::telemetry::{RecorderHandle, RingRecorder};
use llama_core::{Fleet, PanelArray};

use crate::chaos::scripted_plan;
use crate::perf::time_ms;
use crate::report::{Field, Report};

/// Jobs staged through the single-worker server pass (the room's fleet
/// snapshot, repeated): enough to show several enqueue/complete pairs
/// without bloating the log.
pub const TRACE_SERVER_JOBS: usize = 4;

/// Max ring-over-null wall-clock ratio the overhead gate allows.
pub const OVERHEAD_CEILING: f64 = 1.05;

/// One deterministic trace capture of a zoo room.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// Catalog name of the room traced.
    pub room: String,
    /// Root seed of the run.
    pub seed: u64,
    /// Events captured in the ring (first run).
    pub events: usize,
    /// Events dropped because the ring was full.
    pub dropped: u64,
    /// Whether two same-seed captures were byte-identical JSONL.
    pub deterministic: bool,
    /// The JSONL event log of the first capture, one event per line.
    pub jsonl: String,
    /// The aggregated telemetry block of the first capture.
    pub telemetry: String,
}

/// Every event family the acceptance gate requires in a room trace:
/// server, scheduler, sim-tick and fault coverage.
const REQUIRED_KINDS: [&str; 5] = [
    "job_enqueued",
    "job_completed",
    "sweep_span",
    "tick_phase",
    "fault_injected",
];

impl TraceReport {
    /// Captures room `name` under `seed` twice and compares the logs
    /// (`Err` on an unknown room, listing the catalog).
    pub fn run(name: &str, seed: u64) -> Result<Self, String> {
        let (first_jsonl, first_agg, events, dropped) = traced_pass(name, seed)?;
        let (second_jsonl, _, _, _) = traced_pass(name, seed)?;
        Ok(Self {
            room: name.to_string(),
            seed,
            events,
            dropped,
            deterministic: first_jsonl == second_jsonl,
            jsonl: first_jsonl,
            telemetry: first_agg,
        })
    }

    /// Events of family `kind` in the log.
    fn family_count(&self, kind: &str) -> usize {
        self.jsonl.matches(&format!("\"type\": \"{kind}\"")).count()
    }
}

impl Report for TraceReport {
    fn title(&self) -> String {
        format!("Trace: {}, seed {}", self.room, self.seed)
    }

    fn identity(&self) -> Field {
        ("trace_room", self.room.as_str().into())
    }

    fn faults(&self) -> FaultPlan {
        scripted_plan(self.seed, 0.0)
    }

    fn telemetry(&self) -> String {
        self.telemetry.clone()
    }

    fn fields(&self) -> Vec<Field> {
        vec![
            ("seed", self.seed.into()),
            ("events", self.events.into()),
            ("dropped", self.dropped.into()),
            ("deterministic", self.deterministic.into()),
        ]
    }

    /// True when the capture replayed byte-identically and every
    /// required event family showed up.
    fn passes(&self) -> bool {
        self.deterministic
            && self.events > 0
            && REQUIRED_KINDS.iter().all(|k| self.family_count(k) > 0)
    }

    /// How many events of each required family the log holds.
    fn notes(&self) -> Vec<String> {
        let kinds: Vec<String> = REQUIRED_KINDS
            .iter()
            .map(|k| format!("{k} {}", self.family_count(k)))
            .collect();
        vec![format!("coverage: {}", kinds.join(", "))]
    }

    fn event_log(&self) -> &str {
        &self.jsonl
    }
}

/// One fully-traced capture: the room under the scripted outage, then a
/// single-worker server pass over the room's fleet. Returns
/// `(events_jsonl, aggregate_json, event_count, dropped)`.
fn traced_pass(name: &str, seed: u64) -> Result<(String, String, usize, u64), String> {
    let mut scenario = crate::room(name, seed)?;
    let ring = Arc::new(RingRecorder::default());
    let handle = RecorderHandle::new(ring.clone());

    // The server pass serves the *initial* fleet snapshot, so grab the
    // jobs before the simulation mutates the world in place.
    let jobs: Vec<(Fleet, PanelArray)> = (0..TRACE_SERVER_JOBS)
        .map(|_| (scenario.fleet.fleet().clone(), scenario.array.clone()))
        .collect();

    let _sim = scenario.run_traced(scripted_plan(seed, 0.0), handle.clone());

    // Single worker: event order across workers is only deterministic
    // when there is exactly one of them (results are deterministic at
    // any width — the trace pins width for the log's sake).
    let scheduler = PanelScheduler::max_min().with_recorder(handle.clone());
    let server = FleetServer::new(1).with_recorder(handle.clone());
    let (results, _stats) = server.try_serve_with_stats(
        jobs.iter().collect(),
        |_, (fleet, array): &(Fleet, PanelArray)| scheduler.run(fleet, array),
    );
    if results.iter().any(|r| r.is_err()) {
        return Err(format!("trace server pass failed on {name:?}"));
    }

    Ok((
        ring.events_jsonl(),
        handle.aggregate_json(),
        ring.event_count(),
        ring.dropped(),
    ))
}

/// The telemetry overhead gate: the same room timed with the null
/// recorder and with a live ring.
#[derive(Clone, Debug)]
pub struct OverheadReport {
    /// Room used as the workload.
    pub room: String,
    /// Timing iterations per arm (best-of is compared).
    pub iters: u64,
    /// Best wall-clock with the null recorder, milliseconds.
    pub null_ms: f64,
    /// Best wall-clock with a live ring recorder, milliseconds.
    pub ring_ms: f64,
    /// `ring_ms / null_ms`.
    pub overhead: f64,
    /// Whether the host exposed only one logical core (gate softens).
    pub single_core: bool,
}

impl OverheadReport {
    /// Times room `name` under `seed` with both recorders, `iters`
    /// runs each (`Err` on an unknown room).
    pub fn run(name: &str, seed: u64, iters: u64) -> Result<Self, String> {
        // Interleave-free best-of-N per arm; a fresh room each run
        // because the simulation consumes its fleet.
        crate::room(name, seed)?; // validate the name once before timing
        let build = || crate::room(name, seed).expect("validated above");
        let (_, null_ms) = time_ms(iters, || {
            let mut scenario = build();
            scenario.run_traced(FaultPlan::none(), RecorderHandle::null())
        });
        let (_, ring_ms) = time_ms(iters, || {
            let mut scenario = build();
            let handle = RecorderHandle::new(Arc::new(RingRecorder::default()));
            scenario.run_traced(FaultPlan::none(), handle)
        });
        let single_core = std::thread::available_parallelism()
            .map(|n| n.get() == 1)
            .unwrap_or(true);
        Ok(Self {
            room: name.to_string(),
            iters,
            null_ms,
            ring_ms,
            overhead: ring_ms / null_ms.max(1e-12),
            single_core,
        })
    }
}

impl Report for OverheadReport {
    fn title(&self) -> String {
        format!("Telemetry overhead: {}, best of {}", self.room, self.iters)
    }

    fn identity(&self) -> Field {
        ("overhead_room", self.room.as_str().into())
    }

    fn fields(&self) -> Vec<Field> {
        vec![
            ("iters", self.iters.into()),
            ("null_ms", self.null_ms.into()),
            ("ring_ms", self.ring_ms.into()),
            ("overhead", self.overhead.into()),
            ("ceiling", OVERHEAD_CEILING.into()),
            ("single_core", self.single_core.into()),
        ]
    }

    /// True when the ring stays within [`OVERHEAD_CEILING`] of the null
    /// recorder. A single-core host soft-passes: the measurement is
    /// recorded but too noisy to fail CI on.
    fn passes(&self) -> bool {
        self.single_core || self.overhead <= OVERHEAD_CEILING
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{render, Format};

    #[test]
    fn unknown_room_lists_the_catalog() {
        let err = TraceReport::run("no-such-room", 1).unwrap_err();
        assert!(err.contains("office-floor"));
        assert!(OverheadReport::run("no-such-room", 1, 1)
            .unwrap_err()
            .contains("warehouse-aisle"));
    }

    #[test]
    fn warehouse_trace_is_deterministic_and_covers_every_layer() {
        let report = TraceReport::run("warehouse-aisle", crate::SEED).unwrap();
        assert!(report.passes(), "{}", render(&report, Format::Summary));
        assert!(report.deterministic);
        // The scripted outage shows up with its recovery, and the log
        // carries logical stamps only.
        assert!(report.jsonl.contains("\"type\": \"fault_recovered\""));
        assert!(report.jsonl.starts_with("{\"seq\": 0, \"tick\": 0,"));
        let json = render(&report, Format::Json);
        assert!(json.contains("\"machine\""));
        assert!(json.contains("\"telemetry\""));
        assert!(json.contains("\"deterministic\": true"));
        assert!(json.contains("\"pass\": true"));
    }

    #[test]
    fn overhead_gate_measures_both_arms() {
        let report = OverheadReport::run("conference-room", crate::SEED, 1).unwrap();
        assert!(report.null_ms > 0.0);
        assert!(report.ring_ms > 0.0);
        assert!(report.overhead.is_finite());
        let json = render(&report, Format::Json);
        assert!(json.contains("\"overhead_room\": \"conference-room\""));
        assert!(json.contains("\"ceiling\": 1.05"));
    }
}
