//! Scenario-zoo runner: simulates a named room configuration from
//! [`llama_core::rooms`] and renders a machine-checkable report.
//!
//! This is the CI face of the zoo — `expts --scenario <name>` runs one
//! room for its seeded tick budget, prints a human summary, writes the
//! JSON artifact, and exits nonzero unless the room actually served
//! (nonzero serving duty, finite served power). Every future
//! optimization that touches geometry, scheduling or the simulator gets
//! smoke-checked against rooms, not just the synthetic line fleet.

use std::sync::Arc;

use llama_core::rooms;
use llama_core::sim::SimReport;
use llama_core::telemetry::{RecorderHandle, RingRecorder};

use crate::report::{Field, Report};

/// Outcome of one scenario run, ready to gate CI on.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Catalog name of the room.
    pub name: String,
    /// One-line room description.
    pub description: String,
    /// Root seed of the run.
    pub seed: u64,
    /// Devices in the room.
    pub devices: usize,
    /// Panels serving it.
    pub panels: usize,
    /// Ticks simulated.
    pub ticks: usize,
    /// Mean serving duty across ticks and panels (the CI gate).
    pub mean_duty: f64,
    /// Mean worst-served device power, dBm.
    pub mean_min_power_dbm: f64,
    /// Total probes spent.
    pub probes: usize,
    /// Full link re-preparations (geometry changes).
    pub links_reprepared: usize,
    /// Cheap link rebinds (orientation/power changes).
    pub links_rebound: usize,
    /// Panel handoffs across the run.
    pub handoffs: usize,
    /// Wall-clock of the simulation, milliseconds.
    pub wall_ms: f64,
    /// Aggregated telemetry block captured by the ring recorder that
    /// rode along with the run (single-line JSON object).
    pub telemetry: String,
}

impl ScenarioReport {
    /// Runs scenario `name` under `seed` (`Err` on an unknown name,
    /// listing the catalog).
    pub fn run(name: &str, seed: u64) -> Result<Self, String> {
        let mut scenario = crate::room(name, seed)?;
        // Every zoo run carries a ring recorder so the committed JSON
        // gets a real aggregated telemetry block, not a null stamp.
        let recorder = RecorderHandle::new(Arc::new(RingRecorder::default()));
        let report = scenario.run_traced(llama_core::faults::FaultPlan::none(), recorder.clone());
        Ok(Self::from_sim(
            &scenario,
            &report,
            recorder.aggregate_json(),
        ))
    }

    fn from_sim(scenario: &rooms::RoomScenario, report: &SimReport, telemetry: String) -> Self {
        Self {
            name: scenario.name.to_string(),
            description: scenario.description.to_string(),
            seed: scenario.seed,
            devices: scenario.fleet.len(),
            panels: scenario.array.len(),
            ticks: report.ticks.len(),
            mean_duty: report.mean_duty(),
            mean_min_power_dbm: report.mean_served_min_power_dbm(),
            probes: report.total_probes(),
            links_reprepared: report.total_links_reprepared(),
            links_rebound: report.total_links_rebound(),
            handoffs: report.handoffs,
            wall_ms: report.wall_ms,
            telemetry,
        }
    }
}

impl Report for ScenarioReport {
    fn title(&self) -> String {
        format!("Scenario {}: {}", self.name, self.description)
    }

    fn identity(&self) -> Field {
        ("scenario", self.name.as_str().into())
    }

    fn telemetry(&self) -> String {
        self.telemetry.clone()
    }

    fn fields(&self) -> Vec<Field> {
        vec![
            ("description", self.description.as_str().into()),
            ("seed", self.seed.into()),
            ("devices", self.devices.into()),
            ("panels", self.panels.into()),
            ("ticks", self.ticks.into()),
            ("mean_duty", self.mean_duty.into()),
            ("mean_min_power_dbm", self.mean_min_power_dbm.into()),
            ("probes", self.probes.into()),
            ("links_reprepared", self.links_reprepared.into()),
            ("links_rebound", self.links_rebound.into()),
            ("handoffs", self.handoffs.into()),
            ("wall_ms", self.wall_ms.into()),
        ]
    }

    /// True when the room actually served: some airtime went to serving
    /// and the worst-served power is a real number.
    fn passes(&self) -> bool {
        self.mean_duty > 0.0 && self.mean_min_power_dbm.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{render, Format};

    #[test]
    fn unknown_scenario_lists_the_catalog() {
        let err = ScenarioReport::run("no-such-room", 1).unwrap_err();
        assert!(err.contains("office-floor"));
        assert!(err.contains("warehouse-aisle"));
        assert!(err.contains("conference-room"));
    }

    #[test]
    fn office_floor_serves_and_serializes() {
        let report = ScenarioReport::run("office-floor", crate::SEED).unwrap();
        assert!(report.passes(), "{}", render(&report, Format::Summary));
        let json = render(&report, Format::Json);
        assert!(json.contains("\"scenario\": \"office-floor\""));
        assert!(json.contains("\"machine\""));
        assert!(json.contains("\"faults\""));
        assert!(json.contains("\"panel_outage_rate\": 0.0,"));
        assert!(json.contains("\"allocs_per_tick\""));
        assert!(json.contains("\"telemetry\""));
        assert!(json.contains("\"mode\": \"ring\""));
        assert!(json.contains("\"pass\": true"));
        assert!(render(&report, Format::Summary).contains("PASS"));
    }
}
