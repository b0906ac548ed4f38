//! Chaos harness behind `expts --chaos`: sweeps seeded fault rates over
//! a scenario-zoo room and emits the degradation curve as a
//! machine-checkable JSON artifact.
//!
//! Three gates make the curve trustworthy:
//!
//! * **zero-fault identity** — the room under [`FaultPlan::none`] must
//!   reproduce the fault-free baseline *bitwise*, tick for tick
//!   (allocation, served power, duty, applied biases). If the fault
//!   plumbing perturbs a healthy run by one ULP, the report fails;
//! * **graceful degradation** — at the 5% and 10% fault points
//!   (panel-outage + report-loss + PSU-glitch rates set together, plus
//!   one scripted mid-run outage of panel 0) the room must still serve:
//!   finite worst-device power, mean duty above [`DUTY_FLOOR`], and the
//!   orphaned sub-fleet actually re-homed;
//! * **no panics anywhere** — every point runs the full warm engine;
//!   reaching the report at all is the isolation proof.
//!
//! Higher rates (20%, 30%) are measured and recorded for the curve but
//! not gated — a room three panels dark most ticks is allowed to
//! starve, it just has to do so without crashing.

use std::sync::Arc;

use llama_core::faults::{FaultPlan, FaultWindow, PanelOutage};
use llama_core::sim::SimReport;
use llama_core::telemetry::{RecorderHandle, RingRecorder};
use rfmath::units::Seconds;

use crate::report::{Field, Report, Row, Value};

/// Fault rates swept for the degradation curve.
pub const RATES: [f64; 4] = [0.05, 0.10, 0.20, 0.30];

/// Minimum device-weighted mean serving duty the gated (5% and 10%)
/// points must keep. The healthy zoo rooms sit near 0.9; a 0.2 floor
/// means "degraded but clearly alive" with headroom for the scripted
/// outage's re-home cold searches.
pub const DUTY_FLOOR: f64 = 0.2;

/// One measured point of the degradation curve.
#[derive(Clone, Debug)]
pub struct ChaosPoint {
    /// The shared fault rate of this point (0 = fault-free baseline).
    pub rate: f64,
    /// Device-weighted mean serving duty.
    pub mean_duty: f64,
    /// Mean worst-served device power, dBm.
    pub mean_min_power_dbm: f64,
    /// Panel×tick outages the run degraded through.
    pub outaged_panel_ticks: usize,
    /// Devices re-homed off dark panels.
    pub reassignments: usize,
    /// Probe-report deliveries lost (each billed retry airtime).
    pub reports_lost: usize,
    /// Searches whose every retry was lost (bias held).
    pub reports_exhausted: usize,
    /// PSU settling glitches billed.
    pub psu_glitches: usize,
    /// Hysteresis handoffs (fault re-homes excluded).
    pub handoffs: usize,
}

impl ChaosPoint {
    fn from_sim(rate: f64, report: &SimReport) -> Self {
        Self {
            rate,
            mean_duty: report.mean_duty(),
            mean_min_power_dbm: report.mean_served_min_power_dbm(),
            outaged_panel_ticks: report.total_outaged_panel_ticks(),
            reassignments: report.total_fault_reassignments(),
            reports_lost: report.total_reports_lost(),
            reports_exhausted: report.total_reports_exhausted(),
            psu_glitches: report.total_psu_glitches(),
            handoffs: report.handoffs,
        }
    }
}

impl Row for ChaosPoint {
    fn row(&self) -> Vec<Field> {
        vec![
            ("rate", self.rate.into()),
            ("mean_duty", self.mean_duty.into()),
            ("mean_min_power_dbm", self.mean_min_power_dbm.into()),
            ("outaged_panel_ticks", self.outaged_panel_ticks.into()),
            ("reassignments", self.reassignments.into()),
            ("reports_lost", self.reports_lost.into()),
            ("reports_exhausted", self.reports_exhausted.into()),
            ("psu_glitches", self.psu_glitches.into()),
            ("handoffs", self.handoffs.into()),
        ]
    }
}

/// The full chaos sweep over one room, ready to gate CI on.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Catalog name of the room swept.
    pub room: String,
    /// Root seed of room and fault draws alike.
    pub seed: u64,
    /// The duty floor the gated points were held to.
    pub duty_floor: f64,
    /// Whether the zero-fault run was bit-identical to the baseline.
    pub zero_fault_identical: bool,
    /// The fault-free baseline point.
    pub baseline: ChaosPoint,
    /// One point per swept rate, ascending.
    pub points: Vec<ChaosPoint>,
    /// Aggregated telemetry block from the ring recorder that rode
    /// along with every rate-point run (single-line JSON object). The
    /// baseline and zero-fault identity runs stay untraced so the
    /// bitwise gate compares exactly what it always compared.
    pub telemetry: String,
}

impl ChaosReport {
    /// Sweeps room `name` under `seed` (`Err` on an unknown room,
    /// listing the catalog).
    pub fn run(name: &str, seed: u64) -> Result<Self, String> {
        let baseline_report = crate::room(name, seed)?.run();
        let baseline = ChaosPoint::from_sim(0.0, &baseline_report);

        // Gate 1: the empty plan must be bitwise inert.
        let zero_report = crate::room(name, seed)?.run_with_faults(FaultPlan::none());
        let zero_fault_identical = bitwise_identical(&baseline_report, &zero_report);

        // The degradation curve. Every nonzero point also scripts a
        // mid-run outage of panel 0, so the orphan re-home machinery is
        // exercised at every rate (stochastic outages alone might miss
        // a short room at the low rates).
        let mut points = Vec::with_capacity(RATES.len());
        let recorder = RecorderHandle::new(Arc::new(RingRecorder::default()));
        for &rate in RATES.iter() {
            let report =
                crate::room(name, seed)?.run_traced(scripted_plan(seed, rate), recorder.clone());
            points.push(ChaosPoint::from_sim(rate, &report));
        }

        Ok(Self {
            room: name.to_string(),
            seed,
            duty_floor: DUTY_FLOOR,
            zero_fault_identical,
            baseline,
            points,
            telemetry: recorder.aggregate_json(),
        })
    }
}

/// The fault plan of one chaos point: every stochastic rate at `rate`
/// plus one scripted mid-run outage of panel 0 (seconds 3 to 6), so
/// the injection, re-home and revival paths always run.
pub fn scripted_plan(seed: u64, rate: f64) -> FaultPlan {
    let mut plan = FaultPlan::with_rates(seed, rate, rate, rate);
    plan.outages.push(PanelOutage {
        panel: 0,
        window: FaultWindow {
            start: Seconds(3.0),
            duration: Seconds(3.0),
        },
    });
    plan
}

impl Report for ChaosReport {
    fn title(&self) -> String {
        format!("Chaos sweep: {}, seed {}", self.room, self.seed)
    }

    fn identity(&self) -> Field {
        ("chaos_room", self.room.as_str().into())
    }

    /// The highest-rate configuration swept.
    fn faults(&self) -> FaultPlan {
        scripted_plan(self.seed, RATES[RATES.len() - 1])
    }

    fn telemetry(&self) -> String {
        self.telemetry.clone()
    }

    fn fields(&self) -> Vec<Field> {
        vec![
            ("seed", self.seed.into()),
            ("duty_floor", self.duty_floor.into()),
            ("zero_fault_identical", self.zero_fault_identical.into()),
            ("baseline", Value::Obj(self.baseline.row())),
            ("points", Value::rows(&self.points)),
        ]
    }

    /// True when every gate holds: zero-fault identity, and the 5%/10%
    /// points still serving (finite power, duty above the floor, the
    /// scripted outage's orphans actually re-homed).
    fn passes(&self) -> bool {
        self.zero_fault_identical
            && self
                .points
                .iter()
                .filter(|p| p.rate <= 0.10 + 1e-9)
                .all(|p| {
                    p.mean_duty >= self.duty_floor
                        && p.mean_min_power_dbm.is_finite()
                        && p.reassignments > 0
                })
    }
}

/// One-shot joint-mode smoke for the chaos lane: runs the room's
/// joint-vs-independent comparison twice under the same seed and
/// demands (a) bitwise determinism across the two runs and (b) the
/// descent's monotonicity contract (the joint score never ends below
/// the independent starting point). Returns a one-line summary on
/// success, a diagnosis on violation or an unknown room.
pub fn joint_smoke(name: &str, seed: u64) -> Result<String, String> {
    use llama_core::panels::JointConfig;
    let (ind_a, joint_a) = crate::room(name, seed)?.joint_comparison(JointConfig::default());
    let (_, joint_b) = crate::room(name, seed)?.joint_comparison(JointConfig::default());
    if !joint_a.same_allocation(&joint_b)
        || joint_a.score.to_bits() != joint_b.score.to_bits()
        || joint_a.probes != joint_b.probes
    {
        return Err(format!(
            "joint search is not deterministic on {name:?}: scores {} vs {}",
            joint_a.score, joint_b.score
        ));
    }
    let stats = joint_a
        .joint
        .ok_or_else(|| "joint run reported no descent stats".to_string())?;
    if stats.lift_db < -1e-9 {
        return Err(format!(
            "joint search regressed below its independent start on {name:?}: {} dB",
            stats.lift_db
        ));
    }
    Ok(format!(
        "joint smoke: {name}, seed {seed} — deterministic; independent {:.1} dBm, \
         joint {:.1} dBm ({:+.3} dB, {} rounds{}, cross energy {:.1}%)",
        ind_a.min_power_dbm(),
        joint_a.min_power_dbm(),
        stats.lift_db,
        stats.rounds,
        if stats.converged { ", converged" } else { "" },
        stats.cross_energy_fraction * 100.0,
    ))
}

/// Bit-for-bit tick comparison of two runs: allocation, served power,
/// throughput, duty and applied biases all compared on raw bits.
fn bitwise_identical(a: &SimReport, b: &SimReport) -> bool {
    a.ticks.len() == b.ticks.len()
        && a.handoffs == b.handoffs
        && a.ticks.iter().zip(&b.ticks).all(|(x, y)| {
            x.outcome.same_allocation(&y.outcome)
                && x.served_min_power_dbm.to_bits() == y.served_min_power_dbm.to_bits()
                && x.served_throughput_bits_hz.to_bits() == y.served_throughput_bits_hz.to_bits()
                && x.applied == y.applied
                && x.panel_duty.len() == y.panel_duty.len()
                && x.panel_duty
                    .iter()
                    .zip(&y.panel_duty)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{render, Format};

    #[test]
    fn unknown_room_lists_the_catalog() {
        let err = ChaosReport::run("no-such-room", 1).unwrap_err();
        assert!(err.contains("office-floor"));
        assert!(err.contains("conference-room"));
        assert!(joint_smoke("no-such-room", 1)
            .unwrap_err()
            .contains("office-floor"));
    }

    #[test]
    fn joint_smoke_is_deterministic_and_monotone() {
        let line = joint_smoke("office-floor", crate::SEED).unwrap();
        assert!(line.contains("deterministic"));
        assert!(line.contains("rounds"));
    }

    #[test]
    fn office_floor_survives_the_sweep_and_serializes() {
        let report = ChaosReport::run("office-floor", crate::SEED).unwrap();
        assert!(report.passes(), "{}", render(&report, Format::Summary));
        assert!(report.zero_fault_identical);
        // The scripted outage guarantees degradation is visible at
        // every nonzero point.
        for p in &report.points {
            assert!(p.outaged_panel_ticks > 0);
            assert!(p.reassignments > 0);
        }
        let json = render(&report, Format::Json);
        assert!(json.contains("\"chaos_room\": \"office-floor\""));
        assert!(json.contains("\"machine\""));
        assert!(json.contains("\"faults\""));
        assert!(json.contains("\"telemetry\""));
        assert!(json.contains("\"mode\": \"ring\""));
        // The scripted outage means the ring saw real fault traffic:
        // the per-phase tick spans must be populated.
        assert!(json.contains("sim.phase.reopt_ns"));
        assert!(json.contains("\"zero_fault_identical\": true"));
        assert!(json.contains("\"pass\": true"));
        assert!(render(&report, Format::Summary).contains("PASS"));
    }
}
