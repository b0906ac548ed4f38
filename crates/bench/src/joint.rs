//! `expts --joint` — joint vs independent multi-surface serving
//! (`BENCH_PR9.json`).
//!
//! Two measurements, one artifact:
//!
//! * **quality** — on the `office-floor` and `warehouse-aisle` zoo
//!   rooms, the MaxMin min-power delta between the independent
//!   per-panel search and the joint block-coordinate refinement over
//!   the superposed multi-surface field ([`RoomScenario::
//!   joint_comparison`](llama_core::rooms::RoomScenario::joint_comparison)),
//!   with the descent telemetry (rounds, coupled probes, cross-term
//!   energy) the scheduler reports;
//! * **performance** — the coupled-evaluation hot path
//!   ([`CoupledEvaluator::powers_dbm`]) timed against the same
//!   evaluator at zero coupling (which short-circuits to the
//!   independent home-field physics, bitwise). The CI gate is the
//!   *ratio*: superposing K panels' cross terms may cost at most
//!   [`COUPLED_SLOWDOWN_CEILING`]× the independent evaluation, so the
//!   joint search's per-probe bill stays a bounded multiple of
//!   Algorithm 1's.

use llama_core::fleet::Fleet;
use llama_core::panels::{CoupledEvaluator, JointConfig, PanelArray};
use llama_core::rooms;
use metasurface::stack::BiasState;
use propagation::coupling::CouplingConfig;

use crate::perf::{time_ms, BenchSample};
use crate::report::{Field, Report, Row, Value};

/// Zoo rooms the quality comparison runs on.
pub const JOINT_ROOMS: [&str; 2] = ["office-floor", "warehouse-aisle"];

/// Minimum lift (dB) the joint search must show over the independent
/// biases on at least one room for [`JointPerfReport::passes`]. The
/// descent starts *at* the independent solution, so any strictly
/// positive delta is genuine cross-panel energy the independent search
/// cannot see; 0.01 dB keeps the gate off the float noise floor.
pub const JOINT_LIFT_FLOOR_DB: f64 = 0.01;

/// The joint search may never end below its own starting point; this is
/// the float-dust tolerance on that monotonicity contract.
pub const JOINT_REGRESSION_TOLERANCE_DB: f64 = 1e-9;

/// Ceiling on `coupled eval time / zero-coupling eval time` — the
/// CI-gated throughput floor on the coupled-evaluation hot path,
/// expressed as a machine-independent ratio.
pub const COUPLED_SLOWDOWN_CEILING: f64 = 8.0;

/// Devices in the synthetic coupled-evaluation timing workload.
const EVAL_DEVICES: usize = 16;

/// Panels in the synthetic coupled-evaluation timing workload.
const EVAL_PANELS: usize = 3;

/// One room's joint-vs-independent comparison.
#[derive(Clone, Debug)]
pub struct JointRoomResult {
    /// Zoo room name.
    pub room: &'static str,
    /// MaxMin min power of the independent per-panel search, dBm.
    pub independent_min_dbm: f64,
    /// MaxMin min power after the joint refinement, dBm.
    pub joint_min_dbm: f64,
    /// `joint − independent`, dB (the scheduler's own `lift_db`).
    pub lift_db: f64,
    /// Block-coordinate descent rounds the joint search ran.
    pub rounds: usize,
    /// Whether the descent converged inside the round cap.
    pub converged: bool,
    /// Probes spent on the superposed field (on top of the independent
    /// warm-up's bill).
    pub coupled_probes: usize,
    /// Fraction of total received energy arriving through cross-panel
    /// terms at the joint solution.
    pub cross_energy_fraction: f64,
}

/// Timing + quality summary of the joint multi-surface path
/// (`BENCH_PR9.json`).
#[derive(Clone, Debug)]
pub struct JointPerfReport {
    /// Whether the run used the reduced quick-mode sample budget.
    pub quick: bool,
    /// Individual workload timings.
    pub samples: Vec<BenchSample>,
    /// Per-room quality comparisons.
    pub rooms: Vec<JointRoomResult>,
    /// Coupled / zero-coupling best-of-N evaluation time ratio on the
    /// synthetic 3-panel workload (gated by
    /// [`COUPLED_SLOWDOWN_CEILING`]).
    pub coupled_slowdown: f64,
    /// Coupled device-evaluations per second at the best-of-N time.
    pub coupled_evals_per_sec: f64,
}

impl Row for JointRoomResult {
    fn row(&self) -> Vec<Field> {
        vec![
            ("room", self.room.into()),
            ("independent_min_dbm", self.independent_min_dbm.into()),
            ("joint_min_dbm", self.joint_min_dbm.into()),
            ("lift_db", self.lift_db.into()),
            ("rounds", self.rounds.into()),
            ("converged", self.converged.into()),
            ("coupled_probes", self.coupled_probes.into()),
            ("cross_energy_fraction", self.cross_energy_fraction.into()),
        ]
    }
}

/// The joint bench times its passes directly, so its telemetry stamp
/// is the null block; `expts --trace` is the instrumented face of the
/// joint path.
impl Report for JointPerfReport {
    fn title(&self) -> String {
        "Joint multi-surface serving summary".to_string()
    }

    fn identity(&self) -> Field {
        ("pr", 9u64.into())
    }

    fn fields(&self) -> Vec<Field> {
        vec![
            ("quick", self.quick.into()),
            ("eval_devices", EVAL_DEVICES.into()),
            ("eval_panels", EVAL_PANELS.into()),
            ("benches", Value::rows(&self.samples)),
            ("rooms", Value::rows(&self.rooms)),
            ("coupled_slowdown", self.coupled_slowdown.into()),
            ("coupled_evals_per_sec", self.coupled_evals_per_sec.into()),
            ("lift_floor_db", JOINT_LIFT_FLOOR_DB.into()),
            ("slowdown_ceiling", COUPLED_SLOWDOWN_CEILING.into()),
        ]
    }

    /// True when the joint search lifts at least one room by
    /// [`JOINT_LIFT_FLOOR_DB`], never regresses below its independent
    /// starting point anywhere, and the coupled evaluation stays within
    /// [`COUPLED_SLOWDOWN_CEILING`]× of the independent path.
    fn passes(&self) -> bool {
        !self.rooms.is_empty()
            && self
                .rooms
                .iter()
                .all(|r| r.lift_db >= -JOINT_REGRESSION_TOLERANCE_DB)
            && self.rooms.iter().any(|r| r.lift_db >= JOINT_LIFT_FLOOR_DB)
            && self.coupled_slowdown.is_finite()
            && self.coupled_slowdown <= COUPLED_SLOWDOWN_CEILING
    }
}

/// Runs the joint-vs-independent comparison on the zoo rooms and times
/// the coupled-evaluation hot path. `quick` trims the sample budget for
/// CI smoke use.
pub fn run_joint(quick: bool) -> JointPerfReport {
    let cfg = JointConfig::default();
    let mut samples = Vec::new();
    let mut room_results = Vec::new();
    for room in JOINT_ROOMS {
        let scenario = rooms::build(room, crate::SEED).expect("zoo rooms exist");
        let (independent, joint) = scenario.joint_comparison(cfg);
        let stats = joint.joint.expect("the joint run reports its stats");
        room_results.push(JointRoomResult {
            room,
            independent_min_dbm: independent.min_power_dbm(),
            joint_min_dbm: joint.min_power_dbm(),
            lift_db: stats.lift_db,
            rounds: stats.rounds,
            converged: stats.converged,
            coupled_probes: stats.coupled_probes,
            cross_energy_fraction: stats.cross_energy_fraction,
        });
    }
    // The office-floor joint search, timed end to end (independent
    // warm-up + descent), next to the independent search alone.
    let office = rooms::build("office-floor", crate::SEED).expect("zoo rooms exist");
    let sched_iters = if quick { 2 } else { 4 };
    let (joint_sched_ms, _) = time_ms(sched_iters, || office.joint_comparison(cfg).1);
    samples.push(BenchSample {
        name: "office_floor_joint_scheduler",
        mean_ms: joint_sched_ms,
        iters: sched_iters,
    });

    // The coupled-evaluation hot path: K-panel superposed powers per
    // bias vector, against the same evaluator with coupling disabled
    // (bitwise the independent home-field physics).
    let fleet = Fleet::mixed_wifi_ble(EVAL_DEVICES, 2021);
    let array = PanelArray::distributed(fleet.design.clone(), EVAL_PANELS);
    let assignment = array.assign(&fleet, &llama_core::panels::Assignment::BestReference);
    let biases: Vec<BiasState> = (0..EVAL_PANELS)
        .map(|k| BiasState::new(4.0 + 7.0 * k as f64, 25.0 - 6.0 * k as f64))
        .collect();
    let eval_iters = if quick { 20 } else { 100 };
    let mut coupled = CoupledEvaluator::new(
        &fleet,
        &array,
        &assignment,
        CouplingConfig::indoor_default(),
    );
    let (coupled_mean, coupled_min) = time_ms(eval_iters, || coupled.powers_dbm(&biases));
    samples.push(BenchSample {
        name: "coupled_eval_16x3_superposed",
        mean_ms: coupled_mean,
        iters: eval_iters,
    });
    let mut home_only =
        CoupledEvaluator::new(&fleet, &array, &assignment, CouplingConfig::disabled());
    let (home_mean, home_min) = time_ms(eval_iters, || home_only.powers_dbm(&biases));
    samples.push(BenchSample {
        name: "coupled_eval_16x3_zero_coupling",
        mean_ms: home_mean,
        iters: eval_iters,
    });

    JointPerfReport {
        quick,
        samples,
        rooms: room_results,
        coupled_slowdown: coupled_min / home_min.max(1e-12),
        coupled_evals_per_sec: EVAL_DEVICES as f64 / (coupled_min / 1e3).max(1e-12),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{render, Format};

    #[test]
    fn quick_joint_report_passes_its_own_gates() {
        let report = run_joint(true);
        assert_eq!(report.rooms.len(), JOINT_ROOMS.len());
        for r in &report.rooms {
            assert!(r.independent_min_dbm.is_finite());
            assert!(r.joint_min_dbm.is_finite());
            assert!(r.rounds >= 1);
            assert!(r.coupled_probes > 0);
            assert!(r.cross_energy_fraction > 0.0 && r.cross_energy_fraction < 1.0);
        }
        assert!(
            report.passes(),
            "joint gates failed:\n{}",
            render(&report, Format::Summary)
        );
        let json = render(&report, Format::Json);
        assert!(json.contains("\"pr\": 9"));
        assert!(json.contains("\"office-floor\""));
        assert!(json.contains("\"warehouse-aisle\""));
        assert!(json.contains("\"coupled_slowdown\""));
        assert!(json.contains("\"pass\": true"));
    }
}
