//! The scenario zoo: named, seeded, CI-runnable room configurations.
//!
//! Every workload before this module was a synthetic line fleet; the
//! zoo gives the simulator *rooms* — APs, devices, wall panels and
//! people at planar positions (see the README's coordinate convention:
//! x east, y north, meters, origin at a room corner). Each scenario is
//! deterministic under its seed, small enough for a CI smoke tick
//! budget, and exercised end to end by `expts --scenario <name>`, so
//! future optimizations are validated against room geometry instead of
//! one collinear trace.
//!
//! Three rooms ship today:
//!
//! * `office-floor` — an 8 m × 6 m open office: a
//!   wall AP, a desk grid of Wi-Fi IoT stations with BLE wearables
//!   among them, two wall panels, a worker walking a corridor loop and
//!   a colleague crossing the desk rows.
//! * `warehouse-aisle` — a 12 m rack aisle: sensors
//!   down both racks, two overhead panels, a picker walking the aisle
//!   and a forklift driving through (a wide, lossy crossing body).
//! * `conference-room` — a 5 m × 4 m meeting room:
//!   BLE wearables around the table, swiveling participants, and
//!   latecomers walking around the table mid-meeting.

use devices::human::HumanTarget;
use metasurface::designs;
use propagation::rays::{Deployment, SurfaceMount};
use rfmath::rng::SeedSplitter;
use rfmath::units::{Degrees, Meters, Seconds};
use rfmath::vec2::Point2;

use crate::fleet::{Fleet, FleetDevice};
use crate::panels::{JointConfig, PanelArray, PanelOutcome, PanelScheduler};
use crate::sim::{Blockage, DynamicFleet, MobilityModel, MobilitySim, SimConfig, SimReport};

/// The names `build` accepts, in catalog order.
pub const SCENARIOS: [&str; 3] = ["office-floor", "warehouse-aisle", "conference-room"];

/// A named, seeded room configuration, ready to simulate.
pub struct RoomScenario {
    /// Catalog name (the `expts --scenario` key).
    pub name: &'static str,
    /// One-line description for reports.
    pub description: &'static str,
    /// Root seed every stochastic element derives from.
    pub seed: u64,
    /// The moving fleet (devices, walks, blockages).
    pub fleet: DynamicFleet,
    /// The wall/ceiling panels serving the room.
    pub array: PanelArray,
    /// Simulator configuration (tick length, warm start, hysteresis).
    pub config: SimConfig,
    /// CI tick budget: long enough that every walker, rotator and
    /// crossing body visibly moves, short enough for a smoke job.
    pub ticks: usize,
}

impl RoomScenario {
    /// Runs the scenario for its tick budget and returns the report.
    pub fn run(&mut self) -> SimReport {
        self.run_with_faults(crate::faults::FaultPlan::none())
    }

    /// Runs the scenario under a fault plan — the chaos harness's entry
    /// point. An empty plan reproduces [`RoomScenario::run`] bitwise.
    pub fn run_with_faults(&mut self, faults: crate::faults::FaultPlan) -> SimReport {
        self.run_traced(faults, crate::telemetry::RecorderHandle::null())
    }

    /// Runs the scenario under a fault plan with a telemetry recorder
    /// attached to the engine — the tracing harness's entry point. A
    /// [`crate::telemetry::RecorderHandle::null`] recorder reproduces
    /// [`RoomScenario::run_with_faults`] bitwise.
    pub fn run_traced(
        &mut self,
        faults: crate::faults::FaultPlan,
        recorder: crate::telemetry::RecorderHandle,
    ) -> SimReport {
        MobilitySim::new(PanelScheduler::max_min(), self.config)
            .with_faults(faults)
            .with_recorder(recorder)
            .run(&mut self.fleet, &self.array, self.ticks)
    }

    /// A static joint-vs-independent comparison on the room's t = 0
    /// fleet snapshot: `(independent, joint)` MaxMin outcomes over the
    /// room's panel array, where the joint run refines the independent
    /// biases against the superposed multi-surface field under `cfg`.
    /// The benchmark harness reports the min-power delta between them.
    pub fn joint_comparison(&self, cfg: JointConfig) -> (PanelOutcome, PanelOutcome) {
        let fleet = self.fleet.fleet();
        let independent = PanelScheduler::max_min().run(fleet, &self.array);
        let joint = PanelScheduler::max_min()
            .with_joint(cfg)
            .run(fleet, &self.array);
        (independent, joint)
    }
}

/// Builds a scenario by catalog name (`None` for an unknown name).
pub fn build(name: &str, seed: u64) -> Option<RoomScenario> {
    match name {
        "office-floor" => Some(office_floor(seed)),
        "warehouse-aisle" => Some(warehouse_aisle(seed)),
        "conference-room" => Some(conference_room(seed)),
        _ => None,
    }
}

/// A transmissive room deployment: AP at `ap`, device at `rx`, and the
/// device's own surface mount midway between them (a panel array
/// re-mounts the surface at each panel's wall position anyway; the
/// midpoint is the sensible default when no panel overrides it).
fn room_link(ap: Point2, rx: Point2) -> Deployment {
    Deployment::room(
        ap,
        rx,
        SurfaceMount::Transmissive {
            position: ap.lerp(rx, 0.5),
        },
    )
}

/// The 8 m × 6 m open office: desk grid, wall panels, foot traffic.
fn office_floor(seed: u64) -> RoomScenario {
    let split = SeedSplitter::new(seed).child("office-floor");
    let ap = Point2::new(0.5, 3.0);
    let mut fleet = Fleet::new(designs::fr4_optimized());
    // Two desk rows of Wi-Fi IoT stations…
    let desks = [
        Point2::new(2.5, 1.2),
        Point2::new(4.0, 1.2),
        Point2::new(5.5, 1.2),
        Point2::new(2.5, 4.8),
        Point2::new(4.0, 4.8),
        Point2::new(5.5, 4.8),
    ];
    for (i, &desk) in desks.iter().enumerate() {
        let orientation = Degrees(-75.0 + 25.0 * i as f64);
        fleet.push(
            FleetDevice::wifi(
                format!("desk-{i}"),
                orientation,
                100.0,
                split.derive("wifi", i as u64),
            )
            .placed(room_link(ap, desk)),
        );
    }
    // …and two BLE wearables on people at the desks.
    for (i, &pos) in [Point2::new(3.2, 2.0), Point2::new(4.8, 4.0)]
        .iter()
        .enumerate()
    {
        fleet.push(
            FleetDevice::ble(
                format!("wearable-{i}"),
                Degrees(20.0 + 50.0 * i as f64),
                100.0,
                split.derive("ble", i as u64),
            )
            .placed(room_link(ap, pos)),
        );
    }
    let mut dynamic = DynamicFleet::new(fleet);
    // The second wearable's owner walks a corridor loop between the
    // desk rows and returns.
    dynamic.set_mobility(
        7,
        MobilityModel::waypoints(vec![
            (Seconds(0.0), Point2::new(4.8, 4.0)),
            (Seconds(4.0), Point2::new(6.5, 3.0)),
            (Seconds(8.0), Point2::new(4.8, 2.0)),
            (Seconds(12.0), Point2::new(4.8, 4.0)),
        ]),
    );
    // One desk station sits on a swivel arm that gets turned.
    dynamic.set_mobility(1, MobilityModel::rotate(Degrees(-50.0), 5.0));
    // A colleague crosses the desk rows, cutting several AP links.
    let human = HumanTarget::resting_adult(Meters(2.0));
    dynamic.add_blockage(Blockage::human_crossing(
        vec![
            (Seconds(2.0), Point2::new(3.0, 0.2)),
            (Seconds(10.0), Point2::new(3.0, 5.8)),
        ],
        &human,
    ));
    RoomScenario {
        name: "office-floor",
        description: "8 m x 6 m open office: desk grid, two wall panels, foot traffic",
        seed,
        fleet: dynamic,
        array: PanelArray::mounted(
            designs::fr4_optimized(),
            &[Point2::new(2.0, 2.6), Point2::new(2.0, 3.4)],
        ),
        config: SimConfig::default(),
        ticks: 12,
    }
}

/// The 12 m warehouse rack aisle: rack sensors, overhead panels, a
/// picker on foot and a forklift driving through.
fn warehouse_aisle(seed: u64) -> RoomScenario {
    let split = SeedSplitter::new(seed).child("warehouse-aisle");
    let ap = Point2::new(0.3, 1.5);
    let mut fleet = Fleet::new(designs::fr4_optimized());
    // Inventory sensors down both racks (y = 0.4 and y = 2.6).
    for i in 0..8 {
        let x = 2.0 + 1.3 * i as f64;
        let y = if i % 2 == 0 { 0.4 } else { 2.6 };
        fleet.push(
            FleetDevice::wifi(
                format!("rack-{i}"),
                Degrees(-80.0 + 22.0 * i as f64),
                100.0,
                split.derive("rack", i as u64),
            )
            .placed(room_link(ap, Point2::new(x, y))),
        );
    }
    let mut dynamic = DynamicFleet::new(fleet);
    // A picker carries the last sensor down the aisle and back.
    dynamic.set_mobility(
        7,
        MobilityModel::waypoints(vec![
            (Seconds(0.0), Point2::new(11.1, 2.6)),
            (Seconds(6.0), Point2::new(5.0, 2.6)),
            (Seconds(12.0), Point2::new(11.1, 2.6)),
        ]),
    );
    // A forklift drives the aisle center end to end: a wide, lossy
    // body that occludes each rack link as it passes.
    dynamic.add_blockage(Blockage::Crossing {
        path: vec![
            (Seconds(1.0), Point2::new(12.0, 1.5)),
            (Seconds(11.0), Point2::new(0.5, 1.5)),
        ],
        radius: Meters(0.6),
        loss_db: 18.0,
    });
    RoomScenario {
        name: "warehouse-aisle",
        description: "12 m rack aisle: shelf sensors, overhead panels, forklift traffic",
        seed,
        fleet: dynamic,
        array: PanelArray::mounted(
            designs::fr4_optimized(),
            &[Point2::new(4.0, 1.1), Point2::new(8.0, 1.9)],
        ),
        config: SimConfig::default(),
        ticks: 12,
    }
}

/// The 5 m × 4 m conference room: wearables around the table, people
/// swiveling in chairs, latecomers walking around the table.
fn conference_room(seed: u64) -> RoomScenario {
    let split = SeedSplitter::new(seed).child("conference-room");
    let ap = Point2::new(2.5, 3.8);
    let table = Point2::new(2.5, 2.0);
    let mut fleet = Fleet::new(designs::fr4_optimized());
    // Eight seats around the table, a wearable at each.
    for i in 0..8 {
        let angle = std::f64::consts::TAU * i as f64 / 8.0;
        let seat = table + Point2::new(1.2 * angle.cos(), 0.9 * angle.sin());
        fleet.push(
            FleetDevice::ble(
                format!("seat-{i}"),
                Degrees(-90.0 + 180.0 * (i as f64 + 0.5) / 8.0),
                100.0,
                split.derive("seat", i as u64),
            )
            .placed(room_link(ap, seat)),
        );
    }
    let mut dynamic = DynamicFleet::new(fleet);
    // Two participants swivel their chairs (mount rotation).
    dynamic.set_mobility(2, MobilityModel::rotate(Degrees(-45.0), 8.0));
    dynamic.set_mobility(6, MobilityModel::rotate(Degrees(30.0), -6.0));
    // Two latecomers walk around the table to free seats, crossing the
    // AP links of the people already seated.
    let human = HumanTarget::resting_adult(Meters(2.0));
    dynamic.add_blockage(Blockage::human_crossing(
        vec![
            (Seconds(1.0), Point2::new(0.3, 3.7)),
            (Seconds(5.0), Point2::new(0.5, 0.5)),
            (Seconds(9.0), Point2::new(2.5, 0.4)),
        ],
        &human,
    ));
    dynamic.add_blockage(Blockage::human_crossing(
        vec![
            (Seconds(4.0), Point2::new(4.7, 3.7)),
            (Seconds(10.0), Point2::new(4.5, 0.8)),
        ],
        &human,
    ));
    RoomScenario {
        name: "conference-room",
        description: "5 m x 4 m meeting room: wearables at the table, human traffic",
        seed,
        fleet: dynamic,
        array: PanelArray::mounted(
            designs::fr4_optimized(),
            &[Point2::new(1.2, 3.2), Point2::new(3.8, 3.2)],
        ),
        config: SimConfig::default(),
        ticks: 12,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalog_name_builds() {
        for name in SCENARIOS {
            let s = build(name, 2021).expect("catalog name must build");
            assert_eq!(s.name, name);
            assert!(!s.fleet.is_empty());
            assert!(s.ticks > 0);
        }
        assert!(build("no-such-room", 1).is_none());
    }

    #[test]
    fn scenarios_serve_with_nonzero_duty_and_are_seed_deterministic() {
        for name in SCENARIOS {
            let report = build(name, 7).unwrap().run();
            assert!(
                report.mean_duty() > 0.0,
                "{name}: the room must spend airtime serving"
            );
            assert!(
                report.mean_served_min_power_dbm().is_finite(),
                "{name}: served power must be finite"
            );
            let again = build(name, 7).unwrap().run();
            assert_eq!(
                report.mean_served_min_power_dbm().to_bits(),
                again.mean_served_min_power_dbm().to_bits(),
                "{name}: equal seeds must reproduce the run exactly"
            );
        }
    }

    #[test]
    fn office_foot_traffic_moves_links() {
        let mut s = build("office-floor", 3).unwrap();
        let report = s.run();
        assert!(
            report.total_links_reprepared() > 0,
            "walkers must force link re-preparation"
        );
    }
}
