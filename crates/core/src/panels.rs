//! Multi-panel fleet serving: K independently-biased surfaces under one
//! controller.
//!
//! The single-surface scheduler ([`crate::fleet::Scheduler`]) trades
//! every device off against one shared 2-knob bias, so past a handful of
//! mutually mismatched devices only time division scales. The paper's §7
//! outlook — and the software-defined-metasurface line of related work
//! (tiled multi-panel apertures, per-user path programming across
//! several walls) — points at the next lever: *spatial multiplexing
//! across panels*. This module models it:
//!
//! * [`Panel`] — one surface of the array: its own [`Design`], its own
//!   bias rails, an orientation sector it covers, and optionally its own
//!   mounting position along the link
//!   ([`Deployment::with_surface_fraction`]);
//! * [`PanelArray`] — K panels with per-device assignment policies
//!   ([`Assignment`]): by mount-orientation sector, by measured
//!   per-panel reference power (the polarization-aware policy, built on
//!   [`propagation::link::PreparedLink::with_surface_placement`]),
//!   round-robin, or explicit;
//! * [`PanelScheduler`] — generalizes the shared-bias scheduler from one
//!   bias to a per-panel bias vector: assign devices to panels, then run
//!   one Algorithm 1 search *per panel* over its sub-fleet, reusing the
//!   [`FleetEvaluator`] shared-plan batch path with one
//!   [`PlanCache`] per distinct design so a carrier served on every
//!   panel compiles once, not K times. The searches advance in
//!   lockstep: each sweep round probes every live panel's grid in one
//!   batch, so a carrier's plan evaluates a cell that several panels
//!   probe once — the first round's full-range lattice is the same on
//!   every panel. Each panel still ends bitwise where its own
//!   [`Scheduler::run`] would (property-tested);
//! * [`serve_fleets`] / [`serve_panel_fleets`] — the typed front of
//!   [`control::server::FleetServer`]: many fleets multiplexed over its
//!   job cursor and scoped worker pool, each outcome bit-identical to
//!   serial execution;
//! * **joint multi-surface search** ([`PanelScheduler::with_joint`]) —
//!   block coordinate descent over the per-panel bias vector against the
//!   *superposed* field ([`propagation::coupling::MultiSurfaceField`]):
//!   each round re-sweeps every panel with the other panels' leakage
//!   held fixed ([`CoupledEvaluator`]), iterating to a fixed point under
//!   a convergence tolerance and round cap. The independent per-panel
//!   path stays the fast approximation, and a disabled coupling
//!   ([`CouplingConfig::is_disabled`]) short-circuits to it *bitwise*
//!   (property-tested).
//!
//! With K = 1 the panel scheduler *is* the shared-bias scheduler (the
//! proptests pin exact equality); with K panels each compromise spans
//! only the devices in its sector, which is what lifts the worst-device
//! power on large mixed fleets (the `expts --panels` headline).
//!
//! ```
//! use llama_core::fleet::{Fleet, FleetDevice};
//! use llama_core::panels::{PanelArray, PanelScheduler};
//! use rfmath::units::Degrees;
//!
//! let mut fleet = Fleet::new(metasurface::designs::fr4_optimized());
//! fleet.push(FleetDevice::wifi("door sensor", Degrees(-60.0), 250.0, 1));
//! fleet.push(FleetDevice::ble("wrist band", Degrees(65.0), 300.0, 2));
//!
//! let array = PanelArray::uniform(fleet.design.clone(), 2);
//! let outcome = PanelScheduler::max_min().run(&fleet, &array);
//! // Orthogonally mounted devices land on different panels…
//! assert_ne!(outcome.assignment[0], outcome.assignment[1]);
//! // …and every device is served continuously at its panel's bias.
//! assert!(outcome.per_device.iter().all(|d| d.duty == 1.0));
//! ```

use std::rc::Rc;

use crate::telemetry::{RecorderHandle, TelemetryEvent};
use control::server::FleetServer;
use control::sweep::{descend_rounds, GridSearch, Probe, WarmConfig};
use metasurface::designs::Design;
use metasurface::evaluator::{PlanCache, StackEvaluator};
use metasurface::response::SurfaceResponse;
use metasurface::stack::{BiasState, SUPPLY_CEILING};
use propagation::capacity::capacity_bits;
use propagation::coupling::{CouplingConfig, MultiSurfaceField};
use propagation::link::PreparedLink;
use propagation::rays::Deployment;
use rfmath::complex::Complex;
use rfmath::units::{Dbm, Degrees, Hertz, Seconds, Watts};
use rfmath::vec2::Point2;

use crate::fleet::{
    drive, DeviceService, Fleet, FleetEvaluator, FleetOutcome, Policy, Scheduler, Search,
};
use crate::scenario::Scenario;

/// The reference bias the measurement-driven assignment probes each
/// panel at (the workhorse mid-range state used across the experiments).
/// The mobility simulator's handoff margins are measured at the same
/// state, so an assignment and the hysteresis layered on it agree about
/// what "better panel" means.
pub(crate) const REFERENCE_BIAS: BiasState = BiasState {
    vx: rfmath::units::Volts(6.0),
    vy: rfmath::units::Volts(6.0),
};

/// Where a panel hangs relative to the links it serves.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PanelMount {
    /// At a fraction of each served link's line (the legacy scalar
    /// mounting; clamped to the physical range by the deployment).
    Fraction(f64),
    /// At a fixed room position, meters — every served link keeps its
    /// own endpoints but re-mounts its surface here, so each panel sees
    /// a genuinely different illumination angle per device.
    Position(Point2),
}

/// One surface of a panel array: an independently biased aperture
/// covering an orientation sector.
#[derive(Clone, Debug)]
pub struct Panel {
    /// Display label ("panel N", "east wall", …).
    pub label: String,
    /// The surface design this panel is cut from. Panels sharing a
    /// design share compiled evaluation plans through a [`PlanCache`].
    pub design: Design,
    /// Center of the receive-orientation sector this panel faces,
    /// degrees (polarization axes have period 180°).
    pub sector_center: Degrees,
    /// Panel mounting (`None` keeps every device's own deployment
    /// untouched).
    pub mount: Option<PanelMount>,
}

impl Panel {
    /// A panel of `design` facing the sector centred at `sector_center`.
    pub fn new(label: impl Into<String>, design: Design, sector_center: Degrees) -> Self {
        Self {
            label: label.into(),
            design,
            sector_center,
            mount: None,
        }
    }

    /// Mounts the panel at `fraction` of every served link's line
    /// (clamped to the physical range by the deployment).
    pub fn at_surface_fraction(mut self, fraction: f64) -> Self {
        self.mount = Some(PanelMount::Fraction(fraction));
        self
    }

    /// Mounts the panel at a fixed room position (meters).
    pub fn mounted_at(mut self, position: Point2) -> Self {
        self.mount = Some(PanelMount::Position(position));
        self
    }

    /// The scenario a device sees when served by this panel: its own
    /// geometry and radio, this panel's design and mounting position.
    pub(crate) fn scenario_for(&self, base: &Scenario) -> Scenario {
        let mut scenario = base.clone().with_design(self.design.clone());
        scenario.deployment = self.deployment_for(scenario.deployment);
        scenario
    }

    /// The deployment a device's link takes under this panel.
    pub(crate) fn deployment_for(&self, base: Deployment) -> Deployment {
        match self.mount {
            Some(PanelMount::Fraction(fraction)) => base.with_surface_fraction(fraction),
            Some(PanelMount::Position(position)) => base.with_surface_at(position),
            None => base,
        }
    }
}

/// K independently-biased panels behind one controller.
#[derive(Clone, Debug)]
pub struct PanelArray {
    panels: Vec<Panel>,
}

impl PanelArray {
    /// An array from explicit panels.
    ///
    /// # Panics
    /// Panics on an empty panel list — an array with no apertures cannot
    /// serve anything.
    pub fn new(panels: Vec<Panel>) -> Self {
        assert!(!panels.is_empty(), "a panel array needs at least one panel");
        Self { panels }
    }

    /// K identical-design panels with sector centers spread uniformly
    /// over the polarization half-circle — the reference array of the
    /// benches and the 32-device acceptance gate.
    pub fn uniform(design: Design, k: usize) -> Self {
        assert!(k >= 1, "a panel array needs at least one panel");
        let panels = (0..k)
            .map(|i| {
                let center = -90.0 + 180.0 * (i as f64 + 0.5) / k as f64;
                Panel::new(format!("panel {i}"), design.clone(), Degrees(center))
            })
            .collect();
        Self { panels }
    }

    /// [`PanelArray::uniform`] with the panels additionally *distributed
    /// along the served links*: panel `i` hangs at surface fraction
    /// `(i + 1) / (k + 1)`, so each panel sees genuinely different
    /// bounce-path physics. On a plain uniform array every panel
    /// measures bit-identically (same design, same mount point) and
    /// measured-margin policies — [`Assignment::BestReference`], the
    /// mobility simulator's handoff hysteresis — degenerate to sector
    /// ties; a distributed array is what makes movement change the
    /// per-panel margins, and with them the handoff story.
    pub fn distributed(design: Design, k: usize) -> Self {
        assert!(k >= 1, "a panel array needs at least one panel");
        let panels = (0..k)
            .map(|i| {
                let center = -90.0 + 180.0 * (i as f64 + 0.5) / k as f64;
                Panel::new(format!("panel {i}"), design.clone(), Degrees(center))
                    .at_surface_fraction((i as f64 + 1.0) / (k as f64 + 1.0))
            })
            .collect();
        Self { panels }
    }

    /// Panels of one design hung at explicit room positions (meters):
    /// the 2-D analogue of [`PanelArray::distributed`]. Each panel's
    /// sector center is its bearing from the room origin folded into the
    /// polarization half-circle `[-90°, 90°)`, so wall panels on
    /// opposite sides of a room naturally cover different orientation
    /// sectors; every served link re-mounts its surface at the panel's
    /// position, giving genuinely per-panel incidence angles.
    pub fn mounted(design: Design, positions: &[Point2]) -> Self {
        assert!(
            !positions.is_empty(),
            "a panel array needs at least one panel"
        );
        let panels = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let bearing = p.y.atan2(p.x).to_degrees();
                // Fold into the polarization half-circle [-90, 90).
                let center = (bearing + 90.0).rem_euclid(180.0) - 90.0;
                Panel::new(format!("panel {i}"), design.clone(), Degrees(center)).mounted_at(p)
            })
            .collect();
        Self { panels }
    }

    /// The panels, in array order.
    pub fn panels(&self) -> &[Panel] {
        &self.panels
    }

    /// Number of panels.
    pub fn len(&self) -> usize {
        self.panels.len()
    }

    /// Always false — construction rejects empty arrays.
    pub fn is_empty(&self) -> bool {
        self.panels.is_empty()
    }

    /// One shared [`PlanCache`] per *distinct design* across the array
    /// (keyed by design name, the catalog identity): panels cut from the
    /// same design share every compiled cascade plan.
    pub(crate) fn plan_caches(&self) -> Vec<(&'static str, PlanCache)> {
        let mut caches: Vec<(&'static str, PlanCache)> = Vec::new();
        for panel in &self.panels {
            if !caches.iter().any(|(name, _)| *name == panel.design.name) {
                caches.push((panel.design.name, PlanCache::new(&panel.design.stack)));
            }
        }
        caches
    }

    pub(crate) fn cache_for<'c>(
        caches: &'c [(&'static str, PlanCache)],
        design: &Design,
    ) -> &'c PlanCache {
        &caches
            .iter()
            .find(|(name, _)| *name == design.name)
            .expect("every panel design has a cache")
            .1
    }

    /// Assigns every device to a panel under `assignment`; element `d`
    /// is the panel index serving fleet device `d`.
    pub fn assign(&self, fleet: &Fleet, assignment: &Assignment) -> Vec<usize> {
        self.assign_with_caches(fleet, assignment, &self.plan_caches())
    }

    /// [`PanelArray::assign`] drawing any reference-response plans from
    /// caller-owned caches, so the panel scheduler compiles each
    /// design × carrier plan once per run instead of once for assignment
    /// and again for evaluation.
    pub(crate) fn assign_with_caches(
        &self,
        fleet: &Fleet,
        assignment: &Assignment,
        caches: &[(&'static str, PlanCache)],
    ) -> Vec<usize> {
        match assignment {
            Assignment::ByOrientation => fleet
                .devices()
                .iter()
                .map(|device| {
                    let mount = device.scenario.rx.orientation;
                    let mut best = 0;
                    for (k, panel) in self.panels.iter().enumerate() {
                        if axis_distance_deg(mount, panel.sector_center)
                            < axis_distance_deg(mount, self.panels[best].sector_center)
                        {
                            best = k;
                        }
                    }
                    best
                })
                .collect(),
            Assignment::RoundRobin => (0..fleet.len()).map(|d| d % self.panels.len()).collect(),
            Assignment::Explicit(map) => {
                assert_eq!(
                    map.len(),
                    fleet.len(),
                    "explicit assignment must cover every device"
                );
                assert!(
                    map.iter().all(|&k| k < self.panels.len()),
                    "explicit assignment references a panel outside the array"
                );
                map.clone()
            }
            Assignment::BestReference => self.assign_best_reference(fleet, caches),
        }
    }

    /// Measurement-driven balanced assignment: each device's link is
    /// prepared once ([`PreparedLink`], scatter cached), re-targeted at
    /// every panel's mounting position
    /// ([`PreparedLink::with_surface_placement`]), and scored by
    /// received power under the panel's reference-bias response.
    /// Devices then greedily take their best-scoring panel with
    /// capacity left (⌈n/K⌉ per panel), processed in a *canonical*
    /// order — strongest best-panel power first, label ascending on
    /// ties — rather than fleet order, so the assignment is invariant
    /// under device permutation (property-tested). Reference-power ties
    /// within a device's preference list — identical panels of a
    /// uniform array measure bit-identically — break toward the panel
    /// whose sector is nearest the device's mount, then the lower
    /// index, so the policy degrades to a load-balanced
    /// [`Assignment::ByOrientation`] rather than to arrival-order
    /// blocking.
    fn assign_best_reference(
        &self,
        fleet: &Fleet,
        caches: &[(&'static str, PlanCache)],
    ) -> Vec<usize> {
        let n = fleet.len();
        let k = self.panels.len();
        let capacity = n.div_ceil(k);
        // The reference response depends only on (design, carrier) —
        // memoize it across devices instead of re-running the cascade
        // per device × panel.
        let mut responses: Vec<(usize, u64, SurfaceResponse)> = Vec::new();
        // Score every device against every panel up front (no capacity
        // pruning here — pruning while scanning would make the scores
        // depend on processing order).
        let mut prefs: Vec<Vec<(usize, f64, f64)>> = Vec::with_capacity(n);
        for device in fleet.devices() {
            let f = device.scenario.frequency;
            let prepared = PreparedLink::new(device.scenario.link());
            let mount = device.scenario.rx.orientation;
            // (panel index, reference power, mount-to-sector distance).
            let mut scored: Vec<(usize, f64, f64)> = Vec::with_capacity(k);
            for (idx, panel) in self.panels.iter().enumerate() {
                let response = match responses
                    .iter()
                    .find(|(p, bits, _)| *p == idx && *bits == f.0.to_bits())
                {
                    Some((_, _, r)) => *r,
                    None => {
                        let plan = Self::cache_for(caches, &panel.design).plan(f);
                        let r =
                            SurfaceResponse::new(plan.frequency(), plan.response(REFERENCE_BIAS));
                        responses.push((idx, f.0.to_bits(), r));
                        r
                    }
                };
                let moved = prepared
                    .with_surface_placement(panel.deployment_for(device.scenario.deployment));
                let power = moved.received_dbm_with(Some(&response)).0;
                let sector = axis_distance_deg(mount, panel.sector_center);
                scored.push((idx, power, sector));
            }
            // Preference order: power descending, then nearest sector,
            // then lower panel index (already the scan order).
            scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.2.total_cmp(&b.2)));
            prefs.push(scored);
        }
        // Canonical processing order: devices with the strongest best
        // panel claim capacity first; labels break exact-power ties.
        // Both keys travel with the device under permutation, so the
        // resulting assignment does too.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            prefs[b][0]
                .1
                .total_cmp(&prefs[a][0].1)
                .then_with(|| fleet.devices()[a].label.cmp(&fleet.devices()[b].label))
        });
        let mut load = vec![0usize; k];
        let mut out = vec![0usize; n];
        for &d in &order {
            let &(idx, _, _) = prefs[d]
                .iter()
                .find(|&&(idx, _, _)| load[idx] < capacity)
                .expect("capacity ⌈n/K⌉·K ≥ n leaves a panel open");
            load[idx] += 1;
            out[d] = idx;
        }
        out
    }

    /// Splits the fleet into per-panel sub-fleets under a precomputed
    /// assignment; element `k` holds panel `k`'s sub-fleet (the panel's
    /// design and mounting applied to each member's scenario) and the
    /// members' fleet-order indices.
    pub fn subfleets(&self, fleet: &Fleet, assignment: &[usize]) -> Vec<(Fleet, Vec<usize>)> {
        assert_eq!(assignment.len(), fleet.len(), "one panel per device");
        let mut out: Vec<(Fleet, Vec<usize>)> = self
            .panels
            .iter()
            .map(|p| (Fleet::new(p.design.clone()), Vec::new()))
            .collect();
        for (d, (&panel_idx, device)) in assignment.iter().zip(fleet.devices()).enumerate() {
            let panel = &self.panels[panel_idx];
            let mut member = device.clone();
            member.scenario = panel.scenario_for(&device.scenario);
            out[panel_idx].0.push(member);
            out[panel_idx].1.push(d);
        }
        out
    }

    /// One evaluator per populated panel of `subfleets`, its plans drawn
    /// from the cache of the panel's design; `None` for an empty panel.
    fn panel_evaluators(
        &self,
        subfleets: &[(Fleet, Vec<usize>)],
        caches: &[(&'static str, PlanCache)],
    ) -> Vec<Option<FleetEvaluator>> {
        subfleets
            .iter()
            .zip(&self.panels)
            .map(|((subfleet, _), panel)| {
                (!subfleet.is_empty()).then(|| {
                    FleetEvaluator::with_plan_cache(
                        subfleet,
                        Self::cache_for(caches, &panel.design),
                    )
                })
            })
            .collect()
    }

    /// Per-panel probe matrices on the shared-plan batch path:
    /// `result[k][b][i]` is the power of panel `k`'s `i`-th assigned
    /// device under `biases[b]`. Every populated panel goes into one
    /// batch, so panels of one design evaluate each carrier's cells
    /// once between them. Bitwise the per-device loop over each
    /// [`PanelArray::subfleets`] member (property-tested).
    pub fn batched_panel_matrices(
        &self,
        fleet: &Fleet,
        assignment: &[usize],
        biases: &[BiasState],
    ) -> Vec<Vec<Vec<f64>>> {
        let evaluators =
            self.panel_evaluators(&self.subfleets(fleet, assignment), &self.plan_caches());
        let requests: Vec<(&FleetEvaluator, &[BiasState])> =
            evaluators.iter().flatten().map(|e| (e, biases)).collect();
        let mut matrices = FleetEvaluator::powers_batch(&requests).into_iter();
        evaluators
            .iter()
            .map(|e| match e {
                Some(_) => matrices.next().expect("one matrix per populated panel"),
                None => vec![Vec::new(); biases.len()],
            })
            .collect()
    }
}

/// Angular distance between two polarization axes, degrees (period 180).
fn axis_distance_deg(a: Degrees, b: Degrees) -> f64 {
    let d = (a.0 - b.0).rem_euclid(180.0);
    d.min(180.0 - d)
}

/// How devices map onto panels.
#[derive(Clone, Debug, PartialEq)]
pub enum Assignment {
    /// Each device goes to the panel whose sector center is nearest its
    /// mount orientation (axis distance, ties toward the lower panel
    /// index) — the geometric default.
    ByOrientation,
    /// `device d → panel d mod K` (load balancing with no geometry).
    RoundRobin,
    /// Caller-specified `device → panel` map.
    Explicit(Vec<usize>),
    /// Balanced greedy by measured reference-bias power per panel,
    /// capacity ⌈n/K⌉; power ties (identical panels) break toward the
    /// nearest sector, so uniform arrays behave like a load-balanced
    /// [`Assignment::ByOrientation`] (see [`PanelArray::assign`]).
    BestReference,
}

/// Configuration of the joint multi-surface search
/// ([`PanelScheduler::with_joint`]): coupling physics plus the block
/// coordinate descent schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JointConfig {
    /// Inter-panel coupling strength. A disabled coupling makes the
    /// joint run return the independent outcome bit-for-bit.
    pub coupling: CouplingConfig,
    /// Per-panel refinement sweep run each descent round (warm-start
    /// grid around the panel's current bias).
    pub warm: WarmConfig,
    /// Cap on full descent rounds (one round = one sweep per panel).
    pub max_rounds: usize,
    /// Convergence tolerance, dB: a round improving the fleet min by
    /// no more than this ends the descent.
    pub tolerance_db: f64,
    /// Sweep panels in reverse array order within each round — the
    /// order-independence proptest's lever; results at convergence
    /// agree within `tolerance_db` either way.
    pub reverse_order: bool,
}

impl Default for JointConfig {
    fn default() -> Self {
        Self {
            coupling: CouplingConfig::indoor_default(),
            warm: WarmConfig::paper_default(),
            max_rounds: 4,
            tolerance_db: 0.05,
            reverse_order: false,
        }
    }
}

/// What the joint search did, reported on [`PanelOutcome::joint`] and
/// surfaced through the serving stats.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JointStats {
    /// Descent rounds executed (0 when the joint run short-circuited:
    /// empty fleet, single panel, or disabled coupling).
    pub rounds: usize,
    /// Whether the descent hit the tolerance rather than the round cap.
    pub converged: bool,
    /// Bias states probed against the superposed field (on top of the
    /// independent warm-up's probes).
    pub coupled_probes: usize,
    /// Fraction of total received field energy carried by cross terms
    /// at the final bias vector — how much the panels actually talk.
    pub cross_energy_fraction: f64,
    /// Fleet min-power gain of the joint biases over the independent
    /// biases, dB, both measured under the coupled physics.
    pub lift_db: f64,
}

/// How quickly devices return to a panel healed from a whole-panel
/// outage ([`crate::faults::FaultPlan::panel_revived`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RevivalPolicy {
    /// Re-admit on the heal tick: every device whose reference-best
    /// panel is the healed one migrates back immediately. Outages
    /// orphan devices with no hysteresis; this is the symmetric
    /// treatment on the way back.
    #[default]
    Immediate,
    /// Healed panels reacquire devices only through ordinary handoff
    /// hysteresis — which never fires for devices that stopped moving,
    /// so a revived panel can sit idle indefinitely.
    Hysteresis,
}

/// What one panel contributed to a panel-scheduling run.
#[derive(Clone, Debug)]
pub struct PanelAllocation {
    /// Panel label, copied from the array.
    pub panel: String,
    /// Fleet-order indices of the devices this panel serves.
    pub devices: Vec<usize>,
    /// The panel's own scheduling outcome (its bias, per-device service,
    /// probe history); [`FleetOutcome::empty`] for an idle panel.
    pub outcome: FleetOutcome,
}

/// Outcome of one panel-scheduling run.
#[derive(Clone, Debug)]
pub struct PanelOutcome {
    /// Device → panel map used.
    pub assignment: Vec<usize>,
    /// Per-panel allocations, in array order.
    pub per_panel: Vec<PanelAllocation>,
    /// Per-device service in fleet order (each device served by its
    /// panel's bias).
    pub per_device: Vec<DeviceService>,
    /// Total bias states probed across all panels.
    pub probes: usize,
    /// Wall-clock of the slowest panel — panels carry independent bias
    /// rails and tune concurrently.
    pub elapsed: Seconds,
    /// The fleet-wide min served power, dBm (`-∞` for an empty fleet).
    pub score: f64,
    /// Joint-search bookkeeping when the run used
    /// [`PanelScheduler::with_joint`]; `None` on the independent path.
    pub joint: Option<JointStats>,
}

impl PanelOutcome {
    /// The worst served power across the fleet, dBm (`-∞` when empty).
    pub fn min_power_dbm(&self) -> f64 {
        if self.per_device.is_empty() {
            return f64::NEG_INFINITY;
        }
        self.per_device
            .iter()
            .map(|d| d.power_dbm)
            .fold(f64::INFINITY, f64::min)
    }

    /// Aggregate duty-cycled throughput, bit/s/Hz.
    pub fn total_throughput_bits_hz(&self) -> f64 {
        self.per_device.iter().map(|d| d.throughput_bits_hz).sum()
    }

    /// True when `other` is the *same allocation*: identical device →
    /// panel assignment, per-panel biases, per-device served powers and
    /// fleet score, compared exactly (bit-for-bit on the floats). Probe
    /// counts and histories are deliberately excluded — a warm-started
    /// or reused re-optimization that lands on the same allocation at a
    /// fraction of the probe bill *is* equivalent, and that distinction
    /// is the mobility simulator's whole point.
    pub fn same_allocation(&self, other: &PanelOutcome) -> bool {
        self.assignment == other.assignment
            && self.score.to_bits() == other.score.to_bits()
            && self.panel_biases() == other.panel_biases()
            && self.per_device.len() == other.per_device.len()
            && self
                .per_device
                .iter()
                .zip(&other.per_device)
                .all(|(a, b)| a.power_dbm.to_bits() == b.power_dbm.to_bits() && a.bias == b.bias)
    }

    /// The bias each panel converged on (`None` for idle panels or
    /// per-device time division).
    pub fn panel_biases(&self) -> Vec<Option<BiasState>> {
        self.per_panel
            .iter()
            .map(|p| p.outcome.shared_bias)
            .collect()
    }
}

/// Generalizes [`Scheduler`] from one shared bias to a per-panel bias
/// vector: assignment, then one Algorithm 1 search per panel over its
/// sub-fleet, on the shared-plan batch path.
#[derive(Clone, Debug)]
pub struct PanelScheduler {
    /// The per-panel scheduling core (sweep strategy, policy, TDM slot).
    /// A [`Policy::Favor`] `favored` index is interpreted in *fleet*
    /// order: the panel serving that device runs the isolation
    /// objective against its sector neighbours (falling back to max-min
    /// when the device has its panel to itself — a dedicated aperture
    /// *is* isolation), and every other panel runs max-min.
    pub base: Scheduler,
    /// Device → panel mapping policy.
    pub assignment: Assignment,
    /// Joint multi-surface refinement run after the independent
    /// per-panel search (`None` = independent only). See
    /// [`PanelScheduler::with_joint`].
    pub joint: Option<JointConfig>,
    /// Telemetry sink (null by default — zero overhead). With a ring
    /// attached, per-panel sweeps emit
    /// [`TelemetryEvent::SweepSpan`](crate::telemetry::TelemetryEvent)
    /// and joint descent rounds emit
    /// [`TelemetryEvent::JointRound`](crate::telemetry::TelemetryEvent)
    /// carrying the round's canonical lift and coupled-probe cost.
    pub recorder: RecorderHandle,
}

impl PanelScheduler {
    /// Max-min fairness per panel, devices assigned by mount
    /// orientation — the panel generalization of [`Scheduler::max_min`].
    pub fn max_min() -> Self {
        Self {
            base: Scheduler::max_min(),
            assignment: Assignment::ByOrientation,
            joint: None,
            recorder: RecorderHandle::null(),
        }
    }

    /// Per-device time division within each panel.
    pub fn time_division() -> Self {
        Self {
            base: Scheduler::time_division(),
            ..Self::max_min()
        }
    }

    /// Sets the assignment policy.
    pub fn with_assignment(mut self, assignment: Assignment) -> Self {
        self.assignment = assignment;
        self
    }

    /// Enables the joint multi-surface search: after the independent
    /// per-panel warm-up, block coordinate descent re-sweeps each
    /// panel's bias against the superposed field (other panels held
    /// fixed) until the fleet min stops improving by more than
    /// `joint.tolerance_db` or `joint.max_rounds` rounds have run.
    /// Supported for [`Policy::MaxMin`]; a disabled coupling returns
    /// the independent outcome bit-for-bit (property-tested).
    pub fn with_joint(mut self, joint: JointConfig) -> Self {
        self.joint = Some(joint);
        self
    }

    /// Attaches a telemetry recorder.
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }

    /// Runs assignment plus per-panel Algorithm 1 against the array.
    /// An empty fleet yields an empty outcome through the same guard as
    /// [`Scheduler::run`] (every panel schedules an empty sub-fleet).
    /// Each panel's allocation is bitwise [`Scheduler::run`] over its
    /// [`PanelArray::subfleets`] member (property-tested).
    pub fn run(&self, fleet: &Fleet, array: &PanelArray) -> PanelOutcome {
        // One cache set serves both assignment (reference responses) and
        // per-panel evaluation — each design × carrier compiles once per
        // run.
        self.run_with_caches(fleet, array, &array.plan_caches())
    }

    /// [`PanelScheduler::run`] drawing compiled plans from caller-owned
    /// caches — the served path: each of many `(fleet, array)` jobs
    /// passes its own local [`PlanCache`] handles
    /// (see [`SharedPlanCache::handle`](metasurface::SharedPlanCache))
    /// so every job reuses process-wide compilations, and every branch
    /// S-parameter another job already solved, instead of redoing them
    /// per job. The caches **must** cover every design in `array`
    /// (keyed by design name).
    ///
    /// The panels' searches run in lockstep: each sweep round probes
    /// every live panel's grid in one batch, so panels that share a
    /// design (and with it each carrier's compiled plan) evaluate a
    /// cell that several panels probe once, with one set of response
    /// factors, and a cell any job over the same store has evaluated
    /// comes from the plan store's cell memo. A live recorder gets the
    /// cells sent to the cascade kernel as the `fleet.cascade_cells`
    /// counter and the memo hits as `fleet.factor_hits`.
    pub fn run_with_caches(
        &self,
        fleet: &Fleet,
        array: &PanelArray,
        caches: &[(&'static str, PlanCache)],
    ) -> PanelOutcome {
        let assignment = array.assign_with_caches(fleet, &self.assignment, caches);
        let independent = self.run_assigned(fleet, array, assignment, caches);
        match &self.joint {
            Some(cfg) => self.joint_refine(fleet, array, caches, independent, cfg),
            None => independent,
        }
    }

    /// The cold per-panel schedule: split `fleet` under a fixed
    /// `assignment`, advance every populated panel's search in lockstep
    /// ([`crate::fleet::drive`]) — empty panels take the empty-fleet
    /// guard — and assemble the array outcome.
    fn run_assigned(
        &self,
        fleet: &Fleet,
        array: &PanelArray,
        assignment: Vec<usize>,
        caches: &[(&'static str, PlanCache)],
    ) -> PanelOutcome {
        // Asked before the schedule: a recorder that stamps its calls
        // then charges the whole lockstep search to the sweep events.
        let traced = self.recorder.enabled();
        let subfleets = array.subfleets(fleet, &assignment);
        let schedulers: Vec<Scheduler> = subfleets
            .iter()
            .map(|(_, members)| self.panel_scheduler(members))
            .collect();
        let evaluators = array.panel_evaluators(&subfleets, caches);
        let (mut searches, live): (Vec<Search>, Vec<&FleetEvaluator>) = evaluators
            .iter()
            .zip(&subfleets)
            .zip(&schedulers)
            .filter_map(|((evaluator, (subfleet, _)), scheduler)| {
                let evaluator = evaluator.as_ref()?;
                Some((scheduler.search(subfleet, evaluator), evaluator))
            })
            .unzip();
        let cells = drive(&mut searches, &live);

        let mut searches = searches.into_iter();
        let mut per_panel = Vec::with_capacity(array.len());
        let mut services: Vec<Option<DeviceService>> = vec![None; fleet.len()];
        let mut probes = 0usize;
        let mut elapsed = 0.0f64;
        for (k, ((subfleet, members), scheduler)) in
            subfleets.into_iter().zip(schedulers).enumerate()
        {
            let outcome = match &evaluators[k] {
                Some(evaluator) => {
                    let search = searches.next().expect("one search per populated panel");
                    scheduler.outcome(&subfleet, evaluator, search)
                }
                None => FleetOutcome::empty(scheduler.policy),
            };
            probes += outcome.probes;
            elapsed = elapsed.max(outcome.elapsed.0);
            if traced && !outcome.per_device.is_empty() {
                self.recorder
                    .record_value("panels.probes_per_panel", outcome.probes as u64);
                self.recorder.emit(TelemetryEvent::SweepSpan {
                    panel: k,
                    kind: "cold",
                    probes: outcome.probes,
                });
            }
            for (service, &d) in outcome.per_device.iter().zip(&members) {
                services[d] = Some(service.clone());
            }
            per_panel.push(PanelAllocation {
                panel: array.panels()[k].label.clone(),
                devices: members,
                outcome,
            });
        }
        if traced {
            self.recorder.add("fleet.cascade_cells", cells.cascade);
            self.recorder.add("fleet.factor_hits", cells.hits);
        }

        let per_device: Vec<DeviceService> = services
            .into_iter()
            .map(|s| s.expect("every device is assigned to exactly one panel"))
            .collect();
        let mut outcome = PanelOutcome {
            assignment,
            per_panel,
            per_device,
            probes,
            elapsed: Seconds(elapsed),
            score: f64::NEG_INFINITY,
            joint: None,
        };
        outcome.score = outcome.min_power_dbm();
        outcome
    }

    /// The joint refinement stage: block coordinate descent from the
    /// independent per-panel optimum against the superposed field.
    ///
    /// Each round sweeps every panel once (a warm [`GridSearch`]
    /// centered on the panel's current bias) with the other panels'
    /// contributions held fixed; the round's canonical fleet-min
    /// improvement feeds [`descend_rounds`]'s convergence check. The
    /// final score is re-measured through the canonical superposition
    /// ([`CoupledEvaluator::powers_dbm`]) because the sweep's
    /// cached-fixed-part sum associates float additions differently.
    fn joint_refine(
        &self,
        fleet: &Fleet,
        array: &PanelArray,
        caches: &[(&'static str, PlanCache)],
        independent: PanelOutcome,
        cfg: &JointConfig,
    ) -> PanelOutcome {
        let kp = array.len();
        if fleet.is_empty() || kp < 2 || cfg.coupling.is_disabled() {
            // Nothing to couple: the independent outcome *is* the joint
            // outcome (bitwise — the zero-coupling guarantee).
            let mut outcome = independent;
            outcome.joint = Some(JointStats {
                rounds: 0,
                converged: true,
                coupled_probes: 0,
                cross_energy_fraction: 0.0,
                lift_db: 0.0,
            });
            return outcome;
        }
        assert!(
            matches!(self.base.policy, Policy::MaxMin),
            "the joint search optimizes the fleet min (Policy::MaxMin); got {:?}",
            self.base.policy
        );
        let mut coupled = CoupledEvaluator::with_caches(
            fleet,
            array,
            &independent.assignment,
            caches,
            cfg.coupling,
        );
        let mut biases: Vec<BiasState> = independent
            .panel_biases()
            .into_iter()
            .map(|b| b.unwrap_or(REFERENCE_BIAS))
            .collect();
        let min_of = |powers: &[f64]| powers.iter().copied().fold(f64::INFINITY, f64::min);
        let baseline = min_of(&coupled.powers_dbm(&biases));
        let mut score = baseline;
        let mut coupled_probes = 0usize;
        let mut panel_probes = vec![0usize; kp];
        let mut panel_elapsed = vec![0.0f64; kp];
        let order: Vec<usize> = if cfg.reverse_order {
            (0..kp).rev().collect()
        } else {
            (0..kp).collect()
        };
        let traced = self.recorder.enabled();
        let mut round_no = 0usize;
        let (rounds, converged) = descend_rounds(cfg.max_rounds, cfg.tolerance_db, || {
            let before = score;
            for &p in &order {
                let fixed = coupled.fixed_amplitudes(p, &biases);
                let center = Probe {
                    vx: biases[p].vx,
                    vy: biases[p].vy,
                };
                // The coupled field is measured probe by probe, in
                // visit order.
                let sweep = GridSearch::warm(&self.base.sweep, &cfg.warm, center).run(
                    &RecorderHandle::null(),
                    p,
                    |probes: &[Probe]| {
                        probes
                            .iter()
                            .map(|probe| {
                                let bias = BiasState {
                                    vx: probe.vx,
                                    vy: probe.vy,
                                };
                                coupled.sweep_powers(p, bias, &fixed)
                            })
                            .collect()
                    },
                    |m| m.iter().copied().fold(f64::INFINITY, f64::min),
                );
                coupled_probes += sweep.probes;
                panel_probes[p] += sweep.probes;
                panel_elapsed[p] += sweep.duration.0;
                biases[p] = BiasState {
                    vx: sweep.best.vx,
                    vy: sweep.best.vy,
                };
            }
            // Canonical re-measure: the sweep's fixed-part association
            // can drift from the full superposition by float dust, so
            // convergence is judged on the canonical score only.
            let after = min_of(&coupled.powers_dbm(&biases));
            let improvement = after - before;
            score = after;
            round_no += 1;
            if traced {
                self.recorder.add("panels.joint_rounds", 1);
                self.recorder.emit(TelemetryEvent::JointRound {
                    round: round_no,
                    lift_db: improvement,
                    coupled_probes,
                });
            }
            improvement
        });

        let powers = coupled.powers_dbm(&biases);
        let cross_energy = coupled.cross_energy_fraction(&biases);
        let subfleets = array.subfleets(fleet, &independent.assignment);
        let mut services: Vec<Option<DeviceService>> = vec![None; fleet.len()];
        let mut per_panel = Vec::with_capacity(kp);
        for (k, (subfleet, members)) in subfleets.into_iter().enumerate() {
            let bias = biases[k].clamped(SUPPLY_CEILING);
            let mut panel_services = Vec::with_capacity(members.len());
            for (device, &d) in subfleet.devices().iter().zip(&members) {
                let power = powers[d];
                let service = DeviceService {
                    label: device.label.clone(),
                    bias,
                    power_dbm: power,
                    duty: 1.0,
                    throughput_bits_hz: capacity_bits(Dbm(power), &device.profile.noise),
                    decodable: device.profile.is_decodable(power),
                };
                services[d] = Some(service.clone());
                panel_services.push(service);
            }
            let panel_score = members
                .iter()
                .map(|&d| powers[d])
                .fold(f64::INFINITY, f64::min);
            per_panel.push(PanelAllocation {
                panel: array.panels()[k].label.clone(),
                devices: members,
                outcome: FleetOutcome {
                    policy: Policy::MaxMin,
                    per_device: panel_services,
                    shared_bias: Some(bias),
                    score: if panel_score == f64::INFINITY {
                        f64::NEG_INFINITY
                    } else {
                        panel_score
                    },
                    probes: panel_probes[k],
                    elapsed: Seconds(panel_elapsed[k]),
                    history: Vec::new(),
                },
            });
        }
        let per_device: Vec<DeviceService> = services
            .into_iter()
            .map(|s| s.expect("every device is assigned to exactly one panel"))
            .collect();
        // Descent rounds are sequential (panel k's sweep needs the
        // others' latest biases), so the coupled refinement bills its
        // total probe airtime on top of the independent warm-up.
        let mut outcome = PanelOutcome {
            assignment: independent.assignment.clone(),
            per_panel,
            per_device,
            probes: independent.probes + coupled_probes,
            elapsed: Seconds(independent.elapsed.0 + panel_elapsed.iter().sum::<f64>()),
            score: f64::NEG_INFINITY,
            joint: None,
        };
        outcome.score = outcome.min_power_dbm();
        outcome.joint = Some(JointStats {
            rounds,
            converged,
            coupled_probes,
            cross_energy_fraction: cross_energy,
            lift_db: score - baseline,
        });
        outcome
    }

    /// The scheduler one panel runs, translating a fleet-order
    /// [`Policy::Favor`] index into the panel's sub-fleet (max-min
    /// everywhere the favored device is absent or alone).
    pub(crate) fn panel_scheduler(&self, members: &[usize]) -> Scheduler {
        let mut scheduler = self.base.clone();
        if let Policy::Favor { favored } = self.base.policy {
            scheduler.policy = match members.iter().position(|&d| d == favored) {
                Some(sub) if members.len() >= 2 => Policy::Favor { favored: sub },
                _ => Policy::MaxMin,
            };
        }
        scheduler
    }
}

/// The superposed-field probe engine behind the joint search: one
/// [`MultiSurfaceField`] per device (its home panel's full link plus
/// every foreign panel's re-mounted leakage link) and one compiled plan
/// handle per panel × distinct carrier, batch-reused across probes.
///
/// The home link of each field is constructed exactly like
/// [`FleetEvaluator::with_plan_cache`] constructs its links, so at zero
/// coupling the superposed powers are *bit-identical* to the
/// independent evaluator's (property-tested) — the joint path degrades
/// to the fast approximation with no physics drift.
pub struct CoupledEvaluator {
    fields: Vec<MultiSurfaceField>,
    home_of: Vec<usize>,
    carrier_of: Vec<usize>,
    /// `plans[k][c]`: panel `k`'s compiled plan at distinct carrier `c`.
    plans: Vec<Vec<Rc<StackEvaluator>>>,
    coupling: CouplingConfig,
    /// `responses[k][c]`, refilled per bias vector.
    responses: Vec<Vec<SurfaceResponse>>,
}

impl CoupledEvaluator {
    /// Builds the coupled engine for `fleet` served by `array` under a
    /// fixed device → panel `assignment`, compiling its own plan caches.
    pub fn new(
        fleet: &Fleet,
        array: &PanelArray,
        assignment: &[usize],
        coupling: CouplingConfig,
    ) -> Self {
        Self::with_caches(fleet, array, assignment, &array.plan_caches(), coupling)
    }

    /// [`CoupledEvaluator::new`] drawing plans from caller-owned caches
    /// (the scheduler's per-run cache set).
    pub(crate) fn with_caches(
        fleet: &Fleet,
        array: &PanelArray,
        assignment: &[usize],
        caches: &[(&'static str, PlanCache)],
        coupling: CouplingConfig,
    ) -> Self {
        assert_eq!(assignment.len(), fleet.len(), "one panel per device");
        let panels = array.panels();
        // Distinct carriers across the fleet, first-appearance order.
        let mut carriers: Vec<u64> = Vec::new();
        let carrier_of: Vec<usize> = fleet
            .devices()
            .iter()
            .map(|device| {
                let bits = device.scenario.frequency.0.to_bits();
                match carriers.iter().position(|&b| b == bits) {
                    Some(i) => i,
                    None => {
                        carriers.push(bits);
                        carriers.len() - 1
                    }
                }
            })
            .collect();
        let plans: Vec<Vec<Rc<StackEvaluator>>> = panels
            .iter()
            .map(|panel| {
                let cache = PanelArray::cache_for(caches, &panel.design);
                carriers
                    .iter()
                    .map(|&bits| cache.plan(Hertz(f64::from_bits(bits))))
                    .collect()
            })
            .collect();
        let fields: Vec<MultiSurfaceField> = fleet
            .devices()
            .iter()
            .zip(assignment)
            .map(|(device, &home)| {
                // The home link matches the independent evaluator's
                // construction bit-for-bit; foreign panels re-mount the
                // same prepared link at their own positions, reusing
                // the cached static paths.
                let home_link =
                    PreparedLink::new(panels[home].scenario_for(&device.scenario).link());
                let links: Vec<PreparedLink> = panels
                    .iter()
                    .enumerate()
                    .map(|(k, panel)| {
                        if k == home {
                            home_link.clone()
                        } else {
                            home_link.with_surface_placement(
                                panel.deployment_for(device.scenario.deployment),
                            )
                        }
                    })
                    .collect();
                MultiSurfaceField::new(home, links)
            })
            .collect();
        let responses = plans
            .iter()
            .map(|row| Vec::with_capacity(row.len()))
            .collect();
        Self {
            fields,
            home_of: assignment.to_vec(),
            carrier_of,
            plans,
            coupling,
            responses,
        }
    }

    /// Number of devices under evaluation.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True for an empty fleet.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Evaluates every panel's response at its bias, per carrier.
    fn fill_responses(&mut self, biases: &[BiasState]) {
        assert_eq!(biases.len(), self.plans.len(), "one bias per panel");
        let Self {
            plans, responses, ..
        } = self;
        for (k, row) in plans.iter().enumerate() {
            responses[k].clear();
            let bias = biases[k].clamped(SUPPLY_CEILING);
            for plan in row {
                responses[k].push(plan.surface_response(bias));
            }
        }
    }

    /// Device `d`'s superposed amplitude from the filled responses —
    /// the canonical association: home first, cross terms in panel
    /// order.
    fn amplitude_of(&self, d: usize) -> Complex {
        let field = &self.fields[d];
        let c = self.carrier_of[d];
        let home = self.home_of[d];
        let mut amp = field.home_amplitude(Some(&self.responses[home][c]));
        if !self.coupling.is_disabled() {
            for k in 0..field.panel_count() {
                if k == home {
                    continue;
                }
                amp += field.cross_amplitude(k, Some(&self.responses[k][c]), &self.coupling);
            }
        }
        amp
    }

    /// Per-device superposed received powers, dBm, at a per-panel bias
    /// vector. At zero coupling this equals the independent
    /// [`FleetEvaluator::powers_dbm`] bit-for-bit.
    pub fn powers_dbm(&mut self, biases: &[BiasState]) -> Vec<f64> {
        self.fill_responses(biases);
        (0..self.fields.len())
            .map(|d| Watts(self.amplitude_of(d).norm_sqr()).to_dbm().0)
            .collect()
    }

    /// The fleet-wide min superposed power (`-∞` when empty).
    pub fn min_power_dbm(&mut self, biases: &[BiasState]) -> f64 {
        if self.fields.is_empty() {
            return f64::NEG_INFINITY;
        }
        self.powers_dbm(biases)
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    }

    /// Fraction of total received field energy carried by cross terms
    /// at this bias vector — 0 when panels don't talk, approaching 1 if
    /// leakage dominated (it never should).
    pub fn cross_energy_fraction(&mut self, biases: &[BiasState]) -> f64 {
        self.fill_responses(biases);
        let mut cross = 0.0f64;
        let mut total = 0.0f64;
        for d in 0..self.fields.len() {
            let amp = self.amplitude_of(d);
            let c = self.carrier_of[d];
            let home_idx = self.home_of[d];
            let home = self.fields[d].home_amplitude(Some(&self.responses[home_idx][c]));
            cross += (amp - home).norm_sqr();
            total += amp.norm_sqr();
        }
        if total == 0.0 {
            0.0
        } else {
            cross / total
        }
    }

    /// Per-device contribution of every panel *except* `swept` at the
    /// bias vector `biases`: the constant part of one coordinate sweep,
    /// computed once per panel-sweep so each probe costs one panel
    /// evaluation plus one complex add per device. Re-fills all stored
    /// responses from `biases` first — a preceding sweep leaves the
    /// swept panel's stored response at its *last probe*, not its
    /// accepted best.
    fn fixed_amplitudes(&mut self, swept: usize, biases: &[BiasState]) -> Vec<Complex> {
        self.fill_responses(biases);
        (0..self.fields.len())
            .map(|d| {
                let field = &self.fields[d];
                let c = self.carrier_of[d];
                let home = self.home_of[d];
                let mut amp = if home == swept {
                    Complex::ZERO
                } else {
                    field.home_amplitude(Some(&self.responses[home][c]))
                };
                for k in 0..field.panel_count() {
                    if k == home || k == swept {
                        continue;
                    }
                    amp += field.cross_amplitude(k, Some(&self.responses[k][c]), &self.coupling);
                }
                amp
            })
            .collect()
    }

    /// Per-device powers when panel `swept` probes `bias` and every
    /// other panel holds its `fixed` contribution — the measure
    /// callback of one coordinate sweep. Leaves the swept panel's
    /// stored response at the probed bias;
    /// [`CoupledEvaluator::fixed_amplitudes`] and the canonical
    /// [`CoupledEvaluator::powers_dbm`] both re-fill before reading.
    fn sweep_powers(&mut self, swept: usize, bias: BiasState, fixed: &[Complex]) -> Vec<f64> {
        let bias = bias.clamped(SUPPLY_CEILING);
        let Self {
            plans, responses, ..
        } = self;
        responses[swept].clear();
        for plan in &plans[swept] {
            responses[swept].push(plan.surface_response(bias));
        }
        (0..self.fields.len())
            .map(|d| {
                let field = &self.fields[d];
                let c = self.carrier_of[d];
                let home = self.home_of[d];
                let amp = if home == swept {
                    field.home_amplitude(Some(&self.responses[swept][c])) + fixed[d]
                } else {
                    fixed[d]
                        + field.cross_amplitude(
                            swept,
                            Some(&self.responses[swept][c]),
                            &self.coupling,
                        )
                };
                Watts(amp.norm_sqr()).to_dbm().0
            })
            .collect()
    }
}

/// Serves many independent fleets concurrently through a
/// [`FleetServer`]: each fleet is one job claimed from the server's
/// cursor, each worker runs the full shared-bias scheduler, and the
/// results come back in submission order — bit-identical to calling
/// [`Scheduler::run`] serially (workers share nothing).
pub fn serve_fleets(
    server: &FleetServer,
    scheduler: &Scheduler,
    fleets: &[Fleet],
) -> Vec<FleetOutcome> {
    server.serve(fleets.iter().collect(), |_, fleet: &Fleet| {
        scheduler.run(fleet)
    })
}

/// [`serve_fleets`] for panel deployments: every job is a fleet with its
/// own panel array, scheduled by one shared [`PanelScheduler`].
///
/// Compiled cascade plans are shared across jobs through one
/// [`SharedPlanCache`](metasurface::SharedPlanCache) per distinct design:
/// each job wraps the shared store in its own local [`PlanCache`]
/// handles, so K panels × N fleets compile each `(design, carrier)`
/// plan once process-wide, solve each branch voltage once process-wide
/// (a handle's local miss reads the store's solve), and never contend
/// on a cache lock during probing. Within a job the panels' searches
/// run in lockstep ([`PanelScheduler::run_with_caches`]). No computed
/// response outlives its job's schedule.
pub fn serve_panel_fleets(
    server: &FleetServer,
    scheduler: &PanelScheduler,
    jobs: &[(Fleet, PanelArray)],
) -> Vec<PanelOutcome> {
    // One shared store per distinct design across every job's array.
    let mut shared: Vec<(&'static str, std::sync::Arc<metasurface::SharedPlanCache>)> = Vec::new();
    for (_, array) in jobs {
        for panel in array.panels() {
            if !shared.iter().any(|(name, _)| *name == panel.design.name) {
                shared.push((
                    panel.design.name,
                    std::sync::Arc::new(metasurface::SharedPlanCache::new(&panel.design.stack)),
                ));
            }
        }
    }
    server.serve(
        jobs.iter().collect(),
        move |_, (fleet, array): &(Fleet, PanelArray)| {
            let mut caches: Vec<(&'static str, PlanCache)> = Vec::new();
            for panel in array.panels() {
                if !caches.iter().any(|(name, _)| *name == panel.design.name) {
                    let (name, store) = shared
                        .iter()
                        .find(|(name, _)| *name == panel.design.name)
                        .expect("every job design has a shared store");
                    caches.push((name, store.handle()));
                }
            }
            scheduler.run_with_caches(fleet, array, &caches)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetDevice;
    use metasurface::SharedPlanCache;

    fn quad_fleet() -> Fleet {
        let mut fleet = Fleet::new(metasurface::designs::fr4_optimized());
        fleet.push(FleetDevice::wifi("w0", Degrees(-70.0), 250.0, 10));
        fleet.push(FleetDevice::ble("b0", Degrees(-50.0), 320.0, 11));
        fleet.push(FleetDevice::wifi("w1", Degrees(40.0), 220.0, 12));
        fleet.push(FleetDevice::ble("b1", Degrees(75.0), 280.0, 13));
        fleet
    }

    #[test]
    fn orientation_assignment_splits_sectors() {
        let fleet = quad_fleet();
        let array = PanelArray::uniform(fleet.design.clone(), 2);
        // Sector centers −45° and +45°: the two low-angle mounts go to
        // panel 0, the two high-angle mounts to panel 1.
        let assignment = array.assign(&fleet, &Assignment::ByOrientation);
        assert_eq!(assignment, vec![0, 0, 1, 1]);
        let round_robin = array.assign(&fleet, &Assignment::RoundRobin);
        assert_eq!(round_robin, vec![0, 1, 0, 1]);
    }

    #[test]
    fn axis_distance_wraps_the_half_circle() {
        assert_eq!(axis_distance_deg(Degrees(-90.0), Degrees(90.0)), 0.0);
        assert_eq!(axis_distance_deg(Degrees(0.0), Degrees(90.0)), 90.0);
        assert!((axis_distance_deg(Degrees(170.0), Degrees(-5.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn best_reference_assignment_is_balanced_and_in_range() {
        let fleet = Fleet::mixed_wifi_ble(9, 21);
        let array = PanelArray::uniform(fleet.design.clone(), 3);
        let assignment = array.assign(&fleet, &Assignment::BestReference);
        assert_eq!(assignment.len(), 9);
        for k in 0..3 {
            let load = assignment.iter().filter(|&&a| a == k).count();
            assert!(load <= 3, "panel {k} over capacity: {load}");
        }
    }

    #[test]
    fn best_reference_ties_fall_back_to_sectors_not_fleet_order() {
        // On a uniform array every panel measures bit-identically, so
        // the reference powers tie for every device; the tie-break must
        // recover the orientation sectors (regression: a strict > kept
        // the lowest index and block-filled panel 0 in fleet order).
        let fleet = quad_fleet();
        let array = PanelArray::uniform(fleet.design.clone(), 2);
        let best_ref = array.assign(&fleet, &Assignment::BestReference);
        let by_orientation = array.assign(&fleet, &Assignment::ByOrientation);
        assert_eq!(best_ref, by_orientation);
        assert_eq!(best_ref, vec![0, 0, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "cover every device")]
    fn explicit_assignment_must_cover_the_fleet() {
        let fleet = quad_fleet();
        let array = PanelArray::uniform(fleet.design.clone(), 2);
        let _ = array.assign(&fleet, &Assignment::Explicit(vec![0, 1]));
    }

    #[test]
    fn single_panel_reproduces_the_shared_bias_scheduler() {
        // K = 1 is the degenerate array: same assignment (everyone on
        // panel 0), same search, exactly the same allocation.
        let fleet = quad_fleet();
        let array = PanelArray::uniform(fleet.design.clone(), 1);
        let panel = PanelScheduler::max_min().run(&fleet, &array);
        let shared = Scheduler::max_min().run(&fleet);
        assert_eq!(panel.probes, shared.probes);
        assert_eq!(panel.per_panel[0].outcome.shared_bias, shared.shared_bias);
        for (a, b) in panel.per_device.iter().zip(&shared.per_device) {
            assert_eq!(a.power_dbm, b.power_dbm);
            assert_eq!(a.bias, b.bias);
        }
        assert_eq!(panel.min_power_dbm(), shared.min_power_dbm());
    }

    #[test]
    fn panels_lift_the_shared_bias_compromise() {
        // The acceptance workload: the 32-device mixed Wi-Fi/BLE fleet
        // split across 4 panels must *strictly* beat the single-panel
        // shared-bias worst link (the shared compromise pinches mutually
        // mismatched devices that separate panels serve at their own
        // optima). A panel min can never be *worse* in aggregate than
        // leaving conflicting devices pinched; the strict gain here is
        // the measured headline (≈ +2.8 dB on this workload).
        let fleet = Fleet::mixed_wifi_ble(32, 2021);
        let array = PanelArray::uniform(fleet.design.clone(), 4);
        let panel = PanelScheduler::max_min().run(&fleet, &array);
        let shared = Scheduler::max_min().run(&fleet);
        assert!(
            panel.min_power_dbm() > shared.min_power_dbm(),
            "panels {:.2} dBm vs shared {:.2} dBm",
            panel.min_power_dbm(),
            shared.min_power_dbm()
        );
        // Score is the fleet-wide min.
        assert_eq!(panel.score, panel.min_power_dbm());
        // Panels tuned concurrently: elapsed is the slowest panel, not
        // the sum.
        let slowest = panel
            .per_panel
            .iter()
            .map(|p| p.outcome.elapsed.0)
            .fold(0.0, f64::max);
        assert_eq!(panel.elapsed.0, slowest);
    }

    #[test]
    fn distributed_array_panels_measure_differently() {
        // Distributed panels hang at different points along the link, so
        // the same device sees genuinely different physics per panel —
        // the property the handoff margins live on (a uniform array ties
        // bit-for-bit instead).
        let fleet = quad_fleet();
        let array = PanelArray::distributed(fleet.design.clone(), 3);
        assert_eq!(array.len(), 3);
        let bias = [BiasState::new(6.0, 6.0)];
        let all_on_one = |k: usize| {
            let assignment = vec![k; fleet.len()];
            array.batched_panel_matrices(&fleet, &assignment, &bias)[k][0].clone()
        };
        let p0 = all_on_one(0);
        let p2 = all_on_one(2);
        assert!(p0.iter().zip(&p2).any(|(a, b)| (a - b).abs() > 1e-9));
    }

    /// The cascade cells and cell-memo hits a recorded panel schedule
    /// counted, with its outcome.
    fn counted_cells(
        scheduler: PanelScheduler,
        fleet: &Fleet,
        array: &PanelArray,
        caches: &[(&'static str, PlanCache)],
    ) -> (u64, u64, PanelOutcome) {
        use crate::telemetry::RingRecorder;
        use std::sync::Arc;

        let ring = Arc::new(RingRecorder::new(64));
        let outcome = scheduler
            .with_recorder(RecorderHandle::new(ring.clone()))
            .run_with_caches(fleet, array, caches);
        (
            ring.counter("fleet.cascade_cells"),
            ring.counter("fleet.factor_hits"),
            outcome,
        )
    }

    #[test]
    fn each_round_sends_every_plan_one_batch_for_all_panels() {
        // 16 devices on 4 panels, max-min. Every panel's first round
        // probes the same full-range 5×5 lattice, so each carrier's plan
        // takes it once, not once per panel; the second round's windows
        // differ per panel, and each plan takes their distinct cells in
        // one call. A per-panel loop would send 25 cells per (panel,
        // carrier) in round 1 alone.
        let fleet = Fleet::mixed_wifi_ble(16, 2021);
        let array = PanelArray::uniform(fleet.design.clone(), 4);
        let mut round_one = PanelScheduler::max_min();
        round_one.base.sweep.iterations = 1;
        let (cells, hits, outcome) = counted_cells(round_one, &fleet, &array, &array.plan_caches());
        let plans = 2; // Wi-Fi and BLE
        assert_eq!((cells, hits), (plans * 25, 0));
        let panel_plans: usize = outcome
            .per_panel
            .iter()
            .map(|p| {
                let carriers: std::collections::HashSet<u64> = p
                    .devices
                    .iter()
                    .map(|&d| fleet.devices()[d].scenario.frequency.0.to_bits())
                    .collect();
                carriers.len()
            })
            .sum();
        assert!(panel_plans as u64 > plans, "{panel_plans} panel plans");
        // The full schedule: 50 cells in round 1, then the plans' 90
        // distinct round-2 cells, for 200 probes. The array's own
        // private stores keep no cell memo and send all 140 to the
        // kernel. Round 2's windows are centred on round 1's winners
        // and share lattice points with round 1, so a fresh shared
        // store answers 22 of those 90 cells from its cell memo.
        let (cells, hits, private) = counted_cells(
            PanelScheduler::max_min(),
            &fleet,
            &array,
            &array.plan_caches(),
        );
        assert_eq!(private.probes, 4 * 50);
        assert_eq!((cells, hits), (140, 0));
        let shared = std::sync::Arc::new(SharedPlanCache::new(&fleet.design.stack));
        let (cells, hits, outcome) = counted_cells(
            PanelScheduler::max_min(),
            &fleet,
            &array,
            &[(fleet.design.name, shared.handle())],
        );
        assert_eq!(cells + hits, 140);
        assert_eq!((cells, hits), (118, 22));
        assert_eq!(outcome.score.to_bits(), private.score.to_bits());
    }

    #[test]
    fn a_warm_store_serves_a_repeat_schedule_from_the_cell_memo() {
        // The same 4-panel schedule twice over one shared store: the
        // second run finds all 140 of its cells in the memo, sends none
        // to the cascade kernel, and ends bitwise where the first did.
        let fleet = Fleet::mixed_wifi_ble(16, 2021);
        let array = PanelArray::uniform(fleet.design.clone(), 4);
        let shared = std::sync::Arc::new(SharedPlanCache::new(&fleet.design.stack));
        let run = || {
            let caches = [(fleet.design.name, shared.handle())];
            counted_cells(PanelScheduler::max_min(), &fleet, &array, &caches)
        };
        let (cold_cells, cold_hits, cold) = run();
        assert_eq!(cold_cells + cold_hits, 140);
        assert_eq!(shared.cells_evaluated(), cold_cells);
        let (cells, hits, warm) = run();
        assert_eq!((cells, hits), (0, 140));
        assert_eq!(shared.cells_evaluated(), cold_cells);
        assert_eq!(warm.assignment, cold.assignment);
        assert_eq!(warm.probes, cold.probes);
        assert_eq!(warm.score.to_bits(), cold.score.to_bits());
        for (a, b) in warm.per_device.iter().zip(&cold.per_device) {
            assert_eq!(a.bias, b.bias);
            assert_eq!(a.power_dbm.to_bits(), b.power_dbm.to_bits());
            assert_eq!(
                a.throughput_bits_hz.to_bits(),
                b.throughput_bits_hz.to_bits()
            );
        }
        for (a, b) in warm.per_panel.iter().zip(&cold.per_panel) {
            assert_eq!(a.outcome.history.len(), b.outcome.history.len());
            for ((bias_a, row_a), (bias_b, row_b)) in
                a.outcome.history.iter().zip(&b.outcome.history)
            {
                assert_eq!(bias_a, bias_b);
                let bits = |row: &[f64]| row.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(row_a), bits(row_b));
            }
        }
    }

    #[test]
    fn panel_mounting_fraction_changes_the_physics() {
        // The same device served by panels at different mounting points
        // must see different bounce-path interference.
        let fleet = quad_fleet();
        let near = PanelArray::new(vec![
            Panel::new("near", fleet.design.clone(), Degrees(0.0)).at_surface_fraction(0.2)
        ]);
        let far = PanelArray::new(vec![
            Panel::new("far", fleet.design.clone(), Degrees(0.0)).at_surface_fraction(0.8)
        ]);
        let assignment = vec![0; fleet.len()];
        let bias = [BiasState::new(6.0, 6.0)];
        let p_near = near.batched_panel_matrices(&fleet, &assignment, &bias);
        let p_far = far.batched_panel_matrices(&fleet, &assignment, &bias);
        assert!(p_near[0][0]
            .iter()
            .zip(&p_far[0][0])
            .any(|(a, b)| (a - b).abs() > 1e-9));
    }

    #[test]
    fn favor_policy_translates_to_the_favored_panel() {
        let fleet = quad_fleet();
        let array = PanelArray::uniform(fleet.design.clone(), 2);
        let mut scheduler = PanelScheduler::max_min();
        scheduler.base = Scheduler::favor(2); // "w1", served by panel 1
        let outcome = scheduler.run(&fleet, &array);
        // Panel 1 ran isolation for w1 (sub-index 0 of [2, 3]); panel 0
        // fell back to max-min.
        assert_eq!(
            outcome.per_panel[1].outcome.policy,
            Policy::Favor { favored: 0 }
        );
        assert_eq!(outcome.per_panel[0].outcome.policy, Policy::MaxMin);
        let margin = outcome.per_device[2].power_dbm - outcome.per_device[3].power_dbm;
        assert!(margin > 0.0, "favored margin = {margin:.1} dB");
    }

    #[test]
    fn empty_fleet_takes_the_shared_guard() {
        let empty = Fleet::new(metasurface::designs::fr4_optimized());
        let array = PanelArray::uniform(empty.design.clone(), 3);
        let outcome = PanelScheduler::max_min().run(&empty, &array);
        assert!(outcome.per_device.is_empty());
        assert!(outcome.assignment.is_empty());
        assert_eq!(outcome.probes, 0);
        assert_eq!(outcome.min_power_dbm(), f64::NEG_INFINITY);
        assert_eq!(outcome.per_panel.len(), 3);
        assert!(outcome
            .per_panel
            .iter()
            .all(|p| p.outcome.per_device.is_empty()));
    }

    #[test]
    fn served_empty_fleet_takes_the_shared_guard_beside_its_siblings() {
        let design = metasurface::designs::fr4_optimized();
        let jobs: Vec<(Fleet, PanelArray)> = vec![
            quad_fleet(),
            Fleet::new(design.clone()),
            Fleet::mixed_wifi_ble(6, 77),
        ]
        .into_iter()
        .map(|fleet| (fleet, PanelArray::uniform(design.clone(), 3)))
        .collect();
        let scheduler = PanelScheduler::max_min();
        let served = serve_panel_fleets(&FleetServer::new(2), &scheduler, &jobs);
        assert_eq!(served.len(), 3);
        let empty = &served[1];
        assert!(empty.per_device.is_empty());
        assert!(empty.assignment.is_empty());
        assert_eq!(empty.probes, 0);
        assert_eq!(empty.min_power_dbm(), f64::NEG_INFINITY);
        assert_eq!(empty.per_panel.len(), 3);
        assert!(empty
            .per_panel
            .iter()
            .all(|p| p.outcome.per_device.is_empty()));
        for idx in [0, 2] {
            let (fleet, array) = &jobs[idx];
            let direct = scheduler.run(fleet, array);
            assert!(served[idx].same_allocation(&direct), "job {idx}");
            assert_eq!(served[idx].probes, direct.probes, "job {idx}");
        }
    }

    #[test]
    fn zero_coupling_joint_is_bitwise_the_independent_run() {
        let fleet = Fleet::mixed_wifi_ble(8, 41);
        let array = PanelArray::distributed(fleet.design.clone(), 3);
        let independent = PanelScheduler::max_min().run(&fleet, &array);
        let joint = PanelScheduler::max_min()
            .with_joint(JointConfig {
                coupling: CouplingConfig::disabled(),
                ..JointConfig::default()
            })
            .run(&fleet, &array);
        assert!(joint.same_allocation(&independent));
        assert_eq!(joint.probes, independent.probes);
        let stats = joint.joint.expect("joint run reports stats");
        assert_eq!(stats.rounds, 0);
        assert!(stats.converged);
        assert_eq!(stats.coupled_probes, 0);
        assert_eq!(stats.cross_energy_fraction, 0.0);
        assert_eq!(stats.lift_db, 0.0);
    }

    #[test]
    fn coupled_evaluator_at_zero_coupling_matches_the_independent_physics() {
        // The physics-level guarantee behind the delegation: the
        // superposed powers with coupling off are bit-identical to the
        // independent per-panel evaluator's, for every panel's
        // sub-fleet at an arbitrary bias vector.
        let fleet = Fleet::mixed_wifi_ble(6, 2021);
        let array = PanelArray::distributed(fleet.design.clone(), 2);
        let assignment = array.assign(&fleet, &Assignment::ByOrientation);
        let biases = [BiasState::new(7.0, 22.0), BiasState::new(18.0, 3.0)];
        let mut coupled =
            CoupledEvaluator::new(&fleet, &array, &assignment, CouplingConfig::disabled());
        let coupled_powers = coupled.powers_dbm(&biases);
        let caches = array.plan_caches();
        for (k, (subfleet, members)) in array.subfleets(&fleet, &assignment).into_iter().enumerate()
        {
            if subfleet.is_empty() {
                continue;
            }
            let cache = PanelArray::cache_for(&caches, &array.panels()[k].design);
            let evaluator = FleetEvaluator::with_plan_cache(&subfleet, cache);
            let independent = evaluator.powers_dbm(biases[k]);
            for (i, &d) in members.iter().enumerate() {
                assert_eq!(
                    coupled_powers[d].to_bits(),
                    independent[i].to_bits(),
                    "device {d} on panel {k}: coupled {} vs independent {}",
                    coupled_powers[d],
                    independent[i]
                );
            }
        }
    }

    #[test]
    fn joint_search_never_loses_to_independent_biases_under_coupling() {
        // The honest comparison: both bias vectors measured under the
        // same coupled physics. The descent starts at the independent
        // optimum and the warm sweep keeps its center on ties, so the
        // joint biases can only gain (up to canonical-reassociation
        // float dust).
        let fleet = Fleet::mixed_wifi_ble(8, 2021);
        let array = PanelArray::distributed(fleet.design.clone(), 4);
        let joint = PanelScheduler::max_min()
            .with_joint(JointConfig::default())
            .run(&fleet, &array);
        let stats = joint.joint.expect("joint run reports stats");
        assert!(
            stats.lift_db >= -1e-9,
            "joint must not lose to the independent biases: lift = {} dB",
            stats.lift_db
        );
        assert!(stats.rounds >= 1);
        assert!(stats.coupled_probes > 0);
        assert!(
            stats.cross_energy_fraction > 0.0,
            "distributed panels must actually couple"
        );
        assert!(stats.cross_energy_fraction < 0.5);
        // The outcome's bookkeeping reflects the extra coupled work.
        let independent = PanelScheduler::max_min().run(&fleet, &array);
        assert!(joint.probes > independent.probes);
        assert!(joint.elapsed.0 > independent.elapsed.0);
        assert_eq!(joint.assignment, independent.assignment);
    }

    #[test]
    fn single_panel_joint_short_circuits() {
        let fleet = quad_fleet();
        let array = PanelArray::uniform(fleet.design.clone(), 1);
        let independent = PanelScheduler::max_min().run(&fleet, &array);
        let joint = PanelScheduler::max_min()
            .with_joint(JointConfig::default())
            .run(&fleet, &array);
        assert!(joint.same_allocation(&independent));
        assert_eq!(joint.joint.expect("stats").rounds, 0);
    }

    #[test]
    #[should_panic(expected = "Policy::MaxMin")]
    fn joint_mode_rejects_non_maxmin_policies() {
        let fleet = quad_fleet();
        let array = PanelArray::distributed(fleet.design.clone(), 2);
        let mut scheduler = PanelScheduler::max_min().with_joint(JointConfig::default());
        scheduler.base = Scheduler::favor(1);
        let _ = scheduler.run(&fleet, &array);
    }

    #[test]
    fn server_outcomes_match_serial_execution() {
        // The ≥8-concurrent-fleets acceptance gate: outcomes through the
        // bounded-queue worker pool must be identical to serial runs.
        let fleets: Vec<Fleet> = (0..8).map(|s| Fleet::mixed_wifi_ble(3, 100 + s)).collect();
        let scheduler = Scheduler::max_min();
        let serial: Vec<FleetOutcome> = fleets.iter().map(|f| scheduler.run(f)).collect();
        let server = FleetServer::new(4);
        let served = serve_fleets(&server, &scheduler, &fleets);
        assert_eq!(served.len(), 8);
        for (a, b) in served.iter().zip(&serial) {
            assert_eq!(a.shared_bias, b.shared_bias);
            assert_eq!(a.score, b.score);
            assert_eq!(a.probes, b.probes);
            for (x, y) in a.per_device.iter().zip(&b.per_device) {
                assert_eq!(x.power_dbm, y.power_dbm);
                assert_eq!(x.throughput_bits_hz, y.throughput_bits_hz);
            }
        }
    }

    #[test]
    fn served_panel_fleets_surface_joint_stats() {
        // Coupling telemetry must survive the server path: every job
        // served under a joint scheduler reports its descent rounds and
        // cross-term energy, bit-identical to the direct run.
        let jobs: Vec<(Fleet, PanelArray)> = (0..3)
            .map(|s| {
                let fleet = Fleet::mixed_wifi_ble(4, 300 + s);
                let array = PanelArray::distributed(fleet.design.clone(), 2);
                (fleet, array)
            })
            .collect();
        let scheduler = PanelScheduler::max_min().with_joint(JointConfig::default());
        let direct: Vec<PanelOutcome> = jobs.iter().map(|(f, a)| scheduler.run(f, a)).collect();
        let served = serve_panel_fleets(&FleetServer::new(2), &scheduler, &jobs);
        for (a, b) in served.iter().zip(&direct) {
            let (sa, sb) = (a.joint.expect("joint stats"), b.joint.expect("joint stats"));
            assert!(sa.rounds >= 1);
            assert!(sa.coupled_probes > 0);
            assert!(sa.cross_energy_fraction > 0.0 && sa.cross_energy_fraction < 1.0);
            assert_eq!(sa.rounds, sb.rounds);
            assert_eq!(sa.coupled_probes, sb.coupled_probes);
            assert_eq!(
                sa.cross_energy_fraction.to_bits(),
                sb.cross_energy_fraction.to_bits()
            );
            assert_eq!(sa.lift_db.to_bits(), sb.lift_db.to_bits());
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn served_panel_fleets_match_direct_runs() {
        // 96 devices on 2 panels: a time-division panel's 25-bias probe
        // matrix crosses `FAN_OUT_MIN_PROBES`. The direct runs fan it
        // out over four threads, the served jobs run it under their share
        // of the server's budget, and both must agree bit for bit.
        let jobs: Vec<(Fleet, PanelArray)> = (0..4)
            .map(|s| {
                let fleet = Fleet::mixed_wifi_ble(96, 200 + s);
                let array = PanelArray::uniform(fleet.design.clone(), 2);
                (fleet, array)
            })
            .collect();
        for scheduler in [PanelScheduler::max_min(), PanelScheduler::time_division()] {
            let direct: Vec<PanelOutcome> = rfmath::par::with_budget(4, || {
                jobs.iter().map(|(f, a)| scheduler.run(f, a)).collect()
            });
            let widest = direct
                .iter()
                .flat_map(|o| &o.per_panel)
                .map(|p| p.devices.len())
                .max()
                .unwrap_or(0);
            assert!(
                widest * 25 >= crate::fleet::FAN_OUT_MIN_PROBES,
                "widest panel {widest}"
            );
            let served = serve_panel_fleets(&FleetServer::new(3), &scheduler, &jobs);
            for (a, b) in served.iter().zip(&direct) {
                assert_eq!(a.assignment, b.assignment);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
                assert_eq!(a.panel_biases(), b.panel_biases());
                assert_eq!(a.per_device.len(), b.per_device.len());
                for (x, y) in a.per_device.iter().zip(&b.per_device) {
                    assert_eq!(x.power_dbm.to_bits(), y.power_dbm.to_bits());
                    assert_eq!(x.bias.vx.0.to_bits(), y.bias.vx.0.to_bits());
                    assert_eq!(x.bias.vy.0.to_bits(), y.bias.vy.0.to_bits());
                }
            }
        }
    }
}
