//! Fleet serving: many IoT devices sharing one programmable surface.
//!
//! The paper's §7 outlook — "multiple IoT devices in different
//! polarization orientations" behind a single surface — promoted to a
//! first-class subsystem. A [`Fleet`] holds heterogeneous devices
//! (Wi-Fi stations, BLE wearables, USRP endpoints; transmissive or
//! reflective geometry; arbitrary orientations and distances), and a
//! [`Scheduler`] allocates surface configurations across them under a
//! pluggable [`Policy`]:
//!
//! * [`Policy::MaxMin`] — one shared bias maximizing the *worst* link
//!   (fairness / broadcast);
//! * [`Policy::Favor`] — one shared bias maximizing one device's margin
//!   over the rest (polarization access control);
//! * [`Policy::TimeDivision`] — per-device optimal biases round-robined
//!   over the air, with per-device duty-cycled throughput via
//!   [`propagation::capacity`].
//!
//! The engine underneath is the shared-plan batch path: one compiled
//! [`StackEvaluator`] plan per distinct carrier is probed once per bias
//! for the whole fleet (`O(plans)` cascades per probe instead of one
//! per device), each device's bias-independent scatter paths are
//! precomputed once ([`PreparedLink`]), and bias rows fan out across
//! threads. [`Fleet::naive_powers_matrix`] keeps the per-device
//! reference loop alive as the equivalence and perf baseline.
//!
//! ```
//! use llama_core::fleet::{Fleet, FleetDevice, Scheduler};
//! use rfmath::units::Degrees;
//!
//! let mut fleet = Fleet::new(metasurface::designs::fr4_optimized());
//! fleet.push(FleetDevice::wifi("kitchen sensor", Degrees(10.0), 250.0, 1));
//! fleet.push(FleetDevice::ble("wrist wearable", Degrees(70.0), 300.0, 2));
//!
//! let outcome = Scheduler::max_min().run(&fleet);
//! assert_eq!(outcome.per_device.len(), 2);
//! // A shared bias serves both devices continuously (duty 1).
//! assert!(outcome.per_device.iter().all(|d| d.duty == 1.0));
//! assert!(outcome.per_device.iter().all(|d| d.power_dbm.is_finite()));
//! ```

use std::rc::Rc;

use control::controller::Objective;
use control::sweep::{coarse_to_fine_multi, warm_refine_multi, Probe, SweepConfig, WarmConfig};
use devices::profile::DeviceProfile;
use metasurface::designs::Design;
use metasurface::evaluator::{PlanCache, StackEvaluator};
use metasurface::response::{Metasurface, SurfaceResponse};
use metasurface::stack::{BiasState, SUPPLY_CEILING};
use propagation::capacity::{capacity_bits, duty_cycled_throughput};
use propagation::link::PreparedLink;
use propagation::rays::Deployment;
use rfmath::rng::SeedSplitter;
use rfmath::units::{Dbm, Degrees, Meters, Seconds, Volts};

use crate::scenario::Scenario;

/// One device served by the shared surface: a radio-level profile plus
/// the fully specified link scenario it lives in.
#[derive(Clone, Debug)]
pub struct FleetDevice {
    /// Display label ("kitchen sensor", "wearable #7", …).
    pub label: String,
    /// Radio-level identity (antenna, carrier, noise, sensitivity).
    pub profile: DeviceProfile,
    /// The device's link scenario (geometry, environment, orientation).
    /// Its `design` field is ignored — the fleet's shared design rules.
    pub scenario: Scenario,
}

impl FleetDevice {
    /// Builds a device from a profile and an explicit base scenario,
    /// mounting the profile's antenna at `orientation`.
    pub fn from_profile(
        label: impl Into<String>,
        profile: DeviceProfile,
        mut scenario: Scenario,
        orientation: Degrees,
    ) -> Self {
        scenario.rx =
            propagation::antenna::OrientedAntenna::new(profile.antenna.clone(), orientation);
        scenario.frequency = profile.carrier;
        scenario.tx_power = profile.tx_power;
        Self {
            label: label.into(),
            profile,
            scenario,
        }
    }

    /// A Figure 20-class Wi-Fi IoT station at `orientation`,
    /// `distance_cm` from its AP, with its own channel realization.
    pub fn wifi(
        label: impl Into<String>,
        orientation: Degrees,
        distance_cm: f64,
        seed: u64,
    ) -> Self {
        Self::from_profile(
            label,
            DeviceProfile::wifi_esp8266(),
            Scenario::wifi_iot_default()
                .with_distance_cm(distance_cm)
                .with_seed(seed),
            orientation,
        )
    }

    /// A Figure 2(b)-class BLE wearable.
    pub fn ble(
        label: impl Into<String>,
        orientation: Degrees,
        distance_cm: f64,
        seed: u64,
    ) -> Self {
        Self::from_profile(
            label,
            DeviceProfile::ble_wearable(),
            Scenario::ble_default()
                .with_distance_cm(distance_cm)
                .with_seed(seed),
            orientation,
        )
    }

    /// A §4-class controlled USRP endpoint (anechoic, transmissive).
    pub fn usrp(
        label: impl Into<String>,
        orientation: Degrees,
        distance_cm: f64,
        seed: u64,
    ) -> Self {
        Self::from_profile(
            label,
            DeviceProfile::usrp_directional(),
            Scenario::transmissive_default()
                .with_distance_cm(distance_cm)
                .with_seed(seed),
            orientation,
        )
    }

    /// Converts the device's geometry to the reflective deployment: the
    /// endpoints move to the same side of the surface, which sits half
    /// the previous endpoint separation away.
    pub fn reflective(mut self) -> Self {
        let tx_rx = self.scenario.deployment.tx_rx_distance();
        self.scenario.deployment = Deployment::reflective(tx_rx, Meters(tx_rx.0 / 2.0));
        self
    }

    /// Places the device at an explicit room deployment (position of
    /// AP, device and surface mount), overriding the preset's collinear
    /// layout. The scenario zoo builds rooms with this.
    pub fn placed(mut self, deployment: Deployment) -> Self {
        self.scenario.deployment = deployment;
        self
    }
}

/// A population of devices sharing one surface design.
#[derive(Clone, Debug)]
pub struct Fleet {
    /// The shared surface design every device is served through.
    pub design: Design,
    devices: Vec<FleetDevice>,
}

impl Fleet {
    /// An empty fleet behind a shared surface design.
    pub fn new(design: Design) -> Self {
        Self {
            design,
            devices: Vec::new(),
        }
    }

    /// Adds a device.
    pub fn push(&mut self, device: FleetDevice) {
        self.devices.push(device);
    }

    /// The devices, in service order.
    pub fn devices(&self) -> &[FleetDevice] {
        &self.devices
    }

    /// Mutable access to one device — the mobility simulator's in-place
    /// update path (kept crate-private so external callers go through
    /// the [`crate::sim::DynamicFleet`] API, which also tracks which
    /// links the change dirtied).
    pub(crate) fn device_mut(&mut self, idx: usize) -> &mut FleetDevice {
        &mut self.devices[idx]
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when no devices are enrolled.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// A deterministic mixed Wi-Fi/BLE population of `n` devices —
    /// alternating radios, orientations spread over the half circle,
    /// distances staggered between 1.5 m and 5 m, per-device channel
    /// realizations derived from `seed`. The reference workload of the
    /// fleet benches and the 32-device acceptance gate.
    pub fn mixed_wifi_ble(n: usize, seed: u64) -> Self {
        let split = SeedSplitter::new(seed);
        let mut fleet = Self::new(metasurface::designs::fr4_optimized());
        for i in 0..n {
            let orientation = Degrees(-90.0 + 180.0 * ((i * 37) % 180) as f64 / 180.0);
            let distance_cm = 150.0 + ((i * 61) % 350) as f64;
            let dev_seed = split.derive("fleet-device", i as u64);
            let device = if i % 2 == 0 {
                FleetDevice::wifi(format!("wifi-{i}"), orientation, distance_cm, dev_seed)
            } else {
                FleetDevice::ble(format!("ble-{i}"), orientation, distance_cm, dev_seed)
            };
            fleet.push(device);
        }
        fleet
    }

    /// The naive per-device reference loop: every device deploys its own
    /// [`Metasurface`] and rebuilds its link per probe — exactly what
    /// `multilink` did before the shared-plan engine. Kept as the
    /// equivalence contract (batched == naive to 1e-12) and the perf
    /// baseline the CI smoke measures the engine against.
    pub fn naive_powers_matrix(&self, biases: &[BiasState]) -> Vec<Vec<f64>> {
        let mut rows = vec![Vec::with_capacity(self.devices.len()); biases.len()];
        for device in &self.devices {
            let mut surface = Metasurface::new(self.design.clone());
            for (row, &bias) in rows.iter_mut().zip(biases) {
                surface.set_bias(bias);
                row.push(device.scenario.link().received_dbm(Some(&surface)).0);
            }
        }
        rows
    }
}

/// The shared-plan fleet evaluation engine: compiled once per fleet,
/// probed once per bias for all devices.
pub struct FleetEvaluator {
    links: Vec<PreparedLink>,
    plans: Vec<Rc<StackEvaluator>>,
    /// Device index → index into `plans` (devices sharing a carrier
    /// share a compiled plan).
    plan_of: Vec<usize>,
    v_max: Volts,
    /// Hardware bias defect ([`crate::faults::BiasFault`]) masked into
    /// every probe: the search still commands any bias, but the physics
    /// answers as the broken panel would. `None` = healthy.
    fault: Option<crate::faults::BiasFault>,
    /// Bench-only A/B switch: force the per-cell reference batch path
    /// ([`StackEvaluator::eval_batch_reference`]) instead of the
    /// structure-of-arrays fast path. Never set in production.
    reference_batch: bool,
}

impl FleetEvaluator {
    /// Compiles the fleet: one evaluation plan per distinct carrier, one
    /// prepared link (scatter paths precomputed) per device.
    pub fn new(fleet: &Fleet) -> Self {
        Self::with_plan_cache(fleet, &PlanCache::new(&fleet.design.stack))
    }

    /// [`FleetEvaluator::new`] drawing compiled plans from a shared
    /// [`PlanCache`] — the panel-array path: K panels cut from one
    /// design can share one cache, so a carrier served on every panel
    /// compiles once instead of K times. The cache **must** be built
    /// from the same stack as `fleet.design` (the panel scheduler keys
    /// caches by design name).
    pub fn with_plan_cache(fleet: &Fleet, cache: &PlanCache) -> Self {
        assert!(!fleet.is_empty(), "cannot evaluate an empty fleet");
        let mut plans: Vec<Rc<StackEvaluator>> = Vec::new();
        let mut plan_of = Vec::with_capacity(fleet.len());
        let mut links = Vec::with_capacity(fleet.len());
        for device in fleet.devices() {
            let f = device.scenario.frequency;
            let idx = plans
                .iter()
                .position(|p| p.frequency().0.to_bits() == f.0.to_bits())
                .unwrap_or_else(|| {
                    plans.push(cache.plan(f));
                    plans.len() - 1
                });
            plan_of.push(idx);
            links.push(PreparedLink::new(device.scenario.link()));
        }
        Self {
            links,
            plans,
            plan_of,
            v_max: SUPPLY_CEILING,
            fault: None,
            reference_batch: false,
        }
    }

    /// Bench-only A/B switch: `true` forces every probe batch through
    /// the per-cell reference path
    /// ([`StackEvaluator::eval_batch_reference`]) so perf gates can
    /// measure the structure-of-arrays win in-repo. Results agree to
    /// well below `1e-12` either way.
    pub fn set_reference_batch(&mut self, on: bool) {
        self.reference_batch = on;
    }

    /// Installs (or clears) a stuck/clamped unit-cell column defect.
    /// Every subsequent probe evaluates the bias the broken hardware
    /// would actually realize, so Algorithm 1 re-optimizes around the
    /// defect instead of trusting voltages the panel cannot reach. A
    /// healthy fault is normalized to `None` (the probe path is then
    /// bitwise identical to an unfaulted evaluator).
    pub fn set_bias_fault(&mut self, fault: Option<crate::faults::BiasFault>) {
        self.fault = fault.filter(|f| !f.is_healthy());
    }

    /// The bias the panel hardware realizes for a commanded `bias`.
    fn faulted(&self, bias: BiasState) -> BiasState {
        match &self.fault {
            Some(f) => f.apply(bias),
            None => bias,
        }
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.links.len()
    }

    /// Re-prepares a single device's probe handle after a mobility step,
    /// leaving every other device's cached scatter and every compiled
    /// plan untouched — the incremental path that lets a tick that moved
    /// 2 of 32 devices re-prepare only those 2 links. Returns `true`
    /// when the update was a cheap rebind (rotation or power change —
    /// the cached bias-independent paths were reused) and `false` when
    /// the device genuinely moved and its link needed a full
    /// re-preparation ([`PreparedLink::rebind`]).
    ///
    /// # Panics
    /// Panics when `idx` is out of range or when the update changes the
    /// device's carrier — plans are compiled per carrier at
    /// construction, and no mobility model retunes a radio.
    pub fn update_device(&mut self, idx: usize, device: &FleetDevice) -> bool {
        assert!(idx < self.links.len(), "device index out of range");
        let f = device.scenario.frequency;
        assert!(
            self.plans[self.plan_of[idx]].frequency().0.to_bits() == f.0.to_bits(),
            "mobility must not change a device's carrier \
             (plans are compiled per carrier at construction)"
        );
        let link = device.scenario.link();
        let cheap = self.links[idx].static_paths_reusable(&link);
        self.links[idx].rebind_in_place(link);
        cheap
    }

    /// Number of compiled per-frequency plans (≤ device count; the
    /// amortization the shared-plan API buys).
    pub fn plan_count(&self) -> usize {
        self.plans.len()
    }

    /// Every device's received power under one shared bias state
    /// (clamped to the supply ceiling, like `Metasurface::set_bias`).
    pub fn powers_dbm(&self, bias: BiasState) -> Vec<f64> {
        let bias = self.faulted(bias.clamped(self.v_max));
        let responses: Vec<SurfaceResponse> = self
            .plans
            .iter()
            .map(|p| SurfaceResponse::new(p.frequency(), p.response(bias)))
            .collect();
        self.links
            .iter()
            .zip(&self.plan_of)
            .map(|(link, &k)| probe_dbm(link, &responses[k], self.reference_batch))
            .collect()
    }

    /// The full probe matrix: `result[b][d]` is device `d`'s power under
    /// `biases[b]`. Each plan's cascades are evaluated in one batch
    /// (per-axis solves deduplicated across the whole probe list), then
    /// per-bias device projections fan out across threads.
    pub fn powers_matrix(&self, biases: &[BiasState]) -> Vec<Vec<f64>> {
        let clamped: Vec<BiasState> = biases
            .iter()
            .map(|b| self.faulted(b.clamped(self.v_max)))
            .collect();
        // One batched cascade pass per distinct carrier.
        let responses: Vec<Vec<SurfaceResponse>> = self
            .plans
            .iter()
            .map(|p| {
                let batch = if self.reference_batch {
                    p.eval_batch_reference(&clamped)
                } else {
                    p.eval_batch(&clamped)
                };
                batch
                    .into_iter()
                    .map(|r| SurfaceResponse::new(p.frequency(), r))
                    .collect()
            })
            .collect();

        // Capture only Sync pieces (the plans hold RefCell memos and
        // must stay on this thread; the responses are already computed).
        let links = &self.links;
        let plan_of = &self.plan_of;
        let responses = &responses;

        let n = clamped.len();
        let threads = if n * self.links.len() < 64 {
            1
        } else {
            rfmath::par::available_threads()
        };
        let reference = self.reference_batch;
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); n];
        rfmath::par::par_fill(&mut out, threads, move |b: usize| -> Vec<f64> {
            links
                .iter()
                .zip(plan_of)
                .map(|(link, &k)| probe_dbm(link, &responses[k][b], reference))
                .collect()
        });
        out
    }

    /// Per-device baseline powers with no surface deployed.
    pub fn baselines_dbm(&self) -> Vec<f64> {
        self.links
            .iter()
            .map(|l| {
                let mut link = l.link().clone();
                link.deployment = link.deployment.without_surface();
                link.received_dbm(None).0
            })
            .collect()
    }
}

/// One device's power under one response, dBm: the cached probe, or on
/// the bench-only reference arm the path-by-path projection it replaced
/// (bit-identical either way).
fn probe_dbm(link: &PreparedLink, response: &SurfaceResponse, reference: bool) -> f64 {
    if reference {
        link.received_dbm_by_paths(Some(response)).0
    } else {
        link.received_dbm_with(Some(response)).0
    }
}

/// How the scheduler allocates the surface across the fleet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Policy {
    /// One shared bias maximizing the worst device's power.
    MaxMin,
    /// One shared bias maximizing `favored`'s margin over the best
    /// other device (polarization access control).
    Favor {
        /// Index of the favored device in fleet order.
        favored: usize,
    },
    /// Round-robin of per-device optimal biases; every device gets its
    /// own peak power for a fraction of the airtime.
    TimeDivision,
}

/// What one device receives from a scheduling decision.
#[derive(Clone, Debug)]
pub struct DeviceService {
    /// Device label, copied from the fleet.
    pub label: String,
    /// The bias state serving this device (shared under `MaxMin` /
    /// `Favor`, per-device under `TimeDivision`).
    pub bias: BiasState,
    /// Received power while being served, dBm.
    pub power_dbm: f64,
    /// Fraction of airtime the device is served (1.0 = continuous).
    pub duty: f64,
    /// Duty-cycled Shannon throughput, bit/s/Hz.
    pub throughput_bits_hz: f64,
    /// Whether the served power clears the device's sensitivity floor.
    pub decodable: bool,
}

/// Outcome of one scheduling run.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// The policy that produced this allocation.
    pub policy: Policy,
    /// Per-device service, in fleet order.
    pub per_device: Vec<DeviceService>,
    /// The shared bias (`MaxMin` / `Favor`); `None` for `TimeDivision`.
    pub shared_bias: Option<BiasState>,
    /// The policy's scalar objective at the chosen allocation (worst
    /// power for `MaxMin`, isolation margin for `Favor`, aggregate
    /// throughput for `TimeDivision`).
    pub score: f64,
    /// Total bias states probed during optimization.
    pub probes: usize,
    /// Optimization wall-clock at the PSU switching budget.
    pub elapsed: Seconds,
    /// Every probed shared bias and the per-device powers it produced.
    pub history: Vec<(BiasState, Vec<f64>)>,
}

impl FleetOutcome {
    /// The well-formed outcome of scheduling nothing: no services, no
    /// probes, a `-∞` score. Both [`Scheduler::run`] and the panel
    /// scheduler return this for an empty fleet instead of panicking
    /// inside the evaluator (or reporting a `+∞` "worst power" from an
    /// unguarded empty reduction).
    pub fn empty(policy: Policy) -> Self {
        Self {
            policy,
            per_device: Vec::new(),
            shared_bias: None,
            score: f64::NEG_INFINITY,
            probes: 0,
            elapsed: Seconds(0.0),
            history: Vec::new(),
        }
    }

    /// The worst served power across the fleet, dBm. An empty outcome
    /// reports `-∞` (nothing is served), not the `+∞` identity of the
    /// min-fold — a `+∞` "worst power" would sail through every
    /// threshold check.
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
}

/// Allocates surface configurations across a [`Fleet`] under a
/// [`Policy`], searching the bias plane with the same Algorithm 1 core
/// that drives the single-link system (which is the N = 1 case).
#[derive(Clone, Debug)]
pub struct Scheduler {
    /// Bias-plane search strategy.
    pub sweep: SweepConfig,
    /// Allocation policy.
    pub policy: Policy,
    /// `TimeDivision` slot length; each frame serves every device for
    /// one slot, losing one PSU switch per slot boundary.
    pub slot: Seconds,
}

impl Scheduler {
    /// A max-min fairness scheduler with the paper's sweep defaults.
    pub fn max_min() -> Self {
        Self {
            sweep: SweepConfig::paper_default(),
            policy: Policy::MaxMin,
            slot: Seconds(0.2),
        }
    }

    /// An access-control scheduler favoring device `favored`.
    pub fn favor(favored: usize) -> Self {
        Self {
            policy: Policy::Favor { favored },
            ..Self::max_min()
        }
    }

    /// A time-division scheduler round-robining per-device optima.
    pub fn time_division() -> Self {
        Self {
            policy: Policy::TimeDivision,
            ..Self::max_min()
        }
    }

    /// Runs the policy against the fleet and reports the allocation.
    /// An empty fleet yields [`FleetOutcome::empty`] — there is nothing
    /// to optimize, and the evaluator (rightly) refuses to compile
    /// nothing. The panel scheduler shares this guard for panels with no
    /// assigned devices.
    pub fn run(&self, fleet: &Fleet) -> FleetOutcome {
        if fleet.is_empty() {
            return FleetOutcome::empty(self.policy);
        }
        self.run_with_evaluator(fleet, &FleetEvaluator::new(fleet))
    }

    /// [`Scheduler::run`] against an externally compiled evaluator — the
    /// panel-array path, where K panel schedules draw their plans from a
    /// shared [`PlanCache`] instead of compiling per panel. The
    /// evaluator must have been compiled from this exact fleet.
    pub fn run_with_evaluator(&self, fleet: &Fleet, evaluator: &FleetEvaluator) -> FleetOutcome {
        if fleet.is_empty() {
            return FleetOutcome::empty(self.policy);
        }
        assert_eq!(
            evaluator.device_count(),
            fleet.len(),
            "evaluator compiled for a different fleet"
        );
        if let Policy::Favor { favored } = self.policy {
            assert!(favored < fleet.len(), "favored index out of range");
            // Isolation is a margin over the *other* devices; with no
            // other device every probe would score -inf and the
            // "allocation" would be meaningless.
            assert!(
                fleet.len() >= 2,
                "Favor needs at least two devices to isolate between"
            );
        }
        match self.policy {
            Policy::MaxMin => self.run_shared(fleet, evaluator, Objective::WorstLink),
            Policy::Favor { favored } => {
                self.run_shared(fleet, evaluator, Objective::Isolation { favored })
            }
            Policy::TimeDivision => self.run_time_division(fleet, evaluator),
        }
    }

    /// Warm-start re-optimization for the shared-bias policies: re-checks
    /// `prev`'s shared bias against the fleet's *current* state, refines
    /// inside a `warm`-sized window around it, and widens to the full
    /// cold search only when the warm winner scores more than
    /// `warm.regression_db` below the previous outcome — the sign that
    /// the optimum genuinely walked out of the window rather than
    /// drifted within it. All probes spent (warm, plus cold when
    /// widened) stay on the airtime bill, which is what makes the
    /// simulator's per-tick throughput honest about reconfiguration.
    ///
    /// `TimeDivision` schedules (and previous outcomes without a shared
    /// bias, e.g. [`FleetOutcome::empty`]) have nothing to warm from and
    /// fall back to [`Scheduler::run_with_evaluator`].
    pub fn run_warm(
        &self,
        fleet: &Fleet,
        evaluator: &FleetEvaluator,
        prev: &FleetOutcome,
        warm: &WarmConfig,
    ) -> FleetOutcome {
        if fleet.is_empty() {
            return FleetOutcome::empty(self.policy);
        }
        let objective = match self.policy {
            Policy::MaxMin => Objective::WorstLink,
            Policy::Favor { favored } => {
                assert!(favored < fleet.len(), "favored index out of range");
                assert!(
                    fleet.len() >= 2,
                    "Favor needs at least two devices to isolate between"
                );
                Objective::Isolation { favored }
            }
            Policy::TimeDivision => return self.run_with_evaluator(fleet, evaluator),
        };
        assert_eq!(
            evaluator.device_count(),
            fleet.len(),
            "evaluator compiled for a different fleet"
        );
        let Some(prev_bias) = prev.shared_bias else {
            return self.run_with_evaluator(fleet, evaluator);
        };
        let mut outcome = warm_refine_multi(
            &self.sweep,
            warm,
            Probe {
                vx: prev_bias.vx,
                vy: prev_bias.vy,
            },
            |p| evaluator.powers_dbm(BiasState { vx: p.vx, vy: p.vy }),
            |powers| objective.score(powers).unwrap_or(f64::NEG_INFINITY),
        );
        if outcome.best_score < prev.score - warm.regression_db {
            // Widen: full cold search, merged with the warm probes (they
            // were spent on the air) and keeping the better winner — the
            // cold grid need not revisit the warm window.
            let cold = coarse_to_fine_multi(
                &self.sweep,
                |p| evaluator.powers_dbm(BiasState { vx: p.vx, vy: p.vy }),
                |powers| objective.score(powers).unwrap_or(f64::NEG_INFINITY),
            );
            if cold.best_score >= outcome.best_score {
                outcome.best = cold.best;
                outcome.best_score = cold.best_score;
                outcome.best_metrics = cold.best_metrics;
            }
            outcome.probes += cold.probes;
            outcome.duration = Seconds(outcome.duration.0 + cold.duration.0);
            outcome.history.extend(cold.history);
        }
        self.shared_outcome(fleet, evaluator, outcome)
    }

    /// Shared-bias policies: one vector-objective Algorithm 1 run, every
    /// probe evaluated for the whole fleet through the shared plans.
    fn run_shared(
        &self,
        fleet: &Fleet,
        evaluator: &FleetEvaluator,
        objective: Objective,
    ) -> FleetOutcome {
        let outcome = coarse_to_fine_multi(
            &self.sweep,
            |p| evaluator.powers_dbm(BiasState { vx: p.vx, vy: p.vy }),
            |powers| objective.score(powers).unwrap_or(f64::NEG_INFINITY),
        );
        self.shared_outcome(fleet, evaluator, outcome)
    }

    /// Assembles a [`FleetOutcome`] from a completed shared-bias sweep —
    /// the common tail of the cold ([`Scheduler::run_shared`]) and warm
    /// ([`Scheduler::run_warm`]) paths.
    fn shared_outcome(
        &self,
        fleet: &Fleet,
        evaluator: &FleetEvaluator,
        outcome: control::sweep::MultiSweepOutcome,
    ) -> FleetOutcome {
        let bias = BiasState {
            vx: outcome.best.vx,
            vy: outcome.best.vy,
        };
        // If every probe scored -inf the sweep never captured a metric
        // vector (the objective asserts above make this unreachable for
        // the built-in policies, but keep the allocation well-formed for
        // custom arity mishaps): measure the winner directly.
        let best_metrics = if outcome.best_metrics.len() == fleet.len() {
            outcome.best_metrics
        } else {
            evaluator.powers_dbm(bias)
        };
        let per_device = fleet
            .devices()
            .iter()
            .zip(&best_metrics)
            .map(|(device, &power)| DeviceService {
                label: device.label.clone(),
                bias,
                power_dbm: power,
                duty: 1.0,
                throughput_bits_hz: capacity_bits(Dbm(power), &device.profile.noise),
                decodable: device.profile.is_decodable(power),
            })
            .collect();
        FleetOutcome {
            policy: self.policy,
            per_device,
            shared_bias: Some(bias),
            score: outcome.best_score,
            probes: outcome.probes,
            elapsed: outcome.duration,
            history: outcome
                .history
                .into_iter()
                .map(|(p, m)| (BiasState { vx: p.vx, vy: p.vy }, m))
                .collect(),
        }
    }

    /// Time division: a coarse full-range grid probes every device at
    /// once, then each device's refinement window is probed in one
    /// deduplicated shared batch; every device keeps the best bias *it*
    /// saw anywhere in the probe history.
    fn run_time_division(&self, fleet: &Fleet, evaluator: &FleetEvaluator) -> FleetOutcome {
        let t = self.sweep.steps_per_axis.max(2);
        let n_dev = fleet.len();
        let grid = |lo: f64, hi: f64, i: usize| lo + (hi - lo) * i as f64 / (t - 1) as f64;

        // Round 1: coarse grid over the full supply range.
        let mut biases: Vec<BiasState> = Vec::with_capacity(t * t);
        for ix in 0..t {
            for iy in 0..t {
                biases.push(BiasState::new(
                    grid(self.sweep.v_min.0, self.sweep.v_max.0, ix),
                    grid(self.sweep.v_min.0, self.sweep.v_max.0, iy),
                ));
            }
        }
        let mut history: Vec<(BiasState, Vec<f64>)> = biases
            .iter()
            .copied()
            .zip(evaluator.powers_matrix(&biases))
            .collect();

        // Per-device winners of round 1 seed the refinement windows.
        let winner_of = |history: &[(BiasState, Vec<f64>)], d: usize| {
            history
                .iter()
                .max_by(|a, b| a.1[d].total_cmp(&b.1[d]))
                .map(|(b, m)| (*b, m[d]))
                .expect("non-empty history")
        };

        // The refinement window narrows geometrically round over round,
        // matching the Algorithm 1 core: each round probes ±step around
        // the winner at a 2·step/(t−1) spacing, which becomes the next
        // round's step.
        let mut step = (self.sweep.v_max.0 - self.sweep.v_min.0) / (t - 1) as f64;
        for _ in 1..self.sweep.iterations {
            let mut refined: Vec<BiasState> = Vec::new();
            let mut seen: Vec<(u64, u64)> = history
                .iter()
                .map(|(b, _)| (b.vx.0.to_bits(), b.vy.0.to_bits()))
                .collect();
            for d in 0..n_dev {
                let (best, _) = winner_of(&history, d);
                let lo_x = (best.vx.0 - step).max(self.sweep.v_min.0);
                let hi_x = (best.vx.0 + step).min(self.sweep.v_max.0);
                let lo_y = (best.vy.0 - step).max(self.sweep.v_min.0);
                let hi_y = (best.vy.0 + step).min(self.sweep.v_max.0);
                for ix in 0..t {
                    for iy in 0..t {
                        let b = BiasState::new(grid(lo_x, hi_x, ix), grid(lo_y, hi_y, iy));
                        let key = (b.vx.0.to_bits(), b.vy.0.to_bits());
                        if !seen.contains(&key) {
                            seen.push(key);
                            refined.push(b);
                        }
                    }
                }
            }
            if refined.is_empty() {
                break;
            }
            history.extend(
                refined
                    .iter()
                    .copied()
                    .zip(evaluator.powers_matrix(&refined)),
            );
            step = 2.0 * step / (t - 1) as f64;
        }

        // Frame model: every device gets one slot per frame; each slot
        // boundary burns one PSU switch of the slot's airtime.
        let duty = if n_dev == 0 {
            0.0
        } else {
            ((self.slot.0 - self.sweep.switch_period.0).max(0.0) / (self.slot.0 * n_dev as f64))
                .clamp(0.0, 1.0)
        };
        let per_device: Vec<DeviceService> = fleet
            .devices()
            .iter()
            .enumerate()
            .map(|(d, device)| {
                let (bias, power) = winner_of(&history, d);
                DeviceService {
                    label: device.label.clone(),
                    bias,
                    power_dbm: power,
                    duty,
                    throughput_bits_hz: duty_cycled_throughput(
                        Dbm(power),
                        &device.profile.noise,
                        duty,
                    ),
                    decodable: device.profile.is_decodable(power),
                }
            })
            .collect();
        let probes = history.len();
        let score = per_device.iter().map(|d| d.throughput_bits_hz).sum();
        FleetOutcome {
            policy: self.policy,
            per_device,
            shared_bias: None,
            score,
            probes,
            elapsed: Seconds(self.sweep.switch_period.0 * probes as f64),
            history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fleet() -> Fleet {
        let mut fleet = Fleet::new(metasurface::designs::fr4_optimized());
        fleet.push(FleetDevice::wifi("w0", Degrees(0.0), 250.0, 10));
        fleet.push(FleetDevice::ble("b0", Degrees(50.0), 320.0, 11));
        fleet.push(FleetDevice::usrp("u0", Degrees(100.0), 36.0, 12));
        fleet
    }

    #[test]
    fn shared_plans_are_deduplicated_by_carrier() {
        let fleet = Fleet::mixed_wifi_ble(8, 5);
        let evaluator = FleetEvaluator::new(&fleet);
        assert_eq!(evaluator.device_count(), 8);
        // 8 devices, 2 distinct carriers (Wi-Fi + BLE): 2 plans.
        assert_eq!(evaluator.plan_count(), 2);
    }

    #[test]
    fn batched_matrix_matches_naive_loop() {
        let fleet = small_fleet();
        let evaluator = FleetEvaluator::new(&fleet);
        let biases: Vec<BiasState> = [(0.0, 0.0), (6.0, 18.0), (30.0, 30.0), (12.0, 3.0)]
            .iter()
            .map(|&(x, y)| BiasState::new(x, y))
            .collect();
        let fast = evaluator.powers_matrix(&biases);
        let naive = fleet.naive_powers_matrix(&biases);
        for (row_fast, row_naive) in fast.iter().zip(&naive) {
            for (a, b) in row_fast.iter().zip(row_naive) {
                assert!((a - b).abs() < 1e-12, "batched {a} vs naive {b}");
            }
        }
        // Single-bias probe agrees with the matrix row.
        let single = evaluator.powers_dbm(biases[1]);
        for (a, b) in single.iter().zip(&fast[1]) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn max_min_serves_everyone_at_one_bias() {
        let outcome = Scheduler::max_min().run(&small_fleet());
        assert_eq!(outcome.per_device.len(), 3);
        let bias = outcome.shared_bias.expect("shared policy");
        assert!(outcome.per_device.iter().all(|d| d.bias == bias));
        assert!(outcome.per_device.iter().all(|d| d.duty == 1.0));
        // The score is the worst link's power.
        assert!((outcome.score - outcome.min_power_dbm()).abs() < 1e-12);
        // And it is the best worst-link over everything probed.
        let hist_best = outcome
            .history
            .iter()
            .map(|(_, m)| m.iter().copied().fold(f64::INFINITY, f64::min))
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(outcome.score, hist_best);
    }

    #[test]
    fn favor_buys_isolation_for_the_favored_device() {
        let mut fleet = Fleet::new(metasurface::designs::fr4_optimized());
        fleet.push(FleetDevice::usrp("ours", Degrees(125.0), 36.0, 72));
        fleet.push(FleetDevice::usrp("neighbour", Degrees(35.0), 36.0, 72));
        let outcome = Scheduler::favor(0).run(&fleet);
        let margin = outcome.per_device[0].power_dbm - outcome.per_device[1].power_dbm;
        assert!(
            margin > 10.0,
            "favored margin = {margin:.1} dB (score {:.1})",
            outcome.score
        );
        assert!((outcome.score - margin).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "favored index")]
    fn favor_validates_index() {
        let _ = Scheduler::favor(9).run(&small_fleet());
    }

    #[test]
    #[should_panic(expected = "at least two devices")]
    fn favor_requires_a_device_to_isolate_against() {
        // Isolation on a singleton fleet would score every probe -inf
        // and return a meaningless empty allocation; fail loudly.
        let mut fleet = Fleet::new(metasurface::designs::fr4_optimized());
        fleet.push(FleetDevice::usrp("only", Degrees(0.0), 36.0, 1));
        let _ = Scheduler::favor(0).run(&fleet);
    }

    #[test]
    fn time_division_beats_shared_bias_per_device() {
        // Per-device optima must each be at least as good as any single
        // shared compromise bias (they are per-device maxima over a
        // superset of the shared history... same grid family), and the
        // duty cycle must split the airtime.
        let fleet = small_fleet();
        let tdm = Scheduler::time_division().run(&fleet);
        let shared = Scheduler::max_min().run(&fleet);
        assert!(tdm.shared_bias.is_none());
        for (t, s) in tdm.per_device.iter().zip(&shared.per_device) {
            assert!(
                t.power_dbm >= s.power_dbm - 1e-9,
                "{}: TDM {:.1} dBm vs shared {:.1} dBm",
                t.label,
                t.power_dbm,
                s.power_dbm
            );
        }
        let duty: f64 = tdm.per_device.iter().map(|d| d.duty).sum();
        assert!(duty <= 1.0 + 1e-12, "duties must fit one frame: {duty}");
        let expected_duty = (0.2 - 0.02) / (0.2 * 3.0);
        assert!((tdm.per_device[0].duty - expected_duty).abs() < 1e-12);
        // Throughput is the duty-cycled capacity.
        for d in &tdm.per_device {
            assert!(d.throughput_bits_hz > 0.0);
        }
        assert!((tdm.score - tdm.total_throughput_bits_hz()).abs() < 1e-12);
    }

    #[test]
    fn time_division_extra_iterations_refine_not_rescan() {
        // A third round must add probes (a finer window around each
        // winner, not a rescan of round 2's grid) and can only improve
        // every device's best power.
        let fleet = small_fleet();
        let mut deep_sched = Scheduler::time_division();
        deep_sched.sweep.iterations = 3;
        let deep = deep_sched.run(&fleet);
        let shallow = Scheduler::time_division().run(&fleet);
        assert!(
            deep.probes > shallow.probes,
            "round 3 added no probes: {} vs {}",
            deep.probes,
            shallow.probes
        );
        for (a, b) in deep.per_device.iter().zip(&shallow.per_device) {
            assert!(a.power_dbm >= b.power_dbm - 1e-12, "{} regressed", a.label);
        }
    }

    #[test]
    fn warm_start_from_the_cold_optimum_never_regresses() {
        // Warm-starting from the cold outcome on an unchanged fleet
        // re-checks that bias first, so the warm score can only match or
        // beat it — at a fifth of the probe bill.
        let fleet = small_fleet();
        let evaluator = FleetEvaluator::new(&fleet);
        let scheduler = Scheduler::max_min();
        let cold = scheduler.run_with_evaluator(&fleet, &evaluator);
        let warm_cfg = WarmConfig::paper_default();
        let warm = scheduler.run_warm(&fleet, &evaluator, &cold, &warm_cfg);
        assert!(
            warm.score >= cold.score,
            "warm {:.2} vs cold {:.2}",
            warm.score,
            cold.score
        );
        assert_eq!(warm.probes, warm_cfg.probe_budget());
        assert!(warm.probes < cold.probes, "warm must be cheaper");
        assert!(warm.shared_bias.is_some());
        // The history starts at the carried-over bias.
        assert_eq!(warm.history[0].0, cold.shared_bias.unwrap());
    }

    #[test]
    fn warm_start_widens_to_cold_on_regression() {
        // A previous outcome claiming a score no warm window can reach
        // forces the widening path: the full cold grid runs on top of
        // the warm probes, and the result matches the cold winner.
        let fleet = small_fleet();
        let evaluator = FleetEvaluator::new(&fleet);
        let scheduler = Scheduler::max_min();
        let cold = scheduler.run_with_evaluator(&fleet, &evaluator);
        let warm_cfg = WarmConfig::paper_default();
        let mut stale = cold.clone();
        stale.shared_bias = Some(BiasState::new(0.0, 0.0));
        stale.score = 1e3; // unreachable: every warm probe "regresses"
        let widened = scheduler.run_warm(&fleet, &evaluator, &stale, &warm_cfg);
        assert_eq!(widened.probes, warm_cfg.probe_budget() + cold.probes);
        assert!(
            widened.score >= cold.score,
            "widened {:.2} vs cold {:.2}",
            widened.score,
            cold.score
        );
    }

    #[test]
    fn warm_start_without_a_shared_bias_falls_back_to_cold() {
        let fleet = small_fleet();
        let evaluator = FleetEvaluator::new(&fleet);
        let scheduler = Scheduler::max_min();
        let empty_prev = FleetOutcome::empty(Policy::MaxMin);
        let out = scheduler.run_warm(
            &fleet,
            &evaluator,
            &empty_prev,
            &WarmConfig::paper_default(),
        );
        let cold = scheduler.run_with_evaluator(&fleet, &evaluator);
        assert_eq!(out.shared_bias, cold.shared_bias);
        assert_eq!(out.probes, cold.probes);
        assert_eq!(out.score, cold.score);
    }

    #[test]
    fn update_device_repreps_one_link_incrementally() {
        let mut fleet = small_fleet();
        let mut evaluator = FleetEvaluator::new(&fleet);
        // Rotation: a cheap rebind (cached scatter reused).
        fleet.device_mut(0).scenario.rx = propagation::antenna::OrientedAntenna::new(
            fleet.devices()[0].scenario.rx.antenna.clone(),
            Degrees(33.0),
        );
        assert!(evaluator.update_device(0, &fleet.devices()[0]));
        // Walk: a full re-preparation (scatter depends on the distance).
        fleet.device_mut(1).scenario = fleet.devices()[1].scenario.clone().with_distance_cm(410.0);
        assert!(!evaluator.update_device(1, &fleet.devices()[1]));
        // The incrementally updated evaluator answers exactly like one
        // compiled from scratch against the moved fleet.
        let fresh = FleetEvaluator::new(&fleet);
        let bias = BiasState::new(11.0, 4.0);
        assert_eq!(evaluator.powers_dbm(bias), fresh.powers_dbm(bias));
    }

    #[test]
    #[should_panic(expected = "carrier")]
    fn update_device_rejects_a_retuned_radio() {
        let fleet = small_fleet();
        let mut evaluator = FleetEvaluator::new(&fleet);
        let mut retuned = fleet.devices()[0].clone();
        retuned.scenario.frequency = rfmath::units::Hertz::from_ghz(5.8);
        let _ = evaluator.update_device(0, &retuned);
    }

    #[test]
    fn reflective_devices_mix_with_transmissive() {
        let mut fleet = Fleet::new(metasurface::designs::fr4_optimized());
        fleet.push(FleetDevice::usrp("through", Degrees(0.0), 36.0, 1));
        fleet.push(FleetDevice::usrp("folded", Degrees(40.0), 70.0, 2).reflective());
        let evaluator = FleetEvaluator::new(&fleet);
        let powers = evaluator.powers_dbm(BiasState::new(6.0, 6.0));
        assert_eq!(powers.len(), 2);
        assert!(powers.iter().all(|p| p.is_finite()));
        let naive = fleet.naive_powers_matrix(&[BiasState::new(6.0, 6.0)]);
        for (a, b) in powers.iter().zip(&naive[0]) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn probes_out_of_range_are_clamped_like_the_supply() {
        let fleet = small_fleet();
        let evaluator = FleetEvaluator::new(&fleet);
        let hot = evaluator.powers_dbm(BiasState::new(99.0, -4.0));
        let clamped = evaluator.powers_dbm(BiasState::new(30.0, 0.0));
        for (a, b) in hot.iter().zip(&clamped) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn empty_fleet_yields_an_explicit_empty_outcome() {
        // Regression: this used to panic in `FleetEvaluator::new` (and
        // an unguarded min-fold would have reported a +∞ worst power).
        let empty = Fleet::new(metasurface::designs::fr4_optimized());
        for scheduler in [
            Scheduler::max_min(),
            Scheduler::favor(0),
            Scheduler::time_division(),
        ] {
            let outcome = scheduler.run(&empty);
            assert!(outcome.per_device.is_empty());
            assert_eq!(outcome.probes, 0);
            assert!(outcome.shared_bias.is_none());
            assert_eq!(outcome.min_power_dbm(), f64::NEG_INFINITY);
            assert_eq!(outcome.total_throughput_bits_hz(), 0.0);
            assert!(outcome.history.is_empty());
        }
    }

    #[test]
    fn shared_plan_cache_reuses_compilations_across_evaluators() {
        // Two sub-fleets on the same design and carriers: a shared cache
        // must compile each carrier once, and the cached evaluators must
        // answer exactly like independently compiled ones.
        let fleet_a = Fleet::mixed_wifi_ble(4, 3);
        let fleet_b = Fleet::mixed_wifi_ble(4, 4);
        let cache = PlanCache::new(&fleet_a.design.stack);
        let a = FleetEvaluator::with_plan_cache(&fleet_a, &cache);
        assert_eq!(cache.plan_count(), 2, "Wi-Fi + BLE carriers");
        let b = FleetEvaluator::with_plan_cache(&fleet_b, &cache);
        assert_eq!(cache.plan_count(), 2, "second fleet reuses both plans");
        let bias = BiasState::new(9.0, 17.0);
        for (evaluator, fleet) in [(&a, &fleet_a), (&b, &fleet_b)] {
            let cached = evaluator.powers_dbm(bias);
            let fresh = FleetEvaluator::new(fleet).powers_dbm(bias);
            assert_eq!(cached, fresh);
        }
    }

    #[test]
    fn mixed_fleet_is_deterministic_in_seed() {
        let a = Fleet::mixed_wifi_ble(6, 9);
        let b = Fleet::mixed_wifi_ble(6, 9);
        let pa = FleetEvaluator::new(&a).powers_dbm(BiasState::new(8.0, 4.0));
        let pb = FleetEvaluator::new(&b).powers_dbm(BiasState::new(8.0, 4.0));
        assert_eq!(pa, pb);
        let c = Fleet::mixed_wifi_ble(6, 10);
        let pc = FleetEvaluator::new(&c).powers_dbm(BiasState::new(8.0, 4.0));
        assert!(pa.iter().zip(&pc).any(|(x, y)| (x - y).abs() > 1e-9));
    }
}
