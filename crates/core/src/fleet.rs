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
//! precomputed once ([`PreparedLink`]), each response's link-independent
//! probe factors ([`ResponseFactors`]) are computed once per applied
//! bias and batch (once per store over a
//! [`SharedPlanCache`](metasurface::SharedPlanCache), whose cell memo
//! serves every later batch and every job over it), and bias rows fan
//! out across threads. Every
//! row is bitwise the per-device loop that deploys its own
//! [`Metasurface`](metasurface::response::Metasurface) and rebuilds its
//! link per probe (property-tested against that loop).
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

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use control::controller::Objective;
use control::sweep::{grid_points, GridSearch, MultiSweepOutcome, Probe, SweepConfig, WarmConfig};
use devices::profile::DeviceProfile;
use metasurface::designs::Design;
use metasurface::evaluator::{PlanCache, StackEvaluator};
use metasurface::stack::{BiasState, SUPPLY_CEILING};
use propagation::capacity::{capacity_bits, duty_cycled_throughput};
use propagation::link::{Link, PreparedLink, ResponseFactors};
use propagation::rays::Deployment;
use rfmath::rng::{MixState, SeedSplitter};
use rfmath::telemetry::RecorderHandle;
use rfmath::units::{Dbm, Degrees, Hertz, Meters, Seconds, Volts};

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
}

/// Smallest probe matrix (biases × devices) whose device projections
/// fan out across threads. Below it the spawn costs more than the split
/// saves: at the ~140 ns link-probe, a 25-bias `powers_matrix` at a
/// budget of 2 took 1.8–2.0×, 1.3–1.5× and 1.0–1.1× the serial time at
/// 200, 400 and 800 link-probes, and 0.75–0.84× at 1600 (2-vCPU shared
/// host, release build, best of 6 fleets × 5 runs). At the 40–70 ns
/// probe the same method, six passes, gave median ratios of 1.42×,
/// 1.33×, 1.26×, 1.19× and 1.12× at 1025, 1600, 2000, 2800 and 4800
/// link-probes in one window of the same host, and 0.63–0.93× at 4800
/// in another. The break-even moves with the host's spare capacity
/// more than with the probe cost, so the threshold stays until a
/// capacity-aware default is measured. Every ratio above was taken when
/// a budget-2 fan-out spawned two threads while the caller idled in
/// `join`; the caller now works the first chunk and spawns one, and
/// the break-even has not been re-measured since.
/// Algorithm 1's 3×3 and 5×5 grids over a panel's sub-fleet stay
/// serial; the time-division matrices of large fleets still fan out.
pub const FAN_OUT_MIN_PROBES: usize = 1024;

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
    /// Buffers every batch reuses, so a steady stream of sweep grids
    /// allocates little beyond its output rows.
    buffers: RefCell<DriveBuffers>,
}

/// The reusable buffers of [`drive`]: the probe batch's, each round's
/// live searches and their matrices. A caller that drives round after
/// round, tick after tick, keeps one and allocates little beyond the
/// rows its searches keep.
#[derive(Default)]
pub(crate) struct DriveBuffers {
    batch: BatchBuffers,
    /// This round's searches with a grid to probe, by index.
    live: Vec<usize>,
    /// This round's matrices, one per live search.
    matrices: Vec<Vec<Vec<f64>>>,
}

/// The reusable buffers of one probe batch ([`BatchBuffers::powers`]):
/// the batch's distinct applied biases, each request's indices into
/// them, the distinct plans, each plan's cells, and every plan's probe
/// factors.
#[derive(Default)]
struct BatchBuffers {
    /// Applied bias bit patterns → index into `distinct`.
    keys: HashMap<(u64, u64), usize, MixState>,
    distinct: Vec<BiasState>,
    /// Every request's probes as indices into `distinct`, request after
    /// request.
    slots: Vec<usize>,
    /// Each distinct plan (by `Rc` identity) as the `(request, plan)`
    /// index of its first use.
    plans: Vec<(usize, usize)>,
    /// Request `r`'s plan `k` → index into `plans`, at
    /// `plan_starts[r] + k`.
    plan_ids: Vec<usize>,
    plan_starts: Vec<usize>,
    /// Plan `g`'s factor index of distinct bias `i`, at
    /// `g · distinct.len() + i` (`usize::MAX` where no fleet on plan `g`
    /// probes bias `i`).
    factor_of: Vec<usize>,
    /// One request's device → `g · distinct.len()` of its plan `g`.
    device_rows: Vec<usize>,
    plan_cells: Vec<BiasState>,
    factors: Vec<ResponseFactors>,
    /// Cells sent to the cascade kernel, and cells answered by a plan
    /// store's cell memo, over these buffers' lifetime.
    cells: CellCounts,
}

/// How a batch's `(plan, cell)` probe factors were obtained.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CellCounts {
    /// Cells sent to the cascade kernel (cell-memo misses).
    pub(crate) cascade: u64,
    /// Cells whose factors a plan store's cell memo already held.
    pub(crate) hits: u64,
}

/// An element of a probe list: a sweep's [`Probe`] or a [`BiasState`].
trait AsBias: Copy {
    fn bias(self) -> BiasState;
}

impl AsBias for BiasState {
    fn bias(self) -> BiasState {
        self
    }
}

impl AsBias for Probe {
    fn bias(self) -> BiasState {
        BiasState {
            vx: self.vx,
            vy: self.vy,
        }
    }
}

impl BatchBuffers {
    /// The probe matrices of many fleets in one batch: request `r` of
    /// `count` is a fleet and its probe list, `request(r)`, and
    /// `sink(r, rows)` receives its matrix
    /// (`rows[b][d]` is device `d`'s power under the `b`-th probe, after
    /// that fleet's clamp and fault, in linear milliwatts: the probe
    /// stops at `norm_sqr`, and whoever reduces a row converts only what
    /// it keeps).
    ///
    /// Applied biases are deduplicated across the whole batch. Each
    /// distinct compiled plan (fleets drawing from one [`PlanCache`]
    /// share its `Rc`) then takes every distinct cell that some fleet
    /// on it probes in one [`StackEvaluator::cell_factors_into`] call:
    /// a shared plan store's cell memo answers the cells any job has
    /// evaluated before, and one cascade call evaluates the rest (every
    /// cell, on a private store), so each `(plan, cell)` gets one
    /// [`ResponseFactors`]. Every cell's
    /// response is independent of what else is in its batch (the SoA
    /// kernel and the per-cell fold agree bit for bit), so each matrix
    /// is bitwise the one that fleet's own call would return.
    fn powers<'a, B: AsBias + 'a>(
        &mut self,
        count: usize,
        request: impl Fn(usize) -> (&'a FleetEvaluator, &'a [B]),
        mut sink: impl FnMut(usize, Vec<Vec<f64>>),
    ) {
        let Self {
            keys,
            distinct,
            slots,
            plans,
            plan_ids,
            plan_starts,
            factor_of,
            device_rows,
            plan_cells,
            factors,
            cells,
        } = self;
        keys.clear();
        distinct.clear();
        slots.clear();
        let requests = || (0..count).map(&request);
        for (fleet, probes) in requests() {
            for probe in probes.iter() {
                let applied = fleet.faulted(probe.bias().clamped(fleet.v_max));
                let key = (applied.vx.0.to_bits(), applied.vy.0.to_bits());
                let next = distinct.len();
                let i = *keys.entry(key).or_insert(next);
                if i == next {
                    distinct.push(applied);
                }
                slots.push(i);
            }
        }
        plans.clear();
        plan_ids.clear();
        plan_starts.clear();
        for (r, (fleet, _)) in requests().enumerate() {
            plan_starts.push(plan_ids.len());
            for (k, plan) in fleet.plans.iter().enumerate() {
                let g = plans
                    .iter()
                    .position(|&(r0, k0)| Rc::ptr_eq(&request(r0).0.plans[k0], plan))
                    .unwrap_or_else(|| {
                        plans.push((r, k));
                        plans.len() - 1
                    });
                plan_ids.push(g);
            }
        }

        // One memo lookup per distinct plan over the cells its fleets
        // probe; plan `g`'s factors follow plan `g − 1`'s.
        let nd = distinct.len();
        factor_of.clear();
        factor_of.resize(plans.len() * nd, usize::MAX);
        factors.clear();
        for (g, &(r0, k0)) in plans.iter().enumerate() {
            let map = &mut factor_of[g * nd..(g + 1) * nd];
            plan_cells.clear();
            let mut start = 0;
            for (r, (fleet, probes)) in requests().enumerate() {
                let own = &slots[start..start + probes.len()];
                start += probes.len();
                let ids = &plan_ids[plan_starts[r]..plan_starts[r] + fleet.plans.len()];
                if !ids.contains(&g) {
                    continue;
                }
                for &i in own {
                    if map[i] == usize::MAX {
                        map[i] = factors.len() + plan_cells.len();
                        plan_cells.push(distinct[i]);
                    }
                }
            }
            let evaluated = request(r0).0.plans[k0].cell_factors_into(plan_cells, factors);
            cells.cascade += evaluated as u64;
            cells.hits += (plan_cells.len() - evaluated) as u64;
        }

        // Row `b` of request `r` holds device `d`'s probe of its plan's
        // factors at the `b`-th probe, filled across the caller's
        // [`rfmath::par::budget`] from [`FAN_OUT_MIN_PROBES`]
        // link-probes up. The closure captures only `Sync` pieces — the
        // plans hold `RefCell` memos and stay on this thread; their
        // factors are already in hand.
        let mut start = 0;
        for (r, (fleet, probes)) in requests().enumerate() {
            let n = probes.len();
            let own = &slots[start..start + n];
            start += n;
            // Device `d`'s plan row of `factor_of`.
            let ids = &plan_ids[plan_starts[r]..];
            device_rows.clear();
            device_rows.extend(fleet.plan_of.iter().map(|&k| ids[k] * nd));
            let (links, device_rows, factors, factor_of) =
                (&fleet.links, &*device_rows, &*factors, &*factor_of);
            let threads = if n * links.len() < FAN_OUT_MIN_PROBES {
                1
            } else {
                rfmath::par::budget()
            };
            let mut rows: Vec<Vec<f64>> = vec![Vec::new(); n];
            rfmath::par::par_fill(&mut rows, threads, |b| {
                let cell = own[b];
                links
                    .iter()
                    .zip(device_rows)
                    .map(|(link, &row)| {
                        link.received_power_factored(&factors[factor_of[row + cell]])
                            .mw()
                    })
                    .collect()
            });
            sink(r, rows);
        }
    }
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
        Self::from_links(
            cache,
            fleet
                .devices()
                .iter()
                .map(|device| (device.scenario.frequency, device.scenario.link())),
        )
    }

    /// An evaluator over one `(carrier, link)` pair per device, in
    /// order, its plans drawn from `cache` (see
    /// [`FleetEvaluator::with_plan_cache`]): a panel binds its members'
    /// links straight from the parent fleet, re-mounted on the panel.
    ///
    /// # Panics
    /// Panics on no device.
    pub(crate) fn from_links(
        cache: &PlanCache,
        devices: impl ExactSizeIterator<Item = (Hertz, Link)>,
    ) -> Self {
        assert!(devices.len() > 0, "cannot evaluate an empty fleet");
        let mut plans: Vec<Rc<StackEvaluator>> = Vec::new();
        let mut plan_of = Vec::with_capacity(devices.len());
        let mut links = Vec::with_capacity(devices.len());
        for (f, link) in devices {
            let idx = plans
                .iter()
                .position(|p| p.frequency().0.to_bits() == f.0.to_bits())
                .unwrap_or_else(|| {
                    plans.push(cache.plan(f));
                    plans.len() - 1
                });
            plan_of.push(idx);
            links.push(PreparedLink::new(link));
        }
        Self {
            links,
            plans,
            plan_of,
            v_max: SUPPLY_CEILING,
            fault: None,
            buffers: RefCell::default(),
        }
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
    /// (clamped to the supply ceiling, like `Metasurface::set_bias`), in
    /// dBm: the one-row case of [`FleetEvaluator::powers_matrix`].
    pub fn powers_dbm(&self, bias: BiasState) -> Vec<f64> {
        self.powers_matrix(&[bias])
            .pop()
            .expect("one bias yields one row")
    }

    /// The full probe matrix in dBm: `result[b][d]` is device `d`'s power
    /// under `biases[b]` (each bias clamped to the supply ceiling): the
    /// one-fleet case of the batch that a panel schedule's fleets share
    /// (see [`crate::panels::PanelScheduler::run_with_caches`]). Each plan's
    /// distinct applied cells go through
    /// [`StackEvaluator::cell_factors_into`]: over a
    /// [`SharedPlanCache`](metasurface::SharedPlanCache) its cell memo
    /// answers the cells an earlier batch over that store evaluated, and
    /// the rest (every cell, on the private store of
    /// [`FleetEvaluator::new`]) go to one cascade call, per-axis solves
    /// deduplicated across them. So each response's link-independent
    /// probe factors ([`ResponseFactors`]: its Jones products, mean
    /// efficiency and default-tuning shadow) are computed once per
    /// `(plan, cell)` in a call, and once per `(store, cell)` over a
    /// shared store, for every evaluator and job drawing from it.
    /// Per-bias device projections then fan out across the caller's
    /// [`rfmath::par::budget`] once the matrix reaches
    /// [`FAN_OUT_MIN_PROBES`], each device applying only its own link's
    /// terms (and its own shadow `powf` if its tuning is not the
    /// default). The batch fills its rows in linear milliwatts, as the
    /// schedulers read them, and this method converts every entry on the
    /// way out ([`Dbm::from_mw`]). Every row is bitwise the powers a
    /// one-bias call returns (property-tested), whatever the budget.
    pub fn powers_matrix(&self, biases: &[BiasState]) -> Vec<Vec<f64>> {
        to_dbm_rows(self.powers_mw(biases))
    }

    /// The probe matrix over a probe list in linear milliwatts, in this
    /// evaluator's own buffers.
    fn powers_mw<B: AsBias>(&self, probes: &[B]) -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        self.buffers
            .borrow_mut()
            .batch
            .powers(1, |_| (self, probes), |_, r| rows = r);
        rows
    }

    /// Several fleets' probe matrices in one batch, in the buffers of
    /// the first fleet: element `r` is `requests[r].0`'s
    /// [`FleetEvaluator::powers_matrix`] over `requests[r].1`, bit for
    /// bit (in dBm). Fleets that draw plans from one [`PlanCache`] share
    /// each compiled plan's cascade call and every distinct cell's
    /// [`ResponseFactors`] — a panel array probes each carrier's cells
    /// once, not once per panel.
    pub(crate) fn powers_batch(requests: &[(&FleetEvaluator, &[BiasState])]) -> Vec<Vec<Vec<f64>>> {
        let Some((first, _)) = requests.first() else {
            return Vec::new();
        };
        let mut out = vec![Vec::new(); requests.len()];
        first.buffers.borrow_mut().batch.powers(
            requests.len(),
            |r| requests[r],
            |r, rows| out[r] = to_dbm_rows(rows),
        );
        out
    }
}

/// Converts a probe matrix from linear milliwatts to dBm in place.
fn to_dbm_rows(mut rows: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    for p in rows.iter_mut().flatten() {
        *p = Dbm::from_mw(*p).0;
    }
    rows
}

/// One probe's per-device received powers, in linear milliwatts — the
/// unit the fleet batch computes them in and the schedulers reduce them
/// in. [`PowerRow::dbm`] converts each entry ([`Dbm::from_mw`]) when
/// read.
#[derive(Clone, Debug)]
pub struct PowerRow(Vec<f64>);

impl PowerRow {
    /// A row of per-device powers in linear milliwatts, in fleet order.
    pub fn from_mw(mw: Vec<f64>) -> Self {
        Self(mw)
    }

    /// The powers in linear milliwatts, in fleet order.
    pub fn mw(&self) -> &[f64] {
        &self.0
    }

    /// The powers in dBm, in fleet order, each converted as it is read.
    pub fn dbm(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.0.iter().map(|&p| Dbm::from_mw(p).0)
    }

    /// Number of devices in the row.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for a row of no device.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
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
    /// Every probed bias and the per-device powers it produced, in visit
    /// order. Each row holds linear milliwatts, as the search reduced
    /// it; [`PowerRow::dbm`] reads it in dBm.
    pub history: Vec<(BiasState, PowerRow)>,
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

    /// [`Scheduler::run`] against an externally compiled evaluator. The
    /// evaluator must have been compiled from this exact fleet. This is
    /// the one-fleet case of the lockstep search that the panel
    /// scheduler and the mobility simulator run over all their panels at
    /// once.
    pub fn run_with_evaluator(&self, fleet: &Fleet, evaluator: &FleetEvaluator) -> FleetOutcome {
        if fleet.is_empty() {
            return FleetOutcome::empty(self.policy);
        }
        self.run_search(fleet, evaluator, self.search(fleet.len(), evaluator))
    }

    /// Drives one search over `evaluator`'s own buffers to its outcome.
    fn run_search(
        &self,
        fleet: &Fleet,
        evaluator: &FleetEvaluator,
        search: Search,
    ) -> FleetOutcome {
        let mut searches = [search];
        drive(&mut evaluator.buffers.borrow_mut(), &mut searches, |_| {
            evaluator
        });
        let [search] = searches;
        self.outcome(fleet.devices(), evaluator, search)
    }

    /// Opens the policy's cold search over `devices` devices (at least
    /// one), probed through `evaluator`.
    pub(crate) fn search(&self, devices: usize, evaluator: &FleetEvaluator) -> Search {
        match self.objective(devices, evaluator) {
            Some(objective) => Search::Shared {
                search: GridSearch::cold(&self.sweep),
                objective,
            },
            None => Search::TimeDivision(TdSearch::new(&self.sweep, devices)),
        }
    }

    /// Opens a warm re-optimization from `prev` over `devices` devices
    /// (at least one): [`Search::Warm`] for a shared-bias policy and a
    /// previous outcome with a shared bias, otherwise
    /// [`Scheduler::search`].
    pub(crate) fn warm_search(
        &self,
        devices: usize,
        evaluator: &FleetEvaluator,
        prev: &FleetOutcome,
        warm: &WarmConfig,
    ) -> Search {
        let (Some(objective), Some(prev_bias)) =
            (self.objective(devices, evaluator), prev.shared_bias)
        else {
            return self.search(devices, evaluator);
        };
        let center = Probe {
            vx: prev_bias.vx,
            vy: prev_bias.vy,
        };
        Search::Warm {
            search: GridSearch::warm(&self.sweep, warm, center),
            objective,
            floor: prev.score - warm.regression_db,
            sweep: self.sweep,
            cold: None,
        }
    }

    /// The objective a shared-bias policy scores each probe by (`None`
    /// for time division), after checking the evaluator and the policy
    /// against a fleet of `devices` devices (at least one).
    fn objective(&self, devices: usize, evaluator: &FleetEvaluator) -> Option<Objective> {
        assert_eq!(
            evaluator.device_count(),
            devices,
            "evaluator compiled for a different fleet"
        );
        match self.policy {
            Policy::MaxMin => Some(Objective::WorstLink),
            Policy::Favor { favored } => {
                assert!(favored < devices, "favored index out of range");
                // Isolation is a margin over the *other* devices; with no
                // other device every probe would score -inf and the
                // "allocation" would be meaningless.
                assert!(
                    devices >= 2,
                    "Favor needs at least two devices to isolate between"
                );
                Some(Objective::Isolation { favored })
            }
            Policy::TimeDivision => None,
        }
    }

    /// The allocation a finished search arrived at, serving `devices`
    /// (the search's fleet, in order; their labels and profiles are all
    /// it reads).
    pub(crate) fn outcome<'a>(
        &self,
        devices: impl IntoIterator<Item = &'a FleetDevice>,
        evaluator: &FleetEvaluator,
        search: Search,
    ) -> FleetOutcome {
        let null = RecorderHandle::null();
        match search {
            Search::Shared { search, .. } => {
                self.shared_outcome(devices, evaluator, search.finish(&null, 0))
            }
            Search::Warm { search, cold, .. } => {
                let mut outcome = search.finish(&null, 0);
                if let Some(cold) = cold {
                    // Widened: the warm probes were spent on the air, so
                    // they stay on the bill, and the better winner is
                    // kept — the cold grid need not revisit the warm
                    // window.
                    let cold = cold.finish(&null, 0);
                    if cold.best_score >= outcome.best_score {
                        outcome.best = cold.best;
                        outcome.best_score = cold.best_score;
                        outcome.best_metrics = cold.best_metrics;
                    }
                    outcome.probes += cold.probes;
                    outcome.duration = Seconds(outcome.duration.0 + cold.duration.0);
                    outcome.history.extend(cold.history);
                }
                self.shared_outcome(devices, evaluator, outcome)
            }
            Search::TimeDivision(search) => {
                self.time_division_outcome(devices, evaluator.device_count(), search.history)
            }
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
    /// This is the lockstep search over one fleet, warm-started: the
    /// search each moved panel of the mobility simulator runs.
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
        let search = self.warm_search(fleet.len(), evaluator, prev, warm);
        self.run_search(fleet, evaluator, search)
    }

    /// Assembles a [`FleetOutcome`] from a completed shared-bias sweep —
    /// the common tail of the cold and warm searches.
    fn shared_outcome<'a>(
        &self,
        devices: impl IntoIterator<Item = &'a FleetDevice>,
        evaluator: &FleetEvaluator,
        outcome: MultiSweepOutcome,
    ) -> FleetOutcome {
        let bias = BiasState {
            vx: outcome.best.vx,
            vy: outcome.best.vy,
        };
        // The winner's row, in linear milliwatts, converts to dBm here.
        // If every probe scored -inf the sweep never captured a metric
        // vector (the objective asserts above make this unreachable for
        // the built-in policies, but keep the allocation well-formed for
        // custom arity mishaps): measure the winner directly.
        let best_metrics = if outcome.best_metrics.len() == evaluator.device_count() {
            PowerRow(outcome.best_metrics).dbm().collect()
        } else {
            evaluator.powers_dbm(bias)
        };
        let per_device = devices
            .into_iter()
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
                .map(|(p, m)| (BiasState { vx: p.vx, vy: p.vy }, PowerRow(m)))
                .collect(),
        }
    }

    /// Time division's allocation from its probe history: every device
    /// keeps the best bias *it* saw anywhere in the history (see
    /// [`TdSearch`]) for one slot per frame.
    fn time_division_outcome<'a>(
        &self,
        devices: impl IntoIterator<Item = &'a FleetDevice>,
        n_dev: usize,
        history: Vec<(BiasState, PowerRow)>,
    ) -> FleetOutcome {
        // Frame model: every device gets one slot per frame; each slot
        // boundary burns one PSU switch of the slot's airtime.
        let duty = if n_dev == 0 {
            0.0
        } else {
            ((self.slot.0 - self.sweep.switch_period.0).max(0.0) / (self.slot.0 * n_dev as f64))
                .clamp(0.0, 1.0)
        };
        let per_device: Vec<DeviceService> = devices
            .into_iter()
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

/// A fraction of a positive linear maximum `m`: a power at or below
/// `m · NEAR_MAX` converts 4.3 µdB or more below `m`, far past any
/// rounding of `log10`, so [`winner_of`] converts only the powers above
/// it (once it has checked that `m · NEAR_MAX` itself converts lower).
const NEAR_MAX: f64 = 0.999_999;

/// The bias at which device `d` saw its best power in `history`, and
/// that power in dBm: bitwise what `max_by(total_cmp)` over device `d`'s
/// column, converted entry by entry, returns (the last of equal maxima).
///
/// It reads the linear column. [`Dbm::from_mw`] never decreases
/// (property-tested), so the greatest level is the conversion of the
/// greatest linear power, unless a NaN power converts above it (NaNs are
/// converted as found). Several powers can round to that level, so the
/// winner is the last row whose power converts to it: a row holding the
/// maximum itself does, a row below a point just under the maximum that
/// converts lower does not, and only the rows between are converted.
///
/// # Panics
/// Panics on an empty history.
pub fn winner_of(history: &[(BiasState, PowerRow)], d: usize) -> (BiasState, f64) {
    let dbm = |p: f64| Dbm::from_mw(p).0;
    let column = || history.iter().map(|(_, row)| row.0[d]);
    let top = column().filter(|p| !p.is_nan()).reduce(f64::max);
    let level = top.map(dbm);
    let best = column()
        .filter(|p| p.is_nan())
        .map(dbm)
        .chain(level)
        .max_by(f64::total_cmp)
        .expect("non-empty history");
    let top_is_best = level.map(f64::to_bits) == Some(best.to_bits());
    // Powers below `floor` convert strictly below `best`.
    let floor = top
        .map(|m| m * NEAR_MAX)
        .filter(|&q| dbm(q) < best)
        .unwrap_or(f64::NEG_INFINITY);
    let converts_to_best = |p: f64| {
        if Some(p) == top {
            top_is_best
        } else {
            (p.is_nan() || p >= floor) && dbm(p).to_bits() == best.to_bits()
        }
    };
    history
        .iter()
        .rev()
        .find(|(_, row)| converts_to_best(row.0[d]))
        .map(|(bias, _)| (*bias, best))
        .expect("the best level converts from some row")
}

/// One fleet's schedule as a round-driven search: it yields a probe grid
/// ([`Search::grid`]), takes that grid's rows ([`Search::take`]) and
/// yields the next until it is done. [`drive`] advances any number of
/// searches in lockstep.
pub(crate) enum Search {
    /// `MaxMin` / `Favor`: Algorithm 1 over the policy's objective.
    Shared {
        search: GridSearch,
        objective: Objective,
    },
    /// `MaxMin` / `Favor` re-optimized from a previous allocation
    /// ([`Scheduler::warm_search`]): a warm [`GridSearch`] that, if its
    /// winner ends below `floor`, opens a cold one over `sweep` and
    /// keeps going. [`Scheduler::outcome`] merges the two.
    Warm {
        search: GridSearch,
        objective: Objective,
        /// The previous score less [`WarmConfig::regression_db`].
        floor: f64,
        sweep: SweepConfig,
        /// The widened cold search, once opened (boxed: most warm
        /// searches never widen).
        cold: Option<Box<GridSearch>>,
    },
    /// `TimeDivision`'s coarse grid and per-device refinement rounds.
    TimeDivision(TdSearch),
}

impl Search {
    /// The grid to probe next; `None` once the search is done.
    fn grid(&self) -> Option<&[Probe]> {
        match self {
            Search::Shared { search, .. }
            | Search::Warm {
                search, cold: None, ..
            } => search.grid(),
            Search::Warm {
                cold: Some(cold), ..
            } => cold.grid(),
            Search::TimeDivision(search) => search.grid(),
        }
    }

    /// Takes the current grid's rows (linear milliwatts), in grid order.
    fn take(&mut self, rows: Vec<Vec<f64>>) {
        let score = |objective: Objective| {
            move |powers: &[f64]| objective.score_mw(powers).unwrap_or(f64::NEG_INFINITY)
        };
        match self {
            Search::Shared { search, objective } => search.take(rows, &score(*objective)),
            Search::Warm {
                cold: Some(cold),
                objective,
                ..
            } => cold.take(rows, &score(*objective)),
            Search::Warm {
                search,
                objective,
                floor,
                sweep,
                cold,
            } => {
                search.take(rows, &score(*objective));
                if search.grid().is_none() && search.leader().1 < *floor {
                    *cold = Some(Box::new(GridSearch::cold(sweep)));
                }
            }
            Search::TimeDivision(search) => search.take(rows),
        }
    }
}

/// Time division as a round-driven search: a coarse full-range grid
/// probes every device at once, then each round probes every device's
/// refinement window as one grid, deduplicated against everything
/// already probed. The window narrows geometrically round over round,
/// matching the Algorithm 1 core: each round probes ±step around a
/// device's best bias so far at a 2·step/(t−1) spacing, which becomes
/// the next round's step. Every device keeps the best bias *it* saw
/// anywhere in the history.
pub(crate) struct TdSearch {
    config: SweepConfig,
    /// Grid points per axis (at least two).
    t: usize,
    devices: usize,
    /// The next refinement window's half-width.
    step: f64,
    /// Rounds whose rows have been taken.
    round: usize,
    history: Vec<(BiasState, PowerRow)>,
    /// Bit patterns of every bias in `history` or `grid`.
    seen: HashSet<(u64, u64), MixState>,
    /// The grid awaiting its rows; empty once the search is done.
    grid: Vec<Probe>,
}

impl TdSearch {
    /// A fresh search for `devices` devices, its coarse grid ready.
    fn new(config: &SweepConfig, devices: usize) -> Self {
        let t = config.steps_per_axis.max(2);
        let mut search = Self {
            config: *config,
            t,
            devices,
            step: (config.v_max.0 - config.v_min.0) / (t - 1) as f64,
            round: 0,
            history: Vec::new(),
            seen: HashSet::default(),
            grid: Vec::with_capacity(t * t),
        };
        let range = (config.v_min.0, config.v_max.0);
        search.push_window(range, range, false);
        search
    }

    /// Appends the `t × t` probes spanning `x × y`, x-major, skipping
    /// biases already seen when `dedup` is set.
    fn push_window(&mut self, x: (f64, f64), y: (f64, f64), dedup: bool) {
        for probe in grid_points(self.t, x, y) {
            if self
                .seen
                .insert((probe.vx.0.to_bits(), probe.vy.0.to_bits()))
                || !dedup
            {
                self.grid.push(probe);
            }
        }
    }

    fn grid(&self) -> Option<&[Probe]> {
        (!self.grid.is_empty()).then_some(self.grid.as_slice())
    }

    /// Takes the current grid's rows, then opens the next refinement
    /// round (none after the configured iterations, or when every
    /// device's window was probed already).
    fn take(&mut self, rows: Vec<Vec<f64>>) {
        assert_eq!(rows.len(), self.grid.len(), "one metric row per probe");
        self.history.extend(
            self.grid
                .drain(..)
                .map(|p| BiasState { vx: p.vx, vy: p.vy })
                .zip(rows.into_iter().map(PowerRow)),
        );
        if self.round > 0 {
            self.step = 2.0 * self.step / (self.t - 1) as f64;
        }
        self.round += 1;
        if self.round >= self.config.iterations {
            return;
        }
        let (v_min, v_max) = (self.config.v_min.0, self.config.v_max.0);
        let step = self.step;
        for d in 0..self.devices {
            let (best, _) = winner_of(&self.history, d);
            self.push_window(
                ((best.vx.0 - step).max(v_min), (best.vx.0 + step).min(v_max)),
                ((best.vy.0 - step).max(v_min), (best.vy.0 + step).min(v_max)),
                true,
            );
        }
    }
}

/// Advances `searches` in lockstep, search `i` probing through
/// `evaluator(i)`: each round, every live search's grid goes into one
/// [`FleetEvaluator`] batch, so searches whose fleets draw plans from
/// one [`PlanCache`] share each plan's cell lookup, cascade call and
/// each distinct cell's factors. A search's outcome depends only on its
/// own rows, so each ends exactly as it would alone. `buffers` hold the
/// batch and the round's bookkeeping; a caller that keeps them across
/// calls allocates only the rows its searches keep. Returns how the
/// batches' cells were obtained: sent to the cascade kernel or found in
/// a plan store's cell memo.
pub(crate) fn drive<'e>(
    buffers: &mut DriveBuffers,
    searches: &mut [Search],
    evaluator: impl Fn(usize) -> &'e FleetEvaluator,
) -> CellCounts {
    let DriveBuffers {
        batch,
        live,
        matrices,
    } = buffers;
    let before = batch.cells;
    loop {
        live.clear();
        live.extend((0..searches.len()).filter(|&i| searches[i].grid().is_some()));
        if live.is_empty() {
            break;
        }
        matrices.resize_with(live.len(), Vec::new);
        let (open, live): (&[Search], &[usize]) = (searches, live);
        batch.powers(
            live.len(),
            |r| {
                let i = live[r];
                (
                    evaluator(i),
                    open[i].grid().expect("a live search has a grid"),
                )
            },
            |r, rows| matrices[r] = rows,
        );
        for (&i, rows) in live.iter().zip(matrices.iter_mut()) {
            searches[i].take(std::mem::take(rows));
        }
    }
    CellCounts {
        cascade: batch.cells.cascade - before.cascade,
        hits: batch.cells.hits - before.hits,
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
    fn threaded_matrix_matches_serial_bitwise() {
        // 64 devices × 25 biases = 1600 link-probes crosses
        // `FAN_OUT_MIN_PROBES`, so a budget of four runs the threaded
        // projection on any host.
        let fleet = Fleet::mixed_wifi_ble(64, 41);
        let biases: Vec<BiasState> = (0..25)
            .map(|i| BiasState::new((i % 5) as f64 * 7.0, (i / 5) as f64 * 6.5))
            .collect();
        let evaluator = FleetEvaluator::new(&fleet);
        let bits = |threads: usize| -> Vec<Vec<u64>> {
            let matrix = rfmath::par::with_budget(threads, || evaluator.powers_matrix(&biases));
            matrix
                .iter()
                .map(|row| row.iter().map(|p| p.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(4), bits(1));
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
            .map(|(_, m)| m.dbm().fold(f64::INFINITY, f64::min))
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
