//! The event-stepped mobility simulation engine.
//!
//! [`MobilitySim::run`] advances a [`DynamicFleet`] tick by tick and
//! drives the panel scheduler as the *inner loop* of each tick, in one
//! of two modes:
//!
//! * **cold** ([`SimConfig::cold`]) — the memoryless baseline: every
//!   tick re-runs the full [`PanelScheduler::run`] (fresh plan caches,
//!   fresh link preparations, the full Algorithm 1 probe bill). This is
//!   what PR 4's API offers a dynamic world, and what the warm path is
//!   measured against.
//! * **warm** (default) — the incremental controller: plan caches,
//!   per-panel evaluators and per-device reference links persist across
//!   ticks; only the dirty set's links are re-prepared
//!   ([`crate::fleet::FleetEvaluator::update_device`]); panels whose
//!   devices did not move *reuse* the previous allocation outright (zero
//!   probes), and panels that did move re-optimize through
//!   [`crate::fleet::Scheduler::run_warm`] — a handful of probes seeded
//!   from the previous bias, widening to the cold search only on a
//!   genuine score regression.
//!
//! On top of scheduling, each tick settles two pieces of physical
//! accounting the static schedulers never had to face:
//!
//! * **panel handoff with hysteresis** ([`HandoffPolicy`]) — a device
//!   migrates to a better panel only after its measured reference-power
//!   margin exceeds `hysteresis_db` for `dwell_ticks` consecutive
//!   ticks, and every migration costs the affected panels a cold
//!   re-search (their sub-fleets changed);
//! * **PSU-aware tick budgets** — a bias change is an atomic
//!   switch-plus-settle interval gated by
//!   [`control::psu::PowerSupply::next_switch_time`]; probing airtime
//!   and settling are billed against the tick, changes that cannot
//!   complete are deferred into the next tick, and the per-tick duty
//!   cycle (and with it the reported throughput) is reduced
//!   accordingly. Re-optimizing faster than the probe budget allows
//!   starves the link — the reconfiguration-workload effect the
//!   programmable-environment literature centers on.
//!
//! A seeded [`FaultPlan`] ([`MobilitySim::with_faults`]) injects
//! hardware failures into the warm engine — whole-panel outages
//! (orphaned sub-fleets re-home onto surviving panels through the
//! handoff machinery), lost probe reports (bounded retry with
//! exponential backoff, then hold-last-good-bias), PSU settling
//! glitches, and stuck/clamped unit-cell columns (masked into each
//! panel's evaluator so the search re-optimizes around the defect) —
//! with honest degraded-duty accounting. An empty plan is bitwise
//! inert: the fault paths are never entered.

use std::time::Instant;

use control::psu::PowerSupply;
use control::sweep::WarmConfig;
use metasurface::evaluator::PlanCache;
use metasurface::response::SurfaceResponse;
use metasurface::stack::BiasState;
use propagation::capacity::duty_cycled_throughput;
use propagation::link::PreparedLink;
use rfmath::units::{Dbm, Seconds};

use crate::faults::FaultPlan;
use crate::fleet::{Fleet, FleetEvaluator, FleetOutcome, Policy};
use crate::panels::{
    PanelAllocation, PanelArray, PanelOutcome, PanelScheduler, RevivalPolicy, REFERENCE_BIAS,
};
use crate::sim::mobility::DynamicFleet;
use crate::telemetry::{RecorderHandle, TelemetryEvent};

/// Device→panel handoff policy: hysteresis in measured margin plus a
/// dwell requirement, so a device on a sector boundary does not flap
/// between panels on every fade.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HandoffPolicy {
    /// Reference-power margin (dB) a candidate panel must hold over the
    /// device's current panel before a migration is even considered.
    /// The comparison is strict, so identical panels (a uniform array)
    /// never trigger handoffs regardless of this setting.
    pub hysteresis_db: f64,
    /// Consecutive *moving* ticks the margin must persist before the
    /// device actually migrates (values below 1 behave as 1). Only
    /// devices in a tick's dirty set are considered at all — a parked
    /// device keeps its panel regardless of margin (re-homing static
    /// devices is the assignment policy's job, and the zero-motion
    /// equivalence contract depends on it), and parking resets the
    /// streak.
    pub dwell_ticks: usize,
    /// Re-admission policy when a faulted panel heals.
    /// [`RevivalPolicy::Immediate`] re-homes every device whose best
    /// live panel came back *this tick* without waiting out hysteresis
    /// — the outage is over, there is nothing to flap back to.
    /// [`RevivalPolicy::Hysteresis`] leaves re-admission to the
    /// ordinary handoff loop, which never touches parked devices: a
    /// stationary fleet stays stranded on its fallback panels forever.
    pub revival: RevivalPolicy,
}

impl Default for HandoffPolicy {
    fn default() -> Self {
        Self {
            hysteresis_db: 2.0,
            dwell_ticks: 2,
            revival: RevivalPolicy::Immediate,
        }
    }
}

/// Simulation-engine configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Tick length — how often the controller re-examines the world.
    pub tick: Seconds,
    /// Warm-start configuration; `None` selects the cold (memoryless)
    /// baseline that re-runs the full scheduler every tick.
    pub warm: Option<WarmConfig>,
    /// Handoff hysteresis (warm mode only; the cold baseline re-assigns
    /// from scratch every tick, which is exactly the flapping behavior
    /// hysteresis exists to prevent).
    pub handoff: HandoffPolicy,
    /// Allocation-churn baseline for A/B benchmarking: when set, the
    /// warm engine rebinds reference links through the allocating
    /// [`PreparedLink::rebind`] path and forces every panel evaluator
    /// onto the reference (AoS) batch kernel instead of the SoA fast
    /// path. Results are bit-identical either way — only the
    /// steady-state allocation and vectorization behavior differs —
    /// which is exactly what makes it an honest baseline.
    pub churn_baseline: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            tick: Seconds(1.0),
            warm: Some(WarmConfig::paper_default()),
            handoff: HandoffPolicy::default(),
            churn_baseline: false,
        }
    }
}

impl SimConfig {
    /// The cold (memoryless, full re-search) baseline configuration.
    pub fn cold() -> Self {
        Self {
            warm: None,
            ..Self::default()
        }
    }

    /// Sets the tick length.
    pub fn with_tick(mut self, tick: Seconds) -> Self {
        self.tick = tick;
        self
    }

    /// Sets the handoff policy.
    pub fn with_handoff(mut self, handoff: HandoffPolicy) -> Self {
        self.handoff = handoff;
        self
    }

    /// Selects the allocation-churn baseline (see
    /// [`SimConfig::churn_baseline`]). Benchmarks use this to measure
    /// what the arena rebinds and the SoA batch kernel actually buy.
    pub fn with_churn_baseline(mut self, on: bool) -> Self {
        self.churn_baseline = on;
        self
    }
}

/// Everything one simulation tick produced.
#[derive(Clone, Debug)]
pub struct TickOutcome {
    /// Simulation time at the tick's start.
    pub t: Seconds,
    /// Devices whose link changed at this clock edge (the dirty set).
    pub moved: Vec<usize>,
    /// Devices migrated to another panel this tick.
    pub handoffs: usize,
    /// The tick's scheduling decision: assignment, proposed per-panel
    /// biases, per-device service at those biases. Its `probes` field
    /// counts what was spent *this* tick — panels that reused their
    /// previous allocation contribute nothing, which is the point of
    /// the warm engine.
    pub outcome: PanelOutcome,
    /// The bias actually on each panel's rails at the tick's end (a
    /// deferred change leaves the previous bias in force).
    pub applied: Vec<BiasState>,
    /// Serving duty per panel: the fraction of the tick left after
    /// probing airtime, rail settling and deferred-switch spillover.
    pub panel_duty: Vec<f64>,
    /// Bias changes still pending on the rails at the tick's end.
    pub deferred_switches: usize,
    /// Links fully re-prepared this tick (walked devices, membership
    /// rebuilds).
    pub links_reprepared: usize,
    /// Links cheaply rebound this tick (rotations, blockage edges —
    /// cached scatter reused).
    pub links_rebound: usize,
    /// Panels that ran the full cold search this tick.
    pub cold_panels: usize,
    /// Panels that ran a warm refinement this tick.
    pub warm_panels: usize,
    /// Populated panels that reused their previous allocation outright.
    pub reused_panels: usize,
    /// Panels dark this tick under the fault plan (outage windows or
    /// stochastic outages; the all-panels-out guard keeps one alive).
    pub outaged_panels: usize,
    /// Devices re-homed off a dark panel this tick (fault recovery, not
    /// counted as handoffs — no hysteresis was involved).
    pub fault_reassignments: usize,
    /// Devices re-admitted onto a panel that healed this tick
    /// ([`RevivalPolicy::Immediate`]; like fault recovery, not counted
    /// as handoffs — no hysteresis was involved).
    pub revival_readmissions: usize,
    /// Probe-report deliveries lost this tick (each billed its
    /// backoff-widened timeout as airtime).
    pub reports_lost: usize,
    /// Panels whose report retries were exhausted this tick (the
    /// controller held the last good bias).
    pub reports_exhausted: usize,
    /// PSU settling glitches this tick (each billed extra airtime).
    pub psu_glitches: usize,
    /// Worst served power across the fleet at the *applied* biases, dBm
    /// (`-∞` for an empty fleet).
    pub served_min_power_dbm: f64,
    /// Aggregate duty-cycled throughput at the applied biases, bit/s/Hz
    /// — the honest number: reconfiguration airtime is paid for here.
    pub served_throughput_bits_hz: f64,
    /// Wall-clock the controller spent computing this tick, ms (the
    /// quantity the warm-vs-cold bench compares).
    pub wall_ms: f64,
}

/// A completed simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Per-tick outcomes, in time order.
    pub ticks: Vec<TickOutcome>,
    /// Total handoffs across the run.
    pub handoffs: usize,
    /// Total controller wall-clock, ms.
    pub wall_ms: f64,
}

impl SimReport {
    /// Mean worst-device served power across ticks, dBm.
    pub fn mean_served_min_power_dbm(&self) -> f64 {
        if self.ticks.is_empty() {
            return f64::NEG_INFINITY;
        }
        self.ticks
            .iter()
            .map(|t| t.served_min_power_dbm)
            .sum::<f64>()
            / self.ticks.len() as f64
    }

    /// Mean serving duty, device-weighted (each device contributes its
    /// own panel's duty, each tick).
    pub fn mean_duty(&self) -> f64 {
        let mut total = 0.0;
        let mut n = 0usize;
        for tick in &self.ticks {
            for &panel in &tick.outcome.assignment {
                total += tick.panel_duty[panel];
                n += 1;
            }
        }
        if n == 0 {
            return 0.0;
        }
        total / n as f64
    }

    /// Total bias states probed across the run.
    pub fn total_probes(&self) -> usize {
        self.ticks.iter().map(|t| t.outcome.probes).sum()
    }

    /// Total full link re-preparations across the run.
    pub fn total_links_reprepared(&self) -> usize {
        self.ticks.iter().map(|t| t.links_reprepared).sum()
    }

    /// Total cheap link rebinds across the run.
    pub fn total_links_rebound(&self) -> usize {
        self.ticks.iter().map(|t| t.links_rebound).sum()
    }

    /// Total panel×tick outages across the run.
    pub fn total_outaged_panel_ticks(&self) -> usize {
        self.ticks.iter().map(|t| t.outaged_panels).sum()
    }

    /// Total fault-recovery re-homings across the run.
    pub fn total_fault_reassignments(&self) -> usize {
        self.ticks.iter().map(|t| t.fault_reassignments).sum()
    }

    /// Total healed-panel re-admissions across the run.
    pub fn total_revival_readmissions(&self) -> usize {
        self.ticks.iter().map(|t| t.revival_readmissions).sum()
    }

    /// Total probe-report deliveries lost across the run.
    pub fn total_reports_lost(&self) -> usize {
        self.ticks.iter().map(|t| t.reports_lost).sum()
    }

    /// Total report-retry exhaustions (held biases) across the run.
    pub fn total_reports_exhausted(&self) -> usize {
        self.ticks.iter().map(|t| t.reports_exhausted).sum()
    }

    /// Total PSU settling glitches across the run.
    pub fn total_psu_glitches(&self) -> usize {
        self.ticks.iter().map(|t| t.psu_glitches).sum()
    }
}

/// How one panel's allocation was produced this tick.
#[derive(Clone, Copy, Debug, PartialEq)]
enum SearchKind {
    Reused,
    Warm,
    Cold,
}

/// Persistent per-panel state of the engine (the PSU half is live in
/// both modes; the evaluator half only in warm mode).
struct PanelState {
    members: Vec<usize>,
    subfleet: Fleet,
    evaluator: Option<FleetEvaluator>,
    psu: PowerSupply,
    applied: BiasState,
    /// An in-flight bias change: target plus remaining switch+settle
    /// seconds that spilled past the previous tick.
    pending: Option<(BiasState, f64)>,
    prev: Option<FleetOutcome>,
    moved: bool,
    membership_changed: bool,
}

impl PanelState {
    fn new(placeholder: &Fleet) -> Self {
        let mut psu = PowerSupply::tektronix_2230g();
        psu.execute("OUTP ON", Seconds(0.0));
        Self {
            members: Vec::new(),
            subfleet: Fleet::new(placeholder.design.clone()),
            evaluator: None,
            psu,
            applied: BiasState::new(0.0, 0.0),
            pending: None,
            prev: None,
            moved: false,
            membership_changed: false,
        }
    }
}

/// PSU bookkeeping for one panel over one tick: complete any pending
/// reconfiguration first, bill the tick's probing airtime, then attempt
/// the freshly proposed change. A change is an atomic switch+settle
/// interval: the switch instant is gated by the supply's
/// `next_switch_time` rate limit, and if the settle cannot complete
/// within the tick the whole change is deferred (the old bias keeps
/// serving). Returns `(seconds of the tick consumed, changes deferred)`.
fn settle_psu(
    state: &mut PanelState,
    tick_start: f64,
    tick_len: f64,
    search_airtime: f64,
    proposed: Option<BiasState>,
) -> (f64, usize) {
    let settling = state.psu.settling.0;
    let mut used = 0.0f64;

    // 1. An in-flight change from a previous tick completes first.
    if let Some((target, rem)) = state.pending.take() {
        let switch_at =
            (tick_start + (rem - settling).max(0.0)).max(state.psu.next_switch_time().0);
        let completed = switch_at + settling - tick_start;
        if completed <= tick_len {
            state
                .psu
                .set_bias(target.vx, target.vy, Seconds(switch_at))
                .expect("pending switch lands at a legal time");
            state.applied = target;
            used = completed;
        } else {
            state.pending = Some((target, completed - tick_len));
            return (tick_len, 1);
        }
    }

    // 2. Probing airtime of this tick's search (zero on a reused tick).
    used = (used + search_airtime).min(tick_len);

    // 3. The freshly proposed change, if it differs from the rails.
    if let Some(target) = proposed {
        if target != state.applied {
            let switch_at = (tick_start + used).max(state.psu.next_switch_time().0);
            let completed = switch_at + settling - tick_start;
            if completed <= tick_len {
                state
                    .psu
                    .set_bias(target.vx, target.vy, Seconds(switch_at))
                    .expect("proposed switch lands at a legal time");
                state.applied = target;
                return (completed.clamp(0.0, tick_len), 0);
            }
            state.pending = Some((target, completed - tick_len));
            return (tick_len, 1);
        }
    }
    (used.clamp(0.0, tick_len), 0)
}

/// The event-stepped mobility simulator: a [`PanelScheduler`] driven
/// tick by tick over a [`DynamicFleet`] and a [`PanelArray`], with
/// warm-start re-optimization, handoff hysteresis and PSU-honest duty
/// accounting.
#[derive(Clone, Debug)]
pub struct MobilitySim {
    /// The per-tick scheduling core (policy, sweep, and the assignment
    /// policy used on the first tick). Must be a shared-bias policy —
    /// time division has no single rail state to hold between ticks.
    pub scheduler: PanelScheduler,
    /// Engine configuration.
    pub config: SimConfig,
    /// The fault plan the run degrades through ([`FaultPlan::none`] by
    /// default — bitwise inert).
    pub faults: FaultPlan,
    /// Telemetry sink for per-tick phase spans
    /// (`sim.phase.advance/reopt/settle/serve`), fault edges, handoffs,
    /// retries and PSU deferrals (see
    /// [`crate::telemetry::TelemetryEvent`]). The default
    /// [`RecorderHandle::null`] keeps every run bitwise identical to an
    /// uninstrumented simulator.
    pub recorder: RecorderHandle,
}

impl MobilitySim {
    /// A simulator around a scheduler and a configuration (fault-free).
    pub fn new(scheduler: PanelScheduler, config: SimConfig) -> Self {
        Self {
            scheduler,
            config,
            faults: FaultPlan::none(),
            recorder: RecorderHandle::null(),
        }
    }

    /// Installs a fault plan. Only the warm engine can degrade through
    /// faults (`run` panics on a faulted cold baseline); an empty plan
    /// leaves every run bitwise identical to a fault-free simulator.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches a telemetry recorder the tick loop reports into. The
    /// scheduler shares it, so per-panel sweep spans land in the same
    /// ring as the tick-phase and fault events.
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.scheduler.recorder = recorder.clone();
        self.recorder = recorder;
        self
    }

    /// Runs `ticks` clock edges, advancing `fleet` and re-optimizing the
    /// array each tick. The fleet is mutated in place (it *is* the world
    /// state); construct a fresh fleet to run a second scenario.
    ///
    /// # Panics
    /// Panics on zero ticks, a non-positive tick length, a
    /// `TimeDivision` base policy, or a non-empty fault plan on the
    /// cold baseline.
    pub fn run(&self, fleet: &mut DynamicFleet, array: &PanelArray, ticks: usize) -> SimReport {
        assert!(ticks >= 1, "need at least one tick");
        assert!(self.config.tick.0 > 0.0, "tick length must be positive");
        assert!(
            !matches!(self.scheduler.base.policy, Policy::TimeDivision),
            "the mobility simulator serves shared-bias policies: time division \
             has no single rail state to hold between ticks"
        );
        assert!(
            self.config.warm.is_some() || self.faults.is_empty(),
            "fault injection requires the warm engine: the cold baseline keeps \
             no persistent state to degrade through"
        );
        assert!(
            self.scheduler.joint.is_none(),
            "the mobility simulator drives the independent per-panel search: \
             joint multi-surface refinement is a static-scheduler mode"
        );
        match self.config.warm {
            Some(warm) => self.run_warm_mode(fleet, array, ticks, &warm),
            None => self.run_cold_mode(fleet, array, ticks),
        }
    }

    /// The memoryless baseline: every tick pays the full PR-4 bill —
    /// fresh plan caches, fresh link preparations, full Algorithm 1.
    fn run_cold_mode(
        &self,
        fleet: &mut DynamicFleet,
        array: &PanelArray,
        ticks: usize,
    ) -> SimReport {
        let mut states: Vec<PanelState> = (0..array.len())
            .map(|_| PanelState::new(fleet.fleet()))
            .collect();
        let mut out = Vec::with_capacity(ticks);
        let mut wall_total = 0.0f64;
        let recorder = &self.recorder;
        let traced = recorder.enabled();
        for i in 0..ticks {
            let started = Instant::now();
            recorder.set_tick(i as u64);
            let t = Seconds(i as f64 * self.config.tick.0);
            let moved = {
                let _span = recorder.span("sim.phase.advance_ns");
                fleet.advance_to(t)
            };
            if traced {
                recorder.emit(TelemetryEvent::TickPhase {
                    phase: "advance",
                    items: moved.len(),
                });
            }
            let reopt_span = recorder.span("sim.phase.reopt_ns");
            let outcome = self.scheduler.run(fleet.fleet(), array);
            drop(reopt_span);
            let cold_panels = outcome
                .per_panel
                .iter()
                .filter(|p| !p.devices.is_empty())
                .count();
            let airtimes: Vec<f64> = outcome
                .per_panel
                .iter()
                .map(|p| p.outcome.elapsed.0)
                .collect();
            if traced {
                recorder.emit(TelemetryEvent::TickPhase {
                    phase: "reopt",
                    items: cold_panels,
                });
            }
            let outaged = vec![false; array.len()];
            let mut tick_out = self.settle_tick(
                fleet.fleet(),
                array,
                &mut states,
                t,
                moved,
                0,
                outcome,
                &airtimes,
                &outaged,
                started,
            );
            tick_out.links_reprepared = fleet.len();
            tick_out.cold_panels = cold_panels;
            wall_total += tick_out.wall_ms;
            out.push(tick_out);
        }
        SimReport {
            ticks: out,
            handoffs: 0,
            wall_ms: wall_total,
        }
    }

    /// The incremental engine: persistent caches, evaluators and
    /// reference links; dirty-set link updates; hysteresis handoff;
    /// reuse/warm/cold scheduling per panel.
    fn run_warm_mode(
        &self,
        fleet: &mut DynamicFleet,
        array: &PanelArray,
        ticks: usize,
        warm: &WarmConfig,
    ) -> SimReport {
        let caches = array.plan_caches();
        let mut states: Vec<PanelState> = (0..array.len())
            .map(|_| PanelState::new(fleet.fleet()))
            .collect();
        let mut assignment: Vec<usize> = Vec::new();
        let mut streaks: Vec<(usize, usize)> = vec![(0, 0); fleet.len()];
        let mut ref_links: Vec<Vec<PreparedLink>> = Vec::new();
        // Reference responses per panel × carrier (bias-independent:
        // computed once for the whole run).
        let mut ref_responses: Vec<Vec<(u64, SurfaceResponse)>> = vec![Vec::new(); array.len()];

        let mut out = Vec::with_capacity(ticks);
        let mut handoffs_total = 0usize;
        let mut wall_total = 0.0f64;
        let faults_active = !self.faults.is_empty();
        // Steady-state scratch reused across ticks — the tick loop
        // allocates only for the outcome it returns.
        let mut outaged = vec![false; array.len()];
        let mut is_dirty = vec![false; fleet.len()];
        let mut kinds: Vec<SearchKind> = Vec::with_capacity(array.len());
        let mut airtimes: Vec<f64> = Vec::with_capacity(array.len());
        let recorder = &self.recorder;
        let traced = recorder.enabled();
        let mut prev_outaged = vec![false; array.len()];
        for i in 0..ticks {
            let started = Instant::now();
            recorder.set_tick(i as u64);
            let t = Seconds(i as f64 * self.config.tick.0);
            let advance_span = recorder.span("sim.phase.advance_ns");
            let moved = fleet.advance_to(t);
            let mut reprepared = 0usize;
            let mut rebound = 0usize;

            // Which panels are dark this tick. A controller with no
            // surviving panel serves nobody at all, so when the plan
            // would take out every panel the lowest-indexed one is kept
            // alive: the fleet degrades instead of vanishing.
            outaged.fill(false);
            if faults_active {
                for (k, out) in outaged.iter_mut().enumerate() {
                    *out = self.faults.panel_out(k, i, t);
                }
                if !outaged.is_empty() && outaged.iter().all(|&o| o) {
                    outaged[0] = false;
                }
            }
            let outaged_panels = outaged.iter().filter(|&&o| o).count();
            // Outage *edges* (injection and recovery) come from
            // comparing against the previous tick's dark set — the plan
            // itself only answers "dark now?".
            if traced {
                for (k, (&now, &was)) in outaged.iter().zip(prev_outaged.iter()).enumerate() {
                    if now && !was {
                        recorder.emit(TelemetryEvent::FaultInjected {
                            panel: k,
                            kind: "outage",
                        });
                    } else if was && !now {
                        recorder.emit(TelemetryEvent::FaultRecovered { panel: k });
                    }
                }
            }
            prev_outaged.copy_from_slice(&outaged);
            let mut reassignments = 0usize;
            let mut revivals = 0usize;

            if i == 0 {
                // First tick: run the assignment policy and build every
                // persistent structure. All panels search cold, exactly
                // like the static PanelScheduler would.
                assignment =
                    array.assign_with_caches(fleet.fleet(), &self.scheduler.assignment, &caches);
                for (k, responses) in ref_responses.iter_mut().enumerate() {
                    for device in fleet.fleet().devices() {
                        let bits = device.scenario.frequency.0.to_bits();
                        if !responses.iter().any(|(b, _)| *b == bits) {
                            let plan = PanelArray::cache_for(&caches, &array.panels()[k].design)
                                .plan(device.scenario.frequency);
                            let response = SurfaceResponse::new(
                                plan.frequency(),
                                plan.response(REFERENCE_BIAS),
                            );
                            responses.push((bits, response));
                        }
                    }
                }
                ref_links = fleet
                    .fleet()
                    .devices()
                    .iter()
                    .map(|device| {
                        let base = PreparedLink::new(device.scenario.link());
                        array
                            .panels()
                            .iter()
                            .map(|p| {
                                base.with_surface_placement(
                                    p.deployment_for(device.scenario.deployment),
                                )
                            })
                            .collect()
                    })
                    .collect();
                reprepared += fleet.len();
                // A panel dark at t = 0 never receives its sub-fleet:
                // the policy's picks re-home to surviving panels before
                // anything is built on top of the assignment.
                if outaged_panels > 0 {
                    for d in 0..fleet.len() {
                        if outaged[assignment[d]] {
                            assignment[d] = Self::best_surviving_panel(
                                fleet.fleet(),
                                d,
                                &outaged,
                                &ref_links,
                                &ref_responses,
                            );
                            reassignments += 1;
                        }
                    }
                }
                Self::rebuild_panels(
                    fleet.fleet(),
                    array,
                    &caches,
                    &assignment,
                    &mut states,
                    &(0..array.len()).collect::<Vec<_>>(),
                    &self.faults,
                    self.config.churn_baseline,
                );
            } else {
                // Refresh the per-device reference links for the dirty
                // set (the handoff margins live on them); rebinds reuse
                // cached scatter whenever the move allows.
                for &d in &moved {
                    let device = &fleet.fleet().devices()[d];
                    for (k, panel) in array.panels().iter().enumerate() {
                        let mut link = device.scenario.link();
                        link.deployment = panel.deployment_for(device.scenario.deployment);
                        if self.config.churn_baseline {
                            ref_links[d][k] = ref_links[d][k].rebind(link);
                        } else {
                            // Arena path: the prepared slot is reused in
                            // place — a reusable move touches zero heap.
                            ref_links[d][k].rebind_in_place(link);
                        }
                    }
                }
            }
            drop(advance_span);
            if traced {
                recorder.emit(TelemetryEvent::TickPhase {
                    phase: "advance",
                    items: moved.len(),
                });
            }
            let reopt_span = recorder.span("sim.phase.reopt_ns");

            // Fault recovery first: a device stranded on a panel that
            // just went dark re-homes to its best surviving panel
            // immediately — no hysteresis, no dwell; there is nothing to
            // flap back to. The affected panels rebuild like a handoff
            // would, and the move resets the device's dwell streak.
            if i > 0 && outaged_panels > 0 && !fleet.is_empty() {
                let mut changed: Vec<usize> = Vec::new();
                for d in 0..fleet.len() {
                    let cur = assignment[d];
                    if !outaged[cur] {
                        continue;
                    }
                    let target = Self::best_surviving_panel(
                        fleet.fleet(),
                        d,
                        &outaged,
                        &ref_links,
                        &ref_responses,
                    );
                    changed.push(cur);
                    changed.push(target);
                    assignment[d] = target;
                    streaks[d] = (target, 0);
                    reassignments += 1;
                    if traced {
                        recorder.emit(TelemetryEvent::Handoff {
                            device: d,
                            from_panel: cur,
                            to_panel: target,
                        });
                    }
                }
                if !changed.is_empty() {
                    changed.sort_unstable();
                    changed.dedup();
                    reprepared += Self::rebuild_panels(
                        fleet.fleet(),
                        array,
                        &caches,
                        &assignment,
                        &mut states,
                        &changed,
                        &self.faults,
                        self.config.churn_baseline,
                    );
                }
            }

            // Panel revival: the inverse of fault recovery. A parked
            // device never re-enters the handoff loop (its streak is
            // reset every tick it does not move), so once an outage
            // strands a stationary sub-fleet on fallback panels, the
            // healed panel would stay empty forever. Under
            // `RevivalPolicy::Immediate`, any device whose best live
            // panel healed *this tick* re-homes at once — no
            // hysteresis, no dwell; the outage it was dodging is over.
            if i > 0
                && faults_active
                && self.config.handoff.revival == RevivalPolicy::Immediate
                && !fleet.is_empty()
            {
                let healed: Vec<usize> = (0..array.len())
                    .filter(|&k| {
                        !outaged[k] && self.faults.panel_revived(k, i, t, self.config.tick)
                    })
                    .collect();
                if traced {
                    for &k in &healed {
                        recorder.emit(TelemetryEvent::Revival { panel: k });
                    }
                }
                if !healed.is_empty() {
                    let mut changed: Vec<usize> = Vec::new();
                    for d in 0..fleet.len() {
                        let cur = assignment[d];
                        if outaged[cur] {
                            // Fault recovery above already re-homed it.
                            continue;
                        }
                        let target = Self::best_surviving_panel(
                            fleet.fleet(),
                            d,
                            &outaged,
                            &ref_links,
                            &ref_responses,
                        );
                        if target == cur || !healed.contains(&target) {
                            continue;
                        }
                        changed.push(cur);
                        changed.push(target);
                        assignment[d] = target;
                        streaks[d] = (target, 0);
                        revivals += 1;
                        if traced {
                            recorder.emit(TelemetryEvent::Handoff {
                                device: d,
                                from_panel: cur,
                                to_panel: target,
                            });
                        }
                    }
                    if !changed.is_empty() {
                        changed.sort_unstable();
                        changed.dedup();
                        reprepared += Self::rebuild_panels(
                            fleet.fleet(),
                            array,
                            &caches,
                            &assignment,
                            &mut states,
                            &changed,
                            &self.faults,
                            self.config.churn_baseline,
                        );
                    }
                }
            }

            // Handoff decisions: after the first tick, with somewhere to
            // go, and only for devices that actually moved this tick —
            // a parked device keeps its panel no matter how its initial
            // assignment measures up (re-homing static devices is the
            // assignment policy's job at tick 0, and touching them here
            // would break the zero-motion warm==cold contract on
            // distributed arrays). Parked devices also reset their
            // dwell streaks: "dwell" counts consecutive *moving* ticks.
            let mut handoffs = 0usize;
            if i > 0 && array.len() >= 2 && !fleet.is_empty() {
                is_dirty.fill(false);
                for &d in &moved {
                    is_dirty[d] = true;
                }
                let mut changed_panels: Vec<usize> = Vec::new();
                for d in 0..fleet.len() {
                    if !is_dirty[d] {
                        streaks[d] = (assignment[d], 0);
                        continue;
                    }
                    let bits = fleet.fleet().devices()[d].scenario.frequency.0.to_bits();
                    let churn_baseline = self.config.churn_baseline;
                    let power_on = |k: usize| {
                        let response = ref_responses[k]
                            .iter()
                            .find(|(b, _)| *b == bits)
                            .map(|(_, r)| r)
                            .expect("reference responses prebuilt for every carrier");
                        if churn_baseline {
                            // Baseline arm: the allocating path-by-path
                            // probe the engine used before the cache.
                            ref_links[d][k].received_dbm_by_paths(Some(response)).0
                        } else {
                            ref_links[d][k].received_dbm_with(Some(response)).0
                        }
                    };
                    let cur = assignment[d];
                    let cur_power = power_on(cur);
                    let mut preferred = cur;
                    let mut best = f64::NEG_INFINITY;
                    for (k, &out) in outaged.iter().enumerate() {
                        if k == cur || out {
                            continue;
                        }
                        let p = power_on(k);
                        if p > best {
                            best = p;
                            preferred = k;
                        }
                    }
                    if preferred != cur && best - cur_power > self.config.handoff.hysteresis_db {
                        streaks[d] = if streaks[d].0 == preferred {
                            (preferred, streaks[d].1 + 1)
                        } else {
                            (preferred, 1)
                        };
                        if streaks[d].1 >= self.config.handoff.dwell_ticks.max(1) {
                            changed_panels.push(cur);
                            changed_panels.push(preferred);
                            assignment[d] = preferred;
                            streaks[d] = (preferred, 0);
                            handoffs += 1;
                            if traced {
                                recorder.emit(TelemetryEvent::Handoff {
                                    device: d,
                                    from_panel: cur,
                                    to_panel: preferred,
                                });
                            }
                        }
                    } else {
                        streaks[d] = (cur, 0);
                    }
                }
                handoffs_total += handoffs;
                if !changed_panels.is_empty() {
                    changed_panels.sort_unstable();
                    changed_panels.dedup();
                    reprepared += Self::rebuild_panels(
                        fleet.fleet(),
                        array,
                        &caches,
                        &assignment,
                        &mut states,
                        &changed_panels,
                        &self.faults,
                        self.config.churn_baseline,
                    );
                }
            }

            // Incremental link updates for moved devices whose panel
            // membership did not change.
            if i > 0 {
                for &d in &moved {
                    let k = assignment[d];
                    let state = &mut states[k];
                    if state.membership_changed {
                        continue; // just rebuilt from scratch
                    }
                    let sub = state
                        .members
                        .iter()
                        .position(|&m| m == d)
                        .expect("assignment and membership agree");
                    state.subfleet.device_mut(sub).scenario =
                        array.panels()[k].scenario_for(&fleet.fleet().devices()[d].scenario);
                    let member = state.subfleet.devices()[sub].clone();
                    let cheap = state
                        .evaluator
                        .as_mut()
                        .expect("populated panel has an evaluator")
                        .update_device(sub, &member);
                    if cheap {
                        rebound += 1;
                    } else {
                        reprepared += 1;
                    }
                    state.moved = true;
                }
            }

            // Per-panel scheduling: reuse, warm-refine, or cold.
            kinds.clear();
            airtimes.clear();
            let mut panel_outcomes: Vec<FleetOutcome> = Vec::with_capacity(array.len());
            let mut probes = 0usize;
            let mut reports_lost = 0usize;
            let mut reports_exhausted = 0usize;
            let mut psu_glitches = 0usize;
            for (k, state) in states.iter_mut().enumerate() {
                let scheduler = self.scheduler.panel_scheduler(&state.members);
                let (mut outcome, mut kind) = match (&state.evaluator, &state.prev) {
                    (None, _) => (FleetOutcome::empty(scheduler.policy), SearchKind::Reused),
                    (Some(_), Some(prev)) if !state.moved => (prev.clone(), SearchKind::Reused),
                    (Some(evaluator), Some(prev)) => (
                        scheduler.run_warm(&state.subfleet, evaluator, prev, warm),
                        SearchKind::Warm,
                    ),
                    (Some(evaluator), None) => (
                        scheduler.run_with_evaluator(&state.subfleet, evaluator),
                        SearchKind::Cold,
                    ),
                };
                let mut airtime = if kind == SearchKind::Reused {
                    0.0
                } else {
                    outcome.elapsed.0
                };
                if traced && kind != SearchKind::Reused {
                    recorder.emit(TelemetryEvent::SweepSpan {
                        panel: k,
                        kind: if kind == SearchKind::Warm {
                            "warm"
                        } else {
                            "cold"
                        },
                        probes: outcome.probes,
                    });
                }
                if kind != SearchKind::Reused {
                    // The probe bill is spent over the air whether or
                    // not the controller ever hears the scores.
                    probes += outcome.probes;
                    if faults_active {
                        if self.faults.psu_glitch(k, i) {
                            psu_glitches += 1;
                            airtime += self.faults.psu_glitch_settling.0;
                            if traced {
                                recorder.emit(TelemetryEvent::FaultInjected {
                                    panel: k,
                                    kind: "psu_glitch",
                                });
                            }
                        }
                        let fate = self.faults.play_report_retries(k, i);
                        reports_lost += fate.lost;
                        airtime += fate.airtime;
                        if traced && (fate.lost > 0 || fate.exhausted) {
                            recorder.emit(TelemetryEvent::Retry {
                                panel: k,
                                attempt: fate.lost,
                                exhausted: fate.exhausted,
                            });
                        }
                        if fate.exhausted {
                            reports_exhausted += 1;
                            if let Some(prev) = &state.prev {
                                // Every retry lost: the controller never
                                // heard a usable report, so it holds the
                                // last allocation it scored instead of
                                // applying blind biases. (With nothing
                                // to hold — the panel's first search —
                                // the fresh result is applied anyway.)
                                outcome = prev.clone();
                                kind = SearchKind::Reused;
                            }
                        }
                    }
                    if kind != SearchKind::Reused {
                        state.prev = Some(outcome.clone());
                    }
                }
                state.moved = false;
                state.membership_changed = false;
                kinds.push(kind);
                airtimes.push(airtime);
                panel_outcomes.push(outcome);
            }
            drop(reopt_span);
            if traced {
                recorder.emit(TelemetryEvent::TickPhase {
                    phase: "reopt",
                    items: kinds.iter().filter(|k| **k != SearchKind::Reused).count(),
                });
            }

            // Assemble the tick's scheduling decision exactly like the
            // static scheduler does.
            let mut services = vec![None; fleet.len()];
            let mut per_panel = Vec::with_capacity(array.len());
            let mut elapsed = 0.0f64;
            for (k, outcome) in panel_outcomes.into_iter().enumerate() {
                if kinds[k] != SearchKind::Reused {
                    elapsed = elapsed.max(outcome.elapsed.0);
                }
                for (service, &d) in outcome.per_device.iter().zip(&states[k].members) {
                    services[d] = Some(service.clone());
                }
                per_panel.push(PanelAllocation {
                    panel: array.panels()[k].label.clone(),
                    devices: states[k].members.clone(),
                    outcome,
                });
            }
            let per_device: Vec<_> = services
                .into_iter()
                .map(|s| s.expect("every device is assigned to exactly one panel"))
                .collect();
            let mut outcome = PanelOutcome {
                assignment: assignment.clone(),
                per_panel,
                per_device,
                probes,
                elapsed: Seconds(elapsed),
                score: f64::NEG_INFINITY,
                joint: None,
            };
            outcome.score = outcome.min_power_dbm();

            let cold_panels = kinds.iter().filter(|k| **k == SearchKind::Cold).count();
            let warm_panels = kinds.iter().filter(|k| **k == SearchKind::Warm).count();
            let reused_panels = kinds
                .iter()
                .zip(&states)
                .filter(|(k, s)| **k == SearchKind::Reused && s.evaluator.is_some())
                .count();
            let mut tick_out = self.settle_tick(
                fleet.fleet(),
                array,
                &mut states,
                t,
                moved,
                handoffs,
                outcome,
                &airtimes,
                &outaged,
                started,
            );
            tick_out.links_reprepared = reprepared;
            tick_out.links_rebound = rebound;
            tick_out.cold_panels = cold_panels;
            tick_out.warm_panels = warm_panels;
            tick_out.reused_panels = reused_panels;
            tick_out.outaged_panels = outaged_panels;
            tick_out.fault_reassignments = reassignments;
            tick_out.revival_readmissions = revivals;
            tick_out.reports_lost = reports_lost;
            tick_out.reports_exhausted = reports_exhausted;
            tick_out.psu_glitches = psu_glitches;
            wall_total += tick_out.wall_ms;
            out.push(tick_out);
        }
        SimReport {
            ticks: out,
            handoffs: handoffs_total,
            wall_ms: wall_total,
        }
    }

    /// Rebuilds the listed panels' sub-fleets and evaluators from the
    /// current assignment (membership changed: handoff or first tick).
    /// Returns how many links were re-prepared.
    fn rebuild_panels(
        fleet: &Fleet,
        array: &PanelArray,
        caches: &[(&'static str, PlanCache)],
        assignment: &[usize],
        states: &mut [PanelState],
        panels: &[usize],
        faults: &FaultPlan,
        churn_baseline: bool,
    ) -> usize {
        let subfleets = array.subfleets(fleet, assignment);
        let mut reprepared = 0usize;
        for &k in panels {
            let (subfleet, members) = subfleets[k].clone();
            reprepared += subfleet.len();
            states[k].evaluator = if subfleet.is_empty() {
                None
            } else {
                let cache = PanelArray::cache_for(caches, &array.panels()[k].design);
                let mut evaluator = FleetEvaluator::with_plan_cache(&subfleet, cache);
                evaluator.set_reference_batch(churn_baseline);
                // Dead unit-cell columns are a property of the panel
                // hardware, not the sub-fleet: mask them into every
                // evaluator built for this panel so Algorithm 1
                // re-optimizes around the defect.
                let fault = faults.bias_fault(k);
                if !fault.is_healthy() {
                    evaluator.set_bias_fault(Some(fault));
                }
                Some(evaluator)
            };
            states[k].subfleet = subfleet;
            states[k].members = members;
            states[k].prev = None;
            states[k].moved = false;
            states[k].membership_changed = true;
        }
        reprepared
    }

    /// The best surviving panel for a device orphaned by an outage:
    /// argmax of reference power over the live panels (the same
    /// measurement the handoff margins use). The all-panels-out guard
    /// guarantees at least one survivor.
    fn best_surviving_panel(
        fleet: &Fleet,
        d: usize,
        outaged: &[bool],
        ref_links: &[Vec<PreparedLink>],
        ref_responses: &[Vec<(u64, SurfaceResponse)>],
    ) -> usize {
        let bits = fleet.devices()[d].scenario.frequency.0.to_bits();
        let mut best_k = usize::MAX;
        let mut best = f64::NEG_INFINITY;
        for (k, &out) in outaged.iter().enumerate() {
            if out {
                continue;
            }
            let response = ref_responses[k]
                .iter()
                .find(|(b, _)| *b == bits)
                .map(|(_, r)| r)
                .expect("reference responses prebuilt for every carrier");
            let p = ref_links[d][k].received_dbm_with(Some(response)).0;
            if p > best {
                best = p;
                best_k = k;
            }
        }
        assert!(best_k != usize::MAX, "at least one panel survives");
        best_k
    }

    /// PSU billing, served-power evaluation and tick assembly — shared
    /// by both modes. The tick's wall-clock (`started`) is captured
    /// right after the PSU billing: everything up to there is genuine
    /// controller work (advance, handoff, link prep, searching,
    /// switching), while the served-power evaluation below is simulator
    /// *observation* — in a real deployment those powers are measured
    /// over the air, not computed — so billing it would contaminate the
    /// warm-vs-cold comparison (the modes do very different amounts of
    /// bookkeeping to observe the same world).
    #[allow(clippy::too_many_arguments)]
    fn settle_tick(
        &self,
        fleet: &Fleet,
        array: &PanelArray,
        states: &mut [PanelState],
        t: Seconds,
        moved: Vec<usize>,
        handoffs: usize,
        outcome: PanelOutcome,
        airtimes: &[f64],
        outaged: &[bool],
        started: Instant,
    ) -> TickOutcome {
        let recorder = &self.recorder;
        let traced = recorder.enabled();
        let tick_len = self.config.tick.0;
        let mut applied = Vec::with_capacity(array.len());
        let mut panel_duty = Vec::with_capacity(array.len());
        let mut deferred = 0usize;
        let settle_span = recorder.span("sim.phase.settle_ns");
        for (k, state) in states.iter_mut().enumerate() {
            let proposed = outcome.per_panel[k].outcome.shared_bias;
            let (used, d) = settle_psu(state, t.0, tick_len, airtimes[k], proposed);
            deferred += d;
            if traced && d > 0 {
                recorder.emit(TelemetryEvent::PsuSettle {
                    panel: k,
                    deferred: true,
                });
            }
            applied.push(state.applied);
            // A dark panel serves nobody, whatever its rails are doing.
            panel_duty.push(if outaged[k] {
                0.0
            } else {
                (1.0 - used / tick_len).clamp(0.0, 1.0)
            });
        }
        drop(settle_span);
        if traced {
            recorder.emit(TelemetryEvent::TickPhase {
                phase: "settle",
                items: deferred,
            });
        }
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;

        let serve_span = recorder.span("sim.phase.serve_ns");
        // Served powers at the *applied* biases. When a panel's rails
        // already hold the proposed bias, the scheduling outcome's
        // powers ARE the served powers; a deferred change needs a fresh
        // evaluation at the bias still in force.
        let mut served_min = f64::INFINITY;
        let mut throughput = 0.0f64;
        let mut any = false;
        // Cold mode keeps no evaluators; rebuild the sub-fleets at most
        // once per tick for its divergent panels.
        let mut cold_subfleets: Option<Vec<(Fleet, Vec<usize>)>> = None;
        for (k, allocation) in outcome.per_panel.iter().enumerate() {
            if allocation.devices.is_empty() {
                continue;
            }
            let powers: Vec<f64> = if allocation.outcome.shared_bias == Some(applied[k]) {
                allocation
                    .outcome
                    .per_device
                    .iter()
                    .map(|s| s.power_dbm)
                    .collect()
            } else {
                match &states[k].evaluator {
                    Some(e) => e.powers_dbm(applied[k]),
                    None => {
                        let subfleets = cold_subfleets
                            .get_or_insert_with(|| array.subfleets(fleet, &outcome.assignment));
                        FleetEvaluator::new(&subfleets[k].0).powers_dbm(applied[k])
                    }
                }
            };
            for (&d, &power) in allocation.devices.iter().zip(powers.iter()) {
                any = true;
                served_min = served_min.min(power);
                throughput += duty_cycled_throughput(
                    Dbm(power),
                    &fleet.devices()[d].profile.noise,
                    panel_duty[k],
                );
            }
        }
        if !any {
            served_min = f64::NEG_INFINITY;
        }
        drop(serve_span);
        if traced {
            recorder.emit(TelemetryEvent::TickPhase {
                phase: "serve",
                items: fleet.len(),
            });
        }

        TickOutcome {
            t,
            moved,
            handoffs,
            outcome,
            applied,
            panel_duty,
            deferred_switches: deferred,
            links_reprepared: 0,
            links_rebound: 0,
            cold_panels: 0,
            warm_panels: 0,
            reused_panels: 0,
            outaged_panels: 0,
            fault_reassignments: 0,
            revival_readmissions: 0,
            reports_lost: 0,
            reports_exhausted: 0,
            psu_glitches: 0,
            served_min_power_dbm: served_min,
            served_throughput_bits_hz: throughput,
            wall_ms,
        }
    }
}
