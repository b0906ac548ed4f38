//! The centralized controller (paper §3.1/§3.3).
//!
//! Consumes receiver power reports, drives the PSU through Algorithm 1,
//! and converges on the bias state that maximizes link power. Modelled
//! as an explicit state machine so the end-to-end system can step it on
//! a simulation clock, inject lost reports, and audit its timing against
//! the supply's 50 Hz switching budget.

use rfmath::telemetry::{RecorderHandle, TelemetryEvent};
use rfmath::units::{Dbm, Seconds};

use crate::psu::PowerSupply;
use crate::sweep::{GridSearch, Probe, SweepConfig};

/// Controller lifecycle states.
#[derive(Clone, Debug, PartialEq)]
pub enum Phase {
    /// Waiting to be told to optimize.
    Idle,
    /// Mid-sweep: probing combination `next` of the current grid.
    Sweeping {
        /// Index of the next probe in the grid.
        next: usize,
        /// Refinement iteration (0-based).
        iteration: usize,
    },
    /// Sweep finished; the best state is applied and held.
    Converged,
}

/// A power report from the receiver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerReport {
    /// Receiver timestamp.
    pub at: Seconds,
    /// Measured power, dBm.
    pub power_dbm: f64,
}

/// A power report carrying one reading per fleet device — the
/// multi-device generalization of [`PowerReport`]. A single-link system
/// sends one-element reports.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetReport {
    /// Receiver-side timestamp.
    pub at: Seconds,
    /// Per-device measured powers, dBm, in fleet order.
    pub powers_dbm: Vec<f64>,
}

impl From<PowerReport> for FleetReport {
    fn from(r: PowerReport) -> Self {
        FleetReport {
            at: r.at,
            powers_dbm: vec![r.power_dbm],
        }
    }
}

/// How the controller folds a (possibly multi-device) report into the
/// scalar metric Algorithm 1 maximizes.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum Objective {
    /// Classic single link: score = the first (only) reading.
    #[default]
    SingleLink,
    /// Max-min fairness: score = the worst device's power.
    WorstLink,
    /// Access control: score = favored device minus the best other.
    Isolation {
        /// Index of the favored device in the report vector.
        favored: usize,
    },
}

impl Objective {
    /// Folds a report's power vector into the sweep metric. Returns
    /// `None` when the report is unusable — empty, non-finite readings
    /// from a corrupted packet, or (for `Isolation`, which references a
    /// specific index) too short to score. The objective alone cannot
    /// know the fleet size, so `SingleLink`/`WorstLink` score any
    /// non-empty finite vector; set [`Controller::expected_devices`]
    /// to reject truncated or padded reports outright. A `None` makes
    /// the controller treat the report as lost and retry the probe.
    pub fn score(&self, powers_dbm: &[f64]) -> Option<f64> {
        if powers_dbm.is_empty() || powers_dbm.iter().any(|p| !p.is_finite()) {
            return None;
        }
        match self {
            Objective::SingleLink => Some(powers_dbm[0]),
            Objective::WorstLink => Some(powers_dbm.iter().copied().fold(f64::INFINITY, f64::min)),
            Objective::Isolation { favored } => {
                if *favored >= powers_dbm.len() || powers_dbm.len() < 2 {
                    return None;
                }
                let others = powers_dbm
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i != favored)
                    .map(|(_, &p)| p)
                    .fold(f64::NEG_INFINITY, f64::max);
                Some(powers_dbm[*favored] - others)
            }
        }
    }

    /// [`Objective::score`] of the same powers given in linear
    /// milliwatts, bit for bit: a reading is usable when its level is
    /// finite (`0 < mw < ∞`), and the fold runs in linear power and
    /// converts only its result. [`Dbm::from_mw`] never decreases
    /// (property-tested), so `WorstLink` converts the weakest power once
    /// and `Isolation` converts two: the favored device's and the
    /// strongest of the others.
    pub fn score_mw(&self, powers_mw: &[f64]) -> Option<f64> {
        if powers_mw.is_empty() || powers_mw.iter().any(|&p| !(p > 0.0 && p < f64::INFINITY)) {
            return None;
        }
        let dbm = |mw: f64| Dbm::from_mw(mw).0;
        match self {
            Objective::SingleLink => Some(dbm(powers_mw[0])),
            Objective::WorstLink => {
                Some(dbm(powers_mw.iter().copied().fold(f64::INFINITY, f64::min)))
            }
            Objective::Isolation { favored } => {
                if *favored >= powers_mw.len() || powers_mw.len() < 2 {
                    return None;
                }
                let others = powers_mw
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i != favored)
                    .map(|(_, &p)| p)
                    .fold(f64::NEG_INFINITY, f64::max);
                Some(dbm(powers_mw[*favored]) - dbm(others))
            }
        }
    }

    /// Scores a whole [`FleetReport`] under this objective, applying the
    /// full admission rule the controller enforces: the vector must be
    /// non-empty and finite, scoreable by the objective, *and* match the
    /// expected arity when one is given. `None` means the report must be
    /// rejected (treated like a lost packet and retried) — the exact
    /// corrupt-report rule [`Controller::step_fleet`] applies, exposed so
    /// other report consumers ([`crate::server::FleetServer`] ingest
    /// paths) inherit it instead of re-deriving it.
    pub fn score_report(
        &self,
        expected_devices: Option<usize>,
        report: &FleetReport,
    ) -> Option<f64> {
        let arity_ok = expected_devices
            .map(|n| report.powers_dbm.len() == n)
            .unwrap_or(true);
        if !arity_ok {
            return None;
        }
        self.score(&report.powers_dbm)
    }
}

/// Bounded retry with exponential backoff for lost probe reports.
///
/// The controller retries an unanswered probe at most `max_attempts`
/// times, widening the report-timeout window by `backoff`× after each
/// loss; a probe that exhausts its attempts is *abandoned* (scored
/// `-∞` so it can never win the sweep) instead of retried forever —
/// the unbounded-retry behavior this replaces would spin indefinitely
/// on a dead receiver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Report deliveries attempted per probe before abandoning it
    /// (values below 1 behave as 1).
    pub max_attempts: usize,
    /// Multiplier applied to the report timeout after each lost
    /// attempt (exponential backoff; 1.0 keeps the window fixed).
    pub backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            backoff: 2.0,
        }
    }
}

impl RetryPolicy {
    /// The timeout window for 0-based attempt `attempt`, starting from
    /// `base` and widening by the backoff factor each retry.
    pub fn timeout_for(&self, base: Seconds, attempt: usize) -> Seconds {
        Seconds(base.0 * self.backoff.powi(attempt.min(30) as i32))
    }
}

/// Events the controller emits for logging/diagnosis.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A sweep started with this many planned probes.
    SweepStarted(usize),
    /// A probe's bias state was applied.
    Applied(Probe),
    /// A probe was scored from a report.
    Scored(Probe, f64),
    /// An iteration's scores were handed to the search.
    Refined {
        /// Iteration that just finished.
        iteration: usize,
        /// The running winner over every iteration so far: the first
        /// probe to reach the best score, which the next window centres
        /// on (the supply's low corner while nothing has scored).
        winner: Probe,
    },
    /// The controller converged on its final state.
    Converged(Probe, f64),
    /// A probe timed out waiting for a report and was retried.
    ReportTimeout(Probe),
    /// A report arrived but was unusable — empty, non-finite readings
    /// from a corrupt packet, or a vector length that contradicts
    /// [`Controller::expected_devices`]; the probe stays unscored and
    /// will time out and retry.
    ReportRejected(Probe),
    /// A probe exhausted its [`RetryPolicy`] attempts without a usable
    /// report and was written off (scored `-∞`, never the winner).
    ProbeAbandoned(Probe),
    /// Every probe of the final iteration was abandoned: the sweep has
    /// no winner to hold, so the controller converges empty-handed
    /// (leaving whatever bias the rails already carry) instead of
    /// panicking or retrying forever.
    SweepFailed,
}

/// The centralized controller.
#[derive(Clone, Debug)]
pub struct Controller {
    /// Sweep strategy parameters.
    pub config: SweepConfig,
    /// How long to wait for a report before retrying a probe.
    pub report_timeout: Seconds,
    /// How report vectors are folded into the sweep metric (single link
    /// by default; fleet deployments pick a multi-device objective).
    pub objective: Objective,
    /// Expected report arity. When set, a report whose vector length
    /// differs (a truncated or padded packet) is rejected onto the
    /// retry path instead of being scored over the wrong device set —
    /// `WorstLink` over a truncated report would silently ignore the
    /// missing (possibly worst) devices. `None` accepts any length the
    /// objective itself can score.
    pub expected_devices: Option<usize>,
    /// Bounded retry/backoff applied to lost or rejected reports. The
    /// default (4 attempts, 2× backoff) tolerates the occasional lost
    /// packet while guaranteeing the sweep terminates even against a
    /// receiver that never answers.
    pub retry: RetryPolicy,
    /// Telemetry sink (null by default). Probe applications, scores,
    /// rejections, timeouts and abandonments tick counters; retries
    /// additionally emit [`TelemetryEvent::Retry`] tagged with
    /// [`Controller::telemetry_id`].
    pub recorder: RecorderHandle,
    /// Identity stamped into this controller's telemetry events (the
    /// panel or fleet index it drives); 0 when unset.
    pub telemetry_id: usize,
    phase: Phase,
    /// Algorithm 1, fed one iteration of scores at a time.
    search: GridSearch,
    /// Scores of the current grid's probes: `None` until a usable
    /// report arrives, `-∞` once abandoned.
    scores: Vec<Option<f64>>,
    applied_at: Option<Seconds>,
    /// Lost deliveries of the probe currently awaiting a report.
    attempts: usize,
    events: Vec<Event>,
    /// Wall-clock anchor of the running sweep, for the convergence span.
    sweep_started: Option<std::time::Instant>,
}

impl Controller {
    /// Creates a controller with the paper's sweep defaults.
    ///
    /// # Panics
    /// Panics on a sweep configuration [`GridSearch::cold`] refuses: no
    /// iteration, fewer than two steps per axis or a non-finite range.
    pub fn new(config: SweepConfig) -> Self {
        Self {
            config,
            report_timeout: Seconds(0.1),
            objective: Objective::SingleLink,
            expected_devices: None,
            retry: RetryPolicy::default(),
            recorder: RecorderHandle::null(),
            telemetry_id: 0,
            phase: Phase::Idle,
            search: GridSearch::cold(&config),
            scores: Vec::new(),
            applied_at: None,
            attempts: 0,
            events: Vec::new(),
            sweep_started: None,
        }
    }

    /// Attaches a telemetry recorder, tagging this controller's events
    /// with `id` (the panel or fleet index it drives).
    pub fn with_recorder(mut self, recorder: RecorderHandle, id: usize) -> Self {
        self.recorder = recorder;
        self.telemetry_id = id;
        self
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> &Phase {
        &self.phase
    }

    /// The best (probe, power) found so far: the first probe to reach
    /// the best score, counting the running iteration's scored probes.
    /// `None` while every probe is unscored or abandoned.
    pub fn best(&self) -> Option<(Probe, f64)> {
        let mut best = self.search.leader();
        // The running iteration's scores reach the search only once the
        // iteration is complete.
        if let Some(grid) = self.search.grid() {
            for (&probe, score) in grid.iter().zip(&self.scores) {
                if let Some(s) = *score {
                    if s > best.1 {
                        best = (probe, s);
                    }
                }
            }
        }
        (best.1 > f64::NEG_INFINITY).then_some(best)
    }

    /// Probe `i` of the current grid.
    fn planned(&self, i: usize) -> Probe {
        self.search.grid().expect("a probe is pending")[i]
    }

    /// Clears the scores for the search's next grid.
    fn reset_scores(&mut self) {
        let n = self.search.grid().map_or(0, <[Probe]>::len);
        self.scores.clear();
        self.scores.resize(n, None);
    }

    /// Emitted event log.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Begins an optimization: plans the first iteration's grid.
    ///
    /// # Panics
    /// Panics when [`GridSearch::cold`] refuses [`Controller::config`].
    pub fn start(&mut self) {
        self.search = GridSearch::cold(&self.config);
        self.attempts = 0;
        self.reset_scores();
        self.events.push(Event::SweepStarted(
            self.scores.len() * self.config.iterations,
        ));
        self.recorder.add("controller.sweeps_started", 1);
        if self.recorder.enabled() {
            self.sweep_started = Some(std::time::Instant::now());
        }
        self.phase = Phase::Sweeping {
            next: 0,
            iteration: 0,
        };
    }

    /// Closes the convergence span opened by [`Controller::start`],
    /// recording the sweep's wall time into the duration histogram.
    fn close_sweep_span(&mut self) {
        if let Some(started) = self.sweep_started.take() {
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.recorder.duration_ns("controller.sweep_ns", nanos);
        }
    }

    /// Advances the controller at simulation time `now` with an optional
    /// single-link receiver report. Applies bias states to the PSU as
    /// the switching budget allows. Call repeatedly from the simulation
    /// loop. This is [`Controller::step_fleet`] with a one-element
    /// report vector.
    pub fn step(&mut self, psu: &mut PowerSupply, now: Seconds, report: Option<PowerReport>) {
        self.step_fleet(psu, now, report.map(FleetReport::from));
    }

    /// Advances the controller with an optional multi-device report,
    /// scored through the configured [`Objective`]. Unusable reports
    /// (corrupt readings, wrong arity) are rejected and the probe
    /// retried via the timeout path, exactly like a lost packet.
    pub fn step_fleet(&mut self, psu: &mut PowerSupply, now: Seconds, report: Option<FleetReport>) {
        let Phase::Sweeping { next, iteration } = self.phase.clone() else {
            return;
        };

        // Score the pending probe from a report, if one arrived after the
        // bias was applied (plus settling).
        if let (Some(applied_at), Some(rep)) = (self.applied_at, report) {
            if rep.at.0 >= applied_at.0 + psu.settling.0 && next > 0 {
                let probe_idx = next - 1;
                if self.scores[probe_idx].is_none() {
                    let score = self.objective.score_report(self.expected_devices, &rep);
                    match score {
                        Some(score) => {
                            self.scores[probe_idx] = Some(score);
                            self.attempts = 0;
                            self.events
                                .push(Event::Scored(self.planned(probe_idx), score));
                            self.recorder.add("controller.probes_scored", 1);
                        }
                        None => {
                            self.events
                                .push(Event::ReportRejected(self.planned(probe_idx)));
                            self.recorder.add("controller.reports_rejected", 1);
                        }
                    }
                }
            }
        }

        // Retry a probe whose report never came — bounded, with the
        // timeout window widening by the backoff factor each loss. A
        // probe that exhausts its attempts is abandoned (scored -∞) so
        // the sweep always terminates.
        if let Some(applied_at) = self.applied_at {
            let window = self.retry.timeout_for(self.report_timeout, self.attempts);
            if next > 0 && self.scores[next - 1].is_none() && now.0 - applied_at.0 > window.0 {
                self.events
                    .push(Event::ReportTimeout(self.planned(next - 1)));
                self.attempts += 1;
                self.recorder.add("controller.report_timeouts", 1);
                let exhausted = self.attempts >= self.retry.max_attempts.max(1);
                if self.recorder.enabled() {
                    self.recorder.emit(TelemetryEvent::Retry {
                        panel: self.telemetry_id,
                        attempt: self.attempts,
                        exhausted,
                    });
                }
                if exhausted {
                    self.scores[next - 1] = Some(f64::NEG_INFINITY);
                    self.events
                        .push(Event::ProbeAbandoned(self.planned(next - 1)));
                    self.recorder.add("controller.probes_abandoned", 1);
                    self.attempts = 0;
                    self.applied_at = None;
                    // Fall through: the sweep moves on to the next probe
                    // (or closes the iteration) this same step.
                } else {
                    // Re-apply the same probe (by rewinding `next`).
                    self.phase = Phase::Sweeping {
                        next: next - 1,
                        iteration,
                    };
                    self.applied_at = None;
                    return;
                }
            }
        }

        // Move on only when the previous probe has been scored.
        if next > 0 && self.scores[next - 1].is_none() {
            return;
        }

        if next < self.scores.len() {
            // Apply the next probe when the PSU allows.
            if now.0 >= psu.next_switch_time().0 {
                let probe = self.planned(next);
                if psu.set_bias(probe.vx, probe.vy, now).is_ok() {
                    self.applied_at = Some(now);
                    self.events.push(Event::Applied(probe));
                    self.recorder.add("controller.probes_applied", 1);
                    self.phase = Phase::Sweeping {
                        next: next + 1,
                        iteration,
                    };
                }
            }
            return;
        }

        // Iteration complete: hand its scores to the search, then probe
        // the next grid or converge.
        if self.search.grid().is_some() {
            let rows = self
                .scores
                .iter()
                .map(|s| vec![s.expect("every probe scored")])
                .collect();
            self.search.take(rows, &|m: &[f64]| m[0]);
            let (winner, _) = self.search.leader();
            self.events.push(Event::Refined { iteration, winner });
            if self.search.grid().is_some() {
                self.reset_scores();
                self.applied_at = None;
                self.phase = Phase::Sweeping {
                    next: 0,
                    iteration: iteration + 1,
                };
                return;
            }
        }
        match self.best() {
            Some((best_probe, best_power)) => {
                // Hold the winner: apply it as the final state.
                if now.0 >= psu.next_switch_time().0
                    && psu.set_bias(best_probe.vx, best_probe.vy, now).is_ok()
                {
                    self.events.push(Event::Converged(best_probe, best_power));
                    self.recorder.add("controller.sweeps_converged", 1);
                    self.close_sweep_span();
                    self.phase = Phase::Converged;
                }
            }
            None => {
                // Every probe was abandoned (a dead receiver): there
                // is no winner to hold. Converge empty-handed — the
                // rails keep whatever bias the last applied probe
                // left — rather than panic or spin forever.
                self.events.push(Event::SweepFailed);
                self.recorder.add("controller.sweeps_failed", 1);
                self.close_sweep_span();
                self.phase = Phase::Converged;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the controller against a synthetic power function until it
    /// converges; reports arrive `report_delay` after each application,
    /// and every `lose_every`-th report is dropped.
    fn run(
        power: impl Fn(Probe) -> f64,
        lose_every: Option<usize>,
    ) -> (Controller, PowerSupply, f64) {
        let mut ctl = Controller::new(SweepConfig::paper_default());
        let mut psu = PowerSupply::tektronix_2230g();
        psu.execute("OUTP ON", Seconds(0.0));
        ctl.start();
        let mut now = 0.0;
        let mut pending: Option<(f64, PowerReport)> = None;
        let mut report_counter = 0usize;
        for _ in 0..100_000 {
            if ctl.phase() == &Phase::Converged {
                break;
            }
            let deliver = pending.filter(|(due, _)| *due <= now).map(|(_, r)| r);
            if deliver.is_some() {
                pending = None;
            }
            let before_applied = ctl.applied_at;
            ctl.step(&mut psu, Seconds(now), deliver);
            // A new application generates a report after 8 ms.
            if ctl.applied_at != before_applied {
                if let Some(Event::Applied(p)) = ctl.events().last() {
                    report_counter += 1;
                    let lost = lose_every.map(|k| report_counter % k == 0).unwrap_or(false);
                    if !lost {
                        pending = Some((
                            now + 0.008,
                            PowerReport {
                                at: Seconds(now + 0.008),
                                power_dbm: power(*p),
                            },
                        ));
                    }
                }
            }
            now += 0.002;
        }
        (ctl, psu, now)
    }

    fn bump(p: Probe) -> f64 {
        let dx = p.vx.0 - 18.0;
        let dy = p.vy.0 - 9.0;
        -30.0 - 0.05 * (dx * dx + dy * dy)
    }

    #[test]
    fn converges_to_the_peak() {
        let (ctl, _, _) = run(bump, None);
        assert_eq!(ctl.phase(), &Phase::Converged);
        let (best, _) = ctl.best().unwrap();
        assert!((best.vx.0 - 18.0).abs() < 2.0, "vx = {:?}", best.vx);
        assert!((best.vy.0 - 9.0).abs() < 2.0, "vy = {:?}", best.vy);
    }

    #[test]
    fn convergence_time_is_near_paper_budget() {
        // 50 probes at ≥20 ms each plus report latency: a couple of
        // seconds, in the same regime as the paper's ~1 s estimate (they
        // ignore report latency).
        let (_, psu, elapsed) = run(bump, None);
        assert!(elapsed < 5.0, "took {elapsed:.2} s");
        assert!(psu.switch_count >= 50, "switches = {}", psu.switch_count);
    }

    #[test]
    fn psu_rate_limit_respected() {
        let (_, psu, elapsed) = run(bump, None);
        // 51 switches at ≥ 20 ms spacing cannot finish faster than 1 s.
        assert!(elapsed >= psu.switch_count as f64 * 0.02 * 0.9);
    }

    #[test]
    fn recovers_from_lost_reports() {
        let (ctl, _, _) = run(bump, Some(7));
        assert_eq!(ctl.phase(), &Phase::Converged);
        assert!(
            ctl.events()
                .iter()
                .any(|e| matches!(e, Event::ReportTimeout(_))),
            "timeouts should have been logged"
        );
        let (best, _) = ctl.best().unwrap();
        assert!((best.vx.0 - 18.0).abs() < 2.5);
    }

    #[test]
    fn event_log_tells_the_story() {
        let (ctl, _, _) = run(bump, None);
        let events = ctl.events();
        assert!(matches!(events[0], Event::SweepStarted(50)));
        // One refinement per iteration, even while the hold waits for
        // a switching slot.
        let refined: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                Event::Refined { iteration, .. } => Some(*iteration),
                _ => None,
            })
            .collect();
        assert_eq!(refined, vec![0, 1]);
        assert!(matches!(events.last(), Some(Event::Converged(..))));
    }

    /// Event-steps a fleet controller against a synthetic per-device
    /// power function; `mangle` can corrupt or drop report `k`.
    fn run_fleet(
        objective: Objective,
        power: impl Fn(Probe) -> Vec<f64>,
        mangle: impl Fn(usize, FleetReport) -> Option<FleetReport>,
    ) -> Controller {
        let mut ctl = Controller::new(SweepConfig::paper_default());
        ctl.objective = objective;
        let mut psu = PowerSupply::tektronix_2230g();
        psu.execute("OUTP ON", Seconds(0.0));
        ctl.start();
        let mut now = 0.0;
        let mut pending: Option<(f64, FleetReport)> = None;
        let mut counter = 0usize;
        for _ in 0..200_000 {
            if ctl.phase() == &Phase::Converged {
                break;
            }
            let deliver = pending
                .clone()
                .filter(|(due, _)| *due <= now)
                .map(|(_, r)| r);
            if deliver.is_some() {
                pending = None;
            }
            let before_applied = ctl.applied_at;
            ctl.step_fleet(&mut psu, Seconds(now), deliver);
            if ctl.applied_at != before_applied {
                if let Some(Event::Applied(p)) = ctl.events().last() {
                    counter += 1;
                    let report = FleetReport {
                        at: Seconds(now + 0.008),
                        powers_dbm: power(*p),
                    };
                    pending = mangle(counter, report).map(|r| (now + 0.008, r));
                }
            }
            now += 0.002;
        }
        ctl
    }

    fn two_bumps(p: Probe) -> Vec<f64> {
        let d1 = (p.vx.0 - 8.0).powi(2) + (p.vy.0 - 8.0).powi(2);
        let d2 = (p.vx.0 - 22.0).powi(2) + (p.vy.0 - 22.0).powi(2);
        vec![-40.0 - 0.05 * d1, -40.0 - 0.05 * d2]
    }

    #[test]
    fn worst_link_objective_finds_the_compromise() {
        let ctl = run_fleet(Objective::WorstLink, two_bumps, |_, r| Some(r));
        assert_eq!(ctl.phase(), &Phase::Converged);
        let (best, _) = ctl.best().unwrap();
        // Max-min of two symmetric bumps sits midway, not on a peak.
        assert!(
            (best.vx.0 - 15.0).abs() < 3.0 && (best.vy.0 - 15.0).abs() < 3.0,
            "best = {best:?}"
        );
    }

    #[test]
    fn corrupt_reports_are_rejected_then_retried() {
        // Every 5th report arrives with a NaN reading (decoded from a
        // corrupted packet): the controller must reject it, retry the
        // probe, and still converge on the true peak.
        let ctl = run_fleet(
            Objective::SingleLink,
            |p| vec![bump(p)],
            |k, mut r| {
                if k % 5 == 0 {
                    r.powers_dbm[0] = f64::NAN;
                }
                Some(r)
            },
        );
        assert_eq!(ctl.phase(), &Phase::Converged);
        assert!(
            ctl.events()
                .iter()
                .any(|e| matches!(e, Event::ReportRejected(_))),
            "rejections should have been logged"
        );
        let (best, score) = ctl.best().unwrap();
        assert!(score.is_finite(), "corrupt readings must never be scored");
        assert!((best.vx.0 - 18.0).abs() < 2.5, "best = {best:?}");
    }

    #[test]
    fn dropped_fleet_reports_time_out_and_retry() {
        let ctl = run_fleet(Objective::WorstLink, two_bumps, |k, r| {
            if k % 6 == 0 {
                None
            } else {
                Some(r)
            }
        });
        assert_eq!(ctl.phase(), &Phase::Converged);
        assert!(ctl
            .events()
            .iter()
            .any(|e| matches!(e, Event::ReportTimeout(_))));
    }

    #[test]
    fn dead_receiver_abandons_probes_and_terminates() {
        // Every report is lost. The unbounded-retry controller would
        // spin on probe 0 forever; the bounded policy must abandon each
        // probe after max_attempts losses and converge empty-handed.
        let ctl = run_fleet(Objective::WorstLink, two_bumps, |_, _| None);
        assert_eq!(ctl.phase(), &Phase::Converged);
        assert!(ctl.best().is_none(), "nothing was ever scored");
        let abandoned = ctl
            .events()
            .iter()
            .filter(|e| matches!(e, Event::ProbeAbandoned(_)))
            .count();
        let timeouts = ctl
            .events()
            .iter()
            .filter(|e| matches!(e, Event::ReportTimeout(_)))
            .count();
        // 2 iterations × 25 probes, each abandoned after exactly
        // max_attempts timeouts.
        assert_eq!(abandoned, 50);
        assert_eq!(timeouts, abandoned * RetryPolicy::default().max_attempts);
        assert!(
            matches!(ctl.events().last(), Some(Event::SweepFailed)),
            "the failed sweep must be logged"
        );
    }

    #[test]
    fn backoff_widens_the_retry_window() {
        let retry = RetryPolicy::default();
        let base = Seconds(0.1);
        assert_eq!(retry.timeout_for(base, 0), Seconds(0.1));
        assert_eq!(retry.timeout_for(base, 1), Seconds(0.2));
        assert_eq!(retry.timeout_for(base, 2), Seconds(0.4));
        let fixed = RetryPolicy {
            max_attempts: 3,
            backoff: 1.0,
        };
        assert_eq!(fixed.timeout_for(base, 5), base);
    }

    #[test]
    fn a_single_dead_probe_is_abandoned_but_the_sweep_still_wins() {
        // One probe's reports are lost on every delivery attempt (the
        // probe first applied at k = 3 is re-applied at k = 4, 5, 6 as
        // it retries): it must be abandoned while every other probe
        // scores normally, and the sweep converges on the true peak.
        let ctl = run_fleet(
            Objective::SingleLink,
            |p| vec![bump(p)],
            |k, r| if (3..=6).contains(&k) { None } else { Some(r) },
        );
        assert_eq!(ctl.phase(), &Phase::Converged);
        assert!(ctl
            .events()
            .iter()
            .any(|e| matches!(e, Event::ProbeAbandoned(_))));
        let (best, score) = ctl.best().unwrap();
        assert!(score.is_finite());
        assert!((best.vx.0 - 18.0).abs() < 2.5, "best = {best:?}");
    }

    #[test]
    fn empty_and_wrong_arity_reports_are_unusable() {
        assert_eq!(Objective::SingleLink.score(&[]), None);
        assert_eq!(Objective::WorstLink.score(&[f64::INFINITY]), None);
        assert_eq!(
            Objective::Isolation { favored: 2 }.score(&[-40.0, -50.0]),
            None
        );
        assert_eq!(Objective::Isolation { favored: 0 }.score(&[-40.0]), None);
        assert_eq!(
            Objective::Isolation { favored: 0 }.score(&[-40.0, -52.0]),
            Some(12.0)
        );
        assert_eq!(Objective::WorstLink.score(&[-40.0, -52.0]), Some(-52.0));
        assert_eq!(Objective::SingleLink.score(&[-33.0, -99.0]), Some(-33.0));
    }

    #[test]
    fn linear_scores_are_the_scores_of_the_converted_powers() {
        let rows: [&[f64]; 6] = [
            &[],
            &[1e-4, 0.0],
            &[1e-4, f64::NAN],
            &[1e-4, f64::INFINITY],
            &[1e-4, 6.3e-6],
            &[2.5e-7, 1e-4, 1e-4],
        ];
        for objective in [
            Objective::SingleLink,
            Objective::WorstLink,
            Objective::Isolation { favored: 0 },
            Objective::Isolation { favored: 2 },
        ] {
            for mw in rows {
                let dbm: Vec<f64> = mw.iter().map(|&p| Dbm::from_mw(p).0).collect();
                let want = objective.score(&dbm).map(f64::to_bits);
                assert_eq!(objective.score_mw(mw).map(f64::to_bits), want, "{mw:?}");
            }
        }
    }

    #[test]
    fn arity_mismatch_is_rejected_when_expected_devices_set() {
        let mut ctl = Controller::new(SweepConfig::paper_default());
        ctl.objective = Objective::WorstLink;
        ctl.expected_devices = Some(2);
        let mut psu = PowerSupply::tektronix_2230g();
        psu.execute("OUTP ON", Seconds(0.0));
        ctl.start();
        let mut now = 0.0;
        while !matches!(ctl.events().last(), Some(Event::Applied(_))) && now < 1.0 {
            now += 0.002;
            ctl.step_fleet(&mut psu, Seconds(now), None);
        }
        // A truncated (1-element) report would be happily scored by
        // WorstLink alone; the expected arity must veto it.
        let report_at = Seconds(now + 0.05);
        ctl.step_fleet(
            &mut psu,
            report_at,
            Some(FleetReport {
                at: report_at,
                powers_dbm: vec![-40.0],
            }),
        );
        assert!(matches!(
            ctl.events().last(),
            Some(Event::ReportRejected(_))
        ));
        assert!(ctl.best().is_none());
        // A full-arity report for the same probe scores normally.
        let report_at = Seconds(now + 0.06);
        ctl.step_fleet(
            &mut psu,
            report_at,
            Some(FleetReport {
                at: report_at,
                powers_dbm: vec![-40.0, -50.0],
            }),
        );
        // (The same step may already apply the next probe, so scan the
        // log rather than peeking at the last event.)
        assert!(ctl
            .events()
            .iter()
            .any(|e| matches!(e, Event::Scored(_, s) if *s == -50.0)));
        assert_eq!(ctl.best().unwrap().1, -50.0);
    }

    #[test]
    fn scalar_step_is_the_one_element_fleet_case() {
        let (scalar_ctl, _, _) = run(bump, None);
        let fleet_ctl = run_fleet(Objective::SingleLink, |p| vec![bump(p)], |_, r| Some(r));
        assert_eq!(scalar_ctl.best().unwrap().0, fleet_ctl.best().unwrap().0);
        assert_eq!(scalar_ctl.best().unwrap().1, fleet_ctl.best().unwrap().1);
    }

    #[test]
    #[should_panic(expected = "at least two steps per axis")]
    fn a_one_step_grid_is_refused() {
        // One step per axis would plan 0/0 = NaN probes.
        let _ = Controller::new(SweepConfig {
            steps_per_axis: 1,
            ..SweepConfig::paper_default()
        });
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn a_sweep_without_iterations_is_refused() {
        let _ = Controller::new(SweepConfig {
            iterations: 0,
            ..SweepConfig::paper_default()
        });
    }

    #[test]
    #[should_panic(expected = "supply range must be finite")]
    fn a_non_finite_supply_range_is_refused() {
        // The supply refuses NaN setpoints, so a controller planning
        // them would never apply a probe and never converge.
        let _ = Controller::new(SweepConfig {
            v_max: rfmath::units::Volts(f64::NAN),
            ..SweepConfig::paper_default()
        });
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn start_refuses_a_config_changed_after_new() {
        let mut ctl = Controller::new(SweepConfig::paper_default());
        ctl.config.iterations = 0;
        ctl.start();
    }

    #[test]
    fn idle_controller_ignores_steps() {
        let mut ctl = Controller::new(SweepConfig::paper_default());
        let mut psu = PowerSupply::tektronix_2230g();
        ctl.step(&mut psu, Seconds(1.0), None);
        assert_eq!(ctl.phase(), &Phase::Idle);
        assert!(ctl.events().is_empty());
    }
}
