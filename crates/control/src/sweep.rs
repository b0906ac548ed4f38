//! Biasing-voltage sweep strategies — the paper's Algorithm 1.
//!
//! A full 1 V-step scan of the (Vx, Vy) plane takes ~30 s at the
//! supply's 50 Hz switching budget, too slow for real-time use. The
//! paper's answer is a coarse-to-fine search: `N` iterations, each
//! sweeping `T` values per axis inside the window selected by the
//! previous iteration. The time cost per iteration is `0.02·T²` seconds
//! (both axes swept jointly), so the whole search costs `0.02·N·T²` —
//! with the paper's `N = 2, T = 5` that is one second instead of thirty.
//!
//! **One search, every caller.** [`GridSearch`] holds Algorithm 1's
//! state between iterations: it yields a grid, takes the grid's rows,
//! and only then yields the next grid. It opens [cold](GridSearch::cold)
//! over the full supply range or [warm](GridSearch::warm) around a
//! carried-over bias; both narrow their window by the same rule, and
//! every grid comes from [`grid_points`]. Its callers differ only in
//! how they measure a grid:
//!
//! * [`GridSearch::run`] hands `measure` the iteration's whole grid as
//!   one `&[Probe]` and takes back one metric row per probe, in the same
//!   order (the fleet scheduler's warm ticks, the joint panel descent,
//!   the single-link system, [`coarse_to_fine_multi`]). A batch kernel
//!   answers a grid in one call; a caller that must measure serially (a
//!   noisy receiver, a coupled field) loops over the slice in order.
//! * The panel scheduler advances many searches round by round and
//!   measures every live search's grid in one batch. A search's outcome
//!   depends only on its own rows, so the lockstep schedule is bitwise
//!   the one-at-a-time schedule.
//! * The event-stepped [`Controller`](crate::controller::Controller)
//!   applies one probe per switching slot, collects the iteration's
//!   asynchronous report scores and hands them over when the iteration
//!   is complete.
//!
//! Within an iteration the `T×T` grid is fixed before any probe returns;
//! only the window moves, and only between iterations. So visit order,
//! winner selection (the first probe to reach the best score wins),
//! airtime billing and `history` are exactly those of a probe-by-probe
//! loop, whoever drives the search.

use rfmath::telemetry::{RecorderHandle, TelemetryEvent};
use rfmath::units::{Seconds, Volts};

/// Parameters of Algorithm 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepConfig {
    /// Number of refinement iterations (paper: 2).
    pub iterations: usize,
    /// Voltage points per axis per iteration (paper: 5).
    pub steps_per_axis: usize,
    /// Overall voltage range swept in the first iteration.
    pub v_min: Volts,
    /// Upper end of the first-iteration range.
    pub v_max: Volts,
    /// Time budget per voltage switch (the supply's period).
    pub switch_period: Seconds,
}

impl SweepConfig {
    /// The paper's configuration: N = 2, T = 5 over 0–30 V at 50 Hz.
    pub fn paper_default() -> Self {
        Self {
            iterations: 2,
            steps_per_axis: 5,
            v_min: Volts(0.0),
            v_max: Volts(30.0),
            switch_period: Seconds(0.02),
        }
    }

    /// An exhaustive 1 V-step full scan (the slow baseline).
    pub fn full_scan() -> Self {
        Self {
            iterations: 1,
            steps_per_axis: 31,
            v_min: Volts(0.0),
            v_max: Volts(30.0),
            switch_period: Seconds(0.02),
        }
    }

    /// Predicted sweep duration: `period · N · T²`.
    pub fn predicted_duration(&self) -> Seconds {
        Seconds(
            self.switch_period.0
                * self.iterations as f64
                * (self.steps_per_axis * self.steps_per_axis) as f64,
        )
    }
}

/// One probe the sweep asks the system to make: set this bias, then
/// report the received power.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Probe {
    /// X-rail voltage to apply.
    pub vx: Volts,
    /// Y-rail voltage to apply.
    pub vy: Volts,
}

/// Outcome of a completed sweep.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// The winning bias combination.
    pub best: Probe,
    /// Power observed at the winner (caller's units, higher = better).
    pub best_metric: f64,
    /// Total probes spent.
    pub probes: usize,
    /// Wall-clock cost at the configured switching period.
    pub duration: Seconds,
    /// Every probe and its metric, in visit order (for heat-mapping).
    pub history: Vec<(Probe, f64)>,
}

/// Outcome of a completed vector-objective sweep: the winning probe,
/// the scalar score it won on, and the full per-device metric vectors.
/// The metric rows are in whatever unit `measure` returned them: dBm
/// for the single-link sweep and the joint panel descent, linear
/// milliwatts for the fleet schedulers, which score a row in linear
/// power and convert only the score.
#[derive(Clone, Debug)]
pub struct MultiSweepOutcome {
    /// The winning bias combination.
    pub best: Probe,
    /// Scalar score of the winner (output of the scoring function).
    pub best_score: f64,
    /// Per-device metrics measured at the winner, in measurement order,
    /// in the unit of the measured rows.
    pub best_metrics: Vec<f64>,
    /// Total probes spent.
    pub probes: usize,
    /// Wall-clock cost at the configured switching period.
    pub duration: Seconds,
    /// Every probe and its metric vector, in visit order, in the unit
    /// of the measured rows.
    pub history: Vec<(Probe, Vec<f64>)>,
}

/// `t` evenly spaced voltages from `lo` to `hi`, both ends included
/// (`t ≥ 2`): the one grid formula behind every sweep grid, full scan
/// and heatmap axis.
pub fn axis_points(t: usize, (lo, hi): (f64, f64)) -> impl Iterator<Item = f64> {
    (0..t).map(move |i| lo + (hi - lo) * i as f64 / (t - 1) as f64)
}

/// The `t × t` probes spanning `x × y`, x-major (the visit order of
/// Algorithm 1).
pub fn grid_points(t: usize, x: (f64, f64), y: (f64, f64)) -> impl Iterator<Item = Probe> {
    axis_points(t, x).flat_map(move |vx| {
        axis_points(t, y).map(move |vy| Probe {
            vx: Volts(vx),
            vy: Volts(vy),
        })
    })
}

/// The running winner of a sweep: the first probe to reach the best
/// score seen so far, and where its metric row sits in the history.
#[derive(Clone, Debug)]
struct Leader {
    probe: Probe,
    score: f64,
    row: Option<usize>,
}

/// Algorithm 1 as a round-driven search: it yields one iteration's grid
/// at a time ([`GridSearch::grid`]) and takes that grid's metric rows
/// back ([`GridSearch::take`]) before it yields the next. The caller
/// decides how a grid is measured, so one caller can probe many
/// searches' grids together — the panel scheduler advances every
/// panel's search in lockstep and sends each round's grids to the batch
/// kernel as one call — and the event-stepped
/// [`Controller`](crate::controller::Controller) hands over one
/// iteration of asynchronous reports at a time. [`GridSearch::run`]
/// drives one search with one `measure` closure.
///
/// The refinement is Algorithm 1: `N` iterations of a `T×T` grid, each
/// window ±one grid step around the running winner, clamped to the
/// supply range. A [cold](GridSearch::cold) search starts from the full
/// supply range; a [warm](GridSearch::warm) one from a window around a
/// carried-over bias, which it re-measures first.
#[derive(Clone, Debug)]
pub struct GridSearch {
    /// The supply range and switching period; `iterations` and
    /// `steps_per_axis` are this search's own.
    config: SweepConfig,
    /// The current window, `(lo, hi)` per axis.
    window: [(f64, f64); 2],
    leader: Leader,
    history: Vec<(Probe, Vec<f64>)>,
    /// The grid awaiting its rows; empty once the search is done.
    grid: Vec<Probe>,
    /// Iterations whose rows have been taken.
    round: usize,
    /// A warm search's first grid leads with its centre.
    warm: bool,
}

impl GridSearch {
    /// A fresh search over `config`'s full range, its first grid ready.
    ///
    /// # Panics
    /// Panics on a configuration with no iteration, fewer than two
    /// steps per axis or a non-finite supply range.
    pub fn cold(config: &SweepConfig) -> Self {
        let range = (config.v_min.0, config.v_max.0);
        Self::open(*config, [range, range], None)
    }

    /// A warm-start refinement: `warm.iterations` of a
    /// `warm.steps_per_axis`² grid inside ±`warm.radius` around `center`,
    /// all clamped to `config`'s supply range. The first grid is the
    /// clamped centre followed by the first window, and the centre's row
    /// leads whatever it scores (even −∞ or NaN), so the outcome never
    /// scores below holding the carried-over bias.
    ///
    /// # Panics
    /// Panics on a warm configuration with no iteration, fewer than two
    /// steps per axis or a non-positive radius, and on a non-finite
    /// supply range.
    pub fn warm(config: &SweepConfig, warm: &WarmConfig, center: Probe) -> Self {
        assert!(warm.radius.0 > 0.0, "warm radius must be positive");
        let clamp = |v: f64| v.clamp(config.v_min.0, config.v_max.0);
        let center = Probe {
            vx: Volts(clamp(center.vx.0)),
            vy: Volts(clamp(center.vy.0)),
        };
        let r = warm.radius.0;
        let window = [
            (clamp(center.vx.0 - r), clamp(center.vx.0 + r)),
            (clamp(center.vy.0 - r), clamp(center.vy.0 + r)),
        ];
        let config = SweepConfig {
            iterations: warm.iterations,
            steps_per_axis: warm.steps_per_axis,
            ..*config
        };
        Self::open(config, window, Some(center))
    }

    fn open(config: SweepConfig, window: [(f64, f64); 2], center: Option<Probe>) -> Self {
        assert!(config.iterations >= 1, "need at least one iteration");
        assert!(
            config.steps_per_axis >= 2,
            "need at least two steps per axis"
        );
        // A NaN or infinite bound would plan probes no supply accepts.
        assert!(
            config.v_min.0.is_finite() && config.v_max.0.is_finite(),
            "the supply range must be finite"
        );
        let t = config.steps_per_axis;
        let lead = usize::from(center.is_some());
        let mut grid = Vec::with_capacity(lead + t * t);
        grid.extend(center);
        grid.extend(grid_points(t, window[0], window[1]));
        Self {
            config,
            window,
            leader: Leader {
                probe: center.unwrap_or(Probe {
                    vx: config.v_min,
                    vy: config.v_min,
                }),
                score: f64::NEG_INFINITY,
                row: None,
            },
            // Every probe of the run is known up front; reserve the
            // whole history so it never reallocates.
            history: Vec::with_capacity(lead + config.iterations * t * t),
            grid,
            round: 0,
            warm: center.is_some(),
        }
    }

    /// The grid to measure next, x-major; `None` once every iteration's
    /// rows are in.
    pub fn grid(&self) -> Option<&[Probe]> {
        (!self.grid.is_empty()).then_some(self.grid.as_slice())
    }

    /// The running winner and its score: the first probe to reach the
    /// best score taken so far (a warm search's centre until beaten).
    /// Before any probe scores above −∞ it is the supply's low corner
    /// at −∞ — the centre of the next window either way.
    pub fn leader(&self) -> (Probe, f64) {
        (self.leader.probe, self.leader.score)
    }

    /// Takes the current grid's metric rows, in grid order, scores them
    /// — a probe takes the lead only on a strictly better score — and
    /// narrows the window around the running winner for the next
    /// iteration. The search never reads a row itself, only its score,
    /// so rows may be in any unit; a caller whose rows are linear power
    /// must score them in the unit it compares (a fleet scores linear
    /// rows in dBm, so rows that round to one dBm score tie).
    ///
    /// # Panics
    /// Panics when the search is done or `rows` holds other than one
    /// row per probe.
    pub fn take(&mut self, rows: Vec<Vec<f64>>, score: &impl Fn(&[f64]) -> f64) {
        assert!(!self.grid.is_empty(), "the search is done");
        assert_eq!(
            rows.len(),
            self.grid.len(),
            "measure must return one metric row per probe"
        );
        let lead = self.warm && self.round == 0;
        for (i, (&probe, m)) in self.grid.iter().zip(rows).enumerate() {
            let s = score(&m);
            if s > self.leader.score || (lead && i == 0) {
                self.leader = Leader {
                    probe,
                    score: s,
                    row: Some(self.history.len()),
                };
            }
            self.history.push((probe, m));
        }
        self.round += 1;
        self.grid.clear();
        if self.round == self.config.iterations {
            return;
        }
        // Narrow the window to one grid step around the winner (the
        // paper returns [v − Vs, v] per axis; we center for symmetry,
        // clamped to the supply range).
        let t = self.config.steps_per_axis;
        let (v_min, v_max) = (self.config.v_min.0, self.config.v_max.0);
        let best = [self.leader.probe.vx.0, self.leader.probe.vy.0];
        for ((lo, hi), v) in self.window.iter_mut().zip(best) {
            let step = (*hi - *lo) / (t - 1) as f64;
            *lo = (v - step).max(v_min);
            *hi = (v + step).min(v_max);
        }
        self.grid
            .extend(grid_points(t, self.window[0], self.window[1]));
    }

    /// Drives the search to its end, calling `measure` once per grid
    /// (see the module docs) and folding each metric row into the
    /// scalar the refinement maximizes with `score`.
    ///
    /// The whole sweep is timed as a `sweep.cold_ns` or `sweep.warm_ns`
    /// span on `recorder`; see [`GridSearch::finish`] for the rest of
    /// its telemetry. Against [`RecorderHandle::null`] the sweep records
    /// nothing.
    ///
    /// # Panics
    /// Panics when `measure` returns other than one row per probe.
    pub fn run(
        mut self,
        recorder: &RecorderHandle,
        panel: usize,
        mut measure: impl FnMut(&[Probe]) -> Vec<Vec<f64>>,
        score: impl Fn(&[f64]) -> f64,
    ) -> MultiSweepOutcome {
        let span = recorder.span(if self.warm {
            "sweep.warm_ns"
        } else {
            "sweep.cold_ns"
        });
        while let Some(grid) = self.grid() {
            let rows = measure(grid);
            self.take(rows, &score);
        }
        drop(span);
        self.finish(recorder, panel)
    }

    /// The finished search's outcome. A live recorder gets the probe
    /// bill (the `sweep.probes` counter and `sweep.probes_per_sweep`
    /// histogram) and a `"cold"` or `"warm"`
    /// [`TelemetryEvent::SweepSpan`] tagged with `panel`.
    pub fn finish(self, recorder: &RecorderHandle, panel: usize) -> MultiSweepOutcome {
        let probes = self.history.len();
        if recorder.enabled() {
            recorder.add("sweep.probes", probes as u64);
            recorder.record_value("sweep.probes_per_sweep", probes as u64);
            recorder.emit(TelemetryEvent::SweepSpan {
                panel,
                kind: if self.warm { "warm" } else { "cold" },
                probes,
            });
        }
        let history = self.history;
        MultiSweepOutcome {
            best: self.leader.probe,
            best_score: self.leader.score,
            best_metrics: self
                .leader
                .row
                .map(|i| history[i].1.clone())
                .unwrap_or_default(),
            probes,
            duration: Seconds(self.config.switch_period.0 * probes as f64),
            history,
        }
    }
}

/// Runs Algorithm 1 against a *vector* metric: each probe measures one
/// value per device (or per objective component) and `score` folds the
/// vector into the scalar the refinement maximizes — `min` for max-min
/// fairness, a margin for access control, the identity on element 0 for
/// the classic single-link sweep ([`coarse_to_fine`] is exactly that
/// N = 1 case). This is [`GridSearch::run`] on a cold search.
///
/// # Panics
/// Panics on a configuration [`GridSearch::cold`] refuses, and when
/// `measure` returns other than one row per probe.
pub fn coarse_to_fine_multi(
    recorder: &RecorderHandle,
    panel: usize,
    config: &SweepConfig,
    measure: impl FnMut(&[Probe]) -> Vec<Vec<f64>>,
    score: impl Fn(&[f64]) -> f64,
) -> MultiSweepOutcome {
    GridSearch::cold(config).run(recorder, panel, measure, score)
}

/// Parameters of a warm-start re-optimization: a refinement sweep seeded
/// from a known-good probe (the previous tick of a mobility simulation)
/// instead of the full supply range ([`GridSearch::warm`]).
///
/// The warm path exists because re-running the full Algorithm 1 search
/// every tick burns `N·T²` probes of airtime when the environment moved
/// only slightly; a warm refinement re-checks the carried-over bias (one
/// probe) and sweeps a small window around it, falling back to the cold
/// search only when the local optimum has genuinely walked away
/// (detected by the caller through [`WarmConfig::regression_db`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WarmConfig {
    /// Half-width of the refinement window per axis, centered on the
    /// warm-start probe (clamped to the sweep's supply range).
    pub radius: Volts,
    /// Voltage points per axis per warm iteration.
    pub steps_per_axis: usize,
    /// Warm refinement iterations.
    pub iterations: usize,
    /// Score drop relative to the previous outcome that the caller
    /// should treat as a failed warm start and widen to the cold search
    /// (dB for the power objectives this workspace optimizes).
    pub regression_db: f64,
}

impl WarmConfig {
    /// The default warm budget: one 3×3 refinement over ±one coarse
    /// step of the paper grid (30 V / (5 − 1) = 7.5 V) — 10 probes per
    /// tick instead of the cold 50. The regression guard is one
    /// distance-doubling (6 dB): a mobile device walking away loses
    /// 2–3 dB per tick that no amount of re-searching recovers, so
    /// smaller drops track warm, while a genuine upheaval (a blocker
    /// stepping in, a handoff) justifies the cold widening.
    pub fn paper_default() -> Self {
        Self {
            radius: Volts(7.5),
            steps_per_axis: 3,
            iterations: 1,
            regression_db: 6.0,
        }
    }

    /// Probes one warm re-optimization spends: the center re-check plus
    /// the refinement grids.
    pub fn probe_budget(&self) -> usize {
        1 + self.iterations * self.steps_per_axis * self.steps_per_axis
    }
}

/// Drives a block-coordinate-descent loop to a fixed point: calls
/// `round` (one full pass over all coordinate blocks, returning the
/// pass's absolute score improvement) until the improvement drops to
/// `tolerance` or `max_rounds` passes have run. Returns the number of
/// rounds executed and whether the loop converged (hit the tolerance)
/// rather than the round cap.
///
/// The joint multi-surface optimizer uses this with one `round` =
/// one warm [`GridSearch`] per panel against the superposed
/// field; it is generic so any alternating-minimization caller can
/// reuse the cap/convergence bookkeeping.
pub fn descend_rounds(
    max_rounds: usize,
    tolerance: f64,
    mut round: impl FnMut() -> f64,
) -> (usize, bool) {
    assert!(max_rounds >= 1, "need at least one descent round");
    assert!(tolerance >= 0.0, "tolerance must be non-negative");
    for r in 1..=max_rounds {
        if round() <= tolerance {
            return (r, true);
        }
    }
    (max_rounds, false)
}

/// Runs Algorithm 1 against a scalar metric callback (higher is better).
///
/// The callback receives each probe and returns the measured metric —
/// in the real system that is the receiver's reported signal power under
/// the labeled voltage state (§3.3's synchronization makes the labeling
/// sound). This is [`coarse_to_fine_multi`] with a one-element metric
/// vector: the single link is the N = 1 fleet, measured probe by probe
/// in visit order.
pub fn coarse_to_fine(config: &SweepConfig, mut measure: impl FnMut(Probe) -> f64) -> SweepOutcome {
    let outcome = coarse_to_fine_multi(
        &RecorderHandle::null(),
        0,
        config,
        |probes| probes.iter().map(|&p| vec![measure(p)]).collect(),
        |m| m[0],
    );
    SweepOutcome {
        best: outcome.best,
        best_metric: outcome.best_score,
        probes: outcome.probes,
        duration: outcome.duration,
        history: outcome
            .history
            .into_iter()
            .map(|(p, m)| (p, m[0]))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adapts a per-probe measurement to the sweeps' batch contract.
    fn each(mut f: impl FnMut(Probe) -> Vec<f64>) -> impl FnMut(&[Probe]) -> Vec<Vec<f64>> {
        move |probes| probes.iter().map(|&p| f(p)).collect()
    }

    /// A smooth unimodal surface peaking at (vx0, vy0).
    fn bump(vx0: f64, vy0: f64) -> impl FnMut(Probe) -> f64 {
        move |p: Probe| {
            let dx = p.vx.0 - vx0;
            let dy = p.vy.0 - vy0;
            -(dx * dx + dy * dy)
        }
    }

    #[test]
    fn paper_config_costs_one_second() {
        let cfg = SweepConfig::paper_default();
        // 0.02 × 2 × 25 = 1.0 s — the paper's speed-up over ~30 s.
        assert!((cfg.predicted_duration().0 - 1.0).abs() < 1e-12);
        let full = SweepConfig::full_scan();
        assert!(full.predicted_duration().0 > 19.0);
    }

    #[test]
    fn finds_interior_peak() {
        let outcome = coarse_to_fine(&SweepConfig::paper_default(), bump(17.3, 8.2));
        assert!(
            (outcome.best.vx.0 - 17.3).abs() < 2.0,
            "vx = {:?}",
            outcome.best.vx
        );
        assert!(
            (outcome.best.vy.0 - 8.2).abs() < 2.0,
            "vy = {:?}",
            outcome.best.vy
        );
        assert_eq!(outcome.probes, 50);
    }

    #[test]
    fn refinement_beats_single_pass() {
        let single = coarse_to_fine(
            &SweepConfig {
                iterations: 1,
                ..SweepConfig::paper_default()
            },
            bump(17.3, 8.2),
        );
        let double = coarse_to_fine(&SweepConfig::paper_default(), bump(17.3, 8.2));
        let err =
            |o: &SweepOutcome| ((o.best.vx.0 - 17.3).powi(2) + (o.best.vy.0 - 8.2).powi(2)).sqrt();
        assert!(err(&double) <= err(&single) + 1e-9);
    }

    #[test]
    fn finds_edge_peak() {
        let outcome = coarse_to_fine(&SweepConfig::paper_default(), bump(30.0, 0.0));
        assert!((outcome.best.vx.0 - 30.0).abs() < 2.0);
        assert!(outcome.best.vy.0 < 2.0);
    }

    #[test]
    fn full_scan_is_exhaustive() {
        let outcome = coarse_to_fine(&SweepConfig::full_scan(), bump(11.0, 23.0));
        assert_eq!(outcome.probes, 31 * 31);
        assert!((outcome.best.vx.0 - 11.0).abs() < 0.51);
        assert!((outcome.best.vy.0 - 23.0).abs() < 0.51);
    }

    #[test]
    fn history_records_every_probe() {
        let outcome = coarse_to_fine(&SweepConfig::paper_default(), bump(5.0, 5.0));
        assert_eq!(outcome.history.len(), outcome.probes);
        // The recorded best matches the history maximum.
        let hist_best = outcome
            .history
            .iter()
            .map(|(_, m)| *m)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(hist_best, outcome.best_metric);
    }

    #[test]
    fn duration_scales_with_probes() {
        let outcome = coarse_to_fine(&SweepConfig::paper_default(), bump(5.0, 5.0));
        assert!((outcome.duration.0 - 0.02 * outcome.probes as f64).abs() < 1e-12);
    }

    #[test]
    fn multi_with_identity_score_matches_scalar_sweep() {
        // The scalar sweep IS the N = 1 vector sweep: same winner, same
        // score, same visit order.
        let scalar = coarse_to_fine(&SweepConfig::paper_default(), bump(17.3, 8.2));
        let multi = coarse_to_fine_multi(
            &RecorderHandle::null(),
            0,
            &SweepConfig::paper_default(),
            {
                let mut b = bump(17.3, 8.2);
                each(move |p| vec![b(p)])
            },
            |m| m[0],
        );
        assert_eq!(scalar.best, multi.best);
        assert_eq!(scalar.best_metric, multi.best_score);
        assert_eq!(scalar.probes, multi.probes);
        assert_eq!(multi.best_metrics.len(), 1);
        for ((pa, ma), (pb, mb)) in scalar.history.iter().zip(&multi.history) {
            assert_eq!(pa, pb);
            assert_eq!(*ma, mb[0]);
        }
    }

    #[test]
    fn max_min_score_finds_the_compromise() {
        // Two bumps at different spots: maximizing the min lands between
        // them, not on either peak.
        let outcome = coarse_to_fine_multi(
            &RecorderHandle::null(),
            0,
            &SweepConfig::paper_default(),
            each(|p: Probe| {
                let d1 = (p.vx.0 - 10.0).powi(2) + (p.vy.0 - 10.0).powi(2);
                let d2 = (p.vx.0 - 20.0).powi(2) + (p.vy.0 - 20.0).powi(2);
                vec![-d1, -d2]
            }),
            |m| m.iter().copied().fold(f64::INFINITY, f64::min),
        );
        assert_eq!(outcome.best_metrics.len(), 2);
        // The compromise equalizes the two objectives.
        assert!(
            (outcome.best_metrics[0] - outcome.best_metrics[1]).abs() < 30.0,
            "metrics {:?}",
            outcome.best_metrics
        );
        assert!((outcome.best.vx.0 - 15.0).abs() < 3.0, "{:?}", outcome.best);
        // And the winner's score is the max over the history's mins.
        let hist_best = outcome
            .history
            .iter()
            .map(|(_, m)| m.iter().copied().fold(f64::INFINITY, f64::min))
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(hist_best, outcome.best_score);
    }

    #[test]
    fn warm_refine_spends_its_probe_budget() {
        let warm = WarmConfig::paper_default();
        assert_eq!(warm.probe_budget(), 10);
        let outcome = GridSearch::warm(
            &SweepConfig::paper_default(),
            &warm,
            Probe {
                vx: Volts(15.0),
                vy: Volts(15.0),
            },
        )
        .run(
            &RecorderHandle::null(),
            0,
            each(|p| {
                let mut b = bump(17.3, 8.2);
                vec![b(p)]
            }),
            |m| m[0],
        );
        assert_eq!(outcome.probes, warm.probe_budget());
        assert_eq!(outcome.history.len(), outcome.probes);
        assert!((outcome.duration.0 - 0.02 * outcome.probes as f64).abs() < 1e-12);
    }

    #[test]
    fn warm_refine_never_scores_below_the_center() {
        // The carried-over bias is probed first, so even a hostile
        // surface cannot make the warm outcome worse than holding it.
        let center = Probe {
            vx: Volts(17.0),
            vy: Volts(8.0),
        };
        let mut b = bump(17.3, 8.2);
        let center_score = b(center);
        let outcome = GridSearch::warm(
            &SweepConfig::paper_default(),
            &WarmConfig::paper_default(),
            center,
        )
        .run(
            &RecorderHandle::null(),
            0,
            each(|p| {
                let mut b = bump(17.3, 8.2);
                vec![b(p)]
            }),
            |m| m[0],
        );
        assert!(outcome.best_score >= center_score);
        assert_eq!(outcome.history[0].0, center);
    }

    #[test]
    fn warm_refine_tracks_a_drifted_peak() {
        // The peak moved a few volts since the previous tick: the warm
        // window must catch up without a full-range rescan.
        let outcome = GridSearch::warm(
            &SweepConfig::paper_default(),
            &WarmConfig {
                steps_per_axis: 5,
                iterations: 2,
                ..WarmConfig::paper_default()
            },
            Probe {
                vx: Volts(14.0),
                vy: Volts(10.0),
            },
        )
        .run(
            &RecorderHandle::null(),
            0,
            each(|p| {
                let mut b = bump(18.0, 7.0);
                vec![b(p)]
            }),
            |m| m[0],
        );
        assert!(
            (outcome.best.vx.0 - 18.0).abs() < 2.0,
            "vx = {:?}",
            outcome.best.vx
        );
        assert!(
            (outcome.best.vy.0 - 7.0).abs() < 2.0,
            "vy = {:?}",
            outcome.best.vy
        );
    }

    #[test]
    fn warm_refine_clamps_to_the_supply_range() {
        // A center on the rail edge must keep every probe inside range.
        let outcome = GridSearch::warm(
            &SweepConfig::paper_default(),
            &WarmConfig::paper_default(),
            Probe {
                vx: Volts(30.0),
                vy: Volts(0.0),
            },
        )
        .run(
            &RecorderHandle::null(),
            0,
            each(|p| vec![-(p.vx.0 - 29.0).abs() - p.vy.0]),
            |m| m[0],
        );
        for (p, _) in &outcome.history {
            assert!((0.0..=30.0).contains(&p.vx.0), "vx = {:?}", p.vx);
            assert!((0.0..=30.0).contains(&p.vy.0), "vy = {:?}", p.vy);
        }
    }

    #[test]
    fn noisy_metric_still_lands_near_peak() {
        // Deterministic pseudo-noise on top of the bump: the sweep should
        // still land in the right neighbourhood.
        let mut k = 0u64;
        let outcome = coarse_to_fine(&SweepConfig::paper_default(), |p| {
            k = k
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = ((k >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 3.0;
            let dx = p.vx.0 - 20.0;
            let dy = p.vy.0 - 12.0;
            -(dx * dx + dy * dy) * 0.5 + noise
        });
        assert!((outcome.best.vx.0 - 20.0).abs() < 5.0);
        assert!((outcome.best.vy.0 - 12.0).abs() < 5.0);
    }

    #[test]
    fn traced_sweeps_match_untraced_and_record_the_cost() {
        use rfmath::telemetry::RingRecorder;
        use std::sync::Arc;

        let cfg = SweepConfig::paper_default();
        let run = |h: &RecorderHandle| {
            let mut b = bump(17.3, 8.2);
            coarse_to_fine_multi(h, 3, &cfg, each(move |p| vec![b(p)]), |m| m[0])
        };
        let plain = run(&RecorderHandle::null());
        let ring = Arc::new(RingRecorder::new(64));
        let traced = run(&RecorderHandle::new(ring.clone()));
        assert_eq!(plain.best, traced.best);
        assert_eq!(plain.best_score, traced.best_score);
        assert_eq!(plain.history, traced.history);
        assert_eq!(ring.counter("sweep.probes"), plain.probes as u64);
        let last = |ring: &RingRecorder| ring.events().last().map(|(_, _, e)| e.clone());
        assert!(matches!(
            last(&ring),
            Some(TelemetryEvent::SweepSpan {
                panel: 3,
                kind: "cold",
                probes: 50
            })
        ));

        let warm = GridSearch::warm(&cfg, &WarmConfig::paper_default(), plain.best).run(
            &RecorderHandle::new(ring.clone()),
            1,
            each(|p| vec![bump(17.3, 8.2)(p)]),
            |m| m[0],
        );
        assert_eq!(
            ring.counter("sweep.probes"),
            (plain.probes + warm.probes) as u64
        );
        assert!(matches!(
            last(&ring),
            Some(TelemetryEvent::SweepSpan {
                panel: 1,
                kind: "warm",
                probes: 10
            })
        ));
    }

    #[test]
    fn each_iteration_is_one_measurement_call() {
        // Cold: one call per iteration, T² probes each. Warm: the center
        // rides with the first grid, then one call per later iteration.
        let cfg = SweepConfig::paper_default();
        let mut calls = Vec::new();
        let cold = coarse_to_fine_multi(
            &RecorderHandle::null(),
            0,
            &cfg,
            |probes: &[Probe]| {
                calls.push(probes.len());
                probes.iter().map(|p| vec![-p.vx.0 - p.vy.0]).collect()
            },
            |m| m[0],
        );
        assert_eq!(calls, vec![25, 25]);
        assert_eq!(cold.probes, 50);
        calls.clear();
        let warm = WarmConfig {
            iterations: 3,
            ..WarmConfig::paper_default()
        };
        let out = GridSearch::warm(&cfg, &warm, cold.best).run(
            &RecorderHandle::null(),
            0,
            |probes: &[Probe]| {
                calls.push(probes.len());
                probes.iter().map(|p| vec![-p.vx.0 - p.vy.0]).collect()
            },
            |m| m[0],
        );
        assert_eq!(calls, vec![10, 9, 9]);
        assert_eq!(out.probes, warm.probe_budget());
    }

    #[test]
    #[should_panic(expected = "one metric row per probe")]
    fn a_short_measurement_is_refused() {
        let _ = coarse_to_fine_multi(
            &RecorderHandle::null(),
            0,
            &SweepConfig::paper_default(),
            |probes: &[Probe]| vec![vec![0.0]; probes.len() - 1],
            |m| m[0],
        );
    }

    #[test]
    fn descend_rounds_stops_at_the_tolerance() {
        // Geometric improvement 8, 4, 2, 1, ... with tolerance 3: rounds
        // 1 and 2 improve above tolerance, round 3 lands at 2 ≤ 3.
        let mut gain = 16.0;
        let (rounds, converged) = descend_rounds(10, 3.0, || {
            gain /= 2.0;
            gain
        });
        assert_eq!(rounds, 3);
        assert!(converged);
    }

    #[test]
    fn descend_rounds_hits_the_cap_without_convergence() {
        let (rounds, converged) = descend_rounds(4, 0.0, || 1.0);
        assert_eq!(rounds, 4);
        assert!(!converged);
    }

    #[test]
    fn descend_rounds_converges_immediately_on_a_flat_round() {
        let (rounds, converged) = descend_rounds(5, 0.05, || 0.0);
        assert_eq!(rounds, 1);
        assert!(converged);
    }
}
