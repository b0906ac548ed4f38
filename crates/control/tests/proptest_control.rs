//! Property-based tests for the control plane: sweep envelopes, Eq. 13
//! labeling consistency, SCPI round-trips under arbitrary inputs, and
//! PSU rate-limit invariants.

use control::controller::{Controller, Event, FleetReport, Objective, Phase, RetryPolicy};
use control::psu::{PowerSupply, Reply};
use control::scpi;
use control::sweep::{
    coarse_to_fine, coarse_to_fine_multi, GridSearch, MultiSweepOutcome, Probe, SweepConfig,
    WarmConfig,
};
use control::sync::BiasSchedule;
use proptest::prelude::*;
use rfmath::telemetry::RecorderHandle;
use rfmath::units::{Seconds, Volts};

/// A per-device metric surface with deliberate score ties: each
/// device reads `round(q · sin(a·vx + b·vy + c))`, so a grid holds few
/// distinct values. `dead` controls the `−∞` readings: 0 none, 1 every
/// probe with `vx` above `cut`, 2 every probe.
#[derive(Clone, Debug)]
struct Landscape {
    devices: Vec<(f64, f64, f64)>,
    q: f64,
    dead: usize,
    cut: f64,
    max_min: bool,
}

impl Landscape {
    fn metrics(&self, p: Probe) -> Vec<f64> {
        let dead = match self.dead {
            0 => false,
            1 => p.vx.0 > self.cut,
            _ => true,
        };
        self.devices
            .iter()
            .map(|&(a, b, c)| {
                if dead {
                    f64::NEG_INFINITY
                } else {
                    ((a * p.vx.0 + b * p.vy.0 + c).sin() * self.q).round()
                }
            })
            .collect()
    }

    fn score(&self, m: &[f64]) -> f64 {
        if self.max_min {
            m.iter().copied().fold(f64::INFINITY, f64::min)
        } else {
            m[0]
        }
    }

    /// The batch measurement: one row per probe, in order, counting
    /// calls.
    fn batch<'a>(&'a self, calls: &'a mut usize) -> impl FnMut(&[Probe]) -> Vec<Vec<f64>> + 'a {
        move |probes| {
            *calls += 1;
            probes.iter().map(|&p| self.metrics(p)).collect()
        }
    }
}

fn landscapes() -> BoxedStrategy<Landscape> {
    (
        prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0, 0.0f64..6.3), 1..4),
        1u8..4,
        0usize..3,
        0.0f64..30.0,
        0u8..2,
    )
        .prop_map(|(devices, q, dead, cut, max_min)| Landscape {
            devices,
            q: f64::from(q),
            dead,
            cut,
            max_min: max_min == 1,
        })
        .boxed()
}

/// Algorithm 1 written probe by probe: every probe is measured, scored
/// and recorded before the next, the iteration winner is the first
/// probe to reach its best score, and the running winner moves only on
/// a strictly better iteration.
fn per_probe_cold(config: &SweepConfig, land: &Landscape) -> MultiSweepOutcome {
    let t = config.steps_per_axis;
    let (mut lo_x, mut hi_x) = (config.v_min.0, config.v_max.0);
    let (mut lo_y, mut hi_y) = (config.v_min.0, config.v_max.0);
    let mut best = Probe {
        vx: config.v_min,
        vy: config.v_min,
    };
    let mut best_score = f64::NEG_INFINITY;
    let mut best_metrics = Vec::new();
    let mut history = Vec::new();
    for _ in 0..config.iterations {
        let at = |lo: f64, hi: f64, i: usize| Volts(lo + (hi - lo) * i as f64 / (t - 1) as f64);
        let (mut iter_best, mut iter_score, mut iter_metrics) =
            (best, f64::NEG_INFINITY, Vec::new());
        for ix in 0..t {
            for iy in 0..t {
                let probe = Probe {
                    vx: at(lo_x, hi_x, ix),
                    vy: at(lo_y, hi_y, iy),
                };
                let m = land.metrics(probe);
                let s = land.score(&m);
                if s > iter_score {
                    (iter_best, iter_score, iter_metrics) = (probe, s, m.clone());
                }
                history.push((probe, m));
            }
        }
        if iter_score > best_score {
            (best, best_score, best_metrics) = (iter_best, iter_score, iter_metrics);
        }
        let step_x = (hi_x - lo_x) / (t - 1) as f64;
        let step_y = (hi_y - lo_y) / (t - 1) as f64;
        lo_x = (best.vx.0 - step_x).max(config.v_min.0);
        hi_x = (best.vx.0 + step_x).min(config.v_max.0);
        lo_y = (best.vy.0 - step_y).max(config.v_min.0);
        hi_y = (best.vy.0 + step_y).min(config.v_max.0);
    }
    MultiSweepOutcome {
        best,
        best_score,
        best_metrics,
        probes: history.len(),
        duration: Seconds(config.switch_period.0 * history.len() as f64),
        history,
    }
}

/// The warm refinement written probe by probe: the clamped center
/// leads whatever it scores, then each grid probe takes the lead only
/// on a strictly better score.
fn per_probe_warm(
    config: &SweepConfig,
    warm: &WarmConfig,
    center: Probe,
    land: &Landscape,
) -> MultiSweepOutcome {
    let clamp = |v: f64| v.clamp(config.v_min.0, config.v_max.0);
    let center = Probe {
        vx: Volts(clamp(center.vx.0)),
        vy: Volts(clamp(center.vy.0)),
    };
    let t = warm.steps_per_axis;
    let m0 = land.metrics(center);
    let (mut best, mut best_score, mut best_metrics) = (center, land.score(&m0), m0.clone());
    let mut history = vec![(center, m0)];
    let mut lo_x = clamp(center.vx.0 - warm.radius.0);
    let mut hi_x = clamp(center.vx.0 + warm.radius.0);
    let mut lo_y = clamp(center.vy.0 - warm.radius.0);
    let mut hi_y = clamp(center.vy.0 + warm.radius.0);
    for _ in 0..warm.iterations {
        let at = |lo: f64, hi: f64, i: usize| Volts(lo + (hi - lo) * i as f64 / (t - 1) as f64);
        for ix in 0..t {
            for iy in 0..t {
                let probe = Probe {
                    vx: at(lo_x, hi_x, ix),
                    vy: at(lo_y, hi_y, iy),
                };
                let m = land.metrics(probe);
                let s = land.score(&m);
                if s > best_score {
                    (best, best_score, best_metrics) = (probe, s, m.clone());
                }
                history.push((probe, m));
            }
        }
        let step_x = (hi_x - lo_x) / (t - 1) as f64;
        let step_y = (hi_y - lo_y) / (t - 1) as f64;
        lo_x = clamp(best.vx.0 - step_x);
        hi_x = clamp(best.vx.0 + step_x);
        lo_y = clamp(best.vy.0 - step_y);
        hi_y = clamp(best.vy.0 + step_y);
    }
    MultiSweepOutcome {
        best,
        best_score,
        best_metrics,
        probes: history.len(),
        duration: Seconds(config.switch_period.0 * history.len() as f64),
        history,
    }
}

/// Bitwise equality of two sweep outcomes, history order included.
fn same_outcome(got: &MultiSweepOutcome, want: &MultiSweepOutcome) -> Result<(), TestCaseError> {
    let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    prop_assert_eq!(got.best, want.best);
    prop_assert_eq!(got.best_score.to_bits(), want.best_score.to_bits());
    prop_assert_eq!(bits(&got.best_metrics), bits(&want.best_metrics));
    prop_assert_eq!(got.probes, want.probes);
    prop_assert_eq!(got.duration.0.to_bits(), want.duration.0.to_bits());
    prop_assert_eq!(got.history.len(), want.history.len());
    for ((pa, ma), (pb, mb)) in got.history.iter().zip(&want.history) {
        prop_assert_eq!(pa, pb);
        prop_assert_eq!(bits(ma), bits(mb));
    }
    Ok(())
}

/// Event-steps a [`Controller`] over `land` on a 2 ms clock. Every
/// applied probe is answered by one report carrying its readings 8 ms
/// later — lossless and timely — so only dead (non-finite) readings
/// take the rejection, retry and abandonment path. Returns the
/// converged controller.
fn step_controller(config: &SweepConfig, land: &Landscape) -> Controller {
    let mut ctl = Controller::new(*config);
    ctl.objective = if land.max_min {
        Objective::WorstLink
    } else {
        Objective::SingleLink
    };
    let mut psu = PowerSupply::tektronix_2230g();
    psu.execute("OUTP ON", Seconds(0.0));
    ctl.start();
    let mut pending: Option<FleetReport> = None;
    let mut seen = ctl.events().len();
    let mut now = 0.0;
    while ctl.phase() != &Phase::Converged {
        assert!(now < 1e4, "the controller never converged");
        let due = pending.as_ref().is_some_and(|r| r.at.0 <= now);
        let report = if due { pending.take() } else { None };
        ctl.step_fleet(&mut psu, Seconds(now), report);
        for event in &ctl.events()[seen..] {
            if let Event::Applied(p) = event {
                pending = Some(FleetReport {
                    at: Seconds(now + 0.008),
                    powers_dbm: land.metrics(*p),
                });
            }
        }
        seen = ctl.events().len();
        now += 0.002;
    }
    ctl
}

proptest! {
    /// The event-stepped controller is the offline sweep: with lossless,
    /// timely reports it applies exactly `coarse_to_fine_multi`'s probes
    /// in its visit order — a dead probe once per delivery attempt — and
    /// converges on its winner and score, bitwise, through score ties
    /// and dead probes, under `SingleLink` and `WorstLink`.
    #[test]
    fn controller_applies_the_offline_sweep(
        n in 1usize..4,
        t in 2usize..7,
        lo in 0.0f64..10.0,
        span in 1.0f64..20.0,
        land in landscapes(),
    ) {
        let cfg = SweepConfig {
            iterations: n,
            steps_per_axis: t,
            v_min: Volts(lo),
            v_max: Volts(lo + span),
            switch_period: Seconds(0.02),
        };
        let offline = coarse_to_fine_multi(
            &RecorderHandle::null(),
            0,
            &cfg,
            land.batch(&mut 0),
            |m| land.score(m),
        );
        let ctl = step_controller(&cfg, &land);
        let bits = |p: &Probe| (p.vx.0.to_bits(), p.vy.0.to_bits());
        let attempts = RetryPolicy::default().max_attempts;
        let want: Vec<(u64, u64)> = offline
            .history
            .iter()
            .flat_map(|(p, m)| {
                let dead = land.score(m) == f64::NEG_INFINITY;
                std::iter::repeat(bits(p)).take(if dead { attempts } else { 1 })
            })
            .collect();
        let applied: Vec<(u64, u64)> = ctl
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Applied(p) => Some(bits(p)),
                _ => None,
            })
            .collect();
        prop_assert_eq!(applied, want);
        let best = ctl.best().map(|(p, s)| (bits(&p), s.to_bits()));
        if offline.best_score == f64::NEG_INFINITY {
            prop_assert_eq!(best, None);
            prop_assert!(matches!(ctl.events().last(), Some(Event::SweepFailed)));
        } else {
            let want = Some((bits(&offline.best), offline.best_score.to_bits()));
            prop_assert_eq!(best, want);
            let converged = match ctl.events().last() {
                Some(Event::Converged(p, s)) => Some((bits(p), s.to_bits())),
                _ => None,
            };
            prop_assert_eq!(converged, want);
        }
    }

    /// The batched cold sweep — one `measure` call per iteration — is
    /// bitwise the per-probe Algorithm 1, through score ties and grids
    /// that read `−∞` in part or everywhere.
    #[test]
    fn batched_cold_sweep_is_the_per_probe_algorithm(
        n in 1usize..4,
        t in 2usize..7,
        lo in 0.0f64..10.0,
        span in 1.0f64..25.0,
        land in landscapes(),
    ) {
        let cfg = SweepConfig {
            iterations: n,
            steps_per_axis: t,
            v_min: Volts(lo),
            v_max: Volts(lo + span),
            switch_period: Seconds(0.02),
        };
        let mut calls = 0;
        let got = coarse_to_fine_multi(
            &RecorderHandle::null(),
            0,
            &cfg,
            land.batch(&mut calls),
            |m| land.score(m),
        );
        prop_assert_eq!(calls, n);
        same_outcome(&got, &per_probe_cold(&cfg, &land))?;
    }

    /// The batched warm refinement — the center with the first grid,
    /// then one call per later iteration — is bitwise the per-probe
    /// refinement, for centers inside and outside the supply range.
    #[test]
    fn batched_warm_sweep_is_the_per_probe_algorithm(
        iterations in 1usize..4,
        t in 2usize..6,
        radius in 0.5f64..12.0,
        cx in -5.0f64..35.0,
        cy in -5.0f64..35.0,
        land in landscapes(),
    ) {
        let cfg = SweepConfig::paper_default();
        let warm = WarmConfig {
            radius: Volts(radius),
            steps_per_axis: t,
            iterations,
            regression_db: 6.0,
        };
        let center = Probe { vx: Volts(cx), vy: Volts(cy) };
        let mut calls = 0;
        let got = GridSearch::warm(&cfg, &warm, center).run(&RecorderHandle::null(), 0, land.batch(&mut calls), |m| land.score(m));
        prop_assert_eq!(calls, iterations);
        same_outcome(&got, &per_probe_warm(&cfg, &warm, center, &land))?;
    }

    /// The sweep's probe count and duration match the 0.02·N·T² law for
    /// any (N, T) configuration.
    #[test]
    fn sweep_cost_law(n in 1usize..4, t in 2usize..9) {
        let cfg = SweepConfig {
            iterations: n,
            steps_per_axis: t,
            v_min: Volts(0.0),
            v_max: Volts(30.0),
            switch_period: Seconds(0.02),
        };
        let outcome = coarse_to_fine(&cfg, |p| -(p.vx.0 + p.vy.0));
        prop_assert_eq!(outcome.probes, n * t * t);
        prop_assert!((outcome.duration.0 - 0.02 * (n * t * t) as f64).abs() < 1e-12);
    }

    /// Probes never leave the configured voltage window.
    #[test]
    fn probes_stay_in_window(
        lo in 0.0f64..10.0,
        span in 5.0f64..20.0,
        peak_x in 0.0f64..30.0,
        peak_y in 0.0f64..30.0,
    ) {
        let cfg = SweepConfig {
            iterations: 2,
            steps_per_axis: 5,
            v_min: Volts(lo),
            v_max: Volts(lo + span),
            switch_period: Seconds(0.02),
        };
        let outcome = coarse_to_fine(&cfg, |p| {
            -((p.vx.0 - peak_x).powi(2) + (p.vy.0 - peak_y).powi(2))
        });
        for (probe, _) in &outcome.history {
            prop_assert!(probe.vx.0 >= lo - 1e-9 && probe.vx.0 <= lo + span + 1e-9);
            prop_assert!(probe.vy.0 >= lo - 1e-9 && probe.vy.0 <= lo + span + 1e-9);
        }
    }

    /// Eq. 13 labeling is self-consistent: the state reported for any
    /// in-schedule time equals the state list entry at the reported
    /// index, for any offset.
    #[test]
    fn eq13_index_state_agree(
        td_ms in 0.0f64..20.0,
        t_ms in 0.0f64..400.0,
        count in 2usize..30,
    ) {
        let s = BiasSchedule::linear(
            Seconds(0.0),
            Seconds(0.02),
            (Volts(1.0), Volts(2.0)),
            (Volts(0.5), Volts(0.25)),
            count,
        );
        let t = Seconds(t_ms / 1e3 + td_ms / 1e3);
        let td = Seconds(td_ms / 1e3);
        match (s.index_at(t, td), s.state_at(t, td)) {
            (Some(idx), Some(state)) => {
                prop_assert_eq!(state, s.states[idx]);
            }
            (None, None) => {}
            // state_at may return a state while index_at bounds-checks:
            // both must agree on in-range times.
            (a, b) => prop_assert!(
                a.is_none() == b.is_none() || t.0 - td.0 >= s.duration().0,
                "index {a:?} vs state {b:?}"
            ),
        }
    }

    /// SCPI APPL commands round-trip for arbitrary channel/voltage.
    #[test]
    fn scpi_apply_round_trip(ch in 1u8..=3, v in 0.0f64..99.0) {
        let wire = format!("APPL CH{ch},{v}");
        let cmd = scpi::parse(&wire).expect("parse");
        let back = scpi::format_command(&cmd);
        prop_assert_eq!(scpi::parse(&back).unwrap(), cmd);
    }

    /// The SCPI parser never panics on arbitrary ASCII lines.
    #[test]
    fn scpi_never_panics(line in "[ -~]{0,40}") {
        let _ = scpi::parse(&line);
    }

    /// The PSU accepts switches exactly at its period and rejects any
    /// faster cadence, regardless of the requested voltages.
    #[test]
    fn psu_rate_limit_invariant(
        dt_ms in 0.1f64..60.0,
        v1 in 0.0f64..30.0,
        v2 in 0.0f64..30.0,
    ) {
        let mut psu = PowerSupply::tektronix_2230g();
        psu.execute("OUTP ON", Seconds(0.0));
        assert_eq!(psu.execute(&format!("APPL CH1,{v1}"), Seconds(1.0)), Reply::Ack);
        let second = psu.execute(&format!("APPL CH1,{v2}"), Seconds(1.0 + dt_ms / 1e3));
        if dt_ms >= 20.0 {
            prop_assert_eq!(second, Reply::Ack);
        } else {
            prop_assert!(matches!(second, Reply::Error(_)), "accepted at {dt_ms} ms");
        }
    }
}
