//! Multi-link polarization management — the paper's §7 outlook.
//!
//! "When there are multiple IoT devices in different polarization
//! orientations, tuning the signal polarization can lead to a new form
//! of polarization reuse or access control." This module explores that
//! idea on the simulator: several receivers behind one surface, each at
//! its own orientation, and a shared bias state that must trade their
//! link qualities off against each other.
//!
//! Two policies are implemented:
//!
//! * [`optimize_max_min`] — fairness: maximize the *worst* link's power
//!   (the natural broadcast/coexistence objective);
//! * [`optimize_favor`] — access control: maximize one receiver while
//!   suppressing the others (polarization as a crude spatial key).
//!
//! Since the fleet engine landed, both are thin fronts over
//! [`crate::fleet`]'s shared-plan batch path: the bias grid is cascaded
//! once per probe ([`StackEvaluator::eval_batch`]) and each receiver's
//! scatter is prepared once ([`PreparedLink`]), instead of re-evaluating
//! the full stack per receiver per bias. `batched == naive` is pinned to
//! 1e-12 by the regression tests below and `tests/proptest_fleet.rs`.
//!
//! When one shared bias cannot serve the population at all — mutually
//! orthogonal sectors, large fleets — the next lever is *spatial*
//! multiplexing across several independently biased surfaces:
//! [`crate::panels`] generalizes these policies to a per-panel bias
//! vector.

use control::sweep::grid_points;
use metasurface::evaluator::StackEvaluator;
use metasurface::response::{Metasurface, SurfaceResponse};
use metasurface::stack::{BiasState, SUPPLY_CEILING};
use propagation::antenna::OrientedAntenna;
use propagation::link::{Link, PreparedLink};
use rfmath::units::Dbm;

use crate::scenario::Scenario;

/// One receiver sharing the surface.
#[derive(Clone, Debug)]
pub struct SharedReceiver {
    /// Antenna and mount orientation of this endpoint.
    pub rx: OrientedAntenna,
    /// Display label.
    pub label: &'static str,
}

/// Link powers for every shared receiver at one bias state.
#[derive(Clone, Debug)]
pub struct GroupPowers {
    /// The bias state evaluated.
    pub bias: BiasState,
    /// Per-receiver received power, dBm, in input order.
    pub powers_dbm: Vec<f64>,
}

impl GroupPowers {
    /// The weakest link's power.
    pub fn min_dbm(&self) -> f64 {
        self.powers_dbm
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Power gap between a favored receiver and the best of the rest
    /// (the "access-control margin"), dB.
    pub fn isolation_db(&self, favored: usize) -> f64 {
        let others = self
            .powers_dbm
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != favored)
            .map(|(_, &p)| p)
            .fold(f64::NEG_INFINITY, f64::max);
        self.powers_dbm[favored] - others
    }
}

/// Evaluates every receiver's power under a common bias state: the path
/// set is built once and projected per receiver (one cascade, one path
/// build, N polarization projections).
pub fn group_powers(
    base: &Scenario,
    receivers: &[SharedReceiver],
    surface: &mut Metasurface,
    bias: BiasState,
) -> GroupPowers {
    surface.set_bias(bias);
    let mounts: Vec<OrientedAntenna> = receivers.iter().map(|r| r.rx.clone()).collect();
    let link = base.link();
    let response = surface.response(base.frequency);
    GroupPowers {
        bias,
        powers_dbm: link
            .received_dbm_for(Some(&response), &mounts)
            .into_iter()
            .map(|p| p.0)
            .collect(),
    }
}

/// Grid-search over the bias plane maximizing the worst link.
pub fn optimize_max_min(
    base: &Scenario,
    receivers: &[SharedReceiver],
    steps: usize,
) -> GroupPowers {
    search(base, receivers, steps, |g| g.min_dbm())
}

/// Grid-search maximizing `favored`'s isolation over the other links.
pub fn optimize_favor(
    base: &Scenario,
    receivers: &[SharedReceiver],
    favored: usize,
    steps: usize,
) -> GroupPowers {
    assert!(favored < receivers.len(), "favored index out of range");
    search(base, receivers, steps, |g| g.isolation_db(favored))
}

/// The shared grid search: every bias in the `steps × steps` grid is
/// cascaded once through a compiled plan and projected onto every
/// receiver's prepared link.
fn search(
    base: &Scenario,
    receivers: &[SharedReceiver],
    steps: usize,
    score: impl Fn(&GroupPowers) -> f64,
) -> GroupPowers {
    assert!(!receivers.is_empty(), "need at least one receiver");
    let steps = steps.max(2);
    let v_max = SUPPLY_CEILING;
    let full = (0.0, v_max.0);
    let biases: Vec<BiasState> = grid_points(steps, full, full)
        .map(|p| BiasState { vx: p.vx, vy: p.vy }.clamped(v_max))
        .collect();

    // The scatter realization is bias-independent: prepare it once and
    // rebind one probe handle per receive mount (a mount change reuses
    // the cached scatter) instead of redrawing it for every grid probe.
    let link = base.link();
    let prepared = PreparedLink::new(link.clone());
    let links: Vec<PreparedLink> = receivers
        .iter()
        .map(|r| {
            prepared.rebind(Link {
                rx: r.rx.clone(),
                ..link.clone()
            })
        })
        .collect();
    let evaluator = StackEvaluator::new(&base.design.stack, base.frequency);
    let responses = evaluator.eval_batch(&biases);

    let mut best: Option<(f64, GroupPowers)> = None;
    for (bias, response) in biases.into_iter().zip(responses) {
        let response = SurfaceResponse::new(base.frequency, response);
        let g = GroupPowers {
            bias,
            powers_dbm: links
                .iter()
                .map(|l| l.received_dbm_with(Some(&response)).0)
                .collect(),
        };
        let s = score(&g);
        if best.as_ref().map(|(b, _)| s > *b).unwrap_or(true) {
            best = Some((s, g));
        }
    }
    best.expect("non-empty grid").1
}

/// Convenience: the received power of a single orientation without any
/// surface (per-receiver baseline).
pub fn baseline_dbm(base: &Scenario, rx: &OrientedAntenna) -> Dbm {
    let mut scenario = base.clone();
    scenario.rx = rx.clone();
    scenario.link().received_dbm(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use propagation::antenna::Antenna;
    use rfmath::units::Degrees;

    fn two_receivers() -> Vec<SharedReceiver> {
        vec![
            SharedReceiver {
                rx: OrientedAntenna::new(Antenna::directional_panel(), Degrees(0.0)),
                label: "horizontal device",
            },
            SharedReceiver {
                rx: OrientedAntenna::new(Antenna::directional_panel(), Degrees(50.0)),
                label: "tilted device",
            },
        ]
    }

    /// The pre-fleet implementation, verbatim: full stack re-evaluation
    /// per receiver per bias through a cloned scenario. Kept as the
    /// regression oracle for the batched path.
    fn naive_search(
        base: &Scenario,
        receivers: &[SharedReceiver],
        steps: usize,
        score: impl Fn(&GroupPowers) -> f64,
    ) -> GroupPowers {
        let steps = steps.max(2);
        let mut surface = Metasurface::new(base.design.clone());
        let mut best: Option<(f64, GroupPowers)> = None;
        for i in 0..steps {
            for j in 0..steps {
                let bias = BiasState::new(
                    30.0 * i as f64 / (steps - 1) as f64,
                    30.0 * j as f64 / (steps - 1) as f64,
                );
                surface.set_bias(bias);
                let powers = receivers
                    .iter()
                    .map(|r| {
                        let mut scenario = base.clone();
                        scenario.rx = r.rx.clone();
                        scenario.link().received_dbm(Some(&surface)).0
                    })
                    .collect();
                let g = GroupPowers {
                    bias,
                    powers_dbm: powers,
                };
                let s = score(&g);
                if best.as_ref().map(|(b, _)| s > *b).unwrap_or(true) {
                    best = Some((s, g));
                }
            }
        }
        best.expect("non-empty grid").1
    }

    #[test]
    fn batched_search_matches_naive_to_1e12() {
        // The satellite bugfix contract: routing the multilink policies
        // through the shared-plan batch API must not move any result by
        // more than 1e-12 — same winning bias, same per-receiver powers.
        let base = Scenario::transmissive_default().with_seed(71);
        let receivers = two_receivers();
        for steps in [3, 7] {
            let fast = optimize_max_min(&base, &receivers, steps);
            let slow = naive_search(&base, &receivers, steps, |g| g.min_dbm());
            assert_eq!(fast.bias, slow.bias, "steps {steps}: winner moved");
            for (a, b) in fast.powers_dbm.iter().zip(&slow.powers_dbm) {
                assert!((a - b).abs() < 1e-12, "steps {steps}: {a} vs {b}");
            }
            let fast = optimize_favor(&base, &receivers, 1, steps);
            let slow = naive_search(&base, &receivers, steps, |g| g.isolation_db(1));
            assert_eq!(fast.bias, slow.bias);
            for (a, b) in fast.powers_dbm.iter().zip(&slow.powers_dbm) {
                assert!((a - b).abs() < 1e-12);
            }
        }
        // Multipath rooms too (scatter paths shared across receivers).
        let room = Scenario::wifi_iot_default().with_seed(5);
        let fast = optimize_max_min(&room, &receivers, 4);
        let slow = naive_search(&room, &receivers, 4, |g| g.min_dbm());
        for (a, b) in fast.powers_dbm.iter().zip(&slow.powers_dbm) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn max_min_beats_both_baselines_or_matches() {
        let base = Scenario::transmissive_default().with_seed(71);
        let receivers = two_receivers();
        let outcome = optimize_max_min(&base, &receivers, 9);
        // The shared state must leave the worst link no worse than the
        // worst no-surface baseline (the surface can always approximate
        // a compromise rotation).
        let worst_baseline = receivers
            .iter()
            .map(|r| baseline_dbm(&base, &r.rx).0)
            .fold(f64::INFINITY, f64::min);
        assert!(
            outcome.min_dbm() > worst_baseline,
            "max-min {:.1} dBm vs worst baseline {:.1} dBm",
            outcome.min_dbm(),
            worst_baseline
        );
    }

    #[test]
    fn favoring_creates_isolation() {
        // The surface's reachable output orientations span roughly
        // 26°–130° for this vertical transmitter (rotation range
        // ~−64°..+40°). Placing "ours" near one edge of that span and
        // the neighbour 90° away lets the search drop a polarization
        // null on the neighbour while staying co-polarized with ours.
        let base = Scenario::transmissive_default().with_seed(72);
        let receivers = vec![
            SharedReceiver {
                rx: OrientedAntenna::new(Antenna::directional_panel(), Degrees(125.0)),
                label: "ours",
            },
            SharedReceiver {
                rx: OrientedAntenna::new(Antenna::directional_panel(), Degrees(35.0)),
                label: "neighbour",
            },
        ];
        let outcome = optimize_favor(&base, &receivers, 0, 11);
        assert!(
            outcome.isolation_db(0) > 10.0,
            "isolation = {:.1} dB",
            outcome.isolation_db(0)
        );
    }

    #[test]
    fn group_powers_shape() {
        let base = Scenario::transmissive_default().with_seed(73);
        let receivers = two_receivers();
        let mut surface = Metasurface::new(base.design.clone());
        let g = group_powers(&base, &receivers, &mut surface, BiasState::new(6.0, 6.0));
        assert_eq!(g.powers_dbm.len(), 2);
        assert!(g.powers_dbm.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn group_powers_matches_per_receiver_evaluation() {
        let base = Scenario::transmissive_default().with_seed(73);
        let receivers = two_receivers();
        let mut surface = Metasurface::new(base.design.clone());
        let g = group_powers(&base, &receivers, &mut surface, BiasState::new(9.0, 21.0));
        for (r, got) in receivers.iter().zip(&g.powers_dbm) {
            let mut scenario = base.clone();
            scenario.rx = r.rx.clone();
            let want = scenario.link().received_dbm(Some(&surface)).0;
            assert!((got - want).abs() < 1e-12, "{}: {got} vs {want}", r.label);
        }
    }

    #[test]
    #[should_panic(expected = "favored index")]
    fn favor_validates_index() {
        let base = Scenario::transmissive_default();
        let _ = optimize_favor(&base, &two_receivers(), 5, 3);
    }
}
