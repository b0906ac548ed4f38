//! Panel-engine contracts:
//!
//! * a K = 1 panel array is the degenerate case: the panel scheduler
//!   must reproduce the shared-bias `Scheduler` outcome *exactly* (same
//!   bias, same per-device powers, same probe count) across random
//!   fleets — the panel layer adds capability, never drift;
//! * the K-panel cold schedule advances every panel's search in
//!   lockstep and probes each round's grids in one batch, yet each
//!   panel's outcome is bitwise `Scheduler::run` over its sub-fleet,
//!   history included, for every policy, with empty panels, at any
//!   thread budget;
//! * the per-panel shared-plan batch path equals the naive per-device
//!   loop over each panel's sub-fleet bit for bit across random fleets,
//!   panel counts and assignments;
//! * assignment policies are deterministic under device permutation
//!   (stable tie-breaks — a fleet is a *set* of devices);
//! * the joint multi-surface search degenerates to the independent
//!   scheduler bit-for-bit at zero coupling, and its converged score is
//!   iteration-order independent at the convergence tolerance.

mod common;

use llama_core::fleet::{Fleet, FleetDevice, FleetOutcome, Policy, Scheduler};
use llama_core::panels::{Assignment, JointConfig, PanelArray, PanelScheduler};
use metasurface::stack::BiasState;
use propagation::coupling::CouplingConfig;
use proptest::prelude::*;
use rfmath::units::Degrees;

/// A random heterogeneous fleet: 1..max devices of mixed radio classes,
/// orientations, distances and channel seeds (derived from a xorshift
/// stream so each drawn class vector yields a full device population).
fn fleet(max_devices: usize) -> BoxedStrategy<Fleet> {
    prop::collection::vec(0usize..3, 1..max_devices)
        .prop_map(|kinds| {
            let mut rng_state = 0x13A5_62E1_9C4F_07B5u64 ^ (kinds.len() as u64);
            let mut next = move || {
                rng_state ^= rng_state << 13;
                rng_state ^= rng_state >> 7;
                rng_state ^= rng_state << 17;
                rng_state
            };
            let mut f = Fleet::new(metasurface::designs::fr4_optimized());
            for (i, kind) in kinds.iter().enumerate() {
                let deg = Degrees((next() % 180) as f64 - 90.0);
                let seed = next() % 1_000;
                f.push(match kind {
                    0 => {
                        FleetDevice::wifi(format!("w{i}"), deg, 150.0 + (next() % 300) as f64, seed)
                    }
                    1 => {
                        FleetDevice::ble(format!("b{i}"), deg, 150.0 + (next() % 300) as f64, seed)
                    }
                    _ => FleetDevice::usrp(format!("u{i}"), deg, 30.0 + (next() % 80) as f64, seed),
                });
            }
            f
        })
        .boxed()
}

fn biases() -> BoxedStrategy<Vec<BiasState>> {
    prop::collection::vec((0.0f64..30.0, 0.0f64..30.0), 1..6)
        .prop_map(|v| v.into_iter().map(|(x, y)| BiasState::new(x, y)).collect())
        .boxed()
}

fn assignment() -> BoxedStrategy<Assignment> {
    prop_oneof![
        Just(Assignment::ByOrientation),
        Just(Assignment::RoundRobin),
        Just(Assignment::BestReference),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// K = 1 reproduces PR 3's shared-bias scheduler outcome exactly —
    /// not "to within tolerance": the degenerate array runs the very
    /// same search over the very same sub-fleet.
    #[test]
    fn single_panel_array_is_the_shared_bias_scheduler(f in fleet(5)) {
        let array = PanelArray::uniform(f.design.clone(), 1);
        let panel = PanelScheduler::max_min().run(&f, &array);
        let shared = Scheduler::max_min().run(&f);
        prop_assert_eq!(panel.assignment, vec![0; f.len()]);
        prop_assert_eq!(panel.probes, shared.probes);
        prop_assert_eq!(
            panel.per_panel[0].outcome.shared_bias,
            shared.shared_bias
        );
        prop_assert_eq!(panel.per_panel[0].outcome.score, shared.score);
        for (a, b) in panel.per_device.iter().zip(&shared.per_device) {
            prop_assert_eq!(a.power_dbm, b.power_dbm);
            prop_assert_eq!(a.bias, b.bias);
            prop_assert_eq!(a.throughput_bits_hz, b.throughput_bits_hz);
        }
        prop_assert_eq!(panel.min_power_dbm(), shared.min_power_dbm());
    }

    /// Per-panel batched probe matrices equal the naive per-device loop
    /// over each panel's sub-fleet bit for bit across random fleets,
    /// panel counts and assignment policies.
    #[test]
    fn batched_panel_matrices_match_naive_loop(
        f in fleet(6),
        probes in biases(),
        k in 1usize..4,
        asg in assignment(),
    ) {
        let array = PanelArray::uniform(f.design.clone(), k);
        let map = array.assign(&f, &asg);
        let fast = array.batched_panel_matrices(&f, &map, &probes);
        let naive: Vec<Vec<Vec<f64>>> = array
            .subfleets(&f, &map)
            .iter()
            .map(|(subfleet, _)| common::naive_powers_matrix(subfleet, &probes))
            .collect();
        prop_assert_eq!(fast.len(), k);
        for (p, (rows_fast, rows_naive)) in fast.iter().zip(&naive).enumerate() {
            prop_assert_eq!(rows_fast.len(), probes.len());
            for (b, (row_fast, row_naive)) in rows_fast.iter().zip(rows_naive).enumerate() {
                prop_assert_eq!(row_fast.len(), row_naive.len());
                for (d, (a, n)) in row_fast.iter().zip(row_naive).enumerate() {
                    prop_assert!(
                        a.to_bits() == n.to_bits(),
                        "panel {p} bias {b} member {d}: batched {a} vs naive {n}"
                    );
                }
            }
        }
    }
}

/// Every float of an outcome as its bit pattern, so two outcomes
/// compare bit for bit: policy, shared bias, score, probes, airtime,
/// per-device service and the whole probe history.
fn outcome_bits(o: &FleetOutcome) -> Vec<u64> {
    let mut out = vec![o.score.to_bits(), o.probes as u64, o.elapsed.0.to_bits()];
    out.push(match o.policy {
        Policy::MaxMin => 0,
        Policy::Favor { favored } => 1 + favored as u64,
        Policy::TimeDivision => u64::MAX,
    });
    if let Some(b) = o.shared_bias {
        out.extend([b.vx.0.to_bits(), b.vy.0.to_bits()]);
    }
    for d in &o.per_device {
        out.extend([
            d.bias.vx.0.to_bits(),
            d.bias.vy.0.to_bits(),
            d.power_dbm.to_bits(),
            d.duty.to_bits(),
            d.throughput_bits_hz.to_bits(),
            u64::from(d.decodable),
        ]);
    }
    for (b, row) in &o.history {
        out.extend([b.vx.0.to_bits(), b.vy.0.to_bits(), row.len() as u64]);
        out.extend(row.dbm().map(f64::to_bits));
    }
    out
}

/// The scheduler a lone panel runs: a fleet-order `Favor` index becomes
/// the panel's sub-fleet index where the favored device has company,
/// and max-min everywhere else.
fn lone_panel_scheduler(base: &Scheduler, members: &[usize]) -> Scheduler {
    let mut scheduler = base.clone();
    if let Policy::Favor { favored } = base.policy {
        scheduler.policy = match members.iter().position(|&d| d == favored) {
            Some(sub) if members.len() >= 2 => Policy::Favor { favored: sub },
            _ => Policy::MaxMin,
        };
    }
    scheduler
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The lockstep schedule is the one-panel-at-a-time schedule: each
    /// panel's allocation equals `Scheduler::run` over its
    /// `PanelArray::subfleets` member bit for bit, history included,
    /// for max-min, favor and time division, K = 1..4 with explicit
    /// assignments that leave panels empty, at budgets 1 and 4.
    #[test]
    fn lockstep_panels_are_each_panel_scheduled_alone(
        f in fleet(7),
        k in 1usize..5,
        picks in prop::collection::vec(0usize..4, 7..8),
        policy in 0usize..3,
        favored in 0usize..7,
    ) {
        let map: Vec<usize> = picks[..f.len()].iter().map(|&p| p % k).collect();
        let array = PanelArray::uniform(f.design.clone(), k);
        let base = match policy {
            0 => Scheduler::max_min(),
            1 => Scheduler::favor(favored % f.len()),
            _ => Scheduler::time_division(),
        };
        let scheduler = PanelScheduler {
            base: base.clone(),
            ..PanelScheduler::max_min()
        }
        .with_assignment(Assignment::Explicit(map.clone()));
        let alone: Vec<Vec<u64>> = array
            .subfleets(&f, &map)
            .iter()
            .map(|(subfleet, members)| {
                outcome_bits(&lone_panel_scheduler(&base, members).run(subfleet))
            })
            .collect();
        for budget in [1, 4] {
            let outcome = rfmath::par::with_budget(budget, || scheduler.run(&f, &array));
            prop_assert_eq!(&outcome.assignment, &map);
            prop_assert_eq!(outcome.per_panel.len(), k);
            for (p, (allocation, expected)) in outcome.per_panel.iter().zip(&alone).enumerate() {
                prop_assert!(
                    &outcome_bits(&allocation.outcome) == expected,
                    "panel {p} at budget {budget} drifted from its lone schedule"
                );
            }
        }
    }
}

/// Rebuilds `f` with its devices pushed in `perm` order; position `j`
/// of the result holds original device `perm[j]`.
fn permute_fleet(f: &Fleet, perm: &[usize]) -> Fleet {
    let mut g = Fleet::new(f.design.clone());
    for &j in perm {
        g.push(f.devices()[j].clone());
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A fleet is a *set* of devices: shuffling their push order must
    /// not change which panel any individual device is served by, for
    /// both the geometric policy and the measured-power greedy (whose
    /// tie-breaks are required to be fleet-order free).
    #[test]
    fn assignment_policies_are_permutation_stable(
        f in fleet(6),
        seed in any::<u64>(),
        k in 1usize..4,
        distributed in any::<bool>(),
    ) {
        // Fisher–Yates from the drawn seed: an arbitrary reordering of
        // the fleet's push order.
        let mut perm: Vec<usize> = (0..f.len()).collect();
        let mut s = seed | 1;
        for i in (1..perm.len()).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            perm.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let array = if distributed {
            PanelArray::distributed(f.design.clone(), k)
        } else {
            PanelArray::uniform(f.design.clone(), k)
        };
        let shuffled = permute_fleet(&f, &perm);
        for asg in [Assignment::ByOrientation, Assignment::BestReference] {
            let base = array.assign(&f, &asg);
            let permuted = array.assign(&shuffled, &asg);
            for (j, &orig) in perm.iter().enumerate() {
                prop_assert!(
                    base[orig] == permuted[j],
                    "{:?}: device {} served by panel {} in fleet order but {} when pushed {}th",
                    asg, orig, base[orig], permuted[j], j
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole equivalence gate: with coupling disabled the joint
    /// mode IS the independent scheduler — same assignment, same panel
    /// biases, same per-device powers, bit-for-bit, at the same probe
    /// bill, across random fleets and panel counts.
    #[test]
    fn zero_coupling_joint_is_independent_bitwise(f in fleet(5), k in 2usize..4) {
        let array = PanelArray::distributed(f.design.clone(), k);
        let independent = PanelScheduler::max_min().run(&f, &array);
        let joint = PanelScheduler::max_min()
            .with_joint(JointConfig {
                coupling: CouplingConfig::disabled(),
                ..JointConfig::default()
            })
            .run(&f, &array);
        prop_assert!(joint.same_allocation(&independent));
        prop_assert_eq!(joint.probes, independent.probes);
        let stats = joint.joint.expect("joint mode reports its stats");
        prop_assert_eq!(stats.rounds, 0);
        prop_assert_eq!(stats.coupled_probes, 0);
        prop_assert_eq!(stats.cross_energy_fraction, 0.0);
        prop_assert_eq!(stats.lift_db, 0.0);
    }

    /// At the convergence tolerance the block-coordinate descent's
    /// fixed point does not depend on which end of the panel vector the
    /// sweep starts from, and neither direction ever loses to the
    /// independent biases it started at.
    #[test]
    fn joint_search_is_iteration_order_independent(f in fleet(5), k in 2usize..4) {
        let array = PanelArray::distributed(f.design.clone(), k);
        let cfg = JointConfig::default();
        let forward = PanelScheduler::max_min().with_joint(cfg).run(&f, &array);
        let reversed = PanelScheduler::max_min()
            .with_joint(JointConfig { reverse_order: true, ..cfg })
            .run(&f, &array);
        let fs = forward.joint.expect("joint stats");
        let rs = reversed.joint.expect("joint stats");
        prop_assert!(fs.lift_db >= -1e-9);
        prop_assert!(rs.lift_db >= -1e-9);
        if fs.converged && rs.converged {
            prop_assert!(
                (forward.score - reversed.score).abs() <= 2.0 * cfg.tolerance_db,
                "converged scores diverge across iteration order: forward {} vs reversed {}",
                forward.score,
                reversed.score
            );
        }
    }
}
