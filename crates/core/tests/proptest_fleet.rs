//! Fleet-engine contracts:
//!
//! * the shared-plan batch path equals the naive per-device loop bit
//!   for bit across random fleets (reflective devices included) and
//!   bias lists;
//! * every `powers_matrix` row is bitwise the per-device single-bias
//!   probe (fresh plan, `StackEvaluator::response`, prepared link), for
//!   any bias list (out-of-range, repeated, sharing axis voltages),
//!   under bias faults, serial or fanned out across two threads — also
//!   for fleets mixing shadow tunings and reflective devices, after an
//!   `update_device` retunes one, and for NaN, infinite and
//!   out-of-range biases;
//! * a healthy and a faulted evaluator over one shared plan store,
//!   their batches interleaved, each return bitwise the matrices of
//!   their own private store: the store's cell memo is keyed by the
//!   bias the panel applies, not the one the search commands;
//! * the `MaxMin` scheduler's score is ≥ the worst link of *every*
//!   probed shared bias (it is the arg-max of the min — no probed
//!   compromise can beat it);
//! * the schedulers' reductions of linear rows are bitwise the dBm path
//!   (convert every entry, then score or take `max_by(total_cmp)`) on
//!   quantized landscapes whose adjacent-float powers round to one dBm
//!   value, mixed with zero, negative, NaN and infinite powers: the
//!   Algorithm 1 leader, score and winning row under `MaxMin` and
//!   `Favor`, and every device's time-division winner.

mod common;

use control::controller::Objective;
use control::sweep::{GridSearch, MultiSweepOutcome, SweepConfig};
use llama_core::faults::{BiasFault, CellFaultKind};
use llama_core::fleet::{
    winner_of, Fleet, FleetDevice, FleetEvaluator, PowerRow, Scheduler, FAN_OUT_MIN_PROBES,
};
use metasurface::evaluator::{SharedPlanCache, StackEvaluator};
use metasurface::response::SurfaceResponse;
use metasurface::stack::{BiasState, SUPPLY_CEILING};
use propagation::link::PreparedLink;
use proptest::prelude::*;
use rfmath::telemetry::RecorderHandle;
use rfmath::units::{Dbm, Degrees, Volts};
use std::sync::Arc;

/// A random heterogeneous fleet: 1..max devices of mixed radio classes
/// (reflective USRPs among them), orientations, distances and channel
/// seeds.
fn fleet(max_devices: usize) -> BoxedStrategy<Fleet> {
    fleet_of(4, max_devices)
}

/// A random fleet of 1..max devices drawn from the first `kind_count`
/// device kinds (Wi-Fi, BLE, USRP, reflective USRP), with orientations,
/// distances and channel seeds derived from a xorshift stream so each
/// drawn class vector yields a full device population.
fn fleet_of(kind_count: usize, max_devices: usize) -> BoxedStrategy<Fleet> {
    prop::collection::vec(0usize..kind_count, 1..max_devices)
        .prop_map(|kinds| {
            let mut rng_state = 0x243F_6A88_85A3_08D3u64 ^ (kinds.len() as u64);
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
                    2 => FleetDevice::usrp(format!("u{i}"), deg, 30.0 + (next() % 80) as f64, seed),
                    _ => FleetDevice::usrp(format!("r{i}"), deg, 30.0 + (next() % 80) as f64, seed)
                        .reflective(),
                });
            }
            f
        })
        .boxed()
}

fn biases() -> BoxedStrategy<Vec<BiasState>> {
    prop::collection::vec((0.0f64..30.0, 0.0f64..30.0), 1..8)
        .prop_map(|v| v.into_iter().map(|(x, y)| BiasState::new(x, y)).collect())
        .boxed()
}

/// Bias lists with out-of-range voltages (below 0 V and above the
/// supply ceiling), exact repeats, and new biases pairing one entry's
/// X voltage with another's Y voltage.
fn bias_lists() -> BoxedStrategy<Vec<BiasState>> {
    (
        prop::collection::vec((-5.0f64..40.0, -5.0f64..40.0), 1..24),
        prop::collection::vec((0usize..64, 0usize..64, 0usize..2), 0..16),
    )
        .prop_map(|(fresh, picks)| {
            let mut list: Vec<BiasState> = fresh
                .into_iter()
                .map(|(x, y)| BiasState::new(x, y))
                .collect();
            for (a, b, kind) in picks {
                let (a, b) = (list[a % list.len()], list[b % list.len()]);
                list.push(if kind == 0 {
                    a
                } else {
                    BiasState { vx: a.vx, vy: b.vy }
                });
            }
            list
        })
        .boxed()
}

/// Shadow tunings a fleet mixes (`LinkTuning::shadow_extra_db`).
const SHADOWS: [f64; 5] = [0.0, -0.0, 0.35, 6.5, 250.0];

/// A random fleet of at least 3 devices mixing shadow tunings and
/// reflective devices: devices 0 and 1 are transmissive with distinct
/// shadow tunings, device 2 is reflective, the rest draw both. Fleets
/// drawn shorter than 3 devices repeat their devices to get there.
fn tuned_fleet(max_devices: usize) -> BoxedStrategy<Fleet> {
    (
        fleet_of(3, max_devices),
        prop::collection::vec(
            (0usize..SHADOWS.len(), 0usize..3),
            max_devices..max_devices + 1,
        ),
        1usize..SHADOWS.len(),
    )
        .prop_map(|(base, picks, step)| {
            let mut f = Fleet::new(base.design.clone());
            let devices = base.devices().iter().cycle().take(base.len().max(3));
            for (d, (device, &(shadow, mount))) in devices.zip(&picks).enumerate() {
                let mut device = device.clone();
                let shadow = if d == 1 {
                    (picks[0].0 + step) % SHADOWS.len()
                } else {
                    shadow
                };
                device.scenario.tuning.shadow_extra_db = SHADOWS[shadow];
                let reflective = match d {
                    0 | 1 => false,
                    2 => true,
                    _ => mount == 0,
                };
                f.push(if reflective {
                    device.reflective()
                } else {
                    device
                });
            }
            f
        })
        .boxed()
}

/// Bias lists mixing in-range voltages with NaN, ±∞ and out-of-range
/// ones on either axis.
fn wild_bias_lists() -> BoxedStrategy<Vec<BiasState>> {
    let volts = prop_oneof![
        0.0f64..30.0,
        -50.0f64..80.0,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
    .boxed();
    prop::collection::vec((volts.clone(), volts), 1..12)
        .prop_map(|v| v.into_iter().map(|(x, y)| BiasState::new(x, y)).collect())
        .boxed()
}

/// One axis's defect: none, stuck at a voltage, or clamped below one.
fn axis_fault() -> BoxedStrategy<Option<CellFaultKind>> {
    prop_oneof![
        Just(None),
        (0.0f64..30.0).prop_map(|v| Some(CellFaultKind::Stuck(Volts(v)))),
        (0.0f64..30.0).prop_map(|v| Some(CellFaultKind::Clamped(Volts(v)))),
    ]
    .boxed()
}

/// The per-probe oracle: every device's power under one commanded bias,
/// through its own freshly compiled plan's single-bias cascade and its
/// own prepared link, at the bias the faulted panel realizes.
fn single_bias_powers(fleet: &Fleet, fault: &BiasFault, bias: BiasState) -> Vec<f64> {
    let bias = fault.apply(bias.clamped(SUPPLY_CEILING));
    fleet
        .devices()
        .iter()
        .map(|device| {
            let f = device.scenario.frequency;
            let response = StackEvaluator::new(&fleet.design.stack, f).response(bias);
            PreparedLink::new(device.scenario.link())
                .received_dbm_with(Some(&SurfaceResponse::new(f, response)))
                .0
        })
        .collect()
}

/// Asserts every row of `matrix` is bitwise `want[row % want.len()]`.
fn assert_rows_bitwise(
    matrix: &[Vec<f64>],
    want: &[Vec<f64>],
    context: &str,
) -> Result<(), TestCaseError> {
    for (i, row) in matrix.iter().enumerate() {
        let want = &want[i % want.len()];
        prop_assert_eq!(row.len(), want.len());
        for (d, (got, want)) in row.iter().zip(want).enumerate() {
            prop_assert!(
                got.to_bits() == want.to_bits(),
                "{context} bias {i} device {d}: {got} vs {want}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fleets mixing shadow tunings and reflective devices: every row is
    /// bitwise the per-device single-bias probe at budgets 1 and 2, NaN,
    /// infinite and out-of-range biases included, before and after an
    /// `update_device` that moves one device to another shadow tuning.
    /// With `fan` set the list is repeated past `FAN_OUT_MIN_PROBES`.
    #[test]
    fn mixed_shadow_rows_are_bitwise_single_bias_probes(
        f in tuned_fleet(7),
        base in wild_bias_lists(),
        retune in (0usize..16, 1usize..SHADOWS.len()),
        fan in 0usize..2,
    ) {
        let healthy = BiasFault { x: None, y: None };
        let copies = if fan == 1 {
            FAN_OUT_MIN_PROBES.div_ceil(base.len() * f.len())
        } else {
            1
        };
        let list: Vec<BiasState> = base.iter().copied().cycle().take(copies * base.len()).collect();
        let check = |fleet: &Fleet, evaluator: &FleetEvaluator, arm: &str| {
            let want: Vec<Vec<f64>> = base
                .iter()
                .map(|&b| single_bias_powers(fleet, &healthy, b))
                .collect();
            for budget in [1, 2] {
                let matrix = rfmath::par::with_budget(budget, || evaluator.powers_matrix(&list));
                prop_assert_eq!(matrix.len(), list.len());
                assert_rows_bitwise(&matrix, &want, &format!("{arm} budget {budget}"))?;
            }
            Ok(())
        };
        let mut evaluator = FleetEvaluator::new(&f);
        check(&f, &evaluator, "before update")?;
        let idx = retune.0 % f.len();
        let mut device = f.devices()[idx].clone();
        let tuning = &mut device.scenario.tuning.shadow_extra_db;
        let current = SHADOWS.iter().position(|s| s.to_bits() == tuning.to_bits());
        *tuning = SHADOWS[(current.unwrap_or(0) + retune.1) % SHADOWS.len()];
        evaluator.update_device(idx, &device);
        let mut retuned = Fleet::new(f.design.clone());
        for (d, old) in f.devices().iter().enumerate() {
            retuned.push(if d == idx { device.clone() } else { old.clone() });
        }
        check(&retuned, &evaluator, "after update")?;
    }

    /// Every row of the batch matrix is bitwise the single-bias probe
    /// of its bias, and so is `powers_dbm`, at a budget of 1 and of 2.
    /// With `fan` set the list is repeated past `FAN_OUT_MIN_PROBES`
    /// link-probes, so the budget-2 run splits the rows across threads.
    #[test]
    fn matrix_rows_are_bitwise_single_bias_probes(
        f in fleet(6),
        base in bias_lists(),
        x in axis_fault(),
        y in axis_fault(),
        fan in 0usize..2,
    ) {
        let fault = BiasFault { x, y };
        let mut evaluator = FleetEvaluator::new(&f);
        evaluator.set_bias_fault(Some(fault));
        let want: Vec<Vec<f64>> = base
            .iter()
            .map(|&b| single_bias_powers(&f, &fault, b))
            .collect();
        let copies = if fan == 1 {
            FAN_OUT_MIN_PROBES.div_ceil(base.len() * f.len())
        } else {
            1
        };
        let list: Vec<BiasState> = base.iter().copied().cycle().take(copies * base.len()).collect();
        for budget in [1, 2] {
            let matrix = rfmath::par::with_budget(budget, || evaluator.powers_matrix(&list));
            prop_assert_eq!(matrix.len(), list.len());
            assert_rows_bitwise(&matrix, &want, &format!("budget {budget}"))?;
        }
        for (&bias, want) in base.iter().zip(&want) {
            let single = evaluator.powers_dbm(bias);
            for (got, want) in single.iter().zip(want) {
                prop_assert!(got.to_bits() == want.to_bits(), "powers_dbm {bias:?}: {got} vs {want}");
            }
        }
    }

    /// A healthy and a faulted evaluator of one fleet draw plans from
    /// one shared store and probe interleaved bias lists: every matrix
    /// is bitwise the one the same evaluator returns over a private
    /// store. A memo keyed by the commanded bias would hand the faulted
    /// fleet the healthy panel's factors (or the reverse).
    #[test]
    fn healthy_and_faulted_fleets_share_one_cell_memo(
        f in fleet(6),
        lists in prop::collection::vec(bias_lists(), 2..4),
        x in axis_fault(),
        y in axis_fault(),
        faulted_first in 0usize..2,
    ) {
        let fault = BiasFault { x, y };
        let shared = Arc::new(SharedPlanCache::new(&f.design.stack));
        let pair = |shared: Option<&Arc<SharedPlanCache>>| {
            let evaluator = || match shared {
                Some(store) => FleetEvaluator::with_plan_cache(&f, &store.handle()),
                None => FleetEvaluator::new(&f),
            };
            let healthy = evaluator();
            let mut faulted = evaluator();
            faulted.set_bias_fault(Some(fault));
            [healthy, faulted]
        };
        let on_shared = pair(Some(&shared));
        let on_private = pair(None);
        for list in &lists {
            for arm in [faulted_first, 1 - faulted_first] {
                let got = on_shared[arm].powers_matrix(list);
                let want = on_private[arm].powers_matrix(list);
                prop_assert_eq!(got.len(), list.len());
                assert_rows_bitwise(&got, &want, &format!("arm {arm}"))?;
            }
        }
    }

    /// Batched == naive per-receiver powers bit for bit, across random
    /// heterogeneous fleets (mixed radios, transmissive and reflective
    /// deployments, rooms) and random bias lists.
    #[test]
    fn batched_fleet_powers_match_naive_loop(f in fleet(6), probes in biases()) {
        let evaluator = FleetEvaluator::new(&f);
        let fast = evaluator.powers_matrix(&probes);
        let naive = common::naive_powers_matrix(&f, &probes);
        prop_assert_eq!(fast.len(), naive.len());
        for (b, (row_fast, row_naive)) in fast.iter().zip(&naive).enumerate() {
            prop_assert_eq!(row_fast.len(), row_naive.len());
            for (d, (a, n)) in row_fast.iter().zip(row_naive).enumerate() {
                prop_assert!(
                    a.to_bits() == n.to_bits(),
                    "bias {b} device {d}: batched {a} vs naive {n}"
                );
            }
        }
    }

    /// The MaxMin allocation is at least as good (for the worst link) as
    /// every shared bias the search probed.
    #[test]
    fn max_min_dominates_every_probed_bias(f in fleet(5), _pad in 0u8..2) {
        let outcome = Scheduler::max_min().run(&f);
        for (bias, powers) in &outcome.history {
            let worst = powers.dbm().fold(f64::INFINITY, f64::min);
            prop_assert!(
                outcome.score >= worst - 1e-12,
                "probed bias {bias:?} has worst link {worst:.3} dBm above the \
                 scheduler's {:.3} dBm",
                outcome.score
            );
        }
        // And the reported per-device powers are exactly the winner's.
        let worst_reported = outcome
            .per_device
            .iter()
            .map(|d| d.power_dbm)
            .fold(f64::INFINITY, f64::min);
        prop_assert!((outcome.score - worst_reported).abs() < 1e-12);
    }
}

/// A linear power (mW) on a quantized landscape around `base`: mostly
/// one of four adjacent floats at or above it (most of which convert to
/// one dBm value), sometimes four adjacent floats just under
/// `base·(1 − 10⁻⁶)` or a power twice or half as strong, and sometimes
/// an edge: ±0, a negative power, a NaN (either sign, two payloads) or
/// ±∞.
fn quantized_power(base: f64, kind: u8, k: u64) -> f64 {
    let adjacent = |x: f64| f64::from_bits(x.to_bits() + k);
    match kind {
        0..=21 => adjacent(base),
        22..=24 => adjacent(base * (1.0 - 1e-6)),
        25 => base * [0.5, 2.0, 0.25, 4.0][k as usize],
        26 => [0.0, -0.0, 0.0, -0.0][k as usize],
        27 => -adjacent(base),
        28 => [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff8_0000_0000_0003),
        ][k as usize],
        _ => [f64::INFINITY, f64::NEG_INFINITY][k as usize % 2],
    }
}

/// `rows` probe rows of 2–4 devices on one quantized landscape, in
/// linear milliwatts; the base power spans −150 to +30 dBm.
fn quantized_rows(rows: std::ops::Range<usize>) -> BoxedStrategy<Vec<Vec<f64>>> {
    (
        -15.0f64..3.0,
        2usize..5,
        prop::collection::vec(prop::collection::vec((0u8..30, 0u64..4), 4..5), rows),
    )
        .prop_map(|(exponent, devices, picks)| {
            let base = 10f64.powf(exponent);
            picks
                .into_iter()
                .map(|row| {
                    row[..devices]
                        .iter()
                        .map(|&(kind, k)| quantized_power(base, kind, k))
                        .collect()
                })
                .collect()
        })
        .boxed()
}

/// Algorithm 1 (the paper's N = 2, T = 5) over `rows` handed out in
/// visit order, each probe scored by `score`.
fn search_over(rows: &[Vec<f64>], score: impl Fn(&[f64]) -> f64) -> MultiSweepOutcome {
    let mut next = rows.iter().cycle().cloned();
    GridSearch::cold(&SweepConfig::paper_default()).run(
        &RecorderHandle::null(),
        0,
        |grid| {
            grid.iter()
                .map(|_| next.next().expect("cycled rows"))
                .collect()
        },
        score,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `MaxMin` and `Favor` score linear rows bitwise as the dBm path
    /// scores their converted rows, so Algorithm 1 picks the same
    /// leader (strict `>` on the converted score) with the same score,
    /// and the winning row converts to the dBm path's winning row.
    #[test]
    fn linear_scores_and_leaders_match_the_dbm_path(rows in quantized_rows(1..60)) {
        let devices = rows[0].len();
        let objectives = [Objective::WorstLink]
            .into_iter()
            .chain((0..devices).map(|favored| Objective::Isolation { favored }));
        for objective in objectives {
            for row in &rows {
                let got = objective.score_mw(row).map(f64::to_bits);
                let want = common::dbm_path_score(&objective, row).map(f64::to_bits);
                prop_assert!(got == want, "{objective:?} on {row:?}: {got:?} vs {want:?}");
            }
            let linear = search_over(&rows, |m| objective.score_mw(m).unwrap_or(f64::NEG_INFINITY));
            let dbm = search_over(&rows, |m| {
                common::dbm_path_score(&objective, m).unwrap_or(f64::NEG_INFINITY)
            });
            prop_assert_eq!(linear.best, dbm.best);
            prop_assert_eq!(linear.best_score.to_bits(), dbm.best_score.to_bits());
            let converted: Vec<u64> = PowerRow::from_mw(linear.best_metrics)
                .dbm()
                .map(f64::to_bits)
                .collect();
            let want: Vec<u64> = dbm
                .best_metrics
                .iter()
                .map(|&p| Dbm::from_mw(p).0.to_bits())
                .collect();
            prop_assert_eq!(converted, want);
        }
    }

    /// Every device's time-division winner read from linear rows is the
    /// dBm path's `max_by(total_cmp)` winner: the same (last) row among
    /// powers that convert to one level, and the same dBm power.
    #[test]
    fn linear_time_division_winners_match_the_dbm_path(rows in quantized_rows(1..40)) {
        let history: Vec<(BiasState, PowerRow)> = rows
            .into_iter()
            .enumerate()
            .map(|(i, row)| (BiasState::new(i as f64, 0.0), PowerRow::from_mw(row)))
            .collect();
        for d in 0..history[0].1.len() {
            let (bias, power) = winner_of(&history, d);
            let (want_bias, want_power) = common::dbm_path_winner(&history, d);
            prop_assert_eq!(bias, want_bias);
            prop_assert_eq!(power.to_bits(), want_power.to_bits());
        }
    }
}
