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
//! * the `MaxMin` scheduler's score is ≥ the worst link of *every*
//!   probed shared bias (it is the arg-max of the min — no probed
//!   compromise can beat it).

mod common;

use llama_core::faults::{BiasFault, CellFaultKind};
use llama_core::fleet::{Fleet, FleetDevice, FleetEvaluator, Scheduler, FAN_OUT_MIN_PROBES};
use metasurface::evaluator::StackEvaluator;
use metasurface::response::SurfaceResponse;
use metasurface::stack::{BiasState, SUPPLY_CEILING};
use propagation::link::PreparedLink;
use proptest::prelude::*;
use rfmath::units::{Degrees, Volts};

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
            let worst = powers.iter().copied().fold(f64::INFINITY, f64::min);
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
