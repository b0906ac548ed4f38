//! The batched-engine equivalence contract: `StackEvaluator` (cached,
//! separable, grid-parallel) must match naive per-point
//! `SurfaceStack::response` to 1e-12 across random designs, frequencies
//! and bias grids, and its structure-of-arrays kernel — behind both
//! `eval_batch` and `eval_grid` — must match the per-cell reference fold
//! bit for bit. Plan handles over one `SharedPlanCache` on different
//! threads, which share the store's branch solves, must answer bit for
//! bit like a private `StackEvaluator::new`. Every consumer of the
//! engine — heatmaps, rotation maps, the optimizer's probe loop, the
//! fleet server's jobs — leans on this property.

use metasurface::designs::{fr4_naive, fr4_optimized, rfid_900mhz, rogers_reference};
use metasurface::evaluator::{SharedPlanCache, StackEvaluator};
use metasurface::sheet::{AnisotropicSheet, SheetBranch};
use metasurface::stack::{BiasState, Panel, SurfaceStack};
use microwave::polarized::PolarizedS;
use microwave::substrate::{Material, Slab};
use microwave::varactor::Varactor;
use proptest::prelude::*;
use rfmath::units::{Farads, Henries, Hertz, Meters, Ohms, Radians};
use std::sync::Arc;

/// Largest |Δ| across all four scattering blocks.
fn max_diff(a: PolarizedS, b: PolarizedS) -> f64 {
    a.s11
        .max_abs_diff(b.s11)
        .max(a.s12.max_abs_diff(b.s12))
        .max(a.s21.max_abs_diff(b.s21))
        .max(a.s22.max_abs_diff(b.s22))
}

/// Every response component's bit pattern, so two batches compare bit
/// for bit. NaN components map to one canonical pattern: a NaN's payload
/// and sign are not part of the value, and the two kernels may emit
/// different ones for the same invalid input.
fn bits(batch: &[Option<PolarizedS>]) -> Vec<Option<Vec<u64>>> {
    let canonical = |x: f64| if x.is_nan() { f64::NAN } else { x }.to_bits();
    batch
        .iter()
        .map(|s| {
            s.map(|s| {
                [s.s11, s.s12, s.s21, s.s22]
                    .into_iter()
                    .flat_map(|m| [m.a, m.b, m.c, m.d])
                    .flat_map(|c| [c.re, c.im])
                    .chain([s.z0])
                    .map(canonical)
                    .collect()
            })
        })
        .collect()
}

/// One polarization branch: fixed tank, varactor-tuned tank, or bare
/// dielectric.
fn branch() -> BoxedStrategy<SheetBranch> {
    prop_oneof![
        (0.5f64..40.0, 0.05f64..2.0, 0.05f64..1.0).prop_map(|(l_nh, c_pf, r)| {
            SheetBranch::Fixed {
                l: Henries::from_nh(l_nh),
                c: Farads::from_pf(c_pf),
                r: Ohms(r),
            }
        }),
        (2.0f64..12.0, 0.3f64..3.0, 0.05f64..1.0).prop_map(|(l_nh, cc_pf, r)| {
            SheetBranch::Tuned {
                l: Henries::from_nh(l_nh),
                c_couple: Farads::from_pf(cc_pf),
                varactor: Varactor::smv1233(),
                r: Ohms(r),
            }
        }),
        Just(SheetBranch::Transparent),
    ]
    .boxed()
}

/// A randomly patterned board at a random mounting rotation.
fn panel() -> BoxedStrategy<Panel> {
    (branch(), branch(), 0.4f64..3.2, -1.6f64..1.6, 0usize..2)
        .prop_map(|(x, y, thickness_mm, rotation, material)| {
            let material = if material == 0 {
                Material::FR4
            } else {
                Material::ROGERS_5880
            };
            Panel {
                sheet: AnisotropicSheet {
                    x,
                    y,
                    slab: Slab::from_mm(material, thickness_mm),
                },
                rotation: Radians(rotation),
            }
        })
        .boxed()
}

/// A random stack: 1–4 panels with random air gaps between them.
fn stack() -> BoxedStrategy<SurfaceStack> {
    (
        prop::collection::vec(panel(), 1..5),
        prop::collection::vec(0.004f64..0.04, 4..5),
    )
        .prop_map(|(panels, gaps)| {
            let gaps = gaps[..panels.len() - 1]
                .iter()
                .map(|&g| Meters(g))
                .collect();
            SurfaceStack::new(panels, gaps)
        })
        .boxed()
}

/// A random bias-grid axis (2–4 voltages in the supply range).
fn axis() -> BoxedStrategy<Vec<f64>> {
    prop::collection::vec(0.0f64..30.0, 2..5).boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random stacks: the compiled plan's grid evaluation equals naive
    /// per-point cascades cell for cell.
    #[test]
    fn random_stacks_grid_matches_naive(
        stack in stack(),
        f_ghz in 1.8f64..3.0,
        vxs in axis(),
        vys in axis(),
    ) {
        let f = Hertz::from_ghz(f_ghz);
        let evaluator = StackEvaluator::new(&stack, f);
        let grid = evaluator.eval_grid(&vxs, &vys);
        prop_assert_eq!(grid.len(), vxs.len() * vys.len());
        for (iy, &vy) in vys.iter().enumerate() {
            for (ix, &vx) in vxs.iter().enumerate() {
                let naive = stack.response(f, BiasState::new(vx, vy));
                let fast = grid[iy * vxs.len() + ix];
                match (naive, fast) {
                    (Some(naive), Some(fast)) => prop_assert!(
                        max_diff(naive, fast) < 1e-12,
                        "cell ({vx:.2},{vy:.2}) diff {}",
                        max_diff(naive, fast)
                    ),
                    (None, None) => {}
                    _ => prop_assert!(false, "Some/None mismatch at ({vx:.2},{vy:.2})"),
                }
            }
        }
    }

    /// Random stacks: single-point evaluation (the optimizer's probe
    /// path, with warm voltage memos) equals the naive cascade.
    #[test]
    fn random_stacks_single_point_matches_naive(
        stack in stack(),
        f_ghz in 1.8f64..3.0,
        vx in 0.0f64..30.0,
        vy in 0.0f64..30.0,
    ) {
        let f = Hertz::from_ghz(f_ghz);
        let evaluator = StackEvaluator::new(&stack, f);
        let bias = BiasState::new(vx, vy);
        for _ in 0..2 {
            // Second pass hits the voltage memos.
            match (stack.response(f, bias), evaluator.response(bias)) {
                (Some(naive), Some(fast)) => prop_assert!(
                    max_diff(naive, fast) < 1e-12,
                    "diff {}",
                    max_diff(naive, fast)
                ),
                (None, None) => {}
                _ => prop_assert!(false, "Some/None mismatch"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The catalog designs (the stacks every published figure uses)
    /// agree between the engines across frequency and bias grids.
    #[test]
    fn catalog_designs_grid_matches_naive(
        which in 0usize..4,
        f_ghz in 2.2f64..2.7,
        vxs in axis(),
        vys in axis(),
    ) {
        let design = match which {
            0 => fr4_optimized(),
            1 => rogers_reference(),
            2 => fr4_naive(),
            _ => rfid_900mhz(),
        };
        let f = if which == 3 {
            Hertz(f_ghz / 2.667 * 1e9)
        } else {
            Hertz::from_ghz(f_ghz)
        };
        let evaluator = StackEvaluator::new(&design.stack, f);
        let grid = evaluator.eval_grid(&vxs, &vys);
        for (iy, &vy) in vys.iter().enumerate() {
            for (ix, &vx) in vxs.iter().enumerate() {
                let naive = design
                    .stack
                    .response(f, BiasState::new(vx, vy))
                    .expect("catalog cascade exists");
                let fast = grid[iy * vxs.len() + ix].expect("batched cascade exists");
                prop_assert!(
                    max_diff(naive, fast) < 1e-12,
                    "{} at ({vx:.2},{vy:.2}): diff {}",
                    design.name,
                    max_diff(naive, fast)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The structure-of-arrays batch kernel agrees with the per-cell
    /// reference fold bit for bit on random stacks and bias batches —
    /// including batches with repeated biases (the memo-hit path) and
    /// batches large enough to cross the SoA dispatch threshold.
    #[test]
    fn soa_batch_matches_reference(
        stack in stack(),
        f_ghz in 1.8f64..3.0,
        biases in prop::collection::vec((0.0f64..30.0, 0.0f64..30.0), 0..24),
        repeat in 0usize..8,
    ) {
        let f = Hertz::from_ghz(f_ghz);
        let evaluator = StackEvaluator::new(&stack, f);
        let mut batch: Vec<BiasState> = biases
            .iter()
            .map(|&(vx, vy)| BiasState::new(vx, vy))
            .collect();
        // Duplicate a prefix so the batch exercises repeated biases.
        let dupes: Vec<BiasState> = batch.iter().take(repeat).copied().collect();
        batch.extend(dupes);
        let fast = evaluator.eval_batch(&batch);
        let reference = evaluator.eval_batch_reference(&batch);
        prop_assert_eq!(bits(&fast), bits(&reference));
    }
}

/// A grid's cells as biases, in its row-major order.
fn grid_cells(vxs: &[f64], vys: &[f64]) -> Vec<BiasState> {
    vys.iter()
        .flat_map(|&vy| vxs.iter().map(move |&vx| BiasState::new(vx, vy)))
        .collect()
}

/// A random stack with its tuned panels axis-aligned (the grid's kernel
/// path) or at their drawn rotations (the fold), or a lone stage.
fn grid_stack() -> BoxedStrategy<SurfaceStack> {
    (stack(), 0usize..3)
        .prop_map(|(mut stack, shape)| {
            match shape {
                0 => stack.panels.iter_mut().for_each(|p| {
                    if p.sheet.x.is_tuned() || p.sheet.y.is_tuned() {
                        p.rotation = Radians(0.0);
                    }
                }),
                1 => {}
                _ => {
                    stack.panels.truncate(1);
                    stack.gaps.clear();
                }
            }
            stack
        })
        .boxed()
}

/// One grid-axis voltage: mostly in the supply range, sometimes
/// negative or non-finite.
fn voltage() -> BoxedStrategy<f64> {
    (0usize..8, 0.0f64..30.0)
        .prop_map(|(kind, v)| match kind {
            0 => -v,
            1 => f64::NAN,
            2 if v < 15.0 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => v,
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The grid runs on the batch kernels, bit for bit against the
    /// per-cell reference fold over the same cells: axis-aligned stacks
    /// (the structure-of-arrays kernel), rotated tuned panels and lone
    /// stages (the fold), with negative and non-finite voltages mixed
    /// in. `eval_batch` over the same cells agrees too, and neither
    /// panics.
    #[test]
    fn grid_is_bitwise_the_reference_batch(
        stack in grid_stack(),
        f_ghz in 1.8f64..3.0,
        vxs in prop::collection::vec(voltage(), 1..6),
        vys in prop::collection::vec(voltage(), 1..6),
    ) {
        let f = Hertz::from_ghz(f_ghz);
        let evaluator = StackEvaluator::new(&stack, f);
        let cells = grid_cells(&vxs, &vys);
        // A fresh plan for the reference, so it shares no voltage memos.
        let reference = StackEvaluator::new(&stack, f).eval_batch_reference(&cells);
        prop_assert_eq!(bits(&evaluator.eval_grid(&vxs, &vys)), bits(&reference));
        prop_assert_eq!(bits(&evaluator.eval_batch(&cells)), bits(&reference));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batches spanning several structure-of-arrays blocks, the last one
    /// ragged, match the per-cell reference fold bit for bit. The
    /// kernel reuses its working slabs from block to block, so no block
    /// may read what the previous one left behind — stacks that open
    /// with a tuned panel write only half the chain state in their
    /// first step.
    #[test]
    fn multi_block_batches_are_bitwise_the_reference(
        stack in grid_stack(),
        f_ghz in 1.8f64..3.0,
        vxs in prop::collection::vec(0.0f64..30.0, 9..18),
        vys in prop::collection::vec(0.0f64..30.0, 8..17),
    ) {
        let f = Hertz::from_ghz(f_ghz);
        let evaluator = StackEvaluator::new(&stack, f);
        let cells = grid_cells(&vxs, &vys);
        let reference = StackEvaluator::new(&stack, f).eval_batch_reference(&cells);
        prop_assert_eq!(bits(&evaluator.eval_grid(&vxs, &vys)), bits(&reference));
        prop_assert_eq!(bits(&evaluator.eval_batch(&cells)), bits(&reference));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two handles on two threads over one shared store: whichever
    /// thread solves a branch first, both read the store's bits, and
    /// every batch and single-point response equals a private
    /// `StackEvaluator::new` bit for bit. The threads' batches overlap
    /// in part, so each thread meets voltages the other may have
    /// stored. A third handle after both finds every branch in the
    /// store and solves none.
    #[test]
    fn shared_store_handles_on_two_threads_match_a_private_plan(
        stack in grid_stack(),
        f_ghz in 1.8f64..3.0,
        biases in prop::collection::vec((voltage(), voltage()), 1..24),
        split in 0usize..24,
    ) {
        let f = Hertz::from_ghz(f_ghz);
        let biases: Vec<BiasState> = biases
            .into_iter()
            .map(|(vx, vy)| BiasState::new(vx, vy))
            .collect();
        let split = split.min(biases.len());
        let shared = Arc::new(SharedPlanCache::new(&stack));
        let batches = [&biases[..], &biases[split..]];
        let run = |batch: &[BiasState]| {
            let plan = shared.handle().plan(f);
            let singles: Vec<_> = batch.iter().map(|&b| plan.response(b)).collect();
            (bits(&plan.eval_batch(batch)), bits(&singles))
        };
        let served = std::thread::scope(|scope| {
            let workers: Vec<_> = batches
                .iter()
                .map(|&batch| scope.spawn(move || run(batch)))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("handle thread"))
                .collect::<Vec<_>>()
        });
        for (batch, (batched, singles)) in batches.iter().zip(&served) {
            let private = StackEvaluator::new(&stack, f);
            prop_assert_eq!(batched, &bits(&private.eval_batch(batch)));
            let one_by_one: Vec<_> = batch.iter().map(|&b| private.response(b)).collect();
            prop_assert_eq!(singles, &bits(&one_by_one));
        }
        let solved = shared.branch_solves();
        let again = run(&biases);
        prop_assert_eq!(&again, &served[0]);
        prop_assert_eq!(shared.branch_solves(), solved);
    }
}
