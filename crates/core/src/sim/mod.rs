//! Event-stepped mobility simulation: moving fleets, panel handoff with
//! hysteresis, and warm-start re-optimization.
//!
//! Everything the workspace served before this module was a frozen
//! snapshot: PR 3/4 pick one bias (or K panel biases) for a fleet that
//! never moves. The paper's own deployments are dynamic — devices roam
//! the room, people walk between AP and surface (§5.2.2) — and the
//! related programmable-environment literature frames the workload that
//! actually matters as the *reconfiguration* workload under mobility.
//! This module is that workload, end to end:
//!
//! * [`mobility`] — [`MobilityModel`]s (waypoint walks, turntable
//!   rotation, transient human [`Blockage`] windows) carried by a
//!   [`DynamicFleet`], whose event-stepped clock edge
//!   ([`DynamicFleet::advance_to`]) reports exactly which links
//!   changed;
//! * [`engine`] — [`MobilitySim`]: per tick, advance the world, decide
//!   panel handoffs under a dwell + dB [`HandoffPolicy`], re-prepare
//!   only the dirty links, re-optimize each panel (reuse / warm refine /
//!   cold search), and bill probing airtime, PSU switch gating and rail
//!   settling against the tick's serving duty.
//!
//! The contracts that keep it honest:
//!
//! * **zero-velocity equivalence** — a fleet that never moves
//!   reproduces the static [`crate::panels::PanelScheduler`] allocation
//!   tick for tick, exactly (`proptest_sim`);
//! * **warm == cold when it matters** — a warm tick that lands on a
//!   different allocation only does so because the world changed; on an
//!   unchanged world the warm engine *reuses* the previous allocation
//!   outright (zero probes);
//! * **honest throughput** — served rates are duty-cycled by the
//!   reconfiguration overhead actually incurred, so a controller that
//!   re-searches every tick visibly starves its links next to one that
//!   warm-starts.
//!
//! ```
//! use llama_core::fleet::Fleet;
//! use llama_core::panels::{PanelArray, PanelScheduler};
//! use llama_core::sim::{DynamicFleet, MobilitySim, SimConfig};
//! use rfmath::units::Seconds;
//!
//! let mut fleet = DynamicFleet::roaming_mixed(8, 7, Seconds(8.0));
//! let array = PanelArray::distributed(fleet.fleet().design.clone(), 2);
//! let sim = MobilitySim::new(PanelScheduler::max_min(), SimConfig::default());
//! let report = sim.run(&mut fleet, &array, 8);
//! assert_eq!(report.ticks.len(), 8);
//! // Most ticks warm-start or reuse: far fewer probes than 8 cold runs.
//! assert!(report.total_probes() < 8 * 100);
//! ```

pub mod engine;
pub mod mobility;

pub use engine::{HandoffPolicy, MobilitySim, SimConfig, SimReport, TickOutcome};
pub use mobility::{Blockage, DynamicFleet, MobilityModel};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::fleet::Fleet;
    use crate::panels::{Assignment, PanelArray, PanelScheduler};
    use rfmath::units::Seconds;

    fn sim(config: SimConfig) -> MobilitySim {
        MobilitySim::new(PanelScheduler::max_min(), config)
    }

    #[test]
    fn zero_motion_reproduces_the_static_scheduler_every_tick() {
        // The satellite contract: a parked fleet's every tick carries
        // the exact allocation the static PanelScheduler computes —
        // tick 0 because the sim runs the same cold search, later ticks
        // because nothing moved and the allocation is reused outright.
        let base = Fleet::mixed_wifi_ble(6, 41);
        let array = PanelArray::uniform(base.design.clone(), 2);
        let static_outcome = PanelScheduler::max_min().run(&base, &array);
        let mut fleet = DynamicFleet::new(base);
        let report = sim(SimConfig::default()).run(&mut fleet, &array, 5);
        for (i, tick) in report.ticks.iter().enumerate() {
            assert!(
                tick.outcome.same_allocation(&static_outcome),
                "tick {i} diverged from the static allocation"
            );
            assert!(tick.moved.is_empty());
        }
        // Tick 0 pays the cold search; every later tick reuses.
        assert_eq!(report.ticks[0].outcome.probes, static_outcome.probes);
        for tick in &report.ticks[1..] {
            assert_eq!(tick.outcome.probes, 0, "reuse must cost zero probes");
            assert_eq!(tick.reused_panels, 2);
        }
        assert_eq!(report.handoffs, 0);
    }

    #[test]
    fn zero_motion_warm_equals_cold_mode() {
        let base = Fleet::mixed_wifi_ble(5, 13);
        let array = PanelArray::uniform(base.design.clone(), 2);
        let warm = sim(SimConfig::default()).run(&mut DynamicFleet::new(base.clone()), &array, 4);
        let cold = sim(SimConfig::cold()).run(&mut DynamicFleet::new(base), &array, 4);
        for (w, c) in warm.ticks.iter().zip(&cold.ticks) {
            assert!(
                w.outcome.same_allocation(&c.outcome),
                "warm and cold modes disagreed on a motionless world"
            );
        }
    }

    #[test]
    fn motionless_devices_never_hand_off_on_distributed_arrays() {
        // Regression: on a distributed array the panels measure
        // differently, so a parked device whose tick-0 assignment is
        // more than hysteresis_db worse than another panel used to
        // accrue dwell and migrate — diverging warm from cold on a
        // world where nothing moved. Handoffs must only consider the
        // dirty set.
        for seed in [5, 10, 21, 34] {
            let base = Fleet::mixed_wifi_ble(3, seed);
            let array = PanelArray::distributed(base.design.clone(), 2);
            let scheduler = PanelScheduler::max_min();
            let warm = MobilitySim::new(scheduler.clone(), SimConfig::default()).run(
                &mut DynamicFleet::new(base.clone()),
                &array,
                4,
            );
            assert_eq!(warm.handoffs, 0, "seed {seed}: static fleet handed off");
            let cold = MobilitySim::new(scheduler, SimConfig::cold()).run(
                &mut DynamicFleet::new(base),
                &array,
                4,
            );
            for (w, c) in warm.ticks.iter().zip(&cold.ticks) {
                assert!(
                    w.outcome.same_allocation(&c.outcome),
                    "seed {seed}: warm diverged from cold on a motionless world"
                );
            }
        }
    }

    #[test]
    fn warm_mode_spends_far_fewer_probes_under_mobility() {
        let array = PanelArray::distributed(Fleet::mixed_wifi_ble(8, 2021).design.clone(), 2);
        let ticks = 6;
        let mut roaming = DynamicFleet::roaming_mixed(8, 2021, Seconds(ticks as f64));
        let warm = sim(SimConfig::default()).run(&mut roaming, &array, ticks);
        let mut roaming = DynamicFleet::roaming_mixed(8, 2021, Seconds(ticks as f64));
        let cold = sim(SimConfig::cold()).run(&mut roaming, &array, ticks);
        assert!(
            warm.total_probes() * 2 < cold.total_probes(),
            "warm {} probes vs cold {}",
            warm.total_probes(),
            cold.total_probes()
        );
        // Fewer probes = less reconfiguration airtime = better duty.
        assert!(
            warm.mean_duty() > cold.mean_duty(),
            "warm duty {:.3} vs cold {:.3}",
            warm.mean_duty(),
            cold.mean_duty()
        );
        // And only the dirty subset of links was ever re-prepared.
        assert!(
            warm.total_links_reprepared() < cold.total_links_reprepared(),
            "warm re-prepared {} links vs cold {}",
            warm.total_links_reprepared(),
            cold.total_links_reprepared()
        );
        assert!(warm.total_links_rebound() > 0, "rotators rebind cheaply");
    }

    #[test]
    fn handoffs_fire_under_low_hysteresis_and_calm_under_high() {
        // A device walking across a distributed array genuinely changes
        // its per-panel margins; an eager policy migrates it, a
        // conservative one holds.
        let ticks = 10usize;
        let build = || {
            let base = Fleet::mixed_wifi_ble(6, 5);
            let mut fleet = DynamicFleet::new(base);
            let from = fleet.fleet().devices()[0]
                .scenario
                .deployment
                .tx_rx_distance()
                .cm();
            fleet.set_mobility(
                0,
                MobilityModel::walk(from, from + 260.0, Seconds(1.0), Seconds(6.0)),
            );
            fleet
        };
        let array = PanelArray::distributed(build().fleet().design.clone(), 3);
        let scheduler = PanelScheduler::max_min().with_assignment(Assignment::BestReference);
        let eager = MobilitySim::new(
            scheduler.clone(),
            SimConfig::default().with_handoff(HandoffPolicy {
                hysteresis_db: 0.0,
                dwell_ticks: 1,
                ..HandoffPolicy::default()
            }),
        )
        .run(&mut build(), &array, ticks);
        let calm = MobilitySim::new(
            scheduler,
            SimConfig::default().with_handoff(HandoffPolicy {
                hysteresis_db: 60.0,
                dwell_ticks: 4,
                ..HandoffPolicy::default()
            }),
        )
        .run(&mut build(), &array, ticks);
        assert!(
            eager.handoffs >= 1,
            "an eager policy must migrate the walker"
        );
        assert_eq!(calm.handoffs, 0, "a 60 dB margin never materializes");
        assert!(eager.handoffs > calm.handoffs);
    }

    #[test]
    fn sub_settling_ticks_defer_bias_changes() {
        // A tick shorter than one probe sweep + settle can never finish
        // a reconfiguration in-tick: the change must defer, the old bias
        // keeps serving, and duty collapses — the honest accounting.
        let base = Fleet::mixed_wifi_ble(3, 3);
        let array = PanelArray::uniform(base.design.clone(), 1);
        let mut fleet = DynamicFleet::new(base);
        let report = sim(SimConfig::default().with_tick(Seconds(0.05))).run(&mut fleet, &array, 3);
        assert!(
            report.ticks[0].deferred_switches >= 1,
            "the first optimization cannot settle inside 50 ms"
        );
        assert!(report.ticks[0].panel_duty[0] < 0.5);
    }

    #[test]
    fn empty_fleet_simulates_cleanly() {
        let base = Fleet::new(metasurface::designs::fr4_optimized());
        let array = PanelArray::uniform(base.design.clone(), 2);
        let mut fleet = DynamicFleet::new(base);
        let report = sim(SimConfig::default()).run(&mut fleet, &array, 3);
        assert_eq!(report.ticks.len(), 3);
        for tick in &report.ticks {
            assert!(tick.outcome.per_device.is_empty());
            assert_eq!(tick.served_min_power_dbm, f64::NEG_INFINITY);
            assert_eq!(tick.served_throughput_bits_hz, 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "shared-bias")]
    fn time_division_is_rejected() {
        let base = Fleet::mixed_wifi_ble(3, 3);
        let array = PanelArray::uniform(base.design.clone(), 1);
        let _ = MobilitySim::new(PanelScheduler::time_division(), SimConfig::default()).run(
            &mut DynamicFleet::new(base),
            &array,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "warm engine")]
    fn faults_on_the_cold_baseline_are_rejected() {
        let base = Fleet::mixed_wifi_ble(3, 3);
        let array = PanelArray::uniform(base.design.clone(), 1);
        let _ = sim(SimConfig::cold())
            .with_faults(FaultPlan::with_rates(1, 0.1, 0.0, 0.0))
            .run(&mut DynamicFleet::new(base), &array, 1);
    }

    #[test]
    fn an_empty_fault_plan_is_bitwise_inert() {
        let ticks = 6;
        let array = PanelArray::distributed(Fleet::mixed_wifi_ble(6, 17).design.clone(), 2);
        let mut roaming = DynamicFleet::roaming_mixed(6, 17, Seconds(ticks as f64));
        let plain = sim(SimConfig::default()).run(&mut roaming, &array, ticks);
        let mut roaming = DynamicFleet::roaming_mixed(6, 17, Seconds(ticks as f64));
        let faulted = sim(SimConfig::default())
            .with_faults(FaultPlan::none())
            .run(&mut roaming, &array, ticks);
        for (p, f) in plain.ticks.iter().zip(&faulted.ticks) {
            assert!(p.outcome.same_allocation(&f.outcome));
            assert_eq!(
                p.served_min_power_dbm.to_bits(),
                f.served_min_power_dbm.to_bits(),
                "served power must be bit-identical under an empty plan"
            );
            for (a, b) in p.panel_duty.iter().zip(&f.panel_duty) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(p.applied, f.applied);
            assert_eq!(f.outaged_panels, 0);
            assert_eq!(f.reports_lost, 0);
        }
    }

    #[test]
    fn a_scripted_outage_rehomes_the_orphaned_subfleet() {
        use crate::faults::{FaultWindow, PanelOutage};
        let ticks = 8;
        let base = Fleet::mixed_wifi_ble(6, 9);
        let array = PanelArray::distributed(base.design.clone(), 2);
        let mut plan = FaultPlan::none();
        plan.outages.push(PanelOutage {
            panel: 0,
            window: FaultWindow {
                start: Seconds(2.0),
                duration: Seconds(3.0),
            },
        });
        let mut fleet = DynamicFleet::roaming_mixed(6, 9, Seconds(ticks as f64));
        let report = sim(SimConfig::default())
            .with_faults(plan)
            .run(&mut fleet, &array, ticks);
        assert!(
            report.total_fault_reassignments() > 0,
            "someone lived on panel 0 and had to move"
        );
        assert_eq!(report.total_outaged_panel_ticks(), 3);
        for tick in &report.ticks {
            let dark = tick.t.0 >= 2.0 && tick.t.0 < 5.0;
            if dark {
                assert!(
                    tick.outcome.assignment.iter().all(|&k| k != 0),
                    "t={}: nobody may be served by a dark panel",
                    tick.t.0
                );
                assert_eq!(tick.panel_duty[0], 0.0, "a dark panel serves nobody");
            }
            // The fleet is still served end to end, outage or not.
            assert!(tick.served_min_power_dbm.is_finite());
        }
        // Degraded, not dead: the run as a whole still moves bits (a
        // single tick may honestly burn all its duty on the re-home's
        // cold re-search).
        let moved_bits: f64 = report
            .ticks
            .iter()
            .map(|t| t.served_throughput_bits_hz)
            .sum();
        assert!(moved_bits > 0.0);
    }

    #[test]
    fn a_healed_panel_readmits_its_stranded_subfleet_immediately() {
        use crate::faults::{FaultWindow, PanelOutage};
        use crate::panels::RevivalPolicy;
        use engine::HandoffPolicy;
        // A *stationary* fleet is the case the revival hook exists for:
        // parked devices never enter the handoff loop, so without the
        // hook an outage permanently strands them on fallback panels.
        let ticks = 8;
        let base = Fleet::mixed_wifi_ble(6, 9);
        let array = PanelArray::distributed(base.design.clone(), 2);
        let plan = || {
            let mut plan = FaultPlan::none();
            plan.outages.push(PanelOutage {
                panel: 0,
                window: FaultWindow {
                    start: Seconds(2.0),
                    duration: Seconds(2.0),
                },
            });
            plan
        };
        let run = |revival: RevivalPolicy| {
            let config = SimConfig::default().with_handoff(HandoffPolicy {
                revival,
                ..HandoffPolicy::default()
            });
            sim(config)
                .with_faults(plan())
                .run(&mut DynamicFleet::new(base.clone()), &array, ticks)
        };

        let eager = run(RevivalPolicy::Immediate);
        assert!(
            eager.ticks[0].outcome.assignment.contains(&0),
            "the scenario needs devices living on panel 0 before the outage"
        );
        assert!(
            eager.total_fault_reassignments() > 0,
            "the outage must strand someone on the fallback panel"
        );
        assert!(
            eager.total_revival_readmissions() >= 1,
            "Immediate revival must re-home devices the tick the panel heals"
        );
        let healed = eager.ticks.last().unwrap();
        assert!(
            healed.outcome.assignment.contains(&0),
            "the healed panel serves again"
        );

        let parked = run(RevivalPolicy::Hysteresis);
        assert_eq!(
            parked.total_revival_readmissions(),
            0,
            "Hysteresis leaves re-admission to the handoff loop"
        );
        assert!(
            parked
                .ticks
                .last()
                .unwrap()
                .outcome
                .assignment
                .iter()
                .all(|&k| k != 0),
            "parked devices stay stranded: the handoff loop never touches them"
        );
    }

    #[test]
    fn exhausted_report_retries_hold_the_last_good_bias() {
        // Lose every probe report from tick 3 on: searches still spend
        // airtime (lost deliveries bill their backoff-widened timeouts)
        // but the rails hold the last allocation the controller heard.
        let ticks = 8usize;
        let build = || DynamicFleet::roaming_mixed(6, 21, Seconds(ticks as f64));
        let array = PanelArray::distributed(build().fleet().design.clone(), 2);
        let mut lossy = FaultPlan::with_rates(7, 0.0, 1.0, 0.0);
        // Rate draws at 1.0 fire always; gate the loss window by hand
        // via the report timeout so early ticks establish a baseline.
        lossy.report_timeout = Seconds(0.02);
        let faulted = sim(SimConfig::default())
            .with_faults(lossy)
            .run(&mut build(), &array, ticks);
        let clean = sim(SimConfig::default()).run(&mut build(), &array, ticks);
        assert!(
            faulted.total_reports_exhausted() > 0,
            "certain loss must exhaust the retries of every search"
        );
        assert_eq!(
            faulted.total_reports_lost(),
            faulted.total_reports_exhausted() * 4,
            "every exhaustion burned the full default retry budget"
        );
        // Holding biases and burning retry airtime costs duty.
        assert!(
            faulted.mean_duty() <= clean.mean_duty(),
            "faulted duty {:.3} must not beat clean {:.3}",
            faulted.mean_duty(),
            clean.mean_duty()
        );
        // The fleet is still served: no panic, finite power every tick.
        for tick in &faulted.ticks {
            assert!(tick.served_min_power_dbm.is_finite());
        }
    }

    #[test]
    fn the_all_panels_out_guard_keeps_one_panel_alive() {
        let base = Fleet::mixed_wifi_ble(4, 11);
        let array = PanelArray::uniform(base.design.clone(), 2);
        let plan = FaultPlan::with_rates(5, 1.0, 0.0, 0.0);
        let mut fleet = DynamicFleet::new(base);
        let report = sim(SimConfig::default())
            .with_faults(plan)
            .run(&mut fleet, &array, 4);
        for tick in &report.ticks {
            assert_eq!(tick.outaged_panels, 1, "one of two panels survives");
            assert!(
                tick.outcome.assignment.iter().all(|&k| k == 0),
                "everyone is served by the surviving panel"
            );
            assert!(tick.served_min_power_dbm.is_finite());
        }
    }

    #[test]
    fn dead_columns_degrade_but_do_not_kill_service() {
        use crate::faults::{Axis, CellFault, CellFaultKind};
        use rfmath::units::Volts;
        let ticks = 5;
        let build = || DynamicFleet::roaming_mixed(5, 33, Seconds(ticks as f64));
        let array = PanelArray::uniform(build().fleet().design.clone(), 2);
        let mut plan = FaultPlan::none();
        plan.dead_columns.push(CellFault {
            panel: 0,
            axis: Axis::X,
            kind: CellFaultKind::Stuck(Volts(0.0)),
        });
        let faulted = sim(SimConfig::default())
            .with_faults(plan)
            .run(&mut build(), &array, ticks);
        let clean = sim(SimConfig::default()).run(&mut build(), &array, ticks);
        // The search routes around the stuck rail: service survives …
        for tick in &faulted.ticks {
            assert!(tick.served_min_power_dbm.is_finite());
        }
        // … but a panel that cannot steer its X axis cannot beat a
        // healthy one.
        assert!(
            faulted.mean_served_min_power_dbm() <= clean.mean_served_min_power_dbm() + 1e-9,
            "faulted {:.2} dBm vs clean {:.2} dBm",
            faulted.mean_served_min_power_dbm(),
            clean.mean_served_min_power_dbm()
        );
    }

    /// The lockstep tick's cascade counts on one room, exactly.
    /// conference-room (seed 7) serves 8 BLE wearables from two panels
    /// of one design, so every probe goes through one carrier plan, on
    /// the room's private store (no cell memo: every cell of a batch is
    /// sent to the kernel, and `fleet.factor_hits` stays 0).
    ///
    /// * First tick, both panels cold: 50 cells. Round one is the 25-cell
    ///   coarse lattice, probed once for both panels; both pick the same
    ///   coarse winner, so round two is one 25-cell window between them.
    ///   Run one panel at a time, the tick sent 2 × (25 + 25) = 100.
    /// * The whole 12-tick run: 229 = 50 + 3 × 17 + 8 × 16. Both panels
    ///   warm-refine on each of ticks 1–11, 10 probes each (the centre
    ///   plus a 3 × 3 window). On ticks 1–3 their windows share the
    ///   3 cells of the `vx = 0` column (20 − 3); from tick 4 on they
    ///   share 4, panel 0's centre included (20 − 4). One panel at a
    ///   time, the run sent 100 + 11 × 20 = 320.
    #[test]
    fn lockstep_ticks_send_each_shared_cell_to_the_kernel_once() {
        use crate::telemetry::RingRecorder;
        use std::sync::Arc;
        let counts = |ticks: usize| {
            let mut room = crate::rooms::build("conference-room", 7).expect("catalog room");
            room.ticks = ticks;
            let ring = Arc::new(RingRecorder::default());
            room.run_traced(
                FaultPlan::none(),
                crate::telemetry::RecorderHandle::new(ring.clone()),
            );
            (
                ring.counter("fleet.cascade_cells"),
                ring.counter("fleet.factor_hits"),
            )
        };
        assert_eq!(counts(1), (50, 0));
        assert_eq!(counts(12), (50 + 3 * 17 + 8 * 16, 0));
    }
}
