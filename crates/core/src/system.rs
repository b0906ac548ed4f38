//! The end-to-end LLAMA system: surface + PSU + controller + endpoints
//! on one simulation clock.
//!
//! [`LlamaSystem`] is what the paper's Figure 5 draws: the receiver
//! measures power (through a noisy USRP-style chain), reports it over a
//! (possibly lossy) packet channel, the centralized controller runs
//! Algorithm 1 against the PSU's 50 Hz switching budget, and the surface
//! bias converges on the state maximizing link power.

use control::controller::{Controller, FleetReport, Phase};
use control::psu::PowerSupply;
use control::sweep::{coarse_to_fine_multi, Probe, SweepConfig};
use devices::report::{LossyTransport, ReportPacket};
use devices::usrp::{UsrpConfig, UsrpReceiver};
use metasurface::evaluator::StackEvaluator;
use metasurface::response::{Metasurface, SurfaceResponse};
use metasurface::stack::BiasState;
use propagation::link::PreparedLink;
use propagation::signal::rssi_reading;
use rand::rngs::StdRng;
use rfmath::rng::SeedSplitter;
use rfmath::units::{Db, Dbm, Seconds, Volts};

use crate::scenario::Scenario;

/// Result of an optimization run.
#[derive(Clone, Debug)]
pub struct OptimizeOutcome {
    /// Bias state the system converged on.
    pub best_bias: BiasState,
    /// Received power at the converged state.
    pub best_power_dbm: Dbm,
    /// Received power with no surface deployed (baseline).
    pub baseline_dbm: Dbm,
    /// Improvement over the baseline.
    pub improvement: Db,
    /// Number of bias states probed.
    pub probes: usize,
    /// Simulated wall-clock the optimization took.
    pub elapsed: Seconds,
}

/// The assembled system.
pub struct LlamaSystem {
    /// The scenario being run.
    pub scenario: Scenario,
    /// The deployed surface.
    pub surface: Metasurface,
    /// The bias supply.
    pub psu: PowerSupply,
    /// Receiver measurement chain.
    pub receiver: UsrpReceiver,
    /// Report transport (loss/corruption injectable).
    pub transport: LossyTransport,
    /// Sweep configuration used by [`LlamaSystem::optimize`].
    pub sweep: SweepConfig,
    /// Effective noise floor of the controller's RSSI feedback chain,
    /// dBm (thermal + implementation + ambient interference). Sweep
    /// measurements of signals near this floor fluctuate by several dB,
    /// which is what erodes convergence at very low transmit power
    /// (the paper's Figure 19 low-power regime).
    pub rssi_floor_dbm: f64,
    rssi_rng: StdRng,
    seed: SeedSplitter,
}

impl LlamaSystem {
    /// Assembles the system for a scenario.
    pub fn new(scenario: Scenario) -> Self {
        let seed = SeedSplitter::new(scenario.seed);
        let surface = Metasurface::new(scenario.design.clone());
        let mut usrp_config = UsrpConfig::paper_default();
        usrp_config.carrier = scenario.frequency;
        usrp_config.tx_power = scenario.tx_power;
        Self {
            receiver: UsrpReceiver::new(usrp_config, &seed),
            transport: LossyTransport::new(0.0, 0.0, &seed),
            surface,
            psu: PowerSupply::tektronix_2230g(),
            sweep: SweepConfig::paper_default(),
            rssi_floor_dbm: -85.0,
            rssi_rng: seed.stream("sweep-rssi"),
            scenario,
            seed,
        }
    }

    /// Enables report-channel fault injection.
    pub fn with_report_faults(mut self, drop_p: f64, corrupt_p: f64) -> Self {
        self.transport = LossyTransport::new(drop_p, corrupt_p, &self.seed);
        self
    }

    /// True received power (no measurement noise) at a bias state.
    pub fn true_power_dbm(&mut self, bias: BiasState) -> Dbm {
        self.surface.set_bias(bias);
        self.scenario.link().received_dbm(Some(&self.surface))
    }

    /// Measured received power at a bias state, through the receiver's
    /// noisy tone-measurement chain.
    pub fn measured_power_dbm(&mut self, bias: BiasState) -> Dbm {
        self.surface.set_bias(bias);
        let amp = self
            .scenario
            .link()
            .received_amplitude_at(Some(&self.surface), Seconds(0.0));
        self.receiver.measure_dbm(amp, 4096)
    }

    /// Baseline power with the surface removed (the paper's 30 s
    /// averaged measurement).
    pub fn baseline_power_dbm(&mut self) -> Dbm {
        let amp = self
            .scenario
            .link()
            .received_amplitude_at(None, Seconds(0.0));
        self.receiver.baseline_dbm(amp, 30)
    }

    /// Runs Algorithm 1 to convergence using direct measurement calls
    /// (fast path used by experiments; timing is computed from the
    /// sweep's switching budget rather than event-stepped).
    pub fn optimize(&mut self) -> OptimizeOutcome {
        let baseline = self.baseline_power_dbm();
        // Borrow-friendly measurement closure over self pieces. The
        // controller consumes RSSI-style single-shot readings: near the
        // effective noise floor these wander by several dB and can
        // mislead the sweep, exactly as on real hardware.
        //
        // The link is bias-independent, so it is built once; each probe
        // then costs a single (evaluator-cached) cascade instead of
        // rebuilding the link and evaluating the surface four times.
        //
        // The search runs on the vector-objective Algorithm 1 core the
        // fleet scheduler uses: a single link is the N = 1 fleet, its
        // objective the identity on the one reading.
        let scenario = self.scenario.clone();
        let link = scenario.link();
        let f = scenario.frequency;
        let surface = &mut self.surface;
        let rng = &mut self.rssi_rng;
        let floor_w = Dbm(self.rssi_floor_dbm).to_watts();
        let outcome = coarse_to_fine_multi(
            &self.sweep,
            |p: Probe| {
                surface.set_bias(BiasState { vx: p.vx, vy: p.vy });
                let response = surface.response(f);
                let amp = link.received_amplitude_with(Some(&response), Seconds(0.0));
                vec![rssi_reading(amp, floor_w, rng).0]
            },
            |m| m[0],
        );
        let best_bias = BiasState {
            vx: outcome.best.vx,
            vy: outcome.best.vy,
        };
        self.surface.set_bias(best_bias);
        let best_power = self.true_power_dbm(best_bias);
        OptimizeOutcome {
            best_bias,
            best_power_dbm: best_power,
            baseline_dbm: baseline,
            improvement: best_power.minus(baseline),
            probes: outcome.probes,
            elapsed: outcome.duration,
        }
    }

    /// Runs the full event-stepped loop: controller state machine, PSU
    /// rate limiting and settling, packetized reports over the lossy
    /// transport. Slower but exercises the whole control plane; returns
    /// the same outcome shape.
    pub fn optimize_realtime(&mut self) -> OptimizeOutcome {
        let baseline = self.baseline_power_dbm();
        let mut controller = Controller::new(self.sweep);
        // Single link: one reading per report, and say so — truncated
        // or padded packets get rejected instead of mis-scored.
        controller.expected_devices = Some(1);
        self.psu.execute("OUTP ON", Seconds(0.0));
        controller.start();

        let mut now = 0.0f64;
        let mut seq = 0u32;
        let mut pending: Option<(f64, FleetReport)> = None;
        let mut last_applied: Option<(Probe, f64)> = None;

        for _ in 0..1_000_000 {
            if controller.phase() == &Phase::Converged {
                break;
            }
            // Deliver a due report (if it survives the transport). The
            // controller consumes fleet-shaped (vector) reports; this
            // single-link system sends one-element vectors.
            let deliver = pending
                .clone()
                .filter(|(due, _)| *due <= now)
                .map(|(_, rep)| rep);
            if deliver.is_some() {
                pending = None;
            }

            let before = controller.events().len();
            controller.step_fleet(&mut self.psu, Seconds(now), deliver);

            // When a probe was applied, schedule its measurement report.
            if controller.events().len() > before {
                if let Some(control::controller::Event::Applied(p)) = controller.events().last() {
                    last_applied = Some((*p, now));
                }
            }
            if let Some((probe, applied_at)) = last_applied {
                // Measurement completes after settling + dwell.
                let report_at = applied_at + self.psu.settling.0 + 0.004;
                if now >= report_at && pending.is_none() {
                    let bias = BiasState {
                        vx: probe.vx,
                        vy: probe.vy,
                    };
                    self.surface.set_bias(bias);
                    let amp = self
                        .scenario
                        .link()
                        .received_amplitude_at(Some(&self.surface), Seconds(now));
                    let power = self.receiver.measure_dbm(amp, 2048);
                    let packet = ReportPacket::new(seq, Seconds(now), power);
                    seq += 1;
                    if let Some(bytes) = self.transport.send(&packet) {
                        if let Ok(decoded) = ReportPacket::decode(bytes) {
                            pending = Some((
                                now,
                                FleetReport {
                                    at: decoded.timestamp(),
                                    powers_dbm: vec![decoded.power.0],
                                },
                            ));
                        }
                    }
                    last_applied = None;
                }
            }
            now += 0.001;
        }

        let (best_probe, _) = controller
            .best()
            .expect("controller converged with a best state");
        let best_bias = BiasState {
            vx: best_probe.vx,
            vy: best_probe.vy,
        };
        self.surface.set_bias(best_bias);
        let best_power = self.true_power_dbm(best_bias);
        OptimizeOutcome {
            best_bias,
            best_power_dbm: best_power,
            baseline_dbm: baseline,
            improvement: best_power.minus(baseline),
            probes: self.psu.switch_count as usize,
            elapsed: Seconds(now),
        }
    }

    /// Full-resolution power heatmap over the (Vx, Vy) plane: the raw
    /// material of Figures 15 and 21. Returns `(voltages, row-major
    /// powers)` with rows indexed by Vy.
    ///
    /// Runs on the batched engine: one [`StackEvaluator`] grid pass
    /// (`O(steps)` per-axis branch solves, parallel rows) feeds a single
    /// [`PreparedLink`], so each cell costs one cached probe instead of
    /// a full cascade-and-link rebuild. Bit-identical to
    /// [`Link::received_dbm_with`](propagation::link::Link::received_dbm_with)
    /// per cell.
    pub fn power_heatmap(&mut self, steps: usize) -> (Vec<f64>, Vec<f64>) {
        let steps = steps.max(2);
        let volts: Vec<f64> = (0..steps)
            .map(|i| 30.0 * i as f64 / (steps - 1) as f64)
            .collect();
        // Evaluate at the supply-clamped voltages (what `set_bias` would
        // deliver) while labeling the axis with the nominal sweep values.
        let applied: Vec<f64> = volts
            .iter()
            .map(|v| v.clamp(0.0, self.surface.v_max.0))
            .collect();
        let f = self.scenario.frequency;
        let link = PreparedLink::new(self.scenario.link());
        let evaluator = StackEvaluator::new(&self.surface.design().stack, f);
        let grid = evaluator
            .eval_grid(&applied, &applied)
            .into_iter()
            .map(|r| link.received_dbm_with(Some(&SurfaceResponse::new(f, r))).0)
            .collect();
        (volts, grid)
    }
}

/// Adapter running the §3.4 rotation-estimation procedure on a live
/// system: the turntable rotates the receive antenna, the PSU sets the
/// bias, power is read through the true link.
pub struct SystemRig<'a> {
    /// The system under test.
    pub system: &'a mut LlamaSystem,
}

impl control::estimator::RotationRig for SystemRig<'_> {
    fn set_rx_orientation(&mut self, orientation: rfmath::units::Degrees) {
        let antenna = self.system.scenario.rx.antenna.clone();
        self.system.scenario.rx = propagation::antenna::OrientedAntenna::new(antenna, orientation);
    }

    fn set_bias(&mut self, vx: Volts, vy: Volts) {
        self.system.surface.set_bias(BiasState { vx, vy });
    }

    fn measure_power(&mut self) -> f64 {
        let amp = self
            .system
            .scenario
            .link()
            .received_amplitude_at(Some(&self.system.surface), Seconds(0.0));
        amp.norm_sqr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn optimize_beats_baseline_substantially() {
        let mut sys = LlamaSystem::new(Scenario::transmissive_default().with_distance_cm(36.0));
        let out = sys.optimize();
        assert!(
            out.improvement.0 > 8.0,
            "improvement = {:.1} dB",
            out.improvement.0
        );
        assert_eq!(out.probes, 50);
        assert!((out.elapsed.0 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn realtime_loop_converges_like_fast_path() {
        let mut fast = LlamaSystem::new(Scenario::transmissive_default());
        let fast_out = fast.optimize();
        let mut rt = LlamaSystem::new(Scenario::transmissive_default());
        let rt_out = rt.optimize_realtime();
        assert!(
            (rt_out.best_power_dbm.0 - fast_out.best_power_dbm.0).abs() < 3.0,
            "realtime {:.1} vs fast {:.1} dBm",
            rt_out.best_power_dbm.0,
            fast_out.best_power_dbm.0
        );
        // Real-time loop respects the 50 Hz budget: ≥ 1 s of sim time.
        assert!(rt_out.elapsed.0 >= 1.0);
    }

    #[test]
    fn realtime_loop_survives_lossy_reports() {
        let mut sys =
            LlamaSystem::new(Scenario::transmissive_default()).with_report_faults(0.2, 0.1);
        let out = sys.optimize_realtime();
        assert!(
            out.improvement.0 > 5.0,
            "lossy-transport improvement = {:.1} dB",
            out.improvement.0
        );
        assert!(sys.transport.dropped > 0, "faults must have fired");
    }

    #[test]
    fn heatmap_shape_and_range() {
        let mut sys = LlamaSystem::new(Scenario::transmissive_default());
        let (volts, grid) = sys.power_heatmap(7);
        assert_eq!(volts.len(), 7);
        assert_eq!(grid.len(), 49);
        let hi = rfmath::stats::max(&grid);
        let lo = rfmath::stats::min(&grid);
        assert!(hi - lo > 5.0, "bias must shape the power: {lo:.1}..{hi:.1}");
    }

    #[test]
    fn heatmap_respects_supply_ceiling() {
        // A lowered v_max must clamp the evaluated bias exactly like
        // set_bias does on the per-point path.
        let mut sys = LlamaSystem::new(Scenario::transmissive_default());
        sys.surface.v_max = rfmath::units::Volts(15.0);
        let (volts, grid) = sys.power_heatmap(7);
        let top = volts.len() - 1;
        assert_eq!(volts[top], 30.0, "axis keeps the nominal sweep labels");
        let expected = sys.true_power_dbm(BiasState::new(30.0, 30.0)).0;
        assert!(
            (grid[top * volts.len() + top] - expected).abs() < 1e-9,
            "clamped corner: {} vs {}",
            grid[top * volts.len() + top],
            expected
        );
    }

    #[test]
    fn heatmap_is_bitwise_the_per_cell_link_projection() {
        // The Figure 15/21 grid through one prepared link must equal the
        // reference projection cell by cell, on both mounts and in a
        // multipath room.
        for scenario in [
            Scenario::transmissive_default(),
            Scenario::reflective_default(),
            Scenario::wifi_iot_default(),
        ] {
            let mut sys = LlamaSystem::new(scenario);
            let (volts, grid) = sys.power_heatmap(31);
            let applied: Vec<f64> = volts
                .iter()
                .map(|v| v.clamp(0.0, sys.surface.v_max.0))
                .collect();
            let f = sys.scenario.frequency;
            let link = sys.scenario.link();
            let want: Vec<f64> = StackEvaluator::new(&sys.surface.design().stack, f)
                .eval_grid(&applied, &applied)
                .into_iter()
                .map(|r| link.received_dbm_with(Some(&SurfaceResponse::new(f, r))).0)
                .collect();
            assert_eq!(grid.len(), want.len());
            for (i, (got, want)) in grid.iter().zip(&want).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{:?} cell {i}: {got} vs {want}",
                    sys.scenario.deployment.surface
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut sys = LlamaSystem::new(Scenario::transmissive_default().with_seed(42));
            sys.optimize().best_power_dbm.0
        };
        assert_eq!(run(), run());
    }
}
