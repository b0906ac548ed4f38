//! Pinned [`MobilitySim`] outcomes: one digest per zoo room and seed,
//! plus one room under a fault plan that fires every fault path.
//!
//! Each digest folds every tick of a [`SimReport`]: the panel outcomes
//! (assignment, per-panel services, shared biases, scores, probe counts,
//! airtime and every history row's bits), the per-device services, the
//! applied biases, the panel duties, the handoffs and the link and fault
//! counters. Only the wall-clock is left out. Every run is checked at a
//! thread budget of 1 and of 2, against `tests/data/sim_digests.txt`.
//!
//! A change that means to move the simulator's outcomes regenerates the
//! file with `LLAMA_REGEN_SIM_DIGESTS=1 cargo test -p llama-core --test
//! sim_digests` and says why in its change log; a speed-up must leave
//! every line as it is.

use llama_core::faults::{Axis, CellFault, CellFaultKind, FaultPlan, FaultWindow, PanelOutage};
use llama_core::fleet::FleetOutcome;
use llama_core::rooms::{self, SCENARIOS};
use llama_core::SimReport;
use rfmath::units::{Seconds, Volts};

const SEEDS: [u64; 2] = [7, 2024];
const REGEN: &str = "LLAMA_REGEN_SIM_DIGESTS";

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn fleet_outcome(&mut self, outcome: &FleetOutcome) {
        for service in &outcome.per_device {
            self.f64(service.bias.vx.0);
            self.f64(service.bias.vy.0);
            self.f64(service.power_dbm);
            self.f64(service.duty);
            self.f64(service.throughput_bits_hz);
            self.u64(service.decodable.into());
        }
        match outcome.shared_bias {
            Some(bias) => {
                self.f64(bias.vx.0);
                self.f64(bias.vy.0);
            }
            None => self.u64(u64::MAX),
        }
        self.f64(outcome.score);
        self.usize(outcome.probes);
        self.f64(outcome.elapsed.0);
        self.usize(outcome.history.len());
        for (bias, row) in &outcome.history {
            self.f64(bias.vx.0);
            self.f64(bias.vy.0);
            row.mw().iter().for_each(|&p| self.f64(p));
        }
    }

    fn report(&mut self, report: &SimReport) {
        self.usize(report.handoffs);
        self.usize(report.ticks.len());
        for tick in &report.ticks {
            self.f64(tick.t.0);
            self.usize(tick.moved.len());
            tick.moved.iter().for_each(|&d| self.usize(d));
            self.usize(tick.handoffs);
            let outcome = &tick.outcome;
            outcome.assignment.iter().for_each(|&k| self.usize(k));
            for allocation in &outcome.per_panel {
                allocation.devices.iter().for_each(|&d| self.usize(d));
                self.fleet_outcome(&allocation.outcome);
            }
            self.usize(outcome.per_device.len());
            for service in &outcome.per_device {
                self.f64(service.power_dbm);
            }
            self.usize(outcome.probes);
            self.f64(outcome.elapsed.0);
            self.f64(outcome.score);
            for bias in &tick.applied {
                self.f64(bias.vx.0);
                self.f64(bias.vy.0);
            }
            tick.panel_duty.iter().for_each(|&duty| self.f64(duty));
            for count in [
                tick.deferred_switches,
                tick.links_reprepared,
                tick.links_rebound,
                tick.cold_panels,
                tick.warm_panels,
                tick.reused_panels,
                tick.outaged_panels,
                tick.fault_reassignments,
                tick.revival_readmissions,
                tick.reports_lost,
                tick.reports_exhausted,
                tick.psu_glitches,
            ] {
                self.usize(count);
            }
            self.f64(tick.served_min_power_dbm);
            self.f64(tick.served_throughput_bits_hz);
        }
    }
}

/// A plan that fires every fault path in a 12-tick room: stochastic
/// outages, report losses and PSU glitches, a scripted outage of panel 0
/// from 3 s to 6 s (re-home and revival), and a clamped X column on
/// panel 1.
fn faulted_plan() -> FaultPlan {
    let mut plan = FaultPlan::with_rates(41, 0.1, 0.6, 0.2);
    plan.outages.push(PanelOutage {
        panel: 0,
        window: FaultWindow {
            start: Seconds(3.0),
            duration: Seconds(3.0),
        },
    });
    plan.dead_columns.push(CellFault {
        panel: 1,
        axis: Axis::X,
        kind: CellFaultKind::Clamped(Volts(4.0)),
    });
    plan
}

/// Every pinned run as `(key, digest)`, in file order.
fn digests() -> Vec<(String, u64)> {
    let mut runs: Vec<(String, &str, u64, FaultPlan)> = Vec::new();
    for &seed in &SEEDS {
        for name in SCENARIOS {
            runs.push((format!("{name} {seed}"), name, seed, FaultPlan::none()));
        }
    }
    runs.push((
        "office-floor 7 faulted".to_string(),
        "office-floor",
        7,
        faulted_plan(),
    ));
    runs.into_iter()
        .map(|(key, name, seed, plan)| {
            let report = rooms::build(name, seed)
                .expect("catalog room")
                .run_with_faults(plan);
            let mut d = Digest::new();
            d.report(&report);
            (key, d.0)
        })
        .collect()
}

fn data_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/sim_digests.txt")
}

fn render(digests: &[(String, u64)]) -> String {
    digests
        .iter()
        .map(|(key, d)| format!("{key}: {d:016x}\n"))
        .collect()
}

#[test]
fn the_faulted_room_fires_every_fault_path() {
    let report = rooms::build("office-floor", 7)
        .expect("catalog room")
        .run_with_faults(faulted_plan());
    assert!(report.total_outaged_panel_ticks() > 0);
    assert!(report.total_fault_reassignments() > 0);
    assert!(report.total_revival_readmissions() > 0);
    assert!(report.total_reports_lost() > 0);
    assert!(report.total_reports_exhausted() > 0);
    assert!(report.total_psu_glitches() > 0);
}

#[test]
fn sim_reports_match_the_pinned_digests_at_budgets_one_and_two() {
    let one = rfmath::par::with_budget(1, digests);
    let two = rfmath::par::with_budget(2, digests);
    assert_eq!(
        render(&one),
        render(&two),
        "a thread budget changed a report"
    );
    let rendered = render(&one);
    if std::env::var_os(REGEN).is_some() {
        std::fs::write(data_path(), &rendered).expect("write the digest file");
        return;
    }
    let pinned = std::fs::read_to_string(data_path()).expect("read the digest file");
    assert_eq!(
        rendered, pinned,
        "a simulator outcome moved (regenerate with {REGEN}=1 only if it was meant to)"
    );
}
