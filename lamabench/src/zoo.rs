//! `zoo-mobility`: the real-time path. Warm `MobilitySim` runs over the
//! three scenario-zoo rooms, one room after another; one op is one
//! controller tick.
//!
//! The inputs are a fixed cycle of `(room, seed)` pairs derived from the
//! run seed. The first pass over the cycle is the reference: it is run
//! once untimed, and the physics guards, the digest and every count come
//! from it, so they do not depend on how many ops the timed loop fits.

use std::time::Instant;

use control::{SweepConfig, WarmConfig};
use llama_core::faults::FaultPlan;
use llama_core::rooms::{self, RoomScenario, SCENARIOS};
use llama_core::telemetry::RecorderHandle;
use llama_core::{Policy, SimReport, TickOutcome};
use rfmath::rng::SeedSplitter;

use crate::common::{
    cold_probe_budget, digest_of, mean, Digest, EndToEnd, RunConfig, Timeline, WorkloadRun,
};
use crate::host::HostProbe;
use crate::recorder::ExactRecorder;
use crate::report::{ratio, Metric};

/// Seeds per room in the input cycle (cycle = 3 × this room runs).
const SEEDS_PER_ROOM: u64 = 32;

/// The input cycle: every room under each of its seeds.
fn inputs(seed: u64) -> Vec<(&'static str, u64)> {
    let split = SeedSplitter::new(seed).child("zoo-mobility");
    (0..SEEDS_PER_ROOM)
        .flat_map(|k| SCENARIOS.iter().map(move |&name| (name, k)))
        .map(|(name, k)| (name, split.derive(name, k)))
        .collect()
}

fn build(input: (&'static str, u64)) -> RoomScenario {
    rooms::build(input.0, input.1).expect("catalog room")
}

/// Most probes one tick may spend: per panel, a warm refinement that
/// widens to a full cold search.
fn tick_budget(room: &RoomScenario) -> usize {
    let warm = room.config.warm.map_or(0, |w: WarmConfig| w.probe_budget());
    let cold = cold_probe_budget(&SweepConfig::paper_default(), Policy::MaxMin, 0);
    room.array.len() * (warm + cold)
}

fn tick_ok(tick: &TickOutcome, budget: usize) -> bool {
    tick.served_min_power_dbm.is_finite()
        && tick
            .outcome
            .per_device
            .iter()
            .all(|s| s.power_dbm.is_finite())
        && tick.outcome.probes <= budget
}

fn digest_report(d: &mut Digest, report: &SimReport) {
    d.usize(report.handoffs);
    for tick in &report.ticks {
        d.panel_outcome(&tick.outcome);
        d.f64(tick.served_min_power_dbm);
        d.f64(tick.served_throughput_bits_hz);
        for bias in &tick.applied {
            d.f64(bias.vx.0);
            d.f64(bias.vy.0);
        }
        for &duty in &tick.panel_duty {
            d.f64(duty);
        }
    }
}

/// Sums over every tick of the reference pass.
#[derive(Default)]
struct Counts {
    ticks: usize,
    runs: usize,
    links_reprepared: usize,
    links_rebound: usize,
    cold_panels: usize,
    warm_panels: usize,
    reused_panels: usize,
    probes: usize,
    handoffs: usize,
}

impl Counts {
    fn add(&mut self, report: &SimReport) {
        self.runs += 1;
        self.handoffs += report.handoffs;
        for t in &report.ticks {
            self.ticks += 1;
            self.links_reprepared += t.links_reprepared;
            self.links_rebound += t.links_rebound;
            self.cold_panels += t.cold_panels;
            self.warm_panels += t.warm_panels;
            self.reused_panels += t.reused_panels;
            self.probes += t.outcome.probes;
        }
    }
}

/// The reference pass: every input once, checked. Only what the guards,
/// counts and the bitwise re-run check need is kept, not the reports.
#[derive(Default)]
struct Reference {
    digests: Vec<u64>,
    served_min_power_dbm: Vec<f64>,
    duty: Vec<f64>,
    counts: Counts,
    attempted: usize,
    failed: usize,
}

fn reference(cycle: &[(&'static str, u64)], recorder: Option<RecorderHandle>) -> Reference {
    let mut out = Reference::default();
    for &input in cycle {
        let mut room = build(input);
        let budget = tick_budget(&room);
        let report = match &recorder {
            Some(handle) => room.run_traced(FaultPlan::none(), handle.clone()),
            None => room.run(),
        };
        out.attempted += report.ticks.len();
        out.failed += report.ticks.iter().filter(|t| !tick_ok(t, budget)).count();
        out.digests.push(digest_of(|d| digest_report(d, &report)));
        out.served_min_power_dbm
            .push(report.mean_served_min_power_dbm());
        out.duty.push(report.mean_duty());
        out.counts.add(&report);
    }
    out
}

pub fn run(cfg: &RunConfig) -> WorkloadRun {
    // Made first, so its buffer is resident for every peak (see
    // `Timeline::start`).
    let probe = HostProbe::new();
    let cycle = inputs(cfg.seed);
    let counting = cfg.trace.then(ExactRecorder::attach);
    let reference = reference(&cycle, counting.as_ref().map(|(_, h)| h.clone()));
    let mut run = WorkloadRun {
        attempted: reference.attempted,
        failed: reference.failed,
        digest: digest_of(|d| reference.digests.iter().for_each(|&x| d.u64(x))),
        ..WorkloadRun::default()
    };

    if cfg.trace {
        let (counts, _) = counting.expect("traced run has a counting recorder");
        run.per_layer = traced_loop(cfg, &cycle, &reference, &counts, &mut run);
    } else {
        let mut timeline = Timeline::start(cfg, probe);
        let mut j = 0usize;
        while timeline.running() {
            if timeline.enter_window() {
                // Set-up: generating the cycle's rooms (fleets, walks,
                // blockages, panel arrays), one at a time.
                timeline.time_setup(|| cycle.iter().for_each(|&i| drop(build(i))));
            }
            let mut room = build(cycle[j % cycle.len()]);
            let budget = tick_budget(&room);
            let started = Instant::now();
            let report = room.run();
            let wall_s = started.elapsed().as_secs_f64();
            timeline.record(wall_s, report.ticks.iter().map(|t| t.wall_ms));
            run.attempted += report.ticks.len();
            run.failed += report.ticks.iter().filter(|t| !tick_ok(t, budget)).count();
            j += 1;
        }
        run.host_load = Some(timeline.host_load());
        run.end_to_end = EndToEnd {
            timeline: &timeline,
            served_min_power_dbm: mean(&reference.served_min_power_dbm),
            serving_duty: mean(&reference.duty),
            reference_ops: reference.counts.ticks,
        }
        .metrics();
    }

    // Output check: one sampled room and seed re-runs bit for bit.
    let pick = (SeedSplitter::new(cfg.seed).derive("zoo-rerun", 0) % cycle.len() as u64) as usize;
    let again = build(cycle[pick]).run();
    run.attempted += again.ticks.len();
    if digest_of(|d| digest_report(d, &again)) != reference.digests[pick] {
        run.failed += again.ticks.len();
    }
    run
}

/// The per-layer run: each input runs twice, once untraced and once with
/// the benchmark recorder attached (alternating which goes first), so
/// both arms of `trace.overhead` see the same rooms.
fn traced_loop(
    cfg: &RunConfig,
    cycle: &[(&'static str, u64)],
    reference: &Reference,
    counts: &ExactRecorder,
    run: &mut WorkloadRun,
) -> Vec<Metric> {
    let (timing, handle) = ExactRecorder::attach();
    let (mut traced_wall, mut plain_wall) = (0.0f64, 0.0f64);
    let (mut traced_ticks, mut plain_ticks) = (0usize, 0usize);
    let deadline = cfg.deadline();
    let mut j = 0usize;
    while Instant::now() < deadline || traced_ticks == 0 {
        let input = cycle[j % cycle.len()];
        for arm in 0..2 {
            let traced = (arm + j) % 2 == 0;
            let mut room = build(input);
            let budget = tick_budget(&room);
            let report = if traced {
                room.run_traced(FaultPlan::none(), handle.clone())
            } else {
                room.run()
            };
            let wall: f64 = report.ticks.iter().map(|t| t.wall_ms).sum();
            if traced {
                traced_wall += wall;
                traced_ticks += report.ticks.len();
            } else {
                plain_wall += wall;
                plain_ticks += report.ticks.len();
            }
            run.attempted += report.ticks.len();
            run.failed += report.ticks.iter().filter(|t| !tick_ok(t, budget)).count();
        }
        j += 1;
    }

    let phase_ms = |name: &str| timing.duration(name).sum_ms() / traced_ticks as f64;
    let advance = phase_ms("sim.phase.advance_ns");
    let reopt = phase_ms("sim.phase.reopt_ns");
    let settle = phase_ms("sim.phase.settle_ns");
    let wall = traced_wall / traced_ticks as f64;
    let sweep_ms = |name: &'static str, kind: &str| {
        let s = timing.sweeps(kind);
        let value = ratio(s.interval_ns as f64 / 1e6, s.timed as f64);
        Metric::new(name, "ms", value, s.timed as usize)
    };

    // Counts come from the reference pass only, so they repeat exactly.
    let c = &reference.counts;
    let per_tick = |count: usize| ratio(count as f64, c.ticks as f64);
    let panel_ticks = (c.cold_panels + c.warm_panels + c.reused_panels) as f64;
    let (cold, warm) = (counts.sweeps("cold"), counts.sweeps("warm"));
    vec![
        Metric::new("sim.advance_ms", "ms", advance, traced_ticks),
        Metric::new("sim.reopt_ms", "ms", reopt, traced_ticks),
        Metric::new("sim.settle_ms", "ms", settle, traced_ticks),
        Metric::new(
            "sim.serve_ms",
            "ms",
            phase_ms("sim.phase.serve_ns"),
            traced_ticks,
        ),
        Metric::new(
            "sim.unattributed_ms",
            "ms",
            wall - advance - reopt - settle,
            traced_ticks,
        ),
        Metric::new(
            "sim.links_reprepared_per_tick",
            "count",
            per_tick(c.links_reprepared),
            c.ticks,
        ),
        Metric::new(
            "sim.links_rebound_per_tick",
            "count",
            per_tick(c.links_rebound),
            c.ticks,
        ),
        Metric::new(
            "sim.panels_cold_share",
            "ratio",
            ratio(c.cold_panels as f64, panel_ticks),
            c.ticks,
        ),
        Metric::new(
            "sim.panels_reused_share",
            "ratio",
            ratio(c.reused_panels as f64, panel_ticks),
            c.ticks,
        ),
        Metric::new(
            "sim.handoffs_per_run",
            "count",
            ratio(c.handoffs as f64, c.runs as f64),
            c.runs,
        ),
        Metric::new("sim.probes_per_tick", "count", per_tick(c.probes), c.ticks),
        sweep_ms("sweep.warm_ms", "warm"),
        sweep_ms("sweep.cold_ms", "cold"),
        Metric::new(
            "sweep.probes_per_sweep",
            "count",
            ratio(
                (cold.probes + warm.probes) as f64,
                (cold.count + warm.count) as f64,
            ),
            (cold.count + warm.count) as usize,
        ),
        Metric::new(
            "trace.coverage",
            "ratio",
            (advance + reopt + settle) / wall,
            traced_ticks,
        ),
        Metric::new(
            "trace.overhead",
            "ratio",
            wall / (plain_wall / plain_ticks as f64),
            traced_ticks + plain_ticks,
        ),
    ]
}
