//! What every workload shares: run settings, the run result, output
//! digests, probe budgets and the end-to-end metric set.

use std::time::{Duration, Instant};

use control::SweepConfig;
use llama_core::{Fleet, FleetDevice, FleetEvaluator, FleetOutcome, PanelOutcome, Policy};
use metasurface::{BiasState, PlanCache};
use rfmath::units::Hertz;

use crate::host::{peak_rss_mb, steal_ticks, HostProbe};
use crate::report::{median, percentile, ratio, Metric};

/// The timed loop is cut into wall-clock windows this long, seconds.
const WINDOW_S: f64 = 0.1;

/// Share of the windows, those on the quietest host, whose ops and
/// set-up repetitions the timing metrics are computed over. Other
/// tenants of a shared host slow stretches of a run by up to 1.7×, for
/// seconds at a time. A window is judged only by the host around it
/// (steal time, then [`HostProbe`] readings at its open and close),
/// never by how fast the program ran in it, and every op of a chosen
/// window counts. On a 2-vCPU cloud host, `zoo-mobility`'s top-tenth
/// windows ran 20–40% faster than its median window.
const QUIET_SHARE: f64 = 0.1;

/// Groups the quiet windows are pooled into. Each timing metric is the
/// median over the groups of the group's figure, so one window that a
/// neighbour hit after its probe moves no reported number.
const GROUPS: usize = 5;

/// How one benchmark process runs its workload.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    /// `true`: the per-layer run (benchmark recorder attached, layer
    /// calls timed); `false`: the end-to-end run, recorder-free.
    pub trace: bool,
}

impl RunConfig {
    /// When the measured loop must stop.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// Everything a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct WorkloadRun {
    /// Ops run and output-checked.
    pub attempted: usize,
    /// Ops that failed a check or came back as a `JobError`.
    pub failed: usize,
    /// End-to-end metrics (untraced run only).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run only); layers the workload never
    /// enters are filled with 0 by the caller.
    pub per_layer: Vec<Metric>,
    /// Digest of the deterministic outputs of the reference cycle.
    pub digest: u64,
    /// What the host gave the timed loop (untraced run only).
    pub host_load: Option<HostLoad>,
}

/// The host's state over a timed loop, for reading its numbers against.
#[derive(Clone, Copy, Debug)]
pub struct HostLoad {
    /// Median host probe over the windows the timings come from, ms.
    pub quiet_probe_ms: f64,
    /// Median host probe over every window, ms.
    pub probe_ms: f64,
    /// Share of windows in which the host stole time from our CPUs.
    pub stolen_share: f64,
}

/// FNV-1a over the bit patterns of a run's outputs: two commits with the
/// same physics print the same digest.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }

    pub fn fleet_outcome(&mut self, outcome: &FleetOutcome) {
        self.usize(outcome.probes);
        self.f64(outcome.score);
        if let Some(bias) = outcome.shared_bias {
            self.f64(bias.vx.0);
            self.f64(bias.vy.0);
        }
        for service in &outcome.per_device {
            self.f64(service.bias.vx.0);
            self.f64(service.bias.vy.0);
            self.f64(service.power_dbm);
            self.f64(service.duty);
        }
    }

    pub fn panel_outcome(&mut self, outcome: &PanelOutcome) {
        for &panel in &outcome.assignment {
            self.usize(panel);
        }
        self.usize(outcome.probes);
        self.f64(outcome.score);
        for allocation in &outcome.per_panel {
            self.fleet_outcome(&allocation.outcome);
        }
    }
}

/// Digest of one value.
pub fn digest_of(f: impl FnOnce(&mut Digest)) -> u64 {
    let mut d = Digest::default();
    f(&mut d);
    d.finish()
}

/// Most probes one cold search may spend under `sweep` for `policy`
/// over `devices` devices: one grid per round for a shared bias, and
/// for time division the coarse grid plus one window per device per
/// refinement round.
pub fn cold_probe_budget(sweep: &SweepConfig, policy: Policy, devices: usize) -> usize {
    let grid = sweep.steps_per_axis.max(2).pow(2);
    match policy {
        Policy::TimeDivision => grid * (1 + sweep.iterations.saturating_sub(1) * devices),
        _ => grid * sweep.iterations,
    }
}

/// The distinct carriers of `devices`, in first-seen order: the plans
/// a plan cache compiles for them.
pub fn carriers<'a>(devices: impl IntoIterator<Item = &'a FleetDevice>) -> Vec<Hertz> {
    let mut out: Vec<Hertz> = Vec::new();
    for device in devices {
        let f = device.scenario.frequency;
        if !out.iter().any(|c| c.0.to_bits() == f.0.to_bits()) {
            out.push(f);
        }
    }
    out
}

/// Every served power is finite.
pub fn powers_finite(outcome: &FleetOutcome) -> bool {
    outcome.per_device.iter().all(|s| s.power_dbm.is_finite())
}

/// One window of the timed loop.
#[derive(Debug, Default)]
struct Window {
    /// Index of the [`WINDOW_S`] slice of the loop it covers.
    index: usize,
    /// The host probe timed as the window opened, ms.
    probe_ms: f64,
    /// The host's steal-time counter as the window opened.
    steal_ticks: u64,
    /// Summed wall of the op batches that started in it, seconds.
    wall_s: f64,
    latencies_ms: Vec<f64>,
    /// The set-up repetition timed in this window, seconds.
    setup_s: Vec<f64>,
}

impl Window {
    fn ops_per_s(&self) -> f64 {
        ratio(self.latencies_ms.len() as f64, self.wall_s)
    }
}

/// The timed loop's batches of ops, filed by the [`WINDOW_S`] window
/// they started in. Each window opens with a host probe and one set-up
/// repetition.
///
/// Set-up is timed inside the loop rather than once before it because a
/// contended stretch of the host lasts longer than any set-up; timed up
/// front, set-up read 2–3× apart between runs of one seed.
pub struct Timeline {
    started: Instant,
    seconds: f64,
    windows: Vec<Window>,
    probe: HostProbe,
}

impl Timeline {
    /// Starts the loop clock for `cfg.seconds`. `probe` should be made
    /// before the workload's set-up, so that its buffer is resident for
    /// every peak the process reaches.
    pub fn start(cfg: &RunConfig, probe: HostProbe) -> Self {
        Self {
            started: Instant::now(),
            seconds: cfg.seconds,
            windows: Vec::new(),
            probe,
        }
    }

    /// Whether the loop still has time left.
    pub fn running(&self) -> bool {
        self.started.elapsed().as_secs_f64() < self.seconds
    }

    /// Called before each batch. When the loop has crossed into a new
    /// window, probes the host, opens the window and returns `true`: the
    /// caller then re-runs its set-up through [`Timeline::time_setup`].
    pub fn enter_window(&mut self) -> bool {
        let index = (self.started.elapsed().as_secs_f64() / WINDOW_S) as usize;
        if self.windows.last().is_some_and(|w| w.index == index) {
            return false;
        }
        let probe_ms = self.probe.time_ms();
        self.windows.push(Window {
            index,
            probe_ms,
            steal_ticks: steal_ticks(),
            ..Window::default()
        });
        true
    }

    /// Times one run of `build` (the workload's whole set-up) in the
    /// current window and hands back what it built.
    pub fn time_setup<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = build();
        let wall_s = started.elapsed().as_secs_f64();
        self.current().setup_s.push(wall_s);
        value
    }

    /// Files a batch that took `wall_s` seconds, with one latency per
    /// op, in the current window.
    pub fn record(&mut self, wall_s: f64, latencies_ms: impl IntoIterator<Item = f64>) {
        let window = self.current();
        window.latencies_ms.extend(latencies_ms);
        window.wall_s += wall_s;
    }

    fn current(&mut self) -> &mut Window {
        self.windows
            .last_mut()
            .expect("enter_window opens a window before the first batch")
    }

    /// The host probe and steal time over the loop.
    pub fn host_load(&self) -> HostLoad {
        let ranked = self.ranked();
        let keep = quiet_count(ranked.len());
        let probes: Vec<f64> = ranked.iter().map(|w| w.probe_ms).collect();
        let stolen = self
            .windows
            .windows(2)
            .filter(|pair| pair[1].steal_ticks > pair[0].steal_ticks)
            .count();
        HostLoad {
            quiet_probe_ms: median(&probes[..keep.min(probes.len())]),
            probe_ms: median(&probes),
            stolen_share: ratio(stolen as f64, self.windows.len().saturating_sub(1) as f64),
        }
    }

    /// Windows that ran ops, quietest host first. A window is judged by
    /// what the host did around it, read at its open and at the next
    /// window's open: first the steal time in between (time the
    /// hypervisor ran another tenant on our CPUs, which stalls whole
    /// ops), then the two host probes. The last window has no next open
    /// and is left out.
    fn ranked(&self) -> Vec<&Window> {
        let mut ranked: Vec<(u64, f64, &Window)> = self
            .windows
            .windows(2)
            .filter(|pair| !pair[0].latencies_ms.is_empty())
            .map(|pair| {
                let stolen = pair[1].steal_ticks.saturating_sub(pair[0].steal_ticks);
                (stolen, pair[0].probe_ms + pair[1].probe_ms, &pair[0])
            })
            .collect();
        ranked.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        ranked.into_iter().map(|(_, _, w)| w).collect()
    }

    /// The [`QUIET_SHARE`] of windows (at least one) that ran ops on the
    /// quietest host (see [`Timeline::ranked`]), pooled into up to
    /// [`GROUPS`] groups of neighbouring rank.
    fn quiet(&self) -> Vec<Window> {
        let mut ranked = self.ranked();
        ranked.truncate(quiet_count(ranked.len()));
        // Near-equal groups: sizes differ by at most one window.
        let groups = GROUPS.min(ranked.len());
        (0..groups)
            .map(|g| &ranked[g * ranked.len() / groups..(g + 1) * ranked.len() / groups])
            .map(|chunk| {
                let mut pooled = Window::default();
                for w in chunk {
                    pooled.wall_s += w.wall_s;
                    pooled.latencies_ms.extend_from_slice(&w.latencies_ms);
                    pooled.setup_s.extend_from_slice(&w.setup_s);
                }
                pooled
            })
            .collect()
    }
}

/// How many of `windows` ranked windows are quiet: [`QUIET_SHARE`] of
/// them, at least one.
fn quiet_count(windows: usize) -> usize {
    ((windows as f64 * QUIET_SHARE).ceil() as usize).max(1)
}

/// Inputs to the end-to-end metric set.
pub struct EndToEnd<'a> {
    pub timeline: &'a Timeline,
    /// Mean worst served power of the reference cycle, dBm.
    pub served_min_power_dbm: f64,
    /// Mean serving duty of the reference cycle.
    pub serving_duty: f64,
    /// Ops in the reference cycle (the sample count of the two guards).
    pub reference_ops: usize,
}

impl EndToEnd<'_> {
    pub fn metrics(&self) -> Vec<Metric> {
        let groups = self.timeline.quiet();
        let n = groups.iter().map(|g| g.latencies_ms.len()).sum();
        let setup_s: Vec<f64> = groups.iter().flat_map(|g| g.setup_s.clone()).collect();
        let over_groups =
            |f: &dyn Fn(&Window) -> f64| median(&groups.iter().map(f).collect::<Vec<_>>());
        vec![
            Metric::new("setup_s", "s", median(&setup_s), setup_s.len()),
            Metric::new("ops_per_s", "1/s", over_groups(&Window::ops_per_s), n),
            Metric::new(
                "op_p50_ms",
                "ms",
                over_groups(&|g| percentile(&g.latencies_ms, 50.0)),
                n,
            ),
            Metric::new(
                "op_p99_ms",
                "ms",
                over_groups(&|g| percentile(&g.latencies_ms, 99.0)),
                n,
            ),
            // The probe's buffer is resident from before set-up to the
            // end of the process, so it is taken off exactly.
            Metric::new(
                "peak_rss_mb",
                "MB",
                peak_rss_mb() - self.timeline.probe.resident_mb(),
                1,
            ),
            // Negated so the number is positive: a bound is a share of
            // the median, which a negative dBm figure would invert.
            Metric::new(
                "served_min_power_db_below_1mw",
                "dB",
                -self.served_min_power_dbm,
                self.reference_ops,
            ),
            Metric::new(
                "serving_duty",
                "ratio",
                self.serving_duty,
                self.reference_ops,
            ),
        ]
    }
}

/// Arithmetic mean (NaN for none).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Milliseconds since `started`.
pub fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// A time-division schedule's batch kernels, replayed in isolation on
/// its own inputs: the coarse grid (the first `grid` probes of its
/// history) and the deduplicated refinement batch (the rest) each go
/// through `FleetEvaluator::powers_matrix`, then through every carrier
/// plan's `StackEvaluator::eval_batch` on fresh plan memos. The
/// evaluator is built outside the timed calls. Returns `(powers_matrix
/// ms, eval_batch ms)`.
pub fn replay_time_division(
    fleet: &Fleet,
    outcome: &FleetOutcome,
    cache: &PlanCache,
    grid: usize,
) -> (f64, f64) {
    let biases: Vec<BiasState> = outcome.history.iter().map(|h| h.0).collect();
    let split = grid.min(biases.len());
    let batches = [&biases[..split], &biases[split..]];
    let evaluator = FleetEvaluator::with_plan_cache(fleet, cache);
    let started = Instant::now();
    for batch in batches {
        std::hint::black_box(evaluator.powers_matrix(batch));
    }
    let matrix_ms = ms_since(started);
    let plans = cache.shared().handle();
    let mut batch_ms = 0.0;
    for f in carriers(fleet.devices()) {
        let plan = plans.plan(f);
        let started = Instant::now();
        for batch in batches {
            std::hint::black_box(plan.eval_batch(batch));
        }
        batch_ms += ms_since(started);
    }
    (matrix_ms, batch_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline() -> Timeline {
        Timeline::start(
            &RunConfig {
                seed: 0,
                seconds: 1.0,
                trace: false,
            },
            HostProbe::new(),
        )
    }

    /// A window opened by hand with given host readings.
    fn open(t: &mut Timeline, index: usize, probe_ms: f64, steal_ticks: u64) {
        t.windows.push(Window {
            index,
            probe_ms,
            steal_ticks,
            ..Window::default()
        });
    }

    #[test]
    fn quiet_windows_are_chosen_by_the_host_not_the_program() {
        let mut t = timeline();
        // The window with the quietest host ran the program slowest;
        // it is still the one chosen, with every op it ran.
        open(&mut t, 0, 0.9, 0);
        t.record(0.01, [1.0, 1.0]);
        open(&mut t, 1, 0.3, 0);
        t.record(0.05, [5.0, 9.0]);
        t.record(0.02, [3.0]);
        t.time_setup(|| ());
        open(&mut t, 2, 0.3, 0);
        t.record(0.02, [2.0, 2.0]);
        // A window without ops is never chosen, however quiet, and
        // steal time between two opens rules the earlier window out
        // before any probe is compared.
        open(&mut t, 3, 0.1, 4);
        open(&mut t, 4, 0.1, 4);
        // 3 windows with ops × 0.1 rounds up to one window: window 1,
        // probes 0.3 + 0.3 (window 2 is stolen from, window 0 reads 0.9
        // + 0.3).
        let quiet = t.quiet();
        assert_eq!(quiet.len(), 1);
        assert_eq!(quiet[0].latencies_ms, vec![5.0, 9.0, 3.0]);
        assert_eq!(quiet[0].ops_per_s(), 3.0 / 0.07);
        assert_eq!(quiet[0].setup_s.len(), 1);
    }

    #[test]
    fn quiet_windows_pool_into_groups_of_neighbouring_rank() {
        let mut t = timeline();
        // 210 windows with ops (and a closing one) × 0.1 keeps 21, in
        // five groups of near-equal size.
        for k in 0..210 {
            open(&mut t, k, 300.0 - k as f64, 0);
            t.record(0.01, [k as f64]);
        }
        open(&mut t, 210, 0.0, 0);
        let quiet = t.quiet();
        let sizes: Vec<usize> = quiet.iter().map(|g| g.latencies_ms.len()).collect();
        assert_eq!(sizes, vec![4, 4, 4, 4, 5]);
        assert_eq!(quiet[0].latencies_ms, vec![209.0, 208.0, 207.0, 206.0]);
        assert_eq!(
            quiet[4].latencies_ms,
            vec![193.0, 192.0, 191.0, 190.0, 189.0]
        );
    }

    #[test]
    fn a_window_opens_once_with_one_probe() {
        let mut t = timeline();
        assert!(t.enter_window());
        let opened = t.windows.len();
        // Calls microseconds apart stay in the window, or open the next
        // one if they straddle a boundary.
        let again = (0..3).filter(|_| t.enter_window()).count();
        assert_eq!(t.windows.len(), opened + again);
        assert!(again <= 1);
        assert!(t.windows.iter().all(|w| w.probe_ms > 0.0));
        let built = t.time_setup(|| 7);
        assert_eq!(built, 7);
        assert_eq!(t.windows.last().map(|w| w.setup_s.len()), Some(1));
    }

    #[test]
    fn an_empty_loop_reports_nan_timings() {
        let t = timeline();
        let quiet = t.quiet();
        assert!(quiet.is_empty());
        let metrics = EndToEnd {
            timeline: &t,
            served_min_power_dbm: -50.0,
            serving_duty: 1.0,
            reference_ops: 1,
        }
        .metrics();
        assert!(metrics[1].value.is_nan(), "median over no groups");
        assert!(metrics[2].value.is_nan());
    }
}
