//! `expts --matrix` — the many-fleet serving matrix.
//!
//! Runs the cross product of `--rooms × --policy × --fleets × --devices
//! × --threads` (each a comma-separated list) through the
//! [`FleetServer`], recording wall-clock, throughput, speedup over a
//! serial baseline, queue wait *and*
//! the served MaxMin headline (worst device power across the cell's
//! jobs — the figure the legacy `--panels` report carried as its
//! single-shape summary) for every cell, and renders the same table as
//! markdown, CSV and JSON — one run, three artifacts, so sweep results
//! can be pasted into a PR description, loaded into a spreadsheet, or
//! diffed in CI without re-measuring.
//!
//! The `--rooms` axis accepts scenario-zoo names (the cell serves
//! copies of the room's t = 0 fleet over the room's mounted panel
//! array; the `--devices` axis is reported as the room's own device
//! count) plus the `synthetic` pseudo-room (the historical
//! `mixed_wifi_ble` line fleet on a distributed two-panel array). The
//! `--policy` axis selects the per-panel scheduling objective:
//! `maxmin`, `favor` (device 0 favored) or `timedivision`.

use control::server::FleetServer;
use llama_core::fleet::{Fleet, Scheduler};
use llama_core::panels::{serve_panel_fleets, PanelArray, PanelScheduler};
use llama_core::rooms;

use crate::perf::time_ms;
use crate::report::{Field, Report, Row, Value};

/// Base seed for the matrix fleets (offset per fleet index so the jobs
/// are distinct but reproducible).
const MATRIX_SEED: u64 = 7000;

/// The `--rooms` pseudo-entry selecting the synthetic line fleet.
pub const SYNTHETIC_ROOM: &str = "synthetic";

/// The names the `--policy` axis accepts.
pub const POLICIES: [&str; 3] = ["maxmin", "favor", "timedivision"];

/// The five swept axes. Empty lists are rejected at parse time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatrixAxes {
    /// Workload rooms: zoo names plus [`SYNTHETIC_ROOM`].
    pub rooms: Vec<String>,
    /// Scheduling policies (see [`POLICIES`]).
    pub policies: Vec<String>,
    /// Concurrent fleets per serve call.
    pub fleets: Vec<usize>,
    /// Devices per fleet (synthetic room only; zoo rooms bring their
    /// own populations).
    pub devices: Vec<usize>,
    /// Worker threads in the pool.
    pub threads: Vec<usize>,
}

impl MatrixAxes {
    /// The default sweep: the synthetic workload under max-min, one
    /// fleet-size point, one device point and a 1-vs-all-cores thread
    /// axis — small enough to run as a smoke, wide enough to show the
    /// scaling shape.
    pub fn default_axes() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mut threads = vec![1, cores];
        threads.dedup();
        Self {
            rooms: vec![SYNTHETIC_ROOM.to_string()],
            policies: vec!["maxmin".to_string()],
            fleets: vec![8],
            devices: vec![8],
            threads,
        }
    }

    /// Parses one comma-separated axis list (`"1,2,8"`); rejects empty
    /// lists, zeros and malformed entries.
    pub fn parse_list(flag: &str, raw: &str) -> Result<Vec<usize>, String> {
        let mut out = Vec::new();
        for part in raw.split(',') {
            match part.trim().parse::<usize>() {
                Ok(n) if n > 0 => out.push(n),
                _ => {
                    return Err(format!(
                        "{flag} takes a comma-separated list of positive integers; \
                         got {raw:?}"
                    ))
                }
            }
        }
        if out.is_empty() {
            return Err(format!("{flag} list is empty"));
        }
        Ok(out)
    }

    /// Parses a comma-separated name list validated against `allowed`.
    pub fn parse_names(flag: &str, raw: &str, allowed: &[&str]) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        for part in raw.split(',') {
            let name = part.trim();
            if !allowed.contains(&name) {
                return Err(format!(
                    "{flag} got unknown name {name:?}; known: {}",
                    allowed.join(", ")
                ));
            }
            out.push(name.to_string());
        }
        if out.is_empty() {
            return Err(format!("{flag} list is empty"));
        }
        Ok(out)
    }

    /// The names the `--rooms` axis accepts.
    pub fn known_rooms() -> Vec<&'static str> {
        let mut rooms: Vec<&'static str> = vec![SYNTHETIC_ROOM];
        rooms.extend(rooms::SCENARIOS);
        rooms
    }

    /// Total cells in the cross product.
    pub fn cells(&self) -> usize {
        self.rooms.len()
            * self.policies.len()
            * self.fleets.len()
            * self.devices.len()
            * self.threads.len()
    }
}

/// One measured cell of the cross product.
#[derive(Clone, Debug)]
pub struct MatrixCell {
    /// Workload room (`synthetic` or a zoo name).
    pub room: String,
    /// Scheduling policy.
    pub policy: String,
    /// Concurrent fleets served.
    pub fleets: usize,
    /// Devices per fleet (a zoo room reports its own population).
    pub devices: usize,
    /// Worker threads.
    pub threads: usize,
    /// Mean wall-clock per serve, ms.
    pub mean_ms: f64,
    /// Best-of-N wall-clock per serve, ms.
    pub min_ms: f64,
    /// Fleets served per second at the best-of-N time.
    pub fleets_per_sec: f64,
    /// Serial / concurrent best-of-N ratio for this workload.
    pub speedup_vs_serial: f64,
    /// Worst served device power across the cell's jobs, dBm — the
    /// legacy `--panels` single-shape headline, folded per cell.
    pub min_power_dbm: f64,
    /// Mean stage-to-claim queue wait per job, ms.
    pub mean_queue_wait_ms: f64,
}

/// The assembled sweep.
#[derive(Clone, Debug)]
pub struct MatrixReport {
    /// Whether the reduced quick-mode iteration budget was used.
    pub quick: bool,
    /// The swept axes.
    pub axes: MatrixAxes,
    /// One row per cross-product cell, in axis order.
    pub cells: Vec<MatrixCell>,
    /// Aggregated telemetry block from the ring recorder attached to
    /// every cell's stats pass (single-line JSON object). Timed passes
    /// stay recorder-free so the speedup columns are unperturbed.
    pub telemetry: String,
}

/// Builds the scheduler for one `--policy` name.
fn scheduler_for(policy: &str) -> PanelScheduler {
    match policy {
        "favor" => PanelScheduler {
            base: Scheduler::favor(0),
            ..PanelScheduler::max_min()
        },
        "timedivision" => PanelScheduler::time_division(),
        _ => PanelScheduler::max_min(),
    }
}

/// Builds one cell workload: `fleets_n` jobs of `(fleet, array)`.
fn jobs_for(room: &str, fleets_n: usize, devices_n: usize) -> Vec<(Fleet, PanelArray)> {
    if room == SYNTHETIC_ROOM {
        (0..fleets_n as u64)
            .map(|s| {
                let fleet = Fleet::mixed_wifi_ble(devices_n, MATRIX_SEED + s);
                let array = PanelArray::distributed(fleet.design.clone(), 2);
                (fleet, array)
            })
            .collect()
    } else {
        let scenario = rooms::build(room, MATRIX_SEED).expect("axis names validated at parse time");
        let fleet = scenario.fleet.fleet().clone();
        let array = scenario.array;
        (0..fleets_n)
            .map(|_| (fleet.clone(), array.clone()))
            .collect()
    }
}

impl MatrixReport {
    /// Measures every cell of `axes`. Serial baselines (and the served
    /// min-power headline) are measured once per distinct workload and
    /// shared across that workload's thread cells.
    pub fn run(axes: MatrixAxes, quick: bool) -> Self {
        let iters = if quick { 2 } else { 4 };
        let mut cells = Vec::with_capacity(axes.cells());
        let recorder = llama_core::telemetry::RecorderHandle::new(std::sync::Arc::new(
            llama_core::telemetry::RingRecorder::default(),
        ));
        for room in &axes.rooms {
            for policy in &axes.policies {
                let scheduler = scheduler_for(policy);
                for &fleets_n in &axes.fleets {
                    for &devices_n in &axes.devices {
                        let jobs = jobs_for(room, fleets_n, devices_n);
                        let reported_devices = jobs
                            .first()
                            .map(|(fleet, _)| fleet.len())
                            .unwrap_or(devices_n);
                        let (_, serial_min) = time_ms(iters, || {
                            jobs.iter()
                                .map(|(f, a)| scheduler.run(f, a))
                                .collect::<Vec<_>>()
                        });
                        // The folded --panels headline: worst served
                        // device power across the cell's jobs (server
                        // results are bit-identical to serial runs).
                        let min_power_dbm = jobs
                            .iter()
                            .map(|(f, a)| scheduler.run(f, a).min_power_dbm())
                            .fold(f64::INFINITY, f64::min);
                        for &threads in &axes.threads {
                            let server = FleetServer::new(threads);
                            let (mean_ms, min_ms) =
                                time_ms(iters, || serve_panel_fleets(&server, &scheduler, &jobs));
                            let server = server.with_recorder(recorder.clone());
                            let (_, stats) = server.try_serve_with_stats(
                                jobs.iter().collect(),
                                |_, (f, a): &(Fleet, PanelArray)| scheduler.run(f, a),
                            );
                            cells.push(MatrixCell {
                                room: room.clone(),
                                policy: policy.clone(),
                                fleets: fleets_n,
                                devices: reported_devices,
                                threads,
                                mean_ms,
                                min_ms,
                                fleets_per_sec: fleets_n as f64 / (min_ms / 1e3).max(1e-12),
                                speedup_vs_serial: serial_min / min_ms.max(1e-12),
                                min_power_dbm,
                                mean_queue_wait_ms: stats.mean_queue_wait.0 * 1e3,
                            });
                        }
                    }
                }
            }
        }
        Self {
            quick,
            axes,
            cells,
            telemetry: recorder.aggregate_json(),
        }
    }
}

impl Row for MatrixCell {
    fn row(&self) -> Vec<Field> {
        vec![
            ("room", self.room.as_str().into()),
            ("policy", self.policy.as_str().into()),
            ("fleets", self.fleets.into()),
            ("devices", self.devices.into()),
            ("threads", self.threads.into()),
            ("mean_ms", self.mean_ms.into()),
            ("min_ms", self.min_ms.into()),
            ("fleets_per_sec", self.fleets_per_sec.into()),
            ("speedup_vs_serial", self.speedup_vs_serial.into()),
            ("min_power_dbm", self.min_power_dbm.into()),
            ("mean_queue_wait_ms", self.mean_queue_wait_ms.into()),
        ]
    }
}

impl Report for MatrixReport {
    fn title(&self) -> String {
        format!("Serving matrix: {} cells", self.axes.cells())
    }

    fn identity(&self) -> Field {
        ("pr", 9u64.into())
    }

    fn telemetry(&self) -> String {
        self.telemetry.clone()
    }

    /// The axes, then one row per cell (the markdown and CSV tables).
    fn fields(&self) -> Vec<Field> {
        let axes = &self.axes;
        vec![
            ("quick", self.quick.into()),
            (
                "axes",
                Value::Obj(vec![
                    ("rooms", Value::list(&axes.rooms)),
                    ("policies", Value::list(&axes.policies)),
                    ("fleets", Value::list(&axes.fleets)),
                    ("devices", Value::list(&axes.devices)),
                    ("threads", Value::list(&axes.threads)),
                ]),
            ),
            ("cells", Value::rows(&self.cells)),
        ]
    }

    /// True when every cell measured a finite, positive wall-clock and
    /// a finite served min power.
    fn passes(&self) -> bool {
        !self.cells.is_empty()
            && self
                .cells
                .iter()
                .all(|c| c.min_ms.is_finite() && c.min_ms > 0.0 && c.min_power_dbm.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{render, Format};

    #[test]
    fn parse_list_accepts_commas_and_rejects_junk() {
        assert_eq!(
            MatrixAxes::parse_list("--threads", "1,2,8").unwrap(),
            vec![1, 2, 8]
        );
        assert_eq!(MatrixAxes::parse_list("--fleets", " 4 ").unwrap(), vec![4]);
        assert!(MatrixAxes::parse_list("--fleets", "").is_err());
        assert!(MatrixAxes::parse_list("--fleets", "2,0").is_err());
        assert!(MatrixAxes::parse_list("--devices", "two").is_err());
    }

    #[test]
    fn parse_names_validates_against_the_catalog() {
        let rooms = MatrixAxes::known_rooms();
        assert_eq!(
            MatrixAxes::parse_names("--rooms", "synthetic, office-floor", &rooms).unwrap(),
            vec!["synthetic".to_string(), "office-floor".to_string()]
        );
        assert!(MatrixAxes::parse_names("--rooms", "atrium", &rooms).is_err());
        assert_eq!(
            MatrixAxes::parse_names("--policy", "maxmin,favor", &POLICIES).unwrap(),
            vec!["maxmin".to_string(), "favor".to_string()]
        );
        assert!(MatrixAxes::parse_names("--policy", "fairness", &POLICIES).is_err());
    }

    #[test]
    fn tiny_matrix_measures_every_cell_in_all_three_formats() {
        let axes = MatrixAxes {
            fleets: vec![1, 2],
            devices: vec![2],
            threads: vec![1, 2],
            ..MatrixAxes::default_axes()
        };
        assert_eq!(axes.cells(), 4);
        let report = MatrixReport::run(axes, true);
        assert_eq!(report.cells.len(), 4);
        assert!(report.passes());
        let md = render(&report, Format::Markdown);
        assert_eq!(md.lines().count(), 2 + 4);
        let csv = render(&report, Format::Csv);
        assert_eq!(csv.lines().count(), 1 + 4);
        assert!(csv.starts_with("room,policy,fleets,devices,threads,mean_ms"));
        let json = render(&report, Format::Json);
        assert!(json.contains("\"axes\""));
        assert!(json.contains("\"threads\": [1, 2]"));
        assert!(json.contains("\"allocs_per_tick\""));
        assert!(json.contains("\"pass\": true"));
    }

    #[test]
    fn policy_and_room_axes_multiply_the_cross_product() {
        // One zoo room under two policies: 2 rooms-cells × 2 policies,
        // single-point remaining axes. Zoo cells report the room's own
        // device count and a finite served min power (the folded
        // --panels headline).
        let axes = MatrixAxes {
            rooms: vec![SYNTHETIC_ROOM.to_string(), "conference-room".to_string()],
            policies: vec!["maxmin".to_string(), "favor".to_string()],
            fleets: vec![2],
            devices: vec![2],
            threads: vec![1],
        };
        assert_eq!(axes.cells(), 4);
        let report = MatrixReport::run(axes, true);
        assert_eq!(report.cells.len(), 4);
        assert!(report.passes());
        let zoo: Vec<&MatrixCell> = report
            .cells
            .iter()
            .filter(|c| c.room == "conference-room")
            .collect();
        assert_eq!(zoo.len(), 2);
        for cell in zoo {
            assert_eq!(cell.devices, 8, "the room brings its own population");
            assert!(cell.min_power_dbm.is_finite());
        }
        assert!(render(&report, Format::Csv).contains("conference-room,favor"));
        assert!(render(&report, Format::Json).contains("\"policies\": [\"maxmin\", \"favor\"]"));
    }
}
