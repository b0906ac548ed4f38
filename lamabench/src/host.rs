//! The host stamp every result carries: what the machine reports, what
//! it measurably gives, and which build and seed produced the numbers.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use crate::common::HostLoad;
use crate::report::{json_number, json_string};

/// Facts about the host and the run.
#[derive(Clone, Debug)]
pub struct HostStamp {
    pub logical_cores: usize,
    /// Serial time of two spin units over the time two threads take for
    /// one unit each: about 2 on two free cores, about 1 when the host
    /// gives one core's worth of parallel throughput.
    pub parallel_capacity: f64,
    pub profile: &'static str,
    pub seed: u64,
    pub git_revision: String,
}

impl HostStamp {
    pub fn measure(seed: u64) -> Self {
        Self {
            logical_cores: logical_cores(),
            parallel_capacity: parallel_capacity(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            seed,
            git_revision: git_revision(),
        }
    }

    /// The stamp as a JSON object, with the timed loop's host load when
    /// the run had one.
    pub fn json(&self, load: Option<HostLoad>) -> String {
        let load = load.map_or(String::new(), |l| {
            format!(
                ", \"quiet_probe_ms\": {}, \"probe_ms\": {}, \"stolen_share\": {}",
                json_number(l.quiet_probe_ms),
                json_number(l.probe_ms),
                json_number(l.stolen_share)
            )
        });
        format!(
            "{{\"logical_cores\": {}, \"parallel_capacity\": {}, \"profile\": {}, \
             \"seed\": {}, \"git_revision\": {}{load}}}",
            self.logical_cores,
            json_number(self.parallel_capacity),
            json_string(self.profile),
            self.seed,
            json_string(&self.git_revision)
        )
    }
}

/// Logical cores the OS reports.
pub fn logical_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A fixed amount of integer work that the optimizer cannot remove.
fn spin_unit() -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..4_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

/// Best of three trials of (serial two units) / (two threads, one unit
/// each).
fn parallel_capacity() -> f64 {
    let mut best = 0.0f64;
    for _ in 0..3 {
        let started = Instant::now();
        black_box(spin_unit());
        black_box(spin_unit());
        let serial = started.elapsed().as_secs_f64();
        let started = Instant::now();
        std::thread::scope(|s| {
            let a = s.spawn(spin_unit);
            let b = s.spawn(spin_unit);
            black_box(a.join().expect("spin thread"));
            black_box(b.join().expect("spin thread"));
        });
        let parallel = started.elapsed().as_secs_f64();
        best = best.max(serial / parallel);
    }
    best
}

/// Entries in the probe's chase buffer: 1 MB of `u32`, half a core's
/// L2.
const PROBE_ENTRIES: usize = 1 << 18;

/// Dependent loads per chase: a path of at most 320 KB of cache lines.
const PROBE_STEPS: usize = 5_000;

/// How fast the host lets both of our CPUs run right now, measured with
/// a fixed workload that no program code takes part in. Two threads
/// each walk the same path of a random cycle twice: the first walk
/// pulls the path into the core's L2, the second is timed. On a core
/// that is ours alone, the timed walk hits L2 throughout. A neighbour
/// on the same physical core, or the hypervisor moving or pausing our
/// vCPU, evicts the path or stalls the walk, and the timed walk runs
/// several times slower. What the program left in the cache before the
/// probe does not matter: the first walk replaces it.
pub struct HostProbe {
    next: Vec<u32>,
}

impl HostProbe {
    /// Builds the cycle (Sattolo's shuffle under a fixed xorshift seed,
    /// so every run chases the same cycle).
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        let mut next: Vec<u32> = (0..PROBE_ENTRIES as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..PROBE_ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Self { next }
    }

    /// Memory the chase buffer holds, MB.
    pub fn resident_mb(&self) -> f64 {
        (self.next.len() * std::mem::size_of::<u32>()) as f64 / 1e6
    }

    /// The second of two walks from `start`, ms.
    fn timed_walk(&self, start: u32) -> f64 {
        let walk = |mut i: u32| {
            for _ in 0..PROBE_STEPS {
                i = self.next[i as usize];
            }
            black_box(i)
        };
        walk(start);
        let started = Instant::now();
        walk(start);
        started.elapsed().as_secs_f64() * 1e3
    }

    /// Both threads' timed walks, summed, ms.
    pub fn time_ms(&self) -> f64 {
        std::thread::scope(|s| {
            let a = s.spawn(|| self.timed_walk(0));
            let b = s.spawn(|| self.timed_walk(PROBE_ENTRIES as u32 / 2));
            a.join().expect("probe thread") + b.join().expect("probe thread")
        })
    }
}

/// The host's steal-time counter: clock ticks, summed over every CPU,
/// in which the hypervisor ran something else while a CPU of ours had
/// work (`/proc/stat`). 0 where `/proc` is unavailable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The revision `.git` in the working directory names, or `"unknown"`.
/// Reads the files directly rather than asking `git`, which would walk
/// up into whatever repository encloses a plain checkout.
fn git_revision() -> String {
    revision_in(Path::new(".git")).unwrap_or_else(|| "unknown".to_string())
}

fn revision_in(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let full = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(name) => match std::fs::read_to_string(git.join(name)) {
            Ok(loose) => loose.trim().to_string(),
            Err(_) => std::fs::read_to_string(git.join("packed-refs"))
                .ok()?
                .lines()
                .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))?,
        },
    };
    let short = full.get(..12)?;
    short
        .bytes()
        .all(|b| b.is_ascii_hexdigit())
        .then(|| short.to_string())
}

/// Peak resident memory of this process in MB (`VmHWM`), NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}
