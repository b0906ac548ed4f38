//! Offline drop-in shim for the subset of the `criterion` crate API
//! this workspace's benches use.
//!
//! The build environment cannot reach a cargo registry, so the
//! `harness = false` benches compile against this minimal local
//! implementation: [`Criterion`], [`BenchmarkGroup`] with
//! `warm_up_time`/`measurement_time`/`sample_size`/`bench_function`,
//! [`Bencher::iter`], [`black_box`], and the
//! [`criterion_group!`]/[`criterion_main!`] macros.
//!
//! Timing is a simple mean-of-samples wall-clock measurement — good
//! enough to compare runs on one machine, with none of the real crate's
//! statistics. The group's warm-up and measurement windows are honored
//! as *budgets* (each sample stops early once the window is spent) so
//! `cargo bench` terminates promptly even for slow figure sweeps.
//!
//! ```
//! use criterion::{Criterion, black_box};
//!
//! let mut c = Criterion::default();
//! let mut g = c.benchmark_group("example");
//! g.sample_size(10);
//! g.bench_function("square", |b| b.iter(|| black_box(21u64) * 2));
//! g.finish();
//! ```

use std::hint;
use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting the
/// benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Per-iteration measurement driver handed to bench closures.
pub struct Bencher {
    samples: u64,
    warm_up: Duration,
    budget: Duration,
    last_mean: Option<Duration>,
}

impl Bencher {
    /// Times `routine` over this group's sample budget and records the
    /// mean iteration time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Untimed warm-up: at least one call, then keep going until the
        // group's warm-up window is spent (caches hot, lazy setup done).
        let warm_started = Instant::now();
        loop {
            black_box(routine());
            if warm_started.elapsed() >= self.warm_up {
                break;
            }
        }
        let started = Instant::now();
        let mut done: u64 = 0;
        while done < self.samples {
            black_box(routine());
            done += 1;
            if started.elapsed() > self.budget {
                break;
            }
        }
        self.last_mean = Some(started.elapsed() / done.max(1) as u32);
    }
}

/// A named collection of benchmarks sharing timing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    config: &'a mut Config,
}

#[derive(Clone, Debug)]
struct Config {
    warm_up_time: Duration,
    measurement_time: Duration,
    sample_size: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            warm_up_time: Duration::from_millis(500),
            measurement_time: Duration::from_secs(3),
            sample_size: 100,
        }
    }
}

impl BenchmarkGroup<'_> {
    /// Sets the warm-up window (accepted for API compatibility).
    pub fn warm_up_time(&mut self, time: Duration) -> &mut Self {
        self.config.warm_up_time = time;
        self
    }

    /// Sets the measurement budget for each benchmark in the group.
    pub fn measurement_time(&mut self, time: Duration) -> &mut Self {
        self.config.measurement_time = time;
        self
    }

    /// Sets the target number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.config.sample_size = n as u64;
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function<I: Into<String>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let mut bencher = Bencher {
            samples: self.config.sample_size,
            warm_up: self.config.warm_up_time,
            budget: self.config.measurement_time,
            last_mean: None,
        };
        f(&mut bencher);
        match bencher.last_mean {
            Some(mean) => println!(
                "{}/{id}: mean {:.3} ms/iter",
                self.name,
                mean.as_secs_f64() * 1e3
            ),
            None => println!("{}/{id}: no measurement recorded", self.name),
        }
        self
    }

    /// Ends the group (accepted for API compatibility).
    pub fn finish(&mut self) {}
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {
    config: Config,
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        // Each group starts from the default configuration, like the
        // real crate (group settings don't leak between groups).
        self.config = Config::default();
        BenchmarkGroup {
            name: name.to_string(),
            config: &mut self.config,
        }
    }

    /// Runs one stand-alone named benchmark with default settings.
    pub fn bench_function<I: Into<String>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        f: F,
    ) -> &mut Self {
        self.config = Config::default();
        let mut group = BenchmarkGroup {
            name: id.into(),
            config: &mut self.config,
        };
        group.bench_function("bench", f);
        self
    }
}

/// Declares a group-runner function over one or more bench functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `fn main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut g = c.benchmark_group("shim");
        g.warm_up_time(Duration::from_millis(1));
        g.measurement_time(Duration::from_millis(5));
        g.sample_size(10);
        g.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        g.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn group_runs_to_completion() {
        benches();
    }

    #[test]
    fn black_box_is_identity() {
        assert_eq!(black_box(42), 42);
    }
}
