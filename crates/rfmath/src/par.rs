//! Minimal scoped-thread fan-out shared by the batched engines.
//!
//! The surface-response grid, the bias-batch evaluator and the fleet
//! probe matrix all need the same shape of parallelism: fill a slice by
//! index with a pure function, chunked across a handful of scoped
//! threads, no external dependencies. One helper keeps the chunk
//! arithmetic (and its edge cases) in a single place.
//!
//! The calling thread is worker 0: it fills the first chunk itself
//! while `threads − 1` scoped workers fill the rest, so a budget-2
//! fan-out spawns one thread and a budget of 1 spawns none. Every call
//! still spawns fresh threads; a persistent pool would have to lend
//! the caller's slices to long-lived threads, which the workspace's
//! `unsafe_code = "deny"` lint rules out.
//!
//! It also owns the process's one thread budget. Every kernel that fans
//! out asks [`budget`] how many workers it may use; a caller that runs
//! kernels from its own worker threads (the fleet server) scopes a
//! smaller budget over each job with [`with_budget`], so nested fan-out
//! never oversubscribes the host. The budget is per thread: a thread
//! that never scopes one gets the machine's available parallelism.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// This thread's scoped budget; 0 means unscoped (the machine's).
    static BUDGET: Cell<usize> = const { Cell::new(0) };
}

/// The calling thread's thread budget: the value of the innermost
/// enclosing [`with_budget`], or the machine's available parallelism
/// (1 when undetectable) outside any. Always ≥ 1.
pub fn budget() -> usize {
    match BUDGET.get() {
        0 => machine_threads(),
        n => n,
    }
}

/// Runs `f` with the calling thread's [`budget`] set to `threads`
/// (clamped to ≥ 1). The previous budget comes back when `f` returns or
/// unwinds, so scopes nest and a panicking job cannot leak its budget.
pub fn with_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.set(self.0);
        }
    }
    let _restore = Restore(BUDGET.replace(threads.max(1)));
    f()
}

/// The machine's available parallelism, queried once per process: the
/// query reads cgroup limits and cost 16–19 µs a call on a 2-vCPU Linux
/// VM, too slow to repeat on every kernel call.
fn machine_threads() -> usize {
    static MACHINE: OnceLock<usize> = OnceLock::new();
    *MACHINE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Threads the [`parallel_capacity`] probe runs at most: at least as
/// many as the widest worker pool a scaling gate times.
pub const CAPACITY_PROBE_THREADS: usize = 8;

/// The host's measured parallel capacity, probed once per process: `n`
/// fixed spin units run serially against `n` threads running one each,
/// `n` the machine's available parallelism capped at
/// [`CAPACITY_PROBE_THREADS`]. The ratio is best serial over best
/// parallel time across three trials, clamped to `n`. It reads about
/// `n` on `n` free cores, and about 1 when the host gives one core's
/// worth of parallel throughput whatever core count it reports. Scaling
/// gates divide by this, not by [`budget`]. The probe costs a few tens
/// of milliseconds per probed thread.
pub fn parallel_capacity() -> f64 {
    static CAPACITY: OnceLock<f64> = OnceLock::new();
    *CAPACITY.get_or_init(|| {
        let n = machine_threads().min(CAPACITY_PROBE_THREADS);
        let (mut serial, mut parallel) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            let started = std::time::Instant::now();
            for _ in 0..n {
                std::hint::black_box(spin_unit());
            }
            serial = serial.min(started.elapsed().as_secs_f64());
            let started = std::time::Instant::now();
            std::thread::scope(|s| {
                let spins: Vec<_> = (0..n).map(|_| s.spawn(spin_unit)).collect();
                for spin in spins {
                    std::hint::black_box(spin.join().expect("spin thread"));
                }
            });
            parallel = parallel.min(started.elapsed().as_secs_f64());
        }
        (serial / parallel.max(1e-12)).min(n as f64)
    })
}

/// A fixed amount of integer work the optimizer cannot remove.
fn spin_unit() -> u64 {
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..4_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x)
}

/// Fills `out[i] = f(i)` for every index, split into at most
/// `min(threads, out.len())` contiguous chunks as
/// [`par_fill_chunked`] splits it: the calling thread fills the first
/// chunk and one scoped worker fills each other, so `threads <= 1` runs
/// serially on the caller without spawning. Callers decide their own
/// "worth spawning for" threshold by passing `1`. `f` must be pure: the
/// call order across chunks is unspecified.
pub fn par_fill<T, F>(out: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_fill_chunked(out, threads, |offset, chunk| {
        for (j, slot) in chunk.iter_mut().enumerate() {
            *slot = f(offset + j);
        }
    });
}

/// Fills `out` in at most `min(threads, out.len())` contiguous chunks of
/// `ceil(len / min(threads, len))` elements (the last may be shorter):
/// `f(offset, chunk)` must fill `chunk`, whose first element is
/// `out[offset]`. The calling thread runs chunk 0 itself and spawns one
/// scoped worker per remaining chunk, so a `threads`-way fill spawns at
/// most `threads − 1` threads and `threads <= 1` is `f(0, out)` with no
/// spawn. Unlike [`par_fill`] the kernel sees
/// whole ranges, so it can keep per-worker scratch (structure-of-arrays
/// slabs, reusable buffers) alive across every element it owns instead
/// of paying per-index call overhead. `f` must be pure per chunk: chunk
/// order is unspecified. A panicking chunk, the caller's or a worker's,
/// propagates once every other chunk has finished.
pub fn par_fill_chunked<T, F>(out: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = out.len();
    if n == 0 {
        return;
    }
    let per = n.div_ceil(threads.clamp(1, n));
    let (first, rest) = out.split_at_mut(per);
    if rest.is_empty() {
        return f(0, first);
    }
    std::thread::scope(|scope| {
        for (k, chunk) in rest.chunks_mut(per).enumerate() {
            let f = &f;
            scope.spawn(move || f((k + 1) * per, chunk));
        }
        f(0, first);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_serial_for_uneven_chunks() {
        // 3 workers over 20 items: chunks of 7, 7, 6 — exercises the
        // remainder chunk.
        let mut serial = vec![0usize; 20];
        let mut parallel = vec![0usize; 20];
        par_fill(&mut serial, 1, |i| i * i + 1);
        par_fill(&mut parallel, 3, |i| i * i + 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn worker_count_clamps_to_len() {
        let mut out = vec![0u8; 2];
        par_fill(&mut out, 64, |i| i as u8);
        assert_eq!(out, vec![0, 1]);
        let mut empty: Vec<u8> = Vec::new();
        par_fill(&mut empty, 8, |_| unreachable!("no items"));
        assert!(empty.is_empty());
    }

    #[test]
    fn chunked_matches_serial_for_uneven_chunks() {
        let mut serial = vec![0usize; 20];
        let mut parallel = vec![0usize; 20];
        let fill = |offset: usize, chunk: &mut [usize]| {
            for (j, slot) in chunk.iter_mut().enumerate() {
                *slot = (offset + j) * 3 + 1;
            }
        };
        par_fill_chunked(&mut serial, 1, fill);
        par_fill_chunked(&mut parallel, 3, fill);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn chunked_handles_empty_and_oversubscribed() {
        let mut out = vec![0u8; 2];
        par_fill_chunked(&mut out, 64, |offset, chunk| {
            for (j, slot) in chunk.iter_mut().enumerate() {
                *slot = (offset + j) as u8;
            }
        });
        assert_eq!(out, vec![0, 1]);
        let mut empty: Vec<u8> = Vec::new();
        par_fill_chunked(&mut empty, 8, |_, _| unreachable!("no items"));
        assert!(empty.is_empty());
    }

    /// The thread that filled each of `len` slots in a `threads`-way
    /// [`par_fill`].
    fn filling_threads(len: usize, threads: usize) -> Vec<std::thread::ThreadId> {
        let mut out = vec![std::thread::current().id(); len];
        par_fill(&mut out, threads, |_| std::thread::current().id());
        out
    }

    #[test]
    fn chunk_zero_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        // 3 workers over 20 items: chunks of 7, 7, 6.
        let ids = filling_threads(20, 3);
        assert!(ids[..7].iter().all(|&id| id == caller));
        assert!(ids[7..].iter().all(|&id| id != caller));
        let mut offsets = vec![None; 3];
        par_fill_chunked(&mut offsets, 3, |offset, chunk| {
            chunk[0] = Some((offset, std::thread::current().id()));
        });
        assert_eq!(offsets[0], Some((0, caller)));
        assert!(offsets[1..].iter().all(|o| o.unwrap().1 != caller));
    }

    #[test]
    fn a_threads_way_fill_spawns_threads_minus_one() {
        let caller = std::thread::current().id();
        for threads in 1..=4 {
            let distinct: std::collections::HashSet<_> =
                filling_threads(40, threads).into_iter().collect();
            assert_eq!(distinct.len(), threads);
            let spawned = distinct.iter().filter(|&&id| id != caller).count();
            assert_eq!(spawned, threads - 1);
        }
    }

    #[test]
    fn a_panicking_chunk_propagates_after_its_siblings_finish() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Chunk 0 is the caller's own, chunk 2 a spawned worker's; the
        // other two chunks sleep, so an early propagation would catch
        // them unfinished.
        for panicking in [0, 2] {
            let finished = AtomicUsize::new(0);
            let caught = std::panic::catch_unwind(|| {
                par_fill_chunked(&mut [0u8; 3], 3, |offset, _| {
                    assert_ne!(offset, panicking, "chunk {offset} failed");
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            });
            assert!(caught.is_err());
            assert_eq!(finished.load(Ordering::SeqCst), 2, "chunk {panicking}");
        }
    }

    #[test]
    fn unscoped_budget_is_the_machine() {
        let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(budget(), machine);
        // A fresh thread starts unscoped, whatever its spawner's scope.
        let inner = with_budget(5, || {
            std::thread::scope(|s| s.spawn(budget).join().unwrap())
        });
        assert_eq!(inner, machine);
    }

    #[test]
    fn parallel_capacity_is_measured_once() {
        let capacity = parallel_capacity();
        assert!(capacity.is_finite() && capacity > 0.0, "{capacity}");
        // Never more than the probed threads could show.
        assert!(capacity <= machine_threads().min(CAPACITY_PROBE_THREADS) as f64);
        assert_eq!(parallel_capacity().to_bits(), capacity.to_bits());
    }

    #[test]
    fn with_budget_nests_and_clamps() {
        let outer = budget();
        with_budget(4, || {
            assert_eq!(budget(), 4);
            with_budget(1, || assert_eq!(budget(), 1));
            assert_eq!(with_budget(0, budget), 1);
            assert_eq!(budget(), 4);
        });
        assert_eq!(budget(), outer);
    }

    #[test]
    fn with_budget_restores_after_a_panic() {
        let outer = budget();
        with_budget(3, || {
            let caught = std::panic::catch_unwind(|| with_budget(7, || panic!("job failed")));
            assert!(caught.is_err());
            assert_eq!(budget(), 3);
        });
        assert_eq!(budget(), outer);
        let caught = std::panic::catch_unwind(|| with_budget(2, || panic!("job failed")));
        assert!(caught.is_err());
        assert_eq!(budget(), outer);
    }
}
