//! Parallel execution engines for the maximal chordal subgraph workspace.
//!
//! The ICPP 2012 paper evaluates its algorithm on two very different
//! shared-memory machines, a Cray XMT and a 48-core AMD Magny-Cours.
//! Neither is available here; this crate stands in for both with one
//! parallel engine plus a serial reference:
//!
//! * [`Engine::Pool`] — dynamic self-scheduling on the workspace's single
//!   **persistent worker pool** (see the in-tree `rayon` substitute):
//!   participants repeatedly claim runs of `grain`-sized chunks from an
//!   atomic cursor, so load imbalance from skewed vertex degrees is
//!   absorbed dynamically. A parallel region is a ticket push onto
//!   already-running workers, never a thread spawn, so region-heavy
//!   workloads (batch serving, generators, iterative extraction) pay
//!   queue-transfer costs instead of thread-creation costs.
//! * [`Engine::Serial`] — single-threaded reference used for speedup
//!   baselines and determinism tests.
//!
//! Both present the same `parallel_for` interface, so the algorithm in
//! `chordal-core` is written once. The pool is sized by
//! `CHORDAL_POOL_THREADS` (default: all logical CPUs); an engine's thread
//! count bounds how many of those workers one of its regions may occupy.

#![deny(missing_docs)]

pub mod flags;

pub use flags::AtomicFlags;

use std::ops::Range;

/// Default chunk (grain) size of the pool engine.
pub const DEFAULT_GRAIN: usize = 256;

/// A parallel execution engine. Plain data: cheap to copy, and every pool
/// engine submits to the same shared worker pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Single-threaded execution, in index order.
    #[default]
    Serial,
    /// Dynamic self-scheduling on the shared persistent worker pool.
    Pool {
        /// Most participants (caller plus pool workers) one region uses.
        threads: usize,
        /// Indices per call of the region body; claims are whole multiples.
        grain: usize,
    },
}

impl Engine {
    /// The serial reference engine.
    pub fn serial() -> Self {
        Engine::Serial
    }

    /// A pool engine with up to `threads` participants per region and the
    /// default grain. `threads` is clamped to at least 1.
    pub fn pool(threads: usize) -> Self {
        Engine::Pool {
            threads: threads.max(1),
            grain: DEFAULT_GRAIN,
        }
    }

    /// Returns this engine scheduling `grain` indices per call of the
    /// region body. Callers with coarse work items — e.g. whole graphs in a
    /// batch extraction — use grain 1 so every item can be claimed
    /// independently.
    pub fn with_grain(&self, grain: usize) -> Self {
        match *self {
            Engine::Serial => Engine::Serial,
            Engine::Pool { threads, .. } => Engine::Pool {
                threads,
                grain: grain.max(1),
            },
        }
    }

    /// Number of worker threads this engine uses (1 for serial).
    pub fn threads(&self) -> usize {
        match *self {
            Engine::Serial => 1,
            Engine::Pool { threads, .. } => threads,
        }
    }

    /// Constructs an engine from its short name (`"serial"`, `"pool"`) and
    /// a worker-thread count, or `None` for an unknown name. This is the
    /// single place front ends resolve engine names, so the CLI, the server
    /// and the experiments accept the same spellings.
    pub fn by_name(name: &str, threads: usize) -> Option<Self> {
        match name {
            "serial" => Some(Engine::serial()),
            "pool" => Some(Engine::pool(threads)),
            _ => None,
        }
    }

    /// Short human-readable name used in benchmark output (`"serial"`,
    /// `"pool"`).
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Serial => "serial",
            Engine::Pool { .. } => "pool",
        }
    }

    /// Runs `f` for every index in `0..n`. Iteration order is unspecified for
    /// the pool engine; `f` must be safe to call concurrently.
    pub fn parallel_for<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.parallel_for_chunks(n, |range| {
            for i in range {
                f(i);
            }
        });
    }

    /// Runs `f` on disjoint chunks covering `0..n`. This is the primitive the
    /// other helpers are built on.
    ///
    /// The pool engine calls `f` on the grain-aligned ranges
    /// `k·grain..min((k+1)·grain, n)`. One claim from the region's cursor
    /// takes `grain · ceil(chunks / (4 · min(threads, chunks)))` indices
    /// (`chunks = ceil(n / grain)`), so each participant gets about four
    /// claims and skewed chunks still load-balance. A single-thread engine
    /// makes the same calls inline, in index order.
    pub fn parallel_for_chunks<F>(&self, n: usize, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if n == 0 {
            return;
        }
        let Engine::Pool { threads, grain } = *self else {
            f(0..n);
            return;
        };
        // The fields are public, so clamp here as the constructors do.
        let (threads, grain) = (threads.max(1), grain.max(1));
        let by_grain = |range: Range<usize>| {
            let mut start = range.start;
            while start < range.end {
                let end = (start + grain).min(range.end);
                f(start..end);
                start = end;
            }
        };
        if threads == 1 || n <= grain {
            by_grain(0..n);
            return;
        }
        let chunks = n.div_ceil(grain);
        let participants = threads.min(chunks);
        let claim = grain * chunks.div_ceil(4 * participants);
        rayon::run_pooled_region(n, claim, participants, by_grain);
    }

    /// Runs `f` for every index, collecting the items each call appends to a
    /// thread-local buffer into one output vector, in chunk order.
    ///
    /// Collection is slot-based ([`rayon::slots::ChunkSlots`]): every chunk
    /// of the iteration space owns one pre-sized result slot that it writes
    /// without synchronization, so the former per-chunk mutex append is
    /// gone from the region hot path — and, as a byproduct, the output
    /// order is deterministic (index order, matching the serial engine)
    /// instead of completion order.
    pub fn parallel_collect<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut Vec<T>) + Sync,
    {
        let grain = match *self {
            Engine::Pool { threads, grain } if threads > 1 && n > grain => grain.max(1),
            _ => {
                let mut out = Vec::new();
                for i in 0..n {
                    f(i, &mut out);
                }
                return out;
            }
        };
        let slots: rayon::slots::ChunkSlots<Vec<T>> =
            rayon::slots::ChunkSlots::new(n.div_ceil(grain));
        self.parallel_for_chunks(n, |range| {
            let mut local = Vec::new();
            for i in range.clone() {
                f(i, &mut local);
            }
            slots.write(range.start / grain, local);
        });
        let buffers = slots.into_vec();
        let mut out = Vec::with_capacity(buffers.iter().map(Vec::len).sum());
        for buffer in buffers {
            out.extend(buffer);
        }
        out
    }
}

/// Returns the number of logical CPUs available to this process (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Monotonic scheduling counters of the shared persistent pool (regions
/// submitted, tickets published, steals). Re-exported from the pool layer
/// so schedulers and benchmarks above the runtime can observe dispatch
/// behaviour without depending on the rayon substitute directly.
pub use rayon::PoolStats;

/// Current scheduling counters of the shared persistent pool; all zero
/// before the first parallel region. Take a delta around a workload to
/// attribute regions/tickets/steals to it.
pub fn pool_stats() -> PoolStats {
    rayon::pool_stats()
}

/// Calibrated dispatch overhead of one two-participant region of the shared
/// pool in nanoseconds (ticket publication, worker wake-up, cursor
/// handshake, join). Memoised after the first call. Shorthand for
/// [`estimated_region_overhead_ns_for`]`(2)`.
pub fn estimated_region_overhead_ns() -> u64 {
    rayon::estimated_region_overhead_ns()
}

/// Calibrated per-region dispatch overhead for a region with `threads`
/// participants, in nanoseconds, memoised per participant count. The
/// adaptive batch scheduler keys its cost model on the session's engine
/// thread count through this function, so an 8-thread session never reuses
/// the sample a 2-thread session happened to calibrate first.
pub fn estimated_region_overhead_ns_for(threads: usize) -> u64 {
    rayon::estimated_region_overhead_ns_for(threads)
}

/// Number of shared-pool workers currently parked with nothing to do — a
/// constant-time, racy capacity hint (zero before the first parallel region
/// spawns the pool). The batch rebalancer promotes fan-out tail work to
/// intra-graph parallelism when the tail could not occupy these workers
/// anyway.
pub fn pool_idle_workers() -> usize {
    rayon::pool_idle_workers()
}

/// Monotonic count of parallel regions submitted by the calling thread —
/// the cross-talk-free way to attribute region counts to one extraction
/// (a delta of [`pool_stats`]`().regions` would absorb regions other
/// threads submitted concurrently).
pub fn pool_regions_submitted_locally() -> u64 {
    rayon::pool_regions_submitted_locally()
}

/// Number of worker threads the shared persistent pool has (or will have
/// once the first region spawns it). An engine may be configured with more
/// threads than this; a region's real parallelism is capped at the pool's
/// workers plus the submitting thread.
pub fn pool_size() -> usize {
    rayon::pool_size()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn engines() -> Vec<Engine> {
        vec![
            Engine::serial(),
            Engine::pool(4),
            Engine::pool(4).with_grain(16),
            Engine::pool(3).with_grain(7),
            Engine::pool(2).with_grain(5),
            Engine::pool(1).with_grain(4),
            Engine::pool(3).with_grain(1),
            Engine::pool(8).with_grain(1000),
        ]
    }

    #[test]
    fn parallel_for_visits_every_index_exactly_once() {
        for engine in engines() {
            let n = 10_000;
            let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            engine.parallel_for(n, |i| {
                counters[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counters.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "engine {:?} missed or repeated an index",
                engine
            );
        }
    }

    #[test]
    fn parallel_for_chunks_covers_range_disjointly() {
        for engine in engines() {
            for n in [1, 10, 4_321] {
                let calls = Mutex::new(Vec::new());
                engine.parallel_for_chunks(n, |r| calls.lock().unwrap().push(r));
                let mut calls = calls.into_inner().unwrap();
                calls.sort_by_key(|r| r.start);
                let expected: Vec<Range<usize>> = match engine {
                    Engine::Serial => std::iter::once(0..n).collect(),
                    Engine::Pool { grain, .. } => (0..n.div_ceil(grain))
                        .map(|k| k * grain..((k + 1) * grain).min(n))
                        .collect(),
                };
                assert_eq!(calls, expected, "engine {engine:?}, n {n}");
            }
        }
    }

    #[test]
    fn parallel_for_empty_range_is_noop() {
        for engine in engines() {
            let called = AtomicUsize::new(0);
            engine.parallel_for(0, |_| {
                called.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(called.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn parallel_collect_gathers_all_items() {
        for engine in engines() {
            let n = 1000;
            let mut out = engine.parallel_collect(n, |i, buf| {
                if i % 3 == 0 {
                    buf.push(i);
                }
            });
            out.sort_unstable();
            let expected: Vec<usize> = (0..n).filter(|i| i % 3 == 0).collect();
            assert_eq!(out, expected, "engine {:?}", engine);
        }
    }

    #[test]
    fn parallel_collect_returns_items_in_index_order() {
        // Slot-based collection makes the output deterministic: chunk order
        // equals index order, matching the serial engine exactly — no sort
        // needed.
        for engine in engines() {
            let n = 2_377;
            let out = engine.parallel_collect(n, |i, buf| {
                if i % 5 != 2 {
                    buf.push(i * 3);
                }
            });
            let expected: Vec<usize> = (0..n).filter(|i| i % 5 != 2).map(|i| i * 3).collect();
            assert_eq!(out, expected, "engine {:?}", engine);
        }
    }

    #[test]
    fn pool_stats_and_overhead_are_observable() {
        let before = pool_stats();
        Engine::pool(4).parallel_for(50_000, |_| {});
        let after = pool_stats();
        assert!(after.regions >= before.regions, "regions must not shrink");
        assert!(
            after.tickets_dropped >= before.tickets_dropped,
            "tickets_dropped must not shrink"
        );
        assert!(estimated_region_overhead_ns() >= 1);
        assert!(estimated_region_overhead_ns_for(4) >= 1);
        assert!(pool_idle_workers() <= rayon::pool_size());
    }

    #[test]
    fn engine_metadata() {
        assert_eq!(Engine::serial().threads(), 1);
        assert_eq!(Engine::serial().name(), "serial");
        assert_eq!(Engine::pool(8).threads(), 8);
        assert_eq!(Engine::pool(8).name(), "pool");
        assert_eq!(
            Engine::pool(0).with_grain(0),
            Engine::Pool {
                threads: 1,
                grain: 1
            }
        );
        assert_eq!(Engine::serial().with_grain(1), Engine::Serial);
        // Hand-built engines with zero fields run like the clamped ones.
        let zero_grain = Engine::Pool {
            threads: 2,
            grain: 0,
        };
        assert_eq!(
            zero_grain.parallel_collect(5, |i, out| out.push(i)),
            [0, 1, 2, 3, 4]
        );
        let zero_threads = Engine::Pool {
            threads: 0,
            grain: 0,
        };
        let count = AtomicUsize::new(0);
        zero_threads.parallel_for(5, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.into_inner(), 5);
        assert_eq!(Engine::by_name("pool", 3), Some(Engine::pool(3)));
        assert_eq!(Engine::by_name("serial", 3), Some(Engine::Serial));
        assert!(available_threads() >= 1);
    }

    #[test]
    fn default_engine_is_serial() {
        assert!(matches!(Engine::default(), Engine::Serial));
    }

    #[test]
    fn pool_engine_reuses_the_persistent_pool_after_warmup() {
        let engine = Engine::pool(4);
        // Warm-up: the first parallel region spawns the pool workers.
        engine.parallel_for(10_000, |_| {});
        let spawned = rayon::pool_spawned_threads();
        assert_eq!(
            spawned,
            rayon::pool_size(),
            "warm-up must spawn exactly the configured pool"
        );
        for _ in 0..64 {
            let sum = AtomicUsize::new(0);
            engine.parallel_for(10_000, |i| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 49_995_000);
        }
        assert_eq!(
            rayon::pool_spawned_threads(),
            spawned,
            "parallel regions after warm-up must not spawn threads"
        );
    }
}
