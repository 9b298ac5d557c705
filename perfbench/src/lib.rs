//! End-to-end benchmark of the maximal chordal subgraph stack.
//!
//! One binary runs one workload per invocation:
//!
//! * `solve-skewed` — RMAT-B binary files → mmap + checksum → Alg. 1 on the
//!   pool → incremental repair → written edge list;
//! * `solve-uniform-text` — RMAT-ER text edge list → heap parse → Alg. 1
//!   alone → written edge list;
//! * `serve-open` — open-loop `EXTRACT … payload=edges` traffic against an
//!   in-process `chordal serve`;
//! * `batch-mixed` — repeated `ExtractionSession::extract_batch` over ~100
//!   small bio and R-MAT graphs.
//!
//! Every layer is timed from outside, around calls into the public API of
//! the repository's crates. An untraced run gives the end-to-end metrics;
//! a traced run records in-memory spans around each layer call and derives
//! the per-layer metrics from them (see [`trace`]). Every output is checked
//! (chordality, sampled maximality, byte or slot equality where the
//! configuration is deterministic); a failed check counts as a failed
//! operation and never aborts the run.

pub mod batch;
pub mod report;
pub mod serve;
pub mod solve;
pub mod trace;

use std::path::PathBuf;
use std::time::Instant;

pub use report::Report;

/// The benchmark's workloads, by the names `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Binary RMAT-B, mmap + checksum, Alg. 1 async + repair.
    SolveSkewed,
    /// Text RMAT-ER, heap parse, Alg. 1 async alone.
    SolveUniformText,
    /// Open-loop serving of a mixed request stream.
    ServeOpen,
    /// Session batch scheduling over many small graphs.
    BatchMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SolveSkewed,
        Workload::SolveUniformText,
        Workload::ServeOpen,
        Workload::BatchMixed,
    ];

    /// The command-line and `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveSkewed => "solve-skewed",
            Workload::SolveUniformText => "solve-uniform-text",
            Workload::ServeOpen => "serve-open",
            Workload::BatchMixed => "batch-mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: `Full` is what the benchmark measures, `Tiny` keeps the
/// same code paths at a size the benchmark's own tests can run quickly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes documented in `BENCHMARK.json`.
    Full,
    /// Small inputs with the same structure, for tests.
    Tiny,
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input and of the request schedule.
    pub seed: u64,
    /// Length of the measurement window.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size class.
    pub size: Size,
}

/// Runs one workload and returns its report.
pub fn run(options: &Options) -> Report {
    let mut report = match options.workload {
        Workload::SolveSkewed | Workload::SolveUniformText => solve::run(options),
        Workload::ServeOpen => serve::run(options),
        Workload::BatchMixed => batch::run(options),
    };
    report.provenance(options);
    report
}

/// Scratch directory of one run, under the benchmark's own directory,
/// removed when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `perfbench/.work/<workload>-<pid>-<n>`, unique per run even
    /// when one process runs a workload twice at once.
    pub fn create(workload: Workload) -> std::io::Result<WorkDir> {
        static RUNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let run = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = work_root().join(format!("{}-{}-{run}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// A file inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Where runs keep inputs while they run and traces after they end.
pub fn work_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work")
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of an unsorted sample (0 for an empty one).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * pct / 100.0).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest percentile, at most 99, that leaves at least ten samples
/// above it; a sample of 20 or fewer falls back to the median. This is the
/// percentile reported as `latency_ms.p99`, so a run never reports a tail
/// its sample cannot support.
pub fn tail_percentile(samples: usize) -> f64 {
    if samples <= 20 {
        return 50.0;
    }
    let supported = 100.0 * (samples - 10) as f64 / samples as f64;
    supported.floor().min(99.0)
}

/// SplitMix64: a tiny seeded generator for request schedules and
/// verification samples, independent of the generators' own streams.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Peak resident set of this process (`VmHWM`) in MiB, 0 when unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the benchmark was built from, read from `.git` next to the
/// benchmark directory without spawning git; `unknown` outside a checkout
/// with git metadata.
pub fn git_rev() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes a traced run's spans to `perfbench/.work/trace-<workload>-seed<n>.jsonl`.
pub fn write_trace(tracer: &trace::Tracer, options: &Options) {
    let header = format!(
        "{{\"trace\":\"{}\",\"seed\":{},\"git_rev\":\"{}\"}}",
        options.workload.name(),
        options.seed,
        git_rev()
    );
    let path = work_root().join(format!(
        "trace-{}-seed{}.jsonl",
        options.workload.name(),
        options.seed
    ));
    if let Err(e) = tracer.write_jsonl(&path, &header) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
}
