//! `solve-skewed` and `solve-uniform-text`: one graph file on disk to one
//! written edge list, repeated for the whole measurement window, cycling
//! through the workload's input files.
//!
//! A solve is the path `chordal extract --in <file> [--repair] --out <file>`
//! runs: load (mmap or text parse), validate (binary checksum), Alg. 1
//! asynchronous on the shared pool, the incremental repair pass where the
//! workload repairs, then the induced subgraph written as a text edge list.
//! Alg. 1 is asynchronous here, so its output may differ by a few edges
//! between solves: outputs are checked by property (chordality, and sampled
//! maximality after repair), never by bytes.

use crate::report::Report;
use crate::trace::{layer_breakdown, Breakdown, Tracer};
use crate::{median, percentile, secs, tail_percentile, Options, Size, WorkDir, Workload};
use chordal_core::verify::{check_maximality, is_chordal, MaximalityReport};
use chordal_core::{
    AdjacencyMode, Algorithm, ChordalResult, ExtractionSession, ExtractorConfig, RepairStrategy,
    Workspace,
};
use chordal_generators::rmat::{RmatKind, RmatParams};
use chordal_graph::io::write_edge_list_file;
use chordal_graph::storage::{convert_edge_list_to_binary, load_graph, LoadedGraph};
use chordal_graph::subgraph::edge_subgraph;
use chordal_graph::{CsrGraph, Edge, GraphRef};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Solves measured even when the window is shorter than they take.
const MIN_SOLVES: usize = 4;
/// Untimed solves before the window: the first starts the pool threads.
const WARM_SOLVES: usize = 2;
/// Rejected edges the sampled maximality check tests per output.
const MAXIMALITY_SAMPLE: usize = 200;
/// Iterations after which Alg. 1's queue entries count as its tail.
const TAIL_AFTER: usize = 10;

/// What a solve workload runs on.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// R-MAT preset of the input.
    pub kind: RmatKind,
    /// log2 of the vertex count.
    pub scale: u32,
    /// Binary v2 file (mmap + checksum) instead of a text edge list.
    pub binary: bool,
    /// Run the incremental repair pass after Alg. 1.
    pub repair: bool,
    /// Input files, each an R-MAT graph from its own seed.
    pub graphs: usize,
}

/// The input of each solve workload at each size.
///
/// `solve-skewed` cycles through sixteen RMAT-B(15) files rather than one
/// larger graph: the repair pass's cost differs up to twofold between
/// RMAT-B graphs of one scale (at scale 17, 2.4 s on one seed and 5 s on
/// another), so a single graph per run made the run's median depend on
/// which graph the seed drew.
pub fn spec(workload: Workload, size: Size) -> Spec {
    let (kind, binary, repair) = match workload {
        Workload::SolveSkewed => (RmatKind::B, true, true),
        _ => (RmatKind::Er, false, false),
    };
    let (scale, graphs) = match (workload, size) {
        (Workload::SolveSkewed, Size::Full) => (15, 16),
        (Workload::SolveSkewed, Size::Tiny) => (9, 2),
        (_, Size::Full) => (18, 1),
        (_, Size::Tiny) => (9, 1),
    };
    Spec {
        kind,
        scale,
        binary,
        repair,
        graphs,
    }
}

/// What the benchmark keeps of one solve: counters only. The output
/// itself is checked right after the solve and dropped, so the process's
/// peak memory does not grow with the number of solves.
struct Solve {
    /// Index of the input file solved.
    graph: usize,
    /// Operation id (the request id of its spans when traced).
    request: u64,
    wall_s: f64,
    output_edges: usize,
    iterations: usize,
    queue_entries: usize,
    tail_entries: usize,
    alg1_edges: usize,
    repair_examined: usize,
    repair_added: usize,
    pool: (u64, u64, u64),
    bytes_written: u64,
}

/// What every solve reads and writes. Each solve builds its own session
/// and repair workspace, as one `chordal extract` invocation does.
struct Solver {
    spec: Spec,
    inputs: Vec<PathBuf>,
    output: PathBuf,
}

impl Solver {
    /// Solves input file `graph`; returns the solve's counters and the
    /// edges it wrote.
    fn solve(
        &self,
        graph: usize,
        tracer: Option<&Tracer>,
        request: u64,
    ) -> Result<(Solve, Vec<Edge>), String> {
        let input = &self.inputs[graph];
        let start = Instant::now();
        let root = tracer.map(|t| t.open("solve", None, request));
        // Runs one layer call, as a child span of the solve when traced.
        fn layer<T>(
            tracer: Option<&Tracer>,
            root: Option<usize>,
            request: u64,
            name: &'static str,
            f: impl FnOnce() -> T,
        ) -> T {
            match tracer {
                Some(t) => t.time(name, root, request, f),
                None => f(),
            }
        }
        let loaded = layer(tracer, root, request, "storage.load", || {
            load_graph(input, None)
        })
        .map_err(|e| format!("loading {}: {e}", input.display()))?;
        if let LoadedGraph::Mapped(mapped) = &loaded {
            layer(tracer, root, request, "storage.validate", || {
                mapped.verify_checksum()
            })
            .map_err(|e| format!("checksum of {}: {e}", input.display()))?;
        }
        let view = loaded.as_graph_ref();
        // Traced solves also record Alg. 1's per-iteration queue sizes;
        // that recording is part of the tracing overhead.
        let pool_before = chordal_runtime::pool_stats();
        let mut result = layer(tracer, root, request, "alg1.extract", || {
            ExtractionSession::new(ExtractorConfig::default().with_stats(tracer.is_some()))
                .extract(view)
        });
        let pool_after = chordal_runtime::pool_stats();
        let (iterations, stats) = (result.iterations, result.stats.take().unwrap_or_default());
        let (edges, repair_examined, repair_added) = if self.spec.repair {
            let outcome = layer(tracer, root, request, "repair", || {
                chordal_core::repair::repair_maximality_assume_chordal(
                    view,
                    result.edges(),
                    None,
                    RepairStrategy::Incremental,
                    &mut Workspace::new(),
                )
            });
            (outcome.edges, outcome.examined, outcome.added.len())
        } else {
            (result.into_edges(), 0, 0)
        };
        layer(tracer, root, request, "io.write", || {
            write_edge_list_file(&edge_subgraph(view, &edges), &self.output)
        })
        .map_err(|e| format!("writing {}: {e}", self.output.display()))?;
        let wall_s = secs(start);
        if let (Some(t), Some(root)) = (tracer, root) {
            t.close(root);
        }
        let solve = Solve {
            graph,
            request,
            wall_s,
            output_edges: edges.len(),
            iterations,
            queue_entries: stats.total_queue_entries(),
            tail_entries: stats.queue_sizes.iter().skip(TAIL_AFTER).sum(),
            alg1_edges: stats.total_edges(),
            repair_examined,
            repair_added,
            pool: (
                pool_after.regions - pool_before.regions,
                pool_after.steals - pool_before.steals,
                pool_after.tickets_dropped - pool_before.tickets_dropped,
            ),
            bytes_written: file_len(&self.output),
        };
        Ok((solve, edges))
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Writes the workload's input files from the seed; returns the paths the
/// solves read and the generated graphs.
fn prepare(spec: Spec, seed: u64, dir: &WorkDir) -> Result<Vec<(PathBuf, CsrGraph)>, String> {
    (0..spec.graphs)
        .map(|i| {
            let graph_seed = seed.wrapping_mul(spec.graphs as u64).wrapping_add(i as u64);
            let graph = RmatParams::preset(spec.kind, spec.scale, graph_seed).generate();
            let text = dir.file(&format!("input{i}.txt"));
            write_edge_list_file(&graph, &text).map_err(|e| format!("writing input {i}: {e}"))?;
            if !spec.binary {
                return Ok((text, graph));
            }
            let binary = dir.file(&format!("input{i}.bin"));
            convert_edge_list_to_binary(&text, &binary)
                .map_err(|e| format!("converting input {i}: {e}"))?;
            std::fs::remove_file(&text).map_err(|e| format!("removing text input {i}: {e}"))?;
            Ok((binary, graph))
        })
        .collect()
}

/// Runs a solve workload.
pub fn run(options: &Options) -> Report {
    let mut report = Report::default();
    let spec = spec(options.workload, options.size);
    let dir = match WorkDir::create(options.workload) {
        Ok(dir) => dir,
        Err(e) => {
            report.attempted = 1;
            report.fail(format!("creating the work directory: {e}"));
            return report;
        }
    };

    // Set-up: generate and write the inputs from the seed, SETUP_REPS times.
    let mut setup_s = Vec::new();
    let mut prepared = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        match prepare(spec, options.seed, &dir) {
            Ok(p) => prepared = p,
            Err(e) => {
                report.attempted = 1;
                report.fail(e);
                return report;
            }
        }
        setup_s.push(secs(start));
    }
    let (inputs, graphs): (Vec<PathBuf>, Vec<CsrGraph>) = prepared.into_iter().unzip();
    report.set("setup_s", median(&setup_s));
    let vertices: usize = graphs.iter().map(CsrGraph::num_vertices).sum();
    let edges: usize = graphs.iter().map(CsrGraph::num_edges).sum();
    let bytes: u64 = inputs.iter().map(|p| file_len(p)).sum();
    report.note_num("input_graphs", graphs.len() as f64);
    report.note_num("input_vertices", vertices as f64);
    report.note_num("input_edges", edges as f64);
    report.note_num("input_bytes", bytes as f64);
    report.note(
        "input",
        &format!(
            "{}x {}({}) {}",
            spec.graphs,
            spec.kind.name(),
            spec.scale,
            if spec.binary { "binary v2" } else { "text" }
        ),
    );

    let solver = Solver {
        spec,
        inputs,
        output: dir.file("output.txt"),
    };

    // Warm-up, untimed. Every output is checked right after its solve,
    // outside the timings, and dropped.
    let tracer = Tracer::new();
    let mut checker = Checker::new(spec.repair, options.seed);
    for (graph, input) in graphs.iter().enumerate().take(WARM_SOLVES) {
        report.attempted += 1;
        match solver.solve(graph, None, 0) {
            Ok((_, edges)) => checker.check(&mut report, input, &edges, 0),
            Err(e) => report.fail(e),
        }
    }

    // Measurement, cycling through the inputs. A traced run alternates
    // untraced and traced solves of the same input, so the tracing
    // overhead is measured within the run on the same graphs. The window
    // counts solve time only, not the output checks.
    let mut plain: Vec<Solve> = Vec::new();
    let mut traced: Vec<Solve> = Vec::new();
    let min_solves = MIN_SOLVES.max(2 * spec.graphs);
    let window = Instant::now();
    let mut checking_s = 0.0;
    let mut request = 0u64;
    while secs(window) - checking_s < options.seconds || plain.len() + traced.len() < min_solves {
        let pair = if options.trace { request / 2 } else { request };
        let graph = pair as usize % spec.graphs;
        request += 1;
        let use_tracer = options.trace && request.is_multiple_of(2);
        report.attempted += 1;
        match solver.solve(graph, use_tracer.then_some(&tracer), request) {
            Ok((solve, edges)) => {
                let start = Instant::now();
                checker.check(&mut report, &graphs[graph], &edges, request);
                checking_s += secs(start);
                if use_tracer {
                    traced.push(solve);
                } else {
                    plain.push(solve);
                }
            }
            Err(e) => report.fail(e),
        }
    }
    checker.finish(&mut report);

    // End-to-end metrics from the untraced solves.
    let walls: Vec<f64> = plain.iter().map(|s| s.wall_s).collect();
    let solve_s = median(&walls);
    report.set("solve_s", solve_s);
    report.set("batch_s", solve_s);
    report.set("latency_ms.p50", solve_s * 1e3);
    report.set(
        "latency_ms.p99",
        percentile(&walls, tail_percentile(walls.len())) * 1e3,
    );
    report.set(
        "max_rate_rps",
        walls.len() as f64 / walls.iter().sum::<f64>().max(1e-9),
    );
    report.set("latency.samples", walls.len() as f64);
    report.set("latency.tail_pct", tail_percentile(walls.len()));
    let all = || plain.iter().chain(&traced);
    let fracs: Vec<f64> = all()
        .map(|s| s.output_edges as f64 / graphs[s.graph].num_edges().max(1) as f64)
        .collect();
    report.set("chordal_frac", median(&fracs));
    let out_edges: Vec<f64> = all().map(|s| s.output_edges as f64).collect();
    report.set("output.edges", median(&out_edges));

    if options.trace {
        let breakdown = layer_breakdown(&tracer.spans());
        layer_metrics(&mut report, &breakdown, &plain, &traced);
        let read: Vec<f64> = traced
            .iter()
            .map(|s| file_len(&solver.inputs[s.graph]) as f64)
            .collect();
        report.set("storage.bytes_read", median(&read));
        baselines(&mut report, &solver.inputs, &graphs, &breakdown, &traced);
        crate::write_trace(&tracer, options);
    }
    report
}

/// Per-layer metrics of the traced solves: medians of each layer's self
/// time and of the per-solve counters.
fn layer_metrics(report: &mut Report, breakdown: &[Breakdown], plain: &[Solve], traced: &[Solve]) {
    let layer = |name: &str| -> f64 {
        median(
            &breakdown
                .iter()
                .map(|b| b.layer_s(name))
                .collect::<Vec<_>>(),
        )
    };
    report.set("storage.load_s", layer("storage.load"));
    report.set("storage.validate_s", layer("storage.validate"));
    report.set("alg1.extract_s", layer("alg1.extract"));
    report.set("repair.s", layer("repair"));
    report.set("io.write_s", layer("io.write"));
    let phase_sums: Vec<f64> = breakdown.iter().map(Breakdown::phase_sum_ratio).collect();
    report.set("trace.phase_sum_ratio", median(&phase_sums));
    let wall = |solves: &[Solve]| median(&solves.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    report.set(
        "trace.overhead",
        wall(traced) / wall(plain).max(1e-12) - 1.0,
    );

    let med = |f: &dyn Fn(&Solve) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    report.set("alg1.iterations", med(&|s| s.iterations as f64));
    report.set("alg1.queue_entries", med(&|s| s.queue_entries as f64));
    report.set("alg1.tail_entries", med(&|s| s.tail_entries as f64));
    report.set(
        "alg1.edges_per_entry",
        med(&|s| s.alg1_edges as f64 / s.queue_entries.max(1) as f64),
    );
    report.set("pool.regions", med(&|s| s.pool.0 as f64));
    report.set("pool.steals", med(&|s| s.pool.1 as f64));
    report.set("pool.tickets_dropped", med(&|s| s.pool.2 as f64));
    report.set("repair.examined", med(&|s| s.repair_examined as f64));
    report.set("repair.added", med(&|s| s.repair_added as f64));
    report.set(
        "repair.accept_ratio",
        med(&|s| s.repair_added as f64 / s.repair_examined.max(1) as f64),
    );
    report.set("io.bytes_written", med(&|s| s.bytes_written as f64));
}

/// The paper's comparators, outside every solve timing: serial
/// Dearing–Shier–Warner and serial Alg. 1 on each input (the median of a
/// few runs on the loaded graph), each set against the traced solves' Alg.
/// 1 and repair self times on the same input. The reported figures are
/// medians over the inputs of these per-input times and ratios.
fn baselines(
    report: &mut Report,
    inputs: &[PathBuf],
    graphs: &[CsrGraph],
    breakdown: &[Breakdown],
    traced: &[Solve],
) {
    let mut dearing_s = Vec::new();
    let mut serial_s = Vec::new();
    let mut dearing_edges = Vec::new();
    let mut serial_edges = Vec::new();
    let mut serial_iterations = Vec::new();
    let mut speedups = Vec::new();
    let mut vs_dearing = Vec::new();
    for (g, (input, graph)) in inputs.iter().zip(graphs).enumerate() {
        let loaded = match load_graph(input, None) {
            Ok(loaded) => loaded,
            Err(e) => {
                report.fail(format!("reloading input {g} for the baselines: {e}"));
                continue;
            }
        };
        let view: GraphRef<'_> = loaded.as_graph_ref();
        let (dearing_g, dearing) = timed_serial(report, view, graph, Algorithm::Dearing);
        let (serial_g, serial) = timed_serial(report, view, graph, Algorithm::Parallel);
        dearing_s.push(dearing_g);
        serial_s.push(serial_g);
        dearing_edges.push(dearing.num_chordal_edges() as f64);
        serial_edges.push(serial.num_chordal_edges() as f64);
        serial_iterations.push(serial.iterations as f64);
        // The traced solves of this input.
        let of_graph: Vec<&Breakdown> = breakdown
            .iter()
            .filter(|b| {
                traced
                    .iter()
                    .any(|s| s.request == b.request && s.graph == g)
            })
            .collect();
        if of_graph.is_empty() {
            continue;
        }
        let layer =
            |name: &str| median(&of_graph.iter().map(|b| b.layer_s(name)).collect::<Vec<_>>());
        let (alg1_g, repair_g) = (layer("alg1.extract"), layer("repair"));
        speedups.push(serial_g / alg1_g.max(1e-12));
        vs_dearing.push((alg1_g + repair_g) / dearing_g.max(1e-12));
    }
    report.set("baseline.dearing_s", median(&dearing_s));
    report.set("baseline.alg1_serial_s", median(&serial_s));
    report.set("baseline.dearing_edges", median(&dearing_edges));
    report.set("baseline.alg1_serial_edges", median(&serial_edges));
    report.set(
        "baseline.alg1_serial_iterations",
        median(&serial_iterations),
    );
    let speedup = median(&speedups);
    let vs_dearing = median(&vs_dearing);
    report.set("alg1.speedup_vs_serial", speedup);
    report.set("alg1_repair.vs_dearing", vs_dearing);
    report.note(
        "parallel_alg1_beats_serial_alg1",
        if speedup > 1.0 { "yes" } else { "no" },
    );
    report.note(
        "alg1_pipeline_beats_dearing",
        if vs_dearing < 1.0 { "yes" } else { "no" },
    );
}

/// Runs `algorithm` serially three times on `view`: the median time and
/// the result, which must be chordal and the same every time.
fn timed_serial(
    report: &mut Report,
    view: GraphRef<'_>,
    graph: &CsrGraph,
    algorithm: Algorithm,
) -> (f64, ChordalResult) {
    let mut session = ExtractionSession::new(
        ExtractorConfig::serial(AdjacencyMode::Sorted).with_algorithm(algorithm),
    );
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let start = Instant::now();
        let result = session.extract(view);
        times.push(secs(start));
        if let Some(previous) = &last {
            if previous != &result {
                report.fail(format!("serial {algorithm} is not deterministic"));
            }
        }
        last = Some(result);
    }
    let result = last.expect("three runs");
    report.attempted += 1;
    if !is_chordal(&result.subgraph(graph)) {
        report.fail(format!("serial {algorithm} output is not chordal"));
    }
    (median(&times), result)
}

/// Checks each output as it is produced: chordal always; maximal on a
/// seeded sample of the rejected edges when the solve repaired.
struct Checker {
    repaired: bool,
    seed: u64,
    chordal_s: Vec<f64>,
    violations: usize,
}

impl Checker {
    fn new(repaired: bool, seed: u64) -> Checker {
        Checker {
            repaired,
            seed,
            chordal_s: Vec::new(),
            violations: 0,
        }
    }

    fn check(&mut self, report: &mut Report, graph: &CsrGraph, edges: &[Edge], request: u64) {
        let start = Instant::now();
        let chordal = is_chordal(&edge_subgraph(graph, edges));
        self.chordal_s.push(secs(start));
        if !chordal {
            report.fail(format!("output of solve {request} is not chordal"));
            return;
        }
        if self.repaired {
            let found =
                check_maximality(graph, edges, Some(MAXIMALITY_SAMPLE), self.seed ^ request);
            if let MaximalityReport::Violations(v) = found {
                self.violations += v.len();
                report.fail(format!(
                    "output of solve {request}: {} sampled edges could be re-added",
                    v.len()
                ));
            }
        }
    }

    fn finish(&self, report: &mut Report) {
        report.set("verify.chordal_s", median(&self.chordal_s));
        report.set("verify.maximality_violations", self.violations as f64);
    }
}
