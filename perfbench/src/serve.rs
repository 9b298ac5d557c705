//! `serve-open`: open-loop `EXTRACT … payload=edges` traffic against an
//! in-process `chordal serve`.
//!
//! Thirty-six R-MAT graphs (twelve each of G, B and ER) are converted to
//! binary, `LOAD`ed once during set-up and then addressed by content hash.
//! One generator thread sends a seeded request mix (70% `alg1`, 20% `alg1
//! repair=true`, 10% `dearing`, see [`Mix`]) on a fixed schedule, each
//! request on the pipelined connection (one per CPU) with the fewest
//! requests outstanding; one reader thread per connection matches
//! responses to requests in order. Latency runs from each request's *due*
//! time, so a stalled generator or a queue in front of the server counts
//! against the requests it delays.
//!
//! Replies are not kept in memory: each connection's reader hashes every
//! payload and appends the first copy of each distinct one to a spill file
//! under the run's work directory; the checks read them back after each
//! phase, and a repeated payload shares its first copy's verdict. The
//! process's peak memory is then the server's and the load generator's,
//! whatever the number of replies. About a quarter of the payloads are
//! distinct (asynchronous Alg. 1 yields a few outputs per graph), so the
//! spill writes a quarter of the bytes served.
//!
//! The base phase runs at [`BASE_RPS`]. A traced run traces every other
//! request of the base phase while it runs: the generator's send and the
//! reader's payload read run inside spans, and `trace.overhead` compares
//! the latencies of traced and untraced requests. An untraced run then
//! drives a closed loop for [`CAPACITY_S`] seconds, each connection
//! sending its next request when the previous one is answered, and reports
//! the reply rate as `max_rate_rps`: the most the server sustains over
//! these connections without a backlog.

use crate::report::Report;
use crate::trace::{layer_breakdown, SpanId, Tracer};
use crate::{median, percentile, secs, tail_percentile, Options, Size, SplitMix64, WorkDir};
use chordal_core::dearing::extract_dearing;
use chordal_core::verify::{check_maximality, is_chordal, MaximalityReport};
use chordal_generators::rmat::{RmatKind, RmatParams};
use chordal_graph::io::{read_edge_list, write_edge_list, write_edge_list_file};
use chordal_graph::storage::convert_edge_list_to_binary;
use chordal_graph::subgraph::{edge_subgraph, edges_subset_of_graph};
use chordal_graph::CsrGraph;
use chordal_serve::{JsonValue, ServeClient, ServeConfig, Server, ServerHandle};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fs::File;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::fs::FileExt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Base request rate of the open loop, requests per second: about a third
/// of the closed-loop reply rate on a 2-vCPU host, low enough that latency
/// tracks service time rather than queueing behind host stalls.
pub const BASE_RPS: f64 = 40.0;
/// Latency limit, milliseconds: queue-wait deadline of every request.
pub const LATENCY_LIMIT_MS: f64 = 250.0;
/// Requests of the base phase: enough that p99 has ten samples beyond it.
const BASE_REQUESTS: usize = 1000;
/// Length of the closed-loop phase that measures `max_rate_rps`, seconds.
const CAPACITY_S: f64 = 10.0;
/// A backlog growing faster than this share of the offered rate counts as
/// growing: the server is not keeping up.
const BACKLOG_GROWTH: f64 = 0.1;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Graphs per R-MAT family (G, B, ER), each from its own seed. Which graphs
/// a seed draws moves every latency (repair on the costliest B graphs sets
/// the p99): the spread of p99 over ten seeds was 0.20–0.29 with three
/// graphs per family and 0.14–0.27 with five; of p50 over five seeds, 0.11
/// with five and 0.08 with twelve.
const REPLICAS: usize = 12;
/// Rejected edges the sampled maximality check tests per repaired payload.
const MAXIMALITY_SAMPLE: usize = 100;

/// The request kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Alg1,
    Alg1Repair,
    Dearing,
}

impl Kind {
    /// One block of the mix: seven `alg1`, two `alg1 repair=true`, one
    /// `dearing`.
    const BLOCK: [Kind; 10] = [
        Kind::Alg1,
        Kind::Alg1,
        Kind::Alg1,
        Kind::Alg1,
        Kind::Alg1,
        Kind::Alg1,
        Kind::Alg1,
        Kind::Alg1Repair,
        Kind::Alg1Repair,
        Kind::Dearing,
    ];

    fn args(self) -> &'static str {
        match self {
            Kind::Alg1 => "algorithm=alg1",
            Kind::Alg1Repair => "algorithm=alg1 repair=true",
            Kind::Dearing => "algorithm=dearing",
        }
    }
}

/// The seeded request mix. Kinds come in shuffled blocks of
/// [`Kind::BLOCK`], and each kind visits the graphs in shuffled rounds, so
/// every run sends each graph the same share of each kind and only the
/// order depends on the seed.
struct Mix {
    rng: SplitMix64,
    graphs: usize,
    block: Vec<Kind>,
    rounds: HashMap<Kind, Vec<usize>>,
}

impl Mix {
    fn new(seed: u64, graphs: usize) -> Mix {
        Mix {
            rng: SplitMix64(seed),
            graphs,
            block: Vec::new(),
            rounds: HashMap::new(),
        }
    }

    /// The next request's kind and graph.
    fn next(&mut self) -> (Kind, usize) {
        if self.block.is_empty() {
            self.block = Kind::BLOCK.to_vec();
            shuffle(&mut self.block, &mut self.rng);
        }
        let kind = self.block.pop().expect("a refilled block");
        let round = self.rounds.entry(kind).or_default();
        if round.is_empty() {
            *round = (0..self.graphs).collect();
            shuffle(round, &mut self.rng);
        }
        (kind, round.pop().expect("a refilled round"))
    }
}

/// Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// A request the reader of its connection is waiting for.
#[derive(Debug, Clone, Copy)]
struct Pending {
    index: usize,
    due: Instant,
    /// When the request line was written; read by the reader of a traced
    /// request.
    sent_end: Instant,
    kind: Kind,
    graph: usize,
    /// Root span of a traced request.
    span: Option<SpanId>,
}

/// One answered request.
struct Sample {
    index: usize,
    kind: Kind,
    graph: usize,
    /// The connection that carried it, whose spill file holds the payload.
    conn: usize,
    traced: bool,
    due: Instant,
    done: Instant,
    ok: bool,
    code: String,
    extract_ns: u64,
    wait_ns: u64,
    queue_wait_ns: u64,
    /// Hash of the payload.
    hash: u64,
    /// Offset of the payload in its connection's spill file, for the first
    /// copy of a payload there; `None` for a repeat or a failed write.
    payload_at: Option<u64>,
    payload_len: usize,
    /// Newlines in the payload.
    lines: usize,
}

impl Sample {
    /// Milliseconds from the due time to the last payload byte; an error
    /// reply (overload, deadline-exceeded, ...) never meets any limit.
    fn latency_ms(&self) -> f64 {
        if self.ok {
            self.done.saturating_duration_since(self.due).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        }
    }
}

/// A payload's graph, request kind and hash: payloads with equal keys get
/// one verdict.
type PayloadKey = (usize, Kind, u64);

/// State a load connection's reader shares with the generator.
struct Link {
    /// Requests sent and not yet answered, in send order.
    pending: Mutex<VecDeque<Pending>>,
    /// Answered requests not yet collected by the generator.
    answered: Mutex<Vec<Sample>>,
    /// Distinct payloads of the answered requests, appended by the reader.
    spill: File,
    /// Graph, kind and hash of every payload in the spill file.
    spilled: Mutex<HashSet<PayloadKey>>,
    /// Span recorder of a traced run.
    tracer: Option<Arc<Tracer>>,
}

/// One pipelined load connection, open for the whole run so the server's
/// per-connection sessions are reused: the generator writes, a reader
/// thread reads responses in order.
struct Conn {
    writer: TcpStream,
    link: Arc<Link>,
    reader: std::thread::JoinHandle<()>,
}

fn open_conn(
    addr: SocketAddr,
    index: usize,
    dir: &WorkDir,
    tracer: Option<&Arc<Tracer>>,
) -> std::io::Result<Conn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let writer = stream.try_clone()?;
    let spill = File::options()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(dir.file(&format!("spill{index}.bin")))?;
    let link = Arc::new(Link {
        pending: Mutex::default(),
        answered: Mutex::default(),
        spill,
        spilled: Mutex::default(),
        tracer: tracer.cloned(),
    });
    let shared = Arc::clone(&link);
    let reader = std::thread::spawn(move || {
        let mut input = BufReader::new(stream);
        loop {
            let mut line = String::new();
            match input.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let header_at = Instant::now();
            let json = JsonValue::parse(line.trim_end()).unwrap_or(JsonValue::Null);
            let field = |key: &str| json.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
            let mut payload = vec![0u8; field("payload_bytes") as usize];
            let Some(p) = shared
                .pending
                .lock()
                .expect("pending queue lock")
                .front()
                .copied()
            else {
                break;
            };
            // A traced request's payload read runs inside a span.
            let traced = shared.tracer.as_ref().zip(p.span);
            let request = p.index as u64;
            let read = match traced {
                Some((tracer, root)) => {
                    tracer.time("client.frame_read", Some(root), request, || {
                        input.read_exact(&mut payload)
                    })
                }
                None => input.read_exact(&mut payload),
            };
            if read.is_err() {
                break;
            }
            let done = Instant::now();
            if let Some((tracer, root)) = traced {
                // The server's share: from the end of the send to the
                // response header, as the client sees it.
                tracer.record("server", p.sent_end, header_at, Some(root), request);
                tracer.close(root);
            }
            let mut hasher = DefaultHasher::new();
            payload.hash(&mut hasher);
            let hash = hasher.finish();
            let first = shared
                .spilled
                .lock()
                .expect("spilled set lock")
                .insert((p.graph, p.kind, hash));
            let payload_at = first
                .then(|| {
                    (&shared.spill)
                        .seek(SeekFrom::End(0))
                        .and_then(|at| (&shared.spill).write_all(&payload).map(|()| at))
                        .ok()
                })
                .flatten();
            let sample = Sample {
                index: p.index,
                kind: p.kind,
                graph: p.graph,
                conn: index,
                traced: p.span.is_some(),
                due: p.due,
                done,
                ok: json.get("ok").and_then(JsonValue::as_bool) == Some(true),
                code: json
                    .get("code")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string(),
                extract_ns: field("extract_ns"),
                wait_ns: field("wait_ns"),
                queue_wait_ns: field("queue_wait_ns"),
                hash,
                payload_at,
                payload_len: payload.len(),
                lines: payload.iter().filter(|&&b| b == b'\n').count(),
            };
            shared.answered.lock().expect("answered lock").push(sample);
            // Only now does the request stop counting as outstanding, so
            // whoever waits for the backlog to drain finds its sample.
            shared
                .pending
                .lock()
                .expect("pending queue lock")
                .pop_front();
        }
    });
    Ok(Conn {
        writer,
        link,
        reader,
    })
}

/// Closes the write halves, which lets the server finish and close each
/// connection, and joins the readers.
fn close_all(conns: Vec<Conn>) {
    for conn in conns {
        let _ = conn.writer.shutdown(std::net::Shutdown::Write);
        let _ = conn.reader.join();
    }
}

/// The server and what the requests address.
struct Fixture {
    handle: ServerHandle,
    graphs: Vec<CsrGraph>,
    /// Bytes of the binary files the server loaded.
    bytes: u64,
    keys: Vec<String>,
    dearing_payloads: Vec<Vec<u8>>,
}

fn scale(size: Size) -> u32 {
    match size {
        Size::Full => 13,
        Size::Tiny => 8,
    }
}

/// Generates the graphs, converts them to binary, starts a server and
/// `LOAD`s them (checksum-validated on admission).
fn set_up(options: &Options, dir: &WorkDir) -> Result<Fixture, String> {
    let mut graphs = Vec::new();
    let mut paths = Vec::new();
    let kinds = [RmatKind::G, RmatKind::B, RmatKind::Er];
    for (i, kind) in (0..REPLICAS).flat_map(|_| kinds).enumerate() {
        let graph = RmatParams::preset(
            kind,
            scale(options.size),
            options.seed.wrapping_add(i as u64),
        )
        .generate();
        let text = dir.file(&format!("graph{i}.txt"));
        let binary = dir.file(&format!("graph{i}.bin"));
        write_edge_list_file(&graph, &text).map_err(|e| format!("writing graph {i}: {e}"))?;
        convert_edge_list_to_binary(&text, &binary)
            .map_err(|e| format!("converting graph {i}: {e}"))?;
        graphs.push(graph);
        paths.push(binary);
    }
    let handle =
        Server::start(ServeConfig::default()).map_err(|e| format!("starting the server: {e}"))?;
    let mut control =
        ServeClient::connect(handle.addr()).map_err(|e| format!("connecting: {e}"))?;
    let mut keys = Vec::new();
    for path in &paths {
        let response = control
            .request(&format!("LOAD path={}", path.display()))
            .map_err(|e| format!("LOAD: {e}"))?;
        if !response.ok() {
            return Err(format!("LOAD failed: {}", response.raw));
        }
        keys.push(response.str_field("graph").unwrap_or_default().to_string());
    }
    let dearing_payloads = graphs
        .iter()
        .map(|graph| {
            let mut bytes = Vec::new();
            let sub = edge_subgraph(graph, extract_dearing(graph).edges());
            write_edge_list(&sub, &mut bytes).map(|()| bytes)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("serialising the Dearing oracle: {e}"))?;
    let bytes = paths
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum();
    Ok(Fixture {
        handle,
        graphs,
        bytes,
        keys,
        dearing_payloads,
    })
}

/// Server counters read through `STATS`.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    overloads: u64,
    deadline_expired: u64,
    regions: u64,
    steals: u64,
    tickets_dropped: u64,
}

fn counters(addr: SocketAddr) -> Counters {
    let Ok(mut control) = ServeClient::connect(addr) else {
        return Counters::default();
    };
    let Ok(response) = control.request("STATS") else {
        return Counters::default();
    };
    let field = |path: &[&str]| {
        response
            .json
            .path(path)
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    };
    Counters {
        hits: field(&["cache", "hits"]),
        misses: field(&["cache", "misses"]),
        overloads: field(&["server", "overloaded_total"]),
        deadline_expired: field(&["server", "deadline_expired"]),
        regions: field(&["pool", "regions"]),
        steals: field(&["pool", "steals"]),
        tickets_dropped: field(&["pool", "tickets_dropped"]),
    }
}

/// What one phase of the open loop observed.
struct Phase {
    samples: Vec<Sample>,
    late_ms: Vec<f64>,
    backlog_growing: bool,
    sent: usize,
}

impl Phase {
    /// Successful replies per second, from the first due time to the last
    /// reply: the rate the phase actually sustained.
    fn answered_rps(&self) -> f64 {
        let (Some(first), Some(last)) = (
            self.samples.iter().map(|s| s.due).min(),
            self.samples.iter().map(|s| s.done).max(),
        ) else {
            return 0.0;
        };
        let ok = self.samples.iter().filter(|s| s.ok).count();
        ok as f64
            / last
                .saturating_duration_since(first)
                .as_secs_f64()
                .max(1e-9)
    }
}

fn outstanding(conns: &[Conn]) -> usize {
    conns
        .iter()
        .map(|c| c.link.pending.lock().expect("pending queue lock").len())
        .sum()
}

/// Sends request `index`, due at `due`, on `conn`; `mix` supplies its kind
/// and graph. A traced request opens its root span at the due time and
/// sends inside a child span.
fn send(
    conn: &mut Conn,
    keys: &[String],
    mix: &mut Mix,
    index: usize,
    due: Instant,
    traced: bool,
) -> Result<(), String> {
    let (kind, graph) = mix.next();
    let line = format!(
        "EXTRACT graph={} {} payload=edges deadline_ms={}\n",
        keys[graph],
        kind.args(),
        LATENCY_LIMIT_MS as u64
    );
    let tracer = conn.link.tracer.clone().filter(|_| traced);
    let request = index as u64;
    let sent = Instant::now();
    let span = tracer.as_ref().map(|t| {
        let root = t.record("serve.request", due, due, None, request);
        t.record("gen.late", due, sent, Some(root), request);
        root
    });
    conn.link
        .pending
        .lock()
        .expect("pending queue lock")
        .push_back(Pending {
            index,
            due,
            sent_end: sent,
            kind,
            graph,
            span,
        });
    let written = match (&tracer, span) {
        (Some(t), Some(root)) => t.time("client.send", Some(root), request, || {
            conn.writer.write_all(line.as_bytes())
        }),
        _ => conn.writer.write_all(line.as_bytes()),
    };
    written.map_err(|e| format!("sending request {index}: {e}"))?;
    let sent_end = Instant::now();
    if let Some(p) = conn
        .link
        .pending
        .lock()
        .expect("pending queue lock")
        .back_mut()
    {
        if p.index == index {
            p.sent_end = sent_end;
        }
    }
    Ok(())
}

/// Waits for every request sent to be answered (a server that stops
/// answering fails the rest instead of hanging the run) and collects the
/// samples in request order.
fn collect(conns: &[Conn]) -> Vec<Sample> {
    let deadline = Instant::now() + Duration::from_secs(30);
    while outstanding(conns) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut samples = Vec::new();
    for conn in conns {
        samples.append(&mut conn.link.answered.lock().expect("answered lock"));
    }
    samples.sort_by_key(|s| s.index);
    samples
}

/// Sends `count` requests at `rate` on the open-loop schedule over
/// `conns`, and waits for their responses. `first` numbers the
/// requests; `mix` supplies each request's kind and graph. With `trace`,
/// every other request is traced.
fn drive(
    conns: &mut [Conn],
    keys: &[String],
    mix: &mut Mix,
    first: usize,
    count: usize,
    rate: f64,
    trace: bool,
) -> Result<Phase, String> {
    let mut late_ms = Vec::with_capacity(count);
    // Backlog (sent, not yet answered) at every send, against the send's
    // due offset: a server that keeps up holds it bounded, one that does
    // not lets it grow at the rate it falls behind.
    let mut backlog: Vec<(f64, f64)> = Vec::with_capacity(count);
    let start = Instant::now() + Duration::from_millis(5);
    for k in 0..count {
        let due = start + Duration::from_secs_f64(k as f64 / rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        // The connection with the fewest requests outstanding (the lowest
        // index on a tie), as a client-side balancer would pick.
        let pick = (0..conns.len())
            .min_by_key(|&i| outstanding(&conns[i..=i]))
            .expect("at least one connection");
        late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        send(
            &mut conns[pick],
            keys,
            mix,
            first + k,
            due,
            trace && k % 2 == 1,
        )?;
        backlog.push((k as f64 / rate, outstanding(conns) as f64));
    }
    Ok(Phase {
        samples: collect(conns),
        late_ms,
        backlog_growing: slope(&backlog) > BACKLOG_GROWTH * rate,
        sent: count,
    })
}

/// A closed loop for `seconds`: each connection sends its next request as
/// soon as its previous one is answered, so no backlog can build and the
/// reply rate is the most the server sustains over these connections.
fn saturate(
    conns: &mut [Conn],
    keys: &[String],
    mix: &mut Mix,
    first: usize,
    seconds: f64,
) -> Result<Phase, String> {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut sent = 0;
    while Instant::now() < end {
        for conn in conns.iter_mut() {
            if outstanding(std::slice::from_ref(conn)) == 0 {
                send(conn, keys, mix, first + sent, Instant::now(), false)?;
                sent += 1;
            }
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok(Phase {
        samples: collect(conns),
        late_ms: Vec::new(),
        backlog_growing: false,
        sent,
    })
}

/// Least-squares slope of `y` over `x` (0 for fewer than two points).
fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let covariance: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    let variance: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    if variance > 0.0 {
        covariance / variance
    } else {
        0.0
    }
}

/// Runs the workload.
pub fn run(options: &Options) -> Report {
    let mut report = Report::default();
    let dir = match WorkDir::create(options.workload) {
        Ok(dir) => dir,
        Err(e) => {
            report.attempted = 1;
            report.fail(format!("creating the work directory: {e}"));
            return report;
        }
    };
    let mut setup_s = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUP_REPS {
        if let Some(mut previous) = fixture.take().map(|f: Fixture| f.handle) {
            previous.shutdown();
        }
        let start = Instant::now();
        match set_up(options, &dir) {
            Ok(f) => fixture = Some(f),
            Err(e) => {
                report.attempted = 1;
                report.fail(e);
                return report;
            }
        }
        setup_s.push(secs(start));
    }
    let mut fixture = fixture.expect("at least one set-up ran");
    report.set("setup_s", median(&setup_s));
    let addr = fixture.handle.addr();
    let connections = chordal_runtime::available_threads().max(1);
    let vertices: usize = fixture.graphs.iter().map(CsrGraph::num_vertices).sum();
    let edges: usize = fixture.graphs.iter().map(CsrGraph::num_edges).sum();
    report.note_num("input_vertices", vertices as f64);
    report.note_num("input_edges", edges as f64);
    report.note_num("input_bytes", fixture.bytes as f64);
    report.note_num("connections", connections as f64);
    report.note_num("base_rps", BASE_RPS);
    report.note_num("latency_limit_ms", LATENCY_LIMIT_MS);

    let tracer = options.trace.then(|| Arc::new(Tracer::new()));
    let opened: std::io::Result<Vec<Conn>> = (0..connections)
        .map(|i| open_conn(addr, i, &dir, tracer.as_ref()))
        .collect();
    let mut conns = match opened {
        Ok(conns) => conns,
        Err(e) => {
            report.attempted += 1;
            report.fail(format!("opening a load connection: {e}"));
            fixture.handle.shutdown();
            return report;
        }
    };
    let mut mix = Mix::new(options.seed ^ 0x5e7e_0000, fixture.keys.len());
    // Warm-up: enough requests that every connection has built a session
    // for each request kind before timing.
    let warm = 12 * connections;
    match drive(
        &mut conns,
        &fixture.keys,
        &mut mix,
        0,
        warm,
        BASE_RPS,
        false,
    ) {
        Ok(phase) => check(&mut report, &fixture, &conns, &phase, options.seed),
        Err(e) => {
            report.attempted += 1;
            report.fail(e);
        }
    }

    let before = counters(addr);
    // The base phase spans the window and sends at least BASE_REQUESTS
    // requests.
    let base_count = match options.size {
        Size::Full => BASE_REQUESTS.max((BASE_RPS * options.seconds) as usize),
        Size::Tiny => 60,
    };
    let base = match drive(
        &mut conns,
        &fixture.keys,
        &mut mix,
        warm,
        base_count,
        BASE_RPS,
        options.trace,
    ) {
        Ok(phase) => phase,
        Err(e) => {
            report.attempted += 1;
            report.fail(e);
            close_all(conns);
            fixture.handle.shutdown();
            return report;
        }
    };
    let after = counters(addr);
    check(&mut report, &fixture, &conns, &base, options.seed);

    for kind in [Kind::Alg1, Kind::Alg1Repair, Kind::Dearing] {
        let of_kind: Vec<f64> = base
            .samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(Sample::latency_ms)
            .collect();
        eprintln!(
            "perfbench: {kind:?}: {} requests, p50 {:.1} ms, p90 {:.1} ms",
            of_kind.len(),
            percentile(&of_kind, 50.0),
            percentile(&of_kind, 90.0)
        );
    }
    let latencies: Vec<f64> = base.samples.iter().map(Sample::latency_ms).collect();
    let tail = tail_percentile(latencies.len());
    let p50 = percentile(&latencies, 50.0);
    report.set("latency_ms.p50", p50);
    report.set("latency_ms.p99", percentile(&latencies, tail));
    report.set("latency.samples", latencies.len() as f64);
    report.set("latency.tail_pct", tail);
    // Server-side splits come from the successful replies only.
    let answered: Vec<&Sample> = base.samples.iter().filter(|s| s.ok).collect();
    let ms = |f: &dyn Fn(&Sample) -> f64| answered.iter().map(|s| f(s)).collect::<Vec<f64>>();
    report.set("solve_s", median(&ms(&|s| s.extract_ns as f64 / 1e9)));
    report.set("batch_s", p50 / 1e3);
    // A payload is two header lines (`# vertices`, `# edges`) and one line
    // per edge.
    let fracs = ms(&|s| {
        s.lines.saturating_sub(2) as f64 / fixture.graphs[s.graph].num_edges().max(1) as f64
    });
    report.set("chordal_frac", median(&fracs));
    report.set(
        "serve.extract_ms.p50",
        median(&ms(&|s| s.extract_ns as f64 / 1e6)),
    );
    report.set(
        "serve.wait_ms.p50",
        median(&ms(&|s| s.wait_ns as f64 / 1e6)),
    );
    report.set(
        "serve.queue_wait_ms.p99",
        percentile(&ms(&|s| s.queue_wait_ns as f64 / 1e6), tail),
    );
    report.set(
        "serve.unattributed_ms.p50",
        median(&ms(&|s| {
            s.latency_ms() - (s.extract_ns + s.wait_ns) as f64 / 1e6
        })),
    );
    report.set(
        "serve.payload_bytes",
        median(&ms(&|s| s.payload_len as f64)),
    );
    report.set("serve.cache_hits", (after.hits - before.hits) as f64);
    report.set("serve.cache_misses", (after.misses - before.misses) as f64);
    report.set(
        "serve.overloads",
        (after.overloads - before.overloads) as f64,
    );
    report.set(
        "serve.deadline_expired",
        (after.deadline_expired - before.deadline_expired) as f64,
    );
    let per_request = |before: u64, after: u64| (after - before) as f64 / base.sent.max(1) as f64;
    report.set("pool.regions", per_request(before.regions, after.regions));
    report.set("pool.steals", per_request(before.steals, after.steals));
    report.set(
        "pool.tickets_dropped",
        per_request(before.tickets_dropped, after.tickets_dropped),
    );
    report.set("gen.late_ms.p99", percentile(&base.late_ms, tail));
    report.set(
        "gen.backlog_growing",
        f64::from(u8::from(base.backlog_growing)),
    );

    if let Some(tracer) = &tracer {
        trace_metrics(&mut report, tracer, &base, options);
    } else {
        match saturate(
            &mut conns,
            &fixture.keys,
            &mut mix,
            warm + base_count,
            match options.size {
                Size::Full => CAPACITY_S,
                Size::Tiny => 0.3,
            },
        ) {
            Ok(closed) => {
                check(&mut report, &fixture, &conns, &closed, options.seed);
                report.set("max_rate_rps", closed.answered_rps());
            }
            Err(e) => {
                report.attempted += 1;
                report.fail(e);
            }
        }
    }
    close_all(conns);
    fixture.handle.shutdown();
    report
}

/// Tracing metrics of the base phase, whose odd requests were traced while
/// it ran: the overhead is the traced requests' median latency over the
/// untraced ones', less one.
fn trace_metrics(report: &mut Report, tracer: &Tracer, base: &Phase, options: &Options) {
    let latency = |traced: bool| {
        let of: Vec<f64> = base
            .samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(Sample::latency_ms)
            .collect();
        median(&of)
    };
    report.set(
        "trace.overhead",
        latency(true) / latency(false).max(1e-12) - 1.0,
    );
    let sums: Vec<f64> = layer_breakdown(&tracer.spans())
        .iter()
        .map(|b| b.phase_sum_ratio())
        .collect();
    report.set("trace.phase_sum_ratio", median(&sums));
    crate::write_trace(tracer, options);
}

/// Checks every request of a phase: a success reply for each request sent;
/// Dearing payloads byte-identical to the local oracle; Alg. 1 payloads a
/// chordal subgraph of their graph; repaired payloads also maximal on a
/// seeded sample. Each distinct payload is read back from its spill file
/// and checked once; the spill files are emptied after.
fn check(report: &mut Report, fixture: &Fixture, conns: &[Conn], phase: &Phase, seed: u64) {
    let (samples, sent) = (&phase.samples, phase.sent);
    report.attempted += sent as u64;
    if samples.len() < sent {
        for _ in samples.len()..sent {
            report.fail("request left unanswered".to_string());
        }
    }
    let key = |s: &Sample| -> PayloadKey { (s.graph, s.kind, s.hash) };
    let mut verdicts: HashMap<PayloadKey, Result<(), String>> = HashMap::new();
    let mut payload = Vec::new();
    for s in samples.iter().filter(|s| s.ok) {
        let Some(at) = s.payload_at else { continue };
        payload.resize(s.payload_len, 0);
        let verdict = match conns[s.conn].link.spill.read_exact_at(&mut payload, at) {
            Err(e) => Err(format!("reading the payload back: {e}")),
            Ok(()) if s.kind == Kind::Dearing => {
                if payload == fixture.dearing_payloads[s.graph] {
                    Ok(())
                } else {
                    Err("dearing payload differs from write_edge_list".to_string())
                }
            }
            Ok(()) => check_payload(&fixture.graphs[s.graph], &payload, s.kind, seed ^ s.hash),
        };
        verdicts.insert(key(s), verdict);
    }
    for s in samples {
        let failure = match verdicts.get(&key(s)) {
            _ if !s.ok => format!("answered {}", s.code),
            None => "payload not kept for checking".to_string(),
            Some(Ok(())) => continue,
            Some(Err(e)) => e.clone(),
        };
        report.fail(format!("request {}: {failure}", s.index));
    }
    for conn in conns {
        conn.link.spilled.lock().expect("spilled set lock").clear();
        if let Err(e) = conn.link.spill.set_len(0) {
            report.fail(format!("emptying a spill file: {e}"));
        }
    }
}

fn check_payload(graph: &CsrGraph, payload: &[u8], kind: Kind, seed: u64) -> Result<(), String> {
    let sub = read_edge_list(payload).map_err(|e| format!("payload does not parse: {e}"))?;
    let edges: Vec<_> = sub.edges().collect();
    if sub.num_vertices() != graph.num_vertices() || !edges_subset_of_graph(graph, &edges) {
        return Err("payload is not a subgraph of its graph".to_string());
    }
    if !is_chordal(&sub) {
        return Err("payload is not chordal".to_string());
    }
    if kind == Kind::Alg1Repair {
        if let MaximalityReport::Violations(v) =
            check_maximality(graph, &edges, Some(MAXIMALITY_SAMPLE), seed)
        {
            return Err(format!(
                "{} sampled edges could be re-added after repair",
                v.len()
            ));
        }
    }
    Ok(())
}
