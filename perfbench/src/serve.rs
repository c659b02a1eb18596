//! The `serve-mixed` workload: an in-process `repro serve` instance on
//! loopback, driven by two closed-loop clients, each on its own
//! connection and thread, sending the next request only after the
//! previous one's `result` line arrived.
//!
//! The request mix alternates multi-site sweeps (fcat/scat/dfsa, 1000
//! tags, 20 m grid: 9 sites, about 15 lines) with churn-monitoring
//! windows (fcat/scat, 200 tags, 4 arrivals per round, 16 rounds: a few
//! hundred lines). Many small runs put event encoding, queueing and socket
//! writes in the lead, the opposite of the inventory workloads.

use crate::layers::{self, TimingSink};
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::{sys, Args};
use rfid_anc::{Fcat, FcatConfig, FcatSession, Scat, ScatConfig, ScatSession};
use rfid_bench::json::Json;
use rfid_bench::serve::{
    churn_result_line, parse_request, result_line, ServeOptions, Server, SweepRequest,
};
use rfid_protocols::Dfsa;
use rfid_sim::obs::jsonl::replay;
use rfid_sim::obs::{
    DetectionEvent, EstimatorEvent, EventSink, LambdaEvent, NoopSink, PopulationEvent, RecordEvent,
    ScheduleEvent, SiteEvent, SlotEvent,
};
use rfid_sim::rounds::{MultiRoundSession, StatelessSession};
use rfid_sim::{
    derive_seed, multi_site_inventory_sharded_observed, run_inventory_observed,
    run_monitoring_observed, seeded_rng, AntiCollisionProtocol, Deployment, DwellModel,
    MonitorConfig, ObservableProtocol, PopulationSchedule, SimConfig,
};
use rfid_types::TagId;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct requests in one run's pool; the clients cycle through it.
const POOL: usize = 512;
/// Client connections (and client threads).
const CLIENTS: usize = 2;
/// Per-client stream queue, in lines: larger than any response in the
/// mix, so no event is ever dropped and every stream replays exactly.
pub const QUEUE_CAPACITY: usize = 1_024;
/// Set-up passes per run; `setup_s` is their median.
const SETUP_PASSES: usize = 5;
/// Warm-up requests per client in each set-up pass.
const WARMUP_REQUESTS: usize = 32;
/// Local repetitions per pool request when timing its computation.
const COMPUTE_REPS: usize = 3;

/// The server configuration every run uses.
pub fn server_options() -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_capacity: QUEUE_CAPACITY,
        flush_every: 32,
    }
}

/// The run's request lines, a pure function of `seed`: even entries are
/// sweeps cycling fcat/scat/dfsa, odd entries churn windows alternating
/// fcat/scat.
pub fn request_pool(seed: u64) -> Vec<String> {
    (0..POOL)
        .map(|i| {
            // Request seeds travel as JSON numbers: keep them below 2^53.
            let request_seed = derive_seed(seed, i as u64) >> 11;
            if i % 2 == 0 {
                let protocol = ["fcat", "scat", "dfsa"][(i / 2) % 3];
                format!(
                    "{{\"protocol\":\"{protocol}\",\"tags\":1000,\"spacing\":20,\
                     \"seed\":{request_seed}}}"
                )
            } else {
                let protocol = ["fcat", "scat"][(i / 2) % 2];
                format!(
                    "{{\"protocol\":\"{protocol}\",\"tags\":200,\"churn_rate\":4,\
                     \"churn_rounds\":16,\"seed\":{request_seed}}}"
                )
            }
        })
        .collect()
}

/// One served request, as the client saw it.
#[derive(Debug)]
struct Served {
    pool_index: usize,
    accept_ms: f64,
    first_ms: f64,
    latency_ms: f64,
    /// Streamed lines between `accepted` and `result`.
    events: u64,
    /// Shared with every other response to the same pool request that
    /// sent the same line, so memory stays bounded by the pool.
    result: Arc<str>,
    /// The stream oracle's verdict: dropped events, or what mismatched.
    stream_check: Result<u64, String>,
}

/// One client connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    events: String,
    /// The first `result` line seen per pool request.
    seen: Vec<Option<Arc<str>>>,
}

impl Client {
    fn connect(server: &Server) -> Result<Client, String> {
        let stream =
            TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client {
            writer: stream,
            reader,
            line: String::new(),
            events: String::new(),
            seen: vec![None; POOL],
        })
    }

    fn read_line(&mut self) -> Result<(), String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Sends one request and reads its stream through the `result` line,
    /// then checks that the streamed events replay to the result's
    /// totals. `Err` means the connection is unusable.
    fn request(&mut self, pool_index: usize, line: &str) -> Result<Served, String> {
        let start = Instant::now();
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.read_line()?;
        let accept_ms = start.elapsed().as_secs_f64() * 1e3;
        let accepted = self.line.trim_end().to_owned();
        if !accepted.contains("\"type\":\"accepted\"") {
            return Err(format!("expected accepted, got {accepted}"));
        }
        self.events.clear();
        let mut first_ms = None;
        let mut events = 0u64;
        loop {
            self.read_line()?;
            first_ms.get_or_insert_with(|| start.elapsed().as_secs_f64() * 1e3);
            if self.line.starts_with("{\"type\":\"result\"") {
                break;
            }
            if self.line.starts_with("{\"type\":\"error\"") {
                return Err(format!("server error: {}", self.line.trim_end()));
            }
            self.events.push_str(&self.line);
            events += 1;
        }
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        let line = self.line.trim_end();
        let result = match &self.seen[pool_index] {
            Some(first) if **first == *line => first.clone(),
            Some(_) => Arc::from(line),
            None => self.seen[pool_index].insert(Arc::from(line)).clone(),
        };
        let stream_check = check_stream(&accepted, &self.events, &result);
        Ok(Served {
            pool_index,
            accept_ms,
            first_ms: first_ms.expect("a result line was read"),
            latency_ms,
            events,
            result,
            stream_check,
        })
    }
}

fn field_u64(json: &Json, key: &str) -> Result<u64, String> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing {key}"))
}

/// The stream oracle: the event lines must replay through
/// `rfid_obs::jsonl::replay::summarize` to the totals the `result` line
/// (and, for churn, the `accepted` line) reports. Returns the result's
/// `dropped_events`.
fn check_stream(accepted: &str, events: &str, result: &str) -> Result<u64, String> {
    let summary = replay::summarize(events.as_bytes()).map_err(|e| format!("replay: {e}"))?;
    let result_json = Json::parse(result).map_err(|e| format!("result line: {e}"))?;
    let mismatch = |what: &str, streamed: u64, reported: u64| {
        Err(format!(
            "{what}: stream replays to {streamed}, result reports {reported}"
        ))
    };
    let emitted = field_u64(&result_json, "events_emitted")?;
    let dropped = field_u64(&result_json, "dropped_events")?;
    // Snapshot lines ride along only when events were dropped.
    if summary.lines - summary.coalesced_snapshots != emitted {
        return mismatch("events", summary.lines, emitted);
    }
    if result_json.get("mode").and_then(Json::as_str) == Some("churn") {
        let accepted_json = Json::parse(accepted).map_err(|e| format!("accepted line: {e}"))?;
        for (what, streamed, key, source) in [
            ("arrivals", summary.arrivals, "arrivals", &accepted_json),
            (
                "departures",
                summary.departures,
                "departures",
                &accepted_json,
            ),
            (
                "unknown",
                summary.unknown_detected,
                "unknown_detected",
                &result_json,
            ),
            (
                "missing",
                summary.missing_detected,
                "missing_detected",
                &result_json,
            ),
        ] {
            let reported = field_u64(source, key)?;
            if streamed != reported {
                return mismatch(what, streamed, reported);
            }
        }
    } else {
        let sites = field_u64(&result_json, "sites")?;
        let slices = field_u64(&result_json, "slices")?;
        let reads = field_u64(&result_json, "unique_tags")?
            + field_u64(&result_json, "cross_site_duplicates")?;
        if summary.sites_completed != sites {
            return mismatch("sites", summary.sites_completed, sites);
        }
        if summary.schedule_slices != slices {
            return mismatch("slices", summary.schedule_slices, slices);
        }
        if summary.site_identified != reads {
            return mismatch("site reads", summary.site_identified, reads);
        }
    }
    Ok(dropped)
}

/// Counts every event a computation emits: the `events_emitted` a served
/// stream reports when nothing was dropped.
#[derive(Debug, Default)]
struct CountingSink(u64);

impl EventSink for CountingSink {
    fn slot(&mut self, _: &SlotEvent) {
        self.0 += 1;
    }
    fn record(&mut self, _: &RecordEvent) {
        self.0 += 1;
    }
    fn estimator(&mut self, _: &EstimatorEvent) {
        self.0 += 1;
    }
    fn lambda(&mut self, _: &LambdaEvent) {
        self.0 += 1;
    }
    fn schedule(&mut self, _: &ScheduleEvent) {
        self.0 += 1;
    }
    fn site(&mut self, _: &SiteEvent) {
        self.0 += 1;
    }
    fn population(&mut self, _: &PopulationEvent) {
        self.0 += 1;
    }
    fn detection(&mut self, _: &DetectionEvent) {
        self.0 += 1;
    }
}

/// The protocol a sweep request names, built as the server builds it.
fn sweep_protocol(request: &SweepRequest) -> Box<dyn AntiCollisionProtocol + Send + Sync> {
    match request.protocol.as_str() {
        "scat" => Box::new(Scat::new(ScatConfig::default().with_lambda(request.lambda))),
        "dfsa" => Box::new(Dfsa::new()),
        _ => Box::new(Fcat::new(FcatConfig::default().with_lambda(request.lambda))),
    }
}

/// The session a churn request names, built as the server builds it.
fn churn_session(request: &SweepRequest) -> Box<dyn MultiRoundSession + Send> {
    match request.protocol.as_str() {
        "scat" => Box::new(ScatSession::new(
            ScatConfig::default().with_lambda(request.lambda),
        )),
        "dfsa" => Box::new(StatelessSession::new(Dfsa::new())),
        _ => Box::new(FcatSession::new(
            FcatConfig::default().with_lambda(request.lambda),
        )),
    }
}

/// Runs one parsed request locally into `sink`: the computation whose
/// events the server streams.
fn compute<S: EventSink>(request: &SweepRequest, sink: &mut S) -> Result<Report, String> {
    match &request.churn {
        Some(churn) => {
            let model = DwellModel::poisson(churn.rate, churn.dwell);
            let schedule = PopulationSchedule::generate(
                &model,
                request.tags,
                churn.rounds,
                request.config.seed(),
            );
            let monitor = MonitorConfig {
                audit_every: churn.audit_every,
                persistence: true,
            };
            let mut session = churn_session(request);
            run_monitoring_observed(session.as_mut(), &schedule, &monitor, &request.config, sink)
                .map(Report::Churn)
                .map_err(|e| e.to_string())
        }
        None => {
            let deployment = Deployment::uniform(
                &mut seeded_rng(request.config.seed()),
                request.tags,
                request.width,
                request.height,
            );
            let positions = deployment
                .try_grid_positions(request.spacing)
                .map_err(|e| e.to_string())?;
            let protocol = sweep_protocol(request);
            multi_site_inventory_sharded_observed(
                protocol.as_ref(),
                &deployment,
                &positions,
                request.range,
                request.interference_radius,
                &request.config,
                request.workers,
                sink,
            )
            .map(Report::Sweep)
            .map_err(|e| e.to_string())
        }
    }
}

enum Report {
    Sweep(rfid_sim::MultiSiteReport),
    Churn(rfid_sim::MonitorReport),
}

/// The `result` line the server must send for `line`.
fn expected_result(line: &str, options: &ServeOptions) -> Result<String, String> {
    let request = parse_request(line, options)?;
    let mut counter = CountingSink::default();
    Ok(match compute(&request, &mut counter)? {
        Report::Sweep(report) => result_line(&request, &report, counter.0, 0),
        Report::Churn(report) => {
            let churn = request.churn.expect("churn report from a churn request");
            churn_result_line(&request, &churn, &report, counter.0, 0)
        }
    })
}

/// A spawned server with its connected clients.
struct Harness {
    server: Server,
    clients: Vec<Client>,
}

impl Harness {
    fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// Spawns the server, connects the clients and warms every connection
/// up, [`SETUP_PASSES`] times; keeps the last harness and returns it with
/// the median pass time in seconds.
fn setup(pool: &[String]) -> Result<(Harness, f64), String> {
    let mut times = Vec::with_capacity(SETUP_PASSES);
    let mut kept: Option<Harness> = None;
    for _ in 0..SETUP_PASSES {
        if let Some(old) = kept.take() {
            old.shutdown();
        }
        let start = Instant::now();
        let server = Server::spawn(server_options()).map_err(|e| format!("spawn: {e}"))?;
        let mut clients = Vec::with_capacity(CLIENTS);
        for _ in 0..CLIENTS {
            clients.push(Client::connect(&server)?);
        }
        for (c, client) in clients.iter_mut().enumerate() {
            for k in 0..WARMUP_REQUESTS {
                let index = (c * (POOL / 2 + 1) + k) % POOL;
                client
                    .request(index, &pool[index])
                    .and_then(|s| s.stream_check)
                    .map_err(|e| format!("warm-up request {index}: {e}"))?;
            }
        }
        times.push(start.elapsed().as_secs_f64());
        kept = Some(Harness { server, clients });
    }
    Ok((kept.expect("at least one pass"), median(&times)))
}

/// Drives the closed loop for `window`: client `c` walks the pool from offset `c·(POOL/2 + 1)`,
/// so one client starts on a sweep and the other on a churn window.
/// Returns the served requests, the attempt count and transport failures.
fn drive(
    clients: &mut [Client],
    pool: &[String],
    window: Duration,
) -> (Vec<Served>, u64, Vec<String>) {
    let start = Instant::now();
    let run_client = |c: usize, client: &mut Client| {
        let mut served = Vec::new();
        let mut attempted = 0u64;
        let mut failures = Vec::new();
        let mut next = c * (POOL / 2 + 1);
        while start.elapsed() < window {
            let index = next % POOL;
            next += 1;
            attempted += 1;
            match client.request(index, &pool[index]) {
                Ok(s) => served.push(s),
                Err(e) => {
                    failures.push(format!("request {index}: {e}"));
                    // A broken connection cannot serve the rest.
                    break;
                }
            }
        }
        (served, attempted, failures)
    };
    let (first, rest) = clients.split_first_mut().expect("at least one client");
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, client)| scope.spawn(move || run_client(i + 1, client)))
            .collect();
        let mut all = run_client(0, first);
        for handle in handles {
            let (served, attempted, failures) = handle.join().expect("client thread panicked");
            all.0.extend(served);
            all.1 += attempted;
            all.2.extend(failures);
        }
        all
    })
}

/// Both oracles over the served requests, one failure per request at
/// most: the stream must have replayed to its result's totals, and the
/// `result` line must equal the local computation of the same parsed
/// request.
fn verify_results(served: &[Served], pool: &[String], options: &ServeOptions) -> Vec<String> {
    let mut expected: Vec<Option<Result<String, String>>> = vec![None; pool.len()];
    let mut failures = Vec::new();
    for s in served {
        if let Err(e) = &s.stream_check {
            failures.push(format!("request {}: stream: {e}", s.pool_index));
            continue;
        }
        let want = expected[s.pool_index]
            .get_or_insert_with(|| expected_result(&pool[s.pool_index], options));
        match want {
            Ok(line) if **line == *s.result => {}
            Ok(line) => failures.push(format!(
                "request {}: served {} but local computation gives {line}",
                s.pool_index, s.result
            )),
            Err(e) => failures.push(format!("request {}: local computation: {e}", s.pool_index)),
        }
    }
    failures
}

/// One site inventory run plain and then through `sink`, with the
/// allocations the plain run made.
fn site_pair<P: ObservableProtocol>(
    protocol: &P,
    tags: &[TagId],
    config: &SimConfig,
    sink: &mut TimingSink,
) -> (SiteResult, SiteResult, u64) {
    let before = sys::allocations();
    let plain = run_inventory_observed(protocol, tags, config, &mut NoopSink);
    let allocs = sys::allocations() - before;
    sink.start(tags.len(), false);
    let traced = run_inventory_observed(protocol, tags, config, sink);
    (plain, traced, allocs)
}

type SiteResult = Result<rfid_sim::InventoryReport, rfid_sim::SimError>;

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let pool = request_pool(args.seed);
    let options = server_options();
    let (mut harness, setup_s) = setup(&pool)?;
    let window = Duration::from_secs(args.seconds);
    let (served, attempted, failures) = drive(&mut harness.clients, &pool, window);
    harness.shutdown();
    let mut out = Outcome::default();
    out.absorb(attempted, failures);
    out.absorb(0, verify_results(&served, &pool, &options));
    let latency: Vec<f64> = served.iter().map(|s| s.latency_ms).collect();
    let first: Vec<f64> = served.iter().map(|s| s.first_ms).collect();
    out.set("setup_s", setup_s);
    let best = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    out.set("op_ms_best", best(&latency));
    out.set("first_output_ms_best", best(&first));
    out.set("peak_rss_mb", sys::peak_rss_mb()?);
    Ok(out)
}

/// The traced run: per-layer metrics. The clients drive the server for
/// half the window; then each pool request is recomputed locally, plain
/// and through a [`TimingSink`], and the replay cells run with the
/// workload's shape.
pub fn run_traced(args: &Args) -> Result<Outcome, String> {
    let pool = request_pool(args.seed);
    let options = server_options();
    let (mut harness, _) = setup(&pool)?;
    let start = Instant::now();
    let (served, attempted, failures) = drive(
        &mut harness.clients,
        &pool,
        Duration::from_secs(args.seconds) / 2,
    );
    let elapsed = start.elapsed().as_secs_f64();
    harness.shutdown();
    let mut out = Outcome::default();
    out.absorb(attempted, failures);
    out.absorb(0, verify_results(&served, &pool, &options));

    // Local computation of every pool request, plain and traced, in
    // alternating order.
    let requests: Vec<SweepRequest> = pool
        .iter()
        .map(|line| parse_request(line, &options))
        .collect::<Result<_, _>>()?;
    let mut stream_sink = TimingSink::new(50_000);
    let mut compute_ms = vec![0.0; pool.len()];
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    for (i, request) in requests.iter().enumerate() {
        let mut plain = Vec::with_capacity(COMPUTE_REPS);
        for rep in 0..COMPUTE_REPS {
            let traced_first = rep % 2 == 1;
            for traced_turn in [traced_first, !traced_first] {
                let begin = Instant::now();
                if traced_turn {
                    compute(request, &mut stream_sink)?;
                    traced_ms.push(begin.elapsed().as_secs_f64() * 1e3);
                } else {
                    compute(request, &mut NoopSink)?;
                    plain.push(begin.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
        compute_ms[i] = median(&plain);
        plain_ms.extend(plain);
    }
    let accept: Vec<f64> = served.iter().map(|s| s.accept_ms).collect();
    let compute_per_request: Vec<f64> = served.iter().map(|s| compute_ms[s.pool_index]).collect();
    let overhead: Vec<f64> = served
        .iter()
        .map(|s| s.latency_ms - compute_ms[s.pool_index])
        .collect();
    let latency: Vec<f64> = served.iter().map(|s| s.latency_ms).collect();
    let first: Vec<f64> = served.iter().map(|s| s.first_ms).collect();
    out.set("ungated.op_ms_p50", percentile(&latency, 50)?);
    out.set("ungated.first_output_ms_p50", percentile(&first, 50)?);
    out.set("ungated.ops_per_s", served.len() as f64 / elapsed);
    out.set(
        "ungated.items_per_s",
        served.iter().map(|s| s.events).sum::<u64>() as f64 / elapsed,
    );
    out.set("serve.accept_ms_p50", percentile(&accept, 50)?);
    out.set(
        "serve.compute_ms_p50",
        percentile(&compute_per_request, 50)?,
    );
    out.set("serve.overhead_ms_p50", percentile(&overhead, 50)?);
    out.set(
        "serve.lines_per_request",
        served.iter().map(|s| s.events as f64 + 2.0).sum::<f64>() / served.len().max(1) as f64,
    );
    out.set(
        "stream.dropped_events",
        served
            .iter()
            .filter_map(|s| s.stream_check.as_ref().ok())
            .sum::<u64>() as f64,
    );
    out.set(
        "trace_overhead_frac",
        median(&traced_ms) / median(&plain_ms) - 1.0,
    );

    // The engine layer under the sweeps: each fcat/scat site inventory
    // of the pool, with the server's per-site seeds, through the timing
    // sink (the sharded sweep reports only whole sites to its sink).
    let mut site_sink = TimingSink::new(0);
    let (mut inventories, mut air_us, mut allocs) = (0u64, 0.0, 0u64);
    for request in requests.iter().filter(|r| r.churn.is_none()) {
        let deployment = Deployment::uniform(
            &mut seeded_rng(request.config.seed()),
            request.tags,
            request.width,
            request.height,
        );
        let positions = deployment
            .try_grid_positions(request.spacing)
            .map_err(|e| e.to_string())?;
        for (site, &(x, y)) in positions.iter().enumerate() {
            let tags = deployment.in_range(x, y, request.range);
            let config = request
                .config
                .clone()
                .with_seed(derive_seed(request.config.seed(), site as u64));
            let pair = match request.protocol.as_str() {
                "fcat" => Some(site_pair(
                    &Fcat::new(FcatConfig::default().with_lambda(request.lambda)),
                    &tags,
                    &config,
                    &mut site_sink,
                )),
                "scat" => Some(site_pair(
                    &Scat::new(ScatConfig::default().with_lambda(request.lambda)),
                    &tags,
                    &config,
                    &mut site_sink,
                )),
                _ => None,
            };
            if let Some((plain, traced, delta)) = pair {
                out.attempted += 1;
                match (plain, traced) {
                    (Ok(a), Ok(b)) if a == b && a.identified == tags.len() => {
                        inventories += 1;
                        air_us += a.elapsed_us;
                        allocs += delta;
                    }
                    _ => out.fail(format!(
                        "site {site} of seed {}: traced inventory differs or is incomplete",
                        request.config.seed()
                    )),
                }
            }
        }
    }
    let per = inventories.max(1) as f64;
    site_sink.report_slot_times(&mut out);
    out.set("slots_per_inventory", site_sink.slots as f64 / per);
    out.set("sim.air_ms_per_inventory", air_us / 1e3 / per);
    out.set(
        "estimator.updates",
        site_sink.estimator_updates as f64 / per,
    );
    out.set(
        "allocs_per_slot",
        allocs as f64 / site_sink.slots.max(1) as f64,
    );
    out.set(
        "hash.tests_per_inventory",
        site_sink.hash_tests as f64 / per,
    );

    let tags = layers::tags_for(1_000, args.seed);
    let (lambda, omega) = {
        let config = FcatConfig::default();
        (config.lambda(), config.omega())
    };
    layers::LayerCells {
        tags: &tags,
        lambda,
        omega,
        hash_bits: requests[0].config.hash_bits(),
        seed: args.seed,
    }
    .measure(&mut out, stream_sink.captured());
    out.set("serve.parse_us", layers::parse_us(&pool, &options));
    let shapes: Vec<(usize, usize, f64, f64)> = requests
        .iter()
        .filter_map(|r| r.churn.map(|c| (r.tags, c.rounds, c.rate, c.dwell)))
        .collect();
    out.set(
        "population.generate_us",
        layers::population_generate_us(&shapes, args.seed),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_pool_is_seed_deterministic() {
        let pool = request_pool(9);
        assert_eq!(pool, request_pool(9));
        assert_ne!(pool, request_pool(10));
        let options = server_options();
        for (i, line) in pool.iter().enumerate() {
            let request = parse_request(line, &options).expect("pool requests are valid");
            assert_eq!(request.churn.is_some(), i % 2 == 1, "{line}");
        }
    }

    #[test]
    fn served_streams_pass_both_oracles() {
        let pool = request_pool(3);
        let server = Server::spawn(server_options()).unwrap();
        let mut client = Client::connect(&server).unwrap();
        let served: Vec<Served> = (0..4)
            .map(|i| client.request(i, &pool[i]).unwrap())
            .collect();
        drop(client);
        server.shutdown();
        for s in &served {
            assert_eq!(s.stream_check, Ok(0), "request {}", s.pool_index);
        }
        assert!(verify_results(&served, &pool, &server_options()).is_empty());

        // A tampered result fails the result oracle; a stream missing its
        // site lines fails the stream oracle.
        let mut tampered = served.into_iter().nth(1).expect("a churn request");
        tampered.result = tampered
            .result
            .replace("\"unique\":", "\"unique\":1")
            .into();
        assert_eq!(
            verify_results(&[tampered], &pool, &server_options()).len(),
            1
        );
        assert!(check_stream(
            "{\"type\":\"accepted\"}",
            "",
            "{\"type\":\"result\",\"sites\":1,\"slices\":1,\"unique_tags\":0,\
             \"cross_site_duplicates\":0,\"events_emitted\":0,\"dropped_events\":0}"
        )
        .is_err());
    }
}
