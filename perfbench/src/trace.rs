//! Traced mode: per-layer metrics measured from outside the program.
//!
//! After the TCP run, the workload's requests are replayed in this
//! process through the crates' public functions, each call wrapped in a
//! span (name, start, end, parent, request id). Three passes run over the
//! same requests, each with its own cache:
//!
//! 1. the service pipeline without spans, for the tracing overhead;
//! 2. the same pipeline with spans — `protocol::parse_request`,
//!    `exec::cache_key`, `ShardedLru::get`/`put`, `exec::execute_within`,
//!    `protocol::wire_lines` — whose answers must equal the daemon's
//!    byte for byte;
//! 3. the engines called directly — `initial_solution`, `anneal`,
//!    `optimize_network`, `exhaustive_optimal`, `compute_frontier`,
//!    `DorRouter::new` + `NetTables::build`, the scalar `Simulator`,
//!    `SweepRunner::run_rates` waves and the refinement run — whose
//!    results must equal the daemon's.
//!
//! A seeded sample of `simulate` and `throughput` requests is also
//! recomputed with another sweep worker count and lane count, and must
//! come out bit-identical.
//!
//! Each engine layer is measured on the workload's own requests when the
//! workload sends the request kind that reaches it. An engine layer the
//! workload never reaches is measured on one fixed probe request of that
//! kind, taken from the workload that does send it and called directly,
//! so every per-layer metric is a measured figure; which source a metric
//! has depends only on the workload, never on a run. Spans are kept in memory
//! and written to `perfbench/out/spans-<workload>-<seed>.jsonl` when the
//! run ends.

use crate::loadgen::Outcome;
use crate::util::{mean, median, parse_line, Rng};
use crate::workloads::{Request, Workload, CACHE_CAPACITY};
use crate::{Measured, Metrics};
use noc_json::Value;
use noc_model::{LinkBudget, PacketMix};
use noc_placement::{
    anneal, exhaustive_optimal, initial_solution, optimize_network, AllPairsObjective,
    InitialStrategy, SaParams,
};
use noc_routing::{DorRouter, HopWeights};
use noc_service::exec::{cache_key, execute_within};
use noc_service::protocol::{self, parse_request, Request as Call, Response};
use noc_service::ShardedLru;
use noc_sim::{NetTables, SimConfig, SimStats, Simulator, SweepRunner};
use noc_topology::{MeshTopology, RowPlacement};
use noc_traffic::{TrafficMatrix, Workload as Traffic};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds from the recorder's origin.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    request: usize,
}

/// In-memory span recorder with a parent stack.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` of request `request`.
    fn span<T>(&mut self, name: &'static str, request: usize, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent,
            request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Self time of every span in milliseconds: its duration minus the
    /// part its children cover.
    fn self_times(&self) -> Vec<f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c) as f64 / 1e6)
            .collect()
    }

    /// Self times (ms) of every span named `name`.
    fn named(&self, name: &str) -> Vec<f64> {
        let own = self.self_times();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    fn write(&self, path: &str) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"span":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

/// A request replayed in process: its line and, when known, the answer
/// lines the daemon gave it.
struct Replay {
    kind: &'static str,
    line: String,
    daemon: Option<Vec<String>>,
    outcome: Option<Outcome>,
}

/// The service pipeline for one request, as the daemon runs it for a
/// line that is not forwarded: parse, key, cache lookup, execute and
/// store on a miss, serialize. Returns the wire lines and whether the
/// cache answered. Without a recorder it runs the same calls untimed.
fn pipeline(
    line: &str,
    cache: &ShardedLru,
    mut rec: Option<&mut Recorder>,
    request: usize,
) -> (Vec<String>, bool) {
    let mut step = |name: &'static str, f: &mut dyn FnMut()| match rec.as_deref_mut() {
        Some(r) => r.span(name, request, |_| f()),
        None => f(),
    };
    let mut envelope = None;
    step("service.parse", &mut || envelope = parse_request(line).ok());
    let Some(envelope) = envelope else {
        return (vec!["unparsable".into()], false);
    };
    let mut key = None;
    step("service.cache_key", &mut || {
        key = cache_key(&envelope.request)
    });
    let mut hit = None;
    if let Some(k) = &key {
        step("service.cache_get", &mut || hit = cache.get(k));
    }
    let cached = hit.is_some();
    let value = match hit {
        Some(v) => v,
        None => {
            let mut out = None;
            let deadline = Instant::now() + Duration::from_millis(envelope.deadline_ms);
            step("service.execute", &mut || {
                out = Some(execute_within(&envelope.request, Some(deadline)))
            });
            match out.expect("execute ran") {
                Ok(o) => {
                    if let (Some(k), false) = (key.clone(), o.degraded) {
                        let mut entry = Some((k, o.value.clone()));
                        step("service.cache_put", &mut || {
                            if let Some((k, v)) = entry.take() {
                                cache.put(k, v);
                            }
                        });
                    }
                    o.value
                }
                Err(e) => Value::Str(format!("{e:?}")),
            }
        }
    };
    let response = Response::ok(envelope.id.clone(), cached, value);
    let mut lines = Vec::new();
    step("service.serialize", &mut || {
        lines = protocol::wire_lines(&response)
    });
    (lines, cached)
}

/// Counters gathered by the engine pass. Each counter belongs to one
/// request kind (`cycles` and `packets` to the scalar runs of
/// `simulate`), so own requests and probes never add to the same one.
#[derive(Default)]
struct Engine {
    moves: f64,
    evaluations: u64,
    scalarizations: u64,
    cycles: u64,
    packets: u64,
    lane_cycles: u64,
    kept: u64,
    simulated: u64,
    mismatches: Vec<String>,
}

fn sim_setup(n: usize, links: &[(usize, usize)]) -> Result<MeshTopology, String> {
    let row = RowPlacement::with_links(n, links.to_vec()).map_err(|e| e.to_string())?;
    Ok(MeshTopology::uniform(n, &row))
}

fn same(a: f64, b: Option<f64>) -> bool {
    b.is_some_and(|b| a.to_bits() == b.to_bits() || (a - b).abs() <= 1e-12 * a.abs().max(1.0))
}

/// Compares recomputed simulation statistics with a daemon payload.
fn stats_match(stats: &SimStats, payload: &Value) -> bool {
    let f = |k: &str| payload.get(k).and_then(Value::as_f64);
    same(stats.avg_packet_latency, f("avg_latency"))
        && same(stats.p50_latency, f("p50_latency"))
        && same(stats.p99_latency, f("p99_latency"))
        && same(stats.accepted_throughput, f("accepted_throughput"))
        && payload.get("measured_packets").and_then(Value::as_u64) == Some(stats.measured_packets)
        && payload.get("cycles").and_then(Value::as_u64) == Some(stats.cycles)
}

fn result_of(lines: &Option<Vec<String>>) -> Option<Value> {
    lines
        .as_ref()
        .and_then(|l| l.last())
        .and_then(|l| parse_line(l))
        .and_then(|v| v.get("result").cloned())
}

/// The geometric rate ladder of a saturation sweep: `start`, then ×1.3
/// capped at 1.
fn ladder(start: f64) -> Vec<f64> {
    let mut rates = vec![start];
    let mut rate = start;
    while rate < 1.0 {
        rate = (rate * 1.3).min(1.0);
        rates.push(rate);
    }
    rates
}

/// Calls the engine entry points behind one request directly.
fn engines(
    call: &Call,
    rec: &mut Recorder,
    request: usize,
    daemon: Option<Value>,
    e: &mut Engine,
) -> Result<(), String> {
    match call {
        Call::Solve(r) => {
            let objective = AllPairsObjective::with_weights(r.weights);
            let params = SaParams::paper().with_moves(r.moves).with_chains(r.chains);
            let init = rec.span("placement.init", request, |_| {
                initial_solution(r.n, r.c, &objective)
            });
            let out = rec.span("placement.anneal", request, |_| {
                anneal(
                    r.c,
                    &init.placement,
                    &objective,
                    &params,
                    r.seed,
                    init.evaluations,
                )
            });
            e.moves += r.moves as f64;
            e.evaluations += out.evaluations as u64;
            if let Some(d) = daemon {
                if !same(
                    out.best_objective,
                    d.get("objective").and_then(Value::as_f64),
                ) {
                    e.mismatches.push(format!(
                        "request {request}: init + anneal differs from the daemon's solve"
                    ));
                }
            }
        }
        Call::Sweep(r) => {
            let budget = LinkBudget {
                n: r.n,
                base_flit_bits: r.base_flit,
            };
            let design = rec.span("placement.sweep", request, |_| {
                optimize_network(
                    &budget,
                    &PacketMix::paper(),
                    HopWeights::PAPER,
                    InitialStrategy::DivideAndConquer,
                    &SaParams::paper(),
                    r.seed,
                )
            });
            if let Some(d) = daemon {
                if !same(
                    design.best().avg_latency,
                    d.get("best_latency").and_then(Value::as_f64),
                ) {
                    e.mismatches.push(format!(
                        "request {request}: optimize_network differs from the daemon's sweep"
                    ));
                }
            }
        }
        Call::Optimal(r) => {
            let out = rec.span("placement.optimal", request, |_| {
                exhaustive_optimal(r.n, r.c, &AllPairsObjective::with_weights(r.weights))
            });
            e.evaluations += out.evaluations as u64;
        }
        Call::Frontier(r) => {
            let mut cfg = noc_pareto::FrontierConfig::paper(r.n, r.seed);
            cfg.base_flit_bits = r.base_flit;
            cfg.weight_steps = r.weight_steps;
            cfg.sa = SaParams::paper().with_moves(r.moves);
            cfg.workers = r.workers;
            let out = rec.span("pareto.frontier", request, |_| {
                noc_pareto::compute_frontier(&cfg)
            });
            e.scalarizations += out.scalarizations as u64;
        }
        Call::Simulate(r) => {
            let topo = sim_setup(r.n, &r.links)?;
            let mut config = SimConfig::latency_run(r.flit, r.seed);
            config.measure_cycles = r.cycles;
            let tables = rec.span("routing.tables", request, |_| {
                let dor = DorRouter::new(&topo, config.weights);
                NetTables::build(&topo, &dor, config.vcs_per_port)
            });
            let traffic = Traffic::new(
                TrafficMatrix::from_pattern(r.pattern, r.n),
                r.rate,
                PacketMix::paper(),
            );
            let stats = rec.span("sim.scalar_run", request, |_| {
                Simulator::with_tables(Arc::new(tables), traffic, config).run()
            });
            e.cycles += stats.cycles;
            e.packets += stats.measured_packets;
            if let Some(d) = daemon {
                if !stats_match(&stats, &d) {
                    e.mismatches.push(format!(
                        "request {request}: scalar run differs from the daemon's simulate"
                    ));
                }
            }
        }
        Call::Throughput(r) => {
            let topo = sim_setup(r.n, &r.links)?;
            let config = SimConfig::throughput_run(r.flit, r.seed);
            let traffic = Traffic::new(
                TrafficMatrix::from_pattern(r.pattern, r.n),
                r.start_rate,
                PacketMix::paper(),
            );
            let runner = SweepRunner::new(r.workers).with_batch_lanes(r.lanes);
            let rates = ladder(r.start_rate);
            let wave = runner.workers().max(1) * runner.batch_lanes().max(1);
            let mut samples: Vec<(f64, f64)> = Vec::new();
            let mut stop = rates.len() - 1;
            'waves: for chunk in rates.chunks(wave) {
                let stats = rec.span("sim.batch_wave", request, |_| {
                    runner.run_rates(&topo, &traffic, &config, chunk)
                });
                e.simulated += chunk.len() as u64;
                for (k, s) in stats.iter().enumerate() {
                    e.lane_cycles += s.cycles;
                    let offered = s.measured_packets as f64
                        / (s.measure_cycles.max(1) as f64 * s.nodes as f64);
                    samples.push((offered, s.accepted_throughput));
                    if s.accepted_throughput < 0.9 * offered || chunk[k] >= 1.0 {
                        stop = samples.len() - 1;
                        break 'waves;
                    }
                }
            }
            samples.truncate(stop + 1);
            e.kept += samples.len() as u64;
            if samples.len() >= 2 {
                let mid = (rates[stop - 1] + rates[stop]) / 2.0;
                let s = rec.span("sim.refine", request, |_| {
                    Simulator::new(&topo, traffic.at_rate(mid), config).run()
                });
                samples.push((
                    s.measured_packets as f64 / (s.measure_cycles.max(1) as f64 * s.nodes as f64),
                    s.accepted_throughput,
                ));
            }
            if let Some(d) = daemon {
                let top = samples.iter().map(|s| s.1).fold(0.0, f64::max);
                let count = d
                    .get("samples")
                    .and_then(Value::as_array)
                    .map(<[Value]>::len);
                if !same(top, d.get("saturation").and_then(Value::as_f64))
                    || count != Some(samples.len())
                {
                    e.mismatches.push(format!(
                        "request {request}: waves + refinement differ from the daemon's sweep"
                    ));
                }
            }
        }
        _ => {}
    }
    Ok(())
}

/// Recomputes a `simulate` or `throughput` request with another worker
/// and lane count; the answer must be bit-identical to the daemon's.
fn recompute(call: &Call, daemon: &Option<Vec<String>>, line: &str) -> Option<String> {
    let result = result_of(daemon)?;
    match call {
        Call::Throughput(r) => {
            // Four scalar points per wave on four threads: the sweep
            // runner fans out only from three items per wave up.
            let mut other = r.clone();
            (other.workers, other.lanes) = if (r.workers, r.lanes) == (4, 1) {
                (3, 2)
            } else {
                (4, 1)
            };
            let out = execute_within(&Call::Throughput(other), None).ok()?;
            let mine = Response::ok("", false, out.value).to_line();
            let theirs = Response::ok("", false, result).to_line();
            (mine != theirs).then(|| format!("throughput with other workers/lanes differs: {line}"))
        }
        Call::Simulate(r) => {
            let topo = sim_setup(r.n, &r.links).ok()?;
            let mut config = SimConfig::latency_run(r.flit, r.seed);
            config.measure_cycles = r.cycles;
            let traffic = Traffic::new(
                TrafficMatrix::from_pattern(r.pattern, r.n),
                r.rate,
                PacketMix::paper(),
            );
            // Six identical lanes as three two-lane lockstep passes on
            // three threads.
            let stats = SweepRunner::new(3).with_batch_lanes(2).run_rates(
                &topo,
                &traffic,
                &config,
                &[r.rate; 6],
            );
            (!stats.iter().all(|s| stats_match(s, &result)))
                .then(|| format!("simulate on the lockstep engine differs: {line}"))
        }
        _ => None,
    }
}

/// One probe per request kind `w` never sends: the first request of that
/// kind in the first round, under seed 0, of the workload that sends it.
/// Probes depend on `w` alone, never on the run.
fn probes(w: &Workload) -> Vec<Request> {
    let sent: Vec<&str> = (0..w.round_len())
        .map(|i| w.request(i).kind)
        .chain(w.prime.iter().map(|r| r.kind))
        .collect();
    let mut probes: Vec<Request> = Vec::new();
    for owner in ["design_flow", "sim_latency", "saturation_sweep"] {
        let o = Workload::new(owner, 0).expect("workload exists");
        for r in (0..o.round_len()).map(|i| o.request(i)) {
            if !sent.contains(&r.kind) && !probes.iter().any(|p| p.kind == r.kind) {
                probes.push(r);
            }
        }
    }
    probes
}

/// Replays the workload in process and derives the per-layer metrics.
/// Returns the metrics and the number of requests whose in-process
/// answers disagreed with the daemon's.
pub fn per_layer(w: &Workload, m: &Measured, seed: u64) -> Result<(Metrics, usize), String> {
    // The priming set, if the workload has one, then the first whole
    // rounds of the run, capped by cost.
    let rounds = match w.name {
        "design_flow" => 3,
        "sim_latency" => 2,
        "saturation_sweep" => 1,
        _ => 20_000 / w.round_len(),
    };
    let mut replays: Vec<Replay> = w
        .prime
        .iter()
        .map(|r: &Request| Replay {
            kind: r.kind,
            line: r.line.clone(),
            daemon: None,
            outcome: None,
        })
        .collect();
    let first_sample = replays.len();
    for o in m
        .run
        .outcomes
        .iter()
        .filter(|o| o.fault.is_none() && o.index < rounds * w.round_len())
    {
        let request = w.request(o.index);
        replays.push(Replay {
            kind: request.kind,
            line: request.line,
            daemon: (!o.lines.is_empty()).then(|| o.lines.clone()),
            outcome: Some(o.clone()),
        });
    }

    // Passes 1 and 2, interleaved request by request (alternating which
    // goes first) so neither pass warms up for the other: the pipeline
    // untraced, for the overhead ratio, and traced. Each pass has its own
    // cache.
    let (plain_cache, traced_cache) = (
        ShardedLru::new(CACHE_CAPACITY, 8),
        ShardedLru::new(CACHE_CAPACITY, 8),
    );
    let mut rec = Recorder::new();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut hits = 0usize;
    let mut wrong = 0usize;
    let mut pipeline_ms = vec![0.0; replays.len()];
    let mut executed = vec![false; replays.len()];
    for (i, r) in replays.iter().enumerate() {
        let mut plain = || {
            let t = Instant::now();
            black_box(pipeline(&r.line, &plain_cache, None, i));
            untraced_s += t.elapsed().as_secs_f64();
        };
        if i % 2 == 0 {
            plain();
        }
        let t = Instant::now();
        let (lines, cached) = rec.span("request", i, |rec| {
            pipeline(&r.line, &traced_cache, Some(rec), i)
        });
        traced_s += t.elapsed().as_secs_f64();
        if i % 2 == 1 {
            plain();
        }
        let root = rec
            .spans
            .iter()
            .rev()
            .find(|s| s.name == "request")
            .expect("root span");
        pipeline_ms[i] = (root.end - root.start) as f64 / 1e6;
        if i >= first_sample && cached {
            hits += 1;
        }
        executed[i] = !cached;
        if let Some(d) = &r.daemon {
            if d != &lines {
                wrong += 1;
                eprintln!("in-process answer differs from the daemon's for {}", r.line);
            }
        }
    }

    // Pass 3: engines called directly, for the requests that executed,
    // then for one probe of each request kind the workload never sends.
    let mut engine = Engine::default();
    for (i, r) in replays.iter().enumerate().filter(|(i, _)| executed[*i]) {
        let call = parse_request(&r.line)?.request;
        let known = result_of(&r.daemon);
        rec.span("engine", i, |rec| {
            engines(&call, rec, i, known, &mut engine)
        })?;
    }
    for (k, probe) in probes(w).iter().enumerate() {
        let call = parse_request(&probe.line)?.request;
        let i = replays.len() + k;
        rec.span("probe", i, |rec| engines(&call, rec, i, None, &mut engine))?;
    }
    for msg in &engine.mismatches {
        eprintln!("{msg}");
        wrong += 1;
    }

    // Determinism: a seeded sample of sim requests on other workers/lanes.
    let mut rng = Rng::new(seed ^ 0xde7e_2a11);
    let sims: Vec<&Replay> = replays[first_sample..]
        .iter()
        .filter(|r| matches!(r.kind, "simulate" | "throughput"))
        .collect();
    for _ in 0..sims.len().min(2) {
        let r = sims[rng.below(sims.len())];
        let call = parse_request(&r.line)?.request;
        if let Some(msg) = recompute(&call, &r.daemon, &r.line) {
            eprintln!("{msg}");
            wrong += 1;
        }
    }

    rec.write(&format!("perfbench/out/spans-{}-{seed}.jsonl", w.name))
        .map_err(|e| format!("cannot write spans: {e}"))?;

    // Per-request comparisons with the TCP run.
    let (mut overhead, mut queue, mut coverage) = (Vec::new(), Vec::new(), Vec::new());
    for (i, r) in replays.iter().enumerate() {
        if let Some(o) = &r.outcome {
            let from_send = (o.done - o.sent) * 1e3;
            overhead.push(from_send - pipeline_ms[i]);
            queue.push((o.latency_ms() - pipeline_ms[i]).max(0.0));
            coverage.push(pipeline_ms[i] / from_send.max(1e-9));
        }
    }
    let lag: Vec<f64> = m
        .run
        .outcomes
        .iter()
        .map(|o| (o.sent - o.due) * 1e3)
        .collect();

    let ms = |name: &str| median(&rec.named(name));
    let us = |name: &str| ms(name) * 1e3;
    let total_s = |name: &str| rec.named(name).iter().sum::<f64>() / 1e3;
    let sample_len = (replays.len() - first_sample).max(1);
    let mut out: BTreeMap<&'static str, (f64, &'static str)> = BTreeMap::new();
    out.insert("service.parse_us", (us("service.parse"), "us"));
    out.insert("service.cache_key_us", (us("service.cache_key"), "us"));
    out.insert("service.cache_get_us", (us("service.cache_get"), "us"));
    out.insert("service.cache_put_us", (us("service.cache_put"), "us"));
    out.insert("service.serialize_us", (us("service.serialize"), "us"));
    out.insert("service.execute_ms", (ms("service.execute"), "ms"));
    out.insert(
        "service.cache_hit_ratio",
        (hits as f64 / sample_len as f64, "ratio"),
    );
    out.insert("service.overhead_ms", (median(&overhead), "ms"));
    out.insert("service.queue_wait_ms", (mean(&queue), "ms"));
    out.insert("loadgen.lag_ms", (mean(&lag), "ms"));
    out.insert("placement.init_ms", (ms("placement.init"), "ms"));
    out.insert("placement.anneal_ms", (ms("placement.anneal"), "ms"));
    out.insert(
        "placement.moves_per_s",
        (engine.moves / total_s("placement.anneal").max(1e-12), "1/s"),
    );
    out.insert(
        "placement.evaluations",
        (engine.evaluations as f64, "count"),
    );
    out.insert("placement.sweep_ms", (ms("placement.sweep"), "ms"));
    out.insert("placement.optimal_ms", (ms("placement.optimal"), "ms"));
    out.insert("pareto.frontier_ms", (ms("pareto.frontier"), "ms"));
    out.insert(
        "pareto.scalarizations",
        (engine.scalarizations as f64, "count"),
    );
    out.insert("routing.tables_ms", (ms("routing.tables"), "ms"));
    out.insert("sim.scalar_run_ms", (ms("sim.scalar_run"), "ms"));
    let scalar_s = total_s("sim.scalar_run").max(1e-12);
    out.insert(
        "sim.scalar_cycles_per_s",
        (engine.cycles as f64 / scalar_s, "1/s"),
    );
    out.insert(
        "sim.packets_per_s",
        (engine.packets as f64 / scalar_s, "1/s"),
    );
    out.insert("sim.cycles", (engine.cycles as f64, "count"));
    out.insert("sim.batch_wave_ms", (ms("sim.batch_wave"), "ms"));
    out.insert("sim.refine_ms", (ms("sim.refine"), "ms"));
    out.insert(
        "sim.batch_lane_cycles_per_s",
        (
            engine.lane_cycles as f64 / total_s("sim.batch_wave").max(1e-12),
            "1/s",
        ),
    );
    out.insert(
        "sim.sweep_useful_ratio",
        (engine.kept as f64 / engine.simulated.max(1) as f64, "ratio"),
    );
    out.insert("trace.span_coverage", (median(&coverage), "ratio"));
    out.insert(
        "bench.trace_overhead_ratio",
        (traced_s / untraced_s.max(1e-12), "ratio"),
    );
    Ok((out, wrong))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_cover_only_kinds_the_workload_never_sends() {
        let kinds = |name: &str, seed: u64| -> Vec<&'static str> {
            probes(&Workload::new(name, seed).unwrap())
                .iter()
                .map(|r| r.kind)
                .collect()
        };
        assert_eq!(kinds("design_flow", 1), ["simulate", "throughput"]);
        let mut sim = kinds("sim_latency", 1);
        sim.sort_unstable();
        assert_eq!(sim, ["frontier", "optimal", "solve", "sweep", "throughput"]);
        assert!(kinds("cache_replay", 1).is_empty());
        for name in ["design_flow", "sim_latency", "saturation_sweep"] {
            let a: Vec<String> = probes(&Workload::new(name, 1).unwrap())
                .into_iter()
                .map(|r| r.line)
                .collect();
            let b: Vec<String> = probes(&Workload::new(name, 7).unwrap())
                .into_iter()
                .map(|r| r.line)
                .collect();
            assert_eq!(a, b, "{name}: probes depend on the seed");
        }
    }
}
