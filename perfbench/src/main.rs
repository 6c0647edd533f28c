//! Benchmark of the express-noc placement daemon.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload design_flow --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Builds the release daemon from the checkout, starts it as a child
//! process, drives one workload over loopback TCP, checks every answer,
//! and prints one JSON line of results last on stdout. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the same workload
//! and then replays its requests in this process through the crates'
//! public functions to report per-layer metrics. See README.md.

mod checks;
mod daemon;
mod loadgen;
mod trace;
mod util;
mod workloads;

use daemon::Daemon;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;
use util::{median, parse_line, quantile, response_fault};
use workloads::{Request, Workload, CACHE_CAPACITY};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                map.insert(flag.trim_start_matches("--").to_string(), value.clone());
            }
            _ => return Err(format!("bad arguments {argv:?}")),
        }
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let seconds: f64 = get("seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    })
}

/// A metric as printed: value and unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// The expected replay answer of one working-set entry (the priming
/// answer with the cache flag set), or why the entry cannot be replayed.
type Expected = Result<Vec<String>, String>;

/// Sends the working set once, in order, on one connection. Every answer
/// must be a fresh (uncached) success that passes its checks.
fn prime(
    daemon: &Daemon,
    set: &[Request],
    checker: &checks::Checker,
) -> Result<Vec<Expected>, String> {
    if set.is_empty() {
        return Ok(Vec::new());
    }
    let mut stream = TcpStream::connect(&daemon.addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut expected = Vec::new();
    for request in set {
        stream
            .write_all(format!("{}\n", request.line).as_bytes())
            .map_err(|e| e.to_string())?;
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("daemon closed the priming connection".into());
            }
            let line = line.trim_end().to_string();
            let last = parse_line(&line)
                .map(|v| util::ends_response(&v))
                .unwrap_or(true);
            lines.push(line);
            if last {
                break;
            }
        }
        let summary = lines.last().expect("at least one line");
        let fault = parse_line(summary)
            .map_or(Some("unparsable answer".to_string()), |v| {
                response_fault(&v)
            })
            .or_else(|| {
                (!summary.contains(r#""cached":false"#)).then(|| "priming answer was cached".into())
            })
            .or_else(|| checker.check(&request.line, &lines).err());
        expected.push(match fault {
            Some(f) => Err(format!("priming {}: {f}", request.id)),
            None => {
                let last = lines.len() - 1;
                lines[last] = lines[last].replacen(r#""cached":false"#, r#""cached":true"#, 1);
                Ok(lines)
            }
        });
    }
    Ok(expected)
}

/// Starts the daemon (and primes it) `reps` times, returning the median
/// set-up time, the last daemon and its priming answers.
fn set_up(
    bin: &std::path::PathBuf,
    w: &Workload,
    checker: &checks::Checker,
    reps: usize,
) -> Result<(f64, Daemon, Vec<Expected>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        if let Some((d, _)) = last.take() {
            Daemon::stop(d);
        }
        let t = Instant::now();
        let d = Daemon::start(bin, CACHE_CAPACITY)?;
        let expected = prime(&d, &w.prime, checker)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some((d, expected));
    }
    let (d, expected) = last.expect("at least one set-up");
    Ok((median(&times), d, expected))
}

pub struct Measured {
    pub run: loadgen::RunResult,
    pub wrong: usize,
}

/// Why a replayed answer is wrong: it must equal, byte for byte, the
/// answer the same line got as a miss during priming, marked cached.
fn replay_fault(expected: &[Expected], request: &Request, lines: &[String]) -> Option<String> {
    let slot = request.id.trim_start_matches('w').parse::<usize>().ok()?;
    match &expected[slot] {
        Err(f) => Some(f.clone()),
        Ok(want) if want.as_slice() == lines => None,
        Ok(_) => Some("replayed answer differs from the primed one".into()),
    }
}

/// Runs the workload against a set-up daemon and checks the answers.
fn measure(
    w: &Workload,
    daemon: &Daemon,
    expected: &[Expected],
    checker: &checks::Checker,
    seconds: f64,
) -> Result<(Measured, f64), String> {
    let replay = |request: &Request, lines: &[String]| replay_fault(expected, request, lines);
    let inline: Option<loadgen::InlineCheck> = if expected.is_empty() {
        None
    } else {
        Some(&replay)
    };
    let cpu0 = daemon.cpu_ms()?;
    let mut run = loadgen::run(w, &daemon.addr, seconds, inline);
    let cpu_ms = daemon.cpu_ms()? - cpu0;
    // Answers not checked inline are checked now, after the window, so
    // the checks take no CPU from the daemon while it is measured.
    let mut wrong = 0;
    for o in &mut run.outcomes {
        if o.fault.is_none() && !o.lines.is_empty() {
            if let Err(e) = checker.check(&w.request(o.index).line, &o.lines) {
                o.fault = Some(format!("check failed: {e}"));
            }
        }
        if o.fault.as_deref().is_some_and(|f| {
            f.starts_with("check failed") || f.starts_with("replayed") || f.starts_with("priming")
        }) {
            wrong += 1;
        }
    }
    Ok((Measured { run, wrong }, cpu_ms))
}

fn end_to_end(w: &Workload, m: &Measured, cpu_ms: f64, setup_s: f64, rss_mb: f64) -> Metrics {
    let ok: Vec<f64> = m
        .run
        .outcomes
        .iter()
        .filter(|o| o.fault.is_none())
        .map(loadgen::Outcome::latency_ms)
        .collect();
    let completed = ok.len().max(1) as f64;
    let mut metrics = Metrics::new();
    metrics.insert(
        "throughput_rps",
        (ok.len() as f64 / m.run.elapsed_s.max(1e-9), "req/s"),
    );
    metrics.insert("latency_p50_ms", (median(&ok), "ms"));
    metrics.insert("latency_tail_ms", (quantile(&ok, w.tail_q), "ms"));
    metrics.insert("cpu_ms_per_req", (cpu_ms / completed, "ms"));
    metrics.insert("setup_s", (setup_s, "s"));
    metrics.insert("peak_rss_mb", (rss_mb, "MiB"));
    metrics
}

fn report(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#)
        })
        .collect();
    format!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        body.join(",")
    )
}

fn run(args: &Args) -> Result<String, String> {
    let w = Workload::new(&args.workload, args.seed).ok_or_else(|| {
        format!(
            "unknown workload {:?} (one of {:?})",
            args.workload,
            workloads::NAMES
        )
    })?;
    let bin = daemon::build()?;
    let checker = checks::Checker::default();
    // Set-up is timed as the median of five; the traced run needs one.
    let reps = if args.trace { 1 } else { 5 };
    let (setup_s, daemon, expected) = set_up(&bin, &w, &checker, reps)?;
    let (m, cpu_ms) = measure(&w, &daemon, &expected, &checker, args.seconds)?;
    let rss_mb = daemon.peak_rss_mb()?;
    daemon.stop();
    let attempted = m.run.outcomes.len();
    let failed = m.run.outcomes.iter().filter(|o| o.fault.is_some()).count();
    for o in m.run.outcomes.iter().filter(|o| o.fault.is_some()).take(5) {
        eprintln!(
            "failed request {}: {}",
            w.request(o.index).id,
            o.fault.as_deref().unwrap_or("")
        );
    }
    let (metrics, disagreements) = if args.trace {
        trace::per_layer(&w, &m, args.seed)?
    } else {
        (end_to_end(&w, &m, cpu_ms, setup_s, rss_mb), 0)
    };
    for (name, (value, unit)) in &metrics {
        println!("{:<18} {name:<30} {value:>14.4} {unit}", w.name);
    }
    Ok(report(
        m.wrong + disagreements == 0,
        attempted,
        failed + disagreements,
        &metrics,
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_check_rejects_a_changed_hit() {
        let request = Request {
            id: "w0".into(),
            kind: "solve",
            line: String::new(),
        };
        let primed =
            r#"{"id":"w0","ok":true,"cached":true,"result":{"objective":6.5}}"#.to_string();
        let expected = vec![Ok(vec![primed.clone()])];
        assert_eq!(
            replay_fault(&expected, &request, std::slice::from_ref(&primed)),
            None
        );
        let changed = primed.replace("6.5", "6.25");
        assert!(replay_fault(&expected, &request, &[changed]).is_some());
        let uncached = primed.replace(r#""cached":true"#, r#""cached":false"#);
        assert!(replay_fault(&expected, &request, &[uncached]).is_some());
    }
}
