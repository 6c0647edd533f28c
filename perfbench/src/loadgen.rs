//! The load generator: drives one workload against the daemon over
//! loopback TCP, one thread per connection, and records every request's
//! timing and answer.

use crate::util::{ends_response, parse_line, response_fault};
use crate::workloads::{Request, Workload};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What happened to one request. Times are seconds from the run start.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub index: usize,
    /// When the connection became free for the request.
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    /// The response lines, kept only when checks run after the window.
    pub lines: Vec<String>,
    pub fault: Option<String>,
}

impl Outcome {
    /// Latency from when the request was due, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

/// A check run on each answer as it arrives, instead of keeping it.
pub type InlineCheck<'a> = &'a (dyn Fn(&Request, &[String]) -> Option<String> + Sync);

pub struct RunResult {
    pub outcomes: Vec<Outcome>,
    /// Wall time from the run start to the last answer, in seconds.
    pub elapsed_s: f64,
}

fn connect(addr: &str) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// Reads the complete answer to one request: one line, or for a stream
/// every item line up to the summary.
fn read_answer(reader: &mut BufReader<TcpStream>, lines: &mut Vec<String>) -> std::io::Result<()> {
    loop {
        let mut buf = Vec::new();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        let line = String::from_utf8_lossy(&buf).trim_end().to_string();
        let last = parse_line(&line).map(|v| ends_response(&v)).unwrap_or(true);
        lines.push(line);
        if last {
            return Ok(());
        }
    }
}

fn judge(
    request: &Request,
    lines: Vec<String>,
    inline: Option<InlineCheck>,
) -> (Vec<String>, Option<String>) {
    let fault = lines
        .iter()
        .find_map(|l| parse_line(l).map_or(Some("unparsable line".into()), |v| response_fault(&v)));
    match (fault, inline) {
        (Some(f), _) => (Vec::new(), Some(f)),
        (None, Some(check)) => (Vec::new(), check(request, &lines)),
        (None, None) => (lines, None),
    }
}

/// Runs whole rounds of `workload` for about `seconds`, closed loop: each
/// connection sends its next request once the previous one is answered.
/// Requests are taken from one shared sequence; once the time is up, the
/// run finishes the round in progress and stops.
pub fn run(
    workload: &Workload,
    addr: &str,
    seconds: f64,
    inline: Option<InlineCheck>,
) -> RunResult {
    let round = workload.round_len();
    let next = AtomicUsize::new(0);
    let stop_at = AtomicUsize::new(usize::MAX);
    let all = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workload.connections {
            scope.spawn(|| {
                let mut mine = Vec::new();
                let mut conn = connect(addr).ok();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if start.elapsed().as_secs_f64() >= seconds {
                        let _ = stop_at.compare_exchange(
                            usize::MAX,
                            i.div_ceil(round) * round,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        );
                    }
                    if i >= stop_at.load(Ordering::SeqCst) {
                        break;
                    }
                    // The request is due as soon as the connection is
                    // free; building it counts as generator lag.
                    let due = start.elapsed().as_secs_f64();
                    let request = workload.request(i);
                    let sent = start.elapsed().as_secs_f64();
                    let mut lines = Vec::new();
                    let answer = match conn.as_mut() {
                        Some((stream, reader)) => stream
                            .write_all(format!("{}\n", request.line).as_bytes())
                            .and_then(|_| read_answer(reader, &mut lines)),
                        None => Err(ErrorKind::NotConnected.into()),
                    };
                    let done = start.elapsed().as_secs_f64();
                    let (lines, fault) = match answer {
                        Ok(_) => judge(&request, lines, inline),
                        Err(e) => {
                            // A broken connection is replaced for the
                            // requests that follow.
                            conn = connect(addr).ok();
                            (Vec::new(), Some(format!("transport error: {e}")))
                        }
                    };
                    mine.push(Outcome {
                        index: i,
                        due,
                        sent,
                        done,
                        lines,
                        fault,
                    });
                }
                all.lock().expect("no loadgen thread panics").extend(mine);
            });
        }
    });
    finish(all.into_inner().expect("no loadgen thread panics"))
}

fn finish(mut outcomes: Vec<Outcome>) -> RunResult {
    outcomes.sort_by_key(|o| o.index);
    RunResult {
        elapsed_s: outcomes.iter().map(|o| o.done).fold(0.0, f64::max),
        outcomes,
    }
}
