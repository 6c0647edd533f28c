//! Building, starting, probing and stopping the release daemon
//! (`express-noc-cli serve`), and reading its CPU time and peak memory
//! from `/proc`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Builds the daemon from the checkout's sources with cargo and returns
/// the path of the binary. `CARGO_TARGET_DIR` is honoured.
pub fn build() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "Cargo.toml",
            "--bin",
            "express-noc-cli",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the daemon failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = target.join("release").join("express-noc-cli");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("daemon binary missing at {}", bin.display()))
    }
}

/// A running daemon child process.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Starts the daemon on an ephemeral loopback port and waits until it
    /// answers a `health` request.
    pub fn start(bin: &PathBuf, cache: usize) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--cache",
                &cache.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut lines = BufReader::new(stdout);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let read = lines.read_line(&mut line).unwrap_or(0);
            if read == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon exited before listening".into());
            }
            if let Some(rest) = line.strip_prefix("noc-service listening on ") {
                break rest.split_whitespace().next().unwrap_or("").to_string();
            }
        };
        // The daemon prints two more lines at most, which the pipe holds;
        // the read end stays open so its last line can still be written.
        let mut daemon = Daemon {
            child,
            _stdout: lines,
            addr,
        };
        match daemon.round_trip(r#"{"id":"ready","kind":"health"}"#) {
            Ok(reply) if reply.contains(r#""ok":true"#) => Ok(daemon),
            Ok(reply) => {
                daemon.kill();
                Err(format!("health probe failed: {reply}"))
            }
            Err(e) => {
                daemon.kill();
                Err(format!("health probe failed: {e}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One request line on a fresh connection; returns the first reply line.
    pub fn round_trip(&self, line: &str) -> Result<String, String> {
        let mut stream = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        BufReader::new(stream)
            .read_line(&mut reply)
            .map_err(|e| e.to_string())?;
        Ok(reply.trim_end().to_string())
    }

    /// User plus system CPU time of the daemon so far, in milliseconds.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("cannot read daemon stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line, in clock ticks (USER_HZ =
        // 100 on Linux).
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or("malformed stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| "malformed stat".to_string())
        };
        Ok((ticks(11)? + ticks(12)?) * 10.0)
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read daemon status: {e}"))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or("no VmHWM in daemon status")?;
        Ok(kb / 1024.0)
    }

    /// Asks the daemon to drain and exit, and waits for it; kills it if it
    /// has not exited within ten seconds.
    pub fn stop(mut self) {
        let _ = self.round_trip(r#"{"id":"bye","kind":"shutdown"}"#);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}
