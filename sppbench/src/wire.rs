//! The client side of the `spp serve` wire protocol, written here from
//! the protocol's description (4-byte big-endian length, then UTF-8
//! JSON) rather than borrowed from the server crate, plus the daemon
//! process the `serve-hot` workload starts and stops.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use spp_obs::json::Json;

pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    w.write_all(&frame)
}

pub fn read_frame(r: &mut impl Read) -> io::Result<String> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// The value of the first `"id":"…"` field, without a full JSON parse
/// (the reader threads only need to match replies to requests).
pub fn reply_id(text: &str) -> Option<&str> {
    let start = text.find("\"id\":\"")? + 6;
    let len = text[start..].find('"')?;
    Some(&text[start..start + len])
}

pub fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    Ok(stream)
}

/// One control round trip (`ping`, `stats`, `shutdown`).
pub fn control(addr: &str, op: &str) -> io::Result<Json> {
    let mut stream = connect(addr)?;
    write_frame(&mut stream, &format!("{{\"op\":\"{op}\"}}"))?;
    let text = read_frame(&mut stream)?;
    Json::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// A running `spp serve` process. Dropping it kills and reaps the
/// process if [`Daemon::stop`] did not already.
pub struct Daemon {
    child: Option<Child>,
    // Held open so a late write to stdout cannot fail in the daemon.
    stdout: BufReader<std::process::ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Starts `spp serve` on an ephemeral loopback port and waits until it
    /// answers a ping.
    pub fn start(spp: &Path, workers: usize) -> io::Result<Daemon> {
        let mut child = Command::new(spp)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &workers.to_string(),
            ])
            .args(["--cache-mb", "64"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        // From here on, an early return drops (kills and reaps) the child.
        let mut daemon = Daemon {
            child: Some(child),
            stdout,
            addr: String::new(),
        };
        let mut line = String::new();
        daemon.stdout.read_line(&mut line)?;
        daemon.addr = line
            .trim()
            .rsplit(' ')
            .next()
            .filter(|a| a.contains(':'))
            .ok_or_else(|| io::Error::other(format!("unexpected daemon banner {line:?}")))?
            .to_owned();
        let pong = control(&daemon.addr, "ping")?;
        if pong.get("op").and_then(Json::as_str) != Some("pong") {
            return Err(io::Error::other("daemon did not answer ping"));
        }
        Ok(daemon)
    }

    pub fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Asks the daemon to drain and waits (up to 20 s) for it to exit;
    /// kills it past that.
    pub fn stop(&mut self) -> io::Result<()> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let asked = control(&self.addr, "shutdown");
        let until = Instant::now() + Duration::from_secs(20);
        while asked.is_ok() && Instant::now() < until {
            if let Some(status) = child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("daemon exited with {status}")))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = child.kill();
        child.wait()?;
        Err(io::Error::other("daemon did not drain; killed"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// CPU time a process has used (user + system), in seconds, from
/// `/proc/<pid>/stat`; `None` off Linux. Unlike wall-clock time it does not
/// grow while the hypervisor runs other guests.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesized command name; utime and stime are the
    // 14th and 15th fields overall, in USER_HZ (100 per second) ticks.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(ticks as f64 / 100.0)
}

/// Peak resident set of a process, in MiB (`VmHWM`), or `None` off Linux.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
