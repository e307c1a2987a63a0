//! The `serve tcp` child process and the wire client the workloads share.
//!
//! The server is always the real binary, spawned as a child and killed by a
//! drop guard. Its serving knobs are left at the binary's defaults, so a
//! change that improves a default shows up here; only the model flags are
//! pinned.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A reply later than this counts as failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(1);
/// Longest a server may take from spawn to its first reply (it trains first).
const SETUP_TIMEOUT: Duration = Duration::from_secs(150);

pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Server {
    /// Spawns `serve tcp <args>` on a free loopback port and waits for its
    /// first reply to a `TENANTS` probe. Returns the server and the time
    /// from spawn to that reply: graph generation, training and bind.
    pub fn start(serve_bin: &Path, args: &[String], log: &Path) -> Result<(Server, f64), String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("cannot pick a free port: {e}"))?
            .port();
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let log_file = std::fs::File::create(log).map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        let started = Instant::now();
        let child = Command::new(serve_bin)
            .arg("tcp")
            .args(["--addr", &addr.to_string()])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", serve_bin.display()))?;
        let mut server = Server { child, addr };
        // The binary binds before it trains, so the connect succeeds early
        // and the probe's reply arrives once the accept loop runs.
        let mut conn = loop {
            match Conn::open(addr) {
                Ok(conn) => break conn,
                Err(_) if started.elapsed() < SETUP_TIMEOUT => {
                    if let Ok(Some(status)) = server.child.try_wait() {
                        return Err(format!(
                            "serve exited with {status} before listening; see {}",
                            log.display()
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(format!("serve never listened on {addr}: {e}")),
            }
        };
        conn.stream
            .set_read_timeout(Some(SETUP_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reply = conn
            .ask("TENANTS up")
            .map_err(|e| format!("no reply to the start-up probe ({e}); see {}", log.display()))?;
        if !reply.starts_with("TENANTS up ") {
            return Err(format!("unexpected start-up reply {reply:?}"));
        }
        Ok((server, started.elapsed().as_secs_f64()))
    }

    /// The clock of the CPU time the child has used.
    pub fn cpu_clock(&self) -> CpuClock {
        CpuClock::of_process(self.child.id())
    }

    /// Peak resident set size of the child, MB.
    pub fn rss_peak_mb(&self) -> f64 {
        rss_peak_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

/// Peak resident set size of this process, MB.
pub fn own_rss_peak_mb() -> f64 {
    rss_peak_mb("/proc/self/status")
}

/// The CPU-time clock of one process: the time all of its threads, exited
/// ones included, have spent on a CPU, as the scheduler counts it in
/// nanoseconds. (`utime`/`stime` in `/proc/<pid>/stat` are the same figure cut
/// to 10 ms ticks, which is 3 % of what a `churn` window uses.)
#[derive(Clone, Copy)]
pub struct CpuClock(i32);

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

impl CpuClock {
    /// `CLOCK_PROCESS_CPUTIME_ID`.
    pub const OWN: CpuClock = CpuClock(2);

    /// What `clock_getcpuclockid(3)` returns for `pid`: the complement of the
    /// pid above three bits that say "whole process, scheduler's count".
    fn of_process(pid: u32) -> CpuClock {
        CpuClock(((!pid) << 3 | 2) as i32)
    }

    /// CPU seconds used so far; an error once the process is gone.
    pub fn seconds(self) -> Result<f64, String> {
        extern "C" {
            fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
        }
        let mut time = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `clock_gettime` is the libc function std already links; it
        // writes one `timespec` (two 64-bit fields on the 64-bit Linux targets
        // this benchmark runs on) through a pointer to a live local.
        if unsafe { clock_gettime(self.0, &mut time) } != 0 {
            return Err("the CPU-time clock of the measured process cannot be read".into());
        }
        Ok(time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9)
    }
}

fn rss_peak_mb(status_path: &str) -> f64 {
    let status = std::fs::read_to_string(status_path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One protocol session: a buffered reader over the stream plus the stream
/// itself for writes (replies are matched by id, so nothing else is shared).
pub struct Conn {
    pub stream: TcpStream,
    pub reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Opens a session and waits until the server has picked it up (the
    /// accept loop polls), for workloads that measure a standing connection.
    pub fn open_live(addr: SocketAddr) -> std::io::Result<Conn> {
        let mut conn = Conn::open(addr)?;
        match conn.ask("TENANTS live") {
            Ok(_) => Ok(conn),
            Err(e) => Err(std::io::Error::other(e)),
        }
    }

    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Reads one reply line into `line` (cleared first, newline stripped).
    /// `Ok(false)` is an orderly end of stream.
    pub fn read_line(&mut self, line: &mut String) -> std::io::Result<bool> {
        line.clear();
        let n = self.reader.read_line(line)?;
        line.truncate(line.trim_end().len());
        Ok(n > 0)
    }

    /// Whether another complete line is already buffered (no system call).
    pub fn has_buffered_line(&self) -> bool {
        self.reader.buffer().contains(&b'\n')
    }

    /// Sends one request line and returns its one-line reply.
    pub fn ask(&mut self, request: &str) -> Result<String, String> {
        self.send(format!("{request}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        match self.read_line(&mut line) {
            Ok(true) => Ok(line),
            Ok(false) => Err("connection closed".into()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Sends `METRICS [<tenant>] <id>` and returns the framed exposition
    /// body (without the `# EOF` line).
    pub fn scrape(&mut self, tenant: Option<&str>) -> Result<String, String> {
        let request = match tenant {
            Some(t) => format!("METRICS {t} scrape"),
            None => "METRICS scrape".to_string(),
        };
        let header = self.ask(&request)?;
        let lines: usize = header
            .strip_prefix("METRICS scrape lines=")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("unexpected METRICS header {header:?}"))?;
        let mut body = String::new();
        let mut line = String::new();
        for _ in 0..lines {
            if !self.read_line(&mut line).map_err(|e| e.to_string())? {
                return Err("connection closed inside a METRICS body".into());
            }
            if line != "# EOF" {
                body.push_str(&line);
                body.push('\n');
            }
        }
        Ok(body)
    }

    /// Sends `QUIT` and waits for the server to close the stream.
    pub fn quit(mut self) -> std::io::Result<()> {
        self.send(b"QUIT\n")?;
        let mut line = String::new();
        while self.read_line(&mut line)? {}
        Ok(())
    }
}

/// What the workloads need from a reply line. The benchmark parses replies
/// itself so that the client's cost does not move with the product's parser.
#[derive(Debug, PartialEq)]
pub enum ReplyLine<'a> {
    /// `OK <id> <estimate> us=<micros>` with a numeric id.
    Ok { id: u64, estimate: f64, inside_us: f64 },
    /// Anything else: the verb, for failure accounting.
    Other(&'a str),
}

pub fn parse_reply(line: &str) -> ReplyLine<'_> {
    let mut tokens = line.split_ascii_whitespace();
    let verb = tokens.next().unwrap_or("");
    if verb == "OK" {
        let id = tokens.next().and_then(|t| t.parse().ok());
        let estimate = tokens.next().and_then(|t| t.parse().ok());
        let inside_us = tokens
            .next()
            .and_then(|t| t.strip_prefix("us="))
            .and_then(|t| t.parse().ok());
        if let (Some(id), Some(estimate), Some(inside_us)) = (id, estimate, inside_us) {
            return ReplyLine::Ok {
                id,
                estimate,
                inside_us,
            };
        }
    }
    ReplyLine::Other(verb)
}

/// `key=<number>` out of a `STATS` reply.
pub fn stats_field(reply: &str, key: &str) -> Option<f64> {
    reply
        .split_ascii_whitespace()
        .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_lines_parse() {
        assert_eq!(
            parse_reply("OK 17 42.5 us=1234.5"),
            ReplyLine::Ok {
                id: 17,
                estimate: 42.5,
                inside_us: 1234.5
            }
        );
        assert_eq!(parse_reply("OVERLOADED 17 depth=1024"), ReplyLine::Other("OVERLOADED"));
        assert_eq!(parse_reply("ERR 17 code=parse bad"), ReplyLine::Other("ERR"));
        assert_eq!(parse_reply("OK x 1 us=2"), ReplyLine::Other("OK"));
        assert_eq!(parse_reply("OK 1 NaNx us=2"), ReplyLine::Other("OK"));
        assert_eq!(parse_reply(""), ReplyLine::Other(""));
    }

    #[test]
    fn stats_fields_parse() {
        let reply =
            "STATS s served=12 shed=0 batches=3 retrains=0 added=0 evicted=0 gen=0 model=731696 tv=0 p50us=2210.5";
        assert_eq!(stats_field(reply, "model"), Some(731696.0));
        assert_eq!(stats_field(reply, "served"), Some(12.0));
        assert_eq!(stats_field(reply, "p50us"), Some(2210.5));
        assert_eq!(stats_field(reply, "p50"), None);
    }

    #[test]
    fn own_process_readings_are_sane() {
        let own = CpuClock::OWN.seconds().unwrap();
        let mut x = 0u64;
        while CpuClock::OWN.seconds().unwrap() - own < 0.02 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        // Another process's clock, by pid: this one's reads the same.
        let by_pid = CpuClock::of_process(std::process::id()).seconds().unwrap();
        assert!(by_pid >= own + 0.02 && by_pid < own + 5.0);
        assert!(CpuClock::of_process(u32::MAX >> 4).seconds().is_err());
        assert!(own_rss_peak_mb() > 0.5);
    }
}
