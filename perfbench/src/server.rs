//! A `gaplan serve --listen` child process: spawn, query, measure, stop.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gaplan_net::{write_frame, Frame, FrameReader, DEFAULT_MAX_FRAME};
use serde::json::{parse, Value};

/// How long a server may take to report its listening address or to exit.
const START_TIMEOUT: Duration = Duration::from_secs(30);
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Server {
    child: Child,
    pub addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Start `bin serve --listen 127.0.0.1:0 args..` and wait until it
    /// listens.
    pub fn spawn(bin: &Path, args: &[String]) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Forwards the server's stderr after the address line, so the pipe
        // never fills; ends at the server's exit.
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                match line.strip_prefix("gaplan: listening on ") {
                    Some(addr) if tx.is_some() => {
                        let _ = tx.take().expect("checked above").send(addr.to_string());
                    }
                    _ => eprintln!("server: {line}"),
                }
            }
        });
        let mut server = Server { child, addr: String::new(), stderr: Some(drain) };
        match rx.recv_timeout(START_TIMEOUT) {
            Ok(addr) => server.addr = addr,
            Err(_) => return Err(io::Error::other("server did not report a listening address")),
        }
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's `metrics` reply object.
    pub fn metrics(&self) -> io::Result<Value> {
        let stream = TcpStream::connect(&self.addr)?;
        let mut writer = BufWriter::new(stream.try_clone()?);
        let mut reader = FrameReader::new(stream, DEFAULT_MAX_FRAME);
        write_frame(&mut writer, "{\"cmd\":\"metrics\"}")?;
        writer.flush()?;
        match reader.read_frame()? {
            Some(Frame::Complete(line)) => parse(&line)
                .ok()
                .and_then(|v| v.get("metrics").cloned())
                .ok_or_else(|| io::Error::other(format!("bad metrics reply: {line}"))),
            _ => Err(io::Error::other("no metrics reply")),
        }
    }

    /// Ask the server to drain and exit, and wait for it.
    pub fn shutdown(mut self) -> io::Result<()> {
        let stream = TcpStream::connect(&self.addr)?;
        let mut writer = BufWriter::new(stream);
        write_frame(&mut writer, "{\"cmd\":\"shutdown\"}")?;
        writer.flush()?;
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            if let Some(status) = self.child.try_wait()? {
                if let Some(drain) = self.stderr.take() {
                    let _ = drain.join();
                }
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("server exited with {status}")))
                };
            }
            if Instant::now() >= deadline {
                return Err(io::Error::other("server did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
    }
}

/// A counter from a metrics reply (0 when absent).
pub fn counter(metrics: &Value, name: &str) -> u64 {
    match metrics.get(name) {
        Some(Value::Int(n)) => u64::try_from(*n).unwrap_or(0),
        _ => 0,
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in KiB.
pub fn peak_rss_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User plus system CPU time of `/proc/<pid>` (`"self"` for this process),
/// in seconds.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    // USER_HZ is 100 on every Linux target this runs on.
    Some(ticks as f64 / 100.0)
}
