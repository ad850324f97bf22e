//! Thread-per-connection TCP front-end over the service's session layer.
//!
//! [`TcpServer::bind`] starts a [`SessionHost`] (journal recovery
//! included), binds a listener, and serves each accepted connection on its
//! own thread: a [`FrameReader`] feeds protocol lines into a
//! [`Session`], and a writer thread drains the session's reply queue back
//! over the socket, decrementing the write-backlog gauge that feeds
//! admission shedding. A `{"cmd":"shutdown"}` from any connection stops the
//! whole server; [`TcpServer::stop`] does the same programmatically. Either
//! way the host drains its queue and syncs the journal before returning.
//!
//! Connection lifecycle is observable: accept/close bump the
//! `conns_accepted`/`conns_open`/`conns_dropped` counters and emit
//! `svc.conn` trace events; rejected frames bump
//! `frames_oversize`/`frames_malformed` and answer an error line without
//! dropping the connection. A peer that vanishes mid-job abandons its
//! waiters — the last waiter of a job fires its cancel token, so
//! disconnected work stops burning workers.

use std::io::{self, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gaplan_obs::{self as obs, Event};
use gaplan_service::journal::JobJournal;
use gaplan_service::session::{LineOutcome, Session, SessionHost, SessionMode};
use gaplan_service::{Metric, ServiceConfig};
use parking_lot::Mutex;

use crate::codec::{write_frame, Frame, FrameError, FrameReader};

/// Transport knobs for a [`TcpServer`].
#[derive(Debug, Clone)]
pub struct NetOptions {
    /// Per-frame byte cap; over-cap lines are rejected, not read.
    pub max_frame: usize,
    /// Singleflight coalescing of identical in-flight requests.
    pub coalesce: bool,
    /// Per-connection write-backlog bound above which new `plan` commands
    /// are shed after the admission timeout.
    pub backlog_limit: usize,
    /// Reap a connection after this long without a complete inbound frame
    /// (slow-client / half-open defense). `None` disables reaping and the
    /// read loop blocks forever, as before this knob existed.
    pub idle_timeout: Option<Duration>,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            max_frame: crate::codec::DEFAULT_MAX_FRAME,
            coalesce: true,
            backlog_limit: 1024,
            idle_timeout: Some(Duration::from_secs(300)),
        }
    }
}

type ConnRegistry = Arc<Mutex<Vec<(JoinHandle<()>, TcpStream)>>>;

/// A running TCP front-end; dropping it without [`TcpServer::stop`] leaks
/// the serving threads, so call `stop` (or `wait`) on every path.
pub struct TcpServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conns: ConnRegistry,
    host: Option<Arc<SessionHost>>,
}

impl TcpServer {
    /// Start the service (replaying `journal` when given) and listen on
    /// `addr`. Use port 0 to let the OS pick; the bound address is
    /// [`TcpServer::local_addr`].
    pub fn bind<A: ToSocketAddrs>(
        cfg: ServiceConfig,
        journal: Option<JobJournal>,
        opts: NetOptions,
        addr: A,
    ) -> io::Result<TcpServer> {
        let host = Arc::new(SessionHost::start(cfg, journal, SessionMode::Routed { coalesce: opts.coalesce })?);
        {
            // Recovery events (durable.replay) trace on the caller's thread.
            let _obs = host.obs().map(|o| o.install());
            host.recover(None)?;
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: ConnRegistry = Arc::new(Mutex::new(Vec::new()));

        let accept_thread = {
            let host = Arc::clone(&host);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let opts = opts.clone();
            std::thread::Builder::new().name("gaplan-accept".to_string()).spawn(move || {
                // Transient accept failures (EINTR, EMFILE/ENFILE when the
                // fd table is exhausted, ECONNABORTED races) must never kill
                // the accept loop: back off briefly — escalating while the
                // condition persists so a stuck fd table doesn't spin — and
                // retry. The backoff resets on any successful accept.
                let mut accept_backoff = 0u32;
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, peer)) => {
                            accept_backoff = 0;
                            host.metrics().on_conn_accept();
                            let conn_stream = match stream.try_clone() {
                                Ok(s) => s,
                                Err(_) => continue, // conn unusable; counter rebalances on close
                            };
                            let conn_host = Arc::clone(&host);
                            let stop = Arc::clone(&stop);
                            let opts = opts.clone();
                            let handle = std::thread::Builder::new()
                                .name(format!("gaplan-conn-{peer}"))
                                .spawn(move || run_conn(&conn_host, stream, peer, &opts, &stop));
                            match handle {
                                Ok(handle) => conns.lock().push((handle, conn_stream)),
                                Err(_) => host.metrics().on_conn_close(false),
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                            // EINTR: retry immediately, no budget consumed.
                            host.metrics().inc(Metric::AcceptsRetried);
                        }
                        Err(_) => {
                            host.metrics().inc(Metric::AcceptsRetried);
                            std::thread::sleep(accept_retry_backoff(accept_backoff));
                            accept_backoff = accept_backoff.saturating_add(1);
                        }
                    }
                }
            })?
        };

        Ok(TcpServer { local_addr, stop, accept_thread: Some(accept_thread), conns, host: Some(host) })
    }

    /// The address the listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Block until a `shutdown` command stops the server, then drain and
    /// return.
    pub fn wait(mut self) -> io::Result<()> {
        while !self.stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.finish()
    }

    /// Stop accepting, close every connection, drain the queue and sync
    /// the journal.
    pub fn stop(mut self) -> io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        self.finish()
    }

    fn finish(&mut self) -> io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock());
        for (handle, stream) in conns {
            // Unblock readers parked in recv so their threads can exit.
            let _ = stream.shutdown(Shutdown::Both);
            let _ = handle.join();
        }
        if let Some(host) = self.host.take() {
            if let Ok(host) = Arc::try_unwrap(host) {
                host.shutdown()?;
            }
        }
        Ok(())
    }
}

/// Escalating accept-retry backoff: 5 ms doubling to a 200 ms cap, so a
/// persistent EMFILE doesn't spin the accept thread but recovery is quick.
fn accept_retry_backoff(consecutive: u32) -> Duration {
    Duration::from_millis(5u64.saturating_mul(1 << consecutive.min(6)).min(200))
}

fn run_conn(host: &Arc<SessionHost>, stream: TcpStream, peer: SocketAddr, opts: &NetOptions, stop: &AtomicBool) {
    let _obs = host.obs().map(|o| o.install());
    obs::emit(|| Event::new("svc.conn").str("op", "open").str("peer", peer.to_string()));
    let _ = stream.set_nodelay(true);

    let (out_tx, out_rx) = channel::<String>();
    let session = Session::open(host, out_tx.clone(), Some(opts.backlog_limit));
    let depth = session.backlog();

    let writer_thread = stream
        .try_clone()
        .ok()
        .map(|write_stream| std::thread::spawn(move || write_loop(write_stream, &out_rx, &depth)));

    // Idle reaping: a short socket read timeout turns the blocking read
    // loop into a poll; each timeout is an idle tick, and a connection that
    // completes no frame for a whole `idle_timeout` is reaped. The
    // FrameReader keeps partial buffered bytes across `Err` returns, so a
    // tick mid-line resumes cleanly.
    let poll = opts.idle_timeout.map(|idle| (idle / 4).clamp(Duration::from_millis(10), Duration::from_secs(1)));
    if poll.is_some() {
        let _ = stream.set_read_timeout(poll);
    }
    let mut last_frame = std::time::Instant::now();

    let mut reader = FrameReader::new(&stream, opts.max_frame);
    loop {
        match reader.read_frame() {
            Ok(Some(Frame::Complete(line))) => {
                last_frame = std::time::Instant::now();
                match session.handle_line(&line) {
                    LineOutcome::Continue => {}
                    LineOutcome::Shutdown => {
                        stop.store(true, Ordering::SeqCst);
                        break;
                    }
                }
            }
            Ok(Some(Frame::Reject(err))) => {
                last_frame = std::time::Instant::now();
                match &err {
                    FrameError::Oversize { .. } => host.metrics().inc(Metric::FramesOversize),
                    FrameError::Malformed | FrameError::Truncated => host.metrics().inc(Metric::FramesMalformed),
                }
                session.report_error(None, &err.message());
            }
            Ok(None) => break, // clean EOF
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                // Read-timeout tick, not a dead socket. Reap only when the
                // idle budget is fully spent (or the server is stopping).
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Some(idle) = opts.idle_timeout {
                    if last_frame.elapsed() >= idle {
                        host.metrics().inc(Metric::ConnsReaped);
                        obs::emit(|| {
                            Event::new("svc.conn")
                                .str("op", "reap")
                                .str("peer", peer.to_string())
                                .u64("idle_ms", last_frame.elapsed().as_millis() as u64)
                        });
                        let _ = stream.shutdown(Shutdown::Both);
                        break;
                    }
                }
            }
            Err(_) => break, // reset / force-closed
        }
    }

    let abandoned = session.disconnect();
    host.metrics().on_conn_close(abandoned > 0);
    obs::emit(|| {
        Event::new("svc.conn").str("op", "close").str("peer", peer.to_string()).u64("abandoned", abandoned as u64)
    });
    drop(out_tx); // last sender → writer drains and exits
    if let Some(handle) = writer_thread {
        let _ = handle.join();
    }
}

/// Drain reply lines onto the socket, flushing only when the queue runs
/// dry so bursts batch into few syscalls. Each written line decrements the
/// session's backlog gauge.
fn write_loop(stream: TcpStream, out_rx: &std::sync::mpsc::Receiver<String>, depth: &AtomicUsize) {
    let mut writer = BufWriter::new(stream);
    while let Ok(line) = out_rx.recv() {
        if write_frame(&mut writer, &line).is_err() {
            return;
        }
        depth.fetch_sub(1, Ordering::Relaxed);
        while let Ok(line) = out_rx.try_recv() {
            if write_frame(&mut writer, &line).is_err() {
                return;
            }
            depth.fetch_sub(1, Ordering::Relaxed);
        }
        if writer.flush().is_err() {
            return;
        }
    }
    let _ = writer.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_escalates_and_caps() {
        assert_eq!(accept_retry_backoff(0), Duration::from_millis(5));
        assert_eq!(accept_retry_backoff(1), Duration::from_millis(10));
        assert_eq!(accept_retry_backoff(3), Duration::from_millis(40));
        assert_eq!(accept_retry_backoff(6), Duration::from_millis(200));
        assert_eq!(accept_retry_backoff(u32::MAX), Duration::from_millis(200));
    }
}
