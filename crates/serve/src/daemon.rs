//! The line-protocol daemon skeleton shared by `barre serve` and
//! `barre queue`.
//!
//! Both daemons speak the same framing on one TCP listener: JSONL
//! request/response lines, or a single HTTP/1.1 exchange for the health
//! shim ([`http`]). Everything around that framing lives here once:
//! drain-handler and `--log-file` setup ([`init`]), bind with
//! address-in-use retry and the `listening on <addr>` handshake
//! ([`Daemon::bind`], [`Daemon::serve`]), the blocking accept/reap
//! loop with its drain wake, and the per-connection loop with its
//! read/write timeouts, partial-line accumulation, drain exit, and HTTP
//! routing.
//!
//! Nothing between a request line's arrival and its response waits on a
//! timer: `accept()` blocks (a drain wakes it with a loopback
//! self-connect), accepted sockets set `TCP_NODELAY`, and each response
//! goes out with its newline in one write, so Nagle never holds a tail
//! segment for the client's delayed ACK.
//!
//! A daemon supplies only a [`Service`]: how to answer one request line
//! and how to render its `/stats` and `/metrics` bodies.
//! [`Daemon::serve`] returns once a drain signal arrives, handing back
//! the live connection threads so each daemon keeps its own teardown
//! order.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use barre_obs::log as olog;

use crate::http;
use crate::signal::{install_drain_handlers, shutting_down};

/// Read timeout on a connection: how often an idle connection thread
/// wakes to check for a drain.
pub(crate) const READ_POLL: Duration = Duration::from_millis(200);
/// Write timeout on a connection: a client that stops reading is cut
/// off rather than pinning its thread.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// How often the drain watcher checks for a drain while `accept()`
/// blocks; it bounds how late a drain is noticed, never a request.
const DRAIN_POLL: Duration = Duration::from_millis(20);
/// Pause after a failed `accept()` (e.g. out of file descriptors), so a
/// persistent error cannot spin the accept thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);
/// Request headers drained per HTTP exchange, at most.
const MAX_HEADER_LINES: usize = 128;

/// What a daemon plugs into the skeleton.
pub trait Service: Send + Sync + 'static {
    /// Answers one trimmed, non-empty JSONL request line, which arrived
    /// from `peer`. `None` drops the connection without writing a reply.
    fn handle_line(&self, line: &str, peer: &Peer<'_>) -> Option<String>;
    /// The `GET /stats` JSON body.
    fn stats_body(&self) -> String;
    /// The `GET /metrics` Prometheus exposition body.
    fn metrics_body(&self) -> String;
}

/// The client end of the connection a request line arrived on.
pub struct Peer<'a>(&'a TcpStream);

impl Peer<'_> {
    /// Whether the client has closed or reset its end, without consuming
    /// anything it sent since: a service holding a request checks this
    /// before acting for a client that may be gone. A client that only
    /// shut down its sending side reads as gone too.
    pub fn hung_up(&self) -> bool {
        if self.0.set_nonblocking(true).is_err() {
            return false;
        }
        let gone = match self.0.peek(&mut [0u8; 1]) {
            Ok(n) => n == 0,
            Err(e) => !is_timeout(&e),
        };
        let _ = self.0.set_nonblocking(false);
        gone
    }
}

/// Installs the drain handlers (SIGINT and SIGTERM) and redirects
/// structured logs to `log_file` when given. Returns false, after
/// logging why, when the log file cannot be opened.
pub fn init(component: &str, log_file: Option<&Path>) -> bool {
    install_drain_handlers();
    if let Some(path) = log_file {
        if let Err(why) = olog::set_log_file(path) {
            olog::error(component, "log_file_failed", &[], &format!("error: {why}"));
            return false;
        }
    }
    true
}

/// A bound listener that has not started serving yet.
pub struct Daemon {
    component: &'static str,
    listener: TcpListener,
    addr: SocketAddr,
}

impl Daemon {
    /// Binds `host:port` (retrying briefly on address-in-use, so a
    /// restarted daemon can reclaim its old port while the kernel tears
    /// the old socket down) and resolves the bound address. `None`, after
    /// logging why, on failure.
    pub fn bind(component: &'static str, host: &str, port: u16) -> Option<Daemon> {
        let listener = match bind_with_retry(host, port) {
            Ok(l) => l,
            Err(e) => {
                olog::error(
                    component,
                    "bind_failed",
                    &[],
                    &format!("error: cannot bind {host}:{port}: {e}"),
                );
                return None;
            }
        };
        let addr = match listener.local_addr() {
            Ok(a) => a,
            Err(e) => {
                olog::error(
                    component,
                    "startup_failed",
                    &[],
                    &format!("error: cannot resolve bound address: {e}"),
                );
                return None;
            }
        };
        Some(Daemon {
            component,
            listener,
            addr,
        })
    }

    /// Prints the `listening on <addr>` handshake scripts and tests key
    /// on (the actual bound address, which resolves `--port 0`), then
    /// serves `svc` until a drain signal. Returns the connection threads
    /// still running, for the caller to join in its own teardown order.
    pub fn serve<S: Service>(self, svc: &Arc<S>) -> Vec<JoinHandle<()>> {
        println!("listening on {}", self.addr);
        let _ = std::io::stdout().flush();
        let conns = self.accept_until(svc, shutting_down);
        olog::info(
            self.component,
            "drain_begin",
            &[],
            "drain: signal received; finishing in-flight work",
        );
        conns
    }

    /// Accepts connections, one thread each, until `stop()` turns true,
    /// reaping finished threads on every accept so a long-lived daemon's
    /// handle list stays proportional to its live connections.
    ///
    /// `accept()` blocks. A watcher thread checks `stop()` every
    /// [`DRAIN_POLL`] and, once it holds, connects to the listener itself
    /// to wake the blocked `accept()`; that connection is dropped unserved.
    fn accept_until<S: Service>(
        &self,
        svc: &Arc<S>,
        stop: impl Fn() -> bool + Sync,
    ) -> Vec<JoinHandle<()>> {
        let wake = wake_addr(self.addr);
        let exited = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop() {
                    std::thread::sleep(DRAIN_POLL);
                }
                // Retried until the accept loop is gone, in case a full
                // backlog turned the first wake connection away.
                while !exited.load(Ordering::SeqCst) {
                    let _ = TcpStream::connect_timeout(&wake, DRAIN_POLL);
                    std::thread::sleep(DRAIN_POLL);
                }
            });
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            loop {
                let accepted = self.listener.accept();
                if stop() {
                    break;
                }
                match accepted {
                    Ok((stream, _peer)) => {
                        let svc = Arc::clone(svc);
                        conns.push(std::thread::spawn(move || {
                            handle_conn(svc.as_ref(), stream)
                        }));
                    }
                    // Transient (a connection reset before accept) or
                    // resource exhaustion; either way, try again.
                    Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
                }
                conns.retain(|h| !h.is_finished());
            }
            exited.store(true, Ordering::SeqCst);
            conns
        })
    }
}

fn bind_with_retry(host: &str, port: u16) -> std::io::Result<TcpListener> {
    let mut last = None;
    for _ in 0..5 {
        match TcpListener::bind((host, port)) {
            Ok(l) => return Ok(l),
            Err(e) if e.kind() == ErrorKind::AddrInUse && port != 0 => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(500));
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or_else(|| std::io::Error::other("bind failed")))
}

/// Where a self-connect reaches a listener bound to `addr`: the address
/// itself, or loopback of the same family when it is unspecified.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// One connection: JSONL request/response until EOF, or one HTTP
/// exchange. Read timeouts keep the thread responsive to drain signals.
fn handle_conn<S: Service>(svc: &S, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut out = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    line.clear();
                    continue;
                }
                if http::looks_like_http(trimmed) {
                    let first = trimmed.to_string();
                    handle_http(svc, &first, &mut reader, &mut out);
                    return;
                }
                let Some(mut resp) = svc.handle_line(trimmed, &Peer(&out)) else {
                    return;
                };
                line.clear();
                // One write per response: a separate newline write would
                // sit behind Nagle until the client's delayed ACK.
                resp.push('\n');
                if out.write_all(resp.as_bytes()).is_err() {
                    return;
                }
            }
            // Timeout with a partial line still buffered in `line`: keep
            // accumulating on the next pass.
            Err(e) if is_timeout(&e) => {
                if shutting_down() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Serves the HTTP shim for one already-read request line: drains the
/// headers (bounded; clients are trusted probes, not adversaries), routes
/// the path, writes the response. The caller then closes.
fn handle_http<S: Service>(
    svc: &S,
    first_line: &str,
    reader: &mut impl BufRead,
    out: &mut TcpStream,
) {
    let mut line = String::new();
    for _ in 0..MAX_HEADER_LINES {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.trim().is_empty() => break,
            Ok(_) => {}
            Err(e) if is_timeout(&e) => continue,
            Err(_) => return,
        }
    }
    let (code, reason, content_type, body) = match http::parse_request_line(first_line) {
        Some((method, path)) => http::route(
            method,
            path,
            shutting_down(),
            || svc.stats_body(),
            || svc.metrics_body(),
        ),
        None => (
            400,
            "Bad Request",
            http::CT_JSON,
            "{\"error\":\"bad request\"}".to_string(),
        ),
    };
    let _ = out.write_all(http::render_http(code, reason, content_type, &body).as_bytes());
    let _ = out.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    /// Echoes lines back as `echo:<line>`, drops the connection on
    /// `drop`, and counts the lines it was asked to answer.
    #[derive(Default)]
    struct Fake {
        lines: AtomicU64,
    }

    impl Service for Fake {
        fn handle_line(&self, line: &str, _peer: &Peer<'_>) -> Option<String> {
            self.lines.fetch_add(1, Ordering::SeqCst);
            (line != "drop").then(|| format!("echo:{line}"))
        }
        fn stats_body(&self) -> String {
            "{\"fake\":1}".to_string()
        }
        fn metrics_body(&self) -> String {
            "fake_total 1\n".to_string()
        }
    }

    /// A fake daemon on a loopback ephemeral port, stopped on drop.
    struct Harness {
        addr: SocketAddr,
        fake: Arc<Fake>,
        stop: Arc<AtomicBool>,
        accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    }

    impl Harness {
        fn start() -> Harness {
            let daemon = Daemon::bind("test", "127.0.0.1", 0).expect("bind loopback");
            let addr = daemon.addr;
            let fake = Arc::new(Fake::default());
            let stop = Arc::new(AtomicBool::new(false));
            let accept = {
                let (fake, stop) = (Arc::clone(&fake), Arc::clone(&stop));
                std::thread::spawn(move || {
                    daemon.accept_until(&fake, || stop.load(Ordering::SeqCst))
                })
            };
            Harness {
                addr,
                fake,
                stop,
                accept: Some(accept),
            }
        }

        fn connect(&self) -> TcpStream {
            let s = TcpStream::connect(self.addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(10))).ok();
            s
        }

        /// One HTTP GET, read until the daemon closes the connection.
        fn http_get(&self, path: &str) -> String {
            let mut s = self.connect();
            write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("send");
            let mut doc = String::new();
            s.read_to_string(&mut doc).expect("read to close");
            doc
        }
    }

    impl Harness {
        /// Stops the accept loop and joins it and every connection
        /// thread. Callers close their client sockets first, so the
        /// connection threads reach EOF.
        fn stop(&mut self) {
            self.stop.store(true, Ordering::SeqCst);
            if let Some(Ok(conns)) = self.accept.take().map(JoinHandle::join) {
                for c in conns {
                    let _ = c.join();
                }
            }
        }
    }

    impl Drop for Harness {
        fn drop(&mut self) {
            self.stop();
        }
    }

    #[test]
    fn persistent_connection_round_trips_do_not_stall() {
        let h = Harness::start();
        let mut s = h.connect();
        let mut reader = BufReader::new(s.try_clone().expect("clone"));
        let t0 = std::time::Instant::now();
        for i in 0..50 {
            s.write_all(format!("req{i}\n").as_bytes()).expect("send");
            let mut resp = String::new();
            reader.read_line(&mut resp).expect("response");
            assert_eq!(resp, format!("echo:req{i}\n"));
        }
        // A response written in two pieces waits ~40 ms per round trip
        // for the client's delayed ACK: 50 of them take 2 s.
        let took = t0.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "50 round trips took {took:?}"
        );
    }

    #[test]
    fn stop_wakes_the_blocking_accept() {
        let mut h = Harness::start();
        // Serve one connection first, so the stop lands while the loop
        // is parked in a blocking accept().
        let s = h.connect();
        drop(s);
        let t0 = std::time::Instant::now();
        h.stop();
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(1), "stop took {took:?}");
    }

    #[test]
    fn a_line_split_across_a_read_timeout_is_answered_once() {
        let h = Harness::start();
        let mut s = h.connect();
        s.write_all(b"{\"half\":").expect("first half");
        std::thread::sleep(READ_POLL + Duration::from_millis(150));
        s.write_all(b"1}\n").expect("second half");
        let mut reader = BufReader::new(s.try_clone().expect("clone"));
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("response");
        assert_eq!(resp, "echo:{\"half\":1}\n");
        // Nothing else arrives before the daemon sees our EOF and closes.
        s.shutdown(std::net::Shutdown::Write).expect("shutdown");
        let mut rest = String::new();
        reader.read_to_string(&mut rest).expect("read to close");
        assert_eq!(rest, "");
        assert_eq!(h.fake.lines.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn http_shim_serves_the_service_bodies() {
        let h = Harness::start();
        let health = h.http_get("/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        assert!(health.contains("Content-Type: application/json\r\n"));
        assert!(health.ends_with("\r\n\r\n{\"status\":\"ok\"}"), "{health}");
        let stats = h.http_get("/stats");
        assert!(stats.contains("Content-Type: application/json\r\n"));
        assert!(stats.ends_with("\r\n\r\n{\"fake\":1}"), "{stats}");
        let metrics = h.http_get("/metrics");
        assert!(
            metrics.contains("Content-Type: text/plain; version=0.0.4\r\n"),
            "{metrics}"
        );
        assert!(metrics.ends_with("\r\n\r\nfake_total 1\n"), "{metrics}");
        assert_eq!(h.fake.lines.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_none_reply_closes_without_writing() {
        let h = Harness::start();
        let mut s = h.connect();
        s.write_all(b"drop\n").expect("send");
        let mut got = Vec::new();
        s.read_to_end(&mut got).expect("read to close");
        assert!(got.is_empty(), "{:?}", String::from_utf8_lossy(&got));
        assert_eq!(h.fake.lines.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn an_http_exchange_closes_after_one_response() {
        let h = Harness::start();
        let mut s = h.connect();
        s.write_all(b"GET /readyz HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("send");
        // Our side stays open, so reaching EOF means the daemon closed
        // the connection after its one response.
        let mut doc = String::new();
        s.read_to_string(&mut doc).expect("read to close");
        assert_eq!(doc.matches("HTTP/1.1 ").count(), 1, "{doc}");
        assert!(doc.ends_with("\r\n\r\n{\"ready\":true}"), "{doc}");
        assert_eq!(h.fake.lines.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn peer_hung_up_sees_a_close_but_not_pending_bytes() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        let peer = Peer(&server);
        assert!(!peer.hung_up(), "an open, silent client");
        client.write_all(b"next\n").expect("send");
        assert!(!peer.hung_up(), "a client with bytes in flight");
        // The probe consumed nothing.
        let mut got = [0u8; 5];
        (&server).read_exact(&mut got).expect("read");
        assert_eq!(&got, b"next\n");
        drop(client);
        let until = std::time::Instant::now() + Duration::from_secs(5);
        while !peer.hung_up() {
            assert!(std::time::Instant::now() < until, "close never seen");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
