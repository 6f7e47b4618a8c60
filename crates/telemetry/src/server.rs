//! The status endpoint: a hand-rolled HTTP/1.1 server on
//! `std::net::TcpListener`, serving the campaign's text status page at `/`,
//! the Prometheus text exposition at `/metrics` (and at `/metrics.prom`, an
//! alias for existing scrapers: both answer the same body), the Chrome trace
//! at `/trace.json`, and, when mounted, the `/events` tail, the `/health`
//! page and a `POST` control plane. No external dependencies, no TLS,
//! loopback-friendly — the same shape as syz-manager's local stats server
//! (§2.6.2).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::{CounterId, EventLog, Telemetry};

/// A control-plane handler mounted on a status server: `POST` requests are
/// dispatched here (with the raw request target, query string included, and
/// the request body). `None` means "not a control route" and falls through
/// to the default `405` answer, so mounting a control plane never shadows
/// the read-only endpoints.
pub trait ControlApi: Send + Sync {
    /// Handle one control request; return `(http_status_code, body)` or
    /// `None` when the target is not a control route.
    fn handle(&self, method: &str, target: &str, body: &str) -> Option<(u16, String)>;
}

/// Largest control-request body the server will buffer (seed programs are
/// a few hundred bytes; this is generous headroom, not a streaming path).
const MAX_CONTROL_BODY: usize = 1024 * 1024;

/// State shared between the campaign driver (which refreshes the page) and
/// the serving thread (which renders responses from it).
pub struct StatusShared {
    page: Mutex<String>,
    telemetry: Telemetry,
    control: Mutex<Option<Arc<dyn ControlApi>>>,
    events: Mutex<Option<EventLog>>,
    health: Mutex<Option<String>>,
    extra_prom: Mutex<String>,
}

impl std::fmt::Debug for StatusShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatusShared")
            .field("page", &self.page)
            .field("telemetry", &self.telemetry)
            .field("control", &self.control().is_some())
            .field("events", &self.events().is_some())
            .finish()
    }
}

impl StatusShared {
    /// Build shared state around a telemetry handle (which may be disabled;
    /// `/metrics` then reports `torpedo_telemetry_enabled 0`).
    pub fn new(telemetry: Telemetry) -> StatusShared {
        StatusShared {
            page: Mutex::new(String::from("TORPEDO campaign status\nno rounds yet\n")),
            telemetry,
            control: Mutex::new(None),
            events: Mutex::new(None),
            health: Mutex::new(None),
            extra_prom: Mutex::new(String::new()),
        }
    }

    /// Mount an event log: `/events?since=N` serves its live tail.
    pub fn set_events(&self, events: EventLog) {
        *self.events.lock().expect("status events lock") = Some(events);
    }

    fn events(&self) -> Option<EventLog> {
        self.events.lock().expect("status events lock").clone()
    }

    /// Publish (or refresh) the `/health` page. `None` until the first
    /// call; the route answers 404 until then so a probe can tell "no
    /// health detectors configured" from "healthy".
    pub fn set_health_page(&self, page: String) {
        *self.health.lock().expect("status health lock") = Some(page);
    }

    fn health_page(&self) -> Option<String> {
        self.health.lock().expect("status health lock").clone()
    }

    /// Append a pre-rendered exposition chunk (fleet health gauges) to the
    /// `/metrics` output. The caller owns validity; tests run the combined
    /// exposition through `check_exposition`.
    pub fn set_extra_prom(&self, chunk: String) {
        *self.extra_prom.lock().expect("status prom lock") = chunk;
    }

    fn extra_prom(&self) -> String {
        self.extra_prom.lock().expect("status prom lock").clone()
    }

    /// Mount a control plane: `POST` requests are routed through it. The
    /// fleet scheduler uses this for its submit/cancel API.
    pub fn set_control(&self, control: Arc<dyn ControlApi>) {
        *self.control.lock().expect("status control lock") = Some(control);
    }

    /// Unmount the control plane; subsequent `POST`s answer `405` again.
    pub fn clear_control(&self) {
        *self.control.lock().expect("status control lock") = None;
    }

    fn control(&self) -> Option<Arc<dyn ControlApi>> {
        self.control.lock().expect("status control lock").clone()
    }

    /// Replace the text status page served at `/`.
    pub fn set_page(&self, page: String) {
        *self.page.lock().expect("status page lock") = page;
    }

    /// The current text status page.
    pub fn page(&self) -> String {
        self.page.lock().expect("status page lock").clone()
    }

    /// The telemetry handle behind `/metrics`.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

/// A running status server. Dropping it shuts the serving thread down.
#[derive(Debug)]
pub struct StatusServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl StatusServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `shared` on a background thread.
    pub fn bind<A: ToSocketAddrs>(addr: A, shared: Arc<StatusShared>) -> io::Result<StatusServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let handle = thread::Builder::new()
            .name("torpedo-status".into())
            .spawn(move || serve_loop(listener, shared, stop))?;
        Ok(StatusServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves the port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn serve_loop(listener: TcpListener, shared: Arc<StatusShared>, shutdown: Arc<AtomicBool>) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Serve inline: the endpoint is a low-traffic human/CI
                // observer page, so one connection at a time is plenty.
                let _ = handle_connection(stream, &shared);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &StatusShared) -> io::Result<()> {
    // One deadline for the whole connection: reads, the response write and
    // the drain. A per-call timeout would restart with every byte, so a
    // client trickling its headers could hold the one serving thread for
    // as long as it liked.
    let deadline = Instant::now() + Duration::from_millis(500);

    // Read until the end of the request headers (or a small cap). As soon
    // as a complete request line for a method we won't read a body for
    // arrives we stop reading: the request line is everything those paths
    // need, and a HEAD probe or a stray POST must not sit out the
    // deadline. When a control plane is mounted, POST bodies are read to
    // Content-Length (capped) before dispatch.
    let control = shared.control();
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let mut headers_end: Option<usize> = None;
    while let Some(left) = time_left(deadline) {
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if headers_end.is_none() {
                    headers_end = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
                }
                if let Some(he) = headers_end {
                    let head = String::from_utf8_lossy(&buf[..he]);
                    let wants_body = control.is_some() && head.trim_start().starts_with("POST ");
                    if !wants_body {
                        break;
                    }
                    let need = he + content_length(&head).min(MAX_CONTROL_BODY);
                    if buf.len() >= need {
                        buf.truncate(need);
                        break;
                    }
                } else if buf.len() > 8 * 1024 {
                    break;
                } else if let Some(line_end) = buf.windows(2).position(|w| w == b"\r\n") {
                    let line = String::from_utf8_lossy(&buf[..line_end]);
                    let keep_reading = line.trim_start().starts_with("GET ")
                        || (control.is_some() && line.trim_start().starts_with("POST "));
                    if !keep_reading {
                        break;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }

    let body_text = headers_end
        .map(|he| String::from_utf8_lossy(&buf[he..]).to_string())
        .unwrap_or_default();
    let request = String::from_utf8_lossy(&buf);
    let parsed = parse_request_line(&request);
    shared.telemetry.incr(CounterId::StatusRequests);

    let route = |path: &str, target: &str, wait: bool| -> (&'static str, &'static str, String) {
        match path {
            "/" | "/status" => ("200 OK", "text/plain; charset=utf-8", shared.page()),
            "/metrics" | "/metrics.prom" => {
                let mut body = crate::prom::prometheus_exposition(&shared.telemetry);
                body.push_str(&shared.extra_prom());
                ("200 OK", "text/plain; version=0.0.4; charset=utf-8", body)
            }
            "/trace.json" => (
                "200 OK",
                "application/json",
                crate::trace::chrome_trace_json(&shared.telemetry),
            ),
            "/events" => match shared.events() {
                None => (
                    "404 Not Found",
                    "text/plain; charset=utf-8",
                    String::from("no event log mounted\n"),
                ),
                Some(events) => {
                    let since = query_param(target, "since")
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(0);
                    // Long-poll, capped short: the serve loop handles one
                    // connection at a time, so a caught-up tail waits at
                    // most ~400 ms for fresh events before answering empty
                    // rather than starving the other routes. It leaves the
                    // connection's last 50 ms to the response.
                    if wait {
                        let answer_by = deadline - Duration::from_millis(50);
                        for _ in 0..40 {
                            if events.appended() > since || Instant::now() >= answer_by {
                                break;
                            }
                            thread::sleep(Duration::from_millis(10));
                        }
                    }
                    ("200 OK", "application/json", events.since_json(since))
                }
            },
            "/health" => match shared.health_page() {
                Some(page) => ("200 OK", "text/plain; charset=utf-8", page),
                None => (
                    "404 Not Found",
                    "text/plain; charset=utf-8",
                    String::from("no health detectors mounted\n"),
                ),
            },
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                String::from("not found\n"),
            ),
        }
    };

    let (status, content_type, body, include_body, allow) = match &parsed {
        Some((method, path, target)) if method == "GET" => {
            let (status, content_type, body) = route(path, target, true);
            (status, content_type, body, true, false)
        }
        // HEAD mirrors GET's status line and headers (Content-Length
        // included) with no body, per RFC 9110 §9.3.2 — and never
        // long-polls, so probes answer promptly.
        Some((method, path, target)) if method == "HEAD" => {
            let (status, content_type, body) = route(path, target, false);
            (status, content_type, body, false, false)
        }
        // POST goes to the mounted control plane (raw target, query string
        // included); without one — or for targets the control plane does
        // not claim — the old 405 answer stands.
        Some((method, _, target)) if method == "POST" && control.is_some() => {
            let handled = control
                .as_ref()
                .expect("checked control")
                .handle("POST", target, &body_text);
            match handled {
                Some((code, body)) => (
                    control_status(code),
                    "text/plain; charset=utf-8",
                    body,
                    true,
                    false,
                ),
                None => (
                    "405 Method Not Allowed",
                    "text/plain; charset=utf-8",
                    String::from("method not allowed\n"),
                    true,
                    true,
                ),
            }
        }
        Some(_) => (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            String::from("method not allowed\n"),
            true,
            true,
        ),
        None => (
            "400 Bad Request",
            "text/plain; charset=utf-8",
            String::from("bad request\n"),
            true,
            false,
        ),
    };

    let mut response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    if allow {
        response.push_str("Allow: GET, HEAD\r\n");
    }
    response.push_str("Connection: close\r\n\r\n");
    if include_body {
        response.push_str(&body);
    }
    let mut unsent = response.as_bytes();
    while !unsent.is_empty() {
        let left = time_left(deadline).ok_or(io::ErrorKind::TimedOut)?;
        stream.set_write_timeout(Some(left))?;
        match stream.write(unsent) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => unsent = &unsent[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    // We may have stopped reading before the client finished sending its
    // headers; closing now could RST the connection and clobber the
    // response in flight. Signal end-of-response, then drain what is left
    // until the client hangs up, for at most 100 ms and never past the
    // deadline.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let drain_until = deadline.min(Instant::now() + Duration::from_millis(100));
    while let Some(left) = time_left(drain_until) {
        let _ = stream.set_read_timeout(Some(left));
        if !matches!(stream.read(&mut chunk), Ok(n) if n > 0) {
            break;
        }
    }
    Ok(())
}

/// The time left before `deadline`, or `None` once it has passed.
fn time_left(deadline: Instant) -> Option<Duration> {
    deadline
        .checked_duration_since(Instant::now())
        .filter(|left| !left.is_zero())
}

/// Split an HTTP request line (`GET /metrics HTTP/1.1`) into method, path
/// (query string dropped), and the raw target (query string kept, for the
/// control plane). `None` means the line is not even an HTTP request shape
/// (→ 400); an unsupported method is reported verbatim so the caller can
/// answer 405.
fn parse_request_line(request: &str) -> Option<(String, String, String)> {
    let line = request.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    parts.next()?.starts_with("HTTP/").then_some(())?;
    let path = target.split('?').next().unwrap_or(target);
    Some((method.to_string(), path.to_string(), target.to_string()))
}

/// The value of `key` in a request target's query string (`/events?since=7`),
/// `None` when the target has no query or the key is absent. Control-plane
/// handlers ([`ControlApi`]) parse their targets with it too.
pub fn query_param<'a>(target: &'a str, key: &str) -> Option<&'a str> {
    let (_, query) = target.split_once('?')?;
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

/// The `Content-Length` of a request-header block, `0` when absent or
/// malformed (a control POST without one simply dispatches an empty body).
fn content_length(head: &str) -> usize {
    head.lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        })
        .unwrap_or(0)
}

/// Map a control-plane status code to an HTTP status line.
fn control_status(code: u16) -> &'static str {
    match code {
        200 => "200 OK",
        202 => "202 Accepted",
        400 => "400 Bad Request",
        404 => "404 Not Found",
        409 => "409 Conflict",
        _ => "500 Internal Server Error",
    }
}

/// Fetch `path` from a status server with a plain std TCP client, returning
/// `(headers, body)`. Public so tests and the `status_probe` client can
/// share it.
pub fn fetch(addr: SocketAddr, path: &str) -> io::Result<(String, String)> {
    request(addr, "GET", path)
}

/// Issue a bare `method path` request (the general form of [`fetch`]; CI
/// uses it to probe HEAD and 405 behaviour).
pub fn request(addr: SocketAddr, method: &str, path: &str) -> io::Result<(String, String)> {
    request_with_body(addr, method, path, "")
}

/// `POST` a body to a control route; the fleet CLI and tests drive the
/// submit/cancel API through this.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> io::Result<(String, String)> {
    request_with_body(addr, "POST", path, body)
}

fn request_with_body(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<(String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: torpedo\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((head, body)) => Ok((head.to_string(), body.to_string())),
        None => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed HTTP response",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal std-only HTTP GET against a local server; also used by the CI
    /// smoke probe through `fetch`.
    pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<(String, String)> {
        fetch(addr, path)
    }

    #[test]
    fn serves_status_and_metrics() {
        let telemetry = Telemetry::enabled();
        telemetry.incr(CounterId::RoundsCompleted);
        let shared = Arc::new(StatusShared::new(telemetry));
        shared.set_page("hello torpedo\n".to_string());
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&shared)).unwrap();
        let addr = server.local_addr();

        let (head, body) = http_get(addr, "/").unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain"));
        assert_eq!(body, "hello torpedo\n");

        let (head, body) = http_get(addr, "/metrics").unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        let samples = crate::prom::check_exposition(&body).unwrap();
        assert!(samples.contains(&("torpedo_rounds_completed".to_string(), 1.0)));

        let (head, _) = http_get(addr, "/nope").unwrap();
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        // Three requests were counted.
        assert_eq!(shared.telemetry().counter(CounterId::StatusRequests), 3);
    }

    #[test]
    fn head_and_unknown_methods_answer_promptly() {
        let telemetry = Telemetry::enabled();
        let shared = Arc::new(StatusShared::new(telemetry));
        shared.set_page("torpedo page\n".to_string());
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&shared)).unwrap();
        let addr = server.local_addr();

        let started = std::time::Instant::now();
        let (head, body) = request(addr, "HEAD", "/").unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        // HEAD carries the GET Content-Length but no body.
        assert!(head.contains(&format!("Content-Length: {}", "torpedo page\n".len())));
        assert!(body.is_empty(), "{body:?}");

        let (head, _) = request(addr, "POST", "/").unwrap();
        assert!(head.starts_with("HTTP/1.1 405"), "{head}");
        assert!(head.contains("Allow: GET, HEAD"), "{head}");
        // Both answered without sitting out the 500 ms read timeout.
        assert!(
            started.elapsed() < Duration::from_millis(900),
            "{:?}",
            started.elapsed()
        );

        let (head, _) = request(addr, "HEAD", "/nope").unwrap();
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    }

    /// One deadline bounds a connection, so a client that trickles its
    /// headers a byte at a time cannot hold the serving thread: a
    /// concurrent `/metrics.prom` fetch still answers promptly.
    #[test]
    fn trickling_client_cannot_starve_other_requests() {
        let shared = Arc::new(StatusShared::new(Telemetry::enabled()));
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&shared)).unwrap();
        let addr = server.local_addr();
        let (connected_tx, connected) = std::sync::mpsc::channel();
        let trickler = thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"GET / HTTP/1.1\r\n").unwrap();
            connected_tx.send(()).unwrap();
            // One header byte every 300 ms, for up to 6 s or until the
            // server hangs up.
            for _ in 0..20 {
                thread::sleep(Duration::from_millis(300));
                if stream.write_all(b"X").is_err() {
                    break;
                }
            }
        });
        // The trickler is queued first, so the server takes it first.
        connected.recv().unwrap();
        let started = Instant::now();
        let (head, body) = http_get(addr, "/metrics.prom").unwrap();
        let waited = started.elapsed();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        crate::prom::check_exposition(&body).unwrap();
        assert!(waited < Duration::from_secs(2), "waited {waited:?}");
        trickler.join().unwrap();
    }

    #[test]
    fn serves_prometheus_and_chrome_trace() {
        let telemetry = Telemetry::enabled();
        telemetry.incr(CounterId::RoundsCompleted);
        {
            let _g = telemetry.span(crate::SpanKind::Round);
        }
        let shared = Arc::new(StatusShared::new(telemetry));
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&shared)).unwrap();
        let addr = server.local_addr();

        let (head, body) = http_get(addr, "/metrics.prom").unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("torpedo_rounds_completed 1\n"), "{body}");
        crate::prom::check_exposition(&body).unwrap();

        let (head, body) = http_get(addr, "/trace.json").unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.starts_with("{\"displayTimeUnit\":\"ms\""), "{body}");
        assert!(body.contains("\"ph\":\"X\""), "{body}");
    }

    #[test]
    fn control_api_routes_posts_and_preserves_reads() {
        struct Echo;
        impl ControlApi for Echo {
            fn handle(&self, method: &str, target: &str, body: &str) -> Option<(u16, String)> {
                (method == "POST" && target.starts_with("/fleet/"))
                    .then(|| (200, format!("target={target} body={body}\n")))
            }
        }
        let shared = Arc::new(StatusShared::new(Telemetry::disabled()));
        shared.set_page("fleet page\n".to_string());
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&shared)).unwrap();
        let addr = server.local_addr();

        // Without a control plane mounted, POST keeps answering 405.
        let (head, _) = post(addr, "/fleet/submit", "sync()\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 405"), "{head}");

        shared.set_control(Arc::new(Echo));
        // The raw target (query included) and the body reach the handler.
        let (head, body) = post(addr, "/fleet/submit?name=t1", "sync()\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "target=/fleet/submit?name=t1 body=sync()\n\n");

        // Targets the control plane does not claim still answer 405, and
        // the read-only endpoints are not shadowed.
        let (head, _) = post(addr, "/other", "").unwrap();
        assert!(head.starts_with("HTTP/1.1 405"), "{head}");
        let (head, body) = http_get(addr, "/").unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "fleet page\n");

        shared.clear_control();
        let (head, _) = post(addr, "/fleet/submit", "").unwrap();
        assert!(head.starts_with("HTTP/1.1 405"), "{head}");
    }

    #[test]
    fn rebinding_a_fixed_port_cycles_without_a_racy_window() {
        // Park/unpark reuses a campaign's fixed status_addr: dropping the
        // server must release the port synchronously (the serving thread is
        // joined in Drop), so an immediate rebind of the same port succeeds
        // on every cycle.
        let shared = Arc::new(StatusShared::new(Telemetry::disabled()));
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        for cycle in 0..100 {
            let server = StatusServer::bind(addr, Arc::clone(&shared))
                .unwrap_or_else(|e| panic!("cycle {cycle}: rebind failed: {e}"));
            assert_eq!(server.local_addr(), addr);
            drop(server);
        }
    }

    #[test]
    fn serves_event_tail_and_health_page() {
        use crate::events::EventKind;
        let shared = Arc::new(StatusShared::new(Telemetry::disabled()));
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&shared)).unwrap();
        let addr = server.local_addr();

        // Unmounted routes answer 404, distinguishably from empty.
        let (head, _) = http_get(addr, "/events").unwrap();
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        let (head, _) = http_get(addr, "/health").unwrap();
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        let log = EventLog::enabled();
        log.emit(0, 0, EventKind::RoundCompleted, 12, 1, "");
        log.emit(1, 1, EventKind::Crash, 1, 0, "boom");
        shared.set_events(log.clone());
        shared.set_health_page("fleet health\nall campaigns healthy\n".to_string());

        let (head, body) = http_get(addr, "/events?since=1").unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"schema\":\"torpedo-events-v1\""), "{body}");
        assert!(body.contains("\"next\":2"), "{body}");
        assert!(body.contains("\"kind\":\"crash\""), "{body}");
        assert!(!body.contains("round-completed"), "{body}");

        // A caught-up tail answers empty after the capped long-poll
        // instead of blocking the server.
        let started = std::time::Instant::now();
        let (_, body) = http_get(addr, "/events?since=2").unwrap();
        assert!(body.contains("\"events\":[]"), "{body}");
        assert!(started.elapsed() < Duration::from_secs(2));

        let (head, body) = http_get(addr, "/health").unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "fleet health\nall campaigns healthy\n");
    }

    #[test]
    fn extra_prom_chunk_is_appended_to_the_exposition() {
        let shared = Arc::new(StatusShared::new(Telemetry::disabled()));
        shared.set_extra_prom(
            "# HELP torpedo_fleet_health_findings Active fleet health findings.\n\
             # TYPE torpedo_fleet_health_findings gauge\n\
             torpedo_fleet_health_findings{detector=\"coverage-plateau\"} 2\n"
                .to_string(),
        );
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&shared)).unwrap();
        let (head, body) = http_get(server.local_addr(), "/metrics").unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let samples = crate::prom::check_exposition(&body).unwrap();
        assert!(samples.contains(&(
            "torpedo_fleet_health_findings{detector=\"coverage-plateau\"}".to_string(),
            2.0
        )));
        // `/metrics.prom` is an alias: the same head and body.
        assert_eq!(
            http_get(server.local_addr(), "/metrics.prom").unwrap(),
            (head, body)
        );
    }

    #[test]
    fn page_updates_are_visible() {
        let shared = Arc::new(StatusShared::new(Telemetry::disabled()));
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&shared)).unwrap();
        shared.set_page("round 1\n".to_string());
        let (_, body) = http_get(server.local_addr(), "/").unwrap();
        assert_eq!(body, "round 1\n");
        shared.set_page("round 2\n".to_string());
        let (_, body) = http_get(server.local_addr(), "/").unwrap();
        assert_eq!(body, "round 2\n");
    }
}
