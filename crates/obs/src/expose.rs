//! Live metrics exposition over HTTP — std-only, no external crates.
//!
//! [`serve`] binds a [`std::net::TcpListener`] and answers four routes
//! with a minimal HTTP/1.1 response per connection:
//!
//! * `GET /metrics` — OpenMetrics text (see [`crate::openmetrics`]);
//! * `GET /snapshot.json` — the full metrics snapshot as pretty JSON;
//! * `GET /recorder.jsonl` — the flight-recorder ring as JSONL (404
//!   when no recorder is attached);
//! * `GET /journeys.jsonl` — the journey collector's current ring as
//!   JSONL (404 when none is attached; see [`serve_with_journeys`]);
//! * `GET /events.jsonl` — the structured event ring as JSONL (404 when
//!   none is attached; see [`serve_observatory`]). Accepts a
//!   `?since=<seq>` cursor for tail-only fetches: only events with a
//!   sequence number strictly greater than `since` are returned, and the
//!   header line's `next_since` is the cursor to pass on the next poll —
//!   a dashboard polling at 1 Hz re-downloads nothing it has seen;
//! * `GET /model.json` — the latest per-stage service windows (404 when
//!   no publisher is attached);
//! * `GET /healthz` — liveness: always 200 with uptime and version, so
//!   orchestration can probe a run without touching the scrape routes.
//!
//! The server runs on one background thread, handling connections
//! serially — scrape endpoints see one client at a time and responses
//! are small, so there is no need for a thread pool. The returned
//! [`MetricsServer`] stops the thread on drop (it wakes the blocking
//! `accept` with a loopback connection).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::events::{EventLog, ModelPublisher};
use crate::journey::{journey_jsonl, JourneyCollector};
use crate::metrics::Registry;
use crate::recorder::FlightRecorder;

/// Handle to a running exposition server; shuts down on drop.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address (useful when serving on port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the server thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve `registry` (and optionally a flight recorder's ring) on `addr`.
///
/// `addr` is anything [`ToSocketAddrs`] accepts, e.g. `"127.0.0.1:9184"`
/// or `"127.0.0.1:0"` to pick a free port (read it back from
/// [`MetricsServer::addr`]).
pub fn serve(
    addr: impl ToSocketAddrs,
    registry: &Registry,
    recorder: Option<&FlightRecorder>,
) -> std::io::Result<MetricsServer> {
    serve_with_journeys(addr, registry, recorder, None)
}

/// [`serve`], additionally exposing a journey collector's ring at
/// `GET /journeys.jsonl` so `pipemap doctor --attach` can analyse a
/// live run.
pub fn serve_with_journeys(
    addr: impl ToSocketAddrs,
    registry: &Registry,
    recorder: Option<&FlightRecorder>,
    journeys: Option<&JourneyCollector>,
) -> std::io::Result<MetricsServer> {
    serve_observatory(addr, registry, recorder, journeys, None, None)
}

/// The full exposition surface: [`serve_with_journeys`] plus the
/// structured event ring at `GET /events.jsonl` and the per-stage
/// service windows at `GET /model.json`, so `pipemap top --attach` can render
/// a live dashboard.
pub fn serve_observatory(
    addr: impl ToSocketAddrs,
    registry: &Registry,
    recorder: Option<&FlightRecorder>,
    journeys: Option<&JourneyCollector>,
    events: Option<&EventLog>,
    model: Option<&ModelPublisher>,
) -> std::io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let registry = registry.clone_handle();
    let recorder = recorder.map(FlightRecorder::share_ring);
    let journeys = journeys.cloned();
    let events = events.cloned();
    let model = model.cloned();
    let stop_flag = stop.clone();
    let thread = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if stop_flag.load(Ordering::Relaxed) {
                break;
            }
            let Ok(stream) = conn else { continue };
            // A misbehaving client must not wedge the scrape loop.
            let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
            let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
            let _ = handle(
                stream,
                &registry,
                recorder.as_ref(),
                journeys.as_ref(),
                events.as_ref(),
                model.as_ref(),
            );
        }
    });
    Ok(MetricsServer {
        addr: local,
        stop,
        thread: Some(thread),
    })
}

fn handle(
    mut stream: TcpStream,
    registry: &Registry,
    recorder: Option<&FlightRecorder>,
    journeys: Option<&JourneyCollector>,
    events: Option<&EventLog>,
    model: Option<&ModelPublisher>,
) -> std::io::Result<()> {
    let (path, query) = match read_request_path(&mut stream) {
        Some(p) => p,
        None => {
            return respond(
                &mut stream,
                "400 Bad Request",
                "text/plain; charset=utf-8",
                "bad request\n",
            )
        }
    };
    match path.as_str() {
        "/metrics" => respond(
            &mut stream,
            "200 OK",
            "application/openmetrics-text; version=1.0.0; charset=utf-8",
            &registry.to_openmetrics(),
        ),
        "/snapshot.json" => {
            let mut body = registry.snapshot().to_json().to_json_pretty();
            body.push('\n');
            respond(
                &mut stream,
                "200 OK",
                "application/json; charset=utf-8",
                &body,
            )
        }
        "/recorder.jsonl" => match recorder {
            Some(rec) => respond(
                &mut stream,
                "200 OK",
                "application/jsonl; charset=utf-8",
                &rec.to_jsonl(),
            ),
            None => respond(
                &mut stream,
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no flight recorder attached\n",
            ),
        },
        "/journeys.jsonl" => match journeys {
            Some(col) => respond(
                &mut stream,
                "200 OK",
                "application/jsonl; charset=utf-8",
                &journey_jsonl(&col.snapshot()),
            ),
            None => respond(
                &mut stream,
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no journey collector attached\n",
            ),
        },
        "/events.jsonl" => match events {
            Some(log) => {
                let since = query_param(&query, "since")
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
                respond(
                    &mut stream,
                    "200 OK",
                    "application/jsonl; charset=utf-8",
                    &log.to_jsonl_since(since),
                )
            }
            None => respond(
                &mut stream,
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no event log attached\n",
            ),
        },
        "/model.json" => match model {
            Some(slot) => {
                let mut body = slot.current();
                if !body.ends_with('\n') {
                    body.push('\n');
                }
                respond(
                    &mut stream,
                    "200 OK",
                    "application/json; charset=utf-8",
                    &body,
                )
            }
            None => respond(
                &mut stream,
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no model publisher attached\n",
            ),
        },
        "/healthz" => {
            let mut doc = crate::json::Value::object();
            doc.set("status", "ok");
            doc.set("uptime_s", registry.uptime_s());
            doc.set("version", env!("CARGO_PKG_VERSION"));
            let mut body = doc.to_json();
            body.push('\n');
            respond(
                &mut stream,
                "200 OK",
                "application/json; charset=utf-8",
                &body,
            )
        }
        _ => respond(
            &mut stream,
            "404 Not Found",
            "text/plain; charset=utf-8",
            "routes: /metrics /snapshot.json /recorder.jsonl /journeys.jsonl /events.jsonl /model.json /healthz\n",
        ),
    }
}

/// The value of `name` in a raw query string (`a=1&b=2`), if present.
fn query_param<'q>(query: &'q str, name: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == name).then_some(v)
    })
}

/// Read up to the end of the request headers and return the request
/// path and query string (empty when absent), or `None` for anything
/// that is not a well-formed GET.
fn read_request_path(stream: &mut TcpStream) -> Option<(String, String)> {
    let mut buf = [0u8; 4096];
    let mut used = 0;
    loop {
        let n = stream.read(&mut buf[used..]).ok()?;
        if n == 0 {
            break;
        }
        used += n;
        if buf[..used].windows(4).any(|w| w == b"\r\n\r\n") || used == buf.len() {
            break;
        }
    }
    let text = std::str::from_utf8(&buf[..used]).ok()?;
    let mut parts = text.lines().next()?.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    if method != "GET" {
        return None;
    }
    let (path, query) = match path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (path, ""),
    };
    Some((path.to_string(), query.to_string()))
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::RecorderConfig;

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_snapshot_and_recorder() {
        let registry = Registry::new();
        let r = registry.recorder();
        r.add("srv.requests", 3);
        r.gauge_set("srv.level", 1.5);
        r.observe("srv.latency_s", 0.01);
        let rec = FlightRecorder::attach(&registry, RecorderConfig::default());
        rec.sample_now();
        rec.sample_now();

        let server = serve("127.0.0.1:0", &registry, Some(&rec)).unwrap();
        let addr = server.addr();

        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("application/openmetrics-text"));
        assert!(body.contains("pipemap_srv_requests_total 3"));
        assert!(body.contains("# TYPE pipemap_srv_level gauge"));
        assert!(body.contains("pipemap_srv_latency_s_bucket"));
        assert!(body.ends_with("# EOF\n"));

        let (head, body) = http_get(addr, "/snapshot.json");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        let doc = crate::json::Value::parse(body.trim()).unwrap();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("srv.requests"))
                .and_then(crate::json::Value::as_f64),
            Some(3.0)
        );

        let (head, body) = http_get(addr, "/recorder.jsonl");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_eq!(body.lines().count(), 2);

        let (head, _) = http_get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn recorder_route_is_404_without_a_recorder() {
        let registry = Registry::new();
        let server = serve("127.0.0.1:0", &registry, None).unwrap();
        let (head, _) = http_get(server.addr(), "/recorder.jsonl");
        assert!(head.starts_with("HTTP/1.1 404"));
        let (head, _) = http_get(server.addr(), "/journeys.jsonl");
        assert!(head.starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn journeys_route_serves_the_ring() {
        use crate::journey::{parse_journey_jsonl, JourneyCollector, JourneyConfig, JourneyKind};
        let registry = Registry::new();
        let col = JourneyCollector::new(JourneyConfig::default());
        let mut sink = col.sink();
        sink.record_at(1.0, JourneyKind::Source, 3, 0, 0, 0);
        sink.record_at(2.0, JourneyKind::Sink, 3, 1, 0, 0);
        sink.flush();
        let server = serve_with_journeys("127.0.0.1:0", &registry, None, Some(&col)).unwrap();
        let (head, body) = http_get(server.addr(), "/journeys.jsonl");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let events = parse_journey_jsonl(&body).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 3);
        // Serving snapshots without draining: the ring still holds both.
        assert_eq!(col.snapshot().len(), 2);
    }

    #[test]
    fn events_and_model_routes_serve_the_observatory() {
        use crate::events::{EventKind, EventLog, ModelPublisher, ObsEvent, Severity};
        let registry = Registry::new();
        let log = EventLog::default();
        log.emit(ObsEvent {
            t_us: 1.0,
            kind: EventKind::BottleneckChange,
            severity: Severity::Warning,
            stage: Some(1),
            value: 2.0,
            message: "moved".to_string(),
        });
        let model = ModelPublisher::new();
        let server = serve_observatory(
            "127.0.0.1:0",
            &registry,
            None,
            None,
            Some(&log),
            Some(&model),
        )
        .unwrap();
        let addr = server.addr();

        let (head, body) = http_get(addr, "/events.jsonl");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let events = crate::events::parse_events_jsonl(&body).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::BottleneckChange);

        // Before any publish the model route still serves valid JSON.
        let (head, body) = http_get(addr, "/model.json");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        crate::json::Value::parse(body.trim()).unwrap();
        model.publish("{\"schema\":\"x\"}".to_string());
        let (_, body) = http_get(addr, "/model.json");
        assert!(body.contains("\"schema\""), "{body}");
    }

    #[test]
    fn events_route_honours_the_since_cursor() {
        use crate::events::{EventKind, EventLog, ObsEvent, Severity};
        let registry = Registry::new();
        let log = EventLog::default();
        let mk = |t: f64| ObsEvent {
            t_us: t,
            kind: EventKind::Shed,
            severity: Severity::Info,
            stage: None,
            value: 0.0,
            message: "x".to_string(),
        };
        log.emit(mk(1.0));
        log.emit(mk(2.0));
        let server =
            serve_observatory("127.0.0.1:0", &registry, None, None, Some(&log), None).unwrap();
        let addr = server.addr();

        // Full fetch: header + 2 events, cursor = 2.
        let (_, body) = http_get(addr, "/events.jsonl");
        assert_eq!(body.lines().count(), 3, "{body}");
        let header = crate::json::Value::parse(body.lines().next().unwrap()).unwrap();
        assert_eq!(
            header
                .get("next_since")
                .and_then(crate::json::Value::as_f64),
            Some(2.0)
        );

        // Tail-only: nothing new after the cursor.
        let (_, body) = http_get(addr, "/events.jsonl?since=2");
        assert_eq!(body.lines().count(), 1, "{body}");

        log.emit(mk(3.0));
        let (_, body) = http_get(addr, "/events.jsonl?since=2");
        assert_eq!(body.lines().count(), 2, "{body}");
        let line = crate::json::Value::parse(body.lines().nth(1).unwrap()).unwrap();
        assert_eq!(
            line.get("seq").and_then(crate::json::Value::as_f64),
            Some(3.0)
        );

        // Garbage cursors fall back to a full fetch.
        let (_, body) = http_get(addr, "/events.jsonl?since=nope");
        assert_eq!(body.lines().count(), 4, "{body}");
    }

    #[test]
    fn healthz_always_answers() {
        let registry = Registry::new();
        let server = serve("127.0.0.1:0", &registry, None).unwrap();
        let (head, body) = http_get(server.addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let doc = crate::json::Value::parse(body.trim()).unwrap();
        assert_eq!(
            doc.get("status").and_then(crate::json::Value::as_str),
            Some("ok")
        );
        assert!(
            doc.get("uptime_s")
                .and_then(crate::json::Value::as_f64)
                .unwrap()
                >= 0.0
        );
        assert!(doc
            .get("version")
            .and_then(crate::json::Value::as_str)
            .is_some());
    }

    #[test]
    fn observatory_routes_are_404_when_unattached() {
        let registry = Registry::new();
        let server = serve("127.0.0.1:0", &registry, None).unwrap();
        let (head, _) = http_get(server.addr(), "/events.jsonl");
        assert!(head.starts_with("HTTP/1.1 404"));
        let (head, _) = http_get(server.addr(), "/model.json");
        assert!(head.starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn shutdown_stops_accepting() {
        let registry = Registry::new();
        let mut server = serve("127.0.0.1:0", &registry, None).unwrap();
        let addr = server.addr();
        server.shutdown();
        // The listener is gone: either connect fails or reads see EOF.
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = write!(s, "GET /metrics HTTP/1.1\r\n\r\n");
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            assert!(out.is_empty(), "server answered after shutdown: {out}");
        }
    }
}
