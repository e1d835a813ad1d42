//! Wire protocol: length-prefixed JSON frames over TCP.
//!
//! Every frame is a big-endian `u32` byte length followed by exactly
//! that many bytes of UTF-8 JSON. Requests embed the allocation problem
//! in the workspace's trace text format ([`tela_model::parse_problem`])
//! as a JSON string, so the wire schema never has to track the model's
//! builder API.
//!
//! The cardinal protocol rule mirrors the server's: **every request that
//! parses far enough to carry an `id` receives exactly one terminal
//! [`Response`]** — `solved`, `infeasible`, `best_effort`, `rejected`,
//! or `timed_out`. There is no "try again later" non-answer; rejection
//! with a retry hint *is* the backpressure signal.

use std::io::{self, Read, Write};
use tela_model::Address;
use tela_trace::json::{self, JsonError, Value};

/// Upper bound on a frame payload (1 MiB) — far above any real problem
/// (the canonical suite's biggest request is a few KB), and small enough
/// that `max_connections` half-read frames bound worst-case buffering at
/// a few hundred MB rather than gigabytes.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// A client's allocation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Tenant name for admission control and quotas.
    pub tenant: String,
    /// The problem, in trace text format (`capacity N` / `buffer ...`).
    pub problem: String,
    /// Optional step-budget cap; clamped to the tenant's quota.
    pub max_steps: Option<u64>,
    /// Optional deadline in milliseconds from receipt; clamped to the
    /// tenant's cap.
    pub deadline_ms: Option<u64>,
    /// Opt-in per-request tracing: the solve runs under a fresh tracer
    /// and the terminal response carries that request's span events (and
    /// only that request's — tenants never see each other's spans) in
    /// `trace_jsonl`.
    pub trace: bool,
}

/// A live-introspection command (`{"cmd": ..., "id": ...}` payloads).
///
/// Commands share the request framing but are *not* allocation
/// requests: they are answered immediately on the connection thread
/// with a JSON snapshot frame, never enter the solve pipeline, and are
/// excluded from the terminal-response accounting ([`Status`] counters
/// only describe allocation outcomes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Command {
    /// Client-chosen correlation id, echoed in the snapshot.
    pub id: u64,
    /// What to introspect.
    pub kind: CommandKind,
}

/// The introspection surfaces a [`Command`] can ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// Metrics snapshot: counters, gauges, histogram quantiles, queue
    /// depth, cache hit rate, per-tenant admission stats.
    Stats,
    /// Aggregate span rollup of the server's shared trace (names,
    /// counts, totals only — no per-request fields).
    Trace,
}

/// Either kind of inbound payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// An allocation request for the solve pipeline.
    Solve(Request),
    /// An introspection command.
    Command(Command),
}

/// Parses an inbound payload, dispatching on the presence of `"cmd"`.
pub fn parse_payload(payload: &str) -> Result<Payload, ProtocolError> {
    parse_addressed(payload).map_err(|(_, e)| e)
}

/// [`parse_payload`] for the server: a payload that parses as JSON but
/// fails the shape checks also yields the id it carried (0 when it has
/// none), taken from the same parse, so even malformed requests get an
/// addressed terminal response.
pub fn parse_addressed(payload: &str) -> Result<Payload, (u64, ProtocolError)> {
    let value = json::parse(payload).map_err(|e| (0, ProtocolError::Json(e)))?;
    payload_of(&value).map_err(|e| (id_of(&value), e))
}

fn payload_of(value: &Value) -> Result<Payload, ProtocolError> {
    let Some(cmd) = value.get("cmd") else {
        return request_of(value).map(Payload::Solve);
    };
    let kind = match cmd.as_str() {
        Some("stats") => CommandKind::Stats,
        Some("trace") => CommandKind::Trace,
        _ => return Err(ProtocolError::Shape("unknown 'cmd'")),
    };
    Ok(Payload::Command(Command {
        id: id_of(value),
        kind,
    }))
}

fn id_of(value: &Value) -> u64 {
    value.get("id").and_then(Value::as_u64).unwrap_or(0)
}

/// Terminal status of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// A valid full placement was found (addresses included).
    Solved,
    /// The solver proved no placement exists.
    Infeasible,
    /// The server degraded: partial placement or no answer within
    /// budget, with whatever diagnostics it had.
    BestEffort,
    /// Admission control or load shedding refused the work;
    /// `retry_after_ms` hints when to come back.
    Rejected,
    /// The deadline expired before the solve could finish (or start).
    TimedOut,
}

impl Status {
    /// Stable wire tag.
    pub fn tag(&self) -> &'static str {
        match self {
            Status::Solved => "solved",
            Status::Infeasible => "infeasible",
            Status::BestEffort => "best_effort",
            Status::Rejected => "rejected",
            Status::TimedOut => "timed_out",
        }
    }

    fn from_tag(tag: &str) -> Option<Status> {
        Some(match tag {
            "solved" => Status::Solved,
            "infeasible" => Status::Infeasible,
            "best_effort" => Status::BestEffort,
            "rejected" => Status::Rejected,
            "timed_out" => Status::TimedOut,
            _ => return None,
        })
    }
}

/// The server's terminal answer to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Echo of the request id (0 when the request was too malformed to
    /// carry one).
    pub id: u64,
    /// Terminal status.
    pub status: Status,
    /// Buffer addresses, in the problem's buffer order (solved only).
    pub addresses: Option<Vec<Address>>,
    /// Backpressure hint for rejected requests.
    pub retry_after_ms: Option<u64>,
    /// Human-readable detail (rejection reason, degradation cause).
    pub detail: String,
    /// Whether the answer came from the solution cache.
    pub cache_hit: bool,
    /// Search steps spent on this request.
    pub steps: u64,
    /// This request's span events in trace JSONL, present only when the
    /// request opted in with `"trace": true`. Rides inside the terminal
    /// response — no extra frames, so the one-terminal-response
    /// invariant is untouched.
    pub trace_jsonl: Option<String>,
}

impl Response {
    /// A rejection with a retry hint.
    pub fn rejected(id: u64, retry_after_ms: u64, detail: impl Into<String>) -> Self {
        Response {
            id,
            status: Status::Rejected,
            addresses: None,
            retry_after_ms: Some(retry_after_ms),
            detail: detail.into(),
            cache_hit: false,
            steps: 0,
            trace_jsonl: None,
        }
    }

    /// A bare terminal response with `status` and `detail`.
    pub fn terminal(id: u64, status: Status, detail: impl Into<String>) -> Self {
        Response {
            id,
            status,
            addresses: None,
            retry_after_ms: None,
            detail: detail.into(),
            cache_hit: false,
            steps: 0,
            trace_jsonl: None,
        }
    }
}

/// Why a frame or payload could not become a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload was not valid JSON.
    Json(JsonError),
    /// The JSON parsed but a required field was missing or mistyped.
    Shape(&'static str),
    /// The frame length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized(u32),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Json(e) => write!(f, "{e}"),
            ProtocolError::Shape(what) => write!(f, "malformed request: {what}"),
            ProtocolError::Oversized(len) => {
                write!(f, "frame of {len} bytes exceeds {MAX_FRAME_LEN}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

fn request_of(value: &Value) -> Result<Request, ProtocolError> {
    let id = value
        .get("id")
        .and_then(Value::as_u64)
        .ok_or(ProtocolError::Shape("missing numeric 'id'"))?;
    let tenant = value
        .get("tenant")
        .and_then(Value::as_str)
        .ok_or(ProtocolError::Shape("missing string 'tenant'"))?
        .to_string();
    let problem = value
        .get("problem")
        .and_then(Value::as_str)
        .ok_or(ProtocolError::Shape("missing string 'problem'"))?
        .to_string();
    let optional_u64 = |key: &str| -> Result<Option<u64>, ProtocolError> {
        match value.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or(ProtocolError::Shape("optional field must be an integer")),
        }
    };
    Ok(Request {
        id,
        tenant,
        problem,
        max_steps: optional_u64("max_steps")?,
        deadline_ms: optional_u64("deadline_ms")?,
        trace: value.get("trace").and_then(Value::as_bool).unwrap_or(false),
    })
}

/// An object of the fields that are present, in the order given. The
/// renderers below list keys sorted, the order the wire has always
/// carried (pinned by `rendered_bytes_are_pinned`).
fn object(fields: Vec<(&str, Option<Value>)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .filter_map(|(key, value)| Some((key.to_string(), value?)))
            .collect(),
    )
}

/// Renders a request payload (used by the client and the bench driver).
pub fn render_request(request: &Request) -> String {
    json::render(&object(vec![
        ("deadline_ms", request.deadline_ms.map(Value::U64)),
        ("id", Some(Value::U64(request.id))),
        ("max_steps", request.max_steps.map(Value::U64)),
        ("problem", Some(Value::Str(request.problem.clone()))),
        ("tenant", Some(Value::Str(request.tenant.clone()))),
        ("trace", request.trace.then_some(Value::Bool(true))),
    ]))
}

/// Renders a response payload.
pub fn render_response(response: &Response) -> String {
    let addresses = response
        .addresses
        .as_ref()
        .map(|a| Value::Array(a.iter().map(|&a| Value::U64(a)).collect()));
    json::render(&object(vec![
        ("addresses", addresses),
        ("cache_hit", Some(Value::Bool(response.cache_hit))),
        ("detail", Some(Value::Str(response.detail.clone()))),
        ("id", Some(Value::U64(response.id))),
        ("retry_after_ms", response.retry_after_ms.map(Value::U64)),
        (
            "status",
            Some(Value::Str(response.status.tag().to_string())),
        ),
        ("steps", Some(Value::U64(response.steps))),
        ("trace_jsonl", response.trace_jsonl.clone().map(Value::Str)),
    ]))
}

/// Parses a response payload (client side).
pub fn parse_response(payload: &str) -> Result<Response, ProtocolError> {
    let value = json::parse(payload).map_err(ProtocolError::Json)?;
    let id = value
        .get("id")
        .and_then(Value::as_u64)
        .ok_or(ProtocolError::Shape("missing numeric 'id'"))?;
    let status = value
        .get("status")
        .and_then(Value::as_str)
        .and_then(Status::from_tag)
        .ok_or(ProtocolError::Shape("missing or unknown 'status'"))?;
    let addresses = match value.get("addresses") {
        None | Some(Value::Null) => None,
        Some(v) => Some(
            v.as_array()
                .ok_or(ProtocolError::Shape("'addresses' must be an array"))?
                .iter()
                .map(|a| {
                    a.as_u64()
                        .ok_or(ProtocolError::Shape("addresses must be integers"))
                })
                .collect::<Result<Vec<_>, _>>()?,
        ),
    };
    Ok(Response {
        id,
        status,
        addresses,
        retry_after_ms: value.get("retry_after_ms").and_then(Value::as_u64),
        detail: value
            .get("detail")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string(),
        cache_hit: value
            .get("cache_hit")
            .and_then(Value::as_bool)
            .unwrap_or(false),
        steps: value.get("steps").and_then(Value::as_u64).unwrap_or(0),
        trace_jsonl: value
            .get("trace_jsonl")
            .and_then(Value::as_str)
            .map(str::to_string),
    })
}

/// Writes one frame: 4-byte big-endian length, then the payload.
pub fn write_frame(stream: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    let len = u32::try_from(bytes.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "payload too large"))?;
    // One write per frame: on a TCP_NODELAY socket a separate write of
    // the 4-byte prefix goes out as its own segment.
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(bytes);
    stream.write_all(&frame)?;
    stream.flush()
}

/// Outcome of one [`FrameReader::poll`].
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete payload arrived.
    Payload(String),
    /// The peer closed the connection cleanly.
    Eof,
    /// No complete frame yet (timeout or partial read); poll again.
    Pending,
}

/// Incremental frame reader tolerating short reads and read timeouts.
///
/// The server reads with a short socket timeout so it can observe
/// shutdown and disconnects between polls; `WouldBlock`/`TimedOut`
/// surface as [`Frame::Pending`], and partially received frames are
/// carried across polls.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Reads from `stream` until a full frame, EOF, or a would-block.
    ///
    /// # Errors
    ///
    /// Propagates real I/O errors, an oversized length prefix, or a
    /// payload that is not UTF-8.
    pub fn poll(&mut self, stream: &mut impl Read) -> io::Result<Frame> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(frame) = self.take_frame()? {
                return Ok(Frame::Payload(frame));
            }
            match stream.read(&mut chunk) {
                Ok(0) => return Ok(Frame::Eof),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(Frame::Pending)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn take_frame(&mut self) -> io::Result<Option<String>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                ProtocolError::Oversized(len).to_string(),
            ));
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = self.buf[4..total].to_vec();
        self.buf.drain(..total);
        String::from_utf8(payload)
            .map(Some)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let request = Request {
            id: 42,
            tenant: "prod".into(),
            problem: "capacity 10\nbuffer 0 4 6\n".into(),
            max_steps: Some(1000),
            deadline_ms: None,
            trace: false,
        };
        assert_eq!(
            parse_addressed(&render_request(&request)).unwrap(),
            Payload::Solve(request.clone())
        );
        let traced = Request {
            trace: true,
            ..request
        };
        assert_eq!(
            parse_addressed(&render_request(&traced)).unwrap(),
            Payload::Solve(traced)
        );
    }

    #[test]
    fn payloads_dispatch_on_cmd() {
        assert_eq!(
            parse_payload(r#"{"cmd":"stats","id":7}"#).unwrap(),
            Payload::Command(Command {
                id: 7,
                kind: CommandKind::Stats
            })
        );
        assert_eq!(
            parse_payload(r#"{"cmd":"trace"}"#).unwrap(),
            Payload::Command(Command {
                id: 0,
                kind: CommandKind::Trace
            })
        );
        assert!(matches!(
            parse_payload(r#"{"cmd":"reboot","id":1}"#),
            Err(ProtocolError::Shape(_))
        ));
        // No "cmd" key → an ordinary solve request.
        let solve = r#"{"id":1,"tenant":"t","problem":"capacity 4\n"}"#;
        assert!(matches!(
            parse_payload(solve).unwrap(),
            Payload::Solve(r) if r.id == 1 && !r.trace
        ));
    }

    #[test]
    fn responses_round_trip() {
        let response = Response {
            id: 9,
            status: Status::Solved,
            addresses: Some(vec![0, 6, 0]),
            retry_after_ms: None,
            detail: String::new(),
            cache_hit: true,
            steps: 17,
            trace_jsonl: Some("{\"trace\":\"tela\"}\n".to_string()),
        };
        assert_eq!(
            parse_response(&render_response(&response)).unwrap(),
            response
        );
        let rejected = Response::rejected(3, 250, "tenant over quota");
        assert_eq!(
            parse_response(&render_response(&rejected)).unwrap(),
            rejected
        );
    }

    #[test]
    fn rendered_bytes_are_pinned() {
        let full = Request {
            id: 42,
            tenant: "prod \"east\"\n".into(),
            problem: "capacity 10\nbuffer 0 4 6\n".into(),
            max_steps: Some(1000),
            deadline_ms: Some(250),
            trace: true,
        };
        assert_eq!(
            render_request(&full),
            r#"{"deadline_ms":250,"id":42,"max_steps":1000,"problem":"capacity 10\nbuffer 0 4 6\n","tenant":"prod \"east\"\n","trace":true}"#
        );
        let bare = Request {
            id: 0,
            tenant: String::new(),
            problem: String::new(),
            max_steps: None,
            deadline_ms: None,
            trace: false,
        };
        assert_eq!(
            render_request(&bare),
            r#"{"id":0,"problem":"","tenant":""}"#
        );

        let solved = Response {
            id: 9,
            status: Status::Solved,
            addresses: Some(vec![0, 6, 0]),
            retry_after_ms: None,
            detail: String::new(),
            cache_hit: true,
            steps: 17,
            trace_jsonl: None,
        };
        let mut best_effort = Response::terminal(4, Status::BestEffort, "partial \u{1}é");
        best_effort.addresses = Some(vec![]);
        best_effort.steps = 5000;
        let traced = Response {
            trace_jsonl: Some("{\"trace\":\"tela\"}\n".into()),
            ..solved.clone()
        };
        for (response, bytes) in [
            (
                solved,
                r#"{"addresses":[0,6,0],"cache_hit":true,"detail":"","id":9,"status":"solved","steps":17}"#,
            ),
            (
                Response::terminal(5, Status::Infeasible, "pair pigeonhole"),
                r#"{"cache_hit":false,"detail":"pair pigeonhole","id":5,"status":"infeasible","steps":0}"#,
            ),
            (
                best_effort,
                r#"{"addresses":[],"cache_hit":false,"detail":"partial \u0001é","id":4,"status":"best_effort","steps":5000}"#,
            ),
            (
                Response::rejected(3, 250, "tenant over quota"),
                r#"{"cache_hit":false,"detail":"tenant over quota","id":3,"retry_after_ms":250,"status":"rejected","steps":0}"#,
            ),
            (
                Response::terminal(u64::MAX, Status::TimedOut, "deadline"),
                r#"{"cache_hit":false,"detail":"deadline","id":18446744073709551615,"status":"timed_out","steps":0}"#,
            ),
            (
                traced,
                r#"{"addresses":[0,6,0],"cache_hit":true,"detail":"","id":9,"status":"solved","steps":17,"trace_jsonl":"{\"trace\":\"tela\"}\n"}"#,
            ),
        ] {
            assert_eq!(render_response(&response), bytes);
        }
    }

    #[test]
    fn numbers_outside_the_schema_are_shape_errors_not_json_errors() {
        // A float or negative number in a field the server never reads
        // does not stop the request.
        let served = r#"{"id":3,"tenant":"t","problem":"capacity 4\n","weight":-1.5e3}"#;
        assert!(matches!(
            parse_addressed(served),
            Ok(Payload::Solve(r)) if r.id == 3
        ));
        for id in ["1.0", "-1", "1e2"] {
            let payload = format!(r#"{{"id":{id},"tenant":"t","problem":""}}"#);
            assert_eq!(
                parse_addressed(&payload),
                Err((0, ProtocolError::Shape("missing numeric 'id'")))
            );
        }
        assert_eq!(
            parse_addressed(r#"{"id":1,"tenant":"t","problem":"","max_steps":-5}"#),
            Err((1, ProtocolError::Shape("optional field must be an integer")))
        );
    }

    #[test]
    fn malformed_requests_still_yield_an_id() {
        assert!(matches!(
            parse_addressed(r#"{"id":5,"tenant":17}"#),
            Err((5, ProtocolError::Shape(_)))
        ));
        assert!(matches!(
            parse_addressed("not json"),
            Err((0, ProtocolError::Json(_)))
        ));
    }

    #[test]
    fn frame_reader_handles_split_and_batched_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "first").unwrap();
        write_frame(&mut wire, "second").unwrap();
        // Feed the bytes one at a time through a reader that times out
        // when its script is exhausted.
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        for byte in wire {
            let mut cursor = std::io::Cursor::new(vec![byte]);
            loop {
                match reader.poll(&mut cursor).unwrap() {
                    Frame::Payload(p) => got.push(p),
                    Frame::Eof => break,
                    Frame::Pending => unreachable!("cursor never blocks"),
                }
            }
        }
        assert_eq!(got, vec!["first".to_string(), "second".to_string()]);
    }

    #[test]
    fn oversized_frames_error_instead_of_allocating() {
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new((MAX_FRAME_LEN + 1).to_be_bytes().to_vec());
        // First poll ingests the prefix and hits EOF without a frame...
        let err = loop {
            match reader.poll(&mut cursor) {
                Ok(Frame::Eof) => {
                    // ...the length check happens before waiting for the
                    // (never-arriving) payload on the next poll.
                    break reader.poll(&mut cursor).unwrap_err();
                }
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
