//! The wire protocol: length-prefixed JSON frames, versioned requests, and
//! deterministic response rendering.
//!
//! A frame is a 4-byte little-endian payload length followed by that many
//! bytes of UTF-8 JSON; frames above [`MAX_FRAME_BYTES`] are rejected
//! before allocation. Every request carries `{"v": 1|2, "id": N, "type":
//! ...}` — the version is negotiated *per request*, so v1 and v2 traffic
//! interleave freely on one connection and v1 responses stay byte-identical
//! to the PR 9 wire format. See `docs/SERVICE.md` for the full
//! request/response taxonomy.
//!
//! Frame *reads* go through [`FrameReader`], which keeps persistent decode
//! state: a read timeout mid-frame (slow or dribbling sender) resumes where
//! it left off instead of discarding the bytes already read and re-parsing
//! the stream mid-frame. Only a timeout before byte 0 of a frame means
//! "idle connection".
//!
//! Response rendering is centralised here — the daemon and the
//! `serve_client --batch` local path call the same [`ok_response`] (and the
//! v2 sweep path the same [`stream_point_response`]), so "daemon bytes
//! equal batch bytes for the same point" is a property of this module, not
//! of two renderers kept manually in sync. Simulation results travel as the
//! [`SimResult::fields`] name → IEEE-754-bit map, the crate's canonical
//! exact-equality contract. Those two responses are the hot path and are
//! written straight into one buffer; every rarer response is rendered
//! through a [`Value`] tree. Both end with the same result body, so a body
//! rendered once can be spliced behind any later request's envelope, as
//! the daemon's warm-point index does.

use std::io::{self, Read, Write};

use serde::Value;
use wp_cpu::SimResult;
use wp_experiments::matrix_cache::CacheHealth;
use wp_experiments::{MachineConfig, RunOptions, SimPlan, SimPoint};
use wp_workloads::{ProfileSpec, WorkloadSpec};

/// The baseline protocol version (the PR 9 wire format); v1 requests and
/// responses are byte-identical across protocol revisions.
pub const PROTOCOL_VERSION: u64 = 1;

/// Protocol version 2: everything in v1, plus `sweep` (whole-plan
/// submission with streamed per-point frames), `metrics`, and an optional
/// `priority` field on work-submitting requests.
pub const PROTOCOL_V2: u64 = 2;

/// Upper bound on one frame's payload, checked before allocating.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Upper bound on the unique points one `sweep` request may submit.
pub const MAX_SWEEP_POINTS: usize = 4096;

/// The default `priority` for requests that do not carry one (0 is most
/// urgent, [`MAX_PRIORITY`] least).
pub const DEFAULT_PRIORITY: u8 = 4;

/// The least-urgent admissible `priority` value.
pub const MAX_PRIORITY: u8 = 9;

/// Writes one length-prefixed frame.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    // One buffer and one write per frame: the length prefix sent on its own
    // would cost a second system call.
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()
}

/// Reads one length-prefixed frame. `Ok(None)` is a clean end-of-stream
/// (EOF before any length byte); EOF mid-frame is an error.
///
/// This one-shot form keeps **no** partial-read state across calls — it is
/// only correct on readers that never time out mid-frame (in-memory
/// buffers, blocking sockets without read timeouts). Connection handlers
/// and clients with read timeouts must hold a [`FrameReader`] instead: a
/// `WouldBlock`/`TimedOut` here after the first byte would lose the bytes
/// already consumed and desynchronize the stream.
pub fn read_frame(reader: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    FrameReader::new().read(reader)
}

/// Resumable frame decoding: the persistent per-connection state that makes
/// read timeouts safe *mid-frame*.
///
/// [`FrameReader::read`] pulls bytes until one whole frame is decoded. When
/// the underlying reader fails with `WouldBlock`/`TimedOut`, the error is
/// surfaced but the bytes already consumed (part of the length prefix, part
/// of the payload) stay buffered — the next call resumes exactly where the
/// stream paused. [`FrameReader::mid_frame`] distinguishes "idle before a
/// frame" from "paused inside one", so callers can treat only byte-0
/// timeouts as an idle connection.
#[derive(Debug, Default)]
pub struct FrameReader {
    len: [u8; 4],
    len_got: usize,
    payload: Vec<u8>,
    payload_got: usize,
    decoding_payload: bool,
}

impl FrameReader {
    /// A reader positioned at a frame boundary.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if a frame is partially decoded — a timeout now is a paused
    /// sender, not an idle connection.
    pub fn mid_frame(&self) -> bool {
        self.len_got > 0 || self.decoding_payload
    }

    /// Reads (or resumes reading) one frame. `Ok(None)` is a clean
    /// end-of-stream at a frame boundary; EOF mid-frame is an error. On
    /// `Err` of any kind the decode state is preserved, so a retriable
    /// error (`WouldBlock`/`TimedOut`) resumes losslessly. `Interrupted`
    /// is retried here and never surfaces.
    pub fn read(&mut self, reader: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
        while !self.decoding_payload {
            let got = read_uninterrupted(reader, &mut self.len[self.len_got..])?;
            if got == 0 {
                if self.len_got == 0 {
                    return Ok(None);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            self.len_got += got;
            if self.len_got == self.len.len() {
                let len = u32::from_le_bytes(self.len) as usize;
                if len > MAX_FRAME_BYTES {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
                    ));
                }
                self.payload = vec![0u8; len];
                self.payload_got = 0;
                self.decoding_payload = true;
            }
        }
        while self.payload_got < self.payload.len() {
            let got = read_uninterrupted(reader, &mut self.payload[self.payload_got..])?;
            if got == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            self.payload_got += got;
        }
        self.len_got = 0;
        self.decoding_payload = false;
        Ok(Some(std::mem::take(&mut self.payload)))
    }
}

/// `reader.read`, retried while a signal interrupts it. A socket read
/// under `SO_RCVTIMEO` is never restarted after a signal handler runs
/// (signal(7)), so without the retry a signal delivered to the process,
/// or a stop and resume, surfaces as a spurious `Interrupted` error that
/// would fail a client call or cut a live server connection.
fn read_uninterrupted(reader: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        match reader.read(buf) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            result => return result,
        }
    }
}

/// The typed error taxonomy every non-`ok` response carries; see
/// `docs/SERVICE.md` for when each fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The admission queue (or a per-connection budget) is full; retry
    /// later, against the shed request only — nothing partially ran.
    Overloaded,
    /// The request's deadline expired; partial-progress counters ride
    /// along.
    DeadlineExceeded,
    /// The daemon is draining for shutdown and admits nothing new.
    ShuttingDown,
    /// The request frame did not parse or validate.
    BadRequest,
    /// The daemon failed internally (worker died mid-flight).
    Internal,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A parsed, validated request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Simulate one point, bounded by a deadline.
    Simulate {
        /// The negotiated protocol version of this request (echoed in the
        /// response envelope).
        v: u64,
        /// Client-chosen request id, echoed in the response.
        id: u64,
        /// The full simulation configuration (boxed to keep the request
        /// enum's variants close in size).
        point: Box<SimPoint>,
        /// Deadline override in milliseconds (`None` = server default).
        deadline_ms: Option<u64>,
        /// Fairness-lane priority (0 most urgent, [`MAX_PRIORITY`] least);
        /// v1 requests always carry [`DEFAULT_PRIORITY`].
        priority: u8,
    },
    /// Simulate a whole plan and stream one frame per completed point
    /// (protocol v2 only).
    Sweep {
        /// Client-chosen request id, echoed in every stream frame.
        id: u64,
        /// The deduplicated points, in first-seen plan order; stream frame
        /// indices refer to positions in this list.
        points: Vec<SimPoint>,
        /// Points the plan requested, duplicates included.
        requested: usize,
        /// Deadline override in milliseconds for the whole sweep.
        deadline_ms: Option<u64>,
        /// Fairness-lane priority for the sweep job.
        priority: u8,
    },
    /// Report the daemon's health counters.
    Health {
        /// The negotiated protocol version of this request.
        v: u64,
        /// Client-chosen request id, echoed in the response.
        id: u64,
    },
    /// Export latency histograms, queue-depth series, and shed/coalesce
    /// counters (protocol v2 only).
    Metrics {
        /// Client-chosen request id, echoed in the response.
        id: u64,
    },
    /// Ask the daemon to drain and exit (the portable twin of SIGTERM).
    Shutdown {
        /// The negotiated protocol version of this request.
        v: u64,
        /// Client-chosen request id, echoed in the response.
        id: u64,
    },
}

/// Parses and validates one request payload. On error, returns the
/// request's best-effort protocol version (1 if the frame never declared a
/// supported one) and id (0 if the frame never got that far) alongside the
/// `bad_request` message, so the error response can be rendered in the
/// version the client spoke.
pub fn parse_request(payload: &[u8]) -> Result<Request, (u64, u64, String)> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| (PROTOCOL_VERSION, 0, "frame is not UTF-8".to_string()))?;
    let value = serde_json::from_str(text)
        .map_err(|e| (PROTOCOL_VERSION, 0, format!("invalid JSON: {e}")))?;
    let Some(fields) = value.as_object() else {
        return Err((
            PROTOCOL_VERSION,
            0,
            "request must be a JSON object".to_string(),
        ));
    };
    let id = value.get("id").and_then(Value::as_u64).unwrap_or(0);
    let v = match value.get("v").and_then(Value::as_u64) {
        Some(v @ (PROTOCOL_VERSION | PROTOCOL_V2)) => v,
        Some(v) => {
            return Err((
                PROTOCOL_VERSION,
                id,
                format!("unsupported protocol version `{v}`"),
            ))
        }
        None => return Err((PROTOCOL_VERSION, id, "missing field `v`".to_string())),
    };
    let fail = |message: String| Err((v, id, message));

    if value.get("id").and_then(Value::as_u64).is_none() {
        return fail("missing field `id`".to_string());
    }
    let Some(kind) = value.get("type").and_then(Value::as_str) else {
        return fail("missing field `type`".to_string());
    };

    // The v1 surface is frozen: its allowed types and fields are exactly
    // the PR 9 set, so v1 requests (and their error bytes) never change.
    let allowed: &[&str] = match (kind, v) {
        ("simulate", PROTOCOL_VERSION) => &[
            "v",
            "id",
            "type",
            "workload",
            "ops",
            "seed",
            "deadline_ms",
            "machine",
        ],
        ("simulate", _) => &[
            "v",
            "id",
            "type",
            "workload",
            "ops",
            "seed",
            "deadline_ms",
            "machine",
            "priority",
        ],
        ("health" | "shutdown", _) => &["v", "id", "type"],
        ("sweep", PROTOCOL_V2) => &[
            "v",
            "id",
            "type",
            "plan",
            "profile",
            "points",
            "ops",
            "seed",
            "deadline_ms",
            "priority",
        ],
        ("metrics", PROTOCOL_V2) => &["v", "id", "type"],
        (other, _) => return fail(format!("unknown request type `{other}`")),
    };
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return fail(format!("unknown field `{key}`"));
        }
    }

    match kind {
        "health" => Ok(Request::Health { v, id }),
        "shutdown" => Ok(Request::Shutdown { v, id }),
        "metrics" => Ok(Request::Metrics { id }),
        "simulate" => {
            let Some(name) = value.get("workload").and_then(Value::as_str) else {
                return fail("missing field `workload`".to_string());
            };
            let Some(workload) = WorkloadSpec::parse(name) else {
                return fail(format!("unknown workload `{name}`"));
            };
            let Some(ops) = value.get("ops").and_then(Value::as_u64) else {
                return fail("missing field `ops`".to_string());
            };
            if ops == 0 {
                return fail("field `ops` must be positive".to_string());
            }
            let seed = parse_seed(&value)
                .map_err(|message| (v, id, message))?
                .unwrap_or(42);
            let deadline_ms = parse_deadline(&value).map_err(|message| (v, id, message))?;
            let priority = parse_priority(&value).map_err(|message| (v, id, message))?;
            let machine = match value.get("machine") {
                None => MachineConfig::baseline(),
                Some(machine) => parse_machine(machine).map_err(|message| (v, id, message))?,
            };
            let options = RunOptions::default().with_ops(ops as usize).with_seed(seed);
            let point = SimPoint::with_workload(workload, machine, options);
            Ok(Request::Simulate {
                v,
                id,
                point: Box::new(point),
                deadline_ms,
                priority,
            })
        }
        "sweep" => {
            let deadline_ms = parse_deadline(&value).map_err(|message| (v, id, message))?;
            let priority = parse_priority(&value).map_err(|message| (v, id, message))?;
            let seed = parse_seed(&value)
                .map_err(|message| (v, id, message))?
                .unwrap_or(42);
            let ops = match value.get("ops") {
                None => None,
                Some(ops) => match ops.as_u64() {
                    Some(0) | None => return fail("field `ops` must be positive".to_string()),
                    some => some,
                },
            };
            let shapes = ["plan", "profile", "points"]
                .iter()
                .filter(|key| value.get(key).is_some())
                .count();
            if shapes != 1 {
                return fail(
                    "exactly one of `plan`, `profile`, or `points` is required".to_string(),
                );
            }
            let plan = if let Some(plan) = value.get("plan") {
                let Some(name) = plan.as_str() else {
                    return fail("field `plan` must be a string".to_string());
                };
                if name != "run_all" {
                    return fail(format!("unknown plan `{name}`"));
                }
                let Some(ops) = ops else {
                    return fail("missing field `ops`".to_string());
                };
                let options = RunOptions::default().with_ops(ops as usize).with_seed(seed);
                wp_experiments::run_all_plan(&options)
            } else if let Some(profile) = value.get("profile") {
                if profile.as_object().is_none() {
                    return fail("field `profile` must be an object".to_string());
                }
                let text = render(profile.clone());
                let profile = match ProfileSpec::from_json(&text, "field `profile`") {
                    Ok(profile) => profile,
                    Err(e) => return fail(format!("{e}")),
                };
                let Some(ops) = ops else {
                    return fail("missing field `ops`".to_string());
                };
                let options = RunOptions::default().with_ops(ops as usize).with_seed(seed);
                wp_experiments::coverage::profile_plan(&profile, &options)
            } else {
                let Some(items) = value.get("points").and_then(Value::as_array) else {
                    return fail("field `points` must be an array".to_string());
                };
                if items.is_empty() {
                    return fail("field `points` must not be empty".to_string());
                }
                let mut plan = SimPlan::new();
                for item in items {
                    let point =
                        parse_sweep_point(item, ops, seed).map_err(|message| (v, id, message))?;
                    plan.add(point);
                }
                plan
            };
            let points = plan.unique_points();
            if points.is_empty() {
                return fail("the sweep plan contains no points".to_string());
            }
            if points.len() > MAX_SWEEP_POINTS {
                return fail(format!(
                    "sweep exceeds {MAX_SWEEP_POINTS} unique points ({} requested)",
                    points.len()
                ));
            }
            Ok(Request::Sweep {
                id,
                requested: plan.len(),
                points,
                deadline_ms,
                priority,
            })
        }
        _ => unreachable!("type was matched against the allowed list"),
    }
}

fn parse_seed(value: &Value) -> Result<Option<u64>, String> {
    match value.get("seed") {
        None => Ok(None),
        Some(seed) => match seed.as_u64() {
            Some(seed) => Ok(Some(seed)),
            None => Err("field `seed` must be an unsigned integer".to_string()),
        },
    }
}

fn parse_deadline(value: &Value) -> Result<Option<u64>, String> {
    match value.get("deadline_ms") {
        None => Ok(None),
        Some(deadline) => match deadline.as_u64() {
            Some(0) | None => Err("field `deadline_ms` must be positive".to_string()),
            Some(ms) => Ok(Some(ms)),
        },
    }
}

fn parse_priority(value: &Value) -> Result<u8, String> {
    match value.get("priority") {
        None => Ok(DEFAULT_PRIORITY),
        Some(priority) => match priority.as_u64() {
            Some(p) if p <= MAX_PRIORITY as u64 => Ok(p as u8),
            _ => Err(format!(
                "field `priority` must be an integer between 0 and {MAX_PRIORITY}"
            )),
        },
    }
}

/// Parses one element of a sweep's `points` array: the same shape as a
/// `simulate` request's point fields, with `ops`/`seed` falling back to the
/// sweep-level values.
fn parse_sweep_point(
    value: &Value,
    default_ops: Option<u64>,
    default_seed: u64,
) -> Result<SimPoint, String> {
    let Some(fields) = value.as_object() else {
        return Err("each element of `points` must be an object".to_string());
    };
    for (key, _) in fields {
        if !["workload", "ops", "seed", "machine"].contains(&key.as_str()) {
            return Err(format!("unknown field `{key}` in a sweep point"));
        }
    }
    let Some(name) = value.get("workload").and_then(Value::as_str) else {
        return Err("missing field `workload`".to_string());
    };
    let Some(workload) = WorkloadSpec::parse(name) else {
        return Err(format!("unknown workload `{name}`"));
    };
    let ops = match value.get("ops") {
        None => match default_ops {
            Some(ops) => ops,
            None => return Err("missing field `ops`".to_string()),
        },
        Some(ops) => match ops.as_u64() {
            Some(0) | None => return Err("field `ops` must be positive".to_string()),
            Some(ops) => ops,
        },
    };
    let seed = match value.get("seed") {
        None => default_seed,
        Some(seed) => seed
            .as_u64()
            .ok_or_else(|| "field `seed` must be an unsigned integer".to_string())?,
    };
    let machine = match value.get("machine") {
        None => MachineConfig::baseline(),
        Some(machine) => parse_machine(machine)?,
    };
    let options = RunOptions::default().with_ops(ops as usize).with_seed(seed);
    Ok(SimPoint::with_workload(workload, machine, options))
}

/// Parses the optional `machine` object — policy labels plus a d-cache
/// associativity override on the paper baseline — and validates the
/// result by the two cache geometries, the only steps of
/// `Processor::with_l1` that can fail. An invalid configuration is a
/// `bad_request` here and never a panic in a worker, and no processor is
/// built to find out.
fn parse_machine(value: &Value) -> Result<MachineConfig, String> {
    let Some(fields) = value.as_object() else {
        return Err("field `machine` must be an object".to_string());
    };
    for (key, _) in fields {
        if !["dpolicy", "ipolicy", "assoc"].contains(&key.as_str()) {
            return Err(format!("unknown machine field `{key}`"));
        }
    }
    let mut machine = MachineConfig::baseline();
    if let Some(label) = value.get("dpolicy") {
        let Some(label) = label.as_str() else {
            return Err("machine field `dpolicy` must be a string".to_string());
        };
        let Some(dpolicy) = wp_cache::DCachePolicy::parse(label) else {
            return Err(format!("unknown d-cache policy `{label}`"));
        };
        machine = machine.with_dpolicy(dpolicy);
    }
    if let Some(label) = value.get("ipolicy") {
        let Some(label) = label.as_str() else {
            return Err("machine field `ipolicy` must be a string".to_string());
        };
        let Some(ipolicy) = wp_cache::ICachePolicy::parse(label) else {
            return Err(format!("unknown i-cache policy `{label}`"));
        };
        machine = machine.with_ipolicy(ipolicy);
    }
    if let Some(assoc) = value.get("assoc") {
        let Some(assoc) = assoc.as_u64() else {
            return Err("machine field `assoc` must be an unsigned integer".to_string());
        };
        machine = machine.with_l1d(machine.l1d.with_associativity(assoc as usize));
    }
    machine
        .l1d
        .geometry()
        .and_then(|_| machine.l1i.geometry())
        .map_err(|e| format!("invalid machine configuration: {e}"))?;
    Ok(machine)
}

/// A hand-built [`Value`] serialised as-is.
struct Raw(Value);

impl serde::Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn render(value: Value) -> String {
    serde_json::to_string(&Raw(value)).expect("JSON rendering is infallible")
}

fn envelope(v: u64, id: u64, ok: bool) -> Vec<(String, Value)> {
    vec![
        ("v".to_string(), Value::UInt(v)),
        ("id".to_string(), Value::UInt(id)),
        ("ok".to_string(), Value::Bool(ok)),
    ]
}

/// The envelope of a successful `simulate` response, up to its result body.
macro_rules! ok_head {
    ($v:expr, $id:expr) => {
        format_args!("{{\"v\":{},\"id\":{},\"ok\":true,", $v, $id)
    };
}

/// The envelope of a v2 sweep point frame, up to its result body.
macro_rules! stream_point_head {
    ($id:expr, $index:expr) => {
        format_args!(
            "{{\"v\":{},\"id\":{},\"ok\":true,\"stream\":\"point\",\"index\":{},",
            PROTOCOL_V2, $id, $index
        )
    };
}

/// Renders a successful simulation response: the [`SimResult::fields`]
/// name → u64-bits map, in the canonical field order. Deterministic down
/// to the byte for equal results — the property the soak harness diffs.
/// Always renders the v1 envelope; use [`ok_response_for`] to echo a
/// request's negotiated version.
pub fn ok_response(id: u64, result: &SimResult) -> String {
    ok_response_for(PROTOCOL_VERSION, id, result)
}

/// [`ok_response`] with an explicit envelope version.
pub fn ok_response_for(v: u64, id: u64, result: &SimResult) -> String {
    render_result(ok_head!(v, id), result)
}

/// The result body every successful point response ends with: `"result":`,
/// the [`SimResult::fields`] map, and the envelope's closing brace. Spliced
/// behind an envelope ([`ok_response_with_body`],
/// [`stream_point_response_with_body`]), a rendered body gives the bytes
/// [`ok_response_for`] and [`stream_point_response`] render from the
/// result.
pub(crate) fn result_body(result: &SimResult) -> String {
    render_result(format_args!(""), result)
}

/// [`ok_response_for`] around a body [`result_body`] rendered.
pub(crate) fn ok_response_with_body(v: u64, id: u64, body: &str) -> String {
    splice_body(ok_head!(v, id), body)
}

/// [`stream_point_response`] around a body [`result_body`] rendered.
pub(crate) fn stream_point_response_with_body(id: u64, index: usize, body: &str) -> String {
    splice_body(stream_point_head!(id, index), body)
}

/// Writes `head`, then `body`, into one pre-sized buffer.
fn splice_body(head: std::fmt::Arguments<'_>, body: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(96 + body.len());
    let _ = out.write_fmt(head);
    out.push_str(body);
    out
}

/// Writes `head`, then the body [`result_body`] describes, into one
/// pre-sized buffer: the one renderer of a result. The bytes are those the
/// [`Value`] renderer gives the same object (field names need no
/// escaping), without building the tree.
fn render_result(head: std::fmt::Arguments<'_>, result: &SimResult) -> String {
    use std::fmt::Write as _;
    let fields = result.fields();
    // Per field: the name, four bytes of quotes, colon and comma, and at
    // most 20 digits.
    let body: usize = fields.iter().map(|(name, _)| name.len() + 24).sum();
    let mut out = String::with_capacity(96 + body);
    let _ = out.write_fmt(head);
    out.push_str("\"result\":{");
    for (index, (name, bits)) in fields.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{bits}");
    }
    out.push_str("}}");
    out
}

/// Renders a bare acknowledgement (the `shutdown` response) in envelope
/// version `v`.
pub fn ack_response(v: u64, id: u64) -> String {
    render(Value::Object(envelope(v, id, true)))
}

/// Renders the `health` response in envelope version `v`: the same
/// [`CacheHealth`] struct `run_all --health-json` writes, under
/// `health.cache`, plus the daemon's singleflight counters and lifecycle
/// state.
pub fn health_response(
    v: u64,
    id: u64,
    cache: &CacheHealth,
    executed: u64,
    cache_hits: u64,
    coalesced: u64,
    shutting_down: bool,
) -> String {
    let health = vec![
        ("cache".to_string(), serde::Serialize::to_value(cache)),
        ("degraded".to_string(), Value::Bool(cache.degraded)),
        ("executed".to_string(), Value::UInt(executed)),
        ("cache_hits".to_string(), Value::UInt(cache_hits)),
        ("coalesced".to_string(), Value::UInt(coalesced)),
        ("shutting_down".to_string(), Value::Bool(shutting_down)),
    ];
    let mut response = envelope(v, id, true);
    response.push(("health".to_string(), Value::Object(health)));
    render(Value::Object(response))
}

/// Renders a typed error response in envelope version `v`.
pub fn error_response(v: u64, id: u64, code: ErrorCode, message: &str) -> String {
    let error = vec![
        ("code".to_string(), Value::Str(code.as_str().to_string())),
        ("message".to_string(), Value::Str(message.to_string())),
    ];
    let mut response = envelope(v, id, false);
    response.push(("error".to_string(), Value::Object(error)));
    render(Value::Object(response))
}

/// Renders a `deadline_exceeded` error with partial-progress counters in
/// envelope version `v`.
pub fn deadline_response(v: u64, id: u64, ops_completed: u64, ops_requested: u64) -> String {
    let error = vec![
        (
            "code".to_string(),
            Value::Str(ErrorCode::DeadlineExceeded.as_str().to_string()),
        ),
        (
            "message".to_string(),
            Value::Str(format!(
                "deadline exceeded after {ops_completed} of {ops_requested} ops"
            )),
        ),
        ("ops_completed".to_string(), Value::UInt(ops_completed)),
        ("ops_requested".to_string(), Value::UInt(ops_requested)),
    ];
    let mut response = envelope(v, id, false);
    response.push(("error".to_string(), Value::Object(error)));
    render(Value::Object(response))
}

/// Renders one v2 sweep stream frame: the result for plan point `index`
/// (a position in the sweep's deduplicated point list). The `result`
/// object is written by the same helper as [`ok_response`],
/// so a streamed point's payload is byte-comparable with the batch
/// rendering of the same result. Frames arrive in completion order; the
/// `index` is authoritative, not the arrival position.
pub fn stream_point_response(id: u64, index: usize, result: &SimResult) -> String {
    render_result(stream_point_head!(id, index), result)
}

/// Renders the v2 sweep terminator: every point frame has been sent.
/// Deterministic for a given plan — it carries no warm/cold provenance, so
/// a cold sweep and a warm replay terminate with identical bytes.
pub fn sweep_summary_response(id: u64, requested: usize, points: usize, streamed: usize) -> String {
    let mut response = envelope(PROTOCOL_V2, id, true);
    response.push(("stream".to_string(), Value::Str("summary".to_string())));
    response.push(("requested".to_string(), Value::UInt(requested as u64)));
    response.push(("points".to_string(), Value::UInt(points as u64)));
    response.push(("streamed".to_string(), Value::UInt(streamed as u64)));
    response.push(("complete".to_string(), Value::Bool(true)));
    render(Value::Object(response))
}

/// Renders the v2 sweep terminator for a sweep whose deadline expired:
/// `streamed` of `total` point frames were delivered before cancellation.
pub fn sweep_deadline_response(id: u64, streamed: usize, total: usize) -> String {
    let error = vec![
        (
            "code".to_string(),
            Value::Str(ErrorCode::DeadlineExceeded.as_str().to_string()),
        ),
        (
            "message".to_string(),
            Value::Str(format!(
                "sweep deadline exceeded after {streamed} of {total} points"
            )),
        ),
        ("points_streamed".to_string(), Value::UInt(streamed as u64)),
        ("points_total".to_string(), Value::UInt(total as u64)),
    ];
    let mut response = envelope(PROTOCOL_V2, id, false);
    response.push(("error".to_string(), Value::Object(error)));
    render(Value::Object(response))
}

/// One latency histogram in a [`MetricsSnapshot`]: log2 buckets of
/// milliseconds (bucket 0 is `< 1 ms`, bucket `i` is `[2^(i-1), 2^i) ms`,
/// the last bucket collects everything slower).
#[derive(Debug, Clone, Default)]
pub struct HistogramSnapshot {
    /// Completed requests per log2-millisecond bucket.
    pub buckets: Vec<u64>,
    /// Total completed requests observed.
    pub count: u64,
    /// The slowest observed latency in milliseconds.
    pub max_ms: u64,
}

impl HistogramSnapshot {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("count".to_string(), Value::UInt(self.count)),
            ("max_ms".to_string(), Value::UInt(self.max_ms)),
            (
                "buckets".to_string(),
                Value::Array(self.buckets.iter().map(|&c| Value::UInt(c)).collect()),
            ),
        ])
    }
}

/// Everything the v2 `metrics` response reports; the daemon fills one from
/// its live counters and [`metrics_response`] renders it deterministically.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Simulations executed (the singleflight counter).
    pub executed: u64,
    /// Led flights and warm points (of `simulate` and `sweep` requests)
    /// served from the matrix cache.
    pub cache_hits: u64,
    /// Joins that coalesced onto an in-flight point.
    pub coalesced: u64,
    /// Requests shed with `overloaded`.
    pub shed: u64,
    /// Followers that re-led a fresh flight after inheriting a shorter
    /// deadline's cancellation (the deadline-inheritance fix at work).
    pub releads: u64,
    /// Fairness lanes currently holding queued jobs.
    pub lanes_active: u64,
    /// Jobs currently queued across all lanes.
    pub jobs_queued: u64,
    /// The global queued-job cap (`--queue-depth`).
    pub queue_cap: u64,
    /// The per-lane queued-job cap (`--lane-depth`).
    pub lane_cap: u64,
    /// Sweep jobs admitted.
    pub sweeps_started: u64,
    /// Sweeps that streamed every point.
    pub sweeps_completed: u64,
    /// Sweeps cancelled by deadline or shutdown.
    pub sweeps_cancelled: u64,
    /// Point frames streamed by sweeps.
    pub sweep_points_streamed: u64,
    /// Gang-scheduled engine passes run on behalf of sweeps.
    pub engine_passes: u64,
    /// `(ms since start, jobs queued)` samples, oldest first — recorded at
    /// every admission and dispatch, bounded to the most recent window.
    pub depth_series: Vec<(u64, u64)>,
    /// Latency histogram for `simulate` requests.
    pub point_latency: HistogramSnapshot,
    /// Latency histogram for `sweep` requests (admission to terminator).
    pub sweep_latency: HistogramSnapshot,
}

/// Renders the v2 `metrics` response.
pub fn metrics_response(id: u64, snapshot: &MetricsSnapshot) -> String {
    let lanes = Value::Object(vec![
        ("active".to_string(), Value::UInt(snapshot.lanes_active)),
        ("queued".to_string(), Value::UInt(snapshot.jobs_queued)),
        ("queue_cap".to_string(), Value::UInt(snapshot.queue_cap)),
        ("lane_cap".to_string(), Value::UInt(snapshot.lane_cap)),
    ]);
    let sweeps = Value::Object(vec![
        ("started".to_string(), Value::UInt(snapshot.sweeps_started)),
        (
            "completed".to_string(),
            Value::UInt(snapshot.sweeps_completed),
        ),
        (
            "cancelled".to_string(),
            Value::UInt(snapshot.sweeps_cancelled),
        ),
        (
            "points_streamed".to_string(),
            Value::UInt(snapshot.sweep_points_streamed),
        ),
        (
            "engine_passes".to_string(),
            Value::UInt(snapshot.engine_passes),
        ),
    ]);
    let depth_series = Value::Array(
        snapshot
            .depth_series
            .iter()
            .map(|&(ms, depth)| Value::Array(vec![Value::UInt(ms), Value::UInt(depth)]))
            .collect(),
    );
    let latency = Value::Object(vec![
        ("point".to_string(), snapshot.point_latency.to_value()),
        ("sweep".to_string(), snapshot.sweep_latency.to_value()),
    ]);
    let metrics = vec![
        ("uptime_ms".to_string(), Value::UInt(snapshot.uptime_ms)),
        ("executed".to_string(), Value::UInt(snapshot.executed)),
        ("cache_hits".to_string(), Value::UInt(snapshot.cache_hits)),
        ("coalesced".to_string(), Value::UInt(snapshot.coalesced)),
        ("shed".to_string(), Value::UInt(snapshot.shed)),
        ("releads".to_string(), Value::UInt(snapshot.releads)),
        ("lanes".to_string(), lanes),
        ("sweeps".to_string(), sweeps),
        ("queue_depth_series".to_string(), depth_series),
        ("latency_ms".to_string(), latency),
    ];
    let mut response = envelope(PROTOCOL_V2, id, true);
    response.push(("metrics".to_string(), Value::Object(metrics)));
    render(Value::Object(response))
}

/// Builds the `simulate` request JSON for `point` — the client-side twin
/// of [`parse_request`], shared by `serve_client` and the test harnesses.
/// Only baseline-derived machines expressible in the protocol's `machine`
/// object (d-policy, i-policy, d-cache associativity) round-trip; that is
/// exactly the shape `serve_client` can ask for.
pub fn simulate_request(id: u64, point: &SimPoint, deadline_ms: Option<u64>) -> String {
    simulate_request_v(PROTOCOL_VERSION, id, point, deadline_ms, None)
}

/// [`simulate_request`] with an explicit protocol version and an optional
/// `priority` field (v2 only; passing one with `v = 1` would be rejected by
/// the frozen v1 parser, so the builder only emits it for v2 requests).
pub fn simulate_request_v(
    v: u64,
    id: u64,
    point: &SimPoint,
    deadline_ms: Option<u64>,
    priority: Option<u8>,
) -> String {
    let mut request = vec![
        ("v".to_string(), Value::UInt(v)),
        ("id".to_string(), Value::UInt(id)),
        ("type".to_string(), Value::Str("simulate".to_string())),
        ("workload".to_string(), Value::Str(point.workload.label())),
        ("ops".to_string(), Value::UInt(point.options.ops as u64)),
        ("seed".to_string(), Value::UInt(point.options.seed)),
    ];
    if let Some(ms) = deadline_ms {
        request.push(("deadline_ms".to_string(), Value::UInt(ms)));
    }
    if v != PROTOCOL_VERSION {
        if let Some(priority) = priority {
            request.push(("priority".to_string(), Value::UInt(priority as u64)));
        }
    }
    let machine = machine_fields(point);
    if !machine.is_empty() {
        request.push(("machine".to_string(), Value::Object(machine)));
    }
    render(Value::Object(request))
}

/// Renders the protocol `machine` object for `point` as deltas from the
/// paper baseline (empty = baseline machine).
fn machine_fields(point: &SimPoint) -> Vec<(String, Value)> {
    let baseline = MachineConfig::baseline();
    let mut machine = Vec::new();
    if point.machine.dpolicy != baseline.dpolicy {
        machine.push((
            "dpolicy".to_string(),
            Value::Str(point.machine.dpolicy.label().to_string()),
        ));
    }
    if point.machine.ipolicy != baseline.ipolicy {
        machine.push((
            "ipolicy".to_string(),
            Value::Str(point.machine.ipolicy.label().to_string()),
        ));
    }
    if point.machine.l1d.associativity != baseline.l1d.associativity {
        machine.push((
            "assoc".to_string(),
            Value::UInt(point.machine.l1d.associativity as u64),
        ));
    }
    machine
}

/// The plan shapes a v2 `sweep` request can submit; the request-builder
/// twin of the `plan`/`profile`/`points` alternatives in [`parse_request`].
#[derive(Debug, Clone)]
pub enum SweepPlanSpec {
    /// The named built-in full plan (`"plan": "run_all"`): all 11 paper
    /// artefacts, deduplicated server-side.
    RunAll,
    /// An inline `--profile` spec (`"profile": {...}`).
    Profile(ProfileSpec),
    /// An explicit point list (`"points": [...]`). Only baseline-derived
    /// machines expressible in the protocol round-trip, as for
    /// [`simulate_request`].
    Points(Vec<SimPoint>),
}

/// Builds the v2 `sweep` request JSON. `ops` and `seed` are the sweep-level
/// defaults applied to plan/profile points (explicit points carry their
/// own).
pub fn sweep_request(
    id: u64,
    spec: &SweepPlanSpec,
    ops: u64,
    seed: u64,
    deadline_ms: Option<u64>,
    priority: Option<u8>,
) -> String {
    let mut request = vec![
        ("v".to_string(), Value::UInt(PROTOCOL_V2)),
        ("id".to_string(), Value::UInt(id)),
        ("type".to_string(), Value::Str("sweep".to_string())),
    ];
    match spec {
        SweepPlanSpec::RunAll => {
            request.push(("plan".to_string(), Value::Str("run_all".to_string())));
        }
        SweepPlanSpec::Profile(profile) => {
            request.push(("profile".to_string(), serde::Serialize::to_value(profile)));
        }
        SweepPlanSpec::Points(points) => {
            let items = points
                .iter()
                .map(|point| {
                    let mut fields = vec![
                        ("workload".to_string(), Value::Str(point.workload.label())),
                        ("ops".to_string(), Value::UInt(point.options.ops as u64)),
                        ("seed".to_string(), Value::UInt(point.options.seed)),
                    ];
                    let machine = machine_fields(point);
                    if !machine.is_empty() {
                        fields.push(("machine".to_string(), Value::Object(machine)));
                    }
                    Value::Object(fields)
                })
                .collect();
            request.push(("points".to_string(), Value::Array(items)));
        }
    }
    request.push(("ops".to_string(), Value::UInt(ops)));
    request.push(("seed".to_string(), Value::UInt(seed)));
    if let Some(ms) = deadline_ms {
        request.push(("deadline_ms".to_string(), Value::UInt(ms)));
    }
    if let Some(priority) = priority {
        request.push(("priority".to_string(), Value::UInt(priority as u64)));
    }
    render(Value::Object(request))
}

/// Builds the v2 `metrics` request JSON.
pub fn metrics_request(id: u64) -> String {
    render(Value::Object(vec![
        ("v".to_string(), Value::UInt(PROTOCOL_V2)),
        ("id".to_string(), Value::UInt(id)),
        ("type".to_string(), Value::Str("metrics".to_string())),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_cache::{DCachePolicy, ICachePolicy};
    use wp_cpu::Processor;
    use wp_workloads::Benchmark;

    fn parse(json: &str) -> Result<Request, (u64, u64, String)> {
        parse_request(json.as_bytes())
    }

    /// A reader that yields its script one chunk at a time, failing with
    /// `pause` (a `WouldBlock` timeout, say) before every chunk — a
    /// deterministic dribbling sender.
    struct Dribble {
        chunks: Vec<Vec<u8>>,
        next: usize,
        blocked: bool,
        pause: io::ErrorKind,
    }

    impl Dribble {
        fn new(wire: &[u8], chunk: usize, pause: io::ErrorKind) -> Self {
            Self {
                chunks: wire.chunks(chunk).map(<[u8]>::to_vec).collect(),
                next: 0,
                blocked: false,
                pause,
            }
        }
    }

    impl io::Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.blocked {
                self.blocked = true;
                return Err(io::Error::new(self.pause, "dribble pause"));
            }
            self.blocked = false;
            let Some(chunk) = self.chunks.get(self.next) else {
                return Ok(0);
            };
            let take = chunk.len().min(buf.len());
            buf[..take].copy_from_slice(&chunk[..take]);
            if take == chunk.len() {
                self.next += 1;
            } else {
                self.chunks[self.next].drain(..take);
            }
            Ok(take)
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"v\":1}").expect("write");
        write_frame(&mut wire, b"").expect("write");
        let mut reader = wire.as_slice();
        assert_eq!(
            read_frame(&mut reader).expect("read"),
            Some(b"{\"v\":1}".to_vec())
        );
        assert_eq!(read_frame(&mut reader).expect("read"), Some(Vec::new()));
        assert_eq!(read_frame(&mut reader).expect("read"), None);
    }

    #[test]
    fn oversized_and_truncated_frames_are_errors() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        assert!(read_frame(&mut wire.as_slice()).is_err());
        let mut truncated = Vec::new();
        truncated.extend_from_slice(&8u32.to_le_bytes());
        truncated.extend_from_slice(b"abc");
        assert!(read_frame(&mut truncated.as_slice()).is_err());
    }

    #[test]
    fn frame_reader_resumes_across_mid_frame_timeouts() {
        // Two frames dribbled one byte at a time with a WouldBlock between
        // every byte: the one-shot read_frame would lose state at the first
        // timeout, the resumable reader decodes both frames losslessly.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"v\":1,\"id\":7}").expect("write");
        write_frame(&mut wire, b"{\"v\":2}").expect("write");
        let mut dribble = Dribble::new(&wire, 1, io::ErrorKind::WouldBlock);
        let mut frames = FrameReader::new();
        let mut decoded = Vec::new();
        let mut timeouts = 0;
        loop {
            match frames.read(&mut dribble) {
                Ok(Some(frame)) => decoded.push(frame),
                Ok(None) => break,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => timeouts += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0], b"{\"v\":1,\"id\":7}".to_vec());
        assert_eq!(decoded[1], b"{\"v\":2}".to_vec());
        assert!(timeouts > wire.len() / 2, "every byte paused the stream");
        assert!(!frames.mid_frame(), "reader parks at a frame boundary");
    }

    #[test]
    fn frame_reader_retries_interrupted_reads() {
        // A signal before every byte: one call still returns the whole
        // frame and never surfaces `Interrupted` to the caller.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"v\":1,\"id\":9}").expect("write");
        let mut signalled = Dribble::new(&wire, 1, io::ErrorKind::Interrupted);
        let mut frames = FrameReader::new();
        assert_eq!(
            frames.read(&mut signalled).expect("interrupts are retried"),
            Some(b"{\"v\":1,\"id\":9}".to_vec())
        );
        assert_eq!(frames.read(&mut signalled).expect("clean end"), None);
    }

    #[test]
    fn mid_frame_flag_distinguishes_idle_from_paused() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{}").expect("write");
        let mut frames = FrameReader::new();
        assert!(!frames.mid_frame(), "fresh reader is at a boundary");
        // Feed exactly one length byte, then stall.
        let mut partial = Dribble::new(&wire[..1], 1, io::ErrorKind::WouldBlock);
        loop {
            match frames.read(&mut partial) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
                other => panic!("expected a mid-frame EOF, got {other:?}"),
            }
        }
        assert!(frames.mid_frame(), "one length byte in = mid-frame");
    }

    #[test]
    fn simulate_requests_round_trip_through_the_builder() {
        let point = SimPoint::new(
            Benchmark::Gcc,
            MachineConfig::baseline().with_dpolicy(DCachePolicy::SelDmWayPredict),
            RunOptions::quick().with_ops(4_000).with_seed(7),
        );
        let json = simulate_request(3, &point, Some(500));
        let Request::Simulate {
            v,
            id,
            point: parsed,
            deadline_ms,
            priority,
        } = parse(&json).expect("round trip")
        else {
            panic!("a simulate request parses as simulate");
        };
        assert_eq!(v, PROTOCOL_VERSION);
        assert_eq!(id, 3);
        assert_eq!(deadline_ms, Some(500));
        assert_eq!(priority, DEFAULT_PRIORITY, "v1 has no priority field");
        assert_eq!(*parsed, point);

        let json = simulate_request_v(PROTOCOL_V2, 4, &point, None, Some(1));
        let Request::Simulate { v, priority, .. } = parse(&json).expect("v2 round trip") else {
            panic!("a v2 simulate request parses as simulate");
        };
        assert_eq!(v, PROTOCOL_V2);
        assert_eq!(priority, 1);
    }

    #[test]
    fn sweep_requests_round_trip_through_the_builder() {
        let a = SimPoint::new(
            Benchmark::Gcc,
            MachineConfig::baseline(),
            RunOptions::quick().with_ops(2_000).with_seed(3),
        );
        let b = SimPoint::new(
            Benchmark::Li,
            MachineConfig::baseline().with_dpolicy(DCachePolicy::SelDmWayPredict),
            RunOptions::quick().with_ops(2_000).with_seed(3),
        );
        let json = sweep_request(
            11,
            &SweepPlanSpec::Points(vec![a.clone(), b.clone(), a.clone()]),
            2_000,
            3,
            Some(10_000),
            Some(6),
        );
        let Request::Sweep {
            id,
            points,
            requested,
            deadline_ms,
            priority,
        } = parse(&json).expect("sweep round trip")
        else {
            panic!("a sweep request parses as sweep");
        };
        assert_eq!(id, 11);
        assert_eq!(requested, 3, "duplicates count toward `requested`");
        assert_eq!(points, vec![a, b], "unique points in first-seen order");
        assert_eq!(deadline_ms, Some(10_000));
        assert_eq!(priority, 6);
    }

    #[test]
    fn named_plan_sweeps_expand_to_the_run_all_plan() {
        let json = sweep_request(1, &SweepPlanSpec::RunAll, 4_000, 42, None, None);
        let Request::Sweep {
            points, requested, ..
        } = parse(&json).expect("run_all sweep parses")
        else {
            panic!("a plan sweep parses as sweep");
        };
        let options = RunOptions::default().with_ops(4_000).with_seed(42);
        let plan = wp_experiments::run_all_plan(&options);
        assert_eq!(requested, plan.len());
        assert_eq!(
            points,
            plan.unique_points(),
            "the plan's {} deduplicated points",
            plan.unique_points().len()
        );
    }

    #[test]
    fn profile_sweeps_expand_through_the_profile_planner() {
        let profile = ProfileSpec::builtin(wp_workloads::ProfileTier::Expected);
        let json = sweep_request(
            2,
            &SweepPlanSpec::Profile(profile.clone()),
            2_000,
            7,
            None,
            None,
        );
        let Request::Sweep { points, .. } = parse(&json).expect("profile sweep parses") else {
            panic!("a profile sweep parses as sweep");
        };
        let options = RunOptions::default().with_ops(2_000).with_seed(7);
        let plan = wp_experiments::coverage::profile_plan(&profile, &options);
        assert_eq!(points, plan.unique_points());
    }

    #[test]
    fn sweep_and_v2_shape_violations_are_rejected_with_the_offending_detail() {
        let cases = [
            (
                "{\"v\":1,\"id\":1,\"type\":\"sweep\",\"plan\":\"run_all\",\"ops\":100}",
                "unknown request type `sweep`",
            ),
            (
                "{\"v\":1,\"id\":1,\"type\":\"metrics\"}",
                "unknown request type `metrics`",
            ),
            (
                "{\"v\":1,\"id\":1,\"type\":\"simulate\",\"workload\":\"gcc\",\"ops\":10,\
                 \"priority\":1}",
                "unknown field `priority`",
            ),
            (
                "{\"v\":2,\"id\":1,\"type\":\"sweep\",\"ops\":100}",
                "exactly one of `plan`, `profile`, or `points` is required",
            ),
            (
                "{\"v\":2,\"id\":1,\"type\":\"sweep\",\"plan\":\"run_all\",\"points\":[],\
                 \"ops\":100}",
                "exactly one of `plan`, `profile`, or `points` is required",
            ),
            (
                "{\"v\":2,\"id\":1,\"type\":\"sweep\",\"plan\":\"nonesuch\",\"ops\":100}",
                "unknown plan `nonesuch`",
            ),
            (
                "{\"v\":2,\"id\":1,\"type\":\"sweep\",\"plan\":\"run_all\"}",
                "missing field `ops`",
            ),
            (
                "{\"v\":2,\"id\":1,\"type\":\"sweep\",\"points\":[],\"ops\":100}",
                "field `points` must not be empty",
            ),
            (
                "{\"v\":2,\"id\":1,\"type\":\"sweep\",\"points\":[{\"workload\":\"gcc\",\
                 \"frobnicate\":1}],\"ops\":100}",
                "unknown field `frobnicate` in a sweep point",
            ),
            (
                "{\"v\":2,\"id\":1,\"type\":\"sweep\",\"points\":[{\"ops\":10}],\"ops\":100}",
                "missing field `workload`",
            ),
            (
                "{\"v\":2,\"id\":1,\"type\":\"simulate\",\"workload\":\"gcc\",\"ops\":10,\
                 \"priority\":10}",
                "field `priority` must be an integer between 0 and 9",
            ),
            (
                "{\"v\":2,\"id\":1,\"type\":\"sweep\",\"profile\":\"expected\",\"ops\":100}",
                "field `profile` must be an object",
            ),
        ];
        for (json, message) in cases {
            let (_, _, error) = parse(json).expect_err(json);
            assert_eq!(error, message, "for request {json}");
        }
    }

    #[test]
    fn bad_request_errors_echo_the_negotiated_version() {
        let (v, id, _) = parse("{\"v\":2,\"id\":8,\"type\":\"frobnicate\"}")
            .expect_err("unknown type must not parse");
        assert_eq!(v, PROTOCOL_V2, "v2 frames get v2 error envelopes");
        assert_eq!(id, 8);
        let (v, _, error) =
            parse("{\"v\":3,\"id\":1,\"type\":\"health\"}").expect_err("v3 must not parse");
        assert_eq!(v, PROTOCOL_VERSION, "unknown versions fall back to v1");
        assert_eq!(error, "unsupported protocol version `3`");
    }

    #[test]
    fn version_and_shape_violations_are_rejected_with_the_offending_detail() {
        let cases = [
            ("{\"id\":1,\"type\":\"health\"}", "missing field `v`"),
            (
                "{\"v\":3,\"id\":1,\"type\":\"health\"}",
                "unsupported protocol version `3`",
            ),
            ("{\"v\":1,\"type\":\"health\"}", "missing field `id`"),
            ("{\"v\":1,\"id\":1}", "missing field `type`"),
            (
                "{\"v\":1,\"id\":1,\"type\":\"frobnicate\"}",
                "unknown request type `frobnicate`",
            ),
            (
                "{\"v\":1,\"id\":1,\"type\":\"health\",\"extra\":0}",
                "unknown field `extra`",
            ),
            (
                "{\"v\":1,\"id\":1,\"type\":\"simulate\",\"ops\":100}",
                "missing field `workload`",
            ),
            (
                "{\"v\":1,\"id\":1,\"type\":\"simulate\",\"workload\":\"nonesuch\",\"ops\":100}",
                "unknown workload `nonesuch`",
            ),
            (
                "{\"v\":1,\"id\":1,\"type\":\"simulate\",\"workload\":\"gcc\"}",
                "missing field `ops`",
            ),
            (
                "{\"v\":1,\"id\":1,\"type\":\"simulate\",\"workload\":\"gcc\",\"ops\":0}",
                "field `ops` must be positive",
            ),
            (
                "{\"v\":1,\"id\":1,\"type\":\"simulate\",\"workload\":\"gcc\",\"ops\":10,\
                 \"deadline_ms\":0}",
                "field `deadline_ms` must be positive",
            ),
            (
                "{\"v\":1,\"id\":1,\"type\":\"simulate\",\"workload\":\"gcc\",\"ops\":10,\
                 \"machine\":{\"dpolicy\":\"nonesuch\"}}",
                "unknown d-cache policy `nonesuch`",
            ),
            (
                "{\"v\":1,\"id\":1,\"type\":\"simulate\",\"workload\":\"gcc\",\"ops\":10,\
                 \"machine\":{\"frobnicate\":1}}",
                "unknown machine field `frobnicate`",
            ),
        ];
        for (json, message) in cases {
            let (_, _, error) = parse(json).expect_err(json);
            assert_eq!(error, message, "for request {json}");
        }
    }

    #[test]
    fn invalid_machine_geometry_is_bad_request_not_a_panic() {
        // Associativity 3 is not a power of two: the validating processor
        // construction catches it at the protocol boundary.
        let json = "{\"v\":1,\"id\":9,\"type\":\"simulate\",\"workload\":\"gcc\",\"ops\":10,\
                    \"machine\":{\"assoc\":3}}";
        let (_, id, error) = parse(json).expect_err("invalid geometry must not parse");
        assert_eq!(id, 9);
        assert!(
            error.starts_with("invalid machine configuration: "),
            "got: {error}"
        );
    }

    #[test]
    fn machines_parse_exactly_when_their_processor_builds() {
        // The geometry check stands in for building the processor, so it
        // must accept and reject the same machines, with the same message.
        let mut assocs: Vec<u64> = (0..=1_100).collect();
        assocs.extend((11..u64::BITS).map(|shift| 1u64 << shift));
        let mut dpolicies = DCachePolicy::all().to_vec();
        dpolicies.push(DCachePolicy::PerfectWayPredict);
        let mut valid = 0;
        for dpolicy in dpolicies {
            for ipolicy in ICachePolicy::all() {
                for &assoc in &assocs {
                    let baseline = MachineConfig::baseline()
                        .with_dpolicy(dpolicy)
                        .with_ipolicy(ipolicy);
                    let machine =
                        baseline.with_l1d(baseline.l1d.with_associativity(assoc as usize));
                    let built = Processor::with_l1(
                        machine.cpu,
                        machine.l1d,
                        machine.dpolicy,
                        machine.l1i,
                        machine.ipolicy,
                    )
                    .map(drop)
                    .map_err(|e| format!("invalid machine configuration: {e}"));
                    let json = format!(
                        "{{\"v\":1,\"id\":1,\"type\":\"simulate\",\"workload\":\"gcc\",\
                         \"ops\":10,\"machine\":{{\"dpolicy\":\"{}\",\"ipolicy\":\"{}\",\
                         \"assoc\":{assoc}}}}}",
                        dpolicy.label(),
                        ipolicy.label()
                    );
                    let parsed = parse(&json).map(drop).map_err(|(_, _, message)| message);
                    assert_eq!(parsed, built, "for request {json}");
                    valid += usize::from(built.is_ok());
                }
            }
        }
        // 1, 2, 4, ..., 512 ways divide the 16 KB cache, under all 16 pairs.
        assert_eq!(valid, 10 * 16);
    }

    #[test]
    fn responses_are_deterministic_and_tagged() {
        let point = SimPoint::new(
            Benchmark::Li,
            MachineConfig::baseline(),
            RunOptions::quick().with_ops(2_000),
        );
        let result =
            wp_experiments::simulate_workload(&point.workload, &point.machine, &point.options);
        let a = ok_response(7, &result);
        let b = ok_response(7, &result);
        assert_eq!(a, b, "equal results render byte-identically");
        assert!(a.starts_with("{\"v\":1,\"id\":7,\"ok\":true,\"result\":{"));
        assert!(a.contains("\"cycles\":"));

        let error = error_response(
            PROTOCOL_VERSION,
            3,
            ErrorCode::Overloaded,
            "the request queue is full",
        );
        assert_eq!(
            error,
            "{\"v\":1,\"id\":3,\"ok\":false,\"error\":{\"code\":\"overloaded\",\
             \"message\":\"the request queue is full\"}}"
        );
        let deadline = deadline_response(PROTOCOL_VERSION, 4, 1_024, 50_000);
        assert!(deadline.contains("\"code\":\"deadline_exceeded\""));
        assert!(deadline.contains("\"ops_completed\":1024"));
        assert!(deadline.contains("\"ops_requested\":50000"));
    }

    #[test]
    fn stream_frames_share_the_batch_result_rendering() {
        let point = SimPoint::new(
            Benchmark::Swim,
            MachineConfig::baseline(),
            RunOptions::quick().with_ops(2_000),
        );
        let result =
            wp_experiments::simulate_workload(&point.workload, &point.machine, &point.options);
        let batch = ok_response(1, &result);
        let stream = stream_point_response(9, 41, &result);
        let result_of = |frame: &str| {
            let at = frame.find("\"result\":").expect("result field");
            frame[at..].to_string()
        };
        assert_eq!(
            result_of(&batch),
            result_of(&stream),
            "the streamed result object is byte-identical to the batch rendering"
        );
        assert!(
            stream.starts_with("{\"v\":2,\"id\":9,\"ok\":true,\"stream\":\"point\",\"index\":41,")
        );

        let summary = sweep_summary_response(9, 286, 253, 253);
        assert_eq!(
            summary,
            "{\"v\":2,\"id\":9,\"ok\":true,\"stream\":\"summary\",\"requested\":286,\
             \"points\":253,\"streamed\":253,\"complete\":true}"
        );
        let cancelled = sweep_deadline_response(9, 41, 253);
        assert!(cancelled.starts_with("{\"v\":2,\"id\":9,\"ok\":false,\"error\":{"));
        assert!(
            cancelled.contains("\"message\":\"sweep deadline exceeded after 41 of 253 points\"")
        );
        assert!(cancelled.contains("\"points_streamed\":41"));
        assert!(cancelled.contains("\"points_total\":253"));
    }

    /// A result with a distinct value in every field, among them f64 bit
    /// patterns that print as 16 to 20 digits. It is built from the public
    /// fields, so no change to the simulator can move it.
    fn frozen_result() -> SimResult {
        let mut result = SimResult {
            cycles: 1_234_567,
            activity: Default::default(),
            dcache: Default::default(),
            icache: Default::default(),
            memory_accesses: u64::MAX,
            branch_accuracy: 0.937_5,
        };
        let a = &mut result.activity;
        (a.cycles, a.instructions, a.int_ops, a.fp_ops) = (1_234_568, 2_000_003, 900_001, 77);
        (a.loads, a.stores, a.branches, a.l2_accesses) = (300_007, 100_019, 150_011, 4_099);
        let d = &mut result.dcache;
        (d.loads, d.load_misses, d.stores, d.store_misses) = (300_008, 1_201, 100_020, 503);
        (d.evictions, d.direct_mapped_accesses, d.parallel_accesses) = (1_499, 250_001, 3);
        (d.way_predicted_accesses, d.sequential_accesses) = (140_000, 0);
        (d.mispredicted_accesses, d.way_predictions) = (9_973, 140_001);
        (d.way_predictions_correct, d.seldm_predicted_dm) = (130_028, 250_002);
        (d.seldm_predicted_dm_correct, d.conflicting_blocks_flagged) = (249_000, 61);
        (d.single_way_load_hits, d.seldm_predicted_sa) = (280_000, 50_024);
        (d.victim_list_hits, d.dirty_evictions) = (17, 404);
        (d.cache_energy, d.prediction_energy) = (12_345.678_9, -0.0);
        let i = &mut result.icache;
        (i.fetches, i.fetch_misses) = (700_001, 88);
        (i.sawp_correct, i.btb_correct, i.ras_correct) = (500_003, 100_007, 20_011);
        (i.no_prediction, i.mispredicted) = (79_980, 1);
        (i.cache_energy, i.prediction_energy) = (0.1, f64::MIN_POSITIVE);
        result
    }

    /// `frozen_result()` as the `Value`-tree renderer wrote it.
    const FROZEN_RESULT: &str = "\
        {\"cycles\":1234567,\"activity.cycles\":1234568,\"activity.instructions\":2000003,\
        \"activity.int_ops\":900001,\"activity.fp_ops\":77,\"activity.loads\":300007,\
        \"activity.stores\":100019,\"activity.branches\":150011,\"activity.l2_accesses\":4099,\
        \"dcache.loads\":300008,\"dcache.load_misses\":1201,\"dcache.stores\":100020,\
        \"dcache.store_misses\":503,\"dcache.evictions\":1499,\
        \"dcache.direct_mapped_accesses\":250001,\"dcache.parallel_accesses\":3,\
        \"dcache.way_predicted_accesses\":140000,\"dcache.sequential_accesses\":0,\
        \"dcache.mispredicted_accesses\":9973,\"dcache.way_predictions\":140001,\
        \"dcache.way_predictions_correct\":130028,\"dcache.seldm_predicted_dm\":250002,\
        \"dcache.seldm_predicted_dm_correct\":249000,\
        \"dcache.conflicting_blocks_flagged\":61,\"dcache.single_way_load_hits\":280000,\
        \"dcache.seldm_predicted_sa\":50024,\"dcache.victim_list_hits\":17,\
        \"dcache.dirty_evictions\":404,\"dcache.cache_energy\":4668012723080132769,\
        \"dcache.prediction_energy\":9223372036854775808,\"icache.fetches\":700001,\
        \"icache.fetch_misses\":88,\"icache.sawp_correct\":500003,\
        \"icache.btb_correct\":100007,\"icache.ras_correct\":20011,\
        \"icache.no_prediction\":79980,\"icache.mispredicted\":1,\
        \"icache.cache_energy\":4591870180066957722,\
        \"icache.prediction_energy\":4503599627370496,\
        \"memory_accesses\":18446744073709551615,\"branch_accuracy\":4606619468846596096}";

    #[test]
    fn result_responses_keep_their_wire_bytes() {
        let result = frozen_result();
        assert_eq!(
            ok_response(7, &result),
            format!("{{\"v\":1,\"id\":7,\"ok\":true,\"result\":{FROZEN_RESULT}}}")
        );
        assert_eq!(
            ok_response_for(PROTOCOL_V2, 8, &result),
            format!("{{\"v\":2,\"id\":8,\"ok\":true,\"result\":{FROZEN_RESULT}}}")
        );
        assert_eq!(
            stream_point_response(9, 41, &result),
            format!(
                "{{\"v\":2,\"id\":9,\"ok\":true,\"stream\":\"point\",\"index\":41,\
                 \"result\":{FROZEN_RESULT}}}"
            )
        );
        let body = result_body(&result);
        assert_eq!(body, format!("\"result\":{FROZEN_RESULT}}}"));
        assert_eq!(
            ok_response_with_body(PROTOCOL_VERSION, 7, &body),
            ok_response(7, &result)
        );
        assert_eq!(
            ok_response_with_body(PROTOCOL_V2, 8, &body),
            ok_response_for(PROTOCOL_V2, 8, &result)
        );
        assert_eq!(
            stream_point_response_with_body(9, 41, &body),
            stream_point_response(9, 41, &result)
        );
    }

    #[test]
    fn metrics_responses_render_every_section() {
        let snapshot = MetricsSnapshot {
            uptime_ms: 1_500,
            executed: 3,
            shed: 1,
            releads: 2,
            queue_cap: 128,
            lane_cap: 32,
            depth_series: vec![(10, 1), (20, 0)],
            point_latency: HistogramSnapshot {
                buckets: vec![1, 0, 2],
                count: 3,
                max_ms: 4,
            },
            ..MetricsSnapshot::default()
        };
        let rendered = metrics_response(5, &snapshot);
        assert!(rendered.starts_with("{\"v\":2,\"id\":5,\"ok\":true,\"metrics\":{"));
        assert!(rendered.contains("\"uptime_ms\":1500"));
        assert!(rendered.contains("\"releads\":2"));
        assert!(rendered
            .contains("\"lanes\":{\"active\":0,\"queued\":0,\"queue_cap\":128,\"lane_cap\":32}"));
        assert!(rendered.contains("\"queue_depth_series\":[[10,1],[20,0]]"));
        assert!(rendered.contains("\"point\":{\"count\":3,\"max_ms\":4,\"buckets\":[1,0,2]}"));
    }

    #[test]
    fn health_responses_embed_the_cache_health_struct() {
        let health = health_response(PROTOCOL_VERSION, 1, &CacheHealth::default(), 5, 2, 3, false);
        assert!(health.contains(
            "\"cache\":{\"io_errors\":0,\"evictions\":0,\
                                 \"lock_timeouts\":0,\"recovered_tmp\":0,\"compacted\":0,\
                                 \"degraded\":false}"
        ));
        assert!(health.contains("\"executed\":5"));
        assert!(health.contains("\"coalesced\":3"));
        assert!(health.contains("\"shutting_down\":false"));
    }
}
