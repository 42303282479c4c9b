//! A tiny synchronous client for the wp-serve protocol.
//!
//! One connection, one request (or streaming sweep) at a time — enough for
//! the `serve_client` CLI, the CI byte-identity check, and the soak
//! harness. The connection is the daemon's own `Conn`, dialled by the
//! rule `--listen` reads, and frames are read through the same
//! [`FrameReader`] the daemon's handlers hold.
//!
//! The client verifies that every response echoes the id of the request it
//! answers. When a request times out, its id is remembered: the daemon's
//! late response is still in flight, and a naive reader would hand those
//! stale bytes to the *next* request. Stale frames are drained silently;
//! a frame that matches neither the current request nor a timed-out one
//! surfaces a typed mismatch error instead of corrupting the stream. One
//! reply loop does this for [`Client::request`] and [`Client::sweep`]
//! alike.

use std::io;
use std::time::Duration;

use serde::Value;

use crate::protocol::{write_frame, FrameReader};
use crate::server::{Conn, Listen};

/// How many timed-out request ids the stale-frame filter remembers.
const MAX_OUTSTANDING: usize = 32;

/// A connected client. Dropping it closes the connection.
pub struct Client {
    conn: Conn,
    /// Persistent decode state: a timeout mid-frame keeps the bytes read
    /// so far and the next read resumes the frame.
    frames: FrameReader,
    /// Ids of requests that timed out with their response still owed.
    outstanding: Vec<u64>,
}

/// Extracts the `id` field from a request payload, if the payload parses
/// as JSON and carries one.
fn payload_id(text: &str) -> Option<u64> {
    serde_json::from_str(text)
        .ok()?
        .get("id")
        .and_then(Value::as_u64)
}

impl Client {
    /// Dials `spec` using the same rule as the daemon's `--listen`:
    /// anything containing `/` is a Unix socket path, else a TCP address.
    pub fn connect(spec: &str) -> io::Result<Client> {
        Ok(Client {
            conn: Conn::dial(&Listen::parse(spec))?,
            frames: FrameReader::new(),
            outstanding: Vec::new(),
        })
    }

    /// Bounds how long [`Client::request`] blocks on the response.
    pub fn set_timeout(&self, timeout: Duration) -> io::Result<()> {
        self.conn.set_read_timeout(timeout)
    }

    /// Reads one response payload as UTF-8 text.
    fn read_text(&mut self) -> io::Result<String> {
        let response = self.frames.read(&mut self.conn)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "the daemon closed the connection without responding",
            )
        })?;
        String::from_utf8(response)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response payload"))
    }

    /// Remembers that `id`'s response never arrived, so it can be drained
    /// instead of answering a later request.
    fn note_outstanding(&mut self, id: Option<u64>) {
        if let Some(id) = id {
            self.outstanding.push(id);
            if self.outstanding.len() > MAX_OUTSTANDING {
                self.outstanding.remove(0);
            }
        }
    }

    /// Sends one request payload and returns the response payload,
    /// verifying the echoed id. Stale responses owed to earlier timed-out
    /// requests are drained; any other id mismatch is an
    /// [`io::ErrorKind::InvalidData`] error.
    pub fn request(&mut self, payload: &str) -> io::Result<String> {
        self.exchange(payload, |_, _| false)
    }

    /// Sends a v2 `sweep` request and streams the response: `on_frame` is
    /// called with each `stream:"point"` payload in arrival order, and the
    /// terminal frame (summary or error) is returned. Stale frames from
    /// earlier timed-out requests are drained exactly as in
    /// [`Client::request`].
    pub fn sweep(&mut self, payload: &str, mut on_frame: impl FnMut(&str)) -> io::Result<String> {
        self.exchange(payload, |value, text| {
            let point = value.get("stream").and_then(Value::as_str) == Some("point");
            if point {
                on_frame(text);
            }
            point
        })
    }

    /// The reply loop: sends `payload`, then reads frames until one
    /// answers it. A frame owed to a timed-out request is dropped, and a
    /// frame `more` takes (a sweep's point frame) is consumed; the first
    /// other frame is the answer. The daemon answers with id 0 when a frame
    /// was too mangled to echo an id, a payload without a parseable id (a
    /// deliberately malformed probe) takes the next frame, and a frame
    /// that is not JSON is returned as it is.
    fn exchange(
        &mut self,
        payload: &str,
        mut more: impl FnMut(&Value, &str) -> bool,
    ) -> io::Result<String> {
        write_frame(&mut self.conn, payload.as_bytes())?;
        let want = payload_id(payload);
        loop {
            let text = match self.read_text() {
                Ok(text) => text,
                Err(e) => {
                    if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut
                    {
                        self.note_outstanding(want);
                    }
                    return Err(e);
                }
            };
            let Ok(value) = serde_json::from_str(&text) else {
                return Ok(text);
            };
            if let (Some(want), Some(got)) = (want, value.get("id").and_then(Value::as_u64)) {
                if got != want && got != 0 {
                    // A late response from a request that timed out: drop
                    // it and keep draining until this request's answer.
                    // Sweeps owe many frames under one id, so the id stays
                    // in the filter until a fresh response supersedes it.
                    if self.outstanding.contains(&got) {
                        continue;
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("response id {got} does not match request id {want}"),
                    ));
                }
            }
            if !more(&value, &text) {
                return Ok(text);
            }
        }
    }
}
