//! Regression tests for resumable frame decoding (the framing-desync
//! bugfix): a client that dribbles a frame one byte at a time, with pauses
//! longer than the daemon's 250 ms read timeout, must still get its
//! request parsed — the handler's persistent [`protocol::FrameReader`]
//! holds the partial bytes across timeouts instead of discarding them.
//! Plus the hostile-nesting regression: a small frame of deeply nested
//! JSON is a `bad_request`, not a stack overflow that aborts the daemon.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use wp_experiments::{PointService, SimEngine};
use wp_serve::protocol::{self, FrameReader};
use wp_serve::server::{self, Listen, RunningServer, ServerConfig};

/// Longer than the daemon's 250 ms idle read timeout, so every byte of the
/// dribble forces a mid-frame timeout in the handler.
const DRIBBLE_PAUSE: Duration = Duration::from_millis(300);

fn start() -> RunningServer {
    let mut config = ServerConfig::new(
        Listen::Tcp("127.0.0.1:0".to_string()),
        PointService::new(SimEngine::default()),
    );
    config.workers = 1;
    server::start(config).expect("daemon starts on an ephemeral port")
}

/// Encodes `payload` as one wire frame (length prefix plus body).
fn frame_bytes(payload: &str) -> Vec<u8> {
    let mut framed = Vec::new();
    protocol::write_frame(&mut framed, payload.as_bytes()).expect("in-memory frame");
    framed
}

/// Reads one response payload off the raw socket.
fn read_response(stream: &mut TcpStream) -> String {
    let mut frames = FrameReader::new();
    loop {
        match frames.read(stream) {
            Ok(Some(payload)) => {
                return String::from_utf8(payload).expect("response is UTF-8");
            }
            Ok(None) => panic!("the daemon closed the connection without responding"),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

#[test]
fn a_frame_dribbled_one_byte_per_300ms_still_parses() {
    let server = start();
    let mut stream = TcpStream::connect(server.addr()).expect("raw client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout set");

    // Dribble the whole frame — 4-byte length prefix and payload alike —
    // one byte per 300 ms. Before the fix, every 250 ms handler timeout
    // threw away the bytes read so far, so this frame could never complete.
    let payload = "{\"v\":1,\"id\":21,\"type\":\"health\"}";
    for &byte in &frame_bytes(payload) {
        stream.write_all(&[byte]).expect("dribbled byte sends");
        stream.flush().expect("dribbled byte flushes");
        std::thread::sleep(DRIBBLE_PAUSE);
    }
    let response = read_response(&mut stream);
    assert_eq!(
        response,
        protocol::health_response(
            protocol::PROTOCOL_VERSION,
            21,
            &server.service().cache_health(),
            0,
            0,
            0,
            false
        ),
        "the dribbled frame must parse as if sent in one write"
    );

    // The connection state is clean afterwards: a normal request on the
    // same socket still round-trips.
    stream
        .write_all(&frame_bytes("{\"v\":1,\"id\":22,\"type\":\"health\"}"))
        .expect("follow-up frame sends");
    let response = read_response(&mut stream);
    assert!(
        response.contains("\"id\":22"),
        "the follow-up request gets its own response: {response}"
    );

    server.shutdown();
    server.join();
}

#[test]
fn a_mid_frame_pause_straddling_many_timeouts_keeps_the_payload_intact() {
    let server = start();
    let mut stream = TcpStream::connect(server.addr()).expect("raw client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout set");

    // Split a frame at the worst spot — inside the length prefix — and
    // again mid-payload, pausing over a second each time (4+ timeouts).
    let framed = frame_bytes("{\"v\":1,\"id\":23,\"type\":\"health\"}");
    let cuts = [2, 10, framed.len()];
    let mut sent = 0;
    for cut in cuts {
        stream.write_all(&framed[sent..cut]).expect("chunk sends");
        stream.flush().expect("chunk flushes");
        sent = cut;
        if sent < framed.len() {
            std::thread::sleep(Duration::from_millis(1_100));
        }
    }
    let response = read_response(&mut stream);
    assert!(
        response.contains("\"id\":23") && response.contains("\"ok\":true"),
        "the split frame parses whole: {response}"
    );

    server.shutdown();
    server.join();
}

#[test]
fn a_deeply_nested_frame_is_a_bad_request_and_the_daemon_keeps_serving() {
    let server = start();
    let connect = || {
        let stream = TcpStream::connect(server.addr()).expect("raw client connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout set");
        stream
    };

    // 30,000 nested arrays: 3% of the frame cap, and far deeper than a
    // connection thread's stack can recurse.
    let mut stream = connect();
    stream
        .write_all(&frame_bytes(&"[".repeat(30_000)))
        .expect("hostile frame sends");
    let response = read_response(&mut stream);
    assert!(
        response.contains("\"code\":\"bad_request\"")
            && response.contains("recursion limit exceeded"),
        "nesting past the parser's cap is a typed rejection: {response}"
    );

    // The daemon survived: a fresh connection still gets answers.
    let mut stream = connect();
    stream
        .write_all(&frame_bytes("{\"v\":1,\"id\":24,\"type\":\"health\"}"))
        .expect("health frame sends");
    let response = read_response(&mut stream);
    assert!(
        response.contains("\"id\":24") && response.contains("\"ok\":true"),
        "the daemon still serves after the hostile frame: {response}"
    );

    server.shutdown();
    server.join();
}
