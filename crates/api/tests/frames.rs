//! Integration tests of the `frame1` binary protocol: upgrade
//! negotiation, pipelined out-of-order completion, byte-identity with
//! NDJSON/direct-session replies, framing-violation handling, and
//! tag-carrying admission refusals (ISSUE 6 acceptance bar).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;

use leqa_api::{
    json, write_frame, ControlFrame, ErrorFrame, ErrorKind, EstimateRequest, FrameDecoder,
    FrameProto, LeqaError, ProgramSpec, Request, Server, ServerConfig, Session, StatsResponse,
    UpgradeAck, MAX_FRAME_PAYLOAD,
};

fn start(config: ServerConfig) -> (Server, SocketAddr, JoinHandle<Result<(), LeqaError>>) {
    let server = Server::with_config(Session::builder().build().expect("default session"), config);
    let bound = server.bind("127.0.0.1:0").expect("bind loopback");
    let addr = bound.local_addr();
    let handle = std::thread::spawn(move || bound.run());
    (server, addr, handle)
}

fn estimate_line(name: &str) -> String {
    Request::Estimate(EstimateRequest::new(ProgramSpec::bench(name)))
        .to_json()
        .encode()
}

/// A `frame1` protocol client: performs the upgrade handshake on
/// connect, then sends and receives tagged frames.
struct FrameClient {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl FrameClient {
    fn connect(addr: SocketAddr) -> FrameClient {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let upgrade = ControlFrame::Upgrade(FrameProto::Frame1).to_json().encode();
        stream.write_all(upgrade.as_bytes()).expect("send upgrade");
        stream.write_all(b"\n").expect("send newline");
        stream.flush().expect("flush");
        // Read the NDJSON ack byte by byte: a buffered reader could
        // swallow the start of the frame stream.
        let mut ack = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            assert_eq!(stream.read(&mut byte).expect("read ack"), 1, "EOF in ack");
            if byte[0] == b'\n' {
                break;
            }
            ack.push(byte[0]);
        }
        let ack = String::from_utf8(ack).expect("utf8 ack");
        let ack = UpgradeAck::from_json(&json::parse(&ack).expect("ack json")).expect("ack frame");
        assert_eq!(ack.proto, FrameProto::Frame1);
        FrameClient {
            stream,
            decoder: FrameDecoder::new(),
        }
    }

    fn send(&mut self, tag: u32, payload: &str) {
        write_frame(&mut self.stream, tag, payload.as_bytes()).expect("send frame");
        self.stream.flush().expect("flush");
    }

    fn recv(&mut self) -> (u32, String) {
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some((tag, payload)) = self.decoder.next().expect("well-formed frame") {
                return (tag, String::from_utf8(payload).expect("utf8 payload"));
            }
            let n = self.stream.read(&mut buf).expect("read");
            assert!(n > 0, "server closed the connection unexpectedly");
            self.decoder.push(&buf[..n]);
        }
    }
}

fn shutdown_via(addr: SocketAddr) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writeln!(writer, "{}", ControlFrame::Shutdown.to_json().encode()).expect("send");
    writer.flush().expect("flush");
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("read ack");
    assert!(ack.contains("\"op\":\"shutdown\""), "ack: {ack}");
}

/// The tentpole contract: many tagged requests in flight at once, each
/// reply matched to its request by tag — in whatever order the replies
/// complete — and every payload byte-identical to a direct session.
#[test]
fn pipelined_frames_complete_out_of_order_with_byte_identical_payloads() {
    let (_server, addr, handle) = start(ServerConfig::new());
    let mut client = FrameClient::connect(addr);

    // Distinct programs with distinct costs under non-sequential tags.
    let requests: Vec<(u32, String)> = [
        (701, "qft_24"),
        (9, "qft_8"),
        (u32::MAX, "8bitadder"),
        (42, "qft_16"),
    ]
    .into_iter()
    .map(|(tag, name)| (tag, estimate_line(name)))
    .collect();

    // Fire everything before reading anything: all four are in flight.
    for (tag, line) in &requests {
        client.send(*tag, line);
    }
    let mut replies = std::collections::HashMap::new();
    let mut arrival = Vec::new();
    for _ in 0..requests.len() {
        let (tag, payload) = client.recv();
        arrival.push(tag);
        assert!(
            replies.insert(tag, payload).is_none(),
            "duplicate tag {tag}"
        );
    }
    // Second wave after the cache is provably warm (tags may repeat once
    // the earlier use completed): the repeat must take the cached path.
    client.send(0, &estimate_line("qft_8"));
    let (tag, warm_reply) = client.recv();
    assert_eq!(tag, 0);
    replies.insert(0, warm_reply);
    arrival.push(0);

    // Expected bytes: the same request sequence against a direct session.
    let direct = Session::builder().build().unwrap();
    let cold: std::collections::HashMap<&str, String> = ["qft_24", "qft_8", "8bitadder", "qft_16"]
        .into_iter()
        .map(|name| {
            let reply = direct
                .execute(&Request::Estimate(EstimateRequest::new(
                    ProgramSpec::bench(name),
                )))
                .unwrap()
                .to_json()
                .encode();
            (name, reply)
        })
        .collect();
    let warm_qft8 = direct
        .execute(&Request::Estimate(EstimateRequest::new(
            ProgramSpec::bench("qft_8"),
        )))
        .unwrap()
        .to_json()
        .encode();

    assert_eq!(replies[&701], cold["qft_24"]);
    assert_eq!(replies[&9], cold["qft_8"]);
    assert_eq!(replies[&u32::MAX], cold["8bitadder"]);
    assert_eq!(replies[&42], cold["qft_16"]);
    assert_eq!(
        replies[&0], warm_qft8,
        "repeat is served from the warm cache"
    );
    assert_eq!(arrival.len(), 5, "one reply per request: {arrival:?}");

    // Control frames work on the frame transport too: stats counts the
    // five estimates and the byte traffic in both directions.
    client.send(7, &ControlFrame::Stats.to_json().encode());
    let (tag, payload) = client.recv();
    assert_eq!(tag, 7);
    let stats = StatsResponse::from_json(&json::parse(&payload).unwrap()).unwrap();
    assert_eq!(stats.estimate, 5, "{payload}");
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0, "{payload}");

    shutdown_via(addr);
    handle.join().expect("no panic").expect("clean run");
}

/// Framing violations are protocol-fatal: one typed error frame (tag 0
/// when the offending header never arrived), then the connection closes.
#[test]
fn truncated_frame_yields_a_typed_error_then_close() {
    let (_server, addr, handle) = start(ServerConfig::new());
    let mut client = FrameClient::connect(addr);

    // Half a header, then EOF on the write half.
    client.stream.write_all(&[1, 2, 3]).expect("partial header");
    client.stream.flush().expect("flush");
    client
        .stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");

    let (tag, payload) = client.recv();
    assert_eq!(tag, 0, "no decodable header, so the error frame uses tag 0");
    let frame = ErrorFrame::from_json(&json::parse(&payload).unwrap()).expect("error frame");
    assert_eq!(frame.error.kind(), ErrorKind::Json);
    assert!(payload.contains("mid-frame"), "{payload}");

    shutdown_via(addr);
    handle.join().expect("no panic").expect("clean run");
}

/// An oversized length prefix is refused before any allocation, with the
/// error frame carrying the offending frame's tag.
#[test]
fn oversized_frame_is_refused_with_its_tag() {
    let (_server, addr, handle) = start(ServerConfig::new());
    let mut client = FrameClient::connect(addr);

    let mut header = Vec::new();
    header.extend_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
    header.extend_from_slice(&513u32.to_le_bytes());
    client.stream.write_all(&header).expect("send header");
    client.stream.flush().expect("flush");

    let (tag, payload) = client.recv();
    assert_eq!(tag, 513, "error frame routes back to the offending tag");
    let frame = ErrorFrame::from_json(&json::parse(&payload).unwrap()).expect("error frame");
    assert_eq!(frame.error.kind(), ErrorKind::Json);
    assert!(payload.contains("exceeds"), "{payload}");

    shutdown_via(addr);
    handle.join().expect("no panic").expect("clean run");
}

/// Saturating `--max-inflight` in frame mode refuses the excess frame
/// with an `overloaded` error frame carrying **that frame's tag**, so a
/// pipelining client knows exactly which request to retry. Deterministic
/// via the FIFO gate (the hog blocks inside its program load).
#[test]
#[cfg(unix)]
fn overloaded_refusal_carries_the_offending_tag() {
    let (_server, addr, handle) = start(ServerConfig::new().max_inflight(1));

    let dir = std::env::temp_dir().join(format!("leqa-frames-overload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let fifo = dir.join("gate.qc");
    let status = std::process::Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .expect("mkfifo runs");
    assert!(status.success(), "mkfifo failed");

    let mut client = FrameClient::connect(addr);
    let hog_line = Request::Estimate(EstimateRequest::new(ProgramSpec::path(
        fifo.to_str().expect("utf8 path"),
    )))
    .to_json()
    .encode();
    client.send(11, &hog_line);

    // Control frames bypass admission: poll stats until the hog provably
    // holds the slot (blocked reading the FIFO).
    let stats_line = ControlFrame::Stats.to_json().encode();
    loop {
        client.send(1, &stats_line);
        let (tag, payload) = client.recv();
        assert_eq!(tag, 1);
        let stats = StatsResponse::from_json(&json::parse(&payload).unwrap()).unwrap();
        if stats.inflight >= 1 {
            assert_eq!(stats.frames_in_flight, 1, "{payload}");
            break;
        }
        std::thread::yield_now();
    }

    // Saturated: the refusal is an error frame tagged 77, not 11.
    client.send(77, &estimate_line("qft_8"));
    let (tag, payload) = client.recv();
    assert_eq!(tag, 77, "refusal routes to the refused request");
    let frame = ErrorFrame::from_json(&json::parse(&payload).unwrap()).expect("error frame");
    assert_eq!(frame.error.kind(), ErrorKind::Overloaded);
    assert_eq!(frame.error.exit_code(), 9);

    // Release the gate: the hog's reply arrives under its own tag.
    std::fs::write(&fifo, ".qubits 2\ncnot 0 1\nh 0\n").expect("feed the fifo");
    let (tag, payload) = client.recv();
    assert_eq!(tag, 11);
    assert!(
        payload.starts_with("{\"schema_version\":1,\"op\":\"estimate\""),
        "hog reply: {payload}"
    );

    // Recovery: the refused tag can be retried and now succeeds.
    client.send(77, &estimate_line("qft_8"));
    let (tag, payload) = client.recv();
    assert_eq!(tag, 77);
    assert!(
        payload.starts_with("{\"schema_version\":1,\"op\":\"estimate\""),
        "retried reply: {payload}"
    );

    shutdown_via(addr);
    handle.join().expect("no panic").expect("clean run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A second upgrade on an already-upgraded connection is refused with a
/// typed error (and the connection keeps working).
#[test]
fn double_upgrade_is_refused() {
    let (_server, addr, handle) = start(ServerConfig::new());
    let mut client = FrameClient::connect(addr);

    client.send(
        3,
        &ControlFrame::Upgrade(FrameProto::Frame1).to_json().encode(),
    );
    let (tag, payload) = client.recv();
    assert_eq!(tag, 3);
    let frame = ErrorFrame::from_json(&json::parse(&payload).unwrap()).expect("error frame");
    assert_eq!(frame.error.kind(), ErrorKind::Json);
    assert!(payload.contains("already upgraded"), "{payload}");

    client.send(4, &estimate_line("qft_8"));
    let (tag, payload) = client.recv();
    assert_eq!(tag, 4);
    assert!(payload.contains("\"op\":\"estimate\""), "{payload}");

    shutdown_via(addr);
    handle.join().expect("no panic").expect("clean run");
}

/// A frame whose tag is still in flight is refused on that tag, because
/// its reply could not be told apart from the first request's; the
/// first request is unaffected, and the tag is free again as soon as its
/// reply arrives. Deterministic via the FIFO gate, with no inflight cap.
#[test]
#[cfg(unix)]
fn a_tag_in_flight_is_refused_and_free_again_after_its_reply() {
    let (_server, addr, handle) = start(ServerConfig::new());

    let dir = std::env::temp_dir().join(format!("leqa-frames-tag-reuse-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let fifo = dir.join("gate.qc");
    let status = std::process::Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .expect("mkfifo runs");
    assert!(status.success(), "mkfifo failed");

    let mut client = FrameClient::connect(addr);
    let hog_line = Request::Estimate(EstimateRequest::new(ProgramSpec::path(
        fifo.to_str().expect("utf8 path"),
    )))
    .to_json()
    .encode();
    client.send(11, &hog_line);

    // Poll stats until the hog provably holds its slot (blocked reading
    // the FIFO), so tag 11 is in flight.
    let stats_line = ControlFrame::Stats.to_json().encode();
    loop {
        client.send(1, &stats_line);
        let (tag, payload) = client.recv();
        assert_eq!(tag, 1);
        let stats = StatsResponse::from_json(&json::parse(&payload).unwrap()).unwrap();
        if stats.inflight >= 1 {
            break;
        }
        std::thread::yield_now();
    }

    // Tag 11 again while the hog runs: refused on tag 11, naming the tag.
    client.send(11, &estimate_line("qft_8"));
    let (tag, payload) = client.recv();
    assert_eq!(tag, 11);
    let frame = ErrorFrame::from_json(&json::parse(&payload).unwrap()).expect("error frame");
    assert_eq!(frame.error.kind(), ErrorKind::Json);
    assert!(payload.contains("tag 11"), "{payload}");

    // Release the gate: the hog's own reply still arrives on tag 11.
    std::fs::write(&fifo, ".qubits 2\ncnot 0 1\nh 0\n").expect("feed the fifo");
    let (tag, payload) = client.recv();
    assert_eq!(tag, 11);
    assert!(
        payload.starts_with("{\"schema_version\":1,\"op\":\"estimate\""),
        "hog reply: {payload}"
    );

    // The reply freed the tag: reusing it right away is served.
    client.send(11, &estimate_line("qft_8"));
    let (tag, payload) = client.recv();
    assert_eq!(tag, 11);
    assert!(
        payload.starts_with("{\"schema_version\":1,\"op\":\"estimate\""),
        "reused tag: {payload}"
    );

    shutdown_via(addr);
    handle.join().expect("no panic").expect("clean run");
    let _ = std::fs::remove_dir_all(&dir);
}
