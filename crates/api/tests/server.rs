//! Integration tests of the persistent service daemon: real TCP
//! sockets, concurrent clients, admission control, graceful shutdown.
//!
//! The acceptance bar (ISSUE 5): concurrent TCP clients receive
//! responses **byte-identical** to direct [`Session`] calls, and a
//! saturated inflight cap yields `overloaded` error frames followed by
//! successful requests once the load drains.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use leqa_api::{
    json, write_frame, BatchRequest, CompareRequest, ControlFrame, ErrorFrame, ErrorKind,
    EstimateRequest, FrameDecoder, FrameProto, LeqaError, MapRequest, ProgramSpec, Request, Server,
    ServerConfig, Session, StatsResponse, SweepRequest, UpgradeAck, ZonesRequest,
    MAX_FRAME_PAYLOAD,
};

/// Binds a fresh server on a loopback port and runs its accept loop on
/// a background thread.
fn start(config: ServerConfig) -> (Server, SocketAddr, JoinHandle<Result<(), LeqaError>>) {
    let server = Server::with_config(Session::builder().build().expect("default session"), config);
    let bound = server.bind("127.0.0.1:0").expect("bind loopback");
    let addr = bound.local_addr();
    let handle = std::thread::spawn(move || bound.run());
    (server, addr, handle)
}

/// A line-oriented protocol client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    /// Sends one line and reads the one reply line (newline stripped).
    fn roundtrip(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
        self.writer.flush().expect("flush");
        self.read_line()
    }

    fn read_line(&mut self) -> String {
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).expect("read reply");
        assert!(n > 0, "server closed the connection unexpectedly");
        reply.trim_end_matches('\n').to_string()
    }
}

fn shutdown_via(addr: SocketAddr) {
    let mut client = Client::connect(addr);
    let ack = client.roundtrip(&ControlFrame::Shutdown.to_json().encode());
    assert!(ack.contains("\"op\":\"shutdown\""), "ack: {ack}");
}

/// The request mix one concurrent client sends, over its own distinct
/// program so `profile_cached` flags are deterministic under races.
fn client_mix(program: &str) -> Vec<Request> {
    let spec = ProgramSpec::bench(program);
    vec![
        Request::Estimate(EstimateRequest::new(spec.clone())),
        // Repeat: the second estimate must report `profile_cached`.
        Request::Estimate(EstimateRequest::new(spec.clone())),
        Request::Sweep(SweepRequest::new(spec.clone(), [10, 20, 40])),
        Request::Zones(ZonesRequest::new(spec.clone()).with_limit(5)),
        Request::Compare(CompareRequest::new(spec.clone()).with_fabric(40, 40)),
        Request::Map(MapRequest::new(spec).with_fabric(40, 40)),
    ]
}

#[test]
fn concurrent_tcp_clients_get_replies_byte_identical_to_direct_sessions() {
    let (_server, addr, handle) = start(ServerConfig::new());
    let programs = ["qft_8", "qft_16", "qft_24", "8bitadder"];

    let replies: Vec<Vec<String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = programs
            .iter()
            .map(|program| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    client_mix(program)
                        .iter()
                        .map(|req| client.roundtrip(&req.to_json().encode()))
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client"))
            .collect()
    });

    // Expected bytes: the same sequence against a fresh direct session
    // per client (each client used its own program, so per-client cache
    // history is independent of interleaving).
    for (program, got) in programs.iter().zip(&replies) {
        let direct = Session::builder().build().unwrap();
        for (req, reply) in client_mix(program).iter().zip(got) {
            let expected = direct.execute(req).expect("direct call").to_json().encode();
            assert_eq!(reply, &expected, "program {program}, request {req:?}");
        }
    }

    shutdown_via(addr);
    handle.join().expect("no panic").expect("clean run");
}

#[test]
fn batch_and_experiment_frames_are_byte_identical_to_direct_calls() {
    let (_server, addr, handle) = start(ServerConfig::new());
    let direct = Session::builder().build().unwrap();
    let mut client = Client::connect(addr);

    let batch = BatchRequest::new([
        Request::Estimate(EstimateRequest::new(ProgramSpec::bench("qft_8"))),
        Request::Estimate(EstimateRequest::new(ProgramSpec::bench("qft_8"))),
        Request::Estimate(EstimateRequest::new(ProgramSpec::bench("nope"))),
        Request::Zones(ZonesRequest::new(ProgramSpec::bench("qft_16")).with_limit(3)),
    ]);
    let reply = client.roundtrip(&batch.to_json().encode());
    let expected = direct.batch(&batch.requests).to_json().encode();
    assert_eq!(reply, expected);

    // The experiment frame rides the same session state (cache deltas in
    // the summary match because both sides ran the batch first).
    let spec = leqa_api::ScenarioSpec::new(
        ["qft_8", "qft_16"],
        [
            leqa_api::FabricEntry::Side(20),
            leqa_api::FabricEntry::Side(40),
        ],
    );
    let reply = client.roundtrip(&spec.to_json().encode());
    let expected = direct
        .batch_experiment(&spec)
        .expect("experiment runs")
        .to_json()
        .encode();
    assert_eq!(reply, expected);

    shutdown_via(addr);
    handle.join().expect("no panic").expect("clean run");
}

/// Saturates the single inflight slot **deterministically**: the hog's
/// `estimate` names a FIFO path, so the server blocks inside the
/// program load (holding the slot) until this test writes the circuit —
/// no timing assumptions anywhere.
#[test]
#[cfg(unix)]
fn saturated_inflight_cap_yields_overloaded_then_recovers() {
    let (_server, addr, handle) = start(ServerConfig::new().max_inflight(1));

    let dir = std::env::temp_dir().join(format!("leqa-server-overload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let fifo = dir.join("gate.qc");
    let status = std::process::Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .expect("mkfifo runs");
    assert!(status.success(), "mkfifo failed");

    let hog_line = Request::Estimate(EstimateRequest::new(ProgramSpec::path(
        fifo.to_str().expect("utf8 path"),
    )))
    .to_json()
    .encode();
    let hog = std::thread::spawn(move || {
        let mut client = Client::connect(addr);
        client.roundtrip(&hog_line)
    });

    // Control frames bypass admission control: poll stats until the hog
    // provably holds the slot (it is blocked reading the FIFO, so the
    // slot cannot be released before we write the circuit below).
    let mut probe = Client::connect(addr);
    let stats_line = ControlFrame::Stats.to_json().encode();
    loop {
        let reply = probe.roundtrip(&stats_line);
        let stats = StatsResponse::from_json(&json::parse(&reply).unwrap()).unwrap();
        if stats.inflight >= 1 {
            break;
        }
        std::thread::yield_now();
    }

    // Saturated: a work frame is refused with the typed, retryable kind.
    let estimate = Request::Estimate(EstimateRequest::new(ProgramSpec::bench("qft_8")))
        .to_json()
        .encode();
    let reply = probe.roundtrip(&estimate);
    let frame = ErrorFrame::from_json(&json::parse(&reply).unwrap()).expect("error frame");
    assert_eq!(frame.error.kind(), ErrorKind::Overloaded);
    assert_eq!(frame.error.exit_code(), 9);

    // Release the gate: the hog's load unblocks and completes normally.
    std::fs::write(&fifo, ".qubits 2\ncnot 0 1\nh 0\n").expect("feed the fifo");
    let hog_reply = hog.join().expect("hog client");
    assert!(
        hog_reply.starts_with("{\"schema_version\":1,\"op\":\"estimate\""),
        "hog reply: {hog_reply}"
    );

    // Recovery: the refused request now succeeds.
    let reply = probe.roundtrip(&estimate);
    assert!(
        reply.starts_with("{\"schema_version\":1,\"op\":\"estimate\""),
        "recovered reply: {reply}"
    );

    let reply = probe.roundtrip(&stats_line);
    let stats = StatsResponse::from_json(&json::parse(&reply).unwrap()).unwrap();
    assert!(stats.overloaded >= 1, "stats recorded the refusal");
    assert_eq!(stats.inflight, 0, "all permits released");

    shutdown_via(addr);
    handle.join().expect("no panic").expect("clean run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connection_cap_refuses_with_one_overloaded_frame() {
    let (_server, addr, handle) = start(ServerConfig::new().max_connections(1));

    let mut first = Client::connect(addr);
    // A roundtrip guarantees the first connection's thread is live
    // before the second connection arrives.
    let reply = first.roundtrip(&ControlFrame::Stats.to_json().encode());
    assert!(reply.contains("\"op\":\"stats\""));

    let mut refused = Client::connect(addr);
    let reply = refused.read_line();
    let frame = ErrorFrame::from_json(&json::parse(&reply).unwrap()).expect("error frame");
    assert_eq!(frame.error.kind(), ErrorKind::Overloaded);
    assert!(frame.error.to_string().contains("connections"));

    shutdown_via_open_client(&mut first);
    handle.join().expect("no panic").expect("clean run");
}

/// Shuts down through an already-open connection (a second connection
/// would be refused by the cap).
fn shutdown_via_open_client(client: &mut Client) {
    let ack = client.roundtrip(&ControlFrame::Shutdown.to_json().encode());
    assert!(ack.contains("\"op\":\"shutdown\""), "ack: {ack}");
}

fn estimate_line(name: &str) -> String {
    Request::Estimate(EstimateRequest::new(ProgramSpec::bench(name)))
        .to_json()
        .encode()
}

/// A script for one fresh daemon: cold, warm and another estimate, a
/// sweep, two malformed requests and an expired deadline.
fn script() -> Vec<Vec<u8>> {
    let sweep = Request::Sweep(SweepRequest::new(ProgramSpec::bench("qft_8"), [10, 20]));
    [
        estimate_line("qft_8"),
        estimate_line("qft_8"),
        estimate_line("qft_16"),
        sweep.to_json().encode(),
        "{oops".to_string(),
        r#"{"schema_version":1,"op":"frobnicate"}"#.to_string(),
        r#"{"schema_version":1,"op":"estimate","program":{"bench":"qft_8"},"timeout_ms":0}"#
            .to_string(),
    ]
    .into_iter()
    .map(String::into_bytes)
    .collect()
}

const NOT_UTF8: &[u8] = &[0xff, 0xfe, b'{', b'}'];

/// Sends the script as NDJSON lines, then a non-UTF-8 line; returns
/// every reply line and whether the connection then closed.
fn ndjson_replies(addr: SocketAddr) -> (Vec<String>, bool) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut replies = Vec::new();
    for line in script().into_iter().chain([NOT_UTF8.to_vec()]) {
        writer.write_all(&line).expect("send");
        writer.write_all(b"\n").expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        replies.push(reply);
    }
    let mut rest = Vec::new();
    let closed = reader
        .read_to_end(&mut rest)
        .map(|n| n == 0)
        .unwrap_or(false);
    (replies, closed)
}

/// Sends the script as serial `frame1` requests tagged from 10, then a
/// non-UTF-8 payload; returns every `(tag, reply)`.
fn frame_replies(addr: SocketAddr) -> Vec<(u32, String)> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let upgrade = ControlFrame::Upgrade(FrameProto::Frame1).to_json().encode();
    stream
        .write_all(format!("{upgrade}\n").as_bytes())
        .expect("upgrade");
    let mut ack = Vec::new();
    let mut byte = [0u8; 1];
    while stream.read(&mut byte).expect("ack") == 1 && byte[0] != b'\n' {
        ack.push(byte[0]);
    }
    let ack = json::parse(std::str::from_utf8(&ack).expect("utf8 ack")).expect("ack json");
    UpgradeAck::from_json(&ack).expect("upgrade ack");

    let mut decoder = FrameDecoder::new();
    let mut replies = Vec::new();
    for (tag, payload) in (10u32..).zip(script().into_iter().chain([NOT_UTF8.to_vec()])) {
        write_frame(&mut stream, tag, &payload).expect("send");
        let mut buf = [0u8; 4096];
        let (tag, reply) = loop {
            if let Some(frame) = decoder.next().expect("well-formed") {
                break frame;
            }
            let n = stream.read(&mut buf).expect("reply");
            assert!(n > 0, "closed before replying");
            decoder.push(&buf[..n]);
        };
        replies.push((tag, String::from_utf8(reply).expect("utf8 reply")));
    }
    replies
}

fn kind_of(reply: &str) -> ErrorKind {
    let frame = ErrorFrame::from_json(&json::parse(reply.trim_end()).expect("json"));
    frame.expect("error frame").error.kind()
}

/// The script's replies, error frames included, over NDJSON and over
/// `frame1`: a non-UTF-8 line is refused and closes the connection, and
/// a fresh daemon answers both framings with the same payload bytes.
#[test]
fn the_daemon_answers_the_script_on_both_framings() {
    let (server, addr, handle) = start(ServerConfig::new());
    let (lines, closed) = ndjson_replies(addr);
    assert!(closed, "a non-UTF-8 line closes");
    assert_eq!(lines.len(), 8);
    assert!(
        lines[0].contains("\"profile_cached\":false"),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains("\"profile_cached\":true"), "{}", lines[1]);
    assert_eq!(kind_of(&lines[4]), ErrorKind::Json);
    assert_eq!(kind_of(&lines[6]), ErrorKind::DeadlineExceeded);
    assert!(
        lines[7].contains("frame is not valid UTF-8"),
        "{}",
        lines[7]
    );
    server.shutdown();
    handle.join().expect("no panic").expect("clean exit");

    let (server, addr, handle) = start(ServerConfig::new());
    let frames = frame_replies(addr);
    assert_eq!(frames.len(), 8);
    assert!(frames
        .iter()
        .zip(10u32..)
        .all(|((tag, _), want)| *tag == want));
    for ((_, payload), line) in frames.iter().zip(&lines) {
        assert_eq!(payload, line.trim_end(), "frame1 and NDJSON differ");
    }
    server.shutdown();
    handle.join().expect("no panic").expect("clean exit");
}

/// A read that times out in the middle of a character must not lose the
/// bytes already read: the line is answered whole, exactly as
/// `Server::process_line` answers it.
#[test]
fn a_line_that_pauses_inside_a_character_is_served_whole() {
    let line = Request::Estimate(EstimateRequest::new(ProgramSpec::source(
        "# café\n.qubits 2\ncnot 0 1\nh 0\n",
    )))
    .to_json()
    .encode();
    let bytes = format!("{line}\n").into_bytes();
    let e_acute = line.find('é').expect("the comment has an é");
    let want = Server::new(Session::builder().build().expect("session"))
        .process_line(&line)
        .expect("a reply");
    let (server, addr, handle) = start(ServerConfig::new());
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    // Stop after the first of the é's two bytes, past two 100 ms polls.
    stream.write_all(&bytes[..=e_acute]).expect("first part");
    std::thread::sleep(Duration::from_millis(250));
    stream.write_all(&bytes[e_acute + 1..]).expect("rest");
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .expect("reply");
    assert_eq!(reply.trim_end(), want);
    drop(stream);
    server.shutdown();
    handle.join().expect("no panic").expect("clean exit");
}

/// A line with no newline in sight is cut off at the frame payload cap:
/// one `json` error frame naming the cap, then EOF, and the daemon keeps
/// serving other connections.
#[test]
fn a_line_over_the_frame_cap_is_refused_and_closed() {
    let (server, addr, handle) = start(ServerConfig::new());
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let flood = vec![b'x'; MAX_FRAME_PAYLOAD as usize + 1];
    stream.write_all(&flood).expect("flood");
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("a reply before EOF");
    assert_eq!(kind_of(&reply), ErrorKind::Json, "{reply}");
    assert!(reply.contains(&MAX_FRAME_PAYLOAD.to_string()), "{reply}");
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).expect("EOF"), 0);

    let mut next = Client::connect(addr);
    let reply = next.roundtrip(&estimate_line("qft_8"));
    assert!(reply.starts_with("{\"schema_version\":1,\"op\":\"estimate\""));
    drop(next);
    server.shutdown();
    handle.join().expect("no panic").expect("clean exit");
}
