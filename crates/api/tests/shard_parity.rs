//! The daemon and the shard front-end share one connection engine, so a
//! client cannot tell them apart by any reply byte: one script through a
//! fresh `Server` and a fresh two-replica `Shard`, over NDJSON and over
//! `frame1`, must get byte-identical replies, error frames included.
//! Also pinned on both front-ends: a line whose bytes pause inside a
//! UTF-8 character is served whole, and a line over the 16 MiB frame cap
//! is refused with one error frame before the connection closes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use leqa_api::{
    json, write_frame, ControlFrame, ErrorFrame, ErrorKind, EstimateRequest, FrameDecoder,
    FrameProto, LeqaError, ProgramSpec, Request, Server, ServerConfig, Session, Shard,
    SweepRequest, UpgradeAck, MAX_FRAME_PAYLOAD,
};

/// A running front-end: its address, a way to stop it, and its thread.
struct FrontEnd {
    addr: SocketAddr,
    stop: Box<dyn Fn()>,
    thread: JoinHandle<Result<(), LeqaError>>,
}

impl FrontEnd {
    fn server(read_poll_ms: u64) -> FrontEnd {
        let config = ServerConfig::new().read_poll_ms(read_poll_ms);
        let server = Server::with_config(Session::builder().build().expect("session"), config);
        let bound = server.bind("127.0.0.1:0").expect("bind");
        FrontEnd {
            addr: bound.local_addr(),
            stop: Box::new(move || server.shutdown()),
            thread: std::thread::spawn(move || bound.run()),
        }
    }

    fn shard(read_poll_ms: u64) -> FrontEnd {
        let shard = Shard::new();
        shard.set_read_poll_ms(read_poll_ms);
        for _ in 0..2 {
            let config = ServerConfig::new().read_poll_ms(read_poll_ms);
            let session = Session::builder().build().expect("session");
            shard
                .spawn_replica(Server::with_config(session, config))
                .expect("replica spawns");
        }
        let bound = shard.bind("127.0.0.1:0").expect("bind");
        FrontEnd {
            addr: bound.local_addr(),
            stop: Box::new(move || shard.shutdown()),
            thread: std::thread::spawn(move || bound.run()),
        }
    }

    fn stop(self) {
        (self.stop)();
        self.thread.join().expect("no panic").expect("clean exit");
    }
}

fn estimate_line(name: &str) -> String {
    Request::Estimate(EstimateRequest::new(ProgramSpec::bench(name)))
        .to_json()
        .encode()
}

/// The shared script: cold, warm and another estimate, a sweep, two
/// malformed requests and an expired deadline.
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

/// Sends the script as serial `frame1` requests, then a non-UTF-8
/// payload; returns every `(tag, reply)`.
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

#[test]
fn the_shard_answers_the_script_with_the_daemons_bytes() {
    let (server, shard) = (FrontEnd::server(0), FrontEnd::shard(0));
    let (daemon, daemon_closed) = ndjson_replies(server.addr);
    let (sharded, shard_closed) = ndjson_replies(shard.addr);
    assert_eq!(daemon, sharded, "NDJSON replies differ");
    assert!(daemon_closed && shard_closed, "a non-UTF-8 line closes");
    assert_eq!(daemon.len(), 8);
    assert!(
        daemon[0].contains("\"profile_cached\":false"),
        "{}",
        daemon[0]
    );
    assert!(
        daemon[1].contains("\"profile_cached\":true"),
        "{}",
        daemon[1]
    );
    assert_eq!(kind_of(&daemon[4]), ErrorKind::Json);
    assert_eq!(kind_of(&daemon[6]), ErrorKind::DeadlineExceeded);
    assert!(
        daemon[7].contains("frame is not valid UTF-8"),
        "{}",
        daemon[7]
    );
    server.stop();
    shard.stop();

    let (server, shard) = (FrontEnd::server(0), FrontEnd::shard(0));
    let daemon = frame_replies(server.addr);
    assert_eq!(daemon, frame_replies(shard.addr), "frame1 replies differ");
    assert_eq!(daemon.len(), 8);
    assert!(daemon
        .iter()
        .zip(10u32..)
        .all(|((tag, _), want)| *tag == want));
    assert!(
        daemon[7].1.contains("frame is not valid UTF-8"),
        "{}",
        daemon[7].1
    );
    server.stop();
    shard.stop();
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
    for front in [FrontEnd::server(10), FrontEnd::shard(10)] {
        let mut stream = TcpStream::connect(front.addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        // Stop after the first of the é's two bytes, past several polls.
        stream.write_all(&bytes[..=e_acute]).expect("first part");
        std::thread::sleep(Duration::from_millis(80));
        stream.write_all(&bytes[e_acute + 1..]).expect("rest");
        let mut reply = String::new();
        BufReader::new(&stream)
            .read_line(&mut reply)
            .expect("reply");
        assert_eq!(reply.trim_end(), want);
        drop(stream);
        front.stop();
    }
}

/// A line with no newline in sight is cut off at the frame payload cap:
/// one `json` error frame naming the cap, then EOF, and the front-end
/// keeps serving other connections.
#[test]
fn a_line_over_the_frame_cap_is_refused_and_closed() {
    for front in [FrontEnd::server(0), FrontEnd::shard(0)] {
        let mut stream = TcpStream::connect(front.addr).expect("connect");
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

        let mut next = TcpStream::connect(front.addr).expect("connect again");
        next.write_all(format!("{}\n", estimate_line("qft_8")).as_bytes())
            .expect("send");
        let mut reply = String::new();
        BufReader::new(&next).read_line(&mut reply).expect("reply");
        assert!(reply.starts_with("{\"schema_version\":1,\"op\":\"estimate\""));
        drop(next);
        front.stop();
    }
}
