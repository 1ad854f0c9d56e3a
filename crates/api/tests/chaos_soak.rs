//! Chaos soak: a retrying client drives hundreds of requests through one
//! daemon whose transport misbehaves under a deterministic fault plan
//! (delays, dropped connections, torn frames, flipped bytes — and, on
//! the read side, requests that are swallowed, torn or corrupted before
//! the engine sees them). The client — modelled on `leqa-client`'s retry
//! loop: transient-kind retries, deadline-bounded reads, seeded-jitter
//! exponential backoff — must converge on every request with a reply
//! **byte-identical** to a direct [`Session`], with zero client-visible
//! failures.
//!
//! `zones` and `sweep` are used because their replies carry no
//! cache-dependent fields, so byte-identity is strict however often a
//! retried request runs again on a warm cache.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use leqa_api::{
    json, ErrorFrame, ErrorKind, FaultPlan, ProgramSpec, Request, Server, ServerConfig, Session,
    SweepRequest, ZonesRequest,
};
use leqa_fabric::SplitMix64;

const BENCHES: [&str; 4] = ["qft_4", "qft_8", "random_6_40", "random_5_30"];
const REQUESTS: usize = 520;
const MAX_ATTEMPTS: usize = 40;

fn request_line(i: usize) -> String {
    let bench = BENCHES[i % BENCHES.len()];
    let req = if i.is_multiple_of(2) {
        Request::Zones(ZonesRequest::new(ProgramSpec::bench(bench)).with_limit(4))
    } else {
        Request::Sweep(SweepRequest::new(ProgramSpec::bench(bench), [20, 40]))
    };
    req.to_json().encode()
}

fn expected_replies(session: &Session) -> Vec<String> {
    (0..REQUESTS)
        .map(|i| {
            let line = request_line(i);
            let req = Request::from_json(&json::parse(&line).unwrap()).unwrap();
            session.execute(&req).unwrap().to_json().encode()
        })
        .collect()
}

/// A line-mode client with `leqa-client`-style robustness: reconnects on
/// transport failures, rejects corrupt (unparseable) replies, retries
/// retryable error kinds, and backs off with seeded deterministic
/// jitter.
struct RetryClient {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    rng: SplitMix64,
    deadline: Duration,
}

enum Attempt {
    Reply(String),
    Retry(&'static str),
}

impl RetryClient {
    fn new(addr: SocketAddr, seed: u64) -> RetryClient {
        RetryClient {
            addr,
            conn: None,
            rng: SplitMix64::new(seed),
            deadline: Duration::from_secs(10),
        }
    }

    /// One attempt: write the line, read one reply line under the
    /// deadline, classify it. The connection is taken out of `self` and
    /// only put back if the attempt ends with it in a reusable state.
    fn attempt(&mut self, line: &str) -> Attempt {
        let mut conn = match self.conn.take() {
            Some(conn) => conn,
            None => {
                let Ok(stream) = TcpStream::connect_timeout(&self.addr, self.deadline) else {
                    return Attempt::Retry("connect failed");
                };
                if stream.set_nodelay(true).is_err()
                    || stream
                        .set_read_timeout(Some(Duration::from_millis(50)))
                        .is_err()
                {
                    return Attempt::Retry("socket setup failed");
                }
                BufReader::new(stream)
            }
        };
        let stream = conn.get_mut();
        if stream.write_all(line.as_bytes()).is_err()
            || stream.write_all(b"\n").is_err()
            || stream.flush().is_err()
        {
            return Attempt::Retry("write failed");
        }
        // Deadline-bounded read of one reply line, tolerating the read
        // timeout ticks the poll-style socket produces.
        let start = Instant::now();
        let mut reply = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            if start.elapsed() > self.deadline {
                return Attempt::Retry("deadline exceeded");
            }
            match conn.read(&mut byte) {
                Ok(0) => {
                    // EOF: a dropped connection or a torn line.
                    return Attempt::Retry("connection lost");
                }
                Ok(_) => {
                    if byte[0] == b'\n' {
                        break;
                    }
                    reply.push(byte[0]);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut
                        || e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    return Attempt::Retry("read failed");
                }
            }
        }
        // Corrupt replies (flipped bytes are invalid UTF-8; torn lines
        // are unparseable) are indistinguishable from line-framing
        // damage: drop the connection and retry.
        let Ok(text) = String::from_utf8(reply) else {
            return Attempt::Retry("corrupt reply (not UTF-8)");
        };
        let Ok(doc) = json::parse(&text) else {
            return Attempt::Retry("corrupt reply (not JSON)");
        };
        if let Ok(frame) = ErrorFrame::from_json(&doc) {
            let kind = frame.error.kind();
            if kind == ErrorKind::Overloaded {
                // The line was fully framed, so the connection is
                // reusable; the daemon just needs a moment.
                self.conn = Some(conn);
                return Attempt::Retry("retryable error frame");
            }
            if kind == ErrorKind::Json {
                // Every request this soak sends is valid JSON, so a
                // `json`-kind frame means the *request* was torn or
                // corrupted on the wire (read-side chaos). The server
                // closes after answering one; reconnect and retry.
                return Attempt::Retry("request corrupted in flight");
            }
        }
        self.conn = Some(conn);
        Attempt::Reply(text)
    }

    /// Jittered exponential backoff before retry `attempt` (0-based),
    /// seeded so the soak is reproducible.
    fn backoff(&mut self, attempt: usize) {
        let base = 2u64.saturating_pow(attempt.min(6) as u32);
        let jitter = (self.rng.next_f64() * 4.0) as u64;
        std::thread::sleep(Duration::from_millis((base + jitter).min(200)));
    }
}

#[test]
fn chaos_soak_converges_byte_identically() {
    let plan = FaultPlan::parse(
        "seed=1,delay=1:0.05,drop=0.03,truncate=0.03,flip=0.03,\
         rdrop=0.03,rtruncate=0.03,rflip=0.03",
    )
    .expect("valid plan");
    let session = Session::builder().build().expect("chaotic session");
    let server = Server::with_chaos(session, ServerConfig::new(), plan);
    let bound = server.bind("127.0.0.1:0").expect("bind");
    let addr = bound.local_addr();
    let handle = std::thread::spawn(move || bound.run());

    let direct = Session::builder().build().expect("direct session");
    let expected = expected_replies(&direct);

    let mut client = RetryClient::new(addr, 0xC0FFEE);
    let mut retried = 0usize;
    for (i, want) in expected.iter().enumerate() {
        let line = request_line(i);
        let mut attempts_used = 1;
        let got = loop {
            match client.attempt(&line) {
                Attempt::Reply(reply) => break reply,
                Attempt::Retry(why) => {
                    retried += 1;
                    attempts_used += 1;
                    assert!(
                        attempts_used <= MAX_ATTEMPTS,
                        "request {i} did not converge (last: {why})"
                    );
                    client.backoff(attempts_used - 2);
                }
            }
        };
        assert_eq!(&got, want, "request {i} must be byte-identical");
    }
    assert!(
        retried > 0,
        "the fault plan should have forced at least one retry across {REQUESTS} requests"
    );

    server.shutdown();
    handle.join().expect("no panic").expect("clean exit");
}
