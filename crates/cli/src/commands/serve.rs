//! `leqa serve` — the persistent NDJSON service daemon.
//!
//! Keeps one [`leqa_api::Session`] resident (warm profile cache,
//! persistent worker pool) and answers request lines over **stdio**
//! (`--stdio`, for harness/pipe supervisors) or **TCP** (`--listen
//! ADDR`, `std::net` only). Wire reference: `SERVER.md`.

use std::io::Write;

use leqa_api::{FaultPlan, Server, ServerConfig};

use super::session;
use crate::{CliError, Options};

/// Builds the daemon the serve flags describe: connection caps, warm
/// store (via [`session`]) and the optional `--chaos` fault plan.
fn build_server(opts: &Options) -> Result<Server, CliError> {
    let config = ServerConfig::new()
        .max_connections(opts.max_connections)
        .max_inflight(opts.max_inflight);
    let session = session(opts)?;
    Ok(match &opts.chaos {
        Some(spec) => Server::with_chaos(session, config, FaultPlan::parse(spec)?),
        None => Server::with_config(session, config),
    })
}

/// Runs the daemon until EOF (stdio), `{"cmd":"shutdown"}`, or a fatal
/// transport error. In TCP mode the bound address is announced on `out`
/// as `listening on ADDR` (bind port 0 to let the OS pick) before the
/// accept loop starts; protocol traffic never touches `out`.
pub fn run(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let server = build_server(opts)?;
    if opts.stdio {
        return server.serve_stdio();
    }
    let addr = opts.listen.as_deref().expect("parser enforced transport");
    let bound = server.bind(addr)?;
    writeln!(out, "listening on {}", bound.local_addr())?;
    out.flush()?;
    bound.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    #[test]
    fn tcp_serve_announces_addr_answers_and_shuts_down() {
        let opts = Options {
            listen: Some("127.0.0.1:0".to_string()),
            ..Default::default()
        };
        // `run` blocks until shutdown; drive it from a thread and speak
        // the protocol as a real TCP client.
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let mut out = AnnounceCapture {
                buffer: String::new(),
                tx: Some(tx),
            };
            run(&opts, &mut out)
        });
        let addr: String = rx.recv().expect("server announces its address");

        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .write_all(
                b"{\"schema_version\":1,\"op\":\"estimate\",\"program\":{\"bench\":\"qft_8\"}}\n",
            )
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.starts_with("{\"schema_version\":1,\"op\":\"estimate\""));

        stream.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.contains("\"op\":\"shutdown\""));
        handle.join().expect("no panic").expect("clean exit");
    }

    /// Captures the `listening on ADDR` announcement and forwards the
    /// address to the test thread (buffered: `writeln!` may split the
    /// line across `write` calls).
    struct AnnounceCapture {
        buffer: String,
        tx: Option<std::sync::mpsc::Sender<String>>,
    }

    impl Write for AnnounceCapture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.buffer.push_str(&String::from_utf8_lossy(buf));
            if self.buffer.contains('\n') {
                if let Some(addr) = self.buffer.trim().strip_prefix("listening on ") {
                    if let Some(tx) = self.tx.take() {
                        let _ = tx.send(addr.to_string());
                    }
                }
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
}
