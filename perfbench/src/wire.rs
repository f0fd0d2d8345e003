//! The server process and the client side of the line protocol.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// No single reply may take longer than this; a run must end in 180 s.
const REPLY_TIMEOUT: Duration = Duration::from_secs(150);

/// A running `imin-serve` child on a loopback ephemeral port. Dropping it
/// kills the process and waits for it.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    /// Where the server listens.
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Starts `bin` with default flags and waits for its `LISTENING` line.
    pub fn start(bin: &Path) -> io::Result<ServerProc> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
        let addr = read
            .ok()
            .and_then(|_| line.trim().strip_prefix("LISTENING ")?.parse().ok());
        match addr {
            Some(addr) => Ok(ServerProc { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "server did not announce itself: {line:?}"
                )))
            }
        }
    }

    /// The server's peak resident set (`VmHWM`) in KiB.
    pub fn vm_hwm_kib(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Request counts of one stage of a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Requests written.
    pub sent: u64,
    /// `OK` replies.
    pub ok: u64,
    /// `ERR` replies (`ERR busy` included).
    pub err: u64,
    /// Requests that never got a reply.
    pub unanswered: u64,
}

impl Tally {
    /// Failed requests: errors plus unanswered.
    pub fn failed(&self) -> u64 {
        self.err + self.unanswered
    }

    /// Adds another stage's counts.
    pub fn add(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.err += other.err;
        self.unanswered += other.unanswered;
    }

    /// `sent=… ok=… err=… unanswered=…` as a JSON object body.
    pub fn json(&self) -> String {
        format!(
            "{{\"sent\": {}, \"ok\": {}, \"err\": {}, \"unanswered\": {}}}",
            self.sent, self.ok, self.err, self.unanswered
        )
    }
}

/// One client connection.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Conn {
    /// Connects to the server.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            buf: String::new(),
        })
    }

    /// Sends one line and returns the reply line (without the newline) and
    /// the round trip. Counts the request in `tally`.
    pub fn request(&mut self, line: &str, tally: &mut Tally) -> io::Result<(&str, Duration)> {
        tally.sent += 1;
        let start = Instant::now();
        self.buf.clear();
        let sent = self
            .writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| self.reader.read_line(&mut self.buf));
        let rtt = start.elapsed();
        match sent {
            Ok(n) if n > 0 => {}
            Ok(_) => {
                tally.unanswered += 1;
                return Err(io::Error::other(format!("connection closed on {line:?}")));
            }
            Err(err) => {
                tally.unanswered += 1;
                return Err(err);
            }
        }
        let reply = self.buf.trim_end_matches(['\n', '\r']);
        if reply.starts_with("OK") {
            tally.ok += 1;
        } else {
            tally.err += 1;
        }
        Ok((reply, rtt))
    }

    /// Like [`Conn::request`], but an `ERR` reply is an error too.
    pub fn expect_ok(&mut self, line: &str, tally: &mut Tally) -> io::Result<(String, Duration)> {
        let (reply, rtt) = self.request(line, tally)?;
        if reply.starts_with("OK") {
            Ok((reply.to_string(), rtt))
        } else {
            Err(io::Error::other(format!("{line:?} answered {reply:?}")))
        }
    }
}

/// The value of `key=` in a reply line.
pub fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

/// The value of `key=` parsed as a number.
pub fn num_field(reply: &str, key: &str) -> Option<f64> {
    field(reply, key)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_found_by_exact_key() {
        let reply = "OK blockers=1,2 edges=3-4 spread=12.500000 cached=false samples=4000";
        assert_eq!(field(reply, "blockers"), Some("1,2"));
        assert_eq!(field(reply, "edges"), Some("3-4"));
        assert_eq!(num_field(reply, "spread"), Some(12.5));
        assert_eq!(field(reply, "sample"), None);
        assert_eq!(field("OK blockers= spread=1.0", "blockers"), Some(""));
    }
}
