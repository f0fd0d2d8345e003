//! Blocking client for the `imin-serve` line protocol — the library behind
//! the `imin-cli` binary and the protocol round-trip tests.

use crate::protocol::{parse_reply, payload_field};
use crate::{EngineError, Result};
use imin_core::AlgorithmKind;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A typed view of a `QUERY` reply.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryReply {
    /// Chosen blockers in selection order.
    pub blockers: Vec<u32>,
    /// Estimated remaining spread (seeds counted), `None` if the engine
    /// reported none.
    pub spread: Option<f64>,
    /// Whether the server answered from its LRU cache.
    pub cached: bool,
}

/// A connected protocol client. One request line in, one reply line out.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running `imin-serve`.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Requests are single short lines awaiting a reply; letting Nagle
        // batch them just adds the delayed-ACK stall to every round trip.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one raw request line and returns the raw reply line (including
    /// its `OK `/`ERR ` marker).
    ///
    /// # Errors
    /// Returns an I/O error if the connection drops.
    pub fn send_raw(&mut self, line: &str) -> Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut reply = String::new();
        let read = self.reader.read_line(&mut reply)?;
        if read == 0 {
            return Err(EngineError::Protocol("server closed the connection".into()));
        }
        Ok(reply.trim_end().to_string())
    }

    /// Sends one request line and returns the `OK` payload, mapping `ERR
    /// <reason>` replies to [`EngineError::Protocol`].
    ///
    /// # Errors
    /// Protocol errors carry the server's reason; I/O errors pass through.
    pub fn send(&mut self, line: &str) -> Result<String> {
        let reply = self.send_raw(line)?;
        parse_reply(&reply).map_err(EngineError::Protocol)
    }

    /// `LOAD pa …`: loads a preferential-attachment graph under the
    /// weighted-cascade model; returns `(n, m)`.
    ///
    /// # Errors
    /// Protocol or I/O errors as in [`Client::send`].
    pub fn load_pa_wc(&mut self, n: usize, m0: usize, seed: u64) -> Result<(usize, usize)> {
        let payload = self.send(&format!("LOAD pa n={n} m0={m0} seed={seed} model=wc"))?;
        let parse = |key: &str| {
            payload_field(&payload, key)
                .and_then(|v| v.parse::<usize>().ok())
                .ok_or_else(|| EngineError::Protocol(format!("missing {key} in '{payload}'")))
        };
        Ok((parse("n")?, parse("m")?))
    }

    /// `POOL θ seed`: builds the resident pool; returns the build
    /// milliseconds the server reported.
    ///
    /// # Errors
    /// Protocol or I/O errors as in [`Client::send`].
    pub fn build_pool(&mut self, theta: usize, seed: u64) -> Result<u64> {
        let payload = self.send(&format!("POOL {theta} {seed}"))?;
        payload_field(&payload, "build_ms")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| EngineError::Protocol(format!("missing build_ms in '{payload}'")))
    }

    /// `QUERY ic …`: asks one containment question.
    ///
    /// # Errors
    /// Protocol or I/O errors as in [`Client::send`].
    pub fn query(
        &mut self,
        seeds: &[u32],
        budget: usize,
        algorithm: AlgorithmKind,
    ) -> Result<QueryReply> {
        let seeds = seeds
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(",");
        // `Display` prints the registry's canonical name, which the server
        // resolves through the same `AlgorithmKind` registry.
        let payload = self.send(&format!(
            "QUERY ic seeds={seeds} budget={budget} alg={algorithm}"
        ))?;
        let blockers_field = payload_field(&payload, "blockers")
            .ok_or_else(|| EngineError::Protocol(format!("missing blockers in '{payload}'")))?;
        let blockers = if blockers_field.is_empty() {
            Vec::new()
        } else {
            blockers_field
                .split(',')
                .map(|tok| {
                    tok.parse::<u32>().map_err(|_| {
                        EngineError::Protocol(format!("bad blocker id '{tok}' in '{payload}'"))
                    })
                })
                .collect::<Result<Vec<u32>>>()?
        };
        let spread = payload_field(&payload, "spread").and_then(|v| v.parse::<f64>().ok());
        let cached = payload_field(&payload, "cached").as_deref() == Some("true");
        Ok(QueryReply {
            blockers,
            spread,
            cached,
        })
    }

    /// `STATS`: returns the raw payload (see [`payload_field`] to pick
    /// numbers out of it).
    ///
    /// # Errors
    /// Protocol or I/O errors as in [`Client::send`].
    pub fn stats(&mut self) -> Result<String> {
        self.send("STATS")
    }

    /// `METRICS`: reads the multi-line Prometheus exposition. The server
    /// answers `OK lines=<n>` followed by exactly `n` exposition lines;
    /// this reads them all and returns the exposition body (no header,
    /// trailing newline included).
    ///
    /// # Errors
    /// Protocol or I/O errors as in [`Client::send`]; a malformed header
    /// is a protocol error.
    pub fn metrics(&mut self) -> Result<String> {
        let header = self.send_raw("METRICS")?;
        let payload = parse_reply(&header).map_err(EngineError::Protocol)?;
        let lines: usize = payload_field(&payload, "lines")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| EngineError::Protocol(format!("missing lines= in '{header}'")))?;
        let mut body = String::new();
        for _ in 0..lines {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(EngineError::Protocol(
                    "server closed the connection mid-exposition".into(),
                ));
            }
            body.push_str(&line);
        }
        Ok(body)
    }

    /// `PING`: liveness probe.
    ///
    /// # Errors
    /// Protocol or I/O errors as in [`Client::send`].
    pub fn ping(&mut self) -> Result<()> {
        let payload = self.send("PING")?;
        if payload == "pong" {
            Ok(())
        } else {
            Err(EngineError::Protocol(format!(
                "unexpected PING reply '{payload}'"
            )))
        }
    }
}
