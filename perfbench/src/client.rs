//! The load generator's HTTP/1.1 client: one `write` per request on a
//! `TCP_NODELAY` socket, so neither Nagle's algorithm nor a delayed
//! ACK holds a request back. The connection is kept alive and opened
//! again when the server ends it (it closes after 64 requests, or
//! after an idle spell).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// TCP connections opened so far.
    pub connects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            buf: Vec::with_capacity(16 << 10),
            connects: 0,
        }
    }

    /// Send one request and return `(status, body)`. A request that
    /// finds the kept-alive connection already closed by the server
    /// (no response byte read) is sent once more on a new connection:
    /// the server never saw it.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let mut wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body.as_bytes());
        match self.exchange(&wire) {
            Err(Stale) => {
                self.stream = None;
                self.exchange(&wire).map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "server closed a fresh connection",
                    )
                })?
            }
            Ok(result) => result,
        }
    }

    fn exchange(&mut self, wire: &[u8]) -> Result<io::Result<(u16, String)>, Stale> {
        if self.stream.is_none() {
            match self.connect() {
                Ok(s) => self.stream = Some(s),
                Err(e) => return Ok(Err(e)),
            }
        }
        let stream = self.stream.as_mut().expect("connected above");
        if stream.write_all(wire).is_err() {
            return Err(Stale);
        }
        self.buf.clear();
        match read_response(stream, &mut self.buf) {
            Ok(None) => Err(Stale),
            Ok(Some((status, body, close))) => {
                if close {
                    self.stream = None;
                }
                Ok(Ok((status, body)))
            }
            Err(e) => {
                self.stream = None;
                Ok(Err(e))
            }
        }
    }

    fn connect(&mut self) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        self.connects += 1;
        Ok(stream)
    }
}

/// The kept-alive connection was closed before it answered.
struct Stale;

/// Read one response: `Ok(None)` when the peer closed before sending
/// a byte, else `(status, body, connection closes)`.
fn read_response(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
) -> io::Result<Option<(u16, String, bool)>> {
    let mut chunk = [0u8; 8192];
    let head_end = loop {
        if let Some(p) = find(buf, b"\r\n\r\n") {
            break p + 4;
        }
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if buf.is_empty() && e.kind() == io::ErrorKind::ConnectionReset => {
                return Ok(None)
            }
            Err(e) => return Err(e),
        };
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated response head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status code"))?;
    let mut length = 0usize;
    let mut close = false;
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                })?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    while buf.len() < head_end + length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated response body",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&buf[head_end..head_end + length]).into_owned();
    Ok(Some((status, body, close)))
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}
