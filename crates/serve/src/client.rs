//! A small blocking client for the daemon's line protocol, used by the
//! serve tests. One connection can pipeline many jobs; [`Client::recv`]
//! returns responses in arrival order (which may differ from submission
//! order — match on the echoed `id`).

use crate::wire::LineReader;
use pug_obs::Json;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Client {
    writer: TcpStream,
    reader: LineReader,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        Client::connect_timeout(addr, Duration::from_secs(5))
    }

    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client { writer, reader: LineReader::new(stream) })
    }

    /// Bound how long [`Client::recv`] blocks. `None` = wait forever.
    pub fn set_recv_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Send one request line without waiting for the answer (pipelining).
    pub fn send(&mut self, request: &Json) -> io::Result<()> {
        let mut line = request.render();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()
    }

    /// Next response line, parsed. `Ok(None)` when the daemon closed the
    /// connection. A read timeout surfaces as `Err(WouldBlock/TimedOut)`
    /// and is safe to retry.
    pub fn recv(&mut self) -> io::Result<Option<Json>> {
        match self.reader.next_line()? {
            None => Ok(None),
            Some(line) => Json::parse(&line)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
        }
    }

    /// Send one request and wait for exactly one response. Only valid when
    /// nothing else is pipelined on this connection.
    pub fn request(&mut self, request: &Json) -> io::Result<Json> {
        self.send(request)?;
        self.recv()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection")
        })
    }
}

/// Fetch the daemon's `GET /metrics` page over a throwaway connection.
pub fn http_metrics(addr: SocketAddr) -> io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: pug-serve\r\nConnection: close\r\n\r\n")?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response"))?;
    if !response.starts_with("HTTP/1.1 200") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected status: {}", response.lines().next().unwrap_or("")),
        ));
    }
    Ok(body)
}
