//! Line-oriented TCP plumbing shared by the daemon and the client: a
//! buffered line reader that survives read timeouts without losing
//! partial data, and a mutex-guarded line writer usable from many job
//! threads at once.

use pug_obs::Json;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, PoisonError};

/// Reject single lines beyond this size — a malformed client must not be
/// able to grow the daemon's buffer without bound. Generous enough for a
/// large inline kernel plus JSON escaping.
const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

/// Buffered `\n`-delimited reader over a [`TcpStream`].
///
/// Unlike `BufReader::read_line`, a read timeout (`WouldBlock` /
/// `TimedOut`) is propagated to the caller with all partially received
/// bytes retained, so the daemon can poll its shutdown state between
/// reads without corrupting the stream framing.
pub(crate) struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Start of un-consumed bytes in `buf`.
    start: usize,
    /// `buf[start..scanned]` holds no `\n`, so a search resumes here and
    /// each received byte is scanned once.
    scanned: usize,
}

impl LineReader {
    pub fn new(stream: TcpStream) -> LineReader {
        LineReader { stream, buf: Vec::with_capacity(4096), start: 0, scanned: 0 }
    }

    /// Next complete line (without the terminator); `Ok(None)` on clean
    /// EOF. Timeout errors are safe to retry.
    pub fn next_line(&mut self) -> io::Result<Option<String>> {
        loop {
            if let Some(nl) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + nl;
                let mut line = &self.buf[self.start..end];
                if line.last() == Some(&b'\r') {
                    line = &line[..line.len() - 1];
                }
                let text = String::from_utf8_lossy(line).into_owned();
                self.start = end + 1;
                if self.start == self.buf.len() {
                    self.buf.clear();
                    self.start = 0;
                }
                self.scanned = self.start;
                return Ok(Some(text));
            }
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            self.scanned = self.buf.len();
            if self.buf.len() > MAX_LINE_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "line exceeds maximum length",
                ));
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Ok(None);
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Shared write half of a connection. Job threads finishing out of order
/// all write through this, one full line at a time, so responses never
/// interleave mid-line.
pub(crate) type SharedWriter = Arc<Mutex<TcpStream>>;

/// Write one response line. Errors are returned (the caller usually
/// ignores them — a vanished client is not a daemon problem).
pub(crate) fn write_line(writer: &SharedWriter, value: &Json) -> io::Result<()> {
    let mut text = value.render();
    text.push('\n');
    // A poisoned writer mutex just means another job panicked after
    // locking; the stream itself is still coherent (lines are written
    // whole), so recover the guard.
    let mut stream = writer.lock().unwrap_or_else(PoisonError::into_inner);
    stream.write_all(text.as_bytes())?;
    stream.flush()
}

/// Write a raw pre-rendered blob (the HTTP `/metrics` response).
pub(crate) fn write_raw(writer: &SharedWriter, text: &str) -> io::Result<()> {
    let mut stream = writer.lock().unwrap_or_else(PoisonError::into_inner);
    stream.write_all(text.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn splits_lines_across_reads_and_handles_crlf() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"first li").unwrap();
            s.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(30));
            s.write_all(b"ne\r\nsecond\n\nth").unwrap();
            s.write_all(b"ird\n").unwrap();
        });
        let (conn, _) = listener.accept().unwrap();
        let mut reader = LineReader::new(conn);
        assert_eq!(reader.next_line().unwrap().as_deref(), Some("first line"));
        assert_eq!(reader.next_line().unwrap().as_deref(), Some("second"));
        assert_eq!(reader.next_line().unwrap().as_deref(), Some(""));
        assert_eq!(reader.next_line().unwrap().as_deref(), Some("third"));
        assert_eq!(reader.next_line().unwrap(), None); // EOF
        sender.join().unwrap();
    }

    #[test]
    fn timeout_preserves_partial_line() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"hal").unwrap();
            s.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(120));
            s.write_all(b"ves\n").unwrap();
        });
        let (conn, _) = listener.accept().unwrap();
        conn.set_read_timeout(Some(std::time::Duration::from_millis(30))).unwrap();
        let mut reader = LineReader::new(conn);
        let mut timeouts = 0;
        let line = loop {
            match reader.next_line() {
                Ok(l) => break l,
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    timeouts += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        assert_eq!(line.as_deref(), Some("halves"));
        assert!(timeouts >= 1, "the read timeout must have fired at least once");
        sender.join().unwrap();
    }
}
