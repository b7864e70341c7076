//! Minimal HTTP/1.1 client for the `ovlp serve` daemon: one request per
//! connection (the daemon answers `Connection: close`), fixed-length
//! bodies, and chunked NDJSON streams read line by line.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A daemon that stops answering must fail the run, not hang it.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Response {
    pub status: u16,
    pub body: String,
}

fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn send(stream: &mut TcpStream, method: &str, path: &str, body: &str) -> io::Result<()> {
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Read the status line and headers; returns the status and whether
/// the body is chunked.
fn read_head(reader: &mut BufReader<TcpStream>) -> io::Result<(u16, bool)> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
    let mut chunked = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed in headers"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            return Ok((status, chunked));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("transfer-encoding") && value.trim() == "chunked" {
                chunked = true;
            }
        }
    }
}

/// One complete request/response exchange.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> io::Result<Response> {
    let mut stream = connect(addr)?;
    send(&mut stream, method, path, body)?;
    let mut reader = BufReader::new(stream);
    let (status, chunked) = read_head(&mut reader)?;
    let body = if chunked {
        let mut lines = Lines {
            reader,
            buf: Vec::new(),
            done: false,
        };
        let mut all = String::new();
        while let Some(line) = lines.next_line()? {
            all.push_str(&line);
            all.push('\n');
        }
        all
    } else {
        let mut s = String::new();
        reader.read_to_string(&mut s)?;
        s
    };
    Ok(Response { status, body })
}

/// `GET path` whose 200 body is a chunked NDJSON stream.
pub fn stream(addr: &str, path: &str) -> io::Result<Lines> {
    let mut stream = connect(addr)?;
    send(&mut stream, "GET", path, "")?;
    let mut reader = BufReader::new(stream);
    let (status, chunked) = read_head(&mut reader)?;
    if status != 200 || !chunked {
        let mut body = String::new();
        let _ = reader.read_to_string(&mut body);
        return Err(bad(format!(
            "stream {path}: HTTP {status}: {}",
            body.trim()
        )));
    }
    Ok(Lines {
        reader,
        buf: Vec::new(),
        done: false,
    })
}

/// Newline-delimited lines of a chunked body, yielded as soon as each
/// arrives.
pub struct Lines {
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
    done: bool,
}

impl Lines {
    pub fn next_line(&mut self) -> io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                let text = String::from_utf8(line[..pos].to_vec())
                    .map_err(|_| bad("stream line is not UTF-8"))?;
                return Ok(Some(text));
            }
            if self.done {
                return if self.buf.is_empty() {
                    Ok(None)
                } else {
                    Err(bad("stream ended mid-line"))
                };
            }
            self.read_chunk()?;
        }
    }

    fn read_chunk(&mut self) -> io::Result<()> {
        let mut size_line = String::new();
        if self.reader.read_line(&mut size_line)? == 0 {
            return Err(bad("stream closed before its last chunk"));
        }
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| bad(format!("bad chunk size {size_line:?}")))?;
        if size > 1 << 20 {
            return Err(bad(format!("chunk of {size} bytes")));
        }
        let start = self.buf.len();
        self.buf.resize(start + size, 0);
        self.reader.read_exact(&mut self.buf[start..])?;
        let mut crlf = [0u8; 2];
        self.reader.read_exact(&mut crlf)?;
        if size == 0 {
            self.done = true;
        }
        Ok(())
    }
}
