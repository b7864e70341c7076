//! Minimal HTTP/1.1 on `std::net` — just enough protocol for the
//! serving API: request-line + header parsing, `Content-Length` bodies
//! with a hard size cap, fixed and chunked (streaming) responses.
//! Connections are `Connection: close`; every request gets a fresh
//! socket, which keeps the daemon's concurrency accounting exact.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest request body the daemon accepts (1 MiB — sweep-job
/// documents are a few hundred bytes; anything bigger is abuse).
pub const MAX_BODY: usize = 1 << 20;
/// Largest request head (request line + headers).
const MAX_HEAD: usize = 16 << 10;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path only — query strings are split off into `query`.
    pub path: String,
    pub query: Option<String>,
    pub body: String,
}

/// Protocol-level failure while reading a request; maps to a 400.
#[derive(Debug)]
pub struct BadRequest(pub String);

impl From<io::Error> for BadRequest {
    fn from(e: io::Error) -> BadRequest {
        match e.kind() {
            // what a socket read timeout surfaces as (platform dependent)
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                BadRequest("request read timed out".into())
            }
            _ => BadRequest(format!("io error: {e}")),
        }
    }
}

/// Read one request from the socket.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, BadRequest> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    take_line(&mut reader, &mut line)?;
    let mut parts = line.trim_end().split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().ok_or(BadRequest("missing path".into()))?;
    let version = parts.next().ok_or(BadRequest("missing version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(BadRequest(format!("unsupported version `{version}`")));
    }
    if method.is_empty() || !target.starts_with('/') {
        return Err(BadRequest("malformed request line".into()));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };

    let mut content_length = 0usize;
    let mut head_bytes = line.len();
    loop {
        line.clear();
        take_line(&mut reader, &mut line)?;
        head_bytes += line.len();
        if head_bytes > MAX_HEAD {
            return Err(BadRequest("request head too large".into()));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| BadRequest(format!("bad content-length `{}`", value.trim())))?;
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(BadRequest("chunked request bodies not supported".into()));
            }
        } else {
            return Err(BadRequest(format!("malformed header `{trimmed}`")));
        }
    }
    if content_length > MAX_BODY {
        return Err(BadRequest(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY} byte limit"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| BadRequest("body is not UTF-8".into()))?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

fn take_line(reader: &mut BufReader<TcpStream>, line: &mut String) -> Result<(), BadRequest> {
    // Bound each line read so a hostile peer cannot grow one header
    // line without limit.
    let mut limited = reader.take(MAX_HEAD as u64 + 1);
    if limited.read_line(line)? == 0 {
        return Err(BadRequest("connection closed mid-request".into()));
    }
    if line.len() > MAX_HEAD {
        return Err(BadRequest("header line too large".into()));
    }
    Ok(())
}

pub fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete (non-streaming) response.
pub fn respond(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    respond_with(stream, code, content_type, &[], body)
}

/// Like [`respond`], with extra response headers (e.g. `Retry-After`
/// on a draining daemon's 503).
pub fn respond_with(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        status_text(code),
        body.len(),
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    write!(stream, "{head}Connection: close\r\n\r\n{body}")?;
    stream.flush()
}

/// Chunked-transfer response writer: call [`ChunkedWriter::start`],
/// then [`chunk`](ChunkedWriter::chunk) per piece (each NDJSON line is
/// one chunk, flushed immediately so clients see points as they
/// complete), then [`finish`](ChunkedWriter::finish).
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    pub fn start(
        stream: &'a mut TcpStream,
        code: u16,
        content_type: &str,
    ) -> io::Result<ChunkedWriter<'a>> {
        write!(
            stream,
            "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status_text(code),
        )?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    pub fn chunk(&mut self, data: &str) -> io::Result<()> {
        if data.is_empty() {
            return Ok(()); // an empty chunk would terminate the stream
        }
        write!(self.stream, "{:x}\r\n{data}\r\n", data.len())?;
        self.stream.flush()
    }

    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn with_request(raw: &[u8]) -> Result<Request, BadRequest> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            s.flush().unwrap();
            // keep the socket open until the server has parsed
            let mut buf = Vec::new();
            let _ = s.read_to_end(&mut buf);
        });
        let (mut stream, _) = listener.accept().unwrap();
        let req = read_request(&mut stream);
        drop(stream);
        client.join().unwrap();
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req = with_request(
            b"POST /v1/sweeps HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/sweeps");
        assert_eq!(req.body, "hello world");
    }

    #[test]
    fn splits_query_strings() {
        let req = with_request(b"GET /v1/sweeps/j1?wait=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/v1/sweeps/j1");
        assert_eq!(req.query.as_deref(), Some("wait=1"));
    }

    #[test]
    fn rejects_protocol_garbage() {
        assert!(with_request(b"GARBAGE\r\n\r\n").is_err());
        assert!(with_request(b"GET /x SPDY/3\r\n\r\n").is_err());
        assert!(with_request(b"GET /x HTTP/1.1\r\nContent-Length: zap\r\n\r\n").is_err());
        assert!(with_request(b"GET /x HTTP/1.1\r\nnocolon\r\n\r\n").is_err());
        let oversized = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(with_request(oversized.as_bytes()).is_err());
    }
}
