//! A deliberately tiny HTTP/1.1 subset over `std::net` — just enough for the
//! campaign service's wire protocol and its client, with zero dependencies.
//!
//! Supported: request line + headers + `Content-Length` bodies on the way
//! in; fixed-length and `Transfer-Encoding: chunked` responses on the way
//! out (and chunked decoding on the client side, which is how result
//! streaming works). Everything else — keep-alive, pipelining, compression,
//! HTTP/2 — is out of scope: every exchange is one request, one response,
//! one connection.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request head (request line + headers). A submission's
/// interesting payload lives in the body; a head larger than this is
/// garbage or abuse.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a request or response body. Large sweeps submit thousands
/// of points of a few hundred bytes each, comfortably under this.
const MAX_BODY_BYTES: usize = 32 * 1024 * 1024;

/// A parsed HTTP request (or, with `status` set, a response head).
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ... — uppercase as received.
    pub method: String,
    /// Request target, e.g. `/submit`.
    pub path: String,
    /// Header name/value pairs; names lowercased for lookup.
    pub headers: Vec<(String, String)>,
    /// The body, already fully read per `Content-Length`.
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

fn bad(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Reads one line (terminated by `\n`, `\r` trimmed), bounding total head
/// consumption via `budget`.
fn read_line(reader: &mut impl BufRead, budget: &mut usize) -> io::Result<String> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof && !line.is_empty() => break,
            Err(e) => return Err(e),
        }
        *budget = budget
            .checked_sub(1)
            .ok_or_else(|| bad("request head exceeds size limit"))?;
        if byte[0] == b'\n' {
            break;
        }
        line.push(byte[0]);
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| bad("request head is not UTF-8"))
}

/// Parses the head (first line + headers) common to requests and responses,
/// returning the first line and the header list.
fn read_head(reader: &mut impl BufRead) -> io::Result<(String, Vec<(String, String)>)> {
    let mut budget = MAX_HEAD_BYTES;
    let first = read_line(reader, &mut budget)?;
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, &mut budget)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad(format!("malformed header line `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((first, headers))
}

fn read_sized_body(reader: &mut impl BufRead, headers: &[(String, String)]) -> io::Result<Vec<u8>> {
    let length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| bad(format!("bad Content-Length `{v}`")))
        })
        .transpose()?
        .unwrap_or(0);
    if length > MAX_BODY_BYTES {
        return Err(bad("body exceeds size limit"));
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok(body)
}

/// Reads and parses one request from the connection.
pub fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    let mut reader = BufReader::new(stream);
    let (first, headers) = read_head(&mut reader)?;
    let mut parts = first.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("empty request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| bad("request line missing target"))?
        .to_string();
    let body = read_sized_body(&mut reader, &headers)?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Sends `head` and `body` as one `write`. A frame that goes out in pieces
/// is a write-write-read exchange: over a real link Nagle's algorithm holds
/// the second piece until the peer's delayed ACK of the first.
fn write_frame(stream: &mut TcpStream, head: &str, body: &[u8], tail: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(head.len() + body.len() + tail.len());
    frame.extend_from_slice(head.as_bytes());
    frame.extend_from_slice(body);
    frame.extend_from_slice(tail);
    stream.write_all(&frame)?;
    stream.flush()
}

/// Writes a complete fixed-length response and flushes it.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    write_frame(stream, &head, body, b"")
}

/// A chunked-transfer response in progress: call [`ChunkedWriter::begin`],
/// then [`ChunkedWriter::chunk`] per payload (the service sends one NDJSON
/// line per chunk, flushed immediately so clients see results live), then
/// [`ChunkedWriter::end`].
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Writes the response head announcing a chunked body.
    pub fn begin(stream: &'a mut TcpStream, status: u16, reason: &str) -> io::Result<Self> {
        let head = format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Sends one chunk and flushes so the receiver sees it immediately.
    pub fn chunk(&mut self, payload: &[u8]) -> io::Result<()> {
        if payload.is_empty() {
            return Ok(()); // an empty chunk would terminate the stream
        }
        let size = format!("{:x}\r\n", payload.len());
        write_frame(self.stream, &size, payload, b"\r\n")
    }

    /// Sends the terminating zero-length chunk.
    pub fn end(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// A response as seen by the client: status plus either a fully buffered
/// body or, for chunked NDJSON, the lines already delivered to a callback.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The (decoded) body. For streamed responses this is everything that
    /// was also handed to the line callback, concatenated.
    pub body: Vec<u8>,
}

/// Sends `body` as `method path` to `addr` and reads the response. For
/// chunked responses, each complete `\n`-terminated line is handed to
/// `on_line` as it decodes — this is the client half of live streaming.
pub fn roundtrip(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    mut on_line: impl FnMut(&str),
) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    write_frame(&mut stream, &head, body, b"")?;

    let mut reader = BufReader::new(stream);
    let (first, headers) = read_head(&mut reader)?;
    let status = first
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad(format!("malformed status line `{first}`")))?;
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));

    let body = if chunked {
        let mut decoded = Vec::new();
        let mut line_start = 0usize;
        loop {
            let mut budget = 64usize;
            let size_line = read_line(&mut reader, &mut budget)?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| bad(format!("bad chunk size `{size_line}`")))?;
            if decoded.len() + size > MAX_BODY_BYTES {
                return Err(bad("chunked body exceeds size limit"));
            }
            if size == 0 {
                let mut budget = 64usize;
                let _trailer = read_line(&mut reader, &mut budget)?;
                break;
            }
            let mut chunk = vec![0u8; size];
            reader.read_exact(&mut chunk)?;
            decoded.extend_from_slice(&chunk);
            let mut crlf = [0u8; 2];
            reader.read_exact(&mut crlf)?;
            // Deliver every complete line that this chunk finished.
            while let Some(nl) = decoded[line_start..].iter().position(|&b| b == b'\n') {
                let end = line_start + nl;
                if let Ok(text) = std::str::from_utf8(&decoded[line_start..end]) {
                    on_line(text.trim_end_matches('\r'));
                }
                line_start = end + 1;
            }
        }
        if line_start < decoded.len() {
            if let Ok(text) = std::str::from_utf8(&decoded[line_start..]) {
                if !text.trim().is_empty() {
                    on_line(text.trim_end_matches('\r'));
                }
            }
        }
        decoded
    } else {
        read_sized_body(&mut reader, &headers)?
    };
    Ok(Response { status, body })
}
