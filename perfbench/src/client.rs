//! A minimal HTTP/1.1 client for the benchmark: request encoding and
//! response framing over any byte stream, so pipelined keep-alive
//! traffic can be written by one thread and read back by another.

use std::io::{self, Read};
use std::time::Instant;

/// Encodes one request. `headers` are extra `(name, value)` pairs; the
/// body is framed with `content-length`.
pub fn encode_request(method: &str, path: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nhost: bench\r\n");
    for (name, value) in headers {
        out.push_str(&format!("{name}: {value}\r\n"));
    }
    out.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    let mut bytes = out.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// One framed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// The server announced `connection: close`: no further response
    /// follows on this stream.
    pub close: bool,
    /// The `x-model-generation` header, when present.
    pub generation: Option<u64>,
    /// Body, exactly `content-length` bytes.
    pub body: Vec<u8>,
}

/// Reads successive responses off one stream, keeping bytes that arrive
/// ahead of the current response for the next one (pipelining).
#[derive(Debug)]
pub struct ResponseReader<R> {
    stream: R,
    buf: Vec<u8>,
    start: usize,
    /// When the read that delivered the current response's first byte
    /// returned.
    first_byte: Option<Instant>,
    last_fill: Instant,
}

/// Upper bound on a response head; a longer one is a framing error.
const MAX_HEAD: usize = 16 * 1024;

impl<R: Read> ResponseReader<R> {
    /// Wraps a stream.
    pub fn new(stream: R) -> Self {
        ResponseReader {
            stream,
            buf: Vec::with_capacity(8192),
            start: 0,
            first_byte: None,
            last_fill: Instant::now(),
        }
    }

    /// When the first byte of the response most recently returned by
    /// [`next_response`](Self::next_response) was read off the stream.
    pub fn first_byte(&self) -> Option<Instant> {
        self.first_byte
    }

    fn fill(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; 8192];
        let n = self.stream.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        self.last_fill = Instant::now();
        Ok(n)
    }

    /// Reads the next response. `Ok(None)` is a clean end of stream
    /// before any byte of a response; a stream that ends mid-response
    /// is an `UnexpectedEof` error.
    pub fn next_response(&mut self) -> io::Result<Option<ClientResponse>> {
        self.first_byte = None;
        // Drop the bytes of responses already returned.
        self.buf.drain(..self.start);
        self.start = 0;
        let head_end = loop {
            let pending = &self.buf[self.start..];
            if !pending.is_empty() && self.first_byte.is_none() {
                self.first_byte = Some(self.last_fill);
            }
            if let Some(pos) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
                break self.start + pos + 4;
            }
            if pending.len() > MAX_HEAD {
                return Err(invalid("response head too large"));
            }
            if self.fill()? == 0 {
                if self.buf.len() == self.start {
                    return Ok(None);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a response head",
                ));
            }
        };
        let head = std::str::from_utf8(&self.buf[self.start..head_end])
            .map_err(|_| invalid("response head is not utf-8"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let (mut length, mut close, mut generation) = (None, false, None);
        for line in lines.filter(|l| !l.is_empty()) {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| invalid("bad header line"))?;
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => {
                    length = Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| invalid("bad content-length"))?,
                    );
                }
                "connection" => close = value.eq_ignore_ascii_case("close"),
                "x-model-generation" => generation = value.parse::<u64>().ok(),
                _ => {}
            }
        }
        let length = length.ok_or_else(|| invalid("response without content-length"))?;
        while self.buf.len() < head_end + length {
            if self.fill()? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a response body",
                ));
            }
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        self.start = head_end + length;
        Ok(Some(ClientResponse {
            status,
            close,
            generation,
            body,
        }))
    }
}

fn invalid(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidnn::gateway::Response;
    use std::io::Cursor;

    /// Serializes responses with the gateway's own writer, so the test
    /// frames exactly the bytes the server emits.
    fn wire(responses: &[(Response, bool)]) -> Vec<u8> {
        let mut out = Vec::new();
        for (response, keep_alive) in responses {
            response.write_to(&mut out, *keep_alive).unwrap();
        }
        out
    }

    #[test]
    fn frames_by_content_length() {
        let bytes = wire(&[(
            Response::bytes(200, vec![1, 2, 3, 4]).header("x-model-generation", "7"),
            true,
        )]);
        let mut reader = ResponseReader::new(Cursor::new(bytes));
        let r = reader.next_response().unwrap().unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, vec![1, 2, 3, 4]);
        assert_eq!(r.generation, Some(7));
        assert!(!r.close);
        assert!(reader.first_byte().is_some());
        assert_eq!(reader.next_response().unwrap(), None);
    }

    #[test]
    fn splits_pipelined_responses() {
        let bytes = wire(&[
            (Response::bytes(200, vec![9; 40]), true),
            (
                Response::text(429, "busy\n").header("retry-after", "1"),
                true,
            ),
            (Response::json(200, "{}"), true),
        ]);
        // Deliver the stream in awkward 7-byte reads.
        struct Trickle(Cursor<Vec<u8>>);
        impl Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = buf.len().min(7);
                self.0.read(&mut buf[..n])
            }
        }
        let mut reader = ResponseReader::new(Trickle(Cursor::new(bytes)));
        let statuses: Vec<(u16, usize)> = (0..3)
            .map(|_| {
                let r = reader.next_response().unwrap().unwrap();
                (r.status, r.body.len())
            })
            .collect();
        assert_eq!(statuses, vec![(200, 40), (429, 5), (200, 2)]);
        assert_eq!(reader.next_response().unwrap(), None);
    }

    #[test]
    fn stream_ends_cleanly_after_the_keep_alive_cap() {
        // The gateway answers its last request on a connection (its
        // `max_requests_per_connection`) as keep-alive and then closes
        // the stream: the reader sees a clean end, not an error.
        let bytes = wire(&[
            (Response::bytes(200, vec![0; 4]), true),
            (Response::bytes(200, vec![1; 4]), true),
        ]);
        let mut reader = ResponseReader::new(Cursor::new(bytes));
        assert_eq!(reader.next_response().unwrap().unwrap().body, vec![0; 4]);
        assert_eq!(reader.next_response().unwrap().unwrap().body, vec![1; 4]);
        assert_eq!(reader.next_response().unwrap(), None);
    }

    #[test]
    fn reports_an_announced_close() {
        let bytes = wire(&[
            (Response::bytes(200, vec![0; 4]), true),
            (Response::text(400, "bad\n"), false),
        ]);
        let mut reader = ResponseReader::new(Cursor::new(bytes));
        assert!(!reader.next_response().unwrap().unwrap().close);
        assert!(reader.next_response().unwrap().unwrap().close);
        assert_eq!(reader.next_response().unwrap(), None);
    }

    #[test]
    fn truncated_response_is_an_error() {
        let mut bytes = wire(&[(Response::bytes(200, vec![5; 16]), true)]);
        bytes.truncate(bytes.len() - 3);
        let mut reader = ResponseReader::new(Cursor::new(bytes));
        let err = reader.next_response().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn request_round_trips_through_the_gateway_parser() {
        use rapidnn::gateway::{HttpReader, Limits, ReadOutcome};
        let body = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let mut bytes = encode_request(
            "POST",
            "/models/m/infer",
            &[("content-type", "application/octet-stream")],
            &body,
        );
        bytes.extend(encode_request(
            "PUT",
            "/models/m",
            &[("x-optimize", "1")],
            &[0; 3],
        ));
        let mut reader = HttpReader::new(Cursor::new(bytes));
        let ReadOutcome::Request(first) = reader.next_request(Limits::default()) else {
            panic!("first request did not parse");
        };
        assert_eq!(
            (first.method.as_str(), first.path()),
            ("POST", "/models/m/infer")
        );
        assert_eq!(first.body, body);
        let ReadOutcome::Request(second) = reader.next_request(Limits::default()) else {
            panic!("second request did not parse");
        };
        assert_eq!(second.header("x-optimize"), Some("1"));
        assert!(matches!(
            reader.next_request(Limits::default()),
            ReadOutcome::Closed
        ));
    }
}
