//! Minimal HTTP/1.1 for the provider agent's local REST API.
//!
//! The paper's agent "exposes REST APIs for resource advertisement, workload
//! lifecycle management, and emergency controls" — the kill-switch is an
//! HTTP endpoint the provider hits from their own machine. This module
//! implements the small, strict subset needed: request parsing with
//! Content-Length bodies, response serialization, and nothing else (no
//! chunked encoding, no keep-alive negotiation — connections are one-shot,
//! which is also how the agent treats them).

use std::fmt;

/// Supported methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Read state.
    Get,
    /// Mutate state.
    Post,
    /// Remove / terminate.
    Delete,
}

impl Method {
    fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }

    /// Canonical token.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Delete => "DELETE",
        }
    }
}

/// HTTP parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Request line malformed.
    BadRequestLine,
    /// Method not one of GET/POST/DELETE.
    UnsupportedMethod,
    /// HTTP version not 1.0/1.1.
    UnsupportedVersion,
    /// Header line without a colon.
    BadHeader,
    /// Content-Length not a number or too large.
    BadContentLength,
    /// The buffer does not yet hold a complete request.
    Incomplete,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HttpError::BadRequestLine => "malformed request line",
            HttpError::UnsupportedMethod => "unsupported method",
            HttpError::UnsupportedVersion => "unsupported HTTP version",
            HttpError::BadHeader => "malformed header",
            HttpError::BadContentLength => "bad Content-Length",
            HttpError::Incomplete => "incomplete request",
        };
        f.write_str(s)
    }
}

impl std::error::Error for HttpError {}

/// Maximum accepted body (the API carries small JSON-ish payloads).
const MAX_BODY: usize = 1 << 20;

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpRequest {
    /// Method.
    pub method: Method,
    /// Path with query string stripped.
    pub path: String,
    /// Raw query string ("" when absent).
    pub query: String,
    /// Headers, lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Convenience constructor for tests and clients.
    pub fn new(method: Method, path: impl Into<String>) -> Self {
        let full: String = path.into();
        let (path, query) = match full.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (full, String::new()),
        };
        HttpRequest {
            method,
            path,
            query,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Attach a body (sets no headers; serialization adds Content-Length).
    pub fn with_body(mut self, body: impl Into<Vec<u8>>) -> Self {
        self.body = body.into();
        self
    }

    /// First header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// Parse one complete request from `buf`. Returns the request and the
    /// number of bytes consumed, or [`HttpError::Incomplete`] if more input
    /// is needed.
    pub fn parse(buf: &[u8]) -> Result<(HttpRequest, usize), HttpError> {
        let head_end = find_head_end(buf).ok_or(HttpError::Incomplete)?;
        let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| HttpError::BadRequestLine)?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().ok_or(HttpError::BadRequestLine)?;
        let mut parts = request_line.split(' ');
        let method = parts
            .next()
            .and_then(Method::parse)
            .ok_or(HttpError::UnsupportedMethod)?;
        let target = parts.next().ok_or(HttpError::BadRequestLine)?;
        let version = parts.next().ok_or(HttpError::BadRequestLine)?;
        if parts.next().is_some() {
            return Err(HttpError::BadRequestLine);
        }
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(HttpError::UnsupportedVersion);
        }
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line.split_once(':').ok_or(HttpError::BadHeader)?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let content_length = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .map(|(_, v)| v.parse::<usize>().map_err(|_| HttpError::BadContentLength))
            .transpose()?
            .unwrap_or(0);
        if content_length > MAX_BODY {
            return Err(HttpError::BadContentLength);
        }
        let body_start = head_end + 4;
        if buf.len() < body_start + content_length {
            return Err(HttpError::Incomplete);
        }
        let body = buf[body_start..body_start + content_length].to_vec();
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (target.to_string(), String::new()),
        };
        Ok((
            HttpRequest {
                method,
                path,
                query,
                headers,
                body,
            },
            body_start + content_length,
        ))
    }

    /// Serialize for sending (client side / tests).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let target = if self.query.is_empty() {
            self.path.clone()
        } else {
            format!("{}?{}", self.path, self.query)
        };
        out.extend_from_slice(
            format!("{} {} HTTP/1.1\r\n", self.method.as_str(), target).as_bytes(),
        );
        for (n, v) in &self.headers {
            out.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
        }
        out.extend_from_slice(format!("content-length: {}\r\n\r\n", self.body.len()).as_bytes());
        out.extend_from_slice(&self.body);
        out
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A response under construction.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// Body.
    pub body: Vec<u8>,
    /// Content type.
    pub content_type: &'static str,
}

impl HttpResponse {
    /// 200 with a JSON body.
    pub fn ok_json(body: impl Into<Vec<u8>>) -> Self {
        HttpResponse {
            status: 200,
            reason: "OK",
            body: body.into(),
            content_type: "application/json",
        }
    }

    /// 202 Accepted (async action started, e.g. graceful departure).
    pub fn accepted(body: impl Into<Vec<u8>>) -> Self {
        HttpResponse {
            status: 202,
            reason: "Accepted",
            body: body.into(),
            content_type: "application/json",
        }
    }

    /// 400 with a plain-text explanation.
    pub fn bad_request(msg: &str) -> Self {
        HttpResponse {
            status: 400,
            reason: "Bad Request",
            body: msg.as_bytes().to_vec(),
            content_type: "text/plain",
        }
    }

    /// 404.
    pub fn not_found() -> Self {
        HttpResponse {
            status: 404,
            reason: "Not Found",
            body: b"not found".to_vec(),
            content_type: "text/plain",
        }
    }

    /// 409 Conflict (e.g. operation invalid in the current state).
    pub fn conflict(msg: &str) -> Self {
        HttpResponse {
            status: 409,
            reason: "Conflict",
            body: msg.as_bytes().to_vec(),
            content_type: "text/plain",
        }
    }

    /// Serialize with headers.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(format!("HTTP/1.1 {} {}\r\n", self.status, self.reason).as_bytes());
        out.extend_from_slice(format!("content-type: {}\r\n", self.content_type).as_bytes());
        out.extend_from_slice(format!("content-length: {}\r\n", self.body.len()).as_bytes());
        out.extend_from_slice(b"connection: close\r\n\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_get_with_query() {
        let raw = b"GET /status?verbose=1 HTTP/1.1\r\nHost: localhost\r\n\r\n";
        let (req, consumed) = HttpRequest::parse(raw).unwrap();
        assert_eq!(consumed, raw.len());
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/status");
        assert_eq!(req.query, "verbose=1");
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("HOST"), Some("localhost"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parse_post_with_body() {
        let raw = b"POST /kill HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"job\": 42}";
        let (req, consumed) = HttpRequest::parse(raw).unwrap();
        assert_eq!(consumed, raw.len());
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"{\"job\": 42}");
    }

    #[test]
    fn incomplete_header_and_body() {
        assert_eq!(
            HttpRequest::parse(b"GET /x HTTP/1.1\r\nHost:").unwrap_err(),
            HttpError::Incomplete
        );
        assert_eq!(
            HttpRequest::parse(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nab").unwrap_err(),
            HttpError::Incomplete
        );
    }

    #[test]
    fn pipelined_requests_consume_correctly() {
        let mut raw = Vec::new();
        raw.extend_from_slice(b"GET /a HTTP/1.1\r\n\r\n");
        raw.extend_from_slice(b"GET /b HTTP/1.1\r\n\r\n");
        let (r1, c1) = HttpRequest::parse(&raw).unwrap();
        assert_eq!(r1.path, "/a");
        let (r2, c2) = HttpRequest::parse(&raw[c1..]).unwrap();
        assert_eq!(r2.path, "/b");
        assert_eq!(c1 + c2, raw.len());
    }

    #[test]
    fn bad_inputs_rejected() {
        assert_eq!(
            HttpRequest::parse(b"PATCH /x HTTP/1.1\r\n\r\n").unwrap_err(),
            HttpError::UnsupportedMethod
        );
        assert_eq!(
            HttpRequest::parse(b"GET /x HTTP/2\r\n\r\n").unwrap_err(),
            HttpError::UnsupportedVersion
        );
        assert_eq!(
            HttpRequest::parse(b"GET /x HTTP/1.1\r\nBadHeader\r\n\r\n").unwrap_err(),
            HttpError::BadHeader
        );
        assert_eq!(
            HttpRequest::parse(b"POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n").unwrap_err(),
            HttpError::BadContentLength
        );
        assert_eq!(
            HttpRequest::parse(b"GET\r\n\r\n").unwrap_err(),
            HttpError::BadRequestLine
        );
    }

    #[test]
    fn request_serialization_parses_back() {
        let req = HttpRequest::new(Method::Post, "/depart?mode=graceful").with_body("{}");
        let bytes = req.to_bytes();
        let (parsed, consumed) = HttpRequest::parse(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(parsed.method, Method::Post);
        assert_eq!(parsed.path, "/depart");
        assert_eq!(parsed.query, "mode=graceful");
        assert_eq!(parsed.body, b"{}");
    }

    #[test]
    fn response_serialization() {
        let resp = HttpResponse::ok_json(r#"{"status":"active"}"#);
        let bytes = resp.to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 19"));
        assert!(text.ends_with(r#"{"status":"active"}"#));
    }

    #[test]
    fn response_constructors() {
        assert_eq!(HttpResponse::not_found().status, 404);
        assert_eq!(HttpResponse::bad_request("x").status, 400);
        assert_eq!(HttpResponse::conflict("x").status, 409);
        assert_eq!(HttpResponse::accepted("{}").status, 202);
    }

    #[test]
    fn oversized_content_length_rejected() {
        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 2 << 20);
        assert_eq!(
            HttpRequest::parse(raw.as_bytes()).unwrap_err(),
            HttpError::BadContentLength
        );
    }
}
