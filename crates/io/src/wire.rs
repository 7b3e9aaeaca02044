//! `ocr-wire-v1` — the framed line protocol of the batch service's TCP
//! front-end.
//!
//! A connection opens with each side sending the magic line
//! `ocr-wire-v1\n`; after that, both directions speak length-prefixed,
//! checksummed frames:
//!
//! ```text
//! f <len> <fnv64hex>\n<payload bytes>\n
//! ```
//!
//! The header names the payload's byte length and its FNV-1a 64
//! checksum (16 hex digits); the payload follows verbatim — it may
//! contain newlines, so a submit frame can carry a whole `.ocr` chip —
//! and a final newline closes the frame. Client-to-server payloads are
//! requests ([`Request`]): `submit`, `ping`, `shutdown`. Server-to-
//! client payloads are responses ([`Response`]): `accepted`,
//! `rejected`, `error`, `pong`, `closing`.
//!
//! Like every `ocr-io` format this layer takes untrusted bytes: a
//! torn, oversized, or checksum-bad frame is a typed [`WireError`] —
//! never a panic — and the reader refuses to allocate for a length
//! field larger than its `max_frame` budget *before* reading the body,
//! so a hostile header cannot balloon memory.

use crate::job::{parse_jobs, JobSpec, JOBS_MAGIC};
use std::fmt;
use std::io::{Read, Write};

/// Magic line each side sends when a connection opens.
pub const WIRE_MAGIC: &str = "ocr-wire-v1";

/// Longest legal frame header line (`f <len> <sum>\n`), bounding what
/// the reader buffers before it can reject a malformed header.
pub const MAX_HEADER_BYTES: usize = 64;

/// Default cap on a frame's payload length.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// FNV-1a 64 over raw bytes: the checksum of a frame payload, and the
/// one implementation behind [`crate::ckpt::fnv1a_64`].
pub fn fnv1a_64_bytes(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A typed wire failure. Every malformed, torn, or oversized input
/// maps to one of these — the protocol layer never panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The transport failed (connection reset, injected fault, …).
    Io(
        /// The underlying error text.
        String,
    ),
    /// A read or write deadline expired.
    TimedOut,
    /// The stream ended in the middle of a frame (or its magic line).
    Torn(
        /// Where the tear was noticed.
        String,
    ),
    /// The first line was not `ocr-wire-v1`.
    BadMagic(
        /// What arrived instead (truncated).
        String,
    ),
    /// The frame header line is malformed.
    BadHeader(
        /// What is wrong with it.
        String,
    ),
    /// The header's length field exceeds the reader's budget.
    Oversized {
        /// Length the header claims.
        len: u64,
        /// The reader's cap.
        max: usize,
    },
    /// The payload does not match the header's checksum.
    ChecksumMismatch,
    /// The frame was well-formed but its payload is not a valid
    /// request or response.
    BadPayload(
        /// What is wrong with it.
        String,
    ),
}

impl WireError {
    /// A stable one-token kind, used in `error <kind> …` responses and
    /// log lines.
    pub fn kind(&self) -> &'static str {
        match self {
            WireError::Io(_) => "io",
            WireError::TimedOut => "timeout",
            WireError::Torn(_) => "torn",
            WireError::BadMagic(_) => "bad-magic",
            WireError::BadHeader(_) => "bad-header",
            WireError::Oversized { .. } => "oversized",
            WireError::ChecksumMismatch => "checksum",
            WireError::BadPayload(_) => "bad-payload",
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::TimedOut => write!(f, "deadline expired"),
            WireError::Torn(what) => write!(f, "torn frame: {what}"),
            WireError::BadMagic(got) => {
                write!(f, "not an {WIRE_MAGIC} peer (got `{got}`)")
            }
            WireError::BadHeader(what) => write!(f, "bad frame header: {what}"),
            WireError::Oversized { len, max } => {
                write!(f, "frame of {len} byte(s) exceeds the {max}-byte cap")
            }
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            WireError::BadPayload(what) => write!(f, "bad payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

fn io_error(e: std::io::Error, context: &str) -> WireError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => WireError::TimedOut,
        std::io::ErrorKind::UnexpectedEof => WireError::Torn(context.to_string()),
        _ => WireError::Io(e.to_string()),
    }
}

/// Renders one frame (header, payload, trailing newline) as bytes.
pub fn frame(payload: &str) -> Vec<u8> {
    let bytes = payload.as_bytes();
    let mut out = format!("f {} {:016x}\n", bytes.len(), fnv1a_64_bytes(bytes)).into_bytes();
    out.extend_from_slice(bytes);
    out.push(b'\n');
    out
}

/// Writes one frame to `w` (flushing), mapping transport failures to
/// typed errors.
pub fn write_frame(w: &mut dyn Write, payload: &str) -> Result<(), WireError> {
    w.write_all(&frame(payload))
        .and_then(|()| w.flush())
        .map_err(|e| io_error(e, "writing a frame"))
}

/// Writes the opening magic line.
pub fn write_magic(w: &mut dyn Write) -> Result<(), WireError> {
    w.write_all(WIRE_MAGIC.as_bytes())
        .and_then(|()| w.write_all(b"\n"))
        .and_then(|()| w.flush())
        .map_err(|e| io_error(e, "writing the magic line"))
}

/// Reads one `\n`-terminated line of at most `max` bytes (newline
/// excluded from the result). `Ok(None)` on clean EOF before the first
/// byte; a tear or an overlong line is a typed error.
fn read_line_bounded(
    r: &mut dyn Read,
    max: usize,
    context: &str,
) -> Result<Option<Vec<u8>>, WireError> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(WireError::Torn(format!("eof in {context}")));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    return Ok(Some(line));
                }
                line.push(byte[0]);
                if line.len() > max {
                    return Err(WireError::BadHeader(format!(
                        "{context} exceeds {max} byte(s)"
                    )));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_error(e, context)),
        }
    }
}

/// Reads and checks the peer's opening magic line.
pub fn read_magic(r: &mut dyn Read) -> Result<(), WireError> {
    match read_line_bounded(r, MAX_HEADER_BYTES, "the magic line")? {
        None => Err(WireError::Torn("eof before the magic line".to_string())),
        Some(line) if line == WIRE_MAGIC.as_bytes() => Ok(()),
        Some(line) => {
            let got: String = String::from_utf8_lossy(&line).chars().take(24).collect();
            Err(WireError::BadMagic(got))
        }
    }
}

/// Reads one frame: `Ok(None)` on a clean EOF between frames,
/// `Ok(Some(payload))` on a verified frame, a typed [`WireError`] on
/// anything torn, oversized, checksum-bad, or malformed. The header is
/// validated — and its length field checked against `max_frame` —
/// before a single payload byte is read or allocated.
pub fn read_frame(r: &mut dyn Read, max_frame: usize) -> Result<Option<String>, WireError> {
    let header = match read_line_bounded(r, MAX_HEADER_BYTES, "the frame header")? {
        None => return Ok(None),
        Some(line) => line,
    };
    let header =
        std::str::from_utf8(&header).map_err(|_| WireError::BadHeader("not UTF-8".to_string()))?;
    let rest = header
        .strip_prefix("f ")
        .ok_or_else(|| WireError::BadHeader("not a frame line".to_string()))?;
    let (len_token, sum_token) = rest
        .split_once(' ')
        .ok_or_else(|| WireError::BadHeader("missing checksum".to_string()))?;
    let len: u64 = len_token
        .parse()
        .map_err(|e| WireError::BadHeader(format!("bad payload length: {e}")))?;
    let sum = u64::from_str_radix(sum_token, 16)
        .map_err(|e| WireError::BadHeader(format!("bad checksum: {e}")))?;
    if sum_token.len() != 16 {
        return Err(WireError::BadHeader(
            "checksum is not 16 hex digits".to_string(),
        ));
    }
    if len > max_frame as u64 {
        return Err(WireError::Oversized {
            len,
            max: max_frame,
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|e| io_error(e, "the frame payload"))?;
    let mut newline = [0u8; 1];
    r.read_exact(&mut newline)
        .map_err(|e| io_error(e, "the frame terminator"))?;
    if newline[0] != b'\n' {
        return Err(WireError::BadHeader(
            "payload not followed by a newline (length mismatch)".to_string(),
        ));
    }
    if fnv1a_64_bytes(&payload) != sum {
        return Err(WireError::ChecksumMismatch);
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| WireError::BadPayload("payload is not UTF-8".to_string()))
}

/// A client-to-server request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Submit one job: the spec (its `chip` field is a placeholder the
    /// server replaces with the staged chip file) plus the chip text.
    Submit(
        /// The submitted spec.
        JobSpec,
        /// The `.ocr` chip text that travelled inline.
        String,
    ),
    /// Liveness probe.
    Ping,
    /// Ask the service to stop accepting work, drain, and exit.
    Shutdown,
}

/// Renders a submit request payload: the job line (reusing the
/// `ocr-jobs-v1` option grammar, minus the chip path) followed by the
/// chip text.
pub fn submit_payload(spec: &JobSpec, chip_text: &str) -> String {
    let mut head = format!("submit {}", spec.name);
    if spec.flow != "overcell" {
        head.push_str(&format!(" flow {}", spec.flow));
    }
    if let Some(order) = &spec.order {
        head.push_str(&format!(" order {order}"));
    }
    if spec.priority != 0 {
        head.push_str(&format!(" priority {}", spec.priority));
    }
    if let Some(steps) = spec.max_steps {
        head.push_str(&format!(" max-steps {steps}"));
    }
    if spec.salvage {
        head.push_str(" salvage");
    }
    if spec.verify {
        head.push_str(" verify");
    }
    if let Some(tenant) = &spec.tenant {
        head.push_str(&format!(" tenant {tenant}"));
    }
    format!("{head}\n{chip_text}")
}

/// Parses a request payload. The submit job line is validated by the
/// `ocr-jobs-v1` parser itself (same names, same options, same
/// duplicate-option rejection), so the wire cannot smuggle a spec the
/// manifest format would refuse.
pub fn parse_request(payload: &str) -> Result<Request, WireError> {
    let (head, body) = match payload.split_once('\n') {
        Some((head, body)) => (head, Some(body)),
        None => (payload, None),
    };
    let mut tokens = head.split_whitespace();
    match tokens.next() {
        Some("ping") => Ok(Request::Ping),
        Some("shutdown") => Ok(Request::Shutdown),
        Some("submit") => {
            let name = tokens
                .next()
                .ok_or_else(|| WireError::BadPayload("submit: missing job name".to_string()))?;
            let rest: Vec<&str> = tokens.collect();
            let doc = format!("{JOBS_MAGIC}\njob {name} - {}\n", rest.join(" "));
            let mut specs = parse_jobs(&doc)
                .map_err(|e| WireError::BadPayload(format!("submit: {}", e.message)))?;
            let spec = match specs.pop() {
                Some(spec) => spec,
                None => return Err(WireError::BadPayload("submit: no job parsed".to_string())),
            };
            let chip = body.unwrap_or("");
            if chip.trim().is_empty() {
                return Err(WireError::BadPayload(
                    "submit: missing chip text after the job line".to_string(),
                ));
            }
            Ok(Request::Submit(spec, chip.to_string()))
        }
        Some(other) => Err(WireError::BadPayload(format!(
            "unknown request `{}`",
            other.chars().take(24).collect::<String>()
        ))),
        None => Err(WireError::BadPayload("empty request".to_string())),
    }
}

/// Why a submission was shed at admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's token bucket is empty.
    Quota,
    /// The intake queue is full or the global step budget is drained.
    Overload,
    /// The service is shutting down.
    Closed,
}

impl RejectReason {
    /// The one-token spelling used on the wire.
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::Quota => "quota",
            RejectReason::Overload => "overload",
            RejectReason::Closed => "closed",
        }
    }

    /// Parses the wire spelling (inverse of [`RejectReason::name`]).
    pub fn from_name(name: &str) -> Option<RejectReason> {
        match name {
            "quota" => Some(RejectReason::Quota),
            "overload" => Some(RejectReason::Overload),
            "closed" => Some(RejectReason::Closed),
            _ => None,
        }
    }
}

/// A server-to-client response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The job is durably accepted (journaled and fsynced when the
    /// service keeps a journal); its answer lands under `out/<name>/`.
    Accepted(
        /// The job's name.
        String,
    ),
    /// The submission was shed at admission with a typed reason; retry
    /// no sooner than `retry_after_ms`.
    Rejected {
        /// The job's name (`-` when it never parsed far enough).
        name: String,
        /// Why it was shed.
        reason: RejectReason,
        /// Suggested back-off in milliseconds.
        retry_after_ms: u64,
        /// Free-text detail; empty when there is nothing to add.
        detail: String,
    },
    /// A protocol-level error (the connection closes after most).
    Error {
        /// The [`WireError::kind`] token.
        kind: String,
        /// Free-text detail.
        detail: String,
    },
    /// Answer to `ping`.
    Pong,
    /// Answer to `shutdown`: the service is draining.
    Closing,
}

/// One-line free text: control characters collapse to spaces so a
/// detail can never masquerade as protocol structure.
fn one_line(text: &str) -> String {
    text.chars()
        .map(|c| if c.is_control() { ' ' } else { c })
        .collect()
}

/// Renders a response payload.
pub fn response_payload(response: &Response) -> String {
    match response {
        Response::Accepted(name) => format!("accepted {name}"),
        Response::Rejected {
            name,
            reason,
            retry_after_ms,
            detail,
        } => {
            let name = if name.is_empty() { "-" } else { name };
            let mut line = format!(
                "rejected {name} {} retry-after {retry_after_ms}",
                reason.name()
            );
            if !detail.is_empty() {
                line.push_str(&format!(" detail {}", one_line(detail)));
            }
            line
        }
        Response::Error { kind, detail } => {
            let mut line = format!("error {kind}");
            if !detail.is_empty() {
                line.push_str(&format!(" detail {}", one_line(detail)));
            }
            line
        }
        Response::Pong => "pong".to_string(),
        Response::Closing => "closing".to_string(),
    }
}

/// The payload text after its first `n` whitespace-separated tokens.
fn after_tokens(payload: &str, n: usize) -> Option<&str> {
    let mut rest = payload.trim_start();
    for _ in 0..n {
        let idx = rest.find(char::is_whitespace)?;
        rest = rest[idx..].trim_start();
    }
    Some(rest)
}

/// Parses a response payload (the client half of the protocol).
pub fn parse_response(payload: &str) -> Result<Response, WireError> {
    let mut tokens = payload.split_whitespace();
    match tokens.next() {
        Some("pong") => Ok(Response::Pong),
        Some("closing") => Ok(Response::Closing),
        Some("accepted") => {
            let name = tokens
                .next()
                .ok_or_else(|| WireError::BadPayload("accepted: missing name".to_string()))?;
            Ok(Response::Accepted(name.to_string()))
        }
        Some("rejected") => {
            let name = tokens
                .next()
                .ok_or_else(|| WireError::BadPayload("rejected: missing name".to_string()))?;
            let reason = tokens
                .next()
                .and_then(RejectReason::from_name)
                .ok_or_else(|| WireError::BadPayload("rejected: bad reason".to_string()))?;
            match tokens.next() {
                Some("retry-after") => {}
                _ => {
                    return Err(WireError::BadPayload(
                        "rejected: missing retry-after".to_string(),
                    ))
                }
            }
            let retry_after_ms: u64 = tokens
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| WireError::BadPayload("rejected: bad retry-after".to_string()))?;
            let detail = match tokens.next() {
                Some("detail") => after_tokens(payload, 6).unwrap_or("").to_string(),
                Some(other) => {
                    return Err(WireError::BadPayload(format!(
                        "rejected: unexpected field `{other}`"
                    )))
                }
                None => String::new(),
            };
            Ok(Response::Rejected {
                name: name.to_string(),
                reason,
                retry_after_ms,
                detail,
            })
        }
        Some("error") => {
            let kind = tokens
                .next()
                .ok_or_else(|| WireError::BadPayload("error: missing kind".to_string()))?;
            let detail = match tokens.next() {
                Some("detail") => after_tokens(payload, 3).unwrap_or("").to_string(),
                Some(other) => {
                    return Err(WireError::BadPayload(format!(
                        "error: unexpected field `{other}`"
                    )))
                }
                None => String::new(),
            };
            Ok(Response::Error {
                kind: kind.to_string(),
                detail: detail.to_string(),
            })
        }
        Some(other) => Err(WireError::BadPayload(format!(
            "unknown response `{}`",
            other.chars().take(24).collect::<String>()
        ))),
        None => Err(WireError::BadPayload("empty response".to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_including_multiline_payloads() {
        for payload in ["ping", "submit alpha\ndie 0 0 10 10\nnet a\n", ""] {
            let bytes = frame(payload);
            let mut r = Cursor::new(bytes);
            let got = read_frame(&mut r, DEFAULT_MAX_FRAME).expect("reads");
            assert_eq!(got.as_deref(), Some(payload));
            assert!(read_frame(&mut r, DEFAULT_MAX_FRAME)
                .expect("clean eof")
                .is_none());
        }
    }

    #[test]
    fn checksum_matches_the_str_fnv() {
        // The byte-wise FNV must agree with ocr-io's string FNV so the
        // two framings (journal, wire) hash identical text identically.
        for text in ["", "abc", "submit alpha\nchip"] {
            assert_eq!(fnv1a_64_bytes(text.as_bytes()), crate::ckpt::fnv1a_64(text));
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let bytes = b"f 184467440737095516 0000000000000000\n";
        let err = read_frame(&mut Cursor::new(&bytes[..]), 1024).unwrap_err();
        assert!(
            matches!(err, WireError::Oversized { max: 1024, .. }),
            "{err}"
        );
        let bytes = b"f 99999999999999999999999 0000000000000000\n";
        let err = read_frame(&mut Cursor::new(&bytes[..]), 1024).unwrap_err();
        assert!(matches!(err, WireError::BadHeader(_)), "{err}");
    }

    #[test]
    fn corrupted_payload_is_a_checksum_mismatch() {
        let mut bytes = frame("submit alpha\nchip text");
        let n = bytes.len();
        bytes[n - 5] ^= 0x20;
        let err = read_frame(&mut Cursor::new(bytes), DEFAULT_MAX_FRAME).unwrap_err();
        assert_eq!(err, WireError::ChecksumMismatch);
    }

    #[test]
    fn magic_round_trips_and_rejects_strangers() {
        let mut buf = Vec::new();
        write_magic(&mut buf).expect("writes");
        read_magic(&mut Cursor::new(buf)).expect("accepts");
        let err = read_magic(&mut Cursor::new(b"ocr-jobs-v1\n".to_vec())).unwrap_err();
        assert!(matches!(err, WireError::BadMagic(_)), "{err}");
        let err = read_magic(&mut Cursor::new(Vec::new())).unwrap_err();
        assert!(matches!(err, WireError::Torn(_)), "{err}");
    }

    #[test]
    fn submit_payload_round_trips_every_option() {
        let mut spec = JobSpec::new("alpha", "-");
        spec.flow = "channel2".into();
        spec.order = None;
        spec.priority = -2;
        spec.max_steps = Some(500);
        spec.salvage = true;
        spec.verify = true;
        spec.tenant = Some("acme".into());
        let payload = submit_payload(&spec, "die 0 0 10 10\n");
        match parse_request(&payload).expect("parses") {
            Request::Submit(parsed, chip) => {
                assert_eq!(parsed, spec);
                assert_eq!(chip, "die 0 0 10 10\n");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_requests_are_typed_errors() {
        for (payload, needle) in [
            ("", "empty request"),
            ("vacuum now", "unknown request"),
            ("submit", "missing job name"),
            ("submit .dot\nchip", "bad job name"),
            ("submit a turbo on\nchip", "unknown job option"),
            ("submit a\n", "missing chip text"),
            ("submit a priority x\nchip", "bad priority"),
            ("submit a tenant\nchip", "tenant: missing value"),
        ] {
            let err = parse_request(payload).expect_err(payload);
            assert!(matches!(err, WireError::BadPayload(_)), "{payload:?}");
            assert!(err.to_string().contains(needle), "{payload:?} -> {err}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = [
            Response::Accepted("alpha".into()),
            Response::Rejected {
                name: "beta".into(),
                reason: RejectReason::Quota,
                retry_after_ms: 250,
                detail: "tenant acme out of tokens".into(),
            },
            Response::Rejected {
                name: "-".into(),
                reason: RejectReason::Overload,
                retry_after_ms: 1000,
                detail: String::new(),
            },
            Response::Error {
                kind: "checksum".into(),
                detail: "frame checksum mismatch".into(),
            },
            Response::Pong,
            Response::Closing,
        ];
        for response in cases {
            let payload = response_payload(&response);
            let parsed = parse_response(&payload).unwrap_or_else(|e| panic!("{payload}: {e}"));
            assert_eq!(parsed, response, "{payload}");
        }
    }

    #[test]
    fn response_details_are_collapsed_to_one_line() {
        let payload = response_payload(&Response::Error {
            kind: "io".into(),
            detail: "two\nlines".into(),
        });
        assert_eq!(payload.matches('\n').count(), 0);
        match parse_response(&payload).expect("parses") {
            Response::Error { detail, .. } => assert_eq!(detail, "two lines"),
            other => panic!("{other:?}"),
        }
    }
}
