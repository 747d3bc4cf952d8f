//! The wire protocol of the masking service (DESIGN.md §10).
//!
//! Every message — request and response — is one *frame*: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 JSON.
//! The length prefix makes message boundaries explicit on a byte
//! stream, so a reader always knows whether it is mid-frame (and can
//! classify a dropped connection as [`FrameError::Truncated`]) or at a
//! boundary (clean EOF). A declared length above the reader's cap is
//! rejected *before* any allocation — an adversarial 4 GiB prefix costs
//! the server four bytes of reading, not an allocation.
//!
//! Requests are JSON objects dispatched on a `verb` field:
//!
//! ```json
//! {"verb": "spcf", "blif": "...", "algorithm": "short-path",
//!  "targets": [0.95, 0.85], "relative": true}
//! {"verb": "mask", "blif": "..."}
//! {"verb": "stats"}
//! {"verb": "trace", "limit": 2000}
//! {"verb": "shutdown"}
//! ```
//!
//! Responses are one or more frames typed by a `type` field:
//! `report` (one per ladder point, streamed in request order), `done`
//! (terminates a successful `spcf` ladder), `mask_report`, `stats`,
//! `trace` (a Chrome-trace-event export of the flight recorder),
//! `shutdown` (acknowledges a drain request), and
//! `error` with a typed `code` (`parse`, `invalid`, `unsupported`,
//! `exhausted`, `overloaded`, `protocol`, `timeout`, `internal`).
//! Malformed *payloads* keep the connection open (the frame boundary is
//! still known); malformed *framing* closes it.

use std::io::{Read, Write};
use tm_resilience::{TmError, TmErrorKind};
use tm_spcf::Algorithm;
use tm_testkit::json::Json;

/// Default cap on a frame's declared payload length (4 MiB — a BLIF
/// netlist far larger than anything the engines can analyze online).
pub const DEFAULT_MAX_FRAME: u32 = 4 << 20;

/// Longest Δ_y ladder accepted in one request.
pub const MAX_LADDER: usize = 64;

/// Why a frame could not be read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The peer disconnected mid-frame (inside the length prefix or the
    /// payload).
    Truncated,
    /// The declared payload length exceeds the reader's cap.
    TooLarge {
        /// Length the prefix declared.
        declared: u32,
        /// The reader's cap.
        max: u32,
    },
    /// A zero-length frame (carries no request; the stream is suspect).
    Empty,
    /// Any other I/O failure; read timeouts surface as
    /// `WouldBlock`/`TimedOut` here.
    Io(std::io::ErrorKind),
}

impl FrameError {
    /// Whether this error is a read timeout rather than a broken peer.
    pub fn is_timeout(self) -> bool {
        matches!(
            self,
            FrameError::Io(std::io::ErrorKind::WouldBlock)
                | FrameError::Io(std::io::ErrorKind::TimedOut)
        )
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "connection dropped mid-frame"),
            FrameError::TooLarge { declared, max } => {
                write!(f, "declared frame length {declared} exceeds cap {max}")
            }
            FrameError::Empty => write!(f, "empty frame"),
            FrameError::Io(kind) => write!(f, "i/o failure reading frame: {kind}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Reads one frame. `Ok(None)` is a clean EOF at a frame boundary;
/// `Ok(Some(payload))` is a complete frame. Never allocates more than
/// `max` bytes.
pub fn read_frame(r: &mut impl Read, max: u32) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e.kind())),
        }
    }
    let declared = u32::from_be_bytes(prefix);
    if declared == 0 {
        return Err(FrameError::Empty);
    }
    if declared > max {
        return Err(FrameError::TooLarge { declared, max });
    }
    let mut payload = vec![0u8; declared as usize];
    let mut got = 0;
    while got < payload.len() {
        match r.read(&mut payload[got..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e.kind())),
        }
    }
    Ok(Some(payload))
}

/// Writes one frame (length prefix + payload) and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame payload exceeds u32")
    })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// A parsed request, dispatched on the JSON `verb`.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Evaluate the SPCF of every critical output across a Δ_y ladder.
    Spcf {
        /// BLIF source of the circuit.
        blif: String,
        /// Requested engine (the load ladder may degrade it).
        algorithm: Algorithm,
        /// Target ladder, in request order.
        targets: Vec<f64>,
        /// When true, each target is a fraction of the circuit's Δ.
        relative: bool,
    },
    /// Run the full masking synthesis + verification flow.
    Mask {
        /// BLIF source of the circuit.
        blif: String,
    },
    /// Return the server's telemetry snapshot and pool statistics.
    Stats,
    /// Export the flight recorder as Chrome trace-event JSON.
    Trace {
        /// Cap on exported events (newest kept); `None` uses the
        /// server default.
        limit: Option<usize>,
    },
    /// Ask the daemon to drain: stop accepting, finish in-flight work
    /// within the grace window, flush a final stats snapshot, exit.
    /// (std-only daemons cannot catch signals, so drain is a verb.)
    Shutdown,
}

/// Parses an algorithm name as accepted on the wire (the `Display`
/// forms plus common short spellings).
pub fn parse_algorithm(name: &str) -> Option<Algorithm> {
    match name {
        "short-path" | "short_path" | "short-path-based" | "exact" => Some(Algorithm::ShortPath),
        "path-based" | "path_based" => Some(Algorithm::PathBased),
        "node-based" | "node_based" => Some(Algorithm::NodeBased),
        "conservative" => Some(Algorithm::Conservative),
        _ => None,
    }
}

impl Request {
    /// Parses a frame payload into a request. Every failure is a typed
    /// [`TmError`] the server renders as an `error` frame — adversarial
    /// payloads must never panic or hang.
    pub fn parse(payload: &[u8]) -> Result<Request, TmError> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| TmError::parse(0, format!("payload is not UTF-8: {e}")))?;
        let json = Json::parse(text)
            .map_err(|e| TmError::parse(0, format!("payload is not JSON: {e}")))?;
        let verb = json
            .get("verb")
            .and_then(Json::as_str)
            .ok_or_else(|| TmError::invalid_input("request is missing a string `verb`"))?;
        match verb {
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "trace" => {
                let limit = match json.get("limit") {
                    None | Some(Json::Null) => None,
                    Some(j) => {
                        let v = j.as_num().ok_or_else(|| {
                            TmError::invalid_input("`limit` must be a number")
                        })?;
                        if !v.is_finite() || v < 1.0 || v.fract() != 0.0 {
                            return Err(TmError::invalid_input(format!(
                                "`limit` must be a positive integer, got {v}"
                            )));
                        }
                        Some(v as usize)
                    }
                };
                Ok(Request::Trace { limit })
            }
            "mask" => Ok(Request::Mask { blif: required_blif(&json)? }),
            "spcf" => {
                let blif = required_blif(&json)?;
                let algorithm = match json.get("algorithm") {
                    None => Algorithm::ShortPath,
                    Some(j) => {
                        let name = j.as_str().ok_or_else(|| {
                            TmError::invalid_input("`algorithm` must be a string")
                        })?;
                        parse_algorithm(name).ok_or_else(|| {
                            TmError::unsupported(format!("unknown algorithm `{name}`"))
                        })?
                    }
                };
                let relative = match json.get("relative") {
                    None => false,
                    Some(Json::Bool(b)) => *b,
                    Some(_) => {
                        return Err(TmError::invalid_input("`relative` must be a boolean"))
                    }
                };
                let raw = json
                    .get("targets")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| TmError::invalid_input("`targets` must be an array"))?;
                if raw.is_empty() {
                    return Err(TmError::invalid_input("`targets` must not be empty"));
                }
                if raw.len() > MAX_LADDER {
                    return Err(TmError::invalid_input(format!(
                        "`targets` has {} points; the ladder cap is {MAX_LADDER}",
                        raw.len()
                    )));
                }
                let mut targets = Vec::with_capacity(raw.len());
                for t in raw {
                    let v = t.as_num().ok_or_else(|| {
                        TmError::invalid_input("`targets` entries must be numbers")
                    })?;
                    if !v.is_finite() || v <= 0.0 {
                        return Err(TmError::invalid_input(format!(
                            "target {v} is not a finite positive delay"
                        )));
                    }
                    if relative && v > 1.0 {
                        return Err(TmError::invalid_input(format!(
                            "relative target {v} exceeds 1.0 (the critical path)"
                        )));
                    }
                    targets.push(v);
                }
                Ok(Request::Spcf { blif, algorithm, targets, relative })
            }
            other => Err(TmError::unsupported(format!("unknown verb `{other}`"))),
        }
    }
}

fn required_blif(json: &Json) -> Result<String, TmError> {
    json.get("blif")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| TmError::invalid_input("request is missing a string `blif`"))
}

/// The wire code of a typed error.
pub fn error_code(err: &TmError) -> &'static str {
    match err.kind() {
        TmErrorKind::Exhausted(_) => "exhausted",
        TmErrorKind::Parse { .. } => "parse",
        TmErrorKind::InvalidInput(_) => "invalid",
        TmErrorKind::Unsupported(_) => "unsupported",
    }
}

/// Renders an `error` frame payload from a code and message.
pub fn error_frame(code: &str, message: impl Into<String>) -> String {
    Json::obj([
        ("type", Json::str("error")),
        ("code", Json::str(code)),
        ("message", Json::str(message)),
    ])
    .render()
}

/// Renders an `error` frame payload from a typed error.
pub fn error_frame_for(err: &TmError) -> String {
    error_frame(error_code(err), err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"verb\":\"stats\"}").expect("write");
        write_frame(&mut buf, b"x").expect("write");
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).expect("frame 1"),
            Some(b"{\"verb\":\"stats\"}".to_vec())
        );
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).expect("frame 2"), Some(b"x".to_vec()));
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).expect("eof"), None, "clean EOF");
    }

    #[test]
    fn truncation_oversize_and_empty_are_typed() {
        // EOF inside the length prefix.
        let mut r: &[u8] = &[0, 0];
        assert_eq!(read_frame(&mut r, 64), Err(FrameError::Truncated));
        // EOF inside the payload.
        let mut r: &[u8] = &[0, 0, 0, 5, b'a', b'b'];
        assert_eq!(read_frame(&mut r, 64), Err(FrameError::Truncated));
        // Declared length above the cap: rejected before allocating.
        let mut r: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF];
        assert_eq!(
            read_frame(&mut r, 64),
            Err(FrameError::TooLarge { declared: u32::MAX, max: 64 })
        );
        // Zero-length frame.
        let mut r: &[u8] = &[0, 0, 0, 0];
        assert_eq!(read_frame(&mut r, 64), Err(FrameError::Empty));
    }

    #[test]
    fn parses_the_three_verbs() {
        let req = Request::parse(
            br#"{"verb":"spcf","blif":".model m\n.end\n","algorithm":"node-based",
                "targets":[0.95,0.85],"relative":true}"#,
        )
        .expect("spcf parses");
        assert_eq!(
            req,
            Request::Spcf {
                blif: ".model m\n.end\n".to_string(),
                algorithm: Algorithm::NodeBased,
                targets: vec![0.95, 0.85],
                relative: true,
            }
        );
        assert_eq!(Request::parse(br#"{"verb":"stats"}"#).expect("stats"), Request::Stats);
        assert!(matches!(
            Request::parse(br#"{"verb":"mask","blif":"x"}"#).expect("mask"),
            Request::Mask { .. }
        ));
        assert_eq!(
            Request::parse(br#"{"verb":"shutdown"}"#).expect("shutdown"),
            Request::Shutdown
        );
    }

    #[test]
    fn parses_the_trace_verb() {
        assert_eq!(
            Request::parse(br#"{"verb":"trace"}"#).expect("bare trace"),
            Request::Trace { limit: None }
        );
        assert_eq!(
            Request::parse(br#"{"verb":"trace","limit":500}"#).expect("with limit"),
            Request::Trace { limit: Some(500) }
        );
        for bad in [
            &br#"{"verb":"trace","limit":"many"}"#[..],
            br#"{"verb":"trace","limit":0}"#,
            br#"{"verb":"trace","limit":-3}"#,
            br#"{"verb":"trace","limit":1.5}"#,
        ] {
            let err = Request::parse(bad).expect_err("bad limit must fail");
            assert_eq!(error_code(&err), "invalid", "{}", String::from_utf8_lossy(bad));
        }
    }

    #[test]
    fn rejects_malformed_requests_with_typed_errors() {
        let cases: &[(&[u8], &str)] = &[
            (b"\xFF\xFE", "parse"),                                   // not UTF-8
            (b"{nope", "parse"),                                      // not JSON
            (br#"{"no":"verb"}"#, "invalid"),                         // missing verb
            (br#"{"verb":"dance"}"#, "unsupported"),                  // unknown verb
            (br#"{"verb":"spcf","blif":"x","targets":[]}"#, "invalid"), // empty ladder
            (br#"{"verb":"spcf","blif":"x","targets":[-1]}"#, "invalid"), // negative target
            (
                br#"{"verb":"spcf","blif":"x","targets":[1],"algorithm":"magic"}"#,
                "unsupported",
            ),
            (
                br#"{"verb":"spcf","blif":"x","targets":[2.0],"relative":true}"#,
                "invalid", // relative target > 1
            ),
        ];
        for (payload, want) in cases {
            let err = Request::parse(payload).expect_err("must fail");
            assert_eq!(error_code(&err), *want, "payload {:?}", String::from_utf8_lossy(payload));
        }
        let huge = format!(
            r#"{{"verb":"spcf","blif":"x","targets":[{}]}}"#,
            vec!["1.0"; MAX_LADDER + 1].join(",")
        );
        let err = Request::parse(huge.as_bytes()).expect_err("ladder cap");
        assert_eq!(error_code(&err), "invalid");
    }

    #[test]
    fn parses_a_frame_sized_blif_in_linear_time() {
        // A BLIF string as long as the frame cap: per-character
        // revalidation of the rest of the buffer made this quadratic
        // (minutes); the run-at-a-time string scanner takes
        // milliseconds.
        let line = ".names a b n1 # \u{e9}\u{2206}\n11 1\n";
        let mut blif = line.repeat(DEFAULT_MAX_FRAME as usize / line.len());
        blif.push_str(&" ".repeat(DEFAULT_MAX_FRAME as usize - blif.len()));
        assert_eq!(blif.len(), DEFAULT_MAX_FRAME as usize);
        let payload = format!(
            r#"{{"verb":"spcf","blif":{},"targets":[0.9],"relative":true}}"#,
            Json::str(blif.as_str()).render()
        );
        match Request::parse(payload.as_bytes()).expect("frame-sized request parses") {
            Request::Spcf { blif: parsed, .. } => assert!(parsed == blif, "BLIF mangled"),
            other => panic!("parsed as {other:?}"),
        }
    }
}
