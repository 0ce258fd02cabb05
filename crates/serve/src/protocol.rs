//! The wire protocol: length-prefixed binary frames over a byte stream.
//!
//! Every message is `u32-be payload length` followed by the payload; the
//! first payload byte is an opcode. Requests use opcodes `0x01..=0x03`,
//! responses `0x81..=0x84`. All integers are big-endian; scores travel as
//! raw IEEE-754 bits so a client reassembles *exactly* the values the
//! pipeline produced (the daemon's bit-identity guarantee extends over
//! the wire).
//!
//! Decoding is total: any byte sequence decodes to either a message or a
//! typed [`ProtocolError`] — never a panic — so a malformed or hostile
//! client cannot take a connection thread down.

use std::io::{Read, Write};

/// Hard ceiling on a single frame (queries are HMM text, responses are
/// hit lists; 64 MiB is far beyond either). Guards the server against a
/// length-prefix bomb allocating unbounded memory.
pub const MAX_FRAME: usize = 64 << 20;

const OP_SEARCH: u8 = 0x01;
const OP_METRICS: u8 = 0x02;
const OP_PING: u8 = 0x03;
const OP_HITS: u8 = 0x81;
const OP_ERROR: u8 = 0x82;
const OP_METRICS_REPLY: u8 = 0x83;
const OP_PONG: u8 = 0x84;

/// Why a frame failed to decode (or a stream failed to deliver one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Underlying transport error.
    Io(String),
    /// Peer closed mid-frame.
    Truncated,
    /// Declared length exceeds [`MAX_FRAME`].
    FrameTooLarge(usize),
    /// Payload shorter than its fields require.
    Short,
    /// First payload byte is not a known opcode.
    UnknownOpcode(u8),
    /// Error response carried an unknown kind byte.
    UnknownErrorKind(u8),
    /// A string field was not UTF-8.
    BadUtf8,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(msg) => write!(f, "transport error: {msg}"),
            ProtocolError::Truncated => write!(f, "peer closed the stream mid-frame"),
            ProtocolError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            ProtocolError::Short => write!(f, "payload ends before its declared fields"),
            ProtocolError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtocolError::UnknownErrorKind(k) => write!(f, "unknown error kind {k}"),
            ProtocolError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Typed refusals the server can answer a request with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request itself is malformed (bad frame, unparsable HMM).
    BadRequest,
    /// Admission queue full — shed under load, retry later.
    Overloaded,
    /// The query's deadline expired (queued or mid-sweep).
    DeadlineExceeded,
    /// The query panicked or hit an unexpected engine error; the daemon
    /// itself is fine and keeps serving.
    Internal,
    /// The daemon is draining after SIGTERM; no new work accepted.
    ShuttingDown,
}

impl ErrorKind {
    fn code(self) -> u8 {
        match self {
            ErrorKind::BadRequest => 1,
            ErrorKind::Overloaded => 2,
            ErrorKind::DeadlineExceeded => 3,
            ErrorKind::Internal => 4,
            ErrorKind::ShuttingDown => 5,
        }
    }

    fn from_code(code: u8) -> Result<ErrorKind, ProtocolError> {
        Ok(match code {
            1 => ErrorKind::BadRequest,
            2 => ErrorKind::Overloaded,
            3 => ErrorKind::DeadlineExceeded,
            4 => ErrorKind::Internal,
            5 => ErrorKind::ShuttingDown,
            other => return Err(ProtocolError::UnknownErrorKind(other)),
        })
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorKind::BadRequest => "bad request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline exceeded",
            ErrorKind::Internal => "internal error",
            ErrorKind::ShuttingDown => "shutting down",
        };
        f.write_str(s)
    }
}

/// One reported hit on the wire. Scores carry raw IEEE-754 bits.
#[derive(Debug, Clone, PartialEq)]
pub struct WireHit {
    /// Sequence index in the full database.
    pub seqid: u32,
    /// Sequence name.
    pub name: String,
    /// MSV filter score (nats).
    pub msv_score: f32,
    /// Viterbi filter score (nats).
    pub vit_score: f32,
    /// Forward score (nats).
    pub fwd_score: f32,
    /// P-value of the Forward score.
    pub pvalue: f64,
    /// E-value against the full database.
    pub evalue: f64,
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Search the resident database with an HMM (ASCII `.hmm` text).
    /// `deadline_ms == 0` means "use the server default".
    Search {
        /// Per-query deadline in milliseconds (0 = server default).
        deadline_ms: u32,
        /// The query model, HMMER3 ASCII format.
        hmm_text: String,
    },
    /// Fetch the metrics document.
    Metrics,
    /// Liveness probe.
    Ping,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful search.
    Hits {
        /// True if any fault-tolerant device stage fell back to the CPU.
        degraded: bool,
        /// Reported hits, best E-value first.
        hits: Vec<WireHit>,
    },
    /// Typed refusal or failure.
    Error {
        /// What class of failure.
        kind: ErrorKind,
        /// Human-readable detail.
        msg: String,
    },
    /// Metrics document (JSON).
    Metrics(String),
    /// Liveness reply.
    Pong,
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_be_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked big-endian reader over a payload slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.pos.checked_add(n).ok_or(ProtocolError::Short)?;
        let s = self.buf.get(self.pos..end).ok_or(ProtocolError::Short)?;
        self.pos = end;
        Ok(s)
    }

    /// The next `N` bytes, by value.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], ProtocolError> {
        self.take(N)?
            .first_chunk()
            .copied()
            .ok_or(ProtocolError::Short)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        let [b] = self.take_array()?;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_be_bytes(self.take_array()?))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_be_bytes(self.take_array()?))
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME {
            return Err(ProtocolError::Short);
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8)
    }

    fn done(&self) -> Result<(), ProtocolError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtocolError::Short)
        }
    }
}

impl Request {
    /// Serialize to a payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Search {
                deadline_ms,
                hmm_text,
            } => {
                buf.push(OP_SEARCH);
                buf.extend_from_slice(&deadline_ms.to_be_bytes());
                put_str(&mut buf, hmm_text);
            }
            Request::Metrics => buf.push(OP_METRICS),
            Request::Ping => buf.push(OP_PING),
        }
        buf
    }

    /// Decode a payload. Total: typed error on any malformed input.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtocolError> {
        let mut cur = Cursor::new(payload);
        let req = match cur.u8()? {
            OP_SEARCH => Request::Search {
                deadline_ms: cur.u32()?,
                hmm_text: cur.string()?,
            },
            OP_METRICS => Request::Metrics,
            OP_PING => Request::Ping,
            other => return Err(ProtocolError::UnknownOpcode(other)),
        };
        cur.done()?;
        Ok(req)
    }
}

impl Response {
    /// Serialize to a payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::Hits { degraded, hits } => {
                buf.push(OP_HITS);
                buf.push(u8::from(*degraded));
                buf.extend_from_slice(&(hits.len() as u32).to_be_bytes());
                for h in hits {
                    buf.extend_from_slice(&h.seqid.to_be_bytes());
                    put_str(&mut buf, &h.name);
                    buf.extend_from_slice(&h.msv_score.to_bits().to_be_bytes());
                    buf.extend_from_slice(&h.vit_score.to_bits().to_be_bytes());
                    buf.extend_from_slice(&h.fwd_score.to_bits().to_be_bytes());
                    buf.extend_from_slice(&h.pvalue.to_bits().to_be_bytes());
                    buf.extend_from_slice(&h.evalue.to_bits().to_be_bytes());
                }
            }
            Response::Error { kind, msg } => {
                buf.push(OP_ERROR);
                buf.push(kind.code());
                put_str(&mut buf, msg);
            }
            Response::Metrics(json) => {
                buf.push(OP_METRICS_REPLY);
                put_str(&mut buf, json);
            }
            Response::Pong => buf.push(OP_PONG),
        }
        buf
    }

    /// Decode a payload. Total: typed error on any malformed input.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtocolError> {
        let mut cur = Cursor::new(payload);
        let resp = match cur.u8()? {
            OP_HITS => {
                let degraded = cur.u8()? != 0;
                let n = cur.u32()? as usize;
                // Each hit is ≥ 36 bytes; reject counts the payload
                // cannot possibly hold before allocating.
                if n > payload.len() / 36 + 1 {
                    return Err(ProtocolError::Short);
                }
                let mut hits = Vec::with_capacity(n);
                for _ in 0..n {
                    let seqid = cur.u32()?;
                    let name = cur.string()?;
                    let msv_score = f32::from_bits(cur.u32()?);
                    let vit_score = f32::from_bits(cur.u32()?);
                    let fwd_score = f32::from_bits(cur.u32()?);
                    let pvalue = f64::from_bits(cur.u64()?);
                    let evalue = f64::from_bits(cur.u64()?);
                    hits.push(WireHit {
                        seqid,
                        name,
                        msv_score,
                        vit_score,
                        fwd_score,
                        pvalue,
                        evalue,
                    });
                }
                Response::Hits { degraded, hits }
            }
            OP_ERROR => Response::Error {
                kind: ErrorKind::from_code(cur.u8()?)?,
                msg: cur.string()?,
            },
            OP_METRICS_REPLY => Response::Metrics(cur.string()?),
            OP_PONG => Response::Pong,
            other => return Err(ProtocolError::UnknownOpcode(other)),
        };
        cur.done()?;
        Ok(resp)
    }
}

/// Write one frame (length prefix + payload).
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), ProtocolError> {
    debug_assert!(payload.len() <= MAX_FRAME);
    let len = (payload.len() as u32).to_be_bytes();
    w.write_all(&len)
        .and_then(|()| w.write_all(payload))
        .and_then(|()| w.flush())
        .map_err(|e| ProtocolError::Io(e.to_string()))
    // The caller decides whether an Io error tears down the connection.
}

/// Read one frame from a blocking stream. `Ok(None)` is a clean EOF at a
/// frame boundary; EOF mid-frame is [`ProtocolError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut len_buf = [0u8; 4];
    match read_exact_or_eof(r, &mut len_buf)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Full => {}
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(ProtocolError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len];
    match read_exact_or_eof(r, &mut payload)? {
        ReadOutcome::Eof => Err(ProtocolError::Truncated),
        ReadOutcome::Full => Ok(Some(payload)),
    }
}

enum ReadOutcome {
    Full,
    Eof,
}

/// `read_exact` that distinguishes EOF-before-anything from EOF-midway
/// and retries interrupted/timed-out reads (read timeouts are how the
/// server polls its drain flag between frames; a partial read keeps
/// going so a slow writer cannot desynchronize the stream).
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<ReadOutcome, ProtocolError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(ReadOutcome::Eof)
                } else {
                    Err(ProtocolError::Truncated)
                };
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::Interrupted
                        | std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(e) => return Err(ProtocolError::Io(e.to_string())),
        }
    }
    Ok(ReadOutcome::Full)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let enc = req.encode();
        assert_eq!(Request::decode(&enc).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let enc = resp.encode();
        assert_eq!(Response::decode(&enc).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Metrics);
        roundtrip_req(Request::Search {
            deadline_ms: 2500,
            hmm_text: "HMMER3/f [test]\n//".to_string(),
        });
    }

    #[test]
    fn responses_roundtrip_bit_exact() {
        roundtrip_resp(Response::Pong);
        roundtrip_resp(Response::Metrics("{\"ok\":true}".to_string()));
        roundtrip_resp(Response::Error {
            kind: ErrorKind::Overloaded,
            msg: "queue full".to_string(),
        });
        let hit = WireHit {
            seqid: 7,
            name: "sp|P12345".to_string(),
            msv_score: 3.25,
            vit_score: -1.5e-3,
            fwd_score: f32::NEG_INFINITY,
            pvalue: 1.0e-300,
            evalue: 0.1 + 0.2, // not representable exactly: bit transport must preserve it
        };
        roundtrip_resp(Response::Hits {
            degraded: true,
            hits: vec![hit],
        });
    }

    #[test]
    fn every_error_kind_roundtrips() {
        for kind in [
            ErrorKind::BadRequest,
            ErrorKind::Overloaded,
            ErrorKind::DeadlineExceeded,
            ErrorKind::Internal,
            ErrorKind::ShuttingDown,
        ] {
            roundtrip_resp(Response::Error {
                kind,
                msg: String::new(),
            });
        }
    }

    #[test]
    fn decode_is_total_on_garbage() {
        // No payload prefix survives: truncations and mutations of a
        // valid message decode to typed errors, never panic.
        let valid = Request::Search {
            deadline_ms: 9,
            hmm_text: "x".repeat(64),
        }
        .encode();
        for cut in 0..valid.len() {
            let _ = Request::decode(&valid[..cut]);
        }
        let mut mutated = valid.clone();
        for i in 0..mutated.len() {
            mutated[i] ^= 0xff;
            let _ = Request::decode(&mutated);
            mutated[i] ^= 0xff;
        }
        assert_eq!(Request::decode(&[]), Err(ProtocolError::Short));
        assert_eq!(
            Request::decode(&[0x7f]),
            Err(ProtocolError::UnknownOpcode(0x7f))
        );
        // Hit-count bomb: a tiny payload claiming 4 billion hits is
        // rejected before allocation.
        let mut bomb = vec![OP_HITS, 0];
        bomb.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(Response::decode(&bomb), Err(ProtocolError::Short));
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Ping.encode()).unwrap();
        write_frame(&mut wire, &Request::Metrics.encode()).unwrap();
        let mut r = &wire[..];
        assert_eq!(
            Request::decode(&read_frame(&mut r).unwrap().unwrap()).unwrap(),
            Request::Ping
        );
        assert_eq!(
            Request::decode(&read_frame(&mut r).unwrap().unwrap()).unwrap(),
            Request::Metrics
        );
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        let mut r = &wire[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(ProtocolError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn eof_mid_frame_is_truncated() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Ping.encode()).unwrap();
        wire.pop();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r), Err(ProtocolError::Truncated));
    }
}
