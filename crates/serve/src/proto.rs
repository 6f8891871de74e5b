//! Wire protocol of the serve daemon: length-prefixed frames carrying
//! small text requests.
//!
//! ## Frame format
//!
//! Every request and every response is one frame: a 4-byte big-endian
//! payload length followed by exactly that many payload bytes.
//! [`write_frame`] hands the length and the payload to the socket in one
//! gather write (repeated only if the kernel takes part of it), and the
//! daemon sets `TCP_NODELAY` on every accepted TCP stream: a frame leaves
//! at once, instead of its payload waiting behind Nagle's algorithm for
//! the client's delayed ACK of the length. The
//! request payload is UTF-8 text — a command line, then (for `BATCH`)
//! the batch body:
//!
//! ```text
//! BATCH [deadline_ms=N] [retries=N] [absorb_epsilon=X] '\n' <csv rows, no header>
//! OUTPUT | STATS | HEALTH | REOPT | SNAPSHOT | SHUTDOWN
//! ```
//!
//! `absorb_epsilon` is a finite non-negative float overriding the
//! daemon's configured ε-bounded absorption threshold for this batch
//! (see `state::ServeState::apply_batch`).
//!
//! Responses are text frames starting `OK …` or `ERR <class>: <msg>`
//! (`class` mirrors the [`kanon_core::KanonError`] variant name). The
//! parser here is total: any byte sequence maps to `Ok(Request)` or
//! `Err(String)`, never a panic — property-tested in
//! `tests/proto_proptest.rs`.

use std::io::{self, IoSlice, Read, Write};

/// A parsed client request.
///
/// (No `Eq`: `absorb_epsilon` is a float. It is parsed to be finite,
/// so `PartialEq` behaves totally on every value this module emits.)
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Append a micro-batch of rows (CSV, no header) to the table.
    Batch {
        /// Request deadline in milliseconds; mapped onto the
        /// deterministic work budget via `KANON_SERVE_WORK_RATE`.
        deadline_ms: Option<u64>,
        /// Retry-attempt override for this request.
        retries: Option<u64>,
        /// Per-request override of the ε-bounded absorption threshold
        /// (finite, non-negative; `None` = use the daemon's config).
        absorb_epsilon: Option<f64>,
        /// The CSV body (rows only, no header line).
        body: String,
    },
    /// Fetch the generalized CSV of every published row.
    Output,
    /// Fetch the daemon's aggregated `kanon_obs` report as JSON.
    Stats,
    /// Fetch a one-line JSON health summary.
    Health,
    /// Force a from-scratch re-optimization pass.
    Reopt,
    /// Force a state snapshot.
    Snapshot,
    /// Gracefully stop the daemon.
    Shutdown,
}

/// Reads one frame. Returns `Ok(None)` on clean end-of-stream (EOF
/// before the first length byte); a frame longer than `max_frame`
/// bytes or truncated mid-frame is an error.
pub fn read_frame(r: &mut impl Read, max_frame: u64) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 1 {
        match r.read(&mut len_buf[..1])? {
            0 => return Ok(None),
            n => got += n,
        }
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_be_bytes(len_buf) as u64;
    if len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_frame}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Writes one frame and flushes. The length and the payload go out in
/// one vectored write, without copying the payload; a partial write is
/// continued from where it stopped.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "frame payload exceeds u32 length",
            )
        })?
        .to_be_bytes();
    let mut parts = [IoSlice::new(&len), IoSlice::new(payload)];
    let mut rest = &mut parts[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Parses one request payload. Total over arbitrary bytes: every input
/// yields `Ok` or a diagnostic `Err`, never a panic.
pub fn parse_request(payload: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("request is not UTF-8: {e}"))?;
    let (head, body) = match text.split_once('\n') {
        Some((h, b)) => (h, b),
        None => (text, ""),
    };
    let mut words = head.split_whitespace();
    let cmd = words.next().unwrap_or("");
    let simple = |req: Request, words: &mut dyn Iterator<Item = &str>| match words.next() {
        None => Ok(req),
        Some(extra) => Err(format!(
            "command `{cmd}` takes no arguments (got `{extra}`)"
        )),
    };
    match cmd {
        "BATCH" => {
            let mut deadline_ms = None;
            let mut retries = None;
            let mut absorb_epsilon = None;
            for opt in words {
                let (key, value) = opt
                    .split_once('=')
                    .ok_or_else(|| format!("BATCH option `{opt}` is not `key=value`"))?;
                match key {
                    "deadline_ms" | "retries" => {
                        let value: u64 = value.parse().map_err(|_| {
                            format!("BATCH option `{key}` needs an unsigned integer")
                        })?;
                        if key == "deadline_ms" {
                            deadline_ms = Some(value);
                        } else {
                            retries = Some(value);
                        }
                    }
                    "absorb_epsilon" => {
                        let value: f64 = value.parse().map_err(|_| {
                            "BATCH option `absorb_epsilon` needs a number".to_string()
                        })?;
                        if !value.is_finite() || value.total_cmp(&0.0).is_lt() {
                            return Err(format!(
                                "BATCH option `absorb_epsilon` must be finite and \
                                 non-negative (got `{value}`)"
                            ));
                        }
                        absorb_epsilon = Some(value);
                    }
                    other => {
                        return Err(format!(
                            "unknown BATCH option `{other}` \
                             (expected deadline_ms|retries|absorb_epsilon)"
                        ))
                    }
                }
            }
            Ok(Request::Batch {
                deadline_ms,
                retries,
                absorb_epsilon,
                body: body.to_string(),
            })
        }
        "OUTPUT" => simple(Request::Output, &mut words),
        "STATS" => simple(Request::Stats, &mut words),
        "HEALTH" => simple(Request::Health, &mut words),
        "REOPT" => simple(Request::Reopt, &mut words),
        "SNAPSHOT" => simple(Request::Snapshot, &mut words),
        "SHUTDOWN" => simple(Request::Shutdown, &mut words),
        "" => Err("empty request".to_string()),
        other => Err(format!(
            "unknown command `{other}` (expected BATCH|OUTPUT|STATS|HEALTH|REOPT|SNAPSHOT|SHUTDOWN)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"HEALTH").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"HEALTH");
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 1024).unwrap().is_none());
    }

    /// Records every write call; writes at most `max` bytes per call.
    struct Recorder {
        bytes: Vec<u8>,
        calls: usize,
        max: usize,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut n = 0;
            for b in bufs {
                let take = b.len().min(self.max - n);
                self.bytes.extend_from_slice(&b[..take]);
                n += take;
            }
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn frame_bytes(payload: &[u8]) -> Vec<u8> {
        let mut v = (payload.len() as u32).to_be_bytes().to_vec();
        v.extend_from_slice(payload);
        v
    }

    #[test]
    fn a_small_frame_is_one_write_call() {
        let payload = b"OK seq=1 rows_in=50 absorbed=50";
        let mut w = Recorder {
            bytes: Vec::new(),
            calls: 0,
            max: usize::MAX,
        };
        write_frame(&mut w, payload).unwrap();
        assert_eq!(w.calls, 1);
        assert_eq!(w.bytes, frame_bytes(payload));
    }

    #[test]
    fn partial_writes_still_produce_the_exact_frame() {
        for payload in [&b"HEALTH"[..], b""] {
            let mut w = Recorder {
                bytes: Vec::new(),
                calls: 0,
                max: 1,
            };
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.bytes, frame_bytes(payload));
            assert_eq!(w.calls, 4 + payload.len());
        }
    }

    #[test]
    fn accepted_tcp_streams_set_nodelay() {
        let (listener, addr) = crate::Listener::bind("127.0.0.1:0").unwrap();
        let _client = std::net::TcpStream::connect(&addr).unwrap();
        let (_conn, kick) = listener.accept(None).unwrap();
        // The kick handle is a clone of the accepted socket, so it reads
        // the socket's own options.
        match kick {
            Some(crate::Kick::Tcp(stream)) => assert!(stream.nodelay().unwrap()),
            _ => panic!("no TCP handle for an accepted TCP stream"),
        }
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 100]).unwrap();
        let err = read_frame(&mut &buf[..], 10).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frames_are_errors_not_hangs() {
        // Length says 100 bytes, stream has 3.
        let mut buf = 100u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"abc");
        assert!(read_frame(&mut &buf[..], 1024).is_err());
        // Truncated length prefix.
        let buf = [0u8, 0u8];
        assert!(read_frame(&mut &buf[..], 1024).is_err());
    }

    #[test]
    fn requests_parse() {
        assert_eq!(parse_request(b"OUTPUT").unwrap(), Request::Output);
        assert_eq!(parse_request(b"SHUTDOWN").unwrap(), Request::Shutdown);
        let req = parse_request(b"BATCH deadline_ms=50 retries=1\na,b\nc,d\n").unwrap();
        assert_eq!(
            req,
            Request::Batch {
                deadline_ms: Some(50),
                retries: Some(1),
                absorb_epsilon: None,
                body: "a,b\nc,d\n".to_string()
            }
        );
        let req = parse_request(b"BATCH\n").unwrap();
        assert_eq!(
            req,
            Request::Batch {
                deadline_ms: None,
                retries: None,
                absorb_epsilon: None,
                body: String::new()
            }
        );
        let req = parse_request(b"BATCH absorb_epsilon=0.05\na,b\n").unwrap();
        assert_eq!(
            req,
            Request::Batch {
                deadline_ms: None,
                retries: None,
                absorb_epsilon: Some(0.05),
                body: "a,b\n".to_string()
            }
        );
    }

    #[test]
    fn bad_epsilons_are_rejected() {
        for bad in ["abc", "NaN", "inf", "-0.5", "-1"] {
            let req = format!("BATCH absorb_epsilon={bad}\n");
            let err = parse_request(req.as_bytes()).unwrap_err();
            assert!(err.contains("absorb_epsilon"), "{bad}: {err}");
        }
        // -0.0 parses, but it orders below +0.0 under total order —
        // rejecting it keeps a negative-zero bit pattern out of the
        // journal's ε encoding.
        assert!(parse_request(b"BATCH absorb_epsilon=-0.0\n").is_err());
    }

    #[test]
    fn bad_requests_are_diagnosed() {
        assert!(parse_request(b"").unwrap_err().contains("empty"));
        assert!(parse_request(b"NOPE")
            .unwrap_err()
            .contains("unknown command"));
        assert!(parse_request(b"OUTPUT extra")
            .unwrap_err()
            .contains("takes no arguments"));
        assert!(parse_request(b"BATCH deadline_ms=abc\n")
            .unwrap_err()
            .contains("unsigned"));
        assert!(parse_request(b"BATCH nope=1\n")
            .unwrap_err()
            .contains("unknown BATCH option"));
        assert!(parse_request(&[0xff, 0xfe]).unwrap_err().contains("UTF-8"));
    }
}
