//! Write-ahead batch journal.
//!
//! Every state mutation — an accepted batch or a re-optimization pass —
//! is appended (and fsynced) to `journal.log` *before* it is applied to
//! in-memory state, so a `kill -9` at any instant loses at most work
//! that was never acknowledged. On restart the daemon replays the
//! journal on top of the latest snapshot and reaches byte-identical
//! state — replay re-runs the same deterministic clustering code under
//! the same recorded work budget.
//!
//! ## Record format
//!
//! One record per line-pair, text header + raw payload:
//!
//! ```text
//! KJ1 <seq> <kind> <budget> <len> <crc32>\n
//! <payload bytes>\n
//! KJ2 <seq> <kind> <budget> <eps-bits> <len> <crc32>\n
//! <payload bytes>\n
//! ```
//!
//! * `seq` — monotonically increasing batch sequence number.
//! * `kind` — `B` (batch body follows), `O` (a re-optimization pass ran
//!   at this point in the sequence; payload empty), or `R` (the record
//!   with this `seq` was rolled back after a permanent failure; payload
//!   empty).
//! * `budget` — the *relative* work-budget units granted to the batch
//!   (`0` = unbounded). Relative units make replay independent of
//!   process history: each apply runs under a fresh collector.
//! * `eps-bits` — `KJ2` only: the effective `absorb_epsilon` of the
//!   batch as 16 hex digits of its `f64` bit pattern, so replay re-runs
//!   the exact same absorption criterion. Records with ε = 0 are
//!   written in the `KJ1` form, so ε-free journals stay byte-identical
//!   to the legacy format (and legacy journals decode unchanged).
//! * `len`/`crc32` — payload byte length and IEEE CRC-32 (hex).
//!
//! A torn tail (truncated or CRC-mismatched final record, the only
//! corruption a crash mid-append can produce) is detected and
//! discarded; anything after the first bad record is ignored. To keep
//! "torn record" synonymous with "final record", a *failed* append
//! truncates the file back to its pre-append length before returning —
//! otherwise a later successful append would bury the torn bytes
//! mid-file and silently hide every record after them from replay. If
//! that repair itself fails the handle is poisoned and refuses further
//! appends, so no acknowledged record can ever land beyond a tear.
//!
//! A failed `R` marker is worse than a torn record: the record it marks
//! stays on disk looking committed, and replay would resurrect a batch
//! the daemon already reported as failed. So when a marker append fails
//! for the record this handle wrote last, the file is cut back to before
//! that record, un-journaling it. The handle is poisoned either way, so
//! the marked record stays the final one even if that cut failed too;
//! recovery then handles it by the final-record rule.
//!
//! A *crash* mid-append leaves no process around to run that repair, so
//! the torn bytes survive on disk. Recovery therefore truncates the
//! file back to its intact prefix ([`truncate_torn_tail`]) before the
//! journal is reopened for appending — otherwise the first post-restart
//! append would bury the tear mid-file, and a second crash would
//! silently lose every acknowledged record behind it.
//!
//! After a successful snapshot the records it covers are dead weight;
//! [`Journal::compact`] atomically rewrites the uncovered suffix so the
//! file stays O(batches since the last snapshot) instead of O(lifetime).

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Fail point: simulates a torn append (partial write followed by an
/// I/O error) so the truncation-repair path stays exercised.
pub const POINT_JOURNAL_APPEND: &str = "serve/journal/append";

/// Fail point: skips a post-snapshot journal compaction (degradation:
/// the journal keeps its covered prefix until the next compaction).
pub const POINT_JOURNAL_COMPACT: &str = "serve/journal/compact";

/// IEEE CRC-32, bitwise (no table): the journal appends are fsync-bound,
/// so checksum speed is irrelevant and zero static data keeps it simple.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Kind tag of a journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A batch body to (re-)apply.
    Batch,
    /// A re-optimization pass ran at this point in the sequence.
    Reopt,
    /// The record with this seq permanently failed and was rolled back.
    Rollback,
}

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Batch sequence number.
    pub seq: u64,
    /// Batch body or rollback marker.
    pub kind: RecordKind,
    /// Relative work-budget units granted to the batch; 0 = unbounded.
    pub budget: u64,
    /// Bit pattern of the batch's effective `absorb_epsilon` (`f64`
    /// bits; 0 = the exact free-absorption criterion). Stored as bits so
    /// the record stays `Eq` and replay is bit-faithful.
    pub eps_bits: u64,
    /// The batch body bytes (empty for rollbacks).
    pub payload: Vec<u8>,
}

impl JournalRecord {
    /// The effective `absorb_epsilon` this record was applied under.
    pub fn epsilon(&self) -> f64 {
        f64::from_bits(self.eps_bits)
    }
}

/// Append-only journal handle. Appends are durable (fsynced) before
/// they return; a failed append truncates its torn bytes away so the
/// file never grows past a bad record.
pub struct Journal {
    path: PathBuf,
    file: File,
    /// Set when a failed append could not be truncated back out, or a
    /// rollback marker was lost: the logical tail is unknown or
    /// disagrees with the daemon, so further appends are refused until
    /// a compaction or a restart.
    poisoned: bool,
    /// Seq and start offset of the last record this handle appended —
    /// what a lost rollback marker for that seq cuts back to.
    last: Option<(u64, u64)>,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path` for appending.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal {
            path: path.to_path_buf(),
            file,
            poisoned: false,
            last: None,
        })
    }

    /// Path this journal writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and fsyncs. The record is visible to a
    /// post-crash replay only after this returns. On failure (ENOSPC,
    /// I/O error mid-write) the file is truncated back to its
    /// pre-append length, so the torn record can never end up buried
    /// mid-file where `read_journal` would stop at it and hide every
    /// later acknowledged record from replay. A failed
    /// [`RecordKind::Rollback`] marker for the last appended record
    /// truncates that record away as well and poisons the handle (see
    /// the module docs).
    pub fn append(
        &mut self,
        seq: u64,
        kind: RecordKind,
        budget: u64,
        epsilon: f64,
        payload: &[u8],
    ) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "journal is poisoned: an earlier append could not be repaired \
                 or a rollback marker was lost",
            ));
        }
        let buf = encode_record(seq, kind, budget, epsilon, payload);
        let start = self.file.metadata()?.len();
        let written = if kanon_fault::armed() && kanon_fault::fires(POINT_JOURNAL_APPEND) {
            // Injected torn append: half the record lands, then the
            // device "fails" — exactly what a crash mid-write leaves.
            self.file
                .write_all(&buf[..buf.len() / 2])
                .and_then(|()| Err(io::Error::other("fault injected: serve/journal/append")))
        } else {
            self.file
                .write_all(&buf)
                .and_then(|()| self.file.sync_all())
        };
        if let Err(e) = written {
            let lost_marker = kind == RecordKind::Rollback;
            let cut = match self.last {
                Some((last_seq, at)) if lost_marker && last_seq == seq => at,
                _ => start,
            };
            let repaired = self
                .file
                .set_len(cut)
                .and_then(|()| self.file.sync_all())
                .is_ok();
            if !repaired || lost_marker {
                self.poisoned = true;
            }
            return Err(e);
        }
        self.last = Some((seq, start));
        Ok(())
    }

    /// Compacts the journal after a snapshot: every record with
    /// `seq <= covered_seq` is covered by the snapshot and atomically
    /// rewritten away (tmp + fsync + rename), bounding the file to the
    /// records a recovery still needs. Returns the bytes reclaimed, or
    /// `None` when the `serve/journal/compact` fail point skipped the
    /// pass — a skipped compaction only keeps dead records around, it
    /// never loses one.
    ///
    /// The rewrite re-encodes the decoded intact records, so it also
    /// discards any torn tail and clears a poisoned handle: after a
    /// compaction the on-disk file is exactly the intact uncovered
    /// suffix.
    pub fn compact(&mut self, covered_seq: u64) -> io::Result<Option<u64>> {
        if kanon_fault::armed() && kanon_fault::fires(POINT_JOURNAL_COMPACT) {
            return Ok(None);
        }
        let (records, _) = intact_prefix(&self.path)?;
        let old_len = self.file.metadata()?.len();
        let mut kept = Vec::new();
        for rec in records.iter().filter(|r| r.seq > covered_seq) {
            kept.extend_from_slice(&encode_record(
                rec.seq,
                rec.kind,
                rec.budget,
                rec.epsilon(),
                &rec.payload,
            ));
        }
        if kept.len() as u64 == old_len {
            return Ok(Some(0)); // nothing covered, no torn tail: leave as is
        }
        let tmp = self.path.with_extension("compact-tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&kept)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // The old handle points at the unlinked inode; reopen on the
        // compacted file so later appends land in it.
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.poisoned = false;
        self.last = None;
        Ok(Some(old_len.saturating_sub(kept.len() as u64)))
    }
}

/// Encodes one record in its on-disk form (`KJ1` when ε = 0, `KJ2`
/// otherwise — see the module docs).
fn encode_record(seq: u64, kind: RecordKind, budget: u64, epsilon: f64, payload: &[u8]) -> Vec<u8> {
    let tag = match kind {
        RecordKind::Batch => 'B',
        RecordKind::Reopt => 'O',
        RecordKind::Rollback => 'R',
    };
    let eps_bits = epsilon.to_bits();
    let header = if eps_bits == 0 {
        format!(
            "KJ1 {seq} {tag} {budget} {len} {crc:08x}\n",
            len = payload.len(),
            crc = crc32(payload)
        )
    } else {
        format!(
            "KJ2 {seq} {tag} {budget} {eps_bits:016x} {len} {crc:08x}\n",
            len = payload.len(),
            crc = crc32(payload)
        )
    };
    let mut buf = Vec::with_capacity(header.len() + payload.len() + 1);
    buf.extend_from_slice(header.as_bytes());
    buf.extend_from_slice(payload);
    buf.push(b'\n');
    buf
}

/// Truncates a crash-torn tail off the journal at `path`, fsyncing the
/// result, and returns the number of bytes removed (0 when the file is
/// clean or missing). Recovery must run this *before* reopening the
/// journal for appending: a crash mid-append leaves torn bytes at the
/// tail, and appending past them would bury the tear mid-file where
/// [`read_journal`]'s stop-at-first-bad-record rule hides every later
/// acknowledged record from the next recovery.
pub fn truncate_torn_tail(path: &Path) -> io::Result<u64> {
    let (_, intact_len) = intact_prefix(path)?;
    let file = match OpenOptions::new().write(true).open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let total = file.metadata()?.len();
    if total == intact_len {
        return Ok(0);
    }
    file.set_len(intact_len)?;
    file.sync_all()?;
    Ok(total - intact_len)
}

/// Checks the journal's sequence discipline: each record's `seq` must
/// be strictly greater than its predecessor's, except that a rollback
/// marker repeats the `seq` of the record it cancels (always the
/// immediately preceding one — the daemon rolls a failed record back
/// before journaling anything else). Gaps are fine: rolled-back and
/// snapshot-covered sequence numbers are burned, never reused.
///
/// A violation means the file was edited or assembled out of order —
/// replaying it would double-apply or misorder state, so recovery
/// refuses. Returns a diagnostic naming the offending record.
pub fn validate_order(records: &[JournalRecord]) -> Result<(), String> {
    for (idx, pair) in records.windows(2).enumerate() {
        let (prev, rec) = (&pair[0], &pair[1]);
        if rec.seq > prev.seq {
            continue;
        }
        if rec.kind == RecordKind::Rollback
            && rec.seq == prev.seq
            && prev.kind != RecordKind::Rollback
        {
            continue; // the marker cancelling the record right before it
        }
        let what = match rec.kind {
            RecordKind::Batch => "batch",
            RecordKind::Reopt => "reopt",
            RecordKind::Rollback => "rollback",
        };
        return Err(format!(
            "journal record {} ({what} seq={}) does not advance past its \
             predecessor (seq={}): the journal is corrupt or was reordered",
            idx + 1,
            rec.seq,
            prev.seq
        ));
    }
    Ok(())
}

/// Reads every intact record from `path`. Missing file = empty journal.
/// Reading stops at the first truncated or corrupt record — a torn tail
/// from a crash mid-append — and everything before it is returned.
pub fn read_journal(path: &Path) -> io::Result<Vec<JournalRecord>> {
    Ok(intact_prefix(path)?.0)
}

/// Like [`read_journal`], but also returns the byte length of the
/// intact prefix — the offset recovery truncates a torn tail back to.
fn intact_prefix(path: &Path) -> io::Result<(Vec<JournalRecord>, u64)> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e),
    }
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(rec_len) = decode_record(&bytes[pos..], &mut records) else {
            break; // torn tail: keep what we have
        };
        pos += rec_len;
    }
    Ok((records, pos as u64))
}

/// Decodes one record from the front of `bytes`, pushing it onto `out`.
/// Returns the record's encoded length, or `None` if the front is not a
/// complete intact record.
fn decode_record(bytes: &[u8], out: &mut Vec<JournalRecord>) -> Option<usize> {
    let nl = bytes.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&bytes[..nl]).ok()?;
    let mut words = header.split(' ');
    let magic = words.next()?;
    if magic != "KJ1" && magic != "KJ2" {
        return None;
    }
    let seq: u64 = words.next()?.parse().ok()?;
    let kind = match words.next()? {
        "B" => RecordKind::Batch,
        "O" => RecordKind::Reopt,
        "R" => RecordKind::Rollback,
        _ => return None,
    };
    let budget: u64 = words.next()?.parse().ok()?;
    let eps_bits: u64 = if magic == "KJ2" {
        let bits = u64::from_str_radix(words.next()?, 16).ok()?;
        // ε = 0 is spelled KJ1; a KJ2 record claiming 0 is malformed.
        if bits == 0 {
            return None;
        }
        bits
    } else {
        0
    };
    let len: usize = words.next()?.parse().ok()?;
    let crc: u32 = u32::from_str_radix(words.next()?, 16).ok()?;
    if words.next().is_some() {
        return None;
    }
    let start = nl + 1;
    let end = start.checked_add(len)?;
    // Payload must be followed by its trailing newline.
    if end >= bytes.len() || bytes[end] != b'\n' {
        return None;
    }
    let payload = &bytes[start..end];
    if crc32(payload) != crc {
        return None;
    }
    out.push(JournalRecord {
        seq,
        kind,
        budget,
        eps_bits,
        payload: payload.to_vec(),
    });
    Some(end + 1)
}

#[cfg(test)]
mod tests {
    //! Fault points are process-wide, so every test here holds a
    //! `kanon_fault::scoped` guard for its whole run: `scoped("")` when
    //! it arms nothing, else a guard swapped at each arming point (old
    //! guard dropped first — the scope lock is not reentrant).

    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kanon-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.log")
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        let _faults = kanon_fault::scoped("");
        // Standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip() {
        let _faults = kanon_fault::scoped("");
        let path = tmp("roundtrip");
        let mut j = Journal::open(&path).unwrap();
        j.append(1, RecordKind::Batch, 500, 0.0, b"a,b\nc,d\n")
            .unwrap();
        j.append(2, RecordKind::Rollback, 0, 0.0, b"").unwrap();
        j.append(3, RecordKind::Batch, 0, 0.0, b"payload with KJ1 inside\n")
            .unwrap();
        j.append(4, RecordKind::Reopt, 0, 0.0, b"").unwrap();
        drop(j);
        let recs = read_journal(&path).unwrap();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0].seq, 1);
        assert_eq!(recs[0].kind, RecordKind::Batch);
        assert_eq!(recs[0].budget, 500);
        assert_eq!(recs[0].payload, b"a,b\nc,d\n");
        assert_eq!(recs[1].kind, RecordKind::Rollback);
        assert_eq!(recs[2].payload, b"payload with KJ1 inside\n");
        assert_eq!(recs[3].kind, RecordKind::Reopt);
        assert_eq!(recs[3].seq, 4);
        assert!(recs[3].payload.is_empty());
    }

    #[test]
    fn failed_append_truncates_the_torn_record_away() {
        let mut _faults = kanon_fault::scoped("");
        let path = tmp("torn-append");
        let mut j = Journal::open(&path).unwrap();
        j.append(1, RecordKind::Batch, 0, 0.0, b"first\n").unwrap();
        let len_before = std::fs::metadata(&path).unwrap().len();
        drop(_faults);
        _faults = kanon_fault::scoped(&format!("{POINT_JOURNAL_APPEND}=once:1"));
        j.append(2, RecordKind::Batch, 0, 0.0, b"second\n")
            .unwrap_err();
        drop(_faults);
        _faults = kanon_fault::scoped("");
        // The partial record was rolled back — the file is exactly as
        // long as before the failed append, not torn mid-file.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len_before);
        // A later successful append lands at the repaired tail, so
        // nothing acknowledged ever hides behind torn bytes.
        j.append(2, RecordKind::Batch, 0, 0.0, b"second again\n")
            .unwrap();
        drop(j);
        let recs = read_journal(&path).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].seq, 2);
        assert_eq!(recs[1].payload, b"second again\n");
    }

    #[test]
    fn missing_journal_reads_empty() {
        let _faults = kanon_fault::scoped("");
        let path = tmp("missing");
        assert!(read_journal(&path).unwrap().is_empty());
    }

    #[test]
    fn torn_tail_is_discarded_at_every_truncation_point() {
        let _faults = kanon_fault::scoped("");
        let path = tmp("torn");
        let mut j = Journal::open(&path).unwrap();
        j.append(1, RecordKind::Batch, 0, 0.0, b"first\n").unwrap();
        j.append(2, RecordKind::Batch, 7, 0.0, b"second batch body\n")
            .unwrap();
        drop(j);
        let full = std::fs::read(&path).unwrap();
        let first_len = {
            let mut out = Vec::new();
            decode_record(&full, &mut out).unwrap()
        };
        // Truncating anywhere inside the second record must yield
        // exactly the first record back.
        for cut in first_len + 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let recs = read_journal(&path).unwrap();
            assert_eq!(recs.len(), 1, "cut at {cut}");
            assert_eq!(recs[0].seq, 1);
        }
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let _faults = kanon_fault::scoped("");
        let path = tmp("crc");
        let mut j = Journal::open(&path).unwrap();
        j.append(1, RecordKind::Batch, 0, 0.0, b"good\n").unwrap();
        j.append(2, RecordKind::Batch, 0, 0.0, b"flipped\n")
            .unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte in the second record.
        let n = bytes.len();
        bytes[n - 3] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let recs = read_journal(&path).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn epsilon_records_round_trip_in_kj2_form() {
        let _faults = kanon_fault::scoped("");
        let path = tmp("eps");
        let mut j = Journal::open(&path).unwrap();
        j.append(1, RecordKind::Batch, 0, 0.0, b"plain\n").unwrap();
        j.append(2, RecordKind::Batch, 40, 0.05, b"eps\n").unwrap();
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("KJ1 1 B"), "{text}");
        assert!(text.contains(&format!("KJ2 2 B 40 {:016x}", 0.05f64.to_bits())));
        let recs = read_journal(&path).unwrap();
        assert_eq!(recs[0].eps_bits, 0);
        assert_eq!(recs[1].eps_bits, 0.05f64.to_bits());
        assert_eq!(recs[1].budget, 40);
        assert_eq!(recs[1].payload, b"eps\n");
    }

    #[test]
    fn truncate_torn_tail_removes_exactly_the_tear() {
        let _faults = kanon_fault::scoped("");
        let path = tmp("truncate");
        assert_eq!(truncate_torn_tail(&path).unwrap(), 0); // missing file
        let mut j = Journal::open(&path).unwrap();
        j.append(1, RecordKind::Batch, 0, 0.0, b"first\n").unwrap();
        j.append(2, RecordKind::Batch, 0, 0.0, b"second\n").unwrap();
        drop(j);
        let full = std::fs::read(&path).unwrap();
        let first_len = {
            let mut out = Vec::new();
            decode_record(&full, &mut out).unwrap()
        };
        assert_eq!(truncate_torn_tail(&path).unwrap(), 0); // clean file untouched
        assert_eq!(std::fs::read(&path).unwrap(), full);
        // Tear the second record, repair, and confirm the intact prefix
        // survives byte-identically.
        let cut = full.len() - 3;
        std::fs::write(&path, &full[..cut]).unwrap();
        assert_eq!(truncate_torn_tail(&path).unwrap(), (cut - first_len) as u64);
        assert_eq!(std::fs::read(&path).unwrap(), &full[..first_len]);
        // An append now lands at the repaired tail, not behind a tear.
        let mut j = Journal::open(&path).unwrap();
        j.append(2, RecordKind::Batch, 0, 0.0, b"second again\n")
            .unwrap();
        drop(j);
        let recs = read_journal(&path).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].payload, b"second again\n");
    }

    fn rec(seq: u64, kind: RecordKind) -> JournalRecord {
        JournalRecord {
            seq,
            kind,
            budget: 0,
            eps_bits: 0,
            payload: Vec::new(),
        }
    }

    #[test]
    fn validate_order_accepts_gaps_and_rollback_pairs() {
        let _faults = kanon_fault::scoped("");
        let b = |s| rec(s, RecordKind::Batch);
        assert!(validate_order(&[]).is_ok());
        assert!(validate_order(&[b(1), b(2), b(5)]).is_ok()); // gaps fine
                                                              // A rollback cancelling the record right before it repeats its seq.
        assert!(validate_order(&[
            b(1),
            rec(2, RecordKind::Reopt),
            rec(2, RecordKind::Rollback),
            b(3)
        ])
        .is_ok());
    }

    #[test]
    fn validate_order_rejects_duplicate_and_decreasing_seq() {
        let _faults = kanon_fault::scoped("");
        let b = |s| rec(s, RecordKind::Batch);
        let err = validate_order(&[b(1), b(1)]).unwrap_err();
        assert!(err.contains("record 1"), "{err}");
        assert!(err.contains("seq=1"), "{err}");
        let err = validate_order(&[b(1), b(3), b(2)]).unwrap_err();
        assert!(err.contains("record 2"), "{err}");
        // A rollback not paired with its target record is also bogus.
        let err = validate_order(&[b(2), rec(1, RecordKind::Rollback)]).unwrap_err();
        assert!(err.contains("rollback seq=1"), "{err}");
        // Two rollbacks for the same seq can never be produced.
        let err = validate_order(&[
            b(1),
            rec(1, RecordKind::Rollback),
            rec(1, RecordKind::Rollback),
        ])
        .unwrap_err();
        assert!(err.contains("record 2"), "{err}");
    }

    #[test]
    fn compact_drops_covered_records_atomically() {
        let mut _faults = kanon_fault::scoped("");
        let path = tmp("compact");
        let mut j = Journal::open(&path).unwrap();
        for seq in 1..=5u64 {
            j.append(
                seq,
                RecordKind::Batch,
                0,
                0.0,
                format!("row{seq}\n").as_bytes(),
            )
            .unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();
        // A fault-skipped compaction leaves the file untouched.
        drop(_faults);
        _faults = kanon_fault::scoped(&format!("{POINT_JOURNAL_COMPACT}=once:1"));
        assert_eq!(j.compact(3).unwrap(), None);
        drop(_faults);
        _faults = kanon_fault::scoped("");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before);
        // The real pass drops the covered prefix and keeps the suffix
        // byte-identical.
        let freed = j.compact(3).unwrap().unwrap();
        assert!(freed > 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before - freed);
        let recs = read_journal(&path).unwrap();
        assert_eq!(recs.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![4, 5]);
        assert_eq!(recs[0].payload, b"row4\n");
        // Appends continue into the compacted file (not the old inode).
        j.append(6, RecordKind::Batch, 0, 0.0, b"row6\n").unwrap();
        drop(j);
        let recs = read_journal(&path).unwrap();
        assert_eq!(
            recs.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![4, 5, 6]
        );
        // Compacting with nothing covered is a no-op.
        let mut j = Journal::open(&path).unwrap();
        assert_eq!(j.compact(0).unwrap(), Some(0));
        assert_eq!(
            read_journal(&path).unwrap().len(),
            3,
            "no-op compaction must keep every record"
        );
    }

    #[test]
    fn appends_after_reopen_continue_the_log() {
        let _faults = kanon_fault::scoped("");
        let path = tmp("reopen");
        let mut j = Journal::open(&path).unwrap();
        j.append(1, RecordKind::Batch, 0, 0.0, b"one\n").unwrap();
        drop(j);
        let mut j = Journal::open(&path).unwrap();
        j.append(2, RecordKind::Batch, 0, 0.0, b"two\n").unwrap();
        drop(j);
        let recs = read_journal(&path).unwrap();
        assert_eq!(recs.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 2]);
    }
}
