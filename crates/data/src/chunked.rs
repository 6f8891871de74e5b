//! The ingestion loop: every [`Table`] read from CSV text is built here,
//! one *logical row* at a time.
//!
//! Physical lines are accumulated until the running double-quote count
//! is even (RFC 4180: a newline inside a quoted field does not end the
//! row); the completed row is parsed, checked as the header or converted
//! by `csv::convert_row`, and its buffer is reused, so peak transient
//! memory is O(longest logical row), not O(file).
//!
//! The loop is generic over its line source: the streaming reader
//! ([`table_from_reader_with_policy`]) feeds it `read_line`, the
//! whole-text loader ([`crate::table_from_csv_with_policy`]) the lines of
//! a `&str`. The header check, the unterminated-quote rule and every row
//! policy therefore exist once.

use crate::csv::{convert_row, parse_csv_report, validate_header, IngestReport, RowPolicy};
use kanon_core::error::{CoreError, KanonError, KanonResult};
use kanon_core::schema::SharedSchema;
use kanon_core::table::Table;
use std::io::BufRead;
use std::sync::Arc;

/// Reads a [`Table`] from `reader` one logical CSV row at a time.
///
/// `source` names the input in I/O error messages (a path, or something
/// like `"<stdin>"`). Header validation, row policies and the ingest
/// report behave exactly like [`crate::table_from_csv_with_policy`].
pub fn table_from_reader_with_policy<R: BufRead>(
    schema: &SharedSchema,
    mut reader: R,
    source: &str,
    has_header: bool,
    policy: RowPolicy,
) -> KanonResult<(Table, IngestReport)> {
    let next_line = |buf: &mut String| {
        reader.read_line(buf).map_err(|e| KanonError::Io {
            path: source.to_string(),
            message: e.to_string(),
        })
    };
    read_rows(schema, next_line, has_header, policy)
}

/// The one ingestion loop. `next_line` appends the next physical line,
/// terminator included, to its buffer and returns the number of bytes
/// appended (0 at end of input) — the contract of [`BufRead::read_line`].
pub(crate) fn read_rows<E: From<CoreError>>(
    schema: &SharedSchema,
    mut next_line: impl FnMut(&mut String) -> Result<usize, E>,
    has_header: bool,
    policy: RowPolicy,
) -> Result<(Table, IngestReport), E> {
    let mut report = IngestReport::default();
    let mut records = Vec::new();
    let mut buf = String::new();
    let mut header_pending = has_header;
    let mut row_idx = 0usize;

    loop {
        let start = buf.len();
        let at_eof = next_line(&mut buf)? == 0;
        // A logical row ends at a newline outside quotes, i.e. when the
        // total number of double quotes so far is even (an escaped `""`
        // contributes two, so parity tracks the in-quotes state exactly).
        let complete =
            !at_eof && quote_count(&buf[start..], quote_count(&buf[..start], 0)).is_multiple_of(2);
        if !complete && !at_eof {
            continue; // newline was inside a quoted field — keep reading
        }
        if at_eof && buf.is_empty() {
            break;
        }
        let (rows, parse_report) = parse_csv_report(&buf);
        if parse_report.unterminated_quote {
            // Only possible at EOF (mid-stream the parity check keeps
            // reading). Strict fails; the lenient policies suppress the
            // partial final row — there is no trustworthy cell to patch,
            // the field may have swallowed arbitrarily much of the input —
            // unless it would have been the header, which is always strict.
            if header_pending || policy == RowPolicy::Strict {
                return Err(CoreError::UnterminatedQuote.into());
            }
            if !rows.is_empty() {
                report.suppressed_rows.push(row_idx);
            }
            break;
        }
        for fields in &rows {
            if header_pending {
                validate_header(schema, fields)?;
                header_pending = false;
                continue;
            }
            if let Some(rec) = convert_row(schema, fields, row_idx, policy, &mut report)? {
                records.push(rec);
            }
            row_idx += 1;
        }
        buf.clear();
        if at_eof {
            break;
        }
    }
    Ok((Table::new(Arc::clone(schema), records)?, report))
}

/// Opens `path` and streams it through [`table_from_reader_with_policy`].
pub fn table_from_path_with_policy(
    schema: &SharedSchema,
    path: &str,
    has_header: bool,
    policy: RowPolicy,
) -> KanonResult<(Table, IngestReport)> {
    let file = std::fs::File::open(path).map_err(|e| KanonError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })?;
    table_from_reader_with_policy(
        schema,
        std::io::BufReader::new(file),
        path,
        has_header,
        policy,
    )
}

/// Number of `"` characters in `s`, offset by `acc` (so parity can be
/// tracked across appended segments without rescanning).
fn quote_count(s: &str, acc: usize) -> usize {
    acc + s.bytes().filter(|&b| b == b'"').count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table_from_csv_with_policy;
    use kanon_core::schema::SchemaBuilder;
    use std::io::Cursor;

    fn schema() -> SharedSchema {
        SchemaBuilder::new()
            .categorical("g", ["M", "F"])
            .categorical("c", ["r", "b"])
            .build_shared()
            .unwrap()
    }

    const POLICIES: [RowPolicy; 3] = [
        RowPolicy::Strict,
        RowPolicy::SuppressRow,
        RowPolicy::GeneralizeToRoot,
    ];

    type Outcome = std::result::Result<(Vec<[u32; 2]>, Vec<usize>, Vec<(usize, usize)>), CoreError>;

    /// Loads `text` through both line sources, checks they agree, and
    /// returns the rows (raw value ids), suppressed rows and rooted cells.
    fn outcome(text: &str, has_header: bool, policy: RowPolicy) -> Outcome {
        let s = schema();
        let whole = table_from_csv_with_policy(&s, text, has_header, policy);
        let chunked =
            table_from_reader_with_policy(&s, Cursor::new(text), "<test>", has_header, policy)
                .map_err(|e| match e {
                    KanonError::Core(e) => e,
                    other => panic!("non-core error {other:?}"),
                });
        let pack = |(t, r): (Table, IngestReport)| {
            let rows = t.rows().iter().map(|rec| [rec.get(0).0, rec.get(1).0]);
            (rows.collect(), r.suppressed_rows, r.rooted_cells)
        };
        let (whole, chunked) = (whole.map(pack), chunked.map(pack));
        assert_eq!(whole, chunked, "{text:?} {has_header} {policy:?}");
        whole
    }

    /// The two line sources (`read_line` and the `&str` splitter) agree
    /// on every crafted input, policy and header flag.
    #[test]
    fn matches_whole_text_loader_on_crafted_inputs() {
        let texts = [
            "",
            "g,c\nM,r\nF,b\n",
            "M,r\nF,b",
            "M,r\n\nF,b\n",            // blank line keeps its row index
            "M,r\nM,purple\nF,b\n",    // bad label
            "M\nM,r,b\nF,b\n",         // ragged rows
            "\"M\",\"r\"\nF,\"b\"\n",  // quoting
            "M,\"r\nstill r\"\nF,b\n", // quoted newline spans lines
            "M,r\r\nF,b\r\n",          // CRLF
            "M,r\n\"\"",               // trailing quoted-empty row
            "M,r\nF,\"b",              // unterminated quote
            "\"unterminated",
        ];
        for text in texts {
            for has_header in [false, true] {
                for policy in POLICIES {
                    let _ = outcome(text, has_header, policy); // asserts agreement
                }
            }
        }
    }

    /// Absolute expectations on the inputs the loop must get right. Each
    /// text is read without a header, and again behind a `g,c` header
    /// line with the header flag set: row indices count data rows only,
    /// so both give the same outcome. With the flag set and no header
    /// line, the first row fails the header check under every policy.
    #[test]
    fn crafted_inputs_have_pinned_outcomes() {
        let ok = |rows: &[[u32; 2]], suppressed: &[usize], rooted: &[(usize, usize)]| -> Outcome {
            Ok((rows.to_vec(), suppressed.to_vec(), rooted.to_vec()))
        };
        let unknown = |attr: &str, label: &str| -> Outcome {
            Err(CoreError::UnknownLabel {
                attr: attr.into(),
                label: label.into(),
            })
        };
        let both_rows = || ok(&[[0, 0], [1, 1]], &[], &[]);
        let first_row = || ok(&[[0, 0]], &[], &[]);
        // Outcomes under Strict, SuppressRow and GeneralizeToRoot.
        let cases = [
            // The quoted newline belongs to row 0's `c` cell, which then
            // matches no label.
            (
                "M,\"r\nstill r\"\nF,b\n",
                [
                    unknown("c", "r\nstill r (data row 1)"),
                    ok(&[[1, 1]], &[0], &[]),
                    ok(&[[0, 0], [1, 1]], &[], &[(0, 1)]),
                ],
            ),
            ("M,r\r\nF,b\r\n", [both_rows(), both_rows(), both_rows()]),
            // The blank line yields no record but keeps its index: the bad
            // row after it is data row 2 (1-based 3).
            (
                "M,r\n\nF,purple\n",
                [
                    unknown("c", "purple (data row 3)"),
                    ok(&[[0, 0]], &[2], &[]),
                    ok(&[[0, 0], [1, 0]], &[], &[(2, 1)]),
                ],
            ),
            // A final `""` is a row of one empty field: a blank line.
            ("M,r\n\"\"", [first_row(), first_row(), first_row()]),
            (
                "M,r\nF,\"b",
                [
                    Err(CoreError::UnterminatedQuote),
                    ok(&[[0, 0]], &[1], &[]),
                    ok(&[[0, 0]], &[1], &[]),
                ],
            ),
        ];
        for (text, wants) in cases {
            for (policy, want) in POLICIES.into_iter().zip(wants) {
                assert_eq!(outcome(text, false, policy), want, "{text:?} {policy:?}");
                let with_header = format!("g,c\n{text}");
                assert_eq!(outcome(&with_header, true, policy), want, "{text:?}");
                assert_eq!(outcome(text, true, policy), unknown("g", "M"), "{text:?}");
            }
        }
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let s = schema();
        let err = table_from_path_with_policy(&s, "/no/such/file.csv", false, RowPolicy::Strict)
            .unwrap_err();
        assert!(matches!(err, KanonError::Io { .. }));
    }
}
