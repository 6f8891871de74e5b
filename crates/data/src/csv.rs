//! Dependency-free CSV reader/writer (RFC 4180 quoting rules: fields may
//! be wrapped in double quotes, embedded quotes are doubled, quoted fields
//! may contain commas and newlines).

use kanon_core::domain::ValueId;
use kanon_core::error::{CoreError, Result};
use kanon_core::hierarchy::NodeId;
use kanon_core::record::{GeneralizedRecord, Record};
use kanon_core::schema::{Schema, SharedSchema};
use kanon_core::table::{GeneralizedTable, Table};
use std::sync::Arc;

/// Failpoint name poisoning one ingested data row per firing (see the
/// `kanon-fault` catalogue). A poisoned row is treated exactly like an
/// unparseable one and routed through the active [`RowPolicy`].
pub const ROW_FAIL_POINT: &str = "data/csv/row";

/// What to do with a data row that cannot be parsed against the schema
/// (unknown label, ragged arity, or an injected `data/csv/row` fault).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowPolicy {
    /// Fail the whole ingestion with the row's [`CoreError`] (default —
    /// matches the historical behaviour of [`table_from_csv`]).
    #[default]
    Strict,
    /// Drop the offending row and record its index in
    /// [`IngestReport::suppressed_rows`].
    SuppressRow,
    /// Replace each unreadable *cell* with the deterministic fallback
    /// value (the attribute's first domain value) and record the cell in
    /// [`IngestReport::rooted_cells`]; rows with the wrong number of
    /// fields are still suppressed (there is no cell to patch).
    GeneralizeToRoot,
}

impl RowPolicy {
    /// Parses the CLI spelling (`strict` | `suppress` | `root`).
    pub fn parse(s: &str) -> Option<RowPolicy> {
        match s {
            "strict" => Some(RowPolicy::Strict),
            "suppress" => Some(RowPolicy::SuppressRow),
            "root" => Some(RowPolicy::GeneralizeToRoot),
            _ => None,
        }
    }
}

/// What a non-strict ingestion did to bad rows. Indices are 0-based over
/// the *data* rows (after any header).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Data-row indices dropped under [`RowPolicy::SuppressRow`] (or under
    /// [`RowPolicy::GeneralizeToRoot`] when the arity was wrong).
    pub suppressed_rows: Vec<usize>,
    /// `(data_row, attr)` cells replaced by the fallback value under
    /// [`RowPolicy::GeneralizeToRoot`]. It only reports: a patched cell
    /// holds its fallback value and is anonymized like any other, so
    /// it publishes its cluster's closure of that value.
    pub rooted_cells: Vec<(usize, usize)>,
}

impl IngestReport {
    /// True when every row parsed cleanly.
    pub fn is_clean(&self) -> bool {
        self.suppressed_rows.is_empty() && self.rooted_cells.is_empty()
    }
}

/// What [`parse_csv_report`] observed beyond the parsed rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CsvParseReport {
    /// EOF was reached while inside a quoted field (the closing `"` never
    /// came). The partial final row — with the unterminated field's
    /// content as scanned — is still returned as the last row; the policy
    /// layer decides its fate.
    pub unterminated_quote: bool,
}

/// Parses CSV text into rows of fields, reporting structural anomalies.
///
/// Two historical parser bugs are pinned here: a final row consisting of
/// a single quoted empty field (`""` with no trailing newline) is kept
/// (the quote marks the field as *present* even though its content is
/// empty), and an EOF inside a quoted field is surfaced through
/// [`CsvParseReport::unterminated_quote`] instead of being silently
/// accepted.
pub fn parse_csv_report(text: &str) -> (Vec<Vec<String>>, CsvParseReport) {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    // True once a quote opened in the current field: `""` is an *empty
    // present* field, distinct from no field at all.
    let mut field_open = false;

    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => field.push(other),
            }
        } else {
            match c {
                '"' => {
                    in_quotes = true;
                    field_open = true;
                }
                ',' => {
                    row.push(std::mem::take(&mut field));
                    field_open = false;
                }
                '\r' => { /* swallow; \n terminates the row */ }
                '\n' => {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                    field_open = false;
                }
                other => field.push(other),
            }
        }
    }
    if !field.is_empty() || !row.is_empty() || field_open {
        row.push(field);
        rows.push(row);
    }
    (
        rows,
        CsvParseReport {
            unterminated_quote: in_quotes,
        },
    )
}

/// Parses CSV text into rows of fields.
///
/// Thin wrapper over [`parse_csv_report`] that discards the anomaly
/// report — callers that must *reject* malformed input (the table
/// loaders) use the reporting form.
pub fn parse_csv(text: &str) -> Vec<Vec<String>> {
    parse_csv_report(text).0
}

/// Appends one field to `out`, quoted when it holds a comma, a quote or
/// a line break (inner quotes doubled).
fn push_field(out: &mut String, field: &str) {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        out.push('"');
        out.push_str(&field.replace('"', "\"\""));
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Appends one LF-terminated CSV line of `fields` to `out`. Every line
/// this module writes goes through here.
fn push_row<S: AsRef<str>>(out: &mut String, fields: impl IntoIterator<Item = S>) {
    for (i, f) in fields.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_field(out, f.as_ref());
    }
    out.push('\n');
}

/// Serializes rows of fields as CSV text (LF line endings).
pub fn write_csv<S: AsRef<str>>(rows: &[Vec<S>]) -> String {
    let mut out = String::new();
    for row in rows {
        push_row(&mut out, row);
    }
    out
}

/// Appends the header line of attribute names that [`table_to_csv`] and
/// [`generalized_to_csv`] start with.
pub fn push_header(out: &mut String, schema: &Schema) {
    push_row(out, schema.attrs().map(|(_, a)| a.name()));
}

/// Appends the line [`generalized_to_csv`] writes for a generalized
/// record with closure `nodes`: leaf labels, `*` for a root and
/// `{v1,v2,…}` for an inner node, escaped like every other field.
pub fn push_generalized_row(out: &mut String, schema: &Schema, nodes: &[NodeId]) {
    push_row(
        out,
        nodes.iter().enumerate().map(|(j, &n)| {
            let a = schema.attr(j);
            a.hierarchy().format_node(n, |v| a.domain().label(v))
        }),
    );
}

/// Reads a [`Table`] from CSV text using the schema's label lookup. When
/// `has_header` is set, the first row is validated against the attribute
/// names. Fields are trimmed of surrounding whitespace before lookup.
pub fn table_from_csv(schema: &SharedSchema, text: &str, has_header: bool) -> Result<Table> {
    table_from_csv_with_policy(schema, text, has_header, RowPolicy::Strict).map(|(t, _)| t)
}

/// Like [`table_from_csv`], but routes every unparseable data row through
/// `policy` and reports what was dropped or patched. Header validation is
/// always strict — a wrong header is a schema mismatch, not a bad row.
///
/// The text is fed line by line through the same loop as the streaming
/// reader ([`crate::table_from_reader_with_policy`]).
pub fn table_from_csv_with_policy(
    schema: &SharedSchema,
    text: &str,
    has_header: bool,
    policy: RowPolicy,
) -> Result<(Table, IngestReport)> {
    let mut rest = text;
    let next_line = |buf: &mut String| {
        let end = rest.find('\n').map_or(rest.len(), |i| i + 1);
        buf.push_str(&rest[..end]);
        rest = &rest[end..];
        Ok(end)
    };
    crate::chunked::read_rows(schema, next_line, has_header, policy)
}

/// Checks a header row against the schema's attribute names, in order
/// (fields are trimmed first).
pub(crate) fn validate_header(schema: &SharedSchema, fields: &[String]) -> Result<()> {
    if fields.len() != schema.num_attrs() {
        return Err(CoreError::ArityMismatch {
            expected: schema.num_attrs(),
            found: fields.len(),
        });
    }
    for (j, name) in fields.iter().enumerate() {
        if name.trim() != schema.attr(j).name() {
            return Err(CoreError::UnknownLabel {
                attr: schema.attr(j).name().to_string(),
                label: name.trim().to_string(),
            });
        }
    }
    Ok(())
}

/// Converts one parsed data row against the schema under `policy`.
///
/// `Ok(None)` means the row contributes no record: it was a blank line,
/// or the policy suppressed it (recorded in `report`). This is the only
/// place a data row becomes a [`Record`]: the ingestion loop
/// (`chunked::read_rows`) and the UCI loaders ([`crate::adult`],
/// [`crate::cmc`]) all call it, so the `data/csv/row` fail point, the
/// arity check and the strict/suppress/root decision exist once.
pub(crate) fn convert_row(
    schema: &SharedSchema,
    fields: &[String],
    row_idx: usize,
    policy: RowPolicy,
    report: &mut IngestReport,
) -> Result<Option<Record>> {
    if fields.len() == 1 && fields[0].trim().is_empty() {
        return Ok(None); // blank line
    }
    if kanon_fault::armed() && kanon_fault::fires(ROW_FAIL_POINT) {
        match policy {
            // The typed injected fault, caught and converted by the
            // `try_*`/CLI layer.
            RowPolicy::Strict => std::panic::panic_any(kanon_fault::InjectedFault {
                point: ROW_FAIL_POINT.to_string(),
            }),
            _ => {
                report.suppressed_rows.push(row_idx);
                return Ok(None);
            }
        }
    }
    if fields.len() != schema.num_attrs() {
        match policy {
            RowPolicy::Strict => {
                return Err(CoreError::ArityMismatch {
                    expected: schema.num_attrs(),
                    found: fields.len(),
                })
            }
            _ => {
                // No cell to patch when the shape itself is wrong.
                report.suppressed_rows.push(row_idx);
                return Ok(None);
            }
        }
    }
    let mut values = Vec::with_capacity(fields.len());
    for (j, f) in fields.iter().enumerate() {
        match schema.attr(j).domain().value_of(f.trim()) {
            Ok(v) => values.push(v),
            Err(e) => match policy {
                // Add the data row number (1-based, after any header)
                // to the lookup error so users can locate the cell.
                RowPolicy::Strict => {
                    return Err(if let CoreError::UnknownLabel { attr, label } = e {
                        CoreError::UnknownLabel {
                            attr,
                            label: format!("{label} (data row {})", row_idx + 1),
                        }
                    } else {
                        e
                    })
                }
                RowPolicy::SuppressRow => {
                    report.suppressed_rows.push(row_idx);
                    return Ok(None);
                }
                RowPolicy::GeneralizeToRoot => {
                    report.rooted_cells.push((row_idx, j));
                    values.push(ValueId(0));
                }
            },
        }
    }
    Ok(Some(Record::new(values)))
}

/// Clamps an integer cell into `[min, max]` in place; a cell that is not
/// an integer is left for [`convert_row`] to reject. The UCI loaders use
/// this for ages and numbers of children outside the schema's domain.
pub(crate) fn clamp_int_cell(cell: &mut String, min: i64, max: i64) {
    if let Ok(v) = cell.trim().parse::<i64>() {
        *cell = v.clamp(min, max).to_string();
    }
}

/// Serializes a [`Table`] as CSV (with a header row of attribute names).
pub fn table_to_csv(table: &Table) -> String {
    let schema = table.schema();
    let mut out = String::new();
    push_header(&mut out, schema);
    for rec in table.rows() {
        push_row(
            &mut out,
            (rec.values().iter().enumerate()).map(|(j, &v)| schema.attr(j).domain().label(v)),
        );
    }
    out
}

/// Serializes a [`GeneralizedTable`] as CSV; generalized entries render as
/// `{v1,v2,…}` and fully suppressed entries as `*`.
pub fn generalized_to_csv(gtable: &GeneralizedTable) -> String {
    let schema = gtable.schema();
    let mut out = String::new();
    push_header(&mut out, schema);
    for rec in gtable.rows() {
        push_generalized_row(&mut out, schema, rec.nodes());
    }
    out
}

/// Reads back a generalized CSV written by [`generalized_to_csv`]: a
/// header of attribute names, then one generalized record per row, each
/// entry a leaf label, `*` (the hierarchy root) or `{v1,v2,…}` (the node
/// covering exactly those values). Blank lines are skipped.
pub fn generalized_from_csv(schema: &SharedSchema, text: &str) -> Result<GeneralizedTable> {
    let rows = parse_csv(text);
    validate_header(schema, rows.first().map_or(&[], Vec::as_slice))?;
    let mut grecords = Vec::with_capacity(rows.len());
    for fields in rows.iter().skip(1) {
        if fields.len() == 1 && fields[0].trim().is_empty() {
            continue;
        }
        if fields.len() != schema.num_attrs() {
            return Err(CoreError::ArityMismatch {
                expected: schema.num_attrs(),
                found: fields.len(),
            });
        }
        let mut nodes = Vec::with_capacity(fields.len());
        for (j, raw) in fields.iter().enumerate() {
            let attr = schema.attr(j);
            let h = attr.hierarchy();
            let raw = raw.trim();
            // A literal value label always wins: domains may legitimately
            // contain labels that *look* like the generalized notations
            // ("*", "{…}"), and `generalized_to_csv` prints leaf labels
            // verbatim. (A domain whose label is exactly "*" remains
            // ambiguous with full suppression in this text format — the
            // leaf interpretation is chosen; avoid such labels.)
            let node = if let Ok(v) = attr.domain().value_of(raw) {
                h.leaf(v)
            } else if raw == "*" {
                h.root()
            } else if let Some(inner) = raw.strip_prefix('{').and_then(|r| r.strip_suffix('}')) {
                let values = inner
                    .split(',')
                    .map(|l| attr.domain().value_of(l.trim()))
                    .collect::<Result<Vec<_>>>()?;
                h.node_of_exact_set(&values)
                    .ok_or_else(|| CoreError::UnknownLabel {
                        attr: attr.name().to_string(),
                        label: raw.to_string(),
                    })?
            } else {
                h.leaf(attr.domain().value_of(raw)?)
            };
            nodes.push(node);
        }
        grecords.push(GeneralizedRecord::new(nodes));
    }
    GeneralizedTable::new(Arc::clone(schema), grecords)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kanon_core::schema::SchemaBuilder;

    #[test]
    fn parse_simple() {
        let rows = parse_csv("a,b,c\n1,2,3\n");
        assert_eq!(rows, vec![vec!["a", "b", "c"], vec!["1", "2", "3"]]);
    }

    #[test]
    fn parse_quotes_and_commas() {
        let rows = parse_csv("\"a,b\",\"say \"\"hi\"\"\"\nplain,\"multi\nline\"\n");
        assert_eq!(rows[0], vec!["a,b", "say \"hi\""]);
        assert_eq!(rows[1], vec!["plain", "multi\nline"]);
    }

    #[test]
    fn parse_missing_trailing_newline() {
        let rows = parse_csv("x,y");
        assert_eq!(rows, vec![vec!["x", "y"]]);
    }

    #[test]
    fn parse_crlf() {
        let rows = parse_csv("a,b\r\nc,d\r\n");
        assert_eq!(rows, vec![vec!["a", "b"], vec!["c", "d"]]);
    }

    #[test]
    fn parse_empty_text() {
        assert!(parse_csv("").is_empty());
    }

    #[test]
    fn trailing_quoted_empty_field_row_is_kept() {
        // Regression: `""` with no trailing newline used to vanish — the
        // field was empty and the row was empty, so the tail flush
        // skipped it. The quote marks the field as present.
        assert_eq!(parse_csv("\"\""), vec![vec![String::new()]]);
        assert_eq!(
            parse_csv("a,b\n\"\""),
            vec![vec!["a".to_string(), "b".to_string()], vec![String::new()]]
        );
        // A genuinely empty tail (just a terminated last row) still
        // produces no phantom row.
        assert_eq!(parse_csv("a,b\n"), vec![vec!["a", "b"]]);
    }

    #[test]
    fn unterminated_quote_is_reported() {
        // Regression: EOF inside a quoted field used to be silently
        // accepted as if the quote had closed.
        let (rows, rep) = parse_csv_report("a,\"b");
        assert!(rep.unterminated_quote);
        assert_eq!(rows, vec![vec!["a", "b"]]);
        let (rows, rep) = parse_csv_report("\"abc");
        assert!(rep.unterminated_quote);
        assert_eq!(rows, vec![vec!["abc"]]);
        // A properly closed quote does not trip the flag.
        assert!(!parse_csv_report("a,\"b\"\n").1.unterminated_quote);
    }

    #[test]
    fn roundtrip_with_escapes() {
        let rows = vec![
            vec!["plain".to_string(), "with,comma".to_string()],
            vec!["with\"quote".to_string(), "multi\nline".to_string()],
        ];
        let text = write_csv(&rows);
        assert_eq!(parse_csv(&text), rows);
    }

    #[test]
    fn table_roundtrip() {
        let s = SchemaBuilder::new()
            .categorical("gender", ["M", "F"])
            .categorical("color", ["red", "green"])
            .build_shared()
            .unwrap();
        let csv = "gender,color\nM,red\nF,green\nM,green\n";
        let t = table_from_csv(&s, csv, true).unwrap();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(table_to_csv(&t), csv);
    }

    #[test]
    fn table_from_csv_trims_whitespace() {
        let s = SchemaBuilder::new()
            .categorical("g", ["M", "F"])
            .build_shared()
            .unwrap();
        let t = table_from_csv(&s, "g\n M \nF\n", true).unwrap();
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn table_from_csv_rejects_bad_header_and_arity() {
        let s = SchemaBuilder::new()
            .categorical("g", ["M", "F"])
            .categorical("c", ["r", "b"])
            .build_shared()
            .unwrap();
        assert!(table_from_csv(&s, "g,wrong\nM,r\n", true).is_err());
        assert!(table_from_csv(&s, "M\n", false).is_err());
        assert!(table_from_csv(&s, "M,purple\n", false).is_err());
    }

    #[test]
    fn generalized_csv_renders_stars() {
        use kanon_core::cluster::Clustering;
        use kanon_core::record::Record;
        use kanon_core::table::Table;
        use std::sync::Arc;
        let s = SchemaBuilder::new()
            .categorical("c", ["a", "b"])
            .build_shared()
            .unwrap();
        let t = Table::new(
            Arc::clone(&s),
            vec![Record::from_raw([0]), Record::from_raw([1])],
        )
        .unwrap();
        let cl = Clustering::from_assignment(vec![0, 0]).unwrap();
        let g = cl.to_generalized_table(&t).unwrap();
        let csv = generalized_to_csv(&g);
        assert_eq!(csv, "c\n*\n*\n");
    }

    #[test]
    fn generalized_csv_roundtrip() {
        use kanon_core::cluster::Clustering;
        let schema = crate::art::schema();
        let table = crate::art::generate_with_schema(&schema, 30, 5);
        let cl = Clustering::from_assignment((0..30).map(|i| i / 3).collect()).unwrap();
        let g = cl.to_generalized_table(&table).unwrap();
        let back = generalized_from_csv(&schema, &generalized_to_csv(&g)).unwrap();
        assert_eq!(g.rows(), back.rows());
    }

    #[test]
    fn generalized_csv_rejects_bad_subset() {
        let schema = crate::art::schema();
        // {a1,a3} is not a permissible subset of A2.
        let text = "A1,A2,A3,A4,A5,A6\na1,\"{a1,a3}\",a1,a1,a1,a1\n";
        assert!(generalized_from_csv(&schema, text).is_err());
    }

    #[test]
    fn generalized_csv_rejects_a_header_naming_other_attributes() {
        let schema = crate::art::schema();
        let body = "*,a2,a1,a1,a1,a1\n";
        assert_eq!(
            generalized_from_csv(&schema, &format!("x,y,z,w,v,u\n{body}")).unwrap_err(),
            CoreError::UnknownLabel {
                attr: "A1".into(),
                label: "x".into()
            }
        );
        for (text, found) in [(format!("A1,A2\n{body}"), 2), (String::new(), 0)] {
            let err = generalized_from_csv(&schema, &text).unwrap_err();
            assert_eq!(err, CoreError::ArityMismatch { expected: 6, found });
        }
    }

    #[test]
    fn literal_labels_beat_generalized_notation() {
        // A domain containing labels that look like generalized notation
        // must round-trip as leaves.
        let schema =
            crate::parse_schema("attr x = {low}, low, high\ngroup x = low, high\n").unwrap();
        let text = "x\n\"{low}\"\nlow\n\"{low,high}\"\n";
        let g = generalized_from_csv(&schema, text).unwrap();
        let h = schema.attr(0).hierarchy();
        // "{low}" is a real label → its leaf, not the {low} subset.
        let lit = schema.attr(0).domain().value_of("{low}").unwrap();
        assert_eq!(g.row(0).get(0), h.leaf(lit));
        let low = schema.attr(0).domain().value_of("low").unwrap();
        assert_eq!(g.row(1).get(0), h.leaf(low));
        // "{low,high}" is not a label → parsed as the permissible pair.
        let high = schema.attr(0).domain().value_of("high").unwrap();
        let pair = h.closure([low, high]).unwrap();
        assert_eq!(g.row(2).get(0), pair);
    }

    #[test]
    fn generalized_csv_parses_star_and_leaf() {
        let schema = crate::art::schema();
        let text = "A1,A2,A3,A4,A5,A6\n*,a2,a1,a1,a1,a1\n";
        let g = generalized_from_csv(&schema, text).unwrap();
        assert_eq!(g.num_rows(), 1);
        let h = schema.attr(0).hierarchy();
        assert_eq!(g.row(0).get(0), h.root());
    }
}
