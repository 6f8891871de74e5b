//! Robustness of the ingestion layer: the row policy's exact semantics on
//! crafted inputs, plus property tests that no parser panics on arbitrary
//! bytes under any [`RowPolicy`].
//!
//! No test in this binary arms failpoints (the `data/csv/row` poisoning
//! path is exercised in the CLI integration tests, where the registry is
//! scoped); everything here runs with the registry disarmed.

use kanon_core::schema::SchemaBuilder;
use kanon_core::SharedSchema;
use kanon_data::{
    adult, cmc, parse_csv, parse_csv_report, parse_schema, table_from_csv,
    table_from_csv_with_policy, table_from_reader_with_policy, IngestReport, RowPolicy,
};
use proptest::prelude::*;

fn two_attr_schema() -> SharedSchema {
    SchemaBuilder::new()
        .categorical("g", ["M", "F"])
        .categorical("c", ["r", "b"])
        .build_shared()
        .unwrap()
}

#[test]
fn strict_policy_matches_plain_loader() {
    let s = two_attr_schema();
    let good = "g,c\nM,r\nF,b\n";
    let (t, report) = table_from_csv_with_policy(&s, good, true, RowPolicy::Strict).unwrap();
    assert!(report.is_clean());
    assert_eq!(t.rows(), table_from_csv(&s, good, true).unwrap().rows());
    // And strictness still rejects what the plain loader rejects.
    for bad in ["M,purple\n", "M\n", "M,r,extra\n"] {
        assert!(
            table_from_csv_with_policy(&s, bad, false, RowPolicy::Strict).is_err(),
            "{bad:?}"
        );
    }
}

#[test]
fn suppress_policy_drops_only_the_bad_rows() {
    let s = two_attr_schema();
    let text = "M,r\nM,purple\nF,b\nF\nM,b\n";
    let (t, report) = table_from_csv_with_policy(&s, text, false, RowPolicy::SuppressRow).unwrap();
    assert_eq!(t.num_rows(), 3);
    assert_eq!(report.suppressed_rows, vec![1, 3]);
    assert!(report.rooted_cells.is_empty());
}

#[test]
fn root_policy_patches_cells_and_records_them() {
    let s = two_attr_schema();
    let text = "M,r\nM,purple\nunknown,b\n";
    let (t, report) =
        table_from_csv_with_policy(&s, text, false, RowPolicy::GeneralizeToRoot).unwrap();
    assert_eq!(t.num_rows(), 3);
    assert!(report.suppressed_rows.is_empty());
    assert_eq!(report.rooted_cells, vec![(1, 1), (2, 0)]);
    // Patched cells hold the deterministic fallback (first domain value).
    assert_eq!(t.row(1).values()[1], kanon_core::domain::ValueId(0));
    assert_eq!(t.row(2).values()[0], kanon_core::domain::ValueId(0));
}

#[test]
fn root_policy_still_suppresses_ragged_rows() {
    let s = two_attr_schema();
    let text = "M,r\nM\nM,r,b\n";
    let (t, report) =
        table_from_csv_with_policy(&s, text, false, RowPolicy::GeneralizeToRoot).unwrap();
    assert_eq!(t.num_rows(), 1);
    assert_eq!(report.suppressed_rows, vec![1, 2]);
}

#[test]
fn header_errors_stay_strict_under_every_policy() {
    let s = two_attr_schema();
    for policy in [
        RowPolicy::Strict,
        RowPolicy::SuppressRow,
        RowPolicy::GeneralizeToRoot,
    ] {
        assert!(table_from_csv_with_policy(&s, "g,wrong\nM,r\n", true, policy).is_err());
        assert!(table_from_csv_with_policy(&s, "g\nM,r\n", true, policy).is_err());
    }
}

#[test]
fn policy_parse_spellings() {
    assert_eq!(RowPolicy::parse("strict"), Some(RowPolicy::Strict));
    assert_eq!(RowPolicy::parse("suppress"), Some(RowPolicy::SuppressRow));
    assert_eq!(RowPolicy::parse("root"), Some(RowPolicy::GeneralizeToRoot));
    assert_eq!(RowPolicy::parse("lenient"), None);
    assert_eq!(RowPolicy::default(), RowPolicy::Strict);
}

#[test]
fn adult_loader_policies() {
    // 15-column UCI rows: a good row, a bad education label, a `?` row
    // and a short row (both skipped, unreported, but they keep their row
    // index), and out-of-range ages (clamped into 17..=90).
    let good = "39, Private, 77516, Bachelors, 13, Never-married, Adm-clerical, \
                Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K";
    let bad = good.replace("Bachelors", "NoSuchDegree");
    let missing = good.replace("Private", "?");
    let old = good.replacen("39", "95", 1);
    let young = good.replacen("39", "5", 1);
    let text = format!("{good}\n{bad}\n{missing}\n39, Private\n{old}\n{young}\n");
    let ages = |t: &kanon_core::table::Table| -> Vec<String> {
        let age = t.schema().attr(0).domain();
        t.rows()
            .iter()
            .map(|r| age.label(r.get(0)).to_string())
            .collect()
    };
    // A strict error names the attribute and the 1-based data row.
    assert_eq!(
        adult::load_csv(&text, 0).unwrap_err(),
        kanon_core::error::CoreError::UnknownLabel {
            attr: "education".into(),
            label: "NoSuchDegree (data row 2)".into(),
        }
    );
    let (t, report) = adult::load_csv_with_policy(&text, 0, RowPolicy::SuppressRow).unwrap();
    assert_eq!(ages(&t), ["39", "90", "17"]);
    assert_eq!(report.suppressed_rows, vec![1]);
    assert!(report.rooted_cells.is_empty());
    let (t, report) = adult::load_csv_with_policy(&text, 0, RowPolicy::GeneralizeToRoot).unwrap();
    assert_eq!(ages(&t), ["39", "39", "90", "17"]);
    assert!(report.suppressed_rows.is_empty());
    assert_eq!(report.rooted_cells, vec![(1, 2)]); // education = attr 2
                                                   // Without the bad row every policy reads the same three rows.
    let clean = format!("{good}\n{missing}\n39, Private\n{old}\n{young}\n");
    for policy in POLICIES {
        let (t, report) = adult::load_csv_with_policy(&clean, 0, policy).unwrap();
        assert_eq!(ages(&t), ["39", "90", "17"], "{policy:?}");
        assert!(report.is_clean(), "{policy:?}");
    }
}

#[test]
fn adult_question_mark_row_is_skipped_whatever_else_it_holds() {
    // A `?` row is skipped before any cell is read, so a bad label in it
    // is never an error, a suppression or a rooted cell — even one in a
    // column before the `?`.
    let row = "39, Private, 77516, NoSuchDegree, 13, Never-married, Adm-clerical, \
               Not-in-family, White, Male, 2174, 0, 40, ?, <=50K\n";
    for policy in POLICIES {
        let (t, report) = adult::load_csv_with_policy(row, 0, policy).unwrap();
        assert_eq!(t.num_rows(), 0, "{policy:?}");
        assert!(report.is_clean(), "{policy:?}");
    }
}

#[test]
fn cmc_loader_policies() {
    // Rows: good, bad class label, bad wife-education, short (skipped,
    // keeps its index), out-of-range age and children (clamped to 49 and
    // 16), and a `?` cell (an unreadable wife-education, not a skip).
    let text = "24,2,3,3,1,1,2,3,0,1\n24,2,3,3,1,1,2,3,0,oops\n24,9,3,3,1,1,2,3,0,1\n\
                24,2,3\n99,4,4,20,1,0,1,1,1,3\n24,?,3,3,1,1,2,3,0,2\n";
    let cells = |lt: &cmc::LabeledTable, j: usize| -> Vec<String> {
        let d = lt.table.schema().attr(j).domain();
        lt.table
            .rows()
            .iter()
            .map(|r| d.label(r.get(j)).to_string())
            .collect()
    };
    // The class label is read first, and strict fails on it.
    assert_eq!(
        cmc::load_csv(text).unwrap_err(),
        kanon_core::error::CoreError::UnknownLabel {
            attr: "cmc".into(),
            label: "oops".into(),
        }
    );
    let (lt, report) = cmc::load_csv_with_policy(text, RowPolicy::SuppressRow).unwrap();
    assert_eq!(cells(&lt, 0), ["24", "49"]);
    assert_eq!(cells(&lt, 3), ["3", "16"]);
    assert_eq!(lt.labels, vec![1, 3]);
    assert_eq!(report.suppressed_rows, vec![1, 2, 5]);
    assert!(report.rooted_cells.is_empty());
    let (lt, report) = cmc::load_csv_with_policy(text, RowPolicy::GeneralizeToRoot).unwrap();
    // Bad education roots; the bad class label still suppresses its row.
    assert_eq!(cells(&lt, 0), ["24", "24", "49", "24"]);
    assert_eq!(cells(&lt, 1), ["2", "1", "4", "1"]);
    assert_eq!(lt.labels, vec![1, 1, 3, 2]);
    assert_eq!(report.suppressed_rows, vec![1]);
    assert_eq!(report.rooted_cells, vec![(2, 1), (5, 1)]);
}

const POLICIES: [RowPolicy; 3] = [
    RowPolicy::Strict,
    RowPolicy::SuppressRow,
    RowPolicy::GeneralizeToRoot,
];

/// Seeded arbitrary text: raw random bytes (lossy UTF-8) for odd seeds, a
/// CSV-flavoured palette (delimiters, quotes, schema labels, digits) for
/// even seeds — the latter reaches much deeper into the parser's states.
fn random_text(seed: u64) -> String {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.gen_range(0usize..240);
    if seed % 2 == 1 {
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        return String::from_utf8_lossy(&bytes).into_owned();
    }
    const PALETTE: &[char] = &[
        ',', '"', '\n', '\r', ' ', 'M', 'F', 'r', 'b', 'g', 'c', '?', '0', '1', '7', '9', '-', '*',
        ';', 'x',
    ];
    (0..len)
        .map(|_| PALETTE[rng.gen_range(0..PALETTE.len())])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn csv_ingestion_never_panics_on_arbitrary_text(seed in any::<u64>(), policy in 0usize..3, header in 0usize..2) {
        let text = random_text(seed);
        let s = two_attr_schema();
        let _ = table_from_csv_with_policy(&s, &text, header == 1, POLICIES[policy]);
    }

    #[test]
    fn dataset_loaders_never_panic_on_arbitrary_text(seed in any::<u64>(), policy in 0usize..3) {
        let text = random_text(seed);
        let _ = adult::load_csv_with_policy(&text, 0, POLICIES[policy]);
        let _ = cmc::load_csv_with_policy(&text, POLICIES[policy]);
    }

    #[test]
    fn schema_text_parser_never_panics(seed in any::<u64>()) {
        let _ = parse_schema(&random_text(seed));
    }

    #[test]
    fn suppress_policy_output_is_a_subsequence_of_clean_rows(seed in any::<u64>(), n in 0usize..20) {
        // Encode some rows with out-of-domain labels; Suppress must keep
        // exactly the clean ones, in order.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<(usize, usize)> =
            (0..n).map(|_| (rng.gen_range(0..4), rng.gen_range(0..4))).collect();
        let s = two_attr_schema();
        let g = ["M", "F", "X", "Y"]; // X, Y unknown
        let c = ["r", "b", "p", "q"]; // p, q unknown
        let text: String = rows.iter().map(|&(a, b)| format!("{},{}\n", g[a], c[b])).collect();
        let (t, report) = table_from_csv_with_policy(&s, &text, false, RowPolicy::SuppressRow).unwrap();
        let clean: Vec<usize> = rows.iter().enumerate()
            .filter(|(_, &(a, b))| a < 2 && b < 2)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(t.num_rows(), clean.len());
        let bad: Vec<usize> = (0..rows.len()).filter(|i| !clean.contains(i)).collect();
        prop_assert_eq!(&report.suppressed_rows, &bad);
    }

    /// Pin the two parser bugs on arbitrary bytes:
    /// * the `unterminated_quote` flag agrees with quote parity (an
    ///   escaped `""` contributes two, so parity tracks the in-quotes
    ///   state exactly);
    /// * every logical row the input encodes is kept — in particular a
    ///   final `""` with no trailing newline is a row of one empty
    ///   field, not silence.
    #[test]
    fn parse_report_flag_matches_quote_parity(seed in any::<u64>()) {
        let text = random_text(seed);
        let (rows, report) = parse_csv_report(&text);
        let quotes = text.bytes().filter(|&b| b == b'"').count();
        prop_assert_eq!(report.unterminated_quote, quotes % 2 == 1, "{:?}", text);
        // The report-less wrapper returns the same rows.
        prop_assert_eq!(&rows, &parse_csv(&text));
        // Terminated input ending without a newline still yields its
        // final row: appending one must not add a row. (A trailing bare
        // `\r` is excluded — `\r` + `\n` fuses into a CRLF terminator.)
        if !report.unterminated_quote && !text.ends_with('\n') && !text.ends_with('\r') && !text.is_empty() {
            let with_newline = format!("{text}\n");
            prop_assert_eq!(&rows, &parse_csv(&with_newline), "{:?}", text);
        }
    }

    /// A quoted-empty final field is never dropped, whatever surrounds it.
    #[test]
    fn trailing_quoted_empty_field_never_loses_the_row(prefix_rows in 0usize..4) {
        let mut text = String::new();
        for _ in 0..prefix_rows {
            text.push_str("M,r\n");
        }
        text.push_str("\"\"");
        let rows = parse_csv(&text);
        prop_assert_eq!(rows.len(), prefix_rows + 1);
        prop_assert_eq!(&rows[prefix_rows], &vec![String::new()]);
    }

    /// The chunked (streaming) loader is byte-for-byte equivalent to the
    /// whole-text loader on arbitrary input, for every policy.
    #[test]
    fn chunked_loader_matches_whole_text_loader(seed in any::<u64>(), policy in 0usize..3, header in 0usize..2) {
        let text = random_text(seed);
        let s = two_attr_schema();
        let whole = table_from_csv_with_policy(&s, &text, header == 1, POLICIES[policy]);
        let chunked = table_from_reader_with_policy(
            &s,
            std::io::Cursor::new(text.as_bytes()),
            "<prop>",
            header == 1,
            POLICIES[policy],
        );
        match (whole, chunked) {
            (Ok((wt, wr)), Ok((ct, cr))) => {
                prop_assert_eq!(wt.rows(), ct.rows());
                prop_assert_eq!(wr, cr);
            }
            (Err(we), Err(kanon_core::error::KanonError::Core(ce))) => {
                prop_assert_eq!(we, ce);
            }
            (w, c) => prop_assert!(false, "divergence on {:?}: {:?} vs {:?}", text, w, c),
        }
    }
}

#[test]
fn unterminated_quote_policy_semantics() {
    let s = two_attr_schema();
    // Strict surfaces the typed error; lenient policies suppress the
    // partial final row and keep everything before it.
    let text = "M,r\nF,\"b";
    let err = table_from_csv_with_policy(&s, text, false, RowPolicy::Strict).unwrap_err();
    assert_eq!(err, kanon_core::error::CoreError::UnterminatedQuote);
    for policy in [RowPolicy::SuppressRow, RowPolicy::GeneralizeToRoot] {
        let (t, report) = table_from_csv_with_policy(&s, text, false, policy).unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(report.suppressed_rows, vec![1], "{policy:?}");
    }
    // A header can never be a partial row: strict under every policy.
    for policy in POLICIES {
        let err = table_from_csv_with_policy(&s, "g,\"c", true, policy).unwrap_err();
        assert_eq!(
            err,
            kanon_core::error::CoreError::UnterminatedQuote,
            "{policy:?}"
        );
    }
}

// Keep the type exported and constructible for downstream reporting.
#[test]
fn ingest_report_default_is_clean() {
    assert!(IngestReport::default().is_clean());
}
