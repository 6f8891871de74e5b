//! `kanon` — command-line anonymization tool.
//!
//! Subcommands:
//!
//! * `generate <art|adult|cmc> [--n N] [--seed S] [--out FILE]` — emit a
//!   synthetic dataset as CSV;
//! * `anonymize <art|adult|cmc> --k K [--notion k|kk|global|ldiv]
//!   [--l L] [--sensitive ATTR_IDX] [--shard-max N] [--measure em|lm]
//!   [--in FILE] [--n N] [--out FILE]` — anonymize a CSV (or a generated
//!   table) and emit the generalized CSV;
//! * `verify <art|adult|cmc> --k K --in ORIGINAL --anon GENERALIZED` —
//!   report the anonymity profile of a published table (original CSV +
//!   generalized CSV over the same built-in schema);
//! * `measure <art|adult|cmc> [--in FILE]` — print per-attribute statistics;
//! * `serve <DATASET> --k K --state-dir DIR [--listen ADDR]` — start the
//!   crash-safe incremental anonymization daemon (see `kanon-serve`).
//!
//! Built-in schemas are used so hierarchies are well-defined; use the
//! library directly for custom schemas.
//!
//! SIGINT/SIGTERM trigger a graceful shutdown: the stats report is
//! flushed, the worker pool drained, and the process exits with the
//! conventional 130/143 code. A consumer closing stdout mid-write
//! (`EPIPE`) maps to exit 141.

#![forbid(unsafe_code)]

use kanon_algos::{
    try_best_k_anonymize, try_global_1k_anonymize, try_kk_anonymize, try_l_diverse_k_anonymize,
    Budgeted, ClusterDistance, KkConfig, LDiverseConfig,
};
use kanon_core::schema::SharedSchema;
use kanon_core::table::{GeneralizedTable, Table};
use kanon_core::{KanonError, TableStats};
use kanon_data::{adult, art, cmc, csv, RowPolicy};
use kanon_measures::{Measure, NodeCostTable};
use kanon_verify::{journalist_risk, prosecutor_risk, AnonymityProfile};
use std::collections::HashMap;
use std::process::exit;
use std::str::FromStr;

/// `Result` alias for command bodies: every failure is a typed
/// [`KanonError`] mapped to a stable exit code in [`main`]
/// (0 = ok, 1 = runtime error, 2 = usage error).
type CmdResult<T = ()> = Result<T, KanonError>;

/// The anonymity notions `--notion` accepts, in display order. The usage
/// text and the "unknown notion" error both derive from this list, so
/// they cannot drift apart again.
const NOTIONS: [&str; 4] = ["k", "kk", "global", "ldiv"];

/// Notions the shard-and-conquer pipeline (`--shard-max`) supports.
const SHARDED_NOTIONS: [&str; 2] = ["k", "ldiv"];

fn usage() -> ! {
    let notions = NOTIONS.join("|");
    let sharded = SHARDED_NOTIONS.join("|");
    eprintln!(
        "usage:\n  \
         kanon generate  <art|adult|cmc> [--n N] [--seed S] [--out FILE]\n  \
         kanon anonymize <DATASET> --k K [--notion {notions}] \
         [--l L] [--sensitive ATTR_IDX] [--shard-max N] [--measure em|lm] \
         [--in FILE] [--on-bad-row strict|suppress|root] \
         [--n N] [--seed S] [--out FILE]\n  \
         kanon verify    <DATASET> --k K --in ORIGINAL.csv --anon ANON.csv\n  \
         kanon measure   <DATASET> [--in FILE] [--n N] [--seed S]\n  \
         kanon serve     <DATASET> --k K --state-dir DIR [--listen ADDR] \
         [--measure em|lm] [--in FILE] [--n N] [--seed S] [--shard-max N] \
         [--reopt-every N] [--snapshot-every N] [--absorb-epsilon X] \
         [--on-bad-row POLICY]\n\n\
         DATASET is art|adult|cmc (built-in schemas) or custom;\n\
         custom requires --schema SCHEMA.txt (see kanon_data::schema_text)\n\
         and --in DATA.csv.\n\n\
         --notion ldiv adds distinct-\u{2113}-diversity on top of k-anonymity:\n\
         --l L sets \u{2113} and --sensitive ATTR_IDX picks the sensitive\n\
         attribute (0-based; default: the last attribute).\n\n\
         --shard-max N (notions {sharded} only) runs the shard-and-conquer\n\
         pipeline: the table is pre-partitioned into shards of at most N\n\
         rows, each shard is clustered independently, and shard-boundary\n\
         twin clusters are re-merged. The library default cap is\n\
         10000.\n\n\
         --on-bad-row controls CSV rows that fail to parse: strict\n\
         (default) fails the run, suppress drops them, root patches\n\
         unreadable cells with the attribute's first domain value.\n\n\
         Every command accepts --stats[=json] (or KANON_STATS=1|json) to\n\
         report work counters and phase timers on stderr when done, and\n\
         --stats-out FILE to write the report to a file instead. The JSON\n\
         form is emitted as a single line (the last line of stderr).\n\n\
         KANON_WORK_BUDGET=N caps the deterministic work counters; when\n\
         exhausted, anonymize emits a valid best-effort result and warns.\n\n\
         serve holds state resident and anonymizes appended micro-batches\n\
         over a length-prefixed TCP or Unix-socket protocol; --listen\n\
         takes host:port (default 127.0.0.1:0, bound port written to\n\
         <state-dir>/serve.addr) or a socket path containing '/'. The\n\
         write-ahead journal and snapshots in --state-dir make kill -9\n\
         recovery byte-identical; --snapshot-every N snapshots every N\n\
         batches and after every reopt, and each snapshot compacts the\n\
         journal to the records it does not cover (0 = journal only).\n\
         --absorb-epsilon X absorbs a new row into a mature cluster when\n\
         the join raises the cluster's loss contribution by less than X\n\
         (0 disables; a BATCH request may override per batch).\n\
         Defaults: --snapshot-every 8,\n\
         --reopt-every 0, --absorb-epsilon 0, --shard-max 10000. Knobs:\n\
         KANON_SERVE_WORK_RATE, KANON_SERVE_RETRIES,\n\
         KANON_SERVE_BACKOFF_MS, KANON_SERVE_MAX_FRAME,\n\
         KANON_SERVE_IDLE_TIMEOUT_MS.\n\n\
         Exit codes: 0 success, 1 runtime error, 2 usage error,\n\
         130/143 interrupted by SIGINT/SIGTERM, 141 stdout EPIPE."
    );
    exit(2)
}

/// Reads a file, converting the OS error to a typed [`KanonError::Io`].
fn read_file(path: &str) -> CmdResult<String> {
    std::fs::read_to_string(path).map_err(|e| KanonError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })
}

/// Parsed flags after the positional arguments. Accepts `--flag value`
/// and `--flag=value`; the flags in [`Flags::VALUELESS`] may also appear
/// bare (`--stats`), in which case they map to the empty string.
struct Flags(HashMap<String, String>);

impl Flags {
    /// Flags that never consume the following argument as their value.
    const VALUELESS: &'static [&'static str] = &["stats"];

    fn parse(args: &[String]) -> Flags {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") {
                eprintln!("unexpected argument {flag:?}");
                usage();
            }
            let (key, value) = match flag.split_once('=') {
                Some((k, v)) => (k.trim_start_matches("--").to_string(), v.to_string()),
                None => {
                    let key = flag.trim_start_matches("--").to_string();
                    if Self::VALUELESS.contains(&key.as_str()) {
                        (key, String::new())
                    } else {
                        let value = it.next().unwrap_or_else(|| {
                            eprintln!("flag {flag} needs a value");
                            usage()
                        });
                        (key, value.clone())
                    }
                }
            };
            map.insert(key, value);
        }
        Flags(map)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    /// The integer value of `--key`, or `default` when absent; a value
    /// that does not parse is a usage error.
    fn parse_or<T: FromStr>(&self, key: &str, default: T) -> T {
        self.get(key)
            .map(|v| {
                v.parse().unwrap_or_else(|_| {
                    eprintln!("--{key} must be an integer");
                    usage()
                })
            })
            .unwrap_or(default)
    }
}

fn dataset_schema(name: &str, flags: &Flags) -> CmdResult<SharedSchema> {
    match name {
        "art" => Ok(art::schema()),
        "adult" => Ok(adult::schema()),
        "cmc" => Ok(cmc::schema()),
        "custom" => {
            let path = flags.get("schema").ok_or_else(|| {
                KanonError::Usage("custom datasets require --schema SCHEMA.txt".to_string())
            })?;
            Ok(kanon_data::parse_schema(&read_file(path)?)?)
        }
        other => Err(KanonError::Usage(format!(
            "unknown dataset {other:?} (expected art|adult|cmc|custom)"
        ))),
    }
}

/// The `--on-bad-row` policy (default `strict`).
fn row_policy(flags: &Flags) -> CmdResult<RowPolicy> {
    match flags.get("on-bad-row") {
        None => Ok(RowPolicy::Strict),
        Some(v) => RowPolicy::parse(v).ok_or_else(|| {
            KanonError::Usage(format!(
                "unknown --on-bad-row policy {v:?} (expected strict|suppress|root)"
            ))
        }),
    }
}

/// Loads a table either from `--in FILE` (CSV with header over the
/// built-in schema, bad rows routed through `--on-bad-row`) or by
/// generating `--n` rows. Files are streamed through the chunked loader
/// (peak transient memory O(longest row), not O(file)). Cells the
/// `root` policy patched hold their fallback value and are anonymized
/// like any other; the policy only reports how many it patched.
fn load_table(name: &str, schema: &SharedSchema, flags: &Flags) -> CmdResult<Table> {
    // Validate the policy flag even for generated tables, so a typo is a
    // usage error rather than silently ignored.
    let policy = row_policy(flags)?;
    if let Some(path) = flags.get("in") {
        let (table, report) = kanon_data::table_from_path_with_policy(schema, path, true, policy)?;
        if !report.suppressed_rows.is_empty() {
            eprintln!(
                "warning: suppressed {} unparseable row(s) of {path}",
                report.suppressed_rows.len()
            );
        }
        if !report.rooted_cells.is_empty() {
            eprintln!(
                "warning: patched {} unreadable cell(s) of {path} with fallback values",
                report.rooted_cells.len()
            );
        }
        Ok(table)
    } else {
        let n: usize = flags.parse_or("n", 1000);
        let seed: u64 = flags.parse_or("seed", 42);
        let table = match name {
            "art" => art::generate_with_schema(schema, n, seed),
            "adult" => adult::generate_with_schema(schema, n, seed),
            "cmc" => cmc::generate_with_schema(schema, n, seed).table,
            _ => {
                return Err(KanonError::Usage(
                    "custom datasets cannot be generated; pass --in DATA.csv".to_string(),
                ))
            }
        };
        Ok(table)
    }
}

fn write_out(flags: &Flags, text: &str) -> CmdResult {
    match flags.get("out") {
        Some(path) => std::fs::write(path, text).map_err(|e| KanonError::Io {
            path: path.to_string(),
            message: e.to_string(),
        }),
        None => {
            // Rust ignores SIGPIPE, so a consumer closing stdout (e.g.
            // `kanon … | head`) surfaces as a BrokenPipe write error;
            // map it to the typed interruption (exit 141) rather than a
            // runtime failure.
            use std::io::Write as _;
            let mut out = std::io::stdout().lock();
            out.write_all(text.as_bytes())
                .and_then(|()| out.flush())
                .map_err(|e| {
                    if e.kind() == std::io::ErrorKind::BrokenPipe {
                        KanonError::Interrupted {
                            cause: "EPIPE".to_string(),
                        }
                    } else {
                        KanonError::Io {
                            path: "<stdout>".to_string(),
                            message: e.to_string(),
                        }
                    }
                })
        }
    }
}

fn cmd_generate(name: &str, flags: &Flags) -> CmdResult {
    let schema = dataset_schema(name, flags)?;
    let table = load_table(name, &schema, flags)?;
    write_out(flags, &csv::table_to_csv(&table))
}

/// Unwraps a budget-aware result, warning on stderr when the run was cut
/// short — the partial result is still valid, so the command succeeds.
fn accept_budgeted<T>(what: &str, b: Budgeted<T>) -> T {
    if let Budgeted::BudgetExhausted { budget, spent, .. } = &b {
        eprintln!(
            "warning: work budget exhausted during {what} ({spent} work units \
             spent, budget {budget}); emitting valid best-effort result"
        );
    }
    b.into_inner()
}

/// Parses `--shard-max` (engages the shard-and-conquer pipeline when
/// present; only valid for the notions in [`SHARDED_NOTIONS`]).
fn shard_max(flags: &Flags, notion: &str) -> CmdResult<Option<usize>> {
    let Some(v) = flags.get("shard-max") else {
        return Ok(None);
    };
    let m: usize = v.parse().unwrap_or(0);
    if m == 0 {
        return Err(KanonError::Usage(
            "--shard-max must be a positive integer".to_string(),
        ));
    }
    if !SHARDED_NOTIONS.contains(&notion) {
        return Err(KanonError::Usage(format!(
            "--shard-max only applies to --notion {} (got {notion:?})",
            SHARDED_NOTIONS.join("|")
        )));
    }
    Ok(Some(m))
}

/// Reports a finished shard-and-conquer run on stderr.
fn report_sharded(what: &str, out: &kanon_algos::ShardedOutput, costs: &NodeCostTable) {
    eprintln!(
        "{what} via shard-and-conquer ({} shard(s), largest {} rows, \
         {} boundary repair(s)); loss = {:.4} ({})",
        out.stats.shards_built,
        out.stats.shard_rows_max,
        out.stats.boundary_repairs,
        out.out.loss,
        costs.measure_name()
    );
}

/// The `--measure em|lm` flag (default `em`).
fn measure_flag(flags: &Flags) -> Result<Measure, KanonError> {
    let name = flags.get("measure").unwrap_or("em");
    Measure::parse(name)
        .ok_or_else(|| KanonError::Usage(format!("unknown measure {name:?} (expected em|lm)")))
}

fn cmd_anonymize(name: &str, flags: &Flags) -> CmdResult {
    let schema = dataset_schema(name, flags)?;
    let table = load_table(name, &schema, flags)?;
    let k: usize = flags.parse_or("k", 0);
    if k == 0 {
        return Err(KanonError::Usage("anonymize requires --k".to_string()));
    }
    let costs = measure_flag(flags)?.costs(&table);
    let notion = flags.get("notion").unwrap_or("kk");
    let shard_max = shard_max(flags, notion)?;
    let gtable: GeneralizedTable = match notion {
        "k" if shard_max.is_some() => {
            let cfg =
                kanon_algos::ShardConfig::new(k).with_shard_max(shard_max.unwrap_or_default());
            let out = accept_budgeted(
                "sharded k-anonymization",
                kanon_algos::try_sharded_k_anonymize(&table, &costs, &cfg)?,
            );
            report_sharded("k-anonymized", &out, &costs);
            out.out.table
        }
        "k" => {
            let (out, cfg) = accept_budgeted(
                "k-anonymization",
                try_best_k_anonymize(&table, &costs, k, &ClusterDistance::paper_variants(), true)?,
            );
            eprintln!(
                "k-anonymized with {}{}; loss = {:.4} ({})",
                cfg.distance.name(),
                if cfg.modified { "+mod" } else { "" },
                out.loss,
                costs.measure_name()
            );
            out.table
        }
        "kk" => {
            let out = try_kk_anonymize(&table, &costs, &KkConfig::new(k))?;
            eprintln!(
                "(k,k)-anonymized; loss = {:.4} ({})",
                out.loss,
                costs.measure_name()
            );
            out.table
        }
        "global" => {
            let out = try_global_1k_anonymize(&table, &costs, &KkConfig::new(k))?;
            eprintln!(
                "globally (1,k)-anonymized; loss = {:.4} ({}); {} upgrades for {} deficient records",
                out.loss,
                costs.measure_name(),
                out.upgrade_steps,
                out.deficient_records
            );
            out.table
        }
        "ldiv" => {
            let l: usize = flags.parse_or("l", 0);
            if l == 0 {
                return Err(KanonError::Usage(
                    "--notion ldiv requires --l L (distinct \u{2113}-diversity)".to_string(),
                ));
            }
            let col: usize = flags.parse_or("sensitive", table.num_attrs() - 1);
            if col >= table.num_attrs() {
                return Err(KanonError::Usage(format!(
                    "--sensitive {col} out of range (table has {} attributes)",
                    table.num_attrs()
                )));
            }
            let sensitive: Vec<u32> = (0..table.num_rows())
                .map(|i| table.row(i).get(col).0)
                .collect();
            if let Some(m) = shard_max {
                let cfg = kanon_algos::ShardConfig::new(k).with_l(l).with_shard_max(m);
                let out = match kanon_algos::try_sharded_l_diverse_k_anonymize(
                    &table, &costs, &sensitive, &cfg,
                ) {
                    Err(KanonError::Core(e @ kanon_core::CoreError::InvalidL { .. })) => {
                        return Err(KanonError::Usage(e.to_string()))
                    }
                    r => accept_budgeted("sharded \u{2113}-diverse k-anonymization", r?),
                };
                report_sharded(
                    &format!("\u{2113}-diverse k-anonymized (k = {k}, \u{2113} = {l}, sensitive attr {col})"),
                    &out,
                    &costs,
                );
                write_out(flags, &csv::generalized_to_csv(&out.out.table))?;
                return Ok(());
            }
            let cfg = LDiverseConfig::new(k, l);
            // An infeasible ℓ for the chosen column is a malformed
            // request (exit 2), like an unknown flag — not a runtime
            // failure of a well-formed one.
            let out = match try_l_diverse_k_anonymize(&table, &costs, &sensitive, &cfg) {
                Err(KanonError::Core(e @ kanon_core::CoreError::InvalidL { .. })) => {
                    return Err(KanonError::Usage(e.to_string()))
                }
                r => accept_budgeted("\u{2113}-diverse k-anonymization", r?),
            };
            eprintln!(
                "\u{2113}-diverse k-anonymized (k = {k}, \u{2113} = {l}, sensitive attr {col}); \
                 loss = {:.4} ({})",
                out.loss,
                costs.measure_name()
            );
            out.table
        }
        other => {
            return Err(KanonError::Usage(format!(
                "unknown notion {other:?} (expected {})",
                NOTIONS.join("|")
            )))
        }
    };
    write_out(flags, &csv::generalized_to_csv(&gtable))
}

fn cmd_verify(name: &str, flags: &Flags) -> CmdResult {
    let schema = dataset_schema(name, flags)?;
    let k: usize = flags.parse_or("k", 0);
    let original = flags
        .get("in")
        .ok_or_else(|| KanonError::Usage("verify requires --in ORIGINAL.csv".to_string()))?;
    let anon = flags
        .get("anon")
        .ok_or_else(|| KanonError::Usage("verify requires --anon ANON.csv".to_string()))?;
    let table = csv::table_from_csv(&schema, &read_file(original)?, true)?;
    let gtable =
        csv::generalized_from_csv(&schema, &read_file(anon)?).map_err(|e| KanonError::Io {
            path: anon.to_string(),
            message: format!("cannot parse: {e}"),
        })?;

    let profile = AnonymityProfile::compute(&table, &gtable)?;
    println!("anonymity profile (largest k for which each notion holds):");
    println!("  k-anonymity:      {}", profile.k_anonymity);
    println!("  (1,k)-anonymity:  {}", profile.one_k);
    println!("  (k,1)-anonymity:  {}", profile.k_one);
    println!("  (k,k)-anonymity:  {}", profile.kk);
    println!("  global (1,k):     {}", profile.global_1k);
    if let (Ok(j), Ok(p)) = (
        journalist_risk(&table, &gtable),
        prosecutor_risk(&table, &gtable),
    ) {
        println!(
            "re-identification risk: journalist max {:.3} avg {:.3}; \
             prosecutor max {:.3} avg {:.3}",
            j.max_risk, j.avg_risk, p.max_risk, p.avg_risk
        );
    }
    if k > 0 {
        let pass = profile.kk >= k;
        println!(
            "requested k = {k}: (k,k) {}",
            if pass { "SATISFIED" } else { "VIOLATED" }
        );
        if !pass {
            // A failed check is a runtime (exit 1) outcome, not a usage
            // error: the request was well-formed, the table just fails it.
            exit(1);
        }
    }
    Ok(())
}

fn cmd_measure(name: &str, flags: &Flags) -> CmdResult {
    let schema = dataset_schema(name, flags)?;
    let table = load_table(name, &schema, flags)?;
    let stats = TableStats::compute(&table);
    println!(
        "{} rows, {} attributes",
        table.num_rows(),
        table.num_attrs()
    );
    for (j, (_, attr)) in schema.attrs().enumerate() {
        let dist = stats.attr(j);
        println!(
            "  {:<18} |domain| = {:<4} H = {:.3} bits, hierarchy: {} nodes, height {}",
            attr.name(),
            attr.domain().size(),
            dist.entropy(),
            attr.hierarchy().num_nodes(),
            attr.hierarchy().height()
        );
    }
    Ok(())
}

/// `kanon serve`: starts the crash-safe incremental anonymization
/// daemon over the loaded base table. Runs until `SHUTDOWN` (protocol)
/// or SIGINT/SIGTERM (graceful-shutdown watcher in [`main`]).
fn cmd_serve(name: &str, flags: &Flags) -> CmdResult {
    let schema = dataset_schema(name, flags)?;
    let table = load_table(name, &schema, flags)?;
    let k: usize = flags.parse_or("k", 0);
    if k == 0 {
        return Err(KanonError::Usage("serve requires --k".to_string()));
    }
    let state_dir = flags.get("state-dir").ok_or_else(|| {
        KanonError::Usage("serve requires --state-dir DIR (journal + snapshots)".to_string())
    })?;
    let measure = measure_flag(flags)?;
    let absorb_epsilon = match flags.get("absorb-epsilon") {
        None => 0.0,
        Some(v) => match v.parse::<f64>() {
            Ok(e) if e.is_finite() && e.total_cmp(&0.0).is_ge() => e,
            _ => {
                eprintln!("--absorb-epsilon must be a finite non-negative number");
                usage()
            }
        },
    };
    let shard_max = flags.parse_or("shard-max", kanon_core::config::SHARD_MAX_DEFAULT);
    if shard_max == 0 {
        return Err(KanonError::Usage(
            "--shard-max must be a positive integer".to_string(),
        ));
    }
    let cfg = kanon_serve::state::ServeConfig {
        k,
        measure,
        policy: row_policy(flags)?,
        shard_max,
        reopt_every: flags.parse_or("reopt-every", 0),
        absorb_epsilon,
    };
    let mut opts = kanon_serve::ServeOptions::new(std::path::PathBuf::from(state_dir));
    if let Some(listen) = flags.get("listen") {
        opts.listen = listen.to_string();
    }
    opts.snapshot_every = flags.parse_or("snapshot-every", opts.snapshot_every);
    let daemon = kanon_serve::Daemon::start(table, cfg, opts)?;
    daemon.run()
}

/// The stats format requested for this invocation: the `--stats[=…]` flag
/// wins over the `KANON_STATS` environment variable (`--stats=off`
/// explicitly disables even when the variable is set).
fn stats_format(flags: &Flags) -> Option<kanon_obs::StatsFormat> {
    match flags.get("stats") {
        Some(v) => kanon_obs::parse_stats_format(v),
        None => kanon_obs::env_stats_format(),
    }
}

/// Emits the stats report to `--stats-out FILE` or stderr. The JSON form
/// is a single line — when on stderr, always the last line — so scripts
/// can `tail -n 1` it.
fn emit_stats(flags: &Flags, fmt: kanon_obs::StatsFormat, report: &kanon_obs::Report) -> CmdResult {
    let text = match fmt {
        kanon_obs::StatsFormat::Json => format!("{}\n", report.to_json()),
        kanon_obs::StatsFormat::Table => report.render_table(),
    };
    match flags.get("stats-out") {
        Some(path) => std::fs::write(path, &text).map_err(|e| KanonError::Io {
            path: path.to_string(),
            message: e.to_string(),
        }),
        None => {
            eprint!("{text}");
            Ok(())
        }
    }
}

/// Dispatches the command with panic isolation: any panic escaping a
/// command body (injected faults included) is converted to the matching
/// typed error instead of aborting, so the process always exits through
/// the [`KanonError::exit_code`] contract.
fn dispatch(cmd: &str, dataset: &str, flags: &Flags) -> CmdResult {
    let run = || {
        // Force the KANON_FAILPOINTS env snapshot before any work: a
        // misspelled point name raises a typed `SpecError` here, which
        // `error_from_panic` maps to a usage error (exit 2), instead of
        // being silently ignored for the whole run.
        let _ = kanon_fault::armed();
        match cmd {
            "generate" => cmd_generate(dataset, flags),
            "anonymize" => cmd_anonymize(dataset, flags),
            "verify" => cmd_verify(dataset, flags),
            "measure" => cmd_measure(dataset, flags),
            "serve" => cmd_serve(dataset, flags),
            _ => usage(),
        }
    };
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
        Ok(r) => r,
        Err(payload) => Err(kanon_algos::error_from_panic(payload)),
    }
}

/// Installs the SIGINT/SIGTERM watcher: on delivery, flush the stats
/// report (clone of the session collector), drain the worker pool, and
/// exit with the conventional 130/143 code. The journal-before-apply
/// discipline of `kanon serve` makes this safe at any instant.
fn install_shutdown_watcher(
    flags: &Flags,
    fmt: Option<kanon_obs::StatsFormat>,
    collector: Option<kanon_obs::Collector>,
) {
    let flags = Flags(flags.0.clone());
    kanon_serve::signal::watch(Box::new(move |sig| {
        if let (Some(c), Some(fmt)) = (&collector, fmt) {
            let _ = emit_stats(&flags, fmt, &c.report());
        }
        kanon_parallel::shutdown_pool();
        eprintln!("error: interrupted by {}", sig.cause());
        exit(sig.exit_code());
    }));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    let cmd = args[0].as_str();
    let dataset = args[1].as_str();
    let flags = Flags::parse(&args[2..]);
    let fmt = stats_format(&flags);
    let collector = fmt.map(|_| kanon_obs::Collector::new());
    install_shutdown_watcher(&flags, fmt, collector.clone());
    // Silence the default panic hook: every panic is caught at the
    // dispatch boundary and reported once as a typed error.
    std::panic::set_hook(Box::new(|_| {}));
    let result = {
        let _guard = collector.as_ref().map(|c| c.install());
        dispatch(cmd, dataset, &flags)
    };
    let _ = std::panic::take_hook();
    // Counters are flushed and reported even when the command failed —
    // partial work is exactly what fault diagnosis needs to see.
    let mut code = match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    };
    if let (Some(c), Some(fmt)) = (&collector, fmt) {
        if let Err(e) = emit_stats(&flags, fmt, &c.report()) {
            eprintln!("error: {e}");
            code = if code == 0 { e.exit_code() } else { code };
        }
    }
    kanon_parallel::shutdown_pool();
    exit(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_pairs() {
        let f = flags(&["--k", "5", "--measure", "lm"]);
        assert_eq!(f.get("k"), Some("5"));
        assert_eq!(f.get("measure"), Some("lm"));
        assert_eq!(f.get("missing"), None);
        assert_eq!(f.parse_or::<usize>("k", 1), 5);
        assert_eq!(f.parse_or::<usize>("absent", 7), 7);
        assert_eq!(f.parse_or::<u64>("absent", 9), 9);
    }

    #[test]
    fn flags_parse_inline_and_bare_forms() {
        // --flag=value, bare --stats, and --stats=json all parse.
        let f = flags(&["--k=5", "--stats", "--out", "x.csv"]);
        assert_eq!(f.get("k"), Some("5"));
        assert_eq!(f.get("stats"), Some(""));
        assert_eq!(f.get("out"), Some("x.csv"));
        assert_eq!(stats_format(&f), Some(kanon_obs::StatsFormat::Table));
        let f = flags(&["--stats=json"]);
        assert_eq!(stats_format(&f), Some(kanon_obs::StatsFormat::Json));
        let f = flags(&["--stats=off"]);
        assert_eq!(stats_format(&f), None);
    }

    #[test]
    fn builtin_schemas_resolve() {
        let f = flags(&[]);
        assert_eq!(dataset_schema("art", &f).unwrap().num_attrs(), 6);
        assert_eq!(dataset_schema("adult", &f).unwrap().num_attrs(), 9);
        assert_eq!(dataset_schema("cmc", &f).unwrap().num_attrs(), 9);
        assert!(matches!(
            dataset_schema("nope", &f),
            Err(KanonError::Usage(_))
        ));
    }
}
