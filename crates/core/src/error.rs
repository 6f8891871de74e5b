//! Error types for the `kanon-core` crate.

use std::fmt;

/// Errors produced while building or manipulating schemas, hierarchies,
/// tables and generalizations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum CoreError {
    /// A domain was declared with no values.
    EmptyDomain,
    /// A value label appears twice in a domain declaration.
    DuplicateValue(String),
    /// A value id is out of range for its domain.
    ValueOutOfRange { value: u32, domain_size: u32 },
    /// A subset supplied to a hierarchy builder is empty.
    EmptySubset,
    /// Two subsets of a hierarchy overlap without one containing the other,
    /// so the collection is not laminar and cannot be compiled into a tree.
    NotLaminar { a: String, b: String },
    /// A record has the wrong number of attributes for its schema.
    ArityMismatch { expected: usize, found: usize },
    /// An attribute index is out of range for the schema.
    AttrOutOfRange { attr: usize, num_attrs: usize },
    /// A node id does not belong to the hierarchy it was used with.
    NodeOutOfRange { node: u32, num_nodes: u32 },
    /// Tables passed to an operation have different numbers of rows.
    RowCountMismatch { left: usize, right: usize },
    /// Tables passed to an operation were built over different schemas.
    SchemaMismatch,
    /// The requested anonymity parameter is not achievable
    /// (e.g. `k` larger than the number of records, or `k == 0`).
    InvalidK { k: usize, n: usize },
    /// The requested diversity parameter ℓ is not achievable (`ℓ == 0`,
    /// or `ℓ` larger than the number of distinct sensitive values).
    InvalidL { l: usize, distinct: usize },
    /// A clustering is not a partition of the table's row indices.
    InvalidClustering(String),
    /// A label could not be resolved against a domain.
    UnknownLabel { attr: String, label: String },
    /// Interval hierarchy widths must be non-decreasing divisors of the
    /// domain layout; this variant reports a bad width sequence.
    BadIntervalWidths(String),
    /// CSV input ended in the middle of a quoted field (EOF while the
    /// closing `"` was still pending).
    UnterminatedQuote,
    /// The input or its parameters break an invariant or limit of the
    /// pipeline (e.g. a value that escapes its cluster's closure node, a
    /// sharded run whose clusters fail k or ℓ, or a full-domain lattice
    /// too large to enumerate).
    InconsistentInput(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::EmptyDomain => write!(f, "attribute domain must contain at least one value"),
            CoreError::DuplicateValue(v) => write!(f, "duplicate value label {v:?} in domain"),
            CoreError::ValueOutOfRange { value, domain_size } => {
                write!(
                    f,
                    "value id {value} out of range for domain of size {domain_size}"
                )
            }
            CoreError::EmptySubset => write!(f, "hierarchy subsets must be non-empty"),
            CoreError::NotLaminar { a, b } => {
                write!(
                    f,
                    "hierarchy collection is not laminar: {a} and {b} overlap without nesting"
                )
            }
            CoreError::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "record has {found} attributes, schema expects {expected}"
                )
            }
            CoreError::AttrOutOfRange { attr, num_attrs } => {
                write!(
                    f,
                    "attribute index {attr} out of range (schema has {num_attrs})"
                )
            }
            CoreError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "hierarchy node {node} out of range ({num_nodes} nodes)")
            }
            CoreError::RowCountMismatch { left, right } => {
                write!(f, "tables have different row counts: {left} vs {right}")
            }
            CoreError::SchemaMismatch => write!(f, "tables were built over different schemas"),
            CoreError::InvalidK { k, n } => {
                write!(
                    f,
                    "anonymity parameter k={k} is invalid for a table of {n} records"
                )
            }
            CoreError::InvalidL { l, distinct } => {
                write!(
                    f,
                    "diversity parameter \u{2113}={l} is invalid: the sensitive \
                     attribute has {distinct} distinct value(s)"
                )
            }
            CoreError::InvalidClustering(msg) => write!(f, "invalid clustering: {msg}"),
            CoreError::UnknownLabel { attr, label } => {
                write!(f, "unknown label {label:?} for attribute {attr:?}")
            }
            CoreError::BadIntervalWidths(msg) => write!(f, "bad interval widths: {msg}"),
            CoreError::UnterminatedQuote => {
                write!(
                    f,
                    "CSV input ends inside a quoted field (missing closing '\"')"
                )
            }
            CoreError::InconsistentInput(msg) => write!(f, "inconsistent input: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenience result alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Workspace-level error taxonomy for fallible (`try_*`) entry points.
///
/// Wraps [`CoreError`] for ordinary domain failures and adds variants
/// for the fault-tolerance layer: recognised injected faults, isolated
/// worker panics, organic panics caught at an entry-point boundary,
/// I/O failures and usage errors. Every variant carries enough context
/// to report the failure without a backtrace, and [`KanonError::exit_code`]
/// defines the stable process-exit mapping used by the CLI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KanonError {
    /// A domain error from schema/table/hierarchy manipulation.
    Core(CoreError),
    /// A `kanon-fault` failpoint fired (`every:`/`once:` modes).
    FaultInjected {
        /// Name of the failpoint that fired.
        point: String,
    },
    /// A worker thread panicked inside `kanon-parallel`; the panic was
    /// isolated and converted rather than aborting the scope. When
    /// several workers panic, the lowest worker index is reported.
    WorkerPanic {
        /// Index of the (lowest) panicking worker.
        worker: usize,
        /// Panic message, when the payload was a string.
        message: String,
    },
    /// An organic panic caught at a fallible entry-point boundary.
    Panic {
        /// Panic message, when the payload was a string.
        message: String,
    },
    /// The deterministic work budget (`KANON_WORK_BUDGET`) was
    /// exhausted and no valid partial result could be produced.
    /// (When a valid partial result exists, entry points return
    /// `Budgeted::BudgetExhausted { best_so_far, .. }` instead.)
    BudgetExhausted {
        /// The configured budget (sum of deterministic work counters).
        budget: u64,
        /// Work spent when the budget tripped.
        spent: u64,
    },
    /// A file could not be read or written.
    Io {
        /// Path involved in the failed operation.
        path: String,
        /// Stringified OS error.
        message: String,
    },
    /// The request itself was malformed (bad flags, invalid parameter
    /// combinations). Maps to exit code 2.
    Usage(String),
    /// The process was interrupted from outside mid-run: a termination
    /// signal, or the consumer of stdout going away (`EPIPE`). Maps to
    /// the conventional shell exit codes (130 `SIGINT`, 143 `SIGTERM`,
    /// 141 `SIGPIPE`) so wrappers can tell "asked to stop" from "failed".
    Interrupted {
        /// What interrupted the run: `"SIGINT"`, `"SIGTERM"` or
        /// `"EPIPE"`.
        cause: String,
    },
}

impl KanonError {
    /// Stable process-exit mapping: `0` success, `1` runtime error,
    /// `2` usage error, `128+signal` for interruptions (130 `SIGINT`,
    /// 143 `SIGTERM`, 141 `EPIPE`/`SIGPIPE`).
    pub fn exit_code(&self) -> i32 {
        match self {
            KanonError::Usage(_) => 2,
            KanonError::Interrupted { cause } => match cause.as_str() {
                "SIGINT" => 130,
                "SIGTERM" => 143,
                "EPIPE" => 141,
                _ => 1,
            },
            _ => 1,
        }
    }
}

impl fmt::Display for KanonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KanonError::Core(e) => write!(f, "{e}"),
            KanonError::FaultInjected { point } => {
                write!(f, "injected fault at fail point `{point}`")
            }
            KanonError::WorkerPanic { worker, message } => {
                write!(f, "worker {worker} panicked: {message}")
            }
            KanonError::Panic { message } => write!(f, "internal panic: {message}"),
            KanonError::BudgetExhausted { budget, spent } => {
                write!(
                    f,
                    "work budget exhausted: spent {spent} of {budget} work units"
                )
            }
            KanonError::Io { path, message } => write!(f, "{path}: {message}"),
            KanonError::Usage(msg) => write!(f, "usage error: {msg}"),
            KanonError::Interrupted { cause } => write!(f, "interrupted by {cause}"),
        }
    }
}

impl std::error::Error for KanonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KanonError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for KanonError {
    fn from(e: CoreError) -> Self {
        KanonError::Core(e)
    }
}

/// Result alias for fallible entry points.
pub type KanonResult<T> = std::result::Result<T, KanonError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::InvalidK { k: 10, n: 5 };
        assert!(e.to_string().contains("k=10"));
        assert!(e.to_string().contains("5 records"));
    }

    #[test]
    fn invalid_l_names_the_diversity_parameter() {
        // Regression: an infeasible ℓ used to be reported through
        // `InvalidK`, so the message called ℓ "k". The dedicated variant
        // must name ℓ and must not mention k at all.
        let e = CoreError::InvalidL { l: 4, distinct: 2 };
        let msg = e.to_string();
        assert!(
            msg.contains("\u{2113}=4"),
            "message must name \u{2113}: {msg}"
        );
        assert!(
            msg.contains("2 distinct"),
            "message must give the bound: {msg}"
        );
        assert!(
            !msg.contains("k="),
            "message must not call \u{2113} \"k\": {msg}"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }

    #[test]
    fn errors_compare_equal() {
        assert_eq!(CoreError::EmptyDomain, CoreError::EmptyDomain);
        assert_ne!(
            CoreError::EmptySubset,
            CoreError::DuplicateValue("x".into())
        );
    }

    #[test]
    fn kanon_error_wraps_core() {
        let e: KanonError = CoreError::EmptyDomain.into();
        assert_eq!(e, KanonError::Core(CoreError::EmptyDomain));
        assert_eq!(e.to_string(), CoreError::EmptyDomain.to_string());
    }

    #[test]
    fn interruption_exit_codes_follow_shell_convention() {
        for (cause, code) in [("SIGINT", 130), ("SIGTERM", 143), ("EPIPE", 141)] {
            let e = KanonError::Interrupted {
                cause: cause.to_string(),
            };
            assert_eq!(e.exit_code(), code, "{cause}");
            assert!(e.to_string().contains(cause));
        }
        // Unknown causes degrade to the generic runtime code.
        assert_eq!(
            KanonError::Interrupted {
                cause: "SIGHUP".into()
            }
            .exit_code(),
            1
        );
    }

    #[test]
    fn exit_codes_are_stable() {
        assert_eq!(KanonError::Usage("bad flag".into()).exit_code(), 2);
        assert_eq!(KanonError::Core(CoreError::EmptyDomain).exit_code(), 1);
        assert_eq!(
            KanonError::FaultInjected { point: "p".into() }.exit_code(),
            1
        );
        assert_eq!(
            KanonError::WorkerPanic {
                worker: 3,
                message: "boom".into()
            }
            .exit_code(),
            1
        );
    }

    #[test]
    fn kanon_error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KanonError>();
    }
}
