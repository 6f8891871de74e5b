//! The crate's single designated configuration point (lint rule L003):
//! every `KANON_*` environment read of `kanon-core` lives here, so the
//! full set of environment knobs is auditable in one place and snapshot
//! semantics stay uniform.
//!
//! Current knobs:
//!
//! * `KANON_SERVE_WORK_RATE` — work units per millisecond used by
//!   `kanon serve` to map a request deadline onto the deterministic work
//!   budget; values < 1 are ignored.
//! * `KANON_SERVE_RETRIES` — default retry attempts for transient batch
//!   failures in `kanon serve`.
//! * `KANON_SERVE_BACKOFF_MS` — base of the daemon's deterministic
//!   exponential retry backoff (`base · 2^attempt` ms).
//! * `KANON_SERVE_MAX_FRAME` — maximum accepted request frame, in bytes;
//!   values < 1 are ignored.
//! * `KANON_SERVE_IDLE_TIMEOUT_MS` — per-read idle timeout on accepted
//!   serve connections (`0` disables).
//!
//! All knobs are snapshotted once per process.

use std::sync::OnceLock;

/// The built-in shard-size bound of the shard-and-conquer pipeline when
/// `--shard-max` (or `ShardConfig::with_shard_max`) does not set one.
pub const SHARD_MAX_DEFAULT: usize = 10_000;

/// Shared snapshot-once reader for the `u64`-valued serve knobs.
fn env_u64(cell: &'static OnceLock<u64>, var: &str, min: u64, default: u64) -> u64 {
    *cell.get_or_init(|| {
        std::env::var(var)
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .filter(|&v| v >= min)
            .unwrap_or(default)
    })
}

/// Built-in deadline→budget conversion rate for `kanon serve`, in work
/// units per millisecond. Deliberately conservative: the daemon maps a
/// wall-clock deadline onto the *deterministic* work budget, so the same
/// request always degrades at the same point regardless of machine speed.
pub const SERVE_WORK_RATE_DEFAULT: u64 = 5_000;

/// Work units per millisecond of request deadline
/// (`KANON_SERVE_WORK_RATE`, else [`SERVE_WORK_RATE_DEFAULT`]).
pub fn serve_work_rate() -> u64 {
    static RATE: OnceLock<u64> = OnceLock::new();
    env_u64(&RATE, "KANON_SERVE_WORK_RATE", 1, SERVE_WORK_RATE_DEFAULT)
}

/// Default retry attempts for transient batch failures in `kanon serve`
/// (`KANON_SERVE_RETRIES`, else 2). `0` means "no retries".
pub fn serve_retries() -> u64 {
    static RETRIES: OnceLock<u64> = OnceLock::new();
    env_u64(&RETRIES, "KANON_SERVE_RETRIES", 0, 2)
}

/// Base of the daemon's deterministic exponential retry backoff, in
/// milliseconds (`KANON_SERVE_BACKOFF_MS`, else 10): attempt `i` sleeps
/// `base · 2^i` ms. The schedule is a pure function of the attempt
/// index, so retried runs stay reproducible.
pub fn serve_backoff_ms() -> u64 {
    static BACKOFF: OnceLock<u64> = OnceLock::new();
    env_u64(&BACKOFF, "KANON_SERVE_BACKOFF_MS", 0, 10)
}

/// Maximum accepted request frame for the serve protocol, in bytes
/// (`KANON_SERVE_MAX_FRAME`, else 16 MiB). Bounds the allocation a
/// hostile length prefix can demand.
pub fn serve_max_frame() -> u64 {
    static MAX: OnceLock<u64> = OnceLock::new();
    env_u64(&MAX, "KANON_SERVE_MAX_FRAME", 1, 16 * 1024 * 1024)
}

/// Per-read idle timeout on accepted serve connections, in milliseconds
/// (`KANON_SERVE_IDLE_TIMEOUT_MS`, else 30 000; `0` disables). Each
/// connection gets its own thread, but without a timeout a client that
/// connects and sends nothing pins a thread — and at shutdown, a scope
/// join — forever.
pub fn serve_idle_timeout_ms() -> u64 {
    static IDLE: OnceLock<u64> = OnceLock::new();
    env_u64(&IDLE, "KANON_SERVE_IDLE_TIMEOUT_MS", 0, 30_000)
}
