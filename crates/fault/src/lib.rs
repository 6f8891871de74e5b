//! # kanon-fault — deterministic failpoint registry
//!
//! Zero-dependency fault-injection hooks for reproducible robustness
//! testing. Production code marks interesting failure sites with
//! [`fail_point!`]; by default the marker is a single relaxed atomic
//! load and nothing ever fires. Tests and CI arm points either through
//! the `KANON_FAILPOINTS` environment variable (read exactly once, at
//! this crate's designated config point) or programmatically with
//! [`scoped`].
//!
//! ## Spec grammar
//!
//! ```text
//! KANON_FAILPOINTS = point '=' mode (',' point '=' mode)*
//! mode             = 'every:' N    -- typed fault on every Nth hit
//!                  | 'once:'  K    -- typed fault on exactly the Kth hit
//!                  | 'panic:' K    -- plain panic on the Kth hit
//!                  | 'off'         -- explicitly disarmed
//! ```
//!
//! Hit ordinals start at 1, so `once:1` fires on the first hit.
//! `every:N`/`once:K` raise a *typed* fault: the unwind payload is an
//! [`InjectedFault`] value which fallible entry points (`try_*` in
//! `kanon-algos`) downcast into `KanonError::FaultInjected`. `panic:K`
//! raises a plain string panic, simulating an organic bug rather than a
//! recognised injected fault.
//!
//! ## Determinism
//!
//! Firing is driven purely by per-point hit ordinals (the spec is the
//! seed — same spec, same serial hit sequence, same failure). Points
//! hit from *serial* code are therefore fully deterministic. Points hit
//! concurrently from worker threads race for ordinals; for those, use
//! [`worker_hit`], which keys on the stable worker index instead of the
//! arrival order.
//!
//! ## Failpoint catalogue
//!
//! | point                        | site                                     |
//! |------------------------------|------------------------------------------|
//! | `algos/agglomerative/merge`  | top of the agglomerative merge loop      |
//! | `algos/ldiversity/merge`     | top of the ℓ-diversity merge loop        |
//! | `algos/forest/round`         | top of each forest Borůvka round         |
//! | `algos/k1/row`               | per-row loop of the (k,1) algorithms     |
//! | `algos/one_k/upgrade`        | per-upgrade loop of Algorithm 6          |
//! | `algos/mondrian/split`       | per split attempt of the top-down splitter (Mondrian policy) |
//! | `algos/shard/partition`      | per split attempt of the top-down splitter (shard policy) |
//! | `data/csv/row`               | per-row CSV ingestion (poisons the row)  |
//! | `parallel/worker`            | every spawned worker (index semantics)   |
//! | `serve/accept`               | per accepted daemon connection (drops it) |
//! | `serve/batch/apply`          | top of the daemon's batch-apply path     |
//! | `serve/journal/append`       | per journal append (simulates torn write) |
//! | `serve/journal/compact`      | before a journal compaction (skips it)   |
//! | `serve/journal/replay`       | per replayed journal record at recovery  |
//! | `serve/snapshot/write`       | before a state snapshot (skips the write) |
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Canonical failpoint catalogue: every point name that a
/// `fail_point!` / [`fires`] / [`worker_hit`] site in the workspace may
/// pass, sorted. Kept in sync with the module-level table above and
/// cross-checked against the actual sites by `kanon-lint` rule L008
/// (the lint parses this constant out of the source, so adding a site
/// without cataloguing it — or cataloguing a point nothing hits — turns
/// the CI gate red).
pub const CATALOGUE: [&str; 15] = [
    "algos/agglomerative/merge",
    "algos/forest/round",
    "algos/k1/row",
    "algos/ldiversity/merge",
    "algos/mondrian/split",
    "algos/one_k/upgrade",
    "algos/shard/partition",
    "data/csv/row",
    "parallel/worker",
    "serve/accept",
    "serve/batch/apply",
    "serve/journal/append",
    "serve/journal/compact",
    "serve/journal/replay",
    "serve/snapshot/write",
];

/// The canonical failpoint catalogue as a slice — the public accessor
/// consumed by tooling (fault-matrix drivers, diagnostics) that wants
/// to enumerate every arm-able point.
pub fn catalogue() -> &'static [&'static str] {
    &CATALOGUE
}

/// Unwind payload raised by an armed `every:`/`once:` failpoint.
///
/// Fallible entry points catch unwinds and downcast to this type to
/// recognise injected faults (as opposed to organic panics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Name of the failpoint that fired.
    pub point: String,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at fail point `{}`", self.point)
    }
}

/// Unwind payload raised when the `KANON_FAILPOINTS` environment spec is
/// malformed — an unparsable entry, an unknown mode, or a point name not
/// in [`CATALOGUE`]. A typo'd fault-injection run must fail loudly as a
/// *usage* error (fallible entry points downcast this payload into
/// `KanonError::Usage`, exit code 2), not run green with the fault
/// silently disarmed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Human-readable description of what is wrong with the spec.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid KANON_FAILPOINTS: {}", self.message)
    }
}

/// Firing discipline of one armed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Typed fault on every Nth hit (N >= 1).
    Every(u64),
    /// Typed fault on exactly the Kth hit (K >= 1).
    Once(u64),
    /// Plain (untyped) panic on the Kth hit; for [`worker_hit`], K is
    /// the worker index instead of a hit ordinal.
    Panic(u64),
}

#[derive(Debug)]
struct ArmedPoint {
    mode: Mode,
    hits: AtomicU64,
}

impl ArmedPoint {
    /// Consume one hit ordinal; report whether the point fires.
    fn advance(&self) -> bool {
        let ordinal = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
        match self.mode {
            Mode::Every(n) => n > 0 && ordinal.is_multiple_of(n),
            Mode::Once(k) | Mode::Panic(k) => ordinal == k,
        }
    }
}

#[derive(Debug, Default)]
struct Registry {
    points: BTreeMap<String, ArmedPoint>,
}

impl Registry {
    /// Parses a spec. With `check_names`, every point name mentioned —
    /// including `off` entries — must be in [`CATALOGUE`]; this is the
    /// env-variable path, where an unknown name is a typo that would
    /// otherwise make a fault-injection run silently green. [`scoped`]
    /// parses without the check so unit tests can arm ad-hoc names.
    fn parse(spec: &str, check_names: bool) -> Result<Registry, String> {
        let mut points = BTreeMap::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (name, mode) = entry
                .split_once('=')
                .ok_or_else(|| format!("failpoint entry `{entry}` is missing `=`"))?;
            let (name, mode) = (name.trim(), mode.trim());
            if name.is_empty() {
                return Err(format!("failpoint entry `{entry}` has an empty name"));
            }
            if check_names && !CATALOGUE.contains(&name) {
                return Err(format!(
                    "unknown fail point `{name}` (catalogue: {})",
                    CATALOGUE.join(", ")
                ));
            }
            if mode == "off" {
                points.remove(name);
                continue;
            }
            let (kind, count) = mode
                .split_once(':')
                .ok_or_else(|| format!("failpoint mode `{mode}` is not `kind:count` or `off`"))?;
            let count: u64 = count
                .trim()
                .parse()
                .map_err(|_| format!("failpoint count `{count}` is not an unsigned integer"))?;
            let mode = match kind.trim() {
                // `once:0`/`panic:0` are meaningful for worker-indexed
                // points (indexes start at 0); ordinal points start
                // counting at 1, so 0 simply never fires there.
                "every" if count == 0 => {
                    return Err("failpoint period `every:0` needs a count >= 1".to_string())
                }
                "every" => Mode::Every(count),
                "once" => Mode::Once(count),
                "panic" => Mode::Panic(count),
                other => return Err(format!("unknown failpoint kind `{other}`")),
            };
            points.insert(
                name.to_string(),
                ArmedPoint {
                    mode,
                    hits: AtomicU64::new(0),
                },
            );
        }
        Ok(Registry { points })
    }
}

/// Fast-path gate: true iff any failpoint is currently armed.
static ARMED: AtomicBool = AtomicBool::new(false);

/// Scoped override installed by [`scoped`]; `None` means "use the env
/// snapshot". Worker threads take this lock only on the slow path
/// (after [`armed`] returned true), so disarmed runs never touch it.
static OVERRIDE: Mutex<Option<Arc<Registry>>> = Mutex::new(None);

/// Serializes [`scoped`] users so concurrent tests cannot clobber each
/// other's armed points.
static SCOPE_LOCK: Mutex<()> = Mutex::new(());

/// Designated config point for `KANON_FAILPOINTS` (lint rule L003):
/// the environment is read exactly once per process and the parsed
/// registry cached for the lifetime of the program.
///
/// A malformed spec — including a point name missing from
/// [`CATALOGUE`] — unwinds with a typed [`SpecError`] payload:
/// silently ignoring a typo in a fault-injection run would make CI
/// green for the wrong reason, and the typed payload lets the CLI map
/// it to a usage error (exit code 2) instead of a generic panic.
fn env_registry() -> &'static Registry {
    static ENV: OnceLock<Registry> = OnceLock::new();
    ENV.get_or_init(|| {
        let spec = std::env::var("KANON_FAILPOINTS").unwrap_or_default();
        let reg = match Registry::parse(&spec, true) {
            Ok(reg) => reg,
            Err(message) => std::panic::panic_any(SpecError { message }),
        };
        if !reg.points.is_empty() {
            ARMED.store(true, Ordering::Relaxed);
        }
        reg
    })
}

/// Cheap check used by the [`fail_point!`] macro: one relaxed atomic
/// load when nothing is armed. Forces the env snapshot on first call so
/// `KANON_FAILPOINTS` set at process start is honoured.
pub fn armed() -> bool {
    static ENV_SEEN: AtomicBool = AtomicBool::new(false);
    if !ENV_SEEN.load(Ordering::Relaxed) {
        let _ = env_registry();
        ENV_SEEN.store(true, Ordering::Relaxed);
    }
    ARMED.load(Ordering::Relaxed)
}

/// Run `f` against the active registry (scoped override if present,
/// else the env snapshot).
fn with_active<R>(f: impl FnOnce(&Registry) -> R) -> R {
    let guard = OVERRIDE.lock().unwrap_or_else(|e| e.into_inner());
    match guard.as_ref() {
        Some(reg) => {
            let reg = Arc::clone(reg);
            drop(guard);
            f(&reg)
        }
        None => {
            drop(guard);
            f(env_registry())
        }
    }
}

/// Register one hit at `name`; unwinds if the point fires.
///
/// `every:`/`once:` modes raise a typed [`InjectedFault`] payload;
/// `panic:` raises a plain string panic. Prefer the [`fail_point!`]
/// macro, which short-circuits on the disarmed fast path.
pub fn hit(name: &str) {
    with_active(|reg| {
        if let Some(point) = reg.points.get(name) {
            if point.advance() {
                match point.mode {
                    Mode::Panic(_) => panic!("injected panic at fail point `{name}`"),
                    Mode::Every(_) | Mode::Once(_) => std::panic::panic_any(InjectedFault {
                        point: name.to_string(),
                    }),
                }
            }
        }
    })
}

/// Non-unwinding form of [`hit`]: consume one ordinal and report
/// whether the point fired. Used for data poisoning, where the caller
/// wants to route the fault through an error path (e.g. treat a CSV row
/// as unparseable) rather than unwind.
pub fn fires(name: &str) -> bool {
    if !armed() {
        return false;
    }
    with_active(|reg| reg.points.get(name).is_some_and(ArmedPoint::advance))
}

/// Worker-indexed hit for points reached concurrently from a thread
/// pool, where arrival-order ordinals would be racy. Fires with
/// *index* semantics: `panic:K` plain-panics in the worker with index
/// `K` (every dispatch), `once:K` raises a typed [`InjectedFault`] in
/// worker `K`; `every:` is ignored here.
pub fn worker_hit(name: &str, worker: usize) {
    if !armed() {
        return;
    }
    let mode = with_active(|reg| reg.points.get(name).map(|p| p.mode));
    match mode {
        Some(Mode::Panic(k)) if worker as u64 == k => {
            panic!("injected panic in worker {worker} at fail point `{name}`")
        }
        Some(Mode::Once(k)) if worker as u64 == k => std::panic::panic_any(InjectedFault {
            point: name.to_string(),
        }),
        _ => {}
    }
}

/// Mark a failure site. Disarmed cost: one relaxed atomic load.
///
/// ```ignore
/// kanon_fault::fail_point!("algos/agglomerative/merge");
/// ```
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {
        if $crate::armed() {
            $crate::hit($name);
        }
    };
}

/// Guard returned by [`scoped`]; disarms the override on drop.
pub struct ScopedFaults {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for ScopedFaults {
    fn drop(&mut self) {
        let mut guard = OVERRIDE.lock().unwrap_or_else(|e| e.into_inner());
        *guard = None;
        ARMED.store(!env_registry().points.is_empty(), Ordering::Relaxed);
    }
}

/// Programmatically arm failpoints for the lifetime of the returned
/// guard. Hit counters start at zero for each scope, so `once:K`
/// semantics are reproducible per test regardless of what ran before.
/// Concurrent callers are serialized on a global lock (the registry is
/// process-wide state). Panics on a malformed spec.
pub fn scoped(spec: &str) -> ScopedFaults {
    let serial = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let reg = match Registry::parse(spec, false) {
        Ok(reg) => reg,
        Err(msg) => panic!("invalid failpoint spec: {msg}"),
    };
    let armed = !reg.points.is_empty();
    {
        let mut guard = OVERRIDE.lock().unwrap_or_else(|e| e.into_inner());
        *guard = Some(Arc::new(reg));
    }
    ARMED.store(
        armed || !env_registry().points.is_empty(),
        Ordering::Relaxed,
    );
    ScopedFaults { _serial: serial }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn catalogue_is_sorted_and_unique() {
        let mut sorted = CATALOGUE.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted, CATALOGUE,
            "CATALOGUE must be sorted and free of duplicates"
        );
        assert_eq!(catalogue(), &CATALOGUE);
    }

    #[test]
    fn disarmed_points_never_fire() {
        let _s = scoped("");
        fail_point!("nowhere");
        assert!(!fires("nowhere"));
    }

    #[test]
    fn once_fires_on_exact_ordinal() {
        let _s = scoped("p=once:3");
        assert!(!fires("p"));
        assert!(!fires("p"));
        assert!(fires("p"));
        assert!(!fires("p"));
    }

    #[test]
    fn every_fires_periodically() {
        let _s = scoped("p=every:2");
        let fired: Vec<bool> = (0..6).map(|_| fires("p")).collect();
        assert_eq!(fired, vec![false, true, false, true, false, true]);
    }

    #[test]
    fn hit_raises_typed_payload() {
        let _s = scoped("p=once:1");
        let err = catch_unwind(AssertUnwindSafe(|| hit("p"))).unwrap_err();
        let fault = err.downcast::<InjectedFault>().expect("typed payload");
        assert_eq!(fault.point, "p");
    }

    #[test]
    fn panic_mode_raises_plain_panic() {
        let _s = scoped("p=panic:1");
        let err = catch_unwind(AssertUnwindSafe(|| hit("p"))).unwrap_err();
        let msg = err.downcast::<String>().expect("string payload");
        assert!(msg.contains("injected panic"), "{msg}");
    }

    #[test]
    fn worker_hit_keys_on_index() {
        let _s = scoped("w=panic:2");
        worker_hit("w", 0);
        worker_hit("w", 1);
        let err = catch_unwind(AssertUnwindSafe(|| worker_hit("w", 2))).unwrap_err();
        let msg = err.downcast::<String>().expect("string payload");
        assert!(msg.contains("worker 2"), "{msg}");
    }

    #[test]
    fn off_disarms_a_point() {
        let _s = scoped("p=once:1,p=off");
        assert!(!fires("p"));
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in ["p", "p=every", "p=every:x", "p=every:0", "p=sometimes:1"] {
            assert!(
                Registry::parse(bad, false).is_err(),
                "spec `{bad}` should fail"
            );
        }
        // Worker-index semantics make 0 legal for once:/panic:.
        assert!(Registry::parse("p=panic:0", false).is_ok());
        assert!(Registry::parse("p=once:0", false).is_ok());
    }

    #[test]
    fn env_path_rejects_uncatalogued_names() {
        // Regression: the env path used to validate modes but silently
        // accept unknown point names, so a typo'd KANON_FAILPOINTS run
        // passed CI with the fault never armed.
        let err = Registry::parse("bogus/point=once:1", true).unwrap_err();
        assert!(err.contains("unknown fail point `bogus/point`"), "{err}");
        // `off` entries are names too — a typo there is just as silent.
        let err = Registry::parse("bogus/point=off", true).unwrap_err();
        assert!(err.contains("unknown fail point"), "{err}");
        // Every catalogued name passes with every mode.
        for point in CATALOGUE {
            let spec = format!("{point}=once:1");
            assert!(Registry::parse(&spec, true).is_ok(), "spec `{spec}`");
        }
        // The scoped path still accepts ad-hoc names for unit tests.
        assert!(Registry::parse("bogus/point=once:1", false).is_ok());
    }

    #[test]
    fn spec_error_displays_the_variable_name() {
        let e = SpecError {
            message: "unknown fail point `x`".to_string(),
        };
        assert_eq!(
            e.to_string(),
            "invalid KANON_FAILPOINTS: unknown fail point `x`"
        );
    }

    #[test]
    fn scope_resets_counters() {
        {
            let _s = scoped("p=once:1");
            assert!(fires("p"));
        }
        let _s = scoped("p=once:1");
        assert!(fires("p"), "fresh scope must restart ordinals");
    }
}
