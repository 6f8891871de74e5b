//! `kanon-serve`: a crash-safe incremental anonymization daemon.
//!
//! The daemon holds the hierarchies, the table of every accepted row and
//! its published clustering resident ([`state`]), and anonymizes
//! appended micro-batches incrementally over a tiny length-prefixed
//! protocol ([`proto`]). Robustness is the point:
//!
//! * **Deadlines** — a `BATCH deadline_ms=N` request maps its deadline
//!   onto the deterministic work budget (`N × KANON_SERVE_WORK_RATE`
//!   units); a timed-out apply commits a *valid* `BudgetExhausted`
//!   partial instead of failing.
//! * **Retries** — transient faults (`FaultInjected`, `WorkerPanic`)
//!   are retried with deterministic exponential backoff; permanent
//!   failures roll the batch back (journal `R` marker) and leave state
//!   untouched.
//! * **Recovery** — every batch is journaled (fsync) *before* it is
//!   applied ([`journal`]), and state snapshots periodically and after
//!   every adopted reopt ([`state`]), so recovery never re-runs a
//!   snapshotted reopt; a `kill -9` at any instant recovers to
//!   byte-identical state on restart — including a *second* `kill -9`
//!   after a torn tail: recovery truncates the journal to its intact
//!   prefix before anything reopens it for append, so post-restart
//!   acknowledgments can never land behind crash garbage.
//! * **Compaction** — after each successful snapshot the journal is
//!   atomically rewritten down to the records the snapshot does not
//!   cover, so disk usage is O(batches since last snapshot) instead of
//!   O(lifetime).
//! * **Concurrent reads** — batches stay strictly serialized behind the
//!   single-writer core lock, but `OUTPUT`/`STATS`/`HEALTH` are served
//!   from per-connection threads against an immutable published view
//!   that is swapped wholesale after every commit and written to the
//!   socket straight from its `Arc`: a slow reader never blocks
//!   ingestion, and no reader ever observes a mid-commit state.
//! * **Degradation** — bad rows follow the `--on-bad-row` policy, a
//!   failed snapshot or compaction only lengthens recovery, and the
//!   `STATS`/`HEALTH` endpoints serve the aggregated `kanon-obs`
//!   report.
//!
//! Fail points: `serve/accept`, `serve/batch/apply`,
//! `serve/journal/append`, `serve/journal/compact`,
//! `serve/journal/replay`, `serve/snapshot/write` (see
//! `kanon_fault::CATALOGUE`).

#![warn(missing_docs)]
#![deny(unsafe_code)]
// kanon-lint: allow(L004) the self-pipe signal watcher needs four libc
// calls (signal/pipe/read/write) that have no safe-std equivalent; all
// unsafe is confined to src/signal.rs behind per-call SAFETY arguments,
// and the rest of the crate stays deny(unsafe_code).

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use kanon_algos::fallible::error_from_panic;
use kanon_core::error::{KanonError, KanonResult};
use kanon_core::table::Table;
use kanon_obs::{count, count_runtime, Collector, Counter, Report, RuntimeCounter};

pub mod journal;
pub mod proto;
#[allow(unsafe_code)]
pub mod signal;
pub mod state;

use journal::{Journal, RecordKind};
use proto::{parse_request, read_frame, write_frame, Request};
use state::{ServeConfig, ServeState};

/// Fail point: drops an incoming connection before it is served.
pub const POINT_ACCEPT: &str = "serve/accept";

/// Name of the bound-address file the daemon writes inside the state
/// directory (clients of `--listen 127.0.0.1:0` read the port here).
pub const ADDR_FILE: &str = "serve.addr";
/// Name of the write-ahead journal file inside the state directory.
pub const JOURNAL_FILE: &str = "journal.log";
/// Name of the snapshot file inside the state directory.
pub const SNAPSHOT_FILE: &str = "state.snap";

/// Runtime options of a daemon instance (protocol/lifecycle knobs; the
/// anonymization parameters live in [`state::ServeConfig`]).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address: `host:port` for TCP, or a filesystem path
    /// (anything containing `/`) for a Unix socket.
    pub listen: String,
    /// Directory holding journal, snapshots and the address file.
    pub state_dir: PathBuf,
    /// Snapshot every N applied batches (0 = never; default 8).
    pub snapshot_every: u64,
    /// Retry attempts for transient faults (`KANON_SERVE_RETRIES`).
    pub retries: u64,
    /// Base backoff between retries, doubled per attempt
    /// (`KANON_SERVE_BACKOFF_MS`).
    pub backoff_ms: u64,
    /// Work-budget units granted per deadline millisecond
    /// (`KANON_SERVE_WORK_RATE`).
    pub work_rate: u64,
    /// Maximum accepted frame size in bytes (`KANON_SERVE_MAX_FRAME`).
    pub max_frame: u64,
    /// Per-read idle timeout on accepted connections, in milliseconds
    /// (`KANON_SERVE_IDLE_TIMEOUT_MS`; 0 disables). Connections get
    /// their own threads, but a client that connects and then sends
    /// nothing would otherwise pin a thread (and at shutdown, a scope
    /// join) forever.
    pub idle_timeout_ms: u64,
}

impl ServeOptions {
    /// Options with a snapshot every 8 batches, the `KANON_SERVE_*`
    /// environment defaults and an ephemeral localhost listener.
    pub fn new(state_dir: PathBuf) -> ServeOptions {
        ServeOptions {
            listen: "127.0.0.1:0".to_string(),
            state_dir,
            snapshot_every: 8,
            retries: kanon_core::config::serve_retries(),
            backoff_ms: kanon_core::config::serve_backoff_ms(),
            work_rate: kanon_core::config::serve_work_rate(),
            max_frame: kanon_core::config::serve_max_frame(),
            idle_timeout_ms: kanon_core::config::serve_idle_timeout_ms(),
        }
    }
}

/// A response: text built for the request, or one part of a published
/// view, written to the socket straight from the shared `Arc`.
enum Reply {
    Text(String),
    View(Arc<PublishedView>, fn(&PublishedView) -> &str),
}

impl Reply {
    fn as_str(&self) -> &str {
        match self {
            Reply::Text(text) => text,
            Reply::View(view, part) => part(view),
        }
    }
}

/// What the connection loop should do after a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Control {
    Continue,
    Shutdown,
}

/// A bound listener: TCP or Unix socket.
pub enum Listener {
    /// A TCP listener (`host:port`).
    Tcp(TcpListener),
    /// A Unix-domain socket listener (any `--listen` value with a `/`).
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
}

impl Listener {
    /// Binds `listen` (TCP `host:port`, or a Unix socket path when the
    /// value contains `/`). Returns the listener and its display
    /// address — for TCP with port 0 this is the actual bound port.
    pub fn bind(listen: &str) -> std::io::Result<(Listener, String)> {
        #[cfg(unix)]
        if listen.contains('/') {
            use std::os::unix::fs::FileTypeExt;
            // A stale socket file from a killed process blocks bind —
            // but only an actual socket may be unlinked: a typo'd
            // `--listen` pointing at a regular file must never silently
            // delete it.
            match std::fs::symlink_metadata(listen) {
                Ok(md) if md.file_type().is_socket() => {
                    let _ = std::fs::remove_file(listen);
                }
                Ok(_) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::AlreadyExists,
                        format!("--listen path {listen} exists and is not a socket"),
                    ));
                }
                Err(_) => {}
            }
            let l = std::os::unix::net::UnixListener::bind(listen)?;
            return Ok((Listener::Unix(l), listen.to_string()));
        }
        let l = TcpListener::bind(listen)?;
        let addr = l.local_addr()?.to_string();
        Ok((Listener::Tcp(l), addr))
    }

    /// Accepts one connection, arms its per-read idle timeout, and
    /// clones the kick handle shutdown uses to unblock its reader.
    fn accept(
        &self,
        idle: Option<std::time::Duration>,
    ) -> std::io::Result<(Box<dyn Conn>, Option<Kick>)> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                // Every response is one frame in one write: send it now
                // rather than hold it for the peer's delayed ACK.
                let _ = s.set_nodelay(true);
                let _ = s.set_read_timeout(idle);
                let kick = s.try_clone().ok().map(Kick::Tcp);
                Ok((Box::new(s), kick))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                let _ = s.set_read_timeout(idle);
                let kick = s.try_clone().ok().map(Kick::Unix);
                Ok((Box::new(s), kick))
            }
        }
    }
}

/// The single-writer core: state, journal and the stats collectors.
/// Exactly one thread holds this at a time (the `Daemon::core` mutex),
/// which is the one-writer invariant — reads never touch it.
struct Core {
    state: ServeState,
    journal: Journal,
    /// Lifetime stats: every write request's fresh per-request
    /// collector is folded in here after the request finishes. Rendering
    /// the published view runs under a throwaway collector instead, so
    /// this block reflects only the committed request history.
    lifetime: Collector,
    /// Counters folded during startup replay — kept out of `lifetime`
    /// so a recovered daemon's `STATS` stays comparable to an uncrashed
    /// twin's.
    recovery: Collector,
    /// Journal records replayed during startup recovery.
    replayed: u64,
    /// Monotonic version of the published view (bumped per render).
    version: u64,
}

/// An immutable, fully rendered read view. Built under the core lock
/// after every commit and swapped into `Daemon::published` wholesale,
/// so a concurrent reader sees either the pre- or the post-commit
/// view — never a mid-commit state.
struct PublishedView {
    /// Render generation (monotonic; for tests and debugging).
    version: u64,
    output: String,
    stats: String,
    health: String,
}

impl Core {
    /// Renders the committed state into an immutable view. The
    /// presentation work (CSV rendering, loss recomputation) runs under
    /// a throwaway collector so the lifetime counters keep reflecting
    /// only the committed request history — that is what makes a live
    /// daemon's `STATS` byte-comparable to its recovered twin's.
    fn render_view(&mut self) -> PublishedView {
        self.version += 1;
        let (output, _) = metered(|| -> KanonResult<String> {
            let loss = self.state.published_loss()?;
            let csv = self.state.published_csv()?;
            Ok(format!(
                "OK rows={} loss={:.6}\n{}",
                self.state.published_rows(),
                loss,
                csv
            ))
        });
        let output = output.unwrap_or_else(|e| format!("ERR {}: {e}", class(&e)));
        // Line 2 is the deterministic lifetime counter block
        // (byte-identical across thread counts and restarts of the same
        // request history); line 3 is the full lifetime report including
        // runtime data; line 4 is the recovery block — counters folded
        // during startup replay, all-zero on a daemon that never
        // crashed.
        let lifetime = self.lifetime.report();
        let recovery = self.recovery.report();
        let stats = format!(
            "OK\n{}\n{}\n{}",
            lifetime.counters_json(),
            lifetime.to_json(),
            recovery.counters_json()
        );
        let health = format!(
            "OK {{\"status\":\"ok\",\"rows\":{},\"published\":{},\"pending\":{},\
             \"clusters\":{},\"batches\":{},\"seq\":{},\"reopts\":{},\"replayed\":{},\
             \"drift\":{}}}",
            self.state.num_rows(),
            self.state.published_rows(),
            self.state.pending_rows(),
            self.state.mature_clusters(),
            self.state.batches_applied(),
            self.state.next_seq() - 1,
            self.state.reopt_runs(),
            self.replayed,
            match self.state.last_drift() {
                Some(d) => format!("{d:.6}"),
                None => "null".to_string(),
            }
        );
        PublishedView {
            version: self.version,
            output,
            stats,
            health,
        }
    }

    /// Folds one request's report into the lifetime collector.
    fn fold(&self, report: &Report) {
        let _g = self.lifetime.install();
        fold_report(report);
    }

    /// Marks the journaled record `seq` rolled back so replay skips it,
    /// and burns the seq. If the marker cannot be written, the journal
    /// un-journals the record and refuses writes until a restart or a
    /// compaction ([`Journal::append`]), so a later record can never
    /// land behind an unmarked failure.
    fn roll_back(&mut self, seq: u64) {
        if let Err(e) = self.journal.append(seq, RecordKind::Rollback, 0, 0.0, b"") {
            eprintln!("kanon serve: rollback marker for seq {seq} lost: {e}; refusing writes");
        }
        self.state.note_rollback(seq);
    }
}

/// Runs `f` under a fresh collector and returns its result with that
/// collector's report. Every apply and reopt, live or replayed, runs
/// this way: `spent_work()` starts at zero, so a journaled relative
/// budget cuts at the same point on replay as it did live. Rendering
/// uses it too, to keep presentation work out of the counters.
pub(crate) fn metered<T>(f: impl FnOnce() -> T) -> (T, Report) {
    let collector = Collector::new();
    let guard = collector.install();
    let out = f();
    drop(guard);
    (out, collector.report())
}

/// Counts every nonzero counter of `report` into the *currently
/// installed* collector — the caller picks the destination by holding
/// an install guard (the daemon's `lifetime`, or `recovery` during
/// startup replay).
pub(crate) fn fold_report(report: &Report) {
    for &c in Counter::ALL.iter() {
        let v = report.counter(c);
        if v > 0 {
            count(c, v);
        }
    }
    for &c in RuntimeCounter::ALL.iter() {
        let v = report.runtime_counter(c);
        if v > 0 {
            count_runtime(c, v);
        }
    }
}

/// A cloned stream handle held per live connection so shutdown can
/// unblock a reader stuck in a blocking `read_frame`.
enum Kick {
    Tcp(std::net::TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Kick {
    fn kick(&self) {
        match self {
            Kick::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            Kick::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

/// The daemon: resident state + journal behind the single-writer lock,
/// plus the atomically published read view and connection lifecycle.
pub struct Daemon {
    core: Mutex<Core>,
    /// The last committed read view. Swapped wholesale (a fresh `Arc`)
    /// by the writer after every committed mutation; readers clone the
    /// `Arc` and answer from it without ever touching `core`.
    published: RwLock<Arc<PublishedView>>,
    opts: ServeOptions,
    /// Set by the connection that received `SHUTDOWN`; the accept loop
    /// and every connection loop re-check it.
    shutdown: AtomicBool,
    /// The bound listen address, once `run` has bound it (the shutdown
    /// wake-up connection targets this).
    bound_addr: Mutex<Option<String>>,
    /// Kick handles of live connections, keyed by connection id, so
    /// shutdown can unblock readers stuck in blocking reads.
    conns: Mutex<BTreeMap<u64, Kick>>,
    next_conn: AtomicU64,
}

impl Daemon {
    /// Starts a daemon: restores the newest snapshot if one exists
    /// (otherwise bootstraps from `base`), truncates any crash-torn
    /// journal tail to the intact prefix, replays the journal tail, and
    /// opens the journal for appending. After this returns, the
    /// in-memory state is byte-identical to the pre-crash state, and
    /// new appends land where a future recovery will read them.
    pub fn start(base: Table, cfg: ServeConfig, opts: ServeOptions) -> KanonResult<Daemon> {
        std::fs::create_dir_all(&opts.state_dir).map_err(|e| io_err(&opts.state_dir, &e))?;
        let snapshot_path = opts.state_dir.join(SNAPSHOT_FILE);
        let journal_path = opts.state_dir.join(JOURNAL_FILE);
        let schema = base.schema().clone();
        let mut state = if snapshot_path.exists() {
            let text =
                std::fs::read_to_string(&snapshot_path).map_err(|e| io_err(&snapshot_path, &e))?;
            ServeState::restore_snapshot(&text, cfg, schema)?
        } else {
            ServeState::bootstrap(base, cfg)?
        };
        let lifetime = Collector::new();
        let recovery = Collector::new();
        let replayed = {
            // Replay work is folded into the `recovery` collector, not
            // `lifetime`: a recovered daemon's lifetime block must stay
            // comparable to an uncrashed daemon's.
            let _g = recovery.install();
            state.replay_journal(&journal_path)?
        };
        let journal = Journal::open(&journal_path).map_err(|e| io_err(&journal_path, &e))?;
        let mut core = Core {
            state,
            journal,
            lifetime,
            recovery,
            replayed,
            version: 0,
        };
        let published = RwLock::new(Arc::new(core.render_view()));
        Ok(Daemon {
            core: Mutex::new(core),
            published,
            opts,
            shutdown: AtomicBool::new(false),
            bound_addr: Mutex::new(None),
            conns: Mutex::new(BTreeMap::new()),
            next_conn: AtomicU64::new(1),
        })
    }

    /// Serves requests until `SHUTDOWN` (graceful) or a listener error.
    /// The bound address is written to `<state-dir>/serve.addr` and
    /// logged to stderr before the first accept. Each accepted
    /// connection gets its own thread; write requests serialize behind
    /// the core lock while reads are answered from the published view.
    pub fn run(&self) -> KanonResult<()> {
        let (listener, addr) = Listener::bind(&self.opts.listen)
            .map_err(|e| io_err(Path::new(&self.opts.listen), &e))?;
        *self.bound_addr.lock().unwrap() = Some(addr.clone());
        let addr_path = self.opts.state_dir.join(ADDR_FILE);
        std::fs::write(&addr_path, format!("{addr}\n")).map_err(|e| io_err(&addr_path, &e))?;
        {
            let core = self.core.lock().unwrap();
            eprintln!(
                "kanon serve: listening on {addr} ({} rows resident, {} replayed)",
                core.state.num_rows(),
                core.replayed
            );
        }
        let idle = (self.opts.idle_timeout_ms > 0)
            .then(|| std::time::Duration::from_millis(self.opts.idle_timeout_ms));
        std::thread::scope(|scope| {
            loop {
                let accepted = listener.accept(idle);
                if self.shutdown_requested() {
                    // The shutdown wake-up connect (or a late client).
                    break;
                }
                let Ok((conn, kick)) = accepted else {
                    continue;
                };
                if kanon_fault::armed() && kanon_fault::fires(POINT_ACCEPT) {
                    drop(conn); // injected network fault: client sees a reset
                    continue;
                }
                let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
                if let Some(k) = kick {
                    self.conns.lock().unwrap().insert(id, k);
                }
                scope.spawn(move || {
                    self.serve_connection(conn, id);
                    self.conns.lock().unwrap().remove(&id);
                });
            }
        });
        // Graceful shutdown: capture the final state in a snapshot.
        if self.opts.snapshot_every > 0 {
            let mut core = self.core.lock().unwrap();
            self.snapshot(&mut core);
        }
        Ok(())
    }

    fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Flips the shutdown flag, kicks every live connection out of its
    /// blocking read, and unblocks the accept loop with a throwaway
    /// wake-up connection.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for kick in self.conns.lock().unwrap().values() {
            kick.kick();
        }
        let addr = self.bound_addr.lock().unwrap().clone();
        if let Some(addr) = addr {
            #[cfg(unix)]
            if addr.contains('/') {
                let _ = std::os::unix::net::UnixStream::connect(addr.as_str());
                return;
            }
            let _ = std::net::TcpStream::connect(addr.as_str());
        }
    }

    /// Serves one connection until EOF, an I/O error, `SHUTDOWN`, or a
    /// shutdown kick from another connection.
    fn serve_connection(&self, mut conn: Box<dyn Conn>, id: u64) {
        loop {
            if self.shutdown_requested() {
                return;
            }
            let payload = match read_frame(&mut conn, self.opts.max_frame) {
                Ok(Some(p)) => p,
                Ok(None) => return,
                Err(e) => {
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) {
                        // Idle client: the per-read timeout fired with no
                        // frame in flight. Drop the connection silently.
                        return;
                    }
                    // Oversize/truncated frame (or a shutdown kick):
                    // diagnose if the pipe is still writable, then drop
                    // the connection.
                    let _ = write_frame(&mut conn, format!("ERR Usage: {e}").as_bytes());
                    return;
                }
            };
            let (reply, control) = match parse_request(&payload) {
                Ok(req) => self.handle(req),
                Err(msg) => (Reply::Text(format!("ERR Usage: {msg}")), Control::Continue),
            };
            if write_frame(&mut conn, reply.as_str().as_bytes()).is_err() {
                return; // client went away mid-response
            }
            if control == Control::Shutdown {
                // Deregister first so the kick pass cannot sever this
                // socket while the client is still reading the response.
                self.conns.lock().unwrap().remove(&id);
                self.begin_shutdown();
                return;
            }
        }
    }

    /// Dispatches one parsed request. Write requests (`BATCH`, `REOPT`,
    /// `SNAPSHOT`) take the core lock and republish the read view after
    /// committing; read requests clone the published view's `Arc` under
    /// the read lock and answer from it without locking the core.
    fn handle(&self, req: Request) -> (Reply, Control) {
        let write = |f: &dyn Fn(&mut Core) -> String| {
            let mut core = self.core.lock().unwrap();
            let resp = f(&mut core);
            self.publish(&mut core);
            (Reply::Text(resp), Control::Continue)
        };
        let read = |part: fn(&PublishedView) -> &str| {
            let view = Arc::clone(&self.published.read().unwrap());
            (Reply::View(view, part), Control::Continue)
        };
        match req {
            Request::Batch {
                deadline_ms,
                retries,
                absorb_epsilon,
                body,
            } => {
                write(&|core| self.handle_batch(core, deadline_ms, retries, absorb_epsilon, &body))
            }
            Request::Reopt => write(&|core| match self.reopt(core) {
                Ok(out) => format!(
                    "OK loss_incremental={:.6} loss_scratch={:.6} drift={:+.6} clusters={}",
                    out.loss_incremental, out.loss_scratch, out.drift, out.clusters
                ),
                Err(e) => format!("ERR {}: {e}", class(&e)),
            }),
            Request::Snapshot => write(&|core| match self.snapshot(core) {
                Some(true) => "OK snapshot written".to_string(),
                Some(false) => "OK snapshot skipped (fault injected)".to_string(),
                None => "ERR Io: snapshot write failed".to_string(),
            }),
            Request::Output => read(|v| &v.output),
            Request::Stats => read(|v| &v.stats),
            Request::Health => read(|v| &v.health),
            Request::Shutdown => (
                Reply::Text("OK shutting down".to_string()),
                Control::Shutdown,
            ),
        }
    }

    /// Rebuilds and atomically swaps the published read view (called
    /// with the core lock held, i.e. by the single writer).
    fn publish(&self, core: &mut Core) {
        let view = Arc::new(core.render_view());
        *self.published.write().unwrap() = view;
    }

    /// The full batch lifecycle: journal (WAL), apply with deadline
    /// budget and absorption ε, retry transient faults with exponential
    /// backoff, roll back permanent failures.
    fn handle_batch(
        &self,
        core: &mut Core,
        deadline_ms: Option<u64>,
        retries: Option<u64>,
        absorb_epsilon: Option<f64>,
        body: &str,
    ) -> String {
        let budget = deadline_ms
            .map(|ms| ms.saturating_mul(self.opts.work_rate))
            .unwrap_or(0);
        // The per-request ε (if any) overrides the configured default;
        // whichever wins is journaled with the record so replay applies
        // the identical absorption criterion.
        let epsilon = absorb_epsilon.unwrap_or_else(|| core.state.absorb_epsilon());
        let seq = core.state.next_seq();
        if let Err(e) =
            core.journal
                .append(seq, RecordKind::Batch, budget, epsilon, body.as_bytes())
        {
            return format!("ERR Io: journal append failed: {e}");
        }
        let max_attempts = retries.unwrap_or(self.opts.retries) + 1;
        let mut attempt: u64 = 0;
        loop {
            attempt += 1;
            // A fresh collector per attempt: the budget is relative
            // (spent-work baseline 0), which is what makes the recorded
            // budget reproduce the same cut during journal replay.
            let (outcome, counters) = metered(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    core.state.apply_batch(body, budget, epsilon)
                }))
                .unwrap_or_else(|payload| Err(error_from_panic(payload)))
            });
            match outcome {
                Ok(report) => {
                    core.fold(&counters);
                    let mut extra = String::new();
                    let mut reopted = false;
                    if core.state.reopt_every() > 0
                        && core
                            .state
                            .batches_applied()
                            .is_multiple_of(core.state.reopt_every())
                    {
                        extra = match self.reopt(core) {
                            Ok(out) => {
                                reopted = true;
                                format!(" drift={:+.6}", out.drift)
                            }
                            Err(e) => format!(" reopt_failed={e}"),
                        };
                    }
                    // An adopted reopt has just taken this batch's
                    // snapshot, which covers the batch too.
                    if !reopted
                        && self.opts.snapshot_every > 0
                        && core
                            .state
                            .batches_applied()
                            .is_multiple_of(self.opts.snapshot_every)
                    {
                        self.snapshot(core);
                    }
                    return format!(
                        "OK seq={} rows_in={} absorbed={} absorbed_eps={} clustered={} \
                         pending={} suppressed={} rooted={} budget_exhausted={} attempts={}{}",
                        report.seq,
                        report.rows_in,
                        report.absorbed,
                        report.absorbed_eps,
                        report.clustered,
                        report.pending,
                        report.rows_suppressed,
                        report.cells_rooted,
                        report.budget_exhausted,
                        attempt,
                        extra
                    );
                }
                Err(e) if transient(&e) && attempt < max_attempts => {
                    let backoff = self
                        .opts
                        .backoff_ms
                        .saturating_mul(1 << (attempt - 1).min(16));
                    std::thread::sleep(std::time::Duration::from_millis(backoff));
                }
                Err(e) => {
                    // Permanent failure: mark the journaled batch rolled
                    // back so replay skips it, and burn its seq.
                    core.roll_back(seq);
                    return format!("ERR {}: {e} (attempts={attempt})", class(&e));
                }
            }
        }
    }

    /// Runs a re-optimization pass under the same write-ahead
    /// discipline as a batch: an `O` record is journaled (fsync) before
    /// the state mutates, so a `kill -9` at any instant after the
    /// published clustering changed recovers to the same clustering —
    /// never to the pre-reopt generalization of the same rows. A failed
    /// reopt rolls its journal record back and burns the seq, exactly
    /// like a permanently failed batch.
    ///
    /// When snapshots are on, an adopted reopt is snapshotted (and the
    /// journal compacted) at once, so recovery restores the reopt's
    /// result instead of re-running it. If that snapshot fails, the `O`
    /// record stays in the journal and replay re-runs the reopt.
    fn reopt(&self, core: &mut Core) -> KanonResult<state::ReoptOutcome> {
        let seq = core.state.next_seq();
        core.journal
            .append(seq, RecordKind::Reopt, 0, 0.0, b"")
            .map_err(|e| io_err(core.journal.path(), &e))?;
        let (out, counters) = metered(|| core.state.reopt());
        core.fold(&counters);
        match out {
            Ok(outcome) => {
                debug_assert_eq!(core.state.next_seq(), seq + 1);
                if self.opts.snapshot_every > 0 {
                    self.snapshot(core);
                }
                Ok(outcome)
            }
            Err(e) => {
                core.roll_back(seq);
                Err(e)
            }
        }
    }

    /// Writes a snapshot, then compacts the journal down to the records
    /// the snapshot does not cover. `Some(false)` = skipped by the
    /// `serve/snapshot/write` fault, `None` = I/O error. All failure
    /// modes degrade: the daemon stays up, recovery just replays a
    /// longer journal.
    fn snapshot(&self, core: &mut Core) -> Option<bool> {
        let path = self.opts.state_dir.join(SNAPSHOT_FILE);
        match core.state.write_snapshot(&path) {
            Ok(true) => {
                // Every record with seq ≤ covered is now reproduced by
                // the snapshot; dropping them bounds the journal at
                // O(batches since last snapshot).
                let covered = core.state.next_seq() - 1;
                match core.journal.compact(covered) {
                    Ok(Some(bytes)) => {
                        if bytes > 0 {
                            let _g = core.lifetime.install();
                            count(Counter::ServeJournalBytesCompacted, bytes);
                        }
                    }
                    Ok(None) => {} // fault-skipped: the covered prefix lingers
                    Err(e) => eprintln!("kanon serve: journal compaction failed: {e}"),
                }
                Some(true)
            }
            Ok(false) => Some(false),
            Err(e) => {
                eprintln!("kanon serve: snapshot write failed: {e}");
                None
            }
        }
    }

    /// Runs `f` against the resident state (read access for tests and
    /// the CLI; takes the core lock).
    pub fn with_state<R>(&self, f: impl FnOnce(&ServeState) -> R) -> R {
        f(&self.core.lock().unwrap().state)
    }

    /// Journal records replayed during startup recovery.
    pub fn replayed(&self) -> u64 {
        self.core.lock().unwrap().replayed
    }

    /// Version of the currently published read view (monotonic; bumps
    /// once per committed write request).
    pub fn published_version(&self) -> u64 {
        self.published.read().unwrap().version
    }
}

/// Both `Read` and `Write`, sendable to a connection thread (TCP and
/// Unix streams qualify).
trait Conn: Read + Write + Send {}
impl<T: Read + Write + Send> Conn for T {}

/// Transient errors are worth retrying: an injected fault's `once:K`
/// ordinal advances per hit, and a worker panic may be one poisoned
/// dispatch — both can succeed on the next attempt. Everything else
/// (bad data, budget, usage) would fail identically again.
pub(crate) fn transient(e: &KanonError) -> bool {
    matches!(
        e,
        KanonError::FaultInjected { .. } | KanonError::WorkerPanic { .. }
    )
}

/// The `ERR <class>` tag mirrors the `KanonError` variant name.
fn class(e: &KanonError) -> &'static str {
    match e {
        KanonError::Core(_) => "Core",
        KanonError::FaultInjected { .. } => "FaultInjected",
        KanonError::WorkerPanic { .. } => "WorkerPanic",
        KanonError::Panic { .. } => "Panic",
        KanonError::BudgetExhausted { .. } => "BudgetExhausted",
        KanonError::Io { .. } => "Io",
        KanonError::Usage(_) => "Usage",
        KanonError::Interrupted { .. } => "Interrupted",
    }
}

fn io_err(path: &Path, e: &std::io::Error) -> KanonError {
    KanonError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    //! Fault points are process-wide, so every test here holds a
    //! `kanon_fault::scoped` guard for its whole run: `scoped("")` when
    //! it arms nothing, else a guard swapped at each arming point (old
    //! guard dropped first — the scope lock is not reentrant).

    use super::*;
    use kanon_core::schema::SchemaBuilder;
    use kanon_core::schema::SharedSchema;
    use kanon_data::csv::{table_from_csv_with_policy, RowPolicy};
    use state::Measure;

    fn schema() -> SharedSchema {
        SchemaBuilder::new()
            .categorical_with_groups(
                "zip",
                ["10", "11", "20", "21"],
                &[&["10", "11"], &["20", "21"]],
            )
            .categorical_with_groups(
                "age",
                ["20s", "30s", "60s", "70s"],
                &[&["20s", "30s"], &["60s", "70s"]],
            )
            .build_shared()
            .unwrap()
    }

    fn base_table() -> Table {
        let csv = "10,20s\n10,30s\n11,20s\n20,60s\n21,70s\n20,70s\n";
        table_from_csv_with_policy(&schema(), csv, false, RowPolicy::Strict)
            .unwrap()
            .0
    }

    fn cfg() -> ServeConfig {
        ServeConfig {
            k: 2,
            measure: Measure::Lm,
            policy: RowPolicy::Strict,
            shard_max: kanon_core::config::SHARD_MAX_DEFAULT,
            reopt_every: 0,
            absorb_epsilon: 0.0,
        }
    }

    fn opts(tag: &str) -> ServeOptions {
        let o = opts2_keep(tag);
        let _ = std::fs::remove_dir_all(&o.state_dir);
        o
    }

    /// Same state dir as [`opts`] but *without* wiping it.
    fn opts2_keep(tag: &str) -> ServeOptions {
        let dir =
            std::env::temp_dir().join(format!("kanon-serve-lib-{tag}-{}", std::process::id()));
        ServeOptions {
            listen: "127.0.0.1:0".to_string(),
            state_dir: dir,
            snapshot_every: 0,
            retries: 2,
            backoff_ms: 0,
            work_rate: 5_000,
            max_frame: 1 << 20,
            idle_timeout_ms: 0,
        }
    }

    fn request(d: &Daemon, req: &[u8]) -> String {
        let (reply, _) = d.handle(parse_request(req).unwrap());
        reply.as_str().to_string()
    }

    fn journal_len(o: &ServeOptions) -> u64 {
        std::fs::metadata(o.state_dir.join(JOURNAL_FILE))
            .map(|m| m.len())
            .unwrap_or(0)
    }

    #[test]
    fn batch_output_stats_health_round_trip() {
        let _faults = kanon_fault::scoped("");
        let d = Daemon::start(base_table(), cfg(), opts("roundtrip")).unwrap();
        let resp = request(&d, b"BATCH\n10,20s\n");
        assert!(resp.starts_with("OK seq=1 rows_in=1"), "{resp}");
        let resp = request(&d, b"OUTPUT");
        assert!(resp.starts_with("OK rows="), "{resp}");
        let resp = request(&d, b"STATS");
        assert!(resp.contains("\"serve_batches_applied\":1"), "{resp}");
        let resp = request(&d, b"HEALTH");
        assert!(resp.contains("\"status\":\"ok\""), "{resp}");
        assert!(resp.contains("\"batches\":1"), "{resp}");
    }

    #[test]
    fn transient_faults_are_retried_and_succeed() {
        let mut _faults = kanon_fault::scoped("");
        let d = Daemon::start(base_table(), cfg(), opts("retry")).unwrap();
        drop(_faults);
        _faults = kanon_fault::scoped("serve/batch/apply=once:1");
        let resp = request(&d, b"BATCH\n10,20s\n");
        assert!(resp.starts_with("OK "), "{resp}");
        assert!(resp.contains("attempts=2"), "{resp}");
    }

    #[test]
    fn exhausted_retries_roll_the_batch_back() {
        let mut _faults = kanon_fault::scoped("");
        let mut o = opts("rollback");
        o.retries = 1;
        let d = Daemon::start(base_table(), cfg(), o).unwrap();
        // Fire on every hit: attempt 1 and its single retry both fail.
        drop(_faults);
        _faults = kanon_fault::scoped("serve/batch/apply=every:1");
        let resp = request(&d, b"BATCH\n10,20s\n");
        assert!(resp.starts_with("ERR FaultInjected:"), "{resp}");
        assert!(resp.contains("attempts=2"), "{resp}");
        drop(_faults);
        _faults = kanon_fault::scoped("");
        // State untouched; the next batch gets a fresh seq past the
        // rolled-back one.
        assert_eq!(d.with_state(|s| s.num_rows()), 6);
        let resp = request(&d, b"BATCH\n10,20s\n");
        assert!(resp.starts_with("OK seq=2 "), "{resp}");
    }

    #[test]
    fn lost_rollback_marker_poisons_the_journal() {
        // A rolled-back batch whose `R` marker never reaches the disk
        // must not come back: neither journaled behind by a later batch,
        // nor resurrected by recovery.
        let mut _faults = kanon_fault::scoped("");
        let mut o = opts("lostmarker");
        o.retries = 1;
        let d = Daemon::start(base_table(), cfg(), o).unwrap();
        let resp = request(&d, b"BATCH\n10,60s\n11,70s\n");
        assert!(resp.starts_with("OK seq=1 "), "{resp}");
        let pre = request(&d, b"OUTPUT");
        // Both apply attempts fail; journal append #1 is the batch
        // record, #2 its rollback marker.
        drop(_faults);
        _faults = kanon_fault::scoped("serve/batch/apply=every:1,serve/journal/append=once:2");
        let resp = request(&d, b"BATCH\n10,70s\n11,60s\n");
        assert!(resp.starts_with("ERR FaultInjected:"), "{resp}");
        assert!(resp.contains("attempts=2"), "{resp}");
        drop(_faults);
        _faults = kanon_fault::scoped("");
        // Faults disarmed: the next batch is still refused, not
        // journaled behind the unmarked failure.
        let resp = request(&d, b"BATCH\n10,20s\n");
        assert!(resp.starts_with("ERR Io: journal append failed"), "{resp}");
        assert_eq!(request(&d, b"OUTPUT"), pre);
        drop(d);

        let r = Daemon::start(base_table(), cfg(), opts2_keep("lostmarker")).unwrap();
        assert_eq!(r.replayed(), 1);
        assert_eq!(request(&r, b"OUTPUT"), pre);
        // The restarted daemon journals again.
        let resp = request(&r, b"BATCH\n10,20s\n");
        assert!(resp.starts_with("OK "), "{resp}");
    }

    #[test]
    fn deadline_maps_to_budget_and_commits_valid_partial() {
        let _faults = kanon_fault::scoped("");
        // An absurdly tight deadline: 1ms at 1 unit/ms.
        let mut o = opts("deadline");
        o.work_rate = 1;
        let d = Daemon::start(base_table(), cfg(), o).unwrap();
        let resp = request(&d, b"BATCH deadline_ms=1\n10,60s\n11,70s\n10,70s\n11,60s\n");
        // Either the tiny run fits the budget or a valid partial commits;
        // both are OK responses, never a hard failure.
        assert!(resp.starts_with("OK "), "{resp}");
    }

    #[test]
    fn crash_recovery_reaches_byte_identical_output() {
        let _faults = kanon_fault::scoped("");
        let o = opts("recovery");
        let d = Daemon::start(base_table(), cfg(), o.clone()).unwrap();
        request(&d, b"BATCH\n10,60s\n11,70s\n");
        request(&d, b"BATCH\n10,70s\n11,60s\n");
        let live_out = request(&d, b"OUTPUT");
        let live_health = request(&d, b"HEALTH");
        drop(d); // "kill": no snapshot (snapshot_every=0), journal only

        let r = Daemon::start(base_table(), cfg(), o).unwrap();
        assert_eq!(r.replayed(), 2);
        let mut rec_out = request(&r, b"OUTPUT");
        // HEALTH differs only in the replayed count.
        let rec_health = request(&r, b"HEALTH").replace("\"replayed\":2", "\"replayed\":0");
        assert_eq!(rec_out, live_out);
        assert_eq!(rec_health, live_health);
        // And the journal tail keeps replaying over a snapshot too.
        request(&r, b"SNAPSHOT");
        request(&r, b"BATCH\n10,20s\n");
        rec_out = request(&r, b"OUTPUT");
        drop(r);
        let r2 = Daemon::start(base_table(), cfg(), opts2_keep("recovery")).unwrap();
        assert_eq!(r2.replayed(), 1); // only the post-snapshot batch
        assert_eq!(request(&r2, b"OUTPUT"), rec_out);
    }

    #[test]
    fn double_crash_with_a_torn_tail_loses_nothing() {
        let _faults = kanon_fault::scoped("");
        // The headline regression: a kill -9 mid-append leaves a torn
        // record at the journal tail. Recovery must truncate it before
        // reopening for append — otherwise the next acknowledged batch
        // lands *behind* the garbage, where the stop-at-first-bad-record
        // rule hides it from the recovery after a second kill -9.
        let o = opts("doublecrash");
        let d = Daemon::start(base_table(), cfg(), o.clone()).unwrap();
        request(&d, b"BATCH\n10,60s\n11,70s\n");
        drop(d); // first kill -9 ...
        let journal_path = o.state_dir.join(JOURNAL_FILE);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal_path)
            .unwrap();
        // ... torn mid-append: a header promising 34 payload bytes with
        // only 4 on disk, exactly what a power cut mid-write leaves.
        f.write_all(b"KJ1 2 B 0 34 00000000\ntorn").unwrap();
        drop(f);

        let r = Daemon::start(base_table(), cfg(), opts2_keep("doublecrash")).unwrap();
        assert_eq!(r.replayed(), 1);
        let resp = request(&r, b"BATCH\n10,70s\n11,60s\n");
        assert!(resp.starts_with("OK seq=2 "), "{resp}");
        let out = request(&r, b"OUTPUT");
        drop(r); // second kill -9

        // The batch acknowledged after the first recovery must survive
        // the second crash byte-identically.
        let r2 = Daemon::start(base_table(), cfg(), opts2_keep("doublecrash")).unwrap();
        assert_eq!(
            r2.replayed(),
            2,
            "post-restart append was buried behind the torn tail"
        );
        assert_eq!(request(&r2, b"OUTPUT"), out);
    }

    #[test]
    fn snapshot_compacts_the_journal_and_recovery_stays_identical() {
        let _faults = kanon_fault::scoped("");
        let o = opts("compactlib");
        let d = Daemon::start(base_table(), cfg(), o.clone()).unwrap();
        request(&d, b"BATCH\n10,60s\n11,70s\n");
        request(&d, b"BATCH\n10,70s\n11,60s\n");
        let before = journal_len(&o);
        assert!(before > 0);
        let resp = request(&d, b"SNAPSHOT");
        assert!(resp.starts_with("OK snapshot written"), "{resp}");
        // The snapshot covers every record: the journal compacts to
        // empty, and the reclaimed bytes land in the lifetime stats.
        assert_eq!(journal_len(&o), 0, "journal did not shrink after snapshot");
        let stats = request(&d, b"STATS");
        assert!(
            stats.contains(&format!("\"serve_journal_bytes_compacted\":{before}")),
            "{stats}"
        );
        // Post-compaction appends land in the fresh journal and replay.
        request(&d, b"BATCH\n10,20s\n");
        assert!(journal_len(&o) > 0);
        let out = request(&d, b"OUTPUT");
        drop(d);
        let r = Daemon::start(base_table(), cfg(), opts2_keep("compactlib")).unwrap();
        assert_eq!(r.replayed(), 1); // only the post-snapshot batch
        assert_eq!(request(&r, b"OUTPUT"), out);
    }

    #[test]
    fn compaction_fault_degrades_to_a_longer_journal() {
        let mut _faults = kanon_fault::scoped("");
        let o = opts("compactfault");
        let d = Daemon::start(base_table(), cfg(), o.clone()).unwrap();
        request(&d, b"BATCH\n10,60s\n11,70s\n");
        let before = journal_len(&o);
        drop(_faults);
        _faults = kanon_fault::scoped("serve/journal/compact=every:1");
        let resp = request(&d, b"SNAPSHOT");
        drop(_faults);
        _faults = kanon_fault::scoped("");
        // The snapshot itself succeeded; only the compaction was
        // skipped, so the covered records linger harmlessly.
        assert!(resp.starts_with("OK snapshot written"), "{resp}");
        assert_eq!(journal_len(&o), before);
        drop(d);
        let r = Daemon::start(base_table(), cfg(), opts2_keep("compactfault")).unwrap();
        // Recovery restores the snapshot and skips the covered records.
        assert_eq!(r.replayed(), 0);
        assert_eq!(r.with_state(|s| s.next_seq()), 2);
    }

    #[test]
    fn recovered_stats_report_replay_in_a_separate_block() {
        let _faults = kanon_fault::scoped("");
        let o = opts("recstats");
        let d = Daemon::start(base_table(), cfg(), o.clone()).unwrap();
        request(&d, b"BATCH\n10,60s\n11,70s\n");
        request(&d, b"BATCH\n10,70s\n11,60s\n");
        let live = request(&d, b"STATS");
        let live_lines: Vec<String> = live.lines().map(str::to_string).collect();
        assert_eq!(live_lines.len(), 4, "{live}");
        // A live daemon has replayed nothing: its recovery block is the
        // all-zero counter set.
        assert!(
            live_lines[3].contains("\"serve_journal_replays\":0"),
            "{live}"
        );
        drop(d);

        let r = Daemon::start(base_table(), cfg(), opts2_keep("recstats")).unwrap();
        let rec = request(&r, b"STATS");
        let rec_lines: Vec<String> = rec.lines().map(str::to_string).collect();
        // The recovered daemon has served nothing yet: its lifetime
        // block equals the live daemon's (empty) recovery block — no
        // replay noise leaks into lifetime stats.
        assert_eq!(rec_lines[1], live_lines[3]);
        // And its recovery block is the live daemon's lifetime block,
        // except for the replay count itself: the replayed work is
        // byte-identical to the original work.
        let expected =
            live_lines[1].replace("\"serve_journal_replays\":0", "\"serve_journal_replays\":2");
        assert_eq!(rec_lines[3], expected);
    }

    #[test]
    fn concurrent_reads_observe_only_committed_views() {
        let _faults = kanon_fault::scoped("");
        let d = Daemon::start(base_table(), cfg(), opts("concread")).unwrap();
        request(&d, b"BATCH\n10,60s\n11,70s\n");
        let pre = request(&d, b"OUTPUT");
        let v0 = d.published_version();
        let observed = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut last = 0u64;
                    let mut seen = Vec::new();
                    for _ in 0..100 {
                        let v = d.published_version();
                        assert!(v >= last, "published version went backwards");
                        last = v;
                        seen.push(request(&d, b"OUTPUT"));
                    }
                    observed.lock().unwrap().append(&mut seen);
                });
            }
            s.spawn(|| {
                request(&d, b"BATCH\n10,70s\n11,60s\n");
            });
        });
        let post = request(&d, b"OUTPUT");
        assert!(d.published_version() > v0);
        assert_ne!(pre, post);
        for out in observed.lock().unwrap().iter() {
            assert!(
                *out == pre || *out == post,
                "reader observed a mid-commit view: {out}"
            );
        }
    }

    #[test]
    fn reopt_survives_crash_recovery() {
        let _faults = kanon_fault::scoped("");
        // The high-stakes invariant: a reopt rewrites the published
        // generalization of already-released rows, so recovering to the
        // pre-reopt clustering would publish two different
        // generalizations of the same rows. The journaled `O` record
        // must carry the reopt through `kill -9`. Snapshots stay off, so
        // recovery has to replay that record.
        let mut o = opts("reopt-recovery");
        o.snapshot_every = 0;
        let d = Daemon::start(base_table(), cfg(), o.clone()).unwrap();
        request(&d, b"BATCH\n10,60s\n11,70s\n");
        let resp = request(&d, b"REOPT");
        assert!(resp.starts_with("OK loss_incremental="), "{resp}");
        let live_out = request(&d, b"OUTPUT");
        let live_health = request(&d, b"HEALTH");
        assert!(live_health.contains("\"reopts\":1"), "{live_health}");
        drop(d); // "kill": journal only, no snapshot

        let r = Daemon::start(base_table(), cfg(), opts2_keep("reopt-recovery")).unwrap();
        assert_eq!(r.replayed(), 2); // the batch and the reopt
        assert_eq!(request(&r, b"OUTPUT"), live_out);
        let rec_health = request(&r, b"HEALTH").replace("\"replayed\":2", "\"replayed\":0");
        assert_eq!(rec_health, live_health);
    }

    /// Two batches, the second followed by a periodic reopt, on a daemon
    /// that snapshots every 8 batches; returns OUTPUT and HEALTH, then
    /// drops the daemon (a `kill -9`: nothing runs at drop).
    fn batches_then_periodic_reopt(tag: &str) -> (ServeOptions, String, String) {
        let mut c = cfg();
        c.reopt_every = 2;
        let mut o = opts(tag);
        o.snapshot_every = 8;
        let d = Daemon::start(base_table(), c, o.clone()).unwrap();
        request(&d, b"BATCH\n10,60s\n11,70s\n");
        let resp = request(&d, b"BATCH\n10,70s\n11,60s\n");
        assert!(resp.contains(" drift="), "{resp}");
        (o, request(&d, b"OUTPUT"), request(&d, b"HEALTH"))
    }

    #[test]
    fn an_adopted_reopt_is_snapshotted_and_never_replayed() {
        let _faults = kanon_fault::scoped("");
        let (o, live_out, live_health) = batches_then_periodic_reopt("reopt-snap");
        // The reopt's snapshot covers both batches and the reopt: the
        // journal compacts to nothing.
        assert_eq!(journal_len(&o), 0);
        let mut c = cfg();
        c.reopt_every = 2;
        let r = Daemon::start(base_table(), c, o).unwrap();
        assert_eq!(r.replayed(), 0);
        assert_eq!(request(&r, b"OUTPUT"), live_out);
        assert_eq!(request(&r, b"HEALTH"), live_health);
    }

    #[test]
    fn a_failed_reopt_snapshot_leaves_the_reopt_to_replay() {
        let _faults = kanon_fault::scoped("serve/snapshot/write=once:1");
        let (o, live_out, live_health) = batches_then_periodic_reopt("reopt-snapfail");
        let mut c = cfg();
        c.reopt_every = 2;
        let r = Daemon::start(base_table(), c, o).unwrap();
        // No snapshot: the two batches and the `O` record replay.
        assert_eq!(r.replayed(), 3);
        assert_eq!(request(&r, b"OUTPUT"), live_out);
        let rec_health = request(&r, b"HEALTH").replace("\"replayed\":3", "\"replayed\":0");
        assert_eq!(rec_health, live_health);
    }

    #[test]
    fn failed_reopt_rolls_back_and_burns_its_seq() {
        // shard_max 2 forces the partitioner to split (and hence hit
        // its fail point) even on this tiny table.
        let mut _faults = kanon_fault::scoped("");
        let mut c = cfg();
        c.shard_max = 2;
        let o = opts("reopt-rollback");
        let d = Daemon::start(base_table(), c.clone(), o).unwrap();
        request(&d, b"BATCH\n10,60s\n11,70s\n"); // seq 1
        drop(_faults);
        _faults = kanon_fault::scoped("algos/shard/partition=every:1");
        let resp = request(&d, b"REOPT");
        drop(_faults);
        _faults = kanon_fault::scoped("");
        assert!(resp.starts_with("ERR FaultInjected:"), "{resp}");
        // The failed reopt journaled seq 2 and rolled it back; the next
        // batch numbers past it.
        let resp = request(&d, b"BATCH\n10,70s\n");
        assert!(resp.starts_with("OK seq=3 "), "{resp}");
        let live_out = request(&d, b"OUTPUT");
        drop(d);

        let r = Daemon::start(base_table(), c, opts2_keep("reopt-rollback")).unwrap();
        assert_eq!(r.replayed(), 2); // both batches; the rolled-back reopt is skipped
        assert_eq!(request(&r, b"OUTPUT"), live_out);
    }

    #[test]
    fn pending_pool_larger_than_shard_max_is_sharded_under_a_deadline() {
        let _faults = kanon_fault::scoped("");
        // Eight rows that mix the zip and age branches, so no bootstrap
        // closure covers any of them: all eight pend, and a pool of
        // eight against a cap of four must be split into shards.
        let mut c = cfg();
        c.shard_max = 4;
        let d = Daemon::start(base_table(), c, opts("pendshard")).unwrap();
        let resp = request(
            &d,
            b"BATCH deadline_ms=1000\n10,60s\n11,70s\n10,70s\n11,60s\n\
              20,20s\n21,30s\n20,30s\n21,20s\n",
        );
        assert!(resp.starts_with("OK seq=1 "), "{resp}");
        assert!(
            resp.contains(" absorbed=0 ") && resp.contains(" clustered=8 "),
            "{resp}"
        );
        // Bootstrap runs outside the lifetime counters: these two shards
        // are the pending pool's, split 4 + 4.
        let stats = request(&d, b"STATS");
        assert!(stats.contains("\"shards_built\":2,"), "{stats}");
        // The published table is k-anonymous: every generalized row
        // appears at least k = 2 times.
        let out = request(&d, b"OUTPUT");
        let mut groups: BTreeMap<&str, usize> = BTreeMap::new();
        for line in out.lines().skip(2) {
            *groups.entry(line).or_default() += 1;
        }
        assert_eq!(groups.values().sum::<usize>(), 14, "{out}");
        assert!(groups.values().all(|&n| n >= 2), "{out}");
    }

    #[cfg(unix)]
    #[test]
    fn bind_refuses_to_clobber_a_regular_file() {
        let _faults = kanon_fault::scoped("");
        let dir = std::env::temp_dir().join(format!("kanon-serve-bind-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A typo'd --listen pointing at a real file must error, not
        // delete the file.
        let file = dir.join("precious.csv");
        std::fs::write(&file, "do not delete\n").unwrap();
        let err = match Listener::bind(file.to_str().unwrap()) {
            Ok(_) => panic!("bind accepted a regular file as --listen"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        assert_eq!(
            std::fs::read_to_string(&file).unwrap(),
            "do not delete\n",
            "bind deleted an existing regular file"
        );
        // A stale socket left by a killed process is still cleaned up.
        let sock = dir.join("serve.sock");
        let (l, _) = Listener::bind(sock.to_str().unwrap()).unwrap();
        drop(l); // the socket file outlives the listener
        assert!(sock.exists());
        let (_l, addr) = Listener::bind(sock.to_str().unwrap()).unwrap();
        assert_eq!(addr, sock.to_str().unwrap());
    }

    fn wait_for_addr(state_dir: &Path) -> String {
        let addr_path = state_dir.join(ADDR_FILE);
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_path) {
                if text.ends_with('\n') {
                    return text.trim().to_string();
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }

    #[test]
    fn idle_connection_cannot_wedge_the_daemon() {
        let _faults = kanon_fault::scoped("");
        let mut o = opts("idle");
        o.idle_timeout_ms = 100;
        let state_dir = o.state_dir.clone();
        let d = Arc::new(Daemon::start(base_table(), cfg(), o).unwrap());
        let d2 = Arc::clone(&d);
        let handle = std::thread::spawn(move || d2.run());
        let addr = wait_for_addr(&state_dir);
        // A client that connects and sends nothing is dropped after the
        // idle timeout instead of pinning its thread past shutdown.
        let silent = std::net::TcpStream::connect(&addr).unwrap();
        let mut conn = std::net::TcpStream::connect(&addr).unwrap();
        write_frame(&mut conn, b"HEALTH").unwrap();
        let resp = read_frame(&mut conn, 1 << 20).unwrap().unwrap();
        assert!(resp.starts_with(b"OK "), "{resp:?}");
        drop(silent);
        write_frame(&mut conn, b"SHUTDOWN").unwrap();
        let resp = read_frame(&mut conn, 1 << 20).unwrap().unwrap();
        assert!(resp.starts_with(b"OK shutting down"), "{resp:?}");
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn usage_errors_do_not_kill_the_connection_loop() {
        let _faults = kanon_fault::scoped("");
        let d = Daemon::start(base_table(), cfg(), opts("usage")).unwrap();
        let (resp, control) = match parse_request(b"NOPE") {
            Ok(req) => {
                let (reply, control) = d.handle(req);
                (reply.as_str().to_string(), control)
            }
            Err(msg) => (format!("ERR Usage: {msg}"), Control::Continue),
        };
        assert!(resp.starts_with("ERR Usage:"), "{resp}");
        assert_eq!(control, Control::Continue);
        // Bad rows under Strict: typed Core error, state intact.
        let resp = request(&d, b"BATCH\n99,99\n");
        assert!(resp.starts_with("ERR Core:"), "{resp}");
        assert_eq!(d.with_state(|s| s.num_rows()), 6);
    }

    #[test]
    fn tcp_listener_serves_frames_end_to_end() {
        let _faults = kanon_fault::scoped("");
        let o = opts("tcp");
        let state_dir = o.state_dir.clone();
        let d = Arc::new(Daemon::start(base_table(), cfg(), o).unwrap());
        let d2 = Arc::clone(&d);
        let handle = std::thread::spawn(move || d2.run());
        let addr = wait_for_addr(&state_dir);
        let mut conn = std::net::TcpStream::connect(&addr).unwrap();
        write_frame(&mut conn, b"BATCH\n10,20s\n").unwrap();
        let resp = read_frame(&mut conn, 1 << 20).unwrap().unwrap();
        assert!(resp.starts_with(b"OK seq=1"), "{resp:?}");
        write_frame(&mut conn, b"SHUTDOWN").unwrap();
        let resp = read_frame(&mut conn, 1 << 20).unwrap().unwrap();
        assert!(resp.starts_with(b"OK shutting down"), "{resp:?}");
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn concurrent_tcp_readers_do_not_block_batches() {
        let _faults = kanon_fault::scoped("");
        // End-to-end over TCP: readers hammer OUTPUT from their own
        // connections while batches commit; every response is a
        // complete committed view.
        let o = opts("tcp-concurrent");
        let state_dir = o.state_dir.clone();
        let d = Arc::new(Daemon::start(base_table(), cfg(), o).unwrap());
        let d2 = Arc::clone(&d);
        let handle = std::thread::spawn(move || d2.run());
        let addr = wait_for_addr(&state_dir);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut conn = std::net::TcpStream::connect(&addr).unwrap();
                    for _ in 0..20 {
                        write_frame(&mut conn, b"OUTPUT").unwrap();
                        let resp = read_frame(&mut conn, 1 << 20).unwrap().unwrap();
                        assert!(resp.starts_with(b"OK rows="), "{resp:?}");
                    }
                });
            }
            let addr = addr.clone();
            s.spawn(move || {
                let mut conn = std::net::TcpStream::connect(&addr).unwrap();
                write_frame(&mut conn, b"BATCH\n10,60s\n11,70s\n").unwrap();
                let resp = read_frame(&mut conn, 1 << 20).unwrap().unwrap();
                assert!(resp.starts_with(b"OK seq=1"), "{resp:?}");
            });
        });
        let mut conn = std::net::TcpStream::connect(&addr).unwrap();
        write_frame(&mut conn, b"SHUTDOWN").unwrap();
        let resp = read_frame(&mut conn, 1 << 20).unwrap().unwrap();
        assert!(resp.starts_with(b"OK shutting down"), "{resp:?}");
        handle.join().unwrap().unwrap();
    }
}
