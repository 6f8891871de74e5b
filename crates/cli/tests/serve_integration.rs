//! End-to-end tests of `kanon serve`: the daemon lifecycle over real
//! TCP connections, `kill -9` crash recovery from the write-ahead
//! journal (including a torn journal tail), retry-on-injected-fault,
//! graceful SIGINT/SIGTERM shutdown with stats flushing, the stdout
//! `EPIPE` exit code, the lost rollback marker that must refuse later
//! writes, and the `KANON_FAILPOINTS` name-validation regression.
//!
//! Each invocation is a fresh process, so the process-global fault
//! registry never leaks between tests.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use kanon_serve::proto::{read_frame, write_frame};

const ISOLATED_VARS: &[&str] = &[
    "KANON_FAILPOINTS",
    "KANON_WORK_BUDGET",
    "KANON_THREADS",
    "KANON_STATS",
    "KANON_SERVE_WORK_RATE",
    "KANON_SERVE_RETRIES",
    "KANON_SERVE_BACKOFF_MS",
    "KANON_SERVE_MAX_FRAME",
    "KANON_SERVE_IDLE_TIMEOUT_MS",
];

fn kanon_cmd(args: &[&str], envs: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_kanon"));
    for var in ISOLATED_VARS {
        cmd.env_remove(var);
    }
    cmd.args(args).envs(envs.iter().copied());
    cmd
}

fn kanon(args: &[&str], envs: &[(&str, &str)]) -> Output {
    kanon_cmd(args, envs).output().expect("spawn kanon binary")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A serve daemon child process, killed on drop so a failing test never
/// leaks a listener.
struct Daemon {
    child: Child,
    state_dir: PathBuf,
}

impl Daemon {
    /// Spawns `kanon serve art --k 3 --n 50 --seed 7` plus `extra`.
    fn spawn(state_dir: &Path, extra: &[&str], envs: &[(&str, &str)]) -> Daemon {
        let dir = state_dir.to_str().unwrap();
        let mut args = vec![
            "serve",
            "art",
            "--k",
            "3",
            "--n",
            "50",
            "--seed",
            "7",
            "--state-dir",
            dir,
            "--listen",
            "127.0.0.1:0",
        ];
        args.extend_from_slice(extra);
        // A fresh spawn must bind a fresh port: clear any stale address
        // file so `addr` never reads the previous incarnation's.
        let _ = std::fs::remove_file(state_dir.join("serve.addr"));
        let child = kanon_cmd(&args, envs)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn kanon serve");
        Daemon {
            child,
            state_dir: state_dir.to_path_buf(),
        }
    }

    /// Waits for the daemon to publish its bound address.
    fn addr(&mut self) -> String {
        let path = self.state_dir.join("serve.addr");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(text) = std::fs::read_to_string(&path) {
                if text.ends_with('\n') {
                    return text.trim().to_string();
                }
            }
            if let Some(status) = self.child.try_wait().unwrap() {
                panic!("daemon exited before binding: {status}");
            }
            assert!(
                Instant::now() < deadline,
                "daemon never published its address"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// One request/response round trip on a fresh connection.
    fn request(&mut self, payload: &[u8]) -> String {
        let addr = self.addr();
        let mut conn = TcpStream::connect(&addr).expect("connect to daemon");
        write_frame(&mut conn, payload).unwrap();
        let resp = read_frame(&mut conn, 1 << 24)
            .unwrap()
            .expect("daemon closed stream");
        String::from_utf8(resp).unwrap()
    }

    /// SIGKILL — the crash the journal exists for.
    fn kill_dash_nine(&mut self) {
        self.child.kill().unwrap();
        self.child.wait().unwrap();
    }

    /// Graceful protocol shutdown; returns the exit status code.
    fn shutdown(mut self) -> Option<i32> {
        let resp = self.request(b"SHUTDOWN");
        assert!(resp.starts_with("OK"), "{resp}");
        let code = self.child.wait().unwrap().code();
        // Disarm the drop-kill; the child is already gone.
        code
    }

    fn signal(&self, sig: &str) {
        let pid = self.child.id().to_string();
        let status = Command::new("kill").args([sig, &pid]).status().unwrap();
        assert!(status.success(), "kill {sig} {pid} failed");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Three deterministic batches of valid art rows (distinct from the
/// seed-7 base table's generation stream).
fn batches() -> Vec<String> {
    let out = kanon(&["generate", "art", "--n", "9", "--seed", "99"], &[]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    let rows: Vec<&str> = text.lines().skip(1).collect();
    rows.chunks(3)
        .map(|c| format!("{}\n", c.join("\n")))
        .collect()
}

#[test]
fn serve_applies_batches_and_recovers_byte_identically_after_kill_minus_9() {
    let dir = tmp_dir("serve-recover");
    let batches = batches();
    let mut d = Daemon::spawn(&dir, &["--snapshot-every", "2"], &[]);
    for (i, b) in batches.iter().enumerate() {
        let resp = d.request(format!("BATCH\n{b}").as_bytes());
        assert!(resp.starts_with(&format!("OK seq={} ", i + 1)), "{resp}");
    }
    let live_output = d.request(b"OUTPUT");
    let live_health = d.request(b"HEALTH");
    assert!(live_health.contains("\"batches\":3"), "{live_health}");
    d.kill_dash_nine();

    // Restart with identical flags: snapshot (taken at batch 2) plus
    // journal tail (batch 3) must reproduce the exact published output.
    let mut r = Daemon::spawn(&dir, &["--snapshot-every", "2"], &[]);
    assert_eq!(r.request(b"OUTPUT"), live_output);
    let health = r.request(b"HEALTH");
    assert!(health.contains("\"batches\":3"), "{health}");
    assert!(health.contains("\"replayed\":1"), "{health}");
    assert_eq!(r.shutdown(), Some(0));
}

#[test]
fn edited_snapshot_is_a_typed_error_not_a_panic() {
    let dir = tmp_dir("serve-bad-snapshot");
    let mut d = Daemon::spawn(&dir, &["--snapshot-every", "1"], &[]);
    let resp = d.request(format!("BATCH\n{}", batches()[0]).as_bytes());
    assert!(resp.starts_with("OK seq=1 "), "{resp}");
    assert_eq!(d.shutdown(), Some(0));

    // Point the first mature cluster at a row the snapshot does not hold.
    let path = dir.join("state.snap");
    let text = std::fs::read_to_string(&path).unwrap();
    let at = text.find("\nM ").expect("a mature cluster line") + 1;
    let end = at + text[at..].find('\n').unwrap();
    let edited = format!("{} 99999{}", &text[..end], &text[end..]);
    std::fs::write(&path, edited).unwrap();

    let mut r = Daemon::spawn(&dir, &["--snapshot-every", "1"], &[]);
    let status = r.child.wait().unwrap();
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut r.child.stderr.take().unwrap(), &mut stderr).unwrap();
    assert_eq!(status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("corrupt snapshot: row id 99999 out of range"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn torn_journal_tail_recovers_to_the_last_intact_batch() {
    let dir = tmp_dir("serve-torn");
    let batches = batches();
    let mut d = Daemon::spawn(&dir, &[], &[]);
    let resp = d.request(format!("BATCH\n{}", batches[0]).as_bytes());
    assert!(resp.starts_with("OK seq=1 "), "{resp}");
    let output_after_1 = d.request(b"OUTPUT");
    let resp = d.request(format!("BATCH\n{}", batches[1]).as_bytes());
    assert!(resp.starts_with("OK seq=2 "), "{resp}");
    d.kill_dash_nine();

    // Tear the journal tail: drop the final byte, corrupting batch 2's
    // record exactly as a crash mid-append would.
    let jpath = dir.join("journal.log");
    let mut bytes = std::fs::read(&jpath).unwrap();
    bytes.pop();
    std::fs::write(&jpath, &bytes).unwrap();

    let mut r = Daemon::spawn(&dir, &[], &[]);
    assert_eq!(r.request(b"OUTPUT"), output_after_1);
    let health = r.request(b"HEALTH");
    assert!(health.contains("\"replayed\":1"), "{health}");
    assert_eq!(r.shutdown(), Some(0));
}

#[test]
fn reopt_survives_kill_minus_9() {
    // A reopt rewrites the published generalization of already-released
    // rows; recovering to the pre-reopt clustering would publish two
    // different generalizations of the same rows. The journaled reopt
    // record must carry it through kill -9 — with no snapshot in the
    // way (journal-only persistence is the worst case; with snapshots
    // on, the reopt would be snapshotted and never replayed).
    let dir = tmp_dir("serve-reopt-kill");
    let batches = batches();
    let journal_only = ["--snapshot-every", "0"];
    let mut d = Daemon::spawn(&dir, &journal_only, &[]);
    for b in &batches {
        d.request(format!("BATCH\n{b}").as_bytes());
    }
    let resp = d.request(b"REOPT");
    assert!(resp.starts_with("OK loss_incremental="), "{resp}");
    let live_output = d.request(b"OUTPUT");
    let live_health = d.request(b"HEALTH");
    assert!(live_health.contains("\"reopts\":1"), "{live_health}");
    d.kill_dash_nine();

    let mut r = Daemon::spawn(&dir, &journal_only, &[]);
    assert_eq!(r.request(b"OUTPUT"), live_output);
    let health = r.request(b"HEALTH");
    assert!(health.contains("\"reopts\":1"), "{health}");
    assert!(health.contains("\"replayed\":4"), "{health}"); // 3 batches + 1 reopt
    assert_eq!(r.shutdown(), Some(0));
}

#[test]
fn torn_journal_append_is_repaired_and_never_buries_later_batches() {
    // An armed serve/journal/append fault makes the first batch's WAL
    // append fail mid-write. The un-acknowledged batch must surface as
    // ERR Io, the torn bytes must be truncated away, and everything
    // acknowledged afterwards must survive kill -9 — nothing hides
    // behind a mid-file tear.
    let dir = tmp_dir("serve-torn-append");
    let batches = batches();
    let mut d = Daemon::spawn(
        &dir,
        &[],
        &[("KANON_FAILPOINTS", "serve/journal/append=once:1")],
    );
    let resp = d.request(format!("BATCH\n{}", batches[0]).as_bytes());
    assert!(resp.starts_with("ERR Io:"), "{resp}");
    // The daemon stays up and the repaired journal accepts the retry
    // and a second batch.
    for b in &batches[..2] {
        let resp = d.request(format!("BATCH\n{b}").as_bytes());
        assert!(resp.starts_with("OK seq="), "{resp}");
    }
    let live_output = d.request(b"OUTPUT");
    d.kill_dash_nine();

    let mut r = Daemon::spawn(&dir, &[], &[]);
    assert_eq!(r.request(b"OUTPUT"), live_output);
    let health = r.request(b"HEALTH");
    assert!(health.contains("\"batches\":2"), "{health}");
    assert_eq!(r.shutdown(), Some(0));
}

#[test]
fn lost_rollback_marker_refuses_writes_and_recovers_to_the_last_good_batch() {
    // The second batch fails permanently and the rollback marker for it
    // cannot be written. The daemon must refuse every later write, so
    // nothing lands behind the unmarked record, and a restart must not
    // resurrect the rolled-back batch. Ordinals: batch 1 is apply #1 and
    // journal append #1; batch 2 is append #2 (its record), apply #2 and
    // append #3 (its marker).
    let dir = tmp_dir("serve-lost-marker");
    let batches = batches();
    let mut d = Daemon::spawn(
        &dir,
        &[],
        &[(
            "KANON_FAILPOINTS",
            "serve/batch/apply=once:2,serve/journal/append=once:3",
        )],
    );
    let resp = d.request(format!("BATCH\n{}", batches[0]).as_bytes());
    assert!(resp.starts_with("OK seq=1 "), "{resp}");
    let pre = d.request(b"OUTPUT");
    let resp = d.request(format!("BATCH retries=0\n{}", batches[1]).as_bytes());
    assert!(resp.starts_with("ERR FaultInjected:"), "{resp}");
    let resp = d.request(format!("BATCH\n{}", batches[2]).as_bytes());
    assert!(resp.starts_with("ERR Io:"), "{resp}");
    d.kill_dash_nine();

    let mut r = Daemon::spawn(&dir, &[], &[]);
    assert_eq!(r.request(b"OUTPUT"), pre);
    let resp = r.request(format!("BATCH\n{}", batches[2]).as_bytes());
    assert!(resp.starts_with("OK "), "{resp}");
    assert_eq!(r.shutdown(), Some(0));
}

#[test]
fn injected_transient_fault_is_retried_to_success() {
    let dir = tmp_dir("serve-retry");
    let batches = batches();
    let mut d = Daemon::spawn(
        &dir,
        &[],
        &[
            ("KANON_FAILPOINTS", "serve/batch/apply=once:1"),
            ("KANON_SERVE_BACKOFF_MS", "1"),
        ],
    );
    let resp = d.request(format!("BATCH\n{}", batches[0]).as_bytes());
    assert!(resp.starts_with("OK seq=1 "), "{resp}");
    assert!(resp.contains("attempts=2"), "{resp}");
    assert_eq!(d.shutdown(), Some(0));
}

#[test]
fn deadline_batches_always_commit_a_valid_result() {
    let dir = tmp_dir("serve-deadline");
    let batches = batches();
    // 1 work unit per deadline ms: deadline_ms=1 is a near-zero budget.
    let mut d = Daemon::spawn(&dir, &[], &[("KANON_SERVE_WORK_RATE", "1")]);
    let resp = d.request(format!("BATCH deadline_ms=1\n{}", batches[0]).as_bytes());
    assert!(resp.starts_with("OK seq=1 "), "{resp}");
    let resp = d.request(b"OUTPUT");
    assert!(resp.starts_with("OK rows="), "{resp}");
    assert_eq!(d.shutdown(), Some(0));
}

#[test]
fn sigint_flushes_stats_and_exits_130() {
    let dir = tmp_dir("serve-sigint");
    let stats = dir.join("stats.json");
    let mut d = Daemon::spawn(
        &dir,
        &["--stats=json", "--stats-out", stats.to_str().unwrap()],
        &[],
    );
    let _ = d.addr(); // fully started
    d.signal("-INT");
    let status = d.child.wait().unwrap();
    assert_eq!(status.code(), Some(130));
    let text = std::fs::read_to_string(&stats).expect("stats flushed on SIGINT");
    assert!(text.contains("\"counters\""), "{text}");
    let mut err = String::new();
    use std::io::Read as _;
    d.child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut err)
        .unwrap();
    assert!(err.contains("interrupted by SIGINT"), "{err}");
}

#[test]
fn sigterm_exits_143() {
    let dir = tmp_dir("serve-sigterm");
    let mut d = Daemon::spawn(&dir, &[], &[]);
    let _ = d.addr();
    d.signal("-TERM");
    let status = d.child.wait().unwrap();
    assert_eq!(status.code(), Some(143));
}

#[test]
fn stdout_epipe_maps_to_exit_141() {
    // Enough rows that the CSV overflows the pipe buffer after the
    // reader is gone.
    let mut child = kanon_cmd(&["generate", "art", "--n", "200000", "--seed", "1"], &[])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take()); // consumer goes away immediately
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(141));
    let mut err = String::new();
    use std::io::Read as _;
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut err)
        .unwrap();
    assert!(err.contains("interrupted by EPIPE"), "{err}");
}

#[test]
fn unknown_failpoint_names_are_usage_errors() {
    // Regression: a misspelled KANON_FAILPOINTS entry used to be
    // silently ignored; it must be a typed usage error (exit 2) naming
    // the bad point, for every subcommand, even for `off` entries.
    for spec in ["bogus/point=once:1", "serve/batch/aply=off"] {
        let out = kanon(
            &["anonymize", "art", "--k", "3", "--n", "30"],
            &[("KANON_FAILPOINTS", spec)],
        );
        assert_eq!(out.status.code(), Some(2), "spec {spec:?}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(err.contains("unknown fail point"), "spec {spec:?}: {err}");
        assert!(
            err.contains("invalid KANON_FAILPOINTS"),
            "spec {spec:?}: {err}"
        );
    }
    // Catalogued serve points pass validation (disarmed `off` mode).
    let out = kanon(
        &["anonymize", "art", "--k", "3", "--n", "30"],
        &[(
            "KANON_FAILPOINTS",
            "serve/accept=off,serve/batch/apply=off,serve/journal/append=off,serve/journal/replay=off,serve/snapshot/write=off",
        )],
    );
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn serve_usage_errors_exit_2() {
    // Missing --state-dir.
    let out = kanon(&["serve", "art", "--k", "3", "--n", "50"], &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--state-dir"));
    // Base table smaller than k.
    let dir = tmp_dir("serve-usage");
    let out = kanon(
        &[
            "serve",
            "art",
            "--k",
            "30",
            "--n",
            "10",
            "--state-dir",
            dir.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least k"));
}
