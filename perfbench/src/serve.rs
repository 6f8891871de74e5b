//! Driving a real `kanon serve` child over TCP loopback: fresh starts,
//! a closed-loop `BATCH` writer with an open-loop `OUTPUT` reader,
//! release checks, and `kill -9` → restart recovery cycles.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::speed;
use crate::stats;
use crate::workload::Workload;

/// The writer takes a host-speed probe before every this many batches.
const PROBE_EVERY: usize = 3;

/// How long a daemon may take to answer its first `HEALTH`.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon child. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Daemon {
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// `kill -9` the daemon and wait until it is gone.
    pub fn kill9(&mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }
}

/// How to launch the daemon for one workload.
pub struct Launcher {
    pub bin: PathBuf,
    pub workload: Workload,
    pub base_csv: PathBuf,
}

impl Launcher {
    /// Spawns `kanon serve` on `state_dir` and waits for its first
    /// `HEALTH OK`. Returns the daemon and the seconds that took.
    pub fn start(&self, state_dir: &Path) -> io::Result<(Daemon, f64)> {
        let w = &self.workload;
        let addr_file = state_dir.join(kanon_serve::ADDR_FILE);
        let _ = std::fs::remove_file(&addr_file);
        let started = Instant::now();
        let child = Command::new(&self.bin)
            .arg("serve")
            .arg(w.dataset.cli_name())
            .args(["--k", &w.k.to_string()])
            .arg("--state-dir")
            .arg(state_dir)
            .arg("--in")
            .arg(&self.base_csv)
            .args(["--shard-max", &w.shard_max.to_string()])
            .args(["--reopt-every", &w.reopt_every.to_string()])
            .args(["--snapshot-every", &w.snapshot_every.to_string()])
            .args(["--listen", "127.0.0.1:0"])
            .env("KANON_THREADS", w.threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        loop {
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "kanon serve exited early: {status}"
                )));
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err(io::Error::other("kanon serve did not become ready"));
            }
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if text.ends_with('\n') {
                    daemon.addr = text.trim().to_string();
                    let health = Client::connect(&daemon.addr)?.request(b"HEALTH")?;
                    if health.starts_with("OK") {
                        return Ok((daemon, started.elapsed().as_secs_f64()));
                    }
                    return Err(io::Error::other(format!("HEALTH answered {health:?}")));
                }
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}

/// One protocol connection.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Client { stream })
    }

    /// Sends one request frame and reads the response frame.
    pub fn request(&mut self, payload: &[u8]) -> io::Result<String> {
        let mut frame = Vec::with_capacity(payload.len() + 4);
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(payload);
        self.stream.write_all(&frame)?;
        let mut len = [0u8; 4];
        self.stream.read_exact(&mut len)?;
        let mut buf = vec![0u8; u32::from_be_bytes(len) as usize];
        self.stream.read_exact(&mut buf)?;
        String::from_utf8(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Everything the serve phase measured. Each timed sample has a span
/// (start and end, seconds on `speed`'s clock) to normalize it by the
/// probes taken near it; the probes run on the benchmark's side between
/// requests and around daemon starts.
#[derive(Debug, Default)]
pub struct Phase {
    pub speed: speed::Log,
    pub setup_s: Vec<f64>,
    pub setup_at: Vec<(f64, f64)>,
    pub batch_ms: Vec<f64>,
    pub batch_at: Vec<(f64, f64)>,
    pub output_ms: Vec<f64>,
    pub output_at: Vec<(f64, f64)>,
    /// How late each `OUTPUT` was sent after it was due.
    pub reader_late_ms: Vec<f64>,
    pub recover_s: Vec<f64>,
    pub recover_at: Vec<(f64, f64)>,
    pub rows_acked: usize,
    /// Streamed rows absorbed into existing clusters, from `STATS`.
    pub rows_absorbed: u64,
    pub writer_s: f64,
    /// Loss of the latest release check's `OUTPUT`.
    pub loss: f64,
    /// `VmHWM` of the daemon process at the latest release check.
    pub daemon_peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Phase {
    /// `values` timed over `spans`, at the reference host speed.
    pub fn normalized(&self, values: &[f64], spans: &[(f64, f64)]) -> Vec<f64> {
        values
            .iter()
            .zip(spans)
            .map(|(v, (from, to))| self.speed.normalize(*v, *from, *to))
            .collect()
    }

    /// Starts a daemon between two probes and records the start as a
    /// `setup_s` sample.
    fn timed_start(&mut self, launcher: &Launcher, state_dir: &Path) -> io::Result<Daemon> {
        self.speed.probe();
        let from = self.speed.now();
        let (daemon, s) = launcher.start(state_dir)?;
        self.setup_at.push((from, self.speed.now()));
        self.setup_s.push(s);
        self.speed.probe();
        Ok(daemon)
    }
}

/// `OUTPUT`, `HEALTH` (less `replayed`) and the `STATS` recovery block
/// of a daemon at one moment.
pub type Views = (String, String, String);

/// The live daemon of a run, on one state directory, and what was
/// measured on it. Dropping it kills the daemon.
pub struct Session<'a> {
    launcher: &'a Launcher,
    work: PathBuf,
    state_dir: PathBuf,
    daemon: Daemon,
    pub phase: Phase,
}

impl<'a> Session<'a> {
    /// Starts the daemon on a fresh state directory under `work`; the
    /// start is one `setup_s` sample.
    pub fn start(launcher: &'a Launcher, work: &Path) -> io::Result<Session<'a>> {
        let state_dir = work.join("serve-state");
        let _ = std::fs::remove_dir_all(&state_dir);
        std::fs::create_dir_all(&state_dir)?;
        let mut phase = Phase::default();
        let daemon = phase.timed_start(launcher, &state_dir)?;
        Ok(Session {
            launcher,
            work: work.to_path_buf(),
            state_dir,
            daemon,
            phase,
        })
    }

    /// One more `setup_s` sample: a second daemon started on a fresh
    /// state directory of its own, then stopped.
    pub fn fresh_start(&mut self) -> io::Result<()> {
        let dir = self.work.join("serve-setup");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        drop(self.phase.timed_start(self.launcher, &dir)?);
        Ok(())
    }

    /// Sends `batches` from the closed-loop writer while the open-loop
    /// reader asks for `OUTPUT`; both on connections of their own. The
    /// writer takes a probe before every [`PROBE_EVERY`] batches and
    /// after the last.
    pub fn stream(&mut self, batches: &[String]) -> io::Result<()> {
        let period = Duration::from_millis(self.launcher.workload.reader_period_ms);
        let stop = Arc::new(AtomicBool::new(false));
        let reader = spawn_reader(self.daemon.addr.clone(), period, Arc::clone(&stop));
        let phase = &mut self.phase;
        let mut writer = Client::connect(&self.daemon.addr)?;
        let writer_start = Instant::now();
        for (i, body) in batches.iter().enumerate() {
            if i % PROBE_EVERY == 0 {
                phase.speed.probe();
            }
            let payload = format!("BATCH\n{body}");
            let t = Instant::now();
            phase.attempted += 1;
            match writer.request(payload.as_bytes()) {
                Ok(r) if r.starts_with("OK") => {
                    let done = Instant::now();
                    phase.batch_ms.push((done - t).as_secs_f64() * 1e3);
                    phase
                        .batch_at
                        .push((phase.speed.at(t), phase.speed.at(done)));
                    phase.rows_acked += body.lines().count();
                }
                _ => phase.failed += 1,
            }
        }
        phase.speed.probe();
        phase.writer_s += writer_start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);
        let r = reader.join().expect("reader thread");
        phase.output_ms.extend(r.latency_ms);
        let at: Vec<(f64, f64)> = r
            .spans
            .iter()
            .map(|(due, done)| (phase.speed.at(*due), phase.speed.at(*done)))
            .collect();
        phase.output_at.extend(at);
        phase.reader_late_ms.extend(r.late_ms);
        phase.attempted += r.attempted;
        phase.failed += r.failed;
        Ok(())
    }

    /// Checks the current release: the daemon holds every acknowledged
    /// row, the `OUTPUT` has every published one (pending rows are
    /// withheld), each generalized row appears at least k times, and its
    /// loss is the serve loss. Returns the views a recovery must restore.
    pub fn check_release(&mut self) -> io::Result<Views> {
        let w = &self.launcher.workload;
        let phase = &mut self.phase;
        let mut client = Client::connect(&self.daemon.addr)?;
        let views = snapshot_views(&mut client)?;
        phase.attempted += 1;
        let resident = counter(&views.1, "rows").unwrap_or(0) as usize;
        let published = counter(&views.1, "published").unwrap_or(0) as usize;
        match check_output(&views.0, w.k, published) {
            Some(loss) if resident == w.serve_base_rows + phase.rows_acked => phase.loss = loss,
            _ => phase.failed += 1,
        }
        // The lifetime block counts this process's requests only, so the
        // absorbed rows of each daemon process add up.
        phase.rows_absorbed += lifetime_counter(&mut client, "serve_rows_absorbed")?;
        phase.daemon_peak_rss_mb = stats::vm_hwm_mb(&self.daemon.pid()).unwrap_or(0.0);
        Ok(views)
    }

    /// `cycles` recovery cycles: `kill -9`, then restart on the same
    /// state directory. The restarted daemon must publish the same
    /// `OUTPUT` and `HEALTH` (less its `replayed` count) as `before`,
    /// and since every cycle replays the same journal tail, the same
    /// `STATS` recovery block every time. (The `STATS` lifetime block
    /// counts only this process's requests, so it restarts from zero
    /// and is not compared.)
    pub fn recover(&mut self, cycles: usize, before: &Views) -> io::Result<()> {
        let mut recovery_block = None;
        for _ in 0..cycles {
            self.phase.speed.probe();
            let killed = Instant::now();
            self.daemon.kill9()?;
            let (d, _) = self.launcher.start(&self.state_dir)?;
            let up = Instant::now();
            self.phase.recover_s.push((up - killed).as_secs_f64());
            let speed = &self.phase.speed;
            self.phase.recover_at.push((speed.at(killed), speed.at(up)));
            self.daemon = d;
            self.phase.attempted += 1;
            let after = snapshot_views(&mut Client::connect(&self.daemon.addr)?)?;
            let first = &*recovery_block.get_or_insert_with(|| after.2.clone());
            if (&after.0, &after.1, &after.2) != (&before.0, &before.1, first) {
                self.phase.failed += 1;
            }
        }
        self.phase.speed.probe();
        Ok(())
    }
}

/// What the open-loop reader saw.
struct ReaderOut {
    latency_ms: Vec<f64>,
    /// When each answered `OUTPUT` fell due and when its answer came.
    spans: Vec<(Instant, Instant)>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Open-loop reader: `OUTPUT` falls due every `period`, whether or not
/// the previous answer came back in time, until `stop` is set.
fn spawn_reader(
    addr: String,
    period: Duration,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<ReaderOut> {
    std::thread::spawn(move || {
        let mut out = ReaderOut {
            latency_ms: Vec::new(),
            spans: Vec::new(),
            late_ms: Vec::new(),
            attempted: 0,
            failed: 0,
        };
        let Ok(mut client) = Client::connect(&addr) else {
            out.attempted = 1;
            out.failed = 1;
            return out;
        };
        let mut due = Instant::now() + period;
        while !stop.load(Ordering::Acquire) {
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            out.attempted += 1;
            match client.request(b"OUTPUT") {
                Ok(r) if r.starts_with("OK") => {
                    let done = Instant::now();
                    out.latency_ms.push((done - due).as_secs_f64() * 1e3);
                    out.spans.push((due, done));
                    out.late_ms.push((sent - due).as_secs_f64() * 1e3);
                }
                _ => out.failed += 1,
            }
            due += period;
        }
        out
    })
}

/// `OUTPUT`, `HEALTH` without its `replayed` field, and the `STATS`
/// recovery block (line 4).
fn snapshot_views(client: &mut Client) -> io::Result<Views> {
    let output = client.request(b"OUTPUT")?;
    let health = client.request(b"HEALTH")?;
    let health = match health.find(",\"replayed\":") {
        Some(at) => {
            let rest = &health[at + 1..];
            let end = rest.find(',').map_or(rest.len(), |e| e + 1);
            format!("{}{}", &health[..at + 1], &rest[end..])
        }
        None => health,
    };
    let stats = client.request(b"STATS")?;
    let recovery = stats.lines().nth(3).unwrap_or_default().to_string();
    Ok((output, health, recovery))
}

/// One counter of the `STATS` lifetime block (line 2).
fn lifetime_counter(client: &mut Client, name: &str) -> io::Result<u64> {
    let stats = client.request(b"STATS")?;
    Ok(counter(stats.lines().nth(1).unwrap_or_default(), name).unwrap_or(0))
}

/// Reads `"name":N` out of a `STATS` counter block or a `HEALTH` line.
fn counter(block: &str, name: &str) -> Option<u64> {
    let rest = &block[block.find(&format!("\"{name}\":"))? + name.len() + 3..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Checks an `OUTPUT` answer: `OK rows=N loss=X` then the generalized
/// CSV with `N` = `rows_expected` rows, every distinct generalized row
/// appearing at least `k` times. Returns the loss when all holds.
pub fn check_output(output: &str, k: usize, rows_expected: usize) -> Option<f64> {
    let mut lines = output.lines();
    let head = lines.next()?;
    let mut rows = None;
    let mut loss = None;
    for word in head.split_whitespace() {
        if let Some(v) = word.strip_prefix("rows=") {
            rows = v.parse::<usize>().ok();
        } else if let Some(v) = word.strip_prefix("loss=") {
            loss = v.parse::<f64>().ok();
        }
    }
    if !head.starts_with("OK ") || rows? != rows_expected {
        return None;
    }
    lines.next()?; // CSV header
    let mut classes: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    let mut n = 0;
    for line in lines.filter(|l| !l.is_empty()) {
        *classes.entry(line).or_default() += 1;
        n += 1;
    }
    (n == rows_expected && classes.values().all(|&c| c >= k)).then_some(loss?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_check_counts_classes() {
        let ok = "OK rows=4 loss=0.500000\nA,B\n*,x\n*,x\n{a,b},y\n{a,b},y\n";
        assert_eq!(check_output(ok, 2, 4), Some(0.5));
        assert_eq!(check_output(ok, 3, 4), None);
        assert_eq!(check_output(ok, 2, 5), None);
        assert_eq!(check_output("ERR Io: x", 2, 4), None);
        assert_eq!(
            counter(
                "{\"a\":1,\"serve_rows_absorbed\":42}",
                "serve_rows_absorbed"
            ),
            Some(42)
        );
    }
}
