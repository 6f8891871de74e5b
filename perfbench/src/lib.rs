//! `kanon-perfbench`: the repository benchmark.
//!
//! One run measures one workload (see [`workload`]) in one of two modes:
//!
//! * **end to end** (`--trace 0`): the one-shot call chain repeated
//!   in-process, and a real `kanon serve` child over TCP loopback, with
//!   no collector installed anywhere;
//! * **traced** (`--trace 1`): the benchmark's calls into each layer's
//!   public functions, timed in spans, with `kanon-obs` counters read
//!   through a collector installed around them.
//!
//! Both modes check the outputs they produce; see `README.md` for the
//! metric definitions.

pub mod layers;
pub mod oneshot;
pub mod serve;
pub mod speed;
pub mod stats;
pub mod trace;
pub mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use stats::{median, quantile};
use workload::{Inputs, Workload};

/// Named metrics with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| n == name).map(|(_, v, _)| *v)
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// Correct when nothing failed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.0.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The one-line result object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Where a run finds its binaries and keeps its files.
pub struct Env {
    /// The `kanon` CLI, launched as the serve daemon.
    pub kanon_bin: PathBuf,
    /// This benchmark's binary, launched once per one-shot repetition.
    pub bench_bin: PathBuf,
    pub work_dir: PathBuf,
}

type BoxError = Box<dyn std::error::Error>;

fn prepare(w: &Workload, seed: u64, env: &Env) -> Result<(Inputs, PathBuf, PathBuf), BoxError> {
    let inputs = Inputs::generate(w, seed);
    std::fs::create_dir_all(&env.work_dir)?;
    let oneshot_csv = env.work_dir.join("oneshot.csv");
    let base_csv = env.work_dir.join("serve-base.csv");
    std::fs::write(&oneshot_csv, &inputs.oneshot_csv)?;
    std::fs::write(&base_csv, &inputs.base_csv)?;
    Ok((inputs, oneshot_csv, base_csv))
}

/// One-line description of the workload as run, for the log.
fn describe(w: &Workload, seed: u64, inputs: &Inputs) -> String {
    format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"dataset\":\"{}\",\"threads\":{},\"k\":{},\
         \"shard_max\":{},\"oneshot_rows\":{},\"oneshot_distinct_tuple_share\":{:.4},\
         \"serve_base_rows\":{},\"batch_rows\":{},\"batches\":{},\"rounds\":{},\"reopt_every\":{},\
         \"snapshot_every\":{},\"writer\":\"closed-loop, 1 connection\",\
         \"reader\":\"open-loop OUTPUT every {} ms, 1 connection\"}}",
        w.name,
        w.dataset.cli_name(),
        w.threads,
        w.k,
        w.shard_max,
        inputs.oneshot_rows,
        inputs.oneshot_distinct_share,
        w.serve_base_rows,
        w.batch_rows,
        inputs.batches.len(),
        w.rounds(),
        w.reopt_every,
        w.snapshot_every,
        w.reader_period_ms
    )
}

/// The end-to-end run. The serve stream is sent in rounds (see
/// [`Workload::round_batches`]); each round is a block of one-shot
/// repetitions, fresh daemon starts, the round's batches under the
/// open-loop reader, a release check and recovery cycles. Spreading
/// every kind of sample over the whole run keeps a stretch of slow host
/// from landing on one metric only. The one-shot blocks take half of
/// `seconds` in all.
pub fn run_end_to_end(
    w: &Workload,
    seed: u64,
    seconds: f64,
    env: &Env,
) -> Result<Outcome, BoxError> {
    let (inputs, oneshot_csv, base_csv) = prepare(w, seed, env)?;
    eprintln!("{}", describe(w, seed, &inputs));
    let mut m = Metrics::default();

    let rounds = w.rounds();
    let block_s = seconds / 2.0 / rounds as f64;
    let mut one = oneshot::Phase::default();
    let launcher = serve::Launcher {
        bin: env.kanon_bin.clone(),
        workload: w.clone(),
        base_csv,
    };
    let mut session = serve::Session::start(&launcher, &env.work_dir)?;
    for (r, batches) in w.split_rounds(&inputs.batches).into_iter().enumerate() {
        oneshot::run_block(
            &env.bench_bin,
            &oneshot_csv,
            w,
            block_s,
            w.min_reps.div_ceil(rounds),
            &mut one,
        )?;
        if r == 0 {
            oneshot::run_cross_thread(&env.bench_bin, &oneshot_csv, w, &mut one)?;
        }
        for _ in 0..w.setup_starts.div_ceil(rounds) {
            session.fresh_start()?;
        }
        session.stream(batches)?;
        let views = session.check_release()?;
        session.recover(w.recover_cycles.div_ceil(rounds), &views)?;
    }
    let sv = session.phase;
    eprintln!(
        "serve: {} batches in {} rounds, {:.2} s writing, {} OUTPUT reads, \
         absorbed {} of {} streamed rows",
        sv.batch_ms.len(),
        rounds,
        sv.writer_s,
        sv.output_ms.len(),
        sv.rows_absorbed,
        sv.rows_acked
    );
    let walls: Vec<f64> = one.reps.iter().map(|r| r.wall_s).collect();
    let shown: Vec<String> = walls.iter().map(|s| format!("{s:.3}")).collect();
    eprintln!(
        "one-shot: {} repetitions, walls [{}] s; {} shard(s), largest {} rows",
        walls.len(),
        shown.join(" "),
        one.reps[0].shards_built,
        one.reps[0].shard_rows_max
    );
    let probes: Vec<f64> = one.reps.iter().map(|r| r.probe_s).collect();
    let serve_probes = sv.speed.probe_times();
    eprintln!(
        "raw (not normalized): oneshot_rows_per_s {:.1}, setup_s {:.4}, batch_p50_ms {:.3}, \
         batch_p95_ms {:.3}, output_p50_ms {:.4}, recover_s {:.4}; probe p50 {:.3} ms over \
         the one-shot repetitions, {:.3} ms over {} serve-side probes (reference {:.3} ms)",
        inputs.oneshot_rows as f64 / median(&walls),
        median(&sv.setup_s),
        quantile_or_zero(&sv.batch_ms, 0.5),
        quantile_or_zero(&sv.batch_ms, 0.95),
        quantile_or_zero(&sv.output_ms, 0.5),
        quantile_or_zero(&sv.recover_s, 0.5),
        median(&probes) * 1e3,
        quantile_or_zero(&serve_probes, 0.5) * 1e3,
        serve_probes.len(),
        speed::REFERENCE_PROBE_S * 1e3
    );
    m.push(
        "oneshot_rows_per_s",
        inputs.oneshot_rows as f64 / median(&one.normalized_walls()),
        "rows/s",
    );
    m.push("oneshot_loss", one.reps[0].loss, "EM");
    m.push("oneshot_peak_rss_mb", median(&one.peak_rss_mb), "MB");
    let attempted = (one.reps.len() + one.cross_thread.len()) as u64 + sv.attempted;
    let failed = one.failures(inputs.oneshot_rows) + sv.failed;
    // Daemon starts and recoveries: the lower quartile. They also spawn
    // a process and wait on fsync, and in stretches of the host those
    // add a second mode ~0.12 s above the first that the probe does not
    // track; the median flips between the modes from run to run.
    let setup_s = sv.normalized(&sv.setup_s, &sv.setup_at);
    m.push("setup_s", quantile(&setup_s, 0.25), "s");
    // Not normalized: about 40 ms of a median BATCH is a fixed
    // delayed-ACK wait on the daemon's socket, which no host speed moves.
    m.push("batch_p50_ms", quantile_or_zero(&sv.batch_ms, 0.5), "ms");
    let batch_ms = sv.normalized(&sv.batch_ms, &sv.batch_at);
    m.push("batch_p95_ms", quantile_or_zero(&batch_ms, 0.95), "ms");
    let output_ms = sv.normalized(&sv.output_ms, &sv.output_at);
    m.push("output_p50_ms", quantile_or_zero(&output_ms, 0.5), "ms");
    let recover_s = sv.normalized(&sv.recover_s, &sv.recover_at);
    m.push("recover_s", quantile_or_zero(&recover_s, 0.25), "s");
    m.push("serve_loss", sv.loss, "EM");
    m.push("serve_peak_rss_mb", sv.daemon_peak_rss_mb, "MB");
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}

fn quantile_or_zero(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        quantile(samples, q)
    }
}

/// The traced run: per-layer times and counters, then a short live
/// serve load so the layer sum can be set against the real `BATCH`
/// round trip. Spans are written to `trace-<workload>-<seed>.jsonl` in
/// the work directory when the run ends.
pub fn run_traced(
    w: &Workload,
    seed: u64,
    env: &Env,
    oneshot_reps: usize,
) -> Result<Outcome, BoxError> {
    let (inputs, oneshot_csv, base_csv) = prepare(w, seed, env)?;
    eprintln!("{}", describe(w, seed, &inputs));
    let mut m = Metrics::default();
    let mut tracer = trace::Tracer::new();
    let start = Instant::now();

    // How much work the one-shot input shares: what exact-duplicate
    // collapsing would act on.
    m.push(
        "data.distinct_tuple_share",
        inputs.oneshot_distinct_share,
        "fraction",
    );
    layers::oneshot_layers(w, &inputs, &oneshot_csv, oneshot_reps, &mut tracer, &mut m)?;
    let layer_p50_sum = layers::serve_layers(
        w,
        &inputs,
        &env.work_dir.join("trace-state"),
        w.recover_cycles,
        &mut tracer,
        &mut m,
    )?;

    let launcher = serve::Launcher {
        bin: env.kanon_bin.clone(),
        workload: w.clone(),
        base_csv,
    };
    let mut session = serve::Session::start(&launcher, &env.work_dir)?;
    session.stream(&inputs.batches)?;
    session.check_release()?;
    let sv = session.phase;
    let batch_p50 = quantile_or_zero(&sv.batch_ms, 0.5);
    m.push("serve.unaccounted_ms", batch_p50 - layer_p50_sum, "ms");
    m.push(
        "serve.reader_late_ms",
        quantile_or_zero(&sv.reader_late_ms, 0.5),
        "ms",
    );

    let path = trace_path(&env.work_dir, w, seed);
    std::fs::write(&path, tracer.to_json_lines())?;
    eprintln!(
        "traced run took {:.1} s; spans in {}",
        start.elapsed().as_secs_f64(),
        path.display()
    );
    for (name, (total, own)) in tracer.self_times() {
        eprintln!("  {name:<28} total {total:>10.2} ms  self {own:>10.2} ms");
    }
    Ok(Outcome {
        attempted: sv.attempted,
        failed: sv.failed,
        metrics: m,
    })
}

pub fn trace_path(work: &Path, w: &Workload, seed: u64) -> PathBuf {
    work.join(format!("trace-{}-{seed}.jsonl", w.name))
}
