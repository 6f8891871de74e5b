//! The one-shot pipeline: the call chain behind
//! `kanon anonymize <DATASET> --in FILE --k K --notion k --shard-max N`,
//! repeated in-process.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Instant;

use kanon_algos::ShardConfig;
use kanon_core::error::KanonResult;
use kanon_core::schema::SharedSchema;
use kanon_data::{csv, RowPolicy};
use kanon_measures::{EntropyMeasure, NodeCostTable};

use crate::trace::Tracer;
use crate::workload::Workload;

/// What one repetition produced.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Wall time of the whole chain, seconds.
    pub wall_s: f64,
    /// CSV ingest + cost table, seconds.
    pub setup_s: f64,
    pub loss: f64,
    /// Hash of the rendered CSV.
    pub csv_hash: u64,
    /// kanon-verify's k-anonymity check of the output.
    pub k_anonymous: bool,
    pub rows_out: usize,
    pub shards_built: usize,
    pub shard_rows_max: usize,
    pub boundary_repairs: usize,
    /// Host speed around the repetition: the mean of a probe the parent
    /// takes just before spawning its process and one just after it
    /// exits (see [`crate::speed`]), seconds. The probe runs outside the
    /// repetition's process so that it leaves its heap and peak RSS alone.
    pub probe_s: f64,
}

/// Runs ingest → cost table → sharded anonymize → CSV render once. With
/// a tracer, each call into a layer is a span.
pub fn run_once(
    schema: &SharedSchema,
    path: &Path,
    w: &Workload,
    mut tracer: Option<&mut Tracer>,
) -> KanonResult<Rep> {
    let start = Instant::now();
    let s = span(&mut tracer, "data.ingest");
    let (table, _) = kanon_data::table_from_path_with_policy(
        schema,
        &path.to_string_lossy(),
        true,
        RowPolicy::Strict,
    )?;
    close(&mut tracer, s);
    let s = span(&mut tracer, "measures.cost_table");
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);
    close(&mut tracer, s);
    let setup_s = start.elapsed().as_secs_f64();
    let cfg = ShardConfig::new(w.k).with_shard_max(w.shard_max);
    let s = span(&mut tracer, "algos.sharded");
    let out = kanon_algos::try_sharded_k_anonymize(&table, &costs, &cfg)?.into_inner();
    close(&mut tracer, s);
    let s = span(&mut tracer, "data.render");
    let text = csv::generalized_to_csv(&out.out.table);
    close(&mut tracer, s);
    let wall_s = start.elapsed().as_secs_f64();

    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    Ok(Rep {
        wall_s,
        setup_s,
        loss: out.out.loss,
        csv_hash: h.finish(),
        k_anonymous: kanon_verify::is_k_anonymous(&out.out.table, w.k),
        rows_out: out.out.table.num_rows(),
        shards_built: out.stats.shards_built,
        shard_rows_max: out.stats.shard_rows_max,
        boundary_repairs: out.stats.boundary_repairs,
        probe_s: f64::NAN,
    })
}

fn span(t: &mut Option<&mut Tracer>, name: &'static str) -> Option<usize> {
    t.as_mut().map(|t| t.begin(name, None))
}

fn close(t: &mut Option<&mut Tracer>, id: Option<usize>) {
    if let (Some(t), Some(id)) = (t.as_mut(), id) {
        t.end(id);
    }
}

/// The one-shot repetitions of an end-to-end run.
#[derive(Debug, Default)]
pub struct Phase {
    pub reps: Vec<Rep>,
    /// Peak RSS of each timed repetition's process, MB.
    pub peak_rss_mb: Vec<f64>,
    /// The same chain at the other thread count (1 ↔ 2), untimed.
    pub cross_thread: Vec<Rep>,
}

impl Phase {
    /// Repetition walls at the reference host speed, seconds.
    pub fn normalized_walls(&self) -> Vec<f64> {
        self.reps
            .iter()
            .map(|r| crate::speed::normalize(r.wall_s, r.probe_s))
            .collect()
    }

    /// Repetitions whose output is wrong: not k-anonymous, a row lost,
    /// or a loss or CSV different from the first repetition's (thread
    /// count must not change either).
    pub fn failures(&self, rows_in: usize) -> u64 {
        let first = &self.reps[0];
        self.reps
            .iter()
            .chain(&self.cross_thread)
            .filter(|r| {
                !r.k_anonymous
                    || r.rows_out != rows_in
                    || r.loss.to_bits() != first.loss.to_bits()
                    || r.csv_hash != first.csv_hash
            })
            .count() as u64
    }
}

/// Runs one repetition in this process and prints it as one line; the
/// child side of [`run_child`]. A fresh process per repetition is what
/// a `kanon anonymize` user gets, and keeps one repetition's heap from
/// slowing the next.
pub fn child_main(w: &Workload, path: &Path, threads: usize) -> KanonResult<()> {
    let schema = w.dataset.schema();
    let r = kanon_parallel::with_threads(threads, || run_once(&schema, path, w, None))?;
    println!(
        "{} {} {} {} {} {} {} {} {} {}",
        r.wall_s,
        r.setup_s,
        r.loss.to_bits(),
        r.csv_hash,
        r.k_anonymous,
        r.rows_out,
        r.shards_built,
        r.shard_rows_max,
        r.boundary_repairs,
        crate::stats::vm_hwm_mb("self").unwrap_or(0.0)
    );
    Ok(())
}

/// Runs one repetition in a child process (`bench_bin --oneshot-rep`).
/// Returns it with the child's peak RSS in MB.
pub fn run_child(
    bench_bin: &Path,
    w: &Workload,
    path: &Path,
    threads: usize,
) -> std::io::Result<(Rep, f64)> {
    let out = std::process::Command::new(bench_bin)
        .args(["--oneshot-rep", w.name])
        .arg(path)
        .arg(threads.to_string())
        .stderr(std::process::Stdio::inherit())
        .output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let bad = || std::io::Error::other(format!("one-shot child failed ({}): {text}", out.status));
    if !out.status.success() {
        return Err(bad());
    }
    let f: Vec<&str> = text.split_whitespace().collect();
    if f.len() != 10 {
        return Err(bad());
    }
    let num = |i: usize| f[i].parse::<f64>().map_err(|_| bad());
    let int = |i: usize| f[i].parse::<u64>().map_err(|_| bad());
    Ok((
        Rep {
            wall_s: num(0)?,
            setup_s: num(1)?,
            loss: f64::from_bits(int(2)?),
            csv_hash: int(3)?,
            k_anonymous: f[4] == "true",
            rows_out: int(5)? as usize,
            shards_built: int(6)? as usize,
            shard_rows_max: int(7)? as usize,
            boundary_repairs: int(8)? as usize,
            probe_s: f64::NAN,
        },
        num(9)?,
    ))
}

/// Repeats the pipeline, one child process per repetition between two
/// probes, at the workload's thread count until `budget_s` has passed
/// (at least `min_reps` times).
pub fn run_block(
    bench_bin: &Path,
    path: &Path,
    w: &Workload,
    budget_s: f64,
    min_reps: usize,
    phase: &mut Phase,
) -> std::io::Result<()> {
    let start = Instant::now();
    let mut n = 0;
    while n < min_reps || start.elapsed().as_secs_f64() < budget_s {
        let before = crate::speed::probe();
        let (mut rep, mb) = run_child(bench_bin, w, path, w.threads)?;
        rep.probe_s = (before + crate::speed::probe()) / 2.0;
        phase.reps.push(rep);
        phase.peak_rss_mb.push(mb);
        n += 1;
    }
    Ok(())
}

/// One repetition at the other thread count (1 ↔ 2), untimed: its
/// output must match the timed ones bit for bit.
pub fn run_cross_thread(
    bench_bin: &Path,
    path: &Path,
    w: &Workload,
    phase: &mut Phase,
) -> std::io::Result<()> {
    let other = if w.threads == 1 { 2 } else { 1 };
    phase
        .cross_thread
        .push(run_child(bench_bin, w, path, other)?.0);
    Ok(())
}
