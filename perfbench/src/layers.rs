//! The traced run: times the benchmark's calls into each layer's public
//! functions and reads the `kanon-obs` counters through a `Collector`
//! installed around those calls.

use std::path::Path;
use std::time::Instant;

use kanon_algos::ShardConfig;
use kanon_core::error::{KanonError, KanonResult};
use kanon_data::RowPolicy;
use kanon_measures::{EntropyMeasure, NodeCostTable};
use kanon_obs::{Collector, Counter, RuntimeCounter};
use kanon_serve::journal::{Journal, RecordKind};
use kanon_serve::state::{Measure, ServeConfig, ServeState};

use crate::oneshot;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workload::{Inputs, Workload};
use crate::Metrics;

fn io(path: &Path, e: std::io::Error) -> KanonError {
    KanonError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// One-shot layers. `reps` traced repetitions at the workload's thread
/// count give the per-call times; the sharded call is then timed at 1
/// and 2 threads, and with and without a collector installed.
pub fn oneshot_layers(
    w: &Workload,
    inputs: &Inputs,
    path: &Path,
    reps: usize,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> KanonResult<()> {
    for _ in 0..reps {
        let id = tracer.begin("oneshot.pipeline", None);
        kanon_parallel::with_threads(w.threads, || {
            oneshot::run_once(&inputs.schema, path, w, Some(&mut *tracer))
        })?;
        tracer.end(id);
    }
    m.push(
        "data.ingest_ms",
        median(&tracer.durations("data.ingest")),
        "ms",
    );
    m.push(
        "measures.cost_table_ms",
        median(&tracer.durations("measures.cost_table")),
        "ms",
    );
    m.push(
        "data.render_ms",
        median(&tracer.durations("data.render")),
        "ms",
    );

    let (table, _) = kanon_data::table_from_path_with_policy(
        &inputs.schema,
        &path.to_string_lossy(),
        true,
        RowPolicy::Strict,
    )?;
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);
    let cfg = ShardConfig::new(w.k).with_shard_max(w.shard_max);
    let sharded = |threads: usize, collector: Option<&Collector>| -> KanonResult<f64> {
        let _guard = collector.map(Collector::install);
        let start = Instant::now();
        kanon_parallel::with_threads(threads, || {
            kanon_algos::try_sharded_k_anonymize(&table, &costs, &cfg)
        })?;
        Ok(start.elapsed().as_secs_f64() * 1e3)
    };
    // Interleaved, so drift in the machine's speed hits every variant
    // alike.
    let (mut t1, mut t2, mut plain, mut traced) = (vec![], vec![], vec![], vec![]);
    let mut counters_1t = None;
    let mut counters_2t = None;
    for _ in 0..reps {
        let c = Collector::new();
        t1.push(sharded(1, Some(&c))?);
        counters_1t = Some(c.report());
        let c = Collector::new();
        t2.push(sharded(2, Some(&c))?);
        counters_2t = Some(c.report());
        plain.push(sharded(w.threads, None)?);
        traced.push(sharded(w.threads, Some(&Collector::new()))?);
    }
    m.push("algos.sharded_ms", median(&plain), "ms");
    m.push("algos.sharded_1t_ms", median(&t1), "ms");
    m.push("algos.sharded_2t_ms", median(&t2), "ms");
    m.push(
        "parallel.speedup_1t_to_2t",
        median(&t1) / median(&t2),
        "ratio",
    );
    m.push(
        "obs.overhead_ratio",
        median(&traced) / median(&plain),
        "ratio",
    );
    let r = counters_1t.expect("at least one repetition");
    for (name, c) in [
        ("algos.cluster_dist_evals", Counter::ClusterDistEvals),
        ("algos.merges_performed", Counter::MergesPerformed),
        ("algos.nn_rescans", Counter::NnRescans),
        ("algos.cache_repairs", Counter::CacheRepairs),
        ("algos.boundary_repairs", Counter::BoundaryRepairs),
        ("algos.shards_built", Counter::ShardsBuilt),
        ("algos.shard_rows_max", Counter::ShardRowsMax),
    ] {
        m.push(name, r.counter(c) as f64, "count");
    }
    m.push(
        "algos.signature_bytes_streamed",
        r.counter(Counter::SignatureBytesStreamed) as f64,
        "bytes",
    );
    let r = counters_2t.expect("at least one repetition");
    m.push(
        "parallel.pool_tasks_dispatched",
        r.runtime_counter(RuntimeCounter::PoolTasksDispatched) as f64,
        "count",
    );
    m.push(
        "parallel.pool_park_wakes",
        r.runtime_counter(RuntimeCounter::PoolParkWakes) as f64,
        "count",
    );
    Ok(())
}

/// Serve layers: replays the workload's request stream in-process, in
/// the order the daemon's batch handler runs it (parse → journal append
/// → apply → periodic reopt → periodic snapshot + compaction → render),
/// then times recovery from the state it left. Returns the summed p50
/// of the per-batch layers, to set against the live `BATCH` p50.
pub fn serve_layers(
    w: &Workload,
    inputs: &Inputs,
    dir: &Path,
    recover_reps: usize,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> KanonResult<f64> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| io(dir, e))?;
    let cfg = ServeConfig {
        k: w.k,
        measure: Measure::Em,
        policy: RowPolicy::Strict,
        shard_max: w.shard_max,
        reopt_every: w.reopt_every,
        absorb_epsilon: 0.0,
    };
    let journal_path = dir.join(kanon_serve::JOURNAL_FILE);
    let snapshot_path = dir.join(kanon_serve::SNAPSHOT_FILE);
    kanon_parallel::with_threads(w.threads, || -> KanonResult<()> {
        let base = kanon_data::csv::table_from_csv(&inputs.schema, &inputs.base_csv, true)?;
        let mut state = tracer.time("serve.bootstrap", None, || {
            ServeState::bootstrap(base, cfg.clone())
        })?;
        let mut journal = Journal::open(&journal_path).map_err(|e| io(&journal_path, e))?;
        let (mut ingested, mut absorbed) = (0u64, 0u64);
        let mut output_bytes = 0;
        for body in &inputs.batches {
            let seq = state.next_seq();
            let req = Some(seq);
            let commit = tracer.begin("serve.commit", req);
            let payload = format!("BATCH\n{body}");
            tracer
                .time("serve.proto.parse", req, || {
                    kanon_serve::proto::parse_request(payload.as_bytes())
                })
                .map_err(KanonError::Usage)?;
            tracer
                .time("serve.journal.append", req, || {
                    journal.append(seq, RecordKind::Batch, 0, 0.0, body.as_bytes())
                })
                .map_err(|e| io(&journal_path, e))?;
            let collector = Collector::new();
            let guard = collector.install();
            tracer.time("serve.state.apply", req, || state.apply_batch(body, 0, 0.0))?;
            drop(guard);
            let report = collector.report();
            ingested += report.counter(Counter::ServeRowsIngested);
            absorbed += report.counter(Counter::ServeRowsAbsorbed);
            if w.reopt_every > 0 && state.batches_applied() % w.reopt_every == 0 {
                let rseq = state.next_seq();
                journal
                    .append(rseq, RecordKind::Reopt, 0, 0.0, b"")
                    .map_err(|e| io(&journal_path, e))?;
                tracer.time("serve.state.reopt", req, || state.reopt())?;
            }
            if w.snapshot_every > 0 && state.batches_applied() % w.snapshot_every == 0 {
                tracer
                    .time("serve.snapshot", req, || {
                        state.write_snapshot(&snapshot_path)
                    })
                    .map_err(|e| io(&snapshot_path, e))?;
                let covered = state.next_seq() - 1;
                tracer
                    .time("serve.journal.compact", req, || journal.compact(covered))
                    .map_err(|e| io(&journal_path, e))?;
            }
            output_bytes = tracer.time("serve.render", req, || -> KanonResult<usize> {
                let loss = state.published_loss()?;
                let csv = state.published_csv()?;
                Ok(format!("OK rows={} loss={loss:.6}\n{csv}", state.published_rows()).len())
            })?;
            tracer.end(commit);
        }
        m.push(
            "serve.bootstrap_ms",
            median(&tracer.durations("serve.bootstrap")),
            "ms",
        );
        m.push(
            "serve.absorb_ratio",
            absorbed as f64 / ingested.max(1) as f64,
            "fraction",
        );
        m.push("serve.pending_rows", state.pending_rows() as f64, "count");
        m.push("serve.output_bytes", output_bytes as f64, "bytes");
        Ok(())
    })?;
    let size = |p: &Path| {
        std::fs::metadata(p)
            .map(|md| md.len() as f64)
            .unwrap_or(0.0)
    };
    m.push("serve.journal_bytes", size(&journal_path), "bytes");
    m.push("serve.snapshot_bytes", size(&snapshot_path), "bytes");

    let mut p50_sum = 0.0;
    for (name, span) in [
        ("serve.proto.parse_ms", "serve.proto.parse"),
        ("serve.journal.append_ms", "serve.journal.append"),
        ("serve.state.apply_ms", "serve.state.apply"),
        ("serve.render_ms", "serve.render"),
    ] {
        let p50 = median(&tracer.durations(span));
        p50_sum += p50;
        m.push(name, p50, "ms");
    }
    m.push(
        "serve.state.apply_p95_ms",
        quantile(&tracer.durations("serve.state.apply"), 0.95),
        "ms",
    );
    m.push(
        "serve.render_p95_ms",
        quantile(&tracer.durations("serve.render"), 0.95),
        "ms",
    );
    let commit_total: f64 = tracer.durations("serve.commit").iter().sum();
    let render_total: f64 = tracer.durations("serve.render").iter().sum();
    m.push(
        "serve.render_share",
        render_total / commit_total,
        "fraction",
    );
    for (name, span) in [
        ("serve.state.reopt_ms", "serve.state.reopt"),
        ("serve.snapshot_ms", "serve.snapshot"),
        ("serve.journal.compact_ms", "serve.journal.compact"),
    ] {
        let d = tracer.durations(span);
        m.push(name, if d.is_empty() { 0.0 } else { median(&d) }, "ms");
    }

    // Recovery as the daemon does it: restore the snapshot, then replay
    // the journal tail it does not cover.
    kanon_parallel::with_threads(w.threads, || -> KanonResult<()> {
        for _ in 0..recover_reps {
            let mut state = tracer.time("serve.recover.restore", None, || -> KanonResult<_> {
                let text =
                    std::fs::read_to_string(&snapshot_path).map_err(|e| io(&snapshot_path, e))?;
                ServeState::restore_snapshot(&text, cfg.clone(), inputs.schema.clone())
            })?;
            tracer.time("serve.recover.replay", None, || {
                state.replay_journal(&journal_path)
            })?;
        }
        Ok(())
    })?;
    m.push(
        "serve.recover.restore_ms",
        median(&tracer.durations("serve.recover.restore")),
        "ms",
    );
    m.push(
        "serve.recover.replay_ms",
        median(&tracer.durations("serve.recover.replay")),
        "ms",
    );
    Ok(p50_sum)
}
