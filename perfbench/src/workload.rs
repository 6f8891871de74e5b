//! The named workloads and the inputs they generate from a seed.
//!
//! Each workload drives one dataset through both user surfaces: the
//! one-shot `kanon anonymize --notion k --shard-max` call chain, and a
//! live `kanon serve` daemon fed a micro-batch stream over TCP loopback.

use std::collections::HashSet;

use kanon_core::schema::SharedSchema;
use kanon_core::table::Table;
use kanon_data::{adult, art, csv};

/// The two built-in generators the workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    Art,
    Adult,
}

impl Dataset {
    /// The dataset argument of the `kanon` CLI.
    pub fn cli_name(self) -> &'static str {
        match self {
            Dataset::Art => "art",
            Dataset::Adult => "adult",
        }
    }

    pub fn schema(self) -> SharedSchema {
        match self {
            Dataset::Art => art::schema(),
            Dataset::Adult => adult::schema(),
        }
    }

    pub fn generate(self, schema: &SharedSchema, n: usize, seed: u64) -> Table {
        match self {
            Dataset::Art => art::generate_with_schema(schema, n, seed),
            Dataset::Adult => adult::generate_with_schema(schema, n, seed),
        }
    }
}

/// Parameters of one workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    /// Worker threads, pinned for the one-shot pipeline (in-process) and
    /// for the daemon (`KANON_THREADS`). One thread: on a shared 2-vCPU
    /// host, 2-thread walls swing far more from run to run. The traced
    /// run measures the 1T → 2T ratio instead.
    pub threads: usize,
    pub k: usize,
    /// `--shard-max`. Small, so that every table splits into many
    /// shards and the work a seed's data asks for varies little from
    /// seed to seed: at 2000, whether a 2600-row table split into one
    /// shard or two decided a 2× difference in reopt time.
    pub shard_max: usize,
    /// Rows of the one-shot input.
    pub oneshot_rows: usize,
    /// Fewest one-shot repetitions a run makes, whatever `--seconds` is.
    pub min_reps: usize,
    /// Rows the daemon bootstraps from.
    pub serve_base_rows: usize,
    /// Rows per `BATCH`.
    pub batch_rows: usize,
    /// `BATCH` requests the closed-loop writer sends.
    pub batches: usize,
    /// The stream is sent in rounds of this many batches (the first
    /// round also takes the remainder), spread over the run between
    /// one-shot blocks so that every metric samples the host at several
    /// times. Each round ends with a release check and `kill -9`
    /// recovery cycles. A multiple of `snapshot_every`, so that every
    /// kill leaves the same journal tail.
    pub round_batches: usize,
    /// `--reopt-every` of the daemon.
    pub reopt_every: u64,
    /// `--snapshot-every` of the daemon.
    pub snapshot_every: u64,
    /// Period of the open-loop `OUTPUT` reader.
    pub reader_period_ms: u64,
    /// Fresh daemon starts per run besides the first (`setup_s` is the
    /// median of all), spread over the rounds.
    pub setup_starts: usize,
    /// `kill -9` → restart cycles per run (`recover_s` is their median),
    /// spread over the rounds.
    pub recover_cycles: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "art",
            dataset: Dataset::Art,
            threads: 1,
            k: 10,
            shard_max: 500,
            oneshot_rows: 30_000,
            min_reps: 8,
            serve_base_rows: 5_000,
            batch_rows: 50,
            batches: 220,
            round_batches: 50,
            reopt_every: 100,
            snapshot_every: 50,
            reader_period_ms: 50,
            setup_starts: 16,
            recover_cycles: 24,
        },
        Workload {
            name: "adult",
            dataset: Dataset::Adult,
            threads: 1,
            k: 10,
            shard_max: 500,
            oneshot_rows: 15_000,
            min_reps: 8,
            serve_base_rows: 3_000,
            batch_rows: 10,
            batches: 210,
            round_batches: 50,
            reopt_every: 10,
            snapshot_every: 25,
            reader_period_ms: 50,
            setup_starts: 16,
            recover_cycles: 24,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// A reduced-size copy for the benchmark's self-tests.
    pub fn reduced(&self) -> Workload {
        Workload {
            oneshot_rows: 600,
            min_reps: 2,
            serve_base_rows: 300,
            batch_rows: 20,
            batches: 14,
            round_batches: 4,
            reopt_every: if self.reopt_every > 0 { 5 } else { 0 },
            snapshot_every: 4,
            setup_starts: 1,
            recover_cycles: 1,
            ..self.clone()
        }
    }

    /// Rounds the serve stream is sent in.
    pub fn rounds(&self) -> usize {
        (self.batches / self.round_batches).max(1)
    }

    /// `batches` cut into [`Workload::rounds`] rounds.
    pub fn split_rounds<'a>(&self, batches: &'a [String]) -> Vec<&'a [String]> {
        let first = batches.len() - (self.rounds() - 1) * self.round_batches;
        let mut out = vec![&batches[..first]];
        out.extend(batches[first..].chunks(self.round_batches));
        out
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    pub schema: SharedSchema,
    /// The one-shot input, CSV with header.
    pub oneshot_csv: String,
    pub oneshot_rows: usize,
    /// Distinct quasi-identifier tuples ÷ rows of the one-shot input.
    pub oneshot_distinct_share: f64,
    /// The daemon's base table, CSV with header.
    pub base_csv: String,
    /// The `BATCH` bodies (CSV rows, no header), continuing the stream
    /// the base table starts.
    pub batches: Vec<String>,
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64) -> Inputs {
        let schema = w.dataset.schema();
        let oneshot = w.dataset.generate(&schema, w.oneshot_rows, seed);
        let distinct: HashSet<_> = oneshot.rows().iter().collect();
        let oneshot_distinct_share = distinct.len() as f64 / oneshot.num_rows() as f64;
        let oneshot_csv = csv::table_to_csv(&oneshot);

        // One stream, split into the base table and the batches. A
        // different seed offset keeps it independent of the one-shot
        // input.
        let stream_rows = w.serve_base_rows + w.batches * w.batch_rows;
        let stream = w
            .dataset
            .generate(&schema, stream_rows, seed.wrapping_add(0x5EED));
        let text = csv::table_to_csv(&stream);
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        let mut base_csv = format!("{header}\n");
        for line in lines.by_ref().take(w.serve_base_rows) {
            base_csv.push_str(line);
            base_csv.push('\n');
        }
        let rest: Vec<&str> = lines.collect();
        let batches = rest
            .chunks(w.batch_rows)
            .map(|chunk| {
                let mut body = chunk.join("\n");
                body.push('\n');
                body
            })
            .collect();
        Inputs {
            schema,
            oneshot_csv,
            oneshot_rows: oneshot.num_rows(),
            oneshot_distinct_share,
            base_csv,
            batches,
        }
    }
}
