//! Experiment E-S5 — loss drift of incremental serving vs from-scratch
//! anonymization, across the ε-bounded absorption tier.
//!
//! Feeds an ART row stream through the `kanon-serve` state machine the
//! way the daemon does — a base bootstrap, then fixed-size appended
//! micro-batches — once per configured ε. Under ε = 0 new rows enter as
//! singletons and are absorbed into the *first* mature cluster whose
//! closure the join provably leaves unchanged; under ε > 0 the daemon
//! instead admits every cluster whose per-member loss the join raises
//! by less than ε (a closure-preserving join raises it by exactly
//! zero) and places the row in the cheapest admissible home (see
//! `ServeState::apply_batch`). Every few batches the run probes the
//! relative loss drift
//! of the incremental clustering against a fresh sharded run over the
//! same published rows (`ServeState::probe_drift`, read-only). A final
//! `reopt` per ε shows the drift collapsing back to zero when the
//! daemon adopts a from-scratch clustering — the maintenance story of
//! DESIGN.md §5h.
//!
//! Emits one JSON row per probe (tagged with its ε) to
//! `BENCH_serve_drift.json` and a human-readable curve per ε to stdout.
//! Fully deterministic: same flags, same bytes, any `KANON_THREADS`.
//!
//! Usage:
//! `cargo run --release -p kanon-bench --bin serve_drift -- \
//!    [--n0 2000] [--batch 100] [--batches 40] [--k 10] [--seed 42] \
//!    [--every 5] [--measure em|lm] [--shard-max 10000] \
//!    [--epsilons 0,0.01,0.05] [--out BENCH_serve_drift.json]`

#![forbid(unsafe_code)]

use kanon_core::table::Table;
use kanon_data::art;
use kanon_data::csv::{table_to_csv, RowPolicy};
use kanon_serve::state::{Measure, ServeConfig, ServeState};

struct Probe {
    epsilon: f64,
    batch: u64,
    rows: usize,
    published: usize,
    pending: usize,
    clusters: usize,
    absorbed_total: usize,
    absorbed_eps_total: usize,
    loss_incremental: f64,
    loss_scratch: f64,
    drift: f64,
}

/// The post-reopt probe of one ε's run.
struct ReoptProbe {
    epsilon: f64,
    clusters: usize,
    loss_incremental: f64,
    loss_scratch: f64,
    drift: f64,
}

struct SweepParams {
    n0: usize,
    batch: usize,
    batches: u64,
    k: usize,
    every: u64,
    measure: Measure,
    shard_max: usize,
}

/// Runs the full incremental stream once under `epsilon`, printing the
/// drift curve and appending probe rows; returns the post-reopt probe.
fn run_stream(full: &Table, p: &SweepParams, epsilon: f64, probes: &mut Vec<Probe>) -> ReoptProbe {
    let base = full
        .select_rows(&(0..p.n0).collect::<Vec<_>>())
        .expect("base slice");
    let cfg = ServeConfig {
        k: p.k,
        measure: p.measure,
        policy: RowPolicy::Strict,
        shard_max: p.shard_max,
        reopt_every: 0,
        absorb_epsilon: epsilon,
    };
    let mut state = ServeState::bootstrap(base, cfg).expect("bootstrap");

    println!("\n── absorb_epsilon = {epsilon} ──");
    println!(
        "{:>6} {:>8} {:>10} {:>8} {:>9} {:>9} {:>8} {:>12} {:>12} {:>9}",
        "batch",
        "rows",
        "published",
        "pending",
        "clusters",
        "absorbed",
        "abs_eps",
        "loss_inc",
        "loss_scr",
        "drift"
    );
    let mut absorbed_total = 0usize;
    let mut absorbed_eps_total = 0usize;
    for b in 1..=p.batches {
        let lo = p.n0 + (b as usize - 1) * p.batch;
        let sub = full
            .select_rows(&(lo..lo + p.batch).collect::<Vec<_>>())
            .expect("batch slice");
        let csv = table_to_csv(&sub);
        let body = csv.split_once('\n').expect("header row").1;
        let report = state.apply_batch(body, 0, epsilon).expect("apply batch");
        absorbed_total += report.absorbed;
        absorbed_eps_total += report.absorbed_eps;
        if b.is_multiple_of(p.every) || b == p.batches {
            let probe = state.probe_drift().expect("probe drift");
            println!(
                "{b:>6} {:>8} {:>10} {:>8} {:>9} {absorbed_total:>9} \
                 {absorbed_eps_total:>8} {:>12.6} {:>12.6} {:>8.2}%",
                state.num_rows(),
                state.published_rows(),
                state.pending_rows(),
                state.mature_clusters(),
                probe.loss_incremental,
                probe.loss_scratch,
                probe.drift * 100.0,
            );
            probes.push(Probe {
                epsilon,
                batch: b,
                rows: state.num_rows(),
                published: state.published_rows(),
                pending: state.pending_rows(),
                clusters: state.mature_clusters(),
                absorbed_total,
                absorbed_eps_total,
                loss_incremental: probe.loss_incremental,
                loss_scratch: probe.loss_scratch,
                drift: probe.drift,
            });
        }
    }

    // The maintenance move: one reopt adopts a from-scratch clustering
    // over everything (pending included) and zeroes the drift.
    let reopt = state.reopt().expect("reopt");
    let after = state.probe_drift().expect("probe after reopt");
    println!(
        "reopt: loss {:.6} -> {:.6} (drift was {:+.2}%), {} clusters, \
         post-reopt drift {:+.2}%",
        reopt.loss_incremental,
        reopt.loss_scratch,
        reopt.drift * 100.0,
        reopt.clusters,
        after.drift * 100.0,
    );
    ReoptProbe {
        epsilon,
        clusters: reopt.clusters,
        loss_incremental: after.loss_incremental,
        loss_scratch: after.loss_scratch,
        drift: after.drift,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut n0 = 2000usize;
    let mut batch = 100usize;
    let mut batches = 40u64;
    let mut k = 10usize;
    let mut seed = 42u64;
    let mut every = 5u64;
    let mut measure = "em".to_string();
    let mut shard_max = kanon_core::config::SHARD_MAX_DEFAULT;
    let mut epsilons = "0,0.01,0.05".to_string();
    let mut out_path = "BENCH_serve_drift.json".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = |it: &mut std::slice::Iter<String>| {
            it.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
                .clone()
        };
        match flag.as_str() {
            "--n0" => n0 = val(&mut it).parse().expect("--n0"),
            "--batch" => batch = val(&mut it).parse().expect("--batch"),
            "--batches" => batches = val(&mut it).parse().expect("--batches"),
            "--k" => k = val(&mut it).parse().expect("--k"),
            "--seed" => seed = val(&mut it).parse().expect("--seed"),
            "--every" => every = val(&mut it).parse().expect("--every"),
            "--measure" => measure = val(&mut it),
            "--shard-max" => shard_max = val(&mut it).parse().expect("--shard-max"),
            "--epsilons" => epsilons = val(&mut it),
            "--out" => out_path = val(&mut it),
            other => panic!("unknown flag {other}"),
        }
    }
    let measure = Measure::parse(&measure).expect("--measure em|lm");
    let epsilons: Vec<f64> = epsilons
        .split(',')
        .map(|s| {
            let e: f64 = s.trim().parse().expect("--epsilons: comma-separated f64s");
            assert!(
                e.is_finite() && e.total_cmp(&0.0).is_ge(),
                "--epsilons: values must be finite and non-negative"
            );
            e
        })
        .collect();

    // One deterministic stream shared by every ε: the base table is the
    // prefix, every batch a consecutive slice of the remainder — exactly
    // what a producer appending to a growing dataset looks like.
    let total = n0 + batch * batches as usize;
    let full = art::generate(total, seed);

    println!(
        "SERVE DRIFT — ART, n0 = {n0}, batch = {batch}, k = {k}, \
         measure = {measure:?} (seed {seed}), epsilons = {epsilons:?}"
    );
    let params = SweepParams {
        n0,
        batch,
        batches,
        k,
        every,
        measure,
        shard_max,
    };
    let mut probes: Vec<Probe> = Vec::new();
    let mut reopts: Vec<ReoptProbe> = Vec::new();
    for &eps in &epsilons {
        reopts.push(run_stream(&full, &params, eps, &mut probes));
    }

    let mut json = String::from("[\n");
    for p in &probes {
        json.push_str(&format!(
            "  {{\"epsilon\": {}, \"batch\": {}, \"rows\": {}, \"published\": {}, \
             \"pending\": {}, \"clusters\": {}, \"absorbed_total\": {}, \
             \"absorbed_eps_total\": {}, \"loss_incremental\": {:.12}, \
             \"loss_scratch\": {:.12}, \"drift\": {:.12}}},\n",
            p.epsilon,
            p.batch,
            p.rows,
            p.published,
            p.pending,
            p.clusters,
            p.absorbed_total,
            p.absorbed_eps_total,
            p.loss_incremental,
            p.loss_scratch,
            p.drift,
        ));
    }
    for (i, r) in reopts.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"epsilon\": {}, \"batch\": \"post-reopt\", \"loss_incremental\": {:.12}, \
             \"loss_scratch\": {:.12}, \"drift\": {:.12}, \"clusters\": {}}}{}\n",
            r.epsilon,
            r.loss_incremental,
            r.loss_scratch,
            r.drift,
            r.clusters,
            if i + 1 < reopts.len() { "," } else { "" }
        ));
    }
    json.push_str("]\n");
    std::fs::write(&out_path, json).expect("write drift rows");
    println!(
        "\nwrote {} probe rows to {out_path}",
        probes.len() + reopts.len()
    );
}
