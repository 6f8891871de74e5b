//! `kanon-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Needs `PERFBENCH_KANON_BIN` (the `kanon` binary to launch for serve)
//! and `PERFBENCH_WORK_DIR` (scratch space); `run.sh` sets both. Prints
//! progress on stderr and the result object as the last stdout line.

use std::path::PathBuf;
use std::process::exit;

use kanon_perfbench::{oneshot, run_end_to_end, run_traced, workload, Env};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: kanon-perfbench --workload NAME --seed N --seconds S --trace 0|1");
    let names: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
    eprintln!("workloads: {}", names.join(", "));
    exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--oneshot-rep") {
        // Child mode: one one-shot repetition (see `oneshot::run_child`).
        let [_, name, path, threads] = &args[..] else {
            usage("--oneshot-rep takes WORKLOAD CSV THREADS")
        };
        let w =
            workload::by_name(name).unwrap_or_else(|| usage(&format!("unknown workload {name}")));
        let threads = threads
            .parse()
            .unwrap_or_else(|_| usage("THREADS must be an integer"));
        if let Err(e) = oneshot::child_main(&w, std::path::Path::new(path), threads) {
            eprintln!("error: {e}");
            exit(1)
        }
        kanon_parallel::shutdown_pool();
        return;
    }
    let mut name = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok(),
            "--trace" => trace = Some(value == "1"),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let name = name.unwrap_or_else(|| usage("--workload is required"));
    let w = workload::by_name(&name).unwrap_or_else(|| usage(&format!("unknown workload {name}")));
    let seed = seed.unwrap_or_else(|| usage("--seed needs an unsigned integer"));
    let seconds = seconds.unwrap_or_else(|| usage("--seconds needs a number"));
    let trace = trace.unwrap_or(false);
    let var = |key: &str| {
        std::env::var_os(key)
            .map(PathBuf::from)
            .unwrap_or_else(|| usage(&format!("{key} is not set (run perfbench/run.sh)")))
    };
    let bench_bin = std::env::current_exe().unwrap_or_else(|e| usage(&format!("no own path: {e}")));
    let env = Env {
        kanon_bin: var("PERFBENCH_KANON_BIN"),
        bench_bin,
        work_dir: var("PERFBENCH_WORK_DIR").join(w.name),
    };
    let result = if trace {
        run_traced(&w, seed, &env, 3)
    } else {
        run_end_to_end(&w, seed, seconds, &env)
    };
    let _ = std::fs::remove_dir_all(env.work_dir.join("serve-state"));
    match result {
        Ok(outcome) => {
            kanon_parallel::shutdown_pool();
            println!("{}", outcome.to_json());
        }
        Err(e) => {
            eprintln!("error: {e}");
            exit(1)
        }
    }
}
