//! Protocol robustness: arbitrary bytes — unframed garbage, framed
//! garbage, and truncated streams — never panic the daemon or the
//! protocol layer, and the daemon keeps answering `HEALTH` afterwards.
//!
//! One shared daemon serves every case over real TCP connections, so
//! the property covers the full accept → frame → parse → respond path,
//! not just the parser.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::OnceLock;

use kanon_core::schema::{SchemaBuilder, SharedSchema};
use kanon_data::csv::{table_from_csv_with_policy, RowPolicy};
use kanon_serve::proto::{parse_request, read_frame, write_frame};
use kanon_serve::state::{Measure, ServeConfig};
use kanon_serve::{Daemon, ServeOptions, ADDR_FILE};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Address of the shared fuzz-target daemon, started on first use.
fn daemon_addr() -> &'static str {
    static ADDR: OnceLock<String> = OnceLock::new();
    ADDR.get_or_init(|| {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("kanon-serve-fuzz-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = table_from_csv_with_policy(
            &schema(),
            "10,20s\n10,30s\n11,20s\n20,60s\n21,70s\n20,70s\n",
            false,
            RowPolicy::Strict,
        )
        .unwrap()
        .0;
        let cfg = ServeConfig {
            k: 2,
            measure: Measure::Lm,
            policy: RowPolicy::SuppressRow,
            shard_max: kanon_core::config::SHARD_MAX_DEFAULT,
            reopt_every: 0,
            absorb_epsilon: 0.0,
        };
        let mut opts = ServeOptions::new(dir.clone());
        opts.max_frame = 1 << 16;
        let daemon = Daemon::start(base, cfg, opts).unwrap();
        std::thread::spawn(move || daemon.run());
        let addr_path = dir.join(ADDR_FILE);
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_path) {
                if text.ends_with('\n') {
                    return text.trim().to_string();
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    })
}

fn random_bytes(seed: u64, max_len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.gen_range(0usize..max_len);
    if seed.is_multiple_of(3) {
        // Protocol-shaped text garbage: more likely to reach deep paths.
        const PALETTE: &[u8] =
            b"BATCH OUTPUT STATS HEALTH REOPT SNAPSHOT SHUTDOWN deadline_ms=retries=absorb_epsilon=.05-\n,0129ab\xff";
        (0..len)
            .map(|_| PALETTE[rng.gen_range(0..PALETTE.len())])
            .collect()
    } else {
        (0..len).map(|_| rng.gen()).collect()
    }
}

/// The daemon must still answer HEALTH on a fresh connection.
fn assert_daemon_alive() {
    let mut conn = TcpStream::connect(daemon_addr()).expect("daemon died: connect failed");
    write_frame(&mut conn, b"HEALTH").unwrap();
    let resp = read_frame(&mut conn, 1 << 16)
        .expect("daemon died: no response")
        .expect("daemon died: closed stream");
    assert!(resp.starts_with(b"OK "), "unhealthy: {resp:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parse_request_is_total_over_arbitrary_bytes(seed in any::<u64>()) {
        let bytes = random_bytes(seed, 512);
        let _ = parse_request(&bytes); // must not panic
    }

    #[test]
    fn read_frame_is_total_over_arbitrary_streams(seed in any::<u64>()) {
        let bytes = random_bytes(seed, 512);
        let mut r = &bytes[..];
        // Drain the stream; every outcome (frame, EOF, error) is fine,
        // it just must not panic or loop forever.
        for _ in 0..512 {
            match read_frame(&mut r, 1 << 10) {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }

    #[test]
    fn unframed_garbage_never_kills_the_daemon(seed in any::<u64>()) {
        let mut conn = TcpStream::connect(daemon_addr()).unwrap();
        let _ = conn.write_all(&random_bytes(seed, 2048));
        drop(conn); // close mid-whatever the daemon thinks this is
        assert_daemon_alive();
    }

    #[test]
    fn framed_garbage_never_kills_the_daemon(seed in any::<u64>()) {
        let mut conn = TcpStream::connect(daemon_addr()).unwrap();
        if write_frame(&mut conn, &random_bytes(seed, 2048)).is_ok() {
            // Any single response frame (or a dropped connection) is
            // acceptable; the daemon keeps the connection open for more
            // frames, so don't drain to EOF.
            conn.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
            let _ = read_frame(&mut conn, 1 << 16);
        }
        drop(conn);
        assert_daemon_alive();
    }
}
