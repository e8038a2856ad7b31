//! End-to-end smoke of every workload in `--quick` mode (about 3 s of
//! load each), through the real binary and the real daemon.

use std::path::PathBuf;
use std::process::Command;

/// Build the `pug-serve` daemon from the repository and return its path.
fn daemon() -> PathBuf {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");
    // Build next to the benchmark binary, in the same target directory.
    let target_dir = PathBuf::from(env!("CARGO_BIN_EXE_pugbench"))
        .ancestors()
        .nth(2)
        .expect("target dir")
        .to_path_buf();
    let out = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            "pug-serve",
            "--message-format=json",
            "--manifest-path",
            manifest,
        ])
        .arg("--target-dir")
        .arg(&target_dir)
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "building pug-serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .find(|l| l.contains("\"executable\":\"") && l.contains("pug-serve"))
        .expect("cargo reports the daemon executable");
    let start = line.find("\"executable\":\"").unwrap() + "\"executable\":\"".len();
    let end = start + line[start..].find('"').unwrap();
    PathBuf::from(&line[start..end])
}

fn run(workload: &str, trace: &str, daemon: &PathBuf) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pugbench"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "3",
            "--trace",
            trace,
            "--quick",
        ])
        .arg("--daemon")
        .arg(daemon)
        .output()
        .expect("pugbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload}: exit {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().unwrap_or_default().to_string()
}

#[test]
fn every_workload_runs_end_to_end() {
    let daemon = daemon();
    for w in ["proof-heavy", "many-small", "kernel-checks", "serve-mixed"] {
        let last = run(w, "0", &daemon);
        assert!(
            last.starts_with("{\"correct\":true,\"attempted\":"),
            "{w}: {last}"
        );
        assert!(!last.contains("\"attempted\":0,"), "{w}: nothing attempted");
        for metric in [
            "setup_s",
            "latency_p50_ms",
            "latency_tail_ms",
            "jobs_per_s",
            "peak_rss_mb",
            "decided_ratio",
            "sound_ratio",
        ] {
            assert!(
                last.contains(&format!("\"{metric}\":{{\"value\":")),
                "{w}: no {metric} in {last}"
            );
        }
    }
    let traced = run("proof-heavy", "1", &daemon);
    for metric in [
        "sat.solve_us",
        "share.sat",
        "bench.self_coverage",
        "pool.sessions",
    ] {
        assert!(
            traced.contains(&format!("\"{metric}\":{{\"value\":")),
            "no {metric} in {traced}"
        );
    }
}
