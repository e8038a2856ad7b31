//! `pugbench`: the source-to-verdict benchmark of PUGpara.
//!
//! ```text
//! pugbench run --workload W --seed N --seconds S --trace 0|1
//!              [--daemon PATH] [--out-dir DIR] [--quick]
//! pugbench check [--bench BENCHMARK.json] BASE.json… -- CHANGE.json…
//! ```
//!
//! `run` measures one workload (or `all`, each in its own process) and
//! prints every metric by name and unit; its last line is a JSON summary.
//! `--trace 1` reports the per-layer metrics instead of the end-to-end
//! ones and writes the span tree as JSONL. See `README.md`.

mod check;
mod cpus;
mod inproc;
mod json;
mod oracle;
mod report;
mod serve;
mod stats;
mod trace;
mod workloads;

use json::Json;
use report::Run;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. Even, so that on two CPUs
/// the in-process set-ups split evenly between them.
const SETUP_REPS: usize = 10;

/// Run length of `--quick`, seconds.
const QUICK_SECONDS: f64 = 3.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    daemon: Option<PathBuf>,
    out_dir: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: pugbench run --workload W --seed N --seconds S --trace 0|1 [--daemon PATH] [--out-dir DIR] [--quick]\n\
         \x20      pugbench check [--bench BENCHMARK.json] BASE.json... -- CHANGE.json...\n\
         workloads: {} all",
        workloads::WORKLOADS.join(" ")
    );
    std::process::exit(2)
}

fn parse_run(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        quick: false,
        daemon: None,
        out_dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.traced = value()? == "1",
            "--daemon" => a.daemon = Some(value()?.into()),
            "--out-dir" => a.out_dir = Some(value()?.into()),
            "--quick" => a.quick = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.quick {
        a.seconds = a.seconds.min(QUICK_SECONDS);
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if a.workload != "all" && !workloads::WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    Ok(a)
}

/// Time one in-process set-up: spawn of a fresh process until it has
/// answered the workload's fixed first input and exited.
fn probe_setup(a: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t = Instant::now();
    let status = Command::new(exe)
        .args(["probe", "--workload", &a.workload])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    let s = t.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("set-up probe failed: {status}"));
    }
    Ok(s)
}

fn run_one(a: &Args) -> Result<bool, String> {
    let mut run = Run {
        tail_percentile: workloads::tail_percentile(&a.workload),
        ..Run::default()
    };
    let reps = if a.quick { 2 } else { SETUP_REPS };
    if a.workload == workloads::SERVE_MIXED {
        let path = a
            .daemon
            .as_deref()
            .ok_or("serve-mixed needs --daemon PATH")?;
        let mut daemon = None;
        for _ in 0..reps {
            let (d, s) = serve::setup(path)?;
            run.setup_s.push(s);
            if let Some(previous) = daemon.replace(d) {
                serve::Daemon::shutdown(previous);
            }
        }
        serve::run(
            daemon.expect("at least one set-up"),
            a.seed,
            a.seconds,
            a.traced,
            &mut run,
        )?;
    } else {
        for s in cpus::round_robin(reps, |_| probe_setup(a)) {
            run.setup_s.push(s?);
        }
        inproc::run(&a.workload, a.seed, a.seconds, a.traced, &mut run)?;
    }

    let header = report::header(&a.workload, a.seed, a.seconds, a.traced, a.quick);
    let (summary, full) = report::render(&mut run, header, a.traced);
    let shown = summary.get("metrics").map(Json::fields).unwrap_or_default();
    println!(
        "pugbench {} seed {} ({} s{}): {} attempted, {} failed, {} wrong verdicts",
        a.workload,
        a.seed,
        a.seconds,
        if a.traced { ", traced" } else { "" },
        run.outcomes.len(),
        run.failed(),
        run.wrong()
    );
    for (name, m) in shown {
        let v = m.num_field("value").unwrap_or(0.0);
        println!(
            "  {name:<28} {v:>14.6} {}",
            m.str_field("unit").unwrap_or("")
        );
    }
    if let Some(dir) = &a.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let stem = format!("{}-seed{}-trace{}", a.workload, a.seed, u8::from(a.traced));
        let file = dir.join(format!("{stem}.json"));
        std::fs::write(&file, full.render() + "\n")
            .map_err(|e| format!("{}: {e}", file.display()))?;
        println!("  result: {}", file.display());
        if a.traced {
            let spans = dir.join(format!("{stem}.spans.jsonl"));
            std::fs::write(&spans, trace::to_jsonl(&run.spans))
                .map_err(|e| format!("{}: {e}", spans.display()))?;
            println!("  spans:  {}", spans.display());
        }
    }
    println!("{}", summary.render());
    Ok(run.wrong() == 0)
}

/// `--workload all`: each workload in its own process, then one summary
/// whose metric names carry the workload.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut metrics = Vec::new();
    for w in workloads::WORKLOADS {
        let mut child_args: Vec<String> = vec!["run".into()];
        let mut it = args.iter();
        while let Some(x) = it.next() {
            child_args.push(x.clone());
            if x == "--workload" {
                it.next();
                child_args.push(w.into());
            }
        }
        let out = Command::new(&exe)
            .args(&child_args)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in &lines {
            println!("{l}");
        }
        let summary = Json::parse(last).map_err(|e| format!("{w}: no result ({e})"))?;
        correct &= summary
            .get("correct")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        attempted += summary.num_field("attempted").unwrap_or(0.0);
        failed += summary.num_field("failed").unwrap_or(0.0);
        for (name, m) in summary.get("metrics").map(Json::fields).unwrap_or_default() {
            metrics.push((format!("{w}.{name}"), m.clone()));
        }
    }
    let summary = Json::obj(vec![
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", summary.render());
    Ok(correct)
}

fn check_cmd(args: &[String]) -> Result<bool, String> {
    let mut bench = PathBuf::from("BENCHMARK.json");
    let (mut base, mut change, mut second) = (Vec::new(), Vec::new(), false);
    let mut it = args.iter();
    while let Some(x) = it.next() {
        match x.as_str() {
            "--bench" => bench = it.next().ok_or("--bench needs a path")?.into(),
            "--" => second = true,
            f if second => change.push(PathBuf::from(f)),
            f => base.push(PathBuf::from(f)),
        }
    }
    if base.is_empty() || change.is_empty() {
        return Err("check needs BASE.json... -- CHANGE.json...".into());
    }
    check::run(Path::new(&bench), &base, &change)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "run" => parse_run(rest).and_then(|a| {
            if a.workload == "all" {
                run_all(rest)
            } else {
                run_one(&a)
            }
        }),
        "probe" => parse_run(rest).and_then(|a| inproc::probe(&a.workload).map(|()| true)),
        "check" => check_cmd(rest),
        _ => usage(),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("pugbench: {e}");
            std::process::exit(2);
        }
    }
}
