//! The `pug-serve` daemon binary.
//!
//! ```text
//! pug-serve [--addr 127.0.0.1:7227] [--workers N] [--capacity N]
//!           [--rung-timeout-ms MS] [--drain-ms MS] [--cache-capacity N]
//! pug-serve --smoke        # run the CI smoke and exit
//! ```
//!
//! The daemon serves until SIGTERM/SIGINT or a wire `shutdown` request,
//! then drains gracefully and exits 0 (non-zero if the drain left
//! stragglers that refused to unwind).

use pug_serve::server::{start, ServeConfig};
use pug_serve::signal;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: pug-serve [--addr HOST:PORT] [--workers N] [--capacity N]\n\
         \x20                [--rung-timeout-ms MS] [--drain-ms MS] [--cache-capacity N]\n\
         \x20      pug-serve --smoke"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        match pug_serve::smoke::run_smoke() {
            Ok(()) => return,
            Err(msg) => {
                eprintln!("smoke FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }

    let mut addr = "127.0.0.1:7227".to_string();
    let mut cfg = ServeConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr"),
            "--workers" => cfg.workers = parse(&value("--workers")),
            "--capacity" => cfg.capacity = parse(&value("--capacity")),
            "--rung-timeout-ms" => {
                cfg.rung_timeout = Duration::from_millis(parse(&value("--rung-timeout-ms")))
            }
            "--drain-ms" => cfg.drain = Duration::from_millis(parse(&value("--drain-ms"))),
            "--cache-capacity" => cfg.cache_capacity = parse(&value("--cache-capacity")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }

    signal::install();
    let server = match start(&cfg, &addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pug-serve: bind {addr} failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("pug-serve: listening on {}", server.addr());

    // Serve until a signal or a wire shutdown request.
    let drain = loop {
        if signal::triggered() {
            eprintln!("pug-serve: signal received, draining");
            break None;
        }
        if let Some(requested) = server.shutdown_requested() {
            eprintln!("pug-serve: shutdown requested over the wire, draining");
            break Some(requested);
        }
        std::thread::sleep(Duration::from_millis(50));
    };

    let report = match drain {
        Some(d) => server.shutdown_with(d),
        None => server.shutdown(),
    };
    eprintln!(
        "pug-serve: drained {} in-flight ({} cancelled) in {:?}",
        report.inflight_at_shutdown, report.stragglers_cancelled, report.elapsed
    );
    std::process::exit(if report.clean { 0 } else { 1 });
}

fn parse<T: std::str::FromStr>(text: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("invalid numeric value `{text}`");
        usage()
    })
}
