//! CI smoke: starts an in-process daemon, pushes corpus jobs through the
//! wire (including one with an injected rung fault), and asserts
//!
//! 1. every wire verdict is byte-identical to the in-process
//!    [`run_portfolio`] answer for the same pair (faults included —
//!    failpoints are sticky, so both sides degrade identically);
//! 2. `GET /metrics` answers with the live registry;
//! 3. graceful shutdown completes cleanly within the drain deadline.
//!
//! Run via `pug-serve --smoke`; wired into `ci.sh`.

use crate::client::{http_metrics, Client};
use crate::json::Json;
use crate::protocol::verify_corpus_request;
use crate::server::{start, ServeConfig};
use pug_ir::GpuConfig;
use pug_smt::failpoints::{self, Fault};
use pugpara::portfolio::{run_portfolio, PortfolioOptions};
use pugpara::runner::RunnerOptions;
use pugpara::KernelUnit;
use std::collections::HashMap;
use std::time::{Duration, Instant};

const RUNG_TIMEOUT: Duration = Duration::from_secs(30);
const DRAIN: Duration = Duration::from_secs(20);

/// The corpus pairs the smoke pushes through the daemon. The last pair runs
/// with `runner::param` armed to panic, exercising the per-rung fault
/// boundary end to end.
const PAIRS: &[(&str, &str, &str)] = &[
    ("smoke-verified", "transpose/naive", "transpose/optimized"),
    ("smoke-bug", "reduction/v0", "reduction/buggy_index"),
    ("smoke-underapprox", "scalar_product/kernel", "scalar_product/unconstrained"),
    ("smoke-faulted", "vector_add/kernel", "vector_add/kernel"),
];

/// In-process baseline verdict for a corpus pair, using the same per-rung
/// budget the daemon grants.
fn baseline(src_name: &str, tgt_name: &str) -> String {
    let (src, dims) = crate::corpus::lookup(src_name).expect("smoke corpus src");
    let (tgt, _) = crate::corpus::lookup(tgt_name).expect("smoke corpus tgt");
    let src = KernelUnit::load(src).expect("smoke src loads");
    let tgt = KernelUnit::load(tgt).expect("smoke tgt loads");
    let cfg = match dims {
        crate::corpus::Dims::One => GpuConfig::symbolic_1d(8),
        crate::corpus::Dims::Two => GpuConfig::symbolic_2d(8),
    };
    let opts = PortfolioOptions {
        runner: RunnerOptions { rung_timeout: Some(RUNG_TIMEOUT), ..RunnerOptions::default() },
        threads: None,
    };
    run_portfolio(&src, &tgt, &cfg, &opts).verdict.to_string()
}

/// Keep injected-fault panics (which the runner catches by design) from
/// spraying backtraces over the smoke/load output; every other panic
/// still reports normally.
pub fn silence_failpoint_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains("failpoint") {
            prev(info);
        }
    }));
}

/// Run the smoke; returns `Err` with a description on the first failure.
pub fn run_smoke() -> Result<(), String> {
    silence_failpoint_panics();
    // Arm the fault BEFORE computing baselines: sticky failpoints hit the
    // in-process run and the service identically, so even the degraded
    // verdict must agree byte-for-byte.
    failpoints::arm("runner::param", Fault::Panic);
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            failpoints::disarm("runner::param");
        }
    }
    let _disarm = Disarm;

    let mut expected: HashMap<String, String> = HashMap::new();
    for (id, src, tgt) in PAIRS {
        expected.insert(id.to_string(), baseline(src, tgt));
    }

    let cfg = ServeConfig {
        rung_timeout: RUNG_TIMEOUT,
        drain: DRAIN,
        ..ServeConfig::default()
    };
    let server = start(&cfg, "127.0.0.1:0").map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.addr();

    let mut client =
        Client::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
    client
        .set_recv_timeout(Some(Duration::from_secs(180)))
        .map_err(|e| format!("set timeout: {e}"))?;

    // Control plane first.
    let pong = client
        .request(&Json::obj(vec![("op", "ping".into())]))
        .map_err(|e| format!("ping failed: {e}"))?;
    if pong.str_field("type") != Some("pong") {
        return Err(format!("expected pong, got {}", pong.render()));
    }

    // Pipeline every job, then collect.
    for (id, src, tgt) in PAIRS {
        client
            .send(&verify_corpus_request(id, src, tgt, Some(8), None))
            .map_err(|e| format!("send {id}: {e}"))?;
    }
    let mut got: HashMap<String, String> = HashMap::new();
    while got.len() < PAIRS.len() {
        let resp = client
            .recv()
            .map_err(|e| format!("recv: {e}"))?
            .ok_or("daemon closed the connection mid-smoke")?;
        let id = resp.str_field("id").unwrap_or("").to_string();
        match resp.str_field("type") {
            Some("verdict") => {
                got.insert(id, resp.str_field("verdict").unwrap_or("").to_string());
            }
            other => {
                return Err(format!("job {id}: unexpected response type {other:?}: {}", resp.render()))
            }
        }
    }
    for (id, want) in &expected {
        let have = got.get(id).ok_or_else(|| format!("no verdict for {id}"))?;
        if have != want {
            return Err(format!(
                "verdict disagreement for {id}: service `{have}` vs in-process `{want}`"
            ));
        }
    }

    // Metrics over HTTP.
    let page = http_metrics(addr).map_err(|e| format!("GET /metrics: {e}"))?;
    for needle in ["serve.jobs.admitted", "serve.jobs.completed", "cache.entries"] {
        if !page.contains(needle) {
            return Err(format!("/metrics page is missing `{needle}`:\n{page}"));
        }
    }

    // Graceful shutdown, timed.
    drop(client);
    let t0 = Instant::now();
    let report = server.shutdown();
    if !report.clean {
        return Err(format!("shutdown left jobs behind: {report:?}"));
    }
    if t0.elapsed() > DRAIN + Duration::from_secs(25) {
        return Err(format!("shutdown exceeded drain deadline: {:?}", t0.elapsed()));
    }
    println!(
        "smoke ok: {} jobs agreed with in-process verdicts (one fault-injected); \
         /metrics live; drained {} in-flight in {:?}",
        PAIRS.len(),
        report.inflight_at_shutdown,
        report.elapsed
    );
    Ok(())
}
