//! Fault injection through the daemon: with the Param rung armed to panic,
//! every wire verdict must equal the in-process [`run_resilient`] verdict
//! for the same pair under [`ServeConfig::runner_options`] (failpoints are
//! sticky, so both sides degrade alike), `GET /metrics` must answer, and
//! shutdown must drain cleanly within its deadline.
//!
//! Failpoints are process-global, so this file holds one test and runs as
//! a test binary of its own, apart from `serve.rs`'s concurrent tests.

use pug_ir::GpuConfig;
use pug_obs::Json;
use pug_serve::client::{http_metrics, Client};
use pug_serve::corpus::{self, Dims};
use pug_serve::protocol::{verify_corpus_request, verify_inline_request};
use pug_serve::server::{start, ServeConfig};
use pug_testutil::KernelGen;
use pugpara::failpoints::{self, Fault};
use pugpara::runner::run_resilient;
use pugpara::KernelUnit;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Corpus pairs: on the fault-free ladder one verifies soundly, one has a
/// bug, one verifies only under-approximately, and one is a self pair.
const CORPUS_PAIRS: &[(&str, &str, &str)] = &[
    ("verified", "transpose/naive", "transpose/optimized"),
    ("bug", "reduction/v0", "reduction/buggy_index"),
    ("underapprox", "scalar_product/kernel", "scalar_product/unconstrained"),
    ("self", "vector_add/kernel", "vector_add/kernel"),
];

/// The drain deadline plus the daemon's grace for cancelled stragglers.
const DRAIN_LIMIT: Duration = Duration::from_secs(25);

/// The in-process ladder's verdict on a pair, under the daemon's policy.
fn in_process(cfg: &ServeConfig, src: &str, tgt: &str, gpu: &GpuConfig) -> String {
    let (src, tgt) = (KernelUnit::load(src).unwrap(), KernelUnit::load(tgt).unwrap());
    run_resilient(&src, &tgt, gpu, &cfg.runner_options()).verdict.to_string()
}

#[test]
fn faulted_param_rung_answers_like_the_in_process_ladder() {
    // Arm before the baselines, so the in-process runs and the daemon's
    // jobs meet the same fault.
    failpoints::arm("runner::param", Fault::Panic);
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            failpoints::disarm("runner::param");
        }
    }
    let _disarm = Disarm;

    let cfg = ServeConfig::default();
    let mut gen = KernelGen::basic(0);
    let (k1, k2) = (gen.kernel(), gen.kernel());

    let mut requests = Vec::new();
    let mut expected = HashMap::new();
    for &(id, src, tgt) in CORPUS_PAIRS {
        requests.push(verify_corpus_request(id, src, tgt, Some(8), None));
        let ((src, dims), (tgt, _)) = (corpus::lookup(src).unwrap(), corpus::lookup(tgt).unwrap());
        let gpu = match dims {
            Dims::One => GpuConfig::symbolic_1d(8),
            Dims::Two => GpuConfig::symbolic_2d(8),
        };
        expected.insert(id.to_string(), in_process(&cfg, src, tgt, &gpu));
    }
    for (id, src, tgt) in [("fuzz-self", &k1, &k1), ("fuzz-successive", &k1, &k2)] {
        requests.push(verify_inline_request(id, src, tgt, 1, 8, None));
        expected.insert(id.to_string(), in_process(&cfg, src, tgt, &GpuConfig::symbolic_1d(8)));
    }

    let server = start(&cfg, "127.0.0.1:0").expect("daemon binds an ephemeral port");
    let mut client = Client::connect(server.addr()).expect("client connects");
    client.set_recv_timeout(Some(Duration::from_secs(180))).unwrap();
    let pong = client.request(&Json::obj(vec![("op", "ping".into())])).unwrap();
    assert_eq!(pong.str_field("type"), Some("pong"), "got {}", pong.render());

    // Pipeline every job, then collect the answers by id.
    for request in &requests {
        client.send(request).unwrap();
    }
    let mut got = HashMap::new();
    while got.len() < requests.len() {
        let resp = client.recv().unwrap().expect("daemon closed the connection");
        assert_eq!(resp.str_field("type"), Some("verdict"), "got {}", resp.render());
        let id = resp.str_field("id").unwrap().to_string();
        got.insert(id, resp.str_field("verdict").unwrap().to_string());
    }
    assert_eq!(got, expected, "service verdicts (left) vs in-process verdicts (right)");

    let page = http_metrics(server.addr()).unwrap();
    for needle in ["serve.jobs.admitted", "serve.jobs.completed", "cache.entries"] {
        assert!(page.contains(needle), "/metrics page is missing `{needle}`:\n{page}");
    }

    drop(client);
    let t0 = Instant::now();
    let report = server.shutdown();
    assert!(report.clean, "shutdown left jobs behind: {report:?}");
    assert!(t0.elapsed() <= DRAIN_LIMIT, "shutdown took {:?}", t0.elapsed());
}
