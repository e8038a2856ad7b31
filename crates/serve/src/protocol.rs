//! The wire protocol: one JSON object per `\n`-terminated line, both ways.
//!
//! ## Requests
//!
//! ```text
//! {"op":"ping"}
//! {"op":"metrics"}
//! {"op":"shutdown","drain_ms":5000}
//! {"op":"verify","id":"j1","src_kernel":"transpose/naive",
//!  "tgt_kernel":"transpose/optimized","dims":2,"width":8,
//!  "timeout_ms":20000,"explain":false}
//! ```
//!
//! `verify` kernels come either from the bundled corpus (`src_kernel` /
//! `tgt_kernel` wire names, see [`crate::corpus`]) or as inline CUDA text
//! (`src` / `tgt`). `dims`/`width` default from the corpus entry (inline
//! kernels default to 1-D, 8-bit). Multiple `verify` requests may be
//! pipelined on one connection; responses carry the request `id` and may
//! arrive out of submission order.
//!
//! ## Responses
//!
//! | `type`          | meaning                                              |
//! |-----------------|------------------------------------------------------|
//! | `verdict`       | terminal result; `verdict`, `answered_by`, `rungs`   |
//! | `overloaded`    | admission refused: retry after `retry_after_ms`      |
//! | `shutting_down` | daemon is draining; no new work accepted             |
//! | `aborted`       | job cancelled (drain deadline / disconnect), with    |
//! |                 | the partial rung provenance                          |
//! | `error`         | malformed request or kernel; `message`               |
//! | `pong`/`metrics`/`shutdown_ack` | control-plane answers                |
//!
//! A separate minimal HTTP surface answers `GET /metrics` on the same
//! listener with the text rendering of the `pug-obs` registry, for humans
//! and scrapers.

use pug_obs::Json;
use pugpara::runner::{Provenance, ResilientReport};

/// Parsed `verify` request.
#[derive(Clone, Debug)]
pub struct VerifyRequest {
    /// Client-chosen job id, echoed on every response for this job.
    pub id: String,
    pub src: KernelSpec,
    pub tgt: KernelSpec,
    /// Block dimensionality override (1 or 2).
    pub dims: Option<u64>,
    /// Scalar bit width override.
    pub width: Option<u64>,
    /// Per-rung wall-clock budget override, milliseconds.
    pub timeout_ms: Option<u64>,
    /// Stream the `explain` narrative back with the verdict.
    pub explain: bool,
}

/// Where a kernel comes from.
#[derive(Clone, Debug)]
pub enum KernelSpec {
    /// A bundled corpus kernel, by wire name (`transpose/naive`).
    Corpus(String),
    /// Inline CUDA source.
    Inline(String),
}

/// Any request the daemon understands.
#[derive(Clone, Debug)]
pub enum Request {
    Ping,
    Metrics,
    Shutdown { drain_ms: Option<u64> },
    Verify(Box<VerifyRequest>),
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line)?;
    let op = v.str_field("op").ok_or("missing `op`")?;
    match op {
        "ping" => Ok(Request::Ping),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown { drain_ms: v.u64_field("drain_ms") }),
        "verify" => {
            let id = v.str_field("id").unwrap_or("").to_string();
            if id.is_empty() {
                return Err("verify requires a non-empty `id`".into());
            }
            let spec = |corpus_key: &str, inline_key: &str| -> Result<KernelSpec, String> {
                match (v.str_field(corpus_key), v.str_field(inline_key)) {
                    (Some(name), None) => Ok(KernelSpec::Corpus(name.to_string())),
                    (None, Some(src)) => Ok(KernelSpec::Inline(src.to_string())),
                    (Some(_), Some(_)) => {
                        Err(format!("`{corpus_key}` and `{inline_key}` are exclusive"))
                    }
                    (None, None) => Err(format!("missing `{corpus_key}` or `{inline_key}`")),
                }
            };
            Ok(Request::Verify(Box::new(VerifyRequest {
                id,
                src: spec("src_kernel", "src")?,
                tgt: spec("tgt_kernel", "tgt")?,
                dims: v.u64_field("dims"),
                width: v.u64_field("width"),
                timeout_ms: v.u64_field("timeout_ms"),
                explain: v.get("explain").and_then(Json::as_bool).unwrap_or(false),
            })))
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Rung-by-rung provenance as wire JSON.
pub fn provenance_json(prov: &Provenance) -> Json {
    let rungs = prov
        .rungs
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("rung", r.rung.to_string().into()),
                ("outcome", r.outcome.to_string().into()),
                ("elapsed_ms", (r.elapsed.as_millis() as u64).into()),
                ("queries", r.queries.into()),
            ])
        })
        .collect::<Vec<_>>();
    Json::Arr(rungs)
}

/// Terminal `verdict` response for a completed job.
///
/// `verdict` is the canonical [`pugpara::Verdict`] rendering — the exact
/// string an in-process [`pugpara::runner::run_resilient`] caller would
/// print, so service-vs-in-process agreement can be asserted byte-for-byte.
pub fn verdict_response(id: &str, report: &ResilientReport, explain: Option<String>) -> Json {
    let mut fields = vec![
        ("type", "verdict".into()),
        ("id", id.into()),
        ("verdict", report.verdict.to_string().into()),
        (
            "answered_by",
            match report.provenance.answered_by {
                Some(r) => r.to_string().into(),
                None => Json::Null,
            },
        ),
        (
            "soundness_note",
            match &report.provenance.soundness_note {
                Some(n) => n.as_str().into(),
                None => Json::Null,
            },
        ),
        ("elapsed_ms", (report.elapsed.as_millis() as u64).into()),
        ("rungs", provenance_json(&report.provenance)),
    ];
    if let Some(text) = explain {
        fields.push(("explain", text.into()));
    }
    Json::obj(fields)
}

/// Load-shed response: the job was **not** queued; retry after the hint.
pub fn overloaded_response(id: &str, retry_after_ms: u64) -> Json {
    Json::obj(vec![
        ("type", "overloaded".into()),
        ("id", id.into()),
        ("retry_after_ms", retry_after_ms.into()),
    ])
}

/// Admission refused because the daemon is draining.
pub fn shutting_down_response(id: &str) -> Json {
    Json::obj(vec![("type", "shutting_down".into()), ("id", id.into())])
}

/// Job cancelled mid-flight (drain deadline passed, or the client went
/// away); carries whatever rung provenance the job accumulated.
pub fn aborted_response(id: &str, reason: &str, prov: &Provenance) -> Json {
    Json::obj(vec![
        ("type", "aborted".into()),
        ("id", id.into()),
        ("reason", reason.into()),
        ("rungs", provenance_json(prov)),
    ])
}

/// Malformed request / unloadable kernel / internal fault.
pub fn error_response(id: &str, message: &str) -> Json {
    Json::obj(vec![
        ("type", "error".into()),
        ("id", id.into()),
        ("message", message.into()),
    ])
}

/// Builder for a corpus-pair `verify` request (client side).
pub fn verify_corpus_request(
    id: &str,
    src: &str,
    tgt: &str,
    width: Option<u64>,
    timeout_ms: Option<u64>,
) -> Json {
    let mut fields = vec![
        ("op", "verify".into()),
        ("id", id.into()),
        ("src_kernel", src.into()),
        ("tgt_kernel", tgt.into()),
    ];
    if let Some(w) = width {
        fields.push(("width", w.into()));
    }
    if let Some(t) = timeout_ms {
        fields.push(("timeout_ms", t.into()));
    }
    Json::obj(fields)
}

/// Builder for an inline-source `verify` request (client side).
pub fn verify_inline_request(
    id: &str,
    src: &str,
    tgt: &str,
    dims: u64,
    width: u64,
    timeout_ms: Option<u64>,
) -> Json {
    let mut fields = vec![
        ("op", "verify".into()),
        ("id", id.into()),
        ("src", src.into()),
        ("tgt", tgt.into()),
        ("dims", dims.into()),
        ("width", width.into()),
    ];
    if let Some(t) = timeout_ms {
        fields.push(("timeout_ms", t.into()));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_verify_corpus() {
        let line = verify_corpus_request("j1", "transpose/naive", "transpose/optimized", Some(8), Some(1000))
            .render();
        match parse_request(&line).unwrap() {
            Request::Verify(v) => {
                assert_eq!(v.id, "j1");
                assert!(matches!(&v.src, KernelSpec::Corpus(n) if n == "transpose/naive"));
                assert_eq!(v.width, Some(8));
                assert_eq!(v.timeout_ms, Some(1000));
                assert!(!v.explain);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_verify_inline_and_rejects_ambiguous() {
        let line = verify_inline_request("j2", "__global__ void k(){}", "__global__ void k(){}", 1, 8, None)
            .render();
        assert!(matches!(parse_request(&line).unwrap(), Request::Verify(_)));
        assert!(parse_request(r#"{"op":"verify","id":"x","src":"a","src_kernel":"b","tgt":"c"}"#)
            .is_err());
        assert!(parse_request(r#"{"op":"verify","src":"a","tgt":"b"}"#).is_err(), "id required");
        assert!(parse_request(r#"{"op":"nonsense"}"#).is_err());
        assert!(parse_request("not json").is_err());
    }

    #[test]
    fn control_ops_parse() {
        assert!(matches!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping));
        assert!(matches!(parse_request(r#"{"op":"metrics"}"#).unwrap(), Request::Metrics));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown","drain_ms":250}"#).unwrap(),
            Request::Shutdown { drain_ms: Some(250) }
        ));
    }
}
