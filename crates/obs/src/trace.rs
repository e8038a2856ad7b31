//! Hierarchical span tracing with a disabled-sink fast path.
//!
//! A [`TraceSink`] collects [`TraceEvent`]s — span opens, span closes and
//! instant points — into an in-memory buffer guarded by a mutex. Sequence
//! numbers and span ids are allocated *under* that lock so the event stream
//! is totally ordered even when several threads record into one sink. The
//! sink is an `Option<Arc<..>>` internally: [`TraceSink::disabled`] holds
//! `None`, so every recording method is a single branch on a
//! niche-optimised option — near-zero cost, and the guarantee the
//! trace-parity suite measures.
//!
//! Callers thread a [`TraceSpan`] (sink + current parent id) through the
//! pipeline instead of the raw sink; `child`/`point` on a disabled span are
//! no-ops, so instrumented code never checks a flag except to avoid
//! building attribute strings. [`SpanGuard`] closes its span on drop, which
//! keeps traces balanced even when a panic unwinds through an instrumented
//! region into a `catch_unwind` fault boundary.
//!
//! Export is JSONL (one event per line), rendered and parsed by the shared
//! [`Json`] codec; [`parse_jsonl`] and [`validate`] round-trip and
//! structurally check a dump so the trace-parity and metrics-consistency
//! tests can assert well-formedness without external tooling.

use crate::json::Json;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifier of one span within one sink. `0` means "no span" (the root
/// parent); real spans start at 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span: used as the parent of top-level spans.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is the absent span.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// An attribute value. Deliberately no float variant: durations go out as
/// integer microseconds, which keeps the JSONL round-trip exact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttrValue {
    Str(String),
    Int(i64),
    UInt(u64),
    Bool(bool),
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Str(s.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(s)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::UInt(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::UInt(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

/// Key/value attributes attached to an event.
pub type Attrs = Vec<(&'static str, AttrValue)>;

/// What an event records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A span starts; `span` is the new id, `parent` its enclosing span.
    Open,
    /// A span ends; `span` names the span being closed.
    Close,
    /// An instant event under `parent` (no duration).
    Point,
}

impl EventKind {
    fn as_str(self) -> &'static str {
        match self {
            EventKind::Open => "open",
            EventKind::Close => "close",
            EventKind::Point => "point",
        }
    }
}

/// One recorded event. `t_us` is microseconds since the sink was created
/// (monotonic clock).
#[derive(Clone, Debug)]
pub struct TraceEvent {
    pub seq: u64,
    pub kind: EventKind,
    pub span: SpanId,
    /// Enclosing span for `Open`/`Point`; `SpanId::NONE` for `Close`.
    pub parent: SpanId,
    /// Span or point name; empty for `Close`.
    pub name: String,
    pub t_us: u64,
    pub attrs: Vec<(String, AttrValue)>,
}

struct Inner {
    start: Instant,
    /// Set when the event buffer overflows `MAX_EVENTS`; recording stops.
    truncated: AtomicBool,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    next_span: u64,
    events: Vec<TraceEvent>,
}

/// Hard cap on buffered events — a runaway fuzz loop should degrade the
/// trace, not the process.
const MAX_EVENTS: usize = 4_000_000;

/// A handle to a trace buffer. Cheap to clone; all clones feed the same
/// buffer. The default is [`TraceSink::disabled`].
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => write!(f, "TraceSink::disabled"),
            Some(inner) => {
                // Recover a poisoned buffer rather than misreporting it as
                // empty: the event vec is always structurally valid.
                let n = inner
                    .state
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .events
                    .len();
                write!(f, "TraceSink::recording({n} events)")
            }
        }
    }
}

impl TraceSink {
    /// A sink that records nothing. Every method on it is a single branch.
    pub fn disabled() -> TraceSink {
        TraceSink { inner: None }
    }

    /// A sink that buffers events in memory.
    pub fn recording() -> TraceSink {
        TraceSink {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                truncated: AtomicBool::new(false),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether the event buffer overflowed and recording stopped.
    pub fn is_truncated(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.truncated.load(Ordering::Relaxed))
    }

    fn record(&self, kind: EventKind, span: SpanId, parent: SpanId, name: &str, attrs: Attrs) -> SpanId {
        let Some(inner) = &self.inner else { return SpanId::NONE };
        let t_us = inner.start.elapsed().as_micros() as u64;
        let mut st = match inner.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if st.events.len() >= MAX_EVENTS {
            inner.truncated.store(true, Ordering::Relaxed);
            return SpanId::NONE;
        }
        let span = if kind == EventKind::Open {
            st.next_span += 1;
            SpanId(st.next_span)
        } else {
            span
        };
        let seq = st.events.len() as u64;
        st.events.push(TraceEvent {
            seq,
            kind,
            span,
            parent,
            name: name.to_string(),
            t_us,
            attrs: attrs.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        });
        span
    }

    /// Open a span under `parent` and return its id.
    pub fn open(&self, parent: SpanId, name: &str) -> SpanId {
        self.open_with(parent, name, Vec::new())
    }

    /// Open a span under `parent` with attributes.
    pub fn open_with(&self, parent: SpanId, name: &str, attrs: Attrs) -> SpanId {
        self.record(EventKind::Open, SpanId::NONE, parent, name, attrs)
    }

    /// Close `span`.
    pub fn close(&self, span: SpanId) {
        self.close_with(span, Vec::new());
    }

    /// Close `span` with attributes (typically the outcome).
    pub fn close_with(&self, span: SpanId, attrs: Attrs) {
        if span.is_none() {
            return;
        }
        self.record(EventKind::Close, span, SpanId::NONE, "", attrs);
    }

    /// Record an instant event under `parent`.
    pub fn point(&self, parent: SpanId, name: &str, attrs: Attrs) {
        self.record(EventKind::Point, SpanId::NONE, parent, name, attrs);
    }

    /// Snapshot the buffered events.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => match inner.state.lock() {
                Ok(g) => g.events.clone(),
                Err(p) => p.into_inner().events.clone(),
            },
        }
    }

    /// Render the buffered events as JSONL (one JSON object per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            event_json(ev).write(&mut out);
            out.push('\n');
        }
        out
    }
}

/// A position in the span tree: a sink plus the current parent span. This
/// is what gets threaded through the pipeline; `child`/`point` on a
/// disabled span cost one branch.
#[derive(Clone, Default)]
pub struct TraceSpan {
    sink: TraceSink,
    id: SpanId,
}

impl fmt::Debug for TraceSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sink.is_enabled() {
            write!(f, "TraceSpan({})", self.id.0)
        } else {
            write!(f, "TraceSpan::disabled")
        }
    }
}

impl TraceSpan {
    /// A span handle that records nothing.
    pub fn disabled() -> TraceSpan {
        TraceSpan::default()
    }

    /// The root position of `sink`: children open at the top level.
    pub fn root(sink: TraceSink) -> TraceSpan {
        TraceSpan { sink, id: SpanId::NONE }
    }

    /// Whether events recorded through this handle go anywhere. Check this
    /// before building expensive attribute strings.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_enabled()
    }

    /// The underlying sink.
    pub fn sink(&self) -> &TraceSink {
        &self.sink
    }

    /// This span's id.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Open a child span and return a handle positioned on it.
    pub fn child(&self, name: &str) -> TraceSpan {
        self.child_with(name, Vec::new())
    }

    /// Open a child span with attributes.
    pub fn child_with(&self, name: &str, attrs: Attrs) -> TraceSpan {
        if !self.sink.is_enabled() {
            return TraceSpan::disabled();
        }
        let id = self.sink.open_with(self.id, name, attrs);
        TraceSpan { sink: self.sink.clone(), id }
    }

    /// Open a child span wrapped in a guard that closes it on drop.
    pub fn child_guard(&self, name: &str) -> SpanGuard {
        SpanGuard { span: self.child(name), closed: false }
    }

    /// Close this span. No-op on the root position or a disabled sink.
    pub fn close(&self) {
        self.sink.close(self.id);
    }

    /// Close this span with attributes.
    pub fn close_with(&self, attrs: Attrs) {
        self.sink.close_with(self.id, attrs);
    }

    /// Record an instant event under this span.
    pub fn point(&self, name: &str, attrs: Attrs) {
        if self.sink.is_enabled() {
            self.sink.point(self.id, name, attrs);
        }
    }
}

/// Closes its span exactly once — explicitly via [`SpanGuard::finish`], or
/// on drop if the scope unwinds. Keeps traces balanced across panics.
pub struct SpanGuard {
    span: TraceSpan,
    closed: bool,
}

impl SpanGuard {
    /// The span handle (for opening children or recording points).
    pub fn span(&self) -> &TraceSpan {
        &self.span
    }

    /// Close the span with attributes.
    pub fn finish(mut self, attrs: Attrs) {
        self.span.close_with(attrs);
        self.closed = true;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.closed {
            self.span.close();
        }
    }
}

/// One event as a JSON object, keys in the order
/// `seq, kind, span, parent, name, t_us, attrs`.
fn event_json(ev: TraceEvent) -> Json {
    let attrs = ev.attrs.into_iter().map(|(k, v)| (k, Json::from(v))).collect();
    Json::obj(vec![
        ("seq", ev.seq.into()),
        ("kind", ev.kind.as_str().into()),
        ("span", ev.span.0.into()),
        ("parent", ev.parent.0.into()),
        ("name", ev.name.into()),
        ("t_us", ev.t_us.into()),
        ("attrs", Json::Obj(attrs)),
    ])
}

impl From<AttrValue> for Json {
    fn from(v: AttrValue) -> Json {
        match v {
            AttrValue::Str(s) => s.into(),
            AttrValue::Int(n) => n.into(),
            AttrValue::UInt(n) => n.into(),
            AttrValue::Bool(b) => b.into(),
        }
    }
}

// ---------------------------------------------------------------------------
// JSONL parsing + structural validation (for the CI smoke and tests).
// ---------------------------------------------------------------------------

fn attr_value(v: Json) -> Option<AttrValue> {
    match v {
        Json::Str(s) => Some(AttrValue::Str(s)),
        Json::Bool(b) => Some(AttrValue::Bool(b)),
        Json::Int(n) if n < 0 => i64::try_from(n).ok().map(AttrValue::Int),
        Json::Int(n) => u64::try_from(n).ok().map(AttrValue::UInt),
        _ => None,
    }
}

fn parse_line(line: &str) -> Result<TraceEvent, String> {
    let Json::Obj(fields) = Json::parse(line)? else {
        return Err("expected a JSON object".into());
    };
    let mut ev = TraceEvent {
        seq: 0,
        kind: EventKind::Point,
        span: SpanId::NONE,
        parent: SpanId::NONE,
        name: String::new(),
        t_us: 0,
        attrs: Vec::new(),
    };
    let mut seen_kind = false;
    for (key, value) in fields {
        match (key.as_str(), value) {
            ("seq" | "span" | "parent" | "t_us", value) => {
                let Some(AttrValue::UInt(n)) = attr_value(value) else {
                    return Err(format!("field '{key}' must be a non-negative integer"));
                };
                match key.as_str() {
                    "seq" => ev.seq = n,
                    "span" => ev.span = SpanId(n),
                    "parent" => ev.parent = SpanId(n),
                    _ => ev.t_us = n,
                }
            }
            ("kind", Json::Str(s)) => {
                ev.kind = match s.as_str() {
                    "open" => EventKind::Open,
                    "close" => EventKind::Close,
                    "point" => EventKind::Point,
                    other => return Err(format!("unknown kind '{other}'")),
                };
                seen_kind = true;
            }
            ("name", Json::Str(s)) => ev.name = s,
            ("attrs", Json::Obj(attrs)) => {
                for (k, v) in attrs {
                    let v = attr_value(v).ok_or_else(|| {
                        format!("attr '{k}' must be a string, a bool or an integer")
                    })?;
                    ev.attrs.push((k, v));
                }
            }
            ("kind" | "name", _) => return Err(format!("field '{key}' must be a string")),
            ("attrs", _) => return Err("field 'attrs' must be an object".into()),
            (other, _) => return Err(format!("unknown field '{other}'")),
        }
    }
    if !seen_kind {
        return Err("missing 'kind' field".into());
    }
    Ok(ev)
}

/// Parse a JSONL trace dump back into events.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = parse_line(line).map_err(|e| format!("line {}: {e}", ln + 1))?;
        events.push(ev);
    }
    Ok(events)
}

/// Summary returned by [`validate`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    pub spans: usize,
    pub points: usize,
    pub max_depth: usize,
    /// Open-event counts per span name (sorted by name).
    pub span_names: Vec<(String, usize)>,
}

/// Structurally check an event stream: sequence numbers strictly increase,
/// every opened span is closed exactly once, closes refer to open spans,
/// and every `Open`/`Point` parent is either the root or a span that is
/// open at that moment. Returns per-name span counts and the maximum
/// nesting depth.
pub fn validate(events: &[TraceEvent]) -> Result<TraceSummary, String> {
    use std::collections::BTreeMap;
    let mut open: BTreeMap<u64, usize> = BTreeMap::new(); // span -> depth
    let mut closed: std::collections::BTreeSet<u64> = Default::default();
    let mut summary = TraceSummary::default();
    let mut names: BTreeMap<String, usize> = BTreeMap::new();
    let mut last_seq: Option<u64> = None;
    for ev in events {
        if let Some(prev) = last_seq {
            if ev.seq <= prev {
                return Err(format!("seq not strictly increasing at {}", ev.seq));
            }
        }
        last_seq = Some(ev.seq);
        let parent_depth = |p: SpanId, open: &BTreeMap<u64, usize>| -> Result<usize, String> {
            if p.is_none() {
                Ok(0)
            } else {
                open.get(&p.0)
                    .copied()
                    .map(|d| d + 1)
                    .ok_or(format!("seq {}: parent span {} is not open", ev.seq, p.0))
            }
        };
        match ev.kind {
            EventKind::Open => {
                if ev.span.is_none() {
                    return Err(format!("seq {}: open with span id 0", ev.seq));
                }
                if open.contains_key(&ev.span.0) || closed.contains(&ev.span.0) {
                    return Err(format!("seq {}: span {} reused", ev.seq, ev.span.0));
                }
                let depth = parent_depth(ev.parent, &open)?;
                summary.max_depth = summary.max_depth.max(depth);
                open.insert(ev.span.0, depth);
                summary.spans += 1;
                *names.entry(ev.name.clone()).or_insert(0) += 1;
            }
            EventKind::Close => {
                if open.remove(&ev.span.0).is_none() {
                    return Err(format!(
                        "seq {}: close of span {} which is not open",
                        ev.seq, ev.span.0
                    ));
                }
                closed.insert(ev.span.0);
            }
            EventKind::Point => {
                parent_depth(ev.parent, &open)?;
                summary.points += 1;
            }
        }
    }
    if !open.is_empty() {
        let ids: Vec<u64> = open.keys().copied().collect();
        return Err(format!("spans never closed: {ids:?}"));
    }
    summary.span_names = names.into_iter().collect();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let root = TraceSpan::disabled();
        let child = root.child_with("a", vec![("k", "v".into())]);
        child.point("p", vec![("n", 3u64.into())]);
        child.close();
        assert!(!root.is_enabled());
        assert!(root.sink().events().is_empty());
        assert_eq!(root.sink().to_jsonl(), "");
    }

    #[test]
    fn spans_nest_and_roundtrip_through_jsonl() {
        let sink = TraceSink::recording();
        let root = TraceSpan::root(sink.clone());
        let verify = root.child_with("verify", vec![("pair", "t/t".into())]);
        let rung = verify.child("rung:Param");
        rung.point("query:value[out]", vec![("outcome", "valid".into()), ("us", 12u64.into())]);
        rung.close_with(vec![("outcome", "answered".into())]);
        verify.close();

        let text = sink.to_jsonl();
        let events = parse_jsonl(&text).expect("parses");
        assert_eq!(events.len(), 5);
        let summary = validate(&events).expect("valid");
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.points, 1);
        assert_eq!(summary.max_depth, 1);
        assert_eq!(
            summary.span_names,
            vec![("rung:Param".to_string(), 1), ("verify".to_string(), 1)]
        );
    }

    #[test]
    fn escaped_strings_roundtrip() {
        let sink = TraceSink::recording();
        let root = TraceSpan::root(sink.clone());
        let s = root.child_with("weird\"name\\with\nnewline\ttab", vec![("msg", "a\"b".into())]);
        s.close();
        let events = parse_jsonl(&sink.to_jsonl()).expect("parses");
        assert_eq!(events[0].name, "weird\"name\\with\nnewline\ttab");
        assert_eq!(events[0].attrs[0].1, AttrValue::Str("a\"b".into()));
    }

    #[test]
    fn guard_closes_on_unwind() {
        let sink = TraceSink::recording();
        let root = TraceSpan::root(sink.clone());
        let outer = root.child("outer");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = outer.child_guard("inner");
            panic!("boom");
        }));
        assert!(result.is_err());
        outer.close();
        validate(&sink.events()).expect("balanced despite the panic");
    }

    #[test]
    fn validate_rejects_malformed_streams() {
        let sink = TraceSink::recording();
        let root = TraceSpan::root(sink.clone());
        let a = root.child("a");
        let mut events = sink.events();
        // Unclosed span.
        assert!(validate(&events).is_err());
        a.close();
        events = sink.events();
        validate(&events).expect("now balanced");
        // Close of a span that was never opened.
        events.push(TraceEvent {
            seq: 99,
            kind: EventKind::Close,
            span: SpanId(42),
            parent: SpanId::NONE,
            name: String::new(),
            t_us: 0,
            attrs: Vec::new(),
        });
        assert!(validate(&events).is_err());
    }

    #[test]
    fn concurrent_recording_keeps_total_order() {
        let sink = TraceSink::recording();
        let root = TraceSpan::root(sink.clone());
        let parent = root.child("parent");
        let mut handles = Vec::new();
        for t in 0..4 {
            let p = parent.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let s = p.child(&format!("w{t}:{i}"));
                    s.point("tick", Vec::new());
                    s.close();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        parent.close();
        let summary = validate(&sink.events()).expect("ordered and balanced");
        assert_eq!(summary.spans, 1 + 4 * 50);
        assert_eq!(summary.points, 200);
    }

    #[test]
    fn jsonl_line_format_is_pinned() {
        let ev = TraceEvent {
            seq: 7,
            kind: EventKind::Open,
            span: SpanId(3),
            parent: SpanId(1),
            name: "q:\"a\\b\"\n\t\r\u{1}\u{1f} é🚀".into(),
            t_us: 1234,
            attrs: vec![
                ("s".into(), AttrValue::Str("x\"y".into())),
                ("umax".into(), AttrValue::UInt(u64::MAX)),
                ("imin".into(), AttrValue::Int(i64::MIN)),
                ("yes".into(), AttrValue::Bool(true)),
                ("no".into(), AttrValue::Bool(false)),
            ],
        };
        let sink = TraceSink::recording();
        sink.inner.as_ref().unwrap().state.lock().unwrap().events.push(ev.clone());
        let text = sink.to_jsonl();
        let line = r#"{"seq":7,"kind":"open","span":3,"parent":1,"name":"q:\"a\\b\"\n\t\r\u0001\u001f é🚀","t_us":1234,"attrs":{"s":"x\"y","umax":18446744073709551615,"imin":-9223372036854775808,"yes":true,"no":false}}"#;
        assert_eq!(text, format!("{line}\n"));
        let back = parse_jsonl(&text).expect("parses");
        assert_eq!(format!("{back:?}"), format!("{:?}", vec![ev]));
    }

    #[test]
    fn parse_jsonl_rejects_off_schema_lines() {
        let ok = r#"{"seq":0,"kind":"point","span":0,"parent":0,"name":"p","t_us":0,"attrs":{}}"#;
        parse_jsonl(ok).expect("a well-formed line parses");
        for bad in [
            r#"{"seq":0,"kind":"point","extra":1}"#,
            r#"{"seq":0,"name":"p"}"#,
            r#"{"seq":-1,"kind":"point"}"#,
            r#"{"seq":1.5,"kind":"point"}"#,
            r#"{"seq":18446744073709551616,"kind":"point"}"#,
            r#"{"kind":"point","attrs":{"x":1.5}}"#,
            r#"{"kind":"point","attrs":{"x":null}}"#,
            r#"{"kind":"point","attrs":{"x":[1]}}"#,
            r#"{"kind":"point","attrs":{"x":-9223372036854775809}}"#,
        ] {
            assert!(parse_jsonl(bad).is_err(), "accepted {bad}");
        }
    }
}
