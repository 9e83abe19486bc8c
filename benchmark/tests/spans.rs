//! Span arithmetic: a layer's self time is its spans' time minus the time
//! their children cover, and one root id ties the spans of one op together.

use mlec_benchmark::spans::{layer_times, Recorder, Span};

const NONE: u32 = u32::MAX;

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32, root: u32) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        root,
    }
}

#[test]
fn self_time_is_total_minus_children() {
    // op [0, 100) holds get [10, 40) and put [50, 90); put holds encode
    // [55, 75). A second op [100, 130) holds one get [105, 125).
    let spans = [
        span("op", 0, 100, NONE, 0),
        span("get", 10, 40, 0, 0),
        span("put", 50, 90, 0, 0),
        span("encode", 55, 75, 2, 0),
        span("op", 100, 130, NONE, 4),
        span("get", 105, 125, 4, 4),
    ];
    let layers = layer_times(&spans);
    assert_eq!((layers["op"].spans, layers["op"].total_ns), (2, 130));
    assert_eq!(layers["op"].self_ns, (100 - 30 - 40) + (30 - 20));
    assert_eq!((layers["get"].spans, layers["get"].self_ns), (2, 50));
    assert_eq!((layers["put"].total_ns, layers["put"].self_ns), (40, 20));
    assert_eq!(layers["encode"].self_ns, 20);
    // Self times partition the outermost spans' time exactly.
    let sum: u64 = layers.values().map(|l| l.self_ns).sum();
    assert_eq!(sum, 130);
}

#[test]
fn recorder_links_parents_and_roots() {
    let mut rec = Recorder::new(true);
    for _ in 0..2 {
        rec.enter("op");
        rec.span("inner", || ());
        rec.enter("call");
        rec.exit_as(Some("call.degraded"));
        rec.count("chunks", 3);
        rec.exit();
    }
    let spans = rec.spans();
    assert_eq!(spans.len(), 6);
    assert_eq!((spans[0].parent, spans[0].root), (NONE, 0));
    assert_eq!(
        (spans[1].name, spans[1].parent, spans[1].root),
        ("inner", 0, 0)
    );
    assert_eq!(spans[2].name, "call.degraded");
    assert_eq!((spans[4].parent, spans[4].root), (3, 3));
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    assert_eq!(rec.counts()["chunks"], 6);
    // Children lie inside their parent, so no layer's self time underflows.
    let layers = rec.layer_times();
    assert!(layers["op"].self_ns <= layers["op"].total_ns);
    let sum: u64 = layers.values().map(|l| l.self_ns).sum();
    assert_eq!(sum, layers["op"].total_ns);
    // The trace file is JSON with one row per span.
    let doc = mlec_runner::Json::parse(&rec.to_json()).expect("trace is valid JSON");
    assert_eq!(
        doc.get("spans").and_then(|s| s.as_arr()).map(<[_]>::len),
        Some(6)
    );
}

#[test]
fn disabled_recorder_records_nothing() {
    let mut rec = Recorder::new(false);
    rec.enter("op");
    assert_eq!(rec.span("inner", || 7), 7);
    rec.count("chunks", 1);
    rec.exit();
    assert!(rec.spans().is_empty() && rec.counts().is_empty());
}
