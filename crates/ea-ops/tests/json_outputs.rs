//! The JSON documents ea-ops writes — the merged fleet trace and the
//! flight-recorder dump — parse with a real JSON parser. They live
//! outside the crate so `cargo test -p ea-ops --lib` needs no
//! `serde_json`.

use std::time::Duration;

use ea_ops::codec::{OwnedEvent, TraceBatch};
use ea_ops::{FleetState, FlightRecorder};
use ea_trace::{Category, TraceEvent};

fn owned(name: &str, t0: u64, ctx: u64) -> OwnedEvent {
    OwnedEvent {
        name: name.into(),
        cat: 1,
        thread: "main".into(),
        tid: 1,
        t0_us: t0,
        t1_us: t0 + 50,
        arg: 0,
        ctx,
    }
}

fn batch(process: &str, offset: Option<i64>, events: Vec<OwnedEvent>) -> TraceBatch {
    TraceBatch { process: process.into(), offset_us: offset, events }
}

fn ring_event(t0: u64) -> TraceEvent {
    TraceEvent {
        name: "x",
        cat: Category::Runtime,
        thread: "t".into(),
        tid: 1,
        t0_us: t0,
        t1_us: t0 + 5,
        arg: 0,
        ctx: 0,
    }
}

#[test]
fn merged_trace_aligns_each_process_onto_the_collector_clock() {
    let mut fleet = FleetState::new();
    // worker clock runs 1000µs behind the collector; server is
    // exactly aligned. Both observed the same exchange (ctx 77):
    // the worker submit *started* (collector time 1500) before the
    // server apply (collector time 1600).
    fleet.ingest_trace(batch("worker0", Some(1000), vec![owned("submit", 500, 77)]));
    fleet.ingest_trace(batch("server0", Some(0), vec![owned("submit", 1600, 77)]));
    let json = fleet.chrome_trace();
    let doc: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let events = doc["traceEvents"].as_array().unwrap();
    let spans: Vec<&serde_json::Value> =
        events.iter().filter(|e| e["ph"] == "X" && e["name"] == "submit").collect();
    assert_eq!(spans.len(), 2);
    let by_pid = |pid: u64| spans.iter().find(|s| s["pid"] == pid).unwrap();
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e["name"] == "process_name")
        .map(|e| e["args"]["name"].as_str().unwrap())
        .collect();
    assert!(names.contains(&"worker0") && names.contains(&"server0"));
    // worker0 arrived first → pid 1; its 500µs local start lands at
    // 1500 collector-µs, before the server's 1600.
    assert_eq!(by_pid(1)["ts"], 1500);
    assert_eq!(by_pid(2)["ts"], 1600);
    assert_eq!(by_pid(1)["args"]["ctx"], 77);
    assert_eq!(by_pid(2)["args"]["ctx"], 77);
}

#[test]
fn trigger_writes_a_parseable_chrome_trace_and_keeps_the_window() {
    let dir = std::env::temp_dir().join("ea_ops_rec_test_dump");
    let _ = std::fs::remove_dir_all(&dir);
    let rec = FlightRecorder::new(Duration::from_secs(60), &dir);
    rec.absorb(&[ring_event(10), ring_event(20)]);
    let path = rec.trigger("eviction pipe 3").unwrap();
    assert!(path.file_name().unwrap().to_str().unwrap().contains("eviction_pipe_3"));
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let spans = doc["traceEvents"]
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| e["ph"] == "X" || e["ph"] == "i")
        .count();
    assert_eq!(spans, 2);
    assert_eq!(rec.len(), 2, "dump must not clear the window");
    assert_eq!(rec.dump_count(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
