//! The Chrome exporters emit well-formed JSON, checked with a real JSON
//! parser. They live outside the crate so `cargo test -p ea-trace --lib`
//! needs no `serde_json`.

use ea_trace::{chrome_trace_json, chrome_trace_json_fleet, Category, ProcessTrace, TraceEvent};

fn ev(name: &'static str, thread: &str, tid: u32, t0: u64, t1: u64, arg: u64) -> TraceEvent {
    TraceEvent {
        name,
        cat: Category::Compute,
        thread: thread.to_string(),
        tid,
        t0_us: t0,
        t1_us: t1,
        arg,
        ctx: 0,
    }
}

#[test]
fn export_is_wellformed_json_with_sim_conventions() {
    let events = vec![
        ev("fwd", "stage0", 0, 10, 25, 0),
        ev("bwd", "stage0", 0, 30, 55, 0),
        ev("fwd", "stage1", 1, 26, 40, 1),
        ev("round", "main", 2, 0, 100, 3),
        ev("evict", "reaper", 3, 60, 60, 1), // instant
    ];
    let json = chrome_trace_json(&events);
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let arr = parsed["traceEvents"].as_array().unwrap();
    // 4 thread_name metadata + 5 events.
    assert_eq!(arr.len(), 9);
    assert!(arr.iter().any(|e| e["name"] == "F0"));
    assert!(arr.iter().any(|e| e["name"] == "B0"));
    assert!(arr.iter().any(|e| e["name"] == "F1"));
    assert!(arr.iter().any(|e| e["ph"] == "i"));
    assert!(arr.iter().any(|e| e["name"] == "thread_name" && e["args"]["name"] == "stage1"));
}

#[test]
fn fleet_export_keys_events_by_process_and_carries_ctx() {
    let mut submit = ev("submit", "main", 0, 100, 900, 4);
    submit.ctx = 0xDEAD_BEEF;
    let mut apply = ev("submit", "conn0", 0, 400, 600, 4);
    apply.ctx = 0xDEAD_BEEF;
    let procs = vec![
        ProcessTrace { pid: 1, name: "worker0".into(), events: vec![submit] },
        ProcessTrace { pid: 2, name: "server0".into(), events: vec![apply] },
    ];
    let json = chrome_trace_json_fleet(&procs);
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let arr = parsed["traceEvents"].as_array().unwrap();
    assert!(arr
        .iter()
        .any(|e| e["name"] == "process_name" && e["pid"] == 1 && e["args"]["name"] == "worker0"));
    assert!(arr
        .iter()
        .any(|e| e["name"] == "process_name" && e["pid"] == 2 && e["args"]["name"] == "server0"));
    let spans: Vec<_> = arr.iter().filter(|e| e["ph"] == "X").collect();
    assert_eq!(spans.len(), 2);
    assert!(spans.iter().all(|e| e["args"]["ctx"] == 0xDEAD_BEEFu64));
    assert_ne!(spans[0]["pid"], spans[1]["pid"]);
}
