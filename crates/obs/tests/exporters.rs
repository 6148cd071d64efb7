//! Round-trip tests for the exporters: render, parse back with a real
//! JSON parser / a small Prometheus text parser, and assert structure
//! (span nesting, histogram bucket counts) survives the trip.

use eoml_obs::Obs;
use eoml_simtime::SimTime;
use std::collections::HashMap;

#[test]
fn chrome_trace_round_trips_with_nesting() {
    let obs = Obs::new();
    let (outer_id, mid_id, inner_id);
    {
        let outer = obs.span("preprocess", "batch");
        outer_id = outer.id();
        {
            let mut mid = obs.span("preprocess", "granule");
            mid.attr("granule", "MOD021KM.A2021.hdf");
            mid_id = mid.id();
            {
                let inner = obs.span("preprocess", "tile_creation");
                inner_id = inner.id();
            }
        }
    }
    // A sim-stamped sibling on the virtual timeline.
    obs.record_sim_span(
        "download",
        "transfer",
        SimTime::from_secs_f64(5.0),
        SimTime::from_secs_f64(17.0),
        None,
        &[],
    );

    let text = obs.chrome_trace_json();
    let doc = serde_json::from_str(&text).expect("exporter must emit valid JSON");
    let events = doc
        .get("traceEvents")
        .expect("top-level traceEvents")
        .as_array()
        .expect("traceEvents is an array");
    assert_eq!(events.len(), 4);

    // Index events by span_id and check every required field.
    let mut by_id = HashMap::new();
    for ev in events {
        assert_eq!(ev.get("ph").unwrap().as_str(), Some("X"));
        assert!(ev.get("ts").unwrap().as_f64().is_some());
        assert!(ev.get("dur").unwrap().as_f64().unwrap() >= 0.0);
        assert!(ev.get("pid").unwrap().as_f64().is_some());
        assert!(ev.get("tid").unwrap().as_f64().is_some());
        let args = ev.get("args").unwrap();
        let id = args.get("span_id").unwrap().as_f64().unwrap() as u64;
        by_id.insert(id, ev);
    }

    // Nesting survived: inner -> mid -> outer -> none.
    let parent_of = |id: u64| {
        let args = by_id[&id].get("args").unwrap();
        args.get("parent_id").unwrap().as_f64().map(|p| p as u64)
    };
    assert_eq!(parent_of(inner_id), Some(mid_id));
    assert_eq!(parent_of(mid_id), Some(outer_id));
    assert_eq!(parent_of(outer_id), None);

    // Attributes ride along under args.
    assert_eq!(
        by_id[&mid_id]
            .get("args")
            .unwrap()
            .get("attr.granule")
            .unwrap()
            .as_str(),
        Some("MOD021KM.A2021.hdf")
    );

    // The sim span sits on the virtual timeline: ts = 5 s, dur = 12 s.
    let sim_ev = events
        .iter()
        .find(|e| e.get("cat").unwrap().as_str() == Some("download"))
        .unwrap();
    assert_eq!(
        sim_ev.get("args").unwrap().get("clock").unwrap().as_str(),
        Some("sim")
    );
    assert!((sim_ev.get("ts").unwrap().as_f64().unwrap() - 5e6).abs() < 1.0);
    assert!((sim_ev.get("dur").unwrap().as_f64().unwrap() - 12e6).abs() < 1.0);
}

/// A parsed Prometheus sample: `(metric name, label pairs, value)`.
type PromSample = (String, Vec<(String, String)>, f64);

/// Minimal Prometheus text parser: `name{label="v",...} value` lines.
fn parse_prometheus(text: &str) -> Vec<PromSample> {
    let mut out = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let (head, value) = line.rsplit_once(' ').expect("sample line has a value");
        let value: f64 = value.parse().unwrap_or_else(|_| {
            if value == "+Inf" {
                f64::INFINITY
            } else {
                panic!("unparseable value {value:?} in line {line:?}")
            }
        });
        let (name, labels) = match head.split_once('{') {
            Some((n, rest)) => {
                let body = rest.strip_suffix('}').expect("closing brace");
                let labels = body
                    .split("\",")
                    .map(|pair| {
                        let (k, v) = pair.split_once("=\"").expect("label pair");
                        (k.to_string(), v.trim_end_matches('"').to_string())
                    })
                    .collect();
                (n.to_string(), labels)
            }
            None => (head.to_string(), Vec::new()),
        };
        out.push((name, labels, value));
    }
    out
}

#[test]
fn prometheus_text_round_trips_with_bucket_counts() {
    let obs = Obs::new();
    obs.counter_add("files", "download", 7);
    obs.counter_add("files", "shipment", 2);
    obs.gauge_set("active_workers", "download", 3.0);
    // 10 observations at 2 ms, 5 at 0.5 s: two occupied buckets.
    for _ in 0..10 {
        obs.observe("file_seconds", "download", 2e-3);
    }
    for _ in 0..5 {
        obs.observe("file_seconds", "download", 0.5);
    }

    let text = obs.prometheus_text();
    let samples = parse_prometheus(&text);
    let find = |name: &str, stage: &str| -> Vec<&PromSample> {
        samples
            .iter()
            .filter(|(n, labels, _)| {
                n == name && labels.iter().any(|(k, v)| k == "stage" && v == stage)
            })
            .collect()
    };

    // Counters got the _total suffix and kept their values per stage.
    assert_eq!(find("eoml_files_total", "download")[0].2, 7.0);
    assert_eq!(find("eoml_files_total", "shipment")[0].2, 2.0);
    assert_eq!(find("eoml_active_workers", "download")[0].2, 3.0);

    // Histogram: cumulative buckets are monotone, end at count, and the
    // 2 ms / 0.5 s split is visible at a mid-range threshold.
    let buckets = find("eoml_file_seconds_bucket", "download");
    assert!(!buckets.is_empty());
    let mut last = 0.0;
    for b in &buckets {
        assert!(b.2 >= last, "cumulative bucket counts must be monotone");
        last = b.2;
    }
    let le = |b: &(String, Vec<(String, String)>, f64)| -> f64 {
        let v = &b.1.iter().find(|(k, _)| k == "le").unwrap().1;
        if v == "+Inf" {
            f64::INFINITY
        } else {
            v.parse().unwrap()
        }
    };
    // Every bound below 0.1 s holds at most the 10 fast observations.
    for b in &buckets {
        if le(b) < 0.1 {
            assert!(b.2 <= 10.0, "le={} count={}", le(b), b.2);
        }
    }
    // A bound at/above 2 ms exists and captures all 10 fast observations.
    assert!(buckets.iter().any(|b| le(b) < 0.1 && b.2 == 10.0));
    let inf = buckets.iter().find(|b| le(b).is_infinite()).unwrap();
    assert_eq!(inf.2, 15.0);
    assert_eq!(find("eoml_file_seconds_count", "download")[0].2, 15.0);
    let sum = find("eoml_file_seconds_sum", "download")[0].2;
    assert!((sum - (10.0 * 2e-3 + 5.0 * 0.5)).abs() < 1e-9);
}

#[test]
fn prometheus_emits_help_and_type_for_every_family() {
    let obs = Obs::new();
    obs.counter_add("files", "download", 1);
    obs.gauge_set("active_workers", "download", 2.0);
    obs.observe("file_seconds", "download", 0.5);

    let text = obs.prometheus_text();
    for fam in [
        "eoml_files_total",
        "eoml_active_workers",
        "eoml_file_seconds",
    ] {
        assert!(
            text.contains(&format!("# HELP {fam} ")),
            "missing HELP for {fam}"
        );
        assert!(
            text.contains(&format!("# TYPE {fam} ")),
            "missing TYPE for {fam}"
        );
    }
    // HELP precedes TYPE precedes the first sample of each family.
    let help_at = text.find("# HELP eoml_files_total").unwrap();
    let type_at = text.find("# TYPE eoml_files_total").unwrap();
    let sample_at = text.find("eoml_files_total{").unwrap();
    assert!(help_at < type_at && type_at < sample_at);
}

#[test]
fn odd_tenant_labels_are_escaped_and_round_trip() {
    let obs = Obs::new();
    // A stage label with every character the format must escape.
    let stage = "tenant:we\"ird\\lab\nel";
    obs.counter_add("granules", stage, 9);

    let text = obs.prometheus_text();
    // The exposition itself stays line-structured: every line is either
    // a comment or a sample, and none is torn by the raw newline.
    for line in text.lines() {
        assert!(
            line.starts_with('#') || line.contains(' '),
            "torn line {line:?}"
        );
    }
    assert!(text.contains("stage=\"tenant:we\\\"ird\\\\lab\\nel\""));

    // Parse back and un-escape: the original stage survives the trip.
    let samples = parse_prometheus(&text);
    let (_, labels, value) = samples
        .iter()
        .find(|(n, _, _)| n == "eoml_granules_total")
        .expect("counter sample present");
    assert_eq!(*value, 9.0);
    let escaped = &labels.iter().find(|(k, _)| k == "stage").unwrap().1;
    let unescaped = escaped
        .replace("\\n", "\n")
        .replace("\\\"", "\"")
        .replace("\\\\", "\\");
    assert_eq!(unescaped, stage);
}

#[test]
fn jsonl_lines_all_parse() {
    let obs = Obs::new();
    {
        let _g = obs.span("inference", "flow_action");
    }
    obs.counter_add("labels", "inference", 42);
    obs.gauge_set("active_workers", "inference", 1.0);
    obs.observe("queue_seconds", "compute", 0.25);
    let dump = obs.jsonl();
    let mut kinds = Vec::new();
    for line in dump.lines() {
        let v = serde_json::from_str(line).expect("every jsonl line parses");
        kinds.push(v.get("type").unwrap().as_str().unwrap().to_string());
    }
    assert!(kinds.contains(&"span".to_string()));
    assert!(kinds.contains(&"counter".to_string()));
    assert!(kinds.contains(&"gauge".to_string()));
    assert!(kinds.contains(&"histogram".to_string()));
}
