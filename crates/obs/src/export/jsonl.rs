//! JSON-lines exporter: one self-describing object per line — spans
//! first (open order), then counters, gauges, and histogram summaries.
//! The format a quick `jq`/Python script wants when neither a trace
//! viewer nor a Prometheus scraper is at hand.
//!
//! [`parse`] is the inverse for the span/counter/gauge lines, so a
//! [`crate::archive::RunArchive`] can reload a dumped store and diff it
//! offline. Histogram summary lines are lossy by construction (they hold
//! percentiles, not samples) and are skipped on the way back in.

use crate::metrics::{MetricKey, MetricsSnapshot};
use crate::span::SpanRecord;
use eoml_simtime::SimTime;
use serde_json::{Map, Value};

fn span_line(span: &SpanRecord) -> Value {
    let mut obj = Map::new();
    obj.insert("type".to_string(), Value::from("span"));
    obj.insert("id".to_string(), Value::from(span.id as f64));
    obj.insert(
        "parent".to_string(),
        span.parent
            .map(|p| Value::from(p as f64))
            .unwrap_or(Value::Null),
    );
    obj.insert("stage".to_string(), Value::from(span.stage.as_str()));
    obj.insert("name".to_string(), Value::from(span.name.as_str()));
    obj.insert("tid".to_string(), Value::from(span.tid as f64));
    obj.insert(
        "sim_start_s".to_string(),
        span.sim_start
            .map(|t| Value::from(t.as_secs_f64()))
            .unwrap_or(Value::Null),
    );
    obj.insert(
        "sim_end_s".to_string(),
        span.sim_end
            .map(|t| Value::from(t.as_secs_f64()))
            .unwrap_or(Value::Null),
    );
    obj.insert(
        "wall_start_s".to_string(),
        Value::from(span.wall_start_ns as f64 * 1e-9),
    );
    obj.insert(
        "wall_end_s".to_string(),
        Value::from(span.wall_end_ns as f64 * 1e-9),
    );
    obj.insert(
        "trace_id".to_string(),
        span.trace_id
            .as_deref()
            .map(Value::from)
            .unwrap_or(Value::Null),
    );
    let mut attrs = Map::new();
    for (k, v) in &span.attrs {
        attrs.insert(k.clone(), Value::from(v.as_str()));
    }
    obj.insert("attrs".to_string(), Value::Object(attrs));
    Value::Object(obj)
}

/// Render spans + metrics as JSON-lines.
pub fn render(spans: &[SpanRecord], snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let push = |out: &mut String, v: Value| {
        out.push_str(&serde_json::to_string(&v).expect("jsonl serialization is infallible"));
        out.push('\n');
    };
    for span in spans {
        push(&mut out, span_line(span));
    }
    for (key, value) in &snapshot.counters {
        let mut obj = Map::new();
        obj.insert("type".to_string(), Value::from("counter"));
        obj.insert("name".to_string(), Value::from(key.name.as_str()));
        obj.insert("stage".to_string(), Value::from(key.stage.as_str()));
        obj.insert("value".to_string(), Value::from(*value as f64));
        push(&mut out, Value::Object(obj));
    }
    for (key, value) in &snapshot.gauges {
        let mut obj = Map::new();
        obj.insert("type".to_string(), Value::from("gauge"));
        obj.insert("name".to_string(), Value::from(key.name.as_str()));
        obj.insert("stage".to_string(), Value::from(key.stage.as_str()));
        obj.insert("value".to_string(), Value::from(*value));
        push(&mut out, Value::Object(obj));
    }
    for (key, h) in &snapshot.histograms {
        let mut obj = Map::new();
        obj.insert("type".to_string(), Value::from("histogram"));
        obj.insert("name".to_string(), Value::from(key.name.as_str()));
        obj.insert("stage".to_string(), Value::from(key.stage.as_str()));
        obj.insert("count".to_string(), Value::from(h.count() as f64));
        obj.insert("sum".to_string(), Value::from(h.sum()));
        obj.insert("max".to_string(), Value::from(h.max()));
        // Exact order statistics while the histogram still holds every
        // raw sample (n ≤ 1024); the ≤ 19 % log-bucket approximation
        // beyond that.
        let (p50, p90, p99, exact) = match h.exact_summary() {
            Some(s) => (
                s.percentile(50.0),
                s.percentile(90.0),
                s.percentile(99.0),
                true,
            ),
            None => (h.p50(), h.p90(), h.p99(), false),
        };
        obj.insert("p50".to_string(), Value::from(p50));
        obj.insert("p90".to_string(), Value::from(p90));
        obj.insert("p99".to_string(), Value::from(p99));
        obj.insert("exact".to_string(), Value::from(exact));
        push(&mut out, Value::Object(obj));
    }
    out
}

/// A JSONL dump parsed back into structured telemetry: the spans plus the
/// counter/gauge registry values (histogram summaries are not
/// reconstructable and are skipped).
#[derive(Debug, Clone, Default)]
pub struct ParsedJsonl {
    /// Span records, in dump order.
    pub spans: Vec<SpanRecord>,
    /// Counter values by `(name, stage)`.
    pub counters: Vec<(MetricKey, u64)>,
    /// Gauge values by `(name, stage)`.
    pub gauges: Vec<(MetricKey, f64)>,
}

fn parse_span(obj: &Map, lineno: usize) -> Result<SpanRecord, String> {
    let err = |what: &str| format!("line {lineno}: span missing {what}");
    let num = |key: &str| obj.get(key).and_then(Value::as_f64);
    let sim = |key: &str| {
        obj.get(key)
            .filter(|v| !matches!(v, Value::Null))
            .and_then(Value::as_f64)
            .map(|s| SimTime::from_secs_f64(s.max(0.0)))
    };
    Ok(SpanRecord {
        id: num("id").ok_or_else(|| err("id"))? as u64,
        parent: obj
            .get("parent")
            .filter(|v| !matches!(v, Value::Null))
            .and_then(Value::as_f64)
            .map(|p| p as u64),
        stage: obj
            .get("stage")
            .and_then(Value::as_str)
            .ok_or_else(|| err("stage"))?
            .to_string(),
        name: obj
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| err("name"))?
            .to_string(),
        tid: num("tid").unwrap_or(0.0) as u64,
        sim_start: sim("sim_start_s"),
        sim_end: sim("sim_end_s"),
        wall_start_ns: (num("wall_start_s").unwrap_or(0.0) * 1e9).round() as u64,
        wall_end_ns: (num("wall_end_s").unwrap_or(0.0) * 1e9).round() as u64,
        trace_id: obj
            .get("trace_id")
            .and_then(Value::as_str)
            .map(str::to_string),
        attrs: obj
            .get("attrs")
            .and_then(Value::as_object)
            .map(|attrs| {
                attrs
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
                    .collect()
            })
            .unwrap_or_default(),
    })
}

fn parse_metric_key(obj: &Map, lineno: usize) -> Result<MetricKey, String> {
    let field = |what: &str| {
        obj.get(what)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("line {lineno}: metric missing {what}"))
    };
    Ok(MetricKey {
        name: field("name")?,
        stage: field("stage")?,
    })
}

/// Parse a [`render`]ed document back into spans, counters, and gauges.
///
/// Wall-clock bounds round-trip through seconds (sub-nanosecond loss
/// only); `attrs` come back key-sorted. Histogram lines are skipped —
/// their summaries cannot rebuild the sample distribution. Unknown line
/// types are ignored (forward compatibility); malformed lines error.
pub fn parse(text: &str) -> Result<ParsedJsonl, String> {
    let mut out = ParsedJsonl::default();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let value: Value =
            serde_json::from_str(line).map_err(|e| format!("line {lineno}: {e:?}"))?;
        let obj = value
            .as_object()
            .ok_or_else(|| format!("line {lineno}: not an object"))?;
        match obj.get("type").and_then(Value::as_str) {
            Some("span") => out.spans.push(parse_span(obj, lineno)?),
            Some("counter") => {
                let key = parse_metric_key(obj, lineno)?;
                let v = obj.get("value").and_then(Value::as_f64).unwrap_or(0.0);
                out.counters.push((key, v.round() as u64));
            }
            Some("gauge") => {
                let key = parse_metric_key(obj, lineno)?;
                let v = obj.get("value").and_then(Value::as_f64).unwrap_or(0.0);
                out.gauges.push((key, v));
            }
            Some(_) => {} // histogram summaries and future line types
            None => return Err(format!("line {lineno}: object without a type")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn histogram_line(rendered: &str) -> Value {
        rendered
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .find(|v| v.get("type").and_then(|t| t.as_str()) == Some("histogram"))
            .expect("histogram line present")
    }

    #[test]
    fn small_histograms_export_exact_percentiles() {
        let reg = MetricsRegistry::default();
        for i in 1..=100 {
            reg.observe("file_seconds", "download", i as f64);
        }
        let rendered = render(&[], &reg.snapshot());
        let line = histogram_line(&rendered);
        assert_eq!(line.get("exact").unwrap().as_bool(), Some(true));
        // Exact linear-interpolated percentiles over 1..=100.
        assert!((line.get("p50").unwrap().as_f64().unwrap() - 50.5).abs() < 1e-9);
        assert!((line.get("p90").unwrap().as_f64().unwrap() - 90.1).abs() < 1e-9);
        assert!((line.get("p99").unwrap().as_f64().unwrap() - 99.01).abs() < 1e-9);
    }

    #[test]
    fn large_histograms_fall_back_within_error_bound() {
        let reg = MetricsRegistry::default();
        // 2000 samples: past the 1024-sample buffer, so the exporter
        // falls back to log buckets.
        for i in 1..=2000 {
            reg.observe("file_seconds", "download", i as f64 / 1000.0);
        }
        let h = reg.histogram("file_seconds", "download").unwrap();
        assert!(h.exact_summary().is_none());
        let rendered = render(&[], &reg.snapshot());
        let line = histogram_line(&rendered);
        assert_eq!(line.get("exact").unwrap().as_bool(), Some(false));
        // One sub-bucket spans 2^(1/4) ≈ 1.19: approximation stays
        // within the documented ≤ 19 % relative-error bound of the
        // exact percentile.
        for (key, exact) in [("p50", 1.0005), ("p90", 1.8001), ("p99", 1.98001)] {
            let approx = line.get(key).unwrap().as_f64().unwrap();
            let rel = (approx - exact).abs() / exact;
            assert!(
                rel <= 0.19,
                "{key}: approx={approx} exact={exact} rel={rel}"
            );
        }
    }

    #[test]
    fn exported_percentiles_cross_over_at_1024_samples() {
        let reg = MetricsRegistry::default();
        for i in 1..=1024 {
            reg.observe("file_seconds", "download", i as f64);
        }
        let line = histogram_line(&render(&[], &reg.snapshot()));
        assert_eq!(line.get("exact").unwrap().as_bool(), Some(true));
        let exact_p50 = line.get("p50").unwrap().as_f64().unwrap();
        assert!((exact_p50 - 512.5).abs() < 1e-9);

        // Sample 1025 flips the same histogram to the approximation.
        reg.observe("file_seconds", "download", 1025.0);
        let line = histogram_line(&render(&[], &reg.snapshot()));
        assert_eq!(line.get("exact").unwrap().as_bool(), Some(false));
        let approx_p50 = line.get("p50").unwrap().as_f64().unwrap();
        let rel = (approx_p50 - exact_p50).abs() / exact_p50;
        assert!(
            rel <= 0.19,
            "approx={approx_p50} exact={exact_p50} rel={rel}"
        );
    }

    #[test]
    fn dump_round_trips_spans_counters_and_gauges() {
        use crate::TraceContext;
        use eoml_simtime::SimTime;
        let obs = crate::Obs::new();
        obs.record_sim_span(
            "download",
            "file",
            SimTime::from_secs_f64(1.5),
            SimTime::from_secs_f64(4.0),
            Some(&TraceContext::new("MOD.A2022001.0610")),
            &[("file", "MOD021KM.A2022001.0610.hdf")],
        );
        {
            let _guard = obs.span("preprocess", "wall_only");
        }
        obs.counter_add("alloc_bytes", "preprocess", 4096);
        obs.gauge_set("alloc_peak_bytes", "preprocess", 2048.0);

        let parsed = parse(&obs.jsonl()).expect("round trip");
        assert_eq!(parsed.spans.len(), 2);
        let sim = &parsed.spans[0];
        assert_eq!(sim.stage, "download");
        assert_eq!(sim.sim_seconds(), Some(2.5));
        assert_eq!(sim.trace_id.as_deref(), Some("MOD.A2022001.0610"));
        assert_eq!(sim.attr("file"), Some("MOD021KM.A2022001.0610.hdf"));
        let wall = &parsed.spans[1];
        assert!(wall.sim_start.is_none() && wall.parent.is_none());
        // Durations survive in whichever clock the span carried.
        let originals = obs.spans();
        for (a, b) in originals.iter().zip(&parsed.spans) {
            assert!((a.duration_seconds() - b.duration_seconds()).abs() < 1e-8);
        }
        assert!(parsed
            .counters
            .iter()
            .any(|(k, v)| k.name == "alloc_bytes" && k.stage == "preprocess" && *v == 4096));
        assert!(parsed
            .gauges
            .iter()
            .any(|(k, v)| k.name == "alloc_peak_bytes" && *v == 2048.0));
        // Histogram lines exist in the dump but are skipped on parse.
        assert!(obs.jsonl().contains("\"type\":\"histogram\""));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse("not json").is_err());
        assert!(parse("{\"no\":\"type\"}").is_err());
        assert!(parse("{\"type\":\"span\"}").is_err(), "span without id");
        // Unknown types and blank lines are tolerated.
        let ok = parse("{\"type\":\"future_thing\",\"x\":1}\n\n").unwrap();
        assert!(ok.spans.is_empty() && ok.counters.is_empty());
    }

    #[test]
    fn span_lines_carry_the_trace_id() {
        use crate::TraceContext;
        use eoml_simtime::SimTime;
        let obs = crate::Obs::new();
        obs.record_sim_span(
            "download",
            "file",
            SimTime::ZERO,
            SimTime::from_secs_f64(1.0),
            Some(&TraceContext::new("MOD.A2022001.0610")),
            &[],
        );
        let rendered = obs.jsonl();
        let span_line = rendered
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .find(|v| v.get("type").and_then(|t| t.as_str()) == Some("span"))
            .unwrap();
        assert_eq!(
            span_line.get("trace_id").unwrap().as_str(),
            Some("MOD.A2022001.0610")
        );
    }
}
