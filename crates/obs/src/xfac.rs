//! Cross-facility trace stitching.
//!
//! Each facility runs its own [`crate::Obs`] hub; a shipped granule's
//! spans therefore live in two span stores — the source's pipeline spans
//! (download → … → shipment) and the destination's ingest/verify spans.
//! [`XfacAnalysis::stitch`] joins the stores on **trace id** (the granule
//! display form both sides stamp) into one timeline per granule, tagging
//! every span with a `facility` attribute so exports can tell the lanes
//! apart.
//!
//! The stitched critical path ([`crate::analysis::GranuleTrace`])
//! attributes the WAN hop explicitly: [`XfacAnalysis::wan_breakdown`]
//! splits it into *queue* (waiting for shipment or ingest to start),
//! *wire* (`shipment`-stage service — bytes in flight), and *verify*
//! (`ingest`-stage service at the destination).
//!
//! [`XfacAnalysis::chrome_trace`] renders the stitched store with one
//! Chrome/Perfetto **process lane per facility** (`ph:"M"`
//! `process_name` metadata + per-facility pids), so both sides of the
//! WAN sit in a single trace file.

use std::collections::BTreeMap;

use crate::analysis::{SegmentKind, TraceAnalysis};
use crate::export::chrome;
use crate::span::SpanRecord;
use crate::Obs;

/// The facility attribute key stamped onto every stitched span.
pub const FACILITY_ATTR: &str = "facility";

/// One facility's span store, labeled.
#[derive(Debug, Clone)]
pub struct FacilitySpans {
    /// Facility name (becomes the Chrome process lane name).
    pub facility: String,
    /// The facility's spans (typically `obs.spans()`).
    pub spans: Vec<SpanRecord>,
}

impl FacilitySpans {
    /// Capture a hub's current spans under a facility name.
    pub fn capture(facility: &str, obs: &Obs) -> FacilitySpans {
        FacilitySpans {
            facility: facility.to_string(),
            spans: obs.spans(),
        }
    }
}

/// Stamp `facility` onto every span that does not already carry the
/// attribute (spans recorded through [`crate::ingest`]-style paths often
/// self-tag; everything else inherits the lane's name).
pub fn tag_facility(mut spans: Vec<SpanRecord>, facility: &str) -> Vec<SpanRecord> {
    for s in &mut spans {
        if s.attr(FACILITY_ATTR).is_none() {
            s.attrs
                .push((FACILITY_ATTR.to_string(), facility.to_string()));
        }
    }
    spans
}

/// The WAN hop of one granule's stitched critical path, attributed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WanBreakdown {
    /// Critical-path seconds waiting for shipment or ingest to start.
    pub queue_s: f64,
    /// Critical-path seconds of `shipment`-stage service (wire time).
    pub wire_s: f64,
    /// Critical-path seconds of `ingest`-stage service (destination
    /// verification).
    pub verify_s: f64,
}

/// Source and destination span stores joined on trace id.
#[derive(Debug)]
pub struct XfacAnalysis {
    facilities: Vec<String>,
    spans: Vec<SpanRecord>,
    analysis: TraceAnalysis,
}

impl XfacAnalysis {
    /// Stitch facility span stores into one cross-facility timeline.
    /// Every span is facility-tagged; traces sharing an id across lanes
    /// merge into a single [`crate::analysis::GranuleTrace`].
    pub fn stitch(lanes: &[FacilitySpans]) -> XfacAnalysis {
        let mut spans = Vec::new();
        let mut facilities = Vec::new();
        for lane in lanes {
            facilities.push(lane.facility.clone());
            spans.extend(tag_facility(lane.spans.clone(), &lane.facility));
        }
        let analysis = TraceAnalysis::from_spans(&spans);
        XfacAnalysis {
            facilities,
            spans,
            analysis,
        }
    }

    /// Trace ids whose spans appear in **more than one** facility — the
    /// granules that actually crossed the WAN.
    pub fn stitched_trace_ids(&self) -> Vec<&str> {
        let mut seen: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for s in &self.spans {
            let (Some(id), Some(fac)) = (s.trace_id.as_deref(), s.attr(FACILITY_ATTR)) else {
                continue;
            };
            let facs = seen.entry(id).or_default();
            if !facs.contains(&fac) {
                facs.push(fac);
            }
        }
        seen.into_iter()
            .filter(|(_, facs)| facs.len() > 1)
            .map(|(id, _)| id)
            .collect()
    }

    /// WAN attribution for one granule's stitched critical path: queue
    /// (waiting on `shipment`/`ingest`), wire (`shipment` service),
    /// verify (`ingest` service). `None` when the trace is unknown.
    pub fn wan_breakdown(&self, trace_id: &str) -> Option<WanBreakdown> {
        let trace = self.analysis.trace(trace_id)?;
        let mut out = WanBreakdown::default();
        for seg in trace.critical_path() {
            match (seg.kind, seg.stage.as_str()) {
                (SegmentKind::Service, "shipment") => out.wire_s += seg.seconds(),
                (SegmentKind::Service, "ingest") => out.verify_s += seg.seconds(),
                (SegmentKind::Queue, "shipment") | (SegmentKind::Queue, "ingest") => {
                    out.queue_s += seg.seconds()
                }
                _ => {}
            }
        }
        Some(out)
    }

    /// Render the stitched store as a single Chrome trace with one
    /// process lane per facility. Lanes are sorted (and deduplicated) by
    /// facility name before pid assignment, so the rendered document is
    /// byte-stable regardless of stitch order — CI artifact diffs of two
    /// stitched traces compare content, not capture order.
    pub fn chrome_trace(&self) -> String {
        let mut ordered: Vec<&str> = self.facilities.iter().map(String::as_str).collect();
        ordered.sort_unstable();
        ordered.dedup();
        let lanes: Vec<(&str, Vec<&SpanRecord>)> = ordered
            .into_iter()
            .map(|f| {
                (
                    f,
                    self.spans
                        .iter()
                        .filter(|s| s.attr(FACILITY_ATTR) == Some(f))
                        .collect(),
                )
            })
            .collect();
        chrome::render_processes(&lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceContext;
    use eoml_simtime::SimTime;

    fn span(obs: &Obs, stage: &str, name: &str, start: f64, end: f64, trace: &str) {
        obs.record_sim_span(
            stage,
            name,
            SimTime::from_secs_f64(start),
            SimTime::from_secs_f64(end),
            Some(&TraceContext::new(trace)),
            &[],
        );
    }

    /// Source runs download→shipment, destination verifies after a gap.
    fn two_facility_fixture() -> XfacAnalysis {
        let src = Obs::new();
        span(&src, "download", "file", 0.0, 10.0, "g1");
        span(&src, "inference", "infer", 10.0, 20.0, "g1");
        span(&src, "shipment", "file", 22.0, 30.0, "g1");
        let dst = Obs::new();
        span(&dst, "ingest", "verify", 33.0, 35.0, "g1");
        XfacAnalysis::stitch(&[
            FacilitySpans {
                facility: "ace-defiant".into(),
                spans: src.spans(),
            },
            FacilitySpans {
                facility: "frontier-orion".into(),
                spans: dst.spans(),
            },
        ])
    }

    #[test]
    fn stitch_joins_facilities_on_trace_id() {
        let x = two_facility_fixture();
        assert_eq!(x.facilities, ["ace-defiant", "frontier-orion"]);
        assert_eq!(x.stitched_trace_ids(), vec!["g1"]);
        let trace = x.analysis.trace("g1").unwrap();
        assert_eq!(trace.spans.len(), 4);
        // End-to-end now spans both facilities: 0 → 35.
        assert!((trace.e2e_seconds() - 35.0).abs() < 1e-9);
        // Every stitched span knows its facility.
        for s in &x.spans {
            assert!(s.attr(FACILITY_ATTR).is_some());
        }
    }

    #[test]
    fn wan_breakdown_attributes_queue_wire_and_verify() {
        let x = two_facility_fixture();
        let wan = x.wan_breakdown("g1").unwrap();
        assert!((wan.wire_s - 8.0).abs() < 1e-9, "shipment 22..30");
        assert!((wan.verify_s - 2.0).abs() < 1e-9, "ingest 33..35");
        // queue: 20..22 waiting on shipment + 30..33 waiting on ingest.
        assert!((wan.queue_s - 5.0).abs() < 1e-9);
        assert!(x.wan_breakdown("nope").is_none());
    }

    #[test]
    fn shipped_but_never_ingested_granule_keeps_a_source_side_breakdown() {
        // g1 completes the WAN hop; g2 ships but the destination never
        // records an ingest span — a lost/failed transfer.
        let src = Obs::new();
        span(&src, "download", "file", 0.0, 10.0, "g1");
        span(&src, "shipment", "file", 12.0, 20.0, "g1");
        span(&src, "download", "file", 0.0, 11.0, "g2");
        span(&src, "shipment", "file", 13.0, 21.0, "g2");
        let dst = Obs::new();
        span(&dst, "ingest", "verify", 23.0, 25.0, "g1");
        let x = XfacAnalysis::stitch(&[
            FacilitySpans {
                facility: "ace-defiant".into(),
                spans: src.spans(),
            },
            FacilitySpans {
                facility: "frontier-orion".into(),
                spans: dst.spans(),
            },
        ]);
        // g2 sits in one facility only, so it is not stitched.
        assert_eq!(x.stitched_trace_ids(), vec!["g1"]);
        // Its WAN breakdown still attributes the source side: wire
        // 13..21, queue 11..13, verify necessarily zero.
        let wan = x.wan_breakdown("g2").expect("orphan keeps a breakdown");
        assert!((wan.wire_s - 8.0).abs() < 1e-9);
        assert!((wan.queue_s - 2.0).abs() < 1e-9);
        assert_eq!(wan.verify_s, 0.0);
    }

    #[test]
    fn chrome_trace_is_byte_stable_across_stitch_order() {
        let src = Obs::new();
        span(&src, "download", "file", 0.0, 10.0, "g1");
        span(&src, "shipment", "file", 12.0, 20.0, "g1");
        let dst = Obs::new();
        span(&dst, "ingest", "verify", 23.0, 25.0, "g1");
        let fwd = XfacAnalysis::stitch(&[
            FacilitySpans {
                facility: "ace-defiant".into(),
                spans: src.spans(),
            },
            FacilitySpans {
                facility: "frontier-orion".into(),
                spans: dst.spans(),
            },
        ]);
        let rev = XfacAnalysis::stitch(&[
            FacilitySpans {
                facility: "frontier-orion".into(),
                spans: dst.spans(),
            },
            FacilitySpans {
                facility: "ace-defiant".into(),
                spans: src.spans(),
            },
        ]);
        // Same document bytes either way: lanes sort by facility name
        // before pid assignment.
        assert_eq!(fwd.chrome_trace(), rev.chrome_trace());
        let v: serde_json::Value = serde_json::from_str(&rev.chrome_trace()).unwrap();
        let lane = v["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .find(|e| {
                e["ph"].as_str() == Some("M") && e["args"]["name"].as_str() == Some("ace-defiant")
            })
            .expect("lane metadata");
        assert_eq!(lane["pid"].as_f64(), Some(1.0), "alphabetical pid");
    }

    #[test]
    fn single_facility_traces_are_not_stitched() {
        let src = Obs::new();
        span(&src, "download", "file", 0.0, 1.0, "solo");
        let x = XfacAnalysis::stitch(&[FacilitySpans {
            facility: "ace-defiant".into(),
            spans: src.spans(),
        }]);
        assert!(x.stitched_trace_ids().is_empty());
        assert!(x.analysis.trace("solo").is_some(), "still analysable");
    }

    #[test]
    fn chrome_trace_renders_one_lane_per_facility() {
        let x = two_facility_fixture();
        let doc = x.chrome_trace();
        let v: serde_json::Value = serde_json::from_str(&doc).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        // Process-name metadata for both lanes.
        let lanes: Vec<(&str, f64)> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("M"))
            .map(|e| {
                (
                    e["args"]["name"].as_str().unwrap(),
                    e["pid"].as_f64().unwrap(),
                )
            })
            .collect();
        assert_eq!(lanes.len(), 2);
        assert!(lanes.contains(&("ace-defiant", 1.0)));
        assert!(lanes.contains(&("frontier-orion", 2.0)));
        // Span events land on their facility's pid, and the shipment and
        // ingest events share the granule trace id.
        let pid_of = |stage: &str| {
            events
                .iter()
                .find(|e| e["ph"].as_str() == Some("X") && e["cat"].as_str() == Some(stage))
                .map(|e| e["pid"].as_f64().unwrap())
                .unwrap()
        };
        assert_eq!(pid_of("shipment"), 1.0);
        assert_eq!(pid_of("ingest"), 2.0);
        for stage in ["shipment", "ingest"] {
            let ev = events
                .iter()
                .find(|e| e["cat"].as_str() == Some(stage))
                .unwrap();
            assert_eq!(ev["args"]["trace_id"].as_str(), Some("g1"));
        }
    }
}
