//! Hammer the collector and registry from many threads at once and
//! assert nothing is lost: every span, every counter increment, every
//! histogram observation must be accounted for.

use eoml_obs::Obs;
use std::sync::Arc;

const THREADS: usize = 16;
const SPANS_PER_THREAD: usize = 500;

#[test]
fn no_events_lost_under_contention() {
    let obs = Arc::new(Obs::new());

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let obs = Arc::clone(&obs);
            std::thread::spawn(move || {
                let stage = if t % 2 == 0 { "download" } else { "preprocess" };
                for i in 0..SPANS_PER_THREAD {
                    let mut guard = obs.span(stage, "work");
                    guard.attr("i", i);
                    drop(guard);
                    obs.counter_add("units", stage, 1);
                    obs.observe("unit_seconds", stage, (i + 1) as f64 * 1e-6);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }

    let total = THREADS * SPANS_PER_THREAD;
    let spans = obs.spans();
    assert_eq!(spans.len(), total, "lost spans under contention");

    // Ids are unique and the snapshot is sorted by open order.
    let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
    let sorted = ids.windows(2).all(|w| w[0] < w[1]);
    ids.dedup();
    assert_eq!(ids.len(), total, "duplicate span ids");
    assert!(sorted, "snapshot not in id order");

    // Counters saw every increment, split across the two stages.
    let dl = obs
        .metrics()
        .counter_value("units", "download")
        .unwrap_or(0);
    let pp = obs
        .metrics()
        .counter_value("units", "preprocess")
        .unwrap_or(0);
    assert_eq!(dl + pp, total as u64);
    assert_eq!(dl, (total / 2) as u64);

    // Histograms saw every observation.
    let h_dl = obs.metrics().histogram("unit_seconds", "download").unwrap();
    let h_pp = obs
        .metrics()
        .histogram("unit_seconds", "preprocess")
        .unwrap();
    assert_eq!(h_dl.count() + h_pp.count(), total as u64);

    // Exporters stay consistent after the stampede.
    let doc = serde_json::from_str(&obs.chrome_trace_json()).expect("trace parses");
    assert_eq!(
        doc.get("traceEvents").unwrap().as_array().unwrap().len(),
        total
    );
}
