//! Exporters: chrome-trace JSON and the per-stage summary table.
//!
//! The chrome-trace output is the "JSON Array Format" understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): one
//! complete (`"ph": "X"`) event per span with microsecond `ts`/`dur`,
//! the metered `F/W/Q/S` deltas and counter totals attached as `args`,
//! plus a `thread_name` metadata event for every named thread that
//! recorded a span.
//! The summary groups events by exact span name in first-appearance
//! order — the same keying `StageCosts` uses — so the two views of a
//! run can be diffed line by line.

use crate::ring::Event;

/// Wall/cost totals for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSummary {
    /// Exact span name (the grouping key).
    pub name: String,
    /// Number of completed spans with this name.
    pub count: u64,
    /// Summed wall-clock seconds.
    pub wall_secs: f64,
    /// Summed metered `F` delta.
    pub flops: u64,
    /// Summed metered `W` delta.
    pub horizontal_words: u64,
    /// Summed metered `Q` delta.
    pub vertical_words: u64,
    /// Summed metered `S` delta.
    pub supersteps: u64,
}

/// Group `events` by exact name, preserving first-appearance order.
pub fn summarize(events: &[Event]) -> Vec<StageSummary> {
    let mut out: Vec<StageSummary> = Vec::new();
    for ev in events {
        let name = ev.name();
        let entry = match out.iter_mut().find(|s| s.name == name) {
            Some(e) => e,
            None => {
                out.push(StageSummary {
                    name: name.to_string(),
                    count: 0,
                    wall_secs: 0.0,
                    flops: 0,
                    horizontal_words: 0,
                    vertical_words: 0,
                    supersteps: 0,
                });
                out.last_mut().expect("just pushed")
            }
        };
        entry.count += 1;
        entry.wall_secs += ev.wall_secs();
        entry.flops += ev.flops;
        entry.horizontal_words += ev.horizontal_words;
        entry.vertical_words += ev.vertical_words;
        entry.supersteps += ev.supersteps;
    }
    out
}

/// Render a summary as an aligned text table.
pub fn render_summary(summaries: &[StageSummary]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<44} {:>5} {:>10}  {:>14} {:>12} {:>12} {:>6}\n",
        "span", "count", "wall ms", "F", "W", "Q", "S"
    ));
    for s in summaries {
        out.push_str(&format!(
            "{:<44} {:>5} {:>10.3}  {:>14} {:>12} {:>12} {:>6}\n",
            s.name,
            s.count,
            s.wall_secs * 1e3,
            s.flops,
            s.horizontal_words,
            s.vertical_words,
            s.supersteps
        ));
    }
    out
}

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serialize `events` (plus counter totals and the dropped-event count)
/// as chrome-trace JSON. Load the file in `chrome://tracing` or
/// Perfetto; span nesting is reconstructed per-`tid` from the
/// timestamps.
pub fn chrome_trace(events: &[Event], counters: &[(&str, u64)], dropped: u64) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for ev in events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let ts = ev.start_ns as f64 / 1e3;
        let dur = (ev.end_ns.saturating_sub(ev.start_ns)) as f64 / 1e3;
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
             \"ts\": {ts:.3}, \"dur\": {dur:.3}, \"args\": {{\"flops\": {}, \
             \"horizontal_words\": {}, \"vertical_words\": {}, \"supersteps\": {}, \
             \"depth\": {}}}}}",
            json_escape(ev.name()),
            ev.tid,
            ev.flops,
            ev.horizontal_words,
            ev.vertical_words,
            ev.supersteps,
            ev.depth
        ));
    }
    // Name the threads that recorded spans (`ca-rt-<i>` pool workers,
    // `ca-service-<i>`, `main`), so "which worker was idle" reads off
    // the timeline.
    for (tid, name) in crate::span::thread_names() {
        if events.iter().any(|ev| ev.tid == tid) {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                json_escape(&name)
            ));
        }
    }
    // Counter totals and trace health as instant metadata events.
    for (name, value) in counters {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\": \"counter:{}\", \"ph\": \"i\", \"pid\": 1, \"tid\": 0, \
             \"ts\": 0, \"s\": \"g\", \"args\": {{\"value\": {value}}}}}",
            json_escape(name)
        ));
    }
    if !first {
        out.push_str(",\n");
    }
    out.push_str(&format!(
        "{{\"name\": \"trace:dropped_events\", \"ph\": \"i\", \"pid\": 1, \"tid\": 0, \
         \"ts\": 0, \"s\": \"g\", \"args\": {{\"value\": {dropped}}}}}"
    ));
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Event;

    fn ev(name: &str, start: u64, end: u64, f: u64) -> Event {
        let mut e = Event::named(name);
        e.start_ns = start;
        e.end_ns = end;
        e.flops = f;
        e
    }

    #[test]
    fn summary_groups_by_name_in_order() {
        let events = vec![ev("b", 0, 1_000, 5), ev("a", 1_000, 3_000, 7), ev("b", 3_000, 4_000, 1)];
        let s = summarize(&events);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].name, "b");
        assert_eq!(s[0].count, 2);
        assert_eq!(s[0].flops, 6);
        assert!((s[0].wall_secs - 2e-6).abs() < 1e-12);
        assert_eq!(s[1].name, "a");
        let table = render_summary(&s);
        assert!(table.contains("wall ms"));
        assert!(table.lines().count() >= 3);
    }

    #[test]
    fn chrome_trace_names_the_threads_that_recorded_spans() {
        let tid = std::thread::Builder::new()
            .name("ca-rt-7".into())
            .spawn(crate::thread_tid)
            .unwrap()
            .join()
            .unwrap();
        let mut e = ev("piece", 0, 10, 0);
        e.tid = tid;
        let json = chrome_trace(&[e], &[], 0);
        assert!(
            json.contains(&format!(
                "\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"args\": {{\"name\": \"ca-rt-7\"}}"
            )),
            "{json}"
        );
        // A named thread with no span in this trace is left out.
        assert!(!chrome_trace(&[], &[], 0).contains("ca-rt-7"));
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        let events = vec![ev("stage \"x\"\\", 500, 2_500, 9)];
        let json = chrome_trace(&events, &[("test.counter", 3)], 2);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with("]"));
        assert!(json.contains("\\\"x\\\"\\\\"), "name must be escaped: {json}");
        assert!(json.contains("\"ts\": 0.500"));
        assert!(json.contains("\"dur\": 2.000"));
        assert!(json.contains("counter:test.counter"));
        assert!(json.contains("trace:dropped_events"));
        // Balanced braces/brackets (cheap well-formedness proxy; the
        // vendored serde_json shim has no parser).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }
}
