//! The harness's own spans, recorded around each call into a layer.
//!
//! Spans are kept in memory and written to `out/<workload>.trace.json`
//! when the traced run ends. Nothing inside the program is
//! instrumented here: a span's children are other harness spans, and
//! the stage children of a `solve` span are laid out from the
//! `StageCosts` the solver returns. A span's self time is its duration
//! minus the part its children cover.

use crate::json::quote;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// The operation (solve, job, calibration call) the span belongs
    /// to; spans of one operation share it.
    pub op: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// One thread's span log. Client threads each own one and the main
/// thread merges them with [`Recorder::absorb`], so recording never
/// takes a lock.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Record a finished span and return its id (its index).
    pub fn add(
        &mut self,
        parent: Option<u32>,
        op: u64,
        layer: &'static str,
        name: &'static str,
        start_us: f64,
        end_us: f64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            op,
            layer,
            name,
            start_us,
            end_us,
        });
        id
    }

    /// Append another thread's spans, renumbering ids and parents.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per `layer/name`, milliseconds: each span's duration
    /// minus its direct children's.
    pub fn self_ms(&self) -> BTreeMap<String, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p as usize] += s.end_us - s.start_us;
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_us - s.start_us) - child_us[s.id as usize];
            *out.entry(format!("{}/{}", s.layer, s.name)).or_insert(0.0) += own / 1e3;
        }
        out
    }

    /// The trace file: every span plus the self-time table, and the
    /// caller's `header` fields (already JSON) spliced in first.
    pub fn to_json(&self, header: &[(&str, String)]) -> String {
        let mut out = String::from("{\n");
        for (k, v) in header {
            out.push_str(&format!("  {}: {},\n", quote(k), v));
        }
        out.push_str("  \"time_unit\": \"us\",\n  \"self_ms\": {");
        let selfs: Vec<String> = self
            .self_ms()
            .iter()
            .map(|(k, v)| format!("{}: {:.4}", quote(k), v))
            .collect();
        out.push_str(&selfs.join(", "));
        out.push_str("},\n  \"spans\": [\n");
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "    {{\"id\": {}, \"parent\": {}, \"op\": {}, \"layer\": {}, \"name\": {}, \"start_us\": {:.2}, \"end_us\": {:.2}}}",
                    s.id,
                    s.parent.map_or("null".into(), |p| p.to_string()),
                    s.op,
                    quote(s.layer),
                    quote(s.name),
                    s.start_us,
                    s.end_us
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}
