//! The benchmark's own spans: one record per call into a program layer,
//! held in memory and written out when the run ends.
//!
//! A span has a name (`<layer>.<call>`), start and end times relative to
//! the recorder's creation, an optional parent span and a run id shared
//! by every span of one request (one flow, one daemon job, one set-up
//! repetition). A disabled recorder reads no clock and takes no lock, so
//! untraced runs pay nothing for the call sites.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use kraftwerk_trace::json::JsonObject;

/// Handle of an open span (`None` when recording is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
    run: u64,
}

/// In-memory span recorder, shareable across client threads.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A parent handle for root spans.
    pub const ROOT: SpanId = SpanId(None);

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&self, name: &'static str, parent: SpanId, run: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_s = self.origin.elapsed().as_secs_f64();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name,
            start_s,
            end_s: f64::NAN,
            parent: parent.0,
            run,
        });
        SpanId(Some(spans.len() - 1))
    }

    /// Closes a span opened with [`Spans::open`].
    pub fn close(&self, id: SpanId) {
        if let Some(i) = id.0 {
            let end_s = self.origin.elapsed().as_secs_f64();
            self.spans.lock().expect("span recorder poisoned")[i].end_s = end_s;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        run: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, run);
        let out = f();
        self.close(id);
        out
    }

    /// Per-layer self time: for every run id, the summed self time of the
    /// layer's spans in that run (a span's duration minus the part of it
    /// its child spans cover), then the median over the run ids in which
    /// the layer appears. The layer is the span name up to the first `.`.
    pub fn layer_self_seconds(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut per_run: BTreeMap<(String, u64), f64> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if !s.end_s.is_finite() {
                continue;
            }
            let mut covered: Vec<(f64, f64)> = children[i]
                .iter()
                .map(|&c| (spans[c].start_s.max(s.start_s), spans[c].end_s.min(s.end_s)))
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut union = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            *per_run.entry((layer, s.run)).or_insert(0.0) += (s.end_s - s.start_s) - union;
        }
        let mut by_layer: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for ((layer, _), self_s) in per_run {
            by_layer.entry(layer).or_default().push(self_s);
        }
        by_layer
            .into_iter()
            .map(|(layer, v)| (layer, crate::stats::median(&v)))
            .collect()
    }

    /// Writes `header` and then one JSON line per span to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut out = String::with_capacity(64 * (spans.len() + 1));
        out.push_str(header);
        out.push('\n');
        for (i, s) in spans.iter().enumerate() {
            let mut o = JsonObject::new();
            o.u64_field("id", i as u64);
            if let Some(p) = s.parent {
                o.u64_field("parent", p as u64);
            }
            o.u64_field("run", s.run);
            o.str_field("name", s.name);
            o.f64_field("start_s", s.start_s);
            o.f64_field("end_s", s.end_s);
            out.push_str(&o.finish());
            out.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = Spans::new(true);
        let parent = spans.open("bench.flow", Spans::ROOT, 1);
        spans.scope("core.global", parent, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        spans.close(parent);
        let layers = spans.layer_self_seconds();
        let core = layers["core"];
        let bench = layers["bench"];
        assert!(core >= 0.02, "core self {core}");
        assert!((0.009..core).contains(&bench), "bench self {bench}");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let spans = Spans::new(false);
        let id = spans.open("core.global", Spans::ROOT, 1);
        spans.close(id);
        assert!(spans.layer_self_seconds().is_empty());
    }
}
