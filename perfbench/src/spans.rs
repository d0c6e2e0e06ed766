//! The benchmark's own span recorder. Spans are taken around calls into
//! the program from the benchmark's side (nothing is traced inside the
//! program), kept in memory, and written out once the run ends as a
//! Chrome trace-event file that Perfetto loads.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Index of the span this one was recorded under, if any.
    pub parent: Option<usize>,
    /// Correlates the spans of one batch or request.
    pub group: u64,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records `name` over `start..end` and returns its index.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        group: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            parent,
            group,
        });
        self.spans.len() - 1
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        group: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let idx = self.record(name, start, Instant::now(), parent, group);
        (out, idx)
    }

    pub fn get(&self, idx: usize) -> &Span {
        &self.spans[idx]
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span,
    /// with its parent index and group in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"group\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.group
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_totals() {
        let mut spans = Spans::new();
        let (v, outer) = spans.time("outer", None, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
            3
        });
        assert_eq!(v, 3);
        let t = Instant::now();
        spans.record("inner", t, t, Some(outer), 7);
        assert!(spans.get(outer).dur_ns >= 1_000_000);
        assert_eq!(spans.get(1).parent, Some(outer));
        let json = spans.chrome_json();
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":0"));
    }
}
