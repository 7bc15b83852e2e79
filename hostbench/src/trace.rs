//! Benchmark-side spans: in-memory records of the calls the benchmark
//! makes into each layer, written at exit as Chrome trace-event JSON
//! (`chrome://tracing`, Perfetto) plus a per-layer self-time table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed or open span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Seconds since the trace epoch.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The timed operation this span belongs to.
    pub op: u64,
    /// Counts recorded while this span was the innermost open one.
    pub args: Vec<(String, f64)>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder. Spans nest by call order: `begin` opens a child of
/// the innermost open span and `end` closes it.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Start a new timed operation; later spans carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    pub fn begin(&mut self, name: impl Into<String>) {
        let now = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.into(),
            start: now,
            end: now,
            parent: self.open.last().copied(),
            op: self.op,
            args: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span and return its duration in seconds.
    pub fn end(&mut self) -> f64 {
        let id = self.open.pop().expect("end() without a matching begin()");
        let span = &mut self.spans[id];
        span.end = self.epoch.elapsed().as_secs_f64();
        span.seconds()
    }

    /// Record a span whose interval was measured elsewhere (for example a
    /// campaign job, timed from submission to its result).
    pub fn record(&mut self, name: impl Into<String>, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        self.spans.push(Span {
            name: name.into(),
            start: at(start),
            end: at(end),
            parent: self.open.last().copied(),
            op: self.op,
            args: Vec::new(),
        });
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, name: impl Into<String>, value: f64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].args.push((name.into(), value));
        }
    }

    /// Seconds one `begin`/`end` pair and one `count` take, each timed
    /// over `n` calls on a scratch trace with names built like the
    /// benchmark's.
    pub fn unit_costs(n: usize) -> (f64, f64) {
        let variant = std::hint::black_box("variable");
        let mut t = Trace::new();
        let t0 = Instant::now();
        for _ in 0..n {
            t.begin(format!("core.step.{variant}"));
            t.end();
        }
        let span = t0.elapsed().as_secs_f64() / n as f64;
        t.begin("op");
        let t0 = Instant::now();
        for _ in 0..n {
            t.count(format!("sim.cycles.{variant}"), 1.0);
        }
        let count = t0.elapsed().as_secs_f64() / n as f64;
        (span, count)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every closed span, grouped by name.
    pub fn durations(&self) -> BTreeMap<&str, Vec<f64>> {
        let mut out: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.name.as_str()).or_default().push(s.seconds());
        }
        out
    }

    /// Counts recorded under `name` across every span.
    pub fn counts(&self) -> BTreeMap<&str, Vec<f64>> {
        let mut out: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            for (k, v) in &s.args {
                out.entry(k.as_str()).or_default().push(*v);
            }
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per span,
    /// timestamps in microseconds, with the span id, parent id and
    /// operation id in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"op\":{}",
                json_string(&s.name),
                s.start * 1e6,
                s.seconds() * 1e6,
                s.op
            );
            for (k, v) in &s.args {
                let _ = write!(out, ",{}:{}", json_string(k), json_number(*v));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// Per-name self time: each span's duration minus the part of its
    /// interval that its direct children cover, summed over calls.
    /// Rows are `(name, calls, total seconds, self seconds)`, largest
    /// self time first.
    pub fn self_times(&self) -> Vec<(String, usize, f64, f64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(id);
            }
        }
        let mut rows: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let mut covered: Vec<(f64, f64)> = children[id]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start.max(s.start), c.end.min(s.end))
                })
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut busy = 0.0;
            let mut reach = s.start;
            for (a, b) in covered {
                if b > reach {
                    busy += b - a.max(reach);
                    reach = b;
                }
            }
            let row = rows.entry(s.name.as_str()).or_default();
            row.0 += 1;
            row.1 += s.seconds();
            row.2 += s.seconds() - busy;
        }
        let mut out: Vec<(String, usize, f64, f64)> = rows
            .into_iter()
            .map(|(name, (calls, total, own))| (name.to_string(), calls, total, own))
            .collect();
        out.sort_by(|a, b| b.3.total_cmp(&a.3));
        out
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip format
/// gives; non-finite values (which JSON cannot hold) become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_interval() {
        let mut t = Trace::new();
        t.spans = vec![
            Span {
                name: "op".into(),
                start: 0.0,
                end: 10.0,
                parent: None,
                op: 1,
                args: vec![],
            },
            Span {
                name: "a".into(),
                start: 1.0,
                end: 4.0,
                parent: Some(0),
                op: 1,
                args: vec![],
            },
            Span {
                name: "b".into(),
                start: 3.0,
                end: 5.0,
                parent: Some(0),
                op: 1,
                args: vec![],
            },
        ];
        let rows = t.self_times();
        let op = rows.iter().find(|r| r.0 == "op").unwrap();
        assert_eq!(op.1, 1);
        assert!((op.3 - 6.0).abs() < 1e-12, "self time {}", op.3);
        assert!(t.chrome_json().contains("\"parent\":0"));
    }

    #[test]
    fn json_helpers_escape_and_keep_digits() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(f64::NAN), "null");
    }
}
