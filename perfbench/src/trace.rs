//! In-memory spans recorded by the benchmark's own wrappers, written out
//! as Chrome trace-event JSON when a traced run ends.
//!
//! A span has a name, a start, an end, an optional parent span and the id
//! of the training step or request it belongs to. A span's *self time*
//! is its duration minus the part of it that its children cover; the
//! per-layer metrics of a traced run are sums of self times.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::quote;

/// A value attached to a span.
#[derive(Clone, Debug)]
pub enum Arg {
    Int(i64),
    Text(&'static str),
    /// Ids of the requests a batch carried.
    Ids(Vec<u64>),
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    /// Step or request id.
    pub id: u64,
    /// Display lane in the trace viewer.
    pub lane: u32,
    pub args: Vec<(&'static str, Arg)>,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }

    pub fn int(&self, key: &str) -> Option<i64> {
        self.args.iter().find_map(|(k, v)| match v {
            Arg::Int(i) if *k == key => Some(*i),
            _ => None,
        })
    }

    pub fn text(&self, key: &str) -> Option<&'static str> {
        self.args.iter().find_map(|(k, v)| match v {
            Arg::Text(s) if *k == key => Some(*s),
            _ => None,
        })
    }
}

/// The span store of one traced run.
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            id,
            lane: 1,
            args: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Opens a span at `Instant::now()`; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let now = Instant::now();
        self.push(name, now, now, parent, id)
    }

    pub fn end(&mut self, idx: usize) {
        self.spans[idx].end = Instant::now();
    }

    pub fn arg(&mut self, idx: usize, key: &'static str, value: Arg) {
        self.spans[idx].args.push((key, value));
    }

    /// Self time of every span, by index.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(Instant, Instant)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start.max(s.start), c.end.min(s.end))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort();
                let mut covered = Duration::ZERO;
                let mut cur: Option<(Instant, Instant)> = None;
                for (a, b) in iv {
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                s.dur().saturating_sub(covered)
            })
            .collect()
    }

    /// Writes the trace to `path` (see [`Trace::write_chrome_to`]).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_chrome_to(&mut out)?;
        out.flush()
    }

    /// Writes every span as a Chrome trace-event `X` (complete) event.
    pub fn write_chrome_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
            let mut args = format!("\"span\":{i},\"id\":{}", s.id);
            if let Some(p) = s.parent {
                args.push_str(&format!(",\"parent\":{p}"));
            }
            for (k, v) in &s.args {
                let v = match v {
                    Arg::Int(x) => x.to_string(),
                    Arg::Text(t) => quote(t),
                    Arg::Ids(ids) => format!(
                        "[{}]",
                        ids.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
                    ),
                };
                args.push_str(&format!(",{}:{v}", quote(k)));
            }
            writeln!(
                out,
                "{}{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
                if i == 0 { "" } else { "," },
                quote(s.name),
                s.lane,
                us(s.start),
                us(s.end) - us(s.start),
            )?;
        }
        writeln!(out, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new();
        let o = Instant::now();
        let at = |ms: u64| o + Duration::from_millis(ms);
        let root = t.push("root", at(0), at(100), None, 0);
        t.push("a", at(10), at(30), Some(root), 0);
        t.push("b", at(20), at(40), Some(root), 0);
        t.push("c", at(90), at(120), Some(root), 0);
        let st = t.self_times();
        assert_eq!(st[root], Duration::from_millis(100 - 30 - 10));
        assert_eq!(st[1], Duration::from_millis(20));
    }

    #[test]
    fn chrome_trace_parses() {
        let mut t = Trace::new();
        let s = t.begin("x", None, 3);
        t.arg(s, "reqs", Arg::Ids(vec![1, 2]));
        t.arg(s, "op", Arg::Text("conv\"2d"));
        t.end(s);
        let mut buf = Vec::new();
        t.write_chrome_to(&mut buf).expect("writes");
        let v = crate::json::parse(std::str::from_utf8(&buf).expect("utf-8")).expect("parses");
        assert_eq!(
            v.get("traceEvents")
                .and_then(|e| e.as_arr())
                .map(|e| e.len()),
            Some(1)
        );
    }
}
