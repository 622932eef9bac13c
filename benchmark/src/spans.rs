//! Driver-side span recorder for the traced pass.
//!
//! A span is recorded around every call the benchmark makes into a
//! layer's public function: name, start ns, end ns, parent span, and the
//! transaction id it served. Spans live in a pre-sized vector and are
//! written to `out/trace_<workload>.json` when the run ends. A layer's
//! self time is a span's duration minus its children's. The untraced pass
//! goes through the same call sites with the recorder off, where `call`
//! is a single predictable branch.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub txn: u64,
    /// Recording thread (the client index; 0 for the main thread).
    pub tid: u16,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    tid: u16,
    spans: Vec<Span>,
    /// Innermost open span.
    open: u32,
    /// Wall time of the traced sections on this thread.
    section_ns: u64,
}

impl Recorder {
    /// A recorder that records nothing (the untraced pass).
    pub fn off() -> Recorder {
        Recorder::new(false, Instant::now(), 0, 0)
    }

    /// A live recorder with room for `capacity` spans, on the shared
    /// `epoch` so spans from several threads line up.
    pub fn on(epoch: Instant, tid: u16, capacity: usize) -> Recorder {
        Recorder::new(true, epoch, tid, capacity)
    }

    fn new(on: bool, epoch: Instant, tid: u16, capacity: usize) -> Recorder {
        Recorder {
            on,
            epoch,
            tid,
            spans: Vec::with_capacity(capacity),
            open: NO_PARENT,
            section_ns: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. Returns a token for
    /// [`Recorder::close`]; a no-op token when recording is off.
    #[inline]
    pub fn open(&mut self, name: &'static str, txn: u64) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open,
            txn,
            tid: self.tid,
        });
        self.open = idx;
        idx
    }

    #[inline]
    pub fn close(&mut self, token: u32) {
        if token == NO_PARENT {
            return;
        }
        let end_ns = self.now();
        let span = &mut self.spans[token as usize];
        span.end_ns = end_ns;
        self.open = span.parent;
    }

    /// Run `f` inside a span.
    #[inline]
    pub fn call<R>(&mut self, name: &'static str, txn: u64, f: impl FnOnce() -> R) -> R {
        let token = self.open(name, txn);
        let r = f();
        self.close(token);
        r
    }

    /// Run a traced section: its wall time is what the top-level spans
    /// recorded inside it must add up to.
    pub fn section<R>(&mut self, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let t0 = Instant::now();
        let r = f(self);
        if self.on {
            self.section_ns += t0.elapsed().as_nanos() as u64;
        }
        r
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ns).collect()
    }

    /// Fold another thread's recorder into this one.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
        self.section_ns += other.section_ns;
    }

    /// `(sum of top-level span durations, wall time of the traced
    /// sections)` — the acceptance check wants these within 5 %.
    pub fn coverage(&self) -> (u64, u64) {
        let top: u64 = self.spans.iter().filter(|s| s.parent == NO_PARENT).map(Span::ns).sum();
        (top, self.section_ns)
    }

    /// Write the span file: a name table, then one
    /// `[name, start_ns, end_ns, parent, txn, tid]` row per span
    /// (`parent` is a row index, -1 for a top-level span), plus per-name
    /// totals with self time.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut names: Vec<&'static str> = Vec::new();
        let mut name_idx = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            let idx = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                names.push(s.name);
                names.len() - 1
            });
            name_idx.push(idx);
        }
        // Self time = own duration minus the children's.
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                self_ns[p] = self_ns[p].saturating_sub(s.ns());
            }
        }
        let mut totals = vec![(0u64, 0u64, 0u64); names.len()]; // count, total, self
        for (i, s) in self.spans.iter().enumerate() {
            let t = &mut totals[name_idx[i]];
            t.0 += 1;
            t.1 += s.ns();
            t.2 += self_ns[i];
        }
        let (top, wall) = self.coverage();

        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"workload\":\"{workload}\",\"seed\":{seed},")?;
        write!(w, "\"traced_wall_ns\":{wall},\"top_level_sum_ns\":{top},")?;
        write!(w, "\"layers\":[")?;
        for (i, name) in names.iter().enumerate() {
            let (count, total, own) = totals[i];
            let sep = if i == 0 { "" } else { "," };
            write!(
                w,
                "{sep}{{\"name\":\"{name}\",\"spans\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
            )?;
        }
        write!(w, "],\"columns\":[\"layer\",\"start_ns\",\"end_ns\",\"parent\",\"txn\",\"tid\"],")?;
        write!(w, "\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
            write!(
                w,
                "{sep}\n[{},{},{},{parent},{},{}]",
                name_idx[i], s.start_ns, s.end_ns, s.txn, s.tid
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}
