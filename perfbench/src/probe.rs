//! Measuring the data plane from outside: a session iterator wrapper that
//! times every pull and reports, when its worker drops it, how long the
//! worker spent generating sessions and how long it was busy.
//!
//! The stream drivers call their `source` closure once per (node, shard)
//! worker, so wrapping the iterator the closure returns gives one trace
//! per worker without touching the program. A worker is busy from its
//! first pull until it drops the iterator, minus the time it sat parked
//! at an epoch boundary (reload runs): a pull that yields a session at or
//! past the next boundary is the worker's last of that epoch, so the gap
//! after it is not counted.

use nwdp_traffic::Session;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What one worker's iterator saw.
#[derive(Debug, Clone, Default)]
pub struct WorkerTrace {
    /// Sessions pulled (every session of the stream, before filtering).
    pub pulled: u64,
    /// Time spent inside the wrapped iterator's `next`.
    pub next: Duration,
    /// First pull to last pull, less parked gaps.
    pub busy: Duration,
}

/// Collects one [`WorkerTrace`] per dropped [`Timed`] iterator.
#[derive(Debug, Clone, Default)]
pub struct Collector(Arc<Mutex<Vec<WorkerTrace>>>);

impl Collector {
    /// Wrap `inner`; `boundaries` are ascending session ids at which the
    /// driver parks its workers (empty for a plain stream).
    pub fn wrap<I>(&self, inner: I, boundaries: Arc<Vec<u64>>) -> Timed<I> {
        Timed {
            inner,
            boundaries,
            epoch: 0,
            parked: false,
            last: None,
            trace: WorkerTrace::default(),
            sink: self.0.clone(),
        }
    }

    /// Traces of every worker that has finished, in completion order.
    pub fn take(&self) -> Vec<WorkerTrace> {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// A timed session iterator; see the module docs.
pub struct Timed<I> {
    inner: I,
    boundaries: Arc<Vec<u64>>,
    epoch: usize,
    parked: bool,
    last: Option<Instant>,
    trace: WorkerTrace,
    sink: Arc<Mutex<Vec<WorkerTrace>>>,
}

impl<I: Iterator<Item = Session>> Iterator for Timed<I> {
    type Item = Session;

    fn next(&mut self) -> Option<Session> {
        let t0 = Instant::now();
        let item = self.inner.next();
        let t1 = Instant::now();
        self.trace.next += t1 - t0;
        self.trace.busy += match self.last {
            Some(prev) if !self.parked => t1 - prev,
            _ => t1 - t0,
        };
        self.last = Some(t1);
        self.parked = false;
        if let Some(s) = &item {
            self.trace.pulled += 1;
            while self.boundaries.get(self.epoch).is_some_and(|&b| s.id >= b) {
                self.epoch += 1;
                self.parked = true;
            }
        }
        item
    }
}

impl<I> Drop for Timed<I> {
    fn drop(&mut self) {
        let trace = std::mem::take(&mut self.trace);
        self.sink.lock().unwrap_or_else(|e| e.into_inner()).push(trace);
    }
}

/// Fan-out summary over all workers of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FanOut {
    pub pulled: u64,
    pub next_s: f64,
    pub busy_max_s: f64,
    pub busy_mean_s: f64,
    /// `busy_max / busy_mean`.
    pub imbalance: f64,
    /// `Σ busy / (threads × wall)`.
    pub efficiency: f64,
}

pub fn summarize(traces: &[WorkerTrace], threads: usize, wall_s: f64) -> FanOut {
    if traces.is_empty() {
        return FanOut::default();
    }
    let busy: Vec<f64> = traces.iter().map(|t| t.busy.as_secs_f64()).collect();
    let total: f64 = busy.iter().sum();
    let mean = total / busy.len() as f64;
    let max = busy.iter().cloned().fold(0.0, f64::max);
    FanOut {
        pulled: traces.iter().map(|t| t.pulled).sum(),
        next_s: traces.iter().map(|t| t.next.as_secs_f64()).sum(),
        busy_max_s: max,
        busy_mean_s: mean,
        imbalance: if mean > 0.0 { max / mean } else { 0.0 },
        efficiency: total / (threads.max(1) as f64 * wall_s.max(1e-12)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwdp_topo::internet2;
    use nwdp_traffic::{SessionStream, TraceConfig, TrafficMatrix};

    #[test]
    fn wrapper_yields_the_same_sessions_and_counts_pulls() {
        let topo = internet2();
        let tm = TrafficMatrix::gravity(&topo);
        let cfg = TraceConfig::new(500, 9);
        let c = Collector::default();
        let ids: Vec<u64> = c
            .wrap(SessionStream::new(&topo, &tm, &cfg), Arc::new(vec![100, 300]))
            .map(|s| s.id)
            .collect();
        let plain: Vec<u64> = SessionStream::new(&topo, &tm, &cfg).map(|s| s.id).collect();
        assert_eq!(ids, plain);
        let traces = c.take();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].pulled, 500);
        assert!(traces[0].busy >= traces[0].next);
        let f = summarize(&traces, 2, 1.0);
        assert_eq!(f.pulled, 500);
        assert_eq!(f.imbalance, 1.0);
    }
}
