//! # nwdp-perfbench — one benchmark for the whole system
//!
//! Three workloads drive the program through the public functions of its
//! crates and time each layer from outside, around the calls made into
//! it (see `perfbench/README.md` for why each workload exists and which
//! end-to-end metric each layer metric should move):
//!
//! - [`stream`]: Internet2 / 9 modules / gravity mix through
//!   `run_coordinated_stream` with the alert plane writing JSONL;
//! - [`reload`]: the same deployment under a gravity → uniform mix shift,
//!   re-solved and hot-swapped by `run_coordinated_stream_reload`;
//! - [`nips`]: Fig 10's Internet2 NIPS instances, LP relaxation with row
//!   generation, then `round_best_of` with greedy LP re-solve.
//!
//! A plain run (`--trace 0`) times whole passes with all instrumentation
//! off and reports the end-to-end metrics; a traced run (`--trace 1`)
//! wraps the calls into each layer and reports the per-layer metrics.

pub mod checks;
pub mod nips;
pub mod probe;
pub mod reload;
pub mod report;
pub mod setup;
pub mod stream;

use report::{Metric, Report};
use std::collections::BTreeMap;
use std::time::Instant;

/// Input size: `Full` is what the benchmark measures, `Tiny` is for the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Command-line options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Measurement budget: passes start while they are expected to end
    /// within this much time (see [`timed_passes`]).
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Worker threads (`NWDP_THREADS`), at most the host's core count.
    pub threads: usize,
}

/// Stream shards per node in both data-plane workloads.
pub const SHARDS: usize = 2;

/// Passes of a plain run: at least `min`, then more while one more pass,
/// at the mean pass time so far, would end within `seconds` of
/// measuring. `pass` gets the pass index.
pub fn timed_passes(
    opts: &Opts,
    min: usize,
    mut pass: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut n = 0;
    while n < min.max(1)
        || start.elapsed().as_secs_f64() * (n + 1) as f64 / n as f64 <= opts.seconds
    {
        pass(n)?;
        n += 1;
    }
    Ok(n)
}

/// Every per-layer metric with its unit, in print order. A traced run of
/// any workload prints all of them; a layer the workload does not use
/// reads 0 (e.g. `engine.calls` on `nips`).
pub const LAYERS: &[(&str, &str)] = &[
    ("traffic.next_s", "s"),
    ("traffic.sessions_pulled", "count"),
    ("traffic.useful_ratio", "ratio"),
    ("parallel.worker_busy_max_s", "s"),
    ("parallel.worker_busy_mean_s", "s"),
    ("parallel.imbalance", "ratio"),
    ("parallel.efficiency", "ratio"),
    ("topo.path_lookup_s", "s"),
    ("hash.shard_of_s", "s"),
    ("engine.process_s", "s"),
    ("engine.calls", "count"),
    ("engine.session_ns_p50", "ns"),
    ("engine.session_ns_p99", "ns"),
    ("engine.merge_s", "s"),
    ("engine.node_pkts", "count"),
    ("engine.connections", "count"),
    ("engine.fastpath_skip_ratio", "ratio"),
    ("engine.range_hit_ratio", "ratio"),
    ("alert.emitted", "count"),
    ("alert.written", "count"),
    ("alert.deduped", "count"),
    ("alert.dropped", "count"),
    ("alert.flush_s", "s"),
    ("nids.lp_solve_s", "s"),
    ("nids.lp_iterations", "count"),
    ("nids.manifest_s", "s"),
    ("nids.validate_s", "s"),
    ("reload.resolve_s", "s"),
    ("reload.lp_iterations", "count"),
    ("reload.swaps", "count"),
    ("reload.rejected", "count"),
    ("reload.dataplane_s", "s"),
    ("lp.iterations", "count"),
    ("lp.refactorizations", "count"),
    ("lp.dual_pivots", "count"),
    ("lp.warmstart_hits", "count"),
    ("lp.warmstart_rejected", "count"),
    ("lp.rows_added", "count"),
    ("lp.rowgen_rounds", "count"),
    ("nips.relax_s", "s"),
    ("nips.lazy_rows", "count"),
    ("nips.rowgen_rounds", "count"),
    ("nips.round_s", "s"),
    ("trace.overhead", "ratio"),
    ("replica.unattributed_s", "s"),
];

/// Per-layer values one traced run measured, keyed by [`LAYERS`] name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(LAYERS.iter().any(|(n, _)| *n == name), "unknown layer metric {name}");
        self.0.insert(name, value);
    }

    /// Fill `report.metrics` with every [`LAYERS`] entry, 0 where unset.
    pub fn into_report(self, report: &mut Report) {
        for &(name, unit) in LAYERS {
            report.metrics.push(Metric::once(name, unit, self.0.get(name).copied().unwrap_or(0.0)));
        }
    }
}

/// The solver counters the `lp.*` layer metrics read, as
/// `(layer metric, obs counter)`.
const LP_COUNTERS: &[(&str, &str)] = &[
    ("lp.iterations", "simplex.iterations"),
    ("lp.refactorizations", "simplex.refactorizations"),
    ("lp.dual_pivots", "simplex.dual_pivots"),
    ("lp.warmstart_hits", "simplex.warmstart_hits"),
    ("lp.warmstart_rejected", "simplex.warmstart_rejected"),
    ("lp.rows_added", "rowgen.rows_added"),
    ("lp.rowgen_rounds", "rowgen.rounds"),
];

/// Current value of an obs counter, summed over its label sets.
fn counter(name: &str) -> u64 {
    nwdp_obs::snapshot()
        .iter()
        .filter_map(|(key, v)| match v {
            nwdp_obs::SnapshotValue::Counter(c)
                if key == name || key.strip_prefix(name).is_some_and(|r| r.starts_with('{')) =>
            {
                Some(*c)
            }
            _ => None,
        })
        .sum()
}

/// Solver counter readings, to diff around a traced section.
pub struct LpCounters([u64; LP_COUNTERS.len()]);

impl LpCounters {
    pub fn read() -> Self {
        LpCounters(std::array::from_fn(|i| counter(LP_COUNTERS[i].1)))
    }

    /// Record the counts accrued since `self` into `layers`.
    pub fn since(&self, layers: &mut Layers) {
        let now = Self::read();
        for (i, &(name, _)) in LP_COUNTERS.iter().enumerate() {
            layers.set(name, now.0[i].saturating_sub(self.0[i]) as f64);
        }
    }
}

/// Per-node totals of a data-plane run as `engine.*` layer metrics.
pub fn engine_totals(per_node: &[nwdp_engine::RunStats], layers: &mut Layers) {
    let sum = |f: fn(&nwdp_engine::RunStats) -> u64| per_node.iter().map(f).sum::<u64>() as f64;
    let packets = sum(|s| s.packets);
    let checks = sum(|s| s.range_checks);
    layers.set("engine.node_pkts", packets);
    layers.set("engine.connections", sum(|s| s.connections as u64));
    layers.set("engine.fastpath_skip_ratio", sum(|s| s.fastpath_skipped) / packets.max(1.0));
    layers.set("engine.range_hit_ratio", sum(|s| s.range_hits) / checks.max(1.0));
}

/// `peak_rss_mib` for the end-to-end table.
pub fn peak_rss_metric() -> Result<Metric, String> {
    Ok(Metric::once("peak_rss_mib", "MiB", report::peak_rss_mib()?))
}
