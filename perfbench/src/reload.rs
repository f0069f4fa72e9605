//! `reload`: the closed control loop under a traffic mix shift.
//!
//! The `repro reload` scenario (the stream deployment, a gravity →
//! uniform mix shift at half-time, sabotage at boundary 2, driven by
//! `run_coordinated_stream_reload`) with a tighter loop: 24 epochs and an
//! EWMA weight of 0.25, so the controller tracks the shift in many small
//! warm re-solves. Re-solves and their validation take most of the wall
//! time. Their cost depends on the observed mix, so every pass draws a
//! fresh pair of seeded streams and the reported rate is total sessions
//! over total wall time across passes.

use crate::checks;
use crate::probe::{self, Collector};
use crate::report::{Metric, Report};
use crate::setup::{NidsSetup, REDUNDANCY};
use crate::stream::HASH_KEY;
use crate::{engine_totals, peak_rss_metric, timed_passes, Layers, LpCounters, Opts, Size, SHARDS};
use nwdp_engine::{run_coordinated_stream_reload, Placement, ReloadConfig, ReloadRun, Sabotage};
use nwdp_hash::KeyedHasher;
use nwdp_obs as obs;
use nwdp_traffic::{Session, SessionStream, TraceConfig, TrafficMatrix};
use std::sync::Arc;
use std::time::Instant;

pub const EPOCHS: usize = 24;
/// The boundary whose candidate manifest is corrupted before validation.
pub const SABOTAGED: usize = 2;
/// EWMA weight of the observed mix in the re-solve. At the `repro`
/// default of 0.5 the first re-solve after the shift takes 1–5 s
/// depending on the seed, the slow ones falling back from the warm start
/// to a cold solve; see the README.
pub const BLEND: f64 = 0.25;

pub fn sessions(size: Size) -> usize {
    match size {
        Size::Full => 120_000,
        Size::Tiny => 12_000,
    }
}

/// The two stream seeds of pass `i`: gravity half, then uniform half.
fn pass_seeds(seed: u64, i: usize) -> (u64, u64) {
    let base = seed.wrapping_mul(1_000).wrapping_add(2 * i as u64);
    (base, base + 1)
}

struct Scenario<'a> {
    s: &'a NidsSetup,
    uniform: TrafficMatrix,
    n: usize,
}

impl<'a> Scenario<'a> {
    /// The mix-shifted session sequence of one pass: ids stay globally
    /// sequential so the epoch boundaries cut across the shift.
    fn sessions(&self, seeds: (u64, u64)) -> impl Iterator<Item = Session> + Send + '_ {
        let half = self.n / 2;
        let tail = SessionStream::new(
            &self.s.topo,
            &self.uniform,
            &TraceConfig::new(self.n - half, seeds.1),
        )
        .map(move |mut x| {
            x.id += half as u64;
            x
        });
        SessionStream::new(&self.s.topo, &self.s.tm, &TraceConfig::new(half, seeds.0)).chain(tail)
    }

    fn config(&self) -> ReloadConfig<'a> {
        ReloadConfig {
            epochs: EPOCHS,
            total_sessions: self.n as u64,
            caps: &self.s.caps,
            redundancy: REDUNDANCY,
            max_load: 1.0,
            blend: BLEND,
            sabotage: Sabotage::AtEpoch(SABOTAGED),
        }
    }

    /// Session ids at which the driver parks its workers.
    fn boundaries(&self) -> Vec<u64> {
        (1..EPOCHS).map(|e| self.n as u64 * e as u64 / EPOCHS as u64).collect()
    }

    fn replay<I, S>(&self, source: S) -> Result<(ReloadRun, f64), String>
    where
        I: Iterator<Item = Session> + Send,
        S: Fn() -> I,
    {
        let t0 = Instant::now();
        let run = run_coordinated_stream_reload(
            &self.s.dep,
            &self.s.manifest,
            &self.s.paths,
            source,
            Placement::EventEngine,
            KeyedHasher::with_key(HASH_KEY),
            SHARDS,
            &self.config(),
        )
        .map_err(|e| format!("reload run: {e}"))?;
        Ok((run, t0.elapsed().as_secs_f64()))
    }

    /// Output checks of one pass: `Err((bad decisions, first error))`.
    fn check(&self, run: &ReloadRun, seeds: (u64, u64)) -> Result<(), (u64, String)> {
        checks::reload_decisions(&run.decisions, run.coverage_floor(), REDUNDANCY, SABOTAGED)?;
        let expected = checks::onpath(&self.s.paths, self.sessions(seeds)).packets;
        checks::node_packets(&run.run.per_node, expected).map_err(|e| (0, e))
    }
}

fn resolve_s(run: &ReloadRun) -> f64 {
    run.decisions.iter().map(|d| d.resolve_micros as f64 / 1e6).sum()
}

pub fn run(opts: &Opts, rep: &mut Report) -> Result<(), String> {
    let n = sessions(opts.size);
    rep.param("sessions", n);
    rep.param("epochs", EPOCHS);
    rep.param("mix", "gravity->uniform@0.5");
    rep.param("sabotage_boundary", SABOTAGED);
    rep.param("blend", BLEND);

    let lp_before = LpCounters::read();
    if opts.trace {
        obs::set_enabled(true);
    }
    let (s, setup_s) = NidsSetup::build_timed(opts)?;
    obs::set_enabled(false);
    let sc = Scenario { uniform: TrafficMatrix::uniform(&s.topo), s: &s, n };
    if opts.trace {
        traced(opts, rep, &sc, lp_before)
    } else {
        plain(opts, rep, &sc, setup_s)
    }
}

fn plain(opts: &Opts, rep: &mut Report, sc: &Scenario<'_>, setup_s: Metric) -> Result<(), String> {
    let mut walls = Vec::new();
    let mut resolves = Vec::new();
    let (mut decisions, mut bad_decisions) = (0u64, 0u64);
    let mut failure: Option<String> = None;
    let passes = timed_passes(opts, 2, |i| {
        let seeds = pass_seeds(opts.seed, i);
        let (run, wall) = sc.replay(|| sc.sessions(seeds))?;
        decisions += run.decisions.len() as u64;
        match sc.check(&run, seeds) {
            Ok(()) => {
                walls.push(wall);
                resolves.push(resolve_s(&run));
            }
            Err((bad, e)) => {
                bad_decisions += bad;
                rep.failed += sc.n as u64;
                failure.get_or_insert(e);
            }
        }
        Ok(())
    })?;
    rep.attempted += (passes * sc.n) as u64;
    rep.sub_counts.push(("boundary decisions", decisions, bad_decisions));
    rep.check(
        format!(
            "{passes} passes: coverage floor >= {REDUNDANCY}, only boundary {SABOTAGED} rejected, \
             no failed re-solve, per-node packets == on-path packets"
        ),
        failure.map_or(Ok(()), Err),
    );
    // Passes replay different inputs: the rate is a ratio of totals, the
    // per-pass samples show how much the inputs move it.
    let total_wall: f64 = walls.iter().sum();
    let rates: Vec<f64> = walls.iter().map(|w| sc.n as f64 / w).collect();
    let rate = (walls.len() * sc.n) as f64 / total_wall.max(1e-12);
    rep.metrics.push(Metric {
        name: "work_per_s",
        unit: "1/s",
        value: rate,
        samples: rates.clone(),
    });
    rep.metrics.push(setup_s);
    rep.metrics.push(peak_rss_metric()?);
    rep.extra.push(Metric {
        name: "sessions_per_s",
        unit: "sessions/s",
        value: rate,
        samples: rates,
    });
    let mean_resolve = resolves.iter().sum::<f64>() / resolves.len().max(1) as f64;
    rep.extra.push(Metric {
        name: "resolve_s_total",
        unit: "s",
        value: mean_resolve,
        samples: resolves,
    });
    Ok(())
}

fn traced(
    opts: &Opts,
    rep: &mut Report,
    sc: &Scenario<'_>,
    lp_before: LpCounters,
) -> Result<(), String> {
    let s = sc.s;
    let mut layers = Layers::default();
    layers.set("nids.lp_solve_s", s.times.lp_solve_s);
    layers.set("nids.lp_iterations", s.times.lp_iterations as f64);
    layers.set("nids.manifest_s", s.times.manifest_s);
    layers.set("nids.validate_s", s.times.validate_s);

    let seeds = pass_seeds(opts.seed, 0);
    let (plain, plain_wall) = sc.replay(|| sc.sessions(seeds))?;
    let plain_check = sc.check(&plain, seeds);

    obs::set_enabled(true);
    let collector = Collector::default();
    let boundaries = Arc::new(sc.boundaries());
    let traced = sc.replay(|| collector.wrap(sc.sessions(seeds), boundaries.clone()));
    obs::set_enabled(false);
    let (run, wall) = traced?;
    lp_before.since(&mut layers);
    let traced_check = sc.check(&run, seeds);
    let bad = |c: &Result<(), (u64, String)>| c.as_ref().err().map_or(0, |e| e.0);
    rep.sub_counts.push((
        "boundary decisions",
        (plain.decisions.len() + run.decisions.len()) as u64,
        bad(&plain_check) + bad(&traced_check),
    ));
    rep.check("untraced pass: decisions, coverage, packets", plain_check.map_err(|e| e.1));
    rep.check("traced pass: decisions, coverage, packets", traced_check.map_err(|e| e.1));
    rep.check(
        "traced pass identical to the untraced pass",
        checks::identical_stats(&plain.run.per_node, &run.run.per_node),
    );

    let resolve = resolve_s(&run);
    let dataplane = wall - resolve;
    let fan = probe::summarize(&collector.take(), opts.threads, dataplane);
    let analysed = checks::onpath(&s.paths, sc.sessions(seeds)).pairs;
    layers.set("traffic.next_s", fan.next_s);
    layers.set("traffic.sessions_pulled", fan.pulled as f64);
    layers.set("traffic.useful_ratio", analysed as f64 / fan.pulled.max(1) as f64);
    layers.set("parallel.worker_busy_max_s", fan.busy_max_s);
    layers.set("parallel.worker_busy_mean_s", fan.busy_mean_s);
    layers.set("parallel.imbalance", fan.imbalance);
    layers.set("parallel.efficiency", fan.efficiency);
    layers.set("reload.resolve_s", resolve);
    layers.set("reload.lp_iterations", run.decisions.iter().map(|d| d.lp_iterations as f64).sum());
    layers.set("reload.swaps", run.swaps() as f64);
    layers.set("reload.rejected", run.rejected() as f64);
    layers.set("reload.dataplane_s", dataplane);
    layers.set("trace.overhead", wall / plain_wall - 1.0);
    engine_totals(&run.run.per_node, &mut layers);
    rep.attempted += 2 * sc.n as u64;
    if !rep.correct() {
        rep.failed += 2 * sc.n as u64;
    }
    rep.param("untraced_sessions_per_s", format!("{:.1}", sc.n as f64 / plain_wall));
    rep.param("traced_sessions_per_s", format!("{:.1}", sc.n as f64 / wall));
    layers.into_report(rep);
    Ok(())
}
