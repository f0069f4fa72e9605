//! `stream`: the coordinated data plane at full speed.
//!
//! Internet2, 9 standard modules, gravity mix. A seeded `SessionStream`
//! feeds `run_coordinated_stream` with the alert plane on and writing
//! JSONL; the LP runs only in set-up. Every pass replays the same seeded
//! stream, so passes differ only by noise and the reported rate is their
//! median.

use crate::checks;
use crate::probe::{self, Collector};
use crate::report::{Metric, Report};
use crate::setup::NidsSetup;
use crate::{engine_totals, peak_rss_metric, timed_passes, Layers, LpCounters, Opts, Size, SHARDS};
use nwdp_engine::{run_coordinated_stream, shard_of, CoordContext, Engine, Placement, RunStats};
use nwdp_hash::KeyedHasher;
use nwdp_obs as obs;
use nwdp_topo::NodeId;
use nwdp_traffic::{SessionStream, TraceConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Key of the coordination hash (the deployment's standard key).
pub const HASH_KEY: u64 = 5;
/// CPU cycles per Fig 6 CPU unit.
const CPU_UNIT: f64 = 1.0e9;

/// Sessions per pass.
pub fn sessions(size: Size) -> usize {
    match size {
        Size::Full => 200_000,
        Size::Tiny => 2_000,
    }
}

/// Alert pipeline tuning: a starved token bucket and a short suppression
/// window, so the dedup and rate-limit paths both run.
fn alert_config() -> obs::AlertConfig {
    obs::AlertConfig { rate: 200.0, burst: 50.0, suppress: 0.0005 }
}

/// Where a pass's alert egress goes: inside the benchmark's own
/// directory, one file per process, removed when the run ends.
fn alert_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("alerts-{}.jsonl", std::process::id()))
}

/// One data-plane pass with the alert plane writing to `path`.
struct Pass {
    per_node: Vec<RunStats>,
    /// `run_coordinated_stream` plus the alert flush.
    wall_s: f64,
    flush_s: f64,
    alerts: obs::AlertStats,
    jsonl: Result<u64, String>,
}

fn pass<I, S>(s: &NidsSetup, source: S, path: &std::path::Path) -> Result<Pass, String>
where
    I: Iterator<Item = nwdp_traffic::Session>,
    S: Fn() -> I + Sync,
{
    obs::clear_alert_writers();
    obs::reset_alerts();
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    obs::add_alert_writer(obs::AlertFormat::Jsonl, Box::new(std::io::BufWriter::new(file)));
    let hasher = KeyedHasher::with_key(HASH_KEY);
    let t0 = Instant::now();
    let run = run_coordinated_stream(
        &s.dep,
        &s.manifest,
        &s.paths,
        source,
        Placement::EventEngine,
        hasher,
        SHARDS,
    )
    .map_err(|e| format!("stream run: {e}"))?;
    let t1 = Instant::now();
    let flushed = obs::flush_alerts();
    let wall_s = t0.elapsed().as_secs_f64();
    let flush_s = t1.elapsed().as_secs_f64();
    obs::clear_alert_writers();
    let alerts = flushed.map_err(|e| format!("alert egress: {e}"))?;
    let jsonl = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e}", path.display()))
        .and_then(|text| checks::jsonl_records(&text));
    Ok(Pass { per_node: run.per_node, wall_s, flush_s, alerts, jsonl })
}

/// Check one pass against the on-path packet count and alert accounting.
fn check_pass(p: &Pass, expected: checks::OnPath) -> Result<(), String> {
    checks::node_packets(&p.per_node, expected.packets)?;
    let lines = p.jsonl.clone()?;
    checks::alert_balance(&p.alerts, lines)
}

pub fn run(opts: &Opts, rep: &mut Report) -> Result<(), String> {
    let n = sessions(opts.size);
    let cfg = TraceConfig::new(n, opts.seed);
    rep.param("sessions", n);
    rep.param("modules", 9);
    rep.param("topology", "internet2");
    rep.param("mix", "gravity");
    rep.param("alerts", "jsonl");

    let lp_before = LpCounters::read();
    if opts.trace {
        obs::set_enabled(true);
    }
    let (s, setup_s) = NidsSetup::build_timed(opts)?;
    obs::set_enabled(false);

    let expected = checks::onpath(&s.paths, SessionStream::new(&s.topo, &s.tm, &cfg));
    let path = alert_path();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    obs::set_alert_config(alert_config());
    obs::set_alert_clock_scale(1.0 / n as f64);
    obs::set_alert_enabled(true);
    let result = if opts.trace {
        traced(opts, rep, &s, &cfg, expected, &path, lp_before)
    } else {
        plain(opts, rep, &s, &cfg, expected, &path, setup_s)
    };
    obs::set_alert_enabled(false);
    let _ = std::fs::remove_file(&path);
    if let Some(dir) = path.parent() {
        let _ = std::fs::remove_dir(dir); // only succeeds once empty
    }
    result
}

fn plain(
    opts: &Opts,
    rep: &mut Report,
    s: &NidsSetup,
    cfg: &TraceConfig,
    expected: checks::OnPath,
    path: &std::path::Path,
    setup_s: Metric,
) -> Result<(), String> {
    let n = cfg.sessions;
    let source = || SessionStream::new(&s.topo, &s.tm, cfg);
    let mut rates = Vec::new();
    let mut first: Option<Vec<RunStats>> = None;
    let mut failure: Option<String> = None;
    let passes = timed_passes(opts, 3, |_| {
        let p = pass(s, source, path)?;
        let mut verdict = check_pass(&p, expected);
        match &first {
            None => first = Some(p.per_node.clone()),
            Some(f) => {
                if verdict.is_ok() {
                    verdict = checks::identical_stats(f, &p.per_node)
                        .map_err(|e| format!("pass differs from the first: {e}"));
                }
            }
        }
        match verdict {
            Ok(()) => rates.push(n as f64 / p.wall_s),
            Err(e) => {
                rep.failed += n as u64;
                failure.get_or_insert(e);
            }
        }
        Ok(())
    })?;
    rep.attempted += (passes * n) as u64;
    rep.check(
        format!(
            "{passes} passes: per-node packets == on-path packets, alerts balance, \
             JSONL lines == written, passes identical"
        ),
        failure.map_or(Ok(()), Err),
    );
    let max_cpu = first.as_ref().and_then(|f| f.iter().map(|st| st.cpu_cycles).max()).unwrap_or(0)
        as f64
        / CPU_UNIT;
    let rate = Metric::median_of("work_per_s", "1/s", rates.clone());
    rep.metrics.push(rate);
    rep.metrics.push(setup_s);
    rep.metrics.push(peak_rss_metric()?);
    rep.extra.push(Metric::median_of("sessions_per_s", "sessions/s", rates));
    rep.extra.push(Metric::once("max_node_cpu", "cpu_units", max_cpu));
    Ok(())
}

/// Serial replica of the stream driver loop, timing each layer call.
struct Replica {
    per_node: Vec<RunStats>,
    wall: Duration,
    next: Duration,
    path: Duration,
    shard: Duration,
    process: Duration,
    merge: Duration,
    /// Per analysed session, ns inside `process_session_fast`.
    session_ns: Vec<u64>,
}

fn replica(s: &NidsSetup, cfg: &TraceConfig) -> Result<Replica, String> {
    let hasher = KeyedHasher::with_key(HASH_KEY);
    let shards = SHARDS;
    let names: Vec<String> = s.dep.classes.iter().map(|c| c.name.clone()).collect();
    let zero = Duration::ZERO;
    let mut r = Replica {
        per_node: Vec::with_capacity(s.dep.num_nodes),
        wall: zero,
        next: zero,
        path: zero,
        shard: zero,
        process: zero,
        merge: zero,
        session_ns: Vec::new(),
    };
    let start = Instant::now();
    for j in 0..s.dep.num_nodes {
        let node = NodeId(j);
        let mut engines = Vec::with_capacity(shards);
        for shard in 0..shards {
            let coord = CoordContext::new(&s.dep, &s.manifest);
            let mut engine = Engine::new(node, Placement::EventEngine, &names, Some(coord), hasher)
                .map_err(|e| format!("replica engine: {e}"))?;
            let mut sessions = SessionStream::new(&s.topo, &s.tm, cfg);
            loop {
                let t0 = Instant::now();
                let next = sessions.next();
                let mut t1 = Instant::now();
                r.next += t1 - t0;
                let Some(session) = next else { break };
                let on_path = s.paths.path(session.src_node, session.dst_node).position(node);
                let t2 = Instant::now();
                r.path += t2 - t1;
                t1 = t2;
                if on_path.is_none() {
                    continue;
                }
                if shards > 1 {
                    let owner = shard_of(&hasher, &session, shards);
                    let t3 = Instant::now();
                    r.shard += t3 - t1;
                    t1 = t3;
                    if owner != shard {
                        continue;
                    }
                }
                engine.process_session_fast(&session);
                let spent = t1.elapsed();
                r.process += spent;
                r.session_ns.push(spent.as_nanos() as u64);
            }
            engines.push(engine);
        }
        let t0 = Instant::now();
        let mut engines = engines.into_iter();
        let mut merged = engines.next().expect("shards >= 1");
        for e in engines {
            merged.absorb_shard(e);
        }
        r.per_node.push(merged.stats());
        r.merge += t0.elapsed();
    }
    r.wall = start.elapsed();
    Ok(r)
}

fn quantile_ns(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize] as f64
}

fn traced(
    opts: &Opts,
    rep: &mut Report,
    s: &NidsSetup,
    cfg: &TraceConfig,
    expected: checks::OnPath,
    path: &std::path::Path,
    lp_before: LpCounters,
) -> Result<(), String> {
    let n = cfg.sessions;
    let mut layers = Layers::default();
    layers.set("nids.lp_solve_s", s.times.lp_solve_s);
    layers.set("nids.lp_iterations", s.times.lp_iterations as f64);
    layers.set("nids.manifest_s", s.times.manifest_s);
    layers.set("nids.validate_s", s.times.validate_s);
    lp_before.since(&mut layers);

    // Untraced pass first: the tracing overhead is measured against it.
    let plain = pass(s, || SessionStream::new(&s.topo, &s.tm, cfg), path)?;
    rep.check("untraced pass: per-node packets and alert accounting", check_pass(&plain, expected));

    let collector = Collector::default();
    let no_epochs = Arc::new(Vec::new());
    let traced = pass(
        s,
        || collector.wrap(SessionStream::new(&s.topo, &s.tm, cfg), no_epochs.clone()),
        path,
    )?;
    rep.check("traced pass: per-node packets and alert accounting", check_pass(&traced, expected));
    rep.check(
        "traced pass identical to the untraced pass",
        checks::identical_stats(&plain.per_node, &traced.per_node),
    );
    // Workers finish with the fan-out; flush time is not theirs.
    let fan = probe::summarize(&collector.take(), opts.threads, traced.wall_s - traced.flush_s);
    layers.set("traffic.next_s", fan.next_s);
    layers.set("traffic.sessions_pulled", fan.pulled as f64);
    layers.set("traffic.useful_ratio", expected.pairs as f64 / fan.pulled.max(1) as f64);
    layers.set("parallel.worker_busy_max_s", fan.busy_max_s);
    layers.set("parallel.worker_busy_mean_s", fan.busy_mean_s);
    layers.set("parallel.imbalance", fan.imbalance);
    layers.set("parallel.efficiency", fan.efficiency);
    layers.set("alert.emitted", traced.alerts.emitted as f64);
    layers.set("alert.written", traced.alerts.written as f64);
    layers.set("alert.deduped", traced.alerts.deduped as f64);
    layers.set("alert.dropped", traced.alerts.dropped_ratelimit as f64);
    layers.set("alert.flush_s", traced.flush_s);
    layers.set("trace.overhead", traced.wall_s / plain.wall_s - 1.0);
    engine_totals(&traced.per_node, &mut layers);

    // The replica emits no alerts: the plane's accounting stays the
    // traced pass's, and `RunStats` does not depend on it.
    obs::set_alert_enabled(false);
    let mut r = replica(s, cfg)?;
    rep.check(
        "serial replica RunStats bit-identical to the parallel run",
        checks::identical_stats(&traced.per_node, &r.per_node),
    );
    r.session_ns.sort_unstable();
    let attributed = r.next + r.path + r.shard + r.process + r.merge;
    layers.set("topo.path_lookup_s", r.path.as_secs_f64());
    layers.set("hash.shard_of_s", r.shard.as_secs_f64());
    layers.set("engine.process_s", r.process.as_secs_f64());
    layers.set("engine.calls", r.session_ns.len() as f64);
    layers.set("engine.session_ns_p50", quantile_ns(&r.session_ns, 0.5));
    layers.set("engine.session_ns_p99", quantile_ns(&r.session_ns, 0.99));
    layers.set("engine.merge_s", r.merge.as_secs_f64());
    layers.set("replica.unattributed_s", r.wall.as_secs_f64() - attributed.as_secs_f64());
    rep.attempted += 2 * n as u64;
    if !rep.correct() {
        rep.failed += 2 * n as u64;
    }
    rep.param("untraced_sessions_per_s", format!("{:.1}", n as f64 / plain.wall_s));
    rep.param("traced_sessions_per_s", format!("{:.1}", n as f64 / traced.wall_s));
    rep.param("replica_wall_s", format!("{:.4}", r.wall.as_secs_f64()));
    rep.param("replica_next_s", format!("{:.4}", r.next.as_secs_f64()));
    layers.into_report(rep);
    Ok(())
}
