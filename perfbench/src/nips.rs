//! `nips`: Fig 10's NIPS pipeline on Internet2, never touching the data
//! plane.
//!
//! 30 rules (the quick Fig 10 scale) at the five Fig 10 rule-capacity
//! fractions 0.05–0.25, match rates `M ~ U[0, 0.01]`. Each configuration solves the LP relaxation
//! (cold, with row generation) and rounds it with `round_best_of`
//! (greedy + LP re-solve, 10 iterations). Relaxation time depends
//! strongly on the match rates, so every pass draws fresh ones and the
//! reported rate is configurations over total solve time across passes.

use crate::checks;
use crate::report::{Metric, Report};
use crate::{peak_rss_metric, timed_passes, Layers, LpCounters, Opts, Size};
use nwdp_core::nips::{round_best_of, solve_relaxation, NipsInstance, RoundingOpts, Strategy};
use nwdp_lp::rowgen::RowGenOpts;
use nwdp_obs as obs;
use nwdp_topo::{internet2, PathDb, Topology};
use nwdp_traffic::{MatchRates, TrafficMatrix, VolumeModel};
use std::time::Instant;

pub const CAP_FRACS: [f64; 5] = [0.05, 0.10, 0.15, 0.20, 0.25];

/// `(rules, rounding iterations)`.
pub fn sizes(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (30, 10),
        Size::Tiny => (20, 2),
    }
}

struct Model {
    topo: Topology,
    paths: PathDb,
    tm: TrafficMatrix,
    vol: VolumeModel,
}

impl Model {
    fn build() -> Self {
        let topo = internet2();
        let paths = PathDb::shortest_paths(&topo);
        let tm = TrafficMatrix::gravity(&topo);
        let vol = VolumeModel::scaled_for(&topo);
        Model { topo, paths, tm, vol }
    }

    /// The five instances of pass `pass`, match rates seeded from `seed`.
    fn instances(&self, rules: usize, seed: u64, pass: usize) -> Vec<NipsInstance> {
        let n_paths = self.paths.all_pairs().count();
        CAP_FRACS
            .iter()
            .enumerate()
            .map(|(ci, &cap)| {
                let rates_seed =
                    seed.wrapping_mul(1_000).wrapping_add((pass * CAP_FRACS.len() + ci) as u64);
                let rates = MatchRates::uniform_001(rules, n_paths, rates_seed);
                NipsInstance::evaluation_setup(
                    &self.topo,
                    &self.paths,
                    &self.tm,
                    &self.vol,
                    rules,
                    cap,
                    rates,
                )
            })
            .collect()
    }
}

/// Set-up of pass `pass`: the model and its five instances, built `reps`
/// times with each build's wall time pushed to `times`. Set-up takes well
/// under a millisecond, so one sample reflects the machine's speed at that
/// instant; sampling it in every pass spreads the samples over the run.
fn build(
    rules: usize,
    seed: u64,
    pass: usize,
    reps: usize,
    times: &mut Vec<f64>,
) -> Vec<NipsInstance> {
    let mut insts = Vec::new();
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        insts = Model::build().instances(rules, seed, pass);
        times.push(t.elapsed().as_secs_f64());
    }
    insts
}

/// One configuration solved: timings, row-generation counts, quality.
struct Solved {
    relax_s: f64,
    round_s: f64,
    lazy_rows: usize,
    rowgen_rounds: usize,
    opt_fraction: f64,
}

fn solve(inst: &NipsInstance, iterations: usize, seed: u64) -> Result<Solved, String> {
    let t0 = Instant::now();
    let relax =
        solve_relaxation(inst, &RowGenOpts::default()).map_err(|e| format!("relaxation: {e}"))?;
    let t1 = Instant::now();
    let opts = RoundingOpts {
        strategy: Strategy::GreedyLpResolve,
        iterations,
        seed,
        ..Default::default()
    };
    let sol = round_best_of(inst, &relax, &opts).map_err(|e| format!("rounding: {e}"))?;
    let t2 = Instant::now();
    checks::nips_solution(inst, relax.objective, &sol)?;
    Ok(Solved {
        relax_s: (t1 - t0).as_secs_f64(),
        round_s: (t2 - t1).as_secs_f64(),
        lazy_rows: relax.rowgen.0,
        rowgen_rounds: relax.rowgen.1,
        opt_fraction: sol.objective / relax.objective.max(1e-12),
    })
}

/// Solve every instance of one pass; `Err` entries are failed checks.
fn solve_pass(insts: &[NipsInstance], iterations: usize, seed: u64) -> Vec<Result<Solved, String>> {
    insts
        .iter()
        .enumerate()
        .map(|(ci, inst)| {
            solve(inst, iterations, seed.wrapping_mul(31).wrapping_add(ci as u64 + 1))
        })
        .collect()
}

pub fn run(opts: &Opts, rep: &mut Report) -> Result<(), String> {
    let (rules, iterations) = sizes(opts.size);
    rep.param("topology", "internet2");
    rep.param("rules", rules);
    rep.param("cap_fracs", "0.05,0.10,0.15,0.20,0.25");
    rep.param("match_rates", "U[0,0.01]");
    rep.param("rounding", format!("greedy+lp_resolve x{iterations}"));

    if opts.trace {
        let insts = build(rules, opts.seed, 0, 1, &mut Vec::new());
        return traced(opts, rep, &insts, iterations);
    }
    let mut setup = Vec::new();
    let mut pass_totals = Vec::new();
    let mut solve_s = 0.0;
    let mut solved = 0usize;
    let mut opt_min = f64::INFINITY;
    let mut failure: Option<String> = None;
    let passes = timed_passes(opts, 1, |i| {
        let insts = build(rules, opts.seed, i, 5, &mut setup);
        let mut total = 0.0;
        for r in solve_pass(&insts, iterations, opts.seed.wrapping_add(i as u64)) {
            match r {
                Ok(x) => {
                    total += x.relax_s + x.round_s;
                    solved += 1;
                    opt_min = opt_min.min(x.opt_fraction);
                }
                Err(e) => {
                    rep.failed += 1;
                    failure.get_or_insert(e);
                }
            }
        }
        solve_s += total;
        pass_totals.push(total);
        Ok(())
    })?;
    rep.attempted += (passes * CAP_FRACS.len()) as u64;
    rep.check(
        format!(
            "{} configurations: rounded solution feasible, objective recomputes, <= OptLP",
            passes * CAP_FRACS.len()
        ),
        failure.map_or(Ok(()), Err),
    );
    let rates: Vec<f64> = pass_totals.iter().map(|t| CAP_FRACS.len() as f64 / t).collect();
    let rate = solved as f64 / solve_s.max(1e-12);
    rep.metrics.push(Metric { name: "work_per_s", unit: "1/s", value: rate, samples: rates });
    rep.metrics.push(Metric::median_of("setup_s", "s", setup));
    rep.metrics.push(peak_rss_metric()?);
    let mean_total = solve_s / passes as f64;
    rep.extra.push(Metric {
        name: "nips_solve_s_total",
        unit: "s",
        value: mean_total,
        samples: pass_totals,
    });
    rep.extra.push(Metric::once("nips_opt_fraction_min", "ratio", opt_min));
    Ok(())
}

fn traced(
    opts: &Opts,
    rep: &mut Report,
    insts: &[NipsInstance],
    iterations: usize,
) -> Result<(), String> {
    let seed = opts.seed;
    let t = Instant::now();
    let plain = solve_pass(insts, iterations, seed);
    let plain_s = t.elapsed().as_secs_f64();

    obs::set_enabled(true);
    let before = LpCounters::read();
    let t = Instant::now();
    let traced = solve_pass(insts, iterations, seed);
    let traced_s = t.elapsed().as_secs_f64();
    let mut layers = Layers::default();
    before.since(&mut layers);
    obs::set_enabled(false);

    let mut failure: Option<String> = None;
    let (mut relax_s, mut round_s, mut lazy, mut rounds) = (0.0, 0.0, 0usize, 0usize);
    for r in plain.iter().chain(&traced) {
        if let Err(e) = r {
            rep.failed += 1;
            failure.get_or_insert(e.clone());
        }
    }
    for x in traced.iter().flatten() {
        relax_s += x.relax_s;
        round_s += x.round_s;
        lazy += x.lazy_rows;
        rounds += x.rowgen_rounds;
    }
    rep.attempted += (plain.len() + traced.len()) as u64;
    rep.check(
        "untraced and traced pass: rounded solutions feasible, <= OptLP",
        failure.map_or(Ok(()), Err),
    );
    layers.set("nips.relax_s", relax_s);
    layers.set("nips.lazy_rows", lazy as f64);
    layers.set("nips.rowgen_rounds", rounds as f64);
    layers.set("nips.round_s", round_s);
    layers.set("trace.overhead", traced_s / plain_s - 1.0);
    rep.param("untraced_pass_s", format!("{plain_s:.4}"));
    rep.param("traced_pass_s", format!("{traced_s:.4}"));
    layers.into_report(rep);
    Ok(())
}
