//! Dual simplex repair phase: a validated-but-primal-infeasible warm
//! basis that is still dual feasible must be repaired in place (counted
//! as a warm-start hit), not discarded for a cold re-solve.
//!
//! Row generation relies on the same phase: rows appended to an optimal
//! basis in violation are repaired by dual pivots, with no phase-1
//! artificials, unless the dual phase is switched off.
//!
//! The file also pins the warm-start accounting that the dual phase
//! reports through: the factorization of a restored basis counts as a
//! refactorization.
//!
//! The obs counters these tests assert are process-global, so every test
//! that reads them serializes on one mutex; the delta-based assertions
//! then see only their own solve.

use nwdp_lp::model::{Cmp, Problem, Sense};
use nwdp_lp::simplex::{solve_warm, SolverOpts, WarmStart};
use nwdp_lp::Status;
use nwdp_obs as obs;
use std::sync::Mutex;

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn ctr(name: &str) -> u64 {
    obs::snapshot()
        .iter()
        .find_map(|(n, v)| match v {
            obs::SnapshotValue::Counter(c) if n == name => Some(*c),
            _ => None,
        })
        .unwrap_or(0)
}

/// min x1 + x2  s.t.  x1 + x2 ≥ rhs, with `ub1` capping x1.
fn cover_lp(rhs: f64, ub1: f64) -> Problem {
    let mut p = Problem::new(Sense::Min);
    let x1 = p.add_var("x1", 0.0, ub1, 1.0);
    let x2 = p.add_var("x2", 0.0, 10.0, 1.0);
    p.add_con("cover", &[(x1, 1.0), (x2, 1.0)], Cmp::Ge, rhs);
    p
}

/// A hand-built basis that is dual feasible but primal infeasible for the
/// target problem: `{x1}` basic was optimal for `cover_lp(2.0, 10.0)`
/// (x1 = 2, x2 at lower, Ge-slack at its upper bound 0), but against
/// `cover_lp(5.0, 3.0)` it puts x1 = 5 > 3. The costs are unchanged, so
/// the reduced costs keep their signs — exactly the case the dual phase
/// repairs with one pivot (x2 enters, x1 leaves to its upper bound).
fn stale_optimal_basis() -> WarmStart {
    WarmStart::from_parts(2, 1, vec![3, 0, 1], vec![2.0, 0.0, 0.0])
}

#[test]
fn dual_feasible_primal_infeasible_basis_repaired_without_fallback() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let was = obs::enabled();
    obs::set_enabled(true);

    let p = cover_lp(5.0, 3.0);
    let cold = solve_warm(&p, &SolverOpts::default(), None).0;
    assert_eq!(cold.status, Status::Optimal);

    let hits0 = ctr("simplex.warmstart_hits");
    let falls0 = ctr("simplex.warmstart_fallbacks");
    let runs0 = ctr("simplex.dual_phase_runs");
    let repairs0 = ctr("simplex.dual_repairs");
    let pivots0 = ctr("simplex.dual_pivots");

    let warm = stale_optimal_basis();
    let (sol, snap) = solve_warm(&p, &SolverOpts::default(), Some(&warm));
    obs::set_enabled(was);

    assert_eq!(sol.status, Status::Optimal);
    assert!(
        (sol.objective - cold.objective).abs() <= 1e-9 * (1.0 + cold.objective.abs()),
        "repaired warm solve diverged: {} vs cold {}",
        sol.objective,
        cold.objective
    );
    assert!(snap.is_some(), "optimal solve must produce a snapshot");
    assert_eq!(ctr("simplex.warmstart_hits") - hits0, 1, "repair must count as a hit");
    assert_eq!(ctr("simplex.warmstart_fallbacks") - falls0, 0, "no cold fallback");
    assert_eq!(ctr("simplex.dual_phase_runs") - runs0, 1);
    assert_eq!(ctr("simplex.dual_repairs") - repairs0, 1);
    assert!(ctr("simplex.dual_pivots") - pivots0 >= 1, "repair must pivot");
}

#[test]
fn dual_phase_can_be_disabled_per_solve() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let was = obs::enabled();
    obs::set_enabled(true);

    let p = cover_lp(5.0, 3.0);
    let hits0 = ctr("simplex.warmstart_hits");
    let falls0 = ctr("simplex.warmstart_fallbacks");
    let rej0 = ctr("simplex.warmstart_rejected");

    let opts = SolverOpts { dual_phase: false, ..Default::default() };
    let (sol, _) = solve_warm(&p, &opts, Some(&stale_optimal_basis()));
    obs::set_enabled(was);

    // Same answer, but via the old reject-and-restart path.
    assert_eq!(sol.status, Status::Optimal);
    assert_eq!(ctr("simplex.warmstart_hits") - hits0, 0);
    assert_eq!(ctr("simplex.warmstart_fallbacks") - falls0, 1);
    assert_eq!(ctr("simplex.warmstart_rejected") - rej0, 1);
}

#[test]
fn dimension_mismatch_attributed_as_rejected() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let was = obs::enabled();
    obs::set_enabled(true);

    let p = cover_lp(5.0, 3.0);
    let falls0 = ctr("simplex.warmstart_fallbacks");
    let rej0 = ctr("simplex.warmstart_rejected");
    let sing0 = ctr("simplex.warmstart_singular");

    // Snapshot for a 3-variable problem against a 2-variable one.
    let wrong = WarmStart::from_parts(3, 1, vec![3, 0, 0, 1], vec![2.0, 0.0, 0.0, 0.0]);
    let (sol, _) = solve_warm(&p, &SolverOpts::default(), Some(&wrong));
    obs::set_enabled(was);

    assert_eq!(sol.status, Status::Optimal, "cold retry still solves");
    assert_eq!(ctr("simplex.warmstart_fallbacks") - falls0, 1);
    assert_eq!(ctr("simplex.warmstart_rejected") - rej0, 1);
    assert_eq!(ctr("simplex.warmstart_singular") - sing0, 0);
    // Invariant: the legacy counter stays the sum of the cause split.
    assert_eq!(
        ctr("simplex.warmstart_fallbacks"),
        ctr("simplex.warmstart_rejected") + ctr("simplex.warmstart_singular"),
    );
}

#[test]
fn warm_start_factorization_counts_as_refactorization() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let was = obs::enabled();
    obs::set_enabled(true);

    // A cold solve of this two-variable LP starts from the slack basis and
    // never refactorizes; restarting from its own optimum factorizes the
    // restored basis exactly once.
    let p = cover_lp(2.0, 10.0);
    let refac0 = ctr("simplex.refactorizations");
    let (cold, snap) = solve_warm(&p, &SolverOpts::default(), None);
    let refac1 = ctr("simplex.refactorizations");
    let hits0 = ctr("simplex.warmstart_hits");
    let (warm, _) = solve_warm(&p, &SolverOpts::default(), snap.as_ref());
    let refac2 = ctr("simplex.refactorizations");
    obs::set_enabled(was);

    assert_eq!(cold.status, Status::Optimal);
    assert_eq!(warm.status, Status::Optimal);
    assert_eq!(ctr("simplex.warmstart_hits") - hits0, 1, "restart must be a warm hit");
    assert_eq!(refac1 - refac0, 0, "cold solve from the slack basis");
    assert_eq!(refac2 - refac1, 1, "warm solve factorizes its basis once");
}

/// `max Σ xⱼ` over ten `[0, 1]` columns; with `cuts`, also the ten cycle
/// rows `xₐ + xₐ₊₁ ≤ 1`, every one of which the all-ones optimum of the
/// plain problem violates (optimum 5 with them).
fn cycle_lp(cuts: bool) -> Problem {
    let mut p = Problem::new(Sense::Max);
    let x: Vec<_> = (0..10).map(|j| p.add_var(format!("x{j}"), 0.0, 1.0, 1.0)).collect();
    if cuts {
        for a in 0..10 {
            p.add_con(format!("cut{a}"), &[(x[a], 1.0), (x[(a + 1) % 10], 1.0)], Cmp::Le, 1.0);
        }
    }
    p
}

/// Warm-start `cycle_lp(true)` from the optimum of `cycle_lp(false)` under
/// `opts`; returns the solution and the deltas of `counters`.
fn solve_with_appended_cuts(opts: &SolverOpts, counters: &[&str]) -> (f64, Vec<u64>) {
    let (_, snap) = solve_warm(&cycle_lp(false), opts, None);
    let before: Vec<u64> = counters.iter().map(|c| ctr(c)).collect();
    let (sol, _) = solve_warm(&cycle_lp(true), opts, snap.as_ref());
    assert_eq!(sol.status, Status::Optimal);
    let deltas = counters.iter().zip(&before).map(|(c, b)| ctr(c) - b).collect();
    (sol.objective, deltas)
}

const CUT_COUNTERS: [&str; 5] = [
    "simplex.phase1_iterations",
    "simplex.dual_phase_runs",
    "simplex.dual_repairs",
    "simplex.warmstart_hits",
    "simplex.warmstart_fallbacks",
];

#[test]
fn appended_violated_rows_repaired_by_dual_pivots() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let was = obs::enabled();
    obs::set_enabled(true);
    let cold = solve_warm(&cycle_lp(true), &SolverOpts::default(), None).0;
    let pivots0 = ctr("simplex.dual_pivots");
    let (obj, d) = solve_with_appended_cuts(&SolverOpts::default(), &CUT_COUNTERS);
    let pivots = ctr("simplex.dual_pivots") - pivots0;
    obs::set_enabled(was);

    assert!((obj - cold.objective).abs() <= 1e-9 * (1.0 + cold.objective.abs()), "{obj}");
    assert!((obj - 5.0).abs() < 1e-9, "the 10-cycle packs 5: {obj}");
    assert_eq!(d[0], 0, "no phase-1 pivots: the new rows' slacks start basic");
    assert_eq!(d[1], 1, "one dual phase");
    assert_eq!(d[2], 1, "it repairs the appended rows");
    assert_eq!(d[3], 1, "a warm hit");
    assert_eq!(d[4], 0, "no cold fallback");
    assert!(pivots > 0, "the repair pivots");
}

#[test]
fn appended_rows_take_the_artificial_path_without_dual_phase() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let was = obs::enabled();
    obs::set_enabled(true);
    let opts = SolverOpts { dual_phase: false, ..Default::default() };
    let cold = solve_warm(&cycle_lp(true), &opts, None).0;
    let (obj, d) = solve_with_appended_cuts(&opts, &CUT_COUNTERS);
    obs::set_enabled(was);

    assert!((obj - cold.objective).abs() <= 1e-9 * (1.0 + cold.objective.abs()), "{obj}");
    assert!(d[0] > 0, "violated appended rows get phase-1 artificials");
    assert_eq!(d[1], 0, "no dual phase");
    assert_eq!(d[3], 1, "still a warm hit");
    assert_eq!(d[4], 0, "no cold fallback");
}
