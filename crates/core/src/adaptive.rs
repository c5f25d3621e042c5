//! Cost-model-driven adaptive planning (ROADMAP item 4).
//!
//! Closes the loop estimator → planner → runtime → profile feedback:
//!
//! 1. **Plan selection** — [`plan_adaptive`] generates a small portfolio of
//!    candidate plans (the paper's BFS default plus the ranked greedy orders
//!    over the 2–3 best roots), scores each with a random-walk budget over
//!    a *pilot* index ([`Ceci::build_for_pivots`] on a sampled pivot
//!    subset), and picks the order with the smallest estimated
//!    intermediate-result volume. The pivot sample only shrinks the pilot
//!    when the root has more than [`AdaptiveOptions::max_pilot_pivots`]
//!    candidates. Below that every pilot is a full build, so scoring a
//!    portfolio of `k` distinct orders costs about `k` full builds plus the
//!    walks. The candidate sets and symmetry constraints are computed once
//!    per portfolio, not once per member.
//! 2. **Strategy + worker choice** — [`choose_execution`] maps the winning
//!    estimate's volume, pivot population, and per-depth branch factors to
//!    ST / CGD / FGD and a worker count.
//! 3. **Kernel pinning** — [`kernels_from_profile`] converts an observed
//!    [`DepthProfile`] from a prior execution of the same canonical query
//!    into per-depth intersection-kernel pins, replacing global adaptive
//!    dispatch once real behavior is known.
//! 4. **Deadline admission** — [`admit`] predicts feasibility against a
//!    deadline and answers exact, approximate, or infeasible.
//!
//! Only the *order* choice affects the enumeration; every candidate order
//! satisfies the parent-precedes-child invariant, so exact counts are
//! identical (bit-for-bit) across all portfolio members. Mis-estimates can
//! only cost time, never correctness.

use std::time::{Duration, Instant};

use ceci_graph::{Graph, VertexId};
use ceci_query::root::select_root;
use ceci_query::{OrderStrategy, PlanInputs, PlanOptions, QueryGraph, QueryPlan};
use ceci_trace::DepthProfile;

use crate::estimate::{estimate_cost, CostEstimate, EstimateOptions};
use crate::index::{BuildOptions, Ceci};
use crate::intersect::Kernel;
use crate::parallel::Strategy;

/// Knobs for the adaptive planner.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveOptions {
    /// Random-walk budget per candidate plan.
    pub walks: u64,
    /// RNG seed — plan choice is deterministic per seed.
    pub seed: u64,
    /// Pivot-sample cap per pilot build. The pilot index is built from every
    /// k-th root candidate so that at most this many pivots survive into
    /// scoring; estimates are scaled back by the sampling ratio. A root with
    /// at most this many candidates is not sampled: its pilot is a full
    /// build.
    pub max_pilot_pivots: usize,
    /// Number of distinct root choices to include in the portfolio (the
    /// best-scoring roots by the paper's `|candidates| / degree` rule).
    pub roots: usize,
    /// Upper bound on the worker count the planner may recommend (the
    /// server's per-request clamp).
    pub max_workers: usize,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            walks: 64,
            seed: 0xADA7,
            max_pilot_pivots: 64,
            roots: 3,
            max_workers: 1,
        }
    }
}

/// One scored member of the plan portfolio, kept for EXPLAIN.
#[derive(Clone, Debug)]
pub struct CandidatePlan {
    /// Order strategy this candidate used.
    pub strategy: OrderStrategy,
    /// Root vertex this candidate used.
    pub root: VertexId,
    /// The resulting matching order.
    pub order: Vec<VertexId>,
    /// Estimated total intermediate-result volume (scaled to the full pivot
    /// population) — the deadline-admission cost unit.
    pub volume: f64,
    /// Estimated enumeration work (intersection comparisons plus one unit
    /// per intermediate result); the planner minimizes this.
    pub work: f64,
    /// Whether this candidate won.
    pub chosen: bool,
}

/// The planner's full decision record: the winning plan's cost estimate plus
/// everything EXPLAIN needs to show why it won.
#[derive(Clone, Debug)]
pub struct PlanChoice {
    /// All scored candidates (deduplicated by matching order).
    pub candidates: Vec<CandidatePlan>,
    /// Cost estimate of the winning plan, scaled to the full pivot
    /// population.
    pub cost: CostEstimate,
    /// Recommended parallel strategy.
    pub strategy: Strategy,
    /// Recommended worker count (already clamped to
    /// [`AdaptiveOptions::max_workers`]).
    pub workers: usize,
    /// Per-depth intersection-kernel pins. All-[`Kernel::Adaptive`] until an
    /// observed profile refines them via [`kernels_from_profile`].
    pub depth_kernels: Vec<Kernel>,
    /// Wall time spent scoring the portfolio.
    pub score_time: Duration,
    /// `true` when the winning order differs from the paper-default plan
    /// (best root, BFS order) — i.e. the cost model actually changed the
    /// plan.
    pub replanned: bool,
}

impl PlanChoice {
    /// Predicted sequential execution time of the winning plan.
    pub fn predicted(&self) -> Duration {
        predicted_time(self.cost.volume(), DEFAULT_NS_PER_UNIT)
    }
}

/// Default modeled cost of producing one partial embedding (intersection,
/// injectivity and symmetry checks, bookkeeping), in nanoseconds. Refined
/// per query by [`ns_per_unit_from_profile`] once a profiled execution
/// exists.
pub const DEFAULT_NS_PER_UNIT: f64 = 150.0;

/// Predicted sequential enumeration time for an estimated intermediate
/// volume at a modeled per-unit cost.
pub fn predicted_time(volume: f64, ns_per_unit: f64) -> Duration {
    Duration::from_nanos((volume.max(0.0) * ns_per_unit.max(0.0)) as u64)
}

/// Observed per-unit cost from a prior profiled execution: sampled time over
/// candidates produced. `None` when the profile saw too little work to be
/// meaningful.
pub fn ns_per_unit_from_profile(profile: &DepthProfile) -> Option<f64> {
    let units = profile.total_candidates();
    let time = profile.total_time_ns();
    if units < 1_000 || time == 0 {
        return None;
    }
    Some(time as f64 / units as f64)
}

/// Builds a plan honoring `options.order`: [`OrderStrategy::Adaptive`] runs
/// the portfolio planner and returns its decision record; any other
/// strategy delegates to [`QueryPlan::with_options`] with no choice record.
pub fn plan_with_options(
    query: QueryGraph,
    graph: &Graph,
    plan_options: &PlanOptions,
    adaptive: &AdaptiveOptions,
) -> (QueryPlan, Option<PlanChoice>) {
    if plan_options.order == OrderStrategy::Adaptive && plan_options.root_override.is_none() {
        let (plan, choice) = plan_adaptive(query, graph, adaptive);
        (plan, Some(choice))
    } else {
        (QueryPlan::with_options(query, graph, plan_options), None)
    }
}

/// Runs the portfolio planner: scores BFS plus the ranked greedy orders over
/// the best `options.roots` roots and returns the plan minimizing estimated
/// enumeration work ([`CostEstimate::work`] — intersection comparisons plus
/// intermediate-result volume), together with the full decision record.
pub fn plan_adaptive(
    query: QueryGraph,
    graph: &Graph,
    options: &AdaptiveOptions,
) -> (QueryPlan, PlanChoice) {
    let started = Instant::now();
    // Candidate sets and symmetry constraints depend on neither root nor
    // order: compute them once for the whole portfolio.
    let inputs = PlanInputs::compute(&query, graph, &PlanOptions::default());
    let root_choice = select_root(&query, &inputs.candidates);

    // Rank roots by the paper's score, best first; the default root leads so
    // cost ties resolve toward the paper-default plan.
    let mut ranked: Vec<VertexId> = query.vertices().collect();
    ranked.sort_by(|&a, &b| {
        root_choice.scores[a.index()]
            .partial_cmp(&root_choice.scores[b.index()])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let roots: Vec<VertexId> = ranked.into_iter().take(options.roots.max(1)).collect();

    const STRATEGIES: [OrderStrategy; 3] = [
        OrderStrategy::Bfs,
        OrderStrategy::EdgeRank,
        OrderStrategy::PathRank,
    ];

    let mut plans: Vec<(OrderStrategy, QueryPlan)> = Vec::new();
    for &root in &roots {
        for strategy in STRATEGIES {
            let plan = QueryPlan::with_inputs(
                query.clone(),
                inputs.clone(),
                &PlanOptions {
                    order: strategy,
                    root_override: Some(root),
                    ..PlanOptions::default()
                },
            );
            // Identical matching orders cost the same; keep the first
            // (earliest root rank, BFS before greedy).
            if !plans
                .iter()
                .any(|(_, p)| p.matching_order() == plan.matching_order())
            {
                plans.push((strategy, plan));
            }
        }
    }

    let mut scored: Vec<(CostEstimate, CandidatePlan)> = Vec::with_capacity(plans.len());
    for (strategy, plan) in &plans {
        let cost = pilot_cost(graph, plan, options);
        scored.push((
            cost.clone(),
            CandidatePlan {
                strategy: *strategy,
                root: plan.root(),
                order: plan.matching_order().to_vec(),
                volume: cost.volume(),
                work: cost.work(),
                chosen: false,
            },
        ));
    }

    // Argmin by estimated work; stable ties toward the earlier candidate
    // (the paper-default plan is index 0).
    let mut winner = 0usize;
    for (i, (cost, _)) in scored.iter().enumerate() {
        if cost.work() < scored[winner].0.work() {
            winner = i;
        }
    }
    let (cost, _) = scored[winner].clone();
    let mut candidates: Vec<CandidatePlan> = scored.into_iter().map(|(_, c)| c).collect();
    candidates[winner].chosen = true;
    let replanned = winner != 0;
    let (strategy, workers) = choose_execution(&cost, options.max_workers);
    let depths = query.num_vertices();

    let plan = plans.swap_remove(winner).1;
    let choice = PlanChoice {
        candidates,
        cost,
        strategy,
        workers,
        depth_kernels: vec![Kernel::Adaptive; depths],
        score_time: started.elapsed(),
        replanned,
    };
    (plan, choice)
}

/// Scores one candidate plan: builds a pilot index from a deterministic
/// sample of the plan's root candidates, runs the walk budget over it, and
/// scales the resulting cost back to the full pivot population.
fn pilot_cost(graph: &Graph, plan: &QueryPlan, options: &AdaptiveOptions) -> CostEstimate {
    let all = plan.initial_candidates(plan.root());
    let cap = options.max_pilot_pivots.max(1);
    let stride = all.len().div_ceil(cap).max(1);
    let sampled: Vec<VertexId> = all.iter().copied().step_by(stride).collect();
    let scale = if sampled.is_empty() {
        1.0
    } else {
        all.len() as f64 / sampled.len() as f64
    };
    let pilot = Ceci::build_for_pivots(graph, plan, BuildOptions::default(), sampled);
    let cost = estimate_cost(
        graph,
        plan,
        &pilot,
        &EstimateOptions {
            walks: options.walks,
            seed: options.seed,
        },
    );
    cost.scaled(scale)
}

/// Maps a cost estimate to a parallel strategy and worker count.
///
/// Volume thresholds are deliberately coarse: below ~100k modeled units a
/// second worker costs more in distribution than it saves, and the paper's
/// §6.3 result (FGD ≥ CGD ≥ ST under skew) decides the strategy once
/// parallelism pays. Skew is read from the per-depth branch factors: a
/// branch factor ≫ the mean at any depth means cluster workloads are
/// unbalanced and static assignment will straggle.
pub fn choose_execution(cost: &CostEstimate, max_workers: usize) -> (Strategy, usize) {
    let max_workers = max_workers.max(1);
    let volume = cost.volume();
    const UNITS_PER_WORKER: f64 = 100_000.0;
    let workers = if volume <= UNITS_PER_WORKER {
        1
    } else {
        ((volume / UNITS_PER_WORKER).ceil() as usize).min(max_workers)
    };
    if workers == 1 {
        return (Strategy::Static, 1);
    }
    let pivots = cost.depth_volumes.first().copied().unwrap_or(0.0);
    let factors = cost.branch_factors();
    let mean_bf = if factors.is_empty() {
        0.0
    } else {
        factors.iter().sum::<f64>() / factors.len() as f64
    };
    let max_bf = factors.iter().cloned().fold(0.0f64, f64::max);
    let skewed = max_bf > 4.0 * mean_bf.max(1.0);
    // Few clusters per worker, or skewed fan-out → decompose (FGD). A deep
    // pool of similar clusters → pull-based CGD is enough.
    if skewed || pivots < 4.0 * workers as f64 {
        (Strategy::FineDynamic { beta: 0.2 }, workers)
    } else {
        (Strategy::CoarseDynamic, workers)
    }
}

/// Pins an intersection kernel per depth from an observed [`DepthProfile`].
///
/// The signal is element operations per produced candidate: high (≫ 8)
/// means skewed list pairs where galloping's binary probes win; very low
/// (≤ 2) means dense overlap where the SIMD block scan streams; the middle
/// is the branchless merge's home turf. Depths the profile never reached
/// keep [`Kernel::Adaptive`].
pub fn kernels_from_profile(profile: &DepthProfile) -> Vec<Kernel> {
    profile
        .depths()
        .iter()
        .map(|s| {
            if s.calls == 0 || s.intersections == 0 {
                Kernel::Adaptive
            } else {
                let per_unit = s.intersections as f64 / s.candidates.max(1) as f64;
                if per_unit > 8.0 {
                    Kernel::Gallop
                } else if per_unit <= 2.0 {
                    Kernel::Simd
                } else {
                    Kernel::BranchlessMerge
                }
            }
        })
        .collect()
}

/// Deadline-admission verdict for a `MATCH … DEADLINE` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Predicted to finish within the deadline: run exact enumeration.
    Exact,
    /// Exact enumeration predicted to blow the deadline, but the estimate is
    /// trustworthy enough to answer approximately.
    Approx,
    /// Exact is infeasible *and* the estimate's relative error is too large
    /// to stand behind: reject.
    Infeasible,
}

/// Predicts feasibility of exact enumeration against `deadline`.
///
/// `ns_per_unit` is the modeled cost per intermediate-result unit —
/// [`DEFAULT_NS_PER_UNIT`] absent feedback, or the observed value from
/// [`ns_per_unit_from_profile`]. The prediction assumes the recommended
/// worker parallelism is already folded into `workers`.
pub fn admit(
    cost: &CostEstimate,
    deadline: Duration,
    ns_per_unit: f64,
    workers: usize,
) -> Admission {
    if cost.estimate.exact_zero {
        return Admission::Exact;
    }
    let predicted = predicted_time(cost.volume() / workers.max(1) as f64, ns_per_unit);
    if predicted <= deadline {
        return Admission::Exact;
    }
    // Exact won't fit. An estimate whose noise exceeds its signal is not an
    // answer we can stand behind.
    let rel_err = cost.estimate.std_error / cost.estimate.mean.max(1.0);
    if rel_err <= 1.0 {
        Admission::Approx
    } else {
        Admission::Infeasible
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::count_embeddings;
    use crate::fixtures::paper;
    use ceci_graph::generators::kronecker_default;
    use ceci_query::{is_valid_order, PaperQuery};

    #[test]
    fn adaptive_plan_counts_match_bfs() {
        let graph = kronecker_default(9, 5, 42);
        for pq in [PaperQuery::Qg1, PaperQuery::Qg3, PaperQuery::Qg5] {
            let bfs_plan = QueryPlan::new(pq.build(), &graph);
            let bfs_ceci = Ceci::build(&graph, &bfs_plan);
            let exact = count_embeddings(&graph, &bfs_plan, &bfs_ceci);

            let (plan, choice) = plan_adaptive(pq.build(), &graph, &AdaptiveOptions::default());
            assert!(is_valid_order(plan.tree(), plan.matching_order()));
            let ceci = Ceci::build(&graph, &plan);
            let adaptive = count_embeddings(&graph, &plan, &ceci);
            assert_eq!(adaptive, exact, "{pq:?}: adaptive order changed the count");
            assert!(choice.candidates.iter().filter(|c| c.chosen).count() == 1);
        }
    }

    #[test]
    fn plan_with_options_respects_fixed_strategies() {
        let (graph, plan0) = paper::figure1();
        let query = plan0.query().clone();
        let (plan, choice) = plan_with_options(
            query.clone(),
            &graph,
            &PlanOptions::default(),
            &AdaptiveOptions::default(),
        );
        assert!(choice.is_none());
        let default_plan = QueryPlan::new(query.clone(), &graph);
        assert_eq!(plan.matching_order(), default_plan.matching_order());

        let (_, choice) = plan_with_options(
            query,
            &graph,
            &PlanOptions {
                order: OrderStrategy::Adaptive,
                ..PlanOptions::default()
            },
            &AdaptiveOptions::default(),
        );
        assert!(choice.is_some());
    }

    #[test]
    fn choice_is_deterministic() {
        let graph = kronecker_default(8, 5, 7);
        let opts = AdaptiveOptions::default();
        let (a, ca) = plan_adaptive(PaperQuery::Qg2.build(), &graph, &opts);
        let (b, cb) = plan_adaptive(PaperQuery::Qg2.build(), &graph, &opts);
        assert_eq!(a.matching_order(), b.matching_order());
        assert_eq!(ca.cost.volume(), cb.cost.volume());
        assert_eq!(ca.workers, cb.workers);
    }

    #[test]
    fn portfolio_dedups_identical_orders() {
        let (graph, plan0) = paper::figure1();
        let (_, choice) = plan_adaptive(plan0.query().clone(), &graph, &AdaptiveOptions::default());
        for (i, a) in choice.candidates.iter().enumerate() {
            for b in &choice.candidates[i + 1..] {
                assert_ne!(a.order, b.order, "duplicate orders survived dedup");
            }
        }
    }

    #[test]
    fn execution_choice_scales_with_volume() {
        let small = CostEstimate {
            estimate: crate::estimate::Estimate {
                mean: 10.0,
                std_error: 1.0,
                walks: 64,
                exact_zero: false,
            },
            depth_volumes: vec![5.0, 10.0],
            depth_work: vec![5.0, 10.0],
        };
        assert_eq!(choose_execution(&small, 8), (Strategy::Static, 1));

        let big = CostEstimate {
            estimate: crate::estimate::Estimate {
                mean: 1e7,
                std_error: 1e5,
                walks: 64,
                exact_zero: false,
            },
            depth_volumes: vec![1000.0, 1e6, 1e7],
            depth_work: vec![1000.0, 1e6, 1e7],
        };
        let (strategy, workers) = choose_execution(&big, 8);
        assert!(workers > 1);
        assert!(matches!(
            strategy,
            Strategy::CoarseDynamic | Strategy::FineDynamic { .. }
        ));
        // Skewed fan-out forces decomposition.
        let skewed = CostEstimate {
            depth_volumes: vec![2.0, 1e6, 1e7],
            ..big
        };
        let (strategy, _) = choose_execution(&skewed, 8);
        assert!(matches!(strategy, Strategy::FineDynamic { .. }));
    }

    #[test]
    fn admission_ladder() {
        let cheap = CostEstimate {
            estimate: crate::estimate::Estimate {
                mean: 100.0,
                std_error: 10.0,
                walks: 64,
                exact_zero: false,
            },
            depth_volumes: vec![10.0, 100.0],
            depth_work: vec![10.0, 100.0],
        };
        assert_eq!(
            admit(&cheap, Duration::from_secs(1), DEFAULT_NS_PER_UNIT, 1),
            Admission::Exact
        );
        let huge = CostEstimate {
            estimate: crate::estimate::Estimate {
                mean: 1e12,
                std_error: 1e11,
                walks: 64,
                exact_zero: false,
            },
            depth_volumes: vec![1e6, 1e12],
            depth_work: vec![1e6, 1e12],
        };
        assert_eq!(
            admit(&huge, Duration::from_millis(10), DEFAULT_NS_PER_UNIT, 1),
            Admission::Approx
        );
        let noisy = CostEstimate {
            estimate: crate::estimate::Estimate {
                mean: 1e6,
                std_error: 1e9,
                walks: 64,
                exact_zero: false,
            },
            depth_volumes: vec![1e6, 1e12],
            depth_work: vec![1e6, 1e12],
        };
        assert_eq!(
            admit(&noisy, Duration::from_millis(10), DEFAULT_NS_PER_UNIT, 1),
            Admission::Infeasible
        );
        let zero = CostEstimate {
            estimate: crate::estimate::Estimate {
                mean: 0.0,
                std_error: 0.0,
                walks: 0,
                exact_zero: true,
            },
            depth_volumes: vec![0.0, 0.0],
            depth_work: vec![0.0, 0.0],
        };
        assert_eq!(
            admit(&zero, Duration::from_millis(1), DEFAULT_NS_PER_UNIT, 1),
            Admission::Exact
        );
    }

    #[test]
    fn kernel_pins_follow_profile_shape() {
        let mut profile = DepthProfile::new(3);
        // Depth 0: heavy probing per produced candidate → Gallop.
        profile.on_call(0);
        profile.on_expand(0, 10, 1000);
        // Depth 1: dense overlap → Simd.
        profile.on_call(1);
        profile.on_expand(1, 100, 150);
        // Depth 2: untouched → Adaptive.
        let pins = kernels_from_profile(&profile);
        assert_eq!(pins, vec![Kernel::Gallop, Kernel::Simd, Kernel::Adaptive]);
    }

    #[test]
    fn ns_per_unit_needs_enough_signal() {
        let mut profile = DepthProfile::with_stride(2, 0);
        profile.on_call(0);
        profile.on_expand(0, 10, 10);
        assert!(ns_per_unit_from_profile(&profile).is_none());
        for _ in 0..200 {
            profile.on_call(0);
            profile.on_expand(0, 10, 10);
        }
        // 2000+ candidates and sampled time on every call → a real estimate.
        let got = ns_per_unit_from_profile(&profile);
        assert!(got.is_some());
        assert!(got.unwrap() >= 0.0);
    }
}
