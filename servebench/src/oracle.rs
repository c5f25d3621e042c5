//! The correctness oracle: the library's fixed-plan path, run outside the
//! timed window.

use ceci_core::{enumerate_sequential, Ceci, CountSink, EnumOptions};
use ceci_graph::{Graph, VertexId};
use ceci_query::{QueryGraph, QueryPlan};

/// Embeddings of `query` in `graph` by `QueryPlan::new` + `Ceci::build` +
/// sequential counting, stopping at `limit` when given (so the result is
/// `min(limit, count)`).
pub fn count(graph: &Graph, query: &QueryGraph, limit: Option<u64>) -> u64 {
    let plan = QueryPlan::new(query.clone(), graph);
    let ceci = Ceci::build(graph, &plan);
    let mut sink = limit.map_or_else(CountSink::unbounded, CountSink::with_limit);
    enumerate_sequential(graph, &plan, &ceci, EnumOptions::default(), &mut sink);
    sink.count()
}

/// [`count`] for many queries on two threads, in input order.
pub fn count_all(graph: &Graph, queries: &[&QueryGraph], limit: Option<u64>) -> Vec<u64> {
    let half = queries.len().div_ceil(2);
    let (a, b) = queries.split_at(half);
    std::thread::scope(|s| {
        let h = s.spawn(|| b.iter().map(|q| count(graph, q, limit)).collect::<Vec<_>>());
        let mut out: Vec<u64> = a.iter().map(|q| count(graph, q, limit)).collect();
        out.extend(h.join().expect("oracle thread panicked"));
        out
    })
}

/// Partial embeddings of `pattern` in `graph` with fewer than all its
/// vertices placed, along a greedy order (fewest label-and-degree
/// candidates first, then the vertex most connected to those placed),
/// stopping at `cap`. A small backtracking search owned by the benchmark,
/// so the estimate of a template's enumeration work does not shift when
/// the engine under test changes.
pub fn search_space(graph: &Graph, pattern: &Graph, cap: u64) -> u64 {
    let n = pattern.num_vertices();
    let label = |g: &Graph, v: VertexId| g.labels(v).primary();
    let fits = |u: VertexId, v: VertexId| {
        label(graph, v) == label(pattern, u) && graph.degree(v) >= pattern.degree(u)
    };
    let candidates = |u: VertexId| {
        graph
            .vertices_with_label(label(pattern, u))
            .iter()
            .filter(|&&v| fits(u, v))
            .count()
    };
    let mut order: Vec<VertexId> = Vec::with_capacity(n);
    let first = pattern
        .vertices()
        .min_by_key(|&u| candidates(u))
        .expect("templates are non-empty");
    order.push(first);
    while order.len() < n {
        let next = pattern
            .vertices()
            .filter(|u| !order.contains(u))
            .max_by_key(|&u| {
                let linked = order.iter().filter(|&&p| pattern.has_edge(p, u)).count();
                (linked, usize::MAX - candidates(u))
            })
            .expect("an unplaced vertex remains");
        order.push(next);
    }
    let mut image: Vec<VertexId> = Vec::with_capacity(n);
    let mut total = 0u64;
    for &v in graph.vertices_with_label(label(pattern, first)) {
        if fits(first, v) {
            image.push(v);
            extend(graph, pattern, &order, &mut image, &fits, cap, &mut total);
            image.pop();
        }
        if total >= cap {
            break;
        }
    }
    total.min(cap)
}

fn extend(
    graph: &Graph,
    pattern: &Graph,
    order: &[VertexId],
    image: &mut Vec<VertexId>,
    fits: &dyn Fn(VertexId, VertexId) -> bool,
    cap: u64,
    total: &mut u64,
) {
    let k = image.len();
    if k == order.len() || *total >= cap {
        return;
    }
    *total += 1;
    let u = order[k];
    let placed = |i: usize| pattern.has_edge(order[i], u);
    let anchor = (0..k)
        .find(|&i| placed(i))
        .expect("greedy order keeps every prefix connected");
    for &v in graph.neighbors(image[anchor]) {
        if fits(u, v)
            && !image.contains(&v)
            && (0..k).all(|i| !placed(i) || graph.has_edge(image[i], v))
        {
            image.push(v);
            extend(graph, pattern, order, image, fits, cap, total);
            image.pop();
        }
    }
}
