//! Seeded input generation: the data graph, query templates and the
//! mutation schedule. Every input is a pure function of the seed; the
//! server only ever sees the files written here and request lines.

use std::collections::BTreeSet;
use std::io::Write;
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};

use ceci_graph::generators::{inject_random_labels, kronecker_default};
use ceci_graph::{extract_query, io, Graph, LabelId, LabelSet, VertexId};
use ceci_query::{CanonicalQuery, QueryGraph};

/// SplitMix64: a small deterministic generator for every draw the
/// benchmark makes.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Shape of a labeled Kronecker (R-MAT) data graph.
#[derive(Clone, Copy, Debug)]
pub struct GraphSpec {
    /// `2^scale` vertices.
    pub scale: u32,
    /// Edge samples per vertex; duplicates are dropped.
    pub edge_factor: usize,
    /// Labels drawn uniformly, one per vertex.
    pub labels: u32,
}

/// Seed of every data graph. The labeled graph is fixed, like a dataset:
/// which labels land on the hubs of a skewed graph moves serving cost by a
/// quarter from one random graph to the next, more than the changes the
/// benchmark must detect. Request order, cold templates and mutations
/// come from the run's seed.
const GRAPH_SEED: u64 = 0xCEC1;

/// The labeled data graph of `spec`.
pub fn data_graph(spec: &GraphSpec) -> Graph {
    let plain = kronecker_default(
        spec.scale,
        spec.edge_factor,
        Rng::new(GRAPH_SEED, 1).next_u64(),
    );
    inject_random_labels(&plain, spec.labels, Rng::new(GRAPH_SEED, 2).next_u64())
}

/// Undirected edges of `g`, each once as `(low, high)`, in vertex order.
pub fn edges(g: &Graph) -> Vec<(VertexId, VertexId)> {
    g.vertices()
        .flat_map(|a| {
            g.neighbors(a)
                .iter()
                .filter(move |&&b| a < b)
                .map(move |&b| (a, b))
        })
        .collect()
}

/// Extracts up to `count` pairwise non-isomorphic connected templates with
/// `sizes` vertices from `graph`, keeping those `accept` admits. Templates
/// isomorphic to one already in `seen` are skipped, so they never share a
/// cache entry. Gives up after `count * 40` extractions.
pub fn templates(
    graph: &Graph,
    count: usize,
    sizes: RangeInclusive<usize>,
    rng: &mut Rng,
    seen: &mut BTreeSet<u64>,
    mut accept: impl FnMut(&Graph, &QueryGraph) -> bool,
) -> Vec<Graph> {
    let span = (sizes.end() - sizes.start() + 1) as u64;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count * 40 {
        if out.len() == count {
            break;
        }
        let size = sizes.start() + rng.below(span) as usize;
        let Some(extracted) = extract_query(graph, size, rng.next_u64(), 8) else {
            continue;
        };
        let Ok(query) = QueryGraph::from_graph(&extracted.pattern) else {
            continue;
        };
        let hash = CanonicalQuery::of(&query).hash();
        if seen.contains(&hash) || !accept(&extracted.pattern, &query) {
            continue;
        }
        seen.insert(hash);
        out.push(extracted.pattern);
    }
    out
}

/// `pattern` with vertex 0 relabeled to `label` — with a label the data
/// graph lacks, a template that provably has no embedding.
pub fn relabeled(pattern: &Graph, label: u32) -> Graph {
    let mut labels: Vec<LabelSet> = pattern
        .vertices()
        .map(|v| pattern.labels(v).clone())
        .collect();
    labels[0] = LabelSet::single(LabelId(label));
    Graph::new(labels, &edges(pattern), false)
}

/// Writes `g` in the labeled text format the server loads.
pub fn write_graph(g: &Graph, path: &Path) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    io::write_labeled(g, &mut w).map_err(|e| format!("{}: {e}", path.display()))?;
    w.flush().map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes every template as `<dir>/<prefix><i>.graph`.
pub fn write_templates(
    dir: &Path,
    prefix: &str,
    patterns: &[Graph],
) -> Result<Vec<PathBuf>, String> {
    patterns
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let path = dir.join(format!("{prefix}{i}.graph"));
            write_graph(p, &path).map(|_| path)
        })
        .collect()
}

/// One mutation batch: undirected edges as `(low, high)` vertex ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Batch {
    /// Edges absent before the batch.
    pub adds: Vec<(u32, u32)>,
    /// Edges present before the batch.
    pub dels: Vec<(u32, u32)>,
}

impl Batch {
    /// The `BATCH` request line for graph `name`.
    pub fn line(&self, name: &str) -> String {
        let mut line = format!("BATCH {name}");
        for (u, v) in &self.adds {
            line.push_str(&format!(" +{u}:{v}"));
        }
        for (u, v) in &self.dels {
            line.push_str(&format!(" -{u}:{v}"));
        }
        line
    }
}

/// Share of vertices, highest degree first, that mutations never touch.
const HUB_SHARE: f64 = 0.01;

/// `batches` batches of `adds` fresh edges and `dels` deletions of edges
/// present at that point, starting from `graph`. An edge deleted in a
/// batch is never re-added by the same batch. Mutations avoid the
/// [`HUB_SHARE`] highest-degree vertices: a batch touching a hub dirties
/// its thousand neighbours, and how many batches happened to do so moved a
/// run's repair cost by a quarter from seed to seed.
pub fn mutation_schedule(
    graph: &Graph,
    batches: usize,
    adds: usize,
    dels: usize,
    rng: &mut Rng,
) -> Vec<Batch> {
    let mut by_degree: Vec<u32> = graph.vertices().map(|v| v.0).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(VertexId(v))), v));
    let hubs = (by_degree.len() as f64 * HUB_SHARE).ceil() as usize;
    let mut quiet: Vec<u32> = by_degree.split_off(hubs);
    quiet.sort_unstable();
    let is_quiet = |v: u32| quiet.binary_search(&v).is_ok();
    let mut live: Vec<(u32, u32)> = edges(graph)
        .into_iter()
        .map(|(a, b)| (a.0, b.0))
        .filter(|&(a, b)| is_quiet(a) && is_quiet(b))
        .collect();
    let mut present: BTreeSet<(u32, u32)> =
        edges(graph).into_iter().map(|(a, b)| (a.0, b.0)).collect();
    (0..batches)
        .map(|_| {
            let mut batch = Batch::default();
            for _ in 0..dels.min(live.len()) {
                let e = live.swap_remove(rng.below(live.len() as u64) as usize);
                present.remove(&e);
                batch.dels.push(e);
            }
            let removed: BTreeSet<(u32, u32)> = batch.dels.iter().copied().collect();
            while batch.adds.len() < adds {
                let pick = |rng: &mut Rng| quiet[rng.below(quiet.len() as u64) as usize];
                let (a, b) = (pick(rng), pick(rng));
                let e = (a.min(b), a.max(b));
                if a != b && !removed.contains(&e) && present.insert(e) {
                    live.push(e);
                    batch.adds.push(e);
                }
            }
            batch
        })
        .collect()
}

/// Applies `batch` to an edge set in place.
pub fn apply(edges: &mut BTreeSet<(u32, u32)>, batch: &Batch) {
    for e in &batch.dels {
        edges.remove(e);
    }
    edges.extend(batch.adds.iter().copied());
}

/// Rebuilds `base`'s labels over `edges` — the oracle's view of a mutated
/// graph, built from scratch rather than through the overlay under test.
pub fn with_edges(base: &Graph, edges: &BTreeSet<(u32, u32)>) -> Graph {
    let labels: Vec<LabelSet> = base.vertices().map(|v| base.labels(v).clone()).collect();
    let list: Vec<(VertexId, VertexId)> = edges
        .iter()
        .map(|&(a, b)| (VertexId(a), VertexId(b)))
        .collect();
    Graph::new(labels, &list, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a small workload writes for `seed`, as (name, bytes).
    fn generate(dir: &Path, seed: u64) -> Vec<(String, Vec<u8>)> {
        std::fs::create_dir_all(dir).unwrap();
        let spec = GraphSpec {
            scale: 8,
            edge_factor: 8,
            labels: 4,
        };
        let g = data_graph(&spec);
        write_graph(&g, &dir.join("data.graph")).unwrap();
        let mut rng = Rng::new(seed, 3);
        let picked = templates(&g, 4, 4..=5, &mut rng, &mut BTreeSet::new(), |_, _| true);
        write_templates(dir, "q", &picked).unwrap();
        let lines: Vec<String> = mutation_schedule(&g, 3, 5, 2, &mut rng)
            .iter()
            .map(|b| b.line("g"))
            .collect();
        std::fs::write(dir.join("batches.txt"), lines.join("\n")).unwrap();
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        std::fs::remove_dir_all(dir).unwrap();
        files
    }

    #[test]
    fn same_seed_writes_byte_identical_inputs() {
        let base = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.servebench")
            .join(format!("test-gen-{}", std::process::id()));
        let a = generate(&base.join("a"), 7);
        let b = generate(&base.join("b"), 7);
        let c = generate(&base.join("c"), 8);
        assert_eq!(a.len(), 6, "graph, four templates and the schedule");
        assert_eq!(a, b);
        assert_ne!(a, c);
        let _ = std::fs::remove_dir_all(base);
    }

    #[test]
    fn schedule_adds_absent_edges_and_deletes_present_ones() {
        let g = data_graph(&GraphSpec {
            scale: 7,
            edge_factor: 4,
            labels: 3,
        });
        let mut set: BTreeSet<(u32, u32)> =
            edges(&g).into_iter().map(|(a, b)| (a.0, b.0)).collect();
        for batch in mutation_schedule(&g, 5, 10, 4, &mut Rng::new(1, 9)) {
            assert!(batch.dels.iter().all(|e| set.contains(e)));
            assert!(batch.adds.iter().all(|e| !set.contains(e) && e.0 < e.1));
            apply(&mut set, &batch);
        }
    }
}
