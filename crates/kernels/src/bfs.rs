//! Level-synchronous breadth-first search over a random graph.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{IterativeKernel, KernelMetrics, KernelSignature};

/// Configuration for the [`Bfs`] kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BfsConfig {
    /// Number of vertices in the generated graph.
    pub vertices: usize,
    /// Average out-degree.
    pub degree: usize,
    /// Frontier chunk size: vertices processed per inner batch. Affects the
    /// simulated cache behaviour (signature), analogous to a batch size.
    pub chunk: usize,
}

impl Default for BfsConfig {
    fn default() -> Self {
        BfsConfig { vertices: 4096, degree: 6, chunk: 256 }
    }
}

/// Breadth-first search kernel: each [`step`](IterativeKernel::step) runs one
/// complete BFS from a fresh (seeded) source vertex — the Rodinia `bfs`
/// epoch pattern of many short, similar iterations.
///
/// The [`score`](IterativeKernel::score) is the running mean fraction of the
/// graph reached, which converges to the size of the giant component — the
/// quality number the evaluation plots as "accuracy" for this job.
#[derive(Debug, Clone)]
pub struct Bfs {
    cfg: BfsConfig,
    /// CSR adjacency: offsets into `edges`.
    offsets: Vec<usize>,
    edges: Vec<u32>,
    rng: StdRng,
    epochs: usize,
    reached_sum: f64,
}

impl Bfs {
    /// Generates a seeded random graph (uniform out-edges) and prepares BFS.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.vertices` is zero.
    pub fn new(cfg: &BfsConfig, seed: u64) -> Self {
        assert!(cfg.vertices > 0, "graph must have vertices");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = cfg.vertices;
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, list) in adj.iter_mut().enumerate() {
            // Ring edge guarantees a connected backbone for most vertices,
            // random edges add small-world structure.
            list.push(((v + 1) % n) as u32);
            for _ in 0..cfg.degree.saturating_sub(1) {
                // A small fraction of dangling edges keeps reachability < 1.
                if rng.gen::<f32>() < 0.95 {
                    list.push(rng.gen_range(0..n) as u32);
                }
            }
        }
        // 2% isolated sinks: no outgoing edges (overwrite).
        for _ in 0..n / 50 {
            let v = rng.gen_range(0..n);
            adj[v].clear();
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::new();
        offsets.push(0);
        for list in &adj {
            edges.extend_from_slice(list);
            offsets.push(edges.len());
        }
        Bfs { cfg: *cfg, offsets, edges, rng, epochs: 0, reached_sum: 0.0 }
    }

    /// Runs one BFS from `source`, returning `(visited, edges_relaxed)`.
    fn bfs_from(&self, source: usize) -> (usize, usize) {
        let n = self.cfg.vertices;
        let mut visited = vec![false; n];
        let mut frontier = vec![source as u32];
        visited[source] = true;
        let mut count = 1usize;
        let mut relaxed = 0usize;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            // Process in chunks (the tunable parameter) — functionally
            // identical, but the chunk size feeds the cache signature.
            for chunk in frontier.chunks(self.cfg.chunk.max(1)) {
                for &v in chunk {
                    let (s, e) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
                    for &w in &self.edges[s..e] {
                        relaxed += 1;
                        if !visited[w as usize] {
                            visited[w as usize] = true;
                            count += 1;
                            next.push(w);
                        }
                    }
                }
            }
            frontier = next;
        }
        (count, relaxed)
    }

    /// The configuration in use.
    pub fn config(&self) -> &BfsConfig {
        &self.cfg
    }
}

impl IterativeKernel for Bfs {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn step(&mut self) -> KernelMetrics {
        let source = self.rng.gen_range(0..self.cfg.vertices);
        let (visited, relaxed) = self.bfs_from(source);
        self.epochs += 1;
        self.reached_sum += visited as f64 / self.cfg.vertices as f64;
        KernelMetrics {
            // Frontier bookkeeping costs work even from a sink vertex.
            work_flops: relaxed as f64 * 4.0 + visited as f64 * 2.0,
            items: visited,
            score: self.score(),
        }
    }

    fn score(&self) -> f32 {
        if self.epochs == 0 {
            0.0
        } else {
            (self.reached_sum / self.epochs as f64) as f32
        }
    }

    fn signature(&self) -> KernelSignature {
        let m = self.edges.len() as f64;
        KernelSignature {
            flops_per_epoch: m * 4.0,
            working_set_bytes: m * 4.0 + self.cfg.vertices as f64 * 5.0,
            memory_intensity: 4.0, // pointer chasing, almost no arithmetic
            branch_ratio: 0.30,
        }
    }

    fn epochs_run(&self) -> usize {
        self.epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_reaches_most_of_the_graph() {
        let bfs = Bfs::new(&BfsConfig::default(), 3);
        let (visited, relaxed) = bfs.bfs_from(0);
        assert!(visited > bfs.config().vertices / 2, "visited {visited}");
        assert!(relaxed >= visited - 1);
    }

    #[test]
    fn score_converges_into_unit_interval() {
        let mut bfs = Bfs::new(&BfsConfig { vertices: 512, degree: 4, chunk: 64 }, 9);
        for _ in 0..8 {
            bfs.step();
        }
        let s = bfs.score();
        assert!((0.0..=1.0).contains(&s));
        assert!(s > 0.3, "score {s}");
    }

    #[test]
    fn chunking_does_not_change_reachability() {
        let a = Bfs::new(&BfsConfig { chunk: 1, ..BfsConfig::default() }, 4);
        let b = Bfs::new(&BfsConfig { chunk: 1024, ..BfsConfig::default() }, 4);
        assert_eq!(a.bfs_from(10).0, b.bfs_from(10).0);
    }

    #[test]
    fn deterministic_graph_per_seed() {
        let a = Bfs::new(&BfsConfig::default(), 5);
        let b = Bfs::new(&BfsConfig::default(), 5);
        assert_eq!(a.edges, b.edges);
    }
}
