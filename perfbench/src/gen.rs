//! Seeded input generators.
//!
//! The benchmark makes its own graphs instead of calling the library's
//! generators, so a change to `gramer_graph::generate` can never change
//! the benchmark's inputs. The program only ever sees the edge-list text
//! these functions return.

use std::fmt::Write as _;

/// SplitMix64: a tiny, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A generator for stream `stream` of `seed`, independent of the others.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// R-MAT edge list: `edges` samples over `2^scale` vertex ids with
/// quadrant probabilities `a, b, c` (and `1 - a - b - c`). Self loops are
/// dropped; duplicate samples are kept, as real edge lists have them, and
/// the parser removes them.
pub fn rmat(scale: u32, edges: usize, (a, b, c): (f64, f64, f64), seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mut text = String::with_capacity(edges * 12);
    for _ in 0..edges {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..scale {
            let r = rng.unit();
            let (bu, bv) = if r < a {
                (0, 0)
            } else if r < a + b {
                (0, 1)
            } else if r < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | bu;
            v = (v << 1) | bv;
        }
        if u != v {
            writeln!(text, "{u} {v}").expect("writing to a String cannot fail");
        }
    }
    text
}

/// Barabási–Albert edge list: `n` vertices, each new vertex attached to
/// `m` distinct earlier vertices chosen proportionally to degree, grown
/// from a clique on the first `m + 1` vertices.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> String {
    assert!(m >= 1 && n > m, "BA needs n > m >= 1");
    let mut rng = Rng::new(seed);
    let mut text = String::with_capacity(n * m * 12);
    // Every edge endpoint once: sampling from it is degree-proportional.
    let mut ends: Vec<u32> = Vec::with_capacity(2 * n * m);
    for u in 0..=m as u32 {
        for v in u + 1..=m as u32 {
            writeln!(text, "{u} {v}").expect("writing to a String cannot fail");
            ends.extend([u, v]);
        }
    }
    let mut picked: Vec<u32> = Vec::with_capacity(m);
    for v in m as u32 + 1..n as u32 {
        picked.clear();
        while picked.len() < m {
            let t = ends[rng.below(ends.len())];
            if !picked.contains(&t) {
                picked.push(t);
            }
        }
        for &t in &picked {
            writeln!(text, "{t} {v}").expect("writing to a String cannot fail");
            ends.extend([t, v]);
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let p = (0.57, 0.19, 0.19);
        assert_eq!(rmat(8, 500, p, 3), rmat(8, 500, p, 3));
        assert_ne!(rmat(8, 500, p, 3), rmat(8, 500, p, 4));
        assert_eq!(barabasi_albert(100, 3, 9), barabasi_albert(100, 3, 9));
        assert_ne!(barabasi_albert(100, 3, 9), barabasi_albert(100, 3, 10));
    }

    #[test]
    fn generated_text_parses_to_the_expected_shape() {
        let g = gramer_graph::io::read_edge_list(barabasi_albert(200, 4, 1).as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 200);
        // Clique on 5 vertices plus 4 distinct edges per later vertex.
        assert_eq!(g.num_edges(), 10 + 195 * 4);
        let r = gramer_graph::io::read_edge_list(rmat(10, 4000, (0.57, 0.19, 0.19), 2).as_bytes())
            .unwrap();
        assert!(r.num_vertices() <= 1024 && r.num_edges() > 2000);
    }
}
