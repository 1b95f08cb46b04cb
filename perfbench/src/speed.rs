//! A fixed reference computation that times the host, so that the mining
//! workloads' host timings can be scaled to one host speed.
//!
//! On the 2-vCPU KVM guest the bounds were set on, the same user-space
//! work runs up to 1.7 times slower in some stretches than in others.
//! The stretches last from seconds to tens of minutes, and neither steal
//! time nor page faults show them. A kernel of the simulator's kind slows
//! down with them: it builds an adjacency structure from edge-list text
//! and walks it with irregular accesses (README.md, "Host speed").
//! The kernel is the benchmark's own code on the benchmark's own input, so
//! no change to the program can move it.

use crate::gen;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host: a host that runs one sample
/// in this many seconds has speed 1. Samples on the 2-vCPU guest took
/// 0.053–0.090 s, median 0.062 s. The value only sets the scale of the
/// scaled figures, so it stays fixed.
pub const REFERENCE_SECONDS: f64 = 0.07;

/// Passes over the input in one sample.
const PASSES: usize = 2;

/// The kernel's input: an R-MAT graph of the mine-mc shape, from a seed
/// of its own, so it is the same in every run of every workload.
pub struct HostSpeed {
    edges: String,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        HostSpeed {
            edges: gen::rmat(13, 40_000, (0.57, 0.19, 0.19), 0x5EED_5EED),
        }
    }

    /// Seconds one sample of the kernel takes now.
    pub fn sample(&self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..PASSES {
            black_box(triangles(black_box(&self.edges)));
        }
        t0.elapsed().as_secs_f64()
    }
}

/// Host speed over an interval between two samples: 1 on the reference
/// host, below 1 on a slower one. A host time times this speed is what
/// the reference host would have taken.
pub fn speed(before: f64, after: f64) -> f64 {
    REFERENCE_SECONDS / ((before + after) / 2.0)
}

/// Triangles of the undirected simple graph in `edges` (one `u v` pair a
/// line; self-loops and repeats ignored): a sorted adjacency list built
/// from the text, then sorted-list intersections along each edge, each
/// triangle u < v < w counted at its edge (u, v).
fn triangles(edges: &str) -> u64 {
    let mut arcs: Vec<(u32, u32)> = Vec::new();
    for line in edges.lines() {
        let mut it = line.split_whitespace().map(str::parse::<u32>);
        if let (Some(Ok(u)), Some(Ok(v))) = (it.next(), it.next()) {
            if u != v {
                arcs.extend([(u, v), (v, u)]);
            }
        }
    }
    arcs.sort_unstable();
    arcs.dedup();
    let n = arcs.last().map_or(0, |&(u, _)| u as usize + 1);
    let mut start = vec![0usize; n + 1];
    for &(u, _) in &arcs {
        start[u as usize + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let adj: Vec<u32> = arcs.iter().map(|&(_, v)| v).collect();
    let neighbours = |u: usize| &adj[start[u]..start[u + 1]];
    let mut count = 0;
    for u in 0..n {
        let a = neighbours(u);
        for &v in a.iter().filter(|&&v| v as usize > u) {
            let b = neighbours(v as usize);
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        count += u64::from(a[i] > v);
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_counts_each_triangle_once() {
        // K4 (4 triangles) with a repeated edge, a reversed edge and a
        // self-loop, plus a pendant vertex.
        let k4 = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n1 0\n3 2\n2 2\n3 4\n";
        assert_eq!(triangles(k4), 4);
        assert_eq!(triangles(""), 0);
    }

    #[test]
    fn speed_is_one_at_the_reference_time_and_scales_inversely() {
        assert_eq!(speed(REFERENCE_SECONDS, REFERENCE_SECONDS), 1.0);
        let slow = speed(2.0 * REFERENCE_SECONDS, 2.0 * REFERENCE_SECONDS);
        assert!((slow - 0.5).abs() < 1e-12);
    }
}
