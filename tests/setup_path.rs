//! Differential tests of the set-up path: edge-list bytes to CSR, and
//! the relabeling that preprocessing applies.
//!
//! Each linear-pass implementation is checked against the simplest
//! correct version of the same step, kept here as the oracle:
//!
//! * `read_edge_list` (one reused byte buffer, an ASCII byte scanner)
//!   against a `BufRead::lines` loop that builds one `String` per line
//!   and applies the `&str` rules, over a seeded mutation corpus;
//! * `GraphBuilder::build` (counting passes, no sort) against a global
//!   sort-and-dedup of the normalized pair list, on random multisets;
//! * `reorder::apply_permutation` (CSR straight from CSR) against a
//!   rebuild of the relabeled pairs by that same reference.
//!
//! Every case is reproducible from its seed or round number.

use gramer_graph::{generate, io, reorder, CsrGraph, GraphBuilder, GraphError, Label, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Read};

/// A graph as comparable parts (offsets, adjacency, labels), or the
/// error as comparable text.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Graph(Vec<usize>, Vec<VertexId>, Vec<Label>),
    Error(String),
}

fn outcome(result: Result<CsrGraph, GraphError>) -> Outcome {
    match result {
        Ok(g) => {
            let mut offsets: Vec<usize> = g.vertices().map(|v| g.first_edge_offset(v)).collect();
            offsets.push(g.adjacency_len());
            let adjacency = g.vertices().flat_map(|v| g.neighbors(v).to_vec()).collect();
            Outcome::Graph(offsets, adjacency, g.labels().to_vec())
        }
        Err(e) => Outcome::Error(describe(&e)),
    }
}

/// The variant with its fields; for `Io`, the kind and the message
/// (the `Debug` form of an `io::Error` depends on how it was made).
fn describe(e: &GraphError) -> String {
    match e {
        GraphError::Io(io) => format!("Io {:?}: {io}", io.kind()),
        other => format!("{other:?}"),
    }
}

/// The sort-and-dedup reference build: normalize every non-loop pair,
/// sort and dedup the list, count degrees, scatter, sort each row.
fn reference_build(
    pairs: &[(VertexId, VertexId)],
    ensure: Option<VertexId>,
    labels: Option<&[Label]>,
) -> Outcome {
    let max = pairs.iter().flat_map(|&(u, v)| [u, v]).chain(ensure).max();
    let Some(max) = max else {
        return Outcome::Error(describe(&GraphError::Empty));
    };
    let n = max as usize + 1;
    let mut sorted: Vec<(VertexId, VertexId)> = pairs
        .iter()
        .filter(|(u, v)| u != v)
        .map(|&(u, v)| (u.min(v), u.max(v)))
        .collect();
    sorted.sort_unstable();
    sorted.dedup();
    let mut rows = vec![Vec::new(); n];
    for &(u, v) in &sorted {
        rows[u as usize].push(v);
        rows[v as usize].push(u);
    }
    let mut offsets = vec![0];
    let mut adjacency = Vec::new();
    for row in &mut rows {
        row.sort_unstable();
        adjacency.extend_from_slice(row);
        offsets.push(adjacency.len());
    }
    let labels = match labels {
        Some(l) if l.len() != n => {
            return Outcome::Error(describe(&GraphError::LabelCount {
                labels: l.len(),
                vertices: n,
            }))
        }
        Some(l) => l.to_vec(),
        None => vec![0; n],
    };
    Outcome::Graph(offsets, adjacency, labels)
}

/// The edge-list reader as it was before the byte scanner: `lines()`,
/// one `String` per line, the `&str` rules, then the reference build.
fn oracle_pairs<R: Read>(reader: R) -> Result<Vec<(VertexId, VertexId)>, GraphError> {
    let reader = BufReader::new(reader);
    let mut pairs = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let (u, v) = match (it.next(), it.next()) {
            (Some(u), Some(v)) => (u, v),
            _ => {
                return Err(GraphError::Parse {
                    line: lineno + 1,
                    content: line.clone(),
                })
            }
        };
        let parse = |s: &str| -> Result<VertexId, GraphError> {
            let raw: u64 = s.parse().map_err(|_| GraphError::Parse {
                line: lineno + 1,
                content: line.clone(),
            })?;
            if raw >= VertexId::MAX as u64 {
                return Err(GraphError::VertexIdOverflow {
                    id: raw,
                    line: lineno + 1,
                });
            }
            Ok(raw as VertexId)
        };
        pairs.push((parse(u)?, parse(v)?));
    }
    Ok(pairs)
}

fn oracle_read<R: Read>(reader: R) -> Outcome {
    match oracle_pairs(reader) {
        Ok(pairs) => reference_build(&pairs, None, None),
        Err(e) => Outcome::Error(describe(&e)),
    }
}

/// Valid IDs stay below this, so no case allocates a huge universe.
const MAX_TEST_ID: VertexId = 1 << 20;

/// A case whose lines all parse but name an ID of `MAX_TEST_ID` or more
/// gets a malformed last line: both readers then scan every line and
/// fail at the end, before either builds anything.
fn bounded(mut text: Vec<u8>) -> Vec<u8> {
    if let Ok(pairs) = oracle_pairs(text.as_slice()) {
        if pairs.iter().any(|&(u, v)| u.max(v) >= MAX_TEST_ID) {
            text.extend_from_slice(b"\nnot an edge\n");
        }
    }
    text
}

fn seed_corpus() -> Vec<Vec<u8>> {
    let mut corpus = Vec::new();
    for seed in 0..3 {
        let g = generate::barabasi_albert(40 + 20 * seed, 3, seed as u64 + 1);
        let mut text = Vec::new();
        io::write_edge_list(&g, &mut text).expect("write to a Vec");
        corpus.push(text);
    }
    corpus.push(
        b"# header\r\n% percent comment\r\n0 1\r\n1\t2\n  2 3  \n3\x0b4\n4\x0c5\n5 6 0.5\n\
          +7 08\n\n\t\n9 10 extra columns here\n0000011 +0012\n"
            .to_vec(),
    );
    corpus.push(
        "11\u{a0}12\n12\u{3000}13\n# comment with \u{e9}\n13 14 # trailing \u{fc}n\u{ef}code\n\
         \u{3000}14 15\u{a0}\n"
            .as_bytes()
            .to_vec(),
    );
    corpus.push(b"1 2\n3\n4 x\n5 -6\n+ 7\n++8 9\n1+2 3\n".to_vec());
    corpus.push(b"1 4294967294\n0 4294967295\n2 18446744073709551616\n".to_vec());
    corpus.push(b"# only comments\n%\n\n".to_vec());
    corpus.push(b"# bad \xff comment\n1 2\n".to_vec());
    corpus.push(b"1 2 \xfe\n2 3\n".to_vec());
    corpus.push(b"5 6\r".to_vec());
    corpus
}

/// Byte values a mutation likes to plant: every ASCII whitespace that
/// `char::is_whitespace` knows, comment and sign characters, digits, and
/// lead, continuation and invalid UTF-8 bytes.
const PLANTS: &[u8] = &[
    b' ', b'\t', b'\n', 0x0b, 0x0c, b'\r', b'#', b'%', b'+', b'-', b'0', b'9', b'x', 0x00, 0x1f,
    0x7f, 0x80, 0xa0, 0xc2, 0xe3, 0xff,
];

/// Separators and tokens a mutation substitutes or inserts, including
/// non-ASCII whitespace and IDs at and past the limits.
const SNIPPETS: &[&str] = &[
    "\t",
    "\u{0b}",
    "\u{0c}",
    "\u{a0}",
    "\u{3000}",
    "  ",
    "+",
    "000",
    "\r\n",
    "\n4294967295 1\n",
    "\n1 18446744073709551616\n",
    "\n4294967294 0\n",
    "\n# comment \u{1f600}\n",
    "\n% \u{e9}\n",
];

fn mutate(rng: &mut StdRng, corpus: &[Vec<u8>], text: &mut Vec<u8>) {
    for _ in 0..rng.gen_range(1..4usize) {
        let len = text.len();
        match rng.gen_range(0..10usize) {
            // Bit flip.
            0 if len > 0 => {
                let i = rng.gen_range(0..len);
                text[i] ^= 1 << rng.gen_range(0..8u32);
            }
            // Plant a byte.
            1 if len > 0 => {
                let i = rng.gen_range(0..len);
                text[i] = PLANTS[rng.gen_range(0..PLANTS.len())];
            }
            // Splice in a slice of another corpus entry.
            2 => {
                let other = &corpus[rng.gen_range(0..corpus.len())];
                if !other.is_empty() {
                    let a = rng.gen_range(0..other.len());
                    let b = rng.gen_range(a..=other.len().min(a + 40));
                    let at = rng.gen_range(0..=len);
                    text.splice(at..at, other[a..b].iter().copied());
                }
            }
            // Truncate.
            3 => text.truncate(rng.gen_range(0..=len)),
            // CRLF endings throughout.
            4 => {
                let mut crlf = Vec::with_capacity(len + len / 8);
                for &c in text.iter() {
                    if c == b'\n' {
                        crlf.push(b'\r');
                    }
                    crlf.push(c);
                }
                *text = crlf;
            }
            // A lone trailing `\r` in place of the final newline.
            5 => {
                if text.last() == Some(&b'\n') {
                    text.pop();
                }
                text.push(b'\r');
            }
            // No final newline.
            6 => {
                while text.last() == Some(&b'\n') {
                    text.pop();
                }
            }
            // Replace a space with a snippet.
            7 => {
                if let Some(i) = text.iter().position(|&c| c == b' ') {
                    let s = SNIPPETS[rng.gen_range(0..SNIPPETS.len())];
                    text.splice(i..=i, s.bytes());
                }
            }
            // Insert a snippet anywhere.
            8 => {
                let s = SNIPPETS[rng.gen_range(0..SNIPPETS.len())];
                let at = rng.gen_range(0..=len);
                text.splice(at..at, s.bytes());
            }
            // A sign or leading zeros in front of a digit.
            _ => {
                let digits: Vec<usize> = (0..len).filter(|&i| text[i].is_ascii_digit()).collect();
                if !digits.is_empty() {
                    let i = digits[rng.gen_range(0..digits.len())];
                    let prefix: &[u8] = if rng.gen_bool(0.5) { b"+" } else { b"00" };
                    text.splice(i..i, prefix.iter().copied());
                }
            }
        }
    }
}

#[test]
fn read_edge_list_matches_the_lines_oracle_on_a_mutation_corpus() {
    let corpus = seed_corpus();
    for (i, text) in corpus.iter().enumerate() {
        let text = bounded(text.clone());
        assert_eq!(
            outcome(io::read_edge_list(text.as_slice())),
            oracle_read(text.as_slice()),
            "seed corpus entry {i}: {:?}",
            String::from_utf8_lossy(&text)
        );
    }
    let mut rng = StdRng::seed_from_u64(0x5E70B);
    let (mut graphs, mut errors) = (0, 0);
    for round in 0..4000 {
        let mut text = corpus[rng.gen_range(0..corpus.len())].clone();
        mutate(&mut rng, &corpus, &mut text);
        let text = bounded(text);
        let expected = oracle_read(text.as_slice());
        assert_eq!(
            outcome(io::read_edge_list(text.as_slice())),
            expected,
            "round {round}: {:?}",
            String::from_utf8_lossy(&text)
        );
        match expected {
            Outcome::Graph(..) => graphs += 1,
            Outcome::Error(_) => errors += 1,
        }
    }
    // The corpus must exercise both outcomes, not just one.
    assert!(
        graphs > 500 && errors > 500,
        "{graphs} graphs, {errors} errors"
    );
}

/// A reader that hands out its bytes in random-sized pieces, sometimes
/// reports `Interrupted`, and can fail for good at a fixed offset.
struct Choppy {
    data: Vec<u8>,
    pos: usize,
    fail_at: Option<usize>,
    rng: StdRng,
}

impl Read for Choppy {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.rng.gen_bool(0.1) {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        let limit = self.fail_at.unwrap_or(self.data.len()).min(self.data.len());
        if self.pos >= limit && self.fail_at.is_some() {
            return Err(std::io::Error::other("the disk went away"));
        }
        let want = self.rng.gen_range(1..=buf.len().clamp(1, 3000));
        let n = want.min(limit - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn read_edge_list_matches_the_oracle_across_read_boundaries_and_failures() {
    let g = generate::barabasi_albert(3000, 4, 9);
    let mut text = Vec::new();
    io::write_edge_list(&g, &mut text).expect("write to a Vec");
    // A line longer than any read buffer, and CRLF endings.
    text.extend_from_slice(b"# ");
    text.extend(std::iter::repeat_n(b'x', 200_000));
    text.extend_from_slice(b"\r\n2999 0\r\n");
    for seed in 0..24u64 {
        let fail_at = (seed % 3 == 0).then(|| (seed as usize * 7919) % text.len());
        let reader = |s: u64| Choppy {
            data: text.clone(),
            pos: 0,
            fail_at,
            rng: StdRng::seed_from_u64(s),
        };
        assert_eq!(
            outcome(io::read_edge_list(reader(seed))),
            oracle_read(reader(seed + 1000)),
            "seed {seed}, failing at {fail_at:?}"
        );
    }
}

#[test]
fn builder_matches_the_sort_and_dedup_reference() {
    for seed in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(0xB11D + seed);
        let n = rng.gen_range(1..48u32);
        let count = rng.gen_range(0..160usize);
        let mut pairs: Vec<(VertexId, VertexId)> = (0..count)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        // Repeats in both directions.
        for i in 0..pairs.len() / 4 {
            let (u, v) = pairs[i];
            pairs.push(if rng.gen_bool(0.5) { (v, u) } else { (u, v) });
        }
        let ensure = rng.gen_bool(0.3).then(|| rng.gen_range(0..n + 8));
        let max = pairs.iter().flat_map(|&(u, v)| [u, v]).chain(ensure).max();
        let labels: Option<Vec<Label>> = rng.gen_bool(0.4).then(|| {
            // Sometimes one label short or long, to hit `LabelCount`.
            let skew = [0i64, 0, 0, -1, 1][rng.gen_range(0..5)];
            let len = (max.map_or(0, |m| m as i64 + 1) + skew).max(0) as usize;
            (0..len).map(|_| rng.gen_range(0..5u16)).collect()
        });

        let mut b = GraphBuilder::new();
        b.add_edges(pairs.iter().copied());
        if let Some(v) = ensure {
            b.ensure_vertex(v);
        }
        if let Some(l) = &labels {
            b.labels(l.clone());
        }
        assert_eq!(
            outcome(b.build()),
            reference_build(&pairs, ensure, labels.as_deref()),
            "seed {seed}"
        );
    }
}

#[test]
fn apply_permutation_matches_a_relabel_through_the_reference() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0x9E12 + seed);
        let n = rng.gen_range(1..40u32);
        let mut b = GraphBuilder::new();
        for _ in 0..rng.gen_range(0..120usize) {
            b.add_edge(rng.gen_range(0..n), rng.gen_range(0..n));
        }
        // Isolated vertices past every edge endpoint.
        b.ensure_vertex(n - 1 + rng.gen_range(0..4));
        let plain = b.build().expect("nonempty");
        let g = generate::with_random_labels(&plain, 4, seed);
        let v = g.num_vertices();
        let mut old_id: Vec<VertexId> = (0..v as VertexId).collect();
        for i in (1..v).rev() {
            old_id.swap(i, rng.gen_range(0..i + 1));
        }

        let r = reorder::apply_permutation(&g, &old_id);
        let mut new_id = vec![0; v];
        for (new, &old) in old_id.iter().enumerate() {
            new_id[old as usize] = new as VertexId;
        }
        let relabeled: Vec<(VertexId, VertexId)> = g
            .vertices()
            .flat_map(|x| g.neighbors(x).iter().map(move |&y| (x, y)))
            .filter(|(x, y)| x < y)
            .map(|(x, y)| (new_id[x as usize], new_id[y as usize]))
            .collect();
        let labels: Vec<Label> = old_id.iter().map(|&old| g.label(old)).collect();
        assert_eq!(
            outcome(Ok(r.graph)),
            reference_build(&relabeled, Some(v as VertexId - 1), Some(&labels)),
            "seed {seed}"
        );
        assert_eq!(r.new_id, new_id, "seed {seed}");
        assert_eq!(r.old_id, old_id, "seed {seed}");
    }
}
