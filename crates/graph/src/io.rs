//! SNAP-style edge-list reading and writing.
//!
//! The evaluation datasets the paper uses are distributed as whitespace-
//! separated edge lists with `#` comment lines; this module parses that
//! format so real downloads can replace the synthetic analogs in
//! [`crate::datasets`].

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, VertexId};
use crate::error::GraphError;
use std::io::{Read, Write};
use std::path::Path;

/// Parses an edge list from any reader.
///
/// Each non-comment line contains two vertex IDs separated by whitespace
/// (extra trailing columns, as in weighted SNAP dumps, are ignored); lines
/// starting with `#` or `%` and blank lines are skipped, and CRLF line
/// endings plus leading/trailing whitespace are tolerated. The graph is
/// treated as undirected (duplicate directions collapse).
///
/// The input is scanned through one reused byte buffer. An all-ASCII
/// line takes a byte scanner that accepts exactly what the `&str` rules
/// below accept; any other line — and any line the scanner does not
/// accept — goes through those rules, which alone build errors.
///
/// A mutable reference can be passed as the reader, e.g. `&mut file`.
///
/// # Errors
///
/// Every error names the offending 1-based input line:
/// [`GraphError::Parse`] for malformed lines,
/// [`GraphError::VertexIdOverflow`] for IDs above `u32::MAX - 1`,
/// [`GraphError::Io`] for underlying I/O failures (including invalid
/// UTF-8) and [`GraphError::Empty`] when no vertex was found.
/// [`GraphError::TooLarge`] means the largest ID names more vertices
/// than this host can allocate. The parser never panics, no matter how
/// corrupted the input is.
///
/// # Example
///
/// ```
/// use gramer_graph::io::read_edge_list;
///
/// # fn main() -> Result<(), gramer_graph::GraphError> {
/// let text = "# tiny graph\n0 1\n1 2\n";
/// let g = read_edge_list(text.as_bytes())?;
/// assert_eq!(g.num_edges(), 2);
/// # Ok(())
/// # }
/// ```
pub fn read_edge_list<R: Read>(mut reader: R) -> Result<CsrGraph, GraphError> {
    let mut b = GraphBuilder::new();
    let mut buf = vec![0u8; 1 << 16];
    let (mut len, mut lineno) = (0, 0);
    loop {
        let read = match reader.read(&mut buf[len..]) {
            Ok(read) => read,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        len += read;
        // Every complete line, and at the end of the input the
        // unterminated rest; a partial line waits for more bytes.
        let mut start = 0;
        while start < len {
            let rest = &buf[start..len];
            let (line, taken) = match rest.iter().position(|&c| c == b'\n') {
                // What `BufRead::lines` strips: the `\n`, then one `\r`.
                Some(i) => (rest[..i].strip_suffix(b"\r").unwrap_or(&rest[..i]), i + 1),
                None if read == 0 => (rest, rest.len()),
                None => break,
            };
            lineno += 1;
            if let Some((u, v)) = parse_edge(line, lineno)? {
                b.add_edge(u, v);
            }
            start += taken;
        }
        if read == 0 {
            return b.build();
        }
        buf.copy_within(start..len, 0);
        len -= start;
        if len == buf.len() {
            buf.resize(2 * len, 0);
        }
    }
}

/// One line without its terminator: the byte scanner when the line is
/// all ASCII and the scanner accepts it, [`parse_line`] otherwise.
fn parse_edge(line: &[u8], lineno: usize) -> Result<Option<(VertexId, VertexId)>, GraphError> {
    match line.is_ascii().then(|| scan_ascii(line)) {
        Some(Scan::Skip) => Ok(None),
        Some(Scan::Edge(u, v)) => Ok(Some((u, v))),
        _ => {
            let text = std::str::from_utf8(line).map_err(|_| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                )
            })?;
            parse_line(text, lineno)
        }
    }
}

/// The edge-list line rules on one decoded line (`lineno` is 1-based):
/// `None` for a blank or comment line, the edge otherwise.
fn parse_line(line: &str, lineno: usize) -> Result<Option<(VertexId, VertexId)>, GraphError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
        return Ok(None);
    }
    let malformed = || GraphError::Parse {
        line: lineno,
        content: line.to_string(),
    };
    let mut it = trimmed.split_whitespace();
    let (Some(u), Some(v)) = (it.next(), it.next()) else {
        return Err(malformed());
    };
    let parse = |s: &str| -> Result<VertexId, GraphError> {
        let raw: u64 = s.parse().map_err(|_| malformed())?;
        if raw >= VertexId::MAX as u64 {
            return Err(GraphError::VertexIdOverflow {
                id: raw,
                line: lineno,
            });
        }
        Ok(raw as VertexId)
    };
    Ok(Some((parse(u)?, parse(v)?)))
}

/// What the byte scanner made of an all-ASCII line.
enum Scan {
    /// Blank or comment.
    Skip,
    /// Two IDs, both below `u32::MAX`.
    Edge(VertexId, VertexId),
    /// Anything else: [`parse_line`] decides.
    Other,
}

/// ASCII bytes that `char::is_whitespace` accepts: space, `\t`, `\n`,
/// vertical tab, form feed and `\r`.
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

fn scan_ascii(line: &[u8]) -> Scan {
    let start = line
        .iter()
        .position(|&c| !is_space(c))
        .unwrap_or(line.len());
    let rest = &line[start..];
    if matches!(rest.first(), None | Some(b'#' | b'%')) {
        return Scan::Skip;
    }
    let Some((u, len)) = scan_id(rest) else {
        return Scan::Other;
    };
    let rest = &rest[len..];
    let gap = rest
        .iter()
        .position(|&c| !is_space(c))
        .unwrap_or(rest.len());
    match scan_id(&rest[gap..]) {
        Some((v, _)) => Scan::Edge(u, v),
        None => Scan::Other,
    }
}

/// One whitespace-delimited token as `u64::from_str` reads it (an
/// optional `+`, then decimal digits), or `None` when the token is
/// empty, holds anything else or reaches `u32::MAX`; returns the ID and
/// the token's length.
fn scan_id(token: &[u8]) -> Option<(VertexId, usize)> {
    let first = usize::from(token.first() == Some(&b'+'));
    let mut value = 0u64;
    let mut i = first;
    while let Some(&c) = token.get(i) {
        if is_space(c) {
            break;
        }
        let digit = c.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        value = value * 10 + u64::from(digit);
        if value >= VertexId::MAX as u64 {
            return None;
        }
        i += 1;
    }
    (i > first).then_some((value as VertexId, i))
}

/// Reads an edge list from a file path.
///
/// # Errors
///
/// Propagates the same errors as [`read_edge_list`], plus file-open
/// failures as [`GraphError::Io`].
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<CsrGraph, GraphError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes `graph` as an edge list (one `u v` line per undirected edge,
/// `u < v`).
///
/// A mutable reference can be passed as the writer, e.g. `&mut buf`.
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failure.
pub fn write_edge_list<W: Write>(graph: &CsrGraph, mut writer: W) -> Result<(), GraphError> {
    writeln!(
        writer,
        "# gramer edge list: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for v in graph.vertices() {
        for &u in graph.neighbors(v) {
            if v < u {
                writeln!(writer, "{v} {u}")?;
            }
        }
    }
    Ok(())
}

/// Magic bytes of the binary CSR format. Public so tools (e.g.
/// `gramer-artifact build`) can sniff whether an input file is binary
/// CSR or a text edge list before choosing a parser.
pub const BINARY_MAGIC: &[u8; 8] = b"GRAMERv1";

/// Writes `graph` in a compact binary CSR format (magic, counts, offsets
/// as `u64`, adjacency as `u32`, labels as `u16`, all little-endian).
///
/// Unlike the text edge list this round-trips isolated vertices and
/// labels, and loads in O(bytes) — useful for large preprocessed graphs.
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failure.
pub fn write_binary<W: Write>(graph: &CsrGraph, mut writer: W) -> Result<(), GraphError> {
    writer.write_all(BINARY_MAGIC)?;
    let n = graph.num_vertices() as u64;
    let m = graph.adjacency_len() as u64;
    writer.write_all(&n.to_le_bytes())?;
    writer.write_all(&m.to_le_bytes())?;
    for v in graph.vertices() {
        writer.write_all(&(graph.first_edge_offset(v) as u64).to_le_bytes())?;
    }
    writer.write_all(&m.to_le_bytes())?;
    for v in graph.vertices() {
        for &u in graph.neighbors(v) {
            writer.write_all(&u.to_le_bytes())?;
        }
    }
    for &l in graph.labels() {
        writer.write_all(&l.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a graph written by [`write_binary`].
///
/// The header's counts size nothing up front: every array grows only as
/// its bytes arrive, so a header that declares more than the input
/// holds ends in a truncation error, not in a huge allocation. The
/// arrays must form a CSR [`write_binary`] could have written: every row
/// strictly ascending, no self-loop, and every entry `(v, u)` mirrored
/// by an entry `(u, v)`; the graph is then taken as stored.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] (line 0) if the header or structure is
/// malformed, [`GraphError::VertexIdOverflow`] (line 0) if it declares
/// more vertices than IDs can name or an adjacency entry past the last
/// vertex, or [`GraphError::Io`] on read failure (including an input
/// shorter than its header declares).
pub fn read_binary<R: Read>(mut reader: R) -> Result<CsrGraph, GraphError> {
    let malformed = |what: &str| GraphError::Parse {
        line: 0,
        content: format!("binary CSR: {what}"),
    };
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if &magic != BINARY_MAGIC {
        return Err(malformed("bad magic"));
    }
    let mut read_u64 = || -> Result<u64, GraphError> {
        let mut buf = [0u8; 8];
        reader.read_exact(&mut buf)?;
        Ok(u64::from_le_bytes(buf))
    };
    let n = read_u64()?;
    let m = read_u64()?;
    if n == 0 {
        return Err(GraphError::Empty);
    }
    if n > VertexId::MAX as u64 {
        return Err(GraphError::VertexIdOverflow { id: n - 1, line: 0 });
    }
    let n = n as usize;
    let offsets = read_values(&mut reader, n as u64 + 1, u64::from_le_bytes)?;
    if offsets[0] != 0 || offsets[n] != m || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(malformed("inconsistent offsets"));
    }
    let adjacency = read_values(&mut reader, m, u32::from_le_bytes)?;
    // Every offset is at most `m`, the length just read.
    let offsets: Vec<usize> = offsets.into_iter().map(|o| o as usize).collect();
    // Sources in ascending order: row `u`'s cursor must meet each source
    // that lists `u`, in turn, before its row ends. The entries met equal
    // the entries stored, so every cursor stops exactly at its row's end.
    let mut cursor = offsets[..n].to_vec();
    for (v, w) in offsets.windows(2).enumerate() {
        let row = &adjacency[w[0]..w[1]];
        if row.windows(2).any(|p| p[0] >= p[1]) {
            return Err(malformed(&format!("row {v} is not strictly ascending")));
        }
        for &u in row {
            let Some(&next) = cursor.get(u as usize) else {
                return Err(GraphError::VertexIdOverflow {
                    id: u as u64,
                    line: 0,
                });
            };
            if u as usize == v {
                return Err(malformed(&format!("self-loop at vertex {v}")));
            }
            if next == offsets[u as usize + 1] || adjacency[next] as usize != v {
                return Err(malformed(&format!("entry {v}-{u} has no reverse entry")));
            }
            cursor[u as usize] = next + 1;
        }
    }
    let labels = read_values(&mut reader, n as u64, u16::from_le_bytes)?;
    Ok(CsrGraph::from_parts(offsets, adjacency, labels))
}

/// Reads `count` little-endian values of `W` bytes each, in chunks of at
/// most 64 KiB, so the vector never outgrows the bytes actually read.
fn read_values<R: Read, T, const W: usize>(
    reader: &mut R,
    count: u64,
    decode: fn([u8; W]) -> T,
) -> Result<Vec<T>, GraphError> {
    let per_chunk = (1u64 << 16) / W as u64;
    let mut chunk = vec![0u8; (count.min(per_chunk) as usize) * W];
    let mut out = Vec::new();
    let mut left = count;
    while left > 0 {
        let take = left.min(per_chunk) as usize;
        let bytes = &mut chunk[..take * W];
        reader.read_exact(bytes)?;
        out.extend(bytes.chunks_exact(W).map(|c| {
            let mut value = [0u8; W];
            value.copy_from_slice(c);
            decode(value)
        }));
        left -= take as u64;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn parse_with_comments_and_blanks() {
        let text = "# comment\n% also comment\n\n0 1\n2\t3\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn malformed_line_reports_position() {
        let text = "0 1\nbroken\n";
        match read_edge_list(text.as_bytes()) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn one_token_line_is_error() {
        assert!(matches!(
            read_edge_list("5\n".as_bytes()),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn overflow_id_rejected_with_line() {
        let text = format!("0 1\n0 {}\n", u64::from(u32::MAX));
        match read_edge_list(text.as_bytes()) {
            Err(GraphError::VertexIdOverflow { id, line }) => {
                assert_eq!(id, u64::from(u32::MAX));
                assert_eq!(line, 2);
            }
            other => panic!("expected overflow error, got {other:?}"),
        }
    }

    #[test]
    fn crlf_and_trailing_whitespace_tolerated() {
        let text = "# header\r\n0 1 \r\n1 2\t\r\n  2 3\r\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn extra_columns_ignored() {
        // SNAP dumps sometimes carry weights or timestamps.
        let g = read_edge_list("0 1 0.5\n1 2 1612137600\n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn empty_input_is_error() {
        assert!(matches!(
            read_edge_list("# nothing\n".as_bytes()),
            Err(GraphError::Empty)
        ));
    }

    #[test]
    fn roundtrip() {
        // Barabási–Albert graphs have no isolated vertices, which the
        // edge-list format cannot express.
        let g = generate::barabasi_albert(40, 2, 8);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn roundtrip_preserves_edges_with_isolated_vertices() {
        let g = generate::rmat(5, 60, generate::RmatParams::default(), 8);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g.num_edges(), g2.num_edges());
        for v in g2.vertices() {
            for &u in g2.neighbors(v) {
                assert!(g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn binary_roundtrip_preserves_everything() {
        // Labels AND isolated vertices survive, unlike the text format.
        let base = generate::rmat(5, 60, generate::RmatParams::default(), 8);
        let labeled = generate::with_random_labels(&base, 5, 3);
        for g in [
            labeled,
            generate::complete(5),
            generate::barabasi_albert(200, 3, 7),
        ] {
            let mut buf = Vec::new();
            write_binary(&g, &mut buf).unwrap();
            let g2 = read_binary(buf.as_slice()).unwrap();
            assert_eq!(g, g2);
        }
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let r = read_binary(&b"NOTGRAMER-at-all"[..]);
        assert!(matches!(r, Err(GraphError::Parse { .. })));
    }

    #[test]
    fn binary_rejects_truncation() {
        let g = generate::complete(5);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(buf.as_slice()).is_err());
    }

    /// A binary CSR header followed by `offsets`, as a byte vector.
    fn binary_header(n: u64, m: u64, offsets: &[u64]) -> Vec<u8> {
        let mut bytes = BINARY_MAGIC.to_vec();
        for word in [n, m].iter().chain(offsets) {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes
    }

    /// A whole binary CSR file: the header, `adjacency` and `n` zero
    /// labels.
    fn binary_file(n: u64, offsets: &[u64], adjacency: &[u32]) -> Vec<u8> {
        let mut bytes = binary_header(n, adjacency.len() as u64, offsets);
        for u in adjacency {
            bytes.extend_from_slice(&u.to_le_bytes());
        }
        bytes.resize(bytes.len() + 2 * n as usize, 0);
        bytes
    }

    #[test]
    fn binary_rejects_an_inconsistent_csr() {
        // Edge 1-0 stored only in vertex 1's row: 56 bytes that once
        // loaded as a graph with no edges.
        let one_sided = binary_file(2, &[0, 0, 1], &[0]);
        assert_eq!(one_sided.len(), 56);
        for (bytes, what) in [
            (one_sided, "entry 1-0 has no reverse entry"),
            // Triangle 0-1-2 with vertex 0's row unsorted.
            (
                binary_file(3, &[0, 2, 4, 6], &[2, 1, 0, 2, 0, 1]),
                "row 0 is not strictly ascending",
            ),
            // Edge 0-1 listed twice in both rows.
            (
                binary_file(2, &[0, 2, 4], &[1, 1, 0, 0]),
                "row 0 is not strictly ascending",
            ),
            // Edge 0-1 and a self-loop at vertex 0.
            (
                binary_file(2, &[0, 2, 3], &[0, 1, 0]),
                "self-loop at vertex 0",
            ),
        ] {
            match read_binary(bytes.as_slice()) {
                Err(GraphError::Parse { line: 0, content }) => {
                    assert_eq!(content, format!("binary CSR: {what}"))
                }
                other => panic!("{what}: expected a parse error, got {other:?}"),
            }
        }
        // The same shapes made consistent load.
        let triangle = binary_file(3, &[0, 2, 4, 6], &[1, 2, 0, 2, 0, 1]);
        assert_eq!(
            read_binary(triangle.as_slice()).unwrap(),
            generate::complete(3)
        );
    }

    #[test]
    fn binary_header_counts_allocate_nothing_up_front() {
        // 2^40 vertices, no edges: 24 bytes that once asked for 8 TiB.
        let r = read_binary(binary_header(1 << 40, 0, &[]).as_slice());
        assert!(
            matches!(r, Err(GraphError::VertexIdOverflow { id, line: 0 }) if id == (1 << 40) - 1),
            "{r:?}"
        );
        // 2^40 adjacency slots behind consistent offsets: 48 bytes that
        // once asked the builder for 2^39 edges; now the input runs out.
        let r = read_binary(binary_header(2, 1 << 40, &[0, 1 << 39, 1 << 40]).as_slice());
        match r {
            Err(GraphError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("expected a truncation error, got {other:?}"),
        }
        // `n + 1` must not overflow.
        let r = read_binary(binary_header(u64::MAX, 0, &[]).as_slice());
        assert!(
            matches!(r, Err(GraphError::VertexIdOverflow { id, line: 0 }) if id == u64::MAX - 1),
            "{r:?}"
        );
    }

    #[test]
    fn duplicate_directions_collapse() {
        let g = read_edge_list("0 1\n1 0\n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    /// Seeded byte-level corruption of a valid edge list: the parser must
    /// never panic, and every structured error must point at a line that
    /// actually exists in the mutated input.
    #[test]
    fn corrupted_inputs_never_panic_and_errors_carry_lines() {
        let g = generate::barabasi_albert(30, 2, 3);
        let mut base = Vec::new();
        write_edge_list(&g, &mut base).unwrap();

        // Small deterministic LCG so the test needs no RNG dependency.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };

        for round in 0..400 {
            let mut buf = base.clone();
            let flips = 1 + (next() as usize % 6);
            for _ in 0..flips {
                let i = next() as usize % buf.len();
                buf[i] = (next() & 0xFF) as u8;
            }
            let total_lines = buf.split(|&b| b == b'\n').count();
            match read_edge_list(buf.as_slice()) {
                Ok(_) | Err(GraphError::Io(_)) | Err(GraphError::Empty) => {}
                Err(GraphError::Parse { line, content }) => {
                    assert!(
                        line >= 1 && line <= total_lines,
                        "round {round}: parse error line {line} out of range"
                    );
                    // The reported content must be the actual input line
                    // (modulo the trailing CR that `lines()` strips).
                    let raw: Vec<&[u8]> = buf.split(|&b| b == b'\n').collect();
                    let expected = raw[line - 1].strip_suffix(b"\r").unwrap_or(raw[line - 1]);
                    assert_eq!(
                        String::from_utf8_lossy(expected),
                        content,
                        "round {round}: error content does not match input line"
                    );
                }
                Err(GraphError::VertexIdOverflow { line, .. }) => {
                    assert!(line >= 1 && line <= total_lines);
                }
                Err(other) => panic!("round {round}: unexpected error {other:?}"),
            }
        }
    }
}
