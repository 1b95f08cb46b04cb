//! The `.gra` on-disk graph artifact (format v1).
//!
//! A `.gra` file persists everything GRAMER's preprocessing derives from
//! an input graph — the ON1-reordered CSR, vertex labels, the
//! reordering permutation (whose forward direction *is* the ON1 rank
//! table, since `Rank(ON1(v)) == new_id[v]` after §IV-C reordering) and
//! the τ pin classification — so later runs skip edge-list parsing and
//! preprocessing entirely. The byte-level layout is specified in
//! [`docs/FORMAT.md`](https://example.com/gramer) (in-repo:
//! `docs/FORMAT.md`); this module is the reference implementation and
//! the spec is authoritative.
//!
//! Design properties:
//!
//! * **Zero-copy load.** All sections are little-endian arrays aligned
//!   to 8 bytes from the start of the file. [`GraphArtifact::open`]
//!   memory-maps the file (via the in-repo `gramer-mmap` shim, with an
//!   aligned read-to-memory fallback) and the typed accessors return
//!   borrowed slices straight into the mapping on little-endian hosts —
//!   no deserialization pass. Big-endian hosts transparently decode.
//! * **Every byte is load-bearing.** A 64-bit FNV-1a digest covers the
//!   table of contents and all sections; the header fields, reserved
//!   bytes and inter-section padding are validated strictly. Flipping
//!   any single byte of a valid file makes it unloadable with a typed
//!   [`GraphError`] (property-tested in `tests/artifact.rs`).
//! * **Versioned.** The header carries a format version; readers reject
//!   versions they do not understand ([`GraphError::ArtifactVersion`])
//!   rather than misinterpreting bytes. Any layout change bumps
//!   [`FORMAT_VERSION`].
//!
//! # Example
//!
//! ```
//! use gramer_graph::{artifact, generate, reorder};
//!
//! # fn main() -> Result<(), gramer_graph::GraphError> {
//! let g = generate::barabasi_albert(50, 2, 1);
//! let r = reorder::reorder_by_on1(&g);
//! let tau = 0.25;
//! let contents = artifact::ArtifactContents {
//!     graph: &r.graph,
//!     old_id: &r.old_id,
//!     new_id: &r.new_id,
//!     tau,
//!     vertex_pin: ((r.graph.num_vertices() as f64) * tau).round() as usize,
//!     edge_pin: ((r.graph.adjacency_len() as f64) * tau).round() as usize,
//!     source_digest: 0,
//! };
//! let bytes = artifact::encode(&contents)?;
//! let art = artifact::GraphArtifact::from_bytes(bytes)?;
//! assert_eq!(art.to_csr(), r.graph);
//! assert_eq!(art.tau(), tau);
//! # Ok(())
//! # }
//! ```

use crate::csr::{CsrGraph, Label, VertexId};
use crate::error::GraphError;
use crate::on1;
use crate::reorder::Reordered;
use std::borrow::Cow;
use std::io::Write;
use std::path::Path;

/// Magic bytes at offset 0 of every `.gra` file ("GRAMER Artifact
/// Format").
pub const MAGIC: [u8; 8] = *b"GRAMERAF";

/// The format version this module reads and writes. Readers reject any
/// other value.
pub const FORMAT_VERSION: u32 = 1;

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 64;

/// Length of one table-of-contents entry in bytes.
pub const TOC_ENTRY_LEN: usize = 32;

/// Number of sections in a v1 artifact (`META`, `OFFSETS`, `ADJ`,
/// `LABELS`, `OLDID`, `NEWID`, in exactly this order).
pub const SECTION_COUNT: usize = 6;

/// Alignment (from the start of the file) of every section's first
/// byte; inter-section padding is zero-filled.
pub const SECTION_ALIGN: usize = 8;

/// FNV-1a 64-bit offset basis (the digest's initial state).
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Byte offset where the table of contents ends and the first section
/// (META) begins: `HEADER_LEN + SECTION_COUNT * TOC_ENTRY_LEN` = 256.
const TOC_END: usize = HEADER_LEN + SECTION_COUNT * TOC_ENTRY_LEN;

/// Fixed payload length of the META section (8 × u64).
const META_LEN: usize = 64;

/// Section tags, in the mandatory file order.
const TAGS: [&[u8; 8]; SECTION_COUNT] = [
    b"META\0\0\0\0",
    b"OFFSETS\0",
    b"ADJ\0\0\0\0\0",
    b"LABELS\0\0",
    b"OLDID\0\0\0",
    b"NEWID\0\0\0",
];

/// Element width (bytes) of each section, same order as [`TAGS`].
const WIDTHS: [u32; SECTION_COUNT] = [8, 8, 4, 2, 4, 4];

const SEC_META: usize = 0;
const SEC_OFFSETS: usize = 1;
const SEC_ADJ: usize = 2;
const SEC_LABELS: usize = 3;
const SEC_OLDID: usize = 4;
const SEC_NEWID: usize = 5;

/// 64-bit FNV-1a over `bytes` — the digest function of the `.gra`
/// format (also used to pin artifact bytes in golden tests).
///
/// # Example
///
/// ```
/// // The FNV-1a offset basis is the digest of the empty string.
/// assert_eq!(gramer_graph::artifact::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET_BASIS;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[inline]
fn align_up(x: usize) -> usize {
    x.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

/// Everything a `.gra` artifact stores, borrowed from the producer
/// (normally a `gramer::Preprocessed`).
///
/// `graph` is the *reordered* graph (vertex ID = ON1 rank), `old_id` /
/// `new_id` the two directions of the reordering permutation, and
/// `vertex_pin` / `edge_pin` the τ prefix pin classification
/// (`vertex_pin == round(|V|·τ)`, `edge_pin == round(slots·τ)` — the
/// writer and loader both enforce this invariant).
#[derive(Debug, Clone, Copy)]
pub struct ArtifactContents<'a> {
    /// The reordered graph.
    pub graph: &'a CsrGraph,
    /// `old_id[new]` — original identity of each reordered vertex.
    pub old_id: &'a [VertexId],
    /// `new_id[old]` — reordered ID (== ON1 rank) of each original
    /// vertex.
    pub new_id: &'a [VertexId],
    /// The τ used for pin classification, in `(0, 0.5]`.
    pub tau: f64,
    /// Number of pinned vertices (a prefix of the reordered ID space).
    pub vertex_pin: usize,
    /// Number of pinned adjacency slots (a prefix of the adjacency
    /// array).
    pub edge_pin: usize,
    /// FNV-1a digest of the source the graph was built from (raw
    /// edge-list bytes or canonical binary CSR); `0` when unknown.
    pub source_digest: u64,
}

fn check_contents(c: &ArtifactContents<'_>) -> Result<(usize, usize), GraphError> {
    let n = c.graph.num_vertices();
    let m = c.graph.adjacency_len();
    if n == 0 {
        return Err(GraphError::Empty);
    }
    if c.old_id.len() != n || c.new_id.len() != n {
        return Err(GraphError::invalid(format!(
            "permutation length {} / {} does not match vertex count {n}",
            c.old_id.len(),
            c.new_id.len()
        )));
    }
    for (new, &old) in c.old_id.iter().enumerate() {
        if (old as usize) >= n || c.new_id[old as usize] as usize != new {
            return Err(GraphError::invalid(
                "old_id/new_id are not mutually inverse permutations",
            ));
        }
    }
    if !(c.tau.is_finite() && c.tau > 0.0 && c.tau <= 0.5) {
        return Err(GraphError::invalid(format!(
            "tau must be in (0, 0.5], got {}",
            c.tau
        )));
    }
    let expect_vpin = ((n as f64) * c.tau).round() as usize;
    let expect_epin = ((m as f64) * c.tau).round() as usize;
    if c.vertex_pin != expect_vpin || c.edge_pin != expect_epin {
        return Err(GraphError::invalid(format!(
            "pin counts ({}, {}) are not the tau prefixes ({expect_vpin}, {expect_epin})",
            c.vertex_pin, c.edge_pin
        )));
    }
    Ok((n, m))
}

/// Serializes `contents` into `.gra` bytes (format v1).
///
/// The encoding is canonical: equal contents always produce identical
/// bytes, which is what lets golden tests pin a whole artifact with one
/// [`fnv1a`] digest.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] when the contents are inconsistent
/// (mismatched permutation lengths, non-inverse permutations, τ out of
/// range, pin counts that are not the τ prefixes) and
/// [`GraphError::Empty`] for a vertex-free graph.
pub fn encode(contents: &ArtifactContents<'_>) -> Result<Vec<u8>, GraphError> {
    let (n, m) = check_contents(contents)?;

    let sizes = [META_LEN, (n + 1) * 8, m * 4, n * 2, n * 4, n * 4];
    let mut offsets = [0usize; SECTION_COUNT];
    let mut cursor = TOC_END;
    for (i, &size) in sizes.iter().enumerate() {
        offsets[i] = cursor;
        cursor = align_up(cursor + size);
    }
    // The file ends at the last section's payload (no trailing pad).
    let file_len = offsets[SECTION_COUNT - 1] + sizes[SECTION_COUNT - 1];

    let mut buf = vec![0u8; file_len];
    buf[0..8].copy_from_slice(&MAGIC);
    buf[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    // flags (12..16) and reserved (40..64) stay zero.
    buf[16..24].copy_from_slice(&(file_len as u64).to_le_bytes());
    buf[24..32].copy_from_slice(&(SECTION_COUNT as u64).to_le_bytes());

    for i in 0..SECTION_COUNT {
        let e = HEADER_LEN + i * TOC_ENTRY_LEN;
        buf[e..e + 8].copy_from_slice(TAGS[i]);
        buf[e + 8..e + 16].copy_from_slice(&(offsets[i] as u64).to_le_bytes());
        buf[e + 16..e + 24].copy_from_slice(&(sizes[i] as u64).to_le_bytes());
        buf[e + 24..e + 28].copy_from_slice(&WIDTHS[i].to_le_bytes());
        // entry reserved (e+28..e+32) stays zero.
    }

    let meta = [
        n as u64,
        m as u64,
        contents.tau.to_bits(),
        contents.vertex_pin as u64,
        contents.edge_pin as u64,
        contents.source_digest,
        0,
        0,
    ];
    for (i, v) in meta.iter().enumerate() {
        let at = offsets[SEC_META] + i * 8;
        buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    {
        let base = offsets[SEC_OFFSETS];
        for v in 0..n {
            let at = base + v * 8;
            let off = contents.graph.first_edge_offset(v as VertexId) as u64;
            buf[at..at + 8].copy_from_slice(&off.to_le_bytes());
        }
        let at = base + n * 8;
        buf[at..at + 8].copy_from_slice(&(m as u64).to_le_bytes());
    }
    {
        let base = offsets[SEC_ADJ];
        let mut at = base;
        for v in contents.graph.vertices() {
            for &u in contents.graph.neighbors(v) {
                buf[at..at + 4].copy_from_slice(&u.to_le_bytes());
                at += 4;
            }
        }
    }
    {
        let base = offsets[SEC_LABELS];
        for (i, &l) in contents.graph.labels().iter().enumerate() {
            let at = base + i * 2;
            buf[at..at + 2].copy_from_slice(&l.to_le_bytes());
        }
    }
    for (sec, ids) in [(SEC_OLDID, contents.old_id), (SEC_NEWID, contents.new_id)] {
        let base = offsets[sec];
        for (i, &id) in ids.iter().enumerate() {
            let at = base + i * 4;
            buf[at..at + 4].copy_from_slice(&id.to_le_bytes());
        }
    }

    let digest = fnv1a(&buf[HEADER_LEN..]);
    buf[32..40].copy_from_slice(&digest.to_le_bytes());
    Ok(buf)
}

/// Serializes `contents` and writes it to `path` atomically through
/// [`replace_file`], so concurrent readers never observe a partially
/// written artifact.
///
/// # Errors
///
/// The input errors of [`encode`] plus [`GraphError::Io`] on any
/// filesystem failure.
pub fn write_file(contents: &ArtifactContents<'_>, path: &Path) -> Result<(), GraphError> {
    let bytes = encode(contents)?;
    Ok(replace_file(path, |w| w.write_all(&bytes))?)
}

/// Replaces the file at `path` atomically with what `write` streams
/// into a buffered temp sibling, which is then fsynced and renamed over
/// `path`; the parent directory is fsynced last, so the rename itself
/// survives a power cut. The temp name carries a *(pid, per-process
/// counter)* suffix, so concurrent writers — two cache-filling threads
/// in one process, or two processes racing on the same file — each
/// write their own temp file and the last rename wins: readers see the
/// old complete file or a new complete one, never a torn write. On a
/// failure before the rename the temp file is removed and `path` is
/// untouched.
///
/// # Errors
///
/// Any I/O error from `write` or the create, fsync, rename or directory
/// sync, and [`std::io::ErrorKind::InvalidInput`] when `path` has no
/// file name. After a directory-sync error the new contents are in
/// place but may not survive a power cut.
pub fn replace_file(
    path: &Path,
    write: impl FnOnce(&mut dyn Write) -> std::io::Result<()>,
) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
    let Some(file_name) = path.file_name() else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{} has no file name", path.display()),
        ));
    };
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        WRITE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let written = std::fs::File::create(&tmp).and_then(|f| {
        let mut w = std::io::BufWriter::new(f);
        write(&mut w)?;
        let file = w
            .into_inner()
            .map_err(std::io::IntoInnerError::into_error)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)
    });
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return written;
    }
    // Without this a power cut can still lose the rename. Only Unix
    // opens a directory as a file to sync it.
    #[cfg(unix)]
    {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    }
    Ok(())
}

/// A validated, loaded `.gra` artifact.
///
/// Construction ([`open`](GraphArtifact::open) /
/// [`from_bytes`](GraphArtifact::from_bytes)) performs the *full* v1
/// validation — header, table of contents, digest, META consistency,
/// CSR invariants and permutation inverse — so every accessor after
/// that is infallible. [`verify_deep`](GraphArtifact::verify_deep) adds
/// the two semantic checks that need non-trivial recomputation
/// (adjacency symmetry and ON1 rank order).
#[derive(Debug)]
pub struct GraphArtifact {
    bytes: gramer_mmap::Bytes,
    sections: [(usize, usize); SECTION_COUNT],
    num_vertices: usize,
    adjacency_len: usize,
    tau: f64,
    vertex_pin: usize,
    edge_pin: usize,
    source_digest: u64,
    payload_digest: u64,
}

/// One table-of-contents entry, as reported by
/// [`GraphArtifact::sections`] (used by `gramer-artifact inspect`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section tag with trailing NULs stripped (e.g. `"OFFSETS"`).
    pub tag: String,
    /// Byte offset of the section payload from the start of the file.
    pub offset: u64,
    /// Payload length in bytes (padding excluded).
    pub len: u64,
    /// Element width in bytes (1, 2, 4 or 8).
    pub elem_width: u32,
}

impl SectionInfo {
    /// Number of elements in the section (`len / elem_width`).
    pub fn elems(&self) -> u64 {
        self.len / self.elem_width as u64
    }
}

impl GraphArtifact {
    /// Opens and fully validates the artifact at `path`, memory-mapping
    /// it when possible and reading it into aligned memory otherwise.
    ///
    /// # Errors
    ///
    /// [`GraphError::Io`] for filesystem failures, and the typed
    /// artifact errors ([`GraphError::ArtifactTruncated`],
    /// [`GraphError::ArtifactMagic`], [`GraphError::ArtifactVersion`],
    /// [`GraphError::ArtifactDigest`],
    /// [`GraphError::ArtifactMalformed`]) for invalid files — each
    /// naming the byte offset of the failure. Loading never panics, no
    /// matter how corrupted the file is.
    pub fn open(path: impl AsRef<Path>) -> Result<GraphArtifact, GraphError> {
        Self::parse(gramer_mmap::Bytes::load(path.as_ref(), false)?)
    }

    /// Validates an in-memory artifact (copied into aligned storage).
    ///
    /// # Errors
    ///
    /// Same validation errors as [`open`](GraphArtifact::open), minus
    /// the I/O.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<GraphArtifact, GraphError> {
        Self::parse(gramer_mmap::Bytes::copied_from(&bytes))
    }

    fn parse(bytes: gramer_mmap::Bytes) -> Result<GraphArtifact, GraphError> {
        let len = bytes.len();
        let truncated = |offset: usize, what: &str| GraphError::ArtifactTruncated {
            offset: offset as u64,
            what: what.to_string(),
        };
        let malformed = |offset: usize, what: String| GraphError::ArtifactMalformed {
            offset: offset as u64,
            what,
        };

        if len < HEADER_LEN {
            return Err(truncated(len, "64-byte header"));
        }
        let u32_at = |at: usize| -> u32 {
            let mut b = [0u8; 4];
            b.copy_from_slice(&bytes[at..at + 4]);
            u32::from_le_bytes(b)
        };
        let u64_at = |at: usize| -> u64 {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[at..at + 8]);
            u64::from_le_bytes(b)
        };

        if bytes[0..8] != MAGIC {
            let mut found = [0u8; 8];
            found.copy_from_slice(&bytes[0..8]);
            return Err(GraphError::ArtifactMagic { found });
        }
        let version = u32_at(8);
        if version != FORMAT_VERSION {
            return Err(GraphError::ArtifactVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        if u32_at(12) != 0 {
            return Err(malformed(12, "non-zero flags".to_string()));
        }
        let file_len = u64_at(16);
        if file_len > len as u64 {
            return Err(truncated(len, "bytes declared by the header length field"));
        }
        if file_len < len as u64 {
            return Err(malformed(
                file_len as usize,
                format!(
                    "{} trailing bytes past the declared file length",
                    len as u64 - file_len
                ),
            ));
        }
        let section_count = u64_at(24);
        if section_count != SECTION_COUNT as u64 {
            return Err(malformed(
                24,
                format!("v1 requires exactly {SECTION_COUNT} sections, found {section_count}"),
            ));
        }
        if bytes[40..HEADER_LEN].iter().any(|&b| b != 0) {
            return Err(malformed(40, "non-zero reserved header bytes".to_string()));
        }
        if len < TOC_END {
            return Err(truncated(len, "table of contents"));
        }

        let stored_digest = u64_at(32);
        let computed = fnv1a(&bytes[HEADER_LEN..]);
        if stored_digest != computed {
            return Err(GraphError::ArtifactDigest {
                stored: stored_digest,
                computed,
            });
        }

        // Table of contents: fixed tag order, strict canonical packing
        // (each section starts at the 8-byte alignment of the previous
        // end; padding is zero-filled).
        let mut sections = [(0usize, 0usize); SECTION_COUNT];
        let mut expected_off = TOC_END;
        for i in 0..SECTION_COUNT {
            let e = HEADER_LEN + i * TOC_ENTRY_LEN;
            if bytes[e..e + 8] != *TAGS[i] {
                return Err(malformed(
                    e,
                    format!(
                        "section {i} tag {:?}, expected {:?}",
                        String::from_utf8_lossy(&bytes[e..e + 8]),
                        String::from_utf8_lossy(TAGS[i]),
                    ),
                ));
            }
            let off = u64_at(e + 8);
            let sec_len = u64_at(e + 16);
            let width = u32_at(e + 24);
            if u32_at(e + 28) != 0 {
                return Err(malformed(e + 28, "non-zero reserved TOC bytes".to_string()));
            }
            if width != WIDTHS[i] {
                return Err(malformed(
                    e + 24,
                    format!("section {i} element width {width}, expected {}", WIDTHS[i]),
                ));
            }
            if off != expected_off as u64 {
                return Err(malformed(
                    e + 8,
                    format!("section {i} offset {off}, canonical layout requires {expected_off}"),
                ));
            }
            let off = off as usize;
            let Some(end) = sec_len
                .try_into()
                .ok()
                .and_then(|l: usize| off.checked_add(l))
                .filter(|&end| end <= len)
            else {
                return Err(truncated(len, "section payload"));
            };
            if sec_len % WIDTHS[i] as u64 != 0 {
                return Err(malformed(
                    e + 16,
                    format!("section {i} length {sec_len} not a multiple of its element width"),
                ));
            }
            sections[i] = (off, end);
            expected_off = align_up(end);
            let pad_end = expected_off.min(len);
            if bytes[end..pad_end].iter().any(|&b| b != 0) {
                return Err(malformed(end, "non-zero inter-section padding".to_string()));
            }
        }
        let last_end = sections[SECTION_COUNT - 1].1;
        if last_end != len {
            return Err(malformed(
                last_end,
                format!("file length {len} does not end at the last section ({last_end})"),
            ));
        }

        // META consistency.
        let (meta_start, meta_end) = sections[SEC_META];
        if meta_end - meta_start != META_LEN {
            return Err(malformed(
                meta_start,
                format!(
                    "META section is {} bytes, expected {META_LEN}",
                    meta_end - meta_start
                ),
            ));
        }
        let meta_u64 = |i: usize| u64_at(meta_start + i * 8);
        let n64 = meta_u64(0);
        let m64 = meta_u64(1);
        let tau = f64::from_bits(meta_u64(2));
        let vpin64 = meta_u64(3);
        let epin64 = meta_u64(4);
        let source_digest = meta_u64(5);
        if meta_u64(6) != 0 || meta_u64(7) != 0 {
            return Err(malformed(
                meta_start + 48,
                "non-zero reserved META words".to_string(),
            ));
        }
        if n64 == 0 {
            return Err(GraphError::Empty);
        }
        if n64 > VertexId::MAX as u64 {
            return Err(GraphError::VertexIdOverflow { id: n64, line: 0 });
        }
        let n = n64 as usize;
        let Ok(m) = usize::try_from(m64) else {
            return Err(malformed(
                meta_start + 8,
                format!("adjacency length {m64} overflows"),
            ));
        };
        if !(tau.is_finite() && tau > 0.0 && tau <= 0.5) {
            return Err(malformed(
                meta_start + 16,
                format!("tau {tau} outside (0, 0.5]"),
            ));
        }
        let expect_vpin = ((n as f64) * tau).round() as u64;
        let expect_epin = ((m as f64) * tau).round() as u64;
        if vpin64 != expect_vpin || epin64 != expect_epin {
            return Err(malformed(
                meta_start + 24,
                format!(
                    "pin counts ({vpin64}, {epin64}) are not the tau prefixes ({expect_vpin}, {expect_epin})"
                ),
            ));
        }

        // Cross-check section lengths against META.
        let expect_sizes = [META_LEN, (n + 1) * 8, m * 4, n * 2, n * 4, n * 4];
        for (i, &(start, end)) in sections.iter().enumerate() {
            if end - start != expect_sizes[i] {
                return Err(malformed(
                    start,
                    format!(
                        "section {i} holds {} bytes, META implies {}",
                        end - start,
                        expect_sizes[i]
                    ),
                ));
            }
        }

        let art = GraphArtifact {
            bytes,
            sections,
            num_vertices: n,
            adjacency_len: m,
            tau,
            vertex_pin: vpin64 as usize,
            edge_pin: epin64 as usize,
            source_digest,
            payload_digest: stored_digest,
        };

        // CSR structural invariants (what `CsrGraph::from_parts`
        // debug-asserts, enforced here in release builds too).
        let (off_start, _) = art.sections[SEC_OFFSETS];
        let offsets = art.offsets();
        if offsets[0] != 0 {
            return Err(malformed(
                off_start,
                "first CSR offset is not 0".to_string(),
            ));
        }
        if offsets[n] != m as u64 {
            return Err(malformed(
                off_start + n * 8,
                format!("last CSR offset {} != adjacency length {m}", offsets[n]),
            ));
        }
        for v in 0..n {
            if offsets[v] > offsets[v + 1] {
                return Err(malformed(
                    off_start + v * 8,
                    format!("CSR offsets decrease at vertex {v}"),
                ));
            }
        }
        let (adj_start, _) = art.sections[SEC_ADJ];
        let adjacency = art.adjacency();
        for v in 0..n {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            let run = &adjacency[lo..hi];
            for (i, &u) in run.iter().enumerate() {
                let at = adj_start + (lo + i) * 4;
                if u as usize >= n {
                    return Err(malformed(
                        at,
                        format!("adjacency entry {u} out of range for {n} vertices"),
                    ));
                }
                if u as usize == v {
                    return Err(malformed(at, format!("self loop at vertex {v}")));
                }
                if i > 0 && run[i - 1] >= u {
                    return Err(malformed(
                        at,
                        format!("adjacency run of vertex {v} unsorted or duplicated"),
                    ));
                }
            }
        }

        // Permutations must be mutually inverse.
        let (old_start, _) = art.sections[SEC_OLDID];
        let old_id = art.old_id();
        let new_id = art.new_id();
        for (new, &old) in old_id.iter().enumerate() {
            if old as usize >= n || new_id[old as usize] as usize != new {
                return Err(malformed(
                    old_start + new * 4,
                    format!("old_id/new_id are not inverse permutations at reordered vertex {new}"),
                ));
            }
        }

        Ok(art)
    }

    /// Number of vertices of the stored graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Length of the stored adjacency array (2 × undirected edges).
    pub fn adjacency_len(&self) -> usize {
        self.adjacency_len
    }

    /// The τ recorded at build time.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Number of pinned vertices (prefix `0..vertex_pin` of reordered
    /// IDs).
    pub fn vertex_pin(&self) -> usize {
        self.vertex_pin
    }

    /// Number of pinned adjacency slots (prefix `0..edge_pin`).
    pub fn edge_pin(&self) -> usize {
        self.edge_pin
    }

    /// FNV-1a digest of the build source, `0` when unknown.
    pub fn source_digest(&self) -> u64 {
        self.source_digest
    }

    /// The stored (and verified) FNV-1a digest of the payload — bytes
    /// `64..file_len`.
    pub fn payload_digest(&self) -> u64 {
        self.payload_digest
    }

    /// Total file length in bytes.
    pub fn file_len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the artifact is backed by a live memory map (`false` on
    /// the read-to-memory fallback path).
    pub fn is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }

    /// The table of contents, in file order.
    pub fn sections(&self) -> Vec<SectionInfo> {
        (0..SECTION_COUNT)
            .map(|i| SectionInfo {
                tag: String::from_utf8_lossy(TAGS[i])
                    .trim_end_matches('\0')
                    .to_string(),
                offset: self.sections[i].0 as u64,
                len: (self.sections[i].1 - self.sections[i].0) as u64,
                elem_width: WIDTHS[i],
            })
            .collect()
    }

    fn section(&self, i: usize) -> &[u8] {
        let (start, end) = self.sections[i];
        &self.bytes[start..end]
    }

    /// CSR row offsets, length `num_vertices + 1`. Borrowed straight
    /// from the mapping on little-endian hosts.
    pub fn offsets(&self) -> Cow<'_, [u64]> {
        le_slice_u64(self.section(SEC_OFFSETS))
    }

    /// CSR adjacency array, length `adjacency_len`.
    pub fn adjacency(&self) -> Cow<'_, [u32]> {
        le_slice_u32(self.section(SEC_ADJ))
    }

    /// Vertex labels, length `num_vertices`.
    pub fn labels(&self) -> Cow<'_, [u16]> {
        le_slice_u16(self.section(SEC_LABELS))
    }

    /// `old_id[new]` — the reordering permutation, length
    /// `num_vertices`.
    pub fn old_id(&self) -> Cow<'_, [u32]> {
        le_slice_u32(self.section(SEC_OLDID))
    }

    /// `new_id[old]` — the ON1 rank table, length `num_vertices`.
    pub fn new_id(&self) -> Cow<'_, [u32]> {
        le_slice_u32(self.section(SEC_NEWID))
    }

    /// Materializes the stored (reordered) graph as an owned
    /// [`CsrGraph`] — one bounded copy per section, no parsing.
    pub fn to_csr(&self) -> CsrGraph {
        let offsets: Vec<usize> = self.offsets().iter().map(|&o| o as usize).collect();
        let adjacency: Vec<VertexId> = self.adjacency().into_owned();
        let labels: Vec<Label> = self.labels().into_owned();
        CsrGraph::from_parts(offsets, adjacency, labels)
    }

    /// Materializes the stored graph together with its reordering
    /// permutation.
    pub fn to_reordered(&self) -> Reordered {
        Reordered {
            graph: self.to_csr(),
            new_id: self.new_id().into_owned(),
            old_id: self.old_id().into_owned(),
        }
    }

    /// The semantic checks beyond structural validity: the adjacency
    /// must be symmetric (each undirected edge stored in both rows) and
    /// the stored order must actually be an ON1 reordering (recomputed
    /// ON1 scores non-increasing in vertex ID). Run by
    /// `gramer-artifact verify`; loading alone does not pay for this.
    ///
    /// # Errors
    ///
    /// [`GraphError::ArtifactMalformed`] naming the first violation.
    pub fn verify_deep(&self) -> Result<(), GraphError> {
        let graph = self.to_csr();
        let (adj_start, _) = self.sections[SEC_ADJ];
        for v in graph.vertices() {
            for (i, &u) in graph.neighbors(v).iter().enumerate() {
                if graph.neighbors(u).binary_search(&v).is_err() {
                    let at = adj_start + (graph.first_edge_offset(v) + i) * 4;
                    return Err(GraphError::ArtifactMalformed {
                        offset: at as u64,
                        what: format!("edge {v}->{u} has no reverse entry (asymmetric CSR)"),
                    });
                }
            }
        }
        let scores = on1::on1_scores(&graph);
        let s = scores.as_slice();
        if let Some(v) = s.windows(2).position(|w| w[0] < w[1]) {
            return Err(GraphError::ArtifactMalformed {
                offset: self.sections[SEC_OFFSETS].0 as u64 + (v as u64 + 1) * 8,
                what: format!(
                    "vertex order is not an ON1 reordering: score rises from vertex {v} to {}",
                    v + 1
                ),
            });
        }
        Ok(())
    }
}

fn le_slice_u64(bytes: &[u8]) -> Cow<'_, [u64]> {
    match gramer_mmap::view_u64(bytes) {
        Some(v) => Cow::Borrowed(v),
        None => Cow::Owned(
            bytes
                .chunks_exact(8)
                .map(|c| {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(c);
                    u64::from_le_bytes(b)
                })
                .collect(),
        ),
    }
}

fn le_slice_u32(bytes: &[u8]) -> Cow<'_, [u32]> {
    match gramer_mmap::view_u32(bytes) {
        Some(v) => Cow::Borrowed(v),
        None => Cow::Owned(
            bytes
                .chunks_exact(4)
                .map(|c| {
                    let mut b = [0u8; 4];
                    b.copy_from_slice(c);
                    u32::from_le_bytes(b)
                })
                .collect(),
        ),
    }
}

fn le_slice_u16(bytes: &[u8]) -> Cow<'_, [u16]> {
    match gramer_mmap::view_u16(bytes) {
        Some(v) => Cow::Borrowed(v),
        None => Cow::Owned(
            bytes
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::reorder;

    fn sample_contents(r: &Reordered, tau: f64, source_digest: u64) -> ArtifactContents<'_> {
        ArtifactContents {
            graph: &r.graph,
            old_id: &r.old_id,
            new_id: &r.new_id,
            tau,
            vertex_pin: ((r.graph.num_vertices() as f64) * tau).round() as usize,
            edge_pin: ((r.graph.adjacency_len() as f64) * tau).round() as usize,
            source_digest,
        }
    }

    fn sample() -> (Reordered, Vec<u8>) {
        let base = generate::rmat(6, 180, generate::RmatParams::default(), 5);
        let g = generate::with_random_labels(&base, 4, 9);
        let r = reorder::reorder_by_on1(&g);
        let bytes = encode(&sample_contents(&r, 0.25, 77)).unwrap();
        (r, bytes)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (r, bytes) = sample();
        let art = GraphArtifact::from_bytes(bytes).unwrap();
        assert_eq!(art.to_csr(), r.graph);
        let back = art.to_reordered();
        assert_eq!(back.old_id, r.old_id);
        assert_eq!(back.new_id, r.new_id);
        assert_eq!(art.tau(), 0.25);
        assert_eq!(art.source_digest(), 77);
        assert_eq!(
            art.vertex_pin(),
            ((r.graph.num_vertices() as f64) * 0.25).round() as usize
        );
        art.verify_deep().unwrap();
    }

    #[test]
    fn encoding_is_canonical() {
        let (_, a) = sample();
        let (_, b) = sample();
        assert_eq!(a, b, "equal contents must produce identical bytes");
    }

    #[test]
    fn views_are_borrowed_on_little_endian() {
        let (_, bytes) = sample();
        let art = GraphArtifact::from_bytes(bytes).unwrap();
        if cfg!(target_endian = "little") {
            assert!(matches!(art.offsets(), Cow::Borrowed(_)));
            assert!(matches!(art.adjacency(), Cow::Borrowed(_)));
            assert!(matches!(art.labels(), Cow::Borrowed(_)));
        }
    }

    #[test]
    fn truncation_is_typed() {
        let (_, mut bytes) = sample();
        bytes.truncate(bytes.len() - 5);
        match GraphArtifact::from_bytes(bytes) {
            Err(GraphError::ArtifactTruncated { .. }) => {}
            other => panic!("expected truncation error, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let (_, mut bytes) = sample();
        bytes[0] = b'X';
        assert!(matches!(
            GraphArtifact::from_bytes(bytes),
            Err(GraphError::ArtifactMagic { .. })
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let (_, mut bytes) = sample();
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        match GraphArtifact::from_bytes(bytes) {
            Err(GraphError::ArtifactVersion {
                found: 2,
                supported: 1,
            }) => {}
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn payload_flip_is_a_digest_mismatch() {
        let (_, mut bytes) = sample();
        let at = bytes.len() - 3;
        bytes[at] ^= 0xFF;
        assert!(matches!(
            GraphArtifact::from_bytes(bytes),
            Err(GraphError::ArtifactDigest { .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_malformed() {
        let (_, mut bytes) = sample();
        bytes.push(0);
        assert!(matches!(
            GraphArtifact::from_bytes(bytes),
            Err(GraphError::ArtifactMalformed { .. })
        ));
    }

    #[test]
    fn writer_rejects_inconsistent_contents() {
        let g = generate::cycle(8);
        let r = reorder::reorder_by_on1(&g);
        let mut c = sample_contents(&r, 0.25, 0);
        c.vertex_pin += 1;
        assert!(matches!(
            encode(&c),
            Err(GraphError::InvalidParameter { .. })
        ));
        let mut c2 = sample_contents(&r, 0.25, 0);
        c2.tau = 0.9;
        assert!(encode(&c2).is_err());
    }

    #[test]
    fn write_file_roundtrip() {
        let (r, bytes) = sample();
        let dir = std::env::temp_dir().join(format!("gra-artifact-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.gra");
        write_file(&sample_contents(&r, 0.25, 77), &path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        let art = GraphArtifact::open(&path).unwrap();
        assert_eq!(art.to_csr(), r.graph);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replace_file_over_a_directory_fails_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("gra-replace-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let target = dir.join("occupied");
        std::fs::create_dir_all(&target).unwrap();
        assert!(replace_file(&target, |w| w.write_all(b"bytes")).is_err());
        assert!(target.is_dir(), "the directory must be left in place");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["occupied"], "no .tmp. sibling may remain");
        // A path without a file name is refused before anything is written.
        assert!(replace_file(Path::new("/"), |_| Ok(())).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
