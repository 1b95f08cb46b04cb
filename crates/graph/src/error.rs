use std::error::Error;
use std::fmt;

/// Errors produced while constructing or parsing graphs.
#[derive(Debug)]
#[non_exhaustive]
pub enum GraphError {
    /// The builder contained no vertices at all.
    Empty,
    /// A vertex ID exceeded the supported maximum (`u32::MAX - 1`).
    VertexIdOverflow {
        /// The offending ID as parsed.
        id: u64,
        /// 1-based line number in the input; `0` when the source is not
        /// line-oriented (e.g. the binary CSR format).
        line: usize,
    },
    /// An edge-list line could not be parsed.
    Parse {
        /// 1-based line number in the input.
        line: usize,
        /// The offending line content.
        content: String,
    },
    /// An I/O error while reading or writing an edge list.
    Io(std::io::Error),
    /// The number of labels supplied did not match the number of vertices.
    LabelCount {
        /// Number of labels supplied.
        labels: usize,
        /// Number of vertices in the graph.
        vertices: usize,
    },
    /// A vertex- or slot-sized array of a graph could not be allocated:
    /// the input names a vertex universe or an edge count larger than
    /// this host can hold (e.g. the edge list `0 4294967294` asks for
    /// 2^32 row offsets).
    TooLarge {
        /// Which array could not be allocated.
        what: &'static str,
        /// Bytes it would take (saturated at `u64::MAX`).
        bytes: u64,
    },
    /// A generator or builder was given an out-of-range parameter
    /// (e.g. `rmat` probabilities that do not sum to 1).
    InvalidParameter {
        /// Human-readable description of the violated invariant.
        what: String,
    },
    /// A `.gra` artifact file ended before a structure it declared.
    ArtifactTruncated {
        /// Byte offset at which the file ran out (its actual length).
        offset: u64,
        /// What the reader was trying to read there.
        what: String,
    },
    /// A file handed to the artifact loader does not start with the
    /// `.gra` magic bytes (see `gramer_graph::artifact::MAGIC`).
    ArtifactMagic {
        /// The first 8 bytes actually found.
        found: [u8; 8],
    },
    /// A `.gra` artifact uses a format version this reader does not
    /// understand.
    ArtifactVersion {
        /// Version stored in the file header.
        found: u32,
        /// The single version this reader supports.
        supported: u32,
    },
    /// The stored payload digest of a `.gra` artifact does not match its
    /// contents — the file was corrupted or tampered with.
    ArtifactDigest {
        /// Digest recorded in the header.
        stored: u64,
        /// Digest recomputed over the payload.
        computed: u64,
    },
    /// A `.gra` artifact is structurally invalid (bad table of contents,
    /// inconsistent metadata, broken CSR invariants, ...).
    ArtifactMalformed {
        /// Byte offset of the first offending value.
        offset: u64,
        /// Human-readable description of the violation.
        what: String,
    },
}

impl GraphError {
    /// Short machine-readable tag naming the variant — the `kind` field of
    /// structured failure records (see `gramer-bench`'s sweep journal).
    pub fn kind(&self) -> &'static str {
        match self {
            GraphError::Empty => "graph-empty",
            GraphError::VertexIdOverflow { .. } => "graph-id-overflow",
            GraphError::Parse { .. } => "graph-parse",
            GraphError::Io(_) => "graph-io",
            GraphError::LabelCount { .. } => "graph-label-count",
            GraphError::TooLarge { .. } => "graph-too-large",
            GraphError::InvalidParameter { .. } => "graph-parameter",
            GraphError::ArtifactTruncated { .. } => "artifact-truncated",
            GraphError::ArtifactMagic { .. } => "artifact-magic",
            GraphError::ArtifactVersion { .. } => "artifact-version",
            GraphError::ArtifactDigest { .. } => "artifact-digest",
            GraphError::ArtifactMalformed { .. } => "artifact-malformed",
        }
    }

    /// Convenience constructor for [`GraphError::InvalidParameter`].
    pub fn invalid(what: impl Into<String>) -> Self {
        GraphError::InvalidParameter { what: what.into() }
    }
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Empty => write!(f, "graph has no vertices"),
            GraphError::VertexIdOverflow { id, line: 0 } => {
                write!(f, "vertex id {id} exceeds the supported maximum")
            }
            GraphError::VertexIdOverflow { id, line } => write!(
                f,
                "vertex id {id} on line {line} exceeds the supported maximum"
            ),
            GraphError::Parse { line, content } => {
                write!(f, "cannot parse edge-list line {line}: {content:?}")
            }
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::LabelCount { labels, vertices } => write!(
                f,
                "label count {labels} does not match vertex count {vertices}"
            ),
            GraphError::TooLarge { what, bytes } => {
                write!(
                    f,
                    "graph too large: cannot allocate {bytes} bytes for {what}"
                )
            }
            GraphError::InvalidParameter { what } => {
                write!(f, "invalid parameter: {what}")
            }
            GraphError::ArtifactTruncated { offset, what } => write!(
                f,
                "artifact truncated at byte offset {offset}: expected {what}"
            ),
            GraphError::ArtifactMagic { found } => write!(
                f,
                "not a .gra artifact: magic bytes are {:?}",
                String::from_utf8_lossy(found)
            ),
            GraphError::ArtifactVersion { found, supported } => write!(
                f,
                "unsupported .gra format version {found} (this reader supports {supported})"
            ),
            GraphError::ArtifactDigest { stored, computed } => write!(
                f,
                "artifact digest mismatch: header records {stored:#018x}, payload hashes to \
                 {computed:#018x} (file corrupted?)"
            ),
            GraphError::ArtifactMalformed { offset, what } => {
                write!(f, "malformed artifact at byte offset {offset}: {what}")
            }
        }
    }
}

impl Error for GraphError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}
