//! Cross-crate tests of the `.gra` artifact pipeline (ISSUE 6
//! tentpole): round-trip exactness over many graph shapes, loader
//! robustness under seeded byte corruption, format-drift pinning via a
//! whole-file FNV digest, and mmap/copy load-path equivalence.

use gramer::{preprocess, GramerConfig, Preprocessed};
use gramer_graph::artifact::{self, GraphArtifact};
use gramer_graph::{generate, GraphBuilder, GraphError};

/// FNV-1a 64 over a whole artifact file, the digest used by the pinned
/// format test below (same function the format itself uses internally).
fn file_fnv(bytes: &[u8]) -> u64 {
    artifact::fnv1a(bytes)
}

fn golden_ba() -> gramer_graph::CsrGraph {
    generate::barabasi_albert(200, 3, 11)
}

fn encode_of(graph: &gramer_graph::CsrGraph, cfg: &GramerConfig) -> (Preprocessed, Vec<u8>) {
    let pre = preprocess(graph, cfg).unwrap();
    let bytes = artifact::encode(&pre.artifact_contents(0)).unwrap();
    (pre, bytes)
}

/// Whole-file FNV-1a of the artifact built from the golden BA workload
/// graph (`barabasi_albert(200, 3, 11)`, default config, source digest
/// 0). The `.gra` encoding is canonical, so ANY change to the v1 byte
/// layout — section order, padding, header fields, element widths —
/// moves this constant. If you changed the format deliberately, bump
/// `artifact::FORMAT_VERSION`, update `docs/FORMAT.md`, and re-pin.
const GOLDEN_BA_ARTIFACT_FNV: u64 = 0xc9b3_8a56_1d75_27fc;

#[test]
fn golden_ba_artifact_bytes_are_pinned() {
    let (_, bytes) = encode_of(&golden_ba(), &GramerConfig::default());
    assert_eq!(
        file_fnv(&bytes),
        GOLDEN_BA_ARTIFACT_FNV,
        "the .gra v1 byte layout changed; see docs/FORMAT.md before re-pinning"
    );
}

/// Round-trip property over a spread of graph shapes — power-law,
/// labeled, isolated-vertex, regular — with both the τ formula and an
/// explicit override: preprocessing resumed from an artifact must equal
/// direct preprocessing exactly (graph, permutations, τ bits, pins,
/// masks, modeled seconds).
#[test]
fn artifact_roundtrip_equals_direct_preprocess() {
    let mut shapes: Vec<(String, gramer_graph::CsrGraph)> = vec![
        ("golden-ba".into(), golden_ba()),
        (
            "rmat".into(),
            generate::rmat(7, 900, generate::RmatParams::default(), 13),
        ),
        (
            "labeled-er".into(),
            generate::with_random_labels(&generate::erdos_renyi(150, 400, 2), 5, 3),
        ),
        ("star".into(), generate::star(40)),
        ("grid".into(), generate::grid(8, 9)),
    ];
    // Isolated vertices survive the CSR round-trip (they have no edges,
    // only offset entries).
    let mut b = GraphBuilder::new();
    b.add_edge(0, 2);
    b.add_edge(2, 5); // 1, 3, 4 isolated
    shapes.push(("isolated".into(), b.build().unwrap()));

    let configs = [
        GramerConfig::default(),
        GramerConfig {
            tau: Some(0.125),
            ..GramerConfig::default()
        },
    ];
    for (name, graph) in &shapes {
        for cfg in &configs {
            let (direct, bytes) = encode_of(graph, cfg);
            let art = GraphArtifact::from_bytes(bytes).unwrap();
            let resumed = Preprocessed::from_artifact(&art, cfg).unwrap();
            let tag = format!("{name}/tau={:?}", cfg.tau);
            assert_eq!(resumed.graph, direct.graph, "{tag}: graph");
            assert_eq!(
                resumed.reordering.old_id, direct.reordering.old_id,
                "{tag}: old_id"
            );
            assert_eq!(
                resumed.reordering.new_id, direct.reordering.new_id,
                "{tag}: new_id (ON1 ranks)"
            );
            assert_eq!(resumed.tau.to_bits(), direct.tau.to_bits(), "{tag}: tau");
            assert_eq!(resumed.vertex_pin, direct.vertex_pin, "{tag}: vertex_pin");
            assert_eq!(resumed.edge_pin, direct.edge_pin, "{tag}: edge_pin");
            assert_eq!(
                resumed.vertex_pin_mask, direct.vertex_pin_mask,
                "{tag}: vertex mask"
            );
            assert_eq!(
                resumed.edge_pin_mask, direct.edge_pin_mask,
                "{tag}: edge mask"
            );
            assert_eq!(
                resumed.preprocess_seconds.to_bits(),
                direct.preprocess_seconds.to_bits(),
                "{tag}: modeled preprocess seconds"
            );
            art.verify_deep().unwrap();
        }
    }
}

/// Seeded byte-level corruption of a valid artifact: the loader must
/// never panic, and — because every byte of a `.gra` file is covered by
/// either a header check or the payload digest — every corrupted load
/// must fail with a typed `artifact-*` error.
#[test]
fn corrupted_artifacts_never_panic_and_errors_are_typed() {
    let (_, base) = encode_of(
        &generate::barabasi_albert(60, 2, 21),
        &GramerConfig::default(),
    );
    assert!(GraphArtifact::from_bytes(base.clone()).is_ok());

    // Same deterministic LCG as the edge-list corruption test.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };

    for round in 0..500 {
        let mut buf = base.clone();
        let mut changed = false;
        if round % 5 == 4 {
            // Truncation round: cut the tail off at a random point.
            let keep = next() as usize % buf.len();
            buf.truncate(keep);
            changed = keep < base.len();
        } else {
            let flips = 1 + (next() as usize % 4);
            for _ in 0..flips {
                let i = next() as usize % buf.len();
                let v = (next() & 0xFF) as u8;
                changed |= buf[i] != v;
                buf[i] = v;
            }
        }
        if !changed {
            continue;
        }
        match GraphArtifact::from_bytes(buf) {
            Ok(_) => panic!("round {round}: corrupted artifact loaded successfully"),
            Err(e) => {
                let kind = e.kind();
                assert!(
                    kind.starts_with("artifact-"),
                    "round {round}: expected a typed artifact error, got {kind} ({e})"
                );
                assert!(!e.to_string().is_empty());
            }
        }
    }
}

/// The typed failure taxonomy, one representative per variant, each
/// carrying a byte offset (or equivalent locator) in its message.
#[test]
fn loader_failures_name_their_variant_and_offset() {
    let (_, base) = encode_of(&generate::cycle(30), &GramerConfig::default());

    // Truncated mid-section.
    let mut t = base.clone();
    t.truncate(300);
    match GraphArtifact::from_bytes(t) {
        Err(GraphError::ArtifactTruncated { offset, .. }) => assert_eq!(offset, 300),
        other => panic!("expected truncation, got {other:?}"),
    }

    // Wrong magic.
    let mut m = base.clone();
    m[0..8].copy_from_slice(b"NOTGRAAF");
    assert!(matches!(
        GraphArtifact::from_bytes(m),
        Err(GraphError::ArtifactMagic { .. })
    ));

    // Future version.
    let mut v = base.clone();
    v[8..12].copy_from_slice(&7u32.to_le_bytes());
    match GraphArtifact::from_bytes(v) {
        Err(GraphError::ArtifactVersion { found, supported }) => {
            assert_eq!((found, supported), (7, artifact::FORMAT_VERSION));
        }
        other => panic!("expected version error, got {other:?}"),
    }

    // Payload bit-rot -> digest mismatch.
    let mut d = base.clone();
    let mid = base.len() / 2;
    d[mid] ^= 0x40;
    match GraphArtifact::from_bytes(d) {
        Err(GraphError::ArtifactDigest { stored, computed }) => assert_ne!(stored, computed),
        other => panic!("expected digest mismatch, got {other:?}"),
    }

    // Structural damage with a fixed-up digest -> malformed, with the
    // offending offset in the message.
    let mut s = base.clone();
    // Break the first CSR offset (must be 0) inside the OFFSETS section
    // at byte 320 (256 header+TOC ... META is 64 bytes at 256).
    s[320] = 1;
    let digest = artifact::fnv1a(&s[64..]);
    s[32..40].copy_from_slice(&digest.to_le_bytes());
    match GraphArtifact::from_bytes(s) {
        Err(GraphError::ArtifactMalformed { offset, what }) => {
            assert_eq!(offset, 320);
            assert!(what.contains("offset"), "message was {what:?}");
        }
        other => panic!("expected malformed, got {other:?}"),
    }
}

/// `GraphArtifact::open` (memory-mapped) and `GraphArtifact::from_bytes`
/// over the file's bytes (the aligned owned storage the read-to-memory
/// fallback builds) must expose identical contents, and both must pass
/// the deep verification `gramer-artifact verify` runs, on both golden
/// workloads.
#[test]
fn mmap_and_copy_load_paths_agree() {
    let dir = std::env::temp_dir().join(format!("gra-loadpath-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for name in ["golden-ba", "golden-rmat"] {
        let (_, bytes) = encode_of(&generate::named(name).unwrap(), &GramerConfig::default());
        let path = dir.join(format!("{name}.gra"));
        std::fs::write(&path, &bytes).unwrap();

        let mapped = GraphArtifact::open(&path).unwrap();
        let copied = GraphArtifact::from_bytes(std::fs::read(&path).unwrap()).unwrap();

        assert!(!copied.is_mapped(), "{name}");
        for (how, art) in [("mapped", &mapped), ("copied", &copied)] {
            art.verify_deep()
                .unwrap_or_else(|e| panic!("{name} ({how}): {e}"));
        }
        assert_eq!(mapped.payload_digest(), copied.payload_digest(), "{name}");
        assert_eq!(&*mapped.offsets(), &*copied.offsets(), "{name}");
        assert_eq!(&*mapped.adjacency(), &*copied.adjacency(), "{name}");
        assert_eq!(&*mapped.labels(), &*copied.labels(), "{name}");
        assert_eq!(&*mapped.old_id(), &*copied.old_id(), "{name}");
        assert_eq!(&*mapped.new_id(), &*copied.new_id(), "{name}");
        assert_eq!(mapped.to_csr(), copied.to_csr(), "{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
