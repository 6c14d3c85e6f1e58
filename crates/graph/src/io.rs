//! Graph serialization: Graphviz DOT export, a simple whitespace edge
//! list format (`a b weight` per line) for interchange with plotting
//! tools, and the versioned binary snapshot format ([`Snapshot`]) that
//! makes million-router topologies cheap to reload.

use crate::csr::CsrGraph;
use crate::graph::{EdgeId, Graph, NodeId};
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::path::Path;

/// Renders the graph in Graphviz DOT format.
///
/// `node_attr` and `edge_attr` return raw DOT attribute strings (e.g.
/// `label="pop", shape=box`); return an empty string for no attributes.
pub fn to_dot<N, E>(
    g: &Graph<N, E>,
    mut node_attr: impl FnMut(NodeId, &N) -> String,
    mut edge_attr: impl FnMut(EdgeId, &E) -> String,
) -> String {
    let mut out = String::from("graph topology {\n");
    for v in g.node_ids() {
        let attrs = node_attr(v, g.node_weight(v));
        if attrs.is_empty() {
            let _ = writeln!(out, "  {};", v.index());
        } else {
            let _ = writeln!(out, "  {} [{}];", v.index(), attrs);
        }
    }
    for (e, a, b, w) in g.edges() {
        let attrs = edge_attr(e, w);
        if attrs.is_empty() {
            let _ = writeln!(out, "  {} -- {};", a.index(), b.index());
        } else {
            let _ = writeln!(out, "  {} -- {} [{}];", a.index(), b.index(), attrs);
        }
    }
    out.push_str("}\n");
    out
}

/// Writes `a b weight` lines, one per edge, with `weight` produced by `f`.
pub fn to_edge_list<N, E>(g: &Graph<N, E>, mut f: impl FnMut(&E) -> f64) -> String {
    let mut out = String::new();
    for (_, a, b, w) in g.edges() {
        let _ = writeln!(out, "{} {} {}", a.index(), b.index(), f(w));
    }
    out
}

/// Errors from [`from_edge_list`].
#[derive(Clone, Debug, PartialEq)]
pub enum ParseError {
    /// A line did not have 2 or 3 whitespace-separated fields.
    BadLine { line: usize },
    /// A field failed to parse as the expected number.
    BadNumber { line: usize, field: String },
    /// A node id at or above [`MAX_EDGE_LIST_ID`]: the node count
    /// `1 + id` would not fit the `u32` node id space.
    NodeIdTooLarge { line: usize, id: usize },
    /// An edge from a node to itself, which [`Graph`] does not allow.
    SelfLoop { line: usize, node: usize },
}

/// Exclusive upper bound on edge-list node ids, so that the node count
/// (1 + the largest id) is itself a valid `u32`.
pub const MAX_EDGE_LIST_ID: usize = u32::MAX as usize;

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadLine { line } => write!(f, "line {}: expected 'a b [weight]'", line),
            ParseError::BadNumber { line, field } => {
                write!(f, "line {}: cannot parse '{}'", line, field)
            }
            ParseError::NodeIdTooLarge { line, id } => write!(
                f,
                "line {}: node id {} exceeds the maximum {}",
                line,
                id,
                MAX_EDGE_LIST_ID - 1
            ),
            ParseError::SelfLoop { line, node } => {
                write!(f, "line {}: self-loop on node {}", line, node)
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses an edge list (`a b` or `a b weight` per line; `#` comments and
/// blank lines ignored). Node count is 1 + the largest mentioned index.
/// Missing weights default to 1.0. Ids at or above [`MAX_EDGE_LIST_ID`]
/// and self-loops are rejected with their line number.
pub fn from_edge_list(text: &str) -> Result<Graph<(), f64>, ParseError> {
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    let mut max_node = None::<usize>;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 2 && fields.len() != 3 {
            return Err(ParseError::BadLine { line: line_no });
        }
        let parse_id = |s: &str| {
            let id = s.parse::<usize>().map_err(|_| ParseError::BadNumber {
                line: line_no,
                field: s.to_string(),
            })?;
            if id >= MAX_EDGE_LIST_ID {
                return Err(ParseError::NodeIdTooLarge { line: line_no, id });
            }
            Ok(id)
        };
        let a = parse_id(fields[0])?;
        let b = parse_id(fields[1])?;
        if a == b {
            return Err(ParseError::SelfLoop {
                line: line_no,
                node: a,
            });
        }
        let w = if fields.len() == 3 {
            fields[2]
                .parse::<f64>()
                .map_err(|_| ParseError::BadNumber {
                    line: line_no,
                    field: fields[2].to_string(),
                })?
        } else {
            1.0
        };
        max_node = Some(max_node.map_or(a.max(b), |m: usize| m.max(a).max(b)));
        edges.push((a, b, w));
    }
    let n = max_node.map_or(0, |m| m + 1);
    Ok(Graph::from_edges(n, edges))
}

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"HOTSNAP\0";

/// Current snapshot format version. Version 2 added the per-edge f64
/// column section (capacities, weights); version-1 files still load,
/// with no edge f64 columns.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Errors from [`Snapshot::save`] / [`Snapshot::load`].
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file's version is not one this build can read.
    BadVersion(u32),
    /// Structural damage: truncated section, checksum mismatch,
    /// inconsistent lengths, or an invalid CSR.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {}", e),
            SnapshotError::BadMagic => write!(f, "not a HOTSNAP snapshot"),
            SnapshotError::BadVersion(v) => {
                write!(
                    f,
                    "snapshot version {} unsupported (max {})",
                    v, SNAPSHOT_VERSION
                )
            }
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {}", why),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// FNV-1a 64-bit over a byte slice — the snapshot trailer checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A CSR topology plus named metadata columns, serializable as one
/// self-validating binary file.
///
/// Layout (all integers little-endian):
///
/// ```text
/// magic[8] = "HOTSNAP\0"
/// version: u32          n: u64            entries: u64
/// offsets: (n+1) × u32  targets: entries × u32  edge_ids: entries × u32
/// node u32 columns: count u32, then per column name_len u32 + name + n × u32
/// node f64 columns: same shape, n × f64 (bit patterns)
/// edge u32 columns: same shape, (entries/2) × u32
/// edge f64 columns: same shape, (entries/2) × f64 (version ≥ 2 only)
/// checksum: u64 = FNV-1a over every preceding byte
/// ```
///
/// Node columns hold one value per node; edge columns one value per
/// *edge* (half the adjacency entry count, indexed by `EdgeId`). f64
/// columns round-trip bit patterns, so reloading is byte-reproducible.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// The topology.
    pub csr: CsrGraph,
    /// Named per-node u32 columns (e.g. roles, levels).
    pub node_u32: Vec<(String, Vec<u32>)>,
    /// Named per-node f64 columns (e.g. positions, masses).
    pub node_f64: Vec<(String, Vec<f64>)>,
    /// Named per-edge u32 columns (e.g. link classes).
    pub edge_u32: Vec<(String, Vec<u32>)>,
    /// Named per-edge f64 columns (e.g. capacities), indexed by
    /// `EdgeId` like the u32 edge columns. Absent in version-1 files.
    pub edge_f64: Vec<(String, Vec<f64>)>,
}

impl Snapshot {
    /// Wraps a bare topology with no metadata columns.
    pub fn new(csr: CsrGraph) -> Self {
        Snapshot {
            csr,
            node_u32: Vec::new(),
            node_f64: Vec::new(),
            edge_u32: Vec::new(),
            edge_f64: Vec::new(),
        }
    }

    /// Serializes to bytes (including the checksum trailer).
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.csr.node_count();
        let entries = self.csr.targets().len();
        for (name, col) in &self.node_u32 {
            assert_eq!(col.len(), n, "node u32 column '{}' length", name);
        }
        for (name, col) in &self.node_f64 {
            assert_eq!(col.len(), n, "node f64 column '{}' length", name);
        }
        for (name, col) in &self.edge_u32 {
            assert_eq!(col.len(), entries / 2, "edge u32 column '{}' length", name);
        }
        for (name, col) in &self.edge_f64 {
            assert_eq!(col.len(), entries / 2, "edge f64 column '{}' length", name);
        }
        let mut out = Vec::with_capacity(64 + 4 * (n + 1) + 8 * entries);
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(n as u64).to_le_bytes());
        out.extend_from_slice(&(entries as u64).to_le_bytes());
        for &o in self.csr.offsets() {
            out.extend_from_slice(&o.to_le_bytes());
        }
        for t in self.csr.targets() {
            out.extend_from_slice(&t.0.to_le_bytes());
        }
        for e in self.csr.edge_ids_raw() {
            out.extend_from_slice(&e.0.to_le_bytes());
        }
        let write_cols = |out: &mut Vec<u8>, cols: &[(String, Vec<u32>)]| {
            out.extend_from_slice(&(cols.len() as u32).to_le_bytes());
            for (name, col) in cols {
                out.extend_from_slice(&(name.len() as u32).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
                for &v in col {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        };
        write_cols(&mut out, &self.node_u32);
        out.extend_from_slice(&(self.node_f64.len() as u32).to_le_bytes());
        for (name, col) in &self.node_f64 {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            for &v in col {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        write_cols(&mut out, &self.edge_u32);
        out.extend_from_slice(&(self.edge_f64.len() as u32).to_le_bytes());
        for (name, col) in &self.edge_f64 {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            for &v in col {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parses bytes produced by [`Snapshot::to_bytes`], verifying the
    /// checksum and every structural invariant.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let corrupt = |why: &str| SnapshotError::Corrupt(why.to_string());
        if bytes.len() < SNAPSHOT_MAGIC.len() || &bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < 8 + 4 + 8 {
            return Err(corrupt("truncated header"));
        }
        let payload_len = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[payload_len..].try_into().unwrap());
        if fnv1a(&bytes[..payload_len]) != stored {
            return Err(corrupt("checksum mismatch"));
        }
        let mut pos = 8usize;
        // Every length below comes from the file, so sizes use checked
        // arithmetic and are bounded by the payload before allocating.
        let take = |pos: &mut usize, k: usize| -> Result<&[u8], SnapshotError> {
            let end = pos
                .checked_add(k)
                .filter(|&end| end <= payload_len)
                .ok_or_else(|| SnapshotError::Corrupt("truncated section".to_string()))?;
            let s = &bytes[*pos..end];
            *pos = end;
            Ok(s)
        };
        // `count` items of `width` bytes each.
        let take_items = |pos: &mut usize, count: usize, width: usize| {
            let k = count
                .checked_mul(width)
                .ok_or_else(|| SnapshotError::Corrupt("section size overflows".to_string()))?;
            take(pos, k)
        };
        let read_u32 = |pos: &mut usize| -> Result<u32, SnapshotError> {
            Ok(u32::from_le_bytes(take(pos, 4)?.try_into().unwrap()))
        };
        let read_u64 = |pos: &mut usize| -> Result<u64, SnapshotError> {
            Ok(u64::from_le_bytes(take(pos, 8)?.try_into().unwrap()))
        };
        let version = read_u32(&mut pos)?;
        if version == 0 || version > SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let n = read_u64(&mut pos)?;
        let entries = read_u64(&mut pos)?;
        // The CSR arrays alone need 4(n + 1) + 8·entries bytes: reject
        // counts the payload cannot hold before allocating anything.
        let csr_bytes = n
            .checked_add(1)
            .and_then(|k| k.checked_mul(4))
            .zip(entries.checked_mul(8))
            .and_then(|(a, b)| a.checked_add(b));
        if csr_bytes.is_none_or(|b| b > (payload_len - pos) as u64) {
            return Err(corrupt("node or entry count exceeds the payload"));
        }
        // Both fit in usize now: they are bounded by the payload length.
        let (n, entries) = (n as usize, entries as usize);
        let read_u32_vec = |pos: &mut usize, k: usize| -> Result<Vec<u32>, SnapshotError> {
            let raw = take_items(pos, k, 4)?;
            Ok(raw
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect())
        };
        let offsets = read_u32_vec(&mut pos, n + 1)?;
        let targets: Vec<NodeId> = read_u32_vec(&mut pos, entries)?
            .into_iter()
            .map(NodeId)
            .collect();
        let edge_ids: Vec<EdgeId> = read_u32_vec(&mut pos, entries)?
            .into_iter()
            .map(EdgeId)
            .collect();
        let csr =
            CsrGraph::from_raw_parts(offsets, targets, edge_ids).map_err(SnapshotError::Corrupt)?;
        let read_name = |pos: &mut usize| -> Result<String, SnapshotError> {
            let len = read_u32(pos)? as usize;
            let raw = take(pos, len)?;
            String::from_utf8(raw.to_vec())
                .map_err(|_| SnapshotError::Corrupt("non-UTF-8 column name".to_string()))
        };
        let mut node_u32 = Vec::new();
        for _ in 0..read_u32(&mut pos)? {
            let name = read_name(&mut pos)?;
            node_u32.push((name, read_u32_vec(&mut pos, n)?));
        }
        let mut node_f64 = Vec::new();
        for _ in 0..read_u32(&mut pos)? {
            let name = read_name(&mut pos)?;
            let raw = take_items(&mut pos, n, 8)?;
            let col: Vec<f64> = raw
                .chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
                .collect();
            node_f64.push((name, col));
        }
        let mut edge_u32 = Vec::new();
        for _ in 0..read_u32(&mut pos)? {
            let name = read_name(&mut pos)?;
            edge_u32.push((name, read_u32_vec(&mut pos, entries / 2)?));
        }
        // Version 1 predates the edge f64 section; such files simply end
        // after the edge u32 columns.
        let mut edge_f64 = Vec::new();
        if version >= 2 {
            for _ in 0..read_u32(&mut pos)? {
                let name = read_name(&mut pos)?;
                let raw = take_items(&mut pos, entries / 2, 8)?;
                let col: Vec<f64> = raw
                    .chunks_exact(8)
                    .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
                    .collect();
                edge_f64.push((name, col));
            }
        }
        if pos != payload_len {
            return Err(corrupt("trailing bytes after last section"));
        }
        Ok(Snapshot {
            csr,
            node_u32,
            node_f64,
            edge_u32,
            edge_f64,
        })
    }

    /// Writes the snapshot to `path` (atomically: temp file + rename).
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        let bytes = self.to_bytes();
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads and validates a snapshot from `path`.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        Snapshot::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn triangle() -> Graph<(), f64> {
        Graph::from_edges(3, vec![(0, 1, 1.5), (1, 2, 2.5), (0, 2, 3.5)])
    }

    #[test]
    fn dot_contains_all_elements() {
        let g = triangle();
        let dot = to_dot(&g, |_, _| String::new(), |_, w| format!("label=\"{}\"", w));
        assert!(dot.starts_with("graph topology {"));
        assert!(dot.contains("0 -- 1 [label=\"1.5\"];"));
        assert!(dot.contains("1 -- 2"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_node_attributes() {
        let mut g: Graph<&str, f64> = Graph::new();
        let a = g.add_node("core");
        let b = g.add_node("leaf");
        g.add_edge(a, b, 1.0);
        let dot = to_dot(&g, |_, w| format!("label=\"{}\"", w), |_, _| String::new());
        assert!(dot.contains("0 [label=\"core\"];"));
        assert!(dot.contains("1 [label=\"leaf\"];"));
        assert!(dot.contains("0 -- 1;"));
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = triangle();
        let text = to_edge_list(&g, |w| *w);
        let h = from_edge_list(&text).unwrap();
        assert_eq!(h.node_count(), 3);
        assert_eq!(h.edge_count(), 3);
        assert!((h.total_edge_weight(|w| *w) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let text = "# a comment\n\n0 1\n1 2 4.0\n";
        let g = from_edge_list(text).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!((*g.edge_weight(crate::graph::EdgeId(0)) - 1.0).abs() < 1e-12);
        assert!((*g.edge_weight(crate::graph::EdgeId(1)) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn parse_errors_are_located() {
        assert_eq!(
            from_edge_list("0 1\nnonsense\n").unwrap_err(),
            ParseError::BadLine { line: 2 }
        );
        assert_eq!(
            from_edge_list("0 x").unwrap_err(),
            ParseError::BadNumber {
                line: 1,
                field: "x".into()
            }
        );
        assert_eq!(
            from_edge_list("0 1 notafloat").unwrap_err(),
            ParseError::BadNumber {
                line: 1,
                field: "notafloat".into()
            }
        );
    }

    #[test]
    fn parse_rejects_id_overflowing_node_count() {
        assert_eq!(
            from_edge_list("0 18446744073709551615").unwrap_err(),
            ParseError::NodeIdTooLarge {
                line: 1,
                id: usize::MAX
            }
        );
    }

    #[test]
    fn parse_rejects_ids_beyond_u32() {
        // Previously truncated to `id as u32` by `Graph::from_edges`.
        for id in [u32::MAX as usize, u32::MAX as usize + 1] {
            assert_eq!(
                from_edge_list(&format!("0 1\n{} 0 2.0\n", id)).unwrap_err(),
                ParseError::NodeIdTooLarge { line: 2, id }
            );
        }
    }

    #[test]
    fn parse_rejects_self_loops() {
        assert_eq!(
            from_edge_list("0 1\n3 3\n").unwrap_err(),
            ParseError::SelfLoop { line: 2, node: 3 }
        );
    }

    #[test]
    fn parse_empty_is_empty_graph() {
        let g = from_edge_list("").unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    fn sample_snapshot() -> Snapshot {
        let g: Graph<(), ()> = Graph::from_edges(
            5,
            vec![(0, 1, ()), (1, 2, ()), (2, 3, ()), (3, 4, ()), (4, 0, ())],
        );
        let mut s = Snapshot::new(CsrGraph::from_graph(&g));
        s.node_u32.push(("role".into(), vec![0, 1, 1, 2, 2]));
        s.node_f64
            .push(("pos_x".into(), vec![0.0, 1.5, -2.25, f64::MAX, 1e-300]));
        s.edge_u32.push(("class".into(), vec![9, 8, 7, 6, 5]));
        s.edge_f64
            .push(("capacity".into(), vec![45.0, 155.0, 622.0, 2488.0, 9953.0]));
        s
    }

    /// Version-1 files (no edge f64 section) still load, with
    /// `edge_f64` empty. Built by stripping the (empty) edge f64
    /// section from a version-2 serialization and re-stamping
    /// version + checksum.
    #[test]
    fn snapshot_reads_version_1() {
        let mut s = sample_snapshot();
        s.edge_f64.clear();
        let v2 = s.to_bytes();
        // Drop the 4-byte zero edge-f64 count and the 8-byte checksum.
        let mut v1 = v2[..v2.len() - 12].to_vec();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        let sum = super::fnv1a(&v1);
        v1.extend_from_slice(&sum.to_le_bytes());
        let back = Snapshot::from_bytes(&v1).unwrap();
        assert_eq!(back, s);
        // Re-saving writes the current version, not the one read.
        assert_eq!(back.to_bytes(), v2);
    }

    #[test]
    fn snapshot_bytes_roundtrip() {
        let s = sample_snapshot();
        let bytes = s.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        // Re-serialization is byte-stable.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn snapshot_file_roundtrip() {
        let dir = std::env::temp_dir().join("hotsnap-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ring.snap");
        let s = sample_snapshot();
        s.save(&path).unwrap();
        let back = Snapshot::load(&path).unwrap();
        assert_eq!(back, s);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshot_empty_graph_roundtrip() {
        let g: Graph<(), ()> = Graph::new();
        let s = Snapshot::new(CsrGraph::from_graph(&g));
        let back = Snapshot::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back.csr.node_count(), 0);
    }

    #[test]
    fn snapshot_rejects_damage() {
        let s = sample_snapshot();
        let good = s.to_bytes();

        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::BadMagic)
        ));

        // Future version (checksum recomputed so only the version trips).
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        let len = bad.len() - 8;
        let sum = super::fnv1a(&bad[..len]);
        bad[len..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::BadVersion(99))
        ));

        // Single flipped payload byte -> checksum mismatch.
        let mut bad = good.clone();
        bad[40] ^= 0x01;
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::Corrupt(_))
        ));

        // Truncation.
        assert!(matches!(
            Snapshot::from_bytes(&good[..good.len() - 9]),
            Err(SnapshotError::Corrupt(_))
        ));
        assert!(matches!(
            Snapshot::from_bytes(&good[..4]),
            Err(SnapshotError::BadMagic)
        ));
    }

    /// A minimal 36-byte file: header with the given counts, no
    /// sections, and a valid checksum, so only the counts can trip.
    fn hostile_header(n: u64, entries: u64) -> Vec<u8> {
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&n.to_le_bytes());
        bytes.extend_from_slice(&entries.to_le_bytes());
        let sum = super::fnv1a(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn snapshot_rejects_node_count_overflowing_section_size() {
        // 4 * (n + 1) overflows usize.
        let bytes = hostile_header(1 << 62, 0);
        assert_eq!(bytes.len(), 36);
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn snapshot_rejects_node_count_overflowing_offsets_length() {
        // n + 1 overflows usize.
        assert!(matches!(
            Snapshot::from_bytes(&hostile_header(u64::MAX, 0)),
            Err(SnapshotError::Corrupt(_))
        ));
        assert!(matches!(
            Snapshot::from_bytes(&hostile_header(0, u64::MAX)),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn snapshot_rejects_counts_beyond_payload() {
        // Representable sizes that the (empty) payload cannot hold are
        // rejected before the offset array is allocated.
        assert!(matches!(
            Snapshot::from_bytes(&hostile_header(1 << 40, 1 << 40)),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    #[should_panic(expected = "column 'role' length")]
    fn snapshot_checks_column_lengths() {
        let mut s = sample_snapshot();
        s.node_u32[0].1.pop();
        s.to_bytes();
    }
}
