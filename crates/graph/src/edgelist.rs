//! SNAP-style edge-list reading and writing.
//!
//! The paper's eight datasets are distributed as whitespace-separated edge
//! lists with `#` comment lines (the SNAP format). This module parses that
//! format, optionally with a third column carrying the propagation
//! probability, and can write graphs back out in the same shape so the
//! dataset stand-ins can be exported and inspected.
//!
//! Vertex ids in the input may be sparse (SNAP files frequently skip ids);
//! the loader compacts them into dense `0..n` ids and returns the mapping.

use crate::builder::SelfLoopPolicy;
use crate::{DiGraph, GraphBuilder, GraphError, Result, VertexId};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Options controlling edge-list parsing.
#[derive(Clone, Debug)]
pub struct EdgeListOptions {
    /// Treat every line `u v [p]` as two directed edges `u->v` and `v->u`
    /// (for the undirected datasets Facebook, DBLP and Youtube, §VI-A).
    pub undirected: bool,
    /// Probability assigned to edges without an explicit third column.
    pub default_probability: f64,
    /// Self-loop handling (SNAP data occasionally contains them).
    pub self_loops: SelfLoopPolicy,
    /// When `true`, original (possibly sparse) vertex ids are compacted into
    /// dense ids in first-seen order; when `false`, ids are taken literally
    /// and the vertex count is `max_id + 1`.
    pub compact_ids: bool,
}

impl Default for EdgeListOptions {
    fn default() -> Self {
        EdgeListOptions {
            undirected: false,
            default_probability: 1.0,
            self_loops: SelfLoopPolicy::Drop,
            compact_ids: true,
        }
    }
}

/// The result of loading an edge list: the graph plus the mapping from the
/// original file ids to dense [`VertexId`]s.
#[derive(Clone, Debug)]
pub struct LoadedEdgeList {
    /// The parsed graph.
    pub graph: DiGraph,
    /// `original_ids[dense] = id as it appeared in the file`.
    pub original_ids: Vec<u64>,
}

/// Parses an edge list from any reader.
///
/// Each non-comment line must contain `source target [probability]`,
/// whitespace separated. Lines starting with `#` or `%` and blank lines are
/// ignored.
///
/// # Errors
/// Returns a [`GraphError::ParseError`] describing the offending line, or an
/// I/O error from the underlying reader.
pub fn read_edge_list<R: Read>(reader: R, options: &EdgeListOptions) -> Result<LoadedEdgeList> {
    let buf = BufReader::new(reader);
    let mut id_map: HashMap<u64, u32> = HashMap::new();
    let mut original_ids: Vec<u64> = Vec::new();
    let mut builder = GraphBuilder::new(0)
        .grow_to_fit(true)
        .self_loop_policy(options.self_loops);

    let mut intern = |raw: u64, original_ids: &mut Vec<u64>| -> VertexId {
        if options.compact_ids {
            let next = id_map.len() as u32;
            let dense = *id_map.entry(raw).or_insert_with(|| {
                original_ids.push(raw);
                next
            });
            VertexId::from_raw(dense)
        } else {
            VertexId::new(raw as usize)
        }
    };

    for (lineno, line) in buf.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let parse_id = |tok: Option<&str>, what: &str| -> Result<u64> {
            let tok = tok.ok_or_else(|| GraphError::ParseError {
                line: lineno + 1,
                message: format!("missing {what} vertex id"),
            })?;
            tok.parse::<u64>().map_err(|_| GraphError::ParseError {
                line: lineno + 1,
                message: format!("invalid {what} vertex id `{tok}`"),
            })
        };
        let src = parse_id(parts.next(), "source")?;
        let dst = parse_id(parts.next(), "target")?;
        let prob = match parts.next() {
            Some(tok) => tok.parse::<f64>().map_err(|_| GraphError::ParseError {
                line: lineno + 1,
                message: format!("invalid probability `{tok}`"),
            })?,
            None => options.default_probability,
        };
        if parts.next().is_some() {
            return Err(GraphError::ParseError {
                line: lineno + 1,
                message: "too many columns (expected `source target [probability]`)".into(),
            });
        }
        let u = intern(src, &mut original_ids);
        let v = intern(dst, &mut original_ids);
        if options.undirected {
            builder.add_undirected_edge(u, v, prob)?;
        } else {
            builder.add_edge(u, v, prob)?;
        }
    }

    if !options.compact_ids {
        // Identity mapping over the literal id space.
        original_ids = (0..builder.num_vertices() as u64).collect();
    }
    Ok(LoadedEdgeList {
        graph: builder.build(),
        original_ids,
    })
}

/// Parses an edge list held in a string. Convenience wrapper over
/// [`read_edge_list`] used heavily in tests and documentation examples.
pub fn parse_edge_list(text: &str, options: &EdgeListOptions) -> Result<LoadedEdgeList> {
    read_edge_list(text.as_bytes(), options)
}

/// Loads an edge list from a file path.
pub fn load_edge_list(path: impl AsRef<Path>, options: &EdgeListOptions) -> Result<LoadedEdgeList> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file, options)
}

/// Writes a graph as a `source target probability` edge list.
pub fn write_edge_list<W: Write>(graph: &DiGraph, mut writer: W) -> Result<()> {
    writeln!(
        writer,
        "# vertices {} edges {}",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for e in graph.edges() {
        writeln!(writer, "{}\t{}\t{}", e.source, e.target, e.probability)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_snap_format() {
        let text = "# comment line\n% another comment\n\n0 1\n1 2\n2 0\n";
        let loaded = parse_edge_list(text, &EdgeListOptions::default()).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 3);
        assert_eq!(loaded.graph.num_edges(), 3);
        assert_eq!(
            loaded
                .graph
                .edge_probability(VertexId::new(0), VertexId::new(1)),
            Some(1.0)
        );
    }

    #[test]
    fn parses_probability_column_and_tabs() {
        let text = "0\t1\t0.25\n1\t2\t0.5\n";
        let loaded = parse_edge_list(text, &EdgeListOptions::default()).unwrap();
        assert_eq!(
            loaded
                .graph
                .edge_probability(VertexId::new(0), VertexId::new(1)),
            Some(0.25)
        );
    }

    #[test]
    fn compacts_sparse_ids_and_records_mapping() {
        let text = "100 200\n200 50\n";
        let loaded = parse_edge_list(text, &EdgeListOptions::default()).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 3);
        assert_eq!(loaded.original_ids, vec![100, 200, 50]);
    }

    #[test]
    fn literal_ids_when_compacting_disabled() {
        let text = "0 3\n";
        let opts = EdgeListOptions {
            compact_ids: false,
            ..Default::default()
        };
        let loaded = parse_edge_list(text, &opts).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 4);
        assert_eq!(loaded.original_ids.len(), 4);
    }

    #[test]
    fn undirected_mode_doubles_edges() {
        let text = "0 1\n1 2\n";
        let opts = EdgeListOptions {
            undirected: true,
            ..Default::default()
        };
        let loaded = parse_edge_list(text, &opts).unwrap();
        assert_eq!(loaded.graph.num_edges(), 4);
        assert!(loaded.graph.has_edge(VertexId::new(1), VertexId::new(0)));
    }

    #[test]
    fn default_probability_is_applied() {
        let opts = EdgeListOptions {
            default_probability: 0.01,
            ..Default::default()
        };
        let loaded = parse_edge_list("0 1\n", &opts).unwrap();
        assert_eq!(
            loaded
                .graph
                .edge_probability(VertexId::new(0), VertexId::new(1)),
            Some(0.01)
        );
    }

    #[test]
    fn self_loops_are_dropped_by_default() {
        let loaded = parse_edge_list("0 0\n0 1\n", &EdgeListOptions::default()).unwrap();
        assert_eq!(loaded.graph.num_edges(), 1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_edge_list("0 1\nx 2\n", &EdgeListOptions::default()).unwrap_err();
        match err {
            GraphError::ParseError { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("source"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        let err = parse_edge_list("0\n", &EdgeListOptions::default()).unwrap_err();
        assert!(matches!(err, GraphError::ParseError { line: 1, .. }));
        let err = parse_edge_list("0 1 0.5 extra\n", &EdgeListOptions::default()).unwrap_err();
        assert!(matches!(err, GraphError::ParseError { line: 1, .. }));
        let err = parse_edge_list("0 1 notaprob\n", &EdgeListOptions::default()).unwrap_err();
        assert!(matches!(err, GraphError::ParseError { line: 1, .. }));
    }

    #[test]
    fn roundtrip_write_then_read() {
        let g = DiGraph::from_edges(
            3,
            vec![
                (VertexId::new(0), VertexId::new(1), 0.5),
                (VertexId::new(1), VertexId::new(2), 0.125),
            ],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let loaded = parse_edge_list(&text, &EdgeListOptions::default()).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 3);
        assert_eq!(loaded.graph.num_edges(), 2);
        assert_eq!(
            loaded
                .graph
                .edge_probability(VertexId::new(1), VertexId::new(2)),
            Some(0.125)
        );
    }

    #[test]
    fn file_roundtrip() {
        let g = DiGraph::from_edges(2, vec![(VertexId::new(0), VertexId::new(1), 0.75)]).unwrap();
        let dir = std::env::temp_dir().join("imin-graph-edgelist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.txt");
        write_edge_list(&g, std::fs::File::create(&path).unwrap()).unwrap();
        let loaded = load_edge_list(&path, &EdgeListOptions::default()).unwrap();
        assert_eq!(loaded.graph.num_edges(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err =
            load_edge_list("/nonexistent/path/file.txt", &EdgeListOptions::default()).unwrap_err();
        assert!(matches!(err, GraphError::Io(_)));
    }
}
