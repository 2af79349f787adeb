//! Plain-text graph I/O.
//!
//! Format (both directions): a header line `n m`, followed by `m` lines of
//! `u v` endpoint pairs (0-based). Blank lines and lines starting with `#`
//! or `c ` (DIMACS-style comments) are ignored. Edge/arc ids follow file
//! order, which keeps enumeration deterministic across save/load.

use crate::digraph::DiGraph;
use crate::undirected::UndirectedGraph;
use crate::{GraphError, Result};

/// Serializes an undirected multigraph.
pub fn write_edge_list(g: &UndirectedGraph) -> String {
    let mut out = String::with_capacity(12 * (g.num_edges() + 1));
    out.push_str(&format!("{} {}\n", g.num_vertices(), g.num_edges()));
    for e in g.edges() {
        let (u, v) = g.endpoints(e);
        out.push_str(&format!("{} {}\n", u.0, v.0));
    }
    out
}

/// Serializes a directed multigraph (`tail head` per line).
pub fn write_arc_list(d: &DiGraph) -> String {
    let mut out = String::with_capacity(12 * (d.num_arcs() + 1));
    out.push_str(&format!("{} {}\n", d.num_vertices(), d.num_arcs()));
    for a in d.arcs() {
        let (t, h) = d.arc(a);
        out.push_str(&format!("{} {}\n", t.0, h.0));
    }
    out
}

/// Parsed header `(n, m)` plus the endpoint pairs of a graph file.
type ParsedPairs = (usize, usize, Vec<(usize, usize)>);

fn parse_pairs(text: &str) -> Result<ParsedPairs> {
    let mut header: Option<(usize, usize)> = None;
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("c ") {
            continue;
        }
        let mut fields = line.split_whitespace();
        let parse_field = |field: Option<&str>| -> Result<usize> {
            field
                .ok_or_else(|| GraphError::Parse {
                    line: line_no,
                    message: "expected two integers".to_string(),
                })?
                .parse::<usize>()
                .map_err(|e| GraphError::Parse {
                    line: line_no,
                    message: e.to_string(),
                })
        };
        let a = parse_field(fields.next())?;
        let b = parse_field(fields.next())?;
        if fields.next().is_some() {
            return Err(GraphError::Parse {
                line: line_no,
                message: "expected exactly two integers".to_string(),
            });
        }
        match header {
            None => {
                // Vertex ids are `u32`s; a larger count cannot be indexed
                // (and would only be refused by the allocator later).
                if u32::try_from(a).is_err() {
                    return Err(GraphError::Parse {
                        line: line_no,
                        message: format!("vertex count {a} exceeds the u32 id space"),
                    });
                }
                header = Some((a, b));
            }
            Some(_) => pairs.push((a, b)),
        }
    }
    let (n, m) = header.ok_or_else(|| GraphError::Parse {
        line: 0,
        message: "missing `n m` header line".to_string(),
    })?;
    if pairs.len() != m {
        return Err(GraphError::Parse {
            line: 0,
            message: format!("header promises {m} edges, found {}", pairs.len()),
        });
    }
    Ok((n, m, pairs))
}

/// Parses an undirected multigraph from the edge-list format.
pub fn parse_edge_list(text: &str) -> Result<UndirectedGraph> {
    let (n, _m, pairs) = parse_pairs(text)?;
    UndirectedGraph::from_edges(n, &pairs)
}

/// Parses a directed multigraph from the arc-list format.
pub fn parse_arc_list(text: &str) -> Result<DiGraph> {
    let (n, _m, pairs) = parse_pairs(text)?;
    DiGraph::from_arcs(n, &pairs)
}

/// Renders an undirected graph in Graphviz DOT format, optionally
/// highlighting a solution: `highlight_edges` are drawn bold red and
/// `terminals` as filled boxes — handy for eyeballing enumerated Steiner
/// trees (`dot -Tsvg`).
pub fn to_dot(
    g: &UndirectedGraph,
    terminals: &[crate::VertexId],
    highlight_edges: &[crate::EdgeId],
) -> String {
    let mut term = vec![false; g.num_vertices()];
    for &w in terminals {
        term[w.index()] = true;
    }
    let mut hot = vec![false; g.num_edges()];
    for &e in highlight_edges {
        hot[e.index()] = true;
    }
    let mut out = String::from("graph g {\n  node [shape=circle];\n");
    for v in g.vertices() {
        if term[v.index()] {
            out.push_str(&format!(
                "  {} [shape=box style=filled fillcolor=gold];\n",
                v.0
            ));
        }
    }
    for e in g.edges() {
        let (u, v) = g.endpoints(e);
        if hot[e.index()] {
            out.push_str(&format!("  {} -- {} [color=red penwidth=2.5];\n", u.0, v.0));
        } else {
            out.push_str(&format!("  {} -- {};\n", u.0, v.0));
        }
    }
    out.push_str("}\n");
    out
}

/// Renders a digraph in Graphviz DOT format with optional highlighted arcs
/// and boxed terminals.
pub fn to_dot_directed(
    d: &DiGraph,
    terminals: &[crate::VertexId],
    highlight_arcs: &[crate::ArcId],
) -> String {
    let mut term = vec![false; d.num_vertices()];
    for &w in terminals {
        term[w.index()] = true;
    }
    let mut hot = vec![false; d.num_arcs()];
    for &a in highlight_arcs {
        hot[a.index()] = true;
    }
    let mut out = String::from("digraph g {\n  node [shape=circle];\n");
    for v in d.vertices() {
        if term[v.index()] {
            out.push_str(&format!(
                "  {} [shape=box style=filled fillcolor=gold];\n",
                v.0
            ));
        }
    }
    for a in d.arcs() {
        let (t, h) = d.arc(a);
        if hot[a.index()] {
            out.push_str(&format!("  {} -> {} [color=red penwidth=2.5];\n", t.0, h.0));
        } else {
            out.push_str(&format!("  {} -> {};\n", t.0, h.0));
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::SeedableRng;

    #[test]
    fn round_trip_undirected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let g = generators::random_connected_graph(9, 14, &mut rng);
        let text = write_edge_list(&g);
        let g2 = parse_edge_list(&text).unwrap();
        assert_eq!(g.num_vertices(), g2.num_vertices());
        assert_eq!(g.num_edges(), g2.num_edges());
        for e in g.edges() {
            assert_eq!(g.endpoints(e), g2.endpoints(e));
        }
    }

    #[test]
    fn round_trip_directed() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let d = generators::random_digraph(8, 17, &mut rng);
        let text = write_arc_list(&d);
        let d2 = parse_arc_list(&text).unwrap();
        assert_eq!(d.num_arcs(), d2.num_arcs());
        for a in d.arcs() {
            assert_eq!(d.arc(a), d2.arc(a));
        }
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = "# a comment\n\n3 2\nc dimacs comment\n0 1\n1 2\n";
        let g = parse_edge_list(text).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn header_mismatch_is_an_error() {
        let text = "3 5\n0 1\n";
        assert!(matches!(
            parse_edge_list(text),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn junk_line_is_an_error() {
        let text = "2 1\n0 1 junk\n";
        assert!(matches!(
            parse_edge_list(text),
            Err(GraphError::Parse { .. })
        ));
        let text2 = "2 1\nzero one\n";
        assert!(matches!(
            parse_edge_list(text2),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn oversized_vertex_counts_are_errors() {
        // Both headers name more vertices than `u32` ids can index; the
        // first would overflow the adjacency capacity computation, the
        // second would ask the allocator for 103 GB.
        for text in ["18446744073709551615 0\n", "4294967297 1\n0 4294967296\n"] {
            for err in [
                parse_edge_list(text).map(|_| ()),
                parse_arc_list(text).map(|_| ()),
            ] {
                assert!(
                    matches!(err, Err(GraphError::Parse { line: 1, .. })),
                    "{text:?}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn refused_adjacency_reservation_is_an_error() {
        // usize::MAX lists overflow the capacity computation, so the
        // reservation fails before asking the allocator for anything.
        let too_large = Err(GraphError::TooLarge {
            vertices: usize::MAX,
        });
        assert_eq!(
            UndirectedGraph::from_edges(usize::MAX, &[]).map(|_| ()),
            too_large
        );
        assert_eq!(DiGraph::from_arcs(usize::MAX, &[]).map(|_| ()), too_large);
    }

    #[test]
    fn self_loop_in_file_is_rejected() {
        let text = "2 1\n1 1\n";
        assert!(matches!(
            parse_edge_list(text),
            Err(GraphError::SelfLoop { .. })
        ));
    }

    #[test]
    fn dot_output_marks_terminals_and_solution() {
        use crate::{EdgeId, VertexId};
        let g = UndirectedGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let dot = to_dot(&g, &[VertexId(0), VertexId(2)], &[EdgeId(0)]);
        assert!(dot.starts_with("graph g {"));
        assert!(dot.contains("0 [shape=box"));
        assert!(dot.contains("2 [shape=box"));
        assert!(dot.contains("0 -- 1 [color=red"));
        assert!(dot.contains("1 -- 2;"));
    }

    #[test]
    fn dot_directed_output() {
        use crate::{ArcId, VertexId};
        let d = DiGraph::from_arcs(3, &[(0, 1), (1, 2)]).unwrap();
        let dot = to_dot_directed(&d, &[VertexId(2)], &[ArcId(1)]);
        assert!(dot.starts_with("digraph g {"));
        assert!(dot.contains("1 -> 2 [color=red"));
        assert!(dot.contains("0 -> 1;"));
    }
}
