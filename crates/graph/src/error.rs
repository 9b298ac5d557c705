//! Error type shared by the graph substrate.

use std::fmt;

/// Errors produced while constructing or loading graphs.
#[derive(Debug)]
pub enum GraphError {
    /// A vertex id was outside the declared vertex range.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u64,
        /// The number of vertices in the graph.
        num_vertices: u64,
    },
    /// The input described an inconsistent graph (e.g. CSR offsets that do
    /// not match the adjacency length).
    Inconsistent(String),
    /// An I/O error while reading or writing a graph file.
    Io(std::io::Error),
    /// A parse error while reading a textual graph format.
    Parse {
        /// Line number (1-based) where the error occurred.
        line: usize,
        /// Description of what went wrong.
        message: String,
        /// The offending line, verbatim (trimmed), so the user can find it
        /// without reopening the file.
        content: String,
    },
    /// A malformed or unsupported binary graph file (bad magic, unknown
    /// version, truncation, checksum mismatch, …).
    Format(String),
    /// A binary graph file whose header claims sorted adjacency
    /// (`FLAG_SORTED`) but whose neighbor lists are not sorted ascending.
    /// Distinct from [`GraphError::Format`] so callers (cache admission,
    /// `convert --verify`) can report the lying flag precisely: the file is
    /// structurally sound, but trusting the flag would corrupt every
    /// binary-search-based lookup.
    SortedFlagViolation {
        /// The first vertex whose neighbor list is out of order.
        vertex: u64,
        /// Index within that vertex's neighbor list where order breaks
        /// (the entry at `position` is smaller than the one before it).
        position: usize,
    },
    /// A binary graph file whose neighbor list of `vertex` names `vertex`
    /// itself. Every extractor assumes a simple graph.
    SelfLoop {
        /// The vertex listed as its own neighbor.
        vertex: u64,
    },
    /// A binary graph file whose neighbor list of `vertex` names
    /// `neighbor` more than once.
    DuplicateNeighbor {
        /// The vertex whose list repeats an entry.
        vertex: u64,
        /// The repeated neighbor id.
        neighbor: u64,
    },
    /// A sorted binary graph file in which `vertex` lists `neighbor` but
    /// `neighbor`'s list does not list `vertex` back.
    AsymmetricAdjacency {
        /// The vertex whose list names `neighbor`.
        vertex: u64,
        /// The neighbor that does not name `vertex` back.
        neighbor: u64,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex id {vertex} out of range for a graph with {num_vertices} vertices"
            ),
            GraphError::Inconsistent(msg) => write!(f, "inconsistent graph input: {msg}"),
            GraphError::Io(err) => write!(f, "graph I/O error: {err}"),
            GraphError::Parse {
                line,
                message,
                content,
            } => {
                write!(
                    f,
                    "parse error on line {line}: {message} (line was {content:?})"
                )
            }
            GraphError::Format(msg) => write!(f, "binary graph format error: {msg}"),
            GraphError::SortedFlagViolation { vertex, position } => write!(
                f,
                "header claims sorted adjacency but vertex {vertex}'s neighbor list is out \
                 of order at position {position}"
            ),
            GraphError::SelfLoop { vertex } => {
                write!(f, "vertex {vertex} lists itself as a neighbor")
            }
            GraphError::DuplicateNeighbor { vertex, neighbor } => write!(
                f,
                "vertex {vertex} lists neighbor {neighbor} more than once"
            ),
            GraphError::AsymmetricAdjacency { vertex, neighbor } => write!(
                f,
                "vertex {vertex} lists neighbor {neighbor}, but {neighbor} does not list {vertex}"
            ),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(err: std::io::Error) -> Self {
        GraphError::Io(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = GraphError::VertexOutOfRange {
            vertex: 10,
            num_vertices: 5,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains('5'));

        let e = GraphError::Parse {
            line: 3,
            message: "bad token".into(),
            content: "x y z".into(),
        };
        assert!(e.to_string().contains("line 3"));
        assert!(e.to_string().contains("x y z"), "{e}");

        let e = GraphError::Inconsistent("offsets".into());
        assert!(e.to_string().contains("offsets"));

        let e = GraphError::Format("bad magic".into());
        assert!(e.to_string().contains("bad magic"));

        let e = GraphError::SortedFlagViolation {
            vertex: 7,
            position: 2,
        };
        assert!(e.to_string().contains("vertex 7"), "{e}");
        assert!(e.to_string().contains("position 2"), "{e}");

        let e = GraphError::SelfLoop { vertex: 4 };
        assert!(e.to_string().contains("vertex 4 lists itself"), "{e}");

        let e = GraphError::DuplicateNeighbor {
            vertex: 3,
            neighbor: 9,
        };
        assert!(e.to_string().contains("neighbor 9 more than once"), "{e}");

        let e = GraphError::AsymmetricAdjacency {
            vertex: 1,
            neighbor: 6,
        };
        assert!(e.to_string().contains("6 does not list 1"), "{e}");
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: GraphError = io.into();
        assert!(matches!(e, GraphError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
