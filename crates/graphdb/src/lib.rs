//! Property-graph database substrate (the reproduction's Neo4j).
//!
//! Section III-D: "In Neo4j, data is saved as a graph of nodes and edges …
//! A particular node will contain a nodeId, a label and an entityType …
//! all nodes and edges are put into Neo4j via cypher query." This crate
//! implements that role from scratch:
//!
//! * [`store`] — the property graph: nodes and edges as fixed-size
//!   records in id-indexed columns, their JSON properties encoded in one
//!   byte arena, interned labels, types and keys, label lists and
//!   declared `(label, key)` indexes, adjacency chains;
//! * [`ast`], [`lexer`], [`parser`] — a Cypher-like query language
//!   (`MATCH (a:Label {k: v})-[r:TYPE]->(b) WHERE … RETURN … LIMIT n`,
//!   plus `CREATE`);
//! * [`exec`] — the backtracking pattern-match executor: [`exec::query`]
//!   reads a shared graph, [`exec::run`] also writes one of its own.

pub mod ast;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod store;

pub use exec::{QueryOutput, ResultValue};
pub use parser::parse_query;
pub use store::{EdgeId, EdgeRef, NodeId, NodeRef, PropRef, PropertyGraph, Props};
