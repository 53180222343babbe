//! Property-graph database substrate (the reproduction's Neo4j).
//!
//! Section III-D: "In Neo4j, data is saved as a graph of nodes and edges …
//! A particular node will contain a nodeId, a label and an entityType …
//! all nodes and edges are put into Neo4j via cypher query." This crate
//! implements that role from scratch:
//!
//! * [`store`] — the property graph: nodes and edges as fixed-size
//!   records in id-indexed `Vec`s, their JSON properties encoded in one
//!   byte arena, interned labels, types and keys, label lists and
//!   declared `(label, key)` indexes, adjacency chains. A graph owns its
//!   storage, and a clone is a deep copy: the platform builds one per
//!   Cypher call, from the stored reports, and shares none;
//! * [`ast`], [`lexer`], [`parser`] — a Cypher-like query language
//!   (`MATCH (a:Label {k: v})-[r:TYPE]->(b) WHERE … RETURN … LIMIT n`,
//!   plus `CREATE`), its paths and `WHERE` nesting capped at
//!   [`parser::MAX_DEPTH`];
//! * [`exec`] — the backtracking pattern-match executor: [`exec::query`]
//!   only reads a graph, [`exec::run`] also writes one of its own.

pub mod ast;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod store;

pub use exec::{QueryOutput, ResultValue};
pub use parser::parse_query;
pub use store::{EdgeId, EdgeRef, NodeId, NodeRef, PropRef, PropertyGraph, Props};
