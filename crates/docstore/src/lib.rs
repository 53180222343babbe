//! Document store substrate (the reproduction's MongoDB).
//!
//! Section II of the paper: "The majority of data for CREATe is stored in
//! the MongoDB server for persistency" and is queried through the backend.
//! This crate implements that role from scratch:
//!
//! * [`json`] — a JSON value model with a full parser and serializer (no
//!   external serialization crates; the document model *is* the substrate);
//! * [`collection`] — schemaless collections, each document held as its
//!   serialized text and parsed on the way out, with Mongo-style filters
//!   (equality, ranges, `$in`-style membership, conjunction/disjunction)
//!   over dot-separated field paths;
//! * [`store`] — the in-memory named-collection store, a plain `Clone`
//!   value written through `&mut self` whose clones share every
//!   collection until a write copies it (persistence is
//!   `create-storage`'s stored fields).
//!
//! What the platform asks of it is MongoDB's role in the paper —
//! documents queried by id and by filter: `get` / `get_json` / `contains`,
//! `insert` / `insert_serialized`, and [`Filter`] through `find` /
//! `find_one` / `count`. There is no update or delete: the platform
//! writes a report once, and its durable copy is the storage engine's.

pub mod collection;
pub mod json;
pub mod store;

pub use collection::{Collection, Filter};
pub use json::{parse_json, JsonError, Value};
pub use store::DocStore;
