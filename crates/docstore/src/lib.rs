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
//! * [`store`] — the in-memory named-collection store with copy-on-write
//!   snapshots (persistence is `create-storage`'s stored fields).

pub mod collection;
pub mod json;
pub mod store;

pub use collection::{Collection, Filter, UpdateResult};
pub use json::{parse_json, JsonError, Value};
pub use store::{DocStore, StoreSnapshot};
