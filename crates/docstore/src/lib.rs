//! The JSON document model (the reproduction's MongoDB documents).
//!
//! Section II of the paper: "The majority of data for CREATe is stored in
//! the MongoDB server for persistency" and is read back by the backend.
//! Here the source of truth for a report is the storage engine's segments
//! and WAL, and each shard keeps every report's stored payload as one
//! serialized JSON text by document id (`create-core`). What that needs
//! of a document store is its document model, implemented in [`json`]
//! from scratch — no external serialization crates:
//!
//! * [`Value`] with a full parser ([`parse_json`]) and a canonical,
//!   key-sorted serializer, so a stored text is what serializing its own
//!   parse gives;
//! * [`json::Reader`], the same parser driven a value at a time, which
//!   reads a document of a known shape into the caller's own types with
//!   no tree between — how recovery decodes a stored payload;
//! * [`json::object_members`], which splits a serialized object into its
//!   members' texts in one pass — how a payload's `report` is read
//!   without building its `extraction`.

pub mod json;

pub use json::{parse_json, JsonError, Value};
