//! Full-text search substrate (the reproduction's ElasticSearch, and — via
//! plain keyword BM25 — the Solr baseline the paper compares against).
//!
//! Section III-D: ElasticSearch handles keyword search with a customized
//! analyzer (asciifolding/lowercase/snowball/stop/stemmer filters and an
//! N-gram tokenizer with min_gram=3, max_gram=25). This crate implements
//! the engine from scratch:
//!
//! * [`index`] — multi-field inverted index built over `create-text`
//!   analyzers, with positional postings where the analyzer's tokens
//!   carry word positions and doc ids plus term frequencies where they
//!   do not (the n-gram field: BM25 reads only the frequency, and a
//!   phrase over grams matches nothing);
//! * [`postings`] — the tail's posting representation, a flat
//!   struct-of-arrays list per term shared by writer, merge and encoder,
//!   and the borrowed view cursors walk — of such a list, or of a frozen
//!   segment's list decoded into the query's scratch;
//! * [`segment`] — how documents enter an [`Index`]: workers build
//!   [`Segment`]s over their own dense doc ids, merged deterministically
//!   into the index's mutable tail; a seal freezes the tail into one more
//!   `Arc`-shared segment, its encoding, and a binary-counter tier rule
//!   keeps the frozen segments O(log n) (the Lucene segment-list
//!   analogue — a write copies the tail, never the index);
//! * [`frozen`] — a frozen segment: the codec blob exactly as a segment
//!   file's postings region holds it, with the term, length and id
//!   tables that read it without decoding it whole;
//! * [`codec`] — delta/varint encoding of an index's tail (positions
//!   only for the fields that keep them): a segment file's postings
//!   region and a frozen segment's bytes, checked once when adopted and
//!   merged, streamed, by compaction and the tier rule;
//! * [`query`] — term, phrase, fuzzy, and boolean queries plus a
//!   query-string convenience;
//! * [`score`] — BM25 (default, k1=1.2, b=0.75) and TF-IDF scoring with
//!   top-k heap retrieval;
//! * [`daat`] — document-at-a-time execution with galloping cursor
//!   intersection and MaxScore top-k pruning, bit-identical to the
//!   exhaustive baseline kept in [`score`];
//! * [`stats`] — mergeable cross-shard corpus statistics so sharded
//!   scatter-gather search — and the per-segment search inside one
//!   index — scores bit-identically to one monolithic index.

pub mod codec;
pub mod daat;
pub mod facets;
pub mod frozen;
pub mod index;
pub mod postings;
pub mod query;
pub mod score;
pub mod segment;
pub mod stats;

pub use facets::{FacetField, FacetIndex};
pub use frozen::FrozenSegment;
pub use index::{FieldConfig, Index, Segment};
pub use postings::PostingList;
pub use query::QueryNode;
pub use score::{ScoredDoc, Scorer};
pub use stats::CorpusStats;
