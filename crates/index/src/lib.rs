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
//!   do not (the n-gram field: BM25 reads only the frequency);
//! * [`postings`] — the builder's posting representation, a flat
//!   struct-of-arrays list per term shared by builder and encoder, and
//!   the borrowed view of a list decoded into a query's scratch;
//! * [`segment`] — how documents enter an [`Index`]: workers build
//!   [`Segment`]s over their own dense doc ids, and each is frozen as it
//!   is merged — encoded, checked and pushed after the others — while a
//!   binary-counter tier rule keeps the segments O(log n) (the Lucene
//!   segment-list analogue: publish is freeze, and a write copies no
//!   segment); a seal writes the unsealed suffix as one segment;
//! * [`frozen`] — a frozen segment, all an index keeps: the codec blob
//!   exactly as a segment file's postings region holds it, with the
//!   term, length and id tables that read it without decoding it whole;
//! * [`codec`] — delta/varint encoding of a builder segment (positions
//!   only for the fields that keep them): a segment file's postings
//!   region and a frozen segment's bytes, checked once when adopted and
//!   merged, streamed, by compaction, the tier rule and a seal;
//! * [`query`] — the query Solr's default handler sends: a flat
//!   disjunction of analyzed terms, built from free text per field;
//! * [`score`] — BM25 (default, k1=1.2, b=0.75) and TF-IDF scoring with
//!   top-k heap retrieval;
//! * [`daat`] — the executor: a disjunction scored term at a time into
//!   one per-document array, bit-identical to the exhaustive baseline
//!   kept in [`score`];
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
pub use query::{Clause, Query};
pub use score::{ScoredDoc, Scorer};
pub use stats::CorpusStats;
