//! The two search engines and the Fig-6 merge policies.
//!
//! * **Keyword engine** — BM25 over the inverted index (ElasticSearch's
//!   role; with `MergePolicy::EsOnly` it *is* the Solr baseline the paper
//!   compares against).
//! * **Graph engine** — Neo4j's role, answered from each report's event
//!   record (its part of the property graph, see
//!   [`EventRecord`](crate::graph_build::EventRecord)): a report matches
//!   when it mentions every query concept; when the query carries a
//!   temporal pattern, the record must realize it
//!   ([`EventRecord::realizes`](crate::graph_build::EventRecord::realizes),
//!   the predicate `/cohort`'s temporal operators use too). Pattern
//!   realizations outrank concept-only matches.
//! * **Merge** — "By default, Neo4j is the primary search engine in
//!   CREATe-IR. The results returned by Neo4j will be placed on top,
//!   followed by results from ElasticSearch" (Section III-D).
//! * **Answer** — [`SearchAnswer`]: the query's IE parse, the merged hits
//!   and the `/search` body rendered from them, the unit the query cache
//!   holds.
//!
//! These are operators: the plan executor (`plan::execute`) runs them
//! for `/search` and `/cohort` alike, as its plan's `GraphMatch`,
//! `Keyword` and `Merge` nodes say.

use crate::pipeline::QueryIE;
use crate::plan::TemporalOp;
use crate::system::ShardSnapshot;
use create_docstore::json::obj;
use create_docstore::Value;
use create_index::{Index, Query, Scorer};
use create_ontology::{ConceptId, RelationType};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

/// Which engine produced a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchSource {
    /// The property-graph engine.
    Graph,
    /// The keyword (BM25) engine.
    Keyword,
}

/// One ranked search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// External report id.
    pub report_id: String,
    /// Engine-specific score (comparable within one engine only).
    pub score: f64,
    /// Producing engine.
    pub source: SearchSource,
    /// True when the query's temporal pattern was realized in the report.
    pub pattern_matched: bool,
}

impl SearchHit {
    /// Renders the hit as the REST surfaces (`/search`, `/search_batch`)
    /// serve it.
    pub fn to_json(&self) -> Value {
        obj([
            ("reportId", self.report_id.as_str().into()),
            ("score", self.score.into()),
            (
                "source",
                match self.source {
                    SearchSource::Graph => "graph".into(),
                    SearchSource::Keyword => "keyword".into(),
                },
            ),
            ("patternMatched", self.pattern_matched.into()),
        ])
    }
}

/// The whole answer to one `(query text, k, policy)` — what the query
/// cache holds and `GET /search` serves: the IE parse of the query, the
/// merged hits, and the rendered response body. All three come from the
/// one snapshot the query executed against.
#[derive(Debug)]
pub struct SearchAnswer {
    /// The IE parse of the query (its `text` is the query as submitted).
    pub parsed: QueryIE,
    /// The merged, ranked hits.
    pub hits: Vec<SearchHit>,
    /// The `/search` body, rendered on the first request for it: facade
    /// callers that only want `hits` never pay for it.
    body: OnceLock<String>,
}

impl SearchAnswer {
    pub(crate) fn new(parsed: QueryIE, hits: Vec<SearchHit>) -> SearchAnswer {
        SearchAnswer {
            parsed,
            hits,
            body: OnceLock::new(),
        }
    }

    /// The `GET /search` response body: the query, its mentions and
    /// temporal pattern, and the hits.
    pub fn body(&self) -> &str {
        self.body.get_or_init(|| self.to_json().to_json())
    }

    fn to_json(&self) -> Value {
        let mentions: Vec<Value> = self
            .parsed
            .mentions
            .iter()
            .map(|m| {
                obj([
                    ("text", m.text.clone().into()),
                    ("type", m.etype.label().into()),
                    (
                        "concept",
                        m.concept
                            .map(|c| Value::String(c.to_string()))
                            .unwrap_or(Value::Null),
                    ),
                ])
            })
            .collect();
        let pattern = self
            .parsed
            .pattern
            .map(|(c1, c2, rel)| {
                obj([
                    ("from", c1.to_string().into()),
                    ("to", c2.to_string().into()),
                    ("relation", rel.label().into()),
                ])
            })
            .unwrap_or(Value::Null);
        obj([
            ("query", self.parsed.text.as_str().into()),
            ("mentions", Value::Array(mentions)),
            ("pattern", pattern),
            (
                "hits",
                Value::Array(self.hits.iter().map(SearchHit::to_json).collect()),
            ),
        ])
    }
}

/// Result-merge policies (Fig. 6 and its ablation, experiment E6).
/// `Hash` lets a policy participate in query-cache keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergePolicy {
    /// The paper's default: graph results on top, keyword results after.
    Neo4jFirst,
    /// Keyword results on top, graph results after.
    EsFirst,
    /// Keyword engine only — the Solr baseline.
    EsOnly,
    /// Graph engine only.
    GraphOnly,
    /// Alternate between the two lists.
    Interleave,
}

impl MergePolicy {
    /// Stable lower-snake label — the REST API's policy names, reused as
    /// the metrics `policy` label and in slow-query records.
    pub fn label(self) -> &'static str {
        match self {
            MergePolicy::Neo4jFirst => "neo4j_first",
            MergePolicy::EsFirst => "es_first",
            MergePolicy::EsOnly => "es_only",
            MergePolicy::GraphOnly => "graph_only",
            MergePolicy::Interleave => "interleave",
        }
    }
}

/// The timeline operator a query pattern's relation asks for; a
/// relation that is not temporal has none, and matches no report.
fn pattern_op(rel: RelationType) -> Option<TemporalOp> {
    match rel {
        RelationType::Before => Some(TemporalOp::Before),
        RelationType::After => Some(TemporalOp::After),
        RelationType::Overlap => Some(TemporalOp::Overlaps),
        _ => None,
    }
}

/// Runs the graph query (a `GraphMatch` plan node) over one shard's
/// event records: a report matches when it mentions every concept; the
/// temporal pattern, when there is one, scored on top.
pub(crate) fn graph_search(
    shard: &ShardSnapshot,
    concepts: &[ConceptId],
    pattern: Option<(ConceptId, ConceptId, RelationType)>,
    k: usize,
) -> Vec<SearchHit> {
    if concepts.is_empty() {
        return Vec::new();
    }
    let pattern = pattern.and_then(|(c1, c2, rel)| Some((c1, c2, pattern_op(rel)?)));
    let matches = shard.events.iter().enumerate().filter_map(|(doc, record)| {
        if !(concepts.iter()).all(|c| record.concepts.binary_search(c).is_ok()) {
            return None;
        }
        let pattern_matched = pattern.is_some_and(|(c1, c2, op)| record.realizes(c1, c2, op));
        let report_id = shard.index.external_id(doc as u32).unwrap_or_default();
        // Pattern dominates; recency is a mild tiebreak.
        let score = if pattern_matched { 10.0 } else { 1.0 } + f64::from(record.year) / 10_000.0;
        Some(Candidate {
            score,
            report_id,
            pattern_matched,
        })
    });
    top_graph_hits(matches, k)
}

/// A graph match before its hit is built, borrowing its report id.
/// Ordered as [`sort_graph_hits`] ranks hits: the greater one ranks
/// first.
struct Candidate<'a> {
    score: f64,
    report_id: &'a str,
    pattern_matched: bool,
}

impl Ord for Candidate<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .partial_cmp(&other.score)
            .expect("finite scores")
            .then_with(|| other.report_id.cmp(self.report_id))
    }
}

impl PartialOrd for Candidate<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Candidate<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Candidate<'_> {}

/// The k best matches in [`sort_graph_hits`]' order, kept in a bounded
/// heap; only the survivors' report ids are copied into hits.
fn top_graph_hits<'a>(matches: impl Iterator<Item = Candidate<'a>>, k: usize) -> Vec<SearchHit> {
    let mut heap = BinaryHeap::new();
    for m in matches {
        heap.push(Reverse(m));
        if heap.len() > k {
            heap.pop();
        }
    }
    heap.into_sorted_vec()
        .into_iter()
        .map(|Reverse(m)| SearchHit {
            report_id: m.report_id.to_string(),
            score: m.score,
            source: SearchSource::Graph,
            pattern_matched: m.pattern_matched,
        })
        .collect()
}

/// The graph engine's order: score descending, report id ascending —
/// total over distinct report ids.
fn sort_graph_hits(hits: &mut [SearchHit]) {
    hits.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("finite scores")
            .then_with(|| a.report_id.cmp(&b.report_id))
    });
}

/// Builds the standard multi-field keyword query: the query strings of
/// title, body and the n-gram field, one disjunction in that order.
/// Analysis depends only on the index's field configuration, which is
/// identical across shards, so a query built against any shard's index
/// works against all of them.
pub(crate) fn keyword_query(index: &Index, query_text: &str) -> Query {
    Query::query_string(index, "title", query_text)
        .or(Query::query_string(index, "body", query_text))
        .or(Query::query_string(index, "body_ngram", query_text))
}

/// Runs the keyword engine: BM25 over title/body (+ n-gram field).
pub fn keyword_search(index: &Index, query_text: &str, k: usize) -> Vec<SearchHit> {
    let q = keyword_query(index, query_text);
    index
        .search(&q, k, Scorer::default())
        .into_iter()
        .map(|s| SearchHit {
            report_id: s.external_id,
            score: s.score,
            source: SearchSource::Keyword,
            pattern_matched: false,
        })
        .collect()
}

/// Gathers per-shard `(score, global ingest ordinal, report id)` rows
/// into the top-k keyword hits under `(score descending by total_cmp,
/// ordinal ascending)` — the one cross-shard order of the plan
/// executor's keyword leg and of its ingest-order listing (every row
/// scores 0 there, so the ordinal decides). The ordinal tie-break
/// reproduces the single-index internal-doc-id tie-break exactly
/// (internal ids are assigned in ingest order, and routing preserves
/// ingest order within a shard, so each shard's local top-k is its top-k
/// under this order too): the gathered ranking is bit-identical for any
/// shard count.
pub(crate) fn gather_keyword_hits(
    mut gathered: Vec<(f64, u64, String)>,
    k: usize,
) -> Vec<SearchHit> {
    gathered.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    gathered.truncate(k);
    gathered
        .into_iter()
        .map(|(score, _, report_id)| SearchHit {
            report_id,
            score,
            source: SearchSource::Keyword,
            pattern_matched: false,
        })
        .collect()
}

/// Scatter-gather graph search over every shard.
///
/// A report's event record — its mentions, events and temporal edges —
/// lives in its owning shard, so a graph hit's score is computed
/// entirely from shard-local state and is independent of the shard
/// count. Gathering concatenates the per-shard hit lists and re-applies
/// the engine's own ordering (score descending, report id ascending),
/// which is total over distinct report ids — the merged ranking is
/// exactly the single-shard ranking.
pub(crate) fn scatter_graph_search(
    shards: &[Arc<ShardSnapshot>],
    concepts: &[ConceptId],
    pattern: Option<(ConceptId, ConceptId, RelationType)>,
    k: usize,
) -> Vec<SearchHit> {
    let mut hits: Vec<SearchHit> = Vec::new();
    for (shard_no, shard) in shards.iter().enumerate() {
        let _span = create_obs::shard_span(create_obs::names::SPAN_GRAPH_SHARD, shard_no as u32);
        hits.extend(graph_search(shard, concepts, pattern, k));
    }
    sort_graph_hits(&mut hits);
    hits.truncate(k);
    hits
}

/// Merges the two engines' ranked lists under a policy, deduplicating by
/// report id (first occurrence wins) and capping at `k`.
pub fn merge(
    graph_hits: Vec<SearchHit>,
    keyword_hits: Vec<SearchHit>,
    policy: MergePolicy,
    k: usize,
) -> Vec<SearchHit> {
    let ordered: Vec<SearchHit> = match policy {
        MergePolicy::Neo4jFirst => graph_hits.into_iter().chain(keyword_hits).collect(),
        MergePolicy::EsFirst => keyword_hits.into_iter().chain(graph_hits).collect(),
        MergePolicy::EsOnly => keyword_hits,
        MergePolicy::GraphOnly => graph_hits,
        MergePolicy::Interleave => {
            let mut out = Vec::with_capacity(graph_hits.len() + keyword_hits.len());
            let mut g = graph_hits.into_iter();
            let mut e = keyword_hits.into_iter();
            loop {
                match (g.next(), e.next()) {
                    (None, None) => break,
                    (a, b) => {
                        out.extend(a);
                        out.extend(b);
                    }
                }
            }
            out
        }
    };
    let mut seen = std::collections::HashSet::new();
    let mut merged = Vec::with_capacity(k.min(ordered.len()));
    for hit in ordered {
        if seen.insert(hit.report_id.clone()) {
            merged.push(hit);
            if merged.len() >= k {
                break;
            }
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(id: &str, source: SearchSource) -> SearchHit {
        SearchHit {
            report_id: id.to_string(),
            score: 1.0,
            source,
            pattern_matched: false,
        }
    }

    /// The bounded heap keeps exactly the first k of the full sort, tied
    /// scores broken by report id, for every k up to past the match count.
    #[test]
    fn graph_top_k_equals_the_truncated_full_sort() {
        let ids: Vec<String> = (0..24).map(|i| format!("r{:02}", (i * 7) % 24)).collect();
        let matches = || {
            ids.iter().enumerate().map(|(i, id)| Candidate {
                score: [1.2019, 10.2019, 1.2020][i % 3],
                report_id: id,
                pattern_matched: i % 3 == 1,
            })
        };
        let mut full: Vec<SearchHit> = matches()
            .map(|m| SearchHit {
                report_id: m.report_id.to_string(),
                score: m.score,
                source: SearchSource::Graph,
                pattern_matched: m.pattern_matched,
            })
            .collect();
        sort_graph_hits(&mut full);
        for k in 0..=ids.len() + 2 {
            let top = top_graph_hits(matches(), k);
            assert_eq!(top[..], full[..k.min(full.len())], "k = {k}");
        }
    }

    #[test]
    fn neo4j_first_puts_graph_on_top() {
        let merged = merge(
            vec![
                hit("g1", SearchSource::Graph),
                hit("g2", SearchSource::Graph),
            ],
            vec![hit("e1", SearchSource::Keyword)],
            MergePolicy::Neo4jFirst,
            10,
        );
        let ids: Vec<&str> = merged.iter().map(|h| h.report_id.as_str()).collect();
        assert_eq!(ids, vec!["g1", "g2", "e1"]);
    }

    #[test]
    fn merge_dedupes_by_first_occurrence() {
        let merged = merge(
            vec![hit("x", SearchSource::Graph)],
            vec![
                hit("x", SearchSource::Keyword),
                hit("y", SearchSource::Keyword),
            ],
            MergePolicy::Neo4jFirst,
            10,
        );
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].source, SearchSource::Graph);
    }

    #[test]
    fn es_only_drops_graph() {
        let merged = merge(
            vec![hit("g", SearchSource::Graph)],
            vec![hit("e", SearchSource::Keyword)],
            MergePolicy::EsOnly,
            10,
        );
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].report_id, "e");
    }

    #[test]
    fn interleave_alternates() {
        let merged = merge(
            vec![
                hit("g1", SearchSource::Graph),
                hit("g2", SearchSource::Graph),
            ],
            vec![
                hit("e1", SearchSource::Keyword),
                hit("e2", SearchSource::Keyword),
            ],
            MergePolicy::Interleave,
            10,
        );
        let ids: Vec<&str> = merged.iter().map(|h| h.report_id.as_str()).collect();
        assert_eq!(ids, vec!["g1", "e1", "g2", "e2"]);
    }

    #[test]
    fn merge_respects_k() {
        let merged = merge(
            (0..5)
                .map(|i| hit(&format!("g{i}"), SearchSource::Graph))
                .collect(),
            (0..5)
                .map(|i| hit(&format!("e{i}"), SearchSource::Keyword))
                .collect(),
            MergePolicy::Neo4jFirst,
            3,
        );
        assert_eq!(merged.len(), 3);
    }
}
