//! The typed logical query plan — one IR for both search surfaces.
//!
//! Every query, whether a plain `/search` string or a `/cohort` criteria
//! document, is **lowered** into a [`QueryPlan`]: a flat list of typed
//! [`PlanNode`]s (facet filters, keyword scoring, graph concept matching,
//! temporal constraints, facet counting, and the final merge). The
//! planner then **normalizes** the plan — filters are sorted into
//! canonical field order with deduplicated values and pushed ahead of
//! scoring, so two criteria documents that mean the same thing produce
//! the same plan, which [`QueryPlan::canonical_key`] renders as one
//! string (two spellings of one plan render alike; two plans that differ
//! anywhere never do).
//!
//! One executor (`execute`) runs every plan, `/search` and `/cohort`
//! alike; the nodes alone pick the stages, `k` and merge policy. It is
//! per shard and bit-deterministic across shard counts:
//!
//! 1. **Filter** — [`PlanNode::Filter`] value runs from each segment's
//!    facet bitmaps ([`Index::facets`]), shifted by the segment's base,
//!    union per field and intersect across fields into one eligible run
//!    per shard. With no filter or temporal node (every `/search`),
//!    every document is eligible and no run is built;
//! 2. **Temporal** — a candidate's event record must realize every
//!    [`PlanNode::Temporal`] constraint on its timeline steps
//!    ([`EventRecord::realizes`], the predicate of `/search`'s pattern
//!    too);
//! 3. **GraphMatch / Keyword** — the graph engine's concept match, and
//!    the one keyword leg: BM25 under *merged* corpus statistics over
//!    every document or pushed down onto the eligible run;
//!    [`PlanMode::Naive`] ranks exhaustively and post-filters instead,
//!    bit-identically. With neither leg, eligible documents list in
//!    ingest order;
//! 4. **FacetCount / Merge** — counts over the eligible set (independent
//!    of `k`); keyword rows gather under `(score desc, ingest ordinal
//!    asc)`, then the [`PlanNode::Merge`] policy merges the two legs.

use crate::graph_build::EventRecord;
use crate::search::{self, MergePolicy, SearchHit};
use crate::system::ShardSnapshot;
use create_docstore::json::obj;
use create_docstore::Value;
use create_index::facets::{intersect, intersect_count, union, FacetField};
use create_index::{CorpusStats, Index, Scorer};
use create_obs::names as obs_names;
use create_obs::Span;
use create_ontology::{ConceptId, Ontology, RelationType};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One timeline step of the ingest pipeline's sentence clock spans about
/// a month of narrative time — the conversion [`TemporalOp::Within`]
/// uses to turn a day budget into a step budget.
pub const STEP_DAYS: u32 = 30;

/// A temporal-interval operator between two concepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TemporalOp {
    /// `a` strictly precedes `b`.
    Before,
    /// `a` strictly follows `b`.
    After,
    /// `a` and `b` happen within the same interval.
    Overlaps,
    /// `a` and `b` happen within the given number of days of each other
    /// (symmetric; steps are ~[`STEP_DAYS`] apart).
    Within(u32),
}

impl TemporalOp {
    /// Stable wire label (the criteria-JSON `op` values).
    pub fn label(self) -> &'static str {
        match self {
            TemporalOp::Before => "before",
            TemporalOp::After => "after",
            TemporalOp::Overlaps => "overlaps",
            TemporalOp::Within(_) => "within",
        }
    }
}

/// A facet filter: the document must carry at least one of `values` for
/// `field` (values OR together; separate filters AND together).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FacetFilter {
    /// The facet field to filter on.
    pub field: FacetField,
    /// Accepted values (any-of).
    pub values: Vec<String>,
}

/// A temporal constraint between two ontology concepts: some event pair
/// mentioning them must realize `op` on the report's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemporalConstraint {
    /// Surface text the first concept was resolved from.
    pub a_text: String,
    /// The first concept.
    pub a: ConceptId,
    /// Surface text the second concept was resolved from.
    pub b_text: String,
    /// The second concept.
    pub b: ConceptId,
    /// The required interval relation.
    pub op: TemporalOp,
}

/// One node of the logical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Restrict candidates by a facet bitmap.
    Filter(FacetFilter),
    /// Score candidates by BM25 over the raw query text.
    Keyword {
        /// The raw keyword text.
        text: String,
    },
    /// Require every concept to be mentioned (the graph engine's leg of
    /// a search plan), optionally with a temporal pattern.
    GraphMatch {
        /// Concepts every matching report must mention.
        concepts: Vec<ConceptId>,
        /// A detected temporal pattern between two of them.
        pattern: Option<(ConceptId, ConceptId, RelationType)>,
    },
    /// Require a temporal-interval relation between two concepts.
    Temporal(TemporalConstraint),
    /// Count eligible documents per value of a facet field.
    FacetCount {
        /// The field to aggregate.
        field: FacetField,
    },
    /// Merge the engine legs and cap the result.
    Merge {
        /// The result-merge policy.
        policy: MergePolicy,
        /// Result cap.
        k: usize,
    },
}

impl PlanNode {
    /// Canonical-order rank: filters first (pushdown), then temporal
    /// pruning, then the scoring legs, then aggregation, merge last.
    fn rank(&self) -> u8 {
        match self {
            PlanNode::Filter(_) => 0,
            PlanNode::Temporal(_) => 1,
            PlanNode::GraphMatch { .. } => 2,
            PlanNode::Keyword { .. } => 3,
            PlanNode::FacetCount { .. } => 4,
            PlanNode::Merge { .. } => 5,
        }
    }

    /// Renders the node into the canonical key.
    fn key_fragment(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            PlanNode::Filter(f) => {
                let _ = write!(out, "filter:{}=", f.field.label());
                for (i, v) in f.values.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(v);
                }
            }
            PlanNode::Keyword { text } => {
                let _ = write!(out, "keyword:{text}");
            }
            PlanNode::GraphMatch { concepts, pattern } => {
                out.push_str("graph:");
                for (i, c) in concepts.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{c}");
                }
                if let Some((a, b, rel)) = pattern {
                    let _ = write!(out, ";pattern={a}~{rel:?}~{b}");
                }
            }
            PlanNode::Temporal(t) => {
                let _ = write!(out, "temporal:{}(", t.op.label());
                if let TemporalOp::Within(days) = t.op {
                    let _ = write!(out, "{days}d,");
                }
                let _ = write!(out, "{},{})", t.a, t.b);
            }
            PlanNode::FacetCount { field } => {
                let _ = write!(out, "count:{}", field.label());
            }
            PlanNode::Merge { policy, k } => {
                let _ = write!(out, "merge:{}:k={k}", policy.label());
            }
        }
    }
}

/// Whether the physical executor may use the optimized operator order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// Filter pushdown below keyword scoring (the default).
    Optimized,
    /// Rank exhaustively, then post-filter — the reference order the
    /// equivalence tests compare against.
    Naive,
}

/// A lowered logical plan: a flat node list, canonicalized by
/// [`QueryPlan::optimize`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The plan's nodes, in execution order after `optimize`.
    pub nodes: Vec<PlanNode>,
}

impl QueryPlan {
    /// Normalizes the plan: filter values sorted + deduplicated, empty
    /// filters dropped, nodes stably sorted into canonical rank order
    /// (filters ahead of scoring — the logical form of the pushdown;
    /// ties keep lowering order). Idempotent.
    pub fn optimize(mut self) -> QueryPlan {
        for node in &mut self.nodes {
            if let PlanNode::Filter(f) = node {
                f.values.sort();
                f.values.dedup();
            }
        }
        self.nodes.retain(|n| match n {
            PlanNode::Filter(f) => !f.values.is_empty(),
            _ => true,
        });
        self.nodes.sort_by_key(PlanNode::rank);
        // Filters additionally sort by field so equal criteria sets
        // canonicalize identically regardless of authoring order.
        let filter_end = self
            .nodes
            .partition_point(|n| matches!(n, PlanNode::Filter(_)));
        self.nodes[..filter_end].sort_by(|a, b| match (a, b) {
            (PlanNode::Filter(x), PlanNode::Filter(y)) => {
                x.field.cmp(&y.field).then_with(|| x.values.cmp(&y.values))
            }
            _ => std::cmp::Ordering::Equal,
        });
        self
    }

    /// The canonical key: a deterministic rendering of the (optimized)
    /// plan. Every semantic element of the plan — filters, concepts,
    /// operators, keyword text, `k`, policy — appears in the key, so no
    /// two distinct plans render alike and equivalent spellings do.
    pub fn canonical_key(&self) -> String {
        let mut out = String::from("plan/1|");
        for (i, node) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push('|');
            }
            node.key_fragment(&mut out);
        }
        out
    }

    /// Counts this plan's nodes into `create_plan_nodes_total`.
    fn note_nodes(&self) {
        if create_obs::enabled() {
            create_obs::counter(obs_names::PLAN_NODES_TOTAL).inc_by(self.nodes.len() as u64);
        }
    }
}

/// Lowers a plain search query (text + IE parse + merge policy) into the
/// IR. The graph leg carries the parsed concepts and temporal pattern;
/// policies that disable an engine simply omit its node.
pub fn lower_search(
    query: &str,
    parsed: &crate::pipeline::QueryIE,
    k: usize,
    policy: MergePolicy,
) -> QueryPlan {
    let mut nodes = Vec::new();
    if policy != MergePolicy::EsOnly {
        nodes.push(PlanNode::GraphMatch {
            concepts: parsed.event_concepts(),
            pattern: parsed.pattern,
        });
    }
    if policy != MergePolicy::GraphOnly {
        nodes.push(PlanNode::Keyword {
            text: query.to_string(),
        });
    }
    nodes.push(PlanNode::Merge { policy, k });
    QueryPlan { nodes }
}

/// A parsed `/cohort` criteria document (see [`parse_cohort_criteria`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CohortCriteria {
    /// Facet filters (AND across filters, OR across one filter's values).
    pub filters: Vec<FacetFilter>,
    /// Optional keyword scoring text.
    pub keywords: Option<String>,
    /// Temporal constraints (all must hold).
    pub temporal: Vec<TemporalConstraint>,
    /// Facet fields to aggregate counts for.
    pub facet_counts: Vec<FacetField>,
    /// Result cap.
    pub k: usize,
}

/// Lowers cohort criteria into the IR.
pub fn lower_cohort(criteria: &CohortCriteria) -> QueryPlan {
    let mut nodes = Vec::new();
    for f in &criteria.filters {
        nodes.push(PlanNode::Filter(f.clone()));
    }
    for t in &criteria.temporal {
        nodes.push(PlanNode::Temporal(t.clone()));
    }
    if let Some(text) = &criteria.keywords {
        nodes.push(PlanNode::Keyword { text: text.clone() });
    }
    for &field in &criteria.facet_counts {
        nodes.push(PlanNode::FacetCount { field });
    }
    nodes.push(PlanNode::Merge {
        policy: MergePolicy::EsOnly,
        k: criteria.k,
    });
    QueryPlan { nodes }
}

/// Default result cap for criteria documents that omit `k`.
const DEFAULT_COHORT_K: usize = 10;

/// Parses a criteria JSON document:
///
/// ```json
/// {
///   "filters": [{"field": "category", "values": ["cancer"]}],
///   "keywords": "chest pain",
///   "temporal": [{"a": "fever", "op": "before", "b": "cough"},
///                {"a": "fever", "op": "within", "days": 60, "b": "cough"}],
///   "facets": ["sex", "age_band"],
///   "k": 10
/// }
/// ```
///
/// Temporal endpoints are surface strings resolved against the ontology;
/// an unresolvable term or unknown field/op label is an error (the
/// server maps it to 400).
pub fn parse_cohort_criteria(json: &Value, ontology: &Ontology) -> Result<CohortCriteria, String> {
    let mut filters = Vec::new();
    if let Some(list) = json.get("filters") {
        let list = list
            .as_array()
            .ok_or_else(|| "\"filters\" must be an array".to_string())?;
        for item in list {
            let label = item
                .get("field")
                .and_then(Value::as_str)
                .ok_or_else(|| "filter missing \"field\"".to_string())?;
            let field =
                FacetField::parse(label).ok_or_else(|| format!("unknown facet field {label:?}"))?;
            let mut values = Vec::new();
            match (item.get("values"), item.get("value")) {
                (Some(vs), _) => {
                    for v in vs
                        .as_array()
                        .ok_or_else(|| "filter \"values\" must be an array".to_string())?
                    {
                        values.push(
                            v.as_str()
                                .ok_or_else(|| "filter values must be strings".to_string())?
                                .to_string(),
                        );
                    }
                }
                (None, Some(v)) => values.push(
                    v.as_str()
                        .ok_or_else(|| "filter \"value\" must be a string".to_string())?
                        .to_string(),
                ),
                (None, None) => return Err(format!("filter on {label:?} has no values")),
            }
            filters.push(FacetFilter { field, values });
        }
    }
    let keywords = match json.get("keywords") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| "\"keywords\" must be a string".to_string())?
                .to_string(),
        ),
    };
    let mut temporal = Vec::new();
    if let Some(list) = json.get("temporal") {
        let list = list
            .as_array()
            .ok_or_else(|| "\"temporal\" must be an array".to_string())?;
        for item in list {
            let a_text = item
                .get("a")
                .and_then(Value::as_str)
                .ok_or_else(|| "temporal constraint missing \"a\"".to_string())?;
            let b_text = item
                .get("b")
                .and_then(Value::as_str)
                .ok_or_else(|| "temporal constraint missing \"b\"".to_string())?;
            let op_label = item
                .get("op")
                .and_then(Value::as_str)
                .ok_or_else(|| "temporal constraint missing \"op\"".to_string())?;
            let op = match op_label {
                "before" => TemporalOp::Before,
                "after" => TemporalOp::After,
                "overlaps" | "overlap" => TemporalOp::Overlaps,
                "within" => {
                    let days = item
                        .get("days")
                        .and_then(Value::as_i64)
                        .and_then(|d| u32::try_from(d).ok())
                        .ok_or_else(|| {
                            format!("\"within\" constraint needs a \"days\" in 0..={}", u32::MAX)
                        })?;
                    TemporalOp::Within(days)
                }
                other => return Err(format!("unknown temporal op {other:?}")),
            };
            let resolve = |text: &str| -> Result<ConceptId, String> {
                ontology
                    .normalize(text, None)
                    .map(|n| n.concept)
                    .ok_or_else(|| format!("cannot resolve {text:?} to a concept"))
            };
            temporal.push(TemporalConstraint {
                a_text: a_text.to_string(),
                a: resolve(a_text)?,
                b_text: b_text.to_string(),
                b: resolve(b_text)?,
                op,
            });
        }
    }
    let mut facet_counts = Vec::new();
    if let Some(list) = json.get("facets") {
        for v in list
            .as_array()
            .ok_or_else(|| "\"facets\" must be an array".to_string())?
        {
            let label = v
                .as_str()
                .ok_or_else(|| "facet labels must be strings".to_string())?;
            let field =
                FacetField::parse(label).ok_or_else(|| format!("unknown facet field {label:?}"))?;
            if !facet_counts.contains(&field) {
                facet_counts.push(field);
            }
        }
    }
    let k = match json.get("k") {
        None => DEFAULT_COHORT_K,
        Some(v) => {
            v.as_i64()
                .filter(|&k| k > 0)
                .ok_or_else(|| "\"k\" must be a positive integer".to_string())? as usize
        }
    };
    if filters.is_empty() && keywords.is_none() && temporal.is_empty() {
        return Err(
            "criteria must include at least one filter, keyword, or temporal constraint"
                .to_string(),
        );
    }
    Ok(CohortCriteria {
        filters,
        keywords,
        temporal,
        facet_counts,
        k,
    })
}

/// Per-value counts of one facet field over the eligible cohort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FacetCounts {
    /// The aggregated field.
    pub field: FacetField,
    /// `(value, matching docs)`, in value order; zero counts omitted.
    pub counts: Vec<(String, u64)>,
}

/// A cohort query answer: ranked reports plus aggregations.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortResult {
    /// Top-k reports (BM25-ranked when the criteria carry keywords,
    /// ingest order otherwise).
    pub hits: Vec<SearchHit>,
    /// Total documents matching the criteria (independent of `k`).
    pub total_matched: u64,
    /// Requested facet aggregations over the matching set, in canonical
    /// field order.
    pub facets: Vec<FacetCounts>,
}

impl CohortResult {
    /// Renders the REST answer body.
    pub fn to_json(&self) -> Value {
        let hits: Vec<Value> = self
            .hits
            .iter()
            .map(|h| {
                obj([
                    ("reportId", h.report_id.as_str().into()),
                    ("score", h.score.into()),
                ])
            })
            .collect();
        let facets: Vec<Value> = self
            .facets
            .iter()
            .map(|f| {
                let counts: Vec<Value> = f
                    .counts
                    .iter()
                    .map(|(v, c)| {
                        obj([("value", v.as_str().into()), ("count", (*c as f64).into())])
                    })
                    .collect();
                obj([
                    ("field", f.field.label().into()),
                    ("counts", Value::Array(counts)),
                ])
            })
            .collect();
        obj([
            ("hits", Value::Array(hits)),
            ("totalMatched", (self.total_matched as f64).into()),
            ("facets", Value::Array(facets)),
        ])
    }
}

/// True when the report realizes every constraint
/// ([`EventRecord::realizes`]).
fn satisfies_all(record: &EventRecord, constraints: &[&TemporalConstraint]) -> bool {
    constraints.iter().all(|c| record.realizes(c.a, c.b, c.op))
}

/// Counts a bitmap intersection into `create_bitmap_intersections_total`.
fn note_intersections(n: u64) {
    if create_obs::enabled() && n > 0 {
        create_obs::counter(obs_names::BITMAP_INTERSECTIONS_TOTAL).inc_by(n);
    }
}

/// The sorted doc-id run a shard's filters admit: per filter, the union
/// of its value runs — each segment's, shifted by the segment's base, in
/// segment order; across filters, the intersection. No filters means
/// every document.
fn shard_filter_run(index: &Index, filters: &[&FacetFilter]) -> Vec<u32> {
    if filters.is_empty() {
        return (0..index.num_docs() as u32).collect();
    }
    let mut acc: Option<Vec<u32>> = None;
    for filter in filters {
        let mut admitted = Vec::new();
        for (base, facets) in index.facets() {
            let runs: Vec<&[u32]> = filter
                .values
                .iter()
                .filter_map(|v| facets.run(filter.field, v))
                .collect();
            admitted.extend(union(&runs).into_iter().map(|doc| base + doc));
        }
        acc = Some(match acc {
            None => admitted,
            Some(prev) => {
                note_intersections(1);
                intersect(&prev, &admitted)
            }
        });
        if acc.as_ref().is_some_and(Vec::is_empty) {
            return Vec::new();
        }
    }
    acc.unwrap_or_default()
}

/// The one keyword leg: each shard's BM25 top-k as `(score, ingest
/// ordinal, report id)` rows, scored under corpus statistics merged over
/// every shard (even one, so the formula's inputs are shard-count-
/// invariant by construction). `eligible: None` ranks every document;
/// a run is pushed below scoring, or under [`PlanMode::Naive`] applied
/// after an exhaustive ranking — bit-identically.
fn keyword_rows(
    shards: &[Arc<ShardSnapshot>],
    text: &str,
    k: usize,
    eligible: Option<&[Vec<u32>]>,
    mode: PlanMode,
) -> Vec<(f64, u64, String)> {
    let q = search::keyword_query(&shards[0].index, text);
    let stats = CorpusStats::collect(shards.iter().map(|shard| &*shard.index), &q);
    let mut rows = Vec::new();
    for (no, shard) in shards.iter().enumerate() {
        let _shard = create_obs::shard_span(obs_names::SPAN_KEYWORD_SHARD, no as u32);
        let index = &shard.index;
        let scored = match eligible.map(|runs| &runs[no]) {
            None => index.search_with_stats(&q, k, Scorer::default(), Some(&stats)),
            Some(run) => {
                note_intersections(1);
                match mode {
                    PlanMode::Optimized => {
                        index.search_filtered(&q, k, Scorer::default(), Some(&stats), run)
                    }
                    PlanMode::Naive => index
                        .search_with_stats(&q, index.num_docs(), Scorer::default(), Some(&stats))
                        .into_iter()
                        .filter(|s| run.binary_search(&s.doc).is_ok())
                        .take(k)
                        .collect(),
                }
            }
        };
        rows.extend(
            scored
                .into_iter()
                .map(|s| (s.score, shard.ordinals[s.doc as usize], s.external_id)),
        );
    }
    rows
}

/// Executes a plan over a snapshot's shards, `/search` and `/cohort`
/// alike. A stage runs only when the plan has a node for it, each under
/// its query-stage span (`filter`, `temporal`, `graph_search`,
/// `keyword_search`, `facet_count`, `merge`); per-shard work runs under
/// `graph_shard` / `keyword_shard` / `cohort_shard` spans.
pub(crate) fn execute(
    shards: &[Arc<ShardSnapshot>],
    plan: &QueryPlan,
    mode: PlanMode,
) -> CohortResult {
    plan.note_nodes();
    let mut filters: Vec<&FacetFilter> = Vec::new();
    let mut temporals: Vec<&TemporalConstraint> = Vec::new();
    let mut graph = None;
    let mut keyword: Option<&str> = None;
    let mut facet_fields: Vec<FacetField> = Vec::new();
    let (mut policy, mut k) = (MergePolicy::EsOnly, DEFAULT_COHORT_K);
    for node in &plan.nodes {
        match node {
            PlanNode::Filter(f) => filters.push(f),
            PlanNode::Temporal(t) => temporals.push(t),
            PlanNode::GraphMatch { concepts, pattern } => graph = Some((&concepts[..], *pattern)),
            PlanNode::Keyword { text } => keyword = Some(text),
            PlanNode::FacetCount { field } => facet_fields.push(*field),
            PlanNode::Merge { policy: p, k: cap } => (policy, k) = (*p, *cap),
        }
    }

    // 1) Filter: one sorted eligibility run per shard; `None` when every
    // document is eligible, never a materialized `0..num_docs`.
    let mut eligible: Option<Vec<Vec<u32>>> =
        (!filters.is_empty() || !temporals.is_empty()).then(|| {
            let _span = Span::enter(obs_names::QUERY_STAGE_SECONDS, obs_names::QSTAGE_FILTER);
            shards
                .iter()
                .enumerate()
                .map(|(no, shard)| {
                    let _shard = create_obs::shard_span(obs_names::SPAN_COHORT_SHARD, no as u32);
                    shard_filter_run(&shard.index, &filters)
                })
                .collect()
        });

    // 2) Temporal: prune candidates that fail any interval constraint.
    if let (Some(runs), false) = (&mut eligible, temporals.is_empty()) {
        let _span = Span::enter(obs_names::QUERY_STAGE_SECONDS, obs_names::QSTAGE_TEMPORAL);
        for (no, shard) in shards.iter().enumerate() {
            let _shard = create_obs::shard_span(obs_names::SPAN_COHORT_SHARD, no as u32);
            runs[no].retain(|&doc| satisfies_all(&shard.events[doc as usize], &temporals));
        }
    }

    // 3) Graph leg.
    let graph_hits = match graph {
        Some((concepts, pattern)) => {
            let _span = Span::enter(
                obs_names::QUERY_STAGE_SECONDS,
                obs_names::QSTAGE_GRAPH_SEARCH,
            );
            search::scatter_graph_search(shards, concepts, pattern, k)
        }
        None => Vec::new(),
    };

    // 4) Keyword leg, or with no scoring leg the eligible documents.
    let rows = match keyword {
        Some(text) => {
            let _span = Span::enter(
                obs_names::QUERY_STAGE_SECONDS,
                obs_names::QSTAGE_KEYWORD_SEARCH,
            );
            keyword_rows(shards, text, k, eligible.as_deref(), mode)
        }
        None if graph.is_none() => {
            let mut rows = Vec::new();
            for (no, shard) in shards.iter().enumerate() {
                let docs: Vec<u32> = match &eligible {
                    Some(runs) => runs[no].iter().take(k).copied().collect(),
                    None => (0..shard.index.num_docs() as u32).take(k).collect(),
                };
                for doc in docs {
                    let id = shard.index.external_id(doc).unwrap_or_default();
                    rows.push((0.0, shard.ordinals[doc as usize], id.to_string()));
                }
            }
            rows
        }
        None => Vec::new(),
    };

    // 5) Facet counts over the full criteria-eligible set (independent
    // of k and of the keyword ranking).
    let mut counts: BTreeMap<(FacetField, String), u64> = BTreeMap::new();
    if !facet_fields.is_empty() {
        let _span = Span::enter(
            obs_names::QUERY_STAGE_SECONDS,
            obs_names::QSTAGE_FACET_COUNT,
        );
        for (no, shard) in shards.iter().enumerate() {
            let _shard = create_obs::shard_span(obs_names::SPAN_COHORT_SHARD, no as u32);
            for (base, facets) in shard.index.facets() {
                // The segment's share of the eligible run, in its local ids.
                let local: Option<Vec<u32>> = eligible.as_ref().map(|runs| {
                    let (run, end) = (&runs[no], base + facets.num_docs());
                    let from = run.partition_point(|&doc| doc < base);
                    let to = run.partition_point(|&doc| doc < end);
                    run[from..to].iter().map(|doc| doc - base).collect()
                });
                for &field in &facet_fields {
                    for (value, run) in facets.values(field) {
                        let c = match &local {
                            Some(local) => {
                                note_intersections(1);
                                intersect_count(run, local)
                            }
                            None => run.len() as u64,
                        };
                        if c > 0 {
                            *counts.entry((field, value.to_string())).or_insert(0) += c;
                        }
                    }
                }
            }
        }
    }

    // 6) Merge: the shard_equivalence tie-break, then the policy.
    let _span = Span::enter(obs_names::QUERY_STAGE_SECONDS, obs_names::QSTAGE_MERGE);
    let keyword_hits = search::gather_keyword_hits(rows, k);
    let hits = search::merge(graph_hits, keyword_hits, policy, k);
    let total_matched = match &eligible {
        Some(runs) => runs.iter().map(|run| run.len() as u64).sum(),
        None => shards.iter().map(|s| s.index.num_docs() as u64).sum(),
    };
    let facets = facet_fields
        .iter()
        .map(|&field| FacetCounts {
            field,
            counts: counts
                .iter()
                .filter(|((f, _), _)| *f == field)
                .map(|((_, v), c)| (v.clone(), *c))
                .collect(),
        })
        .collect();
    CohortResult {
        hits,
        total_matched,
        facets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use create_docstore::json::parse_json;
    use create_ontology::clinical_ontology;

    fn filter(field: FacetField, values: &[&str]) -> PlanNode {
        PlanNode::Filter(FacetFilter {
            field,
            values: values.iter().map(|v| v.to_string()).collect(),
        })
    }

    #[test]
    fn optimize_is_canonical_and_idempotent() {
        let plan = QueryPlan {
            nodes: vec![
                PlanNode::Merge {
                    policy: MergePolicy::EsOnly,
                    k: 5,
                },
                PlanNode::Keyword {
                    text: "fever".into(),
                },
                filter(FacetField::Year, &["2019", "2018", "2019"]),
                filter(FacetField::Category, &["cancer"]),
            ],
        };
        let optimized = plan.clone().optimize();
        assert!(matches!(
            optimized.nodes[0],
            PlanNode::Filter(FacetFilter {
                field: FacetField::Category,
                ..
            })
        ));
        if let PlanNode::Filter(f) = &optimized.nodes[1] {
            assert_eq!(f.values, vec!["2018", "2019"], "sorted + deduped");
        } else {
            panic!("filter expected");
        }
        assert!(matches!(
            optimized.nodes.last(),
            Some(PlanNode::Merge { .. })
        ));
        assert_eq!(optimized.clone().optimize(), optimized, "idempotent");
        // Authoring order must not leak into the canonical key.
        let reordered = QueryPlan {
            nodes: vec![
                filter(FacetField::Category, &["cancer"]),
                filter(FacetField::Year, &["2018", "2019"]),
                PlanNode::Keyword {
                    text: "fever".into(),
                },
                PlanNode::Merge {
                    policy: MergePolicy::EsOnly,
                    k: 5,
                },
            ],
        }
        .optimize();
        assert_eq!(reordered.canonical_key(), optimized.canonical_key());
    }

    #[test]
    fn canonical_key_distinguishes_every_dimension() {
        let base = QueryPlan {
            nodes: vec![
                filter(FacetField::Sex, &["female"]),
                PlanNode::Merge {
                    policy: MergePolicy::EsOnly,
                    k: 10,
                },
            ],
        }
        .optimize();
        let other_value = QueryPlan {
            nodes: vec![
                filter(FacetField::Sex, &["male"]),
                PlanNode::Merge {
                    policy: MergePolicy::EsOnly,
                    k: 10,
                },
            ],
        }
        .optimize();
        let other_k = QueryPlan {
            nodes: vec![
                filter(FacetField::Sex, &["female"]),
                PlanNode::Merge {
                    policy: MergePolicy::EsOnly,
                    k: 20,
                },
            ],
        }
        .optimize();
        let keys = [
            base.canonical_key(),
            other_value.canonical_key(),
            other_k.canonical_key(),
        ];
        assert_eq!(
            keys.iter().collect::<std::collections::HashSet<_>>().len(),
            3,
            "{keys:?}"
        );
    }

    #[test]
    fn empty_filters_are_dropped() {
        let plan = QueryPlan {
            nodes: vec![
                filter(FacetField::Tnm, &[]),
                PlanNode::Merge {
                    policy: MergePolicy::EsOnly,
                    k: 3,
                },
            ],
        }
        .optimize();
        assert_eq!(plan.nodes.len(), 1);
    }

    #[test]
    fn criteria_parse_roundtrip() {
        let ontology = clinical_ontology();
        let json = parse_json(
            r#"{
                "filters": [{"field": "category", "values": ["cancer"]},
                            {"field": "sex", "value": "female"}],
                "keywords": "chest pain",
                "temporal": [{"a": "fever", "op": "before", "b": "cough"},
                             {"a": "fever", "op": "within", "days": 60, "b": "cough"}],
                "facets": ["year", "sex", "year"],
                "k": 7
            }"#,
        )
        .unwrap();
        let criteria = parse_cohort_criteria(&json, &ontology).unwrap();
        assert_eq!(criteria.filters.len(), 2);
        assert_eq!(criteria.filters[1].values, vec!["female"]);
        assert_eq!(criteria.keywords.as_deref(), Some("chest pain"));
        assert_eq!(criteria.temporal.len(), 2);
        assert_eq!(criteria.temporal[0].op, TemporalOp::Before);
        assert_eq!(criteria.temporal[1].op, TemporalOp::Within(60));
        assert_eq!(
            criteria.facet_counts,
            vec![FacetField::Year, FacetField::Sex],
            "deduplicated, order kept"
        );
        assert_eq!(criteria.k, 7);
    }

    /// A `"days"` outside `u32` is refused, not wrapped: 2^32 + 1 once
    /// read as "within 1 day".
    #[test]
    fn within_days_outside_u32_are_refused() {
        let ontology = clinical_ontology();
        let criteria = |days: &str| {
            let text = format!(
                r#"{{"temporal": [{{"a": "fever", "op": "within", "days": {days}, "b": "cough"}}]}}"#
            );
            parse_cohort_criteria(&parse_json(&text).unwrap(), &ontology)
        };
        let within = |days: &str| criteria(days).unwrap().temporal[0].op;
        assert_eq!(within("0"), TemporalOp::Within(0));
        assert_eq!(within("4294967295"), TemporalOp::Within(u32::MAX));
        for days in ["4294967296", "4294967297", "-1"] {
            let refused = criteria(days).map(drop).unwrap_err();
            assert!(refused.contains("0..=4294967295"), "{days}: {refused}");
        }
    }

    #[test]
    fn criteria_parse_rejects_bad_input() {
        let ontology = clinical_ontology();
        for bad in [
            r#"{}"#,
            r#"{"filters": [{"field": "nope", "values": ["x"]}]}"#,
            r#"{"filters": [{"field": "sex"}]}"#,
            r#"{"temporal": [{"a": "fever", "op": "sideways", "b": "cough"}]}"#,
            r#"{"temporal": [{"a": "fever", "op": "within", "b": "cough"}]}"#,
            r#"{"temporal": [{"a": "zzzz-not-a-term", "op": "before", "b": "cough"}]}"#,
            r#"{"filters": [{"field": "sex", "value": "female"}], "k": 0}"#,
        ] {
            let json = parse_json(bad).unwrap();
            assert!(
                parse_cohort_criteria(&json, &ontology).is_err(),
                "should reject {bad}"
            );
        }
    }

    #[test]
    fn lowering_search_respects_policy() {
        let ontology = clinical_ontology();
        let parsed = crate::pipeline::QueryIE::parse_gazetteer("fever then cough", &ontology);
        // (has a GraphMatch node, has a Keyword node) per policy.
        let legs = |policy| {
            let nodes = lower_search("fever then cough", &parsed, 10, policy).nodes;
            (
                nodes
                    .iter()
                    .any(|n| matches!(n, PlanNode::GraphMatch { .. })),
                nodes.iter().any(|n| matches!(n, PlanNode::Keyword { .. })),
            )
        };
        assert_eq!(legs(MergePolicy::Neo4jFirst), (true, true));
        assert_eq!(legs(MergePolicy::EsOnly), (false, true));
        assert_eq!(legs(MergePolicy::GraphOnly), (true, false));
    }

    #[test]
    fn cohort_result_json_shape() {
        let result = CohortResult {
            hits: vec![SearchHit {
                report_id: "pmid:1".into(),
                score: 1.5,
                source: crate::search::SearchSource::Keyword,
                pattern_matched: false,
            }],
            total_matched: 3,
            facets: vec![FacetCounts {
                field: FacetField::Sex,
                counts: vec![("female".into(), 2), ("male".into(), 1)],
            }],
        };
        let json = result.to_json();
        assert_eq!(json.get("totalMatched").and_then(Value::as_i64), Some(3));
        let hits = json.get("hits").and_then(Value::as_array).unwrap();
        assert_eq!(
            hits[0].get("reportId").and_then(Value::as_str),
            Some("pmid:1")
        );
        let facets = json.get("facets").and_then(Value::as_array).unwrap();
        assert_eq!(facets[0].get("field").and_then(Value::as_str), Some("sex"));
    }
}
