//! The property graph store.
//!
//! Nodes carry labels (e.g. `Concept`, `Report`) and JSON properties;
//! edges carry a relationship type (e.g. `BEFORE`, `MENTIONS`) and
//! properties. Label and `(label, key, value)` indexes accelerate the
//! pattern-match executor's seed lookups; adjacency lists drive expansion.
//!
//! The representation is flat and interned. Ids are dense and nodes and
//! edges are never removed, so both live inline in id-indexed chunked
//! vectors; labels, relationship types and property keys are `Arc<str>`
//! symbols the graph hands out once per distinct string; a node's or
//! edge's properties are one key-sorted slice; and adjacency is threaded
//! through the edges themselves — every edge names the previous edge out
//! of its source and into its target, every node its latest — so a
//! neighbourhood costs no allocation of its own.

use create_docstore::Value;
use create_util::fxhash::{FxHashMap, FxHashSet};
use create_util::{arc_slice_bytes, Chunked};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

/// Edge identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u64);

/// One property: its interned key and its value.
type Prop = (Arc<str>, Value);

/// The properties of a node or an edge: `(key, value)` pairs sorted by
/// key, one value per key. An empty set allocates nothing, and a clone
/// shares the slice — values are never copied.
#[derive(Debug, Clone)]
pub struct Props(Option<Arc<[Prop]>>);

impl Props {
    fn entries(&self) -> &[Prop] {
        self.0.as_deref().unwrap_or_default()
    }

    /// The value of `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let entries = self.entries();
        let at = entries.binary_search_by(|(k, _)| (**k).cmp(key)).ok()?;
        Some(&entries[at].1)
    }

    /// Whether `key` has a value.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// The properties in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries().iter().map(|(k, v)| (&**k, v))
    }
}

impl std::ops::Index<&str> for Props {
    type Output = Value;

    /// Panics when `key` has no value, like a map's index.
    fn index(&self, key: &str) -> &Value {
        self.get(key).expect("no such property")
    }
}

/// A stored node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Identifier.
    pub id: NodeId,
    /// Labels, sorted; nodes with the same labels share one slice.
    pub labels: Arc<[Arc<str>]>,
    /// Properties.
    pub props: Props,
}

/// A stored edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Identifier.
    pub id: EdgeId,
    /// Source node.
    pub source: NodeId,
    /// Target node.
    pub target: NodeId,
    /// Relationship type.
    pub rel_type: Arc<str>,
    /// Properties.
    pub props: Props,
    /// The edge created before this one out of `source` / into `target`
    /// ([`NO_EDGE`] for the first).
    prev_out: u64,
    prev_in: u64,
}

/// End of an adjacency chain.
const NO_EDGE: u64 = u64::MAX;

/// An index's posting lists: key → node ids in creation order. A clone
/// of the index bumps a reference count per list; an append after it
/// copies the list's chunk table and last chunk (see [`Chunked`]), not
/// the list.
type NodeIndex = FxHashMap<Arc<str>, Arc<Chunked<NodeId>>>;

fn index_push(index: &mut NodeIndex, key: &str, id: NodeId) {
    match index.get_mut(key) {
        Some(ids) => Arc::make_mut(ids).push(id),
        None => {
            index.insert(Arc::from(key), Arc::new(Chunked::from_iter([id])));
        }
    }
}

fn index_get<'a>(index: &'a NodeIndex, key: &str) -> impl DoubleEndedIterator<Item = NodeId> + 'a {
    index
        .get(key)
        .into_iter()
        .flat_map(|ids| ids.iter().copied())
}

/// An `Arc<Chunked<_>>` allocation: two counters and the chunk table's
/// three words.
const ARC_CHUNKED_BYTES: usize = 5 * std::mem::size_of::<usize>();

fn index_heap_bytes(index: &NodeIndex) -> usize {
    // One control byte per bucket beside the entry itself.
    let table = index.capacity() * (std::mem::size_of::<(Arc<str>, Arc<Chunked<NodeId>>)>() + 1);
    let entries: usize = index
        .iter()
        .map(|(key, ids)| arc_slice_bytes(key.len()) + ARC_CHUNKED_BYTES + ids.heap_bytes())
        .sum();
    table + entries
}

/// Heap bytes a property value owns beyond its own 32 bytes.
fn value_heap_bytes(value: &Value) -> usize {
    match value {
        Value::String(s) => s.capacity(),
        Value::Array(items) => {
            items.capacity() * std::mem::size_of::<Value>()
                + items.iter().map(value_heap_bytes).sum::<usize>()
        }
        // A map node holds up to 11 entries; charge each entry a full share.
        Value::Object(map) => map
            .iter()
            .map(|(k, v)| k.capacity() + 2 * std::mem::size_of::<Value>() + value_heap_bytes(v))
            .sum(),
        Value::Null | Value::Bool(_) | Value::Number(_) => 0,
    }
}

/// The in-memory property graph.
///
/// `Clone` is structural sharing: a snapshot copies chunk tables, the
/// symbol tables and the two indexes' key → chunk-table tables, never a
/// property value, and none of it allocates per node or per edge. Nodes
/// and edges are append-only (the Cypher executor only ever `CREATE`s);
/// a write after a snapshot copies the last chunk of each vector, the
/// chunks holding the touched nodes' adjacency heads, and the last chunk
/// of each index id list it appends to.
#[derive(Debug, Default, Clone)]
pub struct PropertyGraph {
    nodes: Chunked<Node>,
    edges: Chunked<Edge>,
    /// Per node: its latest outgoing and incoming edge ([`NO_EDGE`] for
    /// none), the heads of the chains through `Edge::prev_out` /
    /// `Edge::prev_in`.
    heads: Chunked<[u64; 2]>,
    /// Every label, relationship type and property key, once.
    symbols: FxHashSet<Arc<str>>,
    /// Every distinct sorted label set, once.
    label_sets: FxHashSet<Arc<[Arc<str>]>>,
    /// label → node ids.
    label_index: NodeIndex,
    /// `label \0 key \0 serialized value` → node ids. The three parts
    /// are flattened into one string so a lookup probes with one
    /// borrowed `&str` and ingest allocates only for keys seen for the
    /// first time; `\0` cannot occur in any part (labels and keys are
    /// identifiers, the JSON form escapes control characters), so the
    /// flattening is unambiguous.
    prop_index: NodeIndex,
}

/// Builds the flattened `prop_index` key (see the field's docs).
fn flatten_prop_key(out: &mut String, label: &str, key: &str, value: &Value) {
    out.push_str(label);
    out.push('\0');
    out.push_str(key);
    out.push('\0');
    value.write_json(out);
}

impl PropertyGraph {
    /// Creates an empty graph.
    pub fn new() -> PropertyGraph {
        PropertyGraph::default()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The graph's one `Arc<str>` for `name`.
    fn intern(&mut self, name: &str) -> Arc<str> {
        if let Some(symbol) = self.symbols.get(name) {
            return Arc::clone(symbol);
        }
        let symbol: Arc<str> = Arc::from(name);
        self.symbols.insert(Arc::clone(&symbol));
        symbol
    }

    /// Key-sorted, the last value given for a key kept: what collecting
    /// into a map makes of the pairs.
    fn intern_props<K: AsRef<str>>(&mut self, props: Vec<(K, Value)>) -> Props {
        if props.is_empty() {
            return Props(None);
        }
        let entries: BTreeMap<Arc<str>, Value> = props
            .into_iter()
            .map(|(k, v)| (self.intern(k.as_ref()), v))
            .collect();
        Props(Some(entries.into_iter().collect()))
    }

    /// Creates a node with labels and properties; returns its id.
    pub fn create_node<L, K>(&mut self, labels: L, props: Vec<(K, Value)>) -> NodeId
    where
        L: IntoIterator,
        L::Item: AsRef<str>,
        K: AsRef<str>,
    {
        let id = NodeId(self.nodes.len() as u64);
        let mut label_vec: Vec<Arc<str>> = labels
            .into_iter()
            .map(|l| self.intern(l.as_ref()))
            .collect();
        label_vec.sort();
        label_vec.dedup();
        let labels = match self.label_sets.get(label_vec.as_slice()) {
            Some(set) => Arc::clone(set),
            None => {
                let set: Arc<[Arc<str>]> = label_vec.into();
                self.label_sets.insert(Arc::clone(&set));
                set
            }
        };
        let props = self.intern_props(props);
        let mut prop_key = String::new();
        for label in labels.iter() {
            index_push(&mut self.label_index, label, id);
            for (k, v) in props.iter() {
                prop_key.clear();
                flatten_prop_key(&mut prop_key, label, k, v);
                index_push(&mut self.prop_index, &prop_key, id);
            }
        }
        self.nodes.push(Node { id, labels, props });
        self.heads.push([NO_EDGE; 2]);
        id
    }

    /// Creates a directed edge; panics if either endpoint is missing.
    pub fn create_edge<K>(
        &mut self,
        source: NodeId,
        target: NodeId,
        rel_type: impl AsRef<str>,
        props: Vec<(K, Value)>,
    ) -> EdgeId
    where
        K: AsRef<str>,
    {
        assert!(self.node(source).is_some(), "missing source node");
        assert!(self.node(target).is_some(), "missing target node");
        let id = EdgeId(self.edges.len() as u64);
        let edge = Edge {
            id,
            source,
            target,
            rel_type: self.intern(rel_type.as_ref()),
            props: self.intern_props(props),
            prev_out: std::mem::replace(&mut self.heads.get_mut(source.0 as usize)[0], id.0),
            prev_in: std::mem::replace(&mut self.heads.get_mut(target.0 as usize)[1], id.0),
        };
        self.edges.push(edge);
        id
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(usize::try_from(id.0).ok()?)
    }

    /// Edge accessor.
    pub fn edge(&self, id: EdgeId) -> Option<&Edge> {
        self.edges.get(usize::try_from(id.0).ok()?)
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// All edges, in id order.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.iter()
    }

    /// Nodes carrying a label, in creation order.
    pub fn nodes_with_label(&self, label: &str) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        index_get(&self.label_index, label)
    }

    /// Index lookup: nodes with `label` whose property `key` equals
    /// `value`, in creation order.
    pub fn nodes_with_prop(
        &self,
        label: &str,
        key: &str,
        value: &Value,
    ) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        let mut prop_key = String::new();
        flatten_prop_key(&mut prop_key, label, key, value);
        index_get(&self.prop_index, &prop_key)
    }

    /// Follows one adjacency chain back from a node's latest edge and
    /// returns it in creation order.
    fn chain(&self, node: NodeId, side: usize, prev: impl Fn(&Edge) -> u64) -> Vec<&Edge> {
        let head = usize::try_from(node.0).ok().and_then(|i| self.heads.get(i));
        let mut next = head.map_or(NO_EDGE, |heads| heads[side]);
        let mut edges = Vec::new();
        while let Some(edge) = self.edge(EdgeId(next)) {
            edges.push(edge);
            next = prev(edge);
        }
        edges.reverse();
        edges
    }

    /// Outgoing edges of a node.
    pub fn outgoing(&self, node: NodeId) -> Vec<&Edge> {
        self.chain(node, 0, |e| e.prev_out)
    }

    /// Incoming edges of a node.
    pub fn incoming(&self, node: NodeId) -> Vec<&Edge> {
        self.chain(node, 1, |e| e.prev_in)
    }

    /// Heap bytes the graph holds, from the lengths and capacities of
    /// what it allocated: the chunked vectors, each property slice with
    /// its values' strings, and both indexes' tables, keys and id
    /// vectors (the symbol tables, a few hundred bytes, are left out).
    /// Walks every node, edge and index entry, so it belongs on a stats
    /// path, not a query's.
    pub fn heap_bytes(&self) -> usize {
        let props = |p: &Props| match &p.0 {
            None => 0,
            Some(entries) => {
                let values: usize = entries.iter().map(|(_, v)| value_heap_bytes(v)).sum();
                arc_slice_bytes(std::mem::size_of_val(&**entries)) + values
            }
        };
        self.nodes.heap_bytes()
            + self.edges.heap_bytes()
            + self.heads.heap_bytes()
            + self.nodes.iter().map(|n| props(&n.props)).sum::<usize>()
            + self.edges.iter().map(|e| props(&e.props)).sum::<usize>()
            + index_heap_bytes(&self.label_index)
            + index_heap_bytes(&self.prop_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use create_util::chunked::CHUNK;

    fn v(s: &str) -> Value {
        Value::String(s.to_string())
    }

    fn labels(g: &PropertyGraph, id: NodeId) -> Vec<&str> {
        g.node(id).unwrap().labels.iter().map(|l| &**l).collect()
    }

    fn tiny() -> (PropertyGraph, NodeId, NodeId, NodeId) {
        let mut g = PropertyGraph::new();
        let fever = g.create_node(
            ["Concept"],
            vec![("label", v("fever")), ("entityType", v("Sign_symptom"))],
        );
        let cough = g.create_node(
            ["Concept"],
            vec![("label", v("cough")), ("entityType", v("Sign_symptom"))],
        );
        let report = g.create_node(["Report"], vec![("reportId", v("pmid:1"))]);
        g.create_edge::<&str>(fever, cough, "OVERLAP", vec![]);
        g.create_edge(
            report,
            fever,
            "MENTIONS",
            vec![("weight", Value::Number(1.0))],
        );
        (g, fever, cough, report)
    }

    #[test]
    fn create_and_lookup() {
        let (g, fever, _, report) = tiny();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.node(fever).unwrap().props["label"], v("fever"));
        assert_eq!(labels(&g, report), ["Report"]);
    }

    #[test]
    fn label_index() {
        let (g, ..) = tiny();
        assert_eq!(g.nodes_with_label("Concept").count(), 2);
        assert_eq!(g.nodes_with_label("Report").count(), 1);
        assert_eq!(g.nodes_with_label("Missing").next(), None);
    }

    #[test]
    fn prop_index() {
        let (g, fever, ..) = tiny();
        let hits: Vec<NodeId> = g.nodes_with_prop("Concept", "label", &v("fever")).collect();
        assert_eq!(hits, vec![fever]);
        assert_eq!(
            g.nodes_with_prop("Concept", "label", &v("nope")).next(),
            None
        );
    }

    #[test]
    fn adjacency() {
        let (g, fever, cough, report) = tiny();
        let out: Vec<NodeId> = g.outgoing(fever).iter().map(|e| e.target).collect();
        assert_eq!(out, vec![cough]);
        let inc: Vec<NodeId> = g.incoming(fever).iter().map(|e| e.source).collect();
        assert_eq!(inc, vec![report]);
        assert_eq!(&*g.outgoing(fever)[0].rel_type, "OVERLAP");
    }

    #[test]
    fn labels_are_sorted_and_deduped() {
        let mut g = PropertyGraph::new();
        let n = g.create_node(["B", "A", "B"], Vec::<(&str, Value)>::new());
        assert_eq!(labels(&g, n), ["A", "B"]);
    }

    #[test]
    fn props_are_key_sorted_and_the_last_value_of_a_key_wins() {
        let given = vec![
            ("step", Value::Number(1.0)),
            ("cui", v("C1")),
            ("step", Value::Number(2.0)),
            ("label", v("fever")),
            ("cui", v("C2")),
            ("step", Value::Number(3.0)),
        ];
        let collected: std::collections::BTreeMap<String, Value> = given
            .iter()
            .map(|(k, value)| (k.to_string(), value.clone()))
            .collect();
        let mut g = PropertyGraph::new();
        let n = g.create_node(["Event"], given);
        let props = &g.node(n).unwrap().props;
        let listed: Vec<(&str, &Value)> = props.iter().collect();
        let expected: Vec<(&str, &Value)> = collected
            .iter()
            .map(|(k, value)| (k.as_str(), value))
            .collect();
        assert_eq!(listed, expected);
        assert_eq!(props["step"], Value::Number(3.0));
        assert_eq!(props.get("cui"), Some(&v("C2")));
        assert!(props.contains_key("label") && !props.contains_key("labe"));
        // The index holds the value that won and not the ones it replaced.
        assert!(g.nodes_with_prop("Event", "cui", &v("C2")).eq([n]));
        assert_eq!(g.nodes_with_prop("Event", "cui", &v("C1")).next(), None);
    }

    #[test]
    fn symbols_are_shared_and_bare_edges_own_nothing() {
        let (mut g, fever, cough, report) = tiny();
        let other = g.create_node(["Report"], vec![("reportId", v("pmid:2"))]);
        let (a, b) = (g.node(report).unwrap(), g.node(other).unwrap());
        assert!(Arc::ptr_eq(&a.labels, &b.labels));
        assert!(Arc::ptr_eq(
            &a.props.entries()[0].0,
            &b.props.entries()[0].0
        ));
        let again = g.create_edge::<&str>(cough, fever, "OVERLAP", vec![]);
        let first = g.outgoing(fever)[0];
        let again = g.edge(again).unwrap();
        assert!(Arc::ptr_eq(&first.rel_type, &again.rel_type));
        assert!(first.props.0.is_none());
    }

    #[test]
    fn an_index_append_after_a_snapshot_leaves_the_snapshot_as_it_was() {
        let mut g = PropertyGraph::new();
        let first = g.create_node(["Event"], vec![("cui", v("C1"))]);
        let snapshot = g.clone();
        let second = g.create_node(["Event"], vec![("cui", v("C1"))]);
        assert!(g.nodes_with_label("Event").eq([first, second]));
        assert!(g
            .nodes_with_prop("Event", "cui", &v("C1"))
            .eq([first, second]));
        assert!(snapshot.nodes_with_label("Event").eq([first]));
        assert!(snapshot
            .nodes_with_prop("Event", "cui", &v("C1"))
            .eq([first]));
    }

    #[test]
    fn adjacency_keeps_creation_order_across_chunks_and_snapshots() {
        let mut g = PropertyGraph::new();
        let hub = g.create_node(["Concept"], Vec::<(&str, Value)>::new());
        let mut sources = Vec::new();
        for i in 0..2 * CHUNK + 7 {
            let snapshot = (i == CHUNK + 3).then(|| g.clone());
            let n = g.create_node(["Report"], Vec::<(&str, Value)>::new());
            g.create_edge::<&str>(n, hub, "MENTIONS", vec![]);
            sources.push(n);
            // A write after a snapshot does not reach it.
            if let Some(snapshot) = snapshot {
                assert_eq!(snapshot.node_count(), i + 1);
                assert_eq!(snapshot.incoming(hub).len(), i);
                assert!(snapshot.node(n).is_none());
            }
        }
        let incoming: Vec<NodeId> = g.incoming(hub).iter().map(|e| e.source).collect();
        assert_eq!(incoming, sources);
        assert!(g.nodes_with_label("Report").eq(sources.iter().copied()));
        assert_eq!(g.nodes().count(), sources.len() + 1);
        assert!(g.edges().map(|e| e.id.0).eq(0..sources.len() as u64));
        assert!(g.outgoing(hub).is_empty() && g.outgoing(NodeId(u64::MAX)).is_empty());
    }

    #[test]
    #[should_panic(expected = "missing source")]
    fn edge_requires_endpoints() {
        let mut g = PropertyGraph::new();
        let n = g.create_node(["X"], Vec::<(&str, Value)>::new());
        g.create_edge::<&str>(NodeId(99), n, "T", vec![]);
    }
}
