//! The property graph store.
//!
//! Nodes carry labels (e.g. `Concept`, `Report`) and JSON properties;
//! edges carry a relationship type (e.g. `BEFORE`, `MENTIONS`) and,
//! rarely, properties. Ids are dense and nothing is ever removed, so the
//! graph is a few id-indexed `Vec`s of fixed-size records:
//!
//! * a node is two `u32`s: its label set's symbol and the offset of its
//!   properties in the property arena;
//! * an edge is five `u32`s: its two endpoints, the previous edge out of
//!   its source and into its target, and its relationship type's symbol.
//!   Per node, `heads` holds the latest edge out and in, so adjacency is
//!   threaded through the edges and a neighbourhood costs no allocation
//!   of its own;
//! * a node's properties are one record in an append-only byte arena: a
//!   count, then per property, in key order, its key's symbol, a tag and
//!   the value inline — the string's bytes, the `f64`, or an array's or
//!   object's encoding. They are read in place, through [`PropRef`].
//!   Edge properties, which no ingest writes, are records in the same
//!   arena, found through a side table;
//! * labels, relationship types and property keys are symbols the graph
//!   interns once.
//!
//! Every label lists its nodes in creation order. A `(label, key)` pair
//! declared with [`PropertyGraph::with_indexes`] also maps each value's
//! hash to its nodes; as in Neo4j without `CREATE INDEX`, any other pair
//! is found by scanning the label. The symbols and label sets, bounded by
//! the schema, are looked up by scanning them.

use create_docstore::Value;
use create_util::fxhash::{FxHashMap, FxHasher};
use create_util::varint;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

/// Edge identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u64);

/// End of an adjacency chain, and the property offset of a node or edge
/// without properties.
const NONE: u32 = u32::MAX;

/// `len` as the id of the next record of a column of `what`.
fn next_id(len: usize, what: &str) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&id| id != NONE)
        .unwrap_or_else(|| panic!("a graph holds fewer than {NONE} {what}"))
}

// Value tags in the arena.
const NULL: u8 = 0;
const FALSE: u8 = 1;
const TRUE: u8 = 2;
const NUMBER: u8 = 3;
const STRING: u8 = 4;
const ARRAY: u8 = 5;
const OBJECT: u8 = 6;

fn encode_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    varint::write_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Appends `value`'s tag and payload: nothing more for `null` and the
/// booleans, the `f64`'s 8 bytes, a string's length and bytes, or an
/// array's or object's byte length and then its count and items (an
/// object's keys as strings, in order).
fn encode_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(NULL),
        Value::Bool(b) => out.push(if *b { TRUE } else { FALSE }),
        Value::Number(n) => {
            out.push(NUMBER);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::String(s) => {
            out.push(STRING);
            encode_bytes(out, s.as_bytes());
        }
        Value::Array(items) => {
            let mut body = Vec::new();
            varint::write_u64(&mut body, items.len() as u64);
            for item in items {
                encode_value(&mut body, item);
            }
            out.push(ARRAY);
            encode_bytes(out, &body);
        }
        Value::Object(map) => {
            let mut body = Vec::new();
            varint::write_u64(&mut body, map.len() as u64);
            for (key, item) in map {
                encode_bytes(&mut body, key.as_bytes());
                encode_value(&mut body, item);
            }
            out.push(OBJECT);
            encode_bytes(out, &body);
        }
    }
}

fn read_len(buf: &[u8], pos: &mut usize) -> usize {
    varint::read_u64(buf, pos).expect("the arena holds whole records") as usize
}

fn read_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> &'a [u8] {
    let len = read_len(buf, pos);
    let bytes = &buf[*pos..*pos + len];
    *pos += len;
    bytes
}

fn read_str<'a>(buf: &'a [u8], pos: &mut usize) -> &'a str {
    std::str::from_utf8(read_bytes(buf, pos)).expect("the arena holds only UTF-8 strings")
}

/// Reads the value at `*pos` and moves past it.
fn decode_value<'a>(buf: &'a [u8], pos: &mut usize) -> PropRef<'a> {
    let tag = buf[*pos];
    *pos += 1;
    PropRef(match tag {
        NULL => Repr::Null,
        FALSE => Repr::Bool(false),
        TRUE => Repr::Bool(true),
        NUMBER => {
            let bytes = buf[*pos..*pos + 8].try_into().expect("8 bytes");
            *pos += 8;
            Repr::Number(f64::from_le_bytes(bytes))
        }
        STRING => Repr::String(read_str(buf, pos)),
        ARRAY => Repr::Array(read_bytes(buf, pos)),
        OBJECT => Repr::Object(read_bytes(buf, pos)),
        _ => unreachable!("the arena holds only encoded values"),
    })
}

/// Moves past the value at `*pos` without reading it.
fn skip_value(buf: &[u8], pos: &mut usize) {
    let tag = buf[*pos];
    *pos += 1;
    match tag {
        NUMBER => *pos += 8,
        STRING | ARRAY | OBJECT => *pos += read_len(buf, pos),
        _ => {}
    }
}

/// A property value, read in place from the graph's arena.
#[derive(Clone, Copy)]
pub struct PropRef<'a>(Repr<'a>);

#[derive(Debug, Clone, Copy)]
enum Repr<'a> {
    Null,
    Bool(bool),
    Number(f64),
    String(&'a str),
    /// An array's encoded count and items.
    Array(&'a [u8]),
    /// An object's encoded count and entries.
    Object(&'a [u8]),
}

impl<'a> PropRef<'a> {
    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&'a str> {
        match self.0 {
            Repr::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self.0 {
            Repr::Number(n) => Some(n),
            _ => None,
        }
    }

    /// The value, built: what the executor projects and compares.
    pub fn to_value(&self) -> Value {
        match self.0 {
            Repr::Null => Value::Null,
            Repr::Bool(b) => Value::Bool(b),
            Repr::Number(n) => Value::Number(n),
            Repr::String(s) => Value::String(s.to_string()),
            Repr::Array(body) => {
                let mut pos = 0;
                let count = read_len(body, &mut pos);
                Value::Array(
                    (0..count)
                        .map(|_| decode_value(body, &mut pos).to_value())
                        .collect(),
                )
            }
            Repr::Object(body) => {
                let mut pos = 0;
                let count = read_len(body, &mut pos);
                Value::Object(
                    (0..count)
                        .map(|_| {
                            let key = read_str(body, &mut pos).to_string();
                            (key, decode_value(body, &mut pos).to_value())
                        })
                        .collect(),
                )
            }
        }
    }
}

impl PartialEq<Value> for PropRef<'_> {
    /// `Value`'s `==`: numbers as `f64`s, arrays and objects item by item.
    fn eq(&self, other: &Value) -> bool {
        match (self.0, other) {
            (Repr::Null, Value::Null) => true,
            (Repr::Bool(a), Value::Bool(b)) => a == *b,
            (Repr::Number(a), Value::Number(b)) => a == *b,
            (Repr::String(a), Value::String(b)) => a == b,
            (Repr::Array(_), Value::Array(_)) | (Repr::Object(_), Value::Object(_)) => {
                self.to_value() == *other
            }
            _ => false,
        }
    }
}

impl fmt::Debug for PropRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_value().fmt(f)
    }
}

/// `Value` as a declared index files it: values equal under `==` hash
/// alike (both zeros included).
struct IndexKey<'a>(&'a Value);

impl Hash for IndexKey<'_> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        match self.0 {
            Value::Null => h.write_u8(NULL),
            Value::Bool(b) => h.write_u8(if *b { TRUE } else { FALSE }),
            Value::Number(n) => {
                h.write_u8(NUMBER);
                h.write_u64(if *n == 0.0 { 0 } else { n.to_bits() });
            }
            Value::String(s) => {
                h.write_u8(STRING);
                s.hash(h);
            }
            Value::Array(items) => {
                h.write_u8(ARRAY);
                h.write_usize(items.len());
                items.iter().for_each(|item| IndexKey(item).hash(h));
            }
            Value::Object(map) => {
                h.write_u8(OBJECT);
                h.write_usize(map.len());
                for (key, item) in map {
                    key.hash(h);
                    IndexKey(item).hash(h);
                }
            }
        }
    }
}

/// The hash a declared index files `value` under.
fn index_hash(value: &Value) -> u64 {
    let mut hasher = FxHasher::default();
    IndexKey(value).hash(&mut hasher);
    hasher.finish()
}

/// The number of `value` in `values`: the graph's symbols (`str`) or
/// label sets (`[u32]`). Both are bounded by the schema — a few dozen
/// labels, types and keys, a handful of label sets — so a lookup scans
/// them, as `label_index` is scanned.
fn find<T: ?Sized + PartialEq>(values: &[Box<T>], value: &T) -> Option<u32> {
    let id = values.iter().position(|v| **v == *value)?;
    Some(id as u32)
}

/// [`find`], or `value` stored once more and numbered in first-seen
/// order.
fn intern<T: ?Sized + PartialEq>(values: &mut Vec<Box<T>>, value: &T) -> u32
where
    for<'a> Box<T>: From<&'a T>,
{
    if let Some(id) = find(values, value) {
        return id;
    }
    let id = next_id(values.len(), "symbols");
    values.push(Box::from(value));
    id
}

/// A declared `(label, key)` index: the value hash → the nodes with the
/// label whose `key` has a value of that hash, in creation order.
#[derive(Debug, Clone)]
struct PropIndex {
    label: u32,
    key: u32,
    nodes: FxHashMap<u64, Vec<u32>>,
}

/// The in-memory property graph (see the module docs for the layout).
/// It owns its columns: a `Clone` is a deep copy.
#[derive(Debug, Default, Clone)]
pub struct PropertyGraph {
    /// Per node: `[label set, properties]` — the symbol of its label set
    /// and the arena offset of its properties ([`NONE`] for none).
    nodes: Vec<[u32; 2]>,
    /// Per edge: `[source, target, prev_out, prev_in, type]` — the
    /// previous edges ([`NONE`] for none) out of its source and into its
    /// target, and its relationship type's symbol.
    edges: Vec<[u32; 5]>,
    /// Per node: its latest outgoing and incoming edge ([`NONE`] for
    /// none), the heads of the chains through the edges' links.
    heads: Vec<[u32; 2]>,
    /// Every property record; a record's offset is its byte position.
    arena: Vec<u8>,
    /// `[edge, properties]` for each edge that has properties, in edge
    /// order.
    edge_props: Vec<[u32; 2]>,
    /// Labels, relationship types and property keys.
    symbols: Vec<Box<str>>,
    /// Label symbols, sorted by name, per distinct set.
    label_sets: Vec<Box<[u32]>>,
    /// Label symbol → its nodes in creation order.
    label_index: Vec<(u32, Vec<u32>)>,
    /// The declared `(label, key)` indexes.
    indexes: Vec<PropIndex>,
}

/// A node, read in place.
#[derive(Clone, Copy)]
pub struct NodeRef<'g> {
    /// Identifier.
    pub id: NodeId,
    graph: &'g PropertyGraph,
    record: [u32; 2],
}

impl<'g> NodeRef<'g> {
    /// Labels, sorted.
    pub fn labels(&self) -> impl Iterator<Item = &'g str> + 'g {
        let graph = self.graph;
        graph.label_sets[self.record[0] as usize]
            .iter()
            .map(move |&label| graph.symbol(label))
    }

    /// Whether the node carries `label`.
    pub fn has_label(&self, label: &str) -> bool {
        self.labels().any(|l| l == label)
    }

    /// Properties, in key order.
    pub fn props(&self) -> Props<'g> {
        self.graph.props_at(self.record[1])
    }

    /// The value of `key`.
    pub fn prop(&self, key: &str) -> Option<PropRef<'g>> {
        self.props().get(key)
    }
}

impl fmt::Debug for NodeRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("labels", &self.labels().collect::<Vec<_>>())
            .field("props", &self.props().collect::<Vec<_>>())
            .finish()
    }
}

/// An edge, read in place.
#[derive(Clone, Copy)]
pub struct EdgeRef<'g> {
    /// Identifier.
    pub id: EdgeId,
    /// Source node.
    pub source: NodeId,
    /// Target node.
    pub target: NodeId,
    /// Relationship type.
    pub rel_type: &'g str,
    graph: &'g PropertyGraph,
}

impl<'g> EdgeRef<'g> {
    /// Properties, in key order.
    pub fn props(&self) -> Props<'g> {
        let table = &self.graph.edge_props;
        let found = table.binary_search_by_key(&(self.id.0 as u32), |&[edge, _]| edge);
        self.graph.props_at(found.map_or(NONE, |i| table[i][1]))
    }

    /// The value of `key`.
    pub fn prop(&self, key: &str) -> Option<PropRef<'g>> {
        self.props().get(key)
    }
}

impl fmt::Debug for EdgeRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Edge")
            .field("id", &self.id)
            .field("source", &self.source)
            .field("target", &self.target)
            .field("rel_type", &self.rel_type)
            .field("props", &self.props().collect::<Vec<_>>())
            .finish()
    }
}

/// One node's or edge's properties, read in place in key order.
#[derive(Clone)]
pub struct Props<'g> {
    symbols: &'g [Box<str>],
    record: &'g [u8],
    pos: usize,
    left: usize,
}

impl<'g> Props<'g> {
    /// The key symbol at `pos`, as its name.
    fn key(&mut self) -> &'g str {
        let symbols = self.symbols;
        let symbol = varint::read_u32(self.record, &mut self.pos).expect("a key symbol");
        &symbols[symbol as usize]
    }

    /// The value of `key`. Keys are in order, so the walk stops at the
    /// first greater one, and skips the values before it unread.
    pub fn get(mut self, key: &str) -> Option<PropRef<'g>> {
        while self.left > 0 {
            self.left -= 1;
            match self.key().cmp(key) {
                std::cmp::Ordering::Less => skip_value(self.record, &mut self.pos),
                std::cmp::Ordering::Equal => return Some(decode_value(self.record, &mut self.pos)),
                std::cmp::Ordering::Greater => return None,
            }
        }
        None
    }
}

impl<'g> Iterator for Props<'g> {
    type Item = (&'g str, PropRef<'g>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let key = self.key();
        Some((key, decode_value(self.record, &mut self.pos)))
    }
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

    fn symbol(&self, id: u32) -> &str {
        &self.symbols[id as usize]
    }

    /// Key-sorted with interned keys, the last value given for a key
    /// kept: what collecting into a map makes of the pairs.
    fn key_props<K: AsRef<str>>(&mut self, mut props: Vec<(K, Value)>) -> Vec<(u32, Value)> {
        // Reversed, then a stable sort: a key's last value comes first,
        // and the dedup keeps it.
        props.reverse();
        props.sort_by(|a, b| a.0.as_ref().cmp(b.0.as_ref()));
        props.dedup_by(|a, b| a.0.as_ref() == b.0.as_ref());
        let symbols = &mut self.symbols;
        let keyed = props
            .into_iter()
            .map(|(key, value)| (intern(symbols, key.as_ref()), value));
        keyed.collect()
    }

    /// Appends key-sorted properties to the arena as one record; returns
    /// its offset ([`NONE`] for none, which writes nothing).
    fn store_props(&mut self, props: &[(u32, Value)]) -> u32 {
        if props.is_empty() {
            return NONE;
        }
        let offset = u32::try_from(self.arena.len())
            .ok()
            .filter(|&offset| offset != NONE)
            .expect("a graph's property arena holds under 4 GiB");
        varint::write_u64(&mut self.arena, props.len() as u64);
        for (key, value) in props {
            varint::write_u32(&mut self.arena, *key);
            encode_value(&mut self.arena, value);
        }
        offset
    }

    fn props_at(&self, offset: u32) -> Props<'_> {
        let (record, left, pos) = if offset == NONE {
            (&[][..], 0, 0)
        } else {
            let record = &self.arena[offset as usize..];
            let mut pos = 0;
            let left = read_len(record, &mut pos);
            (record, left, pos)
        };
        Props {
            symbols: &self.symbols,
            record,
            pos,
            left,
        }
    }

    /// Creates a node with labels and properties; returns its id.
    pub fn create_node<L, K>(&mut self, labels: L, props: Vec<(K, Value)>) -> NodeId
    where
        L: IntoIterator,
        L::Item: AsRef<str>,
        K: AsRef<str>,
    {
        let id = next_id(self.nodes.len(), "nodes");
        let mut set: Vec<u32> = labels
            .into_iter()
            .map(|l| intern(&mut self.symbols, l.as_ref()))
            .collect();
        set.sort_by(|&a, &b| self.symbol(a).cmp(self.symbol(b)));
        set.dedup();
        let label_set = intern(&mut self.label_sets, &set[..]);
        let props = self.key_props(props);
        let offset = self.store_props(&props);
        for &label in &set {
            match self.label_index.iter_mut().find(|(l, _)| *l == label) {
                Some((_, ids)) => ids.push(id),
                None => self.label_index.push((label, vec![id])),
            }
        }
        for index in &mut self.indexes {
            let value = props.iter().find(|(key, _)| *key == index.key);
            if let Some((_, value)) = value.filter(|_| set.contains(&index.label)) {
                index.nodes.entry(index_hash(value)).or_default().push(id);
            }
        }
        self.nodes.push([label_set, offset]);
        self.heads.push([NONE; 2]);
        NodeId(id.into())
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
        let id = next_id(self.edges.len(), "edges");
        let rel = intern(&mut self.symbols, rel_type.as_ref());
        let (source, target) = (source.0 as u32, target.0 as u32);
        let prev_out = std::mem::replace(&mut self.heads[source as usize][0], id);
        let prev_in = std::mem::replace(&mut self.heads[target as usize][1], id);
        self.edges.push([source, target, prev_out, prev_in, rel]);
        let props = self.key_props(props);
        if !props.is_empty() {
            let offset = self.store_props(&props);
            self.edge_props.push([id, offset]);
        }
        EdgeId(id.into())
    }

    /// An empty graph that indexes each `(label, key)` pair of `pairs`
    /// by value: [`PropertyGraph::nodes_with_prop`] answers those pairs
    /// from a table of values, and only those.
    pub fn with_indexes(pairs: &[(&str, &str)]) -> PropertyGraph {
        let mut graph = PropertyGraph::new();
        for (label, key) in pairs {
            graph.indexes.push(PropIndex {
                label: intern(&mut graph.symbols, label),
                key: intern(&mut graph.symbols, key),
                nodes: FxHashMap::default(),
            });
        }
        graph
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> Option<NodeRef<'_>> {
        let record = *self.nodes.get(usize::try_from(id.0).ok()?)?;
        Some(NodeRef {
            id,
            graph: self,
            record,
        })
    }

    fn edge_at(&self, i: usize) -> EdgeRef<'_> {
        let [source, target, _, _, rel] = self.edges[i];
        EdgeRef {
            id: EdgeId(i as u64),
            source: NodeId(source.into()),
            target: NodeId(target.into()),
            rel_type: self.symbol(rel),
            graph: self,
        }
    }

    /// Edge accessor.
    pub fn edge(&self, id: EdgeId) -> Option<EdgeRef<'_>> {
        let i = usize::try_from(id.0).ok()?;
        (i < self.edges.len()).then(|| self.edge_at(i))
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeRef<'_>> {
        self.nodes
            .iter()
            .enumerate()
            .map(move |(i, &record)| NodeRef {
                id: NodeId(i as u64),
                graph: self,
                record,
            })
    }

    /// All edges, in id order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef<'_>> {
        (0..self.edges.len()).map(move |i| self.edge_at(i))
    }

    /// Nodes carrying a label, in creation order.
    pub fn nodes_with_label(&self, label: &str) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        let label = find(&self.symbols, label);
        let listed = self.label_index.iter().find(|(l, _)| Some(*l) == label);
        let ids = listed.map_or(&[][..], |(_, ids)| ids);
        ids.iter().map(|&id| NodeId(id.into()))
    }

    /// The nodes with `label` whose property `key` equals `value`, in
    /// creation order, from the pair's declared index — `None` when
    /// `(label, key)` is not declared: such a pair is found by scanning
    /// [`PropertyGraph::nodes_with_label`].
    pub fn nodes_with_prop(&self, label: &str, key: &str, value: &Value) -> Option<Vec<NodeId>> {
        let (label, key_symbol) = (find(&self.symbols, label)?, find(&self.symbols, key)?);
        let index = self
            .indexes
            .iter()
            .find(|i| i.label == label && i.key == key_symbol)?;
        let filed = index.nodes.get(&index_hash(value));
        let equal = |id: &NodeId| {
            let node = self.node(*id).expect("indexed nodes exist");
            node.prop(key).is_some_and(|found| found == *value)
        };
        Some(
            (filed.map_or(&[][..], |ids| ids).iter())
                .map(|&id| NodeId(id.into()))
                .filter(equal)
                .collect(),
        )
    }

    /// Follows one adjacency chain back from a node's latest edge and
    /// returns it in creation order.
    fn chain(&self, node: NodeId, side: usize) -> Vec<EdgeRef<'_>> {
        let head = usize::try_from(node.0).ok().and_then(|i| self.heads.get(i));
        let mut next = head.map_or(NONE, |heads| heads[side]);
        let mut edges = Vec::new();
        while next != NONE {
            edges.push(self.edge_at(next as usize));
            next = self.edges[next as usize][2 + side];
        }
        edges.reverse();
        edges
    }

    /// Outgoing edges of a node, in creation order.
    pub fn outgoing(&self, node: NodeId) -> Vec<EdgeRef<'_>> {
        self.chain(node, 0)
    }

    /// Incoming edges of a node, in creation order.
    pub fn incoming(&self, node: NodeId) -> Vec<EdgeRef<'_>> {
        self.chain(node, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Value {
        Value::String(s.to_string())
    }

    fn no_props() -> Vec<(&'static str, Value)> {
        Vec::new()
    }

    fn labels(g: &PropertyGraph, id: NodeId) -> Vec<&str> {
        g.node(id).unwrap().labels().collect()
    }

    fn tiny() -> (PropertyGraph, NodeId, NodeId, NodeId) {
        let mut g = PropertyGraph::with_indexes(&[("Concept", "label")]);
        let fever = g.create_node(
            ["Concept"],
            vec![("label", v("fever")), ("entityType", v("Sign_symptom"))],
        );
        let cough = g.create_node(
            ["Concept"],
            vec![("label", v("cough")), ("entityType", v("Sign_symptom"))],
        );
        let report = g.create_node(["Report"], vec![("reportId", v("pmid:1"))]);
        g.create_edge(fever, cough, "OVERLAP", no_props());
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
        assert_eq!(g.node(fever).unwrap().prop("label").unwrap(), v("fever"));
        assert_eq!(labels(&g, report), ["Report"]);
        assert!(g.node(NodeId(3)).is_none() && g.edge(EdgeId(2)).is_none());
    }

    #[test]
    fn label_index() {
        let (g, fever, cough, report) = tiny();
        assert!(g.nodes_with_label("Concept").eq([fever, cough]));
        assert!(g.nodes_with_label("Report").eq([report]));
        assert_eq!(g.nodes_with_label("Missing").next(), None);
    }

    #[test]
    fn declared_and_undeclared_pairs() {
        let (g, fever, ..) = tiny();
        assert_eq!(
            g.nodes_with_prop("Concept", "label", &v("fever")),
            Some(vec![fever])
        );
        assert_eq!(
            g.nodes_with_prop("Concept", "label", &v("nope")),
            Some(vec![])
        );
        // Not declared: the caller scans the label.
        assert_eq!(
            g.nodes_with_prop("Concept", "entityType", &v("Sign_symptom")),
            None
        );
        assert_eq!(g.nodes_with_prop("Report", "label", &v("fever")), None);
    }

    #[test]
    fn adjacency() {
        let (g, fever, cough, report) = tiny();
        let out: Vec<NodeId> = g.outgoing(fever).iter().map(|e| e.target).collect();
        assert_eq!(out, vec![cough]);
        let inc: Vec<NodeId> = g.incoming(fever).iter().map(|e| e.source).collect();
        assert_eq!(inc, vec![report]);
        assert_eq!(g.outgoing(fever)[0].rel_type, "OVERLAP");
    }

    #[test]
    fn edge_properties_live_in_the_side_table() {
        let (g, _, _, report) = tiny();
        let mention = g.outgoing(report)[0];
        assert_eq!(mention.prop("weight").unwrap().as_f64(), Some(1.0));
        assert!(g.edge(EdgeId(0)).unwrap().props().next().is_none());
        assert_eq!(g.edge_props.len(), 1, "only the edge with a property");
    }

    #[test]
    fn labels_are_sorted_and_deduped() {
        let mut g = PropertyGraph::new();
        let n = g.create_node(["B", "A", "B"], no_props());
        let m = g.create_node(["A", "B"], no_props());
        assert_eq!(labels(&g, n), ["A", "B"]);
        assert_eq!(g.nodes[0][0], g.nodes[1][0], "one label set, shared");
        assert!(g.node(m).unwrap().has_label("B"));
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
        let mut g = PropertyGraph::with_indexes(&[("Event", "cui")]);
        let n = g.create_node(["Event"], given);
        let node = g.node(n).unwrap();
        let listed: Vec<(String, Value)> = node
            .props()
            .map(|(k, value)| (k.to_string(), value.to_value()))
            .collect();
        let expected: Vec<(String, Value)> = collected.into_iter().collect();
        assert_eq!(listed, expected);
        assert_eq!(node.prop("step").unwrap().as_f64(), Some(3.0));
        assert_eq!(node.prop("cui").unwrap().as_str(), Some("C2"));
        assert!(node.prop("label").is_some() && node.prop("labe").is_none());
        // The index holds the value that won and not the ones it replaced.
        assert_eq!(g.nodes_with_prop("Event", "cui", &v("C2")), Some(vec![n]));
        assert_eq!(g.nodes_with_prop("Event", "cui", &v("C1")), Some(vec![]));
    }

    #[test]
    fn every_kind_of_value_reads_back() {
        let mut object = std::collections::BTreeMap::new();
        object.insert("a".to_string(), Value::Array(vec![Value::Null]));
        object.insert("b".to_string(), Value::Number(-0.5));
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Number(f64::MIN_POSITIVE),
            v(""),
            v("ünïcode"),
            Value::Array(vec![
                v("x"),
                Value::Number(2.0),
                Value::Object(object.clone()),
            ]),
            Value::Object(object),
        ];
        let mut g = PropertyGraph::new();
        let props: Vec<(String, Value)> = values
            .iter()
            .enumerate()
            .map(|(i, value)| (format!("k{i}"), value.clone()))
            .collect();
        let n = g.create_node(["X"], props);
        let node = g.node(n).unwrap();
        for (i, value) in values.iter().enumerate() {
            let found = node.prop(&format!("k{i}")).unwrap();
            assert_eq!(found.to_value(), *value);
            assert_eq!(found, *value);
        }
        assert_ne!(node.prop("k1").unwrap(), Value::Bool(false));
        assert_ne!(node.prop("k6").unwrap(), Value::Array(vec![]));
    }

    #[test]
    fn an_index_append_after_a_snapshot_leaves_the_snapshot_as_it_was() {
        let mut g = PropertyGraph::with_indexes(&[("Event", "cui")]);
        let first = g.create_node(["Event"], vec![("cui", v("C1"))]);
        let snapshot = g.clone();
        let second = g.create_node(["Event"], vec![("cui", v("C1"))]);
        let third = g.create_node(["Event"], vec![("cui", v("C3"))]);
        assert!(g.nodes_with_label("Event").eq([first, second, third]));
        assert_eq!(
            g.nodes_with_prop("Event", "cui", &v("C1")),
            Some(vec![first, second])
        );
        assert!(snapshot.nodes_with_label("Event").eq([first]));
        assert_eq!(
            snapshot.nodes_with_prop("Event", "cui", &v("C1")),
            Some(vec![first])
        );
        assert_eq!(
            snapshot.nodes_with_prop("Event", "cui", &v("C3")),
            Some(vec![])
        );
    }

    #[test]
    fn adjacency_keeps_creation_order_across_snapshots() {
        let mut g = PropertyGraph::new();
        let hub = g.create_node(["Concept"], no_props());
        let mut sources = Vec::new();
        for i in 0..2000 {
            let snapshot = (i == 1000).then(|| g.clone());
            let n = g.create_node(["Report"], no_props());
            g.create_edge(n, hub, "MENTIONS", no_props());
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
        let n = g.create_node(["X"], no_props());
        g.create_edge(NodeId(99), n, "T", no_props());
    }
}
