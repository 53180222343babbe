//! An append-only vector in `Arc`-shared chunks: structural sharing for
//! columns that only ever grow.
//!
//! A clone copies the chunk table, one pointer per [`CHUNK`] elements;
//! an append after a clone copies the last chunk. A shard's unsealed
//! payload, event and ordinal columns are each one of these, so the
//! first write after a snapshot was published copies a chunk of each,
//! not the column.

use std::sync::Arc;

/// Elements per chunk.
pub const CHUNK: usize = 1024;

/// An `Arc<Vec<_>>` allocation without the vector's buffer: two counters
/// and the vector's three words.
const ARC_VEC_BYTES: usize = 5 * std::mem::size_of::<usize>();

/// A vector in chunks of [`CHUNK`] elements behind `Arc`. Elements must
/// be cheap to clone — plain data and reference counts — since a shared
/// chunk is copied element by element.
///
/// A chunk grows like a `Vec` up to [`CHUNK`] elements and is copied at
/// its capacity, so a short vector holds a short buffer: a shard's first
/// few unsealed payloads are a handful of pointers, not a chunk.
#[derive(Debug, Clone)]
pub struct Chunked<T> {
    chunks: Vec<Arc<Vec<T>>>,
}

impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Chunked { chunks: Vec::new() }
    }
}

impl<T: Clone> Chunked<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self.chunks.last() {
            Some(last) => (self.chunks.len() - 1) * CHUNK + last.len(),
            None => 0,
        }
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Element `i`.
    pub fn get(&self, i: usize) -> Option<&T> {
        self.chunks.get(i / CHUNK)?.get(i % CHUNK)
    }

    /// The newest element.
    pub fn last(&self) -> Option<&T> {
        self.chunks.last()?.last()
    }

    /// Appends an element to the last chunk, copied first when a clone
    /// shares it.
    pub fn push(&mut self, value: T) {
        if self.chunks.last().is_none_or(|last| last.len() == CHUNK) {
            // The table grows one pointer at a time: a chunk is a
            // thousand elements, and most vectors hold one chunk.
            self.chunks.reserve_exact(1);
            self.chunks.push(Arc::new(Vec::new()));
        }
        let last = self.chunks.last_mut().expect("pushed above");
        if Arc::get_mut(last).is_none() {
            let mut copy = Vec::with_capacity(last.capacity());
            copy.extend_from_slice(last);
            *last = Arc::new(copy);
        }
        Arc::get_mut(last).expect("unshared above").push(value);
    }

    /// The elements in order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }

    /// Heap bytes held: the chunk table, and each chunk's `Arc` and
    /// buffer at its capacity.
    pub fn heap_bytes(&self) -> usize {
        self.chunks.capacity() * std::mem::size_of::<Arc<Vec<T>>>()
            + self
                .chunks
                .iter()
                .map(|chunk| ARC_VEC_BYTES + chunk.capacity() * std::mem::size_of::<T>())
                .sum::<usize>()
    }
}

impl<T: Clone> std::ops::Index<usize> for Chunked<T> {
    type Output = T;

    /// Panics when `i` is out of bounds, like a slice's index.
    fn index(&self, i: usize) -> &T {
        self.get(i).expect("index out of bounds")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_write_after_a_clone_copies_one_chunk() {
        let mut v = Chunked::default();
        for i in 0..2 * CHUNK as u64 + 5 {
            v.push(i);
        }
        assert_eq!(v.len(), 2 * CHUNK + 5);
        let snapshot = v.clone();
        v.push(7);
        assert_eq!((v[3], snapshot[3]), (3, 3));
        assert_eq!((v.len(), snapshot.len()), (2 * CHUNK + 6, 2 * CHUNK + 5));
        assert_eq!(v.last(), Some(&7));
        // The full chunks are still the snapshot's; the last was copied.
        assert!(Arc::ptr_eq(&v.chunks[1], &snapshot.chunks[1]));
        assert!(!Arc::ptr_eq(&v.chunks[2], &snapshot.chunks[2]));
        assert!(v.iter().copied().take(3).eq([0, 1, 2]));
        assert_eq!(v.get(2 * CHUNK + 6), None);
    }

    #[test]
    fn a_short_vector_holds_a_short_buffer() {
        let mut v = Chunked::default();
        assert!(v.is_empty() && v.last().is_none());
        v.push(1u64);
        let shared = v.clone();
        v.push(2);
        assert!(v.chunks[0].capacity() < 16, "{}", v.chunks[0].capacity());
        assert_eq!(shared.len(), 1);
        assert_eq!(
            v.heap_bytes(),
            8 + ARC_VEC_BYTES + 8 * v.chunks[0].capacity()
        );
    }
}
