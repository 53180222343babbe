//! The in-RAM posting list: one term's postings as three flat arrays.

use std::sync::Arc;

/// One term's postings in struct-of-arrays form, sorted by doc id.
///
/// Posting `i` is document `docs[i]`, in which the term occurs
/// `ends[i] - ends[i - 1]` times (from 0 for `i == 0`): `ends` holds
/// cumulative term frequencies, and every posting's is at least one. In
/// a list of a field with word positions, the term's token positions in
/// posting `i` are `positions[ends[i - 1]..ends[i]]`; in a list of a
/// field without them (the n-gram field) `positions` is empty. A term
/// costs at most three heap buffers however long its list is, a cursor
/// strides 4-byte doc ids, and copy-on-write of a shared list is three
/// `memcpy`s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingList {
    docs: Vec<u32>,
    ends: Vec<u32>,
    positions: Vec<u32>,
}

impl PostingList {
    /// Assembles a list from its arrays. `ends` must be increasing with
    /// one entry per doc, and `positions` either empty or as long as the
    /// last end.
    pub(crate) fn from_parts(docs: Vec<u32>, ends: Vec<u32>, positions: Vec<u32>) -> PostingList {
        assert_eq!(docs.len(), ends.len(), "one end per posting");
        assert!(
            positions.is_empty() || ends.last().map_or(0, |&e| e as usize) == positions.len(),
            "last end closes the positions"
        );
        PostingList {
            docs,
            ends,
            positions,
        }
    }

    /// Number of postings (the term's document frequency).
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when the list holds no posting.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The doc ids, ascending.
    pub fn docs(&self) -> &[u32] {
        &self.docs
    }

    /// The cumulative term frequencies: `ends()[i]` is the term's
    /// occurrences in postings `0..=i`.
    pub(crate) fn ends(&self) -> &[u32] {
        &self.ends
    }

    /// The term's occurrences across all postings: the last end.
    pub(crate) fn occurrences(&self) -> u32 {
        self.ends.last().copied().unwrap_or(0)
    }

    /// Number of positions across all postings (0 for a list without
    /// positions).
    pub(crate) fn num_positions(&self) -> usize {
        self.positions.len()
    }

    #[inline]
    fn start(&self, i: usize) -> u32 {
        if i == 0 {
            0
        } else {
            self.ends[i - 1]
        }
    }

    /// Term frequency in posting `i`.
    #[inline]
    pub fn tf(&self, i: usize) -> u32 {
        self.ends[i] - self.start(i)
    }

    /// Token positions of the term in posting `i`; empty in a list of a
    /// field without word positions.
    #[inline]
    pub fn positions(&self, i: usize) -> &[u32] {
        if self.positions.is_empty() {
            return &[];
        }
        &self.positions[self.start(i) as usize..self.ends[i] as usize]
    }

    /// `(doc, term frequency, positions)` of every posting, in doc order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, &[u32])> + '_ {
        self.iter_from(0)
    }

    /// [`PostingList::iter`] starting at posting `start`.
    pub(crate) fn iter_from(&self, start: usize) -> impl Iterator<Item = (u32, u32, &[u32])> + '_ {
        (start..self.docs.len()).map(move |i| (self.docs[i], self.tf(i), self.positions(i)))
    }

    /// Records one occurrence of the term in `doc`, which must be the
    /// list's newest doc or newer, with the cumulative frequency `end`
    /// it brings the list to.
    fn count(&mut self, doc: u32, end: u32) {
        match self.docs.last() {
            Some(&last) if last == doc => *self.ends.last_mut().expect("one end per posting") = end,
            _ => {
                self.docs.push(doc);
                self.ends.push(end);
            }
        }
    }

    /// Records one occurrence of the term at `pos` in `doc`, which must
    /// be the list's newest doc or newer.
    pub(crate) fn push(&mut self, doc: u32, pos: u32) {
        self.positions.push(pos);
        let end =
            u32::try_from(self.positions.len()).expect("a term holds fewer than 2^32 positions");
        self.count(doc, end);
    }

    /// [`PostingList::push`] for a field without word positions: counts
    /// the occurrence and stores no position.
    pub(crate) fn push_freq(&mut self, doc: u32) {
        let end = self
            .occurrences()
            .checked_add(1)
            .expect("a term occurs fewer than 2^32 times");
        self.count(doc, end);
    }

    /// Adds `base` to every doc id (a segment-local list entering the
    /// index's id space).
    pub(crate) fn shift_docs(&mut self, base: u32) {
        for doc in &mut self.docs {
            *doc += base;
        }
    }

    /// Appends `tail`'s postings, their doc ids shifted by `base` (every
    /// shifted id must exceed the list's last doc), to a list a published
    /// snapshot may still share. An unshared list grows in place; a
    /// shared one is copied once, into buffers sized for both.
    /// `Arc::make_mut` would copy it at its old size and then move it
    /// again to grow, to twice the size: a median 415 instead of 361 MiB
    /// peak under the benchmark's interleaved ingest (ten alternating
    /// pairs, lower in nine).
    pub(crate) fn append_shifted(this: &mut Arc<PostingList>, tail: &PostingList, base: u32) {
        fn with_room(head: &[u32], extra: usize) -> Vec<u32> {
            let mut out = Vec::with_capacity(head.len() + extra);
            out.extend_from_slice(head);
            out
        }
        if Arc::get_mut(this).is_none() {
            *this = Arc::new(PostingList {
                docs: with_room(&this.docs, tail.docs.len()),
                ends: with_room(&this.ends, tail.ends.len()),
                positions: with_room(&this.positions, tail.positions.len()),
            });
        }
        let list = Arc::get_mut(this).expect("unshared, or copied just above");
        let offset = list.occurrences();
        assert!(
            offset.checked_add(tail.occurrences()).is_some(),
            "a term occurs fewer than 2^32 times"
        );
        list.docs.extend(tail.docs.iter().map(|&doc| doc + base));
        list.ends.extend(tail.ends.iter().map(|&end| end + offset));
        list.positions.extend_from_slice(&tail.positions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_list_without_positions_counts_frequencies() {
        let mut list = PostingList::default();
        for doc in [0, 0, 0, 2, 5, 5] {
            list.push_freq(doc);
        }
        assert_eq!(list.docs(), [0, 2, 5]);
        assert_eq!((0..3).map(|i| list.tf(i)).collect::<Vec<_>>(), [3, 1, 2]);
        assert_eq!(list.num_positions(), 0);
        assert!(list.positions(1).is_empty());

        let mut tail = PostingList::default();
        for doc in [0, 1, 1] {
            tail.push_freq(doc);
        }
        let mut shared = Arc::new(list);
        let published = Arc::clone(&shared);
        PostingList::append_shifted(&mut shared, &tail, 6);
        assert_eq!(shared.docs(), [0, 2, 5, 6, 7]);
        assert_eq!(shared.ends(), [3, 4, 6, 7, 9], "ends run on");
        assert_eq!(published.docs(), [0, 2, 5], "the published list stays");
    }

    #[test]
    fn a_list_with_positions_slices_them_per_posting() {
        let mut list = PostingList::default();
        for (doc, pos) in [(1, 0), (1, 4), (3, 2)] {
            list.push(doc, pos);
        }
        let postings: Vec<_> = list.iter().collect();
        assert_eq!(postings, [(1, 2, &[0, 4][..]), (3, 1, &[2][..])]);
    }
}
