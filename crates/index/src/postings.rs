//! Posting lists in RAM: the [`PostingList`]s a [`Segment`](crate::Segment)
//! builds before it is encoded, and the borrowed [`Postings`] view a
//! read walks of a frozen segment's list decoded into the query's
//! [`Decoded`] scratch.

/// One term's postings in struct-of-arrays form, sorted by doc id.
///
/// Posting `i` is document `docs[i]`, in which the term occurs
/// `ends[i] - ends[i - 1]` times (from 0 for `i == 0`): `ends` holds
/// cumulative term frequencies, and every posting's is at least one. In
/// a list of a field with word positions, the term's token positions in
/// posting `i` are `positions[ends[i - 1]..ends[i]]`; in a list of a
/// field without them (the n-gram field) `positions` is empty. A term
/// costs at most three heap buffers however long its list is. A decoded
/// list ([`Decoded`]) has the same layout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingList {
    docs: Vec<u32>,
    ends: Vec<u32>,
    positions: Vec<u32>,
}

impl PostingList {
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

    /// The term's occurrences across all postings: the last end.
    pub(crate) fn occurrences(&self) -> u32 {
        self.ends.last().copied().unwrap_or(0)
    }

    /// `(doc, term frequency, positions)` of every posting, in doc order;
    /// the positions are empty in a list of a field without word
    /// positions.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, &[u32])> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        let postings = self.docs.iter().zip(&self.ends).zip(starts);
        postings.map(|((&doc, &end), start)| {
            let positions = if self.positions.is_empty() {
                &[][..]
            } else {
                &self.positions[start as usize..end as usize]
            };
            (doc, end - start, positions)
        })
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
}

/// One term's postings as borrowed arrays, laid out as in a
/// [`PostingList`]: a frozen segment's list decoded into a [`Decoded`],
/// what a query scores.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Postings<'a> {
    docs: &'a [u32],
    ends: &'a [u32],
    positions: &'a [u32],
}

impl<'a> Postings<'a> {
    /// The doc ids, ascending.
    #[inline]
    pub(crate) fn docs(&self) -> &'a [u32] {
        self.docs
    }

    /// The cumulative term frequencies: `ends()[i]` is the term's
    /// occurrences in postings `0..=i`.
    pub(crate) fn ends(&self) -> &'a [u32] {
        self.ends
    }

    /// A list of its own holding these postings.
    pub(crate) fn to_list(self) -> PostingList {
        PostingList {
            docs: self.docs.to_vec(),
            ends: self.ends.to_vec(),
            positions: self.positions.to_vec(),
        }
    }
}

/// The scratch arrays a query decodes a frozen segment's list into, read
/// back as [`Postings`]. Cleared, not freed, between lists, so a query
/// allocates them once however many terms it opens.
#[derive(Default)]
pub(crate) struct Decoded {
    pub(crate) docs: Vec<u32>,
    pub(crate) ends: Vec<u32>,
    pub(crate) positions: Vec<u32>,
}

impl Decoded {
    /// Forgets the list, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.docs.clear();
        self.ends.clear();
        self.positions.clear();
    }

    /// The list decoded here.
    pub(crate) fn postings(&self) -> Postings<'_> {
        Postings {
            docs: &self.docs,
            ends: &self.ends,
            positions: &self.positions,
        }
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
        let postings: Vec<_> = list.iter().collect();
        assert_eq!(postings, [(0, 3, &[][..]), (2, 1, &[]), (5, 2, &[])]);
        assert_eq!(list.occurrences(), 6);
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

    #[test]
    fn a_decoded_list_reads_back() {
        let mut decoded = Decoded::default();
        decoded.docs.extend_from_slice(&[1, 4]);
        decoded.ends.extend_from_slice(&[2, 3]);
        decoded.positions.extend_from_slice(&[0, 5, 1]);
        let list = decoded.postings().to_list();
        let postings: Vec<_> = list.iter().collect();
        assert_eq!(postings, [(1, 2, &[0, 5][..]), (4, 1, &[1][..])]);
        decoded.clear();
        assert!(decoded.postings().to_list().is_empty());
    }
}
