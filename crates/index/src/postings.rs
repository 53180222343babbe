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
/// what cursors and scorers walk.
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
    pub(crate) fn tf(&self, i: usize) -> u32 {
        self.ends[i] - self.start(i)
    }

    /// Token positions of the term in posting `i`; empty in a list of a
    /// field without word positions.
    #[inline]
    pub(crate) fn positions(&self, i: usize) -> &'a [u32] {
        if self.positions.is_empty() {
            return &[];
        }
        &self.positions[self.start(i) as usize..self.ends[i] as usize]
    }

    /// `(doc, term frequency, positions)` of every posting, in doc order.
    pub(crate) fn iter(self) -> impl Iterator<Item = (u32, u32, &'a [u32])> {
        (0..self.docs.len()).map(move |i| (self.docs[i], self.tf(i), self.positions(i)))
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

/// The scratch arrays a query decodes frozen postings into: each list it
/// opens is appended (a [`Span`]) and read back as [`Postings`] once the
/// query has opened every list it walks at once. Cleared, not freed,
/// between uses, so a query allocates them once however many terms it
/// opens.
#[derive(Default)]
pub(crate) struct Decoded {
    pub(crate) docs: Vec<u32>,
    pub(crate) ends: Vec<u32>,
    pub(crate) positions: Vec<u32>,
}

/// Where one decoded list lies in a [`Decoded`]: its postings, and its
/// positions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    docs: (usize, usize),
    positions: (usize, usize),
}

impl Decoded {
    /// Forgets every list, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.docs.clear();
        self.ends.clear();
        self.positions.clear();
    }

    /// Where the list appended from here on starts; [`Decoded::close`]
    /// ends it.
    pub(crate) fn open(&self) -> Span {
        Span {
            docs: (self.docs.len(), self.docs.len()),
            positions: (self.positions.len(), self.positions.len()),
        }
    }

    /// The list `opened` started: everything appended since.
    pub(crate) fn close(&self, opened: Span) -> Span {
        Span {
            docs: (opened.docs.0, self.docs.len()),
            positions: (opened.positions.0, self.positions.len()),
        }
    }

    /// The list at `span`.
    pub(crate) fn get(&self, span: Span) -> Postings<'_> {
        Postings {
            docs: &self.docs[span.docs.0..span.docs.1],
            ends: &self.ends[span.docs.0..span.docs.1],
            positions: &self.positions[span.positions.0..span.positions.1],
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
    fn decoded_lists_read_back_by_span() {
        let mut decoded = Decoded::default();
        let mut spans = Vec::new();
        for (docs, ends, positions) in [
            (&[1u32, 4][..], &[2u32, 3][..], &[0u32, 5, 1][..]),
            (&[0], &[1], &[7]),
        ] {
            let opened = decoded.open();
            decoded.docs.extend_from_slice(docs);
            decoded.ends.extend_from_slice(ends);
            decoded.positions.extend_from_slice(positions);
            spans.push(decoded.close(opened));
        }
        let first: Vec<_> = decoded.get(spans[0]).iter().collect();
        assert_eq!(first, [(1, 2, &[0, 5][..]), (4, 1, &[1][..])]);
        let second: Vec<_> = decoded.get(spans[1]).iter().collect();
        assert_eq!(second, [(0, 1, &[7][..])]);
        assert_eq!(decoded.get(spans[1]).to_list().docs(), [0]);
    }
}
