//! A shard's stored payloads by internal doc id: a sealed prefix read
//! from the segment files, and the unsealed suffix in RAM.
//!
//! A sealed document's payload lives in its segment file alone. The
//! prefix is one [`PayloadFile`] per live segment, in manifest order,
//! each covering the next run of doc ids; it holds each file open and
//! where each payload lies in it, no payload byte. A read decompresses
//! the one block (two, when the payload straddles a boundary) that holds
//! the document; a [`PayloadsReader`] keeps the block it read last, so a
//! pass over the documents in doc-id order decompresses each block once.
//! The suffix holds the text of every document no seal has
//! written yet, which is what the next seal writes; an in-memory
//! instance is all suffix.
//!
//! A seal moves the suffix into the file it wrote ([`Payloads::seal`]),
//! and a compaction re-points the whole prefix at the one file it wrote
//! ([`Payloads::compacted`]). A snapshot that still holds a replaced
//! file keeps reading it through its open descriptor.

use create_storage::segment::{PayloadCursor, PayloadFile};
use create_storage::StorageError;
use create_util::{arc_slice_bytes, Chunked};
use std::borrow::Cow;
use std::sync::Arc;

/// The payload column of one shard (see the module docs).
#[derive(Clone, Default)]
pub(crate) struct Payloads {
    /// The sealed documents' files, in manifest order.
    sealed: Vec<Arc<PayloadFile>>,
    /// Documents not yet sealed, from doc id [`Payloads::sealed_docs`]
    /// on. Chunked, so an append after a publish copies the last chunk,
    /// not the column.
    unsealed: Chunked<Arc<str>>,
}

impl Payloads {
    /// Documents in the column.
    pub(crate) fn len(&self) -> usize {
        self.sealed_docs() + self.unsealed.len()
    }

    /// Documents the files hold: doc ids `0..sealed_docs()`.
    pub(crate) fn sealed_docs(&self) -> usize {
        self.sealed.iter().map(|file| file.docs()).sum()
    }

    /// The unsealed documents' payloads, in doc-id order.
    pub(crate) fn unsealed(&self) -> &Chunked<Arc<str>> {
        &self.unsealed
    }

    /// Appends an unsealed document's payload.
    pub(crate) fn push(&mut self, payload: &str) {
        self.unsealed.push(Arc::from(payload));
    }

    /// Appends a recovered segment file's documents, which follow every
    /// document the column holds; there must be no unsealed one.
    pub(crate) fn push_file(&mut self, file: PayloadFile) {
        assert!(self.unsealed.is_empty(), "a file follows the sealed docs");
        self.sealed.push(Arc::new(file));
    }

    /// The unsealed documents now live in `file`, which a seal wrote from
    /// them.
    pub(crate) fn seal(&mut self, file: PayloadFile) {
        assert_eq!(file.docs(), self.unsealed.len(), "the seal wrote them all");
        self.sealed.push(Arc::new(file));
        self.unsealed = Chunked::default();
    }

    /// Every sealed document now lives in `file`, which a compaction
    /// wrote from the prefix's files, in order.
    pub(crate) fn compacted(&mut self, file: PayloadFile) {
        assert_eq!(
            file.docs(),
            self.sealed_docs(),
            "the compaction wrote them all"
        );
        self.sealed = vec![Arc::new(file)];
    }

    /// Document `doc`'s payload, or `None` past the last document. A
    /// sealed payload that does not read back from its file is an error
    /// naming the file.
    pub(crate) fn get(&self, doc: usize) -> Result<Option<Cow<'_, str>>, StorageError> {
        self.reader().get(doc)
    }

    /// A reader of the column that keeps the block it read last.
    pub(crate) fn reader(&self) -> PayloadsReader<'_> {
        PayloadsReader {
            payloads: self,
            cursor: None,
        }
    }

    /// Heap bytes held: the file list and each file's `Arc` and tables,
    /// the suffix's chunks, and each unsealed text with its `Arc` header.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.sealed.capacity() * std::mem::size_of::<Arc<PayloadFile>>()
            + self
                .sealed
                .iter()
                .map(|file| arc_slice_bytes(std::mem::size_of::<PayloadFile>()) + file.heap_bytes())
                .sum::<usize>()
            + self.unsealed.heap_bytes()
            + self
                .unsealed
                .iter()
                .map(|payload| arc_slice_bytes(payload.len()))
                .sum::<usize>()
    }
}

/// Reads a [`Payloads`] column through a [`PayloadCursor`] on the sealed
/// file it read last, so documents read in doc-id order cost one read and
/// one decompression per block.
pub(crate) struct PayloadsReader<'a> {
    payloads: &'a Payloads,
    /// The cursor, and the index of its file in the sealed list.
    cursor: Option<(usize, PayloadCursor<'a>)>,
}

impl<'a> PayloadsReader<'a> {
    /// Document `doc`'s payload, as [`Payloads::get`] reads it.
    pub(crate) fn get(&mut self, doc: usize) -> Result<Option<Cow<'a, str>>, StorageError> {
        let mut local = doc;
        for (i, file) in self.payloads.sealed.iter().enumerate() {
            if local < file.docs() {
                if self.cursor.as_ref().map(|(at, _)| *at) != Some(i) {
                    self.cursor = Some((i, file.cursor()));
                }
                let (_, cursor) = self.cursor.as_mut().expect("set above");
                let bytes = cursor.get(local)?;
                let text = String::from_utf8(bytes).map_err(|_| StorageError::Corrupt {
                    path: file.path().to_path_buf(),
                    message: format!("doc {local}'s payload is not UTF-8"),
                })?;
                return Ok(Some(Cow::Owned(text)));
            }
            local -= file.docs();
        }
        let unsealed = &self.payloads.unsealed;
        Ok(unsealed.get(local).map(|text| Cow::Borrowed(&**text)))
    }
}
